//! ASCII visualization of pipeline schedules.
//!
//! Renders the simulator's timeline as the kind of stage/time grid the
//! paper's Fig. 1 uses: one row per stage, forward work as the
//! micro-batch digit, backward work as a letter, idle as dots. Useful in
//! examples and for eyeballing bubble structure.

use crate::sync::TimelineEvent;
use rannc_verify::PhaseKind;

/// Render `events` (from [`crate::sync::simulate_sync`] with
/// `want_timeline = true`) as an ASCII Gantt chart of `width` columns.
///
/// Forward slots print the micro-batch index modulo 10; backward slots
/// print letters (`a` = micro-batch 0). Transfers and idle time appear as
/// `·`.
pub fn render_timeline(events: &[TimelineEvent], stages: usize, width: usize) -> String {
    assert!(width >= 10, "width too small to render");
    let end = events.iter().map(|e| e.end).fold(0.0f64, f64::max);
    if stages == 0 || end <= 0.0 {
        return String::new();
    }
    let scale = width as f64 / end;
    let mut rows = vec![vec!['·'; width]; stages];
    for e in events {
        if e.stage >= stages {
            continue; // an event outside the grid must not panic the chart
        }
        let c0 = (e.start * scale).floor() as usize;
        let c1 = (((e.end * scale).ceil() as usize).max(c0 + 1)).min(width);
        let ch = match e.kind {
            PhaseKind::Forward => char::from_digit((e.micro % 10) as u32, 10).unwrap(),
            PhaseKind::Backward => (b'a' + (e.micro % 26) as u8) as char,
        };
        for cell in rows[e.stage][c0..c1].iter_mut() {
            *cell = ch;
        }
    }
    let mut out = String::with_capacity(stages * (width + 12));
    for (s, row) in rows.iter().enumerate() {
        out.push_str(&format!("stage {s:>2} |"));
        out.extend(row.iter());
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "          0{:>width$}\n",
        format!("{:.1} ms", end * 1e3),
        width = width
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PipelineSpec, StageSpec};
    use crate::sync::{simulate_sync, SyncSchedule};
    use rannc_hw::{ClusterSpec, LinkSpec};

    fn spec(stages: usize, mb: usize) -> PipelineSpec {
        PipelineSpec {
            stages: (0..stages)
                .map(|_| StageSpec {
                    fwd_time: 0.01,
                    bwd_time: 0.02,
                    comm_to_next_bytes: 0,
                    grad_bytes: 0,
                    replicas: 1,
                    tensor_parallel: 1,
                })
                .collect(),
            microbatches: mb,
            replica_factor: 1,
            batch_size: 32,
            link: LinkSpec::nvlink(),
            cluster: ClusterSpec::v100_cluster(1),
            cost: rannc_cost::CostFactors::identity(),
        }
    }

    #[test]
    fn renders_all_stages() {
        let out = simulate_sync(&spec(3, 4), SyncSchedule::FillDrain, true);
        let txt = render_timeline(&out.timeline.unwrap(), 3, 60);
        assert_eq!(txt.lines().count(), 4); // 3 stages + time axis
        assert!(txt.contains("stage  0"));
        assert!(txt.contains("stage  2"));
        // forward digits and backward letters both appear
        assert!(txt.contains('0'));
        assert!(txt.contains('a'));
    }

    #[test]
    fn fill_drain_shows_the_bubble() {
        // in a 4-stage fill-drain chart, stage 3's row must start idle
        let out = simulate_sync(&spec(4, 4), SyncSchedule::FillDrain, true);
        let txt = render_timeline(&out.timeline.unwrap(), 4, 80);
        let last_row = txt.lines().nth(3).unwrap();
        let cells: Vec<char> = last_row.chars().skip("stage  3 |".len()).collect();
        assert_eq!(cells[0], '·', "last stage should start idle (fill bubble)");
    }

    #[test]
    fn empty_timeline_is_empty_string() {
        assert_eq!(render_timeline(&[], 2, 40), "");
    }

    #[test]
    fn zero_stages_is_empty_string() {
        // no rows to draw: empty output, even with events present
        assert_eq!(render_timeline(&[], 0, 40), "");
        let out = simulate_sync(&spec(2, 2), SyncSchedule::FillDrain, true);
        assert_eq!(render_timeline(&out.timeline.unwrap(), 0, 40), "");
    }

    #[test]
    fn out_of_range_stage_events_are_skipped() {
        let out = simulate_sync(&spec(3, 2), SyncSchedule::FillDrain, true);
        // render only the first two rows; stage-2 events fall outside
        let txt = render_timeline(&out.timeline.unwrap(), 2, 40);
        assert_eq!(txt.lines().count(), 3); // 2 stages + time axis
        assert!(txt.contains("stage  1"));
        assert!(!txt.contains("stage  2"));
    }
}
