//! The per-layer ledger: each traced request's wall time split into the
//! self time of the layers it passed through.
//!
//! Requests are the benchmark's `op` spans. A span's self time is its
//! duration minus the part its children on the same thread cover, so the
//! self times of one request's spans on the request's own thread add up
//! to the request's duration exactly. Spans on other threads (the
//! sweep's `dp` workers) run while the request thread waits inside
//! `sweep`; they are summed separately as busy time.

use crate::rebuild::CAT;
use rannc::obs::trace::TraceEvent;
use std::collections::BTreeMap;

/// Span name → the ledger entry its self time is booked to. `dp` on the
/// request's own thread (a one-group sweep runs inline) is sweep time on
/// the critical path; any other span, and the root's own remainder, is
/// unattributed.
const LAYERS: &[(&str, &str)] = &[
    ("cost.build", "cost.build_s"),
    ("atomic", "core.atomic_s"),
    ("blocks", "core.blocks_s"),
    ("coarsen", "core.coarsen_s"),
    ("uncoarsen", "core.uncoarsen_s"),
    ("compact", "core.compact_s"),
    ("search", "core.search_s"),
    ("prefetch_ranges", "core.prefetch_ranges_s"),
    ("sweep", "core.sweep_s"),
    ("dp", "core.sweep_s"),
    ("from_solution", "core.from_solution_s"),
    ("verify_plan", "verify.plan_s"),
    ("verify_deep", "verify.deep_s"),
];

/// Where time no layer span claims is booked.
pub const OTHER: &str = "core.other_s";

/// Every entry a request's self time can be booked to.
pub fn entries() -> impl Iterator<Item = &'static str> {
    let mut names: Vec<&str> = LAYERS.iter().map(|&(_, e)| e).collect();
    names.push(OTHER);
    names.sort_unstable();
    names.dedup();
    names.into_iter()
}

fn entry_of(span_name: &str) -> &'static str {
    LAYERS
        .iter()
        .find(|&&(n, _)| n == span_name)
        .map_or(OTHER, |&(_, e)| e)
}

/// One traced request, split by layer.
#[derive(Debug, Default)]
pub struct Request {
    /// The `op` span's duration, seconds.
    pub wall_s: f64,
    /// Self seconds per ledger entry; they sum to `wall_s`.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Summed duration of every `dp` span of the request, on any thread.
    pub dp_busy_s: f64,
}

/// Split every `op` span in `events` into its layers, in request order.
pub fn requests(events: &[TraceEvent]) -> Vec<Request> {
    let mut ops: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.name == "op" && e.cat == CAT)
        .collect();
    ops.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    ops.iter()
        .map(|op| {
            let inside: Vec<&TraceEvent> = events.iter().filter(|e| contains(op, e)).collect();
            let mut req = Request {
                wall_s: op.dur_us * 1e-6,
                ..Request::default()
            };
            for e in inside.iter().filter(|e| e.name == "dp") {
                req.dp_busy_s += e.dur_us * 1e-6;
            }
            let lane: Vec<&TraceEvent> = inside.into_iter().filter(|e| e.tid == op.tid).collect();
            for (e, self_us) in lane.iter().zip(self_times(&lane)) {
                let entry = if std::ptr::eq(*e, *op) {
                    OTHER
                } else {
                    entry_of(&e.name)
                };
                *req.self_s.entry(entry).or_default() += self_us * 1e-6;
            }
            req
        })
        .collect()
}

/// Whether `inner` lies within `outer`'s interval. Both ends come from
/// one monotonic clock read in nesting order, so no tolerance is needed
/// beyond float rounding of the microsecond values.
fn contains(outer: &TraceEvent, inner: &TraceEvent) -> bool {
    const EPS_US: f64 = 1e-3;
    inner.ts_us >= outer.ts_us - EPS_US
        && inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us + EPS_US
}

/// Self time of each span of one thread, in input order: its duration
/// minus its direct children's.
fn self_times(lane: &[&TraceEvent]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..lane.len()).collect();
    // parents before children: earlier start first, longer first on ties
    order.sort_by(|&a, &b| {
        lane[a]
            .ts_us
            .total_cmp(&lane[b].ts_us)
            .then(lane[b].dur_us.total_cmp(&lane[a].dur_us))
    });
    let mut self_us: Vec<f64> = lane.iter().map(|e| e.dur_us).collect();
    let mut stack: Vec<usize> = Vec::new();
    for i in order {
        while let Some(&top) = stack.last() {
            if contains(lane[top], lane[i]) {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            self_us[parent] -= lane[i].dur_us;
        }
        stack.push(i);
    }
    self_us
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn ev(name: &'static str, tid: u64, ts: f64, dur: f64) -> TraceEvent {
        TraceEvent {
            name: Cow::Borrowed(name),
            cat: if name == "op" { CAT } else { "planner" },
            ts_us: ts,
            dur_us: dur,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_times_split_one_request_exactly() {
        let events = vec![
            ev("coarsen", 0, 110.0, 30.0),
            ev("blocks", 0, 100.0, 50.0),
            ev("dp", 1, 160.0, 25.0),
            ev("dp", 2, 160.0, 20.0),
            ev("sweep", 0, 155.0, 35.0),
            ev("search", 0, 150.0, 45.0),
            ev("op", 0, 90.0, 110.0),
            // a second request, outside the first one's interval
            ev("op", 0, 300.0, 10.0),
        ];
        let reqs = requests(&events);
        assert_eq!(reqs.len(), 2);
        let r = &reqs[0];
        let us = |k: &str| r.self_s.get(k).copied().unwrap_or(0.0) * 1e6;
        assert!((us("core.blocks_s") - 20.0).abs() < 1e-6);
        assert!((us("core.coarsen_s") - 30.0).abs() < 1e-6);
        assert!((us("core.search_s") - 10.0).abs() < 1e-6);
        assert!((us("core.sweep_s") - 35.0).abs() < 1e-6);
        assert!((us(OTHER) - 15.0).abs() < 1e-6);
        assert!((r.dp_busy_s * 1e6 - 45.0).abs() < 1e-6);
        let total: f64 = r.self_s.values().sum();
        assert!((total - r.wall_s).abs() < 1e-12);
        assert!((reqs[1].wall_s * 1e6 - 10.0).abs() < 1e-9);
    }
}
