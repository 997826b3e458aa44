//! Validators for exported observability files — the engine behind
//! `rannc-plan obs-check` and the round-trip test suite.
//!
//! [`check_trace`] decodes a Chrome-trace JSON document and verifies the
//! structural contract every consumer (Perfetto, the round-trip tests)
//! relies on:
//!
//! * the root is an object with a `traceEvents` array;
//! * every event is an object with string `ph`/`name` and integer
//!   `pid`/`tid`; complete (`"X"`) slices carry finite `ts` and
//!   `dur ≥ 0` (no end-before-start);
//! * per lane, slices are properly nested: a slice starting inside
//!   another ends inside it too — parent/child relations never cross
//!   lanes in the `X` model, so well-nestedness per lane is the whole
//!   hierarchy invariant.
//!
//! [`check_metrics`] validates a metrics JSONL export line by line
//! against the frozen schema in [`crate::sink`].
//!
//! [`check_explain`] validates a plan explain artifact
//! (`rannc_explain` schema v3): [`Recording::from_json`] decodes it
//! strictly, then [`explain_recording`] cross-checks the winner against
//! the candidates (its score is the minimum feasible score) and the
//! score bounds against both (a feasible cell scores at least its bound,
//! a bounded cell's bound is above the winner's score).
//!
//! All three are additive exports: every reader here ignores unknown
//! keys, and decodes through [`crate::json::decode`].

use crate::json;
use crate::recorder::{CandidateOutcome, Recording};
use std::collections::BTreeMap;

/// What a successful trace check observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Complete (`"X"`) slices.
    pub slices: usize,
    /// Metadata (`"M"`) events.
    pub metadata: usize,
    /// Distinct lanes carrying slices.
    pub lanes: usize,
    /// Slice count per name, sorted by name.
    pub by_name: Vec<(String, usize)>,
}

impl TraceSummary {
    /// Slices named `name`.
    pub fn count_of(&self, name: &str) -> usize {
        self.by_name
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, c)| *c)
    }
}

/// Tolerance for float timestamp comparisons, microseconds.
const EPS_US: f64 = 1e-3;

/// Validate a Chrome-trace JSON document.
pub fn check_trace(text: &str) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    // (ts, dur, name) slices per lane
    let mut lanes: BTreeMap<u64, Vec<(f64, f64, String)>> = BTreeMap::new();
    let mut names: BTreeMap<String, usize> = BTreeMap::new();
    json::decode(text, |root| {
        for e in root.obj()?.get("traceEvents")?.items()? {
            let e = e.obj()?;
            let ph = e.get("ph")?;
            let name = e.get("name")?.str()?;
            let tid = e.get("tid")?.u64()?;
            e.get("pid")?.u64()?;
            match ph.str()? {
                "M" => summary.metadata += 1,
                "X" => {
                    let ts = e.get("ts")?.f64()?;
                    let dur = e.get("dur")?;
                    if dur.f64()? < 0.0 {
                        return Err(dur.error(format!("`{name}` ends before it starts")));
                    }
                    summary.slices += 1;
                    *names.entry(name.to_string()).or_insert(0) += 1;
                    lanes
                        .entry(tid)
                        .or_default()
                        .push((ts, dur.f64()?, name.to_string()));
                }
                other => return Err(ph.error(format!("`{name}`: unsupported ph `{other}`"))),
            }
        }
        Ok(())
    })
    .map_err(|e| e.to_string())?;

    // per-lane nesting: sweep slices in (start asc, longer first) order
    // with a stack of open intervals
    for (tid, slices) in lanes.iter_mut() {
        slices.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut stack: Vec<(f64, f64, &str)> = Vec::new(); // (start, end, name)
        for (ts, dur, name) in slices.iter() {
            let end = ts + dur;
            while let Some(&(_, open_end, _)) = stack.last() {
                if open_end <= ts + EPS_US {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(_, open_end, open_name)) = stack.last() {
                if end > open_end + EPS_US {
                    return Err(format!(
                        "lane {tid}: slice `{name}` [{ts:.3}, {end:.3}] overlaps \
                         `{open_name}` (ends {open_end:.3}) without nesting"
                    ));
                }
            }
            stack.push((*ts, end, name));
        }
    }

    summary.lanes = lanes.len();
    summary.by_name = names.into_iter().collect();
    Ok(summary)
}

/// What a successful metrics check observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSummary {
    /// Counter lines.
    pub counters: usize,
    /// Gauge lines.
    pub gauges: usize,
    /// Histogram lines.
    pub histograms: usize,
}

impl MetricsSummary {
    /// Total metric lines.
    pub fn lines(&self) -> usize {
        self.counters + self.gauges + self.histograms
    }
}

/// Validate a metrics JSONL export.
pub fn check_metrics(text: &str) -> Result<MetricsSummary, String> {
    let mut summary = MetricsSummary::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        json::decode(line, |v| {
            let v = v.obj()?;
            let metric = v.get("metric")?.str()?;
            let kind = v.get("type")?;
            match kind.str()? {
                "counter" => {
                    v.get("value")?.u64()?;
                    summary.counters += 1;
                }
                "gauge" => {
                    v.get("value")?.f64()?;
                    summary.gauges += 1;
                }
                "histogram" => {
                    let count = v.get("count")?;
                    v.get("sum")?.f64()?;
                    // additive v1.1 quantile fields: optional, but when
                    // present they must be finite and ordered
                    let mut last_q = f64::NEG_INFINITY;
                    for key in ["p50", "p90", "p99"] {
                        if let Some(q) = v.opt(key) {
                            if q.f64()? < last_q {
                                return Err(q.error(format!(
                                    "`{metric}`: quantiles not monotone ({} after {last_q})",
                                    q.f64()?
                                )));
                            }
                            last_q = q.f64()?;
                        }
                    }
                    let mut total = 0u64;
                    let mut last_le = f64::NEG_INFINITY;
                    for b in v.get("buckets")?.items()? {
                        let b = b.obj()?;
                        let le = b.get("le")?;
                        if le.f64()? < last_le {
                            return Err(
                                le.error(format!("`{metric}`: bucket bounds not ascending"))
                            );
                        }
                        last_le = le.f64()?;
                        total = total.saturating_add(b.get("count")?.u64()?);
                    }
                    if total != count.u64()? {
                        return Err(count.error(format!(
                            "`{metric}`: bucket counts sum to {total}, `count` is {}",
                            count.u64()?
                        )));
                    }
                    summary.histograms += 1;
                }
                other => return Err(kind.error(format!("`{metric}`: unknown type `{other}`"))),
            }
            Ok(())
        })
        .map_err(|e| format!("line {}: {e}", lineno + 1))?;
    }
    Ok(summary)
}

/// What a successful explain-artifact check observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExplainSummary {
    /// Node tiers recorded.
    pub tiers: usize,
    /// Grid cells swept.
    pub candidates: usize,
    /// Cells with a feasible DP solution.
    pub feasible: usize,
    /// Cells whose DP found no placement.
    pub infeasible: usize,
    /// Cells skipped by their score bound.
    pub bounded: usize,
    /// Stages of the winning plan (0 when the search was infeasible).
    pub winner_stages: usize,
}

/// Decode a plan explain artifact and cross-check its winner:
/// present exactly when some candidate was feasible, and scored exactly
/// like the best feasible candidate, or like its refinement when one was
/// accepted. Every feasible cell scores at least its bound, and every
/// bounded cell's bound is strictly above the best feasible score, so
/// above the winner's too: a skipped cell could not have won.
pub fn explain_recording(text: &str) -> Result<Recording, String> {
    let rec = Recording::from_json(text).map_err(|e| e.to_string())?;
    let best = rec
        .tiers
        .iter()
        .flat_map(|t| &t.candidates)
        .filter_map(|c| match c.outcome {
            CandidateOutcome::Feasible { score, .. } => Some(score),
            _ => None,
        })
        .reduce(f64::min);
    let best_score = best.unwrap_or(f64::INFINITY);
    for (t, c) in rec
        .tiers
        .iter()
        .flat_map(|t| t.candidates.iter().map(move |c| (t, c)))
    {
        let cell = format!(
            "cell (S {}, MB {}, T {}) of tier n = {}",
            c.stages, c.microbatches, c.tp, t.n
        );
        match c.outcome {
            CandidateOutcome::Feasible { score, bound, .. } if bound > score => {
                return Err(format!("{cell} scores {score} below its bound {bound}"));
            }
            CandidateOutcome::Bounded { bound } if bound <= best_score => {
                return Err(format!(
                    "{cell} was skipped with bound {bound}, not above the winner's score {best_score}"
                ));
            }
            _ => {}
        }
    }
    match (&rec.winner, best) {
        (None, None) => {}
        (None, Some(_)) => {
            return Err(format!(
                "winner is null but {} candidate(s) were feasible",
                rec.totals().1
            ))
        }
        (Some(_), None) => return Err("winner present but no candidate was feasible".into()),
        (Some(w), Some(best)) => {
            // tolerate only float-format round-off
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.max(1e-30);
            // an accepted stage-cut refinement replaces the best
            // candidate's score with its own, strictly lower one
            let (want, what) = match &rec.refine {
                Some(r) => {
                    if !close(r.from_score, best) {
                        return Err(format!(
                            "refined winner's score {} does not match best feasible \
                             candidate score {best}",
                            r.from_score
                        ));
                    }
                    match r.to {
                        Some((score, _)) if r.accepted => (score, "refined score"),
                        _ => (best, "best feasible candidate score"),
                    }
                }
                None => (best, "best feasible candidate score"),
            };
            if !close(w.score, want) {
                return Err(format!(
                    "winner score {} does not match {what} {want}",
                    w.score
                ));
            }
        }
    }
    Ok(rec)
}

/// Validate a plan explain artifact (`rannc_explain` schema v3).
pub fn check_explain(text: &str) -> Result<ExplainSummary, String> {
    let rec = explain_recording(text)?;
    let (candidates, feasible, infeasible, bounded) = rec.totals();
    Ok(ExplainSummary {
        tiers: rec.tiers.len(),
        candidates,
        feasible,
        infeasible,
        bounded,
        winner_stages: rec.winner.map_or(0, |w| w.stages.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::sink;
    use crate::trace;
    use std::borrow::Cow;

    #[test]
    fn own_exports_pass_both_checks() {
        let _g = trace::test_guard();
        crate::set_enabled(true);
        trace::reset();
        let lane = trace::lane("stage 0");
        trace::record_slice(lane, Cow::Borrowed("F0"), "pipeline", 0.0, 10.0, Vec::new());
        trace::record_slice(
            lane,
            Cow::Borrowed("B0"),
            "pipeline",
            12.0,
            20.0,
            Vec::new(),
        );
        {
            let _outer = trace::span("outer", "test");
            let _inner = trace::span("inner", "test");
        }
        crate::set_enabled(false);
        let trace_text = sink::chrome_trace_json(&trace::snapshot_events());
        trace::reset();

        let summary = check_trace(&trace_text).expect("trace is well-formed");
        assert_eq!(summary.slices, 4);
        assert!(summary.metadata >= 1);
        assert_eq!(summary.count_of("F0"), 1);
        assert!(summary.lanes >= 2);

        metrics::counter("test.check.counter").inc();
        metrics::histogram("test.check.histo").observe(0.5);
        let jsonl = sink::metrics_jsonl(&metrics::snapshot());
        let m = check_metrics(&jsonl).expect("metrics are well-formed");
        assert!(m.counters >= 1 && m.histograms >= 1);
    }

    #[test]
    fn rejects_end_before_start() {
        let bad = r#"{"traceEvents": [
            {"ph": "X", "name": "broken", "cat": "t", "ts": 10.0, "dur": -5.0,
             "pid": 1, "tid": 0, "args": {}}
        ]}"#;
        let err = check_trace(bad).unwrap_err();
        assert!(err.contains("ends before it starts"), "{err}");
    }

    #[test]
    fn rejects_overlapping_non_nested_slices() {
        let bad = r#"{"traceEvents": [
            {"ph": "X", "name": "a", "cat": "t", "ts": 0.0, "dur": 10.0,
             "pid": 1, "tid": 7, "args": {}},
            {"ph": "X", "name": "b", "cat": "t", "ts": 5.0, "dur": 10.0,
             "pid": 1, "tid": 7, "args": {}}
        ]}"#;
        let err = check_trace(bad).unwrap_err();
        assert!(err.contains("without nesting"), "{err}");
        // the same two slices on different lanes are fine
        let ok = bad.replace("\"tid\": 7, \"args\": {}},", "\"tid\": 8, \"args\": {}},");
        assert!(check_trace(&ok).is_ok());
    }

    #[test]
    fn rejects_malformed_metrics_lines() {
        assert!(
            check_metrics("{\"metric\": \"x\"}").is_err(),
            "missing type"
        );
        assert!(
            check_metrics("{\"metric\": \"x\", \"type\": \"counter\", \"value\": -1}").is_err(),
            "negative counter"
        );
        assert!(
            check_metrics("{\"metric\": \"x\", \"type\": \"weird\", \"value\": 1}").is_err(),
            "unknown type"
        );
        assert!(check_metrics("not json").is_err());
        assert!(check_metrics("").is_ok(), "empty file is vacuously valid");
    }

    #[test]
    fn accepts_empty_trace() {
        let s = check_trace(r#"{"traceEvents": []}"#).expect("empty trace is valid");
        assert_eq!(s, TraceSummary::default());
    }

    #[test]
    fn accepts_retroactive_record_slice_nesting() {
        // record_slice lets simulated timelines append slices in any
        // order; the checker must sort per lane before the nesting sweep,
        // so a parent recorded *after* its children still validates
        let _g = trace::test_guard();
        crate::set_enabled(true);
        trace::reset();
        let l = trace::lane("sim");
        trace::record_slice(l, Cow::Borrowed("late-child"), "t", 6.0, 3.0, Vec::new());
        trace::record_slice(l, Cow::Borrowed("early-child"), "t", 1.0, 3.0, Vec::new());
        trace::record_slice(l, Cow::Borrowed("parent"), "t", 0.0, 10.0, Vec::new());
        crate::set_enabled(false);
        let text = sink::chrome_trace_json(&trace::snapshot_events());
        trace::reset();
        let s = check_trace(&text).expect("retroactive nesting is well-formed");
        assert_eq!(s.slices, 3);
        assert_eq!(s.lanes, 1);
    }

    #[test]
    fn accepts_slices_on_unregistered_lanes() {
        // lane ids are opaque to the checker: a slice on a tid that was
        // never registered via lane()/set_thread_name still validates
        let ok = r#"{"traceEvents": [
            {"ph": "X", "name": "orphan", "cat": "t", "ts": 0.0, "dur": 1.0,
             "pid": 1, "tid": 424242, "args": {}}
        ]}"#;
        let s = check_trace(ok).expect("unknown lane ids are fine");
        assert_eq!(s.slices, 1);
        assert_eq!(s.lanes, 1);
    }

    /// A minimal valid explain artifact the corruption suite mutates.
    fn valid_explain() -> String {
        use crate::recorder::*;
        let rec = Recording {
            context: ContextRec {
                model: "mlp".into(),
                batch_size: 32,
                nodes: 2,
                gpus_per_node: 2,
                total_devices: 4,
                cost_model: "analytical".into(),
            },
            tiers: vec![TierRec {
                n: 1,
                devices: 2,
                replica_factor: 2,
                candidates: vec![
                    CandidateRec {
                        stages: 1,
                        microbatches: 1,
                        tp: 1,
                        outcome: CandidateOutcome::Feasible {
                            score: 0.5,
                            bottleneck: 0.25,
                            bound: 0.375,
                        },
                    },
                    CandidateRec {
                        stages: 2,
                        microbatches: 1,
                        tp: 1,
                        outcome: CandidateOutcome::Infeasible,
                    },
                    CandidateRec {
                        stages: 2,
                        microbatches: 2,
                        tp: 1,
                        outcome: CandidateOutcome::Bounded { bound: 0.75 },
                    },
                ],
            }],
            winner: Some(WinnerRec {
                stages: vec![WinnerStageRec {
                    tasks: 4,
                    devices: 2,
                    tensor_parallel: 1,
                    micro_batch: 16,
                    fwd_time: 0.1,
                    bwd_time: 0.15,
                    transfer_time: 0.0,
                    allreduce_time: 0.01,
                    optimizer_time: 0.002,
                    mem_estimate_bytes: 1024,
                    mem_certified_bytes: None,
                    param_elems: 64,
                }],
                microbatches: 1,
                replica_factor: 2,
                score: 0.5,
                bottleneck: 0.25,
                est_iteration_time: 0.25,
            }),
            refine: None,
            accounting: AccountingRec {
                stage_cache_entries: 2,
                profiler_cache_entries: 3,
            },
        };
        to_json(&rec)
    }

    #[test]
    fn explain_checker_accepts_its_own_serialization() {
        let s = check_explain(&valid_explain()).expect("artifact is valid");
        assert_eq!(s.tiers, 1);
        assert_eq!(s.candidates, 3);
        assert_eq!(s.feasible, 1);
        assert_eq!(s.infeasible, 1);
        assert_eq!(s.bounded, 1);
        assert_eq!(s.winner_stages, 1);
    }

    #[test]
    fn rejects_malformed_explain_artifacts() {
        let good = valid_explain();
        // corruption suite: (mutation, what the validator must catch)
        let cases: Vec<(String, &str)> = vec![
            (good[..good.len() / 2].to_string(), "truncated JSON"),
            ("{}".to_string(), "empty object"),
            ("[1, 2, 3]".to_string(), "non-object root"),
            (
                good.replace("\"rannc_explain\"", "\"rannc_trace\""),
                "wrong schema tag",
            ),
            (
                good.replace("\"version\": 3", "\"version\": 2"),
                "version 2 artifact",
            ),
            (
                good.replace("\"outcome\": \"infeasible\"", "\"outcome\": \"maybe\""),
                "unknown outcome",
            ),
            (
                good.replace(
                    "\"score\": 0.5, \"bottleneck\": 0.25, \"bound\"",
                    "\"bottleneck\": 0.25, \"bound\"",
                ),
                "feasible candidate without a score",
            ),
            (
                good.replace("\"bound\": 0.375", "\"bound\": 0.625"),
                "feasible candidate scored below its bound",
            ),
            (
                good.replace(", \"bound\": 0.375", ""),
                "feasible candidate without a bound",
            ),
            (
                good.replace("\"bound\": 0.75", "\"bound\": 0.5"),
                "bounded cell whose bound ties the winner's score",
            ),
            (
                good.replace("\"bound\": 0.75", "\"bound\": 0.25"),
                "bounded cell whose bound is below the winner's score",
            ),
            (
                good.replace(", \"bound\": 0.75}", "}"),
                "bounded cell without a bound",
            ),
            (
                good.replace("\"candidates\": 3", "\"candidates\": 99"),
                "accounting total out of sync",
            ),
            (
                good.replace("\"bounded\": 1", "\"bounded\": 0"),
                "bounded count out of sync",
            ),
            (
                good.replace("\"winner\": {", "\"winner_\": {"),
                "missing winner",
            ),
            (
                good.replace("\"micro_batch\": 16", "\"micro_batch\": 0"),
                "zero micro-batch in a winner stage",
            ),
            (
                good.replace(
                    "\"mem_certified_bytes\": null",
                    "\"mem_certified_bytes\": -1",
                ),
                "negative certified memory",
            ),
            (
                good.replace("\"batch_size\": 32", "\"batch_size\": 1e300"),
                "batch size that saturates an integer cast",
            ),
            (
                good.replace("\"batch_size\": 32", "\"batch_size\": 32.5"),
                "fractional batch size",
            ),
            (
                good.replace("\"version\": 3", "\"version\": 3.0"),
                "version that is not an integer literal",
            ),
            (
                good.replace(
                    "\"model\": \"mlp\"",
                    "\"model\": \"mlp\", \"model\": \"gpt\"",
                ),
                "duplicate key",
            ),
            (
                good.replace("\"stage_cache_entries\": 2", "\"stage_cache_entries\": -2"),
                "negative cache entry count",
            ),
            ("[".repeat(200_000), "200,000 nested arrays"),
        ];
        for (bad, why) in cases {
            assert_ne!(bad, good, "mutation did not apply: {why}");
            assert!(check_explain(&bad).is_err(), "accepted artifact with {why}");
        }
    }

    /// An accepted refinement moves the winner's score below the best
    /// candidate's; a refine record must start from that candidate and,
    /// when accepted, end strictly below it at the winner's score.
    #[test]
    fn explain_checker_reads_the_refine_record() {
        let good = valid_explain();
        let winner = "\"score\": 0.5, \"bottleneck\": 0.25, \"est_iteration_time\": 0.25";
        let refined = good.replace(
            winner,
            "\"score\": 0.4, \"bottleneck\": 0.2, \"est_iteration_time\": 0.25",
        );
        let record = |score: &str, to: &str, accepted: bool| {
            format!(
                "  \"refine\": {{\"score\": {score}, \"bottleneck\": 0.25, \
                 \"refined_score\": {to}, \"refined_bottleneck\": 0.2, \"accepted\": {accepted}}},\n  \"accounting\""
            )
        };
        let with = |text: &str, rec: String| text.replace("  \"accounting\"", &rec);
        check_explain(&with(&refined, record("0.5", "0.4", true))).expect("accepted refinement");
        check_explain(&with(&good, record("0.5", "0.6", false))).expect("rejected refinement");
        for (bad, why) in [
            (
                with(&refined, record("0.5", "0.4", false)),
                "winner moved by a rejected refinement",
            ),
            (
                with(&good, record("0.5", "0.4", true)),
                "winner not moved by an accepted one",
            ),
            (
                with(&refined, record("0.6", "0.4", true)),
                "refinement of another candidate",
            ),
            (
                with(&good, record("0.5", "0.6", true)),
                "accepted without a lower score",
            ),
            (
                with(&good, record("0.5", "null", false)),
                "half a refined price",
            ),
        ] {
            assert!(check_explain(&bad).is_err(), "accepted artifact with {why}");
        }
    }

    #[test]
    fn explain_checker_rejects_winner_score_mismatch() {
        // the winner's score must be the minimum feasible candidate score
        let good = valid_explain();
        let bad = good.replace(
            "\"score\": 0.5, \"bottleneck\": 0.25, \"est_iteration_time\": 0.25",
            "\"score\": 0.6, \"bottleneck\": 0.25, \"est_iteration_time\": 0.25",
        );
        assert_ne!(bad, good);
        let err = check_explain(&bad).unwrap_err();
        assert!(err.contains("does not match best feasible"), "{err}");
    }
}
