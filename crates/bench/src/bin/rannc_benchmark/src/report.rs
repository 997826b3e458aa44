//! The metrics: their definitions, their values for one run, and the
//! result line every run ends with.

use crate::ledger;
use crate::stats::{mean, median, percentile};
use crate::workload::RunResult;
use rannc::obs::json::{escape, fmt_f64, parse, Value};
use Better::{Higher, Lower};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric and the share of its median by which it may
/// worsen before a change counts as a regression.
pub struct Bounded {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn bounded(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Bounded {
    Bounded {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the planner sees. Every workload reports all of them;
/// on churn one request is one `replan_with_backoff` call.
pub const END_TO_END: [Bounded; 6] = [
    bounded("setup_s", "s", Lower, 0.25),
    bounded("plan_s_p50", "s", Lower, 0.20),
    bounded("plan_s_p75", "s", Lower, 0.25),
    bounded("plan_s_mean", "s", Lower, 0.25),
    // deterministic: any drop is a change of plan
    bounded("sim_samples_per_s", "samples/s", Higher, 0.001),
    // glibc's per-thread arenas make the peak creep by 1-2 MiB with
    // two planner threads (flat with one), which is 10-15% on resnet
    bounded("peak_rss_mib", "MiB", Lower, 0.25),
];

/// One value a run reports.
#[derive(Debug, PartialEq)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The end-to-end metrics of an untraced run. Refuses a run with too few
/// requests for its percentiles.
pub fn end_to_end(r: &RunResult) -> Result<Vec<Measured>, String> {
    let values = [
        median(&r.setup_s),
        percentile(&r.latencies, 50.0)?,
        percentile(&r.latencies, 75.0)?,
        mean(&r.latencies),
        r.sim_samples_per_s,
        r.peak_rss_mib,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(d, value)| measured(d.name, value, d.unit, r.speed()))
        .collect())
}

/// A value as reported: times in seconds at the reference speed.
fn measured(name: &str, value: f64, unit: &str, speed: f64) -> Measured {
    Measured {
        name: name.into(),
        value: if unit == "s" { value / speed } else { value },
        unit: unit.into(),
    }
}

/// What the per-layer metrics are computed from.
struct Layers<'a> {
    run: &'a RunResult,
    trace: &'a crate::workload::TraceResult,
}

impl Layers<'_> {
    fn requests(&self) -> f64 {
        self.trace.requests.len() as f64
    }

    /// Mean self seconds per traced request booked to a ledger entry.
    fn self_s(&self, entry: &str) -> f64 {
        // folded from +0.0: an empty f64 sum is -0.0
        let total = self
            .trace
            .requests
            .iter()
            .filter_map(|r| r.self_s.get(entry))
            .fold(0.0, |a, b| a + b);
        total / self.requests()
    }

    fn verify_s(&self) -> f64 {
        self.self_s("verify.plan_s") + self.self_s("verify.deep_s")
    }

    /// Per timed black-box request.
    fn per_op(&self, count: usize) -> f64 {
        count as f64 / self.run.latencies.len() as f64
    }

    fn per_request(&self, count: u64) -> f64 {
        count as f64 / self.requests()
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// A per-layer metric: no bound, computed from a traced run.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    value: fn(&Layers) -> f64,
}

const fn layer(name: &'static str, unit: &'static str, value: fn(&Layers) -> f64) -> LayerMetric {
    LayerMetric { name, unit, value }
}

/// Layer times are mean self seconds per traced request, so they add up
/// to the mean traced request (`core.other_s` holds what no layer span
/// claims). Counts are per request; ratios are over the whole run.
pub const PER_LAYER: [LayerMetric; 27] = [
    layer("models.build_s", "s", |l| median(&l.run.graph_s)),
    layer("cost.build_s", "s", |l| l.self_s("cost.build_s")),
    layer("core.atomic_s", "s", |l| l.self_s("core.atomic_s")),
    layer("core.blocks_s", "s", |l| l.self_s("core.blocks_s")),
    layer("core.coarsen_s", "s", |l| l.self_s("core.coarsen_s")),
    layer("core.uncoarsen_s", "s", |l| l.self_s("core.uncoarsen_s")),
    layer("core.compact_s", "s", |l| l.self_s("core.compact_s")),
    layer("core.search_s", "s", |l| l.self_s("core.search_s")),
    layer("core.prefetch_ranges_s", "s", |l| {
        l.self_s("core.prefetch_ranges_s")
    }),
    layer("core.sweep_s", "s", |l| l.self_s("core.sweep_s")),
    layer("core.dp_busy_s", "s", |l| {
        l.trace.requests.iter().map(|r| r.dp_busy_s).sum::<f64>() / l.requests()
    }),
    layer("core.from_solution_s", "s", |l| {
        l.self_s("core.from_solution_s")
    }),
    layer("verify_s", "s", |l| l.verify_s()),
    layer("core.other_s", "s", |l| l.self_s(ledger::OTHER)),
    layer("pipeline.simulate_s", "s", |l| mean(&l.run.simulate_s)),
    layer("core.search.candidates", "count", |l| {
        l.per_request(l.trace.counters.candidates)
    }),
    layer("core.search.pruned", "count", |l| {
        l.per_request(l.trace.counters.pruned)
    }),
    layer("core.search.prune_ratio", "ratio", |l| {
        let c = &l.trace.counters;
        ratio(c.pruned as f64, c.candidates as f64)
    }),
    layer("core.stagecache.hit_rate", "ratio", |l| {
        let c = &l.trace.counters;
        ratio(c.stage_hits as f64, (c.stage_hits + c.stage_misses) as f64)
    }),
    layer("core.stagecache.entries", "count", |l| {
        l.per_request(l.trace.counters.stage_entries)
    }),
    layer("profile.cache_hit_rate", "ratio", |l| {
        let c = &l.trace.counters;
        ratio(
            c.profile_hits as f64,
            (c.profile_hits + c.profile_misses) as f64,
        )
    }),
    layer("profile.cache_entries", "count", |l| {
        l.per_request(l.trace.counters.profile_entries)
    }),
    layer("verify.deep_share", "ratio", |l| {
        ratio(l.self_s("verify.deep_s"), l.verify_s())
    }),
    layer("replan.warm_ratio", "ratio", |l| l.per_op(l.run.warm)),
    layer("replan.attempts_mean", "count", |l| {
        l.per_op(l.run.attempts)
    }),
    layer("replan.hetero_ratio", "ratio", |l| l.per_op(l.run.hetero)),
    layer("obs.trace_overhead", "ratio", |l| {
        median(&l.trace.latencies) / median(&l.run.latencies) - 1.0
    }),
];

/// The per-layer metrics of a traced run.
pub fn per_layer(r: &RunResult) -> Result<Vec<Measured>, String> {
    let trace = r.trace.as_ref().ok_or("the run was not traced")?;
    if trace.requests.is_empty() || r.latencies.is_empty() {
        return Err("no traced or untraced requests to split".into());
    }
    let l = Layers { run: r, trace };
    Ok(PER_LAYER
        .iter()
        .map(|m| measured(m.name, (m.value)(&l), m.unit, r.speed()))
        .collect())
}

/// The result line: the last line a single-workload run prints.
pub fn result_json(attempted: usize, failed: usize, metrics: &[Measured]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                fmt_f64(m.value),
                escape(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// A result line read back.
#[derive(Debug, PartialEq)]
pub struct Parsed {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Measured>,
}

pub fn parse_result(line: &str) -> Result<Parsed, String> {
    let doc = parse(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let count = |key: &str| -> Result<usize, String> {
        doc.get(key)
            .and_then(Value::as_f64)
            .filter(|v| v.fract() == 0.0 && *v >= 0.0)
            .map(|v| v as usize)
            .ok_or_else(|| format!("result line has no whole number `{key}`"))
    };
    let correct = match doc.get("correct") {
        Some(Value::Bool(b)) => *b,
        _ => return Err("result line has no boolean `correct`".into()),
    };
    let Some(Value::Obj(fields)) = doc.get("metrics") else {
        return Err("result line has no `metrics` object".into());
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            let unit = m.get("unit").and_then(Value::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => Ok(Measured {
                    name: name.clone(),
                    value,
                    unit: unit.into(),
                }),
                _ => Err(format!(
                    "metric `{name}` needs a number `value` and a `unit`"
                )),
            }
        })
        .collect::<Result<_, _>>()?;
    Ok(Parsed {
        correct,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_obs_parser() {
        let metrics = vec![
            Measured {
                name: "plan_s_p50".into(),
                value: 0.712_345_678_901_234_5,
                unit: "s".into(),
            },
            Measured {
                name: "sim_samples_per_s".into(),
                value: 19.758,
                unit: "samples/s".into(),
            },
            Measured {
                name: "peak_rss_mib".into(),
                value: 512.0,
                unit: "MiB".into(),
            },
        ];
        let line = result_json(40, 0, &metrics);
        assert!(line.contains("\"attempted\": 40,"), "{line}");
        let back = parse_result(&line).expect("parses");
        assert_eq!(
            back,
            Parsed {
                correct: true,
                attempted: 40,
                failed: 0,
                metrics,
            }
        );
        let failed = parse_result(&result_json(3, 1, &[])).expect("parses");
        assert!(!failed.correct);
        assert!(parse_result("{\"correct\": true}").is_err());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for n in names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
