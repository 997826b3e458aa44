//! Deterministic mutation fuzzer over every artifact loader.
//!
//! Each loader gets a valid document of its own schema — most produced
//! by the real writer, the explain artifact and the plan file by a real
//! search — and is then fed mutants of it: bit flips, truncations,
//! splices, numeric-boundary literals (`-1`, `1.5`, `1e300`, `2^64`, …)
//! and deep nesting. The plan codec also gets mutants whose checksum is
//! re-forged, so the payload decoder sees them. The contract on every
//! mutant: a typed error, or a value that survives an exact round trip
//! through its own writer. A panic (stack overflow included) fails.
//!
//! Cases derive from the vendored proptest's fixed seed, so a failure
//! names a reproducible case index.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rannc::core::plan_io::{decode_plan, encode_plan};
use rannc::cost::{Calibration, CostModelSpec};
use rannc::faults::ClusterEventTrace;
use rannc::hw::ClusterSpec;
use rannc::obs::check::{check_explain, check_metrics, check_trace};
use rannc::obs::json;
use rannc::obs::metrics::{HistogramSnapshot, MetricSample, MetricValue};
use rannc::obs::recorder::{self, Recording};
use rannc::obs::sink;
use rannc::obs::trace::{ArgVal, TraceEvent};
use rannc::profile::CacheStats;
use rannc_bench::planner::{self, BenchReport, CaseResult};
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// One valid document per loader.
struct Corpus {
    calibration: String,
    churn: String,
    explain: String,
    trace: String,
    metrics: String,
    report: String,
    plan: Vec<u8>,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let (explain, plan) =
            planner::explain_artifact(&planner::cases(true)[0], &CostModelSpec::Analytical)
                .expect("explained search");
        let calibration = Calibration {
            compute: 1.05,
            ops: vec![("matmul".into(), 1.12), ("softmax".into(), 0.95)],
            link_intra: 1.01,
            link_inter: 1.25,
            allreduce: 1.07,
            optimizer: 0.9,
            memory: 1.1,
        };
        let churn = ClusterEventTrace::generate(7, 16, &ClusterSpec::v100_cluster(2), 5);
        let slice = |name: &'static str, ts_us: f64, dur_us: f64, tid: u64| TraceEvent {
            name: Cow::Borrowed(name),
            cat: "planner",
            ts_us,
            dur_us,
            tid,
            args: vec![("n", ArgVal::Int(3)), ("why", ArgVal::Str("x".into()))],
        };
        let trace = sink::chrome_trace_json(&[
            slice("partition", 0.0, 100.0, 1),
            slice("coarsen", 10.0, 20.5, 1),
            slice("dp", 5.0, 1.25, 2),
        ]);
        let metric = |name: &str, value| MetricSample {
            name: name.into(),
            value,
        };
        let metrics = sink::metrics_jsonl(&[
            metric("fuzz.counter", MetricValue::Counter(42)),
            metric("fuzz.gauge", MetricValue::Gauge(2.5)),
            metric(
                "fuzz.histogram",
                MetricValue::Histogram(HistogramSnapshot {
                    count: 3,
                    sum: 1.5,
                    buckets: vec![(0.25, 1), (1.0, 2)],
                }),
            ),
        ]);
        Corpus {
            calibration: calibration.to_json(),
            churn: churn.to_json(),
            explain,
            trace,
            metrics,
            report: planner::to_json(&sample_report()),
            plan: encode_plan(&plan),
        }
    })
}

/// A one-case report, the bench report seed and the run compared
/// against mutated baselines.
fn sample_report() -> BenchReport {
    BenchReport {
        quick: true,
        paper: false,
        cost_model: "analytical".into(),
        tp_max: 4,
        cases: vec![CaseResult {
            model: "bert-4l".into(),
            devices: 16,
            batch: 64,
            k: 8,
            tasks: 100,
            blocks: 8,
            prep_seconds: 0.01,
            search_seconds: 0.05,
            plan_stages: 2,
            tp_max: 4,
            plan_tp: vec![1, 2],
            search: Default::default(),
            profiler_cache: CacheStats::default(),
        }],
    }
}

/// Literals a loader must not coerce: negative, fractional, saturating,
/// just past `u64`, infinite, and the 32-bit edge.
const BOUNDARY: [&str; 8] = [
    "-1",
    "1.5",
    "1e300",
    "18446744073709551616",
    "0",
    "-0.0",
    "1e999",
    "4294967296",
];

/// Mutate `doc` once; returns a label for failure messages.
fn mutate(doc: &[u8], rng: &mut TestRng, out: &mut Vec<u8>) -> &'static str {
    out.clear();
    out.extend_from_slice(doc);
    let at = |rng: &mut TestRng, len: usize| rng.below(len as u64 + 1) as usize;
    match rng.below(5) {
        0 => {
            for _ in 0..=rng.below(3) {
                if !out.is_empty() {
                    let i = rng.below(out.len() as u64) as usize;
                    out[i] ^= 1 << rng.below(8);
                }
            }
            "bit flip"
        }
        1 => {
            out.truncate(at(rng, doc.len()));
            "truncate"
        }
        2 => {
            let (a, b) = (at(rng, doc.len()), at(rng, doc.len()));
            let piece = doc[a.min(b)..a.max(b)].to_vec();
            let p = at(rng, out.len());
            out.splice(p..p, piece);
            "splice"
        }
        3 => {
            // replace one number literal (a digit run not inside a word)
            let starts: Vec<usize> = (0..doc.len())
                .filter(|&i| {
                    doc[i].is_ascii_digit()
                        && (i == 0 || matches!(doc[i - 1], b' ' | b':' | b'[' | b','))
                })
                .collect();
            if starts.is_empty() {
                return "numeric boundary (no literal)";
            }
            let s = starts[rng.below(starts.len() as u64) as usize];
            let mut e = s;
            while e < doc.len() && matches!(doc[e], b'0'..=b'9' | b'.' | b'e' | b'E' | b'-' | b'+')
            {
                e += 1;
            }
            let lit = BOUNDARY[rng.below(BOUNDARY.len() as u64) as usize];
            out.splice(s..e, lit.bytes());
            "numeric boundary"
        }
        _ => {
            let depth = if rng.below(2) == 0 {
                200_000
            } else {
                120 + rng.below(16) as usize
            };
            let p = at(rng, out.len());
            out.splice(p..p, std::iter::repeat_n(b'[', depth));
            "deep nesting"
        }
    }
}

/// Run `check` on the mutant, turning a panic into a failure that names
/// the loader, the mutation and the input.
fn survive(
    loader: &str,
    what: &str,
    input: &[u8],
    check: impl FnOnce() -> Result<(), String>,
) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(check)) {
        Ok(r) => r.map_err(|e| format!("{loader} / {what}: {e}")),
        Err(_) => Err(format!(
            "{loader} panicked on a {what} mutant: {:?}",
            String::from_utf8_lossy(&input[..input.len().min(400)])
        )),
    }
}

/// The document re-serialized through the `Value` tree, or `None` when
/// it is not JSON (then the loader must already have failed).
fn reserialized(text: &str) -> Option<String> {
    json::parse(text).ok().map(|v| v.to_json())
}

fn same<T: PartialEq + std::fmt::Debug>(a: T, b: T, what: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: {a:?} != {b:?}"))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn calibration_loader(seed in any::<u64>()) {
        let mut m = Vec::new();
        let what = mutate(corpus().calibration.as_bytes(), &mut TestRng::new(seed), &mut m);
        let text = String::from_utf8_lossy(&m);
        survive("calibration", what, &m, || match Calibration::from_json(&text) {
            Err(_) => Ok(()),
            Ok(cal) => same(Calibration::from_json(&cal.to_json()), Ok(cal), "round trip"),
        })?;
    }

    #[test]
    fn churn_trace_loader(seed in any::<u64>()) {
        let mut m = Vec::new();
        let what = mutate(corpus().churn.as_bytes(), &mut TestRng::new(seed), &mut m);
        let text = String::from_utf8_lossy(&m);
        survive("churn trace", what, &m, || match ClusterEventTrace::from_json(&text) {
            Err(_) => Ok(()),
            Ok(t) => same(
                ClusterEventTrace::from_json(&t.to_json()).ok(),
                Some(t),
                "round trip",
            ),
        })?;
    }

    #[test]
    fn explain_loader(seed in any::<u64>()) {
        let mut m = Vec::new();
        let what = mutate(corpus().explain.as_bytes(), &mut TestRng::new(seed), &mut m);
        let text = String::from_utf8_lossy(&m);
        survive("explain", what, &m, || {
            let summary = check_explain(&text);
            match Recording::from_json(&text) {
                Err(_) => same(summary.is_err(), true, "checker accepted what the decoder refused"),
                Ok(rec) => same(
                    Recording::from_json(&recorder::to_json(&rec)).ok(),
                    Some(rec),
                    "round trip",
                ),
            }
        })?;
    }

    #[test]
    fn trace_loader(seed in any::<u64>()) {
        let mut m = Vec::new();
        let what = mutate(corpus().trace.as_bytes(), &mut TestRng::new(seed), &mut m);
        let text = String::from_utf8_lossy(&m);
        survive("trace", what, &m, || match check_trace(&text) {
            Err(_) => Ok(()),
            Ok(s) => same(reserialized(&text).map(|t| check_trace(&t)), Some(Ok(s)), "round trip"),
        })?;
    }

    #[test]
    fn metrics_loader(seed in any::<u64>()) {
        let mut m = Vec::new();
        let what = mutate(corpus().metrics.as_bytes(), &mut TestRng::new(seed), &mut m);
        let text = String::from_utf8_lossy(&m);
        survive("metrics", what, &m, || match check_metrics(&text) {
            Err(_) => Ok(()),
            Ok(s) => {
                let again: Option<Vec<String>> = text
                    .lines()
                    .filter(|l| !l.trim().is_empty())
                    .map(reserialized)
                    .collect();
                same(again.map(|l| check_metrics(&l.join("\n"))), Some(Ok(s)), "round trip")
            }
        })?;
    }

    #[test]
    fn bench_report_loader(seed in any::<u64>()) {
        let mut m = Vec::new();
        let what = mutate(corpus().report.as_bytes(), &mut TestRng::new(seed), &mut m);
        let text = String::from_utf8_lossy(&m);
        let run = sample_report();
        survive("bench report", what, &m, || {
            let baseline = planner::compare_baseline(&run, &text);
            if planner::validate_json(&text).is_err() {
                return Ok(());
            }
            let again = reserialized(&text).ok_or("validated text is not JSON")?;
            same(planner::validate_json(&again), Ok(()), "round trip")?;
            match baseline {
                Ok(lines) => same(planner::compare_baseline(&run, &again), Ok(lines), "baseline"),
                Err(_) => Ok(()),
            }
        })?;
    }

    #[test]
    fn plan_codec(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let mut m = Vec::new();
        let mut what = mutate(&corpus().plan, &mut rng, &mut m);
        // half the mutants carry a re-forged checksum, as a hostile
        // writer's would, so the payload decoder sees them
        if m.len() >= 16 && rng.below(2) == 0 {
            let sum = fnv1a(&m[16..]);
            m[8..16].copy_from_slice(&sum.to_le_bytes());
            what = "forged checksum";
        }
        survive("plan codec", what, &m, || match decode_plan(&m) {
            Err(_) => Ok(()),
            Ok(plan) => {
                let bytes = encode_plan(&plan);
                let again = decode_plan(&bytes).map_err(|e| format!("re-decode failed: {e}"))?;
                same(encode_plan(&again), bytes, "round trip")
            }
        })?;
    }
}

/// The plan file's payload checksum (FNV-1a 64), recomputed the way a
/// forger would.
fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

#[test]
fn corpus_documents_load() {
    let c = corpus();
    Calibration::from_json(&c.calibration).expect("calibration");
    ClusterEventTrace::from_json(&c.churn).expect("churn trace");
    let explain = check_explain(&c.explain).expect("explain");
    // the mutants reach every candidate outcome the v3 schema decodes
    assert!(
        explain.feasible > 0 && explain.infeasible > 0 && explain.bounded > 0,
        "explain corpus lacks an outcome: {explain:?}"
    );
    check_trace(&c.trace).expect("trace");
    check_metrics(&c.metrics).expect("metrics");
    planner::validate_json(&c.report).expect("report");
    decode_plan(&c.plan).expect("plan");
}
