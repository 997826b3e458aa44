//! Planner bench: block-phase and partition-search timing, with cache
//! observability.
//!
//! Each case builds a bundled model, times the block phase once, then
//! times Algorithm 2 ([`form_stage_with`]) over that block list at the
//! configured thread count. Every search gets a fresh profiler, so its
//! slot counters are its own. Results are emitted as
//! `BENCH_partition.json` so the perf trajectory is tracked PR over PR.
//! That a plan is the same at every thread count is the determinism
//! suite's contract, not this bench's.

use rannc::core::{
    atomic_partition, block_partition, form_stage_with, Block, BlockLimits, PartitionConfig,
    PartitionPlan, Rannc, SearchOptions, SearchStats, VerifyMode,
};
use rannc::cost::CostModelSpec;
use rannc::graph::TaskGraph;
use rannc::hw::ClusterSpec;
use rannc::models::{
    bert_graph, gpt_graph, mlp_graph, resnet_graph, BertConfig, GptConfig, MlpConfig, ResNetConfig,
    ResNetDepth,
};
use rannc::obs::json;
use rannc::profile::{CacheStats, ProfilerOptions};
use std::time::Instant;

/// One benchmark configuration.
pub struct BenchCase {
    /// Human-readable model label (also the JSON `model` field).
    pub name: String,
    /// The model graph.
    pub graph: TaskGraph,
    /// Compute nodes (8 devices each).
    pub nodes: usize,
    /// Global mini-batch size.
    pub batch: usize,
    /// Block count `k`.
    pub k: usize,
}

/// The bundled grid: BERT / ResNet / GPT at 16, 32 and 64 devices.
/// `quick` swaps in small models for the CI smoke run.
pub fn cases(quick: bool) -> Vec<BenchCase> {
    if quick {
        return vec![
            BenchCase {
                name: "mlp-12l".into(),
                graph: mlp_graph(&MlpConfig::deep(128, 128, 12, 10)),
                nodes: 2,
                batch: 64,
                k: 8,
            },
            BenchCase {
                name: "bert-4l".into(),
                graph: bert_graph(&BertConfig::enlarged(256, 4)),
                nodes: 2,
                batch: 64,
                k: 8,
            },
        ];
    }
    vec![
        // the acceptance config: 64-layer BERT
        BenchCase {
            name: "bert-64l".into(),
            graph: bert_graph(&BertConfig::enlarged(1024, 64)),
            nodes: 2,
            batch: 64,
            k: 16,
        },
        BenchCase {
            name: "bert-24l".into(),
            graph: bert_graph(&BertConfig::enlarged(1024, 24)),
            nodes: 4,
            batch: 128,
            k: 16,
        },
        BenchCase {
            name: "gpt-24l".into(),
            graph: gpt_graph(&GptConfig::enlarged(1024, 24)),
            nodes: 8,
            batch: 256,
            k: 16,
        },
        BenchCase {
            name: "resnet50x2".into(),
            graph: resnet_graph(&ResNetConfig::new(ResNetDepth::R50, 2)),
            nodes: 2,
            batch: 64,
            k: 16,
        },
    ]
}

/// The paper-scale grid: the models RaNNC's evaluation sections plan at
/// cluster scale — a 256-layer BERT (~7.4k tasks), a 96-layer GPT and an
/// 8x-widened ResNet-152 — swept over 128, 512 and 1024 devices.
/// `quick` keeps only the acceptance configuration (bert-256l at 128
/// devices) for the CI smoke gate.
pub fn paper_cases(quick: bool) -> Vec<BenchCase> {
    let mut out = Vec::new();
    let node_counts: &[usize] = if quick { &[16] } else { &[16, 64, 128] };
    for &nodes in node_counts {
        let devices = nodes * 8;
        out.push(BenchCase {
            name: format!("bert-256l-d{devices}"),
            graph: bert_graph(&BertConfig::enlarged(2048, 256)),
            nodes,
            batch: devices * 8,
            k: 32,
        });
        if quick {
            continue;
        }
        out.push(BenchCase {
            name: format!("gpt-96l-d{devices}"),
            graph: gpt_graph(&GptConfig::enlarged(1600, 96)),
            nodes,
            batch: devices * 8,
            k: 32,
        });
        out.push(BenchCase {
            name: format!("resnet152x8-d{devices}"),
            graph: resnet_graph(&ResNetConfig::new(ResNetDepth::R152, 8)),
            nodes,
            batch: devices * 8,
            k: 32,
        });
    }
    out
}

/// Timed outcome of one case.
pub struct CaseResult {
    /// Model label.
    pub model: String,
    /// Total devices in the cluster.
    pub devices: usize,
    /// Global batch size.
    pub batch: usize,
    /// Block count.
    pub k: usize,
    /// Tasks in the graph.
    pub tasks: usize,
    /// Blocks produced by the block phase.
    pub blocks: usize,
    /// Cost-model build and block phase, seconds.
    pub prep_seconds: f64,
    /// Search at the configured thread count, seconds (the fastest
    /// repetition).
    pub search_seconds: f64,
    /// Stage count of the chosen plan (0 = infeasible).
    pub plan_stages: usize,
    /// Largest per-stage tensor-parallel degree the sweep was allowed to
    /// try (1 = historical 2D `(S, MB)` search).
    pub tp_max: usize,
    /// Per-stage tensor-parallel degrees of the chosen plan (empty when
    /// infeasible).
    pub plan_tp: Vec<usize>,
    /// Search counters (incl. the DP arena memo).
    pub search: SearchStats,
    /// The search's profiler cache counters.
    pub profiler_cache: CacheStats,
}

/// A full bench run.
pub struct BenchReport {
    /// Quick (CI) grid or the full grid.
    pub quick: bool,
    /// Whether the paper-scale grid (128–1024 devices) was appended.
    pub paper: bool,
    /// Cost model the searches were priced with (`"analytical"` or
    /// `"calibrated"`).
    pub cost_model: String,
    /// Tensor-parallel search bound every case ran with.
    pub tp_max: usize,
    /// Per-case results.
    pub cases: Vec<CaseResult>,
}

/// Run one case: the block phase once, then the search `repeats` times, each on a fresh cost model. The minimum search wall
/// time is reported: the standard noise-robust estimator for a
/// deterministic workload.
pub fn run_case(
    case: &BenchCase,
    repeats: usize,
    cost: &CostModelSpec,
    tp_max: usize,
) -> CaseResult {
    let cluster = ClusterSpec::v100_cluster(case.nodes);
    let mk_cost = || {
        cost.build(
            &case.graph,
            cluster.device.clone(),
            ProfilerOptions::fp32(),
            &cluster,
        )
    };

    let t0 = Instant::now();
    let blocks: Vec<Block> = {
        let model = mk_cost();
        let atomic = atomic_partition(&case.graph);
        block_partition(
            &case.graph,
            &*model,
            &atomic,
            BlockLimits::for_request(&PartitionConfig::new(case.batch).with_k(case.k), &cluster),
        )
    };
    let prep_seconds = t0.elapsed().as_secs_f64();

    let tp_max = tp_max.max(1);
    let opts = SearchOptions { tp_max };
    let mut search_seconds = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let cost = mk_cost();
        let t1 = Instant::now();
        let (sol, search) =
            form_stage_with(&case.graph, &*cost, &blocks, &cluster, case.batch, &opts);
        search_seconds = search_seconds.min(t1.elapsed().as_secs_f64());
        last = Some((sol, search, cost.cache_stats()));
    }
    let (sol, search, profiler_cache) = last.expect("at least one repetition");

    CaseResult {
        model: case.name.clone(),
        devices: cluster.total_devices(),
        batch: case.batch,
        k: case.k,
        tasks: case.graph.num_tasks(),
        blocks: blocks.len(),
        prep_seconds,
        search_seconds,
        plan_stages: sol.as_ref().map_or(0, |s| s.stages.len()),
        tp_max,
        plan_tp: sol.as_ref().map_or_else(Vec::new, |s| {
            s.stages.iter().map(|st| st.tensor_parallel).collect()
        }),
        search,
        profiler_cache,
    }
}

/// Run the whole grid under the given cost model. With `paper` set, the
/// paper-scale cases ([`paper_cases`]) are appended to the grid.
pub fn run(
    quick: bool,
    paper: bool,
    repeats: usize,
    cost: &CostModelSpec,
    tp_max: usize,
) -> BenchReport {
    let mut grid = cases(quick);
    if paper {
        grid.extend(paper_cases(quick));
    }
    let mut results = Vec::new();
    for case in grid {
        eprintln!(
            "planner_bench: {} on {} devices (batch {}, k {}, cost model {}, tp_max {})...",
            case.name,
            case.nodes * 8,
            case.batch,
            case.k,
            cost.name(),
            tp_max.max(1),
        );
        let r = run_case(&case, repeats, cost, tp_max);
        eprintln!(
            "  blocks {:.3} s | search {:.3} s | {} stage(s)",
            r.prep_seconds, r.search_seconds, r.plan_stages
        );
        results.push(r);
    }
    BenchReport {
        quick,
        paper,
        cost_model: cost.name().to_string(),
        tp_max: tp_max.max(1),
        cases: results,
    }
}

/// Full-plan comparison, objective bits included: the benchmark's
/// definition of "the same plan as the reference".
pub fn plans_identical(a: &PartitionPlan, b: &PartitionPlan) -> bool {
    a.stages.len() == b.stages.len()
        && a.microbatches == b.microbatches
        && a.replica_factor == b.replica_factor
        && a.bottleneck.to_bits() == b.bottleneck.to_bits()
        && a.est_iteration_time.to_bits() == b.est_iteration_time.to_bits()
        && a.stages.iter().zip(&b.stages).all(|(x, y)| {
            x.set == y.set
                && x.replicas == y.replicas
                && x.tensor_parallel == y.tensor_parallel
                && x.micro_batch == y.micro_batch
                && x.fwd_time.to_bits() == y.fwd_time.to_bits()
                && x.bwd_time.to_bits() == y.bwd_time.to_bits()
                && x.mem_bytes == y.mem_bytes
                && x.param_elems == y.param_elems
        })
}

/// Partition `case` end-to-end and return the explain artifact of its
/// search (schema v3 JSON) with the plan.
pub fn explain_artifact(
    case: &BenchCase,
    cost: &CostModelSpec,
) -> Result<(String, PartitionPlan), String> {
    let cluster = ClusterSpec::v100_cluster(case.nodes);
    let cfg = PartitionConfig::new(case.batch)
        .with_k(case.k)
        .with_verify(VerifyMode::Off)
        .with_cost_model(cost.clone());
    let rannc = Rannc::new(cfg);
    let (plan, stats) = (rannc.partition_with_stats(&case.graph, &cluster))
        .map_err(|e| format!("{}: explained partition failed: {e}", case.name))?;
    let rec = rannc.explain(&case.graph, &cluster, &plan, &stats);
    Ok((rannc::obs::recorder::to_json(&rec), plan))
}

/// A cache's counters: the DP arena memo's, or the block ranges' time
/// caches'.
fn json_cache(stats: &CacheStats) -> String {
    format!(
        "{{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.6}, \"entries\": {}}}",
        stats.hits,
        stats.misses,
        stats.hit_rate(),
        stats.entries(),
    )
}

/// Render the report as `BENCH_partition.json` (hand-rolled: the offline
/// dependency set has no JSON crate).
pub fn to_json(report: &BenchReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"rannc_planner_search\",\n");
    out.push_str("  \"version\": 8,\n");
    out.push_str(&format!("  \"tp_max\": {},\n", report.tp_max));
    out.push_str(&format!("  \"quick\": {},\n", report.quick));
    out.push_str(&format!("  \"paper_scale\": {},\n", report.paper));
    out.push_str(&format!("  \"cost_model\": \"{}\",\n", report.cost_model));
    out.push_str("  \"cases\": [\n");
    for (i, c) in report.cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"model\": \"{}\", \"devices\": {}, \"batch\": {}, \"k\": {}, \
             \"tasks\": {}, \"blocks\": {},\n     \
             \"prep_seconds\": {:.6}, \"search_seconds\": {:.6},\n     \
             \"plan_stages\": {}, \
             \"tp_max\": {}, \"plan_tp\": [{}],\n     \
             \"search\": {{\"candidates\": {}, \"feasible\": {}, \"pruned\": {}, \
             \"bounded\": {}, \"node_tiers\": {}, \"gap\": {}}},\n     \
             \"stage_cache\": {},\n     \
             \"profiler_cache\": {}}}{}\n",
            c.model,
            c.devices,
            c.batch,
            c.k,
            c.tasks,
            c.blocks,
            c.prep_seconds,
            c.search_seconds,
            c.plan_stages,
            c.tp_max,
            c.plan_tp
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            c.search.candidates,
            c.search.feasible,
            c.search.pruned,
            c.search.bounded,
            c.search.node_tiers,
            c.search.gap.map_or("null".into(), |g| format!("{g:.6}")),
            json_cache(&c.search.stage_cache),
            json_cache(&c.profiler_cache),
            if i + 1 == report.cases.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// JSON check for the CI gate: well-formedness plus, for reports (an
/// object root with a `cases` array), the tensor-parallel range
/// invariants. Each case needs a string `model`; its `tp_max` and
/// `devices`, when present, must be positive integers, and every
/// `plan_tp` entry must be a degree the sweep was actually allowed to
/// try: `1 <= T <= tp_max` and `T <= devices`. Other documents only get
/// the well-formedness check. Unknown keys are ignored: the report
/// grows additively.
pub fn validate_json(s: &str) -> Result<(), String> {
    json::decode(s, |root| {
        if !root.value().is_obj() {
            return Ok(());
        }
        let Some(cases) = root.obj()?.opt("cases") else {
            return Ok(());
        };
        for c in cases.items()? {
            let c = c.obj()?;
            let model = c.get("model")?.str()?;
            let tp_max = c.opt("tp_max").map(|n| n.positive()).transpose()?;
            let devices = c.opt("devices").map(|n| n.positive()).transpose()?;
            let Some(plan_tp) = c.opt("plan_tp") else {
                continue;
            };
            for node in plan_tp.items()? {
                let t = node.positive()?;
                if let Some(bound) = tp_max.filter(|&b| t > b) {
                    return Err(node.error(format!(
                        "case {model}: degree {t} exceeds the search bound tp_max = {bound}"
                    )));
                }
                if let Some(d) = devices.filter(|&d| t > d) {
                    return Err(node.error(format!(
                        "case {model}: degree {t} exceeds the cluster's {d} device(s)"
                    )));
                }
            }
        }
        Ok(())
    })
    .map_err(|e| e.to_string())
}

/// Minimum profiler-cache hit rate `--check` accepts on every case: the
/// blocks' time-sum slots, whose one fill per `(micro-batch, T)` point
/// serves every range over the block and every stage count and
/// `(inflight, ckpt)` variant that prices it, so a rate below this means
/// stage times stopped being composed from reused block sums.
pub const PROFILER_HIT_RATE_FLOOR: f64 = 0.6;

/// Relative tolerance for baseline comparison (the acceptance budget for
/// disabled-observability overhead).
pub const BASELINE_TOLERANCE: f64 = 0.03;
/// Absolute slack added on top of the relative tolerance so microsecond
/// scheduler jitter on sub-10ms cases cannot trip the gate.
const BASELINE_FLOOR_SECONDS: f64 = 0.005;

/// Compare this run's search times against a previously committed
/// `BENCH_partition.json`. Returns one human-readable line per case; an
/// `Err` means at least one case regressed beyond [`BASELINE_TOLERANCE`]
/// (plus the absolute floor), or the baseline file was unusable.
pub fn compare_baseline(report: &BenchReport, baseline: &str) -> Result<Vec<String>, String> {
    // (model, search_seconds) per baseline case
    let base_cases = json::decode(baseline, |root| {
        root.obj()?
            .get("cases")?
            .items()?
            .map(|c| {
                let c = c.obj()?;
                Ok((
                    c.get("model")?.str()?.to_string(),
                    c.get("search_seconds")?.f64()?,
                ))
            })
            .collect::<Result<Vec<_>, json::SchemaError>>()
    })
    .map_err(|e| format!("unusable baseline: {e}"))?;
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for c in &report.cases {
        let Some(&(_, base_secs)) = base_cases.iter().find(|(model, _)| *model == c.model) else {
            lines.push(format!("  {}: not in baseline, skipped", c.model));
            continue;
        };
        let limit = base_secs * (1.0 + BASELINE_TOLERANCE) + BASELINE_FLOOR_SECONDS;
        let delta_pct = (c.search_seconds - base_secs) / base_secs * 100.0;
        let ok = c.search_seconds <= limit;
        lines.push(format!(
            "  {}: search {:.4} s vs baseline {:.4} s ({:+.1}%) — {}",
            c.model,
            c.search_seconds,
            base_secs,
            delta_pct,
            if ok { "within tolerance" } else { "REGRESSION" }
        ));
        if !ok {
            regressions.push(c.model.clone());
        }
    }
    if regressions.is_empty() {
        Ok(lines)
    } else {
        Err(format!(
            "{}\nregressed beyond tolerance: {}",
            lines.join("\n"),
            regressions.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_runs_and_serializes() {
        let report = run(true, false, 1, &CostModelSpec::Analytical, 1);
        assert_eq!(report.cases.len(), 2);
        for c in &report.cases {
            assert!(c.plan_stages > 0, "{}: infeasible", c.model);
        }
        assert!(
            report.cases.iter().any(|c| c.search.stage_cache.hits > 0),
            "arena memo never hit on the quick grid"
        );
        let json = to_json(&report);
        validate_json(&json).expect("emitted JSON is well-formed");
        assert!(json.contains("\"cache_hit\"") || json.contains("\"hit_rate\""));
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        validate_json("{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": true, \"d\": null}}").unwrap();
        validate_json("  \"just a string\"  ").unwrap();
        assert!(validate_json("{\"a\": }").is_err());
        assert!(validate_json("{\"a\": 1,}").is_err());
        assert!(validate_json("[1, 2").is_err());
        assert!(validate_json("{} trailing").is_err());
    }

    #[test]
    fn json_validator_rejects_out_of_range_tp() {
        let mk = |tp_max: &str, plan_tp: &str, devices: &str| {
            format!(
                "{{\"cases\": [{{\"model\": \"m\", \"devices\": {devices}, \
                 \"tp_max\": {tp_max}, \"plan_tp\": {plan_tp}}}]}}"
            )
        };
        // in-range degrees pass
        validate_json(&mk("4", "[1, 2, 4]", "16")).unwrap();
        // a degree above the search bound is rejected
        let err = validate_json(&mk("4", "[1, 8]", "16")).unwrap_err();
        assert!(err.contains("exceeds the search bound"), "{err}");
        // a degree above the cluster size is rejected
        let err = validate_json(&mk("32", "[16]", "8")).unwrap_err();
        assert!(err.contains("device"), "{err}");
        // zero / non-integer degrees are rejected
        assert!(validate_json(&mk("4", "[0]", "16")).is_err());
        assert!(validate_json(&mk("4", "[1.5]", "16")).is_err());
        // zero tp_max is rejected
        assert!(validate_json(&mk("0", "[1]", "16")).is_err());
        // reports without tp fields (schema v2) still validate
        validate_json("{\"cases\": [{\"model\": \"m\", \"devices\": 16}]}").unwrap();
    }

    #[test]
    fn quick_case_with_tp_is_deterministic() {
        let case = &cases(true)[1];
        let r = run_case(case, 1, &CostModelSpec::Analytical, 4);
        let again = run_case(case, 1, &CostModelSpec::Analytical, 4);
        let report = |r: &CaseResult| {
            let s = &r.search;
            let counts = (s.candidates, s.feasible, s.pruned, s.bounded);
            (r.plan_tp.clone(), counts, s.stage_cache.misses, s.gap)
        };
        assert_eq!(report(&r), report(&again), "3D sweep reported differently");
        assert_eq!(r.tp_max, 4);
        assert_eq!(r.plan_tp.len(), r.plan_stages);
        assert!(
            r.plan_tp.iter().all(|&t| (1..=4).contains(&t)),
            "{:?}",
            r.plan_tp
        );
    }

    #[test]
    fn baseline_compare_flags_regressions_only() {
        let mk = |search_seconds: f64| BenchReport {
            quick: true,
            paper: false,
            cost_model: "analytical".into(),
            tp_max: 1,
            cases: vec![CaseResult {
                model: "bert-64l".into(),
                devices: 16,
                batch: 64,
                k: 16,
                tasks: 100,
                blocks: 16,
                prep_seconds: 0.01,
                search_seconds,
                plan_stages: 2,
                tp_max: 1,
                plan_tp: vec![1, 1],
                search: SearchStats::default(),
                profiler_cache: CacheStats::default(),
            }],
        };
        let baseline = r#"{"cases": [{"model": "bert-64l", "search_seconds": 0.5}]}"#;
        // equal, slightly faster, and just inside the 3% budget all pass
        assert!(compare_baseline(&mk(0.5), baseline).is_ok());
        assert!(compare_baseline(&mk(0.4), baseline).is_ok());
        assert!(compare_baseline(&mk(0.514), baseline).is_ok());
        // far beyond the budget fails with the case named
        let err = compare_baseline(&mk(0.6), baseline).unwrap_err();
        assert!(err.contains("bert-64l"), "{err}");
        // unknown models are skipped, not failed
        let other = r#"{"cases": [{"model": "gpt-24l", "search_seconds": 0.001}]}"#;
        let lines = compare_baseline(&mk(0.6), other).unwrap();
        assert!(lines[0].contains("skipped"), "{lines:?}");
        // garbage baseline is an error
        assert!(compare_baseline(&mk(0.5), "not json").is_err());
    }
}
