//! Planner bench: partition-search timing at one thread vs the
//! configured thread count, with cache observability.
//!
//! Each case builds a bundled model, runs the block phase once, then
//! times Algorithm 2 ([`form_stage_with`]) twice over the *same* block
//! list: once at one worker thread (the baseline) and once at the
//! configured thread count (the engine), so the speedup measures thread
//! scaling.
//!
//! Both runs get a fresh profiler so each run's slot counters are its
//! own. The two plans are compared field-by-field (bit-identical
//! objective values included) — the speedup claim is only meaningful if
//! faster returns the *same* answer. Results are emitted as
//! `BENCH_partition.json` so the perf trajectory is tracked PR over PR.

use rannc::core::{
    atomic_partition, block_partition, form_stage_with, Block, BlockLimits, DpSolution,
    PartitionConfig, PartitionPlan, Rannc, SearchOptions, SearchStats, VerifyMode,
};
use rannc::cost::{Calibration, CostModelSpec};
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
    /// Graph build + block phase, seconds (shared by both runs).
    pub prep_seconds: f64,
    /// Baseline search at one worker thread, seconds.
    pub seq_seconds: f64,
    /// Parallel engine search, seconds.
    pub engine_seconds: f64,
    /// Whether the two searches produced identical plans.
    pub plans_identical: bool,
    /// Stage count of the chosen plan (0 = infeasible).
    pub plan_stages: usize,
    /// Largest per-stage tensor-parallel degree the sweep was allowed to
    /// try (1 = historical 2D `(S, MB)` search).
    pub tp_max: usize,
    /// Per-stage tensor-parallel degrees of the chosen plan (empty when
    /// infeasible).
    pub plan_tp: Vec<usize>,
    /// Engine search counters (incl. the DP arena memo).
    pub search: SearchStats,
    /// Engine-run profiler cache counters.
    pub profiler_cache: CacheStats,
}

impl CaseResult {
    /// Baseline time over engine time (1.0 when the engine measured 0).
    pub fn speedup(&self) -> f64 {
        if self.engine_seconds > 0.0 {
            self.seq_seconds / self.engine_seconds
        } else {
            1.0
        }
    }
}

/// A full bench run.
pub struct BenchReport {
    /// Worker threads the engine ran with.
    pub threads: usize,
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

impl BenchReport {
    /// Geometric-mean speedup across cases (1.0 when empty).
    pub fn geomean_speedup(&self) -> f64 {
        if self.cases.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.cases.iter().map(|c| c.speedup().ln()).sum();
        (log_sum / self.cases.len() as f64).exp()
    }
}

/// Whether two plans agree: value by bit pattern, and every stage by task
/// set, block range (a refined stage's index in the refined list), device
/// count, micro-batch and tensor-parallel degree.
fn solutions_identical(a: &Option<DpSolution>, b: &Option<DpSolution>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.value.to_bits() == b.value.to_bits()
                && a.microbatches == b.microbatches
                && a.replica_factor == b.replica_factor
                && a.stages.len() == b.stages.len()
                && a.stages.iter().zip(&b.stages).all(|(x, y)| {
                    x.set == y.set
                        && x.block_range == y.block_range
                        && x.devices == y.devices
                        && x.micro_batch == y.micro_batch
                        && x.tensor_parallel == y.tensor_parallel
                })
        }
        _ => false,
    }
}

/// Run one case: block phase once, then the one-thread baseline and the
/// `threads`-wide engine search on fresh cost models. Each side runs
/// `repeats` times on a fresh model and the minimum wall time is
/// reported — the minimum is the standard noise-robust estimator for a
/// deterministic workload, and every repetition's plans are still
/// compared.
pub fn run_case(
    case: &BenchCase,
    threads: usize,
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
    let opts = SearchOptions { threads, tp_max };
    let baseline_opts = SearchOptions { threads: 1, tp_max };
    let mut seq_seconds = f64::INFINITY;
    let mut engine_seconds = f64::INFINITY;
    let mut plans_identical = true;
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let seq_cost = mk_cost();
        let t1 = Instant::now();
        let seq = form_stage_with(
            &case.graph,
            &*seq_cost,
            &blocks,
            &cluster,
            case.batch,
            &baseline_opts,
        )
        .0;
        seq_seconds = seq_seconds.min(t1.elapsed().as_secs_f64());

        let engine_cost = mk_cost();
        let t2 = Instant::now();
        let (eng, search) = form_stage_with(
            &case.graph,
            &*engine_cost,
            &blocks,
            &cluster,
            case.batch,
            &opts,
        );
        engine_seconds = engine_seconds.min(t2.elapsed().as_secs_f64());
        plans_identical &= solutions_identical(&seq, &eng);
        last = Some((eng, search, engine_cost.cache_stats()));
    }
    let (eng, search, profiler_cache) = last.expect("at least one repetition");

    CaseResult {
        model: case.name.clone(),
        devices: cluster.total_devices(),
        batch: case.batch,
        k: case.k,
        tasks: case.graph.num_tasks(),
        blocks: blocks.len(),
        prep_seconds,
        seq_seconds,
        engine_seconds,
        plans_identical,
        plan_stages: eng.as_ref().map_or(0, |s| s.stages.len()),
        tp_max,
        plan_tp: eng.as_ref().map_or_else(Vec::new, |s| {
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
    threads: usize,
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
        let r = run_case(&case, threads, repeats, cost, tp_max);
        eprintln!(
            "  1 thread {:.3} s | engine {:.3} s | speedup {:.2}x | identical: {}",
            r.seq_seconds,
            r.engine_seconds,
            r.speedup(),
            r.plans_identical
        );
        results.push(r);
    }
    BenchReport {
        threads,
        quick,
        paper,
        cost_model: cost.name().to_string(),
        tp_max: tp_max.max(1),
        cases: results,
    }
}

/// Full-plan comparison, objective bits included — the flight-recorder
/// gate's definition of "recording did not perturb the search".
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

/// Partition `case` end-to-end with the flight recorder on and return
/// the explain artifact (schema v1 JSON). The recorder is switched off
/// again before returning, error or not.
pub fn explain_artifact(
    case: &BenchCase,
    threads: usize,
    cost: &CostModelSpec,
) -> Result<(String, PartitionPlan), String> {
    use rannc::obs::recorder;
    let cluster = ClusterSpec::v100_cluster(case.nodes);
    let cfg = PartitionConfig::new(case.batch)
        .with_k(case.k)
        .with_verify(VerifyMode::Off)
        .with_threads(threads)
        .with_cost_model(cost.clone());
    recorder::set_enabled(true);
    recorder::reset();
    let res = Rannc::new(cfg).partition(&case.graph, &cluster);
    let rec = recorder::take();
    recorder::set_enabled(false);
    let plan = res.map_err(|e| format!("{}: recorded partition failed: {e}", case.name))?;
    let rec = rec.ok_or_else(|| format!("{}: recorder enabled but nothing recorded", case.name))?;
    Ok((recorder::to_json(&rec), plan))
}

/// `--check` gate for the plan flight recorder. The first quick-grid
/// case is partitioned with the recorder on at 1, 2 and 4 worker
/// threads: the three explain artifacts must be byte-identical (every
/// grid cell runs its DP and is recorded in grid order after the sweep,
/// so the record is independent of sweep interleaving), the artifact must pass `obs::check_explain`,
/// and the recorded plan must be bit-identical to a recorder-off run —
/// recording is observability, never a behaviour change.
///
/// Call *after* the recorder zero-alloc assertion: this gate enables
/// the recorder, and its allocation counter is monotone by design.
pub fn check_explain_determinism(quick: bool) -> Result<Vec<String>, String> {
    use rannc::obs::check::check_explain;
    let case = cases(quick).into_iter().next().expect("non-empty grid");
    let cluster = ClusterSpec::v100_cluster(case.nodes);
    let plan_off = Rannc::new(
        PartitionConfig::new(case.batch)
            .with_k(case.k)
            .with_verify(VerifyMode::Off)
            .with_threads(2),
    )
    .partition(&case.graph, &cluster)
    .map_err(|e| format!("{}: baseline partition failed: {e}", case.name))?;

    let thread_counts = [1usize, 2, 4];
    let mut artifacts: Vec<String> = Vec::new();
    let mut plan_on = None;
    for &threads in &thread_counts {
        let (artifact, plan) = explain_artifact(&case, threads, &CostModelSpec::Analytical)?;
        artifacts.push(artifact);
        plan_on = Some(plan);
    }
    for (a, &threads) in artifacts.iter().zip(&thread_counts).skip(1) {
        if *a != artifacts[0] {
            return Err(format!(
                "{}: explain artifact differs between 1 and {threads} thread(s) — \
                 the recording is not deterministic",
                case.name
            ));
        }
    }
    let summary = check_explain(&artifacts[0])
        .map_err(|e| format!("{}: explain artifact fails its validator: {e}", case.name))?;
    let plan_on = plan_on.expect("at least one recorded run");
    if !plans_identical(&plan_off, &plan_on) {
        return Err(format!(
            "{}: recording perturbed the chosen plan",
            case.name
        ));
    }
    Ok(vec![format!(
        "  {}: {} candidate(s) over {} tier(s) ({} feasible), artifact \
         byte-identical across 1/2/4 thread(s), validator OK, plan unperturbed",
        case.name, summary.candidates, summary.tiers, summary.feasible
    )])
}

/// The built-in perturbed calibration `--check` uses to prove the
/// cost-model seam actually moves prices: every factor is displaced from
/// 1.0, with inter-node links hit hardest so partition-shape decisions
/// (replication vs pipelining) feel the difference too.
pub fn check_calibration() -> Calibration {
    Calibration {
        compute: 1.35,
        ops: vec![("matmul".into(), 1.8)],
        link_intra: 1.5,
        link_inter: 3.0,
        allreduce: 1.25,
        optimizer: 1.6,
        memory: 1.0,
    }
}

/// `--check` gate for the cost-model layer. Each quick-grid case is
/// partitioned end-to-end under strict verification
/// ([`VerifyMode::Fail`]) twice — once with the analytical model, once
/// with [`check_calibration`] — and the gate requires that (a) both
/// partitions succeed, i.e. no cost model ever yields a verifier-invalid
/// plan, and (b) the two models disagree on the estimated iteration
/// time, i.e. switching models demonstrably changes costs. Returns one
/// human-readable line per case.
pub fn check_cost_models(quick: bool) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    for case in cases(quick) {
        let cluster = ClusterSpec::v100_cluster(case.nodes);
        let mut times = Vec::new();
        for (label, spec) in [
            ("analytical", CostModelSpec::Analytical),
            ("calibrated", CostModelSpec::Calibrated(check_calibration())),
        ] {
            let cfg = PartitionConfig::new(case.batch)
                .with_k(case.k)
                .with_verify(VerifyMode::Fail)
                .with_cost_model(spec);
            let plan = Rannc::new(cfg)
                .partition(&case.graph, &cluster)
                .map_err(|e| {
                    format!(
                        "{} [{label}]: partition failed under VerifyMode::Fail: {e}",
                        case.name
                    )
                })?;
            times.push(plan.est_iteration_time);
        }
        let (a, c) = (times[0], times[1]);
        if a.to_bits() == c.to_bits() {
            return Err(format!(
                "{}: perturbed calibration left the estimated iteration time \
                 unchanged ({a:.6} s) — cost model is not being consulted",
                case.name
            ));
        }
        lines.push(format!(
            "  {}: analytical {:.6} s vs calibrated {:.6} s — both verifier-valid",
            case.name, a, c
        ));
    }
    Ok(lines)
}

/// `--check` gate for the dataflow certification engine. Every bundled
/// model is partitioned at 16 and 32 devices under
/// [`VerifyMode::Certify`] (so the planner's own deep post-pass must
/// accept the plan), then deep-verified again under *both* synchronous
/// schedules: the liveness-certified peak must fit every hosting device
/// slot and the derived per-rank communication program must be free of
/// collective-order races, unpaired send/recv traffic and deadlock
/// cycles (RV060–RV062, RV100). Returns one line per (case, cluster).
pub fn check_certified_memory(quick: bool) -> Result<Vec<String>, String> {
    use rannc::hw::Precision;
    use rannc::pipeline::SyncSchedule;
    let mut lines = Vec::new();
    for case in cases(quick) {
        for nodes in [2usize, 4] {
            let cluster = ClusterSpec::v100_cluster(nodes);
            let cfg = PartitionConfig::new(case.batch)
                .with_k(case.k)
                .with_verify(VerifyMode::Certify);
            let plan = Rannc::new(cfg)
                .partition(&case.graph, &cluster)
                .map_err(|e| {
                    format!(
                        "{} @{} devices: partition failed under VerifyMode::Certify: {e}",
                        case.name,
                        cluster.total_devices()
                    )
                })?;
            let mut worst_ratio = 0.0f64;
            for schedule in [SyncSchedule::FillDrain, SyncSchedule::OneFOneB] {
                let model = schedule.model(plan.stages.len(), plan.microbatches);
                let (report, certified) = plan
                    .certify(&case.graph, &cluster, &model, Precision::FP32)
                    .map_err(|e| {
                        format!(
                            "{} @{} devices: cannot derive the comm program: \
                             plan not mappable to devices: {e}",
                            case.name,
                            cluster.total_devices()
                        )
                    })?;
                if report.has_errors() {
                    return Err(format!(
                        "{} @{} devices [{schedule:?}]: deep verification found errors:\n{}",
                        case.name,
                        cluster.total_devices(),
                        report.render()
                    ));
                }
                for (i, c) in certified.iter().enumerate() {
                    if c.certified_bytes > c.capacity_bytes {
                        return Err(format!(
                            "{} @{} devices [{schedule:?}]: stage {i} certified peak \
                             {} B exceeds capacity {} B on device d{}",
                            case.name,
                            cluster.total_devices(),
                            c.certified_bytes,
                            c.capacity_bytes,
                            c.device
                        ));
                    }
                    worst_ratio =
                        worst_ratio.max(c.certified_bytes as f64 / c.capacity_bytes as f64);
                }
            }
            lines.push(format!(
                "  {} @{} devices: certified peak <= capacity on every slot \
                 (worst fill {:.0}%), comm program race-free under both schedules",
                case.name,
                cluster.total_devices(),
                worst_ratio * 100.0
            ));
        }
    }
    Ok(lines)
}

/// `--check` gate for the third parallelism axis. A Megatron-regime
/// configuration — a wide 4-layer BERT on one 8-GPU node with a
/// mini-batch of 4, so data parallelism alone cannot occupy the node —
/// is partitioned end-to-end under [`VerifyMode::Certify`] twice, once
/// with `tp_max = 1` and once with `tp_max = 4`. The gate requires that
/// the 3D sweep (a) actually picks `T > 1` on at least one stage,
/// (b) strictly beats the best 2D plan's simulated synchronous
/// iteration time, and (c) still certifies (`Certify` already runs the
/// RV07x tensor-parallel checks and the memory certification engine).
pub fn check_tp_search() -> Result<Vec<String>, String> {
    use rannc::pipeline::{simulate_sync, spec_from_plan, SyncSchedule};
    let graph = bert_graph(&BertConfig::enlarged(1024, 4));
    let cluster = ClusterSpec::v100_cluster(1);
    let batch = 4usize;
    let mut sim = Vec::new();
    let mut degrees: Vec<usize> = Vec::new();
    for tp_max in [1usize, 4] {
        let cfg = PartitionConfig::new(batch)
            .with_k(8)
            .with_verify(VerifyMode::Certify)
            .with_tp_max(tp_max);
        let plan = Rannc::new(cfg)
            .partition(&graph, &cluster)
            .map_err(|e| format!("tp gate [tp_max {tp_max}]: partition failed: {e}"))?;
        let cost = CostModelSpec::Analytical.build(
            &graph,
            cluster.device.clone(),
            ProfilerOptions::fp32(),
            &cluster,
        );
        let spec = spec_from_plan(&plan, &*cost, &cluster)
            .map_err(|e| format!("tp gate [tp_max {tp_max}]: invalid pipeline spec: {e}"))?;
        sim.push(
            simulate_sync(&spec, SyncSchedule::FillDrain, false)
                .result
                .iteration_time,
        );
        if tp_max > 1 {
            degrees = plan.stages.iter().map(|s| s.tensor_parallel).collect();
        }
    }
    if !degrees.iter().any(|&t| t > 1) {
        return Err(format!(
            "tp gate: the 3D sweep never chose T > 1 on the Megatron-regime case \
             (per-stage degrees {degrees:?}) — the third axis is dead"
        ));
    }
    let (t1, t3d) = (sim[0], sim[1]);
    if t3d >= t1 {
        return Err(format!(
            "tp gate: 3D plan simulates at {:.3} ms, not better than the best 2D \
             plan's {:.3} ms",
            t3d * 1e3,
            t1 * 1e3
        ));
    }
    Ok(vec![format!(
        "  bert-4l(h=1024) @8 devices, batch 4: T = {degrees:?} chosen, simulated \
         {:.3} ms vs best-2D {:.3} ms ({:.2}x), certified clean",
        t3d * 1e3,
        t1 * 1e3,
        t1 / t3d
    )])
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
    out.push_str("  \"version\": 6,\n");
    out.push_str(&format!("  \"threads\": {},\n", report.threads));
    out.push_str(&format!("  \"tp_max\": {},\n", report.tp_max));
    out.push_str(&format!("  \"quick\": {},\n", report.quick));
    out.push_str(&format!("  \"paper_scale\": {},\n", report.paper));
    out.push_str(&format!("  \"cost_model\": \"{}\",\n", report.cost_model));
    out.push_str(&format!(
        "  \"geomean_speedup\": {:.6},\n",
        report.geomean_speedup()
    ));
    out.push_str("  \"cases\": [\n");
    for (i, c) in report.cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"model\": \"{}\", \"devices\": {}, \"batch\": {}, \"k\": {}, \
             \"tasks\": {}, \"blocks\": {},\n     \
             \"prep_seconds\": {:.6}, \"seq_seconds\": {:.6}, \"engine_seconds\": {:.6}, \
             \"speedup\": {:.6},\n     \
             \"plans_identical\": {}, \"plan_stages\": {}, \
             \"tp_max\": {}, \"plan_tp\": [{}],\n     \
             \"search\": {{\"candidates\": {}, \"feasible\": {}, \
             \"node_tiers\": {}, \"threads\": {}}},\n     \
             \"stage_cache\": {},\n     \
             \"profiler_cache\": {}}}{}\n",
            c.model,
            c.devices,
            c.batch,
            c.k,
            c.tasks,
            c.blocks,
            c.prep_seconds,
            c.seq_seconds,
            c.engine_seconds,
            c.speedup(),
            c.plans_identical,
            c.plan_stages,
            c.tp_max,
            c.plan_tp
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            c.search.candidates,
            c.search.feasible,
            c.search.node_tiers,
            c.search.threads,
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

/// Maximum tolerated drop of the geometric-mean engine-vs-baseline
/// speedup relative to the committed baseline report.
pub const GEOMEAN_TOLERANCE: f64 = 0.05;

/// Compare this run's engine times against a previously committed
/// `BENCH_partition.json`. Returns one human-readable line per case plus
/// a geomean-speedup summary line; an `Err` means at least one case
/// regressed beyond [`BASELINE_TOLERANCE`] (plus the absolute floor),
/// the run's geomean speedup dropped more than [`GEOMEAN_TOLERANCE`]
/// below the baseline's, or the baseline file was unusable.
pub fn compare_baseline(report: &BenchReport, baseline: &str) -> Result<Vec<String>, String> {
    // (model, engine_seconds, speedup) per baseline case, and the geomean
    let (base_cases, base_geo) = json::decode(baseline, |root| {
        let root = root.obj()?;
        let cases = root
            .get("cases")?
            .items()?
            .map(|c| {
                let c = c.obj()?;
                Ok((
                    c.get("model")?.str()?.to_string(),
                    c.get("engine_seconds")?.f64()?,
                    c.opt("speedup").map(|n| n.f64()).transpose()?,
                ))
            })
            .collect::<Result<Vec<_>, json::SchemaError>>()?;
        let geo = root.opt("geomean_speedup").map(|n| n.f64()).transpose()?;
        Ok((cases, geo))
    })
    .map_err(|e| format!("unusable baseline: {e}"))?;
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for c in &report.cases {
        let Some(&(_, base_secs, base_speedup)) =
            base_cases.iter().find(|(model, ..)| *model == c.model)
        else {
            lines.push(format!("  {}: not in baseline, skipped", c.model));
            continue;
        };
        let limit = base_secs * (1.0 + BASELINE_TOLERANCE) + BASELINE_FLOOR_SECONDS;
        let delta_pct = (c.engine_seconds - base_secs) / base_secs * 100.0;
        let ok = c.engine_seconds <= limit;
        let base_speedup = base_speedup
            .map(|s| format!(", speedup {:.2}x vs {:.2}x", c.speedup(), s))
            .unwrap_or_default();
        lines.push(format!(
            "  {}: engine {:.4} s vs baseline {:.4} s ({:+.1}%{}) — {}",
            c.model,
            c.engine_seconds,
            base_secs,
            delta_pct,
            base_speedup,
            if ok { "within tolerance" } else { "REGRESSION" }
        ));
        if !ok {
            regressions.push(c.model.clone());
        }
    }
    // Geomean-speedup gate: the aggregate 1-thread-vs-engine advantage must
    // not silently erode even if every case stays inside its individual
    // wall-time tolerance.
    if let Some(base_geo) = base_geo {
        let geo = report.geomean_speedup();
        let floor = base_geo * (1.0 - GEOMEAN_TOLERANCE);
        let ok = geo >= floor;
        lines.push(format!(
            "  geomean speedup: {:.3}x vs baseline {:.3}x (floor {:.3}x) — {}",
            geo,
            base_geo,
            floor,
            if ok { "within tolerance" } else { "REGRESSION" }
        ));
        if !ok {
            regressions.push("geomean_speedup".into());
        }
    } else {
        lines.push("  geomean speedup: baseline has none, skipped".into());
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
        let report = run(true, false, 2, 1, &CostModelSpec::Analytical, 1);
        assert_eq!(report.cases.len(), 2);
        for c in &report.cases {
            assert!(
                c.plans_identical,
                "{}: engine diverged from baseline",
                c.model
            );
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
        // the baseline side is the 1-thread engine, so plans_identical
        // proves the 3D sweep is thread-deterministic
        let case = &cases(true)[1];
        let r = run_case(case, 4, 1, &CostModelSpec::Analytical, 4);
        assert!(r.plans_identical, "3D engine diverged from 1-thread run");
        assert_eq!(r.tp_max, 4);
        assert_eq!(r.plan_tp.len(), r.plan_stages);
        assert!(
            r.plan_tp.iter().all(|&t| (1..=4).contains(&t)),
            "{:?}",
            r.plan_tp
        );
    }

    #[test]
    fn tp_search_gate_passes() {
        let lines = check_tp_search().expect("tensor-parallel gate");
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("certified clean"), "{lines:?}");
    }

    #[test]
    fn baseline_compare_flags_regressions_only() {
        let mk = |engine_seconds: f64| BenchReport {
            threads: 1,
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
                seq_seconds: 0.09,
                engine_seconds,
                plans_identical: true,
                plan_stages: 2,
                tp_max: 1,
                plan_tp: vec![1, 1],
                search: SearchStats::default(),
                profiler_cache: CacheStats::default(),
            }],
        };
        let baseline = r#"{"cases": [{"model": "bert-64l", "engine_seconds": 0.5}]}"#;
        // equal, slightly faster, and just inside the 3% budget all pass
        assert!(compare_baseline(&mk(0.5), baseline).is_ok());
        assert!(compare_baseline(&mk(0.4), baseline).is_ok());
        assert!(compare_baseline(&mk(0.514), baseline).is_ok());
        // far beyond the budget fails with the case named
        let err = compare_baseline(&mk(0.6), baseline).unwrap_err();
        assert!(err.contains("bert-64l"), "{err}");
        // unknown models are skipped, not failed
        let other = r#"{"cases": [{"model": "gpt-24l", "engine_seconds": 0.001}]}"#;
        let lines = compare_baseline(&mk(0.6), other).unwrap();
        assert!(lines[0].contains("skipped"), "{lines:?}");
        // garbage baseline is an error
        assert!(compare_baseline(&mk(0.5), "not json").is_err());
    }

    #[test]
    fn cost_model_check_passes_on_quick_grid() {
        let lines = check_cost_models(true).expect("cost-model check");
        assert_eq!(lines.len(), 2, "{lines:?}");
        for l in &lines {
            assert!(l.contains("both verifier-valid"), "{l}");
        }
    }

    #[test]
    fn certified_memory_check_passes_on_quick_grid() {
        let lines = check_certified_memory(true).expect("certified-memory check");
        // 2 quick cases x {16, 32} devices
        assert_eq!(lines.len(), 4, "{lines:?}");
        for l in &lines {
            assert!(l.contains("race-free"), "{l}");
        }
    }

    #[test]
    fn geomean_of_empty_report_is_one() {
        let r = BenchReport {
            threads: 1,
            quick: true,
            paper: false,
            cost_model: "analytical".into(),
            tp_max: 1,
            cases: Vec::new(),
        };
        assert_eq!(r.geomean_speedup(), 1.0);
    }
}
