//! The benchmark workloads and the closed-loop client that drives them.
//!
//! One client sends one planning request at a time and sends the next
//! only after the previous one returned. A run sets the workload up
//! [`SETUP_REPEATS`] times (graph, warm-up requests or the seed plan),
//! then times a fixed number of requests and checks every answer.

use crate::ledger;
use crate::rebuild::{self, Counters};
use crate::speed;
use rannc::core::{PartitionConfig, PartitionPlan, Rannc, VerifyMode};
use rannc::faults::ClusterEventTrace;
use rannc::graph::TaskGraph;
use rannc::hw::ClusterSpec;
use rannc::models::{
    bert_graph, mlp_graph, resnet_graph, BertConfig, MlpConfig, ResNetConfig, ResNetDepth,
};
use rannc::profile::ProfilerOptions;
use rannc_bench::planner::plans_identical;
use std::time::Instant;

/// Planner threads for the search and the block phase. Fixed, so a run
/// measures the same work on any machine; it equals the core count of
/// the 2-core machine the bounds were set on.
pub const THREADS: usize = 2;

/// Set-ups per run; the run reports their median as `setup_s`.
pub const SETUP_REPEATS: usize = 3;

/// Fewest timed requests a run makes: p75 needs ten samples above it.
pub const MIN_OPS: usize = 40;

/// The churn workload replays one fixed event trace. Its latency mix
/// depends on the trace: across trace seeds 1–10 the warm-start p50
/// moved by ±12% and the cold-fallback count by 4–13 per 200 events,
/// more than any bound, so the seed of the trace is part of the
/// workload's definition.
const CHURN_TRACE_SEED: u64 = 7;
const CHURN_MEAN_GAP: usize = 1500;
const CHURN_RETRIES: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Bert256,
    Resnet152x8,
    Bert64Tp8Certify,
    ChurnBert256,
    /// A small MLP that runs the harness end to end in well under a
    /// second; for smoke checks, not listed in `BENCHMARK.json`.
    MlpSmoke,
}

impl Workload {
    /// The workloads `BENCHMARK.json` lists, in run order.
    pub const BENCHMARK: [Workload; 4] = [
        Workload::Bert256,
        Workload::Resnet152x8,
        Workload::Bert64Tp8Certify,
        Workload::ChurnBert256,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Bert256 => "bert256-d128",
            Workload::Resnet152x8 => "resnet152x8-d128",
            Workload::Bert64Tp8Certify => "bert64-tp8-certify",
            Workload::ChurnBert256 => "churn-bert256-d128",
            Workload::MlpSmoke => "mlp-smoke",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::BENCHMARK
            .into_iter()
            .chain([Workload::MlpSmoke])
            .find(|w| w.name() == name)
    }

    fn graph(self) -> TaskGraph {
        match self {
            Workload::Bert256 | Workload::ChurnBert256 => {
                bert_graph(&BertConfig::enlarged(2048, 256))
            }
            Workload::Resnet152x8 => resnet_graph(&ResNetConfig::new(ResNetDepth::R152, 8)),
            Workload::Bert64Tp8Certify => bert_graph(&BertConfig::enlarged(2048, 64)),
            Workload::MlpSmoke => mlp_graph(&MlpConfig::deep(64, 64, 8, 10)),
        }
    }

    fn cluster(self) -> ClusterSpec {
        match self {
            Workload::Bert64Tp8Certify => ClusterSpec::v100_cluster(2),
            Workload::MlpSmoke => ClusterSpec::v100_cluster(1),
            _ => ClusterSpec::v100_cluster(16),
        }
    }

    fn config(self) -> PartitionConfig {
        let cfg = match self {
            Workload::Bert64Tp8Certify => PartitionConfig::new(8)
                .with_tp_max(8)
                .with_verify(VerifyMode::Certify),
            Workload::MlpSmoke => PartitionConfig::new(32).with_k(8),
            _ => PartitionConfig::new(1024),
        };
        cfg.with_threads(THREADS)
    }

    /// Untimed requests in each set-up, the first of which gives the
    /// reference plan. Churn's single one is its seed plan.
    pub fn warmups(self) -> usize {
        match self {
            Workload::Bert256 => 2,
            Workload::Resnet152x8 => 16,
            Workload::Bert64Tp8Certify => 4,
            Workload::ChurnBert256 | Workload::MlpSmoke => 1,
        }
    }

    /// Wall seconds per timed request, loop overhead included, on the
    /// 2-core x86-64 machine the bounds were set on. Only sizes the op
    /// count from `--seconds`; nothing is measured against it.
    fn nominal_op_s(self) -> f64 {
        match self {
            Workload::Bert256 => 0.65,
            Workload::Resnet152x8 => 0.037,
            Workload::Bert64Tp8Certify => 0.16,
            Workload::ChurnBert256 => 0.05,
            Workload::MlpSmoke => 0.001,
        }
    }

    /// Timed requests of a run that should last about `seconds`.
    pub fn ops_for(self, seconds: u64) -> usize {
        ((seconds as f64 / self.nominal_op_s()).round() as usize).max(MIN_OPS)
    }

    fn is_churn(self) -> bool {
        self == Workload::ChurnBert256
    }
}

/// What one run measured. Latencies are per timed request, seconds.
#[derive(Debug, Default)]
pub struct RunResult {
    pub ops: usize,
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    pub graph_s: Vec<f64>,
    pub latencies: Vec<f64>,
    /// Simulated throughput of the reference plan, or for churn the mean
    /// over the plans the timed replans adopted.
    pub sim_samples_per_s: f64,
    pub simulate_s: Vec<f64>,
    pub peak_rss_mib: f64,
    /// Warm-start answers, replans on a heterogeneous cluster, and
    /// replan-ladder attempts, over the timed requests.
    pub warm: usize,
    pub hetero: usize,
    pub attempts: usize,
    /// One reference-kernel time after every timed request.
    pub kernel_s: Vec<f64>,
    pub trace: Option<TraceResult>,
}

impl RunResult {
    /// The run's machine-speed factor; every reported time is divided
    /// by it.
    pub fn speed(&self) -> f64 {
        speed::factor(&self.kernel_s)
    }
}

/// The traced half of a per-layer run.
#[derive(Debug, Default)]
pub struct TraceResult {
    pub requests: Vec<ledger::Request>,
    /// Wall time of each traced request as the client saw it.
    pub latencies: Vec<f64>,
    pub counters: Counters,
    pub events: Vec<rannc::obs::trace::TraceEvent>,
}

/// The client's state: the workload's inputs and, for churn, where the
/// event trace has got to.
struct Client {
    workload: Workload,
    graph: TaskGraph,
    base: ClusterSpec,
    cfg: PartitionConfig,
    rannc: Rannc,
    /// The first plan of the set-up; churn's seed plan.
    reference: PartitionPlan,
    trace: ClusterEventTrace,
    next_event: usize,
    cluster: ClusterSpec,
    plan: PartitionPlan,
}

impl Client {
    fn set_up(workload: Workload, ops: usize, graph_s: &mut Vec<f64>) -> Result<Client, String> {
        let t = Instant::now();
        let graph = workload.graph();
        graph_s.push(t.elapsed().as_secs_f64());
        let base = workload.cluster();
        let cfg = workload.config();
        let rannc = Rannc::new(cfg.clone());
        let reference = rannc
            .partition(&graph, &base)
            .map_err(|e| format!("set-up plan failed: {e}"))?;
        for i in 1..workload.warmups() {
            let plan = rannc
                .partition(&graph, &base)
                .map_err(|e| format!("warm-up {i} failed: {e}"))?;
            if !plans_identical(&plan, &reference) {
                return Err(format!("warm-up {i} returned a different plan"));
            }
        }
        let trace = if workload.is_churn() {
            ClusterEventTrace::generate(CHURN_TRACE_SEED, ops, &base, CHURN_MEAN_GAP)
        } else {
            ClusterEventTrace::new(CHURN_TRACE_SEED)
        };
        Ok(Client {
            workload,
            cluster: base.clone(),
            plan: reference.clone(),
            graph,
            base,
            cfg,
            rannc,
            reference,
            trace,
            next_event: 0,
        })
    }

    /// Rewind the churn trace to its start.
    fn rewind(&mut self) {
        self.next_event = 0;
        self.cluster = self.base.clone();
        self.plan = self.reference.clone();
    }

    /// Simulated samples/s of `plan` on the planning view of `cluster`,
    /// and the seconds the simulation took.
    fn simulate(&self, plan: &PartitionPlan, cluster: &ClusterSpec) -> Result<(f64, f64), String> {
        let view = cluster.planning_view();
        let opts = ProfilerOptions {
            precision: self.cfg.precision,
            ..ProfilerOptions::fp32()
        };
        let cost = self
            .cfg
            .cost
            .build(&self.graph, view.device.clone(), opts, &view);
        let t = Instant::now();
        let sim = rannc::pipeline::simulate_plan(plan, &*cost, &view)
            .map_err(|e| format!("plan does not simulate: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        if !(sim.throughput.is_finite() && sim.throughput > 0.0) {
            return Err(format!(
                "simulated throughput {} is not positive",
                sim.throughput
            ));
        }
        Ok((sim.throughput, secs))
    }

    /// Apply the next churn event to the cluster.
    fn advance(&mut self) -> Result<(), String> {
        let te = self.trace.events()[self.next_event];
        self.next_event += 1;
        self.cluster = te
            .event
            .apply(&self.cluster)
            .map_err(|e| format!("event {} does not apply: {e}", self.next_event - 1))?;
        Ok(())
    }

    /// One black-box request, timed. Churn requests adopt their plan.
    fn request(&mut self, out: &mut RunResult) -> Result<PartitionPlan, String> {
        if !self.workload.is_churn() {
            let t = Instant::now();
            let res = self.rannc.partition(&self.graph, &self.base);
            out.latencies.push(t.elapsed().as_secs_f64());
            out.attempts += 1;
            let plan = res.map_err(|e| e.to_string())?;
            if !plans_identical(&plan, &self.reference) {
                return Err("plan differs from the run's first plan".into());
            }
            return Ok(plan);
        }
        self.advance()?;
        let t = Instant::now();
        let res =
            self.rannc
                .replan_with_backoff(&self.graph, &self.plan, &self.cluster, CHURN_RETRIES);
        out.latencies.push(t.elapsed().as_secs_f64());
        let outcome = res.map_err(|e| e.to_string())?;
        out.warm += usize::from(is_warm_start(&self.plan, &outcome.plan));
        out.hetero += usize::from(self.cluster.is_heterogeneous());
        out.attempts += outcome.attempts;
        self.plan = outcome.plan.clone();
        Ok(outcome.plan)
    }

    /// One request rebuilt from the layer calls under trace spans, and its
    /// wall time.
    fn traced_request(
        &mut self,
        req: usize,
        counters: &mut Counters,
    ) -> (f64, Result<PartitionPlan, String>) {
        if self.workload.is_churn() {
            if let Err(e) = self.advance() {
                return (0.0, Err(e));
            }
        }
        let t = Instant::now();
        let res = {
            let _op = rebuild::layer("op", req);
            if self.workload.is_churn() {
                rebuild::replan(
                    &self.graph,
                    &self.plan,
                    &self.cluster,
                    &self.cfg,
                    CHURN_RETRIES,
                    req,
                    counters,
                )
                .map(|(plan, _)| plan)
            } else {
                rebuild::partition(&self.graph, &self.base, &self.cfg, req, counters)
            }
        };
        let secs = t.elapsed().as_secs_f64();
        if let Ok(plan) = &res {
            if self.workload.is_churn() {
                self.plan = plan.clone();
            }
        }
        (secs, res)
    }
}

/// A warm start reuses the old stages as blocks, so each new stage is the
/// union of a run of consecutive old stages. A cold replan's stages
/// almost never are. Judged from the plans alone, from outside the
/// planner.
pub fn is_warm_start(old: &PartitionPlan, new: &PartitionPlan) -> bool {
    let mut next_old = 0;
    for stage in &new.stages {
        let mut union = None::<rannc::graph::TaskSet>;
        while next_old < old.stages.len() && old.stages[next_old].set.is_subset(&stage.set) {
            let set = &old.stages[next_old].set;
            union = Some(match union {
                None => set.clone(),
                Some(u) => u.union(set),
            });
            next_old += 1;
        }
        if union.as_ref() != Some(&stage.set) {
            return false;
        }
    }
    next_old == old.stages.len()
}

/// Run `workload`: set up, then `ops` timed black-box requests. With
/// `trace`, a quarter of `ops` black-box requests, then the same number
/// rebuilt from the layer calls with tracing on.
pub fn run(workload: Workload, ops: usize, trace: bool) -> RunResult {
    let mut out = RunResult::default();
    let mut client = None;
    for _ in 0..SETUP_REPEATS {
        drop(client.take());
        let t = Instant::now();
        match Client::set_up(workload, ops, &mut out.graph_s) {
            Ok(c) => client = Some(c),
            Err(e) => {
                out.failures.push(e);
                return out;
            }
        }
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut client = client.expect("at least one set-up");

    match client.simulate(&client.reference, &client.base) {
        Ok((tput, secs)) => {
            out.sim_samples_per_s = tput;
            out.simulate_s.push(secs);
        }
        Err(e) => out.failures.push(format!("reference plan: {e}")),
    }

    let untraced = if trace { ops.div_ceil(4) } else { ops };
    // churn plans the traced half must reproduce; kept only when tracing,
    // so they do not add to an untraced run's peak RSS
    let mut adopted = Vec::new();
    let mut sims = Vec::new();
    for i in 0..untraced {
        out.ops += 1;
        let res = client.request(&mut out);
        out.kernel_s.push(speed::time_kernel());
        match res {
            Ok(plan) if workload.is_churn() => {
                match client.simulate(&plan, &client.cluster) {
                    Ok((tput, secs)) => {
                        sims.push(tput);
                        out.simulate_s.push(secs);
                    }
                    Err(e) => out.failures.push(format!("request {i}: {e}")),
                }
                if trace {
                    adopted.push(plan);
                }
            }
            Ok(_) => {}
            Err(e) => out.failures.push(format!("request {i}: {e}")),
        }
    }
    if workload.is_churn() && !sims.is_empty() {
        out.sim_samples_per_s = sims.iter().sum::<f64>() / sims.len() as f64;
    }
    // tracing and the flight recorder are off: the requests above must
    // not have allocated a single record
    let allocs = (
        rannc::obs::trace::alloc_count(),
        rannc::obs::recorder::alloc_count(),
    );
    if allocs != (0, 0) {
        out.failures.push(format!(
            "observability off, yet trace/recorder allocated {allocs:?} record(s)"
        ));
    }

    if trace {
        out.trace = Some(traced_half(&mut client, &adopted, untraced, &mut out));
    }
    match peak_rss_mib() {
        Ok(mib) => out.peak_rss_mib = mib,
        Err(e) => out.failures.push(e),
    }
    out
}

fn traced_half(
    client: &mut Client,
    adopted: &[PartitionPlan],
    n: usize,
    out: &mut RunResult,
) -> TraceResult {
    let mut tr = TraceResult::default();
    client.rewind();
    rannc::obs::trace::reset();
    rannc::obs::set_enabled(true);
    for req in 0..n {
        out.ops += 1;
        let (secs, res) = client.traced_request(req, &mut tr.counters);
        out.kernel_s.push(speed::time_kernel());
        tr.latencies.push(secs);
        let expected = if client.workload.is_churn() {
            adopted.get(req)
        } else {
            Some(&client.reference)
        };
        match (res, expected) {
            (Ok(plan), Some(want)) if plans_identical(&plan, want) => {}
            (Ok(_), _) => out.failures.push(format!(
                "traced request {req}: rebuilt plan differs from the black box's"
            )),
            (Err(e), _) => out.failures.push(format!("traced request {req}: {e}")),
        }
    }
    rannc::obs::set_enabled(false);
    tr.events = rannc::obs::trace::drain_events();
    tr.requests = ledger::requests(&tr.events);
    if tr.requests.len() != n {
        out.failures.push(format!(
            "{} traced request span(s) for {n} request(s)",
            tr.requests.len()
        ));
    }
    // the layers must account for the requests' time as the client saw it
    let layered: f64 = tr
        .requests
        .iter()
        .map(|r| r.self_s.values().sum::<f64>())
        .sum();
    let seen: f64 = tr.latencies.iter().sum();
    if (layered - seen).abs() > 0.1 * seen {
        out.failures.push(format!(
            "layer self times sum to {layered:.6} s, traced requests took {seen:.6} s"
        ));
    }
    tr
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc::core::StagePlan;
    use rannc::graph::{TaskId, TaskSet};

    fn plan(stages: &[&[u32]]) -> PartitionPlan {
        PartitionPlan {
            model: "m".into(),
            stages: stages
                .iter()
                .map(|ids| StagePlan {
                    set: TaskSet::from_ids(8, ids.iter().map(|&i| TaskId(i))),
                    replicas: 1,
                    tensor_parallel: 1,
                    micro_batch: 1,
                    fwd_time: 0.0,
                    bwd_time: 0.0,
                    mem_bytes: 0,
                    param_elems: 0,
                })
                .collect(),
            microbatches: 1,
            replica_factor: 1,
            batch_size: 1,
            bottleneck: 0.0,
            est_iteration_time: 0.0,
        }
    }

    #[test]
    fn warm_start_classifier_accepts_only_merged_runs() {
        let old = plan(&[&[0, 1], &[2, 3], &[4, 5], &[6, 7]]);
        // consecutive old stages merged: a warm start
        assert!(is_warm_start(
            &old,
            &plan(&[&[0, 1, 2, 3], &[4, 5], &[6, 7]])
        ));
        assert!(is_warm_start(&old, &plan(&[&[0, 1, 2, 3, 4, 5, 6, 7]])));
        assert!(is_warm_start(&old, &old));
        // a cut through an old stage: a cold replan
        assert!(!is_warm_start(&old, &plan(&[&[0, 1, 2], &[3, 4, 5, 6, 7]])));
        // old stages merged out of order
        assert!(!is_warm_start(&old, &plan(&[&[0, 1, 4, 5], &[2, 3, 6, 7]])));
        // tasks dropped
        assert!(!is_warm_start(&old, &plan(&[&[0, 1, 2, 3]])));
    }

    #[test]
    fn mlp_smoke_runs_through_the_harness() {
        let t = Instant::now();
        let plain = run(Workload::MlpSmoke, 3, false);
        assert!(plain.failures.is_empty(), "{:?}", plain.failures);
        assert_eq!(plain.ops, 3);
        assert_eq!(plain.latencies.len(), 3);
        assert_eq!(plain.setup_s.len(), SETUP_REPEATS);
        assert!(plain.sim_samples_per_s > 0.0 && plain.peak_rss_mib > 0.0);
        // three samples are too few for any reported percentile
        assert!(crate::report::end_to_end(&plain).is_err());

        let traced = run(Workload::MlpSmoke, 3, true);
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        let tr = traced.trace.as_ref().expect("traced half ran");
        assert_eq!(tr.requests.len(), 1);
        assert!(tr.requests[0].self_s.contains_key("core.coarsen_s"));
        assert!(t.elapsed().as_secs_f64() < 2.0, "{:?}", t.elapsed());
    }
}
