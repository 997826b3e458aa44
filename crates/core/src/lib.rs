//! # rannc-core
//!
//! The paper's contribution: RaNNC's automatic graph partitioner.
//!
//! Given an unmodified model task graph, a cluster description and a
//! global batch size, [`Rannc::partition`] produces a [`PartitionPlan`]
//! such that (1) every stage fits device memory and (2) synchronous
//! pipeline training throughput is maximized — via the three phases of
//! §III:
//!
//! 1. **Atomic-level** ([`atomic`]): split the graph into the
//!    finest-grained subcomponents, one non-constant task each.
//! 2. **Block-level** ([`blocks`], [`coarsen`], [`uncoarsen`],
//!    [`compact`]): group atoms into `k` balanced, convex,
//!    memory-feasible blocks with a multilevel scheme.
//! 3. **Stage-level** ([`dp`], [`search`], [`refine`]): Algorithm 1's
//!    dynamic program over block sequences and device counts, driven by
//!    Algorithm 2's node/stage/micro-batch search, whose winner's stage
//!    cuts are then refined at atom granularity.
//!
//! ```
//! use rannc_core::{Rannc, PartitionConfig};
//! use rannc_hw::ClusterSpec;
//! use rannc_models::{mlp_graph, MlpConfig};
//!
//! let graph = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
//! let cluster = ClusterSpec::v100_cluster(1);
//! let plan = Rannc::new(PartitionConfig::new(32))
//!     .partition(&graph, &cluster)
//!     .unwrap();
//! assert!(plan.total_devices() <= cluster.total_devices());
//! ```

pub mod atomic;
pub mod blocks;
pub mod coarsen;
pub mod compact;
pub mod dp;
pub mod explain;
pub mod par;
pub mod placement;
pub mod plan;
pub mod plan_io;
pub mod refine;
pub mod replan;
pub mod search;
pub mod stagecache;
pub mod uncoarsen;

pub use atomic::{atomic_partition, AtomicPartition};
pub use blocks::{block_partition, Block, BlockLimits};
pub use dp::{form_stage_dp, DpArena, DpParams, DpSolution, DpStage};
pub use placement::SlotTable;
pub use plan::{PartitionPlan, PlanError, StagePlan};
pub use plan_io::{decode_plan, encode_plan, load_plan, save_plan, PlanIoError};
pub use replan::{diff_plans, PlanDiff, ReplanOutcome};
pub use search::{
    bottleneck_bound, form_stage_with, proven_infeasible, scan_first_feasible_tier, score_bound,
    solve_cell, tier_grids, CellOutcome, SearchOptions, SearchStats,
};
pub use stagecache::{DpCtx, RangeTable, StageCost};

use rannc_cost::{CostModel, CostModelSpec};
use rannc_graph::TaskGraph;
use rannc_hw::{ClusterSpec, Precision};
use rannc_profile::{CacheStats, ProfilerOptions, Residency};
use rannc_verify::Report;

/// How [`Rannc::partition`] treats its verification post-pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Skip the post-pass entirely.
    Off,
    /// Run it; print diagnostics to stderr but keep the plan.
    Warn,
    /// Run it; reject the plan with
    /// [`PartitionError::FailedVerification`] on any error-severity
    /// diagnostic (warnings never reject).
    #[default]
    Fail,
    /// [`VerifyMode::Fail`] plus the dataflow-certified deep checks:
    /// liveness-certified peak memory against per-slot device capacity
    /// (RV100/RV101) and static race detection over the plan's derived
    /// communication program (RV060–RV064), under the planner's
    /// fill–drain schedule.
    Certify,
}

/// User-facing configuration of a partitioning run.
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Global mini-batch size `BS`.
    pub batch_size: usize,
    /// Desired number of blocks `k` (paper default: 32, §IV-A).
    pub k: usize,
    /// Training precision.
    pub precision: Precision,
    /// Micro-batch size used while profiling block balance.
    pub profile_batch: usize,
    /// Profiling-noise amplitude (0 = deterministic).
    pub noise_sigma: f64,
    /// Profiling-noise seed.
    pub noise_seed: u64,
    /// Static-verification post-pass behaviour (default: [`VerifyMode::Fail`]).
    pub verify: VerifyMode,
    /// Partition-search engine options (the tensor-parallel bound).
    pub search: SearchOptions,
    /// Cost model pricing the search (default: [`CostModelSpec::Analytical`]).
    pub cost: CostModelSpec,
}

impl PartitionConfig {
    /// Defaults matching the paper's experiments: `k = 32`, FP32.
    pub fn new(batch_size: usize) -> Self {
        PartitionConfig {
            batch_size,
            k: 32,
            precision: Precision::FP32,
            profile_batch: 1,
            noise_sigma: 0.0,
            noise_seed: 0,
            verify: VerifyMode::default(),
            search: SearchOptions::default(),
            cost: CostModelSpec::default(),
        }
    }

    /// Set the block count `k`.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Set the precision regime.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Enable profiling noise.
    pub fn with_noise(mut self, sigma: f64, seed: u64) -> Self {
        self.noise_sigma = sigma;
        self.noise_seed = seed;
        self
    }

    /// Set the verification post-pass mode.
    pub fn with_verify(mut self, verify: VerifyMode) -> Self {
        self.verify = verify;
        self
    }

    /// Does nothing: the search runs on the calling thread. Kept, with
    /// [`par::set_threads`], only because the frozen benchmark package
    /// calls it.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Set the largest tensor-parallel degree the `(S, MB, T)` sweep may
    /// try per stage (1 = historical 2D search).
    pub fn with_tp_max(mut self, tp_max: usize) -> Self {
        self.search.tp_max = tp_max.max(1);
        self
    }

    /// Set the cost model pricing the search.
    pub fn with_cost_model(mut self, cost: CostModelSpec) -> Self {
        self.cost = cost;
        self
    }
}

/// Observability snapshot of one partitioning run, returned by
/// [`Rannc::partition_with_stats`] and [`Rannc::repartition_with_stats`],
/// surfaced by the CLI's `--planner-stats` flag and the planner bench
/// JSON, and read by [`Rannc::explain`].
#[derive(Debug, Clone, Default)]
pub struct PlannerStats {
    /// Time-sum slot behaviour of the search's blocks (fills are
    /// misses, reads of a filled slot hits).
    pub profiler_cache: CacheStats,
    /// Search-engine counters, including the DP arena memo.
    pub search: SearchStats,
}

/// Publish a cache snapshot as `{prefix}.{hits,misses,entries}` gauges
/// (last-run semantics, like the rendered stats).
pub(crate) fn publish_cache_metrics(prefix: &str, s: &CacheStats) {
    for (field, v) in [
        ("hits", s.hits),
        ("misses", s.misses),
        ("entries", s.entries() as u64),
    ] {
        rannc_obs::metrics::gauge(&format!("{prefix}.{field}")).set(v as f64);
    }
}

impl PlannerStats {
    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let cache = |s: &CacheStats| {
            format!(
                "{} hits / {} misses ({:.1}% hit rate), {} entries",
                s.hits,
                s.misses,
                100.0 * s.hit_rate(),
                s.entries()
            )
        };
        let search = &self.search;
        format!(
            "planner stats:\n  \
             search: {} DP candidate(s), {} feasible, {} proven infeasible by the memory bound, \
             {} skipped by the score bound or the bottleneck test, {} node tier(s), \
             winner gap {}\n  \
             stage cache: {}\n  \
             profiler cache: {}",
            search.candidates,
            search.feasible,
            search.pruned,
            search.bounded,
            search.node_tiers,
            search.gap.map_or("-".into(), |g| format!("{g:.3}")),
            cache(&search.stage_cache),
            cache(&self.profiler_cache),
        )
    }
}

/// Why partitioning failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The graph has no computation tasks.
    EmptyGraph,
    /// No feasible assignment of stages to devices exists (the model is
    /// too large for the cluster) — Algorithm 2's INFEASIBLE.
    Infeasible,
    /// The cluster has no healthy devices left to plan against.
    ClusterEmpty,
    /// The produced plan failed the static verification post-pass
    /// ([`VerifyMode::Fail`]); the full report is attached.
    FailedVerification(Report),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::EmptyGraph => write!(f, "graph contains no tasks"),
            PartitionError::Infeasible => {
                write!(f, "no feasible partition fits the cluster (INFEASIBLE)")
            }
            PartitionError::ClusterEmpty => {
                write!(f, "cluster has no healthy devices")
            }
            PartitionError::FailedVerification(report) => {
                let (e, w) = report.counts();
                write!(
                    f,
                    "plan failed static verification ({e} error(s), {w} warning(s)):"
                )?;
                for d in report.errors() {
                    write!(f, "\n  {}", d.render())?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// The partitioner façade. Holds only configuration; each
/// [`Rannc::partition`] call is independent.
#[derive(Debug, Clone)]
pub struct Rannc {
    config: PartitionConfig,
}

impl Rannc {
    /// Create a partitioner with the given configuration.
    pub fn new(config: PartitionConfig) -> Self {
        Rannc { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PartitionConfig {
        &self.config
    }

    /// Run the full three-phase partitioning of `graph` onto `cluster`.
    pub fn partition(
        &self,
        graph: &TaskGraph,
        cluster: &ClusterSpec,
    ) -> Result<PartitionPlan, PartitionError> {
        self.partition_with_stats(graph, cluster).map(|(p, _)| p)
    }

    /// [`Rannc::partition`], additionally returning planner observability
    /// counters (cache hit rates, search shape).
    pub fn partition_with_stats(
        &self,
        graph: &TaskGraph,
        cluster: &ClusterSpec,
    ) -> Result<(PartitionPlan, PlannerStats), PartitionError> {
        if graph.num_tasks() == 0 {
            return Err(PartitionError::EmptyGraph);
        }
        let _root = rannc_obs::trace::span("partition", "planner")
            .arg_i("tasks", graph.num_tasks() as i64)
            .arg_i("batch_size", self.config.batch_size as i64);
        let cost = self.cost_model(graph, cluster);
        self.plan_cold(graph, cluster, &*cost)
    }

    /// A request's one cost model, on `cluster`'s template device.
    fn cost_model<'g>(
        &self,
        graph: &'g TaskGraph,
        cluster: &ClusterSpec,
    ) -> Box<dyn CostModel + 'g> {
        let opts = ProfilerOptions {
            precision: self.config.precision,
            ..ProfilerOptions::fp32()
        }
        .with_noise(self.config.noise_sigma, self.config.noise_seed);
        self.config
            .cost
            .build(graph, cluster.device.clone(), opts, cluster)
    }

    /// The three-phase pipeline: atomic and block-level partitioning at
    /// the configured `k`, then [`Rannc::plan_blocks`].
    fn plan_cold(
        &self,
        graph: &TaskGraph,
        cluster: &ClusterSpec,
        cost: &dyn CostModel,
    ) -> Result<(PartitionPlan, PlannerStats), PartitionError> {
        let atomic = {
            let _s = rannc_obs::trace::span("atomic", "planner");
            atomic_partition(graph)
        };
        if atomic.is_empty() {
            return Err(PartitionError::EmptyGraph);
        }
        let blocks = {
            let _s = rannc_obs::trace::span("blocks", "planner").arg_i("k", self.config.k as i64);
            let limits = BlockLimits::for_request(&self.config, cluster);
            block_partition(graph, cost, &atomic, limits)
        };
        self.plan_blocks(graph, cluster, cost, &blocks)
    }

    /// Every request's last step: Algorithm 2 over `blocks`, the plan and
    /// the verification post-pass.
    fn plan_blocks(
        &self,
        graph: &TaskGraph,
        cluster: &ClusterSpec,
        cost: &dyn CostModel,
        blocks: &[Block],
    ) -> Result<(PartitionPlan, PlannerStats), PartitionError> {
        // the slot counters of this search alone, though the request's
        // cost model may have served an earlier one
        let before = cost.cache_stats();
        let (sol, search) = {
            let _s =
                rannc_obs::trace::span("search", "planner").arg_i("blocks", blocks.len() as i64);
            form_stage_with(
                graph,
                cost,
                blocks,
                cluster,
                self.config.batch_size,
                &self.config.search,
            )
        };
        let after = cost.cache_stats();
        let stats = PlannerStats {
            profiler_cache: CacheStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
            },
            search,
        };
        publish_cache_metrics("planner.profiler_cache", &stats.profiler_cache);
        let sol = sol.ok_or(PartitionError::Infeasible)?;
        let plan = PartitionPlan::from_solution(graph.name.clone(), &sol, self.config.batch_size);
        self.verified(graph, cluster, plan).map(|p| (p, stats))
    }

    /// The static-verification post-pass, per [`PartitionConfig::verify`],
    /// inside the `verify` trace span.
    fn verified(
        &self,
        graph: &TaskGraph,
        cluster: &ClusterSpec,
        plan: PartitionPlan,
    ) -> Result<PartitionPlan, PartitionError> {
        let _s = rannc_obs::trace::span("verify", "planner");
        if self.config.verify == VerifyMode::Off {
            return Ok(plan);
        }
        let mut report = rannc_verify::verify_plan(graph, &plan.view(), cluster);
        if self.config.verify == VerifyMode::Certify {
            // The deep post-pass needs a concrete placement; a plan that
            // cannot be placed at all is rejected with the structural
            // report (RV028 has already flagged the device shortfall).
            let schedule =
                rannc_verify::ScheduleModel::fill_drain(plan.stages.len(), plan.microbatches);
            if let Ok((deep, _)) = plan.certify(graph, cluster, &schedule, self.config.precision) {
                report.merge(deep);
            }
        }
        if self.config.verify == VerifyMode::Warn {
            if !report.is_clean() {
                eprintln!("{}", report.render());
            }
        } else if report.has_errors() {
            return Err(PartitionError::FailedVerification(report));
        }
        Ok(plan)
    }

    /// Re-partition `graph` after device loss, warm-started from a
    /// previous plan.
    ///
    /// The old plan's stage sets are convex and were memory-feasible on
    /// the full cluster, so they become the block sequence: the block
    /// phase (about two thirds of a [`Rannc::partition`] call on BERT
    /// 2048×256 at 128 devices) is skipped, and only Algorithm 2 reruns
    /// on the degraded cluster's [`ClusterSpec::planning_view`]. If those
    /// coarse blocks admit no plan (a merged stage no longer fits one
    /// device), the full three-phase pipeline reruns on the same cost
    /// model. Plans are verified against the planning view: that is the
    /// capacity the search was allowed to use.
    pub fn repartition(
        &self,
        graph: &TaskGraph,
        old_plan: &PartitionPlan,
        degraded: &ClusterSpec,
    ) -> Result<PartitionPlan, PartitionError> {
        self.repartition_with_stats(graph, old_plan, degraded)
            .map(|(p, _)| p)
    }

    /// [`Rannc::repartition`], additionally returning the [`PlannerStats`]
    /// of the search that produced the plan (the full pipeline's when the
    /// warm start fell back to it).
    pub fn repartition_with_stats(
        &self,
        graph: &TaskGraph,
        old_plan: &PartitionPlan,
        degraded: &ClusterSpec,
    ) -> Result<(PartitionPlan, PlannerStats), PartitionError> {
        let _root = rannc_obs::trace::span("repartition", "planner")
            .arg_i("old_stages", old_plan.stages.len() as i64);
        let (view, cost) = self.replan_request(graph, degraded)?;
        self.warm_start(graph, old_plan, &view, &*cost)
    }

    /// A replan request's planning view of `degraded` and its cost model.
    fn replan_request<'g>(
        &self,
        graph: &'g TaskGraph,
        degraded: &ClusterSpec,
    ) -> Result<(ClusterSpec, Box<dyn CostModel + 'g>), PartitionError> {
        if graph.num_tasks() == 0 {
            return Err(PartitionError::EmptyGraph);
        }
        let view = degraded.planning_view();
        if view.total_devices() == 0 {
            return Err(PartitionError::ClusterEmpty);
        }
        let cost = self.cost_model(graph, &view);
        Ok((view, cost))
    }

    /// [`Rannc::repartition`] on a request's view and cost model.
    fn warm_start(
        &self,
        graph: &TaskGraph,
        old_plan: &PartitionPlan,
        view: &ClusterSpec,
        cost: &dyn CostModel,
    ) -> Result<(PartitionPlan, PlannerStats), PartitionError> {
        rannc_obs::metrics::counter("planner.repartitions").inc();
        if old_plan.stages.is_empty() {
            return self.plan_cold(graph, view, cost);
        }
        // Old stages, in pipeline order, become the warm-start blocks.
        let blocks: Vec<Block> = old_plan
            .stages
            .iter()
            .map(|s| {
                let probe = Residency::probe();
                let r = cost.stage_cost(
                    &s.set,
                    self.config.profile_batch,
                    probe.inflight,
                    probe.checkpointing,
                );
                Block {
                    set: s.set.clone(),
                    time: r.fwd_time + r.bwd_time,
                    mem: r.mem_bytes,
                }
            })
            .collect();
        match self.plan_blocks(graph, view, cost, &blocks) {
            // Coarse warm-start blocks can be infeasible where finer ones
            // are not — fall back to the full pipeline.
            Err(PartitionError::Infeasible) => self.plan_cold(graph, view, cost),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan_io::encode_plan;
    use rannc_hw::{DeviceSpec, LinkSpec, NodeSpec};
    use rannc_models::{bert_graph, mlp_graph, BertConfig, MlpConfig};

    #[test]
    fn end_to_end_mlp() {
        let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
        let cluster = ClusterSpec::v100_cluster(1);
        let plan = Rannc::new(PartitionConfig::new(32).with_k(8))
            .partition(&g, &cluster)
            .unwrap();
        assert!(!plan.stages.is_empty());
        assert!(plan.total_devices() <= cluster.total_devices());
        // all tasks covered
        let mut covered = rannc_graph::TaskSet::new(g.num_tasks());
        for s in &plan.stages {
            covered.union_with(&s.set);
        }
        assert_eq!(covered.len(), g.num_tasks());
    }

    #[test]
    fn end_to_end_bert_tiny() {
        let g = bert_graph(&BertConfig::tiny());
        let cluster = ClusterSpec::v100_cluster(1);
        let plan = Rannc::new(PartitionConfig::new(16).with_k(8))
            .partition(&g, &cluster)
            .unwrap();
        assert!(plan.est_throughput() > 0.0);
    }

    #[test]
    fn infeasible_on_absurd_cluster() {
        let g = mlp_graph(&MlpConfig::deep(512, 512, 8, 10));
        let cluster = ClusterSpec {
            nodes: 1,
            node: NodeSpec {
                devices: 2,
                intra_link: LinkSpec::nvlink(),
            },
            device: DeviceSpec::v100_32gb().with_memory(1 << 16),
            inter_link: LinkSpec::infiniband_100g(),
            lost_devices: Vec::new(),
            device_overrides: Vec::new(),
            link_overrides: Vec::new(),
        };
        assert_eq!(
            Rannc::new(PartitionConfig::new(32))
                .partition(&g, &cluster)
                .unwrap_err(),
            PartitionError::Infeasible
        );
    }

    #[test]
    fn repartition_after_device_loss() {
        let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
        let cluster = ClusterSpec::v100_cluster(2);
        let rannc = Rannc::new(PartitionConfig::new(32).with_k(8));
        let plan = rannc.partition(&g, &cluster).unwrap();

        let degraded = cluster
            .without_device(rannc_hw::DeviceRank { node: 0, local: 5 })
            .unwrap();
        let replanned = rannc.repartition(&g, &plan, &degraded).unwrap();
        assert!(!replanned.stages.is_empty());
        assert!(replanned.total_devices() <= degraded.healthy_devices());
        // all tasks still covered
        let mut covered = rannc_graph::TaskSet::new(g.num_tasks());
        for s in &replanned.stages {
            covered.union_with(&s.set);
        }
        assert_eq!(covered.len(), g.num_tasks());
    }

    #[test]
    fn repartition_after_node_loss_shrinks_plan() {
        let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
        let cluster = ClusterSpec::v100_cluster(2);
        let rannc = Rannc::new(PartitionConfig::new(32).with_k(8));
        let plan = rannc.partition(&g, &cluster).unwrap();

        let degraded = cluster.without_node(1).unwrap();
        let replanned = rannc.repartition(&g, &plan, &degraded).unwrap();
        assert!(replanned.total_devices() <= 8);
        assert!(replanned.est_throughput() > 0.0);
    }

    /// A repartition whose old stages no longer fit falls back to the
    /// full pipeline: its plan is, bit for bit, a cold partition of the
    /// planning view.
    #[test]
    fn repartition_fallback_is_a_cold_partition_bit_for_bit() {
        let g = mlp_graph(&MlpConfig::deep(512, 512, 12, 10));
        let rannc = Rannc::new(PartitionConfig::new(32).with_k(8));
        let plan = rannc.partition(&g, &ClusterSpec::v100_cluster(1)).unwrap();
        // devices with room for about a quarter of the model's weights
        // and optimizer state beyond the fixed overhead
        let mut degraded = ClusterSpec::v100_cluster(1);
        degraded.device = degraded.device.with_memory((1 << 30) + 16 * (1 << 20));
        let replanned = rannc.repartition(&g, &plan, &degraded).unwrap();
        // a warm answer only merges old stages, so more stages than the
        // old plan had means the fallback ran
        assert!(
            replanned.stages.len() > plan.stages.len(),
            "the old stages fit: the case tests no fallback"
        );
        let cold = rannc.partition(&g, &degraded.planning_view()).unwrap();
        assert_eq!(encode_plan(&replanned), encode_plan(&cold));
    }

    #[test]
    fn repartition_on_empty_cluster_is_rejected() {
        let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
        let cluster = ClusterSpec::v100_cluster(1);
        let rannc = Rannc::new(PartitionConfig::new(32).with_k(8));
        let plan = rannc.partition(&g, &cluster).unwrap();
        // losing the last node is a typed hw error before the planner
        // ever sees the cluster…
        assert_eq!(
            cluster.without_node(0).unwrap_err(),
            rannc_hw::SpecError::LastNode { node: 0 }
        );
        // …but a cluster emptied by hand still trips the planner guard
        let mut dead = cluster.clone();
        for local in 0..dead.node.devices {
            dead.lost_devices
                .push(rannc_hw::DeviceRank { node: 0, local });
        }
        assert_eq!(
            rannc.repartition(&g, &plan, &dead).unwrap_err(),
            PartitionError::ClusterEmpty
        );
    }

    #[test]
    fn repartition_on_healthy_cluster_matches_capacity() {
        // no loss: the warm-started plan is still valid and feasible
        let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
        let cluster = ClusterSpec::v100_cluster(1);
        let rannc = Rannc::new(PartitionConfig::new(32).with_k(8));
        let plan = rannc.partition(&g, &cluster).unwrap();
        let replanned = rannc.repartition(&g, &plan, &cluster).unwrap();
        assert!(replanned.total_devices() <= cluster.total_devices());
    }

    #[test]
    fn partition_post_pass_verifies_clean_by_default() {
        // default mode is Fail: partition() itself proves the plan clean
        let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
        let cluster = ClusterSpec::v100_cluster(1);
        let cfg = PartitionConfig::new(32).with_k(8);
        assert_eq!(cfg.verify, VerifyMode::Fail);
        let plan = Rannc::new(cfg).partition(&g, &cluster).unwrap();
        // and an explicit re-check through the library API agrees
        let report = rannc_verify::verify_plan(&g, &plan.view(), &cluster);
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn certify_mode_runs_the_deep_post_pass() {
        // Certify = Fail + dataflow certification: a plan the planner
        // accepts in this mode carries a certified peak within capacity
        // and a race-free derived communication program
        let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
        let cluster = ClusterSpec::v100_cluster(1);
        let cfg = PartitionConfig::new(32)
            .with_k(8)
            .with_verify(VerifyMode::Certify);
        let plan = Rannc::new(cfg).partition(&g, &cluster).unwrap();
        // re-run the same deep checks through the library API and agree
        let schedule =
            rannc_verify::ScheduleModel::fill_drain(plan.stages.len(), plan.microbatches);
        let (report, certified) = plan
            .certify(&g, &cluster, &schedule, rannc_hw::Precision::FP32)
            .unwrap();
        assert!(!report.has_errors(), "{}", report.render());
        for c in &certified {
            assert!(c.certified_bytes <= c.capacity_bytes);
        }
    }

    #[test]
    fn failed_verification_renders_diagnostics() {
        let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
        let cluster = ClusterSpec::v100_cluster(1);
        let rannc = Rannc::new(PartitionConfig::new(32).with_k(8));
        let mut plan = rannc.partition(&g, &cluster).unwrap();
        plan.stages[0].set.remove(rannc_graph::TaskId(0));
        let report = rannc_verify::verify_plan(&g, &plan.view(), &cluster);
        let err = PartitionError::FailedVerification(report);
        let text = err.to_string();
        assert!(text.contains("failed static verification"), "{text}");
        assert!(text.contains("RV023"), "{text}");
    }

    #[test]
    fn empty_graph_rejected() {
        let g = TaskGraph::new("empty");
        let cluster = ClusterSpec::v100_cluster(1);
        assert_eq!(
            Rannc::new(PartitionConfig::new(32))
                .partition(&g, &cluster)
                .unwrap_err(),
            PartitionError::EmptyGraph
        );
    }
}
