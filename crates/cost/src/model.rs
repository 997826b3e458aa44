//! The [`CostModel`] trait and its two shipping implementations.

use crate::{Calibration, CostFactors};
use rannc_graph::{TaskGraph, TaskSet};
use rannc_hw::{ClusterSpec, DeviceSpec, LinkSpec};
use rannc_profile::{CacheStats, ProfileResult, Profiler, ProfilerOptions};

/// The single pricing interface for stage compute time, activation
/// transfer time, collective time, and peak memory.
///
/// The planner, the schedule simulators, the baselines, and fault
/// replanning all consume this trait, so a plan is priced by exactly the
/// same code whether it is being searched for, verified, or replayed.
/// Implementations must be `Sync`: the parallel `(S, MB)` sweep shares
/// one model across worker threads.
pub trait CostModel: Sync {
    /// The task graph this model prices.
    fn graph(&self) -> &TaskGraph;

    /// The profiling options (precision, overheads, noise) in effect.
    fn options(&self) -> &ProfilerOptions;

    /// The device model stages run on.
    fn device(&self) -> &DeviceSpec;

    /// The paper's `profile(U, batch)`: forward/backward time and peak
    /// memory of one candidate stage at a micro-batch size, with
    /// `inflight` micro-batches resident and optional checkpointing.
    fn stage_cost(
        &self,
        set: &TaskSet,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
    ) -> ProfileResult;

    /// Tensor-parallel stage pricing: [`CostModel::stage_cost`] with the
    /// stage's splittable (matmul-bearing) compute divided across a
    /// `tp`-wide tensor-parallel group, weight/optimizer state sharded
    /// `tp` ways, activation buffers full-size, and the per-pass
    /// activation all-reduce over the group folded into the forward and
    /// backward times (which is why this variant needs the cluster).
    ///
    /// `tp == 1` must be bit-identical to [`CostModel::stage_cost`] —
    /// same float operations, same memo keys, same cache counters.
    fn stage_cost_tp(
        &self,
        set: &TaskSet,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
        tp: usize,
        cluster: &ClusterSpec,
    ) -> ProfileResult;

    /// Activation bytes crossing the cut from `from` to `to` for one
    /// micro-batch, at activation precision.
    fn comm_bytes(&self, from: &TaskSet, to: &TaskSet, batch: usize) -> usize;

    /// Point-to-point transfer time of `bytes` over `link`. Pure α–β
    /// pricing: zero bytes still pays the link latency, exactly like
    /// [`LinkSpec::transfer_time`] (callers that want free empty cuts
    /// check for zero themselves, as they always have).
    fn transfer_time(&self, link: LinkSpec, bytes: usize) -> f64;

    /// Gradient all-reduce time over a replica group of `group` devices.
    /// The caller supplies the layout fact (`spans_nodes`) because each
    /// call site has its own placement invariant; link selection and the
    /// ring formula live in `rannc-hw`.
    fn allreduce_time(
        &self,
        cluster: &ClusterSpec,
        bytes: usize,
        group: usize,
        spans_nodes: bool,
    ) -> f64;

    /// Time for one optimizer (Adam) step over `grad_bytes` of
    /// gradients on `device`.
    fn optimizer_time(&self, device: &DeviceSpec, grad_bytes: usize) -> f64;

    /// Scalar factors for consumers that cannot hold a trait object
    /// (e.g. a `PipelineSpec`). Identity for the analytical
    /// model.
    fn factors(&self) -> CostFactors {
        CostFactors::identity()
    }

    /// Memo-cache counters of the underlying profile oracle.
    fn cache_stats(&self) -> CacheStats;

    /// Hint that about `expected_sets` distinct task sets are about to be
    /// priced (the planner calls this with its block-range count before a
    /// sweep), letting the oracle pre-size its memo tables. Default:
    /// no-op — correctness never depends on it.
    fn reserve_profiles(&self, expected_sets: usize) {
        let _ = expected_sets;
    }

    /// Stable name of the pricing family, for reports and the explain
    /// artifact (`"analytical"` / `"calibrated"`) — the same tags
    /// `CostModelSpec::name` uses.
    fn name(&self) -> &'static str {
        "analytical"
    }
}

/// The analytical cost model: the [`Profiler`] roofline for stage
/// compute and memory plus the `rannc-hw` α–β and ring formulas. The
/// profiler *is* the analytical oracle, so any code holding one passes
/// it wherever a `&dyn CostModel` is expected, with no wrapper and no
/// second cache.
impl<'g> CostModel for Profiler<'g> {
    fn graph(&self) -> &TaskGraph {
        Profiler::graph(self)
    }

    fn options(&self) -> &ProfilerOptions {
        Profiler::options(self)
    }

    fn device(&self) -> &DeviceSpec {
        Profiler::device(self)
    }

    fn stage_cost(
        &self,
        set: &TaskSet,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
    ) -> ProfileResult {
        self.profile_set(set, batch, inflight, checkpointing)
    }

    fn stage_cost_tp(
        &self,
        set: &TaskSet,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
        tp: usize,
        cluster: &ClusterSpec,
    ) -> ProfileResult {
        if tp <= 1 {
            return self.profile_set(set, batch, inflight, checkpointing);
        }
        let mut r = self.profile_set_tp(set, batch, inflight, checkpointing, tp);
        let bytes = self.tp_allreduce_bytes(set, batch);
        if bytes > 0 {
            let ar = cluster.replica_allreduce_time(bytes, tp, tp > cluster.node.devices);
            r.fwd_time += ar;
            r.bwd_time += ar;
        }
        r
    }

    fn comm_bytes(&self, from: &TaskSet, to: &TaskSet, batch: usize) -> usize {
        Profiler::comm_bytes(self, from, to, batch)
    }

    fn transfer_time(&self, link: LinkSpec, bytes: usize) -> f64 {
        link.transfer_time(bytes)
    }

    fn allreduce_time(
        &self,
        cluster: &ClusterSpec,
        bytes: usize,
        group: usize,
        spans_nodes: bool,
    ) -> f64 {
        cluster.replica_allreduce_time(bytes, group, spans_nodes)
    }

    fn optimizer_time(&self, device: &DeviceSpec, grad_bytes: usize) -> f64 {
        device.optimizer_step_time(grad_bytes)
    }

    fn cache_stats(&self) -> CacheStats {
        Profiler::cache_stats(self)
    }

    fn reserve_profiles(&self, expected_sets: usize) {
        Profiler::reserve_profiles(self, expected_sets)
    }
}

/// The analytical model with measured correction factors: per-operator
/// compute factors are applied inside the profiler's roofline, per-link
/// factors scale transfer and collective times, and an optional memory
/// factor scales the peak-memory estimate.
///
/// An identity [`Calibration`] prices bit-identically to the analytical
/// model (the raw [`Profiler`]).
pub struct CalibratedCost<'g> {
    profiler: Profiler<'g>,
    cal: Calibration,
    inter_link: LinkSpec,
}

impl<'g> CalibratedCost<'g> {
    /// Build the model. The cluster is consulted once, to learn which
    /// link is the inter-node one so per-link factors can be applied.
    pub fn new(
        g: &'g TaskGraph,
        device: DeviceSpec,
        opts: ProfilerOptions,
        cal: Calibration,
        cluster: &ClusterSpec,
    ) -> Self {
        let profiler = Profiler::new_scaled(g, device, opts, |op| cal.op_factor(op.name()));
        CalibratedCost {
            profiler,
            cal,
            inter_link: cluster.inter_link,
        }
    }

    /// The calibration in effect.
    pub fn calibration(&self) -> &Calibration {
        &self.cal
    }

    /// Per-link factor: the inter-node factor for the inter-node link,
    /// the intra-node factor for everything else.
    fn link_factor(&self, link: LinkSpec) -> f64 {
        if link == self.inter_link {
            self.cal.link_inter
        } else {
            self.cal.link_intra
        }
    }
}

impl<'g> CostModel for CalibratedCost<'g> {
    fn graph(&self) -> &TaskGraph {
        CostModel::graph(&self.profiler)
    }

    fn options(&self) -> &ProfilerOptions {
        CostModel::options(&self.profiler)
    }

    fn device(&self) -> &DeviceSpec {
        CostModel::device(&self.profiler)
    }

    fn stage_cost(
        &self,
        set: &TaskSet,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
    ) -> ProfileResult {
        let mut r = self
            .profiler
            .stage_cost(set, batch, inflight, checkpointing);
        // guard the multiply so the identity calibration stays exact on
        // the integer round-trip
        if self.cal.memory != 1.0 {
            r.mem_bytes = (r.mem_bytes as f64 * self.cal.memory).round() as usize;
        }
        r
    }

    fn stage_cost_tp(
        &self,
        set: &TaskSet,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
        tp: usize,
        cluster: &ClusterSpec,
    ) -> ProfileResult {
        if tp <= 1 {
            return self.stage_cost(set, batch, inflight, checkpointing);
        }
        let mut r = self
            .profiler
            .profile_set_tp(set, batch, inflight, checkpointing, tp);
        if self.cal.memory != 1.0 {
            r.mem_bytes = (r.mem_bytes as f64 * self.cal.memory).round() as usize;
        }
        // the TP activation all-reduce is priced through the *calibrated*
        // collective path, unlike the profiler's raw impl
        let bytes = self.profiler.tp_allreduce_bytes(set, batch);
        if bytes > 0 {
            let ar = self.allreduce_time(cluster, bytes, tp, tp > cluster.node.devices);
            r.fwd_time += ar;
            r.bwd_time += ar;
        }
        r
    }

    fn comm_bytes(&self, from: &TaskSet, to: &TaskSet, batch: usize) -> usize {
        // byte volumes are structural, not timed — never calibrated
        CostModel::comm_bytes(&self.profiler, from, to, batch)
    }

    fn transfer_time(&self, link: LinkSpec, bytes: usize) -> f64 {
        self.profiler.transfer_time(link, bytes) * self.link_factor(link)
    }

    fn allreduce_time(
        &self,
        cluster: &ClusterSpec,
        bytes: usize,
        group: usize,
        spans_nodes: bool,
    ) -> f64 {
        let link_factor = if spans_nodes {
            self.cal.link_inter
        } else {
            self.cal.link_intra
        };
        self.profiler
            .allreduce_time(cluster, bytes, group, spans_nodes)
            * self.cal.allreduce
            * link_factor
    }

    fn optimizer_time(&self, device: &DeviceSpec, grad_bytes: usize) -> f64 {
        self.profiler.optimizer_time(device, grad_bytes) * self.cal.optimizer
    }

    fn factors(&self) -> CostFactors {
        CostFactors {
            compute: self.cal.compute,
            transfer: self.cal.link_intra,
            allreduce_intra: self.cal.allreduce * self.cal.link_intra,
            allreduce_inter: self.cal.allreduce * self.cal.link_inter,
            optimizer: self.cal.optimizer,
        }
    }

    fn cache_stats(&self) -> CacheStats {
        CostModel::cache_stats(&self.profiler)
    }

    fn reserve_profiles(&self, expected_sets: usize) {
        CostModel::reserve_profiles(&self.profiler, expected_sets)
    }

    fn name(&self) -> &'static str {
        "calibrated"
    }
}

/// Which cost model a run should price plans with — the configuration
/// value behind the CLI's `--cost-model` flag.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum CostModelSpec {
    /// The pure analytical model (the default).
    #[default]
    Analytical,
    /// The analytical model corrected by a calibration.
    Calibrated(Calibration),
}

impl CostModelSpec {
    /// Construct the chosen model for one graph/device/cluster.
    pub fn build<'g>(
        &self,
        g: &'g TaskGraph,
        device: DeviceSpec,
        opts: ProfilerOptions,
        cluster: &ClusterSpec,
    ) -> Box<dyn CostModel + 'g> {
        match self {
            CostModelSpec::Analytical => Box::new(Profiler::new(g, device, opts)),
            CostModelSpec::Calibrated(cal) => {
                Box::new(CalibratedCost::new(g, device, opts, cal.clone(), cluster))
            }
        }
    }

    /// Short display name for reports and stats.
    pub fn name(&self) -> &'static str {
        match self {
            CostModelSpec::Analytical => "analytical",
            CostModelSpec::Calibrated(_) => "calibrated",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc_graph::TaskId;
    use rannc_models::{bert_graph, BertConfig};

    fn whole_set(g: &TaskGraph) -> TaskSet {
        TaskSet::from_ids(g.num_tasks(), g.task_ids())
    }

    fn half_sets(g: &TaskGraph) -> (TaskSet, TaskSet) {
        let n = g.num_tasks();
        let half = n / 2;
        (
            TaskSet::from_ids(n, (0..half as u32).map(TaskId)),
            TaskSet::from_ids(n, (half as u32..n as u32).map(TaskId)),
        )
    }

    #[test]
    fn analytical_matches_raw_profiler_bitwise() {
        let g = bert_graph(&BertConfig::tiny());
        let cluster = ClusterSpec::v100_cluster(2);
        let raw = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
        let model = CostModelSpec::Analytical.build(
            &g,
            cluster.device.clone(),
            ProfilerOptions::fp32(),
            &cluster,
        );
        let s = whole_set(&g);
        let a = raw.profile_set(&s, 8, 4, true);
        let b = model.stage_cost(&s, 8, 4, true);
        assert_eq!(a.fwd_time.to_bits(), b.fwd_time.to_bits());
        assert_eq!(a.bwd_time.to_bits(), b.bwd_time.to_bits());
        assert_eq!(a.mem_bytes, b.mem_bytes);

        let (from, to) = half_sets(&g);
        assert_eq!(
            Profiler::comm_bytes(&raw, &from, &to, 8),
            model.comm_bytes(&from, &to, 8)
        );
        let link = cluster.planning_link();
        assert_eq!(
            link.transfer_time(1 << 20).to_bits(),
            model.transfer_time(link, 1 << 20).to_bits()
        );
        for spans in [false, true] {
            assert_eq!(
                cluster.replica_allreduce_time(1 << 26, 4, spans).to_bits(),
                model.allreduce_time(&cluster, 1 << 26, 4, spans).to_bits()
            );
        }
        assert_eq!(
            cluster.device.optimizer_step_time(1 << 26).to_bits(),
            model.optimizer_time(&cluster.device, 1 << 26).to_bits()
        );
    }

    #[test]
    fn identity_calibration_matches_analytical_bitwise() {
        let g = bert_graph(&BertConfig::tiny());
        let cluster = ClusterSpec::v100_cluster(2);
        let analytical = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
        let calibrated = CalibratedCost::new(
            &g,
            cluster.device.clone(),
            ProfilerOptions::fp32(),
            Calibration::identity(),
            &cluster,
        );
        let s = whole_set(&g);
        let a = analytical.stage_cost(&s, 8, 4, true);
        let b = calibrated.stage_cost(&s, 8, 4, true);
        assert_eq!(a.fwd_time.to_bits(), b.fwd_time.to_bits());
        assert_eq!(a.bwd_time.to_bits(), b.bwd_time.to_bits());
        assert_eq!(a.mem_bytes, b.mem_bytes);
        let link = cluster.planning_link();
        assert_eq!(
            analytical.transfer_time(link, 123_456).to_bits(),
            calibrated.transfer_time(link, 123_456).to_bits()
        );
        for spans in [false, true] {
            assert_eq!(
                analytical
                    .allreduce_time(&cluster, 1 << 26, 8, spans)
                    .to_bits(),
                calibrated
                    .allreduce_time(&cluster, 1 << 26, 8, spans)
                    .to_bits()
            );
        }
        assert_eq!(
            analytical
                .optimizer_time(&cluster.device, 1 << 26)
                .to_bits(),
            calibrated
                .optimizer_time(&cluster.device, 1 << 26)
                .to_bits()
        );
        assert_eq!(calibrated.factors(), CostFactors::identity());
    }

    #[test]
    fn calibration_factors_move_every_quantity() {
        let g = bert_graph(&BertConfig::tiny());
        let cluster = ClusterSpec::v100_cluster(2);
        let cal = Calibration {
            compute: 1.5,
            ops: vec![("matmul".into(), 2.0)],
            link_intra: 1.2,
            link_inter: 2.5,
            allreduce: 1.3,
            optimizer: 1.4,
            memory: 1.1,
        };
        let analytical = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
        let calibrated = CalibratedCost::new(
            &g,
            cluster.device.clone(),
            ProfilerOptions::fp32(),
            cal,
            &cluster,
        );
        let s = whole_set(&g);
        let a = analytical.stage_cost(&s, 8, 4, false);
        let b = calibrated.stage_cost(&s, 8, 4, false);
        assert!(b.fwd_time > a.fwd_time);
        assert!(b.mem_bytes > a.mem_bytes);
        let intra = cluster.planning_link();
        assert!(
            calibrated.transfer_time(intra, 1 << 20) > analytical.transfer_time(intra, 1 << 20)
        );
        assert!(
            calibrated.transfer_time(cluster.inter_link, 1 << 20)
                > analytical.transfer_time(cluster.inter_link, 1 << 20) * 2.0
        );
        assert!(
            calibrated.allreduce_time(&cluster, 1 << 26, 4, true)
                > analytical.allreduce_time(&cluster, 1 << 26, 4, true) * 3.0
        );
        assert!(
            calibrated.optimizer_time(&cluster.device, 1 << 26)
                > analytical.optimizer_time(&cluster.device, 1 << 26)
        );
    }

    #[test]
    fn spec_builds_both_models() {
        let g = bert_graph(&BertConfig::tiny());
        let cluster = ClusterSpec::v100_cluster(2);
        let s = whole_set(&g);
        let analytical = CostModelSpec::Analytical.build(
            &g,
            cluster.device.clone(),
            ProfilerOptions::fp32(),
            &cluster,
        );
        assert_eq!(CostModelSpec::Analytical.name(), "analytical");
        let cal = Calibration {
            compute: 2.0,
            ..Calibration::identity()
        };
        let spec = CostModelSpec::Calibrated(cal);
        assert_eq!(spec.name(), "calibrated");
        let calibrated = spec.build(
            &g,
            cluster.device.clone(),
            ProfilerOptions::fp32(),
            &cluster,
        );
        let a = analytical.stage_cost(&s, 4, 1, false);
        let b = calibrated.stage_cost(&s, 4, 1, false);
        assert!(b.fwd_time > a.fwd_time);
        assert_eq!(a.param_elems, b.param_elems);
    }
}
