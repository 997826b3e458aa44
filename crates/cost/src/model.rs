//! The [`CostModel`] trait and its two shipping implementations.

use crate::{Calibration, CostFactors};
use rannc_graph::{TaskGraph, TaskSet};
use rannc_hw::{ClusterSpec, DeviceSpec, LinkSpec};
use rannc_profile::{
    CacheStats, ProfileResult, ProfiledSet, Profiler, ProfilerOptions, StatsBound, TimeSums,
};

/// The single pricing interface for stage compute time, activation
/// transfer time, collective time, and peak memory.
///
/// The planner, the schedule simulators, the baselines, and fault
/// replanning all consume this trait, so a plan is priced by exactly the
/// same code whether it is being searched for, verified, or replayed.
/// A model prices on one thread: the planner runs a search on its calling
/// thread, and the profiler's slot counters are plain cells, so neither
/// shipping model is `Sync`.
///
/// The search's score bound (`rannc_core::search::score_bound`) relies
/// on two properties of [`CostModel::stage_cost_tp`]'s forward plus
/// backward time at a fixed degree and residency, for noise-free
/// profiling (`prop_cost.rs` tests both on both shipping models):
///
/// - **a stage's time per sample is nonincreasing in its micro-batch.**
///   Each task's time is a max of affine terms in the batch with
///   nonnegative intercepts (its roofline plus its launch overhead), the
///   stage adds a fixed invocation overhead and, at `tp > 1`, an α–β
///   all-reduce of bytes linear in the batch;
/// - **the stages of a split together cost at least the whole list
///   priced as one stage**, at the same micro-batch: the tasks' times
///   add, a task held by two stages is paid twice, and each stage pays
///   its own overheads and all-reduce latency.
pub trait CostModel {
    /// The analytical profiler underneath. It builds the
    /// [`ProfiledSet`]s the model prices: a set's statistics are
    /// structural, so calibration never changes them, only their price.
    fn profiler(&self) -> &Profiler<'_>;

    /// The task graph this model prices.
    fn graph(&self) -> &TaskGraph {
        self.profiler().graph()
    }

    /// The profiling options (precision, overheads, noise) in effect.
    fn options(&self) -> &ProfilerOptions {
        self.profiler().options()
    }

    /// The device model stages run on.
    fn device(&self) -> &DeviceSpec {
        self.profiler().device()
    }

    /// The one pricing of a stage's compute and memory: forward/backward
    /// time and peak memory of `set` at a micro-batch size, with
    /// `inflight` micro-batches resident, optional checkpointing, on one
    /// shard of a `tp`-wide group (the graph's split rule decides what
    /// divides, [`Profiler::profile`]). `time` must be the set's
    /// exact time sums at `(batch, tp)`, walked
    /// ([`Profiler::time_sums`]) or composed from parts. Excludes the
    /// tensor-parallel all-reduce, which [`CostModel::stage_cost_tp`]
    /// adds. The times are the profiler's ([`Profiler::profile`]): a
    /// model corrects compute through the profiler's per-operator
    /// factors, so a caller may price a union's time from the profiler
    /// alone ([`Profiler::union_times`]).
    fn stage_price(
        &self,
        set: &ProfiledSet<'_>,
        time: TimeSums,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
        tp: usize,
    ) -> ProfileResult;

    /// The paper's `profile(U, batch)`: forward/backward time and peak
    /// memory of one candidate stage at a micro-batch size, with
    /// `inflight` micro-batches resident and optional checkpointing.
    /// Prices a plain set, one walk for its statistics and one for its
    /// time: nothing is cached or counted.
    fn stage_cost(
        &self,
        set: &TaskSet,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
    ) -> ProfileResult {
        let p = self.profiler();
        let time = p.time_sums(set.iter(), batch, 1);
        self.stage_price(&p.profiled(set), time, batch, inflight, checkpointing, 1)
    }

    /// Tensor-parallel stage pricing: [`CostModel::stage_price`] with the
    /// per-pass activation all-reduce over the `tp`-wide group — the
    /// stage's row-split matmul outputs, [`Profiler::tp_allreduce_bytes`]
    /// — folded into the forward and backward times (which is why this
    /// variant needs the cluster), priced through
    /// [`CostFactors::allreduce_time`].
    ///
    /// `tp == 1` is bit-identical to [`CostModel::stage_cost`] of the
    /// set's tasks — same float operations.
    #[allow(clippy::too_many_arguments)]
    fn stage_cost_tp(
        &self,
        set: &ProfiledSet<'_>,
        time: TimeSums,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
        tp: usize,
        cluster: &ClusterSpec,
    ) -> ProfileResult {
        let mut r = self.stage_price(set, time, batch, inflight, checkpointing, tp);
        let bytes = if tp > 1 {
            self.profiler().tp_allreduce_bytes(set, batch)
        } else {
            0
        };
        if bytes > 0 {
            let spans_nodes = tp > cluster.node.devices;
            let ar = self
                .factors()
                .allreduce_time(cluster, bytes, tp, spans_nodes);
            r.fwd_time += ar;
            r.bwd_time += ar;
        }
        r
    }

    /// Peak memory of a candidate stage alone: exactly
    /// `stage_price(set, _, batch, inflight, checkpointing, tp).mem_bytes`
    /// (and `stage_cost`'s at `tp <= 1`), computed from the
    /// batch-independent set statistics without pricing time. Algorithm 1
    /// checks it first, so a stage over the memory bound is rejected
    /// before its time is profiled. [`CostModel::bound_mem`] of the set's
    /// own statistics, so it too must be nondecreasing in `batch`: the
    /// search's fewest-devices bound
    /// (`rannc_core::search::proven_infeasible`) reads a range that fits
    /// on `repl` data-parallel units as fitting on every larger count.
    fn stage_mem(
        &self,
        set: &ProfiledSet<'_>,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
        tp: usize,
    ) -> usize {
        self.bound_mem(&set.stats_bound(), batch, inflight, checkpointing, tp)
    }

    /// Peak memory of a stage from a bound on its set statistics
    /// ([`StatsBound`]): [`CostModel::stage_mem`] of every set the bound
    /// covers is at most this, and a set's own statistics give exactly
    /// its memory. Implementations must keep it nondecreasing in the
    /// bound, so a bound within a memory limit proves a set fits it, and
    /// nondecreasing in `batch`, so a smaller micro-batch never needs more
    /// memory ([`CostModel::stage_mem`]).
    fn bound_mem(
        &self,
        bound: &StatsBound,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
        tp: usize,
    ) -> usize;

    /// Activation bytes crossing the cut from `from` to `to` for one
    /// micro-batch, at activation precision.
    fn comm_bytes(&self, from: &TaskSet, to: &TaskSet, batch: usize) -> usize;

    /// Point-to-point transfer time of `bytes` over `link`. Pure α–β
    /// pricing: zero bytes still pays the link latency, exactly like
    /// [`LinkSpec::transfer_time`] (callers that want free empty cuts
    /// check for zero themselves, as they always have).
    fn transfer_time(&self, link: LinkSpec, bytes: usize) -> f64;

    /// The model's scalar correction factors. Collectives and optimizer
    /// steps are priced through them ([`CostFactors::allreduce_time`],
    /// [`CostFactors::optimizer_time`]), here and in consumers that cannot
    /// hold a trait object (e.g. a `PipelineSpec`). Identity for the
    /// analytical model.
    fn factors(&self) -> CostFactors {
        CostFactors::identity()
    }

    /// Counters of the time-sum slots this model's profiler filled and
    /// read ([`Profiler::sum_parts`]).
    fn cache_stats(&self) -> CacheStats {
        self.profiler().cache_stats()
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
/// it wherever a `&dyn CostModel` is expected, with no wrapper.
impl CostModel for Profiler<'_> {
    fn profiler(&self) -> &Profiler<'_> {
        self
    }

    fn stage_price(
        &self,
        set: &ProfiledSet<'_>,
        time: TimeSums,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
        tp: usize,
    ) -> ProfileResult {
        self.profile(set, time, batch, inflight, checkpointing, tp)
    }

    fn bound_mem(
        &self,
        bound: &StatsBound,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
        tp: usize,
    ) -> usize {
        Profiler::bound_mem(self, bound, batch, inflight, checkpointing, tp)
    }

    fn comm_bytes(&self, from: &TaskSet, to: &TaskSet, batch: usize) -> usize {
        Profiler::comm_bytes(self, from, to, batch)
    }

    fn transfer_time(&self, link: LinkSpec, bytes: usize) -> f64 {
        link.transfer_time(bytes)
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

    /// The memory factor applied to an analytical peak-memory estimate,
    /// guarded so the identity calibration stays exact on the integer
    /// round-trip.
    fn calibrated_mem(&self, bytes: usize) -> usize {
        if self.cal.memory == 1.0 {
            bytes
        } else {
            (bytes as f64 * self.cal.memory).round() as usize
        }
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

impl CostModel for CalibratedCost<'_> {
    fn profiler(&self) -> &Profiler<'_> {
        &self.profiler
    }

    fn stage_price(
        &self,
        set: &ProfiledSet<'_>,
        time: TimeSums,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
        tp: usize,
    ) -> ProfileResult {
        let mut r = self
            .profiler
            .profile(set, time, batch, inflight, checkpointing, tp);
        r.mem_bytes = self.calibrated_mem(r.mem_bytes);
        r
    }

    fn bound_mem(
        &self,
        bound: &StatsBound,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
        tp: usize,
    ) -> usize {
        // rounding a positive multiple keeps the order of the bytes
        self.calibrated_mem(
            self.profiler
                .bound_mem(bound, batch, inflight, checkpointing, tp),
        )
    }

    fn comm_bytes(&self, from: &TaskSet, to: &TaskSet, batch: usize) -> usize {
        // byte volumes are structural, not timed — never calibrated
        CostModel::comm_bytes(&self.profiler, from, to, batch)
    }

    fn transfer_time(&self, link: LinkSpec, bytes: usize) -> f64 {
        self.profiler.transfer_time(link, bytes) * self.link_factor(link)
    }

    fn factors(&self) -> CostFactors {
        CostFactors {
            transfer: self.cal.link_intra,
            allreduce_intra: self.cal.allreduce * self.cal.link_intra,
            allreduce_inter: self.cal.allreduce * self.cal.link_inter,
            optimizer: self.cal.optimizer,
        }
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
                model
                    .factors()
                    .allreduce_time(&cluster, 1 << 26, 4, spans)
                    .to_bits()
            );
        }
        assert_eq!(
            cluster.device.optimizer_step_time(1 << 26).to_bits(),
            model
                .factors()
                .optimizer_time(&cluster.device, 1 << 26)
                .to_bits()
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
                    .factors()
                    .allreduce_time(&cluster, 1 << 26, 8, spans)
                    .to_bits(),
                calibrated
                    .factors()
                    .allreduce_time(&cluster, 1 << 26, 8, spans)
                    .to_bits()
            );
        }
        assert_eq!(
            analytical
                .factors()
                .optimizer_time(&cluster.device, 1 << 26)
                .to_bits(),
            calibrated
                .factors()
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
            calibrated
                .factors()
                .allreduce_time(&cluster, 1 << 26, 4, true)
                > analytical
                    .factors()
                    .allreduce_time(&cluster, 1 << 26, 4, true)
                    * 3.0
        );
        assert!(
            calibrated
                .factors()
                .optimizer_time(&cluster.device, 1 << 26)
                > analytical
                    .factors()
                    .optimizer_time(&cluster.device, 1 << 26)
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
