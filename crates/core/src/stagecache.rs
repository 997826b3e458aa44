//! Stage evaluation for Algorithm 1: the block-range table and the pure
//! stage-cost function every DP cell prices its candidate stages with.
//!
//! Algorithm 2 invokes Algorithm 1 once per `(S, MB, T)` candidate, and
//! every candidate queries the same block-range unions `[from, to)`.
//! [`RangeTable::build`] computes all of them once per search, up front,
//! with incremental prefix unions (`[f, t+1)` = `[f, t) ∪ block t`), so a
//! range query inside the DP is one array index. Each range is a
//! [`Prefix`]: a [`rannc_profile::ProfiledSet`] that owns its
//! statistics, with its egress beside it.
//!
//! Both rest on the boundary lemma: a value interior to block `b` (its
//! producer, if any, and every consumer held by `b` alone, and no model
//! output) adds the same statistics to every range holding `b` and no
//! egress, and a task `b` alone holds adds its output bytes the same
//! way. So the table splits the blocks once
//! ([`rannc_profile::Profiler::boundary_split`], one pass over the
//! graph's value rows and one over the blocks' members) into per-block
//! fixed statistics and the boundary rows, the value rows that cross
//! blocks; each row `f` adds the fixed parts and walks only the boundary
//! rows of blocks `f..nb`. The table costs `O(Σ|block| + nb · boundary
//! rows)` instead of a walk of every member per row, and every range is
//! bit-identical to a walk of its union.
//!
//! A range's time is composed, never walked: the table keeps one
//! search-wide row of exact per-block time sums per `(micro-batch, tp)`
//! point, each block's filled once on first use, and a range costs the
//! sum of its blocks' sums ([`RangeTable::time`]). The rows are plain
//! single-thread state: a search, and so its table, runs on one thread.
//!
//! [`DpCtx::eval`] prices one candidate stage: memory first, from the
//! range's statistics, and time only for a stage that fits. A stage over
//! the memory bound therefore costs O(1) in its size. The evaluation is a
//! pure function of `(from, to, repl)` and the context, so a result
//! cannot depend on which candidate computed it; repeats within a
//! candidate group are answered by the DP arena's memo
//! ([`crate::dp::DpArena`]).

use crate::blocks::Block;
use crate::dp::{micro_batch, DpParams};
use crate::placement::SlotTable;
use rannc_cost::CostModel;
use rannc_graph::TaskSet;
use rannc_hw::{ClusterSpec, LinkSpec};
use rannc_profile::{BoundarySplit, Prefix, Profiler, Residency, TimeSums};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// Evaluated cost of one candidate stage.
///
/// The DP objective uses the communication-inclusive times (the paper:
/// "the execution time required for the i-th stage includes both the
/// computation time and the communication time to send the outputs to the
/// following stage"); the reconstructed plan reports compute-only times so
/// the downstream schedule simulator, which models transfers explicitly,
/// does not double-count them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCost {
    /// Forward time including egress transfer (objective term).
    pub obj_f: f64,
    /// Backward time including ingress-gradient transfer (objective term).
    pub obj_b: f64,
    /// Compute-only forward time.
    pub comp_f: f64,
    /// Compute-only backward time.
    pub comp_b: f64,
    /// Profiled memory, bytes.
    pub mem: usize,
    /// Parameter elements in the stage.
    pub params: usize,
}

impl StageCost {
    /// Objective terms of the stage placed on a device group `scale`×
    /// slower than the template: the compute part stretches, the
    /// communication part does not. `scale == 1.0` short-circuits to the
    /// memoised terms so a uniform fleet prices the unplaced objective
    /// bit for bit.
    pub fn scaled_objectives(&self, scale: f64) -> (f64, f64) {
        if scale == 1.0 {
            (self.obj_f, self.obj_b)
        } else {
            (
                self.obj_f - self.comp_f + self.comp_f * scale,
                self.obj_b - self.comp_b + self.comp_b * scale,
            )
        }
    }
}

/// The exact time sums of every block at one `(micro-batch, tp)` point,
/// each slot filled on first use.
type SlotRow = Box<[Cell<Option<TimeSums>>]>;

/// Every block-range union of one block partition, row by row: row
/// `from` holds ranges `[from, from+1) … [from, nb)`. Also the search's
/// exact per-block time sums, one slot row per `(micro-batch, tp)` point,
/// each slot filled on first use.
pub struct RangeTable {
    nb: usize,
    split: BoundarySplit,
    ranges: Vec<Prefix>,
    rows: RefCell<BTreeMap<(usize, usize), SlotRow>>,
}

impl RangeTable {
    /// Build the table for `blocks`: split the blocks once at their
    /// boundary ([`rannc_profile::Profiler::boundary_split`]), then fill
    /// each row's ranges from the blocks' fixed statistics and a walk of
    /// their boundary rows ([`BoundarySplit::prefixes`]), which carries
    /// each range's statistics, egress and the tasks its blocks repeat.
    /// The split reads every member once; a row reads only the values
    /// that cross blocks, so the table costs `O(Σ|block| + nb · B)`
    /// for `B` boundary rows instead of a walk of every member per row.
    /// No time is priced.
    ///
    /// Exact for any block order: blocks need not be topological, convex
    /// or disjoint (the block phase clones constants into every block
    /// that reads them). Rows run on the calling thread: the whole table
    /// costs well under a millisecond at k = 32.
    pub fn build(cost: &dyn CostModel, blocks: &[Block]) -> Self {
        let nb = blocks.len();
        let split = cost
            .profiler()
            .boundary_split(blocks.iter().map(|b| b.set.clone()).collect());
        let mut ranges = Vec::with_capacity(nb * (nb + 1) / 2);
        for from in 0..nb {
            ranges.extend(split.prefixes(from));
        }
        RangeTable {
            nb,
            split,
            ranges,
            rows: RefCell::default(),
        }
    }

    /// Boundary rows of the blocks: the value rows a row walk reads.
    pub fn boundary_rows(&self) -> usize {
        self.split.boundary_rows()
    }

    /// Number of blocks the table covers.
    pub fn blocks(&self) -> usize {
        self.nb
    }

    /// The task set of block `i`.
    pub fn block(&self, i: usize) -> &TaskSet {
        &self.split.parts()[i]
    }

    /// The union, statistics and egress of block range `[from, to)`.
    pub fn get(&self, from: usize, to: usize) -> &Prefix {
        debug_assert!(from < to && to <= self.nb, "range [{from}, {to})");
        // rows before `from` hold nb, nb−1, …, nb−from+1 ranges
        let row = from * self.nb - from * from.saturating_sub(1) / 2;
        &self.ranges[row + to - from - 1]
    }

    /// Exact time sums of range `[from, to)` at `(batch, tp)`: the sum
    /// of its blocks' sums, each filled on first use in the point's slot
    /// row, minus the extra copies of tasks several of its blocks hold.
    /// Equal, bit for bit, to a walk of the range's union.
    pub fn time(
        &self,
        profiler: &Profiler<'_>,
        (batch, tp): (usize, usize),
        from: usize,
        to: usize,
    ) -> TimeSums {
        let mut rows = self.rows.borrow_mut();
        let row = rows
            .entry((batch, tp))
            .or_insert_with(|| (0..self.nb).map(|_| Cell::new(None)).collect());
        let blocks = &self.split.parts()[from..to];
        let sums = profiler.sum_parts(&row[from..to], blocks, batch, tp);
        let repeated = &self.get(from, to).repeated;
        if repeated.is_empty() {
            sums
        } else {
            sums - profiler.time_sums(repeated.iter().copied(), batch, tp)
        }
    }
}

/// The inputs of one `form_stage_dp` invocation: the search-constant
/// cost model, range table (which carries the graph's block partition)
/// and cluster, plus the candidate's placement table and parameters.
/// Fields are private because the link, residency and activation scale
/// are derived from them at construction.
pub struct DpCtx<'a> {
    /// The pricing oracle (profiler roofline or a calibrated model).
    cost: &'a dyn CostModel,
    /// Every block-range union of the blocks being staged.
    ranges: &'a RangeTable,
    /// Link used for inter-stage transfer terms: the cluster's planning
    /// link (stages of one replica stay inside a node, footnote 3).
    link: LinkSpec,
    /// Collective topology, consulted for tensor-parallel pricing.
    cluster: &'a ClusterSpec,
    /// Per-slot memory and speed of the candidate's tier. On a cluster
    /// with no overrides every group reads as the template device.
    slots: &'a SlotTable,
    /// The DP parameters (`S`, `D`, `BS`, `R`, `MB`, `T`, memory bound).
    p: DpParams,
    /// What every stage keeps resident: fill–drain at the candidate's
    /// `(S, MB)`.
    residency: Residency,
    /// Activation-precision scale relative to FP32.
    act_scale: f64,
}

impl<'a> DpCtx<'a> {
    /// Build the context of one DP invocation.
    pub fn new(
        cost: &'a dyn CostModel,
        ranges: &'a RangeTable,
        cluster: &'a ClusterSpec,
        slots: &'a SlotTable,
        p: &DpParams,
    ) -> Self {
        DpCtx {
            cost,
            ranges,
            link: cluster.planning_link(),
            cluster,
            slots,
            p: *p,
            residency: Residency::fill_drain(p.stages, p.microbatches),
            act_scale: cost.options().precision.activation_bytes() as f64 / 4.0,
        }
    }

    /// The DP parameters.
    pub fn params(&self) -> &DpParams {
        &self.p
    }

    /// What every stage of the candidate keeps resident.
    pub(crate) fn residency(&self) -> Residency {
        self.residency
    }

    /// The block-range table.
    pub fn ranges(&self) -> &'a RangeTable {
        self.ranges
    }

    /// The cluster the candidate is planned on.
    pub fn cluster(&self) -> &'a ClusterSpec {
        self.cluster
    }

    /// The tier's placement table.
    pub fn slots(&self) -> &'a SlotTable {
        self.slots
    }

    /// Price the stage of blocks `[from, to)` on `repl` data-parallel
    /// units. `None` when the micro-batch would be empty or the stage
    /// exceeds the memory bound.
    pub fn eval(&self, from: usize, to: usize, repl: usize) -> Option<StageCost> {
        let p = &self.p;
        let micro = micro_batch(p.batch_size, p.replica_factor, p.microbatches, repl);
        if micro == 0 {
            return None;
        }
        let range = self.ranges.get(from, to);
        // Memory first: an over-memory stage is rejected from its set
        // statistics, without pricing its time.
        let Residency {
            inflight,
            checkpointing,
        } = self.residency;
        let mem = self
            .cost
            .stage_mem(&range.set, micro, inflight, checkpointing, self.p.tp);
        if mem > self.p.mem_limit {
            return None;
        }
        let time = self
            .ranges
            .time(self.cost.profiler(), (micro, self.p.tp), from, to);
        let prof = self.cost.stage_cost_tp(
            &range.set,
            time,
            micro,
            inflight,
            checkpointing,
            self.p.tp,
            self.cluster,
        );
        debug_assert_eq!(prof.mem_bytes, mem, "stage_mem must be stage_cost's memory");
        // objective includes sending outputs onward (except the last stage)
        let comm = if to < self.ranges.nb && range.egress > 0 {
            let bytes = (range.egress as f64 * micro as f64 * self.act_scale) as usize;
            self.cost.transfer_time(self.link, bytes)
        } else {
            0.0
        };
        Some(StageCost {
            obj_f: prof.fwd_time + comm,
            obj_b: prof.bwd_time + comm,
            comp_f: prof.fwd_time,
            comp_b: prof.bwd_time,
            mem: prof.mem_bytes,
            params: prof.param_elems,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::atomic_partition;
    use crate::blocks::{block_partition, BlockLimits};
    use rannc_graph::traverse;
    use rannc_hw::{DeviceSpec, Precision};
    use rannc_models::{mlp_graph, MlpConfig};
    use rannc_profile::{Profiler, ProfilerOptions};

    fn setup() -> (rannc_graph::TaskGraph, Vec<Block>) {
        let g = mlp_graph(&MlpConfig::deep(64, 64, 10, 10));
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(&g);
        let blocks = block_partition(
            &g,
            &profiler,
            &atomic,
            BlockLimits {
                k: 6,
                mem_limit: 32 << 30,
                profile_batch: 4,
            },
        );
        (g, blocks)
    }

    fn params(stages: usize) -> DpParams {
        DpParams {
            stages,
            devices: 4,
            batch_size: 64,
            replica_factor: 1,
            microbatches: 4,
            mem_limit: 32 << 30,
            tp: 1,
        }
    }

    #[test]
    fn keys_separate_stage_counts_via_ckpt() {
        let (g, blocks) = setup();
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let cluster = ClusterSpec::v100_cluster(1);
        let ranges = RangeTable::build(&profiler, &blocks);
        let slots = SlotTable::build(&cluster, 4, 1, profiler.device(), Precision::FP32);
        let ctx = |p: &DpParams| DpCtx::new(&profiler, &ranges, &cluster, &slots, p);
        let nb = blocks.len();
        let a = ctx(&params(1)).eval(0, nb, 1).unwrap();
        let b = ctx(&params(2)).eval(0, nb, 1).unwrap();
        // checkpointing (S > 1) adds recompute time: the stage count must
        // reach the evaluation through the context
        assert!(b.obj_b > a.obj_b);
    }

    /// Every `(from, to)` entry is the union of blocks `[from, to)` with
    /// that union's egress, and building the table prices no time.
    #[test]
    fn fill_matches_union_and_egress_definitions() {
        let (g, blocks) = setup();
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let table = RangeTable::build(&profiler, &blocks);
        let nb = blocks.len();
        assert!(nb > 2, "need several blocks, got {nb}");
        for from in 0..nb {
            for to in (from + 1)..=nb {
                let mut set = blocks[from].set.clone();
                for b in &blocks[from + 1..to] {
                    set.union_with(&b.set);
                }
                let range = table.get(from, to);
                assert_eq!(range.set.tasks(), &set, "[{from}, {to})");
                assert_eq!(range.egress, traverse::egress_bytes(&g, &set));
            }
        }
        assert_eq!(profiler.cache_stats(), Default::default());
    }
}
