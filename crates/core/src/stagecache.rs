//! Stage evaluation for Algorithm 1: the block-range table and the pure
//! stage-cost function every DP cell prices its candidate stages with.
//!
//! Algorithm 2 invokes Algorithm 1 once per `(S, MB, T)` candidate, and
//! every candidate queries the same block-range unions `[from, to)`.
//! [`RangeTable::build`] computes all of them once per search, up front,
//! with incremental prefix unions (`[f, t+1)` = `[f, t) ∪ block t`), so a
//! range query inside the DP is one array index. The same walk fills each
//! range's egress and seeds the cost model's set statistics for it, so no
//! range's members are scanned again: a row costs one pass over its
//! blocks' members.
//!
//! [`DpCtx::eval`] prices one candidate stage: memory first, from the
//! seeded statistics, and time only for a stage that fits. A stage over
//! the memory bound therefore costs O(1) in its size. The evaluation is a
//! pure function of `(from, to, repl)` and the context, so a result
//! cannot depend on which thread or candidate computed it; repeats within
//! a candidate group are answered by the DP arena's memo
//! ([`crate::dp::DpArena`]).

use crate::blocks::Block;
use crate::dp::DpParams;
use crate::placement::SlotTable;
use rannc_cost::CostModel;
use rannc_graph::{TaskGraph, TaskSet};
use rannc_hw::{ClusterSpec, LinkSpec};

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
    /// memoised terms so a uniform fleet reproduces the homogeneous
    /// objective bit for bit.
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

/// Union of a block range.
#[derive(Debug, PartialEq)]
pub struct RangeInfo {
    /// Union of the range's block task sets.
    pub set: TaskSet,
    /// FP32 bytes of one sample's values leaving the set.
    pub egress: usize,
}

/// Every block-range union of one block partition: slot `from·(nb+1)+to`
/// holds range `[from, to)`. Slots with `to ≤ from` hold an empty,
/// allocation-free placeholder and are never read.
pub struct RangeTable {
    nb: usize,
    ranges: Vec<RangeInfo>,
}

impl RangeTable {
    /// Build the table for `blocks`: one pass per `from` row. Row `f`
    /// walks `[f, t+1) = [f, t) ∪ block t`, so each block's members are
    /// read once per row: the whole table costs `O(nb · Σ|block|)`
    /// instead of a scan of every range. The walk carries each range's
    /// egress and hands the row to [`CostModel::seed_prefix_unions`],
    /// which fills the set statistics of every range of the row in the
    /// same one pass.
    ///
    /// Exact for any block order: blocks need not be topological or
    /// convex, only pairwise disjoint. Rows run on the calling thread:
    /// at k = 32 the whole table is a few milliseconds, and building it
    /// on worker threads raised the process's peak memory more than it
    /// saved time.
    pub fn build(g: &TaskGraph, cost: &dyn CostModel, blocks: &[Block]) -> Self {
        let nb = blocks.len();
        // per value: consumer slots a range must hold for the value to stay
        // inside it (never reached by a model output), and its FP32 bytes
        let mut facts: Vec<(u32, usize)> = g
            .values()
            .map(|(_, val)| (val.consumers.len() as u32, val.size_bytes()))
            .collect();
        for &v in g.outputs() {
            facts[v.index()].0 = u32::MAX;
        }
        // per value: in-range consumer slots, and whether its producer is
        // in range
        let mut consumed = vec![0u32; facts.len()];
        let mut produced = vec![false; facts.len()];
        let mut ranges = Vec::with_capacity(nb * (nb + 1));
        for from in 0..nb {
            consumed.fill(0);
            produced.fill(false);
            let parts: Vec<&TaskSet> = blocks[from..].iter().map(|b| &b.set).collect();
            let mut egress = 0usize;
            let mut sets: Vec<TaskSet> = Vec::with_capacity(parts.len());
            let mut egresses = Vec::with_capacity(parts.len());
            for (i, part) in parts.iter().enumerate() {
                for t in part.iter() {
                    let task = g.task(t);
                    for &v in &task.outputs {
                        let v = v.index();
                        produced[v] = true;
                        if consumed[v] < facts[v].0 {
                            egress += facts[v].1;
                        }
                    }
                    for &v in &task.inputs {
                        let v = v.index();
                        consumed[v] += 1;
                        if produced[v] && consumed[v] == facts[v].0 {
                            egress -= facts[v].1; // its last consumer joined
                        }
                    }
                }
                // one exact-size allocation per range, no running set to
                // grow and clone
                sets.push(match i {
                    0 => (*part).clone(),
                    _ => sets[i - 1].union(part),
                });
                egresses.push(egress);
            }
            cost.seed_prefix_unions(&parts, &sets);
            ranges.extend((0..=from).map(|_| RangeInfo {
                set: TaskSet::new(0),
                egress: 0,
            }));
            ranges.extend(
                sets.into_iter()
                    .zip(egresses)
                    .map(|(set, egress)| RangeInfo { set, egress }),
            );
        }
        RangeTable { nb, ranges }
    }

    /// Number of blocks the table covers.
    pub fn blocks(&self) -> usize {
        self.nb
    }

    /// The union and egress of block range `[from, to)`.
    pub fn get(&self, from: usize, to: usize) -> &RangeInfo {
        debug_assert!(from < to && to <= self.nb, "range [{from}, {to})");
        &self.ranges[from * (self.nb + 1) + to]
    }
}

/// The inputs of one `form_stage_dp` invocation: the search-constant
/// cost model, range table (which carries the graph's block partition)
/// and cluster, plus the candidate's placement table and parameters.
/// Fields are private because the link, checkpointing flag and
/// activation scale are derived from them at construction.
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
    /// Per-slot memory and speed of a heterogeneous tier; `None` on a
    /// homogeneous cluster.
    slots: Option<&'a SlotTable>,
    /// The DP parameters (`S`, `D`, `BS`, `R`, `MB`, `T`, memory bound).
    p: DpParams,
    /// Gradient checkpointing active (`S > 1`).
    ckpt: bool,
    /// Activation-precision scale relative to FP32.
    act_scale: f64,
}

impl<'a> DpCtx<'a> {
    /// Build the context of one DP invocation.
    pub fn new(
        cost: &'a dyn CostModel,
        ranges: &'a RangeTable,
        cluster: &'a ClusterSpec,
        slots: Option<&'a SlotTable>,
        p: &DpParams,
    ) -> Self {
        DpCtx {
            cost,
            ranges,
            link: cluster.planning_link(),
            cluster,
            slots,
            p: *p,
            ckpt: p.stages > 1,
            act_scale: cost.options().precision.activation_bytes() as f64 / 4.0,
        }
    }

    /// The DP parameters.
    pub fn params(&self) -> &DpParams {
        &self.p
    }

    /// The block-range table.
    pub fn ranges(&self) -> &'a RangeTable {
        self.ranges
    }

    /// The heterogeneous tier's placement table, if any.
    pub fn slots(&self) -> Option<&'a SlotTable> {
        self.slots
    }

    /// Price the stage of blocks `[from, to)` on `repl` data-parallel
    /// units. `None` when the micro-batch would be empty or the stage
    /// exceeds the memory bound.
    pub fn eval(&self, from: usize, to: usize, repl: usize) -> Option<StageCost> {
        let micro = self.p.batch_size / self.p.replica_factor / self.p.microbatches / repl;
        if micro == 0 {
            return None;
        }
        let range = self.ranges.get(from, to);
        // Memory first: an over-memory stage is rejected from its memoised
        // set statistics, without pricing its time.
        let mem = self
            .cost
            .stage_mem(&range.set, micro, self.p.microbatches, self.ckpt, self.p.tp);
        if mem > self.p.mem_limit {
            return None;
        }
        let prof = self.cost.stage_cost_tp(
            &range.set,
            micro,
            self.p.microbatches,
            self.ckpt,
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
    use rannc_hw::DeviceSpec;
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
        let ranges = RangeTable::build(&g, &profiler, &blocks);
        let ctx = |p: &DpParams| DpCtx::new(&profiler, &ranges, &cluster, None, p);
        let nb = blocks.len();
        let a = ctx(&params(1)).eval(0, nb, 1).unwrap();
        let b = ctx(&params(2)).eval(0, nb, 1).unwrap();
        // checkpointing (S > 1) adds recompute time: the stage count must
        // reach the evaluation through the context
        assert!(b.obj_b > a.obj_b);
    }

    /// Every `(from, to)` entry is the union of blocks `[from, to)` with
    /// that union's egress.
    #[test]
    fn fill_matches_union_and_egress_definitions() {
        let (g, blocks) = setup();
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let table = RangeTable::build(&g, &profiler, &blocks);
        let nb = blocks.len();
        assert!(nb > 2, "need several blocks, got {nb}");
        for from in 0..nb {
            for to in (from + 1)..=nb {
                let mut set = blocks[from].set.clone();
                for b in &blocks[from + 1..to] {
                    set.union_with(&b.set);
                }
                let expect = RangeInfo {
                    egress: traverse::egress_bytes(&g, &set),
                    set,
                };
                assert_eq!(table.get(from, to), &expect, "[{from}, {to})");
            }
        }
    }
}
