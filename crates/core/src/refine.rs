//! Stage-cut refinement: the last step of Algorithm 2, at atom
//! granularity.
//!
//! Algorithm 1 cuts stages only on block boundaries, so the slowest
//! stage can sit up to a block's weight above the balanced time (on
//! BERT 2048×256 at k = 32, the LM-head stage is 11% above it). Once the
//! tier scan has picked its winner, [`refined_stages`] re-cuts the
//! winner's stages at the granularity of single non-constant tasks
//! (atoms, §III-A). It keeps the winner's stage count, micro-batching,
//! tensor-parallel degree and pipeline replicas:
//!
//! 1. **Order.** The atoms are ordered block by block, each block's in
//!    topological order. The blocks are convex and topologically sorted,
//!    so this is a topological order of the atoms, and any contiguous run
//!    of it is convex.
//! 2. **Balance.** A linear partition over the atoms' exact time sums
//!    places the cuts. Stage `s` weighs its atoms at its own micro-batch,
//!    so a stage with more replicas takes more atoms, and stretches them
//!    by its device group's slow-down. Every atom is priced once per
//!    micro-batch into one exact prefix array, and each greedy cut is a
//!    binary search over it. Constants weigh nothing (two of BERT
//!    2048×256's 7,446 tasks, 0.03% of its time).
//! 3. **Clone constants** into every new stage that holds one of their
//!    readers, as [`crate::atomic_partition`] does.
//!
//! The estimate ignores memory, communication and the split of the
//! objective into a forward and a backward maximum. So the search prices
//! the new stages exactly, with one Algorithm 1 run at the winner's
//! parameters, and keeps them only if they score strictly lower
//! ([`crate::search::form_stage_with`]).

use crate::dp::DpSolution;
use crate::placement::SlotTable;
use crate::stagecache::RangeTable;
use rannc_cost::CostModel;
use rannc_graph::{TaskId, TaskSet};
use rannc_profile::Residency;

/// The smallest share of the winner's bottleneck a re-cut must shed to
/// be proposed: 2⁻¹², 0.024%.
const MIN_GAIN: f64 = 1.0 / 4096.0;

/// The winner's stages re-cut at atom granularity, in pipeline order, or
/// `None` when the step proposes nothing: a single stage, or a balance
/// that sheds less than 2⁻¹² (`MIN_GAIN`) of the winner's bottleneck.
///
/// `winner` is Algorithm 1's solution over the blocks of `ranges`, and
/// `slots` the placement table of its tier. The result depends on
/// nothing else (the atom time sums are exact), so it is the same on
/// every thread count and for any range table of the same blocks.
pub fn refined_stages(
    cost: &dyn CostModel,
    ranges: &RangeTable,
    slots: &SlotTable,
    winner: &DpSolution,
) -> Option<Vec<TaskSet>> {
    let stages = &winner.stages;
    let s_count = stages.len();
    if s_count < 2 {
        return None;
    }
    let g = cost.graph();
    let index = g.index();
    let non_constant = index.non_constant();
    let nb = ranges.blocks();

    // 1. The atoms block by block, each block's in topological order: one
    //    pass over the graph's order, each atom to its block's run.
    const NONE: u32 = u32::MAX;
    let mut block_of = vec![NONE; g.num_tasks()];
    let mut bounds = vec![0usize; nb + 1];
    for j in 0..nb {
        for t in ranges.block(j).iter() {
            if non_constant[t.index()] {
                block_of[t.index()] = j as u32;
                bounds[j + 1] += 1;
            }
        }
    }
    for j in 0..nb {
        bounds[j + 1] += bounds[j];
    }
    let atoms = bounds[nb];
    let mut order = vec![TaskId(0); atoms];
    let mut next = bounds.clone();
    for &t in index.order() {
        let j = block_of[t.index()];
        if j != NONE {
            order[next[j as usize]] = t;
            next[j as usize] += 1;
        }
    }

    // 2. Balance the cuts at each stage's time point and slow-down.
    let mut micros: Vec<usize> = stages.iter().map(|st| st.micro_batch).collect();
    micros.sort_unstable();
    micros.dedup();
    let mut slot = 0;
    let stage_point: Vec<(usize, f64)> = (stages.iter())
        .map(|st| {
            let width = st.devices * st.tensor_parallel;
            let scale = slots.group_scale(slot, slot + width);
            slot += width;
            let point = micros
                .binary_search(&st.micro_batch)
                .expect("a listed micro-batch");
            (point, scale)
        })
        .collect();
    // `prefix[k][a]`: the weight of atoms `[0, a)` at micro-batch
    // `micros[k]`, forward and backward, the forward twice under
    // checkpointing (it replays the forward pass). Summed exactly, then
    // held in whole 2⁻⁴⁰ s (far below one atom's weight), which fit an
    // i64 up to 2²³ s and convert in hardware.
    let (profiler, tp) = (cost.profiler(), stages[0].tensor_parallel);
    let forwards =
        1 + i128::from(Residency::fill_drain(s_count, winner.microbatches).checkpointing);
    let prefix: Vec<Vec<f64>> = (micros.iter())
        .map(|&micro| {
            let mut cum = 0i128;
            let weights = order.iter().map(|&t| {
                let (fwd, bwd) = profiler.time_sums([t], micro, tp).counts();
                cum += fwd * forwards + bwd;
                (cum >> 40) as i64 as f64
            });
            std::iter::once(0.0).chain(weights).collect()
        })
        .collect();
    let current: Vec<usize> = (stages.iter())
        .map(|st| bounds[st.block_range.0])
        .chain([atoms])
        .collect();
    let cuts = linear_partition(&prefix, &stage_point, &current)?;
    let stage_of = |atom: usize| cuts.partition_point(|&c| c <= atom) - 1;

    // 3. The new stages: whole blocks, and the atoms of cut blocks with
    //    the constants they read.
    let pos = index.positions();
    let mut sets = vec![TaskSet::new(g.num_tasks()); s_count];
    let mut block_constants: Vec<TaskId> = Vec::new();
    for j in 0..nb {
        let (block, a0, a1) = (ranges.block(j), bounds[j], bounds[j + 1]);
        // a block of constants alone goes with the stage of the next atom
        // (the last stage, after every atom)
        let first = stage_of(a0.min(atoms - 1));
        if a1 == a0 || cuts[first + 1] >= a1 {
            sets[first].union_with(block);
            continue;
        }
        for a in a0..a1 {
            sets[stage_of(a)].insert(order[a]);
        }
        // A constant joins every new stage holding one of its readers in
        // the block. Its readers come after it in topological order and
        // the block holds them all, so a walk in reverse order places a
        // reader constant before the constants it reads.
        block_constants.clear();
        block_constants.extend(block.iter().filter(|t| !non_constant[t.index()]));
        block_constants.sort_unstable_by_key(|t| std::cmp::Reverse(pos[t.index()]));
        let pieces = first..=stage_of(a1 - 1);
        for &t in &block_constants {
            let mut placed = false;
            for &y in index.successors(t).iter().filter(|&&y| block.contains(y)) {
                for s in pieces.clone() {
                    if sets[s].contains(y) {
                        sets[s].insert(t);
                        placed = true;
                    }
                }
            }
            // a block holds a constant only for a reader it also holds
            debug_assert!(placed, "constant {t} has no reader in its block");
        }
    }
    Some(sets)
}

/// The balanced cuts `0 = c₀ < c₁ < … < c_S = n` of the atoms, or `None`
/// when no cut lowers the winner's bottleneck (its cuts are `current`) by
/// [`MIN_GAIN`] of it. Stage `s` weighs atoms `[from, to)` as
/// `prefix[k][to] − prefix[k][from]` stretched by `scale`, where
/// `(k, scale) = stage_point[s]`. A target is feasible when the greedy
/// cut, each stage taking as many atoms as fit and leaving one for each
/// later stage, covers every atom.
///
/// The search steps down from the winner's bottleneck, doubling the step
/// until a target is infeasible or reaches the floor `W / Σ 1/scaleₛ`
/// (`W` the atoms' weight at the smallest micro-batch, the lightest point
/// for every atom), below which no cut goes, then bisects to 2⁻²⁴ of the
/// bottleneck. The result is the greedy cut at the smallest feasible
/// target found.
fn linear_partition(
    prefix: &[Vec<f64>],
    stage_point: &[(usize, f64)],
    current: &[usize],
) -> Option<Vec<usize>> {
    let s_count = current.len() - 1;
    let n = current[s_count];
    let load = |s: usize, from: usize, to: usize| {
        let (k, scale) = stage_point[s];
        (prefix[k][to] - prefix[k][from]) * scale
    };
    let greedy = |target: f64| -> Option<Vec<usize>> {
        let mut cuts = Vec::with_capacity(s_count + 1);
        cuts.push(0);
        for s in 0..s_count - 1 {
            let (from, last) = (cuts[s], n - (s_count - 1 - s));
            // `load(s, from, end)` rises with `end`, so the ends that fit
            // are a run right after `from`; an empty run fails the target
            let (k, scale) = stage_point[s];
            let p = &prefix[k];
            let fit = p[from + 1..=last].partition_point(|&c| (c - p[from]) * scale <= target);
            if fit == 0 {
                return None;
            }
            cuts.push(from + fit);
        }
        let from = cuts[s_count - 1];
        (load(s_count - 1, from, n) <= target).then(|| {
            cuts.push(n);
            cuts
        })
    };
    let bottleneck = (0..s_count)
        .map(|s| load(s, current[s], current[s + 1]))
        .fold(0.0, f64::max);
    let speed: f64 = stage_point.iter().map(|&(_, scale)| 1.0 / scale).sum();
    let floor = prefix[0][n] / speed;
    let mut step = bottleneck * MIN_GAIN;
    let mut hi = bottleneck - step;
    let mut best = greedy(hi)?;
    let mut lo = loop {
        step *= 2.0;
        let target = bottleneck - step;
        if target <= floor {
            break floor;
        }
        match greedy(target) {
            Some(cuts) => (hi, best) = (target, cuts),
            None => break target,
        }
    };
    let tolerance = bottleneck / (1u64 << 24) as f64;
    while hi - lo > tolerance {
        let mid = 0.5 * (lo + hi);
        match greedy(mid) {
            Some(cuts) => (hi, best) = (mid, cuts),
            None => lo = mid,
        }
    }
    (best != current).then_some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::atomic_partition;
    use crate::blocks::{block_partition, Block, BlockLimits};
    use crate::dp::DpStage;
    use rannc_graph::{DType, GraphBuilder, OpKind};
    use rannc_hw::{ClusterSpec, DeviceRank, DeviceSpec, Precision};
    use rannc_models::{mlp_graph, MlpConfig};
    use rannc_profile::{Profiler, ProfilerOptions};
    use rannc_verify::{verify_plan, PlanView, StageView};

    /// Re-cut a lopsided 3-stage winner of an MLP (a chain: every
    /// contiguous run of atoms is a stage) on `cluster`, its stages
    /// `(devices, micro-batch)` as given, and check the result against
    /// brute force: the stages cover every atom once, in order, and the
    /// heaviest, each stage weighing its atoms at its own micro-batch and
    /// stretched by its own device group's slow-down, is the smallest any
    /// cut of the atoms into 3 stages reaches, to the bisection's
    /// tolerance.
    fn assert_recut_is_min_max_balanced(cluster: &ClusterSpec, specs: [(usize, usize); 3]) {
        let g = mlp_graph(&MlpConfig::deep(256, 256, 16, 10));
        let cost = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let limits = BlockLimits {
            k: 6,
            mem_limit: 32 << 30,
            profile_batch: 1,
        };
        let blocks = block_partition(&g, &cost, &atomic_partition(&g), limits);
        assert!(blocks.len() >= 4, "{} blocks", blocks.len());
        let ranges = RangeTable::build(&cost, &blocks);
        // stages [0, 1), [1, 2) and [2, nb): the last one carries the rest
        let nb = blocks.len();
        let cuts = [0, 1, 2, nb];
        let winner = DpSolution {
            stages: (0..3)
                .map(|s| DpStage {
                    set: ranges.get(cuts[s], cuts[s + 1]).set.tasks().clone(),
                    block_range: (cuts[s], cuts[s + 1]),
                    devices: specs[s].0,
                    tensor_parallel: 1,
                    micro_batch: specs[s].1,
                    fwd_time: 0.0,
                    bwd_time: 0.0,
                    mem_bytes: 0,
                    param_elems: 0,
                })
                .collect(),
            value: 0.0,
            microbatches: 4,
            replica_factor: 1,
        };
        let width: usize = specs.iter().map(|&(devices, _)| devices).sum();
        let slots = SlotTable::build(cluster, width, 1, cost.device(), Precision::FP32);
        let sets = refined_stages(&cost, &ranges, &slots, &winner).expect("a lopsided cut moves");

        // each stage's slow-down, and its weight of an atom as the balance
        // weighs it (4 micro-batches on 3 stages checkpoint)
        let mut first_slot = 0;
        let scales: Vec<f64> = (specs.iter())
            .map(|&(devices, _)| {
                first_slot += devices;
                slots.group_scale(first_slot - devices, first_slot)
            })
            .collect();
        let weight = |s: usize, t: TaskId| {
            let (fwd, bwd) = cost.time_sums([t], specs[s].1, 1).counts();
            (2 * fwd + bwd) as f64 * scales[s]
        };
        let index = g.index();
        let atoms: Vec<TaskId> = (index.order().iter())
            .copied()
            .filter(|t| index.non_constant()[t.index()])
            .collect();
        let mut next = 0;
        let mut heaviest = 0.0f64;
        for (s, set) in sets.iter().enumerate() {
            let count = atoms[next..]
                .iter()
                .take_while(|&&t| set.contains(t))
                .count();
            assert!(count > 0, "a stage holds no atom");
            let load = atoms[next..next + count]
                .iter()
                .map(|&t| weight(s, t))
                .sum();
            heaviest = heaviest.max(load);
            next += count;
        }
        assert_eq!(
            next,
            atoms.len(),
            "the stages do not cover the atoms in order"
        );
        let prefix = |s: usize| -> Vec<f64> {
            std::iter::once(0.0)
                .chain(atoms.iter().scan(0.0, |sum, &t| {
                    *sum += weight(s, t);
                    Some(*sum)
                }))
                .collect()
        };
        let (p0, p1, p2) = (prefix(0), prefix(1), prefix(2));
        let n = atoms.len();
        let best = (1..n - 1)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .map(|(a, b)| (p0[a]).max(p1[b] - p1[a]).max(p2[n] - p2[b]))
            .fold(f64::INFINITY, f64::min);
        assert!(
            heaviest <= best * (1.0 + 1e-6),
            "heaviest stage {heaviest} above the best cut's {best}"
        );
    }

    /// Uniform stages: one device each, one micro-batch, no slow-down.
    #[test]
    fn chain_recut_is_min_max_balanced() {
        assert_recut_is_min_max_balanced(&ClusterSpec::v100_cluster(1), [(1, 4), (1, 4), (1, 4)]);
    }

    /// Mixed stages: the middle one on two devices at half the
    /// micro-batch, the last one on a device running at half speed.
    #[test]
    fn mixed_recut_is_min_max_balanced() {
        let slow = DeviceRank { node: 0, local: 3 };
        let cluster = ClusterSpec::v100_cluster(1).with_degraded_device(slow, 0.5);
        assert_recut_is_min_max_balanced(&cluster, [(1, 4), (2, 2), (1, 4)]);
    }

    /// A re-cut through a block that holds three constants: a weight
    /// transpose read on both sides of the new cut (by a side head on the
    /// first, and on the second through a reshape that is itself a
    /// constant), and a second transpose read on the second side only.
    /// Each constant lands in exactly the new stages that hold one of its
    /// readers, and the refined plan verifies clean.
    #[test]
    fn recut_constants_land_with_their_readers() {
        let mut b = GraphBuilder::new("tied");
        let x = b.input("x", [8, 256], DType::F32);
        let (w, v) = (b.param("w", [256, 256]), b.param("v", [256, 256]));
        let wt = b.transpose(w, [256, 256]);
        let wr = b.reshape(wt, [256, 256]);
        let vt = b.transpose(v, [256, 256]);
        let u = b.param("u0", [256, 256]);
        let mut h = b.matmul(x, u);
        let side = b.matmul(h, wt);
        b.output(side);
        for i in 1..10 {
            let weight = if i < 6 {
                b.param(&format!("u{i}"), [256, 256])
            } else {
                wr
            };
            h = b.unary(OpKind::Relu, h);
            h = b.matmul(h, weight);
        }
        let y = b.matmul(h, vt);
        b.output(y);
        let g = b.finish();
        let cost = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());

        // two blocks, one stage each: the first matmul, then the rest
        let atomic = atomic_partition(&g);
        let block = |sets: &[TaskSet]| {
            let mut set = TaskSet::new(g.num_tasks());
            sets.iter().for_each(|s| set.union_with(s));
            Block {
                set,
                time: 0.0,
                mem: 0,
            }
        };
        let blocks = [block(&atomic.sets[..1]), block(&atomic.sets[1..])];
        let ranges = RangeTable::build(&cost, &blocks);
        let winner = DpSolution {
            stages: (0..2)
                .map(|s| DpStage {
                    set: blocks[s].set.clone(),
                    block_range: (s, s + 1),
                    devices: 1,
                    tensor_parallel: 1,
                    micro_batch: 4,
                    fwd_time: 0.0,
                    bwd_time: 0.0,
                    mem_bytes: 0,
                    param_elems: 0,
                })
                .collect(),
            value: 0.0,
            microbatches: 2,
            replica_factor: 1,
        };
        let cluster = ClusterSpec::v100_cluster(1);
        let slots = SlotTable::build(&cluster, 2, 1, cost.device(), Precision::FP32);
        let sets = refined_stages(&cost, &ranges, &slots, &winner).expect("the heavy block is cut");

        let task = |value| g.value(value).producer.expect("a task's output");
        let (wt, wr, vt, side) = (task(wt), task(wr), task(vt), task(side));
        let index = g.index();
        for c in [wt, wr, vt] {
            for (s, set) in sets.iter().enumerate() {
                let read = index.successors(c).iter().any(|&y| set.contains(y));
                assert_eq!(set.contains(c), read, "constant {c} in stage {s}");
            }
        }
        let holders = |c| sets.iter().filter(|set| set.contains(c)).count();
        // the side head and the reshape's readers sit on both sides of
        // the cut, inside the second block
        assert!(blocks[1].set.contains(side) && sets[0].contains(side));
        assert_eq!(holders(wt), 2, "the shared transpose is cloned");
        assert_eq!((holders(wr), holders(vt)), (1, 1));

        let plan = PlanView {
            model: "tied",
            stages: (sets.iter())
                .map(|set| StageView {
                    set,
                    replicas: 1,
                    tensor_parallel: 1,
                    micro_batch: 4,
                    fwd_time: 1e-3,
                    bwd_time: 2e-3,
                    mem_bytes: 1 << 30,
                    param_elems: 0,
                })
                .collect(),
            microbatches: 2,
            replica_factor: 1,
            batch_size: 8,
        };
        let report = verify_plan(&g, &plan, &cluster);
        assert!(!report.has_errors(), "{}", report.render());
    }
}
