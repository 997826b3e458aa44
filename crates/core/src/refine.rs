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
//!    by its device group's slow-down. Constants weigh nothing (two of
//!    BERT 2048×256's 7,446 tasks, 0.03% of its time). Whole blocks are
//!    weighed from the search's own block time sums ([`RangeTable::time`]);
//!    single atoms are priced only inside the blocks where a cut is
//!    looked for, from the nearer priced end, so a re-cut that moves
//!    nothing prices a few atoms per cut.
//! 3. **Clone constants** into every new stage that reads them, as
//!    [`crate::atomic_partition`] does.
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
use rannc_profile::{Profiler, Residency, TimeSums};

/// The smallest share of the winner's bottleneck a re-cut must shed to
/// be proposed: 2⁻¹², 0.024%.
const MIN_GAIN: f64 = 1.0 / 4096.0;

/// The most pieces one block may be cut into: a cloned constant's
/// readers among the pieces are a bit mask. More pieces than this leave
/// the winner as it is.
const MAX_PIECES: usize = 64;

/// The winner's stages re-cut at atom granularity, in pipeline order, or
/// `None` when the step proposes nothing: a single stage, a balance that
/// sheds less than 2⁻¹² (`MIN_GAIN`) of the winner's bottleneck, or a block
/// cut into more than 64 pieces.
///
/// `winner` is Algorithm 1's solution over the blocks of `ranges`, and
/// `slots` the placement table of its tier. The result depends on
/// nothing else (the block time sums are exact), so it is the same on
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
    //    `atom_of[t]` is atom `t`'s place in that order.
    const NONE: u32 = u32::MAX;
    let mut atom_of = vec![NONE; g.num_tasks()];
    let mut bounds = vec![0usize; nb + 1];
    let mut constants: Vec<(usize, TaskId)> = Vec::new();
    for j in 0..nb {
        for t in ranges.block(j).iter() {
            if non_constant[t.index()] {
                atom_of[t.index()] = j as u32;
                bounds[j + 1] += 1;
            } else {
                constants.push((j, t));
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
        let j = atom_of[t.index()];
        if j != NONE {
            let place = &mut next[j as usize];
            atom_of[t.index()] = *place as u32;
            order[*place] = t;
            *place += 1;
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
    let mut weights = Weights {
        profiler: cost.profiler(),
        tp: stages[0].tensor_parallel,
        recompute: Residency::fill_drain(s_count, winner.microbatches).checkpointing,
        order: &order,
        bounds: &bounds,
        stage_point,
        points: Vec::with_capacity(micros.len()),
    };
    let mut slot_hits = 0;
    for micro in micros {
        let point = weights.point(ranges, &constants, micro, &mut slot_hits);
        weights.points.push(point);
    }
    cost.profiler().count_hits(slot_hits);
    let current: Vec<usize> = (stages.iter())
        .map(|st| bounds[st.block_range.0])
        .chain([atoms])
        .collect();
    let cuts = weights.linear_partition(&current)?;
    let stage_of = |atom: usize| cuts.partition_point(|&c| c <= atom) - 1;

    // 3. The new stages: whole blocks, and the atoms of cut blocks with
    //    the constants they read.
    let mut sets = vec![TaskSet::new(g.num_tasks()); s_count];
    let mut block_constants: Vec<TaskId> = Vec::new();
    let mut readers: Vec<u64> = Vec::new();
    for j in 0..nb {
        let (block, a0, a1) = (ranges.block(j), bounds[j], bounds[j + 1]);
        // a block of constants alone goes with the stage of the next atom
        // (the last stage, after every atom)
        let first = stage_of(a0.min(atoms - 1));
        if a1 == a0 || cuts[first + 1] >= a1 {
            sets[first].union_with(block);
            continue;
        }
        if stage_of(a1 - 1) - first >= MAX_PIECES {
            return None;
        }
        for a in a0..a1 {
            sets[stage_of(a)].insert(order[a]);
        }
        // A constant goes to every piece with a reader; its readers come
        // after it in topological order, and the block holds them all.
        block_constants.clear();
        block_constants.extend(constants.iter().filter(|&&(k, _)| k == j).map(|&(_, t)| t));
        let pos = index.positions();
        block_constants.sort_unstable_by_key(|t| std::cmp::Reverse(pos[t.index()]));
        readers.clear();
        for (i, &t) in block_constants.iter().enumerate() {
            let mut mask = 0u64;
            for &y in index.successors(t).iter().filter(|&&y| block.contains(y)) {
                mask |= if non_constant[y.index()] {
                    1 << (stage_of(atom_of[y.index()] as usize) - first)
                } else {
                    let k = block_constants[..i].iter().position(|&c| c == y);
                    readers[k.expect("a reader constant comes later")]
                };
            }
            // a block holds a constant only for a reader it also holds
            debug_assert_ne!(mask, 0, "constant {t} has no reader in its block");
            readers.push(mask);
            let mut bits = mask;
            while bits != 0 {
                sets[first + bits.trailing_zeros() as usize].insert(t);
                bits &= bits - 1;
            }
        }
    }
    Some(sets)
}

/// The exact weight of every atom prefix at one micro-batch, known at
/// every block boundary from the start, and inside a block from its
/// start and from its end as far as a cut search has priced it.
struct Point {
    micro: usize,
    /// `cum[a]`: the weight of atoms `[0, a)`, where known.
    cum: Vec<i128>,
    /// Per block: how many of its atoms are priced from its start, and
    /// from its end.
    known: Vec<(usize, usize)>,
}

/// The atoms' cumulative weights at every stage's time point, priced
/// lazily, and the linear partition over them.
struct Weights<'a> {
    profiler: &'a Profiler<'a>,
    tp: usize,
    /// Checkpointing replays the forward pass: it weighs twice.
    recompute: bool,
    /// The atoms, block by block, each block's in topological order.
    order: &'a [TaskId],
    /// `bounds[j]`: the atoms before block `j`.
    bounds: &'a [usize],
    /// Per stage: its point in `points` and its group's slow-down.
    stage_point: Vec<(usize, f64)>,
    points: Vec<Point>,
}

impl Weights<'_> {
    /// The weight of exact time sums: forward and backward, the forward
    /// twice under checkpointing.
    fn weight(&self, sums: TimeSums) -> i128 {
        let (fwd, bwd) = sums.counts();
        fwd * (1 + i128::from(self.recompute)) + bwd
    }

    /// The weight of atom `a` at `micro`.
    fn atom(&self, a: usize, micro: usize) -> i128 {
        self.weight(self.profiler.time_sums([self.order[a]], micro, self.tp))
    }

    /// The point at `micro` with every block boundary known: each block's
    /// time sums from the range table, less its constants'. Adds the time
    /// slot hits to `slot_hits`.
    fn point(
        &self,
        ranges: &RangeTable,
        constants: &[(usize, TaskId)],
        micro: usize,
        slot_hits: &mut u64,
    ) -> Point {
        let nb = self.bounds.len() - 1;
        let row = ranges.row(micro, self.tp);
        let mut block_weight: Vec<i128> = (0..nb)
            .map(|j| {
                let sums = ranges.time_counted(self.profiler, &row, (j, j + 1), slot_hits);
                self.weight(sums)
            })
            .collect();
        for &(j, t) in constants {
            block_weight[j] -= self.weight(self.profiler.time_sums([t], micro, self.tp));
        }
        let mut cum = vec![0i128; self.order.len() + 1];
        for (bounds, weight) in self.bounds.windows(2).zip(block_weight) {
            cum[bounds[1]] = cum[bounds[0]] + weight;
        }
        Point {
            micro,
            cum,
            known: vec![(0, 0); nb],
        }
    }

    /// The weight of atoms `[0, a)` at point `k` in whole 2⁻⁴⁰ s (far
    /// below one atom's weight), pricing the atoms between `a` and the
    /// nearer known prefix of its block first. Sums are exact, so a
    /// prefix priced from either end is the same number.
    fn cum(&mut self, k: usize, a: usize) -> f64 {
        let j = self.bounds.partition_point(|&b| b <= a) - 1;
        let a0 = self.bounds[j];
        if a != a0 {
            let a1 = self.bounds[j + 1];
            let micro = self.points[k].micro;
            let (head, tail) = self.points[k].known[j];
            let (head, tail) = (a0 + head, a1 - tail);
            if head < a && a < tail {
                if a - head <= tail - a {
                    for i in head..a {
                        let w = self.atom(i, micro);
                        let p = &mut self.points[k];
                        p.cum[i + 1] = p.cum[i] + w;
                    }
                    self.points[k].known[j].0 = a - a0;
                } else {
                    for i in (a..tail).rev() {
                        let w = self.atom(i, micro);
                        let p = &mut self.points[k];
                        p.cum[i] = p.cum[i + 1] - w;
                    }
                    self.points[k].known[j].1 = a1 - a;
                }
            }
        }
        // 2⁻⁴⁰ s steps fit an i64 up to 2²³ s, and convert in hardware
        (self.points[k].cum[a] >> 40) as i64 as f64
    }

    /// What stage `s` over atoms `[from, to)` weighs, stretched by its
    /// group's slow-down.
    fn load(&mut self, s: usize, from: usize, to: usize) -> f64 {
        let (k, scale) = self.stage_point[s];
        (self.cum(k, to) - self.cum(k, from)) * scale
    }

    /// The largest `b ≤ last` with `load(s, from, b) ≤ target`, or `None`
    /// when not even one atom fits. Block boundaries are binary searched
    /// first; inside the block the cut falls in, the search gallops from
    /// the end the target lies nearer to, so it prices atoms near the cut
    /// only, then bisects.
    fn largest_fit(&mut self, s: usize, from: usize, last: usize, target: f64) -> Option<usize> {
        let bounds = self.bounds;
        let (mut lo_j, mut hi_j) = (
            bounds.partition_point(|&b| b <= from),
            bounds.partition_point(|&b| b <= last),
        );
        let mut lo = from;
        while lo_j < hi_j {
            let mid = (lo_j + hi_j) / 2;
            if self.load(s, from, bounds[mid]) <= target {
                lo = bounds[mid];
                lo_j = mid + 1;
            } else {
                hi_j = mid;
            }
        }
        // `lo` fits; the answer is in [lo, hi], inside one block
        let mut hi = bounds.get(lo_j).map_or(last, |&b| (b - 1).min(last));
        if lo < hi {
            // Narrow [lo, hi] to the atoms not priced yet, then gallop into
            // them from the end the target lies nearer to: the atoms priced
            // lie between the cut and that end.
            let (k, scale) = self.stage_point[s];
            let j = bounds.partition_point(|&b| b <= lo) - 1;
            let (head, tail) = self.points[k].known[j];
            for edge in [bounds[j] + head, bounds[j + 1] - tail] {
                if lo < edge && edge <= hi {
                    if self.load(s, from, edge) <= target {
                        lo = edge;
                    } else {
                        hi = edge - 1;
                    }
                }
            }
            let wanted = self.cum(k, from) + target / scale;
            let from_start = wanted - self.cum(k, lo) <= self.cum(k, hi + 1) - wanted;
            let mut step = 1;
            while lo < hi {
                if from_start {
                    // up: lo + 1, + 2, + 4, … until one does not fit
                    let probe = (lo + step).min(hi);
                    if self.load(s, from, probe) > target {
                        hi = probe - 1;
                        break;
                    }
                    lo = probe;
                } else {
                    // down: hi, − 1, − 2, … until one fits
                    let probe = (hi + 1).saturating_sub(step).max(lo + 1);
                    if self.load(s, from, probe) <= target {
                        lo = probe;
                        break;
                    }
                    hi = probe - 1;
                }
                step *= 2;
            }
        }
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if self.load(s, from, mid) <= target {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        (lo > from).then_some(lo)
    }

    /// The balanced cuts `0 = c₀ < c₁ < … < c_S = n` of the atoms, or
    /// `None` when no cut lowers the winner's bottleneck (its cuts are
    /// `current`) by [`MIN_GAIN`] of it. A target is feasible when the
    /// greedy cut, each stage taking as many atoms as fit and leaving one
    /// for each later stage, covers every atom.
    ///
    /// The search steps down from the winner's bottleneck, doubling the
    /// step until a target is infeasible or reaches the floor
    /// `W / Σ 1/scaleₛ` (`W` the atoms' weight at the smallest
    /// micro-batch, the lightest point for every atom), below which no
    /// cut goes, then bisects to 2⁻²⁴ of the bottleneck. The result is
    /// the greedy cut at the smallest feasible target found.
    fn linear_partition(&mut self, current: &[usize]) -> Option<Vec<usize>> {
        let s_count = current.len() - 1;
        let n = current[s_count];
        let greedy = |this: &mut Self, target: f64| -> Option<Vec<usize>> {
            let mut cuts = Vec::with_capacity(s_count + 1);
            cuts.push(0);
            for s in 0..s_count - 1 {
                let from = cuts[s];
                cuts.push(this.largest_fit(s, from, n - (s_count - 1 - s), target)?);
            }
            let from = cuts[s_count - 1];
            (this.load(s_count - 1, from, n) <= target).then(|| {
                cuts.push(n);
                cuts
            })
        };
        let bottleneck = (0..s_count)
            .map(|s| self.load(s, current[s], current[s + 1]))
            .fold(0.0, f64::max);
        let speed: f64 = self.stage_point.iter().map(|&(_, scale)| 1.0 / scale).sum();
        let floor = self.cum(0, n) / speed;
        let mut step = bottleneck * MIN_GAIN;
        let mut hi = bottleneck - step;
        let mut best = greedy(self, hi)?;
        let mut lo = loop {
            step *= 2.0;
            let target = bottleneck - step;
            if target <= floor {
                break floor;
            }
            match greedy(self, target) {
                Some(cuts) => (hi, best) = (target, cuts),
                None => break target,
            }
        };
        let tolerance = bottleneck / (1u64 << 24) as f64;
        while hi - lo > tolerance {
            let mid = 0.5 * (lo + hi);
            match greedy(self, mid) {
                Some(cuts) => (hi, best) = (mid, cuts),
                None => lo = mid,
            }
        }
        (best != current).then_some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::atomic_partition;
    use crate::blocks::{block_partition, BlockLimits};
    use crate::dp::DpStage;
    use rannc_hw::{ClusterSpec, DeviceRank, DeviceSpec, Precision};
    use rannc_models::{mlp_graph, MlpConfig};
    use rannc_profile::ProfilerOptions;

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
}
