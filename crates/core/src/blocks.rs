//! Block-level partitioning driver (paper §III-B).
//!
//! Groups the atomic subcomponents into `k` balanced, coarse-grained,
//! convex *blocks* via the three-step multilevel scheme:
//! [`crate::coarsen`] → [`crate::uncoarsen`] → [`crate::compact`].
//!
//! Two criteria drive the phase (§III-B): balance of the blocks'
//! computation times, and the size of values communicated between blocks
//! (which bounds future stage-to-stage traffic).

use crate::atomic::AtomicPartition;
use rannc_cost::CostModel;
use rannc_graph::convex::ConvexChecker;
use rannc_graph::taskset::Membership;
use rannc_graph::{TaskGraph, TaskId, TaskSet};
use rannc_profile::TimeSums;

/// Limits and knobs of the block-level phase.
#[derive(Debug, Clone, Copy)]
pub struct BlockLimits {
    /// Desired number of blocks `k` (the paper uses 32 in all
    /// experiments, §IV-A).
    pub k: usize,
    /// Device memory bound every block must respect, bytes.
    pub mem_limit: usize,
    /// Micro-batch size used when profiling candidate groups for balance.
    pub profile_batch: usize,
}

/// A coarse-grained block: a convex set of tasks with profiled cost.
#[derive(Debug, Clone)]
pub struct Block {
    /// The tasks of the block.
    pub set: TaskSet,
    /// Profiled forward+backward time at the phase's profiling batch, s.
    pub time: f64,
    /// Profiled memory footprint, bytes.
    pub mem: usize,
}

/// Shared state threaded through the three block-phase steps (public so
/// the step functions in `coarsen`/`uncoarsen`/`compact` can take it).
pub struct BlockCtx<'g, 'p> {
    pub g: &'g TaskGraph,
    pub cost: &'p dyn CostModel,
    pub checker: ConvexChecker<'g>,
    pub limits: BlockLimits,
}

impl<'g, 'p> BlockCtx<'g, 'p> {
    pub fn new(g: &'g TaskGraph, cost: &'p dyn CostModel, limits: BlockLimits) -> Self {
        BlockCtx {
            g,
            cost,
            checker: ConvexChecker::new(g),
            limits,
        }
    }

    /// Profiled fwd+bwd time and memory footprint of a candidate group,
    /// from one profile lookup.
    pub fn profile(&self, set: &TaskSet) -> (f64, usize) {
        self.price(set, self.sums(set))
    }

    /// Exact time sums of a candidate group at the phase's profiling
    /// batch: one walk of its members.
    pub fn sums(&self, set: &TaskSet) -> TimeSums {
        self.cost
            .profiler()
            .time_sums(set.iter(), self.limits.profile_batch, 1)
    }

    /// Exact time sums of `v ∪ w` from those of `v` and `w`: their sum,
    /// minus the sums of the tasks both hold (cloned constants), which
    /// are the only members walked. Equal to [`BlockCtx::sums`] of the
    /// union, bit for bit.
    pub fn union_sums(
        &self,
        (v, v_sums): (&TaskSet, TimeSums),
        (w, w_sums): (&TaskSet, TimeSums),
    ) -> TimeSums {
        let sums = v_sums + w_sums;
        if !v.intersects(w) {
            return sums;
        }
        let both = v.iter().filter(|&t| w.contains(t));
        sums - self
            .cost
            .profiler()
            .time_sums(both, self.limits.profile_batch, 1)
    }

    /// [`BlockCtx::profile`] of a group whose exact time sums are `sums`:
    /// a statistics walk and no time walk.
    pub fn price(&self, set: &TaskSet, sums: TimeSums) -> (f64, usize) {
        let profiled = self.cost.profiler().profiled(set);
        let r = self
            .cost
            .stage_price(&profiled, sums, self.limits.profile_batch, 1, true, 1);
        (r.fwd_time + r.bwd_time, r.mem_bytes)
    }

    /// Whether a candidate group fits the device memory bound. Prices
    /// memory only: exactly [`BlockCtx::profile`]'s memory, without its
    /// time.
    pub fn fits(&self, set: &TaskSet) -> bool {
        let set = self.cost.profiler().profiled(set);
        self.cost
            .stage_mem(&set, self.limits.profile_batch, 1, true, 1)
            <= self.limits.mem_limit
    }

    /// Group-level adjacency lists for the current `groups`, and their
    /// boundary.
    ///
    /// Two groups are adjacent when a value produced in one is consumed in
    /// the other. Constant-task clones shared by two groups may mark them
    /// adjacent; that is harmless (a merge of such groups is still legal).
    ///
    /// Each row lists its neighbours in first-occurrence order of the
    /// [`group_edges`] walk: coarsening and uncoarsening break exact ties
    /// (identical layers) by this order.
    ///
    /// The boundary holds both ends of every task edge `t → s` that joins
    /// two different groups (`a ∋ t`, `b ∋ s`, `a ≠ b`), a clone's edges
    /// included; uncoarsening moves only pieces that touch it. Built in
    /// the same walk. O(tasks + edges + groups).
    pub fn adjacency(&self, groups: &[TaskSet]) -> (Vec<Vec<u32>>, TaskSet) {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); groups.len()];
        let mut boundary = TaskSet::new(self.g.num_tasks());
        group_edges(self.g, groups.iter(), |t, s, a, b| {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
            boundary.insert(t);
            boundary.insert(s);
        });
        dedup_rows(&mut adj);
        (adj, boundary)
    }
}

/// Walk every group-level edge of a family of task sets: for each task
/// edge `t → s`, every pair of sets `a ∋ t`, `b ∋ s` with `a ≠ b` is handed
/// to `edge(t, s, a, b)`.
///
/// The order is fixed: tasks ascending, each task's distinct successors
/// (from the graph index) ascending, then `a` and `b` ascending. Sets may
/// share tasks (clones).
fn group_edges<'s>(
    g: &TaskGraph,
    sets: impl Iterator<Item = &'s TaskSet> + Clone,
    mut edge: impl FnMut(TaskId, TaskId, u32, u32),
) {
    let held = Membership::new(g.num_tasks(), sets.enumerate().map(|(i, s)| (i as u32, s)));
    let index = g.index();
    for t in g.task_ids() {
        for &s in index.successors(t) {
            for &a in held.of(t) {
                for &b in held.of(s) {
                    if a != b {
                        edge(t, s, a, b);
                    }
                }
            }
        }
    }
}

/// Drop repeated entries from every row, keeping each entry's first
/// occurrence in place. Entries index rows. O(rows + entries).
fn dedup_rows(rows: &mut [Vec<u32>]) {
    let mut seen_in = vec![u32::MAX; rows.len()];
    for (r, row) in rows.iter_mut().enumerate() {
        row.retain(|&e| {
            let first = seen_in[e as usize] != r as u32;
            seen_in[e as usize] = r as u32;
            first
        });
    }
}

/// Run the full block-level phase: coarsen, uncoarsen, compact.
///
/// Returns `k` (or, if compaction cannot reach `k` without violating
/// memory/convexity, slightly more) topologically ordered blocks.
pub fn block_partition(
    g: &TaskGraph,
    cost: &dyn CostModel,
    atomic: &AtomicPartition,
    limits: BlockLimits,
) -> Vec<Block> {
    let mut ctx = BlockCtx::new(g, cost, limits);

    let coarse = {
        let _s =
            rannc_obs::trace::span("coarsen", "planner").arg_i("atoms", atomic.sets.len() as i64);
        crate::coarsen::coarsen(&mut ctx, &atomic.sets)
    };
    let mut groups = coarse.groups;
    {
        let span =
            rannc_obs::trace::span("uncoarsen", "planner").arg_i("groups", groups.len() as i64);
        let walk = crate::uncoarsen::uncoarsen(&mut ctx, &mut groups, &coarse.merges);
        let _s = span
            .arg_i("moves", walk.moves as i64)
            .arg_i("pieces", walk.pieces as i64);
    }
    let groups = {
        let _s = rannc_obs::trace::span("compact", "planner").arg_i("groups", groups.len() as i64);
        crate::compact::compact(&mut ctx, groups)
    };

    let mut blocks: Vec<Block> = groups
        .into_iter()
        .map(|set| {
            let (time, mem) = ctx.profile(&set);
            Block { set, time, mem }
        })
        .collect();
    sort_topologically(g, &mut blocks);
    blocks
}

/// Topologically sort the blocks by Kahn's algorithm over the block DAG.
///
/// The block DAG is acyclic because blocks are convex (a cycle A→B→A would
/// be a path leaving A and re-entering it). Constant-task clones shared by
/// two blocks would create spurious edges, so an edge is only recorded
/// when the consumer's block does not itself contain the producing task.
/// Ties are broken by minimum task topo position for determinism.
fn sort_topologically(g: &TaskGraph, blocks: &mut [Block]) {
    let nb = blocks.len();

    // block-level edges, each recorded once
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); nb];
    group_edges(g, blocks.iter().map(|b| &b.set), |t, _, a, b| {
        if !blocks[b as usize].set.contains(t) {
            succs[a as usize].push(b);
        }
    });
    dedup_rows(&mut succs);
    let mut indeg = vec![0u32; nb];
    for &b in succs.iter().flatten() {
        indeg[b as usize] += 1;
    }
    // Kahn with a min-position tie-break for a stable, sensible order
    let pos = g.index().positions();
    let min_pos: Vec<u32> = blocks
        .iter()
        .map(|b| {
            b.set
                .iter()
                .map(|t| pos[t.index()])
                .min()
                .unwrap_or(u32::MAX)
        })
        .collect();
    let mut ready: Vec<usize> = (0..nb).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(nb);
    while !ready.is_empty() {
        // pick the ready block with smallest min task position
        let (pos_in_ready, &bi) = ready
            .iter()
            .enumerate()
            .min_by_key(|(_, &b)| min_pos[b])
            .unwrap();
        ready.swap_remove(pos_in_ready);
        order.push(bi);
        for &s in &succs[bi] {
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                ready.push(s as usize);
            }
        }
    }
    assert_eq!(order.len(), nb, "block DAG has a cycle (non-convex block?)");
    // apply the permutation
    let mut rank = vec![0usize; nb];
    for (r, &bi) in order.iter().enumerate() {
        rank[bi] = r;
    }
    let mut i = 0usize;
    while i < nb {
        let target = rank[i];
        if target == i {
            i += 1;
        } else {
            blocks.swap(i, target);
            rank.swap(i, target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::atomic_partition;
    use rannc_hw::DeviceSpec;
    use rannc_models::{bert_graph, mlp_graph, BertConfig, MlpConfig};
    use rannc_profile::{Profiler, ProfilerOptions};

    fn run(g: &TaskGraph, k: usize) -> Vec<Block> {
        let profiler = Profiler::new(g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(g);
        block_partition(
            g,
            &profiler,
            &atomic,
            BlockLimits {
                k,
                mem_limit: 32 * (1 << 30),
                profile_batch: 4,
            },
        )
    }

    #[test]
    fn block_phase_does_no_cache_work() {
        // every candidate group is priced from time sums the phase
        // carries itself: no slot is read, so nothing is counted
        let g = bert_graph(&BertConfig::tiny());
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let blocks = block_partition(
            &g,
            &profiler,
            &atomic_partition(&g),
            BlockLimits {
                k: 4,
                mem_limit: 32 << 30,
                profile_batch: 4,
            },
        );
        assert!(blocks.len() > 1);
        let stats = profiler.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries()), (0, 0, 0));
    }

    #[test]
    fn uncoarsen_span_carries_moves_and_pieces() {
        // the span reports what uncoarsening itself returns, and both
        // counts repeat exactly from run to run
        let _guard = rannc_obs::trace::test_guard();
        let g = bert_graph(&BertConfig::tiny());
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(&g);
        let limits = BlockLimits {
            k: 4,
            mem_limit: 32 << 30,
            profile_batch: 4,
        };
        let mut ctx = BlockCtx::new(&g, &profiler, limits);
        let coarse = crate::coarsen::coarsen(&mut ctx, &atomic.sets);
        let mut groups = coarse.groups;
        let walk = crate::uncoarsen::uncoarsen(&mut ctx, &mut groups, &coarse.merges);
        assert!(walk.moves > 0 && walk.pieces < 2 * coarse.merges.len());

        let tid = rannc_obs::trace::current_tid();
        let arg = |args: &[(&str, rannc_obs::trace::ArgVal)], key| {
            args.iter().find_map(|(k, v)| match v {
                rannc_obs::trace::ArgVal::Int(i) if *k == key => Some(*i as usize),
                _ => None,
            })
        };
        for _ in 0..2 {
            rannc_obs::set_enabled(true);
            rannc_obs::trace::reset();
            block_partition(&g, &profiler, &atomic, limits);
            rannc_obs::set_enabled(false);
            // other tests may trace concurrently: keep this thread's span
            let span = rannc_obs::trace::drain_events()
                .into_iter()
                .find(|e| e.tid == tid && e.name == "uncoarsen")
                .expect("uncoarsen span");
            assert_eq!(arg(&span.args, "moves"), Some(walk.moves));
            assert_eq!(arg(&span.args, "pieces"), Some(walk.pieces));
        }
        rannc_obs::trace::reset();
    }

    #[test]
    fn union_sums_equal_the_walked_sums_of_the_union() {
        // overlapping and disjoint operands: a union's composed time sums,
        // and so its price, equal a walk of the union bit for bit
        let g = bert_graph(&BertConfig::tiny());
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let ctx = BlockCtx::new(
            &g,
            &profiler,
            BlockLimits {
                k: 4,
                mem_limit: 32 << 30,
                profile_batch: 3,
            },
        );
        let n = g.num_tasks() as u32;
        let range = |lo: u32, hi: u32| TaskSet::from_ids(n as usize, (lo..hi).map(TaskId));
        for (v, w) in [
            (range(0, n / 2), range(n / 4, 3 * n / 4)),
            (range(0, n / 3), range(n / 3, n)),
            (range(0, n), range(n / 5, n / 4)),
        ] {
            let union = v.union(&w);
            let sums = ctx.union_sums((&v, ctx.sums(&v)), (&w, ctx.sums(&w)));
            assert_eq!(sums, ctx.sums(&union));
            assert_eq!(ctx.price(&union, sums), ctx.profile(&union));
        }
    }

    /// Group adjacency as first built: membership lists and a
    /// `Vec::contains` dedupe per row.
    fn adjacency_by_contains(g: &TaskGraph, groups: &[TaskSet]) -> Vec<Vec<u32>> {
        let mut membership: Vec<Vec<u32>> = vec![Vec::new(); g.num_tasks()];
        for (gi, set) in groups.iter().enumerate() {
            for t in set.iter() {
                membership[t.index()].push(gi as u32);
            }
        }
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); groups.len()];
        for t in g.task_ids() {
            for s in g.task_successors(t) {
                for &a in &membership[t.index()] {
                    for &b in &membership[s.index()] {
                        if a != b {
                            if !adj[a as usize].contains(&b) {
                                adj[a as usize].push(b);
                            }
                            if !adj[b as usize].contains(&a) {
                                adj[b as usize].push(a);
                            }
                        }
                    }
                }
            }
        }
        adj
    }

    #[test]
    fn adjacency_rows_keep_first_occurrence_order() {
        // coarsening and uncoarsening break exact ties by row order, so
        // the rows must match the original construction entry for entry
        let g = bert_graph(&BertConfig::tiny());
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(&g);
        let ctx = BlockCtx::new(
            &g,
            &profiler,
            BlockLimits {
                k: 8,
                mem_limit: 32 << 30,
                profile_batch: 2,
            },
        );
        let mut reversed = atomic.sets.clone();
        reversed.reverse();
        let mut unsorted_rows = 0;
        for groups in [&atomic.sets, &reversed] {
            let (adj, _) = ctx.adjacency(groups);
            assert_eq!(adj, adjacency_by_contains(&g, groups));
            unsorted_rows += adj
                .iter()
                .filter(|row| row.windows(2).any(|w| w[0] > w[1]))
                .count();
        }
        // rows are not simply sorted: the pin covers the order
        assert!(unsorted_rows > 0);
    }

    #[test]
    fn mlp_reaches_k_blocks() {
        let g = mlp_graph(&MlpConfig::deep(64, 64, 16, 10));
        let blocks = run(&g, 8);
        assert_eq!(blocks.len(), 8);
    }

    #[test]
    fn blocks_cover_all_tasks_and_are_convex() {
        let g = bert_graph(&BertConfig::tiny());
        let blocks = run(&g, 8);
        let mut covered = TaskSet::new(g.num_tasks());
        let mut ck = ConvexChecker::new(&g);
        for b in &blocks {
            assert!(ck.is_convex(&b.set), "non-convex block");
            covered.union_with(&b.set);
        }
        assert_eq!(covered.len(), g.num_tasks());
    }

    #[test]
    fn blocks_are_reasonably_balanced() {
        // The phase's goal: "no particular block becomes a strong
        // bottleneck". For a uniform MLP, max/mean block time should be
        // small.
        let g = mlp_graph(&MlpConfig::deep(256, 256, 32, 10));
        let blocks = run(&g, 8);
        let times: Vec<f64> = blocks.iter().map(|b| b.time).collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(max / mean < 2.5, "max/mean = {}", max / mean);
    }

    #[test]
    fn topological_order_of_blocks() {
        let g = bert_graph(&BertConfig::tiny());
        let blocks = run(&g, 6);
        // every cross-block edge must go forward in the block order
        let mut owner = vec![usize::MAX; g.num_tasks()];
        for (i, b) in blocks.iter().enumerate() {
            for t in b.set.iter() {
                if owner[t.index()] == usize::MAX {
                    owner[t.index()] = i;
                }
            }
        }
        for t in g.task_ids() {
            for s in g.task_successors(t) {
                let (a, b) = (owner[t.index()], owner[s.index()]);
                if a != usize::MAX && b != usize::MAX {
                    assert!(a <= b, "edge {t}->{s} goes backward across blocks");
                }
            }
        }
    }

    #[test]
    fn fewer_blocks_than_k_when_graph_is_small() {
        let g = mlp_graph(&MlpConfig::deep(8, 8, 2, 2));
        // only 9 tasks; asking for 32 blocks yields at most the number of
        // atomic components
        let blocks = run(&g, 32);
        assert!(blocks.len() <= 9);
    }
}
