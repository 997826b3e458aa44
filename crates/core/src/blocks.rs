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
use crate::PartitionConfig;
use rannc_cost::CostModel;
use rannc_graph::convex::ConvexChecker;
use rannc_graph::taskset::Membership;
use rannc_graph::{TaskGraph, TaskId, TaskSet};
use rannc_hw::ClusterSpec;
use rannc_profile::{ProfiledSet, Residency, StatsBound, TimeSums};
use std::cell::OnceCell;

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

impl BlockLimits {
    /// A request's limits: `config`'s `k` and profiling batch, and the
    /// largest device's memory (per-group bounds are the stage DP's).
    pub fn for_request(config: &PartitionConfig, cluster: &ClusterSpec) -> Self {
        BlockLimits {
            k: config.k,
            mem_limit: cluster.max_memory_bytes(),
            profile_batch: config.profile_batch,
        }
    }
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
        self.price_profiled(&self.cost.profiler().profiled(set), sums)
    }

    /// [`BlockCtx::price`] of a group whose statistics are walked.
    pub fn price_profiled(&self, profiled: &ProfiledSet<'_>, sums: TimeSums) -> (f64, usize) {
        let probe = Residency::probe();
        let r = self.cost.stage_price(
            profiled,
            sums,
            self.limits.profile_batch,
            probe.inflight,
            probe.checkpointing,
            1,
        );
        (r.fwd_time + r.bwd_time, r.mem_bytes)
    }

    /// [`BlockCtx::profile`]'s time of `v ∪ w`, whose exact time sums
    /// are `sums`, bit for bit, without building the union or walking its
    /// statistics. A cost model's stage times are its profiler's
    /// ([`CostModel::stage_price`]).
    pub fn union_time(&self, (v, w): (&TaskSet, &TaskSet), sums: TimeSums) -> f64 {
        let (fwd, bwd) = self.cost.profiler().union_times(
            (v, w),
            sums,
            self.limits.profile_batch,
            Residency::probe().checkpointing,
            1,
        );
        fwd + bwd
    }

    /// The exact statistics of a group, as a bound: one walk of its
    /// members.
    pub fn stats_bound(&self, set: &TaskSet) -> StatsBound {
        self.cost.profiler().profiled(set).stats_bound()
    }

    /// Whether every group whose statistics `bound` covers fits the
    /// device memory bound: [`BlockCtx::profile`]'s memory of the bound,
    /// which is at least each such group's.
    pub fn bound_fits(&self, bound: &StatsBound) -> bool {
        let probe = Residency::probe();
        let mem = self.cost.bound_mem(
            bound,
            self.limits.profile_batch,
            probe.inflight,
            probe.checkpointing,
            1,
        );
        mem <= self.limits.mem_limit
    }

    /// Whether a candidate group fits the device memory bound. Prices
    /// memory only: exactly [`BlockCtx::profile`]'s memory, without its
    /// time.
    pub fn fits(&self, set: &TaskSet) -> bool {
        self.bound_fits(&self.stats_bound(set))
    }
}

/// A task edge `t → s` as raw ids; [`NO_EDGE`] sorts after every real one.
type Edge = (u32, u32);
const NO_EDGE: Edge = (u32::MAX, u32::MAX);

/// One entry of a [`GroupGraph`] row: a neighbouring group and the
/// smallest task edge each way between it and the row's group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Link {
    /// The neighbouring group.
    to: u32,
    /// Smallest task edge from the row's group into `to`, or [`NO_EDGE`].
    out: Edge,
    /// Smallest task edge from `to` into the row's group, or [`NO_EDGE`].
    inn: Edge,
}

impl Link {
    /// The link's place in row `r`: the first step `(t, s, a, b)` of the
    /// full walk that joins `r` and `to`, packed to compare as the tuple.
    /// Row `to` gives the mirrored link the same key.
    fn key(&self, r: u32) -> u128 {
        let step = |(t, s): Edge, a: u32, b: u32| {
            (t as u128) << 96 | (s as u128) << 64 | (a as u128) << 32 | b as u128
        };
        step(self.out, r, self.to).min(step(self.inn, self.to, r))
    }

    /// The same link in row `to`, pointing back at `r`.
    fn mirror(&self, r: u32) -> Link {
        Link {
            to: r,
            out: self.inn,
            inn: self.out,
        }
    }
}

/// Whether a task edge from a task held by the groups `from` to one held
/// by the groups `to` joins two different groups. A task's labels are
/// distinct, so two of them on either side always make such a pair.
fn joins(from: &[u32], to: &[u32]) -> bool {
    match (from, to) {
        ([], _) | (_, []) => false,
        ([a], [b]) => a != b,
        _ => true,
    }
}

#[cfg(test)]
thread_local! {
    /// Full group-edge walks made by [`GroupGraph::build`] on this thread.
    static FULL_WALKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Group-level adjacency of a family of groups and its boundary, kept
/// current while the groups merge (coarsening) or trade pieces
/// (uncoarsening) instead of being rebuilt from every task edge.
///
/// Two groups are adjacent when a value produced in one is consumed in
/// the other. Constant-task clones shared by two groups may mark them
/// adjacent; that is harmless (a merge of such groups is still legal).
///
/// Each row lists its neighbours in first-occurrence order of the full
/// cross-group edge walk (tasks ascending, each task's successors
/// ascending, then the two groups ascending): coarsening and uncoarsening
/// break exact ties (identical layers) by this order. Every entry keeps
/// the smallest task edge each way between the two groups, so the walk
/// step that first joins them, and with it the row order, can be
/// recomputed after a merge or a move without the walk.
///
/// The boundary holds both ends of every task edge `t → s` that joins two
/// different groups (`a ∋ t`, `b ∋ s`, `a ≠ b`), a clone's edges included;
/// uncoarsening moves only pieces that touch it. A contraction leaves it
/// to be derived again on its first read, which coarsening never makes.
pub struct GroupGraph<'g> {
    g: &'g TaskGraph,
    rows: Vec<Vec<Link>>,
    held: Membership,
    boundary: OnceCell<TaskSet>,
    /// Scratch for [`settle`]: `u32::MAX` for every group between calls.
    slot: Vec<u32>,
    rows_rewalked: usize,
}

impl<'g> GroupGraph<'g> {
    /// The graph of `groups`, from one walk of each group's task edges
    /// (every task edge is seen from both ends). O(tasks + edges +
    /// groups).
    pub fn build(g: &'g TaskGraph, groups: &[TaskSet]) -> Self {
        #[cfg(test)]
        FULL_WALKS.with(|w| w.set(w.get() + 1));
        let labelled = groups.iter().enumerate().map(|(i, s)| (i as u32, s));
        let held = Membership::new(g.num_tasks(), labelled);
        let mut graph = GroupGraph {
            g,
            rows: vec![Vec::new(); groups.len()],
            held,
            boundary: OnceCell::new(),
            slot: vec![u32::MAX; groups.len()],
            rows_rewalked: 0,
        };
        let mut boundary = TaskSet::new(g.num_tasks());
        let mut raw = Vec::new();
        for (r, group) in groups.iter().enumerate() {
            graph.walk_row(group, r as u32, &mut raw);
            // every cross-group edge is an out link of a row
            for &(t, s) in raw.iter().map(|l| &l.out).filter(|&&e| e != NO_EDGE) {
                boundary.insert(TaskId(t));
                boundary.insert(TaskId(s));
            }
            settle(&mut raw, r as u32, &mut graph.slot);
            graph.rows[r] = raw.clone();
        }
        graph.boundary = OnceCell::from(boundary);
        graph
    }

    /// The neighbours of group `r`, in walk order.
    pub fn neighbours(&self, r: usize) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.rows[r].iter().map(|l| l.to)
    }

    /// Both ends of every task edge joining two different groups.
    pub fn boundary(&self) -> &TaskSet {
        self.boundary.get_or_init(|| {
            let n = self.g.num_tasks();
            TaskSet::from_ids(n, self.g.task_ids().filter(|&t| self.on_cut(t)))
        })
    }

    /// Rows walked again after moves, over the graph's life.
    pub fn rows_rewalked(&self) -> usize {
        self.rows_rewalked
    }

    /// Merge groups: group `i` becomes group `into[i]` of `groups`.
    ///
    /// A new row is the union of its operands' rows, renamed, without
    /// the links between operands; each direction keeps the smaller of
    /// its operands' edges, which is the smallest edge of the union, and
    /// the row is re-sorted under the new names. The task holders are
    /// renamed too, and the boundary is dropped until it is read.
    pub fn contract(&mut self, into: &[u32], groups: usize) {
        let mut rows: Vec<Vec<Link>> = vec![Vec::new(); groups];
        for (mut row, &x) in std::mem::take(&mut self.rows).into_iter().zip(into) {
            row.retain_mut(|l| {
                l.to = into[l.to as usize];
                l.to != x
            });
            let merged = &mut rows[x as usize];
            if merged.is_empty() {
                *merged = row;
            } else {
                merged.append(&mut row);
            }
        }
        self.slot.truncate(groups);
        for (r, row) in rows.iter_mut().enumerate() {
            settle(row, r as u32, &mut self.slot);
        }
        self.rows = rows;
        self.held.contract(into);
        self.boundary.take();
    }

    /// `piece` moved from group `a` to group `b`, and `groups` shows the
    /// move. Rows `a` and `b` are walked again from their tasks, their
    /// neighbours' mirror entries patched, and a derived boundary
    /// rechecked on the piece's tasks and their graph neighbours, the
    /// only tasks whose edges can change sides.
    pub fn apply_move(&mut self, groups: &[TaskSet], piece: &TaskSet, a: usize, b: usize) {
        for t in piece.iter() {
            self.held.relabel(t, a as u32, b as u32);
        }
        self.rewalk(&groups[a], a as u32);
        self.rewalk(&groups[b], b as u32);
        let Some(mut boundary) = self.boundary.take() else {
            return; // not derived yet: its first read sees the move
        };
        let index = self.g.index();
        let mut touched: Vec<TaskId> = Vec::new();
        for t in piece.iter() {
            touched.push(t);
            touched.extend_from_slice(index.successors(t));
            touched.extend_from_slice(index.predecessors(t));
        }
        touched.sort_unstable();
        touched.dedup();
        for t in touched {
            if self.on_cut(t) {
                boundary.insert(t);
            } else {
                boundary.remove(t);
            }
        }
        self.boundary = OnceCell::from(boundary);
    }

    /// The links of group `r` (tasks `group`) into `row`, unsettled: one
    /// per task edge between the group and a task another group holds,
    /// from the graph index's successor and predecessor tables.
    fn walk_row(&mut self, group: &TaskSet, r: u32, row: &mut Vec<Link>) {
        let index = self.g.index();
        row.clear();
        for t in group.iter() {
            for &s in index.successors(t) {
                for &n in self.held.of(s) {
                    if n != r {
                        row.push(Link {
                            to: n,
                            out: (t.0, s.0),
                            inn: NO_EDGE,
                        });
                    }
                }
            }
            for &q in index.predecessors(t) {
                for &n in self.held.of(q) {
                    if n != r {
                        row.push(Link {
                            to: n,
                            out: NO_EDGE,
                            inn: (q.0, t.0),
                        });
                    }
                }
            }
        }
    }

    /// Walk row `r` (group `group`) again and patch its neighbours'
    /// entries for it.
    fn rewalk(&mut self, group: &TaskSet, r: u32) {
        self.rows_rewalked += 1;
        let mut row = Vec::new();
        self.walk_row(group, r, &mut row);
        settle(&mut row, r, &mut self.slot);
        let was = std::mem::replace(&mut self.rows[r as usize], row);
        for l in was {
            if !self.rows[r as usize].iter().any(|m| m.to == l.to) {
                self.rows[l.to as usize].retain(|m| m.to != r);
            }
        }
        for i in 0..self.rows[r as usize].len() {
            let l = self.rows[r as usize][i];
            let back = &mut self.rows[l.to as usize];
            match back.iter_mut().find(|m| m.to == r) {
                Some(m) => *m = l.mirror(r),
                None => back.push(l.mirror(r)),
            }
            back.sort_unstable_by_key(|m| m.key(l.to));
        }
    }

    /// Whether some task edge into or out of `t` joins two different
    /// groups.
    fn on_cut(&self, t: TaskId) -> bool {
        let index = self.g.index();
        let here = self.held.of(t);
        index
            .successors(t)
            .iter()
            .any(|&s| joins(here, self.held.of(s)))
            || index
                .predecessors(t)
                .iter()
                .any(|&q| joins(self.held.of(q), here))
    }
}

/// Merge the links of row `r` that share a neighbour, each direction
/// keeping its smallest edge, and sort the row by [`Link::key`]. `slot`
/// covers every group and is `u32::MAX` throughout on entry and exit.
fn settle(row: &mut Vec<Link>, r: u32, slot: &mut [u32]) {
    let mut kept = 0;
    for i in 0..row.len() {
        let l = row[i];
        match slot[l.to as usize] {
            u32::MAX => {
                slot[l.to as usize] = kept as u32;
                row[kept] = l;
                kept += 1;
            }
            j => {
                let m = &mut row[j as usize];
                m.out = m.out.min(l.out);
                m.inn = m.inn.min(l.inn);
            }
        }
    }
    row.truncate(kept);
    for l in row.iter() {
        slot[l.to as usize] = u32::MAX;
    }
    row.sort_unstable_by_key(|l| l.key(r));
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
        let span =
            rannc_obs::trace::span("coarsen", "planner").arg_i("atoms", atomic.sets.len() as i64);
        let coarse = crate::coarsen::coarsen(&mut ctx, &atomic.sets);
        let _s = span
            .arg_i("levels", coarse.levels as i64)
            .arg_i("candidates", coarse.candidates as i64)
            .arg_i("unions", coarse.unions as i64)
            .arg_i("walked", coarse.walked as i64);
        coarse
    };
    let mut groups = coarse.groups;
    {
        let span =
            rannc_obs::trace::span("uncoarsen", "planner").arg_i("groups", groups.len() as i64);
        let walk = crate::uncoarsen::uncoarsen(&mut ctx, &mut groups, &coarse.merges);
        let _s = span
            .arg_i("moves", walk.moves as i64)
            .arg_i("pieces", walk.pieces as i64)
            .arg_i("rows_rewalked", walk.rows_rewalked as i64);
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
        // the coarsen and uncoarsen spans report what the steps themselves
        // return, and every count repeats exactly from run to run
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
        assert_eq!(walk.rows_rewalked, 2 * walk.moves);
        assert!(coarse.levels > 0 && coarse.candidates >= coarse.merges.len());
        // at 32 GiB no bound binds: one union per merge, nothing walked
        assert_eq!((coarse.unions, coarse.walked), (coarse.merges.len(), 0));

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
            // other tests may trace concurrently: keep this thread's spans
            let events = rannc_obs::trace::drain_events();
            let span = |name| {
                events
                    .iter()
                    .find(|e| e.tid == tid && e.name == name)
                    .unwrap_or_else(|| panic!("{name} span"))
            };
            let coarsen = span("coarsen");
            assert_eq!(arg(&coarsen.args, "levels"), Some(coarse.levels));
            assert_eq!(arg(&coarsen.args, "candidates"), Some(coarse.candidates));
            assert_eq!(arg(&coarsen.args, "unions"), Some(coarse.unions));
            assert_eq!(arg(&coarsen.args, "walked"), Some(coarse.walked));
            let uncoarsen = span("uncoarsen");
            assert_eq!(arg(&uncoarsen.args, "moves"), Some(walk.moves));
            assert_eq!(arg(&uncoarsen.args, "pieces"), Some(walk.pieces));
            assert_eq!(
                arg(&uncoarsen.args, "rows_rewalked"),
                Some(walk.rows_rewalked)
            );
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

    #[test]
    fn each_step_walks_every_task_edge_once() {
        // coarsening builds its group graph from the atoms and contracts
        // it per level; uncoarsening builds one and patches it per move
        let walks = || FULL_WALKS.with(|w| w.replace(0));
        for (g, k) in [
            (bert_graph(&BertConfig::tiny()), 4),
            (mlp_graph(&MlpConfig::deep(64, 64, 16, 10)), 8),
        ] {
            let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
            let atomic = atomic_partition(&g);
            let limits = BlockLimits {
                k,
                mem_limit: 32 << 30,
                profile_batch: 2,
            };
            let mut ctx = BlockCtx::new(&g, &profiler, limits);
            walks();
            let coarse = crate::coarsen::coarsen(&mut ctx, &atomic.sets);
            assert!(coarse.levels > 1, "{}: levels", g.name);
            assert_eq!(walks(), 1, "{}: coarsening walks", g.name);
            let mut groups = coarse.groups;
            let walk = crate::uncoarsen::uncoarsen(&mut ctx, &mut groups, &coarse.merges);
            assert_eq!(walks(), 1, "{}: uncoarsening walks", g.name);
            assert_eq!(walk.rows_rewalked, 2 * walk.moves, "{}", g.name);
        }
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
