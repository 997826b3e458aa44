//! Reference block phase the production one is differential-tested
//! against. Not part of the public API: `prop_blocks_identical.rs`
//! includes this one file by path.
//!
//! It is the straightforward formulation of §III-B:
//!
//! * [`adjacency`] dedupes each row with `Vec::contains` (quadratic in the
//!   row length) over freshly allocated membership and successor lists,
//!   and [`boundary`] tests every task edge's holders; the production
//!   `GroupGraph`, built once per step and then contracted or patched,
//!   must equal both after every change;
//! * [`coarsen`] builds every merge candidate's union, checks it for
//!   convexity with a walk from its whole boundary and profiles it
//!   twice (memory, then time);
//! * [`uncoarsen`] checks every candidate move for legality first — both
//!   groups convex, both within device memory — then prices it with four
//!   whole-group `cut_bytes` scans, and finds the pair's group by testing
//!   `v ∪ w` against every group;
//! * [`sort_topologically`] builds the block DAG with the same quadratic
//!   dedupe.
//!
//! Compaction has a single formulation and is called directly.

use rannc_core::blocks::{Block, BlockCtx, BlockLimits};
use rannc_core::coarsen::{CoarsenResult, MergeRecord};
use rannc_core::AtomicPartition;
use rannc_cost::CostModel;
use rannc_graph::{traverse, TaskGraph, TaskSet};

/// Group adjacency with rows in first-occurrence order.
pub fn adjacency(g: &TaskGraph, groups: &[TaskSet]) -> Vec<Vec<u32>> {
    let n = g.num_tasks();
    let mut membership: Vec<Vec<u32>> = vec![Vec::new(); n];
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

/// Both ends of every task edge `t → s` with `a ∋ t`, `b ∋ s`, `a ≠ b`.
pub fn boundary(g: &TaskGraph, groups: &[TaskSet]) -> TaskSet {
    let holders = |t| -> Vec<usize> {
        (0..groups.len())
            .filter(|&i| groups[i].contains(t))
            .collect()
    };
    let mut boundary = TaskSet::new(g.num_tasks());
    for t in g.task_ids() {
        for s in g.task_successors(t) {
            let (ht, hs) = (holders(t), holders(s));
            if ht.iter().any(|a| hs.iter().any(|b| a != b)) {
                boundary.insert(t);
                boundary.insert(s);
            }
        }
    }
    boundary
}

/// Coarsening: level by level, each group (ascending time) merges with
/// the adjacent unused group minimising the merged time.
pub fn coarsen(ctx: &mut BlockCtx<'_, '_>, atomic_sets: &[TaskSet]) -> CoarsenResult {
    let k = ctx.limits.k;
    let mut groups: Vec<TaskSet> = atomic_sets.to_vec();
    let mut merges = Vec::new();
    let mut level = 0usize;
    let (mut candidates, mut walked) = (0usize, 0usize);

    while groups.len() > k {
        let adj = adjacency(ctx.g, &groups);
        let times: Vec<f64> = groups.iter().map(|s| ctx.profile(s).0).collect();
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by(|&a, &b| times[a].total_cmp(&times[b]));

        let mut used = vec![false; groups.len()];
        let mut next: Vec<TaskSet> = Vec::with_capacity(groups.len() / 2 + 1);
        let mut merged_any = false;
        let mut remaining = groups.len();

        for &v in &order {
            if used[v] {
                continue;
            }
            used[v] = true;
            if remaining <= k {
                next.push(groups[v].clone());
                continue;
            }
            let mut best: Option<(usize, f64, TaskSet)> = None;
            for &w in &adj[v] {
                let w = w as usize;
                if used[w] {
                    continue;
                }
                candidates += 1;
                let union = groups[v].union(&groups[w]);
                if !ctx.checker.is_convex(&union) {
                    continue;
                }
                walked += 1;
                if !fits(ctx, &union) {
                    continue;
                }
                let t = ctx.profile(&union).0;
                if best.as_ref().map(|(_, bt, _)| t < *bt).unwrap_or(true) {
                    best = Some((w, t, union));
                }
            }
            match best {
                Some((w, _, union)) => {
                    used[w] = true;
                    merges.push(MergeRecord {
                        level,
                        v: groups[v].clone(),
                        w: groups[w].clone(),
                    });
                    next.push(union);
                    merged_any = true;
                    remaining -= 1;
                }
                None => next.push(groups[v].clone()),
            }
        }

        groups = next;
        if !merged_any {
            break;
        }
        level += 1;
    }

    CoarsenResult {
        groups,
        merges,
        levels: level,
        candidates,
        unions: candidates,
        walked,
    }
}

/// Uncoarsening, check-first: every candidate move is tested for
/// legality, then priced; the first strict minimum of Δ < 0 is applied.
pub fn uncoarsen(
    ctx: &mut BlockCtx<'_, '_>,
    groups: &mut [TaskSet],
    merges: &[MergeRecord],
) -> usize {
    let mut moves = 0;
    let mut adj = adjacency(ctx.g, groups);
    for m in merges.iter().rev() {
        let union = m.v.union(&m.w);
        let Some(a_idx) = groups.iter().position(|gset| union.is_subset(gset)) else {
            continue;
        };
        let mut best: Option<(usize, bool, f64)> = None;
        for &b in &adj[a_idx] {
            let b_idx = b as usize;
            for (move_v, piece) in [(true, &m.v), (false, &m.w)] {
                if let Some(delta) = eval_move(ctx, groups, a_idx, b_idx, piece) {
                    if delta < 0.0 && best.as_ref().map(|(_, _, bd)| delta < *bd).unwrap_or(true) {
                        best = Some((b_idx, move_v, delta));
                    }
                }
            }
        }
        if let Some((b_idx, move_v, _)) = best {
            let piece = if move_v { &m.v } else { &m.w };
            groups[a_idx].difference_with(piece);
            groups[b_idx].union_with(piece);
            moves += 1;
            adj = adjacency(ctx.g, groups);
        }
    }
    moves
}

/// The cut-byte delta of moving `piece` from `groups[a]` to `groups[b]`
/// if the move is legal (piece strictly inside `a`, both results convex
/// and within device memory), `None` otherwise.
fn eval_move(
    ctx: &mut BlockCtx<'_, '_>,
    groups: &[TaskSet],
    a: usize,
    b: usize,
    piece: &TaskSet,
) -> Option<f64> {
    if !piece.is_subset(&groups[a]) {
        return None;
    }
    let mut a_rest = groups[a].clone();
    a_rest.difference_with(piece);
    if a_rest.is_empty() {
        return None;
    }
    let b_new = groups[b].union(piece);
    if !ctx.checker.is_convex(&a_rest) || !ctx.checker.is_convex(&b_new) {
        return None;
    }
    if !fits(ctx, &b_new) || !fits(ctx, &a_rest) {
        return None;
    }
    Some(cut_delta(ctx.g, &groups[a], &groups[b], &a_rest, &b_new))
}

/// Whether `set` fits the device memory bound, from a full profile of
/// the set at the phase's probe (one micro-batch, checkpointing on).
fn fits(ctx: &BlockCtx<'_, '_>, set: &TaskSet) -> bool {
    let mem = ctx.cost.stage_cost(set, ctx.limits.profile_batch, 1, true);
    mem.mem_bytes <= ctx.limits.mem_limit
}

/// Δ = cut(A', B') + cut(B', A') − cut(A, B) − cut(B, A).
fn cut_delta(g: &TaskGraph, a: &TaskSet, b: &TaskSet, a_new: &TaskSet, b_new: &TaskSet) -> f64 {
    let before = (traverse::cut_bytes(g, a, b) + traverse::cut_bytes(g, b, a)) as f64;
    let after =
        (traverse::cut_bytes(g, a_new, b_new) + traverse::cut_bytes(g, b_new, a_new)) as f64;
    after - before
}

/// Kahn's algorithm over the block DAG, ties broken by minimum task
/// topological position.
pub fn sort_topologically(g: &TaskGraph, blocks: &mut [Block]) {
    let n_tasks = g.num_tasks();
    let nb = blocks.len();
    let pos = traverse::topo_positions(g);
    let mut member: Vec<Vec<u32>> = vec![Vec::new(); n_tasks];
    for (bi, b) in blocks.iter().enumerate() {
        for t in b.set.iter() {
            member[t.index()].push(bi as u32);
        }
    }
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); nb];
    let mut indeg = vec![0u32; nb];
    for t in g.task_ids() {
        for s in g.task_successors(t) {
            for &a in &member[t.index()] {
                for &b in &member[s.index()] {
                    if a != b
                        && !blocks[b as usize].set.contains(t)
                        && !succs[a as usize].contains(&b)
                    {
                        succs[a as usize].push(b);
                        indeg[b as usize] += 1;
                    }
                }
            }
        }
    }
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
    assert_eq!(order.len(), nb, "block DAG has a cycle");
    let sorted: Vec<Block> = order.iter().map(|&bi| blocks[bi].clone()).collect();
    blocks.clone_from_slice(&sorted);
}

/// The whole reference phase: coarsen, uncoarsen, compact, profile and
/// sort. Returns the blocks and the number of uncoarsening moves.
pub fn block_partition(
    g: &TaskGraph,
    cost: &dyn CostModel,
    atomic: &AtomicPartition,
    limits: BlockLimits,
) -> (Vec<Block>, usize) {
    let mut ctx = BlockCtx::new(g, cost, limits);
    let coarse = coarsen(&mut ctx, &atomic.sets);
    let mut groups = coarse.groups;
    let moves = uncoarsen(&mut ctx, &mut groups, &coarse.merges);
    let groups = rannc_core::compact::compact(&mut ctx, groups);
    let mut blocks: Vec<Block> = groups
        .into_iter()
        .map(|set| {
            let time = ctx.profile(&set).0;
            let mem = ctx
                .cost
                .stage_cost(&set, limits.profile_batch, 1, true)
                .mem_bytes;
            Block { set, time, mem }
        })
        .collect();
    sort_topologically(g, &mut blocks);
    (blocks, moves)
}
