//! Uncoarsening (boundary refinement) step of block-level partitioning
//! (paper §III-B).
//!
//! Walks the merge hierarchy from the coarsest level back toward level 0.
//! For every recorded merge (v, w), it considers moving `v` or `w` out of
//! the group currently containing `v ∪ w` into an adjacent group, when the
//! move **reduces the communication volume** between groups while keeping
//! both modified groups convex and within device memory.
//!
//! Following the paper ("we actually form the groups resulting from the
//! movement and compare the time for communication between the original
//! groups with that between groups resulting from the movement"), the
//! criterion is *local to the affected pair*: the cut between the source
//! and target groups is measured before and after the tentative move,
//!
//! ```text
//! Δ = cut(A∖p, B∪p) + cut(B∪p, A∖p) − cut(A, B) − cut(B, A)
//! ```
//!
//! and the move is applied when `Δ < 0`. Moves of whole subtree nodes keep
//! every deeper merge pair inside a single group, which is the paper's
//! "propagated to `G_{L'}`" bookkeeping in our flattened representation.
//!
//! Each candidate costs work in proportion to the moved piece, not to the
//! groups around it:
//!
//! * **Piece-local Δ.** Only tasks of the piece change membership, so a
//!   value neither produced nor consumed in the piece crosses the (A, B)
//!   cut the same way before and after. Δ sums, as integers, the
//!   before/after cut bytes of the piece's own values only; every total
//!   stays far below 2^53, so the `f64` Δ equals the four-`cut_bytes`
//!   formula above bit for bit.
//! * **Boundary pieces only.** Moving p from A to B lowers the cut only
//!   if p produces a value consumed in B or consumes a value produced in
//!   B. So a piece holding no *boundary* task — an end of a task edge
//!   joining two different groups, kept by the [`GroupGraph`] — has
//!   Δ ≥ 0 toward every B: every edge of its tasks has both ends in A
//!   alone, so the values it produces reach A only, and those it consumes
//!   come from a producer that stays in A∖p. Such a piece is never
//!   collected or priced, and a merge whose pieces both miss the boundary
//!   is skipped before its pair's group is looked up. A constant cloned
//!   into A and B is held by two groups, so its edge into p puts p on the
//!   boundary.
//! * **One walk of every task edge.** The group graph and its boundary
//!   are built once from the input groups. A move changes only the
//!   source and target groups, so [`GroupGraph::apply_move`] walks just
//!   their two rows again and patches the rest.
//! * **Legality last.** Among candidates with `Δ < 0` the first strict
//!   minimum wins, so convexity and memory are checked only for a
//!   candidate that would beat the current best — the same move wins as
//!   when every candidate is checked first.

use crate::blocks::{BlockCtx, GroupGraph};
use crate::coarsen::MergeRecord;
use rannc_graph::{traverse, TaskGraph, TaskId, TaskSet, ValueId};

/// What one uncoarsening run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UncoarsenWalk {
    /// Moves applied.
    pub moves: usize,
    /// Merge pieces walked: on the boundary, still inside their pair's
    /// group, and movable, so their values were collected and Δ priced.
    pub pieces: usize,
    /// Group-graph rows walked again after moves (two per move).
    pub rows_rewalked: usize,
}

/// Run uncoarsening over `groups` in place.
pub fn uncoarsen(
    ctx: &mut BlockCtx<'_, '_>,
    groups: &mut [TaskSet],
    merges: &[MergeRecord],
) -> UncoarsenWalk {
    uncoarsen_with(ctx, groups, merges, |_, _| {})
}

/// [`uncoarsen`], handing the group graph and the groups it describes to
/// `observe` after its build and after every move.
pub fn uncoarsen_with(
    ctx: &mut BlockCtx<'_, '_>,
    groups: &mut [TaskSet],
    merges: &[MergeRecord],
    mut observe: impl FnMut(&[TaskSet], &GroupGraph),
) -> UncoarsenWalk {
    let g = ctx.g;
    let mut walk = UncoarsenWalk::default();
    // Group adjacency and the boundary change only when a move is
    // applied: built once, then patched on the two groups a move changes.
    let mut graph = GroupGraph::build(g, groups);
    observe(groups, &graph);
    let mut piece_values = [PieceValues::new(g), PieceValues::new(g)];
    // coarsest first: iterate the records in reverse application order
    for m in merges.iter().rev() {
        let pieces = [&m.v, &m.w];
        // a piece off the boundary has Δ ≥ 0 toward every group
        let on_boundary = pieces.map(|piece| piece.intersects(graph.boundary()));
        if on_boundary == [false, false] {
            continue;
        }
        let Some(a_idx) = pair_group(groups, m) else {
            continue; // an earlier move separated the pair
        };
        // both pieces lie inside A; one may leave only if A stays nonempty
        let walked = [0, 1].map(|p| on_boundary[p] && !groups[a_idx].is_subset(pieces[p]));
        for p in 0..2 {
            if walked[p] {
                piece_values[p].collect(g, pieces[p]);
                walk.pieces += 1;
            }
        }
        let mut best: Option<(usize, usize, f64)> = None; // (target, piece, delta)
        for b in graph.neighbours(a_idx) {
            let b_idx = b as usize;
            for p in 0..2 {
                if !walked[p] {
                    continue;
                }
                let (a, b, piece) = (&groups[a_idx], &groups[b_idx], pieces[p]);
                let delta = move_delta(g, a, b, piece, &piece_values[p]);
                if delta < 0.0
                    && best.as_ref().map(|(_, _, bd)| delta < *bd).unwrap_or(true)
                    && move_is_legal(ctx, a, b, piece)
                {
                    best = Some((b_idx, p, delta));
                }
            }
        }
        if let Some((b_idx, p, _)) = best {
            groups[a_idx].difference_with(pieces[p]);
            groups[b_idx].union_with(pieces[p]);
            walk.moves += 1;
            graph.apply_move(groups, pieces[p], a_idx, b_idx);
            observe(groups, &graph);
        }
    }
    walk.rows_rewalked = graph.rows_rewalked();
    walk
}

/// Index of the first group containing the whole merge pair `v ∪ w`.
///
/// That group must contain `v`'s first task, so only groups holding it
/// are tested for containment.
fn pair_group(groups: &[TaskSet], m: &MergeRecord) -> Option<usize> {
    let contains_pair = |gset: &TaskSet| m.v.is_subset(gset) && m.w.is_subset(gset);
    match m.v.first() {
        Some(t) => groups
            .iter()
            .position(|gset| gset.contains(t) && contains_pair(gset)),
        None => groups.iter().position(contains_pair),
    }
}

/// The values whose (A, B) cut contribution a move of a piece can change:
/// those produced in the piece (with their producer) and those consumed in
/// it whose producer lies outside it.
struct PieceValues {
    /// `(producer, value)` pairs of the last collected piece.
    list: Vec<(TaskId, ValueId)>,
    /// `seen[v] == stamp` once consumed value `v` is collected.
    seen: Vec<u32>,
    stamp: u32,
}

impl PieceValues {
    fn new(g: &TaskGraph) -> Self {
        PieceValues {
            list: Vec::new(),
            seen: vec![0; g.num_values()],
            stamp: 0,
        }
    }

    /// Collect the values of `piece`.
    ///
    /// Produced values are listed once per `outputs` entry, as
    /// [`traverse::cut_bytes`] counts them; consumed values once each.
    fn collect(&mut self, g: &TaskGraph, piece: &TaskSet) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        self.list.clear();
        for t in piece.iter() {
            let task = g.task(t);
            self.list.extend(task.outputs.iter().map(|&v| (t, v)));
            for &v in &task.inputs {
                let Some(q) = g.value(v).producer else {
                    continue; // graph inputs cross no cut
                };
                if !piece.contains(q) && self.seen[v.index()] != self.stamp {
                    self.seen[v.index()] = self.stamp;
                    self.list.push((q, v));
                }
            }
        }
    }
}

/// Communication-byte delta of moving `piece` from group `a` to group `b`:
/// the four-`cut_bytes` Δ of the module doc, summed over the piece's
/// `values` only (negative = fewer bytes cross the pair's cut).
///
/// Membership in `A∖p` and `B∪p` is tested through `(a, b, piece)`; no
/// set is built.
fn move_delta(
    g: &TaskGraph,
    a: &TaskSet,
    b: &TaskSet,
    piece: &TaskSet,
    values: &PieceValues,
) -> f64 {
    let (mut before, mut after) = (0usize, 0usize);
    for &(q, v) in &values.list {
        let val = g.value(v);
        // which of A, B, A∖p, B∪p the value's consumers reach
        let (mut to_a, mut to_b, mut to_a_rest, mut to_b_new) = (false, false, false, false);
        for &c in &val.consumers {
            let (in_a, in_b, in_p) = (a.contains(c), b.contains(c), piece.contains(c));
            to_a |= in_a;
            to_b |= in_b;
            to_a_rest |= in_a && !in_p;
            to_b_new |= in_b || in_p;
        }
        let (q_a, q_b, q_p) = (a.contains(q), b.contains(q), piece.contains(q));
        let size = val.size_bytes();
        before += size * ((q_a && to_b) as usize + (q_b && to_a) as usize);
        after += size * ((q_a && !q_p && to_b_new) as usize + ((q_b || q_p) && to_a_rest) as usize);
    }
    after as f64 - before as f64
}

/// Whether moving `piece` from group `a` to group `b` keeps both groups
/// convex and within device memory.
fn move_is_legal(ctx: &mut BlockCtx<'_, '_>, a: &TaskSet, b: &TaskSet, piece: &TaskSet) -> bool {
    let mut a_rest = a.clone();
    a_rest.difference_with(piece);
    let b_new = b.union(piece);
    ctx.checker.is_convex(&a_rest)
        && ctx.checker.is_convex(&b_new)
        && ctx.fits(&b_new)
        && ctx.fits(&a_rest)
}

/// Total communication bytes across all group boundaries — the objective
/// uncoarsening decreases. Exposed for tests.
pub fn total_cut_bytes(g: &rannc_graph::TaskGraph, groups: &[TaskSet]) -> usize {
    let mut total = 0;
    for (i, a) in groups.iter().enumerate() {
        for (j, b) in groups.iter().enumerate() {
            if i != j {
                total += traverse::cut_bytes(g, a, b);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::atomic_partition;
    use crate::blocks::{BlockCtx, BlockLimits};
    use crate::coarsen::coarsen;
    use rannc_graph::convex::ConvexChecker;
    use rannc_graph::{DType, GraphBuilder, OpKind};
    use rannc_hw::DeviceSpec;
    use rannc_models::{bert_graph, mlp_graph, BertConfig, MlpConfig};
    use rannc_profile::{Profiler, ProfilerOptions};

    fn pipeline(
        g: &rannc_graph::TaskGraph,
        k: usize,
        assert_global_cut: bool,
    ) -> (Vec<TaskSet>, usize, usize) {
        let profiler = Profiler::new(g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(g);
        let mut ctx = BlockCtx::new(
            g,
            &profiler,
            BlockLimits {
                k,
                mem_limit: 32 << 30,
                profile_batch: 2,
            },
        );
        let res = coarsen(&mut ctx, &atomic.sets);
        let mut groups = res.groups.clone();
        let before = total_cut_bytes(g, &groups);
        let moves = uncoarsen(&mut ctx, &mut groups, &res.merges).moves;
        let after = total_cut_bytes(g, &groups);
        // The move criterion is local to the (source, target) pair — the
        // paper's is too — so global monotonicity only holds on graphs
        // without values consumed by three or more groups (e.g. chains).
        if assert_global_cut {
            assert!(
                after <= before,
                "uncoarsening increased cut: {before} -> {after}"
            );
        }
        (groups, moves, after)
    }

    #[test]
    fn preserves_invariants_mlp() {
        let g = mlp_graph(&MlpConfig::deep(32, 32, 12, 4));
        let (groups, _moves, _) = pipeline(&g, 4, true);
        let mut ck = ConvexChecker::new(&g);
        let mut covered = TaskSet::new(g.num_tasks());
        for s in &groups {
            assert!(!s.is_empty());
            assert!(ck.is_convex(s));
            covered.union_with(s);
        }
        assert_eq!(covered.len(), g.num_tasks());
    }

    #[test]
    fn preserves_invariants_bert() {
        let g = bert_graph(&BertConfig::tiny());
        let (groups, _, _) = pipeline(&g, 6, false);
        let mut ck = ConvexChecker::new(&g);
        let mut covered = TaskSet::new(g.num_tasks());
        for s in &groups {
            assert!(ck.is_convex(s));
            covered.union_with(s);
        }
        assert_eq!(covered.len(), g.num_tasks());
    }

    #[test]
    fn never_increases_total_cut() {
        // checked inside `pipeline` for both model families
        let g = mlp_graph(&MlpConfig::deep(64, 64, 16, 8));
        let _ = pipeline(&g, 4, true);
    }

    /// Δ from four whole-group `cut_bytes` scans over materialised groups.
    fn full_cut_delta(g: &TaskGraph, a: &TaskSet, b: &TaskSet, piece: &TaskSet) -> f64 {
        let mut a_rest = a.clone();
        a_rest.difference_with(piece);
        let b_new = b.union(piece);
        let before = (traverse::cut_bytes(g, a, b) + traverse::cut_bytes(g, b, a)) as f64;
        let after = (traverse::cut_bytes(g, &a_rest, &b_new)
            + traverse::cut_bytes(g, &b_new, &a_rest)) as f64;
        after - before
    }

    /// A residual chain whose layers share one tied weight: the weight's
    /// transpose is a constant task cloned into every layer's matmul
    /// component, and every layer input is consumed in three components.
    fn tied_residual_chain() -> TaskGraph {
        let mut b = GraphBuilder::new("tied-residual");
        let mut h = b.input("x", [8, 16], DType::F32);
        let w = b.param("w", [16, 16]);
        let wt = b.transpose(w, [16, 16]);
        for _ in 0..8 {
            let m = b.matmul(h, wt);
            let r = b.unary(OpKind::Relu, h);
            let s = b.binary(OpKind::Add, m, r);
            h = b.binary(OpKind::Add, s, h);
        }
        b.output(h);
        b.finish()
    }

    #[test]
    fn piece_local_delta_matches_full_cut_delta() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for (g, k) in [
            (bert_graph(&BertConfig::tiny()), 8),
            (tied_residual_chain(), 4),
        ] {
            let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
            let atomic = atomic_partition(&g);
            let limits = BlockLimits {
                k,
                mem_limit: 32 << 30,
                profile_batch: 2,
            };
            let coarse = coarsen(&mut BlockCtx::new(&g, &profiler, limits), &atomic.sets).groups;
            let mut values = PieceValues::new(&g);
            let mut checked = 0;
            for groups in [&atomic.sets, &coarse] {
                for _ in 0..2000 {
                    let a = (next() % groups.len() as u64) as usize;
                    let b = (next() % groups.len() as u64) as usize;
                    let members: Vec<TaskId> = groups[a].iter().collect();
                    if a == b || members.len() < 2 {
                        continue;
                    }
                    // a random nonempty piece strictly inside A
                    let mut piece = TaskSet::new(g.num_tasks());
                    for &t in &members {
                        if next() % 2 == 0 {
                            piece.insert(t);
                        }
                    }
                    if piece.is_empty() {
                        piece.insert(members[0]);
                    }
                    if piece.len() == members.len() {
                        piece.remove(members[members.len() - 1]);
                    }
                    values.collect(&g, &piece);
                    let local = move_delta(&g, &groups[a], &groups[b], &piece, &values);
                    let full = full_cut_delta(&g, &groups[a], &groups[b], &piece);
                    assert_eq!(local.to_bits(), full.to_bits(), "{}: A={a} B={b}", g.name);
                    checked += 1;
                }
            }
            assert!(checked > 1000, "{}: only {checked} pieces checked", g.name);
        }
    }

    /// Both ends of every task edge joining two different groups, from
    /// the definition, and the number of those edges whose producer is a
    /// clone held by two or more groups.
    fn boundary_by_definition(g: &TaskGraph, groups: &[TaskSet]) -> (TaskSet, usize) {
        let mut holders: Vec<Vec<usize>> = vec![Vec::new(); g.num_tasks()];
        for (i, set) in groups.iter().enumerate() {
            for t in set.iter() {
                holders[t.index()].push(i);
            }
        }
        let mut boundary = TaskSet::new(g.num_tasks());
        let mut clone_edges = 0;
        for t in g.task_ids() {
            for s in g.task_successors(t) {
                let (ht, hs) = (&holders[t.index()], &holders[s.index()]);
                if ht.iter().any(|a| hs.iter().any(|b| a != b)) {
                    boundary.insert(t);
                    boundary.insert(s);
                    clone_edges += (ht.len() >= 2) as usize;
                }
            }
        }
        (boundary, clone_edges)
    }

    #[test]
    fn pieces_off_the_boundary_never_lower_the_cut() {
        // the lemma behind skipping pieces off the boundary: every piece
        // with no boundary task has Δ ≥ 0 toward every other group, over
        // atomic, coarsened and hand-made groupings with cloned constants
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let set = |ids: &[u32]| TaskSet::from_ids(4, ids.iter().map(|&i| TaskId(i)));
        // with `c` unique to one group, p0 has no boundary edge
        let mask_groupings = vec![
            vec![set(&[0, 1, 2]), set(&[3])],
            vec![set(&[0, 1]), set(&[0, 2, 3])],
        ];
        // (graph, extra groupings, whether it clones constants)
        for (g, extra, cloned) in [
            (tied_residual_chain(), vec![], true),
            (bert_graph(&BertConfig::tiny()), vec![], false),
            (shared_mask_chain(), mask_groupings, true),
        ] {
            let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
            let limits = |k| BlockLimits {
                k,
                mem_limit: 32 << 30,
                profile_batch: 2,
            };
            let atomic = atomic_partition(&g);
            let mut groupings = vec![atomic.sets.clone()];
            for k in [2, 4, 8] {
                let mut ctx = BlockCtx::new(&g, &profiler, limits(k));
                groupings.push(coarsen(&mut ctx, &atomic.sets).groups);
            }
            groupings.extend(extra);
            let mut values = PieceValues::new(&g);
            let (mut checked, mut clone_edges) = (0, 0);
            for groups in &groupings {
                let boundary = GroupGraph::build(&g, groups).boundary().clone();
                let (want, clones) = boundary_by_definition(&g, groups);
                assert_eq!(boundary, want, "{}: boundary", g.name);
                clone_edges += clones;
                for (a, group) in groups.iter().enumerate() {
                    let inner: Vec<TaskId> =
                        group.iter().filter(|&t| !boundary.contains(t)).collect();
                    if inner.is_empty() {
                        continue;
                    }
                    for _ in 0..8 {
                        // a random nonempty piece of A's non-boundary tasks
                        let mut piece = TaskSet::new(g.num_tasks());
                        for &t in &inner {
                            if next() % 2 == 0 {
                                piece.insert(t);
                            }
                        }
                        if piece.is_empty() {
                            piece.insert(inner[(next() % inner.len() as u64) as usize]);
                        }
                        values.collect(&g, &piece);
                        for (b, other) in groups.iter().enumerate() {
                            if b == a {
                                continue;
                            }
                            let delta = move_delta(&g, group, other, &piece, &values);
                            assert!(delta >= 0.0, "{}: A={a} B={b} Δ={delta}", g.name);
                            checked += 1;
                        }
                    }
                }
            }
            assert!(checked > 0, "{}: no piece off the boundary", g.name);
            // the clone case is exercised: a constant held by two groups
            // puts its consumers on the boundary
            assert_eq!(
                clone_edges > 0,
                cloned,
                "{}: boundary edges from a clone",
                g.name
            );
        }
    }

    #[test]
    fn delta_fixture_has_clones_and_wide_values() {
        // the cases a piece-local Δ could get wrong must be in the fixture:
        // a cloned constant task shared by two groups, and a value
        // consumed in three or more groups
        let g = tied_residual_chain();
        let atomic = atomic_partition(&g);
        let groups = &atomic.sets;
        let owners = |t: TaskId| groups.iter().filter(|s| s.contains(t)).count();
        assert!(g.task_ids().any(|t| owners(t) >= 2), "no shared clone");
        let consuming = |v: &rannc_graph::Value| {
            groups
                .iter()
                .filter(|s| v.consumers.iter().any(|&c| s.contains(c)))
                .count()
        };
        assert!(
            g.values().any(|(_, v)| consuming(v) >= 3),
            "no value consumed in three groups"
        );
    }

    /// A chain of three adds `p0 → p1 → p2` sharing one large constant
    /// `mask`, produced by task `c`. Tasks are `[c, p0, p1, p2]`.
    fn shared_mask_chain() -> TaskGraph {
        let mut gb = GraphBuilder::new("shared-mask");
        let x = gb.input("x", [8, 16], DType::F32);
        let k = gb.constant("k", [64, 16], DType::F32);
        let mask = gb.unary(OpKind::Relu, k);
        let h0 = gb.binary(OpKind::Add, x, mask);
        let h1 = gb.binary(OpKind::Add, h0, mask);
        let h2 = gb.binary(OpKind::Add, h1, mask);
        gb.output(h2);
        gb.finish()
    }

    #[test]
    fn moves_keep_both_groups_within_memory() {
        // The mask's producer is cloned into every add's group. Moving
        // {mask, p1} from A = {mask, p1, p2} to B = {mask, p0} cuts a
        // double-counted mask crossing (Δ = −|mask|), but leaves p2
        // receiving the mask as a stage input: the source group outgrows
        // A itself.
        let g = shared_mask_chain();
        let [c, p0, p1, p2] = [0, 1, 2, 3].map(TaskId);
        let set = |ids: &[TaskId]| TaskSet::from_ids(g.num_tasks(), ids.iter().copied());
        let merge = MergeRecord {
            level: 0,
            v: set(&[c, p1]),
            w: set(&[c, p2]),
        };
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let mem =
            |s: &TaskSet| rannc_cost::CostModel::stage_cost(&profiler, s, 2, 1, true).mem_bytes;
        let run = |mem_limit: usize| {
            let limits = BlockLimits {
                k: 2,
                mem_limit,
                profile_batch: 2,
            };
            let mut groups = vec![set(&[c, p0]), set(&[c, p1, p2])];
            let walk = uncoarsen(
                &mut BlockCtx::new(&g, &profiler, limits),
                &mut groups,
                std::slice::from_ref(&merge),
            );
            (walk.moves, groups)
        };

        // without a binding limit the move is taken, and its source grows
        let (moves, groups) = run(32 << 30);
        assert_eq!(moves, 1);
        assert!(mem(&groups[1]) > mem(&set(&[c, p1, p2])));

        // with the limit at the larger input group, both groups must still fit
        let tight = mem(&set(&[c, p0])).max(mem(&set(&[c, p1, p2])));
        let (moves, groups) = run(tight);
        for s in &groups {
            assert!(mem(s) <= tight, "group needs {} > {tight}", mem(s));
        }
        assert_eq!(moves, 0);
    }
}
