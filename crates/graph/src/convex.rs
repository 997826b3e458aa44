//! Convexity of task sets.
//!
//! The paper (§III-B): "a group *u* is convex if and only if there is no
//! path between any pair α, β ∈ u such that the path goes through any
//! γ ∉ u. … a stage that contains such a subcomponent can cause a
//! deadlock", because pipeline stages execute in sequence and a non-convex
//! stage would have to wait on a later stage's output.
//!
//! The check here exploits topological positions: any violating path leaves
//! the set at some task with position `> min_pos(S)` and re-enters at a
//! task with position `< max_pos(S)`, so a forward search from the set's
//! boundary can be pruned to the set's topological window. For the
//! layer-local sets produced during coarsening this makes each check touch
//! only a few dozen tasks instead of the whole graph.
//!
//! Coarsening tests the union of two convex groups, which needs neither
//! the union nor a walk from its whole boundary
//! ([`ConvexChecker::union_is_convex`]): a violating path of a union of
//! convex sets runs from one operand to the other, so two directed
//! searches, each pruned to its target's topological span, decide it.

use crate::index::GraphIndex;
use crate::{TaskGraph, TaskId, TaskSet};

/// The topological span of a task set: its members' smallest and
/// largest positions in the graph's topological order. The empty set's
/// span, `(u32::MAX, 0)`, is the identity of [`Span::union`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Smallest member position.
    pub min: u32,
    /// Largest member position.
    pub max: u32,
}

impl Span {
    /// The span of the union of two sets: the smaller minimum and the
    /// larger maximum.
    pub fn union(self, other: Span) -> Span {
        Span {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }
}

/// Reusable convexity checker for one graph.
///
/// Reads the positions and successor lists from the graph's
/// [`GraphIndex`] and keeps only a stamped visited buffer and a stack, so
/// repeated checks (the coarsening phase performs tens of thousands)
/// allocate nothing.
pub struct ConvexChecker<'g> {
    index: &'g GraphIndex,
    pos: &'g [u32],
    visited: Vec<u32>,
    stamp: u32,
    stack: Vec<TaskId>,
}

impl<'g> ConvexChecker<'g> {
    /// Build a checker for `g`. Panics if the graph is cyclic.
    pub fn new(g: &'g TaskGraph) -> Self {
        let index = g.index();
        ConvexChecker {
            index,
            pos: index.positions(),
            visited: vec![0; g.num_tasks()],
            stamp: 0,
            stack: Vec::new(),
        }
    }

    /// The topological span of `s`: one pass over its members.
    pub fn span(&self, s: &TaskSet) -> Span {
        s.iter().fold(
            Span {
                min: u32::MAX,
                max: 0,
            },
            |span, t| {
                let p = self.pos[t.index()];
                Span {
                    min: span.min.min(p),
                    max: span.max.max(p),
                }
            },
        )
    }

    /// A fresh stamp: every task reads as unvisited.
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // stamp wrapped: reset buffer
            self.visited.iter_mut().for_each(|v| *v = 0);
            self.stamp = 1;
        }
        self.stamp
    }

    /// Whether `s` is convex in the graph.
    ///
    /// Empty and singleton sets are trivially convex.
    pub fn is_convex(&mut self, s: &TaskSet) -> bool {
        let (index, pos) = (self.index, self.pos);
        let mut max_pos = 0u32;
        let mut count = 0usize;
        for t in s.iter() {
            max_pos = max_pos.max(pos[t.index()]);
            count += 1;
        }
        if count <= 1 {
            return true;
        }
        let stamp = self.next_stamp();
        let (visited, stack) = (&mut self.visited, &mut self.stack);
        stack.clear();
        // Seed with successors outside S, pruned to the topo window.
        for t in s.iter() {
            for &succ in index.successors(t) {
                let i = succ.index();
                if !s.contains(succ) && pos[i] < max_pos && visited[i] != stamp {
                    visited[i] = stamp;
                    stack.push(succ);
                }
            }
        }
        // Forward search; re-entering S means a violating path exists.
        while let Some(t) = stack.pop() {
            for &succ in index.successors(t) {
                if s.contains(succ) {
                    return false;
                }
                let i = succ.index();
                if pos[i] < max_pos && visited[i] != stamp {
                    visited[i] = stamp;
                    stack.push(succ);
                }
            }
        }
        true
    }

    /// Whether `v ∪ w` is convex, for convex `v` and `w` whose spans are
    /// `v_span` and `w_span`: exactly [`ConvexChecker::is_convex`] of the
    /// union, which is never built.
    ///
    /// A path that leaves the union and re-enters it holds a segment
    /// from a member, through non-members only, to a member. Its two
    /// ends cannot both lie in `v`, nor both in `w`, since each operand
    /// is convex: the segment runs from `v` to `w` or from `w` to `v`.
    /// Positions rise along a path, so a segment into `w` stays below
    /// `max_pos(w)`, and one can leave `w` toward `v` only when
    /// `min_pos(w) < max_pos(v)`. Each direction is one forward search
    /// from its source's successors outside the union, pruned below its
    /// target's largest position, and skipped when the spans rule it
    /// out.
    pub fn union_is_convex(
        &mut self,
        (v, v_span): (&TaskSet, Span),
        (w, w_span): (&TaskSet, Span),
    ) -> bool {
        let escapes = (v_span.min < w_span.max && self.reaches(v, w, w_span.max))
            || (w_span.min < v_span.max && self.reaches(w, v, v_span.max));
        !escapes
    }

    /// Whether a path of two or more edges runs from `from` to `to` with
    /// every inner task outside both, searching only below position
    /// `below`.
    fn reaches(&mut self, from: &TaskSet, to: &TaskSet, below: u32) -> bool {
        let (index, pos) = (self.index, self.pos);
        let outside = |t: TaskId| !from.contains(t) && !to.contains(t);
        let stamp = self.next_stamp();
        let (visited, stack) = (&mut self.visited, &mut self.stack);
        stack.clear();
        for t in from.iter() {
            for &succ in index.successors(t) {
                let i = succ.index();
                if pos[i] < below && visited[i] != stamp && outside(succ) {
                    visited[i] = stamp;
                    stack.push(succ);
                }
            }
        }
        while let Some(t) = stack.pop() {
            for &succ in index.successors(t) {
                if to.contains(succ) {
                    return true;
                }
                let i = succ.index();
                if pos[i] < below && visited[i] != stamp && outside(succ) {
                    visited[i] = stamp;
                    stack.push(succ);
                }
            }
        }
        false
    }
}

/// One-shot convexity check (builds a [`ConvexChecker`] internally).
pub fn is_convex(g: &TaskGraph, s: &TaskSet) -> bool {
    ConvexChecker::new(g).is_convex(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DType, OpKind, TaskGraph, ValueKind};

    /// Chain with a skip: a -> b -> c -> d, plus a -> d (residual).
    fn chain_with_skip() -> TaskGraph {
        let mut g = TaskGraph::new("skip");
        let x = g.add_value("x", [4], DType::F32, ValueKind::Input);
        let va = g.add_value("va", [4], DType::F32, ValueKind::Activation);
        let vb = g.add_value("vb", [4], DType::F32, ValueKind::Activation);
        let vc = g.add_value("vc", [4], DType::F32, ValueKind::Activation);
        let vd = g.add_value("vd", [4], DType::F32, ValueKind::Activation);
        g.add_task("a", OpKind::Relu, vec![x], vec![va]).unwrap();
        g.add_task("b", OpKind::Tanh, vec![va], vec![vb]).unwrap();
        g.add_task("c", OpKind::Gelu, vec![vb], vec![vc]).unwrap();
        g.add_task("d", OpKind::Add, vec![vc, va], vec![vd])
            .unwrap();
        g.mark_output(vd);
        g
    }

    fn set(g: &TaskGraph, ids: &[u32]) -> TaskSet {
        TaskSet::from_ids(g.num_tasks(), ids.iter().map(|&i| TaskId(i)))
    }

    #[test]
    fn singletons_and_empty_are_convex() {
        let g = chain_with_skip();
        let mut ck = ConvexChecker::new(&g);
        assert!(ck.is_convex(&set(&g, &[])));
        for t in 0..4 {
            assert!(ck.is_convex(&set(&g, &[t])));
        }
    }

    #[test]
    fn contiguous_chain_is_convex() {
        let g = chain_with_skip();
        let mut ck = ConvexChecker::new(&g);
        assert!(ck.is_convex(&set(&g, &[0, 1])));
        assert!(ck.is_convex(&set(&g, &[1, 2])));
        assert!(ck.is_convex(&set(&g, &[0, 1, 2, 3])));
    }

    #[test]
    fn gap_is_not_convex() {
        let g = chain_with_skip();
        let mut ck = ConvexChecker::new(&g);
        // {a, d}: path a->b->c->d leaves the set and re-enters via the
        // residual's other operand — wait, a->d is a direct edge, but the
        // b,c path also connects them, so {a,d} is non-convex.
        assert!(!ck.is_convex(&set(&g, &[0, 3])));
        // {b, d} is non-convex because of b->c->d with c outside.
        assert!(!ck.is_convex(&set(&g, &[1, 3])));
        // {a, c} has a->b->c with b outside.
        assert!(!ck.is_convex(&set(&g, &[0, 2])));
    }

    #[test]
    fn parallel_branches_are_convex_without_reconverging_path() {
        // x -> a -> b ; x -> c -> d (two independent chains)
        let mut g = TaskGraph::new("par");
        let x = g.add_value("x", [4], DType::F32, ValueKind::Input);
        let va = g.add_value("va", [4], DType::F32, ValueKind::Activation);
        let vb = g.add_value("vb", [4], DType::F32, ValueKind::Activation);
        let vc = g.add_value("vc", [4], DType::F32, ValueKind::Activation);
        let vd = g.add_value("vd", [4], DType::F32, ValueKind::Activation);
        g.add_task("a", OpKind::Relu, vec![x], vec![va]).unwrap();
        g.add_task("b", OpKind::Tanh, vec![va], vec![vb]).unwrap();
        g.add_task("c", OpKind::Gelu, vec![x], vec![vc]).unwrap();
        g.add_task("d", OpKind::Relu, vec![vc], vec![vd]).unwrap();
        g.mark_output(vb);
        g.mark_output(vd);
        let mut ck = ConvexChecker::new(&g);
        // {a, d} are unrelated: no path between them at all -> convex.
        assert!(ck.is_convex(&TaskSet::from_ids(4, [TaskId(0), TaskId(3)])));
    }

    #[test]
    fn one_shot_helper() {
        let g = chain_with_skip();
        assert!(is_convex(&g, &set(&g, &[1, 2])));
        assert!(!is_convex(&g, &set(&g, &[0, 2])));
    }

    #[test]
    fn union_check_equals_the_check_of_the_union() {
        // every pair of convex sets of the skip chain and of the two
        // branches, overlapping ones included
        let chain = chain_with_skip();
        let mut g = TaskGraph::new("par");
        let x = g.add_value("x", [4], DType::F32, ValueKind::Input);
        let vals: Vec<_> = (0..4)
            .map(|i| g.add_value(format!("v{i}"), [4], DType::F32, ValueKind::Activation))
            .collect();
        g.add_task("a", OpKind::Relu, vec![x], vec![vals[0]])
            .unwrap();
        g.add_task("b", OpKind::Tanh, vec![vals[0]], vec![vals[1]])
            .unwrap();
        g.add_task("c", OpKind::Gelu, vec![x], vec![vals[2]])
            .unwrap();
        g.add_task("d", OpKind::Add, vec![vals[2], vals[1]], vec![vals[3]])
            .unwrap();
        g.mark_output(vals[3]);
        let mut outcomes = [0usize; 2];
        for g in [&chain, &g] {
            let mut ck = ConvexChecker::new(g);
            let n = g.num_tasks() as u32;
            let sets: Vec<TaskSet> = (1u32..1 << n)
                .map(|bits| {
                    set(
                        g,
                        &(0..n).filter(|i| bits >> i & 1 == 1).collect::<Vec<_>>(),
                    )
                })
                .filter(|s| ck.is_convex(s))
                .collect();
            for v in &sets {
                for w in &sets {
                    let want = ck.is_convex(&v.union(w));
                    let got = ck.union_is_convex((v, ck.span(v)), (w, ck.span(w)));
                    assert_eq!(got, want, "{v:?} ∪ {w:?}");
                    outcomes[usize::from(want)] += 1;
                }
            }
        }
        assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
    }

    #[test]
    fn span_of_a_union_is_the_union_of_spans() {
        let g = chain_with_skip();
        let ck = ConvexChecker::new(&g);
        let (a, b) = (set(&g, &[0, 1]), set(&g, &[3]));
        assert_eq!(ck.span(&a).union(ck.span(&b)), ck.span(&a.union(&b)));
        let empty = ck.span(&set(&g, &[]));
        assert_eq!(empty.union(ck.span(&b)), ck.span(&b));
    }

    #[test]
    fn repeated_checks_reuse_buffers() {
        let g = chain_with_skip();
        let mut ck = ConvexChecker::new(&g);
        for _ in 0..1000 {
            assert!(ck.is_convex(&set(&g, &[1, 2])));
            assert!(!ck.is_convex(&set(&g, &[0, 2])));
        }
    }
}
