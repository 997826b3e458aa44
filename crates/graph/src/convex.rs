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

use crate::index::GraphIndex;
use crate::{TaskGraph, TaskId, TaskSet};

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
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // stamp wrapped: reset buffer
            self.visited.iter_mut().for_each(|v| *v = 0);
            self.stamp = 1;
        }
        let stamp = self.stamp;
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
    fn repeated_checks_reuse_buffers() {
        let g = chain_with_skip();
        let mut ck = ConvexChecker::new(&g);
        for _ in 0..1000 {
            assert!(ck.is_convex(&set(&g, &[1, 2])));
            assert!(!ck.is_convex(&set(&g, &[0, 2])));
        }
    }
}
