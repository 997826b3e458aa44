//! The per-graph index: whole-graph facts every phase reads.
//!
//! The topological order, the per-task positions, the distinct-successor
//! and distinct-predecessor lists and the non-constant flags (paper
//! §III-A) are facts of a [`TaskGraph`], not of one partitioning request.
//! [`TaskGraph::index`] derives them once, on first use, and hands out
//! the same [`GraphIndex`] to every later reader; every `&mut self`
//! method of the graph drops it, so it is rebuilt after an edit.
//!
//! The builder here is the only place that runs Kahn's algorithm over a
//! task graph or builds its successor and predecessor tables.

use crate::{TaskGraph, TaskId, ValueKind};

/// Whole-graph facts of one [`TaskGraph`] (see the module docs). Obtain
/// it through [`TaskGraph::index`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphIndex {
    /// Kahn order; shorter than the task count on a cyclic graph.
    order: Vec<TaskId>,
    /// `pos[t]` is the rank of `t` in `order`; empty on a cyclic graph.
    pos: Vec<u32>,
    /// The distinct successors of `t` are
    /// `succ_list[succ_start[t]..succ_start[t + 1]]`, ascending.
    succ_start: Vec<u32>,
    succ_list: Vec<TaskId>,
    /// The distinct predecessors of `t` are
    /// `pred_list[pred_start[t]..pred_start[t + 1]]`, ascending.
    pred_start: Vec<u32>,
    pred_list: Vec<TaskId>,
    /// `non_constant[t]`: `t`'s output depends on the model input.
    non_constant: Vec<bool>,
}

impl GraphIndex {
    /// Derive every fact of `g` in one successor walk, one transpose of
    /// it and one Kahn pass.
    pub(crate) fn build(g: &TaskGraph) -> Self {
        let n = g.num_tasks();
        // Distinct successors, flat. A task's distinct predecessors are
        // exactly the tasks listing it as a distinct successor, so the
        // same walk gives Kahn's in-degrees.
        let mut succ_start = Vec::with_capacity(n + 1);
        let mut succ_list = Vec::new();
        let mut indegree = vec![0u32; n];
        let mut buf = Vec::new();
        succ_start.push(0);
        for t in g.task_ids() {
            g.task_successors_into(t, &mut buf);
            for &s in &buf {
                indegree[s.index()] += 1;
            }
            succ_list.extend_from_slice(&buf);
            succ_start.push(succ_list.len() as u32);
        }

        let succs = |t: TaskId| {
            &succ_list[succ_start[t.index()] as usize..succ_start[t.index() + 1] as usize]
        };

        // Distinct predecessors, flat: the successor table transposed,
        // sized by the in-degrees. Listing each `t` under its successors
        // in ascending `t` keeps every predecessor list ascending.
        let mut pred_start = Vec::with_capacity(n + 1);
        pred_start.push(0);
        for &d in &indegree {
            pred_start.push(pred_start[pred_start.len() - 1] + d);
        }
        let mut fill = pred_start.clone();
        let mut pred_list = vec![TaskId(0); succ_list.len()];
        for t in g.task_ids() {
            for &s in succs(t) {
                pred_list[fill[s.index()] as usize] = t;
                fill[s.index()] += 1;
            }
        }

        // Kahn's algorithm: the queue, once drained, is the order.
        let mut order: Vec<TaskId> = g.task_ids().filter(|t| indegree[t.index()] == 0).collect();
        order.reserve(n - order.len());
        let mut head = 0;
        while head < order.len() {
            let t = order[head];
            head += 1;
            for &s in succs(t) {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    order.push(s);
                }
            }
        }

        let pos = if order.len() == n {
            let mut pos = vec![0u32; n];
            for (rank, t) in order.iter().enumerate() {
                pos[t.index()] = rank as u32;
            }
            pos
        } else {
            Vec::new()
        };

        // Paper §III-A: "since non-constant tasks take inputs that are
        // either the input to the entire model or the output of other
        // non-constant tasks, we identify non-constant tasks by exploring a
        // model's task graph from its input in a forward manner". Tasks on
        // a cycle are never reached and stay constant.
        let mut non_constant = vec![false; n];
        for &t in &order {
            non_constant[t.index()] = g.task(t).inputs.iter().any(|&v| {
                let val = g.value(v);
                match val.producer {
                    Some(p) => non_constant[p.index()],
                    None => val.kind == ValueKind::Input,
                }
            });
        }

        GraphIndex {
            order,
            pos,
            succ_start,
            succ_list,
            pred_start,
            pred_list,
            non_constant,
        }
    }

    /// Topological order of the tasks (Kahn's algorithm, sources in id
    /// order, each task's successors ascending). On a cyclic graph it is
    /// shorter than the task count: the tasks on or behind a cycle are
    /// missing.
    #[inline]
    pub fn order(&self) -> &[TaskId] {
        &self.order
    }

    /// Whether the order covers every task.
    #[inline]
    pub fn is_acyclic(&self) -> bool {
        self.order.len() == self.non_constant.len()
    }

    /// Per-task topological position: `positions()[t.index()]` is the
    /// rank of `t` in [`GraphIndex::order`]. Panics if the graph is
    /// cyclic.
    #[inline]
    pub fn positions(&self) -> &[u32] {
        assert!(self.is_acyclic(), "graph has a cycle");
        &self.pos
    }

    /// Distinct successor tasks of `t` (consumers of its outputs),
    /// ascending.
    #[inline]
    pub fn successors(&self, t: TaskId) -> &[TaskId] {
        &self.succ_list
            [self.succ_start[t.index()] as usize..self.succ_start[t.index() + 1] as usize]
    }

    /// Distinct predecessor tasks of `t` (producers of its inputs),
    /// ascending.
    #[inline]
    pub fn predecessors(&self, t: TaskId) -> &[TaskId] {
        &self.pred_list
            [self.pred_start[t.index()] as usize..self.pred_start[t.index() + 1] as usize]
    }

    /// Per-task classification: `non_constant()[t.index()]` is `true` when
    /// `t`'s output depends on the model input, `false` for a *constant*
    /// task (computable from parameters and constants alone).
    #[inline]
    pub fn non_constant(&self) -> &[bool] {
        &self.non_constant
    }
}
