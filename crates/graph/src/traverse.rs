//! Graph traversal utilities: topological order, reachability, cuts.

use crate::{TaskGraph, TaskId, TaskSet, ValueId};

/// Topological order of all tasks, borrowed from the graph's index
/// ([`crate::GraphIndex::order`]).
///
/// If the graph contains a cycle, the order is shorter than the task
/// count; [`TaskGraph::validate`] uses that as the cycle check.
pub fn topo_order(g: &TaskGraph) -> &[TaskId] {
    g.index().order()
}

/// Per-task topological position: `pos[t.index()]` is the rank of task `t`
/// in [`topo_order`]. Panics if the graph is cyclic. Borrowed from the
/// graph's index ([`crate::GraphIndex::positions`]).
pub fn topo_positions(g: &TaskGraph) -> &[u32] {
    g.index().positions()
}

/// Classify every task as *non-constant* (output depends on the model
/// input) or *constant* (computable from parameters/constants alone):
/// `flags[t.index()] == true` for non-constant tasks (paper §III-A).
/// Borrowed from the graph's index ([`crate::GraphIndex::non_constant`]).
pub fn non_constant_tasks(g: &TaskGraph) -> &[bool] {
    g.index().non_constant()
}

/// All tasks reachable from `start` (inclusive) following task→successor
/// edges, as a [`TaskSet`].
pub fn reachable_from(g: &TaskGraph, start: &TaskSet) -> TaskSet {
    let mut seen = start.clone();
    let mut stack: Vec<TaskId> = start.iter().collect();
    while let Some(t) = stack.pop() {
        for &s in g.index().successors(t) {
            if !seen.contains(s) {
                seen.insert(s);
                stack.push(s);
            }
        }
    }
    seen
}

/// All tasks that can reach `targets` (inclusive) following predecessor
/// edges.
pub fn reaching(g: &TaskGraph, targets: &TaskSet) -> TaskSet {
    let mut seen = targets.clone();
    let mut stack: Vec<TaskId> = targets.iter().collect();
    while let Some(t) = stack.pop() {
        for p in g.task_predecessors(t) {
            if !seen.contains(p) {
                seen.insert(p);
                stack.push(p);
            }
        }
    }
    seen
}

/// Whether task sets `a` and `b` are adjacent: some value produced in one is
/// consumed in the other (in either direction).
pub fn adjacent(g: &TaskGraph, a: &TaskSet, b: &TaskSet) -> bool {
    directed_adjacent(g, a, b) || directed_adjacent(g, b, a)
}

fn directed_adjacent(g: &TaskGraph, from: &TaskSet, to: &TaskSet) -> bool {
    from.iter().any(|t| {
        g.task(t)
            .outputs
            .iter()
            .any(|&v| g.value(v).consumers.iter().any(|&c| to.contains(c)))
    })
}

/// Total bytes of values produced inside `from` and consumed inside `to`.
///
/// Each crossing value is counted once even if several tasks in `to`
/// consume it — it is transferred across the device boundary once.
pub fn cut_bytes(g: &TaskGraph, from: &TaskSet, to: &TaskSet) -> usize {
    let mut total = 0;
    for t in from.iter() {
        for &v in &g.task(t).outputs {
            let val = g.value(v);
            if val.consumers.iter().any(|&c| to.contains(c)) {
                total += val.size_bytes();
            }
        }
    }
    total
}

/// Bytes of values produced inside `set` that leave it: consumed by a task
/// outside `set` or declared as a model output.
pub fn egress_bytes(g: &TaskGraph, set: &TaskSet) -> usize {
    let mut total = 0;
    for t in set.iter() {
        for &v in &g.task(t).outputs {
            let val = g.value(v);
            let consumed_outside = val.consumers.iter().any(|&c| !set.contains(c));
            let is_output = g.outputs().contains(&v);
            if consumed_outside || is_output {
                total += val.size_bytes();
            }
        }
    }
    total
}

/// Values produced outside `set` (or producer-less inputs) consumed inside
/// it: the tensors a stage must receive before it can run.
pub fn ingress_values(g: &TaskGraph, set: &TaskSet) -> Vec<ValueId> {
    let mut vals = Vec::new();
    for t in set.iter() {
        for &v in &g.task(t).inputs {
            let val = g.value(v);
            let produced_inside = val.producer.map(|p| set.contains(p)).unwrap_or(false);
            if !produced_inside && !vals.contains(&v) {
                vals.push(v);
            }
        }
    }
    vals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DType, OpKind, TaskGraph, ValueKind};

    /// Diamond:  x -> a -> (b, c) -> d
    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new("diamond");
        let x = g.add_value("x", [4], DType::F32, ValueKind::Input);
        let va = g.add_value("va", [4], DType::F32, ValueKind::Activation);
        let vb = g.add_value("vb", [4], DType::F32, ValueKind::Activation);
        let vc = g.add_value("vc", [4], DType::F32, ValueKind::Activation);
        let vd = g.add_value("vd", [4], DType::F32, ValueKind::Activation);
        g.add_task("a", OpKind::Relu, vec![x], vec![va]).unwrap();
        g.add_task("b", OpKind::Tanh, vec![va], vec![vb]).unwrap();
        g.add_task("c", OpKind::Gelu, vec![va], vec![vc]).unwrap();
        g.add_task("d", OpKind::Add, vec![vb, vc], vec![vd])
            .unwrap();
        g.mark_output(vd);
        g
    }

    #[test]
    fn topo_order_is_valid() {
        let g = diamond();
        let order = topo_order(&g);
        assert_eq!(order.len(), 4);
        let pos = topo_positions(&g);
        // every edge goes forward in the order
        for t in g.task_ids() {
            for s in g.task_successors(t) {
                assert!(pos[t.index()] < pos[s.index()]);
            }
        }
    }

    #[test]
    fn reachability() {
        let g = diamond();
        let a = TaskSet::singleton(4, TaskId(0));
        let r = reachable_from(&g, &a);
        assert_eq!(r.len(), 4);
        let d = TaskSet::singleton(4, TaskId(3));
        let up = reaching(&g, &d);
        assert_eq!(up.len(), 4);
        let b = TaskSet::singleton(4, TaskId(1));
        let rb = reachable_from(&g, &b);
        assert!(rb.contains(TaskId(3)));
        assert!(!rb.contains(TaskId(2)));
    }

    #[test]
    fn adjacency() {
        let g = diamond();
        let a = TaskSet::singleton(4, TaskId(0));
        let b = TaskSet::singleton(4, TaskId(1));
        let d = TaskSet::singleton(4, TaskId(3));
        assert!(adjacent(&g, &a, &b));
        assert!(adjacent(&g, &b, &a)); // symmetric
        assert!(!adjacent(&g, &a, &d));
    }

    #[test]
    fn cut_and_egress() {
        let g = diamond();
        let front = TaskSet::from_ids(4, [TaskId(0)]);
        let rest = TaskSet::from_ids(4, [TaskId(1), TaskId(2), TaskId(3)]);
        // value va crosses once (16 bytes), even though b and c both read it
        assert_eq!(cut_bytes(&g, &front, &rest), 16);
        assert_eq!(cut_bytes(&g, &rest, &front), 0);
        assert_eq!(egress_bytes(&g, &front), 16);
        // d's output is a model output -> counts as egress of `rest`
        assert_eq!(egress_bytes(&g, &rest), 16);
    }

    #[test]
    fn non_constant_classification() {
        // x --relu--> a ; w --transpose--> wt ; (a, wt) --matmul--> y
        let mut g = TaskGraph::new("nc");
        let x = g.add_value("x", [4], DType::F32, ValueKind::Input);
        let w = g.add_value("w", [4, 4], DType::F32, ValueKind::Param);
        let va = g.add_value("va", [4], DType::F32, ValueKind::Activation);
        let wt = g.add_value("wt", [4, 4], DType::F32, ValueKind::Activation);
        let y = g.add_value("y", [4], DType::F32, ValueKind::Activation);
        g.add_task("relu", OpKind::Relu, vec![x], vec![va]).unwrap();
        g.add_task("tr", OpKind::Transpose, vec![w], vec![wt])
            .unwrap();
        g.add_task("mm", OpKind::MatMul, vec![va, wt], vec![y])
            .unwrap();
        g.mark_output(y);
        let flags = non_constant_tasks(&g);
        assert!(flags[0], "relu reads the input");
        assert!(!flags[1], "transpose of a weight is constant");
        assert!(flags[2], "matmul consumes a non-constant value");
    }

    #[test]
    fn ingress() {
        let g = diamond();
        let rest = TaskSet::from_ids(4, [TaskId(1), TaskId(2), TaskId(3)]);
        let ins = ingress_values(&g, &rest);
        assert_eq!(ins.len(), 1); // just va
    }
}
