//! Atomic-level partitioning (paper §III-A).
//!
//! The first phase converts the task graph into *atomic subcomponents*:
//! the finest-grained units later phases combine into blocks and stages.
//! Each atomic subcomponent contains **exactly one non-constant task**
//! (a task whose output depends on the model input) plus the constant
//! tasks feeding it (e.g. the transpose of a weight matrix in Fig. 2(b)).
//!
//! The paper's two-sweep procedure:
//!
//! 1. a forward sweep classifies tasks as constant / non-constant
//!    (the graph index's [`rannc_graph::GraphIndex::non_constant`]);
//! 2. a backward sweep forms one subcomponent per non-constant task and
//!    folds every constant task into the subcomponent(s) consuming its
//!    output — *cloning* it when the output fans out to several
//!    subcomponents ("we clone the task and its (constant) predecessors
//!    and put each one of them into a target subcomponent").
//!
//! Cloning is represented here by letting a constant task's id appear in
//! several [`TaskSet`]s; each owner accounts for the (cheap) constant
//! computation independently, exactly like the paper's physical clones.

use rannc_graph::{TaskGraph, TaskSet};

/// Result of the atomic-level phase.
#[derive(Debug, Clone)]
pub struct AtomicPartition {
    /// Atomic subcomponents in topological order of their non-constant
    /// task. Constant tasks may appear in more than one set (clones).
    pub sets: Vec<TaskSet>,
}

impl AtomicPartition {
    /// Number of atomic subcomponents.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether there are no subcomponents (empty graph).
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

/// Run atomic-level partitioning.
pub fn atomic_partition(g: &TaskGraph) -> AtomicPartition {
    let n = g.num_tasks();
    let index = g.index();
    let (non_constant, order) = (index.non_constant(), index.order());

    // One subcomponent per non-constant task, created along the
    // topological order (so components end up topologically sorted).
    const NONE: u32 = u32::MAX;
    let mut comp = vec![NONE; n];
    let mut sets: Vec<TaskSet> = Vec::new();
    for &t in order {
        if non_constant[t.index()] {
            comp[t.index()] = sets.len() as u32;
            sets.push(TaskSet::singleton(n, t));
        }
    }

    // Backward sweep: fold each constant task into the component(s) of its
    // consumers — a non-constant consumer's own component, a constant
    // consumer's owners. Reverse topological order guarantees consumers
    // are already assigned.
    let mut owners_of: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &t in order.iter().rev() {
        if non_constant[t.index()] {
            continue;
        }
        let mut owners: Vec<u32> = Vec::new();
        for &s in index.successors(t) {
            let of_s = match comp[s.index()] {
                NONE => &owners_of[s.index()][..],
                c => &[c][..],
            };
            for &c in of_s {
                if !owners.contains(&c) {
                    owners.push(c);
                }
            }
        }
        for &c in &owners {
            sets[c as usize].insert(t);
        }
        owners_of[t.index()] = owners;
    }

    AtomicPartition { sets }
}

/// Check the §III-A invariants; used by tests and debug assertions.
///
/// Returns an error message on the first violation.
pub fn check_invariants(g: &TaskGraph, p: &AtomicPartition) -> Result<(), String> {
    let n = g.num_tasks();
    let non_constant = g.index().non_constant();
    // every set has exactly one non-constant task
    for (i, s) in p.sets.iter().enumerate() {
        let nc = s.iter().filter(|t| non_constant[t.index()]).count();
        if nc != 1 {
            return Err(format!("subcomponent {i} has {nc} non-constant tasks"));
        }
    }
    // every task that has a path to an output is covered
    let mut covered = TaskSet::new(n);
    for s in &p.sets {
        covered.union_with(s);
    }
    for t in g.task_ids() {
        let reaches_consumer = g
            .task(t)
            .outputs
            .iter()
            .any(|&v| !g.value(v).consumers.is_empty() || g.outputs().contains(&v));
        if reaches_consumer && !covered.contains(t) {
            return Err(format!("task {t} not covered by any subcomponent"));
        }
    }
    // non-constant tasks appear in exactly one set
    for t in g.task_ids() {
        if non_constant[t.index()] {
            let owners = p.sets.iter().filter(|s| s.contains(t)).count();
            if owners != 1 {
                return Err(format!("non-constant task {t} appears in {owners} sets"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc_graph::{DType, GraphBuilder, OpKind, ValueKind};
    use rannc_models::{bert_graph, mlp_graph, BertConfig, MlpConfig};

    /// Fig. 2(b)-style graph: two weight transposes (constant tasks)
    /// feeding matmuls, one shared constant chain with fan-out.
    fn fig2_like() -> rannc_graph::TaskGraph {
        let mut b = GraphBuilder::new("fig2");
        let x = b.input("x", [4, 4], DType::F32);
        let w1 = b.param("w1", [4, 4]);
        let w3 = b.param("w3", [4, 4]);
        let w1t = b.transpose(w1, [4, 4]); // constant task
        let w3t = b.transpose(w3, [4, 4]); // constant task
        let h = b.matmul(x, w1t);
        let h = b.unary(OpKind::Relu, h);
        let y = b.matmul(h, w3t);
        b.output(y);
        b.finish()
    }

    #[test]
    fn fig2_components() {
        let g = fig2_like();
        let p = atomic_partition(&g);
        check_invariants(&g, &p).unwrap();
        // non-constant tasks: matmul, relu, matmul -> 3 components
        assert_eq!(p.len(), 3);
        // the transposes are folded into the matmul components
        let transposes: Vec<_> = g
            .tasks()
            .filter(|(_, t)| t.op == OpKind::Transpose)
            .map(|(id, _)| id)
            .collect();
        for tr in transposes {
            assert!(p.sets.iter().any(|s| s.contains(tr) && s.len() == 2));
        }
    }

    #[test]
    fn constant_fanout_is_cloned() {
        // A constant task whose output feeds two different non-constant
        // consumers must appear in both components.
        let mut b = GraphBuilder::new("fanout");
        let x = b.input("x", [4, 4], DType::F32);
        let w = b.param("w", [4, 4]);
        let wt = b.transpose(w, [4, 4]); // constant, fans out
        let y1 = b.matmul(x, wt);
        let x2 = b.unary(OpKind::Relu, x);
        let y2 = b.matmul(x2, wt);
        b.output(y1);
        b.output(y2);
        let g = b.finish();
        let p = atomic_partition(&g);
        check_invariants(&g, &p).unwrap();
        let wt_task = g
            .tasks()
            .find(|(_, t)| t.op == OpKind::Transpose)
            .unwrap()
            .0;
        let owners = p.sets.iter().filter(|s| s.contains(wt_task)).count();
        assert_eq!(owners, 2, "fan-out constant task must be cloned");
    }

    #[test]
    fn constant_chains_are_folded() {
        // param -> transpose -> reshape -> matmul: both layout tasks are
        // constant and must fold into the matmul's component.
        let mut b = GraphBuilder::new("chain");
        let x = b.input("x", [4, 4], DType::F32);
        let w = b.param("w", [4, 4]);
        let wt = b.transpose(w, [4, 4]);
        let wr = b.reshape(wt, [4, 4]);
        let y = b.matmul(x, wr);
        b.output(y);
        let g = b.finish();
        let p = atomic_partition(&g);
        check_invariants(&g, &p).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.sets[0].len(), 3);
    }

    #[test]
    fn mlp_components_match_task_count() {
        let g = mlp_graph(&MlpConfig::deep(16, 16, 3, 4));
        let p = atomic_partition(&g);
        check_invariants(&g, &p).unwrap();
        // MLP has no constant tasks: every task is its own component
        assert_eq!(p.len(), g.num_tasks());
    }

    #[test]
    fn bert_tiny_component_granularity() {
        let g = bert_graph(&BertConfig::tiny());
        let p = atomic_partition(&g);
        check_invariants(&g, &p).unwrap();
        // the vast majority of tasks are non-constant; the paper reports
        // ~15k atomic subcomponents for a 256-layer BERT (~29/layer — our
        // builder produces ~34 non-constant tasks/layer).
        assert!(p.len() > 60, "components = {}", p.len());
        assert!(p.len() <= g.num_tasks());
    }

    #[test]
    fn components_topologically_ordered() {
        let g = bert_graph(&BertConfig::tiny());
        let p = atomic_partition(&g);
        let pos = g.index().positions();
        // the unique non-constant task of each set is ordered
        let mut last = 0u32;
        for s in &p.sets {
            let t = s
                .iter()
                .find(|t| g.index().non_constant()[t.index()])
                .expect("one non-constant task");
            assert!(pos[t.index()] >= last);
            last = pos[t.index()];
        }
    }

    #[test]
    fn input_only_graph_has_no_components() {
        let mut g = rannc_graph::TaskGraph::new("empty");
        let _ = g.add_value("x", [1], DType::F32, ValueKind::Input);
        let p = atomic_partition(&g);
        assert!(p.is_empty());
    }
}
