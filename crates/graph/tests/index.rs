//! The graph index against from-scratch definitions, its invalidation by
//! edits, and its sharing across clones and threads.

use rannc_graph::convex::ConvexChecker;
use rannc_graph::{DType, OpKind, TaskGraph, TaskId, ValueKind};
use rannc_models::{
    bert_graph, gpt_graph, mlp_graph, resnet_graph, t5_graph, BertConfig, GptConfig, MlpConfig,
    ResNetConfig, T5Config,
};
use std::sync::Barrier;

/// Distinct consumers of `t`'s outputs, ascending, from the value links.
fn successors_by_definition(g: &TaskGraph, t: TaskId) -> Vec<TaskId> {
    let mut succs: Vec<TaskId> = g
        .task(t)
        .outputs
        .iter()
        .flat_map(|&v| g.value(v).consumers.iter().copied())
        .collect();
    succs.sort_unstable();
    succs.dedup();
    succs
}

/// Kahn's algorithm: in-degree is the number of distinct producers of a
/// task's inputs; sources start the queue in id order and each popped
/// task releases its successors ascending.
fn kahn(g: &TaskGraph) -> Vec<TaskId> {
    let mut indegree: Vec<usize> = g.task_ids().map(|t| g.task_predecessors(t).len()).collect();
    let mut queue: Vec<TaskId> = g.task_ids().filter(|t| indegree[t.index()] == 0).collect();
    let mut head = 0;
    while head < queue.len() {
        let t = queue[head];
        head += 1;
        for s in successors_by_definition(g, t) {
            indegree[s.index()] -= 1;
            if indegree[s.index()] == 0 {
                queue.push(s);
            }
        }
    }
    queue
}

/// Paper §III-A's forward walk from the model input: a task is
/// non-constant when it reads the model input or a non-constant task's
/// output.
fn non_constant_by_definition(g: &TaskGraph, order: &[TaskId]) -> Vec<bool> {
    let mut flags = vec![false; g.num_tasks()];
    for &t in order {
        flags[t.index()] = g.task(t).inputs.iter().any(|&v| {
            let val = g.value(v);
            val.producer
                .map_or(val.kind == ValueKind::Input, |p| flags[p.index()])
        });
    }
    flags
}

fn assert_index_matches_definitions(g: &TaskGraph) {
    let index = g.index();
    let order = kahn(g);
    assert_eq!(index.order(), &order[..], "{}: order", g.name);
    assert_eq!(index.is_acyclic(), order.len() == g.num_tasks());
    if index.is_acyclic() {
        for (rank, t) in order.iter().enumerate() {
            assert_eq!(index.positions()[t.index()], rank as u32, "{}: pos", g.name);
        }
    }
    for t in g.task_ids() {
        assert_eq!(
            index.successors(t),
            &successors_by_definition(g, t)[..],
            "{}: successors of {t}",
            g.name
        );
        assert_eq!(
            index.predecessors(t),
            &g.task_predecessors(t)[..],
            "{}: predecessors of {t}",
            g.name
        );
    }
    assert_eq!(
        index.non_constant(),
        &non_constant_by_definition(g, &order)[..],
        "{}: non-constant flags",
        g.name
    );
}

fn model_zoo() -> Vec<TaskGraph> {
    vec![
        bert_graph(&BertConfig::tiny()),
        gpt_graph(&GptConfig::tiny()),
        t5_graph(&T5Config::tiny()),
        resnet_graph(&ResNetConfig::tiny()),
        mlp_graph(&MlpConfig::deep(64, 64, 8, 10)),
    ]
}

/// t0: x,b -> a ; t1: a -> b (a 2-cycle) ; t2: x -> c, outside it.
fn cyclic() -> TaskGraph {
    let mut g = TaskGraph::new("loop");
    let x = g.add_value("x", [1], DType::F32, ValueKind::Input);
    let a = g.add_value("a", [1], DType::F32, ValueKind::Activation);
    let b = g.add_value("b", [1], DType::F32, ValueKind::Activation);
    let c = g.add_value("c", [1], DType::F32, ValueKind::Activation);
    g.add_task("t0", OpKind::Add, vec![x, b], vec![a]).unwrap();
    g.add_task("t1", OpKind::Relu, vec![a], vec![b]).unwrap();
    g.add_task("t2", OpKind::Relu, vec![x], vec![c]).unwrap();
    g.mark_output(b);
    g.mark_output(c);
    g
}

#[test]
fn index_matches_definitions_on_model_zoo() {
    for g in model_zoo() {
        assert!(g.index().is_acyclic(), "{}", g.name);
        // every family has both kinds of task
        assert!(g.index().non_constant().iter().any(|&nc| nc), "{}", g.name);
        assert_index_matches_definitions(&g);
    }
}

#[test]
fn cyclic_graph_has_a_short_order_and_no_positions() {
    let g = cyclic();
    assert_index_matches_definitions(&g);
    assert_eq!(g.index().order(), &[TaskId(2)]);
    assert!(!g.index().is_acyclic());
    assert_eq!(g.validate(), Err(rannc_graph::graph::GraphError::Cycle));
    let positions = std::panic::catch_unwind(|| g.index().positions().len());
    assert!(positions.is_err(), "positions of a cyclic graph");
    let checker = std::panic::catch_unwind(|| {
        ConvexChecker::new(&g);
    });
    assert!(checker.is_err(), "ConvexChecker::new on a cyclic graph");
}

#[test]
fn edits_after_a_read_rebuild_the_index() {
    let mut g = mlp_graph(&MlpConfig::deep(16, 16, 3, 4));
    assert_index_matches_definitions(&g);
    let last = *g.outputs().last().unwrap();

    let w = g.add_value("w_extra", [4, 4], DType::F32, ValueKind::Param);
    let wt = g.add_value("wt_extra", [4, 4], DType::F32, ValueKind::Activation);
    assert_index_matches_definitions(&g);
    // a constant task, then a non-constant one reading it
    g.add_task("tr_extra", OpKind::Transpose, vec![w], vec![wt])
        .unwrap();
    assert_index_matches_definitions(&g);
    let y = g.add_value("y_extra", [4], DType::F32, ValueKind::Activation);
    let mm = g
        .add_task("mm_extra", OpKind::MatMul, vec![last, wt], vec![y])
        .unwrap();
    assert_index_matches_definitions(&g);
    assert_eq!(*g.index().order().last().unwrap(), mm);
    assert!(g.index().non_constant()[mm.index()]);
    assert!(!g.index().non_constant()[mm.index() - 1]);
    g.mark_output(y);
    assert_index_matches_definitions(&g);
}

#[test]
fn a_clone_has_an_equal_index() {
    for g in model_zoo() {
        // cloned before and after the first read
        let before = g.clone();
        let index = g.index().clone();
        let after = g.clone();
        assert_eq!(before.index(), &index, "{}", g.name);
        assert_eq!(after.index(), &index, "{}", g.name);
    }
}

#[test]
fn concurrent_first_reads_share_one_index() {
    let g = bert_graph(&BertConfig::tiny());
    let start = Barrier::new(2);
    // the same order buffer: one build, seen by both readers
    let read = || {
        start.wait();
        g.index().order().as_ptr() as usize
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(read);
        let b = s.spawn(read);
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a, b);
    assert_eq!(a, g.index().order().as_ptr() as usize);
    assert_index_matches_definitions(&g);
}
