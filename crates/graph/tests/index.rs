//! The graph index against from-scratch definitions, its invalidation by
//! edits, and its sharing across clones, threads and cost models.

use rannc_cost::{CalibratedCost, Calibration, CostModel};
use rannc_graph::convex::ConvexChecker;
use rannc_graph::costs::builds_on_this_thread;
use rannc_graph::{DType, OpKind, TaskCosts, TaskGraph, TaskId, TaskSet, TpSplit, ValueKind};
use rannc_hw::{ClusterSpec, DeviceSpec};
use rannc_models::{
    bert_graph, gpt_graph, mlp_graph, resnet_graph, t5_graph, BertConfig, GptConfig, MlpConfig,
    ResNetConfig, T5Config,
};
use rannc_profile::{ProfileResult, Profiler, ProfilerOptions};
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

/// Every cost model this repository builds on `g`: analytical profilers on
/// two devices, in both precisions, one with per-op scaling, and a
/// calibrated model; each must read `g`'s one row table.
fn assert_models_share_the_rows(g: &TaskGraph) {
    let rows: &TaskCosts = g.task_costs();
    let v100 = DeviceSpec::v100_32gb();
    let profilers = [
        Profiler::new(g, v100.clone(), ProfilerOptions::fp32()),
        Profiler::new(g, v100.clone(), ProfilerOptions::mixed()),
        Profiler::new(g, DeviceSpec::a100_40gb(), ProfilerOptions::fp32()),
        Profiler::new_scaled(g, v100.clone(), ProfilerOptions::fp32(), |_| 2.0),
    ];
    for p in &profilers {
        assert!(std::ptr::eq(p.rows(), rows), "{}", g.name);
    }
    let calibrated = CalibratedCost::new(
        g,
        v100,
        ProfilerOptions::fp32(),
        Calibration::identity(),
        &ClusterSpec::v100_cluster(2),
    );
    assert!(
        std::ptr::eq(calibrated.profiler().rows(), rows),
        "{}",
        g.name
    );
}

#[test]
fn one_row_table_per_graph_and_one_more_per_edit() {
    let mut g = mlp_graph(&MlpConfig::deep(16, 16, 3, 4));
    let builds = builds_on_this_thread();
    assert_models_share_the_rows(&g);
    assert_models_share_the_rows(&g);
    assert_eq!(builds_on_this_thread(), builds + 1, "one build per graph");

    let x = g.add_value("x_extra", [4, 4], DType::F32, ValueKind::Input);
    assert_models_share_the_rows(&g);
    assert_eq!(builds_on_this_thread(), builds + 2, "add_value");
    let w = g.add_value("w_extra", [4, 4], DType::F32, ValueKind::Param);
    let wt = g.add_value("wt_extra", [4, 4], DType::F32, ValueKind::Activation);
    let y = g.add_value("y_extra", [4, 4], DType::F32, ValueKind::Activation);
    assert_models_share_the_rows(&g);
    assert_eq!(builds_on_this_thread(), builds + 3, "add_value");
    g.add_task("tr_extra", OpKind::Transpose, vec![w], vec![wt])
        .unwrap();
    assert_models_share_the_rows(&g);
    assert_eq!(builds_on_this_thread(), builds + 4, "add_task");
    let mm = g
        .add_task_scoped(
            "mm_extra",
            OpKind::MatMul,
            vec![x, wt],
            vec![y],
            "extra".into(),
        )
        .unwrap();
    assert_models_share_the_rows(&g);
    assert_eq!(builds_on_this_thread(), builds + 5, "add_task_scoped");
    g.set_tp_tag(mm, Some(TpSplit::Column));
    assert_models_share_the_rows(&g);
    assert_eq!(builds_on_this_thread(), builds + 6, "set_tp_tag");
    assert_eq!(g.task_costs().task(mm).split, TpSplit::Column);
    g.mark_output(y);
    assert_models_share_the_rows(&g);
    assert_eq!(builds_on_this_thread(), builds + 7, "mark_output");
}

#[test]
fn concurrent_first_row_reads_share_one_build() {
    let g = bert_graph(&BertConfig::tiny());
    let start = Barrier::new(2);
    // the same table, built by exactly one of the two readers
    let read = || {
        let before = builds_on_this_thread();
        start.wait();
        let rows = g.task_costs() as *const TaskCosts as usize;
        (rows, builds_on_this_thread() - before)
    };
    let ((a, built_a), (b, built_b)) = std::thread::scope(|s| {
        let a = s.spawn(read);
        let b = s.spawn(read);
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a, b);
    assert_eq!(built_a + built_b, 1);
    assert_eq!(a, g.task_costs() as *const TaskCosts as usize);
}

/// The whole graph priced at micro-batch 4 on a `tp`-wide group.
fn price_whole(g: &TaskGraph, tp: usize) -> (ProfileResult, usize) {
    let p = Profiler::new(g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
    let whole = TaskSet::from_ids(g.num_tasks(), g.task_ids());
    let set = p.profiled(&whole);
    let time = p.time_sums(whole.iter(), 4, tp);
    (
        p.profile(&set, time, 4, 2, false, tp),
        p.tp_allreduce_bytes(&set, 4),
    )
}

#[test]
fn a_profiler_after_set_tp_tag_prices_the_new_split() {
    // untag every column-split matmul of a priced graph: a profiler built
    // afterwards must price the replicated layout exactly as a fresh
    // graph untagged before its first read does
    let mut g = bert_graph(&BertConfig::tiny());
    let columns: Vec<TaskId> = g
        .task_ids()
        .filter(|&t| g.task(t).tp_tag == Some(TpSplit::Column))
        .collect();
    assert!(!columns.is_empty());
    let tps = [2, 4];
    let tagged = tps.map(|tp| price_whole(&g, tp).0);
    let mut fresh = bert_graph(&BertConfig::tiny());
    for &t in &columns {
        g.set_tp_tag(t, None);
        fresh.set_tp_tag(t, None);
    }
    for (tp, tagged) in tps.into_iter().zip(tagged) {
        let (got, got_ar) = price_whole(&g, tp);
        let (want, want_ar) = price_whole(&fresh, tp);
        assert_eq!(got.fwd_time.to_bits(), want.fwd_time.to_bits(), "tp {tp}");
        assert_eq!(got.bwd_time.to_bits(), want.bwd_time.to_bits(), "tp {tp}");
        assert_eq!(
            (got.mem_bytes, got_ar),
            (want.mem_bytes, want_ar),
            "tp {tp}"
        );
        // and the retag moved the price
        assert!(got.fwd_time > tagged.fwd_time, "tp {tp}");
        assert!(got.mem_bytes > tagged.mem_bytes, "tp {tp}");
    }
}
