//! Graph well-formedness: connectivity, acyclicity, reachability and
//! per-operator shape/dtype inference rules.
//!
//! [`TaskGraph`]'s construction API already rejects the worst malformations
//! (dangling value refs, duplicate producers, static outputs), but graphs
//! can also arrive from deserialization or hand assembly, and `validate()`
//! stops at the first problem. This pass re-checks everything, reports
//! *all* findings, and adds the checks `validate()` lacks: dead tasks,
//! producer/consumer back-link consistency, the shape rules the
//! builders in `rannc-graph::builder` enforce only at construction time,
//! and the consistency of the tensor-parallel split rule.

use crate::diag::{Code, Diagnostic, Location, Report};
use rannc_graph::shape::{DType, Shape};
use rannc_graph::{traverse, OpKind, Task, TaskGraph, TaskSet, TpSplit, ValueKind};

/// Run every graph check and collect the findings.
pub fn verify_graph(g: &TaskGraph) -> Report {
    let mut r = Report::new();
    check_value_refs(g, &mut r);
    check_producers(g, &mut r);
    check_static_markers(g, &mut r);
    check_links(g, &mut r);
    let acyclic = check_cycle(g, &mut r);
    check_outputs(g, &mut r);
    if acyclic {
        check_reachability(g, &mut r);
        check_tp_splits(g, &mut r);
    }
    check_shapes(g, &mut r);
    r
}

/// RV009: the graph's tensor-parallel splits ([`rannc_graph::split`])
/// form Megatron regions. Every row-split matmul reads a column- or
/// head-split activation, and a split tensor leaves its region only
/// through a row-split matmul: each consumer is one, or an untagged task
/// that inherits a split, and no split tensor is a model output.
/// Anything else would need a collective the cost model never prices.
fn check_tp_splits(g: &TaskGraph, r: &mut Report) {
    let index = g.index();
    let carried = |v: rannc_graph::ValueId| {
        g.value(v)
            .producer
            .map_or(TpSplit::Replicated, |p| index.split(p).carried())
    };
    for (t, task) in g.tasks() {
        let split = index.split(t);
        if split == TpSplit::Row && !task.inputs.iter().any(|&v| carried(v).shards_output()) {
            r.push(Diagnostic::new(
                Code::TpSplitInconsistent,
                Location::Task(t.0),
                format!(
                    "row-split task `{}` reads no column- or head-split activation",
                    task.name
                ),
            ));
        }
        if !split.shards_output() {
            continue;
        }
        for &v in &task.outputs {
            if g.outputs().contains(&v) {
                r.push(Diagnostic::new(
                    Code::TpSplitInconsistent,
                    Location::Value(v.0),
                    format!(
                        "{split:?}-split output of `{}` is a model output",
                        task.name
                    ),
                ));
            }
            for &c in &g.value(v).consumers {
                let consumer = g.task(c);
                let inherits = consumer.tp_tag.is_none() && index.split(c).shards_output();
                if !inherits && index.split(c) != TpSplit::Row {
                    r.push(Diagnostic::new(
                        Code::TpSplitInconsistent,
                        Location::Task(c.0),
                        format!(
                            "{:?}-split task `{}` reads the {split:?}-split output of `{}`: \
                             a split tensor leaves its region other than through a \
                             row-split matmul",
                            index.split(c),
                            consumer.name,
                            task.name
                        ),
                    ));
                }
            }
        }
    }
}

/// RV001: every task input/output id must name an existing value, and
/// every declared model output must exist.
fn check_value_refs(g: &TaskGraph, r: &mut Report) {
    let n = g.num_values();
    for (t, task) in g.tasks() {
        for &v in task.inputs.iter().chain(task.outputs.iter()) {
            if v.index() >= n {
                r.push(Diagnostic::new(
                    Code::DanglingValueRef,
                    Location::Task(t.0),
                    format!("task `{}` references nonexistent value v{}", task.name, v.0),
                ));
            }
        }
    }
    for &o in g.outputs() {
        if o.index() >= n {
            r.push(Diagnostic::new(
                Code::DanglingValueRef,
                Location::Model,
                format!("declared model output v{} does not exist", o.0),
            ));
        }
    }
}

/// RV002: no value may be produced by more than one task.
fn check_producers(g: &TaskGraph, r: &mut Report) {
    let mut producer: Vec<Option<u32>> = vec![None; g.num_values()];
    for (t, task) in g.tasks() {
        for &v in &task.outputs {
            if v.index() >= g.num_values() {
                continue; // RV001 already reported
            }
            match producer[v.index()] {
                Some(first) => r.push(Diagnostic::new(
                    Code::MultiProducer,
                    Location::Value(v.0),
                    format!(
                        "value `{}` produced by both task t{first} and task t{}",
                        g.value(v).name,
                        t.0
                    ),
                )),
                None => producer[v.index()] = Some(t.0),
            }
        }
    }
}

/// RV006: params/consts must have no producer; activations must have one.
fn check_static_markers(g: &TaskGraph, r: &mut Report) {
    for (v, val) in g.values() {
        match val.kind {
            ValueKind::Param | ValueKind::Const | ValueKind::Input => {
                if let Some(p) = val.producer {
                    r.push(Diagnostic::new(
                        Code::MislabeledStatic,
                        Location::Value(v.0),
                        format!(
                            "{:?} value `{}` is produced by task t{} — should be an Activation",
                            val.kind, val.name, p.0
                        ),
                    ));
                }
            }
            ValueKind::Activation => {
                if val.producer.is_none() {
                    r.push(Diagnostic::new(
                        Code::MislabeledStatic,
                        Location::Value(v.0),
                        format!(
                            "activation `{}` has no producer — should be an Input/Param/Const",
                            val.name
                        ),
                    ));
                }
            }
        }
    }
}

/// RV007: the redundant producer/consumer back-links on values must agree
/// with the task input/output lists.
fn check_links(g: &TaskGraph, r: &mut Report) {
    for (v, val) in g.values() {
        if let Some(p) = val.producer {
            let listed = p.index() < g.num_tasks() && g.task(p).outputs.contains(&v);
            if !listed {
                r.push(Diagnostic::new(
                    Code::InconsistentLinks,
                    Location::Value(v.0),
                    format!(
                        "value `{}` claims producer t{} but that task does not output it",
                        val.name, p.0
                    ),
                ));
            }
        }
        for &c in &val.consumers {
            let listed = c.index() < g.num_tasks() && g.task(c).inputs.contains(&v);
            if !listed {
                r.push(Diagnostic::new(
                    Code::InconsistentLinks,
                    Location::Value(v.0),
                    format!(
                        "value `{}` claims consumer t{} but that task does not input it",
                        val.name, c.0
                    ),
                ));
            }
        }
    }
}

/// RV003: Kahn's algorithm must order every task. Returns whether the
/// graph is acyclic (reachability and plan checks need a topo order).
fn check_cycle(g: &TaskGraph, r: &mut Report) -> bool {
    let order = g.index().order();
    if order.len() != g.num_tasks() {
        let in_order = TaskSet::from_ids(g.num_tasks(), order.iter().copied());
        let stuck = g.task_ids().find(|&t| !in_order.contains(t));
        r.push(Diagnostic::new(
            Code::GraphCycle,
            stuck
                .map(|t| Location::Task(t.0))
                .unwrap_or(Location::Model),
            format!(
                "task graph has a cycle: {} of {} tasks cannot be topologically ordered",
                g.num_tasks() - order.len(),
                g.num_tasks()
            ),
        ));
        return false;
    }
    true
}

/// RV008: a trainable graph should declare at least one output.
fn check_outputs(g: &TaskGraph, r: &mut Report) {
    if g.outputs().is_empty() && g.num_tasks() > 0 {
        r.push(Diagnostic::new(
            Code::NoModelOutputs,
            Location::Model,
            "graph declares no model outputs; every task is dead code",
        ));
    }
}

/// RV004: every task should reach a declared model output (otherwise its
/// work — and its activation memory — is wasted).
fn check_reachability(g: &TaskGraph, r: &mut Report) {
    if g.outputs().is_empty() {
        return; // RV008 covers this case
    }
    let targets = TaskSet::from_ids(
        g.num_tasks(),
        g.outputs()
            .iter()
            .filter(|o| o.index() < g.num_values())
            .filter_map(|&o| g.value(o).producer),
    );
    let live = traverse::reaching(g, &targets);
    for (t, task) in g.tasks() {
        if !live.contains(t) {
            r.push(Diagnostic::new(
                Code::UnreachableTask,
                Location::Task(t.0),
                format!("task `{}` cannot reach any model output", task.name),
            ));
        }
    }
}

/// RV005: output shapes/dtypes must satisfy the operator inference rules.
fn check_shapes(g: &TaskGraph, r: &mut Report) {
    for (t, task) in g.tasks() {
        if task
            .inputs
            .iter()
            .chain(task.outputs.iter())
            .any(|v| v.index() >= g.num_values())
        {
            continue; // RV001 already reported
        }
        if let Some(msg) = shape_rule_violation(g, task) {
            r.push(Diagnostic::new(
                Code::ShapeRuleViolation,
                Location::Task(t.0),
                format!("task `{}` ({}): {msg}", task.name, task.op.name()),
            ));
        }
    }
}

/// The inference rule for one task, mirroring `GraphBuilder` exactly.
///
/// Operators whose output shape is free (`Slice`, `Concat`) and tasks with
/// unusual arities are skipped rather than guessed at — the verifier must
/// never reject a graph the builders can produce.
fn shape_rule_violation(g: &TaskGraph, task: &Task) -> Option<String> {
    let [out] = task.outputs[..] else { return None };
    let out = g.value(out);
    let in0 = task.inputs.first().map(|&v| g.value(v));
    let mirror_first = |what: &str| -> Option<String> {
        let x = in0?;
        if out.shape != x.shape || out.dtype != x.dtype {
            Some(format!(
                "{what} output must mirror first input: in {}/{:?}, out {}/{:?}",
                x.shape, x.dtype, out.shape, out.dtype
            ))
        } else {
            None
        }
    };
    match &task.op {
        OpKind::Softmax
        | OpKind::Gelu
        | OpKind::Relu
        | OpKind::Tanh
        | OpKind::Sigmoid
        | OpKind::Dropout
        | OpKind::Identity
        | OpKind::LayerNorm
        | OpKind::BatchNorm => mirror_first("element-wise"),
        // the second operand may broadcast; only the first is binding
        OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div | OpKind::Bias => {
            mirror_first("broadcasting")
        }
        OpKind::MatMul => {
            let (x, w) = (in0?, g.value(*task.inputs.get(1)?));
            if w.shape.rank() != 2 {
                return Some(format!("weight must be 2-D, got {}", w.shape));
            }
            if x.shape.rank() == 0 || x.shape.dim(x.shape.rank() - 1) != w.shape.dim(0) {
                return Some(format!("inner-dim mismatch: {} x {}", x.shape, w.shape));
            }
            let mut want = x.shape.dims().to_vec();
            *want.last_mut().unwrap() = w.shape.dim(1);
            expect_shape(out, &Shape::new(want), x.dtype)
        }
        OpKind::BatchedMatMul => {
            let (a, b) = (in0?, g.value(*task.inputs.get(1)?));
            if a.shape.rank() < 2 || b.shape.rank() < 2 {
                return Some(format!("bmm needs rank >= 2: {} x {}", a.shape, b.shape));
            }
            if a.shape.dim(a.shape.rank() - 1) != b.shape.dim(b.shape.rank() - 2) {
                return Some(format!("inner-dim mismatch: {} x {}", a.shape, b.shape));
            }
            let mut want = a.shape.dims().to_vec();
            let last = want.len() - 1;
            want[last] = b.shape.dim(b.shape.rank() - 1);
            expect_shape(out, &Shape::new(want), a.dtype)
        }
        OpKind::Conv2d {
            kernel,
            stride,
            padding,
        } => {
            let (x, k) = (in0?, g.value(*task.inputs.get(1)?));
            if x.shape.rank() != 3 {
                return Some(format!("conv2d input must be [c,h,w], got {}", x.shape));
            }
            if k.shape.rank() != 4 || k.shape.dim(1) != x.shape.dim(0) {
                return Some(format!(
                    "kernel must be [c_out, {}, kh, kw], got {}",
                    x.shape.dim(0),
                    k.shape
                ));
            }
            let h = (x.shape.dim(1) + 2 * padding.0).checked_sub(kernel.0);
            let w = (x.shape.dim(2) + 2 * padding.1).checked_sub(kernel.1);
            let (Some(h), Some(w)) = (h, w) else {
                return Some(format!("kernel exceeds padded input {}", x.shape));
            };
            expect_shape(
                out,
                &Shape::from([k.shape.dim(0), h / stride.0 + 1, w / stride.1 + 1]),
                x.dtype,
            )
        }
        OpKind::MaxPool { kernel, stride } | OpKind::AvgPool { kernel, stride } => {
            let x = in0?;
            if x.shape.rank() != 3 {
                return Some(format!("pool input must be [c,h,w], got {}", x.shape));
            }
            let (Some(h), Some(w)) = (
                x.shape.dim(1).checked_sub(kernel.0),
                x.shape.dim(2).checked_sub(kernel.1),
            ) else {
                return Some(format!("kernel exceeds input {}", x.shape));
            };
            expect_shape(
                out,
                &Shape::from([x.shape.dim(0), h / stride.0 + 1, w / stride.1 + 1]),
                x.dtype,
            )
        }
        OpKind::GlobalAvgPool => {
            let x = in0?;
            if x.shape.rank() != 3 {
                return Some(format!("pool input must be [c,h,w], got {}", x.shape));
            }
            expect_shape(out, &Shape::from([x.shape.dim(0)]), x.dtype)
        }
        OpKind::Transpose | OpKind::Reshape => {
            let x = in0?;
            if out.shape.numel() != x.shape.numel() || out.dtype != x.dtype {
                Some(format!(
                    "layout op must preserve element count and dtype: in {}/{:?}, out {}/{:?}",
                    x.shape, x.dtype, out.shape, out.dtype
                ))
            } else {
                None
            }
        }
        OpKind::Embedding => {
            let (ids, table) = (in0?, g.value(*task.inputs.get(1)?));
            if table.shape.rank() != 2 {
                return Some(format!("embedding table must be 2-D, got {}", table.shape));
            }
            let mut want = ids.shape.dims().to_vec();
            want.push(table.shape.dim(1));
            expect_shape(out, &Shape::new(want), DType::F32)
        }
        OpKind::CrossEntropy => expect_shape(out, &Shape::scalar(), DType::F32),
        // output shape is operator-data dependent; no static rule
        OpKind::Slice | OpKind::Concat => None,
    }
}

fn expect_shape(out: &rannc_graph::Value, want: &Shape, want_dtype: DType) -> Option<String> {
    if &out.shape != want || out.dtype != want_dtype {
        Some(format!(
            "expected output {want}/{want_dtype:?}, got {}/{:?}",
            out.shape, out.dtype
        ))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc_graph::{GraphBuilder, TaskGraph, ValueKind};

    fn clean_mlp() -> TaskGraph {
        let mut b = GraphBuilder::new("mlp");
        let x = b.input("x", [16], DType::F32);
        let h = b.linear("fc1", x, 16, 32);
        let h = b.unary(OpKind::Relu, h);
        let y = b.linear("fc2", h, 32, 4);
        let labels = b.input("labels", [1], DType::I64);
        let loss = b.cross_entropy(y, labels);
        b.output(loss);
        b.finish()
    }

    #[test]
    fn clean_graph_verifies_clean() {
        let r = verify_graph(&clean_mlp());
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn cycle_reported() {
        // t0: x,b -> a ; t1: a -> b  — a 2-cycle through values
        let mut g = TaskGraph::new("loop");
        let x = g.add_value("x", [1], DType::F32, ValueKind::Input);
        let a = g.add_value("a", [1], DType::F32, ValueKind::Activation);
        let bv = g.add_value("b", [1], DType::F32, ValueKind::Activation);
        g.add_task("t0", OpKind::Add, vec![x, bv], vec![a]).unwrap();
        g.add_task("t1", OpKind::Relu, vec![a], vec![bv]).unwrap();
        g.mark_output(bv);
        let r = verify_graph(&g);
        assert!(r.has_code(Code::GraphCycle), "{}", r.render());
        assert!(r.has_errors());
    }

    #[test]
    fn orphan_activation_reported() {
        let mut g = TaskGraph::new("orphan");
        let a = g.add_value("ghost", [4], DType::F32, ValueKind::Activation);
        let o = g.add_value("o", [4], DType::F32, ValueKind::Activation);
        g.add_task("t0", OpKind::Relu, vec![a], vec![o]).unwrap();
        g.mark_output(o);
        let r = verify_graph(&g);
        assert!(r.has_code(Code::MislabeledStatic), "{}", r.render());
    }

    #[test]
    fn unreachable_task_is_a_warning() {
        let mut b = GraphBuilder::new("dead");
        let x = b.input("x", [8], DType::F32);
        let y = b.unary(OpKind::Relu, x);
        b.unary(OpKind::Tanh, x); // dead branch, never consumed or output
        b.output(y);
        let g = b.finish();
        let r = verify_graph(&g);
        assert!(r.has_code(Code::UnreachableTask), "{}", r.render());
        assert!(!r.has_errors(), "{}", r.render());
    }

    #[test]
    fn no_outputs_is_a_warning() {
        let mut b = GraphBuilder::new("no-out");
        let x = b.input("x", [8], DType::F32);
        b.unary(OpKind::Relu, x);
        // not calling finish(): validate() allows this too, but we want
        // the graph without output marking
        let g = b.graph().clone();
        let r = verify_graph(&g);
        assert!(r.has_code(Code::NoModelOutputs), "{}", r.render());
        assert!(!r.has_errors());
    }

    #[test]
    fn matmul_shape_violation_reported() {
        let mut g = TaskGraph::new("badmm");
        let x = g.add_value("x", [4, 16], DType::F32, ValueKind::Input);
        let w = g.add_value("w", [16, 8], DType::F32, ValueKind::Param);
        // wrong output: should be [4, 8]
        let y = g.add_value("y", [4, 99], DType::F32, ValueKind::Activation);
        g.add_task("mm", OpKind::MatMul, vec![x, w], vec![y])
            .unwrap();
        g.mark_output(y);
        let r = verify_graph(&g);
        assert!(r.has_code(Code::ShapeRuleViolation), "{}", r.render());
    }

    #[test]
    fn elementwise_dtype_violation_reported() {
        let mut g = TaskGraph::new("baddtype");
        let x = g.add_value("x", [4], DType::F32, ValueKind::Input);
        let y = g.add_value("y", [4], DType::I64, ValueKind::Activation);
        g.add_task("relu", OpKind::Relu, vec![x], vec![y]).unwrap();
        g.mark_output(y);
        let r = verify_graph(&g);
        assert!(r.has_code(Code::ShapeRuleViolation), "{}", r.render());
    }

    fn model_zoo() -> Vec<TaskGraph> {
        use rannc_models::*;
        vec![
            bert_graph(&BertConfig::tiny()),
            gpt_graph(&GptConfig::tiny()),
            t5_graph(&T5Config::tiny()),
            mlp_graph(&MlpConfig::deep(32, 64, 4, 10)),
            mlp_graph(&MlpConfig::deep(32, 64, 5, 10)),
            resnet_graph(&ResNetConfig::tiny()),
        ]
    }

    #[test]
    fn every_builder_has_consistent_tp_splits() {
        for g in model_zoo() {
            let r = verify_graph(&g);
            assert!(
                !r.has_code(Code::TpSplitInconsistent),
                "{}: {}",
                g.name,
                r.render()
            );
            let splits = g.task_ids().map(|t| g.index().split(t));
            let rows = splits.filter(|&s| s == TpSplit::Row).count();
            if g.name.starts_with("resnet") {
                assert_eq!(rows, 0, "{}", g.name);
            } else {
                assert!(rows > 0, "{} has no row-split matmul", g.name);
            }
        }
    }

    #[test]
    fn replicated_row_matmul_trips_rv009() {
        for mut g in model_zoo() {
            let Some(row) = g.task_ids().find(|&t| g.index().split(t) == TpSplit::Row) else {
                continue; // ResNet: nothing to retag
            };
            g.set_tp_tag(row, Some(TpSplit::Replicated));
            let r = verify_graph(&g);
            assert!(r.has_code(Code::TpSplitInconsistent), "{}", g.name);
            let d = r
                .diagnostics
                .iter()
                .find(|d| d.code == Code::TpSplitInconsistent)
                .unwrap();
            assert_eq!(d.location, Location::Task(row.0), "{}: {d}", g.name);
        }
    }

    #[test]
    fn row_matmul_without_split_input_trips_rv009() {
        let mut b = GraphBuilder::new("lonely-row");
        let x = b.input("x", [4, 8], DType::F32);
        let y = b.linear_row("r", x, 8, 8);
        b.output(y);
        let r = verify_graph(&b.finish());
        assert!(r.has_code(Code::TpSplitInconsistent), "{}", r.render());
    }

    #[test]
    fn slice_output_shape_is_unchecked() {
        let mut g = TaskGraph::new("slice");
        let x = g.add_value("x", [16, 8], DType::F32, ValueKind::Input);
        let y = g.add_value("y", [1, 8], DType::F32, ValueKind::Activation);
        g.add_task("s", OpKind::Slice, vec![x], vec![y]).unwrap();
        g.mark_output(y);
        let r = verify_graph(&g);
        assert!(!r.has_code(Code::ShapeRuleViolation), "{}", r.render());
    }
}
