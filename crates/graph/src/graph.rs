//! The [`TaskGraph`] container: tasks, values and their connectivity.

use crate::shape::{DType, Shape};
use crate::{OpKind, TaskId, ValueId, ValueKind};

/// A tensor value node.
#[derive(Debug, Clone)]
pub struct Value {
    /// Human-readable name (unique names are the builder's responsibility).
    pub name: String,
    /// Per-sample shape (no batch dimension; see `rannc_graph::shape`).
    pub shape: Shape,
    /// Element type.
    pub dtype: DType,
    /// Role of the value.
    pub kind: ValueKind,
    /// The task producing this value, if any. Inputs, params and consts
    /// have no producer.
    pub producer: Option<TaskId>,
    /// Tasks consuming this value.
    pub consumers: Vec<TaskId>,
}

impl Value {
    /// Byte size of one sample of this value.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.shape.size_bytes(self.dtype)
    }

    /// Number of elements of one sample.
    #[inline]
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }
}

/// A task (operator) node.
#[derive(Debug, Clone)]
pub struct Task {
    /// Human-readable name.
    pub name: String,
    /// What the task computes.
    pub op: OpKind,
    /// Input values, in operator-defined order (e.g. `[data, weight]`).
    pub inputs: Vec<ValueId>,
    /// Output values.
    pub outputs: Vec<ValueId>,
    /// The model "layer" the task belongs to (e.g. `"encoder.layer3"`),
    /// set by the builder's scope. Empty when untagged. RaNNC itself
    /// ignores scopes — they exist so the *manual* baseline partitioners
    /// (GPipe, PipeDream-2BW) can split at the layer granularity their
    /// users are forced to declare (paper §II-C, §IV-A).
    pub scope: String,
}

/// Errors detected while constructing or validating a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A task referenced a value id that does not exist.
    UnknownValue(ValueId),
    /// Two tasks claimed to produce the same value.
    DuplicateProducer {
        /// The doubly-produced value.
        value: ValueId,
        /// The task that already produced it.
        existing: TaskId,
    },
    /// A static (param/const) value was declared as a task output.
    StaticOutput(ValueId),
    /// The graph contains a cycle (detected during validation).
    Cycle,
    /// An activation value has no producer.
    OrphanActivation(ValueId),
    /// A declared graph output does not exist.
    UnknownOutput(ValueId),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownValue(v) => write!(f, "unknown value {v}"),
            GraphError::DuplicateProducer { value, existing } => {
                write!(f, "value {value} already produced by task {existing}")
            }
            GraphError::StaticOutput(v) => {
                write!(f, "param/const value {v} cannot be a task output")
            }
            GraphError::Cycle => write!(f, "task graph contains a cycle"),
            GraphError::OrphanActivation(v) => {
                write!(f, "activation value {v} has no producer")
            }
            GraphError::UnknownOutput(v) => write!(f, "declared output {v} does not exist"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed acyclic bipartite graph of tasks and values.
///
/// This is the ONNX-style representation of §III-A of the paper:
/// "we first convert an entire model to a task graph … where there are two
/// types of nodes: tasks and values".
#[derive(Debug, Clone)]
pub struct TaskGraph {
    /// Model name, e.g. `"bert[h=1024,l=24]"`.
    pub name: String,
    tasks: Vec<Task>,
    values: Vec<Value>,
    outputs: Vec<ValueId>,
}

impl TaskGraph {
    /// Create an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        TaskGraph {
            name: name.into(),
            tasks: Vec::new(),
            values: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Add a value node and return its id.
    pub fn add_value(
        &mut self,
        name: impl Into<String>,
        shape: impl Into<Shape>,
        dtype: DType,
        kind: ValueKind,
    ) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        self.values.push(Value {
            name: name.into(),
            shape: shape.into(),
            dtype,
            kind,
            producer: None,
            consumers: Vec::new(),
        });
        id
    }

    /// Add a task node connected to existing values and return its id.
    ///
    /// Wires `producer`/`consumers` links on the touched values.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        op: OpKind,
        inputs: Vec<ValueId>,
        outputs: Vec<ValueId>,
    ) -> Result<TaskId, GraphError> {
        self.add_task_scoped(name, op, inputs, outputs, String::new())
    }

    /// [`TaskGraph::add_task`] with an explicit layer scope tag.
    pub fn add_task_scoped(
        &mut self,
        name: impl Into<String>,
        op: OpKind,
        inputs: Vec<ValueId>,
        outputs: Vec<ValueId>,
        scope: String,
    ) -> Result<TaskId, GraphError> {
        let id = TaskId(self.tasks.len() as u32);
        for &v in inputs.iter().chain(outputs.iter()) {
            if v.index() >= self.values.len() {
                return Err(GraphError::UnknownValue(v));
            }
        }
        for &v in &outputs {
            let val = &self.values[v.index()];
            if let Some(existing) = val.producer {
                return Err(GraphError::DuplicateProducer { value: v, existing });
            }
            if val.kind.is_static() {
                return Err(GraphError::StaticOutput(v));
            }
        }
        for &v in &inputs {
            self.values[v.index()].consumers.push(id);
        }
        for &v in &outputs {
            self.values[v.index()].producer = Some(id);
        }
        self.tasks.push(Task {
            name: name.into(),
            op,
            inputs,
            outputs,
            scope,
        });
        Ok(id)
    }

    /// Declare a value to be an output of the entire model.
    pub fn mark_output(&mut self, v: ValueId) {
        if !self.outputs.contains(&v) {
            self.outputs.push(v);
        }
    }

    /// The declared model outputs.
    pub fn outputs(&self) -> &[ValueId] {
        &self.outputs
    }

    /// Ids of all model-input values (kind == Input).
    pub fn input_ids(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == ValueKind::Input)
            .map(|(i, _)| ValueId(i as u32))
    }

    /// Number of task nodes.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of value nodes.
    #[inline]
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Access a task by id.
    #[inline]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Access a value by id.
    #[inline]
    pub fn value(&self, id: ValueId) -> &Value {
        &self.values[id.index()]
    }

    /// Iterate `(TaskId, &Task)` pairs.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId(i as u32), t))
    }

    /// Iterate `(ValueId, &Value)` pairs.
    pub fn values(&self) -> impl Iterator<Item = (ValueId, &Value)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ValueId(i as u32), v))
    }

    /// All task ids.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Distinct predecessor tasks of `id` (producers of its inputs).
    pub fn task_predecessors(&self, id: TaskId) -> Vec<TaskId> {
        let mut preds: Vec<TaskId> = self.tasks[id.index()]
            .inputs
            .iter()
            .filter_map(|&v| self.values[v.index()].producer)
            .collect();
        preds.sort_unstable();
        preds.dedup();
        preds
    }

    /// Distinct successor tasks of `id` (consumers of its outputs).
    pub fn task_successors(&self, id: TaskId) -> Vec<TaskId> {
        let mut succs: Vec<TaskId> = self.tasks[id.index()]
            .outputs
            .iter()
            .flat_map(|&v| self.values[v.index()].consumers.iter().copied())
            .collect();
        succs.sort_unstable();
        succs.dedup();
        succs
    }

    /// Total number of trainable parameters (elements, not bytes).
    pub fn param_count(&self) -> usize {
        self.values
            .iter()
            .filter(|v| v.kind == ValueKind::Param)
            .map(Value::numel)
            .sum()
    }

    /// Total byte size of all trainable parameters.
    pub fn param_bytes(&self) -> usize {
        self.values
            .iter()
            .filter(|v| v.kind == ValueKind::Param)
            .map(Value::size_bytes)
            .sum()
    }

    /// Validate structural invariants: every declared output exists, every
    /// activation has a producer, and the task graph is acyclic.
    pub fn validate(&self) -> Result<(), GraphError> {
        for &o in &self.outputs {
            if o.index() >= self.values.len() {
                return Err(GraphError::UnknownOutput(o));
            }
        }
        for (i, v) in self.values.iter().enumerate() {
            if v.kind == ValueKind::Activation && v.producer.is_none() {
                return Err(GraphError::OrphanActivation(ValueId(i as u32)));
            }
        }
        // Kahn's algorithm as a cycle check.
        if crate::traverse::topo_order(self).len() != self.tasks.len() {
            return Err(GraphError::Cycle);
        }
        Ok(())
    }

    /// Topological order of the tasks (delegates to
    /// [`crate::traverse::topo_order`]).
    pub fn topo_order(&self) -> Vec<TaskId> {
        crate::traverse::topo_order(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// x --(matmul w)--> h --(relu)--> y
    fn small_graph() -> (TaskGraph, ValueId, ValueId) {
        let mut g = TaskGraph::new("small");
        let x = g.add_value("x", [4], DType::F32, ValueKind::Input);
        let w = g.add_value("w", [4, 8], DType::F32, ValueKind::Param);
        let h = g.add_value("h", [8], DType::F32, ValueKind::Activation);
        let y = g.add_value("y", [8], DType::F32, ValueKind::Activation);
        g.add_task("mm", OpKind::MatMul, vec![x, w], vec![h])
            .unwrap();
        g.add_task("relu", OpKind::Relu, vec![h], vec![y]).unwrap();
        g.mark_output(y);
        (g, x, y)
    }

    #[test]
    fn wiring() {
        let (g, x, _) = small_graph();
        assert_eq!(g.num_tasks(), 2);
        assert_eq!(g.num_values(), 4);
        assert_eq!(g.value(x).consumers, vec![TaskId(0)]);
        assert_eq!(g.task_successors(TaskId(0)), vec![TaskId(1)]);
        assert_eq!(g.task_predecessors(TaskId(1)), vec![TaskId(0)]);
        assert_eq!(g.task_predecessors(TaskId(0)), vec![]);
    }

    #[test]
    fn param_count() {
        let (g, _, _) = small_graph();
        assert_eq!(g.param_count(), 32);
        assert_eq!(g.param_bytes(), 128);
    }

    #[test]
    fn duplicate_producer_rejected() {
        let mut g = TaskGraph::new("dup");
        let x = g.add_value("x", [4], DType::F32, ValueKind::Input);
        let h = g.add_value("h", [4], DType::F32, ValueKind::Activation);
        g.add_task("a", OpKind::Relu, vec![x], vec![h]).unwrap();
        let err = g.add_task("b", OpKind::Tanh, vec![x], vec![h]).unwrap_err();
        assert!(matches!(err, GraphError::DuplicateProducer { .. }));
    }

    #[test]
    fn static_output_rejected() {
        let mut g = TaskGraph::new("static");
        let x = g.add_value("x", [4], DType::F32, ValueKind::Input);
        let w = g.add_value("w", [4], DType::F32, ValueKind::Param);
        let err = g.add_task("a", OpKind::Relu, vec![x], vec![w]).unwrap_err();
        assert_eq!(err, GraphError::StaticOutput(w));
    }

    #[test]
    fn unknown_value_rejected() {
        let mut g = TaskGraph::new("unknown");
        let err = g
            .add_task("a", OpKind::Relu, vec![ValueId(99)], vec![])
            .unwrap_err();
        assert_eq!(err, GraphError::UnknownValue(ValueId(99)));
    }

    #[test]
    fn validate_ok() {
        let (g, _, _) = small_graph();
        g.validate().unwrap();
    }

    #[test]
    fn orphan_activation_detected() {
        let mut g = TaskGraph::new("orphan");
        let v = g.add_value("a", [4], DType::F32, ValueKind::Activation);
        assert_eq!(g.validate().unwrap_err(), GraphError::OrphanActivation(v));
    }

    #[test]
    fn input_ids() {
        let (g, x, _) = small_graph();
        let inputs: Vec<_> = g.input_ids().collect();
        assert_eq!(inputs, vec![x]);
    }

    #[test]
    fn mark_output_dedup() {
        let (mut g, _, y) = small_graph();
        g.mark_output(y);
        assert_eq!(g.outputs().len(), 1);
    }
}

#[cfg(test)]
mod structural_edge_cases {
    use super::*;

    #[test]
    fn self_loop_is_rejected_by_validate() {
        // a task consuming its own output forms a 1-cycle; add_task wiring
        // cannot build it directly (the output gains a producer first),
        // but consuming a value and producing it is caught as duplicate
        // production, and any residual cycle is caught by validate()
        let mut g = TaskGraph::new("loop");
        let x = g.add_value("x", [1], DType::F32, ValueKind::Input);
        let a = g.add_value("a", [1], DType::F32, ValueKind::Activation);
        let b = g.add_value("b", [1], DType::F32, ValueKind::Activation);
        // t0: x,b -> a ; t1: a -> b  — a 2-cycle through values
        g.add_task("t0", OpKind::Add, vec![x, b], vec![a]).unwrap();
        g.add_task("t1", OpKind::Relu, vec![a], vec![b]).unwrap();
        assert_eq!(g.validate().unwrap_err(), GraphError::Cycle);
    }

    #[test]
    fn wide_fanout_wiring() {
        let mut g = TaskGraph::new("fan");
        let x = g.add_value("x", [1], DType::F32, ValueKind::Input);
        let mut outs = Vec::new();
        for i in 0..100 {
            let o = g.add_value(format!("o{i}"), [1], DType::F32, ValueKind::Activation);
            g.add_task(format!("t{i}"), OpKind::Relu, vec![x], vec![o])
                .unwrap();
            outs.push(o);
        }
        assert_eq!(g.value(x).consumers.len(), 100);
        g.validate().unwrap();
    }
}
