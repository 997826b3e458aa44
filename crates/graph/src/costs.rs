//! The per-task cost rows: the graph-only half of the analytical
//! profiler.
//!
//! Each task's FLOPs and byte traffic (counted in `flops.rs`), its
//! tensor-parallel split, whether it scales with the micro-batch, and
//! its parameter, activation and output values flattened into rows.
//! They depend on the graph alone, so like the rest of the
//! [`GraphIndex`] they are a fact of the graph: [`TaskGraph::task_costs`]
//! builds them on first read and every later profiler, on any device,
//! with any options or calibration, borrows the same table. Every edit
//! that drops the index drops them too.

use crate::flops::{task_bytes_split, task_flops};
use crate::index::GraphIndex;
use crate::split::TpSplit;
use crate::{TaskGraph, TaskId, ValueKind};
use std::cell::Cell;
use std::ops::Range;

/// The cost data of one task, for one sample.
#[derive(Debug, Clone)]
pub struct TaskCost {
    /// Forward-pass FLOPs.
    pub flops: f64,
    /// Byte traffic that scales with the micro-batch (activations).
    pub act_bytes: f64,
    /// Fixed byte traffic (parameter/constant reads).
    pub static_bytes: f64,
    /// FP32 bytes of the task's outputs.
    pub out_act_bytes: usize,
    /// Dense arithmetic: priced at the precision's matmul peak, and its
    /// backward (dgrad + wgrad) costs twice its forward.
    pub compute_bound: bool,
    /// The task's tensor-parallel split ([`crate::split`]).
    pub split: TpSplit,
    /// Non-constant tasks scale with the micro-batch size; constant tasks
    /// (weight transposes etc.) run once regardless of batch.
    pub scales: bool,
    /// This task's rows in [`TaskCosts::static_inputs`].
    params: Range<u32>,
    /// This task's rows in [`TaskCosts::act_inputs`].
    acts: Range<u32>,
    /// This task's rows in [`TaskCosts::outputs`].
    outs: Range<u32>,
}

/// One static (parameter or constant) input of a task.
#[derive(Debug, Clone, Copy)]
pub struct StaticInput {
    /// The value's id.
    pub value: u32,
    /// Parameter elements of the value; 0 for a constant.
    pub param_elems: usize,
}

/// One non-static (activation) input of a task.
#[derive(Debug, Clone, Copy)]
pub struct ActInput {
    /// The value's id.
    pub value: u32,
    /// Producing task, or [`NO_PRODUCER`] for a graph input. Out of every
    /// universe, so `TaskSet::contains` is false for it.
    pub producer: u32,
    /// FP32 bytes of one sample of the value.
    pub bytes: usize,
}

/// [`ActInput::producer`] of a value no task produces.
pub const NO_PRODUCER: u32 = u32::MAX;

/// One output of a task. Outputs are never static.
#[derive(Debug, Clone, Copy)]
pub struct Output {
    /// The value's id.
    pub value: u32,
    /// FP32 bytes of one sample of the value.
    pub bytes: usize,
}

/// Every task's [`TaskCost`] and value rows (see the module docs).
/// Obtain it through [`TaskGraph::task_costs`].
#[derive(Debug, Clone)]
pub struct TaskCosts {
    tasks: Vec<TaskCost>,
    static_inputs: Vec<StaticInput>,
    act_inputs: Vec<ActInput>,
    outputs: Vec<Output>,
}

thread_local! {
    /// Tables built on this thread: the builder runs on the thread whose
    /// read finds none, so a test can count builds without seeing other
    /// threads'.
    static BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// How many cost-row tables the calling thread has built so far: one per
/// graph, and one more after each edit that drops it.
pub fn builds_on_this_thread() -> u64 {
    BUILDS.with(Cell::get)
}

impl TaskCosts {
    /// Flatten every task of `g` in one walk over its tasks and their
    /// values.
    pub(crate) fn build(g: &TaskGraph, index: &GraphIndex) -> Self {
        BUILDS.with(|b| b.set(b.get() + 1));
        let non_constant = index.non_constant();
        let mut tasks = Vec::with_capacity(g.num_tasks());
        let mut static_inputs = Vec::new();
        let mut act_inputs = Vec::new();
        let mut outputs = Vec::new();
        for (tid, task) in g.tasks() {
            let (params_start, acts_start) = (static_inputs.len() as u32, act_inputs.len() as u32);
            let outs_start = outputs.len() as u32;
            for &v in &task.inputs {
                let val = g.value(v);
                if val.kind.is_static() {
                    static_inputs.push(StaticInput {
                        value: v.0,
                        param_elems: if val.kind == ValueKind::Param {
                            val.numel()
                        } else {
                            0
                        },
                    });
                } else {
                    act_inputs.push(ActInput {
                        value: v.0,
                        producer: val.producer.map_or(NO_PRODUCER, |p| p.0),
                        bytes: val.size_bytes(),
                    });
                }
            }
            outputs.extend(task.outputs.iter().map(|&v| Output {
                value: v.0,
                bytes: g.value(v).size_bytes(),
            }));
            let out_act_bytes = outputs[outs_start as usize..].iter().map(|o| o.bytes).sum();
            let (act_bytes, static_bytes) = task_bytes_split(g, tid);
            tasks.push(TaskCost {
                flops: task_flops(g, tid),
                act_bytes,
                static_bytes,
                out_act_bytes,
                compute_bound: task.op.is_compute_bound(),
                split: index.split(tid),
                scales: non_constant[tid.index()],
                params: params_start..static_inputs.len() as u32,
                acts: acts_start..act_inputs.len() as u32,
                outs: outs_start..outputs.len() as u32,
            });
        }
        TaskCosts {
            tasks,
            static_inputs,
            act_inputs,
            outputs,
        }
    }

    /// Task `t`'s cost data.
    #[inline]
    pub fn task(&self, t: TaskId) -> &TaskCost {
        &self.tasks[t.index()]
    }

    /// The static inputs of the task whose cost data is `c`.
    #[inline]
    pub fn static_inputs(&self, c: &TaskCost) -> &[StaticInput] {
        &self.static_inputs[c.params.start as usize..c.params.end as usize]
    }

    /// The activation inputs of the task whose cost data is `c`.
    #[inline]
    pub fn act_inputs(&self, c: &TaskCost) -> &[ActInput] {
        &self.act_inputs[c.acts.start as usize..c.acts.end as usize]
    }

    /// The outputs of the task whose cost data is `c`.
    #[inline]
    pub fn outputs(&self, c: &TaskCost) -> &[Output] {
        &self.outputs[c.outs.start as usize..c.outs.end as usize]
    }
}
