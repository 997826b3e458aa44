//! # rannc-graph
//!
//! The task-graph intermediate representation used by the RaNNC
//! reproduction.
//!
//! A model is represented as a bipartite directed acyclic graph in the
//! manner of the ONNX format (paper, §III-A): *task* nodes (operators such
//! as `MatMul` or `Conv2d`) are connected through *value* nodes (tensors).
//! Every value has at most one producing task and any number of consuming
//! tasks. Graph inputs (the mini-batch) and parameters are values without a
//! producer.
//!
//! The partitioning algorithms in `rannc-core` operate on *sets of tasks*
//! ([`TaskSet`]) and need fast answers to the questions this crate
//! specializes in:
//!
//! * whole-graph facts derived once per graph: topological order and
//!   per-task position, distinct successors, the non-constant flags,
//!   the tensor-parallel splits and the profiler's per-task cost rows
//!   ([`TaskGraph::index`], [`GraphIndex`], [`split`], [`costs`]),
//! * adjacency between task sets (do they exchange a value?),
//! * communication volume across a cut ([`traverse::cut_bytes`]),
//! * *convexity* of a task set — whether no path leaves the set and
//!   re-enters it ([`convex::is_convex`]), the property that guarantees a
//!   pipeline stage never deadlocks (paper, §III-B).
//!
//! Graphs are built either directly through [`TaskGraph`] or with the
//! ergonomic [`builder::GraphBuilder`] used by `rannc-models`.

pub mod builder;
pub mod convex;
pub mod costs;
pub mod dot;
mod flops;
pub mod graph;
pub mod index;
pub mod op;
pub mod shape;
pub mod split;
pub mod taskset;
pub mod traverse;

pub use builder::GraphBuilder;
pub use costs::TaskCosts;
pub use graph::{Task, TaskGraph, Value};
pub use index::GraphIndex;
pub use op::OpKind;
pub use shape::{DType, Shape};
pub use split::TpSplit;
pub use taskset::TaskSet;

/// Identifier of a task (operator) node inside one [`TaskGraph`].
///
/// Stored as `u32` so that id-indexed side tables stay compact even for
/// graphs with tens of thousands of tasks (a 256-layer BERT produces
/// ~15,000 atomic subcomponents, paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// Identifier of a value (tensor) node inside one [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl TaskId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ValueId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl std::fmt::Display for ValueId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// What role a value plays in the graph.
///
/// The distinction between [`ValueKind::Param`]/[`ValueKind::Const`] and the
/// rest drives the atomic-level partitioning phase: tasks whose inputs are
/// all parameters or constants are *constant tasks* and are folded into the
/// subcomponent of their consumer (paper, §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// An input to the entire model (e.g. the token-id mini-batch).
    Input,
    /// A trainable weight parameter.
    Param,
    /// A non-trainable constant (e.g. an attention mask constant).
    Const,
    /// An intermediate activation produced by some task.
    Activation,
}

impl ValueKind {
    /// `true` for values that do not depend on the model input
    /// (parameters and constants).
    #[inline]
    pub fn is_static(self) -> bool {
        matches!(self, ValueKind::Param | ValueKind::Const)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display() {
        assert_eq!(TaskId(3).to_string(), "t3");
        assert_eq!(ValueId(7).to_string(), "v7");
    }

    #[test]
    fn value_kind_static() {
        assert!(ValueKind::Param.is_static());
        assert!(ValueKind::Const.is_static());
        assert!(!ValueKind::Input.is_static());
        assert!(!ValueKind::Activation.is_static());
    }

    #[test]
    fn id_index_roundtrip() {
        assert_eq!(TaskId(42).index(), 42);
        assert_eq!(ValueId(42).index(), 42);
    }
}
