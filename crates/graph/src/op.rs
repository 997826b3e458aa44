//! Operator kinds.
//!
//! The operator set covers what the model builders in `rannc-models` need
//! (Transformer encoders/decoders, ResNet-style CNNs, MLPs) plus generic
//! element-wise and reshaping operators. Graph partitioning treats each
//! task as atomic (paper, §I: "graph partitioning regards tensor operations
//! as atomic tasks"), so the enum only needs enough structure for the
//! analytical profiler to derive FLOPs and byte counts.

/// The kind of computation a task performs.
///
/// Attribute fields hold integral values only so that `OpKind` is `Eq` and
/// `Hash` — the profile cache in `rannc-profile` keys on subcomponent
/// fingerprints that include operator kinds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Dense matrix multiplication `[m,k] x [k,n] -> [m,n]`.
    MatMul,
    /// Batched matrix multiplication; leading dims are batch dims.
    BatchedMatMul,
    /// 2-D convolution over `[c_in, h, w]` with an
    /// `[c_out, c_in, kh, kw]` kernel.
    Conv2d {
        /// Kernel height and width.
        kernel: (usize, usize),
        /// Stride in height and width.
        stride: (usize, usize),
        /// Zero padding in height and width.
        padding: (usize, usize),
    },
    /// Embedding-table lookup `ids x [vocab, hidden] -> [..., hidden]`.
    Embedding,
    /// Element-wise addition (residual connections).
    Add,
    /// Element-wise subtraction.
    Sub,
    /// Element-wise multiplication.
    Mul,
    /// Element-wise division.
    Div,
    /// Broadcast bias addition.
    Bias,
    /// Layer normalization over the last dimension.
    LayerNorm,
    /// Batch normalization (CNNs).
    BatchNorm,
    /// Softmax over the last dimension.
    Softmax,
    /// GELU activation.
    Gelu,
    /// ReLU activation.
    Relu,
    /// Tanh activation.
    Tanh,
    /// Sigmoid activation.
    Sigmoid,
    /// Dimension permutation.
    Transpose,
    /// Shape change without data movement semantics.
    Reshape,
    /// Concatenation along an axis.
    Concat,
    /// Slice/narrow along an axis.
    Slice,
    /// Dropout (a no-op for cost purposes at inference; cheap memory op in
    /// training).
    Dropout,
    /// Max pooling.
    MaxPool {
        /// Kernel height and width.
        kernel: (usize, usize),
        /// Stride in height and width.
        stride: (usize, usize),
    },
    /// Average pooling.
    AvgPool {
        /// Kernel height and width.
        kernel: (usize, usize),
        /// Stride in height and width.
        stride: (usize, usize),
    },
    /// Global average pooling to `[c, 1, 1]`.
    GlobalAvgPool,
    /// Cross-entropy loss against integer labels.
    CrossEntropy,
    /// Pass-through.
    Identity,
}

impl OpKind {
    /// A short human-readable operator name for display and DOT dumps.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::MatMul => "matmul",
            OpKind::BatchedMatMul => "bmm",
            OpKind::Conv2d { .. } => "conv2d",
            OpKind::Embedding => "embedding",
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::Bias => "bias",
            OpKind::LayerNorm => "layernorm",
            OpKind::BatchNorm => "batchnorm",
            OpKind::Softmax => "softmax",
            OpKind::Gelu => "gelu",
            OpKind::Relu => "relu",
            OpKind::Tanh => "tanh",
            OpKind::Sigmoid => "sigmoid",
            OpKind::Transpose => "transpose",
            OpKind::Reshape => "reshape",
            OpKind::Concat => "concat",
            OpKind::Slice => "slice",
            OpKind::Dropout => "dropout",
            OpKind::MaxPool { .. } => "maxpool",
            OpKind::AvgPool { .. } => "avgpool",
            OpKind::GlobalAvgPool => "gap",
            OpKind::CrossEntropy => "cross_entropy",
            OpKind::Identity => "identity",
        }
    }

    /// Whether the operator's cost is dominated by dense arithmetic
    /// (matmul-like / conv-like) rather than memory traffic: the profiler
    /// prices it at the precision's matmul peak and its backward at twice
    /// its forward. Which tasks a tensor-parallel group splits is the
    /// split rule's decision ([`crate::split`]), not this one.
    pub fn is_compute_bound(&self) -> bool {
        matches!(
            self,
            OpKind::MatMul | OpKind::BatchedMatMul | OpKind::Conv2d { .. }
        )
    }

    /// Whether the operator moves/renames data without arithmetic.
    pub fn is_layout_only(&self) -> bool {
        matches!(
            self,
            OpKind::Transpose | OpKind::Reshape | OpKind::Identity | OpKind::Slice
        )
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(OpKind::MatMul.name(), "matmul");
        assert_eq!(
            OpKind::Conv2d {
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1)
            }
            .name(),
            "conv2d"
        );
    }

    #[test]
    fn compute_bound_classification() {
        assert!(OpKind::MatMul.is_compute_bound());
        assert!(OpKind::BatchedMatMul.is_compute_bound());
        assert!(!OpKind::Add.is_compute_bound());
        assert!(!OpKind::LayerNorm.is_compute_bound());
    }

    #[test]
    fn layout_only_classification() {
        assert!(OpKind::Transpose.is_layout_only());
        assert!(OpKind::Reshape.is_layout_only());
        assert!(!OpKind::MatMul.is_layout_only());
        assert!(!OpKind::Softmax.is_layout_only());
    }

    #[test]
    fn opkind_is_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(OpKind::MatMul);
        set.insert(OpKind::MatMul);
        assert_eq!(set.len(), 1);
    }
}
