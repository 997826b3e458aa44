//! Ergonomic construction of task graphs.
//!
//! [`GraphBuilder`] wraps [`TaskGraph`] with shape-inferring helpers for
//! the layer types the model builders in `rannc-models` compose: linear
//! layers (replicated, column- or row-parallel), layer norm, convolutions, attention primitives, element-wise
//! ops. Builder methods panic on misuse (shape mismatches are programming
//! errors in model definitions, caught at graph-construction time, just as
//! PyTorch raises on the first forward pass).

use crate::graph::TaskGraph;
use crate::shape::{DType, Shape};
use crate::split::TpSplit;
use crate::{OpKind, ValueId, ValueKind};

/// Incremental graph builder with shape inference.
pub struct GraphBuilder {
    g: TaskGraph,
    fresh: u32,
    scope: String,
}

impl GraphBuilder {
    /// Start a new graph.
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder {
            g: TaskGraph::new(name),
            fresh: 0,
            scope: String::new(),
        }
    }

    /// Set the layer scope tagged onto subsequently added tasks (e.g.
    /// `"encoder.layer3"`). Baseline partitioners split at scope
    /// boundaries; RaNNC ignores scopes entirely.
    pub fn set_scope(&mut self, scope: impl Into<String>) {
        self.scope = scope.into();
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        let n = self.fresh;
        self.fresh += 1;
        format!("{prefix}.{n}")
    }

    /// Declare a model input.
    pub fn input(&mut self, name: &str, shape: impl Into<Shape>, dtype: DType) -> ValueId {
        self.g.add_value(name, shape, dtype, ValueKind::Input)
    }

    /// Declare a trainable FP32 parameter.
    pub fn param(&mut self, name: &str, shape: impl Into<Shape>) -> ValueId {
        self.g.add_value(name, shape, DType::F32, ValueKind::Param)
    }

    /// Declare a non-trainable constant.
    pub fn constant(&mut self, name: &str, shape: impl Into<Shape>, dtype: DType) -> ValueId {
        self.g.add_value(name, shape, dtype, ValueKind::Const)
    }

    /// Add a task with one explicitly-shaped output value.
    pub fn op(
        &mut self,
        op: OpKind,
        name: &str,
        inputs: &[ValueId],
        out_shape: impl Into<Shape>,
        out_dtype: DType,
    ) -> ValueId {
        let out = self.g.add_value(
            format!("{name}.out"),
            out_shape,
            out_dtype,
            ValueKind::Activation,
        );
        self.g
            .add_task_scoped(name, op, inputs.to_vec(), vec![out], self.scope.clone())
            .expect("builder misuse");
        out
    }

    /// Unary element-wise op: output shape/dtype mirror the input.
    pub fn unary(&mut self, op: OpKind, x: ValueId) -> ValueId {
        let name = self.fresh_name(op.name());
        let shape = self.g.value(x).shape.clone();
        let dtype = self.g.value(x).dtype;
        self.op(op, &name, &[x], shape, dtype)
    }

    /// Binary element-wise op: output shape/dtype mirror the first input.
    /// The second operand may be broadcastable (not checked).
    pub fn binary(&mut self, op: OpKind, a: ValueId, b: ValueId) -> ValueId {
        let name = self.fresh_name(op.name());
        let shape = self.g.value(a).shape.clone();
        let dtype = self.g.value(a).dtype;
        self.op(op, &name, &[a, b], shape, dtype)
    }

    /// Matrix multiplication `x [.., k] × w [k, n] -> [.., n]`.
    pub fn matmul(&mut self, x: ValueId, w: ValueId) -> ValueId {
        let xs = self.g.value(x).shape.clone();
        let ws = self.g.value(w).shape.clone();
        assert_eq!(ws.rank(), 2, "matmul weight must be 2-D, got {ws}");
        assert_eq!(
            xs.dim(xs.rank() - 1),
            ws.dim(0),
            "matmul inner-dim mismatch: {xs} x {ws}"
        );
        let mut out = xs.dims().to_vec();
        *out.last_mut().unwrap() = ws.dim(1);
        let name = self.fresh_name("matmul");
        let dtype = self.g.value(x).dtype;
        self.op(OpKind::MatMul, &name, &[x, w], out, dtype)
    }

    /// Batched matmul `a [.., m, k] × b [.., k, n] -> [.., m, n]`.
    pub fn bmm(&mut self, a: ValueId, b: ValueId) -> ValueId {
        let sa = self.g.value(a).shape.clone();
        let sb = self.g.value(b).shape.clone();
        assert!(sa.rank() >= 2 && sb.rank() >= 2, "bmm needs rank >= 2");
        assert_eq!(
            sa.dim(sa.rank() - 1),
            sb.dim(sb.rank() - 2),
            "bmm inner-dim mismatch: {sa} x {sb}"
        );
        let mut out = sa.dims().to_vec();
        let last = out.len() - 1;
        out[last] = sb.dim(sb.rank() - 1);
        let name = self.fresh_name("bmm");
        let dtype = self.g.value(a).dtype;
        self.op(OpKind::BatchedMatMul, &name, &[a, b], out, dtype)
    }

    /// Fully-connected layer: creates weight `[in, out]` and bias `[out]`
    /// parameters, emits matmul + bias. The matmul is replicated under
    /// tensor parallelism ([`crate::split`]).
    pub fn linear(&mut self, prefix: &str, x: ValueId, in_dim: usize, out_dim: usize) -> ValueId {
        self.linear_split(prefix, x, in_dim, out_dim, None)
    }

    /// [`GraphBuilder::linear`] whose matmul is column-parallel (Megatron
    /// layout): each tensor-parallel shard holds `1/T` of the weight's
    /// columns and computes `1/T` of the output features.
    pub fn linear_column(
        &mut self,
        prefix: &str,
        x: ValueId,
        in_dim: usize,
        out_dim: usize,
    ) -> ValueId {
        self.linear_split(prefix, x, in_dim, out_dim, Some(TpSplit::Column))
    }

    /// [`GraphBuilder::linear`] whose matmul is row-parallel (Megatron
    /// layout): it reads a column- or head-split activation, each shard
    /// holds `1/T` of the weight's rows, and the partial sums are
    /// all-reduced before the bias.
    pub fn linear_row(
        &mut self,
        prefix: &str,
        x: ValueId,
        in_dim: usize,
        out_dim: usize,
    ) -> ValueId {
        self.linear_split(prefix, x, in_dim, out_dim, Some(TpSplit::Row))
    }

    fn linear_split(
        &mut self,
        prefix: &str,
        x: ValueId,
        in_dim: usize,
        out_dim: usize,
        tag: Option<TpSplit>,
    ) -> ValueId {
        let xs = self.g.value(x).shape.clone();
        assert_eq!(
            xs.dim(xs.rank() - 1),
            in_dim,
            "linear {prefix}: input last dim {} != in_dim {in_dim}",
            xs.dim(xs.rank() - 1)
        );
        let w = self.param(&format!("{prefix}.weight"), [in_dim, out_dim]);
        let b = self.param(&format!("{prefix}.bias"), [out_dim]);
        let mm = self.matmul(x, w);
        let task = self
            .g
            .value(mm)
            .producer
            .expect("matmul output has a producer");
        self.g.set_tp_tag(task, tag);
        self.binary(OpKind::Bias, mm, b)
    }

    /// Layer normalization with `gamma`/`beta` parameters over `dim`.
    pub fn layer_norm(&mut self, prefix: &str, x: ValueId, dim: usize) -> ValueId {
        let gamma = self.param(&format!("{prefix}.gamma"), [dim]);
        let beta = self.param(&format!("{prefix}.beta"), [dim]);
        let name = self.fresh_name("layernorm");
        let shape = self.g.value(x).shape.clone();
        let dtype = self.g.value(x).dtype;
        self.op(OpKind::LayerNorm, &name, &[x, gamma, beta], shape, dtype)
    }

    /// 2-D convolution over `[c_in, h, w]` producing `[c_out, h', w']`;
    /// creates the kernel parameter.
    pub fn conv2d(
        &mut self,
        prefix: &str,
        x: ValueId,
        c_out: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> ValueId {
        let xs = self.g.value(x).shape.clone();
        assert_eq!(xs.rank(), 3, "conv2d input must be [c,h,w], got {xs}");
        let (c_in, h, w) = (xs.dim(0), xs.dim(1), xs.dim(2));
        let h_out = (h + 2 * padding.0 - kernel.0) / stride.0 + 1;
        let w_out = (w + 2 * padding.1 - kernel.1) / stride.1 + 1;
        let k = self.param(
            &format!("{prefix}.kernel"),
            [c_out, c_in, kernel.0, kernel.1],
        );
        let name = self.fresh_name("conv2d");
        let dtype = self.g.value(x).dtype;
        self.op(
            OpKind::Conv2d {
                kernel,
                stride,
                padding,
            },
            &name,
            &[x, k],
            [c_out, h_out, w_out],
            dtype,
        )
    }

    /// Batch normalization for CNNs; creates scale/shift parameters of
    /// channel length.
    pub fn batch_norm(&mut self, prefix: &str, x: ValueId) -> ValueId {
        let xs = self.g.value(x).shape.clone();
        let c = xs.dim(0);
        let gamma = self.param(&format!("{prefix}.gamma"), [c]);
        let beta = self.param(&format!("{prefix}.beta"), [c]);
        let name = self.fresh_name("batchnorm");
        let dtype = self.g.value(x).dtype;
        self.op(OpKind::BatchNorm, &name, &[x, gamma, beta], xs, dtype)
    }

    /// Max pooling over `[c,h,w]`.
    pub fn max_pool(
        &mut self,
        x: ValueId,
        kernel: (usize, usize),
        stride: (usize, usize),
    ) -> ValueId {
        let op = OpKind::MaxPool { kernel, stride };
        let xs = self.g.value(x).shape.clone();
        assert_eq!(xs.rank(), 3, "pool input must be [c,h,w]");
        let (c, h, w) = (xs.dim(0), xs.dim(1), xs.dim(2));
        let h_out = (h - kernel.0) / stride.0 + 1;
        let w_out = (w - kernel.1) / stride.1 + 1;
        let name = self.fresh_name(op.name());
        let dtype = self.g.value(x).dtype;
        self.op(op, &name, &[x], [c, h_out, w_out], dtype)
    }

    /// Global average pooling `[c,h,w] -> [c]`.
    pub fn global_avg_pool(&mut self, x: ValueId) -> ValueId {
        let xs = self.g.value(x).shape.clone();
        let c = xs.dim(0);
        let name = self.fresh_name("gap");
        let dtype = self.g.value(x).dtype;
        self.op(OpKind::GlobalAvgPool, &name, &[x], [c], dtype)
    }

    /// Reshape to an explicit shape (numel must match).
    pub fn reshape(&mut self, x: ValueId, shape: impl Into<Shape>) -> ValueId {
        let shape = shape.into();
        let xs = &self.g.value(x).shape;
        assert_eq!(xs.numel(), shape.numel(), "reshape numel mismatch");
        let name = self.fresh_name("reshape");
        let dtype = self.g.value(x).dtype;
        self.op(OpKind::Reshape, &name, &[x], shape, dtype)
    }

    /// Transpose to an explicit output shape (a permutation of the input's
    /// dims; permutation itself is irrelevant to cost modelling).
    pub fn transpose(&mut self, x: ValueId, out_shape: impl Into<Shape>) -> ValueId {
        let out_shape = out_shape.into();
        let xs = &self.g.value(x).shape;
        assert_eq!(xs.numel(), out_shape.numel(), "transpose numel mismatch");
        let name = self.fresh_name("transpose");
        let dtype = self.g.value(x).dtype;
        self.op(OpKind::Transpose, &name, &[x], out_shape, dtype)
    }

    /// Embedding lookup: `ids` (integer tensor) × table `[vocab, hidden]`.
    pub fn embedding(
        &mut self,
        prefix: &str,
        ids: ValueId,
        vocab: usize,
        hidden: usize,
    ) -> ValueId {
        let table = self.param(&format!("{prefix}.table"), [vocab, hidden]);
        let ids_shape = self.g.value(ids).shape.clone();
        let mut out = ids_shape.dims().to_vec();
        out.push(hidden);
        let name = self.fresh_name("embedding");
        self.op(OpKind::Embedding, &name, &[ids, table], out, DType::F32)
    }

    /// Softmax over the last dim.
    pub fn softmax(&mut self, x: ValueId) -> ValueId {
        self.unary(OpKind::Softmax, x)
    }

    /// Dropout (training-time identity for shapes).
    pub fn dropout(&mut self, x: ValueId) -> ValueId {
        self.unary(OpKind::Dropout, x)
    }

    /// Cross-entropy loss of `logits` against integer `labels`; scalar out.
    pub fn cross_entropy(&mut self, logits: ValueId, labels: ValueId) -> ValueId {
        let name = self.fresh_name("xent");
        self.op(
            OpKind::CrossEntropy,
            &name,
            &[logits, labels],
            Shape::scalar(),
            DType::F32,
        )
    }

    /// Mark a value as a model output.
    pub fn output(&mut self, v: ValueId) {
        self.g.mark_output(v);
    }

    /// Read-only access to the graph under construction.
    pub fn graph(&self) -> &TaskGraph {
        &self.g
    }

    /// Finish and validate the graph.
    pub fn finish(self) -> TaskGraph {
        self.g
            .validate()
            .unwrap_or_else(|e| panic!("invalid graph `{}`: {e}", self.g.name));
        self.g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_builds_and_validates() {
        let mut b = GraphBuilder::new("mlp");
        let x = b.input("x", [16], DType::F32);
        let h = b.linear("fc1", x, 16, 32);
        let h = b.unary(OpKind::Relu, h);
        let y = b.linear("fc2", h, 32, 4);
        b.output(y);
        let g = b.finish();
        // params: 16*32 + 32 + 32*4 + 4
        assert_eq!(g.param_count(), 16 * 32 + 32 + 32 * 4 + 4);
        // tasks: matmul+bias, relu, matmul+bias
        assert_eq!(g.num_tasks(), 5);
    }

    #[test]
    fn matmul_shape_inference() {
        let mut b = GraphBuilder::new("mm");
        let x = b.input("x", [512, 1024], DType::F32);
        let w = b.param("w", [1024, 4096]);
        let y = b.matmul(x, w);
        assert_eq!(b.graph().value(y).shape.dims(), &[512, 4096]);
    }

    #[test]
    #[should_panic(expected = "inner-dim mismatch")]
    fn matmul_shape_mismatch_panics() {
        let mut b = GraphBuilder::new("mm");
        let x = b.input("x", [512, 1024], DType::F32);
        let w = b.param("w", [512, 4096]);
        b.matmul(x, w);
    }

    #[test]
    fn conv_shape_inference() {
        let mut b = GraphBuilder::new("conv");
        let x = b.input("x", [3, 224, 224], DType::F32);
        let y = b.conv2d("c1", x, 64, (7, 7), (2, 2), (3, 3));
        assert_eq!(b.graph().value(y).shape.dims(), &[64, 112, 112]);
        let p = b.max_pool(y, (3, 3), (2, 2));
        assert_eq!(b.graph().value(p).shape.dims(), &[64, 55, 55]);
    }

    #[test]
    fn embedding_and_softmax() {
        let mut b = GraphBuilder::new("emb");
        let ids = b.input("ids", [128], DType::I64);
        let e = b.embedding("tok", ids, 30000, 768);
        assert_eq!(b.graph().value(e).shape.dims(), &[128, 768]);
        let s = b.softmax(e);
        assert_eq!(b.graph().value(s).shape.dims(), &[128, 768]);
    }

    #[test]
    fn bmm_shapes() {
        let mut b = GraphBuilder::new("bmm");
        let a = b.input("a", [16, 128, 64], DType::F32);
        let c = b.input("c", [16, 64, 128], DType::F32);
        let y = b.bmm(a, c);
        assert_eq!(b.graph().value(y).shape.dims(), &[16, 128, 128]);
    }

    #[test]
    fn cross_entropy_is_scalar() {
        let mut b = GraphBuilder::new("ce");
        let logits = b.input("logits", [128, 30000], DType::F32);
        let labels = b.input("labels", [128], DType::I64);
        let loss = b.cross_entropy(logits, labels);
        b.output(loss);
        let g = b.finish();
        assert_eq!(g.value(loss).shape.rank(), 0);
    }

    #[test]
    fn layer_norm_params() {
        let mut b = GraphBuilder::new("ln");
        let x = b.input("x", [128, 1024], DType::F32);
        let y = b.layer_norm("ln1", x, 1024);
        b.output(y);
        let g = b.finish();
        assert_eq!(g.param_count(), 2048);
    }
}
