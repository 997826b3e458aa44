//! Per-task FLOP and byte-traffic counts, the inputs of the cost rows
//! ([`crate::costs`]).
//!
//! All counts are *per sample* (the graph is batch-free); the profiler
//! scales them by the micro-batch size for non-constant tasks.

use crate::{OpKind, TaskGraph, TaskId};

/// Forward-pass floating-point operations of one task for one sample.
///
/// Conventions: a fused multiply-add counts as 2 FLOPs (the standard GEMM
/// convention `2·m·k·n`); cheap normalizations/activations get small
/// constant factors per element. Layout-only ops cost 0 FLOPs — their cost
/// is pure memory traffic, captured by [`task_bytes_split`].
pub(crate) fn task_flops(g: &TaskGraph, id: TaskId) -> f64 {
    let t = g.task(id);
    let out_numel: usize = t.outputs.iter().map(|&v| g.value(v).numel()).sum();
    match &t.op {
        OpKind::MatMul | OpKind::BatchedMatMul => {
            // inner dim = last dim of first input
            let a = g.value(t.inputs[0]);
            let k = a.shape.dim(a.shape.rank() - 1);
            2.0 * out_numel as f64 * k as f64
        }
        OpKind::Conv2d { kernel, .. } => {
            // out_numel × (2 · c_in · kh · kw)
            let x = g.value(t.inputs[0]);
            let c_in = x.shape.dim(0);
            2.0 * out_numel as f64 * (c_in * kernel.0 * kernel.1) as f64
        }
        OpKind::Embedding => out_numel as f64, // gather: ~copy
        OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div | OpKind::Bias => out_numel as f64,
        OpKind::LayerNorm => 8.0 * out_numel as f64,
        OpKind::BatchNorm => 4.0 * out_numel as f64,
        OpKind::Softmax => 5.0 * out_numel as f64,
        OpKind::Gelu => 8.0 * out_numel as f64,
        OpKind::Relu | OpKind::Sigmoid | OpKind::Tanh => 2.0 * out_numel as f64,
        OpKind::Dropout => out_numel as f64,
        OpKind::MaxPool { kernel, .. } | OpKind::AvgPool { kernel, .. } => {
            (kernel.0 * kernel.1) as f64 * out_numel as f64
        }
        OpKind::GlobalAvgPool => {
            let x = g.value(t.inputs[0]);
            x.numel() as f64
        }
        OpKind::CrossEntropy => {
            let logits = g.value(t.inputs[0]);
            5.0 * logits.numel() as f64
        }
        OpKind::Transpose | OpKind::Reshape | OpKind::Concat | OpKind::Slice | OpKind::Identity => {
            0.0
        }
    }
}

/// Memory traffic of one task for one sample, all inputs read plus all
/// outputs written (at the graph's declared dtypes), split into a
/// batch-scaling part (activations, model inputs, outputs — one copy per
/// sample) and a fixed part (parameters and constants — read once per
/// kernel regardless of batch size).
///
/// The distinction matters for the roofline: a `[h, 4h]` FFN weight is
/// streamed once per micro-batch, so large batches amortize it, while
/// activation traffic grows linearly.
pub(crate) fn task_bytes_split(g: &TaskGraph, id: TaskId) -> (f64, f64) {
    let t = g.task(id);
    let mut act = 0usize;
    let mut stat = 0usize;
    for &v in &t.inputs {
        let val = g.value(v);
        if val.kind.is_static() {
            stat += val.size_bytes();
        } else {
            act += val.size_bytes();
        }
    }
    for &v in &t.outputs {
        act += g.value(v).size_bytes();
    }
    (act as f64, stat as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DType, GraphBuilder};

    #[test]
    fn matmul_flops() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [128, 256], DType::F32);
        let w = b.param("w", [256, 512]);
        let _ = b.matmul(x, w);
        let g = b.graph();
        let (tid, _) = g.tasks().next().unwrap();
        assert_eq!(task_flops(g, tid), 2.0 * 128.0 * 256.0 * 512.0);
    }

    #[test]
    fn conv_flops() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [16, 32, 32], DType::F32);
        let _ = b.conv2d("c", x, 32, (3, 3), (1, 1), (1, 1));
        let g = b.graph();
        let conv = g
            .tasks()
            .find(|(_, t)| matches!(t.op, OpKind::Conv2d { .. }))
            .unwrap()
            .0;
        // out 32x32x32, 2*16*3*3 per output element
        assert_eq!(
            task_flops(g, conv),
            2.0 * (32 * 32 * 32) as f64 * (16 * 9) as f64
        );
    }

    #[test]
    fn layout_ops_are_zero_flops_but_nonzero_bytes() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [64, 64], DType::F32);
        let _ = b.transpose(x, [64, 64]);
        let g = b.graph();
        let (tid, _) = g.tasks().next().unwrap();
        assert_eq!(task_flops(g, tid), 0.0);
        // the input read and the output written both scale with the batch
        assert_eq!(task_bytes_split(g, tid), ((64 * 64 * 4 * 2) as f64, 0.0));
    }

    #[test]
    fn elementwise_scales_with_numel() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [1000], DType::F32);
        let y = b.input("y", [1000], DType::F32);
        let _ = b.binary(OpKind::Add, x, y);
        let g = b.graph();
        let (tid, _) = g.tasks().next().unwrap();
        assert_eq!(task_flops(g, tid), 1000.0);
    }
}
