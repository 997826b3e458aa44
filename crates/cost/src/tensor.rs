//! Tensor-parallel split math — the single owner of the Megatron-style
//! column/row-parallel formulas.
//!
//! Historically these formulas lived in `rannc-baselines`' Megatron
//! model, where the partition search could never price them. Lifting
//! intra-op partitioning into the planner as a per-stage degree `T`
//! requires one owner for the split arithmetic, so the analytic
//! transformer evaluation moved here: the Megatron baseline is now a
//! thin sweep over [`megatron_partition`] (the `S = 1` fixed point of
//! the unified 3D search).
//!
//! The planner's per-stage TP pricing ([`CostModel::stage_cost_tp`])
//! reads the graph's split rule (`rannc_graph::split`, Megatron's
//! layout) instead of these formulas: split tasks divide `T` ways,
//! weight/optimizer state and column/head-split activations shard
//! `1/T`, and a stage all-reduces only its row-split matmul outputs.
//! Both move the same communication volume — two all-reduces of
//! `b·s·h` activations per layer per pass (`tests/tp_megatron_parity.rs`).
//! They still differ in compute: [`megatron_partition`] counts matmul
//! FLOPs from [`TransformerDims`], the search prices the profiled
//! graph.

use crate::CostModel;
use rannc_hw::{ClusterSpec, Precision};
use rannc_profile::memory::{ADAM_BYTES_PER_PARAM, DEVICE_OVERHEAD_BYTES};

/// Memory-overhead factor on activations: PyTorch's caching allocator
/// fragments under Megatron's alternating full-size/partitioned buffer
/// sizes, and each tensor-parallel group pins NCCL workspaces. Real
/// Megatron-LM deployments reserve this headroom; without it the analytic
/// model would fit models the real system could not (the paper's Fig. 4
/// shows Megatron failing at ~1/5 of RaNNC's largest model).
pub const ALLOCATOR_OVERHEAD: f64 = 1.15;

/// Transformer shape parameters (all the split math needs to know).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformerDims {
    /// Hidden size.
    pub hidden: usize,
    /// Encoder/decoder layers.
    pub layers: usize,
    /// Attention heads (tensor parallelism splits heads; `T` must divide
    /// this).
    pub heads: usize,
    /// FFN intermediate size.
    pub intermediate: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Sequence length.
    pub seq_len: usize,
}

impl From<&rannc_models::BertConfig> for TransformerDims {
    fn from(c: &rannc_models::BertConfig) -> Self {
        TransformerDims {
            hidden: c.hidden,
            layers: c.layers,
            heads: c.heads,
            intermediate: c.intermediate,
            vocab: c.vocab,
            seq_len: c.seq_len,
        }
    }
}

impl From<&rannc_models::GptConfig> for TransformerDims {
    fn from(c: &rannc_models::GptConfig) -> Self {
        TransformerDims {
            hidden: c.hidden,
            layers: c.layers,
            heads: c.heads,
            intermediate: 4 * c.hidden,
            vocab: c.vocab,
            seq_len: c.seq_len,
        }
    }
}

impl TransformerDims {
    /// Total trainable parameters.
    pub fn params(&self) -> usize {
        let h = self.hidden;
        let per_layer = 4 * h * h + 2 * h * self.intermediate;
        self.layers * per_layer + self.vocab * h + self.seq_len * h
    }

    /// Forward FLOPs for one sample.
    pub fn flops_per_sample(&self) -> f64 {
        let (h, s, i) = (
            self.hidden as f64,
            self.seq_len as f64,
            self.intermediate as f64,
        );
        let per_layer = 8.0 * s * h * h + 4.0 * s * s * h + 4.0 * s * h * i;
        self.layers as f64 * per_layer + 2.0 * s * h * self.vocab as f64
    }
}

/// Evaluate the Megatron-LM analytic model at a specific partition count
/// `t` — the `(S = 1, T = t)` point of the unified parallelism space.
///
/// Returns `(iteration_time, mem_bytes)` or `None` when infeasible
/// structurally (t doesn't divide heads/devices, or the data-parallel
/// width doesn't divide the batch).
pub fn megatron_partition(
    dims: &TransformerDims,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
    batch_size: usize,
    precision: Precision,
    t: usize,
) -> Option<(f64, usize)> {
    let devices = cluster.total_devices();
    if t > devices || !dims.heads.is_multiple_of(t) || !devices.is_multiple_of(t) {
        return None;
    }
    let dp = devices / t;
    if !batch_size.is_multiple_of(dp) {
        return None;
    }
    let b = batch_size / dp; // per tensor-parallel group, resident at once
    let dev = &cluster.device;
    let act_bytes = precision.activation_bytes();
    let (h, s) = (dims.hidden, dims.seq_len);

    // --- time -----------------------------------------------------------
    let flops = dims.flops_per_sample() * b as f64 / t as f64;
    let fwd = flops / dev.sustained_flops(precision);
    // gradient checkpointing implemented for Megatron (§IV-A): backward =
    // recompute + dgrad + wgrad ≈ 3x forward
    let compute = fwd * 4.0;
    // 2 activation all-reduces per layer per pass, 4 per layer total
    let ar_bytes = b * s * h * act_bytes;
    let f = cost.factors();
    let comm =
        4.0 * dims.layers as f64 * f.allreduce_time(cluster, ar_bytes, t, t > cluster.node.devices);
    // data-parallel gradient all-reduce of each shard
    let grad_bytes = dims.params() * 4 / t;
    let dp_allreduce = if dp > 1 {
        f.allreduce_time(cluster, grad_bytes, dp, true)
    } else {
        0.0
    };
    let optimizer = f.optimizer_time(dev, grad_bytes);
    let iteration = compute + comm + dp_allreduce + optimizer;

    // --- memory ----------------------------------------------------------
    let state_per_param = precision.weight_bytes()
        + precision.master_copy_bytes()
        + precision.grad_bytes()
        + ADAM_BYTES_PER_PARAM;
    let states = dims.params() / t * state_per_param;
    // checkpointed layer boundaries: FULL size on every device (the
    // "result buffer is not reduced" effect), one per layer per sample
    let boundaries = dims.layers * s * h * act_bytes * b;
    // recompute peak of one layer: full-size I/O tensors plus partitioned
    // intermediates (scores + FFN intermediate)
    let full_io = 8 * s * h;
    let partitioned = (2 * s * s * dims.heads + 2 * s * dims.intermediate) / t;
    let recompute = (full_io + partitioned) * act_bytes * b;
    // vocab-parallel logits buffer of the LM head
    let logits = s * dims.vocab / t * act_bytes * b;
    let activations = ((boundaries + recompute + logits) as f64 * ALLOCATOR_OVERHEAD) as usize;
    let mem = states + activations + DEVICE_OVERHEAD_BYTES;

    Some((iteration, mem))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc_models::BertConfig;
    use rannc_profile::{Profiler, ProfilerOptions};

    fn cluster() -> ClusterSpec {
        ClusterSpec::v100_cluster(4)
    }

    fn analytic_cost<'g>(g: &'g rannc_graph::TaskGraph, cluster: &ClusterSpec) -> Profiler<'g> {
        Profiler::new(g, cluster.device.clone(), ProfilerOptions::fp32())
    }

    #[test]
    fn partition_infeasible_when_t_does_not_divide() {
        let g = rannc_graph::TaskGraph::new("empty");
        let cl = cluster();
        let cost = analytic_cost(&g, &cl);
        let dims = TransformerDims::from(&BertConfig::large());
        // 3 does not divide 16 heads
        assert!(megatron_partition(&dims, &cost, &cl, 256, Precision::FP32, 3).is_none());
        // t beyond the device count
        assert!(megatron_partition(&dims, &cost, &cl, 256, Precision::FP32, 64).is_none());
    }

    #[test]
    fn larger_t_shrinks_states_and_compute() {
        let g = rannc_graph::TaskGraph::new("empty");
        let cl = cluster();
        let cost = analytic_cost(&g, &cl);
        let dims = TransformerDims::from(&BertConfig::large());
        let (_, m1) = megatron_partition(&dims, &cost, &cl, 256, Precision::FP32, 1).unwrap();
        let (_, m4) = megatron_partition(&dims, &cost, &cl, 256, Precision::FP32, 4).unwrap();
        assert!(m4 < m1, "t=4 memory {m4} should be below t=1 memory {m1}");
    }
}
