//! Megatron-LM baseline: manual tensor partitioning for Transformers.
//!
//! Megatron splits every attention/FFN weight matrix across `T` devices
//! (column/row parallel), synchronizing with two activation all-reduces
//! per layer per pass. The paper's §IV observations, which this model
//! reproduces:
//!
//! * only Transformer architectures are supported (the API here only
//!   accepts [`TransformerDims`]; the figure harness prints "n/a" for
//!   ResNet);
//! * "Megatron-LM does not implement gradient accumulation" — the whole
//!   per-group batch is resident at once;
//! * "matrix multiplication in tensor partitioning distributes the
//!   computational loads, but the size of the buffer to store the results
//!   is not reduced" — layer input/output buffers stay full-size on every
//!   device, which is what limits the largest trainable model to ~1/5 of
//!   RaNNC's despite partitioned weights;
//! * partition counts are powers of two, at most the device count
//!   (§IV-B); the harness picks the best feasible one.
//!
//! The split arithmetic itself is owned by `rannc-cost`'s
//! [`tensor`](rannc_cost::tensor) module, and this baseline is the
//! `(S = 1, T = t)` sweep over that owner. Its all-reduce volume is the
//! search's: the planner reads the same Megatron layout off the graph's
//! split rule and all-reduces only the row-split matmul outputs, two per
//! layer per pass. It is not yet priced as a point of the search space:
//! it counts matmul FLOPs only, from [`TransformerDims`], while the
//! search prices the profiled graph's roofline, memory-bound ops and
//! launch overheads included — 1.73× more per sample on BERT 1024×24.
//! Pricing it through the search's `stage_cost_tp` is ROADMAP.md's "One
//! tensor-parallel price" item.

use crate::BaselineOutcome;
use rannc_cost::{megatron_partition, CostModel};
use rannc_hw::{ClusterSpec, Precision};
use rannc_pipeline::SimResult;
use rannc_profile::{Profiler, ProfilerOptions};

pub use rannc_cost::TransformerDims;

/// Run the Megatron-LM baseline: sweep power-of-two partition counts and
/// return the fastest feasible configuration.
///
/// Prices collectives and the optimizer step through the default
/// analytical [`CostModel`]; use [`megatron_with`] to price through a
/// specific (e.g. calibrated) model.
pub fn megatron(
    dims: &TransformerDims,
    cluster: &ClusterSpec,
    batch_size: usize,
    precision: Precision,
) -> BaselineOutcome {
    // Megatron is purely analytic — it never profiles a task graph — so
    // an empty graph backs the default cost model.
    let g = rannc_graph::TaskGraph::new("megatron-analytic");
    let cost = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
    megatron_with(dims, &cost, cluster, batch_size, precision)
}

/// [`megatron`] priced through an explicit cost model.
pub fn megatron_with(
    dims: &TransformerDims,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
    batch_size: usize,
    precision: Precision,
) -> BaselineOutcome {
    let mut best: Option<(f64, usize)> = None; // (time, t)
    let mut t = 1usize;
    while t <= cluster.total_devices() {
        if let Some((time, mem)) = megatron_partition(dims, cost, cluster, batch_size, precision, t)
        {
            if mem <= cluster.device.memory_bytes && best.map(|(bt, _)| time < bt).unwrap_or(true) {
                best = Some((time, t));
            }
        }
        t *= 2;
    }
    match best {
        Some((time, t)) => BaselineOutcome::Feasible {
            result: SimResult::new(time, batch_size, vec![time]),
            config: format!(
                "T={t} tensor-parallel x{} data-parallel",
                cluster.total_devices() / t
            ),
        },
        None => BaselineOutcome::OutOfMemory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc_models::BertConfig;

    fn cluster() -> ClusterSpec {
        ClusterSpec::v100_cluster(4) // 32 GPUs, the paper's setting
    }

    /// Verbatim copy of the pre-move `eval_partition` math, kept here to
    /// pin that moving the formulas into `rannc-cost` changed nothing:
    /// [`megatron_partition`] must reproduce it bit-for-bit.
    fn eval_partition_reference(
        dims: &TransformerDims,
        cost: &dyn CostModel,
        cluster: &ClusterSpec,
        batch_size: usize,
        precision: Precision,
        t: usize,
    ) -> Option<(f64, usize)> {
        use rannc_profile::memory::{ADAM_BYTES_PER_PARAM, DEVICE_OVERHEAD_BYTES};
        const ALLOCATOR_OVERHEAD: f64 = 1.15;
        let devices = cluster.total_devices();
        if t > devices || !dims.heads.is_multiple_of(t) || !devices.is_multiple_of(t) {
            return None;
        }
        let dp = devices / t;
        if !batch_size.is_multiple_of(dp) {
            return None;
        }
        let b = batch_size / dp;
        let dev = &cluster.device;
        let act_bytes = precision.activation_bytes();
        let (h, s) = (dims.hidden, dims.seq_len);
        let flops = dims.flops_per_sample() * b as f64 / t as f64;
        let fwd = flops / dev.sustained_flops(precision);
        let compute = fwd * 4.0;
        let ar_bytes = b * s * h * act_bytes;
        let comm = 4.0
            * dims.layers as f64
            * cost
                .factors()
                .allreduce_time(cluster, ar_bytes, t, t > cluster.node.devices);
        let grad_bytes = dims.params() * 4 / t;
        let dp_allreduce = if dp > 1 {
            cost.factors().allreduce_time(cluster, grad_bytes, dp, true)
        } else {
            0.0
        };
        let optimizer = cost.factors().optimizer_time(dev, grad_bytes);
        let iteration = compute + comm + dp_allreduce + optimizer;
        let state_per_param = precision.weight_bytes()
            + precision.master_copy_bytes()
            + precision.grad_bytes()
            + ADAM_BYTES_PER_PARAM;
        let states = dims.params() / t * state_per_param;
        let boundaries = dims.layers * s * h * act_bytes * b;
        let full_io = 8 * s * h;
        let partitioned = (2 * s * s * dims.heads + 2 * s * dims.intermediate) / t;
        let recompute = (full_io + partitioned) * act_bytes * b;
        let logits = s * dims.vocab / t * act_bytes * b;
        let activations = ((boundaries + recompute + logits) as f64 * ALLOCATOR_OVERHEAD) as usize;
        let mem = states + activations + DEVICE_OVERHEAD_BYTES;
        Some((iteration, mem))
    }

    #[test]
    fn moved_split_math_is_bit_identical_to_the_old_owner() {
        let g = rannc_graph::TaskGraph::new("megatron-analytic");
        let cl = cluster();
        let cost = Profiler::new(&g, cl.device.clone(), ProfilerOptions::fp32());
        for dims in [
            TransformerDims::from(&BertConfig::large()),
            TransformerDims::from(&BertConfig::enlarged(2048, 48)),
            TransformerDims::from(&rannc_models::GptConfig::gpt2_small()),
        ] {
            for precision in [Precision::FP32, Precision::Mixed] {
                let mut t = 1usize;
                while t <= cl.total_devices() {
                    let moved = megatron_partition(&dims, &cost, &cl, 256, precision, t);
                    let reference = eval_partition_reference(&dims, &cost, &cl, 256, precision, t);
                    match (moved, reference) {
                        (Some((mt, mm)), Some((rt, rm))) => {
                            assert_eq!(mt.to_bits(), rt.to_bits(), "time at t={t}");
                            assert_eq!(mm, rm, "memory at t={t}");
                        }
                        (None, None) => {}
                        (m, r) => panic!("feasibility diverged at t={t}: {m:?} vs {r:?}"),
                    }
                    t *= 2;
                }
            }
        }
    }

    #[test]
    fn megatron_with_is_the_s1_sweep_over_the_owner() {
        // The baseline is a special point of the unified search: its
        // outcome must equal sweeping the T axis of the formula owner by
        // hand at S = 1 and keeping the fastest feasible point.
        let g = rannc_graph::TaskGraph::new("megatron-analytic");
        let cl = cluster();
        let cost = Profiler::new(&g, cl.device.clone(), ProfilerOptions::fp32());
        let dims = TransformerDims::from(&BertConfig::large());
        let mut best: Option<(f64, usize)> = None;
        let mut t = 1usize;
        while t <= cl.total_devices() {
            if let Some((time, mem)) =
                megatron_partition(&dims, &cost, &cl, 256, Precision::FP32, t)
            {
                if mem <= cl.device.memory_bytes && best.map(|(bt, _)| time < bt).unwrap_or(true) {
                    best = Some((time, t));
                }
            }
            t *= 2;
        }
        let (time, t) = best.expect("bert-large must be feasible at 32 GPUs");
        match megatron(&dims, &cl, 256, Precision::FP32) {
            BaselineOutcome::Feasible { result, config } => {
                assert_eq!(result.iteration_time.to_bits(), time.to_bits());
                assert!(config.starts_with(&format!("T={t} ")), "config = {config}");
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn params_match_models_crate_roughly() {
        let cfg = BertConfig::large();
        let dims = TransformerDims::from(&cfg);
        let ours = dims.params() as f64;
        let exact = cfg.param_count() as f64;
        assert!(
            (ours / exact - 1.0).abs() < 0.02,
            "ours={ours} exact={exact}"
        );
    }

    #[test]
    fn bert_large_feasible_at_32_gpus() {
        let dims = TransformerDims::from(&BertConfig::large());
        let out = megatron(&dims, &cluster(), 256, Precision::FP32);
        assert!(out.throughput().is_some());
    }

    #[test]
    fn oom_beyond_a_few_billion_params() {
        // Fig. 4 narrative: Megatron-LM fails for ~5x smaller models than
        // RaNNC's 12.9B ceiling, i.e. somewhere below ~3B.
        let dims = TransformerDims::from(&BertConfig::enlarged(2048, 96)); // 4.9B
        let out = megatron(&dims, &cluster(), 256, Precision::FP32);
        assert!(
            matches!(out, BaselineOutcome::OutOfMemory),
            "4.9B params should OOM under tensor partitioning"
        );
    }

    #[test]
    fn trains_more_than_data_parallel_scale() {
        // Megatron should still handle ~2.5B (h=2048, 48 layers)
        let dims = TransformerDims::from(&BertConfig::enlarged(2048, 48));
        let out = megatron(&dims, &cluster(), 256, Precision::FP32);
        assert!(out.throughput().is_some(), "2.5B should be trainable");
    }

    #[test]
    fn mixed_precision_is_faster() {
        let dims = TransformerDims::from(&BertConfig::large());
        let f = megatron(&dims, &cluster(), 256, Precision::FP32)
            .throughput()
            .unwrap();
        let m = megatron(&dims, &cluster(), 256, Precision::Mixed)
            .throughput()
            .unwrap();
        assert!(m > f, "mixed {m} should beat fp32 {f}");
    }

    #[test]
    fn larger_t_needed_for_larger_models() {
        // a model whose states exceed one device must use t > 1
        let dims = TransformerDims::from(&BertConfig::enlarged(2048, 48)); // 2.5B
        let out = megatron(&dims, &cluster(), 256, Precision::FP32);
        if let BaselineOutcome::Feasible { config, .. } = out {
            let t: usize = config
                .trim_start_matches("T=")
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap();
            // 2.5B params × 16 B/param ≈ 40 GB of states: at least two
            // shards are needed to fit a 32 GB device.
            assert!(t >= 2, "config = {config}");
        } else {
            panic!("expected feasible");
        }
    }
}

#[cfg(test)]
mod gpt_tests {
    use super::*;
    use rannc_models::GptConfig;

    #[test]
    fn gpt_dims_conversion() {
        let cfg = GptConfig::gpt2_small();
        let dims = TransformerDims::from(&cfg);
        assert_eq!(dims.hidden, 768);
        assert_eq!(dims.intermediate, 3072);
        assert_eq!(dims.seq_len, 1024);
    }

    #[test]
    fn megatron_trains_gpt2_small() {
        let dims = TransformerDims::from(&GptConfig::gpt2_small());
        let out = megatron(&dims, &ClusterSpec::v100_cluster(1), 64, Precision::FP32);
        assert!(out.throughput().is_some());
    }

    #[test]
    fn t_must_divide_heads() {
        // 12 heads: T=8 illegal, so the best feasible T is in {1,2,4}
        let dims = TransformerDims::from(&GptConfig::gpt2_small());
        let out = megatron(&dims, &ClusterSpec::v100_cluster(1), 64, Precision::FP32);
        if let BaselineOutcome::Feasible { config, .. } = out {
            let t: usize = config
                .trim_start_matches("T=")
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!([1, 2, 4].contains(&t), "T = {t} does not divide 12 heads");
        } else {
            panic!("expected feasible");
        }
    }
}
