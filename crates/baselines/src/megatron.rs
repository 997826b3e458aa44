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
//! This is Megatron's own analytic model (matmul FLOPs, every layer
//! checkpointed), not a point of the planner's `(S, MB, T)` space: the
//! search's `S = 1` cell keeps the whole model's intermediates and is
//! out of memory on 34 of the 36 Fig. 4 cells (DESIGN.md §16). The two
//! share the all-reduce volume, pinned by a test.

use crate::BaselineOutcome;
use rannc_cost::CostModel;
use rannc_hw::ClusterSpec;
use rannc_pipeline::SimResult;
use rannc_profile::memory::{ADAM_BYTES_PER_PARAM, DEVICE_OVERHEAD_BYTES};

/// Memory-overhead factor on activations: PyTorch's caching allocator
/// fragments under Megatron's alternating full-size/partitioned buffer
/// sizes, and each tensor-parallel group pins NCCL workspaces. Real
/// Megatron-LM deployments reserve this headroom; without it the analytic
/// model would fit models the real system could not (the paper's Fig. 4
/// shows Megatron failing at ~1/5 of RaNNC's largest model).
const ALLOCATOR_OVERHEAD: f64 = 1.15;

/// Transformer shape parameters (all the Megatron model needs to know).
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

/// Run the Megatron-LM baseline: sweep power-of-two partition counts and
/// return the fastest feasible configuration.
///
/// Reads the training precision from `cost`'s options and prices
/// collectives and the optimizer step through its factors
/// ([`CostModel::factors`]); compute and memory are Megatron's own
/// analytic model (see the module docs).
pub fn megatron(
    dims: &TransformerDims,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
    batch_size: usize,
) -> BaselineOutcome {
    // the first fastest feasible degree
    let best = std::iter::successors(Some(1usize), |t| Some(t * 2))
        .take_while(|&t| t <= cluster.total_devices())
        .filter_map(|t| Some((megatron_partition(dims, cost, cluster, batch_size, t)?, t)))
        .filter(|&((_, mem), _)| mem <= cluster.device.memory_bytes)
        .min_by(|((a, _), _), ((b, _), _)| a.total_cmp(b));
    match best {
        Some(((time, _), t)) => BaselineOutcome::Feasible {
            result: SimResult::new(time, batch_size, vec![time]),
            config: format!(
                "T={t} tensor-parallel x{} data-parallel",
                cluster.total_devices() / t
            ),
        },
        None => BaselineOutcome::OutOfMemory,
    }
}

/// One pass's activation all-reduces of a tensor-parallel group holding
/// `b` samples, as `(count, bytes each)`: two per layer, after the
/// attention output projection and after the FFN's second matmul
/// (Megatron's row-parallel matmuls), each of `b·s·h` activations.
fn pass_allreduces(dims: &TransformerDims, b: usize, act_bytes: usize) -> (usize, usize) {
    (2 * dims.layers, b * dims.seq_len * dims.hidden * act_bytes)
}

/// Megatron at partition count `t`: `(iteration_time, mem_bytes)`, or
/// `None` when infeasible structurally (`t` doesn't divide the heads or
/// the devices, or the data-parallel width doesn't divide the batch).
fn megatron_partition(
    dims: &TransformerDims,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
    batch_size: usize,
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
    let precision = cost.options().precision;
    let act_bytes = precision.activation_bytes();
    let (h, s) = (dims.hidden, dims.seq_len);

    // --- time -----------------------------------------------------------
    let flops = dims.flops_per_sample() * b as f64 / t as f64;
    let fwd = flops / dev.sustained_flops(precision);
    // gradient checkpointing implemented for Megatron (§IV-A): backward =
    // recompute + dgrad + wgrad ≈ 3x forward
    let compute = fwd * 4.0;
    // one pass's all-reduces forward, the same again backward
    let (allreduces, ar_bytes) = pass_allreduces(dims, b, act_bytes);
    let f = cost.factors();
    let comm =
        (2 * allreduces) as f64 * f.allreduce_time(cluster, ar_bytes, t, t > cluster.node.devices);
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
    use rannc_graph::{TaskGraph, TaskSet};
    use rannc_hw::{DeviceSpec, Precision};
    use rannc_models::{bert_graph, gpt_graph, BertConfig, GptConfig};
    use rannc_profile::{Profiler, ProfilerOptions};

    fn cluster() -> ClusterSpec {
        ClusterSpec::v100_cluster(4) // 32 GPUs, the paper's setting
    }

    fn options(precision: Precision) -> ProfilerOptions {
        match precision {
            Precision::FP32 => ProfilerOptions::fp32(),
            Precision::Mixed => ProfilerOptions::mixed(),
        }
    }

    /// `f` applied to an analytical cost model at `precision`. Megatron
    /// reads only the model's precision and factors, so a tiny graph
    /// backs it whatever `dims` is priced.
    fn with_cost<R>(
        cl: &ClusterSpec,
        precision: Precision,
        f: impl FnOnce(&dyn CostModel) -> R,
    ) -> R {
        let g = bert_graph(&BertConfig::tiny());
        f(&Profiler::new(&g, cl.device.clone(), options(precision)))
    }

    pub(super) fn run(
        dims: &TransformerDims,
        cl: &ClusterSpec,
        batch: usize,
        p: Precision,
    ) -> BaselineOutcome {
        with_cost(cl, p, |cost| megatron(dims, cost, cl, batch))
    }

    pub(super) fn chosen_t(out: &BaselineOutcome) -> usize {
        match out {
            BaselineOutcome::Feasible { config, .. } => config
                .trim_start_matches("T=")
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap(),
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    /// Every Megatron outcome on 4×8 V100 at batch 256, pinned bit for
    /// bit: per model, the FP32 and mixed `(iteration_time bits, T)`, or
    /// `None` for out of memory.
    #[test]
    fn pinned_outcomes_on_the_paper_cluster() {
        let bert = |h, l| TransformerDims::from(&BertConfig::enlarged(h, l));
        let pin = |bits: u64, t: usize| Some((bits, t));
        let table = [
            (
                "bert-large",
                TransformerDims::from(&BertConfig::large()),
                [pin(0x3ff376146dcfb264, 1), pin(0x3fd2fe7af52dd8a4, 2)],
            ),
            (
                "bert-1024x24",
                bert(1024, 24),
                [pin(0x3ff376146dcfb264, 1), pin(0x3fd2fe7af52dd8a4, 2)],
            ),
            (
                "bert-2048x48",
                bert(2048, 48),
                [pin(0x4020f70b9cdaee2e, 2), pin(0x3fff2f57e8ad8c3e, 2)],
            ),
            (
                "gpt2-small",
                TransformerDims::from(&GptConfig::gpt2_small()),
                [pin(0x3febf98a7a510f2a, 1), pin(0x3fc7309c11977835, 1)],
            ),
            (
                "bert-1536x144",
                bert(1536, 144),
                [None, pin(0x400f218e72b6bbd6, 4)],
            ),
        ];
        let cl = cluster();
        let rows = table.into_iter().flat_map(|(name, dims, pins)| {
            [Precision::FP32, Precision::Mixed]
                .into_iter()
                .zip(pins)
                .map(move |(precision, pinned)| (name, dims, precision, pinned))
        });
        for (name, dims, precision, pinned) in rows {
            let out = run(&dims, &cl, 256, precision);
            match (pinned, &out) {
                (Some((bits, t)), BaselineOutcome::Feasible { result, config }) => {
                    assert_eq!(
                        result.iteration_time.to_bits(),
                        bits,
                        "{name} {precision:?}"
                    );
                    assert_eq!(
                        config,
                        &format!("T={t} tensor-parallel x{} data-parallel", 32 / t),
                        "{name} {precision:?}"
                    );
                }
                (None, BaselineOutcome::OutOfMemory) => {}
                _ => panic!("{name} {precision:?}: pinned {pinned:x?}, got {out:?}"),
            }
        }
    }

    #[test]
    fn partition_infeasible_when_t_does_not_divide() {
        let cl = cluster();
        let dims = TransformerDims::from(&BertConfig::large());
        with_cost(&cl, Precision::FP32, |cost| {
            // 3 does not divide 16 heads
            assert!(megatron_partition(&dims, cost, &cl, 256, 3).is_none());
            // t beyond the device count
            assert!(megatron_partition(&dims, cost, &cl, 256, 64).is_none());
        });
    }

    #[test]
    fn larger_t_shrinks_states_and_compute() {
        let cl = cluster();
        let dims = TransformerDims::from(&BertConfig::large());
        let (m1, m4) = with_cost(&cl, Precision::FP32, |cost| {
            let mem = |t| megatron_partition(&dims, cost, &cl, 256, t).unwrap().1;
            (mem(1), mem(4))
        });
        assert!(m4 < m1, "t=4 memory {m4} should be below t=1 memory {m1}");
    }

    /// Every task of `g` inside a transformer layer (scope `*.layer<N>`).
    fn layer_tasks(g: &TaskGraph) -> TaskSet {
        TaskSet::from_ids(
            g.num_tasks(),
            g.task_ids().filter(|&t| {
                g.task(t)
                    .scope
                    .rsplit('.')
                    .next()
                    .unwrap()
                    .starts_with("layer")
            }),
        )
    }

    /// The planner prices a tensor-parallel stage's per-pass all-reduce as
    /// its row-split matmul outputs (`Profiler::tp_allreduce_bytes`). On
    /// the set of every layer it must move exactly the volume
    /// [`megatron_partition`] charges.
    fn assert_megatron_volume(g: &TaskGraph, dims: TransformerDims) {
        let set = layer_tasks(g);
        assert!(!set.is_empty(), "{}", g.name);
        for opts in [ProfilerOptions::fp32(), ProfilerOptions::mixed()] {
            let p = Profiler::new(g, DeviceSpec::v100_32gb(), opts);
            let profiled = p.profiled(&set);
            for b in [1, 2, 16] {
                let (count, bytes) = pass_allreduces(&dims, b, opts.precision.activation_bytes());
                assert_eq!(
                    p.tp_allreduce_bytes(&profiled, b),
                    count * bytes,
                    "{} at {:?}, micro-batch {b}",
                    g.name,
                    opts.precision
                );
            }
        }
    }

    #[test]
    fn bert_layers_all_reduce_megatron_volume() {
        for cfg in [BertConfig::tiny(), BertConfig::large()] {
            assert_megatron_volume(&bert_graph(&cfg), TransformerDims::from(&cfg));
        }
    }

    #[test]
    fn gpt_layers_all_reduce_megatron_volume() {
        for cfg in [GptConfig::tiny(), GptConfig::enlarged(1024, 24)] {
            assert_megatron_volume(&gpt_graph(&cfg), TransformerDims::from(&cfg));
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
        let out = run(&dims, &cluster(), 256, Precision::FP32);
        assert!(out.throughput().is_some());
    }

    #[test]
    fn oom_beyond_a_few_billion_params() {
        // Fig. 4 narrative: Megatron-LM fails for ~5x smaller models than
        // RaNNC's 12.9B ceiling, i.e. somewhere below ~3B.
        let dims = TransformerDims::from(&BertConfig::enlarged(2048, 96)); // 4.9B
        let out = run(&dims, &cluster(), 256, Precision::FP32);
        assert!(
            matches!(out, BaselineOutcome::OutOfMemory),
            "4.9B params should OOM under tensor partitioning"
        );
    }

    #[test]
    fn trains_more_than_data_parallel_scale() {
        // Megatron should still handle ~2.5B (h=2048, 48 layers)
        let dims = TransformerDims::from(&BertConfig::enlarged(2048, 48));
        let out = run(&dims, &cluster(), 256, Precision::FP32);
        assert!(out.throughput().is_some(), "2.5B should be trainable");
    }

    #[test]
    fn mixed_precision_is_faster() {
        let dims = TransformerDims::from(&BertConfig::large());
        let f = run(&dims, &cluster(), 256, Precision::FP32)
            .throughput()
            .unwrap();
        let m = run(&dims, &cluster(), 256, Precision::Mixed)
            .throughput()
            .unwrap();
        assert!(m > f, "mixed {m} should beat fp32 {f}");
    }

    #[test]
    fn larger_t_needed_for_larger_models() {
        // a model whose states exceed one device must use t > 1
        let dims = TransformerDims::from(&BertConfig::enlarged(2048, 48)); // 2.5B
        let t = chosen_t(&run(&dims, &cluster(), 256, Precision::FP32));
        // 2.5B params × 16 B/param ≈ 40 GB of states: at least two
        // shards are needed to fit a 32 GB device.
        assert!(t >= 2, "T = {t}");
    }
}

#[cfg(test)]
mod gpt_tests {
    use super::tests::{chosen_t, run};
    use super::*;
    use rannc_hw::Precision;
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
        let out = run(&dims, &ClusterSpec::v100_cluster(1), 64, Precision::FP32);
        assert!(out.throughput().is_some());
    }

    #[test]
    fn t_must_divide_heads() {
        // 12 heads: T=8 illegal, so the best feasible T is in {1,2,4}
        let dims = TransformerDims::from(&GptConfig::gpt2_small());
        let t = chosen_t(&run(
            &dims,
            &ClusterSpec::v100_cluster(1),
            64,
            Precision::FP32,
        ));
        assert!([1, 2, 4].contains(&t), "T = {t} does not divide 12 heads");
    }
}
