//! Pure data-parallel training model (the paper's "data parallelism"
//! baseline — PyTorch's official distributed data parallelism).
//!
//! Every device holds a full model replica and processes
//! `BS / total_devices` samples per iteration. Gradient accumulation
//! (§IV-A) splits that share into steps of at most `max_micro` samples to
//! bound activation memory; gradients are ring-all-reduced across all
//! devices once per iteration. No gradient checkpointing (the stock model
//! descriptions the paper uses for this baseline don't enable it), so
//! activations of a whole step stay resident — which is why data
//! parallelism "could train only the smallest model" (§IV-B).

use crate::spec::SimResult;
use rannc_cost::{sync_iteration_time, CostModel, IterationTail, StageGrads};
use rannc_graph::{TaskGraph, TaskSet};
use rannc_hw::ClusterSpec;

/// Outcome of the data-parallel feasibility + performance model.
#[derive(Debug, Clone)]
pub enum DataParallelOutcome {
    /// Trains; one iteration takes `result.iteration_time`.
    Feasible(SimResult),
    /// Out of memory even with one-sample accumulation steps.
    OutOfMemory {
        /// Memory needed at micro-batch 1, bytes.
        needed: usize,
        /// Device memory available, bytes.
        available: usize,
    },
}

impl DataParallelOutcome {
    /// The result if feasible.
    pub fn ok(self) -> Option<SimResult> {
        match self {
            DataParallelOutcome::Feasible(r) => Some(r),
            DataParallelOutcome::OutOfMemory { .. } => None,
        }
    }
}

/// Simulate one iteration of pure data parallelism for the whole graph.
///
/// Picks the largest accumulation micro-step (a power of two ≤ the
/// per-device share) that fits device memory.
pub fn simulate_data_parallel(
    g: &TaskGraph,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
    batch_size: usize,
) -> DataParallelOutcome {
    let devices = cluster.total_devices();
    let per_device = (batch_size / devices).max(1);
    let whole = TaskSet::from_ids(g.num_tasks(), g.task_ids());

    // largest power-of-two micro-step that fits
    let mut micro = per_device.next_power_of_two();
    if micro > per_device {
        micro /= 2;
    }
    let mut chosen = None;
    while micro >= 1 {
        let prof = cost.stage_cost(&whole, micro, 1, false);
        if prof.mem_bytes <= cluster.device.memory_bytes {
            chosen = Some((micro, prof));
            break;
        }
        if micro == 1 {
            return DataParallelOutcome::OutOfMemory {
                needed: prof.mem_bytes,
                available: cluster.device.memory_bytes,
            };
        }
        micro /= 2;
    }
    let (micro, prof) = chosen.expect("loop guarantees Some or early return");

    // one stage replicated on every device: the synchronous closed form
    // at S = 1, with the accumulation steps as its micro-batches
    let steps = per_device.div_ceil(micro);
    let step = prof.fwd_time + prof.bwd_time;
    let grads = StageGrads::of_params(prof.param_elems, devices, 1);
    let tail = IterationTail::price(cluster, cost.factors(), 1, [grads]);
    let iteration = sync_iteration_time(1, steps, step, tail);
    let busy = vec![steps as f64 * step];
    DataParallelOutcome::Feasible(SimResult::new(iteration, batch_size, busy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc_hw::DeviceSpec;
    use rannc_models::{bert_graph, mlp_graph, BertConfig, MlpConfig};
    use rannc_profile::{Profiler, ProfilerOptions};

    #[test]
    fn small_model_is_feasible() {
        let g = mlp_graph(&MlpConfig::deep(64, 64, 4, 10));
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let cluster = ClusterSpec::v100_cluster(1);
        let out = simulate_data_parallel(&g, &profiler, &cluster, 64);
        let r = out.ok().expect("feasible");
        assert!(r.iteration_time > 0.0);
    }

    #[test]
    fn huge_model_oom() {
        // 2B params -> 32 GB of states alone exceeds a 32 GB device (plus
        // overhead); data parallelism must report OOM.
        let g = bert_graph(&BertConfig::enlarged(256, 4)); // small graph but...
        let profiler = Profiler::new(
            &g,
            DeviceSpec::v100_32gb().with_memory(1 << 28),
            ProfilerOptions::fp32(),
        );
        let cluster = ClusterSpec {
            device: DeviceSpec::v100_32gb().with_memory(1 << 28),
            ..ClusterSpec::v100_cluster(1)
        };
        let out = simulate_data_parallel(&g, &profiler, &cluster, 64);
        assert!(matches!(out, DataParallelOutcome::OutOfMemory { .. }));
    }

    #[test]
    fn more_devices_faster_for_compute_heavy_models() {
        // BERT-style models reuse every parameter ~seq_len times, so the
        // compute term dominates the gradient all-reduce and data
        // parallelism scales. (Parameter-heavy MLPs do NOT — the
        // all-reduce over InfiniBand dominates — which the model captures
        // faithfully.)
        let g = bert_graph(&BertConfig::enlarged(128, 4));
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let c1 = ClusterSpec::v100_cluster(1);
        let c4 = ClusterSpec::v100_cluster(4);
        let t1 = simulate_data_parallel(&g, &profiler, &c1, 256)
            .ok()
            .unwrap()
            .iteration_time;
        let t4 = simulate_data_parallel(&g, &profiler, &c4, 256)
            .ok()
            .unwrap()
            .iteration_time;
        assert!(t4 < t1, "t1={t1} t4={t4}");
    }

    #[test]
    fn allreduce_bound_mlp_does_not_scale_across_nodes() {
        // The inverse property: a parameter-heavy MLP is all-reduce bound
        // over InfiniBand, so 4 nodes are no better than 1.
        let g = mlp_graph(&MlpConfig::deep(2048, 2048, 8, 10));
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let c1 = ClusterSpec::v100_cluster(1);
        let c4 = ClusterSpec::v100_cluster(4);
        let t1 = simulate_data_parallel(&g, &profiler, &c1, 4096)
            .ok()
            .unwrap()
            .iteration_time;
        let t4 = simulate_data_parallel(&g, &profiler, &c4, 4096)
            .ok()
            .unwrap()
            .iteration_time;
        assert!(t4 > t1 * 0.8, "t1={t1} t4={t4}");
    }
}
