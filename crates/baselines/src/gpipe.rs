//! GPipe baselines: GPipe-Hybrid (layer-uniform stages + hybrid
//! parallelism) and GPipe-Model (torchgpipe: single-node model
//! parallelism).
//!
//! Paper §IV-B, BERT experiments: "For these frameworks, the total number
//! of replicas of all stages must match the number of GPUs and the number
//! of layers must be divisible by the number of stages. In addition, they
//! do not work with a single stage. Thus, we tried 2, 4, 8, and 16 as the
//! number of stages and chose the best result."
//!
//! ResNet experiments: "Since GPipe-Model can use only GPUs on a single
//! node, the maximum number of stages is eight … we tried to partition the
//! models into eight stages in all settings so that the computation times
//! would be as balanced as possible. We also set the number of microbatches
//! … to 64."

use crate::layers::{layer_groups, uniform_layer_split, LayerGroup};
use crate::BaselineOutcome;
use rannc_cost::CostModel;
use rannc_graph::{TaskGraph, TaskSet};
use rannc_hw::ClusterSpec;
use rannc_pipeline::{simulate_sync, PipelineSpec, StageSpec, SyncSchedule};

/// Knobs of a uniform (equal-replica) pipeline configuration.
pub(crate) struct UniformSpec {
    /// Replicas per stage (all stages equal — the GPipe constraint).
    pub replicas: usize,
    /// Micro-batch count.
    pub microbatches: usize,
    /// Global batch size.
    pub batch_size: usize,
    /// Override the in-flight micro-batch count for memory estimation
    /// (PipeDream-2BW bounds it by pipeline depth; `None` = `microbatches`).
    pub inflight_override: Option<usize>,
    /// Extra resident weight versions (2BW double buffering).
    pub extra_weight_copies: usize,
}

/// Build the pipeline spec for a set of equally-replicated stages, or
/// `None` when some stage exceeds device memory.
pub(crate) fn build_spec(
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
    stage_sets: &[TaskSet],
    u: &UniformSpec,
) -> Option<PipelineSpec> {
    let UniformSpec {
        replicas,
        microbatches,
        batch_size,
        inflight_override,
        extra_weight_copies,
    } = *u;
    let micro = batch_size / replicas.max(1) / microbatches.max(1);
    if micro == 0 {
        return None;
    }
    let ckpt = stage_sets.len() > 1;
    let inflight = inflight_override.unwrap_or(microbatches);
    let mut stages = Vec::with_capacity(stage_sets.len());
    for (i, set) in stage_sets.iter().enumerate() {
        let prof = cost.stage_cost(set, micro, inflight, ckpt);
        // extra weight versions (PipeDream-2BW double buffering)
        let mem = prof.mem_bytes
            + extra_weight_copies * prof.param_elems * cost.options().precision.weight_bytes();
        if mem > cluster.device.memory_bytes {
            return None;
        }
        let comm_to_next_bytes = if i + 1 < stage_sets.len() {
            cost.comm_bytes(set, &stage_sets[i + 1], micro)
        } else {
            0
        };
        stages.push(StageSpec {
            fwd_time: prof.fwd_time,
            bwd_time: prof.bwd_time,
            comm_to_next_bytes,
            grad_bytes: prof.param_elems * 4,
            replicas,
            tensor_parallel: 1,
        });
    }
    Some(PipelineSpec {
        stages,
        microbatches,
        replica_factor: 1,
        batch_size,
        link: cluster.planning_link(),
        cluster: cluster.clone(),
        cost: cost.factors(),
    })
}

/// Number of *splittable* layers: GPipe counts the repeated encoder
/// blocks; embeddings merge into the first stage and heads into the last.
fn splittable_layers(groups: &[LayerGroup]) -> usize {
    groups
        .iter()
        .filter(|l| l.scope.contains("layer") || l.scope.contains("block"))
        .count()
        .max(1)
}

/// GPipe-Hybrid: sweep stage counts {2, 4, 8, 16} (layer-divisible only),
/// equal replicas per stage, micro-batch counts in powers of two; return
/// the best feasible configuration.
pub fn gpipe_hybrid(
    g: &TaskGraph,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
    batch_size: usize,
) -> BaselineOutcome {
    let groups = layer_groups(g);
    let layers = splittable_layers(&groups);
    let devices = cluster.total_devices();
    let mut best: Option<(f64, rannc_pipeline::SimResult, String)> = None;
    let mut any_candidate = false;

    for stages in [2usize, 4, 8, 16] {
        if stages > groups.len()
            || !layers.is_multiple_of(stages)
            || !devices.is_multiple_of(stages)
        {
            continue;
        }
        let replicas = devices / stages;
        let stage_sets = uniform_layer_split(&groups, stages, g.num_tasks());
        let mut mb = 1usize;
        while mb * replicas <= batch_size {
            any_candidate = true;
            let u = UniformSpec {
                replicas,
                microbatches: mb,
                batch_size,
                inflight_override: None,
                extra_weight_copies: 0,
            };
            if let Some(spec) = build_spec(cost, cluster, &stage_sets, &u) {
                let result = simulate_sync(&spec, SyncSchedule::FillDrain, false).result;
                if best
                    .as_ref()
                    .map(|(t, _, _)| result.iteration_time < *t)
                    .unwrap_or(true)
                {
                    best = Some((
                        result.iteration_time,
                        result,
                        format!("S={stages} x{replicas} replicas, MB={mb}"),
                    ));
                }
            }
            mb *= 2;
        }
    }
    match best {
        Some((_, result, config)) => BaselineOutcome::Feasible { result, config },
        None if any_candidate => BaselineOutcome::OutOfMemory,
        None => BaselineOutcome::Unsupported,
    }
}

/// GPipe-Model (torchgpipe): one node, `stages` ≤ devices-per-node stages
/// balanced greedily over whole layers, no replication, fixed MB = 64.
pub fn gpipe_model(
    g: &TaskGraph,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
    batch_size: usize,
) -> BaselineOutcome {
    let stages = cluster.node.devices.min(8);
    let groups = layer_groups(g);
    if groups.len() < stages {
        return BaselineOutcome::Unsupported;
    }
    // manual balancing: contiguous split minimizing the max stage time via
    // binary search over per-layer profiled times (what a careful user
    // would do by hand, still at whole-layer granularity)
    let times: Vec<f64> = groups
        .iter()
        .map(|l| {
            let p = cost.stage_cost(&l.set, 1, 1, true);
            p.fwd_time + p.bwd_time
        })
        .collect();
    let splits = balanced_contiguous_split(&times, stages);
    let mut stage_sets = Vec::with_capacity(stages);
    let mut start = 0usize;
    for &end in &splits {
        let mut set = TaskSet::new(g.num_tasks());
        for l in &groups[start..end] {
            set.union_with(&l.set);
        }
        stage_sets.push(set);
        start = end;
    }

    // single-node cluster view for this baseline
    let one_node = ClusterSpec {
        nodes: 1,
        ..cluster.clone()
    };
    let mb = 64usize.min(batch_size.max(1));
    let u = UniformSpec {
        replicas: 1,
        microbatches: mb,
        batch_size,
        inflight_override: None,
        extra_weight_copies: 0,
    };
    match build_spec(cost, &one_node, &stage_sets, &u) {
        Some(spec) => {
            let result = simulate_sync(&spec, SyncSchedule::FillDrain, false).result;
            BaselineOutcome::Feasible {
                result,
                config: format!("S={stages} model-parallel, MB={mb}"),
            }
        }
        None => BaselineOutcome::OutOfMemory,
    }
}

/// Split `times` into `k` contiguous runs minimizing the maximum run sum
/// (classic linear-partition via parametric search).
fn balanced_contiguous_split(times: &[f64], k: usize) -> Vec<usize> {
    let k = k.min(times.len());
    let total: f64 = times.iter().sum();
    let maxt = times.iter().cloned().fold(0.0, f64::max);
    let (mut lo, mut hi) = (maxt, total);
    let feasible = |cap: f64| -> Option<Vec<usize>> {
        let mut cuts = Vec::with_capacity(k);
        let mut acc = 0.0;
        for (i, &t) in times.iter().enumerate() {
            if acc + t > cap + 1e-15 {
                cuts.push(i);
                acc = t;
                if cuts.len() == k {
                    return None;
                }
            } else {
                acc += t;
            }
        }
        cuts.push(times.len());
        (cuts.len() <= k).then_some(cuts)
    };
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if feasible(mid).is_some() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let mut cuts = feasible(hi).expect("hi is feasible by construction");
    // pad to exactly k runs if the greedy used fewer
    while cuts.len() < k {
        // split the longest run containing > 1 layer
        let mut start = 0usize;
        let mut best: Option<(f64, usize, usize)> = None;
        for (ci, &end) in cuts.iter().enumerate() {
            if end - start > 1 {
                let sum: f64 = times[start..end].iter().sum();
                if best.map(|(b, _, _)| sum > b).unwrap_or(true) {
                    best = Some((sum, ci, start));
                }
            }
            start = end;
        }
        let Some((_, ci, start)) = best else { break };
        let end = cuts[ci];
        cuts.insert(ci, (start + end) / 2);
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc_hw::DeviceSpec;
    use rannc_models::{bert_graph, resnet_graph, BertConfig, ResNetConfig};
    use rannc_profile::{Profiler, ProfilerOptions};

    #[test]
    fn balanced_split_basics() {
        let cuts = balanced_contiguous_split(&[1.0, 1.0, 1.0, 1.0], 2);
        assert_eq!(cuts, vec![2, 4]);
        let cuts = balanced_contiguous_split(&[5.0, 1.0, 1.0, 1.0], 2);
        assert_eq!(cuts, vec![1, 4]);
    }

    #[test]
    fn gpipe_hybrid_on_bert() {
        let cfg = BertConfig {
            layers: 4,
            ..BertConfig::tiny()
        };
        let g = bert_graph(&cfg);
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let cluster = ClusterSpec::v100_cluster(1);
        let out = gpipe_hybrid(&g, &profiler, &cluster, 64);
        let r = out.ok().expect("feasible");
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn gpipe_model_on_resnet() {
        let g = resnet_graph(&ResNetConfig::tiny());
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let cluster = ClusterSpec::v100_cluster(1);
        let out = gpipe_model(&g, &profiler, &cluster, 128);
        let r = out.ok().expect("feasible");
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn gpipe_is_the_t1_restriction_of_the_unified_model() {
        // GPipe has no intra-op axis: every stage spec it builds carries
        // tensor_parallel = 1, so the baseline is exactly the unified
        // (S, MB, T) pipeline model pinned at T = 1 — pinning the degree
        // explicitly changes nothing, bit for bit.
        let cfg = BertConfig {
            layers: 4,
            ..BertConfig::tiny()
        };
        let g = bert_graph(&cfg);
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let cluster = ClusterSpec::v100_cluster(1);
        let groups = layer_groups(&g);
        let stage_sets = uniform_layer_split(&groups, 2, g.num_tasks());
        let u = UniformSpec {
            replicas: 4,
            microbatches: 4,
            batch_size: 64,
            inflight_override: None,
            extra_weight_copies: 0,
        };
        let spec = build_spec(&profiler, &cluster, &stage_sets, &u).expect("feasible");
        assert!(spec.stages.iter().all(|s| s.tensor_parallel == 1));
        let base = simulate_sync(&spec, SyncSchedule::FillDrain, false).result;
        let mut pinned = spec.clone();
        for st in &mut pinned.stages {
            st.tensor_parallel = 1;
        }
        let re = simulate_sync(&pinned, SyncSchedule::FillDrain, false).result;
        assert_eq!(base.iteration_time.to_bits(), re.iteration_time.to_bits());
        assert_eq!(
            spec.tail().allreduce.to_bits(),
            pinned.tail().allreduce.to_bits()
        );
    }

    #[test]
    fn gpipe_hybrid_oom_on_small_memory() {
        let cfg = BertConfig {
            layers: 4,
            ..BertConfig::tiny()
        };
        let g = bert_graph(&cfg);
        let dev = DeviceSpec::v100_32gb().with_memory(1 << 20);
        let profiler = Profiler::new(&g, dev.clone(), ProfilerOptions::fp32());
        let cluster = ClusterSpec {
            device: dev,
            ..ClusterSpec::v100_cluster(1)
        };
        assert!(matches!(
            gpipe_hybrid(&g, &profiler, &cluster, 64),
            BaselineOutcome::OutOfMemory
        ));
    }
}
