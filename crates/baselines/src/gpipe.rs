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

use crate::layers::{layer_groups, layer_uniform_sweep, run_split, Framework};
use crate::BaselineOutcome;
use rannc_cost::CostModel;
use rannc_graph::{TaskGraph, TaskSet};
use rannc_hw::ClusterSpec;
use rannc_pipeline::{simulate_sync, PipelineSpec, SimResult, SyncSchedule};
use rannc_profile::Residency;

/// GPipe's synchronous fill–drain schedule.
const GPIPE: Framework = Framework {
    residency: Residency::fill_drain,
    extra_weight_copies: 0,
    simulate: fill_drain,
    suffix: "",
};

fn fill_drain(spec: &PipelineSpec) -> SimResult {
    simulate_sync(spec, SyncSchedule::FillDrain, false).result
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
    layer_uniform_sweep(g, cost, cluster, batch_size, &GPIPE)
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
    let probe = Residency::probe();
    let times: Vec<f64> = groups
        .iter()
        .map(|l| {
            let p = cost.stage_cost(&l.set, 1, probe.inflight, probe.checkpointing);
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
    match run_split(cost, &one_node, &stage_sets, 1, mb, batch_size, &GPIPE) {
        Some(result) => BaselineOutcome::Feasible {
            result,
            config: format!("S={stages} model-parallel, MB={mb}"),
        },
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
    use crate::layers::uniform_layer_split;
    use rannc_core::{PartitionPlan, StagePlan};
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
        // GPipe has no intra-op axis: a layer split runs as a plan whose
        // stages all carry tensor_parallel = 1, so the baseline is exactly
        // the unified (S, MB, T) pipeline model pinned at T = 1, and the
        // plan's simulation is the baseline's, bit for bit.
        let cfg = BertConfig {
            layers: 4,
            ..BertConfig::tiny()
        };
        let g = bert_graph(&cfg);
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let cluster = ClusterSpec::v100_cluster(1);
        let groups = layer_groups(&g);
        let stage_sets = uniform_layer_split(&groups, 2, g.num_tasks());
        let result = run_split(&profiler, &cluster, &stage_sets, 4, 4, 64, &GPIPE);
        let stages = stage_sets.iter().map(|set| StagePlan {
            set: set.clone(),
            replicas: 4,
            tensor_parallel: 1,
            micro_batch: 4,
            fwd_time: 0.0,
            bwd_time: 0.0,
            mem_bytes: 0,
            param_elems: 0,
        });
        let plan = PartitionPlan {
            model: g.name.clone(),
            stages: stages.collect(),
            microbatches: 4,
            replica_factor: 1,
            batch_size: 64,
            bottleneck: 0.0,
            est_iteration_time: 0.0,
        };
        let sim = rannc_pipeline::simulate_plan(&plan, &profiler, &cluster).unwrap();
        let result = result.expect("feasible");
        assert_eq!(
            result.iteration_time.to_bits(),
            sim.iteration_time.to_bits()
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
