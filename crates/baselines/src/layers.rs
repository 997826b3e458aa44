//! Layer-granularity views of a task graph, and layer splits as plans.
//!
//! The manual baselines cannot see individual tasks — their users declare
//! *layers* (the paper's coarse "blocks given by users", §II-C) and the
//! frameworks combine whole layers into stages. This module groups a
//! graph's tasks by the builder-assigned scope tag, in topological order,
//! preserving the imbalance the paper highlights (e.g. the BERT head's
//! vocabulary matmul living inside the last layer group).
//!
//! A contiguous layer split is a point of the planner's own `(S, MB, T)`
//! space at `T = 1`, so a baseline prices it as one: the split becomes a
//! [`PartitionPlan`], the stage residency comes from the framework's
//! [`Residency`] rule, and the simulator spec comes from the planner's
//! [`spec_from_plan`].

use crate::BaselineOutcome;
use rannc_core::{DpSolution, DpStage, PartitionPlan};
use rannc_cost::CostModel;
use rannc_graph::{TaskGraph, TaskSet};
use rannc_hw::ClusterSpec;
use rannc_pipeline::{spec_from_plan, PipelineSpec, SimResult};
use rannc_profile::Residency;

/// One user-declared layer: its scope name and task set.
#[derive(Debug, Clone)]
pub struct LayerGroup {
    /// Scope tag, e.g. `"encoder.layer3"`.
    pub scope: String,
    /// Tasks of the layer.
    pub set: TaskSet,
}

/// Group tasks by scope, ordered by first appearance along the
/// topological order. Tasks with an empty scope join the preceding group
/// (or the first group if none precedes).
pub fn layer_groups(g: &TaskGraph) -> Vec<LayerGroup> {
    let n = g.num_tasks();
    let order = g.index().order();
    let mut groups: Vec<LayerGroup> = Vec::new();
    let mut index_of: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for &t in order {
        let scope = g.task(t).scope.as_str();
        let gi = if scope.is_empty() {
            if groups.is_empty() {
                groups.push(LayerGroup {
                    scope: String::new(),
                    set: TaskSet::new(n),
                });
            }
            groups.len() - 1
        } else {
            *index_of.entry(scope.to_string()).or_insert_with(|| {
                groups.push(LayerGroup {
                    scope: scope.to_string(),
                    set: TaskSet::new(n),
                });
                groups.len() - 1
            })
        };
        groups[gi].set.insert(t);
    }
    // Order by the *latest* task of each group: constant tasks (e.g. the
    // LM head's weight transpose) have no predecessors and float to the
    // front of Kahn order, so first-appearance ordering would misplace
    // the head group. The deepest task of each layer orders them as the
    // model executes.
    let pos = g.index().positions();
    groups.sort_by_key(|l| l.set.iter().map(|t| pos[t.index()]).max().unwrap_or(0));
    groups
}

/// Split `groups` into `stages` consecutive runs with (as close as
/// possible) equal *layer counts* — the GPipe/PipeDream rule ("the number
/// of layers must be divisible by the number of stages", §IV-B). The
/// first/last run absorbs the remainder groups (embeddings/heads).
pub fn uniform_layer_split(groups: &[LayerGroup], stages: usize, universe: usize) -> Vec<TaskSet> {
    assert!(stages >= 1 && stages <= groups.len());
    let per = groups.len() / stages;
    let rem = groups.len() % stages;
    let mut out = Vec::with_capacity(stages);
    let mut i = 0usize;
    for s in 0..stages {
        let take = per + usize::from(s < rem);
        let mut set = TaskSet::new(universe);
        for group in &groups[i..i + take] {
            set.union_with(&group.set);
        }
        i += take;
        out.push(set);
    }
    out
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

/// How a pipeline framework runs a layer split.
pub(crate) struct Framework {
    /// What its stages keep resident at `(S, MB)`.
    pub residency: fn(usize, usize) -> Residency,
    /// Extra resident weight versions (2BW double buffering).
    pub extra_weight_copies: usize,
    /// Times one iteration of a priced split under its schedule.
    pub simulate: fn(&PipelineSpec) -> SimResult,
    /// Appended to the configuration description.
    pub suffix: &'static str,
}

/// Run `stage_sets`, in pipeline order and each on `replicas` devices
/// with `microbatches` per iteration, as a plan under `framework`, or
/// `None` when the micro-batch would be empty or a stage exceeds device
/// memory.
pub(crate) fn run_split(
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
    stage_sets: &[TaskSet],
    replicas: usize,
    microbatches: usize,
    batch_size: usize,
    framework: &Framework,
) -> Option<SimResult> {
    let micro = batch_size / replicas / microbatches;
    if micro == 0 {
        return None;
    }
    let residency = (framework.residency)(stage_sets.len(), microbatches);
    let weight_bytes = cost.options().precision.weight_bytes();
    let mut stages = Vec::with_capacity(stage_sets.len());
    for (i, set) in stage_sets.iter().enumerate() {
        let prof = cost.stage_cost(set, micro, residency.inflight, residency.checkpointing);
        let mem_bytes =
            prof.mem_bytes + framework.extra_weight_copies * prof.param_elems * weight_bytes;
        if mem_bytes > cluster.device.memory_bytes {
            return None;
        }
        stages.push(DpStage {
            set: set.clone(),
            block_range: (i, i + 1),
            devices: replicas,
            tensor_parallel: 1,
            micro_batch: micro,
            fwd_time: prof.fwd_time,
            bwd_time: prof.bwd_time,
            mem_bytes,
            param_elems: prof.param_elems,
        });
    }
    let slowest = |t: fn(&DpStage) -> f64| stages.iter().map(t).fold(0.0, f64::max);
    let value = slowest(|s| s.fwd_time) + slowest(|s| s.bwd_time);
    let sol = DpSolution {
        stages,
        value,
        microbatches,
        replica_factor: 1,
    };
    let plan = PartitionPlan::from_solution(cost.graph().name.clone(), &sol, batch_size);
    let spec = spec_from_plan(&plan, cost, cluster).expect("a layer split is a valid plan");
    Some((framework.simulate)(&spec))
}

/// The GPipe-Hybrid / PipeDream-2BW search (§IV-B): stage counts
/// {2, 4, 8, 16} dividing both the splittable layers and the devices,
/// equal replicas per stage, micro-batch counts in powers of two; the
/// fastest feasible point under `framework`.
pub(crate) fn layer_uniform_sweep(
    g: &TaskGraph,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
    batch_size: usize,
    framework: &Framework,
) -> BaselineOutcome {
    let groups = layer_groups(g);
    let layers = splittable_layers(&groups);
    let devices = cluster.total_devices();
    let mut best: Option<(SimResult, String)> = None;
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
        let mbs = std::iter::successors(Some(1usize), |mb| Some(mb * 2));
        for mb in mbs.take_while(|mb| mb * replicas <= batch_size) {
            any_candidate = true;
            let run = run_split(
                cost,
                cluster,
                &stage_sets,
                replicas,
                mb,
                batch_size,
                framework,
            );
            let Some(result) = run else { continue };
            if best
                .as_ref()
                .is_none_or(|(b, _)| result.iteration_time < b.iteration_time)
            {
                let config = format!("S={stages} x{replicas} replicas, MB={mb}");
                best = Some((result, config + framework.suffix));
            }
        }
    }
    match best {
        Some((result, config)) => BaselineOutcome::Feasible { result, config },
        None if any_candidate => BaselineOutcome::OutOfMemory,
        None => BaselineOutcome::Unsupported,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc_models::{bert_graph, mlp_graph, BertConfig, MlpConfig};

    #[test]
    fn bert_layers_are_grouped() {
        let cfg = BertConfig::tiny(); // 2 encoder layers
        let g = bert_graph(&cfg);
        let groups = layer_groups(&g);
        // embeddings + 2 layers + head
        assert_eq!(
            groups.len(),
            4,
            "{:?}",
            groups.iter().map(|l| &l.scope).collect::<Vec<_>>()
        );
        assert_eq!(groups[0].scope, "embeddings");
        assert_eq!(groups[1].scope, "encoder.layer0");
        assert_eq!(groups[3].scope, "head");
        // cover all tasks
        let total: usize = groups.iter().map(|l| l.set.len()).sum();
        assert_eq!(total, g.num_tasks());
    }

    #[test]
    fn uniform_split_counts() {
        let g = mlp_graph(&MlpConfig::deep(16, 16, 7, 4)); // 7 fc + head = 8 groups
        let groups = layer_groups(&g);
        assert_eq!(groups.len(), 8);
        let stages = uniform_layer_split(&groups, 4, g.num_tasks());
        assert_eq!(stages.len(), 4);
        let total: usize = stages.iter().map(|s| s.len()).sum();
        assert_eq!(total, g.num_tasks());
    }

    #[test]
    fn head_lives_in_last_stage() {
        // the paper's §II-C observation: the huge vocab matmul is stuck in
        // the last stage under layer-granular splitting
        let g = bert_graph(&BertConfig::tiny());
        let groups = layer_groups(&g);
        let stages = uniform_layer_split(&groups, 2, g.num_tasks());
        let head = groups.last().unwrap();
        assert!(head.set.is_subset(stages.last().unwrap()));
    }
}
