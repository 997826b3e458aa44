//! Layer-granularity views of a task graph.
//!
//! The manual baselines cannot see individual tasks — their users declare
//! *layers* (the paper's coarse "blocks given by users", §II-C) and the
//! frameworks combine whole layers into stages. This module groups a
//! graph's tasks by the builder-assigned scope tag, in topological order,
//! preserving the imbalance the paper highlights (e.g. the BERT head's
//! vocabulary matmul living inside the last layer group).

use rannc_graph::{TaskGraph, TaskSet};

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
