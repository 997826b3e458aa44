//! The one closed form of a synchronous training iteration: a fill–drain
//! pipeline, then the slowest stage group's gradient all-reduce, then the
//! optimizer step on the largest per-shard gradient.

use crate::CostFactors;
use rannc_hw::ClusterSpec;

/// Time of a synchronous fill–drain pipeline, `(MB + S − 1) · V`: `MB`
/// bottleneck slots plus `S − 1` fill/drain slots.
#[inline]
pub fn sync_pipeline_iteration(stages: usize, microbatches: usize, bottleneck: f64) -> f64 {
    (microbatches + stages - 1) as f64 * bottleneck
}

/// The closed-form time of one synchronous iteration: the fill–drain
/// pipeline, then `tail`.
pub fn sync_iteration_time(
    stages: usize,
    microbatches: usize,
    bottleneck: f64,
    tail: IterationTail,
) -> f64 {
    tail.after(sync_pipeline_iteration(stages, microbatches, bottleneck))
}

/// One pipeline stage as the iteration tail sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageGrads {
    /// Gradient bytes each tensor-parallel shard all-reduces and steps.
    pub grad_bytes: usize,
    /// Data-parallel replicas of the stage inside one pipeline replica.
    pub replicas: usize,
    /// Tensor-parallel degree: devices per data-parallel replica.
    pub tensor_parallel: usize,
}

impl StageGrads {
    /// A stage of `param_elems` parameters with FP32 master gradients (4
    /// bytes each), split across its `tensor_parallel` shards.
    pub fn of_params(param_elems: usize, replicas: usize, tensor_parallel: usize) -> Self {
        StageGrads {
            grad_bytes: param_elems * 4 / tensor_parallel,
            replicas,
            tensor_parallel,
        }
    }

    /// The stage's gradient all-reduce over its `replicas × R` group;
    /// zero for a group of one.
    pub fn allreduce_time(
        &self,
        cluster: &ClusterSpec,
        factors: CostFactors,
        replica_factor: usize,
        spans_nodes: bool,
    ) -> f64 {
        let group = self.replicas * replica_factor;
        if group > 1 {
            factors.allreduce_time(cluster, self.grad_bytes, group, spans_nodes)
        } else {
            0.0
        }
    }
}

/// What follows the last backward pass of a synchronous iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationTail {
    /// Gradient all-reduce of the slowest stage group, seconds.
    pub allreduce: f64,
    /// Optimizer step on the largest per-shard gradient, seconds.
    pub optimizer: f64,
    /// Whether the stage groups cross nodes: `R > 1`, or one pipeline
    /// holds more devices than one node.
    pub spans_nodes: bool,
}

impl IterationTail {
    /// Price the tail of a pipeline of `stages`, replicated `R` times
    /// across `cluster`, at a cost model's `factors`.
    pub fn price(
        cluster: &ClusterSpec,
        factors: CostFactors,
        replica_factor: usize,
        stages: impl IntoIterator<Item = StageGrads, IntoIter: Clone>,
    ) -> Self {
        let stages = stages.into_iter();
        let devices: usize = stages.clone().map(|s| s.replicas * s.tensor_parallel).sum();
        let spans_nodes = replica_factor > 1 || devices > cluster.node.devices;
        let allreduce = (stages.clone())
            .map(|s| s.allreduce_time(cluster, factors, replica_factor, spans_nodes))
            .fold(0.0, f64::max);
        let largest = stages.map(|s| s.grad_bytes).max().unwrap_or(0);
        IterationTail {
            allreduce,
            optimizer: factors.optimizer_time(&cluster.device, largest),
            spans_nodes,
        }
    }

    /// The iteration time of a pipeline whose last backward pass ends at
    /// `pipeline` seconds.
    pub fn after(&self, pipeline: f64) -> f64 {
        pipeline + self.allreduce + self.optimizer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(grad_bytes: usize, replicas: usize, tensor_parallel: usize) -> StageGrads {
        StageGrads {
            grad_bytes,
            replicas,
            tensor_parallel,
        }
    }

    #[test]
    fn tail_is_the_slowest_group_and_the_largest_shard() {
        let cluster = ClusterSpec::v100_cluster(4);
        let f = CostFactors::identity();
        let stages = [
            stage(1 << 26, 2, 1),
            stage(1 << 28, 1, 1),
            stage(1 << 20, 4, 1),
        ];
        let tail = IterationTail::price(&cluster, f, 2, stages);
        let ar = stages
            .iter()
            .map(|s| cluster.replica_allreduce_time(s.grad_bytes, s.replicas * 2, true))
            .fold(0.0, f64::max);
        assert_eq!(tail.allreduce.to_bits(), ar.to_bits());
        assert_eq!(
            tail.optimizer.to_bits(),
            cluster.device.optimizer_step_time(1 << 28).to_bits()
        );
        assert_eq!(
            sync_iteration_time(3, 8, 0.01, tail).to_bits(),
            (sync_pipeline_iteration(3, 8, 0.01) + tail.allreduce + tail.optimizer).to_bits()
        );
        // calibration factors scale the two terms
        let f = CostFactors {
            allreduce_inter: 3.0,
            optimizer: 2.0,
            ..f
        };
        let scaled = IterationTail::price(&cluster, f, 2, stages);
        assert_eq!(scaled.allreduce, tail.allreduce * 3.0);
        assert_eq!(scaled.optimizer, tail.optimizer * 2.0);
    }

    #[test]
    fn groups_span_nodes_across_replicas_or_past_one_node() {
        let cluster = ClusterSpec::v100_cluster(4);
        let node = cluster.node.devices;
        let spans = |r, stages: &[StageGrads]| {
            IterationTail::price(&cluster, CostFactors::identity(), r, stages.iter().copied())
                .spans_nodes
        };
        // one pipeline inside one node, unreplicated: intra-node
        assert!(!spans(1, &[stage(8, node, 1)]));
        // whole pipeline replicas always cross nodes
        assert!(spans(2, &[stage(8, 1, 1)]));
        // a pipeline wider than one node crosses nodes, tensor shards counted
        assert!(spans(1, &[stage(8, node, 1), stage(8, 1, 1)]));
        assert!(spans(1, &[stage(8, node / 2 + 1, 2)]));
        // so its replicated stages all-reduce on the inter-node ring even
        // without whole-pipeline replicas
        let wide = [stage(1 << 26, node, 1), stage(1 << 26, node, 1)];
        let tail = IterationTail::price(&cluster, CostFactors::identity(), 1, wide);
        assert_eq!(
            tail.allreduce.to_bits(),
            cluster
                .replica_allreduce_time(1 << 26, node, true)
                .to_bits()
        );
    }
}
