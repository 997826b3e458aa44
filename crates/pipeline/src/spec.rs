//! Simulator input/output types.

use rannc_cost::{CostFactors, IterationTail, StageGrads};
use rannc_hw::{ClusterSpec, LinkSpec};

/// One pipeline stage as the simulator sees it.
#[derive(Debug, Clone)]
pub struct StageSpec {
    /// Forward time of one micro-batch on one replica, seconds.
    pub fwd_time: f64,
    /// Backward time of one micro-batch (incl. recompute), seconds.
    pub bwd_time: f64,
    /// Activation bytes sent to the next stage per micro-batch (already
    /// scaled by micro-batch size and precision). 0 for the last stage.
    pub comm_to_next_bytes: usize,
    /// Gradient bytes the stage all-reduces across its replica group
    /// after the last micro-batch.
    pub grad_bytes: usize,
    /// Data-parallel replicas of this stage within one pipeline.
    pub replicas: usize,
    /// Tensor-parallel degree of the stage: each replica is sharded
    /// across this many devices (1 = unsplit). `grad_bytes` is already
    /// the per-shard volume; the intra-stage activation all-reduce is
    /// folded into `fwd_time`/`bwd_time` by the cost model.
    pub tensor_parallel: usize,
}

/// A full pipeline configuration to simulate.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// Stages in order.
    pub stages: Vec<StageSpec>,
    /// Micro-batch count per iteration.
    pub microbatches: usize,
    /// Whole-pipeline replicas (hybrid data parallelism).
    pub replica_factor: usize,
    /// Global mini-batch size (for throughput reporting).
    pub batch_size: usize,
    /// Link carrying stage-to-stage activations.
    pub link: LinkSpec,
    /// The cluster (for all-reduce cost modelling).
    pub cluster: ClusterSpec,
    /// Cost-model correction factors applied to the priced quantities.
    /// Identity by default — a spec priced without a calibrated model
    /// reproduces the analytical formulas bit-for-bit.
    pub cost: CostFactors,
}

/// Why a [`PipelineSpec`] is not simulatable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec has no stages.
    NoStages,
    /// The spec schedules zero micro-batches.
    NoMicrobatches,
    /// A stage has zero data-parallel replicas.
    ZeroReplicas {
        /// Offending stage index.
        stage: usize,
    },
    /// A stage has a zero tensor-parallel degree.
    ZeroTensorParallel {
        /// Offending stage index.
        stage: usize,
    },
    /// The spec has zero whole-pipeline replicas.
    ZeroReplicaFactor,
    /// The spec reports a zero global batch size.
    ZeroBatch,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NoStages => write!(f, "pipeline spec has no stages"),
            SpecError::NoMicrobatches => write!(f, "pipeline spec has zero micro-batches"),
            SpecError::ZeroReplicas { stage } => {
                write!(f, "stage {stage} has zero replicas")
            }
            SpecError::ZeroTensorParallel { stage } => {
                write!(f, "stage {stage} has a zero tensor-parallel degree")
            }
            SpecError::ZeroReplicaFactor => write!(f, "zero pipeline replicas"),
            SpecError::ZeroBatch => write!(f, "zero batch size"),
        }
    }
}

impl std::error::Error for SpecError {}

impl PipelineSpec {
    /// Reject structurally impossible specs before simulation: empty
    /// stage lists, zero micro-batches, zero-replica stages.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.stages.is_empty() {
            return Err(SpecError::NoStages);
        }
        if self.microbatches == 0 {
            return Err(SpecError::NoMicrobatches);
        }
        if self.replica_factor == 0 {
            return Err(SpecError::ZeroReplicaFactor);
        }
        if self.batch_size == 0 {
            return Err(SpecError::ZeroBatch);
        }
        if let Some(stage) = self.stages.iter().position(|s| s.replicas == 0) {
            return Err(SpecError::ZeroReplicas { stage });
        }
        if let Some(stage) = self.stages.iter().position(|s| s.tensor_parallel == 0) {
            return Err(SpecError::ZeroTensorParallel { stage });
        }
        Ok(())
    }

    /// Transfer time of stage `i`'s activations to stage `i+1`.
    pub fn comm_time(&self, i: usize) -> f64 {
        let bytes = self.stages[i].comm_to_next_bytes;
        if bytes == 0 {
            0.0
        } else {
            self.link.transfer_time(bytes) * self.cost.transfer
        }
    }

    /// The iteration tail after the last backward pass, priced as the
    /// search's closed form prices it.
    pub fn tail(&self) -> IterationTail {
        let grads = self.stages.iter().map(|s| StageGrads {
            grad_bytes: s.grad_bytes,
            replicas: s.replicas,
            tensor_parallel: s.tensor_parallel,
        });
        IterationTail::price(&self.cluster, self.cost, self.replica_factor, grads)
    }
}

/// What a simulation run reports.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Wall time of one training iteration, seconds.
    pub iteration_time: f64,
    /// Samples per second (`batch_size / iteration_time`).
    pub throughput: f64,
    /// Busy time of each stage within the iteration, seconds.
    pub stage_busy: Vec<f64>,
    /// Mean stage utilization: busy / iteration.
    pub utilization: f64,
}

impl SimResult {
    /// Compose the result from raw pieces.
    pub fn new(iteration_time: f64, batch_size: usize, stage_busy: Vec<f64>) -> Self {
        let utilization = if iteration_time > 0.0 && !stage_busy.is_empty() {
            stage_busy.iter().sum::<f64>() / (iteration_time * stage_busy.len() as f64)
        } else {
            0.0
        };
        SimResult {
            iteration_time,
            throughput: batch_size as f64 / iteration_time,
            stage_busy,
            utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc_hw::ClusterSpec;

    pub(crate) fn toy_spec(stages: usize, mb: usize) -> PipelineSpec {
        PipelineSpec {
            stages: (0..stages)
                .map(|_| StageSpec {
                    fwd_time: 0.010,
                    bwd_time: 0.020,
                    comm_to_next_bytes: 1 << 20,
                    grad_bytes: 4 << 20,
                    replicas: 1,
                    tensor_parallel: 1,
                })
                .collect(),
            microbatches: mb,
            replica_factor: 1,
            batch_size: 32,
            link: rannc_hw::LinkSpec::nvlink(),
            cluster: ClusterSpec::v100_cluster(1),
            cost: CostFactors::identity(),
        }
    }

    #[test]
    fn comm_time_zero_for_no_bytes() {
        let mut s = toy_spec(2, 4);
        s.stages[1].comm_to_next_bytes = 0;
        assert!(s.comm_time(0) > 0.0);
        assert_eq!(s.comm_time(1), 0.0);
    }

    #[test]
    fn allreduce_zero_without_replication() {
        let s = toy_spec(2, 4);
        assert_eq!(s.tail().allreduce, 0.0);
        let mut r = toy_spec(2, 4);
        r.replica_factor = 2;
        assert!(r.tail().allreduce > 0.0);
    }

    #[test]
    fn result_utilization_bounds() {
        let r = SimResult::new(1.0, 32, vec![0.5, 0.9]);
        assert!((r.utilization - 0.7).abs() < 1e-12);
        assert_eq!(r.throughput, 32.0);
    }

    #[test]
    fn validate_accepts_sane_spec() {
        assert_eq!(toy_spec(2, 4).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_empty_stages() {
        let mut s = toy_spec(2, 4);
        s.stages.clear();
        assert_eq!(s.validate(), Err(SpecError::NoStages));
    }

    #[test]
    fn validate_rejects_zero_microbatches() {
        let s = toy_spec(2, 0);
        assert_eq!(s.validate(), Err(SpecError::NoMicrobatches));
    }

    #[test]
    fn validate_rejects_zero_replica_stage() {
        let mut s = toy_spec(3, 4);
        s.stages[1].replicas = 0;
        assert_eq!(s.validate(), Err(SpecError::ZeroReplicas { stage: 1 }));
    }

    #[test]
    fn validate_rejects_zero_replica_factor_and_batch() {
        let mut s = toy_spec(1, 1);
        s.replica_factor = 0;
        assert_eq!(s.validate(), Err(SpecError::ZeroReplicaFactor));
        let mut s = toy_spec(1, 1);
        s.batch_size = 0;
        assert_eq!(s.validate(), Err(SpecError::ZeroBatch));
    }

    #[test]
    fn optimizer_time_scales_with_params() {
        let small = toy_spec(2, 4).tail().optimizer;
        let mut big = toy_spec(2, 4);
        big.stages[0].grad_bytes *= 100;
        assert!(big.tail().optimizer > small * 50.0);
    }
}
