//! # rannc-pipeline
//!
//! Discrete-event simulation of the training schedules the paper
//! evaluates, standing in for wall-clock measurements on the authors'
//! 32-V100 cluster:
//!
//! * **synchronous pipeline** ([`sync`]) — GPipe-style fill–drain and
//!   1F1B variants, micro-batch by micro-batch, with inter-stage
//!   transfers, per-stage replica groups, gradient all-reduce and the
//!   optimizer step (used for RaNNC and the GPipe baselines);
//! * **asynchronous 2BW pipeline** ([`async2bw`]) — PipeDream-2BW's
//!   flush-free steady state (higher utilization, parameter staleness);
//! * **campaigns** ([`churn`]) — many iterations of a plan under cluster
//!   churn or a scripted fault plan, scored on goodput and MTTR.
//!
//! The entry point for RaNNC plans is [`simulate_plan`], which converts a
//! [`rannc_core::PartitionPlan`] into a [`PipelineSpec`] and runs the
//! synchronous simulator. The pipeline baselines in `rannc-baselines`
//! price their layer splits as plans through the same [`spec_from_plan`];
//! pure data parallelism, a closed form with no schedule to simulate,
//! lives there too.

pub mod async2bw;
pub mod churn;
pub mod spec;
pub mod sync;
pub mod trace;
pub mod viz;

pub use churn::{
    simulate_churn, ChurnAction, ChurnDecision, ChurnPolicy, ChurnReport, ChurnSimConfig,
};
pub use rannc_verify::PhaseKind;
pub use spec::{PipelineSpec, SimResult, SpecError, StageSpec};
pub use sync::{simulate_sync, SyncSchedule, TimelineEvent};
pub use trace::{publish_sim_metrics, record_timeline};

use rannc_core::PartitionPlan;
use rannc_cost::{CostModel, StageGrads};
use rannc_graph::traverse;
use rannc_hw::ClusterSpec;
use rannc_profile::Residency;

/// Why a partition plan could not be turned into a simulator spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanSpecError {
    /// Stages `stage` and `stage + 1` are adjacent in the task graph but
    /// no activation traffic was measured between them — the plan's stage
    /// sets are corrupted or out of pipeline order.
    InconsistentAdjacency {
        /// Index of the earlier stage of the offending pair.
        stage: usize,
    },
    /// The derived spec is structurally unusable (empty stages, zero
    /// replicas, …).
    BadSpec(SpecError),
}

impl std::fmt::Display for PlanSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanSpecError::InconsistentAdjacency { stage } => write!(
                f,
                "stages {stage} and {} are graph-adjacent but exchange no \
                 activations: stage sets corrupted or reordered",
                stage + 1
            ),
            PlanSpecError::BadSpec(e) => write!(f, "plan yields invalid spec: {e}"),
        }
    }
}

impl std::error::Error for PlanSpecError {}

/// Build a [`PipelineSpec`] for a RaNNC partition plan and simulate one
/// training iteration under the synchronous fill–drain schedule.
///
/// Inter-stage communication volumes are measured on the task graph (cut
/// bytes between consecutive stage sets, scaled by the per-replica
/// micro-batch and activation precision).
pub fn simulate_plan(
    plan: &PartitionPlan,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
) -> Result<SimResult, PlanSpecError> {
    let spec = spec_from_plan(plan, cost, cluster)?;
    Ok(simulate_sync(&spec, SyncSchedule::FillDrain, false).result)
}

/// Convert a partition plan into the simulator's input description.
///
/// Stage times are **re-priced** with the supplied cost model rather than
/// copied from the plan: the plan's structure (stage sets, replica
/// counts, micro-batches) encodes the partitioning *decisions*, while the
/// cost model is the source of truth for *costs*. This separation lets a
/// plan produced under profiling noise be evaluated by a clean oracle.
/// The model's [`CostFactors`](rannc_cost::CostFactors) are embedded into
/// the spec so downstream pricing (`comm_time` and the iteration `tail`)
/// stays consistent with the model that built it. A stage's gradient is
/// sized by [`StageGrads::of_params`], the rule the search's score uses.
///
/// Every stage is priced on the cost model's device: `cluster`'s device
/// overrides are not applied, so a degraded or mixed fleet simulates as
/// if every slot held the template device. Churn `sim_samples_per_s` and
/// `replan_regret` therefore do not yet see degraded devices.
pub fn spec_from_plan(
    plan: &PartitionPlan,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
) -> Result<PipelineSpec, PlanSpecError> {
    let g = cost.graph();
    let residency = Residency::fill_drain(plan.stages.len(), plan.microbatches);
    let mut stages = Vec::with_capacity(plan.stages.len());
    for (i, st) in plan.stages.iter().enumerate() {
        let tp = st.tensor_parallel.max(1);
        // split stages are priced through the Megatron-split oracle, which
        // folds the per-pass activation all-reduce into fwd/bwd
        let profiler = cost.profiler();
        let prof = cost.stage_cost_tp(
            &profiler.profiled(&st.set),
            profiler.time_sums(st.set.iter(), st.micro_batch, tp),
            st.micro_batch,
            residency.inflight,
            residency.checkpointing,
            tp,
            cluster,
        );
        let comm_to_next_bytes = if i + 1 < plan.stages.len() {
            cost.comm_bytes(&st.set, &plan.stages[i + 1].set, st.micro_batch)
        } else {
            0
        };
        // the plan's stage sets must actually be adjacent in order; a
        // decoded-but-corrupted or hand-edited plan fails here rather
        // than silently simulating a pipeline with free communication
        if i + 1 < plan.stages.len()
            && comm_to_next_bytes == 0
            && traverse::adjacent(g, &st.set, &plan.stages[i + 1].set)
        {
            return Err(PlanSpecError::InconsistentAdjacency { stage: i });
        }
        stages.push(StageSpec {
            fwd_time: prof.fwd_time,
            bwd_time: prof.bwd_time,
            comm_to_next_bytes,
            grad_bytes: StageGrads::of_params(prof.param_elems, st.replicas, tp).grad_bytes,
            replicas: st.replicas,
            tensor_parallel: tp,
        });
    }
    let spec = PipelineSpec {
        stages,
        microbatches: plan.microbatches,
        replica_factor: plan.replica_factor,
        batch_size: plan.batch_size,
        link: cluster.planning_link(),
        cluster: cluster.clone(),
        cost: cost.factors(),
    };
    spec.validate().map_err(PlanSpecError::BadSpec)?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc_core::{PartitionConfig, Rannc};
    use rannc_hw::DeviceSpec;
    use rannc_models::{mlp_graph, MlpConfig};
    use rannc_profile::{Profiler, ProfilerOptions};

    #[test]
    fn simulate_plan_end_to_end() {
        let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
        let cluster = ClusterSpec::v100_cluster(1);
        let plan = Rannc::new(PartitionConfig::new(32).with_k(8))
            .partition(&g, &cluster)
            .unwrap();
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let res = simulate_plan(&plan, &profiler, &cluster).unwrap();
        assert!(res.iteration_time > 0.0);
        assert!(res.throughput > 0.0);
        // simulated time is at least the analytic bottleneck estimate's
        // core term and within a sane factor of it
        assert!(res.iteration_time < plan.est_iteration_time * 10.0 + 1.0);
    }

    /// A plan whose stages were forced apart enough to be multi-stage.
    fn multi_stage_plan() -> (
        rannc_graph::TaskGraph,
        ClusterSpec,
        rannc_core::PartitionPlan,
    ) {
        let g = mlp_graph(&MlpConfig::deep(512, 512, 12, 10));
        let mem = (1usize << 30) + 40 * (1 << 20);
        let mut cluster = ClusterSpec::v100_cluster(1);
        cluster.device = cluster.device.with_memory(mem);
        let plan = Rannc::new(PartitionConfig::new(32).with_k(8))
            .partition(&g, &cluster)
            .unwrap();
        assert!(plan.stages.len() >= 2, "need a multi-stage plan");
        (g, cluster, plan)
    }

    #[test]
    fn reordered_plan_is_rejected() {
        let (g, cluster, mut plan) = multi_stage_plan();
        plan.stages.reverse();
        let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
        match spec_from_plan(&plan, &profiler, &cluster) {
            Err(PlanSpecError::InconsistentAdjacency { .. }) => {}
            other => panic!("expected InconsistentAdjacency, got {other:?}"),
        }
    }

    #[test]
    fn zero_replica_plan_is_rejected() {
        let (g, cluster, mut plan) = multi_stage_plan();
        plan.stages[0].replicas = 0;
        let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
        assert_eq!(
            spec_from_plan(&plan, &profiler, &cluster).unwrap_err(),
            PlanSpecError::BadSpec(SpecError::ZeroReplicas { stage: 0 })
        );
    }

    #[test]
    fn empty_plan_is_rejected() {
        let (g, cluster, mut plan) = multi_stage_plan();
        plan.stages.clear();
        let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
        assert_eq!(
            spec_from_plan(&plan, &profiler, &cluster).unwrap_err(),
            PlanSpecError::BadSpec(SpecError::NoStages)
        );
    }
}
