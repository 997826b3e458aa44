//! Flight-recorder annotation: context, winner attribution, accounting.
//!
//! The hooks in [`crate::search`] capture the *sweep* — every candidate
//! `(S, MB)` per node tier with its score or infeasibility. This
//! module stamps the remaining sections of the explain artifact onto the
//! open recording once a plan exists:
//!
//! - **context** — model, batch, cluster shape, cost-model family;
//! - **winner** — the chosen plan with per-stage cost attribution
//!   (fwd/bwd compute, stage-boundary transfer, gradient all-reduce,
//!   optimizer step) and both memory columns (the profiler estimate the
//!   search priced with, and the liveness-certified peak recomputed via
//!   `rannc-verify`);
//! - **accounting** — cache *entry* counts.
//!
//! Everything is gated on [`rannc_obs::recorder::enabled`]: while the
//! recorder is off this is one atomic load and an early return.

use crate::plan::PartitionPlan;
use crate::PlannerStats;
use rannc_cost::{sync_iteration_time, CostModel, IterationTail, StageGrads};
use rannc_graph::TaskGraph;
use rannc_hw::{ClusterSpec, Precision};
use rannc_obs::recorder::{self, AccountingRec, ContextRec, WinnerRec, WinnerStageRec};
use rannc_verify::{liveness::certify_memory, ScheduleModel};

/// Attach context, winner attribution, and cache accounting to the
/// recording left open by the stage-level search. No-op while the
/// recorder is disabled.
///
/// The recorded winner score is [`rannc_cost::sync_iteration_time`] of
/// the plan, from the inputs [`crate::search::score_solution`] reads off
/// the winning solution, so it is bit-equal to the score of the winning
/// sweep candidate — `obs::check::check_explain` cross-checks the two.
pub fn annotate_recording(
    g: &TaskGraph,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
    plan: &PartitionPlan,
    precision: Precision,
    stats: &PlannerStats,
) {
    if !recorder::enabled() {
        return;
    }
    recorder::set_context(|| ContextRec {
        model: plan.model.clone(),
        batch_size: plan.batch_size,
        nodes: cluster.nodes,
        gpus_per_node: cluster.node.devices,
        total_devices: cluster.total_devices(),
        cost_model: cost.name().to_string(),
    });

    // Liveness-certified peak memory, independent of the profiler
    // estimate the search priced with. Certification skips stages whose
    // task sets are structurally broken; the column is only trusted when
    // every stage certified, otherwise it stays null.
    let schedule = ScheduleModel::fill_drain(plan.stages.len(), plan.microbatches);
    let (_, certified) = certify_memory(
        g,
        &plan.view(),
        cluster,
        &schedule,
        precision,
        plan.stages.len() > 1,
    );
    let all_certified = certified.len() == plan.stages.len();

    let link = cluster.planning_link();
    let factors = cost.factors();
    let grads = (plan.stages.iter())
        .map(|st| StageGrads::of_params(st.param_elems, st.replicas, st.tensor_parallel));
    let tail = IterationTail::price(cluster, factors, plan.replica_factor, grads.clone());
    let mut stages = Vec::with_capacity(plan.stages.len());
    for ((i, st), grad) in plan.stages.iter().enumerate().zip(grads) {
        // stage-boundary activation transfer to the next stage; empty
        // cuts are free (the α–β pricing itself charges latency at 0 B)
        let transfer_time = match plan.stages.get(i + 1) {
            Some(next) => {
                let bytes = cost.comm_bytes(&st.set, &next.set, st.micro_batch);
                if bytes == 0 {
                    0.0
                } else {
                    cost.transfer_time(link, bytes)
                }
            }
            None => 0.0,
        };
        stages.push(WinnerStageRec {
            tasks: st.set.len(),
            devices: st.replicas,
            tensor_parallel: st.tensor_parallel,
            micro_batch: st.micro_batch,
            fwd_time: st.fwd_time,
            bwd_time: st.bwd_time,
            transfer_time,
            allreduce_time: grad.allreduce_time(
                cluster,
                factors,
                plan.replica_factor,
                tail.spans_nodes,
            ),
            // the optimizer steps this shard's gradient slice
            optimizer_time: factors.optimizer_time(&cluster.device, grad.grad_bytes),
            mem_estimate_bytes: st.mem_bytes as u64,
            mem_certified_bytes: if all_certified {
                Some(certified[i].certified_bytes as u64)
            } else {
                None
            },
            param_elems: st.param_elems as u64,
        });
    }
    recorder::set_winner(move || WinnerRec {
        stages,
        microbatches: plan.microbatches,
        replica_factor: plan.replica_factor,
        score: sync_iteration_time(plan.stages.len(), plan.microbatches, plan.bottleneck, tail),
        bottleneck: plan.bottleneck,
        est_iteration_time: plan.est_iteration_time,
    });
    recorder::set_accounting(|| AccountingRec {
        stage_cache_entries: stats.search.stage_cache.entries() as u64,
        profiler_cache_entries: stats.profiler_cache.entries() as u64,
    });
}
