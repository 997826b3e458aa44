//! The explain artifact of one search: [`Rannc::explain`] builds it
//! from the plan and the [`PlannerStats`] the search returned.
//!
//! - **context** — model, batch, cluster shape, cost-model family;
//! - **tiers** — every `(S, MB, T)` cell of every node tier the search
//!   walked, with its score, its score bound or its infeasibility
//!   ([`crate::search::SearchStats::tiers`]);
//! - **winner** — the chosen plan with per-stage cost attribution
//!   (fwd/bwd compute, stage-boundary transfer, gradient all-reduce,
//!   optimizer step) and both memory columns (the profiler estimate the
//!   search priced with, and the liveness-certified peak recomputed via
//!   `rannc-verify`);
//! - **refine** — the winner's stage-cut refinement;
//! - **accounting** — cache *entry* counts.
//!
//! Nothing is recorded while a search runs: a partition that is not
//! explained pays nothing, and searches on different threads each
//! explain their own.

use crate::plan::PartitionPlan;
use crate::search::{CellOutcome, ScanCell};
use crate::{PlannerStats, Rannc};
use rannc_cost::{sync_iteration_time, IterationTail, StageGrads};
use rannc_graph::TaskGraph;
use rannc_hw::ClusterSpec;
use rannc_obs::recorder::{
    AccountingRec, CandidateOutcome, CandidateRec, ContextRec, Recording, TierRec, WinnerRec,
    WinnerStageRec,
};
use rannc_profile::Residency;
use rannc_verify::{liveness::certify_memory, ScheduleModel};

impl Rannc {
    /// The explain artifact of the search behind `plan`: `stats` as
    /// [`Rannc::partition_with_stats`] or [`Rannc::repartition_with_stats`]
    /// returned them with it, and `cluster` the cluster that search
    /// planned on (for a replan, the degraded cluster's
    /// [`ClusterSpec::planning_view`]). The winner is priced with a cost
    /// model of this request's own spec.
    ///
    /// The recorded winner score is [`rannc_cost::sync_iteration_time`]
    /// of the plan, from the inputs [`crate::search::score_solution`]
    /// reads off the winning solution, so it is bit-equal to the score of
    /// the winning sweep candidate (or of the accepted refinement) —
    /// `obs::check::check_explain` cross-checks the two.
    pub fn explain(
        &self,
        g: &TaskGraph,
        cluster: &ClusterSpec,
        plan: &PartitionPlan,
        stats: &PlannerStats,
    ) -> Recording {
        let cost = self.cost_model(g, cluster);
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
            self.config.precision,
            Residency::fill_drain(plan.stages.len(), plan.microbatches).checkpointing,
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
        let tiers = (stats.search.tiers.iter())
            .map(|t| TierRec {
                n: t.nodes,
                devices: t.devices,
                replica_factor: t.replica_factor,
                candidates: t.cells.iter().map(candidate).collect(),
            })
            .collect();
        Recording {
            context: ContextRec {
                model: plan.model.clone(),
                batch_size: plan.batch_size,
                nodes: cluster.nodes,
                gpus_per_node: cluster.node.devices,
                total_devices: cluster.total_devices(),
                cost_model: cost.name().to_string(),
            },
            tiers,
            winner: Some(WinnerRec {
                stages,
                microbatches: plan.microbatches,
                replica_factor: plan.replica_factor,
                score: sync_iteration_time(
                    plan.stages.len(),
                    plan.microbatches,
                    plan.bottleneck,
                    tail,
                ),
                bottleneck: plan.bottleneck,
                est_iteration_time: plan.est_iteration_time,
            }),
            refine: stats.search.refine.clone(),
            accounting: AccountingRec {
                stage_cache_entries: stats.search.stage_cache.entries() as u64,
                profiler_cache_entries: stats.profiler_cache.entries() as u64,
            },
        }
    }
}

/// One settled grid cell as the artifact lists it.
fn candidate(cell: &ScanCell) -> CandidateRec {
    let outcome = match &cell.outcome {
        CellOutcome::Solved {
            score,
            bound,
            solution,
        } => CandidateOutcome::Feasible {
            score: *score,
            bottleneck: solution.value,
            bound: *bound,
        },
        CellOutcome::Bounded { bound } => CandidateOutcome::Bounded { bound: *bound },
        CellOutcome::Infeasible => CandidateOutcome::Infeasible,
    };
    let p = &cell.params;
    CandidateRec {
        stages: p.stages,
        microbatches: p.microbatches,
        tp: p.tp,
        outcome,
    }
}
