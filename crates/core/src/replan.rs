//! Streaming replanning: plan diffs, migration pricing, and the
//! retry-with-backoff ladder that keeps training alive under churn.
//!
//! [`Rannc::repartition`] answers "what is the best plan for the cluster
//! I have *now*?". This module answers the two follow-up questions a
//! live training job must ask before adopting that answer:
//!
//! 1. **What does switching cost?** [`diff_plans`] compares the old and
//!    new plans stage by stage and counts the parameter elements whose
//!    device group changes; `rannc-cost`'s `MigrationModel` turns those
//!    into bytes over the interconnect and whole iterations of downtime.
//! 2. **What if replanning fails?** [`Rannc::replan_with_backoff`] runs
//!    a ladder: the warm-started repartition first, then full replans at
//!    progressively doubled block counts `k` (finer blocks can fit where
//!    coarse warm-start stages cannot). The whole ladder is one request:
//!    one planning view and one cost model serve every attempt, and each
//!    attempt ends in the same search, plan, annotate and verify step as
//!    [`Rannc::partition`]. Every attempt is traced; the
//!    caller only sees an error once the whole ladder is exhausted — at
//!    which point "degrade in place" (keep the old plan on the slower
//!    cluster) is the policy layer's remaining move.

use crate::plan::PartitionPlan;
use crate::{PartitionError, Rannc};
use rannc_cost::{MigrationCost, MigrationModel};
use rannc_graph::TaskGraph;
use rannc_hw::ClusterSpec;

/// Structural difference between two plans, from the point of view of
/// state that must physically move to adopt the new one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanDiff {
    /// New-plan stages whose task set, device offset, or width differ
    /// from every old stage (i.e. stages whose parameters must move).
    pub stages_changed: usize,
    /// Parameter elements living on a different device group than before.
    pub moved_param_elems: usize,
    /// The pipeline-replica count changed, so even byte-identical stages
    /// re-seed their extra replicas from a surviving copy.
    pub replica_factor_changed: bool,
}

impl PlanDiff {
    /// True when adopting the new plan moves no state at all.
    pub fn is_noop(&self) -> bool {
        self.moved_param_elems == 0 && !self.replica_factor_changed
    }
}

/// Compare `old` and `new` under the contiguous device-assignment
/// convention: stage *i* occupies the slot range starting at the sum of
/// the widths of stages `0..i`. A new stage is *unmoved* only if some
/// old stage has the same task set, the same starting slot, and the
/// same width — anything else means its weights, master copies, and
/// optimizer moments land on different devices and must be shipped.
pub fn diff_plans(old: &PartitionPlan, new: &PartitionPlan) -> PlanDiff {
    let replica_factor_changed = old.replica_factor != new.replica_factor;
    if replica_factor_changed {
        // every replica group re-seeds; charge the full parameter set
        return PlanDiff {
            stages_changed: new.stages.len(),
            moved_param_elems: new.stages.iter().map(|s| s.param_elems).sum(),
            replica_factor_changed,
        };
    }
    let offsets = |p: &PartitionPlan| -> Vec<usize> {
        let mut off = 0usize;
        p.stages
            .iter()
            .map(|s| {
                let here = off;
                off += s.replicas * s.tensor_parallel.max(1);
                here
            })
            .collect()
    };
    let old_offsets = offsets(old);
    let new_offsets = offsets(new);
    let mut stages_changed = 0usize;
    let mut moved_param_elems = 0usize;
    for (s, &off) in new.stages.iter().zip(&new_offsets) {
        let unmoved = old.stages.iter().zip(&old_offsets).any(|(o, &ooff)| {
            o.set == s.set
                && ooff == off
                && o.replicas == s.replicas
                && o.tensor_parallel == s.tensor_parallel
        });
        if !unmoved {
            stages_changed += 1;
            moved_param_elems += s.param_elems;
        }
    }
    PlanDiff {
        stages_changed,
        moved_param_elems,
        replica_factor_changed,
    }
}

/// A successful pass through the replanning ladder.
#[derive(Debug, Clone)]
pub struct ReplanOutcome {
    /// The adopted plan, verified against the degraded cluster's
    /// planning view.
    pub plan: PartitionPlan,
    /// Ladder attempts consumed (1 = warm start succeeded directly).
    pub attempts: usize,
    /// Structural difference from the previous plan.
    pub diff: PlanDiff,
    /// Priced cost of adopting the plan.
    pub migration: MigrationCost,
}

impl Rannc {
    /// Replan after churn with a retry ladder: warm-started
    /// [`Rannc::repartition`] first, then up to `extra_attempts` full
    /// replans with the block count `k` doubled each rung (backoff in
    /// *search granularity* — finer blocks pack into smaller devices).
    ///
    /// On success the outcome carries the plan diff against `old_plan`
    /// and its migration price on `degraded`'s planning interconnect.
    /// On failure the last rung's error is returned; degrading in place
    /// is then the caller's decision, not this function's.
    pub fn replan_with_backoff(
        &self,
        graph: &TaskGraph,
        old_plan: &PartitionPlan,
        degraded: &ClusterSpec,
        extra_attempts: usize,
    ) -> Result<ReplanOutcome, PartitionError> {
        let _root = rannc_obs::trace::span("replan", "planner")
            .arg_i("max_attempts", (1 + extra_attempts) as i64);
        // one planning view and one cost model serve every rung
        let (view, cost) = self.replan_request(graph, degraded)?;
        let mut last_err = None;
        for attempt in 0..=extra_attempts {
            let _s = rannc_obs::trace::span("replan.attempt", "planner")
                .arg_i("attempt", attempt as i64);
            rannc_obs::metrics::counter("planner.replan.attempts").inc();
            let result = if attempt == 0 {
                self.warm_start(graph, old_plan, &view, &*cost)
            } else {
                // backoff rung: finer blocks, full three-phase replan
                let finer = Rannc::new(self.config().clone().with_k(self.config().k << attempt));
                finer.plan_cold(graph, &view, &*cost)
            };
            match result {
                Ok((plan, _)) => {
                    let diff = diff_plans(old_plan, &plan);
                    let migration = MigrationModel::for_cluster(&view, self.config().precision)
                        .price(
                            diff.moved_param_elems,
                            plan.stages.len(),
                            plan.bottleneck,
                            plan.est_iteration_time,
                        );
                    rannc_obs::metrics::counter("planner.replan.successes").inc();
                    return Ok(ReplanOutcome {
                        plan,
                        attempts: attempt + 1,
                        diff,
                        migration,
                    });
                }
                Err(e) => {
                    rannc_obs::metrics::counter("planner.replan.failures").inc();
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("ladder runs at least once"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan_io::encode_plan;
    use crate::PartitionConfig;
    use rannc_hw::DeviceRank;
    use rannc_models::{mlp_graph, MlpConfig};

    fn plan_and_cluster() -> (TaskGraph, ClusterSpec, Rannc, PartitionPlan) {
        let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
        let cluster = ClusterSpec::v100_cluster(2);
        let rannc = Rannc::new(PartitionConfig::new(32).with_k(8));
        let plan = rannc.partition(&g, &cluster).unwrap();
        (g, cluster, rannc, plan)
    }

    #[test]
    fn identical_plans_diff_to_noop() {
        let (_, _, _, plan) = plan_and_cluster();
        let d = diff_plans(&plan, &plan);
        assert!(d.is_noop());
        assert_eq!(d.stages_changed, 0);
        assert_eq!(d.moved_param_elems, 0);
    }

    #[test]
    fn replica_factor_change_moves_everything() {
        let (_, _, _, plan) = plan_and_cluster();
        let mut widened = plan.clone();
        widened.replica_factor += 1;
        let d = diff_plans(&plan, &widened);
        assert!(d.replica_factor_changed);
        assert_eq!(
            d.moved_param_elems,
            widened.stages.iter().map(|s| s.param_elems).sum::<usize>()
        );
    }

    #[test]
    fn shifted_stage_is_charged() {
        let (_, _, _, plan) = plan_and_cluster();
        if plan.stages.len() < 2 {
            return; // nothing to shift on a single-stage plan
        }
        let mut shifted = plan.clone();
        shifted.stages[0].replicas += 1; // widens stage 0, shifting all later offsets
        let d = diff_plans(&plan, &shifted);
        assert_eq!(d.stages_changed, shifted.stages.len());
        assert!(d.moved_param_elems > 0);
    }

    #[test]
    fn resharded_stage_is_charged() {
        // changing only a stage's tensor-parallel degree moves its
        // parameter shards even though the task set is unchanged
        let (_, _, _, plan) = plan_and_cluster();
        let mut resharded = plan.clone();
        resharded.stages[0].tensor_parallel *= 2;
        let d = diff_plans(&plan, &resharded);
        assert!(d.stages_changed >= 1);
        assert!(d.moved_param_elems >= plan.stages[0].param_elems);
    }

    #[test]
    fn backoff_ladder_replans_after_device_loss() {
        let (g, cluster, rannc, plan) = plan_and_cluster();
        let degraded = cluster
            .without_device(DeviceRank { node: 1, local: 0 })
            .unwrap();
        let out = rannc
            .replan_with_backoff(&g, &plan, &degraded, 2)
            .expect("ladder finds a plan");
        assert!(out.attempts >= 1);
        assert!(!out.plan.stages.is_empty());
        // a plan that differs must be priced; one that doesn't is free
        if out.diff.is_noop() {
            assert_eq!(out.migration.total_bytes(), 0);
        } else {
            assert!(out.migration.downtime_steps >= 1);
        }
    }

    /// Ladder rung `a ≥ 1` is, bit for bit, a cold partition of the
    /// planning view at `k << a`.
    #[test]
    fn backoff_rung_is_a_cold_partition_at_finer_k() {
        let g = mlp_graph(&MlpConfig::deep(512, 512, 12, 10));
        let cfg = PartitionConfig::new(256).with_k(1);
        let rannc = Rannc::new(cfg.clone());
        let plan = rannc.partition(&g, &ClusterSpec::v100_cluster(1)).unwrap();
        // devices too small for the model as one block, though two fit
        let mut small = ClusterSpec::v100_cluster(1);
        small.device = small.device.with_memory((1 << 30) + 50 * (1 << 20));
        let out = rannc
            .replan_with_backoff(&g, &plan, &small, 3)
            .expect("a rung finds a plan");
        assert!(out.attempts >= 2, "the warm start succeeded: no rung ran");
        let finer = Rannc::new(cfg.with_k(1 << (out.attempts - 1)));
        let cold = finer.partition(&g, &small.planning_view()).unwrap();
        assert_eq!(encode_plan(&out.plan), encode_plan(&cold));
    }

    #[test]
    fn exhausted_ladder_surfaces_the_last_error() {
        let (g, _, rannc, plan) = plan_and_cluster();
        // a cluster whose every device is too small for any stage
        let mut tiny = ClusterSpec::v100_cluster(1);
        tiny.device.memory_bytes = 1 << 20;
        tiny.node.devices = 1;
        let err = rannc.replan_with_backoff(&g, &plan, &tiny, 1);
        assert!(err.is_err());
    }
}
