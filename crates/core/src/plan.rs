//! The finished partition plan: stages, replicas, device assignment.

use crate::dp::DpSolution;
use rannc_graph::{TaskGraph, TaskSet};
use rannc_hw::{ClusterSpec, Precision};
use rannc_verify::{CertifiedStage, PlanView, Report, ScheduleModel, StageView};

/// A plan/cluster combination that cannot be materialised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The plan needs more device ranks than the cluster has.
    ClusterOversubscribed {
        /// Ranks the plan would assign.
        required: usize,
        /// Ranks the cluster provides.
        available: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::ClusterOversubscribed {
                required,
                available,
            } => write!(
                f,
                "plan needs {required} device(s) but the cluster has {available}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// One pipeline stage of the final plan.
#[derive(Debug, Clone)]
pub struct StagePlan {
    /// Tasks assigned to the stage.
    pub set: TaskSet,
    /// Data-parallel replicas of this stage inside one pipeline replica.
    pub replicas: usize,
    /// Tensor-parallel degree: each data-parallel replica is itself a
    /// group of this many devices splitting the stage's matmuls.
    /// Plan files written before the 3D search carry none; `plan_io`
    /// loads them as 1.
    pub tensor_parallel: usize,
    /// Per-replica micro-batch size.
    pub micro_batch: usize,
    /// Profiled forward time per micro-batch, seconds.
    pub fwd_time: f64,
    /// Profiled backward time per micro-batch (incl. recompute), seconds.
    pub bwd_time: f64,
    /// Profiled peak memory, bytes.
    pub mem_bytes: usize,
    /// Parameter elements held by the stage.
    pub param_elems: usize,
}

/// The complete result of RaNNC's automatic partitioning.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// Name of the partitioned model.
    pub model: String,
    /// Stages in pipeline order.
    pub stages: Vec<StagePlan>,
    /// Micro-batch count `MB` for pipeline parallelism.
    pub microbatches: usize,
    /// Whole-pipeline replicas `R` (hybrid data parallelism).
    pub replica_factor: usize,
    /// Global mini-batch size the plan was computed for.
    pub batch_size: usize,
    /// The DP objective: slowest forward + slowest backward stage, s.
    pub bottleneck: f64,
    /// Quick analytic iteration-time estimate (the simulator in
    /// `rannc-pipeline` refines this), seconds.
    pub est_iteration_time: f64,
}

impl PartitionPlan {
    /// Build a plan from a DP solution.
    pub fn from_solution(model: impl Into<String>, sol: &DpSolution, batch_size: usize) -> Self {
        PartitionPlan {
            model: model.into(),
            stages: sol
                .stages
                .iter()
                .map(|s| StagePlan {
                    set: s.set.clone(),
                    replicas: s.devices,
                    tensor_parallel: s.tensor_parallel,
                    micro_batch: s.micro_batch,
                    fwd_time: s.fwd_time,
                    bwd_time: s.bwd_time,
                    mem_bytes: s.mem_bytes,
                    param_elems: s.param_elems,
                })
                .collect(),
            microbatches: sol.microbatches,
            replica_factor: sol.replica_factor,
            batch_size,
            bottleneck: sol.value,
            est_iteration_time: sol.estimated_iteration_time(),
        }
    }

    /// Physical devices used by one pipeline replica (each stage spans
    /// `replicas × tensor_parallel` ranks).
    pub fn devices_per_replica(&self) -> usize {
        self.stages
            .iter()
            .map(|s| s.replicas * s.tensor_parallel)
            .sum()
    }

    /// Total devices across all pipeline replicas.
    pub fn total_devices(&self) -> usize {
        self.devices_per_replica() * self.replica_factor
    }

    /// Samples per second at the analytic iteration-time estimate.
    pub fn est_throughput(&self) -> f64 {
        self.batch_size as f64 / self.est_iteration_time
    }

    /// Assign global device ranks to every (pipeline-replica, stage,
    /// stage-replica) triple, keeping each pipeline replica inside a
    /// contiguous group of nodes so that stage-to-stage traffic stays on
    /// the intra-node link wherever possible (paper footnote 3).
    ///
    /// Returns `assignment[pipeline_replica][stage] = global ranks`, or
    /// [`PlanError::ClusterOversubscribed`] when the plan wants more
    /// ranks than the cluster's raw shape provides (a release-mode check:
    /// handing out phantom ranks would crash collectives much later).
    pub fn device_assignment(
        &self,
        cluster: &ClusterSpec,
    ) -> Result<Vec<Vec<Vec<usize>>>, PlanError> {
        if self.total_devices() > cluster.total_devices() {
            return Err(PlanError::ClusterOversubscribed {
                required: self.total_devices(),
                available: cluster.total_devices(),
            });
        }
        let per_replica = self.devices_per_replica();
        let mut out = vec![Vec::with_capacity(self.stages.len()); self.replica_factor];
        let mut offset = 0;
        for s in &self.stages {
            // slot-width convention: a stage owns `replicas × tp`
            // contiguous slots; data-parallel replica j is the tp-wide
            // tensor group [j·tp, (j+1)·tp) within them
            let width = s.replicas * s.tensor_parallel;
            let mut ranks = cluster
                .slot_devices(offset..offset + width, per_replica, self.replica_factor)
                .map(|(global, _)| global);
            for stages in &mut out {
                stages.push(ranks.by_ref().take(width).collect());
            }
            offset += width;
        }
        Ok(out)
    }

    /// Deep-verify the plan on `cluster` under `schedule`: its
    /// liveness-certified peak memory against every hosting device slot
    /// (RV100/RV101) and its derived communication program (RV060–RV064,
    /// RV07x), placed by [`PartitionPlan::device_assignment`]. Gradient
    /// checkpointing follows the planner's convention: on whenever the
    /// pipeline has more than one stage. Returns the report with the
    /// per-stage certified bounds, or the placement error when the plan
    /// cannot be placed on `cluster` at all.
    pub fn certify(
        &self,
        g: &TaskGraph,
        cluster: &ClusterSpec,
        schedule: &ScheduleModel,
        precision: Precision,
    ) -> Result<(Report, Vec<CertifiedStage>), PlanError> {
        let assignment = self.device_assignment(cluster)?;
        let checkpointing = self.stages.len() > 1;
        Ok(rannc_verify::verify_deep(
            g,
            &self.view(),
            cluster,
            schedule,
            &assignment,
            precision,
            checkpointing,
        ))
    }

    /// Borrow the plan in the shape `rannc-verify` checks.
    pub fn view(&self) -> PlanView<'_> {
        PlanView {
            model: &self.model,
            stages: self
                .stages
                .iter()
                .map(|s| StageView {
                    set: &s.set,
                    replicas: s.replicas,
                    tensor_parallel: s.tensor_parallel,
                    micro_batch: s.micro_batch,
                    fwd_time: s.fwd_time,
                    bwd_time: s.bwd_time,
                    mem_bytes: s.mem_bytes,
                    param_elems: s.param_elems,
                })
                .collect(),
            microbatches: self.microbatches,
            replica_factor: self.replica_factor,
            batch_size: self.batch_size,
        }
    }

    /// A human-readable multi-line summary (used by examples and benches).
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        writeln!(
            s,
            "model {} | batch {} | {} stage(s) x {} pipeline replica(s), MB={}",
            self.model,
            self.batch_size,
            self.stages.len(),
            self.replica_factor,
            self.microbatches
        )
        .unwrap();
        for (i, st) in self.stages.iter().enumerate() {
            // the tensor-parallel column appears only on split stages, so
            // T = 1 plans print the historical layout byte for byte
            let tp = if st.tensor_parallel > 1 {
                format!(" x{} tensor", st.tensor_parallel)
            } else {
                String::new()
            };
            writeln!(
                s,
                "  stage {i}: {:>6} tasks, {:>4} replica(s){tp}, micro-batch {:>3}, \
                 fwd {:>8.3} ms, bwd {:>8.3} ms, mem {:>6.2} GiB, params {:.1}M",
                st.set.len(),
                st.replicas,
                st.micro_batch,
                st.fwd_time * 1e3,
                st.bwd_time * 1e3,
                st.mem_bytes as f64 / (1u64 << 30) as f64,
                st.param_elems as f64 / 1e6,
            )
            .unwrap();
        }
        writeln!(
            s,
            "  bottleneck {:.3} ms | est. iteration {:.3} ms | est. throughput {:.1} samples/s",
            self.bottleneck * 1e3,
            self.est_iteration_time * 1e3,
            self.est_throughput()
        )
        .unwrap();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{DpSolution, DpStage};
    use rannc_hw::ClusterSpec;

    fn fake_solution() -> DpSolution {
        let mk = |range: (usize, usize), devices: usize| DpStage {
            set: TaskSet::from_ids(
                10,
                (range.0 as u32..range.1 as u32).map(rannc_graph::TaskId),
            ),
            block_range: range,
            devices,
            tensor_parallel: 1,
            micro_batch: 2,
            fwd_time: 0.01,
            bwd_time: 0.02,
            mem_bytes: 1 << 30,
            param_elems: 1_000_000,
        };
        DpSolution {
            stages: vec![mk((0, 5), 1), mk((5, 10), 3)],
            value: 0.03,
            microbatches: 4,
            replica_factor: 2,
        }
    }

    #[test]
    fn plan_from_solution() {
        let plan = PartitionPlan::from_solution("toy", &fake_solution(), 64);
        assert_eq!(plan.stages.len(), 2);
        assert_eq!(plan.devices_per_replica(), 4);
        assert_eq!(plan.total_devices(), 8);
        assert!(plan.est_throughput() > 0.0);
    }

    #[test]
    fn device_assignment_is_disjoint_and_complete() {
        let plan = PartitionPlan::from_solution("toy", &fake_solution(), 64);
        let cluster = ClusterSpec::v100_cluster(1); // 8 devices
        let asg = plan.device_assignment(&cluster).unwrap();
        assert_eq!(asg.len(), 2); // pipeline replicas
        let mut seen = std::collections::HashSet::new();
        for replica in &asg {
            assert_eq!(replica.len(), 2); // stages
            for ranks in replica {
                for &r in ranks {
                    assert!(seen.insert(r), "rank {r} assigned twice");
                    assert!(r < cluster.total_devices());
                }
            }
        }
        assert_eq!(seen.len(), plan.total_devices());
    }

    #[test]
    fn device_assignment_follows_the_slot_walk() {
        // T = 2, R = 2: stages of 1 and 3 tensor groups, 8 slots per
        // pipeline replica across two nodes
        let mut sol = fake_solution();
        for st in &mut sol.stages {
            st.tensor_parallel = 2;
        }
        let plan = PartitionPlan::from_solution("toy", &sol, 64);
        let cluster = ClusterSpec::v100_cluster(2);
        let asg = plan.device_assignment(&cluster).unwrap();
        assert_eq!(
            asg,
            vec![
                vec![vec![0, 1], (2..8).collect()],
                vec![vec![8, 9], (10..16).collect()]
            ]
        );
        let mut offset = 0;
        for (i, st) in plan.stages.iter().enumerate() {
            let width = st.replicas * st.tensor_parallel;
            let walk: Vec<usize> = cluster
                .slot_devices(offset..offset + width, plan.devices_per_replica(), 2)
                .map(|(global, _)| global)
                .collect();
            let assigned: Vec<usize> = asg.iter().flat_map(|rep| rep[i].clone()).collect();
            assert_eq!(assigned, walk, "stage {i}");
            offset += width;
        }
    }

    #[test]
    fn oversubscribed_assignment_is_a_typed_error() {
        let mut plan = PartitionPlan::from_solution("toy", &fake_solution(), 64);
        plan.replica_factor = 100; // 400 devices on an 8-device cluster
        let err = plan
            .device_assignment(&ClusterSpec::v100_cluster(1))
            .unwrap_err();
        assert_eq!(
            err,
            PlanError::ClusterOversubscribed {
                required: 400,
                available: 8
            }
        );
        assert!(err.to_string().contains("400"));
    }

    #[test]
    fn view_mirrors_plan() {
        let plan = PartitionPlan::from_solution("toy", &fake_solution(), 64);
        let v = plan.view();
        assert_eq!(v.model, "toy");
        assert_eq!(v.stages.len(), 2);
        assert_eq!(v.stages[1].replicas, 3);
        assert_eq!(v.batch_size, 64);
    }

    #[test]
    fn summary_contains_key_numbers() {
        let plan = PartitionPlan::from_solution("toy", &fake_solution(), 64);
        let s = plan.summary();
        assert!(s.contains("2 stage(s)"));
        assert!(s.contains("MB=4"));
        assert!(s.contains("throughput"));
    }
}
