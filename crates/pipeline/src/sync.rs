//! Event-driven simulation of synchronous pipelines.
//!
//! Reproduces Fig. 1 of the paper: micro-batches flow forward through the
//! stages, then backward; parameters update only after every micro-batch's
//! gradient is in — no staleness. Two per-stage work orders are supported:
//!
//! * [`SyncSchedule::FillDrain`] — GPipe's order (all forwards, then all
//!   backwards), used by GPipe and RaNNC;
//! * [`SyncSchedule::OneFOneB`] — the 1F1B order (warmup forwards, then
//!   alternate backward/forward), which bounds in-flight micro-batches by
//!   the pipeline depth.
//!
//! The simulator is a deterministic discrete-event loop over per-stage
//! work queues: an item starts when its producer dependency is met and its
//! stage is free. After the last backward, replicated stages all-reduce
//! gradients and the optimizer steps.

use crate::spec::{PipelineSpec, SimResult};
use crate::PlanSpecError;
use rannc_core::PartitionPlan;
use rannc_graph::TaskGraph;
use rannc_hw::{ClusterSpec, Precision};
use rannc_verify::{CertifiedStage, CommProgram, Report};

/// Per-stage work ordering of the synchronous schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncSchedule {
    /// GPipe-style: forward all micro-batches, then backward all.
    FillDrain,
    /// 1F1B: `pipeline_depth − stage` warmup forwards, then alternate.
    OneFOneB,
}

/// What a timeline event did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkKind {
    /// Forward pass of one micro-batch.
    Forward,
    /// Backward pass of one micro-batch.
    Backward,
}

/// One executed work item (for tests and visualization).
#[derive(Debug, Clone, Copy)]
pub struct TimelineEvent {
    /// Stage index.
    pub stage: usize,
    /// Forward or backward.
    pub kind: WorkKind,
    /// Micro-batch index.
    pub micro: usize,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
}

/// Simulation output plus (optionally) the full timeline.
#[derive(Debug, Clone)]
pub struct SyncSimOutput {
    /// Aggregate result.
    pub result: SimResult,
    /// Per-item timeline if requested.
    pub timeline: Option<Vec<TimelineEvent>>,
}

/// Build the per-stage work order.
fn work_order(
    schedule: SyncSchedule,
    stage: usize,
    stages: usize,
    mb: usize,
) -> Vec<(WorkKind, usize)> {
    let mut seq = Vec::with_capacity(2 * mb);
    match schedule {
        SyncSchedule::FillDrain => {
            for m in 0..mb {
                seq.push((WorkKind::Forward, m));
            }
            // backward in reverse arrival order
            for m in (0..mb).rev() {
                seq.push((WorkKind::Backward, m));
            }
        }
        SyncSchedule::OneFOneB => {
            let warmup = (stages - 1 - stage).min(mb);
            let mut next_f = 0usize;
            let mut next_b = 0usize;
            for _ in 0..warmup {
                seq.push((WorkKind::Forward, next_f));
                next_f += 1;
            }
            while next_b < mb {
                if next_f < mb {
                    seq.push((WorkKind::Forward, next_f));
                    next_f += 1;
                }
                seq.push((WorkKind::Backward, next_b));
                next_b += 1;
            }
        }
    }
    seq
}

/// Per-stage issue orders for `schedule`, exactly as [`simulate_sync`]
/// executes them. Also the bridge to static verification: feed the
/// result to [`schedule_model`] and `rannc-verify` proves the schedule
/// deadlock-free without running the simulator.
pub fn sync_work_orders(
    schedule: SyncSchedule,
    stages: usize,
    mb: usize,
) -> Vec<Vec<(WorkKind, usize)>> {
    (0..stages)
        .map(|s| {
            let mut seq = work_order(schedule, s, stages, mb);
            if schedule == SyncSchedule::OneFOneB {
                seq.dedup();
            }
            seq
        })
        .collect()
}

/// Flatten a synchronous schedule into the op model that
/// `rannc_verify::verify_schedule` analyses.
pub fn schedule_model(
    schedule: SyncSchedule,
    stages: usize,
    mb: usize,
) -> rannc_verify::ScheduleModel {
    use rannc_verify::PhaseKind;
    rannc_verify::ScheduleModel {
        stages,
        microbatches: mb,
        orders: sync_work_orders(schedule, stages, mb)
            .into_iter()
            .map(|order| {
                order
                    .into_iter()
                    .map(|(kind, m)| {
                        let phase = match kind {
                            WorkKind::Forward => PhaseKind::Forward,
                            WorkKind::Backward => PhaseKind::Backward,
                        };
                        (phase, m)
                    })
                    .collect()
            })
            .collect(),
    }
}

/// Derive the per-rank communication program a plan implies under
/// `schedule`: stage-boundary activation/gradient sends and recvs in
/// the schedule's issue order, plus one gradient all-reduce per
/// replicated stage. The placement is the plan's contiguous
/// [`rannc_core::PartitionPlan::device_assignment`]; the result feeds
/// `rannc_verify::comm::verify_comm` / `verify_transfers`.
pub fn comm_program(
    g: &TaskGraph,
    plan: &PartitionPlan,
    cluster: &ClusterSpec,
    schedule: SyncSchedule,
) -> Result<CommProgram, PlanSpecError> {
    let assignment = plan
        .device_assignment(cluster)
        .map_err(PlanSpecError::BadAssignment)?;
    let model = schedule_model(schedule, plan.stages.len(), plan.microbatches);
    Ok(CommProgram::derive(g, &plan.view(), &model, &assignment))
}

/// Run every dataflow-certified check on a plan under a concrete
/// schedule: liveness-certified peak memory per device slot
/// (RV100/RV101) and the static comm-race pass (RV060–RV064).
///
/// Gradient checkpointing follows the planner's own convention
/// (enabled whenever the pipeline has more than one stage). Returns
/// the merged report plus the per-stage certified bounds.
pub fn deep_verify_plan(
    g: &TaskGraph,
    plan: &PartitionPlan,
    cluster: &ClusterSpec,
    schedule: SyncSchedule,
    precision: Precision,
) -> Result<(Report, Vec<CertifiedStage>), PlanSpecError> {
    let assignment = plan
        .device_assignment(cluster)
        .map_err(PlanSpecError::BadAssignment)?;
    let model = schedule_model(schedule, plan.stages.len(), plan.microbatches);
    let checkpointing = plan.stages.len() > 1;
    Ok(rannc_verify::verify_deep(
        g,
        &plan.view(),
        cluster,
        &model,
        &assignment,
        precision,
        checkpointing,
    ))
}

/// Run the synchronous pipeline simulation.
///
/// 1F1B backward order: in this classic schedule the backward of
/// micro-batch `m` at stage `s` depends on the backward at stage `s+1`,
/// which processes micro-batches in *ascending* order — so ascending order
/// is used for `OneFOneB` and descending (reverse arrival) for
/// `FillDrain`; both are valid synchronous schedules with identical
/// numerics.
pub fn simulate_sync(
    spec: &PipelineSpec,
    schedule: SyncSchedule,
    want_timeline: bool,
) -> SyncSimOutput {
    if let Err(e) = spec.validate() {
        panic!("invalid pipeline spec: {e}");
    }
    let s_count = spec.stages.len();
    let mb = spec.microbatches;

    let seqs = sync_work_orders(schedule, s_count, mb);

    let mut ptr = vec![0usize; s_count];
    let mut stage_free = vec![0.0f64; s_count];
    let mut fwd_end: Vec<Vec<Option<f64>>> = vec![vec![None; mb]; s_count];
    let mut bwd_end: Vec<Vec<Option<f64>>> = vec![vec![None; mb]; s_count];
    let mut busy = vec![0.0f64; s_count];
    let mut timeline = want_timeline.then(Vec::new);

    loop {
        let mut progressed = false;
        for s in 0..s_count {
            while ptr[s] < seqs[s].len() {
                let (kind, m) = seqs[s][ptr[s]];
                // dependency ready time
                let ready = match kind {
                    WorkKind::Forward => {
                        if s == 0 {
                            Some(0.0)
                        } else {
                            fwd_end[s - 1][m].map(|t| t + spec.comm_time(s - 1))
                        }
                    }
                    WorkKind::Backward => {
                        if s == s_count - 1 {
                            fwd_end[s][m]
                        } else {
                            // gradient of the cut arrives from the next stage
                            match (bwd_end[s + 1][m], fwd_end[s][m]) {
                                (Some(b), Some(f)) => Some((b + spec.comm_time(s)).max(f)),
                                _ => None,
                            }
                        }
                    }
                };
                let Some(ready) = ready else { break };
                let dur = match kind {
                    WorkKind::Forward => spec.stages[s].fwd_time,
                    WorkKind::Backward => spec.stages[s].bwd_time,
                };
                let start = stage_free[s].max(ready);
                let end = start + dur;
                match kind {
                    WorkKind::Forward => fwd_end[s][m] = Some(end),
                    WorkKind::Backward => bwd_end[s][m] = Some(end),
                }
                stage_free[s] = end;
                busy[s] += dur;
                if let Some(tl) = timeline.as_mut() {
                    tl.push(TimelineEvent {
                        stage: s,
                        kind,
                        micro: m,
                        start,
                        end,
                    });
                }
                ptr[s] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    for s in 0..s_count {
        assert_eq!(
            ptr[s],
            seqs[s].len(),
            "schedule deadlocked at stage {s} item {}",
            ptr[s]
        );
    }

    let compute_end = stage_free.iter().cloned().fold(0.0, f64::max);
    let iteration = compute_end + spec.allreduce_time() + spec.optimizer_time();
    SyncSimOutput {
        result: SimResult::new(iteration, spec.batch_size, busy),
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PipelineSpec, StageSpec};
    use rannc_hw::{ClusterSpec, LinkSpec};

    fn spec(stages: usize, mb: usize, fwd: f64, bwd: f64) -> PipelineSpec {
        PipelineSpec {
            stages: (0..stages)
                .map(|_| StageSpec {
                    fwd_time: fwd,
                    bwd_time: bwd,
                    comm_to_next_bytes: 0,
                    grad_bytes: 0,
                    replicas: 1,
                    tensor_parallel: 1,
                })
                .collect(),
            microbatches: mb,
            replica_factor: 1,
            batch_size: 64,
            link: LinkSpec::nvlink(),
            cluster: ClusterSpec::v100_cluster(1),
            cost: rannc_cost::CostFactors::identity(),
        }
    }

    #[test]
    fn single_stage_is_sequential() {
        let s = spec(1, 4, 0.01, 0.02);
        let out = simulate_sync(&s, SyncSchedule::FillDrain, false);
        // 4 x (fwd+bwd), zero comm/allreduce/optimizer
        assert!((out.result.iteration_time - 4.0 * 0.03).abs() < 1e-9);
        assert!((out.result.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fill_drain_matches_closed_form() {
        // Equal stages, no comm: makespan = (MB + S - 1) * (f + b) exactly
        // when f == b (the forward and backward wavefronts tile densely).
        let (s_count, mb, f) = (4, 8, 0.01);
        let s = spec(s_count, mb, f, f);
        let out = simulate_sync(&s, SyncSchedule::FillDrain, false);
        let expect = (mb + s_count - 1) as f64 * 2.0 * f;
        assert!(
            (out.result.iteration_time - expect).abs() < 1e-9,
            "got {}, expected {expect}",
            out.result.iteration_time
        );
    }

    #[test]
    fn bubble_fraction_shrinks_with_more_microbatches() {
        let s4 = spec(4, 4, 0.01, 0.02);
        let s32 = spec(4, 32, 0.01, 0.02);
        let u4 = simulate_sync(&s4, SyncSchedule::FillDrain, false)
            .result
            .utilization;
        let u32 = simulate_sync(&s32, SyncSchedule::FillDrain, false)
            .result
            .utilization;
        assert!(u32 > u4, "u4={u4} u32={u32}");
        // theory: busy fraction = MB / (MB + S - 1)
        let theory = 32.0 / (32.0 + 3.0);
        assert!((u32 - theory).abs() < 0.05, "u32={u32} theory={theory}");
    }

    #[test]
    fn bottleneck_stage_dominates() {
        let mut s = spec(3, 8, 0.01, 0.01);
        s.stages[1].fwd_time = 0.05; // bottleneck
        s.stages[1].bwd_time = 0.05;
        let out = simulate_sync(&s, SyncSchedule::FillDrain, false);
        // at least MB * bottleneck work
        assert!(out.result.iteration_time >= 8.0 * 0.10);
    }

    #[test]
    fn one_f_one_b_no_slower_than_fill_drain_and_no_deadlock() {
        for (stages, mb) in [(2, 2), (3, 5), (4, 8), (6, 6), (1, 4)] {
            let s = spec(stages, mb, 0.01, 0.02);
            let fd = simulate_sync(&s, SyncSchedule::FillDrain, false).result;
            let ofob = simulate_sync(&s, SyncSchedule::OneFOneB, false).result;
            // same total work
            assert!(
                (fd.stage_busy.iter().sum::<f64>() - ofob.stage_busy.iter().sum::<f64>()).abs()
                    < 1e-9
            );
            // 1F1B can reorder but not change the critical path length by
            // much; sanity: within 1.5x of each other
            let ratio = ofob.iteration_time / fd.iteration_time;
            assert!((0.5..1.5).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn timeline_is_consistent() {
        let s = spec(3, 4, 0.01, 0.02);
        let out = simulate_sync(&s, SyncSchedule::FillDrain, true);
        let tl = out.timeline.unwrap();
        assert_eq!(tl.len(), 3 * 4 * 2);
        // no overlap within a stage
        for st in 0..3 {
            let mut events: Vec<_> = tl.iter().filter(|e| e.stage == st).collect();
            events.sort_by(|a, b| a.start.total_cmp(&b.start));
            for w in events.windows(2) {
                assert!(w[1].start >= w[0].end - 1e-12);
            }
        }
        // forward of (m, s) precedes forward of (m, s+1)
        for m in 0..4 {
            for st in 0..2 {
                let f0 = tl
                    .iter()
                    .find(|e| e.stage == st && e.micro == m && e.kind == WorkKind::Forward)
                    .unwrap();
                let f1 = tl
                    .iter()
                    .find(|e| e.stage == st + 1 && e.micro == m && e.kind == WorkKind::Forward)
                    .unwrap();
                assert!(f1.start >= f0.end - 1e-12);
            }
        }
        // backward of (m, s+1) precedes backward of (m, s)
        for m in 0..4 {
            for st in 0..2 {
                let b0 = tl
                    .iter()
                    .find(|e| e.stage == st && e.micro == m && e.kind == WorkKind::Backward)
                    .unwrap();
                let b1 = tl
                    .iter()
                    .find(|e| e.stage == st + 1 && e.micro == m && e.kind == WorkKind::Backward)
                    .unwrap();
                assert!(b0.start >= b1.end - 1e-12);
            }
        }
    }

    #[test]
    fn both_schedules_statically_verify_deadlock_free() {
        // the static proof and the simulator agree: every shape the
        // simulator accepts, the verifier certifies
        for (stages, mb) in [(1, 1), (2, 2), (3, 5), (4, 8), (6, 6), (1, 4)] {
            for schedule in [SyncSchedule::FillDrain, SyncSchedule::OneFOneB] {
                let model = schedule_model(schedule, stages, mb);
                let report = rannc_verify::verify_schedule(&model);
                assert!(
                    report.is_clean(),
                    "{schedule:?} {stages}x{mb}:\n{}",
                    report.render()
                );
            }
        }
    }

    #[test]
    fn schedule_model_matches_the_verify_constructors() {
        // `rannc-verify` re-derives canonical schedules so the planner
        // can certify plans without depending on this crate; pin the
        // two constructions together op for op
        for (stages, mb) in [(1, 1), (2, 2), (3, 5), (4, 8), (6, 6), (1, 4)] {
            let fd = schedule_model(SyncSchedule::FillDrain, stages, mb);
            let pinned = rannc_verify::ScheduleModel::fill_drain(stages, mb);
            assert_eq!(fd.orders, pinned.orders, "fill_drain {stages}x{mb}");
            let ob = schedule_model(SyncSchedule::OneFOneB, stages, mb);
            let pinned = rannc_verify::ScheduleModel::one_f_one_b(stages, mb);
            assert_eq!(ob.orders, pinned.orders, "one_f_one_b {stages}x{mb}");
        }
    }

    #[test]
    fn planned_mlp_deep_verifies_under_both_schedules() {
        use rannc_core::{PartitionConfig, Rannc};
        use rannc_models::{mlp_graph, MlpConfig};

        let g = mlp_graph(&MlpConfig::deep(256, 256, 8, 10));
        let cluster = ClusterSpec::v100_cluster(1);
        let plan = Rannc::new(PartitionConfig::new(64).with_k(8))
            .partition(&g, &cluster)
            .unwrap();
        for schedule in [SyncSchedule::FillDrain, SyncSchedule::OneFOneB] {
            let program = comm_program(&g, &plan, &cluster, schedule).unwrap();
            assert_eq!(program.programs.len(), plan.total_devices());
            let (report, certified) =
                deep_verify_plan(&g, &plan, &cluster, schedule, rannc_hw::Precision::FP32).unwrap();
            assert!(!report.has_errors(), "{schedule:?}:\n{}", report.render());
            assert_eq!(certified.len(), plan.stages.len());
            for c in &certified {
                assert!(c.certified_bytes <= c.capacity_bytes);
            }
        }
    }

    #[test]
    fn comm_time_delays_downstream() {
        let mut with_comm = spec(2, 2, 0.01, 0.01);
        with_comm.stages[0].comm_to_next_bytes = 250_000_000; // 10 ms on NVLink
        let fast = simulate_sync(&spec(2, 2, 0.01, 0.01), SyncSchedule::FillDrain, false);
        let slow = simulate_sync(&with_comm, SyncSchedule::FillDrain, false);
        assert!(
            slow.result.iteration_time > fast.result.iteration_time + 0.015,
            "comm not reflected: {} vs {}",
            slow.result.iteration_time,
            fast.result.iteration_time
        );
    }

    #[test]
    fn allreduce_and_optimizer_appended() {
        let mut s = spec(2, 2, 0.01, 0.01);
        s.replica_factor = 2;
        s.stages[0].grad_bytes = 1 << 30;
        s.stages[1].grad_bytes = 1 << 30;
        let base = simulate_sync(&spec(2, 2, 0.01, 0.01), SyncSchedule::FillDrain, false);
        let with = simulate_sync(&s, SyncSchedule::FillDrain, false);
        assert!(with.result.iteration_time > base.result.iteration_time + 0.05);
    }
}
