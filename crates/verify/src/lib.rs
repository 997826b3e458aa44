//! Static verifier for RaNNC artifacts: task graphs, partition plans,
//! and pipeline schedules.
//!
//! The partitioner (paper §III) emits three artifacts whose correctness
//! is a *static* property: the task graph must be a well-formed DAG, the
//! plan's stages must tile it convexly in data-flow order within device
//! budgets, and the pipeline schedule must be provably deadlock-free.
//! This crate checks all three and reports violations as structured
//! [`Diagnostic`]s — stable `RV0xx`/`RV1xx` codes, [`Severity`], a
//! [`Location`], and a human rendering — instead of panicking, so
//! callers can fail, warn, or machine-read as they choose.
//!
//! Entry points, one per artifact:
//!
//! | artifact | entry point | codes |
//! |---|---|---|
//! | task graph | [`verify_graph`] | `RV001`–`RV008` |
//! | partition plan | [`verify_plan`] / [`verify_plan_structure`] | `RV020`–`RV042`, `RV070` |
//! | pipeline schedule | [`verify_schedule`] | `RV050`–`RV052` |
//! | comm program | [`comm::verify_comm`] / [`comm::verify_transfers`] | `RV060`–`RV064` |
//! | tensor parallelism | [`comm::verify_tp_groups`] | `RV071` |
//! | certified memory | [`liveness::certify_memory`] | `RV072`, `RV100`–`RV101` |
//!
//! The comm, tensor-parallel and memory rows are the *deep* checks: they
//! certify a peak-memory bound per (stage, device slot) from each
//! stage's liveness, computed in closed form over its forward→backward
//! program ([`liveness::stage_liveness`]), and statically race-check the
//! per-rank communication program implied by the plan and schedule.
//! [`verify_deep`] bundles them.
//!
//! The crate sits *below* `rannc-core` so the partitioner can run it as
//! a post-pass; plans are therefore checked through the borrowed
//! [`PlanView`] rather than the concrete plan type.

pub mod comm;
pub mod diag;
pub mod graph_checks;
pub mod liveness;
pub mod plan_checks;
pub mod schedule_checks;

pub use comm::{CollectiveGroup, CommOp, CommProgram, MsgTag};
pub use diag::{Code, Diagnostic, Location, Report, Severity};
pub use graph_checks::verify_graph;
pub use liveness::{CertifiedStage, StageLiveness};
pub use plan_checks::{verify_plan, verify_plan_structure, PlanView, StageView};
pub use schedule_checks::{verify_schedule, PhaseKind, ScheduleModel};

use rannc_hw::{ClusterSpec, Precision};

/// Run every dataflow-certified check on a plan: liveness-certified
/// peak memory against per-slot capacity (RV100/RV101, T-scaled as
/// RV072 on tensor-parallel stages), collective and send/recv race
/// detection over the derived communication program (RV060–RV062),
/// tensor-parallel group membership (RV071), and transfer hygiene
/// (RV063/RV064).
///
/// `assignment` is `assignment[pipeline_replica][stage] = global ranks`
/// (the `SlotTable` convention; `PartitionPlan::device_assignment`
/// produces it). The certified stages are returned alongside the report
/// so callers can inspect the bounds that back the diagnostics.
pub fn verify_deep(
    g: &rannc_graph::TaskGraph,
    plan: &PlanView<'_>,
    cluster: &ClusterSpec,
    schedule: &ScheduleModel,
    assignment: &[Vec<Vec<usize>>],
    precision: Precision,
    checkpointing: bool,
) -> (Report, Vec<CertifiedStage>) {
    let (mut report, certified) =
        liveness::certify_memory(g, plan, cluster, schedule, precision, checkpointing);
    let program = CommProgram::derive(g, plan, schedule, assignment);
    report.merge(comm::verify_comm(&program));
    report.merge(comm::verify_tp_groups(&program, plan));
    report.merge(comm::verify_transfers(g, plan, &program));
    (report, certified)
}
