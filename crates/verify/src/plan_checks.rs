//! Plan validity: coverage, convexity, ordering, memory, device and
//! micro-batch accounting of a partition plan.
//!
//! The verifier lives *below* `rannc-core` in the crate graph (so the
//! partitioner can run it as a post-pass), so it cannot name
//! `PartitionPlan` directly. Instead it checks a borrowed [`PlanView`]
//! that `rannc-core` derives from a plan — the shape of a plan without
//! the plan type.

use crate::diag::{Code, Diagnostic, Location, Report};
use rannc_graph::convex::ConvexChecker;
use rannc_graph::taskset::Membership;
use rannc_graph::{TaskGraph, TaskId, TaskSet};
use rannc_hw::ClusterSpec;
use std::collections::BTreeMap;

/// One stage of a plan, borrowed.
#[derive(Debug, Clone, Copy)]
pub struct StageView<'a> {
    /// Tasks assigned to the stage.
    pub set: &'a TaskSet,
    /// Data-parallel replicas of the stage inside one pipeline replica.
    pub replicas: usize,
    /// Tensor-parallel degree: each data-parallel replica is a group of
    /// this many devices splitting the stage's matmuls, so the stage
    /// occupies `replicas × tensor_parallel` contiguous slots.
    pub tensor_parallel: usize,
    /// Per-replica micro-batch size.
    pub micro_batch: usize,
    /// Profiled forward time per micro-batch, seconds.
    pub fwd_time: f64,
    /// Profiled backward time per micro-batch, seconds.
    pub bwd_time: f64,
    /// Profiled peak memory, bytes.
    pub mem_bytes: usize,
    /// Parameter elements held by the stage (for the certified memory
    /// analysis in `liveness`; the estimate checks ignore it).
    pub param_elems: usize,
}

/// A partition plan, borrowed (see `PartitionPlan::view` in `rannc-core`).
#[derive(Debug, Clone)]
pub struct PlanView<'a> {
    /// Name of the partitioned model.
    pub model: &'a str,
    /// Stages in pipeline order.
    pub stages: Vec<StageView<'a>>,
    /// Micro-batch count per iteration.
    pub microbatches: usize,
    /// Whole-pipeline replicas.
    pub replica_factor: usize,
    /// Global mini-batch size.
    pub batch_size: usize,
}

/// Full plan validity: structural accounting plus every graph-dependent
/// invariant (coverage, convexity, forward-only stage order) and the
/// cluster-dependent ones (memory capacity, device budget).
pub fn verify_plan(g: &TaskGraph, plan: &PlanView<'_>, cluster: &ClusterSpec) -> Report {
    let mut r = verify_plan_structure(plan);
    check_universes(g, plan, &mut r);
    // Graph-dependent checks index by task id and need a topo order; skip
    // them (rather than panic) when the graph itself is broken or the
    // stage sets are not id-compatible with it.
    let acyclic = g.index().is_acyclic();
    if !acyclic {
        r.push(Diagnostic::new(
            Code::GraphCycle,
            Location::Model,
            "task graph has a cycle; graph-dependent plan checks skipped",
        ));
    }
    let compatible: Vec<bool> = plan
        .stages
        .iter()
        .map(|s| s.set.universe() == g.num_tasks())
        .collect();
    if acyclic {
        check_coverage(g, plan, &compatible, &mut r);
        check_duplicates(g, plan, &compatible, &mut r);
        let mut ck = ConvexChecker::new(g);
        check_convexity(&mut ck, plan, &compatible, &mut r);
        check_stage_order(g, plan, &compatible, &mut r);
        check_zero_compute(g, plan, &compatible, &mut r);
    }
    check_memory(plan, cluster, &mut r);
    check_devices(plan, cluster, &mut r);
    check_tensor_parallel(plan, cluster, &mut r);
    r
}

/// Graph- and cluster-free subset: everything that can be checked from
/// the plan's own numbers. Used when decoding a deployment file, where no
/// graph is available yet.
pub fn verify_plan_structure(plan: &PlanView<'_>) -> Report {
    let mut r = Report::new();
    if plan.stages.is_empty() {
        r.push(Diagnostic::new(
            Code::NoStages,
            Location::Model,
            format!("plan for `{}` has no stages", plan.model),
        ));
        return r;
    }
    // stages must agree on the task-id universe even without a graph
    let u0 = plan.stages[0].set.universe();
    for (i, s) in plan.stages.iter().enumerate().skip(1) {
        if s.set.universe() != u0 {
            r.push(Diagnostic::new(
                Code::UniverseMismatch,
                Location::Stage(i),
                format!(
                    "stage universe {} disagrees with stage 0's universe {u0}",
                    s.set.universe()
                ),
            ));
        }
    }
    for (i, s) in plan.stages.iter().enumerate() {
        if s.set.is_empty() {
            r.push(Diagnostic::new(
                Code::EmptyStage,
                Location::Stage(i),
                "stage contains no tasks",
            ));
        }
    }
    check_counts(plan, &mut r);
    check_microbatching(plan, &mut r);
    check_imbalance(plan, &mut r);
    r
}

/// RV029: zero anywhere in the replication/micro-batch accounting makes
/// the plan meaningless.
fn check_counts(plan: &PlanView<'_>, r: &mut Report) {
    if plan.replica_factor == 0 {
        r.push(Diagnostic::new(
            Code::DegenerateCounts,
            Location::Model,
            "zero pipeline replicas",
        ));
    }
    if plan.microbatches == 0 {
        r.push(Diagnostic::new(
            Code::DegenerateCounts,
            Location::Model,
            "zero micro-batches",
        ));
    }
    if plan.batch_size == 0 {
        r.push(Diagnostic::new(
            Code::DegenerateCounts,
            Location::Model,
            "zero global batch size",
        ));
    }
    for (i, s) in plan.stages.iter().enumerate() {
        if s.replicas == 0 {
            r.push(Diagnostic::new(
                Code::DegenerateCounts,
                Location::Stage(i),
                "stage has zero replicas",
            ));
        }
        if s.tensor_parallel == 0 {
            r.push(Diagnostic::new(
                Code::TpSlotWidth,
                Location::Stage(i),
                "stage has a zero tensor-parallel degree",
            ));
        }
    }
}

/// RV030 / RV042: each stage processes the whole global batch per
/// iteration as `micro_batch x replicas x microbatches x replica_factor`
/// samples. More than `batch_size` is impossible (the DP in
/// `rannc-core::dp` floors the division, so a valid plan never exceeds
/// it); less is a warning (remainder samples are dropped).
fn check_microbatching(plan: &PlanView<'_>, r: &mut Report) {
    for (i, s) in plan.stages.iter().enumerate() {
        if s.replicas == 0 || plan.replica_factor == 0 || plan.microbatches == 0 {
            continue; // RV029 already reported
        }
        if s.micro_batch == 0 {
            r.push(Diagnostic::new(
                Code::MicrobatchInfeasible,
                Location::Stage(i),
                format!(
                    "per-replica micro-batch is 0: batch {} cannot feed {} replica(s) x {} \
                     micro-batch(es) x {} pipeline replica(s)",
                    plan.batch_size, s.replicas, plan.microbatches, plan.replica_factor
                ),
            ));
            continue;
        }
        // a decoded plan file can carry any counts: the product may
        // overflow, which is infeasible too
        let used = [s.replicas, plan.microbatches, plan.replica_factor]
            .into_iter()
            .try_fold(s.micro_batch, usize::checked_mul);
        let Some(used) = used.filter(|&u| u <= plan.batch_size) else {
            r.push(Diagnostic::new(
                Code::MicrobatchInfeasible,
                Location::Stage(i),
                format!(
                    "stage consumes {} samples per iteration \
                     ({} x {} x {} x {}) but the global batch is only {}",
                    used.map_or("more than usize::MAX".into(), |u| u.to_string()),
                    s.micro_batch,
                    s.replicas,
                    plan.microbatches,
                    plan.replica_factor,
                    plan.batch_size
                ),
            ));
            continue;
        };
        if used < plan.batch_size {
            r.push(Diagnostic::new(
                Code::UnevenBatchSplit,
                Location::Stage(i),
                format!(
                    "micro-batch tiling covers {used} of {} samples; the remainder is dropped",
                    plan.batch_size
                ),
            ));
        }
    }
}

/// RV041: a stage more than 2x slower than the fastest starves the rest
/// of the pipeline (paper Fig. 6 shows throughput tracks the bottleneck).
fn check_imbalance(plan: &PlanView<'_>, r: &mut Report) {
    if plan.stages.len() < 2 {
        return;
    }
    let time = |s: &StageView<'_>| s.fwd_time + s.bwd_time;
    let (mut min_i, mut max_i) = (0usize, 0usize);
    for (i, s) in plan.stages.iter().enumerate() {
        if time(s) < time(&plan.stages[min_i]) {
            min_i = i;
        }
        if time(s) > time(&plan.stages[max_i]) {
            max_i = i;
        }
    }
    let (lo, hi) = (time(&plan.stages[min_i]), time(&plan.stages[max_i]));
    if lo > 0.0 && hi > 2.0 * lo {
        r.push(Diagnostic::new(
            Code::BottleneckImbalance,
            Location::StagePair(min_i, max_i),
            format!(
                "stage {max_i} is {:.1}x slower than stage {min_i} \
                 ({:.3} ms vs {:.3} ms per micro-batch)",
                hi / lo,
                hi * 1e3,
                lo * 1e3
            ),
        ));
    }
}

/// RV021: every stage set must use the graph's task count as universe —
/// set algebra on mismatched universes is the silent-corruption hazard
/// the `TaskSet` asserts now panic on.
fn check_universes(g: &TaskGraph, plan: &PlanView<'_>, r: &mut Report) {
    for (i, s) in plan.stages.iter().enumerate() {
        if s.set.universe() != g.num_tasks() {
            r.push(Diagnostic::new(
                Code::UniverseMismatch,
                Location::Stage(i),
                format!(
                    "stage universe {} does not match the graph's {} tasks",
                    s.set.universe(),
                    g.num_tasks()
                ),
            ));
        }
    }
}

/// RV023: the union of all stages must cover every task.
fn check_coverage(g: &TaskGraph, plan: &PlanView<'_>, compatible: &[bool], r: &mut Report) {
    let mut covered = TaskSet::new(g.num_tasks());
    for (s, ok) in plan.stages.iter().zip(compatible) {
        if *ok {
            covered.union_with(s.set);
        }
    }
    let missing: Vec<String> = g
        .task_ids()
        .filter(|&t| !covered.contains(t))
        .map(|t| t.to_string())
        .collect();
    if !missing.is_empty() {
        let shown = missing
            .iter()
            .take(5)
            .cloned()
            .collect::<Vec<_>>()
            .join(", ");
        r.push(Diagnostic::new(
            Code::CoverageHole,
            Location::Model,
            format!(
                "{} of {} tasks belong to no stage: {shown}{}",
                missing.len(),
                g.num_tasks(),
                if missing.len() > 5 { ", …" } else { "" }
            ),
        ));
    }
}

/// RV024: only constant tasks (cloned into each consumer by atomic-level
/// partitioning, paper §III-A) may appear in more than one stage.
fn check_duplicates(g: &TaskGraph, plan: &PlanView<'_>, compatible: &[bool], r: &mut Report) {
    let non_constant = g.index().non_constant();
    let mut owner: Vec<Option<usize>> = vec![None; g.num_tasks()];
    for (i, (s, ok)) in plan.stages.iter().zip(compatible).enumerate() {
        if !*ok {
            continue;
        }
        for t in s.set.iter() {
            match owner[t.index()] {
                Some(first) if non_constant[t.index()] => {
                    r.push(Diagnostic::new(
                        Code::DuplicateAssignment,
                        Location::Task(t.0),
                        format!(
                            "non-constant task `{}` assigned to both stage {first} and stage {i}",
                            g.task(t).name
                        ),
                    ));
                }
                Some(_) => {} // shared constant-task clone: allowed
                None => owner[t.index()] = Some(i),
            }
        }
    }
}

/// RV025: every stage must be convex (paper §III-B: a non-convex stage
/// can deadlock the pipeline).
fn check_convexity(
    ck: &mut ConvexChecker,
    plan: &PlanView<'_>,
    compatible: &[bool],
    r: &mut Report,
) {
    for (i, (s, ok)) in plan.stages.iter().zip(compatible).enumerate() {
        if *ok && !ck.is_convex(s.set) {
            r.push(Diagnostic::new(
                Code::NonConvexStage,
                Location::Stage(i),
                format!(
                    "a path leaves the stage's {} task(s) and re-enters it",
                    s.set.len()
                ),
            ));
        }
    }
}

/// RV026: data must flow forward: no value produced in a later stage may
/// be consumed in an earlier one. Clone-aware: a constant task shared by
/// both stages is not an edge between them.
///
/// One walk over the task edges `t → s` in ascending order, O(tasks +
/// edges): with `t` in stage `j`, `s` in an earlier stage `i`, `t ∉ i`
/// and `s ∉ j`, the edge is pair `(i, j)`'s witness unless the pair has
/// one already. So each bad pair is reported once, pairs ascending, with
/// the first `t` of stage `j` that feeds stage `i` and its first such
/// successor.
fn check_stage_order(g: &TaskGraph, plan: &PlanView<'_>, compatible: &[bool], r: &mut Report) {
    let stages = plan
        .stages
        .iter()
        .zip(compatible)
        .enumerate()
        .filter(|(_, (_, ok))| **ok)
        .map(|(i, (s, _))| (i as u32, s.set));
    let held = Membership::new(g.num_tasks(), stages);
    let index = g.index();
    let mut witness: BTreeMap<(u32, u32), (TaskId, TaskId)> = BTreeMap::new();
    for t in g.task_ids() {
        let later = held.of(t);
        if later.is_empty() {
            continue;
        }
        for &s in index.successors(t) {
            let earlier = held.of(s);
            for &j in later {
                // `earlier` is ascending: stop at the first stage not before `j`
                for &i in earlier.iter().take_while(|&&i| i < j) {
                    if !later.contains(&i) && !earlier.contains(&j) {
                        witness.entry((i, j)).or_insert((t, s));
                    }
                }
            }
        }
    }
    for ((i, j), (t, s)) in witness {
        r.push(Diagnostic::new(
            Code::BackwardStageEdge,
            Location::StagePair(i as usize, j as usize),
            format!(
                "task `{}` in stage {j} feeds task `{}` in earlier stage {i}",
                g.task(t).name,
                g.task(s).name
            ),
        ));
    }
}

/// RV040: a stage of pure layout ops contributes devices but no compute.
fn check_zero_compute(g: &TaskGraph, plan: &PlanView<'_>, compatible: &[bool], r: &mut Report) {
    if plan.stages.len() < 2 {
        return; // a single-stage plan has nowhere to shed the stage
    }
    for (i, (s, ok)) in plan.stages.iter().zip(compatible).enumerate() {
        if *ok && !s.set.is_empty() && s.set.iter().all(|t| g.task(t).op.is_layout_only()) {
            r.push(Diagnostic::new(
                Code::ZeroComputeStage,
                Location::Stage(i),
                format!(
                    "all {} task(s) are layout-only; the stage occupies {} device(s) \
                     without arithmetic",
                    s.set.len(),
                    s.replicas
                ),
            ));
        }
    }
}

/// RV027: profiled peak memory must fit the devices the stage runs on.
///
/// The check follows the contiguous assignment convention
/// ([`ClusterSpec::slot_devices`]) and each stage must fit the
/// *smallest* device any of its replicas lands on; a cluster with no
/// overrides reads as the template device everywhere.
fn check_memory(plan: &PlanView<'_>, cluster: &ClusterSpec, r: &mut Report) {
    let per_replica: usize = plan
        .stages
        .iter()
        .map(|s| s.replicas * s.tensor_parallel)
        .sum();
    let mut offset = 0usize;
    for (i, s) in plan.stages.iter().enumerate() {
        let width = s.replicas * s.tensor_parallel;
        let cap = cluster
            .slot_devices(
                offset..offset + width,
                per_replica,
                plan.replica_factor.max(1),
            )
            .map(|(_, d)| d.memory_bytes)
            .min()
            .unwrap_or(cluster.device.memory_bytes); // zero-replica stage: RV029 territory
        if s.mem_bytes > cap {
            r.push(Diagnostic::new(
                Code::MemoryOverCapacity,
                Location::Stage(i),
                format!(
                    "stage needs {} MiB but its device group has {} MiB",
                    s.mem_bytes >> 20,
                    cap >> 20
                ),
            ));
        }
        offset += width;
    }
}

/// RV028: the plan may not consume more devices than are healthy. Each
/// stage occupies `replicas × tensor_parallel` physical ranks.
fn check_devices(plan: &PlanView<'_>, cluster: &ClusterSpec, r: &mut Report) {
    let per_replica: usize = plan
        .stages
        .iter()
        .map(|s| s.replicas * s.tensor_parallel)
        .sum();
    let required = per_replica * plan.replica_factor;
    let available = cluster.healthy_devices();
    if required > available {
        r.push(Diagnostic::new(
            Code::DeviceOversubscription,
            Location::Model,
            format!(
                "plan needs {required} device(s) \
                 ({per_replica} per pipeline x {} replica(s)) but only {available} are healthy",
                plan.replica_factor
            ),
        ));
    }
}

/// RV070 (alignment half; the zero-degree half lives in [`check_counts`]):
/// a tensor-parallel group prices its activation all-reduces with the
/// cluster's uniform link model, which is only trustworthy when the
/// `tp`-wide groups nest inside nodes (`node_devices % tp == 0`) or tile
/// whole nodes (`tp % node_devices == 0`). Anything else straddles the
/// node boundary unevenly — a warning, not an error: the plan runs, but
/// its pricing is suspect.
fn check_tensor_parallel(plan: &PlanView<'_>, cluster: &ClusterSpec, r: &mut Report) {
    let node_devices = cluster.node.devices;
    for (i, s) in plan.stages.iter().enumerate() {
        let tp = s.tensor_parallel;
        if tp <= 1 {
            continue; // unsplit stages have no TP groups to align
        }
        if node_devices > 0 && !node_devices.is_multiple_of(tp) && !tp.is_multiple_of(node_devices)
        {
            let mut d = Diagnostic::new(
                Code::TpSlotWidth,
                Location::Stage(i),
                format!(
                    "tensor-parallel groups of {tp} device(s) straddle the \
                     {node_devices}-device node boundary unevenly; collective \
                     pricing assumes uniform groups"
                ),
            );
            d.severity = crate::diag::Severity::Warning;
            r.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc_graph::{DType, GraphBuilder, OpKind, TaskId};

    /// A 6-task chain graph and a clean 2-stage view over it.
    fn chain() -> TaskGraph {
        let mut b = GraphBuilder::new("chain");
        let mut x = b.input("x", [8], DType::F32);
        for _ in 0..6 {
            x = b.unary(OpKind::Relu, x);
        }
        b.output(x);
        b.finish()
    }

    struct Owned {
        sets: Vec<TaskSet>,
        microbatches: usize,
        replica_factor: usize,
        batch_size: usize,
    }

    impl Owned {
        fn two_stage(g: &TaskGraph) -> Owned {
            let n = g.num_tasks();
            Owned {
                sets: vec![
                    TaskSet::from_ids(n, (0..3).map(TaskId)),
                    TaskSet::from_ids(n, (3..6).map(TaskId)),
                ],
                microbatches: 4,
                replica_factor: 1,
                batch_size: 8,
            }
        }

        fn view(&self) -> PlanView<'_> {
            PlanView {
                model: "chain",
                stages: self
                    .sets
                    .iter()
                    .map(|s| StageView {
                        set: s,
                        replicas: 1,
                        tensor_parallel: 1,
                        micro_batch: 2,
                        fwd_time: 0.01,
                        bwd_time: 0.02,
                        mem_bytes: 1 << 30,
                        param_elems: 0,
                    })
                    .collect(),
                microbatches: self.microbatches,
                replica_factor: self.replica_factor,
                batch_size: self.batch_size,
            }
        }
    }

    fn cluster() -> ClusterSpec {
        ClusterSpec::v100_cluster(1)
    }

    #[test]
    fn clean_plan_verifies_clean() {
        let g = chain();
        let p = Owned::two_stage(&g);
        let r = verify_plan(&g, &p.view(), &cluster());
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn coverage_hole_reported() {
        let g = chain();
        let mut p = Owned::two_stage(&g);
        p.sets[1].remove(TaskId(5));
        let r = verify_plan(&g, &p.view(), &cluster());
        assert!(r.has_code(Code::CoverageHole), "{}", r.render());
    }

    #[test]
    fn non_convex_stage_reported() {
        let g = chain();
        let mut p = Owned::two_stage(&g);
        // stage 0 = {0, 2}: task 1 is outside, path 0 -> 1 -> 2 re-enters
        p.sets[0] = TaskSet::from_ids(g.num_tasks(), [TaskId(0), TaskId(2)]);
        p.sets[1] = TaskSet::from_ids(g.num_tasks(), [1, 3, 4, 5].map(TaskId));
        let r = verify_plan(&g, &p.view(), &cluster());
        assert!(r.has_code(Code::NonConvexStage), "{}", r.render());
    }

    #[test]
    fn reversed_stages_reported() {
        let g = chain();
        let mut p = Owned::two_stage(&g);
        p.sets.reverse();
        let r = verify_plan(&g, &p.view(), &cluster());
        assert!(r.has_code(Code::BackwardStageEdge), "{}", r.render());
    }

    #[test]
    fn duplicate_non_constant_task_reported() {
        let g = chain();
        let mut p = Owned::two_stage(&g);
        p.sets[1].insert(TaskId(2)); // also in stage 0, and non-constant
        let r = verify_plan(&g, &p.view(), &cluster());
        assert!(r.has_code(Code::DuplicateAssignment), "{}", r.render());
    }

    #[test]
    fn universe_mismatch_reported_without_panicking() {
        let g = chain();
        let mut p = Owned::two_stage(&g);
        p.sets[0] = TaskSet::from_ids(g.num_tasks() + 5, (0..3).map(TaskId));
        let r = verify_plan(&g, &p.view(), &cluster());
        assert!(r.has_code(Code::UniverseMismatch), "{}", r.render());
    }

    #[test]
    fn memory_and_devices_checked() {
        let g = chain();
        let p = Owned::two_stage(&g);
        let mut small = cluster();
        small.device = small.device.clone().with_memory(1 << 20);
        let r = verify_plan(&g, &p.view(), &small);
        assert!(r.has_code(Code::MemoryOverCapacity), "{}", r.render());

        let mut big_rf = Owned::two_stage(&g);
        big_rf.replica_factor = 1000;
        big_rf.batch_size = 1 << 20;
        let r = verify_plan(&g, &big_rf.view(), &cluster());
        assert!(r.has_code(Code::DeviceOversubscription), "{}", r.render());
    }

    #[test]
    fn microbatch_accounting_checked() {
        let g = chain();
        let mut p = Owned::two_stage(&g);
        p.batch_size = 4; // 2 x 1 x 4 x 1 = 8 > 4
        let r = verify_plan_structure(&p.view());
        assert!(r.has_code(Code::MicrobatchInfeasible), "{}", r.render());

        let mut p = Owned::two_stage(&g);
        p.batch_size = 100; // 8 < 100: remainder dropped
        let r = verify_plan_structure(&p.view());
        assert!(r.has_code(Code::UnevenBatchSplit), "{}", r.render());
        assert!(!r.has_errors(), "{}", r.render());
    }

    #[test]
    fn degenerate_counts_checked() {
        let g = chain();
        let mut p = Owned::two_stage(&g);
        p.replica_factor = 0;
        p.microbatches = 0;
        let r = verify_plan_structure(&p.view());
        assert!(r.has_code(Code::DegenerateCounts), "{}", r.render());
    }

    #[test]
    fn empty_plan_and_empty_stage_reported() {
        let g = chain();
        let empty = PlanView {
            model: "none",
            stages: Vec::new(),
            microbatches: 1,
            replica_factor: 1,
            batch_size: 1,
        };
        assert!(verify_plan(&g, &empty, &cluster()).has_code(Code::NoStages));

        let mut p = Owned::two_stage(&g);
        p.sets[0] = TaskSet::new(g.num_tasks());
        let r = verify_plan(&g, &p.view(), &cluster());
        assert!(r.has_code(Code::EmptyStage), "{}", r.render());
    }

    #[test]
    fn zero_compute_stage_warned() {
        let mut b = GraphBuilder::new("layout");
        let x = b.input("x", [4, 4], DType::F32);
        let t = b.transpose(x, [4, 4]);
        let y = b.unary(OpKind::Relu, t);
        b.output(y);
        let g = b.finish();
        let sets = [
            TaskSet::from_ids(2, [TaskId(0)]),
            TaskSet::from_ids(2, [TaskId(1)]),
        ];
        let view = PlanView {
            model: "layout",
            stages: sets
                .iter()
                .map(|s| StageView {
                    set: s,
                    replicas: 1,
                    tensor_parallel: 1,
                    micro_batch: 1,
                    fwd_time: 0.0,
                    bwd_time: 0.0,
                    mem_bytes: 1,
                    param_elems: 0,
                })
                .collect(),
            microbatches: 1,
            replica_factor: 1,
            batch_size: 1,
        };
        let r = verify_plan(&g, &view, &cluster());
        assert!(r.has_code(Code::ZeroComputeStage), "{}", r.render());
        assert!(!r.has_errors(), "{}", r.render());
    }

    #[test]
    fn tensor_parallel_checked() {
        let g = chain();
        // tp = 0 is a degenerate error
        let p = Owned::two_stage(&g);
        let mut view = p.view();
        view.stages[0].tensor_parallel = 0;
        let r = verify_plan_structure(&view);
        assert!(r.has_code(Code::TpSlotWidth), "{}", r.render());
        assert!(r.has_errors(), "{}", r.render());

        // tp = 3 on 8-device nodes straddles the boundary: warning
        let p = Owned::two_stage(&g);
        let mut view = p.view();
        view.stages[0].tensor_parallel = 3;
        let r = verify_plan(&g, &view, &cluster());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == Code::TpSlotWidth)
            .expect("misaligned tp groups must be flagged");
        assert_eq!(d.severity, crate::diag::Severity::Warning, "{d}");

        // tp = 4 nests inside an 8-device node; tp = 16 tiles two nodes:
        // both are aligned and clean of RV070
        for tp in [4usize, 16] {
            let p = Owned::two_stage(&g);
            let mut view = p.view();
            view.stages[0].tensor_parallel = tp;
            view.batch_size = 1 << 20; // keep micro-batch accounting quiet
            let r = verify_plan(&g, &view, &ClusterSpec::v100_cluster(8));
            assert!(!r.has_code(Code::TpSlotWidth), "tp={tp}: {}", r.render());
        }
    }

    #[test]
    fn tensor_parallel_widens_device_budget() {
        let g = chain();
        let p = Owned::two_stage(&g);
        let mut view = p.view();
        // 2 stages x 1 replica x tp 8 = 16 ranks on an 8-device cluster
        view.stages[0].tensor_parallel = 8;
        view.stages[1].tensor_parallel = 8;
        view.batch_size = 1 << 20;
        let r = verify_plan(&g, &view, &cluster());
        assert!(r.has_code(Code::DeviceOversubscription), "{}", r.render());
    }

    #[test]
    fn imbalance_warned() {
        let g = chain();
        let p = Owned::two_stage(&g);
        let mut view = p.view();
        view.stages[1].fwd_time = 0.1;
        view.stages[1].bwd_time = 0.2;
        let r = verify_plan_structure(&view);
        assert!(r.has_code(Code::BottleneckImbalance), "{}", r.render());
        assert!(!r.has_errors(), "{}", r.render());
    }

    #[test]
    fn cyclic_graph_reported_and_graph_checks_skipped() {
        // t0: x,b -> a ; t1: a -> b  — a 2-cycle through values
        let mut g = TaskGraph::new("loop");
        let x = g.add_value("x", [1], DType::F32, rannc_graph::ValueKind::Input);
        let a = g.add_value("a", [1], DType::F32, rannc_graph::ValueKind::Activation);
        let b = g.add_value("b", [1], DType::F32, rannc_graph::ValueKind::Activation);
        g.add_task("t0", OpKind::Add, vec![x, b], vec![a]).unwrap();
        g.add_task("t1", OpKind::Relu, vec![a], vec![b]).unwrap();
        g.mark_output(b);
        assert!(g.index().order().len() < g.num_tasks());
        // stage 0 = {t1} is fed by stage 1 = {t0}, and t0 is in no other
        // stage: RV026 and coverage would fire on an acyclic graph
        let p = Owned {
            sets: vec![
                TaskSet::from_ids(2, [TaskId(1)]),
                TaskSet::from_ids(2, [TaskId(0)]),
            ],
            microbatches: 4,
            replica_factor: 1,
            batch_size: 8,
        };
        let r = verify_plan(&g, &p.view(), &cluster());
        assert!(r.has_code(Code::GraphCycle), "{}", r.render());
        for skipped in [
            Code::BackwardStageEdge,
            Code::NonConvexStage,
            Code::CoverageHole,
            Code::DuplicateAssignment,
        ] {
            assert!(!r.has_code(skipped), "{}", r.render());
        }
    }

    /// RV026 as first written: every stage pair `(i, j)`, `i < j`,
    /// scanned for a task of stage `j` feeding stage `i`, one witness per
    /// pair. The reference the one-walk [`check_stage_order`] must match
    /// diagnostic for diagnostic.
    fn stage_order_pairwise(g: &TaskGraph, plan: &PlanView<'_>, compatible: &[bool]) -> Report {
        let mut r = Report::new();
        for (i, (a, a_ok)) in plan.stages.iter().zip(compatible).enumerate() {
            if !*a_ok {
                continue;
            }
            for (j, (b, b_ok)) in plan.stages.iter().zip(compatible).enumerate().skip(i + 1) {
                if !*b_ok {
                    continue;
                }
                'pair: for t in b.set.iter() {
                    if a.set.contains(t) {
                        continue; // shared constant-task clone
                    }
                    for s in g.task_successors(t) {
                        if a.set.contains(s) && !b.set.contains(s) {
                            r.push(Diagnostic::new(
                                Code::BackwardStageEdge,
                                Location::StagePair(i, j),
                                format!(
                                    "task `{}` in stage {j} feeds task `{}` in earlier stage {i}",
                                    g.task(t).name,
                                    g.task(s).name
                                ),
                            ));
                            break 'pair;
                        }
                    }
                }
            }
        }
        r
    }

    /// `k` stages cut from `g`'s non-constant tasks in topological order,
    /// each constant task cloned into every stage holding one of its
    /// consumers (as atomic-level partitioning does).
    fn cloned_stages(g: &TaskGraph, k: usize) -> Vec<TaskSet> {
        let (n, index) = (g.num_tasks(), g.index());
        let non_constant = index.non_constant();
        let chain: Vec<TaskId> = index
            .order()
            .iter()
            .copied()
            .filter(|t| non_constant[t.index()])
            .collect();
        let mut sets: Vec<TaskSet> = (0..k)
            .map(|c| {
                let run = &chain[c * chain.len() / k..(c + 1) * chain.len() / k];
                TaskSet::from_ids(n, run.iter().copied())
            })
            .collect();
        for &t in index.order().iter().rev() {
            if non_constant[t.index()] {
                continue;
            }
            for set in &mut sets {
                if index.successors(t).iter().any(|&s| set.contains(s)) {
                    set.insert(t);
                }
            }
        }
        sets
    }

    fn assert_stage_order_matches(g: &TaskGraph, sets: Vec<TaskSet>, what: &str) -> usize {
        let p = Owned {
            sets,
            microbatches: 4,
            replica_factor: 1,
            batch_size: 8,
        };
        let view = p.view();
        let compatible: Vec<bool> = view
            .stages
            .iter()
            .map(|s| s.set.universe() == g.num_tasks())
            .collect();
        let mut fast = Report::new();
        check_stage_order(g, &view, &compatible, &mut fast);
        let reference = stage_order_pairwise(g, &view, &compatible);
        assert_eq!(fast.diagnostics, reference.diagnostics, "{what}");
        fast.diagnostics.len()
    }

    /// A relu chain whose two matmuls share one transposed weight: a
    /// constant task chain (transpose, then relu) feeding both, so stage
    /// cuts between the matmuls clone it into two stages.
    fn shared_constant() -> TaskGraph {
        let mut b = GraphBuilder::new("shared-constant");
        let w = b.param("w", [8, 8]);
        let wt = b.transpose(w, [8, 8]);
        let wt = b.unary(OpKind::Relu, wt);
        let mut x = b.input("x", [8], DType::F32);
        for i in 0..12 {
            x = if i % 5 == 1 {
                b.matmul(x, wt)
            } else {
                b.unary(OpKind::Relu, x)
            };
        }
        b.output(x);
        b.finish()
    }

    #[test]
    fn stage_order_walk_matches_pairwise_reference() {
        use rannc_models::{bert_graph, gpt_graph, resnet_graph, BertConfig, GptConfig};
        use rannc_models::{ResNetConfig, T5Config};
        let graphs = [
            shared_constant(),
            bert_graph(&BertConfig::tiny()),
            gpt_graph(&GptConfig::tiny()),
            rannc_models::t5_graph(&T5Config::tiny()),
            resnet_graph(&ResNetConfig::tiny()),
        ];
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % m as u64) as usize
        };
        let (mut clones_shared, mut multi_pair) = (0, 0);
        for g in &graphs {
            let k = 5;
            let clean = cloned_stages(g, k);
            clones_shared += g
                .task_ids()
                .filter(|&t| clean.iter().filter(|s| s.contains(t)).count() > 1)
                .count();
            let name = &g.name;
            assert_eq!(assert_stage_order_matches(g, clean.clone(), name), 0);

            // every stage pair bad at once
            let mut reversed = clean.clone();
            reversed.reverse();
            let bad = assert_stage_order_matches(g, reversed, &format!("{name} reversed"));
            assert!(bad >= k - 1, "{name} reversed: {bad} bad pairs");
            multi_pair += (bad > 1) as usize;

            // one swapped pair
            let mut swapped = clean.clone();
            swapped.swap(1, 3);
            assert!(assert_stage_order_matches(g, swapped, &format!("{name} swap")) > 0);

            // a stage id-incompatible with the graph sits between the others
            let mut foreign = clean.clone();
            foreign.reverse();
            foreign[2] = TaskSet::from_ids(g.num_tasks() + 1, [TaskId(0)]);
            assert_stage_order_matches(g, foreign, &format!("{name} foreign stage"));

            // random moves and extra clones
            for round in 0..40 {
                let mut sets = clean.clone();
                for _ in 0..1 + next(4) {
                    let t = TaskId(next(g.num_tasks()) as u32);
                    let to = next(k);
                    if g.index().non_constant()[t.index()] {
                        for s in &mut sets {
                            s.remove(t);
                        }
                    }
                    sets[to].insert(t);
                }
                let bad = assert_stage_order_matches(g, sets, &format!("{name} mutation {round}"));
                multi_pair += (bad > 1) as usize;
            }
        }
        assert!(clones_shared > 0, "no constant clone spans two stages");
        assert!(multi_pair > 0, "no mutation produced several bad pairs");
    }
}
