//! Mutation suite for the static verifier.
//!
//! Take a known-good multi-stage plan, apply one seeded corruption at a
//! time, and assert `rannc-verify` reports the *expected* diagnostic
//! code — each mutation is the failure mode its `RV0xx` code names.
//! The dual obligation (every clean bundled model × cluster combination
//! verifies clean) lives at the bottom.

use proptest::prelude::*;
use rannc::prelude::*;
use rannc::verify::{
    verify_graph, verify_plan, verify_plan_structure, verify_schedule, Code, CollectiveGroup,
    CommOp, CommProgram, MsgTag, PhaseKind, Report, ScheduleModel, Severity,
};

/// A genuinely multi-stage plan: a deep MLP on a memory-constrained
/// device so the partitioner is forced to split it.
fn multi_stage_fixture() -> (TaskGraph, ClusterSpec, PartitionPlan) {
    let g = mlp_graph(&MlpConfig::deep(512, 512, 12, 10));
    let mem = (1usize << 30) + 40 * (1 << 20);
    let mut cluster = ClusterSpec::v100_cluster(1);
    cluster.device = cluster.device.clone().with_memory(mem);
    let plan = Rannc::new(PartitionConfig::new(32).with_k(8))
        .partition(&g, &cluster)
        .unwrap();
    assert!(plan.stages.len() >= 2, "fixture must be multi-stage");
    (g, cluster, plan)
}

fn assert_code(report: &Report, code: Code, what: &str) {
    assert!(
        report.has_code(code),
        "mutation `{what}` should raise {code:?}, got:\n{}",
        report.render()
    );
}

#[test]
fn baseline_fixture_is_clean() {
    let (g, cluster, plan) = multi_stage_fixture();
    let report = verify_plan(&g, &plan.view(), &cluster);
    assert!(!report.has_errors(), "{}", report.render());
}

#[test]
fn mutation_dropped_task_is_coverage_hole() {
    let (g, cluster, mut plan) = multi_stage_fixture();
    let victim = plan.stages[0].set.iter().next().unwrap();
    plan.stages[0].set.remove(victim);
    let report = verify_plan(&g, &plan.view(), &cluster);
    assert_code(&report, Code::CoverageHole, "drop a task");
}

#[test]
fn mutation_reversed_stages_is_backward_edge() {
    let (g, cluster, mut plan) = multi_stage_fixture();
    plan.stages.reverse();
    let report = verify_plan(&g, &plan.view(), &cluster);
    assert_code(&report, Code::BackwardStageEdge, "reverse stage order");
}

#[test]
fn mutation_inflated_mem_bytes_exceeds_capacity() {
    let (g, cluster, mut plan) = multi_stage_fixture();
    plan.stages[0].mem_bytes = cluster.device.memory_bytes * 10;
    let report = verify_plan(&g, &plan.view(), &cluster);
    assert_code(&report, Code::MemoryOverCapacity, "inflate mem_bytes");
}

#[test]
fn mutation_moved_interior_task_breaks_convexity() {
    let (g, cluster, mut plan) = multi_stage_fixture();
    // Move stage 1's last task into stage 0: stage 0 then contains both
    // endpoints of a path whose interior lives in stage 1.
    let victim = plan.stages[1].set.iter().last().unwrap();
    plan.stages[1].set.remove(victim);
    plan.stages[0].set.insert(victim);
    let report = verify_plan(&g, &plan.view(), &cluster);
    assert_code(&report, Code::NonConvexStage, "move an interior task");
}

#[test]
fn mutation_duplicated_task_is_double_assignment() {
    let (g, cluster, mut plan) = multi_stage_fixture();
    // Copy a non-constant task of stage 1 into stage 0 as well.
    let non_constant = rannc::graph::traverse::non_constant_tasks(&g);
    let victim = plan.stages[1]
        .set
        .iter()
        .find(|t| non_constant[t.index()])
        .unwrap();
    plan.stages[0].set.insert(victim);
    let report = verify_plan(&g, &plan.view(), &cluster);
    assert_code(&report, Code::DuplicateAssignment, "duplicate a task");
}

#[test]
fn mutation_zero_replicas_is_degenerate() {
    let (g, cluster, mut plan) = multi_stage_fixture();
    plan.stages[0].replicas = 0;
    let report = verify_plan(&g, &plan.view(), &cluster);
    assert_code(&report, Code::DegenerateCounts, "zero stage replicas");
}

#[test]
fn mutation_foreign_universe_is_mismatch() {
    let (g, cluster, mut plan) = multi_stage_fixture();
    // Rebuild stage 0's set against a universe 5 tasks larger, as if it
    // came from a different build of the model.
    let rebuilt = TaskSet::from_ids(g.num_tasks() + 5, plan.stages[0].set.iter());
    plan.stages[0].set = rebuilt;
    let report = verify_plan(&g, &plan.view(), &cluster);
    assert_code(&report, Code::UniverseMismatch, "foreign universe");
}

#[test]
fn mutation_replica_explosion_oversubscribes_devices() {
    let (g, cluster, mut plan) = multi_stage_fixture();
    plan.stages[0].replicas += 1000;
    let report = verify_plan(&g, &plan.view(), &cluster);
    assert_code(&report, Code::DeviceOversubscription, "replica explosion");
}

#[test]
fn mutation_inflated_micro_batch_is_infeasible() {
    let (g, cluster, mut plan) = multi_stage_fixture();
    plan.stages[0].micro_batch = plan.batch_size; // x microbatches > batch
    let report = verify_plan(&g, &plan.view(), &cluster);
    assert_code(&report, Code::MicrobatchInfeasible, "inflate micro_batch");
}

#[test]
fn mutation_emptied_stage_is_reported() {
    let (g, cluster, mut plan) = multi_stage_fixture();
    plan.stages[0].set = TaskSet::new(g.num_tasks());
    let report = verify_plan(&g, &plan.view(), &cluster);
    assert_code(&report, Code::EmptyStage, "empty a stage");
}

#[test]
fn structural_subset_catches_decode_visible_mutations() {
    // the graph-free pass plan_io runs on load sees the same structural
    // corruptions
    let (_, _, mut plan) = multi_stage_fixture();
    plan.replica_factor = 0;
    let report = verify_plan_structure(&plan.view());
    assert_code(&report, Code::DegenerateCounts, "zero replica_factor");
}

#[test]
fn mutation_degree_beyond_head_count_is_rv070() {
    // BERT 128x4 has 2 attention heads: T = 4 cannot split them
    let g = bert_graph(&BertConfig::enlarged(128, 4));
    let cluster = ClusterSpec::v100_cluster(1);
    let mut plan = Rannc::new(PartitionConfig::new(32).with_k(8).with_tp_max(4))
        .partition(&g, &cluster)
        .unwrap();
    let clean = verify_plan(&g, &plan.view(), &cluster);
    assert!(!clean.has_code(Code::TpSlotWidth), "{}", clean.render());
    plan.stages[0].tensor_parallel = 4;
    let report = verify_plan(&g, &plan.view(), &cluster);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::TpSlotWidth && d.severity == Severity::Error),
        "T = 4 on 2 heads should be an RV070 error, got:\n{}",
        report.render()
    );
}

// ---- graph mutations ------------------------------------------------

#[test]
fn graph_mutation_cycle_detected() {
    use rannc::graph::{DType, OpKind, TaskGraph, ValueKind};
    // hand-assembled 2-cycle: t0 consumes b and produces a, t1 the reverse
    let mut g = TaskGraph::new("cyclic");
    let x = g.add_value("x", [4], DType::F32, ValueKind::Input);
    let a = g.add_value("a", [4], DType::F32, ValueKind::Activation);
    let b = g.add_value("b", [4], DType::F32, ValueKind::Activation);
    g.add_task("t0", OpKind::Add, vec![x, b], vec![a]).unwrap();
    g.add_task("t1", OpKind::Relu, vec![a], vec![b]).unwrap();
    g.mark_output(b);
    let report = verify_graph(&g);
    assert!(report.has_code(Code::GraphCycle), "{}", report.render());
}

#[test]
fn graph_mutation_bad_shape_detected() {
    use rannc::graph::{DType, OpKind, TaskGraph, ValueKind};
    // a matmul whose recorded output shape contradicts its inputs
    let mut g = TaskGraph::new("bad-matmul");
    let x = g.add_value("x", [4, 8], DType::F32, ValueKind::Input);
    let w = g.add_value("w", [8, 16], DType::F32, ValueKind::Param);
    let y = g.add_value("y", [4, 17], DType::F32, ValueKind::Activation);
    g.add_task("mm", OpKind::MatMul, vec![x, w], vec![y])
        .unwrap();
    g.mark_output(y);
    let report = verify_graph(&g);
    assert!(
        report.has_code(Code::ShapeRuleViolation),
        "{}",
        report.render()
    );
}

#[test]
fn graph_mutation_mislabeled_static_detected() {
    use rannc::graph::{DType, OpKind, TaskGraph, ValueKind};
    // an Activation no task produces: its static marker lies
    let mut g = TaskGraph::new("mislabeled");
    let ghost = g.add_value("ghost", [4], DType::F32, ValueKind::Activation);
    let y = g.add_value("y", [4], DType::F32, ValueKind::Activation);
    g.add_task("t0", OpKind::Relu, vec![ghost], vec![y])
        .unwrap();
    g.mark_output(y);
    let report = verify_graph(&g);
    assert!(
        report.has_code(Code::MislabeledStatic),
        "{}",
        report.render()
    );
}

// ---- schedule mutations ---------------------------------------------

#[test]
fn schedule_mutation_truncated_order_is_incomplete() {
    let mut model = SyncSchedule::FillDrain.model(3, 4);
    model.orders[2].pop();
    let report = verify_schedule(&model);
    assert!(
        report.has_code(Code::ScheduleIncomplete),
        "{}",
        report.render()
    );
}

#[test]
fn schedule_mutation_warmup_mismatch_deadlocks() {
    use PhaseKind::{Backward as B, Forward as F};
    // stage 0 runs eager 1F1B (no warmup) while stage 1 expects
    // fill-drain: a cross-stage wait cycle, caught statically
    let model = ScheduleModel {
        stages: 2,
        microbatches: 2,
        orders: vec![
            vec![(F, 0), (B, 0), (F, 1), (B, 1)],
            vec![(F, 0), (F, 1), (B, 0), (B, 1)],
        ],
    };
    let report = verify_schedule(&model);
    assert!(
        report.has_code(Code::ScheduleDeadlock),
        "{}",
        report.render()
    );
}

// ---- deep-verify mutations: comm program + certified memory ---------
//
// Same discipline as above, against the dataflow-certified layer: derive
// the fixture's *real* communication program, corrupt one property at a
// time, and pin the RV06x/RV1xx code that names the corruption.

/// The fixture plus its derived fill-drain communication program.
fn derived_program() -> (TaskGraph, ClusterSpec, PartitionPlan, CommProgram) {
    let (g, cluster, plan) = multi_stage_fixture();
    let assignment = plan
        .device_assignment(&cluster)
        .expect("fixture placement must be derivable");
    let model = ScheduleModel::fill_drain(plan.stages.len(), plan.microbatches);
    let program = CommProgram::derive(&g, &plan.view(), &model, &assignment);
    (g, cluster, plan, program)
}

#[test]
fn deep_baseline_fixture_certifies_clean() {
    let (g, cluster, plan) = multi_stage_fixture();
    for schedule in [SyncSchedule::FillDrain, SyncSchedule::OneFOneB] {
        let model = schedule.model(plan.stages.len(), plan.microbatches);
        let (report, certified) = plan
            .certify(&g, &cluster, &model, Precision::FP32)
            .expect("fixture must deep-verify");
        assert!(!report.has_errors(), "{schedule:?}:\n{}", report.render());
        assert_eq!(certified.len(), plan.stages.len());
        for c in &certified {
            assert!(
                c.certified_bytes <= c.capacity_bytes,
                "certified {} > capacity {} on d{}",
                c.certified_bytes,
                c.capacity_bytes,
                c.device
            );
        }
    }
}

#[test]
fn mutation_duplicated_collective_is_rv060() {
    let (_g, _cluster, _plan, mut program) = derived_program();
    // one member of a DP group fires its allreduce twice: occurrence
    // counts across the group disagree and the collective hangs
    let (gi, group) = program
        .groups
        .iter()
        .enumerate()
        .find(|(_, gr)| gr.members.len() >= 2)
        .expect("fixture must have a multi-member DP group");
    let rank = group.members[0];
    let pos = program.programs[rank]
        .iter()
        .position(|op| matches!(op, CommOp::AllReduce { group, .. } if *group == gi))
        .expect("group member must issue its collective");
    let dup = program.programs[rank][pos].clone();
    program.programs[rank].push(dup);
    let report = rannc::verify::comm::verify_comm(&program);
    assert_code(
        &report,
        Code::CollectiveOrderMismatch,
        "duplicate one member's collective",
    );
}

#[test]
fn mutation_swapped_collective_order_is_rv060() {
    // two ranks sharing two DP groups issue them in opposite orders —
    // the classic crossed-collective hang, caught statically
    let ar = |group| CommOp::AllReduce { group, bytes: 4 };
    let program = CommProgram {
        programs: vec![vec![ar(0), ar(1)], vec![ar(1), ar(0)]],
        groups: vec![
            CollectiveGroup {
                members: vec![0, 1],
                label: "dp-stage0".into(),
                tp_stage: None,
            },
            CollectiveGroup {
                members: vec![0, 1],
                label: "dp-stage1".into(),
                tp_stage: None,
            },
        ],
        stage_of_rank: vec![Some(0), Some(1)],
    };
    let report = rannc::verify::comm::verify_comm(&program);
    assert_code(
        &report,
        Code::CollectiveOrderMismatch,
        "swap collective order across ranks",
    );
}

#[test]
fn mutation_dropped_recv_is_rv061() {
    let (_g, _cluster, _plan, mut program) = derived_program();
    let (rank, pos) = program
        .programs
        .iter()
        .enumerate()
        .find_map(|(r, prog)| {
            prog.iter()
                .position(|op| matches!(op, CommOp::Recv { .. }))
                .map(|p| (r, p))
        })
        .expect("fixture program must contain a recv");
    program.programs[rank].remove(pos);
    let report = rannc::verify::comm::verify_comm(&program);
    assert_code(&report, Code::UnpairedSendRecv, "drop a recv");
}

#[test]
fn mutation_dropped_send_is_rv061() {
    let (_g, _cluster, _plan, mut program) = derived_program();
    let (rank, pos) = program
        .programs
        .iter()
        .enumerate()
        .find_map(|(r, prog)| {
            prog.iter()
                .position(|op| matches!(op, CommOp::Send { .. }))
                .map(|p| (r, p))
        })
        .expect("fixture program must contain a send");
    program.programs[rank].remove(pos);
    let report = rannc::verify::comm::verify_comm(&program);
    assert_code(&report, Code::UnpairedSendRecv, "drop a send");
}

#[test]
fn mutation_premature_grad_wait_is_rv062() {
    let (_g, _cluster, _plan, mut program) = derived_program();
    // an interior-stage rank waits for its first gradient *before*
    // sending the forward activation that gradient depends on: a
    // cross-rank wait cycle through the downstream stage
    let rank = program
        .programs
        .iter()
        .position(|prog| {
            prog.iter()
                .any(|op| matches!(op, CommOp::Send { tag, .. } if tag.kind == PhaseKind::Forward))
                && prog.iter().any(
                    |op| matches!(op, CommOp::Recv { tag, .. } if tag.kind == PhaseKind::Backward),
                )
        })
        .expect("fixture has an interior pipeline boundary");
    let prog = &mut program.programs[rank];
    let send_pos = prog
        .iter()
        .position(|op| matches!(op, CommOp::Send { tag, .. } if tag.kind == PhaseKind::Forward))
        .unwrap();
    let recv_pos = prog
        .iter()
        .position(|op| matches!(op, CommOp::Recv { tag, .. } if tag.kind == PhaseKind::Backward))
        .unwrap();
    assert!(send_pos < recv_pos, "sane programs send forward first");
    let grad_wait = prog.remove(recv_pos);
    prog.insert(send_pos, grad_wait);
    let report = rannc::verify::comm::verify_comm(&program);
    assert_code(&report, Code::CommDeadlock, "wait for grad before fwd send");
}

#[test]
fn mutation_dead_value_transfer_is_rv063() {
    let (g, _cluster, plan, mut program) = derived_program();
    // bolt on a transfer of a value that lives and dies inside stage 0:
    // the receiver never reads it
    let s0 = &plan.stages[0].set;
    let (victim, bytes) = g
        .values()
        .find_map(|(vid, v)| {
            let produced_in = v.producer.map(|t| s0.contains(t)).unwrap_or(false);
            let consumed_in =
                !v.consumers.is_empty() && v.consumers.iter().all(|&t| s0.contains(t));
            let exported = g.outputs().contains(&vid);
            (produced_in && consumed_in && !exported).then(|| (vid, v.size_bytes()))
        })
        .expect("stage 0 must have an interior value");
    let src = program
        .stage_of_rank
        .iter()
        .position(|s| *s == Some(0))
        .unwrap();
    let dst = program
        .stage_of_rank
        .iter()
        .position(|s| *s == Some(1))
        .unwrap();
    let tag = MsgTag {
        src_stage: 0,
        dst_stage: 1,
        micro: 0,
        kind: PhaseKind::Forward,
    };
    let values = vec![victim.index() as u32];
    program.programs[src].push(CommOp::Send {
        to: dst,
        tag,
        bytes,
        values: values.clone(),
    });
    program.programs[dst].push(CommOp::Recv {
        from: src,
        tag,
        bytes,
        values,
    });
    let report = rannc::verify::comm::verify_transfers(&g, &plan.view(), &program);
    assert_code(&report, Code::DeadTransfer, "transfer an interior value");
}

#[test]
fn mutation_duplicate_delivery_is_rv064() {
    let (g, _cluster, plan, mut program) = derived_program();
    // replay the first boundary transfer: pairing stays consistent, but
    // the same (value, micro) lands on the receiver twice
    let (src, send_pos) = program
        .programs
        .iter()
        .enumerate()
        .find_map(|(r, prog)| {
            prog.iter()
                .position(|op| matches!(op, CommOp::Send { .. }))
                .map(|p| (r, p))
        })
        .expect("fixture program must contain a send");
    let send = program.programs[src][send_pos].clone();
    let CommOp::Send { to, tag, .. } = &send else {
        unreachable!()
    };
    let (to, tag) = (*to, *tag);
    let recv_pos = program.programs[to]
        .iter()
        .position(|op| matches!(op, CommOp::Recv { from, tag: t, .. } if *from == src && *t == tag))
        .expect("matching recv must exist");
    let recv = program.programs[to][recv_pos].clone();
    program.programs[src].push(send);
    program.programs[to].push(recv);
    assert!(
        !rannc::verify::comm::verify_comm(&program).has_errors(),
        "duplicated pair must stay matched"
    );
    let report = rannc::verify::comm::verify_transfers(&g, &plan.view(), &program);
    assert_code(&report, Code::RedundantTransfer, "replay a transfer");
}

#[test]
fn mutation_starved_device_is_rv100() {
    let (g, _cluster, plan) = multi_stage_fixture();
    // re-certify the same plan against a cluster whose devices shrank
    // to 64 MiB: the certificate must name the over-committed device
    let mut small = ClusterSpec::v100_cluster(1);
    small.device = small.device.clone().with_memory(64 << 20);
    let model = ScheduleModel::fill_drain(plan.stages.len(), plan.microbatches);
    let (report, certified) = plan
        .certify(&g, &small, &model, Precision::FP32)
        .expect("same device count");
    assert_code(&report, Code::CertifiedMemoryOverCapacity, "shrink devices");
    assert!(certified
        .iter()
        .any(|c| c.certified_bytes > c.capacity_bytes));
    let named = report.diagnostics.iter().any(|d| {
        d.code == Code::CertifiedMemoryOverCapacity
            && matches!(d.location, rannc::verify::Location::Device(_))
    });
    assert!(named, "RV100 must name the device:\n{}", report.render());
}

#[test]
fn mutation_shrunken_estimate_is_rv101() {
    let (g, cluster, mut plan) = multi_stage_fixture();
    // the plan claims stage 0 fits in one byte: the certificate calls
    // the estimate broken (a warning — capacity itself still holds)
    plan.stages[0].mem_bytes = 1;
    let model = ScheduleModel::fill_drain(plan.stages.len(), plan.microbatches);
    let (report, _) = plan
        .certify(&g, &cluster, &model, Precision::FP32)
        .expect("fixture must deep-verify");
    assert_code(&report, Code::MemoryEstimateDivergence, "shrink mem_bytes");
    assert!(
        !report.has_errors(),
        "RV101 is a warning, not an error:\n{}",
        report.render()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Certified peak is monotone in the number of in-flight
    /// micro-batches and never dips below the single-micro-batch
    /// liveness bound: more stash can only cost more memory.
    #[test]
    fn certified_peak_is_monotone_in_inflight(mb in 1usize..8) {
        let (g, cluster, plan) = multi_stage_fixture();
        let certify = |microbatches: usize| {
            let model = ScheduleModel::fill_drain(plan.stages.len(), microbatches);
            rannc::verify::liveness::certify_memory(
                &g, &plan.view(), &cluster, &model, Precision::FP32, true,
            )
            .1
        };
        let floor = certify(1);
        let lo = certify(mb);
        let hi = certify(mb + 1);
        for ((f, l), h) in floor.iter().zip(&lo).zip(&hi) {
            prop_assert!(
                h.certified_bytes >= l.certified_bytes,
                "stash {} -> {} shrank the certificate: {} -> {}",
                l.stash_depth, h.stash_depth, l.certified_bytes, h.certified_bytes
            );
            prop_assert!(
                l.certified_bytes >= f.certified_bytes,
                "certificate below the single-micro-batch bound: {} < {}",
                l.certified_bytes, f.certified_bytes
            );
        }
    }
}

// ---- clean sweep: bundled models × clusters -------------------------

#[test]
fn all_bundled_models_verify_clean_on_16_and_32_devices() {
    // the acceptance sweep: graph, plan and both schedules must be free
    // of error diagnostics for every bundled model on 16- and 32-device
    // clusters (warnings allowed)
    let graphs = [
        bert_graph(&BertConfig::tiny()),
        gpt_graph(&GptConfig::tiny()),
        t5_graph(&T5Config::tiny()),
        resnet_graph(&ResNetConfig::tiny()),
        mlp_graph(&MlpConfig::deep(256, 256, 8, 10)),
    ];
    for nodes in [2usize, 4] {
        let cluster = ClusterSpec::v100_cluster(nodes);
        for g in &graphs {
            let graph_report = verify_graph(g);
            assert!(
                !graph_report.has_errors(),
                "{} graph on {nodes} nodes:\n{}",
                g.name,
                graph_report.render()
            );
            let plan = Rannc::new(PartitionConfig::new(256).with_k(8))
                .partition(g, &cluster)
                .unwrap_or_else(|e| panic!("{} on {nodes} nodes failed: {e}", g.name));
            let report = verify_plan(g, &plan.view(), &cluster);
            assert!(
                !report.has_errors(),
                "{} plan on {nodes} nodes:\n{}",
                g.name,
                report.render()
            );
            for schedule in [SyncSchedule::FillDrain, SyncSchedule::OneFOneB] {
                let model = schedule.model(plan.stages.len(), plan.microbatches);
                let sreport = verify_schedule(&model);
                assert!(
                    sreport.is_clean(),
                    "{} {schedule:?} on {nodes} nodes:\n{}",
                    g.name,
                    sreport.render()
                );
                // the deep pass: certified peak within capacity, derived
                // comm program free of races, under both schedules
                let (dreport, certified) = plan
                    .certify(g, &cluster, &model, Precision::FP32)
                    .unwrap_or_else(|e| panic!("{} {schedule:?} on {nodes} nodes: {e}", g.name));
                assert!(
                    !dreport.has_errors(),
                    "{} {schedule:?} deep on {nodes} nodes:\n{}",
                    g.name,
                    dreport.render()
                );
                for c in &certified {
                    assert!(
                        c.certified_bytes <= c.capacity_bytes,
                        "{} {schedule:?} on {nodes} nodes: certified {} > capacity {} on d{}",
                        g.name,
                        c.certified_bytes,
                        c.capacity_bytes,
                        c.device
                    );
                }
            }
        }
    }
}
