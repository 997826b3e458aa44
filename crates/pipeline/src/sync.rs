//! Event-driven simulation of synchronous pipelines.
//!
//! Reproduces Fig. 1 of the paper: micro-batches flow forward through the
//! stages, then backward; parameters update only after every micro-batch's
//! gradient is in — no staleness. Two per-stage issue orders are
//! supported:
//!
//! * [`SyncSchedule::FillDrain`] — GPipe's order (all forwards, then all
//!   backwards), used by GPipe and RaNNC;
//! * [`SyncSchedule::OneFOneB`] — the 1F1B order (warmup forwards, then
//!   alternate backward/forward), which bounds in-flight micro-batches by
//!   the pipeline depth.
//!
//! The orders themselves are defined once, by [`ScheduleModel`]'s
//! constructors in `rannc-verify`: the simulator executes exactly the
//! orders `verify_schedule` proves deadlock-free and the deep verifier
//! certifies. The simulator is a deterministic discrete-event loop over
//! those per-stage orders: an op starts when its producer dependency is
//! met and its stage is free. After the last backward, replicated stages
//! all-reduce gradients and the optimizer steps.

use crate::spec::{PipelineSpec, SimResult};
use rannc_verify::{PhaseKind, ScheduleModel};

/// Per-stage work ordering of the synchronous schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncSchedule {
    /// GPipe-style: forward all micro-batches, then backward all.
    FillDrain,
    /// 1F1B: `pipeline_depth − stage` warmup forwards, then alternate.
    OneFOneB,
}

impl SyncSchedule {
    /// This schedule's per-stage issue orders for `stages` stages and
    /// `mb` micro-batches: what [`simulate_sync`] executes,
    /// `rannc_verify::verify_schedule` proves deadlock-free and
    /// `PartitionPlan::certify` certifies.
    pub fn model(self, stages: usize, mb: usize) -> ScheduleModel {
        match self {
            SyncSchedule::FillDrain => ScheduleModel::fill_drain(stages, mb),
            SyncSchedule::OneFOneB => ScheduleModel::one_f_one_b(stages, mb),
        }
    }
}

/// One executed work item (for tests and visualization).
#[derive(Debug, Clone, Copy)]
pub struct TimelineEvent {
    /// Stage index.
    pub stage: usize,
    /// Forward or backward.
    pub kind: PhaseKind,
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

/// Per-stage clocks of a schedule that ran to completion.
struct Executed {
    /// When each stage finished its last op, seconds.
    stage_free: Vec<f64>,
    /// Compute seconds each stage spent busy.
    busy: Vec<f64>,
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
    let model = schedule.model(spec.stages.len(), spec.microbatches);
    let mut timeline = want_timeline.then(Vec::new);
    let run = match execute(spec, &model, timeline.as_mut()) {
        Ok(run) => run,
        Err((s, item)) => panic!("schedule deadlocked at stage {s} item {item}"),
    };
    let compute_end = run.stage_free.iter().cloned().fold(0.0, f64::max);
    let iteration = spec.tail().after(compute_end);
    SyncSimOutput {
        result: SimResult::new(iteration, spec.batch_size, run.busy),
        timeline,
    }
}

/// Execute `model`'s per-stage issue orders on `spec`'s stage times.
///
/// Dependencies, for micro-batch `m` — the rules `verify_schedule`
/// builds its DAG from: program order within a stage; `F(s, m)` waits
/// for `F(s-1, m)` plus the activation transfer; `B(s, m)` waits for
/// `F(s, m)` and, below the last stage, for `B(s+1, m)` plus the
/// gradient transfer. Returns the first stuck op `(stage, item)` when
/// the orders deadlock.
fn execute(
    spec: &PipelineSpec,
    model: &ScheduleModel,
    mut timeline: Option<&mut Vec<TimelineEvent>>,
) -> Result<Executed, (usize, usize)> {
    let s_count = model.stages;
    let mb = model.microbatches;
    let seqs = &model.orders;

    let mut ptr = vec![0usize; s_count];
    let mut stage_free = vec![0.0f64; s_count];
    let mut fwd_end: Vec<Vec<Option<f64>>> = vec![vec![None; mb]; s_count];
    let mut bwd_end: Vec<Vec<Option<f64>>> = vec![vec![None; mb]; s_count];
    let mut busy = vec![0.0f64; s_count];

    loop {
        let mut progressed = false;
        for s in 0..s_count {
            while ptr[s] < seqs[s].len() {
                let (kind, m) = seqs[s][ptr[s]];
                // dependency ready time
                let ready = match kind {
                    PhaseKind::Forward => {
                        if s == 0 {
                            Some(0.0)
                        } else {
                            fwd_end[s - 1][m].map(|t| t + spec.comm_time(s - 1))
                        }
                    }
                    PhaseKind::Backward => {
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
                    PhaseKind::Forward => spec.stages[s].fwd_time,
                    PhaseKind::Backward => spec.stages[s].bwd_time,
                };
                let start = stage_free[s].max(ready);
                let end = start + dur;
                match kind {
                    PhaseKind::Forward => fwd_end[s][m] = Some(end),
                    PhaseKind::Backward => bwd_end[s][m] = Some(end),
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
    if let Some(s) = (0..s_count).find(|&s| ptr[s] < seqs[s].len()) {
        return Err((s, ptr[s]));
    }
    Ok(Executed { stage_free, busy })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PipelineSpec, StageSpec};
    use rannc_cost::{sync_iteration_time, IterationTail, StageGrads};
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
        // Equal comm-free stages tile the fill–drain schedule densely, for
        // any f and b: the last backward ends at (MB + S - 1) * (f + b),
        // and the iteration is the closed form the search scores with —
        // that pipeline plus the gradient all-reduce and optimizer tail.
        // (S, MB, f, b, stage replicas, R, grad bytes, nodes)
        let cases = [
            (4, 8, 0.01, 0.01, 1, 1, 0, 1),
            (4, 8, 0.01, 0.025, 1, 1, 0, 1),
            (3, 16, 0.004, 0.011, 1, 1, 0, 1),
            // replicated stages inside one node
            (3, 4, 0.02, 0.05, 2, 1, 64 << 20, 1),
            // whole-pipeline replicas
            (2, 8, 0.003, 0.007, 1, 2, 256 << 20, 2),
            (2, 4, 0.003, 0.007, 3, 4, 32 << 20, 4),
            // one pipeline wider than one node (12 devices on 8-GPU nodes)
            (4, 2, 0.003, 0.007, 3, 1, 32 << 20, 2),
        ];
        for (s_count, mb, f, b, replicas, r, grad_bytes, nodes) in cases {
            let mut s = spec(s_count, mb, f, b);
            s.replica_factor = r;
            s.cluster = ClusterSpec::v100_cluster(nodes);
            for st in &mut s.stages {
                st.replicas = replicas;
                st.grad_bytes = grad_bytes;
            }
            let got = simulate_sync(&s, SyncSchedule::FillDrain, false)
                .result
                .iteration_time;
            let grads = s.stages.iter().map(|st| StageGrads {
                grad_bytes: st.grad_bytes,
                replicas: st.replicas,
                tensor_parallel: st.tensor_parallel,
            });
            let tail = IterationTail::price(&s.cluster, s.cost, r, grads);
            assert_eq!(tail.allreduce > 0.0, replicas * r > 1);
            let expect = sync_iteration_time(s_count, mb, f + b, tail);
            assert!(
                ((got - expect) / expect).abs() <= 1e-12,
                "S={s_count} MB={mb} f={f} b={b} x{replicas} R={r}: \
                 got {got}, expected {expect}"
            );
        }
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
                    .find(|e| e.stage == st && e.micro == m && e.kind == PhaseKind::Forward)
                    .unwrap();
                let f1 = tl
                    .iter()
                    .find(|e| e.stage == st + 1 && e.micro == m && e.kind == PhaseKind::Forward)
                    .unwrap();
                assert!(f1.start >= f0.end - 1e-12);
            }
        }
        // backward of (m, s+1) precedes backward of (m, s)
        for m in 0..4 {
            for st in 0..2 {
                let b0 = tl
                    .iter()
                    .find(|e| e.stage == st && e.micro == m && e.kind == PhaseKind::Backward)
                    .unwrap();
                let b1 = tl
                    .iter()
                    .find(|e| e.stage == st + 1 && e.micro == m && e.kind == PhaseKind::Backward)
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
                let model = schedule.model(stages, mb);
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
    fn executor_finishes_exactly_when_the_verifier_proves_the_orders() {
        // the simulator's dependency rules and the verifier's DAG are the
        // same rules: permute each stage's issue order of a complete
        // model at random, and the executor runs to the end iff
        // verify_schedule reports no error
        let mut state = 0x5eed_u64;
        let mut next = move |n: usize| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let (mut finished, mut stuck) = (0, 0);
        for _ in 0..3000 {
            let (stages, mb) = (1 + next(4), 1 + next(4));
            let schedule = [SyncSchedule::FillDrain, SyncSchedule::OneFOneB][next(2)];
            let mut model = schedule.model(stages, mb);
            for order in &mut model.orders {
                if next(2) == 0 {
                    // full Fisher–Yates shuffle
                    for i in (1..order.len()).rev() {
                        order.swap(i, next(i + 1));
                    }
                } else if order.len() > 1 {
                    // a few adjacent swaps stay near a valid order
                    for _ in 0..next(3) {
                        let i = next(order.len() - 1);
                        order.swap(i, i + 1);
                    }
                }
            }
            let proved = !rannc_verify::verify_schedule(&model).has_errors();
            let ran = execute(&spec(stages, mb, 0.01, 0.02), &model, None).is_ok();
            assert_eq!(ran, proved, "{stages}x{mb} orders {:?}", model.orders);
            if ran {
                finished += 1;
            } else {
                stuck += 1;
            }
        }
        // both sides of the equivalence were exercised
        assert!(
            finished >= 100 && stuck >= 100,
            "{finished} ran, {stuck} stuck"
        );
    }

    #[test]
    fn planned_mlp_deep_verifies_under_both_schedules() {
        use rannc_core::{PartitionConfig, Rannc};
        use rannc_models::{mlp_graph, MlpConfig};
        use rannc_verify::CommProgram;

        let g = mlp_graph(&MlpConfig::deep(256, 256, 8, 10));
        let cluster = ClusterSpec::v100_cluster(1);
        let plan = Rannc::new(PartitionConfig::new(64).with_k(8))
            .partition(&g, &cluster)
            .unwrap();
        let assignment = plan.device_assignment(&cluster).unwrap();
        for schedule in [SyncSchedule::FillDrain, SyncSchedule::OneFOneB] {
            let model = schedule.model(plan.stages.len(), plan.microbatches);
            let program = CommProgram::derive(&g, &plan.view(), &model, &assignment);
            assert_eq!(program.programs.len(), plan.total_devices());
            let (report, certified) = plan
                .certify(&g, &cluster, &model, rannc_hw::Precision::FP32)
                .unwrap();
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
