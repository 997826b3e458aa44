//! Static schedule analysis: deadlock-freedom of a pipeline schedule.
//!
//! A synchronous pipeline schedule fixes, per stage, the order in which
//! forward and backward passes of each micro-batch run. Whether that
//! order can actually execute is a static property: build the dependency
//! DAG over (stage, phase, micro-batch) operations and check it is
//! acyclic and complete. An acyclic DAG *is* the deadlock-freedom proof —
//! every op has an executable linearisation; a cycle names the ops that
//! wait on each other forever.

use crate::diag::{Code, Diagnostic, Location, Report};

/// Forward or backward half of a micro-batch's pass through a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Activation-producing pass.
    Forward,
    /// Gradient-producing pass.
    Backward,
}

/// A pipeline schedule flattened to per-stage execution orders.
///
/// `orders[s]` lists the ops stage `s` runs, in issue order. Built by
/// [`ScheduleModel::fill_drain`] or [`ScheduleModel::one_f_one_b`] — the
/// only definitions of a synchronous schedule: `rannc-pipeline`'s
/// simulator executes these orders — or by hand in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleModel {
    /// Pipeline depth.
    pub stages: usize,
    /// Micro-batches per iteration.
    pub microbatches: usize,
    /// Per-stage issue order of (phase, micro-batch) ops.
    pub orders: Vec<Vec<(PhaseKind, usize)>>,
}

impl ScheduleModel {
    /// Canonical GPipe fill–drain order: all forwards in arrival order,
    /// then all backwards in reverse. What `rannc-pipeline` simulates
    /// for `SyncSchedule::FillDrain`.
    pub fn fill_drain(stages: usize, microbatches: usize) -> ScheduleModel {
        let orders = (0..stages)
            .map(|_| {
                (0..microbatches)
                    .map(|m| (PhaseKind::Forward, m))
                    .chain((0..microbatches).rev().map(|m| (PhaseKind::Backward, m)))
                    .collect()
            })
            .collect();
        ScheduleModel {
            stages,
            microbatches,
            orders,
        }
    }

    /// Canonical 1F1B order: `stages − 1 − s` warmup forwards, then
    /// alternate. What `rannc-pipeline` simulates for
    /// `SyncSchedule::OneFOneB`.
    pub fn one_f_one_b(stages: usize, microbatches: usize) -> ScheduleModel {
        let orders = (0..stages)
            .map(|s| {
                let warmup = stages.saturating_sub(1 + s).min(microbatches);
                let mut seq: Vec<(PhaseKind, usize)> =
                    (0..warmup).map(|m| (PhaseKind::Forward, m)).collect();
                let (mut f, mut b) = (warmup, 0);
                while b < microbatches {
                    if f < microbatches {
                        seq.push((PhaseKind::Forward, f));
                        f += 1;
                    }
                    seq.push((PhaseKind::Backward, b));
                    b += 1;
                }
                seq.dedup();
                seq
            })
            .collect();
        ScheduleModel {
            stages,
            microbatches,
            orders,
        }
    }

    /// Activation stash depth of one stage under this schedule: the
    /// maximum number of micro-batches whose forward has been issued but
    /// whose backward has not, scanning the stage's actual issue order.
    /// `MB` for fill–drain; bounded by the remaining pipeline depth for
    /// 1F1B. At least 1 (the active micro-batch).
    pub fn stash_depth(&self, stage: usize) -> usize {
        let Some(order) = self.orders.get(stage) else {
            return self.microbatches.max(1);
        };
        let mut depth = 0isize;
        let mut peak = 0isize;
        for &(phase, _) in order {
            match phase {
                PhaseKind::Forward => depth += 1,
                PhaseKind::Backward => depth -= 1,
            }
            peak = peak.max(depth);
        }
        (peak.max(1)) as usize
    }
}

/// Statically verify a schedule: completeness (RV050), intra-stage
/// forward-before-backward (RV052), and deadlock-freedom of the full
/// dependency DAG (RV051).
///
/// Dependencies, for micro-batch `m`:
/// - program order: consecutive ops in one stage's issue order;
/// - data flow: `F(s-1, m) -> F(s, m)` (activations travel down) and
///   `B(s+1, m) -> B(s, m)` (gradients travel up);
/// - autograd: `F(s, m) -> B(s, m)` on every stage.
pub fn verify_schedule(model: &ScheduleModel) -> Report {
    let mut r = Report::new();
    if model.stages == 0 || model.microbatches == 0 {
        r.push(Diagnostic::new(
            Code::ScheduleIncomplete,
            Location::Model,
            format!(
                "degenerate schedule: {} stage(s), {} micro-batch(es)",
                model.stages, model.microbatches
            ),
        ));
        return r;
    }
    if model.orders.len() != model.stages {
        r.push(Diagnostic::new(
            Code::ScheduleIncomplete,
            Location::Model,
            format!(
                "{} per-stage orders for {} stages",
                model.orders.len(),
                model.stages
            ),
        ));
        return r;
    }
    let complete = check_completeness(model, &mut r);
    check_intra_stage_order(model, &mut r);
    if complete && !r.has_errors() {
        check_deadlock_freedom(model, &mut r);
    }
    r
}

/// RV050: each stage must issue exactly one forward and one backward per
/// micro-batch, and nothing out of range. Returns true when the DAG
/// check downstream is meaningful.
fn check_completeness(model: &ScheduleModel, r: &mut Report) -> bool {
    let mut ok = true;
    for (s, order) in model.orders.iter().enumerate() {
        // counts[phase][m]
        let mut counts = [
            vec![0usize; model.microbatches],
            vec![0usize; model.microbatches],
        ];
        for &(phase, m) in order {
            if m >= model.microbatches {
                r.push(Diagnostic::new(
                    Code::ScheduleIncomplete,
                    Location::ScheduleOp { stage: s, micro: m },
                    format!(
                        "op references micro-batch {m} but the iteration has only {}",
                        model.microbatches
                    ),
                ));
                ok = false;
                continue;
            }
            counts[(phase == PhaseKind::Backward) as usize][m] += 1;
        }
        for (p, name) in [(0usize, "forward"), (1, "backward")] {
            for (m, &c) in counts[p].iter().enumerate() {
                if c != 1 {
                    r.push(Diagnostic::new(
                        Code::ScheduleIncomplete,
                        Location::ScheduleOp { stage: s, micro: m },
                        format!("stage issues {c} {name} pass(es) for micro-batch {m}, want 1"),
                    ));
                    ok = false;
                }
            }
        }
    }
    ok
}

/// RV052: within a stage's issue order, a micro-batch's backward cannot
/// precede its forward — the gradient needs the activations.
fn check_intra_stage_order(model: &ScheduleModel, r: &mut Report) {
    for (s, order) in model.orders.iter().enumerate() {
        let mut fwd_seen = vec![false; model.microbatches];
        for &(phase, m) in order {
            if m >= model.microbatches {
                continue; // RV050 already reported
            }
            match phase {
                PhaseKind::Forward => fwd_seen[m] = true,
                PhaseKind::Backward if !fwd_seen[m] => {
                    r.push(Diagnostic::new(
                        Code::BackwardBeforeForward,
                        Location::ScheduleOp { stage: s, micro: m },
                        format!("backward of micro-batch {m} issued before its forward"),
                    ));
                }
                PhaseKind::Backward => {}
            }
        }
    }
}

/// RV051: Kahn's algorithm over the op DAG. If the topological order is
/// shorter than the node count, the remainder is a wait cycle — report
/// one op stuck in it as the witness.
fn check_deadlock_freedom(model: &ScheduleModel, r: &mut Report) {
    let (s_n, mb) = (model.stages, model.microbatches);
    let node = |stage: usize, phase: PhaseKind, m: usize| -> usize {
        stage * 2 * mb + (phase == PhaseKind::Backward) as usize * mb + m
    };
    let n = s_n * 2 * mb;
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    let mut edge = |from: usize, to: usize| {
        succs[from].push(to);
        indeg[to] += 1;
    };
    for (s, order) in model.orders.iter().enumerate() {
        // program order within the stage
        for pair in order.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            edge(node(s, a.0, a.1), node(s, b.0, b.1));
        }
        for m in 0..mb {
            // autograd: forward before backward on the same stage
            edge(
                node(s, PhaseKind::Forward, m),
                node(s, PhaseKind::Backward, m),
            );
            // data flow between adjacent stages
            if s + 1 < s_n {
                edge(
                    node(s, PhaseKind::Forward, m),
                    node(s + 1, PhaseKind::Forward, m),
                );
                edge(
                    node(s + 1, PhaseKind::Backward, m),
                    node(s, PhaseKind::Backward, m),
                );
            }
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut done = 0usize;
    while let Some(v) = ready.pop() {
        done += 1;
        for &w in &succs[v] {
            indeg[w] -= 1;
            if indeg[w] == 0 {
                ready.push(w);
            }
        }
    }
    if done != n {
        // name one op trapped in the cycle
        let stuck = (0..n).find(|&v| indeg[v] > 0).unwrap_or(0);
        let (stage, rest) = (stuck / (2 * mb), stuck % (2 * mb));
        let (phase, m) = (if rest < mb { "forward" } else { "backward" }, rest % mb);
        r.push(Diagnostic::new(
            Code::ScheduleDeadlock,
            Location::ScheduleOp { stage, micro: m },
            format!(
                "{} op(s) can never run; e.g. {phase} of micro-batch {m} on stage {stage} \
                 waits on a dependency cycle",
                n - done
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use PhaseKind::{Backward as B, Forward as F};

    /// GPipe fill–drain: all forwards in order, then all backwards in
    /// reverse.
    fn fill_drain(stages: usize, mb: usize) -> ScheduleModel {
        let orders = (0..stages)
            .map(|_| {
                (0..mb)
                    .map(|m| (F, m))
                    .chain((0..mb).rev().map(|m| (B, m)))
                    .collect()
            })
            .collect();
        ScheduleModel {
            stages,
            microbatches: mb,
            orders,
        }
    }

    #[test]
    fn fill_drain_is_deadlock_free() {
        let r = verify_schedule(&fill_drain(4, 6));
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn one_f_one_b_is_deadlock_free() {
        // 1F1B: warmup (stages - 1 - s) forwards, then alternate.
        let (stages, mb) = (3usize, 5usize);
        let orders: Vec<Vec<(PhaseKind, usize)>> = (0..stages)
            .map(|s| {
                let warmup = (stages - 1 - s).min(mb);
                let mut seq: Vec<(PhaseKind, usize)> = (0..warmup).map(|m| (F, m)).collect();
                let (mut f, mut b) = (warmup, 0);
                while b < mb {
                    if f < mb {
                        seq.push((F, f));
                        f += 1;
                    }
                    seq.push((B, b));
                    b += 1;
                }
                seq
            })
            .collect();
        let r = verify_schedule(&ScheduleModel {
            stages,
            microbatches: mb,
            orders,
        });
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn missing_op_is_incomplete() {
        let mut m = fill_drain(2, 3);
        m.orders[1].pop();
        let r = verify_schedule(&m);
        assert!(r.has_code(Code::ScheduleIncomplete), "{}", r.render());
    }

    #[test]
    fn backward_before_forward_flagged() {
        let mut m = fill_drain(2, 2);
        m.orders[0] = vec![(B, 0), (F, 0), (F, 1), (B, 1)];
        let r = verify_schedule(&m);
        assert!(r.has_code(Code::BackwardBeforeForward), "{}", r.render());
    }

    #[test]
    fn cross_stage_wait_cycle_is_deadlock() {
        // Each stage is internally consistent (F(m) before B(m)), but
        // stage 0 wants B(0) before F(1) while stage 1 wants F(1) before
        // B(0): S0.B0 -> S0.F1 -> S1.F1 -> S1.B0 -> S0.B0 is a wait
        // cycle — the warmup mismatch that makes mis-phased 1F1B hang.
        let m = ScheduleModel {
            stages: 2,
            microbatches: 2,
            orders: vec![
                vec![(F, 0), (B, 0), (F, 1), (B, 1)],
                vec![(F, 0), (F, 1), (B, 0), (B, 1)],
            ],
        };
        let r = verify_schedule(&m);
        assert!(r.has_code(Code::ScheduleDeadlock), "{}", r.render());
    }

    #[test]
    fn out_of_range_micro_batch_flagged() {
        let mut m = fill_drain(1, 2);
        m.orders[0].push((F, 9));
        let r = verify_schedule(&m);
        assert!(r.has_code(Code::ScheduleIncomplete), "{}", r.render());
    }

    #[test]
    fn canonical_constructors_verify_clean() {
        for (stages, mb) in [(1, 1), (2, 2), (3, 5), (4, 8), (6, 6)] {
            for m in [
                ScheduleModel::fill_drain(stages, mb),
                ScheduleModel::one_f_one_b(stages, mb),
            ] {
                let r = verify_schedule(&m);
                assert!(r.is_clean(), "{stages}x{mb}:\n{}", r.render());
            }
        }
    }

    #[test]
    fn stash_depth_follows_the_issue_order() {
        let fd = ScheduleModel::fill_drain(4, 8);
        for s in 0..4 {
            assert_eq!(fd.stash_depth(s), 8);
        }
        let ofob = ScheduleModel::one_f_one_b(4, 8);
        for s in 0..4 {
            // 1F1B bounds in-flight micro-batches by the remaining depth
            assert_eq!(ofob.stash_depth(s), (4 - s).min(8), "stage {s}");
        }
        // out-of-range stage falls back to the worst case
        assert_eq!(fd.stash_depth(99), 8);
    }

    #[test]
    fn degenerate_schedule_flagged() {
        let m = ScheduleModel {
            stages: 0,
            microbatches: 4,
            orders: Vec::new(),
        };
        assert!(verify_schedule(&m).has_code(Code::ScheduleIncomplete));
    }
}
