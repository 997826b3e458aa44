//! Campaigns: long training runs under cluster change, scored on goodput
//! and MTTR.
//!
//! A seeded [`ClusterEventTrace`] of `leave` / `recover` / `degrade` /
//! `join` events plays against a running plan, and a **policy** decides,
//! event by event, whether to pay for a replan now, ride the change out,
//! or permanently degrade in place. The campaign scores each policy on
//! goodput (useful samples per wall second) and MTTR, and emits a
//! deterministic decision log — the same trace and policy always
//! produce the same decisions, so campaigns reproduce from the seed.
//!
//! A scripted [`FaultPlan`](rannc_faults::FaultPlan) plays through the
//! same engine: [`FaultPlan::to_churn`](rannc_faults::FaultPlan::to_churn)
//! turns its latency faults into a slower starting cluster and its device
//! failures into `leave` events, and [`ChurnSimConfig::checkpoint_every`]
//! charges each recovered loss the iterations lost since the last
//! checkpoint.
//!
//! Pricing is placement-aware: every stage's simulated time is
//! stretched by the worst
//! [`time_scale`](rannc_hw::DeviceSpec::time_scale_vs) of the devices
//! its contiguous slot group occupies
//! ([`ClusterSpec::slot_devices`], the convention the placed DP and the
//! plan verifier use). On a cluster with no overrides every scale is
//! exactly `1.0` and no stage stretches.

use crate::sync::{simulate_sync, SyncSchedule};
use crate::{spec_from_plan, PlanSpecError};
use rannc_core::{PartitionPlan, Rannc};
use rannc_cost::CostModel;
use rannc_faults::{ClusterEvent, ClusterEventTrace};
use rannc_hw::ClusterSpec;

/// How the campaign reacts to each cluster event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnPolicy {
    /// Replan on every capacity-changing event (losses *and* gains).
    ReplanAlways,
    /// Never replan; absorb changes expecting them to be transient —
    /// sheds a pipeline replica when a loss forces it, and restores the
    /// shed replica as soon as recoveries make room again.
    RideItOut,
    /// Never replan; accept every loss permanently — shed replicas stay
    /// shed, recovered devices only rejoin the spare pool.
    DegradeInPlace,
    /// Per event, price both options over [`ChurnSimConfig::horizon`]
    /// iterations — ride cost vs. replan downtime + better steady state
    /// — and take the cheaper one.
    Adaptive,
}

/// What the policy did about one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnAction {
    /// A new plan was adopted (replan ladder succeeded).
    Replan,
    /// The current plan was kept unchanged.
    Ride,
    /// The current plan was kept but one pipeline replica was shed.
    Shed,
    /// A previously shed replica was restored.
    Restore,
    /// The campaign could not continue.
    Halt,
}

impl ChurnAction {
    /// Lowercase tag for logs and traces.
    pub fn tag(&self) -> &'static str {
        match self {
            ChurnAction::Replan => "replan",
            ChurnAction::Ride => "ride",
            ChurnAction::Shed => "shed",
            ChurnAction::Restore => "restore",
            ChurnAction::Halt => "halt",
        }
    }
}

/// Knobs of a churn campaign.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSimConfig {
    /// Iterations the campaign must complete.
    pub iterations: usize,
    /// Wall time from a device leaving to the loss being detected, s.
    pub detect_timeout: f64,
    /// Wall time to restore training state onto the survivors, s.
    pub restore_cost: f64,
    /// Fixed wall time one replan (search + redeploy control plane)
    /// costs, on top of the priced state migration.
    pub replan_cost: f64,
    /// Extra replan-ladder rungs after the warm start (see
    /// [`Rannc::replan_with_backoff`]).
    pub replan_retries: usize,
    /// The policy under test.
    pub policy: ChurnPolicy,
    /// Iterations [`ChurnPolicy::Adaptive`] amortizes a replan over.
    pub horizon: usize,
    /// A checkpoint is taken every this many iterations (iteration 0 is
    /// always checkpointed). A recovered `leave` then re-executes the
    /// iterations since the last checkpoint at the post-decision speed.
    /// `None` (the default) treats training state as never lost.
    pub checkpoint_every: Option<usize>,
}

impl Default for ChurnSimConfig {
    fn default() -> Self {
        ChurnSimConfig {
            iterations: 10_000,
            detect_timeout: 5.0,
            restore_cost: 2.0,
            replan_cost: 15.0,
            replan_retries: 2,
            policy: ChurnPolicy::Adaptive,
            horizon: 2_000,
            checkpoint_every: None,
        }
    }
}

/// One entry of the campaign's decision log.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnDecision {
    /// Iteration the event struck.
    pub at_iter: usize,
    /// Event kind tag (`leave` / `recover` / `degrade` / `join`).
    pub event: &'static str,
    /// What the policy did.
    pub action: ChurnAction,
    /// Wall-clock seconds of training stopped by the decision, rework
    /// of [`lost_iters`](Self::lost_iters) included.
    pub downtime: f64,
    /// Per-iteration wall time after the decision, s.
    pub iteration_time: f64,
    /// Replan-ladder attempts consumed (0 when no replan ran).
    pub replan_attempts: usize,
    /// State bytes migrated to adopt a new plan (0 when no replan).
    pub moved_bytes: usize,
    /// Iterations since the last checkpoint that a recovered loss
    /// re-executed (0 without [`ChurnSimConfig::checkpoint_every`]).
    pub lost_iters: usize,
}

/// What a churn campaign reports.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Total wall time, s.
    pub wall_time: f64,
    /// Iterations completed (== the target unless halted).
    pub completed_iterations: usize,
    /// Useful samples per wall second.
    pub goodput: f64,
    /// The full decision log, one entry per consumed event.
    pub decisions: Vec<ChurnDecision>,
    /// Plans adopted during the campaign (each passed verification).
    pub replans: usize,
    /// True when the campaign stopped early.
    pub halted: bool,
}

impl ChurnReport {
    /// Mean time to recovery over decisions that stopped training.
    pub fn mttr(&self) -> f64 {
        let stops: Vec<f64> = self
            .decisions
            .iter()
            .filter(|d| d.downtime > 0.0 && d.downtime.is_finite())
            .map(|d| d.downtime)
            .collect();
        if stops.is_empty() {
            0.0
        } else {
            stops.iter().sum::<f64>() / stops.len() as f64
        }
    }

    /// Iterations re-executed after losses, over the whole campaign.
    pub fn lost_iters(&self) -> usize {
        self.decisions.iter().map(|d| d.lost_iters).sum()
    }
}

/// Price one iteration of `plan` on (a planning view of) `cluster`,
/// stretching each stage by the worst time scale of its device group.
fn priced_iteration_time(
    plan: &PartitionPlan,
    cost: &dyn CostModel,
    view: &ClusterSpec,
) -> Result<f64, PlanSpecError> {
    let mut spec = spec_from_plan(plan, cost, view)?;
    let precision = cost.options().precision;
    let per_replica = plan.devices_per_replica();
    let mut off = 0usize;
    for (i, st) in plan.stages.iter().enumerate() {
        let width = st.replicas * st.tensor_parallel.max(1);
        let worst = view
            .slot_devices(off..off + width, per_replica, plan.replica_factor)
            .map(|(_, d)| d.time_scale_vs(&view.device, precision))
            .fold(1.0f64, f64::max);
        if worst > 1.0 {
            spec.stages[i].fwd_time *= worst;
            spec.stages[i].bwd_time *= worst;
        }
        off += width;
    }
    Ok(simulate_sync(&spec, SyncSchedule::FillDrain, false)
        .result
        .iteration_time)
}

/// A plan a policy can adopt for one event, priced: its iteration time,
/// the action it records, and what adopting it costs beyond detection
/// and restore.
struct Choice {
    plan: PartitionPlan,
    iteration_time: f64,
    action: ChurnAction,
    downtime: f64,
    replan_attempts: usize,
    moved_bytes: usize,
}

/// The ride option: keep `plan` on the evolved cluster, shedding
/// pipeline replicas while it does not fit — or `None` when even one
/// replica no longer fits.
///
/// `planned_replicas` is the replica count the plan's micro-batches were
/// sized for: running the same global batch on fewer replicas stretches
/// the re-priced iteration by `planned / current`.
fn ride_option(
    plan: &PartitionPlan,
    planned_replicas: usize,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
) -> Option<Choice> {
    let mut plan = plan.clone();
    let mut action = ChurnAction::Ride;
    while cluster.healthy_devices() < plan.total_devices() {
        if plan.replica_factor <= 1 {
            return None;
        }
        plan.replica_factor -= 1;
        action = ChurnAction::Shed;
    }
    let view = cluster.planning_view();
    let mut it = priced_iteration_time(&plan, cost, &view).ok()?;
    if plan.replica_factor < planned_replicas {
        it *= planned_replicas as f64 / plan.replica_factor as f64;
    }
    Some(Choice {
        plan,
        iteration_time: it,
        action,
        downtime: 0.0,
        replan_attempts: 0,
        moved_bytes: 0,
    })
}

/// The replan option: run the backoff ladder on the evolved cluster.
/// Adopting the verified plan costs the fixed replan time plus the
/// migration's steps at the new plan's speed.
fn replan_option(
    rannc: &Rannc,
    plan: &PartitionPlan,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
    cfg: &ChurnSimConfig,
) -> Option<Choice> {
    let out = rannc
        .replan_with_backoff(cost.graph(), plan, cluster, cfg.replan_retries)
        .ok()?;
    let view = cluster.planning_view();
    let it = priced_iteration_time(&out.plan, cost, &view).ok()?;
    Some(Choice {
        downtime: cfg.replan_cost + out.migration.downtime_steps as f64 * it,
        plan: out.plan,
        iteration_time: it,
        action: ChurnAction::Replan,
        replan_attempts: out.attempts,
        moved_bytes: out.migration.total_bytes(),
    })
}

/// Run a churn campaign: `cfg.iterations` iterations of `plan` on
/// `cluster` while the event trace plays out under `cfg.policy`.
///
/// Deterministic: the same `(plan, cluster, trace, cfg)` always yields
/// the same report and decision log. Every adopted plan went through
/// [`Rannc::replan_with_backoff`] and therefore through the verifier at
/// the partitioner's configured [`VerifyMode`](rannc_core::VerifyMode).
pub fn simulate_churn(
    rannc: &Rannc,
    plan: &PartitionPlan,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
    trace: &ClusterEventTrace,
    cfg: &ChurnSimConfig,
) -> Result<ChurnReport, PlanSpecError> {
    assert!(
        cfg.checkpoint_every != Some(0),
        "checkpoint_every must be > 0"
    );
    let _root = rannc_obs::trace::span("churn.campaign", "churn")
        .arg_i("events", trace.events().len() as i64)
        .arg_i("iterations", cfg.iterations as i64);
    let mut cluster = cluster.clone();
    let mut plan = plan.clone();
    // the replica count the plan's micro-batches were sized for: ride
    // policies stretch shed configurations against it, and RideItOut
    // restores toward it
    let mut planned_replicas = plan.replica_factor;
    let mut iter_time = priced_iteration_time(&plan, cost, &cluster.planning_view())?;

    let mut wall = 0.0f64;
    let mut done = 0usize;
    let mut decisions = Vec::new();
    let mut replans = 0usize;
    let mut halted = false;

    for te in trace.events() {
        let at = te.at_iter.min(cfg.iterations);
        wall += (at - done) as f64 * iter_time;
        done = at;
        if done >= cfg.iterations {
            break;
        }
        let kind = te.event.kind();
        let _span = rannc_obs::trace::span("churn.decision", "churn")
            .arg_i("at_iter", at as i64)
            .arg_i("event", decisions.len() as i64);
        rannc_obs::metrics::counter("churn.events").inc();
        let halt = |downtime: f64, replan_attempts: usize| ChurnDecision {
            at_iter: at,
            event: kind,
            action: ChurnAction::Halt,
            downtime,
            iteration_time: f64::INFINITY,
            replan_attempts,
            moved_bytes: 0,
            lost_iters: 0,
        };

        cluster = match te.event.apply(&cluster) {
            Ok(c) => c,
            Err(_) => {
                // e.g. the last healthy device left: nothing to run on
                decisions.push(halt(cfg.detect_timeout, 0));
                wall += cfg.detect_timeout;
                halted = true;
                break;
            }
        };

        // a loss stops training until detected and restored; capacity
        // gains and throttles are observed without stopping the run
        let is_loss = matches!(te.event, ClusterEvent::Leave { .. });
        let base_downtime = if is_loss {
            cfg.detect_timeout + cfg.restore_cost
        } else {
            0.0
        };

        // the policy's pick, and the ladder attempts a halt records
        let (choice, halt_attempts) = match cfg.policy {
            ChurnPolicy::ReplanAlways => {
                // when the ladder fails, degrade in place rather than
                // die; either way every rung was tried
                let failed = cfg.replan_retries + 1;
                let choice = replan_option(rannc, &plan, cost, &cluster, cfg).or_else(|| {
                    ride_option(&plan, planned_replicas, cost, &cluster).map(|c| Choice {
                        replan_attempts: failed,
                        ..c
                    })
                });
                (choice, failed)
            }
            ChurnPolicy::RideItOut | ChurnPolicy::DegradeInPlace => {
                let mut candidate = plan.clone();
                // RideItOut grows back toward the planned replica count
                // as soon as recovered capacity allows; DegradeInPlace
                // keeps sheds permanent
                let ride_it_out = cfg.policy == ChurnPolicy::RideItOut;
                if ride_it_out {
                    candidate.replica_factor = planned_replicas;
                }
                let choice =
                    ride_option(&candidate, planned_replicas, cost, &cluster).map(|mut c| {
                        if ride_it_out && c.plan.replica_factor > plan.replica_factor {
                            c.action = ChurnAction::Restore;
                        }
                        c
                    });
                (choice, 0)
            }
            ChurnPolicy::Adaptive => {
                // both options are priced on every event; the cheaper
                // over the horizon wins
                let horizon = cfg.horizon.max(1) as f64;
                let ride = ride_option(&plan, planned_replicas, cost, &cluster);
                let replan = replan_option(rannc, &plan, cost, &cluster, cfg);
                let total = |c: &Option<Choice>| {
                    c.as_ref()
                        .map_or(f64::INFINITY, |c| c.downtime + horizon * c.iteration_time)
                };
                let choice = if total(&replan) < total(&ride) {
                    replan
                } else {
                    ride
                };
                (choice, 0)
            }
        };

        let decision = match choice {
            Some(c) => {
                if c.action == ChurnAction::Replan {
                    planned_replicas = c.plan.replica_factor;
                    replans += 1;
                    rannc_obs::metrics::counter("churn.replans").inc();
                }
                plan = c.plan;
                iter_time = c.iteration_time;
                // a recovered loss re-executes the iterations since the
                // last checkpoint at the new speed: wall time, not progress
                let lost_iters = match cfg.checkpoint_every {
                    Some(every) if is_loss => at % every,
                    _ => 0,
                };
                ChurnDecision {
                    at_iter: at,
                    event: kind,
                    action: c.action,
                    downtime: base_downtime + c.downtime + lost_iters as f64 * iter_time,
                    iteration_time: iter_time,
                    replan_attempts: c.replan_attempts,
                    moved_bytes: c.moved_bytes,
                    lost_iters,
                }
            }
            None => halt(base_downtime, halt_attempts),
        };

        wall += decision.downtime;
        let is_halt = decision.action == ChurnAction::Halt;
        decisions.push(decision);
        if is_halt {
            halted = true;
            break;
        }
    }

    if !halted {
        wall += (cfg.iterations - done) as f64 * iter_time;
        done = cfg.iterations;
    }
    let goodput = if wall > 0.0 {
        done as f64 * plan.batch_size as f64 / wall
    } else {
        0.0
    };
    let report = ChurnReport {
        wall_time: wall,
        completed_iterations: done,
        goodput,
        decisions,
        replans,
        halted,
    };
    publish_churn_metrics(&report);
    Ok(report)
}

/// Export a churn report to the metrics registry.
fn publish_churn_metrics(report: &ChurnReport) {
    use rannc_obs::metrics;
    metrics::counter("churn.decisions").add(report.decisions.len() as u64);
    let downtime = metrics::histogram("churn.downtime_seconds");
    for d in &report.decisions {
        if d.downtime > 0.0 && d.downtime.is_finite() {
            downtime.observe(d.downtime);
        }
    }
    metrics::gauge("churn.goodput").set(report.goodput);
    metrics::gauge("churn.mttr_seconds").set(report.mttr());
    metrics::gauge("churn.halted").set(if report.halted { 1.0 } else { 0.0 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc_core::PartitionConfig;
    use rannc_faults::{FaultEvent, FaultPlan};
    use rannc_hw::{DeviceRank, DeviceSpec};
    use rannc_models::{mlp_graph, MlpConfig};
    use rannc_profile::{Profiler, ProfilerOptions};

    /// A campaign of the plan for a healthy `nodes`-node cluster, played
    /// from `start`.
    fn run_from(
        nodes: usize,
        start: &ClusterSpec,
        trace: &ClusterEventTrace,
        cfg: ChurnSimConfig,
    ) -> ChurnReport {
        let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
        let rannc = Rannc::new(PartitionConfig::new(32).with_k(8));
        let plan = rannc
            .partition(&g, &ClusterSpec::v100_cluster(nodes))
            .unwrap();
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        simulate_churn(&rannc, &plan, &profiler, start, trace, &cfg).unwrap()
    }

    fn config(policy: ChurnPolicy) -> ChurnSimConfig {
        ChurnSimConfig {
            iterations: 100_000,
            policy,
            horizon: 20_000,
            ..ChurnSimConfig::default()
        }
    }

    fn run(policy: ChurnPolicy, trace: &ClusterEventTrace) -> ChurnReport {
        let cluster = ClusterSpec::v100_cluster(2);
        run_from(2, &cluster, trace, config(policy))
    }

    /// A fault plan as a campaign: its starting cluster and loss trace on
    /// `nodes` nodes, checkpointed every 1000 iterations.
    fn run_faults(policy: ChurnPolicy, faults: &FaultPlan, nodes: usize) -> ChurnReport {
        let (start, trace) = faults.to_churn(&ClusterSpec::v100_cluster(nodes)).unwrap();
        let cfg = ChurnSimConfig {
            checkpoint_every: Some(1000),
            ..config(policy)
        };
        run_from(nodes, &start, &trace, cfg)
    }

    fn one_failure() -> FaultPlan {
        FaultPlan::new(7).with_event(FaultEvent::DeviceFail {
            rank: 0,
            at_iter: 50_000,
        })
    }

    fn rank(node: usize, local: usize) -> DeviceRank {
        DeviceRank { node, local }
    }

    #[test]
    fn quiet_trace_is_a_clean_campaign() {
        let r = run(ChurnPolicy::Adaptive, &ClusterEventTrace::new(1));
        assert!(r.decisions.is_empty());
        assert!(!r.halted);
        assert_eq!(r.completed_iterations, 100_000);
        assert_eq!(r.mttr(), 0.0);
    }

    #[test]
    fn fault_free_campaign_has_no_recoveries() {
        let r = run_faults(ChurnPolicy::ReplanAlways, &FaultPlan::new(1), 2);
        assert!(r.decisions.is_empty());
        assert!(!r.halted);
        assert_eq!(r.completed_iterations, 100_000);
        assert_eq!(r.mttr(), 0.0);
        assert!(r.goodput > 0.0);
    }

    #[test]
    fn campaigns_are_deterministic() {
        let cluster = ClusterSpec::v100_cluster(2);
        let trace = ClusterEventTrace::generate(11, 12, &cluster, 5000);
        let a = run(ChurnPolicy::Adaptive, &trace);
        let b = run(ChurnPolicy::Adaptive, &trace);
        assert_eq!(a.wall_time.to_bits(), b.wall_time.to_bits());
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.replans, b.replans);
    }

    #[test]
    fn simulation_is_seed_deterministic() {
        let a = run_faults(ChurnPolicy::ReplanAlways, &one_failure(), 2);
        let b = run_faults(ChurnPolicy::ReplanAlways, &one_failure(), 2);
        assert_eq!(a.wall_time.to_bits(), b.wall_time.to_bits());
        assert_eq!(a.goodput.to_bits(), b.goodput.to_bits());
        assert_eq!(a.mttr().to_bits(), b.mttr().to_bits());
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.replans, b.replans);
    }

    #[test]
    fn replan_beats_degrade_in_place_under_sustained_loss() {
        // one device lost early in a long campaign: degrade-in-place
        // sheds a whole pipeline replica (idling the rest of its node
        // group), replanning re-spreads the model over the 15 survivors
        let trace =
            ClusterEventTrace::new(0).with_event(1000, ClusterEvent::Leave { rank: rank(1, 0) });
        let degrade = run(ChurnPolicy::DegradeInPlace, &trace);
        let replan = run(ChurnPolicy::ReplanAlways, &trace);
        assert!(!degrade.halted && !replan.halted);
        assert!(
            replan.goodput > degrade.goodput,
            "replan {} must beat degrade-in-place {}",
            replan.goodput,
            degrade.goodput
        );
        assert!(replan.replans >= 1);
        assert!(replan.decisions.iter().any(|d| d.moved_bytes > 0));
    }

    #[test]
    fn replan_beats_degrade_on_device_loss() {
        // the same loss halfway through, from a fault plan
        let degrade = run_faults(ChurnPolicy::DegradeInPlace, &one_failure(), 2);
        let replan = run_faults(ChurnPolicy::ReplanAlways, &one_failure(), 2);
        assert!(!degrade.halted && !replan.halted);
        assert_eq!(degrade.decisions.len(), 1);
        assert_eq!(replan.decisions.len(), 1);
        assert_eq!(replan.decisions[0].action, ChurnAction::Replan);
        assert!(
            replan.goodput > degrade.goodput,
            "replan {} should beat degrade {}",
            replan.goodput,
            degrade.goodput
        );
        assert_eq!(replan.replans, 1);
        assert!(replan.decisions[0].moved_bytes > 0);
    }

    #[test]
    fn recovery_accounts_detection_restore_and_rework() {
        let clean = run_faults(ChurnPolicy::ReplanAlways, &FaultPlan::new(1), 2);
        let faulted = run_faults(ChurnPolicy::ReplanAlways, &one_failure(), 2);
        let d = &faulted.decisions[0];
        assert_eq!(d.at_iter, 50_000);
        assert_eq!(d.lost_iters, 0, "failure lands on a checkpoint");
        // downtime at least detection + restore + replan
        assert!(d.downtime >= 5.0 + 2.0 + 15.0 - 1e-9);
        assert!(faulted.wall_time > clean.wall_time);
        assert!(faulted.goodput < clean.goodput);
        assert!(faulted.mttr() >= d.downtime - 1e-9);
    }

    #[test]
    fn lost_work_since_checkpoint_is_paid() {
        let mid = FaultPlan::new(7).with_event(FaultEvent::DeviceFail {
            rank: 0,
            at_iter: 50_700,
        });
        let r = run_faults(ChurnPolicy::ReplanAlways, &mid, 2);
        let d = &r.decisions[0];
        assert_eq!(d.lost_iters, 700);
        assert_eq!(r.lost_iters(), 700);
        let on_ckpt = run_faults(ChurnPolicy::ReplanAlways, &one_failure(), 2);
        assert!(r.mttr() > on_ckpt.mttr());
        // without checkpointing the same loss re-executes nothing; with
        // it, the rework is exactly 700 iterations at the new speed
        let (start, trace) = mid.to_churn(&ClusterSpec::v100_cluster(2)).unwrap();
        let free = run_from(2, &start, &trace, config(ChurnPolicy::ReplanAlways));
        let f = &free.decisions[0];
        assert_eq!(f.lost_iters, 0);
        assert_eq!(
            d.downtime.to_bits(),
            (f.downtime + 700.0 * d.iteration_time).to_bits()
        );
    }

    #[test]
    fn degrade_without_redundancy_halts() {
        // a single node holds one pipeline replica: losing its devices
        // one by one leaves degrade-in-place nothing to shed
        let faults = (0..8).fold(FaultPlan::new(3), |plan, rank| {
            plan.with_event(FaultEvent::DeviceFail {
                rank,
                at_iter: 20 * (rank + 1),
            })
        });
        let r = run_faults(ChurnPolicy::DegradeInPlace, &faults, 1);
        assert!(r.halted, "losing every device must halt a degrade-only run");
        assert!(r.completed_iterations < 100_000);
    }

    #[test]
    fn latency_faults_slow_the_campaign_without_recovery() {
        let slow = FaultPlan::new(9)
            .with_event(FaultEvent::Straggler {
                rank: 0,
                slowdown: 3.0,
            })
            .with_event(FaultEvent::LinkDegrade { factor: 0.25 })
            .with_event(FaultEvent::TransientCommError { prob: 0.2 });
        // links alone slow the inter-node gradient all-reduce
        let links = FaultPlan::new(9).with_event(FaultEvent::LinkDegrade { factor: 0.25 });
        let clean = run_faults(ChurnPolicy::ReplanAlways, &FaultPlan::new(1), 2);
        for faults in [slow, links] {
            let degraded = run_faults(ChurnPolicy::ReplanAlways, &faults, 2);
            assert!(degraded.decisions.is_empty());
            assert!(!degraded.halted);
            assert!(
                degraded.goodput < clean.goodput,
                "latency faults must cost goodput: {} vs {}",
                degraded.goodput,
                clean.goodput
            );
        }
    }

    #[test]
    fn ride_it_out_restores_shed_replicas_on_recovery() {
        let mut trace = ClusterEventTrace::new(0);
        // lose a whole node, then get it back
        for local in 0..8 {
            trace.push(
                1000,
                ClusterEvent::Leave {
                    rank: rank(1, local),
                },
            );
        }
        for local in 0..8 {
            trace.push(
                5000,
                ClusterEvent::Recover {
                    rank: rank(1, local),
                },
            );
        }
        let r = run(ChurnPolicy::RideItOut, &trace);
        assert!(!r.halted);
        assert!(r.decisions.iter().any(|d| d.action == ChurnAction::Shed));
        assert!(
            r.decisions.iter().any(|d| d.action == ChurnAction::Restore),
            "recovered capacity must restore the shed replica"
        );
        // back to the original speed once restored
        let last = r.decisions.last().unwrap();
        let first = r.decisions.first().unwrap();
        assert!(last.iteration_time <= first.iteration_time * 1.0001);
    }

    #[test]
    fn degrade_events_slow_ride_campaigns() {
        let trace = ClusterEventTrace::new(0).with_event(
            1000,
            ClusterEvent::Degrade {
                rank: rank(0, 0),
                factor: 0.25,
            },
        );
        let clean = run(ChurnPolicy::DegradeInPlace, &ClusterEventTrace::new(0));
        let throttled = run(ChurnPolicy::DegradeInPlace, &trace);
        assert!(
            throttled.goodput < clean.goodput,
            "a 4x-throttled in-use device must cost goodput: {} vs {}",
            throttled.goodput,
            clean.goodput
        );
    }

    /// Bit-exact wall time, goodput and decision count of every policy on
    /// one generated trace: a refactor of the engine must not move them.
    #[test]
    fn generated_campaign_numbers_are_pinned() {
        let cluster = ClusterSpec::v100_cluster(2);
        let trace = ClusterEventTrace::generate(3, 20, &cluster, 4000);
        for (policy, wall, goodput, decisions) in [
            (
                ChurnPolicy::ReplanAlways,
                0x407b_201e_1304_f725,
                0x40bc_cd25_abb7_56c9,
                20,
            ),
            (
                ChurnPolicy::RideItOut,
                0x4060_d1ce_8245_4a5f,
                0x40d7_3975_aded_8253,
                20,
            ),
            (
                ChurnPolicy::DegradeInPlace,
                0x4067_d470_229c_7c08,
                0x40d0_646b_8382_39f4,
                20,
            ),
            (
                ChurnPolicy::Adaptive,
                0x4065_b6ed_e855_2e10,
                0x40d1_fd34_0f43_14a4,
                20,
            ),
        ] {
            let r = run(policy, &trace);
            assert_eq!(r.wall_time.to_bits(), wall, "{policy:?} wall time");
            assert_eq!(r.goodput.to_bits(), goodput, "{policy:?} goodput");
            assert_eq!(r.decisions.len(), decisions, "{policy:?} decisions");
        }
    }

    #[test]
    fn generated_campaign_completes_with_decision_log() {
        let cluster = ClusterSpec::v100_cluster(2);
        let trace = ClusterEventTrace::generate(3, 20, &cluster, 4000);
        let r = run(ChurnPolicy::Adaptive, &trace);
        assert!(r.completed_iterations > 0);
        assert!(!r.decisions.is_empty());
        for d in &r.decisions {
            assert!(d.iteration_time > 0.0);
        }
    }
}
