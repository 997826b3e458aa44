//! Plan flight recorder — decision-level telemetry of the partition
//! search (Algorithm 2).
//!
//! Where [`crate::trace`] answers *where wall-clock time went*, the
//! recorder answers *why this plan won*: it captures every swept
//! `(S, MB)` candidate of every node tier with its score, pruning lower
//! bound, or infeasibility, plus the winner's per-stage cost attribution
//! and the cache/pruning accounting — the raw material for the
//! `rannc-plan explain` subcommand.
//!
//! The cost contract mirrors the tracing layer exactly: every recording
//! entry point checks [`enabled`] *before touching the heap*, so a
//! disabled recorder allocates nothing ([`alloc_count`] lets benches pin
//! that), and the search hooks are plan-preserving — a recorded search
//! returns a bit-identical plan (the `explain_recorder` integration
//! suite and `planner_bench --check` pin both halves).
//!
//! **Determinism.** The serialized artifact ([`to_json`], frozen schema
//! `rannc_explain` v1) is byte-identical across worker-thread counts.
//! Everything thread-schedule-dependent is deliberately excluded:
//! no timestamps, no thread ids, no cache hit/miss counts (only *entry*
//! counts, which are schedule-independent), and the pruning account is
//! recomputed as a canonical sequential scan over the grid instead of
//! sampling the racy runtime best-so-far.

use crate::json::{escape, fmt_f64};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Process-global recorder switch. Off by default; independent of the
/// tracing flag so `--explain-out` does not drag span recording in.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static CURRENT: Mutex<Option<Recording>> = Mutex::new(None);

/// Turn the flight recorder on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether the flight recorder is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Total records the recorder has allocated since process start. Exactly
/// 0 while the recorder has never been enabled — the zero-overhead
/// guarantee `planner_bench --check` pins.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Drop any in-flight recording (test/bench isolation). Does not reset
/// [`alloc_count`], which is monotone by design.
pub fn reset() {
    *lock(&CURRENT) = None;
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// How one swept `(S, MB)` grid cell ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CandidateOutcome {
    /// The DP found a solution; `score` is the full iteration-time
    /// objective (pipeline + gradient all-reduce), `bottleneck` the DP
    /// value `max fwd + max bwd`.
    Feasible {
        /// Iteration-time score the winner is chosen by.
        score: f64,
        /// DP bottleneck value, seconds.
        bottleneck: f64,
    },
    /// The dominance bound skipped the DP: `lower_bound` already
    /// exceeded the best score seen at that point of the canonical
    /// sequential scan.
    Pruned {
        /// The score lower bound that justified the skip.
        lower_bound: f64,
    },
    /// The DP ran and found no feasible placement.
    Infeasible,
}

/// One swept grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateRec {
    /// Stage count `S`.
    pub stages: usize,
    /// Micro-batch count `MB`.
    pub microbatches: usize,
    /// Tensor-parallel degree `T` (1 when intra-op search is off; the
    /// serializer omits the field then, keeping 2D artifacts byte-stable).
    pub tp: usize,
    /// How the cell ended.
    pub outcome: CandidateOutcome,
}

/// One node tier of the outer loop (a value of `n`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TierRec {
    /// Nodes dedicated to one pipeline replica.
    pub n: usize,
    /// Device budget `D = D_node · n`.
    pub devices: usize,
    /// Pipeline-replica factor `R = max(N/n, 1)`.
    pub replica_factor: usize,
    /// The tier's `(S, MB)` grid in deterministic (S asc, MB asc) order.
    pub candidates: Vec<CandidateRec>,
}

/// What was being planned — stamped by the planner front-end.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContextRec {
    /// Model/graph name.
    pub model: String,
    /// Global batch size.
    pub batch_size: usize,
    /// Cluster nodes.
    pub nodes: usize,
    /// Devices per node.
    pub gpus_per_node: usize,
    /// Total devices (minus lost ones).
    pub total_devices: usize,
    /// Cost model that priced the search.
    pub cost_model: String,
}

/// Cost attribution of one winning stage — every component priced
/// through the `CostModel` seam, memory both as the planner's estimate
/// and the liveness-certified peak from `rannc-verify`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WinnerStageRec {
    /// Tasks in the stage.
    pub tasks: usize,
    /// Devices (replicas) within one pipeline replica.
    pub devices: usize,
    /// Tensor-parallel degree of the stage (serialized only when > 1).
    pub tensor_parallel: usize,
    /// Per-replica micro-batch size.
    pub micro_batch: usize,
    /// Forward compute time, seconds.
    pub fwd_time: f64,
    /// Backward compute time, seconds.
    pub bwd_time: f64,
    /// Activation transfer time into the next stage, seconds (0 for the
    /// last stage).
    pub transfer_time: f64,
    /// Gradient all-reduce time across the stage's replica group,
    /// seconds (0 when the group is a single device).
    pub allreduce_time: f64,
    /// Optimizer step time, seconds.
    pub optimizer_time: f64,
    /// Planner's per-device memory estimate, bytes.
    pub mem_estimate_bytes: u64,
    /// Liveness-certified peak memory, bytes (`None` when certification
    /// was unavailable).
    pub mem_certified_bytes: Option<u64>,
    /// Parameter elements owned by the stage.
    pub param_elems: u64,
}

/// The chosen plan plus its attribution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WinnerRec {
    /// Per-stage attribution, pipeline order.
    pub stages: Vec<WinnerStageRec>,
    /// Micro-batch count.
    pub microbatches: usize,
    /// Pipeline-replica factor.
    pub replica_factor: usize,
    /// The score the winner was chosen by (pipeline + all-reduce).
    pub score: f64,
    /// Bottleneck `max fwd + max bwd`, seconds.
    pub bottleneck: f64,
    /// Estimated iteration time (pipeline term only), seconds.
    pub est_iteration_time: f64,
}

/// Cache accounting. Entry counts only — hit/miss counts depend on the
/// thread schedule and would break artifact byte-identity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccountingRec {
    /// Stage evaluations the search's DP arena memos ran.
    pub stage_cache_entries: u64,
    /// Distinct profiles in the profiler memo.
    pub profiler_cache_entries: u64,
}

/// One recorded search, start to winner.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recording {
    /// Planning context (model, cluster, cost model).
    pub context: Option<ContextRec>,
    /// Node tiers in sweep order.
    pub tiers: Vec<TierRec>,
    /// The winning plan's attribution (`None` when infeasible).
    pub winner: Option<WinnerRec>,
    /// Cache accounting.
    pub accounting: Option<AccountingRec>,
}

impl Recording {
    /// Candidate totals over all tiers: `(candidates, feasible, pruned,
    /// infeasible)`.
    pub fn totals(&self) -> (usize, usize, usize, usize) {
        let (mut total, mut feas, mut pruned, mut infeas) = (0, 0, 0, 0);
        for t in &self.tiers {
            for c in &t.candidates {
                total += 1;
                match c.outcome {
                    CandidateOutcome::Feasible { .. } => feas += 1,
                    CandidateOutcome::Pruned { .. } => pruned += 1,
                    CandidateOutcome::Infeasible => infeas += 1,
                }
            }
        }
        (total, feas, pruned, infeas)
    }
}

/// Start a fresh recording, discarding any previous one. Called by
/// `form_stage_with` at search entry, so one artifact always describes
/// exactly one search (for `repartition` that is the replan).
pub fn begin_search() {
    if !enabled() {
        return;
    }
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    *lock(&CURRENT) = Some(Recording::default());
}

/// Open a new node tier. No-op while disabled or before [`begin_search`].
pub fn tier(n: usize, devices: usize, replica_factor: usize) {
    if !enabled() {
        return;
    }
    if let Some(rec) = lock(&CURRENT).as_mut() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        rec.tiers.push(TierRec {
            n,
            devices,
            replica_factor,
            candidates: Vec::new(),
        });
    }
}

/// Record one grid cell into the currently open tier.
pub fn candidate(stages: usize, microbatches: usize, tp: usize, outcome: CandidateOutcome) {
    if !enabled() {
        return;
    }
    if let Some(rec) = lock(&CURRENT).as_mut() {
        if let Some(t) = rec.tiers.last_mut() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            t.candidates.push(CandidateRec {
                stages,
                microbatches,
                tp,
                outcome,
            });
        }
    }
}

/// Stamp the planning context. The closure runs only while enabled, so
/// building the (allocating) record stays off the disabled path.
pub fn set_context(make: impl FnOnce() -> ContextRec) {
    if !enabled() {
        return;
    }
    if let Some(rec) = lock(&CURRENT).as_mut() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        rec.context = Some(make());
    }
}

/// Stamp the winner's attribution (closure-deferred like [`set_context`]).
pub fn set_winner(make: impl FnOnce() -> WinnerRec) {
    if !enabled() {
        return;
    }
    if let Some(rec) = lock(&CURRENT).as_mut() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        rec.winner = Some(make());
    }
}

/// Stamp the cache accounting (closure-deferred like [`set_context`]).
pub fn set_accounting(make: impl FnOnce() -> AccountingRec) {
    if !enabled() {
        return;
    }
    if let Some(rec) = lock(&CURRENT).as_mut() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        rec.accounting = Some(make());
    }
}

/// Take the current recording, leaving the recorder empty. Returns
/// `None` when nothing was recorded (recorder disabled, or no search ran
/// since the last take).
pub fn take() -> Option<Recording> {
    lock(&CURRENT).take()
}

/// Serialize a recording to the frozen `rannc_explain` schema v1.
///
/// Field order, formatting ([`fmt_f64`]) and layout are part of the
/// contract: the same recording always serializes to the same bytes, and
/// the quick-grid recording itself is byte-identical across worker
/// thread counts (`planner_bench --check`).
pub fn to_json(rec: &Recording) -> String {
    let ctx = rec.context.clone().unwrap_or_default();
    let acc = rec.accounting.clone().unwrap_or_default();
    let (total, feas, pruned, infeas) = rec.totals();

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"rannc_explain\",\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!("  \"model\": \"{}\",\n", escape(&ctx.model)));
    out.push_str(&format!("  \"batch_size\": {},\n", ctx.batch_size));
    out.push_str(&format!(
        "  \"cost_model\": \"{}\",\n",
        escape(&ctx.cost_model)
    ));
    out.push_str(&format!(
        "  \"cluster\": {{\"nodes\": {}, \"gpus_per_node\": {}, \"total_devices\": {}}},\n",
        ctx.nodes, ctx.gpus_per_node, ctx.total_devices
    ));

    out.push_str("  \"tiers\": [");
    for (ti, t) in rec.tiers.iter().enumerate() {
        if ti > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"n\": {}, \"devices\": {}, \"replica_factor\": {}, \"candidates\": [",
            t.n, t.devices, t.replica_factor
        ));
        for (ci, c) in t.candidates.iter().enumerate() {
            if ci > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n      {{\"stages\": {}, \"microbatches\": {}, ",
                c.stages, c.microbatches
            ));
            // 3D searches carry the T column; 2D artifacts stay
            // byte-identical to the frozen v1 layout
            if c.tp > 1 {
                out.push_str(&format!("\"tp\": {}, ", c.tp));
            }
            match &c.outcome {
                CandidateOutcome::Feasible { score, bottleneck } => {
                    out.push_str(&format!(
                        "\"outcome\": \"feasible\", \"score\": {}, \"bottleneck\": {}}}",
                        fmt_f64(*score),
                        fmt_f64(*bottleneck)
                    ));
                }
                CandidateOutcome::Pruned { lower_bound } => {
                    out.push_str(&format!(
                        "\"outcome\": \"pruned\", \"lower_bound\": {}}}",
                        fmt_f64(*lower_bound)
                    ));
                }
                CandidateOutcome::Infeasible => {
                    out.push_str("\"outcome\": \"infeasible\"}");
                }
            }
        }
        if t.candidates.is_empty() {
            out.push_str("]}");
        } else {
            out.push_str("\n    ]}");
        }
    }
    if rec.tiers.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }

    match &rec.winner {
        None => out.push_str("  \"winner\": null,\n"),
        Some(w) => {
            out.push_str("  \"winner\": {\n");
            out.push_str(&format!(
                "    \"score\": {}, \"bottleneck\": {}, \"est_iteration_time\": {},\n",
                fmt_f64(w.score),
                fmt_f64(w.bottleneck),
                fmt_f64(w.est_iteration_time)
            ));
            out.push_str(&format!(
                "    \"microbatches\": {}, \"replica_factor\": {},\n",
                w.microbatches, w.replica_factor
            ));
            out.push_str("    \"stages\": [");
            for (si, s) in w.stages.iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                let certified = match s.mem_certified_bytes {
                    Some(b) => b.to_string(),
                    None => "null".to_string(),
                };
                let tp_field = if s.tensor_parallel > 1 {
                    format!("\"tensor_parallel\": {}, ", s.tensor_parallel)
                } else {
                    String::new()
                };
                out.push_str(&format!(
                    "\n      {{\"tasks\": {}, \"devices\": {}, {tp_field}\"micro_batch\": {}, \
                     \"fwd_time\": {}, \"bwd_time\": {}, \"transfer_time\": {}, \
                     \"allreduce_time\": {}, \"optimizer_time\": {}, \
                     \"mem_estimate_bytes\": {}, \"mem_certified_bytes\": {}, \
                     \"param_elems\": {}}}",
                    s.tasks,
                    s.devices,
                    s.micro_batch,
                    fmt_f64(s.fwd_time),
                    fmt_f64(s.bwd_time),
                    fmt_f64(s.transfer_time),
                    fmt_f64(s.allreduce_time),
                    fmt_f64(s.optimizer_time),
                    s.mem_estimate_bytes,
                    certified,
                    s.param_elems
                ));
            }
            if w.stages.is_empty() {
                out.push_str("]\n");
            } else {
                out.push_str("\n    ]\n");
            }
            out.push_str("  },\n");
        }
    }

    out.push_str(&format!(
        "  \"accounting\": {{\"candidates\": {}, \"feasible\": {}, \"pruned\": {}, \
         \"infeasible\": {}, \"node_tiers\": {}, \"stage_cache_entries\": {}, \
         \"profiler_cache_entries\": {}}}\n",
        total,
        feas,
        pruned,
        infeas,
        rec.tiers.len(),
        acc.stage_cache_entries,
        acc.profiler_cache_entries
    ));
    out.push('}');
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::test_guard;

    fn sample() -> Recording {
        begin_search();
        tier(1, 2, 2);
        candidate(
            1,
            1,
            1,
            CandidateOutcome::Feasible {
                score: 0.25,
                bottleneck: 0.125,
            },
        );
        candidate(1, 2, 1, CandidateOutcome::Pruned { lower_bound: 0.5 });
        candidate(2, 1, 1, CandidateOutcome::Infeasible);
        set_context(|| ContextRec {
            model: "mlp-test".into(),
            batch_size: 32,
            nodes: 2,
            gpus_per_node: 2,
            total_devices: 4,
            cost_model: "analytical".into(),
        });
        set_winner(|| WinnerRec {
            stages: vec![WinnerStageRec {
                tasks: 8,
                devices: 2,
                tensor_parallel: 1,
                micro_batch: 16,
                fwd_time: 0.05,
                bwd_time: 0.075,
                transfer_time: 0.0,
                allreduce_time: 0.01,
                optimizer_time: 0.002,
                mem_estimate_bytes: 1 << 30,
                mem_certified_bytes: Some(1 << 29),
                param_elems: 4096,
            }],
            microbatches: 1,
            replica_factor: 2,
            score: 0.25,
            bottleneck: 0.125,
            est_iteration_time: 0.125,
        });
        set_accounting(|| AccountingRec {
            stage_cache_entries: 3,
            profiler_cache_entries: 5,
        });
        take().expect("recording present")
    }

    #[test]
    fn disabled_recorder_allocates_nothing() {
        let _g = test_guard();
        set_enabled(false);
        reset();
        let before = alloc_count();
        begin_search();
        tier(1, 2, 2);
        candidate(1, 1, 1, CandidateOutcome::Infeasible);
        set_context(|| panic!("context closure must not run while disabled"));
        set_winner(|| panic!("winner closure must not run while disabled"));
        set_accounting(|| panic!("accounting closure must not run while disabled"));
        assert_eq!(alloc_count(), before, "disabled recorder must not record");
        assert!(take().is_none());
    }

    #[test]
    fn candidates_land_in_the_open_tier() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        let rec = sample();
        set_enabled(false);
        assert_eq!(rec.tiers.len(), 1);
        assert_eq!(rec.tiers[0].candidates.len(), 3);
        assert_eq!(rec.totals(), (3, 1, 1, 1));
        assert!(take().is_none(), "take drains the recording");
    }

    #[test]
    fn serialization_is_stable_and_validates() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        let rec = sample();
        set_enabled(false);
        let a = to_json(&rec);
        let b = to_json(&rec);
        assert_eq!(a, b, "same recording, same bytes");
        let v = crate::json::parse(&a).expect("artifact is valid JSON");
        assert_eq!(v.get("schema").unwrap().as_str(), Some("rannc_explain"));
        assert_eq!(v.get("version").unwrap().as_f64(), Some(1.0));
        let acc = v.get("accounting").unwrap();
        assert_eq!(acc.get("candidates").unwrap().as_f64(), Some(3.0));
        assert_eq!(acc.get("pruned").unwrap().as_f64(), Some(1.0));
        crate::check::check_explain(&a).expect("artifact passes its validator");
    }

    #[test]
    fn begin_search_discards_previous_recording() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        let _first = sample();
        begin_search();
        tier(1, 4, 1);
        let rec = take().expect("second recording");
        set_enabled(false);
        assert_eq!(rec.tiers.len(), 1);
        assert_eq!(rec.tiers[0].devices, 4);
        assert!(rec.winner.is_none());
    }
}
