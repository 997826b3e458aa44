//! Plan flight recorder — decision-level telemetry of the partition
//! search (Algorithm 2).
//!
//! Where [`crate::trace`] answers *where wall-clock time went*, the
//! recorder answers *why this plan won*: it captures every swept
//! `(S, MB)` candidate of every node tier with its score or
//! infeasibility, plus the winner's per-stage cost attribution and the
//! candidate/cache accounting — the raw material for the
//! `rannc-plan explain` subcommand.
//!
//! The cost contract mirrors the tracing layer exactly: every recording
//! entry point checks [`enabled`] *before touching the heap*, so a
//! disabled recorder allocates nothing ([`alloc_count`] lets benches pin
//! that), and the search hooks are plan-preserving — a recorded search
//! returns a bit-identical plan (the `explain_recorder` integration
//! suite pins both halves; `planner_bench --check` pins the first over
//! its timed run).
//!
//! **Determinism.** The serialized artifact ([`to_json`], frozen schema
//! `rannc_explain` v2) is byte-identical across worker-thread counts.
//! The search runs the DP on every grid cell and records the cells in
//! grid order after the sweep, so the candidate list is the work a
//! recorder-off run does. Everything thread-schedule-dependent is
//! deliberately excluded: no timestamps, no thread ids, and no cache
//! hit/miss counts (only *entry* counts, which are
//! schedule-independent).

use crate::json::{self, escape, fmt_f64, DecodeError, Node, Obj, SchemaError};
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
    /// The score the winner was chosen by: the closed-form iteration
    /// time, pipeline + slowest gradient all-reduce + optimizer step.
    pub score: f64,
    /// Bottleneck `max fwd + max bwd`, seconds.
    pub bottleneck: f64,
    /// Estimated iteration time (pipeline term only), seconds.
    pub est_iteration_time: f64,
}

/// The stage-cut refinement of the scan's winner: its score and
/// bottleneck before and, when the re-cut stages were priced, after.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineRec {
    /// The scan winner's score, seconds.
    pub from_score: f64,
    /// The scan winner's bottleneck, seconds.
    pub from_bottleneck: f64,
    /// The re-cut stages' `(score, bottleneck)`; `None` when Algorithm 1
    /// found them infeasible.
    pub to: Option<(f64, f64)>,
    /// Whether the re-cut stages scored strictly lower and replaced the
    /// winner's.
    pub accepted: bool,
}

/// Cache accounting. Entry counts only — hit/miss counts depend on the
/// thread schedule and would break artifact byte-identity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccountingRec {
    /// Stage evaluations the search's DP arena memos ran.
    pub stage_cache_entries: u64,
    /// Time entries the block ranges' caches filled.
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
    /// The winner's stage-cut refinement (`None` when it proposed no cut).
    pub refine: Option<RefineRec>,
    /// Cache accounting.
    pub accounting: Option<AccountingRec>,
}

impl Recording {
    /// Candidate totals over all tiers: `(candidates, feasible,
    /// infeasible)`.
    pub fn totals(&self) -> (usize, usize, usize) {
        let (mut total, mut feas, mut infeas) = (0, 0, 0);
        for t in &self.tiers {
            for c in &t.candidates {
                total += 1;
                match c.outcome {
                    CandidateOutcome::Feasible { .. } => feas += 1,
                    CandidateOutcome::Infeasible => infeas += 1,
                }
            }
        }
        (total, feas, infeas)
    }

    /// Decode a `rannc_explain` v2 artifact — the inverse of [`to_json`].
    ///
    /// Strict where it reads: integers must be exact non-negative
    /// literals (counts and sizes positive), times finite and
    /// non-negative, and the accounting totals must match the tier
    /// lists they summarize. Unknown keys are ignored, because the
    /// schema grows additively (`tp`, `tensor_parallel`).
    /// `check::check_explain` adds the cross-checks on the winner.
    pub fn from_json(text: &str) -> Result<Recording, DecodeError> {
        json::decode(text, |root| {
            let root = root.obj()?;
            let schema = root.get("schema")?;
            if schema.str()? != "rannc_explain" {
                return Err(schema.error(format!("unknown schema `{}`", schema.str()?)));
            }
            root.version(2)?;
            let cluster = root.get("cluster")?.obj()?;
            let context = ContextRec {
                model: root.get("model")?.str()?.to_string(),
                batch_size: root.get("batch_size")?.usize()?,
                nodes: cluster.get("nodes")?.usize()?,
                gpus_per_node: cluster.get("gpus_per_node")?.usize()?,
                total_devices: cluster.get("total_devices")?.usize()?,
                cost_model: root.get("cost_model")?.str()?.to_string(),
            };
            let tiers = root
                .get("tiers")?
                .items()?
                .map(|t| decode_tier(t.obj()?))
                .collect::<Result<Vec<_>, _>>()?;
            let winner = root.get("winner")?.non_null();
            let winner = winner.map(|w| decode_winner(w.obj()?)).transpose()?;
            let refine = root.opt("refine").map(|r| decode_refine(r.obj()?));
            let acc = root.get("accounting")?.obj()?;
            let rec = Recording {
                context: Some(context),
                tiers,
                winner,
                refine: refine.transpose()?,
                accounting: Some(AccountingRec {
                    stage_cache_entries: acc.get("stage_cache_entries")?.u64()?,
                    profiler_cache_entries: acc.get("profiler_cache_entries")?.u64()?,
                }),
            };
            let (total, feas, infeas) = rec.totals();
            for (key, expect) in [
                ("candidates", total),
                ("feasible", feas),
                ("infeasible", infeas),
                ("node_tiers", rec.tiers.len()),
            ] {
                let field = acc.get(key)?;
                let got = field.usize()?;
                if got != expect {
                    return Err(field.error(format!("is {got} but the tier lists say {expect}")));
                }
            }
            Ok(rec)
        })
    }
}

/// A finite, non-negative duration in seconds.
fn seconds(node: Node<'_>) -> Result<f64, SchemaError> {
    match node.f64()? {
        t if t >= 0.0 => Ok(t),
        t => Err(node.error(format!("expected a non-negative time, got {t}"))),
    }
}

/// An optional positive degree: absent means 1 (2D artifacts omit it).
fn degree(o: &Obj<'_>, key: &str) -> Result<usize, SchemaError> {
    o.opt(key).map_or(Ok(1), |n| n.positive())
}

fn decode_tier(t: Obj<'_>) -> Result<TierRec, SchemaError> {
    let candidates = t
        .get("candidates")?
        .items()?
        .map(|c| {
            let c = c.obj()?;
            let outcome = c.get("outcome")?;
            let outcome = match outcome.str()? {
                "feasible" => CandidateOutcome::Feasible {
                    score: seconds(c.get("score")?)?,
                    bottleneck: seconds(c.get("bottleneck")?)?,
                },
                "infeasible" => CandidateOutcome::Infeasible,
                other => return Err(outcome.error(format!("unknown outcome `{other}`"))),
            };
            Ok(CandidateRec {
                stages: c.get("stages")?.positive()?,
                microbatches: c.get("microbatches")?.positive()?,
                tp: degree(&c, "tp")?,
                outcome,
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(TierRec {
        n: t.get("n")?.positive()?,
        devices: t.get("devices")?.positive()?,
        replica_factor: t.get("replica_factor")?.positive()?,
        candidates,
    })
}

fn decode_winner(w: Obj<'_>) -> Result<WinnerRec, SchemaError> {
    let stages_node = w.get("stages")?;
    let stages = stages_node
        .items()?
        .map(|s| {
            let s = s.obj()?;
            let certified = s.get("mem_certified_bytes")?.non_null();
            Ok(WinnerStageRec {
                tasks: s.get("tasks")?.positive()?,
                devices: s.get("devices")?.positive()?,
                tensor_parallel: degree(&s, "tensor_parallel")?,
                micro_batch: s.get("micro_batch")?.positive()?,
                fwd_time: seconds(s.get("fwd_time")?)?,
                bwd_time: seconds(s.get("bwd_time")?)?,
                transfer_time: seconds(s.get("transfer_time")?)?,
                allreduce_time: seconds(s.get("allreduce_time")?)?,
                optimizer_time: seconds(s.get("optimizer_time")?)?,
                mem_estimate_bytes: s.get("mem_estimate_bytes")?.u64()?,
                mem_certified_bytes: certified.map(|n| n.u64()).transpose()?,
                param_elems: s.get("param_elems")?.u64()?,
            })
        })
        .collect::<Result<Vec<_>, SchemaError>>()?;
    if stages.is_empty() {
        return Err(stages_node.error("a winner needs at least one stage"));
    }
    Ok(WinnerRec {
        stages,
        microbatches: w.get("microbatches")?.positive()?,
        replica_factor: w.get("replica_factor")?.positive()?,
        score: seconds(w.get("score")?)?,
        bottleneck: seconds(w.get("bottleneck")?)?,
        est_iteration_time: seconds(w.get("est_iteration_time")?)?,
    })
}

fn decode_refine(r: Obj<'_>) -> Result<RefineRec, SchemaError> {
    let to_score = r.get("refined_score")?.non_null();
    let to_bottleneck = r.get("refined_bottleneck")?.non_null();
    let to = match (to_score, to_bottleneck) {
        (Some(s), Some(b)) => Some((seconds(s)?, seconds(b)?)),
        (None, None) => None,
        (_, Some(b)) | (Some(b), _) => {
            return Err(b.error("refined score and bottleneck are null together"))
        }
    };
    let accepted = r.get("accepted")?;
    let rec = RefineRec {
        from_score: seconds(r.get("score")?)?,
        from_bottleneck: seconds(r.get("bottleneck")?)?,
        to,
        accepted: accepted.bool()?,
    };
    if rec.accepted && !rec.to.is_some_and(|(s, _)| s < rec.from_score) {
        return Err(accepted.error("accepted without a strictly lower refined score"));
    }
    Ok(rec)
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

/// Record the winner's stage-cut refinement (closure-deferred like
/// [`set_context`]).
pub fn refinement(make: impl FnOnce() -> RefineRec) {
    if !enabled() {
        return;
    }
    if let Some(rec) = lock(&CURRENT).as_mut() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        rec.refine = Some(make());
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

/// Serialize a recording to the frozen `rannc_explain` schema v2.
///
/// Field order, formatting ([`fmt_f64`]) and layout are part of the
/// contract: the same recording always serializes to the same bytes, and
/// a recording itself is byte-identical across worker thread counts
/// (`explain_recorder`'s `artifact_is_byte_identical_across_thread_counts`).
pub fn to_json(rec: &Recording) -> String {
    let ctx = rec.context.clone().unwrap_or_default();
    let acc = rec.accounting.clone().unwrap_or_default();
    let (total, feas, infeas) = rec.totals();

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"rannc_explain\",\n");
    out.push_str("  \"version\": 2,\n");
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
            // 3D searches carry the T column; 2D artifacts omit it
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

    if let Some(r) = &rec.refine {
        let (to_score, to_bottleneck) = match r.to {
            Some((s, b)) => (fmt_f64(s), fmt_f64(b)),
            None => ("null".to_string(), "null".to_string()),
        };
        out.push_str(&format!(
            "  \"refine\": {{\"score\": {}, \"bottleneck\": {}, \"refined_score\": {to_score}, \
             \"refined_bottleneck\": {to_bottleneck}, \"accepted\": {}}},\n",
            fmt_f64(r.from_score),
            fmt_f64(r.from_bottleneck),
            r.accepted
        ));
    }

    out.push_str(&format!(
        "  \"accounting\": {{\"candidates\": {}, \"feasible\": {}, \"infeasible\": {}, \
         \"node_tiers\": {}, \"stage_cache_entries\": {}, \"profiler_cache_entries\": {}}}\n",
        total,
        feas,
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
        candidate(
            1,
            2,
            1,
            CandidateOutcome::Feasible {
                score: 0.5,
                bottleneck: 0.25,
            },
        );
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
        assert_eq!(rec.totals(), (3, 2, 1));
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
        assert_eq!(v.get("version").unwrap().as_f64(), Some(2.0));
        let acc = v.get("accounting").unwrap();
        assert_eq!(acc.get("candidates").unwrap().as_f64(), Some(3.0));
        assert_eq!(acc.get("feasible").unwrap().as_f64(), Some(2.0));
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
