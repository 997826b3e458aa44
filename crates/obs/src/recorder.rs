//! The explain artifact — decision-level telemetry of one partition
//! search (Algorithm 2).
//!
//! Where [`crate::trace`] answers *where wall-clock time went*, a
//! [`Recording`] answers *why this plan won*: every swept `(S, MB, T)`
//! candidate of every node tier with its score, its score bound or its
//! infeasibility, plus the winner's per-stage cost attribution and the
//! candidate/cache accounting — the raw material for the `rannc-plan
//! explain` subcommand.
//!
//! A recording is a plain value. The planner builds it from what its
//! search returned (`rannc_core::Rannc::explain`), only when a caller
//! asks for one, so a partition that is not explained does no recording
//! work at all, and searches on different threads each explain their
//! own.
//!
//! **Determinism.** The serialized artifact ([`to_json`], frozen schema
//! `rannc_explain` v3) is a pure function of the search's inputs. The
//! search settles every grid cell (solved, bounded or infeasible) and
//! returns the cells in grid order, so the candidate list is exactly the
//! work the search did. No timestamps and no cache hit/miss counts are
//! recorded (only *entry* counts).

use crate::json::{self, escape, fmt_f64, DecodeError, Node, Obj, SchemaError};

/// Always 0: a recording is a plain value and this module keeps no
/// state to allocate. Kept, like `rannc_core::par::set_threads`, only
/// because the frozen benchmark package calls it.
pub fn alloc_count() -> u64 {
    0
}

/// How one swept `(S, MB, T)` grid cell ended.
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
        /// The cell's score lower bound, at most `score`, seconds.
        bound: f64,
    },
    /// The DP never ran: the cell's score lower bound is strictly above
    /// a solved cell's score, so the cell cannot win.
    Bounded {
        /// The cell's score lower bound, seconds.
        bound: f64,
    },
    /// No feasible placement: the memory bound proved the cell
    /// INFEASIBLE before its DP could run, or the DP ran and found none.
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
    /// The tier's `(S, MB, T)` grid in deterministic order: `S`
    /// ascending, then `MB`, then `T`.
    pub candidates: Vec<CandidateRec>,
}

/// What was being planned: model, batch, cluster shape and cost model.
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

/// Cache accounting: entry counts only, the work each cache did.
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
    pub context: ContextRec,
    /// Node tiers in sweep order.
    pub tiers: Vec<TierRec>,
    /// The winning plan's attribution (`None` when infeasible).
    pub winner: Option<WinnerRec>,
    /// The winner's stage-cut refinement (`None` when it proposed no cut).
    pub refine: Option<RefineRec>,
    /// Cache accounting.
    pub accounting: AccountingRec,
}

impl Recording {
    /// Candidate totals over all tiers: `(candidates, feasible,
    /// infeasible, bounded)`.
    pub fn totals(&self) -> (usize, usize, usize, usize) {
        let (mut total, mut feas, mut infeas, mut bounded) = (0, 0, 0, 0);
        for t in &self.tiers {
            for c in &t.candidates {
                total += 1;
                match c.outcome {
                    CandidateOutcome::Feasible { .. } => feas += 1,
                    CandidateOutcome::Bounded { .. } => bounded += 1,
                    CandidateOutcome::Infeasible => infeas += 1,
                }
            }
        }
        (total, feas, infeas, bounded)
    }

    /// Decode a `rannc_explain` v3 artifact — the inverse of [`to_json`].
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
            root.version(3)?;
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
                context,
                tiers,
                winner,
                refine: refine.transpose()?,
                accounting: AccountingRec {
                    stage_cache_entries: acc.get("stage_cache_entries")?.u64()?,
                    profiler_cache_entries: acc.get("profiler_cache_entries")?.u64()?,
                },
            };
            let (total, feas, infeas, bounded) = rec.totals();
            for (key, expect) in [
                ("candidates", total),
                ("feasible", feas),
                ("infeasible", infeas),
                ("bounded", bounded),
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
                    bound: seconds(c.get("bound")?)?,
                },
                "bounded" => CandidateOutcome::Bounded {
                    bound: seconds(c.get("bound")?)?,
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

/// Serialize a recording to the frozen `rannc_explain` schema v3.
///
/// Field order, formatting ([`fmt_f64`]) and layout are part of the
/// contract: the same recording always serializes to the same bytes, and
/// a recording itself is byte-identical from run to run
/// (`explain_recorder`'s `artifact_is_byte_identical_from_run_to_run`).
pub fn to_json(rec: &Recording) -> String {
    let (ctx, acc) = (&rec.context, &rec.accounting);
    let (total, feas, infeas, bounded) = rec.totals();

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"rannc_explain\",\n");
    out.push_str("  \"version\": 3,\n");
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
                CandidateOutcome::Feasible {
                    score,
                    bottleneck,
                    bound,
                } => {
                    out.push_str(&format!(
                        "\"outcome\": \"feasible\", \"score\": {}, \"bottleneck\": {}, \
                         \"bound\": {}}}",
                        fmt_f64(*score),
                        fmt_f64(*bottleneck),
                        fmt_f64(*bound)
                    ));
                }
                CandidateOutcome::Bounded { bound } => {
                    out.push_str(&format!(
                        "\"outcome\": \"bounded\", \"bound\": {}}}",
                        fmt_f64(*bound)
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
         \"bounded\": {}, \"node_tiers\": {}, \"stage_cache_entries\": {}, \
         \"profiler_cache_entries\": {}}}\n",
        total,
        feas,
        infeas,
        bounded,
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

    fn sample() -> Recording {
        let candidate = |stages, microbatches, outcome| CandidateRec {
            stages,
            microbatches,
            tp: 1,
            outcome,
        };
        Recording {
            context: ContextRec {
                model: "mlp-test".into(),
                batch_size: 32,
                nodes: 2,
                gpus_per_node: 2,
                total_devices: 4,
                cost_model: "analytical".into(),
            },
            tiers: vec![TierRec {
                n: 1,
                devices: 2,
                replica_factor: 2,
                candidates: vec![
                    candidate(
                        1,
                        1,
                        CandidateOutcome::Feasible {
                            score: 0.25,
                            bottleneck: 0.125,
                            bound: 0.125,
                        },
                    ),
                    candidate(
                        1,
                        2,
                        CandidateOutcome::Feasible {
                            score: 0.5,
                            bottleneck: 0.25,
                            bound: 0.25,
                        },
                    ),
                    candidate(2, 1, CandidateOutcome::Infeasible),
                    candidate(2, 2, CandidateOutcome::Bounded { bound: 0.75 }),
                ],
            }],
            winner: Some(WinnerRec {
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
            }),
            refine: None,
            accounting: AccountingRec {
                stage_cache_entries: 3,
                profiler_cache_entries: 5,
            },
        }
    }

    #[test]
    fn totals_count_every_outcome() {
        assert_eq!(sample().totals(), (4, 2, 1, 1));
        assert_eq!(Recording::default().totals(), (0, 0, 0, 0));
    }

    #[test]
    fn serialization_is_stable_and_validates() {
        let rec = sample();
        let a = to_json(&rec);
        let b = to_json(&rec);
        assert_eq!(a, b, "same recording, same bytes");
        let v = crate::json::parse(&a).expect("artifact is valid JSON");
        assert_eq!(v.get("schema").unwrap().as_str(), Some("rannc_explain"));
        assert_eq!(v.get("version").unwrap().as_f64(), Some(3.0));
        let acc = v.get("accounting").unwrap();
        assert_eq!(acc.get("candidates").unwrap().as_f64(), Some(4.0));
        assert_eq!(acc.get("feasible").unwrap().as_f64(), Some(2.0));
        assert_eq!(acc.get("bounded").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            Recording::from_json(&a).expect("decodes"),
            rec,
            "round trip"
        );
        crate::check::check_explain(&a).expect("artifact passes its validator");
    }
}
