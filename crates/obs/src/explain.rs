//! Renderer behind `rannc-plan explain` — turns a flight-recorder
//! artifact ([`crate::recorder`], `rannc_explain` schema v2) into a
//! per-stage cost-breakdown table, a top-k runner-up list, and a search
//! account, and diffs two artifacts stage by stage.
//!
//! Every entry point decodes the artifact through
//! [`crate::check::explain_recording`] first, so rendering never has to
//! defend against malformed input — a corrupted artifact fails loudly
//! before any table is built.

use crate::check::explain_recording;
use crate::recorder::{CandidateOutcome, Recording};

fn ms(t: f64) -> String {
    format!("{:.3}", t * 1e3)
}

fn gib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1u64 << 30) as f64)
}

fn pct(delta: f64, base: f64) -> String {
    if base.abs() < 1e-30 {
        return "n/a".into();
    }
    format!("{:+.1}%", delta / base * 100.0)
}

/// One feasible candidate lifted out of its tier for the runner-up list.
struct Feasible {
    n: usize,
    stages: usize,
    microbatches: usize,
    tp: usize,
    score: f64,
}

fn feasible_sorted(rec: &Recording) -> Vec<Feasible> {
    let mut out = Vec::new();
    for t in &rec.tiers {
        for c in &t.candidates {
            if let CandidateOutcome::Feasible { score, .. } = c.outcome {
                out.push(Feasible {
                    n: t.n,
                    stages: c.stages,
                    microbatches: c.microbatches,
                    tp: c.tp.max(1),
                    score,
                });
            }
        }
    }
    // score asc; grid order breaks ties (stable sort over in-order scan)
    out.sort_by(|a, b| a.score.total_cmp(&b.score));
    out
}

/// Render one artifact: header, per-stage cost breakdown, top-`top_k`
/// runner-ups, search and cache account.
pub fn render(text: &str, top_k: usize) -> Result<String, String> {
    let rec = explain_recording(text)?;
    let ctx = rec.context.clone().unwrap_or_default();
    let acc = rec.accounting.clone().unwrap_or_default();
    let (total, feas, infeas) = rec.totals();

    let mut out = String::new();
    out.push_str(&format!(
        "plan explain — {} (batch {}, {} cost model)\n",
        ctx.model, ctx.batch_size, ctx.cost_model
    ));
    out.push_str(&format!(
        "cluster: {} node(s) x {} GPU(s), {} device(s) usable\n",
        ctx.nodes, ctx.gpus_per_node, ctx.total_devices
    ));

    match &rec.winner {
        None => out.push_str("\nwinner: none — the search was INFEASIBLE\n"),
        Some(w) => {
            out.push_str(&format!(
                "\nwinner: {} stage(s), MB={}, R={} — score {} ms \
                 (pipeline {} ms + all-reduce + optimizer {} ms), bottleneck {} ms\n",
                w.stages.len(),
                w.microbatches,
                w.replica_factor,
                ms(w.score),
                ms(w.est_iteration_time),
                ms(w.score - w.est_iteration_time),
                ms(w.bottleneck)
            ));
            // the tp column appears only when some stage is split
            let any_tp = w.stages.iter().any(|s| s.tensor_parallel > 1);
            let tp_hdr = if any_tp {
                format!(" {:>4}", "tp")
            } else {
                String::new()
            };
            out.push_str(&format!(
                "\n{:>5} {:>6} {:>5}{tp_hdr} {:>4} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10}\n",
                "stage",
                "tasks",
                "devs",
                "mb",
                "fwd ms",
                "bwd ms",
                "xfer ms",
                "ar ms",
                "opt ms",
                "est GiB",
                "cert GiB"
            ));
            for (i, s) in w.stages.iter().enumerate() {
                let cert = match s.mem_certified_bytes {
                    Some(b) => gib(b),
                    None => "-".into(),
                };
                let tp_col = if any_tp {
                    format!(" {:>4}", s.tensor_parallel)
                } else {
                    String::new()
                };
                out.push_str(&format!(
                    "{:>5} {:>6} {:>5}{tp_col} {:>4} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10}\n",
                    i,
                    s.tasks,
                    s.devices,
                    s.micro_batch,
                    ms(s.fwd_time),
                    ms(s.bwd_time),
                    ms(s.transfer_time),
                    ms(s.allreduce_time),
                    ms(s.optimizer_time),
                    gib(s.mem_estimate_bytes),
                    cert
                ));
            }
        }
    }

    let ranked = feasible_sorted(&rec);
    if ranked.len() > 1 && top_k > 0 {
        let shown = (ranked.len() - 1).min(top_k);
        out.push_str(&format!(
            "\nrunner-up plans (top {} of {} feasible):\n",
            shown,
            ranked.len() - 1
        ));
        let best = ranked[0].score;
        for (i, f) in ranked[1..1 + shown].iter().enumerate() {
            let t_str = if f.tp > 1 {
                format!(" T={}", f.tp)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  #{} S={} MB={}{t_str} n={}: score {} ms ({:+.3} ms, {})\n",
                i + 1,
                f.stages,
                f.microbatches,
                f.n,
                ms(f.score),
                (f.score - best) * 1e3,
                pct(f.score - best, best)
            ));
        }
    }

    out.push_str(&format!(
        "\nsearch: {} tier(s), {} candidate(s) — {} feasible, {} infeasible\n",
        rec.tiers.len(),
        total,
        feas,
        infeas
    ));
    out.push_str(&format!(
        "caches: {} stage-cost entries, {} profiler entries\n",
        acc.stage_cache_entries, acc.profiler_cache_entries
    ));
    Ok(out)
}

fn diff_line(label: &str, a: f64, b: f64) -> String {
    format!(
        "  {:<22} {} -> {} ms ({:+.3} ms, {})\n",
        label,
        ms(a),
        ms(b),
        (b - a) * 1e3,
        pct(b - a, a)
    )
}

/// Render the stage-by-stage cost delta between two artifacts (`a` is
/// the baseline, `b` the comparison — e.g. before/after a device loss).
pub fn render_diff(a_text: &str, b_text: &str) -> Result<String, String> {
    let a = explain_recording(a_text).map_err(|e| format!("first artifact: {e}"))?;
    let b = explain_recording(b_text).map_err(|e| format!("second artifact: {e}"))?;
    let (actx, bctx) = (
        a.context.clone().unwrap_or_default(),
        b.context.clone().unwrap_or_default(),
    );

    let mut out = String::new();
    out.push_str(&format!(
        "explain diff — {} (batch {}) vs {} (batch {})\n",
        actx.model, actx.batch_size, bctx.model, bctx.batch_size
    ));
    out.push_str(&format!(
        "cluster: {} -> {} usable device(s)\n",
        actx.total_devices, bctx.total_devices
    ));

    match (&a.winner, &b.winner) {
        (Some(wa), Some(wb)) => {
            out.push_str(&format!(
                "winner: S={} MB={} R={} -> S={} MB={} R={}\n\n",
                wa.stages.len(),
                wa.microbatches,
                wa.replica_factor,
                wb.stages.len(),
                wb.microbatches,
                wb.replica_factor
            ));
            out.push_str(&diff_line("score", wa.score, wb.score));
            out.push_str(&diff_line(
                "pipeline",
                wa.est_iteration_time,
                wb.est_iteration_time,
            ));
            out.push_str(&diff_line(
                "all-reduce + optimizer",
                wa.score - wa.est_iteration_time,
                wb.score - wb.est_iteration_time,
            ));
            out.push_str(&diff_line("bottleneck", wa.bottleneck, wb.bottleneck));

            out.push_str("\nper-stage deltas (pipeline order):\n");
            let common = wa.stages.len().min(wb.stages.len());
            for i in 0..common {
                let (sa, sb) = (&wa.stages[i], &wb.stages[i]);
                out.push_str(&format!(
                    "  stage {i}: fwd {} -> {}, bwd {} -> {}, xfer {} -> {}, \
                     ar {} -> {}, opt {} -> {} ms; devs {} -> {}, mb {} -> {}\n",
                    ms(sa.fwd_time),
                    ms(sb.fwd_time),
                    ms(sa.bwd_time),
                    ms(sb.bwd_time),
                    ms(sa.transfer_time),
                    ms(sb.transfer_time),
                    ms(sa.allreduce_time),
                    ms(sb.allreduce_time),
                    ms(sa.optimizer_time),
                    ms(sb.optimizer_time),
                    sa.devices,
                    sb.devices,
                    sa.micro_batch,
                    sb.micro_batch
                ));
            }
            for (who, w, other) in [("first", wa, common), ("second", wb, common)] {
                for (i, s) in w.stages.iter().enumerate().skip(other) {
                    out.push_str(&format!(
                        "  stage {i} only in the {who} plan: fwd {} ms, bwd {} ms, \
                         {} task(s) on {} device(s)\n",
                        ms(s.fwd_time),
                        ms(s.bwd_time),
                        s.tasks,
                        s.devices
                    ));
                }
            }
        }
        (Some(_), None) => out.push_str("winner: feasible -> INFEASIBLE\n"),
        (None, Some(_)) => out.push_str("winner: INFEASIBLE -> feasible\n"),
        (None, None) => out.push_str("winner: both searches INFEASIBLE\n"),
    }

    let (at, af, ai) = a.totals();
    let (bt, bf, bi) = b.totals();
    out.push_str(&format!(
        "\nsearch: candidates {at} -> {bt}, feasible {af} -> {bf}, infeasible {ai} -> {bi}\n"
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::*;
    use crate::trace::test_guard;

    fn recording(devices: usize, fwd: f64) -> String {
        let rec = Recording {
            context: Some(ContextRec {
                model: "mlp-12l".into(),
                batch_size: 64,
                nodes: 2,
                gpus_per_node: 2,
                total_devices: devices,
                cost_model: "analytical".into(),
            }),
            tiers: vec![TierRec {
                n: 1,
                devices: 2,
                replica_factor: 2,
                candidates: vec![
                    CandidateRec {
                        stages: 1,
                        microbatches: 1,
                        tp: 1,
                        outcome: CandidateOutcome::Feasible {
                            score: fwd * 2.0,
                            bottleneck: fwd,
                        },
                    },
                    CandidateRec {
                        stages: 1,
                        microbatches: 2,
                        tp: 1,
                        outcome: CandidateOutcome::Feasible {
                            score: fwd * 3.0,
                            bottleneck: fwd,
                        },
                    },
                    CandidateRec {
                        stages: 2,
                        microbatches: 1,
                        tp: 1,
                        outcome: CandidateOutcome::Infeasible,
                    },
                ],
            }],
            winner: Some(WinnerRec {
                stages: vec![WinnerStageRec {
                    tasks: 12,
                    devices: 2,
                    tensor_parallel: 1,
                    micro_batch: 32,
                    fwd_time: fwd,
                    bwd_time: fwd * 1.5,
                    transfer_time: 0.0,
                    allreduce_time: 0.001,
                    optimizer_time: 0.0002,
                    mem_estimate_bytes: 3 << 30,
                    mem_certified_bytes: Some(2 << 30),
                    param_elems: 1 << 20,
                }],
                microbatches: 1,
                replica_factor: 2,
                score: fwd * 2.0,
                bottleneck: fwd,
                est_iteration_time: fwd * 2.0 - 0.0,
            }),
            accounting: Some(AccountingRec {
                stage_cache_entries: 7,
                profiler_cache_entries: 11,
            }),
        };
        to_json(&rec)
    }

    #[test]
    fn parse_round_trips_the_recording() {
        let _g = test_guard();
        let text = recording(4, 0.010);
        let rec = Recording::from_json(&text).expect("valid artifact");
        assert_eq!(to_json(&rec), text, "parse→serialize is the identity");
    }

    #[test]
    fn render_shows_breakdown_runner_ups_and_search_account() {
        let text = recording(4, 0.010);
        let out = render(&text, 3).expect("renders");
        assert!(out.contains("mlp-12l"), "{out}");
        assert!(out.contains("stage"), "{out}");
        assert!(
            out.contains("runner-up plans (top 1 of 1 feasible)"),
            "{out}"
        );
        assert!(
            out.contains("3 candidate(s) — 2 feasible, 1 infeasible"),
            "{out}"
        );
        assert!(out.contains("7 stage-cost entries"), "{out}");
    }

    #[test]
    fn render_rejects_corrupt_artifacts() {
        let text = recording(4, 0.010);
        assert!(render(&text[..text.len() / 2], 3).is_err());
        assert!(render_diff(&text, "{}").is_err());
    }

    #[test]
    fn diff_attributes_the_delta() {
        let a = recording(4, 0.010);
        let b = recording(3, 0.014);
        let out = render_diff(&a, &b).expect("diff renders");
        assert!(out.contains("4 -> 3 usable device(s)"), "{out}");
        assert!(out.contains("score"), "{out}");
        assert!(out.contains("stage 0: fwd 10.000 -> 14.000"), "{out}");
        assert!(out.contains("candidates 3 -> 3"), "{out}");
    }
}
