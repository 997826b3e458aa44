//! `planner_bench` — block-phase and partition-search timing.
//!
//! Times the block phase and Algorithm 2 at `--threads` per bundled
//! model, then writes `BENCH_partition.json` with wall-clock numbers and
//! cache counters.
//!
//! ```sh
//! planner_bench                      # full grid, 4 threads
//! planner_bench --quick --check      # CI smoke: small grid + self-validate
//! planner_bench --paper-scale        # + bert-256l/gpt-96l/resnet152x8 at 128-1024 devices
//! planner_bench --threads 8 --out /tmp/bench.json
//! ```
//!
//! With `--check` the binary exits nonzero if the emitted JSON is
//! malformed, a case's profiler hit rate is below
//! [`planner::PROFILER_HIT_RATE_FLOOR`], the DP arena memo never hit on
//! any case (the memoization would be dead weight; a small case may have
//! only single-stage candidates, which never repeat a lookup), or — when
//! tracing is off — the observability layer allocated anything during
//! the timed runs (the zero-overhead-when-disabled contract; the plan
//! flight recorder is held to the same standard). Every check reads the
//! timed run; plan determinism, the recorder's own contract and the
//! cost-model and certification gates live in the test suites.
//!
//! `--trace-out` / `--metrics-out` / `--obs-summary` export the
//! observability artifacts of the run; `--explain-out FILE` writes the
//! flight recording of a full partitioning of the first grid case (after
//! the timed runs, so timings stay unperturbed); `--baseline FILE`
//! compares search times against a committed `BENCH_partition.json` with
//! a 3% + 5 ms budget per case; `--cost-model analytical|calibrated:FILE` prices the
//! searches with a different cost model (the default is the analytical
//! oracle).

use rannc::cost::{Calibration, CostModelSpec};
use rannc_bench::planner;

fn main() {
    let mut quick = false;
    let mut paper = false;
    let mut check = false;
    let mut threads = 4usize;
    let mut repeats = 3usize;
    let mut tp_max = 1usize;
    let mut out = String::from("BENCH_partition.json");
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut explain_out: Option<String> = None;
    let mut obs_summary = false;
    let mut baseline: Option<String> = None;
    let mut cost_spec = CostModelSpec::Analytical;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--paper-scale" => paper = true,
            "--check" => check = true,
            "--trace-out" => {
                trace_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--trace-out needs a path");
                    std::process::exit(2);
                }));
            }
            "--metrics-out" => {
                metrics_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--metrics-out needs a path");
                    std::process::exit(2);
                }));
            }
            "--explain-out" => {
                explain_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--explain-out needs a path");
                    std::process::exit(2);
                }));
            }
            "--obs-summary" => obs_summary = true,
            "--baseline" => {
                baseline = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--baseline needs a path");
                    std::process::exit(2);
                }));
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--threads needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--tp-max" => {
                tp_max = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--tp-max needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--repeat" => {
                repeats = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--repeat needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            "--cost-model" => {
                let v = args.next().unwrap_or_else(|| {
                    eprintln!("--cost-model needs <analytical|calibrated:FILE>");
                    std::process::exit(2);
                });
                cost_spec = match v.as_str() {
                    "analytical" => CostModelSpec::Analytical,
                    other => match other.strip_prefix("calibrated:") {
                        Some(path) if !path.is_empty() => {
                            let cal =
                                Calibration::load(std::path::Path::new(path)).unwrap_or_else(|e| {
                                    eprintln!("cannot load calibration {path}: {e}");
                                    std::process::exit(2);
                                });
                            CostModelSpec::Calibrated(cal)
                        }
                        _ => {
                            eprintln!(
                                "--cost-model expects `analytical` or `calibrated:FILE`, \
                                 got `{v}`"
                            );
                            std::process::exit(2);
                        }
                    },
                };
            }
            "--help" | "-h" => {
                println!(
                    "usage: planner_bench [--quick] [--paper-scale] [--check] [--threads N] \
                     [--repeat N] [--tp-max N] [--out FILE] [--trace-out FILE] [--metrics-out FILE] \
                     [--obs-summary] [--explain-out FILE] [--baseline FILE] \
                     [--cost-model analytical|calibrated:FILE]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }

    // tracing is strictly opt-in so timing runs stay unperturbed
    if trace_out.is_some() {
        rannc::obs::set_enabled(true);
    }

    let report = planner::run(quick, paper, threads, repeats, &cost_spec, tp_max);
    let json = planner::to_json(&report);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "planner_bench: wrote {out} | {} case(s)",
        report.cases.len()
    );

    if let Some(path) = &trace_out {
        if let Err(e) = rannc::obs::sink::write_chrome_trace(std::path::Path::new(path)) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("planner_bench: wrote Chrome trace to {path}");
    }
    if let Some(path) = &metrics_out {
        if let Err(e) = rannc::obs::sink::write_metrics_jsonl(std::path::Path::new(path)) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("planner_bench: wrote metrics log to {path}");
    }
    if obs_summary {
        println!("\n{}", rannc::obs::sink::summary());
    }
    // the explain artifact comes from a dedicated recorded run *after*
    // the timed grid, so recording never perturbs the benchmark numbers
    if let Some(path) = &explain_out {
        let grid = planner::cases(quick);
        let case = grid.first().expect("non-empty grid");
        match planner::explain_artifact(case, threads, &cost_spec) {
            Ok((artifact, _plan)) => {
                if let Err(e) = std::fs::write(path, artifact) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!(
                    "planner_bench: wrote explain artifact ({}) to {path}",
                    case.name
                );
            }
            Err(e) => {
                eprintln!("cannot record explain artifact: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &baseline {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(1);
        });
        match planner::compare_baseline(&report, &text) {
            Ok(lines) => {
                eprintln!("baseline comparison against {path}:\n{}", lines.join("\n"));
            }
            Err(e) => {
                eprintln!("baseline comparison against {path} FAILED:\n{e}");
                std::process::exit(1);
            }
        }
    }

    if check {
        if let Err(e) = planner::validate_json(&json) {
            eprintln!("check failed: emitted JSON is malformed: {e}");
            std::process::exit(1);
        }
        // the zero-overhead contract: with tracing never enabled, the
        // instrumented planner must not have allocated a single trace
        // record during the timed runs above
        if trace_out.is_none() && rannc::obs::trace::alloc_count() != 0 {
            eprintln!(
                "check failed: observability disabled but {} trace allocation(s) recorded",
                rannc::obs::trace::alloc_count()
            );
            std::process::exit(1);
        }
        // the same contract for the plan flight recorder
        if explain_out.is_none() && rannc::obs::recorder::alloc_count() != 0 {
            eprintln!(
                "check failed: recorder disabled but {} recorder allocation(s) recorded",
                rannc::obs::recorder::alloc_count()
            );
            std::process::exit(1);
        }
        let mut failed = false;
        for c in &report.cases {
            // a block's time slot serves every range and variant of its
            // point: a real hit rate, not just a nonzero one, on every case
            if c.profiler_cache.hit_rate() < planner::PROFILER_HIT_RATE_FLOOR {
                eprintln!(
                    "check failed: {} profiler cache hit rate {:.1}% is below the \
                     {:.0}% floor",
                    c.model,
                    c.profiler_cache.hit_rate() * 100.0,
                    planner::PROFILER_HIT_RATE_FLOOR * 100.0
                );
                failed = true;
            }
        }
        if report.cases.iter().all(|c| c.search.stage_cache.hits == 0) {
            eprintln!("check failed: DP arena memo never hit on any case");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "check passed: valid JSON, profiler hit rates above the floor, DP arena \
             memo hits, zero obs allocations while disabled"
        );
    }
}
