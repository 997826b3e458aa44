//! `rannc-plan` — partition a model onto a cluster from the command line.
//!
//! ```sh
//! rannc-plan --model bert --hidden 1024 --layers 24 --nodes 4 --batch 256
//! rannc-plan --model resnet --layers 152 --width-factor 8 --nodes 1 --batch 128
//! rannc-plan --model t5 --hidden 768 --layers 12 --nodes 2 --batch 64 --timeline
//! rannc-plan --model gpt --hidden 768 --layers 12 --nodes 1 --batch 32 --mixed
//! ```
//!
//! Prints the partition plan, the simulated training iteration, and
//! optionally an ASCII timeline (`--timeline`) or a Graphviz dump of the
//! partitioned graph (`--dot FILE`).
//!
//! The `faults` subcommand partitions the model and then plays a fault
//! plan through the churn campaign engine, degrading in place against
//! replanning (the `churn` subcommand plays a generated or loaded
//! cluster-event trace through the same engine):
//!
//! ```sh
//! rannc-plan faults --model mlp --hidden 64 --layers 8 --nodes 2 \
//!     --batch 32 --k 8 --fail 0@50000
//! ```
//!
//! The `verify` subcommand statically checks the task graph, the
//! partition plan (fresh, or a deployment file via `--load`) and both
//! synchronous schedules, printing `RV0xx` diagnostics and exiting
//! nonzero on any error:
//!
//! ```sh
//! rannc-plan verify --model bert --nodes 4 --batch 256
//! rannc-plan verify --model bert --nodes 4 --load plan.rncp
//! ```

mod args;

use args::{Args, ChurnPolicyArg, Command, CostModelArg, ModelKind};
use rannc::faults::ClusterEventTrace;
use rannc::pipeline::viz::render_timeline;
use rannc::pipeline::{ChurnPolicy, ChurnReport, ChurnSimConfig};
use rannc::prelude::*;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            std::process::exit(2);
        }
    };
    if args.help {
        println!("{}", args::USAGE);
        return;
    }
    if args.command == Command::ObsCheck {
        run_obs_check(&args);
        return;
    }
    if args.command == Command::Explain {
        run_explain(&args);
        return;
    }
    // tracing is strictly opt-in: spans allocate nothing until enabled
    if args.trace_out.is_some() {
        rannc::obs::set_enabled(true);
    }
    // …and so is the plan flight recorder
    if args.explain_out.is_some() {
        rannc::obs::recorder::set_enabled(true);
    }

    if args.threads > 0 {
        rannc::core::par::set_threads(args.threads);
    }
    let cost_spec = match &args.cost_model {
        CostModelArg::Analytical => CostModelSpec::Analytical,
        CostModelArg::Calibrated(path) => match Calibration::load(std::path::Path::new(path)) {
            Ok(cal) => {
                eprintln!("loaded cost calibration from {path}");
                CostModelSpec::Calibrated(cal)
            }
            Err(e) => {
                eprintln!("cannot load calibration {path}: {e}");
                std::process::exit(1);
            }
        },
    };
    let graph = build_graph(&args);
    let mut cluster = ClusterSpec::v100_cluster(args.nodes);
    cluster.node.devices = args.gpus_per_node;
    if let Some(gib) = args.memory_gib {
        cluster.device = cluster.device.with_memory(gib << 30);
    }
    eprintln!(
        "model {} | {} tasks | {:.2}M params | cluster {}x{} GPUs ({} GiB each)",
        graph.name,
        graph.num_tasks(),
        graph.param_count() as f64 / 1e6,
        cluster.nodes,
        cluster.node.devices,
        cluster.device.memory_bytes >> 30,
    );

    let precision = if args.mixed {
        Precision::Mixed
    } else {
        Precision::FP32
    };
    let config = PartitionConfig::new(args.batch)
        .with_k(args.k)
        .with_precision(precision)
        .with_noise(args.noise, 42)
        // the verify subcommand reports the full diagnostic set itself
        // rather than letting the partitioner's post-pass abort early
        .with_verify(if args.command == Command::Verify {
            VerifyMode::Off
        } else {
            VerifyMode::Fail
        })
        .with_cost_model(cost_spec.clone())
        .with_tp_max(args.tp_max);

    let rannc = Rannc::new(config);
    let mut plan = if let Some(path) = &args.load {
        // deployment-cache path: reuse a previously saved plan
        match rannc::core::load_plan(std::path::Path::new(path)) {
            Ok(p) => {
                eprintln!("loaded cached plan from {path}");
                p
            }
            Err(e) => {
                eprintln!("invalid plan file {path}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let started = std::time::Instant::now();
        match rannc.partition_with_stats(&graph, &cluster) {
            Ok((p, stats)) => {
                if args.planner_stats {
                    eprintln!(
                        "{}\n  wall clock: {:.3} s",
                        stats.render(),
                        started.elapsed().as_secs_f64()
                    );
                }
                p
            }
            Err(e) => {
                eprintln!("partitioning failed: {e}");
                std::process::exit(1);
            }
        }
    };
    if let Some(path) = &args.save {
        if let Err(e) = rannc::core::save_plan(&plan, std::path::Path::new(path)) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("saved plan to {path}");
    }
    if let Some(rank) = args.lose_device {
        // drop one device and replan; the flight recording (if enabled)
        // now captures the degraded search, so `explain --diff` can
        // attribute the cost of the loss
        let dr = rannc::hw::DeviceRank {
            node: rank / cluster.node.devices,
            local: rank % cluster.node.devices,
        };
        let degraded = match cluster.without_device(dr) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot lose device {rank}: {e}");
                std::process::exit(1);
            }
        };
        match rannc.repartition(&graph, &plan, &degraded) {
            Ok(p) => plan = p,
            Err(e) => {
                eprintln!("replanning after losing device {rank} failed: {e}");
                std::process::exit(1);
            }
        }
        eprintln!("lost device {rank}: replanned for the surviving cluster");
        // downstream simulation runs on the capacity the replanned plan
        // was verified against
        cluster = degraded.planning_view();
    }
    if let Some(path) = &args.explain_out {
        match rannc::obs::recorder::take() {
            Some(rec) => {
                let text = rannc::obs::recorder::to_json(&rec);
                if let Err(e) = std::fs::write(path, text) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("wrote explain artifact to {path} — render with `rannc-plan explain`");
            }
            None => {
                eprintln!(
                    "--explain-out: no search was recorded (a --load'ed plan skips the search)"
                );
                std::process::exit(1);
            }
        }
    }
    println!("{}", plan.summary());

    if args.command == Command::Verify {
        run_verify(&graph, &plan, &cluster, &args, precision);
        finish_obs(&args);
        return;
    }
    let opts = if args.mixed {
        ProfilerOptions::mixed()
    } else {
        ProfilerOptions::fp32()
    };
    let cost = cost_spec.build(&graph, cluster.device.clone(), opts, &cluster);
    if args.command == Command::Faults {
        run_faults(&args, &rannc, &plan, &*cost, &cluster);
        finish_obs(&args);
        return;
    }
    if args.command == Command::Churn {
        run_churn(&args, &rannc, &plan, &*cost, &cluster);
        finish_obs(&args);
        return;
    }
    let spec = rannc::pipeline::spec_from_plan(&plan, &*cost, &cluster).expect("valid plan");
    // trace export needs the per-event timeline even without --timeline
    let want_timeline = args.timeline || args.trace_out.is_some();
    let out = simulate_sync(&spec, SyncSchedule::FillDrain, want_timeline);
    rannc::pipeline::publish_sim_metrics(&out.result);
    println!(
        "simulated iteration: {:.2} ms | throughput {:.1} samples/s | utilization {:.0}%",
        out.result.iteration_time * 1e3,
        out.result.throughput,
        out.result.utilization * 100.0
    );
    if let Some(tl) = out.timeline {
        rannc::pipeline::record_timeline("pipeline", &tl, plan.stages.len());
        if args.timeline {
            println!("\n{}", render_timeline(&tl, plan.stages.len(), 100));
        }
    }
    if let Some(path) = &args.dot {
        let sets: Vec<TaskSet> = plan.stages.iter().map(|s| s.set.clone()).collect();
        let dot = rannc::graph::dot::to_dot(&graph, Some(&sets));
        if let Err(e) = std::fs::write(path, dot) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote partitioned graph to {path}");
    }
    finish_obs(&args);
}

/// Flush the requested observability sinks at the end of a run.
fn finish_obs(args: &Args) {
    if let Some(path) = &args.trace_out {
        match rannc::obs::sink::write_chrome_trace(std::path::Path::new(path)) {
            Ok(()) => eprintln!(
                "wrote Chrome trace to {path} ({} events) — open in https://ui.perfetto.dev",
                rannc::obs::trace::event_count()
            ),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.metrics_out {
        match rannc::obs::sink::write_metrics_jsonl(std::path::Path::new(path)) {
            Ok(()) => eprintln!("wrote metrics log to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if args.obs_summary {
        println!("\n{}", rannc::obs::sink::summary());
    }
}

/// The `explain` subcommand: render one flight recording, or attribute
/// the cost delta between two of them.
fn run_explain(args: &Args) {
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let rendered = if args.explain_diff {
        let a = read(&args.explain_files[0]);
        let b = read(&args.explain_files[1]);
        rannc::obs::explain::render_diff(&a, &b)
    } else {
        rannc::obs::explain::render(&read(&args.explain_files[0]), args.top)
    };
    match rendered {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("invalid explain artifact: {e}");
            std::process::exit(1);
        }
    }
}

/// The `obs-check` subcommand: validate trace/metrics artifacts.
fn run_obs_check(args: &Args) {
    let mut failed = false;
    if let Some(path) = &args.obs_trace {
        match std::fs::read_to_string(path) {
            Ok(text) => match rannc::obs::check::check_trace(&text) {
                Ok(s) => println!(
                    "trace {path}: OK — {} slices across {} lanes ({} metadata events)",
                    s.slices, s.lanes, s.metadata
                ),
                Err(e) => {
                    eprintln!("trace {path}: INVALID — {e}");
                    failed = true;
                }
            },
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                failed = true;
            }
        }
    }
    if let Some(path) = &args.obs_metrics {
        match std::fs::read_to_string(path) {
            Ok(text) => match rannc::obs::check::check_metrics(&text) {
                Ok(s) => println!(
                    "metrics {path}: OK — {} lines ({} counters, {} gauges, {} histograms)",
                    s.lines(),
                    s.counters,
                    s.gauges,
                    s.histograms
                ),
                Err(e) => {
                    eprintln!("metrics {path}: INVALID — {e}");
                    failed = true;
                }
            },
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// The `verify` subcommand: run all three static passes — plus, under
/// `--deep`, the dataflow certification engine (certified peak memory
/// and comm-race checks for both schedules) — and report.
fn run_verify(
    graph: &TaskGraph,
    plan: &rannc::core::PartitionPlan,
    cluster: &ClusterSpec,
    args: &Args,
    precision: Precision,
) {
    use rannc::verify::{verify_graph, verify_plan, verify_schedule};
    let mut report = verify_graph(graph);
    report.merge(verify_plan(graph, &plan.view(), cluster));
    for schedule in [SyncSchedule::FillDrain, SyncSchedule::OneFOneB] {
        report.merge(verify_schedule(
            &schedule.model(plan.stages.len(), plan.microbatches),
        ));
    }
    let mut scope = "graph, plan, and both schedules";
    if args.deep {
        scope = "graph, plan, both schedules, certified memory, and comm programs";
        for schedule in [SyncSchedule::FillDrain, SyncSchedule::OneFOneB] {
            let model = schedule.model(plan.stages.len(), plan.microbatches);
            match plan.certify(graph, cluster, &model, precision) {
                Ok((deep, certified)) => {
                    for (i, c) in certified.iter().enumerate() {
                        eprintln!(
                            "{schedule:?} stage {i}: certified peak {:.2} GiB \
                             (stash depth {}) vs estimate {:.2} GiB on {:.2} GiB device d{}",
                            c.certified_bytes as f64 / (1u64 << 30) as f64,
                            c.stash_depth,
                            c.estimate_bytes as f64 / (1u64 << 30) as f64,
                            c.capacity_bytes as f64 / (1u64 << 30) as f64,
                            c.device,
                        );
                    }
                    report.merge(deep);
                }
                Err(e) => {
                    eprintln!(
                        "cannot derive the communication program: \
                         plan not mappable to devices: {e}"
                    );
                    std::process::exit(1);
                }
            }
        }
    }
    let (errors, warnings) = report.counts();
    if report.is_clean() {
        println!("verification clean: {scope} pass");
    } else {
        print!("{}", report.render());
        println!("{errors} error(s), {warnings} warning(s)");
    }
    if errors > 0 || (args.deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
}

/// The `faults` subcommand: play the fault plan through the churn
/// engine, degrading in place against replanning, with the iterations
/// since the last checkpoint re-executed after each loss.
fn run_faults(
    args: &Args,
    rannc: &Rannc,
    plan: &rannc::core::PartitionPlan,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
) {
    let mut faults = FaultPlan::new(args.seed);
    for &(rank, at_iter) in &args.fail {
        faults.push(FaultEvent::DeviceFail { rank, at_iter });
    }
    for &(rank, slowdown) in &args.straggler {
        faults.push(FaultEvent::Straggler { rank, slowdown });
    }
    if let Some(factor) = args.link_degrade {
        faults.push(FaultEvent::LinkDegrade { factor });
    }
    if let Some(prob) = args.comm_error {
        faults.push(FaultEvent::TransientCommError { prob });
    }
    if faults.is_empty() {
        eprintln!("note: no fault events given; simulating a fault-free campaign");
    }
    let (start, trace) = match faults.to_churn(cluster) {
        Ok(campaign) => campaign,
        Err(e) => {
            eprintln!(
                "fault plan does not fit the {}x{} cluster: {e}",
                cluster.nodes, cluster.node.devices
            );
            std::process::exit(1);
        }
    };

    println!(
        "fault campaign: {} iterations, checkpoint every {}, {} scripted event(s), seed {}",
        args.iterations,
        args.checkpoint_every,
        faults.events().len(),
        args.seed
    );
    let policies = [ChurnPolicy::DegradeInPlace, ChurnPolicy::ReplanAlways];
    run_campaigns(args, rannc, plan, cost, &start, &trace, &policies);
}

/// The `churn` subcommand: play a cluster-event stream against the plan
/// under one or all replanning policies and report the decision logs.
fn run_churn(
    args: &Args,
    rannc: &Rannc,
    plan: &rannc::core::PartitionPlan,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
) {
    let trace = if let Some(path) = &args.churn_trace {
        match ClusterEventTrace::load(std::path::Path::new(path)) {
            Ok(t) => {
                eprintln!(
                    "loaded churn trace from {path} ({} events)",
                    t.events().len()
                );
                t
            }
            Err(e) => {
                eprintln!("cannot load churn trace {path}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        ClusterEventTrace::generate(args.seed, args.events, cluster, args.mean_gap)
    };
    if let Some(path) = &args.save_trace {
        if let Err(e) = trace.save(path) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("saved churn trace to {path}");
    }
    println!(
        "churn campaign: {} iterations, {} event(s), seed {}",
        args.iterations,
        trace.events().len(),
        trace.seed()
    );

    let policies: Vec<ChurnPolicy> = match args.policy {
        ChurnPolicyArg::Replan => vec![ChurnPolicy::ReplanAlways],
        ChurnPolicyArg::Ride => vec![ChurnPolicy::RideItOut],
        ChurnPolicyArg::Degrade => vec![ChurnPolicy::DegradeInPlace],
        ChurnPolicyArg::Adaptive => vec![ChurnPolicy::Adaptive],
        ChurnPolicyArg::All => vec![
            ChurnPolicy::ReplanAlways,
            ChurnPolicy::RideItOut,
            ChurnPolicy::DegradeInPlace,
            ChurnPolicy::Adaptive,
        ],
    };
    run_campaigns(args, rannc, plan, cost, cluster, &trace, &policies);
}

/// Play `trace` from `cluster` under each policy, print every report,
/// and name the best policy when there is a choice. Only a fault plan
/// models checkpoints: its losses re-execute the work since the last one.
fn run_campaigns(
    args: &Args,
    rannc: &Rannc,
    plan: &rannc::core::PartitionPlan,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
    trace: &ClusterEventTrace,
    policies: &[ChurnPolicy],
) {
    let checkpoint_every = (args.command == Command::Faults).then_some(args.checkpoint_every);
    let mut scored: Vec<(ChurnPolicy, f64)> = Vec::new();
    for &policy in policies {
        let cfg = ChurnSimConfig {
            iterations: args.iterations,
            detect_timeout: args.detect_timeout,
            restore_cost: args.restore_cost,
            replan_cost: args.replan_cost,
            policy,
            horizon: args.horizon,
            checkpoint_every,
            ..ChurnSimConfig::default()
        };
        let report = match rannc::pipeline::simulate_churn(rannc, plan, cost, cluster, trace, &cfg)
        {
            Ok(r) => r,
            Err(e) => {
                eprintln!("campaign simulation failed: {e}");
                std::process::exit(1);
            }
        };
        print_churn_report(&cfg, &report);
        scored.push((policy, report.goodput));
    }
    if scored.len() > 1 {
        let best = scored
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one policy ran");
        println!(
            "\nbest policy for this trace: {:?} at {:.1} samples/s",
            best.0, best.1
        );
    }
}

fn print_churn_report(cfg: &ChurnSimConfig, r: &ChurnReport) {
    println!(
        "\npolicy {:?}: {} iterations in {:.1} s | goodput {:.1} samples/s | \
         {} replan(s) | MTTR {:.1} s{}{}",
        cfg.policy,
        r.completed_iterations,
        r.wall_time,
        r.goodput,
        r.replans,
        r.mttr(),
        if cfg.checkpoint_every.is_some() {
            format!(" | {} lost iteration(s)", r.lost_iters())
        } else {
            String::new()
        },
        if r.halted { " | HALTED" } else { "" },
    );
    for d in &r.decisions {
        println!(
            "  iter {:>7} {:<8} -> {:<8} {:.1} s downtime, {:.2} ms/iter{}{}",
            d.at_iter,
            d.event,
            d.action.tag(),
            d.downtime,
            if d.iteration_time.is_finite() {
                d.iteration_time * 1e3
            } else {
                f64::NAN
            },
            if d.moved_bytes > 0 {
                format!(", moved {:.1} MiB", d.moved_bytes as f64 / (1 << 20) as f64)
            } else {
                String::new()
            },
            if d.lost_iters > 0 {
                format!(", re-ran {} iteration(s)", d.lost_iters)
            } else {
                String::new()
            },
        );
    }
}

fn build_graph(args: &Args) -> TaskGraph {
    match args.model {
        ModelKind::Bert => bert_graph(&BertConfig::enlarged(args.hidden, args.layers)),
        ModelKind::Gpt => gpt_graph(&GptConfig::enlarged(args.hidden, args.layers)),
        ModelKind::T5 => {
            let mut cfg = T5Config::base();
            cfg.hidden = args.hidden;
            cfg.heads = (args.hidden / 64).max(1);
            cfg.kv_inner = args.hidden;
            cfg.intermediate = 4 * args.hidden;
            cfg.encoder_layers = args.layers;
            cfg.decoder_layers = args.layers;
            t5_graph(&cfg)
        }
        ModelKind::Resnet => {
            let depth = match args.layers {
                50 => ResNetDepth::R50,
                101 => ResNetDepth::R101,
                152 => ResNetDepth::R152,
                other => {
                    eprintln!("resnet supports --layers 50|101|152, got {other}");
                    std::process::exit(2);
                }
            };
            resnet_graph(&ResNetConfig::new(depth, args.width_factor))
        }
        ModelKind::Mlp => mlp_graph(&MlpConfig::deep(args.hidden, args.hidden, args.layers, 10)),
    }
}
