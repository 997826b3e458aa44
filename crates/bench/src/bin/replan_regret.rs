//! Regret of warm replans under cluster churn.
//!
//! `Rannc::repartition` warm-starts from the old plan's stages, so its
//! scan can only merge old stages and cannot raise the stage count; the
//! stage-cut refinement then moves the winner's cuts inside old stages
//! at the same stage count. A cold `partition` on the same
//! cluster is a point in the planner's own search space. This harness
//! replays a churn trace, adopts each warm replan as a churning
//! deployment would, and simulates it against a cold plan of the same
//! planning view: BERT 2048×256 on 16×8 V100s, batch 1024, a seed-7
//! trace of 200 events with mean gap 1500, and
//! `replan_with_backoff(.., 2)`. Measurement only: it prints the
//! per-event warm/cold throughput ratio, the loss/tie/win counts and
//! the mean ratio, and gates nothing.
//!
//! ```sh
//! cargo run --release -p rannc-bench --bin replan_regret [-- --quick] [-- --events N]
//! ```

use rannc::faults::ClusterEventTrace;
use rannc::prelude::*;
use std::time::Instant;

/// Relative throughput difference below which warm and cold tie.
const TIE: f64 = 1e-9;

/// Simulated samples/s of `plan` on `view`, priced by the configured
/// cost model.
fn throughput(
    g: &TaskGraph,
    cfg: &PartitionConfig,
    plan: &PartitionPlan,
    view: &ClusterSpec,
) -> f64 {
    let opts = ProfilerOptions {
        precision: cfg.precision,
        ..ProfilerOptions::fp32()
    };
    let cost = cfg.cost.build(g, view.device.clone(), opts, view);
    rannc::pipeline::simulate_plan(plan, &*cost, view)
        .expect("an adopted plan simulates")
        .throughput
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let events = args
        .iter()
        .position(|a| a == "--events")
        .map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse::<usize>().ok())
                .expect("--events needs a whole number")
        })
        .unwrap_or(if quick { 20 } else { 200 });

    let g = bert_graph(&BertConfig::enlarged(2048, 256));
    let base = ClusterSpec::v100_cluster(16);
    let cfg = PartitionConfig::new(1024);
    let rannc = Rannc::new(cfg.clone());
    let trace = ClusterEventTrace::generate(7, events, &base, 1500);
    let mut plan = rannc.partition(&g, &base).expect("a seed plan");
    let mut cluster = base;

    println!(
        "replan regret on {} ({} tasks), 16x8 V100, batch 1024, {} events",
        g.name,
        g.num_tasks(),
        trace.events().len()
    );
    println!(
        "{:>5} {:>8} {:>6} {:>6} {:>11} {:>11} {:>8} {:>8} {:>8}",
        "event", "devices", "S_warm", "S_cold", "warm/s", "cold/s", "ratio", "warm_ms", "cold_ms"
    );
    let (mut losses, mut ties, mut wins) = (0usize, 0usize, 0usize);
    let mut ratios = Vec::with_capacity(trace.events().len());
    for (i, te) in trace.events().iter().enumerate() {
        cluster = te.event.apply(&cluster).expect("a generated event applies");
        let t = Instant::now();
        let outcome = rannc
            .replan_with_backoff(&g, &plan, &cluster, 2)
            .expect("a churn replan");
        let warm_ms = t.elapsed().as_secs_f64() * 1e3;
        plan = outcome.plan;

        let view = cluster.planning_view();
        let t = Instant::now();
        let cold = rannc.partition(&g, &view).expect("a cold plan");
        let cold_ms = t.elapsed().as_secs_f64() * 1e3;
        let (warm_tp, cold_tp) = (
            throughput(&g, &cfg, &plan, &view),
            throughput(&g, &cfg, &cold, &view),
        );
        let ratio = warm_tp / cold_tp;
        if (ratio - 1.0).abs() <= TIE {
            ties += 1;
        } else if ratio < 1.0 {
            losses += 1;
        } else {
            wins += 1;
        }
        ratios.push(ratio);
        println!(
            "{:>5} {:>8} {:>6} {:>6} {:>11.3} {:>11.3} {:>8.4} {:>8.1} {:>8.1}",
            i,
            view.total_devices(),
            plan.stages.len(),
            cold.stages.len(),
            warm_tp,
            cold_tp,
            ratio,
            warm_ms,
            cold_ms
        );
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    println!(
        "\nwarm vs cold: {losses} loss(es), {ties} tie(s), {wins} win(s); mean ratio {mean:.4}"
    );
}
