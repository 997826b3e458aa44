//! Design-choice ablation: the block count `k`.
//!
//! §IV-A: "we set k to 32, which we think balances the quality of model
//! partitioning results and the search space for model partitioning."
//! This harness makes that trade-off measurable: sweep `k`, and for each
//! point report the tier scan winner's throughput (cuts on block
//! boundaries) beside the refined plan's (Algorithm 2's last step re-cuts
//! the winner at atom granularity), with the planning wall time of each:
//! the block phase plus the scan, and a whole `Rannc::partition` call.

use rannc::core::{atomic_partition, block_partition, scan_first_feasible_tier, BlockLimits};
use rannc::prelude::*;
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (hidden, layers) = if quick { (256, 8) } else { (1024, 48) };
    let cfg = BertConfig::enlarged(hidden, layers);
    let g = bert_graph(&cfg);
    // memory pressure makes k matter: stages must balance under a bound
    let mut cluster = ClusterSpec::v100_cluster(4);
    let states_gib = (g.param_count() * 16) >> 30;
    cluster.device = cluster
        .device
        .with_memory(((states_gib / 4).max(2) + 2) << 30);
    let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
    let simulate = |plan: &PartitionPlan| {
        rannc::pipeline::simulate_plan(plan, &profiler, &cluster)
            .expect("valid plan")
            .throughput
    };

    println!(
        "k-sweep on {} ({} tasks), 32 GPUs, batch 256",
        cfg.name(),
        g.num_tasks()
    );
    println!(
        "{:>5} {:>7} {:>5} {:>10} {:>8} {:>10} {:>8}",
        "k", "stages", "MB", "scan/s", "scan_s", "refined/s", "plan_s"
    );
    for k in [4usize, 8, 16, 32, 64, 128] {
        let config = PartitionConfig::new(256).with_k(k);
        let t0 = Instant::now();
        let blocks = block_partition(
            &g,
            &profiler,
            &atomic_partition(&g),
            BlockLimits::for_request(&config, &cluster),
        );
        let scan =
            scan_first_feasible_tier(&g, &profiler, &blocks, &cluster, 256, &config.search).0;
        let scan_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let refined = Rannc::new(config).partition(&g, &cluster);
        let plan_s = t0.elapsed().as_secs_f64();
        match (scan, refined) {
            (Some(scan), Ok(plan)) => {
                let winner = scan.winner.expect("a feasible tier has a winner");
                let (_, winner) = scan.cells[winner].solved().expect("feasible");
                let unrefined = PartitionPlan::from_solution(g.name.clone(), winner, 256);
                println!(
                    "{:>5} {:>7} {:>5} {:>10.1} {:>8.2} {:>10.1} {:>8.2}",
                    k,
                    plan.stages.len(),
                    plan.microbatches,
                    simulate(&unrefined),
                    scan_s,
                    simulate(&plan),
                    plan_s
                );
            }
            (_, Err(e)) => println!("{k:>5}  {e}"),
            (None, Ok(_)) => unreachable!("the scan found no plan the partition found"),
        }
    }
    println!(
        "\n(scan: the winner's cuts on block boundaries; refined: re-cut at atom granularity.\n \
         small k: fast search, coarse blocks; large k: finer blocks, slower search)"
    );
}
