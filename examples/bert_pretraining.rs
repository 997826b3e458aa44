//! Enlarged-BERT pre-training scenario (the paper's §IV-B headline):
//! sweep model sizes on 32 GPUs, compare RaNNC against every baseline,
//! and find each framework's largest trainable model.
//!
//! ```sh
//! cargo run --release -p rannc --example bert_pretraining
//! ```

use rannc::baselines::{
    gpipe_hybrid, megatron, simulate_data_parallel, BaselineOutcome, TransformerDims,
};
use rannc::prelude::*;

fn main() {
    let cluster = ClusterSpec::v100_cluster(4);
    let batch = 256;
    // a diagonal cut through the paper's grid, up to the 12.9B monster
    let grid = [
        (1024usize, 24usize),
        (1024, 96),
        (1536, 96),
        (2048, 96),
        (2048, 192),
        (2048, 256),
    ];

    println!(
        "{:>18} {:>8} {:>13} {:>13} {:>13} {:>13}",
        "model", "params", "DataParallel", "Megatron-LM", "GPipe-Hybrid", "RaNNC"
    );
    let mut largest = [
        ("DataParallel", 0usize),
        ("Megatron-LM", 0),
        ("GPipe-Hybrid", 0),
        ("RaNNC", 0),
    ];
    for (hidden, layers) in grid {
        let cfg = BertConfig::enlarged(hidden, layers);
        let params = cfg.param_count();
        let g = bert_graph(&cfg);
        let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());

        let dp = match simulate_data_parallel(&g, &profiler, &cluster, batch) {
            BaselineOutcome::Feasible { result, .. } => {
                largest[0].1 = largest[0].1.max(params);
                format!("{:.1}/s", result.throughput)
            }
            _ => "OOM".into(),
        };
        let mega = match megatron(
            &TransformerDims::from(&cfg),
            &cluster,
            batch,
            Precision::FP32,
        ) {
            BaselineOutcome::Feasible { result, .. } => {
                largest[1].1 = largest[1].1.max(params);
                format!("{:.1}/s", result.throughput)
            }
            _ => "OOM".into(),
        };
        let gp = match gpipe_hybrid(&g, &profiler, &cluster, batch) {
            BaselineOutcome::Feasible { result, .. } => {
                largest[2].1 = largest[2].1.max(params);
                format!("{:.1}/s", result.throughput)
            }
            _ => "OOM".into(),
        };
        let ra = match Rannc::new(PartitionConfig::new(batch).with_k(32)).partition(&g, &cluster) {
            Ok(plan) => {
                largest[3].1 = largest[3].1.max(params);
                let sim =
                    rannc::pipeline::simulate_plan(&plan, &profiler, &cluster).expect("valid plan");
                format!("{:.1}/s", sim.throughput)
            }
            Err(PartitionError::Infeasible) => "OOM".into(),
            Err(e) => panic!("unexpected partition error: {e}"),
        };
        println!(
            "{:>18} {:>7.2}B {:>13} {:>13} {:>13} {:>13}",
            cfg.name(),
            params as f64 / 1e9,
            dp,
            mega,
            gp,
            ra
        );
    }

    println!("\nlargest trainable model per framework:");
    for (name, params) in largest {
        println!("  {name:<14} {:.2}B params", params as f64 / 1e9);
    }
    let ratio = largest[3].1 as f64 / largest[1].1.max(1) as f64;
    println!("\nRaNNC / Megatron-LM largest-model ratio: {ratio:.1}x (paper: ~5x)");
}
