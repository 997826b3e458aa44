//! Beyond the paper's figures: the same Fig. 4-style comparison on
//! GPT-style decoder models (the architecture family the paper's
//! introduction motivates with GPT-3, and the second family Megatron-LM
//! supports).

use rannc::baselines::{
    gpipe_hybrid, megatron, pipedream_2bw, simulate_data_parallel, TransformerDims,
};
use rannc::prelude::*;
use rannc_bench::report::{rannc_cell, Cell, Table};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let grid: &[(usize, usize)] = if quick {
        &[(768, 12)]
    } else {
        &[(768, 12), (1024, 24), (1536, 48), (2048, 64)]
    };
    let cluster = ClusterSpec::v100_cluster(4);
    let batch = 256;

    let mut table = Table::new(
        "GPT-style models, 32 GPUs, batch 256 (extension)",
        &[
            "model",
            "params",
            "DataParallel",
            "Megatron",
            "GPipe-H",
            "PD-2BW",
            "RaNNC",
        ],
    );
    for &(hidden, layers) in grid {
        let cfg = GptConfig::enlarged(hidden, layers);
        let g = gpt_graph(&cfg);
        eprintln!("[gpt] {} ...", cfg.name());
        let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());

        let dims = TransformerDims::from(&cfg);
        table.push_row(
            cfg.name(),
            vec![
                Cell::Throughput(g.param_count() as f64 / 1e9),
                simulate_data_parallel(&g, &profiler, &cluster, batch).into(),
                megatron(&dims, &cluster, batch, Precision::FP32).into(),
                gpipe_hybrid(&g, &profiler, &cluster, batch).into(),
                pipedream_2bw(&g, &profiler, &cluster, batch).into(),
                rannc_cell(
                    &g,
                    &profiler,
                    &cluster,
                    PartitionConfig::new(batch).with_k(32),
                ),
            ],
        );
    }
    println!("{}", table.render());
    println!("(params column in billions; all other columns samples/s)");
}
