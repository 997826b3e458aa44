//! Fig. 4 — training throughputs of enlarged BERT models.
//!
//! Paper setting (§IV-B): hidden ∈ {1024, 1536, 2048}, layers ∈
//! {24, 48, 96, 144, 192, 256}, 32 GPUs (4 nodes), batch 256, seq 512.
//! Frameworks: data parallelism, Megatron-LM (FP32 + mixed),
//! GPipe-Hybrid, PipeDream-2BW, RaNNC (FP32 + mixed). GPipe-Hybrid and
//! PipeDream-2BW do not support mixed precision (§IV-B).

use crate::report::{rannc_cell, Cell, Table};
use rannc::baselines::{
    gpipe_hybrid, megatron, pipedream_2bw, simulate_data_parallel, TransformerDims,
};
use rannc::prelude::*;

/// Grid and environment of a Fig. 4 run.
#[derive(Debug, Clone)]
pub struct Fig4Config {
    /// Hidden sizes to sweep.
    pub hiddens: Vec<usize>,
    /// Layer counts to sweep.
    pub layer_counts: Vec<usize>,
    /// Compute nodes (× 8 V100s each).
    pub nodes: usize,
    /// Global batch size.
    pub batch: usize,
    /// RaNNC's block count `k`.
    pub k: usize,
}

impl Fig4Config {
    /// The paper's full grid.
    pub fn paper() -> Self {
        Fig4Config {
            hiddens: vec![1024, 1536, 2048],
            layer_counts: vec![24, 48, 96, 144, 192, 256],
            nodes: 4,
            batch: 256,
            k: 32,
        }
    }

    /// A reduced grid for CI / smoke runs.
    pub fn quick() -> Self {
        Fig4Config {
            hiddens: vec![1024, 2048],
            layer_counts: vec![24, 96],
            nodes: 4,
            batch: 256,
            k: 16,
        }
    }
}

/// Column order of the produced tables.
pub const FRAMEWORKS: [&str; 7] = [
    "DataParallel",
    "Megatron(fp32)",
    "Megatron(mixed)",
    "GPipe-Hybrid",
    "PipeDream-2BW",
    "RaNNC(fp32)",
    "RaNNC(mixed)",
];

/// Run the experiment; one table per hidden size.
pub fn run(cfg: &Fig4Config, verbose: bool) -> Vec<Table> {
    let cluster = ClusterSpec::v100_cluster(cfg.nodes);
    let mut tables = Vec::new();
    for &hidden in &cfg.hiddens {
        let mut cols = vec!["layers"];
        cols.extend_from_slice(&FRAMEWORKS);
        let mut table = Table::new(
            format!(
                "Fig.4: enlarged BERT, hidden={hidden}, {} GPUs, batch {}",
                cluster.total_devices(),
                cfg.batch
            ),
            &cols,
        );
        for &layers in &cfg.layer_counts {
            if verbose {
                eprintln!("[fig4] hidden={hidden} layers={layers} ...");
            }
            let cells = run_config(&BertConfig::enlarged(hidden, layers), &cluster, cfg);
            table.push_row(layers.to_string(), cells);
        }
        tables.push(table);
    }
    tables
}

/// All framework cells for one model configuration.
pub fn run_config(bert: &BertConfig, cluster: &ClusterSpec, cfg: &Fig4Config) -> Vec<Cell> {
    let g = bert_graph(bert);
    let dims = TransformerDims::from(bert);
    let prof32 = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
    let prof16 = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::mixed());

    let rannc = |cost: &Profiler<'_>, precision| {
        let config = PartitionConfig::new(cfg.batch)
            .with_k(cfg.k)
            .with_precision(precision);
        rannc_cell(&g, cost, cluster, config)
    };
    vec![
        simulate_data_parallel(&g, &prof32, cluster, cfg.batch).into(),
        megatron(&dims, cluster, cfg.batch, Precision::FP32).into(),
        megatron(&dims, cluster, cfg.batch, Precision::Mixed).into(),
        gpipe_hybrid(&g, &prof32, cluster, cfg.batch).into(),
        pipedream_2bw(&g, &prof32, cluster, cfg.batch).into(),
        rannc(&prof32, Precision::FP32),
        rannc(&prof16, Precision::Mixed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest Fig. 4 cell set with a tiny model, checking shapes the
    /// paper reports: RaNNC trains it, throughput positive everywhere
    /// feasible.
    #[test]
    fn tiny_grid_produces_cells() {
        let cfg = Fig4Config {
            hiddens: vec![128],
            layer_counts: vec![4],
            nodes: 1,
            batch: 32,
            k: 8,
        };
        let cluster = ClusterSpec::v100_cluster(1);
        let cells = run_config(&BertConfig::enlarged(128, 4), &cluster, &cfg);
        assert_eq!(cells.len(), FRAMEWORKS.len());
        // RaNNC fp32 must be feasible on a small model
        assert!(cells[5].value().is_some(), "RaNNC fp32 infeasible?");
        // mixed precision RaNNC should beat fp32 RaNNC
        let (r32, r16) = (cells[5].value().unwrap(), cells[6].value().unwrap());
        assert!(r16 > r32, "mixed {r16} <= fp32 {r32}");
    }
}
