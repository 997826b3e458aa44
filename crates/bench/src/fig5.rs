//! Fig. 5 — training throughputs of enlarged (width-8) ResNet models.
//!
//! Paper setting (§IV-B): ResNet{50,101,152} with width factor 8;
//! 32 GPUs (4 nodes) at batch 512 and 8 GPUs (1 node) at batch 128;
//! frameworks: data parallelism, GPipe-Model (single node only, 8 stages,
//! MB=64), RaNNC. Megatron-LM and GPipe-Hybrid are architecture-bound to
//! Transformers and appear as "n/a".

use crate::report::{rannc_cell, Cell, Table};
use rannc::baselines::{gpipe_model, simulate_data_parallel};
use rannc::prelude::*;

/// Grid and environment of a Fig. 5 run.
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// Depths to sweep.
    pub depths: Vec<ResNetDepth>,
    /// Width factor (8 in the paper).
    pub width_factor: usize,
    /// (nodes, batch) settings; paper uses (4, 512) and (1, 128).
    pub settings: Vec<(usize, usize)>,
    /// RaNNC's block count `k`.
    pub k: usize,
}

impl Fig5Config {
    /// The paper's full grid.
    pub fn paper() -> Self {
        Fig5Config {
            depths: vec![ResNetDepth::R50, ResNetDepth::R101, ResNetDepth::R152],
            width_factor: 8,
            settings: vec![(4, 512), (1, 128)],
            k: 32,
        }
    }

    /// Reduced grid for CI / smoke runs.
    pub fn quick() -> Self {
        Fig5Config {
            depths: vec![ResNetDepth::R50],
            width_factor: 4,
            settings: vec![(1, 128)],
            k: 16,
        }
    }
}

/// Column order of the produced tables.
pub const FRAMEWORKS: [&str; 3] = ["DataParallel", "GPipe-Model", "RaNNC"];

/// Run the experiment; one table per (nodes, batch) setting.
pub fn run(cfg: &Fig5Config, verbose: bool) -> Vec<Table> {
    let mut tables = Vec::new();
    for &(nodes, batch) in &cfg.settings {
        let cluster = ClusterSpec::v100_cluster(nodes);
        let mut cols = vec!["model"];
        cols.extend_from_slice(&FRAMEWORKS);
        let mut table = Table::new(
            format!(
                "Fig.5: enlarged ResNet, {} GPUs, batch {batch}",
                cluster.total_devices()
            ),
            &cols,
        );
        for &depth in &cfg.depths {
            let model = ResNetConfig::new(depth, cfg.width_factor);
            if verbose {
                eprintln!(
                    "[fig5] {} on {} GPUs ...",
                    model.name(),
                    cluster.total_devices()
                );
            }
            let cells = run_config(&model, &cluster, batch, cfg.k, nodes == 1);
            table.push_row(model.name(), cells);
        }
        tables.push(table);
    }
    tables
}

/// All framework cells for one ResNet configuration.
pub fn run_config(
    model: &ResNetConfig,
    cluster: &ClusterSpec,
    batch: usize,
    k: usize,
    single_node: bool,
) -> Vec<Cell> {
    let g = resnet_graph(model);
    let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());

    // GPipe-Model can only use a single node (paper §IV-B)
    let gp = if single_node {
        gpipe_model(&g, &profiler, cluster, batch).into()
    } else {
        Cell::NotApplicable
    };
    vec![
        simulate_data_parallel(&g, &profiler, cluster, batch).into(),
        gp,
        rannc_cell(
            &g,
            &profiler,
            cluster,
            PartitionConfig::new(batch).with_k(k),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_resnet_cells() {
        let model = ResNetConfig::tiny();
        let cluster = ClusterSpec::v100_cluster(1);
        let cells = run_config(&model, &cluster, 64, 8, true);
        assert_eq!(cells.len(), FRAMEWORKS.len());
        assert!(
            cells[2].value().is_some(),
            "RaNNC infeasible on tiny resnet"
        );
    }
}
