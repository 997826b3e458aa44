//! §IV-C — effect of coarsening.
//!
//! Compares full RaNNC against the no-coarsening variant (stage-level DP
//! straight over atomic subcomponents with additive cost estimation).
//! Paper results at hidden 1024: the variant trains at most 48 layers,
//! its throughput is ~33 % lower, and beyond 48 layers the search "did
//! not finish in 24 hours" — reproduced here with a configurable search
//! budget instead of a day.

use crate::report::{Cell, Table};
use rannc::core::ablation::{form_stage_dp_no_coarsening, AblationOutcome};
use rannc::core::{atomic_partition, tier_grids, PartitionPlan};
use rannc::prelude::*;
use std::time::{Duration, Instant};

/// Configuration of the ablation sweep.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Hidden size (paper: 1024).
    pub hidden: usize,
    /// Layer counts to sweep (paper discusses 24, 48 and beyond).
    pub layer_counts: Vec<usize>,
    /// Nodes (× 8 GPUs).
    pub nodes: usize,
    /// Global batch size.
    pub batch: usize,
    /// Search budget for the no-coarsening variant (stands in for the
    /// paper's 24-hour cutoff).
    pub budget: Duration,
    /// RaNNC's block count `k`.
    pub k: usize,
}

impl AblationConfig {
    /// A paper-shaped sweep scaled to the simulator (full 1024-hidden
    /// models with a generous budget).
    pub fn paper() -> Self {
        AblationConfig {
            hidden: 1024,
            layer_counts: vec![24, 48, 96],
            nodes: 4,
            batch: 256,
            budget: Duration::from_secs(300),
            k: 32,
        }
    }

    /// Reduced version for CI.
    pub fn quick() -> Self {
        AblationConfig {
            hidden: 256,
            layer_counts: vec![4, 8],
            nodes: 1,
            batch: 64,
            budget: Duration::from_secs(30),
            k: 8,
        }
    }
}

/// One row of the ablation result.
#[derive(Debug)]
pub struct AblationRow {
    /// Layer count.
    pub layers: usize,
    /// Full RaNNC throughput (samples/s) and search seconds.
    pub with_coarsening: (Cell, f64),
    /// No-coarsening throughput and search seconds.
    pub without_coarsening: (Cell, f64),
}

/// Run the sweep.
pub fn run(cfg: &AblationConfig, verbose: bool) -> (Table, Vec<AblationRow>) {
    let cluster = ClusterSpec::v100_cluster(cfg.nodes);
    let mut table = Table::new(
        format!(
            "§IV-C coarsening ablation, hidden={}, {} GPUs, batch {}",
            cfg.hidden,
            cluster.total_devices(),
            cfg.batch
        ),
        &["layers", "RaNNC", "search_s", "no-coarsening", "search_s"],
    );
    let mut rows = Vec::new();
    for &layers in &cfg.layer_counts {
        if verbose {
            eprintln!("[ablation] layers={layers} ...");
        }
        let bert = BertConfig::enlarged(cfg.hidden, layers);
        let g = bert_graph(&bert);
        let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());

        // full RaNNC
        let t0 = Instant::now();
        let with = match Rannc::new(PartitionConfig::new(cfg.batch).with_k(cfg.k))
            .partition(&g, &cluster)
        {
            Ok(plan) => {
                let sim =
                    rannc::pipeline::simulate_plan(&plan, &profiler, &cluster).expect("valid plan");
                Cell::Throughput(sim.throughput)
            }
            Err(_) => Cell::Oom,
        };
        let with_secs = t0.elapsed().as_secs_f64();

        // no coarsening: atomic components straight into the DP over
        // Algorithm 2's grids
        let t0 = Instant::now();
        let without = run_no_coarsening(&g, &profiler, &cluster, cfg);
        let without_secs = t0.elapsed().as_secs_f64();

        table.push_row(
            layers.to_string(),
            vec![
                with.clone(),
                Cell::Throughput(with_secs),
                without.clone(),
                Cell::Throughput(without_secs),
            ],
        );
        rows.push(AblationRow {
            layers,
            with_coarsening: (with, with_secs),
            without_coarsening: (without, without_secs),
        });
    }
    (table, rows)
}

/// The §IV-C variant: the additive DP over Algorithm 2's node tiers and
/// `(S, MB)` grids ([`tier_grids`]). Unlike the search it stops at the
/// first stage count `S` with a feasible cell, and picks that `S`'s
/// micro-batch count by simulated iteration time, not by score.
pub fn run_no_coarsening(
    g: &TaskGraph,
    profiler: &Profiler<'_>,
    cluster: &ClusterSpec,
    cfg: &AblationConfig,
) -> Cell {
    let atomic = atomic_partition(g);
    let deadline = Instant::now() + cfg.budget;
    for tier in tier_grids(cluster, cfg.batch, 1) {
        for cells in tier.cells.chunk_by(|a, b| a.stages == b.stages) {
            let mut best: Option<f64> = None;
            for params in cells {
                if Instant::now() > deadline {
                    return Cell::Dnf;
                }
                let remaining = deadline.saturating_duration_since(Instant::now());
                match form_stage_dp_no_coarsening(g, profiler, &atomic, params, remaining) {
                    AblationOutcome::Solved(sol) => {
                        let plan = PartitionPlan::from_solution(g.name.clone(), &sol, cfg.batch);
                        let sim = rannc::pipeline::simulate_plan(&plan, profiler, cluster)
                            .expect("valid plan");
                        if best.is_none_or(|t| sim.iteration_time < t) {
                            best = Some(sim.iteration_time);
                        }
                    }
                    AblationOutcome::Infeasible => {}
                    AblationOutcome::TimedOut { .. } => return Cell::Dnf,
                }
            }
            if let Some(t) = best {
                return Cell::Throughput(cfg.batch as f64 / t);
            }
        }
    }
    Cell::Oom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_ablation_shows_direction() {
        let cfg = AblationConfig::quick();
        let (_table, rows) = run(&cfg, false);
        // smallest model: both succeed, no-coarsening no faster than RaNNC
        let first = &rows[0];
        let with = first.with_coarsening.0.value().expect("RaNNC feasible");
        match first.without_coarsening.0.value() {
            Some(wo) => assert!(
                wo <= with * 1.05,
                "no-coarsening ({wo}) should not beat RaNNC ({with})"
            ),
            None => { /* OOM/DNF also matches the paper's direction */ }
        }
    }
}
