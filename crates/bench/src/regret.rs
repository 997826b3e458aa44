//! Rank agreement between the search score and the simulator.
//!
//! Algorithm 2 returns the feasible `(S, MB)` cell of the first feasible
//! node tier with the lowest closed-form score. This module re-runs that
//! tier one cell at a time through public calls (`atomic_partition`,
//! `block_partition`, `RangeTable::build`, `DpCtx` with `form_stage_dp`),
//! turns every feasible cell into a plan with
//! `PartitionPlan::from_solution`, and simulates it. The score agrees
//! with the simulator when the score's winner is also the fastest cell
//! the simulator sees: its *top-1 regret* is zero.
//!
//! Homogeneous clusters and the default `T = 1` grid only, which is what
//! the Fig. 4 and Fig. 5 grids use.

use rannc::core::search::score_solution;
use rannc::core::{
    atomic_partition, block_partition, form_stage_dp, BlockLimits, DpArena, DpCtx, DpParams,
    RangeTable,
};
use rannc::prelude::*;

/// One feasible cell of the winning tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredCell {
    /// Stage count `S`.
    pub stages: usize,
    /// Micro-batch count `MB`.
    pub microbatches: usize,
    /// The search's closed-form iteration time, seconds.
    pub score: f64,
    /// The simulated iteration time of the cell's plan, seconds.
    pub sim: f64,
}

impl ScoredCell {
    /// Relative error of the score against the simulation.
    pub fn error(&self) -> f64 {
        self.score / self.sim - 1.0
    }
}

/// The feasible cells of the first feasible node tier, in grid order.
#[derive(Debug, Clone)]
pub struct TierAgreement {
    /// Whole-pipeline replicas (`R`).
    pub replica_factor: usize,
    /// Every feasible cell, `S` ascending then `MB` ascending.
    pub cells: Vec<ScoredCell>,
    /// Index of the score's winner: the first minimum, as in the search.
    pub winner: usize,
}

impl TierAgreement {
    /// Score and simulate every feasible cell of the winning tier of
    /// `cfg`'s search over `cluster`, priced by `cost`. `None` when no
    /// tier has a feasible cell.
    pub fn measure(
        g: &TaskGraph,
        cost: &dyn CostModel,
        cluster: &ClusterSpec,
        cfg: &PartitionConfig,
    ) -> Option<Self> {
        assert!(!cluster.is_heterogeneous(), "homogeneous clusters only");
        let mem_limit = cluster.device.memory_bytes;
        let blocks = block_partition(
            g,
            cost,
            &atomic_partition(g),
            BlockLimits {
                k: cfg.k,
                mem_limit,
                profile_batch: cfg.profile_batch,
            },
        );
        let ranges = RangeTable::build(cost, &blocks);
        let mut arena = DpArena::new();
        let d_node = cluster.node.devices;
        let mut n = 1;
        while n <= cluster.nodes {
            let r = (cluster.nodes / n).max(1);
            let mut cells = Vec::new();
            for s in (d_node * (n - 1) + 1)..=(d_node * n) {
                let mut mb = 1;
                while mb <= cfg.batch_size / r {
                    let p = DpParams {
                        stages: s,
                        devices: d_node * n,
                        batch_size: cfg.batch_size,
                        replica_factor: r,
                        microbatches: mb,
                        mem_limit,
                        tp: 1,
                    };
                    let ctx = DpCtx::new(cost, &ranges, cluster, None, &p);
                    if let Some(sol) = form_stage_dp(&ctx, &mut arena) {
                        let plan = PartitionPlan::from_solution(g.name.clone(), &sol, p.batch_size);
                        let sim =
                            simulate_plan(&plan, cost, cluster).expect("a feasible cell simulates");
                        cells.push(ScoredCell {
                            stages: s,
                            microbatches: mb,
                            score: score_solution(&sol, cluster, cost),
                            sim: sim.iteration_time,
                        });
                    }
                    mb *= 2;
                }
            }
            // min_by keeps the first minimum, as the search does
            let winner = (cells.iter().enumerate())
                .min_by(|a, b| a.1.score.total_cmp(&b.1.score))
                .map(|(i, _)| i);
            if let Some(winner) = winner {
                return Some(TierAgreement {
                    replica_factor: r,
                    cells,
                    winner,
                });
            }
            n *= 2;
        }
        None
    }

    /// The score's winner.
    pub fn winner(&self) -> &ScoredCell {
        &self.cells[self.winner]
    }

    /// The fastest simulated iteration among the tier's cells, seconds.
    pub fn best_sim(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| c.sim)
            .fold(f64::INFINITY, f64::min)
    }

    /// Top-1 regret: the winner's simulated time over the best simulated
    /// cell's, minus one. Zero when the score picks the fastest cell.
    pub fn regret(&self) -> f64 {
        self.winner().sim / self.best_sim() - 1.0
    }

    /// Smallest and largest score/sim error over the tier's cells.
    pub fn error_range(&self) -> (f64, f64) {
        self.cells
            .iter()
            .map(ScoredCell::error)
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), e| {
                (lo.min(e), hi.max(e))
            })
    }

    /// Kendall's τ between the score and simulated orders of the cells:
    /// concordant minus discordant pairs over all pairs, a pair tied in
    /// either order counting as neither. 1 for fewer than two cells.
    pub fn kendall_tau(&self) -> f64 {
        let n = self.cells.len();
        if n < 2 {
            return 1.0;
        }
        let mut net = 0i64;
        for (i, a) in self.cells.iter().enumerate() {
            for b in &self.cells[i + 1..] {
                let by_score = a.score.total_cmp(&b.score) as i64;
                let by_sim = a.sim.total_cmp(&b.sim) as i64;
                net += by_score * by_sim;
            }
        }
        net as f64 / (n * (n - 1) / 2) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(score: f64, sim: f64) -> ScoredCell {
        ScoredCell {
            stages: 1,
            microbatches: 1,
            score,
            sim,
        }
    }

    fn tier(cells: Vec<ScoredCell>, winner: usize) -> TierAgreement {
        TierAgreement {
            replica_factor: 1,
            cells,
            winner,
        }
    }

    #[test]
    fn tau_and_regret_of_hand_orders() {
        let agree = tier(vec![cell(1.0, 1.1), cell(2.0, 2.1), cell(3.0, 3.1)], 0);
        assert_eq!(agree.kendall_tau(), 1.0);
        assert_eq!(agree.regret(), 0.0);
        let reversed = tier(vec![cell(1.0, 3.0), cell(2.0, 2.0), cell(3.0, 1.5)], 0);
        assert_eq!(reversed.kendall_tau(), -1.0);
        assert_eq!(reversed.regret(), 1.0);
        // a tie in one order is neither concordant nor discordant
        let tied = tier(vec![cell(1.0, 1.0), cell(1.0, 2.0)], 0);
        assert_eq!(tied.kendall_tau(), 0.0);
        assert_eq!(tier(vec![cell(1.0, 1.0)], 0).kendall_tau(), 1.0);
        let (lo, hi) = reversed.error_range();
        assert!((lo - (1.0 / 3.0 - 1.0)).abs() < 1e-12 && (hi - 1.0).abs() < 1e-12);
    }

    /// Fig. 4's mixed-precision BERT 1024×24 cell (4×8 V100, batch 256,
    /// k 32): the planner's plan simulates at least as fast as every
    /// feasible cell of its tier. A score without the optimizer step and
    /// with a different node-spanning rule from the simulator's picked a
    /// plan 0.54% slower than the tier's best here.
    #[test]
    fn fig4_mixed_1024x24_plan_is_the_fastest_cell_of_its_tier() {
        let g = bert_graph(&BertConfig::enlarged(1024, 24));
        let cluster = ClusterSpec::v100_cluster(4);
        let cfg = PartitionConfig::new(256)
            .with_k(32)
            .with_precision(Precision::Mixed);
        let cost = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::mixed());
        let plan = Rannc::new(cfg.clone()).partition(&g, &cluster).unwrap();
        let planned = simulate_plan(&plan, &cost, &cluster)
            .unwrap()
            .iteration_time;
        let tier = TierAgreement::measure(&g, &cost, &cluster, &cfg).unwrap();
        assert_eq!(tier.replica_factor, plan.replica_factor);
        assert!(tier.cells.len() > 1, "a tier of one cell tests nothing");
        for c in &tier.cells {
            assert!(
                planned <= c.sim,
                "plan S={} MB={} simulates {planned} s, cell S={} MB={} {} s",
                plan.stages.len(),
                plan.microbatches,
                c.stages,
                c.microbatches,
                c.sim
            );
        }
        assert_eq!(tier.regret(), 0.0);
    }
}
