//! Rank agreement of the search score with the simulator on the Fig. 4
//! and Fig. 5 grids.
//!
//! For every RaNNC cell of both figures (each precision of Fig. 4) it
//! simulates every feasible `(S, MB)` cell of the winning node tier and
//! prints the winner's score/sim error, the error range over the tier,
//! Kendall's τ between the score and simulated orders, and the top-1
//! regret: the simulated time of the score's winner over that of the
//! best simulated cell, minus one. It ends with the number of grid cells
//! whose regret is above zero. Measurement only: it gates nothing.
//!
//! ```sh
//! cargo run --release -p rannc-bench --bin score_regret [-- --quick]
//! ```

use rannc::prelude::*;
use rannc_bench::fig4::Fig4Config;
use rannc_bench::fig5::Fig5Config;
use rannc_bench::regret::TierAgreement;

/// Running totals over the grid.
struct Totals {
    cells: usize,
    regretful: usize,
    /// Smallest and largest score/sim error of a winner.
    error_lo: f64,
    error_hi: f64,
}

/// Measure one grid cell and print its row.
fn row(label: &str, g: &TaskGraph, cluster: &ClusterSpec, cfg: &PartitionConfig, t: &mut Totals) {
    let opts = ProfilerOptions {
        precision: cfg.precision,
        ..ProfilerOptions::fp32()
    };
    let cost = Profiler::new(g, cluster.device.clone(), opts);
    let Some(tier) = TierAgreement::measure(g, &cost, cluster, cfg) else {
        println!("{label:<28} infeasible");
        return;
    };
    let w = tier.winner();
    let (lo, hi) = tier.error_range();
    let regret = tier.regret();
    t.cells += 1;
    t.regretful += usize::from(regret > 0.0);
    t.error_lo = t.error_lo.min(w.error());
    t.error_hi = t.error_hi.max(w.error());
    println!(
        "{label:<28} {:>2} {:>4} {:>3} {:>4} {:>9.3} {:>+8.3}% {:>+8.3}% {:>+8.3}% {:>6.3} {:>7.3}%",
        tier.replica_factor,
        w.stages,
        w.microbatches,
        tier.cells.len(),
        w.sim * 1e3,
        w.error() * 100.0,
        lo * 100.0,
        hi * 100.0,
        tier.kendall_tau(),
        regret * 100.0
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (fig4, fig5) = if quick {
        (Fig4Config::quick(), Fig5Config::quick())
    } else {
        (Fig4Config::paper(), Fig5Config::paper())
    };
    println!(
        "{:<28} {:>2} {:>4} {:>3} {:>4} {:>9} {:>9} {:>9} {:>9} {:>6} {:>8}",
        "cell", "R", "S", "MB", "feas", "sim_ms", "err", "err_lo", "err_hi", "tau", "regret"
    );
    let mut t = Totals {
        cells: 0,
        regretful: 0,
        error_lo: f64::INFINITY,
        error_hi: f64::NEG_INFINITY,
    };
    let cluster = ClusterSpec::v100_cluster(fig4.nodes);
    for &hidden in &fig4.hiddens {
        for &layers in &fig4.layer_counts {
            let g = bert_graph(&BertConfig::enlarged(hidden, layers));
            for precision in [Precision::FP32, Precision::Mixed] {
                let cfg = PartitionConfig::new(fig4.batch)
                    .with_k(fig4.k)
                    .with_precision(precision);
                let label = format!("fig4 {precision:?} {hidden}x{layers}");
                row(&label, &g, &cluster, &cfg, &mut t);
            }
        }
    }
    for &(nodes, batch) in &fig5.settings {
        let cluster = ClusterSpec::v100_cluster(nodes);
        for &depth in &fig5.depths {
            let model = ResNetConfig::new(depth, fig5.width_factor);
            let g = resnet_graph(&model);
            let cfg = PartitionConfig::new(batch).with_k(fig5.k);
            let label = format!("fig5 {} {}gpu", model.name(), cluster.total_devices());
            row(&label, &g, &cluster, &cfg, &mut t);
        }
    }
    println!(
        "\n{} of {} cell(s) with top-1 regret above 0; winners' score/sim error {:+.3}% to {:+.3}%",
        t.regretful,
        t.cells,
        t.error_lo * 100.0,
        t.error_hi * 100.0
    );
}
