//! # rannc-bench
//!
//! Harnesses that regenerate every table and figure of the paper's
//! evaluation (§IV):
//!
//! | paper artifact | binary | library entry |
//! |---|---|---|
//! | Table I (related-work matrix) | `table1` | [`table1_text`] |
//! | Fig. 4 (enlarged BERT throughput) | `fig4_bert` | [`fig4::run`] |
//! | Fig. 5 (enlarged ResNet throughput) | `fig5_resnet` | [`fig5::run`] |
//! | §IV-C coarsening ablation | `coarsening_ablation` | [`ablation::run`] |
//! | §IV-B loss validation | `loss_validation` | re-uses `rannc::train` |
//! | planner block-phase and search time | `planner_bench` | [`planner::run`] |
//! | search score vs simulator rank agreement | `score_regret` | [`regret::TierAgreement`] |
//!
//! Binaries accept `--quick` for a reduced grid (used in CI); the default
//! reproduces the paper's full parameter grid.

pub mod ablation;
pub mod fig4;
pub mod fig5;
pub mod planner;
pub mod regret;
pub mod report;

/// Table I of the paper, reproduced verbatim as a feature matrix.
pub fn table1_text() -> String {
    let rows = [
        (
            "Mesh-TensorFlow / Megatron-LM",
            "Tensor",
            "Yes",
            "Manual",
            "No",
            "Yes",
        ),
        (
            "OptCNN / FlexFlow / Tofu",
            "Tensor",
            "Yes",
            "Auto",
            "No",
            "Yes",
        ),
        ("GPipe", "Graph", "No", "Manual", "No", "Yes"),
        ("AMPNet / XPipe", "Graph", "No", "Manual", "No", "No"),
        ("PipeDream / SpecTrain", "Graph", "Yes", "Auto", "No", "No"),
        (
            "PipeDream-2BW / HetPipe",
            "Graph",
            "Yes",
            "Auto",
            "Yes",
            "No",
        ),
        ("RaNNC (this work)", "Graph", "Yes", "Auto", "Yes", "Yes"),
    ];
    let mut out = String::new();
    out.push_str(&format!(
        "{:<30} {:>8} {:>8} {:>8} {:>8} {:>10}\n",
        "Framework", "Style", "Hybrid", "Mode", "MemEst", "NoStale"
    ));
    out.push_str(&"-".repeat(78));
    out.push('\n');
    for (name, style, hybrid, mode, mem, stale) in rows {
        out.push_str(&format!(
            "{name:<30} {style:>8} {hybrid:>8} {mode:>8} {mem:>8} {stale:>10}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn table1_has_all_rows() {
        let t = super::table1_text();
        assert!(t.contains("RaNNC"));
        assert!(t.contains("GPipe"));
        assert!(t.contains("PipeDream-2BW"));
        assert_eq!(t.lines().count(), 2 + 7);
    }
}
