//! Migration-cost model: what a replan *costs to adopt*.
//!
//! When churn forces a new partition, the cluster does not get the new
//! plan for free: every parameter that lands on a different device group
//! must be shipped over the interconnect together with its FP32 master
//! copy and Adam moments, and training stands still while the transfer
//! and pipeline re-fill happen. This module prices that adoption so the
//! replanning policy can weigh "better steady-state plan" against
//! "steps of training lost switching to it".
//!
//! The formula, documented in DESIGN.md §12:
//!
//! ```text
//! param_bytes     = moved_elems · (weight + master-copy bytes/elem)
//! optimizer_bytes = moved_elems · 8            (Adam FP32 moments)
//! transfer_time   = latency + (param_bytes + optimizer_bytes) / bandwidth
//! downtime_steps  = ceil((transfer_time + refill_time) / iteration_time)
//! ```
//!
//! where the link is the cluster's conservative planning interconnect
//! (slowest inter-node link when nodes span, per the same footnote-3
//! pessimism the planner uses) and `refill_time` is one fill–drain
//! pipeline ramp (`(S − 1) · bottleneck`).

use rannc_hw::{ClusterSpec, LinkSpec, Precision};
use rannc_profile::memory::ADAM_BYTES_PER_PARAM;

/// Priced cost of migrating state to adopt a new plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCost {
    /// Weight bytes moved (compute-precision weights + FP32 master copy).
    pub param_bytes: usize,
    /// Optimizer-state bytes moved (Adam FP32 moments).
    pub optimizer_bytes: usize,
    /// Wall-clock seconds the transfer takes on the migration link.
    pub transfer_time: f64,
    /// Whole training iterations lost to the switch (transfer plus one
    /// pipeline re-fill, rounded up; at least 1 when anything moves).
    pub downtime_steps: usize,
}

impl MigrationCost {
    /// The zero cost: nothing moved, nothing lost.
    pub fn zero() -> Self {
        MigrationCost {
            param_bytes: 0,
            optimizer_bytes: 0,
            transfer_time: 0.0,
            downtime_steps: 0,
        }
    }

    /// Total bytes crossing the interconnect.
    pub fn total_bytes(&self) -> usize {
        self.param_bytes + self.optimizer_bytes
    }

    /// Wall-clock seconds of lost training the switch costs.
    pub fn downtime(&self, iteration_time: f64) -> f64 {
        self.downtime_steps as f64 * iteration_time
    }
}

/// Prices plan migrations for one cluster + precision regime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationModel {
    /// Link the moved state crosses.
    pub link: LinkSpec,
    /// Training precision (sets bytes per parameter element).
    pub precision: Precision,
}

impl MigrationModel {
    /// Model for a cluster: single-node clusters migrate over the intra
    /// link, multi-node clusters over the slowest inter-node link (the
    /// conservative choice — state may cross any pair of nodes).
    pub fn for_cluster(cluster: &ClusterSpec, precision: Precision) -> Self {
        let link = if cluster.nodes > 1 {
            cluster.slowest_inter_link()
        } else {
            cluster.slowest_intra_link()
        };
        MigrationModel { link, precision }
    }

    /// Weight bytes per moved parameter element (compute-precision copy
    /// plus the FP32 master copy under mixed precision).
    pub fn weight_bytes_per_param(&self) -> usize {
        self.precision.weight_bytes() + self.precision.master_copy_bytes()
    }

    /// Price moving `moved_elems` parameter elements, for a pipeline of
    /// `stages` stages with the given bottleneck and iteration time.
    ///
    /// Zero moved elements is genuinely free: no transfer, no re-fill,
    /// no downtime — adopting a plan identical to the current one must
    /// never be charged.
    pub fn price(
        &self,
        moved_elems: usize,
        stages: usize,
        bottleneck: f64,
        iteration_time: f64,
    ) -> MigrationCost {
        if moved_elems == 0 {
            return MigrationCost::zero();
        }
        let param_bytes = moved_elems * self.weight_bytes_per_param();
        let optimizer_bytes = moved_elems * ADAM_BYTES_PER_PARAM;
        let transfer_time = self.link.transfer_time(param_bytes + optimizer_bytes);
        let refill = stages.saturating_sub(1) as f64 * bottleneck;
        let downtime_steps = if iteration_time > 0.0 {
            ((transfer_time + refill) / iteration_time).ceil().max(1.0) as usize
        } else {
            1
        };
        MigrationCost {
            param_bytes,
            optimizer_bytes,
            transfer_time,
            downtime_steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_move_is_free() {
        let m = MigrationModel::for_cluster(&ClusterSpec::v100_cluster(2), Precision::Mixed);
        let c = m.price(0, 4, 0.1, 0.5);
        assert_eq!(c, MigrationCost::zero());
        assert_eq!(c.total_bytes(), 0);
        assert_eq!(c.downtime(0.5), 0.0);
    }

    #[test]
    fn mixed_precision_moves_weights_master_and_moments() {
        let m = MigrationModel::for_cluster(&ClusterSpec::v100_cluster(2), Precision::Mixed);
        // mixed: 2-byte weights + 4-byte master copy
        assert_eq!(m.weight_bytes_per_param(), 6);
        let c = m.price(1_000_000, 4, 0.1, 0.5);
        assert_eq!(c.param_bytes, 6_000_000);
        assert_eq!(c.optimizer_bytes, 8_000_000);
        assert!(c.transfer_time > 0.0);
        assert!(c.downtime_steps >= 1);
    }

    #[test]
    fn single_node_migrates_over_the_intra_link() {
        let single = MigrationModel::for_cluster(&ClusterSpec::v100_cluster(1), Precision::FP32);
        let multi = MigrationModel::for_cluster(&ClusterSpec::v100_cluster(2), Precision::FP32);
        assert!(single.link.bandwidth > multi.link.bandwidth);
        // same payload, slower link, longer transfer
        let a = single.price(1 << 24, 2, 0.1, 0.5);
        let b = multi.price(1 << 24, 2, 0.1, 0.5);
        assert!(a.transfer_time < b.transfer_time);
    }

    #[test]
    fn downtime_includes_pipeline_refill() {
        let m = MigrationModel::for_cluster(&ClusterSpec::v100_cluster(2), Precision::FP32);
        // tiny payload: transfer is negligible, refill dominates
        let shallow = m.price(1, 1, 1.0, 1.0);
        let deep = m.price(1, 9, 1.0, 1.0);
        assert!(deep.downtime_steps > shallow.downtime_steps);
        assert_eq!(shallow.downtime_steps, 1); // floor: a switch never costs 0 steps
    }
}
