//! Pluggable cost models — the single pricing layer for the planner,
//! the simulators, the baselines, and fault replanning.
//!
//! RaNNC's partitioner is driven by one conceptual oracle: `profile(U,
//! batch)` for stage compute and memory, an α–β link model for
//! activation transfers, and a ring model for gradient all-reduce. This
//! crate gathers those formulas behind the [`CostModel`] trait so every
//! consumer prices a plan through exactly the same code path. Two
//! implementations ship:
//!
//! * the raw [`Profiler`](rannc_profile::Profiler) — the analytical
//!   model: its roofline plus the `rannc-hw` link/collective formulas,
//!   bit-identical to calling them directly, so code holding a
//!   `Profiler` passes it anywhere a `&dyn CostModel` is expected;
//! * [`CalibratedCost`] — the analytical model with per-operator and
//!   per-link correction factors loaded from a JSON [`Calibration`]
//!   file (e.g. fitted from `rannc-obs` trace exports).
//!
//! A synchronous iteration has one closed form, [`sync_iteration_time`]:
//! the search scores with it, and the simulators append its
//! [`IterationTail`].

#![warn(missing_docs)]

mod calibration;
mod iteration;
mod migration;
mod model;

pub use calibration::{Calibration, CalibrationError, CALIBRATION_VERSION};
pub use iteration::{sync_iteration_time, sync_pipeline_iteration, IterationTail, StageGrads};
pub use migration::{MigrationCost, MigrationModel};
pub use model::{CalibratedCost, CostModel, CostModelSpec};

use rannc_hw::{ClusterSpec, DeviceSpec};

/// Scalar correction factors a cost model hands to value types that
/// cannot hold a trait object (notably `PipelineSpec`, a plain value
/// priced long after the model is gone).
///
/// All factors default to `1.0`; multiplying by `1.0` is bit-identical
/// for every finite IEEE-754 value, so the identity factors reproduce
/// the uncalibrated formulas exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostFactors {
    /// Scales point-to-point activation transfer time.
    pub transfer: f64,
    /// Scales gradient all-reduce time for single-node groups.
    pub allreduce_intra: f64,
    /// Scales gradient all-reduce time for node-spanning groups.
    pub allreduce_inter: f64,
    /// Scales optimizer-step time.
    pub optimizer: f64,
}

impl CostFactors {
    /// The identity factors: every formula unchanged, bit-for-bit.
    pub fn identity() -> Self {
        CostFactors {
            transfer: 1.0,
            allreduce_intra: 1.0,
            allreduce_inter: 1.0,
            optimizer: 1.0,
        }
    }

    /// Gradient all-reduce time of `bytes` over a group of `group`
    /// devices, crossing nodes or not, at the matching factor.
    pub fn allreduce_time(
        &self,
        cluster: &ClusterSpec,
        bytes: usize,
        group: usize,
        spans_nodes: bool,
    ) -> f64 {
        let factor = if spans_nodes {
            self.allreduce_inter
        } else {
            self.allreduce_intra
        };
        cluster.replica_allreduce_time(bytes, group, spans_nodes) * factor
    }

    /// Time of one optimizer (Adam) step over `grad_bytes` of gradients.
    pub fn optimizer_time(&self, device: &DeviceSpec, grad_bytes: usize) -> f64 {
        device.optimizer_step_time(grad_bytes) * self.optimizer
    }
}

impl Default for CostFactors {
    fn default() -> Self {
        CostFactors::identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_drain_formula() {
        let v = 0.125;
        assert_eq!(
            sync_pipeline_iteration(4, 8, v).to_bits(),
            ((8 + 4 - 1) as f64 * v).to_bits()
        );
        // a 1-stage "pipeline" is just MB sequential micro-batches
        assert_eq!(sync_pipeline_iteration(1, 8, v), 8.0 * v);
    }

    #[test]
    fn identity_factors_are_ones() {
        let f = CostFactors::identity();
        assert_eq!(f, CostFactors::default());
        assert_eq!(f.transfer, 1.0);
        assert_eq!(f.allreduce_intra, 1.0);
        assert_eq!(f.allreduce_inter, 1.0);
        assert_eq!(f.optimizer, 1.0);
    }
}
