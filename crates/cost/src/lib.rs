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

#![warn(missing_docs)]

mod calibration;
mod migration;
mod model;
pub mod tensor;

pub use calibration::{Calibration, CalibrationError, CALIBRATION_VERSION};
pub use migration::{MigrationCost, MigrationModel};
pub use model::{CalibratedCost, CostModel, CostModelSpec};
pub use tensor::{megatron_partition, TransformerDims};

use std::time::Duration;

/// Estimated per-iteration time of a synchronous fill–drain pipeline:
/// `(MB + S − 1) · V` — `MB` bottleneck slots plus `S − 1` fill/drain
/// slots at the bottleneck stage time `V`. The planner's DP objective and
/// every iteration-time report share this one formula.
#[inline]
pub fn sync_pipeline_iteration(stages: usize, microbatches: usize, bottleneck: f64) -> f64 {
    (microbatches + stages - 1) as f64 * bottleneck
}

/// Scalar correction factors a cost model hands to value types that
/// cannot hold a trait object (notably `PipelineSpec`, a plain value
/// priced long after the model is gone).
///
/// All factors default to `1.0`; multiplying by `1.0` is bit-identical
/// for every finite IEEE-754 value, so the identity factors reproduce
/// the uncalibrated formulas exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostFactors {
    /// Scales modelled compute time (simulated ticks, not the profiler —
    /// per-op compute calibration happens inside the profiler itself).
    pub compute: f64,
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
            compute: 1.0,
            transfer: 1.0,
            allreduce_intra: 1.0,
            allreduce_inter: 1.0,
            optimizer: 1.0,
        }
    }
}

impl Default for CostFactors {
    fn default() -> Self {
        CostFactors::identity()
    }
}

/// Nominal wall-clock ticks the threaded trainer uses to scale its
/// injected delays (straggler slowdowns, link degradation). Owned by the
/// cost layer so simulated time and planned time share one source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimTicks {
    /// Nominal per-micro-batch compute used to scale straggler sleeps.
    pub compute: Duration,
    /// Nominal per-transfer latency used to scale link-degrade sleeps.
    pub comm: Duration,
}

impl SimTicks {
    /// Ticks scaled by a cost model's correction factors.
    pub fn scaled(factors: CostFactors) -> Self {
        let base = SimTicks::default();
        SimTicks {
            compute: base.compute.mul_f64(factors.compute),
            comm: base.comm.mul_f64(factors.transfer),
        }
    }
}

impl Default for SimTicks {
    fn default() -> Self {
        SimTicks {
            compute: Duration::from_micros(200),
            comm: Duration::from_micros(100),
        }
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
        assert_eq!(f.compute, 1.0);
        assert_eq!(f.transfer, 1.0);
        assert_eq!(f.allreduce_intra, 1.0);
        assert_eq!(f.allreduce_inter, 1.0);
        assert_eq!(f.optimizer, 1.0);
    }

    #[test]
    fn sim_ticks_scale() {
        let base = SimTicks::default();
        assert_eq!(SimTicks::scaled(CostFactors::identity()), base);
        let slow = SimTicks::scaled(CostFactors {
            compute: 2.0,
            transfer: 3.0,
            ..CostFactors::identity()
        });
        assert_eq!(slow.compute, base.compute * 2);
        assert_eq!(slow.comm, base.comm * 3);
    }
}
