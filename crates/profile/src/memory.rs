//! Memory-footprint estimation for subcomponents.
//!
//! The paper (Algorithm 1): "m is the sum of the peak memory usage
//! monitored during forward/backward passes and the memory used for such
//! an optimizer as Adam. The latter was estimated from the sizes of
//! parameters used in the subcomponents and the type of optimizer."
//!
//! The model here decomposes a stage's device memory into:
//!
//! * **weights** — one copy at compute precision, plus an FP32 master copy
//!   in mixed precision;
//! * **gradients** — one buffer at gradient precision;
//! * **optimizer state** — Adam keeps two FP32 moments per parameter
//!   (8 bytes/param);
//! * **activations** — depends on gradient checkpointing: with
//!   checkpointing only the stage's *boundary inputs* are stashed per
//!   in-flight micro-batch, and one micro-batch's full intermediate set
//!   exists transiently during recomputation; without it, every in-flight
//!   micro-batch keeps all intermediates alive.

use rannc_hw::Precision;

/// Bytes of Adam state per parameter (FP32 first and second moments).
pub const ADAM_BYTES_PER_PARAM: usize = 8;

/// Fixed per-device overhead: CUDA context, cuDNN workspaces, NCCL
/// buffers. ~1 GiB on the paper's V100 setup.
pub const DEVICE_OVERHEAD_BYTES: usize = 1 << 30;

/// What a stage keeps resident under a pipeline schedule: how many
/// micro-batches' activations it holds at once, and whether it
/// checkpoints. The planner, the simulator's pricing and every pipeline
/// baseline read this one rule. Gradient checkpointing is on whenever the
/// model is split into more than one stage (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Residency {
    /// Micro-batches simultaneously in flight on the stage.
    pub inflight: usize,
    /// Whether gradient checkpointing is active.
    pub checkpointing: bool,
}

impl Residency {
    /// Fill–drain (GPipe): every stage runs all `MB` forwards before its
    /// first backward, so it holds `MB` micro-batches.
    pub fn fill_drain(stages: usize, microbatches: usize) -> Self {
        Residency {
            inflight: microbatches,
            checkpointing: stages > 1,
        }
    }

    /// 1F1B: stage `s` holds `min(MB, S − s)` micro-batches, so the
    /// deepest stash is stage 0's, `min(S, MB)`. At `S = 1` this is
    /// gradient accumulation: one micro-batch, no checkpointing.
    pub fn one_f_one_b(stages: usize, microbatches: usize) -> Self {
        Residency {
            inflight: stages.min(microbatches),
            checkpointing: stages > 1,
        }
    }

    /// The block phase's probe: one micro-batch of a group that will be
    /// one stage of a split model, so checkpointing is on.
    pub fn probe() -> Self {
        Residency {
            inflight: 1,
            checkpointing: true,
        }
    }
}

/// Inputs to the memory model, independent of any particular subcomponent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryParams {
    /// Training precision regime.
    pub precision: Precision,
    /// Whether gradient checkpointing is active ([`Residency`]).
    pub checkpointing: bool,
    /// Number of micro-batches simultaneously in flight on the stage
    /// ([`Residency`]).
    pub inflight: usize,
}

impl MemoryParams {
    /// Bytes of parameter-proportional state per parameter *element*:
    /// weights + master copy + gradients + Adam moments.
    pub fn state_bytes_per_param(&self) -> usize {
        self.precision.weight_bytes()
            + self.precision.master_copy_bytes()
            + self.precision.grad_bytes()
            + ADAM_BYTES_PER_PARAM
    }

    /// Scale factor applied to FP32-declared activation byte sizes
    /// (activations are stored at compute precision).
    pub fn activation_scale(&self) -> f64 {
        self.precision.activation_bytes() as f64 / 4.0
    }

    /// Total stage memory given the subcomponent's aggregates.
    ///
    /// * `param_elems` — number of parameter elements in the stage;
    /// * `ingress_act_bytes` — FP32 bytes of one sample's stage inputs
    ///   (activations arriving from previous stages / model inputs);
    /// * `intermediate_act_bytes` — FP32 bytes of one sample's task outputs
    ///   inside the stage;
    /// * `batch` — micro-batch size in samples.
    pub fn stage_bytes(
        &self,
        param_elems: usize,
        ingress_act_bytes: usize,
        intermediate_act_bytes: usize,
        batch: usize,
    ) -> usize {
        let states = param_elems * self.state_bytes_per_param();
        let scale = self.activation_scale();
        let per_mb_ingress = (ingress_act_bytes as f64 * batch as f64 * scale) as usize;
        let per_mb_inter = (intermediate_act_bytes as f64 * batch as f64 * scale) as usize;
        let activations = if self.checkpointing {
            // stash boundary inputs for every in-flight micro-batch; one
            // micro-batch's intermediates live during recompute
            self.inflight * per_mb_ingress + per_mb_inter
        } else {
            self.inflight * (per_mb_ingress + per_mb_inter)
        };
        states + activations + DEVICE_OVERHEAD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(precision: Precision, checkpointing: bool, inflight: usize) -> MemoryParams {
        MemoryParams {
            precision,
            checkpointing,
            inflight,
        }
    }

    #[test]
    fn state_bytes_fp32() {
        // 4 (weights) + 0 (master) + 4 (grads) + 8 (adam) = 16
        assert_eq!(
            params(Precision::FP32, false, 1).state_bytes_per_param(),
            16
        );
    }

    #[test]
    fn state_bytes_mixed() {
        // 2 + 4 + 2 + 8 = 16 — mixed precision does NOT reduce state
        // memory (it adds a master copy), matching AMP behaviour.
        assert_eq!(
            params(Precision::Mixed, false, 1).state_bytes_per_param(),
            16
        );
    }

    #[test]
    fn checkpointing_reduces_activation_memory() {
        let base = (1_000_000usize, 1_000, 10_000_000usize, 4usize);
        let with = params(Precision::FP32, true, 8).stage_bytes(base.0, base.1, base.2, base.3);
        let without = params(Precision::FP32, false, 8).stage_bytes(base.0, base.1, base.2, base.3);
        assert!(with < without);
        // the gap is roughly (inflight-1) × intermediates
        let gap = without - with;
        assert!(gap > 6 * base.2 * base.3);
    }

    #[test]
    fn mixed_precision_halves_activations() {
        let f32_mem = params(Precision::FP32, false, 1).stage_bytes(0, 0, 100_000_000, 8);
        let mixed_mem = params(Precision::Mixed, false, 1).stage_bytes(0, 0, 100_000_000, 8);
        let act_f32 = f32_mem - DEVICE_OVERHEAD_BYTES;
        let act_mixed = mixed_mem - DEVICE_OVERHEAD_BYTES;
        assert_eq!(act_mixed * 2, act_f32);
    }

    #[test]
    fn bert_large_fits_one_v100() {
        // Sanity against the paper's setting: BERT-Large (340M params) at
        // micro-batch 1 with ~1.8 GB of per-sample activations trains on
        // one 32 GB V100 under data parallelism with grad accumulation.
        let p = params(Precision::FP32, false, 1);
        let mem = p.stage_bytes(340_000_000, 2_000_000, 1_800_000_000, 1);
        assert!(mem < 32 * (1usize << 30), "mem = {} GiB", mem >> 30);
    }

    #[test]
    fn twelve_b_params_do_not_fit_one_device() {
        // 12.9B params × 16 B/param ≈ 206 GB — no single V100 can hold the
        // states; this is why the paper's largest model needs ≥ 7 stages.
        let p = params(Precision::FP32, false, 1);
        let mem = p.stage_bytes(12_900_000_000, 0, 0, 1);
        assert!(mem > 6 * 32 * (1usize << 30));
    }
}
