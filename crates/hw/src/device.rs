//! Accelerator device model.

/// Numeric precision regime of a training run.
///
/// The paper evaluates FP32 and mixed precision (Apex AMP, §IV-B). Mixed
/// precision computes matmuls on tensor cores at a much higher peak and
/// halves activation bytes, but keeps FP32 master weights, so parameter
/// and optimizer memory *grow* slightly (fp16 weights + fp32 master copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Plain FP32 training.
    FP32,
    /// Mixed precision: FP16 compute/activations, FP32 master weights.
    Mixed,
}

impl Precision {
    /// Bytes per activation element.
    #[inline]
    pub fn activation_bytes(self) -> usize {
        match self {
            Precision::FP32 => 4,
            Precision::Mixed => 2,
        }
    }

    /// Bytes of weight storage per parameter (model copy used in compute).
    #[inline]
    pub fn weight_bytes(self) -> usize {
        match self {
            Precision::FP32 => 4,
            Precision::Mixed => 2,
        }
    }

    /// Bytes of gradient storage per parameter.
    #[inline]
    pub fn grad_bytes(self) -> usize {
        match self {
            Precision::FP32 => 4,
            Precision::Mixed => 2,
        }
    }

    /// Extra bytes per parameter beyond weights+grads+optimizer: the FP32
    /// master copy kept by AMP in mixed precision.
    #[inline]
    pub fn master_copy_bytes(self) -> usize {
        match self {
            Precision::FP32 => 0,
            Precision::Mixed => 4,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::FP32 => f.write_str("fp32"),
            Precision::Mixed => f.write_str("mixed"),
        }
    }
}

/// Static description of one accelerator device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, for reports.
    pub name: String,
    /// Usable device memory in bytes.
    pub memory_bytes: usize,
    /// Peak dense FP32 throughput in FLOP/s.
    pub peak_flops_fp32: f64,
    /// Peak dense FP16/tensor-core throughput in FLOP/s.
    pub peak_flops_fp16: f64,
    /// Device memory bandwidth in bytes/s (HBM).
    pub mem_bandwidth: f64,
    /// Fraction of peak a well-tuned kernel actually sustains (0, 1].
    /// Real GEMMs on V100 reach 70–90 % of peak; we default to 0.75.
    pub compute_efficiency: f64,
}

impl DeviceSpec {
    /// NVIDIA V100 SXM2 32 GB — the paper's device (§IV-A).
    pub fn v100_32gb() -> Self {
        DeviceSpec {
            name: "V100-SXM2-32GB".into(),
            memory_bytes: 32 * (1usize << 30),
            peak_flops_fp32: 15.7e12,
            peak_flops_fp16: 125.0e12,
            mem_bandwidth: 900.0e9,
            compute_efficiency: 0.75,
        }
    }

    /// NVIDIA A100 SXM4 40 GB — a faster tier for heterogeneous-fleet
    /// scenarios (mixed V100/A100 clusters).
    pub fn a100_40gb() -> Self {
        DeviceSpec {
            name: "A100-SXM4-40GB".into(),
            memory_bytes: 40 * (1usize << 30),
            peak_flops_fp32: 19.5e12,
            peak_flops_fp16: 312.0e12,
            mem_bandwidth: 1555.0e9,
            compute_efficiency: 0.75,
        }
    }

    /// Sustained dense-compute throughput for a precision regime.
    #[inline]
    pub fn sustained_flops(&self, precision: Precision) -> f64 {
        let peak = match precision {
            Precision::FP32 => self.peak_flops_fp32,
            Precision::Mixed => self.peak_flops_fp16,
        };
        peak * self.compute_efficiency
    }

    /// A scaled-down device: same ratios, `frac` of memory. Useful in tests
    /// to force partitioning on small graphs.
    pub fn with_memory(mut self, bytes: usize) -> Self {
        self.memory_bytes = bytes;
        self
    }

    /// How much slower this device is than `reference` at a precision:
    /// `reference_sustained / self_sustained`. Exactly 1.0 for identical
    /// specs — the heterogeneity-aware planner multiplies stage times by
    /// this, so a same-tier fleet prices bit-identically to the
    /// homogeneous model.
    #[inline]
    pub fn time_scale_vs(&self, reference: &DeviceSpec, precision: Precision) -> f64 {
        reference.sustained_flops(precision) / self.sustained_flops(precision)
    }

    /// Time for one Adam optimizer step over `grad_bytes` of gradients.
    ///
    /// The update is memory-bound: read grad + m + v + param, write m + v +
    /// param, ≈ 8× the gradient bytes moved through HBM. Every simulator
    /// prices optimizer steps through this one method.
    #[inline]
    pub fn optimizer_step_time(&self, grad_bytes: usize) -> f64 {
        grad_bytes as f64 * 8.0 / self.mem_bandwidth
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec::v100_32gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_spec() {
        let d = DeviceSpec::v100_32gb();
        assert_eq!(d.memory_bytes, 32 * 1024 * 1024 * 1024);
        assert!(d.peak_flops_fp16 > d.peak_flops_fp32);
    }

    #[test]
    fn sustained_below_peak() {
        let d = DeviceSpec::v100_32gb();
        assert!(d.sustained_flops(Precision::FP32) < d.peak_flops_fp32);
        assert!(d.sustained_flops(Precision::Mixed) > d.sustained_flops(Precision::FP32));
    }

    #[test]
    fn precision_byte_accounting() {
        assert_eq!(Precision::FP32.activation_bytes(), 4);
        assert_eq!(Precision::Mixed.activation_bytes(), 2);
        assert_eq!(Precision::Mixed.master_copy_bytes(), 4);
        assert_eq!(Precision::FP32.master_copy_bytes(), 0);
    }

    #[test]
    fn with_memory_override() {
        let d = DeviceSpec::v100_32gb().with_memory(1 << 20);
        assert_eq!(d.memory_bytes, 1 << 20);
    }

    #[test]
    fn a100_outclasses_v100() {
        let a = DeviceSpec::a100_40gb();
        let v = DeviceSpec::v100_32gb();
        assert!(a.memory_bytes > v.memory_bytes);
        assert!(a.sustained_flops(Precision::FP32) > v.sustained_flops(Precision::FP32));
        assert!(a.sustained_flops(Precision::Mixed) > v.sustained_flops(Precision::Mixed));
    }

    #[test]
    fn time_scale_identity_is_exact() {
        let v = DeviceSpec::v100_32gb();
        for p in [Precision::FP32, Precision::Mixed] {
            assert_eq!(v.time_scale_vs(&v, p).to_bits(), 1.0f64.to_bits());
        }
        let a = DeviceSpec::a100_40gb();
        // an A100 runs V100-priced work faster, a degraded V100 slower
        assert!(a.time_scale_vs(&v, Precision::FP32) < 1.0);
        let mut slow = v.clone();
        slow.compute_efficiency *= 0.5;
        assert!(slow.time_scale_vs(&v, Precision::FP32) > 1.0);
    }

    #[test]
    fn optimizer_step_is_memory_bound() {
        let d = DeviceSpec::v100_32gb();
        let g = 340_000_000usize * 4;
        let t = d.optimizer_step_time(g);
        assert_eq!(t.to_bits(), (g as f64 * 8.0 / d.mem_bandwidth).to_bits());
        assert_eq!(d.optimizer_step_time(0), 0.0);
    }
}
