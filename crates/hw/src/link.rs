//! Point-to-point interconnect model.

/// A point-to-point link characterized by bandwidth and latency
/// (the classic α–β model: `time = α + bytes·β`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Sustained bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Per-message latency in seconds.
    pub latency: f64,
}

impl LinkSpec {
    /// NVLink between two V100s (paper: 25 or 50 GB/s; we take the
    /// conservative 25 GB/s figure used for planning).
    pub fn nvlink() -> Self {
        LinkSpec {
            bandwidth: 25.0e9,
            latency: 5.0e-6,
        }
    }

    /// 100 Gb/s InfiniBand between nodes (§IV-A).
    pub fn infiniband_100g() -> Self {
        LinkSpec {
            bandwidth: 12.5e9,
            latency: 2.0e-6,
        }
    }

    /// Time to transfer `bytes` over this link.
    #[inline]
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert!(LinkSpec::nvlink().bandwidth > LinkSpec::infiniband_100g().bandwidth);
    }

    #[test]
    fn transfer_time_monotone() {
        let l = LinkSpec::nvlink();
        assert!(l.transfer_time(1 << 20) < l.transfer_time(1 << 24));
        // zero bytes still costs latency
        assert_eq!(l.transfer_time(0), l.latency);
    }

    #[test]
    fn transfer_time_magnitude() {
        // 25 GB over a 25 GB/s link ~ 1 s
        let l = LinkSpec::nvlink();
        let t = l.transfer_time(25_000_000_000);
        assert!((t - 1.0).abs() < 0.01, "t = {t}");
    }
}
