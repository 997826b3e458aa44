//! Machine-speed calibration.
//!
//! The 2-vCPU shared VM the bounds were set on drifts: over a few
//! minutes the same request gets up to 50% slower or faster (steal time
//! and the neighbours' load), more than any bound a regression gate can
//! use. A fixed kernel that belongs to the benchmark, timed after every
//! request, drifts with it: its 20 s medians correlated 0.94 with
//! bert64-tp8's, and dividing by them cut the block-to-block spread of
//! the request p50 from 6.5% to 2.2%. So a run divides every time it
//! reports by its speed factor, the run's median kernel time over
//! [`KERNEL_REF_S`], and reports seconds at the reference speed. No
//! change to the planner can move the kernel.

use crate::stats::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Median time of one kernel pass on the reference machine (2-vCPU
/// Xeon VM, idle).
pub const KERNEL_REF_S: f64 = 1.1e-3;

/// Time one kernel pass, seconds.
pub fn time_kernel() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// How much slower than the reference machine this run's machine was:
/// the median of `kernel_s` over [`KERNEL_REF_S`] (1 with no samples).
pub fn factor(kernel_s: &[f64]) -> f64 {
    if kernel_s.is_empty() {
        1.0
    } else {
        median(kernel_s) / KERNEL_REF_S
    }
}

/// The planner's mix in miniature: allocation, a sort, hashing and
/// lookups over a fixed pseudo-random input. The hasher is fixed too, so
/// every pass does the same work.
fn kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut keys: Vec<u64> = (0..32_768)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(8_192, Default::default());
    for (i, k) in keys.iter().step_by(4).enumerate() {
        map.insert(*k, i as u64);
    }
    keys.iter()
        .step_by(3)
        .fold(0u64, |s, k| s.wrapping_add(*map.get(k).unwrap_or(&1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_work_is_fixed() {
        assert_eq!(kernel(), kernel());
        assert_eq!(factor(&[]), 1.0);
        assert!((factor(&[KERNEL_REF_S * 2.0]) - 2.0).abs() < 1e-12);
    }
}
