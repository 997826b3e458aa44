//! Deterministic seeded RNG (splitmix64) used for weight init and
//! synthetic data. Self-contained so the workspace builds offline; the
//! stream is fixed by the seed and stable across platforms, which is
//! what the bit-identical-training experiments require.

/// Splitmix64 generator. Passes through every 64-bit state exactly once;
/// plenty for weight initialization and synthetic data.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Construct from a seed; equal seeds give equal streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f32` in `[lo, hi]`.
    pub fn uniform_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (self.unit_f64() as f32) * (hi - lo)
    }

    /// Uniform `usize` in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(9);
        let mut b = Rng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn ranges_respected() {
        let mut r = Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let f = r.uniform_f32(-0.5, 0.5);
            assert!((-0.5..=0.5).contains(&f));
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn roughly_uniform() {
        let mut r = Rng::seed_from_u64(4);
        let mean: f64 = (0..10_000).map(|_| r.unit_f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }
}
