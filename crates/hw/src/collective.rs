//! Collective-communication cost models.
//!
//! Data parallelism (pure, or the replicated stages of hybrid parallelism)
//! synchronizes gradients with an all-reduce per training iteration. We use
//! the standard ring all-reduce model: each of the `n` participants sends
//! and receives `2·(n−1)/n · bytes` over the slowest link in the ring.

use crate::cluster::ClusterSpec;
use crate::link::LinkSpec;

/// Time for a ring all-reduce of `bytes` across `n` participants over a
/// given link.
///
/// `n == 1` is free. The `2(n−1)` latency hops model the reduce-scatter +
/// all-gather phases.
pub fn ring_allreduce_time(link: LinkSpec, bytes: usize, n: usize) -> f64 {
    if n <= 1 || bytes == 0 {
        return 0.0;
    }
    let steps = 2 * (n - 1);
    let volume = 2.0 * (n - 1) as f64 / n as f64 * bytes as f64;
    steps as f64 * link.latency + volume / link.bandwidth
}

impl ClusterSpec {
    /// Single entry point for gradient all-reduce over a replica group of
    /// `group` devices: the caller decides whether the group spans nodes
    /// (each site has its own layout invariant — replicated stages sit one
    /// per node, tensor-parallel groups fill a node first) and this method
    /// owns the link selection and the ring formula.
    pub fn replica_allreduce_time(&self, bytes: usize, group: usize, spans_nodes: bool) -> f64 {
        let link = if spans_nodes {
            // a cross-node ring is bottlenecked by its slowest edge
            self.slowest_inter_link()
        } else {
            self.slowest_intra_link()
        };
        ring_allreduce_time(link, bytes, group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_participant_free() {
        assert_eq!(ring_allreduce_time(LinkSpec::nvlink(), 1 << 30, 1), 0.0);
        let c = ClusterSpec::v100_cluster(1);
        assert_eq!(c.replica_allreduce_time(1 << 30, 1, false), 0.0);
    }

    #[test]
    fn volume_scales_with_bytes() {
        let l = LinkSpec::nvlink();
        let t1 = ring_allreduce_time(l, 1 << 20, 8);
        let t2 = ring_allreduce_time(l, 1 << 24, 8);
        // 16x the payload; latency terms keep the ratio below 16 but the
        // bandwidth term must dominate at this size.
        assert!(t2 > t1 * 5.0, "t1={t1} t2={t2}");
    }

    #[test]
    fn cross_node_group_uses_infiniband() {
        let c = ClusterSpec::v100_cluster(2);
        let intra = c.replica_allreduce_time(1 << 28, 4, false);
        let inter = c.replica_allreduce_time(1 << 28, 2, true);
        // 2 participants move (2·1/2)·bytes = bytes; 4 participants move
        // 1.5×bytes, but IB is 2× slower than NVLink, so inter wins on time.
        assert!(inter > intra * 0.5, "inter={inter} intra={intra}");
    }

    #[test]
    fn ring_asymptote() {
        // As n grows the volume factor 2(n-1)/n approaches 2, so time for a
        // fixed payload is bounded.
        let l = LinkSpec::infiniband_100g();
        let t8 = ring_allreduce_time(l, 1 << 30, 8);
        let t64 = ring_allreduce_time(l, 1 << 30, 64);
        assert!(t64 < t8 * 1.3);
    }

    #[test]
    fn replica_allreduce_matches_legacy_paths() {
        let c = ClusterSpec::v100_cluster(4);
        let bytes = 340_000_000usize * 4;
        assert_eq!(
            c.replica_allreduce_time(bytes, 4, true).to_bits(),
            ring_allreduce_time(c.inter_link, bytes, 4).to_bits()
        );
        assert_eq!(
            c.replica_allreduce_time(bytes, 8, false).to_bits(),
            ring_allreduce_time(c.node.intra_link, bytes, 8).to_bits()
        );
        assert_eq!(c.replica_allreduce_time(bytes, 1, true), 0.0);
        assert_eq!(c.replica_allreduce_time(0, 8, false), 0.0);
    }

    #[test]
    fn overridden_links_slow_the_ring() {
        let slow = LinkSpec {
            bandwidth: 1.0e9,
            latency: 1.0e-5,
        };
        let base = ClusterSpec::v100_cluster(2);
        let bytes = 1 << 28;
        let hetero_inter = base.clone().with_link_override(0, 1, slow);
        assert!(
            hetero_inter.replica_allreduce_time(bytes, 4, true)
                > base.replica_allreduce_time(bytes, 4, true)
        );
        let hetero_intra = base.clone().with_link_override(1, 1, slow);
        assert!(
            hetero_intra.replica_allreduce_time(bytes, 4, false)
                > base.replica_allreduce_time(bytes, 4, false)
        );
    }

    #[test]
    fn bert_large_allreduce_plausible() {
        // 340M params * 4 B = 1.36 GB; across 4 nodes over IB the ring
        // all-reduce should take on the order of 0.1–0.3 s.
        let c = ClusterSpec::v100_cluster(4);
        let t = c.replica_allreduce_time(340_000_000 * 4, 4, true);
        assert!(t > 0.05 && t < 0.5, "t = {t}");
    }
}
