//! # rannc-faults
//!
//! Deterministic, seeded fault and churn scripts for training campaigns.
//!
//! A [`FaultPlan`] is an explicit script of failure events plus a seed.
//! It has one executor, `rannc-pipeline`'s campaign simulator, reached
//! through [`FaultPlan::to_churn`]: the latency faults slow the starting
//! cluster, the device failures become a [`ClusterEventTrace`] of losses,
//! and the churn engine predicts goodput and MTTR.
//!
//! Plans and traces are data, not callbacks, and a generated trace draws
//! every random choice from a splitmix64 stream derived from its seed, so
//! a campaign is exactly reproducible: same seed, same events, same
//! report.

pub mod churn;

pub use churn::{ClusterEvent, ClusterEventTrace, TimedEvent, TraceError};
use rannc_hw::{ClusterSpec, SpecError};

/// One scripted failure event. Ranks are global device ranks, read on the
/// cluster the plan is played against ([`ClusterSpec::rank`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Permanent loss of one device at the start of iteration `at_iter`
    /// (0-based). The device stays dead for the rest of the run.
    DeviceFail {
        /// Failing rank.
        rank: usize,
        /// Iteration at which the failure manifests.
        at_iter: usize,
    },
    /// A persistently slow rank: all its compute takes `slowdown`× the
    /// nominal time (`slowdown >= 1`).
    Straggler {
        /// Straggling rank.
        rank: usize,
        /// Multiplicative compute slowdown, `>= 1`.
        slowdown: f64,
    },
    /// All interconnect bandwidth degraded: transfer times scale by
    /// `1 / factor` (`0 < factor <= 1`, e.g. `0.5` halves bandwidth).
    LinkDegrade {
        /// Remaining fraction of nominal bandwidth.
        factor: f64,
    },
    /// Each communication attempt independently fails with probability
    /// `prob` and must be retried.
    TransientCommError {
        /// Per-transfer failure probability in `[0, 1)`.
        prob: f64,
    },
}

/// A deterministic fault schedule: scripted events plus the seed its
/// churn trace carries.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Empty plan (fault-free run) with a seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Builder-style event append.
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.push(event);
        self
    }

    /// Append an event, validating its parameters.
    pub fn push(&mut self, event: FaultEvent) {
        match event {
            FaultEvent::Straggler { slowdown, .. } => {
                assert!(slowdown >= 1.0, "straggler slowdown must be >= 1")
            }
            FaultEvent::LinkDegrade { factor } => {
                assert!(
                    factor > 0.0 && factor <= 1.0,
                    "link degrade factor must be in (0, 1]"
                )
            }
            FaultEvent::TransientCommError { prob } => {
                assert!((0.0..1.0).contains(&prob), "comm error prob in [0, 1)")
            }
            FaultEvent::DeviceFail { .. } => {}
        }
        self.events.push(event);
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All scripted events in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Device failures as `(rank, at_iter)`, ordered by iteration.
    pub fn device_failures(&self) -> Vec<(usize, usize)> {
        let mut fails: Vec<(usize, usize)> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::DeviceFail { rank, at_iter } => Some((rank, at_iter)),
                _ => None,
            })
            .collect();
        fails.sort_by_key(|&(rank, at_iter)| (at_iter, rank));
        fails
    }

    /// Remaining link bandwidth fraction (product of all degrades; 1.0
    /// when links are healthy).
    pub fn link_factor(&self) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::LinkDegrade { factor } => Some(factor),
                _ => None,
            })
            .product::<f64>()
            .clamp(f64::MIN_POSITIVE, 1.0)
    }

    /// Per-transfer failure probability: `1 - Π(1 - prob_i)` over all
    /// transient-error events (independent failure sources compose).
    pub fn comm_error_prob(&self) -> f64 {
        let survive: f64 = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::TransientCommError { prob } => Some(1.0 - prob),
                _ => None,
            })
            .product();
        1.0 - survive
    }

    /// The plan as a churn campaign on `cluster`: a starting cluster that
    /// carries the latency faults, plus a trace of the device losses.
    ///
    /// * `DeviceFail` becomes a `Leave` of `cluster.rank(rank)` at its
    ///   iteration, in [`FaultPlan::device_failures`] order.
    /// * `Straggler` degrades its device on the starting cluster to
    ///   `1 / slowdown` of its efficiency. It is not an event: it slows
    ///   the run from iteration 0 and gives a policy nothing to react to.
    /// * `LinkDegrade` and `TransientCommError` scale every link's
    ///   bandwidth (both template tiers and any overrides) by
    ///   [`link_factor`](Self::link_factor) times the expected share of
    ///   transfers that need no retry, `1 − `[`comm_error_prob`](Self::comm_error_prob).
    ///
    /// A rank outside the cluster is [`SpecError::DeviceOutsideCluster`].
    pub fn to_churn(
        &self,
        cluster: &ClusterSpec,
    ) -> Result<(ClusterSpec, ClusterEventTrace), SpecError> {
        let rank = |global: usize| {
            let rank = cluster.rank(global);
            if cluster.contains(rank) {
                Ok(rank)
            } else {
                Err(SpecError::DeviceOutsideCluster { rank })
            }
        };
        let mut start = cluster.clone();
        for e in &self.events {
            if let FaultEvent::Straggler { rank: r, slowdown } = *e {
                let r = rank(r)?;
                // a 1x straggler is healthy; an identical override would
                // still mark the cluster heterogeneous
                if slowdown > 1.0 {
                    start = start.with_degraded_device(r, 1.0 / slowdown);
                }
            }
        }
        let scale = self.link_factor() * (1.0 - self.comm_error_prob());
        if scale < 1.0 {
            start.node.intra_link.bandwidth *= scale;
            start.inter_link.bandwidth *= scale;
            for o in &mut start.link_overrides {
                o.link.bandwidth *= scale;
            }
        }
        let mut trace = ClusterEventTrace::new(self.seed);
        for (r, at_iter) in self.device_failures() {
            trace.push(at_iter, ClusterEvent::Leave { rank: rank(r)? });
        }
        Ok((start, trace))
    }
}

/// Splitmix64 stream behind [`ClusterEventTrace::generate`]'s draws.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Seeded construction.
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc_hw::{DeviceRank, LinkSpec};

    #[test]
    fn queries_over_mixed_plan() {
        let plan = FaultPlan::new(7)
            .with_event(FaultEvent::DeviceFail {
                rank: 3,
                at_iter: 10,
            })
            .with_event(FaultEvent::DeviceFail {
                rank: 1,
                at_iter: 4,
            })
            .with_event(FaultEvent::Straggler {
                rank: 2,
                slowdown: 1.5,
            })
            .with_event(FaultEvent::LinkDegrade { factor: 0.5 })
            .with_event(FaultEvent::TransientCommError { prob: 0.1 });

        assert_eq!(plan.device_failures(), vec![(1, 4), (3, 10)]);
        assert_eq!(plan.link_factor(), 0.5);
        assert!((plan.comm_error_prob() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn comm_error_probs_compose() {
        let plan = FaultPlan::new(0)
            .with_event(FaultEvent::TransientCommError { prob: 0.5 })
            .with_event(FaultEvent::TransientCommError { prob: 0.5 });
        assert!((plan.comm_error_prob() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "slowdown")]
    fn rejects_speedup_straggler() {
        FaultPlan::new(0).push(FaultEvent::Straggler {
            rank: 0,
            slowdown: 0.5,
        });
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn rejects_zero_link_factor() {
        FaultPlan::new(0).push(FaultEvent::LinkDegrade { factor: 0.0 });
    }

    #[test]
    fn to_churn_maps_failures_stragglers_and_links() {
        let cluster = ClusterSpec::v100_cluster(2).with_link_override(0, 1, LinkSpec::nvlink());
        let plan = FaultPlan::new(5)
            .with_event(FaultEvent::DeviceFail {
                rank: 9,
                at_iter: 40,
            })
            .with_event(FaultEvent::DeviceFail {
                rank: 3,
                at_iter: 40,
            })
            .with_event(FaultEvent::DeviceFail {
                rank: 12,
                at_iter: 7,
            })
            .with_event(FaultEvent::Straggler {
                rank: 10,
                slowdown: 4.0,
            })
            .with_event(FaultEvent::LinkDegrade { factor: 0.5 })
            .with_event(FaultEvent::TransientCommError { prob: 0.2 });
        let (start, trace) = plan.to_churn(&cluster).unwrap();

        // losses in (at_iter, rank) order, on the cluster's geometry
        let leaves: Vec<(usize, ClusterEvent)> = trace
            .events()
            .iter()
            .map(|e| (e.at_iter, e.event))
            .collect();
        let leave = |node, local| ClusterEvent::Leave {
            rank: DeviceRank { node, local },
        };
        assert_eq!(
            leaves,
            vec![(7, leave(1, 4)), (40, leave(0, 3)), (40, leave(1, 1))]
        );
        assert_eq!(trace.seed(), 5);

        // the straggler is a degraded device from iteration 0
        let slow = start.device_at(DeviceRank { node: 1, local: 2 });
        assert_eq!(
            slow.compute_efficiency,
            cluster.device.compute_efficiency * 0.25
        );
        assert_eq!(start.device_overrides.len(), 1);
        assert!(start.lost_devices.is_empty());

        // every link, template or override, keeps 0.5 × 0.8 of its bandwidth
        let scale = 0.5 * (1.0 - plan.comm_error_prob());
        assert_eq!(
            start.node.intra_link.bandwidth,
            cluster.node.intra_link.bandwidth * scale
        );
        assert_eq!(
            start.inter_link.bandwidth,
            cluster.inter_link.bandwidth * scale
        );
        assert_eq!(
            start.node_link(0, 1).bandwidth,
            LinkSpec::nvlink().bandwidth * scale
        );
        assert_eq!(start.inter_link.latency, cluster.inter_link.latency);
    }

    #[test]
    fn to_churn_rejects_ranks_outside_the_cluster() {
        // ranks 99 and 77 on one 8-device node: typed errors, not a halt
        // at the failure or a silently ignored straggler
        let cluster = ClusterSpec::v100_cluster(1);
        for (event, rank) in [
            (
                FaultEvent::DeviceFail {
                    rank: 99,
                    at_iter: 10,
                },
                99,
            ),
            (
                FaultEvent::Straggler {
                    rank: 77,
                    slowdown: 3.0,
                },
                77,
            ),
        ] {
            assert_eq!(
                FaultPlan::new(0).with_event(event).to_churn(&cluster),
                Err(SpecError::DeviceOutsideCluster {
                    rank: cluster.rank(rank)
                })
            );
        }
    }

    #[test]
    fn empty_plan_is_neutral() {
        let plan = FaultPlan::new(1);
        assert!(plan.is_empty());
        assert!(plan.device_failures().is_empty());
        assert_eq!(plan.link_factor(), 1.0);
        assert_eq!(plan.comm_error_prob(), 0.0);
        // and it plays as the cluster itself, with no events
        let cluster = ClusterSpec::v100_cluster(2);
        assert_eq!(
            plan.to_churn(&cluster),
            Ok((cluster.clone(), ClusterEventTrace::new(1)))
        );
    }
}
