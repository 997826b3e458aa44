//! Node and cluster shape.

use crate::device::DeviceSpec;
use crate::link::LinkSpec;
use std::ops::Range;

/// One compute node: a set of identical devices joined by an intra-node
/// interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Devices per node (`D_node` in Algorithm 2).
    pub devices: usize,
    /// Intra-node device-to-device link (NVLink in the paper).
    pub intra_link: LinkSpec,
}

impl NodeSpec {
    /// The paper's node: 8 × V100 over NVLink.
    pub fn v100x8() -> Self {
        NodeSpec {
            devices: 8,
            intra_link: LinkSpec::nvlink(),
        }
    }
}

/// Geometric position of a device in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceRank {
    /// Node index.
    pub node: usize,
    /// Device index within the node.
    pub local: usize,
}

/// A device that deviates from the cluster's template [`DeviceSpec`] —
/// a different accelerator tier, less memory, or a thermally throttled
/// part. Ranks without an override are the template device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceOverride {
    /// Which device.
    pub rank: DeviceRank,
    /// What it actually is.
    pub spec: DeviceSpec,
}

/// A link that deviates from the cluster's default interconnect tiers.
/// `a == b` overrides node `a`'s intra-node link; `a != b` overrides the
/// inter-node link between the (unordered) node pair. Pairs are stored
/// normalized with `a <= b`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkOverride {
    /// First node of the (unordered) pair.
    pub a: usize,
    /// Second node of the pair; equal to `a` for an intra-node link.
    pub b: usize,
    /// The link actually installed there.
    pub link: LinkSpec,
}

/// Why a cluster mutation would produce an unusable cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Removing this device would leave zero healthy devices.
    LastDevice {
        /// The device whose loss was requested.
        rank: DeviceRank,
    },
    /// Removing this node would leave zero healthy devices.
    LastNode {
        /// The node whose loss was requested.
        node: usize,
    },
    /// The rank lies outside the cluster's shape.
    DeviceOutsideCluster {
        /// The offending rank.
        rank: DeviceRank,
    },
    /// The node index lies outside the cluster's shape.
    NodeOutsideCluster {
        /// The offending node index.
        node: usize,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::LastDevice { rank } => write!(
                f,
                "cannot lose device {}:{} — it is the last healthy device",
                rank.node, rank.local
            ),
            SpecError::LastNode { node } => write!(
                f,
                "cannot lose node {node} — it holds the last healthy devices"
            ),
            SpecError::DeviceOutsideCluster { rank } => write!(
                f,
                "device {}:{} outside cluster shape",
                rank.node, rank.local
            ),
            SpecError::NodeOutsideCluster { node } => {
                write!(f, "node {node} outside cluster shape")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// The whole cluster: `nodes` nodes of `node.devices` devices joined by
/// `inter_link`, with optional per-device and per-link overrides for
/// heterogeneous fleets. A cluster with no overrides is exactly the
/// paper's homogeneous pool: every consumer reads it through the same
/// placed path, which then sees the template at every rank and link.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of compute nodes (`N` in Algorithm 2).
    pub nodes: usize,
    /// Per-node shape.
    pub node: NodeSpec,
    /// The template device model (every rank without an override).
    pub device: DeviceSpec,
    /// Inter-node link (InfiniBand in the paper).
    pub inter_link: LinkSpec,
    /// Devices marked failed. The raw shape (`nodes`, `node.devices`)
    /// is unchanged — lost devices keep their ranks so surviving work
    /// stays addressable — but [`ClusterSpec::planning_view`] excludes
    /// them when deriving the cluster the partitioner may plan against.
    pub lost_devices: Vec<DeviceRank>,
    /// Devices that differ from the template (mixed accelerator tiers,
    /// degraded parts). Empty for a homogeneous cluster.
    pub device_overrides: Vec<DeviceOverride>,
    /// Links that differ from the default two-tier interconnect.
    /// Empty for a homogeneous cluster.
    pub link_overrides: Vec<LinkOverride>,
}

impl ClusterSpec {
    /// The paper's evaluation cluster: `nodes` × 8 V100-32GB, NVLink
    /// intra-node, 100 Gb/s InfiniBand inter-node. The paper uses
    /// `nodes = 4` (32 GPUs) for BERT and 4 or 1 for ResNet.
    pub fn v100_cluster(nodes: usize) -> Self {
        ClusterSpec {
            nodes,
            node: NodeSpec::v100x8(),
            device: DeviceSpec::v100_32gb(),
            inter_link: LinkSpec::infiniband_100g(),
            lost_devices: Vec::new(),
            device_overrides: Vec::new(),
            link_overrides: Vec::new(),
        }
    }

    /// Total device count (`N × D_node`).
    #[inline]
    pub fn total_devices(&self) -> usize {
        self.nodes * self.node.devices
    }

    /// Geometry of a global device rank.
    #[inline]
    pub fn rank(&self, global: usize) -> DeviceRank {
        DeviceRank {
            node: global / self.node.devices,
            local: global % self.node.devices,
        }
    }

    /// True when any device or link deviates from the template. Planning,
    /// verification and pricing do not branch on it: the one decision
    /// keyed on it is the stage DP's `d_min` pruning, which is exact only
    /// when the memory bound of a device group does not depend on where
    /// the group lands.
    #[inline]
    pub fn is_heterogeneous(&self) -> bool {
        !self.device_overrides.is_empty() || !self.link_overrides.is_empty()
    }

    /// The actual device at a rank: its override, or the template.
    pub fn device_at(&self, rank: DeviceRank) -> &DeviceSpec {
        self.device_overrides
            .iter()
            .find(|o| o.rank == rank)
            .map(|o| &o.spec)
            .unwrap_or(&self.device)
    }

    /// The actual device at a global rank.
    #[inline]
    pub fn device_at_global(&self, global: usize) -> &DeviceSpec {
        self.device_at(self.rank(global))
    }

    /// Largest usable memory across healthy devices. Falls back to the
    /// template when every device is lost.
    pub fn max_memory_bytes(&self) -> usize {
        (0..self.total_devices())
            .map(|g| self.rank(g))
            .filter(|&r| !self.is_lost(r))
            .map(|r| self.device_at(r).memory_bytes)
            .max()
            .unwrap_or(self.device.memory_bytes)
    }

    /// The devices behind per-replica slots `slots` in each of `replicas`
    /// pipeline replicas of `per_replica` slots, as `(global rank,
    /// device)` pairs, replica by replica.
    ///
    /// This is the planner's one placement convention: each pipeline
    /// replica occupies a contiguous rank range, so replica `r` of slot
    /// `j` is global rank `r·per_replica + j`. Ranks past the cluster's
    /// shape read as the template device (they can only appear
    /// transiently, between a node join and the next replan).
    pub fn slot_devices(
        &self,
        slots: Range<usize>,
        per_replica: usize,
        replicas: usize,
    ) -> impl Iterator<Item = (usize, &DeviceSpec)> + '_ {
        let total = self.total_devices();
        (0..replicas).flat_map(move |r| {
            slots.clone().map(move |slot| {
                let global = r * per_replica + slot;
                let device = if global < total {
                    self.device_at_global(global)
                } else {
                    &self.device
                };
                (global, device)
            })
        })
    }

    /// Install (or replace) a per-device override.
    pub fn with_device_override(mut self, rank: DeviceRank, spec: DeviceSpec) -> ClusterSpec {
        if let Some(o) = self.device_overrides.iter_mut().find(|o| o.rank == rank) {
            o.spec = spec;
        } else {
            self.device_overrides.push(DeviceOverride { rank, spec });
        }
        self
    }

    /// Remove a per-device override, restoring the template device.
    pub fn without_device_override(mut self, rank: DeviceRank) -> ClusterSpec {
        self.device_overrides.retain(|o| o.rank != rank);
        self
    }

    /// Mark a device as running at `factor` of its current compute
    /// efficiency (thermal throttling, ECC retirement pressure). Stacks:
    /// degrading twice at 0.5 leaves the device at 25 %.
    pub fn with_degraded_device(self, rank: DeviceRank, factor: f64) -> ClusterSpec {
        let mut spec = self.device_at(rank).clone();
        spec.compute_efficiency = (spec.compute_efficiency * factor).clamp(1e-6, 1.0);
        self.with_device_override(rank, spec)
    }

    /// Install (or replace) a per-link override for the unordered node
    /// pair `(a, b)`; `a == b` overrides node `a`'s intra-node link.
    pub fn with_link_override(mut self, a: usize, b: usize, link: LinkSpec) -> ClusterSpec {
        let (a, b) = (a.min(b), a.max(b));
        if let Some(o) = self
            .link_overrides
            .iter_mut()
            .find(|o| o.a == a && o.b == b)
        {
            o.link = link;
        } else {
            self.link_overrides.push(LinkOverride { a, b, link });
        }
        self
    }

    /// The link connecting two nodes (or within one, when `a == b`),
    /// honouring overrides.
    pub fn node_link(&self, a: usize, b: usize) -> LinkSpec {
        let (a, b) = (a.min(b), a.max(b));
        self.link_overrides
            .iter()
            .find(|o| o.a == a && o.b == b)
            .map(|o| o.link)
            .unwrap_or(if a == b {
                self.node.intra_link
            } else {
                self.inter_link
            })
    }

    /// The link connecting two global ranks (intra- vs inter-node).
    pub fn link_between(&self, a: usize, b: usize) -> LinkSpec {
        self.node_link(self.rank(a).node, self.rank(b).node)
    }

    /// The slowest intra-node link in the cluster (default tier plus any
    /// overrides). Equals `node.intra_link` for homogeneous clusters.
    pub fn slowest_intra_link(&self) -> LinkSpec {
        self.link_overrides
            .iter()
            .filter(|o| o.a == o.b)
            .map(|o| o.link)
            .fold(self.node.intra_link, slower_link)
    }

    /// The slowest inter-node link in the cluster (default tier plus any
    /// overrides). Equals `inter_link` for homogeneous clusters.
    pub fn slowest_inter_link(&self) -> LinkSpec {
        self.link_overrides
            .iter()
            .filter(|o| o.a != o.b)
            .map(|o| o.link)
            .fold(self.inter_link, slower_link)
    }

    /// The link used by the *partitioner* to estimate communication time.
    ///
    /// Paper footnote 3: intra-node bandwidth is used because the device
    /// allocator places adjacent stages within a node whenever possible.
    /// On a heterogeneous cluster the estimate is conservative: the
    /// slowest intra-node tier is used.
    #[inline]
    pub fn planning_link(&self) -> LinkSpec {
        self.slowest_intra_link()
    }

    /// Time for `bytes` to move between two global ranks.
    pub fn transfer_time(&self, bytes: usize, a: usize, b: usize) -> f64 {
        if a == b {
            0.0
        } else {
            self.link_between(a, b).transfer_time(bytes)
        }
    }

    /// True when `rank` lies inside the cluster's shape.
    pub fn contains(&self, rank: DeviceRank) -> bool {
        rank.node < self.nodes && rank.local < self.node.devices
    }

    /// True when `rank` is marked failed.
    pub fn is_lost(&self, rank: DeviceRank) -> bool {
        self.lost_devices.contains(&rank)
    }

    /// Derive the cluster after losing one device. Idempotent. Returns
    /// [`SpecError::LastDevice`] rather than producing an empty,
    /// unusable cluster, and [`SpecError::DeviceOutsideCluster`] for a
    /// rank beyond the cluster's shape.
    pub fn without_device(&self, rank: DeviceRank) -> Result<ClusterSpec, SpecError> {
        if !self.contains(rank) {
            return Err(SpecError::DeviceOutsideCluster { rank });
        }
        let mut degraded = self.clone();
        if !degraded.is_lost(rank) {
            degraded.lost_devices.push(rank);
        }
        if degraded.healthy_devices() == 0 {
            return Err(SpecError::LastDevice { rank });
        }
        Ok(degraded)
    }

    /// Derive the cluster after losing a whole node (switch failure,
    /// host crash). Returns [`SpecError::LastNode`] when the loss would
    /// leave zero healthy devices, [`SpecError::NodeOutsideCluster`] for
    /// a node index beyond the cluster's shape.
    pub fn without_node(&self, node: usize) -> Result<ClusterSpec, SpecError> {
        if node >= self.nodes {
            return Err(SpecError::NodeOutsideCluster { node });
        }
        let mut degraded = self.clone();
        for local in 0..self.node.devices {
            let rank = DeviceRank { node, local };
            if !degraded.is_lost(rank) {
                degraded.lost_devices.push(rank);
            }
        }
        if degraded.healthy_devices() == 0 {
            return Err(SpecError::LastNode { node });
        }
        Ok(degraded)
    }

    /// Bring a previously lost device back (repair, transient network
    /// partition healing). Idempotent; unknown ranks are ignored.
    pub fn with_device_restored(mut self, rank: DeviceRank) -> ClusterSpec {
        self.lost_devices.retain(|r| *r != rank);
        self
    }

    /// Grow the cluster by one fresh node of template devices appended
    /// after the existing nodes (existing ranks are untouched).
    pub fn with_joined_node(mut self) -> ClusterSpec {
        self.nodes += 1;
        self
    }

    /// Healthy devices on one node.
    pub fn healthy_on_node(&self, node: usize) -> usize {
        self.node.devices
            - self
                .lost_devices
                .iter()
                .filter(|r| r.node == node)
                .count()
                .min(self.node.devices)
    }

    /// Healthy device count across the cluster.
    pub fn healthy_devices(&self) -> usize {
        (0..self.nodes).map(|n| self.healthy_on_node(n)).sum()
    }

    /// The cluster the partitioner may plan against.
    ///
    /// Algorithm 2 assumes identical nodes, so the view is conservative:
    /// nodes that kept at least one healthy device survive, and every
    /// surviving node is shrunk to the *minimum* healthy device count
    /// among them. Capacity is understated, never overstated — a plan
    /// valid on the view is valid on the degraded cluster.
    ///
    /// On a heterogeneous cluster each surviving node additionally
    /// carries a composed override: the element-wise minimum (memory,
    /// peaks, bandwidth, efficiency) over its healthy devices, so a
    /// stage priced on the view never over-commits the slowest or
    /// smallest device that could host it. Link overrides are remapped
    /// to the surviving node numbering.
    pub fn planning_view(&self) -> ClusterSpec {
        if self.lost_devices.is_empty() {
            return self.clone();
        }
        let survivors: Vec<usize> = (0..self.nodes)
            .filter(|&n| self.healthy_on_node(n) > 0)
            .collect();
        let min_devices = survivors
            .iter()
            .map(|&n| self.healthy_on_node(n))
            .min()
            .unwrap_or(0);
        let mut view = ClusterSpec {
            nodes: survivors.len(),
            node: NodeSpec {
                devices: min_devices,
                intra_link: self.node.intra_link,
            },
            device: self.device.clone(),
            inter_link: self.inter_link,
            lost_devices: Vec::new(),
            device_overrides: Vec::new(),
            link_overrides: Vec::new(),
        };
        // compose a conservative per-node device over the survivors
        for (new_idx, &old_idx) in survivors.iter().enumerate() {
            let composed = self.compose_node_device(old_idx);
            if composed != self.device {
                for local in 0..min_devices {
                    view.device_overrides.push(DeviceOverride {
                        rank: DeviceRank {
                            node: new_idx,
                            local,
                        },
                        spec: composed.clone(),
                    });
                }
            }
        }
        // remap link overrides onto the surviving node numbering
        for o in &self.link_overrides {
            let a = survivors.iter().position(|&n| n == o.a);
            let b = survivors.iter().position(|&n| n == o.b);
            if let (Some(a), Some(b)) = (a, b) {
                view.link_overrides.push(LinkOverride {
                    a: a.min(b),
                    b: a.max(b),
                    link: o.link,
                });
            }
        }
        view
    }

    /// Element-wise minimum spec over the healthy devices of one node:
    /// no stage priced against it can over-commit any actual device.
    fn compose_node_device(&self, node: usize) -> DeviceSpec {
        let mut composed: Option<DeviceSpec> = None;
        for local in 0..self.node.devices {
            let rank = DeviceRank { node, local };
            if self.is_lost(rank) {
                continue;
            }
            let d = self.device_at(rank);
            composed = Some(match composed {
                None => d.clone(),
                Some(mut c) => {
                    if d.name != c.name {
                        c.name = format!("min({},{})", c.name, d.name);
                    }
                    c.memory_bytes = c.memory_bytes.min(d.memory_bytes);
                    c.peak_flops_fp32 = c.peak_flops_fp32.min(d.peak_flops_fp32);
                    c.peak_flops_fp16 = c.peak_flops_fp16.min(d.peak_flops_fp16);
                    c.mem_bandwidth = c.mem_bandwidth.min(d.mem_bandwidth);
                    c.compute_efficiency = c.compute_efficiency.min(d.compute_efficiency);
                    c
                }
            });
        }
        composed.unwrap_or_else(|| self.device.clone())
    }
}

/// The slower of two links: lower bandwidth wins; ties break toward the
/// higher latency.
fn slower_link(a: LinkSpec, b: LinkSpec) -> LinkSpec {
    if b.bandwidth < a.bandwidth || (b.bandwidth == a.bandwidth && b.latency > a.latency) {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_shape() {
        let c = ClusterSpec::v100_cluster(4);
        assert_eq!(c.total_devices(), 32);
        assert_eq!(c.rank(0), DeviceRank { node: 0, local: 0 });
        assert_eq!(c.rank(7), DeviceRank { node: 0, local: 7 });
        assert_eq!(c.rank(8), DeviceRank { node: 1, local: 0 });
        assert_eq!(c.rank(31), DeviceRank { node: 3, local: 7 });
    }

    #[test]
    fn link_selection() {
        let c = ClusterSpec::v100_cluster(2);
        assert_eq!(c.link_between(0, 7), c.node.intra_link);
        assert_eq!(c.link_between(7, 8), c.inter_link);
    }

    #[test]
    fn transfer_same_device_is_free() {
        let c = ClusterSpec::v100_cluster(1);
        assert_eq!(c.transfer_time(1 << 30, 3, 3), 0.0);
        assert!(c.transfer_time(1 << 30, 0, 1) > 0.0);
    }

    #[test]
    fn planning_link_is_intra_node() {
        let c = ClusterSpec::v100_cluster(4);
        assert_eq!(c.planning_link(), LinkSpec::nvlink());
    }

    #[test]
    fn device_loss_degrades_planning_view() {
        let c = ClusterSpec::v100_cluster(2);
        let d = c.without_device(DeviceRank { node: 1, local: 3 }).unwrap();
        // raw shape intact, ranks stay addressable
        assert_eq!(d.total_devices(), 16);
        assert_eq!(d.healthy_devices(), 15);
        assert!(d.is_lost(DeviceRank { node: 1, local: 3 }));
        // conservative homogeneous view: both nodes survive at min(8, 7)
        let view = d.planning_view();
        assert_eq!(view.nodes, 2);
        assert_eq!(view.node.devices, 7);
        assert!(view.lost_devices.is_empty());
        assert!(view.total_devices() <= d.healthy_devices());
    }

    #[test]
    fn without_device_is_idempotent() {
        let c = ClusterSpec::v100_cluster(1);
        let r = DeviceRank { node: 0, local: 0 };
        let d = c.without_device(r).unwrap().without_device(r).unwrap();
        assert_eq!(d.healthy_devices(), 7);
    }

    #[test]
    fn node_loss_removes_whole_node_from_view() {
        let c = ClusterSpec::v100_cluster(4);
        let d = c.without_node(2).unwrap();
        assert_eq!(d.healthy_devices(), 24);
        let view = d.planning_view();
        assert_eq!(view.nodes, 3);
        assert_eq!(view.node.devices, 8);
    }

    #[test]
    fn healthy_view_is_identity() {
        let c = ClusterSpec::v100_cluster(4);
        assert_eq!(c.planning_view(), c);
    }

    #[test]
    fn losing_the_last_devices_is_rejected() {
        let c = ClusterSpec::v100_cluster(1);
        assert_eq!(c.without_node(0), Err(SpecError::LastNode { node: 0 }));
        let mut d = c;
        for local in 0..7 {
            d = d.without_device(DeviceRank { node: 0, local }).unwrap();
        }
        let last = DeviceRank { node: 0, local: 7 };
        assert_eq!(
            d.without_device(last),
            Err(SpecError::LastDevice { rank: last })
        );
        // the failed call did not mutate the receiver
        assert_eq!(d.healthy_devices(), 1);
    }

    #[test]
    fn out_of_shape_losses_are_typed_errors() {
        let c = ClusterSpec::v100_cluster(2);
        let bad = DeviceRank { node: 5, local: 0 };
        assert_eq!(
            c.without_device(bad),
            Err(SpecError::DeviceOutsideCluster { rank: bad })
        );
        assert_eq!(
            c.without_node(9),
            Err(SpecError::NodeOutsideCluster { node: 9 })
        );
    }

    #[test]
    fn overrides_make_cluster_heterogeneous() {
        let c = ClusterSpec::v100_cluster(2);
        assert!(!c.is_heterogeneous());
        let r = DeviceRank { node: 0, local: 0 };
        let h = c.clone().with_device_override(r, DeviceSpec::a100_40gb());
        assert!(h.is_heterogeneous());
        assert_eq!(h.device_at(r).name, "A100-SXM4-40GB");
        assert_eq!(
            h.device_at(DeviceRank { node: 0, local: 1 }).name,
            c.device.name
        );
        let restored = h.without_device_override(r);
        assert!(!restored.is_heterogeneous());
    }

    #[test]
    fn degrade_stacks_and_clamps() {
        let c = ClusterSpec::v100_cluster(1);
        let r = DeviceRank { node: 0, local: 2 };
        let base_eff = c.device.compute_efficiency;
        let d = c.with_degraded_device(r, 0.5).with_degraded_device(r, 0.5);
        let eff = d.device_at(r).compute_efficiency;
        assert!((eff - base_eff * 0.25).abs() < 1e-12);
        let floor = d.with_degraded_device(r, 0.0);
        assert!(floor.device_at(r).compute_efficiency > 0.0);
    }

    #[test]
    fn link_overrides_route_and_slowest_wins() {
        let slow = LinkSpec {
            bandwidth: 1.0e9,
            latency: 1.0e-5,
        };
        let c = ClusterSpec::v100_cluster(3)
            .with_link_override(1, 1, slow)
            .with_link_override(0, 2, slow);
        assert_eq!(c.node_link(1, 1), slow);
        assert_eq!(c.node_link(0, 0), c.node.intra_link);
        assert_eq!(c.node_link(2, 0), slow);
        assert_eq!(c.node_link(0, 1), c.inter_link);
        assert_eq!(c.slowest_intra_link(), slow);
        assert_eq!(c.slowest_inter_link(), slow);
        assert_eq!(c.planning_link(), slow);
    }

    #[test]
    fn hetero_planning_view_composes_conservatively() {
        let small = DeviceSpec::v100_32gb().with_memory(16 * (1 << 30));
        let c = ClusterSpec::v100_cluster(2)
            .with_device_override(DeviceRank { node: 1, local: 0 }, small.clone())
            .without_device(DeviceRank { node: 1, local: 7 })
            .unwrap();
        let view = c.planning_view();
        assert_eq!(view.nodes, 2);
        assert_eq!(view.node.devices, 7);
        // node 0 slots are the template; node 1 slots composed down to 16 GB
        assert_eq!(
            view.device_at(DeviceRank { node: 0, local: 0 })
                .memory_bytes,
            c.device.memory_bytes
        );
        assert_eq!(
            view.device_at(DeviceRank { node: 1, local: 0 })
                .memory_bytes,
            small.memory_bytes
        );
        assert_eq!(view.max_memory_bytes(), c.device.memory_bytes);
    }

    #[test]
    fn join_and_restore_grow_capacity() {
        let c = ClusterSpec::v100_cluster(1);
        let r = DeviceRank { node: 0, local: 3 };
        let d = c.without_device(r).unwrap();
        assert_eq!(d.healthy_devices(), 7);
        let back = d.with_device_restored(r);
        assert_eq!(back.healthy_devices(), 8);
        let grown = back.with_joined_node();
        assert_eq!(grown.nodes, 2);
        assert_eq!(grown.healthy_devices(), 16);
    }

    #[test]
    fn memory_extremes_track_overrides() {
        let c = ClusterSpec::v100_cluster(1);
        assert_eq!(c.max_memory_bytes(), c.device.memory_bytes);
        let a100 = DeviceRank { node: 0, local: 5 };
        let h = c.with_device_override(a100, DeviceSpec::a100_40gb());
        assert_eq!(h.max_memory_bytes(), 40 * (1 << 30));
        // a lost device no longer bounds the planner
        let lost = h.without_device(a100).unwrap();
        assert_eq!(lost.max_memory_bytes(), lost.device.memory_bytes);
    }

    #[test]
    fn slot_devices_walk_replicas_contiguously() {
        let small = DeviceSpec::v100_32gb().with_memory(16 * (1 << 30));
        let c = ClusterSpec::v100_cluster(1)
            .with_device_override(DeviceRank { node: 0, local: 6 }, small.clone());
        // slots [2, 4) of 2 replicas × 4 slots: replica-major ranks
        let walk: Vec<(usize, usize)> = c
            .slot_devices(2..4, 4, 2)
            .map(|(g, d)| (g, d.memory_bytes))
            .collect();
        let big = c.device.memory_bytes;
        assert_eq!(
            walk,
            vec![(2, big), (3, big), (6, small.memory_bytes), (7, big)]
        );
        // ranks past the shape read as the template device
        let past: Vec<usize> = c.slot_devices(0..1, 8, 3).map(|(g, _)| g).collect();
        assert_eq!(past, vec![0, 8, 16]);
        assert!(c
            .slot_devices(0..1, 8, 3)
            .skip(1)
            .all(|(_, d)| *d == c.device));
        assert_eq!(c.slot_devices(0..0, 8, 3).count(), 0);
    }

    #[test]
    fn default_valued_link_overrides_read_as_the_plain_cluster() {
        // overrides that restate the default tiers take the general code
        // and must land exactly where the plain cluster does
        let plain = ClusterSpec::v100_cluster(3);
        let restated = plain
            .clone()
            .with_link_override(1, 1, plain.node.intra_link)
            .with_link_override(0, 2, plain.inter_link);
        assert!(restated.is_heterogeneous());
        assert_eq!(restated.planning_link(), plain.planning_link());
        let bytes = 340_000_000usize * 4;
        for (group, spans_nodes) in [(3, true), (8, false), (1, true)] {
            assert_eq!(
                restated
                    .replica_allreduce_time(bytes, group, spans_nodes)
                    .to_bits(),
                plain
                    .replica_allreduce_time(bytes, group, spans_nodes)
                    .to_bits()
            );
        }
        let lost = DeviceRank { node: 2, local: 3 };
        for (a, b) in [
            (plain.clone(), restated.clone()),
            (
                plain.without_device(lost).unwrap(),
                restated.without_device(lost).unwrap(),
            ),
        ] {
            let (va, vb) = (a.planning_view(), b.planning_view());
            assert_eq!((va.nodes, &va.node), (vb.nodes, &vb.node));
            assert!(vb.device_overrides.is_empty());
            assert_eq!(vb.planning_link(), va.planning_link());
            for x in 0..va.nodes {
                for y in 0..va.nodes {
                    assert_eq!(vb.node_link(x, y), va.node_link(x, y));
                }
            }
        }
    }
}
