//! # rannc-hw
//!
//! Hardware model of the accelerator cluster the partitioner plans for.
//!
//! The paper's testbed (§IV-A): compute nodes with eight NVIDIA V100-32GB
//! GPUs connected by NVLink (25–50 GB/s between two GPUs) inside a node and
//! 100 Gb/s InfiniBand between nodes. This crate models exactly the
//! quantities the algorithms consume:
//!
//! * device compute peaks and memory capacity ([`DeviceSpec`]),
//! * point-to-point link bandwidth/latency ([`LinkSpec`]),
//! * the node/cluster shape ([`ClusterSpec`]) with device-rank geometry
//!   and the one slot-to-rank placement convention
//!   ([`ClusterSpec::slot_devices`]),
//! * collective cost models (ring all-reduce) used for the data-parallel
//!   gradient synchronization ([`ClusterSpec::replica_allreduce_time`]).
//!
//! Footnote 3 of the paper: "to estimate communication time, we use the
//! intra-node bandwidth, not the inter-node bandwidth", because the
//! allocator aligns stages to nodes — [`ClusterSpec::planning_link`]
//! encodes that choice.

pub mod cluster;
pub mod collective;
pub mod device;
pub mod link;

pub use cluster::{ClusterSpec, DeviceOverride, DeviceRank, LinkOverride, NodeSpec, SpecError};
pub use device::{DeviceSpec, Precision};
pub use link::LinkSpec;
