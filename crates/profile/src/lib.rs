//! # rannc-profile
//!
//! The profiling oracle of the RaNNC reproduction.
//!
//! The paper's partitioner repeatedly calls `profile(U, batch_size)` on a
//! candidate subcomponent `U`, which "actually run\[s\] forward and backward
//! passes of the subcomponents multiple times and monitor\[s\] the profiles"
//! (§III-B) on a V100. Without GPUs we substitute an *analytical* oracle
//! with the same interface and the same monotonic structure:
//!
//! * **time** — a roofline model per task: compute time is
//!   `FLOPs / sustained FLOP/s`, memory time is `bytes / HBM bandwidth`;
//!   the larger wins, plus a fixed kernel-launch overhead
//!   ([`flops`], [`Profiler`]);
//! * **memory** — parameter, gradient, Adam-state and activation footprints
//!   with and without gradient checkpointing ([`memory`]);
//! * **reuse** — the profiler keeps no results. A set priced repeatedly
//!   is a [`ProfiledSet`]: its batch-independent statistics, computed
//!   once. Raw times are exact fixed-point [`TimeSums`], so the sums of
//!   a union are composed from its parts' sums bit for bit: a block
//!   range is priced from per-block sums filled once per (micro-batch,
//!   tensor-parallel degree) ([`Profiler::sum_parts`]), never by walking
//!   its members. Memory is priced from the statistics alone
//!   ([`Profiler::profile_mem`]), so an over-memory stage is never
//!   timed. Every walk reads flat per-task rows built once per
//!   [`Profiler`], never the graph. A list of parts is split once at its
//!   boundary ([`Profiler::boundary_split`]): each part's interior
//!   values and own tasks add fixed statistics, so a row of prefix
//!   unions walks only the values that cross parts
//!   ([`BoundarySplit::prefixes`]). This mirrors how RaNNC amortizes
//!   profiling across the DP's many candidate stages.
//!
//! An optional multiplicative noise model emulates real measurement jitter
//! so robustness of the partitioning algorithms can be tested.

pub mod flops;
pub mod memory;
pub mod profiler;

pub use memory::{MemoryParams, Residency};
pub use profiler::{
    BoundarySplit, CacheStats, Prefix, ProfileResult, ProfiledSet, Profiler, ProfilerOptions,
    TimeSums, MIN_LAUNCH_OVERHEAD,
};
