//! A worker-count setting the planner ignores: Algorithm 2's sweep runs
//! on the calling thread (see [`crate::search`]).

/// Does nothing: the planner runs on the calling thread. Kept, with
/// `PartitionConfig::with_threads`, only because the frozen benchmark
/// package calls it.
pub fn set_threads(_n: usize) {}
