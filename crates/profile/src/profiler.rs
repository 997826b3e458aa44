//! The `profile(U, batch)` oracle.

use crate::memory::MemoryParams;
use rannc_graph::costs::TaskCost;
use rannc_graph::{traverse, TaskCosts, TaskGraph, TaskId, TaskSet, TpSplit};
use rannc_hw::{DeviceSpec, Precision};
use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::{Add, AddAssign, Sub, SubAssign};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

mod split;
pub use split::{BoundarySplit, Prefix};

/// Tunables of the analytical profiler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilerOptions {
    /// Training precision (affects peaks and byte sizes).
    pub precision: Precision,
    /// Fixed per-kernel launch overhead in seconds. At least
    /// [`MIN_LAUNCH_OVERHEAD`]: every per-task time includes it, which is
    /// what makes the exact time sums ([`TimeSums`]) exact.
    pub launch_overhead: f64,
    /// Fixed overhead per *profiled subcomponent execution* (host-side
    /// synchronization, input staging) in seconds. Added once to each
    /// forward and backward measurement. This is what makes summing the
    /// profiles of many fine-grained subcomponents "a considerable
    /// overestimation" of the fused execution (paper §IV-C) — the effect
    /// the coarsening ablation exercises.
    pub invocation_overhead: f64,
    /// Multiplicative noise amplitude (0 = deterministic). A value σ makes
    /// each (subcomponent, batch) measurement a fixed pseudo-random factor
    /// in `[1−σ, 1+σ]`, emulating real profiling jitter deterministically.
    pub noise_sigma: f64,
    /// Seed for the noise model.
    pub noise_seed: u64,
}

impl ProfilerOptions {
    /// Deterministic FP32 profiling.
    pub fn fp32() -> Self {
        ProfilerOptions {
            precision: Precision::FP32,
            launch_overhead: 5.0e-6,
            invocation_overhead: 3.0e-5,
            noise_sigma: 0.0,
            noise_seed: 0,
        }
    }

    /// Deterministic mixed-precision profiling.
    pub fn mixed() -> Self {
        ProfilerOptions {
            precision: Precision::Mixed,
            ..ProfilerOptions::fp32()
        }
    }

    /// Enable measurement noise.
    pub fn with_noise(mut self, sigma: f64, seed: u64) -> Self {
        self.noise_sigma = sigma;
        self.noise_seed = seed;
        self
    }
}

/// What `profile` returns for one candidate stage: the paper's
/// `t^f, t^b, m` triple plus the stage's parameter count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileResult {
    /// Forward-pass wall time for one micro-batch, seconds.
    pub fwd_time: f64,
    /// Backward-pass wall time (including recomputation if gradient
    /// checkpointing is active), seconds.
    pub bwd_time: f64,
    /// Peak device memory, bytes.
    pub mem_bytes: usize,
    /// Parameter elements in the subcomponent.
    pub param_elems: usize,
}

/// Batch-independent statistics of a task set: the memory-model inputs
/// that depend only on *which* tasks are in the set, never on the
/// micro-batch size, in-flight count, or checkpointing flag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SetStats {
    param_elems: usize,
    ingress_bytes: usize,
    inter_act_bytes: usize,
    /// The part of `inter_act_bytes` output by column- and head-split
    /// tasks: each shard of a tensor-parallel group holds `1/T` of it.
    split_act_bytes: usize,
    /// FP32 output bytes (batch 1) of the row-split matmuls — the
    /// per-pass all-reduce volume of a tensor-parallel stage.
    split_out_bytes: usize,
}

impl SetStats {
    /// Add the statistics of a disjoint contribution.
    fn add(&mut self, other: &SetStats) {
        self.param_elems += other.param_elems;
        self.ingress_bytes += other.ingress_bytes;
        self.inter_act_bytes += other.inter_act_bytes;
        self.split_act_bytes += other.split_act_bytes;
        self.split_out_bytes += other.split_out_bytes;
    }

    /// The statistics of one task's outputs, `bytes` of them, by its
    /// split: every output is intermediate, a column or head split's is
    /// sharded, and a row split's is all-reduced.
    fn of_outputs(bytes: usize, split: TpSplit) -> SetStats {
        SetStats {
            inter_act_bytes: bytes,
            split_act_bytes: if split.shards_output() { bytes } else { 0 },
            split_out_bytes: if split == TpSplit::Row { bytes } else { 0 },
            ..SetStats::default()
        }
    }

    /// Intermediate activation bytes (batch 1) on each shard of a
    /// `tp`-wide group: the sharded part counts `1/T`. All of them at
    /// `tp = 1`.
    fn inter_act_bytes_per_shard(&self, tp: usize) -> usize {
        self.inter_act_bytes - self.split_act_bytes + self.split_act_bytes / tp
    }
}

/// An upper bound on a task set's statistics, priced for memory by
/// [`Profiler::bound_mem`]. A set's own statistics
/// ([`ProfiledSet::stats_bound`]) are its tightest bound, and the sum of
/// two sets' bounds bounds their union: every statistic is subadditive
/// under union (a union's parameters, intermediate outputs and ingress
/// values are each counted by one operand or both), and the memory
/// formula is nondecreasing in each. So a bound that fits a memory limit
/// proves that the set fits it, and pricing one costs O(1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsBound(SetStats);

impl Add for StatsBound {
    type Output = StatsBound;
    fn add(mut self, other: StatsBound) -> StatsBound {
        self.0.add(&other.0);
        self
    }
}

/// Fractional bits of the fixed-point time sums: one unit is 2⁻⁸⁰ s.
const TIME_FRAC_BITS: i32 = 80;

/// The smallest `launch_overhead` a [`Profiler`] accepts, 2⁻²⁷ s (~7.5 ns).
/// Every per-task time is at least the launch overhead, so the last
/// mantissa bit of any per-task time is at or above 2⁻⁷⁹ s, and the time
/// converts to a count of 2⁻⁸⁰ s exactly.
pub const MIN_LAUNCH_OVERHEAD: f64 = 1.0 / (1u64 << 27) as f64;

/// Exact raw time sums of a task set at one `(micro-batch, tp)` point:
/// its members' forward and backward roofline times, before the
/// invocation overhead, checkpointing recompute and noise that
/// [`Profiler::profile`] applies. Each sum is an integer count of
/// 2⁻⁸⁰ s, to which every per-task time converts exactly, so sums are
/// exact and independent of order: the sums of `v ∪ w` are those of `v`
/// plus those of `w` minus those of `v ∩ w`, bit for bit. The only
/// rounding is one conversion to seconds when a price is assembled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeSums {
    fwd: i128,
    bwd: i128,
}

impl TimeSums {
    /// The forward and backward sums as exact integer counts of
    /// 2⁻⁸⁰ s, for callers that compare or combine sums without rounding.
    pub fn counts(&self) -> (i128, i128) {
        (self.fwd, self.bwd)
    }
}

impl AddAssign for TimeSums {
    fn add_assign(&mut self, other: TimeSums) {
        self.fwd += other.fwd;
        self.bwd += other.bwd;
    }
}

impl SubAssign for TimeSums {
    fn sub_assign(&mut self, other: TimeSums) {
        self.fwd -= other.fwd;
        self.bwd -= other.bwd;
    }
}

impl Add for TimeSums {
    type Output = TimeSums;
    fn add(mut self, other: TimeSums) -> TimeSums {
        self += other;
        self
    }
}

impl Sub for TimeSums {
    type Output = TimeSums;
    fn sub(mut self, other: TimeSums) -> TimeSums {
        self -= other;
        self
    }
}

/// `secs` as an exact count of 2⁻⁸⁰ s, decoded from its bits: the
/// mantissa shifted by the exponent (`as i128` is a library call).
/// Panics unless `secs` is a normal value in `[2⁻²⁸, 2³³)` s: below it
/// (zero, negative, subnormal) the conversion would be inexact, above it
/// (non-finite included) a sum could overflow.
#[inline]
fn to_fixed(secs: f64) -> i128 {
    let bits = secs.to_bits();
    // the sign bit lands above the exponent: a negative value fails below
    let shift = (bits >> 52) as i32 - 1075 + TIME_FRAC_BITS;
    assert!(
        (0..=60).contains(&shift),
        "per-task time {secs} s has no exact fixed-point value"
    );
    (((bits & ((1 << 52) - 1)) | (1 << 52)) as i128) << shift
}

/// A fixed-point count of 2⁻⁸⁰ s in seconds: the one rounding step.
#[inline]
fn to_secs(fixed: i128) -> f64 {
    const UNIT: f64 = 1.0 / (1u128 << TIME_FRAC_BITS) as f64;
    fixed as f64 * UNIT
}

/// Counters of the time-sum slots one profiler filled and read through
/// [`Profiler::sum_parts`], for `--planner-stats` and the bench JSON. The
/// same shape counts the planner's DP arena memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a cache.
    pub hits: u64,
    /// Lookups that had to compute (and then insert).
    pub misses: u64,
}

impl CacheStats {
    /// Entries the caches hold: every miss fills exactly one.
    pub fn entries(&self) -> usize {
        self.misses as usize
    }

    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A task set with its batch-independent statistics, priced repeatedly.
///
/// The planner's range table builds one per block range
/// ([`BoundarySplit::prefixes`]) and prices it at many
/// `(micro-batch, tp)` points from time sums composed of its blocks'
/// ([`Profiler::sum_parts`]). A set is priced by the profiler that built
/// it.
#[derive(Debug)]
pub struct ProfiledSet<'s> {
    set: Cow<'s, TaskSet>,
    stats: SetStats,
}

impl ProfiledSet<'_> {
    /// The tasks of the set.
    pub fn tasks(&self) -> &TaskSet {
        &self.set
    }

    /// The set's statistics as a bound: its exact statistics, so
    /// [`Profiler::bound_mem`] of it is the set's memory.
    pub fn stats_bound(&self) -> StatsBound {
        StatsBound(self.stats)
    }
}

thread_local! {
    /// Per-thread stamp vector for value deduplication in the statistics
    /// walk: a thread resolves its buffer with no lock at all, and the
    /// buffer grows monotonically to the largest `num_values` seen.
    /// Stale stamps from other graphs sharing the buffer are harmless —
    /// the epoch bump invalidates every previous stamp.
    static SCRATCH: RefCell<(Vec<u32>, u32)> = const { RefCell::new((Vec::new(), 0)) };
}

/// Analytical stand-in for RaNNC's on-device profiler.
///
/// The per-task cost rows (each task's cost data and its inputs and
/// outputs, flattened) are a fact of the graph
/// ([`TaskGraph::task_costs`]): built once per graph, on its first
/// profiler, and borrowed by every later one. Construction reads only
/// each task's op, for its calibration factor. Pricing a set is then one
/// pass over its members that reads only those rows, never the graph.
/// The profiler keeps no results: a [`ProfiledSet`] carries its own
/// statistics, time sums live in the caller's slots
/// ([`Profiler::sum_parts`]), and the hit/miss counters of those slots
/// are the profiler's only mutable state.
pub struct Profiler<'g> {
    g: &'g TaskGraph,
    rows: &'g TaskCosts,
    device: DeviceSpec,
    opts: ProfilerOptions,
    /// Per-task calibration factor applied to the roofline term (1.0 = the
    /// pure analytical model; `x * 1.0` is bit-identical to `x`).
    cal: Vec<f64>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'g> Profiler<'g> {
    /// Build a profiler for one graph on one device model. Panics unless
    /// `opts.launch_overhead` is finite and at least
    /// [`MIN_LAUNCH_OVERHEAD`].
    pub fn new(g: &'g TaskGraph, device: DeviceSpec, opts: ProfilerOptions) -> Self {
        Profiler::new_scaled(g, device, opts, |_| 1.0)
    }

    /// Build a profiler whose per-task roofline estimates are multiplied by
    /// `scale_of(op)` — the hook calibrated cost models use to apply
    /// measured per-operator correction factors. `scale_of` returning 1.0
    /// for every op reproduces [`Profiler::new`] bit-for-bit.
    pub fn new_scaled(
        g: &'g TaskGraph,
        device: DeviceSpec,
        opts: ProfilerOptions,
        scale_of: impl Fn(&rannc_graph::OpKind) -> f64,
    ) -> Self {
        assert!(
            opts.launch_overhead.is_finite() && opts.launch_overhead >= MIN_LAUNCH_OVERHEAD,
            "launch_overhead {} s is below 2^-27 s: per-task times would not sum exactly",
            opts.launch_overhead
        );
        Profiler {
            g,
            rows: g.task_costs(),
            device,
            opts,
            cal: g.tasks().map(|(_, task)| scale_of(&task.op)).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The graph this profiler measures.
    pub fn graph(&self) -> &'g TaskGraph {
        self.g
    }

    /// The graph's cost rows this profiler reads: the graph's one table
    /// ([`TaskGraph::task_costs`]), shared with every other profiler of
    /// it.
    pub fn rows(&self) -> &'g TaskCosts {
        self.rows
    }

    /// The device model in use.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The profiling options in use.
    pub fn options(&self) -> &ProfilerOptions {
        &self.opts
    }

    /// Hits and misses of the time-sum slots read through
    /// [`Profiler::sum_parts`] since construction: a miss fills a slot, a
    /// hit reads a filled one. Pricing a plain set counts nothing.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Forward time of one task at a given micro-batch size on one shard
    /// of a `tp`-wide tensor-parallel group (1 = no tensor parallelism).
    /// Split tasks (column, head or row, [`rannc_graph::split`]) divide
    /// FLOPs, activation traffic, and parameter reads across the group;
    /// the launch overhead is paid in full by every member. Replicated
    /// tasks divide by 1.0, which is exact, so `tp == 1` is the plain
    /// roofline bit for bit. `cal` is the task's calibration factor.
    fn task_fwd_time(&self, c: &TaskCost, cal: f64, batch: usize, tp: usize) -> f64 {
        let scale = if c.scales { batch as f64 } else { 1.0 };
        let byte_scale = self.opts.precision.activation_bytes() as f64 / 4.0;
        let split = if c.split.is_split() { tp as f64 } else { 1.0 };
        let peak = if c.compute_bound {
            self.device.sustained_flops(self.opts.precision)
        } else {
            self.device.sustained_flops(Precision::FP32)
        };
        let flops = c.flops * scale / split;
        // activations scale with batch; parameter reads are amortized
        let bytes = (c.act_bytes * scale + c.static_bytes) / split * byte_scale;
        let t_compute = flops / peak;
        let t_memory = bytes / self.device.mem_bandwidth;
        // Calibration scales the modelled kernel time, not the fixed launch
        // overhead; `cal == 1.0` leaves the sum bit-identical.
        t_compute.max(t_memory) * cal + self.opts.launch_overhead
    }

    /// Run `f` on this thread's stamp buffer with `parts` fresh,
    /// consecutive stamps `base..base + parts`: every stamp in the buffer
    /// is below `base`, so no value counts as seen yet.
    fn with_stamps<R>(&self, parts: usize, f: impl FnOnce(&mut [u32], u32) -> R) -> R {
        let parts = u32::try_from(parts).expect("more parts than stamps");
        SCRATCH.with(|cell| {
            let mut buf = cell.borrow_mut();
            let (stamps, stamp) = &mut *buf;
            if stamps.len() < self.g.num_values() {
                stamps.resize(self.g.num_values(), 0);
            }
            if stamp.checked_add(parts).is_none() {
                stamps.iter_mut().for_each(|s| *s = 0);
                *stamp = 0;
            }
            let base = *stamp + 1;
            *stamp += parts;
            f(stamps, base)
        })
    }

    /// The one set-statistics accumulation routine: turn `stats`, the
    /// statistics of the parts stamped `base..cur`, into those of `union`
    /// = those parts ∪ `part`, stamping values first seen here with `cur`.
    /// Parts may overlap: a task of `held`, the earlier parts' union when
    /// it shares tasks with `part` (`None` otherwise), adds nothing. The
    /// order of the parts is free. Reads only the graph's flat per-task
    /// rows; every sum is an exact integer, so any split of a set into
    /// parts gives the statistics of the set computed in one part.
    fn add_part(
        &self,
        stats: &mut SetStats,
        stamps: &mut [u32],
        (base, cur): (u32, u32),
        part: &TaskSet,
        (held, union): (Option<&TaskSet>, &TaskSet),
    ) {
        for t in part.iter() {
            if held.is_some_and(|held| held.contains(t)) {
                continue;
            }
            let c = self.rows.task(t);
            if c.scales {
                stats.add(&SetStats::of_outputs(c.out_act_bytes, c.split));
            }
            if cur > base {
                // an earlier part read this output as ingress (its producer
                // was outside the union then); now it is produced inside
                for row in self.rows.outputs(c) {
                    if (base..cur).contains(&stamps[row.value as usize]) {
                        stats.ingress_bytes -= row.bytes;
                    }
                }
            }
            // Static and activation inputs are distinct values, so the
            // two passes share one stamp range without ever stamping the
            // same id; each value counts once per union.
            for row in self.rows.static_inputs(c) {
                let v = row.value as usize;
                if stamps[v] < base {
                    stamps[v] = cur;
                    stats.param_elems += row.param_elems;
                }
            }
            for row in self.rows.act_inputs(c) {
                let v = row.value as usize;
                if stamps[v] < base {
                    stamps[v] = cur;
                    if !union.contains(TaskId(row.producer)) {
                        stats.ingress_bytes += row.bytes;
                    }
                }
            }
        }
    }

    /// Parameter elements and deduplicated ingress/intermediate activation
    /// bytes of `set`: [`Self::add_part`] with the set as its only part.
    fn set_stats(&self, set: &TaskSet) -> SetStats {
        self.with_stamps(1, |stamps, base| {
            let mut stats = SetStats::default();
            self.add_part(&mut stats, stamps, (base, base), set, (None, set));
            stats
        })
    }

    /// `set` with its statistics, ready to be priced through
    /// [`Profiler::profile`] and [`Profiler::profile_mem`]. Borrows the
    /// set: building one costs a statistics walk, no copy.
    pub fn profiled<'s>(&self, set: &'s TaskSet) -> ProfiledSet<'s> {
        ProfiledSet {
            set: Cow::Borrowed(set),
            stats: self.set_stats(set),
        }
    }

    /// Exact raw time sums of `tasks` at `(batch, tp)`: one walk over the
    /// tasks, each converted to fixed point on its own, so the order of
    /// the tasks does not matter. A task listed twice counts twice.
    pub fn time_sums(
        &self,
        tasks: impl IntoIterator<Item = TaskId>,
        batch: usize,
        tp: usize,
    ) -> TimeSums {
        let tp = tp.max(1);
        let mut sums = TimeSums::default();
        for t in tasks {
            let c = self.rows.task(t);
            let fwd = to_fixed(self.task_fwd_time(c, self.cal[t.index()], batch, tp));
            sums.fwd += fwd;
            // backward: dgrad+wgrad for dense ops ≈ 2× forward; ~1× for
            // element-wise / normalization / layout ops.
            sums.bwd += if c.compute_bound { 2 * fwd } else { fwd };
        }
        sums
    }

    /// The summed time sums of `parts` at `(batch, tp)`. Part `i`'s sums
    /// are read from `slots[i]`, or walked into it on first read; the
    /// caller keeps one slot per part and point, and hands the same part
    /// to a slot every time. A fill counts one miss, inside the slot's
    /// one-time initialisation; every other read adds one hit to `hits`,
    /// which the caller publishes ([`Profiler::count_hits`]), once per
    /// batch of reads, so that concurrent readers do not contend on the
    /// shared counter. So the counters depend only on which slots are
    /// read, never on which thread filled one.
    pub fn sum_parts(
        &self,
        slots: &[OnceLock<TimeSums>],
        parts: &[TaskSet],
        batch: usize,
        tp: usize,
        hits: &mut u64,
    ) -> TimeSums {
        debug_assert_eq!(slots.len(), parts.len(), "one slot per part");
        let mut fills = 0u64;
        let mut sums = TimeSums::default();
        for (slot, part) in slots.iter().zip(parts) {
            sums += *slot.get_or_init(|| {
                fills += 1;
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.time_sums(part.iter(), batch, tp)
            });
        }
        *hits += slots.len() as u64 - fills;
        sums
    }

    /// Publish slot hits a caller counted through [`Profiler::sum_parts`]
    /// into [`Profiler::cache_stats`].
    pub fn count_hits(&self, hits: u64) {
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
    }

    /// Profile a candidate stage: the paper's `profile(U, bs)`.
    ///
    /// * `batch` — micro-batch size in samples (Algorithm 1 passes
    ///   `⌊BS/R/MB/(d−d′)⌋`);
    /// * `inflight` — micro-batches resident on the stage at the pipeline's
    ///   memory peak (`MB` for synchronous fill–drain);
    /// * `checkpointing` — whether gradient checkpointing is active.
    ///
    /// One pass over the members for the statistics and one for the time
    /// sums; nothing is kept. Exactly [`Profiler::profile`] of the set at
    /// `tp = 1`.
    pub fn profile_set(
        &self,
        set: &TaskSet,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
    ) -> ProfileResult {
        let time = self.time_sums(set.iter(), batch, 1);
        self.profile(&self.profiled(set), time, batch, inflight, checkpointing, 1)
    }

    /// [`Profiler::profile_set`] of a [`ProfiledSet`] whose exact time
    /// sums at `(batch, tp)` are `time`, on one shard of a tensor-parallel
    /// group of `tp` devices. The one assembly of a stage's price from
    /// its statistics and time sums; the sums must be the set's at this
    /// point, walked ([`Profiler::time_sums`]) or composed from parts.
    ///
    /// The graph's split rule ([`rannc_graph::split`], Megatron's layout)
    /// decides what divides: split tasks divide FLOPs, activation
    /// traffic, and parameter reads `tp` ways, and every replicated task
    /// runs whole on all group members. Weight/optimizer state is sharded
    /// (`param_elems / tp` in the memory model), column- and head-split
    /// activations are charged `1/tp` on each shard, and every other
    /// activation (a row-split matmul's all-reduced output included) is
    /// full-size. The per-pass activation all-reduce is *not* included
    /// here; the cost model adds it (it needs cluster topology).
    pub fn profile(
        &self,
        set: &ProfiledSet<'_>,
        time: TimeSums,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
        tp: usize,
    ) -> ProfileResult {
        let tp = tp.max(1);
        let noise = self.noise_factor(set.set.indexed_words(), time_key(batch, tp));
        let (fwd_time, bwd_time) = self.times(time, noise, checkpointing);
        ProfileResult {
            fwd_time,
            bwd_time,
            mem_bytes: self.stage_mem_bytes(&set.stats, batch, inflight, checkpointing, tp),
            param_elems: set.stats.param_elems,
        }
    }

    /// The forward and backward times [`Profiler::profile`] gives
    /// `v ∪ w` at `(batch, tp)` when the union's exact time sums are
    /// `time`, bit for bit, without building the union or its
    /// statistics: with noise on, the union's draw hashes its words read
    /// from both windows ([`TaskSet::union_words`]).
    pub fn union_times(
        &self,
        (v, w): (&TaskSet, &TaskSet),
        time: TimeSums,
        batch: usize,
        checkpointing: bool,
        tp: usize,
    ) -> (f64, f64) {
        let noise = self.noise_factor(v.union_words(w), time_key(batch, tp.max(1)));
        self.times(time, noise, checkpointing)
    }

    /// Forward and backward times from exact time sums and a noise
    /// factor: the one time formula behind [`Profiler::profile`] and
    /// [`Profiler::union_times`].
    fn times(&self, time: TimeSums, noise: f64, checkpointing: bool) -> (f64, f64) {
        // per-execution host overhead (sync, input staging)
        let fwd = to_secs(time.fwd) + self.opts.invocation_overhead;
        let mut bwd = to_secs(time.bwd) + self.opts.invocation_overhead;
        if checkpointing {
            // recomputation replays the forward pass before backward
            bwd += fwd;
        }
        (fwd * noise, bwd * noise)
    }

    /// Peak memory of a stage from its set statistics: the one memory
    /// formula behind [`Profiler::profile`] and [`Profiler::bound_mem`].
    /// Weight/optimizer state is sharded `tp` ways, and so are the column-
    /// and head-split activations; the rest stay full-size.
    fn stage_mem_bytes(
        &self,
        stats: &SetStats,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
        tp: usize,
    ) -> usize {
        let mem = MemoryParams {
            precision: self.opts.precision,
            checkpointing,
            inflight: inflight.max(1),
        };
        mem.stage_bytes(
            stats.param_elems / tp,
            stats.ingress_bytes,
            stats.inter_act_bytes_per_shard(tp),
            batch,
        )
    }

    /// The memory half of [`Profiler::profile`]: exactly its `mem_bytes`,
    /// from the set's statistics alone, so pricing it costs O(1) whatever
    /// the set's size.
    pub fn profile_mem(
        &self,
        set: &ProfiledSet<'_>,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
        tp: usize,
    ) -> usize {
        self.bound_mem(&set.stats_bound(), batch, inflight, checkpointing, tp)
    }

    /// [`Profiler::profile_mem`] of a statistics bound: at least the
    /// memory of every set the bound covers, and exactly it for a set's
    /// own statistics. Monotone: the formula never decreases as any
    /// statistic grows, the sharded share at `tp > 1` included.
    pub fn bound_mem(
        &self,
        bound: &StatsBound,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
        tp: usize,
    ) -> usize {
        self.stage_mem_bytes(&bound.0, batch, inflight, checkpointing, tp.max(1))
    }

    /// Per-micro-batch, per-pass tensor-parallel all-reduce volume of a
    /// stage: the row-split matmuls' outputs (their partial sums) for
    /// `batch` samples at activation precision — Megatron's two
    /// all-reduces per transformer layer. Zero for stages with no
    /// row-split matmul.
    pub fn tp_allreduce_bytes(&self, set: &ProfiledSet<'_>, batch: usize) -> usize {
        (set.stats.split_out_bytes as f64
            * batch as f64
            * self.opts.precision.activation_bytes() as f64
            / 4.0) as usize
    }

    /// Communication volume from `from` to `to` for one micro-batch of
    /// `batch` samples, at activation precision.
    pub fn comm_bytes(&self, from: &TaskSet, to: &TaskSet, batch: usize) -> usize {
        let base = traverse::cut_bytes(self.g, from, to);
        (base as f64 * batch as f64 * self.opts.precision.activation_bytes() as f64 / 4.0) as usize
    }

    /// The measurement-noise factor at the time point `key` of the set
    /// whose indexed words are `words`: a fixed draw in `[1−σ, 1+σ]`
    /// salted by the set's membership hash, or exactly 1 without noise
    /// (the words are then never read).
    fn noise_factor(&self, words: impl Iterator<Item = (usize, u64)>, key: u64) -> f64 {
        if self.opts.noise_sigma == 0.0 {
            return 1.0;
        }
        let salt = set_key(words) ^ key as u128;
        let h = splitmix(self.opts.noise_seed ^ (salt as u64) ^ ((salt >> 64) as u64));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        1.0 + self.opts.noise_sigma * (2.0 * unit - 1.0)
    }
}

/// 128-bit membership hash of a task set given by its indexed words
/// ([`TaskSet::indexed_words`]), the noise model's salt: its non-zero
/// bitset words, each mixed with its absolute word index, folded into two
/// independent 64-bit lanes. Costs O(window), not O(members) or
/// O(universe). Skipping zero words makes it the fold over the full
/// universe-wide word array, so the hash is a function of membership
/// alone, however the words were produced.
fn set_key(words: impl Iterator<Item = (usize, u64)>) -> u128 {
    let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h2: u64 = 0x9e37_79b9_7f4a_7c15;
    for (i, w) in words {
        if w == 0 {
            continue;
        }
        let salt = splitmix(i as u64);
        h1 = (h1 ^ splitmix(w ^ salt)).wrapping_mul(0x1000_0000_01b3);
        h2 = h2.rotate_left(13) ^ splitmix(w.wrapping_add(salt) ^ 0xdead_beef);
    }
    ((h1 as u128) << 64) | h2 as u128
}

/// Key of a time point, the noise model's per-point salt: the micro-batch
/// in the low 32 bits and the tensor-parallel degree (1 when unsplit) in
/// the high 32. Lossless: a value that does not fit panics instead of
/// aliasing another point.
fn time_key(batch: usize, tp: usize) -> u64 {
    let batch = u32::try_from(batch).expect("micro-batch exceeds u32::MAX samples");
    let tp = u32::try_from(tp).expect("tensor-parallel degree exceeds u32::MAX");
    (tp as u64) << 32 | batch as u64
}

#[inline]
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc_graph::ValueKind;
    use rannc_models::{
        bert_graph, gpt_graph, mlp_graph, resnet_graph, t5_graph, BertConfig, GptConfig, MlpConfig,
        ResNetConfig, T5Config,
    };

    /// [`Profiler::sum_parts`] with its hits published at once.
    fn read(
        p: &Profiler<'_>,
        slots: &[OnceLock<TimeSums>],
        parts: &[TaskSet],
        batch: usize,
        tp: usize,
    ) -> TimeSums {
        let mut hits = 0;
        let sums = p.sum_parts(slots, parts, batch, tp, &mut hits);
        p.count_hits(hits);
        sums
    }

    fn whole_set(g: &TaskGraph) -> TaskSet {
        TaskSet::from_ids(g.num_tasks(), g.task_ids())
    }

    /// The set statistics computed straight from the graph: every member's
    /// inputs and outputs looked up through `g.value()`, each value counted
    /// once, and its outputs sharded or all-reduced by the graph's split
    /// rule. The reference the flat-row miss path must equal.
    fn reference_set_stats(g: &TaskGraph, set: &TaskSet) -> SetStats {
        let non_constant = g.index().non_constant();
        let mut stats = SetStats::default();
        let mut seen = vec![false; g.num_values()];
        for t in set.iter() {
            let task = g.task(t);
            if non_constant[t.index()] {
                let out: usize = task.outputs.iter().map(|&v| g.value(v).size_bytes()).sum();
                stats.inter_act_bytes += out;
                match g.index().split(t) {
                    TpSplit::Column | TpSplit::Head => stats.split_act_bytes += out,
                    TpSplit::Row => stats.split_out_bytes += out,
                    TpSplit::Replicated => {}
                }
            }
            for &v in &task.inputs {
                if std::mem::replace(&mut seen[v.index()], true) {
                    continue;
                }
                let val = g.value(v);
                if val.kind == ValueKind::Param {
                    stats.param_elems += val.numel();
                } else if !val.kind.is_static() && !val.producer.is_some_and(|p| set.contains(p)) {
                    stats.ingress_bytes += val.size_bytes();
                }
            }
        }
        stats
    }

    /// Assert that the profiler's statistics of `set`, and everything
    /// `profile`/`tp_allreduce_bytes` derive from them, equal the
    /// reference at `tp ∈ {1, 2, 4}`, with and without checkpointing.
    fn assert_stats_match_reference(g: &TaskGraph, p: &Profiler<'_>, set: &TaskSet) {
        let want = reference_set_stats(g, set);
        let profiled = p.profiled(set);
        assert_eq!(profiled.stats, want);
        let batch = 4;
        for tp in [1usize, 2, 4] {
            for checkpointing in [false, true] {
                let time = p.time_sums(set.iter(), batch, tp);
                let got = p.profile(&profiled, time, batch, 2, checkpointing, tp);
                let mem = MemoryParams {
                    precision: p.options().precision,
                    checkpointing,
                    inflight: 2,
                };
                assert_eq!(got.param_elems, want.param_elems);
                let inter = want.inter_act_bytes - want.split_act_bytes + want.split_act_bytes / tp;
                assert_eq!(
                    got.mem_bytes,
                    mem.stage_bytes(want.param_elems / tp, want.ingress_bytes, inter, batch),
                    "tp {tp}, checkpointing {checkpointing}"
                );
            }
        }
        let act_scale = p.options().precision.activation_bytes() as f64 / 4.0;
        assert_eq!(
            p.tp_allreduce_bytes(&profiled, batch),
            (want.split_out_bytes as f64 * batch as f64 * act_scale) as usize
        );
    }

    /// At `tp > 1` the split rule alone decides what divides: a replicated
    /// task's time is bit-identical to its `tp = 1` time, a split task's
    /// (column, head or row) is no slower, and the split matmuls are
    /// strictly faster. Row-split outputs are what `tp_allreduce_bytes`
    /// counts, and the sharded activations shrink the memory.
    #[test]
    fn split_rule_decides_what_divides() {
        let g = bert_graph(&BertConfig::tiny());
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        for t in g.task_ids() {
            let c = p.rows.task(t);
            let (one, four) = (p.task_fwd_time(c, 1.0, 8, 1), p.task_fwd_time(c, 1.0, 8, 4));
            match g.index().split(t) {
                TpSplit::Replicated => assert_eq!(one.to_bits(), four.to_bits(), "{t}"),
                _ if c.compute_bound => assert!(four < one, "{t}"),
                _ => assert!(four <= one, "{t}"),
            }
        }
        let whole = whole_set(&g);
        let set = p.profiled(&whole);
        let rows: usize = g
            .task_ids()
            .filter(|&t| g.index().split(t) == TpSplit::Row)
            .map(|t| p.rows.task(t).out_act_bytes)
            .sum();
        assert!(rows > 0);
        assert_eq!(p.tp_allreduce_bytes(&set, 1), rows);
        assert!(set.stats.split_act_bytes > 0);
        assert!(p.profile_mem(&set, 8, 1, false, 4) < p.profile_mem(&set, 8, 1, false, 1));
    }

    #[test]
    fn times_scale_with_batch() {
        let g = bert_graph(&BertConfig::tiny());
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let s = whole_set(&g);
        let r1 = p.profile_set(&s, 1, 1, false);
        let r8 = p.profile_set(&s, 8, 1, false);
        assert!(r8.fwd_time > r1.fwd_time);
        assert!(r8.bwd_time > r1.bwd_time);
    }

    #[test]
    fn backward_slower_than_forward() {
        let g = bert_graph(&BertConfig::tiny());
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let r = p.profile_set(&whole_set(&g), 4, 1, false);
        assert!(r.bwd_time > r.fwd_time);
    }

    #[test]
    fn checkpointing_adds_recompute_time_saves_memory() {
        let g = bert_graph(&BertConfig::tiny());
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let s = whole_set(&g);
        let plain = p.profile_set(&s, 4, 8, false);
        let ckpt = p.profile_set(&s, 4, 8, true);
        assert!(ckpt.bwd_time > plain.bwd_time);
        assert!(ckpt.mem_bytes < plain.mem_bytes);
        assert_eq!(ckpt.fwd_time, plain.fwd_time);
    }

    #[test]
    fn param_elems_match_graph() {
        let g = bert_graph(&BertConfig::tiny());
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let r = p.profile_set(&whole_set(&g), 1, 1, false);
        assert_eq!(r.param_elems, g.param_count());
    }

    #[test]
    fn split_params_sum_to_whole() {
        let g = mlp_graph(&MlpConfig::deep(32, 64, 4, 10));
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let n = g.num_tasks();
        let half = n / 2;
        let a = TaskSet::from_ids(n, (0..half as u32).map(TaskId));
        let b = TaskSet::from_ids(n, (half as u32..n as u32).map(TaskId));
        let ra = p.profile_set(&a, 1, 1, false);
        let rb = p.profile_set(&b, 1, 1, false);
        assert_eq!(ra.param_elems + rb.param_elems, g.param_count());
    }

    #[test]
    fn mixed_precision_is_faster() {
        let g = bert_graph(&BertConfig::tiny());
        let f = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let m = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::mixed());
        let s = whole_set(&g);
        let rf = f.profile_set(&s, 8, 1, false);
        let rm = m.profile_set(&s, 8, 1, false);
        assert!(rm.fwd_time < rf.fwd_time);
    }

    /// One fresh slot per entry of `n`.
    fn slots(n: usize) -> Vec<OnceLock<TimeSums>> {
        (0..n).map(|_| OnceLock::new()).collect()
    }

    #[test]
    fn cache_hits() {
        let g = bert_graph(&BertConfig::tiny());
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let s = whole_set(&g);
        let (slot, part) = (slots(1), [s.clone()]);
        let t1 = read(&p, &slot, &part, 4, 1);
        // one filled slot
        assert_eq!(p.cache_stats().entries(), 1);
        let t2 = read(&p, &slot, &part, 4, 1);
        assert_eq!(p.cache_stats().entries(), 1);
        assert_eq!(t1, t2);
        // pricing from the slot's sums equals pricing the plain set, and
        // the plain set counts nothing
        assert_eq!(
            p.profile(&p.profiled(&s), t1, 4, 2, true, 1),
            p.profile_set(&s, 4, 2, true)
        );
        assert_eq!(p.cache_stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn cache_stats_track_hits_and_misses() {
        let g = bert_graph(&BertConfig::tiny());
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let part = [whole_set(&g)];
        let (at4, at8) = (slots(1), slots(1));
        assert_eq!(p.cache_stats(), CacheStats::default());
        // miss
        let _ = read(&p, &at4, &part, 4, 1);
        // hit
        let _ = read(&p, &at4, &part, 4, 1);
        // batch changed, so another slot: miss
        let _ = read(&p, &at8, &part, 8, 1);
        let stats = p.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(stats.entries(), 2);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn inflight_and_ckpt_variants_share_one_time_entry() {
        // (inflight, ckpt) only affect the cheap assembly, so variants of
        // an already-filled (set, batch) slot never recompute anything
        let g = bert_graph(&BertConfig::tiny());
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let s = whole_set(&g);
        let profiled = p.profiled(&s);
        let (slot, part) = (slots(1), [s.clone()]);
        let _ = read(&p, &slot, &part, 4, 1);
        let before = p.cache_stats();
        for (inflight, ckpt) in [(8, true), (2, false), (1, false)] {
            let time = read(&p, &slot, &part, 4, 1);
            assert_eq!(
                p.profile(&profiled, time, 4, inflight, ckpt, 1),
                p.profile_set(&s, 4, inflight, ckpt)
            );
        }
        let after = p.cache_stats();
        assert_eq!(after.misses, before.misses, "variants must not recompute");
        assert_eq!(after.hits, before.hits + 3);
    }

    #[test]
    fn concurrent_profiling_is_consistent() {
        // Threads pricing the same shared sets at the same points must
        // agree with plain pricing exactly (thread-local scratch must not
        // leak state between concurrent calls), and each (set, point)
        // slot must miss exactly once whatever the schedule: a racing
        // read waits for the one fill.
        let g = bert_graph(&BertConfig::tiny());
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let n = g.num_tasks() as u32;
        let sets: Vec<TaskSet> = (0..32u32)
            .map(|i| {
                let lo = (i * 7) % n;
                let hi = (lo + 1 + (i * 13) % (n - lo)).min(n);
                TaskSet::from_ids(n as usize, (lo..hi).map(TaskId))
            })
            .collect();
        let shared: Vec<ProfiledSet<'_>> = sets.iter().map(|s| p.profiled(s)).collect();
        let points = [(4usize, 1usize), (4, 2), (8, 1)];
        let point_slots: Vec<Vec<OnceLock<TimeSums>>> =
            points.iter().map(|_| slots(sets.len())).collect();
        let threads = 4;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for (i, (set, profiled)) in sets.iter().zip(&shared).enumerate() {
                        for (&(batch, tp), slots) in points.iter().zip(&point_slots) {
                            let time = read(&p, &slots[i..i + 1], &sets[i..i + 1], batch, tp);
                            let got = p.profile(profiled, time, batch, 2, true, tp);
                            if tp == 1 {
                                assert_eq!(got, p.profile_set(set, batch, 2, true));
                            }
                        }
                    }
                });
            }
        });
        let lookups = (threads * sets.len() * points.len()) as u64;
        let misses = (sets.len() * points.len()) as u64;
        assert_eq!(
            p.cache_stats(),
            CacheStats {
                hits: lookups - misses,
                misses
            }
        );
    }

    /// The exact sum of `values`, correctly rounded to f64: Shewchuk's
    /// non-overlapping partials (the algorithm of Python's `math.fsum`),
    /// independent of any fixed-point scale.
    fn fsum(values: impl IntoIterator<Item = f64>) -> f64 {
        let mut partials: Vec<f64> = Vec::new();
        for mut x in values {
            let mut kept = 0;
            for i in 0..partials.len() {
                let mut y = partials[i];
                if x.abs() < y.abs() {
                    std::mem::swap(&mut x, &mut y);
                }
                let hi = x + y;
                let lo = y - (hi - x);
                if lo != 0.0 {
                    partials[kept] = lo;
                    kept += 1;
                }
                x = hi;
            }
            partials.truncate(kept);
            partials.push(x);
        }
        // round the partials' exact sum once, half to even
        let mut hi = 0.0;
        if let Some(mut n) = partials.len().checked_sub(1) {
            hi = partials[n];
            let mut lo = 0.0;
            while n > 0 {
                n -= 1;
                let x = hi;
                let y = partials[n];
                hi = x + y;
                let yr = hi - x;
                lo = y - yr;
                if lo != 0.0 {
                    break;
                }
            }
            if n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0))
            {
                let y = lo * 2.0;
                let x = hi + y;
                if y == x - hi {
                    hi = x;
                }
            }
        }
        hi
    }

    #[test]
    fn time_sums_are_the_correctly_rounded_exact_sums() {
        // The fixed-point walk must give, after its one rounding, exactly
        // the correctly rounded sum of the per-task f64 times, for every
        // model, point and precision: an independent exact reference.
        let graphs = [
            bert_graph(&BertConfig::tiny()),
            gpt_graph(&GptConfig::tiny()),
            resnet_graph(&ResNetConfig::tiny()),
            mlp_graph(&MlpConfig::deep(32, 64, 4, 10)),
        ];
        for g in &graphs {
            for opts in [ProfilerOptions::fp32(), ProfilerOptions::mixed()] {
                let p = Profiler::new(g, DeviceSpec::v100_32gb(), opts);
                for (batch, tp) in [(1usize, 1usize), (4, 2), (64, 4)] {
                    let fwd: Vec<f64> = g
                        .task_ids()
                        .map(|t| p.task_fwd_time(p.rows.task(t), p.cal[t.index()], batch, tp))
                        .collect();
                    let bwd = g.task_ids().zip(&fwd).map(|(t, &f)| {
                        if p.rows.task(t).compute_bound {
                            2.0 * f
                        } else {
                            f
                        }
                    });
                    let sums = p.time_sums(g.task_ids(), batch, tp);
                    assert_eq!(to_secs(sums.fwd), fsum(fwd.iter().copied()), "{}", g.name);
                    assert_eq!(to_secs(sums.bwd), fsum(bwd), "{}", g.name);
                }
            }
        }
    }

    #[test]
    fn fixed_point_conversion_is_exact_and_bounded() {
        for secs in [MIN_LAUNCH_OVERHEAD, 5.0e-6, 0.1 + 0.2, 1.0, 3.0e9] {
            assert_eq!(to_secs(to_fixed(secs)), secs);
            assert_eq!(
                to_fixed(secs) % 2,
                0,
                "the last bit sits at or above 2^-79 s"
            );
        }
        for bad in [
            0.0,
            -1.0,
            MIN_LAUNCH_OVERHEAD / 4.0,
            f64::NAN,
            f64::INFINITY,
            1e10,
        ] {
            assert!(std::panic::catch_unwind(|| to_fixed(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn inline_ingress_matches_reference() {
        // Contiguous ranges: the stamp-deduplicated ingress must also
        // agree with the collect-then-filter `traverse::ingress_values`.
        let g = bert_graph(&BertConfig::tiny());
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let n = g.num_tasks() as u32;
        for (lo, hi) in [(0, n / 2), (n / 4, 3 * n / 4), (n / 2, n), (0, n)] {
            let set = TaskSet::from_ids(n as usize, (lo..hi).map(TaskId));
            let ingress: usize = traverse::ingress_values(&g, &set)
                .into_iter()
                .filter(|&v| !g.value(v).kind.is_static())
                .map(|v| g.value(v).size_bytes())
                .sum();
            assert_eq!(reference_set_stats(&g, &set).ingress_bytes, ingress);
            assert_stats_match_reference(&g, &p, &set);
        }
    }

    #[test]
    fn set_stats_match_reference_on_atomic_unions() {
        // Random non-contiguous unions of atomic sets. The bert and gpt
        // graphs tie parameters, and atomic sets clone constants, so
        // values are shared between the united sets and dedup matters.
        let graphs = [
            bert_graph(&BertConfig::tiny()),
            gpt_graph(&GptConfig::tiny()),
            t5_graph(&T5Config::tiny()),
            resnet_graph(&ResNetConfig::tiny()),
        ];
        let mut rng = 0x5eed_u64;
        for g in &graphs {
            let p = Profiler::new(g, DeviceSpec::v100_32gb(), ProfilerOptions::mixed());
            let atoms = rannc_core::atomic_partition(g).sets;
            for _ in 0..16 {
                rng = splitmix(rng);
                // keep each atomic set with probability 1/4 .. 3/4
                let keep = 1 + rng % 3;
                let mut set = TaskSet::new(g.num_tasks());
                for atom in &atoms {
                    rng = splitmix(rng);
                    if rng % 4 < keep {
                        set.union_with(atom);
                    }
                }
                assert_stats_match_reference(g, &p, &set);
            }
        }
    }

    #[test]
    fn prefix_stats_match_reference_in_any_part_order() {
        // Parts that interleave task ids, unioned in random order, and
        // from k = 2 on with a share of tasks in a second part too: a
        // value read by an early part and produced by a later one must
        // leave the ingress when its producer joins, shared parameters
        // and constants must count once per union, and a task two parts
        // hold must count once. Every first part starts a row of
        // prefixes, as the planner's range table walks them.
        let graphs = [
            bert_graph(&BertConfig::tiny()),
            gpt_graph(&GptConfig::tiny()),
            t5_graph(&T5Config::tiny()),
            resnet_graph(&ResNetConfig::tiny()),
            mlp_graph(&MlpConfig::deep(32, 64, 4, 10)),
        ];
        let mut rng = 0x5eed_u64;
        for g in &graphs {
            let n = g.num_tasks();
            for k in 1..6usize {
                let mut members = vec![Vec::new(); k];
                for t in g.task_ids() {
                    rng = splitmix(rng);
                    members[rng as usize % k].push(t);
                    if (rng >> 32).is_multiple_of(5) {
                        members[(rng >> 40) as usize % k].push(t);
                    }
                }
                let parts: Vec<TaskSet> = members
                    .into_iter()
                    .map(|m| TaskSet::from_ids(n, m))
                    .collect();
                let p = Profiler::new(g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
                let split = p.boundary_split(parts.clone());
                for from in 0..k {
                    let prefixes = split.prefixes(from);
                    assert_eq!(prefixes.len(), k - from);
                    let mut union = TaskSet::new(n);
                    let mut copies = 0;
                    for (part, prefix) in parts[from..].iter().zip(&prefixes) {
                        copies += part.len();
                        union.union_with(part);
                        assert_eq!(prefix.set.tasks(), &union);
                        assert_eq!(prefix.set.stats, reference_set_stats(g, &union));
                        assert_eq!(prefix.egress, traverse::egress_bytes(g, &union));
                        assert_eq!(prefix.repeated.len(), copies - union.len());
                    }
                }
                assert_eq!(p.cache_stats(), CacheStats::default());
            }
        }
    }

    #[test]
    fn union_pricing_without_the_union_matches_the_union() {
        // overlapping, disjoint and nested operands with noise on: the
        // union's times from its operands' windows equal its priced
        // times, and its operands' summed bounds cover its statistics
        let g = bert_graph(&BertConfig::tiny());
        let p = Profiler::new(
            &g,
            DeviceSpec::v100_32gb(),
            ProfilerOptions::fp32().with_noise(0.05, 11),
        );
        let n = g.num_tasks() as u32;
        let range = |lo: u32, hi: u32| TaskSet::from_ids(n as usize, (lo..hi).map(TaskId));
        let mut loose = 0;
        for (v, w) in [
            (range(0, n / 2), range(n / 4, 3 * n / 4)),
            (range(0, n / 3), range(n / 3, n)),
            (range(0, n), range(n / 5, n / 4)),
            (range(n / 2, n), range(0, 70)),
        ] {
            let union = v.union(&w);
            let exact = p.profiled(&union);
            let bound = p.profiled(&v).stats_bound() + p.profiled(&w).stats_bound();
            for (batch, tp, ckpt) in [(1, 1, true), (4, 2, false), (3, 4, true)] {
                let time = p.time_sums(union.iter(), batch, tp);
                let want = p.profile(&exact, time, batch, 2, ckpt, tp);
                let (fwd, bwd) = p.union_times((&v, &w), time, batch, ckpt, tp);
                assert_eq!(fwd.to_bits(), want.fwd_time.to_bits());
                assert_eq!(bwd.to_bits(), want.bwd_time.to_bits());
                assert_eq!(
                    p.bound_mem(&exact.stats_bound(), batch, 2, ckpt, tp),
                    want.mem_bytes
                );
                let bounded = p.bound_mem(&bound, batch, 2, ckpt, tp);
                assert!(bounded >= want.mem_bytes, "bound below the union's memory");
                loose += usize::from(bounded > want.mem_bytes);
            }
        }
        assert!(loose > 0, "overlapping operands must give a loose bound");
    }

    #[test]
    fn set_key_depends_on_word_position() {
        // equal word values at different word indices are different sets
        let set = |ids: &[u32]| TaskSet::from_ids(200, ids.iter().map(|&t| TaskId(t)));
        let keys = [
            key(&set(&[])),
            key(&set(&[0])),
            key(&set(&[64])),
            key(&set(&[0, 64])),
            key(&set(&[64, 128])),
            key(&set(&[0, 128])),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // and the key ignores how the set was built
        assert_eq!(key(&set(&[0, 64])), key(&set(&[0]).union(&set(&[64]))));
    }

    /// The membership hash of a set, from its own words.
    fn key(set: &TaskSet) -> u128 {
        set_key(set.indexed_words())
    }

    /// The membership hash over a set's full universe-wide word array, as
    /// it was computed before sets were trimmed to their window.
    fn dense_set_key(set: &TaskSet) -> u128 {
        let mut dense = vec![0u64; set.universe().div_ceil(64)];
        for t in set.iter() {
            dense[t.index() / 64] |= 1 << (t.index() % 64);
        }
        let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
        let mut h2: u64 = 0x9e37_79b9_7f4a_7c15;
        for (i, &w) in dense.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let salt = splitmix(i as u64);
            h1 = (h1 ^ splitmix(w ^ salt)).wrapping_mul(0x1000_0000_01b3);
            h2 = h2.rotate_left(13) ^ splitmix(w.wrapping_add(salt) ^ 0xdead_beef);
        }
        ((h1 as u128) << 64) | h2 as u128
    }

    #[test]
    fn set_key_matches_the_dense_fold() {
        // the noise salt must not move with the set representation: windowed sets with interior zero
        // words, far-apart unions and trimmed differences key exactly as
        // the fold over every universe word did
        let n = 1000usize;
        let mut state = 7u64;
        let mut next = move |bound: usize| {
            state = splitmix(state);
            state as usize % bound
        };
        let mut sets = vec![TaskSet::new(n)];
        for _ in 0..200 {
            let mut ids: Vec<TaskId> = (0..1 + next(12)).map(|_| TaskId(next(n) as u32)).collect();
            ids.sort_unstable_by(|a, b| b.cmp(a));
            let built = TaskSet::from_ids(n, ids);
            let other = &sets[next(sets.len())];
            let mut diff = built.union(other);
            diff.difference_with(&sets[next(sets.len())]);
            sets.extend([built.union(other), diff, built]);
        }
        for set in &sets {
            assert_eq!(key(set), dense_set_key(set), "{set:?}");
        }
    }

    #[test]
    fn tp_memo_keys_do_not_alias() {
        // Points whose once-packed time keys collided: micro-batches that
        // differ only above bit 21, and a degree of 1024 or more spilling
        // into the batch bits. Each must equal a fresh profiler's answer,
        // noise salt included, and fill its own slot of the one shared
        // set.
        let g = bert_graph(&BertConfig::tiny());
        let opts = ProfilerOptions::fp32().with_noise(0.1, 3);
        let shared = Profiler::new(&g, DeviceSpec::v100_32gb(), opts);
        let s = whole_set(&g);
        let profiled = shared.profiled(&s);
        let queries = [(1usize, 2usize), (1 + (1 << 22), 2), (2, 2), (1, 1026)];
        let query_slots = slots(queries.len());
        let part = [s.clone()];
        let price = |i: usize| {
            let (batch, tp) = queries[i];
            let time = read(&shared, &query_slots[i..i + 1], &part, batch, tp);
            shared.profile(&profiled, time, batch, 1, false, tp)
        };
        let first: Vec<ProfileResult> = (0..queries.len()).map(price).collect();
        for (i, (&(batch, tp), got)) in queries.iter().zip(&first).enumerate() {
            let fresh = Profiler::new(&g, DeviceSpec::v100_32gb(), opts);
            let time = fresh.time_sums(s.iter(), batch, tp);
            let want = fresh.profile(&fresh.profiled(&s), time, batch, 1, false, tp);
            assert_eq!(*got, want, "batch {batch}, tp {tp}");
            assert_eq!(price(i), want);
        }
        assert_eq!(shared.cache_stats().misses, queries.len() as u64);
    }

    #[test]
    fn identity_op_scaling_is_bit_identical() {
        let g = bert_graph(&BertConfig::tiny());
        let plain = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let scaled =
            Profiler::new_scaled(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32(), |_| {
                1.0
            });
        let s = whole_set(&g);
        for batch in [1usize, 4, 16] {
            let a = plain.profile_set(&s, batch, 2, true);
            let b = scaled.profile_set(&s, batch, 2, true);
            assert_eq!(a.fwd_time.to_bits(), b.fwd_time.to_bits());
            assert_eq!(a.bwd_time.to_bits(), b.bwd_time.to_bits());
            assert_eq!(a.mem_bytes, b.mem_bytes);
        }
    }

    #[test]
    fn op_scaling_slows_matching_ops_only() {
        let g = bert_graph(&BertConfig::tiny());
        let plain = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let scaled =
            Profiler::new_scaled(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32(), |op| {
                if op.name() == "matmul" {
                    3.0
                } else {
                    1.0
                }
            });
        let s = whole_set(&g);
        let a = plain.profile_set(&s, 8, 1, false);
        let b = scaled.profile_set(&s, 8, 1, false);
        assert!(b.fwd_time > a.fwd_time);
        assert!(b.bwd_time > a.bwd_time);
        // memory and structure are untouched by time calibration
        assert_eq!(a.mem_bytes, b.mem_bytes);
        assert_eq!(a.param_elems, b.param_elems);
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let g = bert_graph(&BertConfig::tiny());
        let opts = ProfilerOptions::fp32().with_noise(0.1, 42);
        let p1 = Profiler::new(&g, DeviceSpec::v100_32gb(), opts);
        let p2 = Profiler::new(&g, DeviceSpec::v100_32gb(), opts);
        let clean = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let s = whole_set(&g);
        let a = p1.profile_set(&s, 4, 1, false);
        let b = p2.profile_set(&s, 4, 1, false);
        let c = clean.profile_set(&s, 4, 1, false);
        assert_eq!(a.fwd_time, b.fwd_time);
        let ratio = a.fwd_time / c.fwd_time;
        assert!((0.9..=1.1).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn comm_bytes_scale_with_batch_and_precision() {
        let g = mlp_graph(&MlpConfig::deep(32, 64, 2, 10));
        let n = g.num_tasks();
        let a = TaskSet::from_ids(n, (0..3u32).map(TaskId));
        let b = TaskSet::from_ids(n, (3..n as u32).map(TaskId));
        let p32 = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let p16 = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::mixed());
        let c1 = p32.comm_bytes(&a, &b, 1);
        let c8 = p32.comm_bytes(&a, &b, 8);
        assert_eq!(c8, 8 * c1);
        assert_eq!(p16.comm_bytes(&a, &b, 8), c8 / 2);
    }

    #[test]
    fn bert_large_fwd_time_plausible() {
        // BERT-Large forward is ~ 0.18 TFLOPs/sample (incl. MLM head);
        // on a 11.8 TFLOP/s sustained V100 a batch of 8 should take
        // roughly 0.1–0.5 s. Guards against unit errors (ms vs s).
        let g = bert_graph(&BertConfig::large());
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let r = p.profile_set(&whole_set(&g), 8, 1, false);
        assert!(
            r.fwd_time > 0.03 && r.fwd_time < 1.0,
            "fwd = {} s",
            r.fwd_time
        );
    }
}
