//! The `profile(U, batch)` oracle with memoisation.

use crate::flops::task_flops;
use crate::memory::MemoryParams;
use rannc_graph::{traverse, TaskGraph, TaskId, TaskSet, ValueKind};
use rannc_hw::{DeviceSpec, LinkSpec, Precision};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Number of independently locked cache shards. A key's shard is chosen
/// by its hash, so concurrent `profile_set` callers touching different
/// subcomponents almost never share a lock.
const CACHE_SHARDS: usize = 16;

/// Tunables of the analytical profiler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilerOptions {
    /// Training precision (affects peaks and byte sizes).
    pub precision: Precision,
    /// Fixed per-kernel launch overhead in seconds.
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
/// `t^f, t^b, m` triple plus bookkeeping used by reports.
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
    /// Forward FLOPs for the profiled micro-batch.
    pub flops: f64,
}

/// Per-task precomputed cost data.
struct TaskCost {
    flops: f64,
    /// Byte traffic that scales with the micro-batch (activations).
    act_bytes: f64,
    /// Fixed byte traffic (parameter/constant reads).
    static_bytes: f64,
    out_act_bytes: usize,
    compute_bound: bool,
    /// Non-constant tasks scale with the micro-batch size; constant tasks
    /// (weight transposes etc.) run once regardless of batch.
    scales: bool,
    /// This task's rows in [`Profiler::static_inputs`].
    params: std::ops::Range<u32>,
    /// This task's rows in [`Profiler::act_inputs`].
    acts: std::ops::Range<u32>,
    /// Per-op calibration factor applied to the roofline term (1.0 = the
    /// pure analytical model; `x * 1.0` is bit-identical to `x`).
    cal: f64,
}

/// One static (parameter or constant) input of a task, flattened at
/// construction so the set-statistics miss path never reads the graph.
#[derive(Debug, Clone, Copy)]
struct StaticInput {
    value: u32,
    /// Parameter elements of the value; 0 for a constant.
    param_elems: usize,
}

/// One non-static (activation) input of a task, flattened likewise.
#[derive(Debug, Clone, Copy)]
struct ActInput {
    value: u32,
    /// Producing task, or [`NO_PRODUCER`] for a graph input. Out of every
    /// universe, so `TaskSet::contains` is false for it.
    producer: u32,
    /// FP32 bytes of one sample of the value.
    bytes: usize,
}

/// [`ActInput::producer`] of a value no task produces.
const NO_PRODUCER: u32 = u32::MAX;

/// Batch-independent statistics of a task set: the memory-model inputs
/// that depend only on *which* tasks are in the set, never on the
/// micro-batch size, in-flight count, or checkpointing flag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SetStats {
    param_elems: usize,
    ingress_bytes: usize,
    inter_act_bytes: usize,
    /// FP32 output bytes (batch 1) of the tensor-splittable tasks — the
    /// per-pass all-reduce volume of a tensor-parallel stage.
    split_out_bytes: usize,
}

/// Raw time sums of one `(set, batch)` pair, before the invocation
/// overhead, checkpointing recompute, and noise factor are applied —
/// those depend on `(inflight, ckpt)` and are cheap to reapply, so
/// memoising below them lets every `(inflight, ckpt)` variant of a query
/// hit the same entry.
#[derive(Debug, Clone, Copy, Default)]
struct TimeProfile {
    fwd_raw: f64,
    bwd_raw: f64,
    flops: f64,
}

/// One slot of a [`FlatMemo`] probe sequence; empty while `aux` is
/// [`EMPTY_AUX`].
#[derive(Debug, Clone, Copy, Default)]
struct MemoSlot<V: Copy> {
    fp: u128,
    aux: u64,
    val: V,
}

/// The aux word of an empty [`MemoSlot`]. No key uses it: time entries
/// carry a tensor-parallel degree of at least 1 in their high half
/// ([`time_aux`]) and statistics entries use [`STATS_AUX`].
const EMPTY_AUX: u64 = 0;

/// The aux word of every set-statistics entry.
const STATS_AUX: u64 = 1;

/// Open-addressed `(set key, aux)`→value table with linear probing.
///
/// Replaces the per-shard `HashMap`: profile keys are already
/// high-quality 128-bit hashes ([`set_key`]), so SipHash re-hashing every lookup
/// was pure overhead, and the flat slot array keeps a probe sequence on
/// adjacent cache lines. Capacity is a power of two, grown at ~70% load;
/// [`FlatMemo::reserve`] lets the planner pre-size the table from the
/// block count before a sweep starts.
struct FlatMemo<V: Copy + Default> {
    slots: Vec<MemoSlot<V>>,
    len: usize,
}

impl<V: Copy + Default> FlatMemo<V> {
    const MIN_SLOTS: usize = 16;

    fn new() -> Self {
        FlatMemo {
            slots: vec![MemoSlot::default(); Self::MIN_SLOTS],
            len: 0,
        }
    }

    fn get(&self, fp: u128, aux: u64) -> Option<V> {
        let mask = self.slots.len() - 1;
        let mut i = key_hash(fp, aux) as usize & mask;
        loop {
            let s = &self.slots[i];
            if s.aux == EMPTY_AUX {
                return None;
            }
            if s.fp == fp && s.aux == aux {
                return Some(s.val);
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, fp: u128, aux: u64, val: V) {
        assert_ne!(aux, EMPTY_AUX, "aux word {EMPTY_AUX} marks an empty slot");
        // keep load under 70% so probe sequences stay short
        if (self.len + 1) * 10 >= self.slots.len() * 7 {
            self.grow(self.slots.len() * 2);
        }
        self.insert_nogrow(fp, aux, val);
    }

    fn insert_nogrow(&mut self, fp: u128, aux: u64, val: V) {
        let mask = self.slots.len() - 1;
        let mut i = key_hash(fp, aux) as usize & mask;
        loop {
            let s = &mut self.slots[i];
            if s.aux == EMPTY_AUX {
                *s = MemoSlot { fp, aux, val };
                self.len += 1;
                return;
            }
            if s.fp == fp && s.aux == aux {
                s.val = val;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Pre-size for `additional` further entries without rehashing later.
    fn reserve(&mut self, additional: usize) {
        let needed = ((self.len + additional) * 10 / 7 + 1)
            .next_power_of_two()
            .max(Self::MIN_SLOTS);
        if needed > self.slots.len() {
            self.grow(needed);
        }
    }

    fn grow(&mut self, new_slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![MemoSlot::default(); new_slots]);
        self.len = 0;
        for s in old {
            if s.aux != EMPTY_AUX {
                self.insert_nogrow(s.fp, s.aux, s.val);
            }
        }
    }
}

/// Counters of a sharded memo cache, for `--planner-stats` and the bench
/// JSON. `contention` counts lock acquisitions that found the shard busy
/// (a `try_lock` failure before the blocking lock) — the observable the
/// sharding exists to minimize.
///
/// The profiler memoises in two layers (see [`Profiler::profile_set`]):
/// `stats_*` counts lookups of batch-independent set statistics, `time_*`
/// lookups of per-`(set, batch)` raw times. `hits`/`misses` are the
/// layer totals; single-layer memos (the planner's DP arena memo) leave
/// the layered fields zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and then insert).
    pub misses: u64,
    /// Shard-lock acquisitions that initially found the lock held.
    pub contention: u64,
    /// Entry count per shard, in shard order.
    pub shard_sizes: Vec<usize>,
    /// Hits on the batch-independent set-statistics layer.
    pub stats_hits: u64,
    /// Misses on the batch-independent set-statistics layer.
    pub stats_misses: u64,
    /// Hits on the per-`(set, batch)` raw-time layer.
    pub time_hits: u64,
    /// Misses on the per-`(set, batch)` raw-time layer.
    pub time_misses: u64,
}

impl CacheStats {
    /// Total memoised entries across all shards.
    pub fn entries(&self) -> usize {
        self.shard_sizes.iter().sum()
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

thread_local! {
    /// Per-thread stamp vector for value deduplication on the miss path.
    ///
    /// Replaces the old mutex-guarded take/put `ScratchPool`: a thread
    /// resolves its buffer once per miss with no lock at all, and the
    /// buffer grows monotonically to the largest `num_values` seen.
    /// Stale stamps from other graphs sharing the buffer are harmless —
    /// the epoch bump invalidates every previous stamp.
    static SCRATCH: RefCell<(Vec<u32>, u32)> = const { RefCell::new((Vec::new(), 0)) };
}

/// Analytical stand-in for RaNNC's on-device profiler.
///
/// Construction walks the graph once, flattening each task's cost data
/// and inputs into per-task rows. A [`Profiler::profile_set`] call is then
/// a memo lookup keyed on a 128-bit hash of the set's bitset words
/// ([`set_key`]): O(words), not O(members), so a hit costs what a bitset
/// pass costs. A miss is one pass over the members that reads only those
/// rows, never the graph.
pub struct Profiler<'g> {
    g: &'g TaskGraph,
    device: DeviceSpec,
    opts: ProfilerOptions,
    costs: Vec<TaskCost>,
    static_inputs: Vec<StaticInput>,
    act_inputs: Vec<ActInput>,
    set_stats: Vec<Mutex<FlatMemo<SetStats>>>,
    time_profiles: Vec<Mutex<FlatMemo<TimeProfile>>>,
    stats_hits: AtomicU64,
    stats_misses: AtomicU64,
    time_hits: AtomicU64,
    time_misses: AtomicU64,
    contention: AtomicU64,
}

impl<'g> Profiler<'g> {
    /// Build a profiler for one graph on one device model.
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
        let non_constant = traverse::non_constant_tasks(g);
        let mut costs = Vec::with_capacity(g.num_tasks());
        let mut static_inputs = Vec::new();
        let mut act_inputs = Vec::new();
        for (tid, task) in g.tasks() {
            let (params_start, acts_start) = (static_inputs.len() as u32, act_inputs.len() as u32);
            for &v in &task.inputs {
                let val = g.value(v);
                if val.kind.is_static() {
                    static_inputs.push(StaticInput {
                        value: v.0,
                        param_elems: if val.kind == ValueKind::Param {
                            val.numel()
                        } else {
                            0
                        },
                    });
                } else {
                    act_inputs.push(ActInput {
                        value: v.0,
                        producer: val.producer.map_or(NO_PRODUCER, |p| p.0),
                        bytes: val.size_bytes(),
                    });
                }
            }
            let out_act_bytes = task.outputs.iter().map(|&v| g.value(v).size_bytes()).sum();
            let (act_bytes, static_bytes) = crate::flops::task_bytes_split(g, tid);
            costs.push(TaskCost {
                flops: task_flops(g, tid),
                act_bytes,
                static_bytes,
                out_act_bytes,
                compute_bound: task.op.is_compute_bound(),
                scales: non_constant[tid.index()],
                params: params_start..static_inputs.len() as u32,
                acts: acts_start..act_inputs.len() as u32,
                cal: scale_of(&task.op),
            });
        }
        Profiler {
            g,
            device,
            opts,
            costs,
            static_inputs,
            act_inputs,
            set_stats: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(FlatMemo::new()))
                .collect(),
            time_profiles: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(FlatMemo::new()))
                .collect(),
            stats_hits: AtomicU64::new(0),
            stats_misses: AtomicU64::new(0),
            time_hits: AtomicU64::new(0),
            time_misses: AtomicU64::new(0),
            contention: AtomicU64::new(0),
        }
    }

    /// Lock a memo shard, counting initial `try_lock` failures.
    fn lock_memo<'a, V: Copy + Default>(
        &self,
        shards: &'a [Mutex<FlatMemo<V>>],
        shard: usize,
    ) -> MutexGuard<'a, FlatMemo<V>> {
        match shards[shard].try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                shards[shard].lock().unwrap()
            }
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
        }
    }

    /// Shard index for a memo key; mixes every field so keys differing
    /// only in the aux word still spread across shards. Taken from the
    /// hash's high half: a shard's [`FlatMemo`] probes with the low bits.
    #[inline]
    fn shard_of(fp: u128, aux: u64) -> usize {
        (key_hash(fp, aux) >> 32) as usize % CACHE_SHARDS
    }

    /// The graph this profiler measures.
    pub fn graph(&self) -> &'g TaskGraph {
        self.g
    }

    /// The device model in use.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The profiling options in use.
    pub fn options(&self) -> &ProfilerOptions {
        &self.opts
    }

    /// Number of memoised entries across both layers (for diagnostics
    /// and benches).
    pub fn cache_len(&self) -> usize {
        self.set_stats
            .iter()
            .map(|s| s.lock().unwrap().len)
            .sum::<usize>()
            + self
                .time_profiles
                .iter()
                .map(|s| s.lock().unwrap().len)
                .sum::<usize>()
    }

    /// Pre-size the memo tables for a sweep expected to profile about
    /// `expected_sets` distinct task sets. Called by the planner with the
    /// block-count-derived range count so miss-path inserts never rehash
    /// mid-sweep. A no-op when the tables are already large enough.
    pub fn reserve_profiles(&self, expected_sets: usize) {
        let per_shard = expected_sets / CACHE_SHARDS + 1;
        for shard in &self.set_stats {
            shard.lock().unwrap().reserve(per_shard);
        }
        for shard in &self.time_profiles {
            // a sweep queries each range at a handful of micro-batch sizes
            shard.lock().unwrap().reserve(per_shard * 4);
        }
    }

    /// Snapshot of cache behaviour since construction: hits, misses,
    /// shard-lock contention, and per-shard entry counts, with the
    /// per-layer breakdown of the two-level memo.
    pub fn cache_stats(&self) -> CacheStats {
        let stats_hits = self.stats_hits.load(Ordering::Relaxed);
        let stats_misses = self.stats_misses.load(Ordering::Relaxed);
        let time_hits = self.time_hits.load(Ordering::Relaxed);
        let time_misses = self.time_misses.load(Ordering::Relaxed);
        CacheStats {
            hits: stats_hits + time_hits,
            misses: stats_misses + time_misses,
            contention: self.contention.load(Ordering::Relaxed),
            shard_sizes: self
                .set_stats
                .iter()
                .zip(&self.time_profiles)
                .map(|(a, b)| a.lock().unwrap().len + b.lock().unwrap().len)
                .collect(),
            stats_hits,
            stats_misses,
            time_hits,
            time_misses,
        }
    }

    /// Forward time of one task at a given micro-batch size, with its
    /// compute split `tp` ways (1 = no tensor parallelism). Splittable
    /// (compute-bound) tasks divide FLOPs, activation traffic, and
    /// parameter reads across the group; the launch overhead is paid in
    /// full by every member. Other tasks divide by 1.0, which is exact, so
    /// `tp == 1` is the plain roofline bit for bit.
    fn task_fwd_time(&self, c: &TaskCost, batch: usize, tp: usize) -> f64 {
        let scale = if c.scales { batch as f64 } else { 1.0 };
        let byte_scale = self.opts.precision.activation_bytes() as f64 / 4.0;
        let (split, peak) = if c.compute_bound {
            (tp as f64, self.device.sustained_flops(self.opts.precision))
        } else {
            (1.0, self.device.sustained_flops(Precision::FP32))
        };
        let flops = c.flops * scale / split;
        // activations scale with batch; parameter reads are amortized
        let bytes = (c.act_bytes * scale + c.static_bytes) / split * byte_scale;
        let t_compute = flops / peak;
        let t_memory = bytes / self.device.mem_bandwidth;
        // Calibration scales the modelled kernel time, not the fixed launch
        // overhead; `cal == 1.0` leaves the sum bit-identical.
        t_compute.max(t_memory) * c.cal + self.opts.launch_overhead
    }

    /// Batch-independent miss path: parameter elements and deduplicated
    /// ingress/intermediate activation bytes of the set. Reads only the
    /// flat per-task rows built at construction; every sum is an exact
    /// integer.
    fn compute_set_stats(&self, set: &TaskSet) -> SetStats {
        let mut stats = SetStats::default();
        SCRATCH.with(|cell| {
            let mut buf = cell.borrow_mut();
            let (stamps, stamp) = &mut *buf;
            if stamps.len() < self.g.num_values() {
                stamps.resize(self.g.num_values(), 0);
            }
            *stamp = stamp.wrapping_add(1);
            if *stamp == 0 {
                stamps.iter_mut().for_each(|s| *s = 0);
                *stamp = 1;
            }
            let stamp = *stamp;
            for t in set.iter() {
                let c = &self.costs[t.index()];
                if c.scales {
                    stats.inter_act_bytes += c.out_act_bytes;
                    if c.compute_bound {
                        stats.split_out_bytes += c.out_act_bytes;
                    }
                }
                // Static and activation inputs are distinct values, so the
                // two passes share one stamp epoch without ever stamping
                // the same id; each value counts once per set.
                for row in &self.static_inputs[c.params.start as usize..c.params.end as usize] {
                    let v = row.value as usize;
                    if stamps[v] != stamp {
                        stamps[v] = stamp;
                        stats.param_elems += row.param_elems;
                    }
                }
                for row in &self.act_inputs[c.acts.start as usize..c.acts.end as usize] {
                    let v = row.value as usize;
                    if stamps[v] != stamp {
                        stamps[v] = stamp;
                        if !set.contains(TaskId(row.producer)) {
                            stats.ingress_bytes += row.bytes;
                        }
                    }
                }
            }
        });
        stats
    }

    /// Per-`(set, batch, tp)` miss path: the roofline time and FLOP sums,
    /// before overheads, with FLOPs reported per tensor-parallel group
    /// member. The accumulation order over `set.iter()` is fixed, so the
    /// sums are bit-identical across calls.
    fn compute_time_profile(&self, set: &TaskSet, batch: usize, tp: usize) -> TimeProfile {
        let mut fwd = 0.0;
        let mut bwd = 0.0;
        let mut flops = 0.0;
        for t in set.iter() {
            let c = &self.costs[t.index()];
            let tf = self.task_fwd_time(c, batch, tp);
            fwd += tf;
            // backward: dgrad+wgrad for dense ops ≈ 2× forward; ~1× for
            // element-wise / normalization / layout ops.
            bwd += if c.compute_bound { 2.0 * tf } else { tf };
            let f = c.flops * if c.scales { batch as f64 } else { 1.0 };
            flops += if c.compute_bound { f / tp as f64 } else { f };
        }
        TimeProfile {
            fwd_raw: fwd,
            bwd_raw: bwd,
            flops,
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
    /// Memoisation is two-layered, both layers keyed on [`set_key`]. The
    /// old single cache keyed the full `(set, batch, inflight, ckpt)`
    /// tuple — but the planner's stage memo upstream dedupes exactly
    /// those tuples, so nearly every lookup that reached the profiler
    /// missed (~19% hit rate at bench scale). Splitting the memo below
    /// the `(inflight, ckpt)`-dependent assembly lets all variants of a
    /// set share the batch-independent statistics, and all
    /// `(inflight, ckpt)` combinations share the raw time sums. The
    /// assembly replays the exact float operations of the fused path, so
    /// results are bit-identical.
    pub fn profile_set(
        &self,
        set: &TaskSet,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
    ) -> ProfileResult {
        self.profile_set_tp(set, batch, inflight, checkpointing, 1)
    }

    /// Layer-1 memo lookup: batch-independent set statistics.
    fn set_stats_cached(&self, key: u128, set: &TaskSet) -> SetStats {
        let stats_shard = Self::shard_of(key, STATS_AUX);
        // bind the lookup before matching: a guard held through the match
        // arms would self-deadlock on the re-lock in the miss arm
        let stats_lookup = self
            .lock_memo(&self.set_stats, stats_shard)
            .get(key, STATS_AUX);
        match stats_lookup {
            Some(hit) => {
                self.stats_hits.fetch_add(1, Ordering::Relaxed);
                hit
            }
            None => {
                self.stats_misses.fetch_add(1, Ordering::Relaxed);
                let computed = self.compute_set_stats(set);
                self.lock_memo(&self.set_stats, stats_shard)
                    .insert(key, STATS_AUX, computed);
                computed
            }
        }
    }

    /// Layer-2 memo lookup: raw time sums of `(set, batch, tp)`, whose
    /// aux word is `aux`.
    fn time_profile_cached(
        &self,
        key: u128,
        aux: u64,
        set: &TaskSet,
        batch: usize,
        tp: usize,
    ) -> TimeProfile {
        let time_shard = Self::shard_of(key, aux);
        let time_lookup = self
            .lock_memo(&self.time_profiles, time_shard)
            .get(key, aux);
        match time_lookup {
            Some(hit) => {
                self.time_hits.fetch_add(1, Ordering::Relaxed);
                hit
            }
            None => {
                self.time_misses.fetch_add(1, Ordering::Relaxed);
                let computed = self.compute_time_profile(set, batch, tp);
                self.lock_memo(&self.time_profiles, time_shard)
                    .insert(key, aux, computed);
                computed
            }
        }
    }

    /// [`Profiler::profile_set`] with the stage's splittable compute
    /// divided across a tensor-parallel group of `tp` devices.
    ///
    /// Compute-bound tasks (the matmul-bearing ops Megatron column/row
    /// partitions) divide FLOPs, activation traffic, and parameter reads
    /// `tp` ways; every other task runs replicated on all group members.
    /// Weight/optimizer state is sharded (`param_elems / tp` in the
    /// memory model) while activation buffers stay full-size — the
    /// paper's "the size of the buffer to store the results is not
    /// reduced" observation. The per-pass activation all-reduce is *not*
    /// included here; the cost model adds it (it needs cluster topology).
    ///
    /// `tp <= 1` is [`Profiler::profile_set`] — the same memo entries and
    /// bit-identical results.
    pub fn profile_set_tp(
        &self,
        set: &TaskSet,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
        tp: usize,
    ) -> ProfileResult {
        let tp = tp.max(1);
        let key = set_key(set);
        let aux = time_aux(batch, tp);

        // layer 1: batch-independent set statistics
        let stats = self.set_stats_cached(key, set);

        // layer 2: raw per-(set, batch, tp) time sums
        let time = self.time_profile_cached(key, aux, set, batch, tp);

        // assembly: identical float-op order to the historical fused path
        // per-execution host overhead (sync, input staging)
        let fwd = time.fwd_raw + self.opts.invocation_overhead;
        let mut bwd = time.bwd_raw + self.opts.invocation_overhead;
        if checkpointing {
            // recomputation replays the forward pass before backward
            bwd += fwd;
        }

        let mem = MemoryParams {
            precision: self.opts.precision,
            checkpointing,
            inflight: inflight.max(1),
        };
        let mem_bytes = mem.stage_bytes(
            stats.param_elems / tp,
            stats.ingress_bytes,
            stats.inter_act_bytes,
            batch,
        );

        let noise = self.noise_factor(key ^ aux as u128);
        ProfileResult {
            fwd_time: fwd * noise,
            bwd_time: bwd * noise,
            mem_bytes,
            param_elems: stats.param_elems,
            flops: time.flops,
        }
    }

    /// Per-micro-batch tensor-parallel all-reduce volume of a stage: the
    /// splittable tasks' output activations for `batch` samples at
    /// activation precision. Zero for stages with no splittable ops.
    pub fn tp_allreduce_bytes(&self, set: &TaskSet, batch: usize) -> usize {
        let stats = self.set_stats_cached(set_key(set), set);
        (stats.split_out_bytes as f64
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

    /// Time to move one micro-batch's cut from `from` to `to` over `link`.
    pub fn comm_time(&self, from: &TaskSet, to: &TaskSet, batch: usize, link: LinkSpec) -> f64 {
        let bytes = self.comm_bytes(from, to, batch);
        if bytes == 0 {
            0.0
        } else {
            link.transfer_time(bytes)
        }
    }

    fn noise_factor(&self, salt: u128) -> f64 {
        if self.opts.noise_sigma == 0.0 {
            return 1.0;
        }
        let h = splitmix(self.opts.noise_seed ^ (salt as u64) ^ ((salt >> 64) as u64));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        1.0 + self.opts.noise_sigma * (2.0 * unit - 1.0)
    }
}

/// Communication cost helper bound to a link and precision — used by the
/// schedule simulator for stage-to-stage transfers.
#[derive(Debug, Clone, Copy)]
pub struct CommCost {
    /// Link model used for the transfer.
    pub link: LinkSpec,
    /// Activation precision in flight.
    pub precision: Precision,
}

impl CommCost {
    /// Transfer time of `fp32_bytes`-sized values for `batch` samples.
    pub fn time(&self, fp32_bytes: usize, batch: usize) -> f64 {
        if fp32_bytes == 0 {
            return 0.0;
        }
        let bytes = (fp32_bytes as f64 * batch as f64 * self.precision.activation_bytes() as f64
            / 4.0) as usize;
        self.link.transfer_time(bytes)
    }
}

/// 128-bit memo key of a task set: its non-zero bitset words, each mixed
/// with its word index, folded into two independent 64-bit lanes. Costs
/// O(words), not O(members). Equal members give equal words
/// ([`TaskSet::words`]), so the key is a function of membership alone,
/// however the set was built. Collisions across the few hundred thousand
/// distinct sets a run profiles are negligible.
fn set_key(set: &TaskSet) -> u128 {
    let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h2: u64 = 0x9e37_79b9_7f4a_7c15;
    for (i, &w) in set.words().iter().enumerate() {
        if w == 0 {
            continue;
        }
        let salt = splitmix(i as u64);
        h1 = (h1 ^ splitmix(w ^ salt)).wrapping_mul(0x1000_0000_01b3);
        h2 = h2.rotate_left(13) ^ splitmix(w.wrapping_add(salt) ^ 0xdead_beef);
    }
    ((h1 as u128) << 64) | h2 as u128
}

/// Aux word of a time-memo entry: the micro-batch in the low 32 bits and
/// the tensor-parallel degree (1 when unsplit) in the high 32. Lossless:
/// a value that does not fit panics instead of aliasing another entry.
fn time_aux(batch: usize, tp: usize) -> u64 {
    let batch = u32::try_from(batch).expect("micro-batch exceeds u32::MAX samples");
    let tp = u32::try_from(tp).expect("tensor-parallel degree exceeds u32::MAX");
    (tp as u64) << 32 | batch as u64
}

/// Hash of a full memo key, for shard choice and probe start.
#[inline]
fn key_hash(fp: u128, aux: u64) -> u64 {
    splitmix((fp as u64) ^ (fp >> 64) as u64 ^ aux.rotate_left(32))
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
    use rannc_models::{
        bert_graph, gpt_graph, mlp_graph, resnet_graph, t5_graph, BertConfig, GptConfig, MlpConfig,
        ResNetConfig, T5Config,
    };

    fn whole_set(g: &TaskGraph) -> TaskSet {
        TaskSet::from_ids(g.num_tasks(), g.task_ids())
    }

    /// The set statistics computed straight from the graph: every member's
    /// inputs and outputs looked up through `g.value()`, each value counted
    /// once. The reference the flat-row miss path must equal.
    fn reference_set_stats(g: &TaskGraph, set: &TaskSet) -> SetStats {
        let non_constant = traverse::non_constant_tasks(g);
        let mut stats = SetStats::default();
        let mut seen = vec![false; g.num_values()];
        for t in set.iter() {
            let task = g.task(t);
            if non_constant[t.index()] {
                let out: usize = task.outputs.iter().map(|&v| g.value(v).size_bytes()).sum();
                stats.inter_act_bytes += out;
                if task.op.is_compute_bound() {
                    stats.split_out_bytes += out;
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
    /// `profile_set_tp`/`tp_allreduce_bytes` derive from them, equal the
    /// reference at `tp ∈ {1, 2, 4}`, with and without checkpointing.
    fn assert_stats_match_reference(g: &TaskGraph, p: &Profiler<'_>, set: &TaskSet) {
        let want = reference_set_stats(g, set);
        assert_eq!(p.compute_set_stats(set), want);
        let batch = 4;
        for tp in [1usize, 2, 4] {
            for checkpointing in [false, true] {
                let got = p.profile_set_tp(set, batch, 2, checkpointing, tp);
                let mem = MemoryParams {
                    precision: p.options().precision,
                    checkpointing,
                    inflight: 2,
                };
                assert_eq!(got.param_elems, want.param_elems);
                assert_eq!(
                    got.mem_bytes,
                    mem.stage_bytes(
                        want.param_elems / tp,
                        want.ingress_bytes,
                        want.inter_act_bytes,
                        batch
                    ),
                    "tp {tp}, checkpointing {checkpointing}"
                );
            }
        }
        let act_scale = p.options().precision.activation_bytes() as f64 / 4.0;
        assert_eq!(
            p.tp_allreduce_bytes(set, batch),
            (want.split_out_bytes as f64 * batch as f64 * act_scale) as usize
        );
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
        assert!(r8.flops > 7.0 * r1.flops);
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

    #[test]
    fn cache_hits() {
        let g = bert_graph(&BertConfig::tiny());
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let s = whole_set(&g);
        let r1 = p.profile_set(&s, 4, 2, true);
        // one stats entry + one time entry
        assert_eq!(p.cache_len(), 2);
        let r2 = p.profile_set(&s, 4, 2, true);
        assert_eq!(p.cache_len(), 2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn cache_stats_track_hits_and_misses() {
        let g = bert_graph(&BertConfig::tiny());
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let s = whole_set(&g);
        // miss both layers
        let _ = p.profile_set(&s, 4, 2, true);
        // hit both layers
        let _ = p.profile_set(&s, 4, 2, true);
        // batch changed: stats layer hits, time layer misses
        let _ = p.profile_set(&s, 8, 2, true);
        let stats = p.cache_stats();
        assert_eq!(stats.stats_hits, 2);
        assert_eq!(stats.stats_misses, 1);
        assert_eq!(stats.time_hits, 1);
        assert_eq!(stats.time_misses, 2);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 3);
        // one stats entry + two time entries
        assert_eq!(stats.entries(), 3);
        assert_eq!(stats.shard_sizes.len(), CACHE_SHARDS);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inflight_and_ckpt_variants_hit_both_layers() {
        // The whole point of the split memo: (inflight, ckpt) only affect
        // the cheap assembly, so variants of an already-profiled
        // (set, batch) never recompute anything.
        let g = bert_graph(&BertConfig::tiny());
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let s = whole_set(&g);
        let _ = p.profile_set(&s, 4, 2, true);
        let before = p.cache_stats();
        let _ = p.profile_set(&s, 4, 8, true);
        let _ = p.profile_set(&s, 4, 2, false);
        let _ = p.profile_set(&s, 4, 1, false);
        let after = p.cache_stats();
        assert_eq!(after.misses, before.misses, "variants must not recompute");
        assert_eq!(after.hits, before.hits + 6);
        assert_eq!(after.entries(), before.entries());
    }

    #[test]
    fn flat_memo_survives_growth() {
        let mut memo: FlatMemo<usize> = FlatMemo::new();
        for i in 1..=1000u64 {
            memo.insert((i as u128) << 3, i, i as usize);
        }
        assert_eq!(memo.len, 1000);
        for i in 1..=1000u64 {
            assert_eq!(memo.get((i as u128) << 3, i), Some(i as usize));
        }
        assert_eq!(memo.get(0xdead_beef, 7), None);
        // overwrite keeps len stable
        memo.insert(8, 1, 99);
        assert_eq!(memo.len, 1000);
        assert_eq!(memo.get(8, 1), Some(99));
    }

    #[test]
    fn concurrent_profiling_is_consistent() {
        // Many threads profiling overlapping subcomponents must agree with
        // a sequential profiler exactly (thread-local scratch must not leak
        // state between concurrent calls).
        let g = bert_graph(&BertConfig::tiny());
        let shared = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let fresh = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let n = g.num_tasks() as u32;
        let sets: Vec<TaskSet> = (0..32u32)
            .map(|i| {
                let lo = (i * 7) % n;
                let hi = (lo + 1 + (i * 13) % (n - lo)).min(n);
                TaskSet::from_ids(n as usize, (lo..hi).map(TaskId))
            })
            .collect();
        std::thread::scope(|scope| {
            for chunk in sets.chunks(8) {
                let shared = &shared;
                scope.spawn(move || {
                    for s in chunk {
                        let _ = shared.profile_set(s, 4, 2, true);
                    }
                });
            }
        });
        for s in &sets {
            let a = shared.profile_set(s, 4, 2, true);
            let b = fresh.profile_set(s, 4, 2, true);
            assert_eq!(a, b);
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
    fn set_key_depends_on_word_position() {
        // equal word values at different word indices are different sets
        let set = |ids: &[u32]| TaskSet::from_ids(200, ids.iter().map(|&t| TaskId(t)));
        let keys = [
            set_key(&set(&[])),
            set_key(&set(&[0])),
            set_key(&set(&[64])),
            set_key(&set(&[0, 64])),
            set_key(&set(&[64, 128])),
            set_key(&set(&[0, 128])),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // and the key ignores how the set was built
        assert_eq!(
            set_key(&set(&[0, 64])),
            set_key(&set(&[0]).union(&set(&[64])))
        );
    }

    #[test]
    fn tp_memo_keys_do_not_alias() {
        // Queries whose old packed aux words collided: micro-batches that
        // differ only above bit 21, and a degree of 1024 or more spilling
        // into the batch bits. Each must equal a fresh profiler's answer.
        let g = bert_graph(&BertConfig::tiny());
        let shared = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let s = whole_set(&g);
        let queries = [(1usize, 2usize), (1 + (1 << 22), 2), (2, 2), (1, 1026)];
        let first: Vec<ProfileResult> = queries
            .iter()
            .map(|&(batch, tp)| shared.profile_set_tp(&s, batch, 1, false, tp))
            .collect();
        for (&(batch, tp), got) in queries.iter().zip(&first) {
            let fresh = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
            let want = fresh.profile_set_tp(&s, batch, 1, false, tp);
            assert_eq!(*got, want, "batch {batch}, tp {tp}");
            assert_eq!(shared.profile_set_tp(&s, batch, 1, false, tp), want);
        }
        assert_eq!(shared.cache_stats().time_misses, queries.len() as u64);
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
