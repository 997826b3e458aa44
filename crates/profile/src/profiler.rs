//! The `profile(U, batch)` oracle with memoisation.

use crate::flops::task_flops;
use crate::memory::MemoryParams;
use rannc_graph::{traverse, TaskGraph, TaskSet, ValueKind};
use rannc_hw::{DeviceSpec, LinkSpec, Precision};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Number of independently locked cache shards. A key's shard is chosen
/// by its fingerprint hash, so concurrent `profile_set` callers touching
/// different subcomponents almost never share a lock.
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    params: std::ops::Range<u32>,
    /// Per-op calibration factor applied to the roofline term (1.0 = the
    /// pure analytical model; `x * 1.0` is bit-identical to `x`).
    cal: f64,
}

/// Batch-independent statistics of a task set: the memory-model inputs
/// that depend only on *which* tasks are in the set, never on the
/// micro-batch size, in-flight count, or checkpointing flag.
#[derive(Debug, Clone, Copy, Default)]
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

/// One slot of a [`FlatMemo`] probe sequence.
#[derive(Debug, Clone, Copy, Default)]
struct MemoSlot<V: Copy> {
    fp: u128,
    aux: u32,
    used: bool,
    val: V,
}

/// Open-addressed fingerprint→value table with linear probing.
///
/// Replaces the per-shard `HashMap`: profile keys are already
/// high-quality 128-bit fingerprints, so SipHash re-hashing every lookup
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

    #[inline]
    fn probe_start(fp: u128, aux: u32) -> u64 {
        splitmix((fp as u64) ^ (fp >> 64) as u64 ^ ((aux as u64) << 32))
    }

    fn get(&self, fp: u128, aux: u32) -> Option<V> {
        let mask = self.slots.len() - 1;
        let mut i = Self::probe_start(fp, aux) as usize & mask;
        loop {
            let s = &self.slots[i];
            if !s.used {
                return None;
            }
            if s.fp == fp && s.aux == aux {
                return Some(s.val);
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, fp: u128, aux: u32, val: V) {
        // keep load under 70% so probe sequences stay short
        if (self.len + 1) * 10 >= self.slots.len() * 7 {
            self.grow(self.slots.len() * 2);
        }
        self.insert_nogrow(fp, aux, val);
    }

    fn insert_nogrow(&mut self, fp: u128, aux: u32, val: V) {
        let mask = self.slots.len() - 1;
        let mut i = Self::probe_start(fp, aux) as usize & mask;
        loop {
            let s = &mut self.slots[i];
            if !s.used {
                *s = MemoSlot {
                    fp,
                    aux,
                    used: true,
                    val,
                };
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
            if s.used {
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
/// Construction walks the graph once; each [`Profiler::profile_set`] call
/// is then a linear pass over the subcomponent with memoisation keyed on a
/// 128-bit fingerprint of the task set.
pub struct Profiler<'g> {
    g: &'g TaskGraph,
    device: DeviceSpec,
    opts: ProfilerOptions,
    costs: Vec<TaskCost>,
    param_vals: Vec<u32>,
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
        let mut param_vals = Vec::new();
        for (tid, task) in g.tasks() {
            let start = param_vals.len() as u32;
            for &v in &task.inputs {
                if g.value(v).kind.is_static() {
                    param_vals.push(v.0);
                }
            }
            let end = param_vals.len() as u32;
            let out_act_bytes = task.outputs.iter().map(|&v| g.value(v).size_bytes()).sum();
            let (act_bytes, static_bytes) = crate::flops::task_bytes_split(g, tid);
            costs.push(TaskCost {
                flops: task_flops(g, tid),
                act_bytes,
                static_bytes,
                out_act_bytes,
                compute_bound: task.op.is_compute_bound(),
                scales: non_constant[tid.index()],
                params: start..end,
                cal: scale_of(&task.op),
            });
        }
        Profiler {
            g,
            device,
            opts,
            costs,
            param_vals,
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
    /// only in the aux word still spread across shards.
    #[inline]
    fn shard_of(fp: u128, aux: u32) -> usize {
        (splitmix((fp as u64) ^ (fp >> 64) as u64 ^ ((aux as u64) << 32)) as usize) % CACHE_SHARDS
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

    /// Forward time of one task at a given micro-batch size.
    fn task_fwd_time(&self, c: &TaskCost, batch: usize) -> f64 {
        let scale = if c.scales { batch as f64 } else { 1.0 };
        let byte_scale = self.opts.precision.activation_bytes() as f64 / 4.0;
        let flops = c.flops * scale;
        // activations scale with batch; parameter reads are amortized
        let bytes = (c.act_bytes * scale + c.static_bytes) * byte_scale;
        let peak = if c.compute_bound {
            self.device.sustained_flops(self.opts.precision)
        } else {
            self.device.sustained_flops(Precision::FP32)
        };
        let t_compute = flops / peak;
        let t_memory = bytes / self.device.mem_bandwidth;
        // Calibration scales the modelled kernel time, not the fixed launch
        // overhead; `cal == 1.0` leaves the sum bit-identical.
        t_compute.max(t_memory) * c.cal + self.opts.launch_overhead
    }

    /// Batch-independent miss path: parameter elements and deduplicated
    /// ingress/intermediate activation bytes of the set.
    fn compute_set_stats(&self, set: &TaskSet) -> SetStats {
        let mut param_elems = 0usize;
        let mut ingress = 0usize;
        let mut inter_act = 0usize;
        let mut split_out = 0usize;
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
            for t in set.iter() {
                let c = &self.costs[t.index()];
                if c.scales {
                    inter_act += c.out_act_bytes;
                    if c.compute_bound {
                        split_out += c.out_act_bytes;
                    }
                }
                for pi in c.params.clone() {
                    let v = self.param_vals[pi as usize] as usize;
                    if stamps[v] != *stamp {
                        stamps[v] = *stamp;
                        if self.g.value(rannc_graph::ValueId(v as u32)).kind == ValueKind::Param {
                            param_elems += self.g.value(rannc_graph::ValueId(v as u32)).numel();
                        }
                    }
                }
                // Non-static ingress bytes, deduplicated by the same stamp
                // epoch. Safe to share: this pass touches only non-static
                // values, the parameter pass above only static ones, so the
                // two never stamp the same id. Replaces a quadratic
                // collect-then-filter over `ingress_values` that dominated
                // the cost of a cache miss.
                for &v in &self.g.task(t).inputs {
                    let val = self.g.value(v);
                    if val.kind.is_static() {
                        continue;
                    }
                    let vi = v.0 as usize;
                    if stamps[vi] == *stamp {
                        continue;
                    }
                    stamps[vi] = *stamp;
                    let produced_inside = val.producer.map(|p| set.contains(p)).unwrap_or(false);
                    if !produced_inside {
                        ingress += val.size_bytes();
                    }
                }
            }
        });
        SetStats {
            param_elems,
            ingress_bytes: ingress,
            inter_act_bytes: inter_act,
            split_out_bytes: split_out,
        }
    }

    /// Per-`(set, batch)` miss path: the roofline time and FLOP sums,
    /// before overheads. The accumulation order over `set.iter()` matches
    /// the historical fused loop exactly, so the sums are bit-identical.
    fn compute_time_profile(&self, set: &TaskSet, batch: usize) -> TimeProfile {
        let mut fwd = 0.0;
        let mut bwd = 0.0;
        let mut flops = 0.0;
        for t in set.iter() {
            let c = &self.costs[t.index()];
            let tf = self.task_fwd_time(c, batch);
            fwd += tf;
            // backward: dgrad+wgrad for dense ops ≈ 2× forward; ~1× for
            // element-wise / normalization / layout ops.
            bwd += if c.compute_bound { 2.0 * tf } else { tf };
            flops += c.flops * if c.scales { batch as f64 } else { 1.0 };
        }
        TimeProfile {
            fwd_raw: fwd,
            bwd_raw: bwd,
            flops,
        }
    }

    /// Forward time of one task with its compute split `tp` ways.
    /// Splittable (compute-bound) tasks divide FLOPs, activation traffic,
    /// and parameter reads across the group; the launch overhead is paid
    /// in full by every member. Non-splittable tasks are unchanged.
    fn task_fwd_time_tp(&self, c: &TaskCost, batch: usize, tp: usize) -> f64 {
        if !c.compute_bound {
            return self.task_fwd_time(c, batch);
        }
        let scale = if c.scales { batch as f64 } else { 1.0 };
        let byte_scale = self.opts.precision.activation_bytes() as f64 / 4.0;
        let t = tp as f64;
        let flops = c.flops * scale / t;
        let bytes = (c.act_bytes * scale + c.static_bytes) / t * byte_scale;
        let peak = self.device.sustained_flops(self.opts.precision);
        let t_compute = flops / peak;
        let t_memory = bytes / self.device.mem_bandwidth;
        t_compute.max(t_memory) * c.cal + self.opts.launch_overhead
    }

    /// [`Profiler::compute_time_profile`] with splittable compute divided
    /// `tp` ways. FLOPs are reported per group member.
    fn compute_time_profile_tp(&self, set: &TaskSet, batch: usize, tp: usize) -> TimeProfile {
        let mut fwd = 0.0;
        let mut bwd = 0.0;
        let mut flops = 0.0;
        for t in set.iter() {
            let c = &self.costs[t.index()];
            let tf = self.task_fwd_time_tp(c, batch, tp);
            fwd += tf;
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
    /// Memoisation is two-layered. The old single cache keyed the full
    /// `(set, batch, inflight, ckpt)` tuple — but the planner's stage
    /// memo upstream dedupes exactly those tuples, so nearly every
    /// lookup that reached the profiler missed (~19% hit rate at bench
    /// scale). Splitting the memo below the `(inflight, ckpt)`-dependent
    /// assembly lets all variants of a set share the batch-independent
    /// statistics, and all `(inflight, ckpt)` combinations share the raw
    /// time sums. The assembly replays the exact float operations of the
    /// fused path, so results are bit-identical.
    pub fn profile_set(
        &self,
        set: &TaskSet,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
    ) -> ProfileResult {
        let fp = fingerprint(set);

        // layer 1: batch-independent set statistics
        let stats = self.set_stats_cached(fp, set);

        // layer 2: raw per-(set, batch) time sums
        let time =
            self.time_profile_cached(fp, batch as u32, || self.compute_time_profile(set, batch));

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
            stats.param_elems,
            stats.ingress_bytes,
            stats.inter_act_bytes,
            batch,
        );

        let noise = self.noise_factor(fp ^ batch as u128);
        ProfileResult {
            fwd_time: fwd * noise,
            bwd_time: bwd * noise,
            mem_bytes,
            param_elems: stats.param_elems,
            flops: time.flops,
        }
    }

    /// Layer-1 memo lookup: batch-independent set statistics.
    fn set_stats_cached(&self, fp: u128, set: &TaskSet) -> SetStats {
        let stats_shard = Self::shard_of(fp, 0);
        // bind the lookup before matching: a guard held through the match
        // arms would self-deadlock on the re-lock in the miss arm
        let stats_lookup = self.lock_memo(&self.set_stats, stats_shard).get(fp, 0);
        match stats_lookup {
            Some(hit) => {
                self.stats_hits.fetch_add(1, Ordering::Relaxed);
                hit
            }
            None => {
                self.stats_misses.fetch_add(1, Ordering::Relaxed);
                let computed = self.compute_set_stats(set);
                self.lock_memo(&self.set_stats, stats_shard)
                    .insert(fp, 0, computed);
                computed
            }
        }
    }

    /// Layer-2 memo lookup: raw time sums under the given aux word, with
    /// `compute` as the miss path.
    fn time_profile_cached(
        &self,
        fp: u128,
        aux: u32,
        compute: impl FnOnce() -> TimeProfile,
    ) -> TimeProfile {
        let time_shard = Self::shard_of(fp, aux);
        let time_lookup = self.lock_memo(&self.time_profiles, time_shard).get(fp, aux);
        match time_lookup {
            Some(hit) => {
                self.time_hits.fetch_add(1, Ordering::Relaxed);
                hit
            }
            None => {
                self.time_misses.fetch_add(1, Ordering::Relaxed);
                let computed = compute();
                self.lock_memo(&self.time_profiles, time_shard)
                    .insert(fp, aux, computed);
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
    /// `tp <= 1` short-circuits to [`Profiler::profile_set`] —
    /// bit-identical results, same memo keys, same cache counters.
    pub fn profile_set_tp(
        &self,
        set: &TaskSet,
        batch: usize,
        inflight: usize,
        checkpointing: bool,
        tp: usize,
    ) -> ProfileResult {
        if tp <= 1 {
            return self.profile_set(set, batch, inflight, checkpointing);
        }
        debug_assert!(tp < 1024, "tensor-parallel degree {tp} out of range");
        debug_assert!(batch < 1 << 21, "micro-batch {batch} out of range");
        let fp = fingerprint(set);
        let stats = self.set_stats_cached(fp, set);
        // TP entries live in a disjoint aux keyspace (top bit set) so they
        // can never collide with the plain per-batch entries.
        let aux = 0x8000_0000u32 | ((batch as u32) << 10) | tp as u32;
        let time =
            self.time_profile_cached(fp, aux, || self.compute_time_profile_tp(set, batch, tp));

        let fwd = time.fwd_raw + self.opts.invocation_overhead;
        let mut bwd = time.bwd_raw + self.opts.invocation_overhead;
        if checkpointing {
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

        let noise = self.noise_factor(fp ^ aux as u128);
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
        let fp = fingerprint(set);
        let stats = self.set_stats_cached(fp, set);
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

/// 128-bit FNV-style fingerprint of a task set's words. Collisions across
/// the few hundred thousand distinct sets a run profiles are negligible.
fn fingerprint(set: &TaskSet) -> u128 {
    let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h2: u64 = 0x9e37_79b9_7f4a_7c15;
    for t in set.iter() {
        let x = splitmix(t.0 as u64 + 1);
        h1 = (h1 ^ x).wrapping_mul(0x1000_0000_01b3);
        h2 = h2.rotate_left(13) ^ splitmix(x ^ 0xdead_beef);
    }
    ((h1 as u128) << 64) | h2 as u128
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
    use rannc_models::{bert_graph, mlp_graph, BertConfig, MlpConfig};

    fn whole_set(g: &TaskGraph) -> TaskSet {
        TaskSet::from_ids(g.num_tasks(), g.task_ids())
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
        let a = TaskSet::from_ids(n, (0..half as u32).map(rannc_graph::TaskId));
        let b = TaskSet::from_ids(n, (half as u32..n as u32).map(rannc_graph::TaskId));
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
        for i in 0..1000u64 {
            memo.insert((i as u128) << 3, i as u32, i as usize);
        }
        assert_eq!(memo.len, 1000);
        for i in 0..1000u64 {
            assert_eq!(memo.get((i as u128) << 3, i as u32), Some(i as usize));
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
                TaskSet::from_ids(n as usize, (lo..hi).map(rannc_graph::TaskId))
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
        // The stamp-deduplicated ingress pass inside `profile_set` must
        // agree with the straightforward collect-then-filter reference.
        let g = bert_graph(&BertConfig::tiny());
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let n = g.num_tasks() as u32;
        for (lo, hi) in [(0, n / 2), (n / 4, 3 * n / 4), (n / 2, n), (0, n)] {
            let set = TaskSet::from_ids(n as usize, (lo..hi).map(rannc_graph::TaskId));
            let reference: usize = traverse::ingress_values(&g, &set)
                .into_iter()
                .filter(|&v| !g.value(v).kind.is_static())
                .map(|v| g.value(v).size_bytes())
                .sum();
            let batch = 4;
            let got = p.profile_set(&set, batch, 1, false);
            let mem = MemoryParams {
                precision: Precision::FP32,
                checkpointing: false,
                inflight: 1,
            };
            let inter: usize = set
                .iter()
                .filter(|t| traverse::non_constant_tasks(&g)[t.index()])
                .flat_map(|t| g.task(t).outputs.clone())
                .map(|v| g.value(v).size_bytes())
                .sum();
            assert_eq!(
                got.mem_bytes,
                mem.stage_bytes(got.param_elems, reference, inter, batch),
                "range {lo}..{hi}"
            );
        }
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
        let a = TaskSet::from_ids(n, (0..3u32).map(rannc_graph::TaskId));
        let b = TaskSet::from_ids(n, (3..n as u32).map(rannc_graph::TaskId));
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
