//! Property-based tests of the profiling oracle: the monotonicity
//! relations the partitioning algorithms rely on must hold for arbitrary
//! subcomponents of arbitrary models.

use proptest::prelude::*;
use rannc_core::{Block, RangeTable};
use rannc_graph::{TaskGraph, TaskId, TaskSet};
use rannc_hw::DeviceSpec;
use rannc_models::{bert_graph, mlp_graph, BertConfig, MlpConfig};
use rannc_profile::{CacheStats, Profiler, ProfilerOptions, TimeSums, MIN_LAUNCH_OVERHEAD};

fn graphs() -> impl Strategy<Value = TaskGraph> {
    prop_oneof![
        (2usize..8, 16usize..64)
            .prop_map(|(depth, width)| { mlp_graph(&MlpConfig::deep(width, width, depth, 4)) }),
        (1usize..3).prop_map(|layers| {
            bert_graph(&BertConfig {
                layers,
                ..BertConfig::tiny()
            })
        }),
    ]
}

/// A pseudo-random contiguous task range (contiguity keeps ingress sane).
fn subrange(g: &TaskGraph, sel: u64) -> TaskSet {
    let n = g.num_tasks();
    let a = (sel as usize) % n;
    let b = ((sel >> 32) as usize) % n;
    let (lo, hi) = (a.min(b), a.max(b) + 1);
    TaskSet::from_ids(n, (lo as u32..hi as u32).map(TaskId))
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A launch overhead below 2⁻²⁷ s would make per-task times inexact in
/// fixed point: the profiler refuses it at construction.
#[test]
#[should_panic(expected = "launch_overhead")]
fn launch_overhead_below_the_exact_floor_panics() {
    let g = mlp_graph(&MlpConfig::deep(16, 16, 2, 4));
    let opts = ProfilerOptions {
        launch_overhead: MIN_LAUNCH_OVERHEAD / 2.0,
        ..ProfilerOptions::fp32()
    };
    let _ = Profiler::new(&g, DeviceSpec::v100_32gb(), opts);
}

/// The floor itself is accepted, and a non-finite overhead is not.
#[test]
fn launch_overhead_floor_is_inclusive_and_finite() {
    let g = mlp_graph(&MlpConfig::deep(16, 16, 2, 4));
    let with = |launch_overhead: f64| ProfilerOptions {
        launch_overhead,
        ..ProfilerOptions::fp32()
    };
    let p = Profiler::new(&g, DeviceSpec::v100_32gb(), with(MIN_LAUNCH_OVERHEAD));
    let whole = TaskSet::from_ids(g.num_tasks(), g.task_ids());
    assert!(p.profile_set(&whole, 4, 1, false).fwd_time > 0.0);
    for bad in [f64::INFINITY, f64::NAN] {
        let built = std::panic::catch_unwind(|| {
            Profiler::new(&g, DeviceSpec::v100_32gb(), with(bad));
        });
        assert!(built.is_err(), "launch_overhead {bad}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact additive time: a random task set split into random parts,
    /// disjoint or overlapping, composed in a random order as
    /// `U ∪ P = U + P − (U ∩ P)`, has the walked set's time sums bit for
    /// bit, and so prices bit-identically, at `tp ∈ {1, 2, 4}`, with
    /// and without noise.
    #[test]
    fn composed_time_equals_walked_time_in_any_part_order(
        g in graphs(),
        seed in any::<u64>(),
        parts in 1usize..6,
        overlap in any::<bool>(),
        noise in any::<bool>(),
    ) {
        let opts = if noise {
            ProfilerOptions::mixed().with_noise(0.1, seed)
        } else {
            ProfilerOptions::mixed()
        };
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), opts);
        let n = g.num_tasks();
        let mut rng = seed;
        let mut members = vec![Vec::new(); parts];
        for t in g.task_ids() {
            rng = splitmix(rng);
            if rng.is_multiple_of(4) {
                continue; // not in the set
            }
            members[(rng >> 8) as usize % parts].push(t);
            if overlap && (rng >> 32).is_multiple_of(3) {
                members[(rng >> 40) as usize % parts].push(t);
            }
        }
        let mut sets: Vec<TaskSet> = members.into_iter().map(|m| TaskSet::from_ids(n, m)).collect();
        for i in (1..sets.len()).rev() {
            rng = splitmix(rng);
            sets.swap(i, rng as usize % (i + 1));
        }
        for (batch, tp) in [(1usize, 1usize), (8, 2), (3, 4)] {
            let mut union = TaskSet::new(n);
            let mut composed = TimeSums::default();
            for part in &sets {
                let both = part.iter().filter(|&t| union.contains(t));
                composed += p.time_sums(part.iter(), batch, tp) - p.time_sums(both, batch, tp);
                union.union_with(part);
            }
            prop_assert_eq!(composed, p.time_sums(union.iter(), batch, tp));
            let profiled = p.profiled(&union);
            let a = p.profile(&profiled, composed, batch, 2, true, tp);
            let walked = p.profile(&profiled, p.time_sums(union.iter(), batch, tp), batch, 2, true, tp);
            prop_assert_eq!(a.fwd_time.to_bits(), walked.fwd_time.to_bits());
            prop_assert_eq!(a.bwd_time.to_bits(), walked.bwd_time.to_bits());
            if tp == 1 {
                prop_assert_eq!(a, p.profile_set(&union, batch, 2, true));
            }
        }
    }

    /// Time is monotone in the micro-batch size.
    #[test]
    fn time_monotone_in_batch(g in graphs(), sel in any::<u64>()) {
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let s = subrange(&g, sel);
        let mut last = 0.0f64;
        for batch in [1usize, 2, 4, 8, 16] {
            let r = p.profile_set(&s, batch, 1, false);
            prop_assert!(r.fwd_time >= last - 1e-15);
            last = r.fwd_time;
        }
    }

    /// Memory is monotone in batch size and in-flight count, and gradient
    /// checkpointing never increases it.
    #[test]
    fn memory_monotonicities(g in graphs(), sel in any::<u64>()) {
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let s = subrange(&g, sel);
        let m1 = p.profile_set(&s, 1, 4, false).mem_bytes;
        let m8 = p.profile_set(&s, 8, 4, false).mem_bytes;
        prop_assert!(m8 >= m1);
        let i1 = p.profile_set(&s, 4, 1, false).mem_bytes;
        let i8 = p.profile_set(&s, 4, 8, false).mem_bytes;
        prop_assert!(i8 >= i1);
        let plain = p.profile_set(&s, 4, 8, false).mem_bytes;
        let ckpt = p.profile_set(&s, 4, 8, true).mem_bytes;
        prop_assert!(ckpt <= plain);
    }

    /// A subset of tasks never takes longer or uses more parameters than
    /// its superset.
    #[test]
    fn subset_costs_less(g in graphs(), sel in any::<u64>()) {
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let sup = subrange(&g, sel);
        // shrink to a strict subset (drop the topologically-last half)
        let members: Vec<TaskId> = sup.iter().collect();
        if members.len() < 2 {
            return Ok(());
        }
        let sub = TaskSet::from_ids(g.num_tasks(), members[..members.len() / 2].iter().copied());
        let rs = p.profile_set(&sub, 4, 1, false);
        let rl = p.profile_set(&sup, 4, 1, false);
        // strict additivity of the time model, modulo the per-invocation
        // constant that both measurements include once
        prop_assert!(rs.fwd_time <= rl.fwd_time + 1e-12);
        prop_assert!(rs.param_elems <= rl.param_elems);
    }

    /// Determinism: identical queries on separate profilers agree exactly.
    #[test]
    fn deterministic_across_instances(g in graphs(), sel in any::<u64>()) {
        let p1 = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let p2 = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let s = subrange(&g, sel);
        let a = p1.profile_set(&s, 4, 2, true);
        let b = p2.profile_set(&s, 4, 2, true);
        prop_assert_eq!(a, b);
    }

    /// Disjoint-union accounting: params of two disjoint halves sum to the
    /// whole (no double counting, no loss).
    #[test]
    fn param_partition_additivity(g in graphs()) {
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let n = g.num_tasks();
        let half = n / 2;
        let a = TaskSet::from_ids(n, (0..half as u32).map(TaskId));
        let b = TaskSet::from_ids(n, (half as u32..n as u32).map(TaskId));
        let whole = TaskSet::from_ids(n, g.task_ids());
        let ra = p.profile_set(&a, 1, 1, false);
        let rb = p.profile_set(&b, 1, 1, false);
        let rw = p.profile_set(&whole, 1, 1, false);
        // params may be shared across the cut (e.g. tied embeddings), so
        // the halves can sum to >= the whole but never less
        prop_assert!(ra.param_elems + rb.param_elems >= rw.param_elems);
    }

    /// The set's membership hash, which salts the noise model, is a
    /// function of membership alone: one set built by `from_ids`, by
    /// `union` and by `difference_with` draws the same noise, also when
    /// priced as a profiled set from time sums composed of two parts.
    /// Pricing from sums reads no slot, so nothing is counted.
    #[test]
    fn memo_key_is_a_function_of_membership(g in graphs(), sel in any::<u64>()) {
        let opts = ProfilerOptions::fp32().with_noise(0.1, sel);
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), opts);
        let n = g.num_tasks();
        let members: Vec<TaskId> = g
            .task_ids()
            .filter(|t| (sel >> (t.index() % 64)) & 1 == 1)
            .collect();
        let direct = TaskSet::from_ids(n, members.iter().copied());
        let (evens, odds): (Vec<TaskId>, Vec<TaskId>) =
            members.iter().partition(|t| t.index() % 2 == 0);
        let composed = p.time_sums(evens.iter().copied(), 4, 1) + p.time_sums(odds.iter().copied(), 4, 1);
        let unioned = TaskSet::from_ids(n, evens).union(&TaskSet::from_ids(n, odds));
        let mut differenced = TaskSet::from_ids(n, g.task_ids());
        differenced.difference_with(&TaskSet::from_ids(
            n,
            g.task_ids().filter(|t| !direct.contains(*t)),
        ));
        let a = p.profile_set(&direct, 4, 2, false);
        prop_assert_eq!(a, p.profile_set(&unioned, 4, 2, false));
        prop_assert_eq!(a, p.profile_set(&differenced, 4, 2, false));
        prop_assert_eq!(a, p.profile(&p.profiled(&unioned), composed, 4, 2, false, 1));
        prop_assert_eq!(p.cache_stats(), CacheStats::default());
    }

    /// Every range of a 32-block range table, priced at one point by
    /// concurrent lookups, prices exactly as the plain set of its tasks,
    /// and each block's time slot, a distinct set, misses exactly once.
    #[test]
    fn range_table_misses_once_per_distinct_set(layers in 1usize..3, threads in 1usize..4) {
        let g = bert_graph(&BertConfig { layers, ..BertConfig::tiny() });
        let p = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let n = g.num_tasks();
        let nb = 32.min(n);
        let blocks: Vec<Block> = (0..nb)
            .map(|b| Block {
                set: TaskSet::from_ids(n, (b * n / nb..(b + 1) * n / nb).map(|t| TaskId(t as u32))),
                time: 0.0,
                mem: 0,
            })
            .collect();
        let ranges = RangeTable::build(&g, &p, &blocks);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let row = ranges.row(4, 1);
                    for from in 0..nb {
                        for to in from + 1..=nb {
                            let range = &ranges.get(from, to).set;
                            let time = ranges.time(&p, &row, from, to);
                            let got = p.profile(range, time, 4, 2, false, 1);
                            assert_eq!(got, p.profile_set(range.tasks(), 4, 2, false));
                        }
                    }
                });
            }
        });
        // range [f, t) reads t − f slots
        let reads = (threads * nb * (nb + 1) * (nb + 2) / 6) as u64;
        prop_assert_eq!(
            p.cache_stats(),
            CacheStats { hits: reads - nb as u64, misses: nb as u64 }
        );
    }
}
