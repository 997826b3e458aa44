//! Property-based tests of the profiling oracle: the monotonicity
//! relations the partitioning algorithms rely on must hold for arbitrary
//! subcomponents of arbitrary models.

use proptest::prelude::*;
use rannc_core::{Block, RangeTable};
use rannc_graph::{TaskGraph, TaskId, TaskSet};
use rannc_hw::DeviceSpec;
use rannc_models::{bert_graph, mlp_graph, BertConfig, MlpConfig};
use rannc_profile::{CacheStats, Profiler, ProfilerOptions};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
    /// `union` and by `difference_with` draws the same noise, and as a
    /// profiled set fills one time entry, then hits it.
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
        let unioned = TaskSet::from_ids(n, evens).union(&TaskSet::from_ids(n, odds));
        let mut differenced = TaskSet::from_ids(n, g.task_ids());
        differenced.difference_with(&TaskSet::from_ids(
            n,
            g.task_ids().filter(|t| !direct.contains(*t)),
        ));
        let a = p.profile_set(&direct, 4, 2, false);
        prop_assert_eq!(a, p.profile_set(&unioned, 4, 2, false));
        prop_assert_eq!(a, p.profile_set(&differenced, 4, 2, false));
        let profiled = p.profiled(&unioned);
        for _ in 0..3 {
            prop_assert_eq!(a, p.profile(&profiled, 4, 2, false, 1));
        }
        prop_assert_eq!(p.cache_stats(), CacheStats { hits: 2, misses: 1 });
    }

    /// Every range of a 32-block range table, priced at one point by
    /// concurrent lookups, misses its time cache exactly once, and prices
    /// exactly as the plain set of its tasks.
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
                    for from in 0..nb {
                        for to in from + 1..=nb {
                            let range = &ranges.get(from, to).set;
                            let got = p.profile(range, 4, 2, false, 1);
                            assert_eq!(got, p.profile_set(range.tasks(), 4, 2, false));
                        }
                    }
                });
            }
        });
        let distinct = (nb * (nb + 1) / 2) as u64;
        prop_assert_eq!(
            p.cache_stats(),
            CacheStats { hits: (threads as u64 - 1) * distinct, misses: distinct }
        );
    }
}
