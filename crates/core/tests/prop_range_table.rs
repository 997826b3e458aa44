//! The range table's one-pass row walk against the definitions.
//!
//! `RangeTable::build` fills every block range's egress and set
//! statistics from one walk per row over the blocks' members. On random
//! disjoint partitions of every bundled model family, in shuffled block
//! order (neither convex nor topological), every range must hold the
//! union of its blocks, its egress must equal `traverse::egress_bytes` of
//! that union, and the range must price bit-identically to a from-scratch
//! walk of the union, and fill its time cache once per point. Warm-start
//! blocks (a previous plan's stages) are checked the same way, and an
//! ignored paper-scale run covers all 528 ranges of BERT 2048×256 at
//! k = 32 (run by `scripts/check.sh`).

use proptest::prelude::*;
use rannc_core::{
    atomic_partition, block_partition, Block, BlockLimits, PartitionConfig, RangeTable, Rannc,
};
use rannc_cost::CostModel;
use rannc_graph::{traverse, TaskGraph, TaskId, TaskSet};
use rannc_hw::{ClusterSpec, DeviceSpec};
use rannc_models::{
    bert_graph, gpt_graph, mlp_graph, resnet_graph, t5_graph, BertConfig, GptConfig, MlpConfig,
    ResNetConfig, T5Config,
};
use rannc_profile::memory::DEVICE_OVERHEAD_BYTES;
use rannc_profile::{CacheStats, ProfileResult, Profiler, ProfilerOptions};

fn models() -> Vec<TaskGraph> {
    vec![
        bert_graph(&BertConfig::tiny()),
        gpt_graph(&GptConfig::tiny()),
        t5_graph(&T5Config::tiny()),
        resnet_graph(&ResNetConfig::tiny()),
        mlp_graph(&MlpConfig::deep(64, 64, 8, 10)),
    ]
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A random disjoint partition of `g`'s tasks into at most `k` blocks, in
/// shuffled order. `chunked` cuts contiguous task-id runs, otherwise every
/// task picks a random block, so blocks interleave. With `holes`, a
/// random share of the tasks is left out of every block.
fn random_blocks(g: &TaskGraph, k: usize, chunked: bool, holes: bool, seed: u64) -> Vec<Block> {
    let n = g.num_tasks();
    let mut rng = seed;
    let mut members: Vec<Vec<TaskId>> = vec![Vec::new(); k + 1];
    for t in g.task_ids() {
        rng = splitmix(rng);
        let bin = if chunked {
            t.index() * k / n
        } else {
            rng as usize % k
        };
        let bin = if holes && (rng >> 32).is_multiple_of(5) {
            k
        } else {
            bin
        };
        members[bin].push(t);
    }
    members.truncate(k);
    let mut blocks: Vec<Block> = members
        .into_iter()
        .filter(|m| !m.is_empty())
        .map(|m| Block {
            set: TaskSet::from_ids(n, m),
            time: 0.0,
            mem: 0,
        })
        .collect();
    for i in (1..blocks.len()).rev() {
        rng = splitmix(rng);
        blocks.swap(i, rng as usize % (i + 1));
    }
    blocks
}

fn assert_bit_identical(a: &ProfileResult, b: &ProfileResult, what: &str) {
    assert_eq!(a.fwd_time.to_bits(), b.fwd_time.to_bits(), "{what}: fwd");
    assert_eq!(a.bwd_time.to_bits(), b.bwd_time.to_bits(), "{what}: bwd");
    assert_eq!(a.mem_bytes, b.mem_bytes, "{what}: memory");
    assert_eq!(a.param_elems, b.param_elems, "{what}: params");
}

/// Build the table for `blocks` and check every range against the
/// definitions: its union, its egress, and its price at each
/// `(batch, inflight, ckpt)` point of `pricings`, unsplit and at
/// `tp ∈ {2, 4}`, against a second profiler walking the union from
/// scratch. Each range's time cache must fill once per `(batch, tp)`.
fn check_ranges(g: &TaskGraph, blocks: &[Block], pricings: &[(usize, usize, bool)], what: &str) {
    let opts = ProfilerOptions::mixed();
    let priced = Profiler::new(g, DeviceSpec::v100_32gb(), opts);
    let fresh = Profiler::new(g, DeviceSpec::v100_32gb(), opts);
    let cluster = ClusterSpec::v100_cluster(2);
    let ranges = RangeTable::build(g, &priced, blocks);
    assert_eq!(priced.cache_stats(), CacheStats::default(), "{what}: build");
    let nb = blocks.len();
    assert_eq!(ranges.blocks(), nb);
    for from in 0..nb {
        let mut set = TaskSet::new(g.num_tasks());
        for to in from + 1..=nb {
            set.union_with(&blocks[to - 1].set);
            let at = format!("{what} [{from}, {to})");
            let range = ranges.get(from, to);
            assert_eq!(range.set.tasks(), &set, "{at}: union");
            assert_eq!(
                range.egress,
                traverse::egress_bytes(g, &set),
                "{at}: egress"
            );
            for &(batch, inflight, ckpt) in pricings {
                for tp in [1usize, 2, 4] {
                    let a = priced.stage_cost_tp(&range.set, batch, inflight, ckpt, tp, &cluster);
                    let b = if tp == 1 {
                        fresh.stage_cost(&set, batch, inflight, ckpt)
                    } else {
                        let walked = fresh.profiled(&set);
                        fresh.stage_cost_tp(&walked, batch, inflight, ckpt, tp, &cluster)
                    };
                    assert_bit_identical(&a, &b, &format!("{at} tp {tp}"));
                    assert_eq!(
                        priced.stage_mem(&range.set, batch, inflight, ckpt, tp),
                        a.mem_bytes,
                        "{at} tp {tp}: memory alone"
                    );
                }
            }
        }
    }
    // pricings differ in batch, so every point was a first lookup
    let points = (nb * (nb + 1) / 2 * pricings.len() * 3) as u64;
    assert_eq!(
        priced.cache_stats(),
        CacheStats {
            hits: 0,
            misses: points
        },
        "{what}: time caches"
    );
}

const PRICINGS: [(usize, usize, bool); 2] = [(1, 1, false), (8, 4, true)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random disjoint partitions, shuffled: every range's egress and
    /// statistics equal the definitions.
    #[test]
    fn row_walk_matches_definitions_on_shuffled_partitions(
        family in 0usize..5,
        k in 1usize..10,
        chunked in any::<bool>(),
        holes in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let g = models().swap_remove(family);
        let blocks = random_blocks(&g, k, chunked, holes, seed);
        check_ranges(&g, &blocks, &PRICINGS, &format!("{} k {k}", g.name));
    }
}

/// The block phase's own blocks, and warm-start blocks: the stages of a
/// plan, reused as blocks the way `Rannc::repartition` reuses them.
#[test]
fn row_walk_matches_definitions_on_block_phase_and_warm_start_blocks() {
    for g in models() {
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let blocks = block_partition(
            &g,
            &profiler,
            &atomic_partition(&g),
            BlockLimits {
                k: 8,
                mem_limit: 32 << 30,
                profile_batch: 4,
            },
        );
        check_ranges(&g, &blocks, &PRICINGS, &format!("{} blocks", g.name));

        // a device that holds about half the model's own footprint forces
        // a multi-stage plan
        let whole = TaskSet::from_ids(g.num_tasks(), g.task_ids());
        let model = profiler.stage_cost(&whole, 8, 1, true).mem_bytes - DEVICE_OVERHEAD_BYTES;
        let mut cluster = ClusterSpec::v100_cluster(2);
        cluster.device = cluster
            .device
            .with_memory(DEVICE_OVERHEAD_BYTES + model * 3 / 5);
        let plan = Rannc::new(PartitionConfig::new(64).with_k(8))
            .partition(&g, &cluster)
            .expect("a plan on the tight cluster");
        let stages: Vec<Block> = plan
            .stages
            .iter()
            .map(|s| Block {
                set: s.set.clone(),
                time: 0.0,
                mem: 0,
            })
            .collect();
        assert!(stages.len() > 1, "{}: a one-stage plan", g.name);
        check_ranges(&g, &stages, &PRICINGS, &format!("{} warm start", g.name));
    }
}

/// Paper scale: BERT 2048×256 (7.4k tasks) at k = 32, all 528 ranges.
#[test]
#[ignore = "paper scale; run with --release -- --ignored"]
fn row_walk_matches_definitions_at_paper_scale() {
    let g = bert_graph(&BertConfig::enlarged(2048, 256));
    let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
    let blocks = block_partition(
        &g,
        &profiler,
        &atomic_partition(&g),
        BlockLimits {
            k: 32,
            mem_limit: 32 << 30,
            profile_batch: 1,
        },
    );
    assert_eq!(blocks.len(), 32);
    check_ranges(&g, &blocks, &[(2, 4, true)], "bert-2048x256");
}
