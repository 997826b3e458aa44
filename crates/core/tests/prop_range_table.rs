//! The range table's one-pass row walk against the definitions.
//!
//! `RangeTable::build` fills every block range's egress and set
//! statistics from one walk per row over the blocks' members, and
//! `RangeTable::time` composes a range's time from per-block time sums.
//! On random partitions of every bundled model family, disjoint or with
//! tasks shared by several blocks, in shuffled block order (neither
//! convex nor topological), every range must hold the union of its
//! blocks, its egress must equal `traverse::egress_bytes` of that union,
//! and the range must price bit-identically, with and without noise, to
//! the from-scratch walk of test support's `walked_range_cost`, filling
//! each block's time slot once per point. Warm-start blocks (a previous
//! plan's stages) and the block phase's own blocks, which clone shared
//! constants into several blocks, are checked the same way, and an
//! ignored paper-scale run covers all 528 ranges of BERT 2048×256 at
//! k = 32 (run by `scripts/check.sh`).

#[path = "support/mod.rs"]
mod support;

use proptest::prelude::*;
use rannc_core::{
    atomic_partition, block_partition, Block, BlockLimits, PartitionConfig, RangeTable, Rannc,
};
use rannc_cost::CostModel;
use rannc_graph::{traverse, DType, GraphBuilder, OpKind, TaskGraph, TaskId, TaskSet};
use rannc_hw::{ClusterSpec, DeviceSpec};
use rannc_models::{
    bert_graph, gpt_graph, mlp_graph, resnet_graph, t5_graph, BertConfig, GptConfig, MlpConfig,
    ResNetConfig, T5Config,
};
use rannc_profile::memory::DEVICE_OVERHEAD_BYTES;
use rannc_profile::{CacheStats, ProfileResult, Profiler, ProfilerOptions};
use support::walked_range_cost;

/// A constant (a weight transpose) read by two matmuls: the atomic
/// phase clones it into both matmuls' components, so the block phase
/// returns blocks that share a task.
fn constant_fanout() -> TaskGraph {
    let mut b = GraphBuilder::new("fanout");
    let x = b.input("x", [4, 4], DType::F32);
    let w = b.param("w", [4, 4]);
    let wt = b.transpose(w, [4, 4]);
    let y1 = b.matmul(x, wt);
    let x2 = b.unary(OpKind::Relu, x);
    let y2 = b.matmul(x2, wt);
    b.output(y1);
    b.output(y2);
    b.finish()
}

fn models() -> Vec<TaskGraph> {
    vec![
        bert_graph(&BertConfig::tiny()),
        gpt_graph(&GptConfig::tiny()),
        t5_graph(&T5Config::tiny()),
        resnet_graph(&ResNetConfig::tiny()),
        mlp_graph(&MlpConfig::deep(64, 64, 8, 10)),
        constant_fanout(),
    ]
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A random partition of `g`'s tasks into at most `k` blocks, in
/// shuffled order. `chunked` cuts contiguous task-id runs, otherwise every
/// task picks a random block, so blocks interleave. With `holes`, a
/// random share of the tasks is left out of every block; with `shared`,
/// a random share also joins a second random block, so blocks overlap.
fn random_blocks(
    g: &TaskGraph,
    k: usize,
    chunked: bool,
    (holes, shared): (bool, bool),
    seed: u64,
) -> Vec<Block> {
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
        if shared && bin < k && (rng >> 40).is_multiple_of(4) {
            rng = splitmix(rng);
            let other = rng as usize % k;
            if other != bin {
                members[other].push(t);
            }
        }
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
/// `tp ∈ {2, 4}`, composed from the blocks' time sums, against a second
/// profiler walking the union from scratch. Each block's time slot must
/// fill once per `(batch, tp)` point; every other read is a hit.
fn check_ranges(
    g: &TaskGraph,
    blocks: &[Block],
    pricings: &[(usize, usize, bool)],
    opts: ProfilerOptions,
    what: &str,
) {
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
                    let time = ranges.time(&priced, &ranges.row(batch, tp), from, to);
                    assert_eq!(
                        time,
                        fresh.time_sums(set.iter(), batch, tp),
                        "{at} tp {tp}: sums"
                    );
                    let a =
                        priced.stage_cost_tp(&range.set, time, batch, inflight, ckpt, tp, &cluster);
                    let b = walked_range_cost(
                        &fresh,
                        blocks,
                        (from, to),
                        (batch, inflight, ckpt),
                        tp,
                        &cluster,
                    );
                    assert_bit_identical(&a, &b, &format!("{at} tp {tp}"));
                    if tp == 1 {
                        let plain = fresh.stage_cost(&set, batch, inflight, ckpt);
                        assert_bit_identical(&a, &plain, &format!("{at}: plain set"));
                    }
                    assert_eq!(
                        priced.stage_mem(&range.set, batch, inflight, ckpt, tp),
                        a.mem_bytes,
                        "{at} tp {tp}: memory alone"
                    );
                }
            }
        }
    }
    // pricings differ in batch: every block's slot fills once per point,
    // and range [f, t) reads t − f slots
    let points = (pricings.len() * 3) as u64;
    let reads = (nb * (nb + 1) * (nb + 2) / 6) as u64 * points;
    let misses = nb as u64 * points;
    assert_eq!(
        priced.cache_stats(),
        CacheStats {
            hits: reads - misses,
            misses
        },
        "{what}: time slots"
    );
}

const PRICINGS: [(usize, usize, bool); 2] = [(1, 1, false), (8, 4, true)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random partitions, disjoint or overlapping, shuffled: every
    /// range's egress, statistics and composed time equal the
    /// definitions, with and without noise.
    #[test]
    fn row_walk_matches_definitions_on_shuffled_partitions(
        family in 0usize..6,
        k in 1usize..10,
        chunked in any::<bool>(),
        holes in any::<bool>(),
        shared in any::<bool>(),
        noise in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let g = models().swap_remove(family);
        let blocks = random_blocks(&g, k, chunked, (holes, shared), seed);
        let opts = if noise {
            ProfilerOptions::mixed().with_noise(0.1, seed)
        } else {
            ProfilerOptions::mixed()
        };
        check_ranges(&g, &blocks, &PRICINGS, opts, &format!("{} k {k}", g.name));
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
        let opts = ProfilerOptions::mixed();
        check_ranges(&g, &blocks, &PRICINGS, opts, &format!("{} blocks", g.name));
        if g.name == "fanout" {
            // four tasks: no device that holds the fixed overhead needs a
            // second stage, so there is no multi-stage warm start
            continue;
        }

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
        check_ranges(
            &g,
            &stages,
            &PRICINGS,
            opts,
            &format!("{} warm start", g.name),
        );
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
    check_ranges(
        &g,
        &blocks,
        &[(2, 4, true)],
        ProfilerOptions::mixed(),
        "bert-2048x256",
    );
}
