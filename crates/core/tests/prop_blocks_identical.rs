//! Differential tests of the block phase: coarsening, uncoarsening and the
//! whole `block_partition` must match the straightforward reference in
//! `support/blocks.rs` exactly — the same groups and merge records, the
//! same uncoarsening move count, and the same blocks in the same order with
//! bit-equal profiled times — on every bundled model family, for several
//! `k`, a generous and a tight memory bound, and 1 and 2 worker threads.

#[path = "support/blocks.rs"]
mod reference;

use rannc_core::blocks::{BlockCtx, BlockLimits};
use rannc_core::{atomic_partition, block_partition, coarsen, par, uncoarsen, Block};
use rannc_cost::CostModel;
use rannc_graph::TaskGraph;
use rannc_hw::DeviceSpec;
use rannc_models::{
    bert_graph, gpt_graph, mlp_graph, resnet_graph, t5_graph, BertConfig, GptConfig, MlpConfig,
    ResNetConfig, T5Config,
};
use rannc_profile::{Profiler, ProfilerOptions};

const GENEROUS: usize = 32 << 30;

fn models() -> Vec<(&'static str, TaskGraph)> {
    vec![
        ("mlp", mlp_graph(&MlpConfig::deep(64, 64, 12, 10))),
        ("bert-tiny", bert_graph(&BertConfig::tiny())),
        ("gpt-tiny", gpt_graph(&GptConfig::tiny())),
        ("t5-tiny", t5_graph(&T5Config::tiny())),
        ("resnet-tiny", resnet_graph(&ResNetConfig::tiny())),
    ]
}

/// A memory bound every atomic subcomponent fits but that caps a group
/// at a quarter of the whole graph's footprint, so memory checks bind in
/// coarsening, uncoarsening and compaction alike.
fn tight_limit(g: &TaskGraph, cost: &dyn CostModel, profile_batch: usize) -> usize {
    let mem = |set| cost.stage_cost(set, profile_batch, 1, true).mem_bytes;
    let atomic = atomic_partition(g);
    let largest_atom = atomic.sets.iter().map(mem).max().unwrap_or(0);
    let mut all = rannc_graph::TaskSet::new(g.num_tasks());
    for s in &atomic.sets {
        all.union_with(s);
    }
    largest_atom.max(mem(&all) / 4)
}

fn assert_blocks_identical(got: &[Block], want: &[Block], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: block count");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.set, b.set, "{what}: block {i} tasks");
        assert_eq!(a.time.to_bits(), b.time.to_bits(), "{what}: block {i} time");
        assert_eq!(a.mem, b.mem, "{what}: block {i} memory");
    }
}

/// Every step of the production phase against the reference, on one
/// configuration. Returns the uncoarsening move count.
fn check(name: &str, g: &TaskGraph, limits: BlockLimits) -> usize {
    let profiler = Profiler::new(g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
    let atomic = atomic_partition(g);
    let what = format!(
        "{name} k={} mem={} threads={}",
        limits.k,
        limits.mem_limit,
        par::max_threads()
    );

    // coarsening: same groups, same merge hierarchy
    let mut ctx = BlockCtx::new(g, &profiler, limits);
    let got = coarsen::coarsen(&mut ctx, &atomic.sets);
    let want = reference::coarsen(&mut ctx, &atomic.sets);
    assert_eq!(got.groups, want.groups, "{what}: coarsened groups");
    assert_eq!(got.levels, want.levels, "{what}: coarsening levels");
    assert_eq!(got.merges.len(), want.merges.len(), "{what}: merge count");
    for (a, b) in got.merges.iter().zip(&want.merges) {
        assert_eq!(
            (a.level, &a.v, &a.w),
            (b.level, &b.v, &b.w),
            "{what}: merge"
        );
    }

    // uncoarsening: same groups after the same number of moves
    let mut got_groups = got.groups.clone();
    let got_moves = uncoarsen::uncoarsen(&mut ctx, &mut got_groups, &got.merges);
    let mut want_groups = want.groups.clone();
    let want_moves = reference::uncoarsen(&mut ctx, &mut want_groups, &want.merges);
    assert_eq!(got_groups, want_groups, "{what}: uncoarsened groups");
    assert_eq!(got_moves, want_moves, "{what}: uncoarsening moves");

    // the whole phase, group for group in order
    let blocks = block_partition(g, &profiler, &atomic, limits);
    let (want_blocks, moves) = reference::block_partition(g, &profiler, &atomic, limits);
    assert_eq!(moves, got_moves, "{what}: moves inside block_partition");
    assert_blocks_identical(&blocks, &want_blocks, &what);
    got_moves
}

#[test]
fn block_phase_matches_reference_on_every_model() {
    let mut total_moves = 0;
    for (name, g) in models() {
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let tight = tight_limit(&g, &profiler, 2);
        for threads in [1, 2] {
            par::set_threads(threads);
            for k in [4, 8, 32] {
                for mem_limit in [GENEROUS, tight] {
                    let limits = BlockLimits {
                        k,
                        mem_limit,
                        profile_batch: 2,
                    };
                    total_moves += check(name, &g, limits);
                }
            }
        }
    }
    par::set_threads(0);
    // the grid must exercise uncoarsening, not only agree on no-ops
    assert!(total_moves > 0, "no uncoarsening move anywhere in the grid");
}

/// Paper scale: BERT 2048×256 (7.4k tasks), k = 32, 32 GiB — the case
/// the planner benchmark's ledger flagged. Run by `scripts/check.sh`.
#[test]
#[ignore = "paper scale; run with --release -- --ignored"]
fn block_phase_matches_reference_at_paper_scale() {
    let g = bert_graph(&BertConfig::enlarged(2048, 256));
    let moves = check(
        "bert-2048x256",
        &g,
        BlockLimits {
            k: 32,
            mem_limit: GENEROUS,
            profile_batch: 1,
        },
    );
    assert!(moves > 0, "paper-scale uncoarsening applied no move");
}
