//! Differential property tests of the flat-table DP engine: the
//! arena-backed DP (`form_stage_dp`) with cross-candidate memo reuse
//! must match the HashMap-memo reference DP bit-for-bit — plans AND
//! costs — on random graphs, device counts, tensor-parallel degrees and
//! candidate orders, and the parallel sweep must match the exhaustive
//! sequential scan at every thread count.

#[path = "support/mod.rs"]
mod support;

use proptest::prelude::*;
use rannc_core::{
    atomic_partition, block_partition, form_stage_dp, form_stage_with, BlockLimits, DpArena, DpCtx,
    DpParams, DpSolution, RangeTable, SearchOptions, SlotTable,
};
use rannc_graph::TaskGraph;
use rannc_hw::{ClusterSpec, DeviceSpec};
use rannc_models::{bert_graph, mlp_graph, BertConfig, MlpConfig};
use rannc_profile::{Profiler, ProfilerOptions};
use support::{exhaustive_search, form_stage_dp_hashmap};

fn graphs() -> impl Strategy<Value = TaskGraph> {
    prop_oneof![
        (3usize..10, 16usize..64)
            .prop_map(|(depth, width)| mlp_graph(&MlpConfig::deep(width, width, depth, 4))),
        (1usize..3).prop_map(|layers| {
            bert_graph(&BertConfig {
                layers,
                ..BertConfig::tiny()
            })
        }),
    ]
}

fn blocks_of(g: &TaskGraph, k: usize) -> Vec<rannc_core::Block> {
    let profiler = Profiler::new(g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
    let atomic = atomic_partition(g);
    block_partition(
        g,
        &profiler,
        &atomic,
        BlockLimits {
            k,
            mem_limit: 32 << 30,
            profile_batch: 2,
        },
    )
}

/// Bit-level equality of two optional DP solutions: every float is
/// compared by bit pattern, every stage field exactly.
fn assert_solutions_identical(a: &Option<DpSolution>, b: &Option<DpSolution>, what: &str) {
    match (a, b) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            prop_assert_eq!(a.value.to_bits(), b.value.to_bits(), "{}: value", what);
            prop_assert_eq!(a.microbatches, b.microbatches, "{}: microbatches", what);
            prop_assert_eq!(a.replica_factor, b.replica_factor, "{}: replica", what);
            prop_assert_eq!(a.stages.len(), b.stages.len(), "{}: stage count", what);
            for (i, (sa, sb)) in a.stages.iter().zip(&b.stages).enumerate() {
                prop_assert_eq!(&sa.set, &sb.set, "{}: stage {} set", what, i);
                prop_assert_eq!(
                    sa.block_range,
                    sb.block_range,
                    "{}: stage {} range",
                    what,
                    i
                );
                prop_assert_eq!(sa.devices, sb.devices, "{}: stage {} devices", what, i);
                prop_assert_eq!(
                    sa.tensor_parallel,
                    sb.tensor_parallel,
                    "{}: stage {} tp",
                    what,
                    i
                );
                prop_assert_eq!(
                    sa.micro_batch,
                    sb.micro_batch,
                    "{}: stage {} micro",
                    what,
                    i
                );
                prop_assert_eq!(
                    sa.fwd_time.to_bits(),
                    sb.fwd_time.to_bits(),
                    "{}: stage {} fwd",
                    what,
                    i
                );
                prop_assert_eq!(
                    sa.bwd_time.to_bits(),
                    sb.bwd_time.to_bits(),
                    "{}: stage {} bwd",
                    what,
                    i
                );
                prop_assert_eq!(sa.mem_bytes, sb.mem_bytes, "{}: stage {} mem", what, i);
                prop_assert_eq!(
                    sa.param_elems,
                    sb.param_elems,
                    "{}: stage {} params",
                    what,
                    i
                );
            }
        }
        (a, b) => {
            prop_assert_eq!(a.is_some(), b.is_some(), "{}: feasibility differs", what);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One `DpArena` reused across a whole candidate grid — memo entries
    /// carried over between candidates that share a memo key — produces
    /// the same solution as a fresh HashMap-memo DP for every candidate,
    /// with and without a tensor-parallel split.
    #[test]
    fn arena_reuse_matches_hashmap_dp(
        g in graphs(),
        devices in 2usize..7,
        batch_pow in 4usize..7,
        k in 4usize..8,
    ) {
        let blocks = blocks_of(&g, k);
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let cluster = ClusterSpec::v100_cluster(1);
        let ranges = RangeTable::build(&profiler, &blocks);
        let batch_size = 1usize << batch_pow;
        let nb = blocks.len();

        // The engine groups candidates by (MB, T) and reuses one arena
        // per group; sweep the same grid here through a single arena to
        // exercise cross-candidate reuse (and key-change invalidation
        // between MB and T groups and between S = 1 / S > 1, which
        // differ in the checkpoint flag).
        let mut arena = DpArena::new();
        for tp in [1usize, 2] {
            for mb_pow in 0..3 {
                let microbatches = 1usize << mb_pow;
                for stages in 1..=devices.min(nb) {
                    for repl in [1usize, 2] {
                        let p = DpParams {
                            stages,
                            devices,
                            batch_size,
                            replica_factor: repl,
                            microbatches,
                            mem_limit: 32 << 30,
                            tp,
                        };
                        let precision = profiler.options().precision;
                        let slots =
                            SlotTable::build(&cluster, devices * tp, repl, profiler.device(), precision);
                        let ctx = DpCtx::new(&profiler, &ranges, &cluster, &slots, &p);
                        let fast = form_stage_dp(&ctx, &mut arena);
                        let reference = form_stage_dp_hashmap(&ctx);
                        assert_solutions_identical(
                            &fast,
                            &reference,
                            &format!("S={stages} MB={microbatches} R={repl} T={tp}"),
                        );
                    }
                }
            }
        }
    }

    /// The full grouped/parallel sweep returns the same winner as
    /// the exhaustive sequential scan, at several thread counts.
    #[test]
    fn parallel_sweep_matches_sequential_reference(
        g in graphs(),
        nodes in 1usize..3,
        batch_pow in 5usize..8,
    ) {
        let blocks = blocks_of(&g, 6);
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let cluster = ClusterSpec::v100_cluster(nodes);
        let batch_size = 1usize << batch_pow;

        let reference = exhaustive_search(&g, &profiler, &blocks, &cluster, batch_size, 1);
        for threads in [1usize, 2, 4] {
            let opts = SearchOptions { threads, tp_max: 1 };
            let (engine, _stats) =
                form_stage_with(&g, &profiler, &blocks, &cluster, batch_size, &opts);
            assert_solutions_identical(&engine, &reference, &format!("threads={threads}"));
        }
    }
}
