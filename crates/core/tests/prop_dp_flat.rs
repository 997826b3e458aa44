//! Differential property tests of the flat-table DP engine: the
//! arena-backed DP (`form_stage_dp`) with cross-candidate memo reuse
//! must match the HashMap-memo reference DP bit-for-bit — plans AND
//! costs — on random graphs, device counts, tensor-parallel degrees,
//! memory bounds, placed clusters and candidate orders, and the
//! parallel sweep must match the exhaustive sequential scan, and its
//! refined plan the reference refinement, at every thread count. Stages
//! compare by task set and by `block_range`, which for a refined stage
//! is its index in the refined stage list. Both DPs compute only the
//! answer's cell of their last row. The engine walks only finite
//! predecessors; the reference walks every pair of every cell it
//! computes and counts the finite ones, and the two counts must agree.

#[path = "support/mod.rs"]
mod support;

use proptest::prelude::*;
use rannc_core::{
    atomic_partition, block_partition, form_stage_dp, form_stage_with, scan_first_feasible_tier,
    BlockLimits, DpArena, DpCtx, DpParams, DpSolution, RangeTable, SearchOptions, SlotTable,
};
use rannc_graph::TaskGraph;
use rannc_hw::{ClusterSpec, DeviceRank, DeviceSpec};
use rannc_models::{
    bert_graph, mlp_graph, resnet_graph, BertConfig, MlpConfig, ResNetConfig, ResNetDepth,
};
use rannc_obs::trace::{self, ArgVal};
use rannc_profile::{Profiler, ProfilerOptions};
use support::{
    blocks_of, exhaustive_cells, exhaustive_refined, exhaustive_search, form_stage_dp_hashmap,
    proven_cells, stage_mem_span, tier_grid, Walk,
};

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

/// One V100 node, as is (`kind` 0), with device `rank` at half compute
/// efficiency (1), or with device `rank` holding only `small_mem` bytes
/// (2).
fn one_node(kind: usize, rank: usize, small_mem: usize) -> ClusterSpec {
    let cluster = ClusterSpec::v100_cluster(1);
    let rank = DeviceRank {
        node: 0,
        local: rank,
    };
    match kind {
        0 => cluster,
        1 => {
            let mut slow = cluster.device.clone();
            slow.compute_efficiency *= 0.5;
            cluster.with_device_override(rank, slow)
        }
        _ => {
            let small = cluster.device.clone().with_memory(small_mem);
            cluster.with_device_override(rank, small)
        }
    }
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
    /// with and without a tensor-parallel split. The memory bound is
    /// drawn across the stages' memory, so infeasible cells, empty
    /// predecessor lists and `d_min` pruning all occur, and the cluster
    /// may hold a slower device (group time scales above 1) or a
    /// smaller one (a binding group memory). The engine visits exactly
    /// the finite predecessor pairs the reference counts.
    #[test]
    fn arena_reuse_matches_hashmap_dp(
        g in graphs(),
        devices in 2usize..7,
        batch_pow in 4usize..7,
        k in 4usize..8,
        mem_frac in 0.0f64..1.25,
        kind in 0usize..3,
        odd_rank in 0usize..4,
        small_frac in 0.0f64..1.0,
    ) {
        let blocks = blocks_of(&g, k);
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let ranges = RangeTable::build(&profiler, &blocks);
        let batch_size = 1usize << batch_pow;
        let nb = blocks.len();
        let (lo, hi) = stage_mem_span(&profiler, &ranges, &ClusterSpec::v100_cluster(1), batch_size);
        let mem_limit = lo + ((hi - lo) as f64 * mem_frac) as usize;
        let small_mem = lo + (mem_limit.saturating_sub(lo) as f64 * small_frac) as usize;
        let cluster = one_node(kind, odd_rank, small_mem);

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
                            mem_limit,
                            tp,
                        };
                        let precision = profiler.options().precision;
                        let slots =
                            SlotTable::build(&cluster, devices * tp, repl, profiler.device(), precision);
                        let ctx = DpCtx::new(&profiler, &ranges, &cluster, &slots, &p);
                        let before = (arena.visits(), arena.hits() + arena.misses());
                        let fast = form_stage_dp(&ctx, &mut arena);
                        let (reference, walk) = form_stage_dp_hashmap(&ctx);
                        let what = format!("S={stages} MB={microbatches} R={repl} T={tp} kind={kind}");
                        assert_solutions_identical(&fast, &reference, &what);
                        prop_assert_eq!(
                            arena.visits() - before.0,
                            walk.lookups + walk.micro_zero,
                            "{}: visits",
                            what
                        );
                        prop_assert_eq!(
                            arena.hits() + arena.misses() - before.1,
                            walk.lookups,
                            "{}: lookups",
                            what
                        );
                    }
                }
            }
        }
    }

    /// The full grouped/parallel sweep returns the same winner as
    /// the exhaustive sequential scan, and the same refined plan as the
    /// reference refinement of that winner, at several thread counts.
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
        let refined = exhaustive_refined(&g, &profiler, &blocks, &cluster, batch_size, 1);
        for threads in [1usize, 2, 4] {
            let opts = SearchOptions { threads, tp_max: 1 };
            let (scan, _stats) =
                scan_first_feasible_tier(&g, &profiler, &blocks, &cluster, batch_size, &opts);
            let winner = scan.map(|mut t| t.cells.swap_remove(t.winner).scored.expect("feasible").1);
            assert_solutions_identical(&winner, &reference, &format!("threads={threads}"));
            let (engine, _stats) =
                form_stage_with(&g, &profiler, &blocks, &cluster, batch_size, &opts);
            assert_solutions_identical(&engine, &refined, &format!("threads={threads} refined"));
        }
    }
}

/// Tensor parallelism splits attention heads, so a degree must divide
/// the head count: on BERT 128×4 (2 heads) on one 8-GPU node with
/// `tp_max = 4`, neither the engine's scan nor the reference grid offers
/// `T = 4`, although it divides the node's devices.
#[test]
fn scan_skips_degrees_the_head_count_forbids() {
    let g = bert_graph(&BertConfig::enlarged(128, 4));
    let cluster = ClusterSpec::v100_cluster(1);
    let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
    let blocks = blocks_of(&g, 8);
    let (batch_size, tp_max) = (32, 4);
    let opts = SearchOptions { threads: 1, tp_max };
    let (scan, _) = scan_first_feasible_tier(&g, &profiler, &blocks, &cluster, batch_size, &opts);
    let mut degrees: Vec<usize> = scan
        .expect("BERT 128x4 fits one node")
        .cells
        .iter()
        .map(|c| c.params.tp)
        .collect();
    degrees.sort_unstable();
    degrees.dedup();
    assert_eq!(degrees, [1, 2]);
    let reference = exhaustive_cells(&g, &profiler, &blocks, &cluster, batch_size, tp_max);
    for tier in reference {
        for (p, _) in tier.cells {
            assert_ne!(p.tp, 4, "S={} MB={}", p.stages, p.microbatches);
        }
    }
}

/// The integer argument `key` of a trace event, if it has one.
fn arg_opt(args: &[(&str, ArgVal)], key: &str) -> Option<usize> {
    args.iter().find_map(|(k, v)| match v {
        ArgVal::Int(i) if *k == key => Some(*i as usize),
        _ => None,
    })
}

/// The integer argument `key` of a trace event.
fn arg(args: &[(&str, ArgVal)], key: &str) -> usize {
    arg_opt(args, key).unwrap_or_else(|| panic!("span arg {key}"))
}

/// Every `dp` span of a small memory-tight search reports the
/// predecessor pairs its DP walked and the stages it evaluated. The
/// walk is exactly the memo lookups plus micro-batch skips the reference
/// counts, so no infeasible predecessor is visited; both counts repeat
/// run to run, and the evaluations sum to the search's memo misses. A
/// cell the memory-only bound proves INFEASIBLE runs no DP: its span
/// says `proven` and walks nothing.
#[test]
fn dp_spans_count_visits_and_evals() {
    let _serial = trace::test_guard();
    let g = mlp_graph(&MlpConfig::deep(512, 512, 12, 10));
    let mem = (1usize << 30) + 40 * (1 << 20); // overhead + 40 MB
    let cluster = ClusterSpec {
        device: DeviceSpec::v100_32gb().with_memory(mem),
        ..ClusterSpec::v100_cluster(2)
    };
    let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
    let atomic = atomic_partition(&g);
    let limits = BlockLimits {
        k: 8,
        mem_limit: mem,
        profile_batch: 4,
    };
    let blocks = block_partition(&g, &profiler, &atomic, limits);
    let ranges = RangeTable::build(&profiler, &blocks);
    let (batch_size, tp_max) = (32, 2);
    let opts = SearchOptions { threads: 1, tp_max };
    let tid = trace::current_tid();

    let mut runs = Vec::new();
    for _ in 0..2 {
        trace::reset();
        rannc_obs::set_enabled(true);
        let (sol, stats) = form_stage_with(&g, &profiler, &blocks, &cluster, batch_size, &opts);
        rannc_obs::set_enabled(false);
        assert!(sol.is_some());
        // other tests may trace concurrently: keep this thread's spans
        let spans: Vec<[usize; 7]> = trace::drain_events()
            .into_iter()
            .filter(|e| e.tid == tid && e.name == "dp")
            .map(|e| {
                let [n, s, mb, t, visits, evals] =
                    ["n", "S", "MB", "T", "visits", "evals"].map(|key| arg(&e.args, key));
                let proven = arg_opt(&e.args, "proven").unwrap_or(0);
                [n, s, mb, t, visits, evals, proven]
            })
            .collect();
        assert_eq!(spans.len(), stats.candidates, "one dp span per grid cell");
        let evals: usize = spans.iter().map(|s| s[5]).sum();
        assert_eq!(
            evals as u64, stats.stage_cache.misses,
            "evals sum to misses"
        );
        runs.push(spans);
    }
    assert_eq!(runs[0], runs[1], "dp span counts differ between runs");

    let mut skipped = Walk::default();
    let mut proven_spans = 0;
    for &[n, s, mb, t, visits, evals, proven] in &runs[0] {
        let grid = tier_grid(
            &g,
            &cluster,
            n,
            batch_size,
            tp_max,
            cluster.max_memory_bytes(),
        );
        let at = (grid.iter())
            .position(|p| (p.stages, p.microbatches, p.tp) == (s, mb, t))
            .expect("span of a grid cell");
        let p = grid[at];
        let what = format!("n={n} S={s} MB={mb} T={t}");
        // the reference skips the cells the bound proves, as the search does
        let bound = proven_cells(&profiler, &ranges, &grid)[at];
        assert_eq!(proven == 1, bound, "{what}: proven");
        if bound {
            assert_eq!((visits, evals), (0, 0), "{what}: a proven cell ran its DP");
            proven_spans += 1;
            continue;
        }
        let d = n * cluster.node.devices;
        let precision = profiler.options().precision;
        let slots = SlotTable::build(&cluster, d, p.replica_factor, profiler.device(), precision);
        let ctx = DpCtx::new(&profiler, &ranges, &cluster, &slots, &p);
        let (_, walk) = form_stage_dp_hashmap(&ctx);
        assert_eq!(
            visits as u64,
            walk.lookups + walk.micro_zero,
            "{what}: {walk:?}"
        );
        skipped.infeasible += walk.infeasible;
        skipped.micro_zero += walk.micro_zero;
    }
    assert!(
        proven_spans > 0 && proven_spans < runs[0].len(),
        "{proven_spans} of {} cells proven",
        runs[0].len()
    );
    assert!(
        skipped.infeasible > 0 && skipped.micro_zero > 0,
        "the search skipped no predecessor: {skipped:?}"
    );
    trace::reset();
}

/// Every cell of tiers `tiers` of `g`'s search grid on `cluster`, run
/// through one arena in grid order and through the HashMap-memo
/// reference: the solutions must agree bit for bit, and some cell must
/// be feasible. The blocks are the planner's (`k = 32`, bounded by the
/// largest device).
fn pooled_parity(
    name: &str,
    g: &TaskGraph,
    cluster: &ClusterSpec,
    batch_size: usize,
    tp_max: usize,
    tiers: &[usize],
) {
    let profiler = Profiler::new(g, cluster.device.clone(), ProfilerOptions::fp32());
    let atomic = atomic_partition(g);
    let mem_limit = cluster.max_memory_bytes();
    let limits = BlockLimits {
        k: 32,
        mem_limit,
        profile_batch: 1,
    };
    let blocks = block_partition(g, &profiler, &atomic, limits);
    let ranges = RangeTable::build(&profiler, &blocks);
    let precision = profiler.options().precision;
    let mut arena = DpArena::new();
    let (mut cells, mut feasible) = (0, 0);
    for &n in tiers {
        let d = n * cluster.node.devices;
        let r = (cluster.nodes / n).max(1);
        let slots = SlotTable::build(cluster, d, r, profiler.device(), precision);
        for p in tier_grid(g, cluster, n, batch_size, tp_max, mem_limit) {
            let ctx = DpCtx::new(&profiler, &ranges, cluster, &slots, &p);
            let fast = form_stage_dp(&ctx, &mut arena);
            let (reference, _) = form_stage_dp_hashmap(&ctx);
            let what = format!(
                "{name} n={n} S={} MB={} T={}",
                p.stages, p.microbatches, p.tp
            );
            assert_solutions_identical(&fast, &reference, &what);
            cells += 1;
            feasible += usize::from(fast.is_some());
        }
    }
    assert!(feasible > 0, "{name}: no feasible cell among {cells}");
}

/// Paper scale: the benchmark's workloads, cell by cell — BERT 2048×256
/// and ResNet-152 ×8 on 16×8 V100s at batch 1024, BERT 2048×64 on 2×8
/// V100s at batch 8 with T up to 8, and ResNet-152 ×8 on a 16×8 cluster
/// with a slower device and a smaller-memory one. Every grid cell of
/// the listed tiers through one arena matches the reference bit for
/// bit. Run by `scripts/check.sh`.
#[test]
#[ignore = "paper scale; run with --release -- --ignored"]
fn pooled_arena_matches_hashmap_dp_at_paper_scale() {
    let v100x128 = ClusterSpec::v100_cluster(16);
    let bert256 = bert_graph(&BertConfig::enlarged(2048, 256));
    let resnet = resnet_graph(&ResNetConfig::new(ResNetDepth::R152, 8));
    let bert64 = bert_graph(&BertConfig::enlarged(2048, 64));
    let mut slow = v100x128.device.clone();
    slow.compute_efficiency *= 0.5;
    let small = v100x128.device.clone().with_memory(16 << 30);
    let placed = v100x128
        .clone()
        .with_device_override(DeviceRank { node: 0, local: 3 }, slow)
        .with_device_override(DeviceRank { node: 1, local: 6 }, small);
    pooled_parity("bert256-d128", &bert256, &v100x128, 1024, 1, &[1, 2, 4]);
    pooled_parity("resnet152x8-d128", &resnet, &v100x128, 1024, 1, &[1]);
    let v100x16 = ClusterSpec::v100_cluster(2);
    pooled_parity("bert64-tp8", &bert64, &v100x16, 8, 8, &[1, 2]);
    pooled_parity("resnet152x8-placed", &resnet, &placed, 1024, 1, &[1, 2]);
}
