//! DP arenas outlive the search: each `(MB, T)` group of a search draws
//! an arena from its thread's spare list, reset, and hands it back when
//! the group is done. Only the allocations cross groups and searches,
//! never a memo entry. The spare list is thread-local, so each test sees
//! only the arenas its own thread's searches shelved.

#[path = "support/mod.rs"]
mod support;

use rannc_core::{
    form_stage_dp, form_stage_with, scan_first_feasible_tier, Block, DpArena, DpCtx, RangeTable,
    SearchOptions, SlotTable,
};
use rannc_graph::TaskGraph;
use rannc_hw::{ClusterSpec, LinkSpec, NodeSpec};
use rannc_models::{mlp_graph, MlpConfig};
use rannc_profile::{Profiler, ProfilerOptions};
use support::{blocks_of, exhaustive_refined, proven_cells, tier_grid};

/// Two nodes of two V100s. At batch 1 the one-node tier has no cell
/// (`⌊BS/R⌋ = 0` micro-batches at `R = 2`), so a search runs the two-node
/// tier alone: `S ∈ {3, 4}` on `D = 4`, `MB = 1`, one memo key.
fn cluster() -> ClusterSpec {
    let base = ClusterSpec::v100_cluster(2);
    ClusterSpec {
        node: NodeSpec {
            devices: 2,
            intra_link: LinkSpec::nvlink(),
        },
        ..base
    }
}

const BATCH: usize = 1;

/// `g`'s blocks at `k` and its profiler on `cluster`.
fn prep<'g>(g: &'g TaskGraph, k: usize, cluster: &ClusterSpec) -> (Vec<Block>, Profiler<'g>) {
    let profiler = Profiler::new(g, cluster.device.clone(), ProfilerOptions::fp32());
    (blocks_of(g, k), profiler)
}

/// A second search on a different graph with the same block count and
/// device budget draws the arena of the first search's sweep. Its last
/// DP (`S = 4`) left the memo key and table shape the second search's
/// first DP (`S = 3`) uses, so only the reset's stamp bump keeps the old
/// memo entries out. The second search, a whole request whose
/// refinement draws and shelves an arena too, must return the
/// reference's refined plan and the memo counters of its grid run on a
/// fresh arena: each `(MB, T)` group draws one arena of its own, so a
/// search's counters are the sum of its groups' fresh runs.
#[test]
fn a_drawn_arena_answers_as_a_fresh_one() {
    let (k, cluster) = (6, cluster());
    let first = mlp_graph(&MlpConfig::deep(64, 64, 8, 4));
    let second = mlp_graph(&MlpConfig::deep(32, 32, 8, 4));
    let (first_blocks, first_cost) = prep(&first, k, &cluster);
    let (blocks, profiler) = prep(&second, k, &cluster);
    let nb = blocks.len();
    assert_eq!(first_blocks.len(), nb, "block counts differ");
    assert!(nb >= 4, "{nb} blocks cannot fill 4 stages");

    let reference = exhaustive_refined(&second, &profiler, &blocks, &cluster, BATCH, 1);
    let reference = reference.expect("a reference plan");
    // the grid's one (MB, T) group through a fresh arena, but for the
    // cells the search's memory-only bound proves INFEASIBLE
    let ranges = RangeTable::build(&profiler, &blocks);
    let mem_limit = cluster.max_memory_bytes();
    let grid = tier_grid(&second, &cluster, 2, BATCH, 1, mem_limit);
    let precision = profiler.options().precision;
    let slots = SlotTable::build(&cluster, 4, 1, profiler.device(), precision);
    let mut fresh = DpArena::new();
    let mut feasible = 0;
    let proven = proven_cells(&profiler, &ranges, &grid);
    for p in (grid.iter().zip(proven)).filter_map(|(p, proven)| (!proven).then_some(p)) {
        let ctx = DpCtx::new(&profiler, &ranges, &cluster, &slots, p);
        feasible += usize::from(form_stage_dp(&ctx, &mut fresh).is_some());
    }

    let opts = SearchOptions { tp_max: 1 };
    // the sweep alone, so its arena is the last one shelved
    let (scan, _) =
        scan_first_feasible_tier(&first, &first_cost, &first_blocks, &cluster, BATCH, &opts);
    assert!(scan.is_some(), "the first search found no plan");
    let (sol, stats) = form_stage_with(&second, &profiler, &blocks, &cluster, BATCH, &opts);
    let sol = sol.expect("a plan");
    let what = "second search";
    assert_eq!(
        sol.value.to_bits(),
        reference.value.to_bits(),
        "{what}: objective"
    );
    assert_eq!(
        sol.stages.len(),
        reference.stages.len(),
        "{what}: stage count"
    );
    for (a, b) in sol.stages.iter().zip(&reference.stages) {
        assert_eq!(a.set, b.set, "{what}: stage tasks");
        assert_eq!(a.devices, b.devices, "{what}: stage devices");
        assert_eq!(
            a.fwd_time.to_bits(),
            b.fwd_time.to_bits(),
            "{what}: stage time"
        );
        assert_eq!(a.mem_bytes, b.mem_bytes, "{what}: stage memory");
    }
    assert_eq!(stats.node_tiers, 2, "{what}: node tiers");
    assert_eq!(stats.candidates, grid.len(), "{what}: candidates");
    assert_eq!(stats.feasible, feasible, "{what}: feasible");
    assert_eq!(stats.stage_cache.hits, fresh.hits(), "{what}: memo hits");
    assert_eq!(
        stats.stage_cache.misses,
        fresh.misses(),
        "{what}: stage evaluations"
    );
}
