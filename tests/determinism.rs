//! Determinism suite for the parallel partition-search engine.
//!
//! The engine's contract is *bit-identical plans*, in two halves:
//!
//! - the concurrent `(S, MB, T)` sweep with arena memo reuse
//!   (`scan_first_feasible_tier`) must choose exactly the winner an
//!   exhaustive sequential scan chooses (the test-support reference:
//!   one fresh arena per candidate) — same stage boundaries, same device
//!   allocation, same micro-batching, same objective value to the last
//!   bit;
//! - `form_stage_with`'s plan must be that winner's stage-cut refinement
//!   priced from scratch (`support::refine_reference`).
//!
//! Both hold for every bundled model and cluster size. Anything less
//! would make planner performance a behaviour change.

#[path = "../crates/core/tests/support/mod.rs"]
mod support;

use rannc::core::search::score_solution;
use rannc::core::{
    atomic_partition, block_partition, form_stage_with, scan_first_feasible_tier, Block,
    BlockLimits, DpSolution, PartitionConfig, Rannc, SearchOptions, VerifyMode,
};
use rannc::graph::TaskGraph;
use rannc::hw::{ClusterSpec, DeviceRank};
use rannc::models::{
    bert_graph, gpt_graph, mlp_graph, resnet_graph, BertConfig, GptConfig, MlpConfig, ResNetConfig,
    ResNetDepth,
};
use rannc::profile::{Profiler, ProfilerOptions};
use support::{
    exhaustive_cells, exhaustive_refined, exhaustive_search, exhaustive_winner, refine_reference,
};

/// The tier scan's winner, before the stage-cut refinement.
fn scan_winner(
    g: &TaskGraph,
    profiler: &Profiler<'_>,
    blocks: &[Block],
    cluster: &ClusterSpec,
    batch_size: usize,
    opts: &SearchOptions,
) -> (Option<DpSolution>, rannc::core::SearchStats) {
    let (scan, stats) = scan_first_feasible_tier(g, profiler, blocks, cluster, batch_size, opts);
    let winner = scan.map(|mut t| t.cells.swap_remove(t.winner).scored.expect("feasible").1);
    (winner, stats)
}

fn bundled_models() -> Vec<TaskGraph> {
    vec![
        mlp_graph(&MlpConfig::deep(128, 128, 10, 10)),
        bert_graph(&BertConfig::tiny()),
        gpt_graph(&GptConfig::tiny()),
        resnet_graph(&ResNetConfig::tiny()),
    ]
}

fn prep<'g>(g: &'g TaskGraph, cluster: &ClusterSpec) -> (Profiler<'g>, Vec<Block>) {
    let profiler = Profiler::new(g, cluster.device.clone(), ProfilerOptions::fp32());
    let atomic = atomic_partition(g);
    let blocks = block_partition(
        g,
        &profiler,
        &atomic,
        BlockLimits {
            k: 8,
            mem_limit: cluster.device.memory_bytes,
            profile_batch: 1,
        },
    );
    (profiler, blocks)
}

/// Field-by-field equality, with objective values compared by bit
/// pattern — `==` on floats would let `-0.0 == 0.0` or hide NaN drift.
fn assert_identical(seq: &Option<DpSolution>, par: &Option<DpSolution>, label: &str) {
    match (seq, par) {
        (None, None) => {}
        (Some(s), Some(p)) => {
            assert_eq!(
                s.value.to_bits(),
                p.value.to_bits(),
                "{label}: objective value differs"
            );
            assert_eq!(s.microbatches, p.microbatches, "{label}: MB differs");
            assert_eq!(
                s.replica_factor, p.replica_factor,
                "{label}: replica factor differs"
            );
            assert_eq!(
                s.stages.len(),
                p.stages.len(),
                "{label}: stage count differs"
            );
            for (i, (a, b)) in s.stages.iter().zip(&p.stages).enumerate() {
                assert_eq!(
                    a.block_range, b.block_range,
                    "{label}: stage {i} block range differs"
                );
                assert_eq!(a.devices, b.devices, "{label}: stage {i} devices differ");
                assert_eq!(
                    a.tensor_parallel, b.tensor_parallel,
                    "{label}: stage {i} tensor-parallel degree differs"
                );
                assert_eq!(
                    a.micro_batch, b.micro_batch,
                    "{label}: stage {i} micro-batch differs"
                );
                assert_eq!(a.set, b.set, "{label}: stage {i} task set differs");
                assert_eq!(
                    a.fwd_time.to_bits(),
                    b.fwd_time.to_bits(),
                    "{label}: stage {i} fwd time differs"
                );
                assert_eq!(
                    a.bwd_time.to_bits(),
                    b.bwd_time.to_bits(),
                    "{label}: stage {i} bwd time differs"
                );
            }
        }
        _ => panic!("{label}: one side feasible, the other not"),
    }
}

/// Every bundled model, 16 and 32 devices: the parallel engine's winner
/// is bit-identical to the exhaustive sequential scan's, and its plan to
/// that winner's refinement.
#[test]
fn parallel_engine_matches_sequential_plans() {
    let mut memo_hits = 0;
    for nodes in [2usize, 4] {
        let cluster = ClusterSpec::v100_cluster(nodes);
        for g in bundled_models() {
            let label = format!("{} @ {} devices", g.name, cluster.total_devices());
            let (profiler, blocks) = prep(&g, &cluster);
            let seq = exhaustive_search(&g, &profiler, &blocks, &cluster, 64, 1);
            let opts = SearchOptions {
                threads: 4,
                tp_max: 1,
            };
            let (par, stats) = scan_winner(&g, &profiler, &blocks, &cluster, 64, &opts);
            assert_identical(&seq, &par, &label);
            assert!(seq.is_some(), "{label}: expected feasible");
            memo_hits += stats.stage_cache.hits;
            let refined = exhaustive_refined(&g, &profiler, &blocks, &cluster, 64, 1);
            let (plan, _) = form_stage_with(&g, &profiler, &blocks, &cluster, 64, &opts);
            assert_identical(&refined, &plan, &format!("{label} refined"));
        }
    }
    // A tiny model may have only S = 1 candidates, whose DP never
    // repeats a lookup; across the grid the memo must answer some.
    assert!(memo_hits > 0, "arena memo never hit on the bundled grid");
}

/// Oversubscribed thread counts (more workers than candidates or cores)
/// must not change the plan either.
#[test]
fn thread_count_does_not_change_the_plan() {
    let g = bert_graph(&BertConfig::tiny());
    let cluster = ClusterSpec::v100_cluster(2);
    let (profiler, blocks) = prep(&g, &cluster);
    let reference = exhaustive_refined(&g, &profiler, &blocks, &cluster, 64, 1);
    for threads in [1usize, 2, 3, 8, 32] {
        let opts = SearchOptions { threads, tp_max: 1 };
        let (sol, _) = form_stage_with(&g, &profiler, &blocks, &cluster, 64, &opts);
        assert_identical(&reference, &sol, &format!("threads={threads}"));
    }
}

/// The third search axis: with `tp_max = 4` the concurrent `(S, MB, T)`
/// sweep is still deterministic — 1, 2, 4 and 8 worker threads all
/// return the refinement of the exhaustive scan's winner
/// (`support::refine_reference`) bit for bit, tensor-parallel degrees
/// included.
#[test]
fn three_axis_sweep_is_thread_deterministic() {
    for g in bundled_models() {
        let cluster = ClusterSpec::v100_cluster(2);
        let (profiler, blocks) = prep(&g, &cluster);
        let reference = exhaustive_refined(&g, &profiler, &blocks, &cluster, 64, 4);
        assert!(reference.is_some(), "{}: expected feasible 3D plan", g.name);
        for threads in [1usize, 2, 4, 8] {
            let opts = SearchOptions { threads, tp_max: 4 };
            let (sol, _) = form_stage_with(&g, &profiler, &blocks, &cluster, 64, &opts);
            assert_identical(
                &reference,
                &sol,
                &format!("{} tp_max=4 threads={threads}", g.name),
            );
        }
    }
}

/// The engine's tier scan is the reference's last tier cell by cell: the
/// same grid order, bit-identical solutions and scores, and the winner
/// at the first minimum. Every bundled model at 1, 2 and 4 threads,
/// `tp_max` 1 and 4, on a homogeneous cluster and on one with a slow and
/// a small-memory device.
#[test]
fn tier_scan_matches_the_exhaustive_cells() {
    let homogeneous = ClusterSpec::v100_cluster(2);
    let mut slow = homogeneous.device.clone();
    slow.compute_efficiency *= 0.5;
    let small = homogeneous.device.clone().with_memory(16 << 30);
    let placed = homogeneous
        .clone()
        .with_device_override(DeviceRank { node: 0, local: 3 }, slow)
        .with_device_override(DeviceRank { node: 1, local: 6 }, small);
    let models = bundled_models();
    let clusters = [("homogeneous", &homogeneous), ("placed", &placed)];
    for (g, (name, cluster)) in models.iter().flat_map(|g| clusters.map(|c| (g, c))) {
        let (profiler, blocks) = prep(g, cluster);
        for tp_max in [1usize, 4] {
            let reference = exhaustive_cells(g, &profiler, &blocks, cluster, 64, tp_max)
                .pop()
                .expect("a tier");
            let scores: Vec<Option<f64>> = (reference.cells.iter())
                .map(|(_, sol)| sol.as_ref().map(|s| score_solution(s, cluster, &profiler)))
                .collect();
            let first_min = (scores.iter().enumerate())
                .filter_map(|(i, score)| score.map(|v| (i, v)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(i, _)| i)
                .expect("a feasible cell");
            for threads in [1usize, 2, 4] {
                let label = format!("{} {name} tp_max={tp_max} threads={threads}", g.name);
                let opts = SearchOptions { threads, tp_max };
                let scan = scan_first_feasible_tier(g, &profiler, &blocks, cluster, 64, &opts)
                    .0
                    .expect("feasible");
                assert_eq!(
                    scan.cells.len(),
                    reference.cells.len(),
                    "{label}: grid size differs"
                );
                let cells = scan.cells.iter().zip(&reference.cells).zip(&scores);
                for (i, ((cell, (params, sol)), score)) in cells.enumerate() {
                    let label = format!("{label} cell {i}");
                    assert_eq!(cell.params, *params, "{label}: parameters differ");
                    let (scan_score, scan_sol) = match &cell.scored {
                        Some((v, s)) => (Some(v.to_bits()), Some(s.clone())),
                        None => (None, None),
                    };
                    assert_identical(sol, &scan_sol, &label);
                    assert_eq!(
                        scan_score,
                        score.map(f64::to_bits),
                        "{label}: score differs"
                    );
                }
                assert_eq!(scan.winner, first_min, "{label}: winner differs");
            }
        }
    }
}

/// Passing `tp_max = 1` explicitly is the historical 2D search: the
/// engine's winner still matches the exhaustive 2D scan and its plan
/// that winner's refinement, so the third axis is strictly opt-in.
#[test]
fn tp_max_one_reproduces_the_sequential_scan() {
    let g = bert_graph(&BertConfig::tiny());
    let cluster = ClusterSpec::v100_cluster(2);
    let (profiler, blocks) = prep(&g, &cluster);
    let seq = exhaustive_search(&g, &profiler, &blocks, &cluster, 64, 1);
    let opts = SearchOptions {
        threads: 4,
        tp_max: 1,
    };
    let (winner, _) = scan_winner(&g, &profiler, &blocks, &cluster, 64, &opts);
    assert_identical(&seq, &winner, "tp_max=1");
    let refined = exhaustive_refined(&g, &profiler, &blocks, &cluster, 64, 1);
    let (par, _) = form_stage_with(&g, &profiler, &blocks, &cluster, 64, &opts);
    assert_identical(&refined, &par, "tp_max=1 refined");
    assert!(
        par.iter()
            .flat_map(|s| &s.stages)
            .all(|st| st.tensor_parallel == 1),
        "tp_max=1 must never split a stage"
    );
}

/// Paper-scale grid at 128 devices: the grouped/arena engine
/// still returns the exhaustive scan's winner bit-for-bit on the models
/// the paper-scale bench sweeps, and its plan is that winner's
/// refinement. The 256-layer BERT is the ignored test below —
/// profiling its 7.4k tasks in a debug test run would dominate the whole
/// tier-1 suite.
#[test]
fn paper_scale_models_match_at_128_devices() {
    let cluster = ClusterSpec::v100_cluster(16); // 128 devices
    let models = [
        ("gpt-96l", gpt_graph(&GptConfig::enlarged(1600, 96))),
        (
            "resnet152x8",
            resnet_graph(&ResNetConfig::new(ResNetDepth::R152, 8)),
        ),
    ];
    for (name, g) in models {
        let label = format!("{name} @ 128 devices");
        let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
        let atomic = atomic_partition(&g);
        let blocks = block_partition(
            &g,
            &profiler,
            &atomic,
            BlockLimits {
                k: 32,
                mem_limit: cluster.device.memory_bytes,
                profile_batch: 1,
            },
        );
        let winner = exhaustive_winner(&g, &profiler, &blocks, &cluster, 1024, 1);
        let seq = winner.as_ref().map(|(_, _, sol)| sol.clone());
        let opts = SearchOptions {
            threads: 4,
            tp_max: 1,
        };
        let (par, stats) = scan_winner(&g, &profiler, &blocks, &cluster, 1024, &opts);
        assert_identical(&seq, &par, &label);
        assert!(stats.stage_cache.hits > 0, "{label}: arena memo never hit");
        let winner = winner.unwrap_or_else(|| panic!("{label}: expected feasible"));
        let refined = refine_reference(&profiler, &blocks, &cluster, winner);
        let (plan, _) = form_stage_with(&g, &profiler, &blocks, &cluster, 1024, &opts);
        assert_identical(&Some(refined), &plan, &format!("{label} refined"));
    }
}

/// The 256-layer BERT at 128 devices (the benchmark's flagship): on the
/// same blocks, 1, 2 and 4 worker threads give bit-identical plans.
/// Ignored in the default run for its size; `scripts/check.sh` runs it in
/// release mode.
#[test]
#[ignore]
fn bert256_plan_is_identical_across_thread_counts() {
    let g = bert_graph(&BertConfig::enlarged(2048, 256));
    let cluster = ClusterSpec::v100_cluster(16); // 128 devices
    let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
    let atomic = atomic_partition(&g);
    let blocks = block_partition(
        &g,
        &profiler,
        &atomic,
        BlockLimits::for_request(&PartitionConfig::new(1024).with_k(32), &cluster),
    );
    let plan_at = |threads| {
        let opts = SearchOptions { threads, tp_max: 1 };
        form_stage_with(&g, &profiler, &blocks, &cluster, 1024, &opts).0
    };
    let one = plan_at(1);
    assert!(one.is_some(), "bert-256l @ 128 devices: expected feasible");
    for threads in [2usize, 4] {
        assert_identical(&one, &plan_at(threads), &format!("threads={threads}"));
    }
}

/// Paper-scale end-to-end under the strict verifier: `Rannc::partition`
/// with `VerifyMode::Fail` must accept the engine's 128-device plan.
#[test]
fn paper_scale_partition_verifies_under_fail_mode() {
    let g = resnet_graph(&ResNetConfig::new(ResNetDepth::R152, 8));
    let cluster = ClusterSpec::v100_cluster(16);
    let plan = Rannc::new(
        PartitionConfig::new(1024)
            .with_k(32)
            .with_verify(VerifyMode::Fail)
            .with_threads(4),
    )
    .partition(&g, &cluster)
    .expect("paper-scale partition verifies");
    assert!(!plan.stages.is_empty(), "expected a feasible plan");
}

/// End-to-end: `Rannc::partition` on the parallel engine passes the
/// static verifier gate (`VerifyMode::Fail`), and its plan matches a
/// one-thread partition of the same model.
#[test]
fn full_partition_verifies_under_fail_mode() {
    let g = bert_graph(&BertConfig::tiny());
    let cluster = ClusterSpec::v100_cluster(2);
    let parallel = Rannc::new(
        PartitionConfig::new(64)
            .with_k(8)
            .with_verify(VerifyMode::Fail)
            .with_threads(4),
    );
    let sequential = Rannc::new(
        PartitionConfig::new(64)
            .with_k(8)
            .with_verify(VerifyMode::Fail)
            .with_threads(1),
    );
    let (plan_p, stats) = parallel
        .partition_with_stats(&g, &cluster)
        .expect("parallel partition verifies");
    let plan_s = sequential
        .partition_with_stats(&g, &cluster)
        .expect("sequential partition verifies")
        .0;
    assert_eq!(plan_p.stages.len(), plan_s.stages.len());
    for (a, b) in plan_p.stages.iter().zip(&plan_s.stages) {
        assert_eq!(a.set, b.set);
        assert_eq!(a.replicas, b.replicas);
    }
    assert_eq!(plan_p.microbatches, plan_s.microbatches);
    assert!(stats.search.candidates > 0);
}
