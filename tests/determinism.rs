//! Determinism suite for the parallel partition-search engine.
//!
//! The engine's contract is *bit-identical plans*: the concurrent,
//! pruned `(S, MB, T)` sweep with arena memo reuse must choose exactly
//! the plan an exhaustive sequential scan chooses (the test-support
//! reference: unpruned, one fresh arena per candidate) — same stage
//! boundaries, same device allocation, same micro-batching, same
//! objective value to the last bit — for every bundled model and
//! cluster size. Anything less would make planner performance a
//! behaviour change.

#[path = "../crates/core/tests/support/mod.rs"]
mod support;

use rannc::core::{
    atomic_partition, block_partition, form_stage_with, Block, BlockLimits, DpSolution,
    PartitionConfig, Rannc, SearchOptions, VerifyMode,
};
use rannc::graph::TaskGraph;
use rannc::hw::ClusterSpec;
use rannc::models::{
    bert_graph, gpt_graph, mlp_graph, resnet_graph, BertConfig, GptConfig, MlpConfig, ResNetConfig,
    ResNetDepth,
};
use rannc::profile::{Profiler, ProfilerOptions};
use support::exhaustive_search;

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

/// Every bundled model, 16 and 32 devices: the parallel engine's plan is
/// bit-identical to the exhaustive sequential scan's.
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
            let (par, stats) = form_stage_with(&g, &profiler, &blocks, &cluster, 64, &opts);
            assert_identical(&seq, &par, &label);
            assert!(seq.is_some(), "{label}: expected feasible");
            memo_hits += stats.stage_cache.hits;
        }
    }
    // Pruning can leave a tiny model a single S = 1 candidate, whose DP
    // never repeats a lookup; across the grid the memo must answer some.
    assert!(memo_hits > 0, "arena memo never hit on the bundled grid");
}

/// Oversubscribed thread counts (more workers than candidates or cores)
/// must not change the plan either.
#[test]
fn thread_count_does_not_change_the_plan() {
    let g = bert_graph(&BertConfig::tiny());
    let cluster = ClusterSpec::v100_cluster(2);
    let (profiler, blocks) = prep(&g, &cluster);
    let reference = exhaustive_search(&g, &profiler, &blocks, &cluster, 64, 1);
    for threads in [1usize, 2, 3, 8, 32] {
        let opts = SearchOptions { threads, tp_max: 1 };
        let (sol, _) = form_stage_with(&g, &profiler, &blocks, &cluster, 64, &opts);
        assert_identical(&reference, &sol, &format!("threads={threads}"));
    }
}

/// The third search axis: with `tp_max = 4` the concurrent `(S, MB, T)`
/// sweep is still deterministic — 1, 2, 4 and 8 worker threads all
/// return the exhaustive scan's plan bit for bit, tensor-parallel
/// degrees included.
#[test]
fn three_axis_sweep_is_thread_deterministic() {
    for g in bundled_models() {
        let cluster = ClusterSpec::v100_cluster(2);
        let (profiler, blocks) = prep(&g, &cluster);
        let reference = exhaustive_search(&g, &profiler, &blocks, &cluster, 64, 4);
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

/// Passing `tp_max = 1` explicitly is the historical 2D search: the
/// engine's plan still matches the exhaustive 2D scan, so the third
/// axis is strictly opt-in.
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
    let (par, _) = form_stage_with(&g, &profiler, &blocks, &cluster, 64, &opts);
    assert_identical(&seq, &par, "tp_max=1");
    assert!(
        par.iter()
            .flat_map(|s| &s.stages)
            .all(|st| st.tensor_parallel == 1),
        "tp_max=1 must never split a stage"
    );
}

/// Paper-scale grid at 128 devices: the grouped/pruned/arena engine
/// still returns the exhaustive scan's plan bit-for-bit on the models
/// the paper-scale bench sweeps. The 256-layer BERT is left to the
/// release-mode bench — profiling its 7.4k tasks in a debug test run
/// would dominate the whole tier-1 suite.
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
        let seq = exhaustive_search(&g, &profiler, &blocks, &cluster, 1024, 1);
        let opts = SearchOptions {
            threads: 4,
            tp_max: 1,
        };
        let (par, stats) = form_stage_with(&g, &profiler, &blocks, &cluster, 1024, &opts);
        assert_identical(&seq, &par, &label);
        assert!(seq.is_some(), "{label}: expected feasible");
        assert!(stats.stage_cache.hits > 0, "{label}: arena memo never hit");
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
