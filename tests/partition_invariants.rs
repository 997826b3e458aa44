//! Cross-crate invariants of the partitioning pipeline, including
//! property-based tests over random models.
//!
//! Plan-level invariants (coverage, convexity, stage ordering, memory and
//! device budgets) are checked by driving the `rannc-verify` static
//! analyser rather than a local helper: any error-severity `RV0xx`
//! diagnostic fails the test, so the partitioner and the verifier are
//! held to the same contract. The seeded-corruption counterpart lives in
//! `tests/verify_mutations.rs`.

use proptest::prelude::*;
use rannc::core::{atomic_partition, block_partition, BlockLimits};
use rannc::graph::convex::ConvexChecker;
use rannc::prelude::*;
use rannc::verify::{verify_graph, verify_plan};

/// Every plan must satisfy the full verifier: graph well-formed, stages
/// covering/convex/ordered, memory and device budgets respected.
fn check_plan(g: &TaskGraph, plan: &PartitionPlan, cluster: &ClusterSpec) {
    let graph_report = verify_graph(g);
    assert!(
        !graph_report.has_errors(),
        "graph verification failed:\n{}",
        graph_report.render()
    );
    let report = verify_plan(g, &plan.view(), cluster);
    assert!(
        !report.has_errors(),
        "plan verification failed:\n{}",
        report.render()
    );
}

#[test]
fn bert_plan_invariants() {
    let g = bert_graph(&BertConfig::tiny());
    let cluster = ClusterSpec::v100_cluster(1);
    let plan = Rannc::new(PartitionConfig::new(64).with_k(8))
        .partition(&g, &cluster)
        .unwrap();
    check_plan(&g, &plan, &cluster);
}

#[test]
fn resnet_plan_invariants() {
    let g = resnet_graph(&ResNetConfig::tiny());
    let cluster = ClusterSpec::v100_cluster(1);
    let plan = Rannc::new(PartitionConfig::new(64).with_k(8))
        .partition(&g, &cluster)
        .unwrap();
    check_plan(&g, &plan, &cluster);
}

/// Random-MLP strategy: depth and width vary; batch always divisible.
fn mlp_strategy() -> impl Strategy<Value = (usize, usize, usize)> {
    (2usize..12, 8usize..64, 2usize..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For random model shapes, the full pipeline (atomic → blocks →
    /// stages) produces plans the static verifier certifies clean of
    /// errors.
    #[test]
    fn random_mlp_plan_invariants((depth, width, k_exp) in mlp_strategy()) {
        let g = mlp_graph(&MlpConfig::deep(width, width, depth, 4));
        let cluster = ClusterSpec::v100_cluster(1);
        let k = 1usize << k_exp;
        let plan = Rannc::new(PartitionConfig::new(32).with_k(k))
            .partition(&g, &cluster)
            .unwrap();
        let report = verify_plan(&g, &plan.view(), &cluster);
        prop_assert!(!report.has_errors(), "plan verification failed:\n{}", report.render());
    }

    /// Block-level partitioning alone: blocks cover, are convex, and
    /// respect the memory bound they were built with.
    #[test]
    fn random_mlp_block_invariants((depth, width, k_exp) in mlp_strategy()) {
        let g = mlp_graph(&MlpConfig::deep(width, width, depth, 4));
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(&g);
        let limits = BlockLimits {
            k: 1usize << k_exp,
            mem_limit: 32 << 30,
            profile_batch: 2,
        };
        let blocks = block_partition(&g, &profiler, &atomic, limits);
        let mut ck = ConvexChecker::new(&g);
        let mut covered = TaskSet::new(g.num_tasks());
        for b in &blocks {
            prop_assert!(ck.is_convex(&b.set));
            prop_assert!(b.mem <= limits.mem_limit);
            covered.union_with(&b.set);
        }
        prop_assert_eq!(covered.len(), g.num_tasks());
    }

    /// Atomic partitioning: exactly one non-constant task per component,
    /// for random graphs from all builders.
    #[test]
    fn atomic_invariants_on_bert_variants(layers in 1usize..5, hidden_exp in 5usize..8) {
        let cfg = BertConfig {
            hidden: 1 << hidden_exp,
            layers,
            heads: (1 << hidden_exp) / 16,
            intermediate: 4 << hidden_exp,
            vocab: 512,
            seq_len: 16,
        };
        let g = bert_graph(&cfg);
        let p = atomic_partition(&g);
        prop_assert!(rannc::core::atomic::check_invariants(&g, &p).is_ok());
    }
}

#[test]
fn all_model_builder_graphs_verify_clean() {
    // every bundled builder emits a graph free of error diagnostics
    let graphs = [
        bert_graph(&BertConfig::tiny()),
        gpt_graph(&GptConfig::tiny()),
        t5_graph(&T5Config::tiny()),
        resnet_graph(&ResNetConfig::tiny()),
        mlp_graph(&MlpConfig::deep(64, 64, 8, 10)),
    ];
    for g in &graphs {
        let report = verify_graph(g);
        assert!(
            !report.has_errors(),
            "{}: graph verification failed:\n{}",
            g.name,
            report.render()
        );
    }
}

#[test]
fn more_devices_never_hurt_the_objective() {
    // the DP objective with a larger device budget can only improve
    use rannc::core::{form_stage_dp, DpArena, DpCtx, DpParams, RangeTable};
    let g = mlp_graph(&MlpConfig::deep(128, 128, 12, 10));
    let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
    let atomic = atomic_partition(&g);
    let blocks = block_partition(
        &g,
        &profiler,
        &atomic,
        BlockLimits {
            k: 8,
            mem_limit: 32 << 30,
            profile_batch: 2,
        },
    );
    let cluster = ClusterSpec::v100_cluster(1);
    let ranges = RangeTable::build(&g, &profiler, &blocks);
    let mut last = f64::INFINITY;
    for d in [2usize, 4, 8] {
        let p = DpParams {
            stages: 2,
            devices: d,
            batch_size: 128,
            replica_factor: 1,
            microbatches: 4,
            mem_limit: 32 << 30,
            tp: 1,
        };
        let ctx = DpCtx::new(&profiler, &ranges, &cluster, None, &p);
        let sol = form_stage_dp(&ctx, &mut DpArena::new()).expect("feasible");
        assert!(
            sol.value <= last * 1.000001,
            "objective worsened with more devices: {last} -> {}",
            sol.value
        );
        last = sol.value;
    }
}
