//! Golden parity suite for the cost-model layer.
//!
//! The refactor's contract is *no behaviour change by default*: routing
//! every price through [`CostModel`] instead of calling the profiler and
//! `rannc-hw` formulas directly must leave plans and simulated iteration
//! times bit-identical. Two oracles are compared on every bundled model
//! at 16 and 32 devices:
//!
//! 1. the raw [`Profiler`] — the analytical model and the default (it
//!    implements `CostModel` directly);
//! 2. [`CalibratedCost`] with the identity [`Calibration`] (every factor
//!    `1.0` — multiplying by `1.0` is bit-exact for finite IEEE-754).
//!
//! A final test proves the opposite direction: a *non*-identity
//! calibration, round-tripped through the frozen JSON schema, changes at
//! least one bundled model's chosen partition — the seam is real, not
//! decorative.

use rannc::core::{PartitionConfig, PartitionPlan, Rannc, VerifyMode};
use rannc::cost::{CalibratedCost, Calibration, CostModel, CostModelSpec};
use rannc::graph::TaskGraph;
use rannc::hw::ClusterSpec;
use rannc::models::{
    bert_graph, gpt_graph, mlp_graph, resnet_graph, BertConfig, GptConfig, MlpConfig, ResNetConfig,
};
use rannc::pipeline::simulate_plan;
use rannc::profile::{Profiler, ProfilerOptions};

fn bundled_models() -> Vec<TaskGraph> {
    vec![
        mlp_graph(&MlpConfig::deep(128, 128, 10, 10)),
        bert_graph(&BertConfig::tiny()),
        gpt_graph(&GptConfig::tiny()),
        resnet_graph(&ResNetConfig::tiny()),
    ]
}

/// Field-by-field plan equality with floats compared by bit pattern.
fn assert_plans_identical(a: &PartitionPlan, b: &PartitionPlan, label: &str) {
    assert_eq!(
        a.est_iteration_time.to_bits(),
        b.est_iteration_time.to_bits(),
        "{label}: estimated iteration time differs"
    );
    assert_eq!(
        a.bottleneck.to_bits(),
        b.bottleneck.to_bits(),
        "{label}: bottleneck differs"
    );
    assert_eq!(a.microbatches, b.microbatches, "{label}: MB differs");
    assert_eq!(
        a.replica_factor, b.replica_factor,
        "{label}: replica factor differs"
    );
    assert_eq!(a.batch_size, b.batch_size, "{label}: batch size differs");
    assert_eq!(
        a.stages.len(),
        b.stages.len(),
        "{label}: stage count differs"
    );
    for (i, (x, y)) in a.stages.iter().zip(&b.stages).enumerate() {
        assert_eq!(x.set, y.set, "{label}: stage {i} task set differs");
        assert_eq!(x.replicas, y.replicas, "{label}: stage {i} replicas differ");
        assert_eq!(
            x.micro_batch, y.micro_batch,
            "{label}: stage {i} micro-batch differs"
        );
        assert_eq!(
            x.fwd_time.to_bits(),
            y.fwd_time.to_bits(),
            "{label}: stage {i} fwd time differs"
        );
        assert_eq!(
            x.bwd_time.to_bits(),
            y.bwd_time.to_bits(),
            "{label}: stage {i} bwd time differs"
        );
        assert_eq!(
            x.mem_bytes, y.mem_bytes,
            "{label}: stage {i} memory differs"
        );
        assert_eq!(
            x.param_elems, y.param_elems,
            "{label}: stage {i} params differ"
        );
    }
}

fn partition_with(g: &TaskGraph, cluster: &ClusterSpec, cost: CostModelSpec) -> PartitionPlan {
    Rannc::new(
        PartitionConfig::new(64)
            .with_k(8)
            .with_verify(VerifyMode::Fail)
            .with_cost_model(cost),
    )
    .partition(g, cluster)
    .expect("partition succeeds")
}

/// Every bundled model, 16 and 32 devices: the default analytical model
/// and the identity-calibrated model choose bit-identical plans.
#[test]
fn plans_identical_across_cost_models() {
    for nodes in [2usize, 4] {
        let cluster = ClusterSpec::v100_cluster(nodes);
        for g in bundled_models() {
            let label = format!("{} @ {} devices", g.name, cluster.total_devices());
            let analytical = partition_with(&g, &cluster, CostModelSpec::Analytical);
            let identity = partition_with(
                &g,
                &cluster,
                CostModelSpec::Calibrated(Calibration::identity()),
            );
            assert_plans_identical(&analytical, &identity, &label);
        }
    }
}

/// Every bundled model, 16 and 32 devices: the simulated iteration time
/// of the chosen plan is bit-identical whether the simulator is priced
/// by the raw profiler or the identity-calibrated model.
#[test]
fn simulated_iteration_times_identical_across_cost_models() {
    for nodes in [2usize, 4] {
        let cluster = ClusterSpec::v100_cluster(nodes);
        for g in bundled_models() {
            let label = format!("{} @ {} devices", g.name, cluster.total_devices());
            let plan = partition_with(&g, &cluster, CostModelSpec::Analytical);

            let raw = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
            let identity = CalibratedCost::new(
                &g,
                cluster.device.clone(),
                ProfilerOptions::fp32(),
                Calibration::identity(),
                &cluster,
            );
            let models: [&dyn CostModel; 2] = [&raw, &identity];
            let times: Vec<u64> = models
                .iter()
                .map(|m| {
                    simulate_plan(&plan, *m, &cluster)
                        .expect("plan simulates")
                        .iteration_time
                        .to_bits()
                })
                .collect();
            assert_eq!(
                times[0], times[1],
                "{label}: identity calibration diverged from raw"
            );
        }
    }
}

/// The seam carries real signal: a strong calibration — round-tripped
/// through the frozen JSON schema first — changes at least one bundled
/// model's chosen partition, not just its prices, and the changed plan
/// still passes the strict verifier.
#[test]
fn strong_calibration_changes_a_chosen_partition() {
    let cal = Calibration {
        compute: 1.0,
        ops: vec![("matmul".into(), 4.0)],
        link_intra: 25.0,
        link_inter: 25.0,
        allreduce: 1.0,
        optimizer: 1.0,
        memory: 1.0,
    };
    // the calibration that partitions must be one that survived the
    // serialization round trip, so the file format is exercised too
    let cal = Calibration::from_json(&cal.to_json()).expect("calibration round-trips");
    assert!(!cal.is_identity());

    let mut changed = Vec::new();
    for g in bundled_models() {
        let cluster = ClusterSpec::v100_cluster(2);
        let base = partition_with(&g, &cluster, CostModelSpec::Analytical);
        let cal_plan = partition_with(&g, &cluster, CostModelSpec::Calibrated(cal.clone()));
        let same_shape = base.stages.len() == cal_plan.stages.len()
            && base.microbatches == cal_plan.microbatches
            && base.replica_factor == cal_plan.replica_factor
            && base
                .stages
                .iter()
                .zip(&cal_plan.stages)
                .all(|(a, b)| a.set == b.set && a.replicas == b.replicas);
        if !same_shape {
            changed.push(g.name.clone());
        }
    }
    assert!(
        !changed.is_empty(),
        "strong calibration changed no bundled model's partition"
    );
}
