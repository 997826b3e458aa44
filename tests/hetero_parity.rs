//! Homogeneous-parity golden suite for the heterogeneous planner.
//!
//! The heterogeneity layer's contract: a cluster whose devices and links
//! are all *functionally* identical to the template must produce plans
//! bit-identical to the plain cluster's — even when the cluster is
//! *formally* heterogeneous (overrides present), which also turns off
//! the stage DP's `d_min` pruning. The suite forces that with name-only
//! device overrides (same numbers, different label), where the slot
//! table's time scale is exactly `1.0` and every group memory bound
//! equals the template's, and with link overrides that restate the
//! default tiers, where every link read lands on the default link. Any
//! deviation from the plain plan is a planner bug, not a rounding
//! artifact.

use rannc::core::{PartitionConfig, PartitionPlan, Rannc};
use rannc::graph::TaskGraph;
use rannc::hw::{ClusterSpec, DeviceRank, DeviceSpec};
use rannc::models::{
    bert_graph, gpt_graph, mlp_graph, resnet_graph, t5_graph, BertConfig, GptConfig, MlpConfig,
    ResNetConfig, T5Config,
};

fn bundled_models() -> Vec<TaskGraph> {
    vec![
        mlp_graph(&MlpConfig::deep(128, 128, 10, 10)),
        bert_graph(&BertConfig::tiny()),
        gpt_graph(&GptConfig::tiny()),
        t5_graph(&T5Config::tiny()),
        resnet_graph(&ResNetConfig::tiny()),
    ]
}

/// Tag every device with a renamed copy of the template: functionally
/// identical, formally heterogeneous.
fn name_tagged(cluster: &ClusterSpec) -> ClusterSpec {
    let mut tagged_spec = cluster.device.clone();
    tagged_spec.name = format!("{}-tagged", tagged_spec.name);
    let mut tagged = cluster.clone();
    for g in 0..cluster.total_devices() {
        let rank = cluster.rank(g);
        tagged = tagged.with_device_override(rank, tagged_spec.clone());
    }
    assert!(tagged.is_heterogeneous());
    tagged
}

/// Override every intra-node link and every inter-node pair with the
/// default tier it already has: functionally identical, formally
/// heterogeneous.
fn link_restated(cluster: &ClusterSpec) -> ClusterSpec {
    let mut restated = cluster.clone();
    for a in 0..cluster.nodes {
        for b in a..cluster.nodes {
            let link = if a == b {
                cluster.node.intra_link
            } else {
                cluster.inter_link
            };
            restated = restated.with_link_override(a, b, link);
        }
    }
    assert!(restated.is_heterogeneous());
    restated
}

/// Field-by-field equality with float fields compared by bit pattern.
fn assert_plans_identical(a: &PartitionPlan, b: &PartitionPlan, label: &str) {
    assert_eq!(a.model, b.model, "{label}: model name differs");
    assert_eq!(a.microbatches, b.microbatches, "{label}: MB differs");
    assert_eq!(
        a.replica_factor, b.replica_factor,
        "{label}: replica factor differs"
    );
    assert_eq!(a.batch_size, b.batch_size, "{label}: batch size differs");
    assert_eq!(
        a.bottleneck.to_bits(),
        b.bottleneck.to_bits(),
        "{label}: bottleneck differs"
    );
    assert_eq!(
        a.est_iteration_time.to_bits(),
        b.est_iteration_time.to_bits(),
        "{label}: estimated iteration time differs"
    );
    assert_eq!(a.stages.len(), b.stages.len(), "{label}: stage count");
    for (i, (s, t)) in a.stages.iter().zip(&b.stages).enumerate() {
        assert_eq!(s.set, t.set, "{label}: stage {i} task set differs");
        assert_eq!(s.replicas, t.replicas, "{label}: stage {i} replicas");
        assert_eq!(
            s.micro_batch, t.micro_batch,
            "{label}: stage {i} micro-batch"
        );
        assert_eq!(
            s.fwd_time.to_bits(),
            t.fwd_time.to_bits(),
            "{label}: stage {i} fwd time differs"
        );
        assert_eq!(
            s.bwd_time.to_bits(),
            t.bwd_time.to_bits(),
            "{label}: stage {i} bwd time differs"
        );
        assert_eq!(s.mem_bytes, t.mem_bytes, "{label}: stage {i} memory");
        assert_eq!(
            s.param_elems, t.param_elems,
            "{label}: stage {i} param count"
        );
    }
}

#[test]
fn name_tagged_fleet_plans_bit_identically() {
    for nodes in [2usize, 4] {
        let plain = ClusterSpec::v100_cluster(nodes);
        for (probe, what) in [
            (name_tagged(&plain), "devices tagged"),
            (link_restated(&plain), "links restated"),
        ] {
            for g in bundled_models() {
                let rannc = Rannc::new(PartitionConfig::new(64).with_k(8));
                let label = format!("{} on {} nodes, {what}", g.name, nodes);
                let a = rannc.partition(&g, &plain).expect("plain plan");
                let b = rannc.partition(&g, &probe).expect("probe plan");
                assert_plans_identical(&a, &b, &label);
            }
        }
    }
}

#[test]
fn genuinely_slower_tier_changes_the_placement_price() {
    // one whole node of half-efficiency devices: the placed DP must see
    // a slower fleet, so the bottleneck may only grow — never shrink
    let g = bert_graph(&BertConfig::tiny());
    let plain = ClusterSpec::v100_cluster(2);
    let mut slow = plain.device.clone();
    slow.compute_efficiency *= 0.5;
    let mut hetero = plain.clone();
    for local in 0..plain.node.devices {
        hetero = hetero.with_device_override(DeviceRank { node: 1, local }, slow.clone());
    }
    let rannc = Rannc::new(PartitionConfig::new(64).with_k(8));
    let a = rannc.partition(&g, &plain).expect("plain plan");
    let b = rannc.partition(&g, &hetero).expect("hetero plan");
    assert!(
        b.bottleneck >= a.bottleneck,
        "slower tier cannot speed the plan up: {} < {}",
        b.bottleneck,
        a.bottleneck
    );
}

#[test]
fn small_memory_tier_is_respected() {
    // devices on node 1 hold a fraction of the template memory; every
    // stage the verifier maps onto them must fit that fraction
    let g = mlp_graph(&MlpConfig::deep(256, 256, 12, 10));
    let plain = ClusterSpec::v100_cluster(2);
    let small = DeviceSpec::v100_32gb().with_memory(2 * (1usize << 30));
    let mut hetero = plain.clone();
    for local in 0..plain.node.devices {
        hetero = hetero.with_device_override(DeviceRank { node: 1, local }, small.clone());
    }
    let rannc = Rannc::new(PartitionConfig::new(64).with_k(8));
    // VerifyMode::Fail is the default: partition() itself enforces that
    // each stage fits the smallest device in its group
    let plan = rannc.partition(&g, &hetero).expect("hetero plan verifies");
    assert!(!plan.stages.is_empty());
}
