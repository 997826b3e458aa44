//! The paper's headline experimental claims, verified end-to-end on the
//! reproduction (scaled-down grids so the suite stays fast; the full
//! grids run in `rannc-bench`).

use rannc::baselines::{
    gpipe_hybrid, gpipe_model, megatron, pipedream_2bw, simulate_data_parallel, BaselineOutcome,
    TransformerDims,
};
use rannc::prelude::*;
use rannc::train::loss_validation;

fn rannc_throughput(g: &TaskGraph, cluster: &ClusterSpec, batch: usize, k: usize) -> Option<f64> {
    let plan = Rannc::new(PartitionConfig::new(batch).with_k(k))
        .partition(g, cluster)
        .ok()?;
    let profiler = Profiler::new(g, cluster.device.clone(), ProfilerOptions::fp32());
    Some(
        rannc::pipeline::simulate_plan(&plan, &profiler, cluster)
            .expect("valid plan")
            .throughput,
    )
}

/// §IV-B: "RaNNC successfully trained models five times larger than those
/// Megatron-LM could" — on the full paper cluster, RaNNC partitions the
/// 12.9B model while Megatron-LM OOMs at ≥ 4B.
#[test]
fn rannc_trains_larger_models_than_megatron() {
    let cluster = ClusterSpec::v100_cluster(4);
    // Megatron-LM fails on a ~4.1B model...
    let big = BertConfig::enlarged(1536, 144);
    assert!(matches!(
        megatron(&TransformerDims::from(&big), &cluster, 256, Precision::FP32),
        BaselineOutcome::OutOfMemory
    ));
    // ...while RaNNC partitions it fine.
    let g = bert_graph(&big);
    assert!(
        Rannc::new(PartitionConfig::new(256).with_k(32))
            .partition(&g, &cluster)
            .is_ok(),
        "RaNNC should partition the 4.1B model"
    );
}

/// The 12.9B flagship (hidden 2048, 256 layers) is partitionable on
/// 32 GPUs — the paper's largest configuration.
#[test]
fn rannc_partitions_the_12_9b_model() {
    let cfg = BertConfig::enlarged(2048, 256);
    assert!(cfg.param_count() > 12_000_000_000);
    let g = bert_graph(&cfg);
    let cluster = ClusterSpec::v100_cluster(4);
    let plan = Rannc::new(PartitionConfig::new(256).with_k(32))
        .partition(&g, &cluster)
        .expect("the paper's largest model must be partitionable");
    // needs a real pipeline: several stages
    assert!(plan.stages.len() >= 4, "stages = {}", plan.stages.len());
    for st in &plan.stages {
        assert!(st.mem_bytes <= cluster.device.memory_bytes);
    }
}

/// §IV-B: "RaNNC outperformed GPipe-Hybrid" (clearly on small/medium
/// models; near parity at the very largest scale, which the paper itself
/// notes: "the differences in throughputs decrease").
#[test]
fn rannc_beats_gpipe_hybrid_on_medium_bert() {
    let cfg = BertConfig::enlarged(1024, 24);
    let g = bert_graph(&cfg);
    let cluster = ClusterSpec::v100_cluster(4);
    let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
    let gp = gpipe_hybrid(&g, &profiler, &cluster, 256)
        .throughput()
        .expect("gpipe feasible");
    let ra = rannc_throughput(&g, &cluster, 256, 32).expect("rannc feasible");
    assert!(ra > gp, "RaNNC {ra:.1} should beat GPipe-Hybrid {gp:.1}");
}

/// §IV-B ResNet: "RaNNC outperformed GPipe-Model by a large margin in all
/// of the settings."
#[test]
fn rannc_beats_gpipe_model_on_resnet() {
    let model = ResNetConfig::new(ResNetDepth::R50, 2);
    let g = resnet_graph(&model);
    let cluster = ClusterSpec::v100_cluster(1);
    let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
    let gp = gpipe_model(&g, &profiler, &cluster, 128)
        .throughput()
        .expect("gpipe-model feasible");
    let ra = rannc_throughput(&g, &cluster, 128, 32).expect("rannc feasible");
    assert!(ra > gp, "RaNNC {ra:.1} should beat GPipe-Model {gp:.1}");
}

/// §IV-B: PipeDream-2BW's async schedule gives it a utilization edge over
/// the same partition run synchronously ("slightly outperformed RaNNC in
/// several settings") — but it is staleness-prone, which the numeric
/// substrate demonstrates.
#[test]
fn pipedream_edge_comes_with_staleness() {
    let cfg = BertConfig::enlarged(1024, 48);
    let g = bert_graph(&cfg);
    let cluster = ClusterSpec::v100_cluster(4);
    let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
    let pd = pipedream_2bw(&g, &profiler, &cluster, 256)
        .throughput()
        .expect("feasible");
    let gp = gpipe_hybrid(&g, &profiler, &cluster, 256)
        .throughput()
        .expect("feasible");
    assert!(pd > gp, "async 2BW should out-utilize sync GPipe");

    // and the staleness side: async training drifts from the reference
    let v = loss_validation(&[16, 64, 64, 8], 2, 25, 9);
    assert_eq!(v.sync_divergence(), 0.0);
    assert!(v.async_divergence() > 0.0);
}

/// §IV-B: data parallelism trains only the smallest models.
#[test]
fn data_parallel_hits_the_memory_wall_first() {
    let cluster = ClusterSpec::v100_cluster(4);
    let small = bert_graph(&BertConfig::enlarged(1024, 24));
    let profiler = Profiler::new(&small, cluster.device.clone(), ProfilerOptions::fp32());
    assert!(
        simulate_data_parallel(&small, &profiler, &cluster, 256)
            .ok()
            .is_some(),
        "BERT-Large must be data-parallel trainable"
    );
    let big = bert_graph(&BertConfig::enlarged(1024, 96));
    let profiler = Profiler::new(&big, cluster.device.clone(), ProfilerOptions::fp32());
    assert!(
        matches!(
            simulate_data_parallel(&big, &profiler, &cluster, 256),
            BaselineOutcome::OutOfMemory
        ),
        "1.2B params must OOM under plain data parallelism"
    );
}

/// §IV-B loss validation: "we confirmed that RaNNC and Megatron-LM
/// reached almost the same loss value … the difference was less than
/// 1.0e-3". Our analogue is stronger: bit-identical sync-pipeline losses.
#[test]
fn loss_validation_claim() {
    let v = loss_validation(&[16, 48, 48, 48, 8], 3, 40, 123);
    assert!(v.sync_divergence() < 1e-3);
    assert_eq!(v.sync_divergence(), 0.0);
}

/// §I motivation: T5's 11 billion parameters are one of the paper's
/// opening examples of models that "do not fit into the memory of
/// accelerator devices" — RaNNC must partition a T5-11B-scale
/// encoder–decoder (a non-chain graph) on the paper's cluster.
#[test]
fn t5_11b_scale_partitionable() {
    let cfg = T5Config::xxl();
    let g = t5_graph(&cfg);
    assert!(
        g.param_count() > 9_000_000_000,
        "params = {}",
        g.param_count()
    );
    let cluster = ClusterSpec::v100_cluster(4);
    let plan = Rannc::new(PartitionConfig::new(128).with_k(32))
        .partition(&g, &cluster)
        .expect("T5-11B must be partitionable on 32 V100s");
    assert!(plan.stages.len() >= 4);
    // stages respect memory and the branching cross-attention edges
    use rannc::graph::convex::ConvexChecker;
    let mut ck = ConvexChecker::new(&g);
    for st in &plan.stages {
        assert!(st.mem_bytes <= cluster.device.memory_bytes);
        assert!(ck.is_convex(&st.set));
    }
}

/// Mixed precision gives the expected speedup band (paper's Fig. 4 shows
/// ~3-4x between RaNNC fp32 and mixed on V100 tensor cores).
#[test]
fn mixed_precision_speedup_band() {
    let cfg = BertConfig::enlarged(1024, 24);
    let g = bert_graph(&cfg);
    let cluster = ClusterSpec::v100_cluster(4);
    let plan32 = Rannc::new(PartitionConfig::new(256).with_k(16))
        .partition(&g, &cluster)
        .unwrap();
    let plan16 = Rannc::new(
        PartitionConfig::new(256)
            .with_k(16)
            .with_precision(Precision::Mixed),
    )
    .partition(&g, &cluster)
    .unwrap();
    let p32 = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
    let p16 = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::mixed());
    let t32 = rannc::pipeline::simulate_plan(&plan32, &p32, &cluster)
        .expect("valid plan")
        .throughput;
    let t16 = rannc::pipeline::simulate_plan(&plan16, &p16, &cluster)
        .expect("valid plan")
        .throughput;
    let ratio = t16 / t32;
    assert!((1.5..6.0).contains(&ratio), "mixed/fp32 ratio = {ratio:.2}");
}
