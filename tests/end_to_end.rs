//! End-to-end integration tests: unmodified model description → partition
//! plan → simulated training, across model families and cluster shapes.

use rannc::prelude::*;

/// Partition + simulate, returning (plan, throughput).
fn run(g: &TaskGraph, cluster: &ClusterSpec, batch: usize, k: usize) -> (PartitionPlan, f64) {
    let plan = Rannc::new(PartitionConfig::new(batch).with_k(k))
        .partition(g, cluster)
        .expect("feasible");
    let profiler = Profiler::new(g, cluster.device.clone(), ProfilerOptions::fp32());
    let sim = rannc::pipeline::simulate_plan(&plan, &profiler, cluster).expect("valid plan");
    (plan, sim.throughput)
}

#[test]
fn bert_on_one_node() {
    let g = bert_graph(&BertConfig::tiny());
    let cluster = ClusterSpec::v100_cluster(1);
    let (plan, thr) = run(&g, &cluster, 64, 8);
    assert!(thr > 0.0);
    assert!(plan.total_devices() <= 8);
}

#[test]
fn gpt_on_two_nodes() {
    let g = gpt_graph(&GptConfig::tiny());
    let cluster = ClusterSpec::v100_cluster(2);
    let (plan, thr) = run(&g, &cluster, 64, 8);
    assert!(thr > 0.0);
    assert!(plan.total_devices() <= 16);
}

#[test]
fn t5_encoder_decoder_on_one_node() {
    // T5's cross-attention edges make the graph non-chain: every decoder
    // layer reads the encoder output. Stages must still be convex and the
    // encoder memory must flow forward through stage boundaries.
    let g = t5_graph(&T5Config::tiny());
    let cluster = ClusterSpec::v100_cluster(1);
    let (plan, thr) = run(&g, &cluster, 64, 8);
    assert!(thr > 0.0);
    use rannc::graph::convex::ConvexChecker;
    let mut ck = ConvexChecker::new(&g);
    for st in &plan.stages {
        assert!(ck.is_convex(&st.set), "non-convex T5 stage");
    }
}

#[test]
fn resnet_on_one_node() {
    let g = resnet_graph(&ResNetConfig::tiny());
    let cluster = ClusterSpec::v100_cluster(1);
    let (_, thr) = run(&g, &cluster, 128, 8);
    assert!(thr > 0.0);
}

#[test]
fn memory_pressure_forces_more_stages() {
    // the same model on shrinking devices needs more stages; the plan must
    // always respect the device memory bound
    let g = bert_graph(&BertConfig::enlarged(256, 8));
    let mut last_stages = 0usize;
    for gib_times_4 in [128usize, 10, 7] {
        let mem = (gib_times_4 << 30) / 4 + (1 << 30); // overhead + shrinking budget
        let mut cluster = ClusterSpec::v100_cluster(1);
        cluster.device = cluster.device.with_memory(mem);
        let plan = Rannc::new(PartitionConfig::new(32).with_k(8))
            .partition(&g, &cluster)
            .expect("feasible");
        for st in &plan.stages {
            assert!(st.mem_bytes <= mem, "stage over budget");
        }
        assert!(
            plan.stages.len() >= last_stages,
            "smaller memory should not reduce stage count"
        );
        last_stages = plan.stages.len();
    }
    assert!(last_stages >= 2, "tightest budget should force a split");
}

#[test]
fn mixed_precision_plan_is_faster() {
    let g = bert_graph(&BertConfig::enlarged(128, 4));
    let cluster = ClusterSpec::v100_cluster(1);
    let thr = |precision| {
        let plan = Rannc::new(PartitionConfig::new(64).with_k(8).with_precision(precision))
            .partition(&g, &cluster)
            .unwrap();
        let opts = match precision {
            Precision::FP32 => ProfilerOptions::fp32(),
            Precision::Mixed => ProfilerOptions::mixed(),
        };
        let profiler = Profiler::new(&g, cluster.device.clone(), opts);
        rannc::pipeline::simulate_plan(&plan, &profiler, &cluster)
            .expect("valid plan")
            .throughput
    };
    assert!(thr(Precision::Mixed) > thr(Precision::FP32));
}

#[test]
fn plan_is_robust_to_profiling_noise() {
    // with 10% measurement jitter the partitioner must still produce a
    // valid plan whose simulated throughput is in the same ballpark
    let g = bert_graph(&BertConfig::tiny());
    let cluster = ClusterSpec::v100_cluster(1);
    let clean = Rannc::new(PartitionConfig::new(64).with_k(8))
        .partition(&g, &cluster)
        .unwrap();
    let noisy = Rannc::new(PartitionConfig::new(64).with_k(8).with_noise(0.1, 7))
        .partition(&g, &cluster)
        .unwrap();
    let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
    let t_clean = rannc::pipeline::simulate_plan(&clean, &profiler, &cluster)
        .expect("valid plan")
        .throughput;
    let t_noisy = rannc::pipeline::simulate_plan(&noisy, &profiler, &cluster)
        .expect("valid plan")
        .throughput;
    let ratio = t_noisy / t_clean;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "noise destabilized plan: {ratio}"
    );
}

#[test]
fn device_assignment_covers_plan() {
    let g = bert_graph(&BertConfig::tiny());
    let cluster = ClusterSpec::v100_cluster(2);
    let (plan, _) = run(&g, &cluster, 64, 8);
    let asg = plan.device_assignment(&cluster).unwrap();
    let mut used = std::collections::HashSet::new();
    for replica in &asg {
        for stage_ranks in replica {
            for &r in stage_ranks {
                assert!(r < cluster.total_devices());
                assert!(used.insert(r), "device {r} double-booked");
            }
        }
    }
    assert_eq!(used.len(), plan.total_devices());
}

#[test]
fn plan_summary_is_stable() {
    let g = bert_graph(&BertConfig::tiny());
    let cluster = ClusterSpec::v100_cluster(1);
    let (plan_a, _) = run(&g, &cluster, 64, 8);
    let (plan_b, _) = run(&g, &cluster, 64, 8);
    // the whole pipeline is deterministic: identical runs, identical plans
    assert_eq!(plan_a.summary(), plan_b.summary());
}

/// The third parallelism axis in the Megatron regime: a wide 4-layer
/// BERT on one 8-GPU node at mini-batch 4, so data parallelism alone
/// cannot occupy the node. Planned under `VerifyMode::Certify` (the
/// RV07x tensor-parallel checks and the memory certificate) at
/// `tp_max` 1 and 4, the 3D sweep must shard a stage (`T > 1`) and its
/// fill–drain iteration must simulate strictly faster than the best 2D
/// plan's.
#[test]
fn tensor_parallel_plan_beats_the_best_2d_plan() {
    use rannc::core::VerifyMode;
    use rannc::pipeline::{simulate_sync, spec_from_plan, SyncSchedule};
    let g = bert_graph(&BertConfig::enlarged(1024, 4));
    let cluster = ClusterSpec::v100_cluster(1);
    let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
    let plan_at = |tp_max: usize| {
        let cfg = PartitionConfig::new(4)
            .with_k(8)
            .with_verify(VerifyMode::Certify)
            .with_tp_max(tp_max);
        let plan = Rannc::new(cfg)
            .partition(&g, &cluster)
            .unwrap_or_else(|e| panic!("tp_max {tp_max}: {e}"));
        let spec = spec_from_plan(&plan, &profiler, &cluster).expect("valid pipeline spec");
        let iteration = simulate_sync(&spec, SyncSchedule::FillDrain, false)
            .result
            .iteration_time;
        (plan, iteration)
    };
    let (_, t2d) = plan_at(1);
    let (plan, t3d) = plan_at(4);
    let degrees: Vec<usize> = plan.stages.iter().map(|s| s.tensor_parallel).collect();
    assert!(
        degrees.iter().any(|&t| t > 1),
        "the 3D sweep never chose T > 1: {degrees:?}"
    );
    assert!(
        t3d < t2d,
        "3D plan simulates at {:.3} ms, not faster than the best 2D plan's {:.3} ms",
        t3d * 1e3,
        t2d * 1e3
    );
}
