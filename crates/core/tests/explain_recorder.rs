//! Flight-recorder contract tests for the stage-level search:
//!
//! - the recorder is plan-preserving (bit-identical plans on vs. off);
//! - a disabled recorder allocates nothing across a full partitioning;
//! - the explain artifact is byte-identical for 1/2/4 worker threads and
//!   validates under its own checker;
//! - a repartition replaces the recording with the degraded search;
//! - the strict decoder inverts the serializer on real 2D and 3D
//!   recordings.
//!
//! The recorder is process-global, so every test holds
//! `rannc_obs::trace::test_guard()` for its whole body.

use rannc_core::{PartitionConfig, PartitionPlan, Rannc, VerifyMode};
use rannc_hw::{ClusterSpec, DeviceRank};
use rannc_models::{bert_graph, mlp_graph, BertConfig, MlpConfig};
use rannc_obs::check::check_explain;
use rannc_obs::recorder::{self, CandidateOutcome, Recording};

fn quick_config(threads: usize) -> PartitionConfig {
    PartitionConfig::new(64)
        .with_k(8)
        .with_verify(VerifyMode::Off)
        .with_threads(threads)
}

fn assert_plans_bit_identical(a: &PartitionPlan, b: &PartitionPlan) {
    assert_eq!(a.stages.len(), b.stages.len());
    assert_eq!(a.microbatches, b.microbatches);
    assert_eq!(a.replica_factor, b.replica_factor);
    assert_eq!(a.bottleneck.to_bits(), b.bottleneck.to_bits());
    assert_eq!(
        a.est_iteration_time.to_bits(),
        b.est_iteration_time.to_bits()
    );
    for (sa, sb) in a.stages.iter().zip(&b.stages) {
        assert_eq!(sa.set, sb.set);
        assert_eq!(sa.replicas, sb.replicas);
        assert_eq!(sa.micro_batch, sb.micro_batch);
        assert_eq!(sa.fwd_time.to_bits(), sb.fwd_time.to_bits());
        assert_eq!(sa.bwd_time.to_bits(), sb.bwd_time.to_bits());
        assert_eq!(sa.mem_bytes, sb.mem_bytes);
        assert_eq!(sa.param_elems, sb.param_elems);
    }
}

#[test]
fn recorder_is_plan_preserving_and_free_while_disabled() {
    let _guard = rannc_obs::trace::test_guard();
    recorder::set_enabled(false);
    recorder::reset();
    let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
    let cluster = ClusterSpec::v100_cluster(2);
    let rannc = Rannc::new(quick_config(2));

    // disabled: a full partitioning must not touch the recorder heap
    let allocs_before = recorder::alloc_count();
    let plan_off = rannc.partition(&g, &cluster).unwrap();
    assert_eq!(
        recorder::alloc_count(),
        allocs_before,
        "disabled recorder allocated during partitioning"
    );
    assert!(recorder::take().is_none(), "disabled run left a recording");

    // enabled: same plan, bit for bit — recording must not perturb the
    // search (runtime pruning is swapped for the canonical replay)
    recorder::set_enabled(true);
    let plan_on = rannc.partition(&g, &cluster).unwrap();
    let rec = recorder::take().expect("enabled run records");
    recorder::set_enabled(false);
    assert_plans_bit_identical(&plan_off, &plan_on);

    // and the recording holds a winner whose shape matches the plan
    let winner = rec.winner.as_ref().expect("feasible search has a winner");
    assert_eq!(winner.stages.len(), plan_on.stages.len());
    assert_eq!(winner.microbatches, plan_on.microbatches);
    assert_eq!(
        winner.est_iteration_time.to_bits(),
        plan_on.est_iteration_time.to_bits()
    );
    let (candidates, feasible, _, _) = rec.totals();
    assert!(candidates > 0 && feasible > 0);
}

#[test]
fn artifact_is_byte_identical_across_thread_counts() {
    let _guard = rannc_obs::trace::test_guard();
    let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
    let cluster = ClusterSpec::v100_cluster(2);

    let mut artifacts = Vec::new();
    for threads in [1usize, 2, 4] {
        recorder::set_enabled(true);
        recorder::reset();
        Rannc::new(quick_config(threads))
            .partition(&g, &cluster)
            .unwrap();
        let rec = recorder::take().expect("recording");
        recorder::set_enabled(false);
        artifacts.push(recorder::to_json(&rec));
    }
    let summary = check_explain(&artifacts[0]).expect("artifact validates");
    assert!(summary.candidates > 0 && summary.winner_stages > 0);
    assert_eq!(artifacts[0], artifacts[1], "1 vs 2 threads");
    assert_eq!(artifacts[0], artifacts[2], "1 vs 4 threads");
}

#[test]
fn repartition_records_the_degraded_search() {
    let _guard = rannc_obs::trace::test_guard();
    recorder::set_enabled(false);
    let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
    let cluster = ClusterSpec::v100_cluster(2);
    let rannc = Rannc::new(quick_config(2));
    let plan = rannc.partition(&g, &cluster).unwrap();

    let degraded = cluster
        .without_device(DeviceRank { node: 0, local: 5 })
        .unwrap();
    recorder::set_enabled(true);
    recorder::reset();
    let replanned = rannc.repartition(&g, &plan, &degraded).unwrap();
    let rec = recorder::take().expect("repartition records");
    recorder::set_enabled(false);

    let text = recorder::to_json(&rec);
    let summary = check_explain(&text).expect("degraded artifact validates");
    assert!(summary.candidates > 0);
    // context reflects the degraded planning view, not the full cluster
    let ctx = rec.context.as_ref().expect("context");
    assert_eq!(ctx.total_devices, degraded.planning_view().total_devices());
    let winner = rec.winner.as_ref().expect("winner");
    assert_eq!(winner.stages.len(), replanned.stages.len());
}

#[test]
fn real_recordings_round_trip_through_the_decoder() {
    let _guard = rannc_obs::trace::test_guard();
    // Megatron regime (mini-batch 4 on one 8-GPU node), so the 3D sweep
    // records candidates with T > 1
    let g = bert_graph(&BertConfig::enlarged(1024, 4));
    let cluster = ClusterSpec::v100_cluster(1);
    for tp_max in [1usize, 4] {
        recorder::set_enabled(true);
        recorder::reset();
        Rannc::new(
            PartitionConfig::new(4)
                .with_k(8)
                .with_verify(VerifyMode::Off)
                .with_tp_max(tp_max),
        )
        .partition(&g, &cluster)
        .unwrap();
        let rec = recorder::take().expect("recording");
        recorder::set_enabled(false);
        let back = Recording::from_json(&recorder::to_json(&rec)).expect("artifact decodes");
        assert_eq!(
            back, rec,
            "tp_max {tp_max}: decode is not the inverse of to_json"
        );
        let max_tp = rec
            .tiers
            .iter()
            .flat_map(|t| &t.candidates)
            .filter(|c| matches!(c.outcome, CandidateOutcome::Feasible { .. }))
            .map(|c| c.tp)
            .max();
        assert_eq!(max_tp > Some(1), tp_max > 1, "tp_max {tp_max}: {max_tp:?}");
    }
}
