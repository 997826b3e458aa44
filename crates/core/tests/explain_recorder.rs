//! Flight-recorder contract tests for the stage-level search:
//!
//! - the recorder is plan-preserving (bit-identical plans on vs. off);
//! - a disabled recorder allocates nothing across a full partitioning;
//! - the explain artifact is byte-identical for 1/2/4 worker threads and
//!   validates under its own checker;
//! - a recording lists every grid cell, each scored exactly like a
//!   fresh-arena DP of that cell;
//! - the search counters do not depend on the thread count or on the
//!   recorder;
//! - a repartition replaces the recording with the degraded search;
//! - the strict decoder inverts the serializer on real 2D and 3D
//!   recordings.
//!
//! The recorder is process-global, so every test holds
//! `rannc_obs::trace::test_guard()` for its whole body.

mod support;

use rannc_core::search::score_solution;
use rannc_core::{
    atomic_partition, block_partition, form_stage_with, Block, BlockLimits, PartitionConfig,
    PartitionPlan, Rannc, SearchOptions, VerifyMode,
};
use rannc_graph::TaskGraph;
use rannc_hw::{ClusterSpec, DeviceRank};
use rannc_models::{bert_graph, mlp_graph, BertConfig, MlpConfig};
use rannc_obs::check::check_explain;
use rannc_obs::recorder::{self, CandidateOutcome, Recording};
use rannc_profile::{Profiler, ProfilerOptions};
use support::exhaustive_cells;

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
    // search
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
    // the winner's score is rebuilt from the plan with the all-reduce
    // term the sweep scored cells with: it is the best cell's, bit for bit
    let best = rec
        .tiers
        .iter()
        .flat_map(|t| &t.candidates)
        .filter_map(|c| match c.outcome {
            CandidateOutcome::Feasible { score, .. } => Some(score),
            CandidateOutcome::Infeasible => None,
        })
        .fold(f64::INFINITY, f64::min);
    assert_eq!(winner.score.to_bits(), best.to_bits());
    let (candidates, feasible, _) = rec.totals();
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

/// The `scripts/check.sh` explain config: BERT 256×4 on 2 nodes, batch
/// 64, k 8. The block phase mirrors `Rannc::partition`'s defaults.
const EXPLAIN_BATCH: usize = 64;

fn explain_case() -> (TaskGraph, ClusterSpec) {
    (
        bert_graph(&BertConfig::enlarged(256, 4)),
        ClusterSpec::v100_cluster(2),
    )
}

fn blocks_of(g: &TaskGraph, cluster: &ClusterSpec) -> Vec<Block> {
    let profiler = Profiler::new(g, cluster.device.clone(), ProfilerOptions::fp32());
    block_partition(
        g,
        &profiler,
        &atomic_partition(g),
        BlockLimits {
            k: 8,
            mem_limit: cluster.device.memory_bytes,
            profile_batch: 1,
        },
    )
}

#[test]
fn recording_lists_every_grid_cell_with_its_fresh_dp_score() {
    let _guard = rannc_obs::trace::test_guard();
    let (g, cluster) = explain_case();
    let blocks = blocks_of(&g, &cluster);
    let cost = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
    recorder::set_enabled(true);
    recorder::reset();
    let opts = SearchOptions {
        threads: 2,
        tp_max: 1,
    };
    let (sol, _) = form_stage_with(&g, &cost, &blocks, &cluster, EXPLAIN_BATCH, &opts);
    let rec = recorder::take().expect("recording");
    recorder::set_enabled(false);
    assert!(sol.is_some(), "the explain config is feasible");

    let fresh = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
    let reference = exhaustive_cells(&g, &fresh, &blocks, &cluster, EXPLAIN_BATCH, 1);
    assert_eq!(rec.tiers.len(), reference.len(), "node tiers");
    for (tier, want) in rec.tiers.iter().zip(&reference) {
        assert_eq!(tier.n, want.n);
        assert_eq!(tier.candidates.len(), want.cells.len(), "tier n={}", want.n);
        for (c, (p, sol)) in tier.candidates.iter().zip(&want.cells) {
            let cell = format!(
                "n={} S={} MB={} T={}",
                want.n, p.stages, p.microbatches, p.tp
            );
            assert_eq!(
                (c.stages, c.microbatches, c.tp),
                (p.stages, p.microbatches, p.tp),
                "{cell}: grid order"
            );
            match (&c.outcome, sol) {
                (CandidateOutcome::Feasible { score, bottleneck }, Some(s)) => {
                    let want_score = score_solution(s, &cluster, &fresh);
                    assert_eq!(score.to_bits(), want_score.to_bits(), "{cell}: score");
                    assert_eq!(
                        bottleneck.to_bits(),
                        s.value.to_bits(),
                        "{cell}: bottleneck"
                    );
                }
                (CandidateOutcome::Infeasible, None) => {}
                (outcome, sol) => panic!(
                    "{cell}: recorded {outcome:?}, fresh DP feasible: {}",
                    sol.is_some()
                ),
            }
        }
    }
}

#[test]
fn search_counters_do_not_depend_on_threads_or_the_recorder() {
    let _guard = rannc_obs::trace::test_guard();
    let (g, cluster) = explain_case();
    let blocks = blocks_of(&g, &cluster);
    let mut seen = Vec::new();
    for recording in [false, true] {
        for threads in [1usize, 2, 4] {
            recorder::set_enabled(recording);
            recorder::reset();
            let cost = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
            let opts = SearchOptions { threads, tp_max: 1 };
            let (_, stats) = form_stage_with(&g, &cost, &blocks, &cluster, EXPLAIN_BATCH, &opts);
            recorder::set_enabled(false);
            recorder::reset();
            // the stage evaluations and memo hits of the DP arenas, and
            // the blocks' time-slot fills and reads: every run does the same work
            let work = (
                stats.candidates,
                stats.feasible,
                stats.node_tiers,
                stats.stage_cache.misses,
                stats.stage_cache.hits,
                cost.cache_stats().misses,
                cost.cache_stats().hits,
            );
            seen.push((recording, threads, work));
        }
    }
    let (_, _, first) = seen[0];
    assert!(first.1 > 0, "the explain config is feasible");
    for &(recording, threads, work) in &seen {
        assert_eq!(work, first, "recorder {recording}, {threads} thread(s)");
    }
}
