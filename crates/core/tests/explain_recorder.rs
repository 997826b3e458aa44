//! Explain-artifact contract tests for the stage-level search:
//!
//! - the artifact describes the plan `partition` returns, bit for bit;
//! - the explain artifact is byte-identical from run to run and
//!   validates under its own checker;
//! - an artifact lists every grid cell, each solved cell scored exactly
//!   like a fresh-arena DP of that cell and each bounded cell one whose
//!   fresh DP scores strictly above the winner's and at least its bound;
//! - the search counters do not depend on other searches running at once
//!   on other threads, each with its own cost model and arena spare list;
//! - searches of different models on three threads at once each explain
//!   their own search, byte for byte as on one thread;
//! - a repartition's artifact describes the degraded search;
//! - the strict decoder inverts the serializer on real 2D and 3D
//!   artifacts and on one with an accepted stage-cut refinement.
//!
//! An artifact is a value built from what the search returned
//! ([`Rannc::explain`]), so no test shares state with another.

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

fn quick_config() -> PartitionConfig {
    PartitionConfig::new(64)
        .with_k(8)
        .with_verify(VerifyMode::Off)
}

/// Partition `g` onto `cluster` and explain the search.
fn explained(rannc: &Rannc, g: &TaskGraph, cluster: &ClusterSpec) -> (PartitionPlan, Recording) {
    let (plan, stats) = rannc.partition_with_stats(g, cluster).unwrap();
    let rec = rannc.explain(g, cluster, &plan, &stats);
    (plan, rec)
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

/// The score a recording's winner must carry: the best feasible cell's,
/// or, when the refinement of that cell was accepted, the refined one.
fn winner_score(rec: &Recording) -> f64 {
    let best = rec
        .tiers
        .iter()
        .flat_map(|t| &t.candidates)
        .filter_map(|c| match c.outcome {
            CandidateOutcome::Feasible { score, .. } => Some(score),
            CandidateOutcome::Bounded { .. } | CandidateOutcome::Infeasible => None,
        })
        .fold(f64::INFINITY, f64::min);
    match &rec.refine {
        Some(r) => {
            assert_eq!(
                r.from_score.to_bits(),
                best.to_bits(),
                "refined another cell"
            );
            match r.to {
                Some((score, _)) if r.accepted => score,
                _ => best,
            }
        }
        None => best,
    }
}

#[test]
fn explained_plan_is_the_partitioned_plan() {
    let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
    let cluster = ClusterSpec::v100_cluster(2);
    let rannc = Rannc::new(quick_config());
    let plan = rannc.partition(&g, &cluster).unwrap();
    let (explained_plan, rec) = explained(&rannc, &g, &cluster);
    assert_plans_bit_identical(&plan, &explained_plan);

    // and the artifact holds a winner whose shape matches the plan
    let winner = rec.winner.as_ref().expect("feasible search has a winner");
    assert_eq!(winner.stages.len(), plan.stages.len());
    assert_eq!(winner.microbatches, plan.microbatches);
    assert_eq!(
        winner.est_iteration_time.to_bits(),
        plan.est_iteration_time.to_bits()
    );
    // the winner's score is rebuilt from the plan with the all-reduce
    // term the sweep scored cells with: it is the best cell's, bit for
    // bit, or the accepted stage-cut refinement's
    assert_eq!(winner.score.to_bits(), winner_score(&rec).to_bits());
    let (candidates, feasible, _, _) = rec.totals();
    assert!(candidates > 0 && feasible > 0);
}

#[test]
fn artifact_is_byte_identical_from_run_to_run() {
    let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
    let cluster = ClusterSpec::v100_cluster(2);

    let artifacts: Vec<String> = (0..2)
        .map(|_| recorder::to_json(&explained(&Rannc::new(quick_config()), &g, &cluster).1))
        .collect();
    let summary = check_explain(&artifacts[0]).expect("artifact validates");
    assert!(summary.candidates > 0 && summary.winner_stages > 0);
    assert_eq!(artifacts[0], artifacts[1], "first vs second run");
}

#[test]
fn repartition_records_the_degraded_search() {
    let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
    let cluster = ClusterSpec::v100_cluster(2);
    let rannc = Rannc::new(quick_config());
    let plan = rannc.partition(&g, &cluster).unwrap();

    let degraded = cluster
        .without_device(DeviceRank { node: 0, local: 5 })
        .unwrap();
    let (replanned, stats) = rannc.repartition_with_stats(&g, &plan, &degraded).unwrap();
    let view = degraded.planning_view();
    let rec = rannc.explain(&g, &view, &replanned, &stats);

    let text = recorder::to_json(&rec);
    let summary = check_explain(&text).expect("degraded artifact validates");
    assert!(summary.candidates > 0);
    // context reflects the degraded planning view, not the full cluster
    assert_eq!(rec.context.total_devices, view.total_devices());
    let winner = rec.winner.as_ref().expect("winner");
    assert_eq!(winner.stages.len(), replanned.stages.len());
}

/// A recording whose stage-cut refinement was accepted (BERT 1024×24 on
/// 4×8 V100, batch 256, the Fig. 4 setting) round-trips through the
/// decoder with its refine record, and its winner carries the refined
/// score.
#[test]
fn refined_recording_round_trips_through_the_decoder() {
    let g = bert_graph(&BertConfig::enlarged(1024, 24));
    let cluster = ClusterSpec::v100_cluster(4);
    let rannc = Rannc::new(PartitionConfig::new(256).with_verify(VerifyMode::Off));
    let (plan, rec) = explained(&rannc, &g, &cluster);
    let refine = rec.refine.as_ref().expect("the refinement ran");
    assert!(refine.accepted, "the Fig. 4 cell keeps its block cuts");
    let (score, bottleneck) = refine.to.expect("the re-cut stages were priced");
    assert!(score < refine.from_score && bottleneck < refine.from_bottleneck);
    assert_eq!(bottleneck.to_bits(), plan.bottleneck.to_bits());
    let winner = rec.winner.as_ref().expect("winner");
    assert_eq!(winner.score.to_bits(), winner_score(&rec).to_bits());
    let text = recorder::to_json(&rec);
    let back = Recording::from_json(&text).expect("artifact decodes");
    assert_eq!(back, rec, "decode is not the inverse of to_json");
    check_explain(&text).expect("artifact passes its validator");
    let shown = rannc_obs::explain::render(&text, 3).expect("renders");
    assert!(shown.contains("stage cuts refined: bottleneck"), "{shown}");
}

#[test]
fn real_recordings_round_trip_through_the_decoder() {
    // Megatron regime (mini-batch 4 on one 8-GPU node), so the 3D sweep
    // records candidates with T > 1
    let g = bert_graph(&BertConfig::enlarged(1024, 4));
    let cluster = ClusterSpec::v100_cluster(1);
    for tp_max in [1usize, 4] {
        let rannc = Rannc::new(
            PartitionConfig::new(4)
                .with_k(8)
                .with_verify(VerifyMode::Off)
                .with_tp_max(tp_max),
        );
        let (_, rec) = explained(&rannc, &g, &cluster);
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
    let (g, cluster) = explain_case();
    let blocks = blocks_of(&g, &cluster);
    let rannc = Rannc::new(
        PartitionConfig::new(EXPLAIN_BATCH)
            .with_k(8)
            .with_verify(VerifyMode::Off),
    );
    let (plan, stats) = rannc.partition_with_stats(&g, &cluster).unwrap();
    assert!(stats.search.bounded > 0, "the explain config bounds a cell");
    let rec = rannc.explain(&g, &cluster, &plan, &stats);
    let best = (rec.tiers.iter().flat_map(|t| &t.candidates))
        .filter_map(|c| match c.outcome {
            CandidateOutcome::Feasible { score, .. } => Some(score),
            _ => None,
        })
        .fold(f64::INFINITY, f64::min);

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
                (
                    CandidateOutcome::Feasible {
                        score,
                        bottleneck,
                        bound,
                    },
                    Some(s),
                ) => {
                    let want_score = score_solution(s, &cluster, &fresh);
                    assert_eq!(score.to_bits(), want_score.to_bits(), "{cell}: score");
                    assert_eq!(
                        bottleneck.to_bits(),
                        s.value.to_bits(),
                        "{cell}: bottleneck"
                    );
                    assert!(bound <= score, "{cell}: bound {bound} > score {score}");
                }
                (CandidateOutcome::Bounded { bound }, sol) => {
                    let fresh_score = sol
                        .as_ref()
                        .map_or(f64::INFINITY, |s| score_solution(s, &cluster, &fresh));
                    assert!(fresh_score > best, "{cell}: skipped, scores {fresh_score}");
                    assert!(fresh_score >= *bound, "{cell}: scores below bound {bound}");
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
fn search_counters_do_not_depend_on_threads() {
    let (g, cluster) = explain_case();
    let blocks = blocks_of(&g, &cluster);
    // the cells settled each way, the stage evaluations and memo hits of
    // the DP arenas, and the blocks' time-slot fills and reads: every
    // search does the same work
    let search = || {
        let cost = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
        let opts = SearchOptions { tp_max: 1 };
        let (_, stats) = form_stage_with(&g, &cost, &blocks, &cluster, EXPLAIN_BATCH, &opts);
        (
            (
                stats.candidates,
                stats.feasible,
                stats.pruned,
                stats.bounded,
            ),
            stats.node_tiers,
            stats.stage_cache.misses,
            stats.stage_cache.hits,
            cost.cache_stats().misses,
            cost.cache_stats().hits,
        )
    };
    let mut seen = vec![("calling thread".to_string(), search())];
    // three searches at once, each on its own thread's arena spare list
    let start = std::sync::Barrier::new(3);
    std::thread::scope(|scope| {
        let runs: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    search()
                })
            })
            .collect();
        for (i, run) in runs.into_iter().enumerate() {
            seen.push((format!("thread {i}"), run.join().expect("a search thread")));
        }
    });
    let first = seen[0].1;
    assert!(first.0 .1 > 0, "the explain config is feasible");
    for (what, work) in &seen {
        assert_eq!(*work, first, "{what}");
    }
}

/// Three different models planned and explained at once, one per
/// thread: each artifact is its own search's, byte for byte the artifact
/// of that search run alone.
#[test]
fn concurrent_searches_each_explain_their_own() {
    let cases = [
        (mlp_graph(&MlpConfig::deep(64, 64, 8, 10)), 2),
        (bert_graph(&BertConfig::enlarged(256, 4)), 2),
        (bert_graph(&BertConfig::tiny()), 1),
    ];
    let artifact = |(g, nodes): &(TaskGraph, usize)| {
        let cluster = ClusterSpec::v100_cluster(*nodes);
        recorder::to_json(&explained(&Rannc::new(quick_config()), g, &cluster).1)
    };
    let alone: Vec<String> = cases.iter().map(artifact).collect();
    let start = std::sync::Barrier::new(cases.len());
    let together: Vec<String> = std::thread::scope(|scope| {
        let runs: Vec<_> = (cases.iter())
            .map(|case| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    artifact(case)
                })
            })
            .collect();
        (runs.into_iter())
            .map(|run| run.join().expect("an explaining thread"))
            .collect()
    });
    for ((g, _), (a, b)) in cases.iter().zip(alone.iter().zip(&together)) {
        check_explain(a).expect("artifact validates");
        assert!(a == b, "{}: the concurrent artifact differs", g.name);
    }
    assert!(
        alone[0] != alone[1] && alone[1] != alone[2],
        "the models' artifacts are distinct"
    );
}
