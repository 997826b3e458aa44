//! Properties of Algorithm 2's stage-cut refinement, on the settings the
//! reproduction reports: the Fig. 4 grid (enlarged BERT on 4×8 V100,
//! batch 256, FP32 and mixed precision), the bert256-d128 setting (BERT
//! 2048×256 on 16×8 V100, batch 1024) and the warm replans of the first
//! 50 events of the seed-7 churn trace on that setting.
//!
//! For every search, the plan `form_stage_with` returns:
//!
//! - keeps the tier scan winner's `(S, MB, T, R)`;
//! - scores no worse than the winner;
//! - passes `verify_plan` and `PartitionPlan::certify` under the
//!   fill–drain schedule it runs with no error (a warning such as RV042's
//!   dropped micro-batch remainder belongs to the winner's shape);
//! - is bit-identical from run to run.
//!
//! The default run covers the small Fig. 4 cells and three churn events
//! on BERT 1024×24; `scripts/check.sh` runs the full grid in release mode
//! (`-- --ignored`).

use rannc_core::search::score_solution;
use rannc_core::{
    atomic_partition, block_partition, form_stage_with, scan_first_feasible_tier, Block,
    BlockLimits, DpSolution, PartitionConfig, PartitionPlan, Rannc, SearchOptions,
};
use rannc_faults::ClusterEventTrace;
use rannc_graph::TaskGraph;
use rannc_hw::{ClusterSpec, Precision};
use rannc_models::{bert_graph, BertConfig};
use rannc_profile::{Profiler, ProfilerOptions};
use rannc_verify::ScheduleModel;

/// Fig. 4's hidden sizes and layer counts.
const FIG4_HIDDEN: [usize; 3] = [1024, 1536, 2048];
const FIG4_LAYERS: [usize; 6] = [24, 48, 96, 144, 192, 256];

fn options(precision: Precision) -> ProfilerOptions {
    ProfilerOptions {
        precision,
        ..ProfilerOptions::fp32()
    }
}

/// The request's blocks: the block phase at `k = 32`.
fn cold_blocks(g: &TaskGraph, cost: &Profiler<'_>, cluster: &ClusterSpec) -> Vec<Block> {
    let limits = BlockLimits::for_request(&PartitionConfig::new(1), cluster);
    block_partition(g, cost, &atomic_partition(g), limits)
}

/// Field-by-field equality, floats by bit pattern.
fn assert_identical(a: &DpSolution, b: &DpSolution, label: &str) {
    assert_eq!(a.value.to_bits(), b.value.to_bits(), "{label}: value");
    assert_eq!(
        (a.microbatches, a.replica_factor, a.stages.len()),
        (b.microbatches, b.replica_factor, b.stages.len()),
        "{label}: shape"
    );
    for (i, (x, y)) in a.stages.iter().zip(&b.stages).enumerate() {
        assert_eq!(x.set, y.set, "{label}: stage {i} set");
        assert_eq!(x.block_range, y.block_range, "{label}: stage {i} range");
        assert_eq!(
            (x.devices, x.tensor_parallel, x.micro_batch),
            (y.devices, y.tensor_parallel, y.micro_batch),
            "{label}: stage {i} placement"
        );
        assert_eq!(
            x.fwd_time.to_bits(),
            y.fwd_time.to_bits(),
            "{label}: {i} fwd"
        );
        assert_eq!(
            x.bwd_time.to_bits(),
            y.bwd_time.to_bits(),
            "{label}: {i} bwd"
        );
        assert_eq!(
            (x.mem_bytes, x.param_elems),
            (y.mem_bytes, y.param_elems),
            "{label}: stage {i} memory"
        );
    }
}

/// Check every property on one search over `blocks`. Returns whether the
/// refinement moved the plan, or `None` when the blocks admit no plan.
fn check_refinement(
    label: &str,
    g: &TaskGraph,
    cost: &Profiler<'_>,
    blocks: &[Block],
    cluster: &ClusterSpec,
    batch_size: usize,
) -> Option<bool> {
    let opts = SearchOptions { tp_max: 1 };
    let scan = scan_first_feasible_tier(g, cost, blocks, cluster, batch_size, &opts).0?;
    let cell = &scan.cells[scan.winner.expect("a feasible tier has a winner")];
    let (score, winner) = cell.solved().expect("the winner is feasible");
    let plan = form_stage_with(g, cost, blocks, cluster, batch_size, &opts)
        .0
        .expect("the winner's tier is feasible");

    // the winner's (S, MB, T, R)
    assert_eq!(plan.stages.len(), cell.params.stages, "{label}: S");
    assert_eq!(plan.microbatches, cell.params.microbatches, "{label}: MB");
    assert_eq!(
        plan.replica_factor, cell.params.replica_factor,
        "{label}: R"
    );
    for (i, st) in plan.stages.iter().enumerate() {
        assert_eq!(st.tensor_parallel, cell.params.tp, "{label}: stage {i} T");
    }
    assert_eq!(
        plan.devices_per_replica(),
        winner.devices_per_replica(),
        "{label}: devices"
    );
    // no worse than the winner
    let refined = score_solution(&plan, cluster, cost);
    assert!(refined <= score, "{label}: score {refined} > {score}");

    // verified and certified
    let p = PartitionPlan::from_solution(g.name.clone(), &plan, batch_size);
    let report = rannc_verify::verify_plan(g, &p.view(), cluster);
    assert!(!report.has_errors(), "{label}: {}", report.render());
    let schedule = ScheduleModel::fill_drain(p.stages.len(), p.microbatches);
    let precision = cost.options().precision;
    let (deep, certified) = p
        .certify(g, cluster, &schedule, precision)
        .unwrap_or_else(|e| panic!("{label}: plan cannot be placed: {e}"));
    assert!(!deep.has_errors(), "{label}: {}", deep.render());
    assert_eq!(certified.len(), p.stages.len(), "{label}: certified stages");

    // the same from run to run
    let again = form_stage_with(g, cost, blocks, cluster, batch_size, &opts)
        .0
        .expect("feasible");
    assert_identical(&plan, &again, &format!("{label} again"));
    Some(refined < score)
}

/// Fig. 4 cells `hidden × layers` in both precisions; returns how many
/// refinements moved a plan.
fn fig4_cells(cells: &[(usize, usize)]) -> usize {
    let cluster = ClusterSpec::v100_cluster(4);
    let mut moved = 0;
    for &(hidden, layers) in cells {
        let g = bert_graph(&BertConfig::enlarged(hidden, layers));
        for precision in [Precision::FP32, Precision::Mixed] {
            let label = format!("fig4 {hidden}x{layers} {precision:?}");
            let cost = Profiler::new(&g, cluster.device.clone(), options(precision));
            let blocks = cold_blocks(&g, &cost, &cluster);
            let refined = check_refinement(&label, &g, &cost, &blocks, &cluster, 256);
            moved += usize::from(refined.unwrap_or_else(|| panic!("{label}: infeasible")));
        }
    }
    moved
}

/// The warm replans of the first `events` events of the seed-7 churn
/// trace, planned by `replan_with_backoff` as the churn benchmark does.
/// Each event's warm-start search is checked on the old plan's stages;
/// when they admit no plan, the cold search on the planning view is.
fn churn_events(g: &TaskGraph, base: &ClusterSpec, batch_size: usize, events: usize) -> usize {
    let rannc = Rannc::new(PartitionConfig::new(batch_size));
    let mut plan = rannc.partition(g, base).expect("the seed plan");
    let mut cluster = base.clone();
    let trace = ClusterEventTrace::generate(7, events, base, 1500);
    let mut moved = 0;
    for (i, te) in trace.events().iter().enumerate() {
        cluster = te.event.apply(&cluster).expect("a generated event applies");
        let view = cluster.planning_view();
        let cost = Profiler::new(g, view.device.clone(), options(Precision::FP32));
        let label = format!("churn event {i} ({})", te.event.kind());
        let warm: Vec<Block> = (plan.stages.iter())
            .map(|s| Block {
                set: s.set.clone(),
                time: 0.0,
                mem: 0,
            })
            .collect();
        let refined = check_refinement(&label, g, &cost, &warm, &view, batch_size)
            .or_else(|| {
                let blocks = cold_blocks(g, &cost, &view);
                check_refinement(&label, g, &cost, &blocks, &view, batch_size)
            })
            .unwrap_or_else(|| panic!("{label}: infeasible"));
        moved += usize::from(refined);
        plan = rannc
            .replan_with_backoff(g, &plan, &cluster, 2)
            .unwrap_or_else(|e| panic!("{label}: replan failed: {e}"))
            .plan;
    }
    moved
}

/// The small Fig. 4 cells, where the refinement moves the FP32 plans.
#[test]
fn refined_fig4_small_cells_keep_the_winners_shape_and_certify() {
    let moved = fig4_cells(&[(1024, 24), (1024, 48)]);
    assert!(
        moved > 0,
        "no refinement was accepted: the cells test no re-cut"
    );
}

/// Three churn events on BERT 1024×24 over 4×8 V100.
#[test]
fn refined_churn_replans_keep_the_winners_shape_and_certify() {
    let g = bert_graph(&BertConfig::enlarged(1024, 24));
    churn_events(&g, &ClusterSpec::v100_cluster(4), 256, 3);
}

/// The full grid: all 18 Fig. 4 cells in both precisions, the
/// bert256-d128 setting, and the first 50 churn events on it.
#[test]
#[ignore = "paper scale: run in release mode from scripts/check.sh"]
fn refined_plans_at_paper_scale_keep_the_winners_shape_and_certify() {
    let cells: Vec<(usize, usize)> = FIG4_HIDDEN
        .iter()
        .flat_map(|&h| FIG4_LAYERS.map(|l| (h, l)))
        .collect();
    let moved = fig4_cells(&cells);
    assert!(moved >= 8, "only {moved} Fig. 4 plans moved");

    let g = bert_graph(&BertConfig::enlarged(2048, 256));
    let cluster = ClusterSpec::v100_cluster(16);
    let cost = Profiler::new(&g, cluster.device.clone(), options(Precision::FP32));
    let blocks = cold_blocks(&g, &cost, &cluster);
    let moved = check_refinement("bert256-d128", &g, &cost, &blocks, &cluster, 1024);
    assert_eq!(moved, Some(true), "bert256-d128 kept its block cuts");

    churn_events(&g, &cluster, 1024, 50);
}
