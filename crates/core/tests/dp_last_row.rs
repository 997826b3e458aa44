//! Algorithm 1's last row solves one cell: the answer `(S, nb, D)`. The
//! paper's `d_min` pruning also runs the row's other cells `(S, b < nb,
//! D)`, and where one of them finds no memory-feasible predecessor it
//! makes the candidate INFEASIBLE, although a split into `S` stages that
//! fit may exist. The engine runs no such cell, so it returns that split.
//! These tests hold the engine to the reference, which solves the same
//! one cell, on a grid of small DPs, and pin one instance the paper's
//! pruning would call INFEASIBLE.

#[path = "support/mod.rs"]
mod support;

use rannc_core::{
    form_stage_dp, proven_infeasible, DpArena, DpCtx, DpParams, DpSolution, RangeTable, SlotTable,
};
use rannc_graph::TaskGraph;
use rannc_hw::{ClusterSpec, DeviceSpec};
use rannc_models::{
    bert_graph, mlp_graph, resnet_graph, BertConfig, MlpConfig, ResNetConfig, ResNetDepth,
};
use rannc_profile::{Profiler, ProfilerOptions};
use support::{blocks_of, form_stage_dp_hashmap, stage_mem_span};

/// Memory bounds per `(graph, k, BS)`, spread evenly over the span of its
/// stages' memory.
const MEM_STEPS: usize = 40;

/// Whether two DP answers agree bit for bit: feasibility, objective,
/// and every stage's cut, devices and price.
fn identical(a: &Option<DpSolution>, b: &Option<DpSolution>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.value.to_bits() == b.value.to_bits()
                && a.stages.len() == b.stages.len()
                && a.stages.iter().zip(&b.stages).all(|(x, y)| {
                    x.block_range == y.block_range
                        && x.devices == y.devices
                        && x.micro_batch == y.micro_batch
                        && x.fwd_time.to_bits() == y.fwd_time.to_bits()
                        && x.bwd_time.to_bits() == y.bwd_time.to_bits()
                        && x.mem_bytes == y.mem_bytes
                        && x.param_elems == y.param_elems
                })
        }
        _ => false,
    }
}

/// Every DP of `g`'s blocks at `k` on one V100 node (pruning on): `BS`
/// 8–128, [`MEM_STEPS`] memory bounds over the stages' memory span at
/// that `BS`, `MB` 1–8, `D` 2–8 and `S` 2..=D (up to the block count),
/// `R = 1`, `T = 1`, through one reused arena against the reference.
/// Returns the DPs run and a description of each that differed.
fn sweep(name: &str, g: &TaskGraph, k: usize) -> (usize, Vec<String>) {
    let cluster = ClusterSpec::v100_cluster(1);
    let profiler = Profiler::new(g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
    let ranges = RangeTable::build(&profiler, &blocks_of(g, k));
    let nb = ranges.blocks();
    let precision = profiler.options().precision;
    let mut arena = DpArena::new();
    let (mut runs, mut diffs) = (0, Vec::new());
    for batch_size in [8, 16, 32, 64, 128] {
        let (lo, hi) = stage_mem_span(&profiler, &ranges, &cluster, batch_size);
        for step in 0..MEM_STEPS {
            let mem_limit = lo + (hi - lo) * step / (MEM_STEPS - 1);
            for microbatches in [1, 2, 4, 8] {
                for devices in 2..=8 {
                    let slots =
                        SlotTable::build(&cluster, devices, 1, profiler.device(), precision);
                    for stages in 2..=devices.min(nb) {
                        let p = DpParams {
                            stages,
                            devices,
                            batch_size,
                            replica_factor: 1,
                            microbatches,
                            mem_limit,
                            tp: 1,
                        };
                        let ctx = DpCtx::new(&profiler, &ranges, &cluster, &slots, &p);
                        let engine = form_stage_dp(&ctx, &mut arena);
                        let (reference, _) = form_stage_dp_hashmap(&ctx);
                        runs += 1;
                        if !identical(&engine, &reference) {
                            diffs.push(format!(
                                "{name} k={k} S={stages} D={devices} BS={batch_size} \
                                 MB={microbatches} mem step {step}: engine {}, reference {}",
                                feasibility(&engine),
                                feasibility(&reference),
                            ));
                        }
                    }
                }
            }
        }
    }
    (runs, diffs)
}

fn feasibility(sol: &Option<DpSolution>) -> &'static str {
    if sol.is_some() {
        "a plan"
    } else {
        "INFEASIBLE"
    }
}

/// MLP 16×3 at k = 6, S = 4 of D = 8, BS 32, MB 8, at memory bound
/// step 5 of 40: a last-row cell `(4, b < nb, 8)` has no memory-feasible
/// predecessor, so the paper's `d_min` pruning passes `D` and calls the
/// candidate INFEASIBLE, although a split of the blocks into 4 stages
/// that fit exists. The engine returns such a split: 4 stages on all 8
/// devices, each within the memory bound, in a cell the memory-only
/// bound does not prove.
#[test]
fn a_split_the_pruning_would_discard_is_a_plan() {
    let g = mlp_graph(&MlpConfig::deep(16, 16, 3, 4));
    let cluster = ClusterSpec::v100_cluster(1);
    let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
    let ranges = RangeTable::build(&profiler, &blocks_of(&g, 6));
    let batch_size = 32;
    let (lo, hi) = stage_mem_span(&profiler, &ranges, &cluster, batch_size);
    let p = DpParams {
        stages: 4,
        devices: 8,
        batch_size,
        replica_factor: 1,
        microbatches: 8,
        mem_limit: lo + (hi - lo) * 5 / (MEM_STEPS - 1),
        tp: 1,
    };
    let precision = profiler.options().precision;
    let slots = SlotTable::build(&cluster, p.devices, 1, profiler.device(), precision);
    let ctx = DpCtx::new(&profiler, &ranges, &cluster, &slots, &p);
    let (reference, _) = form_stage_dp_hashmap(&ctx);
    let engine = form_stage_dp(&ctx, &mut DpArena::new());
    assert!(
        identical(&engine, &reference),
        "engine and reference differ"
    );
    let sol = engine.expect("the engine found no plan");
    assert_eq!(sol.stages.len(), 4, "stage count");
    assert_eq!(sol.devices_per_replica(), 8, "the plan leaves devices idle");
    for (i, st) in sol.stages.iter().enumerate() {
        assert!(
            st.mem_bytes <= p.mem_limit,
            "stage {i} over the memory bound"
        );
    }
    assert_eq!(
        proven_infeasible(&profiler, &ranges, &[p]),
        [false],
        "the memory-only bound proves a cell with a plan"
    );
}

/// The small-DP sweep: MLP depths 3–9 × widths 16–64, BERT-tiny with 1–2
/// layers and ResNet-50 ×1, at k ∈ {4, 6, 8}, every DP of [`sweep`]. The
/// engine must match the reference on every one. Run by
/// `scripts/check.sh`.
#[test]
#[ignore = "1.7M DPs; run with --release -- --ignored"]
fn small_dp_sweep_matches_reference() {
    let mut graphs: Vec<(String, TaskGraph)> = Vec::new();
    for depth in 3..=9 {
        for width in [16, 32, 48, 64] {
            let g = mlp_graph(&MlpConfig::deep(width, width, depth, 4));
            graphs.push((format!("mlp {width}x{depth}"), g));
        }
    }
    for layers in 1..=2 {
        let g = bert_graph(&BertConfig {
            layers,
            ..BertConfig::tiny()
        });
        graphs.push((format!("bert-tiny x{layers}"), g));
    }
    let resnet = resnet_graph(&ResNetConfig::new(ResNetDepth::R50, 1));
    graphs.push(("resnet50x1".to_string(), resnet));
    let (mut runs, mut diffs) = (0, Vec::new());
    for (name, g) in &graphs {
        for k in [4, 6, 8] {
            let (r, d) = sweep(name, g, k);
            runs += r;
            diffs.extend(d);
        }
    }
    eprintln!("{runs} DPs, {} differences", diffs.len());
    assert!(
        diffs.is_empty(),
        "{} of {runs} DPs differ from the reference:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
