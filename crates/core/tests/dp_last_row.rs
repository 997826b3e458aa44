//! Algorithm 1's last row solves one cell: the answer `(S, nb, D)`, plus a
//! probe of `(S, b, D)` for each `b < nb`, stopped at its first feasible
//! pair, because the paper's `d_min` pruning reads those cells. These
//! tests hold the engine to the reference, which fills the whole row, on
//! a grid of small DPs, and pin one instance the probe decides: the
//! pruning discards the feasible cells and the answer is INFEASIBLE, so
//! an engine without the probe would return a plan.

#[path = "support/mod.rs"]
mod support;

use rannc_core::{form_stage_dp, DpArena, DpCtx, DpParams, DpSolution, RangeTable, SlotTable};
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
/// step 5 of 40: a last-row probe `(4, b < nb, 8)` finds no memory-feasible
/// predecessor, `d_min` passes `D`, and the candidate is INFEASIBLE,
/// although a split of the blocks into 4 stages that fit exists. The
/// engine must give the reference's answer.
#[test]
fn a_failed_probe_makes_the_candidate_infeasible() {
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
    assert!(reference.is_none(), "the reference found a plan");
    // a split into 4 stages on 8 devices, every stage within memory
    let nb = ranges.blocks();
    let fits = |cuts: [usize; 5], devs: [usize; 4]| {
        (0..4).all(|i| ctx.eval(cuts[i], cuts[i + 1], devs[i]).is_some())
    };
    let feasible = (1..nb).any(|a| {
        (a + 1..nb).any(|b| {
            (b + 1..nb).any(|c| {
                (1..=5).any(|x| {
                    (1..=6 - x).any(|y| {
                        (1..=7 - x - y).any(|z| fits([0, a, b, c, nb], [x, y, z, 8 - x - y - z]))
                    })
                })
            })
        })
    });
    assert!(
        feasible,
        "no memory-feasible split: the case does not test the probe"
    );
    assert!(
        form_stage_dp(&ctx, &mut DpArena::new()).is_none(),
        "the engine found a plan the d_min pruning rules out"
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
