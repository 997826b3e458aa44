//! Reference implementations the stage-level engine is differential-tested
//! against. Not part of the public API: `prop_dp_flat.rs` and the root
//! `determinism.rs` suite include this one file by path.
//!
//! * [`form_stage_dp_hashmap`] — Algorithm 1 with a per-invocation
//!   `HashMap` memo and fresh tables every call, evaluating stages
//!   through the public [`DpCtx::eval`] and walking every predecessor
//!   pair of every cell it computes; it counts what each pair met
//!   ([`Walk`]);
//! * [`tier_grid`] — one node tier's `(S, MB, T)` cells in grid order;
//! * [`exhaustive_cells`] — Algorithm 2 cell by cell: every grid cell's
//!   DP result, one fresh arena per cell, on one thread;
//! * [`exhaustive_search`] — the sequential scan over those cells: first
//!   minimum of `score_solution` (the tier scan's winner);
//! * [`proven_cells`] — the cells of a tier grid the search's memory-only
//!   bound proves INFEASIBLE, so the sweep runs no DP for them;
//! * [`refine_reference`] / [`exhaustive_refined`] — the stage-cut
//!   refinement priced on a fresh arena, alone and after the scan: what
//!   `form_stage_with` returns;
//! * [`walked_range_cost`] — a block range's price from scratch: its
//!   union rebuilt member by member and walked, never composed from the
//!   blocks' time sums;
//! * [`blocks_of`] / [`stage_mem_span`] — a small graph's blocks and the
//!   memory span its stages cover, for the DP property tests.

// each suite uses a subset of the references
#![allow(dead_code)]

use rannc_core::dp::micro_batch;
use rannc_core::refine::refined_stages;
use rannc_core::search::score_solution;
use rannc_core::{
    atomic_partition, block_partition, form_stage_dp, proven_infeasible, Block, BlockLimits,
    DpArena, DpCtx, DpParams, DpSolution, DpStage, RangeTable, SlotTable, StageCost,
};
use rannc_cost::CostModel;
use rannc_graph::{TaskGraph, TaskSet};
use rannc_hw::{ClusterSpec, DeviceSpec};
use rannc_profile::{ProfileResult, Profiler, ProfilerOptions};
use std::collections::HashMap;

/// What the predecessor pairs `(b_prev, d_prev)` of one DP met.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Walk {
    /// Pairs whose previous stage is infeasible (an infinite cell).
    pub infeasible: u64,
    /// Pairs skipped because the micro-batch would be empty.
    pub micro_zero: u64,
    /// Pairs that looked their stage up in the memo.
    pub lookups: u64,
}

/// Algorithm 1 with a `HashMap` memo private to the invocation, and the
/// counts of what its full predecessor walk met. Its last row computes
/// the answer's cell `(S, nb, D)` alone, as the engine's does, so the
/// engine walks exactly its finite pairs: `micro_zero + lookups`.
pub fn form_stage_dp_hashmap(ctx: &DpCtx) -> (Option<DpSolution>, Walk) {
    let mut walk = Walk::default();
    (dp_hashmap(ctx, &mut walk), walk)
}

fn dp_hashmap(ctx: &DpCtx, walk: &mut Walk) -> Option<DpSolution> {
    const INF: f64 = f64::INFINITY;
    let p = ctx.params();
    // The reference stays unplaced on a cluster with no overrides, so the
    // always-placed engine is checked against the paper's plain DP.
    let placed = ctx.cluster().is_heterogeneous().then(|| ctx.slots());
    let nb = ctx.ranges().blocks();
    let s_max = p.stages;
    let d_max = p.devices;
    if s_max == 0 || s_max > nb || d_max < s_max || p.microbatches == 0 || p.tp == 0 {
        return None;
    }
    if micro_batch(p.batch_size, p.replica_factor, p.microbatches, 1) == 0 {
        return None;
    }

    let bs1 = nb + 1;
    let ds1 = d_max + 1;
    let idx = |s: usize, b: usize, d: usize| (s * bs1 + b) * ds1 + d;
    let cells = (s_max + 1) * bs1 * ds1;
    let mut v = vec![INF; cells];
    let mut tf = vec![0.0f64; cells];
    let mut tb = vec![0.0f64; cells];
    let mut parent: Vec<(usize, usize)> = vec![(usize::MAX, usize::MAX); cells];
    v[idx(0, 0, 0)] = 0.0;

    let mut local: HashMap<(usize, usize, usize), Option<StageCost>> = HashMap::new();
    let mut d_min = 1usize;

    for s in 1..=s_max {
        // the last row is the answer's cell (S, nb, D) alone
        let last = s == s_max;
        for b in (if last { nb } else { s })..=nb - s_max + s {
            let d_hi = d_max - (s_max - s);
            let d_lo = if last { d_max } else { d_min.max(s) };
            if d_hi < d_lo {
                continue;
            }
            let mut d = d_hi;
            loop {
                let mut found = false;
                let mut saw_micro_zero = false;
                for b_prev in (s - 1)..b {
                    for d_prev in (s - 1)..d {
                        if v[idx(s - 1, b_prev, d_prev)] == INF {
                            walk.infeasible += 1;
                            continue;
                        }
                        let repl = d - d_prev;
                        if micro_batch(p.batch_size, p.replica_factor, p.microbatches, repl) == 0 {
                            walk.micro_zero += 1;
                            saw_micro_zero = true;
                            continue;
                        }
                        walk.lookups += 1;
                        let looked_up = *local
                            .entry((b_prev, b, repl))
                            .or_insert_with(|| ctx.eval(b_prev, b, repl));
                        let Some(cost) = looked_up else {
                            continue;
                        };
                        let (obj_f, obj_b) = match placed {
                            None => (cost.obj_f, cost.obj_b),
                            Some(t) => {
                                if cost.mem > t.group_mem(d_prev * p.tp, d * p.tp) {
                                    continue;
                                }
                                cost.scaled_objectives(t.group_scale(d_prev * p.tp, d * p.tp))
                            }
                        };
                        let cand_f = tf[idx(s - 1, b_prev, d_prev)].max(obj_f);
                        let cand_b = tb[idx(s - 1, b_prev, d_prev)].max(obj_b);
                        let cand_v = cand_f + cand_b;
                        found = true;
                        let here = idx(s, b, d);
                        if cand_v < v[here] {
                            v[here] = cand_v;
                            tf[here] = cand_f;
                            tb[here] = cand_b;
                            parent[here] = (b_prev, d_prev);
                        }
                    }
                }
                if !found && !saw_micro_zero && placed.is_none() {
                    d_min = d_min.max(d + 1);
                    break;
                }
                if d == d_lo {
                    break;
                }
                d -= 1;
            }
        }
    }

    if v[idx(s_max, nb, d_max)] == INF {
        return None;
    }

    let mut stages_rev: Vec<DpStage> = Vec::with_capacity(s_max);
    let (mut b, mut d) = (nb, d_max);
    for s in (1..=s_max).rev() {
        let (b_prev, d_prev) = parent[idx(s, b, d)];
        let repl = d - d_prev;
        let cost = local[&(b_prev, b, repl)].expect("reconstructed stage must be feasible");
        let (fwd_time, bwd_time) = match placed {
            None => (cost.comp_f, cost.comp_b),
            Some(t) => {
                let sc = t.group_scale(d_prev * p.tp, d * p.tp);
                (cost.comp_f * sc, cost.comp_b * sc)
            }
        };
        stages_rev.push(DpStage {
            set: ctx.ranges().get(b_prev, b).set.tasks().clone(),
            block_range: (b_prev, b),
            devices: repl,
            tensor_parallel: p.tp,
            micro_batch: micro_batch(p.batch_size, p.replica_factor, p.microbatches, repl),
            fwd_time,
            bwd_time,
            mem_bytes: cost.mem,
            param_elems: cost.params,
        });
        b = b_prev;
        d = d_prev;
    }
    stages_rev.reverse();

    Some(DpSolution {
        value: v[idx(s_max, nb, d_max)],
        stages: stages_rev,
        microbatches: p.microbatches,
        replica_factor: p.replica_factor,
    })
}

/// One node tier of [`exhaustive_cells`]: every grid cell's parameters
/// and DP result, in grid order.
pub struct TierCells {
    /// Nodes dedicated to one pipeline replica.
    pub n: usize,
    /// `(params, result)` per `(S, MB, T)` cell, S then MB then T
    /// ascending.
    pub cells: Vec<(DpParams, Option<DpSolution>)>,
}

/// Algorithm 2 cell by cell, without any of the engine's machinery:
/// every `(S, MB, T)` cell of a node tier, in grid order, on one thread,
/// each through a fresh arena. Returns the tiers up to and including the
/// first with a feasible cell (all of them when none has one).
pub fn exhaustive_cells(
    g: &TaskGraph,
    cost: &dyn CostModel,
    blocks: &[Block],
    cluster: &ClusterSpec,
    batch_size: usize,
    tp_max: usize,
) -> Vec<TierCells> {
    assert_eq!(
        g.num_tasks(),
        cost.graph().num_tasks(),
        "blocks of another graph"
    );
    let d_node = cluster.node.devices;
    let mem_limit = if cluster.is_heterogeneous() {
        cluster.max_memory_bytes()
    } else {
        cluster.device.memory_bytes
    };
    let ranges = RangeTable::build(cost, blocks);
    let mut tiers = Vec::new();
    let mut n = 1usize;
    while n <= cluster.nodes {
        let d = d_node * n;
        let r = (cluster.nodes / n).max(1);
        let slots = SlotTable::build(cluster, d, r, cost.device(), cost.options().precision);
        let cells: Vec<_> = tier_grid(g, cluster, n, batch_size, tp_max, mem_limit)
            .into_iter()
            .map(|p| {
                let ctx = DpCtx::new(cost, &ranges, cluster, &slots, &p);
                let sol = form_stage_dp(&ctx, &mut DpArena::new());
                (p, sol)
            })
            .collect();
        let feasible = cells.iter().any(|(_, sol)| sol.is_some());
        tiers.push(TierCells { n, cells });
        if feasible {
            break;
        }
        n *= 2;
    }
    tiers
}

/// The `(S, MB, T)` cells of node tier `n` (nodes per pipeline replica)
/// in Algorithm 2's grid order: `S` ascending, then `MB`, then `T` over
/// the divisors of the tier's device budget that `g`'s split rule allows.
pub fn tier_grid(
    g: &TaskGraph,
    cluster: &ClusterSpec,
    n: usize,
    batch_size: usize,
    tp_max: usize,
    mem_limit: usize,
) -> Vec<DpParams> {
    let d_node = cluster.node.devices;
    let d = d_node * n;
    let r = (cluster.nodes / n).max(1);
    let mut grid = Vec::new();
    for s in (d_node * (n - 1) + 1)..=d {
        let mut mb = 1usize;
        while mb <= batch_size / r {
            for t in 1..=tp_max.max(1) {
                if !d.is_multiple_of(t) || d / t < s || !g.index().allows_tp(t) {
                    continue;
                }
                grid.push(DpParams {
                    stages: s,
                    devices: d / t,
                    batch_size,
                    replica_factor: r,
                    microbatches: mb,
                    mem_limit,
                    tp: t,
                });
            }
            mb *= 2;
        }
    }
    grid
}

/// The cells of one node tier's `grid` (in grid order) that the search's
/// memory-only bound proves INFEASIBLE: [`proven_infeasible`] over each
/// `(MB, T)` group, as the sweep groups them.
pub fn proven_cells(cost: &dyn CostModel, ranges: &RangeTable, grid: &[DpParams]) -> Vec<bool> {
    let mut proven = vec![false; grid.len()];
    let mut keys: Vec<(usize, usize)> = grid.iter().map(|p| (p.microbatches, p.tp)).collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let members: Vec<usize> = (0..grid.len())
            .filter(|&i| (grid[i].microbatches, grid[i].tp) == key)
            .collect();
        let group: Vec<DpParams> = members.iter().map(|&i| grid[i]).collect();
        for (&i, p) in members.iter().zip(proven_infeasible(cost, ranges, &group)) {
            proven[i] = p;
        }
    }
    proven
}

/// Algorithm 2's tier scan as a sequential scan over
/// [`exhaustive_cells`]: the winner is the first cell of the last tier
/// with the minimal `score_solution`. The scan's winner, before the
/// stage-cut refinement.
pub fn exhaustive_search(
    g: &TaskGraph,
    cost: &dyn CostModel,
    blocks: &[Block],
    cluster: &ClusterSpec,
    batch_size: usize,
    tp_max: usize,
) -> Option<DpSolution> {
    exhaustive_winner(g, cost, blocks, cluster, batch_size, tp_max).map(|(_, _, sol)| sol)
}

/// [`exhaustive_search`]'s winner with its cell's parameters and score.
pub fn exhaustive_winner(
    g: &TaskGraph,
    cost: &dyn CostModel,
    blocks: &[Block],
    cluster: &ClusterSpec,
    batch_size: usize,
    tp_max: usize,
) -> Option<(DpParams, f64, DpSolution)> {
    let last = exhaustive_cells(g, cost, blocks, cluster, batch_size, tp_max).pop()?;
    last.cells
        .into_iter()
        .filter_map(|(p, sol)| sol.map(|sol| (p, score_solution(&sol, cluster, cost), sol)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

/// The stage-cut refinement of a scan winner, from the published cuts:
/// the winner's stages re-cut by [`refined_stages`] on the tier's
/// placement table, priced by Algorithm 1 on a fresh arena at the
/// winner's parameters, and kept only if they score strictly lower.
pub fn refine_reference(
    cost: &dyn CostModel,
    blocks: &[Block],
    cluster: &ClusterSpec,
    (p, score, winner): (DpParams, f64, DpSolution),
) -> DpSolution {
    let precision = cost.options().precision;
    let slots = SlotTable::build(
        cluster,
        p.devices * p.tp,
        p.replica_factor,
        cost.device(),
        precision,
    );
    let Some(sets) = refined_stages(cost, &RangeTable::build(cost, blocks), &slots, &winner) else {
        return winner;
    };
    // the re-cut stages as the blocks of a range table of their own
    let stages: Vec<Block> = (sets.into_iter())
        .map(|set| Block {
            set,
            time: 0.0,
            mem: 0,
        })
        .collect();
    let ranges = RangeTable::build(cost, &stages);
    let ctx = DpCtx::new(cost, &ranges, cluster, &slots, &p);
    match form_stage_dp(&ctx, &mut DpArena::new()) {
        Some(sol) if score_solution(&sol, cluster, cost) < score => sol,
        _ => winner,
    }
}

/// Algorithm 2 from scratch: [`exhaustive_winner`], then
/// [`refine_reference`]. What `form_stage_with` must return, bit for bit.
pub fn exhaustive_refined(
    g: &TaskGraph,
    cost: &dyn CostModel,
    blocks: &[Block],
    cluster: &ClusterSpec,
    batch_size: usize,
    tp_max: usize,
) -> Option<DpSolution> {
    let winner = exhaustive_winner(g, cost, blocks, cluster, batch_size, tp_max)?;
    Some(refine_reference(cost, blocks, cluster, winner))
}

/// The price of block range `[from, to)` from scratch: the union of the
/// blocks' members inserted one by one, then one statistics walk and one
/// time walk of it through `cost`'s profiler, and
/// [`CostModel::stage_cost_tp`] at `(batch, inflight, ckpt)` and `tp`.
pub fn walked_range_cost(
    cost: &dyn CostModel,
    blocks: &[Block],
    (from, to): (usize, usize),
    (batch, inflight, ckpt): (usize, usize, bool),
    tp: usize,
    cluster: &ClusterSpec,
) -> ProfileResult {
    let mut union = TaskSet::new(cost.graph().num_tasks());
    for t in blocks[from..to].iter().flat_map(|b| b.set.iter()) {
        union.insert(t);
    }
    let p = cost.profiler();
    let time = p.time_sums(union.iter(), batch, tp);
    cost.stage_cost_tp(
        &p.profiled(&union),
        time,
        batch,
        inflight,
        ckpt,
        tp,
        cluster,
    )
}

/// `g`'s blocks at `k`, planned for one 32 GB V100 at profile batch 2.
pub fn blocks_of(g: &TaskGraph, k: usize) -> Vec<Block> {
    let profiler = Profiler::new(g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
    let atomic = atomic_partition(g);
    block_partition(
        g,
        &profiler,
        &atomic,
        BlockLimits {
            k,
            mem_limit: 32 << 30,
            profile_batch: 2,
        },
    )
}

/// The smallest and largest memory of any block range of `ranges` as
/// one stage at `batch_size` on one replica: the span a memory bound is
/// drawn from so that some stages fit and some do not.
pub fn stage_mem_span(
    profiler: &Profiler<'_>,
    ranges: &RangeTable,
    cluster: &ClusterSpec,
    batch_size: usize,
) -> (usize, usize) {
    let p = DpParams {
        stages: 2,
        devices: 1,
        batch_size,
        replica_factor: 1,
        microbatches: 1,
        mem_limit: usize::MAX,
        tp: 1,
    };
    let precision = profiler.options().precision;
    let slots = SlotTable::build(cluster, 1, 1, profiler.device(), precision);
    let ctx = DpCtx::new(profiler, ranges, cluster, &slots, &p);
    let nb = ranges.blocks();
    let mems = (0..nb)
        .flat_map(|from| (from + 1..=nb).map(move |to| (from, to)))
        .map(|(from, to)| ctx.eval(from, to, 1).expect("no memory bound").mem);
    mems.fold((usize::MAX, 0), |(lo, hi), m| (lo.min(m), hi.max(m)))
}
