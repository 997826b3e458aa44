//! Stage-count / device-allocation search: Algorithm 2 (the paper's
//! `form_stage`, §III-C), entered through [`form_stage_with`].
//!
//! The outer loop doubles the number of compute nodes `n` dedicated to one
//! pipeline replica. From `n` it derives the device budget `D = D_node·n`
//! and the pipeline-replica factor `R = N/n`, then scans stage counts
//! `S ∈ (D_node·(n−1), D_node·n]`, micro-batch counts `MB = 1, 2, 4, …`
//! `≤ ⌊BS/R⌋` and tensor-parallel degrees `T ≤ tp_max`, invoking
//! Algorithm 1 for each cell that a memory bound does not prove
//! INFEASIBLE ([`tier_grids`] builds each tier's grid). The
//! first tier with any feasible cell wins; of its cells the one with the
//! lowest [`score_solution`] is returned, the first minimum in grid order.
//! [`scan_first_feasible_tier`] returns that whole tier, scored, and
//! [`form_stage_with`] its winner, with its stage cuts refined at atom
//! granularity when that scores strictly lower ([`crate::refine`]).
//!
//! Aligning `D` to whole nodes keeps inter-stage traffic on NVLink, which
//! is also why Algorithm 1 plans with the intra-node link (footnote 3).
//!
//! ## The parallel engine
//!
//! A node tier's `S × MB × T` candidate grid is embarrassingly parallel:
//! each cell is one independent `form_stage_dp` invocation.
//! [`scan_first_feasible_tier`] builds every block-range union once
//! ([`RangeTable::build`]), groups the grid by `(MB, T)` and fans the
//! groups out over [`crate::par::parallel_map_with`]. Each group runs its
//! stage counts ascending through one [`DpArena`], whose flat
//! `(b_prev, b, repl)` memo persists across the group's candidates. The
//! group draws the arena from a process-wide spare list (`DpArena::draw`)
//! and shelves it there when it is done (`DpArena::shelve`), so later
//! groups and requests reuse its allocations but never its memo entries.
//! A group returns the arena's memo counters with its results, and
//! [`SearchStats::stage_cache`] is their sum.
//!
//! **The memory bound.** A cell runs its DP unless a memory-only bound
//! proves it INFEASIBLE first ([`proven_infeasible`]): each group finds,
//! per block range, the fewest data-parallel units on which the range
//! fits memory, and a cell whose `S` stages need more than its `D` units
//! in total cannot have a split. The proof is exact, so it changes no
//! result, only the work: on bert256-d128 it proves 118 of 120 cells,
//! every INFEASIBLE one. A proven cell is recorded INFEASIBLE as a DP's
//! `None` would be, and counts in [`SearchStats::pruned`]. The calling
//! thread proves the groups in grid order up to the first with a cell
//! left to solve and fans out only from there, so a tier the bound
//! settles (bert256-d128's one-node tier, most churn replans) spawns no
//! thread.
//!
//! **Determinism.** The chosen plan is bit-identical to a sequential
//! scan with a fresh arena per candidate: candidate results are
//! scattered back to grid order before the winner is chosen, every DP
//! result is a pure function of its parameters (arena memo entries
//! equal fresh evaluations exactly), and the winner is the *first*
//! candidate with the minimal score — the same tie-breaking
//! `Iterator::min_by` applies in a sequential scan. The set of DPs that
//! run, and so every search counter, does not depend on the thread
//! schedule: the bound that skips a cell is a pure function of its
//! group, and a group's memo counters are those of an arena drawn for
//! it alone. The `determinism` integration suite pins this contract
//! against such a scan, and the refined plan against the test-support
//! refinement of that scan's winner.

use crate::blocks::Block;
use crate::dp::{form_stage_dp, micro_batch, DpArena, DpParams, DpSolution};
use crate::par;
use crate::placement::SlotTable;
use crate::refine;
use crate::stagecache::{DpCtx, RangeTable};
use rannc_cost::{sync_iteration_time, CostModel, IterationTail, StageGrads};
use rannc_graph::TaskGraph;
use rannc_hw::ClusterSpec;
use rannc_obs::recorder::RefineRec;
use rannc_profile::{CacheStats, Residency};

/// Estimated wall time of one training iteration under the synchronous
/// pipeline for a DP solution: the closed form
/// [`rannc_cost::sync_iteration_time`] — fill–drain pipeline slots, then
/// the slowest stage group's gradient all-reduce and the optimizer step,
/// the same tail the schedule simulators append.
pub fn score_solution(sol: &DpSolution, cluster: &ClusterSpec, cost: &dyn CostModel) -> f64 {
    let grads = sol
        .stages
        .iter()
        .map(|st| StageGrads::of_params(st.param_elems, st.devices, st.tensor_parallel));
    let tail = IterationTail::price(cluster, cost.factors(), sol.replica_factor, grads);
    sync_iteration_time(sol.stages.len(), sol.microbatches, sol.value, tail)
}

/// Tuning knobs of the partition-search engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOptions {
    /// Worker threads for the `(S, MB, T)` sweep; 0 resolves through
    /// [`par::max_threads`] (override → `RANNC_THREADS` → hardware).
    pub threads: usize,
    /// Largest tensor-parallel degree `T` the sweep may try per stage
    /// (the third search axis). `1` disables intra-op partitioning and
    /// reproduces the historical `(S, MB)` grid bit for bit.
    pub tp_max: usize,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            threads: 0,
            tp_max: 1,
        }
    }
}

/// Counters describing one [`scan_first_feasible_tier`] run.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Algorithm 1 candidates: the grid cells of every node tier searched,
    /// proven ones included.
    pub candidates: usize,
    /// DP invocations that returned a feasible solution.
    pub feasible: usize,
    /// Grid cells the memory-only bound ([`proven_infeasible`]) proved
    /// INFEASIBLE, so Algorithm 1 never ran them. Counted in
    /// `candidates`, never in `feasible`.
    pub pruned: usize,
    /// Node tiers (`n` values) examined.
    pub node_tiers: usize,
    /// Worker threads the sweep ran with.
    pub threads: usize,
    /// DP arena memo behaviour, summed over the sweep's `(MB, T)` groups
    /// (the refinement's DP is not counted): `hits` are memo hits,
    /// `misses` (and so `entries()`) stage evaluations.
    pub stage_cache: CacheStats,
}

/// Close one search's [`SearchStats`] (exact for this invocation) and add
/// its totals to the process-global metrics registry (cumulative).
fn finish(stats: SearchStats) -> SearchStats {
    for (name, n) in [
        ("candidates", stats.candidates),
        ("feasible", stats.feasible),
        ("pruned", stats.pruned),
        ("node_tiers", stats.node_tiers),
    ] {
        rannc_obs::metrics::counter(&format!("planner.search.{name}")).add(n as u64);
    }
    crate::publish_cache_metrics("planner.stage_cache", &stats.stage_cache);
    stats
}

/// One node tier of Algorithm 2's outer loop and its candidate grid.
#[derive(Debug, Clone)]
pub struct TierGrid {
    /// Compute nodes `n` dedicated to one pipeline replica.
    pub nodes: usize,
    /// Device budget `D = D_node·n` of one pipeline replica.
    pub devices: usize,
    /// Whole-pipeline replicas `R = N/n`.
    pub replica_factor: usize,
    /// The tier's `(S, MB, T)` cells, `S` ascending, then `MB`, then `T`.
    pub cells: Vec<DpParams>,
}

/// Algorithm 2's node tiers `n = 1, 2, 4, … ≤ N` on `cluster`, each grid
/// built when the iterator reaches it: `S ∈ (D_node·(n−1), D_node·n]`,
/// `MB = 1, 2, 4, … ≤ ⌊BS/R⌋`, and innermost, ascending so that a tie
/// resolves to the smallest degree, the `T ≤ tp_max` that divide `D`
/// with `D/T ≥ S` and that `g` allows ([`rannc_graph::GraphIndex::allows_tp`]);
/// `tp_max = 1` is the paper's `(S, MB)` grid. The memory bound is the
/// largest device's: it only pre-filters, and the binding per-group check
/// is the slot table's.
pub fn tier_grids<'a>(
    g: &'a TaskGraph,
    cluster: &'a ClusterSpec,
    batch_size: usize,
    tp_max: usize,
) -> impl Iterator<Item = TierGrid> + 'a {
    let d_node = cluster.node.devices;
    let mem_limit = cluster.max_memory_bytes();
    std::iter::successors(Some(1usize), |n| Some(n * 2))
        .take_while(|&n| n <= cluster.nodes)
        .map(move |n| {
            let d = d_node * n;
            let r = (cluster.nodes / n).max(1);
            let mut cells = Vec::new();
            for s in (d_node * (n - 1) + 1)..=d {
                let mut mb = 1usize;
                while mb <= batch_size / r {
                    for t in 1..=tp_max.max(1) {
                        if !d.is_multiple_of(t) || d / t < s || !g.index().allows_tp(t) {
                            continue;
                        }
                        cells.push(DpParams {
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
            TierGrid {
                nodes: n,
                devices: d,
                replica_factor: r,
                cells,
            }
        })
}

/// A tier grid's cells grouped by `(MB, T)`, as indices into `grid`, in
/// order of first appearance. All cells of one group share the DP arena's
/// memo key (the same `R`, `MB`, `T`, and residency for `S ≥ 2`), so the
/// flat `(b_prev, b, repl)` memo filled by one stage count answers most
/// lookups of the next; and they share the bound of
/// [`proven_infeasible`].
fn group_cells(grid: &[DpParams]) -> Vec<Vec<usize>> {
    let mut groups: Vec<((usize, usize), Vec<usize>)> = Vec::new();
    for (i, p) in grid.iter().enumerate() {
        let key = (p.microbatches, p.tp);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

/// Which cells of one `(R, MB, T)` group a memory-only bound proves
/// INFEASIBLE, in `cells` order: `true` where Algorithm 1 must return
/// `None`, so the sweep records the cell without running its DP. The
/// cells share every parameter but the stage count `S`.
///
/// For every block range `[from, to)` the bound finds `r_min`, the fewest
/// data-parallel units on which the range fits memory. It prices the
/// stage with the [`CostModel::stage_mem`] call [`DpCtx::eval`] makes, at
/// micro-batch `⌊samples/repl⌋` and no time priced: one call at the
/// largest count a stage of the split can use, `min(samples, D − S + 1)`,
/// where a range that does not fit has `r_min = ∞`, and a binary search
/// below it otherwise. A min-sum DP over contiguous splits then gives
/// `fewest(S)`, the least `Σ r_min` over the splits into `S` ranges, for
/// every stage count of the group at once: `S ≥ 2` at checkpointing
/// residency (its ranges searched up to `D − 1` units), `S = 1` the one
/// range of the whole model. The DP extends only prefixes on fewer than
/// `D` units, and prices a range only when it does. A cell with
/// `fewest(S) > D` or `D > S·samples` is proven.
///
/// The proof is exact. Stage memory is nondecreasing in the micro-batch
/// ([`CostModel::stage_mem`]), so a range fits on `repl` units exactly
/// when `repl ≥ r_min`. Algorithm 1 returns only splits over exactly `D`
/// units with `1 ≤ repl ≤ samples` per stage and every stage within the
/// memory bound, and every such split has `Σ r_min ≤ D`. The bound is
/// `mem_limit`, the largest device's, so on a heterogeneous cluster it is
/// only looser than the DP's placed per-group check. It is a pure
/// function of the group, so the cells it proves, like the DPs the
/// others run, do not depend on the thread schedule.
pub fn proven_infeasible(
    cost: &dyn CostModel,
    ranges: &RangeTable,
    cells: &[DpParams],
) -> Vec<bool> {
    let Some(p) = cells.first() else {
        return Vec::new();
    };
    debug_assert!(
        cells.iter().all(|c| DpParams {
            stages: p.stages,
            ..*c
        } == *p),
        "cells of one (R, MB, T) group"
    );
    const NONE: usize = usize::MAX;
    let (nb, d) = (ranges.blocks(), p.devices);
    let samples = micro_batch(p.batch_size, p.replica_factor, p.microbatches, 1);
    // the fewest units on which [from, to) fits as a stage of an S-stage
    // split, or NONE above D − (S − 1): the split's other stages hold a
    // unit each, so a range that needs more proves the cell as surely
    let r_min = |from: usize, to: usize, stages: usize| {
        let Residency {
            inflight,
            checkpointing,
        } = Residency::fill_drain(stages, p.microbatches);
        let set = &ranges.get(from, to).set;
        let fits = |repl| {
            let micro = micro_batch(p.batch_size, p.replica_factor, p.microbatches, repl);
            cost.stage_mem(set, micro, inflight, checkpointing, p.tp) <= p.mem_limit
        };
        let top = samples.min(d + 1 - stages);
        if !fits(top) {
            return NONE;
        }
        let (mut lo, mut hi) = (1, top);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if fits(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    };
    // stage counts no cheaper test decides: S ≤ nb, S ≤ D, D ≤ S·samples
    let open = |s: usize| s >= 1 && s <= nb.min(d) && d <= s * samples;
    // fewest[s] at checkpointing residency, for s up to the group's
    // largest open S ≥ 2 (S = 1 is priced without checkpointing below)
    let s_max = (cells.iter().map(|c| c.stages))
        .filter(|&s| s >= 2 && open(s))
        .max();
    let mut fewest = vec![NONE; s_max.map_or(0, |s| s + 1)];
    if !fewest.is_empty() {
        // r_min at checkpointing residency, priced on first use (0: not
        // yet; r_min ≥ 1)
        let mut r = vec![0; nb * (nb + 1)];
        let mut range_min = |from: usize, to: usize| {
            let k = from * (nb + 1) + to;
            if r[k] == 0 {
                r[k] = r_min(from, to, 2);
            }
            r[k]
        };
        // row[b]: the fewest units that split blocks [0, b) into s ranges,
        // exact up to D (a prefix on D units or more leaves no unit for
        // the next range, so it is never extended)
        let mut row: Vec<usize> = (0..=nb).map(|b| if b == 0 { 0 } else { NONE }).collect();
        for (s, fewest) in fewest.iter_mut().enumerate().skip(1) {
            row = (0..=nb)
                .map(|b| {
                    ((s - 1)..b)
                        .filter(|&b_prev| row[b_prev] < d)
                        .map(|b_prev| row[b_prev].saturating_add(range_min(b_prev, b)))
                        .min()
                        .unwrap_or(NONE)
                })
                .collect();
            *fewest = row[nb];
        }
    }
    (cells.iter())
        .map(|c| match c.stages {
            s if !open(s) => true,
            1 => r_min(0, nb, 1) > d,
            s => fewest[s] > d,
        })
        .collect()
}

/// One grid cell of a [`TierScan`].
#[derive(Debug, Clone)]
pub struct ScanCell {
    /// The cell's Algorithm 1 inputs.
    pub params: DpParams,
    /// The cell's [`score_solution`] and DP solution; `None` if infeasible.
    pub scored: Option<(f64, DpSolution)>,
}

/// The first node tier with a feasible cell, every cell solved (or
/// proven INFEASIBLE) and scored.
#[derive(Debug, Clone)]
pub struct TierScan {
    /// Whole-pipeline replicas `R = N/n`.
    pub replica_factor: usize,
    /// Every cell of the tier, in grid order.
    pub cells: Vec<ScanCell>,
    /// Index in `cells` of the winner: the first feasible cell with the
    /// minimal score.
    pub winner: usize,
}

/// Algorithm 2 (`form_stage(N, D_node, BS)`) under explicit engine
/// options: the tiers of [`tier_grids`] in order, the DP of every cell
/// the memory bound does not prove INFEASIBLE run, up to the first tier
/// with a feasible cell. Returns that tier, or
/// `None` if the model cannot be partitioned onto the cluster at all
/// (INFEASIBLE), with the search statistics alongside.
pub fn scan_first_feasible_tier(
    g: &TaskGraph,
    cost: &dyn CostModel,
    blocks: &[Block],
    cluster: &ClusterSpec,
    batch_size: usize,
    opts: &SearchOptions,
) -> (Option<TierScan>, SearchStats) {
    let (scan, stats, _) = scan(g, cost, blocks, cluster, batch_size, opts);
    (scan.map(|(scan, _)| scan), stats)
}

/// [`scan_first_feasible_tier`], with the winning tier's placement table
/// and the range table it built.
fn scan(
    g: &TaskGraph,
    cost: &dyn CostModel,
    blocks: &[Block],
    cluster: &ClusterSpec,
    batch_size: usize,
    opts: &SearchOptions,
) -> (Option<(TierScan, SlotTable)>, SearchStats, RangeTable) {
    debug_assert_eq!(
        g.num_tasks(),
        cost.graph().num_tasks(),
        "blocks of another graph"
    );
    let threads = if opts.threads == 0 {
        par::max_threads()
    } else {
        opts.threads
    };
    rannc_obs::metrics::gauge("planner.search.threads").set(threads as f64);
    let mut stats = SearchStats {
        threads,
        ..SearchStats::default()
    };

    // Flight-recorder hook (see `rannc_obs::recorder`): one recording
    // per search, one candidate per grid cell logged in grid order after
    // each tier's scatter. While the recorder is disabled every hook is
    // a branch on one relaxed atomic load and allocates nothing.
    rannc_obs::recorder::begin_search();

    // Build every block-range union, with its egress and set statistics,
    // before the first DP touches any.
    let nb = blocks.len();
    let ranges = {
        let span = rannc_obs::trace::span("prefetch_ranges", "planner").arg_i("blocks", nb as i64);
        let ranges = RangeTable::build(cost, blocks);
        let _s = span.arg_i("boundary_rows", ranges.boundary_rows() as i64);
        ranges
    };

    for tier in tier_grids(g, cluster, batch_size, opts.tp_max) {
        let (n, d, r, grid) = (tier.nodes, tier.devices, tier.replica_factor, tier.cells);
        stats.node_tiers += 1;
        rannc_obs::recorder::tier(n, d, r);
        // All stage counts of the tier are solved before choosing: for
        // memory-tight models the minimum feasible S is often not the
        // fastest one (more stages allow more micro-batches and finer
        // balance), and the paper's "return Best sol in A" picks among
        // all of a tier's solutions.
        stats.candidates += grid.len();
        // one placement table per tier: it depends only on (D, R)
        let slots = SlotTable::build(cluster, d, r, cost.device(), cost.options().precision);
        // Groups are the parallel work unit; results are scattered back
        // to grid order below, so the regrouping cannot perturb the
        // deterministic tie-break.
        let groups = group_cells(&grid);
        let prove = |members: &[usize]| {
            let params: Vec<DpParams> = members.iter().map(|&i| grid[i]).collect();
            proven_infeasible(cost, &ranges, &params)
        };
        let sweep = rannc_obs::trace::span("sweep", "planner")
            .arg_i("n", n as i64)
            .arg_i("candidates", grid.len() as i64)
            .arg_i("groups", groups.len() as i64);
        // The calling thread proves the groups in grid order up to the
        // first with a cell left to solve, so a tier the memory bound
        // settles spawns no thread. Each later group is proven by the
        // worker that solves it.
        let mut proofs: Vec<Vec<bool>> = Vec::new();
        for members in &groups {
            let proven = prove(members);
            let settled = proven.iter().all(|&p| p);
            proofs.push(proven);
            if !settled {
                break;
            }
        }
        // A group returns its cells' DP results, how many of them the
        // bound proved INFEASIBLE without running the DP, and the memo
        // counters of the one arena its DPs share, drawn from the spare
        // list and shelved again at once.
        let run_group = |&g: &usize| {
            let proven = proofs.get(g).cloned().unwrap_or_else(|| prove(&groups[g]));
            let mut arena = None;
            let out: Vec<Option<DpSolution>> = (groups[g].iter().zip(&proven))
                .map(|(&i, &proven)| {
                    let p = &grid[i];
                    let span = rannc_obs::trace::span("dp", "planner")
                        .arg_i("S", p.stages as i64)
                        .arg_i("MB", p.microbatches as i64)
                        .arg_i("T", p.tp as i64)
                        .arg_i("n", n as i64);
                    if proven {
                        let _dp = (span.arg_i("visits", 0).arg_i("evals", 0)).arg_i("proven", 1);
                        return None;
                    }
                    let arena = arena.get_or_insert_with(DpArena::draw);
                    let ctx = DpCtx::new(cost, &ranges, cluster, &slots, p);
                    let (visits, evals) = (arena.visits(), arena.misses());
                    let sol = form_stage_dp(&ctx, arena);
                    // predecessor pairs walked and stages evaluated (memo
                    // misses) by this DP alone
                    let _dp = span
                        .arg_i("visits", (arena.visits() - visits) as i64)
                        .arg_i("evals", (arena.misses() - evals) as i64);
                    sol
                })
                .collect();
            let memo = (arena.as_ref()).map_or_else(CacheStats::default, |a| CacheStats {
                hits: a.hits(),
                misses: a.misses(),
            });
            DpArena::shelve(arena, threads);
            (proven.iter().filter(|&&p| p).count(), memo, out)
        };
        let settled = proofs.iter().take_while(|p| p.iter().all(|&p| p)).count();
        let order: Vec<usize> = (0..groups.len()).collect();
        let (inline, fanned) = order.split_at(settled);
        let mut grouped: Vec<_> = inline.iter().map(run_group).collect();
        grouped.extend(par::parallel_map_with(fanned, threads, run_group));
        drop(sweep);
        // scatter results back to deterministic grid order, scoring each
        // feasible cell once
        let mut cells: Vec<ScanCell> = (grid.iter())
            .map(|&params| ScanCell {
                params,
                scored: None,
            })
            .collect();
        for (members, (proven, memo, outs)) in groups.iter().zip(grouped) {
            stats.pruned += proven;
            stats.stage_cache.hits += memo.hits;
            stats.stage_cache.misses += memo.misses;
            for (&i, sol) in members.iter().zip(outs) {
                cells[i].scored = sol.map(|s| (score_solution(&s, cluster, cost), s));
            }
        }
        if rannc_obs::recorder::enabled() {
            use rannc_obs::recorder::{candidate, CandidateOutcome};
            for ScanCell { params: p, scored } in &cells {
                let outcome = match scored {
                    Some((score, s)) => CandidateOutcome::Feasible {
                        score: *score,
                        bottleneck: s.value,
                    },
                    None => CandidateOutcome::Infeasible,
                };
                candidate(p.stages, p.microbatches, p.tp, outcome);
            }
        }
        stats.feasible += cells.iter().filter(|c| c.scored.is_some()).count();
        // Deterministic tie-break: min_by keeps the *first* minimum in grid
        // order, so the parallel sweep picks the exact candidate a
        // sequential scan would.
        let winner = (cells.iter().enumerate())
            .filter_map(|(i, c)| c.scored.as_ref().map(|(score, _)| (i, score)))
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i);
        if let Some(winner) = winner {
            let scan = TierScan {
                replica_factor: r,
                cells,
                winner,
            };
            return (Some((scan, slots)), finish(stats), ranges);
        }
    }
    (None, finish(stats), ranges)
}

/// Algorithm 2's best feasible solution: the winner of
/// [`scan_first_feasible_tier`] after its stage-cut refinement, or `None`
/// (INFEASIBLE).
pub fn form_stage_with(
    g: &TaskGraph,
    cost: &dyn CostModel,
    blocks: &[Block],
    cluster: &ClusterSpec,
    batch_size: usize,
    opts: &SearchOptions,
) -> (Option<DpSolution>, SearchStats) {
    let (scan, stats, ranges) = scan(g, cost, blocks, cluster, batch_size, opts);
    let winner = scan.map(|(mut t, slots)| {
        let ScanCell { params, scored } = t.cells.swap_remove(t.winner);
        let (score, sol) = scored.expect("feasible");
        let best = (params, score, sol);
        refine_winner(cost, &ranges, &slots, cluster, best, stats.threads)
    });
    (winner, stats)
}

/// Algorithm 2's last step: the winner's stages re-cut at atom
/// granularity ([`refine::refined_stages`]), priced exactly by one
/// Algorithm 1 run at the winner's parameters `p` on the tier's
/// placement table `slots`, and kept only if their [`score_solution`] is
/// strictly lower than the winner's `score`. Its arena is drawn from the
/// spare list and shelved there, with at most `threads` spares kept.
fn refine_winner(
    cost: &dyn CostModel,
    ranges: &RangeTable,
    slots: &SlotTable,
    cluster: &ClusterSpec,
    (p, score, winner): (DpParams, f64, DpSolution),
    threads: usize,
) -> DpSolution {
    let span = rannc_obs::trace::span("refine", "planner").arg_f("bottleneck", winner.value);
    let Some(sets) = refine::refined_stages(cost, ranges, slots, &winner) else {
        let _s = span.arg_i("accepted", 0);
        return winner;
    };
    // the new stages as the blocks of a range table of their own
    let stages: Vec<Block> = (sets.into_iter())
        .map(|set| Block {
            set,
            time: 0.0,
            mem: 0,
        })
        .collect();
    let stage_ranges = RangeTable::build(cost, &stages);
    let ctx = DpCtx::new(cost, &stage_ranges, cluster, slots, &p);
    let mut arena = DpArena::draw();
    let refined =
        form_stage_dp(&ctx, &mut arena).map(|sol| (score_solution(&sol, cluster, cost), sol));
    DpArena::shelve([arena], threads);
    let accepted = matches!(&refined, Some((v, _)) if *v < score);
    let outcome = if accepted { "accepted" } else { "rejected" };
    rannc_obs::metrics::counter(&format!("planner.refine.{outcome}")).inc();
    let span = span.arg_i("accepted", accepted as i64);
    let _s = match &refined {
        Some((_, sol)) => span.arg_f("refined", sol.value),
        None => span,
    };
    rannc_obs::recorder::refinement(|| RefineRec {
        from_score: score,
        from_bottleneck: winner.value,
        to: refined.as_ref().map(|(v, sol)| (*v, sol.value)),
        accepted,
    });
    match refined {
        Some((_, sol)) if accepted => sol,
        _ => winner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::atomic_partition;
    use crate::blocks::{block_partition, BlockLimits};
    use rannc_graph::TaskSet;
    use rannc_hw::{ClusterSpec, DeviceSpec, LinkSpec, NodeSpec};
    use rannc_models::{mlp_graph, MlpConfig};
    use rannc_profile::{ProfiledSet, Profiler, ProfilerOptions, StatsBound, TimeSums};
    use std::sync::Mutex;

    /// A small test cluster: `nodes` × 2 devices with `mem` bytes each.
    fn small_cluster(nodes: usize, mem: usize) -> ClusterSpec {
        ClusterSpec {
            nodes,
            node: NodeSpec {
                devices: 2,
                intra_link: LinkSpec::nvlink(),
            },
            device: DeviceSpec::v100_32gb().with_memory(mem),
            inter_link: LinkSpec::infiniband_100g(),
            lost_devices: Vec::new(),
            device_overrides: Vec::new(),
            link_overrides: Vec::new(),
        }
    }

    fn prep(g: &TaskGraph, mem: usize) -> (Profiler<'_>, Vec<Block>) {
        let device = DeviceSpec::v100_32gb().with_memory(mem);
        let profiler = Profiler::new(g, device, ProfilerOptions::fp32());
        let atomic = atomic_partition(g);
        let blocks = block_partition(
            g,
            &profiler,
            &atomic,
            BlockLimits {
                k: 8,
                mem_limit: mem,
                profile_batch: 4,
            },
        );
        (profiler, blocks)
    }

    #[test]
    fn small_model_uses_one_node_with_replicas() {
        // fits easily -> n = 1, R = #nodes, few stages
        let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
        let (profiler, blocks) = prep(&g, 32 << 30);
        let cluster = small_cluster(2, 32 << 30);
        let opts = SearchOptions::default();
        let sol = form_stage_with(&g, &profiler, &blocks, &cluster, 32, &opts)
            .0
            .expect("feasible");
        assert_eq!(sol.replica_factor, 2, "whole-pipeline replicas = N/n");
        assert!(sol.stages.len() <= 2);
        assert_eq!(sol.devices_per_replica(), 2);
    }

    #[test]
    fn big_model_small_memory_needs_more_stages() {
        // Shrink device memory so a single stage cannot hold the params;
        // the search must move to multi-stage solutions.
        let g = mlp_graph(&MlpConfig::deep(512, 512, 12, 10));
        // params ~ 12*512^2*4B = 12.6 MB; states 16/4×that ≈ 50 MB.
        // Devices with ~ 1.1 GiB fit easily; to force splitting give each
        // device only a hair above the fixed overhead.
        let mem = (1usize << 30) + 40 * (1 << 20); // overhead + 40 MB
        let (profiler, blocks) = prep(&g, mem);
        let cluster = small_cluster(2, mem);
        let opts = SearchOptions::default();
        let sol = form_stage_with(&g, &profiler, &blocks, &cluster, 32, &opts)
            .0
            .expect("feasible");
        assert!(
            sol.stages.len() >= 2,
            "expected multi-stage, got {}",
            sol.stages.len()
        );
        // every stage obeys the memory bound
        for st in &sol.stages {
            assert!(st.mem_bytes <= mem);
        }
    }

    #[test]
    fn infeasible_when_nothing_fits() {
        let g = mlp_graph(&MlpConfig::deep(512, 512, 8, 10));
        let mem = 1usize << 20; // 1 MiB: below even the fixed overhead
        let (profiler, blocks) = prep(&g, mem);
        let cluster = small_cluster(2, mem);
        let opts = SearchOptions::default();
        assert!(form_stage_with(&g, &profiler, &blocks, &cluster, 32, &opts)
            .0
            .is_none());
    }

    /// A search in which no stage fits memory rejects every stage from
    /// its set statistics: no range's time is ever priced.
    #[test]
    fn infeasible_search_never_prices_time() {
        let g = mlp_graph(&MlpConfig::deep(512, 512, 8, 10));
        let mem = 1usize << 20; // 1 MiB: below even the fixed overhead
        let (_, blocks) = prep(&g, mem);
        let cluster = small_cluster(2, mem);
        for tp_max in [1, 2] {
            let cost = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
            let opts = SearchOptions { threads: 2, tp_max };
            let (sol, stats) = form_stage_with(&g, &cost, &blocks, &cluster, 32, &opts);
            assert!(sol.is_none());
            // every cell is rejected from its stages' memory: proven by
            // the bound, or by a DP that evaluated stages
            assert!(stats.candidates > 0, "tp_max {tp_max}: no cell");
            assert!(
                stats.pruned == stats.candidates || stats.stage_cache.misses > 0,
                "tp_max {tp_max}: a DP evaluated no stage"
            );
            assert_eq!(cost.cache_stats().misses, 0, "tp_max {tp_max}");
        }
    }

    #[test]
    fn prefetch_span_carries_blocks_and_boundary_rows() {
        // the span reports the table's own block and boundary-row counts,
        // and both repeat exactly from run to run
        let _guard = rannc_obs::trace::test_guard();
        let g = rannc_models::bert_graph(&rannc_models::BertConfig::tiny());
        let (profiler, blocks) = prep(&g, 32 << 30);
        let rows = RangeTable::build(&profiler, &blocks).boundary_rows();
        assert!(blocks.len() > 1 && rows > 0);

        let cluster = small_cluster(2, 32 << 30);
        let tid = rannc_obs::trace::current_tid();
        let arg = |args: &[(&str, rannc_obs::trace::ArgVal)], key| {
            args.iter().find_map(|(k, v)| match v {
                rannc_obs::trace::ArgVal::Int(i) if *k == key => Some(*i as usize),
                _ => None,
            })
        };
        let opts = SearchOptions::default();
        for _ in 0..2 {
            rannc_obs::set_enabled(true);
            rannc_obs::trace::reset();
            form_stage_with(&g, &profiler, &blocks, &cluster, 32, &opts)
                .0
                .expect("feasible");
            rannc_obs::set_enabled(false);
            // other tests may trace concurrently: keep this thread's span
            let span = rannc_obs::trace::drain_events()
                .into_iter()
                .find(|e| e.tid == tid && e.name == "prefetch_ranges")
                .expect("prefetch_ranges span");
            assert_eq!(arg(&span.args, "blocks"), Some(blocks.len()));
            assert_eq!(arg(&span.args, "boundary_rows"), Some(rows));
        }
        rannc_obs::trace::reset();
    }

    /// Forwards to a profiler, counting the stages whose memory fits the
    /// device and the stages whose time is priced.
    struct Counting<'a> {
        inner: Profiler<'a>,
        mem_ok: Mutex<u64>,
        timed: Mutex<u64>,
    }

    impl<'a> Counting<'a> {
        fn new(g: &'a TaskGraph, cluster: &ClusterSpec) -> Self {
            Counting {
                inner: Profiler::new(g, cluster.device.clone(), ProfilerOptions::fp32()),
                mem_ok: Mutex::new(0),
                timed: Mutex::new(0),
            }
        }
    }

    /// The stages within memory that the memory-only bound of the first
    /// `tiers` node tiers' groups counts: its share of a [`Counting`]
    /// model's `mem_ok` over a search of those tiers.
    fn bound_mem_ok(
        g: &TaskGraph,
        blocks: &[Block],
        cluster: &ClusterSpec,
        batch_size: usize,
        tp_max: usize,
        tiers: usize,
    ) -> u64 {
        let cost = Counting::new(g, cluster);
        let ranges = RangeTable::build(&cost, blocks);
        for tier in tier_grids(g, cluster, batch_size, tp_max).take(tiers) {
            for members in group_cells(&tier.cells) {
                let group: Vec<DpParams> = members.iter().map(|&i| tier.cells[i]).collect();
                proven_infeasible(&cost, &ranges, &group);
            }
        }
        let mem_ok = *cost.mem_ok.lock().unwrap();
        mem_ok
    }

    impl CostModel for Counting<'_> {
        fn profiler(&self) -> &Profiler<'_> {
            &self.inner
        }
        fn stage_price(
            &self,
            set: &ProfiledSet<'_>,
            time: TimeSums,
            batch: usize,
            inflight: usize,
            ckpt: bool,
            tp: usize,
        ) -> rannc_profile::ProfileResult {
            *self.timed.lock().unwrap() += 1;
            self.inner.stage_price(set, time, batch, inflight, ckpt, tp)
        }
        fn stage_mem(
            &self,
            set: &ProfiledSet<'_>,
            batch: usize,
            inflight: usize,
            ckpt: bool,
            tp: usize,
        ) -> usize {
            let mem = self.inner.stage_mem(set, batch, inflight, ckpt, tp);
            if mem <= self.inner.device().memory_bytes {
                *self.mem_ok.lock().unwrap() += 1;
            }
            mem
        }
        fn bound_mem(
            &self,
            bound: &StatsBound,
            batch: usize,
            inflight: usize,
            ckpt: bool,
            tp: usize,
        ) -> usize {
            self.inner.bound_mem(bound, batch, inflight, ckpt, tp)
        }
        fn comm_bytes(&self, from: &TaskSet, to: &TaskSet, batch: usize) -> usize {
            CostModel::comm_bytes(&self.inner, from, to, batch)
        }
        fn transfer_time(&self, link: LinkSpec, bytes: usize) -> f64 {
            self.inner.transfer_time(link, bytes)
        }
    }

    /// In a feasible search under memory pressure, only stages that fit
    /// are timed, and every time comes from block time slots: no more
    /// stages are timed than the DPs found within memory, and each timed
    /// stage reads at least one slot.
    #[test]
    fn feasible_search_times_only_memory_feasible_stages() {
        let g = mlp_graph(&MlpConfig::deep(512, 512, 12, 10));
        let mem = (1usize << 30) + 40 * (1 << 20); // overhead + 40 MB
        let (_, blocks) = prep(&g, mem);
        let cluster = small_cluster(2, mem);
        for tp_max in [1, 2] {
            let cost = Counting::new(&g, &cluster);
            let opts = SearchOptions { threads: 2, tp_max };
            let (sol, stats) = form_stage_with(&g, &cost, &blocks, &cluster, 32, &opts);
            assert!(sol.is_some());
            // the DPs' stages within memory: the bound's are not evaluations
            let bound = bound_mem_ok(&g, &blocks, &cluster, 32, tp_max, stats.node_tiers);
            let mem_ok = *cost.mem_ok.lock().unwrap() - bound;
            assert!(
                mem_ok < stats.stage_cache.misses,
                "no stage was over memory: the case does not test the ordering"
            );
            let timed = *cost.timed.lock().unwrap();
            assert!(
                timed <= mem_ok,
                "tp_max {tp_max}: {timed} stages timed, {mem_ok} stages fit memory"
            );
            let slots = cost.cache_stats();
            assert!(
                slots.hits + slots.misses >= timed,
                "tp_max {tp_max}: {slots:?}"
            );
        }
    }

    #[test]
    fn score_prefers_fewer_pipeline_slots() {
        let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
        let (profiler, blocks) = prep(&g, 32 << 30);
        let cluster = small_cluster(1, 32 << 30);
        let opts = SearchOptions::default();
        let sol = form_stage_with(&g, &profiler, &blocks, &cluster, 64, &opts)
            .0
            .expect("feasible");
        // the chosen MB should not be the degenerate maximum (which would
        // inflate fill/drain time without memory need)
        assert!(sol.microbatches <= 64);
        assert!(score_solution(&sol, &cluster, &profiler) >= sol.estimated_iteration_time());
    }
}
