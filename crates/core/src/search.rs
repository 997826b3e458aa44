//! Stage-count / device-allocation search: Algorithm 2 (the paper's
//! `form_stage`, §III-C), entered through [`form_stage_with`].
//!
//! The outer loop doubles the number of compute nodes `n` dedicated to one
//! pipeline replica. From `n` it derives the device budget `D = D_node·n`
//! and the pipeline-replica factor `R = N/n`, then scans stage counts
//! `S ∈ (D_node·(n−1), D_node·n]`, micro-batch counts `MB = 1, 2, 4, …`
//! `≤ ⌊BS/R⌋` and tensor-parallel degrees `T ≤ tp_max` ([`tier_grids`]
//! builds each tier's grid). The first tier with any feasible cell wins;
//! of its cells the one with the lowest [`score_solution`] is returned,
//! the first minimum in grid order. [`scan_first_feasible_tier`] returns
//! that whole tier, and [`form_stage_with`] its winner, with its stage
//! cuts refined at atom granularity when that scores strictly lower
//! ([`crate::refine`]). Both return what the search did alongside:
//! [`SearchStats::tiers`] holds every settled cell of every tier walked
//! and [`SearchStats::refine`] the refinement, the values
//! [`crate::Rannc::explain`] builds the explain artifact from.
//!
//! Aligning `D` to whole nodes keeps inter-stage traffic on NVLink, which
//! is also why Algorithm 1 plans with the intra-node link (footnote 3).
//!
//! ## The best-first walk
//!
//! A tier's `S × MB × T` grid holds one independent `form_stage_dp`
//! invocation per cell, and one cell wins. [`scan_first_feasible_tier`]
//! builds every block-range union once ([`RangeTable::build`]), groups
//! the grid by `(MB, T)` and settles every cell on the calling thread:
//!
//! 1. [`proven_infeasible`] proves, per group, the cells whose `S` stages
//!    need more than their `D` data-parallel units to fit memory. A proven
//!    cell is recorded INFEASIBLE and counts in [`SearchStats::pruned`]
//!    (118 of bert256-d128's 120 cells, every INFEASIBLE one).
//! 2. Every other cell gets [`score_bound`], a lower bound on the score
//!    of any solution Algorithm 1 can return for it.
//! 3. Those cells run best-first, in `(bound, grid index)` order. A cell
//!    is skipped when its bound is strictly above the best score so far,
//!    or, once a cell is solved, when [`bottleneck_bound`] proves that no
//!    split of it scores at most the best: the memory proof's range DP,
//!    rerun with each range's need raised to the fewest units on which
//!    its stage time leaves room for the best score. Any other cell runs
//!    its DP. A skipped cell is recorded BOUNDED with a lower bound on
//!    its score strictly above the best score at the time, and counts in
//!    [`SearchStats::bounded`]. On resnet152x8-d128, 2 of the 34 open
//!    cells run their DP (27 skipped by their bound, 5 by the test).
//!
//! The cells of one group share one [`DpArena`], whose flat
//! `(b_prev, b, repl)` memo filled by one stage count answers most
//! lookups of the next. A group draws it from its thread's spare list on
//! its first DP (`DpArena::draw`) and the tier shelves it when its walk
//! ends (`DpArena::shelve`), so later tiers and requests reuse the
//! allocations but never a memo entry. [`SearchStats::stage_cache`] sums
//! the groups' memo counters.
//!
//! **One thread.** A search runs on its calling thread from start to
//! end, and its state is plain single-thread state: the cost model is
//! not `Sync`, the profiler counts its time-slot fills and reads in
//! cells, the range table keeps its slot rows in a `RefCell`, and the
//! arena spare list is thread-local. Searches on different threads may
//! share their read-only inputs (graph, blocks, cluster), but each needs
//! a cost model of its own.
//!
//! **Exactness and determinism.** A skipped cell scores strictly above
//! some solved cell's score, so it cannot be a minimum; a cell that ties
//! the winner has a bound at most the best score at every step and a
//! split that scores at most it, so its DP runs. The winner is the first
//! minimum in grid order over the solved cells, the cell a scan that
//! solves every cell picks. DP results are pure functions of their parameters
//! (arena memo entries equal fresh evaluations exactly), and the walk's
//! order, so the set of DPs run and every search counter, is a pure
//! function of the tier. The `determinism` integration suite pins this
//! against such a scan with a fresh arena per cell, and the refined plan
//! against the test-support refinement of that scan's winner.

use crate::blocks::Block;
use crate::dp::{form_stage_dp, micro_batch, DpArena, DpParams, DpSolution};
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

/// The relative slack [`score_bound`] gives up against floating-point
/// rounding, `2⁻³⁰`: millions of ulps above the few its prices carry.
pub const BOUND_SLACK: f64 = 1.0 / (1u64 << 30) as f64;

/// A lower bound on the [`score_solution`] of every solution Algorithm 1
/// can return for cell `p` on the tier's placement table `slots`, for a
/// cell the memory bound leaves open (`S ≤ D`, `samples = ⌊BS/R/MB⌋ ≥ 1`):
/// `tail.after((MB + S − 1)·ρ·W/D)`, where
///
/// - `W` is forward plus backward time of the whole block list priced as
///   one stage ([`CostModel::stage_cost_tp`]) at micro-batch `samples`,
///   degree `T` and the cell's residency;
/// - `ρ = min r·⌊samples/r⌋/samples` over `r ∈ [1, min(D − S + 1,
///   samples)]`, the replica counts a stage can take;
/// - the tail is the gradient all-reduce of a `⌈P/S⌉`-parameter stage
///   over `R` replicas, with the cell's own `spans_nodes`, plus the
///   optimizer step on `⌈P/S⌉·4/T` bytes, `P` the list's parameters.
///
/// A stage on `r` units runs `⌊samples/r⌋ ≥ ρ·samples/r` samples, and
/// its time per sample is nonincreasing in its micro-batch; the split's
/// `Σ r = D` units and its stages' times, which together are at least
/// `W` ([`CostModel`]), then give `V ≥ max tᶠ + tᵇ ≥ ρ·W/D`. The largest
/// stage holds at least `⌈P/S⌉` parameters and all-reduces over at
/// least `R` replicas. DESIGN.md §14 has the whole proof. Three cases
/// keep it sound beyond that argument:
///
/// - **Faster slots.** A stage on a device group faster than the template
///   ([`SlotTable::group_scale`] below 1) computes faster: `V`'s bound is
///   scaled by the fastest slot's scale ([`SlotTable::fastest_scale`])
///   when it is below 1.
/// - **Profiling noise.** With amplitude `σ > 0` every priced time is its
///   noise-free time times a draw in `[1 − σ, 1 + σ]`, `W` included: `V`'s
///   bound is widened by the noise band, `(1 − σ)/(1 + σ)`.
/// - **Floating point.** The prices are rounded, so the bound is lowered
///   by the relative slack [`BOUND_SLACK`].
pub fn score_bound(
    cost: &dyn CostModel,
    ranges: &RangeTable,
    cluster: &ClusterSpec,
    slots: &SlotTable,
    p: &DpParams,
) -> f64 {
    bound_and_tail(cost, ranges, cluster, slots, p).0
}

/// [`score_bound`] of cell `p`, and the bound on the iteration tail it
/// adds to its bound on the pipeline.
fn bound_and_tail(
    cost: &dyn CostModel,
    ranges: &RangeTable,
    cluster: &ClusterSpec,
    slots: &SlotTable,
    p: &DpParams,
) -> (f64, IterationTail) {
    let (nb, s, d) = (ranges.blocks(), p.stages, p.devices);
    let samples = micro_batch(p.batch_size, p.replica_factor, p.microbatches, 1);
    debug_assert!(
        1 <= s && s <= d && samples >= 1,
        "a cell the memory bound leaves open"
    );
    let Residency {
        inflight,
        checkpointing,
    } = Residency::fill_drain(s, p.microbatches);
    let whole = &ranges.get(0, nb).set;
    let time = ranges.time(cost.profiler(), (samples, p.tp), 0, nb);
    let w = cost.stage_cost_tp(whole, time, samples, inflight, checkpointing, p.tp, cluster);
    let rho = (1..=samples.min(d + 1 - s))
        .map(|r| r * (samples / r))
        .min()
        .unwrap_or(samples) as f64
        / samples as f64;
    let v = (w.fwd_time + w.bwd_time) * rho / d as f64 * noise_band(cost) * speed(slots);
    let grads = StageGrads::of_params(w.param_elems.div_ceil(s), 1, p.tp);
    let spans_nodes = p.replica_factor > 1 || d * p.tp > cluster.node.devices;
    let factors = cost.factors();
    let tail = IterationTail {
        allreduce: grads.allreduce_time(cluster, factors, p.replica_factor, spans_nodes),
        optimizer: factors.optimizer_time(&cluster.device, grads.grad_bytes),
        spans_nodes,
    };
    let bound = sync_iteration_time(s, p.microbatches, v, tail) * (1.0 - BOUND_SLACK);
    (bound, tail)
}

/// The noise band `(1 − σ)/(1 + σ)` of the cost model's profiling noise:
/// the least ratio of two priced times whose noise-free times agree.
fn noise_band(cost: &dyn CostModel) -> f64 {
    let sigma = cost.options().noise_sigma;
    ((1.0 - sigma) / (1.0 + sigma)).max(0.0)
}

/// The fastest slot's scale of `slots`, capped at 1: no stage of the tier
/// computes faster than its template price times this.
fn speed(slots: &SlotTable) -> f64 {
    slots.fastest_scale().min(1.0)
}

/// Tuning knobs of the partition-search engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOptions {
    /// Largest tensor-parallel degree `T` the sweep may try per stage
    /// (the third search axis). `1` disables intra-op partitioning and
    /// reproduces the historical `(S, MB)` grid bit for bit.
    pub tp_max: usize,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions { tp_max: 1 }
    }
}

/// What one [`scan_first_feasible_tier`] run did: its counters, the
/// cells it settled and the winner's refinement. Each is a pure function
/// of the search's inputs.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Algorithm 1 candidates: the grid cells of every node tier searched,
    /// proven and bounded ones included.
    pub candidates: usize,
    /// DP invocations that returned a feasible solution.
    pub feasible: usize,
    /// Grid cells the memory-only bound ([`proven_infeasible`]) proved
    /// INFEASIBLE, so Algorithm 1 never ran them. Counted in
    /// `candidates`, never in `feasible`.
    pub pruned: usize,
    /// Grid cells the walk skipped because their [`score_bound`] was
    /// strictly above a solved cell's score, or their bottleneck test
    /// ([`bottleneck_bound`]) proved that none of their splits scores at
    /// most it, so Algorithm 1 never ran them. Counted in `candidates`,
    /// never in `feasible` or `pruned`.
    pub bounded: usize,
    /// Node tiers (`n` values) examined.
    pub node_tiers: usize,
    /// The scan winner's optimality gap: its score over its own
    /// [`score_bound`], at least 1. `None` when the search is INFEASIBLE.
    pub gap: Option<f64>,
    /// DP arena memo behaviour, summed over the sweep's `(MB, T)` groups
    /// (the refinement's DP is not counted): `hits` are memo hits,
    /// `misses` (and so `entries()`) stage evaluations.
    pub stage_cache: CacheStats,
    /// The node tiers walked, in sweep order: every tier but the last
    /// holds only INFEASIBLE cells, and the last holds the winner unless
    /// the search is INFEASIBLE.
    pub tiers: Vec<TierScan>,
    /// The scan winner's stage-cut refinement ([`form_stage_with`] only);
    /// `None` when the search is INFEASIBLE or the refinement proposed no
    /// cut.
    pub refine: Option<RefineRec>,
}

/// Close one search's [`SearchStats`] (exact for this invocation) and add
/// its totals to the process-global metrics registry (cumulative).
fn finish(stats: SearchStats) -> SearchStats {
    for (name, n) in [
        ("candidates", stats.candidates),
        ("feasible", stats.feasible),
        ("pruned", stats.pruned),
        ("bounded", stats.bounded),
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
/// function of the group.
pub fn proven_infeasible(
    cost: &dyn CostModel,
    ranges: &RangeTable,
    cells: &[DpParams],
) -> Vec<bool> {
    match cells.first() {
        Some(p) => GroupBounds::new(cost, ranges, p).proven(cells),
        None => Vec::new(),
    }
}

/// The bottleneck test of cell `p` against a score `best`, for a cell the
/// memory bound leaves open, on the tier's placement table `slots`:
/// `Some(bound)` when no solution Algorithm 1 can return for the cell
/// scores at most `best`, with `bound` a lower bound on the cell's score
/// strictly above `best`; `None` when some split might.
///
/// A split that scores at most `best` has a bottleneck
/// `V ≤ x = (best − tail)/(MB + S − 1)`, `tail` the tail bound of
/// [`score_bound`]; `best` is raised by the relative slack
/// [`BOUND_SLACK`] against rounding. Each block range gets a need,
/// `max(r_min, r_time(x))`: `r_min` the memory proof's
/// ([`proven_infeasible`]), and `r_time(x)` the fewest units on which the
/// range's stage-time lower bound
/// `c·⌊samples/r⌋·w/samples` is at most `x`, where `w` is the range's
/// forward plus backward time as one stage at micro-batch `samples`,
/// degree `T` and the cell's residency, and `c` is the noise band times
/// the fastest slot's scale (capped at 1) times `1 − BOUND_SLACK`. A
/// stage on `r` units runs `⌊samples/r⌋ ≤ samples` samples and its time
/// per sample is nonincreasing in its micro-batch, so its `tᶠ + tᵇ` is at
/// least that lower bound, and `V ≥ maxᵢ (tᶠᵢ + tᵇᵢ)`. Every stage of a
/// split within `best` therefore has `rᵢ ≥ needᵢ`, and the split
/// `Σ rᵢ = D ≥ Σ needᵢ`: the cell is skipped when the memory proof's
/// range DP, run with these needs, finds no split into `S` ranges on at
/// most `D` units. The recorded bound is `tail + (MB + S − 1)·x⁺`, `x⁺` the
/// least stage-time lower bound above `x` the test excluded: every split
/// has a stage on such an excluded `(range, units)` pair. DESIGN.md §14
/// has the whole proof.
pub fn bottleneck_bound(
    cost: &dyn CostModel,
    ranges: &RangeTable,
    cluster: &ClusterSpec,
    slots: &SlotTable,
    p: &DpParams,
    best: f64,
) -> Option<f64> {
    let (_, tail) = bound_and_tail(cost, ranges, cluster, slots, p);
    GroupBounds::new(cost, ranges, p).bottleneck(cluster, slots, p.stages, tail, best)
}

/// A range no unit count the split allows admits; an unreached prefix.
const NONE: usize = usize::MAX;

/// The range DP of both bounds: `fewest[s]` for `s ∈ [s_min, s_max]`, the
/// least `Σ need(from, to)` over the splits of the blocks `[0, nb)` into
/// `s` contiguous ranges, exact up to `d`, or [`NONE`]. A prefix on `d`
/// units or more leaves no unit for the next range, so it is never
/// extended; row `s` holds only the prefixes a split into `s_min` ranges
/// or more can extend, and the last row only the whole list; `need` is
/// asked only of the ranges an extended prefix reaches.
fn fewest_units(
    nb: usize,
    (s_min, s_max): (usize, usize),
    d: usize,
    mut need: impl FnMut(usize, usize) -> usize,
) -> Vec<usize> {
    let mut fewest = vec![NONE; s_max + 1];
    // row[b]: the fewest units that split blocks [0, b) into s ranges
    let mut row: Vec<usize> = (0..=nb).map(|b| if b == 0 { 0 } else { NONE }).collect();
    for (s, fewest) in fewest.iter_mut().enumerate().skip(1) {
        let reach = if s == s_max { nb } else { s };
        let last = nb - s_min.saturating_sub(s);
        row = (0..=nb)
            .map(|b| {
                if b < reach || b > last {
                    return NONE;
                }
                ((s - 1)..b)
                    .filter(|&b_prev| row[b_prev] < d)
                    .map(|b_prev| row[b_prev].saturating_add(need(b_prev, b)))
                    .min()
                    .unwrap_or(NONE)
            })
            .collect();
        *fewest = row[nb];
    }
    fewest
}

/// The per-range prices one `(R, MB, T)` group's two bounds share, each
/// priced on first use and kept for the tier's walk: `r_min`, the fewest
/// units on which a range fits memory ([`proven_infeasible`]), and `w`, its
/// forward plus backward time as one stage at micro-batch `samples`
/// ([`bottleneck_bound`]). Prices sit per residency class: class 0 is
/// `S = 1`, without checkpointing; class 1 is every `S ≥ 2`, whose
/// residency is the same for all of them.
struct GroupBounds<'a> {
    cost: &'a dyn CostModel,
    ranges: &'a RangeTable,
    /// A cell of the group: every parameter but `stages` is the group's.
    p: DpParams,
    /// `⌊BS/R/MB⌋`: the micro-batch of a stage on one unit.
    samples: usize,
    /// `r_min` per class and range `[from, to)`, at `from·(nb + 1) + to`;
    /// 0: not yet priced (`r_min ≥ 1`).
    mem: [Vec<usize>; 2],
    /// `w` per class and range; NaN: not yet priced.
    work: [Vec<f64>; 2],
}

impl<'a> GroupBounds<'a> {
    fn new(cost: &'a dyn CostModel, ranges: &'a RangeTable, p: &DpParams) -> Self {
        GroupBounds {
            cost,
            ranges,
            p: *p,
            samples: micro_batch(p.batch_size, p.replica_factor, p.microbatches, 1),
            mem: Default::default(),
            work: Default::default(),
        }
    }

    /// The slot of range `[from, to)` in a price table.
    fn slot(&self, from: usize, to: usize) -> usize {
        from * (self.ranges.blocks() + 1) + to
    }

    /// What every stage of a class keeps resident.
    fn residency(&self, class: usize) -> Residency {
        Residency::fill_drain(class + 1, self.p.microbatches)
    }

    /// The most units a stage of a class can take: `min(samples, D − S + 1)`
    /// at the class's least `S`. The split's other stages hold a unit each.
    fn top(&self, class: usize) -> usize {
        self.samples.min(self.p.devices - class)
    }

    /// `r_min` of range `[from, to)` in `class`, or [`NONE`] when it does
    /// not fit on [`GroupBounds::top`] units: one [`CostModel::stage_mem`]
    /// call there and a binary search below.
    fn r_mem(&mut self, class: usize, from: usize, to: usize) -> usize {
        let k = self.slot(from, to);
        if self.mem[class].is_empty() {
            let nb = self.ranges.blocks();
            self.mem[class] = vec![0; nb * (nb + 1)];
        }
        if self.mem[class][k] != 0 {
            return self.mem[class][k];
        }
        let p = &self.p;
        let Residency {
            inflight,
            checkpointing,
        } = self.residency(class);
        let set = &self.ranges.get(from, to).set;
        let fits = |repl| {
            let micro = micro_batch(p.batch_size, p.replica_factor, p.microbatches, repl);
            self.cost
                .stage_mem(set, micro, inflight, checkpointing, p.tp)
                <= p.mem_limit
        };
        let top = self.top(class);
        let r = if fits(top) {
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
        } else {
            NONE
        };
        self.mem[class][k] = r;
        r
    }

    /// `w` of range `[from, to)` in `class`: its forward plus backward time
    /// as one stage ([`CostModel::stage_cost_tp`]) at micro-batch
    /// `samples`, degree `T` and the class's residency. The time sums
    /// read the `(samples, T)` slot row [`score_bound`] fills.
    fn work(&mut self, cluster: &ClusterSpec, class: usize, from: usize, to: usize) -> f64 {
        let k = self.slot(from, to);
        if self.work[class].is_empty() {
            let nb = self.ranges.blocks();
            self.work[class] = vec![f64::NAN; nb * (nb + 1)];
        }
        if self.work[class][k].is_nan() {
            let (p, samples) = (&self.p, self.samples);
            let Residency {
                inflight,
                checkpointing,
            } = self.residency(class);
            let set = &self.ranges.get(from, to).set;
            let time = self
                .ranges
                .time(self.cost.profiler(), (samples, p.tp), from, to);
            let w =
                self.cost
                    .stage_cost_tp(set, time, samples, inflight, checkpointing, p.tp, cluster);
            self.work[class][k] = w.fwd_time + w.bwd_time;
        }
        self.work[class][k]
    }

    /// [`proven_infeasible`] of `cells`, cells of this group.
    fn proven(&mut self, cells: &[DpParams]) -> Vec<bool> {
        debug_assert!(
            cells.iter().all(|c| DpParams {
                stages: self.p.stages,
                ..*c
            } == self.p),
            "cells of one (R, MB, T) group"
        );
        let (nb, d, samples) = (self.ranges.blocks(), self.p.devices, self.samples);
        // stage counts no cheaper test decides: S ≤ nb, S ≤ D, D ≤ S·samples
        let open = |s: usize| s >= 1 && s <= nb.min(d) && d <= s * samples;
        // fewest[s] at checkpointing residency, for the group's open S ≥ 2
        // (S = 1 is priced without checkpointing below)
        let multi = (cells.iter().map(|c| c.stages)).filter(|&s| s >= 2 && open(s));
        let fewest = match (multi.clone().min(), multi.max()) {
            (Some(s_min), Some(s_max)) => {
                fewest_units(nb, (s_min, s_max), d, |from, to| self.r_mem(1, from, to))
            }
            _ => Vec::new(),
        };
        (cells.iter())
            .map(|c| match c.stages {
                s if !open(s) => true,
                1 => self.r_mem(0, 0, nb) > d,
                s => fewest[s] > d,
            })
            .collect()
    }

    /// [`bottleneck_bound`] of the group's cell with `s` stages, whose
    /// tail bound is `tail`, on the tier's `slots`.
    fn bottleneck(
        &mut self,
        cluster: &ClusterSpec,
        slots: &SlotTable,
        s: usize,
        tail: IterationTail,
        best: f64,
    ) -> Option<f64> {
        let (nb, d, samples) = (self.ranges.blocks(), self.p.devices, self.samples);
        let class = usize::from(s > 1);
        let top = self.top(class);
        let mb = self.p.microbatches;
        // the largest bottleneck a split scoring at most `best` can have,
        // raised by the slack against rounding in `best − tail`
        let x = (best * (1.0 + BOUND_SLACK) - tail.after(0.0)) / (mb + s - 1) as f64;
        let c = noise_band(self.cost) * speed(slots) * (1.0 - BOUND_SLACK);
        // x⁺: the least stage-time lower bound above x the needs excluded
        let mut above = f64::INFINITY;
        let mut needs = vec![0; nb * (nb + 1)];
        let fewest = fewest_units(nb, (s, s), d, |from, to| {
            let k = self.slot(from, to);
            if needs[k] == 0 {
                let r_mem = self.r_mem(class, from, to);
                needs[k] = if r_mem == NONE {
                    NONE
                } else {
                    let per_sample = c * self.work(cluster, class, from, to) / samples as f64;
                    let bound = |r: usize| per_sample * (samples / r) as f64;
                    if bound(r_mem) <= x {
                        r_mem
                    } else if bound(top) > x {
                        above = above.min(bound(top));
                        NONE
                    } else {
                        // bound(lo − 1) > x ≥ bound(hi): it is nonincreasing
                        let (mut lo, mut hi) = (r_mem + 1, top);
                        while lo < hi {
                            let mid = (lo + hi) / 2;
                            if bound(mid) <= x {
                                hi = mid;
                            } else {
                                lo = mid + 1;
                            }
                        }
                        above = above.min(bound(lo - 1));
                        lo
                    }
                };
            }
            needs[k]
        });
        (fewest[s] > d).then(|| {
            // the cell is open, so some range the DP reached needs more
            // units for its time than for its memory
            debug_assert!(above.is_finite(), "a skip without a time-excluded pair");
            sync_iteration_time(s, mb, above, tail).max(best.next_up())
        })
    }
}

/// How one grid cell of a [`TierScan`] ended.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// Algorithm 1 ran and returned `solution`, scored `score`
    /// ([`score_solution`]); `bound` is the cell's [`score_bound`].
    Solved {
        /// The solution's [`score_solution`].
        score: f64,
        /// The cell's [`score_bound`], at most `score`.
        bound: f64,
        /// Algorithm 1's solution.
        solution: DpSolution,
    },
    /// Algorithm 1 never ran: `bound`, a lower bound on the cell's score,
    /// is strictly above the score of a solved cell of the tier, so the
    /// cell cannot win.
    Bounded {
        /// The cell's [`score_bound`] when that is above the best score
        /// the walk had found, else the bound its bottleneck test records
        /// ([`bottleneck_bound`]).
        bound: f64,
    },
    /// Algorithm 1 returned INFEASIBLE, or the memory bound proved it
    /// would ([`proven_infeasible`]).
    Infeasible,
}

/// One grid cell of a [`TierScan`].
#[derive(Debug, Clone)]
pub struct ScanCell {
    /// The cell's Algorithm 1 inputs.
    pub params: DpParams,
    /// How the cell ended.
    pub outcome: CellOutcome,
}

impl ScanCell {
    /// The cell's score and solution when Algorithm 1 solved it.
    pub fn solved(&self) -> Option<(f64, &DpSolution)> {
        match &self.outcome {
            CellOutcome::Solved {
                score, solution, ..
            } => Some((*score, solution)),
            _ => None,
        }
    }
}

/// One node tier the search walked, every cell solved, bounded or
/// proven INFEASIBLE.
#[derive(Debug, Clone)]
pub struct TierScan {
    /// Compute nodes `n` dedicated to one pipeline replica.
    pub nodes: usize,
    /// Device budget `D = D_node·n` of one pipeline replica.
    pub devices: usize,
    /// Whole-pipeline replicas `R = N/n`.
    pub replica_factor: usize,
    /// Every cell of the tier, in grid order.
    pub cells: Vec<ScanCell>,
    /// Index in `cells` of the winner: the first solved cell with the
    /// minimal score; `None` when every cell is INFEASIBLE.
    pub winner: Option<usize>,
}

/// Algorithm 2 (`form_stage(N, D_node, BS)`): the tiers of
/// [`tier_grids`] in order, each walked best-first (see the module doc),
/// up to the first tier with a feasible cell. Returns that tier, or
/// `None` if the model cannot be partitioned onto the cluster at all
/// (INFEASIBLE), with the search statistics alongside; the statistics
/// hold that tier too, as their last.
pub fn scan_first_feasible_tier(
    g: &TaskGraph,
    cost: &dyn CostModel,
    blocks: &[Block],
    cluster: &ClusterSpec,
    batch_size: usize,
    opts: &SearchOptions,
) -> (Option<TierScan>, SearchStats) {
    let (slots, stats, _) = scan(g, cost, blocks, cluster, batch_size, opts);
    (slots.and(stats.tiers.last().cloned()), stats)
}

/// [`scan_first_feasible_tier`], with the winning tier's placement table
/// (`None`: INFEASIBLE) and the range table it built. The winning tier
/// is the last of the statistics' tiers.
fn scan(
    g: &TaskGraph,
    cost: &dyn CostModel,
    blocks: &[Block],
    cluster: &ClusterSpec,
    batch_size: usize,
    opts: &SearchOptions,
) -> (Option<SlotTable>, SearchStats, RangeTable) {
    debug_assert_eq!(
        g.num_tasks(),
        cost.graph().num_tasks(),
        "blocks of another graph"
    );
    let mut stats = SearchStats::default();

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
        // All cells of the tier are settled before choosing: for
        // memory-tight models the minimum feasible S is often not the
        // fastest one (more stages allow more micro-batches and finer
        // balance), and the paper's "return Best sol in A" picks among
        // all of a tier's solutions.
        stats.candidates += grid.len();
        // one placement table per tier: it depends only on (D, R)
        let slots = SlotTable::build(cluster, d, r, cost.device(), cost.options().precision);
        let groups = group_cells(&grid);
        let sweep = rannc_obs::trace::span("sweep", "planner")
            .arg_i("n", n as i64)
            .arg_i("candidates", grid.len() as i64)
            .arg_i("groups", groups.len() as i64);
        // one `dp` span per grid cell, proven and bounded ones included
        let dp_span = |p: &DpParams| {
            rannc_obs::trace::span("dp", "planner")
                .arg_i("S", p.stages as i64)
                .arg_i("MB", p.microbatches as i64)
                .arg_i("T", p.tp as i64)
                .arg_i("n", n as i64)
        };
        let mut cells: Vec<ScanCell> = (grid.iter())
            .map(|&params| ScanCell {
                params,
                outcome: CellOutcome::Infeasible,
            })
            .collect();
        // The memory bound proves cells INFEASIBLE group by group; the
        // others get their score bound, as (bound, cell, group, tail bound).
        // Each group keeps its range prices for the bottleneck tests.
        let mut open: Vec<(f64, usize, usize, IterationTail)> = Vec::new();
        let mut bounds: Vec<GroupBounds> = Vec::with_capacity(groups.len());
        for (group, members) in groups.iter().enumerate() {
            let params: Vec<DpParams> = members.iter().map(|&i| grid[i]).collect();
            let mut group_bounds = GroupBounds::new(cost, &ranges, &params[0]);
            for (&i, proven) in members.iter().zip(group_bounds.proven(&params)) {
                let p = &grid[i];
                if proven {
                    stats.pruned += 1;
                    let span = dp_span(p).arg_i("visits", 0).arg_i("evals", 0);
                    let _dp = span.arg_i("proven", 1);
                } else {
                    let (bound, tail) = bound_and_tail(cost, &ranges, cluster, &slots, p);
                    open.push((bound, i, group, tail));
                }
            }
            bounds.push(group_bounds);
        }
        // Best first, ties in grid order: a cell runs unless its bound is
        // strictly above the best score so far or, once a cell is solved,
        // its bottleneck test proves it cannot score at most the best.
        // Each group's DPs share the one arena it draws on its first.
        open.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut arenas: Vec<Option<DpArena>> = groups.iter().map(|_| None).collect();
        let mut best = f64::INFINITY;
        for (bound, i, group, tail) in open {
            let p = &grid[i];
            let span = dp_span(p);
            let skip = if bound > best {
                Some(bound)
            } else if best.is_finite() {
                bounds[group].bottleneck(cluster, &slots, p.stages, tail, best)
            } else {
                None
            };
            if let Some(bound) = skip {
                stats.bounded += 1;
                cells[i].outcome = CellOutcome::Bounded { bound };
                let span = span.arg_i("visits", 0).arg_i("evals", 0);
                let _dp = span.arg_i("bounded", 1);
                continue;
            }
            let arena = arenas[group].get_or_insert_with(DpArena::draw);
            let ctx = DpCtx::new(cost, &ranges, cluster, &slots, p);
            let (visits, evals) = (arena.visits(), arena.misses());
            let sol = form_stage_dp(&ctx, arena);
            // predecessor pairs walked and stages evaluated (memo misses)
            // by this DP alone
            let _dp = span
                .arg_i("visits", (arena.visits() - visits) as i64)
                .arg_i("evals", (arena.misses() - evals) as i64);
            if let Some(solution) = sol {
                let score = score_solution(&solution, cluster, cost);
                best = best.min(score);
                stats.feasible += 1;
                cells[i].outcome = CellOutcome::Solved {
                    score,
                    bound,
                    solution,
                };
            }
        }
        let arenas: Vec<DpArena> = arenas.into_iter().flatten().collect();
        for arena in &arenas {
            stats.stage_cache.hits += arena.hits();
            stats.stage_cache.misses += arena.misses();
        }
        DpArena::shelve(arenas);
        drop(sweep);
        // Deterministic tie-break: min_by keeps the *first* minimum in grid
        // order, the cell a scan that solves every cell picks.
        let winner = (cells.iter().enumerate())
            .filter_map(|(i, c)| c.solved().map(|(score, _)| (i, score)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i);
        if let Some(CellOutcome::Solved { score, bound, .. }) = winner.map(|w| &cells[w].outcome) {
            stats.gap = Some(score / bound);
        }
        stats.tiers.push(TierScan {
            nodes: n,
            devices: d,
            replica_factor: r,
            cells,
            winner,
        });
        if winner.is_some() {
            return (Some(slots), finish(stats), ranges);
        }
    }
    (None, finish(stats), ranges)
}

/// Algorithm 1 on cell `p` of a tier, through a freshly drawn arena,
/// scored: the result the walk records when it runs the cell. For
/// harnesses that measure every cell, bounded ones included.
pub fn solve_cell(
    cost: &dyn CostModel,
    ranges: &RangeTable,
    cluster: &ClusterSpec,
    p: &DpParams,
) -> Option<(f64, DpSolution)> {
    let (d, precision) = (p.devices * p.tp, cost.options().precision);
    let slots = SlotTable::build(cluster, d, p.replica_factor, cost.device(), precision);
    let mut arena = DpArena::draw();
    let sol = form_stage_dp(&DpCtx::new(cost, ranges, cluster, &slots, p), &mut arena);
    DpArena::shelve([arena]);
    sol.map(|sol| (score_solution(&sol, cluster, cost), sol))
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
    let (slots, mut stats, ranges) = scan(g, cost, blocks, cluster, batch_size, opts);
    let winner = slots.map(|slots| {
        let tier = stats.tiers.last().expect("a feasible search walks a tier");
        let cell = &tier.cells[tier.winner.expect("the last tier has the winner")];
        let (score, solution) = cell.solved().expect("the winner is solved");
        let best = (cell.params, score, solution.clone());
        let (solution, refine) = refine_winner(cost, &ranges, &slots, cluster, best);
        stats.refine = refine;
        solution
    });
    (winner, stats)
}

/// Algorithm 2's last step: the winner's stages re-cut at atom
/// granularity ([`refine::refined_stages`]), priced exactly by one
/// Algorithm 1 run at the winner's parameters `p` on the tier's
/// placement table `slots`, and kept only if their [`score_solution`] is
/// strictly lower than the winner's `score`. Its arena is drawn from the
/// spare list and shelved there. Returns the kept solution and the
/// refinement's record (`None` when it proposed no cut).
fn refine_winner(
    cost: &dyn CostModel,
    ranges: &RangeTable,
    slots: &SlotTable,
    cluster: &ClusterSpec,
    (p, score, winner): (DpParams, f64, DpSolution),
) -> (DpSolution, Option<RefineRec>) {
    let span = rannc_obs::trace::span("refine", "planner").arg_f("bottleneck", winner.value);
    let Some(sets) = refine::refined_stages(cost, ranges, slots, &winner) else {
        let _s = span.arg_i("accepted", 0);
        return (winner, None);
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
    DpArena::shelve([arena]);
    let accepted = matches!(&refined, Some((v, _)) if *v < score);
    let outcome = if accepted { "accepted" } else { "rejected" };
    rannc_obs::metrics::counter(&format!("planner.refine.{outcome}")).inc();
    let span = span.arg_i("accepted", accepted as i64);
    let _s = match &refined {
        Some((_, sol)) => span.arg_f("refined", sol.value),
        None => span,
    };
    let rec = RefineRec {
        from_score: score,
        from_bottleneck: winner.value,
        to: refined.as_ref().map(|(v, sol)| (*v, sol.value)),
        accepted,
    };
    let kept = match refined {
        Some((_, sol)) if accepted => sol,
        _ => winner,
    };
    (kept, Some(rec))
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
    use std::cell::Cell;

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
            let opts = SearchOptions { tp_max };
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
        mem_ok: Cell<u64>,
        timed: Cell<u64>,
    }

    impl<'a> Counting<'a> {
        fn new(g: &'a TaskGraph, cluster: &ClusterSpec) -> Self {
            Counting {
                inner: Profiler::new(g, cluster.device.clone(), ProfilerOptions::fp32()),
                mem_ok: Cell::new(0),
                timed: Cell::new(0),
            }
        }
    }

    /// What the bounds of a search that walked `tiers` count on a
    /// [`Counting`] model: `(mem_ok, timed)`, their share of the search's
    /// counts. The memory bound prices stage memory
    /// ([`proven_infeasible`]), the score bound the time of every cell the
    /// memory bound leaves open ([`score_bound`]), and the bottleneck test
    /// the ranges it reaches ([`bottleneck_bound`]): its tests are replayed
    /// in the walk's order, against the scores the search recorded, on
    /// each group's one price table.
    fn bounds_counted(
        g: &TaskGraph,
        blocks: &[Block],
        cluster: &ClusterSpec,
        tiers: &[TierScan],
    ) -> (u64, u64) {
        let cost = Counting::new(g, cluster);
        let ranges = RangeTable::build(&cost, blocks);
        let precision = cost.options().precision;
        for tier in tiers {
            let (d, r) = (tier.devices, tier.replica_factor);
            let slots = SlotTable::build(cluster, d, r, cost.device(), precision);
            let grid: Vec<DpParams> = tier.cells.iter().map(|c| c.params).collect();
            let (mut open, mut bounds) = (Vec::new(), Vec::new());
            for (group, members) in group_cells(&grid).into_iter().enumerate() {
                let params: Vec<DpParams> = members.iter().map(|&i| grid[i]).collect();
                let mut group_bounds = GroupBounds::new(&cost, &ranges, &params[0]);
                for (&i, proven) in members.iter().zip(group_bounds.proven(&params)) {
                    if !proven {
                        let (bound, tail) =
                            bound_and_tail(&cost, &ranges, cluster, &slots, &grid[i]);
                        open.push((bound, i, group, tail));
                    }
                }
                bounds.push(group_bounds);
            }
            open.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut best = f64::INFINITY;
            for (bound, i, group, tail) in open {
                if bound <= best && best.is_finite() {
                    bounds[group].bottleneck(cluster, &slots, grid[i].stages, tail, best);
                }
                if let Some((score, _)) = tier.cells[i].solved() {
                    best = best.min(score);
                }
            }
        }
        (cost.mem_ok.get(), cost.timed.get())
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
            self.timed.set(self.timed.get() + 1);
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
                self.mem_ok.set(self.mem_ok.get() + 1);
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
    /// stage reads at least one slot. The bounds' own pricing is not the
    /// DPs' and is taken out. Each case runs some DP over stages that do
    /// not fit, so the ordering is tested.
    #[test]
    fn feasible_search_times_only_memory_feasible_stages() {
        let g = mlp_graph(&MlpConfig::deep(512, 512, 12, 10));
        // (device memory above the fixed overhead in MB, batch size): at
        // 40 MB and batch 32 every stage the walk's DPs evaluate fits
        for (extra_mb, batch_size) in [(20, 32), (25, 64)] {
            let mem = (1usize << 30) + extra_mb * (1 << 20); // overhead + extra
            let (_, blocks) = prep(&g, mem);
            let cluster = small_cluster(2, mem);
            for tp_max in [1, 2] {
                let what = format!("{extra_mb} MB, batch {batch_size}, tp_max {tp_max}");
                let cost = Counting::new(&g, &cluster);
                let opts = SearchOptions { tp_max };
                let (sol, stats) = form_stage_with(&g, &cost, &blocks, &cluster, batch_size, &opts);
                assert!(sol.is_some(), "{what}");
                let bounds = bounds_counted(&g, &blocks, &cluster, &stats.tiers);
                let mem_ok = cost.mem_ok.get() - bounds.0;
                assert!(
                    mem_ok < stats.stage_cache.misses,
                    "{what}: no stage was over memory: the case does not test the ordering"
                );
                let timed = cost.timed.get() - bounds.1;
                assert!(
                    timed <= mem_ok,
                    "{what}: {timed} stages timed, {mem_ok} stages fit memory"
                );
                let slots = cost.cache_stats();
                assert!(slots.hits + slots.misses >= timed, "{what}: {slots:?}");
            }
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
