//! Stage-level partitioning: Algorithm 1, `form_stage_dp` (paper §III-C).
//!
//! Given topologically sorted blocks `B`, a stage count `S`, a device
//! count `D`, the global batch size `BS`, the pipeline-replica factor `R`
//! and a micro-batch count `MB`, the dynamic program chooses stage
//! boundaries `b_i` and per-stage device (replica) counts `d_i − d_{i−1}`
//! minimizing
//!
//! ```text
//! V = max_i t^f_i  +  max_i t^b_i
//! ```
//!
//! the sum of the slowest forward and slowest backward stage times — the
//! bottleneck quantity of a synchronous pipeline. Each candidate stage is
//! *profiled* (`profile(U, ⌊BS/R/MB/(d−d′)⌋)`) and rejected if its memory
//! exceeds the device's. The rejection comes first: a stage's memory is
//! priced from its batch-independent set statistics alone, and only a
//! stage that fits has its time profiled (see
//! [`DpCtx::eval`](crate::stagecache::DpCtx::eval)), so the many
//! over-memory candidates cost O(1) in their size. The result is what
//! profiling first would give. The `d_min` incremental pruning of the
//! paper is implemented in the rows below the last: when no feasible
//! split exists at device budget `d`, no smaller budget is tried again.
//!
//! The last row solves one cell, the answer `(S, nb, D)`. Here the DP
//! departs from the paper's pseudocode, which runs the row's other cells
//! `(S, b < nb, ·)` too. The answer reads none of them, but a
//! memory-driven failure at `d = D` in one raises `d_min` past `D`, and
//! the pseudocode returns INFEASIBLE although a split into `S` stages
//! that fit may exist (the pruning's premise fails: stage memory is not
//! monotone under union). The DP returns that split. Over a sweep of
//! 1.76M small DPs (`dp_last_row.rs`) 103 answers are such plans. No
//! plan of the benchmark moves: in its cold searches the memory bound
//! ([`proven_infeasible`](crate::search::proven_infeasible)) proves
//! every INFEASIBLE cell before its DP runs, and on heterogeneous
//! clusters the pruning is off. A DP therefore walks its rows below `S`
//! and the answer's cell: a resnet152x8-d128 search walks 82,469 pairs
//! (74,819 memo lookups, 7,650 micro-batch skips).
//!
//! The inner loop touches only what it uses. A finished DP row `(s, b)`
//! records its finite device counts in ascending order, so cell
//! `(s, b, d)` walks, for each `b_prev`, only the live cells of row
//! `(s − 1, b_prev)` below `d`: the pairs the full `(b_prev, d_prev)`
//! walk would visit, in the same order, minus the infeasible ones, which
//! never reached the memo or the tie-break. Most pairs are infeasible
//! (70% in a resnet152x8-d128 search, 84% in a bert256-d128 one). Each
//! lookup reads a 32-byte hot memo entry (objective terms and memory);
//! the compute-only times and parameter count sit in a cold entry, read
//! only for a device group slower than the template and when the
//! solution is rebuilt.

use crate::stagecache::{DpCtx, StageCost};
use rannc_graph::TaskSet;
use rannc_profile::Residency;
use std::cell::RefCell;

/// Inputs of one `form_stage_dp` invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpParams {
    /// Number of stages `S`.
    pub stages: usize,
    /// Number of devices `D` available to one pipeline replica.
    pub devices: usize,
    /// Global mini-batch size `BS`.
    pub batch_size: usize,
    /// Pipeline-replica factor `R` (Algorithm 2 sets `R = N/n`).
    pub replica_factor: usize,
    /// Micro-batch count `MB` for pipeline parallelism.
    pub microbatches: usize,
    /// Device memory bound `M`, bytes.
    pub mem_limit: usize,
    /// Tensor-parallel degree `T`, uniform across the candidate's stages.
    /// `devices` counts *data-parallel units*: a stage on `repl` units
    /// occupies `repl × tp` physical devices, so the caller passes
    /// `devices = physical / tp`. `tp > 1` requires a cluster (the TP
    /// activation all-reduce is priced against its topology).
    pub tp: usize,
}

/// One stage of a DP solution.
#[derive(Debug, Clone)]
pub struct DpStage {
    /// Tasks of the stage (union of its blocks).
    pub set: TaskSet,
    /// Half-open block range `[from, to)` into the input block list.
    /// Algorithm 2's refined stages ([`crate::refine`]) are cut inside
    /// blocks and priced as blocks of their own, so for them the range is
    /// `(i, i + 1)`, the stage's index `i` in the refined list, and the
    /// stage's `set` says which tasks it holds.
    pub block_range: (usize, usize),
    /// Devices allocated to the stage within one pipeline replica
    /// (= the stage's data-parallel replica count, in tensor-parallel
    /// groups: the stage occupies `devices × tensor_parallel` physical
    /// devices).
    pub devices: usize,
    /// Tensor-parallel degree of the stage (1 = no intra-op split).
    pub tensor_parallel: usize,
    /// Per-replica micro-batch size the stage was profiled at.
    pub micro_batch: usize,
    /// Profiled compute-only forward time per micro-batch, seconds
    /// (inter-stage transfers are modelled by the schedule simulator).
    pub fwd_time: f64,
    /// Profiled compute-only backward time (incl. recompute), seconds.
    pub bwd_time: f64,
    /// Profiled memory, bytes.
    pub mem_bytes: usize,
    /// Parameter elements in the stage.
    pub param_elems: usize,
}

/// Output of Algorithm 1.
#[derive(Debug, Clone)]
pub struct DpSolution {
    /// The stages, in pipeline order.
    pub stages: Vec<DpStage>,
    /// The optimized objective `max fwd + max bwd`, seconds.
    pub value: f64,
    /// Micro-batch count the solution was computed for.
    pub microbatches: usize,
    /// Pipeline-replica factor `R`.
    pub replica_factor: usize,
}

impl DpSolution {
    /// Estimated per-iteration time of the synchronous fill–drain
    /// pipeline this solution induces: `(MB + S − 1) · V` — `MB` bottleneck
    /// slots plus `S−1` fill/drain slots. The formula itself lives in
    /// [`rannc_cost::sync_pipeline_iteration`] so reports and the planner
    /// price identically.
    pub fn estimated_iteration_time(&self) -> f64 {
        rannc_cost::sync_pipeline_iteration(self.stages.len(), self.microbatches, self.value)
    }

    /// Physical devices used by one pipeline replica (each stage spans
    /// its data-parallel count times its tensor-parallel degree).
    pub fn devices_per_replica(&self) -> usize {
        self.stages
            .iter()
            .map(|s| s.devices * s.tensor_parallel)
            .sum()
    }

    /// Total devices across all pipeline replicas.
    pub fn total_devices(&self) -> usize {
        self.devices_per_replica() * self.replica_factor
    }
}

const INF: f64 = f64::INFINITY;

/// Everything a memoised `(b_prev, b, repl)` stage evaluation depends on
/// beyond the sweep-constant context. When two DP invocations share
/// these, their memo entries are interchangeable; when any differs, the
/// arena bumps its stamp and the old entries die without a reset pass.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MemoKey {
    replica_factor: usize,
    microbatches: usize,
    batch_size: usize,
    mem_limit: usize,
    residency: Residency,
    tp: usize,
}

/// `Hot::mem` of a stage over the memory bound ([`DpCtx::eval`] gave
/// `None`): no device group holds it.
const OVER_MEMORY: usize = usize::MAX;

/// The half of a memo entry every lookup reads: the stamp, the
/// objective terms and the memory (32 bytes).
#[derive(Debug, Clone, Copy)]
struct Hot {
    stamp: u32,
    obj_f: f64,
    obj_b: f64,
    /// [`OVER_MEMORY`] for a stage over the memory bound.
    mem: usize,
}

/// The half of a memo entry read only for a group slower than the
/// template and at reconstruction. Valid iff its hot half's stamp is.
#[derive(Debug, Clone, Copy, Default)]
struct Cold {
    comp_f: f64,
    comp_b: f64,
    params: usize,
}

impl Hot {
    const EMPTY: Hot = Hot {
        stamp: 0,
        obj_f: 0.0,
        obj_b: 0.0,
        mem: OVER_MEMORY,
    };

    /// The stage cost the two halves hold.
    fn cost(&self, cold: &Cold) -> StageCost {
        StageCost {
            obj_f: self.obj_f,
            obj_b: self.obj_b,
            comp_f: cold.comp_f,
            comp_b: cold.comp_b,
            mem: self.mem,
            params: cold.params,
        }
    }
}

/// Reusable cross-candidate scratch of Algorithm 1: the flat DP tables,
/// the live predecessor lists and the flat `(b_prev, b, repl)` stage-cost
/// memo.
///
/// The memo is split in two: a 32-byte hot entry (stamp, objective
/// terms, memory; a stage over the memory bound is a sentinel memory)
/// that every lookup reads, and a cold entry (compute-only times,
/// parameters) read only for a slowed device group and at
/// reconstruction. Memo entries of one candidate are pure functions of
/// `(b_prev, b, repl)` given the memo key, so the next candidate with
/// the same `(R, MB, T)` and residency can reuse them. The arena keeps
/// tables and memo across invocations: tables are `clear`+`resize` filled
/// (capacity retained), and the memo is *stamped* — entries written
/// under an older stamp are invisible, so switching candidates is one
/// integer bump, not an `O(nb²·d)` reset.
///
/// The live lists hold, per finished DP row `(s, b)`, its finite device
/// counts in ascending order, so a cell walks only predecessors that
/// can lie on a solution.
///
/// Contract: an arena must only be reused across DP invocations that
/// share the graph, cost model, block list and cluster (Algorithm 2's
/// sweep guarantees this: each `(MB, T)` group runs its DPs through one
/// arena of its own). The parameter-level inputs are part of `MemoKey`
/// and checked automatically. Across groups and searches only the
/// allocations are reused: a group draws its arena from its thread's
/// spare list, with its memo invalidated, and hands it back when its
/// tier's walk is done.
#[derive(Default)]
pub struct DpArena {
    nb: usize,
    ds1: usize,
    /// The memo's allocated shape `(nb, ds1)`: `(b_prev, b, repl)` sits at
    /// `(b_prev·(nb + 1) + b)·ds1 + repl` of these strides, so any DP
    /// shape that fits in it reuses the memo without a refill.
    memo_shape: (usize, usize),
    v: Vec<f64>,
    tf: Vec<f64>,
    tb: Vec<f64>,
    parent: Vec<(u32, u32)>,
    /// Finite device counts of every finished row, ascending per row.
    live: Vec<u32>,
    /// `live[start..end]` per row `(s, b)`; empty for an unfinished row.
    live_rows: Vec<(u32, u32)>,
    /// Hot half per `(b_prev, b, repl)`; valid iff its stamp matches.
    hot: Vec<Hot>,
    /// Cold half per `(b_prev, b, repl)`, written with its hot half.
    cold: Vec<Cold>,
    stamp: u32,
    key: Option<MemoKey>,
    hits: u64,
    misses: u64,
    visits: u64,
}

impl DpArena {
    /// An empty arena; tables are sized on first use.
    pub fn new() -> Self {
        DpArena::default()
    }

    /// An arena from the thread's spare list, or a new one when the list
    /// is empty. A spare is reset: its memo is invalidated by one stamp
    /// bump and its counters start from zero, so it answers exactly as a
    /// new arena would.
    pub(crate) fn draw() -> DpArena {
        let mut arena = SPARE_ARENAS.with_borrow_mut(Vec::pop).unwrap_or_default();
        arena.invalidate();
        (arena.hits, arena.misses, arena.visits) = (0, 0, 0);
        arena
    }

    /// Hand `arenas` back to the thread's spare list. Every holder draws
    /// before it shelves, so the list never holds more arenas than one
    /// search held at once.
    pub(crate) fn shelve(arenas: impl IntoIterator<Item = DpArena>) {
        SPARE_ARENAS.with_borrow_mut(|spares| spares.extend(arenas));
    }

    /// Stage lookups this arena's memo answered since it was made or
    /// drawn: over one `(MB, T)` group of a search.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Stage evaluations this arena ran (memo misses) since it was made
    /// or drawn: over one `(MB, T)` group of a search.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Predecessor pairs `(b_prev, d_prev)` the DPs walked since the
    /// arena was made or drawn (over one group): every one is a finite
    /// cell, so each is a memo lookup or a micro-batch-too-thin skip.
    pub fn visits(&self) -> u64 {
        self.visits
    }

    /// Invalidate every memo entry: one stamp bump.
    fn invalidate(&mut self) {
        self.stamp = match self.stamp.checked_add(1) {
            Some(s) => s,
            None => {
                // stamp wrapped: pay one full reset every 2^32 keys
                self.hot.iter_mut().for_each(|m| *m = Hot::EMPTY);
                1
            }
        };
    }

    /// Size the tables for one candidate and invalidate the memo if the
    /// memo key or the shape changed. `dp_rows` is the number of DP rows
    /// `(s, b)` for this candidate's stage count. A shape that fits in the
    /// memo's allocated one is one stamp bump; a larger one grows the memo
    /// to cover both and refills it.
    fn prepare(&mut self, nb: usize, ds1: usize, key: MemoKey, dp_rows: usize) {
        let (memo_nb, memo_ds1) = self.memo_shape;
        if nb > memo_nb || ds1 > memo_ds1 {
            self.memo_shape = (nb.max(memo_nb), ds1.max(memo_ds1));
            let (memo_nb, memo_ds1) = self.memo_shape;
            let memo_len = memo_nb * (memo_nb + 1) * memo_ds1;
            self.hot.clear();
            self.hot.resize(memo_len, Hot::EMPTY);
            self.cold.clear();
            self.cold.resize(memo_len, Cold::default());
            self.stamp = 1;
        } else if self.nb != nb || self.ds1 != ds1 || self.key != Some(key) {
            self.invalidate();
        }
        (self.nb, self.ds1, self.key) = (nb, ds1, Some(key));
        let cells = dp_rows * ds1;
        self.v.clear();
        self.v.resize(cells, INF);
        self.tf.clear();
        self.tf.resize(cells, 0.0);
        self.tb.clear();
        self.tb.resize(cells, 0.0);
        self.parent.clear();
        self.parent.resize(cells, (u32::MAX, u32::MAX));
        self.live.clear();
        self.live_rows.clear();
        self.live_rows.resize(dp_rows, (0, 0));
    }
}

thread_local! {
    /// The spare [`DpArena`]s a search's groups hand back
    /// ([`DpArena::shelve`]) for the next group on the thread to draw
    /// ([`DpArena::draw`]).
    static SPARE_ARENAS: RefCell<Vec<DpArena>> = const { RefCell::new(Vec::new()) };
}

/// The micro-batch of a stage on `repl` data-parallel units:
/// `⌊BS / R / MB / repl⌋` samples, zero when the batch does not reach one
/// sample per unit. The one micro-batch rule of the stage DP, the
/// baselines and the ablation.
pub fn micro_batch(
    batch_size: usize,
    replica_factor: usize,
    microbatches: usize,
    repl: usize,
) -> usize {
    batch_size / replica_factor / microbatches / repl
}

/// Algorithm 1: `form_stage_dp(B, S, D, BS, R, MB)`.
///
/// Returns `None` when INFEASIBLE (no split of the blocks into `S`
/// memory-feasible stages over exactly `D` devices exists).
///
/// The DP tables and the flat `(b_prev, b, repl)` stage-cost memo live in
/// `arena` and survive across invocations: Algorithm 2 runs all
/// candidates of one micro-batch group through one arena, so the memo
/// filled by the `S`-stage candidate answers most lookups of the
/// `S+1`-stage one. Memoised evaluations are pure functions of their
/// key, so reuse is bit-identical to a fresh arena (`prop_dp_flat.rs`
/// holds this against a HashMap-memo reference DP).
///
/// Every candidate is placed: through `ctx`'s
/// [`SlotTable`](crate::placement::SlotTable), a stage occupying device
/// slots `[d′, d)` is checked against the tightest memory of those slots
/// and its compute time is stretched by the group's worst slow-down
/// versus the template device. Both adjustments happen *after* the
/// position-independent memo lookup; on a cluster with no overrides
/// neither changes a bit. The paper's `d_min` pruning runs only on such
/// clusters: with position-dependent memory bounds, infeasibility at
/// budget `d` no longer implies infeasibility below it.
pub fn form_stage_dp(ctx: &DpCtx, arena: &mut DpArena) -> Option<DpSolution> {
    let p = ctx.params();
    let slots = ctx.slots();
    // The one planning decision keyed on overrides. The pruning is not
    // exact: keyed instead on uniform device memory, it changed
    // churn-bert256-d128's plans (sim_samples_per_s 22.6907 → 22.7963);
    // dropped altogether it kept every plan but cost resnet152x8-d128
    // ~40% plan_s_p50 (3.5 → 4.9 ms) and bert256-d128 ~13% (16.0 →
    // 18.1 ms): besides infeasible cells, it skips whole device budgets.
    let prune = !ctx.cluster().is_heterogeneous();
    let nb = ctx.ranges().blocks();
    let s_max = p.stages;
    let d_max = p.devices;
    if s_max == 0 || s_max > nb || d_max < s_max || p.microbatches == 0 || p.tp == 0 {
        return None;
    }
    // per-microbatch samples available to one pipeline replica: a stage
    // on `repl` units gets a micro-batch of `samples / repl`, empty for
    // `repl > samples`
    let samples = micro_batch(p.batch_size, p.replica_factor, p.microbatches, 1);
    if samples == 0 {
        return None;
    }

    // DP tables, flattened [s][b][d], living in the arena.
    let bs1 = nb + 1;
    let ds1 = d_max + 1;
    let idx = |s: usize, b: usize, d: usize| (s * bs1 + b) * ds1 + d;
    arena.prepare(
        nb,
        ds1,
        MemoKey {
            replica_factor: p.replica_factor,
            microbatches: p.microbatches,
            batch_size: p.batch_size,
            mem_limit: p.mem_limit,
            residency: ctx.residency(),
            tp: p.tp,
        },
        (s_max + 1) * bs1,
    );
    // the memo is indexed by its allocated shape, which covers this one
    let (memo_nb, memo_ds1) = arena.memo_shape;
    let memo_idx =
        |b_prev: usize, b: usize, repl: usize| (b_prev * (memo_nb + 1) + b) * memo_ds1 + repl;
    let DpArena {
        v,
        tf,
        tb,
        parent,
        live,
        live_rows,
        hot,
        cold,
        stamp,
        hits,
        misses,
        visits,
        ..
    } = arena;
    let stamp = *stamp;
    v[idx(0, 0, 0)] = 0.0;
    live.push(0);
    live_rows[0] = (0, 1);

    let mut d_min = 1usize;

    for s in 1..=s_max {
        // the last row computes its answer (S, nb, D) alone (see the
        // module doc)
        let last = s == s_max;
        let b_lo = if last { nb } else { s };
        for b in b_lo..=nb - s_max + s {
            // d descending from D − (S − s) to max(d_min, s); the last
            // row computes d = D alone
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
                    // Only the finite cells of row (s−1, b_prev), in the
                    // ascending order of the full d_prev walk: an
                    // infeasible previous stage never reaches `found`,
                    // the micro-batch test or the memo.
                    let (start, end) = live_rows[(s - 1) * bs1 + b_prev];
                    for &d_prev in &live[start as usize..end as usize] {
                        let d_prev = d_prev as usize;
                        if d_prev >= d {
                            break;
                        }
                        *visits += 1;
                        let repl = d - d_prev;
                        if repl > samples {
                            // batch too thin for this replica count; this
                            // failure mode RELAXES as d shrinks, so it must
                            // not trigger the d_min pruning below
                            saw_micro_zero = true;
                            continue;
                        }
                        // Flat stamped memo over (b_prev, b, repl): the
                        // same triple is queried from every (s, d) cell —
                        // and, across candidates sharing a memo key, from
                        // every stage count.
                        let li = memo_idx(b_prev, b, repl);
                        let entry = if hot[li].stamp == stamp {
                            *hits += 1;
                            hot[li]
                        } else {
                            *misses += 1;
                            let entry = match ctx.eval(b_prev, b, repl) {
                                Some(c) => {
                                    debug_assert_ne!(c.mem, OVER_MEMORY, "memory sentinel");
                                    cold[li] = Cold {
                                        comp_f: c.comp_f,
                                        comp_b: c.comp_b,
                                        params: c.params,
                                    };
                                    Hot {
                                        stamp,
                                        obj_f: c.obj_f,
                                        obj_b: c.obj_b,
                                        mem: c.mem,
                                    }
                                }
                                None => Hot {
                                    stamp,
                                    ..Hot::EMPTY
                                },
                            };
                            hot[li] = entry;
                            entry
                        };
                        if entry.mem == OVER_MEMORY {
                            continue; // over device memory
                        }
                        // DP units map to physical slot spans of width
                        // tp: [d_prev·tp, d·tp)
                        let (from, to) = (d_prev * p.tp, d * p.tp);
                        if entry.mem > slots.group_mem(from, to) {
                            continue; // over this device group's memory
                        }
                        let scale = slots.group_scale(from, to);
                        let (obj_f, obj_b) = if scale == 1.0 {
                            (entry.obj_f, entry.obj_b)
                        } else {
                            entry.cost(&cold[li]).scaled_objectives(scale)
                        };
                        found = true;
                        let cand_f = tf[idx(s - 1, b_prev, d_prev)].max(obj_f);
                        let cand_b = tb[idx(s - 1, b_prev, d_prev)].max(obj_b);
                        let cand_v = cand_f + cand_b;
                        let here = idx(s, b, d);
                        if cand_v < v[here] {
                            v[here] = cand_v;
                            tf[here] = cand_f;
                            tb[here] = cand_b;
                            parent[here] = (b_prev as u32, d_prev as u32);
                        }
                    }
                }
                if !found && !saw_micro_zero && prune {
                    // the paper's pruning: a memory-driven failure with
                    // budget d implies failure with any smaller budget.
                    // Unsound with overrides, where the memory bound
                    // depends on which slots a group lands on.
                    d_min = d_min.max(d + 1);
                    break;
                }
                if d == d_lo {
                    break;
                }
                d -= 1;
            }
            if last {
                continue; // no row reads the last row's live list
            }
            // The row is finished (a pruned one too: its cells below the
            // cut stay infinite): record its finite device counts.
            let start = live.len() as u32;
            live.extend(
                (d_lo..=d_hi)
                    .filter(|&d| v[idx(s, b, d)] != INF)
                    .map(|d| d as u32),
            );
            live_rows[s * bs1 + b] = (start, live.len() as u32);
        }
    }

    if v[idx(s_max, nb, d_max)] == INF {
        return None; // INFEASIBLE
    }

    // Reconstruct. Every chosen stage was evaluated under this
    // invocation's stamp (a parent link is only written after its memo
    // entry), so its cost is read back from the memo, not re-priced.
    let mut stages_rev: Vec<DpStage> = Vec::with_capacity(s_max);
    let (mut b, mut d) = (nb, d_max);
    for s in (1..=s_max).rev() {
        let (b_prev, d_prev) = parent[idx(s, b, d)];
        let (b_prev, d_prev) = (b_prev as usize, d_prev as usize);
        let repl = d - d_prev;
        let micro = micro_batch(p.batch_size, p.replica_factor, p.microbatches, repl);
        let li = memo_idx(b_prev, b, repl);
        debug_assert_eq!(hot[li].stamp, stamp, "reconstructed stage must be memoised");
        debug_assert_ne!(
            hot[li].mem, OVER_MEMORY,
            "reconstructed stage must be feasible"
        );
        let cost = hot[li].cost(&cold[li]);
        let sc = slots.group_scale(d_prev * p.tp, d * p.tp);
        let (fwd_time, bwd_time) = (cost.comp_f * sc, cost.comp_b * sc);
        stages_rev.push(DpStage {
            set: ctx.ranges().get(b_prev, b).set.tasks().clone(),
            block_range: (b_prev, b),
            devices: repl,
            tensor_parallel: p.tp,
            micro_batch: micro,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::atomic_partition;
    use crate::blocks::{block_partition, Block, BlockLimits};
    use crate::placement::SlotTable;
    use crate::stagecache::RangeTable;
    use rannc_cost::CostModel;
    use rannc_hw::{ClusterSpec, DeviceSpec, LinkSpec};
    use rannc_models::{mlp_graph, MlpConfig};
    use rannc_profile::{Profiler, ProfilerOptions};

    fn setup(depth: usize, width: usize, k: usize) -> (rannc_graph::TaskGraph, Vec<Block>) {
        let g = mlp_graph(&MlpConfig::deep(width, width, depth, 10));
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(&g);
        let blocks = block_partition(
            &g,
            &profiler,
            &atomic,
            BlockLimits {
                k,
                mem_limit: 32 << 30,
                profile_batch: 4,
            },
        );
        (g, blocks)
    }

    /// The placement table of `p`'s tier on `cluster`.
    fn slot_table(cluster: &ClusterSpec, cost: &dyn CostModel, p: &DpParams) -> SlotTable {
        let precision = cost.options().precision;
        SlotTable::build(
            cluster,
            p.devices * p.tp,
            p.replica_factor,
            cost.device(),
            precision,
        )
    }

    /// One DP run on a fresh arena, planned against one V100 node (whose
    /// planning link is NVLink).
    fn solve(cost: &dyn CostModel, blocks: &[Block], p: &DpParams) -> Option<DpSolution> {
        let cluster = ClusterSpec::v100_cluster(1);
        let ranges = RangeTable::build(cost, blocks);
        let slots = slot_table(&cluster, cost, p);
        let ctx = DpCtx::new(cost, &ranges, &cluster, &slots, p);
        form_stage_dp(&ctx, &mut DpArena::new())
    }

    fn params(s: usize, d: usize) -> DpParams {
        DpParams {
            stages: s,
            devices: d,
            batch_size: 64,
            replica_factor: 1,
            microbatches: 4,
            mem_limit: 32 << 30,
            tp: 1,
        }
    }

    #[test]
    fn two_stage_split_of_uniform_chain_is_balanced() {
        let (g, blocks) = setup(16, 128, 8);
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let sol = solve(&profiler, &blocks, &params(2, 2)).expect("feasible");
        assert_eq!(sol.stages.len(), 2);
        // uniform chain: the two stages should contain similar block counts
        let (a, b) = (
            sol.stages[0].block_range.1 - sol.stages[0].block_range.0,
            sol.stages[1].block_range.1 - sol.stages[1].block_range.0,
        );
        assert!(a.abs_diff(b) <= 2, "split {a}/{b}");
        // stage times within 2x of each other
        let r = sol.stages[0].fwd_time / sol.stages[1].fwd_time;
        assert!((0.4..2.5).contains(&r), "imbalance ratio {r}");
    }

    #[test]
    fn stages_cover_all_blocks_in_order() {
        let (g, blocks) = setup(12, 64, 6);
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let sol = solve(&profiler, &blocks, &params(3, 4)).expect("feasible");
        assert_eq!(sol.stages.len(), 3);
        let mut next = 0;
        for st in &sol.stages {
            assert_eq!(st.block_range.0, next);
            next = st.block_range.1;
        }
        assert_eq!(next, blocks.len());
        // all devices used
        assert_eq!(sol.devices_per_replica(), 4);
    }

    #[test]
    fn infeasible_when_more_stages_than_blocks() {
        let (g, blocks) = setup(4, 32, 4);
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let sol = solve(&profiler, &blocks, &params(blocks.len() + 1, 16));
        assert!(sol.is_none());
    }

    #[test]
    fn infeasible_when_memory_too_small() {
        let (g, blocks) = setup(8, 64, 4);
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let mut p = params(2, 2);
        p.mem_limit = 1;
        assert!(solve(&profiler, &blocks, &p).is_none());
    }

    #[test]
    fn replicas_reduce_stage_time() {
        // With more devices than stages, the DP assigns extra replicas to
        // the bottleneck; value with d=4 must be <= value with d=2.
        let (g, blocks) = setup(16, 128, 8);
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let v2 = solve(&profiler, &blocks, &params(2, 2)).unwrap().value;
        let v4 = solve(&profiler, &blocks, &params(2, 4)).unwrap().value;
        assert!(v4 <= v2 * 1.0001, "v2={v2} v4={v4}");
    }

    /// DP optimality cross-check: on small instances, enumerate every
    /// (split, device assignment) by brute force and compare objectives.
    #[test]
    fn dp_matches_bruteforce_on_small_instances() {
        let (g, blocks) = setup(6, 32, 6);
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let p = params(2, 3);
        let dp = solve(&profiler, &blocks, &p).unwrap();

        // brute force all split points and device splits (exactly D devices)
        let nb = blocks.len();
        let mut best = f64::INFINITY;
        for split in 1..nb {
            for d1 in 1..p.devices {
                let d2 = p.devices - d1;
                let eval_stage = |from: usize, to: usize, repl: usize| -> Option<(f64, f64)> {
                    let micro = micro_batch(p.batch_size, p.replica_factor, p.microbatches, repl);
                    if micro == 0 {
                        return None;
                    }
                    let mut set = blocks[from].set.clone();
                    for b in &blocks[from + 1..to] {
                        set.union_with(&b.set);
                    }
                    let prof = profiler.profile_set(&set, micro, p.microbatches, true);
                    if prof.mem_bytes > p.mem_limit {
                        return None;
                    }
                    let comm = if to < nb {
                        let egress = rannc_graph::traverse::egress_bytes(&g, &set);
                        LinkSpec::nvlink().transfer_time(egress * micro)
                    } else {
                        0.0
                    };
                    Some((prof.fwd_time + comm, prof.bwd_time + comm))
                };
                let (Some((f1, b1)), Some((f2, b2))) =
                    (eval_stage(0, split, d1), eval_stage(split, nb, d2))
                else {
                    continue;
                };
                let v = f1.max(f2) + b1.max(b2);
                if v < best {
                    best = v;
                }
            }
        }
        assert!(
            (dp.value - best).abs() < 1e-12,
            "dp={} brute={best}",
            dp.value
        );
    }

    #[test]
    fn estimated_iteration_time_formula() {
        let (g, blocks) = setup(8, 64, 4);
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let sol = solve(&profiler, &blocks, &params(2, 2)).unwrap();
        let expect = (4 + 2 - 1) as f64 * sol.value;
        assert!((sol.estimated_iteration_time() - expect).abs() < 1e-12);
    }

    /// A repeated candidate is answered entirely from the arena memo: no
    /// new stage evaluation, one hit per lookup of the first run, and the
    /// same solution bit for bit.
    #[test]
    fn arena_rerun_hits_the_memo_without_new_misses() {
        let (g, blocks) = setup(12, 64, 6);
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let cluster = ClusterSpec::v100_cluster(1);
        let ranges = RangeTable::build(&profiler, &blocks);
        let slots = slot_table(&cluster, &profiler, &params(3, 4));
        let ctx = DpCtx::new(&profiler, &ranges, &cluster, &slots, &params(3, 4));
        let mut arena = DpArena::new();
        let first = form_stage_dp(&ctx, &mut arena).expect("feasible");
        let (hits, misses) = (arena.hits(), arena.misses());
        assert!(misses > 0, "a fresh arena must evaluate stages");
        let second = form_stage_dp(&ctx, &mut arena).expect("feasible");
        assert_eq!(arena.misses(), misses, "rerun evaluated a stage again");
        assert_eq!(arena.hits(), hits + hits + misses, "one hit per lookup");
        assert_eq!(first.value.to_bits(), second.value.to_bits());
        for (a, b) in first.stages.iter().zip(&second.stages) {
            assert_eq!(a.block_range, b.block_range);
            assert_eq!(a.devices, b.devices);
            assert_eq!(a.fwd_time.to_bits(), b.fwd_time.to_bits());
        }
    }
}
