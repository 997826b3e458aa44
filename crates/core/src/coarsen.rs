//! Coarsening step of block-level partitioning (paper §III-B).
//!
//! Level by level, the step merges adjacent groups pairwise. At each level
//! the groups are visited in ascending order of computation time; each
//! group `v` merges with the adjacent, still-unused group `w` that
//! minimizes the merged computation time, subject to the merged group
//! being convex and fitting device memory. The step stops when the number
//! of groups reaches `k` or no merge is possible (`|G_L| = |G_{L+1}|`).
//!
//! The merge hierarchy is recorded so that the uncoarsening step can
//! revisit every (v, w) pair from coarsest to finest.
//!
//! The group adjacency is built once, from the atoms, and contracted after
//! every level ([`GroupGraph::contract`]).
//!
//! A candidate `(v, w)` is priced from its two operands, and only the
//! winning union is built: time from their composed time sums, then,
//! only for a candidate that beats the best so far, convexity from two
//! directed searches between the operands
//! ([`ConvexChecker::union_is_convex`]) and memory from the sum of their
//! statistics bounds (the union is walked only when that bound exceeds
//! the limit).
//!
//! [`ConvexChecker::union_is_convex`]: rannc_graph::convex::ConvexChecker::union_is_convex

use crate::blocks::{BlockCtx, GroupGraph};
use rannc_graph::convex::Span;
use rannc_graph::TaskSet;
use rannc_profile::{StatsBound, TimeSums};

/// One recorded merge: at `level`, groups with task sets `v` and `w`
/// became `v ∪ w`.
#[derive(Debug, Clone)]
pub struct MergeRecord {
    /// Coarsening level the merge happened at (0-based).
    pub level: usize,
    /// First operand (the group that initiated the merge).
    pub v: TaskSet,
    /// Second operand.
    pub w: TaskSet,
}

/// Output of the coarsening step.
#[derive(Debug, Clone)]
pub struct CoarsenResult {
    /// Final groups `G_{L*}`.
    pub groups: Vec<TaskSet>,
    /// All merges, in the order they were applied (ascending level).
    pub merges: Vec<MergeRecord>,
    /// Number of levels executed.
    pub levels: usize,
    /// Merge candidates priced: adjacent, still-unused pairs.
    pub candidates: usize,
    /// Union task sets built: one per merge, and one per walked
    /// candidate that did not become a merge.
    pub unions: usize,
    /// Convex candidates that would have won on time but whose summed
    /// statistics bound exceeded the memory limit, so that their union's
    /// statistics were walked.
    pub walked: usize,
}

/// What coarsening carries for one group, so that a merge is priced from
/// its operands: the group's exact time sums and the time it was priced
/// at, its topological span, and a bound on its set statistics (exact for
/// an atom or a walked union, else the sum of its operands' bounds).
#[derive(Debug, Clone, Copy)]
struct Carried {
    sums: TimeSums,
    time: f64,
    span: Span,
    bound: StatsBound,
}

/// Run coarsening from the atomic subcomponents down to (at most) `k`
/// groups.
pub fn coarsen(ctx: &mut BlockCtx<'_, '_>, atomic_sets: &[TaskSet]) -> CoarsenResult {
    coarsen_with(ctx, atomic_sets, |_, _| {})
}

/// [`coarsen`], handing the group graph and the groups it describes to
/// `observe` after its build and after every contraction.
pub fn coarsen_with(
    ctx: &mut BlockCtx<'_, '_>,
    atomic_sets: &[TaskSet],
    mut observe: impl FnMut(&[TaskSet], &GroupGraph),
) -> CoarsenResult {
    let k = ctx.limits.k;
    // Only the atoms are walked. Later levels carry what a merge is priced
    // from: a union's time sums, span and bound are composed from its
    // operands', a merged group keeps the time its winning union was
    // priced at, an unmerged one everything it had.
    let mut carried: Vec<Carried> = (atomic_sets.iter())
        .map(|s| {
            let sums = ctx.sums(s);
            let profiled = ctx.cost.profiler().profiled(s);
            Carried {
                sums,
                time: ctx.price_profiled(&profiled, sums).0,
                span: ctx.checker.span(s),
                bound: profiled.stats_bound(),
            }
        })
        .collect();
    let mut groups = atomic_sets.to_vec();
    let mut graph = GroupGraph::build(ctx.g, atomic_sets);
    let mut merges = Vec::new();
    let mut level = 0usize;
    let (mut candidates, mut unions, mut walked) = (0usize, 0usize, 0usize);
    observe(&groups, &graph);

    // per-level scratch, sized at the first level
    let (mut order, mut used, mut into) = (Vec::new(), Vec::new(), Vec::new());
    while groups.len() > k {
        // ascending computation time
        order.clear();
        order.extend(0..groups.len());
        order.sort_by(|&a, &b| carried[a].time.total_cmp(&carried[b].time));

        used.clear();
        used.resize(groups.len(), false);
        // `into[i]`: the group of the next level that group `i` joins
        into.clear();
        into.resize(groups.len(), 0u32);
        let mut next: Vec<TaskSet> = Vec::with_capacity(groups.len() / 2 + 1);
        let mut next_carried: Vec<Carried> = Vec::with_capacity(next.capacity());
        let mut merged_any = false;
        let mut remaining = groups.len();

        for &v in &order {
            if used[v] {
                continue;
            }
            used[v] = true;
            into[v] = next.len() as u32;
            // Once we are down to k groups at this level, stop merging and
            // pass the rest through.
            if remaining <= k {
                next.push(take(&mut groups, v));
                next_carried.push(carried[v]);
                continue;
            }
            // the best merge: partner, time, sums, bound, and the union
            // if pricing it built one
            let mut best: Option<(usize, f64, TimeSums, StatsBound, Option<TaskSet>)> = None;
            for w in graph.neighbours(v) {
                let w = w as usize;
                if used[w] {
                    continue;
                }
                candidates += 1;
                let (cv, cw) = (&carried[v], &carried[w]);
                let (gv, gw) = (&groups[v], &groups[w]);
                let sums = ctx.union_sums((gv, cv.sums), (gw, cw.sums));
                let t = ctx.union_time((gv, gw), sums);
                // Legality last: the winner is the first strict minimum
                // among legal candidates, so one that does not beat the
                // best so far needs no check.
                if !best.as_ref().is_none_or(|(_, bt, ..)| t < *bt) {
                    continue;
                }
                if !ctx.checker.union_is_convex((gv, cv.span), (gw, cw.span)) {
                    continue;
                }
                // the summed bound decides unless it exceeds the limit;
                // only then is the union built and walked
                let mut bound = cv.bound + cw.bound;
                let mut union = None;
                if !ctx.bound_fits(&bound) {
                    walked += 1;
                    unions += 1;
                    let built = gv.union(gw);
                    bound = ctx.stats_bound(&built);
                    if !ctx.bound_fits(&bound) {
                        continue;
                    }
                    union = Some(built);
                }
                best = Some((w, t, sums, bound, union));
            }
            match best {
                Some((w, time, sums, bound, union)) => {
                    let union = union.unwrap_or_else(|| {
                        unions += 1;
                        groups[v].union(&groups[w])
                    });
                    used[w] = true;
                    into[w] = into[v];
                    merges.push(MergeRecord {
                        level,
                        v: take(&mut groups, v),
                        w: take(&mut groups, w),
                    });
                    next.push(union);
                    next_carried.push(Carried {
                        sums,
                        time,
                        span: carried[v].span.union(carried[w].span),
                        bound,
                    });
                    merged_any = true;
                    remaining -= 1; // two groups became one
                }
                None => {
                    next.push(take(&mut groups, v));
                    next_carried.push(carried[v]);
                }
            }
        }

        groups = next;
        if !merged_any {
            // |G_L| == |G_{L+1}|: fixed point
            break;
        }
        carried = next_carried;
        level += 1;
        if groups.len() > k {
            graph.contract(&into, groups.len());
            observe(&groups, &graph);
        }
    }

    CoarsenResult {
        groups,
        merges,
        levels: level,
        candidates,
        unions,
        walked,
    }
}

/// Move group `i` out of this level. Only used slots are taken, and a
/// used slot is never read again, so its operands move into the merge
/// record or the next level instead of being cloned.
fn take(groups: &mut [TaskSet], i: usize) -> TaskSet {
    std::mem::replace(&mut groups[i], TaskSet::new(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::atomic_partition;
    use crate::blocks::BlockLimits;
    use rannc_graph::convex::ConvexChecker;
    use rannc_hw::DeviceSpec;
    use rannc_models::{mlp_graph, MlpConfig};
    use rannc_profile::{Profiler, ProfilerOptions};

    fn ctx_limits(k: usize, mem: usize) -> BlockLimits {
        BlockLimits {
            k,
            mem_limit: mem,
            profile_batch: 2,
        }
    }

    #[test]
    fn coarsens_chain_to_k() {
        let g = mlp_graph(&MlpConfig::deep(32, 32, 12, 4));
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(&g);
        let mut ctx = BlockCtx::new(&g, &profiler, ctx_limits(4, 32 << 30));
        let res = coarsen(&mut ctx, &atomic.sets);
        assert_eq!(res.groups.len(), 4);
        assert!(!res.merges.is_empty());
        // groups are convex and disjoint-covering
        let mut ck = ConvexChecker::new(&g);
        let mut covered = TaskSet::new(g.num_tasks());
        for s in &res.groups {
            assert!(ck.is_convex(s));
            covered.union_with(s);
        }
        assert_eq!(covered.len(), g.num_tasks());
    }

    #[test]
    fn memory_limit_blocks_merging() {
        let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 4));
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(&g);
        // Absurdly small memory: nothing can merge (every union exceeds it)
        let mut ctx = BlockCtx::new(&g, &profiler, ctx_limits(1, 1));
        let res = coarsen(&mut ctx, &atomic.sets);
        // fixed point far above k
        assert_eq!(res.groups.len(), atomic.sets.len());
        assert!(res.merges.is_empty());
    }

    #[test]
    fn merge_records_form_a_hierarchy() {
        let g = mlp_graph(&MlpConfig::deep(32, 32, 12, 4));
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(&g);
        let mut ctx = BlockCtx::new(&g, &profiler, ctx_limits(2, 32 << 30));
        let res = coarsen(&mut ctx, &atomic.sets);
        // every recorded (v, w) union must be contained in a final group
        for m in &res.merges {
            let u = m.v.union(&m.w);
            assert!(
                res.groups.iter().any(|gset| u.is_subset(gset)),
                "merge at level {} not contained in any final group",
                m.level
            );
        }
        // levels ascend
        for pair in res.merges.windows(2) {
            assert!(pair[0].level <= pair[1].level);
        }
    }
}
