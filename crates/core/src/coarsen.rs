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

use crate::blocks::{BlockCtx, GroupGraph};
use rannc_graph::TaskSet;
use rannc_profile::TimeSums;

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
    /// Merge candidates tried: adjacent, still-unused pairs whose union
    /// was tested for convexity.
    pub candidates: usize,
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
    let mut groups: Vec<TaskSet> = atomic_sets.to_vec();
    // Only the atoms are walked (independently, so fanned out across
    // cores). Later levels carry each group's exact time sums and time: a
    // union's sums are composed from its operands', a merged group keeps
    // the time its winning union was priced at, an unmerged one its
    // previous time.
    let (mut sums, mut times): (Vec<TimeSums>, Vec<f64>) = crate::par::parallel_map(&groups, |s| {
        let sums = ctx.sums(s);
        (sums, ctx.price(s, sums).0)
    })
    .into_iter()
    .unzip();
    let mut merges = Vec::new();
    let mut level = 0usize;
    let mut candidates = 0usize;
    let mut graph = GroupGraph::build(ctx.g, &groups);
    observe(&groups, &graph);

    while groups.len() > k {
        // ascending computation time
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by(|&a, &b| times[a].total_cmp(&times[b]));

        let mut used = vec![false; groups.len()];
        // `into[i]`: the group of the next level that group `i` joins
        let mut into = vec![0u32; groups.len()];
        let mut next: Vec<TaskSet> = Vec::with_capacity(groups.len() / 2 + 1);
        let mut next_sums: Vec<TimeSums> = Vec::with_capacity(next.capacity());
        let mut next_times: Vec<f64> = Vec::with_capacity(next.capacity());
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
                next_sums.push(sums[v]);
                next_times.push(times[v]);
                continue;
            }
            let mut best: Option<(usize, f64, TaskSet, TimeSums)> = None;
            for w in graph.neighbours(v) {
                let w = w as usize;
                if used[w] {
                    continue;
                }
                candidates += 1;
                let union = groups[v].union(&groups[w]);
                if !ctx.checker.is_convex(&union) {
                    continue;
                }
                let union_sums = ctx.union_sums((&groups[v], sums[v]), (&groups[w], sums[w]));
                let (t, mem) = ctx.price(&union, union_sums);
                if mem > ctx.limits.mem_limit {
                    continue;
                }
                if best.as_ref().map(|(_, bt, ..)| t < *bt).unwrap_or(true) {
                    best = Some((w, t, union, union_sums));
                }
            }
            match best {
                Some((w, t, union, union_sums)) => {
                    used[w] = true;
                    into[w] = into[v];
                    merges.push(MergeRecord {
                        level,
                        v: take(&mut groups, v),
                        w: take(&mut groups, w),
                    });
                    next.push(union);
                    next_sums.push(union_sums);
                    next_times.push(t);
                    merged_any = true;
                    remaining -= 1; // two groups became one
                }
                None => {
                    next.push(take(&mut groups, v));
                    next_sums.push(sums[v]);
                    next_times.push(times[v]);
                }
            }
        }

        if !merged_any {
            // |G_L| == |G_{L+1}|: fixed point
            groups = next;
            break;
        }
        groups = next;
        sums = next_sums;
        times = next_times;
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
