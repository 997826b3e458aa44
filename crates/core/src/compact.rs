//! Compaction step of block-level partitioning (paper §III-B).
//!
//! If coarsening reached a fixed point with more than `k` groups, the
//! compaction step (novel in the paper) force-merges further: groups are
//! topologically sorted, then — in ascending order of computation time —
//! each group merges with whichever of its *list neighbours* (left or
//! right) has the smaller computation time, provided the union fits device
//! memory. The paper shows that in the topologically sorted list a merge
//! of adjacent entries is convex; we verify convexity anyway to stay safe
//! on graphs with parallel branches.

use crate::blocks::BlockCtx;
use rannc_graph::TaskSet;
use rannc_profile::TimeSums;

/// Run compaction until `k` groups remain (or no further merge is
/// possible, in which case slightly more than `k` groups are returned).
pub fn compact(ctx: &mut BlockCtx<'_, '_>, groups: Vec<TaskSet>) -> Vec<TaskSet> {
    let k = ctx.limits.k;
    let pos = ctx.g.index().positions();
    let min_pos = |s: &TaskSet| s.iter().map(|t| pos[t.index()]).min().unwrap_or(u32::MAX);

    let mut list: Vec<TaskSet> = groups;
    list.sort_by_key(|s| min_pos(s));
    if list.len() <= k {
        return list;
    }
    // Each group is walked once; a merged group's exact time sums are
    // composed from its operands', so its time is priced without a walk.
    let (mut sums, mut times): (Vec<TimeSums>, Vec<f64>) = (list.iter())
        .map(|s| {
            let sums = ctx.sums(s);
            (sums, ctx.price(s, sums).0)
        })
        .unzip();

    while list.len() > k {
        let mut order: Vec<usize> = (0..list.len()).collect();
        order.sort_by(|&a, &b| times[a].total_cmp(&times[b]));

        let mut merged = false;
        for &i in &order {
            // candidate neighbours in list order
            let mut candidates: Vec<usize> = Vec::with_capacity(2);
            if i > 0 {
                candidates.push(i - 1);
            }
            if i + 1 < list.len() {
                candidates.push(i + 1);
            }
            // prefer the cheaper neighbour, as the paper specifies
            candidates.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
            for &j in &candidates {
                let union = list[i].union(&list[j]);
                let union_sums = ctx.union_sums((&list[i], sums[i]), (&list[j], sums[j]));
                let (time, mem) = ctx.price(&union, union_sums);
                if mem > ctx.limits.mem_limit || !ctx.checker.is_convex(&union) {
                    continue;
                }
                let (lo, hi) = (i.min(j), i.max(j));
                (list[lo], sums[lo], times[lo]) = (union, union_sums, time);
                list.remove(hi);
                sums.remove(hi);
                times.remove(hi);
                merged = true;
                break;
            }
            if merged {
                break;
            }
        }
        if !merged {
            break; // cannot reach k within memory/convexity constraints
        }
    }
    list
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::atomic_partition;
    use crate::blocks::{BlockCtx, BlockLimits};
    use rannc_graph::convex::ConvexChecker;
    use rannc_hw::DeviceSpec;
    use rannc_models::{mlp_graph, MlpConfig};
    use rannc_profile::{Profiler, ProfilerOptions};

    #[test]
    fn compacts_atomic_sets_to_k() {
        let g = mlp_graph(&MlpConfig::deep(32, 32, 10, 4));
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(&g);
        let mut ctx = BlockCtx::new(
            &g,
            &profiler,
            BlockLimits {
                k: 5,
                mem_limit: 32 << 30,
                profile_batch: 2,
            },
        );
        // feed the raw atomic sets straight into compaction
        let out = compact(&mut ctx, atomic.sets.clone());
        assert_eq!(out.len(), 5);
        let mut ck = ConvexChecker::new(&g);
        let mut covered = TaskSet::new(g.num_tasks());
        for s in &out {
            assert!(ck.is_convex(s));
            covered.union_with(s);
        }
        assert_eq!(covered.len(), g.num_tasks());
    }

    #[test]
    fn memory_limit_halts_compaction() {
        let g = mlp_graph(&MlpConfig::deep(32, 32, 10, 4));
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(&g);
        let n = atomic.sets.len();
        let mut ctx = BlockCtx::new(
            &g,
            &profiler,
            BlockLimits {
                k: 2,
                mem_limit: 1, // nothing fits
                profile_batch: 2,
            },
        );
        let out = compact(&mut ctx, atomic.sets.clone());
        assert_eq!(out.len(), n, "no merge should have happened");
    }

    #[test]
    fn already_at_k_is_identity() {
        let g = mlp_graph(&MlpConfig::deep(16, 16, 3, 4));
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(&g);
        let n = atomic.sets.len();
        let mut ctx = BlockCtx::new(
            &g,
            &profiler,
            BlockLimits {
                k: n,
                mem_limit: 32 << 30,
                profile_batch: 2,
            },
        );
        let out = compact(&mut ctx, atomic.sets.clone());
        assert_eq!(out.len(), n);
    }
}
