//! The §IV-C ablation: stage-level partitioning **without** block-level
//! coarsening.
//!
//! The paper evaluates a variant that feeds the atomic subcomponents
//! directly to the stage-level search. Profiling every candidate stage is
//! then impossible (there are too many), so the variant "approximated
//! these factors by simply summing those of all atomic subcomponents
//! contained in a stage" — an additive model that overestimates both time
//! (no kernel fusion across the per-component launch overheads… in our
//! model, the per-task launch overhead is counted once per component
//! *plus* the summation ignores de-duplication of shared parameters) and
//! memory. The paper reports: at hidden size 1024 the variant trains at
//! most 48 layers, is ~33 % slower, and above that the search "did not
//! finish in 24 hours".
//!
//! This module reproduces that variant: a DP over the atomic components
//! using additive prefix-sum costs, plus a wall-clock budget so callers
//! can reproduce the DNF behaviour without waiting a day.

use crate::atomic::AtomicPartition;
use crate::dp::{DpParams, DpSolution, DpStage};
use rannc_cost::CostModel;
use rannc_graph::{TaskGraph, TaskSet};
use std::time::{Duration, Instant};

/// Outcome of the ablated search.
#[derive(Debug)]
pub enum AblationOutcome {
    /// A solution was found within the budget.
    Solved(DpSolution),
    /// No feasible split exists (additive memory overestimates made every
    /// candidate infeasible, or the device counts don't work out).
    Infeasible,
    /// The search exceeded its wall-clock budget — the paper's
    /// "did not finish in 24 hours".
    TimedOut {
        /// How long the search ran before giving up.
        elapsed: Duration,
    },
}

/// `form_stage_dp` over raw atomic components with additive cost
/// approximation and a time budget.
pub fn form_stage_dp_no_coarsening(
    g: &TaskGraph,
    cost: &dyn CostModel,
    atomic: &AtomicPartition,
    p: &DpParams,
    budget: Duration,
) -> AblationOutcome {
    let start = Instant::now();
    let n_units = atomic.sets.len();
    let s_max = p.stages;
    let d_max = p.devices;
    if s_max == 0 || s_max > n_units || d_max < s_max || p.microbatches == 0 {
        return AblationOutcome::Infeasible;
    }
    let ckpt = s_max > 1;

    // Additive per-unit profiles at each replica count's micro-batch, as
    // prefix sums over the topologically ordered components.
    // prefix[r][i] = sum of (fwd, bwd, mem) of units[0..i] at repl r+1.
    let repl_options: Vec<usize> = (1..=d_max - (s_max - 1)).collect();
    let mut prefix: Vec<Vec<(f64, f64, usize)>> = Vec::with_capacity(repl_options.len());
    for &repl in &repl_options {
        let micro = p.batch_size / p.replica_factor / p.microbatches / repl;
        let mut acc = Vec::with_capacity(n_units + 1);
        acc.push((0.0, 0.0, 0usize));
        if micro == 0 {
            // mark everything infeasible at this replica count
            for _ in 0..n_units {
                acc.push((f64::INFINITY, f64::INFINITY, usize::MAX));
            }
        } else {
            let (mut f, mut b, mut m) = (0.0, 0.0, 0usize);
            for set in &atomic.sets {
                let prof = cost.stage_cost(set, micro, p.microbatches, ckpt);
                f += prof.fwd_time;
                b += prof.bwd_time;
                // each measurement includes the fixed device overhead
                // (CUDA context etc.); summing it thousands of times would
                // be a unit error, not the paper's overestimation — it is
                // re-added once per stage below
                m = m.saturating_add(
                    prof.mem_bytes
                        .saturating_sub(rannc_profile::memory::DEVICE_OVERHEAD_BYTES),
                );
                acc.push((f, b, m));
            }
        }
        prefix.push(acc);
    }

    // Same DP as Algorithm 1 but with O(1) additive range evaluation.
    const INF: f64 = f64::INFINITY;
    let bs1 = n_units + 1;
    let ds1 = d_max + 1;
    let idx = |s: usize, b: usize, d: usize| (s * bs1 + b) * ds1 + d;
    let mut v = vec![INF; (s_max + 1) * bs1 * ds1];
    let mut tf = vec![0.0f64; (s_max + 1) * bs1 * ds1];
    let mut tb = vec![0.0f64; (s_max + 1) * bs1 * ds1];
    let mut parent: Vec<(u32, u32)> = vec![(u32::MAX, u32::MAX); (s_max + 1) * bs1 * ds1];
    v[idx(0, 0, 0)] = 0.0;

    for s in 1..=s_max {
        if start.elapsed() > budget {
            return AblationOutcome::TimedOut {
                elapsed: start.elapsed(),
            };
        }
        for b in s..=n_units - s_max + s {
            if b % 64 == 0 && start.elapsed() > budget {
                return AblationOutcome::TimedOut {
                    elapsed: start.elapsed(),
                };
            }
            for d in s..=(d_max - (s_max - s)) {
                for b_prev in (s - 1)..b {
                    for d_prev in (s - 1)..d {
                        if v[idx(s - 1, b_prev, d_prev)] == INF {
                            continue;
                        }
                        let repl = d - d_prev;
                        let pr = &prefix[repl - 1];
                        let stage_f = pr[b].0 - pr[b_prev].0;
                        let stage_b = pr[b].1 - pr[b_prev].1;
                        let stage_m = pr[b]
                            .2
                            .saturating_sub(pr[b_prev].2)
                            .saturating_add(rannc_profile::memory::DEVICE_OVERHEAD_BYTES);
                        if !stage_f.is_finite() || stage_m > p.mem_limit {
                            continue;
                        }
                        let cand_f = tf[idx(s - 1, b_prev, d_prev)].max(stage_f);
                        let cand_b = tb[idx(s - 1, b_prev, d_prev)].max(stage_b);
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
            }
        }
    }

    if v[idx(s_max, n_units, d_max)] == INF {
        return AblationOutcome::Infeasible;
    }

    // Reconstruct stage sets as unions of atomic components.
    let universe = g.num_tasks();
    let mut stages_rev: Vec<DpStage> = Vec::with_capacity(s_max);
    let (mut b, mut d) = (n_units, d_max);
    for s in (1..=s_max).rev() {
        let (b_prev, d_prev) = parent[idx(s, b, d)];
        let (b_prev, d_prev) = (b_prev as usize, d_prev as usize);
        let repl = d - d_prev;
        let micro = p.batch_size / p.replica_factor / p.microbatches / repl;
        let mut set = TaskSet::new(universe);
        for unit in &atomic.sets[b_prev..b] {
            set.union_with(unit);
        }
        let pr = &prefix[repl - 1];
        stages_rev.push(DpStage {
            set,
            block_range: (b_prev, b),
            devices: repl,
            tensor_parallel: 1, // the ablated variant never splits intra-op
            micro_batch: micro,
            fwd_time: pr[b].0 - pr[b_prev].0,
            bwd_time: pr[b].1 - pr[b_prev].1,
            mem_bytes: pr[b]
                .2
                .saturating_sub(pr[b_prev].2)
                .saturating_add(rannc_profile::memory::DEVICE_OVERHEAD_BYTES),
            param_elems: 0, // additive model does not deduplicate params
        });
        b = b_prev;
        d = d_prev;
    }
    stages_rev.reverse();

    AblationOutcome::Solved(DpSolution {
        stages: stages_rev,
        value: v[idx(s_max, n_units, d_max)],
        microbatches: p.microbatches,
        replica_factor: p.replica_factor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::atomic_partition;
    use crate::blocks::{block_partition, BlockLimits};
    use crate::dp::{form_stage_dp, DpArena};
    use crate::stagecache::{DpCtx, RangeTable};
    use rannc_hw::{ClusterSpec, DeviceSpec};
    use rannc_models::{mlp_graph, MlpConfig};
    use rannc_profile::{Profiler, ProfilerOptions};

    fn params(s: usize, d: usize, mem: usize) -> DpParams {
        DpParams {
            stages: s,
            devices: d,
            batch_size: 32,
            replica_factor: 1,
            microbatches: 2,
            mem_limit: mem,
            tp: 1,
        }
    }

    #[test]
    fn additive_model_finds_a_solution_on_small_graphs() {
        let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(&g);
        let out = form_stage_dp_no_coarsening(
            &g,
            &profiler,
            &atomic,
            &params(2, 2, 32 << 30),
            Duration::from_secs(30),
        );
        match out {
            AblationOutcome::Solved(sol) => {
                assert_eq!(sol.stages.len(), 2);
            }
            other => panic!("expected solution, got {other:?}"),
        }
    }

    #[test]
    fn additive_objective_overestimates_profiled_objective() {
        // §IV-C: "estimation by summing computation times of atomic
        // subcomponents results in a considerable overestimation".
        let g = mlp_graph(&MlpConfig::deep(128, 128, 10, 10));
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(&g);
        let p = params(2, 2, 32 << 30);
        let AblationOutcome::Solved(additive) =
            form_stage_dp_no_coarsening(&g, &profiler, &atomic, &p, Duration::from_secs(30))
        else {
            panic!("additive search failed")
        };
        let blocks = block_partition(
            &g,
            &profiler,
            &atomic,
            BlockLimits {
                k: 8,
                mem_limit: 32 << 30,
                profile_batch: 4,
            },
        );
        let cluster = ClusterSpec::v100_cluster(1);
        let ranges = RangeTable::build(&g, &profiler, &blocks);
        let ctx = DpCtx::new(&profiler, &ranges, &cluster, None, &p);
        let profiled = form_stage_dp(&ctx, &mut DpArena::new()).unwrap();
        assert!(
            additive.value >= profiled.value,
            "additive {} < profiled {}",
            additive.value,
            profiled.value
        );
    }

    #[test]
    fn tiny_budget_times_out() {
        let g = mlp_graph(&MlpConfig::deep(64, 64, 40, 10));
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(&g);
        let out = form_stage_dp_no_coarsening(
            &g,
            &profiler,
            &atomic,
            &params(4, 4, 32 << 30),
            Duration::from_nanos(1),
        );
        assert!(matches!(out, AblationOutcome::TimedOut { .. }));
    }
}
