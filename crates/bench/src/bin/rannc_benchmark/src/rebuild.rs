//! The planner's request paths rebuilt from its public layer calls, each
//! call wrapped in a benchmark-owned trace span tagged with the request
//! id. `partition`, `repartition` and `replan` mirror `Rannc::partition`,
//! `Rannc::repartition` and `Rannc::replan_with_backoff` step for step;
//! the traced run checks that the plans they return are bit-identical to
//! the black-box calls', so the per-layer split describes the same work.

use rannc::core::{
    atomic_partition, block_partition, diff_plans, form_stage_with, Block, BlockLimits,
    PartitionConfig, PartitionPlan, SearchStats, VerifyMode,
};
use rannc::cost::{CostModel, MigrationModel};
use rannc::graph::TaskGraph;
use rannc::hw::ClusterSpec;
use rannc::obs::trace::{span, Span};
use rannc::profile::{CacheStats, ProfilerOptions};

/// Trace category of every span the benchmark opens.
pub const CAT: &str = "bench";

/// Search and cache counters summed over every search the traced
/// requests ran.
#[derive(Debug, Default)]
pub struct Counters {
    pub candidates: u64,
    pub pruned: u64,
    pub stage_hits: u64,
    pub stage_misses: u64,
    pub stage_entries: u64,
    pub profile_hits: u64,
    pub profile_misses: u64,
    pub profile_entries: u64,
}

impl Counters {
    fn add_search(&mut self, search: &SearchStats, profile: &CacheStats) {
        self.candidates += search.candidates as u64;
        self.pruned += search.pruned as u64;
        self.stage_hits += search.stage_cache.hits;
        self.stage_misses += search.stage_cache.misses;
        self.stage_entries += search.stage_cache.entries() as u64;
        self.profile_hits += profile.hits;
        self.profile_misses += profile.misses;
        self.profile_entries += profile.entries() as u64;
    }
}

/// A benchmark span named after the layer call it wraps.
pub fn layer(name: &'static str, req: usize) -> Span {
    span(name, CAT).arg_i("req", req as i64)
}

fn profiler_options(cfg: &PartitionConfig) -> ProfilerOptions {
    ProfilerOptions {
        precision: cfg.precision,
        ..ProfilerOptions::fp32()
    }
    .with_noise(cfg.noise_sigma, cfg.noise_seed)
}

fn build_cost<'g>(
    graph: &'g TaskGraph,
    cluster: &ClusterSpec,
    cfg: &PartitionConfig,
    req: usize,
) -> Box<dyn CostModel + 'g> {
    let _s = layer("cost.build", req);
    cfg.cost.build(
        graph,
        cluster.device.clone(),
        profiler_options(cfg),
        cluster,
    )
}

/// `Rannc::partition`: all three phases, then the verification post-pass.
pub fn partition(
    graph: &TaskGraph,
    cluster: &ClusterSpec,
    cfg: &PartitionConfig,
    req: usize,
    counters: &mut Counters,
) -> Result<PartitionPlan, String> {
    let cost = build_cost(graph, cluster, cfg, req);
    let atomic = {
        let _s = layer("atomic", req);
        atomic_partition(graph)
    };
    if atomic.is_empty() {
        return Err("graph contains no tasks".into());
    }
    let blocks = {
        let _s = layer("blocks", req);
        block_partition(
            graph,
            &*cost,
            &atomic,
            BlockLimits {
                k: cfg.k,
                mem_limit: if cluster.is_heterogeneous() {
                    cluster.max_memory_bytes()
                } else {
                    cluster.device.memory_bytes
                },
                profile_batch: cfg.profile_batch,
            },
        )
    };
    let plan = search(graph, cluster, cfg, &*cost, &blocks, req, counters)
        .ok_or("no feasible partition fits the cluster")?;
    verify(graph, cluster, cfg, &plan, req)?;
    Ok(plan)
}

fn search(
    graph: &TaskGraph,
    cluster: &ClusterSpec,
    cfg: &PartitionConfig,
    cost: &dyn CostModel,
    blocks: &[Block],
    req: usize,
    counters: &mut Counters,
) -> Option<PartitionPlan> {
    let (sol, stats) = {
        let _s = layer("search", req);
        form_stage_with(graph, cost, blocks, cluster, cfg.batch_size, &cfg.search)
    };
    counters.add_search(&stats, &cost.cache_stats());
    let sol = sol?;
    let _s = layer("from_solution", req);
    Some(PartitionPlan::from_solution(
        graph.name.clone(),
        &sol,
        cfg.batch_size,
    ))
}

fn verify(
    graph: &TaskGraph,
    cluster: &ClusterSpec,
    cfg: &PartitionConfig,
    plan: &PartitionPlan,
    req: usize,
) -> Result<(), String> {
    if cfg.verify == VerifyMode::Off {
        return Ok(());
    }
    let mut report = {
        let _s = layer("verify_plan", req);
        rannc::verify::verify_plan(graph, &plan.view(), cluster)
    };
    if cfg.verify == VerifyMode::Certify {
        if let Ok(assignment) = plan.device_assignment(cluster) {
            let _s = layer("verify_deep", req);
            let schedule =
                rannc::verify::ScheduleModel::fill_drain(plan.stages.len(), plan.microbatches);
            let (deep, _) = rannc::verify::verify_deep(
                graph,
                &plan.view(),
                cluster,
                &schedule,
                &assignment,
                cfg.precision,
                plan.stages.len() > 1,
            );
            report.merge(deep);
        }
    }
    if cfg.verify != VerifyMode::Warn && report.has_errors() {
        return Err(format!("plan failed verification:\n{}", report.render()));
    }
    Ok(())
}

/// `Rannc::repartition`: the old stages become the blocks (no block
/// phase); only when they admit no plan does the full partition run.
pub fn repartition(
    graph: &TaskGraph,
    old: &PartitionPlan,
    degraded: &ClusterSpec,
    cfg: &PartitionConfig,
    req: usize,
    counters: &mut Counters,
) -> Result<PartitionPlan, String> {
    let view = degraded.planning_view();
    if view.total_devices() == 0 {
        return Err("cluster has no healthy devices".into());
    }
    if old.stages.is_empty() {
        return partition(graph, &view, cfg, req, counters);
    }
    let cost = build_cost(graph, &view, cfg, req);
    let blocks: Vec<Block> = {
        let _s = layer("blocks", req);
        old.stages
            .iter()
            .map(|s| {
                let r = cost.stage_cost(&s.set, cfg.profile_batch, 1, true);
                Block {
                    set: s.set.clone(),
                    time: r.fwd_time + r.bwd_time,
                    mem: r.mem_bytes,
                }
            })
            .collect()
    };
    match search(graph, &view, cfg, &*cost, &blocks, req, counters) {
        Some(plan) => {
            verify(graph, &view, cfg, &plan, req)?;
            Ok(plan)
        }
        None => partition(graph, &view, cfg, req, counters),
    }
}

/// `Rannc::replan_with_backoff`: the warm start, then full replans with
/// `k` doubled per rung. Returns the plan and the attempts it took.
pub fn replan(
    graph: &TaskGraph,
    old: &PartitionPlan,
    degraded: &ClusterSpec,
    cfg: &PartitionConfig,
    extra_attempts: usize,
    req: usize,
    counters: &mut Counters,
) -> Result<(PartitionPlan, usize), String> {
    let mut last_err = String::new();
    for attempt in 0..=extra_attempts {
        let result = if attempt == 0 {
            repartition(graph, old, degraded, cfg, req, counters)
        } else {
            let finer = cfg.clone().with_k(cfg.k << attempt);
            let empty = PartitionPlan {
                stages: Vec::new(),
                ..old.clone()
            };
            repartition(graph, &empty, degraded, &finer, req, counters)
        };
        match result {
            Ok(plan) => {
                // priced as the planner prices it; the price is not part
                // of the plan, so only its cost lands in the ledger
                let diff = diff_plans(old, &plan);
                std::hint::black_box(
                    MigrationModel::for_cluster(&degraded.planning_view(), cfg.precision).price(
                        diff.moved_param_elems,
                        plan.stages.len(),
                        plan.bottleneck,
                        plan.est_iteration_time,
                    ),
                );
                return Ok((plan, attempt + 1));
            }
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}
