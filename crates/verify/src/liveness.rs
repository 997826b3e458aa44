//! Value liveness over a stage's forward/backward program, and the
//! liveness-certified peak-memory check (RV100/RV101).
//!
//! The profiler's estimate (`rannc-profile::MemoryParams`) prices a
//! stage's activations as *sum of all intermediates* with an in-flight
//! count fixed at `MB`. This module instead *certifies* a peak from
//! first principles:
//!
//! * the per-micro-batch intermediate footprint is the maximum
//!   simultaneously-live set of in-stage values over the stage's
//!   forward→backward program, computed in closed form in one pass over
//!   the stage's tasks ([`stage_liveness`]) — never larger than the
//!   profiler's sum;
//! * the activation stash depth is read off the stage's *actual*
//!   [`ScheduleModel`] issue order ([`ScheduleModel::stash_depth`]) —
//!   `MB` for fill–drain, the remaining pipeline depth for 1F1B;
//! * parameter/optimizer state and the device overhead reuse the
//!   `rannc-profile` memory model verbatim, so the two formulas can be
//!   cross-checked term by term.
//!
//! Execution model certified against (documented in DESIGN.md §13): the
//! stage's tasks run in topological order; backward visits them in
//! reverse and consumes each task's *input* activations; values leaving
//! the stage (egress or model outputs) stay live to the stage boundary
//! where they are sent. Under gradient checkpointing the recompute walk
//! is the same program, so its liveness peak is the same bound.
//!
//! The certified peak is checked against the capacity of every device
//! slot the stage lands on (the contiguous walk of
//! [`ClusterSpec::slot_devices`], as in RV027) — an overflow is RV100,
//! anchored at the offending [`Location::Device`]. A profiler estimate
//! *below* the certified peak means the plan was priced optimistically:
//! RV101.

use crate::diag::{Code, Diagnostic, Location, Report};
use crate::plan_checks::PlanView;
use crate::schedule_checks::ScheduleModel;
use rannc_graph::{TaskGraph, TaskSet};
use rannc_hw::{ClusterSpec, Precision};
use rannc_profile::memory::DEVICE_OVERHEAD_BYTES;
use rannc_profile::MemoryParams;

/// Relative slack allowed before a profiler estimate below the
/// certified peak is reported as RV101.
pub const DIVERGENCE_TOLERANCE: f64 = 0.02;

/// Per-sample liveness facts of one stage (all byte figures are FP32
/// per-sample, exactly like the profiler's aggregates — precision and
/// micro-batch scaling happen in [`certify_memory`]).
#[derive(Debug, Clone)]
pub struct StageLiveness {
    /// Deduplicated non-static ingress bytes (the checkpoint stash).
    pub ingress_bytes: usize,
    /// Sum of all in-stage intermediate bytes (the profiler's figure).
    pub inter_bytes: usize,
    /// Maximum simultaneously-live intermediate bytes over the
    /// forward→backward program. Never exceeds `inter_bytes`.
    pub peak_live_bytes: usize,
}

/// Liveness of one stage's forward→backward program, in closed form.
///
/// Program shape: the stage's tasks `t_0..t_{n-1}` forward in
/// topological order, one boundary point (every value leaving the stage
/// is alive until sent), then the tasks backward, each re-reading its
/// non-static inputs. With `U` the non-static values the stage reads and
/// `E` its outputs that escape (a consumer outside the stage, or a model
/// output), the live intermediates after forward point `i` are the
/// counted outputs of `t_0..t_i` in `U ∪ E` plus `t_i`'s own outputs;
/// the boundary and backward points define nothing and read only
/// `U ∪ E`, so each is a subset of the last forward one (DESIGN.md §13).
///
/// Reads the topological positions and the non-constant flags from the
/// graph's index, so a call costs a walk of the stage only. Panics if the
/// graph is cyclic.
pub fn stage_liveness(g: &TaskGraph, set: &TaskSet) -> StageLiveness {
    let (positions, non_constant) = (g.index().positions(), g.index().non_constant());
    let mut tasks: Vec<_> = set.iter().collect();
    tasks.sort_by_key(|t| positions[t.index()]);

    // U, and the ingress stash: its values produced outside the stage
    let mut read = vec![false; g.num_values()];
    let mut ingress_bytes = 0usize;
    for &t in &tasks {
        for &v in &g.task(t).inputs {
            let val = g.value(v);
            if val.kind.is_static() || read[v.index()] {
                continue;
            }
            read[v.index()] = true;
            if !val.producer.is_some_and(|p| set.contains(p)) {
                ingress_bytes += val.size_bytes();
            }
        }
    }

    // Only outputs of scaling (non-constant) tasks are counted — the
    // profiler's `out_act_bytes` sum term for term. `kept` holds the
    // counted outputs so far that stay live past their forward point.
    let (mut inter_bytes, mut kept, mut peak_live_bytes) = (0usize, 0usize, 0usize);
    for &t in &tasks {
        if !non_constant[t.index()] {
            continue;
        }
        let mut dead = 0usize;
        for &v in &g.task(t).outputs {
            let val = g.value(v);
            let escapes = val.consumers.iter().any(|c| !set.contains(*c));
            if read[v.index()] || escapes || g.outputs().contains(&v) {
                kept += val.size_bytes();
            } else {
                dead += val.size_bytes();
            }
            inter_bytes += val.size_bytes();
        }
        peak_live_bytes = peak_live_bytes.max(kept + dead);
    }

    StageLiveness {
        ingress_bytes,
        inter_bytes,
        peak_live_bytes,
    }
}

/// One stage's certified numbers, returned alongside the report so
/// benches and property tests can compare bounds directly.
#[derive(Debug, Clone)]
pub struct CertifiedStage {
    /// In-flight micro-batches read off the schedule's issue order.
    pub stash_depth: usize,
    /// Liveness-certified peak bytes on one device of the stage.
    pub certified_bytes: usize,
    /// The profiler's estimate carried by the plan.
    pub estimate_bytes: usize,
    /// Tightest capacity over every device slot the stage occupies.
    pub capacity_bytes: usize,
    /// Global rank of the device providing that tightest capacity.
    pub device: usize,
}

/// Certify per-(stage, device-slot) peak memory: RV100 when the
/// certified peak exceeds a hosting device's capacity, RV101 when the
/// profiler estimate is *below* the certified peak (beyond
/// [`DIVERGENCE_TOLERANCE`]) — the estimate is meant to be a sound
/// over-approximation, so falling under the certificate means the plan
/// was priced with a broken number.
pub fn certify_memory(
    g: &TaskGraph,
    plan: &PlanView<'_>,
    cluster: &ClusterSpec,
    schedule: &ScheduleModel,
    precision: Precision,
    checkpointing: bool,
) -> (Report, Vec<CertifiedStage>) {
    let mut r = Report::new();
    let mut out = Vec::with_capacity(plan.stages.len());
    let per_replica: usize = plan
        .stages
        .iter()
        .map(|s| s.replicas * s.tensor_parallel.max(1))
        .sum();
    let mut offset = 0usize;
    for (i, s) in plan.stages.iter().enumerate() {
        let width = s.replicas * s.tensor_parallel.max(1);
        if s.set.universe() != g.num_tasks() {
            offset += width;
            continue; // RV021 already reported by verify_plan
        }
        let lv = stage_liveness(g, s.set);
        let stash = schedule.stash_depth(i);
        let mem = MemoryParams {
            precision,
            checkpointing,
            inflight: stash,
        };
        let scale = mem.activation_scale();
        let per_mb = |bytes: usize| (bytes as f64 * s.micro_batch as f64 * scale) as usize;
        let activations = if checkpointing {
            stash * per_mb(lv.ingress_bytes) + per_mb(lv.peak_live_bytes)
        } else {
            stash * (per_mb(lv.ingress_bytes) + per_mb(lv.peak_live_bytes))
        };
        // T-scaled certificate: each device of a tensor-parallel group
        // holds a 1/T shard of the parameters and optimizer state but the
        // full activations (the splits all-gather their outputs).
        let shard_elems = s.param_elems / s.tensor_parallel.max(1);
        let certified =
            shard_elems * mem.state_bytes_per_param() + activations + DEVICE_OVERHEAD_BYTES;

        // Tightest device over every (pipeline replica, slot) the stage
        // occupies, kept per-slot so the finding can name the device.
        let mut capacity = usize::MAX;
        let mut device = offset;
        let group = cluster.slot_devices(
            offset..offset + width,
            per_replica,
            plan.replica_factor.max(1),
        );
        for (global, d) in group {
            if d.memory_bytes < capacity {
                capacity = d.memory_bytes;
                device = global;
            }
        }
        if capacity == usize::MAX {
            capacity = cluster.device.memory_bytes; // zero-replica stage: RV029 territory
        }

        if certified > capacity {
            // RV072 keeps tensor-parallel overflows distinguishable from
            // the unsplit RV100 case: the certificate already credits the
            // 1/T parameter shard, so splitting further won't save it.
            let (code, tp_note) = if s.tensor_parallel > 1 {
                (
                    Code::TpCertifiedMemoryOverCapacity,
                    format!(", params sharded 1/{}", s.tensor_parallel),
                )
            } else {
                (Code::CertifiedMemoryOverCapacity, String::new())
            };
            r.push(Diagnostic::new(
                code,
                Location::Device(device),
                format!(
                    "stage {i}: liveness-certified peak {:.2} GiB (stash depth {stash}{tp_note}) \
                     exceeds the {:.2} GiB capacity of device d{device}",
                    gib(certified),
                    gib(capacity),
                ),
            ));
        }
        if (s.mem_bytes as f64) < certified as f64 * (1.0 - DIVERGENCE_TOLERANCE) {
            r.push(Diagnostic::new(
                Code::MemoryEstimateDivergence,
                Location::Stage(i),
                format!(
                    "profiler estimate {:.2} GiB is below the liveness-certified peak \
                     {:.2} GiB — the plan was priced with an optimistic memory model",
                    gib(s.mem_bytes),
                    gib(certified),
                ),
            ));
        }
        out.push(CertifiedStage {
            stash_depth: stash,
            certified_bytes: certified,
            estimate_bytes: s.mem_bytes,
            capacity_bytes: capacity,
            device,
        });
        offset += width;
    }
    (r, out)
}

fn gib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan_checks::StageView;
    use proptest::prelude::*;
    use rannc_graph::{DType, GraphBuilder, OpKind, TaskId, ValueId};
    use rannc_models::{
        bert_graph, gpt_graph, mlp_graph, resnet_graph, t5_graph, BertConfig, GptConfig, MlpConfig,
        ResNetConfig, T5Config,
    };
    use std::collections::{BTreeSet, HashMap};

    /// x -> relu -> relu -> relu -> relu (chain of 4, one input).
    fn chain(len: usize) -> TaskGraph {
        let mut b = GraphBuilder::new("chain");
        let mut x = b.input("x", [64], DType::F32);
        for _ in 0..len {
            x = b.unary(OpKind::Relu, x);
        }
        b.output(x);
        b.finish()
    }

    fn full_set(g: &TaskGraph) -> TaskSet {
        TaskSet::from_ids(g.num_tasks(), (0..g.num_tasks() as u32).map(TaskId))
    }

    #[test]
    fn chain_liveness_is_tighter_than_the_sum() {
        let g = chain(6);
        let lv = stage_liveness(&g, &full_set(&g));
        assert!(lv.peak_live_bytes <= lv.inter_bytes);
        assert!(lv.peak_live_bytes > 0);
        // a relu chain keeps every activation alive for its backward
        // re-read, so the boundary peak equals the sum here
        assert_eq!(lv.peak_live_bytes, lv.inter_bytes);
        // the model input is the only ingress
        assert_eq!(lv.ingress_bytes, 64 * 4);
    }

    #[test]
    fn split_stage_sees_partial_liveness() {
        let g = chain(6);
        let first = TaskSet::from_ids(g.num_tasks(), (0..3).map(TaskId));
        let lv = stage_liveness(&g, &first);
        // 3 intermediates produced, the last one escapes to stage 2
        assert_eq!(lv.inter_bytes, 3 * 64 * 4);
        // the model input is the only ingress
        assert_eq!(lv.ingress_bytes, 64 * 4);
    }

    /// Liveness by definition: a brute-force walk over the stage
    /// program's 2n+1 points — forward `t_0..t_{n-1}` in topological
    /// order, the boundary (uses every value leaving the stage), then
    /// backward `t_{n-1}..t_0` (each re-reads its task's non-static
    /// inputs). A value is live after point `p` iff it is defined at or
    /// before `p` and used after `p`; a forward point also holds its
    /// task's own outputs. Returns the figures and the live-in set (the
    /// values used before any definition).
    fn reference(g: &TaskGraph, set: &TaskSet) -> (usize, usize, usize, BTreeSet<ValueId>) {
        let (positions, non_constant) = (g.index().positions(), g.index().non_constant());
        let mut tasks: Vec<TaskId> = set.iter().collect();
        tasks.sort_by_key(|t| positions[t.index()]);
        let n = tasks.len();
        let points = 2 * n + 1;

        let mut uses: Vec<Vec<ValueId>> = vec![Vec::new(); points];
        let mut defs: Vec<Vec<ValueId>> = vec![Vec::new(); points];
        for (i, &t) in tasks.iter().enumerate() {
            let task = g.task(t);
            let reads: Vec<ValueId> = task
                .inputs
                .iter()
                .copied()
                .filter(|&v| !g.value(v).kind.is_static())
                .collect();
            uses[i].extend(&reads);
            uses[2 * n - i].extend(&reads);
            defs[i].extend(&task.outputs);
            for &v in &task.outputs {
                let leaves = g.value(v).consumers.iter().any(|c| !set.contains(*c));
                if leaves || g.outputs().contains(&v) {
                    uses[n].push(v);
                }
            }
        }
        let mut def_at: HashMap<ValueId, usize> = HashMap::new();
        let mut first_use: HashMap<ValueId, usize> = HashMap::new();
        let mut last_use: HashMap<ValueId, usize> = HashMap::new();
        for (p, (defined, used)) in defs.iter().zip(&uses).enumerate() {
            for &v in defined {
                def_at.entry(v).or_insert(p);
            }
            for &v in used {
                first_use.entry(v).or_insert(p);
                last_use.insert(v, p);
            }
        }
        let values: BTreeSet<ValueId> = def_at.keys().chain(first_use.keys()).copied().collect();
        let counted = |v: ValueId| {
            g.value(v)
                .producer
                .is_some_and(|t| set.contains(t) && non_constant[t.index()])
        };
        let size = |v: ValueId| g.value(v).size_bytes();

        let mut peak_live_bytes = 0;
        for (p, defined_here) in defs.iter().enumerate() {
            let live: usize = values
                .iter()
                .filter(|&&v| counted(v))
                .filter(|v| {
                    let defined = def_at.get(v).is_some_and(|&d| d <= p);
                    let used_after = last_use.get(v).is_some_and(|&u| u > p);
                    (defined && used_after) || defined_here.contains(v)
                })
                .map(|&v| size(v))
                .sum();
            peak_live_bytes = peak_live_bytes.max(live);
        }
        let inter_bytes = def_at
            .keys()
            .filter(|&&v| counted(v))
            .map(|&v| size(v))
            .sum();
        let live_in: BTreeSet<ValueId> = first_use
            .iter()
            .filter(|(v, &u)| def_at.get(v).is_none_or(|&d| u <= d))
            .map(|(&v, _)| v)
            .collect();
        let ingress_bytes = live_in
            .iter()
            .filter(|&&v| !g.value(v).producer.is_some_and(|t| set.contains(t)))
            .map(|&v| size(v))
            .sum();
        (ingress_bytes, inter_bytes, peak_live_bytes, live_in)
    }

    /// A branchy graph with what the model families lack: a model output
    /// produced mid-program and, last, an output nobody reads.
    fn side_outputs() -> TaskGraph {
        let mut b = GraphBuilder::new("side-outputs");
        let x = b.input("x", [64], DType::F32);
        let a = b.unary(OpKind::Relu, x);
        let early = b.unary(OpKind::Relu, a);
        b.output(early);
        let mut y = b.unary(OpKind::Relu, a);
        y = b.unary(OpKind::Relu, y);
        b.output(y);
        b.unary(OpKind::Relu, a); // dead on arrival
        b.finish()
    }

    /// Every model family the planner partitions, at test size, plus
    /// [`side_outputs`].
    fn model_zoo() -> Vec<TaskGraph> {
        vec![
            side_outputs(),
            bert_graph(&BertConfig::tiny()),
            gpt_graph(&GptConfig::tiny()),
            t5_graph(&T5Config::tiny()),
            resnet_graph(&ResNetConfig::tiny()),
            mlp_graph(&MlpConfig::deep(64, 64, 8, 10)),
        ]
    }

    /// `g`'s tasks in topological order cut into `k` contiguous stages.
    fn contiguous_stages(g: &TaskGraph, k: usize) -> Vec<TaskSet> {
        let n = g.num_tasks();
        let positions = g.index().positions();
        let mut order: Vec<TaskId> = (0..n as u32).map(TaskId).collect();
        order.sort_by_key(|t| positions[t.index()]);
        (0..k)
            .map(|c| TaskSet::from_ids(n, order[c * n / k..(c + 1) * n / k].iter().copied()))
            .collect()
    }

    fn assert_matches_reference(g: &TaskGraph, set: &TaskSet) {
        let lv = stage_liveness(g, set);
        let (ingress, inter, peak, live_in) = reference(g, set);
        let what = format!("{} stage of {} tasks", g.name, set.len());
        assert_eq!(lv.ingress_bytes, ingress, "ingress: {what}");
        assert_eq!(lv.inter_bytes, inter, "inter: {what}");
        assert_eq!(lv.peak_live_bytes, peak, "peak: {what}");
        // the per-value rule RV063 applies to forward transfers
        let entering: BTreeSet<ValueId> = g
            .values()
            .map(|(v, _)| v)
            .filter(|&v| crate::comm::live_on_entry(g, set, v))
            .collect();
        assert_eq!(entering, live_in, "live-in: {what}");
    }

    #[test]
    fn closed_form_matches_reference_on_structured_stages() {
        for g in model_zoo() {
            let n = g.num_tasks();
            assert_matches_reference(&g, &TaskSet::new(n));
            for t in [0, n / 2, n - 1] {
                assert_matches_reference(&g, &TaskSet::singleton(n, TaskId(t as u32)));
            }
            for k in 1..=4 {
                for stage in contiguous_stages(&g, k) {
                    assert_matches_reference(&g, &stage);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random non-convex stages: each task joins with probability
        /// `density / 64`.
        #[test]
        fn closed_form_matches_reference_on_random_stages(
            model in 0usize..6,
            seed in any::<u64>(),
            density in 1u64..64,
        ) {
            let g = model_zoo().swap_remove(model);
            let mut state = seed;
            let stage = TaskSet::from_ids(
                g.num_tasks(),
                (0..g.num_tasks() as u32).map(TaskId).filter(|_| {
                    // splitmix64
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    (z ^ (z >> 31)) % 64 < density
                }),
            );
            assert_matches_reference(&g, &stage);
        }
    }

    /// Paper scale: BERT 2048x256 (7,446 tasks) cut into four contiguous
    /// stages. Ignored in the default run for its size; `scripts/check.sh`
    /// runs it in release.
    #[test]
    #[ignore]
    fn closed_form_matches_reference_at_paper_scale() {
        let g = bert_graph(&BertConfig::enlarged(2048, 256));
        for stage in contiguous_stages(&g, 4) {
            assert_matches_reference(&g, &stage);
        }
    }

    fn one_stage_view<'a>(
        _g: &'a TaskGraph,
        set: &'a TaskSet,
        mem_bytes: usize,
        param_elems: usize,
    ) -> PlanView<'a> {
        PlanView {
            model: "chain",
            stages: vec![StageView {
                set,
                replicas: 1,
                tensor_parallel: 1,
                micro_batch: 4,
                fwd_time: 0.01,
                bwd_time: 0.02,
                mem_bytes,
                param_elems,
            }],
            microbatches: 4,
            replica_factor: 1,
            batch_size: 16,
        }
    }

    #[test]
    fn certified_peak_fits_and_matches_estimate_shape() {
        let g = chain(4);
        let set = full_set(&g);
        let view = one_stage_view(&g, &set, 2 << 30, 0);
        let cluster = ClusterSpec::v100_cluster(1);
        let (r, cert) = certify_memory(
            &g,
            &view,
            &cluster,
            &ScheduleModel::fill_drain(1, 4),
            Precision::FP32,
            true,
        );
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(cert.len(), 1);
        assert_eq!(cert[0].stash_depth, 4);
        assert!(cert[0].certified_bytes >= DEVICE_OVERHEAD_BYTES);
        assert!(cert[0].certified_bytes <= cert[0].estimate_bytes);
    }

    #[test]
    fn tiny_device_trips_rv100_naming_the_device() {
        let g = chain(4);
        let set = full_set(&g);
        let view = one_stage_view(&g, &set, 2 << 30, 0);
        let mut cluster = ClusterSpec::v100_cluster(1);
        cluster.device = cluster.device.clone().with_memory(1 << 20);
        let (r, _) = certify_memory(
            &g,
            &view,
            &cluster,
            &ScheduleModel::fill_drain(1, 4),
            Precision::FP32,
            true,
        );
        assert!(
            r.has_code(Code::CertifiedMemoryOverCapacity),
            "{}",
            r.render()
        );
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == Code::CertifiedMemoryOverCapacity)
            .unwrap();
        assert!(matches!(d.location, Location::Device(_)), "{d}");
    }

    #[test]
    fn optimistic_estimate_trips_rv101() {
        let g = chain(4);
        let set = full_set(&g);
        // claim the stage needs only 1 byte: far below the certificate
        let view = one_stage_view(&g, &set, 1, 0);
        let cluster = ClusterSpec::v100_cluster(1);
        let (r, _) = certify_memory(
            &g,
            &view,
            &cluster,
            &ScheduleModel::fill_drain(1, 4),
            Precision::FP32,
            true,
        );
        assert!(r.has_code(Code::MemoryEstimateDivergence), "{}", r.render());
        assert!(!r.has_errors(), "divergence is a warning: {}", r.render());
    }

    #[test]
    fn tensor_parallel_shards_the_certified_params() {
        let g = chain(4);
        let set = full_set(&g);
        let cluster = ClusterSpec::v100_cluster(1);
        let certified_at = |tp: usize| {
            let mut view = one_stage_view(&g, &set, 8 << 30, 100_000_000);
            view.stages[0].tensor_parallel = tp;
            let (_, cert) = certify_memory(
                &g,
                &view,
                &cluster,
                &ScheduleModel::fill_drain(1, 4),
                Precision::FP32,
                true,
            );
            cert[0].certified_bytes
        };
        // the parameter/optimizer term shrinks 1/T; activations don't
        let (c1, c2, c4) = (certified_at(1), certified_at(2), certified_at(4));
        assert!(c2 < c1, "tp=2 certificate {c2} not below tp=1 {c1}");
        assert!(c4 < c2, "tp=4 certificate {c4} not below tp=2 {c2}");
    }

    #[test]
    fn tp_overflow_trips_rv072_not_rv100() {
        let g = chain(4);
        let set = full_set(&g);
        let mut view = one_stage_view(&g, &set, 8 << 30, 1_000_000);
        view.stages[0].tensor_parallel = 4;
        let mut cluster = ClusterSpec::v100_cluster(1);
        cluster.device = cluster.device.clone().with_memory(1 << 20);
        let (r, _) = certify_memory(
            &g,
            &view,
            &cluster,
            &ScheduleModel::fill_drain(1, 4),
            Precision::FP32,
            true,
        );
        assert!(
            r.has_code(Code::TpCertifiedMemoryOverCapacity),
            "{}",
            r.render()
        );
        assert!(
            !r.has_code(Code::CertifiedMemoryOverCapacity),
            "{}",
            r.render()
        );
    }

    #[test]
    fn certified_peak_is_monotone_in_stash_depth() {
        let g = chain(5);
        let set = full_set(&g);
        let view = one_stage_view(&g, &set, 4 << 30, 1_000_000);
        let cluster = ClusterSpec::v100_cluster(1);
        let mut last = 0usize;
        for mb in 1..=8 {
            let (_, cert) = certify_memory(
                &g,
                &view,
                &cluster,
                &ScheduleModel::fill_drain(1, mb),
                Precision::FP32,
                true,
            );
            assert!(cert[0].certified_bytes >= last, "mb={mb}");
            last = cert[0].certified_bytes;
        }
    }
}
