//! Property-based sanity laws for the cost-model layer.
//!
//! Whatever the calibration says, a cost model must stay *physically
//! plausible*: moving more bytes can't be faster, widening an all-reduce
//! group can't be faster, and holding more activations resident can't
//! need less memory. Each law is checked against both the analytical
//! model and a randomly-perturbed calibrated model, so a bad calibration
//! can bend prices but never break monotonicity.

use proptest::prelude::*;
use rannc_cost::{CalibratedCost, Calibration, CostModel};
use rannc_graph::{TaskGraph, TaskSet};
use rannc_hw::ClusterSpec;
use rannc_models::{
    bert_graph, gpt_graph, mlp_graph, resnet_graph, t5_graph, BertConfig, GptConfig, MlpConfig,
    ResNetConfig, T5Config,
};
use rannc_profile::{Profiler, ProfilerOptions};

fn graph() -> TaskGraph {
    bert_graph(&BertConfig::tiny())
}

fn whole_set(g: &TaskGraph) -> TaskSet {
    TaskSet::from_ids(g.num_tasks(), g.task_ids())
}

/// A random but well-formed calibration: every factor positive, spread
/// far enough from 1.0 to matter, never so extreme the float math
/// degenerates.
fn calibrations() -> impl Strategy<Value = Calibration> {
    (
        (0.25f64..4.0, 0.25f64..4.0, 0.25f64..4.0, 0.25f64..4.0),
        (0.25f64..4.0, 0.25f64..4.0, 0.5f64..2.0),
    )
        .prop_map(
            |((compute, matmul, link_intra, link_inter), (allreduce, optimizer, memory))| {
                Calibration {
                    compute,
                    ops: vec![("matmul".into(), matmul)],
                    link_intra,
                    link_inter,
                    allreduce,
                    optimizer,
                    memory,
                }
            },
        )
}

/// Run `law` against the analytical model and a calibrated model built
/// from `cal`, labelling failures with the model that broke.
fn for_both_models(cal: &Calibration, law: impl Fn(&dyn CostModel, &ClusterSpec, &str)) {
    let g = graph();
    let cluster = ClusterSpec::v100_cluster(2);
    let analytical = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
    law(&analytical, &cluster, "analytical");
    let calibrated = CalibratedCost::new(
        &g,
        cluster.device.clone(),
        ProfilerOptions::fp32(),
        cal.clone(),
        &cluster,
    );
    law(&calibrated, &cluster, "calibrated");
}

/// The tiny graph of model family `i` (bert, gpt, t5, resnet, mlp).
fn family_graph(i: usize) -> TaskGraph {
    match i {
        0 => bert_graph(&BertConfig::tiny()),
        1 => gpt_graph(&GptConfig::tiny()),
        2 => t5_graph(&T5Config::tiny()),
        3 => resnet_graph(&ResNetConfig::tiny()),
        _ => mlp_graph(&MlpConfig::deep(64, 64, 8, 10)),
    }
}

/// A pseudo-random subset of `g`'s tasks: each task is kept when its
/// hashed id, salted with `sel`, has its low bit set.
fn random_set(g: &TaskGraph, sel: u64) -> TaskSet {
    let mix = |t: u64| {
        let mut x = (t ^ sel).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 31;
        x.wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 63
    };
    TaskSet::from_ids(
        g.num_tasks(),
        g.task_ids().filter(|t| mix(t.index() as u64) == 1),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Memory-only pricing is exactly the memory `stage_cost_tp` reports
    /// (and `stage_cost`'s at `tp = 1`), for both models — an identity
    /// and a random calibration, whose memory factor is not 1.0 — on
    /// random sets of every model family, at every tensor-parallel
    /// degree, in-flight count and checkpointing flag.
    #[test]
    fn stage_mem_is_stage_cost_memory(
        cal in calibrations(),
        family in 0usize..5,
        sel in any::<u64>(),
        batch in 1usize..64,
    ) {
        let g = family_graph(family);
        let cluster = ClusterSpec::v100_cluster(2);
        let set = random_set(&g, sel);
        let analytical = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::mixed());
        let models: Vec<(Box<dyn CostModel + '_>, &str)> = vec![
            (Box::new(analytical), "analytical"),
            (
                Box::new(CalibratedCost::new(
                    &g,
                    cluster.device.clone(),
                    ProfilerOptions::mixed(),
                    Calibration::identity(),
                    &cluster,
                )),
                "identity-calibrated",
            ),
            (
                Box::new(CalibratedCost::new(
                    &g,
                    cluster.device.clone(),
                    ProfilerOptions::mixed(),
                    cal.clone(),
                    &cluster,
                )),
                "calibrated",
            ),
        ];
        for (m, label) in &models {
            let profiled = m.profiler().profiled(&set);
            for tp in [1usize, 2, 4, 8] {
                for inflight in [1usize, 2, 5, 16] {
                    for ckpt in [false, true] {
                        // memory first, as the DP asks: no time priced yet
                        let mem = m.stage_mem(&profiled, batch, inflight, ckpt, tp);
                        let time = m.profiler().time_sums(set.iter(), batch, tp);
                        let full = m.stage_cost_tp(&profiled, time, batch, inflight, ckpt, tp, &cluster);
                        prop_assert_eq!(
                            mem, full.mem_bytes,
                            "{}: tp {}, inflight {}, ckpt {}", label, tp, inflight, ckpt
                        );
                        if tp == 1 {
                            let plain = m.stage_cost(&set, batch, inflight, ckpt);
                            prop_assert_eq!(mem, plain.mem_bytes, "{}: stage_cost", label);
                        }
                    }
                }
            }
        }
    }

    /// Memory-only pricing is nondecreasing in the micro-batch: for both
    /// shipping models — the analytical profiler and a calibrated model
    /// with a memory factor — under FP32 and mixed precision, on random
    /// sets of every model family, at tensor-parallel degrees 1, 2 and 8,
    /// several in-flight counts and checkpointing on and off, both
    /// `stage_mem` and `bound_mem` of the set's own statistics. The
    /// search's fewest-devices bound rests on this: a range that fits on
    /// `repl` units fits on every larger count.
    #[test]
    fn stage_mem_nondecreasing_in_batch(
        cal in calibrations(),
        family in 0usize..5,
        sel in any::<u64>(),
        mixed in any::<bool>(),
    ) {
        let g = family_graph(family);
        let cluster = ClusterSpec::v100_cluster(2);
        let set = random_set(&g, sel);
        let opts = if mixed { ProfilerOptions::mixed() } else { ProfilerOptions::fp32() };
        let analytical = Profiler::new(&g, cluster.device.clone(), opts);
        let calibrated = CalibratedCost::new(&g, cluster.device.clone(), opts, cal, &cluster);
        let models: [(&dyn CostModel, &str); 2] =
            [(&analytical, "analytical"), (&calibrated, "calibrated")];
        for (m, label) in models {
            let profiled = m.profiler().profiled(&set);
            let bound = profiled.stats_bound();
            for tp in [1usize, 2, 8] {
                for inflight in [1usize, 2, 5, 16] {
                    for ckpt in [false, true] {
                        let mem = |batch| m.stage_mem(&profiled, batch, inflight, ckpt, tp);
                        let by_bound = |batch| m.bound_mem(&bound, batch, inflight, ckpt, tp);
                        for batch in 1usize..64 {
                            prop_assert!(
                                mem(batch) <= mem(batch + 1),
                                "{}: stage_mem, batch {}, tp {}, inflight {}, ckpt {}",
                                label, batch, tp, inflight, ckpt
                            );
                            prop_assert!(
                                by_bound(batch) <= by_bound(batch + 1),
                                "{}: bound_mem, batch {}, tp {}, inflight {}, ckpt {}",
                                label, batch, tp, inflight, ckpt
                            );
                        }
                    }
                }
            }
        }
    }

    /// Transfer time is nondecreasing in bytes, on both link classes.
    #[test]
    fn transfer_time_nondecreasing_in_bytes(
        cal in calibrations(),
        a in 0usize..(1 << 28),
        b in 0usize..(1 << 28),
    ) {
        let (lo, hi) = (a.min(b), a.max(b));
        for_both_models(&cal, |m, cluster, label| {
            for link in [cluster.planning_link(), cluster.inter_link] {
                let t_lo = m.transfer_time(link, lo);
                let t_hi = m.transfer_time(link, hi);
                assert!(
                    t_lo <= t_hi,
                    "{label}: transfer({lo}) = {t_lo} > transfer({hi}) = {t_hi}"
                );
            }
        });
    }

    /// All-reduce time is nondecreasing in bytes and in group size, for
    /// intra-node and node-spanning groups alike.
    #[test]
    fn allreduce_time_nondecreasing_in_bytes_and_group(
        cal in calibrations(),
        a in 0usize..(1 << 28),
        b in 0usize..(1 << 28),
        g1 in 1usize..17,
        g2 in 1usize..17,
    ) {
        let (blo, bhi) = (a.min(b), a.max(b));
        let (glo, ghi) = (g1.min(g2), g1.max(g2));
        for_both_models(&cal, |m, cluster, label| {
            for spans in [false, true] {
                let by_bytes_lo = m.factors().allreduce_time(cluster, blo, ghi, spans);
                let by_bytes_hi = m.factors().allreduce_time(cluster, bhi, ghi, spans);
                assert!(
                    by_bytes_lo <= by_bytes_hi,
                    "{label}/spans={spans}: allreduce({blo} B) = {by_bytes_lo} \
                     > allreduce({bhi} B) = {by_bytes_hi}"
                );
                let by_group_lo = m.factors().allreduce_time(cluster, bhi, glo, spans);
                let by_group_hi = m.factors().allreduce_time(cluster, bhi, ghi, spans);
                assert!(
                    by_group_lo <= by_group_hi,
                    "{label}/spans={spans}: allreduce(group {glo}) = {by_group_lo} \
                     > allreduce(group {ghi}) = {by_group_hi}"
                );
            }
        });
    }

    /// Peak stage memory is nondecreasing in the micro-batch size and in
    /// the number of in-flight micro-batches, with and without gradient
    /// checkpointing.
    #[test]
    fn stage_memory_nondecreasing_in_batch_and_inflight(
        cal in calibrations(),
        mb1 in 1usize..33,
        mb2 in 1usize..33,
        if1 in 1usize..9,
        if2 in 1usize..9,
        ckpt in any::<bool>(),
    ) {
        let (mlo, mhi) = (mb1.min(mb2), mb1.max(mb2));
        let (ilo, ihi) = (if1.min(if2), if1.max(if2));
        for_both_models(&cal, |m, _cluster, label| {
            let set = whole_set(m.graph());
            let by_batch_lo = m.stage_cost(&set, mlo, ihi, ckpt).mem_bytes;
            let by_batch_hi = m.stage_cost(&set, mhi, ihi, ckpt).mem_bytes;
            assert!(
                by_batch_lo <= by_batch_hi,
                "{label}/ckpt={ckpt}: mem(mb {mlo}) = {by_batch_lo} \
                 > mem(mb {mhi}) = {by_batch_hi}"
            );
            let by_inflight_lo = m.stage_cost(&set, mhi, ilo, ckpt).mem_bytes;
            let by_inflight_hi = m.stage_cost(&set, mhi, ihi, ckpt).mem_bytes;
            assert!(
                by_inflight_lo <= by_inflight_hi,
                "{label}/ckpt={ckpt}: mem(inflight {ilo}) = {by_inflight_lo} \
                 > mem(inflight {ihi}) = {by_inflight_hi}"
            );
        });
    }

    /// `tp = 1` is the identity: the tensor-parallel stage cost must be
    /// bit-identical to the plain 2D stage cost on every field, for both
    /// models — the historical search path must not feel the third axis.
    #[test]
    fn tp_one_is_bit_identical_to_stage_cost(
        cal in calibrations(),
        mb in 1usize..17,
        inflight in 1usize..9,
        ckpt in any::<bool>(),
    ) {
        for_both_models(&cal, |m, cluster, label| {
            let set = whole_set(m.graph());
            let plain = m.stage_cost(&set, mb, inflight, ckpt);
            let p = m.profiler();
            let time = p.time_sums(set.iter(), mb, 1);
            let tp = m.stage_cost_tp(&p.profiled(&set), time, mb, inflight, ckpt, 1, cluster);
            assert!(
                plain.fwd_time.to_bits() == tp.fwd_time.to_bits()
                    && plain.bwd_time.to_bits() == tp.bwd_time.to_bits()
                    && plain.mem_bytes == tp.mem_bytes
                    && plain.param_elems == tp.param_elems,
                "{label}/ckpt={ckpt}: stage_cost_tp(.., 1) diverged from stage_cost"
            );
        });
    }

    /// Per-device stage memory is nonincreasing in the tensor-parallel
    /// degree (weights, optimizer state and the column- and head-split
    /// activations shard `1/T`; the rest stay full-size), while
    /// `param_elems` always reports the FULL unsharded count — callers
    /// shard gradient volume themselves.
    #[test]
    fn tp_memory_nonincreasing_and_params_unsharded(
        cal in calibrations(),
        mb in 1usize..17,
        t1 in 1usize..9,
        t2 in 1usize..9,
        ckpt in any::<bool>(),
    ) {
        let (lo, hi) = (t1.min(t2), t1.max(t2));
        for_both_models(&cal, |m, cluster, label| {
            let set = whole_set(m.graph());
            let full = m.stage_cost(&set, mb, 1, ckpt);
            let profiled = m.profiler().profiled(&set);
            let time = |tp: usize| m.profiler().time_sums(set.iter(), mb, tp);
            let a = m.stage_cost_tp(&profiled, time(lo), mb, 1, ckpt, lo, cluster);
            let b = m.stage_cost_tp(&profiled, time(hi), mb, 1, ckpt, hi, cluster);
            assert!(
                b.mem_bytes <= a.mem_bytes,
                "{label}/ckpt={ckpt}: mem(T={hi}) = {} > mem(T={lo}) = {}",
                b.mem_bytes,
                a.mem_bytes
            );
            assert!(
                a.param_elems == full.param_elems && b.param_elems == full.param_elems,
                "{label}: param_elems must stay unsharded \
                 (T={lo}: {}, T={hi}: {}, full: {})",
                a.param_elems,
                b.param_elems,
                full.param_elems
            );
        });
    }

    /// The tensor-parallel split math itself: raw per-shard compute
    /// (before the folded activation all-reduce) is nonincreasing in `T`;
    /// the stage cost charges the all-reduce symmetrically to forward and
    /// backward; and the per-micro-batch all-reduce volume (the row-split
    /// matmul outputs, pinned to Megatron's by the Megatron baseline's
    /// tests) is nondecreasing in the micro-batch size.
    #[test]
    fn tp_split_compute_and_allreduce_laws(
        mb1 in 1usize..17,
        mb2 in 1usize..17,
        t1 in 2usize..9,
        t2 in 2usize..9,
    ) {
        let (mlo, mhi) = (mb1.min(mb2), mb1.max(mb2));
        let (tlo, thi) = (t1.min(t2), t1.max(t2));
        let g = graph();
        let cluster = ClusterSpec::v100_cluster(2);
        let m = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
        let whole = whole_set(m.graph());
        let set = m.profiled(&whole);

        let time = |tp: usize| m.time_sums(whole.iter(), mhi, tp);
        let raw_lo = m.profile(&set, time(tlo), mhi, 1, false, tlo);
        let raw_hi = m.profile(&set, time(thi), mhi, 1, false, thi);
        prop_assert!(
            raw_hi.fwd_time <= raw_lo.fwd_time && raw_hi.bwd_time <= raw_lo.bwd_time,
            "splitting wider got slower: T={tlo} ({}, {}) vs T={thi} ({}, {})",
            raw_lo.fwd_time, raw_lo.bwd_time, raw_hi.fwd_time, raw_hi.bwd_time
        );

        let full = m.stage_cost_tp(&set, time(thi), mhi, 1, false, thi, &cluster);
        let dfwd = full.fwd_time - raw_hi.fwd_time;
        let dbwd = full.bwd_time - raw_hi.bwd_time;
        prop_assert!(
            dfwd >= 0.0 && (dfwd - dbwd).abs() <= 1e-12 * dfwd.max(1.0),
            "activation all-reduce charged asymmetrically: fwd +{dfwd}, bwd +{dbwd}"
        );

        let v_lo = m.tp_allreduce_bytes(&set, mlo);
        let v_hi = m.tp_allreduce_bytes(&set, mhi);
        prop_assert!(
            v_lo <= v_hi,
            "all-reduce volume shrank with the micro-batch: \
             {v_lo} B at mb {mlo} vs {v_hi} B at mb {mhi}"
        );
    }

    /// Optimizer time is nondecreasing in gradient bytes.
    #[test]
    fn optimizer_time_nondecreasing_in_bytes(
        cal in calibrations(),
        a in 0usize..(1 << 30),
        b in 0usize..(1 << 30),
    ) {
        let (lo, hi) = (a.min(b), a.max(b));
        for_both_models(&cal, |m, cluster, label| {
            let t_lo = m.factors().optimizer_time(&cluster.device, lo);
            let t_hi = m.factors().optimizer_time(&cluster.device, hi);
            assert!(
                t_lo <= t_hi,
                "{label}: optimizer({lo}) = {t_lo} > optimizer({hi}) = {t_hi}"
            );
        });
    }
}
