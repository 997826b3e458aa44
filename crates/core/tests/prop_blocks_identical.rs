//! Differential tests of the block phase: coarsening, uncoarsening and the
//! whole `block_partition` must match the straightforward reference in
//! `support/blocks.rs` exactly — the same groups and merge records, the
//! same uncoarsening move count, and the same blocks in the same order with
//! bit-equal profiled times — on every bundled model family, for several
//! `k` and a generous and a tight memory bound, with profiling noise on
//! and under a calibrated memory factor too.
//! The group graph the two steps keep current must equal a rebuild from
//! scratch after every change, and coarsening's pair convexity check must
//! equal a check of the union on every adjacent pair of every level.

#[path = "support/blocks.rs"]
mod reference;

use rannc_core::blocks::{BlockCtx, BlockLimits, GroupGraph};
use rannc_core::coarsen::MergeRecord;
use rannc_core::{atomic_partition, block_partition, coarsen, uncoarsen, Block};
use rannc_cost::{CalibratedCost, Calibration, CostModel};
use rannc_graph::convex::ConvexChecker;
use rannc_graph::{DType, GraphBuilder, OpKind, TaskGraph, TaskId, TaskSet};
use rannc_hw::{ClusterSpec, DeviceSpec};
use rannc_models::{
    bert_graph, gpt_graph, mlp_graph, resnet_graph, t5_graph, BertConfig, GptConfig, MlpConfig,
    ResNetConfig, T5Config,
};
use rannc_profile::{Profiler, ProfilerOptions};

const GENEROUS: usize = 32 << 30;

fn models() -> Vec<(&'static str, TaskGraph)> {
    vec![
        ("mlp", mlp_graph(&MlpConfig::deep(64, 64, 12, 10))),
        ("bert-tiny", bert_graph(&BertConfig::tiny())),
        ("gpt-tiny", gpt_graph(&GptConfig::tiny())),
        ("t5-tiny", t5_graph(&T5Config::tiny())),
        ("resnet-tiny", resnet_graph(&ResNetConfig::tiny())),
    ]
}

/// A memory bound every atomic subcomponent fits but that caps a group
/// at a quarter of the whole graph's footprint, so memory checks bind in
/// coarsening, uncoarsening and compaction alike.
fn tight_limit(g: &TaskGraph, cost: &dyn CostModel, profile_batch: usize) -> usize {
    let mem = |set| cost.stage_cost(set, profile_batch, 1, true).mem_bytes;
    let atomic = atomic_partition(g);
    let largest_atom = atomic.sets.iter().map(mem).max().unwrap_or(0);
    let mut all = TaskSet::new(g.num_tasks());
    for s in &atomic.sets {
        all.union_with(s);
    }
    largest_atom.max(mem(&all) / 4)
}

fn assert_blocks_identical(got: &[Block], want: &[Block], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: block count");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.set, b.set, "{what}: block {i} tasks");
        assert_eq!(a.time.to_bits(), b.time.to_bits(), "{what}: block {i} time");
        assert_eq!(a.mem, b.mem, "{what}: block {i} memory");
    }
}

/// What one configuration exercised: uncoarsening moves, and coarsening
/// candidates whose union coarsening walked for memory.
#[derive(Default)]
struct Exercised {
    moves: usize,
    walked: usize,
}

impl std::ops::AddAssign for Exercised {
    fn add_assign(&mut self, other: Exercised) {
        self.moves += other.moves;
        self.walked += other.walked;
    }
}

/// Every step of the production phase against the reference, on one
/// configuration priced by `cost`.
fn check(name: &str, g: &TaskGraph, cost: &dyn CostModel, limits: BlockLimits) -> Exercised {
    let atomic = atomic_partition(g);
    let what = format!(
        "{name} {} sigma={} k={} mem={}",
        cost.name(),
        cost.options().noise_sigma,
        limits.k,
        limits.mem_limit,
    );

    // coarsening: same groups, same merge hierarchy
    let mut ctx = BlockCtx::new(g, cost, limits);
    let got = coarsen::coarsen(&mut ctx, &atomic.sets);
    let want = reference::coarsen(&mut ctx, &atomic.sets);
    assert_eq!(got.groups, want.groups, "{what}: coarsened groups");
    assert_eq!(got.levels, want.levels, "{what}: coarsening levels");
    assert_eq!(got.merges.len(), want.merges.len(), "{what}: merge count");
    for (a, b) in got.merges.iter().zip(&want.merges) {
        assert_eq!(
            (a.level, &a.v, &a.w),
            (b.level, &b.v, &b.w),
            "{what}: merge"
        );
    }

    // uncoarsening: same groups after the same number of moves
    let mut got_groups = got.groups.clone();
    let got_moves = uncoarsen::uncoarsen(&mut ctx, &mut got_groups, &got.merges).moves;
    let mut want_groups = want.groups.clone();
    let want_moves = reference::uncoarsen(&mut ctx, &mut want_groups, &want.merges);
    assert_eq!(got_groups, want_groups, "{what}: uncoarsened groups");
    assert_eq!(got_moves, want_moves, "{what}: uncoarsening moves");

    // the whole phase, group for group in order
    let blocks = block_partition(g, cost, &atomic, limits);
    let (want_blocks, moves) = reference::block_partition(g, cost, &atomic, limits);
    assert_eq!(moves, got_moves, "{what}: moves inside block_partition");
    assert_blocks_identical(&blocks, &want_blocks, &what);
    Exercised {
        moves: got_moves,
        walked: got.walked,
    }
}

/// [`check`] on every bundled model for `k` ∈ {4, 8, 32}, a generous and
/// a tight memory bound, each model priced by `cost_of` its graph.
fn check_grid<'g, C: CostModel + 'g>(
    graphs: &'g [(&'static str, TaskGraph)],
    cost_of: impl Fn(&'g TaskGraph) -> C,
) -> Exercised {
    let mut total = Exercised::default();
    for (name, g) in graphs {
        let cost = cost_of(g);
        let tight = tight_limit(g, &cost, 2);
        for k in [4, 8, 32] {
            for mem_limit in [GENEROUS, tight] {
                let limits = BlockLimits {
                    k,
                    mem_limit,
                    profile_batch: 2,
                };
                total += check(name, g, &cost, limits);
            }
        }
    }
    total
}

fn fp32(g: &TaskGraph) -> Profiler<'_> {
    Profiler::new(g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32())
}

/// Profiling noise on: a union priced from its operands must draw the
/// noise of the union it never builds.
fn noisy(g: &TaskGraph) -> Profiler<'_> {
    let opts = ProfilerOptions::fp32().with_noise(0.05, 17);
    Profiler::new(g, DeviceSpec::v100_32gb(), opts)
}

#[test]
fn block_phase_matches_reference_on_every_model() {
    let graphs = models();
    let total = check_grid(&graphs, fp32);
    // the grid must exercise uncoarsening, not only agree on no-ops
    assert!(total.moves > 0, "no uncoarsening move anywhere in the grid");
}

#[test]
fn block_phase_matches_reference_with_profiling_noise() {
    let graphs = models();
    let total = check_grid(&graphs, noisy);
    assert!(total.moves > 0, "no uncoarsening move anywhere in the grid");
}

#[test]
fn block_phase_matches_reference_under_calibrated_memory() {
    // a memory factor other than 1 under the tight bound: summed bounds
    // exceed the limit, and the exact walk of the union decides through
    // the calibrated memory
    let graphs = models();
    let cluster = ClusterSpec::v100_cluster(1);
    let cal = Calibration {
        memory: 1.3,
        ..Calibration::identity()
    };
    let total = check_grid(&graphs, |g| {
        let opts = ProfilerOptions::fp32();
        CalibratedCost::new(g, DeviceSpec::v100_32gb(), opts, cal.clone(), &cluster)
    });
    assert!(total.moves > 0, "no uncoarsening move anywhere in the grid");
    assert!(
        total.walked > 0,
        "no coarsening candidate fell back to a walk"
    );
}

/// Paper scale: BERT 2048×256 (7.4k tasks), k = 32, 32 GiB — the case
/// the planner benchmark's ledger flagged.
const PAPER_SCALE: BlockLimits = BlockLimits {
    k: 32,
    mem_limit: GENEROUS,
    profile_batch: 1,
};

/// The phase at paper scale, and the pair convexity check on every
/// adjacent pair of every coarsening level. Run by `scripts/check.sh`.
#[test]
#[ignore = "paper scale; run with --release -- --ignored"]
fn block_phase_matches_reference_at_paper_scale() {
    let g = bert_graph(&BertConfig::enlarged(2048, 256));
    let done = check("bert-2048x256", &g, &fp32(&g), PAPER_SCALE);
    assert!(done.moves > 0, "paper-scale uncoarsening applied no move");
    let [convex, non_convex] = pair_checks_equal_union_checks("bert-2048x256", &g, PAPER_SCALE);
    assert!(
        convex > 0 && non_convex > 0,
        "{convex} convex, {non_convex} not"
    );
}

/// The phase at paper scale with profiling noise on: every union priced
/// from its operands draws the noise of the union. Run by
/// `scripts/check.sh`.
#[test]
#[ignore = "paper scale; run with --release -- --ignored"]
fn block_phase_matches_reference_at_paper_scale_with_noise() {
    let g = bert_graph(&BertConfig::enlarged(2048, 256));
    let done = check("bert-2048x256", &g, &noisy(&g), PAPER_SCALE);
    assert!(done.moves > 0, "paper-scale uncoarsening applied no move");
}

/// Coarsen `g` and, at every level, test every adjacent pair of groups
/// with the pair check against a check of the union. Returns the convex
/// and non-convex pair counts.
fn pair_checks_equal_union_checks(name: &str, g: &TaskGraph, limits: BlockLimits) -> [usize; 2] {
    let profiler = fp32(g);
    let atomic = atomic_partition(g);
    let mut ctx = BlockCtx::new(g, &profiler, limits);
    let mut ck = ConvexChecker::new(g);
    let mut counts = [0usize; 2];
    let mut level = 0;
    coarsen::coarsen_with(&mut ctx, &atomic.sets, |groups, graph| {
        for (r, v) in groups.iter().enumerate() {
            for n in graph.neighbours(r) {
                let w = &groups[n as usize];
                let want = ck.is_convex(&v.union(w));
                let got = ck.union_is_convex((v, ck.span(v)), (w, ck.span(w)));
                assert_eq!(got, want, "{name} level {level}: groups {r} and {n}");
                counts[usize::from(!want)] += 1;
            }
        }
        level += 1;
    });
    counts
}

#[test]
fn pair_convexity_equals_union_convexity_on_every_model() {
    let mut counts = [0usize; 2];
    for (name, g) in models() {
        for k in [4, 32] {
            let limits = BlockLimits {
                k,
                mem_limit: GENEROUS,
                profile_batch: 2,
            };
            let [convex, non_convex] = pair_checks_equal_union_checks(name, &g, limits);
            counts[0] += convex;
            counts[1] += non_convex;
        }
    }
    assert!(
        counts[0] > 0 && counts[1] > 0,
        "{counts:?}: both outcomes must occur"
    );
}

/// A chain of three adds `p0 → p1 → p2` sharing one large constant
/// `mask`, produced by task `c` and cloned into every add's atom. Tasks
/// are `[c, p0, p1, p2]`.
fn shared_mask_chain() -> TaskGraph {
    let mut gb = GraphBuilder::new("shared-mask");
    let x = gb.input("x", [8, 16], DType::F32);
    let k = gb.constant("k", [64, 16], DType::F32);
    let mask = gb.unary(OpKind::Relu, k);
    let h0 = gb.binary(OpKind::Add, x, mask);
    let h1 = gb.binary(OpKind::Add, h0, mask);
    let h2 = gb.binary(OpKind::Add, h1, mask);
    gb.output(h2);
    gb.finish()
}

/// Checks of a maintained group graph against a rebuild from scratch.
#[derive(Default)]
struct GraphChecks {
    /// Graphs compared.
    states: usize,
    /// Compared rows not in ascending neighbour order.
    unsorted_rows: usize,
}

impl GraphChecks {
    /// The graph's rows, entry for entry and in order, and its boundary
    /// must equal the reference's for `groups`.
    fn check(&mut self, g: &TaskGraph, groups: &[TaskSet], graph: &GroupGraph, what: &str) {
        let rows: Vec<Vec<u32>> = (0..groups.len())
            .map(|r| graph.neighbours(r).collect())
            .collect();
        assert_eq!(rows, reference::adjacency(g, groups), "{what}: rows");
        assert_eq!(
            graph.boundary(),
            &reference::boundary(g, groups),
            "{what}: boundary"
        );
        self.states += 1;
        self.unsorted_rows += rows
            .iter()
            .filter(|row| row.windows(2).any(|w| w[0] > w[1]))
            .count();
    }
}

/// Coarsen and uncoarsen `g`, checking the group graph after its build in
/// each step, after every contraction and after every move. Returns the
/// uncoarsening move count.
fn check_graph_through_the_steps(
    name: &str,
    g: &TaskGraph,
    limits: BlockLimits,
    checks: &mut GraphChecks,
) -> usize {
    let profiler = Profiler::new(g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
    let atomic = atomic_partition(g);
    let mut ctx = BlockCtx::new(g, &profiler, limits);
    let what = format!("{name} k={} mem={}", limits.k, limits.mem_limit);
    let mut level = 0;
    let coarse = coarsen::coarsen_with(&mut ctx, &atomic.sets, |groups, graph| {
        checks.check(
            g,
            groups,
            graph,
            &format!("{what} coarsening level {level}"),
        );
        level += 1;
    });
    let mut groups = coarse.groups;
    let mut moves = 0;
    let walk = uncoarsen::uncoarsen_with(&mut ctx, &mut groups, &coarse.merges, |groups, graph| {
        checks.check(g, groups, graph, &format!("{what} after {moves} moves"));
        moves += 1;
    });
    assert_eq!(moves, walk.moves + 1, "{what}: one check per move");
    walk.moves
}

#[test]
fn group_graph_matches_a_rebuild() {
    let mut checks = GraphChecks::default();
    let mut moves = 0;
    for (name, g) in models() {
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let tight = tight_limit(&g, &profiler, 2);
        for k in [4, 8, 32] {
            for mem_limit in [GENEROUS, tight] {
                let limits = BlockLimits {
                    k,
                    mem_limit,
                    profile_batch: 2,
                };
                moves += check_graph_through_the_steps(name, &g, limits, &mut checks);
            }
        }
    }
    assert!(moves > 0, "no uncoarsening move anywhere in the grid");
    // rows are not simply sorted: the comparison covers their order
    assert!(checks.unsorted_rows > 0, "every compared row was sorted");

    // the clone fixture: coarsened into one and two groups, and the move
    // of {c, p1} into a group that already holds the clone c
    let g = shared_mask_chain();
    for k in [1, 2] {
        let limits = BlockLimits {
            k,
            mem_limit: GENEROUS,
            profile_batch: 2,
        };
        check_graph_through_the_steps("shared-mask", &g, limits, &mut checks);
    }
    let [c, p0, p1, p2] = [0, 1, 2, 3].map(TaskId);
    let set = |ids: &[TaskId]| TaskSet::from_ids(g.num_tasks(), ids.iter().copied());
    let merge = MergeRecord {
        level: 0,
        v: set(&[c, p1]),
        w: set(&[c, p2]),
    };
    let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
    let limits = BlockLimits {
        k: 2,
        mem_limit: GENEROUS,
        profile_batch: 2,
    };
    let mut groups = vec![set(&[c, p0]), set(&[c, p1, p2])];
    let walk = uncoarsen::uncoarsen_with(
        &mut BlockCtx::new(&g, &profiler, limits),
        &mut groups,
        std::slice::from_ref(&merge),
        |groups, graph| checks.check(&g, groups, graph, "shared-mask clone move"),
    );
    assert_eq!(walk.moves, 1);
    assert_eq!(groups, [set(&[c, p0, p1]), set(&[p2])]);
}
