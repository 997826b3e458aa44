#!/usr/bin/env bash
# Full local gate: everything CI would run. Referenced from README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo test"
cargo test -q --workspace --offline

echo "==> paper-scale block-phase parity (BERT 2048x256, k 32, against the reference, noise off and on)"
# ignored in the default run for its size: the block phase at paper scale
# must produce exactly the reference's blocks and uncoarsening moves; a
# second run with profiling noise on pins the union noise draw coarsening
# composes from two operands' windows; and the pair convexity check must
# equal a check of the union on every adjacent pair of every level
cargo test --release -q -p rannc-core --offline --test prop_blocks_identical -- --ignored

echo "==> paper-scale stage-DP parity (the benchmark's search grids, against the reference)"
# ignored in the default run for its size: every grid cell of bert256,
# resnet152x8 (also on a cluster with slow and small-memory devices) and
# bert64 at T up to 8, run through one reused arena, must give the
# HashMap-memo reference DP's solution bit for bit
cargo test --release -q -p rannc-core --offline --test prop_dp_flat -- --ignored

echo "==> paper-scale search bounds (every INFEASIBLE cell proven, no skipped cell can win)"
# ignored in the default run for its size: the memory-only fewest-devices
# bound must prove exactly 118 of bert256-d128's 120 cells, 22 of
# resnet152x8-d128's 56 and 18 of bert64-tp8's 45, every cell whose DP
# would return INFEASIBLE; and on the Fig. 4 and Fig. 5 grids, the
# benchmark's three cold-start settings and 50 churn replans, every cell
# the score bound or the bottleneck test skips must score strictly above
# the winner, and at least its recorded bound, when its DP runs through a
# fresh arena
cargo test --release -q -p rannc-core --offline --test prop_bound -- --ignored

echo "==> small stage-DP sweep (1.76M small DPs against the reference, one last-row cell)"
# ignored in the default run for its size: Algorithm 1 solves only the
# answer's cell of its last row; every DP of a grid of small graphs,
# memory bounds, batch sizes, micro-batch counts, device and stage counts
# must give the answer of the reference, which solves the same one cell
cargo test --release -q -p rannc-core --offline --test dp_last_row -- --ignored

echo "==> paper-scale stage-cut refinement (Fig. 4 grid, bert256-d128, 50 churn events)"
# ignored in the default run for its size: every refined plan keeps the
# scan winner's (S, MB, T, R), scores no worse, verifies and certifies under
# fill-drain, and is bit-identical from run to run
cargo test --release -q -p rannc-core --offline --test prop_refine -- --ignored

echo "==> paper-scale range-table parity (BERT 2048x256, k 32, all 528 ranges)"
# ignored in the default run for its size: the boundary-split row walk must
# give every range the egress of its union and statistics that, with its time
# composed from the blocks' time sums, price it bit-identically to a
# from-scratch walk of the union
cargo test --release -q -p rannc-core --offline --test prop_range_table -- --ignored

echo "==> paper-scale liveness parity (BERT 2048x256, 4 stages, against the definition)"
# ignored in the default run for its size: the closed-form stage liveness
# must equal the brute-force walk over every program point
cargo test --release -q -p rannc-verify --offline --lib \
    closed_form_matches_reference_at_paper_scale -- --ignored

echo "==> benchmark package tests (rannc_benchmark, its own workspace)"
# the benchmark package is outside the repository workspace, so the
# workspace test run above never builds it: run its own tests here
cargo test --release -q --offline \
    --manifest-path crates/bench/src/bin/rannc_benchmark/Cargo.toml

echo "==> formula-ownership gate (collective math only in rannc-hw / rannc-cost)"
# every comm/collective-time formula lives behind the CostModel layer;
# nothing outside rannc-hw / rannc-cost may call the ring formula directly
if grep -rn --include='*.rs' "ring_allreduce_time" crates tests examples \
    | grep -v '^crates/hw/' | grep -v '^crates/cost/'; then
    echo "FAILED: ring_allreduce_time referenced outside rannc-hw/rannc-cost"
    exit 1
fi
# Megatron's analytic model (its allocator headroom and its per-degree
# evaluation) lives in the Megatron baseline alone: nothing else may
# reference or restate it.
if grep -rn --include='*.rs' "ALLOCATOR_OVERHEAD" crates tests examples \
    | grep -v '^crates/baselines/src/megatron.rs:'; then
    echo "FAILED: Megatron's ALLOCATOR_OVERHEAD referenced outside the Megatron baseline"
    exit 1
fi
if grep -rn --include='*.rs' "megatron_partition" crates tests examples \
    | grep -v '^crates/baselines/src/megatron.rs:'; then
    echo "FAILED: megatron_partition referenced outside the Megatron baseline"
    exit 1
fi

echo "==> one-path gate (one stage DP, one last-row cell, one graph index, one cost-row table per graph, one group graph per block-phase step, one iteration closed form, one campaign simulator, one schedule definition, one certify path, one residency rule, one refinement pricing, a search on the calling thread, plain single-thread planner state, one arena source, one thread spawner, an explain artifact built from the search's value, baselines as plans, Megatron in its baseline, no deleted search, memo, fixpoint or bench machinery)"
# Algorithm 1 has exactly one public entry point, and the cost map, the
# DP wrappers, the sequential search mode and the pass-through analytical
# model stay deleted: the reference DP and scan live in test support.
# Stage liveness has one closed form: the generic gen/kill fixpoint
# framework stays deleted from the verifier. The profiler keeps no
# results: its sharded memo and the range-table seeding hint stay
# deleted, and it holds no lock at all (time sums live in caller-kept
# Cell slots, and its slot counters are Cells). The range table has one build path, the boundary
# split: the per-row full walk (profiled_prefixes) stays deleted, and
# the from-scratch reference lives only in crates/core/tests/support/.
DP_ENTRIES="$(grep -rn --include='*.rs' "pub fn form_stage_dp\b" crates/*/src | wc -l)"
if [ "$DP_ENTRIES" -ne 1 ]; then
    echo "FAILED: expected exactly one pub fn form_stage_dp in crates/*/src, found $DP_ENTRIES"
    exit 1
fi
# Algorithm 1's last row computes the answer's cell alone: the probes of
# the row's other cells for the d_min pruning stay deleted.
if awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' \
    crates/core/src/dp.rs | grep -vE '^[^:]+:[0-9]+: *//' | grep -E "probe|'walk"; then
    echo "FAILED: a last-row probe is back in crates/core/src/dp.rs"
    exit 1
fi
if grep -rnE --include='*.rs' \
    "StageCostCache|StageKey|AnalyticalCost|form_stage_seq|shared_cache|form_stage_dp_(cached|placed|in|hashmap)" \
    crates/*/src; then
    echo "FAILED: deleted search/cost machinery referenced in crates/*/src"
    exit 1
fi
if grep -rnE --include='*.rs' "mod dataflow|GenKill|FactSet|fn solve" crates/verify/src; then
    echo "FAILED: deleted dataflow fixpoint framework referenced in crates/verify/src"
    exit 1
fi
if grep -rnE --include='*.rs' \
    "FlatMemo|CACHE_SHARDS|lock_memo|seed_prefix_unions|seed_prefix_stats" crates/*/src; then
    echo "FAILED: deleted profiler memo machinery referenced in crates/*/src"
    exit 1
fi
if grep -rn --include='*.rs' "profiled_prefixes" crates/*/src; then
    echo "FAILED: the per-row range walk (profiled_prefixes) referenced in crates/*/src"
    exit 1
fi
if grep -rnE --include='*.rs' "try_lock|Mutex|RwLock" crates/profile/src; then
    echo "FAILED: crates/profile/src must hold no lock"
    exit 1
fi
# A search runs on its calling thread, so the state it prices through is
# plain single-thread state: outside tests, crates/core/src and
# crates/profile/src name no lock, atomic, OnceLock or Arc (the range
# table's slot rows sit in a RefCell, the profiler counts in Cells, the
# arena spare list is thread-local); CostModel declares no Sync
# supertrait; and the time-row handles, the batched slot-hit publishing
# and DpCtx::eval_at stay deleted.
SHARED_STATE="$(find crates/core/src crates/profile/src -name '*.rs' -print0 \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' \
    | grep -vE '^[^:]+:[0-9]+: *//' \
    | grep -E '\b(Mutex|RwLock|OnceLock|Arc)\b|\bAtomic(Bool|Ptr|[UI](8|16|32|64|size))\b|sync::atomic' \
    || true)"
if [ -n "$SHARED_STATE" ]; then
    echo "$SHARED_STATE"
    echo "FAILED: a lock, atomic, OnceLock or Arc in non-test crates/core/src or crates/profile/src"
    exit 1
fi
if grep -rnE --include='*.rs' 'trait CostModel\b.*\bSync\b' crates/*/src; then
    echo "FAILED: CostModel declares a Sync supertrait again"
    exit 1
fi
if grep -rnE --include='*.rs' '\b(TimeRow|time_counted|count_hits|count_slot_hits|eval_at)\b' \
    crates tests examples --exclude-dir=rannc_benchmark; then
    echo "FAILED: the time-row handles, batched slot-hit publishing or DpCtx::eval_at are back"
    exit 1
fi

# A synchronous iteration has one closed form (rannc-cost's
# sync_iteration_time and IterationTail): the search score, explain's
# winner score and the simulators' tails all price through it. The
# search's own all-reduce term stays deleted, and nothing outside
# rannc-hw / rannc-cost prices a gradient all-reduce or an optimizer
# step from the raw hardware formulas.
if grep -rn --include='*.rs' "stage_allreduce_time" crates/*/src; then
    echo "FAILED: the deleted per-stage all-reduce term is back in crates/*/src"
    exit 1
fi
if grep -rnE --include='*.rs' "(replica_allreduce_time|optimizer_step_time)\(" \
    crates tests examples | grep -v '^crates/hw/src/' | grep -v '^crates/cost/src/'; then
    echo "FAILED: all-reduce or optimizer time priced outside rannc-hw/rannc-cost"
    exit 1
fi

# The graph index is the one place that derives whole-graph facts: its
# builder (crates/graph/src/index.rs) is the only Kahn pass and the only
# successor- and predecessor-table build over a task graph, and every
# other reader borrows TaskGraph::index, so a request never re-derives
# them. task_predecessors_into stays deleted (Kahn's in-degrees and the
# predecessor table both come from the successor table).
if grep -rnE --include='*.rs' "(\.|::)task_(successors|predecessors)_into\(" crates/*/src \
    | grep -v '^crates/graph/src/index.rs:'; then
    echo "FAILED: task_successors_into/task_predecessors_into called outside the graph index builder"
    exit 1
fi

# The profiler's per-task cost rows are a fact of the graph, built once per
# graph in its index (TaskGraph::task_costs): the per-task FLOP and byte
# counts are defined and read only in crates/graph/src/, so no profiler or
# cost model rebuilds them per request.
if grep -rnE --include='*.rs' "task_flops\(|task_bytes_split\(" crates tests examples \
    | grep -v '^crates/graph/src/'; then
    echo "FAILED: per-task FLOP or byte counting outside crates/graph/src/"
    exit 1
fi

# The block phase walks every task edge once per step: coarsening and
# uncoarsening each build one GroupGraph, then contract it per level or
# patch it per move. The per-level and per-move rebuild
# (BlockCtx::adjacency) stays deleted; the from-scratch walk lives only
# in crates/core/tests/support/ as the oracle.
if grep -rnE --include='*.rs' "fn adjacency|\.adjacency\(" crates/core/src; then
    echo "FAILED: the group-adjacency rebuild is back in crates/core/src"
    exit 1
fi

# A training campaign has one simulator, the churn engine: a fault plan
# plays through it as a starting cluster plus a trace of losses
# (FaultPlan::to_churn), and priced_iteration_time is the one pricer of a
# plan's iteration on a changed cluster. The fault engine, its pricer,
# config and policy enum stay deleted.
if grep -rnE --include='*.rs' \
    "simulate_faulted|faulted_iteration_time|FaultSimConfig|RecoveryPolicy" crates/*/src; then
    echo "FAILED: the deleted fault campaign engine is back in crates/*/src"
    exit 1
fi

# A fault plan has one reading: global device ranks, played by the
# campaign simulator. The numeric fault-tolerant trainer, its per-stage
# injection context and its tick scale stay deleted, and the trainer
# depends on neither the fault plans nor the cost layer.
if grep -rnE --include='*.rs' \
    "train_with_faults|StageFaultCtx|FtConfig|FtReport|SimTicks|kill_by_panic" crates/*/src; then
    echo "FAILED: the deleted fault-tolerant trainer is back in crates/*/src"
    exit 1
fi
if grep -nE "rannc-faults|rannc-cost" crates/train/Cargo.toml; then
    echo "FAILED: rannc-train depends on rannc-faults or rannc-cost again"
    exit 1
fi

# A synchronous schedule has one definition and a plan one certify path:
# rannc-verify's ScheduleModel::{fill_drain, one_f_one_b} build the only
# issue orders (the simulator executes them, the verifier proves them),
# and PartitionPlan::certify is the one step from a plan to its deep
# report. The simulator's own order builders, its model bridge and the
# pipeline crate's certify wrappers stay deleted, as does the trainer's
# stage-migration path (restage and the Adam slot transfer it used).
# The rannc_benchmark package is exempt (it has its own workspace and is
# changed only with the benchmark).
if grep -rnE --include='*.rs' \
    "fn work_order|sync_work_orders|fn schedule_model|WorkKind|deep_verify_plan|fn comm_program|BadAssignment|fn restage|take_slot|restore_slot|AdamSlotState" \
    crates/*/src --exclude-dir=rannc_benchmark; then
    echo "FAILED: a second schedule definition or certify path is back in crates/*/src"
    exit 1
fi

# Algorithm 2 has one owner: core::search builds the (S, MB, T) grid
# (tier_grids), runs its cells and applies the first-minimum rule, and a
# harness that needs a tier reads scan_first_feasible_tier instead of
# driving Algorithm 1 itself. A Rannc request runs one pipeline (one cost
# model, then search, plan, annotate and verify), so the ladder's
# zero-stage placeholder plan stays deleted. Test modules, tests/ and
# the rannc_benchmark package (changed only with the benchmark) are
# exempt.
if grep -rn --include='*.rs' "fn empty_like" crates tests examples \
    --exclude-dir=rannc_benchmark; then
    echo "FAILED: the zero-stage placeholder plan is back"
    exit 1
fi
DP_CALLS="$(find crates/*/src -name '*.rs' ! -path '*/rannc_benchmark/*' \
    ! -path crates/core/src/search.rs -print0 \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' \
    | grep -F 'form_stage_dp(' | grep -vE '^[^:]+:[0-9]+: *//' \
    | grep -vE '^crates/core/src/dp\.rs:[0-9]+: pub fn form_stage_dp\(' || true)"
if [ -n "$DP_CALLS" ]; then
    echo "$DP_CALLS"
    echo "FAILED: form_stage_dp called outside core::search in non-test code"
    exit 1
fi

# The stage-cut refinement is Algorithm 2's last step and has one caller:
# refine::refined_stages is called only by search's refine_winner, and
# refine_winner only by form_stage_with, so cold plans, warm replans and
# ladder rungs all reach it through the one search path (and the
# benchmark's traced mirror, which calls form_stage_with, sees it too).
REFINE_CALLS="$(find crates/*/src -name '*.rs' ! -path '*/rannc_benchmark/*' -print0 \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' \
    | grep -F 'refined_stages(' | grep -vE '^[^:]+:[0-9]+: *//' \
    | grep -vE '^crates/core/src/refine\.rs:[0-9]+: pub fn refined_stages\(' || true)"
if [ "$(echo "$REFINE_CALLS" | grep -c .)" -ne 1 ] \
    || ! echo "$REFINE_CALLS" | grep -q '^crates/core/src/search\.rs:'; then
    echo "$REFINE_CALLS"
    echo "FAILED: refine::refined_stages must be called once, from core::search"
    exit 1
fi
REFINE_CALLERS="$(awk '/^(pub )?fn / { f = $0 } /refine_winner\(/ && !/fn refine_winner/ { print f }' \
    crates/core/src/search.rs)"
if [ "$REFINE_CALLERS" != "pub fn form_stage_with(" ]; then
    echo "$REFINE_CALLERS"
    echo "FAILED: the refinement (refine_winner) must be called once, from form_stage_with"
    exit 1
fi
if grep -rn --include='*.rs' "refine_winner" crates --exclude-dir=rannc_benchmark \
    | grep -v '^crates/core/src/search.rs:'; then
    echo "FAILED: refine_winner referenced outside core::search"
    exit 1
fi
# The refinement prices every atom once per micro-batch into one exact
# prefix array and finds each cut by a binary search over it: the lazy
# pricing (largest_fit's gallop), the reader masks and their piece limit
# (MAX_PIECES) and its reads of the search's block time rows stay
# deleted. Compaction maps its groups with a plain iterator (it gets at
# most k of them on every benchmark workload), so the size-gated
# parallel_map stays deleted, and coarsening prices its atoms and builds
# its group graph on the calling thread, so par::join stays deleted. The
# search walks each tier best-first on the calling thread, so the sweep's
# fan-out (parallel_map_with) and the worker count behind it
# (max_threads, RANNC_THREADS) stay deleted too; par::set_threads is a
# no-op kept for the benchmark package.
if awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' \
    crates/core/src/refine.rs | grep -E 'largest_fit|MAX_PIECES|time_counted|\.row\('; then
    echo "FAILED: the refinement's lazy atom pricing or its block time row reads are back"
    exit 1
fi
if grep -rn --include='*.rs' "parallel_map(" crates/*/src; then
    echo "FAILED: the size-gated par::parallel_map is back"
    exit 1
fi
if grep -rnE --include='*.rs' "fn join\b|par::join\(" crates/*/src; then
    echo "FAILED: par::join is back"
    exit 1
fi
if grep -rnE --include='*.rs' "parallel_map_with|max_threads|RANNC_THREADS" \
    crates tests examples --exclude-dir=rannc_benchmark; then
    echo "FAILED: the search fan-out or its worker count is back"
    exit 1
fi
# DP arenas outlive the search: each (MB, T) group and the refinement
# draw their arena from the thread's spare list (DpArena::draw) and
# shelve it there when done, so non-test search.rs never builds one.
if awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' \
    crates/core/src/search.rs | grep -E 'DpArena::(new|default)\(\)'; then
    echo "FAILED: core::search builds a DpArena instead of drawing a spare"
    exit 1
fi
# The spare list is the one arena source: the per-search pool layered
# over it (ArenaPool) stays deleted.
if grep -rn --include='*.rs' "ArenaPool" crates/*/src --exclude-dir=rannc_benchmark; then
    echo "FAILED: the per-search ArenaPool is back in crates/*/src"
    exit 1
fi
# The planner spawns no thread: outside tests, only the numeric pipeline
# trainer (rannc-train's pipeline.rs), which runs one thread per stage,
# spawns one, and the rannc_benchmark package is exempt (it is changed
# only with the benchmark).
SPAWN_HITS="$(find crates/*/src -name '*.rs' ! -path '*/rannc_benchmark/*' \
    ! -path crates/train/src/pipeline.rs -print0 \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' \
    | grep -E '(thread::|\.)spawn\(|thread::Builder' | grep -vE '^[^:]+:[0-9]+: *//' || true)"
if [ -n "$SPAWN_HITS" ]; then
    echo "$SPAWN_HITS"
    echo "FAILED: a thread spawned outside the pipeline trainer"
    exit 1
fi

# The explain artifact is a value: Rannc::explain builds it from the
# cells and refinement the search returns. Outside tests,
# crates/obs/src/recorder.rs declares no static, lock or atomic, and the
# process-global recorder's switch and hooks (begin_search, the
# annotate_recording stamp, recorder::set_enabled, recorder::take) stay
# deleted.
RECORDER_STATE="$(awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' \
    crates/obs/src/recorder.rs | grep -vE '^[^:]+:[0-9]+: *//' \
    | grep -E "(^|[^'])\bstatic\b|\b(Mutex|RwLock|OnceLock)\b|\bAtomic[A-Za-z0-9]*\b|sync::atomic" \
    || true)"
if [ -n "$RECORDER_STATE" ]; then
    echo "$RECORDER_STATE"
    echo "FAILED: a static, lock or atomic in non-test crates/obs/src/recorder.rs"
    exit 1
fi
if grep -rnE --include='*.rs' '\b(begin_search|annotate_recording)\b|recorder::(set_enabled|take)\b' \
    crates tests examples --exclude-dir=rannc_benchmark; then
    echo "FAILED: the process-global recorder's switch or hooks are back"
    exit 1
fi

# planner_bench is a bench: it times the block phase and one search per
# case. The one-thread rerun and its speedup geomean stay deleted, and so
# do the
# criterion micro-benches and their vendored stub, which gated nothing.
if grep -rnE "seq_seconds|geomean_speedup" crates/bench/src BENCH_partition.json \
    --exclude-dir=rannc_benchmark; then
    echo "FAILED: planner_bench's one-thread rerun (seq_seconds, geomean_speedup) is back"
    exit 1
fi
if [ -e crates/bench/benches ] || [ -e vendor/criterion ] \
    || grep -n "criterion" Cargo.toml crates/*/Cargo.toml; then
    echo "FAILED: the criterion micro-benches or their vendored stub are back"
    exit 1
fi

# A stage has one residency rule and a baseline is a plan:
# rannc_profile::memory::Residency is the one place the in-flight count and
# the checkpointing switch (on whenever S > 1) are written, so no other
# module spells a checkpoint literal. The pipeline baselines price their
# layer splits as plans through spec_from_plan: their private spec
# builder, its knobs and data parallelism's second outcome type stay
# deleted. The §IV-C ablation DP is a reproduction harness in rannc-bench,
# not a second stage DP in the planner. Test modules and the
# rannc_benchmark package (changed only with the benchmark) are exempt.
NONTEST_SRC="$(find crates/*/src -name '*.rs' ! -path '*/rannc_benchmark/*' -print0 \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' \
    | grep -vE '^[^:]+:[0-9]+: *//' || true)"
if echo "$NONTEST_SRC" | grep -E '\b(UniformSpec|build_spec|inflight_override|DataParallelOutcome)\b'; then
    echo "FAILED: a baseline's private spec builder or outcome type is back in crates/*/src"
    exit 1
fi
if echo "$NONTEST_SRC" | grep -E '^crates/core/src/' \
    | grep -E 'form_stage_dp_no_coarsening|AblationOutcome'; then
    echo "FAILED: the §IV-C ablation DP is back in crates/core/src"
    exit 1
fi
if echo "$NONTEST_SRC" | grep -E 'stages > 1|stages\.len\(\) > 1|s_max > 1' \
    | grep -v '^crates/profile/src/memory.rs:'; then
    echo "FAILED: a checkpoint literal outside the residency rule (rannc_profile::memory)"
    exit 1
fi

# Megatron is a baseline, not a cost-model owner: its analytic model lives
# in crates/baselines/src/megatron.rs behind one entry point priced
# through the caller's cost model. rannc-cost's tensor module and the
# second entry point stay deleted, and rannc-cost depends on rannc-models
# only in its tests.
if [ -e crates/cost/src/tensor.rs ]; then
    echo "FAILED: crates/cost/src/tensor.rs is back"
    exit 1
fi
if grep -rn --include='*.rs' "megatron_with" crates tests examples; then
    echo "FAILED: the second Megatron entry point (megatron_with) is back"
    exit 1
fi
if awk '/^\[/ { section = $0 } section == "[dependencies]" && /rannc-models/' \
    crates/cost/Cargo.toml | grep .; then
    echo "FAILED: rannc-cost depends on rannc-models outside [dev-dependencies]"
    exit 1
fi

echo "==> one-placement gate (every cluster planned, verified and priced through the placed path)"
# A homogeneous cluster is a cluster with no overrides: the planner, the
# verifier, the churn pricer and the link selectors have no separate path
# for it. Outside non-test code is_heterogeneous() chooses only the stage
# DP's d_min pruning (the score-regret harness asserts it too); no link
# selector short-cuts on an empty override table; the contiguous slot
# rule (replica r of slot j is rank r·per_replica + j) is written once,
# in ClusterSpec::slot_devices; and the optional placement table stays
# deleted. The rannc_benchmark package is exempt (it has its own
# workspace and is changed only with the benchmark).
HETERO_HITS="$(find crates/*/src -name '*.rs' ! -path '*/rannc_benchmark/*' -print0 \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' \
    | grep -F 'is_heterogeneous()' | grep -vE '^[^:]+:[0-9]+: *//' \
    | grep -vE '^crates/core/src/dp\.rs:[0-9]+: +let prune = !ctx\.cluster\(\)\.is_heterogeneous\(\);$' \
    | grep -vE '^crates/bench/src/regret\.rs:[0-9]+: +assert!\(!cluster\.is_heterogeneous\(\), ' \
    || true)"
if [ -n "$HETERO_HITS" ]; then
    echo "$HETERO_HITS"
    echo "FAILED: is_heterogeneous() chooses a path outside the stage DP's d_min pruning"
    exit 1
fi
if grep -rn --include='*.rs' "link_overrides.is_empty()" crates tests examples \
    --exclude-dir=rannc_benchmark \
    | grep -vF '!self.device_overrides.is_empty() || !self.link_overrides.is_empty()'; then
    echo "FAILED: a link selector short-cuts on an empty override table"
    exit 1
fi
if grep -rn --include='*.rs' '\* per_replica +' crates tests examples \
    --exclude-dir=rannc_benchmark | grep -v '^crates/hw/src/cluster.rs:'; then
    echo "FAILED: the slot-to-rank rule written outside ClusterSpec::slot_devices"
    exit 1
fi
if [ "$(grep -c '\* per_replica +' crates/hw/src/cluster.rs)" -ne 1 ]; then
    echo "FAILED: expected the slot-to-rank rule exactly once in ClusterSpec::slot_devices"
    exit 1
fi
if grep -rnF --include='*.rs' "Option<&'a SlotTable>" crates tests examples; then
    echo "FAILED: the optional placement table is back"
    exit 1
fi

echo "==> one-reader gate (artifact loaders decode through obs::json::decode)"
# Every JSON loader reads through the strict reader in rannc-obs's json
# module: outside it, no non-test code under crates/*/src parses JSON or
# walks a Value with the untyped accessors. The rannc_benchmark package
# is exempt (it has its own workspace and is changed only with the
# benchmark).
READER_HITS="$(find crates/*/src -name '*.rs' ! -path '*/rannc_benchmark/*' \
    ! -path crates/obs/src/json.rs -print0 \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' \
    | grep -E 'json::(parse|\{[^}]*\bparse\b)|\bas_f64\b|\bas_arr\b' || true)"
if [ -n "$READER_HITS" ]; then
    echo "$READER_HITS"
    echo "FAILED: JSON read outside obs::json's strict reader"
    exit 1
fi
# the serde stubs are a dead contract: no derive, attribute or manifest
# entry may bring it back (vendor/serde stays for rannc_benchmark)
if grep -rn "serde" Cargo.toml crates/*/Cargo.toml crates/*/src \
    --exclude-dir=rannc_benchmark; then
    echo "FAILED: serde referenced in the workspace"
    exit 1
fi

echo "==> verifier smoke-gate (rannc-plan verify --deep, all models x 16/32 devices)"
# --deep adds the dataflow-certified layer: liveness-certified peak
# memory within capacity and a race-free derived communication program
# under both pipeline schedules.
for nodes in 2 4; do
    for model in mlp bert gpt t5 resnet; do
        case "$model" in
            mlp)    flags="--hidden 256 --layers 8" ;;
            resnet) flags="--layers 50 --width-factor 1" ;;
            *)      flags="--hidden 256 --layers 4" ;;
        esac
        # shellcheck disable=SC2086
        ./target/release/rannc-plan verify --model "$model" $flags \
            --nodes "$nodes" --batch 256 --k 8 --deep >/dev/null \
            || { echo "deep verify FAILED: $model on $nodes nodes"; exit 1; }
        echo "    deep verify clean: $model on $nodes node(s)"
    done
done

echo "==> tensor-parallel smoke (3D sweep picks T>1, deep-verifies, beats 2D)"
# Megatron-regime configuration: mini-batch 4 on one 8-GPU node, so data
# parallelism alone cannot occupy the node — the (S, MB, T) sweep must
# shard the stage, and the plan must survive the deep verifier's RV07x
# tensor-parallel checks. The quantitative half of this gate (3D beats
# the best 2D plan's simulated iteration) is end_to_end's
# tensor_parallel_plan_beats_the_best_2d_plan.
./target/release/rannc-plan verify --model bert --hidden 1024 --layers 4 \
    --nodes 1 --batch 4 --k 8 --tp-max 4 --deep >/dev/null \
    || { echo "tensor-parallel deep verify FAILED"; exit 1; }
TP_PLAN="$(./target/release/rannc-plan --model bert --hidden 1024 --layers 4 \
    --nodes 1 --batch 4 --k 8 --tp-max 4)"
if ! echo "$TP_PLAN" | grep -q "tensor"; then
    echo "3D sweep never chose T>1 on the Megatron-regime case"; exit 1
fi
# with --tp-max 1 the same config must reproduce the historical 2D plan
# (no tensor-parallel stage anywhere in the summary)
TP1_PLAN="$(./target/release/rannc-plan --model bert --hidden 1024 --layers 4 \
    --nodes 1 --batch 4 --k 8 --tp-max 1)"
if echo "$TP1_PLAN" | grep -q "tensor"; then
    echo "2D search (--tp-max 1) printed a tensor-parallel stage"; exit 1
fi
# The benchmark's tensor-parallel setting (bert64-tp8-certify): BERT
# 2048x64 on 2x8 V100 at batch 8. With Megatron-layout pricing (only the
# row-split matmul outputs are all-reduced; split tasks divide compute
# and activations) the sweep must shard a stage at least 4 ways, and the
# plan must pass the deep verifier.
TP8_PLAN="$(./target/release/rannc-plan verify --model bert --hidden 2048 --layers 64 \
    --nodes 2 --batch 8 --tp-max 8 --deep)" \
    || { echo "bert64 --tp-max 8 deep verify FAILED"; exit 1; }
if ! echo "$TP8_PLAN" | grep -qE "x([4-9]|[1-9][0-9]+) tensor"; then
    echo "bert64 --tp-max 8 printed no stage with T >= 4"; exit 1
fi
echo "    tensor-parallel smoke clean: T>1 chosen, deep verify passed, 2D unchanged, bert64 T>=4"

echo "==> stage-cut refinement gates (bert256-d128 throughput, Fig. 4 against GPipe-Hybrid)"
# The benchmark's flagship setting: with the winner's cuts refined at atom
# granularity the plan must simulate at 21.0 samples/s or more (19.76 with
# block cuts alone).
BERT256_TPUT="$(./target/release/rannc-plan --model bert --hidden 2048 --layers 256 \
    --nodes 16 --batch 1024 2>/dev/null | sed -n 's/^simulated iteration: .* throughput \([0-9.]*\) samples\/s.*/\1/p')"
if ! awk -v t="$BERT256_TPUT" 'BEGIN { exit !(t != "" && t >= 21.0) }'; then
    echo "FAILED: bert256-d128 simulates at '$BERT256_TPUT' samples/s (need >= 21.0)"
    exit 1
fi
echo "    bert256-d128 simulates at $BERT256_TPUT samples/s"
# Fig. 4: RaNNC FP32 at or above GPipe-Hybrid in every cell, and strictly
# above it on 2048x256 (the table's columns: layers, DataParallel,
# Megatron fp32/mixed, GPipe-Hybrid, PipeDream-2BW, RaNNC fp32/mixed)
FIG4="$(./target/release/fig4_bert 2>/dev/null)"
if ! echo "$FIG4" | awk '
    /hidden=/ { split($0, h, "hidden="); split(h[2], w, ","); hidden = w[1] }
    $1 ~ /^[0-9]+$/ && NF == 8 {
        cells++
        if ($7 + 0 < $5 + 0) { print "    RaNNC(fp32) " $7 " < GPipe-Hybrid " $5 " at " hidden "x" $1; bad = 1 }
        if (hidden == 2048 && $1 == 256) { big = ($7 + 0 > $5 + 0) }
    }
    END { exit !(cells == 18 && !bad && big) }'; then
    echo "FAILED: RaNNC FP32 loses to GPipe-Hybrid in a Fig. 4 cell (or not strictly on 2048x256)"
    exit 1
fi
echo "    Fig. 4: RaNNC FP32 >= GPipe-Hybrid in all 18 cells, > on 2048x256"

echo "==> planner-bench smoke (block phase and search, self-checked)"
# --check reads the timed run and exits nonzero on malformed JSON, a
# profiler hit rate below its floor, a DP memo that never hits, or an
# observability allocation while it is disabled. Plan identity against
# the reference scan lives in the determinism and prop_dp_flat suites.
./target/release/planner_bench --quick --check \
    --out BENCH_partition_quick.json \
    || { echo "planner_bench smoke FAILED"; exit 1; }
rm -f BENCH_partition_quick.json

echo "==> planner-bench paper-scale smoke (bert-256l at 128 devices, 120 s budget)"
# The acceptance config of the flat-table DP engine: a ~7.4k-task BERT
# planned at 128 devices must finish well inside the wall-clock budget
# and pass the same self-checks (hit-rate floor, memo hits, zero
# allocations while disabled); its plan is pinned bit-exactly by the
# benchmark's sim_samples_per_s.
timeout 120 ./target/release/planner_bench --paper-scale --quick \
    --check --repeat 1 --out BENCH_partition_paper_quick.json \
    || { echo "planner_bench paper-scale smoke FAILED (or blew the 120 s budget)"; exit 1; }
rm -f BENCH_partition_paper_quick.json

echo "==> score-regret smoke (search score vs simulator on the quick Fig. 4/5 grids)"
# measurement only: the harness simulates every feasible cell of each
# winning tier and prints the score/sim error, Kendall tau and top-1 regret
./target/release/score_regret --quick >/dev/null \
    || { echo "score_regret smoke FAILED"; exit 1; }

echo "==> observability smoke (trace + metrics export, validated by obs-check)"
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
./target/release/rannc-plan --model bert --hidden 256 --layers 4 \
    --nodes 2 --batch 64 --k 8 \
    --trace-out "$OBS_TMP/trace.json" --metrics-out "$OBS_TMP/metrics.jsonl" \
    >/dev/null 2>&1 \
    || { echo "obs export FAILED"; exit 1; }
./target/release/rannc-plan obs-check \
    --trace "$OBS_TMP/trace.json" --metrics "$OBS_TMP/metrics.jsonl" \
    || { echo "obs-check FAILED"; exit 1; }

echo "==> explain smoke (flight recorder -> explain -> device-loss diff)"
# plan with the flight recorder on, render the artifact, replan after a
# device loss, and attribute the delta; a corrupted artifact must be
# rejected with a nonzero exit.
./target/release/rannc-plan --model bert --hidden 256 --layers 4 \
    --nodes 2 --batch 64 --k 8 \
    --explain-out "$OBS_TMP/explain_a.json" >/dev/null 2>&1 \
    || { echo "explain recording FAILED"; exit 1; }
./target/release/rannc-plan explain "$OBS_TMP/explain_a.json" >/dev/null \
    || { echo "explain rendering FAILED"; exit 1; }
./target/release/rannc-plan --model bert --hidden 256 --layers 4 \
    --nodes 2 --batch 64 --k 8 --lose-device 0 \
    --explain-out "$OBS_TMP/explain_b.json" >/dev/null 2>&1 \
    || { echo "explain recording after device loss FAILED"; exit 1; }
./target/release/rannc-plan explain --diff \
    "$OBS_TMP/explain_a.json" "$OBS_TMP/explain_b.json" >/dev/null \
    || { echo "explain --diff FAILED"; exit 1; }
# resnet152x8 at 128 devices skips cells by the bottleneck test: loading
# its artifact validates every recorded bound against the winner's score
./target/release/rannc-plan --model resnet --layers 152 --width-factor 8 \
    --nodes 16 --batch 1024 \
    --explain-out "$OBS_TMP/explain_resnet.json" >/dev/null 2>&1 \
    || { echo "explain recording (resnet152x8, 128 devices) FAILED"; exit 1; }
./target/release/rannc-plan explain "$OBS_TMP/explain_resnet.json" >/dev/null \
    || { echo "explain rendering (resnet152x8, 128 devices) FAILED"; exit 1; }
head -c 120 "$OBS_TMP/explain_a.json" > "$OBS_TMP/explain_corrupt.json"
if ./target/release/rannc-plan explain "$OBS_TMP/explain_corrupt.json" \
    >/dev/null 2>&1; then
    echo "explain accepted a corrupted artifact"; exit 1
fi

echo "==> hostile-input smoke (200,000 nested brackets: exit 1, not a stack overflow)"
head -c 200000 /dev/zero | tr '\0' '[' > "$OBS_TMP/deep.json"
for cmd in "explain $OBS_TMP/deep.json" \
    "obs-check --trace $OBS_TMP/deep.json" \
    "obs-check --metrics $OBS_TMP/deep.json" \
    "--model mlp --hidden 64 --layers 4 --nodes 1 --batch 32 --k 4 \
        --cost-model calibrated:$OBS_TMP/deep.json" \
    "churn --model mlp --hidden 64 --layers 4 --nodes 1 --batch 32 --k 4 \
        --churn-trace $OBS_TMP/deep.json"; do
    status=0
    # shellcheck disable=SC2086
    ./target/release/rannc-plan $cmd >/dev/null 2>&1 || status=$?
    if [ "$status" -ne 1 ]; then
        echo "rannc-plan $cmd exited $status on a deeply nested file (expected 1)"; exit 1
    fi
done

echo "==> churn smoke (seeded 50-event campaign, all policies, verified plans)"
# bert at 16 devices under a seeded 50-event churn stream: the campaign
# must complete (every adopted plan passes VerifyMode::Fail inside the
# planner) and the obs trace it emits must validate.
./target/release/rannc-plan churn --model bert --hidden 256 --layers 4 \
    --nodes 2 --batch 64 --k 8 --events 50 --seed 7 \
    --save-trace "$OBS_TMP/churn_events.json" \
    --trace-out "$OBS_TMP/churn_trace.json" \
    >/dev/null \
    || { echo "churn campaign FAILED"; exit 1; }
# the saved event stream must replay to the same campaign
./target/release/rannc-plan churn --model bert --hidden 256 --layers 4 \
    --nodes 2 --batch 64 --k 8 --churn-trace "$OBS_TMP/churn_events.json" \
    --policy adaptive >/dev/null \
    || { echo "churn trace replay FAILED"; exit 1; }
./target/release/rannc-plan obs-check --trace "$OBS_TMP/churn_trace.json" \
    || { echo "churn obs-check FAILED"; exit 1; }

echo "==> faults smoke (README fault plan through the churn engine, out-of-shape rank exits 1)"
# the README example: a device loss and a straggler, degrade-in-place
# against replan-always; the obs trace it emits must validate
./target/release/rannc-plan faults --model mlp --hidden 64 --layers 8 \
    --nodes 2 --batch 32 --k 8 --fail 0@50000 --straggler 3@2.0 \
    --trace-out "$OBS_TMP/faults_trace.json" >/dev/null \
    || { echo "faults campaign FAILED"; exit 1; }
./target/release/rannc-plan obs-check --trace "$OBS_TMP/faults_trace.json" \
    || { echo "faults obs-check FAILED"; exit 1; }
# rank 99 does not exist on one 8-device node: a typed error, exit 1
status=0
./target/release/rannc-plan faults --model mlp --hidden 64 --layers 8 \
    --nodes 1 --batch 32 --k 8 --fail 99@10 >/dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "rannc-plan faults --fail 99@10 on one node exited $status (expected 1)"; exit 1
fi

echo "==> cargo clippy"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "All checks passed."
