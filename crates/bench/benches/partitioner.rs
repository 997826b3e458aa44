//! Criterion micro-benchmarks of the partitioning phases (methodology
//! benchmarks: how expensive is RaNNC's own search?).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rannc::core::{
    atomic_partition, block_partition, form_stage_dp, BlockLimits, DpArena, DpCtx, DpParams,
    RangeTable,
};
use rannc::prelude::*;

fn bench_atomic(c: &mut Criterion) {
    let mut group = c.benchmark_group("atomic_partition");
    for layers in [4usize, 16, 48] {
        let g = bert_graph(&BertConfig::enlarged(128, layers));
        group.bench_with_input(BenchmarkId::from_parameter(layers), &g, |b, g| {
            b.iter(|| atomic_partition(g));
        });
    }
    group.finish();
}

fn bench_blocks(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_partition");
    group.sample_size(10);
    // two small BERTs at k = 16, and the paper-scale BERT 2048x256
    // (7.4k tasks) at k = 32, the planner's flagship case
    for (id, hidden, layers, k) in [
        ("4", 128usize, 4usize, 16usize),
        ("16", 128, 16, 16),
        ("256-k32", 2048, 256, 32),
    ] {
        let g = bert_graph(&BertConfig::enlarged(hidden, layers));
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let atomic = atomic_partition(&g);
        group.bench_with_input(BenchmarkId::from_parameter(id), &k, |b, &k| {
            b.iter(|| {
                block_partition(
                    &g,
                    &profiler,
                    &atomic,
                    BlockLimits {
                        k,
                        mem_limit: 32 << 30,
                        profile_batch: 1,
                    },
                )
            });
        });
    }
    group.finish();
}

fn bench_stage_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("form_stage_dp");
    group.sample_size(10);
    let g = bert_graph(&BertConfig::enlarged(128, 16));
    let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
    let atomic = atomic_partition(&g);
    let blocks = block_partition(
        &g,
        &profiler,
        &atomic,
        BlockLimits {
            k: 32,
            mem_limit: 32 << 30,
            profile_batch: 1,
        },
    );
    let cluster = ClusterSpec::v100_cluster(1);
    let ranges = RangeTable::build(&g, &profiler, &blocks);
    for (s, d) in [(2usize, 8usize), (4, 8), (8, 8)] {
        group.bench_with_input(
            BenchmarkId::new("SxD", format!("{s}x{d}")),
            &(s, d),
            |b, &(s, d)| {
                let p = DpParams {
                    stages: s,
                    devices: d,
                    batch_size: 64,
                    replica_factor: 1,
                    microbatches: 4,
                    mem_limit: 32 << 30,
                    tp: 1,
                };
                let ctx = DpCtx::new(&profiler, &ranges, &cluster, None, &p);
                b.iter(|| form_stage_dp(&ctx, &mut DpArena::new()));
            },
        );
    }
    group.finish();
}

/// The per-query cost of the profiling oracle on the paper-scale BERT
/// 2048x256, for block-range sets of three sizes (whole model, half, one
/// block): a range priced from its blocks' filled time slots, and the
/// same tasks priced as a plain set, one walk for statistics and one for
/// time.
fn bench_profile_set(c: &mut Criterion) {
    let mut group = c.benchmark_group("profile_set");
    let g = bert_graph(&BertConfig::enlarged(2048, 256));
    let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
    let blocks = block_partition(
        &g,
        &profiler,
        &atomic_partition(&g),
        BlockLimits {
            k: 32,
            mem_limit: 32 << 30,
            profile_batch: 1,
        },
    );
    let ranges = RangeTable::build(&g, &profiler, &blocks);
    let row = ranges.row(1, 1);
    let nb = ranges.blocks();
    for (id, to) in [("whole", nb), ("half", nb / 2), ("block", 1)] {
        let range = &ranges.get(0, to).set;
        let _ = ranges.time(&profiler, &row, 0, to);
        group.bench_with_input(BenchmarkId::new("composed", id), range, |b, range| {
            b.iter(|| {
                let time = ranges.time(&profiler, &row, 0, to);
                profiler.profile(range, time, 1, 1, false, 1)
            });
        });
        group.bench_with_input(BenchmarkId::new("walk", id), range.tasks(), |b, set| {
            b.iter(|| profiler.profile_set(set, 1, 1, false));
        });
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("rannc_partition_end_to_end");
    group.sample_size(10);
    let g = bert_graph(&BertConfig::enlarged(128, 8));
    let cluster = ClusterSpec::v100_cluster(1);
    group.bench_function("bert_128x8", |b| {
        b.iter(|| {
            Rannc::new(PartitionConfig::new(64).with_k(16))
                .partition(&g, &cluster)
                .unwrap()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_atomic,
    bench_blocks,
    bench_stage_dp,
    bench_profile_set,
    bench_end_to_end
);
criterion_main!(benches);
