//! The search and the Megatron baseline move one tensor-parallel
//! communication volume.
//!
//! `megatron_partition` charges each transformer layer two activation
//! all-reduces per pass, of `b·s·h·act_bytes` each: one after the
//! attention output projection and one after the FFN's second matmul,
//! Megatron's two row-parallel matmuls. The search prices a stage's
//! per-pass all-reduce as its row-split matmul outputs
//! (`Profiler::tp_allreduce_bytes`). On the set of every encoder or
//! decoder layer, the two must agree exactly.

use rannc_cost::TransformerDims;
use rannc_graph::{TaskGraph, TaskSet};
use rannc_hw::DeviceSpec;
use rannc_models::{bert_graph, gpt_graph, BertConfig, GptConfig};
use rannc_profile::{Profiler, ProfilerOptions};

/// Every task of `g` inside a transformer layer (scope `*.layer<N>`).
fn layer_tasks(g: &TaskGraph) -> TaskSet {
    TaskSet::from_ids(
        g.num_tasks(),
        g.task_ids().filter(|&t| {
            g.task(t)
                .scope
                .rsplit('.')
                .next()
                .unwrap()
                .starts_with("layer")
        }),
    )
}

fn assert_megatron_volume(g: &TaskGraph, dims: TransformerDims) {
    let set = layer_tasks(g);
    assert!(!set.is_empty(), "{}", g.name);
    for opts in [ProfilerOptions::fp32(), ProfilerOptions::mixed()] {
        let p = Profiler::new(g, DeviceSpec::v100_32gb(), opts);
        let profiled = p.profiled(&set);
        let act_bytes = opts.precision.activation_bytes();
        for b in [1, 2, 16] {
            // megatron_partition's per-pass `ar_bytes`, two per layer
            let ar_bytes = b * dims.seq_len * dims.hidden * act_bytes;
            assert_eq!(
                p.tp_allreduce_bytes(&profiled, b),
                2 * dims.layers * ar_bytes,
                "{} at {:?}, micro-batch {b}",
                g.name,
                opts.precision
            );
        }
    }
}

#[test]
fn bert_layers_all_reduce_megatron_volume() {
    for cfg in [BertConfig::tiny(), BertConfig::large()] {
        assert_megatron_volume(&bert_graph(&cfg), TransformerDims::from(&cfg));
    }
}

#[test]
fn gpt_layers_all_reduce_megatron_volume() {
    for cfg in [GptConfig::tiny(), GptConfig::enlarged(1024, 24)] {
        assert_megatron_volume(&gpt_graph(&cfg), TransformerDims::from(&cfg));
    }
}
