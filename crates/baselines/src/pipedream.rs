//! PipeDream-2BW baseline: GPipe-Hybrid's layer-uniform partitioner with
//! the asynchronous 2BW schedule.
//!
//! Paper §IV-B: "Since PipeDream-2BW partitions a model in the same way as
//! GPipe-Hybrid, RaNNC can also achieve a better balance of stages than
//! PipeDream-2BW. PipeDream-2BW slightly outperformed RaNNC in several
//! settings, but it uses asynchronous pipeline parallelism and can cause
//! parameter staleness issues."
//!
//! Memory model: 2BW keeps **two weight versions** (double buffering) but
//! bounds in-flight activations by the pipeline depth instead of the
//! micro-batch count, and uses activation recomputation — so it trains
//! everything GPipe-Hybrid can, sometimes more.

use crate::layers::{layer_uniform_sweep, Framework};
use crate::BaselineOutcome;
use rannc_cost::CostModel;
use rannc_graph::TaskGraph;
use rannc_hw::ClusterSpec;
use rannc_pipeline::async2bw::simulate_async_2bw;
use rannc_profile::Residency;

/// 2BW's residency is 1F1B's: in-flight activations bounded by the
/// pipeline depth; one extra weight version resident.
const PIPEDREAM_2BW: Framework = Framework {
    residency: Residency::one_f_one_b,
    extra_weight_copies: 1,
    simulate: simulate_async_2bw,
    suffix: " (async 2BW)",
};

/// Run the PipeDream-2BW baseline: sweep stage counts {2, 4, 8, 16} and
/// micro-batch counts, simulate the async 2BW steady state, return best.
pub fn pipedream_2bw(
    g: &TaskGraph,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
    batch_size: usize,
) -> BaselineOutcome {
    layer_uniform_sweep(g, cost, cluster, batch_size, &PIPEDREAM_2BW)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpipe::gpipe_hybrid;
    use rannc_hw::DeviceSpec;
    use rannc_models::{bert_graph, BertConfig};
    use rannc_profile::{Profiler, ProfilerOptions};

    #[test]
    fn pipedream_beats_gpipe_hybrid_on_same_partition() {
        // no flush -> higher utilization than the sync schedule
        let cfg = BertConfig {
            layers: 4,
            ..BertConfig::tiny()
        };
        let g = bert_graph(&cfg);
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let cluster = ClusterSpec::v100_cluster(1);
        let pd = pipedream_2bw(&g, &profiler, &cluster, 64)
            .throughput()
            .expect("feasible");
        let gp = gpipe_hybrid(&g, &profiler, &cluster, 64)
            .throughput()
            .expect("feasible");
        assert!(
            pd >= gp * 0.95,
            "PipeDream-2BW ({pd:.1}) should be at least on par with GPipe-Hybrid ({gp:.1})"
        );
    }
}
