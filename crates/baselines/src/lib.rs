//! # rannc-baselines
//!
//! The frameworks the paper compares RaNNC against (§IV-A):
//!
//! * **Megatron-LM** ([`mod@megatron`]) — manual *tensor* partitioning for
//!   Transformer models only; no gradient accumulation; full-size result
//!   buffers (the two properties behind its OOMs in Fig. 4).
//! * **GPipe-Hybrid** ([`gpipe`]) — manual *graph* partitioning at layer
//!   granularity with hybrid parallelism: uniform layer counts per stage,
//!   the same replica count for every stage, stage counts from
//!   {2, 4, 8, 16}, synchronous fill–drain schedule.
//! * **GPipe-Model** ([`gpipe`]) — torchgpipe: model parallelism on a
//!   single node (≤ 8 stages), micro-batch count fixed at 64 (§IV-B).
//! * **PipeDream-2BW** ([`pipedream`]) — same layer-uniform partitioner,
//!   asynchronous 2BW schedule (no flush; parameter staleness).
//! * **Data parallelism** ([`dataparallel`]) — PyTorch DDP with gradient
//!   accumulation: the `S = 1` point, priced by its closed form.
//!
//! The three pipeline baselines are contiguous layer splits, so each one
//! is a point of the planner's own `(S, MB, T)` space at `T = 1`: they
//! price their splits as plans, through the planner's
//! [`rannc_pipeline::spec_from_plan`], with the stage residency of their
//! schedule ([`rannc_profile::Residency`]).
//!
//! All outcomes are reported through [`BaselineOutcome`], which carries
//! either a simulated iteration result or the reason training is
//! impossible (OOM / unsupported architecture) so the figure harnesses can
//! print the paper's missing bars faithfully.

pub mod dataparallel;
pub mod gpipe;
pub mod layers;
pub mod megatron;
pub mod pipedream;

pub use dataparallel::simulate_data_parallel;
pub use gpipe::{gpipe_hybrid, gpipe_model};
pub use layers::{layer_groups, LayerGroup};
pub use megatron::{megatron, megatron_with, TransformerDims};
pub use pipedream::pipedream_2bw;

use rannc_pipeline::SimResult;

/// What a baseline run reports.
#[derive(Debug, Clone)]
pub enum BaselineOutcome {
    /// Training is possible; carries the simulated result and a short
    /// human-readable description of the chosen configuration.
    Feasible {
        /// Simulated iteration result.
        result: SimResult,
        /// Description of the winning configuration (stage count etc.).
        config: String,
    },
    /// The model cannot be trained within device memory.
    OutOfMemory,
    /// The framework does not support this model architecture (e.g.
    /// Megatron-LM on ResNet).
    Unsupported,
}

impl BaselineOutcome {
    /// The simulated result, if feasible.
    pub fn ok(&self) -> Option<&SimResult> {
        match self {
            BaselineOutcome::Feasible { result, .. } => Some(result),
            _ => None,
        }
    }

    /// Samples/s, or `None` when the framework cannot train the model.
    pub fn throughput(&self) -> Option<f64> {
        self.ok().map(|r| r.throughput)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc_cost::CostModel;
    use rannc_graph::TaskGraph;
    use rannc_hw::{ClusterSpec, DeviceSpec};
    use rannc_models::{bert_graph, resnet_graph, BertConfig, ResNetConfig};
    use rannc_profile::{Profiler, ProfilerOptions};

    fn pinned(out: BaselineOutcome) -> (u64, String) {
        match out {
            BaselineOutcome::Feasible { result, config } => {
                (result.iteration_time.to_bits(), config)
            }
            other => panic!("expected a feasible baseline, got {other:?}"),
        }
    }

    /// The layer-split baselines' and data parallelism's iteration times
    /// and configurations, pinned bit for bit, including OOM outcomes.
    #[test]
    fn baseline_numbers_are_pinned() {
        let g = bert_graph(&BertConfig::enlarged(128, 4));
        type Baseline = fn(&TaskGraph, &dyn CostModel, &ClusterSpec, usize) -> BaselineOutcome;
        let baselines: [Baseline; 3] = [simulate_data_parallel, gpipe_hybrid, pipedream_2bw];
        let one_node = [
            (0x3f94_4e0d_ca8c_ed18, "S=1 x8 replicas, MB=1"),
            (0x3fa8_7238_a676_3986, "S=2 x4 replicas, MB=2"),
            (0x3fa4_ab93_4c50_369e, "S=2 x4 replicas, MB=1 (async 2BW)"),
        ];
        let two_nodes = [
            (0x3f8a_d97b_8761_1cb9, "S=1 x16 replicas, MB=1"),
            (0x3f9c_8cca_093c_4c2a, "S=2 x8 replicas, MB=2"),
            (0x3f95_761e_b606_18eb, "S=2 x8 replicas, MB=1 (async 2BW)"),
        ];
        // batch 256 on 1.4 GiB devices, where each baseline's residency
        // rule decides its winner: swapping any one of the three rules
        // for another changes that baseline's row
        let tight = [
            (0x3fbf_73b0_7a6d_f0ad, "S=1 x8 replicas, MB=32"),
            (0x3fcf_a321_98d2_8448, "S=2 x4 replicas, MB=64"),
            (0x3fc9_9793_2934_7826, "S=2 x4 replicas, MB=32 (async 2BW)"),
        ];
        let small = ClusterSpec {
            device: DeviceSpec::v100_32gb().with_memory((1 << 30) + (416 << 20)),
            ..ClusterSpec::v100_cluster(1)
        };
        let clusters = [
            (ClusterSpec::v100_cluster(1), 64, one_node),
            (ClusterSpec::v100_cluster(2), 64, two_nodes),
            (small, 256, tight),
        ];
        for (cluster, batch, pins) in clusters {
            let profiler = Profiler::new(&g, cluster.device.clone(), ProfilerOptions::fp32());
            for (baseline, (bits, config)) in baselines.iter().zip(pins) {
                let got = pinned(baseline(&g, &profiler, &cluster, batch));
                assert_eq!(got, (bits, config.to_string()), "{:?}", cluster.device);
            }
        }

        let g = resnet_graph(&ResNetConfig::tiny());
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let cluster = ClusterSpec::v100_cluster(1);
        let (bits, config) = pinned(gpipe_model(&g, &profiler, &cluster, 128));
        assert_eq!(bits, 0x3fa7_1b0c_f698_271e, "GPipe-Model");
        assert_eq!(config, "S=8 model-parallel, MB=64");

        for (memory, hidden, name, baseline) in [
            (1 << 28, 256, "DP", simulate_data_parallel as Baseline),
            (1 << 20, 128, "GH", gpipe_hybrid),
        ] {
            let device = DeviceSpec::v100_32gb().with_memory(memory);
            let cluster = ClusterSpec {
                device: device.clone(),
                ..ClusterSpec::v100_cluster(1)
            };
            let g = bert_graph(&BertConfig::enlarged(hidden, 4));
            let profiler = Profiler::new(&g, device, ProfilerOptions::fp32());
            let out = baseline(&g, &profiler, &cluster, 64);
            assert!(
                matches!(out, BaselineOutcome::OutOfMemory),
                "{name}: {out:?}"
            );
        }
    }
}
