//! # RaNNC (Rapid Neural Network Connector) — a Rust reproduction
//!
//! This crate is the façade of a full reproduction of *"Automatic Graph
//! Partitioning for Very Large-scale Deep Learning"* (Tanaka, Taura,
//! Hanawa, Torisawa — IPDPS 2021): middleware that takes an **unmodified**
//! model description and automatically partitions it into pipeline stages
//! for hybrid (pipeline + data) parallelism, such that every stage fits
//! device memory and training throughput is maximized.
//!
//! ## Quick start
//!
//! ```
//! use rannc::prelude::*;
//!
//! // an unmodified model description...
//! let graph = bert_graph(&BertConfig::tiny());
//! // ...a cluster...
//! let cluster = ClusterSpec::v100_cluster(1);
//! // ...and one call:
//! let plan = Rannc::new(PartitionConfig::new(32).with_k(8))
//!     .partition(&graph, &cluster)
//!     .unwrap();
//! println!("{}", plan.summary());
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`graph`] | ONNX-style task/value IR, convexity, cuts |
//! | [`models`] | BERT / GPT / ResNet / MLP graph builders |
//! | [`hw`] | device, link, cluster model (V100 presets) |
//! | [`profile`] | the analytical `profile(U, batch)` oracle |
//! | [`cost`] | pluggable cost models (analytical / calibrated) |
//! | [`core`] | the paper's partitioner (atomic / block / stage phases) |
//! | [`pipeline`] | event-driven schedule simulator (sync, 2BW, DP) |
//! | [`baselines`] | Megatron-LM, GPipe-Hybrid/Model, PipeDream-2BW |
//! | [`faults`] | seeded fault plans (device loss, stragglers, …) |
//! | [`verify`] | static graph/plan/schedule verifier (`RV0xx` diagnostics) |
//! | [`obs`] | tracing spans, metrics registry, Chrome-trace export |
//! | [`tensor`], [`train`] | numeric substrate + threaded pipeline trainer |

pub use rannc_baselines as baselines;
pub use rannc_core as core;
pub use rannc_cost as cost;
pub use rannc_faults as faults;
pub use rannc_graph as graph;
pub use rannc_hw as hw;
pub use rannc_models as models;
pub use rannc_obs as obs;
pub use rannc_pipeline as pipeline;
pub use rannc_profile as profile;
pub use rannc_tensor as tensor;
pub use rannc_train as train;
pub use rannc_verify as verify;

/// The most common imports in one place.
pub mod prelude {
    pub use rannc_core::{PartitionConfig, PartitionError, PartitionPlan, Rannc, VerifyMode};
    pub use rannc_cost::{CalibratedCost, Calibration, CostModel, CostModelSpec};
    pub use rannc_faults::{FaultEvent, FaultPlan};
    pub use rannc_graph::{GraphBuilder, OpKind, TaskGraph, TaskSet};
    pub use rannc_hw::{ClusterSpec, DeviceSpec, LinkSpec, NodeSpec, Precision};
    pub use rannc_models::{
        bert_graph, gpt_graph, mlp_graph, resnet_graph, t5_graph, BertConfig, GptConfig, MlpConfig,
        ResNetConfig, ResNetDepth, T5Config,
    };
    pub use rannc_pipeline::{simulate_plan, simulate_sync, SyncSchedule};
    pub use rannc_profile::{Profiler, ProfilerOptions};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work() {
        let g = mlp_graph(&MlpConfig::deep(16, 16, 4, 4));
        let cluster = ClusterSpec::v100_cluster(1);
        let plan = Rannc::new(PartitionConfig::new(16).with_k(4))
            .partition(&g, &cluster)
            .unwrap();
        assert!(plan.est_throughput() > 0.0);
    }
}
