//! # rannc-train
//!
//! A real (numeric) pipeline-parallel trainer on OS threads, used to
//! verify the paper's central correctness claim with actual numbers:
//!
//! > synchronous pipeline parallelism is **parameter-staleness-free** —
//! > training a partitioned model gives the same result as training it on
//! > one device (§II-B, §IV-B's loss-validation against Megatron-LM).
//!
//! [`validate::loss_validation`] trains the same MLP three ways on the
//! same data: single-device with gradient accumulation (reference),
//! a threaded **synchronous** micro-batch pipeline (bit-identical losses
//! to the reference, by construction of the reduction order), and an
//! **asynchronous** pipeline that applies updates between a micro-batch's
//! forward and backward (PipeDream-style staleness — the losses drift).

pub mod channel;
pub mod data;
pub mod error;
pub mod layer;
pub mod pipeline;
pub mod stage;
pub mod transformer;
pub mod validate;

pub use data::Dataset;
pub use error::TrainError;
pub use layer::Layer;
pub use pipeline::{train_pipeline, Mode, TrainConfig};
pub use stage::{build_mlp, split_into_stages, Stage};
pub use transformer::{LayerNorm, TransformerBlock};
pub use validate::{loss_validation, loss_validation_transformer, LossValidation};
