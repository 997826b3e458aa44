//! # rannc-tensor
//!
//! A small, deterministic dense-tensor library backing the numeric
//! loss-validation experiment of the reproduction (§IV-B of the paper
//! validates that RaNNC's synchronous pipeline reaches the same loss as
//! non-pipelined training; `rannc-train` proves the same invariant with
//! real numbers on this substrate).
//!
//! Scope: 2-D `f32` tensors (`[batch, features]`), the operations a
//! pipeline-parallel MLP trainer needs — GEMM in the three orientations
//! backward passes use, bias, activations, softmax cross-entropy — plus
//! SGD/Adam optimizers. Everything is bit-deterministic: fixed seeds,
//! fixed reduction orders, no threads inside an op.

pub mod matrix;
pub mod ops;
pub mod optim;
pub mod rng;

pub use matrix::Matrix;
pub use optim::{Adam, Optimizer, Sgd};
pub use rng::Rng;
