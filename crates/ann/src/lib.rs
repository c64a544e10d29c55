//! # adamant-ann
//!
//! A FANN-style feedforward artificial neural network — the supervised
//! machine-learning knowledge base of the ADAMANT paper (Hoffert, Schmidt,
//! Gokhale — Middleware 2010, §3.2 and §4.4).
//!
//! The paper trains a fully connected sigmoid network (inputs: environment
//! and application parameters; outputs: one neuron per candidate transport
//! protocol) to a stopping error of `1e-4`, sweeps the hidden-node count,
//! evaluates accuracy on environments known *a priori* (training-set
//! recall) and unknown until runtime (10-fold cross-validation), and shows
//! the query path runs in bounded, input-independent time.
//!
//! This crate reproduces that toolchain:
//!
//! * [`NeuralNetwork`] — dense feedforward network with deterministic
//!   seeded initialisation, an architecture-only
//!   [`ops_per_query`](NeuralNetwork::ops_per_query) count for analytic
//!   timing models, and a batched forward pass over column-major feature
//!   lanes ([`run_batch_cols_into`](NeuralNetwork::run_batch_cols_into))
//!   for fleet-scale inference: a cache-tiled kernel compiled per vector
//!   ISA and dispatched at run time, bit-identical to per-row `run`. The
//!   sigmoid's `exp` is the crate's own, so results do not depend on the
//!   platform's libm.
//! * [`train`] — iRPROP− (FANN's default) and incremental backpropagation,
//!   driven to a stopping MSE. Every gradient sweep runs through a tiled
//!   kernel dispatched like the forward one, bit-identical to
//!   backpropagating one example at a time.
//! * [`evaluate`] / [`one_hot`] / [`argmax`] — classification utilities.
//! * [`cross_validate`] — n-fold cross-validation.
//! * [`MinMaxScaler`] — feature scaling.
//!
//! ## Example: train a tiny classifier
//!
//! ```
//! use adamant_ann::{
//!     evaluate, one_hot, train, Activation, NeuralNetwork, TrainParams, TrainingData,
//! };
//!
//! let inputs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0]).collect();
//! let targets: Vec<Vec<f64>> = (0..20).map(|i| one_hot(usize::from(i >= 10), 2)).collect();
//! let data = TrainingData::new(inputs, targets);
//!
//! let mut net = NeuralNetwork::new(&[1, 6, 2], Activation::fann_default(), 42);
//! train(&mut net, &data, &TrainParams::default());
//! assert!(evaluate(&net, &data).accuracy() > 0.9);
//! ```

// Not `forbid`: `network::run_tiles` is the one `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod classify;
mod cv;
mod network;
mod rng;
mod scale;
mod train;
mod tree;

pub use activation::Activation;
pub use classify::{argmax, evaluate, one_hot, Evaluation};
pub use cv::{cross_validate, fold_assignment, CrossValidation};
pub use network::{BatchScratch, NeuralNetwork};
pub use scale::MinMaxScaler;
pub use train::{
    train, train_with_validation, Algorithm, TrainOutcome, TrainParams, TrainingData,
    ValidatedOutcome,
};
pub use tree::{DecisionTree, DecisionTreeParams};
