//! From-scratch deep-learning substrate for the FluentPS reproduction.
//!
//! The paper trains AlexNet and ResNet-56 on CIFAR-10/100 through Caffe on
//! GPU clusters. Neither the hardware nor the DL bindings exist in this
//! environment, so this crate provides the closest synthetic equivalent that
//! exercises the same code path: real models trained with real stochastic
//! gradients, where the *parameter version each gradient is computed at* is
//! decided by the synchronization model under test. Staleness then hurts
//! convergence through exactly the mechanism the paper measures.
//!
//! Contents:
//!
//! * [`linalg`] — one sparse matrix-multiply kernel for all three products
//!   (each output block of 32 walks the nonzero inner indices of its row or
//!   column of the activation operand), bit-identical to the naive loops,
//!   and the ReLU/softmax helpers (the ReLU passes are branch-free selects
//!   with the branchy loops' bits).
//! * [`init`] — seeded Xavier/He initialisation.
//! * [`models`] — softmax regression, MLPs and a residual MLP standing in
//!   for ResNet-56 (deep, skip connections, higher staleness sensitivity).
//! * [`optim`] — SGD with momentum and weight decay, the one optimizer every
//!   figure and live run trains with (the paper's LARS is not reproduced),
//!   and [`Deltas`], the update it writes in wire form.
//! * [`schedule`] — learning-rate schedules (constant, step decay).
//! * [`data`] — seeded synthetic classification datasets standing in for
//!   CIFAR-10 ("c10-like": 10 classes) and CIFAR-100 ("c100-like": 100
//!   classes with lower attainable accuracy).
//! * [`metrics`] — accuracy and loss tracking.
//!
//! Parameters and gradients are `HashMap<u64, Vec<f32>>` keyed by layer
//! ([`ParamMap`]), the form a `WorkerClient` gathers pulled parameters
//! into. What a worker pushes is the optimizer's output, [`Deltas`]: the
//! update's values as little-endian bytes in one slab, keys ascending, which
//! the client slices into per-server payloads without converting them
//! again.

#![warn(missing_docs)]

mod cores;
pub mod data;
pub mod init;
pub mod linalg;
pub mod metrics;
pub mod models;
pub mod optim;
pub mod schedule;

/// Parameters / gradients keyed by parameter-server key.
pub type ParamMap = std::collections::HashMap<u64, Vec<f32>>;

pub use data::{Batch, Dataset};
pub use models::{Mlp, Model, ResidualMlp, SoftmaxRegression};
pub use optim::{Deltas, Optimizer, Sgd};
