//! Deterministic discrete-event cluster simulator.
//!
//! The paper's timing results (Figure 6's computation/communication split,
//! the per-100-iteration times of Table IV, the accuracy-vs-time curves of
//! Figures 8/10/11) are properties of *event ordering and queueing*: who
//! waits on whom, how transfers serialize at a server's NIC, how stragglers
//! delay barriers. This crate provides exactly those pieces:
//!
//! * [`event`] — a stable priority queue over simulated time (ties broken by
//!   insertion order, so runs are bit-for-bit reproducible).
//! * [`compute`] — per-iteration compute-time models with straggler
//!   injection (random slowdowns, persistent slow nodes, heavy tails).
//! * [`net`] — latency/bandwidth links and serializing NIC queues.
//! * [`topology`] — a cluster of N workers and M servers wired through those
//!   NICs, with communication-time accounting per node.
//!
//! Simulated time is `f64` seconds. All randomness is seeded.

#![warn(missing_docs)]

pub mod compute;
pub mod event;
pub mod net;
pub mod topology;

pub use compute::{ComputeModel, StragglerSpec, WorkerCompute};
pub use event::EventQueue;
pub use net::{LinkModel, NicQueue};
pub use topology::ClusterTopology;
