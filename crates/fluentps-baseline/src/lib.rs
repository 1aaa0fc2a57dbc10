//! Baseline comparator systems from the paper's evaluation.
//!
//! * [`pslite`] — a PS-Lite-style design: a **centralized scheduler** tracks
//!   every worker's progress and gates synchronization globally, producing
//!   the *non-overlap* behaviour of Figure 5(a): a fast worker may not even
//!   send its pull requests until the slowest worker has updated **all** M
//!   parameter shards. Combined with PS-Lite's default contiguous key
//!   slicing (`fluentps_core::eps::DefaultSlicer`), this is the Figure 6
//!   baseline.
//! * [`ssptable`] — a Bösen/SSPtable-style design: SSP enforced through a
//!   **client-side cached-parameter table** whose consistent staleness view
//!   becomes more expensive and less precise as workers are added. This is
//!   the PMLS-Caffe baseline whose accuracy collapses at N ≥ 8 in Figures 1
//!   and 7.

#![warn(missing_docs)]

pub mod pslite;
pub mod ssptable;

pub use pslite::{PsLiteMode, PsLiteScheduler};
pub use ssptable::SspTableModel;
