//! Reproduction harness for the FluentPS evaluation (Section IV).
//!
//! [`driver`] simulates a complete data-parallel training job: real models
//! and gradients from `fluentps-ml`, synchronization from `fluentps-core`
//! (or a baseline from `fluentps-baseline`), and timing from the
//! discrete-event fabric in `fluentps-simnet`. Each module in [`figures`]
//! configures the driver to regenerate one table or figure of the paper;
//! the `repro` binary exposes them as subcommands.
//!
//! Scaling note: the defaults are laptop-scale (fewer iterations, smaller
//! models) so `repro all` finishes in minutes. Pass `--full` for runs sized
//! like the paper's (64 000 iterations, 128 workers); the qualitative shape
//! is the same, the wall-clock cost is not.

#![warn(missing_docs)]

pub mod driver;
pub mod figures;
pub mod live;
pub mod report;
pub mod tracerun;

pub use driver::{DriverConfig, EngineKind, ModelKind, RunResult, SlicerKind};
