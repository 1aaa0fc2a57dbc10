//! # FluentPS observability
//!
//! The paper's entire argument is about *when* things happen: a DPR deferred
//! under lazy execution releases iterations later than under the soft
//! barrier (Fig. 3), per-shard push conditions overlap where a global
//! barrier serializes (Fig. 10), and the headline metric is DPRs per 100
//! iterations of `V_train` progress (Table IV). This crate makes those
//! timelines directly inspectable:
//!
//! * [`event`] — typed trace events ([`TraceEvent`]) carrying logical time
//!   (worker iteration, shard `V_train`) plus a timestamp from whichever
//!   clock the driver runs on: wall clock for the threaded and TCP engines,
//!   the virtual clock for the discrete-event simulator.
//! * [`ring`] — bounded ring buffers; recording is a branch on a disabled
//!   [`Tracer`], so instrumented hot paths cost nothing when tracing is off.
//! * [`tracer`] — the [`TraceCollector`] (one per run) hands out per-thread
//!   [`Tracer`] handles and merges their rings into a time-ordered
//!   [`Trace`].
//! * [`clock`] — [`ClockSource`]: wall ([`std::time::Instant`]) or virtual
//!   ([`VirtualClock`], driven by the simulator's event queue).
//! * [`collect`] — cluster-wide collection: NTP-style clock-offset
//!   estimation ([`OffsetEstimator`]), a hybrid logical clock ([`Hlc`])
//!   and the [`ClusterCollector`] that merges N per-node streams into one
//!   causally-consistent [`Trace`] with exact per-node drop accounting.
//! * [`metrics`] — a registry of labeled counters, gauges and
//!   [`Histogram`]s with a plain-text renderer.
//! * [`export`] — Chrome trace-event JSON (open in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev)), JSONL, and a human-readable text
//!   summary. DPR defer→release pairs become duration spans.
//! * [`analyze`] — the trace-analytics report: per-worker time breakdowns,
//!   straggler scoreboard, per-shard sync health (DPR residence, late-push
//!   drop rate, `V_train` cadence), staleness/block-rate per gap, and
//!   critical-path extraction; plus a parser for exported JSONL traces.
//!   [`analyze()`] is a replay of a buffered trace through [`stream`].
//! * [`stream`] — the trace fold: the incremental [`StreamAnalyzer`] that
//!   owns every event matcher and the all-run figures, with
//!   tumbling/sliding windows of tail latency, staleness and progress
//!   rates on top, and the shareable [`HealthEngine`] every layer feeds
//!   and reads.
//! * [`alert`] — declarative threshold rules over closed windows plus a
//!   logical liveness rule, producing typed firing/resolved transitions
//!   with a deterministic fingerprint.
//! * [`http`] — a hand-rolled HTTP/1.1 introspection endpoint on
//!   `std::net::TcpListener` serving `/metrics` (Prometheus text),
//!   `/healthz`, `/trace?last=N`, `/slo` and `/alerts` from a live run.
//! * [`waterfall`] — exact per-request waterfalls assembled from the causal
//!   context (`fluentps-transport`'s `CausalCtx`) every stamped event
//!   carries: duplicate-safe, order-insensitive assembly, tail-based
//!   sampling with exact drop accounting, deterministic `waterfall-` lines,
//!   and exemplar-bearing latency histograms (DESIGN.md §17).
//! * [`hist`] — the power-of-two-bucket [`Histogram`] (moved here from
//!   `fluentps-core` so both the metrics registry and `ShardStats` share
//!   one implementation).
//! * [`json`] — a tiny writer/validator so exported traces can be checked
//!   without external tools (the workspace is hermetic; see DESIGN.md §7).
//!
//! Everything is std-only: the crate depends only on `fluentps-util`.

#![warn(missing_docs)]

pub mod alert;
pub mod analyze;
pub mod clock;
pub mod collect;
pub mod event;
pub mod export;
pub mod health;
pub mod hist;
pub mod http;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod stream;
pub mod tracer;
pub mod waterfall;

pub use alert::{AlertEngine, AlertMetric, AlertRule, AlertTransition};
pub use analyze::{analyze, Analysis, ServerPhases};
pub use clock::{ClockSource, VirtualClock};
pub use collect::{ClusterCollector, Hlc, NodeStats, OffsetEstimator};
pub use event::{EventKind, TraceEvent, KINDS, NO_ID};
pub use health::{ConsensusHealth, HealthView, NodeHealth};
pub use hist::Histogram;
pub use http::{IntrospectionServer, TraceSource};
pub use metrics::{MetricsRegistry, MetricsScope};
pub use stream::{
    HealthEngine, HealthTap, StreamAnalyzer, StreamConfig, WindowStats, WindowedHistogram,
};
pub use tracer::{CursorBatch, RecordArgs, Trace, TraceCollector, TraceCursor, Tracer};
pub use waterfall::{assemble, tail_sample, Sampled, Stage, Waterfall, WaterfallSet};
