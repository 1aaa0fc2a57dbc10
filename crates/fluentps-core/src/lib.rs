//! # FluentPS core
//!
//! The paper's primary contribution (Yao, Wu & Wang, *FluentPS: A Parameter
//! Server Design with Low-frequency Synchronization for Distributed Deep
//! Learning*, IEEE CLUSTER 2019): a parameter server in which **each server
//! controls the synchronization of its own parameter shard** through a pair
//! of predicates — the *pull condition* and the *push condition* — instead of
//! deferring to a centralized scheduler.
//!
//! The pieces, mirroring the paper's Section III:
//!
//! * [`condition`] — the condition-aware synchronization controller. The
//!   [`condition::SyncPolicy`] trait is the `SetcondPull`/`SetcondPush` API:
//!   every classical model (BSP, ASP, SSP, DSPS, dropping stragglers) and the
//!   paper's PSSP come down to choosing these two predicates (Table III).
//! * [`dpr`] — the lazy pull buffer. A pull that fails the pull condition
//!   becomes a *delayed pull request* (DPR). Two execution policies exist:
//!   the classical SSP **soft barrier** (release as soon as the staleness
//!   bound is re-satisfied; may return stale parameters) and the paper's
//!   **lazy execution** (release only when `V_train` catches up with the
//!   requester, returning fully updated parameters) — Section III-C.
//! * [`pssp`] — the Probabilistic SSP model: block a too-fast worker only
//!   with probability `P`, constant or dynamically scaled by the progress
//!   gap and gradient significance — Section III-E.
//! * [`regret`] — the regret-bound math of Theorems 1 and 2, including the
//!   equivalence `PSSP(s, c) ≡ SSP(s + 1/c − 1)`.
//! * [`eps`] — Elastic Parameter Slicing: remap parameters onto servers so
//!   shards are evenly loaded, and move a dead server's slices onto the
//!   survivors.
//! * [`server`] — the per-shard state machine of Algorithm 1 (`PullHandler`
//!   / `PushHandler`). Deliberately free of clocks, threads and sockets so
//!   the live engines and the discrete-event simulator all drive the *same*
//!   synchronization logic.
//! * [`serve`] — the one message→replies step every live engine runs
//!   around a shard, and the plain `recv → handle → send` loop.
//! * [`worker`] — the worker-side client (`sPush`/`sPull`/`wait`).
//! * [`engine`], [`tcp_engine`], [`recovery`] — the in-process, TCP and
//!   fault-tolerant TCP runtimes: per-transport shells over [`launch`]
//!   (overlap synchronization falls out of servers answering independently).
//! * [`scheduler`] — the minimal scheduler's heartbeat liveness monitor.
//!
//! ## Quick start
//!
//! ```
//! use fluentps_core::condition::SyncModel;
//! use fluentps_core::dpr::DprPolicy;
//! use fluentps_core::server::{PullOutcome, ServerShard, ShardConfig};
//! use fluentps_transport::KvPairs;
//!
//! // One shard, two workers, SSP with staleness 1, lazy execution.
//! let mut shard = ServerShard::new(ShardConfig {
//!     server_id: 0,
//!     num_workers: 2,
//!     model: SyncModel::Ssp { s: 1 },
//!     policy: DprPolicy::LazyExecution,
//!     ..ShardConfig::default()
//! });
//! shard.init_param(0, vec![0.0; 4]);
//!
//! // Both workers push iteration-0 gradients; the second push completes the
//! // iteration and V_train advances.
//! shard.on_push(0, 0, &KvPairs::single(0, vec![1.0; 4]));
//! shard.on_push(1, 0, &KvPairs::single(0, vec![1.0; 4]));
//! assert_eq!(shard.v_train(), 1);
//!
//! // A pull within the staleness bound is answered immediately.
//! match shard.on_pull(0, 1, &[0], 0.0, None) {
//!     PullOutcome::Respond { kv, .. } => assert_eq!(kv.vals, vec![1.0; 4]),
//!     PullOutcome::Deferred => unreachable!("within bound"),
//! }
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod condition;
pub mod consensus;
pub mod dpr;
pub mod engine;
pub mod eps;
pub mod filter;
pub mod key;
pub mod launch;
pub mod progress;
pub mod pssp;
pub mod recovery;
pub mod regret;
pub mod scheduler;
pub mod serve;
pub mod server;
pub mod stats;
pub mod tcp_engine;
pub mod worker;

pub use condition::{SyncModel, SyncPolicy, SyncState};
pub use dpr::DprPolicy;
pub use eps::{ParamSpec, Placement, SliceMap, Slicer};
pub use server::{PullOutcome, ReleasedPull, ServerShard, ShardConfig};
