//! Std-only utility layer for the FluentPS workspace.
//!
//! The build environment is hermetic: no network, no cargo registry. Every
//! capability the workspace previously pulled from external crates lives
//! here instead, implemented on `std` alone:
//!
//! * [`alloc`] — a counting `#[global_allocator]` wrapper over the system
//!   allocator with per-thread allocation/byte counters, installed
//!   workspace-wide so the profiler can attribute heap traffic to spans.
//! * [`rng`] — a seedable SplitMix64-seeded PCG32 PRNG (`StdRng`) with
//!   uniform ranges, Bernoulli draws and Box–Muller normal sampling.
//!   Replaces `rand`.
//! * [`sync`] — poison-ignoring `Mutex`/`RwLock` wrappers with a
//!   parking_lot-style API, mpsc channels with `recv_timeout`/`try_recv`,
//!   and `std::thread::scope`-based scoped spawns. Replaces `crossbeam`
//!   and `parking_lot`. Also the one call into the kernel's scheduler:
//!   [`sync::take_shortest_slice`], which a TCP reader thread makes first.
//! * [`buf`] — a minimal `Bytes`/`BytesMut`/`Buf`/`BufMut` subset over
//!   `Vec<u8>` with cheap, `Arc`-backed `Bytes` clones. Replaces `bytes`.
//! * [`proptest`] — a fixed-seed property-test harness: a [`proptest!`]
//!   macro over composable [`proptest::Strategy`] generators with failure
//!   reporting and greedy shrinking. Replaces `proptest`.
//! * [`fnv`] — FNV-1a, the one fingerprint hash: run and alert
//!   fingerprints, pinned data and weight fingerprints, property seeds.
//! * [`bench`] — a tiny timing harness (warmup + N samples + mean/p50/p99
//!   report) behind a criterion-shaped API so `[[bench]] harness = false`
//!   targets keep their structure. Replaces `criterion`.
//!
//! Determinism is a design requirement, not a convenience: PSSP's
//! probabilistic pull condition and the straggler models are simulated, and
//! reproducing the paper's figures requires that the same experiment seed
//! produce the same coin flips on every run. All randomness in the
//! workspace flows from experiment-config seeds through [`rng::StdRng`].

pub mod alloc;
pub mod bench;
pub mod buf;
pub mod fnv;
pub mod proptest;
pub mod rng;
pub mod sync;
