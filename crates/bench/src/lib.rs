//! The gated benchmark target `obs` (`benches/obs.rs`): observability
//! overhead and a worker's gradient computation, collected into
//! `BENCH_obs.json` and checked against it by `scripts/bench.sh`. The
//! paper's tables and figures are regenerated by the `repro` binary
//! (`cargo run --release -p fluentps-experiments --bin repro -- all`).
