//! `repro profile`: a live TCP training run under the cooperative span
//! profiler, reporting where the time (and the allocations) went.
//!
//! The run launches a [`fluentps_core::tcp_engine::TcpCluster`] observed
//! with a profile collector, so every layer the profiler instruments is exercised for real: server
//! loop phases (`server/apply_push`, `server/handle_pull`, `server/reply`),
//! worker client phases (`worker/push`, `worker/pull_wait`) nested under the
//! training step spans this module opens (`worker/step`, `worker/compute`),
//! and the transport's frame codec (`wire/encode`, `wire/decode`). While the
//! run executes, the same snapshots are live on the introspection endpoint
//! as `/profile?format=folded|speedscope`.

use std::net::SocketAddr;

use fluentps_core::condition::SyncModel;
use fluentps_core::engine::EngineConfig;
use fluentps_core::launch::Observability;
use fluentps_core::stats::ShardStats;
use fluentps_core::tcp_engine::TcpCluster;
use fluentps_obs::{HealthEngine, ProfCollector, ProfileReport, StreamConfig, TraceCollector};

use crate::live::{train, SoftmaxJob};

/// Synchronization model of every profiled run.
const MODEL: SyncModel = SyncModel::Ssp { s: 2 };

/// Configuration of a profiled live TCP run.
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Workers (threads, each with its own TCP endpoint).
    pub num_workers: u32,
    /// Servers.
    pub num_servers: u32,
    /// Iterations per worker.
    pub max_iters: u64,
    /// Where the introspection endpoint (including `/profile`) listens;
    /// `None` binds an OS-chosen loopback port.
    pub metrics_addr: Option<SocketAddr>,
    /// Seed for data, initialization and the servers' probability draws.
    pub seed: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            num_workers: 2,
            num_servers: 2,
            max_iters: 200,
            metrics_addr: None,
            seed: 0,
        }
    }
}

/// Result of a profiled run.
#[derive(Debug, Clone)]
pub struct ProfileResult {
    /// Final test accuracy on worker 0's parameters (the profiled run is
    /// still a real training job — a profile of a broken run is noise).
    pub accuracy: f32,
    /// Wall-clock seconds for the training phase.
    pub wall_seconds: f64,
    /// Merged shard statistics.
    pub stats: ShardStats,
    /// The complete span profile, snapshot after shutdown.
    pub report: ProfileReport,
}

/// Run a live TCP training job with the span profiler attached and return
/// its aggregated profile.
pub fn run_profile(cfg: &ProfileConfig) -> ProfileResult {
    let job = SoftmaxJob::new(cfg.seed, 2000, 500, cfg.num_servers);
    let ecfg = EngineConfig {
        num_workers: cfg.num_workers,
        num_servers: cfg.num_servers,
        model: MODEL,
        seed: cfg.seed,
        ..EngineConfig::default()
    };
    // Keep a handle past shutdown so the snapshot includes the servers'
    // final spans.
    let prof = ProfCollector::wall();
    let addr = cfg
        .metrics_addr
        .unwrap_or_else(|| "127.0.0.1:0".parse().expect("loopback"));
    let obs = Observability {
        collector: Some(TraceCollector::wall(1 << 14)),
        profiler: Some(prof.clone()),
        health: Some(HealthEngine::with_default_rules(StreamConfig::default())),
        http: Some(addr),
        ..Observability::default()
    };
    let (cluster, workers) =
        TcpCluster::launch_observed(ecfg, &ecfg.models(), job.map.clone(), &job.init, obs)
            .expect("launch profiled TCP cluster");

    let profiler = prof.profiler();
    let (results, wall_seconds) = train(&job, workers, cfg.max_iters, &profiler, |_, _, _| {});

    let mut stats = ShardStats::default();
    for s in cluster.shutdown() {
        stats.merge(&s);
    }
    ProfileResult {
        accuracy: job.accuracy(&results[0]),
        wall_seconds,
        stats,
        report: prof.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiled_tcp_run_learns_and_captures_all_layers() {
        let r = run_profile(&ProfileConfig {
            max_iters: 60,
            ..ProfileConfig::default()
        });
        assert!(r.accuracy > 0.7, "profiled run accuracy {}", r.accuracy);
        let spans = &r.report.spans;
        // Worker spans nest: push/pull under the step span.
        assert!(spans.contains_key("worker/step"));
        assert!(spans.contains_key("worker/step;worker/compute"));
        assert!(spans.contains_key("worker/step;worker/push"));
        assert!(spans.contains_key("worker/step;worker/pull_wait"));
        // Server loop phases.
        assert!(spans.contains_key("server/apply_push"));
        assert!(spans.contains_key("server/handle_pull"));
        // Wire codec: encode nests under the phases that send; decode runs
        // on reader threads at the stack root.
        assert!(spans.contains_key("wire/decode"));
        assert!(spans.keys().any(|k| k.ends_with(";wire/encode")));
        // Every worker iterated: step count = workers × iters.
        assert_eq!(spans["worker/step"].count, 2 * 60);
        // Self + children never exceeds the parent total.
        let step = &spans["worker/step"];
        let children: f64 = spans
            .iter()
            .filter(|(k, _)| k.starts_with("worker/step;") && k.matches(';').count() == 1)
            .map(|(_, s)| s.total_secs)
            .sum();
        assert!(
            step.self_secs + children <= step.total_secs + 1e-6,
            "self {} + children {} vs total {}",
            step.self_secs,
            children,
            step.total_secs
        );
    }
}
