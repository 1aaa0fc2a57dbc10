//! A push written before `shutdown()` is applied (DESIGN.md §18), on each of
//! the three clusters.
//!
//! A worker that only pushes leaves work behind it that no reply orders:
//! over TCP its pushes arrive on its own connections, each read by a thread
//! of its own, while the `Shutdown` comes in over another. The tests push
//! without ever waiting for an answer, drop the worker and shut down at
//! once: every push must be counted. A worker kept alive instead must not
//! hold the shutdown up.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fluentps_core::condition::SyncModel;
use fluentps_core::engine::{Cluster, EngineConfig};
use fluentps_core::eps::{EpsSlicer, ParamSpec, SliceMap, Slicer};
use fluentps_core::recovery::{RecoveryConfig, ResilientTcpCluster};
use fluentps_core::stats::ShardStats;
use fluentps_core::tcp_engine::TcpCluster;
use fluentps_core::worker::WorkerClient;
use fluentps_ml::Deltas;
use fluentps_transport::{Mailbox, Postman};

/// Writes per worker, each of [`STAGED`] pushes to both servers.
const WRITES: u64 = 2_000;
const STAGED: u64 = 8;

fn cluster_parts() -> (EngineConfig, SliceMap, HashMap<u64, Vec<f32>>) {
    let specs = [0, 1].map(|key| ParamSpec { key, len: 64 });
    let map = EpsSlicer { max_chunk: 32 }.slice(&specs, 2);
    let init = [(0, vec![0.0; 64]), (1, vec![0.0; 64])].into();
    let cfg = EngineConfig {
        num_workers: 1,
        num_servers: 2,
        model: SyncModel::Asp,
        ..EngineConfig::default()
    };
    (cfg, map, init)
}

/// Write every push, waiting for no answer.
fn push_only<P: Postman, M: Mailbox>(worker: &mut WorkerClient<P, M>) {
    let grads: HashMap<u64, Vec<f32>> = [(0, vec![1e-3; 64]), (1, vec![1e-3; 64])].into();
    for write in 0..WRITES {
        for i in 0..STAGED {
            worker
                .spush(STAGED * write + i, &Deltas::from_params(&grads))
                .unwrap();
        }
        worker.flush().unwrap();
    }
}

fn assert_all_applied(stats: &[ShardStats]) {
    for (m, shard) in stats.iter().enumerate() {
        assert_eq!(shard.pushes, STAGED * WRITES, "server {m}");
    }
}

#[test]
fn in_process_shutdown_applies_every_push_written_before_it() {
    let (cfg, map, init) = cluster_parts();
    let (cluster, mut workers) = Cluster::launch(cfg, map, &init);
    push_only(&mut workers[0]);
    drop(workers);
    assert_all_applied(&cluster.shutdown());
}

#[test]
fn tcp_shutdown_applies_every_push_written_before_it() {
    let (cfg, map, init) = cluster_parts();
    let (cluster, mut workers) = TcpCluster::launch(cfg, map, &init).expect("launch");
    push_only(&mut workers[0]);
    drop(workers);
    assert_all_applied(&cluster.shutdown());
}

#[test]
fn resilient_shutdown_applies_every_push_written_before_it() {
    let (cfg, map, init) = cluster_parts();
    let rcfg = RecoveryConfig::default();
    let (cluster, mut workers) =
        ResilientTcpCluster::launch(cfg, rcfg, map, &init, None).expect("launch");
    push_only(&mut workers[0]);
    drop(workers);
    assert_all_applied(&cluster.shutdown());
}

/// A client that stays connected cannot hold a shutdown up: the servers
/// wait for its connections to go quiet, not to close.
#[test]
fn tcp_shutdown_with_a_client_still_alive_returns_promptly() {
    let (cfg, map, init) = cluster_parts();
    let (cluster, mut workers) = TcpCluster::launch(cfg, map, &init).expect("launch");
    push_only(&mut workers[0]);
    let begun = Instant::now();
    let stats = cluster.shutdown();
    assert!(
        begun.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        begun.elapsed()
    );
    assert_eq!(stats.len(), 2);
    drop(workers);
}
