//! Threaded in-process runtime: worker clients on the caller's threads, one
//! served `Endpoint` per server shard. A shard's step runs on the thread
//! that sends to it (`inproc`, DESIGN.md §18): a worker's pushes and pulls
//! are handled inside its own `spull_wait`, and the pulls they release are
//! queued straight into the workers' inboxes. Each shard keeps a thread of
//! its own that only waits in `serve`, and handles what reached the shard
//! before that call began.
//!
//! Overlap synchronization (Section III-D) is not a special code path — it
//! *falls out* of this architecture: every server answers pulls for its own
//! shard the moment its own push condition fires, so the push of one shard
//! overlaps the pulls of another. The non-overlap behaviour of PS-Lite (a
//! scheduler-level global barrier across all shards) is implemented in
//! `fluentps-baseline` for comparison.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::thread::JoinHandle;

use fluentps_transport::inproc::{Endpoint, Fabric, InprocPostman};
use fluentps_transport::{Message, NodeId, Postman};

use crate::dpr::DprPolicy;
use crate::eps::SliceMap;
use crate::launch::{self, Observability, Session};
use crate::serve;
use crate::stats::ShardStats;
use crate::worker::WorkerClient;
use crate::SyncModel;

/// Configuration of an in-process cluster.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of workers (`N`).
    pub num_workers: u32,
    /// Number of servers (`M`).
    pub num_servers: u32,
    /// Synchronization model applied on every shard. (Per-shard models are
    /// possible through [`Cluster::launch_models`].)
    pub model: SyncModel,
    /// DPR execution policy.
    pub policy: DprPolicy,
    /// Seed for the servers' probability draws (PSSP); each server derives
    /// its own stream.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_workers: 1,
            num_servers: 1,
            model: SyncModel::Bsp,
            policy: DprPolicy::LazyExecution,
            seed: 0,
        }
    }
}

/// Handle to a running in-process cluster.
pub struct Cluster {
    fabric: Fabric,
    servers: Vec<JoinHandle<ShardStats>>,
    session: Session,
}

/// The worker client type served by the in-process engine.
pub type InprocWorker = WorkerClient<InprocPostman, Endpoint>;

impl Cluster {
    /// Launch servers and build one [`WorkerClient`] per worker. `init` maps
    /// original parameter keys to initial values (`w_0`); `map` decides the
    /// placement.
    pub fn launch(
        cfg: EngineConfig,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
    ) -> (Cluster, Vec<InprocWorker>) {
        Self::launch_observed(cfg, map, init, Observability::default())
            .expect("default observability binds no socket")
    }

    /// [`Cluster::launch`], observed as `obs` says. Fails only when
    /// [`Observability::http`] cannot be bound.
    pub fn launch_observed(
        cfg: EngineConfig,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        obs: Observability,
    ) -> std::io::Result<(Cluster, Vec<InprocWorker>)> {
        let models = vec![cfg.model; cfg.num_servers as usize];
        Self::launch_models(cfg, &models, map, init, obs)
    }

    /// Launch with a synchronization model per server — the paper's headline
    /// flexibility: "each parameter server can choose the adaptive
    /// synchronization model to update its parameter shard" (Figure 2 runs
    /// SSP, PSSP and drop-stragglers side by side). `models[m]` replaces
    /// `cfg.model` on server `m`.
    pub fn launch_models(
        cfg: EngineConfig,
        models: &[SyncModel],
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        obs: Observability,
    ) -> std::io::Result<(Cluster, Vec<InprocWorker>)> {
        assert_eq!(map.num_servers(), cfg.num_servers, "map/server mismatch");
        assert_eq!(models.len(), cfg.num_servers as usize);
        let mut session = Session::start(obs, "threaded", &cfg, None)?;
        let fabric = Fabric::new();

        // Register workers first so servers can respond from the start.
        let worker_endpoints: Vec<Endpoint> = (0..cfg.num_workers)
            .map(|n| fabric.register(NodeId::Worker(n)))
            .collect();

        let mut servers = Vec::with_capacity(cfg.num_servers as usize);
        for m in 0..cfg.num_servers {
            let endpoint = fabric.register(NodeId::Server(m));
            let (tracer, streamer) = session.obs.node(NodeId::Server(m));
            let (server, _) = launch::shard_server(
                &cfg,
                models[m as usize],
                m,
                (&map, init),
                tracer,
                session.obs.span_profiler(),
            );
            let serve = move || serve::run(server, &endpoint, endpoint.postman());
            let name = format!("fluentps-server-{m}");
            servers.push(launch::spawn_served(name, streamer, serve));
        }

        let halves = worker_endpoints.into_iter().map(|ep| (ep.postman(), ep));
        let workers = session.workers(map, halves);

        Ok((
            Cluster {
                fabric,
                servers,
                session,
            },
            workers,
        ))
    }

    /// The fabric every node of this cluster is registered on — the
    /// in-process counterpart of [`crate::tcp_engine::TcpCluster::addresses`],
    /// for joining the cluster from outside the launch.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Where [`Observability::http`] is being served (resolves port 0).
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.session.http_addr()
    }

    /// Send shutdown to every server, join their threads and return their
    /// per-shard statistics (index = server id). Finalizes the health
    /// engine and stops the HTTP endpoint of an observed launch.
    pub fn shutdown(self) -> Vec<ShardStats> {
        let Cluster {
            fabric,
            servers,
            session,
        } = self;
        session.shutdown(|| {
            // A synthetic scheduler identity delivers the shutdown.
            let ctl = fabric.register(NodeId::Scheduler);
            for m in 0..servers.len() as u32 {
                // Ignore failures: the server may already be gone.
                let _ = ctl.postman().send(NodeId::Server(m), Message::Shutdown);
            }
            servers
                .into_iter()
                .map(|h| h.join().expect("server thread panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eps::{EpsSlicer, ParamSpec, Slicer};
    use fluentps_obs::{EventKind, ProfCollector, TraceCollector};

    fn model_params() -> (Vec<ParamSpec>, HashMap<u64, Vec<f32>>) {
        let specs = vec![ParamSpec { key: 0, len: 8 }, ParamSpec { key: 1, len: 4 }];
        let mut init = HashMap::new();
        init.insert(0, vec![0.0; 8]);
        init.insert(1, vec![0.0; 4]);
        (specs, init)
    }

    #[test]
    fn bsp_cluster_runs_lockstep_iterations() {
        let (specs, init) = model_params();
        let map = EpsSlicer { max_chunk: 4 }.slice(&specs, 2);
        let cfg = EngineConfig {
            num_workers: 2,
            num_servers: 2,
            model: SyncModel::Bsp,
            ..EngineConfig::default()
        };
        let (cluster, mut workers) = Cluster::launch(cfg, map, &init);

        let mut grads = HashMap::new();
        grads.insert(0u64, vec![1.0f32; 8]);
        grads.insert(1u64, vec![2.0f32; 4]);

        // Run both workers in lockstep from two threads (BSP requires it).
        let handles: Vec<_> = workers
            .drain(..)
            .map(|mut w| {
                let grads = grads.clone();
                std::thread::spawn(move || {
                    let mut params = HashMap::new();
                    for i in 0..3u64 {
                        w.spush(i, &grads).unwrap();
                        let report = w.spull_wait(i, &mut params).unwrap();
                        assert_eq!(report.responses, 2);
                        assert!(report.min_version > i);
                    }
                    params
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // After 3 iterations with 2 workers pushing 1.0 each: w = 3·(2·1/2) = 3.
        for params in &results {
            assert_eq!(params[&0], vec![3.0; 8]);
            assert_eq!(params[&1], vec![6.0; 4]);
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.len(), 2);
        let total_pushes: u64 = stats.iter().map(|s| s.pushes).sum();
        assert_eq!(total_pushes, 2 * 3 * 2); // 2 workers × 3 iters × 2 servers
    }

    #[test]
    fn per_server_models_flow_through() {
        // Server 0 never blocks; server 1 would, past nine iterations of
        // lead. One worker, so neither does — but each shard runs its own.
        let (specs, init) = model_params();
        let map = EpsSlicer { max_chunk: 4 }.slice(&specs, 2);
        let cfg = EngineConfig {
            num_servers: 2,
            ..EngineConfig::default()
        };
        let models = [SyncModel::Asp, SyncModel::Ssp { s: 9 }];
        let (cluster, mut workers) =
            Cluster::launch_models(cfg, &models, map, &init, Observability::default()).unwrap();
        let mut w = workers.pop().unwrap();
        let grads: HashMap<u64, Vec<f32>> = [(0, vec![1.0; 8]), (1, vec![1.0; 4])].into();
        let mut params = HashMap::new();
        for i in 0..3 {
            w.spush(i, &grads).unwrap();
            assert_eq!(w.spull_wait(i, &mut params).unwrap().responses, 2);
        }
        assert_eq!(params[&0], vec![3.0; 8]);
        let stats = cluster.shutdown();
        assert_eq!(stats.iter().map(|s| s.pushes).sum::<u64>(), 3 * 2);
    }

    #[test]
    fn traced_cluster_counts_reconcile_with_stats() {
        let (specs, init) = model_params();
        let map = EpsSlicer { max_chunk: 4 }.slice(&specs, 2);
        let cfg = EngineConfig {
            num_workers: 2,
            num_servers: 2,
            model: SyncModel::Bsp,
            ..EngineConfig::default()
        };
        let collector = TraceCollector::wall(4096);
        let obs = Observability {
            collector: Some(collector.clone()),
            ..Observability::default()
        };
        let (cluster, mut workers) = Cluster::launch_observed(cfg, map, &init, obs).unwrap();

        let mut grads = HashMap::new();
        grads.insert(0u64, vec![1.0f32; 8]);
        grads.insert(1u64, vec![2.0f32; 4]);
        let handles: Vec<_> = workers
            .drain(..)
            .map(|mut w| {
                let grads = grads.clone();
                std::thread::spawn(move || {
                    let mut params = HashMap::new();
                    for i in 0..3u64 {
                        w.spush(i, &grads).unwrap();
                        w.spull_wait(i, &mut params).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = cluster.shutdown();
        let trace = collector.snapshot();

        let pulls: u64 = stats.iter().map(|s| s.pulls_total).sum();
        let dprs: u64 = stats.iter().map(|s| s.dprs).sum();
        let released: u64 = stats.iter().map(|s| s.dprs_released).sum();
        let pushes: u64 = stats.iter().map(|s| s.pushes).sum();
        let dropped: u64 = stats.iter().map(|s| s.late_pushes_dropped).sum();
        let advances: u64 = stats.iter().map(|s| s.v_train_advances).sum();

        assert_eq!(trace.count(EventKind::PullRequested), pulls);
        assert_eq!(trace.count(EventKind::PullDeferred), dprs);
        assert_eq!(trace.count(EventKind::DprReleased), released);
        assert_eq!(
            trace.count(EventKind::PushApplied) + trace.count(EventKind::LatePushDropped),
            pushes
        );
        assert_eq!(trace.count(EventKind::LatePushDropped), dropped);
        assert_eq!(trace.count(EventKind::VTrainAdvanced), advances);
        assert!(trace.count(EventKind::WireSend) > 0);
        assert!(trace.count(EventKind::WireRecv) > 0);
        assert!(trace.count(EventKind::BarrierWait) > 0);
    }

    /// A server's spans fold under the worker call whose send ran the step:
    /// a worker's pushes leave with its pulls, so `server/apply_push` sits
    /// under `worker/pull_wait`. Only what reached a server before its
    /// `serve` call started — round 0 at most, since the replies that end
    /// round 0 come from that call — is handled by the server's thread, at
    /// the stack's root.
    #[test]
    fn profiled_server_spans_fold_under_the_sending_worker() {
        const ITERS: u64 = 4;
        let (specs, init) = model_params();
        let map = EpsSlicer { max_chunk: 4 }.slice(&specs, 2);
        let cfg = EngineConfig {
            num_workers: 2,
            num_servers: 2,
            model: SyncModel::Bsp,
            ..EngineConfig::default()
        };
        let prof = ProfCollector::wall();
        let obs = Observability {
            profiler: Some(prof.clone()),
            ..Observability::default()
        };
        let (cluster, mut workers) = Cluster::launch_observed(cfg, map, &init, obs).unwrap();
        let grads: HashMap<u64, Vec<f32>> = [(0, vec![1.0; 8]), (1, vec![2.0; 4])].into();
        let handles: Vec<_> = workers
            .drain(..)
            .map(|mut w| {
                let grads = grads.clone();
                std::thread::spawn(move || {
                    let mut params = HashMap::new();
                    for i in 0..ITERS {
                        w.spush(i, &grads).unwrap();
                        w.spull_wait(i, &mut params).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let pushes: u64 = cluster.shutdown().iter().map(|s| s.pushes).sum();
        let spans = prof.snapshot().spans;
        let count = |path: &str| spans.get(path).map_or(0, |stat| stat.count);
        let inline = count("worker/pull_wait;server/apply_push");
        assert_eq!(inline + count("server/apply_push"), pushes, "{spans:?}");
        assert!(inline >= (ITERS - 1) * 2 * 2, "{spans:?}");
        assert!(count("worker/pull_wait;server/reply") > 0, "{spans:?}");
        let elsewhere = spans.keys().filter(|path| {
            path.contains("server/")
                && !path.starts_with("worker/pull_wait;")
                && !path.starts_with("server/")
        });
        assert_eq!(elsewhere.count(), 0, "{spans:?}");
    }

    #[test]
    fn shutdown_releases_blocked_workers() {
        let (specs, init) = model_params();
        let map = EpsSlicer { max_chunk: 4 }.slice(&specs, 1);
        let cfg = EngineConfig {
            num_workers: 2,
            num_servers: 1,
            model: SyncModel::Bsp,
            ..EngineConfig::default()
        };
        let (cluster, mut workers) = Cluster::launch(cfg, map, &init);
        let mut w0 = workers.remove(0);
        // Worker 0 pushes and pulls; worker 1 never shows up → the pull is
        // parked as a DPR. Shutdown must flush it so the thread unblocks.
        let blocked = std::thread::spawn(move || {
            let grads: HashMap<u64, Vec<f32>> =
                [(0u64, vec![1.0f32; 8]), (1u64, vec![1.0f32; 4])].into();
            w0.spush(0, &grads).unwrap();
            let mut params = HashMap::new();
            w0.spull_wait(0, &mut params).unwrap();
        });
        // Give the pull time to get parked, then shut down.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let stats = cluster.shutdown();
        blocked.join().unwrap();
        assert_eq!(stats[0].dprs, 1);
        assert_eq!(stats[0].dprs_released, 1);
    }
}
