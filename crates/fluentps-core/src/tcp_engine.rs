//! TCP runtime: the same server step as [`crate::engine`]
//! ([`crate::serve::run`]), but over real sockets — a FluentPS cluster as
//! separate OS threads bound to separate ports, suitable for splitting
//! across processes (each side only needs the address book). Workers use
//! the same [`WorkerClient`] with TCP halves.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::thread::JoinHandle;

use fluentps_transport::tcp::{AddressBook, TcpNode, TcpPostman};
use fluentps_transport::{Message, NodeId, Postman, TransportError};

use crate::engine::EngineConfig;
use crate::eps::SliceMap;
use crate::launch::{self, Observability, Session};
use crate::serve;
use crate::stats::ShardStats;
use crate::worker::WorkerClient;

/// The worker client type served by the TCP engine.
pub type TcpWorker = WorkerClient<TcpPostman, TcpNode>;

/// Handle to a running TCP cluster (all nodes on loopback).
pub struct TcpCluster {
    servers: Vec<JoinHandle<ShardStats>>,
    // Owning the node keeps the control postman's connections alive.
    control: TcpNode,
    session: Session,
    /// Where each node listens (exported so external processes could join).
    pub addresses: AddressBook,
}

impl TcpCluster {
    /// Launch servers on OS-chosen loopback ports and build TCP-backed
    /// worker clients. Mirrors [`crate::engine::Cluster::launch`].
    pub fn launch(
        cfg: EngineConfig,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
    ) -> Result<(TcpCluster, Vec<TcpWorker>), TransportError> {
        Self::launch_observed(cfg, map, init, Observability::default())
    }

    /// [`TcpCluster::launch`], observed as `obs` says.
    pub fn launch_observed(
        cfg: EngineConfig,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        obs: Observability,
    ) -> Result<(TcpCluster, Vec<TcpWorker>), TransportError> {
        assert_eq!(map.num_servers(), cfg.num_servers, "map/server mismatch");
        let mut session = Session::start(obs, "tcp", &cfg, None)?;
        let nodes = launch::bind_cluster(&cfg, 0, NodeId::Scheduler, &session.obs)?;

        let mut servers = Vec::with_capacity(cfg.num_servers as usize);
        for (m, node) in (0u32..).zip(nodes.servers) {
            let (tracer, streamer) = session.obs.node(NodeId::Server(m));
            let profiler = session.obs.span_profiler();
            let (server, _) =
                launch::shard_server(&cfg, cfg.model, m, (&map, init), tracer, profiler);
            // The thread only waits: the node's reader threads run the
            // step, one request at a time (DESIGN.md §18).
            let serve = move || serve::run(server, &node, node.postman());
            let name = format!("fluentps-tcp-server-{m}");
            servers.push(launch::spawn_served(name, streamer, serve));
        }

        let halves = nodes.workers.into_iter().map(|node| (node.postman(), node));
        let workers = session.workers(map, halves);

        Ok((
            TcpCluster {
                servers,
                control: nodes.control,
                session,
                addresses: nodes.book,
            },
            workers,
        ))
    }

    /// Where [`Observability::http`] is being served (resolves port 0).
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.session.http_addr()
    }

    /// Send shutdown to every server and collect their statistics.
    ///
    /// Call after the worker threads have finished: the workers' trace
    /// streamers final-flush here.
    pub fn shutdown(self) -> Vec<ShardStats> {
        let TcpCluster {
            servers,
            control,
            session,
            ..
        } = self;
        session.shutdown(|| {
            let postman = control.postman();
            for m in 0..servers.len() as u32 {
                let _ = postman.send(NodeId::Server(m), Message::Shutdown);
            }
            servers
                .into_iter()
                .map(|h| h.join().expect("tcp server thread"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::SyncModel;
    use crate::eps::{EpsSlicer, ParamSpec, Slicer};
    use fluentps_obs::{EventKind, TraceCollector};

    #[test]
    fn tcp_cluster_runs_bsp_training_round_trips() {
        let specs = vec![ParamSpec { key: 0, len: 6 }, ParamSpec { key: 1, len: 3 }];
        let mut init = HashMap::new();
        init.insert(0u64, vec![0.0; 6]);
        init.insert(1u64, vec![0.0; 3]);
        let map = EpsSlicer { max_chunk: 4 }.slice(&specs, 2);
        let cfg = EngineConfig {
            num_workers: 2,
            num_servers: 2,
            model: SyncModel::Bsp,
            ..EngineConfig::default()
        };
        let (cluster, workers) = TcpCluster::launch(cfg, map, &init).expect("launch");

        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut w| {
                std::thread::spawn(move || {
                    let grads: HashMap<u64, Vec<f32>> =
                        [(0u64, vec![1.0f32; 6]), (1u64, vec![2.0f32; 3])].into();
                    let mut params = HashMap::new();
                    for i in 0..3u64 {
                        w.spush(i, &grads).unwrap();
                        let report = w.spull_wait(i, &mut params).unwrap();
                        assert!(report.min_version > i);
                    }
                    params
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for params in &results {
            assert_eq!(params[&0], vec![3.0; 6]);
            assert_eq!(params[&1], vec![6.0; 3]);
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.iter().map(|s| s.pushes).sum::<u64>(), 2 * 3 * 2);
    }

    const WORKERS: u32 = 4;
    const ROUNDS: u64 = 200;

    /// [`ROUNDS`] BSP rounds of [`WORKERS`] workers against `servers` served
    /// nodes, every step of a node under its one lock: the cluster, the
    /// clients — still connected — and the parameters each ended on, which
    /// must be the same bits.
    fn bsp_rounds(servers: u32) -> (TcpCluster, Vec<TcpWorker>) {
        let specs = vec![ParamSpec { key: 0, len: 6 }, ParamSpec { key: 1, len: 3 }];
        let init: HashMap<u64, Vec<f32>> = [(0, vec![0.0; 6]), (1, vec![0.0; 3])].into();
        let map = EpsSlicer { max_chunk: 4 }.slice(&specs, servers);
        let cfg = EngineConfig {
            num_workers: WORKERS,
            num_servers: servers,
            model: SyncModel::Bsp,
            ..EngineConfig::default()
        };
        let (cluster, workers) = TcpCluster::launch(cfg, map, &init).expect("launch");
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut w| {
                std::thread::spawn(move || {
                    // Different gradients per worker and round, so a lost,
                    // doubled or misordered push changes the sum.
                    let n = w.worker_id() as f32 + 1.0;
                    let mut params = HashMap::new();
                    for i in 0..ROUNDS {
                        let g = n * 0.125 + i as f32 * 0.001;
                        let grads: HashMap<u64, Vec<f32>> =
                            [(0, vec![g; 6]), (1, vec![-g; 3])].into();
                        w.spush(i, &grads).unwrap();
                        let report = w.spull_wait(i, &mut params).unwrap();
                        assert_eq!(report.min_version, i + 1, "BSP: exactly this round");
                    }
                    (w, params)
                })
            })
            .collect();
        let (workers, results): (Vec<_>, Vec<_>) =
            handles.into_iter().map(|h| h.join().unwrap()).unzip();
        let bits = |params: &HashMap<u64, Vec<f32>>| {
            let mut flat: Vec<(u64, Vec<u32>)> = params
                .iter()
                .map(|(k, v)| (*k, v.iter().map(|x| x.to_bits()).collect()))
                .collect();
            flat.sort();
            flat
        };
        for params in &results[1..] {
            assert_eq!(bits(params), bits(&results[0]));
        }
        assert!(results[0][&0][0] > 0.0 && results[0][&1][0] < 0.0);
        (cluster, workers)
    }

    /// Every push and pull counted once, every deferred pull released.
    fn assert_conserved(stats: &ShardStats) {
        let each = u64::from(WORKERS) * ROUNDS;
        assert_eq!((stats.pushes, stats.pulls_total), (each, each));
        assert_eq!(stats.pulls_immediate + stats.dprs, stats.pulls_total);
        assert_eq!(stats.dprs_released, stats.dprs);
        assert_eq!(stats.v_train_advances, ROUNDS);
        assert_eq!(stats.late_pushes_dropped, 0);
    }

    #[test]
    fn four_workers_on_one_served_node_keep_bsp_exact_for_200_rounds() {
        // Four connections, four reader threads, one shard.
        let (cluster, workers) = bsp_rounds(1);
        drop(workers);
        assert_conserved(&cluster.shutdown()[0]);
    }

    /// Established connections whose local end is `port`: the sockets that
    /// whoever listens there has accepted.
    #[cfg(target_os = "linux")]
    fn accepted_on(port: u16) -> usize {
        let table = std::fs::read_to_string("/proc/net/tcp").expect("the socket table");
        let accepted = |line: &&str| {
            let mut columns = line.split_whitespace().skip(1);
            let (local, state) = (columns.next(), columns.nth(1));
            local.is_some_and(|l| l.ends_with(&format!(":{port:04X}"))) && state == Some("01")
        };
        table.lines().skip(1).filter(accepted).count()
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn four_workers_and_two_servers_share_eight_connections_for_200_rounds() {
        let (cluster, workers) = bsp_rounds(2);
        // One connection per worker and server, dialed by the worker and
        // answered on; nobody dialed a worker back.
        let port = |node| cluster.addresses.get(node).expect("listed").port();
        for m in 0..2 {
            assert_eq!(accepted_on(port(NodeId::Server(m))), WORKERS as usize);
        }
        for n in 0..WORKERS {
            assert_eq!(accepted_on(port(NodeId::Worker(n))), 0, "worker {n}");
        }
        drop(workers);
        cluster.shutdown().iter().for_each(assert_conserved);
    }

    #[test]
    fn tcp_cluster_with_collector_records_wire_events() {
        let specs = vec![ParamSpec { key: 0, len: 4 }];
        let mut init = HashMap::new();
        init.insert(0u64, vec![0.0; 4]);
        let map = EpsSlicer { max_chunk: 8 }.slice(&specs, 1);
        let cfg = EngineConfig {
            num_workers: 1,
            num_servers: 1,
            model: SyncModel::Asp,
            ..EngineConfig::default()
        };
        let collector = TraceCollector::wall(1024);
        let obs = Observability {
            collector: Some(collector.clone()),
            ..Observability::default()
        };
        let (cluster, mut workers) =
            TcpCluster::launch_observed(cfg, map, &init, obs).expect("launch");
        let mut w = workers.remove(0);
        let grads: HashMap<u64, Vec<f32>> = [(0u64, vec![1.0f32; 4])].into();
        let mut params = HashMap::new();
        for i in 0..3u64 {
            w.spush(i, &grads).unwrap();
            w.spull_wait(i, &mut params).unwrap();
        }
        let stats = cluster.shutdown();
        let trace = collector.snapshot();
        assert_eq!(trace.count(EventKind::PullRequested), stats[0].pulls_total);
        assert_eq!(
            trace.count(EventKind::PushApplied) + trace.count(EventKind::LatePushDropped),
            stats[0].pushes
        );
        // Worker sends 3 pushes + 3 pulls; server receives them and sends
        // acks + responses.
        assert!(trace.count(EventKind::WireSend) >= 6);
        assert!(trace.count(EventKind::WireRecv) >= 6);
        assert_eq!(trace.count(EventKind::BarrierWait), 3);
    }

    #[test]
    fn tcp_cluster_collected_run_merges_and_balances() {
        use fluentps_transport::CollectorService;

        let specs = vec![ParamSpec { key: 0, len: 6 }, ParamSpec { key: 1, len: 3 }];
        let mut init = HashMap::new();
        init.insert(0u64, vec![0.0; 6]);
        init.insert(1u64, vec![0.0; 3]);
        let map = EpsSlicer { max_chunk: 4 }.slice(&specs, 2);
        let cfg = EngineConfig {
            num_workers: 2,
            num_servers: 2,
            model: SyncModel::Bsp,
            ..EngineConfig::default()
        };
        let mut service = CollectorService::bind("127.0.0.1:0".parse().unwrap(), 1 << 12)
            .expect("bind collector");
        let obs = Observability {
            stream_to: Some(service.local_addr()),
            ring_capacity: 1 << 10,
            ..Observability::default()
        };
        let (cluster, workers) = TcpCluster::launch_observed(cfg, map, &init, obs).expect("launch");

        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut w| {
                std::thread::spawn(move || {
                    let grads: HashMap<u64, Vec<f32>> =
                        [(0u64, vec![1.0f32; 6]), (1u64, vec![2.0f32; 3])].into();
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
        cluster.shutdown();

        let stats = service.node_stats();
        let names: Vec<&str> = stats.iter().map(|s| s.node.as_str()).collect();
        assert_eq!(names, ["server0", "server1", "worker0", "worker1"]);
        service.check_balance().expect("exact per-node accounting");
        let trace = service.snapshot();
        // Cross-process wire pairs land on the one merged timeline: both
        // directions of every push/pull appear.
        assert!(trace.count(EventKind::WireSend) >= 12);
        assert!(trace.count(EventKind::WireRecv) >= 12);
        assert!(trace.events.windows(2).all(|w| w[0].ts <= w[1].ts));
        service.stop();
    }

    #[test]
    fn tcp_cluster_shutdown_unblocks_parked_worker() {
        let specs = vec![ParamSpec { key: 0, len: 4 }];
        let mut init = HashMap::new();
        init.insert(0u64, vec![0.0; 4]);
        let map = EpsSlicer { max_chunk: 8 }.slice(&specs, 1);
        let cfg = EngineConfig {
            num_workers: 2,
            num_servers: 1,
            model: SyncModel::Bsp,
            ..EngineConfig::default()
        };
        let (cluster, mut workers) = TcpCluster::launch(cfg, map, &init).expect("launch");
        let mut w0 = workers.remove(0);
        let blocked = std::thread::spawn(move || {
            let grads: HashMap<u64, Vec<f32>> = [(0u64, vec![1.0f32; 4])].into();
            w0.spush(0, &grads).unwrap();
            let mut params = HashMap::new();
            w0.spull_wait(0, &mut params).unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(100));
        let stats = cluster.shutdown();
        blocked.join().unwrap();
        assert_eq!(stats[0].dprs_released, 1);
    }
}
