//! TCP runtime: [`launch::Cluster`] over loopback TCP. The same server step
//! as [`crate::engine`] ([`crate::serve::run`]) over real sockets: a
//! FluentPS cluster as separate OS threads bound to separate ports, suitable
//! for splitting across processes (each side only needs the address book).
//! Workers use the same [`WorkerClient`] with TCP halves.

use std::collections::HashMap;

use fluentps_transport::tcp::{AddressBook, TcpNode, TcpPostman};
use fluentps_transport::TransportError;

use crate::engine::EngineConfig;
use crate::eps::SliceMap;
use crate::launch::{self, Observability};
use crate::worker::WorkerClient;

/// Handle to a running TCP cluster (all nodes on loopback). Its
/// [`fabric`](launch::Cluster::fabric) is the book of where each node
/// listens, so external processes could join.
pub type TcpCluster = launch::Cluster<AddressBook>;

/// The worker client type served by the TCP engine.
pub type TcpWorker = WorkerClient<TcpPostman, TcpNode>;

impl TcpCluster {
    /// Launch servers on OS-chosen loopback ports and build TCP-backed
    /// worker clients. Mirrors [`crate::engine::Cluster::launch`].
    pub fn launch(
        cfg: EngineConfig,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
    ) -> Result<(TcpCluster, Vec<TcpWorker>), TransportError> {
        Self::launch_observed(cfg, &cfg.models(), map, init, Observability::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::SyncModel;
    use crate::eps::{EpsSlicer, ParamSpec, Slicer};
    use crate::stats::ShardStats;
    use fluentps_obs::EventKind;
    use fluentps_transport::NodeId;
    #[cfg(target_os = "linux")]
    use std::collections::HashSet;

    const WORKERS: u32 = 4;
    const ROUNDS: u64 = 200;

    /// A BSP cluster of [`WORKERS`] workers and `servers` served nodes.
    fn launch_bsp(servers: u32) -> (TcpCluster, Vec<TcpWorker>) {
        let specs = vec![ParamSpec { key: 0, len: 6 }, ParamSpec { key: 1, len: 3 }];
        let init: HashMap<u64, Vec<f32>> = [(0, vec![0.0; 6]), (1, vec![0.0; 3])].into();
        let map = EpsSlicer { max_chunk: 4 }.slice(&specs, servers);
        let cfg = EngineConfig {
            num_workers: WORKERS,
            num_servers: servers,
            model: SyncModel::Bsp,
            ..EngineConfig::default()
        };
        TcpCluster::launch(cfg, map, &init).expect("launch")
    }

    /// [`ROUNDS`] BSP rounds of `workers`, every step of a node under its one
    /// lock: the clients — still connected — back, once the parameters each
    /// ended on were found to be the same bits.
    fn bsp_rounds(workers: Vec<TcpWorker>) -> Vec<TcpWorker> {
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
        workers
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
        let (cluster, workers) = launch_bsp(1);
        drop(bsp_rounds(workers));
        assert_conserved(&cluster.shutdown()[0]);
    }

    /// The established connections in the socket table, as their `(local,
    /// remote)` addresses in its hex notation.
    #[cfg(target_os = "linux")]
    fn established() -> HashSet<(String, String)> {
        let table = std::fs::read_to_string("/proc/net/tcp").expect("the socket table");
        let row = |line: &str| {
            let mut columns = line.split_whitespace().skip(1);
            let (local, remote, state) = (columns.next()?, columns.next()?, columns.next()?);
            (state == "01").then(|| (local.to_owned(), remote.to_owned()))
        };
        table.lines().skip(1).filter_map(row).collect()
    }

    /// The connections accepted on `port` since `before`: the sockets that
    /// whoever listens there has accepted, less any that were established
    /// already. A listener can get the port of one that closed while a
    /// connection it had accepted lingers — the listeners set `SO_REUSEADDR`
    /// — and the tests of this process run side by side; while the listener
    /// is bound, nothing else gets its port.
    #[cfg(target_os = "linux")]
    fn accepted_on(port: u16, before: &HashSet<(String, String)>) -> usize {
        let here = format!(":{port:04X}");
        let new = established()
            .into_iter()
            .filter(|conn| !before.contains(conn));
        new.filter(|(local, _)| local.ends_with(&here)).count()
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn four_workers_and_two_servers_share_eight_connections_for_200_rounds() {
        let (cluster, workers) = launch_bsp(2);
        // Nothing of the cluster is connected yet: its nodes dial at their
        // first send.
        let before = established();
        let workers = bsp_rounds(workers);
        // One connection per worker and server, dialed by the worker and
        // answered on; nobody dialed a worker back.
        let port = |node| cluster.fabric().get(node).expect("listed").port();
        for m in 0..2 {
            let accepted = accepted_on(port(NodeId::Server(m)), &before);
            assert_eq!(accepted, WORKERS as usize);
        }
        for n in 0..WORKERS {
            assert_eq!(
                accepted_on(port(NodeId::Worker(n)), &before),
                0,
                "worker {n}"
            );
        }
        drop(workers);
        cluster.shutdown().iter().for_each(assert_conserved);
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
        let (cluster, workers) =
            TcpCluster::launch_observed(cfg, &cfg.models(), map, &init, obs).expect("launch");

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
}
