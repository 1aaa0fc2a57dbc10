//! The one cluster: [`Cluster<F>`] launches, serves and shuts down a
//! FluentPS cluster over any fabric `F` — a [`Network`] that binds a node to
//! its postman and mailbox. Over the in-process
//! [`Fabric`](fluentps_transport::Fabric) it is
//! [`crate::engine::Cluster`], over loopback TCP (an
//! [`AddressBook`](fluentps_transport::tcp::AddressBook))
//! [`crate::tcp_engine::TcpCluster`]; the step a server runs
//! ([`crate::serve::run`]) is the same on both. In the
//! [`RecoveryConfig`](crate::recovery::RecoveryConfig) [`Role`] it is the
//! fault-tolerant cluster over a
//! [`FaultyNetwork`](fluentps_transport::fault::FaultyNetwork)
//! ([`crate::recovery::ResilientTcpCluster`] over TCP), whose supervisor
//! replicas are a role of the same handle.
//!
//! The module owns what every role shares: shard construction and placement
//! ([`shard_server`]), the one bring-up of servers, worker clients and the
//! control node on a fabric (`Cluster::start`), the registry of server
//! threads a replacement joins (`Servers`), the one shutdown, and the
//! observability session (per-node tracing, health tap, metrics gauges,
//! HTTP endpoint). Every launch takes the same [`Observability`].

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use fluentps_obs::http::{self, Endpoints};
use fluentps_obs::{
    HealthEngine, HealthTap, HealthView, IntrospectionServer, MetricsRegistry, TraceCollector,
    TraceSource, Tracer,
};
use fluentps_transport::collect::TraceStreamer;
use fluentps_transport::{Mailbox, Message, Network, NodeId, Postman, TransportError};
use fluentps_util::rng::StdRng;
use fluentps_util::sync::Mutex;

use crate::condition::SyncModel;
use crate::engine::EngineConfig;
use crate::eps::SliceMap;
use crate::serve::{self, ShardServer};
use crate::server::{ServerShard, ShardConfig};
use crate::stats::ShardStats;
use crate::worker::{Router, WorkerClient};

/// What a launched cluster reports, and where. The default observes
/// nothing: no tracer, no thread, no socket.
#[derive(Debug, Clone)]
pub struct Observability {
    /// In-process trace collector: every shard, server loop and worker
    /// client records into its own ring of this collector (wall clock).
    /// Ignored when [`Observability::stream_to`] is set.
    pub collector: Option<TraceCollector>,
    /// Cluster-wide trace collection (TCP engines): every node records into
    /// its *own* wall-clock collector of [`Observability::ring_capacity`]
    /// events and streams the ring to the
    /// [`fluentps_transport::CollectorService`] at this address, where the
    /// streams are clock-aligned and merged onto one timeline. Distinct
    /// per-node epochs are the point — they make the protocol's offset
    /// handshake meaningful.
    pub stream_to: Option<SocketAddr>,
    /// Per-node ring capacity (events) when `stream_to` is set.
    pub ring_capacity: usize,
    /// Streaming health engine to feed with the run's trace events. With an
    /// in-process `collector` the cluster taps that collector into the
    /// engine and finalizes the engine at shutdown. With `stream_to` set,
    /// feeding is the collector service's job
    /// (`CollectorService::attach_health`); the cluster never double-feeds.
    pub health: Option<HealthEngine>,
    /// Registry the cluster publishes its shape gauges into (and, for the
    /// fault-tolerant engine, the `consensus_*` gauges with HELP lines).
    pub metrics: Option<MetricsRegistry>,
    /// Serve `metrics` (a fresh registry when unset), the in-process
    /// `collector` and `health` over HTTP here — `/metrics`, `/healthz`,
    /// `/trace`, `/waterfall`, `/slo`, `/alerts` —
    /// from launch until the cluster's `shutdown`. Bind loopback
    /// (`127.0.0.1:0`) unless the endpoint is deliberately exposed; the
    /// cluster handle's `http_addr` reports the bound address.
    pub http: Option<SocketAddr>,
}

impl Default for Observability {
    fn default() -> Self {
        Observability {
            collector: None,
            stream_to: None,
            ring_capacity: 1 << 14,
            health: None,
            metrics: None,
            http: None,
        }
    }
}

impl Observability {
    /// Tracing for one node: a ring of the shared in-process collector, or
    /// (when streaming) a private collector plus the streamer shipping its
    /// ring to the collection service.
    pub(crate) fn node(&self, node: NodeId) -> (Tracer, Option<TraceStreamer>) {
        match self.stream_to {
            Some(addr) => {
                let col = TraceCollector::wall(self.ring_capacity);
                let streamer = TraceStreamer::start(node, &col, addr);
                (col.tracer(), Some(streamer))
            }
            None => {
                let tracer = self.collector.as_ref().map(|c| c.tracer());
                (tracer.unwrap_or_default(), None)
            }
        }
    }
}

/// Static cluster-shape gauges, so a bare `/metrics` scrape identifies what
/// is running before any traffic.
pub fn publish_cluster_gauges(
    registry: &MetricsRegistry,
    engine: &str,
    workers: u32,
    servers: u32,
) {
    let scope = registry.scope().with("engine", engine);
    scope.set_gauge("cluster_workers", workers as f64);
    scope.set_gauge("cluster_servers", servers as f64);
    scope.set_gauge("cluster_up", 1.0);
}

/// The observability of one running cluster: hands every node its tracer
/// at launch, owns what must be stopped at shutdown.
pub(crate) struct Session {
    /// Normalized: `collector` is `None` when streaming.
    pub(crate) obs: Observability,
    /// Streamers of the worker clients' rings: the clients leave with the
    /// caller, so the session flushes these, first thing at shutdown.
    worker_streamers: Vec<TraceStreamer>,
    tap: Option<(HealthEngine, HealthTap)>,
    endpoint: Option<IntrospectionServer>,
    /// What `/healthz` serves: the readiness view a liveness monitor feeds.
    pub(crate) liveness: Option<HealthView>,
}

impl Session {
    /// Start observing a cluster of `cfg`'s shape. `engine` labels the
    /// shape gauges; `liveness` feeds `/healthz` when the engine has one.
    pub(crate) fn start(
        mut obs: Observability,
        engine: &str,
        cfg: &EngineConfig,
        liveness: Option<HealthView>,
    ) -> std::io::Result<Session> {
        if obs.stream_to.is_some() {
            obs.collector = None;
        }
        if obs.http.is_some() && obs.metrics.is_none() {
            obs.metrics = Some(MetricsRegistry::new());
        }
        if let Some(registry) = &obs.metrics {
            publish_cluster_gauges(registry, engine, cfg.num_workers, cfg.num_servers);
        }
        let tap = obs
            .health
            .as_ref()
            .zip(obs.collector.as_ref())
            .map(|(e, col)| (e.clone(), e.attach_to(col)));
        let endpoint = match obs.http {
            Some(addr) => {
                let endpoints = Endpoints {
                    registry: obs.metrics.clone().unwrap_or_default(),
                    trace: obs.collector.clone().map(TraceSource::Local),
                    health: liveness.clone(),
                    engine: obs.health.clone(),
                };
                Some(http::serve(addr, endpoints)?)
            }
            None => None,
        };
        Ok(Session {
            obs,
            worker_streamers: Vec::new(),
            tap,
            endpoint,
            liveness,
        })
    }

    pub(crate) fn http_addr(&self) -> Option<SocketAddr> {
        self.endpoint.as_ref().map(|e| e.local_addr())
    }

    /// The worker clients every engine hands its caller: worker `n` sends
    /// and receives through the `n`-th of `halves`, routes by `map`, and
    /// traces into this session.
    pub(crate) fn workers<P: Postman, M: Mailbox>(
        &mut self,
        map: SliceMap,
        halves: impl IntoIterator<Item = (P, M)>,
    ) -> Vec<WorkerClient<P, M>> {
        let router = Router::new(map);
        let client = |(n, (postman, mailbox))| {
            let mut w = WorkerClient::new(n, postman, mailbox, router.clone());
            let (tracer, streamer) = self.obs.node(NodeId::Worker(n));
            self.worker_streamers.extend(streamer);
            w.set_tracer(tracer);
            w
        };
        (0u32..).zip(halves).map(client).collect()
    }

    /// The shutdown sequence of every cluster handle: flush the workers'
    /// trace streams (their threads are done by contract), stop and join
    /// the servers, drain the last events into the health engine and close
    /// its final window, then take the endpoint down.
    pub(crate) fn shutdown(
        self,
        stop_servers: impl FnOnce() -> Vec<ShardStats>,
    ) -> Vec<ShardStats> {
        for s in self.worker_streamers {
            s.stop();
        }
        let stats = stop_servers();
        if let Some((engine, tap)) = self.tap {
            tap.stop();
            engine.finish();
        }
        drop(self.endpoint);
        stats
    }
}

/// An empty shard `m` of a `cfg`-shaped cluster running `model`.
pub(crate) fn new_shard(cfg: &EngineConfig, model: SyncModel, m: u32) -> ServerShard {
    ServerShard::new(ShardConfig {
        server_id: m,
        num_workers: cfg.num_workers,
        model,
        policy: cfg.policy,
    })
}

/// The server every engine launches for shard `m`: the shard holding its
/// slices of `init` (zeros for keys `init` lacks) as placed by `map`,
/// running `model`, with `cfg.seed`'s draw stream for server `m`. Also
/// returns the wire keys the shard owns, sorted.
pub fn shard_server(
    cfg: &EngineConfig,
    model: SyncModel,
    m: u32,
    (map, init): (&SliceMap, &HashMap<u64, Vec<f32>>),
    tracer: Tracer,
) -> (ShardServer, Vec<u64>) {
    let mut shard = new_shard(cfg, model, m);
    let placed: Vec<_> = map.placements().iter().filter(|p| p.server == m).collect();
    shard.reserve(placed.iter().map(|p| p.len).sum());
    let mut keys = Vec::with_capacity(placed.len());
    for p in placed {
        match init.get(&p.orig_key) {
            Some(v) => shard.init_param(p.new_key, &v[p.offset..p.offset + p.len]),
            None => shard.init_param(p.new_key, vec![0.0; p.len]),
        }
        keys.push(p.new_key);
    }
    keys.sort_unstable();
    let server = ShardServer::new(shard, server_rng(cfg.seed, m, 0), tracer);
    (server, keys)
}

/// Server `m`'s stream of PSSP probability draws under `seed`, the one
/// seeding of every server step — live and simulated. `generation` counts
/// the replacements of `m`, so a restored server does not replay its
/// predecessor's draws.
pub fn server_rng(seed: u64, m: u32, generation: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_add(m as u64 + 1)
            .wrapping_add(generation.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    )
}

/// The server threads of one cluster, by server id, and the stop latch of
/// its one drain. The cluster handle holds the registry and its supervisor
/// replicas share it: a replacement server joins the set (DESIGN.md §18).
#[derive(Clone, Default)]
pub(crate) struct Servers {
    threads: Arc<Mutex<Incarnations>>,
    /// The out-of-band counterpart of the `Shutdown` message, set by
    /// [`Servers::drain`] before it sends one: a server that checks it on a
    /// quiet interval exits even when that frame is lost.
    stop: Arc<AtomicBool>,
}

/// Each server thread with its server's id: a replaced server has one per
/// incarnation.
type Incarnations = Vec<(u32, JoinHandle<ShardStats>)>;

impl Servers {
    /// Run `serve` — node `m` being served until it stops — on a thread
    /// `fluentps-{stem}-server-{m}` of its own, and final-flush the node's
    /// trace stream from that same thread, so everything a server recorded,
    /// a killed one included, reaches the collector before the thread exits.
    pub(crate) fn spawn(
        &self,
        stem: &str,
        m: u32,
        streamer: Option<TraceStreamer>,
        serve: impl FnOnce() -> ShardStats + Send + 'static,
    ) {
        let served = move || {
            let stats = serve();
            if let Some(s) = streamer {
                s.stop();
            }
            stats
        };
        let thread = std::thread::Builder::new()
            .name(format!("fluentps-{stem}-server-{m}"))
            .spawn(served)
            .expect("spawn server thread");
        self.threads.lock().push((m, thread));
    }

    /// The latch [`Servers::drain`] sets.
    pub(crate) fn stop_latch(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Set the stop latch, send `Shutdown` from `postman` to every server id,
    /// join every thread and return the statistics by server id, the
    /// incarnations of a replaced server merged. A server thread's panic is
    /// raised again once every thread is joined.
    pub(crate) fn drain(self, postman: &impl Postman) -> Vec<ShardStats> {
        self.stop.store(true, Ordering::Relaxed);
        let threads = std::mem::take(&mut *self.threads.lock());
        let ids = threads.iter().map(|&(m, _)| m + 1).max().unwrap_or(0);
        for m in 0..ids {
            // Ignore failures: the server may already be gone.
            let _ = postman.send(NodeId::Server(m), Message::Shutdown);
        }
        let mut stats = vec![ShardStats::default(); ids as usize];
        let mut panicked = None;
        for (m, thread) in threads {
            match thread.join() {
                Ok(s) => stats[m as usize].merge(&s),
                Err(payload) => panicked = panicked.or(Some(payload)),
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        stats
    }
}

/// The arguments of [`Cluster::launch_observed`] besides its [`Role`]: a
/// `cfg`-shaped cluster holding `init` as `map` places it, observed as
/// `obs` says. Only `launch_observed` builds one.
pub struct Plan<'a> {
    pub(crate) cfg: EngineConfig,
    pub(crate) map: SliceMap,
    pub(crate) init: &'a HashMap<u64, Vec<f32>>,
    pub(crate) obs: Observability,
}

/// What a cluster runs besides its shards, chosen by the second argument of
/// [`Cluster::launch_observed`]: a model per server (`&[SyncModel]`, or
/// anything that is one) for a plain cluster on a fabric of its own making
/// (`F: Default`); a [`RecoveryConfig`](crate::recovery::RecoveryConfig) for
/// the fault-tolerant one, on a
/// [`FaultyNetwork`](fluentps_transport::fault::FaultyNetwork), with
/// supervisor replicas beside its servers.
pub trait Role<F: Network> {
    /// Launch the cluster `plan` describes in this role.
    fn launch(self, plan: Plan<'_>) -> Result<(Cluster<F>, Vec<Worker<F>>), TransportError>;
}

/// A plain cluster: server `m` runs `models[m]` with [`serve::run`].
impl<F, M> Role<F> for &M
where
    F: Network + Default,
    M: AsRef<[SyncModel]> + ?Sized,
{
    fn launch(self, plan: Plan<'_>) -> Result<(Cluster<F>, Vec<Worker<F>>), TransportError> {
        Cluster::start(
            F::default(),
            plan,
            self.as_ref(),
            (F::NAME, F::NAME),
            None,
            |server, _, p, m, _| move || serve::run(server, &m, p),
        )
    }
}

/// The worker client of a cluster over the fabric `F`.
pub type Worker<F> = WorkerClient<<F as Network>::Postman, <F as Network>::Mailbox>;

/// A node's two halves on the network `N`.
type Halves<N> = (<N as Network>::Postman, <N as Network>::Mailbox);

/// A running cluster over the fabric `F`: one served node per shard, each on
/// a thread that only waits while the fabric runs its step (DESIGN.md §18),
/// the supervisor replicas of a fault-tolerant cluster, and a control node
/// of the handle's own, which delivers the shutdown.
pub struct Cluster<F: Network> {
    pub(crate) fabric: F,
    pub(crate) servers: Servers,
    /// Bound as `Scheduler` on the bare network, outside any fault shim;
    /// owning the mailbox keeps the postman's connections alive.
    control: Halves<F::Bare>,
    /// Each supervisor replica's thread and trace streamer, by replica id;
    /// none on a plain cluster.
    pub(crate) supervisors: Vec<(JoinHandle<()>, Option<TraceStreamer>)>,
    pub(crate) session: Session,
}

impl<F: Network> Cluster<F> {
    /// Launch a cluster in `role`, observed as `obs` says, and build one
    /// [`WorkerClient`] per worker. As a list of models, `role` gives server
    /// `m` `models[m]` — the paper's headline flexibility: "each parameter
    /// server can choose the adaptive synchronization model to update its
    /// parameter shard" (Figure 2 runs SSP, PSSP and drop-stragglers side by
    /// side); [`EngineConfig::models`] runs `cfg.model` everywhere. `init`
    /// maps original parameter keys to initial values (`w_0`); `map` decides
    /// the placement. Fails only when a node or [`Observability::http`]
    /// cannot be bound.
    pub fn launch_observed(
        cfg: EngineConfig,
        role: impl Role<F>,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        obs: Observability,
    ) -> Result<(Self, Vec<Worker<F>>), TransportError> {
        role.launch(Plan {
            cfg,
            map,
            init,
            obs,
        })
    }

    /// The one bring-up of every role: start observing the cluster as
    /// `engine` (`liveness` feeding `/healthz`), bind every worker and
    /// server of `plan` on `fabric`, serve server `m`'s shard, running
    /// `models[m]`, on a thread named by `stem` — `drive` turns its server,
    /// the wire keys it owns, its node's halves and the registry into what
    /// that thread runs — build the worker clients, and bind the handle's
    /// control node on the bare network. Every node is bound before any
    /// server runs, so each can answer anyone.
    pub(crate) fn start<R>(
        fabric: F,
        plan: Plan<'_>,
        models: &[SyncModel],
        (engine, stem): (&str, &str),
        liveness: Option<HealthView>,
        mut drive: impl FnMut(ShardServer, Vec<u64>, F::Postman, F::Mailbox, &Servers) -> R,
    ) -> Result<(Self, Vec<Worker<F>>), TransportError>
    where
        R: FnOnce() -> ShardStats + Send + 'static,
    {
        let Plan {
            cfg,
            map,
            init,
            obs,
        } = plan;
        assert_eq!(map.num_servers(), cfg.num_servers, "map/server mismatch");
        assert_eq!(
            models.len(),
            cfg.num_servers as usize,
            "one model per server"
        );
        let mut session = Session::start(obs, engine, &cfg, liveness)?;
        let bind = |node| fabric.bind(node);
        let workers = (0..cfg.num_workers)
            .map(|n| bind(NodeId::Worker(n)))
            .collect::<Result<Vec<_>, _>>()?;
        let nodes = (0..cfg.num_servers)
            .map(|m| bind(NodeId::Server(m)))
            .collect::<Result<Vec<_>, _>>()?;
        let servers = Servers::default();
        for ((m, (postman, mailbox)), model) in (0u32..).zip(nodes).zip(models) {
            let (tracer, streamer) = session.obs.node(NodeId::Server(m));
            let (server, keys) = shard_server(&cfg, *model, m, (&map, init), tracer);
            let serve = drive(server, keys, postman, mailbox, &servers);
            servers.spawn(stem, m, streamer, serve);
        }
        let workers = session.workers(map, workers);
        let control = fabric.bare().bind(NodeId::Scheduler)?;
        let cluster = Cluster {
            fabric,
            servers,
            control,
            supervisors: Vec::new(),
            session,
        };
        Ok((cluster, workers))
    }

    /// The fabric every node of this cluster is bound on, for joining the
    /// cluster from outside the launch: a node registered on the in-process
    /// fabric, an address looked up in (or published to) the TCP book.
    pub fn fabric(&self) -> &F {
        &self.fabric
    }

    /// Where [`Observability::http`] is being served (resolves port 0).
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.session.http_addr()
    }

    /// Stop the cluster and return its per-shard statistics (index = server
    /// id; a replaced server's incarnations merged). From the control node:
    /// `Shutdown` to each supervisor replica, whose threads are joined and
    /// whose streamers are stopped, then `Shutdown` to every server, whose
    /// threads are joined. A panic of a server or a replica is raised again
    /// after that. Finalizes the health engine and stops the HTTP endpoint
    /// of an observed launch.
    ///
    /// Call after the worker threads have finished: the workers' trace
    /// streamers final-flush here. A TCP server waits for the connections
    /// of workers still alive to go quiet (DESIGN.md §18).
    pub fn shutdown(self) -> Vec<ShardStats> {
        let Cluster {
            servers,
            control: (postman, _mailbox),
            supervisors,
            session,
            ..
        } = self;
        session.shutdown(|| {
            for k in 0..supervisors.len() as u32 {
                // Ignore failures: the replica may have crashed already.
                let _ = postman.send(NodeId::Supervisor(k), Message::Shutdown);
            }
            let mut panicked = None;
            for (thread, streamer) in supervisors {
                let joined = thread.join();
                if let Some(s) = streamer {
                    s.stop();
                }
                panicked = panicked.or(joined.err());
            }
            let stats = servers.drain(&postman);
            if let Some(payload) = panicked {
                std::panic::resume_unwind(payload);
            }
            stats
        })
    }
}

/// One test body per cluster behaviour, each run on both fabrics.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::eps::{EpsSlicer, ParamSpec, Slicer};
    use crate::serve::tests::Recording;
    use crate::worker::PullReport;
    use fluentps_ml::Deltas;
    use fluentps_obs::EventKind;
    use fluentps_transport::tcp::AddressBook;
    use fluentps_transport::Fabric;
    use std::time::Duration;

    const ITERS: u64 = 3;

    /// Two parameters of eight and four zeros, sliced four values at a time
    /// over `servers` servers.
    fn model_params(servers: u32) -> (SliceMap, HashMap<u64, Vec<f32>>) {
        let specs = vec![ParamSpec { key: 0, len: 8 }, ParamSpec { key: 1, len: 4 }];
        let init = [(0, vec![0.0; 8]), (1, vec![0.0; 4])].into();
        (EpsSlicer { max_chunk: 4 }.slice(&specs, servers), init)
    }

    fn bsp(num_workers: u32, num_servers: u32) -> EngineConfig {
        EngineConfig {
            num_workers,
            num_servers,
            model: SyncModel::Bsp,
            ..EngineConfig::default()
        }
    }

    fn launch<F: Network + Default>(
        cfg: EngineConfig,
        obs: Observability,
    ) -> (Cluster<F>, Vec<Worker<F>>) {
        let (map, init) = model_params(cfg.num_servers);
        Cluster::launch_observed(cfg, &cfg.models(), map, &init, obs).expect("launch")
    }

    /// Every worker on a thread of its own — BSP needs them all — pushing
    /// ones to key 0 and twos to key 1 for [`ITERS`] rounds, `check`ing
    /// each round's report; returns the parameters each ended on.
    fn train<P: Postman + 'static, M: Mailbox + 'static>(
        workers: Vec<WorkerClient<P, M>>,
        check: fn(&PullReport, u64),
    ) -> Vec<HashMap<u64, Vec<f32>>> {
        let grads: HashMap<u64, Vec<f32>> = [(0, vec![1.0; 8]), (1, vec![2.0; 4])].into();
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut w| {
                let grads = grads.clone();
                std::thread::spawn(move || {
                    let mut params = HashMap::new();
                    for i in 0..ITERS {
                        w.spush(i, &Deltas::from_params(&grads)).unwrap();
                        check(&w.spull_wait(i, &mut params).unwrap(), i);
                    }
                    params
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    fn bsp_cluster_runs_lockstep_iterations<F: Network + Default>() {
        let (cluster, workers) = launch::<F>(bsp(2, 2), Observability::default());
        let results = train(workers, |report, i| {
            assert_eq!(report.responses, 2);
            assert!(report.min_version > i);
        });
        // After 3 iterations with 2 workers pushing 1.0 each: w = 3·(2·1/2) = 3.
        for params in &results {
            assert_eq!(params[&0], vec![3.0; 8]);
            assert_eq!(params[&1], vec![6.0; 4]);
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.len(), 2);
        let total_pushes: u64 = stats.iter().map(|s| s.pushes).sum();
        assert_eq!(total_pushes, 2 * ITERS * 2); // 2 workers × 3 iters × 2 servers
    }

    #[test]
    fn bsp_cluster_runs_lockstep_iterations_in_process() {
        bsp_cluster_runs_lockstep_iterations::<Fabric>();
    }

    #[test]
    fn bsp_cluster_runs_lockstep_iterations_over_tcp() {
        bsp_cluster_runs_lockstep_iterations::<AddressBook>();
    }

    /// Server 0 never blocks; server 1 would, past nine iterations of lead.
    /// One worker, so neither does — but each shard runs its own model.
    fn per_server_models_flow_through<F: Network + Default>() {
        let (map, init) = model_params(2);
        let cfg = EngineConfig {
            num_servers: 2,
            ..EngineConfig::default()
        };
        let models = [SyncModel::Asp, SyncModel::Ssp { s: 9 }];
        let (cluster, workers) =
            Cluster::<F>::launch_observed(cfg, &models, map, &init, Observability::default())
                .unwrap();
        let results = train(workers, |report, _| assert_eq!(report.responses, 2));
        assert_eq!(results[0][&0], vec![3.0; 8]);
        let stats = cluster.shutdown();
        assert_eq!(stats.iter().map(|s| s.pushes).sum::<u64>(), ITERS * 2);
    }

    #[test]
    fn per_server_models_flow_through_in_process() {
        per_server_models_flow_through::<Fabric>();
    }

    #[test]
    fn per_server_models_flow_through_over_tcp() {
        per_server_models_flow_through::<AddressBook>();
    }

    fn traced_cluster_counts_reconcile_with_stats<F: Network + Default>() {
        const WORKERS: u32 = 2;
        let collector = TraceCollector::wall(4096);
        let obs = Observability {
            collector: Some(collector.clone()),
            ..Observability::default()
        };
        let (cluster, workers) = launch::<F>(bsp(WORKERS, 2), obs);
        train(workers, |_, _| {});
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
        // Every worker sends a push and a pull per round; servers receive
        // them and send acks and responses.
        let rounds = u64::from(WORKERS) * ITERS;
        assert!(trace.count(EventKind::WireSend) >= 2 * rounds);
        assert!(trace.count(EventKind::WireRecv) >= 2 * rounds);
        assert_eq!(trace.count(EventKind::BarrierWait), rounds);
    }

    #[test]
    fn traced_cluster_counts_reconcile_with_stats_in_process() {
        traced_cluster_counts_reconcile_with_stats::<Fabric>();
    }

    #[test]
    fn traced_cluster_counts_reconcile_with_stats_over_tcp() {
        traced_cluster_counts_reconcile_with_stats::<AddressBook>();
    }

    fn shutdown_releases_blocked_workers<F: Network + Default>() {
        let (cluster, mut workers) = launch::<F>(bsp(2, 1), Observability::default());
        let mut w0 = workers.remove(0);
        // Worker 0 pushes and pulls; worker 1 never shows up → the pull is
        // parked as a DPR. Shutdown must flush it so the thread unblocks.
        let blocked = std::thread::spawn(move || {
            let grads: HashMap<u64, Vec<f32>> = [(0, vec![1.0; 8]), (1, vec![1.0; 4])].into();
            w0.spush(0, &Deltas::from_params(&grads)).unwrap();
            let mut params = HashMap::new();
            w0.spull_wait(0, &mut params).unwrap();
        });
        // Give the pull time to get parked, then shut down.
        std::thread::sleep(Duration::from_millis(100));
        let stats = cluster.shutdown();
        blocked.join().unwrap();
        assert_eq!(stats[0].dprs, 1);
        assert_eq!(stats[0].dprs_released, 1);
    }

    #[test]
    fn shutdown_releases_blocked_workers_in_process() {
        shutdown_releases_blocked_workers::<Fabric>();
    }

    #[test]
    fn shutdown_releases_blocked_workers_over_tcp() {
        shutdown_releases_blocked_workers::<AddressBook>();
    }

    /// Server threads that return `pushes` statistics at once, by id.
    fn registry(incarnations: &[(u32, u64)]) -> Servers {
        let servers = Servers::default();
        for &(m, pushes) in incarnations {
            let stats = ShardStats {
                pushes,
                ..ShardStats::default()
            };
            servers.spawn("test", m, None, move || stats);
        }
        servers
    }

    #[test]
    fn drain_stops_every_server_once_and_merges_a_replaced_ones_incarnations() {
        let servers = registry(&[(0, 1), (1, 2), (0, 3)]);
        let latch = servers.stop_latch();
        let sent = Recording::default();
        let stats = servers.drain(&sent);
        assert_eq!(stats.iter().map(|s| s.pushes).collect::<Vec<_>>(), [4, 2]);
        assert!(latch.load(Ordering::Relaxed), "latched before the join");
        let stops = [0, 1].map(|m| vec![(NodeId::Server(m), Message::Shutdown)]);
        assert_eq!(*sent.0.lock(), stops);
    }

    #[test]
    #[should_panic(expected = "server 1 fell over")]
    fn drain_raises_a_server_panic_again() {
        let servers = registry(&[(0, 1)]);
        servers.spawn("test", 1, None, || panic!("server 1 fell over"));
        servers.drain(&Recording::default());
    }
}
