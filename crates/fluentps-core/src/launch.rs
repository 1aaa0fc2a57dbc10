//! The one cluster: [`Cluster<F>`] launches, serves and shuts down a
//! FluentPS cluster over any fabric `F` — a [`Network`] that binds a node to
//! its postman and mailbox. Over the in-process
//! [`Fabric`](fluentps_transport::Fabric) it is
//! [`crate::engine::Cluster`], over loopback TCP (an
//! [`AddressBook`](fluentps_transport::tcp::AddressBook))
//! [`crate::tcp_engine::TcpCluster`]; the step a server runs
//! ([`crate::serve::run`]) is the same on both.
//!
//! The module also owns what every launch shares, the fault-tolerant
//! [`crate::recovery::ResilientTcpCluster`] included: shard construction and
//! placement ([`shard_server`]), the bring-up of servers and worker clients
//! on a fabric, and the observability session (per-node tracing, health
//! tap, metrics gauges, HTTP endpoint) with its one shutdown sequence. Every
//! launch takes the same [`Observability`].

use std::collections::HashMap;
use std::net::SocketAddr;
use std::thread::JoinHandle;

use fluentps_obs::http::{self, Endpoints};
use fluentps_obs::{
    HealthEngine, HealthTap, HealthView, IntrospectionServer, MetricsRegistry, ProfCollector,
    Profiler, TraceCollector, TraceSource, Tracer,
};
use fluentps_transport::collect::TraceStreamer;
use fluentps_transport::{Mailbox, Message, Network, NodeId, Postman, TransportError};
use fluentps_util::rng::StdRng;

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
    /// Span-profile collector: server steps, worker clients, every TCP
    /// node's frame encode/decode and the trace streamers profile into it.
    /// Keep a clone to snapshot it — any time, including mid-run.
    pub profiler: Option<ProfCollector>,
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
    /// `collector`, `health` and `profiler` over HTTP here — `/metrics`,
    /// `/healthz`, `/trace`, `/waterfall`, `/slo`, `/alerts`, `/profile` —
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
            profiler: None,
            health: None,
            metrics: None,
            http: None,
        }
    }
}

impl Observability {
    /// A handle profiling into [`Observability::profiler`] (disabled when
    /// there is none).
    pub(crate) fn span_profiler(&self) -> Profiler {
        self.profiler
            .as_ref()
            .map(|p| p.profiler())
            .unwrap_or_default()
    }

    /// Tracing for one node: a ring of the shared in-process collector, or
    /// (when streaming) a private collector plus the streamer shipping its
    /// ring to the collection service.
    pub(crate) fn node(&self, node: NodeId) -> (Tracer, Option<TraceStreamer>) {
        match self.stream_to {
            Some(addr) => {
                let col = TraceCollector::wall(self.ring_capacity);
                let streamer = TraceStreamer::start(node, &col, addr, self.span_profiler());
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
/// and profiler at launch, owns what must be stopped at shutdown.
pub(crate) struct Session {
    /// Normalized: `collector` is `None` when streaming.
    pub(crate) obs: Observability,
    /// Streamers of the worker clients' rings: the clients leave with the
    /// caller, so the session flushes these, first thing at shutdown.
    worker_streamers: Vec<TraceStreamer>,
    tap: Option<(HealthEngine, HealthTap)>,
    endpoint: Option<IntrospectionServer>,
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
                    health: liveness,
                    engine: obs.health.clone(),
                    prof: obs.profiler.clone(),
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
        })
    }

    pub(crate) fn http_addr(&self) -> Option<SocketAddr> {
        self.endpoint.as_ref().map(|e| e.local_addr())
    }

    /// The worker clients every engine hands its caller: worker `n` sends
    /// and receives through the `n`-th of `halves`, routes by `map`, and
    /// traces and profiles into this session.
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
            w.set_profiler(self.obs.span_profiler());
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
    profiler: Profiler,
) -> (ShardServer, Vec<u64>) {
    let mut shard = new_shard(cfg, model, m);
    let mut keys = Vec::new();
    for p in map.placements().iter().filter(|p| p.server == m) {
        let vals = init
            .get(&p.orig_key)
            .map(|v| v[p.offset..p.offset + p.len].to_vec())
            .unwrap_or_else(|| vec![0.0; p.len]);
        shard.init_param(p.new_key, vals);
        keys.push(p.new_key);
    }
    keys.sort_unstable();
    let server = ShardServer::new(shard, server_rng(cfg.seed, m, 0), tracer, profiler);
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

/// Run `serve` — a node being served until it stops — on a thread of its
/// own, and final-flush the node's trace stream from that same thread, so
/// everything a server recorded, a killed one included, reaches the
/// collector before the thread exits.
pub(crate) fn spawn_served(
    name: String,
    streamer: Option<TraceStreamer>,
    serve: impl FnOnce() -> ShardStats + Send + 'static,
) -> JoinHandle<ShardStats> {
    let served = move || {
        let stats = serve();
        if let Some(s) = streamer {
            s.stop();
        }
        stats
    };
    std::thread::Builder::new()
        .name(name)
        .spawn(served)
        .expect("spawn server thread")
}

/// What a launch brings up: a `cfg`-shaped cluster whose server `m` runs
/// `models[m]` over its slices of `init`, as `map` places them.
pub(crate) struct Plan<'a> {
    pub(crate) cfg: EngineConfig,
    pub(crate) models: &'a [SyncModel],
    pub(crate) map: SliceMap,
    pub(crate) init: &'a HashMap<u64, Vec<f32>>,
}

/// The worker client of a cluster over the fabric `F`.
pub type Worker<F> = WorkerClient<<F as Network>::Postman, <F as Network>::Mailbox>;

/// The thread serving each shard, by server id.
pub(crate) type ServerThreads = Vec<JoinHandle<ShardStats>>;

impl Plan<'_> {
    /// Bind every worker and server of the plan on `fabric`, serve each
    /// shard on a thread `fluentps-{thread}-server-{m}` of its own — `drive`
    /// turns the shard's server, the wire keys it owns and its node's halves
    /// into what that thread runs — and build the worker clients. Every node
    /// is bound before any server runs, so each can answer anyone.
    pub(crate) fn bring_up<F: Network, R>(
        self,
        fabric: &F,
        session: &mut Session,
        thread: &str,
        mut drive: impl FnMut(ShardServer, Vec<u64>, F::Postman, F::Mailbox) -> R,
    ) -> Result<(ServerThreads, Vec<Worker<F>>), TransportError>
    where
        R: FnOnce() -> ShardStats + Send + 'static,
    {
        let Plan {
            cfg,
            models,
            map,
            init,
        } = self;
        assert_eq!(map.num_servers(), cfg.num_servers, "map/server mismatch");
        assert_eq!(
            models.len(),
            cfg.num_servers as usize,
            "one model per server"
        );
        // Every node and server profiles into a handle of its own, so their
        // span exits never contend.
        let bind = |node| fabric.bind(node, &session.obs.span_profiler());
        let workers = (0..cfg.num_workers)
            .map(|n| bind(NodeId::Worker(n)))
            .collect::<Result<Vec<_>, _>>()?;
        let servers = (0..cfg.num_servers)
            .map(|m| bind(NodeId::Server(m)))
            .collect::<Result<Vec<_>, _>>()?;
        let mut handles = Vec::with_capacity(servers.len());
        for ((m, (postman, mailbox)), model) in (0u32..).zip(servers).zip(models) {
            let (tracer, streamer) = session.obs.node(NodeId::Server(m));
            let profiler = session.obs.span_profiler();
            let (server, keys) = shard_server(&cfg, *model, m, (&map, init), tracer, profiler);
            let name = format!("fluentps-{thread}-server-{m}");
            handles.push(spawn_served(
                name,
                streamer,
                drive(server, keys, postman, mailbox),
            ));
        }
        Ok((handles, session.workers(map, workers)))
    }
}

/// A running cluster over the fabric `F`: one served node per shard, each on
/// a thread that only waits while the fabric runs its step
/// ([`serve::run`], DESIGN.md §18), and a control node of the handle's own
/// on the same fabric, which delivers the shutdown.
pub struct Cluster<F: Network> {
    fabric: F,
    servers: ServerThreads,
    /// Bound as `Scheduler`; owning the mailbox keeps the postman's
    /// connections alive.
    control: (F::Postman, F::Mailbox),
    session: Session,
}

impl<F: Network + Default> Cluster<F> {
    /// Launch a cluster on a fresh fabric, observed as `obs` says, and
    /// build one [`WorkerClient`] per worker. Server `m` runs `models[m]` —
    /// the paper's headline flexibility: "each parameter server can choose
    /// the adaptive synchronization model to update its parameter shard"
    /// (Figure 2 runs SSP, PSSP and drop-stragglers side by side);
    /// [`EngineConfig::models`] runs `cfg.model` everywhere. `init` maps
    /// original parameter keys to initial values (`w_0`); `map` decides the
    /// placement. Fails only when a node or [`Observability::http`] cannot
    /// be bound.
    pub fn launch_observed(
        cfg: EngineConfig,
        models: &[SyncModel],
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        obs: Observability,
    ) -> Result<(Self, Vec<Worker<F>>), TransportError> {
        let fabric = F::default();
        let mut session = Session::start(obs, F::NAME, &cfg, None)?;
        let plan = Plan {
            cfg,
            models,
            map,
            init,
        };
        let (servers, workers) =
            plan.bring_up(&fabric, &mut session, F::NAME, |server, _, p, m| {
                move || serve::run(server, &m, p)
            })?;
        let control = fabric.bind(NodeId::Scheduler, &session.obs.span_profiler())?;
        let cluster = Cluster {
            fabric,
            servers,
            control,
            session,
        };
        Ok((cluster, workers))
    }
}

impl<F: Network> Cluster<F> {
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

    /// Send `Shutdown` to every server from the control node, join their
    /// threads and return their per-shard statistics (index = server id).
    /// Finalizes the health engine and stops the HTTP endpoint of an
    /// observed launch.
    ///
    /// Call after the worker threads have finished: the workers' trace
    /// streamers final-flush here. A TCP server waits for the connections
    /// of workers still alive to go quiet (DESIGN.md §18).
    pub fn shutdown(self) -> Vec<ShardStats> {
        let Cluster {
            servers,
            control: (postman, _mailbox),
            session,
            ..
        } = self;
        session.shutdown(|| {
            for m in 0..servers.len() as u32 {
                // Ignore failures: the server may already be gone.
                let _ = postman.send(NodeId::Server(m), Message::Shutdown);
            }
            servers
                .into_iter()
                .map(|h| h.join().expect("server thread panicked"))
                .collect()
        })
    }
}

/// One test body per cluster behaviour, each run on both fabrics.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::eps::{EpsSlicer, ParamSpec, Slicer};
    use crate::worker::PullReport;
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
                        w.spush(i, &grads).unwrap();
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
            w0.spush(0, &grads).unwrap();
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

    /// A server's spans fold under the worker call whose send ran the step:
    /// a worker's pushes leave with its pulls, so `server/apply_push` sits
    /// under `worker/pull_wait`. Only what reached a server before its
    /// `serve` call started — round 0 at most, since the replies that end
    /// round 0 come from that call — is handled by the server's thread, at
    /// the stack's root.
    #[test]
    fn profiled_server_spans_fold_under_the_sending_worker() {
        let prof = ProfCollector::wall();
        let obs = Observability {
            profiler: Some(prof.clone()),
            ..Observability::default()
        };
        let (cluster, workers) = launch::<Fabric>(bsp(2, 2), obs);
        train(workers, |_, _| {});
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
}
