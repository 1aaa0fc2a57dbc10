//! What every cluster launch shares: shard construction and placement, TCP
//! node binding, and the observability session (per-node tracing, health
//! tap, metrics gauges, HTTP endpoint) with its one shutdown sequence.
//!
//! [`crate::engine::Cluster`], [`crate::tcp_engine::TcpCluster`] and
//! [`crate::recovery::ResilientTcpCluster`] are thin per-transport shells
//! over this module; their `launch_observed` entry points all take the same
//! [`Observability`].

use std::collections::HashMap;
use std::net::SocketAddr;
use std::thread::JoinHandle;

use fluentps_obs::http::{self, Endpoints};
use fluentps_obs::{
    HealthEngine, HealthTap, HealthView, IntrospectionServer, MetricsRegistry, ProfCollector,
    Profiler, TraceCollector, TraceSource, Tracer,
};
use fluentps_transport::collect::TraceStreamer;
use fluentps_transport::tcp::{AddressBook, TcpNode};
use fluentps_transport::{Mailbox, NodeId, Postman, TransportError};
use fluentps_util::rng::StdRng;

use crate::condition::SyncModel;
use crate::engine::EngineConfig;
use crate::eps::SliceMap;
use crate::serve::ShardServer;
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
    let server = ShardServer::new(shard, server_rng(cfg, m, 0), tracer, profiler);
    (server, keys)
}

/// Server `m`'s stream of PSSP probability draws. `generation` counts the
/// replacements of `m`, so a restored server does not replay its
/// predecessor's draws.
pub(crate) fn server_rng(cfg: &EngineConfig, m: u32, generation: u64) -> StdRng {
    StdRng::seed_from_u64(
        cfg.seed
            .wrapping_add(m as u64 + 1)
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

/// Bind `node` on an OS-chosen loopback port and publish the listener in
/// `book`, through which the node also dials — which is what lets workers
/// redial a replacement server bound under the id of the one that died. A
/// server is one node: it answers through the postman of the node it
/// listens on, so its replies arrive `from` its own id. Every socket of a
/// profiled cluster shares the one profile collector, so frame
/// encode/decode shows up as `wire/*` spans.
pub(crate) fn bind(
    node: NodeId,
    book: &AddressBook,
    obs: &Observability,
) -> Result<TcpNode, TransportError> {
    let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
    let profiler = obs.span_profiler();
    let bound = TcpNode::bind_profiled(node, loopback, book.clone(), Tracer::disabled(), profiler)?;
    book.insert(node, bound.local_addr());
    Ok(bound)
}

/// The endpoints of a TCP cluster, sharing one book (clones of a book
/// share one directory, so bind order does not matter).
pub(crate) struct TcpNodes {
    pub(crate) book: AddressBook,
    pub(crate) supervisors: Vec<TcpNode>,
    pub(crate) servers: Vec<TcpNode>,
    pub(crate) workers: Vec<TcpNode>,
    /// The handle's own sender, identified as `control`.
    pub(crate) control: TcpNode,
}

/// Bind `supervisors` supervisor replicas, `cfg`'s servers and workers, and
/// the control endpoint.
pub(crate) fn bind_cluster(
    cfg: &EngineConfig,
    supervisors: u32,
    control: NodeId,
    obs: &Observability,
) -> Result<TcpNodes, TransportError> {
    let book = AddressBook::new();
    let nodes = |count: u32, id: fn(u32) -> NodeId| {
        (0..count)
            .map(|i| bind(id(i), &book, obs))
            .collect::<Result<Vec<_>, _>>()
    };
    Ok(TcpNodes {
        supervisors: nodes(supervisors, NodeId::Supervisor)?,
        servers: nodes(cfg.num_servers, NodeId::Server)?,
        workers: nodes(cfg.num_workers, NodeId::Worker)?,
        control: bind(control, &book, obs)?,
        book,
    })
}
