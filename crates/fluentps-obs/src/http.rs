//! A hand-rolled HTTP/1.1 introspection endpoint on
//! [`std::net::TcpListener`] — no external crates, per the hermetic-build
//! gate (DESIGN.md §7).
//!
//! Routes:
//!
//! * `GET /healthz` — readiness. With a [`HealthView`] attached
//!   ([`Endpoints::health`]) this reports per-node last-heartbeat ages and
//!   the dead-node count as fed by the cluster's liveness monitor — `200`
//!   while every node is alive, `503` once any node is declared dead.
//!   Without one it degrades to the static `200 ok` liveness probe.
//! * `GET /metrics` — the attached [`MetricsRegistry`] in Prometheus text
//!   exposition format ([`MetricsRegistry::render_prometheus`]). When a
//!   [`TraceCollector`] is attached, per-kind event totals and the dropped
//!   count are refreshed into the registry on every scrape, so the scrape
//!   path carries the cost, not the training hot path.
//! * `GET /trace?last=N&actor=ID&kind=NAME&request=ID` — the newest `N`
//!   buffered events as JSONL (default 256), from a non-destructive
//!   snapshot. `actor=worker1`, `actor=server0` (alias `shard0`) or a bare
//!   integer filter to one actor's events, `kind=pull_deferred` to one
//!   event kind (snake-case [`crate::EventKind`] names), `request=ID` to
//!   events stamped with one causal request id; all apply before the tail
//!   is taken and compose freely. The trace may be a single process's
//!   [`TraceCollector`] or — with [`TraceSource::Cluster`] — the live merged timeline of a whole
//!   cluster, in which case `/metrics` also exports per-node collection
//!   counters (events received/dropped, clock offset, HLC bumps,
//!   incarnations).
//! * `GET /waterfall?request=ID|slowest=N&top=P` — per-request causal
//!   waterfalls ([`crate::waterfall`]) assembled from the trace snapshot,
//!   as NDJSON: one balance header line
//!   (`retained + sampled_out == observed`), then one object per waterfall.
//!   `request=ID` returns exactly that request, `slowest=N` the N slowest
//!   retained (default 10); `top=P` (fraction, default 1) applies
//!   tail-based sampling before selection. Each scrape also refreshes the
//!   `waterfall_wire_us`/`waterfall_barrier_us` exemplar histograms into
//!   `/metrics`.
//! * `GET /slo` and `GET /alerts` — when a
//!   [`HealthEngine`](crate::stream::HealthEngine) is attached
//!   ([`Endpoints::engine`]): the streaming health summary as greppable
//!   `key value` text, and the alert transition history plus current rule
//!   states as JSONL (`application/x-ndjson`, like `/trace`). The engine's
//!   gauges are also refreshed into `/metrics` on every scrape.
//! * `GET /profile?format=folded|speedscope&metric=time|allocs|bytes` —
//!   when a [`ProfCollector`](crate::prof::ProfCollector) is attached
//!   ([`Endpoints::prof`]): a live snapshot of this node's span profile, as
//!   flamegraph folded-stack text (the default; `metric` picks self time,
//!   allocation count or allocated bytes) or as speedscope JSON carrying
//!   all three metrics as separate profiles.
//!
//! Security note: callers should bind loopback (`127.0.0.1:0`) unless the
//! endpoint is deliberately exposed — everything the server reports is
//! read-only, but traces reveal workload shape. All engine and driver
//! integrations in this workspace default to loopback.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use fluentps_util::sync::Mutex;

use crate::collect::{ClusterCollector, NodeStats};
use crate::event::{EventKind, KINDS};
use crate::export;
use crate::health::HealthView;
use crate::metrics::MetricsRegistry;
use crate::prof::{ProfCollector, ProfMetric};
use crate::stream::HealthEngine;
use crate::tracer::{Trace, TraceCollector};
use crate::waterfall;

/// Events returned by `/trace` when no `last=N` parameter is given.
const DEFAULT_TAIL: usize = 256;

/// Waterfalls returned by `/waterfall` when neither `request=` nor
/// `slowest=` is given.
const DEFAULT_SLOWEST: usize = 10;

/// Longest request head we will read before answering 400.
const MAX_REQUEST_BYTES: usize = 8192;

/// A running introspection endpoint. Dropping it (or calling
/// [`IntrospectionServer::stop`]) shuts the listener down and joins the
/// accept thread.
#[derive(Debug)]
pub struct IntrospectionServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// What `/trace` (and the trace part of `/metrics`) is served from.
#[derive(Clone)]
pub enum TraceSource {
    /// One process's ring-buffered collector.
    Local(TraceCollector),
    /// The live merged timeline of a whole cluster, shared with a
    /// `CollectorService` (the TCP side lives in `fluentps-transport`).
    Cluster(Arc<Mutex<ClusterCollector>>),
}

impl TraceSource {
    fn snapshot(&self) -> Trace {
        match self {
            TraceSource::Local(col) => col.snapshot(),
            TraceSource::Cluster(cluster) => cluster.lock().snapshot(),
        }
    }

    /// Per-kind recorded totals and the drop count, without snapshotting:
    /// a scrape must not clone and sort the cluster's buffered events under
    /// the mutex its ingest path needs.
    fn totals(&self) -> ([u64; KINDS], u64) {
        match self {
            TraceSource::Local(col) => col.totals(),
            TraceSource::Cluster(cluster) => cluster.lock().totals(),
        }
    }

    fn node_stats(&self) -> Option<Vec<NodeStats>> {
        match self {
            TraceSource::Local(_) => None,
            TraceSource::Cluster(cluster) => Some(cluster.lock().node_stats()),
        }
    }
}

/// What an endpoint serves. Only the registry is always there; each
/// `None` turns its routes into `404` (or, for `health`, `/healthz` into
/// the static `200 ok` liveness probe).
#[derive(Clone, Default)]
pub struct Endpoints {
    /// `/metrics`.
    pub registry: MetricsRegistry,
    /// `/trace` and `/waterfall`, and the trace part of `/metrics`.
    pub trace: Option<TraceSource>,
    /// `/healthz` as a readiness probe fed by a liveness monitor.
    pub health: Option<HealthView>,
    /// `/slo` and `/alerts`, and the engine's gauges on `/metrics`.
    pub engine: Option<HealthEngine>,
    /// `/profile`.
    pub prof: Option<ProfCollector>,
}

/// Serve `endpoints` on `addr` until the returned handle is stopped or
/// dropped. Pass `0` as the port to let the OS pick one — read it back from
/// [`IntrospectionServer::local_addr`].
pub fn serve(addr: SocketAddr, endpoints: Endpoints) -> std::io::Result<IntrospectionServer> {
    let Endpoints {
        registry,
        trace: source,
        health,
        engine,
        prof,
    } = endpoints;
    // Every served registry carries process metadata (uptime epoch and
    // build version) so scrapes can correlate runs.
    registry.register_process_metrics();
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("fluentps-introspection".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    let _ = handle_connection(
                        stream,
                        &registry,
                        source.as_ref(),
                        health.as_ref(),
                        engine.as_ref(),
                        prof.as_ref(),
                    );
                }
            }
        })?;
    Ok(IntrospectionServer {
        addr: local,
        stop,
        handle: Some(handle),
    })
}

impl IntrospectionServer {
    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shut the endpoint down and join the accept thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in `incoming()`; poke it awake.
        if let Ok(stream) = TcpStream::connect(self.addr) {
            drop(stream);
        }
        let _ = handle.join();
    }
}

impl Drop for IntrospectionServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(
    mut stream: TcpStream,
    registry: &MetricsRegistry,
    source: Option<&TraceSource>,
    health: Option<&HealthView>,
    engine: Option<&HealthEngine>,
    prof: Option<&ProfCollector>,
) -> std::io::Result<()> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let Some(head) = read_request_head(&mut stream)? else {
        return bad_request(&mut stream, "bad request\n");
    };
    let Some((method, target)) = parse_request_line(&head) else {
        return bad_request(&mut stream, "bad request\n");
    };
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed\n");
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/healthz" => match health {
            Some(view) => {
                let (ready, body) = view.render();
                respond(
                    &mut stream,
                    if ready { 200 } else { 503 },
                    "text/plain",
                    &body,
                )
            }
            None => respond(&mut stream, 200, "text/plain", "ok\n"),
        },
        "/metrics" => {
            registry.inc("introspection_scrapes_total", 1);
            if let Some(src) = source {
                refresh_trace_metrics(registry, src.totals());
                if let Some(stats) = src.node_stats() {
                    refresh_collect_metrics(registry, &stats);
                }
            }
            if let Some(eng) = engine {
                eng.export_metrics(registry);
            }
            let body = registry.render_prometheus();
            respond(&mut stream, 200, "text/plain; version=0.0.4", &body)
        }
        "/slo" => match engine {
            Some(eng) => respond(&mut stream, 200, "text/plain", &eng.slo_text()),
            None => respond(&mut stream, 404, "text/plain", "no health engine\n"),
        },
        "/alerts" => match engine {
            Some(eng) => respond(
                &mut stream,
                200,
                "application/x-ndjson",
                &eng.alerts_jsonl(),
            ),
            None => respond(&mut stream, 404, "text/plain", "no health engine\n"),
        },
        "/profile" => match prof {
            Some(col) => {
                let report = col.snapshot();
                match query_param(query, "format").unwrap_or("folded") {
                    "folded" => {
                        let Ok(metric) = parse_param(query, "metric", ProfMetric::parse) else {
                            return bad_request(
                                &mut stream,
                                "bad metric: expect time, allocs or bytes\n",
                            );
                        };
                        let metric = metric.unwrap_or(ProfMetric::SelfTime);
                        respond(&mut stream, 200, "text/plain", &report.folded(metric))
                    }
                    "speedscope" => respond(
                        &mut stream,
                        200,
                        "application/json",
                        &report.speedscope("fluentps profile"),
                    ),
                    _ => bad_request(&mut stream, "bad format: expect folded or speedscope\n"),
                }
            }
            None => respond(&mut stream, 404, "text/plain", "no profiler\n"),
        },
        "/trace" => match source {
            Some(src) => {
                let Ok(last) = parse_param(query, "last", |v| v.parse().ok()) else {
                    return bad_request(&mut stream, "bad last: expect a count of events\n");
                };
                let Ok(actor) = parse_param(query, "actor", parse_actor) else {
                    return bad_request(
                        &mut stream,
                        "bad actor: expect workerN, serverN, shardN or an id\n",
                    );
                };
                let Ok(kind) = parse_param(query, "kind", |v| {
                    EventKind::ALL.iter().copied().find(|k| k.name() == v)
                }) else {
                    return bad_request(
                        &mut stream,
                        "bad kind: expect a snake_case event kind name\n",
                    );
                };
                let Ok(request) = parse_param(query, "request", |v| v.parse::<u64>().ok()) else {
                    return bad_request(&mut stream, "bad request id: expect a decimal u64\n");
                };
                let last = last.unwrap_or(DEFAULT_TAIL);
                let mut trace = src.snapshot();
                if let Some(filter) = actor {
                    trace.events.retain(|ev| filter.matches(ev));
                }
                if let Some(k) = kind {
                    trace.events.retain(|ev| ev.kind == k);
                }
                if let Some(id) = request {
                    trace.events.retain(|ev| ev.request_id == id);
                }
                if trace.events.len() > last {
                    trace.events.drain(..trace.events.len() - last);
                }
                let body = export::jsonl(&trace);
                respond(&mut stream, 200, "application/x-ndjson", &body)
            }
            None => respond(&mut stream, 404, "text/plain", "no trace collector\n"),
        },
        "/waterfall" => match source {
            Some(src) => {
                let Ok(top) = parse_param(query, "top", |v| {
                    v.parse::<f64>().ok().filter(|f| (0.0..=1.0).contains(f))
                }) else {
                    return bad_request(&mut stream, "bad top: expect a fraction in [0, 1]\n");
                };
                let Ok(request) = parse_param(query, "request", |v| v.parse::<u64>().ok()) else {
                    return bad_request(&mut stream, "bad request id: expect a decimal u64\n");
                };
                let Ok(slowest) = parse_param(query, "slowest", |v| v.parse().ok()) else {
                    return bad_request(&mut stream, "bad slowest: expect a count of requests\n");
                };
                let (top, slowest) = (top.unwrap_or(1.0), slowest.unwrap_or(DEFAULT_SLOWEST));
                let set = waterfall::assemble(&src.snapshot());
                let sampled = waterfall::tail_sample(&set, top);
                // Scrapes pay the exemplar refresh, not the hot path.
                waterfall::export_metrics(registry, &sampled.retained);
                let selected: Vec<&crate::waterfall::Waterfall> = match request {
                    Some(id) => match sampled.retained.iter().find(|w| w.request_id == id) {
                        Some(w) => vec![w],
                        None => {
                            return respond(
                                &mut stream,
                                404,
                                "text/plain",
                                "request not retained\n",
                            )
                        }
                    },
                    None => {
                        let mut refs: Vec<&crate::waterfall::Waterfall> =
                            sampled.retained.iter().collect();
                        refs.sort_by(|a, b| {
                            b.total_secs()
                                .total_cmp(&a.total_secs())
                                .then(a.request_id.cmp(&b.request_id))
                        });
                        refs.truncate(slowest);
                        refs
                    }
                };
                let mut body = format!(
                    "{{\"observed\":{},\"retained\":{},\"sampled_out\":{},\
                     \"unstamped_events\":{},\"balanced\":{}}}\n",
                    sampled.observed,
                    sampled.retained.len(),
                    sampled.sampled_out,
                    set.unstamped_events,
                    sampled.balance().is_ok()
                );
                for w in selected {
                    body.push_str(&w.json());
                    body.push('\n');
                }
                respond(&mut stream, 200, "application/x-ndjson", &body)
            }
            None => respond(&mut stream, 404, "text/plain", "no trace collector\n"),
        },
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

/// `/trace?actor=...` filter: `workerN` matches events recorded for worker
/// `N`, `serverN`/`shardN` those for shard `N`, a bare integer either side.
#[derive(Debug, Clone, Copy)]
enum ActorFilter {
    Worker(u32),
    Shard(u32),
    Either(u32),
}

impl ActorFilter {
    fn matches(self, ev: &crate::event::TraceEvent) -> bool {
        match self {
            ActorFilter::Worker(n) => ev.worker == n,
            ActorFilter::Shard(m) => ev.shard == m,
            ActorFilter::Either(id) => ev.worker == id || ev.shard == id,
        }
    }
}

fn parse_actor(raw: &str) -> Option<ActorFilter> {
    if let Some(n) = raw.strip_prefix("worker") {
        return n.parse().ok().map(ActorFilter::Worker);
    }
    if let Some(m) = raw
        .strip_prefix("server")
        .or_else(|| raw.strip_prefix("shard"))
    {
        return m.parse().ok().map(ActorFilter::Shard);
    }
    raw.parse().ok().map(ActorFilter::Either)
}

/// Per-node collection counters for the cluster source: how many events
/// each node's streamer shipped vs. lost, its estimated clock offset, HLC
/// bump count and incarnation count (a replaced server restarts its
/// stream).
fn refresh_collect_metrics(registry: &MetricsRegistry, stats: &[NodeStats]) {
    for s in stats {
        let scope = registry.scope().with("node", &s.node);
        scope.set_gauge("trace_collect_received", s.received as f64);
        scope.set_gauge("trace_collect_emitted", s.emitted as f64);
        scope.set_gauge("trace_collect_dropped", s.dropped as f64);
        scope.set_gauge("trace_collect_batches", s.batches as f64);
        scope.set_gauge("trace_collect_offset_seconds", s.offset_secs);
        scope.set_gauge("trace_collect_hlc_bumps", s.hlc_bumps as f64);
        scope.set_gauge("trace_collect_incarnations", s.incarnations as f64);
    }
    registry.set_gauge("trace_collect_nodes", stats.len() as f64);
}

/// Mirror the collector's per-kind totals and drop count into the registry
/// so `/metrics` reports trace liveness without touching the hot path.
fn refresh_trace_metrics(registry: &MetricsRegistry, (counts, dropped): ([u64; KINDS], u64)) {
    for kind in EventKind::ALL {
        registry
            .scope()
            .with("kind", kind.name())
            .set_gauge("trace_events_recorded", counts[kind.index()] as f64);
    }
    registry.set_gauge("trace_events_dropped", dropped as f64);
}

/// Read until the end of the request head (`\r\n\r\n`) or the size cap.
/// Returns `None` when the peer sends no parseable head.
fn read_request_head(stream: &mut TcpStream) -> std::io::Result<Option<String>> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(_) => break,
        };
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }
    if buf.is_empty() {
        return Ok(None);
    }
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

/// `"GET /metrics HTTP/1.1\r\n..."` → `("GET", "/metrics")`.
fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    Some((method, target))
}

/// First value of `key` in an `a=1&b=2` query string.
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// `key`'s value in `query` through `parse`: `Ok(None)` when the key is
/// absent, `Err(())` when its value does not parse.
fn parse_param<T>(
    query: &str,
    key: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, ()> {
    query_param(query, key)
        .map(|raw| parse(raw).ok_or(()))
        .transpose()
}

/// Answer 400 with a one-line `reason`.
fn bad_request(stream: &mut TcpStream, reason: &str) -> std::io::Result<()> {
    respond(stream, 400, "text/plain", reason)
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind(endpoints: Endpoints) -> IntrospectionServer {
        serve("127.0.0.1:0".parse().expect("addr"), endpoints).expect("bind")
    }
    use crate::event::EventKind;
    use crate::tracer::RecordArgs;

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .expect("status")
            .parse()
            .expect("numeric status");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_healthz_metrics_and_trace() {
        let registry = MetricsRegistry::new();
        registry.inc("pulls{shard=0}", 7);
        let collector = TraceCollector::wall(64);
        let tracer = collector.tracer();
        tracer.record(
            EventKind::PushApplied,
            RecordArgs::new().shard(0).worker(1).progress(3).v_train(2),
        );
        let server = bind(Endpoints {
            registry: registry.clone(),
            trace: Some(TraceSource::Local(collector)),
            ..Endpoints::default()
        });
        let addr = server.local_addr();

        let (status, body) = get(addr, "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE pulls counter"));
        assert!(body.contains("pulls{shard=\"0\"} 7"));
        assert!(body.contains("trace_events_recorded{kind=\"push_applied\"} 1"));
        assert_eq!(registry.counter_value("introspection_scrapes_total"), 1);

        let (status, body) = get(addr, "/trace?last=1");
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 1);
        assert!(body.contains("\"kind\":\"push_applied\""));

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);
        server.stop();
    }

    #[test]
    fn healthz_reflects_the_attached_health_view() {
        use crate::health::NodeHealth;
        let health = HealthView::new();
        let server = bind(Endpoints {
            health: Some(health.clone()),
            ..Endpoints::default()
        });
        let addr = server.local_addr();

        // All alive: ready.
        health.update(vec![NodeHealth {
            name: "server0".into(),
            last_seen_age_ms: 3,
            dead: false,
        }]);
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(body.starts_with("ready\n"));
        assert!(body.contains("node server0 age_ms 3 alive"));

        // One dead: degraded, 503.
        health.update(vec![
            NodeHealth {
                name: "server0".into(),
                last_seen_age_ms: 4,
                dead: false,
            },
            NodeHealth {
                name: "server1".into(),
                last_seen_age_ms: 9000,
                dead: true,
            },
        ]);
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 503);
        assert!(body.starts_with("degraded\n"));
        assert!(body.contains("dead_nodes 1"));
        server.stop();
    }

    #[test]
    fn trace_route_filters_by_actor() {
        let collector = TraceCollector::wall(64);
        let tracer = collector.tracer();
        tracer.record(EventKind::PushApplied, RecordArgs::new().shard(0).worker(1));
        tracer.record(EventKind::PushApplied, RecordArgs::new().shard(0).worker(2));
        tracer.record(EventKind::VTrainAdvanced, RecordArgs::new().shard(3));
        let server = bind(Endpoints {
            trace: Some(TraceSource::Local(collector)),
            ..Endpoints::default()
        });
        let addr = server.local_addr();

        let (status, body) = get(addr, "/trace?actor=worker1");
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 1);
        assert!(body.contains("\"worker\":1"));

        let (status, body) = get(addr, "/trace?actor=shard0");
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 2);

        // Bare id matches either side; composes with last=N.
        let (status, body) = get(addr, "/trace?actor=0&last=1");
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 1);

        let (status, _) = get(addr, "/trace?actor=bogus");
        assert_eq!(status, 400);
        server.stop();
    }

    #[test]
    fn trace_route_filters_by_kind_and_composes() {
        let collector = TraceCollector::wall(64);
        let tracer = collector.tracer();
        tracer.record(EventKind::PushApplied, RecordArgs::new().shard(0).worker(1));
        tracer.record(
            EventKind::PullRequested,
            RecordArgs::new().shard(0).worker(1),
        );
        tracer.record(
            EventKind::PullRequested,
            RecordArgs::new().shard(0).worker(2),
        );
        let server = bind(Endpoints {
            trace: Some(TraceSource::Local(collector)),
            ..Endpoints::default()
        });
        let addr = server.local_addr();

        let (status, body) = get(addr, "/trace?kind=pull_requested");
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 2);
        assert!(body
            .lines()
            .all(|l| l.contains("\"kind\":\"pull_requested\"")));

        // kind= composes with actor= and last=.
        let (status, body) = get(addr, "/trace?kind=pull_requested&actor=worker1");
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 1);
        assert!(body.contains("\"worker\":1"));

        let (status, body) = get(addr, "/trace?kind=pull_requested&last=1");
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 1);
        assert!(body.contains("\"worker\":2"), "tail keeps the newest");

        let (status, _) = get(addr, "/trace?kind=no_such_kind");
        assert_eq!(status, 400);
        server.stop();
    }

    /// A collector with two stamped wire round-trips (requests 5 and 6,
    /// worker 0 and 1) plus one unstamped event.
    fn stamped_collector() -> TraceCollector {
        let collector = TraceCollector::wall(64);
        let tracer = collector.tracer();
        for (rid, worker) in [(5u64, 0u32), (6, 1)] {
            tracer.record(
                EventKind::WireSend,
                RecordArgs::new()
                    .shard(0)
                    .worker(worker)
                    .bytes(58)
                    .request_id(rid),
            );
            tracer.record(
                EventKind::WireRecv,
                RecordArgs::new()
                    .shard(0)
                    .worker(worker)
                    .bytes(58)
                    .request_id(rid),
            );
        }
        tracer.record(EventKind::VTrainAdvanced, RecordArgs::new().shard(0));
        collector
    }

    #[test]
    fn trace_route_filters_by_request_and_composes() {
        let server = bind(Endpoints {
            trace: Some(TraceSource::Local(stamped_collector())),
            ..Endpoints::default()
        });
        let addr = server.local_addr();

        let (status, body) = get(addr, "/trace?request=5");
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 2);
        assert!(body.lines().all(|l| l.contains("\"request_id\":5")));

        // request= composes with kind=, actor= and last=.
        let (status, body) = get(addr, "/trace?request=5&kind=wire_send");
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 1);
        assert!(body.contains("\"kind\":\"wire_send\""));
        let (status, body) = get(addr, "/trace?request=6&actor=worker1&last=1");
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 1);
        assert!(body.contains("\"kind\":\"wire_recv\""), "tail keeps newest");
        let (status, body) = get(addr, "/trace?request=6&actor=worker0");
        assert_eq!(
            (status, body.lines().count()),
            (200, 0),
            "empty intersection"
        );

        let (status, _) = get(addr, "/trace?request=notanumber");
        assert_eq!(status, 400);
        let (status, body) = get(addr, "/trace?last=abc");
        assert_eq!(
            (status, body.as_str()),
            (400, "bad last: expect a count of events\n")
        );
        server.stop();
    }

    #[test]
    fn waterfall_route_serves_ndjson_with_balance_header() {
        let registry = MetricsRegistry::new();
        let server = bind(Endpoints {
            registry: registry.clone(),
            trace: Some(TraceSource::Local(stamped_collector())),
            ..Endpoints::default()
        });
        let addr = server.local_addr();

        let (status, body) = get(addr, "/waterfall?slowest=3");
        assert_eq!(status, 200);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 3, "balance header + two waterfalls");
        for line in &lines {
            crate::json::validate(line).expect("every line is valid JSON");
        }
        assert!(lines[0].contains("\"observed\":2"));
        assert!(lines[0].contains("\"balanced\":true"));
        assert!(lines[0].contains("\"unstamped_events\":1"));
        assert!(lines[1].contains("\"stages\":["));

        // request= narrows to one waterfall; unknown ids are 404.
        let (status, body) = get(addr, "/waterfall?request=5");
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 2);
        assert!(body.lines().nth(1).unwrap().contains("\"request_id\":5"));
        assert_eq!(get(addr, "/waterfall?request=999").0, 404);
        assert_eq!(get(addr, "/waterfall?request=bogus").0, 400);
        assert_eq!(get(addr, "/waterfall?top=1.5").0, 400);
        assert_eq!(get(addr, "/waterfall?slowest=abc").0, 400);
        assert_eq!(get(addr, "/waterfall?slowest=-1").0, 400);

        // The scrape refreshed exemplar-bearing histograms into /metrics.
        let (_, metrics) = get(addr, "/metrics");
        assert!(
            metrics.contains("waterfall_wire_us_max") && metrics.contains("request_id="),
            "{metrics}"
        );
        server.stop();
    }

    #[test]
    fn waterfall_route_without_collector_is_404() {
        let server = bind(Endpoints::default());
        assert_eq!(get(server.local_addr(), "/waterfall").0, 404);
        server.stop();
    }

    #[test]
    fn slo_and_alerts_routes_serve_the_health_engine() {
        use crate::stream::{HealthEngine, StreamConfig};
        let engine = HealthEngine::with_default_rules(StreamConfig::all_run());
        engine.observe(&crate::event::TraceEvent {
            ts: 1.0,
            kind: EventKind::NodeDeclaredDead,
            shard: 0,
            worker: crate::event::NO_ID,
            progress: 5,
            ..Default::default()
        });
        let registry = MetricsRegistry::new();
        let server = bind(Endpoints {
            registry: registry.clone(),
            engine: Some(engine),
            ..Endpoints::default()
        });
        let addr = server.local_addr();

        let (status, body) = get(addr, "/slo");
        assert_eq!(status, 200);
        assert!(body.contains("slo events 1\n"), "{body}");
        assert!(body.contains("alert dead_nodes firing\n"), "{body}");

        let (status, body) = get(addr, "/alerts");
        assert_eq!(status, 200);
        assert!(body.contains("\"rule\":\"dead_nodes\""));
        assert!(body.contains("\"transition\":\"firing\""));

        // The scrape refreshes the engine's gauges into /metrics.
        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(
            body.contains("alert_active{rule=\"dead_nodes\"} 1"),
            "{body}"
        );
        server.stop();
    }

    #[test]
    fn slo_and_alerts_without_engine_are_404() {
        let server = bind(Endpoints::default());
        let addr = server.local_addr();
        assert_eq!(get(addr, "/slo").0, 404);
        assert_eq!(get(addr, "/alerts").0, 404);
        server.stop();
    }

    #[test]
    fn cluster_source_serves_merged_trace_and_collection_metrics() {
        let mut cluster = ClusterCollector::new(1024);
        let ev = |ts: f64, worker: u32| crate::event::TraceEvent {
            ts,
            kind: EventKind::PushApplied,
            shard: 0,
            worker,
            ..Default::default()
        };
        cluster.ingest("worker0", 0.0, 1, 1, 0, &[ev(1.0, 0)]);
        cluster.ingest("worker1", 0.5, 1, 2, 1, &[ev(2.0, 1)]);
        let server = bind(Endpoints {
            trace: Some(TraceSource::Cluster(Arc::new(Mutex::new(cluster)))),
            ..Endpoints::default()
        });
        let addr = server.local_addr();

        let (status, body) = get(addr, "/trace");
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 2);

        let (status, body) = get(addr, "/trace?actor=worker1");
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 1);

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("trace_collect_nodes 2"));
        assert!(body.contains("trace_collect_received{node=\"worker0\"} 1"));
        assert!(body.contains("trace_collect_dropped{node=\"worker1\"} 1"));
        assert!(body.contains("trace_collect_offset_seconds{node=\"worker1\"} 0.5"));
        // The trace totals come from the collector's counters, not a merge.
        assert!(body.contains("trace_events_recorded{kind=\"push_applied\"} 2"));
        assert!(body.contains("trace_events_dropped 1"));
        server.stop();
    }

    #[test]
    fn profile_route_serves_folded_and_speedscope() {
        use crate::prof::ProfCollector;
        let col = ProfCollector::wall();
        let prof = col.profiler();
        {
            let _outer = prof.enter("server/handle");
            let _inner = prof.enter("wire/encode");
        }
        let server = bind(Endpoints {
            prof: Some(col),
            ..Endpoints::default()
        });
        let addr = server.local_addr();

        let (status, body) = get(addr, "/profile");
        assert_eq!(status, 200);
        assert!(body.contains("server/handle;wire/encode "), "{body}");
        for line in body.lines() {
            let (_, v) = line.rsplit_once(' ').expect("`path value` line");
            v.parse::<u64>().expect("integer value");
        }

        let (status, folded_allocs) = get(addr, "/profile?format=folded&metric=allocs");
        assert_eq!(status, 200);
        assert!(folded_allocs.contains("server/handle "));

        let (status, ss) = get(addr, "/profile?format=speedscope");
        assert_eq!(status, 200);
        crate::json::validate(&ss).expect("speedscope body is valid JSON");
        assert!(ss.contains("\"$schema\""));

        assert_eq!(get(addr, "/profile?format=bogus").0, 400);
        assert_eq!(get(addr, "/profile?metric=bogus").0, 400);

        // The profiled bind also seeded process metadata.
        let (_, metrics) = get(addr, "/metrics");
        assert!(metrics.contains("process_start_seconds"), "{metrics}");
        assert!(
            metrics.contains("fluentps_build_info{version="),
            "{metrics}"
        );
        server.stop();
    }

    #[test]
    fn profile_route_without_collector_is_404() {
        let server = bind(Endpoints::default());
        let (status, _) = get(server.local_addr(), "/profile");
        assert_eq!(status, 404);
        server.stop();
    }

    #[test]
    fn trace_route_without_collector_is_404() {
        let server = bind(Endpoints::default());
        let (status, _) = get(server.local_addr(), "/trace");
        assert_eq!(status, 404);
    }

    #[test]
    fn stop_joins_and_frees_the_port() {
        let server = bind(Endpoints::default());
        let addr = server.local_addr();
        server.stop();
        // The listener is gone: a fresh bind to the same port succeeds.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "port still held after stop");
    }
}
