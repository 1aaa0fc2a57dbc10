//! Live introspection endpoint, end to end: launch the threaded engine with
//! tracing and a metrics registry, train from worker threads, and scrape
//! `/healthz`, `/metrics` and `/trace` over real TCP *while the run is in
//! flight*. Validates the Prometheus text exposition shape: every
//! non-comment line is `name value` with a float value, and no full metric
//! name (base + labels) appears twice.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::TcpStream;

use std::time::{Duration, Instant};

use fluentps::core::condition::SyncModel;
use fluentps::core::engine::{Cluster, EngineConfig};
use fluentps::core::eps::{EpsSlicer, ParamSpec, Slicer};
use fluentps::core::launch::Observability;
use fluentps::core::recovery::{RecoveryConfig, ResilientTcpCluster};
use fluentps::core::worker::RetryPolicy;
use fluentps::ml::Deltas;
use fluentps::obs::http::Endpoints;
use fluentps::obs::{HealthEngine, MetricsRegistry, StreamConfig, TraceCollector};

/// Minimal HTTP/1.1 GET over a fresh connection; returns (status line, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to introspection endpoint");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("response has a header block");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

/// Like [`http_get`] but also returns the raw header block, for tests that
/// assert on response headers (e.g. `Content-Type`).
fn http_get_with_headers(addr: std::net::SocketAddr, path: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to introspection endpoint");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("response has a header block");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, head.to_string(), body.to_string())
}

#[test]
fn threaded_engine_serves_metrics_and_healthz_while_training() {
    let num_workers = 2u32;
    let iters = 30u64;
    let params = vec![
        ParamSpec { key: 0, len: 512 },
        ParamSpec { key: 1, len: 128 },
    ];
    let map = EpsSlicer { max_chunk: 256 }.slice(&params, 1);
    let mut init = HashMap::new();
    init.insert(0u64, vec![0.0f32; 512]);
    init.insert(1u64, vec![0.0f32; 128]);

    let cfg = EngineConfig {
        num_workers,
        num_servers: 1,
        model: SyncModel::Ssp { s: 2 },
        ..EngineConfig::default()
    };
    let collector = TraceCollector::wall(1 << 14);
    let obs = Observability {
        collector: Some(collector.clone()),
        health: Some(HealthEngine::with_default_rules(StreamConfig::default())),
        metrics: Some(MetricsRegistry::new()),
        http: Some("127.0.0.1:0".parse().unwrap()),
        ..Observability::default()
    };
    let (cluster, workers) = Cluster::launch_observed(cfg, &cfg.models(), map, &init, obs)
        .expect("bind introspection endpoint");
    let addr = cluster.http_addr().expect("endpoint requested");

    let handles: Vec<_> = workers
        .into_iter()
        .map(|mut w| {
            std::thread::spawn(move || {
                let grads: HashMap<u64, Vec<f32>> =
                    [(0u64, vec![1.0f32; 512]), (1u64, vec![1.0f32; 128])].into();
                for i in 0..iters {
                    w.spush(i, &Deltas::from_params(&grads)).unwrap();
                    let mut out = HashMap::new();
                    w.spull_wait(i, &mut out).unwrap();
                }
            })
        })
        .collect();

    // Scrape mid-run: the endpoint must answer while workers are training.
    let (status, body) = http_get(addr, "/healthz");
    assert!(status.contains("200"), "healthz status: {status}");
    assert_eq!(body, "ok\n");

    let (status, text) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "metrics status: {status}");
    let mut seen = HashSet::new();
    let mut samples = 0;
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# TYPE ") || line.starts_with("# HELP "),
                "unexpected comment line: {line}"
            );
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line is not `name value`: {line}"));
        value
            .parse::<f64>()
            .unwrap_or_else(|e| panic!("value {value:?} on {line:?} is not a float: {e}"));
        assert!(seen.insert(name.to_string()), "duplicate metric: {name}");
        samples += 1;
    }
    assert!(samples > 0, "no samples in exposition:\n{text}");
    assert!(
        text.contains("cluster_workers{engine=\"threaded\"} 2"),
        "missing cluster gauge in:\n{text}"
    );
    assert!(text.contains("# TYPE trace_events_recorded gauge"));
    assert!(text.contains("introspection_scrapes_total"));
    // Every served registry carries process-level metrics and HELP text.
    assert!(
        text.contains("# HELP process_start_seconds "),
        "missing HELP for process_start_seconds in:\n{text}"
    );
    assert!(text.contains("process_start_seconds "));
    assert!(
        text.contains("fluentps_build_info{"),
        "missing build info gauge in:\n{text}"
    );

    // A trace tail needs a trace: the worker threads were only just
    // spawned, and on a busy machine neither may have recorded anything yet.
    let spawned = Instant::now();
    while collector.totals().0.iter().sum::<u64>() == 0 {
        assert!(
            spawned.elapsed() < Duration::from_secs(10),
            "no worker recorded an event"
        );
        std::thread::yield_now();
    }
    let (status, head, tail) = http_get_with_headers(addr, "/trace?last=8");
    assert!(status.contains("200"), "trace status: {status}");
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: application/x-ndjson"),
        "trace content type in headers:\n{head}"
    );
    let lines: Vec<&str> = tail.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!lines.is_empty() && lines.len() <= 8, "tail: {tail}");
    for line in &lines {
        fluentps::obs::json::validate(line).expect("trace tail line is valid JSON");
    }

    for h in handles {
        h.join().expect("worker thread");
    }
    // A second scrape after the run reflects the finished trace.
    let (_, text) = http_get(addr, "/metrics");
    assert!(text.contains("trace_events_recorded"));

    // `/trace?kind=` keeps only one event kind, and composes with the
    // `actor=` and `last=` filters (kind first, then actor, then the tail).
    let (status, body) = http_get(addr, "/trace?kind=pull_requested");
    assert!(status.contains("200"), "kind filter status: {status}");
    let lines: Vec<&str> = body.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(
        lines.len(),
        (num_workers as u64 * iters) as usize,
        "every pull and nothing else:\n{body}"
    );
    for line in &lines {
        assert!(
            line.contains("\"kind\":\"pull_requested\""),
            "filtered line: {line}"
        );
        fluentps::obs::json::validate(line).expect("filtered line is valid JSON");
    }
    let (status, body) = http_get(addr, "/trace?kind=pull_requested&actor=worker1&last=4");
    assert!(status.contains("200"), "composed filter status: {status}");
    let lines: Vec<&str> = body.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 4, "tail caps the composed filter:\n{body}");
    for line in &lines {
        assert!(line.contains("\"kind\":\"pull_requested\""), "line: {line}");
        assert!(line.contains("\"worker\":1"), "line: {line}");
    }
    let (status, body) = http_get(addr, "/trace?kind=no_such_kind");
    assert!(status.contains("400"), "unknown kind: {status}\n{body}");

    // `/trace?request=` narrows to one causal request id and composes with
    // the other filters. The exporter always emits a `request_id` key, so a
    // served line tells us which id to ask for (0 = unstamped events).
    let (status, body) = http_get(addr, "/trace?kind=pull_requested&last=1");
    assert!(status.contains("200"), "seed line status: {status}");
    let seed_line = body
        .lines()
        .find(|l| !l.trim().is_empty())
        .expect("a pull event was served");
    let rid = seed_line
        .split("\"request_id\":")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or_else(|| panic!("line carries a request_id: {seed_line}"));
    let (status, body) = http_get(
        addr,
        &format!("/trace?request={rid}&kind=pull_requested&last=4"),
    );
    assert!(status.contains("200"), "request filter status: {status}");
    let lines: Vec<&str> = body.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(
        !lines.is_empty() && lines.len() <= 4,
        "request filter tail:\n{body}"
    );
    for line in &lines {
        assert!(
            line.contains(&format!("\"request_id\":{rid},")),
            "line kept the wrong request: {line}"
        );
        assert!(line.contains("\"kind\":\"pull_requested\""), "line: {line}");
        fluentps::obs::json::validate(line).expect("request-filtered line is valid JSON");
    }
    let (status, body) = http_get(addr, "/trace?request=notanumber");
    assert!(status.contains("400"), "bad request id: {status}\n{body}");

    // `/waterfall` assembles causal waterfalls from the same collector and
    // serves NDJSON: a balance line first, then one object per waterfall.
    let (status, head, body) = http_get_with_headers(addr, "/waterfall?slowest=3");
    assert!(status.contains("200"), "waterfall status: {status}");
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: application/x-ndjson"),
        "waterfall content type in headers:\n{head}"
    );
    let lines: Vec<&str> = body.lines().filter(|l| !l.trim().is_empty()).collect();
    let balance = lines.first().expect("waterfall body has a balance line");
    for key in [
        "\"observed\":",
        "\"retained\":",
        "\"sampled_out\":",
        "\"balanced\":",
    ] {
        assert!(
            balance.contains(key),
            "balance line misses {key}: {balance}"
        );
    }
    assert!(
        balance.contains("\"balanced\":true"),
        "retained + sampled_out == observed: {balance}"
    );
    assert!(lines.len() <= 1 + 3, "slowest=3 caps the body:\n{body}");
    for line in &lines {
        fluentps::obs::json::validate(line).expect("waterfall line is valid JSON");
    }
    let (status, body) = http_get(addr, "/waterfall?top=1.5");
    assert!(status.contains("400"), "bad top fraction: {status}\n{body}");
    // 123456789 is below any worker's id range ((worker+1) << 40 | counter),
    // so it is never retained regardless of whether this engine stamps ids.
    let (status, body) = http_get(addr, "/waterfall?request=123456789");
    assert!(status.contains("404"), "unknown request: {status}\n{body}");

    // The launch taps the collector into the health engine: `/slo` serves
    // windowed SLO text and `/alerts` the transition log.
    let (status, slo) = http_get(addr, "/slo");
    assert!(status.contains("200"), "slo status: {status}");
    assert!(slo.contains("slo events "), "slo body:\n{slo}");
    assert!(slo.contains("alert dead_nodes ok"), "slo body:\n{slo}");
    let (status, head, alerts) = http_get_with_headers(addr, "/alerts");
    assert!(status.contains("200"), "alerts status: {status}");
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: application/x-ndjson"),
        "alerts content type in headers:\n{head}"
    );
    assert!(alerts.contains("\"state\""), "alerts body:\n{alerts}");

    let stats = cluster.shutdown();
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].pulls_total, num_workers as u64 * iters);
}

/// Poll `/healthz` until `pred(status, body)` holds or the deadline passes;
/// returns the final response either way.
fn poll_healthz(
    addr: std::net::SocketAddr,
    deadline: Duration,
    pred: impl Fn(&str, &str) -> bool,
) -> (String, String) {
    let start = Instant::now();
    loop {
        let (status, body) = http_get(addr, "/healthz");
        if pred(&status, &body) || start.elapsed() > deadline {
            return (status, body);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn resilient_engine_healthz_reflects_the_liveness_monitor() {
    // The fault-tolerant TCP engine feeds its supervisor's liveness view
    // into `/healthz`: ready (200) with per-server heartbeat ages while the
    // cluster is whole, degraded (503) once a server is declared dead and
    // not replaced.
    let params = vec![ParamSpec { key: 0, len: 8 }, ParamSpec { key: 1, len: 8 }];
    let map = EpsSlicer { max_chunk: 8 }.slice(&params, 2);
    let mut init = HashMap::new();
    init.insert(0u64, vec![0.0f32; 8]);
    init.insert(1u64, vec![0.0f32; 8]);
    let cfg = EngineConfig {
        num_workers: 1,
        num_servers: 2,
        ..EngineConfig::default()
    };
    let rcfg = RecoveryConfig {
        heartbeat_every: Duration::from_millis(10),
        liveness_timeout: Duration::from_millis(60),
        checkpoint_every: 1,
        kill_server: Some((0, 2)),
        spawn_replacement: false, // degrade, so /healthz flips to 503
        retry: RetryPolicy {
            timeout: Duration::from_millis(50),
            max_retries: 80,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(40),
            jitter_seed: 7,
        },
        ..RecoveryConfig::default()
    };
    let (cluster, mut workers) =
        ResilientTcpCluster::launch(cfg, rcfg, map, &init, None).expect("launch");
    let server = fluentps::obs::http::serve(
        "127.0.0.1:0".parse().unwrap(),
        Endpoints {
            health: Some(cluster.health()),
            ..Endpoints::default()
        },
    )
    .expect("bind introspection endpoint");
    let addr = server.local_addr();

    // Whole cluster: ready, with a heartbeat-age line per server.
    let (status, body) = poll_healthz(addr, Duration::from_secs(5), |s, b| {
        s.contains("200") && b.contains("node server0") && b.contains("node server1")
    });
    assert!(
        status.contains("200"),
        "pre-failure healthz: {status}\n{body}"
    );
    assert!(body.starts_with("ready\n"), "pre-failure body: {body}");

    // Train through the kill; retries and degraded-mode rerouting absorb it.
    let mut w = workers.remove(0);
    let grads: HashMap<u64, Vec<f32>> = [(0u64, vec![1.0f32; 8]), (1u64, vec![1.0f32; 8])].into();
    let mut out = HashMap::new();
    for i in 0..6u64 {
        w.spush(i, &Deltas::from_params(&grads)).expect("push");
        w.spull_wait(i, &mut out)
            .expect("pull survives degradation");
    }

    // Server 0 is dead for good: the readiness probe reports degraded.
    let (status, body) = poll_healthz(addr, Duration::from_secs(5), |s, _| s.contains("503"));
    assert!(
        status.contains("503"),
        "post-failure healthz: {status}\n{body}"
    );
    assert!(body.starts_with("degraded\n"), "post-failure body: {body}");
    assert!(body.contains("dead_nodes 1"), "post-failure body: {body}");

    server.stop();
    let stats = cluster.shutdown();
    assert!(
        stats[1].pushes >= 6,
        "survivor carried the tail of training"
    );
}

#[test]
fn resilient_engine_exports_consensus_gauges_and_healthz_consensus_line() {
    // A replicated control plane publishes its standing two ways: the
    // `consensus_*` gauges in the Prometheus exposition (with HELP text)
    // and a `consensus term … leader …` line in the `/healthz` body.
    let params = vec![ParamSpec { key: 0, len: 8 }];
    let map = EpsSlicer { max_chunk: 8 }.slice(&params, 2);
    let mut init = HashMap::new();
    init.insert(0u64, vec![0.0f32; 8]);
    let cfg = EngineConfig {
        num_workers: 1,
        num_servers: 2,
        ..EngineConfig::default()
    };
    let registry = MetricsRegistry::new();
    let rcfg = RecoveryConfig {
        heartbeat_every: Duration::from_millis(10),
        liveness_timeout: Duration::from_millis(200),
        num_supervisors: 3,
        election_timeout: Duration::from_millis(120),
        leader_lease: Duration::from_millis(60),
        ..RecoveryConfig::default()
    };
    let obs = Observability {
        metrics: Some(registry.clone()),
        ..Observability::default()
    };
    let (cluster, mut workers) =
        ResilientTcpCluster::launch_observed(cfg, rcfg, map, &init, obs).expect("launch");
    let server = fluentps::obs::http::serve(
        "127.0.0.1:0".parse().unwrap(),
        Endpoints {
            registry,
            health: Some(cluster.health()),
            ..Endpoints::default()
        },
    )
    .expect("bind introspection endpoint");
    let addr = server.local_addr();

    // Train a little so the leader has commits to account for.
    let mut w = workers.remove(0);
    let grads: HashMap<u64, Vec<f32>> = [(0u64, vec![1.0f32; 8])].into();
    let mut out = HashMap::new();
    for i in 0..4u64 {
        w.spush(i, &Deltas::from_params(&grads)).expect("push");
        w.spull_wait(i, &mut out).expect("pull");
    }

    // The quorum elects a leader and publishes it into both surfaces.
    let (status, body) = poll_healthz(addr, Duration::from_secs(10), |s, b| {
        s.contains("200") && b.contains("leader supervisor")
    });
    assert!(status.contains("200"), "healthz: {status}\n{body}");
    assert!(
        body.contains("consensus term") && body.contains("replicas 3"),
        "healthz consensus line: {body}"
    );

    let deadline = Instant::now() + Duration::from_secs(10);
    let text = loop {
        let (status, text) = http_get(addr, "/metrics");
        assert!(status.contains("200"), "metrics status: {status}");
        if text.contains("consensus_is_leader 1") || Instant::now() > deadline {
            break text;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    for gauge in [
        "consensus_term",
        "consensus_is_leader",
        "consensus_commits_total",
    ] {
        assert!(
            text.contains(&format!("# HELP {gauge} ")),
            "missing HELP for {gauge} in:\n{text}"
        );
    }
    assert!(
        text.contains("consensus_is_leader 1"),
        "quorum never elected in:\n{text}"
    );
    let term = text
        .lines()
        .find_map(|l| l.strip_prefix("consensus_term "))
        .expect("consensus_term sample")
        .parse::<f64>()
        .expect("term is a float");
    assert!(term >= 1.0, "term {term} before any election");

    server.stop();
    let stats = cluster.shutdown();
    let pushes: u64 = stats.iter().map(|s| s.pushes).sum();
    assert!(pushes >= 4, "training pushed through the quorum run");
}
