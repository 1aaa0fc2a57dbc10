//! Observability invariants: tracing must be a pure observer (a traced run
//! is bit-for-bit the run it observes), fixed seeds must reproduce traces,
//! and the Chrome trace-event exporter's output is pinned by a golden file.
//!
//! Regenerate the golden fixture after an intentional exporter change with
//! `FLUENTPS_BLESS=1 cargo test --test observability`.

use std::sync::Arc;

use fluentps::core::condition::SyncModel;
use fluentps::core::dpr::DprPolicy;
use fluentps::experiments::driver::{run, DriverConfig, EngineKind, ModelKind};
use fluentps::experiments::report::trace_reconciles;
use fluentps::ml::data::SyntheticSpec;
use fluentps::obs::{
    export, json, ClockSource, EventKind, RecordArgs, TraceCollector, VirtualClock,
};

fn traced_cfg() -> DriverConfig {
    DriverConfig {
        engine: EngineKind::FluentPs {
            model: SyncModel::Ssp { s: 2 },
            policy: DprPolicy::LazyExecution,
        },
        num_workers: 3,
        num_servers: 2,
        max_iters: 30,
        model: ModelKind::Softmax,
        dataset: Some(SyntheticSpec {
            dim: 12,
            classes: 3,
            n_train: 300,
            n_test: 60,
            margin: 2.5,
            modes: 1,
            label_noise: 0.05,
            seed: 11,
        }),
        eval_every: 10,
        trace_events: Some(1 << 14),
        seed: 11,
        ..DriverConfig::default()
    }
}

/// Bit-exact digest of the final parameters (sorted keys, f32 bits).
fn param_fingerprint(params: &fluentps::ml::ParamMap) -> String {
    let mut keys: Vec<u64> = params.keys().copied().collect();
    keys.sort_unstable();
    let mut out = String::new();
    for k in keys {
        out.push_str(&format!("{k}:"));
        for v in &params[&k] {
            out.push_str(&format!("{:08x}", v.to_bits()));
        }
        out.push('\n');
    }
    out
}

#[test]
fn tracing_enabled_runs_are_deterministic() {
    let cfg = traced_cfg();
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(
        param_fingerprint(a.final_params.as_ref().unwrap()),
        param_fingerprint(b.final_params.as_ref().unwrap()),
        "fixed seed must reproduce final parameters under tracing"
    );
    assert_eq!(a.stats, b.stats);
    let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
    assert_eq!(ta.total(), tb.total(), "event count must be stable");
    assert_eq!(ta.counts, tb.counts);
    assert_eq!(ta.events.len(), tb.events.len());
}

#[test]
fn tracing_is_a_pure_observer() {
    let traced = run(&traced_cfg());
    let plain = run(&DriverConfig {
        trace_events: None,
        ..traced_cfg()
    });
    assert_eq!(
        param_fingerprint(traced.final_params.as_ref().unwrap()),
        param_fingerprint(plain.final_params.as_ref().unwrap()),
        "attaching a collector must not change training"
    );
    assert_eq!(traced.total_time, plain.total_time);
    assert_eq!(traced.stats, plain.stats);
    trace_reconciles(traced.trace.as_ref().unwrap(), &traced.stats)
        .expect("trace reconciles with shard stats");
}

/// Deterministic fixture: a virtual clock driven by hand, so the exporter's
/// output is byte-stable across machines and runs.
fn fixture_chrome_trace() -> String {
    let clock = VirtualClock::new();
    let collector = TraceCollector::new(ClockSource::virtual_clock(Arc::clone(&clock)), 64);
    let tracer = collector.tracer();
    let at = |shard: u32, worker: u32, progress: u64, v_train: u64| {
        RecordArgs::new()
            .shard(shard)
            .worker(worker)
            .progress(progress)
            .v_train(v_train)
    };
    clock.set(0.001);
    tracer.record(EventKind::PullRequested, at(0, 0, 0, 0).bytes(42));
    clock.set(0.002);
    tracer.record(EventKind::PullDeferred, at(0, 1, 1, 0).bytes(42));
    clock.set(0.003);
    tracer.record(EventKind::PushApplied, at(1, 0, 0, 0).bytes(1024));
    clock.set(0.004);
    tracer.record(
        EventKind::VTrainAdvanced,
        RecordArgs::new().shard(0).v_train(1),
    );
    clock.set(0.005);
    tracer.record(EventKind::DprReleased, at(0, 1, 1, 1).bytes(128));
    let start = tracer.now();
    clock.set(0.007);
    tracer.record_span(
        EventKind::BarrierWait,
        start,
        RecordArgs::new().worker(1).progress(1).v_train(1),
    );
    clock.set(0.008);
    tracer.record(EventKind::WireSend, at(1, 0, 1, 0).bytes(256));
    tracer.record(EventKind::LatePushDropped, at(1, 2, 0, 3).bytes(64));
    export::chrome_trace(&collector.snapshot())
}

#[test]
fn chrome_trace_export_matches_golden_file() {
    let got = fixture_chrome_trace();
    json::validate(&got).expect("exporter emits valid JSON");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/chrome_trace_fixture.json"
    );
    if std::env::var("FLUENTPS_BLESS").is_ok() {
        std::fs::write(path, &got).expect("bless golden file");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file missing — run with FLUENTPS_BLESS=1 to create it");
    assert_eq!(
        got, want,
        "Chrome-trace exporter output changed; if intentional, re-bless with FLUENTPS_BLESS=1"
    );
}

/// Deterministic *cluster* fixture: four nodes' streams (2 workers, 2
/// servers), each on its own clock epoch, hand-ingested into a
/// [`ClusterCollector`] with fixed offsets — exactly what the collector
/// service computes from its ping/pong handshakes, minus the sockets. The
/// export pins the whole merged pipeline: offset alignment, HLC tie-healing
/// and the `(ts, node, seq)` merge order.
fn fixture_cluster_chrome_trace() -> String {
    use fluentps::obs::{ClusterCollector, TraceEvent};

    let ev = |ts: f64, kind: EventKind, shard: u32, worker: u32, seq: u64| TraceEvent {
        ts,
        dur: 0.0,
        kind,
        shard,
        worker,
        progress: seq,
        v_train: 0,
        bytes: 64,
        seq,
        ..Default::default()
    };
    let mut cluster = ClusterCollector::new(64);
    // worker0 runs 2.0s behind the collector clock, worker1 0.5s ahead,
    // server0 is aligned, server1 1.0s behind. Each stream's local
    // timestamps are chosen so the *aligned* events interleave across
    // nodes: worker0's send at local 0.010 lands at 2.010, between
    // server0's recv (2.005) and reply (2.015).
    cluster.ingest(
        "worker0",
        2.0,
        1,
        3,
        0,
        &[
            ev(0.010, EventKind::WireSend, 0, 0, 0),
            ev(0.030, EventKind::WireRecv, 0, 0, 1),
            ev(0.030, EventKind::BarrierWait, 0, 0, 2), // tie → HLC bump
        ],
    );
    cluster.ingest(
        "worker1",
        -0.5,
        1,
        2,
        0,
        &[
            ev(2.512, EventKind::WireSend, 1, 1, 0),
            ev(2.535, EventKind::WireRecv, 1, 1, 1),
        ],
    );
    cluster.ingest(
        "server0",
        0.0,
        1,
        4,
        1, // of 4 recorded, one was lost to a ring overwrite at the sender
        &[
            ev(2.005, EventKind::WireRecv, 0, 0, 1),
            ev(2.014, EventKind::PushApplied, 0, 0, 2),
            ev(2.015, EventKind::WireSend, 0, 0, 3),
        ],
    );
    // server1 restarts mid-run (a replacement after a kill): batch_seq
    // resets and its counters start over — the second incarnation's
    // accounting folds into the same stream.
    cluster.ingest(
        "server1",
        1.0,
        1,
        1,
        0,
        &[ev(1.013, EventKind::WireRecv, 1, 1, 0)],
    );
    cluster.ingest(
        "server1",
        1.0,
        1,
        2,
        0,
        &[
            ev(1.020, EventKind::VTrainAdvanced, 1, 1, 0),
            ev(1.025, EventKind::WireSend, 1, 1, 1),
        ],
    );
    cluster
        .check_balance()
        .expect("fixture accounting balances");
    export::chrome_trace(&cluster.snapshot())
}

#[test]
fn cluster_chrome_trace_export_matches_golden_file() {
    let got = fixture_cluster_chrome_trace();
    json::validate(&got).expect("exporter emits valid JSON");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/chrome_trace_cluster_fixture.json"
    );
    if std::env::var("FLUENTPS_BLESS").is_ok() {
        std::fs::write(path, &got).expect("bless golden file");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file missing — run with FLUENTPS_BLESS=1 to create it");
    assert_eq!(
        got, want,
        "merged-cluster trace export changed; if intentional, re-bless with FLUENTPS_BLESS=1"
    );
}
