//! Observability overhead benchmarks.
//!
//! The contract from DESIGN.md is that tracing is *free when disabled*: the
//! disabled-record benchmarks measure exactly that hot path, next to the
//! enabled-path cost and the end-to-end threaded-engine overhead of running
//! a cluster with a collector attached vs without one (`scripts/bench.sh`
//! collects both into `BENCH_obs.json`).
//!
//! Two entries are not about observability: `ml/loss_and_grad_b128` and
//! `ml/loss_and_grad_b8`, a worker's gradient computation at two ledger
//! shapes, ride along so the GEMM kernels have gated numbers.

use std::collections::HashMap;

use fluentps_util::bench::{Criterion, Throughput};
use fluentps_util::{criterion_group, criterion_main};

use fluentps_core::condition::SyncModel;
use fluentps_core::engine::{Cluster, EngineConfig};
use fluentps_core::eps::{EpsSlicer, ParamSpec, Slicer};
use fluentps_core::launch::Observability;
use fluentps_ml::Deltas;
use fluentps_obs::{
    analyze, export, EventKind, MetricsRegistry, RecordArgs, TraceCollector, Tracer,
};

/// Disabled tracer: one branch, no clock read, no allocation.
fn tracer_disabled(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracer");
    g.throughput(Throughput::Elements(1));
    let tracer = Tracer::disabled();
    g.bench_function("disabled_record", |b| {
        b.iter(|| {
            tracer.record(
                EventKind::PushApplied,
                RecordArgs::new().shard(0).worker(1).progress(2).v_train(3),
            )
        })
    });
    g.finish();
}

/// Enabled tracer: clock read + ring-buffer push under a (thread-local,
/// uncontended) mutex.
fn tracer_enabled(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracer");
    g.throughput(Throughput::Elements(1));
    let collector = TraceCollector::wall(4096);
    let tracer = collector.tracer();
    g.bench_function("enabled_record", |b| {
        b.iter(|| {
            tracer.record(
                EventKind::PushApplied,
                RecordArgs::new().shard(0).worker(1).progress(2).v_train(3),
            )
        })
    });
    g.bench_function("enabled_record_span", |b| {
        b.iter(|| {
            let start = tracer.now();
            tracer.record_span(
                EventKind::BarrierWait,
                start,
                RecordArgs::new().shard(0).progress(2).v_train(3),
            )
        })
    });
    g.finish();
}

/// Metrics registry: labeled counter increment and histogram observation.
fn metrics(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics");
    g.throughput(Throughput::Elements(1));
    let registry = MetricsRegistry::new();
    let scope = registry.scope().with("shard", "3");
    g.bench_function("counter_inc", |b| b.iter(|| scope.inc("pulls", 1)));
    g.bench_function("histogram_observe", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(7) % 1000;
            scope.observe("dpr_wait", v)
        })
    });
    g.finish();
}

/// Chrome-trace export of a populated collector.
fn export_chrome(c: &mut Criterion) {
    let collector = TraceCollector::wall(8192);
    let tracer = collector.tracer();
    for i in 0..4096u64 {
        tracer.record(
            EventKind::PushApplied,
            RecordArgs::new()
                .shard((i % 4) as u32)
                .worker((i % 8) as u32)
                .progress(i)
                .v_train(i)
                .bytes(64),
        );
    }
    c.bench_function("export/chrome_4k_events", |b| {
        b.iter(|| export::chrome_trace(&collector.snapshot()))
    });
}

/// One complete threaded-engine run: 2 servers, 2 workers, 5 iterations.
fn run_threaded_cluster(collector: Option<&TraceCollector>) -> u64 {
    let specs = vec![
        ParamSpec { key: 0, len: 256 },
        ParamSpec { key: 1, len: 128 },
    ];
    let mut init = HashMap::new();
    init.insert(0u64, vec![0.0f32; 256]);
    init.insert(1u64, vec![0.0f32; 128]);
    let map = EpsSlicer { max_chunk: 64 }.slice(&specs, 2);
    let cfg = EngineConfig {
        num_workers: 2,
        num_servers: 2,
        model: SyncModel::Ssp { s: 1 },
        ..EngineConfig::default()
    };
    let obs = Observability {
        collector: collector.cloned(),
        ..Observability::default()
    };
    let (cluster, mut workers) =
        Cluster::launch_observed(cfg, &cfg.models(), map, &init, obs).unwrap();
    let mut grads = HashMap::new();
    grads.insert(0u64, vec![1e-3f32; 256]);
    grads.insert(1u64, vec![1e-3f32; 128]);
    let handles: Vec<_> = workers
        .drain(..)
        .map(|mut w| {
            let grads = grads.clone();
            std::thread::spawn(move || {
                let mut params = HashMap::new();
                for i in 0..5u64 {
                    w.spush(i, &Deltas::from_params(&grads)).unwrap();
                    w.spull_wait(i, &mut params).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = cluster.shutdown();
    stats.iter().map(|s| s.pulls_total).sum()
}

/// The headline comparison: the same threaded-engine workload with tracing
/// off vs on. The delta between these two entries in `BENCH_obs.json` is the
/// end-to-end tracing overhead.
fn engine_tracing_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.bench_function("threaded_tracing_off", |b| {
        b.iter(|| run_threaded_cluster(None))
    });
    g.bench_function("threaded_tracing_on", |b| {
        b.iter(|| {
            let collector = TraceCollector::wall(65536);
            let pulls = run_threaded_cluster(Some(&collector));
            (pulls, collector.snapshot().total())
        })
    });
    g.finish();
}

/// One complete TCP-engine run: 2 servers, 2 workers, 5 iterations, with or
/// without cluster-wide trace streaming to a collector service.
fn run_tcp_cluster(collect: Option<std::net::SocketAddr>) -> u64 {
    use fluentps_core::tcp_engine::TcpCluster;

    let specs = vec![
        ParamSpec { key: 0, len: 256 },
        ParamSpec { key: 1, len: 128 },
    ];
    let mut init = HashMap::new();
    init.insert(0u64, vec![0.0f32; 256]);
    init.insert(1u64, vec![0.0f32; 128]);
    let map = EpsSlicer { max_chunk: 64 }.slice(&specs, 2);
    let cfg = EngineConfig {
        num_workers: 2,
        num_servers: 2,
        model: SyncModel::Ssp { s: 1 },
        ..EngineConfig::default()
    };
    let obs = Observability {
        stream_to: collect,
        ring_capacity: 1 << 12,
        ..Observability::default()
    };
    let (cluster, mut workers) =
        TcpCluster::launch_observed(cfg, &cfg.models(), map, &init, obs).unwrap();
    let mut grads = HashMap::new();
    grads.insert(0u64, vec![1e-3f32; 256]);
    grads.insert(1u64, vec![1e-3f32; 128]);
    let handles: Vec<_> = workers
        .drain(..)
        .map(|mut w| {
            let grads = grads.clone();
            std::thread::spawn(move || {
                let mut params = HashMap::new();
                for i in 0..5u64 {
                    w.spush(i, &Deltas::from_params(&grads)).unwrap();
                    w.spull_wait(i, &mut params).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = cluster.shutdown();
    stats.iter().map(|s| s.pulls_total).sum()
}

/// The streaming-path pair: the same TCP workload bare vs. with every node
/// shipping its trace rings to a collector service over loopback. The
/// delta is the full cost of cluster-wide collection — per-node collectors,
/// the clock handshake, batching and the collector-side merge — as seen by
/// the training loop.
fn collect_streaming_overhead(c: &mut Criterion) {
    use fluentps_transport::CollectorService;

    let mut g = c.benchmark_group("collect");
    g.sample_size(10);
    g.bench_function("tcp_streaming_off", |b| b.iter(|| run_tcp_cluster(None)));
    g.bench_function("tcp_streaming_on", |b| {
        b.iter(|| {
            let mut service =
                CollectorService::bind("127.0.0.1:0".parse().unwrap(), 1 << 14).unwrap();
            let pulls = run_tcp_cluster(Some(service.local_addr()));
            let merged = service.snapshot().events.len();
            service.stop();
            (pulls, merged)
        })
    });
    g.finish();
}

/// The wire path: frames coalesced into one reused buffer on encode, each
/// read into a buffer of its own that the decoded message shares — the
/// per-frame cost the TCP transport and trace streamers pay at steady state
/// (one exact allocation per frame read, none per frame written).
fn wire_throughput(c: &mut Criterion) {
    use fluentps_transport::frame::{encode_frame_into, FrameReader};
    use fluentps_transport::{KvPairs, Message, NodeId};
    use fluentps_util::buf::BytesMut;

    const FRAMES: u64 = 64;
    let mut g = c.benchmark_group("wire");
    g.throughput(Throughput::Elements(FRAMES));

    // A gradient push of 64 f32s: the shape of the dominant hot-path frame.
    let push = Message::SPush {
        worker: 1,
        progress: 7,
        kv: KvPairs::single(3, vec![0.125f32; 64]),
    };
    g.bench_function("frames_per_s", |b| {
        let mut buf = BytesMut::new();
        let mut reader = FrameReader::new();
        b.iter(|| {
            buf.clear();
            for _ in 0..FRAMES {
                encode_frame_into(NodeId::Worker(1), &push, &mut buf);
            }
            let mut cursor = std::io::Cursor::new(buf.as_ref());
            for _ in 0..FRAMES {
                reader.read_from(&mut cursor).unwrap();
            }
            buf.len()
        })
    });

    // A pull round trip: the SPull request plus its PullResponse, encoded
    // and decoded as one element — FRAMES request/response pairs per iter.
    let pull = Message::SPull {
        worker: 0,
        progress: 3,
        keys: (0..16).collect(),
    };
    let resp = Message::PullResponse {
        server: 0,
        progress: 3,
        version: 9,
        kv: KvPairs::single(0, vec![1.0f32; 96]),
    };
    g.bench_function("pulls_per_s", |b| {
        let mut buf = BytesMut::new();
        let mut reader = FrameReader::new();
        b.iter(|| {
            buf.clear();
            for _ in 0..FRAMES {
                encode_frame_into(NodeId::Worker(0), &pull, &mut buf);
                encode_frame_into(NodeId::Server(0), &resp, &mut buf);
            }
            let mut cursor = std::io::Cursor::new(buf.as_ref());
            for _ in 0..FRAMES * 2 {
                reader.read_from(&mut cursor).unwrap();
            }
            buf.len()
        })
    });

    // The causal-context envelope's wire cost: the same gradient push
    // encoded and decoded bare vs. wrapped in a `Traced` frame. The pair
    // bounds what end-to-end request tracing adds to the hot path — the
    // envelope is 14 bytes plus one codec tag against a ~300-byte frame.
    let traced = push
        .clone()
        .with_ctx(fluentps_transport::CausalCtx::new((2u64 << 40) | 7).retry(1));
    for (name, msg) in [("ctx_overhead_off", &push), ("ctx_overhead_on", &traced)] {
        g.bench_function(name, |b| {
            let mut buf = BytesMut::new();
            let mut reader = FrameReader::new();
            b.iter(|| {
                buf.clear();
                for _ in 0..FRAMES {
                    encode_frame_into(NodeId::Worker(1), msg, &mut buf);
                }
                let mut cursor = std::io::Cursor::new(buf.as_ref());
                for _ in 0..FRAMES {
                    reader.read_from(&mut cursor).unwrap();
                }
                buf.len()
            })
        });
    }

    // Tensor-sized payloads: one SPush of 262 144 f32 (1 MiB of values) in
    // 64 keys, the shape a comm-bound training iteration moves per server.
    // The 64-f32 frames above cannot see a per-element cost in the codec;
    // at this size it is the whole measurement.
    const BULK_KEYS: u64 = 64;
    const BULK_VALS_PER_KEY: usize = 4096;
    let chunk = vec![0.125f32; BULK_VALS_PER_KEY];
    let entries: Vec<(u64, &[f32])> = (0..BULK_KEYS).map(|k| (k, &chunk[..])).collect();
    let bulk = Message::SPush {
        worker: 1,
        progress: 7,
        kv: KvPairs::from_slices(&entries),
    };
    let mut encoded = BytesMut::new();
    fluentps_transport::codec::encode_into(&bulk, &mut encoded);
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("bulk_encode_1mib", |b| {
        let mut buf = BytesMut::new();
        b.iter(|| {
            buf.clear();
            fluentps_transport::codec::encode_into(&bulk, &mut buf);
            buf.len()
        })
    });
    // The live read path hands the codec the frame it just read: decoding
    // slices the payload out of it, and cloning the decoded message (replay
    // buffer, reply cache, fault-injected duplicate) shares it again.
    let frame = encoded.freeze();
    g.bench_function("bulk_decode_1mib", |b| {
        b.iter(|| fluentps_transport::codec::decode(frame.clone()).unwrap())
    });
    g.bench_function("bulk_clone_1mib", |b| b.iter(|| bulk.clone()));
    g.finish();
}

/// The wire path end to end, sockets included: one worker client against
/// one served TCP node, one iteration per element — `sPush` staged, then
/// `[SPush, SPull]` out in one write and `[PushAck, PullResponse]` back in
/// one, 35 KB of values each way. What it costs beyond `wire/pulls_per_s`
/// plus the memcpys is thread hand-offs and syscalls, so their count has a
/// trajectory here: two hand-offs per round trip (worker → the server's
/// reader → worker) since the worker reads its own replies, three before.
/// On the reference VM it read 25–35 µs with three, or 130–190 µs for
/// minutes at a time when the hypervisor parks idle vCPUs between wake-ups
/// (every hand-off-bound bench moves with it, on any commit), and in that
/// state 75–105 µs with two against 110–140 µs from alternating binaries;
/// the committed mean is a slow-state reading, so that the gate trips on
/// an added hop-per-message or a poll loop, not on the box's mood.
fn tcp_serve_roundtrip(c: &mut Criterion) {
    use fluentps_core::tcp_engine::TcpCluster;

    const VALS: usize = 8750; // 35 KB of f32
    let specs = vec![ParamSpec { key: 0, len: VALS }];
    let init: HashMap<u64, Vec<f32>> = [(0, vec![0.0; VALS])].into();
    let map = EpsSlicer { max_chunk: 4096 }.slice(&specs, 1);
    let cfg = EngineConfig {
        num_workers: 1,
        num_servers: 1,
        model: SyncModel::Asp,
        ..EngineConfig::default()
    };
    let (cluster, mut workers) = TcpCluster::launch(cfg, map, &init).unwrap();
    let mut worker = workers.remove(0);
    let grads: HashMap<u64, Vec<f32>> = [(0, vec![1e-3; VALS])].into();
    let mut params = HashMap::new();
    let mut progress = 0u64;

    let mut g = c.benchmark_group("wire");
    g.throughput(Throughput::Elements(1));
    g.bench_function("tcp_serve_roundtrip", |b| {
        b.iter(|| {
            worker
                .spush(progress, &Deltas::from_params(&grads))
                .unwrap();
            let report = worker.spull_wait(progress, &mut params).unwrap();
            progress += 1;
            report.max_version
        })
    });
    g.finish();
    cluster.shutdown();
}

/// Analyzer throughput: a realistic mixed event stream (pull/defer/release
/// chains, pushes, V_train advances, wire pairs, barrier spans) through the
/// full `analyze::analyze` pass — an all-run replay of the trace fold plus
/// the two whole-trace walks — reported as events/sec.
fn analyze_throughput(c: &mut Criterion) {
    const EVENTS_PER_ITER: u64 = 9;
    const ITERS: u64 = 1024;
    let collector = TraceCollector::wall((ITERS * EVENTS_PER_ITER) as usize * 2);
    let tracer = collector.tracer();
    for i in 0..ITERS {
        let shard = (i % 4) as u32;
        let worker = (i % 8) as u32;
        let at = RecordArgs::new()
            .shard(shard)
            .worker(worker)
            .progress(i)
            .v_train(i.saturating_sub(1));
        tracer.record(EventKind::WireSend, at.bytes(64));
        tracer.record(EventKind::WireRecv, at.bytes(64));
        tracer.record(EventKind::PullRequested, at.bytes(58));
        tracer.record(EventKind::PullDeferred, at);
        tracer.record(EventKind::PushApplied, at.bytes(128));
        tracer.record(
            EventKind::VTrainAdvanced,
            RecordArgs::new().shard(shard).v_train(i),
        );
        tracer.record(EventKind::DprReleased, at.v_train(i));
        let start = tracer.now();
        tracer.record_span(
            EventKind::BarrierWait,
            start,
            RecordArgs::new().worker(worker).progress(i),
        );
        tracer.record(EventKind::LatePushDropped, at.bytes(32));
    }
    let trace = collector.snapshot();
    let n = trace.events.len() as u64;
    let mut g = c.benchmark_group("analyze");
    g.throughput(Throughput::Elements(n));
    g.bench_function("mixed_9k_events", |b| b.iter(|| analyze::analyze(&trace)));
    g.finish();
}

/// Streaming analyzer: the same mixed event shape as `analyze_throughput`,
/// pushed one event at a time through `StreamAnalyzer` with small tumbling
/// windows (so window closes, histogram-ring rotation and the matchers'
/// age-out are on the measured path), reported as events/sec.
fn stream_window(c: &mut Criterion) {
    use fluentps_obs::{StreamAnalyzer, StreamConfig, TraceEvent, NO_ID};

    const ITERS: u64 = 1024;
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut ts = 0.0f64;
    let ev = |ts: f64, kind: EventKind, shard: u32, worker: u32, i: u64| TraceEvent {
        ts,
        dur: 0.0,
        kind,
        shard,
        worker,
        progress: i,
        v_train: i.saturating_sub(1),
        bytes: 64,
        seq: 0,
        ..Default::default()
    };
    for i in 0..ITERS {
        let shard = (i % 4) as u32;
        let worker = (i % 8) as u32;
        ts += 0.002; // ~20 events per 0.04s window
        events.push(ev(ts, EventKind::WireSend, shard, worker, i));
        events.push(ev(ts + 1e-4, EventKind::WireRecv, shard, worker, i));
        events.push(ev(ts + 2e-4, EventKind::PullRequested, shard, worker, i));
        events.push(ev(ts + 3e-4, EventKind::PullDeferred, shard, worker, i));
        events.push(ev(ts + 4e-4, EventKind::PushApplied, shard, worker, i));
        events.push(ev(ts + 5e-4, EventKind::VTrainAdvanced, shard, NO_ID, i));
        events.push(ev(ts + 6e-4, EventKind::DprReleased, shard, worker, i));
    }
    let n = events.len() as u64;
    let mut g = c.benchmark_group("stream");
    g.throughput(Throughput::Elements(n));
    g.bench_function("window_record", |b| {
        b.iter(|| {
            let mut s = StreamAnalyzer::new(StreamConfig {
                window_secs: 0.04,
                windows: 8,
            });
            for ev in &events {
                s.advance_to(ev.ts);
                s.ingest(ev);
            }
            (s.total(), s.windows_closed())
        })
    });
    g.finish();
}

/// One worker's gradient computation at the shapes of two ledger workloads:
/// `inproc_bsp_compute` (an `Mlp` `[64, 256, 128, 10]` on a batch of 128)
/// and `tcp_bsp_wire` (`[64, 1024, 256, 10]` on a batch of 8, where the
/// backward `dY·Wᵀ` reads a 1 MB weight matrix for 8 rows). This is the
/// compute phase that the paper's compute/sync split (Fig. 6) is measured
/// against, and the GEMM kernels' end-to-end cost.
fn ml_loss_and_grad(c: &mut Criterion) {
    use fluentps_ml::data::{synthetic, BatchSampler, SyntheticSpec};
    use fluentps_ml::{Mlp, Model};

    let (train, _) = synthetic(SyntheticSpec {
        dim: 64,
        classes: 10,
        n_train: 1024,
        n_test: 16,
        margin: 5.0,
        modes: 1,
        label_noise: 0.02,
        seed: 1,
    });
    let mut g = c.benchmark_group("ml");
    g.sample_size(20);
    for (batch_size, hidden) in [(128, [256, 128]), (8, [1024, 256])] {
        let model = Mlp {
            dims: vec![64, hidden[0], hidden[1], 10],
        };
        let params = model.init_params(1);
        let batch = train.batch(&BatchSampler::new(0..train.len(), batch_size, 1).next_indices());
        g.bench_function(format!("loss_and_grad_b{batch_size}"), |b| {
            b.iter(|| model.loss_and_grad(&params, &batch))
        });
    }
    g.finish();
}

criterion_group!(
    obs,
    tracer_disabled,
    tracer_enabled,
    metrics,
    export_chrome,
    engine_tracing_overhead,
    collect_streaming_overhead,
    wire_throughput,
    tcp_serve_roundtrip,
    analyze_throughput,
    stream_window,
    ml_loss_and_grad
);
criterion_main!(obs);
