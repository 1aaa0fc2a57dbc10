//! One Algorithm-1 step, four ways to reach it.
//!
//! A scripted exchange — pushes, an immediate pull, a deferred pull released
//! by a later push, `Traced`-wrapped requests, `Shutdown` with pulls still
//! parked — is fed to [`ShardServer::handle`] directly, and to a live
//! in-process, TCP and (fault-free) resilient cluster launched with the same
//! seed. Every engine must answer each message with the same replies to the
//! same workers in the same order (message and echoed context), record the
//! same server-side trace events, and end with the same [`ShardStats`] — but
//! for one number: a resilient server's `PushAck` says what its latest
//! stored checkpoint holds, not which push it applied.

use std::collections::HashMap;
use std::time::Duration;

use fluentps_core::condition::SyncModel;
use fluentps_core::engine::{Cluster, EngineConfig};
use fluentps_core::eps::{EpsSlicer, ParamSpec, SliceMap, Slicer};
use fluentps_core::launch::{self, Observability};
use fluentps_core::recovery::{RecoveryConfig, ResilientTcpCluster};
use fluentps_core::serve::Flow;
use fluentps_core::stats::ShardStats;
use fluentps_core::tcp_engine::TcpCluster;
use fluentps_obs::{EventKind, TraceCollector, TraceEvent};
use fluentps_transport::tcp::{AddressBook, TcpNode};
use fluentps_transport::{CausalCtx, KvPairs, Mailbox, Message, Network, NodeId, Postman};

const WORKERS: u32 = 2;
/// Sender identity of the script; servers answer `msg.worker`, not the
/// sender, and one sender means one FIFO stream into the server.
const DRIVER: NodeId = NodeId::Worker(99);

type Init = HashMap<u64, Vec<f32>>;

fn setup(model: SyncModel) -> (EngineConfig, SliceMap, Init) {
    let specs = [ParamSpec { key: 0, len: 6 }, ParamSpec { key: 1, len: 3 }];
    let map = EpsSlicer { max_chunk: 4 }.slice(&specs, 1);
    let init = [(0u64, vec![0.5f32; 6]), (1u64, vec![-1.0f32; 3])].into();
    let cfg = EngineConfig {
        num_workers: WORKERS,
        num_servers: 1,
        model,
        seed: 11,
        ..EngineConfig::default()
    };
    (cfg, map, init)
}

/// The exchange, over server 0's wire keys.
fn script(map: &SliceMap) -> Vec<Message> {
    let keys: Vec<u64> = map.placements().iter().map(|p| p.new_key).collect();
    let push = |worker: u32, progress: u64| {
        let grad = (worker + 1) as f32 * 0.25;
        let slices: Vec<(u64, Vec<f32>)> = map
            .placements()
            .iter()
            .map(|p| (p.new_key, vec![grad; p.len]))
            .collect();
        let entries: Vec<(u64, &[f32])> = slices.iter().map(|(k, v)| (*k, &v[..])).collect();
        Message::SPush {
            worker,
            progress,
            kv: KvPairs::from_slices(&entries),
        }
    };
    let pull = |worker: u32, progress: u64, keys: &[u64]| Message::SPull {
        worker,
        progress,
        keys: keys.to_vec(),
    };
    let ctx = |id: u64| CausalCtx::new(id);
    vec![
        push(0, 0),
        // BSP parks this one until worker 1 has pushed round 0.
        pull(0, 0, &keys).with_ctx(ctx(100)),
        push(1, 0).with_ctx(ctx(101)),
        pull(1, 0, &keys[..1]),
        // Worker 0 runs ahead of the staleness bound; its pull waits for
        // worker 1 to catch up, three pushes later.
        push(0, 1),
        push(0, 2),
        push(0, 3),
        pull(0, 3, &keys).with_ctx(ctx(102).retry(1)),
        push(1, 1),
        push(1, 2).with_ctx(ctx(103)),
        push(1, 3),
        // Far ahead of anything pushed: still parked at shutdown (unless a
        // PSSP draw lets one through — the reference decides).
        pull(1, 9, &keys).with_ctx(ctx(104)),
        pull(0, 8, &keys[1..]),
        Message::Shutdown,
    ]
}

/// What a leg produced, compared across legs.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Per step, the replies it caused, in send order.
    replies: Vec<Vec<(NodeId, Message)>>,
    stats: ShardStats,
    /// The server's step events in record order, clock fields zeroed.
    events: Vec<TraceEvent>,
}

fn step_events(collector: &TraceCollector) -> Vec<TraceEvent> {
    use EventKind::*;
    let trace = collector.snapshot();
    assert_eq!(trace.dropped, 0, "ring too small for the script");
    let kinds = [
        WireRecv,
        WireSend,
        PushApplied,
        LatePushDropped,
        VTrainAdvanced,
        DprReleased,
        PullRequested,
        PullDeferred,
    ];
    let timeless = |e: &TraceEvent| TraceEvent {
        ts: 0.0,
        dur: 0.0,
        seq: 0,
        ..*e
    };
    let steps = trace.events.iter().filter(|e| kinds.contains(&e.kind));
    steps.map(timeless).collect()
}

/// The reference: the step itself, no thread, no transport.
fn run_direct(model: SyncModel) -> Outcome {
    let (cfg, map, init) = setup(model);
    let collector = TraceCollector::wall(1 << 12);
    let tracer = collector.tracer();
    let (mut server, _) = launch::shard_server(&cfg, model, 0, (&map, &init), tracer);
    let mut replies = Vec::new();
    for msg in script(&map) {
        let last = matches!(msg, Message::Shutdown);
        let mut out = Vec::new();
        assert_eq!(server.handle(msg, &mut out) == Flow::Stop, last);
        replies.push(out);
    }
    Outcome {
        replies,
        stats: server.into_stats(),
        events: step_events(&collector),
    }
}

/// A live cluster as the script sees it: one sender, one inbox per worker.
struct Leg {
    send: Box<dyn Fn(Message)>,
    inboxes: Vec<Box<dyn Mailbox>>,
    shutdown: Box<dyn FnOnce() -> Vec<ShardStats>>,
}

/// Send the script one message at a time and collect, per step, the replies
/// `direct` says it causes: how many and to whom comes from the reference,
/// the messages are what the cluster really sent.
fn run_live(direct: &Outcome, leg: Leg, map: &SliceMap, collector: &TraceCollector) -> Outcome {
    let mut replies = Vec::new();
    for (msg, want) in script(map).into_iter().zip(&direct.replies) {
        (leg.send)(msg);
        let recv = |to: &NodeId| {
            let NodeId::Worker(w) = *to else {
                panic!("reply to {to:?}")
            };
            let reply = leg.inboxes[w as usize]
                .recv_timeout(Duration::from_secs(10))
                .expect("worker inbox open");
            let (_, reply) = reply.unwrap_or_else(|| panic!("worker {w} misses one of {want:?}"));
            (*to, reply)
        };
        replies.push(want.iter().map(|(to, _)| recv(to)).collect());
    }
    let stats = (leg.shutdown)();
    for (w, inbox) in leg.inboxes.iter().enumerate() {
        let extra = inbox.try_recv().ok().flatten();
        assert!(extra.is_none(), "extra reply to worker {w}: {extra:?}");
    }
    assert_eq!(stats.len(), 1);
    Outcome {
        replies,
        stats: stats.into_iter().next().expect("one server"),
        events: step_events(collector),
    }
}

/// `live`, the resilient leg's outcome, with each `PushAck` as the step
/// sends it. A fault-tolerant server acks a push with how many of that
/// worker's pushes its latest stored checkpoint holds — every one below the
/// ack's progress (DESIGN.md §10) — where the step acks the push itself. The
/// script pushes in order, so that checkpoint holds nothing of the push
/// being acked: the progress is at most the push's, and it never falls.
fn acked_like_the_step(direct: &Outcome, mut live: Outcome) -> Outcome {
    let mut held = [0; WORKERS as usize];
    let step = direct.replies.iter().flatten();
    for ((to, got), (_, want)) in live.replies.iter_mut().flatten().zip(step) {
        let (Message::PushAck { progress: n, .. }, Message::PushAck { server, progress }) =
            (got.bare(), want.bare())
        else {
            continue;
        };
        let NodeId::Worker(w) = *to else {
            panic!("an ack to {to:?}")
        };
        let w = w as usize;
        assert!(
            held[w] <= *n && n <= progress,
            "{got:?} after {}, for {want:?}",
            held[w]
        );
        held[w] = *n;
        let ack = Message::PushAck {
            server: *server,
            progress: *progress,
        };
        *got = match got.ctx() {
            Some(ctx) => ack.with_ctx(ctx),
            None => ack,
        };
    }
    live
}

fn inproc_leg(cfg: EngineConfig, map: SliceMap, init: &Init, obs: Observability) -> Leg {
    let (cluster, _) = Cluster::launch_observed(cfg, &cfg.models(), map, init, obs).unwrap();
    // Registering a worker again replaces the launched client's inbox.
    let inboxes = (0..WORKERS)
        .map(|w| Box::new(cluster.fabric().register(NodeId::Worker(w))) as Box<dyn Mailbox>)
        .collect();
    let driver = cluster.fabric().register(DRIVER).postman();
    Leg {
        send: Box::new(move |msg| driver.send(NodeId::Server(0), msg).expect("send")),
        inboxes,
        shutdown: Box::new(move || cluster.shutdown()),
    }
}

/// Take over the worker addresses of a TCP cluster: the servers dial a
/// worker through the book the first time they answer it.
fn tcp_leg(book: &AddressBook, shutdown: Box<dyn FnOnce() -> Vec<ShardStats>>) -> Leg {
    let bind =
        |node| TcpNode::bind(node, "127.0.0.1:0".parse().unwrap(), book.clone()).expect("bind");
    let inboxes = (0..WORKERS)
        .map(|w| {
            let node = bind(NodeId::Worker(w));
            book.insert(NodeId::Worker(w), node.local_addr());
            Box::new(node) as Box<dyn Mailbox>
        })
        .collect();
    let driver = bind(DRIVER);
    Leg {
        send: Box::new(move |msg| driver.postman().send(NodeId::Server(0), msg).expect("send")),
        inboxes,
        shutdown,
    }
}

/// Run all four legs for `model`; returns the (common) outcome.
fn assert_parity(model: SyncModel) -> Outcome {
    let direct = run_direct(model);
    for engine in ["in-process", "tcp", "resilient"] {
        let (cfg, map, init) = setup(model);
        let collector = TraceCollector::wall(1 << 12);
        let obs = Observability {
            collector: Some(collector.clone()),
            ..Observability::default()
        };
        let leg = match engine {
            "in-process" => inproc_leg(cfg, map.clone(), &init, obs),
            "tcp" => {
                let (cluster, _) =
                    TcpCluster::launch_observed(cfg, &cfg.models(), map.clone(), &init, obs)
                        .unwrap();
                tcp_leg(&cluster.fabric().clone(), Box::new(|| cluster.shutdown()))
            }
            _ => {
                let rcfg = RecoveryConfig::default();
                let (cluster, _) =
                    ResilientTcpCluster::launch_observed(cfg, rcfg, map.clone(), &init, obs)
                        .unwrap();
                tcp_leg(
                    &cluster.fabric().bare().clone(),
                    Box::new(|| cluster.shutdown()),
                )
            }
        };
        let live = run_live(&direct, leg, &map, &collector);
        let live = match engine {
            "resilient" => acked_like_the_step(&direct, live),
            _ => live,
        };
        assert_eq!(live, direct, "{model:?}: {engine} engine vs the step");
        // The shared step times its phases on every engine: under the wall
        // clock each push's apply and each pull's evaluation (with the
        // gather, when answered) is a span.
        let trace = collector.snapshot();
        for kind in [EventKind::PushApplied, EventKind::PullRequested] {
            let durs: Vec<f64> = trace
                .events
                .iter()
                .filter(|e| e.kind == kind)
                .map(|e| e.dur)
                .collect();
            assert!(!durs.is_empty(), "{engine}: no {kind:?}");
            assert!(durs.iter().all(|&d| d > 0.0), "{engine}: {kind:?} {durs:?}");
        }
    }
    direct
}

fn pulled(reply: &(NodeId, Message)) -> (u64, &KvPairs, Option<CausalCtx>) {
    match reply.1.bare() {
        Message::PullResponse { progress, kv, .. } => (*progress, kv, reply.1.ctx()),
        other => panic!("not a pull response: {other:?}"),
    }
}

#[test]
fn bsp_engines_answer_the_script_like_the_step() {
    let o = assert_parity(SyncModel::Bsp);
    // The script means what its comments say. Step 1: parked.
    assert_eq!(o.replies[1], []);
    // Step 2: worker 1's push completes round 0 — its ack first, then the
    // released pull, each in its own request's envelope.
    let step = &o.replies[2];
    assert_eq!(step.len(), 2);
    assert_eq!(step[0].0, NodeId::Worker(1));
    assert_eq!(step[0].1.ctx(), Some(CausalCtx::new(101)));
    assert!(matches!(
        step[0].1.bare(),
        Message::PushAck { progress: 0, .. }
    ));
    assert_eq!(step[1].0, NodeId::Worker(0));
    let (progress, kv, ctx) = pulled(&step[1]);
    assert_eq!((progress, ctx), (0, Some(CausalCtx::new(100))));
    // w = w0 + (0.25 + 0.5) / 2 on every value.
    assert_eq!(kv.vals.at(0), 0.5 + 0.375);
    // Shutdown flushes both far-ahead pulls with the final parameters.
    assert_eq!(o.replies.last().unwrap().len(), 2);
    assert_eq!((o.stats.dprs, o.stats.dprs_released), (4, 4));
    assert_eq!(o.stats.v_train_advances, 4);
}

#[test]
fn ssp_engines_answer_the_script_like_the_step() {
    let o = assert_parity(SyncModel::Ssp { s: 2 });
    // Within the bound: answered on the spot, in the request's envelope.
    assert_eq!(o.replies[1].len(), 1);
    assert_eq!(pulled(&o.replies[1][0]).2, Some(CausalCtx::new(100)));
    // Worker 0's pull at progress 3 is beyond V_train + s: parked, then
    // released lazily by the push that brings V_train to 4.
    assert_eq!(o.replies[7], []);
    let step = &o.replies[10];
    assert_eq!(step.len(), 2);
    let (progress, _, ctx) = pulled(&step[1]);
    assert_eq!((progress, ctx), (3, Some(CausalCtx::new(102).retry(1))));
    assert_eq!(o.replies.last().unwrap().len(), 2);
}

#[test]
fn pssp_engines_draw_the_same_stream_as_the_step() {
    let o = assert_parity(SyncModel::PsspConst { s: 2, c: 0.5 });
    // Pulls beyond the bound each cost a draw; whatever the draws decided,
    // every engine decided the same (asserted above) and every pull was
    // answered exactly once, by grant, release or drain.
    let responses = o.replies.iter().flatten();
    let answered = responses.filter(|r| matches!(r.1.bare(), Message::PullResponse { .. }));
    assert_eq!(answered.count(), 5);
    assert_eq!(o.stats.pulls_total, 5);
}
