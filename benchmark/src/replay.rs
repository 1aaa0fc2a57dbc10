//! The layer replay: each layer's public functions called directly,
//! single-threaded, on exactly the message and shard shapes of a workload.
//!
//! Every operation runs until it has been called 1000 times or for 0.2 s,
//! whichever comes first; the median is reported with the call count.

use std::hint::black_box;
use std::io::Cursor;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use fluentps_core::checkpoint::ShardCheckpoint;
use fluentps_core::condition::{SyncModel, SyncPolicy, SyncState};
use fluentps_core::dpr::{DeferredPull, DprBuffer, DprPolicy};
use fluentps_core::eps::{EpsSlicer, Slicer};
use fluentps_core::server::{PullOutcome, ServerShard, ShardConfig};
use fluentps_core::worker::Router;
use fluentps_ml::data::BatchSampler;
use fluentps_ml::models::Model;
use fluentps_ml::optim::{Optimizer, Sgd};
use fluentps_transport::frame::{encode_frame_into, FrameReader};
use fluentps_transport::tcp::{AddressBook, TcpNode};
use fluentps_transport::{codec, Fabric, KvPairs, Mailbox, Message, NodeId, Postman};
use fluentps_util::buf::BytesMut;

use crate::metrics::Values;
use crate::stats::{Samples, Summary};
use crate::workload::{Task, Workload, LEARNING_RATE};

const MAX_CALLS: usize = 1000;
const MIN_CALLS: usize = 30;
const TIME_BUDGET: Duration = Duration::from_millis(200);

/// Whether an operation called `calls` times since `begun` is called again.
fn keep_going(calls: usize, begun: Instant) -> bool {
    calls < MAX_CALLS && (calls < MIN_CALLS || begun.elapsed() < TIME_BUDGET)
}

/// Time `op(input)` per call in nanoseconds; `prepare` builds each call's
/// input outside the timed region.
fn time_with<T>(mut prepare: impl FnMut() -> T, mut op: impl FnMut(T)) -> Samples {
    let begun = Instant::now();
    let mut ns = Vec::with_capacity(MAX_CALLS);
    while keep_going(ns.len(), begun) {
        let input = prepare();
        let t = Instant::now();
        op(input);
        ns.push(t.elapsed().as_nanos() as f64);
    }
    Samples::new(ns)
}

fn time(mut op: impl FnMut()) -> Samples {
    time_with(|| (), |()| op())
}

fn p50_us(s: &Samples) -> Summary {
    Summary::single(s.p50() / 1e3, s.len())
}

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().expect("loopback address")
}

/// Replay every layer on the shapes of `w`.
pub fn replay(w: &Workload, task: &Task) -> Result<Values, String> {
    let mut out = Values::new();
    let router = Router::new(task.map.clone());

    // ml: one worker's batch, gradients and optimizer step.
    let mut sampler = BatchSampler::new(task.train.partition(0, w.workers), w.batch, 1);
    let mut params = task.init.clone();
    let batch = task.train.batch(&sampler.next_indices());
    let (_, grads) = task.model.loss_and_grad(&params, &batch);
    let mut opt = Sgd::new(LEARNING_RATE, 0.9, 0.0);
    let deltas = opt.deltas(&params, &grads);
    out.insert(
        "ml.batch_us",
        p50_us(&time(|| {
            black_box(task.train.batch(&sampler.next_indices()));
        })),
    );
    out.insert(
        "ml.loss_and_grad_us",
        p50_us(&time(|| {
            black_box(task.model.loss_and_grad(&params, &batch));
        })),
    );
    out.insert(
        "ml.sgd_deltas_us",
        p50_us(&time(|| {
            black_box(opt.deltas(&params, &grads));
        })),
    );

    // worker: scatter of a full update, gather of one server's response.
    let shards = router.scatter(&deltas);
    let shard_kv = shards[0].clone();
    out.insert(
        "worker.scatter_us",
        p50_us(&time(|| {
            black_box(router.scatter(&deltas));
        })),
    );
    out.insert(
        "worker.gather_us",
        p50_us(&time(|| router.gather_into(&mut params, &shard_kv))),
    );

    // codec and frame at the per-server shard size.
    let spush = Message::SPush {
        worker: 0,
        progress: 7,
        kv: shard_kv.clone(),
    };
    let response = Message::PullResponse {
        server: 0,
        progress: 7,
        kv: shard_kv.clone(),
        version: 8,
    };
    let mut buf = BytesMut::new();
    for (msg, enc, dec) in [
        (&spush, "codec.encode_spush_us", "codec.decode_spush_us"),
        (
            &response,
            "codec.encode_pull_response_us",
            "codec.decode_pull_response_us",
        ),
    ] {
        out.insert(
            enc,
            p50_us(&time(|| {
                buf.clear();
                codec::encode_into(msg, &mut buf);
            })),
        );
        let decoded =
            codec::decode_slice(buf.as_ref()).map_err(|e| format!("codec replay: {e}"))?;
        if &decoded != msg {
            return Err("codec replay: decode(encode(m)) != m".to_string());
        }
        out.insert(
            dec,
            p50_us(&time(|| {
                black_box(codec::decode_slice(buf.as_ref()).expect("decoded above"));
            })),
        );
    }
    out.insert(
        "codec.spush_wire_bytes",
        Summary::single(codec::encoded_len(&spush) as f64, 1),
    );
    out.insert(
        "frame.encode_into_us",
        p50_us(&time(|| {
            buf.clear();
            encode_frame_into(NodeId::Worker(0), &spush, &mut buf);
        })),
    );
    let frame = buf.as_ref().to_vec();
    let mut reader = FrameReader::new();
    out.insert(
        "frame.read_from_us",
        p50_us(&time(|| {
            black_box(
                reader
                    .read_from(&mut Cursor::new(&frame))
                    .expect("frame encoded above"),
            );
        })),
    );

    replay_tcp(w, &shards, &response, &mut out)?;
    replay_inproc(&response, &mut out)?;
    replay_server(w, task, &router, &shard_kv, &mut out);

    // dpr: defer 100 pulls, then release them all.
    let policy = SyncModel::Bsp.into_policy();
    let mut buffer = DprBuffer::new();
    let mut v_train = 0u64;
    let dpr = time(|| {
        for k in 0..100u32 {
            buffer.defer(
                DprPolicy::LazyExecution,
                DeferredPull {
                    worker: k,
                    progress: v_train,
                    keys: Vec::new(),
                    deferred_at: v_train,
                    ctx: None,
                },
            );
        }
        v_train += 1;
        let st = SyncState {
            v_train,
            count_at_v_train: 0,
            num_workers: 100,
            fastest: v_train,
            slowest: v_train,
        };
        let released = buffer.release(DprPolicy::LazyExecution, &policy, &st);
        assert_eq!(
            released.len(),
            100,
            "lazy release returns every caught-up DPR"
        );
    });
    out.insert("dpr.defer_release_100_us", p50_us(&dpr));

    // condition: the pull predicate, 1000 evaluations per timed call.
    for (name, model) in [
        ("condition.pull_eval_ns_ssp", SyncModel::Ssp { s: 3 }),
        (
            "condition.pull_eval_ns_pssp",
            SyncModel::PsspConst { s: 3, c: 0.5 },
        ),
    ] {
        let mut policy = model.into_policy();
        let st = SyncState {
            v_train: 10,
            count_at_v_train: 1,
            num_workers: w.workers,
            fastest: 14,
            slowest: 10,
        };
        let evals = time(|| {
            for k in 0..1000u64 {
                let draw = (k % 97) as f64 / 97.0;
                black_box(policy.pull_permitted(black_box(&st), 8 + k % 8, draw, None));
            }
        });
        out.insert(name, Summary::single(evals.p50() / 1e3, evals.len() * 1000));
    }

    // eps: slicing the workload's inventory.
    out.insert(
        "eps.slice_us",
        p50_us(&time(|| {
            black_box(EpsSlicer { max_chunk: 4096 }.slice(&task.specs, w.servers));
        })),
    );
    out.insert("eps.imbalance", Summary::single(task.map.imbalance(), 1));
    Ok(out)
}

/// tcp: pull round trips between two nodes on loopback, and the bulk path
/// of a full `spush` (one frame per server through `send_batch`).
fn replay_tcp(
    w: &Workload,
    shards: &[KvPairs],
    response: &Message,
    out: &mut Values,
) -> Result<(), String> {
    let err = |e| format!("tcp replay: {e}");
    let book = AddressBook::new();
    let mut servers = Vec::new();
    for m in 0..w.servers {
        let node = TcpNode::bind(NodeId::Server(m), loopback(), book.clone()).map_err(err)?;
        book.insert(NodeId::Server(m), node.local_addr());
        servers.push(node);
    }
    let client = TcpNode::bind(NodeId::Worker(0), loopback(), book.clone()).map_err(err)?;
    book.insert(NodeId::Worker(0), client.local_addr());
    let postman = client.postman();

    let pushes: Vec<(NodeId, Message)> = shards
        .iter()
        .enumerate()
        .map(|(m, kv)| {
            let msg = Message::SPush {
                worker: 0,
                progress: 7,
                kv: kv.clone(),
            };
            (NodeId::Server(m as u32), msg)
        })
        .collect();
    let push_bytes: usize = pushes.iter().map(|(_, m)| codec::encoded_len(m)).sum();

    std::thread::scope(|scope| {
        // Every server answers pulls with the shard-sized response and
        // swallows pushes, until told to stop.
        for node in &servers {
            scope.spawn(move || {
                let reply = node.postman();
                while let Ok((_, msg)) = node.recv() {
                    match msg {
                        Message::SPull { .. } => {
                            let _ = reply.send(NodeId::Worker(0), response.clone());
                        }
                        Message::Shutdown => break,
                        _ => {}
                    }
                }
            });
        }
        let pull = Message::SPull {
            worker: 0,
            progress: 7,
            keys: shards[0].keys.clone(),
        };
        let mut failed = false;
        let rtt = time(|| {
            failed |= postman.send(NodeId::Server(0), pull.clone()).is_err();
            failed |= client.recv().is_err();
        });
        let bulk = time_with(
            || pushes.clone(),
            |batch| failed |= postman.send_batch(batch).is_err(),
        );
        for m in 0..w.servers {
            failed |= postman.send(NodeId::Server(m), Message::Shutdown).is_err();
        }
        if failed {
            return Err("tcp replay: a loopback send or receive failed".to_string());
        }
        out.insert("tcp.pull_rtt_us_p50", p50_us(&rtt));
        out.insert(
            "tcp.pull_rtt_us_p99",
            Summary::single(rtt.tail(99.0) / 1e3, rtt.len()),
        );
        out.insert("tcp.send_batch_us", p50_us(&bulk));
        out.insert(
            "tcp.bulk_mb_per_s",
            Summary::single(push_bytes as f64 / 1e6 / (bulk.p50() / 1e9), bulk.len()),
        );
        Ok(())
    })
}

/// inproc: fabric ping-pong with a shard-sized message.
fn replay_inproc(response: &Message, out: &mut Values) -> Result<(), String> {
    let fabric = Fabric::new();
    let client = fabric.register(NodeId::Worker(0));
    let server = fabric.register(NodeId::Server(0));
    let postman = client.postman();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let reply = server.postman();
            while let Ok((_, msg)) = server.recv() {
                match msg {
                    Message::Shutdown => break,
                    _ => {
                        let _ = reply.send(NodeId::Worker(0), response.clone());
                    }
                }
            }
        });
        let pull = Message::SPull {
            worker: 0,
            progress: 7,
            keys: Vec::new(),
        };
        let mut failed = false;
        let rtt = time(|| {
            failed |= postman.send(NodeId::Server(0), pull.clone()).is_err();
            failed |= client.recv().is_err();
        });
        failed |= postman.send(NodeId::Server(0), Message::Shutdown).is_err();
        if failed {
            return Err("inproc replay: a fabric send or receive failed".to_string());
        }
        out.insert("inproc.rtt_us_p50", p50_us(&rtt));
        Ok(())
    })
}

/// server and checkpoint: one BSP iteration per round on server 0's shard —
/// every worker but the last pushes and has its pull deferred, the last
/// push releases those W−1 DPRs, and the last pull is answered at once.
fn replay_server(w: &Workload, task: &Task, router: &Router, kv: &KvPairs, out: &mut Values) {
    let mut shard = ServerShard::new(ShardConfig {
        server_id: 0,
        num_workers: w.workers,
        model: SyncModel::Bsp,
        ..ShardConfig::default()
    });
    for p in task.map.placements().iter().filter(|p| p.server == 0) {
        shard.init_param(
            p.new_key,
            task.init[&p.orig_key][p.offset..p.offset + p.len].to_vec(),
        );
    }
    let keys = router.keys_for_server(0);
    let last = w.workers - 1;
    let (mut push, mut defer, mut release, mut respond) = (vec![], vec![], vec![], vec![]);
    let begun = Instant::now();
    let mut round = 0u64;
    while keep_going(round as usize, begun) {
        for worker in 0..last {
            let t = Instant::now();
            let released = shard.on_push(worker, round, kv);
            push.push(t.elapsed().as_nanos() as f64);
            assert!(released.is_empty());
            let t = Instant::now();
            let outcome = shard.on_pull(worker, round, keys, 0.5, None);
            defer.push(t.elapsed().as_nanos() as f64);
            assert_eq!(outcome, PullOutcome::Deferred);
        }
        let t = Instant::now();
        let released = shard.on_push(last, round, kv);
        release.push(t.elapsed().as_nanos() as f64);
        assert_eq!(released.len(), last as usize);
        let t = Instant::now();
        let outcome = shard.on_pull(last, round, keys, 0.5, None);
        respond.push(t.elapsed().as_nanos() as f64);
        assert!(matches!(outcome, PullOutcome::Respond { .. }));
        round += 1;
    }
    out.insert("server.on_push_us", p50_us(&Samples::new(push)));
    out.insert("server.on_pull_defer_us", p50_us(&Samples::new(defer)));
    out.insert("server.on_push_release_us", p50_us(&Samples::new(release)));
    out.insert("server.on_pull_respond_us", p50_us(&Samples::new(respond)));

    let checkpoint = ShardCheckpoint::capture(&shard, keys);
    out.insert(
        "checkpoint.capture_us",
        p50_us(&time(|| {
            black_box(ShardCheckpoint::capture(&shard, keys));
        })),
    );
    out.insert(
        "checkpoint.to_bytes_us",
        p50_us(&time(|| {
            black_box(checkpoint.to_bytes());
        })),
    );
    out.insert(
        "checkpoint.bytes",
        Summary::single(checkpoint.to_bytes().len() as f64, 1),
    );
}
