//! What a worker that reads its own replies must still get right, now that
//! no reader thread of its own drains its sockets behind its back
//! (DESIGN.md §18): a bounded wait bounds the connection's writes, so two
//! ends blocked writing to each other come apart; replies nobody waits for
//! do not pile up in a socket until the server blocks; and a finished
//! cluster leaves no reader thread behind.
//!
//! The tests look at this process's threads by name, so they run one at a
//! time. Linux only: the names come from `/proc`.
#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fluentps_core::condition::SyncModel;
use fluentps_core::engine::EngineConfig;
use fluentps_core::eps::{EpsSlicer, ParamSpec, SliceMap, Slicer};
use fluentps_core::tcp_engine::{TcpCluster, TcpWorker};
use fluentps_core::worker::{RetryPolicy, Router, WorkerClient};
use fluentps_ml::Deltas;
use fluentps_obs::{EventKind, TraceCollector};
use fluentps_transport::tcp::{AddressBook, TcpNode, TcpPostman};
use fluentps_transport::{Flow, Input, KvPairs, Mailbox, Message, NodeId, Postman, Step};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const LONG: Duration = Duration::from_secs(10);

/// How many threads of this process have a name starting with `prefix`
/// (the kernel keeps the first 15 bytes of a name).
fn threads_named(prefix: &str) -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("this process's threads");
    let named = |task: std::io::Result<std::fs::DirEntry>| {
        // A thread may exit between the listing and the read.
        let name = std::fs::read_to_string(task.ok()?.path().join("comm")).ok()?;
        name.starts_with(prefix).then_some(())
    };
    tasks.filter_map(named).count()
}

/// Run `body` on a thread of its own and give up on it after `patience`: a
/// deadlock fails the test instead of hanging it.
fn within<T: Send + 'static>(patience: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done) = mpsc::channel();
    std::thread::spawn(move || done_tx.send(body()));
    let outcome = done.recv_timeout(patience);
    outcome.unwrap_or_else(|_| panic!("still not done after {patience:?}: blocked for good"))
}

/// A cluster over `map` with one worker, which owns parameters 0 and 1.
fn one_worker_cluster(map: SliceMap) -> (TcpCluster, TcpWorker, HashMap<u64, Vec<f32>>) {
    let init: HashMap<u64, Vec<f32>> = [(0, vec![0.0; 4]), (1, vec![0.0; 4])].into();
    let cfg = EngineConfig {
        num_workers: 1,
        num_servers: map.num_servers(),
        model: SyncModel::Asp,
        ..EngineConfig::default()
    };
    let (cluster, mut workers) = TcpCluster::launch(cfg, map, &init).expect("launch");
    let grads = [(0, vec![1e-3; 4]), (1, vec![1e-3; 4])].into();
    (cluster, workers.remove(0), grads)
}

fn specs() -> [ParamSpec; 2] {
    [0, 1].map(|key| ParamSpec { key, len: 4 })
}

// --- (b) a connection nobody waits on ---------------------------------------

/// Pushes staged per write, so that the acknowledgements add up faster than
/// the system calls: a `PushAck` is 26 bytes on the wire, and for a server
/// to block writing them they have to outgrow its send buffer and the
/// worker's receive buffer together — 4 MiB and 128 KiB where nothing was
/// tuned.
const STAGED: u64 = 8;

/// Stage the pushes of write number `round`.
fn stage(worker: &mut TcpWorker, round: u64, grads: &HashMap<u64, Vec<f32>>) {
    for i in 0..STAGED {
        worker
            .spush(STAGED * round + i, &Deltas::from_params(grads))
            .unwrap();
    }
}

#[test]
fn a_worker_that_only_pushes_never_blocks_its_server() {
    const WRITES: u64 = 50_000;
    let _alone = ONE_AT_A_TIME.lock();
    let (cluster, mut worker, grads) = one_worker_cluster(EpsSlicer::default().slice(&specs(), 1));
    // Every push is acknowledged and no acknowledgement is ever waited
    // for: 10 MB of them.
    let worker = within(12 * LONG, move || {
        for round in 0..WRITES {
            stage(&mut worker, round, &grads);
            worker.flush().unwrap();
        }
        // Behind every push: once this is answered, all are applied.
        worker
            .spull_wait(STAGED * WRITES, &mut HashMap::new())
            .unwrap();
        worker
    });
    // Nobody read them on the worker's behalf, either.
    assert_eq!(threads_named("tcp-reader-work"), 0);
    drop(worker);
    assert_eq!(cluster.shutdown()[0].pushes, STAGED * WRITES);
}

#[test]
fn a_worker_that_never_pulls_from_one_of_its_servers_never_blocks_it() {
    const ROUNDS: u64 = 25_000;
    let _alone = ONE_AT_A_TIME.lock();
    let map = EpsSlicer::default().slice(&specs(), 2);
    // A parameter that lives on one server alone: the other one is pushed
    // to every round and never asked for anything — 5 MB of
    // acknowledgements on a connection the rounds do not read.
    let whole = |key: &u64| map.slices_of(*key).count() == 1;
    let asked = [0, 1].into_iter().find(whole).expect("an unsliced key");
    let owner = map.slices_of(asked).next().expect("one slice").server;
    let (cluster, mut worker, grads) = one_worker_cluster(map);
    let worker = within(12 * LONG, move || {
        let mut params = HashMap::new();
        for round in 0..ROUNDS {
            stage(&mut worker, round, &grads);
            let last = STAGED * (round + 1) - 1;
            let report = worker.spull_keys_wait(last, &[asked], &mut params).unwrap();
            assert_eq!(report.responses, 1);
        }
        worker
    });
    assert_eq!(threads_named("tcp-reader-work"), 0);
    drop(worker);
    let stats = cluster.shutdown();
    for (m, shard) in (0u32..).zip(&stats) {
        let pulled = if m == owner { ROUNDS } else { 0 };
        assert_eq!((shard.pushes, shard.pulls_total), (STAGED * ROUNDS, pulled));
    }
}

// --- (c) ends ----------------------------------------------------------------

#[test]
fn a_finished_cluster_leaves_no_reader_thread_behind() {
    let _alone = ONE_AT_A_TIME.lock();
    const EACH: u32 = 2;
    // The reader threads of the tests before this one are on their way out.
    let begun = Instant::now();
    while threads_named("tcp-reader-") > 0 {
        assert!(begun.elapsed() < LONG, "an earlier test's readers linger");
        std::thread::yield_now();
    }
    let specs = [0, 1].map(|key| ParamSpec { key, len: 64 });
    let map = EpsSlicer { max_chunk: 16 }.slice(&specs, EACH);
    let init: HashMap<u64, Vec<f32>> = [(0, vec![0.0; 64]), (1, vec![0.0; 64])].into();
    let cfg = EngineConfig {
        num_workers: EACH,
        num_servers: EACH,
        model: SyncModel::Bsp,
        ..EngineConfig::default()
    };
    let (cluster, workers) = TcpCluster::launch(cfg, map, &init).expect("launch");
    let trained = workers.into_iter().map(|mut w| {
        std::thread::spawn(move || {
            let grads: HashMap<u64, Vec<f32>> = [(0, vec![1.0; 64]), (1, vec![1.0; 64])].into();
            let mut params = HashMap::new();
            for i in 0..20 {
                w.spush(i, &Deltas::from_params(&grads)).unwrap();
                w.spull_wait(i, &mut params).unwrap();
            }
            w
        })
    });
    let trained: Vec<_> = trained.collect();
    let workers: Vec<TcpWorker> = trained.into_iter().map(|h| h.join().unwrap()).collect();
    // One connection per worker and server, read by the server's thread at
    // one end and by the worker itself at the other.
    assert_eq!(threads_named("tcp-reader-serv"), (EACH * EACH) as usize);
    assert_eq!(threads_named("tcp-reader-"), (EACH * EACH) as usize);
    cluster.shutdown();
    drop(workers);
    let begun = Instant::now();
    while threads_named("tcp-reader-") > 0 {
        assert!(
            begun.elapsed() < LONG,
            "a reader thread outlived its cluster"
        );
        std::thread::yield_now();
    }
}

// --- (a) both ends blocked in `write` ----------------------------------------

const SERVER: NodeId = NodeId::Server(0);
/// Values per push: 4 MiB on the wire.
const VALS: usize = 1 << 20;
/// Pushes a retry replays: 16 MiB, four times what a socket's send buffer
/// grows to.
const DEPTH: u64 = 4;

/// A server in miniature that gives up a pull late, the way a lazily
/// released DPR can: the last round's pull is parked until `release` says
/// the client has given up waiting for it, and is then answered [`DEPTH`]
/// times over — as much as the client's replay, written while the client
/// writes that.
struct LateRelease {
    postman: TcpPostman,
    release: mpsc::Receiver<()>,
    held: KvPairs,
    out: Vec<(NodeId, Message)>,
    parked: bool,
}

impl LateRelease {
    fn response(&self, progress: u64) -> (NodeId, Message) {
        let response = Message::PullResponse {
            server: 0,
            progress,
            version: progress + 1,
            kv: self.held.clone(),
        };
        (NodeId::Worker(0), response)
    }
}

impl Step for LateRelease {
    fn step(&mut self, input: Input) -> Flow {
        // The client traces, so its requests come in envelopes.
        match input {
            Input::Message(_, msg) => match msg.split_ctx().1 {
                Message::SPush { kv, .. } => self.held = kv,
                Message::SPull { progress, .. } if progress == DEPTH - 1 && !self.parked => {
                    self.parked = true;
                    self.release.recv().expect("the test says when");
                    let late = (0..DEPTH).map(|_| self.response(progress)).collect();
                    // Fails once the client has had enough of not being read.
                    let _ = self.postman.reply_batch(late);
                }
                Message::SPull { progress, .. } => {
                    let response = self.response(progress);
                    self.out.push(response);
                }
                Message::Shutdown => return Flow::Stop,
                _ => {}
            },
            Input::Dry if !self.out.is_empty() => {
                let _ = self.postman.reply_batch(std::mem::take(&mut self.out));
            }
            _ => {}
        }
        Flow::Continue
    }
}

#[test]
fn a_reissue_that_meets_a_late_release_ends_in_a_lost_connection_and_a_retry() {
    let _alone = ONE_AT_A_TIME.lock();
    let loopback = "127.0.0.1:0".parse().unwrap();
    let server = TcpNode::bind(SERVER, loopback, AddressBook::new()).unwrap();
    let book = AddressBook::new();
    book.insert(SERVER, server.local_addr());
    let stop_book = book.clone();
    let node = TcpNode::bind(NodeId::Worker(0), loopback, book).unwrap();
    let (release_tx, release) = mpsc::channel();
    let late = LateRelease {
        postman: server.postman(),
        release,
        held: KvPairs::default(),
        out: Vec::new(),
        parked: false,
    };
    let served = std::thread::spawn(move || drop(server.serve(None, late)));

    let spec = ParamSpec { key: 0, len: VALS };
    let router = Router::new(EpsSlicer { max_chunk: VALS }.slice(&[spec], 1));
    let mut client = WorkerClient::new(0, node.postman(), node, router);
    let collector = TraceCollector::wall(1 << 10);
    client.set_tracer(collector.tracer());
    client.set_retry_policy(RetryPolicy {
        timeout: Duration::from_millis(250),
        max_retries: 8,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        jitter_seed: 7,
        replay_depth: DEPTH as usize,
    });
    let count = |kind: EventKind| collector.totals().0[kind as usize];

    let rounds = std::thread::spawn(move || {
        let grads: HashMap<u64, Vec<f32>> = [(0, vec![0.5; VALS])].into();
        let mut params = HashMap::new();
        for i in 0..DEPTH {
            client.spush(i, &Deltas::from_params(&grads)).unwrap();
            let report = client.spull_wait(i, &mut params).unwrap();
            assert_eq!((report.responses, report.max_version), (1, i + 1));
        }
        (client, params)
    });
    // The last round's pull is parked. Once the client has given up on it
    // — it no longer reads, and its reissue is on its way — the server lets
    // it go: from here on both ends write and neither reads.
    let begun = Instant::now();
    while count(EventKind::RetryScheduled) == 0 {
        assert!(begun.elapsed() < LONG, "the parked pull never timed out");
        std::thread::yield_now();
    }
    release_tx.send(()).unwrap();
    let (_client, params) = within(LONG, move || rounds.join().unwrap());
    assert_eq!(params[&0], vec![0.5; VALS]);
    // What ended it is the client's bounded write: one connection lost,
    // then a redial, the replay once more, and the answer. (Or nothing had
    // to end: socket buffers that have grown to swallow 16 MiB each way
    // block nobody, and the first reissue is answered.)
    let lost = count(EventKind::ConnectionLost);
    let timeouts = count(EventKind::RetryScheduled);
    let came_apart = lost >= 1 && (2..=4).contains(&timeouts);
    let never_met = lost == 0 && timeouts == 1;
    assert!(came_apart || never_met, "{lost} lost, {timeouts} timeouts");
    let stop = TcpNode::bind(NodeId::Worker(1), loopback, stop_book).unwrap();
    stop.postman().send(SERVER, Message::Shutdown).unwrap();
    served.join().unwrap();
}
