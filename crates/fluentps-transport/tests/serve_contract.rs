//! The contract of [`Mailbox::serve`], checked against every mailbox that
//! provides it: the in-process endpoint (the trait's default body: a receive
//! loop on the calling thread), the TCP node (the step runs on the
//! connections' reader threads) and the fault shim around a TCP node (the
//! same, minus severed senders). And, over real sockets, the two promises
//! the TCP node adds: a request is answered on the thread that read it, and
//! replies leave when the connection's input runs dry — a partial next frame
//! holds nothing back, a frame larger than the reader's buffer goes past it.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fluentps_transport::fault::FaultInjector;
use fluentps_transport::frame::{encode_frame, READ_BUFFER};
use fluentps_transport::tcp::{AddressBook, TcpNode};
use fluentps_transport::{
    Fabric, Flow, Input, KvPairs, Mailbox, Message, NodeId, Postman, TransportError,
};

const SERVER: NodeId = NodeId::Server(0);
const SENDERS: u32 = 2;
const LONG: Duration = Duration::from_secs(10);

/// One served node and the senders that reach it, whatever the transport.
struct Rig<M> {
    rx: M,
    /// Postman of `Worker(w)`, unfiltered: what it sends reaches `rx`'s
    /// transport.
    senders: Vec<Box<dyn Postman + Sync>>,
    /// The injector in front of `rx`, when there is one.
    injector: Option<FaultInjector>,
    /// Whatever must outlive the test (nodes owning the senders' sockets).
    _keep: Vec<TcpNode>,
}

fn inproc_rig() -> Rig<fluentps_transport::Endpoint> {
    let fabric = Fabric::new();
    let rx = fabric.register(SERVER);
    let senders = (0..SENDERS)
        .map(|w| Box::new(fabric.register(NodeId::Worker(w)).postman()) as Box<dyn Postman + Sync>)
        .collect();
    Rig {
        rx,
        senders,
        injector: None,
        _keep: Vec::new(),
    }
}

fn tcp_nodes() -> (TcpNode, Vec<TcpNode>) {
    let book = AddressBook::new();
    let bind = |node| TcpNode::bind(node, "127.0.0.1:0".parse().unwrap(), book.clone()).unwrap();
    let rx = bind(SERVER);
    book.insert(SERVER, rx.local_addr());
    let workers = (0..SENDERS).map(|w| bind(NodeId::Worker(w))).collect();
    (rx, workers)
}

fn tcp_rig() -> Rig<TcpNode> {
    let (rx, workers) = tcp_nodes();
    Rig {
        rx,
        senders: workers
            .iter()
            .map(|n| Box::new(n.postman()) as Box<dyn Postman + Sync>)
            .collect(),
        injector: None,
        _keep: workers,
    }
}

fn faulty_tcp_rig() -> Rig<fluentps_transport::fault::FaultyMailbox<TcpNode>> {
    let plain = tcp_rig();
    let injector = FaultInjector::passthrough();
    Rig {
        rx: injector.mailbox(SERVER, plain.rx),
        senders: plain.senders,
        injector: Some(injector),
        _keep: plain._keep,
    }
}

fn beat(w: u32, seq: u64) -> Message {
    Message::Heartbeat {
        node: NodeId::Worker(w),
        seq,
    }
}

/// A step that records heartbeats as `(worker, seq)` into `log`, in call
/// order, tells `handled` about each, and stops on `Shutdown`.
fn recorder(
    log: &Arc<Mutex<Vec<(u32, u64)>>>,
    handled: mpsc::Sender<(u32, u64)>,
) -> impl FnMut(Input) -> Flow + Send + 'static {
    let log = Arc::clone(log);
    move |input| match input {
        Input::Message(NodeId::Worker(w), Message::Heartbeat { seq, .. }) => {
            log.lock().unwrap().push((w, seq));
            let _ = handled.send((w, seq));
            Flow::Continue
        }
        Input::Message(_, Message::Shutdown) => Flow::Stop,
        _ => Flow::Continue,
    }
}

fn beats_of(log: &[(u32, u64)], w: u32) -> Vec<u64> {
    let from_w = log.iter().filter(|(from, _)| *from == w);
    from_w.map(|(_, seq)| *seq).collect()
}

/// Order, drain-before-install, stop and severed senders.
fn delivery_contract<M: Mailbox + Sync>(rig: Rig<M>) {
    const EARLY: u64 = 3;
    const EACH: u64 = 200;
    let log = Arc::new(Mutex::new(Vec::new()));
    let (handled_tx, handled) = mpsc::channel();

    // Frames that arrive before anyone serves wait in the mailbox. (Over
    // TCP "arrived" cannot be observed from outside without consuming the
    // frame; whether these are already queued or still in the socket when
    // `serve` starts, they come first — the inbox case is pinned by a unit
    // test in tcp.rs.)
    for seq in 0..EARLY {
        rig.senders[0].send(SERVER, beat(0, seq)).unwrap();
    }

    std::thread::scope(|scope| {
        let served = scope.spawn(|| drop(rig.rx.serve(None, recorder(&log, handled_tx))));
        // Both senders at once: per-sender order must survive whatever
        // interleaving the transport's threads produce.
        for (w, sender) in (0u32..).zip(&rig.senders) {
            scope.spawn(move || {
                let first = if w == 0 { EARLY } else { 0 };
                for seq in first..EACH {
                    sender.send(SERVER, beat(w, seq)).unwrap();
                }
            });
        }
        for _ in 0..SENDERS as u64 * EACH {
            handled.recv_timeout(LONG).expect("every heartbeat handled");
        }

        // A severed sender's frames arrive — the injector counts them —
        // but never reach the step; the live sender's marker does.
        if let Some(injector) = &rig.injector {
            injector.kill(NodeId::Worker(1));
            for seq in EACH..EACH + 5 {
                rig.senders[1].send(SERVER, beat(1, seq)).unwrap();
            }
            let sent = Instant::now();
            while injector.stats().blackholed < 5 {
                assert!(sent.elapsed() < LONG, "severed frames never arrived");
                std::thread::yield_now();
            }
        }
        rig.senders[0].send(SERVER, beat(0, EACH)).unwrap();
        assert_eq!(handled.recv_timeout(LONG), Ok((0, EACH)));

        // `Stop` ends the call; what the same sender sends afterwards is
        // not handled.
        rig.senders[0].send(SERVER, Message::Shutdown).unwrap();
        rig.senders[0].send(SERVER, beat(0, EACH + 1)).unwrap();
        served.join().unwrap();
    });

    let log = log.lock().unwrap();
    assert_eq!(beats_of(&log, 0), (0..=EACH).collect::<Vec<_>>());
    assert_eq!(beats_of(&log, 1), (0..EACH).collect::<Vec<_>>());
    // The late frame stayed a frame: a node nobody serves queues it.
    let late = rig.rx.recv_timeout(LONG).unwrap();
    assert_eq!(late, Some((NodeId::Worker(0), beat(0, EACH + 1))));
}

/// The timer arm: fires on an idle node, and only after a whole quiet
/// interval — never because time passed while a message was being handled.
fn timer_contract<M: Mailbox + Sync>(rig: Rig<M>) {
    const WAKE: Duration = Duration::from_millis(40);
    let ticks = Arc::new(Mutex::new(Vec::new()));
    let busy = Arc::new(Mutex::new(None));
    let step = {
        let (ticks, busy) = (Arc::clone(&ticks), Arc::clone(&busy));
        move |input| {
            match input {
                Input::Message(_, Message::Heartbeat { .. }) => {
                    // A slow message: several intervals pass inside it.
                    let from = Instant::now();
                    std::thread::sleep(3 * WAKE);
                    *busy.lock().unwrap() = Some((from, Instant::now()));
                }
                Input::Message(_, Message::Shutdown) => return Flow::Stop,
                Input::Tick => ticks.lock().unwrap().push(Instant::now()),
                _ => {}
            }
            Flow::Continue
        }
    };
    let started = Instant::now();
    std::thread::scope(|scope| {
        let served = scope.spawn(|| drop(rig.rx.serve(Some(WAKE), step)));
        // Idle: ticks arrive. Poll instead of sleeping a fixed time so a
        // loaded machine only makes the test slower.
        while ticks.lock().unwrap().len() < 3 {
            assert!(started.elapsed() < LONG, "no ticks on an idle node");
            std::thread::sleep(WAKE / 4);
        }
        rig.senders[0].send(SERVER, beat(0, 0)).unwrap();
        while busy.lock().unwrap().is_none() {
            std::thread::sleep(WAKE / 4);
        }
        let seen = ticks.lock().unwrap().len();
        while ticks.lock().unwrap().len() == seen {
            std::thread::sleep(WAKE / 4);
        }
        rig.senders[0].send(SERVER, Message::Shutdown).unwrap();
        served.join().unwrap();
    });

    let ticks = ticks.lock().unwrap();
    // Idle from the start: the first tick needs one quiet interval, and the
    // transport may take a second one to be sure of it.
    let first = ticks[0].duration_since(started);
    assert!(first >= WAKE, "first tick after {first:?}");
    for pair in ticks.windows(2) {
        assert!(pair[1].duration_since(pair[0]) >= WAKE, "ticks {pair:?}");
    }
    // Lower bounds hold however loaded the machine is; the upper one ("within
    // 2 × wake") is checked where it is least exposed to scheduling noise:
    // the best of the idle gaps.
    let best = ticks.windows(2).map(|p| p[1].duration_since(p[0])).min();
    assert!(
        best.unwrap() <= 2 * WAKE + WAKE / 2,
        "best idle gap {best:?}"
    );
    let (from, to) = busy.lock().unwrap().expect("the slow message ran");
    for tick in ticks.iter() {
        let quiet_since = to + WAKE;
        assert!(
            *tick < from || *tick >= quiet_since,
            "a tick {:?} after a message that took {:?}",
            tick.saturating_duration_since(to),
            to.duration_since(from)
        );
    }
}

#[test]
fn inproc_endpoint_keeps_the_delivery_contract() {
    delivery_contract(inproc_rig());
}

#[test]
fn tcp_node_keeps_the_delivery_contract() {
    delivery_contract(tcp_rig());
}

#[test]
fn faulty_tcp_mailbox_keeps_the_delivery_contract() {
    delivery_contract(faulty_tcp_rig());
}

#[test]
fn inproc_endpoint_keeps_the_timer_contract() {
    timer_contract(inproc_rig());
}

#[test]
fn tcp_node_keeps_the_timer_contract() {
    timer_contract(tcp_rig());
}

#[test]
fn faulty_tcp_mailbox_keeps_the_timer_contract() {
    timer_contract(faulty_tcp_rig());
}

/// The hop is gone, asserted not assumed: a served TCP node's step runs on
/// the thread that read the frame, not on the one that called `serve`.
#[test]
fn a_served_tcp_node_runs_the_step_on_the_reader_thread() {
    for faulty in [false, true] {
        let (rx, workers) = tcp_nodes();
        let seen = Arc::new(Mutex::new(None));
        let step = {
            let seen = Arc::clone(&seen);
            move |input| match input {
                Input::Message(_, Message::Shutdown) => {
                    *seen.lock().unwrap() = std::thread::current().name().map(str::to_owned);
                    Flow::Stop
                }
                _ => Flow::Continue,
            }
        };
        std::thread::scope(|scope| {
            let served = std::thread::Builder::new()
                .name("the-serve-caller".into())
                .spawn_scoped(scope, || {
                    if faulty {
                        let injector = FaultInjector::passthrough();
                        let _ = injector.mailbox(SERVER, rx).serve(None, step);
                    } else {
                        let _ = rx.serve(None, step);
                    }
                })
                .unwrap();
            workers[0]
                .postman()
                .send(SERVER, Message::Shutdown)
                .unwrap();
            served.join().unwrap();
        });
        let name = seen.lock().unwrap().clone().expect("step ran");
        assert!(
            name.starts_with("tcp-reader-"),
            "step ran on {name:?} (faulty mailbox: {faulty})"
        );
    }
}

/// A server in miniature for the socket tests: remembers the last push's
/// values, answers a pull with them, and sends when the input runs dry —
/// counting how many batches that took.
struct Echo<P> {
    postman: P,
    held: KvPairs,
    out: Vec<(NodeId, Message)>,
    batches: Arc<Mutex<Vec<usize>>>,
}

impl<P: Postman + 'static> fluentps_transport::Step for Echo<P> {
    fn step(&mut self, input: Input) -> Flow {
        match input {
            Input::Message(
                _,
                Message::SPush {
                    worker,
                    progress,
                    kv,
                },
            ) => {
                self.held = kv;
                let ack = Message::PushAck {
                    server: 0,
                    progress,
                };
                self.out.push((NodeId::Worker(worker), ack));
            }
            Input::Message(
                _,
                Message::SPull {
                    worker, progress, ..
                },
            ) => {
                let response = Message::PullResponse {
                    server: 0,
                    progress,
                    version: progress + 1,
                    kv: self.held.clone(),
                };
                self.out.push((NodeId::Worker(worker), response));
            }
            Input::Message(_, Message::Shutdown) => return Flow::Stop,
            Input::Dry if !self.out.is_empty() => {
                self.batches.lock().unwrap().push(self.out.len());
                self.postman
                    .send_batch(std::mem::take(&mut self.out))
                    .unwrap();
            }
            _ => {}
        }
        Flow::Continue
    }
}

/// An echo server on `Server(0)`, the worker node its replies go to, and a
/// raw client socket into it.
fn echo_rig() -> (
    std::thread::JoinHandle<()>,
    TcpNode,
    TcpStream,
    Arc<Mutex<Vec<usize>>>,
) {
    let book = AddressBook::new();
    let bind = |node| TcpNode::bind(node, "127.0.0.1:0".parse().unwrap(), book.clone()).unwrap();
    let server = bind(SERVER);
    let worker = bind(NodeId::Worker(0));
    book.insert(NodeId::Worker(0), worker.local_addr());
    let client = TcpStream::connect(server.local_addr()).unwrap();
    client.set_nodelay(true).unwrap();
    let batches = Arc::new(Mutex::new(Vec::new()));
    let echo = Echo {
        postman: server.postman(),
        held: KvPairs::default(),
        out: Vec::new(),
        batches: Arc::clone(&batches),
    };
    let served = std::thread::spawn(move || {
        let _ = server.serve(None, echo);
    });
    (served, worker, client, batches)
}

fn pull(progress: u64) -> Message {
    Message::SPull {
        worker: 0,
        progress,
        keys: vec![1],
    }
}

fn answered(worker: &TcpNode) -> Message {
    let reply: Result<_, TransportError> = worker.recv_timeout(LONG);
    reply.unwrap().expect("a reply within the timeout").1
}

#[test]
fn a_partial_next_frame_does_not_hold_a_reply_back() {
    let (served, worker, mut client, batches) = echo_rig();
    let from = NodeId::Worker(0);
    let next = encode_frame(from, &pull(1));
    let mut bytes = encode_frame(from, &pull(0)).to_vec();
    bytes.extend_from_slice(&next[..3]);
    // One write: a complete pull, then the first three bytes of the next
    // frame — not even its length word.
    client.write_all(&bytes).unwrap();
    // The reply comes although the connection is mid-frame…
    assert!(matches!(
        answered(&worker),
        Message::PullResponse { progress: 0, .. }
    ));
    // …and the rest of that frame still makes a frame.
    client.write_all(&next[3..]).unwrap();
    assert!(matches!(
        answered(&worker),
        Message::PullResponse { progress: 1, .. }
    ));
    client
        .write_all(&encode_frame(from, &Message::Shutdown))
        .unwrap();
    served.join().unwrap();
    assert_eq!(*batches.lock().unwrap(), [1, 1]);
}

#[test]
fn a_push_and_its_pull_are_answered_in_one_batch_past_the_read_buffer_too() {
    let (served, worker, mut client, batches) = echo_rig();
    let from = NodeId::Worker(0);
    let push = |progress, vals: Vec<f32>| Message::SPush {
        worker: 0,
        progress,
        kv: KvPairs::single(1, vals),
    };
    // Small: both frames fit the reader's buffer, arrive in one write, and
    // the pull is already there when the push has been handled.
    let small: Vec<f32> = (0..64).map(|i| i as f32 * 0.5).collect();
    let mut bytes = encode_frame(from, &push(0, small.clone())).to_vec();
    bytes.extend_from_slice(&encode_frame(from, &pull(0)));
    client.write_all(&bytes).unwrap();
    assert!(matches!(
        answered(&worker),
        Message::PushAck { progress: 0, .. }
    ));
    let Message::PullResponse { kv, .. } = answered(&worker) else {
        panic!("not a pull response");
    };
    assert_eq!(kv.vals, small);
    assert_eq!(*batches.lock().unwrap(), [2], "ack and response together");

    // 1 MiB of values: the push bypasses the reader's buffer, the pull
    // behind it is buffered again, and every bit comes back.
    let big: Vec<f32> = (0..1u32 << 18)
        .map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9)))
        .collect();
    let frame = encode_frame(from, &push(1, big.clone()));
    assert!(frame.len() > 16 * READ_BUFFER);
    let mut bytes = frame.to_vec();
    bytes.extend_from_slice(&encode_frame(from, &pull(1)));
    client.write_all(&bytes).unwrap();
    assert!(matches!(
        answered(&worker),
        Message::PushAck { progress: 1, .. }
    ));
    let Message::PullResponse { kv, .. } = answered(&worker) else {
        panic!("not a pull response");
    };
    let bits = |vals: Vec<f32>| vals.into_iter().map(f32::to_bits).collect::<Vec<_>>();
    assert_eq!(bits(kv.vals.to_vec()), bits(big));

    client
        .write_all(&encode_frame(from, &Message::Shutdown))
        .unwrap();
    served.join().unwrap();
}
