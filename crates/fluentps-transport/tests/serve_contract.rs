//! The contract of [`Mailbox::serve`], checked against every mailbox that
//! provides it: the in-process endpoint (the step runs on the sending
//! thread), the TCP node (the step runs on the connections' reader threads)
//! and the fault shim around a TCP node (the same, minus severed senders).
//! Over real sockets, the two promises the TCP node adds: a request is
//! answered on the thread that read it, and replies leave when the
//! connection's input runs dry — a partial next frame holds nothing back, a
//! frame larger than the reader's buffer goes past it. On the fabric, what
//! running the step on the sender's thread must not break: a request is
//! answered on the thread that sent it, racing senders never overlap and
//! keep their order, a step may send to a served node — itself included —
//! without deadlocking or reordering, a `Stop` handled inline ends the call,
//! and a node registered anew is the one that answers.
//!
//! Likewise the contract of [`Mailbox::recv_from`], the other end of that
//! exchange: what the client of a served node sees while it waits for the
//! answer, on the same three mailboxes, and — over real sockets — that the
//! answer comes back on the connection the request went out on and is
//! decoded by the thread that waits for it.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fluentps_obs::{ProfCollector, Profiler};
use fluentps_transport::fault::{FaultInjector, FaultyMailbox};
use fluentps_transport::frame::{encode_frame, READ_BUFFER};
use fluentps_transport::tcp::{AddressBook, TcpNode};
use fluentps_transport::{
    Endpoint, Fabric, Flow, Input, KvPairs, Mailbox, Message, Network, NodeId, Postman,
    TransportError,
};
use fluentps_util::proptest::prelude::*;

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
    /// The senders' own mailboxes, which must outlive the test (over TCP
    /// they own the senders' sockets).
    _keep: Vec<Box<dyn Mailbox>>,
}

/// `SERVER` bound on `net`, and [`SENDERS`] workers bound on `senders` — the
/// same network, or the one `net` wraps — to reach it.
fn rig<N: Network, S: Network>(net: &N, senders: &S) -> Rig<N::Mailbox>
where
    S::Postman: Sync,
{
    let quiet = Profiler::disabled();
    let (_, rx) = net.bind(SERVER, &quiet).unwrap();
    let (senders, keep) = (0..SENDERS)
        .map(|w| {
            let (postman, mailbox) = senders.bind(NodeId::Worker(w), &quiet).unwrap();
            (
                Box::new(postman) as Box<dyn Postman + Sync>,
                Box::new(mailbox) as Box<dyn Mailbox>,
            )
        })
        .unzip();
    Rig {
        rx,
        senders,
        injector: None,
        _keep: keep,
    }
}

fn inproc_rig() -> Rig<Endpoint> {
    let fabric = Fabric::new();
    rig(&fabric, &fabric)
}

fn tcp_rig() -> Rig<TcpNode> {
    let book = AddressBook::new();
    rig(&book, &book)
}

fn faulty_tcp_rig() -> Rig<FaultyMailbox<TcpNode>> {
    let (book, injector) = (AddressBook::new(), FaultInjector::passthrough());
    Rig {
        injector: Some(injector.clone()),
        ..rig(&injector.network(book.clone()), &book)
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
        let Rig {
            rx, senders, _keep, ..
        } = tcp_rig();
        let seen = Arc::new(Mutex::new(None));
        let (handled_tx, handled) = mpsc::channel();
        let step = {
            let seen = Arc::clone(&seen);
            move |input| match input {
                Input::Message(_, Message::Shutdown) => {
                    *seen.lock().unwrap() = std::thread::current().name().map(str::to_owned);
                    Flow::Stop
                }
                Input::Message(..) => {
                    handled_tx.send(()).unwrap();
                    Flow::Continue
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
            // A frame read before `serve` was called is handled by the
            // caller, out of the inbox; once the step has handled one, it
            // is — or is about to be, under the lock a reader needs —
            // installed, and the next frame is a reader's.
            let postman = &senders[0];
            postman.send(SERVER, beat(0, 0)).unwrap();
            handled.recv_timeout(LONG).expect("the first frame handled");
            postman.send(SERVER, Message::Shutdown).unwrap();
            served.join().unwrap();
        });
        let name = seen.lock().unwrap().clone().expect("step ran");
        assert!(
            name.starts_with("tcp-reader-"),
            "step ran on {name:?} (faulty mailbox: {faulty})"
        );
    }
}

// --- the in-process endpoint: the step runs on the sender's thread ----------

/// The hop is gone on the fabric too, asserted not assumed: once the step is
/// installed, a send runs it — the message, then `Dry` — on the thread that
/// sent, and the thread that called `serve` only waits.
#[test]
fn an_inproc_request_is_handled_on_the_sending_thread() {
    const CALLER: &str = "the-serve-caller";
    const SENDER: &str = "the-sender";
    let fabric = Fabric::new();
    let rx = fabric.register(SERVER);
    let postman = fabric.register(NodeId::Worker(0)).postman();
    let (ran_tx, ran) = mpsc::channel();
    let step = move |input: Input| {
        let kind = match &input {
            Input::Message(..) => "message",
            Input::Dry => "dry",
            Input::Tick => "tick",
        };
        let thread = std::thread::current().name().map(str::to_owned);
        ran_tx.send((kind, thread)).unwrap();
        match input {
            Input::Message(_, Message::Shutdown) => Flow::Stop,
            _ => Flow::Continue,
        }
    };
    std::thread::scope(|scope| {
        let served = std::thread::Builder::new()
            .name(CALLER.into())
            .spawn_scoped(scope, || drop(rx.serve(None, step)))
            .unwrap();
        // The `Dry` after draining the empty inbox: the step is installed.
        let installed = ran.recv_timeout(LONG).unwrap();
        assert_eq!(installed, ("dry", Some(CALLER.to_owned())));
        std::thread::Builder::new()
            .name(SENDER.into())
            .spawn_scoped(scope, || {
                postman.send(SERVER, beat(0, 0)).unwrap();
                postman.send(SERVER, Message::Shutdown).unwrap();
            })
            .unwrap()
            .join()
            .unwrap();
        served.join().unwrap();
    });
    let sender = Some(SENDER.to_owned());
    let rest: Vec<_> = ran.iter().collect();
    assert_eq!(
        rest,
        [
            ("message", sender.clone()),
            ("dry", sender.clone()),
            ("message", sender)
        ]
    );
}

proptest! {
    /// Two senders race on one served endpoint, each sending its heartbeats
    /// singly or in batches: the step is never entered twice at once, each
    /// delivery is handled whole and followed by exactly one `Dry`, and
    /// every heartbeat is handled once, in its sender's order.
    #[test]
    fn racing_senders_on_a_served_endpoint_never_overlap_and_keep_their_order(
        first in prop::collection::vec(1usize..4, 0..12),
        second in prop::collection::vec(1usize..4, 0..12),
    ) {
        let fabric = Fabric::new();
        let rx = fabric.register(SERVER);
        let overlaps = Arc::new(AtomicUsize::new(0));
        // `Some((worker, seq))` per heartbeat, `None` per `Dry`.
        let calls = Arc::new(Mutex::new(Vec::new()));
        let (dry_tx, dry) = mpsc::channel();
        let step = {
            let (overlaps, calls) = (Arc::clone(&overlaps), Arc::clone(&calls));
            let inside = AtomicBool::new(false);
            move |input: Input| {
                if inside.swap(true, Ordering::SeqCst) {
                    overlaps.fetch_add(1, Ordering::SeqCst);
                }
                let flow = match input {
                    Input::Message(NodeId::Worker(w), Message::Heartbeat { seq, .. }) => {
                        calls.lock().unwrap().push(Some((w, seq)));
                        Flow::Continue
                    }
                    Input::Message(_, Message::Shutdown) => Flow::Stop,
                    Input::Dry => {
                        calls.lock().unwrap().push(None);
                        let _ = dry_tx.send(());
                        Flow::Continue
                    }
                    _ => Flow::Continue,
                };
                // Widen the window a second caller would overlap in.
                std::thread::yield_now();
                inside.store(false, Ordering::SeqCst);
                flow
            }
        };
        let plans = [first, second];
        std::thread::scope(|scope| {
            let served = scope.spawn(|| drop(rx.serve(None, step)));
            dry.recv_timeout(LONG).expect("the step is installed");
            let senders: Vec<_> = (0u32..)
                .zip(&plans)
                .map(|(w, plan)| {
                    let postman = fabric.register(NodeId::Worker(w)).postman();
                    scope.spawn(move || {
                        let mut seq = 0;
                        for &n in plan {
                            if n == 1 {
                                postman.send(SERVER, beat(w, seq)).unwrap();
                            } else {
                                let beats = (seq..seq + n as u64).map(|s| (SERVER, beat(w, s)));
                                postman.send_batch(beats.collect()).unwrap();
                            }
                            seq += n as u64;
                        }
                    })
                })
                .collect();
            for sender in senders {
                sender.join().unwrap();
            }
            fabric.send(NodeId::Scheduler, SERVER, Message::Shutdown).unwrap();
            served.join().unwrap();
        });

        prop_assert_eq!(overlaps.load(Ordering::SeqCst), 0);
        let calls = calls.lock().unwrap();
        prop_assert_eq!(calls.first(), Some(&None), "the install's Dry comes first");
        // One delivery per segment between two `Dry`s.
        let deliveries: Vec<&[Option<(u32, u64)>]> = calls[1..].split(Option::is_none).collect();
        let (last, deliveries) = deliveries.split_last().unwrap();
        prop_assert!(last.is_empty(), "a delivery without its Dry: {last:?}");
        for (w, plan) in (0u32..).zip(&plans) {
            let mine: Vec<&[Option<(u32, u64)>]> = deliveries
                .iter()
                .copied()
                .filter(|d| matches!(d.first(), Some(Some((from, _))) if *from == w))
                .collect();
            let sizes: Vec<usize> = mine.iter().map(|d| d.len()).collect();
            prop_assert_eq!(&sizes, plan, "worker {}'s deliveries", w);
            let seqs: Vec<u64> = mine
                .iter()
                .flat_map(|d| d.iter())
                .map(|call| match call {
                    Some((from, seq)) if *from == w => Ok(*seq),
                    other => Err(TestCaseError::fail(format!("mixed delivery: {other:?}"))),
                })
                .collect::<Result<_, _>>()?;
            let total = plan.iter().sum::<usize>() as u64;
            prop_assert_eq!(seqs, (0..total).collect::<Vec<_>>());
        }
    }
}

/// A step that sends to served nodes — its own, and another node that is
/// sending to it from its own step on another thread at the same moment —
/// neither deadlocks nor reorders: what a step sends is handled once that
/// step has returned, per sender in the order it was sent.
#[test]
fn a_step_sends_to_served_nodes_itself_included() {
    const EACH: u64 = 200;
    let fabric = Fabric::new();
    let nodes = [NodeId::Server(0), NodeId::Server(1)];
    let (seen_tx, seen) = mpsc::channel();
    let mut served = Vec::new();
    for (me, peer) in [(nodes[0], nodes[1]), (nodes[1], nodes[0])] {
        let endpoint = fabric.register(me);
        let postman = endpoint.postman();
        let seen = seen_tx.clone();
        // A worker's heartbeat goes on to this node itself and to its peer;
        // a node's heartbeat is recorded as `(to, from, seq)`.
        let relay = move |input: Input| match input {
            Input::Message(NodeId::Worker(_), Message::Heartbeat { seq, .. }) => {
                let on = Message::Heartbeat { node: me, seq };
                postman.send(me, on.clone()).unwrap();
                postman.send(peer, on).unwrap();
                Flow::Continue
            }
            Input::Message(from, Message::Heartbeat { seq, .. }) => {
                seen.send((me, from, seq)).unwrap();
                Flow::Continue
            }
            Input::Message(_, Message::Shutdown) => Flow::Stop,
            _ => Flow::Continue,
        };
        served.push(std::thread::spawn(move || {
            drop(endpoint.serve(None, relay))
        }));
    }
    // One worker per node, both at once: each step runs while the other
    // node's step, on the other worker's thread, sends to it.
    let workers: Vec<_> = (0u32..)
        .zip(nodes)
        .map(|(w, to)| {
            let postman = fabric.register(NodeId::Worker(w)).postman();
            std::thread::spawn(move || {
                for seq in 0..EACH {
                    postman.send(to, beat(w, seq)).unwrap();
                }
            })
        })
        .collect();
    let mut streams: std::collections::BTreeMap<_, Vec<u64>> = Default::default();
    for _ in 0..4 * EACH {
        let (to, from, seq) = seen.recv_timeout(LONG).expect("no deadlock");
        streams.entry((to, from)).or_default().push(seq);
    }
    for worker in workers {
        worker.join().unwrap();
    }
    assert_eq!(streams.len(), 4, "self and peer, on both nodes");
    for (stream, seqs) in &streams {
        assert_eq!(*seqs, (0..EACH).collect::<Vec<_>>(), "{stream:?}");
    }
    for node in nodes {
        fabric
            .send(NodeId::Scheduler, node, Message::Shutdown)
            .unwrap();
    }
    for serve in served {
        serve.join().unwrap();
    }
}

/// A `Stop` the step returns on the sending thread ends the `serve` call;
/// what is sent afterwards queues in the inbox unhandled, and the next
/// `serve` call handles it first.
#[test]
fn a_stop_handled_on_the_sending_thread_ends_the_call() {
    let fabric = Fabric::new();
    let rx = fabric.register(SERVER);
    let postman = fabric.register(NodeId::Worker(0)).postman();
    let log = Arc::new(Mutex::new(Vec::new()));
    let stopped_on = Arc::new(Mutex::new(None));
    let (handled_tx, handled) = mpsc::channel();
    let step = {
        let mut record = recorder(&log, handled_tx.clone());
        let stopped_on = Arc::clone(&stopped_on);
        move |input: Input| {
            if matches!(input, Input::Message(_, Message::Shutdown)) {
                *stopped_on.lock().unwrap() = Some(std::thread::current().id());
            }
            record(input)
        }
    };
    std::thread::scope(|scope| {
        let served = scope.spawn(|| drop(rx.serve(None, step)));
        postman.send(SERVER, beat(0, 0)).unwrap();
        // Handled, so installed: the next send runs the step here.
        handled.recv_timeout(LONG).unwrap();
        postman.send(SERVER, Message::Shutdown).unwrap();
        for seq in 1..3 {
            postman.send(SERVER, beat(0, seq)).unwrap();
        }
        served.join().unwrap();
    });
    assert_eq!(
        *stopped_on.lock().unwrap(),
        Some(std::thread::current().id())
    );
    assert_eq!(*log.lock().unwrap(), [(0, 0)]);

    std::thread::scope(|scope| {
        let served = scope.spawn(|| drop(rx.serve(None, recorder(&log, handled_tx))));
        for _ in 1..3 {
            handled
                .recv_timeout(LONG)
                .expect("the queued beats handled");
        }
        postman.send(SERVER, Message::Shutdown).unwrap();
        served.join().unwrap();
    });
    assert_eq!(*log.lock().unwrap(), [(0, 0), (0, 1), (0, 2)]);
    assert_eq!(rx.try_recv().unwrap(), None);
}

/// Registering a served node anew hands its id to the new endpoint: the old
/// `serve` call returns with what it handled, the old endpoint reports
/// `Disconnected`, and sends reach the new one — queued until it is served,
/// then run through its step.
#[test]
fn a_served_node_registered_anew_routes_to_the_new_endpoint() {
    let fabric = Fabric::new();
    let old = fabric.register(SERVER);
    let postman = fabric.register(NodeId::Worker(0)).postman();
    let (old_log, new_log) = (
        Arc::new(Mutex::new(Vec::new())),
        Arc::new(Mutex::new(Vec::new())),
    );
    let (handled_tx, handled) = mpsc::channel();
    let new_step = recorder(&new_log, handled_tx.clone());
    // Not scoped: a call that never returned would hang the test at the
    // scope's end instead of failing it.
    let (returned_tx, returned) = mpsc::channel();
    let old_step = recorder(&old_log, handled_tx);
    std::thread::spawn(move || {
        drop(old.serve(None, old_step));
        returned_tx.send(old).unwrap();
    });
    postman.send(SERVER, beat(0, 0)).unwrap();
    handled.recv_timeout(LONG).unwrap();
    let new = fabric.register(SERVER);
    let old = returned
        .recv_timeout(LONG)
        .expect("the old serve call returns");

    postman.send(SERVER, beat(0, 1)).unwrap();
    std::thread::scope(|scope| {
        let served = scope.spawn(|| drop(new.serve(None, new_step)));
        handled.recv_timeout(LONG).expect("the queued beat handled");
        postman.send(SERVER, beat(0, 2)).unwrap();
        handled.recv_timeout(LONG).expect("the next beat handled");
        postman.send(SERVER, Message::Shutdown).unwrap();
        served.join().unwrap();
    });
    assert_eq!(*old_log.lock().unwrap(), [(0, 0)]);
    assert_eq!(*new_log.lock().unwrap(), [(0, 1), (0, 2)]);
    assert!(matches!(old.try_recv(), Err(TransportError::Disconnected)));
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

// --- the client's side: `recv_from` ------------------------------------------

const CLIENT: NodeId = NodeId::Worker(0);
const THIRD: NodeId = NodeId::Worker(1);
const SHORT: Duration = Duration::from_millis(40);

/// The served node of the `recv_from` tests. A pull is answered with
/// `reply_batch`, at once when its progress is even; one with odd progress
/// is held until the next heartbeat from anyone.
struct Answering<P> {
    postman: P,
    held: Vec<(NodeId, Message)>,
}

impl<P: Postman + 'static> fluentps_transport::Step for Answering<P> {
    fn step(&mut self, input: Input) -> Flow {
        match input {
            Input::Message(
                _,
                Message::SPull {
                    worker,
                    progress,
                    keys,
                },
            ) => {
                let vals: Vec<f32> = keys.iter().map(|&k| k as f32 + 0.5).collect();
                let response = Message::PullResponse {
                    server: 0,
                    progress,
                    version: progress + 1,
                    kv: KvPairs::single(progress, vals),
                };
                self.held.push((NodeId::Worker(worker), response));
                if progress % 2 == 1 {
                    return Flow::Continue;
                }
            }
            Input::Message(_, Message::Heartbeat { .. }) => {}
            Input::Message(_, Message::Shutdown) => return Flow::Stop,
            _ => return Flow::Continue,
        }
        if !self.held.is_empty() {
            let held = std::mem::take(&mut self.held);
            self.postman.reply_batch(held).unwrap();
        }
        Flow::Continue
    }
}

/// One client of an [`Answering`] node and a third party that can reach
/// both, whatever the transport.
struct ClientRig<M> {
    /// `Worker(0)`'s mailbox: the one under test.
    client: M,
    /// `Worker(0)`'s postman and `Worker(1)`'s, the latter unfiltered.
    postman: Box<dyn Postman + Sync>,
    third: Box<dyn Postman + Sync>,
    served: std::thread::JoinHandle<()>,
    /// The injector in front of `client`, when there is one.
    injector: Option<FaultInjector>,
    /// TCP: the client node's own profile, which counts the frames its
    /// reader threads have decoded.
    decoded: Option<ProfCollector>,
    _keep: Box<dyn Mailbox>,
}

impl<M> ClientRig<M> {
    /// Have the third party put `msg` in the client's mailbox and return
    /// once it is queued there for certain. Over TCP "queued" cannot be
    /// seen from outside, but "decoded" can, and one reader thread handles
    /// one connection's frames in turn: a marker frame is sent behind `msg`,
    /// and when that has been decoded `msg` has been delivered.
    fn queue(&self, msg: Message, marker: u64) {
        let decoded = || {
            let profile = self.decoded.as_ref()?.snapshot();
            Some(
                profile
                    .spans
                    .get("wire/decode")
                    .map_or(0, |stat| stat.count),
            )
        };
        let before = decoded();
        let batch = [msg, beat(1, marker)].map(|msg| (CLIENT, msg));
        self.third.send_batch(batch.into()).unwrap();
        let Some(before) = before else {
            return; // the fabric queues as it sends
        };
        let sent = Instant::now();
        while decoded() < Some(before + 2) {
            assert!(sent.elapsed() < LONG, "the third party's frames never came");
            std::thread::yield_now();
        }
    }
}

/// `SERVER`, an [`Answering`] node, bound on `server`; the client on `net`,
/// profiled into `decoded`; the third party on `third`.
fn client_rig<S: Network, N: Network, T: Network>(
    server: &S,
    net: &N,
    third: &T,
    decoded: Option<ProfCollector>,
) -> ClientRig<N::Mailbox>
where
    N::Postman: Sync,
    T::Postman: Sync,
{
    let quiet = Profiler::disabled();
    let (postman, served) = server.bind(SERVER, &quiet).unwrap();
    let answering = Answering {
        postman,
        held: Vec::new(),
    };
    let profiler = decoded.as_ref().map(|c| c.profiler()).unwrap_or_default();
    let (client_postman, client) = net.bind(CLIENT, &profiler).unwrap();
    let (third, keep) = third.bind(THIRD, &quiet).unwrap();
    ClientRig {
        client,
        postman: Box::new(client_postman),
        third: Box::new(third),
        served: std::thread::spawn(move || drop(served.serve(None, answering))),
        injector: None,
        decoded,
        _keep: Box::new(keep),
    }
}

fn inproc_client_rig() -> ClientRig<Endpoint> {
    let fabric = Fabric::new();
    client_rig(&fabric, &fabric, &fabric, None)
}

/// The server's book stays empty of the client: it can answer the client
/// only over the connection the client reached it through.
fn tcp_client_rig() -> ClientRig<TcpNode> {
    let (server_book, book) = (AddressBook::new(), AddressBook::new());
    let rig = client_rig(&server_book, &book, &book, Some(ProfCollector::wall()));
    book.insert(SERVER, server_book.get(SERVER).expect("bound"));
    rig
}

fn faulty_tcp_client_rig() -> ClientRig<FaultyMailbox<TcpNode>> {
    let (server_book, book) = (AddressBook::new(), AddressBook::new());
    let injector = FaultInjector::passthrough();
    let net = injector.network(book.clone());
    let rig = client_rig(&server_book, &net, &book, Some(ProfCollector::wall()));
    book.insert(SERVER, server_book.get(SERVER).expect("bound"));
    ClientRig {
        injector: Some(injector),
        ..rig
    }
}

fn response_to(progress: u64) -> impl Fn(&Option<(NodeId, Message)>) -> bool {
    move |got| {
        matches!(got, Some((SERVER, Message::PullResponse { progress: p, kv, .. }))
            if *p == progress && kv.vals == [1.5f32])
    }
}

/// Nothing there, queued first, the reply, a third party meanwhile, a
/// severed sender.
fn recv_from_contract<M: Mailbox>(rig: ClientRig<M>) {
    let ask = |progress| rig.postman.send(SERVER, pull(progress)).unwrap();
    // Nobody has anything to say: before there is a connection to the peer,
    // and on one the peer is silent on (it holds a pull with odd progress).
    assert_eq!(rig.client.recv_from(SERVER, Some(SHORT)).unwrap(), None);
    ask(1);
    assert_eq!(rig.client.recv_from(SERVER, Some(SHORT)).unwrap(), None);

    // A third party's message arrives while the reply is outstanding, then
    // the reply is released: what is queued comes first, and the silence
    // above cost the connection nothing — the reply arrives.
    rig.queue(beat(1, 7), 8);
    rig.third.send(SERVER, beat(1, 0)).unwrap();
    let queued = rig.client.recv_from(SERVER, Some(LONG)).unwrap();
    assert_eq!(queued, Some((THIRD, beat(1, 7))));
    assert_eq!(
        rig.client.recv_timeout(LONG).unwrap(),
        Some((THIRD, beat(1, 8)))
    );
    let reply = rig.client.recv_from(SERVER, Some(LONG)).unwrap();
    assert!(response_to(1)(&reply), "{reply:?}");
    // Without a bound, too.
    ask(2);
    let reply = rig.client.recv_from(SERVER, None).unwrap();
    assert!(response_to(2)(&reply), "{reply:?}");

    // A severed peer's reply is judged on receipt, wherever it is read. (The
    // client's own postman is filtered too: the third party asks for it.)
    if let Some(injector) = &rig.injector {
        injector.kill(SERVER);
        rig.third.send(SERVER, pull(4)).unwrap();
        let asked = Instant::now();
        while injector.stats().blackholed == 0 {
            assert!(asked.elapsed() < LONG, "the severed reply never arrived");
            assert_eq!(rig.client.recv_from(SERVER, Some(SHORT)).unwrap(), None);
        }
    }
    rig.third.send(SERVER, Message::Shutdown).unwrap();
    rig.served.join().unwrap();
}

#[test]
fn inproc_endpoint_keeps_the_recv_from_contract() {
    recv_from_contract(inproc_client_rig());
}

#[test]
fn tcp_node_keeps_the_recv_from_contract() {
    recv_from_contract(tcp_client_rig());
}

#[test]
fn faulty_tcp_mailbox_keeps_the_recv_from_contract() {
    recv_from_contract(faulty_tcp_client_rig());
}

type Received = Result<Option<(NodeId, Message)>, TransportError>;

/// Wait for `SERVER`'s reply, say so, then wait on the inbox.
fn reply_then_inbox<M: Mailbox>(client: M, replied: mpsc::Sender<()>) -> (Received, Received) {
    let reply = client.recv_from(SERVER, Some(LONG));
    replied.send(()).unwrap();
    (reply, client.recv_timeout(LONG))
}

/// The other hop is gone too, asserted not assumed: the reply of a served
/// node comes back over the connection the request went out on — its book
/// is empty, it could not dial — and is decoded by the thread that waits
/// for it, not by a reader thread of the waiting node.
#[test]
fn a_reply_is_decoded_on_the_thread_that_waits_for_it() {
    const WAITER: &str = "the-recv-from-caller";
    for faulty in [false, true] {
        let loopback = "127.0.0.1:0".parse().unwrap();
        let server_book = AddressBook::new();
        let server = TcpNode::bind(SERVER, loopback, server_book.clone()).unwrap();
        let book = AddressBook::new();
        book.insert(SERVER, server.local_addr());
        let spans = ProfCollector::wall();
        let (quiet, prof) = (fluentps_obs::Tracer::disabled(), spans.profiler());
        let client = TcpNode::bind_profiled(CLIENT, loopback, book.clone(), quiet, prof).unwrap();
        book.insert(CLIENT, client.local_addr());
        let third = TcpNode::bind(THIRD, loopback, book).unwrap();
        let answering = Answering {
            postman: server.postman(),
            held: Vec::new(),
        };
        let served = std::thread::spawn(move || drop(server.serve(None, answering)));

        client.postman().send(SERVER, pull(0)).unwrap();
        let waiter = std::thread::Builder::new().name(WAITER.into());
        let here = spans.profiler();
        let (replied_tx, replied) = mpsc::channel();
        let waited = move || {
            assert_eq!(std::thread::current().name(), Some(WAITER));
            let _on_this_thread = here.enter(WAITER);
            if faulty {
                let client = FaultInjector::passthrough().mailbox(CLIENT, client);
                reply_then_inbox(client, replied_tx)
            } else {
                reply_then_inbox(client, replied_tx)
            }
        };
        let waiter = waiter.spawn(waited).unwrap();
        // Through the listener, for contrast, once the reply has been read
        // (what is queued would come first): a reader thread decodes it.
        replied.recv_timeout(LONG).unwrap();
        third.postman().send(CLIENT, beat(1, 0)).unwrap();
        let (reply, other) = waiter.join().unwrap();
        assert!(response_to(0)(&reply.unwrap()), "faulty mailbox: {faulty}");
        assert_eq!(other.unwrap(), Some((THIRD, beat(1, 0))));
        assert_eq!(server_book.get(CLIENT), None);

        let spans = spans.snapshot().spans;
        let decodes = |path: &str| spans.get(path).map_or(0, |stat| stat.count);
        assert_eq!(decodes(&format!("{WAITER};wire/decode")), 1, "{spans:?}");
        assert_eq!(decodes("wire/decode"), 1, "{spans:?}");
        // The client node went with its waiter.
        third.postman().send(SERVER, Message::Shutdown).unwrap();
        served.join().unwrap();
    }
}
