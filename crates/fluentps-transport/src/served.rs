//! The one serving protocol behind both
//! [`Mailbox::serve`](crate::Mailbox::serve) overrides: install, deliver,
//! stop, tick. A [`Served`] is a node's input as seen by whoever consumes
//! it — the inbox channel while nobody serves the node, the installed
//! [`Step`] while a `serve` call is in progress — and the thread that
//! delivers a message runs the step itself: a TCP node's reader thread, an
//! in-process sender (DESIGN.md §18). The thread that called `serve` only
//! waits, for `Stop`, for a quiet `wake` interval, or for messages queued by
//! a thread that could not run the step itself.
//!
//! One lock covers the state, never a step: a thread takes the step out to
//! run it (`running`), so a step may send anywhere — itself included —
//! without deadlocking. A thread that is inside a step never waits for
//! another: its message joins the target's queue, which the target's runner
//! drains before it puts the step back, or else the target's `serve` caller
//! runs. Every other thread waits for the step to be free and then runs it
//! over what is queued first, so nothing overtakes a message from the same
//! sender.
//!
//! A message keeps the connection it arrived on through the queue: a TCP
//! reader thread says which one it reads ([`reading`]), and while the step
//! handles the message, [`handling`] names its sender and that connection —
//! where a reply to the sender goes back (`TcpPostman::reply_batch`), even
//! when a newer connection from the same id has come up meanwhile.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Condvar, MutexGuard};
use std::time::{Duration, Instant};

use fluentps_util::sync::{Mutex, Receiver, Sender};

use crate::msg::{Message, NodeId};
use crate::{Flow, Input, Step};

pub(crate) type Envelope = (NodeId, Message);

thread_local! {
    /// Whether this thread is inside a step right now.
    static STEPPING: Cell<bool> = const { Cell::new(false) };
    /// The connection this thread reads, as its transport numbers them; 0
    /// for none.
    static READING: Cell<u64> = const { Cell::new(0) };
    /// The sender of the message this thread's step is handling, and the
    /// connection it arrived on.
    static HANDLING: Cell<Option<(NodeId, u64)>> = const { Cell::new(None) };
}

/// This thread reads connection `id` (not 0): what it delivers from now on
/// arrived on that one.
pub(crate) fn reading(id: u64) {
    READING.with(|r| r.set(id));
}

/// While a step handles a message: who sent it, and the connection it
/// arrived on (0 when it came from no connection, or through the inbox).
pub(crate) fn handling() -> Option<(NodeId, u64)> {
    HANDLING.with(Cell::get)
}

#[derive(Default)]
struct State {
    /// The installed step, while no thread runs it.
    step: Option<Box<dyn Step>>,
    /// A `serve` call is in progress and its step has not said `Stop`.
    live: bool,
    /// A thread has the step out and is running it.
    running: bool,
    /// Where messages go while nobody serves the node; `None` once it is
    /// closed.
    inbox: Option<Sender<Envelope>>,
    /// Messages for the step, in arrival order, each with the connection
    /// it arrived on.
    queue: VecDeque<(Envelope, u64)>,
    /// Messages the step was called with; `serve` reads idleness off it.
    handled: u64,
    /// Threads waiting for the step to be free.
    waiting: u32,
    /// The `serve` caller waits for the running step to come back.
    watching: bool,
    /// The node is gone from its transport: what is queued afterwards is
    /// handled by nobody, and a `serve` call returns.
    closed: bool,
}

impl State {
    fn park(&self, env: Envelope) -> bool {
        self.inbox.as_ref().is_some_and(|tx| tx.send(env).is_ok())
    }
}

/// A node's input: the inbox it parks messages in while nobody serves it,
/// and the step of the [`Mailbox::serve`](crate::Mailbox::serve) call in
/// progress.
pub(crate) struct Served {
    node: NodeId,
    state: Mutex<State>,
    /// Signalled when the step is free and someone waits for it.
    free: Condvar,
    /// Signalled when the `serve` caller has something to do: a queue
    /// nobody runs, a stop, a step it watches come back.
    serving: Condvar,
}

/// Clears `running` if a step panics, so that nobody waits for it forever:
/// the node counts as stopped, and its `serve` call panics in turn.
struct Running<'a>(&'a Served);

impl Drop for Running<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut state = self.0.lock();
            (state.running, state.live) = (false, false);
            self.0.free.notify_all();
            self.0.serving.notify_all();
        }
    }
}

impl Served {
    /// The input of `node`, parking in `inbox` while nobody serves it.
    pub(crate) fn new(node: NodeId, inbox: Sender<Envelope>) -> Self {
        let state = State {
            inbox: Some(inbox),
            ..State::default()
        };
        Served {
            node,
            state: Mutex::new(state),
            free: Condvar::new(),
            serving: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock()
    }

    fn wait<'a>(cv: &Condvar, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        cv.wait(state).unwrap_or_else(|e| e.into_inner())
    }

    /// Whether a `serve` call is in progress and its step has not stopped.
    pub(crate) fn serving(&self) -> bool {
        self.lock().live
    }

    /// Put `env` in the inbox, under the lock that installs a step — so it
    /// cannot land behind a `serve` call that has just drained the inbox.
    /// False once nobody can receive it.
    pub(crate) fn park(&self, env: Envelope) -> bool {
        self.lock().park(env)
    }

    /// Hand `msgs` to whoever consumes this node's input: the inbox while
    /// nobody serves it; else the step, run right here over what is queued
    /// and then `msgs`, followed by one [`Input::Dry`] when `dry` says
    /// nothing further is ready where they came from. A thread inside a step
    /// only queues them. False when they were parked and nobody can receive
    /// them.
    pub(crate) fn deliver(&self, msgs: impl IntoIterator<Item = Envelope>, dry: bool) -> bool {
        let stepping = STEPPING.with(Cell::get);
        let mut state = self.lock();
        while state.live && state.running && !stepping {
            state.waiting += 1;
            state = Self::wait(&self.free, state);
            state.waiting -= 1;
        }
        if !state.live {
            return msgs.into_iter().all(|env| state.park(env));
        }
        let via = READING.with(Cell::get);
        state.queue.extend(msgs.into_iter().map(|env| (env, via)));
        if state.running {
            // Whoever runs the step drains the queue before letting go.
        } else if stepping {
            self.serving.notify_all();
        } else {
            drop(self.run(state, None, dry));
        }
        true
    }

    /// Take the step out and run it: `first`, then everything queued, then
    /// — when `dry` and a message was handled, or right away when there is
    /// no `first` — one `Dry`, until the queue stays empty. On `Stop` what
    /// is still queued goes to the inbox, unhandled.
    fn run<'a>(
        &'a self,
        mut state: MutexGuard<'a, State>,
        mut first: Option<Input>,
        dry: bool,
    ) -> MutexGuard<'a, State> {
        let mut step = state.step.take().expect("a served node has a step");
        state.running = true;
        let running = Running(self);
        let mut dry_owed = dry && first.is_none();
        loop {
            let (input, via) = if let Some(input) = first.take() {
                (input, None)
            } else if let Some(((from, msg), via)) = state.queue.pop_front() {
                state.handled += 1;
                dry_owed = dry;
                (Input::Message(from, msg), Some((from, via)))
            } else if std::mem::take(&mut dry_owed) {
                (Input::Dry, None)
            } else {
                break;
            };
            drop(state);
            let outer = STEPPING.with(|s| s.replace(true));
            let outer_via = HANDLING.with(|h| h.replace(via));
            let flow = step.step(input);
            HANDLING.with(|h| h.set(outer_via));
            STEPPING.with(|s| s.set(outer));
            state = self.lock();
            if flow == Flow::Stop {
                state.live = false;
                for (env, _) in std::mem::take(&mut state.queue) {
                    state.park(env);
                }
                break;
            }
        }
        drop(running);
        (state.step, state.running) = (Some(step), false);
        if state.waiting > 0 {
            self.free.notify_all();
        }
        if state.watching || !state.live {
            self.serving.notify_all();
        }
        state
    }

    /// Install `step` and wait until it says `Stop` (or the node closes),
    /// then hand it back. Everything `backlog` — the inbox — holds is
    /// handled first, under the lock parking takes, then `Dry` is reported.
    /// With `wake` set, `Tick` is reported whenever a whole interval passed
    /// in which no message was handled and the step was not running.
    pub(crate) fn install<S: Step>(
        &self,
        wake: Option<Duration>,
        step: S,
        backlog: &Receiver<Envelope>,
    ) -> S {
        let mut state = self.lock();
        let idle = state.step.is_none() && !state.running && !state.live;
        assert!(idle, "{} is being served already", self.node);
        let backlog = std::iter::from_fn(|| backlog.try_recv().ok());
        state.queue.extend(backlog.map(|env| (env, 0)));
        state.step = Some(Box::new(step));
        state.live = !state.closed;
        state = self.run(state, None, true);

        let mut seen = state.handled;
        let mut tick_at = wake.map(|wake| Instant::now() + wake);
        loop {
            if state.running {
                state.watching = true;
                state = Self::wait(&self.serving, state);
                state.watching = false;
                continue;
            }
            if !state.live {
                break;
            }
            if !state.queue.is_empty() {
                state = self.run(state, None, true);
                continue;
            }
            if state.handled != seen {
                seen = state.handled;
                tick_at = wake.map(|wake| Instant::now() + wake);
            }
            let Some(at) = tick_at else {
                state = Self::wait(&self.serving, state);
                continue;
            };
            let left = at.saturating_duration_since(Instant::now());
            if !left.is_zero() {
                let woken = self.serving.wait_timeout(state, left);
                state = woken.unwrap_or_else(|e| e.into_inner()).0;
                continue;
            }
            state = self.run(state, Some(Input::Tick), true);
            seen = state.handled;
            tick_at = wake.map(|wake| Instant::now() + wake);
        }
        let step: Box<dyn Any> = state.step.take().expect("the step did not panic");
        *step.downcast().expect("the step this call installed")
    }

    /// The node is gone from its transport: a `serve` call in progress
    /// returns once its step is free, and the inbox closes — its receiver
    /// reports `Disconnected` once it is empty.
    pub(crate) fn close(&self) {
        let mut state = self.lock();
        (state.closed, state.live, state.inbox) = (true, false, None);
        self.serving.notify_all();
    }
}
