//! The collector/tracer pair: one [`TraceCollector`] per run hands out
//! cheap [`Tracer`] handles (one per thread or per shard), and merges their
//! ring buffers into a time-ordered [`Trace`] at the end.
//!
//! The cost contract: a *disabled* tracer is a `None` — every `record` call
//! is a single branch, no clock read, no lock, no allocation. An *enabled*
//! tracer reads the clock and takes an uncontended per-ring mutex (each
//! thread records into its own ring; the collector only touches the rings
//! at snapshot time).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fluentps_util::sync::Mutex;

use crate::clock::ClockSource;
use crate::event::{EventKind, TraceEvent, KINDS, NO_ID};
use crate::ring::RingBuffer;

/// The payload of one recorded event: which ids it concerns plus its
/// logical-time and size fields. The default is "nothing applies" —
/// [`NO_ID`] ids and zeroed fields — so call sites set only what the
/// event kind actually carries:
///
/// ```
/// # use fluentps_obs::{RecordArgs, Tracer, EventKind};
/// # let tracer = Tracer::disabled();
/// tracer.record(
///     EventKind::PushApplied,
///     RecordArgs::new().shard(0).worker(2).progress(7).v_train(5),
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordArgs {
    /// Shard the event concerns, or [`NO_ID`].
    pub shard: u32,
    /// Worker the event concerns, or [`NO_ID`].
    pub worker: u32,
    /// Worker iteration (clock value) at the event.
    pub progress: u64,
    /// Shard `V_train` at the event.
    pub v_train: u64,
    /// Payload bytes, for wire events.
    pub bytes: u64,
    /// Causal request id from the wire context, or 0 for "no context".
    pub request_id: u64,
    /// Retry ordinal of the request (0 = first attempt).
    pub attempt: u32,
}

impl Default for RecordArgs {
    fn default() -> Self {
        RecordArgs {
            shard: NO_ID,
            worker: NO_ID,
            progress: 0,
            v_train: 0,
            bytes: 0,
            request_id: 0,
            attempt: 0,
        }
    }
}

impl RecordArgs {
    /// An empty payload: both ids [`NO_ID`], all fields zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the shard id.
    pub fn shard(mut self, shard: u32) -> Self {
        self.shard = shard;
        self
    }

    /// Set the worker id.
    pub fn worker(mut self, worker: u32) -> Self {
        self.worker = worker;
        self
    }

    /// Set the worker iteration.
    pub fn progress(mut self, progress: u64) -> Self {
        self.progress = progress;
        self
    }

    /// Set the shard `V_train`.
    pub fn v_train(mut self, v_train: u64) -> Self {
        self.v_train = v_train;
        self
    }

    /// Set the payload byte count.
    pub fn bytes(mut self, bytes: u64) -> Self {
        self.bytes = bytes;
        self
    }

    /// Set the causal request id.
    pub fn request_id(mut self, request_id: u64) -> Self {
        self.request_id = request_id;
        self
    }

    /// Set the retry ordinal.
    pub fn attempt(mut self, attempt: u32) -> Self {
        self.attempt = attempt;
        self
    }

    /// Set the full causal context (`(request_id, attempt)`) in one call,
    /// for call sites that carry it as a pair.
    pub fn ctx(mut self, request_id: u64, attempt: u32) -> Self {
        self.request_id = request_id;
        self.attempt = attempt;
        self
    }
}

struct Shared {
    clock: ClockSource,
    capacity: usize,
    rings: Mutex<Vec<Arc<Mutex<RingBuffer>>>>,
    seq: AtomicU64,
}

/// Owns the rings for one traced run; hands out [`Tracer`]s and merges
/// their events into a [`Trace`].
#[derive(Clone)]
pub struct TraceCollector {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCollector")
            .field("capacity", &self.shared.capacity)
            .field("rings", &self.shared.rings.lock().len())
            .finish()
    }
}

impl TraceCollector {
    /// A collector reading time from `clock`, with `capacity` events per
    /// tracer ring.
    pub fn new(clock: ClockSource, capacity: usize) -> Self {
        TraceCollector {
            shared: Arc::new(Shared {
                clock,
                capacity,
                rings: Mutex::new(Vec::new()),
                seq: AtomicU64::new(0),
            }),
        }
    }

    /// A wall-clock collector whose epoch is now.
    pub fn wall(capacity: usize) -> Self {
        Self::new(ClockSource::wall(), capacity)
    }

    /// Register a new ring and return an enabled tracer writing into it.
    pub fn tracer(&self) -> Tracer {
        let ring = Arc::new(Mutex::new(RingBuffer::new(self.shared.capacity)));
        self.shared.rings.lock().push(Arc::clone(&ring));
        Tracer(Some(TracerInner {
            ring,
            shared: Arc::clone(&self.shared),
        }))
    }

    /// Seconds since the trace epoch on this collector's clock.
    pub fn now(&self) -> f64 {
        self.shared.clock.now()
    }

    /// An incremental reader over this collector's rings, for streaming
    /// events out while the run is live. Each cursor tracks its own
    /// watermark; use one cursor per consumer.
    pub fn cursor(&self) -> TraceCursor {
        TraceCursor {
            shared: Arc::clone(&self.shared),
            last_seq: None,
            delivered: 0,
        }
    }

    /// Per-kind totals ever recorded and events lost to ring overwriting —
    /// a snapshot's `counts` and `dropped` without copying or sorting a
    /// single event.
    pub fn totals(&self) -> ([u64; KINDS], u64) {
        let (mut counts, mut dropped) = ([0u64; KINDS], 0);
        for ring in self.shared.rings.lock().iter() {
            add_totals(&ring.lock(), &mut counts, &mut dropped);
        }
        (counts, dropped)
    }

    /// Merge every ring into one trace, ordered by `(ts, seq)`.
    ///
    /// Non-destructive: tracers keep recording afterwards.
    pub fn snapshot(&self) -> Trace {
        let rings = self.shared.rings.lock();
        let mut events = Vec::new();
        let mut counts = [0u64; KINDS];
        let mut dropped = 0;
        for ring in rings.iter() {
            let r = ring.lock();
            events.extend(r.drain_ordered());
            add_totals(&r, &mut counts, &mut dropped);
        }
        events.sort_by(|a, b| {
            a.ts.partial_cmp(&b.ts)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.seq.cmp(&b.seq))
        });
        Trace {
            events,
            counts,
            dropped,
        }
    }
}

fn add_totals(ring: &RingBuffer, counts: &mut [u64; KINDS], dropped: &mut u64) {
    for (total, n) in counts.iter_mut().zip(ring.seen_all()) {
        *total += n;
    }
    *dropped += ring.overwritten();
}

/// Incremental reader over a [`TraceCollector`]'s rings: each
/// [`TraceCursor::poll`] returns only the events recorded since the last
/// poll, together with exact emit/loss accounting. This is what a trace
/// streamer drains on its batching cadence — polling never blocks
/// recorders for longer than a snapshot would.
pub struct TraceCursor {
    shared: Arc<Shared>,
    /// Highest `seq` delivered so far (`None` before the first poll).
    last_seq: Option<u64>,
    /// Cumulative events delivered across polls.
    delivered: u64,
}

/// One [`TraceCursor::poll`] result.
#[derive(Debug, Clone, Default)]
pub struct CursorBatch {
    /// Fresh events since the previous poll, in `seq` order.
    pub events: Vec<TraceEvent>,
    /// Total events ever recorded on the collector, as of this poll.
    pub emitted: u64,
    /// Events lost before this cursor could deliver them (ring
    /// overwrites). Monotone across polls; after the final poll of an
    /// orderly shutdown, `emitted == delivered + dropped` exactly.
    pub dropped: u64,
}

impl TraceCursor {
    /// Drain everything recorded since the last poll.
    pub fn poll(&mut self) -> CursorBatch {
        let rings = self.shared.rings.lock();
        let mut fresh = Vec::new();
        let mut emitted = 0u64;
        for ring in rings.iter() {
            let r = ring.lock();
            emitted += r.seen_all().iter().sum::<u64>();
            for ev in r.drain_ordered() {
                if self.last_seq.is_none_or(|s| ev.seq > s) {
                    fresh.push(ev);
                }
            }
        }
        drop(rings);
        fresh.sort_by_key(|e| e.seq);
        if let Some(last) = fresh.last() {
            self.last_seq = Some(last.seq);
        }
        self.delivered += fresh.len() as u64;
        // Every event counted in `emitted` is either delivered (now or in a
        // previous poll) or gone for good — overwritten before delivery, or
        // sequenced behind the watermark by a racing recorder. Neither kind
        // can be delivered later, so this difference is exact and monotone.
        let dropped = emitted.saturating_sub(self.delivered);
        CursorBatch {
            events: fresh,
            emitted,
            dropped,
        }
    }

    /// Cumulative events delivered by this cursor.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

struct TracerInner {
    ring: Arc<Mutex<RingBuffer>>,
    shared: Arc<Shared>,
}

/// A per-thread (or per-shard) recording handle. `Tracer::disabled()` is
/// the free default: every method is a branch on `None`.
#[derive(Default)]
pub struct Tracer(Option<TracerInner>);

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Tracer")
            .field(&if self.0.is_some() {
                "enabled"
            } else {
                "disabled"
            })
            .finish()
    }
}

impl Clone for Tracer {
    /// A clone shares the same ring as the original.
    fn clone(&self) -> Self {
        Tracer(self.0.as_ref().map(|inner| TracerInner {
            ring: Arc::clone(&inner.ring),
            shared: Arc::clone(&inner.shared),
        }))
    }
}

impl Tracer {
    /// A tracer that records nothing, at no cost.
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// Whether events will actually be recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Seconds since the trace epoch; 0 when disabled. Use to bracket a
    /// span for [`Tracer::record_span`].
    pub fn now(&self) -> f64 {
        match &self.0 {
            Some(inner) => inner.shared.clock.now(),
            None => 0.0,
        }
    }

    /// Record an instantaneous event carrying `args` (ids default to
    /// [`NO_ID`] — set only what applies).
    pub fn record(&self, kind: EventKind, args: RecordArgs) {
        if let Some(inner) = &self.0 {
            let ts = inner.shared.clock.now();
            inner.push(TraceEvent {
                ts,
                dur: 0.0,
                kind,
                shard: args.shard,
                worker: args.worker,
                progress: args.progress,
                v_train: args.v_train,
                bytes: args.bytes,
                seq: 0,
                request_id: args.request_id,
                attempt: args.attempt,
            });
        }
    }

    /// Record a duration span started at `start_ts` (a prior
    /// [`Tracer::now`]) and ending now.
    pub fn record_span(&self, kind: EventKind, start_ts: f64, args: RecordArgs) {
        if let Some(inner) = &self.0 {
            let end = inner.shared.clock.now();
            inner.push(TraceEvent {
                ts: start_ts,
                dur: (end - start_ts).max(0.0),
                kind,
                shard: args.shard,
                worker: args.worker,
                progress: args.progress,
                v_train: args.v_train,
                bytes: args.bytes,
                seq: 0,
                request_id: args.request_id,
                attempt: args.attempt,
            });
        }
    }
}

impl TracerInner {
    fn push(&self, mut ev: TraceEvent) {
        ev.seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        self.ring.lock().push(ev);
    }
}

/// A merged, time-ordered view of one run's events.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events ordered by `(ts, seq)`. May be a suffix of the run if rings
    /// overflowed — check [`Trace::dropped`].
    pub events: Vec<TraceEvent>,
    /// Total events recorded per kind (indexed by [`EventKind::index`]),
    /// counted even when the event itself was overwritten.
    pub counts: [u64; KINDS],
    /// Events lost to ring overwriting (`counts` still include them).
    pub dropped: u64,
}

impl Trace {
    /// Total events of `kind` ever recorded (robust to ring overflow).
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total events ever recorded, across kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::event::NO_ID;

    fn ev(shard: u32, worker: u32, progress: u64, v_train: u64) -> RecordArgs {
        RecordArgs::new()
            .shard(shard)
            .worker(worker)
            .progress(progress)
            .v_train(v_train)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.record(EventKind::PushApplied, ev(0, 0, 1, 1));
        t.record_span(EventKind::BarrierWait, 0.0, ev(0, 0, 1, 1));
        assert_eq!(t.now(), 0.0);
    }

    #[test]
    fn record_args_default_is_no_id() {
        let args = RecordArgs::new();
        assert_eq!(args.shard, NO_ID);
        assert_eq!(args.worker, NO_ID);
        assert_eq!((args.progress, args.v_train, args.bytes), (0, 0, 0));
        assert_eq!(args.bytes(9).bytes, 9);
    }

    #[test]
    fn default_tracer_is_disabled() {
        assert!(!Tracer::default().is_enabled());
    }

    #[test]
    fn events_merge_in_virtual_time_order() {
        let clock = VirtualClock::new();
        let col = TraceCollector::new(ClockSource::virtual_clock(Arc::clone(&clock)), 64);
        let t1 = col.tracer();
        let t2 = col.tracer();

        clock.set(1.0);
        t2.record(EventKind::PullRequested, ev(0, 1, 5, 0));
        clock.set(2.0);
        t1.record(EventKind::PullDeferred, ev(0, 1, 5, 0));
        clock.set(3.0);
        t2.record(EventKind::DprReleased, ev(0, 1, 5, 1));

        let trace = col.snapshot();
        assert_eq!(trace.events.len(), 3);
        let kinds: Vec<EventKind> = trace.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::PullRequested,
                EventKind::PullDeferred,
                EventKind::DprReleased
            ]
        );
        assert_eq!(trace.count(EventKind::PullDeferred), 1);
        assert_eq!(trace.total(), 3);
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn counts_survive_ring_overflow() {
        let col = TraceCollector::wall(4);
        let t = col.tracer();
        for i in 0..100 {
            t.record(
                EventKind::WireSend,
                RecordArgs::new().worker(0).progress(i).bytes(64),
            );
        }
        let trace = col.snapshot();
        assert_eq!(trace.events.len(), 4);
        assert_eq!(trace.count(EventKind::WireSend), 100);
        assert_eq!(trace.dropped, 96);
    }

    #[test]
    fn spans_carry_duration() {
        let clock = VirtualClock::new();
        let col = TraceCollector::new(ClockSource::virtual_clock(Arc::clone(&clock)), 8);
        let t = col.tracer();
        clock.set(1.0);
        let start = t.now();
        clock.set(1.5);
        t.record_span(
            EventKind::BarrierWait,
            start,
            RecordArgs::new().worker(2).progress(7),
        );
        let trace = col.snapshot();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].ts, 1.0);
        assert_eq!(trace.events[0].dur, 0.5);
    }

    #[test]
    fn cursor_delivers_incrementally_and_accounts_for_overwrites() {
        let col = TraceCollector::wall(4);
        let t = col.tracer();
        let mut cur = col.cursor();

        t.record(EventKind::PushApplied, ev(0, 0, 1, 1));
        t.record(EventKind::PushApplied, ev(0, 0, 2, 2));
        let b = cur.poll();
        assert_eq!(b.events.len(), 2);
        assert_eq!((b.emitted, b.dropped), (2, 0));

        // Nothing new: empty batch, accounting unchanged.
        let b = cur.poll();
        assert!(b.events.is_empty());
        assert_eq!((b.emitted, b.dropped), (2, 0));

        // Overflow the ring between polls: capacity 4, 10 new events, so 6
        // are gone before this cursor could see them.
        for i in 0..10 {
            t.record(EventKind::WireSend, ev(0, 0, i, 0));
        }
        let b = cur.poll();
        assert_eq!(b.events.len(), 4);
        assert_eq!((b.emitted, b.dropped), (12, 6));
        assert_eq!(cur.delivered(), 6);
        assert_eq!(b.emitted, cur.delivered() + b.dropped);

        // Events are in seq order and strictly newer than the watermark.
        let seqs: Vec<u64> = b.events.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
    }

    #[test]
    fn cursor_sees_rings_registered_after_creation() {
        let col = TraceCollector::wall(8);
        let mut cur = col.cursor();
        assert!(cur.poll().events.is_empty());
        let t = col.tracer();
        t.record(EventKind::PullRequested, ev(1, 2, 3, 4));
        let b = cur.poll();
        assert_eq!(b.events.len(), 1);
        assert_eq!(b.events[0].shard, 1);
    }

    #[test]
    fn cloned_tracer_shares_its_ring() {
        let col = TraceCollector::wall(8);
        let t = col.tracer();
        let u = t.clone();
        t.record(EventKind::PushApplied, ev(0, 0, 1, 1));
        u.record(EventKind::PushApplied, ev(0, 0, 2, 2));
        let trace = col.snapshot();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.dropped, 0);
    }
}
