//! The trace fold: the one per-event pass every derived figure comes from.
//!
//! [`StreamAnalyzer`] consumes events one at a time — fed live by
//! [`crate::ClusterCollector`]'s merge loop, polled off a local
//! [`TraceCollector`] by a [`HealthTap`], or replayed from a buffered
//! [`crate::Trace`] by [`crate::analyze()`] — and maintains:
//!
//! * the all-run figures ([`StreamAnalyzer::analysis`]): per-worker time
//!   breakdowns, per-shard sync health, the staleness-gap distribution with
//!   its blocked/granted split and the wire receives no send matched. The
//!   three matchers that *define* "wire time", "DPR residence" and "blocked
//!   at gap k" live here and nowhere else: the blocked-at-gap matcher in
//!   [`StreamAnalyzer::ingest`], the wire and defer→release pairings in
//!   `WirePairing` and `DprPairing`, which the Chrome exporter, the
//!   critical path and the waterfalls' wire latencies call too;
//! * tumbling windows of tail latency: per-shard wire and DPR-residence
//!   histograms, barrier-wait spans, staleness at pull, per-worker progress
//!   rates and straggler spread — kept in [`WindowedHistogram`] rings with
//!   sliding views by merging retained windows.
//!
//! State is O(workers + shards + gaps) for the all-run figures,
//! O(`windows`) per histogram ring, each worker's blocked intervals that a
//! send still in flight may overlap, and the matchers' open entries: sends
//! and pulls not yet paired and DPRs not yet released. Unpaired sends and
//! pulls are dropped once `windows` windows have closed since they were
//! last touched, so a long run holds what the last `windows` windows
//! produced, not one entry per pull.
//!
//! ## Window semantics
//!
//! The epoch is the first timestamp [`StreamAnalyzer::advance_to`] sees;
//! window `i` covers `[epoch + i·w, epoch + (i+1)·w)`. `advance_to` is the
//! *only* thing that moves the current window — each event records into the
//! window that is current when it is ingested, so a late (clock-skewed)
//! event counts in the present rather than corrupting closed history.
//! `window_secs = ∞` ([`StreamConfig::all_run`]) keeps one never-closing
//! window, so nothing is ever aged out: the mode [`crate::analyze()`] runs.
//!
//! [`HealthEngine`] bundles a [`StreamAnalyzer`] with an
//! [`AlertEngine`](crate::alert::AlertEngine) behind a shared handle that
//! every layer (collector ingest, HTTP `/slo` + `/alerts`, Prometheus
//! gauges, `repro watch`) can clone.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use fluentps_util::sync::Mutex;

use crate::alert::{AlertEngine, AlertRule, AlertTransition};
use crate::analyze::{Analysis, GapStat, ServerPhases, ShardHealth, WorkerBreakdown};
use crate::event::{EventKind, TraceEvent, KINDS, NO_ID};
use crate::hist::Histogram;
use crate::metrics::MetricsRegistry;
use crate::tracer::TraceCollector;

/// Cap on windows closed per `advance_to` call: beyond this many empty
/// windows the analyzer fast-forwards, since every rule streak and ring
/// slot has long since saturated/cleared.
const MAX_CLOSES_PER_ADVANCE: u64 = 64;

/// How many closed [`WindowStats`] the analyzer keeps for `/slo`.
const CLOSED_KEPT: usize = 16;

/// A ring of [`Histogram`]s, one per tumbling window, rotated in place.
///
/// Slot `index % len` holds window `index`; rotating to a new head clears
/// only the slots being reused, so the last `len` windows stay readable
/// for sliding-window merges.
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    ring: Vec<Histogram>,
    head: u64,
    started: bool,
}

impl WindowedHistogram {
    /// Ring retaining `windows` tumbling windows (at least 1).
    pub fn new(windows: usize) -> WindowedHistogram {
        WindowedHistogram {
            ring: vec![Histogram::new(); windows.max(1)],
            head: 0,
            started: false,
        }
    }

    fn slot(&self, index: u64) -> usize {
        (index % self.ring.len() as u64) as usize
    }

    /// Make `index` the current window, clearing every slot being reused.
    /// Rotating backwards is a no-op (windows never reopen).
    pub fn rotate_to(&mut self, index: u64) {
        if !self.started {
            // All slots are empty; just adopt the head.
            self.started = true;
            self.head = index;
            return;
        }
        if index <= self.head {
            return;
        }
        let len = self.ring.len() as u64;
        let steps = (index - self.head).min(len);
        for w in (index + 1 - steps)..=index {
            let s = self.slot(w);
            self.ring[s].clear();
        }
        self.head = index;
    }

    /// Record into window `index` (clamped into the retained range after
    /// rotating the ring forward to `index` if needed).
    pub fn record(&mut self, index: u64, value: u64) {
        self.rotate_to(index);
        let oldest = (self.head + 1).saturating_sub(self.ring.len() as u64);
        let idx = index.clamp(oldest, self.head);
        let s = self.slot(idx);
        self.ring[s].record(value);
    }

    /// The current (head) window's histogram.
    pub fn current(&self) -> &Histogram {
        &self.ring[self.slot(self.head)]
    }

    /// Window `index`'s histogram, if still retained.
    pub fn window(&self, index: u64) -> Option<&Histogram> {
        let oldest = (self.head + 1).saturating_sub(self.ring.len() as u64);
        if self.started && (oldest..=self.head).contains(&index) {
            Some(&self.ring[self.slot(index)])
        } else {
            None
        }
    }

    /// Index of the current window.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Merge of the last `k` retained windows (a sliding view).
    pub fn sliding(&self, k: usize) -> Histogram {
        let mut merged = Histogram::new();
        if !self.started {
            return merged;
        }
        let k = (k.max(1) as u64).min(self.ring.len() as u64);
        let oldest = (self.head + 1).saturating_sub(k);
        for w in oldest..=self.head {
            if let Some(h) = self.window(w) {
                merged.merge(h);
            }
        }
        merged
    }
}

/// Windowing parameters for a [`StreamAnalyzer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Tumbling window length in seconds on the trace clock.
    /// `f64::INFINITY` keeps one all-run window.
    pub window_secs: f64,
    /// How many windows each [`WindowedHistogram`] ring retains (≥ 1).
    pub windows: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window_secs: 1.0,
            windows: 8,
        }
    }
}

impl StreamConfig {
    /// One never-closing window covering the whole run: the mode
    /// [`crate::analyze()`] replays a buffered trace in.
    pub fn all_run() -> StreamConfig {
        StreamConfig {
            window_secs: f64::INFINITY,
            windows: 1,
        }
    }
}

/// Summary of one closed tumbling window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowStats {
    /// Window index (0 = the window containing the epoch).
    pub index: u64,
    /// Window start on the trace clock (the epoch for an all-run window).
    pub start_ts: f64,
    /// Events ingested while this window was current.
    pub events: u64,
    /// `PullRequested` events in the window.
    pub pulls: u64,
    /// `PullDeferred` events in the window.
    pub deferred: u64,
    /// p99 wire latency in µs (worst shard; bucketed upper bound).
    pub wire_p99_us: u64,
    /// p99 DPR residence in µs (worst shard; bucketed upper bound).
    pub dpr_p99_us: u64,
    /// p99 `BarrierWait` span in µs (bucketed upper bound).
    pub barrier_p99_us: u64,
    /// Largest staleness gap seen at pull time in the window.
    pub max_gap: u64,
    /// Fastest-minus-slowest worker progress at window close.
    pub spread: u64,
    /// Collector drop fraction (`dropped / emitted`) at window close.
    pub drop_rate: f64,
}

impl WindowStats {
    /// Fraction of the window's pulls that were deferred.
    pub fn block_rate(&self) -> f64 {
        if self.pulls == 0 {
            0.0
        } else {
            self.deferred as f64 / self.pulls as f64
        }
    }
}

/// Key identifying one logical pull: shards answer at most one pull per
/// `(shard, worker, progress)` triple, so defer/release pairs and
/// granted/blocked outcomes all match on it.
type PullKey = (u32, u32, u64);

/// The blocked-at-gap matcher's state for one pull key: pairs
/// `PullRequested` gaps with `PullDeferred` events FIFO, in either arrival
/// order (a collector merge can put a shard's deferral before the worker's
/// request), marking exactly the first `min(requests, defers)` requests.
#[derive(Debug, Default)]
struct DeferMatch {
    /// `PullDeferred` events seen before their request.
    unmatched: u64,
    /// Gaps of requests awaiting a deferral, oldest first.
    pending: VecDeque<u64>,
    /// Window that last touched this entry (see `close_current`).
    window: u64,
}

/// A stamped `WireSend` waiting on its `(shard, worker)` queue for the
/// receive of the same `(request_id, attempt)`.
#[derive(Debug)]
struct Sent {
    ts: f64,
    request_id: u64,
    attempt: u32,
    /// Window the send was queued in (see [`WirePairing::age_out`]).
    window: u64,
}

/// The one wire pairing rule, exact pairing only: a receive takes the
/// queued send of its own `(request_id, attempt)` on its `(shard, worker)`
/// link, wherever it sits, so one lost or duplicated frame costs its own
/// sample and nothing else. A receive with no such send — unstamped, its
/// send lost to ring overwrite, a fault-injected duplicate — is counted by
/// the caller, never guessed. Sends a receive skips stay queued: requests
/// and replies share the queue, so a skipped send is as likely still in
/// flight the other way as lost; lost ones age out in
/// [`WirePairing::age_out`].
#[derive(Debug, Default)]
pub(crate) struct WirePairing {
    in_flight: HashMap<(u32, u32), VecDeque<Sent>>,
}

impl WirePairing {
    /// Queue a send on `link` (`(shard, worker)`) in `window`.
    pub(crate) fn send(
        &mut self,
        link: (u32, u32),
        request_id: u64,
        attempt: u32,
        ts: f64,
        window: u64,
    ) {
        // Only a stamped send can be paired: queue nothing a receive would
        // have to guess at.
        if request_id != 0 {
            self.in_flight.entry(link).or_default().push_back(Sent {
                ts,
                request_id,
                attempt,
                window,
            });
        }
    }

    /// The timestamp of the send a receive on `link` answers, taken off
    /// its queue; `None` when no queued send carries its id.
    pub(crate) fn recv(&mut self, link: (u32, u32), request_id: u64, attempt: u32) -> Option<f64> {
        let queue = self.in_flight.get_mut(&link)?;
        let at = queue
            .iter()
            .position(|s| (s.request_id, s.attempt) == (request_id, attempt))?;
        queue.remove(at).map(|sent| sent.ts)
    }

    /// When the earliest send still queued on a link of `worker` was made.
    fn oldest_send(&self, worker: u32) -> Option<f64> {
        let fronts = self.in_flight.iter().filter(|(link, _)| link.1 == worker);
        fronts
            .filter_map(|(_, q)| q.front().map(|s| s.ts))
            .reduce(f64::min)
    }

    /// Drop the oldest sends of every link while `stale` says their window
    /// is gone.
    fn age_out(&mut self, stale: impl Fn(u64) -> bool) {
        for queue in self.in_flight.values_mut() {
            while queue.front().is_some_and(|s| stale(s.window)) {
                queue.pop_front();
            }
        }
    }
}

/// Open intervals a worker's [`Busy`] keeps before it first looks for
/// ones no later interval can reach.
const BUSY_KEPT: usize = 64;

/// The union of one worker's blocked time — its `BarrierWait` spans and its
/// matched send→receive wire intervals — grown one interval at a time. A
/// worker's requests to different servers are in flight at once, and it
/// waits at a barrier while its pull is on the wire, so the union counts
/// each such instant once where a sum would count it for every interval.
#[derive(Debug, Default)]
struct Busy {
    /// Disjoint intervals sorted by start: those a later one may still
    /// overlap.
    open: Vec<(f64, f64)>,
    /// `open`'s length at which to look for intervals to forget.
    forget_at: usize,
}

impl Busy {
    /// Add `[start, end]`; returns how much the union grew.
    fn add(&mut self, start: f64, end: f64) -> f64 {
        if end <= start {
            return 0.0;
        }
        // `open[i..j]` are the intervals that overlap or touch it.
        let i = self.open.partition_point(|&(_, e)| e < start);
        let j = i + self.open[i..].partition_point(|&(s, _)| s <= end);
        let touched = &self.open[i..j];
        let covered: f64 = touched
            .iter()
            .map(|&(s, e)| e.min(end) - s.max(start))
            .sum();
        let merged = (
            touched.first().map_or(start, |&(s, _)| s.min(start)),
            touched.last().map_or(end, |&(_, e)| e.max(end)),
        );
        self.open.splice(i..j, [merged]);
        (end - start) - covered
    }

    /// Whether `open` has grown enough to look for intervals to forget.
    fn crowded(&self) -> bool {
        self.open.len() >= self.forget_at.max(BUSY_KEPT)
    }

    /// Forget the intervals that end before `t`, the earliest start an
    /// interval still to come can have; look again once `open` has doubled,
    /// so a `t` held back by a send that is never answered costs constant
    /// time per interval.
    fn forget_before(&mut self, t: f64) {
        let done = self.open.partition_point(|&(_, e)| e < t);
        self.open.drain(..done);
        self.forget_at = 2 * self.open.len();
    }
}

/// The one defer→release pairing rule: a `DprReleased` answers the latest
/// unanswered `PullDeferred` of the same pull key.
#[derive(Debug, Default)]
pub(crate) struct DprPairing {
    open: HashMap<PullKey, TraceEvent>,
}

impl DprPairing {
    /// Feed one event: a `PullDeferred` opens its pull key (in place of an
    /// unanswered one), a `DprReleased` closes it and returns the deferral
    /// it answers; nothing else touches the pairing.
    pub(crate) fn feed(&mut self, ev: &TraceEvent) -> Option<TraceEvent> {
        let key = (ev.shard, ev.worker, ev.progress);
        match ev.kind {
            EventKind::PullDeferred => {
                self.open.insert(key, *ev);
                None
            }
            EventKind::DprReleased => self.open.remove(&key),
            _ => None,
        }
    }

    /// Deferrals on `shard` no release has answered yet.
    fn open_on(&self, shard: u32) -> u64 {
        self.open.keys().filter(|k| k.0 == shard).count() as u64
    }
}

/// All-run state of one shard: its [`ShardHealth`] and [`ServerPhases`]
/// plus what the `V_train` cadence needs between events.
#[derive(Debug)]
struct ShardFold {
    health: ShardHealth,
    phases: ServerPhases,
    last_advance: Option<f64>,
    /// Sum of the gaps between consecutive `VTrainAdvanced` events.
    advance_secs: f64,
}

/// A matched `PullDeferred`→`DprReleased` pair.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DprPair {
    pub(crate) shard: u32,
    pub(crate) worker: u32,
    pub(crate) deferred_at: f64,
    pub(crate) released_at: f64,
}

/// Incremental analyzer: feed events in timestamp order via
/// [`StreamAnalyzer::advance_to`] + [`StreamAnalyzer::ingest`].
#[derive(Debug)]
pub struct StreamAnalyzer {
    cfg: StreamConfig,
    /// First timestamp ever seen; window boundaries hang off it.
    epoch: Option<f64>,
    /// Index of the currently-open window.
    current: u64,

    // ---- all-run state (what `analysis()` reads out) ----
    analyzed: [u64; KINDS],
    total: u64,
    span: (f64, f64),
    workers: BTreeMap<u32, WorkerBreakdown>,
    /// Each worker's blocked intervals, behind its `sync_secs`.
    busy: BTreeMap<u32, Busy>,
    shards: BTreeMap<u32, ShardFold>,
    gaps: BTreeMap<u64, GapStat>,
    /// `WireRecv`s with no queued send of their own `(request_id, attempt)`.
    unmatched_recvs: u64,
    longest_dpr: Option<DprPair>,

    // ---- open matcher entries ----
    wire: WirePairing,
    defers: HashMap<PullKey, DeferMatch>,
    dprs: DprPairing,

    // ---- windowed state ----
    shard_wire_us: BTreeMap<u32, WindowedHistogram>,
    shard_dpr_us: BTreeMap<u32, WindowedHistogram>,
    barrier_us: WindowedHistogram,
    gap_hist: WindowedHistogram,
    win_events: u64,
    win_pulls: u64,
    win_deferred: u64,
    win_max_gap: u64,
    /// Each worker's highest progress (`iterations - 1`) at the last close.
    progress_at_close: BTreeMap<u32, u64>,
    rates: BTreeMap<u32, f64>,
    closed: VecDeque<WindowStats>,
    windows_closed: u64,
    emitted: u64,
    dropped: u64,
}

impl StreamAnalyzer {
    /// Analyzer with the given windowing config.
    pub fn new(cfg: StreamConfig) -> StreamAnalyzer {
        let windows = cfg.windows.max(1);
        StreamAnalyzer {
            cfg: StreamConfig {
                window_secs: cfg.window_secs,
                windows,
            },
            epoch: None,
            current: 0,
            analyzed: [0; KINDS],
            total: 0,
            span: (0.0, 0.0),
            workers: BTreeMap::new(),
            busy: BTreeMap::new(),
            shards: BTreeMap::new(),
            gaps: BTreeMap::new(),
            unmatched_recvs: 0,
            longest_dpr: None,
            wire: WirePairing::default(),
            defers: HashMap::new(),
            dprs: DprPairing::default(),
            shard_wire_us: BTreeMap::new(),
            shard_dpr_us: BTreeMap::new(),
            barrier_us: WindowedHistogram::new(windows),
            gap_hist: WindowedHistogram::new(windows),
            win_events: 0,
            win_pulls: 0,
            win_deferred: 0,
            win_max_gap: 0,
            progress_at_close: BTreeMap::new(),
            rates: BTreeMap::new(),
            closed: VecDeque::new(),
            windows_closed: 0,
            emitted: 0,
            dropped: 0,
        }
    }

    /// Which window `ts` falls into (0 before the epoch is set).
    fn window_of(&self, ts: f64) -> u64 {
        let Some(epoch) = self.epoch else { return 0 };
        if !self.cfg.window_secs.is_finite() || ts <= epoch {
            return 0;
        }
        ((ts - epoch) / self.cfg.window_secs) as u64
    }

    /// Move time forward to `ts`, closing every window that ended before
    /// it; returns the closed windows' stats (usually empty or one).
    pub fn advance_to(&mut self, ts: f64) -> Vec<WindowStats> {
        if self.epoch.is_none() {
            self.epoch = Some(ts);
        }
        let target = self.window_of(ts);
        let mut out = Vec::new();
        while self.current < target {
            out.push(self.close_current());
            if out.len() as u64 >= MAX_CLOSES_PER_ADVANCE {
                // A huge idle jump: the remaining windows are empty and
                // indistinguishable; skip straight to the target.
                self.current = target;
                break;
            }
        }
        out
    }

    /// Consume one event into both the all-run state and the current
    /// window. Events must arrive in the collector's merge order.
    pub fn ingest(&mut self, ev: &TraceEvent) {
        let cur = self.current;
        let nw = self.cfg.windows;
        self.analyzed[ev.kind.index()] += 1;
        self.total += 1;
        if self.total == 1 {
            self.span.0 = ev.ts;
        }
        self.span.1 = ev.ts + ev.dur.max(0.0);
        self.win_events += 1;

        // Per-worker breakdown, including the one wire matcher.
        if ev.worker != NO_ID {
            let w = self.workers.entry(ev.worker).or_insert(WorkerBreakdown {
                worker: ev.worker,
                first_ts: ev.ts,
                last_ts: ev.ts,
                ..WorkerBreakdown::default()
            });
            w.first_ts = w.first_ts.min(ev.ts);
            w.last_ts = w.last_ts.max(ev.ts + ev.dur);
            w.iterations = w.iterations.max(ev.progress + 1);
            let busy = self.busy.entry(ev.worker).or_default();
            match ev.kind {
                EventKind::BarrierWait => {
                    w.barrier_secs += ev.dur;
                    w.barrier_count += 1;
                    w.sync_secs += busy.add(ev.ts, ev.ts + ev.dur);
                }
                EventKind::WireSend => {
                    w.bytes_sent += ev.bytes;
                    let link = (ev.shard, ev.worker);
                    self.wire.send(link, ev.request_id, ev.attempt, ev.ts, cur);
                }
                EventKind::WireRecv => {
                    w.bytes_recvd += ev.bytes;
                    let link = (ev.shard, ev.worker);
                    match self.wire.recv(link, ev.request_id, ev.attempt) {
                        Some(sent_at) => {
                            let lat = (ev.ts - sent_at).max(0.0);
                            w.wire_secs += lat;
                            w.sync_secs += busy.add(sent_at, ev.ts);
                            if ev.shard != NO_ID {
                                self.shard_wire_us
                                    .entry(ev.shard)
                                    .or_insert_with(|| WindowedHistogram::new(nw))
                                    .record(cur, (lat * 1e6) as u64);
                            }
                        }
                        None => self.unmatched_recvs += 1,
                    }
                }
                EventKind::PullRequested => w.pulls += 1,
                EventKind::PullDeferred => w.deferred += 1,
                _ => {}
            }
            if busy.crowded() {
                // Events come in timestamp order, so a span still to come
                // starts at `ev.ts` or later, a wire interval at its send.
                let oldest = self.wire.oldest_send(ev.worker);
                busy.forget_before(oldest.map_or(ev.ts, |sent| sent.min(ev.ts)));
            }
        }

        // Per-shard sync health, including the one defer→release pairing.
        if ev.shard != NO_ID {
            let fold = self.shards.entry(ev.shard).or_insert_with(|| ShardFold {
                health: ShardHealth {
                    shard: ev.shard,
                    ..ShardHealth::default()
                },
                phases: ServerPhases {
                    shard: ev.shard,
                    ..ServerPhases::default()
                },
                last_advance: None,
                advance_secs: 0.0,
            });
            let sh = &mut fold.health;
            sh.final_v_train = sh.final_v_train.max(ev.v_train);
            match ev.kind {
                EventKind::PullDeferred | EventKind::DprReleased => {
                    if ev.kind == EventKind::DprReleased {
                        fold.phases.release_secs += ev.dur;
                    }
                    if let Some(deferral) = self.dprs.feed(ev) {
                        let deferred_at = deferral.ts;
                        let residence = (ev.ts - deferred_at).max(0.0);
                        // Running mean: mean += (x - mean) / n.
                        sh.dpr_count += 1;
                        sh.dpr_residence_mean +=
                            (residence - sh.dpr_residence_mean) / sh.dpr_count as f64;
                        sh.dpr_residence_max = sh.dpr_residence_max.max(residence);
                        sh.dpr_residence_us.record((residence * 1e6) as u64);
                        self.shard_dpr_us
                            .entry(ev.shard)
                            .or_insert_with(|| WindowedHistogram::new(nw))
                            .record(cur, (residence * 1e6) as u64);
                        // Ties go to the later pair.
                        let longest = self
                            .longest_dpr
                            .map_or(f64::NEG_INFINITY, |l| l.released_at - l.deferred_at);
                        if ev.ts - deferred_at >= longest {
                            self.longest_dpr = Some(DprPair {
                                shard: ev.shard,
                                worker: ev.worker,
                                deferred_at,
                                released_at: ev.ts,
                            });
                        }
                    }
                }
                EventKind::PushApplied => {
                    sh.pushes += 1;
                    fold.phases.apply_secs += ev.dur;
                }
                EventKind::PullRequested => fold.phases.pull_secs += ev.dur,
                EventKind::LatePushDropped => sh.late_drops += 1,
                EventKind::VTrainAdvanced => {
                    sh.v_train_advances += 1;
                    if let Some(prev) = fold.last_advance.replace(ev.ts) {
                        fold.advance_secs += (ev.ts - prev).max(0.0);
                    }
                }
                _ => {}
            }
        }

        // Staleness at pull time and the one blocked-at-gap matcher.
        match ev.kind {
            EventKind::PullRequested => {
                let gap = ev.progress.saturating_sub(ev.v_train);
                let stat = self.gaps.entry(gap).or_insert(GapStat {
                    gap,
                    pulls: 0,
                    deferred: 0,
                });
                stat.pulls += 1;
                self.win_pulls += 1;
                self.win_max_gap = self.win_max_gap.max(gap);
                self.gap_hist.record(cur, gap);
                let dm = self
                    .defers
                    .entry((ev.shard, ev.worker, ev.progress))
                    .or_default();
                dm.window = cur;
                if dm.unmatched > 0 {
                    dm.unmatched -= 1;
                    stat.deferred += 1;
                } else {
                    dm.pending.push_back(gap);
                }
            }
            EventKind::PullDeferred => {
                self.win_deferred += 1;
                let dm = self
                    .defers
                    .entry((ev.shard, ev.worker, ev.progress))
                    .or_default();
                dm.window = cur;
                if let Some(gap) = dm.pending.pop_front() {
                    if let Some(stat) = self.gaps.get_mut(&gap) {
                        stat.deferred += 1;
                    }
                } else {
                    dm.unmatched += 1;
                }
            }
            EventKind::BarrierWait => {
                self.barrier_us.record(cur, (ev.dur.max(0.0) * 1e6) as u64);
            }
            _ => {}
        }
    }

    /// Close the currently-open window and open the next one.
    fn close_current(&mut self) -> WindowStats {
        let idx = self.current;
        self.barrier_us.rotate_to(idx);
        self.gap_hist.rotate_to(idx);
        let mut wire_p99 = 0u64;
        for h in self.shard_wire_us.values_mut() {
            h.rotate_to(idx);
            wire_p99 = wire_p99.max(h.current().quantile_upper(0.99));
        }
        let mut dpr_p99 = 0u64;
        for h in self.shard_dpr_us.values_mut() {
            h.rotate_to(idx);
            dpr_p99 = dpr_p99.max(h.current().quantile_upper(0.99));
        }
        let epoch = self.epoch.unwrap_or(0.0);
        let start_ts = if self.cfg.window_secs.is_finite() {
            epoch + idx as f64 * self.cfg.window_secs
        } else {
            epoch
        };
        for (&w, wb) in &self.workers {
            let p = wb.iterations - 1;
            let prev = self.progress_at_close.insert(w, p).unwrap_or(0);
            let rate = if self.cfg.window_secs.is_finite() && self.cfg.window_secs > 0.0 {
                (p.saturating_sub(prev)) as f64 / self.cfg.window_secs
            } else {
                0.0
            };
            self.rates.insert(w, rate);
        }
        let stats = WindowStats {
            index: idx,
            start_ts,
            events: self.win_events,
            pulls: self.win_pulls,
            deferred: self.win_deferred,
            wire_p99_us: wire_p99,
            dpr_p99_us: dpr_p99,
            barrier_p99_us: self.barrier_us.current().quantile_upper(0.99),
            max_gap: self.win_max_gap,
            spread: self.spread(),
            drop_rate: self.drop_rate(),
        };
        self.win_events = 0;
        self.win_pulls = 0;
        self.win_deferred = 0;
        self.win_max_gap = 0;
        // Age out matcher entries nothing touched within the retained
        // windows: pulls that were simply granted, sends never answered.
        let stale = |window: u64| idx - window >= self.cfg.windows as u64;
        self.defers.retain(|_, dm| !stale(dm.window));
        self.wire.age_out(stale);
        self.closed.push_back(stats);
        while self.closed.len() > CLOSED_KEPT {
            self.closed.pop_front();
        }
        self.windows_closed += 1;
        self.current = idx + 1;
        stats
    }

    /// Close the final (possibly partial) window and return its stats.
    pub fn finish(&mut self) -> WindowStats {
        self.close_current()
    }

    /// Latest collector emit/drop totals (monotone; from
    /// [`crate::ClusterCollector`] node stats or a
    /// [`crate::tracer::TraceCursor`] batch).
    pub fn set_drop_totals(&mut self, emitted: u64, dropped: u64) {
        self.emitted = self.emitted.max(emitted);
        self.dropped = self.dropped.max(dropped);
    }

    /// The all-run figures over everything ingested. `recorded`, `dropped`,
    /// `spread` and `critical_path` are left at their defaults: they need
    /// the buffered trace itself (see [`crate::analyze()`]).
    pub fn analysis(&self) -> Analysis {
        let shard = |fold: &ShardFold| {
            let mut sh = fold.health.clone();
            if sh.v_train_advances > 1 {
                sh.advance_interval_mean = fold.advance_secs / (sh.v_train_advances - 1) as f64;
            }
            sh.outstanding_dprs = self.dprs.open_on(sh.shard);
            sh
        };
        Analysis {
            analyzed: self.analyzed,
            span: self.span,
            workers: self.workers.values().cloned().collect(),
            shards: self.shards.values().map(shard).collect(),
            gaps: self.gaps.values().copied().collect(),
            unmatched_recvs: self.unmatched_recvs,
            ..Analysis::default()
        }
    }

    /// Each shard's server time per phase so far, sorted by shard id.
    pub fn server_phases(&self) -> Vec<ServerPhases> {
        self.shards.values().map(|fold| fold.phases).collect()
    }

    /// The longest-residence matched DPR pair so far (ties: the latest).
    pub(crate) fn longest_dpr(&self) -> Option<DprPair> {
        self.longest_dpr
    }

    /// Total events ingested so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// How many windows have closed.
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// Index of the currently-open window.
    pub fn current_window(&self) -> u64 {
        self.current
    }

    /// The most recent closed windows, oldest first.
    pub fn recent_windows(&self) -> Vec<WindowStats> {
        self.closed.iter().copied().collect()
    }

    /// Per-worker progress rate (iterations/second) over the last closed
    /// window.
    pub fn progress_rates(&self) -> Vec<(u32, f64)> {
        self.rates.iter().map(|(&w, &r)| (w, r)).collect()
    }

    /// Fastest-minus-slowest worker progress right now.
    pub fn spread(&self) -> u64 {
        let progress = || self.workers.values().map(|w| w.iterations - 1);
        progress().max().unwrap_or(0) - progress().min().unwrap_or(0)
    }

    /// Collector drop fraction (`dropped / emitted`; 0 when unknown).
    pub fn drop_rate(&self) -> f64 {
        if self.emitted == 0 {
            0.0
        } else {
            self.dropped as f64 / self.emitted as f64
        }
    }

    /// Sliding merge of shard `shard`'s wire-latency windows.
    pub fn wire_hist(&self, shard: u32, windows: usize) -> Option<Histogram> {
        self.shard_wire_us.get(&shard).map(|h| h.sliding(windows))
    }

    /// Sliding merge of shard `shard`'s DPR-residence windows.
    pub fn dpr_hist(&self, shard: u32, windows: usize) -> Option<Histogram> {
        self.shard_dpr_us.get(&shard).map(|h| h.sliding(windows))
    }

    /// Shards with wire-latency observations, sorted.
    pub fn wire_shards(&self) -> Vec<u32> {
        self.shard_wire_us.keys().copied().collect()
    }

    /// Shards with DPR-residence observations, sorted.
    pub fn dpr_shards(&self) -> Vec<u32> {
        self.shard_dpr_us.keys().copied().collect()
    }

    /// Sliding merge of the staleness-at-pull histogram.
    pub fn staleness_hist(&self, windows: usize) -> Histogram {
        self.gap_hist.sliding(windows)
    }

    /// Sliding merge of the barrier-wait histogram.
    pub fn barrier_hist(&self, windows: usize) -> Histogram {
        self.barrier_us.sliding(windows)
    }
}

struct HealthInner {
    analyzer: StreamAnalyzer,
    alerts: AlertEngine,
    finished: bool,
}

/// Shared, thread-safe handle bundling a [`StreamAnalyzer`] with an
/// [`AlertEngine`]: the collector feeds it, HTTP and Prometheus read it.
#[derive(Clone)]
pub struct HealthEngine {
    inner: Arc<Mutex<HealthInner>>,
}

impl std::fmt::Debug for HealthEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock();
        f.debug_struct("HealthEngine")
            .field("events", &g.analyzer.total())
            .field("windows_closed", &g.analyzer.windows_closed())
            .field("finished", &g.finished)
            .finish()
    }
}

impl HealthEngine {
    /// Engine with explicit windowing and rules.
    pub fn new(cfg: StreamConfig, rules: Vec<AlertRule>) -> HealthEngine {
        HealthEngine {
            inner: Arc::new(Mutex::new(HealthInner {
                analyzer: StreamAnalyzer::new(cfg),
                alerts: AlertEngine::new(rules),
                finished: false,
            })),
        }
    }

    /// Engine with [`AlertRule::defaults`].
    pub fn with_default_rules(cfg: StreamConfig) -> HealthEngine {
        HealthEngine::new(cfg, AlertRule::defaults())
    }

    /// Feed one event: advances the window clock to the event's timestamp
    /// (evaluating rules on every window that closes), then ingests it.
    /// Ignored after [`HealthEngine::finish`].
    pub fn observe(&self, ev: &TraceEvent) {
        let mut g = self.inner.lock();
        if g.finished {
            return;
        }
        let inner = &mut *g;
        for ws in inner.analyzer.advance_to(ev.ts) {
            inner.alerts.on_window(&ws);
        }
        inner.analyzer.ingest(ev);
        inner.alerts.on_event(ev);
    }

    /// Feed a batch under one lock acquisition. Ignored after
    /// [`HealthEngine::finish`].
    pub fn observe_all(&self, events: &[TraceEvent]) {
        if events.is_empty() {
            return;
        }
        let mut g = self.inner.lock();
        if g.finished {
            return;
        }
        let inner = &mut *g;
        for ev in events {
            for ws in inner.analyzer.advance_to(ev.ts) {
                inner.alerts.on_window(&ws);
            }
            inner.analyzer.ingest(ev);
            inner.alerts.on_event(ev);
        }
    }

    /// Update collector emit/drop totals (monotone).
    pub fn set_drop_totals(&self, emitted: u64, dropped: u64) {
        self.inner.lock().analyzer.set_drop_totals(emitted, dropped);
    }

    /// Close the final window and run the rules on it once. Idempotent:
    /// later calls (and later `observe`s) are ignored after the first.
    pub fn finish(&self) {
        let mut g = self.inner.lock();
        if g.finished {
            return;
        }
        g.finished = true;
        let inner = &mut *g;
        let ws = inner.analyzer.finish();
        inner.alerts.on_window(&ws);
    }

    /// The alert engine's deterministic fingerprint (logical transitions
    /// only; see [`crate::alert`]).
    pub fn fingerprint(&self) -> u64 {
        self.inner.lock().alerts.fingerprint()
    }

    /// Every alert transition so far, in order.
    pub fn transitions(&self) -> Vec<AlertTransition> {
        self.inner.lock().alerts.transitions().to_vec()
    }

    /// `true` while any alert is firing.
    pub fn any_firing(&self) -> bool {
        self.inner.lock().alerts.any_firing()
    }

    /// The `/alerts` JSONL payload (transition history + current states).
    pub fn alerts_jsonl(&self) -> String {
        self.inner.lock().alerts.render_jsonl()
    }

    /// The `/slo` plain-text payload: greppable `key value` lines covering
    /// window progress, tail latencies, staleness, progress rates,
    /// straggler spread, drop rate and alert states.
    pub fn slo_text(&self) -> String {
        let g = self.inner.lock();
        let a = &g.analyzer;
        let k = a.cfg.windows;
        let mut out = String::new();
        out.push_str(&format!("slo windows_closed {}\n", a.windows_closed()));
        out.push_str(&format!("slo events {}\n", a.total()));
        out.push_str(&format!("slo drop_rate {:.6}\n", a.drop_rate()));
        out.push_str(&format!("slo progress_spread {}\n", a.spread()));
        for shard in a.wire_shards() {
            if let Some(h) = a.wire_hist(shard, k) {
                out.push_str(&format!(
                    "slo shard{shard} wire_us p50 {} p99 {} max {}\n",
                    h.quantile_upper(0.5),
                    h.quantile_upper(0.99),
                    h.max()
                ));
            }
        }
        for shard in a.dpr_shards() {
            if let Some(h) = a.dpr_hist(shard, k) {
                out.push_str(&format!(
                    "slo shard{shard} dpr_residence_us p50 {} p99 {} max {}\n",
                    h.quantile_upper(0.5),
                    h.quantile_upper(0.99),
                    h.max()
                ));
            }
        }
        let b = a.barrier_hist(k);
        if b.count() > 0 {
            out.push_str(&format!(
                "slo barrier_us p50 {} p99 {} max {}\n",
                b.quantile_upper(0.5),
                b.quantile_upper(0.99),
                b.max()
            ));
        }
        let s = a.staleness_hist(k);
        if s.count() > 0 {
            out.push_str(&format!(
                "slo staleness_gap p50 {} p99 {} max {}\n",
                s.quantile_upper(0.5),
                s.quantile_upper(0.99),
                s.max()
            ));
        }
        for (w, rate) in a.progress_rates() {
            out.push_str(&format!("slo worker{w} progress_rate {rate:.3}\n"));
        }
        for wb in a.workers.values() {
            out.push_str(&format!(
                "slo worker{} iterations {}\n",
                wb.worker, wb.iterations
            ));
        }
        for ws in a.recent_windows() {
            out.push_str(&format!(
                "slo window {} events {} pulls {} deferred {} wire_p99_us {} max_gap {}\n",
                ws.index, ws.events, ws.pulls, ws.deferred, ws.wire_p99_us, ws.max_gap
            ));
        }
        out.push_str(&g.alerts.render_states());
        out
    }

    /// Publish the live view as Prometheus gauges on `registry`.
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        let g = self.inner.lock();
        let a = &g.analyzer;
        let k = a.cfg.windows;
        registry.set_gauge("slo_windows_closed", a.windows_closed() as f64);
        registry.set_gauge("slo_events_total", a.total() as f64);
        registry.set_gauge("slo_drop_rate", a.drop_rate());
        registry.set_gauge("slo_progress_spread", a.spread() as f64);
        for shard in a.wire_shards() {
            if let Some(h) = a.wire_hist(shard, k) {
                registry
                    .scope()
                    .with("shard", shard)
                    .set_gauge("slo_wire_p99_us", h.quantile_upper(0.99) as f64);
            }
        }
        for shard in a.dpr_shards() {
            if let Some(h) = a.dpr_hist(shard, k) {
                registry
                    .scope()
                    .with("shard", shard)
                    .set_gauge("slo_dpr_residence_p99_us", h.quantile_upper(0.99) as f64);
            }
        }
        let b = a.barrier_hist(k);
        if b.count() > 0 {
            registry.set_gauge("slo_barrier_p99_us", b.quantile_upper(0.99) as f64);
        }
        if let Some(last) = a.recent_windows().last() {
            registry.set_gauge("slo_block_rate", last.block_rate());
            registry.set_gauge("slo_staleness_max_gap", last.max_gap as f64);
        }
        for (w, rate) in a.progress_rates() {
            registry
                .scope()
                .with("worker", w)
                .set_gauge("slo_progress_rate", rate);
        }
        g.alerts.export_metrics(registry);
    }

    /// Spawn a [`HealthTap`] polling `collector`'s cursor into this engine
    /// every 10 ms. Use for in-process runs with no remote collector;
    /// never combine with [`crate::ClusterCollector::attach_health`] on
    /// the same engine (events would double-count).
    pub fn attach_to(&self, collector: &TraceCollector) -> HealthTap {
        const POLL: Duration = Duration::from_millis(10);
        let mut cursor = collector.cursor();
        let engine = self.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_thread = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("fluentps-health-tap".to_string())
            .spawn(move || loop {
                // Read the flag *before* polling: one final drain happens
                // after stop() is requested, so no event is left behind.
                let done = stop_thread.load(Ordering::SeqCst);
                let batch = cursor.poll();
                engine.set_drop_totals(batch.emitted, batch.dropped);
                engine.observe_all(&batch.events);
                if done {
                    break;
                }
                thread::sleep(POLL);
            })
            .expect("spawn health tap");
        HealthTap {
            stop,
            handle: Some(handle),
        }
    }
}

/// Background thread draining a local [`TraceCollector`] cursor into a
/// [`HealthEngine`]. Stopping performs one final drain first.
#[derive(Debug)]
pub struct HealthTap {
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl HealthTap {
    /// Request a final drain and wait for the tap thread to exit.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HealthTap {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{ClockSource, VirtualClock};
    use crate::tracer::{RecordArgs, TraceCollector};
    use std::sync::Arc;

    #[test]
    fn busy_grows_by_what_an_interval_adds_to_the_union() {
        let mut b = Busy::default();
        assert_eq!(b.add(1.0, 2.0), 1.0);
        assert_eq!(b.add(3.0, 4.0), 1.0);
        assert_eq!(b.add(1.5, 1.75), 0.0, "inside one");
        assert_eq!(b.add(0.5, 3.5), 1.5, "bridges both: 0.5–1 and 2–3");
        assert_eq!(b.add(4.0, 4.0), 0.0, "empty");
        assert_eq!(b.add(4.0, 5.0), 1.0, "touches the end");
        assert_eq!(b.open, [(0.5, 5.0)]);
        assert_eq!(b.add(6.0, 7.0), 1.0);
        b.forget_before(5.5);
        assert_eq!(b.open, [(6.0, 7.0)]);
        assert_eq!(b.add(6.5, 8.0), 1.0, "what stays open still merges");
    }

    fn at(shard: u32, worker: u32, progress: u64, v_train: u64) -> RecordArgs {
        RecordArgs::new()
            .shard(shard)
            .worker(worker)
            .progress(progress)
            .v_train(v_train)
    }

    /// A busy little trace: wire traffic, deferred pulls, DPR releases,
    /// barrier spans, recovery events, on two shards and three workers.
    fn busy_trace() -> crate::tracer::Trace {
        let clock = VirtualClock::new();
        let col = TraceCollector::new(ClockSource::virtual_clock(Arc::clone(&clock)), 4096);
        let t = col.tracer();
        let mut ts = 1.0;
        for i in 0..20u64 {
            for w in 0..3u32 {
                let shard = (w % 2) as u32;
                clock.set(ts);
                t.record(EventKind::WireSend, at(shard, w, i, i / 2).bytes(100));
                ts += 0.01;
                clock.set(ts);
                t.record(EventKind::WireRecv, at(shard, w, i, i / 2).bytes(80));
                t.record(EventKind::PullRequested, at(shard, w, i, i / 2));
                if i % 3 == 0 {
                    t.record(EventKind::PullDeferred, at(shard, w, i, i / 2));
                    ts += 0.05;
                    clock.set(ts);
                    t.record(EventKind::DprReleased, at(shard, w, i, i / 2 + 1));
                }
                let start = t.now();
                ts += 0.02;
                clock.set(ts);
                t.record_span(EventKind::BarrierWait, start, at(shard, w, i, i / 2));
                t.record(EventKind::PushApplied, at(shard, w, i, i / 2).bytes(256));
            }
            if i == 7 {
                clock.set(ts);
                t.record(
                    EventKind::NodeDeclaredDead,
                    RecordArgs::new().shard(0).progress(i),
                );
            }
            if i == 9 {
                clock.set(ts);
                t.record(
                    EventKind::CheckpointRestored,
                    RecordArgs::new().shard(0).progress(i).v_train(4),
                );
            }
            ts += 0.01;
        }
        col.snapshot()
    }

    #[test]
    fn all_run_mode_never_closes_a_window_until_finish() {
        let trace = busy_trace();
        let mut s = StreamAnalyzer::new(StreamConfig::all_run());
        for ev in &trace.events {
            assert!(s.advance_to(ev.ts).is_empty());
            s.ingest(ev);
        }
        assert_eq!(s.windows_closed(), 0);
        let final_window = s.finish();
        assert_eq!(final_window.events, s.total());
        assert_eq!(final_window.pulls, trace.count(EventKind::PullRequested));
    }

    /// The matchers' open entries are bounded by what the retained windows
    /// produced, not by the length of the run: granted pulls never see a
    /// `PullDeferred` and lost sends never see a `WireRecv`, and both used
    /// to stay in `defers` / `in_flight` forever.
    #[test]
    fn live_matcher_state_stays_bounded_over_a_long_run() {
        let mut s = StreamAnalyzer::new(StreamConfig {
            window_secs: 1.0,
            windows: 4,
        });
        let ev = |ts: f64, kind, i: u64| TraceEvent {
            ts,
            kind,
            shard: (i % 2) as u32,
            worker: (i % 3) as u32,
            progress: i,
            v_train: i,
            request_id: i + 1,
            ..Default::default()
        };
        // 100 pulls per window, every one granted, every send unanswered.
        for i in 0..100_000u64 {
            let ts = i as f64 * 0.01;
            s.advance_to(ts);
            s.ingest(&ev(ts, EventKind::WireSend, i));
            s.ingest(&ev(ts, EventKind::PullRequested, i));
        }
        let in_flight: usize = s.wire.in_flight.values().map(|q| q.len()).sum();
        assert!(s.defers.len() <= 500, "defers: {}", s.defers.len());
        assert!(in_flight <= 500, "in_flight: {in_flight}");
        // The all-run figures still cover the whole run.
        assert_eq!(s.analysis().gaps[0].pulls, 100_000);
    }

    #[test]
    fn windows_close_on_advance_and_carry_stats() {
        let mut s = StreamAnalyzer::new(StreamConfig {
            window_secs: 1.0,
            windows: 4,
        });
        let ev = |ts: f64, kind, gap: u64| TraceEvent {
            ts,
            kind,
            shard: 0,
            worker: 0,
            progress: gap,
            ..Default::default()
        };
        assert!(s.advance_to(0.1).is_empty());
        s.ingest(&ev(0.1, EventKind::PullRequested, 2));
        assert!(s.advance_to(0.9).is_empty(), "same window");
        let closed = s.advance_to(1.5);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].index, 0);
        assert_eq!(closed[0].pulls, 1);
        assert_eq!(closed[0].max_gap, 2);
        s.ingest(&ev(1.5, EventKind::PullRequested, 7));
        let closed = s.advance_to(4.2);
        assert_eq!(closed.len(), 3, "windows 1..=3 close");
        assert_eq!(closed[0].pulls, 1);
        assert_eq!(closed[0].max_gap, 7);
        assert_eq!(closed[1].pulls, 0, "empty window");
        assert_eq!(s.windows_closed(), 4);
        assert_eq!(s.current_window(), 4);
    }

    #[test]
    fn huge_idle_jump_fast_forwards() {
        let mut s = StreamAnalyzer::new(StreamConfig {
            window_secs: 0.001,
            windows: 2,
        });
        s.advance_to(0.0);
        let closed = s.advance_to(1e6);
        assert_eq!(closed.len() as u64, MAX_CLOSES_PER_ADVANCE);
        assert_eq!(s.current_window(), s.window_of(1e6));
    }

    #[test]
    fn windowed_histogram_rotates_and_slides() {
        let mut wh = WindowedHistogram::new(3);
        wh.record(0, 10);
        wh.record(1, 20);
        wh.record(2, 30);
        assert_eq!(wh.window(0).unwrap().max(), 10);
        assert_eq!(wh.sliding(3).count(), 3);
        assert_eq!(wh.sliding(1).max(), 30);
        // Window 3 reuses slot 0: window 0 is gone.
        wh.record(3, 40);
        assert!(wh.window(0).is_none());
        assert_eq!(wh.window(3).unwrap().max(), 40);
        assert_eq!(wh.sliding(3).count(), 3);
        assert_eq!(wh.sliding(3).max(), 40);
        // A jump far ahead clears everything retained.
        wh.rotate_to(100);
        assert_eq!(wh.sliding(3).count(), 0);
        assert_eq!(wh.head(), 100);
        // Recording into an evicted window clamps into range.
        wh.record(5, 7);
        assert_eq!(wh.sliding(3).count(), 1);
    }

    #[test]
    fn the_fold_sums_each_shards_server_time_per_phase() {
        use EventKind::*;
        let mut s = StreamAnalyzer::new(StreamConfig::all_run());
        let ev = |kind, shard, dur| TraceEvent {
            ts: 1.0,
            dur,
            kind,
            shard,
            worker: 0,
            ..Default::default()
        };
        for e in [
            ev(PushApplied, 0, 0.25),
            ev(PullRequested, 0, 0.125),
            ev(PullDeferred, 0, 0.0),
            ev(PushApplied, 0, 0.5),
            ev(DprReleased, 0, 0.0625),
            ev(PullRequested, 1, 1.0),
            ev(PushApplied, 1, 2.0),
            // A span of any other kind is no server phase.
            ev(BarrierWait, NO_ID, 8.0),
            ev(LatePushDropped, 1, 4.0),
            ev(WireRecv, 1, 16.0),
        ] {
            s.ingest(&e);
        }
        let phases = |shard, apply_secs, release_secs, pull_secs| ServerPhases {
            shard,
            apply_secs,
            release_secs,
            pull_secs,
        };
        assert_eq!(
            s.server_phases(),
            [phases(0, 0.75, 0.0625, 0.125), phases(1, 2.0, 0.0, 1.0)]
        );
    }

    #[test]
    fn progress_rates_and_spread_track_workers() {
        let mut s = StreamAnalyzer::new(StreamConfig {
            window_secs: 2.0,
            windows: 4,
        });
        let ev = |ts: f64, worker: u32, progress: u64| TraceEvent {
            ts,
            kind: EventKind::PushApplied,
            shard: 0,
            worker,
            progress,
            ..Default::default()
        };
        s.advance_to(0.0);
        s.ingest(&ev(0.0, 0, 0));
        s.ingest(&ev(0.5, 0, 4));
        s.ingest(&ev(0.5, 1, 1));
        let closed = s.advance_to(2.5);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].spread, 3, "worker0@4 vs worker1@1");
        let rates = s.progress_rates();
        assert_eq!(rates.len(), 2);
        assert_eq!(rates[0], (0, 2.0), "4 iterations / 2s");
        assert_eq!(rates[1], (1, 0.5));
    }

    #[test]
    fn health_engine_feeds_alerts_and_renders() {
        let engine = HealthEngine::with_default_rules(StreamConfig::default());
        let dead = TraceEvent {
            ts: 0.5,
            kind: EventKind::NodeDeclaredDead,
            shard: 0,
            worker: NO_ID,
            progress: 3,
            ..Default::default()
        };
        let restored = TraceEvent {
            kind: EventKind::CheckpointRestored,
            ts: 0.9,
            progress: 4,
            ..dead
        };
        engine.observe(&dead);
        assert!(engine.any_firing());
        engine.observe(&restored);
        assert!(!engine.any_firing());
        engine.set_drop_totals(100, 1);
        engine.finish();
        engine.finish(); // idempotent
        let slo = engine.slo_text();
        assert!(slo.contains("slo windows_closed 1\n"), "{slo}");
        assert!(slo.contains("slo drop_rate 0.010000\n"), "{slo}");
        assert!(slo.contains("alert dead_nodes ok\n"), "{slo}");
        let jsonl = engine.alerts_jsonl();
        assert!(jsonl.contains("\"rule\":\"dead_nodes\""));
        assert_eq!(engine.transitions().len(), 2);
        let registry = MetricsRegistry::new();
        engine.export_metrics(&registry);
        assert_eq!(registry.gauge_value("slo_windows_closed"), Some(1.0));
        assert_eq!(
            registry.gauge_value("alert_active{rule=dead_nodes}"),
            Some(0.0)
        );
    }

    #[test]
    fn same_events_same_fingerprint() {
        let run = || {
            let engine = HealthEngine::new(StreamConfig::default(), AlertRule::defaults());
            for ev in &busy_trace().events {
                engine.observe(ev);
            }
            engine.finish();
            engine.fingerprint()
        };
        assert_eq!(run(), run());
        // The kill→restore pair produced exactly one fire/resolve pair.
        let engine = HealthEngine::new(StreamConfig::default(), Vec::new());
        for ev in &busy_trace().events {
            engine.observe(ev);
        }
        let ts = engine.transitions();
        assert_eq!(ts.len(), 2);
        assert!(ts[0].firing && !ts[1].firing);
    }

    #[test]
    fn health_tap_drains_collector_on_stop() {
        let col = TraceCollector::wall(1024);
        let engine = HealthEngine::with_default_rules(StreamConfig::default());
        let tap = engine.attach_to(&col);
        let t = col.tracer();
        for i in 0..50u64 {
            t.record(EventKind::PullRequested, at(0, 0, i, i));
        }
        tap.stop();
        let slo = engine.slo_text();
        assert!(slo.contains("slo events 50\n"), "final drain: {slo}");
    }
}
