//! Exact per-request waterfalls, assembled from the causal context the
//! transport propagates on every `SPush`/`SPull`/reply (DESIGN.md §17).
//!
//! Every stamped [`TraceEvent`] carries the `(request_id, attempt)` of the
//! request that caused it, so one logical operation — worker push → wire →
//! server apply/defer → DPR release → reply → wire → worker unblock — can
//! be reassembled *exactly*, with no clock heuristics and no FIFO guessing:
//!
//! * [`assemble`] groups stamped events by `request_id`, folds duplicate
//!   deliveries (a [`fault`]-duplicated frame, or a dedup window re-serving
//!   a cached reply) by their identity key, and orders each request's
//!   stages canonically — the same folded waterfall comes out of a clean
//!   stream and of a reordered, duplicated one.
//! * [`tail_sample`] is the collector's retention policy: windowed by
//!   request start time (mirroring the [`StreamAnalyzer`] windows), keep
//!   full waterfalls only for the top-`p` fraction of each window by total
//!   latency — plus every request touched by recovery (retries, lost
//!   connections, control-plane remaps) — and fold the rest into per-stage
//!   aggregate histograms with an exact surviving drop-count:
//!   `retained + sampled_out == observed`, checked by [`Sampled::balance`].
//! * [`Waterfall::stable_line`] renders the *logical* shape (stage counts,
//!   attempts, folded duplicates — no wall-clock), so two same-seed chaos
//!   runs print bit-identical `waterfall-` lines; [`render_text`] renders
//!   aligned human-readable waterfalls with times, and [`Waterfall::json`]
//!   one NDJSON object for `GET /waterfall`.
//! * [`stage_table`] aggregates per-stage transition latencies (µs) into
//!   histograms for the p50/p99 table `repro waterfall` prints.
//! * [`export_metrics`] refreshes `waterfall_wire_us` / `waterfall_barrier_us`
//!   histograms into a [`MetricsRegistry`] with OpenMetrics-style exemplars:
//!   the `_max` sample line links back to the retained `request_id` that
//!   produced the bucket's worst value.
//!
//! Determinism contract: request ids are allocated from per-worker (and
//! per-supervisor-replica) counters, so a seeded single-worker chaos run
//! issues the same request set every time; with the retain-everything
//! sampler (`top_fraction = 1.0`, what `repro waterfall` uses) the retained
//! set — and therefore every `waterfall-` line — is a pure function of the
//! seed. Latency-based retention (`top_fraction < 1.0`) is for live
//! tail-sampling, where wall-clock nondeterminism is inherent.
//!
//! [`fault`]: crate::event::EventKind::RetryScheduled
//! [`StreamAnalyzer`]: crate::stream::StreamAnalyzer

use std::collections::{BTreeMap, HashMap};

use crate::event::{EventKind, NO_ID};
use crate::hist::Histogram;
use crate::json;
use crate::metrics::MetricsRegistry;
use crate::stream::WirePairing;
use crate::tracer::Trace;

/// High bit of a `request_id` marking control-plane (supervisor) traffic:
/// `Install`/`RouteUpdate` fan-outs from a recovery action. Worker request
/// ids never set it.
pub const CONTROL_PLANE_BIT: u64 = 1 << 63;

/// One folded stage of a request's lifecycle: a stamped event, after
/// duplicate deliveries collapsed onto the earliest occurrence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage {
    /// What happened.
    pub kind: EventKind,
    /// Seconds on the trace clock (earliest occurrence when folded).
    pub ts: f64,
    /// Span duration (0 for instants).
    pub dur: f64,
    /// Shard involved, or [`NO_ID`].
    pub shard: u32,
    /// Worker involved, or [`NO_ID`].
    pub worker: u32,
    /// Retry ordinal of the request when this stage ran.
    pub attempt: u32,
    /// Wire bytes for wire stages; payload bytes otherwise.
    pub bytes: u64,
}

/// A stage plus the raw `progress` field it was recorded with. Progress
/// participates only in the duplicate-folding identity — two deliveries of
/// one frame (or a re-served cached reply) agree on every field here,
/// while the request and reply legs of one hop differ at least in `bytes`
/// (a request frame and its reply never serialize to the same size).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FoldStage {
    stage: Stage,
    progress_key: u64,
}

/// One request's folded waterfall.
#[derive(Debug, Clone, PartialEq)]
pub struct Waterfall {
    /// The causal request id every stage carries.
    pub request_id: u64,
    /// Stages in canonical order (timestamp, then kind rank — independent
    /// of the order events arrived in the trace buffer).
    pub stages: Vec<Stage>,
    /// Duplicate deliveries folded away during assembly.
    pub duplicates_folded: u64,
}

impl Waterfall {
    /// The worker that issued the request ([`NO_ID`] for control-plane
    /// fan-outs that never name one).
    pub fn worker(&self) -> u32 {
        self.stages
            .iter()
            .map(|s| s.worker)
            .find(|&w| w != NO_ID)
            .unwrap_or(NO_ID)
    }

    /// Attempts observed: highest retry ordinal + 1.
    pub fn attempts(&self) -> u32 {
        self.stages.iter().map(|s| s.attempt).max().unwrap_or(0) + 1
    }

    /// First stage timestamp.
    pub fn start_ts(&self) -> f64 {
        self.stages.first().map(|s| s.ts).unwrap_or(0.0)
    }

    /// Last covered instant: max over `ts + dur`.
    pub fn end_ts(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| s.ts + s.dur)
            .fold(self.start_ts(), f64::max)
    }

    /// Total lifetime, first stage to last, retries included.
    pub fn total_secs(&self) -> f64 {
        (self.end_ts() - self.start_ts()).max(0.0)
    }

    /// Supervisor-issued control-plane request (`Install`/`RouteUpdate`)?
    pub fn is_control_plane(&self) -> bool {
        self.request_id & CONTROL_PLANE_BIT != 0
    }

    /// Did recovery machinery touch this request? Control-plane fan-outs,
    /// retries, lost connections and shard remaps all count — the tail
    /// sampler always retains these regardless of latency rank.
    pub fn recovery_touched(&self) -> bool {
        self.is_control_plane()
            || self.stages.iter().any(|s| {
                matches!(
                    s.kind,
                    EventKind::RetryScheduled
                        | EventKind::ConnectionLost
                        | EventKind::ShardRemapped
                )
            })
    }

    /// Structural integrity of the folded waterfall:
    ///
    /// * stages exist and are in canonical (time-monotone) order;
    /// * no stage's span extends past the waterfall's end;
    /// * per `(attempt, shard)`, wire receives never outrun wire sends in
    ///   canonical order — with exact ids there is a send on record for
    ///   every receive, so a violation means the trace lost the send (ring
    ///   overwrite) or clocks ran backwards.
    ///
    /// Control-plane requests skip the wire balance: the supervisor's
    /// fan-out sends are not traced, only their receipt is.
    pub fn check_gapless(&self) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err(format!("request {}: no stages", self.request_id));
        }
        let end = self.end_ts();
        let mut prev = f64::NEG_INFINITY;
        let mut wire: HashMap<(u32, u32), i64> = HashMap::new();
        for s in &self.stages {
            if s.ts < prev {
                return Err(format!(
                    "request {}: stage {} at {:.9}s precedes {:.9}s",
                    self.request_id,
                    s.kind.name(),
                    s.ts,
                    prev
                ));
            }
            prev = s.ts;
            if s.ts + s.dur > end + 1e-9 {
                return Err(format!(
                    "request {}: {} span overruns the waterfall end",
                    self.request_id,
                    s.kind.name()
                ));
            }
            if !self.is_control_plane() && s.shard != NO_ID {
                let bal = wire.entry((s.attempt, s.shard)).or_insert(0);
                match s.kind {
                    EventKind::WireSend => *bal += 1,
                    EventKind::WireRecv => {
                        *bal -= 1;
                        if *bal < 0 {
                            return Err(format!(
                                "request {}: wire recv without a send \
                                 (attempt {}, shard {})",
                                self.request_id, s.attempt, s.shard
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// The deterministic one-line digest: logical shape only (ids, stage
    /// counts, attempts, folded duplicates), no wall-clock fields — two
    /// same-seed runs print identical lines. Stage counts are listed in
    /// stable kind-index order.
    pub fn stable_line(&self) -> String {
        let mut counts = [0u64; crate::event::KINDS];
        for s in &self.stages {
            counts[s.kind.index()] += 1;
        }
        let stages: Vec<String> = EventKind::ALL
            .iter()
            .filter(|k| counts[k.index()] > 0)
            .map(|k| format!("{}:{}", k.name(), counts[k.index()]))
            .collect();
        let mut shards: Vec<u32> = self
            .stages
            .iter()
            .map(|s| s.shard)
            .filter(|&m| m != NO_ID)
            .collect();
        shards.sort_unstable();
        shards.dedup();
        let shards: Vec<String> = shards.iter().map(|m| m.to_string()).collect();
        format!(
            "waterfall-request id={} worker={} attempts={} folded={} shards={} stages={}",
            self.request_id,
            id_str(self.worker()),
            self.attempts(),
            self.duplicates_folded,
            if shards.is_empty() {
                "-".to_string()
            } else {
                shards.join("+")
            },
            stages.join(",")
        )
    }

    /// One NDJSON object for `GET /waterfall`: request header plus the full
    /// stage list with timestamps relative to the waterfall start (µs).
    pub fn json(&self) -> String {
        let start = self.start_ts();
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{{\"kind\":\"{}\",\"offset_us\":{},\"dur_us\":{},\"shard\":{},\
                     \"worker\":{},\"attempt\":{},\"bytes\":{}}}",
                    s.kind.name(),
                    json::number((s.ts - start) * 1e6),
                    json::number(s.dur * 1e6),
                    id_json(s.shard),
                    id_json(s.worker),
                    s.attempt,
                    s.bytes
                )
            })
            .collect();
        format!(
            "{{\"request_id\":{},\"worker\":{},\"attempts\":{},\"control_plane\":{},\
             \"total_us\":{},\"duplicates_folded\":{},\"stages\":[{}]}}",
            self.request_id,
            id_json(self.worker()),
            self.attempts(),
            self.is_control_plane(),
            json::number(self.total_secs() * 1e6),
            self.duplicates_folded,
            stages.join(",")
        )
    }

    /// Per-hop wire latencies (seconds), paired by the trace fold's
    /// exact-id rule: within this request, a `WireRecv` answers the oldest
    /// `WireSend` of its own attempt on its `(shard, worker)` link (request
    /// leg then reply leg, in canonical order).
    pub fn wire_latencies(&self) -> Vec<f64> {
        let mut wire = WirePairing::default();
        let mut out = Vec::new();
        for s in &self.stages {
            let link = (s.shard, s.worker);
            match s.kind {
                EventKind::WireSend => wire.send(link, self.request_id, s.attempt, s.ts, 0),
                EventKind::WireRecv => out.extend(
                    wire.recv(link, self.request_id, s.attempt)
                        .map(|sent_at| (s.ts - sent_at).max(0.0)),
                ),
                _ => {}
            }
        }
        out
    }

    /// Total `BarrierWait` seconds inside this request.
    pub fn barrier_secs(&self) -> f64 {
        self.stages
            .iter()
            .filter(|s| s.kind == EventKind::BarrierWait)
            .map(|s| s.dur)
            .sum()
    }
}

fn id_str(id: u32) -> String {
    if id == NO_ID {
        "-".to_string()
    } else {
        id.to_string()
    }
}

fn id_json(id: u32) -> i64 {
    if id == NO_ID {
        -1
    } else {
        id as i64
    }
}

/// Every waterfall assembled from one trace, before sampling.
#[derive(Debug, Clone, Default)]
pub struct WaterfallSet {
    /// Folded waterfalls, sorted by `request_id`.
    pub waterfalls: Vec<Waterfall>,
    /// Stamped events that contributed (excluding folded duplicates).
    pub stamped_events: u64,
    /// Events with no causal context, ignored by assembly.
    pub unstamped_events: u64,
}

impl WaterfallSet {
    /// Distinct requests observed.
    pub fn observed(&self) -> u64 {
        self.waterfalls.len() as u64
    }

    /// The waterfall for `request_id`, if observed.
    pub fn get(&self, request_id: u64) -> Option<&Waterfall> {
        self.waterfalls
            .binary_search_by_key(&request_id, |w| w.request_id)
            .ok()
            .map(|i| &self.waterfalls[i])
    }

    /// The `n` slowest waterfalls by total lifetime, slowest first (ties
    /// broken by request id, so the order is stable).
    pub fn slowest(&self, n: usize) -> Vec<&Waterfall> {
        let mut refs: Vec<&Waterfall> = self.waterfalls.iter().collect();
        refs.sort_by(|a, b| {
            b.total_secs()
                .total_cmp(&a.total_secs())
                .then(a.request_id.cmp(&b.request_id))
        });
        refs.truncate(n);
        refs
    }
}

/// Assemble every request's folded waterfall from a trace.
///
/// Events with `request_id == 0` (recorded outside any request context)
/// are counted but ignored. Within a request, duplicate deliveries — same
/// `(attempt, kind, shard, worker, bytes, progress)` — fold onto the
/// earliest occurrence. Stage order is canonical: by timestamp, ties by
/// attempt then kind rank then shard — a function of the events' *fields*,
/// never of their buffer order, so a reordered stream assembles
/// identically (the order-insensitivity property tests pin this).
pub fn assemble(trace: &Trace) -> WaterfallSet {
    let mut grouped: BTreeMap<u64, Vec<FoldStage>> = BTreeMap::new();
    let mut set = WaterfallSet::default();
    for ev in &trace.events {
        if ev.request_id == 0 {
            set.unstamped_events += 1;
            continue;
        }
        grouped.entry(ev.request_id).or_default().push(FoldStage {
            stage: Stage {
                kind: ev.kind,
                ts: ev.ts,
                dur: ev.dur,
                shard: ev.shard,
                worker: ev.worker,
                attempt: ev.attempt,
                bytes: ev.bytes,
            },
            progress_key: ev.progress,
        });
    }
    for (request_id, mut raw) in grouped {
        // Fold duplicates onto the earliest delivery.
        let mut earliest: HashMap<(u32, usize, u32, u32, u64, u64), FoldStage> = HashMap::new();
        let mut folded = 0u64;
        for fs in raw.drain(..) {
            let key = (
                fs.stage.attempt,
                fs.stage.kind.index(),
                fs.stage.shard,
                fs.stage.worker,
                fs.stage.bytes,
                fs.progress_key,
            );
            match earliest.entry(key) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(fs);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    folded += 1;
                    if fs.stage.ts < e.get().stage.ts {
                        e.insert(fs);
                    }
                }
            }
        }
        let mut stages: Vec<Stage> = earliest.into_values().map(|fs| fs.stage).collect();
        stages.sort_by(|a, b| {
            a.ts.total_cmp(&b.ts)
                .then(a.attempt.cmp(&b.attempt))
                .then(a.kind.index().cmp(&b.kind.index()))
                .then(a.shard.cmp(&b.shard))
                .then(a.worker.cmp(&b.worker))
                .then(a.bytes.cmp(&b.bytes))
        });
        set.stamped_events += stages.len() as u64;
        set.waterfalls.push(Waterfall {
            request_id,
            stages,
            duplicates_folded: folded,
        });
    }
    set
}

/// The tail sampler's window width in seconds over request *start* times.
const SAMPLER_WINDOW_SECS: f64 = 0.5;

/// The sampler's output: full waterfalls for the retained set, per-stage
/// aggregate histograms for everything (so sampled-out requests still
/// contribute to the p50/p99 table), and exact drop accounting.
#[derive(Debug, Clone, Default)]
pub struct Sampled {
    /// Retained waterfalls, sorted by request id.
    pub retained: Vec<Waterfall>,
    /// Requests dropped to aggregates.
    pub sampled_out: u64,
    /// Requests observed before sampling.
    pub observed: u64,
    /// Total-latency histogram (µs) over *all* observed requests.
    pub total_us: Histogram,
}

impl Sampled {
    /// The collector balance invariant: every observed request is either
    /// retained or counted as sampled out.
    pub fn balance(&self) -> Result<(), String> {
        let retained = self.retained.len() as u64;
        if retained + self.sampled_out == self.observed {
            Ok(())
        } else {
            Err(format!(
                "waterfall balance violated: retained {} + sampled_out {} != observed {}",
                retained, self.sampled_out, self.observed
            ))
        }
    }
}

/// Apply tail-based sampling: bucket requests into 0.5 s windows by start
/// time; within each window keep the top `top_fraction` by total latency
/// (ceil'd, so at least one per non-empty window; `1.0` retains everything
/// — the deterministic `repro waterfall` mode); always keep
/// recovery-touched requests. Everything else folds into the aggregate
/// histogram and the `sampled_out` count.
pub fn tail_sample(set: &WaterfallSet, top_fraction: f64) -> Sampled {
    let mut out = Sampled {
        observed: set.observed(),
        ..Sampled::default()
    };
    let epoch = set
        .waterfalls
        .iter()
        .map(|w| w.start_ts())
        .fold(f64::INFINITY, f64::min);
    let mut windows: BTreeMap<u64, Vec<&Waterfall>> = BTreeMap::new();
    for w in &set.waterfalls {
        out.total_us.record((w.total_secs() * 1e6) as u64);
        let idx = ((w.start_ts() - epoch) / SAMPLER_WINDOW_SECS) as u64;
        windows.entry(idx).or_default().push(w);
    }
    for (_, mut members) in windows {
        members.sort_by(|a, b| {
            b.total_secs()
                .total_cmp(&a.total_secs())
                .then(a.request_id.cmp(&b.request_id))
        });
        let keep = ((members.len() as f64 * top_fraction).ceil() as usize).max(1);
        for (rank, w) in members.into_iter().enumerate() {
            if rank < keep || w.recovery_touched() {
                out.retained.push((*w).clone());
            } else {
                out.sampled_out += 1;
            }
        }
    }
    out.retained.sort_by_key(|w| w.request_id);
    out
}

/// Per-transition latency table over a set of waterfalls: for every pair of
/// consecutive canonical stages `a → b`, the µs gap lands in the histogram
/// named `a>b`; `BarrierWait` spans additionally land in `barrier_wait`.
/// Returned sorted by name for stable rendering.
pub fn stage_table(waterfalls: &[Waterfall]) -> Vec<(String, Histogram)> {
    let mut table: BTreeMap<String, Histogram> = BTreeMap::new();
    for w in waterfalls {
        for pair in w.stages.windows(2) {
            let name = format!("{}>{}", pair[0].kind.name(), pair[1].kind.name());
            table
                .entry(name)
                .or_default()
                .record(((pair[1].ts - pair[0].ts).max(0.0) * 1e6) as u64);
        }
        for s in &w.stages {
            if s.kind == EventKind::BarrierWait {
                table
                    .entry("barrier_wait".to_string())
                    .or_default()
                    .record((s.dur * 1e6) as u64);
            }
        }
    }
    table.into_iter().collect()
}

/// Width of the text waterfall's bar column.
const BAR_WIDTH: usize = 24;

/// Render aligned text waterfalls for `top` (slowest-first as given):
/// per stage an offset from request start, the stage name, its actors, and
/// a bar positioned proportionally inside the request's lifetime.
pub fn render_text(top: &[&Waterfall]) -> String {
    let mut out = String::new();
    for w in top {
        let total = w.total_secs().max(1e-12);
        out.push_str(&format!(
            "request {} worker {} attempts {} total {:.3}ms ({} duplicates folded)\n",
            w.request_id,
            id_str(w.worker()),
            w.attempts(),
            w.total_secs() * 1e3,
            w.duplicates_folded
        ));
        let start = w.start_ts();
        for s in &w.stages {
            let off = (s.ts - start) / total;
            let frac = (s.dur / total).max(0.0);
            let lead = ((off * BAR_WIDTH as f64) as usize).min(BAR_WIDTH);
            let fill = ((frac * BAR_WIDTH as f64).ceil() as usize)
                .max(1)
                .min(BAR_WIDTH - lead);
            let bar: String = std::iter::repeat(' ')
                .take(lead)
                .chain(std::iter::repeat('#').take(fill))
                .chain(std::iter::repeat('.').take(BAR_WIDTH - lead - fill))
                .collect();
            out.push_str(&format!(
                "  {:>10.3}ms  {:<18} shard {:<2} attempt {} |{bar}|\n",
                (s.ts - start) * 1e3,
                s.kind.name(),
                id_str(s.shard),
                s.attempt,
            ));
        }
        out.push('\n');
    }
    out
}

/// Refresh wire/barrier latency histograms (with exemplars) into a
/// registry from the retained waterfalls: every per-hop wire latency lands
/// in `waterfall_wire_us` and every barrier wait in `waterfall_barrier_us`,
/// each carrying the `request_id` of its worst observation as an
/// OpenMetrics-style exemplar on the `_max` sample line — the link from a
/// latency bucket back to a retained waterfall.
pub fn export_metrics(registry: &MetricsRegistry, retained: &[Waterfall]) {
    registry.set_help(
        "waterfall_wire_us",
        "per-hop wire latency from retained request waterfalls; \
         the _max exemplar names the request",
    );
    registry.set_help(
        "waterfall_barrier_us",
        "barrier wait inside retained request waterfalls; \
         the _max exemplar names the request",
    );
    for w in retained {
        for secs in w.wire_latencies() {
            registry.observe_exemplar("waterfall_wire_us", (secs * 1e6) as u64, w.request_id);
        }
        let b = w.barrier_secs();
        if b > 0.0 {
            registry.observe_exemplar("waterfall_barrier_us", (b * 1e6) as u64, w.request_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceEvent, KINDS};
    use crate::tracer::Trace;

    /// A stamped event, terse.
    fn ev(
        rid: u64,
        attempt: u32,
        kind: EventKind,
        ts: f64,
        shard: u32,
        worker: u32,
        bytes: u64,
    ) -> TraceEvent {
        TraceEvent {
            ts,
            kind,
            shard,
            worker,
            bytes,
            request_id: rid,
            attempt,
            ..Default::default()
        }
    }

    /// One clean pull request: send → recv → requested → deferred →
    /// released → reply send → reply recv → barrier.
    fn clean_request(rid: u64, base: f64) -> Vec<TraceEvent> {
        let w = 0;
        let m = 0;
        vec![
            ev(rid, 0, EventKind::WireSend, base, m, w, 58),
            ev(rid, 0, EventKind::WireRecv, base + 0.001, m, w, 58),
            ev(rid, 0, EventKind::PullRequested, base + 0.0011, m, w, 58),
            ev(rid, 0, EventKind::PullDeferred, base + 0.0012, m, w, 0),
            ev(rid, 0, EventKind::DprReleased, base + 0.004, m, w, 0),
            ev(rid, 0, EventKind::WireSend, base + 0.0041, m, w, 512),
            ev(rid, 0, EventKind::WireRecv, base + 0.005, m, w, 512),
            {
                let mut b = ev(rid, 0, EventKind::BarrierWait, base, NO_ID, w, 0);
                b.dur = 0.005;
                b
            },
        ]
    }

    fn trace_of(events: Vec<TraceEvent>) -> Trace {
        let mut counts = [0u64; KINDS];
        for e in &events {
            counts[e.kind.index()] += 1;
        }
        Trace {
            events,
            counts,
            dropped: 0,
        }
    }

    #[test]
    fn assembly_groups_by_request_and_orders_canonically() {
        let mut events = clean_request(7, 1.0);
        events.extend(clean_request(9, 2.0));
        // An unstamped event is ignored, not misfiled.
        events.push(ev(0, 0, EventKind::VTrainAdvanced, 1.5, 0, NO_ID, 0));
        let set = assemble(&trace_of(events));
        assert_eq!(set.observed(), 2);
        assert_eq!(set.unstamped_events, 1);
        let w = set.get(7).expect("request 7 assembled");
        assert_eq!(w.stages.len(), 8);
        assert_eq!(w.worker(), 0);
        assert_eq!(w.attempts(), 1);
        assert!((w.total_secs() - 0.005).abs() < 1e-9);
        w.check_gapless().expect("clean request is gapless");
        assert!(set.get(8).is_none());
        // Slowest ranking is stable: equal totals break by id.
        let slow = set.slowest(2);
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].request_id, 7);
    }

    #[test]
    fn duplicates_fold_and_reorder_is_invisible() {
        let clean = clean_request(3, 1.0);
        let mut chaotic = clean.clone();
        chaotic.reverse();
        // Two duplicate deliveries: a re-received request frame and a
        // re-served reply, both later than the originals.
        let mut dup_recv = clean[1];
        dup_recv.ts += 0.002;
        let mut dup_reply = clean[5];
        dup_reply.ts += 0.003;
        chaotic.insert(2, dup_recv);
        chaotic.push(dup_reply);

        let a = assemble(&trace_of(clean));
        let b = assemble(&trace_of(chaotic));
        let (wa, wb) = (a.get(3).unwrap(), b.get(3).unwrap());
        assert_eq!(wa.stages, wb.stages, "folded stages agree");
        assert_eq!(wa.duplicates_folded, 0);
        assert_eq!(wb.duplicates_folded, 2, "both duplicates accounted");
        assert_eq!(
            wa.stable_line(),
            wb.stable_line().replace("folded=2", "folded=0")
        );
        wb.check_gapless().expect("folded chaos stream is gapless");
    }

    #[test]
    fn gapless_detects_a_lost_send() {
        // The recv survives but the ring overwrote its send.
        let events: Vec<TraceEvent> = clean_request(4, 1.0)
            .into_iter()
            .filter(|e| !(e.kind == EventKind::WireSend && e.bytes == 58))
            .collect();
        let set = assemble(&trace_of(events));
        let err = set.get(4).unwrap().check_gapless().unwrap_err();
        assert!(err.contains("wire recv without a send"), "{err}");
    }

    #[test]
    fn control_plane_requests_skip_wire_balance() {
        let rid = CONTROL_PLANE_BIT | (1 << 40) | 1;
        // Supervisor fan-outs trace only the receive side.
        let events = vec![
            ev(rid, 0, EventKind::ShardRemapped, 1.0, 0, NO_ID, 64),
            ev(rid, 0, EventKind::WireRecv, 1.001, 1, NO_ID, 96),
            ev(rid, 0, EventKind::WireRecv, 1.002, NO_ID, 0, 80),
        ];
        let set = assemble(&trace_of(events));
        let w = set.get(rid).unwrap();
        assert!(w.is_control_plane());
        assert!(w.recovery_touched());
        w.check_gapless().expect("control plane skips wire balance");
    }

    #[test]
    fn tail_sampler_keeps_top_latency_and_recovery_and_balances() {
        let mut events = Vec::new();
        // Five requests in one window with totals 1ms..5ms, plus a fast
        // retry-touched request that must survive on the recovery rule.
        for i in 0..5u64 {
            let rid = 100 + i;
            let base = 1.0 + i as f64 * 0.01;
            events.push(ev(rid, 0, EventKind::WireSend, base, 0, 0, 58));
            events.push(ev(
                rid,
                0,
                EventKind::WireRecv,
                base + 0.001 * (i + 1) as f64,
                0,
                0,
                58,
            ));
        }
        events.push(ev(200, 0, EventKind::WireSend, 1.0, 0, 1, 58));
        events.push(ev(200, 0, EventKind::RetryScheduled, 1.0001, 0, 1, 0));
        let set = assemble(&trace_of(events));
        assert_eq!(set.observed(), 6);

        let sampled = tail_sample(&set, 0.4);
        sampled
            .balance()
            .expect("retained + sampled_out == observed");
        // ceil(6 * 0.4) = 3 by latency rank, plus the recovery-touched one
        // (already-ranked requests are not double-counted).
        let ids: Vec<u64> = sampled.retained.iter().map(|w| w.request_id).collect();
        assert!(
            ids.contains(&104) && ids.contains(&103),
            "slowest retained: {ids:?}"
        );
        assert!(ids.contains(&200), "recovery-touched retained: {ids:?}");
        assert_eq!(sampled.observed, 6);
        assert_eq!(sampled.retained.len() as u64 + sampled.sampled_out, 6);
        assert_eq!(sampled.total_us.count(), 6, "aggregates cover everything");

        // Retain-everything is the deterministic repro mode.
        let all = tail_sample(&set, 1.0);
        assert_eq!(all.sampled_out, 0);
        assert_eq!(all.retained.len(), 6);
        all.balance().expect("trivially balanced");
    }

    #[test]
    fn stable_lines_are_sorted_and_logical_only() {
        let mut events = clean_request(12, 5.0);
        events.extend(clean_request(11, 1.0));
        let set = assemble(&trace_of(events));
        let lines: Vec<String> = set.waterfalls.iter().map(|w| w.stable_line()).collect();
        assert!(lines[0].starts_with("waterfall-request id=11 "));
        assert!(lines[1].starts_with("waterfall-request id=12 "));
        // Identical logical shape at different wall times renders
        // identically apart from the id.
        assert_eq!(
            lines[0].replace("id=11", "id=12"),
            lines[1],
            "no wall-clock leaks into the stable line"
        );
        assert!(lines[0].contains("stages=pull_requested:1,pull_deferred:1,dpr_released:1,"));
        assert!(lines[0].contains("wire_send:2,wire_recv:2"));
    }

    #[test]
    fn json_lines_validate_and_carry_stages() {
        let set = assemble(&trace_of(clean_request(5, 2.0)));
        let line = set.get(5).unwrap().json();
        json::validate(&line).expect("waterfall JSON validates");
        assert!(line.contains("\"request_id\":5"));
        assert!(line.contains("\"kind\":\"barrier_wait\""));
        assert!(line.contains("\"control_plane\":false"));
    }

    #[test]
    fn stage_table_aggregates_transitions() {
        let mut events = clean_request(1, 1.0);
        events.extend(clean_request(2, 3.0));
        let set = assemble(&trace_of(events));
        let table = stage_table(&set.waterfalls);
        let names: Vec<&str> = table.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"barrier_wait"), "{names:?}");
        assert!(
            names.iter().any(|n| n.contains("wire_send>wire_recv")),
            "{names:?}"
        );
        for (_, h) in &table {
            assert!(h.count() >= 1);
        }
    }

    #[test]
    fn render_text_aligns_and_scales() {
        let set = assemble(&trace_of(clean_request(6, 1.0)));
        let text = render_text(&set.slowest(1));
        assert!(text.starts_with("request 6 worker 0 attempts 1"));
        for line in text.lines().skip(1).filter(|l| !l.is_empty()) {
            assert!(line.contains('|'), "bar column present: {line}");
        }
        // The barrier spans the whole request: its bar fills the width.
        let barrier = text
            .lines()
            .find(|l| l.contains("barrier_wait"))
            .expect("barrier line");
        assert!(barrier.contains(&"#".repeat(BAR_WIDTH)), "{barrier}");
    }

    #[test]
    fn exemplars_link_histograms_to_requests() {
        let set = assemble(&trace_of(clean_request(42, 1.0)));
        let registry = MetricsRegistry::new();
        export_metrics(&registry, &set.waterfalls);
        let text = registry.render_prometheus();
        assert!(
            text.contains("waterfall_wire_us_max") && text.contains("# {request_id=\"42\"}"),
            "exemplar on the _max line:\n{text}"
        );
        assert!(text.contains("waterfall_barrier_us_count"));
    }
}
