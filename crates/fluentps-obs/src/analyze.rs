//! The trace-analytics engine: turns a recorded [`Trace`] into the derived
//! quantities the paper argues with — who the straggler is, where each
//! worker's time went, how long DPRs sat in the buffer, how stale granted
//! pulls actually were, and how often a pull at gap `k` was blocked
//! (empirical `Pr[blocked | gap=k]`, to be checked against the analytical
//! PSSP curves upstream).
//!
//! The per-event work is not done here: [`analyze()`] replays the trace
//! through the one trace fold, [`crate::stream::StreamAnalyzer`], which
//! also serves the live `/slo` view, and adds the two derivations that
//! need the whole snapshot (progress spread, critical path).
//!
//! All derivations consume the *buffered* events; per-kind totals that
//! survive ring overwriting are reported alongside
//! ([`Analysis::recorded`] vs [`Analysis::analyzed`]) so a truncated trace
//! is visible rather than silently misleading.
//!
//! [`parse_jsonl`] reads the flat JSONL format written by
//! [`crate::export::jsonl`], so analysis works offline on exported files as
//! well as on a live [`crate::TraceCollector::snapshot`].

use std::collections::HashMap;

use crate::event::{EventKind, TraceEvent, KINDS, NO_ID};
use crate::hist::Histogram;
use crate::json;
use crate::stream::{DprPair, DprPairing, StreamAnalyzer, StreamConfig};
use crate::tracer::Trace;

/// How many sample points the progress-spread timeline carries.
const SPREAD_POINTS: usize = 8;

/// Upper bound on critical-path backtracking, to keep extraction linear.
const MAX_PATH_STEPS: usize = 16;

/// Where one worker's time went, from the events that mention it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerBreakdown {
    /// Worker id.
    pub worker: u32,
    /// Iterations observed for this worker (max `progress` + 1).
    pub iterations: u64,
    /// Timestamp of the worker's first buffered event.
    pub first_ts: f64,
    /// Timestamp (span end) of the worker's last buffered event.
    pub last_ts: f64,
    /// Seconds spent blocked in `BarrierWait` spans.
    pub barrier_secs: f64,
    /// Number of `BarrierWait` spans.
    pub barrier_count: u64,
    /// Seconds of matched `WireSend`→`WireRecv` latency involving this
    /// worker (both directions; the matching rule is the fold's, see
    /// [`StreamAnalyzer::ingest`]).
    pub wire_secs: f64,
    /// Total bytes on `WireSend` events naming this worker.
    pub bytes_sent: u64,
    /// Total bytes on `WireRecv` events naming this worker.
    pub bytes_recvd: u64,
    /// `PullRequested` events from this worker.
    pub pulls: u64,
    /// `PullDeferred` events for this worker.
    pub deferred: u64,
}

impl WorkerBreakdown {
    /// Seconds between the worker's first and last buffered events.
    pub fn active_secs(&self) -> f64 {
        (self.last_ts - self.first_ts).max(0.0)
    }

    /// Active time minus barrier and wire time: compute plus anything the
    /// trace cannot attribute (server-side processing, queueing).
    pub fn compute_secs(&self) -> f64 {
        (self.active_secs() - self.barrier_secs - self.wire_secs).max(0.0)
    }
}

/// Synchronization health of one shard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardHealth {
    /// Shard (server) id.
    pub shard: u32,
    /// Matched `PullDeferred`→`DprReleased` pairs.
    pub dpr_count: u64,
    /// Mean DPR residence time in seconds (0 when no pairs matched).
    pub dpr_residence_mean: f64,
    /// Longest DPR residence time in seconds.
    pub dpr_residence_max: f64,
    /// DPR residence times in microseconds (power-of-two buckets, so p50
    /// and p99 are upper bounds).
    pub dpr_residence_us: Histogram,
    /// `PullDeferred` events never matched by a `DprReleased` (still
    /// pending at snapshot, or the release was overwritten).
    pub outstanding_dprs: u64,
    /// `PushApplied` events on this shard.
    pub pushes: u64,
    /// `LatePushDropped` events on this shard.
    pub late_drops: u64,
    /// `VTrainAdvanced` events on this shard.
    pub v_train_advances: u64,
    /// Mean seconds between consecutive `VTrainAdvanced` events.
    pub advance_interval_mean: f64,
    /// Highest `v_train` seen on this shard's events.
    pub final_v_train: u64,
}

impl ShardHealth {
    /// Fraction of arriving pushes dropped as late:
    /// `late_drops / (pushes + late_drops)`.
    pub fn late_drop_rate(&self) -> f64 {
        let total = self.pushes + self.late_drops;
        if total == 0 {
            0.0
        } else {
            self.late_drops as f64 / total as f64
        }
    }
}

/// Pull outcomes at one staleness gap `k = progress - v_train`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapStat {
    /// The gap `k` at pull time.
    pub gap: u64,
    /// `PullRequested` events arriving at this gap.
    pub pulls: u64,
    /// How many of those were deferred (became DPRs).
    pub deferred: u64,
}

impl GapStat {
    /// Pulls answered immediately at this gap.
    pub fn granted(&self) -> u64 {
        self.pulls - self.deferred
    }

    /// Empirical `Pr[blocked | gap=k]`: `deferred / pulls`.
    pub fn block_rate(&self) -> f64 {
        if self.pulls == 0 {
            0.0
        } else {
            self.deferred as f64 / self.pulls as f64
        }
    }
}

/// Worker progress dispersion at one moment: the Fig. 1 analogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpreadPoint {
    /// Sample timestamp (seconds on the trace clock).
    pub ts: f64,
    /// Slowest worker's progress at `ts` (workers not yet seen count as 0).
    pub min_progress: u64,
    /// Fastest worker's progress at `ts`.
    pub max_progress: u64,
}

impl SpreadPoint {
    /// Iterations between the fastest and slowest worker.
    pub fn spread(&self) -> u64 {
        self.max_progress - self.min_progress
    }
}

/// One hop on the extracted critical path, walked backwards from the
/// longest DPR residence through the pull→defer→release→push chain.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// What happened ("dpr wait", "push", "barrier wait", ...).
    pub what: &'static str,
    /// Shard involved, or [`NO_ID`].
    pub shard: u32,
    /// Worker involved, or [`NO_ID`].
    pub worker: u32,
    /// When the step started (seconds on the trace clock).
    pub ts: f64,
    /// Seconds attributed to the step (0 for instantaneous hops).
    pub secs: f64,
}

/// Everything [`analyze`] derives from one trace.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Per-kind totals as recorded, surviving ring overwrites
    /// (from [`Trace::counts`]).
    pub recorded: [u64; KINDS],
    /// Per-kind totals over the buffered events actually analyzed.
    pub analyzed: [u64; KINDS],
    /// Events lost to ring overwriting before the snapshot.
    pub dropped: u64,
    /// First and last buffered timestamps (0,0 when the trace is empty).
    pub span: (f64, f64),
    /// Per-worker time breakdown, sorted by worker id.
    pub workers: Vec<WorkerBreakdown>,
    /// Per-shard sync health, sorted by shard id.
    pub shards: Vec<ShardHealth>,
    /// Pull outcomes per staleness gap, sorted by gap: the staleness
    /// histogram at pull time *and* the empirical block-rate curve.
    pub gaps: Vec<GapStat>,
    /// Progress spread over time ([`SPREAD_POINTS`] samples across the
    /// span; empty when no worker progress was observed).
    pub spread: Vec<SpreadPoint>,
    /// Critical path through the longest pull→defer→release→push chain,
    /// in causal order (earliest cause first, the longest DPR wait last).
    pub critical_path: Vec<PathStep>,
    /// `WireRecv` events no `WireSend` of the same `(request_id, attempt)`
    /// paired with — unstamped, their send lost to ring overwrite, or a
    /// fault-injected duplicate — and so left out of the wire time.
    pub unmatched_recvs: u64,
}

impl Analysis {
    /// Total events of `kind` ever recorded (robust to ring overflow).
    pub fn count(&self, kind: EventKind) -> u64 {
        self.recorded[kind.index()]
    }

    /// Largest gap at which at least one pull was *granted* — the
    /// staleness actually served to a worker. Under SSP with bound `s`
    /// this never exceeds `s - 1`.
    pub fn max_granted_staleness(&self) -> Option<u64> {
        self.gaps
            .iter()
            .filter(|g| g.granted() > 0)
            .map(|g| g.gap)
            .max()
    }

    /// The straggler: the worker with the fewest observed iterations
    /// (ties broken by later last activity).
    pub fn straggler(&self) -> Option<&WorkerBreakdown> {
        self.workers.iter().min_by(|a, b| {
            a.iterations.cmp(&b.iterations).then(
                b.last_ts
                    .partial_cmp(&a.last_ts)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        })
    }

    /// Total seconds attributed to the extracted critical path.
    pub fn critical_path_secs(&self) -> f64 {
        self.critical_path.iter().map(|s| s.secs).sum()
    }
}

/// Derive the [`Analysis`] of a buffered trace: replay it through the one
/// trace fold, [`StreamAnalyzer`] in its all-run mode, and read the
/// figures out. The wire matcher (exact causal ids, nothing else), the
/// defer→release pairing and the blocked-at-gap matcher are all defined
/// there.
///
/// Two derivations are computed here instead, because they are functions of
/// the whole snapshot rather than folds over it: [`progress_spread`] places
/// its sample points from the trace's *end* timestamp, and
/// [`critical_path`] walks the buffered events *backwards* from the fold's
/// longest-residence DPR pair.
pub fn analyze(trace: &Trace) -> Analysis {
    let mut fold = StreamAnalyzer::new(StreamConfig::all_run());
    for ev in &trace.events {
        fold.ingest(ev);
    }
    Analysis {
        recorded: trace.counts,
        dropped: trace.dropped,
        spread: progress_spread(trace),
        critical_path: critical_path(trace, fold.longest_dpr()),
        ..fold.analysis()
    }
}

fn progress_spread(trace: &Trace) -> Vec<SpreadPoint> {
    let mut worker_ids: Vec<u32> = Vec::new();
    for ev in &trace.events {
        if ev.worker != NO_ID && !worker_ids.contains(&ev.worker) {
            worker_ids.push(ev.worker);
        }
    }
    if worker_ids.is_empty() || trace.events.is_empty() {
        return Vec::new();
    }
    let (start, end) = (
        trace.events.first().expect("nonempty").ts,
        trace.events.last().expect("nonempty").ts,
    );
    if end <= start {
        return Vec::new();
    }
    let step = (end - start) / SPREAD_POINTS as f64;
    let mut progress: HashMap<u32, u64> = HashMap::new();
    let mut points = Vec::with_capacity(SPREAD_POINTS);
    let mut next_sample = start + step;
    let mut iter = trace.events.iter().peekable();
    for _ in 0..SPREAD_POINTS {
        while let Some(ev) = iter.peek() {
            if ev.ts > next_sample {
                break;
            }
            let ev = iter.next().expect("peeked");
            if ev.worker != NO_ID {
                let p = progress.entry(ev.worker).or_insert(0);
                *p = (*p).max(ev.progress);
            }
        }
        let min = worker_ids
            .iter()
            .map(|w| progress.get(w).copied().unwrap_or(0))
            .min()
            .unwrap_or(0);
        let max = worker_ids
            .iter()
            .map(|w| progress.get(w).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        points.push(SpreadPoint {
            ts: next_sample,
            min_progress: min,
            max_progress: max,
        });
        next_sample += step;
    }
    points
}

/// Walk backwards from `longest`, the longest-residence DPR pair: the
/// release was caused by a push on the same shard, that push came from a
/// worker whose own latest wait (a released DPR or a barrier) preceded it,
/// and so on.
fn critical_path(trace: &Trace, longest: Option<DprPair>) -> Vec<PathStep> {
    let Some(longest) = longest else {
        return Vec::new();
    };
    let mut steps = vec![PathStep {
        what: "dpr wait",
        shard: longest.shard,
        worker: longest.worker,
        ts: longest.deferred_at,
        secs: (longest.released_at - longest.deferred_at).max(0.0),
    }];
    // When each paired release's deferral happened, by the release's index.
    let mut dprs = DprPairing::default();
    let deferred_at: HashMap<usize, f64> = trace
        .events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| dprs.feed(e).map(|deferral| (i, deferral.ts)))
        .collect();
    let mut horizon = longest.released_at;
    let mut shard = longest.shard;
    for _ in 0..MAX_PATH_STEPS {
        // The push that (last) advanced V_train on `shard` before the wait
        // ended — the event that let the release happen.
        let Some(push) = trace.events.iter().rev().find(|e| {
            e.kind == EventKind::PushApplied
                && e.shard == shard
                && e.ts <= horizon
                && e.ts > steps.last().expect("nonempty").ts
        }) else {
            break;
        };
        steps.push(PathStep {
            what: "push",
            shard: push.shard,
            worker: push.worker,
            ts: push.ts,
            secs: 0.0,
        });
        // What was the pushing worker itself waiting on before that?
        let Some(at) = trace.events.iter().rposition(|e| {
            e.worker == push.worker
                && e.ts < push.ts
                && matches!(e.kind, EventKind::DprReleased | EventKind::BarrierWait)
        }) else {
            break;
        };
        let wait = &trace.events[at];
        match wait.kind {
            EventKind::BarrierWait => {
                steps.push(PathStep {
                    what: "barrier wait",
                    shard: wait.shard,
                    worker: wait.worker,
                    ts: wait.ts,
                    secs: wait.dur,
                });
                break;
            }
            _ => {
                // A released DPR: attribute its residence — back to the
                // defer it answered, if any — and keep walking through the
                // shard that released it.
                let residence = deferred_at
                    .get(&at)
                    .map_or(0.0, |&d| (wait.ts - d).max(0.0));
                steps.push(PathStep {
                    what: "dpr wait",
                    shard: wait.shard,
                    worker: wait.worker,
                    ts: wait.ts - residence,
                    secs: residence,
                });
                shard = wait.shard;
                horizon = wait.ts;
            }
        }
    }
    steps.reverse();
    steps
}

/// Parse the flat JSONL format written by [`crate::export::jsonl`] back
/// into a [`Trace`]. Per-kind counts are rebuilt from the parsed events
/// (`dropped` information does not survive export).
pub fn parse_jsonl(text: &str) -> Result<Trace, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        json::validate(line).map_err(|e| format!("line {}: invalid JSON: {e}", i + 1))?;
        events.push(parse_event(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    let mut counts = [0u64; KINDS];
    for ev in &events {
        counts[ev.kind.index()] += 1;
    }
    Ok(Trace {
        events,
        counts,
        dropped: 0,
    })
}

/// Parse one exported event object. The exporter writes flat objects with
/// unquoted numeric values and a single quoted string (`kind`), so
/// splitting on top-level commas is exact for this format.
fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("expected a JSON object")?;
    let mut ev = TraceEvent {
        shard: NO_ID,
        worker: NO_ID,
        ..Default::default()
    };
    let mut saw_kind = false;
    for field in inner.split(',') {
        let (key, value) = field.split_once(':').ok_or("expected key:value")?;
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        match key {
            "ts" => ev.ts = parse_secs(value)?,
            "dur" => ev.dur = parse_secs(value)?,
            "kind" => {
                let name = value.trim_matches('"');
                ev.kind = EventKind::ALL
                    .iter()
                    .copied()
                    .find(|k| k.name() == name)
                    .ok_or_else(|| format!("unknown event kind {name:?}"))?;
                saw_kind = true;
            }
            "shard" => ev.shard = parse_id(value)?,
            "worker" => ev.worker = parse_id(value)?,
            "progress" => ev.progress = parse_u64(value)?,
            "v_train" => ev.v_train = parse_u64(value)?,
            "bytes" => ev.bytes = parse_u64(value)?,
            "seq" => ev.seq = parse_u64(value)?,
            "request_id" => ev.request_id = parse_u64(value)?,
            "attempt" => {
                ev.attempt = value
                    .parse()
                    .map_err(|_| format!("bad attempt {value:?}"))?
            }
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    if !saw_kind {
        return Err("missing \"kind\" field".to_string());
    }
    Ok(ev)
}

/// Timestamps and durations are finite and non-negative; `1e400` parses
/// to `inf` and must not reach the window arithmetic.
fn parse_secs(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(t) if t.is_finite() && t >= 0.0 => Ok(t),
        _ => Err(format!("bad time {s:?}")),
    }
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("bad integer {s:?}"))
}

/// Ids export as `-1` for [`NO_ID`].
fn parse_id(s: &str) -> Result<u32, String> {
    if s == "-1" {
        Ok(NO_ID)
    } else {
        s.parse().map_err(|_| format!("bad id {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{ClockSource, VirtualClock};
    use crate::export;
    use crate::tracer::{RecordArgs, TraceCollector};
    use std::sync::Arc;

    fn at(shard: u32, worker: u32, progress: u64, v_train: u64) -> RecordArgs {
        RecordArgs::new()
            .shard(shard)
            .worker(worker)
            .progress(progress)
            .v_train(v_train)
    }

    /// Two workers on one shard: worker 1 pulls at gap 2 and is deferred
    /// for 1s; worker 0's push advances V_train and releases it.
    fn sample() -> Trace {
        let clock = VirtualClock::new();
        let col = TraceCollector::new(ClockSource::virtual_clock(Arc::clone(&clock)), 256);
        let t = col.tracer();
        clock.set(1.0);
        t.record(EventKind::WireSend, at(0, 1, 2, 0).bytes(58).request_id(1));
        clock.set(1.1);
        t.record(EventKind::WireRecv, at(0, 1, 2, 0).bytes(58).request_id(1));
        t.record(EventKind::PullRequested, at(0, 1, 2, 0).bytes(58));
        t.record(EventKind::PullDeferred, at(0, 1, 2, 0));
        clock.set(1.5);
        t.record(EventKind::PullRequested, at(0, 0, 0, 0).bytes(58));
        clock.set(2.0);
        t.record(EventKind::PushApplied, at(0, 0, 0, 0).bytes(512));
        clock.set(2.1);
        t.record(
            EventKind::VTrainAdvanced,
            RecordArgs::new().shard(0).v_train(1),
        );
        t.record(EventKind::DprReleased, at(0, 1, 2, 1));
        clock.set(2.2);
        let start = t.now();
        clock.set(2.5);
        t.record_span(
            EventKind::BarrierWait,
            start,
            RecordArgs::new().worker(1).progress(2).v_train(1),
        );
        clock.set(3.0);
        t.record(EventKind::LatePushDropped, at(0, 0, 0, 1).bytes(64));
        col.snapshot()
    }

    #[test]
    fn per_worker_breakdown_accounts_time() {
        let a = analyze(&sample());
        assert_eq!(a.workers.len(), 2);
        let w1 = &a.workers[1];
        assert_eq!(w1.worker, 1);
        assert_eq!(w1.pulls, 1);
        assert_eq!(w1.deferred, 1);
        assert_eq!(w1.barrier_count, 1);
        assert!((w1.barrier_secs - 0.3).abs() < 1e-9);
        assert!(
            (w1.wire_secs - 0.1).abs() < 1e-9,
            "send at 1.0, recv at 1.1"
        );
        assert_eq!(w1.bytes_sent, 58);
        assert!(w1.compute_secs() <= w1.active_secs());
    }

    #[test]
    fn shard_health_tracks_dpr_residence_and_drops() {
        let a = analyze(&sample());
        assert_eq!(a.shards.len(), 1);
        let sh = &a.shards[0];
        assert_eq!(sh.dpr_count, 1);
        assert!(
            (sh.dpr_residence_mean - 1.0).abs() < 1e-9,
            "deferred 1.1→2.1"
        );
        assert_eq!(sh.outstanding_dprs, 0);
        assert_eq!(sh.pushes, 1);
        assert_eq!(sh.late_drops, 1);
        assert!((sh.late_drop_rate() - 0.5).abs() < 1e-9);
        assert_eq!(sh.v_train_advances, 1);
        assert_eq!(sh.final_v_train, 1);
    }

    #[test]
    fn gap_stats_split_blocked_from_granted() {
        let a = analyze(&sample());
        assert_eq!(a.gaps.len(), 2);
        assert_eq!(
            (a.gaps[0].gap, a.gaps[0].pulls, a.gaps[0].deferred),
            (0, 1, 0)
        );
        assert_eq!(
            (a.gaps[1].gap, a.gaps[1].pulls, a.gaps[1].deferred),
            (2, 1, 1)
        );
        assert!((a.gaps[1].block_rate() - 1.0).abs() < 1e-9);
        assert_eq!(a.max_granted_staleness(), Some(0));
    }

    #[test]
    fn critical_path_walks_release_back_to_push() {
        let a = analyze(&sample());
        assert!(!a.critical_path.is_empty());
        let last = a.critical_path.last().expect("nonempty");
        assert_eq!(last.what, "dpr wait");
        assert_eq!(last.worker, 1);
        assert!((a.critical_path_secs() - 1.0).abs() < 1e-9);
        // Causal order: the push that triggered the release comes first.
        assert_eq!(a.critical_path[0].what, "push");
        assert_eq!(a.critical_path[0].worker, 0);
    }

    #[test]
    fn spread_tracks_min_and_max_progress() {
        let a = analyze(&sample());
        assert!(!a.spread.is_empty());
        let last = a.spread.last().expect("nonempty");
        assert!(last.max_progress >= 2);
        assert!(
            last.spread() >= 1,
            "worker 0 stays at 0, worker 1 reaches 2"
        );
    }

    #[test]
    fn jsonl_round_trip_preserves_analysis() {
        let trace = sample();
        let parsed = parse_jsonl(&export::jsonl(&trace)).expect("parses");
        assert_eq!(parsed.events.len(), trace.events.len());
        assert_eq!(parsed.counts, trace.counts);
        let (a, b) = (analyze(&trace), analyze(&parsed));
        assert_eq!(a.workers, b.workers);
        assert_eq!(a.shards, b.shards);
        assert_eq!(a.gaps, b.gaps);
        assert_eq!(a.critical_path, b.critical_path);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_jsonl("not json").is_err());
        assert!(parse_jsonl("{\"ts\":0}").is_err(), "missing kind");
        assert!(parse_jsonl("{\"kind\":\"no_such_kind\"}").is_err());
        // A JSONL trace is read by the build that wrote it: a field this
        // build does not export is an error, not skipped.
        let err = parse_jsonl("{\"kind\":\"wire_send\",\"span\":-1}").unwrap_err();
        assert_eq!(err, "line 1: unknown field \"span\"");
    }

    #[test]
    fn parse_rejects_hostile_numbers_with_the_line_number() {
        let good = "{\"ts\":1.5,\"dur\":0,\"kind\":\"wire_send\",\"attempt\":4294967295}";
        assert_eq!(
            parse_jsonl(good).expect("parses").events[0].attempt,
            u32::MAX
        );
        for bad in [
            "{\"ts\":1e400,\"kind\":\"wire_send\"}",
            "{\"ts\":-1.0,\"kind\":\"wire_send\"}",
            "{\"ts\":1.0,\"dur\":1e400,\"kind\":\"barrier_wait\"}",
            "{\"ts\":1.0,\"dur\":-0.5,\"kind\":\"barrier_wait\"}",
            "{\"ts\":1.0,\"kind\":\"wire_send\",\"attempt\":4294967296}",
        ] {
            let err = parse_jsonl(&format!("{good}\n{bad}")).expect_err(bad);
            assert!(err.starts_with("line 2: bad "), "{bad}: {err}");
        }
    }

    #[test]
    fn analyzed_counts_match_buffered_events() {
        let col = TraceCollector::wall(4);
        let t = col.tracer();
        for i in 0..50 {
            t.record(EventKind::WireSend, RecordArgs::new().worker(0).progress(i));
        }
        let trace = col.snapshot();
        let a = analyze(&trace);
        assert_eq!(a.recorded[EventKind::WireSend.index()], 50);
        assert_eq!(a.analyzed[EventKind::WireSend.index()], 4);
        assert_eq!(a.dropped, 46);
    }

    /// A stamped wire pair on one `(shard, worker)` queue.
    fn wire_pair(t: &crate::tracer::Tracer, clock: &VirtualClock, base: f64, rid: u64) {
        clock.set(base);
        t.record(
            EventKind::WireSend,
            at(0, 0, 0, 0).bytes(58).request_id(rid),
        );
        clock.set(base + 0.01);
        t.record(
            EventKind::WireRecv,
            at(0, 0, 0, 0).bytes(58).request_id(rid),
        );
    }

    #[test]
    fn an_unstamped_receive_is_unmatched_never_guessed() {
        let clock = VirtualClock::new();
        let col = TraceCollector::new(ClockSource::virtual_clock(Arc::clone(&clock)), 256);
        let t = col.tracer();
        clock.set(1.0);
        t.record(EventKind::WireSend, at(0, 0, 0, 0).bytes(58));
        clock.set(1.1);
        t.record(EventKind::WireRecv, at(0, 0, 0, 0).bytes(58));
        let a = analyze(&col.snapshot());
        assert_eq!(a.unmatched_recvs, 1);
        assert_eq!(a.workers[0].wire_secs, 0.0);
    }

    #[test]
    fn reordered_replies_pair_by_id_and_a_duplicate_is_unmatched() {
        let clock = VirtualClock::new();
        let col = TraceCollector::new(ClockSource::virtual_clock(Arc::clone(&clock)), 256);
        let t = col.tracer();
        // Two sends, replies arrive swapped: each pairs with its own send,
        // not the oldest on the queue.
        clock.set(1.0);
        t.record(EventKind::WireSend, at(0, 0, 0, 0).bytes(58).request_id(7));
        clock.set(1.1);
        t.record(EventKind::WireSend, at(0, 0, 1, 0).bytes(58).request_id(8));
        clock.set(1.2);
        t.record(EventKind::WireRecv, at(0, 0, 1, 0).bytes(58).request_id(8));
        clock.set(1.3);
        t.record(EventKind::WireRecv, at(0, 0, 0, 0).bytes(58).request_id(7));
        // A duplicate delivery finds no send left to pair with.
        clock.set(1.4);
        t.record(EventKind::WireRecv, at(0, 0, 0, 0).bytes(58).request_id(7));
        let a = analyze(&col.snapshot());
        assert_eq!(a.unmatched_recvs, 1);
        // Each request is charged its own transit: 0.1s and 0.3s.
        assert!((a.workers[0].wire_secs - 0.4).abs() < 1e-9);
    }

    /// One lost stamped send must cost its own latency sample only. FIFO
    /// pairing charged every later receive on the queue to the previous
    /// iteration's send — for the rest of the run.
    #[test]
    fn a_lost_stamped_send_does_not_shift_later_wire_latencies() {
        let clock = VirtualClock::new();
        let col = TraceCollector::new(ClockSource::virtual_clock(Arc::clone(&clock)), 256);
        let t = col.tracer();
        clock.set(0.5);
        // Sent, never received (dropped on the wire).
        t.record(EventKind::WireSend, at(0, 0, 0, 0).bytes(58).request_id(99));
        for i in 0..5u64 {
            wire_pair(&t, &clock, 1.0 + i as f64, 100 + i);
        }
        let a = analyze(&col.snapshot());
        assert!(
            (a.workers[0].wire_secs - 0.05).abs() < 1e-9,
            "five 10ms transits, got {}s",
            a.workers[0].wire_secs
        );
        assert_eq!(a.unmatched_recvs, 0);
    }

    #[test]
    fn blocked_at_gap_matches_when_defer_precedes_request_in_merge_order() {
        // A collector merge can interleave a shard's PullDeferred before
        // the worker's PullRequested for the same key; the pull still
        // counts as blocked at its gap, and only that pull.
        let clock = VirtualClock::new();
        let col = TraceCollector::new(ClockSource::virtual_clock(Arc::clone(&clock)), 64);
        let t = col.tracer();
        clock.set(1.0);
        t.record(EventKind::PullDeferred, at(0, 1, 4, 1));
        clock.set(1.1);
        t.record(EventKind::PullRequested, at(0, 1, 4, 1));
        clock.set(1.2);
        t.record(EventKind::PullRequested, at(0, 0, 2, 2));
        let a = analyze(&col.snapshot());
        let gaps: Vec<(u64, u64, u64)> = a
            .gaps
            .iter()
            .map(|g| (g.gap, g.pulls, g.deferred))
            .collect();
        assert_eq!(gaps, vec![(0, 1, 0), (3, 1, 1)]);
        assert_eq!(a.shards[0].outstanding_dprs, 1);
    }
}
