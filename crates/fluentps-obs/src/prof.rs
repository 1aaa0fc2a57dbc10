//! In-process cooperative profiler: span-stack timing plus allocation
//! accounting, in the same mold as [`tracer`](crate::tracer).
//!
//! The tracer answers *what happened when*; this module answers *where the
//! cycles and bytes go inside a node*. Instrumented code opens named spans
//! with RAII guards:
//!
//! ```
//! # use fluentps_obs::prof::ProfCollector;
//! let collector = ProfCollector::wall();
//! let prof = collector.profiler();
//! {
//!     let _outer = prof.enter("server/handle");
//!     let _inner = prof.enter("server/apply_push");
//!     // ... work ...
//! }
//! let report = collector.snapshot();
//! assert!(report.spans.contains_key("server/handle;server/apply_push"));
//! ```
//!
//! Each thread keeps one span stack (shared by every [`Profiler`] handle,
//! so spans opened by different components nest into one call path). When a
//! guard drops, the span is aggregated under its full stack path
//! (`outer;inner;leaf`, flamegraph folded-stack style) into a call count,
//! total and self wall time, and allocation deltas read from the counting
//! global allocator in `fluentps-util::alloc`.
//!
//! The cost contract mirrors the tracer's: a *disabled* profiler is a
//! `None` — [`Profiler::enter`] and the guard drop are each a single branch,
//! no clock read, no thread-local touch, no allocation (benched as
//! `prof/disabled`, next to `tracer/disabled_record`). An *enabled* span
//! reads the clock and the thread's allocation counters twice and takes one
//! uncontended per-handle mutex at exit.
//!
//! Time comes from a pluggable [`ClockSource`], so simulator runs profile
//! deterministically under virtual time: with a [`VirtualClock`]
//! (see [`crate::clock`]) the aggregated timings — and therefore the folded
//! and speedscope exports — are bit-identical across same-seed runs.
//! Allocation counts are *not* part of that determinism contract (they
//! include allocator-internal effects of the surrounding run); see
//! DESIGN.md §15.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use fluentps_util::alloc::thread_counters;
use fluentps_util::sync::Mutex;

use crate::clock::ClockSource;
use crate::json;

/// One open span on the current thread's stack.
struct Frame {
    name: &'static str,
    start: f64,
    allocs0: u64,
    bytes0: u64,
    /// Wall time already attributed to completed children.
    child_secs: f64,
    /// Allocations already attributed to completed children.
    child_allocs: u64,
    /// Bytes already attributed to completed children.
    child_bytes: u64,
}

thread_local! {
    /// The thread's span stack. Process-wide (not per collector) so spans
    /// opened through different [`Profiler`] handles nest into one path.
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Aggregated statistics for one stack path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    /// Times a span with this exact stack path completed.
    pub count: u64,
    /// Wall seconds between enter and exit, summed over all calls.
    pub total_secs: f64,
    /// `total_secs` minus time attributed to child spans.
    pub self_secs: f64,
    /// Heap allocations between enter and exit, summed over all calls.
    pub allocs: u64,
    /// Heap bytes allocated between enter and exit, summed over all calls.
    pub alloc_bytes: u64,
    /// `allocs` minus allocations attributed to child spans.
    pub self_allocs: u64,
    /// `alloc_bytes` minus bytes attributed to child spans.
    pub self_alloc_bytes: u64,
}

impl SpanStat {
    fn absorb(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_secs += other.total_secs;
        self.self_secs += other.self_secs;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
        self.self_allocs += other.self_allocs;
        self.self_alloc_bytes += other.self_alloc_bytes;
    }
}

type Agg = Arc<Mutex<BTreeMap<String, SpanStat>>>;

struct Shared {
    clock: ClockSource,
    aggs: Mutex<Vec<Agg>>,
}

/// Owns the aggregation maps for one profiled run; hands out [`Profiler`]
/// handles (one per thread or component, like [`TraceCollector`]
/// (crate::TraceCollector) hands out tracers) and merges them into a
/// [`ProfileReport`] on demand.
#[derive(Clone)]
pub struct ProfCollector {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ProfCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfCollector")
            .field("handles", &self.shared.aggs.lock().len())
            .finish()
    }
}

impl ProfCollector {
    /// A collector reading time from `clock`.
    pub fn new(clock: ClockSource) -> Self {
        ProfCollector {
            shared: Arc::new(Shared {
                clock,
                aggs: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A wall-clock collector whose epoch is now.
    pub fn wall() -> Self {
        Self::new(ClockSource::wall())
    }

    /// Register a new aggregation map and return an enabled profiler
    /// writing into it. Each handle aggregates independently (so exits on
    /// different threads never contend); [`ProfCollector::snapshot`] merges
    /// them by path.
    pub fn profiler(&self) -> Profiler {
        let agg: Agg = Arc::new(Mutex::new(BTreeMap::new()));
        self.shared.aggs.lock().push(Arc::clone(&agg));
        Profiler(Some(ProfInner {
            clock: self.shared.clock.clone(),
            agg,
        }))
    }

    /// Merge every handle's aggregation into one report, keyed by full
    /// stack path. Non-destructive: profilers keep aggregating afterwards.
    /// Spans still open at snapshot time are not included.
    pub fn snapshot(&self) -> ProfileReport {
        let mut spans: BTreeMap<String, SpanStat> = BTreeMap::new();
        for agg in self.shared.aggs.lock().iter() {
            for (path, stat) in agg.lock().iter() {
                spans.entry(path.clone()).or_default().absorb(stat);
            }
        }
        ProfileReport { spans }
    }
}

#[derive(Clone)]
struct ProfInner {
    clock: ClockSource,
    agg: Agg,
}

/// A per-thread (or per-component) span-recording handle.
/// [`Profiler::disabled`] is the free default: entering a span is a branch
/// on `None` and the returned guard's drop is another.
#[derive(Clone, Default)]
pub struct Profiler(Option<ProfInner>);

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Profiler")
            .field(&if self.0.is_some() {
                "enabled"
            } else {
                "disabled"
            })
            .finish()
    }
}

impl Profiler {
    /// A profiler that records nothing, at no cost.
    pub fn disabled() -> Self {
        Profiler(None)
    }

    /// Whether spans will actually be recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Open a span named `name` on this thread's stack; the returned guard
    /// closes it on drop. Span names are static so the hot path never
    /// allocates at enter; the full stack path (`a;b;c`) is materialized
    /// once at exit.
    ///
    /// Guards close in LIFO order per thread under normal RAII use. A
    /// leaked guard (`mem::forget`) leaves its frame open; the enclosing
    /// span absorbs the orphan's time into its own self time when it
    /// closes, and nothing is recorded for the leaked span.
    #[must_use = "the span closes when the guard drops"]
    pub fn enter(&self, name: &'static str) -> SpanGuard {
        match &self.0 {
            Some(inner) => {
                let start = inner.clock.now();
                let (allocs0, bytes0) = thread_counters();
                let depth = STACK.with(|s| {
                    let mut stack = s.borrow_mut();
                    stack.push(Frame {
                        name,
                        start,
                        allocs0,
                        bytes0,
                        child_secs: 0.0,
                        child_allocs: 0,
                        child_bytes: 0,
                    });
                    stack.len()
                });
                SpanGuard {
                    armed: Some((inner.clone(), depth)),
                }
            }
            None => SpanGuard { armed: None },
        }
    }
}

/// Closes its span on drop, recording the aggregate into the profiler that
/// opened it. Owns its handles, so it borrows nothing from the
/// [`Profiler`] (instrumented methods can keep using `&mut self` while a
/// guard is live).
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard {
    /// `None` for a disabled profiler: drop is a single branch.
    armed: Option<(ProfInner, usize)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((inner, depth)) = self.armed.take() else {
            return;
        };
        // Read the clock and the allocation counters before any
        // bookkeeping, so the span's own accounting (path string, map
        // entry) is excluded from its numbers. Those profiler-internal
        // allocations land in the *parent* span's self window instead —
        // the documented attribution rule (DESIGN.md §15).
        let end = inner.clock.now();
        let (allocs1, bytes1) = thread_counters();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.len() < depth {
                // Our frame was already discarded (a child guard leaked and
                // an outer span truncated past us). Record nothing.
                return;
            }
            // Discard frames of leaked child guards: their time/allocs fold
            // into this span's self numbers.
            stack.truncate(depth);
            let frame = stack.pop().expect("depth > 0 implies a frame");
            let total = (end - frame.start).max(0.0);
            let self_secs = (total - frame.child_secs).max(0.0);
            let allocs = allocs1.saturating_sub(frame.allocs0);
            let bytes = bytes1.saturating_sub(frame.bytes0);
            let self_allocs = allocs.saturating_sub(frame.child_allocs);
            let self_bytes = bytes.saturating_sub(frame.child_bytes);
            let mut path = String::new();
            for f in stack.iter() {
                path.push_str(f.name);
                path.push(';');
            }
            path.push_str(frame.name);
            if let Some(parent) = stack.last_mut() {
                parent.child_secs += total;
                parent.child_allocs += allocs;
                parent.child_bytes += bytes;
            }
            drop(stack);
            let mut agg = inner.agg.lock();
            let stat = agg.entry(path).or_default();
            stat.count += 1;
            stat.total_secs += total;
            stat.self_secs += self_secs;
            stat.allocs += allocs;
            stat.alloc_bytes += bytes;
            stat.self_allocs += self_allocs;
            stat.self_alloc_bytes += self_bytes;
        });
    }
}

/// Which per-span value an export carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfMetric {
    /// Self wall time, in integer nanoseconds (the flamegraph default).
    #[default]
    SelfTime,
    /// Self allocation count.
    Allocs,
    /// Self allocated bytes.
    AllocBytes,
}

impl ProfMetric {
    /// Parse an export query value (`time` / `allocs` / `bytes`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "time" | "self" => Some(ProfMetric::SelfTime),
            "allocs" => Some(ProfMetric::Allocs),
            "bytes" => Some(ProfMetric::AllocBytes),
            _ => None,
        }
    }

    fn value(self, stat: &SpanStat) -> u64 {
        match self {
            ProfMetric::SelfTime => (stat.self_secs * 1e9).round() as u64,
            ProfMetric::Allocs => stat.self_allocs,
            ProfMetric::AllocBytes => stat.self_alloc_bytes,
        }
    }
}

/// A merged snapshot of one run's spans, keyed by full stack path
/// (`outer;inner;leaf`).
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Per-path aggregates, in path order.
    pub spans: BTreeMap<String, SpanStat>,
}

impl ProfileReport {
    /// Folded-stack text, one `path value` line per span path in
    /// lexicographic path order — the format `flamegraph.pl` and most
    /// flamegraph tooling consume directly. `metric` selects the value
    /// (self nanoseconds by default).
    pub fn folded(&self, metric: ProfMetric) -> String {
        let mut out = String::new();
        for (path, stat) in &self.spans {
            let _ = writeln!(out, "{path} {}", metric.value(stat));
        }
        out
    }

    /// Speedscope JSON (<https://www.speedscope.app>): one file with three
    /// "sampled" profiles — self time (nanoseconds), self allocations, and
    /// self allocated bytes — over a shared frame table. Each aggregated
    /// stack path becomes one sample whose weight is the metric value.
    /// Validates under [`crate::json::validate`].
    pub fn speedscope(&self, name: &str) -> String {
        // Frame table: unique span names, in first-use (path-sorted) order.
        let mut frame_idx: BTreeMap<&str, usize> = BTreeMap::new();
        let mut frames: Vec<&str> = Vec::new();
        let paths: Vec<(&String, &SpanStat)> = self.spans.iter().collect();
        for (path, _) in &paths {
            for seg in path.split(';') {
                frame_idx.entry(seg).or_insert_with(|| {
                    frames.push(seg);
                    frames.len() - 1
                });
            }
        }
        let mut out = String::new();
        out.push_str("{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",");
        let _ = write!(out, "\"name\":\"{}\",", json::escape(name));
        out.push_str("\"activeProfileIndex\":0,\"exporter\":\"fluentps\",");
        out.push_str("\"shared\":{\"frames\":[");
        for (i, f) in frames.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\"}}", json::escape(f));
        }
        out.push_str("]},\"profiles\":[");
        let profiles = [
            ("self time", "nanoseconds", ProfMetric::SelfTime),
            ("allocations", "none", ProfMetric::Allocs),
            ("allocated bytes", "bytes", ProfMetric::AllocBytes),
        ];
        for (i, (pname, unit, metric)) in profiles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut weights: Vec<u64> = Vec::with_capacity(paths.len());
            let mut samples = String::new();
            for (j, (path, stat)) in paths.iter().enumerate() {
                if j > 0 {
                    samples.push(',');
                }
                samples.push('[');
                for (k, seg) in path.split(';').enumerate() {
                    if k > 0 {
                        samples.push(',');
                    }
                    let _ = write!(samples, "{}", frame_idx[seg]);
                }
                samples.push(']');
                weights.push(metric.value(stat));
            }
            let end: u64 = weights.iter().sum();
            let _ = write!(
                out,
                "{{\"type\":\"sampled\",\"name\":\"{}\",\"unit\":\"{unit}\",\
                 \"startValue\":0,\"endValue\":{end},\"samples\":[{samples}],\"weights\":[",
                json::escape(pname)
            );
            for (j, w) in weights.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{w}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// The `n` paths with the largest self time, descending (ties broken
    /// by path, so the order is deterministic).
    pub fn top_self(&self, n: usize) -> Vec<(&str, &SpanStat)> {
        let mut rows: Vec<(&str, &SpanStat)> =
            self.spans.iter().map(|(p, s)| (p.as_str(), s)).collect();
        rows.sort_by(|a, b| {
            b.1.self_secs
                .partial_cmp(&a.1.self_secs)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(b.0))
        });
        rows.truncate(n);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    fn virtual_pair() -> (Arc<VirtualClock>, ProfCollector) {
        let clock = VirtualClock::new();
        let col = ProfCollector::new(ClockSource::virtual_clock(Arc::clone(&clock)));
        (clock, col)
    }

    #[test]
    fn disabled_profiler_records_nothing_and_keeps_the_stack_empty() {
        let prof = Profiler::disabled();
        assert!(!prof.is_enabled());
        {
            let _g = prof.enter("a");
            let _h = prof.enter("a/b");
            STACK.with(|s| assert!(s.borrow().is_empty()));
        }
        assert!(!Profiler::default().is_enabled());
    }

    #[test]
    fn nested_spans_split_self_and_total_time() {
        let (clock, col) = virtual_pair();
        let prof = col.profiler();
        {
            let _outer = prof.enter("outer");
            clock.set(1.0);
            {
                let _inner = prof.enter("inner");
                clock.set(3.0);
            }
            clock.set(4.0);
        }
        let report = col.snapshot();
        let outer = &report.spans["outer"];
        let inner = &report.spans["outer;inner"];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert_eq!(inner.total_secs, 2.0);
        assert_eq!(inner.self_secs, 2.0);
        assert_eq!(outer.total_secs, 4.0);
        assert_eq!(outer.self_secs, 2.0); // 4.0 total minus the child's 2.0
    }

    #[test]
    fn handles_from_one_collector_nest_on_the_shared_stack() {
        let (clock, col) = virtual_pair();
        let server = col.profiler();
        let wire = col.profiler();
        {
            let _s = server.enter("server/handle");
            clock.set(1.0);
            let _w = wire.enter("wire/encode");
            clock.set(2.0);
        }
        let report = col.snapshot();
        assert!(report.spans.contains_key("server/handle"));
        assert!(
            report.spans.contains_key("server/handle;wire/encode"),
            "paths: {:?}",
            report.spans.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn allocation_deltas_attach_to_the_open_span() {
        let col = ProfCollector::wall();
        let prof = col.profiler();
        {
            let _g = prof.enter("alloc_heavy");
            let v: Vec<u8> = Vec::with_capacity(1 << 16);
            std::hint::black_box(&v);
        }
        {
            let _g = prof.enter("alloc_free");
            std::hint::black_box(1 + 1);
        }
        let report = col.snapshot();
        let heavy = &report.spans["alloc_heavy"];
        assert!(heavy.allocs >= 1, "allocs: {heavy:?}");
        assert!(heavy.alloc_bytes >= 1 << 16, "bytes: {heavy:?}");
        assert!(heavy.self_allocs >= 1);
        let free = &report.spans["alloc_free"];
        assert_eq!(free.allocs, 0, "leaf span with no allocations: {free:?}");
    }

    #[test]
    fn repeated_calls_accumulate_counts() {
        let (clock, col) = virtual_pair();
        let prof = col.profiler();
        for i in 0..5u32 {
            let _g = prof.enter("step");
            clock.set((i + 1) as f64);
        }
        let report = col.snapshot();
        assert_eq!(report.spans["step"].count, 5);
    }

    #[test]
    fn leaked_child_guard_folds_into_the_parent() {
        let (clock, col) = virtual_pair();
        let prof = col.profiler();
        {
            let _outer = prof.enter("outer");
            clock.set(1.0);
            let inner = prof.enter("inner");
            std::mem::forget(inner);
            clock.set(3.0);
        }
        // The leaked span is not recorded; the outer span still closes
        // cleanly with the whole window as self time, and the stack is
        // empty again.
        let report = col.snapshot();
        assert!(!report.spans.contains_key("outer;inner"));
        let outer = &report.spans["outer"];
        assert_eq!(outer.total_secs, 3.0);
        assert_eq!(outer.self_secs, 3.0);
        STACK.with(|s| assert!(s.borrow().is_empty()));
    }

    #[test]
    fn folded_export_is_path_sorted_with_integer_values() {
        let (clock, col) = virtual_pair();
        let prof = col.profiler();
        {
            let _a = prof.enter("a");
            clock.set(1.0);
            let _b = prof.enter("b");
            clock.set(2.0);
        }
        let report = col.snapshot();
        let folded = report.folded(ProfMetric::SelfTime);
        assert_eq!(folded, "a 1000000000\na;b 1000000000\n");
        let allocs = report.folded(ProfMetric::Allocs);
        for line in allocs.lines() {
            let (_, v) = line.rsplit_once(' ').unwrap();
            v.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn speedscope_export_validates_and_carries_all_three_profiles() {
        let (clock, col) = virtual_pair();
        let prof = col.profiler();
        {
            let _a = prof.enter("server/handle");
            clock.set(1.0);
            {
                let _b = prof.enter("wire/encode");
                clock.set(1.5);
            }
            clock.set(2.0);
        }
        let report = col.snapshot();
        let ss = report.speedscope("unit \"test\"");
        json::validate(&ss).expect("speedscope output is valid JSON");
        assert!(ss.contains("\"$schema\""));
        assert!(ss.contains("\"unit\":\"nanoseconds\""));
        assert!(ss.contains("\"unit\":\"none\""));
        assert!(ss.contains("\"unit\":\"bytes\""));
        assert!(ss.contains("unit \\\"test\\\""));
        assert!(ss.contains("\"name\":\"wire/encode\""));
    }

    #[test]
    fn top_self_orders_by_self_time_descending() {
        let (clock, col) = virtual_pair();
        let prof = col.profiler();
        {
            let _g = prof.enter("short");
            clock.set(1.0);
        }
        {
            let _g = prof.enter("long");
            clock.set(5.0);
        }
        let report = col.snapshot();
        let top = report.top_self(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].0, "long");
        assert_eq!(report.top_self(10).len(), 2);
    }

    #[test]
    fn snapshot_merges_across_handles_and_threads() {
        let (clock, col) = virtual_pair();
        clock.set(0.0);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let prof = col.profiler();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    let _g = prof.enter("work");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let report = col.snapshot();
        assert_eq!(report.spans["work"].count, 40);
    }
}
