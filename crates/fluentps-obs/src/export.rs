//! Trace exporters: Chrome trace-event JSON and JSONL.
//!
//! The Chrome exporter emits the [trace-event format] loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev): one lane per
//! `(shard, worker)` pair, instant events for every record, and duration
//! spans for matched `PullDeferred → DprReleased` pairs (name `dpr`) and
//! for `BarrierWait`s — so a deferred pull is literally a visible bar from
//! deferral to release, the paper's Fig. 9 as a timeline.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::HashMap;

use crate::event::{EventKind, TraceEvent, NO_ID};
use crate::json;
use crate::tracer::Trace;

/// `-1` for [`NO_ID`], the id otherwise — keeps exported JSON readable.
fn id_or_neg1(id: u32) -> i64 {
    if id == NO_ID {
        -1
    } else {
        id as i64
    }
}

fn micros(seconds: f64) -> String {
    json::number(seconds * 1e6)
}

fn args_json(ev: &TraceEvent) -> String {
    format!(
        "{{\"progress\":{},\"v_train\":{},\"bytes\":{}}}",
        ev.progress, ev.v_train, ev.bytes
    )
}

fn chrome_event(ph: &str, name: &str, ev: &TraceEvent, dur: Option<f64>) -> String {
    let mut s = format!(
        "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{},",
        json::escape(name),
        ph,
        micros(ev.ts)
    );
    if let Some(d) = dur {
        s.push_str(&format!("\"dur\":{},", micros(d)));
    }
    if ph == "i" {
        s.push_str("\"s\":\"t\",");
    }
    s.push_str(&format!(
        "\"pid\":{},\"tid\":{},\"args\":{}}}",
        id_or_neg1(ev.shard),
        id_or_neg1(ev.worker),
        args_json(ev)
    ));
    s
}

/// Export as one Chrome trace-event JSON document.
///
/// Timestamps convert to microseconds (the format's unit). Matched
/// `PullDeferred → DprReleased` pairs — keyed by `(shard, worker,
/// progress)` — additionally produce a `dpr` duration span; unmatched
/// deferrals (DPRs still buffered at snapshot time) stay visible as their
/// instant events.
pub fn chrome_trace(trace: &Trace) -> String {
    let mut parts: Vec<String> = Vec::with_capacity(trace.events.len() + 8);

    // Process-name metadata: one per shard lane, so Perfetto shows
    // "shard 0" instead of "pid 0".
    let mut pids: Vec<i64> = trace.events.iter().map(|e| id_or_neg1(e.shard)).collect();
    pids.sort_unstable();
    pids.dedup();
    for pid in pids {
        let name = if pid < 0 {
            "cluster".to_string()
        } else {
            format!("shard {pid}")
        };
        parts.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }

    let mut open_dprs: HashMap<(u32, u32, u64), &TraceEvent> = HashMap::new();
    for ev in &trace.events {
        match ev.kind {
            EventKind::PullDeferred => {
                open_dprs.insert((ev.shard, ev.worker, ev.progress), ev);
                parts.push(chrome_event("i", ev.kind.name(), ev, None));
            }
            EventKind::DprReleased => {
                if let Some(start) = open_dprs.remove(&(ev.shard, ev.worker, ev.progress)) {
                    let mut span = *start;
                    span.v_train = ev.v_train; // V_train at release, the interesting end
                    parts.push(chrome_event("X", "dpr", &span, Some(ev.ts - start.ts)));
                }
                parts.push(chrome_event("i", ev.kind.name(), ev, None));
            }
            EventKind::BarrierWait => {
                parts.push(chrome_event("X", ev.kind.name(), ev, Some(ev.dur)));
            }
            _ => parts.push(chrome_event("i", ev.kind.name(), ev, None)),
        }
    }

    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        parts.join(",\n")
    )
}

/// Export as JSONL: one compact JSON object per event, in trace order.
pub fn jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for ev in &trace.events {
        out.push_str(&format!(
            "{{\"ts\":{},\"dur\":{},\"kind\":\"{}\",\"shard\":{},\"worker\":{},\
             \"progress\":{},\"v_train\":{},\"bytes\":{},\"seq\":{},\
             \"request_id\":{},\"attempt\":{},\"parent_span\":{}}}\n",
            json::number(ev.ts),
            json::number(ev.dur),
            ev.kind.name(),
            id_or_neg1(ev.shard),
            id_or_neg1(ev.worker),
            ev.progress,
            ev.v_train,
            ev.bytes,
            ev.seq,
            ev.request_id,
            ev.attempt,
            id_or_neg1(ev.parent_span)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{ClockSource, VirtualClock};
    use crate::tracer::{RecordArgs, TraceCollector};
    use std::sync::Arc;

    fn sample_trace() -> Trace {
        let clock = VirtualClock::new();
        let col = TraceCollector::new(ClockSource::virtual_clock(Arc::clone(&clock)), 64);
        let t = col.tracer();
        let at = |shard: u32, worker: u32, progress: u64, v_train: u64| {
            RecordArgs::new()
                .shard(shard)
                .worker(worker)
                .progress(progress)
                .v_train(v_train)
        };
        clock.set(0.001);
        t.record(EventKind::PullRequested, at(0, 1, 5, 4).bytes(58));
        t.record(EventKind::PullDeferred, at(0, 1, 5, 4));
        clock.set(0.002);
        t.record(EventKind::PushApplied, at(0, 2, 4, 4).bytes(120));
        t.record(
            EventKind::VTrainAdvanced,
            RecordArgs::new().shard(0).v_train(5),
        );
        t.record(EventKind::DprReleased, at(0, 1, 5, 5));
        clock.set(0.003);
        let start = t.now();
        clock.set(0.004);
        t.record_span(
            EventKind::BarrierWait,
            start,
            RecordArgs::new().worker(1).progress(6),
        );
        col.snapshot()
    }

    #[test]
    fn chrome_trace_is_valid_json_with_dpr_span() {
        let doc = chrome_trace(&sample_trace());
        json::validate(&doc).unwrap();
        assert!(doc.contains("\"name\":\"dpr\""), "expected a dpr span");
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"name\":\"barrier_wait\""));
        assert!(doc.contains("\"displayTimeUnit\":\"ms\""));
        // Defer at 1ms, release at 2ms → 1000us span.
        assert!(doc.contains("\"ts\":1000,"), "span starts at defer time");
    }

    #[test]
    fn unmatched_dpr_stays_an_instant() {
        let col = TraceCollector::wall(8);
        let t = col.tracer();
        t.record(
            EventKind::PullDeferred,
            RecordArgs::new().shard(0).worker(1).progress(9).v_train(2),
        );
        let doc = chrome_trace(&col.snapshot());
        json::validate(&doc).unwrap();
        assert!(doc.contains("pull_deferred"));
        assert!(!doc.contains("\"name\":\"dpr\""));
    }

    #[test]
    fn jsonl_lines_are_each_valid() {
        let out = jsonl(&sample_trace());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 6);
        for line in lines {
            json::validate(line).unwrap();
        }
        assert!(out.contains("\"kind\":\"barrier_wait\""));
        assert!(out.contains("\"worker\":-1"));
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let trace = Trace::default();
        json::validate(&chrome_trace(&trace)).unwrap();
        assert_eq!(jsonl(&trace), "");
    }
}
