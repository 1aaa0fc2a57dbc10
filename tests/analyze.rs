//! Cross-crate tests for the trace-analytics engine: counting invariants
//! under ring overwriting, the SSP staleness bound as *observed by the
//! analyzer*, and the empirical PSSP block-rate curve against the
//! analytical `Pr[blocked | gap=k]` from `fluentps_core::pssp`.

use fluentps::core::condition::SyncModel;
use fluentps::core::dpr::DprPolicy;
use fluentps::core::pssp;
use fluentps::core::server::{ServerShard, ShardConfig};
use fluentps::experiments::driver::EngineKind;
use fluentps::experiments::tracerun;
use fluentps::obs::analyze::{analyze, analyze_phases};
use fluentps::obs::{EventKind, RecordArgs, TraceCollector, TraceEvent, NO_ID};
use fluentps::transport::KvPairs;
use fluentps_util::proptest::prelude::*;

proptest! {
    /// Per-kind totals survive ring overwriting: whatever the analyzer sees
    /// in the buffer, [`Analysis::recorded`] still equals the true number of
    /// recorded events per kind, the analyzed counts match the buffered
    /// events exactly, and recorded = analyzed + dropped overall.
    #[test]
    fn analyzer_counts_survive_ring_overwrites(
        ops in prop::collection::vec(
            (0usize..EventKind::ALL.len(), 0u32..3, 0u32..2, 0u64..50),
            1..120,
        ),
        capacity in 1usize..16,
    ) {
        let collector = TraceCollector::wall(capacity);
        let tracer = collector.tracer();
        let mut true_counts = [0u64; EventKind::ALL.len()];
        for &(kind_idx, worker, shard, progress) in &ops {
            let kind = EventKind::ALL[kind_idx];
            tracer.record(
                kind,
                RecordArgs::new().shard(shard).worker(worker).progress(progress),
            );
            true_counts[kind.index()] += 1;
        }
        let trace = collector.snapshot();
        let a = analyze(&trace);
        // Recorded totals are exact, regardless of what the ring dropped.
        for kind in EventKind::ALL {
            prop_assert_eq!(a.count(kind), true_counts[kind.index()]);
        }
        // Analyzed counts describe exactly the buffered events.
        for kind in EventKind::ALL {
            let buffered = trace.events.iter().filter(|e| e.kind == kind).count() as u64;
            prop_assert_eq!(a.analyzed[kind.index()], buffered);
        }
        // Conservation: everything recorded was either analyzed or dropped.
        let recorded: u64 = a.recorded.iter().sum();
        let analyzed: u64 = a.analyzed.iter().sum();
        prop_assert_eq!(recorded, analyzed + a.dropped);
        prop_assert_eq!(trace.events.len(), ops.len().min(capacity));
    }

    /// SSP bound, as seen end-to-end through the trace: drive a shard with
    /// arbitrary push/pull interleavings under `Ssp { s }` and assert the
    /// analyzer never observes a *granted* pull at staleness ≥ s.
    #[test]
    fn ssp_granted_staleness_stays_below_bound(
        s in 1u64..4,
        seeds in prop::collection::vec((0u32..3, any::<bool>()), 1..150),
    ) {
        let num_workers = 3u32;
        let collector = TraceCollector::wall(1 << 12);
        let mut shard = ServerShard::new(ShardConfig {
            server_id: 0,
            num_workers,
            model: SyncModel::Ssp { s },
            policy: DprPolicy::LazyExecution,
        });
        shard.set_tracer(collector.tracer());
        shard.init_param(0, vec![0.0]);
        let mut next_iter = vec![0u64; num_workers as usize];
        for &(w, is_pull) in &seeds {
            let i = next_iter[w as usize];
            if is_pull {
                let _ = shard.on_pull(w, i.saturating_sub(1), &[0], 0.5, None);
            } else {
                shard.on_push(w, i, &KvPairs::single(0, vec![1.0]));
                next_iter[w as usize] += 1;
            }
        }
        let a = analyze(&collector.snapshot());
        if let Some(max) = a.max_granted_staleness() {
            prop_assert!(max < s, "granted a pull at staleness {max} under SSP s={s}");
        }
        // Every gap entry is internally consistent.
        for g in &a.gaps {
            prop_assert_eq!(g.pulls, g.granted() + g.deferred);
        }
    }
}

/// The paper's PSSP claim, measured: run the traced demo under
/// `PsspConst { s, c }` and compare the analyzer's empirical block rate per
/// gap against the analytical `Pr[blocked | gap=k]` from `pssp.rs`.
#[test]
fn pssp_empirical_block_rate_matches_analytical() {
    let (s, c) = (2u64, 0.5f64);
    let mut cfg = tracerun::demo_config(false);
    cfg.engine = EngineKind::FluentPs {
        model: SyncModel::PsspConst { s, c },
        policy: DprPolicy::LazyExecution,
    };
    cfg.max_iters = 80;
    let r = fluentps::experiments::driver::run(&cfg);
    let trace = r.trace.expect("traced run returns a trace");
    let a = analyze(&trace);
    assert!(!a.gaps.is_empty(), "no pulls observed");
    let mut checked_beyond_bound = false;
    for g in &a.gaps {
        let analytical = pssp::constant_probability(c, s, g.gap);
        if g.gap < s {
            // Below the bound every pull is granted, deterministically.
            assert_eq!(
                g.deferred, 0,
                "gap {} deferred {} pulls below the SSP bound",
                g.gap, g.deferred
            );
            continue;
        }
        if g.pulls < 30 {
            continue; // too few samples for a rate comparison
        }
        checked_beyond_bound = true;
        let diff = (g.block_rate() - analytical).abs();
        assert!(
            diff <= 0.15,
            "gap {}: empirical block rate {:.3} vs analytical {:.3} (n={})",
            g.gap,
            g.block_rate(),
            analytical,
            g.pulls
        );
    }
    assert!(
        checked_beyond_bound,
        "run produced no well-sampled gaps beyond the bound; gaps: {:?}",
        a.gaps
    );
}

/// Ground truth for the wire matcher: run a real TCP cluster under
/// drop/reorder/duplicate chaos with causal ids on the wire, pair every
/// receive with a send of its own `(request_id, attempt)` over the raw
/// events here, and require each worker's wire time — and the count of
/// receives left unpaired — to be exactly what the analysis reports.
#[test]
fn wire_time_under_reorder_chaos_is_the_exact_id_pairing() {
    use fluentps::experiments::live::{run_chaos, ChaosConfig};
    use std::collections::{BTreeMap, HashMap, VecDeque};
    let r = run_chaos(&ChaosConfig {
        num_workers: 1,
        num_servers: 2,
        max_iters: 20,
        faults: 8, // seeded drops, reorder-delays and duplicates
        seed: 42,
        keep_trace: true,
        ..ChaosConfig::default()
    });
    let trace = r.trace.expect("keep_trace returns the collector snapshot");
    // Every worker's wire event carries an id: nothing is left to guess.
    // (A server's receipt of a control message names no worker, and the
    // analysis charges no worker for it.)
    let wire = |e: &&TraceEvent| {
        matches!(e.kind, EventKind::WireSend | EventKind::WireRecv) && e.worker != NO_ID
    };
    let wire_events: Vec<_> = trace.events.iter().filter(wire).collect();
    assert!(!wire_events.is_empty());
    for e in &wire_events {
        assert_ne!(e.request_id, 0, "{e:?}");
    }
    // Sends waiting per `(shard, worker, request_id, attempt)`, oldest first.
    let mut sent: HashMap<(u32, u32, u64, u32), VecDeque<f64>> = HashMap::new();
    let mut wire_secs: BTreeMap<u32, f64> = BTreeMap::new();
    let mut unmatched = 0u64;
    for e in wire_events {
        let id = (e.shard, e.worker, e.request_id, e.attempt);
        if e.kind == EventKind::WireSend {
            sent.entry(id).or_default().push_back(e.ts);
            continue;
        }
        match sent.get_mut(&id).and_then(VecDeque::pop_front) {
            Some(ts) => *wire_secs.entry(e.worker).or_default() += (e.ts - ts).max(0.0),
            None => unmatched += 1,
        }
    }
    let a = analyze(&trace);
    assert_eq!(a.unmatched_recvs, unmatched);
    assert!(!wire_secs.is_empty(), "nothing paired");
    for worker in wire_secs.keys() {
        assert!(
            a.workers.iter().any(|w| w.worker == *worker),
            "worker {worker}"
        );
    }
    for w in &a.workers {
        let want = wire_secs.get(&w.worker).copied().unwrap_or(0.0);
        assert!(
            (w.wire_secs - want).abs() <= 1e-9 * want.max(1.0),
            "worker {}: analysis {}s, exact pairing {want}s",
            w.worker,
            w.wire_secs
        );
    }
}

/// Compare `got` with `tests/golden/<name>` (rewrite it under
/// `FLUENTPS_BLESS=1`). Both analyzer goldens were blessed at the commit
/// *before* `analyze()` became a replay of the streaming fold, so they pin
/// the old batch engine's output.
fn assert_matches_golden(name: &str, got: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("FLUENTPS_BLESS").is_ok() {
        std::fs::write(&path, got).expect("bless golden file");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing — run with FLUENTPS_BLESS=1 to create it");
    assert_eq!(
        got, want,
        "{name} changed; if intentional, re-bless with FLUENTPS_BLESS=1"
    );
}

/// The whole report of the deterministic traced demo run (simulator, SSP
/// s=2 with stragglers): every section `repro analyze --ssp 2` prints.
#[test]
fn demo_analysis_report_matches_golden_file() {
    let trace = tracerun::demo_run(false).trace.expect("demo run traces");
    let (a, phases) = analyze_phases(&trace);
    let analytical = |k: u64| if k >= 2 { 1.0 } else { 0.0 };
    let report: String =
        fluentps::experiments::report::analysis_sections(&a, &phases, Some(&analytical))
            .iter()
            .map(|t| t.to_markdown() + "\n")
            .collect();
    assert_matches_golden("analysis_demo.md", &report);
}

/// Every field of the [`Analysis`] of a fault-free id-stamped trace: two
/// workers on two shards, each request and reply stamped with its causal
/// id and delivered in order, every third pull deferred and released by the
/// other worker's push — plus one duplicated receive, which finds no send
/// of its id left and so is unmatched.
#[test]
fn stamped_trace_analysis_matches_golden_file() {
    use fluentps::obs::{ClockSource, VirtualClock};
    let clock = VirtualClock::new();
    let collector = TraceCollector::new(
        ClockSource::virtual_clock(std::sync::Arc::clone(&clock)),
        1 << 12,
    );
    let t = collector.tracer();
    let mut now = 1.0;
    let mut tick = |secs: f64| {
        now += secs;
        clock.set(now);
    };
    let mut rid = 100u64;
    for i in 0..6u64 {
        for w in 0..2u32 {
            let m = (w + i as u32) % 2;
            let at = RecordArgs::new().shard(m).worker(w).progress(i);
            // Push: request out, applied, ack back.
            rid += 1;
            tick(0.010);
            t.record(EventKind::WireSend, at.bytes(203).ctx(rid, 0));
            tick(0.002);
            t.record(EventKind::WireRecv, at.bytes(203).ctx(rid, 0));
            t.record(EventKind::PushApplied, at.v_train(i).bytes(160));
            if w == 1 {
                t.record(
                    EventKind::VTrainAdvanced,
                    RecordArgs::new().shard(m).v_train(i + 1),
                );
            }
            t.record(EventKind::WireSend, at.bytes(39).ctx(rid, 0));
            tick(0.001);
            t.record(EventKind::WireRecv, at.bytes(39).ctx(rid, 0));
            if i == 3 && w == 0 {
                // The ack is delivered twice.
                tick(0.001);
                t.record(EventKind::WireRecv, at.bytes(39).ctx(rid, 0));
            }
            // Pull: request out; worker 0 runs ahead and is deferred on
            // every third iteration until worker 1's push lands.
            rid += 1;
            let gap = if w == 0 { i % 3 } else { 0 };
            let pull = at.v_train(i - gap.min(i));
            tick(0.003);
            t.record(EventKind::WireSend, pull.bytes(59).ctx(rid, 0));
            tick(0.002);
            t.record(EventKind::WireRecv, pull.bytes(59).ctx(rid, 0));
            t.record(EventKind::PullRequested, pull.bytes(59));
            if w == 0 && i % 3 == 2 {
                t.record(EventKind::PullDeferred, pull);
                let blocked = t.now();
                tick(0.040 + 0.010 * i as f64);
                t.record(EventKind::DprReleased, at.v_train(i));
                t.record_span(
                    EventKind::BarrierWait,
                    blocked,
                    at.shard(fluentps::obs::NO_ID),
                );
            }
            t.record(EventKind::WireSend, at.bytes(211).ctx(rid, 0));
            tick(0.002);
            t.record(EventKind::WireRecv, at.bytes(211).ctx(rid, 0));
        }
    }
    tick(0.005);
    t.record(
        EventKind::LatePushDropped,
        RecordArgs::new().shard(0).worker(1).progress(0).v_train(6),
    );
    let a = analyze(&collector.snapshot());
    assert_eq!(a.unmatched_recvs, 1);
    assert_matches_golden("analysis_stamped.txt", &format!("{a:#?}\n"));
}
