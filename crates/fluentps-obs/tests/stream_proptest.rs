//! Property test for the trace fold: `analyze()` is an all-run replay of
//! [`StreamAnalyzer`], so batch == stream holds by construction; what can
//! still go wrong is the *windowing* of the live mode leaking into the
//! all-run figures the same fold reports.

use fluentps_obs::{EventKind, StreamAnalyzer, StreamConfig, TraceEvent, KINDS, NO_ID};
use fluentps_util::proptest::prelude::*;

/// Timestamp-ordered events over few enough shards, workers, progress
/// values and request ids that sends meet receives, defers meet requests
/// and releases (in either order), and ids collide, repeat and go missing.
fn arb_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    let id = |n: u32| (0..=n).prop_map(move |i| if i == n { NO_ID } else { i });
    let event = (
        (0.0f64..0.4, 0.0f64..0.05, 0..KINDS),
        (id(2), id(3), 0u64..5, 0u64..5),
        (0u64..4, 0u32..2, 0u64..512),
    );
    prop::collection::vec(event, 0..160).prop_map(|raw| {
        let mut ts = 1.0;
        raw.into_iter()
            .enumerate()
            .map(
                |(i, ((dt, dur, kind), (shard, worker, progress, v_train), ctx))| {
                    ts += dt;
                    let kind = EventKind::ALL[kind];
                    TraceEvent {
                        ts,
                        dur: if kind == EventKind::BarrierWait {
                            dur
                        } else {
                            0.0
                        },
                        kind,
                        shard,
                        worker,
                        progress,
                        v_train,
                        request_id: ctx.0,
                        attempt: ctx.1,
                        bytes: ctx.2,
                        seq: i as u64,
                        ..Default::default()
                    }
                },
            )
            .collect()
    })
}

proptest! {
    /// The all-run outputs are identical whether the events are replayed in
    /// one never-closing window or in finite windows closed by
    /// `advance_to`: closing, rotating and summarising windows never
    /// touches them. The ring retains enough windows to cover the run —
    /// matcher entries older than the retained windows are aged out by
    /// design, which is the one way the live mode may differ.
    #[test]
    fn windowing_never_leaks_into_the_all_run_figures(
        events in arb_events(),
        window_secs in 0.05f64..3.0,
    ) {
        let span = events.last().map_or(0.0, |e| e.ts) - events.first().map_or(0.0, |e| e.ts);
        let windows = (span / window_secs) as usize + 2;
        let mut all_run = StreamAnalyzer::new(StreamConfig::all_run());
        let mut windowed = StreamAnalyzer::new(StreamConfig { window_secs, windows });
        for ev in &events {
            all_run.ingest(ev);
            windowed.advance_to(ev.ts);
            windowed.ingest(ev);
        }
        prop_assert_eq!(windowed.windows_closed(), (span / window_secs) as u64);
        let (a, w) = (all_run.analysis(), windowed.analysis());
        prop_assert_eq!(a.workers, w.workers);
        prop_assert_eq!(a.shards, w.shards);
        prop_assert_eq!(a.gaps, w.gaps);
        prop_assert_eq!(a.analyzed, w.analyzed);
        prop_assert_eq!(a.span, w.span);
        prop_assert_eq!(a.unmatched_recvs, w.unmatched_recvs);
    }
}
