//! Property tests for causal waterfall assembly: grouping and folding must
//! not care what order events arrived in the trace buffer, duplicate
//! deliveries must fold away without changing the stages, and the tail
//! sampler's drop accounting must balance for every retained fraction.

use fluentps_obs::waterfall::{assemble, tail_sample, CONTROL_PLANE_BIT};
use fluentps_obs::{EventKind, Trace, TraceEvent, KINDS, NO_ID};
use fluentps_util::proptest::prelude::*;

/// Wrap raw events in a [`Trace`]; `counts`/`dropped` are not consulted by
/// assembly, so zeros suffice.
fn trace_of(events: Vec<TraceEvent>) -> Trace {
    Trace {
        events,
        counts: [0; KINDS],
        dropped: 0,
    }
}

/// An arbitrary stamped-or-not event stream: a small request-id pool (0 =
/// unstamped, one id with the control-plane bit), finite timestamps, every
/// event kind, a few shards/workers/attempts, and coarse byte/progress
/// values so fold-key collisions actually happen.
fn arb_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    let ids = prop_oneof![Just(0u64), 1u64..4, Just(CONTROL_PLANE_BIT | 7)];
    prop::collection::vec(
        (
            (ids, 0.0f64..10.0, 0.0f64..0.01, 0..KINDS),
            (
                prop_oneof![0u32..3, Just(NO_ID)],
                prop_oneof![0u32..2, Just(NO_ID)],
                0u32..3,
                prop_oneof![Just(0u64), Just(64u64), Just(96u64)],
                0u64..3,
            ),
        ),
        0..48,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(
                |(i, ((request_id, ts, dur, kind), (shard, worker, attempt, bytes, progress)))| {
                    TraceEvent {
                        ts,
                        dur,
                        kind: EventKind::ALL[kind],
                        shard,
                        worker,
                        progress,
                        bytes,
                        seq: i as u64,
                        request_id,
                        attempt,
                        ..Default::default()
                    }
                },
            )
            .collect()
    })
}

/// Apply a generated swap list as a permutation (indices taken modulo the
/// vector length) — a shuffle the shrinker can simplify swap by swap.
fn apply_swaps(mut events: Vec<TraceEvent>, swaps: &[(usize, usize)]) -> Vec<TraceEvent> {
    if events.is_empty() {
        return events;
    }
    let n = events.len();
    for &(a, b) in swaps {
        events.swap(a % n, b % n);
    }
    events
}

proptest! {
    /// Assembly is order-insensitive: any permutation of the event stream
    /// yields identical waterfalls (stages, fold counts, ordering) and
    /// identical stamped/unstamped accounting. The trace buffer's arrival
    /// order — reordered by chaos, merged across nodes — must not matter.
    #[test]
    fn assembly_is_order_insensitive(
        events in arb_events(),
        swaps in prop::collection::vec((0usize..4096, 0usize..4096), 0..64),
    ) {
        let shuffled = apply_swaps(events.clone(), &swaps);
        let a = assemble(&trace_of(events));
        let b = assemble(&trace_of(shuffled));
        prop_assert_eq!(a.stamped_events, b.stamped_events);
        prop_assert_eq!(a.unstamped_events, b.unstamped_events);
        prop_assert_eq!(a.waterfalls.len(), b.waterfalls.len());
        for (wa, wb) in a.waterfalls.iter().zip(b.waterfalls.iter()) {
            prop_assert_eq!(wa.request_id, wb.request_id);
            prop_assert_eq!(wa.duplicates_folded, wb.duplicates_folded);
            prop_assert_eq!(&wa.stages, &wb.stages);
        }
    }

    /// Duplicate deliveries are invisible: appending copies of stamped
    /// events with `ts >=` the original's (a FaultInjector duplicate can
    /// only arrive later) leaves every waterfall's stages bit-identical and
    /// grows the fold counters by exactly the number injected.
    #[test]
    fn duplicates_fold_away_with_exact_accounting(
        events in arb_events(),
        picks in prop::collection::vec((0usize..4096, 0.0f64..1.0), 0..12),
    ) {
        let base = assemble(&trace_of(events.clone()));
        let stamped: Vec<TraceEvent> =
            events.iter().filter(|e| e.request_id != 0).copied().collect();
        let mut dups = Vec::new();
        if !stamped.is_empty() {
            for &(idx, delta) in &picks {
                let mut dup = stamped[idx % stamped.len()];
                dup.ts += delta; // never earlier than the original
                dups.push(dup);
            }
        }
        let injected = dups.len() as u64;
        let mut noisy = events;
        noisy.extend(dups);
        let dup_set = assemble(&trace_of(noisy));

        prop_assert_eq!(base.waterfalls.len(), dup_set.waterfalls.len());
        prop_assert_eq!(base.stamped_events, dup_set.stamped_events);
        prop_assert_eq!(base.unstamped_events, dup_set.unstamped_events);
        let base_folded: u64 = base.waterfalls.iter().map(|w| w.duplicates_folded).sum();
        let dup_folded: u64 = dup_set.waterfalls.iter().map(|w| w.duplicates_folded).sum();
        prop_assert_eq!(base_folded + injected, dup_folded);
        for (wa, wb) in base.waterfalls.iter().zip(dup_set.waterfalls.iter()) {
            prop_assert_eq!(wa.request_id, wb.request_id);
            prop_assert_eq!(&wa.stages, &wb.stages);
        }
    }

    /// Drop accounting balances for every retained fraction: retained +
    /// sampled_out == observed, the latency histogram saw every request,
    /// and recovery-touched requests are never sampled out.
    #[test]
    fn tail_sampler_balances_for_every_fraction(
        events in arb_events(),
        top_fraction in prop_oneof![Just(1.0f64), 0.0f64..1.0],
    ) {
        let set = assemble(&trace_of(events));
        let sampled = tail_sample(&set, top_fraction);
        prop_assert!(sampled.balance().is_ok(), "{:?}", sampled.balance());
        prop_assert_eq!(sampled.observed, set.observed());
        prop_assert_eq!(sampled.total_us.count(), set.observed());
        for w in set.waterfalls.iter().filter(|w| w.recovery_touched()) {
            prop_assert!(
                sampled.retained.iter().any(|r| r.request_id == w.request_id),
                "recovery-touched request {} was sampled out", w.request_id
            );
        }
    }
}
