//! Cluster-wide trace collection: clock alignment and stream merging.
//!
//! A live TCP cluster records into one [`crate::TraceCollector`] *per OS
//! process*, each on its own wall-clock epoch. This module is the pure core
//! that turns those N per-node streams into one causally-consistent
//! timeline:
//!
//! * [`OffsetEstimator`] — NTP-style offset estimation from ping/pong
//!   samples. The estimate from the minimum-RTT sample wins, because its
//!   midpoint assumption (symmetric paths) has the least room to be wrong:
//!   the error is bounded by half that RTT's asymmetry.
//! * [`Hlc`] — a hybrid logical clock layered over the aligned physical
//!   timestamps. Offset estimation cannot make two clocks agree perfectly,
//!   so after alignment a node's stream may still contain ties or small
//!   rewinds; the HLC bumps a logical component to keep every stream
//!   strictly monotone without disturbing healthy physical timestamps.
//! * [`ClusterCollector`] — ingests per-node batches (in per-node order —
//!   the transport is FIFO per connection), applies the sender's offset and
//!   the per-node HLC at ingest time, and merges everything into a single
//!   [`Trace`] that the existing [`crate::analyze`] pass and exporters
//!   consume unchanged.
//!
//! The merge is order-insensitive across nodes: ingesting the same per-node
//! batches under any interleaving yields the same snapshot, because
//! alignment state is per-node and the merge sorts by the documented
//! tie-break `(aligned ts, node name, source seq)` before re-keying `seq`
//! to a cluster-unique global order.
//!
//! Accounting invariant: for every node, `received + dropped == emitted`.
//! Senders report cumulative `emitted`/`dropped` in every batch header, so
//! the collector can verify the balance at any poll; [`NodeStats`] exposes
//! it and `repro collect` prints it.

use std::collections::BTreeMap;

use crate::event::{TraceEvent, KINDS};
use crate::stream::HealthEngine;
use crate::tracer::Trace;

/// Smallest logical-clock increment, in seconds. Far below the microsecond
/// resolution anything in this system measures, but large enough that
/// adding it to any timestamp a run produces yields a distinct f64.
const HLC_TICK: f64 = 1e-9;

/// NTP-style clock-offset estimator.
///
/// For each probe the emitter records its local send time `t_send`, the
/// collector's processing time `t_collector` (echoed in the pong) and its
/// local receive time `t_recv`. Assuming the outbound and return paths are
/// symmetric, the collector clock read `t_collector` corresponds to the
/// local midpoint `(t_send + t_recv) / 2`, so the offset to *add to local
/// timestamps* to land on the collector timeline is
/// `t_collector - (t_send + t_recv) / 2`. The sample with the smallest
/// round-trip time is kept: its estimate's error is bounded by half of the
/// RTT asymmetry, which shrinks with the RTT itself.
#[derive(Debug, Clone, Default)]
pub struct OffsetEstimator {
    /// `(rtt, offset)` of the best (minimum-RTT) sample so far.
    best: Option<(f64, f64)>,
    samples: usize,
}

impl OffsetEstimator {
    /// An estimator with no samples (offset 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one ping/pong sample. Samples with non-positive RTT (clock
    /// glitches) are ignored.
    pub fn add_sample(&mut self, t_send: f64, t_collector: f64, t_recv: f64) {
        let rtt = t_recv - t_send;
        if !rtt.is_finite() || rtt < 0.0 {
            return;
        }
        self.samples += 1;
        let offset = t_collector - (t_send + t_recv) / 2.0;
        if self.best.is_none_or(|(best_rtt, _)| rtt < best_rtt) {
            self.best = Some((rtt, offset));
        }
    }

    /// The current offset estimate in seconds (add to a local timestamp to
    /// map it onto the collector clock). Zero until a sample arrives.
    pub fn offset(&self) -> f64 {
        self.best.map_or(0.0, |(_, offset)| offset)
    }

    /// RTT of the winning sample, if any.
    pub fn rtt(&self) -> Option<f64> {
        self.best.map(|(rtt, _)| rtt)
    }

    /// Number of accepted samples.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

/// A hybrid logical clock over f64-second timestamps.
///
/// `observe(ts)` returns `ts` when it advances past everything seen so
/// far, otherwise the last stamp plus one logical tick — so the returned
/// stamps are strictly monotone per clock while staying glued to physical
/// time whenever physical time behaves.
#[derive(Debug, Clone, Default)]
pub struct Hlc {
    last: Option<f64>,
    bumps: u64,
}

impl Hlc {
    /// A fresh clock; the first observation passes through unchanged.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stamp one observed timestamp.
    pub fn observe(&mut self, ts: f64) -> f64 {
        let stamp = match self.last {
            Some(last) if !(ts > last) => {
                self.bumps += 1;
                Self::successor(last)
            }
            _ if ts.is_finite() => ts,
            _ => {
                // Defensive: a non-finite timestamp never enters the
                // timeline; use the previous stamp's successor instead.
                self.bumps += 1;
                Self::successor(self.last.unwrap_or(0.0))
            }
        };
        self.last = Some(stamp);
        stamp
    }

    /// The next stamp strictly after `last`: one logical tick ahead, or —
    /// when `last` is so large in magnitude that the tick vanishes in
    /// rounding — the next representable f64.
    fn successor(last: f64) -> f64 {
        let next = last + HLC_TICK;
        if next > last {
            next
        } else {
            last.next_up()
        }
    }

    /// How many observations needed a logical bump (ties or rewinds).
    pub fn bumps(&self) -> u64 {
        self.bumps
    }
}

/// Per-node collection accounting, as exposed by
/// [`ClusterCollector::node_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// Stream name (the sender's `NodeId` rendering, e.g. `worker1`).
    pub node: String,
    /// Events the collector ingested from this node.
    pub received: u64,
    /// Cumulative events the node's tracer recorded (batch headers; summed
    /// across incarnations when the node restarted).
    pub emitted: u64,
    /// Cumulative events lost at the sender (ring overwrites before
    /// streaming plus send failures; summed across incarnations).
    pub dropped: u64,
    /// Events evicted collector-side because the per-node buffer was full.
    pub evicted: u64,
    /// Batches ingested.
    pub batches: u64,
    /// The sender's latest clock-offset estimate, in seconds.
    pub offset_secs: f64,
    /// Logical-clock bumps applied to this stream (ties/rewinds healed).
    pub hlc_bumps: u64,
    /// Stream incarnations observed (1 for a node that never restarted).
    pub incarnations: u64,
}

struct NodeStream {
    /// Aligned, HLC-stamped events; `seq` still carries the *source* seq.
    events: Vec<TraceEvent>,
    hlc: Hlc,
    received: u64,
    evicted: u64,
    batches: u64,
    offset_secs: f64,
    /// Cumulative header values of the current incarnation.
    cur_emitted: u64,
    cur_dropped: u64,
    last_batch_seq: u64,
    /// Folded totals of prior incarnations (a replacement node restarts its
    /// counters; the balance must still hold across the whole stream).
    base_emitted: u64,
    base_dropped: u64,
    incarnations: u64,
}

impl NodeStream {
    fn new() -> Self {
        NodeStream {
            events: Vec::new(),
            hlc: Hlc::new(),
            received: 0,
            evicted: 0,
            batches: 0,
            offset_secs: 0.0,
            cur_emitted: 0,
            cur_dropped: 0,
            last_batch_seq: 0,
            base_emitted: 0,
            base_dropped: 0,
            incarnations: 0,
        }
    }
}

/// Merges N per-node trace streams into one cluster-wide [`Trace`].
///
/// Not internally synchronized — the transport-level collector service
/// wraps it in a mutex and calls [`ClusterCollector::ingest`] from its
/// connection handlers.
pub struct ClusterCollector {
    nodes: BTreeMap<String, NodeStream>,
    counts: [u64; KINDS],
    /// Per-node event buffer cap; oldest events are evicted beyond it.
    capacity_per_node: usize,
    /// Live tap: every aligned event is forwarded here at ingest time.
    health: Option<HealthEngine>,
}

impl std::fmt::Debug for ClusterCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterCollector")
            .field("nodes", &self.nodes.len())
            .field("capacity_per_node", &self.capacity_per_node)
            .field("health", &self.health.is_some())
            .finish()
    }
}

impl ClusterCollector {
    /// A collector buffering at most `capacity_per_node` events per stream.
    pub fn new(capacity_per_node: usize) -> Self {
        ClusterCollector {
            nodes: BTreeMap::new(),
            counts: [0; KINDS],
            capacity_per_node: capacity_per_node.max(1),
            health: None,
        }
    }

    /// Stream every subsequently-ingested event (aligned onto the collector
    /// clock) into `engine`, and keep its collector drop totals current.
    /// Do not also tap the same engine off a local
    /// [`crate::TraceCollector`] cursor — events would double-count.
    pub fn attach_health(&mut self, engine: HealthEngine) {
        self.health = Some(engine);
    }

    /// Ingest one batch from `node`. Batches from a single node must arrive
    /// in send order (TCP gives this per connection); interleaving across
    /// nodes is arbitrary. `batch_seq` restarting (≤ the previous one)
    /// marks a new incarnation of the node — e.g. a replacement server
    /// taking over a dead one's name — whose accounting is folded into the
    /// stream totals.
    pub fn ingest(
        &mut self,
        node: &str,
        offset_secs: f64,
        batch_seq: u64,
        emitted: u64,
        dropped: u64,
        events: &[TraceEvent],
    ) {
        let stream = self
            .nodes
            .entry(node.to_string())
            .or_insert_with(NodeStream::new);
        if stream.incarnations == 0 || batch_seq <= stream.last_batch_seq {
            stream.base_emitted += stream.cur_emitted;
            stream.base_dropped += stream.cur_dropped;
            stream.cur_emitted = 0;
            stream.cur_dropped = 0;
            stream.incarnations += 1;
        }
        stream.last_batch_seq = batch_seq;
        stream.cur_emitted = stream.cur_emitted.max(emitted);
        stream.cur_dropped = stream.cur_dropped.max(dropped);
        stream.offset_secs = offset_secs;
        stream.batches += 1;
        stream.received += events.len() as u64;
        for ev in events {
            self.counts[ev.kind.index()] += 1;
            let mut aligned = *ev;
            aligned.ts = stream.hlc.observe(ev.ts + offset_secs);
            if let Some(h) = &self.health {
                h.observe(&aligned);
            }
            stream.events.push(aligned);
        }
        if stream.events.len() > self.capacity_per_node {
            let excess = stream.events.len() - self.capacity_per_node;
            stream.events.drain(..excess);
            stream.evicted += excess as u64;
        }
        if let Some(h) = &self.health {
            let (mut em, mut dr) = (0u64, 0u64);
            for s in self.nodes.values() {
                em += s.base_emitted + s.cur_emitted;
                dr += s.base_dropped + s.cur_dropped + s.evicted;
            }
            h.set_drop_totals(em, dr);
        }
    }

    /// Merge every stream into one trace on the collector timeline.
    ///
    /// Events sort by `(aligned ts, node name, source seq)` — the node name
    /// (not ingest order) breaks cross-node ties, which is what makes the
    /// merge independent of batch interleaving — and `seq` is then re-keyed
    /// to the cluster-unique global order, so downstream consumers
    /// ([`crate::analyze::analyze`], the exporters) see exactly the shape a
    /// single-process trace has.
    pub fn snapshot(&self) -> Trace {
        let mut tagged: Vec<(&str, TraceEvent)> = Vec::new();
        for (name, stream) in &self.nodes {
            for ev in &stream.events {
                tagged.push((name.as_str(), *ev));
            }
        }
        tagged.sort_by(|(an, a), (bn, b)| {
            a.ts.partial_cmp(&b.ts)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| an.cmp(bn))
                .then(a.seq.cmp(&b.seq))
        });
        let events = tagged
            .into_iter()
            .enumerate()
            .map(|(i, (_, mut ev))| {
                ev.seq = i as u64;
                ev
            })
            .collect();
        let (counts, dropped) = self.totals();
        Trace {
            events,
            counts,
            dropped,
        }
    }

    /// Per-kind totals ever ingested and events lost (at the senders or to
    /// eviction here) — a snapshot's `counts` and `dropped` without the
    /// merge.
    pub fn totals(&self) -> ([u64; KINDS], u64) {
        let lost = |s: &NodeStream| s.base_dropped + s.cur_dropped + s.evicted;
        (self.counts, self.nodes.values().map(lost).sum())
    }

    /// Per-node accounting, ordered by node name.
    pub fn node_stats(&self) -> Vec<NodeStats> {
        self.nodes
            .iter()
            .map(|(name, s)| NodeStats {
                node: name.clone(),
                received: s.received,
                emitted: s.base_emitted + s.cur_emitted,
                dropped: s.base_dropped + s.cur_dropped,
                evicted: s.evicted,
                batches: s.batches,
                offset_secs: s.offset_secs,
                hlc_bumps: s.hlc.bumps(),
                incarnations: s.incarnations,
            })
            .collect()
    }

    /// Check the accounting invariant `received + dropped == emitted` for
    /// every node; returns the offending nodes on failure.
    pub fn check_balance(&self) -> Result<(), Vec<NodeStats>> {
        let bad: Vec<NodeStats> = self
            .node_stats()
            .into_iter()
            .filter(|s| s.received + s.dropped != s.emitted)
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(ts: f64, seq: u64) -> TraceEvent {
        TraceEvent {
            ts,
            kind: EventKind::PushApplied,
            shard: 0,
            worker: 0,
            progress: seq,
            seq,
            ..Default::default()
        }
    }

    #[test]
    fn offset_estimator_prefers_minimum_rtt_sample() {
        let mut est = OffsetEstimator::new();
        // True offset +10.0 with a symmetric 2ms RTT.
        est.add_sample(1.000, 11.001, 1.002);
        assert!((est.offset() - 10.0).abs() < 1e-12);
        // A worse (larger-RTT, asymmetric) sample must not displace it.
        est.add_sample(2.000, 12.090, 2.100);
        assert!((est.offset() - 10.0).abs() < 1e-12);
        assert_eq!(est.samples(), 2);
        assert!((est.rtt().unwrap() - 0.002).abs() < 1e-12);
        // A tighter sample wins.
        est.add_sample(3.0000, 13.0005, 3.0010);
        assert!((est.rtt().unwrap() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn hlc_heals_ties_and_rewinds() {
        let mut hlc = Hlc::new();
        let a = hlc.observe(1.0);
        let b = hlc.observe(1.0); // tie
        let c = hlc.observe(0.5); // rewind
        let d = hlc.observe(2.0); // healthy advance passes through
        assert_eq!(a, 1.0);
        assert!(b > a);
        assert!(c > b);
        assert_eq!(d, 2.0);
        assert_eq!(hlc.bumps(), 2);
    }

    #[test]
    fn ingest_applies_offset_and_merge_rekeys_seq() {
        let mut col = ClusterCollector::new(64);
        col.ingest("worker0", 10.0, 1, 2, 0, &[ev(1.0, 0), ev(2.0, 1)]);
        col.ingest("server0", 0.0, 1, 1, 0, &[ev(11.5, 0)]);
        let trace = col.snapshot();
        assert_eq!(trace.events.len(), 3);
        // worker0's events land at 11.0 and 12.0 on the collector clock,
        // so server0's 11.5 interleaves between them.
        let ts: Vec<f64> = trace.events.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![11.0, 11.5, 12.0]);
        let seqs: Vec<u64> = trace.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(trace.count(EventKind::PushApplied), 3);
        assert!(col.check_balance().is_ok());
    }

    #[test]
    fn restarted_stream_folds_prior_incarnation_accounting() {
        let mut col = ClusterCollector::new(64);
        col.ingest("server1", 0.0, 1, 3, 1, &[ev(1.0, 0), ev(2.0, 1)]);
        // Replacement: batch_seq restarts at 1, counters restart too.
        col.ingest("server1", 0.0, 1, 1, 0, &[ev(3.0, 0)]);
        let stats = &col.node_stats()[0];
        assert_eq!(stats.incarnations, 2);
        assert_eq!(stats.emitted, 4);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.received, 3);
        assert!(col.check_balance().is_ok());
    }

    #[test]
    fn unbalanced_stream_is_reported() {
        let mut col = ClusterCollector::new(64);
        col.ingest("worker9", 0.0, 1, 5, 0, &[ev(1.0, 0)]);
        let bad = col.check_balance().unwrap_err();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].node, "worker9");
    }

    #[test]
    fn attached_health_engine_sees_aligned_events_and_drop_totals() {
        use crate::stream::{HealthEngine, StreamConfig};
        let engine = HealthEngine::with_default_rules(StreamConfig::all_run());
        let mut col = ClusterCollector::new(64);
        col.attach_health(engine.clone());
        col.ingest("worker0", 10.0, 1, 3, 1, &[ev(1.0, 0), ev(2.0, 1)]);
        let slo = engine.slo_text();
        assert!(slo.contains("slo events 2\n"), "{slo}");
        // dropped/emitted from the batch headers: 1/3.
        assert!(slo.contains("slo drop_rate 0.333333\n"), "{slo}");
    }

    #[test]
    fn per_node_buffer_evicts_oldest() {
        let mut col = ClusterCollector::new(2);
        col.ingest("w", 0.0, 1, 3, 0, &[ev(1.0, 0), ev(2.0, 1), ev(3.0, 2)]);
        let trace = col.snapshot();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].ts, 2.0);
        assert_eq!(col.node_stats()[0].evicted, 1);
        // Evictions count toward the trace's dropped total.
        assert_eq!(trace.dropped, 1);
    }
}
