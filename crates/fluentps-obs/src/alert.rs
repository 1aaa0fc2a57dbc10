//! Threshold alerting over streaming window statistics.
//!
//! An [`AlertRule`] names a window metric (see [`AlertMetric`]), a
//! threshold, and how many *consecutive* closed windows must breach it
//! before the rule fires — the classic "p99 over X for 3 windows" shape.
//! Rules are built in code; [`AlertRule::defaults`] is the set every live
//! health engine runs.
//! The [`AlertEngine`] evaluates every rule against each
//! [`WindowStats`](crate::stream::WindowStats) a
//! [`StreamAnalyzer`](crate::stream::StreamAnalyzer) closes, plus one
//! built-in event-driven liveness rule (`dead_nodes`) fed directly from
//! recovery events, and records typed firing/resolved
//! [`AlertTransition`]s.
//!
//! ## Determinism contract
//!
//! Wall-clock window rules depend on where real time slices the run, so
//! their transitions vary between runs. The `dead_nodes` rule is driven
//! purely by the *logical* event sequence (`NodeDeclaredDead`,
//! `CheckpointRestored`, `ShardRemapped`), which a seeded chaos run
//! reproduces exactly — so only logical transitions fold into
//! [`AlertEngine::fingerprint`], and two same-seed runs produce the same
//! fingerprint even though their window boundaries differ.

use crate::event::{EventKind, TraceEvent};
use crate::stream::WindowStats;

/// Which per-window statistic a rule thresholds on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertMetric {
    /// p99 of matched `WireSend`→`WireRecv` latency, microseconds
    /// (worst shard in the window).
    WireP99Us,
    /// p99 DPR residence time, microseconds (worst shard in the window).
    DprP99Us,
    /// p99 `BarrierWait` span duration, microseconds.
    BarrierP99Us,
    /// Fraction of pulls deferred in the window (`deferred / pulls`).
    BlockRate,
    /// Collector drop fraction (`dropped / emitted`) at window close.
    DropRate,
    /// Largest staleness gap observed at pull time in the window.
    MaxGap,
    /// Fastest-minus-slowest worker progress at window close (straggler
    /// score).
    Spread,
}

impl AlertMetric {
    /// Stable name used by the renderers.
    pub fn name(self) -> &'static str {
        match self {
            AlertMetric::WireP99Us => "p99_wire_us",
            AlertMetric::DprP99Us => "p99_dpr_us",
            AlertMetric::BarrierP99Us => "p99_barrier_us",
            AlertMetric::BlockRate => "block_rate",
            AlertMetric::DropRate => "drop_rate",
            AlertMetric::MaxGap => "max_gap",
            AlertMetric::Spread => "spread",
        }
    }

    /// Extract this metric's value from one closed window.
    pub fn value(self, w: &WindowStats) -> f64 {
        match self {
            AlertMetric::WireP99Us => w.wire_p99_us as f64,
            AlertMetric::DprP99Us => w.dpr_p99_us as f64,
            AlertMetric::BarrierP99Us => w.barrier_p99_us as f64,
            AlertMetric::BlockRate => w.block_rate(),
            AlertMetric::DropRate => w.drop_rate,
            AlertMetric::MaxGap => w.max_gap as f64,
            AlertMetric::Spread => w.spread as f64,
        }
    }
}

/// One declarative threshold rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name, used in transitions, `/alerts` output and gauges.
    pub name: String,
    /// The window statistic being thresholded.
    pub metric: AlertMetric,
    /// Fires when `metric > threshold`.
    pub threshold: f64,
    /// Consecutive breaching windows required before firing (≥ 1).
    pub windows: u32,
}

impl AlertRule {
    /// Build a rule directly.
    pub fn new(name: &str, metric: AlertMetric, threshold: f64, windows: u32) -> AlertRule {
        AlertRule {
            name: name.to_string(),
            metric,
            threshold,
            windows: windows.max(1),
        }
    }

    /// The default rule set used by `repro chaos --metrics-addr` and
    /// `repro watch`: tail-latency SLOs on the wire and DPR paths, a
    /// straggler-spread watch, collector-loss and staleness-ceiling guards.
    pub fn defaults() -> Vec<AlertRule> {
        vec![
            AlertRule::new("wire-p99", AlertMetric::WireP99Us, 50_000.0, 3),
            AlertRule::new("dpr-p99", AlertMetric::DprP99Us, 200_000.0, 3),
            AlertRule::new("straggler-spread", AlertMetric::Spread, 8.0, 2),
            AlertRule::new("drop-rate", AlertMetric::DropRate, 0.05, 1),
            AlertRule::new("staleness-ceiling", AlertMetric::MaxGap, 16.0, 2),
        ]
    }
}

/// One firing or resolved edge of a rule's state.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// Name of the rule that changed state.
    pub rule: String,
    /// `true` on the firing edge, `false` on the resolved edge.
    pub firing: bool,
    /// When it happened: the closed window's index for window rules, the
    /// triggering event's `progress` for the logical `dead_nodes` rule.
    pub at: u64,
    /// Human-readable cause (`"p99_wire_us 81920 > 50000"`,
    /// `"pending=1 declared=1 recovered=0"`).
    pub detail: String,
    /// `true` when driven by the logical event sequence (deterministic
    /// under a fixed seed) rather than wall-clock windows.
    pub logical: bool,
}

/// Per-rule streak tracking.
#[derive(Debug, Clone)]
struct RuleState {
    rule: AlertRule,
    streak: u32,
    firing: bool,
}

/// FNV-1a offset basis (matches the run-fingerprint convention used by
/// `fluentps-experiments`).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Evaluates rules over closed windows and recovery events, tracking
/// firing/resolved state per rule.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    rules: Vec<RuleState>,
    /// Dead nodes not yet recovered: declared − (restored + remapped),
    /// clamped at 0.
    dead_pending: u64,
    dead_total: u64,
    recovered_total: u64,
    liveness_firing: bool,
    transitions: Vec<AlertTransition>,
    fingerprint: u64,
}

impl AlertEngine {
    /// Engine over `rules` plus the built-in `dead_nodes` liveness rule.
    pub fn new(rules: Vec<AlertRule>) -> AlertEngine {
        AlertEngine {
            rules: rules
                .into_iter()
                .map(|rule| RuleState {
                    rule,
                    streak: 0,
                    firing: false,
                })
                .collect(),
            dead_pending: 0,
            dead_total: 0,
            recovered_total: 0,
            liveness_firing: false,
            transitions: Vec::new(),
            fingerprint: FNV_OFFSET,
        }
    }

    /// Evaluate every window rule against one closed window.
    pub fn on_window(&mut self, w: &WindowStats) {
        for st in &mut self.rules {
            let value = st.rule.metric.value(w);
            if value > st.rule.threshold {
                st.streak += 1;
                if !st.firing && st.streak >= st.rule.windows {
                    st.firing = true;
                    self.transitions.push(AlertTransition {
                        rule: st.rule.name.clone(),
                        firing: true,
                        at: w.index,
                        detail: format!(
                            "{} {value} > {} for {} window(s)",
                            st.rule.metric.name(),
                            st.rule.threshold,
                            st.streak
                        ),
                        logical: false,
                    });
                }
            } else {
                st.streak = 0;
                if st.firing {
                    st.firing = false;
                    self.transitions.push(AlertTransition {
                        rule: st.rule.name.clone(),
                        firing: false,
                        at: w.index,
                        detail: format!(
                            "{} {value} <= {}",
                            st.rule.metric.name(),
                            st.rule.threshold
                        ),
                        logical: false,
                    });
                }
            }
        }
    }

    /// Feed one trace event into the logical `dead_nodes` rule. Only
    /// recovery kinds matter; everything else is ignored.
    pub fn on_event(&mut self, ev: &TraceEvent) {
        match ev.kind {
            EventKind::NodeDeclaredDead => {
                self.dead_pending += 1;
                self.dead_total += 1;
            }
            EventKind::CheckpointRestored => {
                self.recovered_total += 1;
                self.dead_pending = self.dead_pending.saturating_sub(1);
            }
            EventKind::ShardRemapped => {
                self.dead_pending = self.dead_pending.saturating_sub(1);
            }
            _ => return,
        }
        let should_fire = self.dead_pending > 0;
        if should_fire != self.liveness_firing {
            self.liveness_firing = should_fire;
            let t = AlertTransition {
                rule: "dead_nodes".to_string(),
                firing: should_fire,
                at: ev.progress,
                detail: format!(
                    "pending={} declared={} recovered={}",
                    self.dead_pending, self.dead_total, self.recovered_total
                ),
                logical: true,
            };
            self.fingerprint = fnv1a(self.fingerprint, t.rule.as_bytes());
            self.fingerprint = fnv1a(self.fingerprint, &[t.firing as u8]);
            self.fingerprint = fnv1a(self.fingerprint, &self.dead_pending.to_le_bytes());
            self.transitions.push(t);
        }
    }

    /// FNV-1a hash folded over the *logical* transitions only — identical
    /// across two same-seed chaos runs (see the module docs).
    pub fn fingerprint(&self) -> u64 {
        if self.fingerprint == 0 {
            FNV_OFFSET
        } else {
            self.fingerprint
        }
    }

    /// Every transition recorded so far, in order.
    pub fn transitions(&self) -> &[AlertTransition] {
        &self.transitions
    }

    /// `true` while any rule (window or liveness) is firing.
    pub fn any_firing(&self) -> bool {
        self.liveness_firing || self.rules.iter().any(|r| r.firing)
    }

    /// One `alert <name> firing|ok` line per rule, for the `/slo` text.
    pub fn render_states(&self) -> String {
        let mut out = String::new();
        for st in &self.rules {
            out.push_str(&format!(
                "alert {} {}\n",
                st.rule.name,
                if st.firing { "firing" } else { "ok" }
            ));
        }
        out.push_str(&format!(
            "alert dead_nodes {}\n",
            if self.liveness_firing { "firing" } else { "ok" }
        ));
        out
    }

    /// JSONL: one object per transition (history), then one `state`
    /// object per rule (current view) — the `/alerts` payload.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for t in &self.transitions {
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"transition\":\"{}\",\"at\":{},\"logical\":{},\"detail\":\"{}\"}}\n",
                t.rule,
                if t.firing { "firing" } else { "resolved" },
                t.at,
                t.logical,
                t.detail
            ));
        }
        for st in &self.rules {
            let r = &st.rule;
            let streak = if r.windows > 1 {
                format!(" for {}", r.windows)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{{\"state\":\"{}\",\"firing\":{},\"rule\":\"{}: {} > {}{streak}\"}}\n",
                r.name,
                st.firing,
                r.name,
                r.metric.name(),
                r.threshold
            ));
        }
        out.push_str(&format!(
            "{{\"state\":\"dead_nodes\",\"firing\":{},\"pending\":{},\"declared\":{},\"recovered\":{}}}\n",
            self.liveness_firing, self.dead_pending, self.dead_total, self.recovered_total
        ));
        out
    }

    /// Export one `alert_active{rule=...}` gauge (0/1) per rule.
    pub fn export_metrics(&self, registry: &crate::metrics::MetricsRegistry) {
        for st in &self.rules {
            registry
                .scope()
                .with("rule", &st.rule.name)
                .set_gauge("alert_active", if st.firing { 1.0 } else { 0.0 });
        }
        registry
            .scope()
            .with("rule", "dead_nodes")
            .set_gauge("alert_active", if self.liveness_firing { 1.0 } else { 0.0 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_ID;

    fn window(index: u64) -> WindowStats {
        WindowStats {
            index,
            ..WindowStats::default()
        }
    }

    fn recovery_event(kind: EventKind, progress: u64) -> TraceEvent {
        TraceEvent {
            kind,
            shard: 0,
            worker: NO_ID,
            progress,
            ..Default::default()
        }
    }

    #[test]
    fn streak_rule_needs_consecutive_breaches() {
        let rule = AlertRule::new("gap", AlertMetric::MaxGap, 4.0, 3);
        let mut eng = AlertEngine::new(vec![rule]);
        let breach = |i| WindowStats {
            max_gap: 10,
            ..window(i)
        };
        eng.on_window(&breach(0));
        eng.on_window(&breach(1));
        eng.on_window(&window(2)); // streak broken
        eng.on_window(&breach(3));
        eng.on_window(&breach(4));
        assert!(eng.transitions().is_empty(), "never 3 in a row");
        eng.on_window(&breach(5));
        assert_eq!(eng.transitions().len(), 1);
        assert!(eng.transitions()[0].firing);
        assert_eq!(eng.transitions()[0].at, 5);
        assert!(eng.any_firing());
        eng.on_window(&window(6));
        assert_eq!(eng.transitions().len(), 2);
        assert!(!eng.transitions()[1].firing);
        assert!(!eng.any_firing());
    }

    #[test]
    fn dead_nodes_fires_and_resolves_on_recovery_events() {
        let mut eng = AlertEngine::new(Vec::new());
        eng.on_event(&recovery_event(EventKind::NodeDeclaredDead, 8));
        assert!(eng.any_firing());
        // An unrelated event changes nothing.
        eng.on_event(&recovery_event(EventKind::PushApplied, 9));
        assert_eq!(eng.transitions().len(), 1);
        eng.on_event(&recovery_event(EventKind::CheckpointRestored, 9));
        assert!(!eng.any_firing());
        let ts = eng.transitions();
        assert_eq!(ts.len(), 2);
        assert!(ts[0].firing && ts[0].logical && ts[0].at == 8);
        assert!(!ts[1].firing && ts[1].logical && ts[1].at == 9);
    }

    #[test]
    fn remap_also_resolves_liveness() {
        let mut eng = AlertEngine::new(Vec::new());
        eng.on_event(&recovery_event(EventKind::NodeDeclaredDead, 3));
        eng.on_event(&recovery_event(EventKind::ShardRemapped, 4));
        assert!(!eng.any_firing());
        assert_eq!(eng.transitions().len(), 2);
    }

    #[test]
    fn fingerprint_covers_logical_transitions_only() {
        let run = |with_window_noise: bool| {
            let mut eng =
                AlertEngine::new(vec![AlertRule::new("gap", AlertMetric::MaxGap, 1.0, 1)]);
            if with_window_noise {
                eng.on_window(&WindowStats {
                    max_gap: 9,
                    ..window(0)
                });
            }
            eng.on_event(&recovery_event(EventKind::NodeDeclaredDead, 5));
            eng.on_event(&recovery_event(EventKind::CheckpointRestored, 6));
            eng.fingerprint()
        };
        // Window transitions (wall-clock-dependent) never shift the
        // fingerprint; logical transitions do.
        assert_eq!(run(false), run(true));
        assert_ne!(run(false), AlertEngine::new(Vec::new()).fingerprint());
    }

    #[test]
    fn renders_cover_history_and_state() {
        let mut eng = AlertEngine::new(AlertRule::defaults());
        eng.on_event(&recovery_event(EventKind::NodeDeclaredDead, 2));
        let states = eng.render_states();
        assert!(states.contains("alert dead_nodes firing\n"));
        assert!(states.contains("alert wire-p99 ok\n"));
        let jsonl = eng.render_jsonl();
        assert!(jsonl.contains("\"transition\":\"firing\""));
        assert!(jsonl.contains("\"state\":\"dead_nodes\",\"firing\":true"));
        assert!(jsonl.contains("\"rule\":\"wire-p99: p99_wire_us > 50000 for 3\""));
        assert!(jsonl.contains("\"rule\":\"drop-rate: drop_rate > 0.05\""));
        for line in jsonl.lines() {
            crate::json::validate(line).expect("valid JSON");
        }
    }
}
