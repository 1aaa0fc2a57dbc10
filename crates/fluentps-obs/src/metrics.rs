//! A small metrics registry: labeled counters, gauges and [`Histogram`]s.
//!
//! Names follow the Prometheus convention `base{label=value,...}` with
//! labels sorted by insertion through [`MetricsScope::with`]; the text
//! renderer emits one `name value` line per metric, sorted by name, so
//! output is stable for golden tests.

use std::collections::BTreeMap;
use std::sync::Arc;

use fluentps_util::sync::Mutex;

use crate::hist::Histogram;

#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Hist(Histogram),
}

/// A shared, thread-safe registry of named metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
    /// Optional per-family help text for the Prometheus renderer, keyed by
    /// family base name (no labels). Families without an entry get a
    /// default derived from the name.
    help: Arc<Mutex<BTreeMap<String, String>>>,
    /// OpenMetrics-style exemplars, keyed by histogram name: the
    /// `(value, request_id)` of the largest observation recorded through
    /// [`MetricsRegistry::observe_exemplar`]. Rendered on the `_max`
    /// sample line so a scrape can link a latency bucket back to the
    /// retained request waterfall that produced it.
    exemplars: Arc<Mutex<BTreeMap<String, (u64, u64)>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register help text for the metric family `base` (the name without
    /// labels), emitted as a `# HELP` line by
    /// [`MetricsRegistry::render_prometheus`]. Families never registered
    /// here get a default derived from the name (underscores become
    /// spaces).
    pub fn set_help(&self, base: &str, text: &str) {
        self.help.lock().insert(base.to_string(), text.to_string());
    }

    /// Seed process metadata so scrapes can compute uptime and correlate
    /// runs: `process_start_seconds` (Unix time this registry's process
    /// registered metrics — set once, never overwritten) and
    /// `fluentps_build_info` (a constant `1` carrying the crate version as
    /// a label). The introspection servers call this at bind time, so
    /// every served registry carries both.
    pub fn register_process_metrics(&self) {
        {
            let mut m = self.metrics.lock();
            m.entry("process_start_seconds".to_string())
                .or_insert_with(|| {
                    let now = std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.as_secs_f64())
                        .unwrap_or(0.0);
                    Metric::Gauge(now)
                });
            m.entry(format!(
                "fluentps_build_info{{version={}}}",
                env!("CARGO_PKG_VERSION")
            ))
            .or_insert(Metric::Gauge(1.0));
        }
        let mut help = self.help.lock();
        help.entry("process_start_seconds".to_string())
            .or_insert_with(|| {
                "unix time the process registered metrics; now() minus this is uptime".to_string()
            });
        help.entry("fluentps_build_info".to_string())
            .or_insert_with(|| "constant 1, labeled with the fluentps version".to_string());
    }

    /// A scope with no labels; add them with [`MetricsScope::with`].
    pub fn scope(&self) -> MetricsScope {
        MetricsScope {
            registry: self.clone(),
            labels: String::new(),
        }
    }

    /// Add `by` to the counter `name` (created at 0).
    pub fn inc(&self, name: &str, by: u64) {
        let mut m = self.metrics.lock();
        match m.entry(name.to_string()).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += by,
            other => *other = Metric::Counter(by),
        }
    }

    /// Set the gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.metrics
            .lock()
            .insert(name.to_string(), Metric::Gauge(value));
    }

    /// Record `value` into the histogram `name` (created empty).
    pub fn observe(&self, name: &str, value: u64) {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Hist(Histogram::new()))
        {
            Metric::Hist(h) => h.record(value),
            other => {
                let mut h = Histogram::new();
                h.record(value);
                *other = Metric::Hist(h);
            }
        }
    }

    /// Record `value` into the histogram `name` and attach `request_id` as
    /// the exemplar if this is the largest observation so far — the
    /// Prometheus renderer emits it on the `_max` sample line as
    /// `` # {request_id="..."} value``, linking the bucket to a retained
    /// request waterfall (see [`crate::waterfall::export_metrics`]).
    pub fn observe_exemplar(&self, name: &str, value: u64, request_id: u64) {
        self.observe(name, value);
        let mut ex = self.exemplars.lock();
        let entry = ex.entry(name.to_string()).or_insert((value, request_id));
        if value >= entry.0 {
            *entry = (value, request_id);
        }
    }

    /// The exemplar `(value, request_id)` attached to the histogram
    /// `name`, if any observation went through
    /// [`MetricsRegistry::observe_exemplar`].
    pub fn exemplar(&self, name: &str) -> Option<(u64, u64)> {
        self.exemplars.lock().get(name).copied()
    }

    /// Current value of the counter `name` (0 if absent or not a counter).
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.metrics.lock().get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Current value of the gauge `name`, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.metrics.lock().get(name) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// A copy of the histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        match self.metrics.lock().get(name) {
            Some(Metric::Hist(h)) => Some(h.clone()),
            _ => None,
        }
    }

    /// Render every metric as `name value` lines, sorted by name.
    /// Histograms render as `name_count`, `name_mean`, `name_p50`,
    /// `name_p99`, `name_max`.
    pub fn render_text(&self) -> String {
        let m = self.metrics.lock();
        let mut out = String::new();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} {c}\n")),
                Metric::Gauge(g) => out.push_str(&format!("{name} {g}\n")),
                Metric::Hist(h) => {
                    out.push_str(&format!("{name}_count {}\n", h.count()));
                    out.push_str(&format!("{name}_mean {:.3}\n", h.mean()));
                    out.push_str(&format!("{name}_p50 {}\n", h.quantile_upper(0.5)));
                    out.push_str(&format!("{name}_p99 {}\n", h.quantile_upper(0.99)));
                    out.push_str(&format!("{name}_max {}\n", h.max()));
                }
            }
        }
        out
    }

    /// Render every metric in the Prometheus text exposition format:
    /// one `# HELP` + `# TYPE` comment pair per metric family (help from
    /// [`MetricsRegistry::set_help`], or derived from the name), label
    /// values quoted, and histogram suffixes (`_count`, `_mean`, `_p50`,
    /// `_p99`, `_max`) attached to the base name *before* the label set.
    /// Families are grouped so every sample follows its comment lines.
    pub fn render_prometheus(&self) -> String {
        // family base name -> (type string, sample lines)
        let mut families: BTreeMap<String, (&'static str, Vec<String>)> = BTreeMap::new();
        let sample = |families: &mut BTreeMap<String, (&'static str, Vec<String>)>,
                      base: &str,
                      labels: &str,
                      ty: &'static str,
                      value: String| {
            let fam = families
                .entry(base.to_string())
                .or_insert_with(|| (ty, Vec::new()));
            fam.1.push(format!("{base}{labels} {value}\n"));
        };
        let m = self.metrics.lock();
        let exemplars = self.exemplars.lock();
        for (name, metric) in m.iter() {
            let (base, labels) = split_labels(name);
            let labels = prometheus_labels(&labels);
            match metric {
                Metric::Counter(c) => {
                    sample(&mut families, base, &labels, "counter", format!("{c}"))
                }
                Metric::Gauge(g) => sample(&mut families, base, &labels, "gauge", format!("{g}")),
                Metric::Hist(h) => {
                    // The exemplar rides the `_max` sample in OpenMetrics
                    // style: `value # {request_id="..."} exemplar_value`.
                    let max_sample = match exemplars.get(name) {
                        Some((v, rid)) => {
                            format!("{} # {{request_id=\"{rid}\"}} {v}", h.max())
                        }
                        None => format!("{}", h.max()),
                    };
                    let parts: [(&str, String); 5] = [
                        ("_count", format!("{}", h.count())),
                        ("_mean", format!("{:.3}", h.mean())),
                        ("_p50", format!("{}", h.quantile_upper(0.5))),
                        ("_p99", format!("{}", h.quantile_upper(0.99))),
                        ("_max", max_sample),
                    ];
                    for (suffix, value) in parts {
                        sample(
                            &mut families,
                            &format!("{base}{suffix}"),
                            &labels,
                            "gauge",
                            value,
                        );
                    }
                }
            }
        }
        let help = self.help.lock();
        let mut out = String::new();
        for (base, (ty, lines)) in families {
            let text = match help.get(&base) {
                Some(t) => escape_help(t),
                None => base.replace('_', " "),
            };
            out.push_str(&format!("# HELP {base} {text}\n"));
            out.push_str(&format!("# TYPE {base} {ty}\n"));
            for line in lines {
                out.push_str(&line);
            }
        }
        out
    }
}

/// Escape help text per the exposition format: backslash and line feed
/// must appear as `\\` and `\n` (help text is not quoted, so these are the
/// only escapes).
fn escape_help(t: &str) -> String {
    t.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Split a registry key `base{l=v,...}` into the base name and the raw
/// label string (`""` when unlabeled).
fn split_labels(name: &str) -> (&str, String) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.trim_end_matches('}').to_string()),
        None => (name, String::new()),
    }
}

/// Re-render a raw `l=v,l2=v2` label string with Prometheus quoting:
/// `{l="v",l2="v2"}`.
fn prometheus_labels(raw: &str) -> String {
    if raw.is_empty() {
        return String::new();
    }
    let quoted: Vec<String> = raw
        .split(',')
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => format!("{k}=\"{}\"", escape_label_value(v)),
            None => pair.to_string(),
        })
        .collect();
    format!("{{{}}}", quoted.join(","))
}

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double quote, and line feed must appear as `\\`, `\"` and
/// `\n` inside the quoted value. Backslashes go first so the escapes
/// themselves are not re-escaped.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// A label set bound to a registry: `scope.with("shard", "0").inc("dprs", 1)`
/// updates the metric `dprs{shard=0}`.
#[derive(Debug, Clone)]
pub struct MetricsScope {
    registry: MetricsRegistry,
    labels: String,
}

impl MetricsScope {
    /// This scope plus one more `label=value` pair.
    pub fn with(&self, label: &str, value: impl std::fmt::Display) -> MetricsScope {
        let mut labels = self.labels.clone();
        if !labels.is_empty() {
            labels.push(',');
        }
        labels.push_str(&format!("{label}={value}"));
        MetricsScope {
            registry: self.registry.clone(),
            labels,
        }
    }

    fn name(&self, base: &str) -> String {
        if self.labels.is_empty() {
            base.to_string()
        } else {
            format!("{base}{{{}}}", self.labels)
        }
    }

    /// Add `by` to the labeled counter `base`.
    pub fn inc(&self, base: &str, by: u64) {
        self.registry.inc(&self.name(base), by);
    }

    /// Set the labeled gauge `base`.
    pub fn set_gauge(&self, base: &str, value: f64) {
        self.registry.set_gauge(&self.name(base), value);
    }

    /// Record into the labeled histogram `base`.
    pub fn observe(&self, base: &str, value: u64) {
        self.registry.observe(&self.name(base), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = MetricsRegistry::new();
        r.inc("pushes", 2);
        r.inc("pushes", 3);
        assert_eq!(r.counter_value("pushes"), 5);
        assert_eq!(r.counter_value("absent"), 0);
    }

    #[test]
    fn scopes_build_labeled_names() {
        let r = MetricsRegistry::new();
        let shard0 = r.scope().with("shard", 0);
        let shard1 = r.scope().with("shard", 1);
        shard0.inc("dprs", 4);
        shard1.inc("dprs", 7);
        shard0.with("worker", 2).inc("pulls", 1);
        assert_eq!(r.counter_value("dprs{shard=0}"), 4);
        assert_eq!(r.counter_value("dprs{shard=1}"), 7);
        assert_eq!(r.counter_value("pulls{shard=0,worker=2}"), 1);
    }

    #[test]
    fn gauges_overwrite() {
        let r = MetricsRegistry::new();
        r.set_gauge("live_servers", 4.0);
        r.set_gauge("live_servers", 3.0);
        assert_eq!(r.gauge_value("live_servers"), Some(3.0));
    }

    #[test]
    fn histograms_observe_and_render() {
        let r = MetricsRegistry::new();
        for v in [1u64, 2, 3, 100] {
            r.observe("dpr_wait", v);
        }
        let h = r.histogram("dpr_wait").unwrap();
        assert_eq!(h.count(), 4);
        let text = r.render_text();
        assert!(text.contains("dpr_wait_count 4"));
        assert!(text.contains("dpr_wait_max 100"));
    }

    #[test]
    fn prometheus_rendering_quotes_labels_and_types_families() {
        let r = MetricsRegistry::new();
        r.inc("pulls{shard=0,worker=2}", 3);
        r.inc("pulls{shard=1,worker=0}", 1);
        r.set_gauge("live_servers", 2.0);
        r.observe("dpr_wait{shard=0}", 7);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE pulls counter\n"));
        assert!(text.contains("pulls{shard=\"0\",worker=\"2\"} 3\n"));
        assert!(text.contains("pulls{shard=\"1\",worker=\"0\"} 1\n"));
        assert!(text.contains("# TYPE live_servers gauge\n"));
        assert!(text.contains("live_servers 2\n"));
        // Histogram suffixes attach to the base name, before the labels.
        assert!(text.contains("dpr_wait_count{shard=\"0\"} 1\n"));
        assert!(text.contains("dpr_wait_max{shard=\"0\"} 7\n"));
        // Every sample follows its family's TYPE line; a family is typed
        // exactly once.
        assert_eq!(text.matches("# TYPE pulls ").count(), 1);
        // Every family carries a HELP line immediately before its TYPE
        // line; unregistered families get a default derived from the name.
        assert!(text.contains("# HELP pulls pulls\n# TYPE pulls counter\n"));
        assert!(text.contains("# HELP live_servers live servers\n"));
        assert!(text.contains("# HELP dpr_wait_count dpr wait count\n"));
        assert_eq!(
            text.matches("# HELP ").count(),
            text.matches("# TYPE ").count()
        );
        // Stable output.
        assert_eq!(text, r.render_prometheus());
    }

    #[test]
    fn registered_help_text_wins_and_is_escaped() {
        let r = MetricsRegistry::new();
        r.inc("pulls{shard=0}", 1);
        r.set_help("pulls", "sPull requests handled\nback\\slash");
        let text = r.render_prometheus();
        assert!(
            text.contains("# HELP pulls sPull requests handled\\nback\\\\slash\n"),
            "help escaping: {text}"
        );
        // Comment lines stay one-per-line: no raw newline leaks through.
        assert!(!text.contains("handled\nback"));
    }

    #[test]
    fn process_metrics_seed_once_and_render_with_help() {
        let r = MetricsRegistry::new();
        r.register_process_metrics();
        let start = r.gauge_value("process_start_seconds").expect("seeded");
        assert!(start > 1.0e9, "unix-epoch seconds expected: {start}");
        // Idempotent: a second registration never rewinds the start time.
        std::thread::sleep(std::time::Duration::from_millis(5));
        r.register_process_metrics();
        assert_eq!(r.gauge_value("process_start_seconds"), Some(start));
        let text = r.render_prometheus();
        assert!(text.contains("# HELP process_start_seconds unix time"));
        assert!(text.contains("# TYPE fluentps_build_info gauge\n"));
        assert!(
            text.contains(&format!(
                "fluentps_build_info{{version=\"{}\"}} 1\n",
                env!("CARGO_PKG_VERSION")
            )),
            "build info sample: {text}"
        );
    }

    #[test]
    fn prometheus_rendering_escapes_label_values() {
        let r = MetricsRegistry::new();
        r.inc("errors{msg=back\\slash}", 1);
        r.inc("errors{msg=say \"hi\"}", 2);
        r.inc("errors{msg=two\nlines}", 3);
        let text = r.render_prometheus();
        assert!(
            text.contains("errors{msg=\"back\\\\slash\"} 1\n"),
            "backslash must render as \\\\: {text}"
        );
        assert!(
            text.contains("errors{msg=\"say \\\"hi\\\"\"} 2\n"),
            "quotes must render as \\\": {text}"
        );
        assert!(
            text.contains("errors{msg=\"two\\nlines\"} 3\n"),
            "newline must render as literal \\n: {text}"
        );
        // No raw newline may survive inside a sample line.
        for line in text.lines() {
            assert!(!line.is_empty());
        }
        assert!(!text.contains("two\nlines"));
    }

    #[test]
    fn exemplars_ride_the_max_sample_line() {
        let r = MetricsRegistry::new();
        r.observe_exemplar("wire_us", 10, 101);
        r.observe_exemplar("wire_us", 50, 202);
        r.observe_exemplar("wire_us", 20, 303);
        // The exemplar tracks the largest observation, not the latest.
        assert_eq!(r.exemplar("wire_us"), Some((50, 202)));
        assert_eq!(r.histogram("wire_us").unwrap().count(), 3);
        let text = r.render_prometheus();
        assert!(
            text.contains("wire_us_max 50 # {request_id=\"202\"} 50\n"),
            "exemplar on _max: {text}"
        );
        // Plain observations never grow an exemplar.
        r.observe("plain_us", 7);
        assert_eq!(r.exemplar("plain_us"), None);
        assert!(r.render_prometheus().contains("plain_us_max 7\n"));
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let r = MetricsRegistry::new();
        r.inc("b", 1);
        r.inc("a", 1);
        r.set_gauge("c", 0.5);
        assert_eq!(r.render_text(), "a 1\nb 1\nc 0.5\n");
        assert_eq!(r.render_text(), r.render_text());
    }
}
