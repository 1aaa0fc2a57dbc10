//! Plain-text table/CSV rendering for experiment reports.

use std::fmt::Write as _;

use fluentps_core::stats::ShardStats;
use fluentps_obs::analyze::{Analysis, ServerPhases};
use fluentps_obs::{EventKind, Trace};

/// A simple column-aligned table that renders to monospaced text (the
/// `repro` binary prints these) and to CSV (for downstream plotting).
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{c:>w$}  ", w = w);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total.saturating_sub(2)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Render as a GitHub-flavored markdown table (title as a heading).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.title);
        let _ = writeln!(out, "| {} |", self.header.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.header
                .iter()
                .map(|_| " --- ")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Render as CSV (title as a comment line).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Event-trace summary cross-checked against the merged shard statistics:
/// every event kind's total next to the counter the server state machine
/// kept for the same occurrence, so divergence is visible at a glance.
pub fn trace_section(trace: &Trace, stats: &ShardStats) -> Table {
    let mut t = Table::new("trace summary", &["event", "trace count", "shard stats"]);
    let stat_for = |kind: EventKind| -> String {
        match kind {
            EventKind::PullRequested => stats.pulls_total.to_string(),
            EventKind::PullDeferred => stats.dprs.to_string(),
            EventKind::DprReleased => stats.dprs_released.to_string(),
            EventKind::LatePushDropped => stats.late_pushes_dropped.to_string(),
            EventKind::VTrainAdvanced => stats.v_train_advances.to_string(),
            // Applied pushes have no dedicated counter; `pushes` counts
            // applied + dropped, reported on the reconciliation row below.
            _ => "—".to_string(),
        }
    };
    for kind in EventKind::ALL {
        t.row(vec![
            kind.name().to_string(),
            trace.count(kind).to_string(),
            stat_for(kind),
        ]);
    }
    t.row(vec![
        "pushes (applied+dropped)".into(),
        (trace.count(EventKind::PushApplied) + trace.count(EventKind::LatePushDropped)).to_string(),
        stats.pushes.to_string(),
    ]);
    t.row(vec![
        "dprs still buffered".into(),
        (trace.count(EventKind::PullDeferred) - trace.count(EventKind::DprReleased)).to_string(),
        (stats.dprs - stats.dprs_released).to_string(),
    ]);
    t
}

/// The health engine's alert record as a table: one row per
/// firing/resolved transition, in order, with the trigger detail. Pair it
/// with the chaos tables so a killed server's liveness alert (and its
/// resolution after replacement) reads next to the training outcome.
pub fn alert_section(alerts: &[fluentps_obs::AlertTransition]) -> Table {
    let mut t = Table::new(
        "alert transitions",
        &["rule", "transition", "at", "logical", "detail"],
    );
    for a in alerts {
        t.row(vec![
            a.rule.clone(),
            if a.firing { "firing" } else { "resolved" }.to_string(),
            a.at.to_string(),
            a.logical.to_string(),
            a.detail.clone(),
        ]);
    }
    t
}

/// Check that `trace` and `stats` tell the same story: every counter the
/// shards kept matches the trace's per-kind totals, and the DPR ledger
/// balances (`dprs == dprs_released + still-buffered`). Returns the first
/// discrepancy as an error message.
pub fn trace_reconciles(trace: &Trace, stats: &ShardStats) -> Result<(), String> {
    let checks: [(&str, u64, u64); 5] = [
        (
            "pulls",
            trace.count(EventKind::PullRequested),
            stats.pulls_total,
        ),
        ("dprs", trace.count(EventKind::PullDeferred), stats.dprs),
        (
            "dprs_released",
            trace.count(EventKind::DprReleased),
            stats.dprs_released,
        ),
        (
            "pushes",
            trace.count(EventKind::PushApplied) + trace.count(EventKind::LatePushDropped),
            stats.pushes,
        ),
        (
            "v_train_advances",
            trace.count(EventKind::VTrainAdvanced),
            stats.v_train_advances,
        ),
    ];
    for (name, from_trace, from_stats) in checks {
        if from_trace != from_stats {
            return Err(format!(
                "{name}: trace says {from_trace}, shard stats say {from_stats}"
            ));
        }
    }
    if stats.dprs < stats.dprs_released {
        return Err(format!(
            "more DPRs released ({}) than deferred ({})",
            stats.dprs_released, stats.dprs
        ));
    }
    Ok(())
}

/// Render a full [`Analysis`] as report tables, in reading order:
/// per-worker breakdown, straggler scoreboard, progress spread, per-shard
/// sync health, the shards' server time per phase (`phases`), staleness
/// histogram, PSSP block rate per gap (with an analytical column when
/// `analytical` supplies `Pr[blocked | gap=k]`), and the extracted
/// critical path.
pub fn analysis_sections(
    a: &Analysis,
    phases: &[ServerPhases],
    analytical: Option<&dyn Fn(u64) -> f64>,
) -> Vec<Table> {
    let mut tables = Vec::new();

    let mut t = Table::new(
        "per-worker time breakdown",
        &[
            "worker", "iters", "active", "compute", "barrier", "wire", "sent B", "recv B",
        ],
    );
    for w in &a.workers {
        t.row(vec![
            w.worker.to_string(),
            w.iterations.to_string(),
            secs(w.active_secs()),
            secs(w.compute_secs()),
            secs(w.barrier_secs),
            secs(w.wire_secs),
            w.bytes_sent.to_string(),
            w.bytes_recvd.to_string(),
        ]);
    }
    tables.push(t);

    let mut t = Table::new(
        "straggler scoreboard",
        &["rank", "worker", "iters", "behind", "barrier", "defer rate"],
    );
    let mut ranked: Vec<_> = a.workers.iter().collect();
    ranked.sort_by(|x, y| {
        x.iterations.cmp(&y.iterations).then(
            y.last_ts
                .partial_cmp(&x.last_ts)
                .unwrap_or(std::cmp::Ordering::Equal),
        )
    });
    let fastest = a.workers.iter().map(|w| w.iterations).max().unwrap_or(0);
    for (rank, w) in ranked.iter().enumerate() {
        let defer_rate = if w.pulls == 0 {
            0.0
        } else {
            w.deferred as f64 / w.pulls as f64
        };
        t.row(vec![
            (rank + 1).to_string(),
            w.worker.to_string(),
            w.iterations.to_string(),
            (fastest - w.iterations).to_string(),
            secs(w.barrier_secs),
            format!("{:.1}%", defer_rate * 100.0),
        ]);
    }
    tables.push(t);

    let mut t = Table::new(
        "progress spread over time",
        &["t", "min progress", "max progress", "spread"],
    );
    for p in &a.spread {
        t.row(vec![
            secs(p.ts - a.span.0),
            p.min_progress.to_string(),
            p.max_progress.to_string(),
            p.spread().to_string(),
        ]);
    }
    tables.push(t);

    let mut t = Table::new(
        "per-shard sync health",
        &[
            "shard",
            "dprs",
            "resid mean",
            "resid max",
            "open",
            "pushes",
            "late drop",
            "v_train",
            "adv interval",
        ],
    );
    for s in &a.shards {
        t.row(vec![
            s.shard.to_string(),
            s.dpr_count.to_string(),
            secs(s.dpr_residence_mean),
            secs(s.dpr_residence_max),
            s.outstanding_dprs.to_string(),
            s.pushes.to_string(),
            format!("{:.1}%", s.late_drop_rate() * 100.0),
            s.final_v_train.to_string(),
            secs(s.advance_interval_mean),
        ]);
    }
    tables.push(t);

    let mut t = Table::new(
        "server time per phase",
        &["shard", "apply", "release", "pull"],
    );
    for p in phases {
        t.row(vec![
            p.shard.to_string(),
            format!("{:.6}s", p.apply_secs),
            format!("{:.6}s", p.release_secs),
            format!("{:.6}s", p.pull_secs),
        ]);
    }
    tables.push(t);

    let mut t = Table::new(
        "staleness at pull time",
        &["gap", "pulls", "granted", "deferred"],
    );
    for g in &a.gaps {
        t.row(vec![
            g.gap.to_string(),
            g.pulls.to_string(),
            g.granted().to_string(),
            g.deferred.to_string(),
        ]);
    }
    tables.push(t);

    let mut t = Table::new(
        "block rate per gap",
        &["gap", "pulls", "empirical Pr[block]", "analytical"],
    );
    for g in &a.gaps {
        let analytic = match analytical {
            Some(f) => format!("{:.3}", f(g.gap)),
            None => "—".to_string(),
        };
        t.row(vec![
            g.gap.to_string(),
            g.pulls.to_string(),
            format!("{:.3}", g.block_rate()),
            analytic,
        ]);
    }
    tables.push(t);

    let mut t = Table::new(
        "critical path",
        &["step", "what", "shard", "worker", "t", "secs"],
    );
    let id = |x: u32| {
        if x == u32::MAX {
            "—".to_string()
        } else {
            x.to_string()
        }
    };
    for (i, step) in a.critical_path.iter().enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            step.what.to_string(),
            id(step.shard),
            id(step.worker),
            secs(step.ts - a.span.0),
            format!("{:.6}", step.secs),
        ]);
    }
    tables.push(t);

    tables
}

/// Format seconds with sensible precision.
pub fn secs(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.0}s")
    } else if t >= 1.0 {
        format!("{t:.1}s")
    } else {
        format!("{:.0}ms", t * 1000.0)
    }
}

/// Format a 0..1 accuracy as a percentage.
pub fn pct(a: f32) -> String {
    format!("{:.1}%", a * 100.0)
}

/// Format a speedup factor.
pub fn speedup(baseline: f64, ours: f64) -> String {
    if ours <= 0.0 {
        "—".to_string()
    } else {
        format!("{:.2}x", baseline / ours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("c", &["k"]);
        t.row(vec!["a,b".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
    }

    #[test]
    fn markdown_renders_header_separator_and_rows() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("### demo\n"));
        assert!(md.contains("| name | value |"));
        assert!(md.contains("| --- | --- |"));
        assert!(md.contains("| a | 1 |"));
    }

    #[test]
    fn analysis_sections_cover_the_report_and_label_the_analytical_column() {
        use fluentps_obs::{EventKind, RecordArgs, TraceCollector};
        let collector = TraceCollector::wall(64);
        let tracer = collector.tracer();
        // Worker 0 pulls at gap 0 (granted) and gap 2 (deferred).
        tracer.record(
            EventKind::PullRequested,
            RecordArgs::new().shard(0).worker(0).progress(0),
        );
        tracer.record(
            EventKind::PullRequested,
            RecordArgs::new().shard(0).worker(0).progress(2),
        );
        tracer.record(
            EventKind::PullDeferred,
            RecordArgs::new().shard(0).worker(0).progress(2),
        );
        tracer.record(
            EventKind::PushApplied,
            RecordArgs::new().shard(0).worker(1).progress(0),
        );
        let (a, phases) = fluentps_obs::analyze::analyze_phases(&collector.snapshot());
        let analytical = |k: u64| if k >= 2 { 1.0 } else { 0.0 };
        let tables = analysis_sections(&a, &phases, Some(&analytical));
        let titles: Vec<&str> = [
            "per-worker time breakdown",
            "straggler scoreboard",
            "progress spread over time",
            "per-shard sync health",
            "server time per phase",
            "staleness at pull time",
            "block rate per gap",
            "critical path",
        ]
        .to_vec();
        let rendered: Vec<String> = tables.iter().map(|t| t.render()).collect();
        for title in titles {
            assert!(
                rendered
                    .iter()
                    .any(|r| r.contains(&format!("== {title} =="))),
                "missing section {title}"
            );
        }
        // The block-rate table carries the analytical column values.
        let block = rendered
            .iter()
            .find(|r| r.contains("block rate per gap"))
            .unwrap();
        assert!(block.contains("1.000"), "analytical Pr missing: {block}");
        // Without an analytical curve the column renders as a dash.
        let plain = analysis_sections(&a, &phases, None);
        assert!(plain.iter().any(|t| t.render().contains("—")));
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(0.5), "500ms");
        assert_eq!(secs(12.34), "12.3s");
        assert_eq!(secs(250.0), "250s");
        assert_eq!(pct(0.765), "76.5%");
        assert_eq!(speedup(6.0, 1.5), "4.00x");
        assert_eq!(speedup(1.0, 0.0), "—");
    }
}
