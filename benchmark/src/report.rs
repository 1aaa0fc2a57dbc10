//! Output: the per-metric lines, the result object the driver reads, the
//! `BENCHMARK.json` manifest, and the merge and self-check of whole suites.

use std::fmt::Write as _;

use fluentps_obs::json;

use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workload::WORKLOADS;

/// Seconds one run measures; also written into the manifest.
pub const RUN_SECONDS: u64 = 25;

/// One printed metric: `workload metric value unit median[min..max] n=N`.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub summary: Summary,
}

impl Line {
    pub fn render(&self) -> String {
        let s = &self.summary;
        format!(
            "{} {} {} {} median[{}..{}] n={}",
            self.workload,
            self.metric,
            json::number(s.median),
            self.unit,
            json::number(s.min),
            json::number(s.max),
            s.n
        )
    }

    /// Inverse of [`Line::render`]; `None` for any other line (build
    /// output, the result object, blank lines).
    pub fn parse(text: &str) -> Option<Line> {
        let f: Vec<&str> = text.split_whitespace().collect();
        if f.len() != 6 {
            return None;
        }
        let (min, max) = f[4]
            .strip_prefix("median[")?
            .strip_suffix(']')?
            .split_once("..")?;
        Some(Line {
            workload: f[0].to_string(),
            metric: f[1].to_string(),
            unit: f[3].to_string(),
            summary: Summary {
                median: f[2].parse().ok()?,
                min: min.parse().ok()?,
                max: max.parse().ok()?,
                n: f[5].strip_prefix("n=")?.parse().ok()?,
            },
        })
    }
}

/// The lines of one run, in table order. A metric missing from `values` is
/// a bug in the ledger, not in the program under test.
pub fn lines(workload: &str, names: &[(&'static str, &'static str)], values: &Values) -> Vec<Line> {
    names
        .iter()
        .map(|(name, unit)| Line {
            workload: workload.to_string(),
            metric: name.to_string(),
            unit: unit.to_string(),
            summary: *values
                .get(name)
                .unwrap_or_else(|| panic!("ledger bug: metric {name} was not measured")),
        })
        .collect()
}

/// The object the driver reads from the last line of standard output.
pub fn result_object(correct: bool, attempted: u64, failed: u64, lines: &[Line]) -> String {
    let metrics: Vec<String> = lines
        .iter()
        .map(|l| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(&l.metric),
                json::number(l.summary.median),
                json::escape(&l.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The text of `BENCHMARK.json`, generated from the tables so the manifest
/// and the program cannot drift apart (a test compares the committed file).
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    let block = |s: &mut String, key: &str, rows: Vec<String>, last: bool| {
        let _ = writeln!(s, "  \"{key}\": [");
        let _ = writeln!(s, "    {}", rows.join(",\n    "));
        let _ = writeln!(s, "  ]{}", if last { "" } else { "," });
    };
    block(
        &mut s,
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "{{\"name\": \"{}\", \"why\": \"{}\"}}",
                    w.name,
                    json::escape(w.why)
                )
            })
            .collect(),
        false,
    );
    block(
        &mut s,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
        false,
    );
    block(
        &mut s,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
        true,
    );
    s.push_str("}\n");
    s
}

/// Merge the metric lines of any number of captured runs into one JSON
/// document: `{"workloads": {name: {metric: {value, unit, min, max, n}}}}`.
pub fn merge(captures: &[String]) -> String {
    let all: Vec<Line> = captures
        .iter()
        .flat_map(|c| c.lines().filter_map(Line::parse))
        .collect();
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let metrics: Vec<String> = all
            .iter()
            .filter(|l| l.workload == w.name)
            .map(|l| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"min\": {}, \"max\": {}, \"n\": {}}}",
                    json::escape(&l.metric),
                    json::number(l.summary.median),
                    json::escape(&l.unit),
                    json::number(l.summary.min),
                    json::number(l.summary.max),
                    l.summary.n
                )
            })
            .collect();
        if !metrics.is_empty() {
            workloads.push(format!(
                "    \"{}\": {{\n      {}\n    }}",
                w.name,
                metrics.join(",\n      ")
            ));
        }
    }
    format!(
        "{{\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        workloads.join(",\n")
    )
}

/// Compare the end-to-end metrics of two suites measured on the same build.
/// Returns the spread table and whether every pair agrees within the
/// metric's own bound.
pub fn selfcheck(first: &str, second: &str) -> (String, bool) {
    let parse = |text: &str| -> Vec<Line> { text.lines().filter_map(Line::parse).collect() };
    let (a, b) = (parse(first), parse(second));
    let mut table = String::from(
        "| workload | metric | first | second | difference | bound |\n|---|---|---|---|---|---|\n",
    );
    let mut ok = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let find = |set: &[Line]| {
                set.iter()
                    .find(|l| l.workload == w.name && l.metric == m.name)
                    .map(|l| l.summary.median)
            };
            let (Some(x), Some(y)) = (find(&a), find(&b)) else {
                let _ = writeln!(table, "| {} | {} | missing | missing | | |", w.name, m.name);
                ok = false;
                continue;
            };
            let diff = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
            let within = diff <= m.bound;
            ok &= within;
            let _ = writeln!(
                table,
                "| {} | {} | {:.6} | {:.6} | {:.2}%{} | {:.1}% |",
                w.name,
                m.name,
                x,
                y,
                diff * 100.0,
                if within { "" } else { " **over**" },
                m.bound * 100.0
            );
        }
    }
    (table, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, metric: &str, median: f64) -> Line {
        Line {
            workload: workload.to_string(),
            metric: metric.to_string(),
            unit: "us".to_string(),
            summary: Summary {
                median,
                min: median * 0.5,
                max: median * 2.0,
                n: 5,
            },
        }
    }

    #[test]
    fn lines_round_trip_and_other_text_is_ignored() {
        let l = line("tcp_bsp_wire", "iter_p50_us", 18234.5625);
        assert_eq!(Line::parse(&l.render()), Some(l));
        assert_eq!(Line::parse("   Compiling fluentps-ledger v0.1.0"), None);
        assert_eq!(Line::parse("{\"correct\": true}"), None);
    }

    #[test]
    fn result_object_manifest_and_merge_are_valid_json() {
        let lines = vec![line("tcp_bsp_wire", "iter_p50_us", 1.25)];
        let obj = result_object(true, 10, 0, &lines);
        json::validate(&obj).unwrap();
        assert!(obj.contains("\"iter_p50_us\": {\"value\": 1.25, \"unit\": \"us\"}"));
        json::validate(&manifest()).unwrap();
        let merged = merge(&[lines[0].render(), "noise\n".to_string()]);
        json::validate(&merged).unwrap();
        assert!(merged.contains("\"tcp_bsp_wire\""));
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, manifest(), "regenerate with `ledger manifest`");
        assert!(committed.len() <= 64 * 1024);
    }

    /// The layers must be built the way `scripts/ci.sh` builds them: this
    /// package repeats the workspace's release profile and has to keep up
    /// with it.
    #[test]
    fn release_profile_matches_the_workspace() {
        let profile = |manifest: &'static str| -> Vec<&'static str> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        };
        let own = profile(include_str!("../Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(own, profile(include_str!("../../Cargo.toml")));
    }

    #[test]
    fn selfcheck_flags_a_metric_beyond_its_bound() {
        let suite = |scale: f64| {
            WORKLOADS
                .iter()
                .flat_map(|w| {
                    END_TO_END
                        .iter()
                        .map(move |m| line(w.name, m.name, 100.0 * scale).render())
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert!(selfcheck(&suite(1.0), &suite(1.004)).1);
        let (table, ok) = selfcheck(&suite(1.0), &suite(1.2));
        assert!(!ok && table.contains("**over**"));
        assert!(!selfcheck(&suite(1.0), "").1);
    }
}
