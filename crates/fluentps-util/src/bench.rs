//! A tiny timing harness behind a criterion-shaped API.
//!
//! `[[bench]] harness = false` targets keep their structure — groups,
//! `bench_function`, `Bencher::iter` — but run on a self-contained harness:
//! calibrated warmup, `sample_size` timed samples, and a `mean / p50 / p99`
//! report per benchmark (plus throughput when a group declares one). Run
//! them with `cargo bench`.
//!
//! When the `FLUENTPS_BENCH_JSON` environment variable names a file, every
//! benchmark also appends one JSON object per line to it —
//! `{"name","mean_ns","p50_ns","p99_ns"[,"throughput_per_s","throughput_unit"]}`
//! — so scripts can collect machine-readable results (`scripts/bench.sh`
//! wraps them into a single JSON document).

use std::fmt;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock time for one sample batch.
const TARGET_SAMPLE: Duration = Duration::from_millis(10);
/// Warmup budget before sampling starts.
const WARMUP: Duration = Duration::from_millis(100);

/// Top-level harness handle; one per bench binary, created by
/// [`criterion_group!`](crate::criterion_group!).
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 30 }
    }
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl fmt::Display) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            throughput: None,
        }
    }

    /// Run a standalone benchmark.
    pub fn bench_function<F>(&mut self, name: impl fmt::Display, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let mut g = self.benchmark_group("");
        g.bench_function(name, f);
        g.finish();
    }
}

/// Units for a group's throughput report.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// A group of benchmarks sharing a name prefix, sample size and throughput.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(5);
        self
    }

    /// Declare per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run a benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = self.label(&id.to_string());
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            samples_ns: Vec::new(),
        };
        f(&mut bencher);
        bencher.report(&label, self.throughput);
        self
    }

    /// End the group (prints nothing; exists for criterion compatibility).
    pub fn finish(self) {}

    fn label(&self, id: &str) -> String {
        if self.name.is_empty() {
            id.to_string()
        } else {
            format!("{}/{id}", self.name)
        }
    }
}

/// Times a closure: calibrated batches, `sample_size` samples.
pub struct Bencher {
    sample_size: usize,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Measure `f`, recording per-iteration times. The routine's return
    /// value is passed through [`black_box`] so the optimiser cannot delete
    /// the work.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        // Warmup, and calibration of the batch size: run batches of
        // doubling size until one takes long enough to time reliably.
        let mut batch = 1u64;
        let warmup_start = Instant::now();
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= TARGET_SAMPLE || warmup_start.elapsed() >= WARMUP {
                if elapsed < TARGET_SAMPLE && batch < u64::MAX / 2 {
                    // Aim the batch at the target sample duration.
                    let per_iter = elapsed.as_nanos().max(1) as u64 / batch.max(1);
                    batch = (TARGET_SAMPLE.as_nanos() as u64 / per_iter.max(1)).clamp(1, 1 << 24);
                }
                break;
            }
            batch = batch.saturating_mul(2);
        }

        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            self.samples_ns
                .push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
    }

    fn report(&self, label: &str, throughput: Option<Throughput>) {
        if self.samples_ns.is_empty() {
            println!("{label:<48} (no samples)");
            return;
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        let p50 = percentile(&sorted, 50.0);
        let p99 = percentile(&sorted, 99.0);
        let tp = match throughput {
            Some(Throughput::Bytes(n)) => {
                format!("  {:>10}/s", human_bytes(n as f64 / (mean * 1e-9)))
            }
            Some(Throughput::Elements(n)) => {
                format!("  {:>10.3e} elem/s", n as f64 / (mean * 1e-9))
            }
            None => String::new(),
        };
        println!(
            "{label:<48} mean {:>10}  p50 {:>10}  p99 {:>10}{tp}",
            human_time(mean),
            human_time(p50),
            human_time(p99),
        );
        emit_json(label, mean, p50, p99, throughput);
    }
}

/// Append one benchmark result as a JSON line to `$FLUENTPS_BENCH_JSON`
/// (no-op when the variable is unset; IO errors are deliberately ignored —
/// a broken results file must not fail the benchmark run).
fn emit_json(label: &str, mean: f64, p50: f64, p99: f64, throughput: Option<Throughput>) {
    let Ok(path) = std::env::var("FLUENTPS_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let escaped: String = label
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if (c as u32) < 0x20 => " ".chars().collect(),
            c => vec![c],
        })
        .collect();
    let tp = match throughput {
        Some(Throughput::Bytes(n)) => format!(
            ",\"throughput_per_s\":{:.1},\"throughput_unit\":\"bytes\"",
            n as f64 / (mean * 1e-9)
        ),
        Some(Throughput::Elements(n)) => format!(
            ",\"throughput_per_s\":{:.1},\"throughput_unit\":\"elements\"",
            n as f64 / (mean * 1e-9)
        ),
        None => String::new(),
    };
    let line = format!(
        "{{\"name\":\"{escaped}\",\"mean_ns\":{mean:.1},\"p50_ns\":{p50:.1},\"p99_ns\":{p99:.1}{tp}}}\n"
    );
    let _ = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn human_time(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

fn human_bytes(bps: f64) -> String {
    if bps < 1024.0 {
        format!("{bps:.0} B")
    } else if bps < 1024.0 * 1024.0 {
        format!("{:.1} KiB", bps / 1024.0)
    } else if bps < 1024.0 * 1024.0 * 1024.0 {
        format!("{:.1} MiB", bps / (1024.0 * 1024.0))
    } else {
        format!("{:.2} GiB", bps / (1024.0 * 1024.0 * 1024.0))
    }
}

/// Define a bench group function callable from
/// [`criterion_main!`](crate::criterion_main!).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::bench::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emit `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_requested_samples() {
        let mut b = Bencher {
            sample_size: 7,
            samples_ns: Vec::new(),
        };
        let mut counter = 0u64;
        b.iter(|| {
            counter = counter.wrapping_add(1);
            counter
        });
        assert_eq!(b.samples_ns.len(), 7);
        assert!(b.samples_ns.iter().all(|&ns| ns > 0.0));
    }

    #[test]
    fn group_api_composes() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("smoke");
        g.sample_size(5);
        g.throughput(Throughput::Bytes(64));
        g.bench_function("sum/64", |b| b.iter(|| (0..64usize).sum::<usize>()));
        g.finish();
        c.bench_function("standalone", |b| b.iter(|| 2 + 2));
    }

    #[test]
    fn percentile_and_formatting() {
        let sorted: Vec<f64> = (1..=101).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 50.0), 51.0); // exact median of 1..=101
        assert_eq!(percentile(&sorted, 99.0), 100.0);
        assert!(human_time(1.5e3).contains("µs"));
        assert!(human_time(2.5e7).contains("ms"));
        assert!(human_bytes(2.0 * 1024.0 * 1024.0).contains("MiB"));
    }
}
