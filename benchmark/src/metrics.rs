//! The metric tables (the source `BENCHMARK.json` is generated from), what
//! each live metric is computed from, and the correctness checks every
//! repeat has to pass.

use std::collections::BTreeMap;

use fluentps_core::condition::SyncModel;
use fluentps_core::stats::ShardStats;

use crate::live::{Repeat, WorkerLog};
use crate::reference::{at_reference_speed, correction, NOMINAL_NS};
use crate::spans::self_times_ns;
use crate::stats::{median, Samples, Summary};
use crate::workload::{Workload, ACCURACY_FLOOR};

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may get worse.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every bound is at least three times the widest spread measured over ten
/// seeds on the 2-core shared reference box (README, "Measured spread"),
/// and never above the 0.25 the manifest allows.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "iters_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "iter_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "compute_frac",
        unit: "ratio",
        better: "higher",
        bound: 0.15,
    },
    EndToEnd {
        name: "final_accuracy",
        unit: "ratio",
        better: "higher",
        bound: 0.05,
    },
    EndToEnd {
        name: "wire_bytes_per_iter",
        unit: "bytes",
        better: "lower",
        bound: 0.005,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric; the prefix before the dot is the module it belongs
/// to. No bound: these explain the end-to-end numbers.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 56] = [
    layer("ml.loss_and_grad_us", "us", "lower"),
    layer("ml.sgd_deltas_us", "us", "lower"),
    layer("ml.batch_us", "us", "lower"),
    layer("ml.solo_iters_per_s", "1/s", "higher"),
    layer("ml.solo_final_accuracy", "ratio", "higher"),
    layer("worker.compute_us_p50", "us", "lower"),
    layer("worker.spush_us_p50", "us", "lower"),
    layer("worker.spull_wait_us_p50", "us", "lower"),
    layer("worker.spull_wait_us_p99", "us", "lower"),
    layer("worker.iter_p99_us", "us", "lower"),
    layer("worker.iter_self_us_p50", "us", "lower"),
    layer("worker.pull_staleness_mean", "count", "lower"),
    layer("worker.sync_overhead_frac", "ratio", "lower"),
    layer("worker.failed_ops_frac", "ratio", "lower"),
    layer("worker.scatter_us", "us", "lower"),
    layer("worker.gather_us", "us", "lower"),
    layer("codec.encode_spush_us", "us", "lower"),
    layer("codec.decode_spush_us", "us", "lower"),
    layer("codec.encode_pull_response_us", "us", "lower"),
    layer("codec.decode_pull_response_us", "us", "lower"),
    layer("codec.spush_wire_bytes", "bytes", "lower"),
    layer("frame.encode_into_us", "us", "lower"),
    layer("frame.read_from_us", "us", "lower"),
    layer("tcp.pull_rtt_us_p50", "us", "lower"),
    layer("tcp.pull_rtt_us_p99", "us", "lower"),
    layer("tcp.send_batch_us", "us", "lower"),
    layer("tcp.bulk_mb_per_s", "MB/s", "higher"),
    layer("inproc.rtt_us_p50", "us", "lower"),
    layer("server.on_push_us", "us", "lower"),
    layer("server.on_pull_respond_us", "us", "lower"),
    layer("server.on_pull_defer_us", "us", "lower"),
    layer("server.on_push_release_us", "us", "lower"),
    layer("server.pushes", "count", "lower"),
    layer("server.pulls_total", "count", "lower"),
    layer("server.pulls_immediate_frac", "ratio", "higher"),
    layer("server.v_train_advances", "count", "higher"),
    layer("dpr.per_100_iters", "count", "lower"),
    layer("dpr.mean_wait_iters", "count", "lower"),
    layer("dpr.buffer_peak", "count", "lower"),
    layer("dpr.released_frac", "ratio", "higher"),
    layer("dpr.defer_release_100_us", "us", "lower"),
    layer("condition.pull_eval_ns_ssp", "ns", "lower"),
    layer("condition.pull_eval_ns_pssp", "ns", "lower"),
    layer("eps.slice_us", "us", "lower"),
    layer("eps.imbalance", "ratio", "lower"),
    layer("checkpoint.capture_us", "us", "lower"),
    layer("checkpoint.to_bytes_us", "us", "lower"),
    layer("checkpoint.bytes", "bytes", "lower"),
    layer("checkpoint.captures_per_100_iters", "count", "lower"),
    layer("recovery.retries_per_1k_iters", "count", "lower"),
    layer("recovery.connections_lost", "count", "lower"),
    layer("recovery.dead_at_end", "count", "lower"),
    layer("budget.blocking_path_us", "us", "lower"),
    layer("budget.accounted_frac", "ratio", "higher"),
    layer("budget.unaccounted_us", "us", "lower"),
    layer("budget.trace_overhead_frac", "ratio", "lower"),
];

/// Named values of one run.
pub type Values = BTreeMap<&'static str, Summary>;

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Post-warm-up values of one per-iteration series, pooled over workers.
fn pooled(w: &Workload, r: &Repeat, series: impl Fn(&WorkerLog) -> &[u64]) -> Vec<f64> {
    let warm = w.warmup_iters();
    r.workers
        .iter()
        .flat_map(|l| series(l).iter().skip(warm).map(|&v| v as f64))
        .collect()
}

fn merged<'a>(stats: impl IntoIterator<Item = &'a ShardStats>) -> ShardStats {
    let mut all = ShardStats::default();
    for s in stats {
        all.merge(s);
    }
    all
}

/// The per-repeat end-to-end values (everything but `peak_rss_mb`, which
/// belongs to the process). The three times are at reference speed
/// (`reference.rs`); `wall` has them as the clock read them.
pub struct RepeatE2e {
    pub iters_per_s: f64,
    pub iter_p50_us: f64,
    /// Σ compute ÷ Σ iteration time; `1 −` this is the paper's
    /// synchronization overhead (Figs. 6 and 8).
    pub compute_frac: f64,
    pub final_accuracy: f64,
    pub wire_bytes_per_iter: f64,
    pub setup_s: f64,
    pub wall: WallTimes,
    /// Median reference sample of the repeat ÷ the nominal one: how much
    /// slower than undisturbed the box ran.
    pub slowdown: f64,
}

/// The times of a repeat as the clock read them.
pub struct WallTimes {
    pub iters_per_s: f64,
    pub iter_p50_us: f64,
    pub setup_s: f64,
}

/// Sum of the workers' steady-state rates, and the median over the pooled
/// iterations, of per-worker post-warm-up iteration durations.
fn rate_and_p50(per_worker: &[Vec<f64>]) -> (f64, f64) {
    let rate = per_worker
        .iter()
        .filter(|d| !d.is_empty())
        .map(|d| d.len() as f64 / (d.iter().sum::<f64>() / 1e9))
        .sum();
    let p50 = Samples::new(per_worker.concat()).p50();
    (rate, us(p50))
}

pub fn repeat_e2e(w: &Workload, r: &Repeat) -> RepeatE2e {
    let warm = w.warmup_iters();
    let after_warmup = |v: Vec<f64>| v.into_iter().skip(warm).collect::<Vec<f64>>();
    let wall: Vec<Vec<f64>> = r
        .workers
        .iter()
        .map(|l| after_warmup(l.iter_ns.iter().map(|&ns| ns as f64).collect()))
        .collect();
    let corrected: Vec<Vec<f64>> = r
        .workers
        .iter()
        .map(|l| after_warmup(at_reference_speed(&l.iter_ns, &l.asleep_ns, &l.ref_ns)))
        .collect();
    let (wall_rate, wall_p50) = rate_and_p50(&wall);
    let (iters_per_s, iter_p50_us) = rate_and_p50(&corrected);
    // Set-up ends when the repeat starts, so it is corrected by the
    // repeat's samples as a whole (every worker takes at least one).
    let samples: Vec<f64> = r.workers.iter().flat_map(|l| &l.ref_ns).copied().collect();
    let sample = median(&samples);
    let iter_sum: f64 = wall.iter().flatten().sum();
    let sync: f64 = pooled(w, r, |l| &l.spush_ns).iter().sum::<f64>()
        + pooled(w, r, |l| &l.spull_wait_ns).iter().sum::<f64>();
    let total = merged(&r.stats);
    let worker_iters = (u64::from(w.workers) * w.iters) as f64;
    RepeatE2e {
        iters_per_s,
        iter_p50_us,
        compute_frac: 1.0 - sync / iter_sum.max(1.0),
        final_accuracy: r.accuracy,
        wire_bytes_per_iter: (total.bytes_in + total.bytes_out) as f64 / worker_iters,
        setup_s: r.setup_s * correction(sample),
        wall: WallTimes {
            iters_per_s: wall_rate,
            iter_p50_us: wall_p50,
            setup_s: r.setup_s,
        },
        slowdown: sample / NOMINAL_NS,
    }
}

/// Share of a repeat's CPU time the host may take away before the repeat
/// counts as disturbed. On the reference box repeats below it run at normal
/// speed; those far above it run at down to half speed (README, "Noise").
pub const MAX_STEAL_SHARE: f64 = 0.05;

impl Repeat {
    pub fn disturbed(&self) -> bool {
        self.steal_share > MAX_STEAL_SHARE
    }
}

/// The repeats the host left alone. `/proc/stat` counts the clock ticks
/// during which the hypervisor ran something else on this guest's CPUs; a
/// repeat that lost more than [`MAX_STEAL_SHARE`] of its CPU time is
/// measured and checked but kept out of the reported values. When fewer
/// than two repeats qualify, the two that lost least are reported. The
/// selection never looks at a repeat's own timings.
pub fn undisturbed(repeats: &[Repeat]) -> Vec<&Repeat> {
    let mut by_steal: Vec<&Repeat> = repeats.iter().collect();
    by_steal.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
    let quiet = by_steal.iter().filter(|r| !r.disturbed()).count();
    by_steal.truncate(quiet.max(2));
    by_steal
}

/// Median across repeats of every per-repeat end-to-end value, and of the
/// lines printed next to them ([`WALL`]).
pub fn e2e_values(w: &Workload, repeats: &[&Repeat]) -> Values {
    let per: Vec<RepeatE2e> = repeats.iter().map(|r| repeat_e2e(w, r)).collect();
    let col = |f: fn(&RepeatE2e) -> f64| Summary::of(&per.iter().map(f).collect::<Vec<_>>());
    Values::from([
        ("iters_per_s", col(|e| e.iters_per_s)),
        ("iter_p50_us", col(|e| e.iter_p50_us)),
        ("compute_frac", col(|e| e.compute_frac)),
        ("final_accuracy", col(|e| e.final_accuracy)),
        ("wire_bytes_per_iter", col(|e| e.wire_bytes_per_iter)),
        ("setup_s", col(|e| e.setup_s)),
        ("iters_per_s_wall", col(|e| e.wall.iters_per_s)),
        ("iter_p50_wall_us", col(|e| e.wall.iter_p50_us)),
        ("setup_wall_s", col(|e| e.wall.setup_s)),
        ("slowdown", col(|e| e.slowdown)),
    ])
}

/// Printed with the end-to-end metrics but not in the manifest: the three
/// times as the clock read them, and how much slower than undisturbed the
/// box ran while they were taken.
pub const WALL: [(&str, &str); 4] = [
    ("iters_per_s_wall", "1/s"),
    ("iter_p50_wall_us", "us"),
    ("setup_wall_s", "s"),
    ("slowdown", "ratio"),
];

/// `(attempted, failed)` operations of some repeats: a `spush` or
/// `spull_wait` that returned `Err` or was never reached counts as failed.
pub fn ops<'a>(w: &Workload, repeats: impl IntoIterator<Item = &'a Repeat>) -> (u64, u64) {
    let per_repeat = 2 * u64::from(w.workers) * w.iters;
    repeats.into_iter().fold((0, 0), |(attempted, failed), r| {
        let ok: u64 = r.workers.iter().map(|l| l.ops_ok).sum();
        (attempted + per_repeat, failed + per_repeat - ok)
    })
}

/// The live per-layer values of the traced repeats: harness spans around
/// the public calls plus the public counters `shutdown()` returns.
pub fn live_layer_values(w: &Workload, traced: &[&Repeat]) -> Values {
    let pool = |series: fn(&WorkerLog) -> &[u64]| -> Vec<f64> {
        traced.iter().flat_map(|r| pooled(w, r, series)).collect()
    };
    let iter = Samples::new(pool(|l| &l.iter_ns));
    let wait = Samples::new(pool(|l| &l.spull_wait_ns));
    let staleness = pool(|l| &l.staleness);
    // Self time of the root spans: what an iteration spends outside every
    // layer call, i.e. in the harness itself.
    let iter_self = Samples::new(
        traced
            .iter()
            .flat_map(|r| &r.workers)
            .flat_map(|l| {
                let spans = l.spans.spans();
                let roots = spans.iter().map(|s| s.parent.is_none());
                self_times_ns(spans)
                    .into_iter()
                    .zip(roots)
                    .filter_map(|(t, root)| root.then_some(t as f64))
                    .collect::<Vec<_>>()
            })
            .collect(),
    );
    let us_of = |s: &Samples, ns: f64| Summary::single(us(ns), s.len());

    let stats = merged(traced.iter().flat_map(|r| &r.stats));
    let count = |v: u64| Summary::single(v as f64, traced.len());
    // A ratio over no attempts is the best case: nothing was wasted.
    let ratio = |num: u64, den: u64| {
        let v = if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        };
        Summary::single(v, den as usize)
    };
    let (attempted, failed) = ops(w, traced.iter().copied());
    let recovery: Vec<_> = traced.iter().filter_map(|r| r.recovery).collect();
    let retries: u64 = recovery.iter().map(|c| c.retries).sum();
    let lost: u64 = recovery.iter().map(|c| c.connections_lost).sum();
    let checkpoints: u64 = recovery.iter().map(|c| c.checkpoints).sum();
    let worker_iters = (traced.len() as u64 * u64::from(w.workers) * w.iters) as f64;

    Values::from([
        (
            "worker.compute_us_p50",
            us_of(&iter, Samples::new(pool(|l| &l.compute_ns)).p50()),
        ),
        (
            "worker.spush_us_p50",
            us_of(&iter, Samples::new(pool(|l| &l.spush_ns)).p50()),
        ),
        ("worker.spull_wait_us_p50", us_of(&wait, wait.p50())),
        ("worker.spull_wait_us_p99", us_of(&wait, wait.tail(99.0))),
        ("worker.iter_p99_us", us_of(&iter, iter.tail(99.0))),
        (
            "worker.iter_self_us_p50",
            us_of(&iter_self, iter_self.p50()),
        ),
        (
            "worker.pull_staleness_mean",
            Summary::single(
                staleness.iter().sum::<f64>() / staleness.len().max(1) as f64,
                staleness.len(),
            ),
        ),
        (
            "worker.sync_overhead_frac",
            Summary::single(
                1.0 - e2e_values(w, traced)["compute_frac"].median,
                traced.len(),
            ),
        ),
        (
            "worker.failed_ops_frac",
            Summary::single(failed as f64 / attempted.max(1) as f64, attempted as usize),
        ),
        ("server.pushes", count(stats.pushes)),
        ("server.pulls_total", count(stats.pulls_total)),
        (
            "server.pulls_immediate_frac",
            ratio(stats.pulls_immediate, stats.pulls_total),
        ),
        ("server.v_train_advances", count(stats.v_train_advances)),
        (
            "dpr.per_100_iters",
            Summary::single(stats.dprs_per_100_iters(), stats.v_train_advances as usize),
        ),
        (
            "dpr.mean_wait_iters",
            Summary::single(stats.mean_dpr_wait(), stats.dprs_released as usize),
        ),
        ("dpr.buffer_peak", count(stats.dpr_buffer_peak)),
        ("dpr.released_frac", ratio(stats.dprs_released, stats.dprs)),
        (
            "checkpoint.captures_per_100_iters",
            Summary::single(
                checkpoints as f64 * 100.0 / stats.v_train_advances.max(1) as f64,
                checkpoints as usize,
            ),
        ),
        (
            "recovery.retries_per_1k_iters",
            Summary::single(retries as f64 * 1000.0 / worker_iters, retries as usize),
        ),
        ("recovery.connections_lost", count(lost)),
        (
            "recovery.dead_at_end",
            count(traced.iter().map(|r| r.dead_at_end as u64).sum()),
        ),
    ])
}

/// Everything a repeat has to satisfy for its numbers to count; a fast
/// wrong answer must fail. Returns one line per violated check.
pub fn check_repeat(w: &Workload, r: &Repeat) -> Vec<String> {
    let mut bad = Vec::new();
    let mut fail = |msg: String| bad.push(format!("{}: {msg}", w.name));
    for l in &r.workers {
        if l.iter_ns.len() as u64 != w.iters {
            fail(format!(
                "worker {} finished {} of {} iterations",
                l.worker,
                l.iter_ns.len(),
                w.iters
            ));
        }
        if l.predicate_violations > 0 {
            fail(format!(
                "worker {}: {} pulls granted outside progress < min_version + {}",
                l.worker,
                l.predicate_violations,
                w.staleness()
            ));
        }
    }
    if r.stats.len() != w.servers as usize {
        fail(format!(
            "{} shard statistics for {} servers",
            r.stats.len(),
            w.servers
        ));
    }
    for (m, s) in r.stats.iter().enumerate() {
        if s.pulls_total != s.pulls_immediate + s.dprs {
            fail(format!(
                "shard {m}: pulls_total {} != immediate {} + dprs {}",
                s.pulls_total, s.pulls_immediate, s.dprs
            ));
        }
        if s.dprs_released != s.dprs {
            fail(format!(
                "shard {m}: {} of {} DPRs released",
                s.dprs_released, s.dprs
            ));
        }
        if s.v_train_advances != w.iters {
            fail(format!(
                "shard {m}: V_train advanced {} times over {} iterations",
                s.v_train_advances, w.iters
            ));
        }
        if s.pushes != u64::from(w.workers) * w.iters {
            fail(format!("shard {m}: {} pushes", s.pushes));
        }
    }
    if w.sync == SyncModel::Bsp {
        let first = &r.workers[0].params;
        let same = r.workers.iter().all(|l| {
            l.params.len() == first.len()
                && l.params.iter().all(|(k, v)| {
                    first.get(k).is_some_and(|f| {
                        f.len() == v.len()
                            && f.iter().zip(v).all(|(a, b)| a.to_bits() == b.to_bits())
                    })
                })
        });
        if !same {
            fail("BSP workers ended with different parameters".to_string());
        }
    }
    if r.accuracy < ACCURACY_FLOOR {
        fail(format!(
            "final accuracy {:.3} below the floor {ACCURACY_FLOOR}",
            r.accuracy
        ));
    }
    if r.dead_at_end != 0 {
        fail(format!("{} servers dead at the end", r.dead_at_end));
    }
    if let Some(c) = r.recovery {
        if c.retries != 0 || c.connections_lost != 0 {
            fail(format!(
                "fault-free run scheduled {} retries and lost {} connections",
                c.retries, c.connections_lost
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(n.len() <= 64 && !names[..i].contains(n), "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
