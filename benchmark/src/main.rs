//! `ledger`: the repository's benchmark. Runs real live training through
//! each of the three server loops and reports end-to-end metrics (tracing
//! off) or a per-layer budget (tracing on). See `benchmark/README.md`.
//!
//! ```text
//! ledger run --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ledger manifest                  # the text of BENCHMARK.json
//! ledger merge CAPTURE...          # captured run output -> results JSON
//! ledger selfcheck FIRST SECOND    # two captured suites, same build
//! ```

mod live;
mod metrics;
mod procfs;
mod reference;
mod replay;
mod report;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use live::{run_repeat, Repeat};
use metrics::{
    check_repeat, e2e_values, live_layer_values, ops, undisturbed, Values, END_TO_END, PER_LAYER,
    WALL,
};
use stats::Summary;
use workload::{build_task, derive_seed, Workload};

/// Iterations per worker of a `--smoke` run.
const SMOKE_ITERS: u64 = 50;

/// Where the traced run leaves its spans: `out/` next to this package's
/// manifest, wherever the run was started from.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

#[derive(Clone, Copy)]
struct RunArgs {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut traced, mut smoke) =
        (None, None, report::RUN_SECONDS as f64, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds,
        traced: traced.unwrap_or(false),
        smoke,
    })
}

/// What a run hands to the printer.
struct Outcome {
    values: Values,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// A run whose budget is used up keeps measuring while the host has left it
/// fewer undisturbed repeats than it needs, for at most this many times the
/// budget and never beyond [`OVERTIME_CAP`]. The storms in which the host
/// takes half the CPU time away last a minute or two (README, "Noise"); a
/// run that waits one out reports what the code does, where it would
/// otherwise report what the host did, and so would the runs after it.
const OVERTIME_FACTOR: f64 = 4.0;

/// Every run has to end within 180 s.
const OVERTIME_CAP: Duration = Duration::from_secs(120);

/// Whether a run starts another repeat, given whether it has `enough`
/// (repeats at all, undisturbed ones) and when the next would end.
fn another_repeat(enough: (bool, bool), expected_end: Duration, budget: Duration) -> bool {
    let overtime = budget.mul_f64(OVERTIME_FACTOR).min(OVERTIME_CAP);
    !enough.0 || expected_end <= budget || (!enough.1 && expected_end <= overtime)
}

/// Run fresh-cluster repeats until the time budget is used up: another
/// repeat starts only while it is expected to end inside the budget, and at
/// least `min_repeats` always run. Past the budget, repeats go on until
/// `min_quiet` of them are undisturbed or the overtime is used up too.
/// Repeat `r` trains on its own seed, so the median across repeats also
/// averages over inputs.
fn run_repeats(
    w: &Workload,
    seed: u64,
    budget: Duration,
    (min_repeats, min_quiet): (usize, usize),
    traced: impl Fn(usize) -> bool,
    failures: &mut Vec<String>,
) -> Result<Vec<Repeat>, String> {
    let begun = Instant::now();
    let mut longest = Duration::ZERO;
    let mut done: Vec<Repeat> = Vec::new();
    loop {
        let quiet = done.iter().filter(|r| !r.disturbed()).count();
        let enough = (done.len() >= min_repeats, quiet >= min_quiet);
        if !another_repeat(enough, begun.elapsed() + longest, budget) {
            return Ok(done);
        }
        let started = Instant::now();
        let seed = derive_seed(seed, 1000 + done.len() as u64);
        let repeat = run_repeat(w, seed, traced(done.len()))?;
        failures.extend(check_repeat(w, &repeat));
        longest = longest.max(started.elapsed());
        done.push(repeat);
    }
}

/// The undisturbed repeats of `repeats`, with a note on what was set aside.
fn quiet<'r>(w: &Workload, what: &str, repeats: &'r [Repeat]) -> Vec<&'r Repeat> {
    let kept = undisturbed(repeats);
    if kept.len() < repeats.len() {
        let steal: Vec<String> = repeats
            .iter()
            .map(|r| format!("{:.1}%", r.steal_share * 100.0))
            .collect();
        eprintln!(
            "ledger: {}: {} of {} {what} repeats reported (CPU time stolen by the host: {steal:?})",
            w.name,
            kept.len(),
            repeats.len()
        );
    }
    kept
}

/// The plain one-worker baseline, and the check that distributed training
/// did not cost more than 0.05 of its accuracy.
fn solo_baseline(w: &Workload, seed: u64, failures: &mut Vec<String>) -> Result<Repeat, String> {
    let solo = w.solo();
    let repeat = run_repeat(&solo, derive_seed(seed, 999), false)?;
    failures.extend(check_repeat(&solo, &repeat));
    Ok(repeat)
}

fn check_against_solo(w: &Workload, accuracy: f64, solo: &Repeat, failures: &mut Vec<String>) {
    if accuracy < solo.accuracy - 0.05 {
        failures.push(format!(
            "{}: final accuracy {accuracy:.3} is more than 0.05 below the single-worker baseline {:.3}",
            w.name, solo.accuracy
        ));
    }
}

/// Tracing off: the end-to-end metrics, each the median across repeats.
fn run_end_to_end(w: &Workload, a: &RunArgs) -> Result<Outcome, String> {
    let begun = Instant::now();
    let mut failures = Vec::new();
    let solo = solo_baseline(w, a.seed, &mut failures)?;
    let budget = Duration::from_secs_f64(a.seconds).saturating_sub(begun.elapsed());
    let repeats = run_repeats(w, a.seed, budget, (1, 3), |_| false, &mut failures)?;
    let mut values = e2e_values(w, &quiet(w, "untraced", &repeats));
    check_against_solo(w, values["final_accuracy"].median, &solo, &mut failures);
    values.insert("peak_rss_mb", Summary::single(repeats[0].peak_rss_mib, 1));
    let (attempted, failed) = ops(w, &repeats);
    // Two more lines for the reader. They are not in the manifest, whose
    // end-to-end metrics must never be 0 and whose bounds are relative:
    // `attempted`/`failed` and `compute_frac` carry them there.
    values.insert(
        "failed_ops_frac",
        Summary::single(failed as f64 / attempted as f64, attempted as usize),
    );
    let compute = values["compute_frac"];
    values.insert(
        "sync_overhead_frac",
        Summary {
            median: 1.0 - compute.median,
            min: 1.0 - compute.max,
            max: 1.0 - compute.min,
            n: compute.n,
        },
    );
    Ok(Outcome {
        values,
        failures,
        attempted,
        failed,
    })
}

/// Tracing on: the layer replay, the baseline, and live repeats alternating
/// untraced and traced so the cost of the harness's own spans can be read
/// off the same run.
fn run_per_layer(w: &Workload, a: &RunArgs) -> Result<Outcome, String> {
    let begun = Instant::now();
    let mut failures = Vec::new();
    let task = build_task(w, a.seed);
    let mut values = replay::replay(w, &task)?;
    let solo = solo_baseline(w, a.seed, &mut failures)?;
    let solo_w = w.solo();
    let solo_e2e = metrics::repeat_e2e(&solo_w, &solo);
    let solo_iters = solo_w.iters as usize;
    values.insert(
        "ml.solo_iters_per_s",
        Summary::single(solo_e2e.wall.iters_per_s, solo_iters),
    );
    values.insert(
        "ml.solo_final_accuracy",
        Summary::single(solo.accuracy, solo_iters),
    );

    let budget = Duration::from_secs_f64(a.seconds).saturating_sub(begun.elapsed());
    let all = run_repeats(w, a.seed, budget, (2, 4), |r| r % 2 == 1, &mut failures)?;
    let (attempted, failed) = ops(w, &all);
    let (traced, plain): (Vec<Repeat>, Vec<Repeat>) = all.into_iter().partition(|r| r.traced);
    write_spans(w, traced.last().expect("at least one traced repeat"))?;
    let (plain, traced) = (quiet(w, "untraced", &plain), quiet(w, "traced", &traced));
    values.extend(live_layer_values(w, &traced));
    let traced_e2e = e2e_values(w, &traced);
    check_against_solo(w, traced_e2e["final_accuracy"].median, &solo, &mut failures);

    // The replayed layer costs are wall-clock times, so they are reconciled
    // against the wall-clock iteration; the cost of tracing compares two
    // sets of repeats, so it is taken at reference speed.
    let plain_e2e = e2e_values(w, &plain);
    let trace_overhead = traced_e2e["iter_p50_us"].median / plain_e2e["iter_p50_us"].median - 1.0;
    let iter_p50 = plain_e2e["iter_p50_wall_us"].median;
    values.extend(budget_values(w, &values, iter_p50, trace_overhead));
    Ok(Outcome {
        values,
        failures,
        attempted,
        failed,
    })
}

/// Reconcile the replayed layer costs against the measured iteration: the
/// blocking path of one worker-iteration is compute, scatter, the push on
/// its way to the server and through `on_push`, one pull round trip, the
/// pull's handling, and one gather per server. Servers work in parallel, so
/// server-side costs count once. What is left over is server-loop glue,
/// system calls, scheduling and waiting for the other worker — the private
/// `*_server_loop`s are only visible here.
fn budget_values(w: &Workload, v: &Values, iter_p50_us: f64, trace_overhead: f64) -> Values {
    let get = |name: &str| v[name].median;
    let servers = f64::from(w.servers);
    let compute = get("ml.batch_us") + get("ml.loss_and_grad_us") + get("ml.sgd_deltas_us");
    let worker_side = get("worker.scatter_us") + servers * get("worker.gather_us");
    let server_side = get("server.on_push_us") + get("server.on_pull_respond_us");
    let transport = match w.engine {
        workload::Engine::Inproc => 2.0 * get("inproc.rtt_us_p50"),
        _ => get("tcp.send_batch_us") + get("frame.read_from_us") + get("tcp.pull_rtt_us_p50"),
    };
    let blocking = compute + worker_side + server_side + transport;
    let n = v["ml.loss_and_grad_us"].n;
    Values::from([
        ("budget.blocking_path_us", Summary::single(blocking, n)),
        (
            "budget.accounted_frac",
            Summary::single(blocking / iter_p50_us, n),
        ),
        (
            "budget.unaccounted_us",
            Summary::single(iter_p50_us - blocking, n),
        ),
        (
            "budget.trace_overhead_frac",
            Summary::single(trace_overhead, 1),
        ),
    ])
}

fn write_spans(w: &Workload, traced: &Repeat) -> Result<(), String> {
    let path = format!("{OUT_DIR}/{}.spans.jsonl", w.name);
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(OUT_DIR)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let buffers: Vec<(u32, &[spans::Span])> = traced
            .workers
            .iter()
            .map(|l| (l.worker, l.spans.spans()))
            .collect();
        spans::write_jsonl(&mut out, &buffers)?;
        std::io::Write::flush(&mut out)
    };
    write().map_err(|e| format!("cannot write {path}: {e}"))
}

/// Run one workload and print its metrics; the last line of standard
/// output is the result object. `Err` means the run could not be made at
/// all (nothing is printed then).
fn run(a: &RunArgs) -> Result<bool, String> {
    let smoke = a.workload.with_iters(SMOKE_ITERS);
    let w = if a.smoke { &smoke } else { a.workload };
    let seconds = if a.smoke { 0.0 } else { a.seconds };
    let a = RunArgs { seconds, ..*a };
    let (outcome, names): (Outcome, Vec<(&str, &str)>) = if a.traced {
        let names = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        (run_per_layer(w, &a)?, names)
    } else {
        let names = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        (run_end_to_end(w, &a)?, names)
    };
    let mut failures = outcome.failures;
    let lines = report::lines(w.name, &names, &outcome.values);
    for l in &lines {
        if !l.summary.median.is_finite() {
            failures.push(format!("{}: {} is not a finite number", w.name, l.metric));
        }
        println!("{}", l.render());
    }
    if !a.traced {
        let mut extra = vec![
            ("sync_overhead_frac", "ratio"),
            ("failed_ops_frac", "ratio"),
        ];
        extra.extend(WALL);
        for l in report::lines(w.name, &extra, &outcome.values) {
            println!("{}", l.render());
        }
    }
    if outcome.failed > 0 {
        failures.push(format!(
            "{}: {} of {} operations failed",
            w.name, outcome.failed, outcome.attempted
        ));
    }
    for f in &failures {
        eprintln!("ledger: check failed: {f}");
    }
    let correct = failures.is_empty();
    println!(
        "{}",
        report::result_object(correct, outcome.attempted, outcome.failed, &lines)
    );
    Ok(correct)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => run(&parse_run_args(&args[1..])?),
        Some("manifest") => {
            print!("{}", report::manifest());
            Ok(true)
        }
        Some("merge") => {
            let captures = args[1..]
                .iter()
                .map(|p| read(p))
                .collect::<Result<Vec<_>, _>>()?;
            let merged = report::merge(&captures);
            fluentps_obs::json::validate(&merged).map_err(|e| format!("merge: {e}"))?;
            print!("{merged}");
            Ok(true)
        }
        Some("selfcheck") if args.len() == 3 => {
            let (table, ok) = report::selfcheck(&read(&args[1])?, &read(&args[2])?);
            print!("{table}");
            Ok(ok)
        }
        _ => Err(
            "usage: ledger run --workload NAME --seed N --seconds S --trace 0|1 [--smoke] \
                  | manifest | merge CAPTURE... | selfcheck FIRST SECOND"
                .to_string(),
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::WORKLOADS;

    /// The whole benchmark in miniature: every workload, both modes, all
    /// correctness checks on — so it cannot rot between benchmark changes.
    /// One test, because the workloads must not compete for the cores.
    #[test]
    fn smoke_pass_over_every_workload() {
        for w in &WORKLOADS {
            for traced in [false, true] {
                let correct = run(&RunArgs {
                    workload: w,
                    seed: 5,
                    seconds: 1.0,
                    traced,
                    smoke: true,
                })
                .unwrap_or_else(|e| panic!("{} (traced {traced}): {e}", w.name));
                assert!(correct, "{} (traced {traced}) failed a check", w.name);
            }
        }
    }

    #[test]
    fn a_run_waits_a_storm_out_but_not_for_ever() {
        let s = Duration::from_secs;
        let budget = s(25);
        // Inside the budget a run always goes on; past it only for want of
        // undisturbed repeats, and then for at most four budgets.
        assert!(another_repeat((true, true), s(20), budget));
        assert!(!another_repeat((true, true), s(26), budget));
        assert!(another_repeat((true, false), s(99), budget));
        assert!(!another_repeat((true, false), s(101), budget));
        assert!(!another_repeat((true, false), s(121), s(60)));
        // A smoke run has no budget: its minimum of repeats and no more.
        assert!(another_repeat((false, false), s(1), s(0)));
        assert!(!another_repeat((true, false), s(1), s(0)));
    }

    #[test]
    fn run_arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_run_args(&args(
            "--workload tcp_bsp_wire --seed 3 --seconds 5 --trace 1",
        ))
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            (ok.workload.name, ok.seed, ok.traced),
            ("tcp_bsp_wire", 3, true)
        );
        for bad in [
            "--workload nope",
            "--workload tcp_bsp_wire --trace 2",
            "--workload tcp_bsp_wire --seconds 0",
            "--seed 1",
            "--workload tcp_bsp_wire --seed",
        ] {
            assert!(parse_run_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
