//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//!   repro <fig1|fig3|fig6|fig7|fig8|fig9|fig10|fig11|table4|all> [--full] [--csv DIR]
//!   repro --trace FILE [--full] [--metrics-addr ADDR]
//!   repro analyze FILE [--md] [--ssp S | --pssp-const S C]
//!   repro validate-json FILE
//!   repro chaos [--seed N] [--workers N] [--servers N] [--iters N]
//!               [--staleness S] [--faults N] [--kill M@V]
//!               [--supervisors N] [--kill-supervisor K@V]... [--metrics-addr ADDR]
//!   repro collect FILE [chaos flags] [--ring N]
//!   repro watch [chaos flags]
//!   repro waterfall [chaos flags] [--top N]
//!
//! Quick mode (default) finishes each experiment in seconds-to-minutes;
//! `--full` uses paper-like worker counts and iteration budgets. The
//! figures asked for run side by side, one per available CPU; their tables
//! print and their CSVs are numbered in the order of the usage line above.
//! `--trace FILE` runs a traced FluentPS demo and writes the event trace to
//! FILE — Chrome trace-event JSON (open in Perfetto or `chrome://tracing`),
//! or JSONL when FILE ends in `.jsonl`. With `--metrics-addr` the run also
//! serves `/metrics`, `/healthz` and `/trace` on ADDR while it executes.
//! `analyze` reads a JSONL trace back and prints the full analytics report
//! (straggler scoreboard, time breakdowns, per-shard sync health and
//! server phase times, staleness histogram, block-rate curve, critical
//! path); `--ssp`/`--pssp-const` add the analytical
//! `Pr[blocked | gap=k]` column to compare against the empirical one.
//! `validate-json` checks a file parses under the in-tree JSON validator.
//! `watch` runs a chaos job while tailing its streaming health engine: a
//! refreshing summary (windowed tail latencies, progress rates, alert
//! states) goes to stderr, and the final `/slo` text plus the
//! deterministic alert fingerprint go to stdout when the run ends.
//! `waterfall` runs a chaos job with its local trace kept and assembles
//! exact per-request causal waterfalls from the propagated request ids:
//! stable `waterfall-request` / `waterfall-balance` / `waterfall-gapless`
//! lines go to stdout for CI (logical shape only — same-seed single-worker
//! runs without `--kill` diff bit-identical; see DESIGN.md §17), followed
//! by the `--top N` slowest requests as aligned text waterfalls and a
//! per-stage transition latency table. Exits non-zero when the collector
//! balance (`retained + sampled_out == observed`) or any retained
//! waterfall's gapless check fails.

use std::io::Write as _;

use fluentps_core::pssp;
use fluentps_experiments::figures::{self, Scale};
use fluentps_experiments::report::{self, Table};
use fluentps_experiments::tracerun;
use fluentps_obs::analyze;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => run_analyze(&args[1..]),
        Some("validate-json") => run_validate_json(&args[1..]),
        Some("chaos") => run_chaos_cmd(&args[1..]),
        Some("collect") => run_collect_cmd(&args[1..]),
        Some("watch") => run_watch_cmd(&args[1..]),
        Some("waterfall") => run_waterfall_cmd(&args[1..]),
        _ => run_figures(&args),
    }
}

/// Parse the shared chaos/collect flags into `cfg`; bare arguments land in
/// `file` when `file_ok` (the collect output path), otherwise error out.
fn parse_chaos_args(
    args: &[String],
    cfg: &mut fluentps_experiments::live::ChaosConfig,
    file: &mut Option<String>,
    file_ok: bool,
) {
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                cfg.seed = parse_arg(args.get(i), "--seed N");
            }
            "--workers" => {
                i += 1;
                cfg.num_workers = parse_arg(args.get(i), "--workers N");
            }
            "--servers" => {
                i += 1;
                cfg.num_servers = parse_arg(args.get(i), "--servers N");
            }
            "--iters" => {
                i += 1;
                cfg.max_iters = parse_arg(args.get(i), "--iters N");
            }
            "--staleness" => {
                i += 1;
                cfg.staleness = parse_arg(args.get(i), "--staleness S");
            }
            "--faults" => {
                i += 1;
                cfg.faults = parse_arg(args.get(i), "--faults N");
            }
            "--ring" => {
                i += 1;
                cfg.obs.ring_capacity = parse_arg(args.get(i), "--ring N");
            }
            "--kill" => {
                i += 1;
                let raw = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("[repro] missing value for --kill M@V");
                    std::process::exit(2);
                });
                let (m, v) = raw.split_once('@').unwrap_or_else(|| {
                    eprintln!("[repro] bad --kill {raw:?}: expected M@V (e.g. 0@10)");
                    std::process::exit(2);
                });
                cfg.kill_server = Some((
                    parse_arg(Some(&m.to_string()), "--kill M@V"),
                    parse_arg(Some(&v.to_string()), "--kill M@V"),
                ));
            }
            "--supervisors" => {
                i += 1;
                cfg.num_supervisors = parse_arg(args.get(i), "--supervisors N");
            }
            "--kill-supervisor" => {
                i += 1;
                let raw = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("[repro] missing value for --kill-supervisor K@V");
                    std::process::exit(2);
                });
                let (k, v) = raw.split_once('@').unwrap_or_else(|| {
                    eprintln!("[repro] bad --kill-supervisor {raw:?}: expected K@V (e.g. 0@8)");
                    std::process::exit(2);
                });
                // Repeatable: each occurrence schedules one replica crash.
                cfg.kill_supervisors.push((
                    parse_arg(Some(&k.to_string()), "--kill-supervisor K@V"),
                    parse_arg(Some(&v.to_string()), "--kill-supervisor K@V"),
                ));
            }
            "--metrics-addr" => {
                i += 1;
                let raw = args.get(i).cloned().unwrap_or_else(|| usage());
                cfg.obs.http = Some(raw.parse().unwrap_or_else(|e| {
                    eprintln!("[repro] bad --metrics-addr {raw:?}: {e}");
                    std::process::exit(2);
                }));
            }
            other if file_ok && file.is_none() && !other.starts_with('-') => {
                *file = Some(other.to_string());
            }
            other => {
                eprintln!("[repro] unknown argument {other:?}");
                usage();
            }
        }
        i += 1;
    }
}

/// `repro chaos`: a seeded fault-injection run on the live resilient TCP
/// engine. Prints stable `chaos-stats` / `chaos-fingerprint` lines to
/// stdout so CI can diff two same-seed runs, and exits non-zero if any
/// worker fails to finish its iterations.
fn run_chaos_cmd(args: &[String]) {
    let mut cfg = fluentps_experiments::live::ChaosConfig::default();
    parse_chaos_args(args, &mut cfg, &mut None, false);
    eprintln!(
        "[repro] chaos: {}w x {}s x {}sup, {} iters, seed {}, faults {}, kill {:?}, kill-sup {:?}",
        cfg.num_workers,
        cfg.num_servers,
        cfg.num_supervisors,
        cfg.max_iters,
        cfg.seed,
        cfg.faults,
        cfg.kill_server,
        cfg.kill_supervisors
    );
    // A worker that exhausts its retries panics its thread; run_chaos
    // propagates the panic, which exits this process non-zero.
    let r = fluentps_experiments::live::run_chaos(&cfg);
    print_chaos_result(&cfg, &r);
}

fn print_chaos_result(
    cfg: &fluentps_experiments::live::ChaosConfig,
    r: &fluentps_experiments::live::ChaosResult,
) {
    for (m, s) in r.stats.iter().enumerate() {
        println!(
            "chaos-stats server={m} pushes={} pulls={} v_train={} dprs={} released={}",
            s.pushes, s.pulls_total, s.v_train_advances, s.dprs, s.dprs_released
        );
    }
    println!("chaos-dead-at-end {}", r.dead_at_end);
    println!("chaos-fingerprint {}", r.fingerprint);
    // Alert lines only when a health engine observed the run (so the plain
    // chaos output CI diffs across same-seed runs stays byte-identical).
    if let Some(alerts) = &r.alerts {
        for t in alerts {
            println!(
                "chaos-alert rule={} transition={} at={} logical={}",
                t.rule,
                if t.firing { "firing" } else { "resolved" },
                t.at,
                t.logical
            );
        }
    }
    if let Some(fp) = &r.alert_fingerprint {
        println!("chaos-alert-fingerprint {fp}");
    }
    eprintln!(
        "[repro] chaos done in {:.2}s, accuracy {:.3}",
        r.wall_seconds, r.accuracy
    );
    if cfg.kill_server.is_some() && r.dead_at_end > 0 {
        eprintln!("[repro] chaos: server still dead at end of run");
        std::process::exit(1);
    }
}

/// `repro collect FILE`: a chaos run with cluster-wide trace collection —
/// every node (workers, servers, supervisor) streams its ring-buffered
/// events to an in-process collector service, which clock-aligns and
/// merges them onto one timeline. The merged trace is written to FILE
/// (JSONL when it ends in `.jsonl`, Chrome trace-event JSON otherwise) so
/// `repro analyze FILE` can chew on the whole cluster at once. Prints
/// stable `collect-node` / `collect-balanced` / `collect-recovery` lines
/// for CI, and exits non-zero when any node's accounting does not balance.
fn run_collect_cmd(args: &[String]) {
    use fluentps_obs::EventKind;
    use fluentps_transport::CollectorService;

    let mut cfg = fluentps_experiments::live::ChaosConfig::default();
    let mut file = None;
    parse_chaos_args(args, &mut cfg, &mut file, true);
    let path = file.unwrap_or_else(|| {
        eprintln!("[repro] collect needs an output FILE");
        usage();
    });

    let mut service = CollectorService::bind(
        "127.0.0.1:0".parse().expect("loopback"),
        // The merged view keeps up to 4 rings' worth per node; the
        // streamers drained the rings live, so this bounds collector
        // memory, not what the nodes could record.
        cfg.obs.ring_capacity * 4,
    )
    .unwrap_or_else(|e| {
        eprintln!("[repro] cannot bind trace collector: {e}");
        std::process::exit(1);
    });
    cfg.obs.stream_to = Some(service.local_addr());
    // The streaming health engine rides the collector's merged, clock-
    // aligned event stream — the one place every node's events converge.
    let engine = fluentps_experiments::live::endpoint_health_engine();
    service.attach_health(&engine);
    cfg.obs.health = Some(engine.clone());
    // In collect mode the introspection endpoint serves the *merged*
    // cluster timeline (and per-node collection counters on /metrics), so
    // take the address over from the chaos run's own endpoint.
    let introspection = cfg.obs.http.take().map(|addr| {
        let registry = fluentps_obs::MetricsRegistry::new();
        fluentps_core::launch::publish_cluster_gauges(
            &registry,
            "resilient-tcp",
            cfg.num_workers,
            cfg.num_servers,
        );
        eprintln!("[repro] serving merged /trace, /slo, /alerts and /metrics on http://{addr}/");
        let endpoints = fluentps_obs::http::Endpoints {
            registry,
            trace: Some(fluentps_obs::TraceSource::Cluster(service.cluster())),
            engine: Some(engine.clone()),
            ..Default::default()
        };
        fluentps_obs::http::serve(addr, endpoints).expect("bind introspection endpoint")
    });
    eprintln!(
        "[repro] collect: {}w x {}s, {} iters, seed {}, faults {}, kill {:?}, collector {}",
        cfg.num_workers,
        cfg.num_servers,
        cfg.max_iters,
        cfg.seed,
        cfg.faults,
        cfg.kill_server,
        service.local_addr()
    );

    let mut r = fluentps_experiments::live::run_chaos(&cfg);
    // Every streamer has final-flushed and passed its read barrier by the
    // time run_chaos returns, so the engine has seen the whole run: close
    // its final window and refresh the alert record before printing.
    engine.finish();
    r.alerts = Some(engine.transitions());
    r.alert_fingerprint = Some(format!("{:016x}", engine.fingerprint()));

    // The snapshot below is likewise the whole run.
    for s in service.node_stats() {
        println!(
            "collect-node {} emitted={} received={} dropped={} incarnations={}",
            s.node, s.emitted, s.received, s.dropped, s.incarnations
        );
    }
    match service.check_balance() {
        Ok(()) => println!("collect-balanced ok"),
        Err(bad) => {
            for s in &bad {
                eprintln!(
                    "[repro] unbalanced node {}: emitted {} != received {} + dropped {}",
                    s.node, s.emitted, s.received, s.dropped
                );
            }
            println!("collect-balanced FAILED");
            std::process::exit(1);
        }
    }
    let trace = service.snapshot();
    println!(
        "collect-recovery checkpoint_captured={} checkpoint_restored={} shard_remapped={} node_declared_dead={}",
        trace.count(EventKind::CheckpointCaptured),
        trace.count(EventKind::CheckpointRestored),
        trace.count(EventKind::ShardRemapped),
        trace.count(EventKind::NodeDeclaredDead),
    );
    let rendered = tracerun::render_for_path(&path, &trace);
    std::fs::write(&path, rendered).expect("write merged trace");
    eprintln!(
        "[repro] wrote {path} ({} events merged from {} nodes)",
        trace.events.len(),
        service.node_stats().len()
    );
    drop(introspection);
    service.stop();
    print_chaos_result(&cfg, &r);
}

/// `repro watch`: a chaos run with a live tail on its streaming health
/// engine. While the run executes, a compact health summary (events,
/// windows, progress rates, alert states) refreshes on stderr every 250ms;
/// when it finishes, the full final `/slo` text and the stable
/// `chaos-alert*` lines (including the deterministic alert fingerprint) go
/// to stdout. Accepts every `repro chaos` flag; with `--metrics-addr` the
/// same engine is also served on `/slo` and `/alerts`.
fn run_watch_cmd(args: &[String]) {
    let mut cfg = fluentps_experiments::live::ChaosConfig::default();
    parse_chaos_args(args, &mut cfg, &mut None, false);
    let engine = fluentps_experiments::live::endpoint_health_engine();
    cfg.obs.health = Some(engine.clone());
    eprintln!(
        "[repro] watch: {}w x {}s, {} iters, seed {}, faults {}, kill {:?}",
        cfg.num_workers, cfg.num_servers, cfg.max_iters, cfg.seed, cfg.faults, cfg.kill_server
    );

    let run_cfg = cfg.clone();
    let run = std::thread::Builder::new()
        .name("fluentps-watch-run".to_string())
        .spawn(move || fluentps_experiments::live::run_chaos(&run_cfg))
        .expect("spawn watch run");
    while !run.is_finished() {
        std::thread::sleep(std::time::Duration::from_millis(250));
        let slo = engine.slo_text();
        eprintln!(
            "[watch] {}",
            if engine.any_firing() {
                "ALERTS FIRING"
            } else {
                "healthy"
            }
        );
        for line in slo.lines().filter(|l| {
            l.starts_with("slo windows_closed")
                || l.starts_with("slo events")
                || l.starts_with("slo drop_rate")
                || l.starts_with("slo worker")
                || (l.starts_with("alert ") && l.ends_with("firing"))
        }) {
            eprintln!("[watch]   {line}");
        }
    }
    let r = run.join().expect("watch run thread");
    // The cluster's shutdown finalized the engine; this is the run's
    // deterministic closing state.
    print!("{}", engine.slo_text());
    if let Some(alerts) = r.alerts.as_deref() {
        if !alerts.is_empty() {
            println!("{}", report::alert_section(alerts).render());
        }
    }
    print_chaos_result(&cfg, &r);
}

/// `repro waterfall`: a chaos run with its local trace kept, assembled
/// into exact per-request causal waterfalls (`fluentps_obs::waterfall`).
/// Prints deterministic `waterfall-` lines for CI, the top-N slowest
/// requests as aligned text waterfalls, and the per-stage p50/p99 table;
/// exits non-zero on a balance or gapless violation.
fn run_waterfall_cmd(args: &[String]) {
    use fluentps_obs::waterfall;

    let mut top = 5usize;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--top" {
            i += 1;
            top = parse_arg(args.get(i), "--top N");
        } else {
            rest.push(args[i].clone());
        }
        i += 1;
    }
    let mut cfg = fluentps_experiments::live::ChaosConfig::default();
    parse_chaos_args(&rest, &mut cfg, &mut None, false);
    cfg.keep_trace = true;
    eprintln!(
        "[repro] waterfall: {}w x {}s, {} iters, seed {}, faults {}, kill {:?}, top {}",
        cfg.num_workers, cfg.num_servers, cfg.max_iters, cfg.seed, cfg.faults, cfg.kill_server, top
    );

    let r = fluentps_experiments::live::run_chaos(&cfg);
    let trace = r
        .trace
        .as_ref()
        .expect("keep_trace retains the local trace");
    let set = waterfall::assemble(trace);
    // Retain everything: the repro surface is for offline inspection, and
    // an all-retained set is a pure function of the seed (the tail sampler
    // proper is exercised by the live `/waterfall?top=` endpoint).
    let sampled = waterfall::tail_sample(&set, 1.0);

    for w in &sampled.retained {
        println!("{}", w.stable_line());
    }
    println!(
        "waterfall-balance observed={} retained={} sampled_out={} unstamped={} dropped={}",
        sampled.observed,
        sampled.retained.len(),
        sampled.sampled_out,
        set.unstamped_events,
        trace.dropped
    );
    let balance_ok = match sampled.balance() {
        Ok(()) => true,
        Err(e) => {
            eprintln!("[repro] {e}");
            false
        }
    };
    let mut gapless_ok = true;
    for w in &sampled.retained {
        if let Err(e) = w.check_gapless() {
            eprintln!("[repro] gapless violation: {e}");
            gapless_ok = false;
        }
    }
    println!(
        "waterfall-gapless {}",
        if gapless_ok { "ok" } else { "FAILED" }
    );

    // Wall-clock output below this point: aligned waterfalls for the
    // slowest requests, then the per-stage transition latency table.
    let slowest = set.slowest(top);
    print!("{}", waterfall::render_text(&slowest));
    println!(
        "{:<42} {:>7} {:>9} {:>9} {:>9}",
        "stage transition", "count", "p50_us", "p99_us", "max_us"
    );
    for (name, h) in waterfall::stage_table(&sampled.retained) {
        println!(
            "{name:<42} {:>7} {:>9} {:>9} {:>9}",
            h.count(),
            h.quantile_upper(0.5),
            h.quantile_upper(0.99),
            h.max()
        );
    }
    // The exemplar-bearing histograms the live `/waterfall` endpoint
    // refreshes into `/metrics`, rendered once for the log.
    let registry = fluentps_obs::MetricsRegistry::new();
    waterfall::export_metrics(&registry, &sampled.retained);
    for line in registry.render_text().lines() {
        eprintln!("[repro] {line}");
    }

    print_chaos_result(&cfg, &r);
    if !(balance_ok && gapless_ok) {
        std::process::exit(1);
    }
}

fn run_figures(args: &[String]) {
    let mut which: Vec<String> = Vec::new();
    let mut full = false;
    let mut csv_dir: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut metrics_addr: Option<std::net::SocketAddr> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => full = true,
            "--csv" => {
                i += 1;
                csv_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--trace" => {
                i += 1;
                trace_out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--metrics-addr" => {
                i += 1;
                let raw = args.get(i).cloned().unwrap_or_else(|| usage());
                metrics_addr = Some(raw.parse().unwrap_or_else(|e| {
                    eprintln!("[repro] bad --metrics-addr {raw:?}: {e}");
                    std::process::exit(2);
                }));
            }
            name => which.push(name.to_string()),
        }
        i += 1;
    }
    if let Some(path) = &trace_out {
        run_traced(path, full, metrics_addr);
    }
    if which.is_empty() {
        if trace_out.is_some() {
            return;
        }
        usage();
    }
    let scale = Scale { full };
    let all = which.iter().any(|w| w == "all");
    let wanted: Vec<&Figure> = FIGURES
        .iter()
        .filter(|(name, _)| all || which.iter().any(|w| w == name))
        .collect();
    if wanted.is_empty() {
        usage();
    }
    let tables = run_concurrently(&wanted, scale);

    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(&dir).expect("create csv dir");
        for (i, t) in tables.iter().enumerate() {
            let path = format!("{dir}/table_{i:02}.csv");
            let mut f = std::fs::File::create(&path).expect("create csv file");
            f.write_all(t.to_csv().as_bytes()).expect("write csv");
            eprintln!("[repro] wrote {path}");
        }
    }
}

/// A figure or table `repro` can regenerate: its name on the command line
/// and the function that computes its tables.
type Figure = (&'static str, fn(Scale) -> Vec<Table>);

/// Every figure, in the order its tables are printed and written.
const FIGURES: [Figure; 13] = [
    ("fig1", figures::fig1::run_figure),
    ("fig3", |_| figures::fig3::run_figure()),
    ("fig6", figures::fig6::run_figure),
    ("fig7", figures::fig7::run_figure),
    ("fig8", figures::fig8::run_figure),
    ("fig9", figures::fig9::run_figure),
    ("fig10", |scale| figures::fig10::run_figure(scale, false)),
    ("fig11", |scale| figures::fig10::run_figure(scale, true)),
    ("table4", figures::table4::run_figure),
    ("ablation-eps", figures::ablations::eps_chunk_sweep),
    ("ablation-sched", figures::ablations::scheduler_cost_sweep),
    (
        "ablation-filter",
        figures::ablations::significance_filter_sweep,
    ),
    ("ablation-stragglers", figures::ablations::straggler_sweep),
];

/// The figure that takes longest (about half of `repro all`), started first
/// so the others fill the remaining threads around it.
const LARGEST: &str = "table4";

/// Run `figs` on one thread per available CPU, [`LARGEST`] first and the
/// rest in order, and print each one's tables as soon as every figure
/// before it in `figs` has printed: stdout is the same as running them one
/// after another. Each figure is a pure function of `scale`, so running
/// them side by side changes no number. Returns the tables in print order.
fn run_concurrently(figs: &[&Figure], scale: Scale) -> Vec<Table> {
    let mut order: Vec<usize> = (0..figs.len()).collect();
    order.sort_by_key(|&i| figs[i].0 != LARGEST);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Vec<Table>)>();
    let work = |tx: std::sync::mpsc::Sender<(usize, Vec<Table>)>| {
        while let Some(&i) = order.get(next.fetch_add(1, std::sync::atomic::Ordering::Relaxed)) {
            let (name, run) = figs[i];
            eprintln!(
                "[repro] running {name} ({} scale)...",
                if scale.full { "full" } else { "quick" }
            );
            let start = std::time::Instant::now();
            let out = run(scale);
            eprintln!(
                "[repro] {name} done in {:.1}s",
                start.elapsed().as_secs_f64()
            );
            if tx.send((i, out)).is_err() {
                return;
            }
        }
    };
    std::thread::scope(|s| {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut started = 0;
        for _ in 0..threads.min(figs.len()) {
            let tx = tx.clone();
            if std::thread::Builder::new()
                .spawn_scoped(s, move || work(tx))
                .is_ok()
            {
                started += 1;
            }
        }
        // With no thread to run them, the figures run here before printing.
        if started == 0 {
            work(tx.clone());
        }
        drop(tx);
        let mut done: Vec<Option<Vec<Table>>> = vec![None; figs.len()];
        let mut tables = Vec::new();
        let mut printed = 0;
        for (i, out) in rx {
            done[i] = Some(out);
            while let Some(out) = done.get_mut(printed).and_then(Option::take) {
                for t in &out {
                    println!("{}", t.render());
                }
                tables.extend(out);
                printed += 1;
            }
        }
        tables
    })
}

/// Run the traced demo, verify the trace against the shard statistics, and
/// write the export next to a printed summary. With `metrics_addr` the
/// introspection endpoint serves `/metrics` and `/trace` during the run.
fn run_traced(path: &str, full: bool, metrics_addr: Option<std::net::SocketAddr>) {
    eprintln!(
        "[repro] tracing a FluentPS demo run ({} scale)...",
        if full { "full" } else { "quick" }
    );
    let mut cfg = tracerun::demo_config(full);
    cfg.metrics_addr = metrics_addr;
    if let Some(addr) = metrics_addr {
        eprintln!("[repro] serving /metrics, /healthz and /trace on http://{addr}/");
    }
    let r = fluentps_experiments::driver::run(&cfg);
    let trace = r.trace.as_ref().expect("traced run returns a trace");
    if let Err(e) = report::trace_reconciles(trace, &r.stats) {
        eprintln!("[repro] trace does NOT reconcile with shard stats: {e}");
        std::process::exit(1);
    }
    let rendered = tracerun::render_for_path(path, trace);
    std::fs::write(path, rendered).expect("write trace file");
    println!("{}", report::trace_section(trace, &r.stats).render());
    eprintln!(
        "[repro] wrote {path} ({} events, {} dropped from ring buffers)",
        trace.events.len(),
        trace.dropped
    );
}

/// `repro analyze FILE`: parse a JSONL trace and print the analytics report.
fn run_analyze(args: &[String]) {
    let mut path: Option<String> = None;
    let mut markdown = false;
    let mut analytical: Option<Box<dyn Fn(u64) -> f64>> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--md" => markdown = true,
            "--ssp" => {
                i += 1;
                let s: u64 = parse_arg(args.get(i), "--ssp S");
                analytical = Some(Box::new(move |k| if k >= s { 1.0 } else { 0.0 }));
            }
            "--pssp-const" => {
                let s: u64 = parse_arg(args.get(i + 1), "--pssp-const S C");
                let c: f64 = parse_arg(args.get(i + 2), "--pssp-const S C");
                i += 2;
                analytical = Some(Box::new(move |k| pssp::constant_probability(c, s, k)));
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("[repro] unknown analyze argument {other:?}");
                usage();
            }
        }
        i += 1;
    }
    let path = path.unwrap_or_else(|| usage());
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("[repro] cannot read {path}: {e}");
        std::process::exit(1);
    });
    let trace = analyze::parse_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("[repro] {path} is not a JSONL trace: {e}");
        std::process::exit(1);
    });
    if trace.events.is_empty() {
        eprintln!("[repro] {path} holds no events — nothing to analyze");
        std::process::exit(1);
    }
    let (a, phases) = analyze::analyze_phases(&trace);
    for t in report::analysis_sections(&a, &phases, analytical.as_deref()) {
        if markdown {
            println!("{}", t.to_markdown());
        } else {
            println!("{}", t.render());
        }
    }
    let straggler = a
        .straggler()
        .map(|w| format!("worker {} ({} iters)", w.worker, w.iterations))
        .unwrap_or_else(|| "none".to_string());
    eprintln!(
        "[repro] analyzed {} events ({} dropped) over {:.3}s: straggler {straggler}, \
         max granted staleness {}, critical path {:.6}s, {} wire receives unmatched",
        trace.events.len(),
        a.dropped,
        a.span.1 - a.span.0,
        a.max_granted_staleness()
            .map(|s| s.to_string())
            .unwrap_or_else(|| "—".to_string()),
        a.critical_path_secs(),
        a.unmatched_recvs,
    );
}

/// `repro validate-json FILE`: check the file (or each line of a `.jsonl`
/// file) parses under the in-tree JSON validator.
fn run_validate_json(args: &[String]) {
    let path = args.first().cloned().unwrap_or_else(|| usage());
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("[repro] cannot read {path}: {e}");
        std::process::exit(1);
    });
    if path.ends_with(".jsonl") {
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            if let Err(e) = fluentps_obs::json::validate(line) {
                eprintln!("[repro] {path}:{} invalid JSON: {e}", n + 1);
                std::process::exit(1);
            }
        }
    } else if let Err(e) = fluentps_obs::json::validate(&text) {
        eprintln!("[repro] {path} invalid JSON: {e}");
        std::process::exit(1);
    }
    eprintln!("[repro] {path} is valid JSON");
}

fn parse_arg<T: std::str::FromStr>(arg: Option<&String>, what: &str) -> T
where
    T::Err: std::fmt::Display,
{
    let raw = arg.cloned().unwrap_or_else(|| {
        eprintln!("[repro] missing value for {what}");
        std::process::exit(2);
    });
    raw.parse().unwrap_or_else(|e| {
        eprintln!("[repro] bad value {raw:?} for {what}: {e}");
        std::process::exit(2);
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: repro <fig1|fig3|fig6|fig7|fig8|fig9|fig10|fig11|table4|ablation-eps|ablation-sched|ablation-filter|ablation-stragglers|all> [--full] [--csv DIR] [--trace FILE] [--metrics-addr ADDR]\n       repro analyze FILE [--md] [--ssp S | --pssp-const S C]\n       repro validate-json FILE\n       repro chaos [--seed N] [--workers N] [--servers N] [--iters N] [--staleness S] [--faults N] [--kill M@V] [--supervisors N] [--kill-supervisor K@V]... [--metrics-addr ADDR]\n       repro collect FILE [chaos flags] [--ring N]\n       repro watch [chaos flags]\n       repro waterfall [chaos flags] [--top N]"
    );
    std::process::exit(2);
}
