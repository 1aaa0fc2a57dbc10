//! One fresh-cluster repeat of live training: real gradients, real threads,
//! and for the TCP engines real loopback sockets.
//!
//! Closed loop: a worker thread issues iteration `i + 1`'s `spush` only
//! after iteration `i`'s `spull_wait` has returned. Every layer boundary is
//! timestamped from here, outside the program; with tracing on the same
//! timestamps are also kept as spans.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use fluentps_core::dpr::DprPolicy;
use fluentps_core::engine::{Cluster, EngineConfig};
use fluentps_core::recovery::{RecoveryConfig, ResilientTcpCluster};
use fluentps_core::stats::ShardStats;
use fluentps_core::tcp_engine::TcpCluster;
use fluentps_core::worker::{RetryPolicy, WorkerClient};
use fluentps_ml::data::BatchSampler;
use fluentps_ml::models::Model;
use fluentps_ml::optim::{Optimizer, Sgd};
use fluentps_ml::ParamMap;
use fluentps_obs::{EventKind, TraceCollector};
use fluentps_transport::{Mailbox, Postman};

use crate::procfs;
use crate::reference::{Reference, EVERY};
use crate::spans::{Span, SpanBuf};
use crate::workload::{
    build_task, delay_schedule, derive_seed, Engine, Task, Workload, LEARNING_RATE,
};

/// What one worker thread measured. All `*_ns` vectors have one entry per
/// completed iteration.
pub struct WorkerLog {
    pub worker: u32,
    /// Compute start → `spull_wait` return.
    pub iter_ns: Vec<u64>,
    /// Compute start → `spush` call (batch, gradients, optimizer and any
    /// injected delay).
    pub compute_ns: Vec<u64>,
    pub spush_ns: Vec<u64>,
    pub spull_wait_ns: Vec<u64>,
    /// The part of `compute_ns` spent asleep in the injected delay.
    pub asleep_ns: Vec<u64>,
    /// `progress + 1 − PullReport::min_version`, 0 for a fully fresh pull.
    pub staleness: Vec<u64>,
    /// Pulls granted although `progress < min_version + s` did not hold.
    pub predicate_violations: u64,
    /// `spush`/`spull_wait` calls that returned `Ok`.
    pub ops_ok: u64,
    /// Reference samples (`reference.rs`): one before every `EVERY`-th
    /// iteration and one after the last, outside the timed iterations.
    pub ref_ns: Vec<f64>,
    pub spans: SpanBuf,
    pub params: ParamMap,
}

/// Totals of the recovery-related trace events of a traced resilient
/// repeat.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryCounts {
    pub retries: u64,
    pub connections_lost: u64,
    pub checkpoints: u64,
}

/// Raw outcome of one repeat.
pub struct Repeat {
    /// Whether the worker loops kept spans.
    pub traced: bool,
    /// Dataset generation, model init, slicing and cluster launch, until
    /// every worker client is ready to start iteration 0.
    pub setup_s: f64,
    pub workers: Vec<WorkerLog>,
    /// Per-shard statistics, index = server id.
    pub stats: Vec<ShardStats>,
    /// Test accuracy of worker 0's final parameters.
    pub accuracy: f64,
    /// Servers the supervisor still considers dead (resilient engine only).
    pub dead_at_end: usize,
    /// Set on traced resilient repeats.
    pub recovery: Option<RecoveryCounts>,
    /// `VmHWM` of the process once this repeat's cluster has shut down.
    pub peak_rss_mib: f64,
    /// Share of the repeat's CPU time (elapsed time on every CPU) during
    /// which the host ran something else on this guest's CPUs.
    pub steal_share: f64,
}

/// Run one repeat of `w`. With `traced` the worker loops keep spans, and
/// the resilient engine additionally records into a `TraceCollector`
/// attached through its public launch argument.
pub fn run_repeat(w: &Workload, seed: u64, traced: bool) -> Result<Repeat, String> {
    let steal_before = procfs::steal_ticks()?;
    let setup_start = Instant::now();
    let task = build_task(w, seed);
    let cfg = EngineConfig {
        num_workers: w.workers,
        num_servers: w.servers,
        model: w.sync,
        policy: DprPolicy::LazyExecution,
        seed: derive_seed(seed, 3),
        ..EngineConfig::default()
    };
    let launch_err = |e| format!("{}: cluster launch failed: {e}", w.name);
    let mut recovery = None;
    let (driven, dead_at_end) = match w.engine {
        Engine::Inproc => {
            let (cluster, clients) = Cluster::launch(cfg, task.map.clone(), &task.init);
            let d = drive(w, &task, clients, seed, traced, setup_start, || {
                cluster.shutdown()
            });
            (d, 0)
        }
        Engine::Tcp => {
            let (cluster, clients) =
                TcpCluster::launch(cfg, task.map.clone(), &task.init).map_err(launch_err)?;
            let d = drive(w, &task, clients, seed, traced, setup_start, || {
                cluster.shutdown()
            });
            (d, 0)
        }
        Engine::Resilient => {
            let collector = traced.then(|| TraceCollector::wall(1 << 16));
            let (cluster, clients) = ResilientTcpCluster::launch(
                cfg,
                steady_recovery_config(),
                task.map.clone(),
                &task.init,
                collector.as_ref(),
            )
            .map_err(launch_err)?;
            let mut dead = 0;
            let d = drive(w, &task, clients, seed, traced, setup_start, || {
                dead = cluster.health().dead_count();
                cluster.shutdown()
            });
            recovery = collector.map(|c| {
                let trace = c.snapshot();
                RecoveryCounts {
                    retries: trace.count(EventKind::RetryScheduled),
                    connections_lost: trace.count(EventKind::ConnectionLost),
                    checkpoints: trace.count(EventKind::CheckpointCaptured),
                }
            });
            (d, dead)
        }
    };
    let stolen = procfs::steal_ticks()? - steal_before;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_ticks = setup_start.elapsed().as_secs_f64() * procfs::TICKS_PER_SECOND * cpus as f64;
    let steal_share = stolen as f64 / cpu_ticks;
    let accuracy = f64::from(task.model.accuracy(&driven.workers[0].params, &task.test));
    Ok(Repeat {
        traced,
        setup_s: driven.setup_s,
        workers: driven.workers,
        stats: driven.stats,
        accuracy,
        dead_at_end,
        recovery,
        peak_rss_mib: procfs::peak_rss_mib()?,
        steal_share,
    })
}

/// Fault-free settings of the resilient engine: one supervisor, heartbeats
/// on, a checkpoint on every `V_train` advance, and timeouts so generous
/// that a clean run retries nothing.
fn steady_recovery_config() -> RecoveryConfig {
    RecoveryConfig {
        checkpoint_every: 1,
        liveness_timeout: Duration::from_secs(5),
        retry: RetryPolicy {
            timeout: Duration::from_secs(10),
            max_retries: 2,
            ..RetryPolicy::default()
        },
        ..RecoveryConfig::default()
    }
}

struct Driven {
    setup_s: f64,
    workers: Vec<WorkerLog>,
    stats: Vec<ShardStats>,
}

/// What the worker threads of one repeat share.
struct Shared<'a> {
    w: &'a Workload,
    task: &'a Task,
    seed: u64,
    traced: bool,
    /// Zero of the repeat's clock.
    epoch: Instant,
    /// Workers and the main thread meet here; that instant ends set-up.
    ready: Barrier,
    /// Set by the first worker whose operation fails.
    abort: AtomicBool,
}

/// Spawn one thread per worker client, release them together once all are
/// ready, wait for them and shut the cluster down. If any operation fails
/// the remaining workers stop at their next iteration, and the early
/// shutdown drains whatever pull they block on.
fn drive<P, M>(
    w: &Workload,
    task: &Task,
    clients: Vec<WorkerClient<P, M>>,
    seed: u64,
    traced: bool,
    setup_start: Instant,
    shutdown: impl FnOnce() -> Vec<ShardStats>,
) -> Driven
where
    P: Postman,
    M: Mailbox,
{
    let shared = Shared {
        w,
        task,
        seed,
        traced,
        epoch: Instant::now(),
        ready: Barrier::new(clients.len() + 1),
        abort: AtomicBool::new(false),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|client| scope.spawn(|| worker_loop(&shared, client)))
            .collect();
        shared.ready.wait();
        let setup_s = setup_start.elapsed().as_secs_f64();
        while handles.iter().any(|h| !h.is_finished()) && !shared.abort.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = shutdown();
        let workers = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        Driven {
            setup_s,
            workers,
            stats,
        }
    })
}

fn worker_loop<P, M>(shared: &Shared, mut client: WorkerClient<P, M>) -> WorkerLog
where
    P: Postman,
    M: Mailbox,
{
    let Shared {
        w,
        task,
        seed,
        traced,
        epoch,
        ref ready,
        ref abort,
    } = *shared;
    let worker = client.worker_id();
    let iters = w.iters as usize;
    let mut params = task.init.clone();
    let mut opt = Sgd::new(LEARNING_RATE, 0.9, 0.0);
    let mut sampler = BatchSampler::new(
        task.train.partition(worker, w.workers),
        w.batch,
        derive_seed(seed, 200 + u64::from(worker)),
    );
    let delayed = delay_schedule(w, seed, worker);
    let delay = w.delay.map_or(Duration::ZERO, |(_, d)| d);
    let mut log = WorkerLog {
        worker,
        iter_ns: Vec::with_capacity(iters),
        compute_ns: Vec::with_capacity(iters),
        spush_ns: Vec::with_capacity(iters),
        spull_wait_ns: Vec::with_capacity(iters),
        asleep_ns: Vec::with_capacity(iters),
        staleness: Vec::with_capacity(iters),
        predicate_violations: 0,
        ops_ok: 0,
        ref_ns: Vec::with_capacity(iters / EVERY + 2),
        spans: if traced {
            SpanBuf::with_capacity(iters * 7)
        } else {
            SpanBuf::disabled()
        },
        params: ParamMap::new(),
    };
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let mut reference = Reference::new();
    ready.wait();
    for i in 0..w.iters {
        if abort.load(Ordering::SeqCst) {
            break;
        }
        if i as usize % EVERY == 0 {
            log.ref_ns.push(reference.sample());
        }
        let t_start = Instant::now();
        let batch = task.train.batch(&sampler.next_indices());
        let t_batch = Instant::now();
        let (_, grads) = task.model.loss_and_grad(&params, &batch);
        let t_grad = Instant::now();
        let deltas = opt.deltas(&params, &grads);
        let t_opt = Instant::now();
        if delayed[i as usize] {
            std::thread::sleep(delay);
        }
        let t_push = Instant::now();
        let pushed = client.spush(i, &deltas);
        let t_pull = Instant::now();
        if pushed.is_err() {
            abort.store(true, Ordering::SeqCst);
            break;
        }
        log.ops_ok += 1;
        let pulled = client.spull_wait(i, &mut params);
        let t_end = Instant::now();
        let Ok(report) = pulled else {
            abort.store(true, Ordering::SeqCst);
            break;
        };
        log.ops_ok += 1;
        // The strict pull predicate of condition.rs; a response-less report
        // (min_version = u64::MAX) cannot occur with every server active.
        if i >= report.min_version.saturating_add(w.staleness()) {
            log.predicate_violations += 1;
        }
        log.staleness
            .push((i + 1).saturating_sub(report.min_version));
        log.iter_ns.push(ns(t_end) - ns(t_start));
        log.compute_ns.push(ns(t_push) - ns(t_start));
        log.spush_ns.push(ns(t_pull) - ns(t_push));
        log.spull_wait_ns.push(ns(t_end) - ns(t_pull));
        log.asleep_ns.push(if delayed[i as usize] {
            ns(t_push) - ns(t_opt)
        } else {
            0
        });
        let id = u64::from(worker) << 32 | i;
        let root = log.spans.push(Span {
            name: "iter",
            start_ns: ns(t_start),
            end_ns: ns(t_end),
            id,
            parent: None,
        });
        if root.is_some() {
            let mut child = |name, from: Instant, to: Instant| {
                log.spans.push(Span {
                    name,
                    start_ns: ns(from),
                    end_ns: ns(to),
                    id,
                    parent: root,
                });
            };
            child("ml.batch", t_start, t_batch);
            child("ml.loss_and_grad", t_batch, t_grad);
            child("ml.sgd_deltas", t_grad, t_opt);
            if delayed[i as usize] {
                child("inject.delay", t_opt, t_push);
            }
            child("worker.spush", t_push, t_pull);
            child("worker.spull_wait", t_pull, t_end);
        }
    }
    log.ref_ns.push(reference.sample());
    log.params = params;
    log
}
