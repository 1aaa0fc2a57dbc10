//! Live training: the same experiments, but on the *threaded* engine with
//! real wall-clock time instead of the discrete-event simulator.
//!
//! The simulator answers "what would happen on a cluster with these compute
//! and network characteristics"; this module answers "does the actual
//! concurrent implementation behave" — same models, same synchronization
//! code, real threads and (optionally) real sockets.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fluentps_core::api::{FluentPs, SlicerChoice};
use fluentps_core::condition::SyncModel;
use fluentps_core::dpr::DprPolicy;
use fluentps_core::engine::EngineConfig;
use fluentps_core::eps::{EpsSlicer, ParamSpec, Slicer};
use fluentps_core::launch::Observability;
use fluentps_core::recovery::{RecoveryConfig, ResilientTcpCluster};
use fluentps_core::stats::ShardStats;
use fluentps_core::worker::RetryPolicy;
use fluentps_ml::data::{synthetic, BatchSampler, SyntheticSpec};
use fluentps_ml::models::{Mlp, Model, SoftmaxRegression};
use fluentps_ml::optim::{Optimizer, Sgd};
use fluentps_ml::schedule::LrSchedule;
use fluentps_obs::{AlertTransition, HealthEngine, StreamConfig, Trace, TraceCollector};
use fluentps_transport::fault::FaultPlan;

/// Configuration of a live (threaded-engine) training run.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Synchronization model.
    pub model: SyncModel,
    /// DPR execution policy.
    pub policy: DprPolicy,
    /// Workers (threads).
    pub num_workers: u32,
    /// Servers (threads).
    pub num_servers: u32,
    /// Iterations per worker.
    pub max_iters: u64,
    /// Dataset.
    pub dataset: SyntheticSpec,
    /// `None` → softmax regression; `Some(hidden)` → MLP.
    pub hidden: Option<Vec<usize>>,
    /// Per-worker batch size.
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub lr: LrSchedule,
    /// When `Some(capacity)`, attach a wall-clock [`TraceCollector`] of
    /// that ring capacity and return the trace in
    /// [`LiveResult::trace`].
    pub trace_events: Option<usize>,
    /// When `Some(addr)`, serve `/metrics`, `/healthz` and (if tracing)
    /// `/trace` there while training runs. Bind loopback unless
    /// deliberately exposing the endpoint.
    pub metrics_addr: Option<std::net::SocketAddr>,
    /// Seed.
    pub seed: u64,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            model: SyncModel::Bsp,
            policy: DprPolicy::LazyExecution,
            num_workers: 4,
            num_servers: 2,
            max_iters: 200,
            dataset: SyntheticSpec {
                dim: 16,
                classes: 4,
                n_train: 2000,
                n_test: 500,
                margin: 3.0,
                modes: 1,
                label_noise: 0.0,
                seed: 0,
            },
            hidden: None,
            batch_size: 16,
            lr: LrSchedule::Constant(0.25),
            trace_events: None,
            metrics_addr: None,
            seed: 0,
        }
    }
}

/// Result of a live run.
#[derive(Debug, Clone)]
pub struct LiveResult {
    /// Final test accuracy (evaluated on worker 0's final parameters).
    pub accuracy: f32,
    /// Wall-clock seconds for the whole run.
    pub wall_seconds: f64,
    /// Merged shard statistics.
    pub stats: ShardStats,
    /// Event trace (when [`LiveConfig::trace_events`] was set).
    pub trace: Option<Trace>,
}

/// The health engine a run creates for its own introspection endpoint, and
/// the one `repro collect|watch` hand in: half-second windows, the last
/// eight retained, the default alert rules.
pub fn endpoint_health_engine() -> HealthEngine {
    HealthEngine::with_default_rules(StreamConfig {
        window_secs: 0.5,
        windows: 8,
    })
}

/// Run a live training job on the threaded in-process engine.
pub fn run_live(cfg: &LiveConfig) -> LiveResult {
    let (train, test) = synthetic(cfg.dataset);
    let model: Box<dyn Model> = match &cfg.hidden {
        None => Box::new(SoftmaxRegression {
            dim: cfg.dataset.dim,
            classes: cfg.dataset.classes,
        }),
        Some(hidden) => {
            let mut dims = vec![cfg.dataset.dim];
            dims.extend_from_slice(hidden);
            dims.push(cfg.dataset.classes);
            Box::new(Mlp { dims })
        }
    };
    let init = model.init_params(cfg.seed);

    let collector = cfg
        .trace_events
        .or(cfg.metrics_addr.map(|_| 1 << 16))
        .map(TraceCollector::wall);
    let obs = Observability {
        collector: collector.clone(),
        // With an endpoint up, a health engine tails the run's collector so
        // `/slo` and `/alerts` are live next to `/metrics`.
        health: cfg.metrics_addr.map(|_| endpoint_health_engine()),
        http: cfg.metrics_addr,
        ..Observability::default()
    };
    let (cluster, workers) = FluentPs::builder()
        .workers(cfg.num_workers)
        .servers(cfg.num_servers)
        .model(cfg.model)
        .policy(cfg.policy)
        .slicer(SlicerChoice::Eps { max_chunk: 4096 })
        .seed(cfg.seed)
        .observe(obs)
        .launch(&init);

    let start = Instant::now();
    let model_ref: &dyn Model = model.as_ref();
    let results: Vec<HashMap<u64, Vec<f32>>> = fluentps_util::sync::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut client| {
                let train = &train;
                let init = init.clone();
                let cfg = cfg.clone();
                scope.spawn(move || {
                    let n = client.worker_id();
                    let mut params = init;
                    let mut opt = Sgd::new(cfg.lr.lr(0), 0.9, 0.0);
                    let mut sampler = BatchSampler::new(
                        train.partition(n, cfg.num_workers),
                        cfg.batch_size,
                        cfg.seed.wrapping_add(500 + n as u64),
                    );
                    for i in 0..cfg.max_iters {
                        let batch = train.batch(&sampler.next_indices());
                        let (_, grads) = model_ref.loss_and_grad(&params, &batch);
                        opt.set_lr(cfg.lr.lr(i));
                        let deltas = opt.deltas(&params, &grads);
                        client.spush(i, &deltas).expect("push");
                        client.spull_wait(i, &mut params).expect("pull");
                    }
                    params
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect()
    });
    let wall_seconds = start.elapsed().as_secs_f64();

    let mut stats = ShardStats::default();
    for s in cluster.shutdown() {
        stats.merge(&s);
    }
    let trace = match cfg.trace_events {
        Some(_) => collector.as_ref().map(|c| c.snapshot()),
        None => None,
    };
    LiveResult {
        accuracy: model.accuracy(&results[0], &test),
        wall_seconds,
        stats,
        trace,
    }
}

/// Configuration of a chaos run: live TCP training under a seeded fault
/// schedule, optionally killing (and recovering) a server mid-training.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Workers (threads, each with its own TCP endpoint).
    pub num_workers: u32,
    /// Servers.
    pub num_servers: u32,
    /// Iterations per worker.
    pub max_iters: u64,
    /// SSP staleness bound.
    pub staleness: u64,
    /// Kill server `m` once its shard's `V_train` reaches the threshold;
    /// the supervisor replaces it from the latest checkpoint.
    pub kill_server: Option<(u32, u64)>,
    /// Supervisor replicas forming the control-plane quorum. 1 (default)
    /// is the solo fast path; 3+ survives supervisor death by election.
    pub num_supervisors: u32,
    /// Kill supervisor replica `k` once it has applied consensus index
    /// `v`. Killing the leader exercises failover; killing a quorum
    /// exercises explicit leaderless degradation on `/healthz`.
    pub kill_supervisors: Vec<(u32, u64)>,
    /// Number of seeded chaos fault rules (drops, reorder-delays,
    /// duplicates) applied to the data path. 0 = none.
    pub faults: usize,
    /// What the run reports, and where, passed through to the cluster
    /// launch. `http` serves `/metrics` and the liveness-fed `/healthz`
    /// readiness view for the duration of the run; with `http` set and no
    /// `health`, the run creates an engine itself (so `/slo` and `/alerts`
    /// always accompany `/metrics`) — pass an explicit one to watch the
    /// same alerts in-process, e.g. from `repro watch`. With `stream_to`
    /// set, every node streams its ring of `ring_capacity` events to that
    /// [`fluentps_transport::CollectorService`], which then owns the health
    /// feed (`CollectorService::attach_health`): the run itself has no
    /// merged local timeline to tap. `collector` is filled in by the run
    /// when an engine or [`ChaosConfig::keep_trace`] needs a local one.
    pub obs: Observability,
    /// Master seed: drives data, initialization, and the fault schedule.
    pub seed: u64,
    /// Keep the run's local trace and return it in
    /// [`ChaosResult::trace`], so callers (e.g. `repro waterfall`) can
    /// assemble per-request causal waterfalls offline. Forces a local
    /// [`TraceCollector`] even without a health engine; ignored when
    /// `obs.stream_to` streams events off-node instead.
    pub keep_trace: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            num_workers: 2,
            num_servers: 2,
            max_iters: 30,
            staleness: 2,
            kill_server: None,
            num_supervisors: 1,
            kill_supervisors: Vec::new(),
            faults: 0,
            obs: Observability::default(),
            seed: 0,
            keep_trace: false,
        }
    }
}

/// Result of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// Final test accuracy on worker 0's parameters.
    pub accuracy: f32,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Per-server statistics (a replaced server's incarnations merged).
    pub stats: Vec<ShardStats>,
    /// Servers still dead when the run ended (0 after a successful
    /// replacement).
    pub dead_at_end: usize,
    /// Digest of the run's *logical* outcome: per-server synchronization
    /// counters plus worker 0's final parameter bits. Single-worker runs
    /// with the same seed reproduce it bit-for-bit; CI diffs it across two
    /// runs.
    pub fingerprint: String,
    /// Firing/resolved alert transitions recorded by the health engine, in
    /// order (`None` when no engine observed the run).
    pub alerts: Option<Vec<AlertTransition>>,
    /// Digest of the *logical* alert sequence (the `dead_nodes` liveness
    /// transitions): same seed + same kill schedule reproduce it
    /// bit-for-bit. `None` when no engine observed the run.
    pub alert_fingerprint: Option<String>,
    /// The run's local trace snapshot, taken after shutdown so it is
    /// complete ([`ChaosConfig::keep_trace`]; `None` otherwise). All
    /// events share one process clock, so waterfall assembly over it
    /// needs no cross-node offset correction.
    pub trace: Option<fluentps_obs::Trace>,
}

/// FNV-1a, the fingerprint hash (stable, dependency-free).
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Run live TCP training through the fault-tolerant runtime under a seeded
/// chaos schedule. Panics (non-zero exit for the CLI) if any worker fails
/// to complete its iterations — retries, replay and server replacement are
/// expected to absorb every injected fault.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosResult {
    let dataset = SyntheticSpec {
        dim: 16,
        classes: 4,
        n_train: 1200,
        n_test: 300,
        margin: 3.0,
        modes: 1,
        label_noise: 0.0,
        seed: cfg.seed,
    };
    let (train, test) = synthetic(dataset);
    let model = SoftmaxRegression {
        dim: dataset.dim,
        classes: dataset.classes,
    };
    let init = model.init_params(cfg.seed);
    let specs: Vec<ParamSpec> = model
        .param_shapes()
        .iter()
        .map(|s| ParamSpec {
            key: s.key,
            len: s.len,
        })
        .collect();
    // Chunk small enough that every server owns slices — a kill target
    // with an empty shard would never reach its `V_train` threshold.
    let map = EpsSlicer { max_chunk: 16 }.slice(&specs, cfg.num_servers);

    let ecfg = EngineConfig {
        num_workers: cfg.num_workers,
        num_servers: cfg.num_servers,
        model: SyncModel::Ssp { s: cfg.staleness },
        policy: DprPolicy::LazyExecution,
        seed: cfg.seed,
        ..EngineConfig::default()
    };
    let rcfg = RecoveryConfig {
        heartbeat_every: Duration::from_millis(10),
        liveness_timeout: Duration::from_millis(80),
        checkpoint_every: 1,
        kill_server: cfg.kill_server,
        spawn_replacement: true,
        retry: RetryPolicy {
            timeout: Duration::from_millis(60),
            max_retries: 100,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(50),
            jitter_seed: cfg.seed ^ 0xC4A0,
            replay_depth: 32,
        },
        fault_plan: if cfg.faults > 0 {
            FaultPlan::chaos(
                cfg.seed,
                cfg.num_workers,
                cfg.num_servers,
                cfg.max_iters,
                cfg.faults,
            )
        } else {
            FaultPlan::passthrough()
        },
        num_supervisors: cfg.num_supervisors,
        kill_supervisors: cfg.kill_supervisors.clone(),
        election_timeout: Duration::from_millis(200),
        leader_lease: Duration::from_millis(100),
    };

    // Health engine: the caller's, or a fresh one whenever the run serves
    // an introspection endpoint (so `/slo` and `/alerts` always accompany
    // `/metrics`). Fed from a run-local collector unless the nodes stream
    // to a remote collector service — then that service owns the feed.
    let mut obs = cfg.obs.clone();
    obs.health = obs
        .health
        .or_else(|| obs.http.map(|_| endpoint_health_engine()));
    if obs.stream_to.is_none() && (obs.health.is_some() || cfg.keep_trace) {
        obs.collector = Some(TraceCollector::wall(obs.ring_capacity));
    }
    let (engine, local_collector) = (obs.health.clone(), obs.collector.clone());
    let (cluster, workers) = ResilientTcpCluster::launch_observed(ecfg, rcfg, map, &init, obs)
        .expect("launch chaos cluster");

    let start = Instant::now();
    let model_ref = &model;
    let results: Vec<HashMap<u64, Vec<f32>>> = fluentps_util::sync::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut client| {
                let train = &train;
                let init = init.clone();
                let cfg = cfg.clone();
                scope.spawn(move || {
                    let n = client.worker_id();
                    let mut params = init;
                    let mut opt = Sgd::new(0.25, 0.9, 0.0);
                    let mut sampler = BatchSampler::new(
                        train.partition(n, cfg.num_workers),
                        cfg.batch_size(),
                        cfg.seed.wrapping_add(500 + n as u64),
                    );
                    for i in 0..cfg.max_iters {
                        let batch = train.batch(&sampler.next_indices());
                        let (_, grads) = model_ref.loss_and_grad(&params, &batch);
                        let deltas = opt.deltas(&params, &grads);
                        client.spush(i, &deltas).expect("push under chaos");
                        let report = client
                            .spull_wait(i, &mut params)
                            .expect("pull survives chaos");
                        // The SSP contract holds through faults and
                        // recovery: a granted pull is never staler than
                        // the bound allows.
                        assert!(
                            report.min_version as i64 >= i as i64 - cfg.staleness as i64,
                            "worker {n} iter {i}: granted version {} violates s={}",
                            report.min_version,
                            cfg.staleness
                        );
                    }
                    params
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chaos worker thread"))
            .collect()
    });
    let wall_seconds = start.elapsed().as_secs_f64();

    let health = cluster.health();
    let dead_at_end = health.dead_count();
    let stats = cluster.shutdown();

    let mut h = 0u64;
    for (m, s) in stats.iter().enumerate() {
        h = fnv1a(h, &(m as u64).to_le_bytes());
        for v in [
            s.pushes,
            s.pulls_total,
            s.v_train_advances,
            s.dprs,
            s.dprs_released,
        ] {
            h = fnv1a(h, &v.to_le_bytes());
        }
    }
    let mut keys: Vec<&u64> = results[0].keys().collect();
    keys.sort_unstable();
    for k in keys {
        h = fnv1a(h, &k.to_le_bytes());
        for v in &results[0][k] {
            h = fnv1a(h, &v.to_bits().to_le_bytes());
        }
    }

    // The cluster's shutdown drained the tap and finalized the engine (for
    // run-local feeds), so the alert record is complete here.
    let alerts = engine.as_ref().map(|e| e.transitions());
    let alert_fingerprint = engine.as_ref().map(|e| format!("{:016x}", e.fingerprint()));

    // Snapshot only after shutdown, so every node's last events (replays,
    // recovery fan-outs, final acks) are in the rings.
    let trace = if cfg.keep_trace {
        local_collector.as_ref().map(|c| c.snapshot())
    } else {
        None
    };

    ChaosResult {
        accuracy: model.accuracy(&results[0], &test),
        wall_seconds,
        stats,
        dead_at_end,
        fingerprint: format!("{h:016x}"),
        alerts,
        alert_fingerprint,
        trace,
    }
}

impl ChaosConfig {
    fn batch_size(&self) -> usize {
        16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_bsp_learns() {
        let r = run_live(&LiveConfig::default());
        assert!(r.accuracy > 0.8, "live BSP accuracy {}", r.accuracy);
        assert!(r.wall_seconds > 0.0);
        assert_eq!(r.stats.pushes, 4 * 200 * 2); // workers × iters × servers
    }

    #[test]
    fn live_pssp_learns_with_fewer_waits_than_bsp() {
        let bsp = run_live(&LiveConfig::default());
        let pssp = run_live(&LiveConfig {
            model: SyncModel::PsspConst { s: 2, c: 0.3 },
            ..LiveConfig::default()
        });
        assert!(pssp.accuracy > 0.78, "live PSSP accuracy {}", pssp.accuracy);
        assert!(
            pssp.stats.dprs <= bsp.stats.dprs,
            "PSSP {} DPRs vs BSP {}",
            pssp.stats.dprs,
            bsp.stats.dprs
        );
    }

    #[test]
    fn same_seed_kill_runs_reproduce_the_alert_sequence() {
        let run = || {
            let engine = HealthEngine::with_default_rules(StreamConfig {
                window_secs: 0.25,
                windows: 8,
            });
            let cfg = ChaosConfig {
                num_workers: 1,
                num_servers: 2,
                max_iters: 16,
                kill_server: Some((0, 4)),
                obs: Observability {
                    health: Some(engine.clone()),
                    ..Observability::default()
                },
                seed: 7,
                ..ChaosConfig::default()
            };
            run_chaos(&cfg)
        };
        let ra = run();
        let rb = run();
        assert_eq!(ra.dead_at_end, 0, "replacement heals the cluster");
        let fa = ra.alert_fingerprint.as_deref().expect("engine active");
        let fb = rb.alert_fingerprint.as_deref().expect("engine active");
        // The fingerprint folds only the logical (event-driven) liveness
        // transitions, so two same-seed kill runs agree bit-for-bit even
        // though their wall-clock windows differ.
        assert_eq!(fa, fb, "logical alert sequence is deterministic");
        let alerts = ra.alerts.expect("engine active");
        let dead: Vec<_> = alerts.iter().filter(|t| t.rule == "dead_nodes").collect();
        assert!(
            dead.len() >= 2,
            "kill fires and resolves the liveness alert: {alerts:?}"
        );
        assert!(dead[0].firing && dead[0].logical, "kill raises the alert");
        assert!(
            !dead.last().unwrap().firing,
            "checkpoint replacement resolves it"
        );
    }

    #[test]
    fn live_mlp_on_multimodal_data() {
        let r = run_live(&LiveConfig {
            hidden: Some(vec![32]),
            max_iters: 300,
            dataset: SyntheticSpec {
                dim: 16,
                classes: 4,
                n_train: 2500,
                n_test: 500,
                margin: 4.0,
                modes: 2,
                label_noise: 0.0,
                seed: 9,
            },
            lr: LrSchedule::Constant(0.2),
            ..LiveConfig::default()
        });
        assert!(r.accuracy > 0.8, "live MLP accuracy {}", r.accuracy);
    }
}
