//! Live training: real threads, real sockets and wall-clock time instead
//! of the discrete-event simulator.
//!
//! The simulator answers "what would happen on a cluster with these compute
//! and network characteristics"; this module answers "does the actual
//! concurrent implementation behave" — same models, same synchronization
//! code. `SoftmaxJob` and `train` are the launch-independent half of
//! [`run_chaos`], which trains on the fault-tolerant TCP engine.

use std::time::{Duration, Instant};

use fluentps_core::condition::SyncModel;
use fluentps_core::dpr::DprPolicy;
use fluentps_core::engine::EngineConfig;
use fluentps_core::eps::{EpsSlicer, ParamSpec, SliceMap, Slicer};
use fluentps_core::launch::Observability;
use fluentps_core::recovery::{RecoveryConfig, ResilientTcpCluster};
use fluentps_core::stats::ShardStats;
use fluentps_core::worker::{PullReport, RetryPolicy, WorkerClient};
use fluentps_ml::data::{synthetic, BatchSampler, Dataset, SyntheticSpec};
use fluentps_ml::models::{Model, SoftmaxRegression};
use fluentps_ml::optim::{Optimizer, Sgd};
use fluentps_ml::ParamMap;
use fluentps_obs::{AlertTransition, HealthEngine, StreamConfig, TraceCollector};
use fluentps_transport::fault::FaultPlan;
use fluentps_transport::{Mailbox, Postman};
use fluentps_util::fnv::{fnv1a_wide, FNV_OFFSET};

/// The job every live run here trains: softmax regression on a 16-feature,
/// 4-class synthetic set, sliced over the servers in chunks small enough
/// that every server owns slices (a kill target with an empty shard would
/// never reach its `V_train` threshold).
pub(crate) struct SoftmaxJob {
    train: Dataset,
    test: Dataset,
    model: SoftmaxRegression,
    seed: u64,
    /// Initial parameters (`w_0`).
    pub(crate) init: ParamMap,
    /// Placement over the servers.
    pub(crate) map: SliceMap,
}

impl SoftmaxJob {
    /// Data, initial parameters and the workers' batch order all derive
    /// from `seed`.
    pub(crate) fn new(seed: u64, n_train: usize, n_test: usize, num_servers: u32) -> SoftmaxJob {
        let dataset = SyntheticSpec {
            dim: 16,
            classes: 4,
            n_train,
            n_test,
            margin: 3.0,
            modes: 1,
            label_noise: 0.0,
            seed,
        };
        let (train, test) = synthetic(dataset);
        let model = SoftmaxRegression {
            dim: dataset.dim,
            classes: dataset.classes,
        };
        let shapes = model.param_shapes();
        let spec = shapes.iter().map(|s| ParamSpec {
            key: s.key,
            len: s.len,
        });
        let specs: Vec<ParamSpec> = spec.collect();
        SoftmaxJob {
            train,
            test,
            seed,
            init: model.init_params(seed),
            map: EpsSlicer { max_chunk: 16 }.slice(&specs, num_servers),
            model,
        }
    }

    /// Test accuracy of `params`.
    pub(crate) fn accuracy(&self, params: &ParamMap) -> f32 {
        self.model.accuracy(params, &self.test)
    }
}

/// Train `job` for `iters` iterations on one thread per worker client,
/// whichever engine the clients belong to: each worker draws batches of 16
/// from its partition of the data, and an iteration is gradient →
/// SGD(0.25, momentum 0.9) deltas → `spush` → `spull_wait`, and
/// `granted(worker, iteration, report)` sees each completed pull.
/// Returns every worker's final parameters and the wall-clock seconds.
/// Panics if a push or pull fails.
pub(crate) fn train<P: Postman, M: Mailbox>(
    job: &SoftmaxJob,
    workers: Vec<WorkerClient<P, M>>,
    iters: u64,
    granted: impl Fn(u32, u64, PullReport) + Sync,
) -> (Vec<ParamMap>, f64) {
    let num_workers = workers.len() as u32;
    let start = Instant::now();
    let worker_loop = |mut client: WorkerClient<P, M>| {
        let n = client.worker_id();
        let mut params = job.init.clone();
        let mut opt = Sgd::new(0.25, 0.9, 0.0);
        let partition = job.train.partition(n, num_workers);
        let mut sampler = BatchSampler::new(partition, 16, job.seed.wrapping_add(500 + n as u64));
        for i in 0..iters {
            let batch = job.train.batch(&sampler.next_indices());
            let (_, grads) = job.model.loss_and_grad(&params, &batch);
            let deltas = opt.deltas(&params, &grads);
            client.spush(i, &deltas).expect("push");
            granted(n, i, client.spull_wait(i, &mut params).expect("pull"));
        }
        params
    };
    let results = fluentps_util::sync::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|client| scope.spawn(|| worker_loop(client)))
            .collect();
        let joined = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"));
        joined.collect()
    });
    (results, start.elapsed().as_secs_f64())
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

/// Run live TCP training through the fault-tolerant runtime under a seeded
/// chaos schedule. Panics (non-zero exit for the CLI) if any worker fails
/// to complete its iterations — retries, replay and server replacement are
/// expected to absorb every injected fault.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosResult {
    let job = SoftmaxJob::new(cfg.seed, 1200, 300, cfg.num_servers);
    let ecfg = EngineConfig {
        num_workers: cfg.num_workers,
        num_servers: cfg.num_servers,
        model: SyncModel::Ssp { s: cfg.staleness },
        policy: DprPolicy::LazyExecution,
        seed: cfg.seed,
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
    let map = job.map.clone();
    let (cluster, workers) = ResilientTcpCluster::launch_observed(ecfg, rcfg, map, &job.init, obs)
        .expect("launch chaos cluster");

    // The SSP contract holds through faults and recovery: a granted pull is
    // never staler than the bound allows.
    let within_bound = |n: u32, i: u64, report: PullReport| {
        assert!(
            report.min_version as i64 >= i as i64 - cfg.staleness as i64,
            "worker {n} iter {i}: granted version {} violates s={}",
            report.min_version,
            cfg.staleness
        );
    };
    let (results, wall_seconds) = train(&job, workers, cfg.max_iters, within_bound);

    let health = cluster.health();
    let dead_at_end = health.dead_count();
    let stats = cluster.shutdown();

    let mut h = FNV_OFFSET;
    for (m, s) in stats.iter().enumerate() {
        h = fnv1a_wide(h, &(m as u64).to_le_bytes());
        for v in [
            s.pushes,
            s.pulls_total,
            s.v_train_advances,
            s.dprs,
            s.dprs_released,
        ] {
            h = fnv1a_wide(h, &v.to_le_bytes());
        }
    }
    let mut keys: Vec<&u64> = results[0].keys().collect();
    keys.sort_unstable();
    for k in keys {
        h = fnv1a_wide(h, &k.to_le_bytes());
        for v in &results[0][k] {
            h = fnv1a_wide(h, &v.to_bits().to_le_bytes());
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
        accuracy: job.accuracy(&results[0]),
        wall_seconds,
        stats,
        dead_at_end,
        fingerprint: format!("{h:016x}"),
        alerts,
        alert_fingerprint,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
