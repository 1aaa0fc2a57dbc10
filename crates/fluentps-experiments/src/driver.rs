//! The simulation driver: a complete data-parallel training job over the
//! discrete-event fabric.
//!
//! One event loop owns everything — worker states (with real models and
//! optimizers), the M servers (each the live engines' Algorithm-1 step,
//! [`ShardServer::handle`], with the live launch's PSSP draw stream), the
//! network topology, and the scheduler when the engine under test is
//! PS-Lite. Each worker's `wait(sPull)` is the live worker's step too, a
//! [`WorkerRound`]: its pulls go on the simulated links and every reply is
//! stepped through it. Traced, requests carry the live workers' causal ids
//! ([`request_id`]), so every wire event pairs exactly. What stays here
//! (DESIGN.md §18): the pushes, whose payloads are virtual in timing runs
//! and which the significance filter may leave empty, and PS-Lite's wait
//! for acks and the scheduler's release. Gradients are computed with the
//! parameter versions the synchronization model actually delivered, so
//! staleness affects accuracy through the true mechanism; all timing comes
//! from the compute/network models, so "who waits on whom" matches the
//! architecture under test.

use fluentps_baseline::pslite::{PsLiteMode, PsLiteScheduler};
use fluentps_baseline::ssptable::SspTableModel;
use fluentps_core::condition::SyncModel;
use fluentps_core::dpr::DprPolicy;
use fluentps_core::eps::{DefaultSlicer, EpsSlicer, ParamSpec, SliceMap, Slicer};
use fluentps_core::launch;
use fluentps_core::serve::{wrap, ShardServer};
use fluentps_core::server::{ServerShard, ShardConfig};
use fluentps_core::stats::ShardStats;
use fluentps_core::worker::{request_id, wire_args, Heard, Router, WorkerRound};
use fluentps_ml::data::{synthetic, BatchSampler, Dataset, SyntheticSpec};
use fluentps_ml::metrics::{Curve, CurvePoint};
use fluentps_ml::models::{Mlp, Model, ResidualMlp, SoftmaxRegression};
use fluentps_ml::optim::{Deltas, Optimizer, Sgd};
use fluentps_ml::schedule::LrSchedule;
use fluentps_ml::ParamMap;
use fluentps_obs::{ClockSource, EventKind, Trace, TraceCollector, Tracer, VirtualClock};
use fluentps_simnet::compute::{ComputeModel, StragglerSpec, WorkerCompute};
use fluentps_simnet::event::EventQueue;
use fluentps_simnet::net::LinkModel;
use fluentps_simnet::topology::{ClusterTopology, Duplex};
use fluentps_transport::{codec, frame, CausalCtx, KvPairs, Message, NodeId};

/// Which parameter-server architecture handles synchronization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineKind {
    /// FluentPS: per-server conditions, overlap synchronization.
    FluentPs {
        /// Synchronization model on every shard.
        model: SyncModel,
        /// DPR execution policy.
        policy: DprPolicy,
    },
    /// PS-Lite: centralized scheduler, non-overlap synchronization.
    PsLite {
        /// Scheduler mode.
        mode: PsLiteMode,
    },
    /// Bösen/SSPtable: SSP through client caches whose consistency view
    /// degrades with worker count (effective staleness grows with N).
    SspTable {
        /// Nominal staleness threshold.
        s: u64,
    },
}

/// Parameter placement strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlicerKind {
    /// PS-Lite default: contiguous ranges by key count (imbalanced bytes).
    Default,
    /// Elastic Parameter Slicing with the given chunk bound.
    Eps {
        /// Maximum values per chunk.
        max_chunk: usize,
    },
}

/// What the workers train.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelKind {
    /// No real training: gradients are empty, only synchronization timing
    /// and DPR counts are measured. `params` is the (virtual) parameter
    /// inventory whose byte sizes drive the network model.
    TimingOnly {
        /// Virtual parameter inventory.
        params: Vec<ParamSpec>,
    },
    /// Softmax regression on the configured dataset.
    Softmax,
    /// The AlexNet-like MLP.
    Mlp {
        /// Hidden layer widths (input/classes come from the dataset).
        hidden: Vec<usize>,
    },
    /// The ResNet-56-like residual MLP.
    Residual {
        /// Hidden width.
        width: usize,
        /// Residual blocks.
        blocks: usize,
    },
}

/// SGD momentum of every worker's optimizer.
const MOMENTUM: f32 = 0.9;

/// Per-worker minibatch size of every training run.
const BATCH_SIZE: usize = 16;

/// Server CPU seconds consumed by each *deferred* pull (DPR buffer scan,
/// callback registration and the later release pass on the single-threaded
/// server). This is the per-synchronization overhead that makes the soft
/// barrier's high DPR frequency expensive.
const SERVER_DPR_COST: f64 = 8e-3;

/// Fixed part of the per-message processing cost at PS-Lite's centralized
/// scheduler, seconds ([`DriverConfig::sched_cost_per_worker`] is the part
/// that grows with N).
const SCHED_COST_BASE: f64 = 1e-3;

/// Full experiment configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Engine under test.
    pub engine: EngineKind,
    /// Number of workers.
    pub num_workers: u32,
    /// Number of servers.
    pub num_servers: u32,
    /// Placement strategy.
    pub slicer: SlicerKind,
    /// Iterations per worker.
    pub max_iters: u64,
    /// Model.
    pub model: ModelKind,
    /// Dataset (required unless `TimingOnly`).
    pub dataset: Option<SyntheticSpec>,
    /// Learning-rate schedule.
    pub lr: LrSchedule,
    /// Nominal per-iteration compute seconds (at data-parallel degree 1; the
    /// driver divides by N to model the shrinking per-worker batch).
    pub compute_base: f64,
    /// Compute jitter fraction.
    pub compute_jitter: f64,
    /// Straggler behaviour.
    pub stragglers: StragglerSpec,
    /// Network link model.
    pub link: LinkModel,
    /// Per-worker component of the per-message processing cost at PS-Lite's
    /// centralized scheduler: `cost = SCHED_COST_BASE +
    /// sched_cost_per_worker · N` (the barrier scan is O(N) per report in
    /// PS-Lite's progress tracker). The scheduler is single-threaded, so
    /// these costs *serialize* — this is the "management overhead of the
    /// centralized structure" the paper offloads onto the servers. Every
    /// progress report and every barrier release passes through this queue.
    /// Ignored for FluentPS/SSPtable.
    pub sched_cost_per_worker: f64,
    /// Warm-start parameters: when set, shards are initialized from these
    /// values instead of the model's seeded initialization — the elasticity
    /// path (checkpoint → rebalance → resume) and staged training both use
    /// this.
    pub initial_params: Option<fluentps_ml::ParamMap>,
    /// Optional per-server synchronization models (Figure 2: server 1 runs
    /// SSP while server 2 runs PSSP and server M drops stragglers). Length
    /// must equal `num_servers`; overrides the engine's single model for
    /// FluentPS runs.
    pub per_server_models: Option<Vec<SyncModel>>,
    /// Fail-stop injection: `(worker, iteration)` — the worker crashes
    /// after computing that iteration's gradients and never pushes or pulls
    /// again. Under BSP/SSP the cluster stalls at the corresponding
    /// `V_train`; under drop-stragglers (`N_t < N`) training completes.
    pub fail_worker: Option<(u32, u64)>,
    /// Optional Gaia-style significance filter on the workers:
    /// `(threshold, max_hold)`. Insignificant updates accumulate locally and
    /// only cross the wire once their aggregate significance crosses the
    /// threshold (or `max_hold` iterations passed). Servers still receive an
    /// empty progress-bearing push every iteration so synchronization is
    /// unaffected; only gradient traffic shrinks.
    pub significance_filter: Option<(f64, u32)>,
    /// Multiplier on all wire byte sizes. The synthetic training models are
    /// deliberately small so real gradient math stays cheap; this factor
    /// scales their *network footprint* up to the real network's parameter
    /// count (e.g. ×65 maps the 13k-parameter residual stand-in to
    /// ResNet-56's 0.85M parameters ≈ 3.4 MB per transfer).
    pub wire_bytes_scale: f64,
    /// Evaluate the model every this many *global* iterations (0 = only at
    /// the end). Ignored for `TimingOnly`.
    pub eval_every: u64,
    /// When `Some(capacity)`, record a typed event trace of the run —
    /// timestamped by the *virtual* clock — into per-actor ring buffers of
    /// that capacity, returned as [`RunResult::trace`]. `None` (default)
    /// keeps the hot path trace-free.
    pub trace_events: Option<usize>,
    /// When `Some(addr)`, serve a live introspection endpoint there for
    /// the duration of the run: `/metrics` (Prometheus text), `/healthz`,
    /// and — when [`DriverConfig::trace_events`] is also set — `/trace`
    /// (JSONL tail). Bind loopback unless deliberately exposing it.
    pub metrics_addr: Option<std::net::SocketAddr>,
    /// Master seed.
    pub seed: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            engine: EngineKind::FluentPs {
                model: SyncModel::Bsp,
                policy: DprPolicy::LazyExecution,
            },
            num_workers: 4,
            num_servers: 2,
            slicer: SlicerKind::Eps { max_chunk: 4096 },
            max_iters: 100,
            model: ModelKind::Softmax,
            dataset: Some(SyntheticSpec::c10_like(1)),
            lr: LrSchedule::Constant(0.2),
            compute_base: 0.4,
            compute_jitter: 0.2,
            stragglers: StragglerSpec::random_slowdowns(),
            link: LinkModel::gbe(),
            sched_cost_per_worker: 2.5e-3,
            initial_params: None,
            per_server_models: None,
            fail_worker: None,
            significance_filter: None,
            wire_bytes_scale: 1.0,
            eval_every: 0,
            trace_events: None,
            metrics_addr: None,
            seed: 0,
        }
    }
}

/// Aggregated results of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Accuracy/loss curve over simulated time (empty for `TimingOnly`).
    pub curve: Curve,
    /// Final test accuracy (0 for `TimingOnly`).
    pub final_accuracy: f32,
    /// Simulated seconds until the last worker finished.
    pub total_time: f64,
    /// Mean per-worker seconds spent computing gradients.
    pub compute_time_mean: f64,
    /// Mean per-worker seconds NOT computing (network + synchronization
    /// waits) — the paper's "communication time".
    pub comm_time_mean: f64,
    /// Merged shard statistics (DPRs etc.).
    pub stats: ShardStats,
    /// DPRs per 100 global iterations.
    pub dprs_per_100: f64,
    /// Scheduler barrier hits (PS-Lite only).
    pub barrier_count: u64,
    /// The busiest server's total transfer seconds (EPS's target metric).
    pub max_server_comm: f64,
    /// Final server-side parameters (training runs only) — the handoff for
    /// warm-started continuation runs.
    pub final_params: Option<fluentps_ml::ParamMap>,
    /// Virtual-clock event trace (only when [`DriverConfig::trace_events`]
    /// was set).
    pub trace: Option<Trace>,
}

enum Ev {
    ComputeDone {
        worker: u32,
    },
    /// A worker's `SPush`/`SPull` reaches `server`.
    ToServer {
        server: u32,
        msg: Message,
    },
    /// `server`'s reply reaches `worker`, `bytes` long on the simulated link.
    ToWorker {
        worker: u32,
        server: u32,
        msg: Message,
        bytes: usize,
    },
    SchedulerReport {
        worker: u32,
        iter: u64,
    },
    PullSend {
        worker: u32,
        iter: u64,
    },
}

struct WorkerState {
    iter: u64,
    params: ParamMap,
    optimizer: Sgd,
    filter: Option<fluentps_core::filter::SignificanceFilter>,
    sampler: Option<BatchSampler>,
    /// The pull round under way, the live worker's step.
    round: Option<WorkerRound>,
    /// Causal requests numbered so far (see [`request_id`]).
    requests: u64,
    pending_acks: u32,
    compute_total: f64,
    finish_time: f64,
    done: bool,
}

/// Byte sizes of the two value-carrying message kinds per server, derived
/// from the placement (virtual sizes — payloads need not be materialized).
/// A pull carries no values and is measured as its round builds it.
struct WireSizes {
    push: Vec<usize>,
    response: Vec<usize>,
}

fn wire_sizes(map: &SliceMap, scale: f64) -> WireSizes {
    let m = map.num_servers() as usize;
    let mut keys = vec![0usize; m];
    let mut vals = vec![0usize; m];
    for p in map.placements() {
        keys[p.server as usize] += 1;
        vals[p.server as usize] += p.len;
    }
    // Codec-measured sizes (the exact `encode()` lengths of the messages the
    // live engines would put on the wire), so simulated transfer times match
    // real payloads byte-for-byte before scaling. The values are not built:
    // each message is measured with its keys alone, and each value adds its
    // 4 bytes of payload.
    let sc = |b: usize| ((b as f64) * scale) as usize;
    let mut sizes = WireSizes {
        push: Vec::with_capacity(m),
        response: Vec::with_capacity(m),
    };
    for (&n, &values) in keys.iter().zip(&vals) {
        let kv = KvPairs {
            keys: vec![0; n],
            lens: vec![0; n],
            ..KvPairs::default()
        };
        let push = Message::SPush {
            worker: 0,
            progress: 0,
            kv: kv.clone(),
        };
        let response = Message::PullResponse {
            server: 0,
            progress: 0,
            version: 0,
            kv,
        };
        sizes.push.push(sc(codec::encoded_len(&push) + 4 * values));
        sizes
            .response
            .push(sc(codec::encoded_len(&response) + 4 * values));
    }
    sizes
}

/// Run one experiment to completion.
pub fn run(cfg: &DriverConfig) -> RunResult {
    Simulation::new(cfg).run()
}

struct Simulation<'a> {
    cfg: &'a DriverConfig,
    model: Option<Box<dyn Model>>,
    train: Option<Dataset>,
    test: Option<Dataset>,
    router: Router,
    servers: Vec<ShardServer>,
    workers: Vec<WorkerState>,
    scheduler: Option<PsLiteScheduler>,
    sched_queue: fluentps_simnet::net::NicQueue,
    sched_msg_cost: f64,
    ssptable_maint: f64,
    /// `Some(r)` for the SSPtable engine: workers refresh their client
    /// cache (i.e. actually pull) only every `r`-th iteration; in between
    /// they reuse stale cached parameters — Bösen's cache semantics, with
    /// `r` = the effective staleness after view-maintenance degradation.
    ssptable_refresh: Option<u64>,
    topo: ClusterTopology,
    compute: WorkerCompute,
    wires: WireSizes,
    queue: EventQueue<Ev>,
    curve: Curve,
    iterations_done: u64,
    active_server_count: u32,
    collector: Option<TraceCollector>,
    /// The workers' tracer for their wire send/recv events (each server
    /// traces its own step). Disabled when not tracing.
    tracer: Tracer,
    /// Live endpoint held open for the duration of the run (dropped —
    /// and therefore stopped — when the simulation finishes).
    introspection: Option<fluentps_obs::IntrospectionServer>,
    metrics: fluentps_obs::MetricsRegistry,
}

impl<'a> Simulation<'a> {
    fn new(cfg: &'a DriverConfig) -> Self {
        let (model, train, test): (Option<Box<dyn Model>>, _, _) = match &cfg.model {
            ModelKind::TimingOnly { .. } => (None, None, None),
            kind => {
                let spec = cfg.dataset.expect("training run needs a dataset");
                let (train, test) = synthetic(spec);
                let model: Box<dyn Model> = match kind {
                    ModelKind::Softmax => Box::new(SoftmaxRegression {
                        dim: spec.dim,
                        classes: spec.classes,
                    }),
                    ModelKind::Mlp { hidden } => {
                        let mut dims = vec![spec.dim];
                        dims.extend_from_slice(hidden);
                        dims.push(spec.classes);
                        Box::new(Mlp { dims })
                    }
                    ModelKind::Residual { width, blocks } => Box::new(ResidualMlp {
                        input: spec.dim,
                        width: *width,
                        blocks: *blocks,
                        classes: spec.classes,
                    }),
                    ModelKind::TimingOnly { .. } => unreachable!(),
                };
                (Some(model), Some(train), Some(test))
            }
        };

        // Parameter inventory: real shapes for training runs, the virtual
        // inventory for timing runs.
        let specs: Vec<ParamSpec> = match (&cfg.model, &model) {
            (ModelKind::TimingOnly { params }, _) => params.clone(),
            (_, Some(m)) => m
                .param_shapes()
                .iter()
                .map(|s| ParamSpec {
                    key: s.key,
                    len: s.len,
                })
                .collect(),
            _ => unreachable!(),
        };
        let map = match cfg.slicer {
            SlicerKind::Default => DefaultSlicer.slice(&specs, cfg.num_servers),
            SlicerKind::Eps { max_chunk } => EpsSlicer { max_chunk }.slice(&specs, cfg.num_servers),
        };
        let wires = wire_sizes(&map, cfg.wire_bytes_scale);

        // Shard-level sync model per engine.
        let (shard_model, shard_policy) = match cfg.engine {
            EngineKind::FluentPs { model, policy } => (model, policy),
            // The scheduler gates synchronization; shards answer freely.
            EngineKind::PsLite { .. } => (SyncModel::Asp, DprPolicy::SoftBarrier),
            // SSPtable behaves like SSP with the degraded effective bound,
            // released via the soft barrier (Bösen semantics).
            EngineKind::SspTable { s } => (
                SyncModel::Ssp {
                    s: SspTableModel::new(s).effective_staleness(cfg.num_workers),
                },
                DprPolicy::SoftBarrier,
            ),
        };

        if let Some(models) = &cfg.per_server_models {
            assert_eq!(
                models.len(),
                cfg.num_servers as usize,
                "per_server_models length must equal num_servers"
            );
            assert!(
                matches!(cfg.engine, EngineKind::FluentPs { .. }),
                "per-server models are a FluentPS feature"
            );
        }
        let init_params = match (&cfg.initial_params, &model) {
            (Some(warm), _) => Some(warm.clone()),
            (None, Some(m)) => Some(m.init_params(cfg.seed)),
            (None, None) => None,
        };
        // Tracing taps the same virtual clock the event queue advances, so
        // trace timestamps are simulated seconds, directly comparable with
        // `total_time`. Every server traces into a ring of its own, and the
        // workers into one more.
        let mut queue = EventQueue::new();
        let collector = cfg.trace_events.map(|capacity| {
            let clock = VirtualClock::new();
            queue.attach_clock(std::sync::Arc::clone(&clock));
            TraceCollector::new(ClockSource::virtual_clock(clock), capacity)
        });
        let new_tracer = || {
            collector
                .as_ref()
                .map_or_else(Tracer::disabled, |c| c.tracer())
        };

        let mut servers = Vec::with_capacity(cfg.num_servers as usize);
        for m in 0..cfg.num_servers {
            let model_for_shard = cfg
                .per_server_models
                .as_ref()
                .map(|v| v[m as usize])
                .unwrap_or(shard_model);
            let mut shard = ServerShard::new(ShardConfig {
                server_id: m,
                num_workers: cfg.num_workers,
                model: model_for_shard,
                policy: shard_policy,
            });
            for p in map.placements().iter().filter(|p| p.server == m) {
                let vals: &[f32] = match &init_params {
                    Some(ip) => &ip[&p.orig_key][p.offset..p.offset + p.len],
                    None => &[], // timing runs carry no values
                };
                shard.init_param(p.new_key, vals);
            }
            let rng = launch::server_rng(cfg.seed, m, 0);
            servers.push(ShardServer::new(shard, rng, new_tracer()));
        }
        let tracer = new_tracer();

        let router = Router::new(map);
        let active_server_count = router.active_servers().count() as u32;

        let workers = (0..cfg.num_workers)
            .map(|n| {
                let sampler = train.as_ref().map(|tr| {
                    BatchSampler::new(
                        tr.partition(n, cfg.num_workers),
                        BATCH_SIZE,
                        cfg.seed.wrapping_add(1000 + n as u64),
                    )
                });
                WorkerState {
                    iter: 0,
                    params: init_params.clone().unwrap_or_default(),
                    optimizer: Sgd::new(cfg.lr.lr(0), MOMENTUM, 0.0),
                    filter: cfg.significance_filter.map(|(threshold, max_hold)| {
                        fluentps_core::filter::SignificanceFilter::new(threshold, max_hold)
                    }),
                    sampler,
                    round: None,
                    requests: 0,
                    pending_acks: 0,
                    compute_total: 0.0,
                    finish_time: 0.0,
                    done: false,
                }
            })
            .collect();

        let scheduler = match cfg.engine {
            EngineKind::PsLite { mode } => Some(PsLiteScheduler::new(cfg.num_workers, mode)),
            _ => None,
        };
        let ssptable_refresh = match cfg.engine {
            EngineKind::SspTable { s } => Some(
                SspTableModel::new(s)
                    .effective_staleness(cfg.num_workers)
                    .max(1),
            ),
            _ => None,
        };
        let ssptable_maint = match cfg.engine {
            // Charge Θ(N) view maintenance per push: a small per-unit cost
            // that adds up at scale.
            EngineKind::SspTable { s } => {
                SspTableModel::new(s).maintenance_cost(cfg.num_workers) * 50e-6
            }
            _ => 0.0,
        };

        // Per-worker compute shrinks with data parallelism (same global
        // batch split N ways) — the Figure 6 "computation time decreases"
        // effect.
        let per_worker_base = cfg.compute_base / cfg.num_workers as f64;
        let compute = WorkerCompute::new(
            per_worker_base.max(1e-6),
            cfg.compute_jitter,
            cfg.stragglers,
            cfg.num_workers,
            cfg.seed.wrapping_add(7),
        );

        let metrics = fluentps_obs::MetricsRegistry::new();
        let introspection = cfg.metrics_addr.map(|addr| {
            fluentps_core::launch::publish_cluster_gauges(
                &metrics,
                "simulated",
                cfg.num_workers,
                cfg.num_servers,
            );
            let endpoints = fluentps_obs::http::Endpoints {
                registry: metrics.clone(),
                trace: collector.clone().map(fluentps_obs::TraceSource::Local),
                ..Default::default()
            };
            fluentps_obs::http::serve(addr, endpoints).expect("bind introspection endpoint")
        });

        Simulation {
            cfg,
            model,
            train,
            test,
            router,
            servers,
            workers,
            scheduler,
            sched_queue: fluentps_simnet::net::NicQueue::new(),
            sched_msg_cost: SCHED_COST_BASE + cfg.sched_cost_per_worker * cfg.num_workers as f64,
            ssptable_maint,
            ssptable_refresh,
            topo: ClusterTopology::with_duplex(
                cfg.num_servers,
                cfg.link,
                // PS-Lite's single-threaded request loop serializes push
                // handling with pull responses; FluentPS overlaps them
                // (Section III-D).
                match cfg.engine {
                    EngineKind::PsLite { .. } => Duplex::Half,
                    _ => Duplex::Full,
                },
            ),
            compute,
            wires,
            queue,
            curve: Curve::new(),
            iterations_done: 0,
            active_server_count,
            collector,
            tracer,
            introspection,
            metrics,
        }
    }

    fn run(mut self) -> RunResult {
        // Kick off iteration 0 on every worker.
        for w in 0..self.cfg.num_workers {
            let dur = self.compute.sample(w, 0);
            self.workers[w as usize].compute_total += dur;
            self.queue.schedule(dur, Ev::ComputeDone { worker: w });
        }
        while let Some((now, ev)) = self.queue.pop() {
            // An ack no worker waits for travels only to have its receipt
            // traced: it must not end the run at another time than an
            // untraced run would.
            let traced_only = !self.waits_for_acks()
                && matches!(&ev, Ev::ToWorker { msg, .. } if matches!(msg.bare(), Message::PushAck { .. }));
            // Training is over once the *global* progress reaches the budget
            // on every shard — under drop-stragglers, nobody waits for the
            // straggler to finish the iterations that were dropped anyway.
            if !traced_only
                && self
                    .servers
                    .iter()
                    .all(|s| s.shard().v_train() >= self.cfg.max_iters)
            {
                for w in self.workers.iter_mut().filter(|w| !w.done) {
                    w.done = true;
                    w.finish_time = now;
                }
                break;
            }
            match ev {
                Ev::ComputeDone { worker } => self.on_compute_done(now, worker),
                Ev::ToServer { server, msg } => self.on_server_recv(now, server, msg),
                Ev::ToWorker {
                    worker,
                    server,
                    msg,
                    bytes,
                } => self.on_worker_recv(now, worker, server, msg, bytes),
                Ev::SchedulerReport { worker, iter } => self.on_scheduler_report(now, worker, iter),
                Ev::PullSend { worker, iter } => self.start_round(now, worker, iter),
            }
        }
        self.finish()
    }

    fn is_training(&self) -> bool {
        self.model.is_some()
    }

    fn on_compute_done(&mut self, now: f64, worker: u32) {
        let iter = self.workers[worker as usize].iter;
        if let Some((failed, at)) = self.cfg.fail_worker {
            if worker == failed && iter >= at {
                // Fail-stop: the gradient is computed but never leaves the
                // node; no further events are scheduled for this worker.
                let w = &mut self.workers[worker as usize];
                w.done = true;
                w.finish_time = now;
                self.iterations_done += 1;
                return;
            }
        }
        // Real gradient (training) or a virtual payload (timing).
        let shard_payloads: Vec<KvPairs> = if self.is_training() {
            let model = self.model.as_ref().expect("training model");
            let train = self.train.as_ref().expect("train set");
            let w = &mut self.workers[worker as usize];
            let indices = w.sampler.as_mut().expect("sampler").next_indices();
            let batch = train.batch(&indices);
            let (_, grads) = model.loss_and_grad(&w.params, &batch);
            w.optimizer.set_lr(self.cfg.lr.lr(iter));
            let mut deltas = w.optimizer.deltas(&w.params, &grads);
            if let Some(filter) = &mut w.filter {
                use fluentps_core::filter::FilterDecision;
                let mut passed = fluentps_ml::ParamMap::new();
                for (k, d) in deltas.iter() {
                    let param = w.params.get(&k).map(|v| v.as_slice()).unwrap_or(&[]);
                    let d: Vec<f32> = d.collect();
                    if let FilterDecision::Push(u) = filter.offer(k, &d, param) {
                        passed.insert(k, u);
                    }
                }
                // Final iteration: nothing may be withheld forever.
                if iter + 1 == self.cfg.max_iters {
                    for (k, u) in filter.flush_all() {
                        passed
                            .entry(k)
                            .and_modify(|acc| {
                                for (a, b) in acc.iter_mut().zip(&u) {
                                    *a += b;
                                }
                            })
                            .or_insert(u);
                    }
                }
                deltas = Deltas::from_params(&passed);
            }
            self.router.scatter(&deltas)
        } else {
            // Keys only; values are virtual (the wire model charges real
            // byte counts from the placement).
            (0..self.cfg.num_servers)
                .map(|m| {
                    let keys = self.router.keys_for_server(m).to_vec();
                    let lens = vec![0u32; keys.len()];
                    KvPairs {
                        keys,
                        lens,
                        ..KvPairs::default()
                    }
                })
                .collect()
        };

        let filtering = self.workers[worker as usize].filter.is_some();
        let active: Vec<u32> = self.router.active_servers().collect();
        let ctx = self.next_ctx(worker);
        for (server, kv) in (0u32..).zip(shard_payloads) {
            // Inactive servers own no keys; active servers always get a push
            // (possibly empty under the significance filter) so progress
            // tracking and the push condition see every iteration.
            if kv.is_empty() && !(filtering && active.contains(&server)) {
                continue;
            }
            let push = Message::SPush {
                worker,
                progress: iter,
                kv,
            };
            let bytes = if filtering {
                (codec::encoded_len(&push) as f64 * self.cfg.wire_bytes_scale) as usize
            } else {
                self.wires.push[server as usize]
            };
            let msg = wrap(push, ctx);
            self.trace_wire(EventKind::WireSend, server, worker, &msg, bytes);
            let arrive = self.topo.worker_to_server(now, server, bytes) + self.ssptable_maint;
            self.queue.schedule(arrive, Ev::ToServer { server, msg });
        }

        match self.cfg.engine {
            EngineKind::PsLite { .. } => {
                self.workers[worker as usize].pending_acks = self.active_server_count;
            }
            EngineKind::SspTable { .. } => {
                // Bösen cache semantics: only pull (refresh the cache) when
                // the cached version would violate the staleness bound;
                // otherwise compute the next iteration on stale parameters.
                let r = self.ssptable_refresh.expect("ssptable refresh");
                if (iter + worker as u64) % r == r - 1 {
                    self.start_round(now, worker, iter);
                } else {
                    self.advance_worker(now, worker);
                }
            }
            _ => self.start_round(now, worker, iter),
        }

        self.iterations_done += 1;
        self.maybe_eval(now);
    }

    /// Move a worker to its next iteration (called when all pull responses
    /// arrived, or when the SSPtable cache made the pull unnecessary).
    fn advance_worker(&mut self, now: f64, worker: u32) {
        let w = &mut self.workers[worker as usize];
        w.iter += 1;
        if w.iter >= self.cfg.max_iters {
            w.done = true;
            w.finish_time = now;
        } else {
            let dur = self.compute.sample(worker, w.iter);
            w.compute_total += dur;
            self.queue.schedule_in(dur, Ev::ComputeDone { worker });
        }
    }

    /// Open `worker`'s pull round of `iter`: the live [`WorkerRound`]'s
    /// pulls, each on its server's link.
    fn start_round(&mut self, now: f64, worker: u32, iter: u64) {
        let ctx = self.next_ctx(worker);
        let (round, pulls) = WorkerRound::start(worker, iter, None, ctx, &self.router);
        self.workers[worker as usize].round = Some(round);
        for (server, msg) in pulls {
            let bytes = codec::encoded_len(msg.bare());
            self.trace_wire(EventKind::WireSend, server, worker, &msg, bytes);
            let arrive = self.topo.worker_to_server(now, server, bytes);
            self.queue.schedule(arrive, Ev::ToServer { server, msg });
        }
    }

    /// The context `worker`'s next request travels in, numbered as a live
    /// worker numbers it; `None` when the run is not traced.
    fn next_ctx(&mut self, worker: u32) -> Option<CausalCtx> {
        let w = &mut self.workers[worker as usize];
        self.tracer.is_enabled().then(|| {
            w.requests += 1;
            CausalCtx::new(request_id(worker, w.requests))
        })
    }

    /// Record a worker's side of the wire as a live worker does, with the
    /// simulated byte count (each server traces its own step).
    fn trace_wire(&self, kind: EventKind, server: u32, worker: u32, msg: &Message, bytes: usize) {
        let args = wire_args(server, worker, msg).bytes(bytes as u64);
        self.tracer.record(kind, args);
    }

    /// `server` steps the message that reached it, and its replies go out.
    fn on_server_recv(&mut self, now: f64, server: u32, msg: Message) {
        let step = &mut self.servers[server as usize];
        let dprs = step.shard().stats().dprs;
        let mut out = Vec::new();
        step.handle(msg, &mut out);
        if step.shard().stats().dprs > dprs {
            // The step deferred a pull. The deferral occupies the server's
            // processing queue, delaying every later request at this server.
            self.topo.charge_server(now, server, SERVER_DPR_COST);
        }
        for (to, msg) in out {
            let NodeId::Worker(worker) = to else {
                unreachable!("a server step answers workers only")
            };
            // A response costs its placement's `WireSizes` link time, an
            // ack one link latency; acks travel only where a worker waits
            // for them or tracing records their receipt.
            let (arrive, bytes) = match msg.bare() {
                Message::PullResponse { .. } => {
                    let bytes = self.wires.response[server as usize];
                    (self.topo.server_to_worker(now, server, bytes), bytes)
                }
                Message::PushAck { .. } if self.waits_for_acks() || self.tracer.is_enabled() => {
                    (now + self.cfg.link.latency, frame::wire_len(&msg))
                }
                _ => continue,
            };
            let ev = Ev::ToWorker {
                worker,
                server,
                msg,
                bytes,
            };
            self.queue.schedule(arrive, ev);
        }
    }

    /// A reply reaches `worker`: an ack counts towards PS-Lite's report,
    /// anything else is stepped by the worker's round, which advances the
    /// worker once every server answered.
    fn on_worker_recv(&mut self, now: f64, worker: u32, server: u32, msg: Message, bytes: usize) {
        self.trace_wire(EventKind::WireRecv, server, worker, &msg, bytes);
        if let Message::PushAck { progress, .. } = msg.bare() {
            if self.waits_for_acks() {
                self.on_ack(now, worker, *progress);
            }
            return;
        }
        let training = self.is_training();
        let w = &mut self.workers[worker as usize];
        let round = w.round.as_mut().expect("a response answers a round");
        if let Ok(Heard::Answer(kv)) = round.on_message(msg, &mut self.router) {
            if training {
                self.router.gather_into(&mut w.params, &kv);
            }
        }
        if round.awaiting().is_empty() {
            w.round = None;
            self.advance_worker(now, worker);
        }
    }

    /// PS-Lite's workers report to the scheduler once every server acked.
    fn waits_for_acks(&self) -> bool {
        matches!(self.cfg.engine, EngineKind::PsLite { .. })
    }

    fn on_ack(&mut self, now: f64, worker: u32, iter: u64) {
        let w = &mut self.workers[worker as usize];
        debug_assert!(w.pending_acks > 0);
        w.pending_acks -= 1;
        if w.pending_acks == 0 {
            // The report lands in the scheduler's single-threaded queue and
            // is *processed* only after every earlier message drained.
            let processed =
                self.sched_queue
                    .enqueue(now + self.cfg.link.latency, self.sched_msg_cost, 64);
            self.queue
                .schedule(processed, Ev::SchedulerReport { worker, iter });
        }
    }

    fn on_scheduler_report(&mut self, now: f64, worker: u32, iter: u64) {
        let sched = self.scheduler.as_mut().expect("PS-Lite scheduler");
        let released = sched.report_push_complete(worker, iter);
        for w2 in released {
            let it2 = self.workers[w2 as usize].iter;
            // Each release message is also produced by the scheduler's
            // single thread before it travels back to the worker.
            let sent = self.sched_queue.enqueue(now, self.sched_msg_cost, 64);
            self.queue.schedule(
                sent + self.cfg.link.latency,
                Ev::PullSend {
                    worker: w2,
                    iter: it2,
                },
            );
        }
        let sched = self.scheduler.as_mut().expect("PS-Lite scheduler");
        if sched.request_pull(worker, iter) {
            let sent = self.sched_queue.enqueue(now, self.sched_msg_cost, 64);
            self.queue
                .schedule(sent + self.cfg.link.latency, Ev::PullSend { worker, iter });
        }
    }

    /// Evaluate test accuracy from the *server-side* parameters whenever the
    /// global iteration counter crosses the eval cadence.
    fn maybe_eval(&mut self, now: f64) {
        if !self.is_training() || self.cfg.eval_every == 0 {
            return;
        }
        let cadence = self.cfg.eval_every * self.cfg.num_workers as u64;
        if !self.iterations_done.is_multiple_of(cadence) {
            return;
        }
        self.eval_point(now);
    }

    fn eval_point(&mut self, now: f64) {
        let params = self.server_params();
        let model = self.model.as_ref().expect("training model");
        let test = self.test.as_ref().expect("test set");
        let accuracy = model.accuracy(&params, test);
        self.curve.push(CurvePoint {
            iter: self.iterations_done / self.cfg.num_workers as u64,
            time: now,
            accuracy,
            loss: 0.0,
        });
    }

    /// Reassemble the full parameter map from the shards.
    fn server_params(&self) -> ParamMap {
        let mut out = ParamMap::new();
        for p in self.router.slice_map().placements() {
            let vals = self.servers[p.server as usize]
                .shard()
                .read_param(p.new_key)
                .expect("placed key exists");
            let entry = out
                .entry(p.orig_key)
                .or_insert_with(|| vec![0.0; p.offset + p.len]);
            if entry.len() < p.offset + p.len {
                entry.resize(p.offset + p.len, 0.0);
            }
            vals.copy_to(&mut entry[p.offset..p.offset + p.len]);
        }
        out
    }

    fn finish(mut self) -> RunResult {
        let total_time = self
            .workers
            .iter()
            .map(|w| w.finish_time)
            .fold(0.0, f64::max);
        if self.is_training() {
            self.eval_point(total_time);
        }
        let n = self.workers.len() as f64;
        let compute_time_mean = self.workers.iter().map(|w| w.compute_total).sum::<f64>() / n;
        let comm_time_mean = self
            .workers
            .iter()
            .map(|w| (w.finish_time - w.compute_total).max(0.0))
            .sum::<f64>()
            / n;
        let mut stats = ShardStats::default();
        for s in &self.servers {
            stats.merge(s.shard().stats());
        }
        let dprs_per_100 = if self.cfg.max_iters == 0 {
            0.0
        } else {
            // DPRs per 100 iterations of training progress, normalized per
            // shard (each global iteration touches every shard).
            stats.dprs as f64 * 100.0 / (self.cfg.max_iters as f64 * self.servers.len() as f64)
        };
        let final_params = if self.is_training() {
            Some(self.server_params())
        } else {
            None
        };
        let trace = self.collector.as_ref().map(|c| c.snapshot());
        if self.introspection.is_some() {
            // Final shard totals, scrapeable until the endpoint is dropped
            // with the simulation below.
            self.metrics.inc("sim_pulls_total", stats.pulls_total);
            self.metrics.inc("sim_dprs_total", stats.dprs);
            self.metrics.inc("sim_pushes_total", stats.pushes);
            self.metrics.set_gauge("sim_total_time_seconds", total_time);
        }
        RunResult {
            final_accuracy: self.curve.final_accuracy(),
            final_params,
            trace,
            curve: self.curve,
            total_time,
            compute_time_mean,
            comm_time_mean,
            stats,
            dprs_per_100,
            barrier_count: self
                .scheduler
                .as_ref()
                .map(|s| s.barrier_count())
                .unwrap_or(0),
            max_server_comm: self.topo.max_server_comm_time(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resnet56_like_inventory() -> Vec<ParamSpec> {
        // 56-layer-ish skew: many small conv layers plus a dominant one.
        let mut v = vec![ParamSpec {
            key: 0,
            len: 300_000,
        }];
        for k in 1..56 {
            v.push(ParamSpec {
                key: k,
                len: 10_000,
            });
        }
        v
    }

    fn timing_cfg(engine: EngineKind, n: u32, m: u32, slicer: SlicerKind) -> DriverConfig {
        DriverConfig {
            engine,
            num_workers: n,
            num_servers: m,
            slicer,
            max_iters: 30,
            model: ModelKind::TimingOnly {
                params: resnet56_like_inventory(),
            },
            dataset: None,
            compute_base: 2.0,
            compute_jitter: 0.1,
            stragglers: StragglerSpec::none(),
            link: LinkModel::aws_25g(),
            eval_every: 0,
            ..DriverConfig::default()
        }
    }

    #[test]
    fn bsp_timing_run_completes_and_accounts_time() {
        let cfg = timing_cfg(
            EngineKind::FluentPs {
                model: SyncModel::Bsp,
                policy: DprPolicy::LazyExecution,
            },
            4,
            2,
            SlicerKind::Eps { max_chunk: 8192 },
        );
        let r = run(&cfg);
        assert!(r.total_time > 0.0);
        assert!(r.compute_time_mean > 0.0);
        assert!(r.comm_time_mean > 0.0);
        // Every shard advanced through all iterations.
        assert_eq!(r.stats.v_train_advances, 30 * 2);
        // No pending DPRs: accounting closed.
        assert_eq!(r.stats.dprs, r.stats.dprs_released);
    }

    #[test]
    fn pslite_nonoverlap_is_slower_than_fluentps_overlap() {
        let n = 8;
        let pslite = run(&timing_cfg(
            EngineKind::PsLite {
                mode: PsLiteMode::Bsp,
            },
            n,
            4,
            SlicerKind::Default,
        ));
        let fluent = run(&timing_cfg(
            EngineKind::FluentPs {
                model: SyncModel::Bsp,
                policy: DprPolicy::LazyExecution,
            },
            n,
            4,
            SlicerKind::Default,
        ));
        assert!(
            fluent.total_time < pslite.total_time,
            "overlap {} should beat non-overlap {}",
            fluent.total_time,
            pslite.total_time
        );
    }

    #[test]
    fn eps_beats_default_slicing_on_critical_path() {
        let mk = |slicer| {
            run(&timing_cfg(
                EngineKind::FluentPs {
                    model: SyncModel::Bsp,
                    policy: DprPolicy::LazyExecution,
                },
                8,
                4,
                slicer,
            ))
        };
        let default = mk(SlicerKind::Default);
        let eps = mk(SlicerKind::Eps { max_chunk: 8192 });
        assert!(
            eps.max_server_comm < default.max_server_comm,
            "EPS {} vs default {}",
            eps.max_server_comm,
            default.max_server_comm
        );
        assert!(eps.total_time <= default.total_time);
    }

    #[test]
    fn training_run_learns() {
        let cfg = DriverConfig {
            engine: EngineKind::FluentPs {
                model: SyncModel::Ssp { s: 2 },
                policy: DprPolicy::LazyExecution,
            },
            num_workers: 4,
            num_servers: 2,
            max_iters: 150,
            model: ModelKind::Softmax,
            dataset: Some(SyntheticSpec {
                dim: 16,
                classes: 4,
                n_train: 1200,
                n_test: 300,
                margin: 3.0,
                modes: 1,
                label_noise: 0.0,
                seed: 3,
            }),
            lr: LrSchedule::Constant(0.3),
            eval_every: 25,
            ..DriverConfig::default()
        };
        let r = run(&cfg);
        assert!(
            r.final_accuracy > 0.8,
            "distributed training should learn, got {}",
            r.final_accuracy
        );
        assert!(r.curve.points().len() >= 2);
        // Accuracy improved over the run.
        let first = r.curve.points().first().unwrap().accuracy;
        assert!(r.final_accuracy > first);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = timing_cfg(
            EngineKind::FluentPs {
                model: SyncModel::PsspConst { s: 3, c: 0.5 },
                policy: DprPolicy::LazyExecution,
            },
            6,
            3,
            SlicerKind::Eps { max_chunk: 8192 },
        );
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.stats, b.stats);
    }

    /// Each simulated server draws its PSSP coins from the stream the live
    /// launch gives the server of the same id under the same seed.
    #[test]
    fn each_server_draws_the_live_launchs_stream() {
        use fluentps_core::engine::EngineConfig;

        let model = SyncModel::PsspConst { s: 3, c: 0.5 };
        let draws = |seed: u64| {
            let mut cfg = timing_cfg(
                EngineKind::FluentPs {
                    model,
                    policy: DprPolicy::LazyExecution,
                },
                4,
                3,
                SlicerKind::Eps { max_chunk: 8192 },
            );
            cfg.seed = seed;
            let mut sim = Simulation::new(&cfg);
            let live = EngineConfig {
                num_workers: cfg.num_workers,
                num_servers: cfg.num_servers,
                model,
                seed,
                ..EngineConfig::default()
            };
            let map = sim.router.slice_map();
            let mut per_server = Vec::new();
            for (m, simulated) in (0u32..).zip(&mut sim.servers) {
                let init = Default::default();
                let (mut launched, _) =
                    launch::shard_server(&live, model, m, (map, &init), Tracer::disabled());
                let stream: Vec<f64> = (0..16).map(|_| simulated.next_draw()).collect();
                let want: Vec<f64> = (0..16).map(|_| launched.next_draw()).collect();
                assert_eq!(stream, want, "server {m}, seed {seed}");
                per_server.push(stream);
            }
            per_server
        };
        let (a, b) = (draws(5), draws(6));
        for m in 0..a.len() {
            assert_ne!(a[m], b[m], "server {m} draws the same under two seeds");
        }
        assert_ne!(a[0], a[1], "two servers share a stream");
    }

    #[test]
    fn traced_run_reconciles_with_stats_and_preserves_results() {
        use fluentps_obs::EventKind;
        let mut cfg = timing_cfg(
            EngineKind::FluentPs {
                model: SyncModel::Ssp { s: 1 },
                policy: DprPolicy::LazyExecution,
            },
            4,
            2,
            SlicerKind::Eps { max_chunk: 8192 },
        );
        cfg.stragglers = StragglerSpec::random_slowdowns();
        let plain = run(&cfg);
        cfg.trace_events = Some(4096);
        let traced = run(&cfg);

        // Tracing is an observer: identical timing and counters.
        assert_eq!(plain.total_time, traced.total_time);
        assert_eq!(plain.stats, traced.stats);

        let trace = traced.trace.expect("trace requested");
        let stats = &traced.stats;
        assert_eq!(trace.count(EventKind::PullRequested), stats.pulls_total);
        assert_eq!(trace.count(EventKind::PullDeferred), stats.dprs);
        assert_eq!(trace.count(EventKind::DprReleased), stats.dprs_released);
        assert_eq!(
            trace.count(EventKind::PushApplied) + trace.count(EventKind::LatePushDropped),
            stats.pushes
        );
        assert_eq!(
            trace.count(EventKind::VTrainAdvanced),
            stats.v_train_advances
        );
        assert!(trace.count(EventKind::WireSend) > 0);
        // The run stops as soon as every shard reaches the iteration budget,
        // so messages may still be in flight: receives never exceed sends.
        assert!(trace.count(EventKind::WireRecv) <= trace.count(EventKind::WireSend));
        assert!(trace.count(EventKind::WireRecv) > 0);
        // Virtual timestamps live inside the simulated horizon.
        for ev in &trace.events {
            assert!(ev.ts >= 0.0 && ev.ts <= traced.total_time);
        }
    }

    /// The simulated workers stamp every request as live ones do, so the
    /// trace pairs exactly: every worker's wire event carries a request id
    /// and every receive finds the send of its id.
    #[test]
    fn a_traced_run_stamps_every_wire_event_and_pairs_every_receive() {
        let engines = [
            EngineKind::FluentPs {
                model: SyncModel::Ssp { s: 1 },
                policy: DprPolicy::LazyExecution,
            },
            EngineKind::PsLite {
                mode: PsLiteMode::Bsp,
            },
            EngineKind::SspTable { s: 2 },
        ];
        for engine in engines {
            let mut cfg = timing_cfg(engine, 4, 2, SlicerKind::Eps { max_chunk: 8192 });
            cfg.stragglers = StragglerSpec::random_slowdowns();
            cfg.trace_events = Some(1 << 14);
            let trace = run(&cfg).trace.expect("trace requested");
            let wire = |e: &&fluentps_obs::TraceEvent| {
                matches!(e.kind, EventKind::WireSend | EventKind::WireRecv)
            };
            let mut events = trace.events.iter().filter(wire).peekable();
            assert!(events.peek().is_some(), "{engine:?}");
            for e in events {
                assert_ne!(e.request_id, 0, "{engine:?}: {e:?}");
            }
            let a = fluentps_obs::analyze(&trace);
            assert_eq!(a.unmatched_recvs, 0, "{engine:?}");
            assert!(a.workers.iter().all(|w| w.wire_secs > 0.0), "{engine:?}");
        }
    }

    /// A filter that holds nothing back changes nothing: each push is
    /// charged its codec size at paper scale, filtered or not.
    #[test]
    fn a_significance_filter_that_passes_everything_is_the_unfiltered_run() {
        let cfg = DriverConfig {
            num_workers: 8,
            num_servers: 2,
            max_iters: 60,
            model: ModelKind::Mlp { hidden: vec![64] },
            wire_bytes_scale: 65.0,
            seed: 87,
            ..DriverConfig::default()
        };
        let plain = run(&cfg);
        let filtered = run(&DriverConfig {
            significance_filter: Some((0.0, 4)),
            ..cfg
        });
        assert_eq!(filtered.total_time, plain.total_time);
        assert_eq!(filtered.comm_time_mean, plain.comm_time_mean);
        assert_eq!(filtered.stats, plain.stats);
        assert_eq!(filtered.final_accuracy, plain.final_accuracy);
    }

    #[test]
    fn asp_faster_than_bsp_under_stragglers() {
        let mk = |model| {
            let mut cfg = timing_cfg(
                EngineKind::FluentPs {
                    model,
                    policy: DprPolicy::LazyExecution,
                },
                8,
                2,
                SlicerKind::Eps { max_chunk: 8192 },
            );
            cfg.stragglers = StragglerSpec::random_slowdowns();
            run(&cfg)
        };
        let bsp = mk(SyncModel::Bsp);
        let asp = mk(SyncModel::Asp);
        assert!(
            asp.total_time < bsp.total_time,
            "ASP {} vs BSP {}",
            asp.total_time,
            bsp.total_time
        );
        assert_eq!(asp.stats.dprs, 0);
        assert!(bsp.stats.dprs > 0);
    }
}
