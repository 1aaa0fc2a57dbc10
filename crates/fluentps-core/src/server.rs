//! The per-shard server state machine (Algorithm 1).
//!
//! `ServerShard` implements `PullHandler`/`PushHandler` exactly as the paper
//! specifies, parameterized by a [`SyncPolicy`] (the pull/push conditions)
//! and a [`DprPolicy`] (soft barrier vs. lazy execution). It is a pure state
//! machine — no clocks, threads, sockets or RNGs — so the threaded engine,
//! the TCP engine and the discrete-event simulator all drive identical
//! synchronization logic, and properties like the staleness invariant can be
//! tested exhaustively.
//!
//! The shard's parameters live in wire form: one little-endian
//! [`Values`] slab holding every key's values end to end, in the order
//! [`ServerShard::init_param`] installed them. That slab *is* the payload of
//! a reply for the shard's whole key list — a pull or checkpoint for those
//! keys in store order is answered with a reference-counted clone of it, no
//! copy and no allocation — and a push is folded into it in place,
//! copy-on-write ([`Values::add_scaled_in`]): while a reply still holds the
//! slab the fold writes into a fresh copy, so a reply already handed out
//! never changes. Any other key set is gathered into a payload of its own.

use std::collections::HashMap;
use std::ops::Range;

use fluentps_obs::{EventKind, RecordArgs, Tracer};
use fluentps_transport::{codec, CausalCtx, KvPairs, Values, ValuesMut};

use crate::condition::{SyncModel, SyncPolicy, SyncState};
use crate::dpr::{DeferredPull, DprBuffer, DprPolicy};
use crate::progress::ProgressTable;
use crate::stats::ShardStats;

/// Configuration of one server shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardConfig {
    /// Index of the owning server (`m`).
    pub server_id: u32,
    /// Total number of workers (`N`).
    pub num_workers: u32,
    /// Synchronization model (Table III row).
    pub model: SyncModel,
    /// DPR execution policy (Section III-C).
    pub policy: DprPolicy,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            server_id: 0,
            num_workers: 1,
            model: SyncModel::Bsp,
            policy: DprPolicy::LazyExecution,
        }
    }
}

/// Result of a pull request.
#[derive(Debug, Clone, PartialEq)]
pub enum PullOutcome {
    /// The pull condition held; parameters are returned immediately.
    Respond {
        /// Requested parameters.
        kv: KvPairs,
        /// Shard version (`V_train`) at response time.
        version: u64,
    },
    /// The pull condition failed; the request is now a DPR in the buffer and
    /// will surface later as a [`ReleasedPull`] from some `on_push` call.
    Deferred,
}

/// A previously deferred pull that the push condition has now released.
#[derive(Debug, Clone, PartialEq)]
pub struct ReleasedPull {
    /// Worker awaiting this response.
    pub worker: u32,
    /// The progress the worker reported with the original pull.
    pub progress: u64,
    /// Parameters to send.
    pub kv: KvPairs,
    /// Shard version at release time.
    pub version: u64,
    /// Iterations the DPR spent buffered.
    pub waited_iterations: u64,
    /// Causal context of the originating pull, so the engine can wrap the
    /// lazily-sent `PullResponse` in the same request's envelope.
    pub ctx: Option<CausalCtx>,
}

/// Stamp `args` with a causal context when one is present (the context-free
/// paths record exactly the events they always did).
pub(crate) fn stamp_ctx(args: RecordArgs, ctx: Option<CausalCtx>) -> RecordArgs {
    match ctx {
        Some(c) => args.ctx(c.request_id, c.attempt as u32),
        None => args,
    }
}

/// One parameter shard plus its synchronization state machine.
pub struct ServerShard {
    cfg: ShardConfig,
    policy: Box<dyn SyncPolicy>,
    /// Every parameter's values end to end in wire form, in `keys` order:
    /// the payload of a whole-shard reply (see the module docs).
    slab: Values,
    /// The keys in slab order (the key list a whole-shard reply carries)
    /// and each one's value count.
    keys: Vec<u64>,
    lens: Vec<u32>,
    /// Where each key's values lie in `slab`, counted in `f32`s.
    index: HashMap<u64, Range<usize>>,
    v_train: u64,
    progress: ProgressTable,
    buffer: DprBuffer,
    stats: ShardStats,
    /// Gradient significance `SF(g, w) = |g|/|w|` of each worker's latest
    /// push, consumed by dynamic PSSP when the pull carries no explicit hint.
    /// Measured only when the policy
    /// [`wants_significance`](SyncPolicy::wants_significance); `None`
    /// otherwise.
    last_significance: Vec<Option<f64>>,
    /// Trace event sink; `Tracer::disabled()` (the default) costs one branch
    /// per would-be event, keeping the state machine free of clocks.
    tracer: Tracer,
}

impl ServerShard {
    /// Shard with the built-in model named in `cfg`.
    pub fn new(cfg: ShardConfig) -> Self {
        let policy = Box::new(cfg.model.into_policy());
        Self::with_policy(cfg, policy)
    }

    /// Shard with a custom [`SyncPolicy`] — the `SetcondPull`/`SetcondPush`
    /// extension point (`cfg.model` is then only informational).
    pub fn with_policy(cfg: ShardConfig, policy: Box<dyn SyncPolicy>) -> Self {
        assert!(cfg.num_workers > 0, "need at least one worker");
        ServerShard {
            progress: ProgressTable::new(cfg.num_workers),
            policy,
            slab: Values::default(),
            keys: Vec::new(),
            lens: Vec::new(),
            index: HashMap::new(),
            v_train: 0,
            buffer: DprBuffer::new(),
            stats: ShardStats::default(),
            last_significance: vec![None; cfg.num_workers as usize],
            tracer: Tracer::disabled(),
            cfg,
        }
    }

    /// Attach a tracer; events record against this shard's `server_id`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Install the initial value of a parameter (`w_0`, Algorithm 1 line 1).
    /// A new key is appended to the slab, in place unless a reply still
    /// holds it; a held one keeps its place and takes the new values, which
    /// rebuilds the slab. Either way a reply handed out earlier keeps the
    /// values it was given.
    pub fn init_param(&mut self, key: u64, vals: impl AsRef<[f32]>) {
        let vals = vals.as_ref();
        if !self.index.contains_key(&key) {
            let start = self.slab.len();
            let mut slab = std::mem::take(&mut self.slab).into_mut();
            slab.extend_from_slice(vals);
            self.slab = slab.freeze();
            self.keys.push(key);
            self.lens.push(vals.len() as u32);
            self.index.insert(key, start..start + vals.len());
            return;
        }
        let old_len = self.index[&key].len();
        let mut slab = ValuesMut::with_capacity(self.slab.len() - old_len + vals.len());
        let mut at = 0;
        for (k, len) in self.keys.iter().zip(&mut self.lens) {
            let range = self.index.get_mut(k).expect("every key is indexed");
            if *k == key {
                slab.extend_from_slice(vals);
                *len = vals.len() as u32;
            } else {
                slab.extend_from_values(&self.slab.slice(range.clone()));
            }
            *range = at..at + *len as usize;
            at = range.end;
        }
        self.slab = slab.freeze();
    }

    /// Make room in the slab for `values` more values, so that installing
    /// them key by key ([`init_param`](Self::init_param) of new keys)
    /// copies each value once and reallocates nothing.
    pub fn reserve(&mut self, values: usize) {
        let mut slab = std::mem::take(&mut self.slab).into_mut();
        slab.reserve(values);
        self.slab = slab.freeze();
    }

    /// Jump `V_train` forward without gradient traffic — checkpoint restore
    /// only. Panics if training already progressed past the target (a
    /// restore must never rewind) or if DPRs are pending (they would index
    /// a progress space that no longer exists).
    pub fn fast_forward(&mut self, v_train: u64) {
        assert!(
            v_train >= self.v_train,
            "fast_forward would rewind {} -> {v_train}",
            self.v_train
        );
        assert!(self.buffer.is_empty(), "fast_forward with pending DPRs");
        self.v_train = v_train;
        self.progress.prune_below(v_train);
    }

    /// Re-seed progress bookkeeping from a checkpoint's applied-push
    /// watermark (recovery path). A gapless watermark means the applied
    /// set for `worker` is exactly `0..=watermark`, so this observes the
    /// worker at that progress and reconstructs `Count[i]` for every
    /// iteration at or above `V_train`. Without it, replayed pushes that a
    /// recovery layer deduplicates would never re-enter the counts and a
    /// worker that ran ahead pre-crash could stall `V_train` forever.
    pub fn seed_applied(&mut self, worker: u32, watermark: u64) {
        self.progress.observe(worker, watermark);
        for i in self.v_train..=watermark {
            self.progress.record_push(i);
        }
    }

    /// Current overall training progress of this shard.
    pub fn v_train(&self) -> u64 {
        self.v_train
    }

    /// Shard configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// Synchronization statistics.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// DPRs currently waiting in the buffer.
    pub fn pending_dprs(&self) -> usize {
        self.buffer.len()
    }

    /// Read a parameter (test/diagnostic access): a view of the slab, so
    /// the next push copies it rather than change what this returned.
    pub fn read_param(&self, key: u64) -> Option<Values> {
        self.index.get(&key).map(|r| self.slab.slice(r.clone()))
    }

    /// Snapshot of the synchronization state exposed to conditions.
    pub fn sync_state(&self) -> SyncState {
        SyncState {
            v_train: self.v_train,
            count_at_v_train: self.progress.count_at(self.v_train),
            num_workers: self.cfg.num_workers,
            fastest: self.progress.fastest().unwrap_or(0),
            slowest: self.progress.slowest_including_silent(),
        }
    }

    /// `PullHandler` (Algorithm 1, server lines 2–13).
    ///
    /// `draw` is a uniform `[0,1)` sample consumed by probabilistic models;
    /// `significance` optionally carries the worker's latest gradient
    /// significance for dynamic PSSP.
    pub fn on_pull(
        &mut self,
        worker: u32,
        progress: u64,
        keys: &[u64],
        draw: f64,
        significance: Option<f64>,
    ) -> PullOutcome {
        self.on_pull_ctx(worker, progress, keys, draw, significance, None)
    }

    /// [`ServerShard::on_pull`] with the request's causal context: the
    /// `PullRequested`/`PullDeferred` events it records — and, if deferred,
    /// the eventual `DprReleased` — all join the request's waterfall.
    pub fn on_pull_ctx(
        &mut self,
        worker: u32,
        progress: u64,
        keys: &[u64],
        draw: f64,
        significance: Option<f64>,
        ctx: Option<CausalCtx>,
    ) -> PullOutcome {
        let start = self.tracer.now();
        self.progress.observe(worker, progress);
        self.stats.pulls_total += 1;
        // Codec-measured request size: exactly what encode(SPull) produces.
        let req_bytes = codec::spull_wire_len(keys.len()) as u64;
        self.stats.bytes_in += req_bytes;
        // `PullRequested` spans the pull's evaluation, plus the gather of
        // its reply when it is answered at once.
        let requested = stamp_ctx(
            RecordArgs::new()
                .shard(self.cfg.server_id)
                .worker(worker)
                .progress(progress)
                .v_train(self.v_train)
                .bytes(req_bytes),
            ctx,
        );
        let significance = significance.or(self.last_significance[worker as usize]);
        let st = self.sync_state();
        let deterministic_ok = self.policy.release_permitted(&st, progress);
        if self
            .policy
            .pull_permitted(&st, progress, draw, significance)
        {
            if !deterministic_ok {
                // Past the bound but admitted by a probability draw.
                self.stats.pssp_passes += 1;
            }
            self.stats.pulls_immediate += 1;
            let kv = self.gather(keys);
            self.stats.bytes_out += codec::pull_response_wire_len(&kv) as u64;
            self.tracer
                .record_span(EventKind::PullRequested, start, requested);
            PullOutcome::Respond {
                kv,
                version: self.v_train,
            }
        } else {
            self.tracer
                .record_span(EventKind::PullRequested, start, requested);
            self.stats.dprs += 1;
            self.tracer.record(
                EventKind::PullDeferred,
                stamp_ctx(
                    RecordArgs::new()
                        .shard(self.cfg.server_id)
                        .worker(worker)
                        .progress(progress)
                        .v_train(self.v_train),
                    ctx,
                ),
            );
            self.buffer.defer(
                self.cfg.policy,
                DeferredPull {
                    worker,
                    progress,
                    keys: keys.to_vec(),
                    deferred_at: self.v_train,
                    ctx,
                },
            );
            self.stats.dpr_buffer_peak = self.buffer.peak_pending() as u64;
            PullOutcome::Deferred
        }
    }

    /// `PushHandler` (Algorithm 1, server lines 14–25). Applies the
    /// gradients, updates `Count`, and — whenever the push condition fires —
    /// advances `V_train` and releases every DPR the [`DprPolicy`] admits.
    pub fn on_push(&mut self, worker: u32, progress: u64, kv: &KvPairs) -> Vec<ReleasedPull> {
        self.on_push_ctx(worker, progress, kv, None)
    }

    /// [`ServerShard::on_push`] with the push's causal context: the
    /// `PushApplied`/`LatePushDropped` event joins the pushing request's
    /// waterfall, and `PushApplied` spans the apply. Released DPRs keep
    /// their *own* original pull contexts.
    pub fn on_push_ctx(
        &mut self,
        worker: u32,
        progress: u64,
        kv: &KvPairs,
        ctx: Option<CausalCtx>,
    ) -> Vec<ReleasedPull> {
        debug_assert!(kv.is_consistent(), "inconsistent KvPairs in push");
        let start = self.tracer.now();
        self.progress.observe(worker, progress);
        self.stats.pushes += 1;
        let push_bytes = codec::spush_wire_len(kv) as u64;
        self.stats.bytes_in += push_bytes;

        let late = progress < self.v_train;
        if late && !self.policy.accept_late_push() {
            self.stats.late_pushes_dropped += 1;
            self.tracer.record(
                EventKind::LatePushDropped,
                stamp_ctx(
                    RecordArgs::new()
                        .shard(self.cfg.server_id)
                        .worker(worker)
                        .progress(progress)
                        .v_train(self.v_train)
                        .bytes(push_bytes),
                    ctx,
                ),
            );
        } else {
            if self.policy.wants_significance() {
                self.last_significance[worker as usize] = Some(self.push_significance(kv));
            }
            self.apply_gradients(kv);
            self.tracer.record_span(
                EventKind::PushApplied,
                start,
                stamp_ctx(
                    RecordArgs::new()
                        .shard(self.cfg.server_id)
                        .worker(worker)
                        .progress(progress)
                        .v_train(self.v_train)
                        .bytes(push_bytes),
                    ctx,
                ),
            );
        }
        self.progress.record_push(progress);
        let st = self.sync_state();
        self.policy.after_push(&st);

        let mut released = Vec::new();
        // The push condition may fire repeatedly: counts for later iterations
        // can already be complete (workers running ahead under SSP/ASP).
        loop {
            let st = self.sync_state();
            if !self.policy.push_fires(&st) {
                break;
            }
            self.v_train += 1;
            self.stats.v_train_advances += 1;
            self.tracer.record(
                EventKind::VTrainAdvanced,
                RecordArgs::new()
                    .shard(self.cfg.server_id)
                    .v_train(self.v_train),
            );
            self.progress.prune_below(self.v_train);
            let st = self.sync_state();
            for dpr in self
                .buffer
                .release(self.cfg.policy, self.policy.as_ref(), &st)
            {
                released.push(self.answer_dpr(dpr));
            }
        }
        released
    }

    /// Point `worker`'s DPR parked at `progress` at a new key set (see
    /// [`DprBuffer::retarget`]): the eventual release gathers `keys`. No
    /// condition is evaluated and no statistic moves.
    pub fn retarget_dpr(&mut self, worker: u32, progress: u64, keys: &[u64]) -> bool {
        self.buffer.retarget(worker, progress, keys)
    }

    /// Flush every remaining DPR regardless of condition (engine shutdown so
    /// no worker blocks forever; responses carry the latest parameters).
    pub fn drain_shutdown(&mut self) -> Vec<ReleasedPull> {
        let drained = self.buffer.drain_all();
        drained.into_iter().map(|d| self.answer_dpr(d)).collect()
    }

    /// Gather a released DPR's reply; its `DprReleased` spans the work.
    fn answer_dpr(&mut self, dpr: DeferredPull) -> ReleasedPull {
        let start = self.tracer.now();
        let kv = self.gather(&dpr.keys);
        let resp_bytes = codec::pull_response_wire_len(&kv) as u64;
        self.stats.bytes_out += resp_bytes;
        self.stats.dprs_released += 1;
        let waited = self.v_train.saturating_sub(dpr.deferred_at);
        self.stats.dpr_wait_iterations += waited;
        self.stats.dpr_wait_hist.record(waited);
        self.tracer.record_span(
            EventKind::DprReleased,
            start,
            stamp_ctx(
                RecordArgs::new()
                    .shard(self.cfg.server_id)
                    .worker(dpr.worker)
                    .progress(dpr.progress)
                    .v_train(self.v_train)
                    .bytes(resp_bytes),
                dpr.ctx,
            ),
        );
        ReleasedPull {
            worker: dpr.worker,
            progress: dpr.progress,
            kv,
            version: self.v_train,
            waited_iterations: waited,
            ctx: dpr.ctx,
        }
    }

    /// Latest gradient significance observed for `worker` — `None` before
    /// its first applied push, and always under a policy that does not read
    /// it.
    pub fn significance_of(&self, worker: u32) -> Option<f64> {
        self.last_significance[worker as usize]
    }

    /// `SF(g, w) = |g|/|w|` across all keys of the push, measured against the
    /// *current* parameters (before applying the push).
    fn push_significance(&self, kv: &KvPairs) -> f64 {
        let mut g2 = 0.0f64;
        let mut w2 = 0.0f64;
        for (key, grad) in kv.iter() {
            g2 += grad.iter().map(|x| (x as f64) * (x as f64)).sum::<f64>();
            if let Some(param) = self.read_param(key) {
                w2 += param.iter().map(|x| (x as f64) * (x as f64)).sum::<f64>();
            }
        }
        if w2 == 0.0 {
            0.0
        } else {
            (g2 / w2).sqrt()
        }
    }

    /// Fold a push into the slab, in place unless a reply still holds it —
    /// where a gradient's wire bytes are read as `f32`, once. `w += g / N`
    /// (Algorithm 1 line 15): workers send pre-scaled updates (e.g.
    /// `−lr·∇`) and the server averages them.
    fn apply_gradients(&mut self, kv: &KvPairs) {
        let scale = 1.0 / self.cfg.num_workers as f32;
        for (key, grad) in kv.iter() {
            let Some(range) = self.index.get(&key) else {
                debug_assert!(false, "push for unknown key {key:#x}");
                continue;
            };
            self.slab.add_scaled_in(range.clone(), &grad, scale);
        }
    }

    fn gather(&self, keys: &[u64]) -> KvPairs {
        let kv = self.snapshot(keys);
        debug_assert_eq!(kv.len(), keys.len(), "pull for an unknown key");
        kv
    }

    /// The stored values of `keys` as one batch, skipping keys this shard
    /// does not hold. The shard's whole key list in store order is the slab
    /// itself, shared; any other key set is gathered, byte for byte, into
    /// one allocation of its exact size.
    pub(crate) fn snapshot(&self, keys: &[u64]) -> KvPairs {
        if keys == self.keys {
            return KvPairs {
                keys: self.keys.clone(),
                lens: self.lens.clone(),
                vals: self.slab.clone(),
            };
        }
        let held = || {
            keys.iter()
                .filter_map(|&key| Some((key, self.index.get(&key)?)))
        };
        let mut kv = KvPairs {
            keys: Vec::with_capacity(keys.len()),
            lens: Vec::with_capacity(keys.len()),
            ..KvPairs::default()
        };
        let mut payload = ValuesMut::with_capacity(held().map(|(_, r)| r.len()).sum());
        for (key, range) in held() {
            kv.keys.push(key);
            kv.lens.push(range.len() as u32);
            payload.extend_from_values(&self.slab.slice(range.clone()));
        }
        kv.vals = payload.freeze();
        kv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(n: u32, model: SyncModel, policy: DprPolicy) -> ServerShard {
        let mut s = ServerShard::new(ShardConfig {
            server_id: 0,
            num_workers: n,
            model,
            policy,
        });
        s.init_param(0, vec![0.0; 2]);
        s
    }

    fn push1(vals: [f32; 2]) -> KvPairs {
        KvPairs::single(0, vals.to_vec())
    }

    #[test]
    fn bsp_lockstep_two_workers() {
        let mut s = shard(2, SyncModel::Bsp, DprPolicy::LazyExecution);
        // Worker 0 finishes iteration 0, pushes, pulls → deferred.
        assert!(s.on_push(0, 0, &push1([2.0, 0.0])).is_empty());
        assert_eq!(s.on_pull(0, 0, &[0], 0.5, None), PullOutcome::Deferred);
        assert_eq!(s.v_train(), 0);
        // Worker 1 completes the iteration: V_train advances and worker 0's
        // DPR is released with fully aggregated parameters.
        let released = s.on_push(1, 0, &push1([4.0, 0.0]));
        assert_eq!(s.v_train(), 1);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].worker, 0);
        assert_eq!(released[0].kv.vals, vec![3.0, 0.0]); // (2+4)/2
        assert_eq!(released[0].version, 1);
    }

    #[test]
    fn asp_pull_always_immediate() {
        let mut s = shard(4, SyncModel::Asp, DprPolicy::LazyExecution);
        for i in 0..10u64 {
            s.on_push(0, i, &push1([1.0, 1.0]));
            match s.on_pull(0, i, &[0], 0.9, None) {
                PullOutcome::Respond { version, .. } => assert_eq!(version, 0),
                PullOutcome::Deferred => panic!("ASP must not defer"),
            }
        }
        assert_eq!(s.stats().dprs, 0);
        assert_eq!(s.stats().pulls_immediate, 10);
    }

    #[test]
    fn ssp_staleness_invariant_holds_for_immediate_pulls() {
        // No immediate pull response may ever be given to a worker whose
        // progress exceeds V_train + s.
        let s_threshold = 2u64;
        let mut s = shard(
            2,
            SyncModel::Ssp { s: s_threshold },
            DprPolicy::LazyExecution,
        );
        let mut deferred = 0;
        // Worker 0 races ahead; worker 1 lags.
        for i in 0..6u64 {
            s.on_push(0, i, &push1([1.0, 0.0]));
            match s.on_pull(0, i, &[0], 0.5, None) {
                PullOutcome::Respond { .. } => {
                    assert!(
                        i < s.v_train() + s_threshold,
                        "staleness violated at i={i}, v={}",
                        s.v_train()
                    );
                }
                PullOutcome::Deferred => deferred += 1,
            }
        }
        assert!(deferred > 0, "racing worker must eventually defer");
    }

    #[test]
    fn lazy_release_returns_fully_updated_params() {
        // Figure 3(b): the fast worker's DPR is answered only after the slow
        // worker has pushed ALL missing gradients.
        let mut s = shard(2, SyncModel::Ssp { s: 1 }, DprPolicy::LazyExecution);
        s.on_push(0, 0, &push1([2.0, 0.0]));
        // Worker 0 at progress 0, v_train 0, gap 0 < 1 → immediate.
        assert!(matches!(
            s.on_pull(0, 0, &[0], 0.5, None),
            PullOutcome::Respond { .. }
        ));
        s.on_push(0, 1, &push1([2.0, 0.0]));
        // gap = 1 − 0 = 1 == s → deferred.
        assert_eq!(s.on_pull(0, 1, &[0], 0.5, None), PullOutcome::Deferred);
        // Slow worker pushes iteration 0: v_train → 1, but lazy needs v > 1.
        assert!(s.on_push(1, 0, &push1([4.0, 0.0])).is_empty());
        // Slow worker pushes iteration 1: v_train → 2, DPR released with all
        // four gradients folded in: (2+2+4+4)/2 = 6.
        let released = s.on_push(1, 1, &push1([4.0, 0.0]));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].kv.vals, vec![6.0, 0.0]);
        assert_eq!(released[0].waited_iterations, 2);
    }

    #[test]
    fn soft_barrier_release_may_return_stale_params() {
        // Figure 3(a): with the soft barrier the DPR is released as soon as
        // the bound is re-satisfied, BEFORE the slow worker pushed everything.
        let mut s = shard(2, SyncModel::Ssp { s: 1 }, DprPolicy::SoftBarrier);
        s.on_push(0, 0, &push1([2.0, 0.0]));
        s.on_push(0, 1, &push1([2.0, 0.0]));
        assert_eq!(s.on_pull(0, 1, &[0], 0.5, None), PullOutcome::Deferred);
        // Slow worker pushes iteration 0 only: v_train → 1, gap = 0 < s →
        // released already, with worker 1's iteration-1 gradient still absent.
        let released = s.on_push(1, 0, &push1([4.0, 0.0]));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].kv.vals, vec![4.0, 0.0]); // (2+2+4)/2, missing 4
        assert_eq!(released[0].waited_iterations, 1);
    }

    #[test]
    fn drop_stragglers_advances_without_everyone_and_drops_late_gradients() {
        let mut s = shard(
            3,
            SyncModel::DropStragglers { n_t: 2 },
            DprPolicy::LazyExecution,
        );
        s.on_push(0, 0, &push1([3.0, 0.0]));
        let rel = s.on_push(1, 0, &push1([3.0, 0.0]));
        assert!(rel.is_empty());
        assert_eq!(s.v_train(), 1, "advances after N_t = 2 pushes");
        // The straggler's late push for iteration 0 is rejected.
        s.on_push(2, 0, &push1([300.0, 0.0]));
        assert_eq!(s.stats().late_pushes_dropped, 1);
        assert_eq!(s.read_param(0).unwrap(), [2.0, 0.0]); // (3+3)/3
    }

    #[test]
    fn pssp_pass_counted_when_probability_admits_past_bound() {
        let mut s = shard(
            2,
            SyncModel::PsspConst { s: 1, c: 0.3 },
            DprPolicy::LazyExecution,
        );
        s.on_push(0, 2, &push1([0.0, 0.0]));
        // gap 2 > s=1; draw 0.9 > c → admitted probabilistically.
        match s.on_pull(0, 2, &[0], 0.9, None) {
            PullOutcome::Respond { .. } => {}
            PullOutcome::Deferred => panic!("draw above c must pass"),
        }
        assert_eq!(s.stats().pssp_passes, 1);
        // draw 0.1 ≤ c → blocked.
        assert_eq!(s.on_pull(0, 3, &[0], 0.1, None), PullOutcome::Deferred);
    }

    #[test]
    fn significance_is_measured_only_for_the_policy_that_reads_it() {
        use crate::pssp::Alpha;
        let unread = [
            SyncModel::Bsp,
            SyncModel::Ssp { s: 2 },
            SyncModel::PsspConst { s: 1, c: 0.3 },
            SyncModel::PsspDynamic {
                s: 1,
                alpha: Alpha::Constant(0.5),
            },
        ];
        for model in unread {
            let mut s = shard(2, model, DprPolicy::LazyExecution);
            s.on_push(0, 0, &push1([3.0, 4.0]));
            s.on_push(0, 1, &push1([3.0, 4.0]));
            assert_eq!(s.significance_of(0), None, "{model:?}");
        }

        let mut s = shard(
            2,
            SyncModel::PsspDynamic {
                s: 1,
                alpha: Alpha::Significance {
                    floor: 0.0,
                    cap: 1.0,
                },
            },
            DprPolicy::LazyExecution,
        );
        assert_eq!(s.significance_of(0), None, "no push yet");
        // Against all-zero parameters SF is defined as 0; the second push
        // sees w = (3, 4)/2 and measures |g|/|w| = 5 / 2.5.
        s.on_push(0, 0, &push1([3.0, 4.0]));
        assert_eq!(s.significance_of(0), Some(0.0));
        s.on_push(0, 1, &push1([3.0, 4.0]));
        assert_eq!(s.significance_of(0), Some(2.0));
        assert_eq!(s.significance_of(1), None, "worker 1 never pushed");
    }

    fn payload_of(outcome: PullOutcome) -> KvPairs {
        match outcome {
            PullOutcome::Respond { kv, .. } => kv,
            PullOutcome::Deferred => panic!("ASP must not defer"),
        }
    }

    fn at(kv: &KvPairs) -> *const u8 {
        kv.vals.as_le_bytes().as_ptr()
    }

    #[test]
    fn a_full_pull_allocates_no_payload() {
        let mut s = shard(1, SyncModel::Asp, DprPolicy::LazyExecution);
        s.init_param(1, vec![1.0; 4096]);
        s.init_param(2, vec![2.0; 37]);
        let (_, before) = fluentps_util::alloc::thread_counters();
        let kv = payload_of(s.on_pull(0, 0, &[0, 1, 2], 0.5, None));
        let (_, after) = fluentps_util::alloc::thread_counters();
        assert_eq!(kv.lens, vec![2, 4096, 37]);
        assert_eq!(kv.vals.len(), 2 + 4096 + 37);
        assert!(
            after - before < 1024,
            "a whole-shard reply allocated {} bytes",
            after - before
        );
        assert_eq!(
            at(&kv),
            s.slab.as_le_bytes().as_ptr(),
            "the payload is the store"
        );
        assert_eq!(kv.keys.capacity(), kv.keys.len());
        assert_eq!(kv.lens.capacity(), kv.lens.len());
    }

    #[test]
    fn installing_a_shard_copies_each_value_a_bounded_number_of_times() {
        // Installed as `launch::shard_server` does, into a slab reserved at
        // its final size, from borrowed slices: appending a key reopens the
        // slab rather than rebuilding it, so the set-up allocates the slab
        // once, plus a handle per key.
        let mut s = shard(1, SyncModel::Asp, DprPolicy::LazyExecution);
        let values: Vec<Vec<f32>> = (1..=64).map(|key| vec![key as f32; 1024]).collect();
        let (_, before) = fluentps_util::alloc::thread_counters();
        s.reserve(64 * 1024);
        for (key, vals) in (1..=64).zip(&values) {
            s.init_param(key, vals);
        }
        let (_, after) = fluentps_util::alloc::thread_counters();
        let size = 4 * 64 * 1024;
        assert!(
            after - before < size + size / 16,
            "installing {size} bytes allocated {}",
            after - before
        );
        assert_eq!(s.read_param(64).unwrap(), vec![64.0; 1024]);
        assert_eq!(s.read_param(0).unwrap(), [0.0; 2]);
    }

    #[test]
    fn the_pulls_of_a_bsp_round_share_the_store() {
        let mut s = shard(2, SyncModel::Bsp, DprPolicy::LazyExecution);
        s.init_param(1, vec![1.0; 64]);
        s.on_push(0, 0, &push1([2.0, 0.0]));
        assert_eq!(s.on_pull(0, 0, &[0, 1], 0.5, None), PullOutcome::Deferred);
        let released = s.on_push(1, 0, &push1([4.0, 0.0]));
        let second = payload_of(s.on_pull(1, 0, &[0, 1], 0.5, None));
        assert_eq!(at(&released[0].kv), s.slab.as_le_bytes().as_ptr());
        assert_eq!(at(&second), at(&released[0].kv), "one store, two replies");
        assert_eq!(second.vals.slice(0..3), [3.0, 0.0, 1.0]);
        // So does the checkpoint at the same `V_train`.
        assert_eq!(at(&s.snapshot(&[0, 1])), at(&second));
    }

    #[test]
    fn an_unshared_store_is_updated_in_place() {
        let mut s = shard(2, SyncModel::Asp, DprPolicy::LazyExecution);
        s.init_param(1, vec![1.0; 64]);
        drop(payload_of(s.on_pull(0, 0, &[0, 1], 0.5, None)));
        let store = s.slab.as_le_bytes().as_ptr();
        s.on_push(0, 0, &push1([2.0, 4.0]));
        assert_eq!(
            s.slab.as_le_bytes().as_ptr(),
            store,
            "no reply held it: no copy"
        );
        assert_eq!(s.read_param(0).unwrap(), [1.0, 2.0]);
    }

    #[test]
    fn a_reply_held_across_the_next_push_keeps_its_values() {
        let mut s = shard(2, SyncModel::Asp, DprPolicy::LazyExecution);
        s.init_param(1, vec![1.0; 64]);
        let held = payload_of(s.on_pull(0, 0, &[0, 1], 0.5, None));
        let view = s.read_param(1).unwrap();
        s.on_push(
            0,
            0,
            &KvPairs::from_slices(&[(0, &[2.0, 4.0]), (1, &[2.0; 64])]),
        );
        assert_ne!(
            s.slab.as_le_bytes().as_ptr(),
            at(&held),
            "held: the push copied"
        );
        assert_eq!(held.vals.slice(0..3), [0.0, 0.0, 1.0]);
        assert_eq!(view, vec![1.0; 64]);
        let after = payload_of(s.on_pull(0, 1, &[0, 1], 0.5, None));
        assert_eq!(after.vals.slice(0..3), [1.0, 2.0, 2.0]);
        assert_eq!(at(&after), s.slab.as_le_bytes().as_ptr());
    }

    #[test]
    fn pulls_share_one_snapshot_until_the_store_changes() {
        let mut s = shard(2, SyncModel::Asp, DprPolicy::LazyExecution);
        s.init_param(1, vec![1.0; 64]);
        let first = payload_of(s.on_pull(0, 0, &[0, 1], 0.5, None));
        let second = payload_of(s.on_pull(1, 0, &[0, 1], 0.5, None));
        assert_eq!(at(&first), at(&second), "no push in between: one store");
        // So does whoever else snapshots the same keys (the checkpoint).
        assert_eq!(at(&s.snapshot(&[0, 1])), at(&first));
        // A different key set is gathered into a payload of its own...
        let narrow = payload_of(s.on_pull(0, 0, &[1], 0.5, None));
        assert_eq!(narrow.keys, [1]);
        assert_eq!(narrow.vals, vec![1.0; 64]);
        assert_ne!(at(&narrow), at(&first));
        // ...and the whole key list, asked again, is still the store itself:
        // there is no remembered snapshot for the narrow pull to replace.
        let again = payload_of(s.on_pull(0, 0, &[0, 1], 0.5, None));
        assert_eq!(at(&again), at(&first));
        assert_eq!(again, first);

        // A push changes it: the next pull sees the new values, and the
        // payload handed out earlier still holds the old ones.
        s.on_push(0, 0, &push1([2.0, 4.0]));
        let after = payload_of(s.on_pull(0, 1, &[0, 1], 0.5, None));
        assert_ne!(at(&after), at(&again));
        assert_eq!(after.vals.slice(0..2), [1.0, 2.0]);
        assert_eq!(again.vals.slice(0..2), [0.0, 0.0]);
        // So does installing a parameter.
        s.init_param(1, vec![7.0; 64]);
        assert_eq!(s.snapshot(&[0, 1]).vals.at(2), 7.0);
        // A dropped late push changes nothing.
        let mut d = shard(
            2,
            SyncModel::DropStragglers { n_t: 1 },
            DprPolicy::LazyExecution,
        );
        d.on_push(0, 0, &push1([1.0, 1.0]));
        let before = d.snapshot(&[0]);
        d.on_push(1, 0, &push1([9.0, 9.0]));
        assert_eq!(d.stats().late_pushes_dropped, 1);
        assert_eq!(at(&d.snapshot(&[0])), at(&before));
    }

    #[test]
    fn subset_pulls_and_late_installs_get_the_right_values() {
        let mut s = shard(2, SyncModel::Asp, DprPolicy::LazyExecution);
        s.init_param(1, vec![1.0; 64]);
        s.on_push(0, 0, &push1([2.0, 4.0]));
        // Out of store order is a subset too, answered in the order asked.
        let swapped = payload_of(s.on_pull(0, 0, &[1, 0], 0.5, None));
        assert_eq!(swapped.lens, [64, 2]);
        assert_eq!(swapped.vals.slice(63..66), [1.0, 1.0, 2.0]);
        let full = payload_of(s.on_pull(0, 0, &[0, 1], 0.5, None));
        // Installing a key after pulls began (the degraded-mode hand-off)
        // appends it; the old key list, the new one and the new key alone
        // all answer right, and the reply handed out before is untouched.
        s.init_param(5, vec![5.0; 3]);
        let old_keys = s.snapshot(&[0, 1]);
        assert_eq!(
            old_keys,
            KvPairs::from_slices(&[(0, &[1.0, 2.0]), (1, &[1.0; 64])])
        );
        let all = s.snapshot(&[0, 1, 5]);
        assert_eq!(at(&all), s.slab.as_le_bytes().as_ptr());
        assert_eq!(all.vals.slice(66..69), [5.0; 3]);
        assert_eq!(s.snapshot(&[5]).vals, [5.0; 3]);
        assert_eq!(full.vals.len(), 66);
        s.on_push(1, 0, &KvPairs::from_slices(&[(5, &[2.0; 3])]));
        assert_eq!(s.read_param(5).unwrap(), [6.0; 3]);
        assert_eq!(s.read_param(1).unwrap(), vec![1.0; 64]);
        // A reinstall with another length moves the keys behind it.
        s.init_param(0, vec![3.0]);
        assert_eq!(s.snapshot(&[0, 1, 5]).lens, [1, 64, 3]);
        assert_eq!(s.read_param(5).unwrap(), [6.0; 3]);
        assert_eq!(s.read_param(0).unwrap(), [3.0]);
        assert_eq!(full.vals.slice(0..3), [1.0, 2.0, 1.0]);
    }

    #[test]
    fn a_retargeted_dpr_is_not_answered_from_the_stale_snapshot() {
        let mut s = shard(2, SyncModel::Bsp, DprPolicy::LazyExecution);
        s.init_param(1, vec![5.0; 3]);
        s.on_push(0, 0, &push1([2.0, 0.0]));
        assert_eq!(s.on_pull(0, 0, &[0], 0.5, None), PullOutcome::Deferred);
        assert!(s.retarget_dpr(0, 0, &[0, 1]));
        let released = s.on_push(1, 0, &push1([4.0, 0.0]));
        assert_eq!(released.len(), 1);
        // The release carries the retargeted key set...
        assert_eq!(released[0].kv.keys, [0, 1]);
        assert_eq!(released[0].kv.vals, [3.0, 0.0, 5.0, 5.0, 5.0]);
        // ...and the other worker's pull, for the original keys only, gets
        // exactly those — not the wider snapshot the release left behind.
        let narrow = payload_of(s.on_pull(1, 0, &[0], 0.5, None));
        assert_eq!(narrow.keys, [0]);
        assert_eq!(narrow.vals, [3.0, 0.0]);
    }

    #[test]
    fn push_condition_cascade_advances_multiple_iterations() {
        // Under ASP both workers can be several iterations ahead; when the
        // lagging counts complete, V_train must catch up in one push call.
        let mut s = shard(2, SyncModel::Asp, DprPolicy::LazyExecution);
        // Worker 0 pushes iterations 0..3; worker 1 silent → v_train stays 0.
        for i in 0..4u64 {
            s.on_push(0, i, &push1([1.0, 0.0]));
        }
        assert_eq!(s.v_train(), 0);
        // Worker 1 pushes 0..3 — each push should advance v_train once; the
        // final state has all counts complete.
        for i in 0..4u64 {
            s.on_push(1, i, &push1([1.0, 0.0]));
        }
        assert_eq!(s.v_train(), 4);
    }

    #[test]
    fn gradients_average_across_workers() {
        let mut s = shard(4, SyncModel::Asp, DprPolicy::LazyExecution);
        for w in 0..4 {
            s.on_push(w, 0, &push1([4.0, 8.0]));
        }
        assert_eq!(s.read_param(0).unwrap(), [4.0, 8.0]); // 4·(x/4)
    }

    #[test]
    fn drain_shutdown_flushes_all_pending() {
        let mut s = shard(2, SyncModel::Bsp, DprPolicy::LazyExecution);
        assert_eq!(s.on_pull(0, 5, &[0], 0.5, None), PullOutcome::Deferred);
        assert_eq!(s.on_pull(1, 9, &[0], 0.5, None), PullOutcome::Deferred);
        let out = s.drain_shutdown();
        assert_eq!(out.len(), 2);
        assert_eq!(s.pending_dprs(), 0);
    }

    #[test]
    fn stats_account_pulls_and_dprs() {
        let mut s = shard(2, SyncModel::Bsp, DprPolicy::LazyExecution);
        s.on_pull(0, 0, &[0], 0.5, None); // deferred
        s.on_push(0, 0, &push1([1.0, 1.0]));
        s.on_push(1, 0, &push1([1.0, 1.0])); // releases the DPR
        let st = s.stats();
        assert_eq!(st.pulls_total, 1);
        assert_eq!(st.dprs, 1);
        assert_eq!(st.dprs_released, 1);
        assert_eq!(st.pushes, 2);
        assert_eq!(st.v_train_advances, 1);
        assert!(st.bytes_in > 0 && st.bytes_out > 0);
    }
}
