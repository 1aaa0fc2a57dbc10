//! Delayed pull requests and the lazy pull buffer (Section III-C).
//!
//! A pull that fails the pull condition becomes a *delayed pull request*
//! (DPR). How and when DPRs are answered is the [`DprPolicy`]:
//!
//! * [`DprPolicy::SoftBarrier`] — the classical SSP behaviour: the DPR is
//!   released as soon as the staleness bound is satisfied again, i.e. on the
//!   first `V_train` advance that brings the requester back within range. The
//!   returned parameters may still be missing gradients of in-flight slower
//!   iterations ("stale parameters"), and because the slowest worker remains
//!   `s−1` iterations behind, the barrier re-triggers almost every iteration.
//! * [`DprPolicy::LazyExecution`] — FluentPS's policy: the DPR is indexed by
//!   the *requester's progress* and executed only when `V_train` catches up
//!   with it, i.e. when every worker has pushed all gradients the requester
//!   is missing. The response is fully updated, and after release the
//!   requester restarts with a zero progress gap, so the pause frequency
//!   collapses (the paper measures up to 131× fewer DPRs).

use std::collections::BTreeMap;

use fluentps_transport::CausalCtx;

use crate::condition::{SyncPolicy, SyncState};

/// Execution policy for delayed pull requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DprPolicy {
    /// Release a DPR as soon as the pull condition holds again (classical
    /// SSP soft barrier).
    SoftBarrier,
    /// Release a DPR only when `V_train` has caught up with the requester's
    /// progress (FluentPS lazy execution). This is the default.
    #[default]
    LazyExecution,
}

/// A buffered pull awaiting release.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeferredPull {
    /// Requesting worker.
    pub worker: u32,
    /// The requester's progress when it sent the pull.
    pub progress: u64,
    /// Keys the pull asked for.
    pub keys: Vec<u64>,
    /// `V_train` at deferral time (diagnostics: how long the DPR waited in
    /// iterations is `release_v_train − deferred_at`).
    pub deferred_at: u64,
    /// Causal context of the originating `sPull`, carried through the buffer
    /// so the eventual release (and its `DprReleased` event) joins the same
    /// request waterfall as the deferral.
    pub ctx: Option<CausalCtx>,
}

/// The lazy pull buffer: DPRs indexed by the progress value their release is
/// keyed on.
#[derive(Debug, Default)]
pub struct DprBuffer {
    entries: BTreeMap<u64, Vec<DeferredPull>>,
    len: usize,
    total_deferred: u64,
    peak_pending: usize,
}

impl DprBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffer a deferred pull under `policy`.
    pub fn defer(&mut self, policy: DprPolicy, pull: DeferredPull) {
        // Lazy execution indexes by the requester's progress (Algorithm 1,
        // line 7); the soft barrier conceptually indexes by V_train, but we
        // store by requester progress in both cases and let the release scan
        // apply the policy-specific condition — this keeps a single buffer
        // type and makes release conditions explicit rather than positional.
        let _ = policy;
        self.entries.entry(pull.progress).or_default().push(pull);
        self.len += 1;
        self.total_deferred += 1;
        self.peak_pending = self.peak_pending.max(self.len);
    }

    /// Number of DPRs currently waiting.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no DPR is waiting.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total DPRs ever deferred (the paper's headline synchronization-
    /// frequency metric, reported per 100 iterations).
    pub fn total_deferred(&self) -> u64 {
        self.total_deferred
    }

    /// High-water mark of simultaneously buffered DPRs — how many workers
    /// were parked at once at the worst moment (observability: bounds the
    /// blast radius a slow shard inflicts on the cluster).
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Release every DPR that `policy` allows to run now. Called after each
    /// `V_train` advance (Algorithm 1, lines 18–21).
    ///
    /// * Lazy execution releases entries with `progress < v_train`: the
    ///   overall progress has caught up, so the response carries all the
    ///   gradients the requester was missing.
    /// * Soft barrier releases entries the model's deterministic pull bound
    ///   now admits (`release_permitted`), which happens `s` iterations
    ///   earlier than lazy execution.
    pub fn release(
        &mut self,
        policy: DprPolicy,
        model: &dyn SyncPolicy,
        st: &SyncState,
    ) -> Vec<DeferredPull> {
        let mut out = Vec::new();
        match policy {
            DprPolicy::LazyExecution => {
                // BTreeMap range drain: all indices strictly below V_train.
                let ready: Vec<u64> = self.entries.range(..st.v_train).map(|(&k, _)| k).collect();
                for k in ready {
                    if let Some(mut v) = self.entries.remove(&k) {
                        self.len -= v.len();
                        out.append(&mut v);
                    }
                }
            }
            DprPolicy::SoftBarrier => {
                let ready: Vec<u64> = self
                    .entries
                    .keys()
                    .copied()
                    .filter(|&p| model.release_permitted(st, p))
                    .collect();
                for k in ready {
                    if let Some(mut v) = self.entries.remove(&k) {
                        self.len -= v.len();
                        out.append(&mut v);
                    }
                }
            }
        }
        out
    }

    /// Replace the key set of `worker`'s DPR parked at `progress` — the
    /// worker re-issued the same pull under a new routing. The DPR keeps
    /// its place, its deferral time and its causal context. Returns false
    /// when no such DPR is parked.
    pub fn retarget(&mut self, worker: u32, progress: u64, keys: &[u64]) -> bool {
        let parked = self
            .entries
            .get_mut(&progress)
            .and_then(|v| v.iter_mut().find(|d| d.worker == worker));
        match parked {
            Some(dpr) => {
                dpr.keys = keys.to_vec();
                true
            }
            None => false,
        }
    }

    /// Drain every remaining DPR regardless of condition (used at shutdown
    /// so no worker is left blocked forever).
    pub fn drain_all(&mut self) -> Vec<DeferredPull> {
        let mut out = Vec::new();
        for (_, mut v) in std::mem::take(&mut self.entries) {
            out.append(&mut v);
        }
        self.len = 0;
        out
    }

    /// Iterate waiting DPRs (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &DeferredPull> {
        self.entries.values().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::SyncModel;

    fn pull(worker: u32, progress: u64) -> DeferredPull {
        DeferredPull {
            worker,
            progress,
            keys: vec![0],
            deferred_at: 0,
            ctx: None,
        }
    }

    fn st(v_train: u64) -> SyncState {
        SyncState {
            v_train,
            count_at_v_train: 0,
            num_workers: 4,
            fastest: v_train,
            slowest: v_train,
        }
    }

    #[test]
    fn lazy_releases_only_on_full_catch_up() {
        let model = SyncModel::Ssp { s: 2 }.into_policy();
        let mut buf = DprBuffer::new();
        buf.defer(DprPolicy::LazyExecution, pull(0, 5));
        // V_train reaching 5 is not enough: lazy wants progress < v_train.
        assert!(buf
            .release(DprPolicy::LazyExecution, &model, &st(5))
            .is_empty());
        let released = buf.release(DprPolicy::LazyExecution, &model, &st(6));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].progress, 5);
        assert!(buf.is_empty());
    }

    #[test]
    fn soft_barrier_releases_within_staleness_bound() {
        let model = SyncModel::Ssp { s: 2 }.into_policy();
        let mut buf = DprBuffer::new();
        buf.defer(DprPolicy::SoftBarrier, pull(0, 5));
        // gap = 5 − 3 = 2 == s → still blocked.
        assert!(buf
            .release(DprPolicy::SoftBarrier, &model, &st(3))
            .is_empty());
        // gap = 5 − 4 = 1 < s → released, s−1 iterations earlier than lazy.
        let released = buf.release(DprPolicy::SoftBarrier, &model, &st(4));
        assert_eq!(released.len(), 1);
    }

    #[test]
    fn soft_barrier_releases_strictly_earlier_than_lazy() {
        let model = SyncModel::Ssp { s: 3 }.into_policy();
        let mut soft = DprBuffer::new();
        let mut lazy = DprBuffer::new();
        soft.defer(DprPolicy::SoftBarrier, pull(0, 10));
        lazy.defer(DprPolicy::LazyExecution, pull(0, 10));
        let mut soft_release = None;
        let mut lazy_release = None;
        for v in 0..=12u64 {
            if soft_release.is_none()
                && !soft
                    .release(DprPolicy::SoftBarrier, &model, &st(v))
                    .is_empty()
            {
                soft_release = Some(v);
            }
            if lazy_release.is_none()
                && !lazy
                    .release(DprPolicy::LazyExecution, &model, &st(v))
                    .is_empty()
            {
                lazy_release = Some(v);
            }
        }
        assert_eq!(soft_release, Some(8)); // 10 < v + 3 → v ≥ 8
        assert_eq!(lazy_release, Some(11)); // 10 < v → v ≥ 11
    }

    #[test]
    fn multiple_entries_at_same_progress_all_release() {
        let model = SyncModel::Bsp.into_policy();
        let mut buf = DprBuffer::new();
        for w in 0..3 {
            buf.defer(DprPolicy::LazyExecution, pull(w, 2));
        }
        assert_eq!(buf.len(), 3);
        let out = buf.release(DprPolicy::LazyExecution, &model, &st(3));
        assert_eq!(out.len(), 3);
        assert_eq!(buf.total_deferred(), 3);
    }

    #[test]
    fn release_conserves_entries() {
        // Every deferred pull is released exactly once over increasing V_train.
        let model = SyncModel::Ssp { s: 1 }.into_policy();
        let mut buf = DprBuffer::new();
        for (w, p) in [(0u32, 1u64), (1, 3), (2, 5), (3, 5), (0, 7)] {
            buf.defer(DprPolicy::LazyExecution, pull(w, p));
        }
        let mut seen = 0;
        for v in 0..10u64 {
            seen += buf.release(DprPolicy::LazyExecution, &model, &st(v)).len();
        }
        assert_eq!(seen, 5);
        assert!(buf.is_empty());
    }

    #[test]
    fn drain_all_flushes_everything() {
        let mut buf = DprBuffer::new();
        buf.defer(DprPolicy::LazyExecution, pull(0, 100));
        buf.defer(DprPolicy::LazyExecution, pull(1, 200));
        assert_eq!(buf.drain_all().len(), 2);
        assert!(buf.is_empty());
        assert_eq!(buf.total_deferred(), 2);
    }

    #[test]
    fn retarget_swaps_the_keys_of_one_parked_pull_in_place() {
        let mut buf = DprBuffer::new();
        buf.defer(DprPolicy::LazyExecution, pull(0, 2));
        buf.defer(DprPolicy::LazyExecution, pull(1, 2));
        assert!(buf.retarget(1, 2, &[0, 7]));
        assert!(!buf.retarget(1, 3, &[9]), "nothing parked at progress 3");
        assert_eq!((buf.len(), buf.total_deferred()), (2, 2));
        let keys: Vec<_> = buf.iter().map(|d| (d.worker, d.keys.clone())).collect();
        assert_eq!(keys, [(0, vec![0]), (1, vec![0, 7])]);
    }

    #[test]
    fn peak_pending_is_a_high_water_mark() {
        let model = SyncModel::Bsp.into_policy();
        let mut buf = DprBuffer::new();
        for w in 0..3 {
            buf.defer(DprPolicy::LazyExecution, pull(w, 2));
        }
        assert_eq!(buf.peak_pending(), 3);
        buf.release(DprPolicy::LazyExecution, &model, &st(3));
        assert!(buf.is_empty());
        // Draining does not lower the peak; a later smaller wave keeps it.
        buf.defer(DprPolicy::LazyExecution, pull(0, 5));
        assert_eq!(buf.peak_pending(), 3);
    }
}
