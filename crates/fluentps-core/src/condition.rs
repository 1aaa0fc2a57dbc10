//! Condition-aware synchronization control (Sections III-A/III-B, Table III).
//!
//! FluentPS's unifying observation: every synchronization model is just a
//! pair of predicates evaluated on the server —
//!
//! | Model            | Pull condition                        | Push condition            |
//! |------------------|---------------------------------------|---------------------------|
//! | BSP              | `progress < V_train`                  | `Count[V_train] == N`     |
//! | ASP              | `progress < V_train + ∞`              | `Count[V_train] == N`     |
//! | SSP              | `progress < V_train + s`              | `Count[V_train] == N`     |
//! | DSPS             | `progress < V_train + s(t)`           | `Count[V_train] == N`     |
//! | Drop stragglers  | `progress < V_train`                  | `Count[V_train] == N_t`   |
//! | PSSP             | `progress < V_train + s` **or** `rand(0,1) > P` | `Count[V_train] == N` |
//!
//! [`SyncPolicy`] is the programmable `SetcondPull`/`SetcondPush` interface;
//! [`SyncModel`] provides all six built-in rows. Custom models plug in by
//! implementing the trait (see `tests/sync_models.rs` for an example that
//! builds a brand-new model out of the exposed synchronization state).

use crate::pssp::{constant_probability, dynamic_probability, Alpha};

/// The synchronization state a server shard exposes to its conditions —
/// exactly the details the paper says the `Setcond*` interfaces expose: the
/// overall progress, the per-iteration push count, and the progress of the
/// fastest/slowest worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncState {
    /// Overall training progress of this shard (`V_train`).
    pub v_train: u64,
    /// `Count[V_train]` — workers that pushed gradients for the current
    /// overall iteration.
    pub count_at_v_train: u32,
    /// Total number of workers.
    pub num_workers: u32,
    /// Fastest progress any worker has reported to this shard.
    pub fastest: u64,
    /// Slowest progress any worker has reported to this shard.
    pub slowest: u64,
}

/// A synchronization model expressed as a pull condition plus a push
/// condition — the `SetcondPull`/`SetcondPush` programming interface.
pub trait SyncPolicy: Send {
    /// Pull condition (Algorithm 1, server line 3). `true` means the server
    /// may answer the pull immediately; `false` defers it into the DPR
    /// buffer. `draw` is a uniform `[0,1)` sample for probabilistic models;
    /// `significance` is the optional gradient-significance hint.
    fn pull_permitted(
        &mut self,
        st: &SyncState,
        progress: u64,
        draw: f64,
        significance: Option<f64>,
    ) -> bool;

    /// Push condition (Algorithm 1, server line 17). `true` means enough
    /// gradients have been aggregated to advance `V_train` and execute
    /// buffered pulls.
    fn push_fires(&mut self, st: &SyncState) -> bool;

    /// Deterministic release check used by the soft-barrier policy when
    /// `V_train` advances: may a DPR with this progress be answered now?
    /// Probabilistic models use only their deterministic part here — a DPR
    /// was already "charged" its probability when it was deferred.
    fn release_permitted(&self, st: &SyncState, progress: u64) -> bool;

    /// Whether a push for an iteration *older* than `V_train` should still be
    /// folded into the parameters. Only the drop-stragglers model rejects
    /// late gradients.
    fn accept_late_push(&self) -> bool {
        true
    }

    /// Adaptation hook invoked after every applied push (used by DSPS to
    /// retune its staleness threshold at runtime).
    fn after_push(&mut self, _st: &SyncState) {}

    /// Whether [`SyncPolicy::pull_permitted`] consumes the shard-measured
    /// gradient significance of the worker's latest push when a pull carries
    /// no explicit hint. Measuring it costs two reductions over every pushed
    /// gradient and the parameters under it, so the shard skips them unless
    /// the policy says it reads the result.
    fn wants_significance(&self) -> bool {
        false
    }

    /// Short human-readable name (for reports and stats).
    fn name(&self) -> &'static str;
}

/// Runtime controller for DSPS (Dynamic Synchronous Parallel Strategy): the
/// staleness threshold follows the observed progress spread, clamped to
/// `[s_min, s_max]`. A persistently large spread widens `s` (don't stall the
/// cluster for a chronic straggler); a tight cluster narrows it (keep
/// parameters fresh).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DspsConfig {
    /// Lower bound for the adaptive threshold.
    pub s_min: u64,
    /// Upper bound for the adaptive threshold.
    pub s_max: u64,
    /// Initial threshold.
    pub s0: u64,
}

impl Default for DspsConfig {
    fn default() -> Self {
        DspsConfig {
            s_min: 1,
            s_max: 8,
            s0: 3,
        }
    }
}

/// The built-in synchronization models of Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyncModel {
    /// Bulk Synchronous Parallel: full barrier each iteration.
    Bsp,
    /// Asynchronous Parallel: never block a fast worker.
    Asp,
    /// Stale Synchronous Parallel with staleness threshold `s`.
    Ssp {
        /// Maximum progress gap before the fast worker is paused.
        s: u64,
    },
    /// DSPS: SSP whose threshold adapts to the observed spread at runtime.
    Dsps(DspsConfig),
    /// Drop stragglers: advance once any `n_t` of the `N` workers have
    /// pushed; late gradients are discarded.
    DropStragglers {
        /// Number of (fastest) workers whose pushes complete an iteration.
        n_t: u32,
    },
    /// Constant PSSP: past the threshold, block with fixed probability `c`.
    PsspConst {
        /// Staleness threshold.
        s: u64,
        /// Blocking probability once the gap reaches `s`.
        c: f64,
    },
    /// Dynamic PSSP: blocking probability grows with the gap via
    /// `α / (1 + e^(s−k))`.
    PsspDynamic {
        /// Staleness threshold.
        s: u64,
        /// How `α` is obtained.
        alpha: Alpha,
    },
}

impl SyncModel {
    /// Current effective staleness threshold (∞ encoded as `u64::MAX` for
    /// ASP). For DSPS this is the *initial* threshold; the live value is
    /// tracked by [`ModelRuntime`].
    pub fn nominal_s(&self) -> u64 {
        match self {
            SyncModel::Bsp | SyncModel::DropStragglers { .. } => 0,
            SyncModel::Asp => u64::MAX,
            SyncModel::Ssp { s } => *s,
            SyncModel::Dsps(cfg) => cfg.s0,
            SyncModel::PsspConst { s, .. } => *s,
            SyncModel::PsspDynamic { s, .. } => *s,
        }
    }

    /// Wrap into a stateful [`SyncPolicy`] (DSPS needs mutable state; the
    /// rest are pure).
    pub fn into_policy(self) -> ModelRuntime {
        let s_live = self.nominal_s();
        ModelRuntime {
            model: self,
            s_live,
        }
    }
}

/// Stateful runtime for a [`SyncModel`]; implements [`SyncPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelRuntime {
    model: SyncModel,
    /// Live threshold; differs from `model.nominal_s()` only for DSPS.
    s_live: u64,
}

impl ModelRuntime {
    /// The wrapped model.
    pub fn model(&self) -> SyncModel {
        self.model
    }

    /// The current effective staleness threshold.
    pub fn live_s(&self) -> u64 {
        self.s_live
    }

    /// Progress gap of a request relative to the overall shard progress.
    #[inline]
    fn gap(st: &SyncState, progress: u64) -> u64 {
        progress.saturating_sub(st.v_train)
    }

    /// The deterministic "within staleness bound" test `progress < V_train + s`.
    #[inline]
    fn within_bound(&self, st: &SyncState, progress: u64) -> bool {
        match self.model {
            SyncModel::Bsp | SyncModel::DropStragglers { .. } => progress < st.v_train,
            SyncModel::Asp => true,
            SyncModel::Ssp { .. }
            | SyncModel::Dsps(_)
            | SyncModel::PsspConst { .. }
            | SyncModel::PsspDynamic { .. } => {
                // `V_train + s` may overflow for huge s; saturate.
                progress < st.v_train.saturating_add(self.s_live)
            }
        }
    }
}

impl SyncPolicy for ModelRuntime {
    fn pull_permitted(
        &mut self,
        st: &SyncState,
        progress: u64,
        draw: f64,
        significance: Option<f64>,
    ) -> bool {
        if self.within_bound(st, progress) {
            return true;
        }
        // Past the deterministic bound: PSSP may still let the pull through.
        let k = Self::gap(st, progress);
        let p_block = match self.model {
            SyncModel::PsspConst { s, c } => constant_probability(c, s, k),
            SyncModel::PsspDynamic { s, alpha } => {
                dynamic_probability(alpha.resolve(significance), s, k)
            }
            _ => return false,
        };
        // Table III: permitted when rand(0,1) > P, i.e. blocked w.p. P.
        draw > p_block
    }

    fn push_fires(&mut self, st: &SyncState) -> bool {
        match self.model {
            SyncModel::DropStragglers { n_t } => st.count_at_v_train >= n_t,
            _ => st.count_at_v_train >= st.num_workers,
        }
    }

    fn release_permitted(&self, st: &SyncState, progress: u64) -> bool {
        self.within_bound(st, progress)
    }

    fn accept_late_push(&self) -> bool {
        !matches!(self.model, SyncModel::DropStragglers { .. })
    }

    fn after_push(&mut self, st: &SyncState) {
        if let SyncModel::Dsps(cfg) = self.model {
            // Track the observed spread with a one-step relaxation toward it:
            // a chronically slow worker widens the window instead of stalling
            // the cluster; a tight cluster narrows it to keep staleness low.
            let spread = st.fastest.saturating_sub(st.slowest);
            // Tolerating a spread of k requires a threshold of k+1 (the
            // pull condition is strict: progress < V_train + s).
            let target = (spread + 1).clamp(cfg.s_min, cfg.s_max);
            self.s_live = match self.s_live.cmp(&target) {
                std::cmp::Ordering::Less => self.s_live + 1,
                std::cmp::Ordering::Greater => self.s_live - 1,
                std::cmp::Ordering::Equal => self.s_live,
            };
        }
    }

    fn wants_significance(&self) -> bool {
        matches!(
            self.model,
            SyncModel::PsspDynamic {
                alpha: Alpha::Significance { .. },
                ..
            }
        )
    }

    fn name(&self) -> &'static str {
        match self.model {
            SyncModel::Bsp => "bsp",
            SyncModel::Asp => "asp",
            SyncModel::Ssp { .. } => "ssp",
            SyncModel::Dsps(_) => "dsps",
            SyncModel::DropStragglers { .. } => "drop-stragglers",
            SyncModel::PsspConst { .. } => "pssp-const",
            SyncModel::PsspDynamic { .. } => "pssp-dynamic",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(v_train: u64, count: u32, n: u32) -> SyncState {
        SyncState {
            v_train,
            count_at_v_train: count,
            num_workers: n,
            fastest: v_train,
            slowest: v_train,
        }
    }

    #[test]
    fn bsp_pull_condition_is_full_barrier() {
        let mut m = SyncModel::Bsp.into_policy();
        // Worker at progress 0 must wait until V_train = 1.
        assert!(!m.pull_permitted(&st(0, 0, 4), 0, 0.5, None));
        assert!(m.pull_permitted(&st(1, 0, 4), 0, 0.5, None));
    }

    #[test]
    fn asp_never_blocks() {
        let mut m = SyncModel::Asp.into_policy();
        assert!(m.pull_permitted(&st(0, 0, 4), 1_000_000, 0.0, None));
    }

    #[test]
    fn ssp_blocks_exactly_at_threshold() {
        let mut m = SyncModel::Ssp { s: 3 }.into_policy();
        let state = st(2, 0, 4);
        assert!(m.pull_permitted(&state, 4, 0.0, None)); // gap 2 < 3
        assert!(!m.pull_permitted(&state, 5, 0.0, None)); // gap 3 == s → block
    }

    #[test]
    fn ssp_with_s_zero_equals_bsp() {
        let mut ssp = SyncModel::Ssp { s: 0 }.into_policy();
        let mut bsp = SyncModel::Bsp.into_policy();
        for v in 0..4u64 {
            for p in 0..6u64 {
                let state = st(v, 0, 4);
                assert_eq!(
                    ssp.pull_permitted(&state, p, 0.3, None),
                    bsp.pull_permitted(&state, p, 0.3, None),
                    "v={v} p={p}"
                );
            }
        }
    }

    #[test]
    fn pssp_const_blocks_with_probability_c() {
        let mut m = SyncModel::PsspConst { s: 2, c: 0.4 }.into_policy();
        let state = st(0, 0, 4);
        // Gap 3 ≥ s: blocked iff draw ≤ 0.4.
        assert!(!m.pull_permitted(&state, 3, 0.39, None));
        assert!(m.pull_permitted(&state, 3, 0.41, None));
        // Below threshold: always permitted regardless of draw.
        assert!(m.pull_permitted(&state, 1, 0.0, None));
    }

    #[test]
    fn pssp_c_one_is_ssp_and_c_zero_is_asp() {
        let mut pssp1 = SyncModel::PsspConst { s: 2, c: 1.0 }.into_policy();
        let mut pssp0 = SyncModel::PsspConst { s: 2, c: 0.0 }.into_policy();
        let mut ssp = SyncModel::Ssp { s: 2 }.into_policy();
        for p in 0..10u64 {
            let state = st(1, 0, 4);
            // draw < 1.0 strictly, so `draw > 1.0` is always false → SSP.
            assert_eq!(
                pssp1.pull_permitted(&state, p, 0.999, None),
                ssp.pull_permitted(&state, p, 0.999, None)
            );
            // `draw > 0.0` is true for any positive draw → ASP.
            assert!(pssp0.pull_permitted(&state, p, 1e-9, None));
        }
    }

    #[test]
    fn pssp_dynamic_blocks_faster_workers_harder() {
        let mut m = SyncModel::PsspDynamic {
            s: 2,
            alpha: Alpha::Constant(1.0),
        }
        .into_policy();
        let state = st(0, 0, 4);
        // P(k=2) = 0.5, P(k=8) ≈ 1/(1+e^-6) ≈ 0.9975.
        let mid_draw = 0.9; // above P(2), below P(8)
        assert!(m.pull_permitted(&state, 2, mid_draw, None));
        assert!(!m.pull_permitted(&state, 8, mid_draw, None));
    }

    #[test]
    fn pssp_dynamic_uses_significance_for_alpha() {
        let mut m = SyncModel::PsspDynamic {
            s: 1,
            alpha: Alpha::Significance {
                floor: 0.0,
                cap: 1.0,
            },
        }
        .into_policy();
        let state = st(0, 0, 4);
        // Significance 0 → α 0 → never blocks.
        assert!(m.pull_permitted(&state, 5, 0.0001, Some(0.0)));
        // Significance 1 → α 1 → blocks at large gap for small draws.
        assert!(!m.pull_permitted(&state, 5, 0.5, Some(1.0)));
    }

    #[test]
    fn push_condition_counts() {
        let mut full = SyncModel::Ssp { s: 1 }.into_policy();
        assert!(!full.push_fires(&st(0, 3, 4)));
        assert!(full.push_fires(&st(0, 4, 4)));

        let mut drop = SyncModel::DropStragglers { n_t: 3 }.into_policy();
        assert!(!drop.push_fires(&st(0, 2, 4)));
        assert!(drop.push_fires(&st(0, 3, 4)));
        assert!(!drop.accept_late_push());
        assert!(full.accept_late_push());
    }

    #[test]
    fn dsps_threshold_tracks_spread() {
        let cfg = DspsConfig {
            s_min: 1,
            s_max: 10,
            s0: 3,
        };
        let mut m = SyncModel::Dsps(cfg).into_policy();
        // Large persistent spread widens the threshold one step per push.
        let wide = SyncState {
            v_train: 0,
            count_at_v_train: 0,
            num_workers: 4,
            fastest: 9,
            slowest: 0,
        };
        for _ in 0..20 {
            m.after_push(&wide);
        }
        assert_eq!(m.live_s(), 10); // spread 9 tolerated needs s = 10
                                    // A tight cluster narrows it again, bounded below by s_min.
        let tight = SyncState {
            v_train: 9,
            count_at_v_train: 0,
            num_workers: 4,
            fastest: 9,
            slowest: 9,
        };
        for _ in 0..20 {
            m.after_push(&tight);
        }
        assert_eq!(m.live_s(), cfg.s_min);
    }

    #[test]
    fn release_uses_only_deterministic_part() {
        let m = SyncModel::PsspConst { s: 2, c: 0.5 }.into_policy();
        // Released once within the bound, no fresh probability draw involved.
        assert!(m.release_permitted(&st(4, 0, 4), 5)); // gap 1 < 2
        assert!(!m.release_permitted(&st(4, 0, 4), 6)); // gap 2 == s
    }

    #[test]
    fn asp_bound_does_not_overflow() {
        let mut m = SyncModel::Asp.into_policy();
        assert!(m.pull_permitted(&st(u64::MAX - 1, 0, 2), u64::MAX, 0.0, None));
    }
}
