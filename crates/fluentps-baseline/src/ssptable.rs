//! Bösen/SSPtable-style client-cached SSP.
//!
//! Bösen implements SSP through SSPtable: a shared-memory table API where
//! each worker *caches* parameter entries locally and the table invalidates
//! entries whose version is older than `clock − s`. What matters for the
//! reproduction is how its **consistency view degrades at scale**
//! ([`SspTableModel`]): keeping a consistent staleness view across N
//! workers costs Θ(N) maintenance per clock tick; under load the view lags,
//! so the *effective* staleness a worker experiences grows with N. This is
//! the mechanism behind the accuracy collapse at N ≥ 8 the paper shows in
//! Figures 1 and 7 — and the scalability argument for FluentPS's per-server
//! progress tracking. The lag coefficient is a model parameter; the default
//! (one iteration of effective extra staleness per worker) is calibrated so
//! that N ≤ 4 behaves close to honest SSP while N ≥ 8 reads badly outdated
//! caches, matching the paper's observed accuracy cliff at that scale.

/// Scalability model of the SSPtable consistency view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SspTableModel {
    /// Nominal staleness threshold `s`.
    pub s: u64,
    /// Extra effective staleness contributed per worker by view-maintenance
    /// lag.
    pub lag_per_worker: f64,
}

impl SspTableModel {
    /// Cluster size the consistency view tracks without measurable lag.
    pub const FREE_WORKERS: u32 = 4;

    /// Default calibration (see module docs).
    pub fn new(s: u64) -> Self {
        SspTableModel {
            s,
            lag_per_worker: 1.0,
        }
    }

    /// The staleness bound workers *actually* experience at `num_workers`.
    /// Maintenance keeps up for small clusters (the paper sees no loss at
    /// 2–4 workers); past [`Self::FREE_WORKERS`] every extra worker adds
    /// `lag_per_worker` iterations of view lag.
    pub fn effective_staleness(&self, num_workers: u32) -> u64 {
        let excess = num_workers.saturating_sub(Self::FREE_WORKERS) as f64;
        self.s + (self.lag_per_worker * excess).round() as u64
    }

    /// Per-clock-tick maintenance cost in arbitrary work units (Θ(N) row
    /// invalidations) — used by the timing simulation to charge the server.
    pub fn maintenance_cost(&self, num_workers: u32) -> f64 {
        num_workers as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_staleness_grows_with_workers() {
        let m = SspTableModel::new(3);
        assert_eq!(m.effective_staleness(2), 3); // small clusters keep up
        assert_eq!(m.effective_staleness(4), 3);
        assert_eq!(m.effective_staleness(8), 7);
        assert_eq!(m.effective_staleness(16), 15);
        assert_eq!(m.effective_staleness(64), 63);
        // Monotone in N.
        let mut prev = 0;
        for n in [1u32, 2, 4, 8, 16, 32, 64, 128] {
            let e = m.effective_staleness(n);
            assert!(e >= prev);
            prev = e;
        }
    }

    #[test]
    fn maintenance_cost_is_linear_in_workers() {
        let m = SspTableModel::new(3);
        assert_eq!(m.maintenance_cost(64), 2.0 * m.maintenance_cost(32));
    }
}
