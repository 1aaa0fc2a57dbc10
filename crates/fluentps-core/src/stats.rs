//! Per-shard synchronization statistics.
//!
//! The evaluation section reports three recurring metrics: training time,
//! final test accuracy, and the number of delayed pull requests (DPRs) per
//! 100 iterations (Table IV, Figure 9). `ShardStats` counts the event-level
//! quantities; timing lives in the drivers (wall clock for the engines,
//! virtual clock for the simulator).

use fluentps_obs::hist::Histogram;

/// Counters maintained by a [`crate::server::ServerShard`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Distribution of DPR wait times in iterations (p50/p95 for reports).
    pub dpr_wait_hist: Histogram,
    /// Total `sPull` requests seen.
    pub pulls_total: u64,
    /// Pulls answered immediately (pull condition held).
    pub pulls_immediate: u64,
    /// Pulls deferred into the DPR buffer.
    pub dprs: u64,
    /// Pulls past the deterministic staleness bound that a PSSP probability
    /// draw let through anyway (the "unnecessary waits" PSSP removes).
    pub pssp_passes: u64,
    /// Sum over released DPRs of iterations spent waiting
    /// (`release V_train − deferral V_train`).
    pub dpr_wait_iterations: u64,
    /// DPRs released so far.
    pub dprs_released: u64,
    /// Total `sPush` requests seen.
    pub pushes: u64,
    /// Pushes for an iteration older than `V_train` that the model rejected
    /// (drop-stragglers).
    pub late_pushes_dropped: u64,
    /// Times `V_train` advanced.
    pub v_train_advances: u64,
    /// High-water mark of simultaneously buffered DPRs.
    pub dpr_buffer_peak: u64,
    /// Request payload bytes received (gradients + pull requests).
    pub bytes_in: u64,
    /// Response payload bytes sent (parameters + acks).
    pub bytes_out: u64,
}

impl ShardStats {
    /// DPRs per 100 iterations of overall progress — the paper's
    /// synchronization-frequency metric. Returns 0 before any progress.
    pub fn dprs_per_100_iters(&self) -> f64 {
        if self.v_train_advances == 0 {
            0.0
        } else {
            self.dprs as f64 * 100.0 / self.v_train_advances as f64
        }
    }

    /// Mean iterations a released DPR spent waiting.
    pub fn mean_dpr_wait(&self) -> f64 {
        if self.dprs_released == 0 {
            0.0
        } else {
            self.dpr_wait_iterations as f64 / self.dprs_released as f64
        }
    }

    /// Fold another shard's counters into this one (cluster-level totals).
    pub fn merge(&mut self, other: &ShardStats) {
        self.pulls_total += other.pulls_total;
        self.pulls_immediate += other.pulls_immediate;
        self.dprs += other.dprs;
        self.pssp_passes += other.pssp_passes;
        self.dpr_wait_iterations += other.dpr_wait_iterations;
        self.dprs_released += other.dprs_released;
        self.pushes += other.pushes;
        self.late_pushes_dropped += other.late_pushes_dropped;
        self.v_train_advances += other.v_train_advances;
        // A peak is a maximum, not a sum: cluster-level "worst moment" is
        // the worst single shard's moment.
        self.dpr_buffer_peak = self.dpr_buffer_peak.max(other.dpr_buffer_peak);
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.dpr_wait_hist.merge(&other.dpr_wait_hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_zero_without_progress() {
        let s = ShardStats::default();
        assert_eq!(s.dprs_per_100_iters(), 0.0);
        assert_eq!(s.mean_dpr_wait(), 0.0);
    }

    #[test]
    fn dpr_rate_scales_to_100_iterations() {
        let s = ShardStats {
            dprs: 30,
            v_train_advances: 200,
            ..Default::default()
        };
        assert_eq!(s.dprs_per_100_iters(), 15.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = ShardStats {
            pulls_total: 3,
            dprs: 1,
            bytes_in: 100,
            ..Default::default()
        };
        let b = ShardStats {
            pulls_total: 7,
            dprs: 2,
            bytes_out: 50,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.pulls_total, 10);
        assert_eq!(a.dprs, 3);
        assert_eq!(a.bytes_in, 100);
        assert_eq!(a.bytes_out, 50);
    }

    #[test]
    fn merge_takes_max_of_buffer_peaks() {
        let mut a = ShardStats {
            dpr_buffer_peak: 2,
            ..Default::default()
        };
        let b = ShardStats {
            dpr_buffer_peak: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.dpr_buffer_peak, 7);
    }

    #[test]
    fn merge_combines_dpr_wait_histograms_with_quantiles() {
        // The dpr_wait_hist path through merge: two shards' wait
        // distributions fold into one, and the quantiles reflect the union.
        let mut a = ShardStats::default();
        for v in [1u64, 2, 3, 4] {
            a.dpr_wait_hist.record(v);
        }
        let mut b = ShardStats::default();
        for v in [100u64, 200] {
            b.dpr_wait_hist.record(v);
        }
        a.merge(&b);
        assert_eq!(a.dpr_wait_hist.count(), 6);
        assert_eq!(a.dpr_wait_hist.max(), 200);
        assert_eq!(a.dpr_wait_hist.mean(), 310.0 / 6.0);
        // Sorted union {1,2,3,4,100,200}: the p50 bucket upper bound is 4
        // (bucket [2,4) holds the 3rd value), the p99 caps at the max.
        assert_eq!(a.dpr_wait_hist.quantile_upper(0.5), 4);
        assert_eq!(a.dpr_wait_hist.quantile_upper(0.99), 200);
    }

    #[test]
    fn merging_shards_equals_recording_into_one_histogram() {
        use fluentps_obs::hist::Histogram;
        let values: Vec<u64> = (0..50u64).map(|i| i * i % 37).collect();
        let mut combined = Histogram::new();
        let mut total = ShardStats::default();
        for chunk in values.chunks(10) {
            let mut shard = ShardStats::default();
            for &v in chunk {
                shard.dpr_wait_hist.record(v);
                combined.record(v);
            }
            total.merge(&shard);
        }
        assert_eq!(total.dpr_wait_hist, combined);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                total.dpr_wait_hist.quantile_upper(q),
                combined.quantile_upper(q)
            );
        }
    }
}
