//! Seeded weight initialisation.

use fluentps_util::rng::StdRng;

/// Deterministic weight initialiser; every model in an experiment uses the
/// same seed so runs differ only in synchronization behaviour.
pub struct Initializer {
    rng: StdRng,
}

impl Initializer {
    /// New initialiser from a seed.
    pub fn new(seed: u64) -> Self {
        Initializer {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Xavier/Glorot uniform for a `fan_in × fan_out` weight matrix.
    pub fn xavier(&mut self, fan_in: usize, fan_out: usize) -> Vec<f32> {
        let bound = (6.0 / (fan_in + fan_out) as f64).sqrt() as f32;
        self.uniform(fan_in * fan_out, bound)
    }

    /// He/Kaiming uniform for ReLU layers.
    pub fn he(&mut self, fan_in: usize, fan_out: usize) -> Vec<f32> {
        let bound = (6.0 / fan_in as f64).sqrt() as f32;
        self.uniform(fan_in * fan_out, bound)
    }

    /// Zeroed bias vector.
    pub fn zeros(&mut self, n: usize) -> Vec<f32> {
        vec![0.0; n]
    }

    /// Small-scale Gaussian-ish values (uniform surrogate) for residual
    /// branch outputs so identity mappings dominate at the start.
    pub fn small(&mut self, n: usize, scale: f32) -> Vec<f32> {
        self.uniform(n, scale)
    }

    /// `n` uniform draws from `[-bound, bound)`, in stream order.
    fn uniform(&mut self, n: usize, bound: f32) -> Vec<f32> {
        let mut w = vec![0.0; n];
        self.rng.fill_range(&mut w, -bound..bound);
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_is_seeded_and_bounded() {
        let mut a = Initializer::new(7);
        let mut b = Initializer::new(7);
        let wa = a.xavier(64, 32);
        let wb = b.xavier(64, 32);
        assert_eq!(wa, wb, "same seed → same weights");
        let bound = (6.0f64 / 96.0).sqrt() as f32;
        assert!(wa.iter().all(|v| v.abs() <= bound));
        assert_eq!(wa.len(), 64 * 32);
    }

    #[test]
    fn different_seeds_differ() {
        let wa = Initializer::new(1).xavier(16, 16);
        let wb = Initializer::new(2).xavier(16, 16);
        assert_ne!(wa, wb);
    }

    #[test]
    fn he_bound_depends_on_fan_in_only() {
        let w = Initializer::new(3).he(100, 10);
        let bound = (6.0f64 / 100.0).sqrt() as f32;
        assert!(w.iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn zeros_are_zero() {
        assert!(Initializer::new(0).zeros(8).iter().all(|&v| v == 0.0));
    }
}
