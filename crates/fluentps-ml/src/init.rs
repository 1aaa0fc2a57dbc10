//! Seeded weight initialisation.

use std::ops::Range;

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
        let threads = crate::cores::available();
        fill_on(&mut self.rng, &mut w, -bound..bound, threads);
        w
    }
}

/// Values a tensor must exceed to be drawn on more than one thread, and the
/// values each thread draws at a time. A spawned thread on a 2-vCPU VM
/// often waits 0.05 ms to several ms before it runs beside its parent, so
/// a split pays only on a tensor that takes longer than that on one
/// thread: on two threads a split lost at 16 Ki values (37 µs alone), paid
/// in one of two runs at 64 Ki (150 µs) and in most at 256 Ki (0.6 ms).
const FILL_CHUNK: usize = 1 << 15;

/// `rng.fill_range(out, range)` on up to `threads` threads: the same values
/// and the same state after. Each chunk of [`FILL_CHUNK`] values is drawn
/// from a clone of `rng` advanced to where the chunk starts in the stream.
fn fill_on(rng: &mut StdRng, out: &mut [f32], range: Range<f32>, threads: usize) {
    let n = out.len() as u64;
    let from = rng.clone();
    let chunks = out.chunks_mut(FILL_CHUNK).zip((0..).step_by(FILL_CHUNK));
    crate::cores::for_each(
        threads,
        chunks,
        || (),
        |(), (chunk, at)| {
            let mut rng = from.clone();
            rng.advance(at as u64);
            rng.fill_range(chunk, range.clone());
        },
    );
    rng.advance(n);
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

    /// `fill_on` against one `fill_range` on a clone: the same values, as
    /// bits, and the same state after.
    #[test]
    fn a_fill_from_advanced_states_is_one_fill_range() {
        let c = FILL_CHUNK;
        let lengths = [0, 1, c - 1, c, c + 1, 2 * c, 3 * c + 7, 4 * c - 1, 4 * c];
        for (seed, &n) in lengths.iter().enumerate() {
            let mut want_rng = StdRng::seed_from_u64(seed as u64);
            let mut want = vec![f32::NAN; n];
            want_rng.fill_range(&mut want, -0.3..0.3);
            for threads in 1..=4 {
                let mut rng = StdRng::seed_from_u64(seed as u64);
                let mut got = vec![f32::NAN; n];
                fill_on(&mut rng, &mut got, -0.3..0.3, threads);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert!(
                    bits(&got) == bits(&want),
                    "n {n}, {threads} threads: values"
                );
                assert_eq!(rng, want_rng, "n {n}, {threads} threads: state after");
            }
        }
    }

    #[test]
    fn zeros_are_zero() {
        assert!(Initializer::new(0).zeros(8).iter().all(|&v| v == 0.0));
    }
}
