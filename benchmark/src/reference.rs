//! The ledger's own speed reference, and the clock correction built on it.
//!
//! The reference box is a small guest on a shared host whose virtual CPUs
//! switch, for seconds to minutes at a time and each on its own, between a
//! fast and a slow state (README, "Noise"). The same code then runs up to
//! 1.4 times slower, and ten runs scatter by more than any bound the
//! manifest allows. So every worker thread times two small kernels of the
//! ledger's own between its iterations, and the end-to-end times are
//! reported at *reference speed*: a duration is multiplied by
//! [`NOMINAL_NS`] over the reference samples taken around it. The kernels
//! never change with the code under measurement, so a change to that code
//! shows in full.

use std::hint::black_box;
use std::time::Instant;

/// A worker takes one reference sample before every `EVERY`-th iteration,
/// and one after its last.
pub const EVERY: usize = 8;

/// What a reference sample reads when the box runs undisturbed; times at
/// reference speed are therefore the times an undisturbed box would show.
pub const NOMINAL_NS: f64 = 30_000.0;

const ROWS: usize = 16;
const DIM: usize = 64;
const COPY_BYTES: usize = 64 * 1024;

/// Buffers of the two kernels: a small matrix product that stays in the
/// first-level cache, and a copy that streams through the second. Between
/// the box's two states the first slows 1.66 times and the second 1.1–1.25
/// times; the workloads, which mix arithmetic with copying and system calls,
/// slow 1.23–1.43 times, and so does the geometric mean of the two.
pub struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            a: vec![0.5; ROWS * DIM],
            b: vec![0.25; DIM * DIM],
            c: vec![0.0; ROWS * DIM],
            src: vec![1; COPY_BYTES],
            dst: vec![0; COPY_BYTES],
        }
    }

    /// Run both kernels once; the sample is the geometric mean of the two
    /// durations, in nanoseconds (about 30 µs each when undisturbed).
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        self.product();
        let middle = Instant::now();
        self.copy();
        let end = Instant::now();
        let product_ns = (middle - start).as_nanos() as f64;
        let copy_ns = (end - middle).as_nanos() as f64;
        (product_ns * copy_ns).sqrt().max(1.0)
    }

    #[inline(never)]
    fn product(&mut self) {
        for _ in 0..4 {
            self.c.fill(0.0);
            for i in 0..ROWS {
                let row = &mut self.c[i * DIM..(i + 1) * DIM];
                for k in 0..DIM {
                    let a = self.a[i * DIM + k];
                    let b = &self.b[k * DIM..(k + 1) * DIM];
                    for (c, b) in row.iter_mut().zip(b) {
                        *c += a * b;
                    }
                }
            }
            black_box(&mut self.c);
        }
    }

    #[inline(never)]
    fn copy(&mut self) {
        for _ in 0..16 {
            self.dst.copy_from_slice(black_box(&self.src));
            black_box(&mut self.dst);
        }
    }
}

/// The factor that takes a duration measured while reference samples read
/// `sample_ns` to reference speed.
pub fn correction(sample_ns: f64) -> f64 {
    NOMINAL_NS / sample_ns
}

/// Per-iteration durations of one worker at reference speed. Iteration `i`
/// is corrected by the mean of the samples taken before and after its block
/// of [`EVERY`] iterations, `samples[i / EVERY]` and the next one. The part
/// of it spent asleep (`asleep_ns[i]`, the injected delay) takes the same
/// time at any speed and is left as it is.
pub fn at_reference_speed(durations_ns: &[u64], asleep_ns: &[u64], samples: &[f64]) -> Vec<f64> {
    let Some(last) = samples.len().checked_sub(1) else {
        return Vec::new();
    };
    durations_ns
        .iter()
        .zip(asleep_ns)
        .enumerate()
        .map(|(i, (&ns, &asleep))| {
            let before = samples[(i / EVERY).min(last)];
            let after = samples[(i / EVERY + 1).min(last)];
            let awake = ns.saturating_sub(asleep) as f64;
            awake * correction((before + after) / 2.0) + asleep as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_uniformly_slower_box_reads_the_same_at_reference_speed() {
        let durations: Vec<u64> = (0..20).map(|i| 1000 + 10 * i).collect();
        let awake = vec![0; 20];
        let samples = [NOMINAL_NS, NOMINAL_NS, NOMINAL_NS, NOMINAL_NS];
        let fast = at_reference_speed(&durations, &awake, &samples);
        assert_eq!(fast[0], 1000.0);
        let slow_durations: Vec<u64> = durations.iter().map(|d| d * 2).collect();
        let slow = at_reference_speed(&slow_durations, &awake, &samples.map(|s| s * 2.0));
        assert_eq!(fast, slow);
    }

    #[test]
    fn an_iteration_is_corrected_by_the_samples_around_its_block() {
        // Blocks of EVERY iterations; the box slows down during the second.
        let durations = vec![1000; 2 * EVERY];
        let mut asleep = vec![0; 2 * EVERY];
        asleep[EVERY + 1] = 400;
        let samples = [NOMINAL_NS, NOMINAL_NS, 3.0 * NOMINAL_NS];
        let v = at_reference_speed(&durations, &asleep, &samples);
        assert_eq!(v[EVERY - 1], 1000.0);
        assert_eq!(v[EVERY], 500.0);
        // Sleep takes the same time at any speed.
        assert_eq!(v[EVERY + 1], 300.0 + 400.0);
        // A worker that stopped early has fewer samples than blocks.
        assert_eq!(
            at_reference_speed(&durations, &asleep, &samples[..1])[15],
            1000.0
        );
        assert!(at_reference_speed(&durations, &asleep, &[]).is_empty());
    }

    #[test]
    fn a_sample_is_a_positive_time() {
        let mut r = Reference::new();
        let s = r.sample();
        assert!(s.is_finite() && s >= 1.0);
        assert_eq!(r.c[0], 0.5 * 0.25 * DIM as f32);
    }
}
