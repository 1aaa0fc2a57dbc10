//! Seedable pseudo-random number generation.
//!
//! [`StdRng`] is a PCG32 generator (64-bit state, XSH-RR output) whose state
//! and stream constants are derived from a `u64` seed via SplitMix64, so any
//! seed — including 0 — yields a well-mixed stream. The API mirrors the
//! subset of `rand` the workspace uses (`seed_from_u64`, `gen`, `gen_range`,
//! `gen_bool`) plus the Box–Muller normal sampler the simulators need and
//! `fill_range`, a batch of `f32` `gen_range` draws in one call, and
//! `advance`, a jump `n` draws ahead in `O(log n)` steps.
//!
//! Determinism contract: the sequence produced by a given seed is part of
//! the repo's reproducibility guarantee. Changing the generator or the
//! derivation below changes every simulated experiment's coin flips.

const PCG_MULT: u64 = 6364136223846793005;

/// Advance a SplitMix64 state and return the next output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The workspace's standard PRNG: PCG32 seeded via SplitMix64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    state: u64,
    inc: u64,
}

impl StdRng {
    /// Deterministic generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let init_state = splitmix64(&mut sm);
        let init_inc = splitmix64(&mut sm) | 1; // stream constant must be odd
        let mut rng = StdRng {
            state: 0,
            inc: init_inc,
        };
        // Standard PCG initialisation: absorb the seed into the state.
        rng.next_u32();
        rng.state = rng.state.wrapping_add(init_state);
        rng.next_u32();
        rng
    }

    /// Next 32 uniformly distributed bits (PCG-XSH-RR).
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Skip `n` draws: the state `n` calls of [`next_u32`](Self::next_u32)
    /// leave, in `O(log n)` steps. The state update is an affine map, `s ↦
    /// M·s + inc` mod 2⁶⁴, so `n` of them compose to one affine map, built
    /// here by squaring (Brown, "Random Number Generation with Arbitrary
    /// Strides", 1994). A fixed-length block of a stream can thus be drawn
    /// by any thread, from a clone advanced to where the block starts.
    pub fn advance(&mut self, n: u64) {
        // (mult, plus): the map of 2^bit steps; (acc_mult, acc_plus): the
        // map of the bits of `n` taken so far.
        let (mut mult, mut plus) = (PCG_MULT, self.inc);
        let (mut acc_mult, mut acc_plus) = (1u64, 0u64);
        let mut n = n;
        while n > 0 {
            if n & 1 == 1 {
                acc_mult = acc_mult.wrapping_mul(mult);
                acc_plus = acc_plus.wrapping_mul(mult).wrapping_add(plus);
            }
            plus = mult.wrapping_add(1).wrapping_mul(plus);
            mult = mult.wrapping_mul(mult);
            n >>= 1;
        }
        self.state = acc_mult.wrapping_mul(self.state).wrapping_add(acc_plus);
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32() as u64;
        let lo = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// A value of type `T` from its natural "whole domain" distribution:
    /// `f32`/`f64` uniform in `[0, 1)`, integers uniform over all bits,
    /// `bool` a fair coin.
    pub fn gen<T: Random>(&mut self) -> T {
        T::random(self)
    }

    /// Uniform draw from a range (half-open or inclusive). Panics on an
    /// empty range, like `rand`.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Fill `out` with uniform draws from `range`: the same values, and the
    /// same state after, as `out.len()` calls of `gen_range(range)`. Each
    /// chunk of the raw `next_u32` stream is taken first, a serial loop, and
    /// mapped after, a loop with no dependency between elements that the
    /// compiler vectorizes. Panics on an empty range, like `gen_range`.
    pub fn fill_range(&mut self, out: &mut [f32], range: std::ops::Range<f32>) {
        assert!(range.start < range.end, "empty range");
        let mut raw = [0u32; 256];
        for chunk in out.chunks_mut(raw.len()) {
            let raw = &mut raw[..chunk.len()];
            for r in raw.iter_mut() {
                *r = self.next_u32();
            }
            for (v, &r) in chunk.iter_mut().zip(raw.iter()) {
                *v = map_f32(r, range.start, range.end);
            }
        }
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// Standard-normal sample via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        // u1 in (0, 1]: avoids ln(0).
        let u1 = 1.0 - self.gen::<f64>();
        let u2 = self.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Uniform in `[0, n)` without modulo bias (rejection sampling).
    fn uniform_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        if n == 1 {
            return 0;
        }
        // Largest value below which x % n is unbiased.
        let zone = u64::MAX - (u64::MAX % n + 1) % n;
        loop {
            let x = self.next_u64();
            if x <= zone {
                return x % n;
            }
        }
    }
}

/// Types [`StdRng::gen`] can produce.
pub trait Random {
    fn random(rng: &mut StdRng) -> Self;
}

impl Random for f64 {
    fn random(rng: &mut StdRng) -> f64 {
        // 53 mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Random for f32 {
    fn random(rng: &mut StdRng) -> f32 {
        unit_f32(rng.next_u32())
    }
}

/// 24 mantissa bits of `bits` → uniform in `[0, 1)`.
fn unit_f32(bits: u32) -> f32 {
    (bits >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// One `next_u32` output mapped into `[start, end)`: the `f32` arm of
/// `gen_range` and the map of `fill_range`, so the two agree bit for bit.
fn map_f32(bits: u32, start: f32, end: f32) -> f32 {
    let v = start + (end - start) * unit_f32(bits);
    // Guard against rounding up to the excluded endpoint.
    if v >= end {
        start
    } else {
        v
    }
}

impl Random for bool {
    fn random(rng: &mut StdRng) -> bool {
        rng.next_u32() & 1 == 1
    }
}

macro_rules! impl_random_int {
    ($($t:ty => $via:ident),*) => {$(
        impl Random for $t {
            fn random(rng: &mut StdRng) -> $t {
                rng.$via() as $t
            }
        }
    )*};
}
impl_random_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32,
                 u64 => next_u64, usize => next_u64,
                 i8 => next_u32, i16 => next_u32, i32 => next_u32,
                 i64 => next_u64, isize => next_u64);

/// Ranges [`StdRng::gen_range`] can sample from. The output type is a
/// trait parameter (mirroring `rand`) so an unannotated literal range like
/// `-1.0..1.0` unifies with the surrounding `f32`/`f64` context.
pub trait SampleRange<T> {
    fn sample(self, rng: &mut StdRng) -> T;
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let width = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.uniform_u64(width) as $t)
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut StdRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let width = (end as i128 - start as i128) as u128 + 1;
                if width > u64::MAX as u128 {
                    return rng.next_u64() as $t; // full-domain u64/i64 range
                }
                start.wrapping_add(rng.uniform_u64(width as u64) as $t)
            }
        }
    )*};
}
impl_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        let v = self.start + (self.end - self.start) * rng.gen::<f64>();
        // Guard against rounding up to the excluded endpoint.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange<f32> for std::ops::Range<f32> {
    fn sample(self, rng: &mut StdRng) -> f32 {
        assert!(self.start < self.end, "empty range");
        map_f32(rng.next_u32(), self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "streams nearly identical: {same}/64 collisions");
    }

    #[test]
    fn zero_seed_is_well_mixed() {
        let mut rng = StdRng::seed_from_u64(0);
        let mean = (0..10_000).map(|_| rng.gen::<f64>()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = rng.gen();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let a = rng.gen_range(5u32..17);
            assert!((5..17).contains(&a));
            let b = rng.gen_range(-2.5f32..2.5);
            assert!((-2.5..2.5).contains(&b));
            let c = rng.gen_range(0usize..3);
            assert!(c < 3);
            let d = rng.gen_range(10u64..=12);
            assert!((10..=12).contains(&d));
            let e = rng.gen_range(-8i64..-3);
            assert!((-8..-3).contains(&e));
        }
    }

    /// `fill_range` against `n` calls of `gen_range` on a clone: the same
    /// values, and the same stream after.
    fn assert_fill_matches_gen_range(seed: u64, n: usize, range: std::ops::Range<f32>) {
        let mut filled = StdRng::seed_from_u64(seed);
        let mut drawn = filled.clone();
        let mut out = vec![f32::NAN; n];
        filled.fill_range(&mut out, range.clone());
        for (i, v) in out.iter().enumerate() {
            let want = drawn.gen_range(range.clone());
            assert_eq!(v.to_bits(), want.to_bits(), "seed {seed} n {n} element {i}");
        }
        for _ in 0..8 {
            assert_eq!(
                filled.next_u32(),
                drawn.next_u32(),
                "seed {seed} n {n}: stream after"
            );
        }
    }

    #[test]
    fn fill_range_is_gen_range_in_values_and_stream() {
        // Lengths on both sides of the 256-value chunk.
        for (seed, n) in [(1, 0), (2, 1), (3, 255), (4, 256), (5, 257), (6, 1000)] {
            assert_fill_matches_gen_range(seed, n, -0.5..0.5);
            assert_fill_matches_gen_range(seed, n, -0.2449..0.2449);
            assert_fill_matches_gen_range(seed, n, 3.0..1.0e6);
        }
    }

    #[test]
    fn fill_range_keeps_the_endpoint_guard() {
        // One ulp wide: every unit above one half rounds up to `end`, which
        // the guard maps back to `start`.
        let (start, end) = (1.0f32, f32::from_bits(1.0f32.to_bits() + 1));
        let mut probe = StdRng::seed_from_u64(13);
        let fired = (0..64)
            .filter(|_| start + (end - start) * probe.gen::<f32>() >= end)
            .count();
        assert!(fired > 0, "the guard never fired");
        assert_fill_matches_gen_range(13, 64, start..end);
        let mut out = [0.0f32; 64];
        StdRng::seed_from_u64(13).fill_range(&mut out, start..end);
        assert!(out.iter().all(|&v| v == start));
    }

    /// `n` calls of `next_u32` on a clone of `rng`.
    fn stepped(rng: &StdRng, n: u64) -> StdRng {
        let mut r = rng.clone();
        for _ in 0..n {
            r.next_u32();
        }
        r
    }

    fn advanced(rng: &StdRng, n: u64) -> StdRng {
        let mut r = rng.clone();
        r.advance(n);
        r
    }

    crate::proptest! {
        /// Small `n`, one step at a time: the same state as `n` draws.
        #[test]
        fn advance_is_n_draws(seed in any::<u64>(), n in 0u64..5000) {
            let rng = StdRng::seed_from_u64(seed);
            prop_assert_eq!(advanced(&rng, n), stepped(&rng, n));
        }

        /// Large `n`: jumps compose (`a` then `b` is `a + b`, wrapping at
        /// the period 2⁶⁴) and a jump to the period's last state is one draw
        /// short of where the stream started.
        #[test]
        fn advance_composes_across_the_period(
            seed in any::<u64>(),
            a in any::<u64>(),
            b in any::<u64>()
        ) {
            let rng = StdRng::seed_from_u64(seed);
            prop_assert_eq!(advanced(&advanced(&rng, a), b), advanced(&rng, a.wrapping_add(b)));
            prop_assert_eq!(stepped(&advanced(&rng, u64::MAX), 1), rng.clone());
            prop_assert_eq!(advanced(&rng, 0), rng);
        }
    }

    #[test]
    fn advance_is_n_draws_for_a_long_jump() {
        let rng = StdRng::seed_from_u64(29);
        let n = (1 << 20) + 12_345;
        assert_eq!(advanced(&rng, n), stepped(&rng, n));
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "hits {hits}");
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn normal_has_right_moments() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }
}
