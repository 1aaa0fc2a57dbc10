//! A small, fully deterministic property-testing harness.
//!
//! The [`proptest!`](crate::proptest!) macro runs each property over a loop
//! of generated cases. Inputs come from composable [`Strategy`] values —
//! numeric ranges, [`any`], [`Just`], tuples, [`collection::vec`],
//! [`Strategy::prop_map`] and [`prop_oneof!`](crate::prop_oneof!) — and a
//! failing case is greedily shrunk before being reported, so the panic
//! message shows a (locally) minimal counterexample.
//!
//! Unlike the external `proptest` crate this harness is *fixed-seed*: the
//! case stream for a property is a pure function of the property's name, so
//! every run — local or CI — tests the same inputs. Set `PROPTEST_CASES` to
//! change the number of cases (default 256).

use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::fnv::{fnv1a, FNV_OFFSET};
use crate::rng::StdRng;

/// Why a single test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// The property was violated; the message describes how.
    Fail(String),
    /// The case did not satisfy a [`prop_assume!`](crate::prop_assume!)
    /// precondition and should be regenerated, not counted.
    Reject,
}

impl TestCaseError {
    /// A failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

/// A generator of test-case values with optional shrinking.
pub trait Strategy {
    /// The type of generated values.
    type Value: Clone + Debug;

    /// Generate one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Candidate simplifications of `value`, simplest first. The runner
    /// keeps any candidate that still fails the property.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Transform generated values with `f`. (Mapped values do not shrink:
    /// the transform is not invertible.)
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        T: Clone + Debug,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }
}

impl<T: Clone + Debug> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        (**self).shrink(value)
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, T, F> Strategy for Map<S, F>
where
    S: Strategy,
    T: Clone + Debug,
    F: Fn(S::Value) -> T,
{
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice among boxed strategies; built by
/// [`prop_oneof!`](crate::prop_oneof!).
pub struct Union<T> {
    arms: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T: Clone + Debug> Union<T> {
    /// A union over `arms`; must be non-empty.
    pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T: Clone + Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        let i = rng.gen_range(0..self.arms.len());
        self.arms[i].generate(rng)
    }
}

/// Box a strategy for storage in a [`Union`]. (A plain function rather than
/// an inline cast so `prop_oneof!` arms get their value types unified by
/// inference.)
pub fn boxed_strategy<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

/// Types with a canonical whole-domain strategy, used by [`any`].
pub trait Arbitrary: Clone + Debug + 'static {
    fn arbitrary(rng: &mut StdRng) -> Self;
    fn shrink(_value: &Self) -> Vec<Self> {
        Vec::new()
    }
}

/// The whole-domain strategy for `T` (uniform over all bit patterns for
/// integers and floats — including NaN and infinities for floats).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        T::shrink(value)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.gen()
            }
            fn shrink(value: &$t) -> Vec<$t> {
                let mut out = Vec::new();
                if *value != 0 {
                    out.push(0);
                    let half = value / 2;
                    if half != *value {
                        out.push(half);
                    }
                }
                out
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.gen()
    }
    fn shrink(value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut StdRng) -> f32 {
        f32::from_bits(rng.next_u32())
    }
    fn shrink(value: &f32) -> Vec<f32> {
        if *value == 0.0 || value.is_nan() {
            Vec::new()
        } else {
            vec![0.0, value / 2.0]
        }
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> f64 {
        f64::from_bits(rng.next_u64())
    }
    fn shrink(value: &f64) -> Vec<f64> {
        if *value == 0.0 || value.is_nan() {
            Vec::new()
        } else {
            vec![0.0, value / 2.0]
        }
    }
}

// Numeric ranges are strategies: uniform over the range, shrinking toward
// the lower bound.
macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_toward(self.start, *value)
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

// Inclusive ranges only exist as samplers for integers.
macro_rules! impl_range_inclusive_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_toward(*self.start(), *value)
            }
        }
    )*};
}
impl_range_inclusive_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Shrink candidates for a numeric value, simplest first: the lower bound,
/// then a bisection ladder of midpoints climbing from the bound back toward
/// the value. The greedy runner keeps the first candidate that still fails,
/// so successive rounds binary-search onto the exact failure boundary.
fn shrink_toward<T: Midpoint + PartialEq + Copy>(low: T, value: T) -> Vec<T> {
    let mut out = Vec::new();
    if value == low {
        return out;
    }
    out.push(low);
    let mut cur = low;
    // Cap the ladder: floats can take ~60 halvings to converge.
    for _ in 0..64 {
        let mid = T::midpoint(cur, value);
        if mid == cur || mid == value {
            break;
        }
        out.push(mid);
        cur = mid;
    }
    out
}

/// Halfway point between two values, rounding toward `a`.
pub trait Midpoint {
    fn midpoint(a: Self, b: Self) -> Self;
}

macro_rules! impl_midpoint_int {
    ($($t:ty),*) => {$(
        impl Midpoint for $t {
            fn midpoint(a: $t, b: $t) -> $t {
                a + (b - a) / 2
            }
        }
    )*};
}
impl_midpoint_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Midpoint for f32 {
    fn midpoint(a: f32, b: f32) -> f32 {
        a + (b - a) / 2.0
    }
}
impl Midpoint for f64 {
    fn midpoint(a: f64, b: f64) -> f64 {
        a + (b - a) / 2.0
    }
}

// Tuples of strategies are strategies over tuples; each component shrinks
// independently with the others held fixed.
macro_rules! impl_tuple_strategy {
    ($(($($s:ident/$v:ident/$i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$i.shrink(&value.$i) {
                        let mut next = value.clone();
                        next.$i = cand;
                        out.push(next);
                    }
                )+
                out
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A/a/0)
    (A/a/0, B/b/1)
    (A/a/0, B/b/1, C/c/2)
    (A/a/0, B/b/1, C/c/2, D/d/3)
    (A/a/0, B/b/1, C/c/2, D/d/3, E/e/4)
    (A/a/0, B/b/1, C/c/2, D/d/3, E/e/4, F/f/5)
    (A/a/0, B/b/1, C/c/2, D/d/3, E/e/4, F/f/5, G/g/6)
    (A/a/0, B/b/1, C/c/2, D/d/3, E/e/4, F/f/5, G/g/6, H/h/7)
}

/// Collection strategies.
pub mod collection {
    use super::*;

    /// Length bounds for [`vec`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        /// Minimum length (inclusive).
        pub min: usize,
        /// Maximum length (exclusive).
        pub max_excl: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty length range");
            SizeRange {
                min: r.start,
                max_excl: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                min: *r.start(),
                max_excl: r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                min: n,
                max_excl: n + 1,
            }
        }
    }

    /// `Vec<E>` strategy with lengths drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into(),
        }
    }

    /// Strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        len: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.len.min..self.len.max_excl);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }

        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let mut out = Vec::new();
            let n = value.len();
            // Structural shrinks first: shorter vectors fail simpler.
            if n > self.len.min {
                let half = (n / 2).max(self.len.min);
                if half < n {
                    out.push(value[..half].to_vec());
                }
                out.push(value[..n - 1].to_vec());
                out.push(value[1..].to_vec());
            }
            // Then element-wise shrinks on a few positions.
            for i in 0..n.min(4) {
                for cand in self.element.shrink(&value[i]) {
                    let mut next = value.clone();
                    next[i] = cand;
                    out.push(next);
                }
            }
            out
        }
    }
}

/// Everything a property-test file needs, in one glob import.
pub mod prelude {
    pub use super::{any, boxed_strategy, Arbitrary, Just, Strategy, TestCaseError, Union};
    pub use crate::proptest as prop;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

static INSTALL_HOOK: Once = Once::new();

/// Install (once) a panic hook that stays silent while the runner probes
/// cases, so shrinking does not spray panic backtraces; panics outside the
/// runner go through the previous hook untouched.
fn install_quiet_hook() {
    INSTALL_HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

enum Outcome {
    Pass,
    Reject,
    Fail(String),
}

fn run_one<V, F>(f: &F, value: &V) -> Outcome
where
    F: Fn(&V) -> Result<(), TestCaseError>,
{
    QUIET_PANICS.with(|q| q.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(|| f(value)));
    QUIET_PANICS.with(|q| q.set(false));
    match result {
        Ok(Ok(())) => Outcome::Pass,
        Ok(Err(TestCaseError::Reject)) => Outcome::Reject,
        Ok(Err(TestCaseError::Fail(msg))) => Outcome::Fail(msg),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panicked with a non-string payload".to_string());
            Outcome::Fail(format!("panic: {msg}"))
        }
    }
}

/// Number of cases per property (`PROPTEST_CASES`, default 256).
fn num_cases() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256)
}

/// A property's seed, hashed from its name: every property gets a
/// distinct but fixed case stream.
fn seed_of(name: &str) -> u64 {
    fnv1a(FNV_OFFSET, name.as_bytes())
}

/// Drive one property: generate cases, stop on the first failure, shrink
/// it, and panic with the minimal counterexample. Called by the
/// [`proptest!`](crate::proptest!) macro, not directly.
pub fn run<S, F>(name: &str, strategy: S, f: F)
where
    S: Strategy,
    F: Fn(&S::Value) -> Result<(), TestCaseError>,
{
    install_quiet_hook();
    let cases = num_cases();
    let mut rng = StdRng::seed_from_u64(seed_of(name));
    let mut passed = 0usize;
    let mut attempts = 0usize;
    while passed < cases {
        attempts += 1;
        assert!(
            attempts <= cases.saturating_mul(20),
            "{name}: gave up after {attempts} attempts \
             ({passed}/{cases} cases passed, rest rejected by prop_assume!)"
        );
        let value = strategy.generate(&mut rng);
        match run_one(&f, &value) {
            Outcome::Pass => passed += 1,
            Outcome::Reject => {}
            Outcome::Fail(msg) => {
                let (minimal, min_msg, steps) = shrink_failure(&strategy, &f, value, msg);
                panic!(
                    "property `{name}` failed after {passed} passing case(s), \
                     {steps} shrink step(s)\n  counterexample: {minimal:?}\n  error: {min_msg}"
                );
            }
        }
    }
}

fn shrink_failure<S, F>(
    strategy: &S,
    f: &F,
    mut value: S::Value,
    mut msg: String,
) -> (S::Value, String, usize)
where
    S: Strategy,
    F: Fn(&S::Value) -> Result<(), TestCaseError>,
{
    let mut steps = 0usize;
    'outer: while steps < 500 {
        for cand in strategy.shrink(&value) {
            if let Outcome::Fail(m) = run_one(f, &cand) {
                value = cand;
                msg = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (value, msg, steps)
}

/// Define property tests. Mirrors the `proptest!` surface the repo's suites
/// use: each function's arguments are `name in strategy` bindings; bodies
/// may use `prop_assert!`, `prop_assert_eq!` and `prop_assume!`, and plain
/// panics/`assert!`s are caught and shrunk too.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __strategy = ($($strat,)+);
            $crate::proptest::run(stringify!($name), __strategy, |__case| {
                let ($($arg,)+) = __case.clone();
                $body
                Ok(())
            });
        }
    )*};
}

/// Assert a condition inside a [`proptest!`](crate::proptest!) body,
/// reporting the generated case on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::proptest::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::proptest::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a [`proptest!`](crate::proptest!) body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err($crate::proptest::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {l:?}\n right: {r:?}",
                stringify!($left),
                stringify!($right),
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err($crate::proptest::TestCaseError::fail(format!(
                "{}\n  left: {l:?}\n right: {r:?}",
                format!($($fmt)+),
            )));
        }
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::proptest::Union::new(vec![
            $($crate::proptest::boxed_strategy($arm)),+
        ])
    };
}

/// Discard the current case (uncounted) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::proptest::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        /// Addition of values drawn from ranges stays within the sum of the
        /// bounds — exercises ranges, tuples and the runner end to end.
        #[test]
        fn range_sums_bounded(a in 0u32..100, b in 0u32..100) {
            prop_assert!(a < 100 && b < 100);
            prop_assert!(a + b < 199, "sum {}", a + b);
        }

        /// Vec strategy honours its length bounds.
        #[test]
        fn vec_lengths_in_bounds(v in prop::collection::vec(any::<u8>(), 2..9)) {
            prop_assert!((2..9).contains(&v.len()), "len {}", v.len());
        }

        /// prop_map and prop_oneof! compose.
        #[test]
        fn mapped_union_values(x in prop_oneof![
            (0u64..10).prop_map(|v| v * 2),
            Just(99u64),
        ]) {
            prop_assert!(x == 99 || (x % 2 == 0 && x < 20), "x = {x}");
        }

        /// prop_assume! discards without failing.
        #[test]
        fn assume_filters_cases(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn failing_property_shrinks_to_minimal_case() {
        let result = std::panic::catch_unwind(|| {
            super::run("shrink_demo", (0u64..1000,), |&(x,)| {
                if x >= 500 {
                    Err(TestCaseError::fail("too big"))
                } else {
                    Ok(())
                }
            });
        });
        let msg = *result
            .expect_err("property must fail")
            .downcast::<String>()
            .expect("panic carries a String");
        assert!(
            msg.contains("counterexample: (500,)"),
            "did not shrink to the boundary: {msg}"
        );
    }

    #[test]
    fn panicking_bodies_are_caught_and_reported() {
        let result = std::panic::catch_unwind(|| {
            super::run("panic_demo", (0u32..10,), |&(x,)| {
                assert!(x < 100, "impossible");
                if x > 3 {
                    panic!("boom at {x}");
                }
                Ok(())
            });
        });
        let msg = *result
            .expect_err("property must fail")
            .downcast::<String>()
            .expect("panic carries a String");
        assert!(msg.contains("boom at 4"), "wrong shrink target: {msg}");
    }

    #[test]
    fn same_name_same_cases() {
        fn collect(name: &str) -> Vec<u64> {
            let mut seen = Vec::new();
            let mut rng = crate::rng::StdRng::seed_from_u64(super::seed_of(name));
            for _ in 0..32 {
                seen.push((0u64..1_000_000).generate(&mut rng));
            }
            seen
        }
        assert_eq!(collect("alpha"), collect("alpha"));
        assert_ne!(collect("alpha"), collect("beta"));
    }
}
