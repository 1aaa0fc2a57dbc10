//! One dispatch point between the x86-64 baseline and the CPU's widest
//! vector unit.
//!
//! [`widest`] runs a closure. Where the CPU has AVX2 (the x86-64-v3 vector
//! unit), it runs it inside a function compiled with that unit enabled;
//! anywhere else it runs it as it is. A caller that marks its closure and
//! everything the closure calls `#[inline(always)]` gets the same source
//! compiled twice, once per instance, and the CPU picks one at run time:
//! no build flag, no option.
//!
//! Only the instruction set changes, so the results do not. The enabled set
//! leaves out `fma`, and Rust never contracts `a * b + c` into one fused
//! operation anyway: every product and every sum rounds exactly as it does
//! at the baseline, in the order the source gives.
//!
//! This is the one place in the workspace that names a target feature, and
//! its one `unsafe` block is the call after the check (`scripts/ci.sh`
//! guards both).

/// `f()`, compiled for the widest vector unit this CPU has. Mark `f` (and
/// what it calls) `#[inline(always)]`, or the wide instance is only a call
/// into the baseline code.
#[inline(always)]
pub fn widest<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2` needs the AVX2 instructions it enables, and the
        // check above found this CPU has them.
        return unsafe { avx2(f) };
    }
    f()
}

/// `f()` with AVX2 enabled: the instance every closure inlined here gets.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_closure_runs_once_and_its_value_is_returned() {
        let mut calls = 0;
        let got = widest(|| {
            calls += 1;
            vec![calls; 3]
        });
        assert_eq!(calls, 1);
        assert_eq!(got, [1, 1, 1]);
    }
}
