//! Dense linear algebra on row-major `f32` slices.
//!
//! Everything the models need: three GEMM variants (plain, A-transposed,
//! B-transposed), each a blocked form of the naive loop it replaced, plus
//! the ReLU and softmax helpers.
//!
//! **Blocks.** Each kernel runs its naive loop for a group of rows or
//! outputs at once, so that one load feeds several products:
//!
//! * [`matmul`] (`c = a·b`): `GROUP` (four) rows of `c` share each row of
//!   `b` — one load of a `b` value feeds four products.
//! * [`matmul_at_b`] (`c = aᵀ·b`): four rows of `a` and `b` fold into one
//!   pass over each row of `c` — a `c` value is loaded and stored once per
//!   four products, added to it in a register one after another.
//! * [`matmul_a_bt`] (`c = a·bᵀ`): a block of four rows × `CHAINS` (eight)
//!   outputs of `c`, held in registers over the whole inner index. The
//!   eight rows of `b` that feed those outputs are first packed, transposed,
//!   into an `n×8` panel (one buffer, reused for every panel), so each inner
//!   step is one contiguous 8-wide panel line feeding four rows of `a`. The
//!   naive loop's one dot-product chain waited for every add to finish
//!   before starting the next; 32 independent chains keep the adder busy.
//!
//! Rows past the last full group run the same code with a group of one; for
//! [`matmul_a_bt`], outputs past the last full panel run the naive loop's
//! one chain.
//!
//! **Ordering rule.** Every output element adds its products one at a time,
//! in ascending inner index, to an accumulator that starts at `+0`, the
//! order of the naive loops. A group only decides which outputs are worked
//! on together, never the order of one output's sum, so the results are
//! bit-identical to the naive loops (`tests/same_bits.rs` keeps them as its
//! oracle). The one exception is a NaN's payload: which NaN `x + y` returns
//! when both are NaN is left open by Rust, and the register allocator
//! decides it, for the naive loops as much as for these. There is no FMA:
//! `mul_add` rounds once where `a * b + c` rounds twice, so it would move
//! bits, and Rust never fuses the two on its own.
//!
//! **Vectorization.** The innermost loops of [`matmul`] and [`matmul_at_b`]
//! run along a row of `b` and `c`, so their vector lanes are different
//! outputs, and LLVM vectorizes them without reassociating anything. A dot
//! product cannot be vectorized along its own inner index without
//! reassociating its sum, so [`matmul_a_bt`] vectorizes across outputs
//! instead: the eight lanes are eight outputs of one row, fed by one
//! contiguous panel line, and each lane adds its own products in order.
//!
//! **Zero skip.** The naive [`matmul`] and [`matmul_at_b`] skipped every
//! product whose `a` value is `±0` (ReLU activations and their gradients are
//! about half zeros); the grouped loops skip an inner index only when all
//! four of its `a` values are, and add the zero products of a partly zero
//! group. That is exact: an accumulator that starts at `+0` is never `-0` (a
//! rounded sum is `-0` only when both addends are), and adding `±0` to
//! anything but `-0` leaves it unchanged, so skipping a zero product or
//! adding it gives the same bits, provided `b` is finite (`0 · ∞` is NaN).
//! [`matmul_a_bt`] adds every product, as its naive loop did.
//!
//! **Branches.** No elementwise loop takes a data-dependent branch or
//! stores conditionally per element: half of all activations are negative,
//! in no pattern a predictor can learn, so `if x < 0 { *v = 0 }` mispredicts
//! about every other element: on 32 768 random values it took 136 µs where
//! the select takes 3 µs (2-vCPU Xeon, release build). [`relu_inplace`] and
//! [`relu_backward_inplace`] write every element as a select,
//! `if p { 0.0 } else { *v }`, which LLVM turns into a vector compare and
//! blend. The predicate is the branchy loop's, and a select moves values
//! without arithmetic, so every output bit is the one the branchy loop
//! stored — NaN payloads, `±0`, `±∞` and subnormals included
//! (`tests/same_bits.rs`). The zero skip above does branch on
//! data, but once per inner index, ahead of a whole row of products, not
//! once per element.
//!
//! Safe, portable code only: no `unsafe`, no `std::arch` intrinsics, no
//! target features (`scripts/ci.sh` guards this crate).

/// Rows that each kernel works on in one pass.
const GROUP: usize = 4;
/// Outputs of a row that [`matmul_a_bt`] computes from one packed panel.
const CHAINS: usize = 8;

/// Rows `i..i + G` of the row-major matrix `v` with rows of `len`.
#[inline(always)]
fn rows<const G: usize>(v: &[f32], i: usize, len: usize) -> [&[f32]; G] {
    std::array::from_fn(|r| &v[(i + r) * len..][..len])
}

/// [`rows`], mutably.
#[inline(always)]
fn rows_mut<const G: usize>(v: &mut [f32], i: usize, len: usize) -> [&mut [f32]; G] {
    let mut rest = &mut v[i * len..];
    std::array::from_fn(|_| {
        let (row, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        row
    })
}

/// Whether every value is `±0`, so its products change no sum (module doc).
#[inline(always)]
fn all_zero(v: &[f32]) -> bool {
    v.iter().fold(0, |bits, x| bits | x.to_bits()) << 1 == 0
}

/// `c[m×n] = a[m×k] · b[k×n]` (overwrites `c`).
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a shape");
    assert_eq!(b.len(), k * n, "b shape");
    assert_eq!(c.len(), m * n, "c shape");
    let grouped = m - m % GROUP;
    for i in (0..grouped).step_by(GROUP) {
        matmul_rows::<GROUP>(rows(a, i, k), b, rows_mut(c, i, n));
    }
    for i in grouped..m {
        matmul_rows::<1>(rows(a, i, k), b, rows_mut(c, i, n));
    }
}

/// [`matmul`] for the `G` rows `a` holds and `c` receives.
#[inline(always)]
fn matmul_rows<const G: usize>(a: [&[f32]; G], b: &[f32], mut c: [&mut [f32]; G]) {
    for c_row in &mut c {
        c_row.fill(0.0);
    }
    let n = c[0].len();
    for kk in 0..a[0].len() {
        let a_kk: [f32; G] = std::array::from_fn(|r| a[r][kk]);
        if all_zero(&a_kk) {
            continue;
        }
        // Every slice exactly `n` long: the loop needs no bounds check.
        let b_row = &b[kk * n..][..n];
        let c_rows = c.each_mut().map(|c_row| &mut c_row[..n]);
        for j in 0..n {
            for r in 0..G {
                c_rows[r][j] += a_kk[r] * b_row[j];
            }
        }
    }
}

/// `c[k×n] = aᵀ[k×m] · b[m×n]` where `a` is stored as `m×k` — the weight-
/// gradient product `Xᵀ·dY` in backprop.
pub fn matmul_at_b(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a shape");
    assert_eq!(b.len(), m * n, "b shape");
    assert_eq!(c.len(), k * n, "c shape");
    c.fill(0.0);
    let grouped = m - m % GROUP;
    for i in (0..grouped).step_by(GROUP) {
        matmul_at_b_rows::<GROUP>(rows(a, i, k), rows(b, i, n), c);
    }
    for i in grouped..m {
        matmul_at_b_rows::<1>(rows(a, i, k), rows(b, i, n), c);
    }
}

/// Add [`matmul_at_b`]'s products of the `G` rows `a` and `b` hold to `c`.
#[inline(always)]
fn matmul_at_b_rows<const G: usize>(a: [&[f32]; G], b: [&[f32]; G], c: &mut [f32]) {
    let n = b[0].len();
    let b = b.map(|b_row| &b_row[..n]);
    for kk in 0..a[0].len() {
        let a_kk: [f32; G] = std::array::from_fn(|r| a[r][kk]);
        if all_zero(&a_kk) {
            continue;
        }
        let c_row = &mut c[kk * n..][..n];
        for j in 0..n {
            let mut acc = c_row[j];
            for r in 0..G {
                acc += a_kk[r] * b[r][j];
            }
            c_row[j] = acc;
        }
    }
}

/// `c[m×k] = a[m×n] · bᵀ[n×k]` where `b` is stored as `k×n` — the input-
/// gradient product `dY·Wᵀ` in backprop.
pub fn matmul_a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    assert_eq!(a.len(), m * n, "a shape");
    assert_eq!(b.len(), k * n, "b shape");
    assert_eq!(c.len(), m * k, "c shape");
    let grouped = m - m % GROUP;
    let paneled = k - k % CHAINS;
    let mut panel = vec![0.0f32; n * CHAINS];
    for kk in (0..paneled).step_by(CHAINS) {
        pack_panel(rows::<CHAINS>(b, kk, n), &mut panel);
        for i in (0..grouped).step_by(GROUP) {
            panel_block::<GROUP>(rows(a, i, n), &panel, rows_mut(c, i, k), kk);
        }
        for i in grouped..m {
            panel_block::<1>(rows(a, i, n), &panel, rows_mut(c, i, k), kk);
        }
    }
    for i in 0..m {
        let a_row = &a[i * n..][..n];
        for kk in paneled..k {
            c[i * k + kk] = dot(a_row, &b[kk * n..][..n]);
        }
    }
}

/// Lay the `CHAINS` rows `b` holds side by side: line `t` of `panel` is
/// their `t`-th values, so one contiguous load feeds all `CHAINS` outputs.
#[inline(always)]
fn pack_panel(b: [&[f32]; CHAINS], panel: &mut [f32]) {
    let n = panel.len() / CHAINS;
    let b = b.map(|b_row| &b_row[..n]);
    for t in 0..n {
        let line = &mut panel[t * CHAINS..][..CHAINS];
        for j in 0..CHAINS {
            line[j] = b[j][t];
        }
    }
}

/// [`matmul_a_bt`]'s outputs `kk..kk + CHAINS` of the `G` rows `a` holds and
/// `c` receives, from the `b` rows packed into `panel`: a `G × CHAINS` block
/// held in registers over the whole inner index.
#[inline(always)]
fn panel_block<const G: usize>(a: [&[f32]; G], panel: &[f32], c: [&mut [f32]; G], kk: usize) {
    let n = panel.len() / CHAINS;
    let a = a.map(|a_row| &a_row[..n]);
    let mut acc = [[0.0f32; CHAINS]; G];
    for t in 0..n {
        let line = &panel[t * CHAINS..][..CHAINS];
        for r in 0..G {
            let a_rt = a[r][t];
            for j in 0..CHAINS {
                acc[r][j] += a_rt * line[j];
            }
        }
    }
    for (c_row, outputs) in c.into_iter().zip(&acc) {
        c_row[kk..kk + CHAINS].copy_from_slice(outputs);
    }
}

/// The naive loop's one dot-product chain.
#[inline(always)]
fn dot(a_row: &[f32], b_row: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for t in 0..a_row.len() {
        acc += a_row[t] * b_row[t];
    }
    acc
}

/// In-place ReLU; returns nothing, mutates `x`. A select, not a
/// conditional store (module doc, **Branches**).
pub fn relu_inplace(x: &mut [f32]) {
    for v in x {
        *v = if *v < 0.0 { 0.0 } else { *v };
    }
}

/// Backprop through ReLU: `dx = dy ⊙ [pre > 0]`, written into `dy` in place
/// given the pre-activation values — or the activations [`relu_inplace`]
/// made of them, which are `> 0` exactly where `pre` is (NaN included).
pub fn relu_backward_inplace(pre: &[f32], dy: &mut [f32]) {
    debug_assert_eq!(pre.len(), dy.len());
    for (d, &p) in dy.iter_mut().zip(pre) {
        *d = if p <= 0.0 { 0.0 } else { *d };
    }
}

/// Row-wise softmax over an `m×n` matrix, in place, numerically stabilized.
pub fn softmax_rows_inplace(x: &mut [f32], m: usize, n: usize) {
    assert_eq!(x.len(), m * n);
    for i in 0..m {
        let row = &mut x[i * n..(i + 1) * n];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    fn seq(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37).sin()).collect()
    }

    #[test]
    fn matmul_matches_naive() {
        let (m, k, n) = (5, 7, 3);
        let a = seq(m * k);
        let b = seq(k * n);
        let mut c = vec![0.0; m * n];
        matmul(&a, &b, &mut c, m, k, n);
        let expected = naive_matmul(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_at_b_matches_explicit_transpose() {
        let (m, k, n) = (6, 4, 5);
        let a = seq(m * k);
        let b = seq(m * n);
        let mut c = vec![0.0; k * n];
        matmul_at_b(&a, &b, &mut c, m, k, n);
        // Explicit transpose of a, then plain matmul.
        let mut at = vec![0.0; k * m];
        for i in 0..m {
            for j in 0..k {
                at[j * m + i] = a[i * k + j];
            }
        }
        let expected = naive_matmul(&at, &b, k, m, n);
        for (x, y) in c.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_a_bt_matches_explicit_transpose() {
        let (m, n, k) = (5, 6, 11);
        let a = seq(m * n);
        let b = seq(k * n);
        let mut c = vec![0.0; m * k];
        matmul_a_bt(&a, &b, &mut c, m, n, k);
        let mut bt = vec![0.0; n * k];
        for i in 0..k {
            for j in 0..n {
                bt[j * k + i] = b[i * n + j];
            }
        }
        let expected = naive_matmul(&a, &bt, m, n, k);
        for (x, y) in c.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn an_empty_inner_dimension_gives_zeros() {
        let mut c = vec![f32::NAN; 6];
        matmul(&[], &[], &mut c, 3, 0, 2);
        assert_eq!(c, [0.0; 6]);
        let mut c = vec![f32::NAN; 6];
        matmul_at_b(&[], &[], &mut c, 0, 3, 2);
        assert_eq!(c, [0.0; 6]);
        let mut c = vec![f32::NAN; 6];
        matmul_a_bt(&[], &[], &mut c, 3, 0, 2);
        assert_eq!(c, [0.0; 6]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let mut x = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_rows_inplace(&mut x, 2, 3);
        for i in 0..2 {
            let row = &x[i * 3..(i + 1) * 3];
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(row[0] < row[1] && row[1] < row[2]);
        }
    }

    #[test]
    fn softmax_survives_large_logits() {
        let mut x = vec![1000.0, 1001.0];
        softmax_rows_inplace(&mut x, 1, 2);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x[0] + x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn relu_and_backward() {
        let pre = vec![-1.0, 0.0, 2.0];
        let mut act = pre.clone();
        relu_inplace(&mut act);
        assert_eq!(act, vec![0.0, 0.0, 2.0]);
        let mut dy = vec![5.0, 5.0, 5.0];
        relu_backward_inplace(&pre, &mut dy);
        assert_eq!(dy, vec![0.0, 0.0, 5.0]);
    }
}
