//! Dense linear algebra on row-major `f32` slices.
//!
//! Everything the models need: three GEMM variants (plain, A-transposed,
//! B-transposed), all run by one sparse kernel, plus the ReLU and softmax
//! helpers.
//!
//! **One kernel.** Each product has an activation operand `a` and a weight
//! or gradient operand `b`. The kernel first compacts each *list* of `a` —
//! a row or a column, whichever runs along the inner index — into its
//! `(index, value)` pairs without the `±0` values, with no branch per
//! element: every pair is written and the write position advances by
//! `value != 0`. Then, for each block of [`BLOCK`] (32) outputs of a row of
//! `c`, it walks that row's list, adds `value × line[index]` into 32
//! accumulators held in registers, and stores the block once at the end. A
//! *line* is 32 contiguous values of `b` that feed the block's 32 outputs.
//! The three products differ only in where the lists and lines come from:
//!
//! * [`matmul`] (`c = a·b`): lists over the rows of `a`; the lines are rows
//!   of `b`.
//! * [`matmul_at_b`] (`c = aᵀ·b`): lists over the columns of `a`, built in
//!   one pass along its rows; the lines are rows of `b`, each block's
//!   copied into one reused panel. Every `c` value is written once, so `c`
//!   is not zeroed first.
//! * [`matmul_a_bt`] (`c = a·bᵀ`): lists over the rows of `a`; each block's
//!   32 rows of `b` are packed, transposed, into an `n × 32` panel (one
//!   buffer, reused for every block), whose line `t` holds their `t`-th
//!   values.
//!
//! Outputs past the last full block run the same walk, narrower: the
//! remainder splits into blocks of 16, 8, 4, 2 and 1. About half of every
//! hidden-layer operand is an exact ReLU zero, and the lists leave out each
//! one on its own.
//!
//! **Ordering rule.** Every output element adds its products one at a time,
//! in ascending inner index (list order), to an accumulator that starts at
//! `+0`, the order of the naive loops, so the results are bit-identical to
//! them (`tests/same_bits.rs` keeps them as its oracle). The one exception
//! is a NaN's payload: which NaN `x + y` returns when both are NaN is left
//! open by Rust, and the register allocator decides it, for the naive loops
//! as much as for this kernel. There is no FMA: `mul_add` rounds once where
//! `a * b + c` rounds twice, so it would move bits, and Rust never fuses the
//! two on its own.
//!
//! **Zero skip.** The naive [`matmul`] and [`matmul_at_b`] skipped every
//! product whose `a` value is `±0`, and their lists skip exactly those, so
//! they agree with the naive loops for every `b`, `±∞` and NaN included.
//! The naive [`matmul_a_bt`] added every product. Skipping one of those is
//! exact when the product is `±0`: an accumulator that starts at `+0` is
//! never `-0` (a rounded sum is `-0` only when both addends are), and adding
//! `±0` to anything but `-0` leaves it unchanged. But `0 · ∞` and `0 · NaN`
//! are NaN, so [`matmul_a_bt`] walks lists without the `±0` values only for
//! a block whose rows of `b` are all finite, which packing checks; any other
//! block walks lists that keep every index (built once, when the first such
//! block turns up), and the NaN appears where the naive loop put it.
//!
//! **Vectorization.** A dot product cannot be vectorized along its own
//! inner index without reassociating its sum, so the walk vectorizes across
//! outputs instead: the 32 lanes are 32 outputs, fed by one contiguous line,
//! and each lane adds its own products in order.
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
//! (`tests/same_bits.rs`). The list compaction is branch-free the same way;
//! the walk branches once per list entry, ahead of a whole line of
//! products.
//!
//! **Two instances, one source.** The code is safe and portable: no
//! `unsafe`, no `std::arch` intrinsics, no target features (`scripts/ci.sh`
//! guards this crate). Each product's entry point hands its body to
//! [`widest`], and the body and everything it calls are
//! `#[inline(always)]`, so the same source is compiled twice: once for the
//! x86-64 baseline (SSE2, four lanes) and once inside `widest`'s AVX2
//! instance (eight lanes, so a 32-wide walk takes about half the vector
//! instructions per list entry). `widest` runs the wide instance where the
//! CPU has AVX2 and the baseline anywhere else. Wider lanes hold more
//! outputs, not more of one output's products: each lane still adds its
//! products one at a time, in list order, from `+0`, and there is no FMA,
//! so both instances produce the same bits (the tests below compare them).

use std::ops::Range;

use fluentps_util::cpu::widest;

/// Outputs that one walk keeps in registers.
const BLOCK: usize = 32;

/// One `(index, value)` list per row or column of an operand, each in
/// ascending index order: list `r` is `entries[spans[r]]`.
struct Lists {
    entries: Vec<(u32, f32)>,
    spans: Vec<Range<usize>>,
}

impl Lists {
    /// A list per row of the `rows × len` matrix `a`, without its `±0`
    /// values when `skip_zeros`.
    #[inline(always)]
    fn by_row(a: &[f32], rows: usize, len: usize, skip_zeros: bool) -> Lists {
        let mut entries = vec![(0, 0.0); a.len()];
        let mut spans = Vec::with_capacity(rows);
        let mut end = 0;
        for i in 0..rows {
            let start = end;
            let row = &a[i * len..][..len];
            for t in 0..len {
                entries[end] = (t as u32, row[t]);
                end += (row[t] != 0.0 || !skip_zeros) as usize;
            }
            spans.push(start..end);
        }
        Lists { entries, spans }
    }

    /// A list per column of the `rows × len` matrix `a`, without its `±0`
    /// values, from one pass along its rows: column `t` fills
    /// `entries[t * cap..]`. The spare slot per column keeps the `len`
    /// write positions from lying a power of two apart, where they would
    /// all fall into a few cache sets and evict each other (`rows` is a
    /// power of two at every batch size the ledger runs): it halves the
    /// pass at 128 × 256.
    #[inline(always)]
    fn by_column(a: &[f32], rows: usize, len: usize) -> Lists {
        let cap = rows + 1;
        let mut entries = vec![(0, 0.0); cap * len];
        let mut ends: Vec<usize> = (0..len).map(|t| t * cap).collect();
        for i in 0..rows {
            let row = &a[i * len..][..len];
            for t in 0..len {
                entries[ends[t]] = (i as u32, row[t]);
                ends[t] += (row[t] != 0.0) as usize;
            }
        }
        let spans = ends.iter().zip(0..).map(|(&end, t)| t * cap..end).collect();
        Lists { entries, spans }
    }
}

/// `0..width` in blocks: [`BLOCK`] wide, then the remainder in descending
/// powers of two.
fn blocks(width: usize) -> impl Iterator<Item = Range<usize>> {
    let mut start = 0;
    std::iter::from_fn(move || {
        let w = BLOCK.min(1 << (width - start).checked_ilog2()?);
        start += w;
        Some(start - w..start)
    })
}

/// Outputs `block` of every row of `c` (`width` outputs each): row `r`
/// gets list `r`'s walk over `lines`, line `t` starting at `t * stride`.
#[inline(always)]
fn walk_block(
    lists: &Lists,
    lines: &[f32],
    stride: usize,
    c: &mut [f32],
    width: usize,
    block: &Range<usize>,
) {
    for (r, span) in lists.spans.iter().enumerate() {
        let list = &lists.entries[span.clone()];
        let out = &mut c[r * width..][block.clone()];
        match out.len() {
            BLOCK => walk::<BLOCK>(list, lines, stride, out),
            16 => walk::<16>(list, lines, stride, out),
            8 => walk::<8>(list, lines, stride, out),
            4 => walk::<4>(list, lines, stride, out),
            2 => walk::<2>(list, lines, stride, out),
            _ => walk::<1>(list, lines, stride, out),
        }
    }
}

/// `out[j] = Σ value × lines[index * stride + j]` over `list`, one product
/// at a time in list order, from `+0`, in `W` registers.
#[inline(always)]
fn walk<const W: usize>(list: &[(u32, f32)], lines: &[f32], stride: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; W];
    for &(t, v) in list {
        let line = &lines[t as usize * stride..][..W];
        for j in 0..W {
            acc[j] += v * line[j];
        }
    }
    out.copy_from_slice(&acc);
}

/// `c[m×n] = a[m×k] · b[k×n]` (overwrites `c`).
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    widest(
        #[inline(always)]
        || matmul_body(a, b, c, m, k, n),
    )
}

#[inline(always)]
fn matmul_body(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a shape");
    assert_eq!(b.len(), k * n, "b shape");
    assert_eq!(c.len(), m * n, "c shape");
    let lists = Lists::by_row(a, m, k, true);
    for block in blocks(n) {
        // Empty when `k == 0`, where no list has an entry.
        let lines = b.get(block.start..).unwrap_or_default();
        walk_block(&lists, lines, n, c, n, &block);
    }
}

/// `c[k×n] = aᵀ[k×m] · b[m×n]` where `a` is stored as `m×k` — the weight-
/// gradient product `Xᵀ·dY` in backprop.
pub fn matmul_at_b(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    widest(
        #[inline(always)]
        || matmul_at_b_body(a, b, c, m, k, n),
    )
}

#[inline(always)]
fn matmul_at_b_body(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a shape");
    assert_eq!(b.len(), m * n, "b shape");
    assert_eq!(c.len(), k * n, "c shape");
    let lists = Lists::by_column(a, m, k);
    // Each block's lines are copied into a panel, 32 values apart instead
    // of `n`: every one of the `k` lists walks them, and `n` values apart
    // (a power of two in most layers) they crowd into a few cache sets.
    let mut panel = vec![0.0f32; m * BLOCK.min(n)];
    for block in blocks(n) {
        let w = block.len();
        let panel = &mut panel[..m * w];
        for (line, row) in panel.chunks_exact_mut(w).zip(b.chunks_exact(n)) {
            line.copy_from_slice(&row[block.clone()]);
        }
        walk_block(&lists, panel, w, c, n, &block);
    }
}

/// `c[m×k] = a[m×n] · bᵀ[n×k]` where `b` is stored as `k×n` — the input-
/// gradient product `dY·Wᵀ` in backprop.
pub fn matmul_a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    widest(
        #[inline(always)]
        || matmul_a_bt_body(a, b, c, m, n, k),
    )
}

#[inline(always)]
fn matmul_a_bt_body(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    assert_eq!(a.len(), m * n, "a shape");
    assert_eq!(b.len(), k * n, "b shape");
    assert_eq!(c.len(), m * k, "c shape");
    let skip_zeros = Lists::by_row(a, m, n, true);
    let mut every_index = None;
    let mut panel = vec![0.0f32; n * BLOCK.min(k)];
    for block in blocks(k) {
        // Line `t` of the panel is the `t`-th values of the block's rows.
        let w = block.len();
        let panel = &mut panel[..n * w];
        let mut finite = true;
        for (j, kk) in block.clone().enumerate() {
            let row = &b[kk * n..][..n];
            for (line, &v) in panel.chunks_exact_mut(w).zip(row) {
                line[j] = v;
            }
            finite &= row.iter().fold(true, |f, x| f & x.is_finite());
        }
        let lists = match finite {
            true => &skip_zeros,
            false => every_index.get_or_insert_with(|| Lists::by_row(a, m, n, false)),
        };
        walk_block(lists, panel, w, c, k, &block);
    }
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
    use fluentps_util::rng::StdRng;

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

    /// `len` values of every class: about half exact zeros, `-0.0`,
    /// subnormals and normal values over a spread of exponents wide enough
    /// for rounding to depend on the order of a sum; with `non_finite`,
    /// about one in 16 is `±∞` or a NaN with a random payload.
    fn operand(rng: &mut StdRng, len: usize, non_finite: bool) -> Vec<f32> {
        let classes = if non_finite { 64 } else { 60 };
        (0..len)
            .map(|_| {
                let v = match rng.gen_range(0u32..classes) {
                    0..=29 => return 0.0,
                    30..=32 => return -0.0,
                    33..=35 => f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
                    36..=59 => rng.gen_range(0.5f32..1.0) * 2f32.powi(rng.gen_range(-12i32..12)),
                    60 => f32::INFINITY,
                    _ => f32::from_bits(0x7f80_0000 | rng.gen_range(1u32..0x0080_0000)),
                };
                if rng.gen_bool(0.5) {
                    -v
                } else {
                    v
                }
            })
            .collect()
    }

    /// The values' bits, with every NaN as one value: which NaN `x + y`
    /// returns when both are NaN is left open (module doc, **Ordering
    /// rule**), and the two instances allocate their registers differently.
    fn bits(v: &[f32]) -> Vec<u32> {
        let one_nan = |x: f32| if x.is_nan() { f32::NAN } else { x };
        v.iter().map(|&x| one_nan(x).to_bits()).collect()
    }

    type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

    /// Each product's entry point (the CPU's widest instance) against its
    /// body called here (the baseline instance), with `rows × width`
    /// outputs summed over `inner`, into `c` buffers that hold garbage.
    fn instances_agree(rng: &mut StdRng, (rows, inner, width): (usize, usize, usize)) {
        type Case = (&'static str, Kernel, Kernel, (usize, usize, usize));
        let cases: [Case; 3] = [
            ("matmul", matmul, matmul_body, (rows, inner, width)),
            (
                "matmul_at_b",
                matmul_at_b,
                matmul_at_b_body,
                (inner, rows, width),
            ),
            (
                "matmul_a_bt",
                matmul_a_bt,
                matmul_a_bt_body,
                (rows, inner, width),
            ),
        ];
        for non_finite in [false, true] {
            let a = operand(rng, rows * inner, non_finite);
            let b = operand(rng, inner * width, non_finite);
            for (name, wide, baseline, (d0, d1, d2)) in cases {
                let mut got = vec![f32::NAN; rows * width];
                let mut want = vec![-7.0f32; rows * width];
                wide(&a, &b, &mut got, d0, d1, d2);
                baseline(&a, &b, &mut want, d0, d1, d2);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{name} {rows}x{inner}x{width}, non-finite {non_finite}"
                );
            }
        }
    }

    #[test]
    fn the_wide_and_baseline_instances_agree_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(47);
        for _ in 0..40 {
            let dims = (1..=3)
                .map(|_| rng.gen_range(1usize..=40))
                .collect::<Vec<_>>();
            instances_agree(&mut rng, (dims[0], dims[1], dims[2]));
        }
        // The classifier's 10 outputs, one block, one past it, two blocks
        // with the narrower ones after them, and an empty inner dimension.
        for width in [10, 32, 33, 69, 70] {
            instances_agree(&mut rng, (5, 11, width));
        }
        instances_agree(&mut rng, (3, 0, 33));
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
