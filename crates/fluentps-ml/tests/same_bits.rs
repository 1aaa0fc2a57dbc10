//! The GEMM kernels, the ReLU passes and the optimizer produce the bits the
//! naive loops produced.
//!
//! `linalg`'s list kernel keeps every output element's summation order (one
//! product at a time, ascending inner index, no FMA), so it must agree with
//! the loops it replaced bit for bit, not within a tolerance; the ReLU
//! passes are selects on the branchy loops' predicate. Three checks:
//! a property test against those loops, copied verbatim as the oracle, on
//! every block remainder with zeros, negative zeros and subnormals, empty
//! and full lists, and infinities and NaNs in `b`; the same for the ReLU
//! pair, NaN payloads included, and for `Sgd::deltas` against its indexed
//! loop; and training fingerprints of the ledger's three `Mlp` shapes,
//! computed before the kernels were rewritten and pinned here, next to the
//! initial-parameter fingerprints of two of them, pinned before
//! `Initializer` drew its weights with `StdRng::fill_range`.

use fluentps_ml::data::{synthetic, BatchSampler, SyntheticSpec};
use fluentps_ml::linalg::{matmul, matmul_a_bt, matmul_at_b, relu_backward_inplace, relu_inplace};
use fluentps_ml::{Mlp, Model, Optimizer, Sgd};
use fluentps_util::fnv::{fnv1a, FNV_OFFSET};
use fluentps_util::proptest::prelude::*;
use fluentps_util::rng::StdRng;

/// The oracle: the naive loops as they were before the tiled kernels.
mod naive {
    pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        assert_eq!(a.len(), m * k, "a shape");
        assert_eq!(b.len(), k * n, "b shape");
        assert_eq!(c.len(), m * n, "c shape");
        c.fill(0.0);
        for i in 0..m {
            let c_row = &mut c[i * n..(i + 1) * n];
            for kk in 0..k {
                let a_ik = a[i * k + kk];
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n..(kk + 1) * n];
                for (cv, bv) in c_row.iter_mut().zip(b_row) {
                    *cv += a_ik * bv;
                }
            }
        }
    }

    pub fn matmul_at_b(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        assert_eq!(a.len(), m * k, "a shape");
        assert_eq!(b.len(), m * n, "b shape");
        assert_eq!(c.len(), k * n, "c shape");
        c.fill(0.0);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let b_row = &b[i * n..(i + 1) * n];
            for (kk, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let c_row = &mut c[kk * n..(kk + 1) * n];
                for (cv, bv) in c_row.iter_mut().zip(b_row) {
                    *cv += a_ik * bv;
                }
            }
        }
    }

    pub fn matmul_a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
        assert_eq!(a.len(), m * n, "a shape");
        assert_eq!(b.len(), k * n, "b shape");
        assert_eq!(c.len(), m * k, "c shape");
        for i in 0..m {
            let a_row = &a[i * n..(i + 1) * n];
            for kk in 0..k {
                let b_row = &b[kk * n..(kk + 1) * n];
                let mut acc = 0.0f32;
                for (av, bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                c[i * k + kk] = acc;
            }
        }
    }

    /// In-place ReLU; returns nothing, mutates `x`.
    pub fn relu_inplace(x: &mut [f32]) {
        for v in x {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// `Sgd::deltas` for one key, the indexed loop over a zero-filled
    /// buffer (the optimizer's fields passed in).
    pub fn sgd_deltas(
        (lr, momentum, weight_decay): (f32, f32, f32),
        v: &mut [f32],
        g: &[f32],
        w: &[f32],
    ) -> Vec<f32> {
        let mut delta = vec![0.0f32; g.len()];
        for i in 0..g.len() {
            let grad = g[i] + weight_decay * w[i];
            v[i] = momentum * v[i] + grad;
            delta[i] = -lr * v[i];
        }
        delta
    }

    /// Backprop through ReLU: `dx = dy ⊙ [pre > 0]`, written into `dy` in place
    /// given the pre-activation values — or the activations [`relu_inplace`]
    /// made of them, which are `> 0` exactly where `pre` is (NaN included).
    pub fn relu_backward_inplace(pre: &[f32], dy: &mut [f32]) {
        debug_assert_eq!(pre.len(), dy.len());
        for (d, &p) in dy.iter_mut().zip(pre) {
            if p <= 0.0 {
                *d = 0.0;
            }
        }
    }
}

/// `len` finite values, about half of them exact zeros (the ReLU sparsity
/// the zero skip exists for), plus some `-0.0`, some subnormals and a spread
/// of exponents wide enough for rounding to depend on the summation order.
fn matrix(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.gen_range(0u32..20) {
            0..=9 => 0.0,
            10 => -0.0,
            11 => {
                let v = f32::from_bits(rng.gen_range(1u32..0x0080_0000));
                if rng.gen_bool(0.5) {
                    -v
                } else {
                    v
                }
            }
            _ => rng.gen_range(-1.0f32..1.0) * 2f32.powi(rng.gen_range(-12i32..12)),
        })
        .collect()
}

/// [`matrix`] with about one value in eight replaced by `+∞`, `-∞` or a NaN
/// of either sign with a random payload, quiet or signalling.
fn non_finite_matrix(rng: &mut StdRng, len: usize) -> Vec<f32> {
    let mut v = matrix(rng, len);
    for x in &mut v {
        *x = match rng.gen_range(0u32..24) {
            0 => f32::INFINITY,
            1 => f32::NEG_INFINITY,
            2 => {
                let nan = f32::from_bits(0x7f80_0000 | rng.gen_range(1u32..0x0080_0000));
                if rng.gen_bool(0.5) {
                    -nan
                } else {
                    nan
                }
            }
            _ => *x,
        };
    }
    v
}

/// [`matrix`] with every value of its first row and first column `±0`
/// (an empty list, whichever way a kernel lists `a`) and no zero elsewhere
/// in its last row and last column (a full one).
fn extremes(rng: &mut StdRng, rows: usize, cols: usize) -> Vec<f32> {
    let mut a = matrix(rng, rows * cols);
    for (i, row) in a.chunks_mut(cols.max(1)).enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            if i == 0 || j == 0 {
                *v = if (i + j) % 2 == 0 { 0.0 } else { -0.0 };
            } else if (i + 1 == rows || j + 1 == cols) && *v == 0.0 {
                *v = rng.gen_range(-1.0f32..1.0) + 2.0;
            }
        }
    }
    a
}

/// `len` activations of every class the ReLU predicates tell apart: `±0`,
/// `±∞`, NaNs of either sign with a random payload (quiet or signalling),
/// subnormals, and normal values over a wide spread of exponents. Every
/// class but the signed zeros and infinities takes a random sign, so about
/// half the values are negative, as pre-activations are.
fn activations(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| {
            let v = match rng.gen_range(0u32..16) {
                0 => return 0.0,
                1 => return -0.0,
                2 => return f32::INFINITY,
                3 => return f32::NEG_INFINITY,
                4 => f32::from_bits(0x7f80_0000 | rng.gen_range(1u32..0x0080_0000)),
                5 => f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
                _ => rng.gen_range(0.5f32..1.0) * 2f32.powi(rng.gen_range(-126i32..128)),
            };
            if rng.gen_bool(0.5) {
                -v
            } else {
                v
            }
        })
        .collect()
}

fn exact_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The values' bits, with every NaN as one value. Which NaN `x + y` returns
/// when both are NaN is left open by Rust, and x86 returns its first
/// operand, which the register allocator picks: in a release build the
/// naive loop returns the newer product's payload and the vectorized kernel
/// the accumulator's. So whether an output is NaN is part of its bits, and
/// the payload is not.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// Draws an operand's values, given its rows and columns.
type Draw = fn(&mut StdRng, usize, usize) -> Vec<f32>;

/// [`matrix`] as a [`Draw`].
fn sparse(rng: &mut StdRng, rows: usize, cols: usize) -> Vec<f32> {
    matrix(rng, rows * cols)
}

/// [`non_finite_matrix`] as a [`Draw`].
fn non_finite(rng: &mut StdRng, rows: usize, cols: usize) -> Vec<f32> {
    non_finite_matrix(rng, rows * cols)
}

/// Run the kernel and the oracle on the same operands (each drawn with its
/// shape) into `c` buffers of `c_len` values holding garbage, and compare
/// bits.
fn same_bits(
    (fast, slow): (Kernel, Kernel),
    (a_values, a_shape): (Draw, (usize, usize)),
    (b_values, b_shape): (Draw, (usize, usize)),
    c_len: usize,
    dims: (usize, usize, usize),
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = a_values(&mut rng, a_shape.0, a_shape.1);
    let b = b_values(&mut rng, b_shape.0, b_shape.1);
    let mut got = vec![f32::NAN; c_len];
    let mut want = vec![-7.0f32; c_len];
    fast(&a, &b, &mut got, dims.0, dims.1, dims.2);
    slow(&a, &b, &mut want, dims.0, dims.1, dims.2);
    prop_assert_eq!(bits(&got), bits(&want), "dims {:?}", dims);
    Ok(())
}

/// [`same_bits`] for `matmul` (`m×k · k×n`).
fn matmul_case(
    (m, k, n): (usize, usize, usize),
    a: Draw,
    b: Draw,
    seed: u64,
) -> Result<(), TestCaseError> {
    let kernels = (matmul as Kernel, naive::matmul as Kernel);
    same_bits(kernels, (a, (m, k)), (b, (k, n)), m * n, (m, k, n), seed)
}

/// [`same_bits`] for `matmul_at_b` (`(m×k)ᵀ · m×n`).
fn at_b_case(
    (m, k, n): (usize, usize, usize),
    a: Draw,
    b: Draw,
    seed: u64,
) -> Result<(), TestCaseError> {
    let kernels = (matmul_at_b as Kernel, naive::matmul_at_b as Kernel);
    same_bits(kernels, (a, (m, k)), (b, (m, n)), k * n, (m, k, n), seed)
}

/// [`same_bits`] for `matmul_a_bt` (`m×n · (k×n)ᵀ`).
fn a_bt_case(
    (m, n, k): (usize, usize, usize),
    a: Draw,
    b: Draw,
    seed: u64,
) -> Result<(), TestCaseError> {
    let kernels = (matmul_a_bt as Kernel, naive::matmul_a_bt as Kernel);
    same_bits(kernels, (a, (m, n)), (b, (k, n)), m * k, (m, n, k), seed)
}

proptest! {
    #[test]
    fn matmul_is_bit_identical_to_the_naive_loop(
        m in 1usize..=40, k in 1usize..=40, n in 1usize..=40, seed in any::<u64>()
    ) {
        matmul_case((m, k, n), sparse, sparse, seed)?;
    }

    #[test]
    fn matmul_at_b_is_bit_identical_to_the_naive_loop(
        m in 1usize..=40, k in 1usize..=40, n in 1usize..=40, seed in any::<u64>()
    ) {
        at_b_case((m, k, n), sparse, sparse, seed)?;
    }

    #[test]
    fn matmul_a_bt_is_bit_identical_to_the_naive_loop(
        m in 1usize..=40, n in 1usize..=40, k in 1usize..=40, seed in any::<u64>()
    ) {
        a_bt_case((m, n, k), sparse, sparse, seed)?;
    }

    /// `matmul` skips exactly the products its naive loop skipped, those of
    /// a `±0` in `a`, so it keeps the loop's bits even where `b` holds
    /// infinities and NaNs: `0 · ∞` is skipped on both sides, `x · ∞` added
    /// on both.
    #[test]
    fn matmul_is_bit_identical_to_the_naive_loop_on_non_finite_b(
        m in 1usize..=40, k in 1usize..=40, n in 1usize..=40, seed in any::<u64>()
    ) {
        matmul_case((m, k, n), sparse, non_finite, seed)?;
    }

    /// As above, for `matmul_at_b`.
    #[test]
    fn matmul_at_b_is_bit_identical_to_the_naive_loop_on_non_finite_b(
        m in 1usize..=40, k in 1usize..=40, n in 1usize..=40, seed in any::<u64>()
    ) {
        at_b_case((m, k, n), sparse, non_finite, seed)?;
    }

    /// `matmul_a_bt`'s naive loop adds every product, `0 · ∞` included, so
    /// the kernel skips a `±0` only for a block whose `b` rows are all
    /// finite, and keeps the loop's bits where `b` holds infinities and
    /// NaNs. Besides the drawn shape, every case runs one shape per
    /// remainder of its 32-output blocks: fewer outputs than one block,
    /// exactly one, two blocks and the narrower ones after them (70 = 32 +
    /// 32 + 4 + 2), and an empty inner dimension.
    #[test]
    fn matmul_a_bt_is_bit_identical_to_the_naive_loop_on_non_finite_weights(
        m in 1usize..=13, n in 0usize..=40, k in 1usize..=27, seed in any::<u64>()
    ) {
        for dims in [(m, n, k), (6, 9, 5), (7, 19, 21), (8, 24, 32), (7, 19, 70), (5, 0, 13)] {
            a_bt_case(dims, sparse, non_finite, seed)?;
        }
    }

    /// Shapes that drawn dimensions up to 40 never reach, run through all
    /// three products, with `b` finite and not: `rows × width` outputs
    /// summed over `inner`, for widths of 10 (the classifier layer), exactly
    /// one block (32), one past it (33) and two blocks with the narrower
    /// ones after them (69 = 32 + 32 + 4 + 1); an empty inner dimension;
    /// and `a` with an empty list and a full one in each direction.
    #[test]
    fn every_block_remainder_is_bit_identical_to_the_naive_loops(seed in any::<u64>()) {
        let shapes = [(5, 7, 10), (3, 17, 32), (6, 9, 33), (4, 11, 69), (3, 0, 33)];
        for (rows, inner, width) in shapes {
            for (a, b) in [(sparse as Draw, sparse as Draw), (extremes, sparse), (extremes, non_finite)] {
                matmul_case((rows, inner, width), a, b, seed)?;
                at_b_case((inner, rows, width), a, b, seed)?;
                a_bt_case((rows, inner, width), a, b, seed)?;
            }
        }
    }

    /// The select stores what the conditional store left, bit for bit: the
    /// ReLU passes do no arithmetic, so unlike the GEMMs even a NaN's
    /// payload must survive. Lengths up to 67 reach every remainder of a
    /// vector loop up to 64 lanes wide.
    #[test]
    fn relu_inplace_is_bit_identical_to_the_branchy_loop(len in 0usize..=67, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = activations(&mut rng, len);
        let (mut got, mut want) = (x.clone(), x);
        relu_inplace(&mut got);
        naive::relu_inplace(&mut want);
        prop_assert_eq!(exact_bits(&got), exact_bits(&want));
    }

    /// As above, with `pre` both as raw pre-activations and as the
    /// activations `relu_inplace` makes of them (what `Mlp` passes), and
    /// `dy` holding every class of value too.
    #[test]
    fn relu_backward_inplace_is_bit_identical_to_the_branchy_loop(
        len in 0usize..=67, seed in any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let raw = activations(&mut rng, len);
        let mut activated = raw.clone();
        naive::relu_inplace(&mut activated);
        let dy = activations(&mut rng, len);
        for pre in [&raw, &activated] {
            let (mut got, mut want) = (dy.clone(), dy.clone());
            relu_backward_inplace(pre, &mut got);
            naive::relu_backward_inplace(pre, &mut want);
            prop_assert_eq!(exact_bits(&got), exact_bits(&want));
        }
    }
}

proptest! {
    /// `Sgd::deltas` keeps the indexed loop's operations and their order,
    /// so the wire bytes it writes and its velocities have the loop's bits:
    /// three steps on three keys, with and without momentum and weight
    /// decay, the gradients and weights holding every class of value (NaNs
    /// compared as NaNs, as for the GEMMs), lengths up to 67 for every
    /// vector remainder and one key longer than the optimizer's 1024-value
    /// block. The update is one slab, keys ascending.
    #[test]
    fn sgd_deltas_are_bit_identical_to_the_indexed_loop(len in 0usize..=67, seed in any::<u64>()) {
        for (momentum, weight_decay) in [(0.0, 0.0), (0.0, 0.01), (0.9, 0.0), (0.9, 0.01)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let hp = (0.05, momentum, weight_decay);
            let mut opt = Sgd::new(hp.0, hp.1, hp.2);
            let keys = [(11u64, 1030 + len), (3, len), (8, 67 - len)];
            let draw = |rng: &mut StdRng| -> fluentps_ml::ParamMap {
                keys.iter().map(|&(k, n)| (k, activations(rng, n))).collect()
            };
            let params = draw(&mut rng);
            let mut velocity: Vec<Vec<f32>> = keys.iter().map(|&(_, n)| vec![0.0; n]).collect();
            for step in 0..3 {
                let grads = draw(&mut rng);
                let got = opt.deltas(&params, &grads);
                prop_assert_eq!(got.iter().map(|(k, _)| k).collect::<Vec<_>>(), vec![3, 8, 11]);
                prop_assert_eq!(got.slab().len(), 4 * (1030 + len + 67));
                for (&(k, _), v) in keys.iter().zip(&mut velocity) {
                    let want = naive::sgd_deltas(hp, v, &grads[&k], &params[&k]);
                    let range = got.range(k).expect("a range per gradient");
                    let wire: Vec<f32> = got.slab()[4 * range.start..4 * range.end]
                        .chunks_exact(4)
                        .map(|le| f32::from_le_bytes(le.try_into().unwrap()))
                        .collect();
                    prop_assert_eq!(
                        bits(&wire), bits(&want),
                        "key {} step {} μ {} λ {}", k, step, momentum, weight_decay
                    );
                }
            }
        }
    }
}

/// FNV-1a over every parameter's bits, in key order.
fn fingerprint(model: &Mlp, params: &fluentps_ml::ParamMap) -> u64 {
    let mut h = FNV_OFFSET;
    for shape in model.param_shapes() {
        for v in &params[&shape.key] {
            h = fnv1a(h, &v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Parameters of an `Mlp` with the given hidden widths after 30 steps of
/// `Sgd(0.02, 0.9)` on the ledger's synthetic 64-dim, 10-class task.
fn trained_fingerprint(hidden: &[usize], batch: usize) -> u64 {
    let (train, _) = synthetic(SyntheticSpec {
        dim: 64,
        classes: 10,
        n_train: 1024,
        n_test: 16,
        margin: 5.0,
        modes: 1,
        label_noise: 0.02,
        seed: 25,
    });
    let mut dims = vec![64];
    dims.extend_from_slice(hidden);
    dims.push(10);
    let model = Mlp { dims };
    let mut params = model.init_params(7);
    let mut opt = Sgd::new(0.02, 0.9, 0.0);
    let mut sampler = BatchSampler::new(0..train.len(), batch, 11);
    for _ in 0..30 {
        let (_, grads) = model.loss_and_grad(&params, &train.batch(&sampler.next_indices()));
        opt.step(&mut params, &grads);
    }
    fingerprint(&model, &params)
}

// The constants were computed with the naive loops (commit 4f8cdc5), before
// the kernels were tiled; a kernel change that moves one bit moves them.

#[test]
fn inproc_bsp_compute_shape_trains_to_the_pinned_bits() {
    assert_eq!(trained_fingerprint(&[256, 128], 128), 0x67ca_2c55_27d6_6fdb);
}

#[test]
fn tcp_bsp_wire_shape_trains_to_the_pinned_bits() {
    assert_eq!(trained_fingerprint(&[1024, 256], 8), 0xfc9d_9445_f06a_fca5);
}

#[test]
fn ssp_shape_trains_to_the_pinned_bits() {
    assert_eq!(trained_fingerprint(&[128, 64], 32), 0x3ee7_563f_6d29_38b6);
}

// Initial parameters (`Mlp::init_params(7)`) of the `tcp_bsp_wire` and
// `inproc_bsp_compute` shapes, computed with one `gen_range` per weight
// (commit 67e81eb), before `Initializer` drew them with `fill_range`.

#[test]
fn tcp_bsp_wire_shape_initializes_to_the_pinned_bits() {
    let model = Mlp {
        dims: vec![64, 1024, 256, 10],
    };
    assert_eq!(
        fingerprint(&model, &model.init_params(7)),
        0xab86_d41d_9056_73f5
    );
}

#[test]
fn inproc_bsp_compute_shape_initializes_to_the_pinned_bits() {
    let model = Mlp {
        dims: vec![64, 256, 128, 10],
    };
    assert_eq!(
        fingerprint(&model, &model.init_params(7)),
        0xb524_d1ee_1b71_34aa
    );
}
