//! Seeded synthetic classification datasets.
//!
//! CIFAR-10/100 are not available offline; these generators produce datasets
//! with the properties the experiments rely on: multi-class, not linearly
//! trivial, a tunable Bayes-error ceiling (so accuracy differences between
//! synchronization models are visible), and full determinism under a seed.
//!
//! Generation: `classes` anchor points are drawn on a sphere, each sample is
//! its anchor plus isotropic noise, passed through a fixed random rotation +
//! `tanh` nonlinearity (so the problem is not linearly separable in the raw
//! features), and a fraction of labels is flipped (irreducible error).

use fluentps_util::rng::StdRng;

/// A dense classification dataset; `x` is row-major `n × dim`.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Features, row-major.
    pub x: Vec<f32>,
    /// Labels in `0..classes`.
    pub y: Vec<u32>,
    /// Feature dimension.
    pub dim: usize,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Number of examples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset holds no examples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature row of example `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.x[i * self.dim..(i + 1) * self.dim]
    }

    /// Build a batch from example indices (copies rows into a dense block).
    pub fn batch(&self, indices: &[usize]) -> Batch {
        let mut x = Vec::with_capacity(indices.len() * self.dim);
        let mut y = Vec::with_capacity(indices.len());
        for &i in indices {
            x.extend_from_slice(self.row(i));
            y.push(self.y[i]);
        }
        Batch {
            x,
            y,
            dim: self.dim,
        }
    }

    /// The contiguous index range of worker `n`'s partition when the data is
    /// split evenly over `num_workers` (data parallelism).
    pub fn partition(&self, worker: u32, num_workers: u32) -> std::ops::Range<usize> {
        let n = self.len();
        let w = num_workers as usize;
        let base = n / w;
        let extra = n % w;
        let i = worker as usize;
        let start = i * base + i.min(extra);
        let end = start + base + usize::from(i < extra);
        start..end
    }
}

/// A dense minibatch (owned copy of the selected rows).
#[derive(Debug, Clone)]
pub struct Batch {
    /// Features, row-major `len × dim`.
    pub x: Vec<f32>,
    /// Labels.
    pub y: Vec<u32>,
    /// Feature dimension.
    pub dim: usize,
}

impl Batch {
    /// Number of examples in the batch.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }
}

/// Configuration for the synthetic generator.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticSpec {
    /// Feature dimension.
    pub dim: usize,
    /// Number of classes.
    pub classes: usize,
    /// Training examples.
    pub n_train: usize,
    /// Test examples.
    pub n_test: usize,
    /// Anchor separation relative to noise; larger = easier. ~2.0 gives
    /// ≳90% attainable accuracy at 10 classes, ~1.2 gives ≈65–75%.
    pub margin: f32,
    /// Anchors per class. With `modes > 1` each class is a union of several
    /// clusters, which breaks linear separability — a linear model cannot
    /// carve a multi-modal class, a nonlinear one can (image classes are
    /// multi-modal in exactly this sense).
    pub modes: usize,
    /// Fraction of labels flipped uniformly (irreducible error).
    pub label_noise: f32,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticSpec {
    /// A CIFAR-10 stand-in: 10 classes, ~90%+ attainable accuracy.
    pub fn c10_like(seed: u64) -> Self {
        SyntheticSpec {
            dim: 64,
            classes: 10,
            n_train: 8_000,
            n_test: 2_000,
            margin: 2.2,
            modes: 2,
            label_noise: 0.02,
            seed,
        }
    }

    /// A CIFAR-100 stand-in: 100 classes, markedly lower attainable accuracy.
    pub fn c100_like(seed: u64) -> Self {
        SyntheticSpec {
            dim: 64,
            classes: 100,
            n_train: 10_000,
            n_test: 2_000,
            margin: 2.6,
            modes: 1,
            label_noise: 0.05,
            seed,
        }
    }
}

/// Generate `(train, test)` datasets from a spec.
pub fn synthetic(spec: SyntheticSpec) -> (Dataset, Dataset) {
    synthetic_on(spec, crate::cores::available())
}

/// [`synthetic`] with its row pass spread over `threads` threads: the same
/// bits whatever the count.
fn synthetic_on(spec: SyntheticSpec, threads: usize) -> (Dataset, Dataset) {
    assert!(spec.classes >= 2 && spec.dim >= 2 && spec.modes >= 1);
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // Class anchors: `modes` random unit-ish directions per class, scaled by
    // the margin. Anchor index = class * modes + mode.
    let mut anchors = vec![0.0f32; spec.classes * spec.modes * spec.dim];
    for a in anchors.chunks_mut(spec.dim) {
        let mut norm2 = 0.0f32;
        for v in a.iter_mut() {
            *v = rng.gen_range(-1.0..1.0);
            norm2 += *v * *v;
        }
        let inv = spec.margin / norm2.sqrt().max(1e-6);
        for v in a.iter_mut() {
            *v *= inv;
        }
    }

    // A fixed random mixing matrix applied after noise, followed by tanh, so
    // raw features are a nonlinear function of the latent cluster geometry.
    let mix: Vec<f32> = (0..spec.dim * spec.dim)
        .map(|_| rng.gen_range(-1.0f32..1.0) / (spec.dim as f32).sqrt())
        .collect();

    // The walk, in the per-row generator's order over the training rows and
    // then the test rows: per row the class, the mode, the `4 × dim` noise
    // values and the label. The class, the mode and the label are drawn
    // here, as rejection sampling makes their number of draws depend on
    // their values. The noise block has a fixed length, so it is skipped,
    // and the row records its anchor and the state the block starts at.
    let rows = spec.n_train + spec.n_test;
    let mut y = Vec::with_capacity(rows);
    let mut noise_at = Vec::with_capacity(rows);
    for _ in 0..rows {
        let class = rng.gen_range(0..spec.classes);
        let mode = rng.gen_range(0..spec.modes);
        noise_at.push(((class * spec.modes + mode) * spec.dim, rng.clone()));
        rng.advance(4 * spec.dim as u64);
        y.push(if rng.gen::<f32>() < spec.label_noise {
            rng.gen_range(0..spec.classes) as u32
        } else {
            class as u32
        });
    }

    // The row pass: each row's noise block, its latent point, and
    // `tanh(latent · mix)`, in chunks of rows on every core.
    let mut train_x = vec![0.0f32; spec.n_train * spec.dim];
    let mut test_x = vec![0.0f32; spec.n_test * spec.dim];
    let chunk = MIX_CHUNK_ROWS * spec.dim;
    let firsts = |from| (from..).step_by(MIX_CHUNK_ROWS);
    let train = train_x.chunks_mut(chunk).zip(firsts(0));
    let test = test_x.chunks_mut(chunk).zip(firsts(spec.n_train));
    let scratch = || (Vec::with_capacity(chunk), vec![0.0f32; 4 * spec.dim]);
    crate::cores::for_each(
        threads,
        train.chain(test),
        scratch,
        |(latent, noise), (out, first)| {
            let n = out.len() / spec.dim;
            latent.resize(out.len(), 0.0);
            let starts = &noise_at[first..first + n];
            for (l_row, (a0, start)) in latent.chunks_exact_mut(spec.dim).zip(starts) {
                start.clone().fill_range(noise, -0.5..0.5);
                let anchor = &anchors[*a0..*a0 + spec.dim];
                for ((l, &a), draws) in l_row.iter_mut().zip(anchor).zip(noise.chunks_exact(4)) {
                    // Approximate standard normal via sum of uniforms (Irwin-Hall).
                    *l = a + draws.iter().sum::<f32>() * (12.0f32 / 4.0).sqrt();
                }
            }
            crate::linalg::matmul(latent, &mix, out, n, spec.dim, spec.dim);
            for v in out.iter_mut() {
                *v = v.tanh();
            }
        },
    );

    let test_y = y.split_off(spec.n_train);
    let dataset = |x, y| Dataset {
        x,
        y,
        dim: spec.dim,
        classes: spec.classes,
    };
    (dataset(train_x, y), dataset(test_x, test_y))
}

/// Rows the row pass of [`synthetic`] takes at a time. A helper thread's
/// scratch (the chunk's latent rows, a noise block and `matmul`'s lists,
/// 25 KiB at `dim` 64) stays behind in the allocator arena its first
/// allocation made, for a later thread to inherit; at 128 rows that read
/// as about 0.1 MiB more `peak_rss_mb` on the ledger's SSP workloads.
///
/// An output row is a function of its anchor, its noise block and `mix`
/// alone, and `matmul` gives each element the bits of a one-row product,
/// so any split of the rows over any number of threads gives the same bits.
const MIX_CHUNK_ROWS: usize = 32;

/// Deterministic minibatch sampler over a worker's partition.
pub struct BatchSampler {
    range: std::ops::Range<usize>,
    batch_size: usize,
    rng: StdRng,
}

impl BatchSampler {
    /// Sampler over `range` producing batches of `batch_size` indices.
    pub fn new(range: std::ops::Range<usize>, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0 && !range.is_empty());
        BatchSampler {
            range,
            batch_size,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draw the next batch's indices (sampling with replacement — adequate
    /// for SGD and keeps the sampler allocation-free across epochs).
    pub fn next_indices(&mut self) -> Vec<usize> {
        (0..self.batch_size)
            .map(|_| self.rng.gen_range(self.range.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluentps_util::fnv::{fnv1a, FNV_OFFSET};
    use fluentps_util::proptest::prelude::*;

    /// The oracle: the per-row generator as it was before the draw and the
    /// transform were split — one `gen_range` per noise value, one one-row
    /// product and `tanh` per row, all on the calling thread.
    fn per_row_synthetic(spec: SyntheticSpec) -> (Dataset, Dataset) {
        assert!(spec.classes >= 2 && spec.dim >= 2 && spec.modes >= 1);
        let mut rng = StdRng::seed_from_u64(spec.seed);

        let mut anchors = vec![0.0f32; spec.classes * spec.modes * spec.dim];
        for a in anchors.chunks_mut(spec.dim) {
            let mut norm2 = 0.0f32;
            for v in a.iter_mut() {
                *v = rng.gen_range(-1.0..1.0);
                norm2 += *v * *v;
            }
            let inv = spec.margin / norm2.sqrt().max(1e-6);
            for v in a.iter_mut() {
                *v *= inv;
            }
        }

        let mix: Vec<f32> = (0..spec.dim * spec.dim)
            .map(|_| rng.gen_range(-1.0f32..1.0) / (spec.dim as f32).sqrt())
            .collect();

        let make = |n: usize, rng: &mut StdRng| -> Dataset {
            let mut x = vec![0.0f32; n * spec.dim];
            let mut y = vec![0u32; n];
            let mut latent = vec![0.0f32; spec.dim];
            for i in 0..n {
                let class = rng.gen_range(0..spec.classes);
                let mode = rng.gen_range(0..spec.modes);
                let a0 = (class * spec.modes + mode) * spec.dim;
                let anchor = &anchors[a0..a0 + spec.dim];
                for (l, &a) in latent.iter_mut().zip(anchor) {
                    let noise: f32 = (0..4).map(|_| rng.gen_range(-0.5f32..0.5)).sum::<f32>()
                        * (12.0f32 / 4.0).sqrt();
                    *l = a + noise;
                }
                let row = &mut x[i * spec.dim..(i + 1) * spec.dim];
                crate::linalg::matmul(&latent, &mix, row, 1, spec.dim, spec.dim);
                for v in row.iter_mut() {
                    *v = v.tanh();
                }
                y[i] = if rng.gen::<f32>() < spec.label_noise {
                    rng.gen_range(0..spec.classes) as u32
                } else {
                    class as u32
                };
            }
            Dataset {
                x,
                y,
                dim: spec.dim,
                classes: spec.classes,
            }
        };

        let train = make(spec.n_train, &mut rng);
        let test = make(spec.n_test, &mut rng);
        (train, test)
    }

    /// Same features (as bits: a NaN would fail `==`) and same labels.
    fn same_bits(got: &Dataset, want: &Dataset) -> bool {
        got.y == want.y
            && got.x.len() == want.x.len()
            && got
                .x
                .iter()
                .zip(&want.x)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    proptest! {
        /// `synthetic` draws in the per-row generator's order and transforms
        /// each row on its own, so it keeps the oracle's bits for every
        /// spec: sizes from empty through one row, below the thread count
        /// and one chunk, to several chunks with a ragged last one.
        #[test]
        fn synthetic_is_bit_identical_to_the_per_row_generator(
            dim in 2usize..=40,
            classes in 2usize..=12,
            modes in 1usize..=3,
            n_train in 0usize..=400,
            n_test in 0usize..=140,
            margin in 0.5f32..6.0,
            label_noise in 0.0f32..0.5,
            seed in any::<u64>()
        ) {
            let spec = SyntheticSpec {
                dim, classes, n_train, n_test, margin, modes, label_noise, seed,
            };
            let (tr, te) = synthetic(spec);
            let (want_tr, want_te) = per_row_synthetic(spec);
            prop_assert!(same_bits(&tr, &want_tr), "train differs for {:?}", spec);
            prop_assert!(same_bits(&te, &want_te), "test differs for {:?}", spec);
        }
    }

    /// One thread (no spawn), two, and more threads than chunks or CPUs
    /// all give the bits of the count `synthetic` picks, on sizes that end
    /// inside, at and past a chunk, in both sets.
    #[test]
    fn every_thread_count_gives_the_same_bits() {
        for (n_train, n_test) in [(0, 0), (1, 0), (31, 33), (64, 32), (100, 65)] {
            let spec = SyntheticSpec {
                dim: 12,
                classes: 5,
                n_train,
                n_test,
                margin: 2.0,
                modes: 2,
                label_noise: 0.3,
                seed: 5,
            };
            let (want_tr, want_te) = synthetic(spec);
            for threads in 1..=4 {
                let (tr, te) = synthetic_on(spec, threads);
                let same = same_bits(&tr, &want_tr) && same_bits(&te, &want_te);
                assert!(same, "{threads} threads, {spec:?}");
            }
        }
    }

    /// FNV-1a over the train then the test set of each spec, each set's
    /// feature bits then its labels, little-endian.
    fn fingerprint(specs: &[SyntheticSpec]) -> u64 {
        let mut h = FNV_OFFSET;
        for &spec in specs {
            let (tr, te) = synthetic(spec);
            for d in [&tr, &te] {
                d.x.iter()
                    .for_each(|v| h = fnv1a(h, &v.to_bits().to_le_bytes()));
                d.y.iter().for_each(|v| h = fnv1a(h, &v.to_le_bytes()));
            }
        }
        h
    }

    // Computed with the per-row generator (commit 67e81eb), before the draw
    // and the transform were split; a change that moves one bit moves it.
    #[test]
    fn datasets_keep_the_pinned_bits() {
        let ledger = |seed| SyntheticSpec {
            dim: 64,
            classes: 10,
            n_train: 4000,
            n_test: 1000,
            margin: 5.0,
            modes: 1,
            label_noise: 0.02,
            seed,
        };
        let makers: [fn(u64) -> SyntheticSpec; 3] =
            [ledger, SyntheticSpec::c10_like, SyntheticSpec::c100_like];
        let specs: Vec<SyntheticSpec> = makers
            .iter()
            .flat_map(|make| [1, 7, 42].map(make))
            .collect();
        assert_eq!(fingerprint(&specs), 0x1a13_3718_44d3_da21);
    }

    #[test]
    fn generation_is_deterministic() {
        let (a_tr, a_te) = synthetic(SyntheticSpec::c10_like(42));
        let (b_tr, b_te) = synthetic(SyntheticSpec::c10_like(42));
        assert_eq!(a_tr.x, b_tr.x);
        assert_eq!(a_te.y, b_te.y);
    }

    #[test]
    fn shapes_and_label_ranges() {
        let spec = SyntheticSpec {
            dim: 16,
            classes: 5,
            n_train: 100,
            n_test: 40,
            margin: 2.0,
            modes: 1,
            label_noise: 0.0,
            seed: 1,
        };
        let (tr, te) = synthetic(spec);
        assert_eq!(tr.len(), 100);
        assert_eq!(te.len(), 40);
        assert_eq!(tr.x.len(), 100 * 16);
        assert!(tr.y.iter().all(|&y| (y as usize) < 5));
        assert!(!te.is_empty());
    }

    #[test]
    fn all_classes_appear() {
        let (tr, _) = synthetic(SyntheticSpec::c10_like(7));
        let mut seen = [false; 10];
        for &y in &tr.y {
            seen[y as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn features_are_bounded_by_tanh() {
        let (tr, _) = synthetic(SyntheticSpec::c10_like(3));
        assert!(tr.x.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn partitions_cover_dataset_without_overlap() {
        let (tr, _) = synthetic(SyntheticSpec::c10_like(5));
        let mut covered = 0;
        let mut prev_end = 0;
        for w in 0..7u32 {
            let r = tr.partition(w, 7);
            assert_eq!(r.start, prev_end);
            prev_end = r.end;
            covered += r.len();
        }
        assert_eq!(covered, tr.len());
        assert_eq!(prev_end, tr.len());
    }

    #[test]
    fn batch_copies_requested_rows() {
        let (tr, _) = synthetic(SyntheticSpec::c10_like(9));
        let b = tr.batch(&[0, 5, 9]);
        assert_eq!(b.len(), 3);
        assert_eq!(&b.x[0..tr.dim], tr.row(0));
        assert_eq!(&b.x[2 * tr.dim..3 * tr.dim], tr.row(9));
        assert_eq!(b.y[1], tr.y[5]);
    }

    #[test]
    fn sampler_is_seeded_and_in_range() {
        let mut a = BatchSampler::new(10..50, 8, 3);
        let mut b = BatchSampler::new(10..50, 8, 3);
        for _ in 0..5 {
            let ia = a.next_indices();
            let ib = b.next_indices();
            assert_eq!(ia, ib);
            assert!(ia.iter().all(|&i| (10..50).contains(&i)));
        }
    }
}
