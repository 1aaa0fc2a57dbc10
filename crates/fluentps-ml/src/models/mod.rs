//! Model zoo: every model exposes its parameters as PS key/value pairs and
//! computes real stochastic gradients, so a model plugs directly into a
//! parameter-server worker.

mod mlp;
mod residual;
mod softmax;

pub use mlp::Mlp;
pub use residual::ResidualMlp;
pub use softmax::SoftmaxRegression;

use crate::data::{Batch, Dataset};
use crate::linalg::softmax_rows_inplace;
use crate::ParamMap;

/// Shape of one parameter tensor as the parameter server sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamShape {
    /// Parameter-server key.
    pub key: u64,
    /// Flattened length.
    pub len: usize,
}

/// A trainable model with PS-compatible parameters.
pub trait Model: Send + Sync {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// The parameter inventory (keys and flattened lengths).
    fn param_shapes(&self) -> Vec<ParamShape>;

    /// Deterministic initial parameters.
    fn init_params(&self, seed: u64) -> ParamMap;

    /// Mean cross-entropy loss on `batch` and the gradient w.r.t. every
    /// parameter (averaged over the batch).
    fn loss_and_grad(&self, params: &ParamMap, batch: &Batch) -> (f32, ParamMap);

    /// Class logits for `rows` examples stored row-major in `x`.
    fn logits(&self, params: &ParamMap, x: &[f32], rows: usize) -> Vec<f32>;

    /// Number of classes predicted.
    fn num_classes(&self) -> usize;

    /// Total parameter count.
    fn num_params(&self) -> usize {
        self.param_shapes().iter().map(|s| s.len).sum()
    }

    /// Top-1 accuracy on a dataset (evaluated in chunks). The prediction is
    /// the largest logit, the last one on a tie; a row with a NaN logit (a
    /// diverged model) predicts nothing and counts as wrong.
    fn accuracy(&self, params: &ParamMap, ds: &Dataset) -> f32 {
        let classes = self.num_classes();
        let mut correct = 0usize;
        let chunk = 256usize;
        let mut i = 0;
        while i < ds.len() {
            let end = (i + chunk).min(ds.len());
            let rows = end - i;
            let logits = self.logits(params, &ds.x[i * ds.dim..end * ds.dim], rows);
            for r in 0..rows {
                let row = &logits[r * classes..(r + 1) * classes];
                let pred = row.iter().enumerate().try_fold(0, |best, (j, &v)| {
                    (!v.is_nan()).then_some(if v >= row[best] { j } else { best })
                });
                if pred == Some(ds.y[i + r] as usize) {
                    correct += 1;
                }
            }
            i = end;
        }
        correct as f32 / ds.len() as f32
    }
}

/// Softmax cross-entropy: given logits (mutated into probabilities in
/// place), returns mean loss and writes `(p − onehot)/rows` back into
/// `logits` as the gradient w.r.t. the logits.
pub(crate) fn softmax_xent_backward(logits: &mut [f32], y: &[u32], classes: usize) -> f32 {
    let rows = y.len();
    debug_assert_eq!(logits.len(), rows * classes);
    softmax_rows_inplace(logits, rows, classes);
    let mut loss = 0.0f64;
    let inv = 1.0 / rows as f32;
    for (r, &label) in y.iter().enumerate() {
        let row = &mut logits[r * classes..(r + 1) * classes];
        let p = row[label as usize].max(1e-12);
        loss -= (p as f64).ln();
        for v in row.iter_mut() {
            *v *= inv;
        }
        row[label as usize] -= inv;
    }
    (loss / rows as f64) as f32
}

/// Numerical gradient check helper used by the per-model tests: central
/// differences on a sample of coordinates of every parameter tensor.
#[cfg(test)]
pub(crate) fn check_gradients<M: Model>(model: &M, input_dim: usize, seed: u64, tol: f32) {
    use crate::data::{synthetic, SyntheticSpec};
    let spec = SyntheticSpec {
        dim: input_dim,
        classes: model.num_classes(),
        n_train: 12,
        n_test: 4,
        margin: 2.0,
        modes: 1,
        label_noise: 0.0,
        seed,
    };
    let (train, _) = synthetic(spec);
    let batch = train.batch(&(0..8).collect::<Vec<_>>());
    let params = model.init_params(seed);
    let (_, grads) = model.loss_and_grad(&params, &batch);
    let eps = 2e-3f32;
    // ReLU kinks make a few coordinates legitimately non-differentiable at
    // finite eps; require the overwhelming majority to match instead of all.
    let mut probes = 0usize;
    let mut failures = Vec::new();
    for shape in model.param_shapes() {
        let g = &grads[&shape.key];
        // Probe a handful of coordinates per tensor, not all of them.
        let stride = (shape.len / 7).max(1);
        for idx in (0..shape.len).step_by(stride) {
            let mut plus = params.clone();
            plus.get_mut(&shape.key).unwrap()[idx] += eps;
            let (lp, _) = model.loss_and_grad(&plus, &batch);
            let mut minus = params.clone();
            minus.get_mut(&shape.key).unwrap()[idx] -= eps;
            let (lm, _) = model.loss_and_grad(&minus, &batch);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = g[idx];
            let denom = numeric.abs().max(analytic.abs()).max(1e-2);
            probes += 1;
            if (numeric - analytic).abs() / denom >= tol {
                failures.push(format!(
                    "key {} idx {idx}: numeric {numeric} vs analytic {analytic}",
                    shape.key
                ));
            }
        }
    }
    let allowed = probes / 10; // ≤10% kink-crossing outliers
    assert!(
        failures.len() <= allowed,
        "{}/{probes} gradient probes failed (allowed {allowed}):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xent_gradient_sums_to_zero_per_row() {
        let mut logits = vec![0.3, -0.1, 0.9, 0.0, 0.0, 0.0];
        let loss = softmax_xent_backward(&mut logits, &[2, 0], 3);
        assert!(loss > 0.0);
        for r in 0..2 {
            let s: f32 = logits[r * 3..(r + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6, "row {r} grad sum {s}");
        }
    }

    /// Logits given up front, so a test sees `accuracy`'s argmax alone.
    struct Given {
        classes: usize,
        logits: Vec<f32>,
    }

    impl Model for Given {
        fn name(&self) -> &'static str {
            "given"
        }
        fn param_shapes(&self) -> Vec<ParamShape> {
            Vec::new()
        }
        fn init_params(&self, _seed: u64) -> ParamMap {
            ParamMap::new()
        }
        fn loss_and_grad(&self, _params: &ParamMap, _batch: &Batch) -> (f32, ParamMap) {
            unreachable!("accuracy needs logits only")
        }
        fn logits(&self, _params: &ParamMap, _x: &[f32], rows: usize) -> Vec<f32> {
            assert_eq!(rows * self.classes, self.logits.len());
            self.logits.clone()
        }
        fn num_classes(&self) -> usize {
            self.classes
        }
    }

    #[test]
    fn accuracy_takes_the_last_largest_logit_and_a_nan_row_as_wrong() {
        let inf = f32::INFINITY;
        let model = Given {
            classes: 3,
            #[rustfmt::skip]
            logits: vec![
                0.1, 0.9, 0.3, // clear maximum: 1
                0.7, 0.2, 0.7, // tie: the last maximum, 2
                -0.0, 0.0, -1.0, // -0 == +0, a tie too: 1
                -inf, inf, inf, // infinities compare like numbers: 2
                0.5, f32::NAN, 0.4, // no prediction
            ],
        };
        let ds = |y: Vec<u32>| Dataset {
            x: vec![0.0; y.len()],
            y,
            dim: 1,
            classes: 3,
        };
        let params = ParamMap::new();
        assert_eq!(model.accuracy(&params, &ds(vec![1, 2, 1, 2, 0])), 0.8);
        assert_eq!(model.accuracy(&params, &ds(vec![1, 2, 1, 2, 1])), 0.8);
        assert_eq!(model.accuracy(&params, &ds(vec![0, 0, 0, 1, 2])), 0.0);
    }

    #[test]
    fn a_diverged_model_scores_no_better_than_chance() {
        let (_, test) = crate::data::synthetic(crate::data::SyntheticSpec {
            dim: 8,
            classes: 4,
            n_train: 8,
            n_test: 300,
            margin: 3.0,
            modes: 1,
            label_noise: 0.0,
            seed: 5,
        });
        let model = Mlp {
            dims: vec![8, 16, 4],
        };
        let mut params = model.init_params(5);
        params.values_mut().for_each(|p| p.fill(f32::NAN));
        let acc = model.accuracy(&params, &test);
        assert!(acc <= 1.0 / 4.0, "NaN parameters scored {acc}");
    }

    #[test]
    fn xent_loss_is_low_for_confident_correct_prediction() {
        let mut confident = vec![10.0, -10.0];
        let low = softmax_xent_backward(&mut confident, &[0], 2);
        let mut wrong = vec![-10.0, 10.0];
        let high = softmax_xent_backward(&mut wrong, &[0], 2);
        assert!(low < 0.01);
        assert!(high > 5.0);
    }
}
