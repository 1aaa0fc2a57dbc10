//! Multi-layer perceptron with ReLU activations — the "AlexNet-like"
//! stand-in: a shallow-ish nonlinear network whose staleness sensitivity is
//! moderate (the paper contrasts it with the much deeper ResNet-56).

use crate::data::Batch;
use crate::init::Initializer;
use crate::linalg::{matmul, matmul_a_bt, matmul_at_b, relu_backward_inplace, relu_inplace};
use crate::models::{softmax_xent_backward, Model, ParamShape};
use crate::ParamMap;

/// Fully-connected network `dims[0] → dims[1] → … → dims.last()`, ReLU
/// between layers, softmax cross-entropy on top.
///
/// Keys: layer `l` has weights at `2l` (shape `dims[l] × dims[l+1]`) and
/// bias at `2l + 1`.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Layer widths, input first, classes last. At least two entries.
    pub dims: Vec<usize>,
}

impl Mlp {
    fn layers(&self) -> usize {
        self.dims.len() - 1
    }
}

impl Model for Mlp {
    fn name(&self) -> &'static str {
        "mlp"
    }

    fn num_classes(&self) -> usize {
        *self.dims.last().expect("non-empty dims")
    }

    fn param_shapes(&self) -> Vec<ParamShape> {
        let mut shapes = Vec::with_capacity(self.layers() * 2);
        for l in 0..self.layers() {
            shapes.push(ParamShape {
                key: 2 * l as u64,
                len: self.dims[l] * self.dims[l + 1],
            });
            shapes.push(ParamShape {
                key: 2 * l as u64 + 1,
                len: self.dims[l + 1],
            });
        }
        shapes
    }

    fn init_params(&self, seed: u64) -> ParamMap {
        let mut init = Initializer::new(seed);
        let mut p = ParamMap::new();
        for l in 0..self.layers() {
            p.insert(2 * l as u64, init.he(self.dims[l], self.dims[l + 1]));
            p.insert(2 * l as u64 + 1, init.zeros(self.dims[l + 1]));
        }
        p
    }

    fn logits(&self, params: &ParamMap, x: &[f32], rows: usize) -> Vec<f32> {
        let mut h = x.to_vec();
        for l in 0..self.layers() {
            let (din, dout) = (self.dims[l], self.dims[l + 1]);
            let w = &params[&(2 * l as u64)];
            let b = &params[&(2 * l as u64 + 1)];
            let mut out = vec![0.0f32; rows * dout];
            matmul(&h, w, &mut out, rows, din, dout);
            for row in out.chunks_mut(dout) {
                for (v, bias) in row.iter_mut().zip(b) {
                    *v += bias;
                }
            }
            if l + 1 < self.layers() {
                relu_inplace(&mut out);
            }
            h = out;
        }
        h
    }

    fn loss_and_grad(&self, params: &ParamMap, batch: &Batch) -> (f32, ParamMap) {
        let rows = batch.len();
        let layers = self.layers();

        // Forward, stashing every layer's output (after the ReLU on hidden
        // layers); layer `l` reads `batch.x` for `l == 0`, `outs[l - 1]` else.
        let mut outs: Vec<Vec<f32>> = Vec::with_capacity(layers);
        for l in 0..layers {
            let (din, dout) = (self.dims[l], self.dims[l + 1]);
            let w = &params[&(2 * l as u64)];
            let b = &params[&(2 * l as u64 + 1)];
            let input = if l == 0 { &batch.x } else { &outs[l - 1] };
            let mut out = vec![0.0f32; rows * dout];
            matmul(input, w, &mut out, rows, din, dout);
            for row in out.chunks_mut(dout) {
                for (v, bias) in row.iter_mut().zip(b) {
                    *v += bias;
                }
            }
            if l + 1 < layers {
                relu_inplace(&mut out);
            }
            outs.push(out);
        }

        // Loss + gradient w.r.t. logits.
        let mut delta = outs.pop().expect("logits present");
        let loss = softmax_xent_backward(&mut delta, &batch.y, self.num_classes());

        // Backward.
        let mut grads = ParamMap::new();
        for l in (0..layers).rev() {
            let (din, dout) = (self.dims[l], self.dims[l + 1]);
            let input = if l == 0 { &batch.x } else { &outs[l - 1] };
            let mut dw = vec![0.0f32; din * dout];
            matmul_at_b(input, &delta, &mut dw, rows, din, dout);
            let mut db = vec![0.0f32; dout];
            for row in delta.chunks(dout) {
                for (d, v) in db.iter_mut().zip(row) {
                    *d += v;
                }
            }
            grads.insert(2 * l as u64, dw);
            grads.insert(2 * l as u64 + 1, db);
            if l > 0 {
                let w = &params[&(2 * l as u64)];
                let mut dx = vec![0.0f32; rows * din];
                matmul_a_bt(&delta, w, &mut dx, rows, dout, din);
                // `input` is ReLU(pre), which is > 0 exactly where pre is.
                relu_backward_inplace(input, &mut dx);
                delta = dx;
            }
        }
        (loss, grads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{synthetic, BatchSampler, SyntheticSpec};
    use crate::models::check_gradients;
    use crate::optim::{Optimizer, Sgd};

    #[test]
    fn gradients_match_finite_differences() {
        let model = Mlp {
            dims: vec![6, 9, 4],
        };
        check_gradients(&model, 6, 13, 3e-2);
    }

    #[test]
    fn deeper_gradients_also_match() {
        let model = Mlp {
            dims: vec![5, 7, 6, 3],
        };
        check_gradients(&model, 5, 17, 4e-2);
    }

    #[test]
    fn param_inventory_is_complete() {
        let m = Mlp {
            dims: vec![64, 128, 64, 10],
        };
        let shapes = m.param_shapes();
        assert_eq!(shapes.len(), 6);
        let total: usize = shapes.iter().map(|s| s.len).sum();
        assert_eq!(total, 64 * 128 + 128 + 128 * 64 + 64 + 64 * 10 + 10);
        let p = m.init_params(0);
        for s in shapes {
            assert_eq!(p[&s.key].len(), s.len);
        }
    }

    #[test]
    fn beats_linear_model_on_nonlinear_data() {
        // A dataset whose classes are not linearly separable in the raw
        // features (tanh-mixed clusters at low margin).
        let spec = SyntheticSpec {
            dim: 16,
            classes: 4,
            n_train: 3000,
            n_test: 600,
            margin: 4.0,
            modes: 2,
            label_noise: 0.0,
            seed: 21,
        };
        let (train, test) = synthetic(spec);
        let model = Mlp {
            dims: vec![16, 64, 4],
        };
        let mut params = model.init_params(2);
        let mut opt = Sgd::new(0.2, 0.9, 0.0);
        let mut sampler = BatchSampler::new(0..train.len(), 64, 3);
        for _ in 0..800 {
            let batch = train.batch(&sampler.next_indices());
            let (_, grads) = model.loss_and_grad(&params, &batch);
            opt.step(&mut params, &grads);
        }
        let acc = model.accuracy(&params, &test);
        // A linear model trained identically cannot carve the multi-modal
        // classes; the MLP must clearly beat it.
        let linear = crate::models::SoftmaxRegression {
            dim: 16,
            classes: 4,
        };
        let mut lp = linear.init_params(2);
        let mut lopt = Sgd::new(0.2, 0.9, 0.0);
        let mut lsampler = BatchSampler::new(0..train.len(), 64, 3);
        for _ in 0..800 {
            let batch = train.batch(&lsampler.next_indices());
            let (_, grads) = linear.loss_and_grad(&lp, &batch);
            lopt.step(&mut lp, &grads);
        }
        let lin_acc = linear.accuracy(&lp, &test);
        assert!(acc > 0.85, "MLP should fit nonlinear data, got {acc}");
        assert!(
            acc > lin_acc + 0.05,
            "MLP ({acc}) should beat linear ({lin_acc}) on multi-modal data"
        );
    }
}
