//! Residual MLP — the "ResNet-56-like" stand-in: a *deep* network with skip
//! connections. Depth is what matters for the reproduction: deeper networks
//! are more sensitive to gradient staleness, which is why the paper's Table
//! IV shows lazy execution and PSSP cooperating better on ResNet-56 than on
//! AlexNet.

use crate::data::Batch;
use crate::init::Initializer;
use crate::linalg::{matmul, matmul_a_bt, matmul_at_b, relu_backward_inplace, relu_inplace};
use crate::models::{softmax_xent_backward, Model, ParamShape};
use crate::ParamMap;

/// Residual network: an input projection, `blocks` two-layer residual
/// blocks of constant `width`, and a linear classifier head.
///
/// Per block `b` (0-based): `t = relu(h·W1 + b1)`, `r = t·W2 + b2`,
/// `h ← relu(h + r)`.
///
/// Keys: `0`/`1` input projection; block `b` at `2+4b .. 5+4b`
/// (`W1, b1, W2, b2`); head at `2+4·blocks` / `3+4·blocks`.
#[derive(Debug, Clone, Copy)]
pub struct ResidualMlp {
    /// Input dimension.
    pub input: usize,
    /// Hidden width.
    pub width: usize,
    /// Number of residual blocks.
    pub blocks: usize,
    /// Output classes.
    pub classes: usize,
}

impl ResidualMlp {
    fn head_w_key(&self) -> u64 {
        2 + 4 * self.blocks as u64
    }

    fn head_b_key(&self) -> u64 {
        3 + 4 * self.blocks as u64
    }
}

/// Dense layer forward: `out = x·w + b`.
fn dense(x: &[f32], w: &[f32], b: &[f32], rows: usize, din: usize, dout: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * dout];
    matmul(x, w, &mut out, rows, din, dout);
    for row in out.chunks_mut(dout) {
        for (v, bias) in row.iter_mut().zip(b) {
            *v += bias;
        }
    }
    out
}

/// Column sums of a `rows × dout` matrix.
fn col_sums(m: &[f32], dout: usize) -> Vec<f32> {
    let mut s = vec![0.0f32; dout];
    for row in m.chunks(dout) {
        for (d, v) in s.iter_mut().zip(row) {
            *d += v;
        }
    }
    s
}

impl Model for ResidualMlp {
    fn name(&self) -> &'static str {
        "residual-mlp"
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn param_shapes(&self) -> Vec<ParamShape> {
        let mut shapes = vec![
            ParamShape {
                key: 0,
                len: self.input * self.width,
            },
            ParamShape {
                key: 1,
                len: self.width,
            },
        ];
        for b in 0..self.blocks as u64 {
            shapes.push(ParamShape {
                key: 2 + 4 * b,
                len: self.width * self.width,
            });
            shapes.push(ParamShape {
                key: 3 + 4 * b,
                len: self.width,
            });
            shapes.push(ParamShape {
                key: 4 + 4 * b,
                len: self.width * self.width,
            });
            shapes.push(ParamShape {
                key: 5 + 4 * b,
                len: self.width,
            });
        }
        shapes.push(ParamShape {
            key: self.head_w_key(),
            len: self.width * self.classes,
        });
        shapes.push(ParamShape {
            key: self.head_b_key(),
            len: self.classes,
        });
        shapes
    }

    fn init_params(&self, seed: u64) -> ParamMap {
        let mut init = Initializer::new(seed);
        let mut p = ParamMap::new();
        p.insert(0, init.he(self.input, self.width));
        p.insert(1, init.zeros(self.width));
        for b in 0..self.blocks as u64 {
            p.insert(2 + 4 * b, init.he(self.width, self.width));
            p.insert(3 + 4 * b, init.zeros(self.width));
            // Second layer of each branch starts near zero so blocks begin as
            // identity mappings (standard residual initialisation).
            p.insert(4 + 4 * b, init.small(self.width * self.width, 0.05));
            p.insert(5 + 4 * b, init.zeros(self.width));
        }
        p.insert(self.head_w_key(), init.xavier(self.width, self.classes));
        p.insert(self.head_b_key(), init.zeros(self.classes));
        p
    }

    fn logits(&self, params: &ParamMap, x: &[f32], rows: usize) -> Vec<f32> {
        let w = self.width;
        let mut h = dense(x, &params[&0], &params[&1], rows, self.input, w);
        relu_inplace(&mut h);
        for b in 0..self.blocks as u64 {
            let mut t = dense(&h, &params[&(2 + 4 * b)], &params[&(3 + 4 * b)], rows, w, w);
            relu_inplace(&mut t);
            let r = dense(&t, &params[&(4 + 4 * b)], &params[&(5 + 4 * b)], rows, w, w);
            for (hv, rv) in h.iter_mut().zip(&r) {
                *hv += rv;
            }
            relu_inplace(&mut h);
        }
        dense(
            &h,
            &params[&self.head_w_key()],
            &params[&self.head_b_key()],
            rows,
            w,
            self.classes,
        )
    }

    fn loss_and_grad(&self, params: &ParamMap, batch: &Batch) -> (f32, ParamMap) {
        let rows = batch.len();
        let w = self.width;

        // ---- forward with stashing ----
        let pre0 = dense(&batch.x, &params[&0], &params[&1], rows, self.input, w);
        let mut h = pre0.clone();
        relu_inplace(&mut h);

        struct BlockStash {
            h_in: Vec<f32>,
            pre1: Vec<f32>,
            t: Vec<f32>,
            pre_sum: Vec<f32>,
        }
        let mut stash: Vec<BlockStash> = Vec::with_capacity(self.blocks);
        for b in 0..self.blocks as u64 {
            let h_in = h.clone();
            let pre1 = dense(&h, &params[&(2 + 4 * b)], &params[&(3 + 4 * b)], rows, w, w);
            let mut t = pre1.clone();
            relu_inplace(&mut t);
            let r = dense(&t, &params[&(4 + 4 * b)], &params[&(5 + 4 * b)], rows, w, w);
            let mut pre_sum = h;
            for (hv, rv) in pre_sum.iter_mut().zip(&r) {
                *hv += rv;
            }
            h = pre_sum.clone();
            relu_inplace(&mut h);
            stash.push(BlockStash {
                h_in,
                pre1,
                t,
                pre_sum,
            });
        }
        let mut logits = dense(
            &h,
            &params[&self.head_w_key()],
            &params[&self.head_b_key()],
            rows,
            w,
            self.classes,
        );
        let loss = softmax_xent_backward(&mut logits, &batch.y, self.classes);
        let dlogits = logits;

        // ---- backward ----
        let mut grads = ParamMap::new();
        let mut dw_head = vec![0.0f32; w * self.classes];
        matmul_at_b(&h, &dlogits, &mut dw_head, rows, w, self.classes);
        grads.insert(self.head_w_key(), dw_head);
        grads.insert(self.head_b_key(), col_sums(&dlogits, self.classes));
        let mut dh = vec![0.0f32; rows * w];
        matmul_a_bt(
            &dlogits,
            &params[&self.head_w_key()],
            &mut dh,
            rows,
            self.classes,
            w,
        );

        for b in (0..self.blocks as u64).rev() {
            let s = &stash[b as usize];
            // Through the post-sum ReLU.
            relu_backward_inplace(&s.pre_sum, &mut dh);
            let d_sum = dh; // gradient at (h_in + r)
                            // Branch: dr = d_sum.
            let mut dw2 = vec![0.0f32; w * w];
            matmul_at_b(&s.t, &d_sum, &mut dw2, rows, w, w);
            grads.insert(4 + 4 * b, dw2);
            grads.insert(5 + 4 * b, col_sums(&d_sum, w));
            let mut dt = vec![0.0f32; rows * w];
            matmul_a_bt(&d_sum, &params[&(4 + 4 * b)], &mut dt, rows, w, w);
            relu_backward_inplace(&s.pre1, &mut dt);
            let mut dw1 = vec![0.0f32; w * w];
            matmul_at_b(&s.h_in, &dt, &mut dw1, rows, w, w);
            grads.insert(2 + 4 * b, dw1);
            grads.insert(3 + 4 * b, col_sums(&dt, w));
            // dh_in = identity path + branch path.
            let mut dh_in = vec![0.0f32; rows * w];
            matmul_a_bt(&dt, &params[&(2 + 4 * b)], &mut dh_in, rows, w, w);
            for (a, g) in dh_in.iter_mut().zip(&d_sum) {
                *a += g;
            }
            dh = dh_in;
        }

        relu_backward_inplace(&pre0, &mut dh);
        let mut dw0 = vec![0.0f32; self.input * w];
        matmul_at_b(&batch.x, &dh, &mut dw0, rows, self.input, w);
        grads.insert(0, dw0);
        grads.insert(1, col_sums(&dh, w));
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
        let model = ResidualMlp {
            input: 5,
            width: 6,
            blocks: 2,
            classes: 3,
        };
        check_gradients(&model, 5, 23, 4e-2);
    }

    #[test]
    fn param_inventory_matches_shapes() {
        let m = ResidualMlp {
            input: 64,
            width: 64,
            blocks: 8,
            classes: 10,
        };
        let shapes = m.param_shapes();
        assert_eq!(shapes.len(), 2 + 4 * 8 + 2);
        let p = m.init_params(0);
        for s in &shapes {
            assert_eq!(p[&s.key].len(), s.len, "key {}", s.key);
        }
        assert_eq!(m.num_params(), shapes.iter().map(|s| s.len).sum::<usize>());
    }

    #[test]
    fn identity_start_keeps_logits_finite_through_depth() {
        let m = ResidualMlp {
            input: 8,
            width: 16,
            blocks: 12,
            classes: 4,
        };
        let p = m.init_params(1);
        let x = vec![0.5f32; 8 * 3];
        let logits = m.logits(&p, &x, 3);
        assert!(logits.iter().all(|v| v.is_finite() && v.abs() < 100.0));
    }

    #[test]
    fn deep_model_trains_on_synthetic_data() {
        let spec = SyntheticSpec {
            dim: 16,
            classes: 4,
            n_train: 2000,
            n_test: 400,
            margin: 4.0,
            modes: 2,
            label_noise: 0.0,
            seed: 31,
        };
        let (train, test) = synthetic(spec);
        let model = ResidualMlp {
            input: 16,
            width: 32,
            blocks: 4,
            classes: 4,
        };
        let mut params = model.init_params(3);
        let mut opt = Sgd::new(0.08, 0.9, 0.0);
        let mut sampler = BatchSampler::new(0..train.len(), 64, 7);
        for _ in 0..600 {
            let batch = train.batch(&sampler.next_indices());
            let (_, grads) = model.loss_and_grad(&params, &batch);
            opt.step(&mut params, &grads);
        }
        let acc = model.accuracy(&params, &test);
        assert!(acc > 0.85, "deep model should train, got {acc}");
    }
}
