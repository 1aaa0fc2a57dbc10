//! Worker-side optimizers.
//!
//! In the PS decomposition used here (Algorithm 1: the server computes
//! `w += g/N`), the *worker* turns raw gradients into update deltas —
//! `−lr · adjusted_grad` — and pushes those. [`Optimizer::step`] applies the
//! same delta to a local parameter copy for single-process training;
//! [`Optimizer::deltas`] produces the push payload for distributed training.

use crate::ParamMap;

/// A first-order optimizer over PS-keyed parameters.
pub trait Optimizer {
    /// Compute the update deltas (`w_new = w + delta`) for `grads` at the
    /// current learning rate, advancing any internal state (momentum).
    fn deltas(&mut self, params: &ParamMap, grads: &ParamMap) -> ParamMap;

    /// Apply the deltas directly to `params` (local training convenience).
    fn step(&mut self, params: &mut ParamMap, grads: &ParamMap) {
        let deltas = self.deltas(params, grads);
        for (k, d) in deltas {
            let p = params.get_mut(&k).expect("delta for unknown key");
            for (pv, dv) in p.iter_mut().zip(d) {
                *pv += dv;
            }
        }
    }

    /// Update the learning rate (drivers call this with the schedule value).
    fn set_lr(&mut self, lr: f32);
}

/// SGD with momentum and decoupled weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: ParamMap,
}

impl Sgd {
    /// Classic SGD: `v ← μv + g + λw`, `Δ = −lr·v`.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0 && (0.0..1.0).contains(&momentum) && weight_decay >= 0.0);
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: ParamMap::new(),
        }
    }
}

impl Optimizer for Sgd {
    /// One pass per key, each delta written as it is collected: iterating
    /// rather than indexing is what lets the loop vectorize. The operations
    /// and their order, `v = μ·v + (g + λ·w)` then `δ = −lr·v`, are the ones
    /// `tests/same_bits.rs` pins: reassociating them moves bits.
    fn deltas(&mut self, params: &ParamMap, grads: &ParamMap) -> ParamMap {
        let (lr, momentum, weight_decay) = (self.lr, self.momentum, self.weight_decay);
        let mut out = ParamMap::new();
        for (&k, g) in grads {
            let w = &params[&k];
            let v = self.velocity.entry(k).or_insert_with(|| vec![0.0; g.len()]);
            assert!(
                w.len() >= g.len() && v.len() >= g.len(),
                "gradient of key {k} longer than its parameter or velocity"
            );
            let delta = v
                .iter_mut()
                .zip(g)
                .zip(w)
                .map(|((v, &g), &w)| {
                    *v = momentum * *v + (g + weight_decay * w);
                    -lr * *v
                })
                .collect();
            out.insert(k, delta);
        }
        out
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_param(w: f32) -> ParamMap {
        let mut p = ParamMap::new();
        p.insert(0, vec![w]);
        p
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        let mut params = one_param(1.0);
        let grads = one_param(2.0); // gradient 2 at key 0
        opt.step(&mut params, &grads);
        assert!((params[&0][0] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        let mut params = one_param(0.0);
        let grads = one_param(1.0);
        opt.step(&mut params, &grads); // v=1, Δ=-0.1
        opt.step(&mut params, &grads); // v=1.9, Δ=-0.19
        assert!((params[&0][0] + 0.29).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut opt = Sgd::new(0.1, 0.0, 0.5);
        let mut params = one_param(2.0);
        let grads = one_param(0.0);
        opt.step(&mut params, &grads);
        assert!(params[&0][0] < 2.0);
    }

    #[test]
    fn deltas_and_step_agree() {
        let grads = one_param(1.5);
        let mut a = Sgd::new(0.2, 0.5, 0.01);
        let mut b = Sgd::new(0.2, 0.5, 0.01);
        let mut pa = one_param(1.0);
        let pb = one_param(1.0);
        let deltas = b.deltas(&pb, &grads);
        a.step(&mut pa, &grads);
        assert!((pa[&0][0] - (pb[&0][0] + deltas[&0][0])).abs() < 1e-7);
    }

    #[test]
    fn set_lr_scales_the_next_delta() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        opt.set_lr(0.05);
        let deltas = opt.deltas(&one_param(0.0), &one_param(1.0));
        assert_eq!(deltas[&0][0], -0.05);
    }
}
