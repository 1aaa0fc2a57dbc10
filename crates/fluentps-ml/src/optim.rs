//! Worker-side optimizers.
//!
//! In the PS decomposition used here (Algorithm 1: the server computes
//! `w += g/N`), the *worker* turns raw gradients into update deltas —
//! `−lr · adjusted_grad` — and pushes those. [`Optimizer::step`] applies the
//! same delta to a local parameter copy for single-process training;
//! [`Optimizer::deltas`] produces the push payload for distributed training,
//! already in wire form ([`Deltas`]): the optimizer is where a worker's
//! update stops being `f32`s.

use std::ops::Range;

use fluentps_util::buf::{BufMut, Bytes, BytesMut};

use crate::ParamMap;

/// One iteration's update in wire form: every key's values as
/// little-endian `f32` bit patterns, keys ascending, in one slab. Each key
/// owns one range of it, so a server whose slices are consecutive keys (or
/// consecutive slices of one key) can be handed a view of the slab instead
/// of a copy. Clones share the slab.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Deltas {
    /// `(key, range)`, keys ascending; the ranges count `f32`s and tile the
    /// slab in this order.
    index: Vec<(u64, Range<usize>)>,
    slab: Bytes,
}

impl Deltas {
    /// The update `params` in wire form — how a caller that already holds
    /// raw values (a test, a benchmark, a significance filter's output)
    /// pushes them: one allocation of the exact size.
    pub fn from_params(params: &ParamMap) -> Self {
        Deltas::write(params, |_, values, slab| slab.put_f32_slice_le(values))
    }

    /// One range per key of `src`, keys ascending, each filled by `fill(key,
    /// values, slab)`, which must append exactly `values.len()` values. The
    /// slab is reserved at its final size, so it is written once and never
    /// zero-filled or moved.
    fn write<'a>(src: &'a ParamMap, mut fill: impl FnMut(u64, &'a [f32], &mut BytesMut)) -> Self {
        let mut keys: Vec<u64> = src.keys().copied().collect();
        keys.sort_unstable();
        let total = src.values().map(Vec::len).sum::<usize>();
        let mut slab = BytesMut::with_capacity(4 * total);
        let mut index = Vec::with_capacity(keys.len());
        let mut start = 0;
        for key in keys {
            let values = &src[&key];
            fill(key, values, &mut slab);
            let end = start + values.len();
            assert_eq!(slab.len(), 4 * end, "key {key} wrote the wrong length");
            index.push((key, start..end));
            start = end;
        }
        Deltas {
            index,
            slab: slab.freeze(),
        }
    }

    /// Where `key`'s values lie in the [`slab`](Deltas::slab), counted in
    /// `f32`s; `None` for a key without an update.
    pub fn range(&self, key: u64) -> Option<Range<usize>> {
        let at = self.index.binary_search_by_key(&key, |(k, _)| *k).ok()?;
        Some(self.index[at].1.clone())
    }

    /// Every value, key by key in ascending key order, as little-endian
    /// bytes.
    pub fn slab(&self) -> &Bytes {
        &self.slab
    }

    /// Each key with its values read back as `f32`s, keys ascending — what
    /// a caller that does arithmetic on the update reads.
    pub fn iter(&self) -> impl Iterator<Item = (u64, impl ExactSizeIterator<Item = f32> + '_)> {
        self.index.iter().map(|(key, range)| {
            let le = &self.slab[4 * range.start..4 * range.end];
            let values = le
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()));
            (*key, values)
        })
    }
}

/// A first-order optimizer over PS-keyed parameters.
pub trait Optimizer {
    /// Compute the update deltas (`w_new = w + delta`) for `grads` at the
    /// current learning rate, advancing any internal state (momentum).
    fn deltas(&mut self, params: &ParamMap, grads: &ParamMap) -> Deltas;

    /// Apply the deltas directly to `params` (local training convenience).
    fn step(&mut self, params: &mut ParamMap, grads: &ParamMap) {
        for (k, d) in self.deltas(params, grads).iter() {
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

/// Values an [`Sgd`] update computes before appending them to the slab: a
/// 4 KiB stack block, so the slab is written by block copies.
const BLOCK: usize = 1024;

impl Optimizer for Sgd {
    /// One pass per key, each delta written as it is computed, as wire
    /// bytes: iterating rather than indexing is what lets the loop
    /// vectorize, and a block at a time goes through the stack into the
    /// slab. The operations and their order, `v = μ·v + (g + λ·w)` then
    /// `δ = −lr·v`, are the ones `tests/same_bits.rs` pins: reassociating
    /// them moves bits.
    fn deltas(&mut self, params: &ParamMap, grads: &ParamMap) -> Deltas {
        let (lr, momentum, weight_decay) = (self.lr, self.momentum, self.weight_decay);
        let velocity = &mut self.velocity;
        Deltas::write(grads, |k, g, slab| {
            let w = &params[&k];
            let v = velocity.entry(k).or_insert_with(|| vec![0.0; g.len()]);
            assert!(
                w.len() >= g.len() && v.len() >= g.len(),
                "gradient of key {k} longer than its parameter or velocity"
            );
            let mut block = [0u8; 4 * BLOCK];
            let blocks = v
                .chunks_mut(BLOCK)
                .zip(g.chunks(BLOCK))
                .zip(w.chunks(BLOCK));
            for ((v, g), w) in blocks {
                let le = &mut block[..4 * g.len()];
                for (((d, v), &g), &w) in le.chunks_exact_mut(4).zip(v).zip(g).zip(w) {
                    *v = momentum * *v + (g + weight_decay * w);
                    d.copy_from_slice(&(-lr * *v).to_le_bytes());
                }
                slab.extend_from_slice(le);
            }
        })
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The update as raw values again.
    fn raw(deltas: &Deltas) -> ParamMap {
        deltas.iter().map(|(k, d)| (k, d.collect())).collect()
    }

    fn one_param(w: f32) -> ParamMap {
        let mut p = ParamMap::new();
        p.insert(0, vec![w]);
        p
    }

    #[test]
    fn deltas_are_one_slab_of_ascending_keys() {
        let params = ParamMap::from([(9, vec![1.0, 2.0]), (2, vec![3.0]), (5, vec![])]);
        let deltas = Deltas::from_params(&params);
        assert_eq!(deltas.iter().map(|(k, _)| k).collect::<Vec<_>>(), [2, 5, 9]);
        let ranges: Vec<_> = [2, 5, 9, 4].map(|k| deltas.range(k)).into();
        assert_eq!(ranges, [Some(0..1), Some(1..1), Some(1..3), None]);
        let le: Vec<u8> = [3.0f32, 1.0, 2.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        assert_eq!(deltas.slab().as_slice(), le);
        assert_eq!(raw(&deltas), params);
        assert_eq!(Deltas::from_params(&ParamMap::new()), Deltas::default());
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
        let deltas = raw(&b.deltas(&pb, &grads));
        a.step(&mut pa, &grads);
        assert!((pa[&0][0] - (pb[&0][0] + deltas[&0][0])).abs() < 1e-7);
    }

    #[test]
    fn set_lr_scales_the_next_delta() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        opt.set_lr(0.05);
        let deltas = opt.deltas(&one_param(0.0), &one_param(1.0));
        assert_eq!(raw(&deltas)[&0], [-0.05]);
    }
}
