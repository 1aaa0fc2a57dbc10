//! A small shape-aware tensor over the flat `linalg` kernels.
//!
//! The models use raw slices internally for zero overhead; `Tensor` is the
//! typed facade for building new models and for the examples — it catches
//! shape errors at the call site instead of producing silently wrong GEMMs.

use crate::linalg;

/// Dense row-major f32 tensor (rank 1 or 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: (usize, usize),
}

impl Tensor {
    /// `rows × cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            data: vec![0.0; rows * cols],
            shape: (rows, cols),
        }
    }

    /// Wrap existing data; `data.len()` must equal `rows · cols`.
    pub fn from_vec(data: Vec<f32>, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Tensor {
            data,
            shape: (rows, cols),
        }
    }

    /// A 1 × n row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let n = data.len();
        Self::from_vec(data, 1, n)
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        self.shape
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.shape.0
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.shape.1
    }

    /// Flat data view.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows(), "row {i} out of {}", self.rows());
        &self.data[i * self.cols()..(i + 1) * self.cols()]
    }

    /// Element access.
    pub fn get(&self, i: usize, j: usize) -> f32 {
        assert!(i < self.rows() && j < self.cols());
        self.data[i * self.cols() + j]
    }

    /// Element assignment.
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        assert!(i < self.rows() && j < self.cols());
        let c = self.cols();
        self.data[i * c + j] = v;
    }

    /// Matrix product `self · rhs`.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols(),
            rhs.rows(),
            "matmul shape mismatch: {:?} · {:?}",
            self.shape,
            rhs.shape
        );
        let mut out = Tensor::zeros(self.rows(), rhs.cols());
        linalg::matmul(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows(),
            self.cols(),
            rhs.cols(),
        );
        out
    }

    /// `selfᵀ · rhs` without materializing the transpose.
    pub fn t_matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rows(), rhs.rows(), "t_matmul shape mismatch");
        let mut out = Tensor::zeros(self.cols(), rhs.cols());
        linalg::matmul_at_b(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows(),
            self.cols(),
            rhs.cols(),
        );
        out
    }

    /// `self · rhsᵀ` without materializing the transpose.
    pub fn matmul_t(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.cols(), rhs.cols(), "matmul_t shape mismatch");
        let mut out = Tensor::zeros(self.rows(), rhs.rows());
        linalg::matmul_a_bt(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows(),
            self.cols(),
            rhs.rows(),
        );
        out
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols(), self.rows());
        for i in 0..self.rows() {
            for j in 0..self.cols() {
                out.data[j * self.rows() + i] = self.data[i * self.cols() + j];
            }
        }
        out
    }

    /// Elementwise addition (same shape).
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "add shape mismatch");
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
        out
    }

    /// Add a 1 × cols row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), self.cols(), "bias width mismatch");
        let mut out = self.clone();
        for row in out.data.chunks_mut(self.cols()) {
            for (v, b) in row.iter_mut().zip(&bias.data) {
                *v += b;
            }
        }
        out
    }

    /// Scale every element.
    pub fn scale(&self, s: f32) -> Tensor {
        let mut out = self.clone();
        for v in &mut out.data {
            *v *= s;
        }
        out
    }

    /// In-place ReLU; returns self for chaining.
    pub fn relu(mut self) -> Tensor {
        linalg::relu_inplace(&mut self.data);
        self
    }

    /// Row-wise softmax.
    pub fn softmax_rows(mut self) -> Tensor {
        let (r, c) = self.shape;
        linalg::softmax_rows_inplace(&mut self.data, r, c);
        self
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        linalg::norm2(&self.data)
    }

    /// Sum of every column (returns a 1 × cols tensor) — the bias gradient.
    pub fn col_sums(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols());
        for row in self.data.chunks(self.cols()) {
            for (s, v) in out.data.iter_mut().zip(row) {
                *s += v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut t = Tensor::zeros(2, 3);
        t.set(1, 2, 5.0);
        assert_eq!(t.get(1, 2), 5.0);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_construction_panics() {
        let _ = Tensor::from_vec(vec![1.0; 5], 2, 3);
    }

    #[test]
    fn matmul_agrees_with_manual() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], 2, 2);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_variants_agree_with_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), 2, 3);
        let b = Tensor::from_vec((0..6).map(|v| (v as f32).sin()).collect(), 2, 3);
        // aᵀ·b == transpose(a).matmul(b)
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-6);
        }
        // a·bᵀ == a.matmul(transpose(b))
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn broadcast_add_and_col_sums() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = Tensor::row_vector(vec![10.0, 20.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(x.col_sums().data(), &[4.0, 6.0]);
    }

    #[test]
    fn activations_and_norm() {
        let x = Tensor::from_vec(vec![-1.0, 2.0], 1, 2);
        assert_eq!(x.clone().relu().data(), &[0.0, 2.0]);
        let s = Tensor::from_vec(vec![0.0, 0.0], 1, 2).softmax_rows();
        assert!((s.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((Tensor::from_vec(vec![3.0, 4.0], 1, 2).norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn a_dense_layer_in_tensor_form() {
        // y = relu(x·W + b): exactly the models' hidden layer, typed.
        let x = Tensor::from_vec(vec![1.0, -1.0], 1, 2);
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, -1.0], 2, 2);
        let b = Tensor::row_vector(vec![0.0, 0.5]);
        let y = x.matmul(&w).add_row_broadcast(&b).relu();
        assert_eq!(y.data(), &[1.0, 1.5]);
    }
}
