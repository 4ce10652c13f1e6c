//! Dense row-major matrices and NCHW 4-D tensors.

use crate::rng::SeededRng;
use crate::Elem;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major 2-D matrix.
///
/// `Matrix` is the currency of GEMM-shaped work in the simulator: weights
/// are the *MK* operand (stationary), activations the *KN* operand
/// (streaming), matching the paper's Section IV-B terminology.
///
/// ```
/// use stonne_tensor::Matrix;
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.rows(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Elem>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Elem>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices (handy in tests).
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[Elem]]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in rows {
            assert_eq!(row.len(), n_cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: n_rows,
            cols: n_cols,
            data,
        }
    }

    /// Creates a matrix with uniform random values in `[-1, 1)`.
    pub fn random(rows: usize, cols: usize, rng: &mut SeededRng) -> Self {
        let data = (0..rows * cols).map(|_| rng.uniform(-1.0, 1.0)).collect();
        Self { rows, cols, data }
    }

    /// Creates a weights matrix whose rows (filters) carry log-normally
    /// distributed magnitude scales.
    ///
    /// Trained DNN filters differ widely in importance, so *global*
    /// magnitude pruning produces highly variable per-filter non-zero
    /// counts (the paper's Fig. 7b); i.i.d. uniform weights would prune
    /// every filter equally and hide that behaviour. `spread` is the
    /// standard deviation of the log-scale (≈0.8 reproduces realistic
    /// variability; 0 degenerates to [`Matrix::random`]).
    pub fn random_filterwise(rows: usize, cols: usize, spread: f32, rng: &mut SeededRng) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let scale = rng.normal(0.0, spread).exp();
            for c in 0..cols {
                m.set(r, c, rng.uniform(-1.0, 1.0) * scale);
            }
        }
        m
    }

    /// Creates a seeded random matrix with the given fraction of exact
    /// zeros, placed by global magnitude pruning over filter-wise scaled
    /// values (the same operand recipe the Fig. 1c sparsity sweep uses).
    ///
    /// `sparsity` is the target zero fraction in `[0, 1)`; `0.0`
    /// degenerates to a dense [`Matrix::random_filterwise`] draw. The
    /// result is fully determined by `(rows, cols, sparsity, rng state)`,
    /// which makes it suitable for differential fuzzing.
    pub fn random_sparse(rows: usize, cols: usize, sparsity: f64, rng: &mut SeededRng) -> Self {
        let mut m = Matrix::random_filterwise(rows, cols, 0.8, rng);
        if sparsity > 0.0 {
            crate::prune::prune_matrix_to_sparsity(&mut m, sparsity);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements (`rows * cols`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Elem {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Elem) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    pub fn row(&self, r: usize) -> &[Elem] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [Elem] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major view of the whole matrix.
    pub fn as_slice(&self) -> &[Elem] {
        &self.data
    }

    /// Mutable flat row-major view.
    pub fn as_mut_slice(&mut self) -> &mut [Elem] {
        &mut self.data
    }

    /// Consumes the matrix and returns the flat buffer.
    pub fn into_vec(self) -> Vec<Elem> {
        self.data
    }

    /// Returns the transposed matrix.
    pub fn transposed(&self) -> Matrix {
        // Square tiles keep both the rows read and the rows written in
        // cache; a plain double loop strides one side by a whole row.
        const TILE: usize = 16;
        let (rows, cols) = (self.rows, self.cols);
        let mut t = Matrix::zeros(cols, rows);
        for r0 in (0..rows).step_by(TILE) {
            let r1 = (r0 + TILE).min(rows);
            for c0 in (0..cols).step_by(TILE) {
                for c in c0..(c0 + TILE).min(cols) {
                    for r in r0..r1 {
                        t.data[c * rows + r] = self.data[r * cols + c];
                    }
                }
            }
        }
        t
    }

    /// Number of non-zero elements.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Fraction of elements that are exactly zero, in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / self.data.len() as f64
    }

    /// Number of non-zeros in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row(r).iter().filter(|v| **v != 0.0).count()
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            let row: Vec<String> = self
                .row(r)
                .iter()
                .take(8)
                .map(|v| format!("{v:7.3}"))
                .collect();
            writeln!(
                f,
                "  [{}{}]",
                row.join(", "),
                if self.cols > 8 { ", …" } else { "" }
            )?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

/// A dense 4-D tensor in NCHW layout (batch, channels, height, width).
///
/// ```
/// use stonne_tensor::Tensor4;
/// let mut t = Tensor4::zeros(1, 3, 4, 4);
/// t.set(0, 2, 1, 1, 5.0);
/// assert_eq!(t.get(0, 2, 1, 1), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor4 {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    data: Vec<Elem>,
}

impl Tensor4 {
    /// Creates a zero-filled NCHW tensor.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        Self {
            n,
            c,
            h,
            w,
            data: vec![0.0; n * c * h * w],
        }
    }

    /// Creates a tensor from a flat NCHW buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match the shape.
    pub fn from_vec(n: usize, c: usize, h: usize, w: usize, data: Vec<Elem>) -> Self {
        assert_eq!(data.len(), n * c * h * w, "buffer does not match shape");
        Self { n, c, h, w, data }
    }

    /// Creates a tensor with uniform random values in `[-1, 1)`.
    pub fn random(n: usize, c: usize, h: usize, w: usize, rng: &mut SeededRng) -> Self {
        let data = (0..n * c * h * w).map(|_| rng.uniform(-1.0, 1.0)).collect();
        Self { n, c, h, w, data }
    }

    /// Creates a KCHW weights tensor whose filters (`n` axis) carry
    /// log-normally distributed magnitude scales; see
    /// [`Matrix::random_filterwise`] for the rationale.
    pub fn random_filterwise(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        spread: f32,
        rng: &mut SeededRng,
    ) -> Self {
        let per_filter = c * h * w;
        let mut data = Vec::with_capacity(n * per_filter);
        for _ in 0..n {
            let scale = rng.normal(0.0, spread).exp();
            data.extend((0..per_filter).map(|_| rng.uniform(-1.0, 1.0) * scale));
        }
        Self { n, c, h, w, data }
    }

    /// Batch size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Channel count.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Height.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Width.
    pub fn w(&self) -> usize {
        self.w
    }

    /// `(n, c, h, w)` shape tuple.
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.n, self.c, self.h, self.w)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    fn index(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(n < self.n && c < self.c && h < self.h && w < self.w);
        ((n * self.c + c) * self.h + h) * self.w + w
    }

    /// Element at `(n, c, h, w)`.
    #[inline]
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> Elem {
        self.data[self.index(n, c, h, w)]
    }

    /// Sets the element at `(n, c, h, w)`.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: Elem) {
        let i = self.index(n, c, h, w);
        self.data[i] = v;
    }

    /// Flat NCHW view.
    pub fn as_slice(&self) -> &[Elem] {
        &self.data
    }

    /// Mutable flat NCHW view.
    pub fn as_mut_slice(&mut self) -> &mut [Elem] {
        &mut self.data
    }

    /// Consumes the tensor and returns the flat buffer.
    pub fn into_vec(self) -> Vec<Elem> {
        self.data
    }

    /// Number of non-zero elements.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Fraction of zero elements.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / self.data.len() as f64
    }
}

impl fmt::Display for Tensor4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor4 [{}x{}x{}x{}] ({} elems, {:.1}% sparse)",
            self.n,
            self.c,
            self.h,
            self.w,
            self.len(),
            self.sparsity() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_roundtrip_get_set() {
        let mut m = Matrix::zeros(3, 4);
        m.set(2, 3, 7.5);
        m.set(0, 0, -1.0);
        assert_eq!(m.get(2, 3), 7.5);
        assert_eq!(m.get(0, 0), -1.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn matrix_transpose_involution() {
        // Inside one tile, ragged across tiles both ways, and empty.
        let mut rng = SeededRng::new(7);
        for (rows, cols) in [(5, 3), (16, 16), (37, 18), (1, 40), (0, 4), (4, 0)] {
            let m = Matrix::random(rows, cols, &mut rng);
            let t = m.transposed();
            assert_eq!((t.rows(), t.cols()), (cols, rows));
            for (i, &v) in m.as_slice().iter().enumerate() {
                assert_eq!(t.get(i % cols, i / cols).to_bits(), v.to_bits());
            }
            assert_eq!(t.transposed(), m);
        }
    }

    #[test]
    fn matrix_row_views() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.as_slice().len(), 6);
    }

    #[test]
    fn matrix_sparsity_counts_zeros() {
        let m = Matrix::from_rows(&[&[0.0, 2.0], &[0.0, 0.0]]);
        assert_eq!(m.nnz(), 1);
        assert!((m.sparsity() - 0.75).abs() < 1e-12);
        assert_eq!(m.row_nnz(0), 1);
        assert_eq!(m.row_nnz(1), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn matrix_get_out_of_bounds_panics() {
        Matrix::zeros(2, 2).get(2, 0);
    }

    #[test]
    fn tensor4_indexing_is_nchw() {
        let mut t = Tensor4::zeros(2, 3, 4, 5);
        t.set(1, 2, 3, 4, 9.0);
        // Last element of the buffer in NCHW order.
        assert_eq!(t.as_slice()[t.len() - 1], 9.0);
        assert_eq!(t.get(1, 2, 3, 4), 9.0);
    }

    #[test]
    fn tensor4_shape_accessors() {
        let t = Tensor4::zeros(1, 2, 3, 4);
        assert_eq!(t.shape(), (1, 2, 3, 4));
        assert_eq!(t.len(), 24);
        assert!(!t.is_empty());
    }

    #[test]
    fn filterwise_weights_have_variable_row_magnitudes() {
        let mut rng = SeededRng::new(8);
        let m = Matrix::random_filterwise(32, 64, 0.8, &mut rng);
        let norms: Vec<f32> = (0..32)
            .map(|r| m.row(r).iter().map(|v| v.abs()).sum::<f32>())
            .collect();
        let max = norms.iter().cloned().fold(0.0f32, f32::max);
        let min = norms.iter().cloned().fold(f32::INFINITY, f32::min);
        assert!(
            max / min > 3.0,
            "row magnitude spread too small: {min}..{max}"
        );
    }

    #[test]
    fn filterwise_pruning_gives_variable_row_nnz() {
        let mut rng = SeededRng::new(9);
        let mut m = Matrix::random_filterwise(32, 64, 0.8, &mut rng);
        crate::prune_matrix_to_sparsity(&mut m, 0.8);
        let nnz: Vec<usize> = (0..32).map(|r| m.row_nnz(r)).collect();
        let max = *nnz.iter().max().unwrap();
        let min = *nnz.iter().min().unwrap();
        assert!(max >= min + 16, "nnz spread too small: {min}..{max}");
    }

    #[test]
    fn random_matrices_are_deterministic_per_seed() {
        let mut r1 = SeededRng::new(42);
        let mut r2 = SeededRng::new(42);
        assert_eq!(Matrix::random(4, 4, &mut r1), Matrix::random(4, 4, &mut r2));
    }
}
