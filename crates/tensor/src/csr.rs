//! Compressed Sparse Row (CSR) matrix encoding.
//!
//! One of the two sparse formats the paper's sparse memory controller
//! accepts for the MK (weights) and KN (activations) operands.

use crate::{Elem, Matrix};
use serde::{Deserialize, Serialize};

/// A sparse matrix in CSR form.
///
/// ```
/// use stonne_tensor::{CsrMatrix, Matrix};
/// let dense = Matrix::from_rows(&[&[0.0, 1.0], &[2.0, 0.0]]);
/// let csr = CsrMatrix::from_dense(&dense);
/// assert_eq!(csr.nnz(), 2);
/// assert_eq!(csr.row_entries(1).collect::<Vec<_>>(), vec![(0, 2.0)]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<Elem>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from a dense matrix, dropping exact zeros.
    pub fn from_dense(m: &Matrix) -> Self {
        // No branch per element: each one is written at the cursor, which
        // only a non-zero advances; the spare slot takes trailing zeros.
        let nnz = m.nnz();
        let mut row_ptr = Vec::with_capacity(m.rows() + 1);
        let mut col_idx = vec![0; nnz + 1];
        let mut vals = vec![0.0; nnz + 1];
        let mut len = 0;
        row_ptr.push(0);
        for r in 0..m.rows() {
            for (c, &v) in m.row(r).iter().enumerate() {
                col_idx[len] = c;
                vals[len] = v;
                len += usize::from(v != 0.0);
            }
            row_ptr.push(len);
        }
        col_idx.truncate(nnz);
        vals.truncate(nnz);
        Self {
            rows: m.rows(),
            cols: m.cols(),
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Builds directly from raw CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent (wrong `row_ptr` length,
    /// non-monotonic `row_ptr`, column out of range, or mismatched value
    /// count).
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<Elem>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr must have rows+1 entries");
        assert_eq!(col_idx.len(), vals.len(), "col_idx/vals length mismatch");
        assert_eq!(*row_ptr.last().unwrap(), vals.len(), "row_ptr end mismatch");
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr must be monotonic"
        );
        assert!(
            col_idx.iter().all(|&c| c < cols),
            "column index out of range"
        );
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of non-zeros in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_nnz(&self, r: usize) -> usize {
        assert!(r < self.rows, "row {r} out of bounds");
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Iterator over `(col, value)` pairs of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, Elem)> + '_ {
        assert!(r < self.rows, "row {r} out of bounds");
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.vals[lo..hi].iter().copied())
    }

    /// Fraction of zero elements.
    pub fn sparsity(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / total as f64
    }

    /// Expands back to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                m.set(r, c, v);
            }
        }
        m
    }

    /// Size of the encoding in "elements" (values + index overhead in
    /// element-sized units), used by the memory-traffic accounting.
    ///
    /// CSR stores one value and one column index per non-zero, plus a row
    /// pointer per row; we charge indices at one element each, matching the
    /// paper's element-granularity traffic counters.
    pub fn storage_elements(&self) -> usize {
        self.vals.len() * 2 + self.row_ptr.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeededRng;

    #[test]
    fn dense_roundtrip() {
        let dense = Matrix::from_rows(&[&[0.0, 1.5, 0.0], &[0.0, 0.0, 0.0], &[-2.0, 0.0, 3.0]]);
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.to_dense(), dense);
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.row_nnz(0), 1);
        assert_eq!(csr.row_nnz(1), 0);
        assert_eq!(csr.row_nnz(2), 2);
    }

    #[test]
    fn from_dense_keeps_exactly_the_non_zeros_in_order() {
        // Zeros of both signs in every position, trailing ones included.
        let dense = Matrix::from_rows(&[&[-0.0, 7.0, 0.0, f32::NAN], &[1.0, -0.0, 2.0, 0.0]]);
        let csr = CsrMatrix::from_dense(&dense);
        let expected = CsrMatrix::from_raw(2, 4, vec![0, 2, 4], vec![1, 3, 0, 2], vec![0.0; 4]);
        assert_eq!(
            (csr.row_ptr, csr.col_idx),
            (expected.row_ptr, expected.col_idx)
        );
        let bits: Vec<u32> = csr.vals.iter().map(|v| v.to_bits()).collect();
        let kept = [7.0, f32::NAN, 1.0, 2.0].map(f32::to_bits);
        assert_eq!(bits, kept);
    }

    #[test]
    fn row_entries_yield_cols_in_order() {
        let dense = Matrix::from_rows(&[&[4.0, 0.0, 5.0, 6.0]]);
        let csr = CsrMatrix::from_dense(&dense);
        let entries: Vec<_> = csr.row_entries(0).collect();
        assert_eq!(entries, vec![(0, 4.0), (2, 5.0), (3, 6.0)]);
    }

    #[test]
    fn sparsity_matches_dense() {
        let mut rng = SeededRng::new(11);
        let mut dense = Matrix::random(10, 10, &mut rng);
        for i in 0..50 {
            let r = i / 10;
            let c = i % 10;
            dense.set(r, c, 0.0);
        }
        let csr = CsrMatrix::from_dense(&dense);
        assert!((csr.sparsity() - dense.sparsity()).abs() < 1e-12);
    }

    #[test]
    fn from_raw_valid() {
        let csr = CsrMatrix::from_raw(2, 3, vec![0, 1, 2], vec![2, 0], vec![1.0, 2.0]);
        assert_eq!(csr.to_dense().get(0, 2), 1.0);
        assert_eq!(csr.to_dense().get(1, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "row_ptr must have rows+1 entries")]
    fn from_raw_bad_row_ptr_panics() {
        CsrMatrix::from_raw(2, 3, vec![0, 1], vec![0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "column index out of range")]
    fn from_raw_bad_col_panics() {
        CsrMatrix::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]);
    }

    #[test]
    fn storage_accounts_values_and_indices() {
        let dense = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.storage_elements(), 2 * 2 + 3);
    }

    #[test]
    fn empty_matrix() {
        let csr = CsrMatrix::from_dense(&Matrix::zeros(0, 0));
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.sparsity(), 0.0);
    }
}
