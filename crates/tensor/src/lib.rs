//! Dense and sparse tensor substrate for the STONNE-rs simulator.
//!
//! The original STONNE simulator leans on PyTorch for its tensor types; this
//! crate provides the equivalent substrate natively in Rust:
//!
//! * [`Matrix`] — a dense row-major 2-D matrix of [`Elem`] values, the
//!   currency of GEMM-shaped workloads.
//! * [`Tensor4`] — a dense NCHW 4-D tensor used for convolutional layers.
//! * [`CsrMatrix`] and [`BitmapMatrix`] — the two sparse encodings the
//!   paper's sparse controller supports (CSR and bitmap).
//! * [`im2col`] — the `img2col` lowering the paper uses to map any
//!   convolution onto a GEMM.
//! * [`conv2d_reference`] and [`gemm_reference`] — golden functional models
//!   used to validate the cycle-level simulator's outputs.
//! * [`fold_gemm`] — the register-blocked, accumulation-order-preserving
//!   GEMM kernel every MAC engine computes its outputs with.
//! * [`prune`] — unstructured magnitude pruning used to reach the weight
//!   sparsity ratios of Table I of the paper.
//!
//! # Example
//!
//! ```
//! use stonne_tensor::{Matrix, CsrMatrix};
//!
//! let mut m = Matrix::zeros(2, 3);
//! m.set(0, 0, 1.0);
//! m.set(1, 2, -2.5);
//! let csr = CsrMatrix::from_dense(&m);
//! assert_eq!(csr.nnz(), 2);
//! assert_eq!(csr.to_dense(), m);
//! ```

pub mod bitmap;
pub mod conv;
pub mod csr;
pub mod dense;
pub mod fold;
pub mod gemm;
pub mod im2col;
pub mod prune;
pub mod rng;

pub use bitmap::BitmapMatrix;
pub use conv::{conv2d_reference, maxpool2d_reference, Conv2dGeom};
pub use csr::CsrMatrix;
pub use dense::{Matrix, Tensor4};
pub use fold::fold_gemm;
pub use gemm::{gemm_reference, spmm_reference};
pub use im2col::col2im_output;
pub use im2col::{im2col_matrix, weights_matrix};
pub use prune::{prune_matrix_to_sparsity, prune_tensor_to_sparsity, prune_to_sparsity};
pub use rng::SeededRng;

/// The element type flowing through the simulated datapath.
///
/// The paper evaluates with FP8/FP16 datatypes; numerically we carry `f32`
/// (bit-width only affects the energy/area tables, not functional values).
pub type Elem = f32;

/// Relative tolerance used when comparing simulator outputs against the
/// reference functional models.
///
/// The engines fold long dot products into cluster-sized partial sums, so
/// their f32 accumulation order differs from the sequential reference;
/// the tolerance absorbs that reassociation error across deep models.
pub const FUNCTIONAL_TOLERANCE: Elem = 2e-3;

/// Returns `true` when two values are equal within [`FUNCTIONAL_TOLERANCE`]
/// (relative for large magnitudes, absolute near zero).
///
/// ```
/// assert!(stonne_tensor::approx_eq(1.0, 1.0 + 1e-6));
/// assert!(!stonne_tensor::approx_eq(1.0, 1.1));
/// ```
pub fn approx_eq(a: Elem, b: Elem) -> bool {
    if a == b {
        // Covers exact matches and identical infinities (log-softmax
        // underflow produces -inf on both sides).
        return true;
    }
    let diff = (a - b).abs();
    let scale = a.abs().max(b.abs()).max(1.0);
    diff <= FUNCTIONAL_TOLERANCE * scale
}

/// Asserts that two slices are element-wise [`approx_eq`].
///
/// # Panics
///
/// Panics with the first mismatching index when the slices differ in length
/// or in content.
pub fn assert_slices_close(actual: &[Elem], expected: &[Elem]) {
    assert_eq!(
        actual.len(),
        expected.len(),
        "slice length mismatch: {} vs {}",
        actual.len(),
        expected.len()
    );
    for (i, (a, e)) in actual.iter().zip(expected.iter()).enumerate() {
        assert!(
            approx_eq(*a, *e),
            "mismatch at index {i}: actual={a} expected={e}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_accepts_small_relative_error() {
        assert!(approx_eq(1000.0, 1000.05));
        assert!(approx_eq(0.0, 0.0));
        assert!(approx_eq(-3.5, -3.5));
    }

    #[test]
    fn approx_eq_rejects_large_error() {
        assert!(!approx_eq(1.0, 2.0));
        assert!(!approx_eq(0.0, 1.0));
    }

    #[test]
    fn assert_slices_close_passes_on_equal() {
        assert_slices_close(&[1.0, 2.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "mismatch at index 1")]
    fn assert_slices_close_panics_on_mismatch() {
        assert_slices_close(&[1.0, 2.0], &[1.0, 3.0]);
    }
}
