//! The order-preserving GEMM kernel behind every MAC engine's functional
//! half.
//!
//! The simulated arrays differ in *when* a partial sum meets its output —
//! a systolic PE adds every product into its psum, a tree engine reduces
//! a cluster-sized fold of the dot product first — and `f32` addition
//! does not reassociate, so that order is kept per output. The order
//! *across* outputs is free: [`fold_gemm`] holds an `MR × NC` block of
//! independent outputs in registers over the dot product, so vector lanes
//! and instruction-level parallelism come from different outputs and no
//! one output's adds are ever reordered or fused.

use crate::{Elem, Matrix};
use std::ops::Range;

/// Weight rows per register block.
const MR: usize = 4;
/// Output columns per register block: `MR × NC` accumulators are eight
/// 4-lane vectors, which with two input vectors and a broadcast weight
/// stay inside the 16 vector registers of baseline x86-64 (SSE2).
const NC: usize = 8;

/// Accumulates `weights[rows] × inputs` into the row-major
/// `rows.len() × N` block `out_rows`, one add per fold:
///
/// ```text
/// out[r][c] += Σ_{k ∈ fold, ascending} weights[r][k] · inputs[k][c]     folds ascending
/// ```
///
/// A fold is `fold` consecutive indices of the dot product (the last one
/// ragged; `fold ≥ K` is a straight dot product). Its sum starts at `+0.0`
/// and takes its products in ascending `k` — multiply, then add.
///
/// ```
/// use stonne_tensor::{fold_gemm, Matrix};
/// let w = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
/// let x = Matrix::from_rows(&[&[1.0], &[10.0], &[100.0]]);
/// let mut out = [0.5];
/// fold_gemm(&w, 0..1, &x, 2, &mut out);
/// assert_eq!(out, [0.5 + (1.0 + 20.0) + 300.0]);
/// ```
///
/// # Panics
///
/// Panics if the inner dimensions disagree, `rows` exceeds the weights or
/// `out_rows` is not `rows.len() × N` long.
pub fn fold_gemm(
    weights: &Matrix,
    rows: Range<usize>,
    inputs: &Matrix,
    fold: usize,
    out_rows: &mut [Elem],
) {
    let n = inputs.cols();
    assert_eq!(weights.cols(), inputs.rows(), "inner dimension mismatch");
    assert!(rows.end <= weights.rows(), "weight rows out of range");
    assert_eq!(out_rows.len(), rows.len() * n, "output block size mismatch");
    // (`max`: no columns, no chunks — but no zero chunk size either.)
    for (block, out) in out_rows.chunks_mut((MR * n).max(1)).enumerate() {
        let r0 = rows.start + block * MR;
        match out.len() / n {
            MR => row_block::<MR>(weights, r0, inputs, fold, out),
            3 => row_block::<3>(weights, r0, inputs, fold, out),
            2 => row_block::<2>(weights, r0, inputs, fold, out),
            _ => row_block::<1>(weights, r0, inputs, fold, out),
        }
    }
}

/// `R` weight rows from `r0` against every column, fold by fold.
fn row_block<const R: usize>(
    weights: &Matrix,
    r0: usize,
    inputs: &Matrix,
    fold: usize,
    out: &mut [Elem],
) {
    let (k_len, n, fold) = (inputs.rows(), inputs.cols(), fold.max(1));
    for k_lo in (0..k_len).step_by(fold) {
        let k_hi = k_lo.saturating_add(fold).min(k_len);
        let w: [&[Elem]; R] = std::array::from_fn(|i| &weights.row(r0 + i)[k_lo..k_hi]);
        let x = &inputs.as_slice()[k_lo * n..k_hi * n];
        let mut c = 0;
        while c < n {
            // The widest column block that still fits.
            c += match n - c {
                NC.. => tile::<R, NC>(w, x, n, c, out),
                4.. => tile::<R, 4>(w, x, n, c, out),
                _ => tile::<R, 1>(w, x, n, c, out),
            };
        }
    }
}

/// One fold of the `R × C` output block at column `c`; returns `C`. The
/// fixed-size accumulator arrays live in registers across the `k` sweep.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    w: [&[Elem]; R],
    x: &[Elem],
    n: usize,
    c: usize,
    out: &mut [Elem],
) -> usize {
    let mut acc = [[0.0 as Elem; C]; R];
    for (k, x_row) in x.chunks_exact(n).enumerate() {
        let xs: &[Elem; C] = x_row[c..c + C].try_into().expect("C columns");
        // Indexed on purpose: iterating `acc` by reference spills it.
        for i in 0..R {
            let wv = w[i][k];
            for j in 0..C {
                acc[i][j] += wv * xs[j];
            }
        }
    }
    for (acc_row, out_row) in acc.iter().zip(out.chunks_exact_mut(n)) {
        for (o, a) in out_row[c..c + C].iter_mut().zip(acc_row) {
            *o += a;
        }
    }
    C
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeededRng;

    /// The contract, stated per output with scalars.
    fn scalar(w: &Matrix, rows: Range<usize>, x: &Matrix, fold: usize, out: &mut [Elem]) {
        let (k_len, n) = (x.rows(), x.cols());
        for (r, out_row) in rows.zip(out.chunks_mut(n.max(1))) {
            for (c, o) in out_row.iter_mut().enumerate() {
                for k_lo in (0..k_len).step_by(fold) {
                    let mut acc: Elem = 0.0;
                    for k in k_lo..k_lo.saturating_add(fold).min(k_len) {
                        acc += w.get(r, k) * x.get(k, c);
                    }
                    *o += acc;
                }
            }
        }
    }

    /// Random operands salted with the values whose sums and products
    /// are order- and sign-sensitive.
    fn salted(rows: usize, cols: usize, rng: &mut SeededRng) -> Matrix {
        let special = [
            0.0,
            -0.0,
            Elem::MIN_POSITIVE / 4.0,
            -Elem::MIN_POSITIVE / 8.0,
            Elem::INFINITY,
            Elem::NEG_INFINITY,
            Elem::NAN,
            3.0e38,
        ];
        let mut m = Matrix::random(rows, cols, rng);
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            if rng.chance(0.15) {
                *v = special[i % special.len()];
            }
        }
        m
    }

    #[test]
    fn equals_the_scalar_contract_bitwise_on_every_tail() {
        let mut rng = SeededRng::new(18);
        let k_len = 11;
        for m in [1, 2, 3, 4, 5, 9] {
            for n in [1, 2, 3, 4, 5, 7, 8, 9, 17, 32] {
                // Two extra weight rows ahead: `rows.start` is non-zero.
                let w = salted(m + 2, k_len, &mut rng);
                let x = salted(k_len, n, &mut rng);
                for fold in [1, 7, k_len, k_len + 5, usize::MAX] {
                    // Outputs start non-zero: the kernel accumulates.
                    let mut want: Vec<Elem> = (0..m * n).map(|i| i as Elem - 3.0).collect();
                    let mut got = want.clone();
                    scalar(&w, 2..m + 2, &x, fold, &mut want);
                    fold_gemm(&w, 2..m + 2, &x, fold, &mut got);
                    // Which payload survives when two NaNs meet is the
                    // one thing IEEE 754 and LLVM leave open.
                    let bits = |v: &[Elem]| -> Vec<u32> {
                        let canonical = |e: &Elem| if e.is_nan() { Elem::NAN } else { *e };
                        v.iter().map(|e| canonical(e).to_bits()).collect()
                    };
                    assert_eq!(bits(&got), bits(&want), "m{m} n{n} fold{fold}");
                }
            }
        }
    }

    #[test]
    fn empty_extents_leave_the_output_alone() {
        let mut out = [1.0, 2.0];
        // K = 0: no fold, nothing added. Fold 0 counts as 1.
        fold_gemm(
            &Matrix::zeros(2, 0),
            0..2,
            &Matrix::zeros(0, 1),
            0,
            &mut out,
        );
        assert_eq!(out, [1.0, 2.0]);
        // N = 0 and M = 0: no outputs.
        fold_gemm(&Matrix::zeros(2, 3), 0..2, &Matrix::zeros(3, 0), 2, &mut []);
        fold_gemm(&Matrix::zeros(2, 3), 1..1, &Matrix::zeros(3, 4), 2, &mut []);
    }
}
