//! `img2col` lowering: convolution → GEMM.
//!
//! The paper's sparse controller "runs GEMM operations (any CONV operation
//! can be mapped to GEMM using the img2col function)". This module provides
//! that lowering for grouped convolutions: per group, the weights become an
//! `out_c/G × (C/G·R·S)` MK matrix and the input patches become a
//! `(C/G·R·S) × (X'·Y'·N)` KN matrix, so that `MK × KN` equals the
//! convolution output.

use crate::{Conv2dGeom, Matrix, Tensor4};

/// Builds the per-group weights (MK) matrix for group `g`.
///
/// Rows are filters of the group; columns scan `(c, fy, fx)` with `c`
/// outermost — the same order [`im2col_matrix`] uses for its rows, and
/// the order of a KCHW buffer, of which group `g` is rows `g·kpg..`.
///
/// # Panics
///
/// Panics when `g >= geom.groups` or when shapes disagree.
pub fn weights_matrix(weights: &Tensor4, geom: &Conv2dGeom, g: usize) -> Matrix {
    assert!(g < geom.groups, "group {g} out of range");
    let filter_shape = (geom.out_c, geom.in_c_per_group(), geom.kh, geom.kw);
    assert_eq!(weights.shape(), filter_shape, "weights shape mismatch");
    let (kpg, klen) = (geom.out_c_per_group(), geom.dot_product_len());
    let block = &weights.as_slice()[g * kpg * klen..][..kpg * klen];
    Matrix::from_vec(kpg, klen, block.to_vec())
}

/// Builds the per-group im2col (KN) matrix for group `g`.
///
/// Rows scan `(c, fy, fx)`; columns scan `(n, oy, ox)` with `n` outermost.
/// Out-of-bounds (padding) taps contribute zeros.
///
/// # Panics
///
/// Panics when `g >= geom.groups` or when the input channel count differs
/// from `geom.in_c`.
pub fn im2col_matrix(input: &Tensor4, geom: &Conv2dGeom, g: usize) -> Matrix {
    assert!(g < geom.groups, "group {g} out of range");
    assert_eq!(input.c(), geom.in_c, "input channel mismatch");
    let (oh, ow) = geom.out_hw(input.h(), input.w());
    let klen = geom.dot_product_len();
    let ncols = input.n() * oh * ow;
    let cpg = geom.in_c_per_group();
    let mut m = Matrix::zeros(klen, ncols);
    for n in 0..input.n() {
        for oy in 0..oh {
            for ox in 0..ow {
                let col = (n * oh + oy) * ow + ox;
                let mut row = 0;
                for c in 0..cpg {
                    let ic = g * cpg + c;
                    for fy in 0..geom.kh {
                        for fx in 0..geom.kw {
                            let iy = (oy * geom.stride + fy) as isize - geom.pad as isize;
                            let ix = (ox * geom.stride + fx) as isize - geom.pad as isize;
                            let v = if iy < 0
                                || ix < 0
                                || iy as usize >= input.h()
                                || ix as usize >= input.w()
                            {
                                0.0
                            } else {
                                input.get(n, ic, iy as usize, ix as usize)
                            };
                            m.set(row, col, v);
                            row += 1;
                        }
                    }
                }
            }
        }
    }
    m
}

/// Reassembles the per-group GEMM outputs into the NCHW convolution output.
///
/// `group_outputs[g]` must be the `out_c/G × (N·X'·Y')` product for group
/// `g`, with columns in the `(n, oy, ox)` order produced by
/// [`im2col_matrix`].
///
/// # Panics
///
/// Panics when the number of group outputs or their shapes are inconsistent
/// with `geom`.
pub fn col2im_output(
    group_outputs: &[Matrix],
    geom: &Conv2dGeom,
    n: usize,
    oh: usize,
    ow: usize,
) -> Tensor4 {
    assert_eq!(
        group_outputs.len(),
        geom.groups,
        "one output per group required"
    );
    let kpg = geom.out_c_per_group();
    let mut out = Tensor4::zeros(n, geom.out_c, oh, ow);
    for (g, gm) in group_outputs.iter().enumerate() {
        assert_eq!(gm.rows(), kpg, "group output row mismatch");
        assert_eq!(gm.cols(), n * oh * ow, "group output col mismatch");
        for kk in 0..kpg {
            for nn in 0..n {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let col = (nn * oh + oy) * ow + ox;
                        out.set(nn, g * kpg + kk, oy, ox, gm.get(kk, col));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_slices_close, conv2d_reference, gemm_reference, SeededRng};

    fn check_equivalence(geom: Conv2dGeom, n: usize, h: usize, w: usize, seed: u64) {
        let mut rng = SeededRng::new(seed);
        let input = Tensor4::random(n, geom.in_c, h, w, &mut rng);
        let weights = Tensor4::random(
            geom.out_c,
            geom.in_c_per_group(),
            geom.kh,
            geom.kw,
            &mut rng,
        );
        let direct = conv2d_reference(&input, &weights, &geom);
        let (oh, ow) = geom.out_hw(h, w);
        let outputs: Vec<Matrix> = (0..geom.groups)
            .map(|g| {
                gemm_reference(
                    &weights_matrix(&weights, &geom, g),
                    &im2col_matrix(&input, &geom, g),
                )
            })
            .collect();
        let lowered = col2im_output(&outputs, &geom, n, oh, ow);
        assert_slices_close(lowered.as_slice(), direct.as_slice());
    }

    #[test]
    fn im2col_equals_direct_conv_basic() {
        check_equivalence(Conv2dGeom::new(3, 4, 3, 3, 1, 1, 1), 1, 6, 6, 1);
    }

    #[test]
    fn im2col_equals_direct_conv_strided() {
        check_equivalence(Conv2dGeom::new(2, 6, 3, 3, 2, 1, 1), 2, 9, 9, 2);
    }

    #[test]
    fn im2col_equals_direct_conv_depthwise() {
        check_equivalence(Conv2dGeom::new(4, 4, 3, 3, 1, 1, 4), 1, 5, 5, 3);
    }

    #[test]
    fn im2col_equals_direct_conv_grouped() {
        check_equivalence(Conv2dGeom::new(4, 8, 3, 3, 1, 0, 2), 1, 7, 7, 4);
    }

    #[test]
    fn im2col_equals_direct_conv_1x1() {
        check_equivalence(Conv2dGeom::new(8, 16, 1, 1, 1, 0, 1), 1, 4, 4, 5);
    }

    #[test]
    fn weights_matrix_equals_the_per_element_gather() {
        // Plain, two groups, depthwise: group g's block of the KCHW
        // buffer is the matrix the (k, c, fy, fx) walk assembles.
        for (seed, geom) in [
            (7, Conv2dGeom::new(3, 4, 3, 2, 1, 1, 1)),
            (8, Conv2dGeom::new(4, 6, 2, 3, 1, 0, 2)),
            (9, Conv2dGeom::new(5, 5, 3, 3, 2, 1, 5)),
        ] {
            let (cpg, kpg) = (geom.in_c_per_group(), geom.out_c_per_group());
            let mut rng = SeededRng::new(seed);
            let weights = Tensor4::random(geom.out_c, cpg, geom.kh, geom.kw, &mut rng);
            for g in 0..geom.groups {
                let mut gathered = Matrix::zeros(kpg, geom.dot_product_len());
                for kk in 0..kpg {
                    let mut col = 0;
                    for c in 0..cpg {
                        for fy in 0..geom.kh {
                            for fx in 0..geom.kw {
                                gathered.set(kk, col, weights.get(g * kpg + kk, c, fy, fx));
                                col += 1;
                            }
                        }
                    }
                }
                assert_eq!(weights_matrix(&weights, &geom, g), gathered, "group {g}");
            }
        }
    }

    #[test]
    fn im2col_shape_is_klen_by_npixels() {
        let geom = Conv2dGeom::new(3, 4, 3, 3, 1, 1, 1);
        let mut rng = SeededRng::new(6);
        let input = Tensor4::random(2, 3, 8, 8, &mut rng);
        let m = im2col_matrix(&input, &geom, 0);
        assert_eq!(m.rows(), 27);
        assert_eq!(m.cols(), 2 * 8 * 8);
    }

    #[test]
    fn padding_taps_are_zero() {
        let geom = Conv2dGeom::new(1, 1, 3, 3, 1, 1, 1);
        let input = Tensor4::from_vec(1, 1, 1, 1, vec![5.0]);
        let m = im2col_matrix(&input, &geom, 0);
        // Single output pixel; only the kernel centre taps the real input.
        assert_eq!(m.cols(), 1);
        let col: Vec<f32> = (0..9).map(|r| m.get(r, 0)).collect();
        assert_eq!(col.iter().filter(|&&v| v != 0.0).count(), 1);
        assert_eq!(col[4], 5.0);
    }
}
