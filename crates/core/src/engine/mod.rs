//! Execution engines: the cycle-level back-ends behind the dense and
//! sparse memory controllers.
//!
//! * [`systolic`] — output-stationary systolic array (TPU-like).
//! * [`flexible`] — tree-based flexible dense engine (MAERI-like).
//! * [`sparse`] — variable-cluster sparse engine (SIGMA-like).
//! * [`pool`] — streaming max-pool support (mapped without SIMD units, as
//!   the paper notes flexible substrates allow).
//!
//! # Two halves
//!
//! STONNE's contract is functional *and* cycle-level, and every engine
//! keeps the two apart as a pair of crate-private functions: `functional`
//! computes the output — the only code of the engine that multiplies
//! operand values, in the engine's accumulation order — and `accounting`
//! walks the microarchitecture for the [`crate::SimStats`] without
//! reading a value (beyond a zero pattern, where timing depends on one)
//! or writing an output. The public `run_*` entry points are the two
//! composed; [`crate::Stonne`] calls `functional` for every layer and
//! `accounting` only when no cache entry or predictor stands in for it.

pub mod flexible;
pub mod pool;
pub mod sparse;
pub mod systolic;

use crate::engine::flexible::{DenseOperand, PAD_ADDR};
use stonne_tensor::{im2col_matrix, weights_matrix, Conv2dGeom, Tensor4};

/// Lowers one convolution group to a [`DenseOperand`] with the Global-
/// Buffer address of every im2col entry, so the engines can model the
/// multicast reuse of overlapping windows and skip padding fetches.
///
/// # Panics
///
/// Panics when `g >= geom.groups` or tensor shapes disagree with `geom`.
pub fn conv_operand(
    input: &Tensor4,
    weights: &Tensor4,
    geom: &Conv2dGeom,
    g: usize,
) -> DenseOperand {
    let wm = weights_matrix(weights, geom, g);
    let im = im2col_matrix(input, geom, g);
    let (oh, ow) = geom.out_hw(input.h(), input.w());
    let cpg = geom.in_c_per_group();
    let (n_batch, in_h, in_w) = (input.n(), input.h(), input.w());
    let mut addrs = vec![PAD_ADDR; im.len()];
    let ncols = im.cols();
    for n in 0..n_batch {
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
                            if iy >= 0 && ix >= 0 && (iy as usize) < in_h && (ix as usize) < in_w {
                                let addr = ((n * input.c() + ic) * in_h + iy as usize) * in_w
                                    + ix as usize;
                                addrs[row * ncols + col] = addr as u32;
                            }
                            row += 1;
                        }
                    }
                }
            }
        }
    }
    DenseOperand {
        weights: wm,
        inputs: im,
        addrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stonne_tensor::SeededRng;

    #[test]
    fn conv_operand_addresses_are_unique_per_input_element() {
        let geom = Conv2dGeom::new(2, 3, 3, 3, 1, 1, 1);
        let mut rng = SeededRng::new(1);
        let input = Tensor4::random(1, 2, 5, 5, &mut rng);
        let weights = Tensor4::random(3, 2, 3, 3, &mut rng);
        let op = conv_operand(&input, &weights, &geom, 0);
        let mut addrs: Vec<u32> = op
            .addrs
            .iter()
            .copied()
            .filter(|&a| a != PAD_ADDR)
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        // Every real input element appears at least once; addresses stay
        // within the input tensor.
        assert_eq!(addrs.len(), input.len());
        assert!(addrs.iter().all(|&a| (a as usize) < input.len()));
    }

    #[test]
    fn conv_operand_pad_fraction_matches_padding() {
        // 3x3 pad 1 over 4x4: border windows tap padding.
        let geom = Conv2dGeom::new(1, 1, 3, 3, 1, 1, 1);
        let mut rng = SeededRng::new(2);
        let input = Tensor4::random(1, 1, 4, 4, &mut rng);
        let weights = Tensor4::random(1, 1, 3, 3, &mut rng);
        let op = conv_operand(&input, &weights, &geom, 0);
        let pads = op.addrs.iter().filter(|&&a| a == PAD_ADDR).count();
        // 16 windows * 9 taps = 144 entries; interior 4 windows have none.
        assert!(pads > 0 && pads < 144);
        // Values at pad addresses must be zero in the im2col matrix.
        for (i, &a) in op.addrs.iter().enumerate() {
            if a == PAD_ADDR {
                let r = i / op.inputs.cols();
                let c = i % op.inputs.cols();
                assert_eq!(op.inputs.get(r, c), 0.0);
            }
        }
    }
}
