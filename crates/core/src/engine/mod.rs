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
//! composed. [`crate::Stonne`] lowers a layer from shapes, resolves its
//! record — calling `accounting` only when no cache entry stands in for
//! it — and calls `functional` only when the caller asked for the output
//! (`run_*`, not `time_*`).

pub mod flexible;
pub mod pool;
pub mod sparse;
pub mod systolic;

use crate::engine::flexible::{AddrMap, DenseOperand};
use stonne_tensor::{im2col_matrix, weights_matrix, Conv2dGeom, Tensor4};

/// Lowers one convolution group to a [`DenseOperand`] whose address-map
/// generator lets the flexible engine model the multicast reuse of
/// overlapping windows and skip padding fetches.
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
    DenseOperand {
        weights: weights_matrix(weights, geom, g),
        inputs: im2col_matrix(input, geom, g),
        addrs: AddrMap::conv(geom, input.n(), input.h(), input.w()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::flexible::PAD_ADDR;
    use stonne_tensor::{Matrix, SeededRng};

    /// A matrix's bit patterns, for the engines' bitwise-equality tests.
    pub(crate) fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The eagerly materialised map `conv_operand` used to carry: the
    /// absolute GB address of every im2col entry of group `g`.
    fn reference_addrs(geom: &Conv2dGeom, g: usize, n: usize, h: usize, w: usize) -> Vec<u32> {
        let (oh, ow) = geom.out_hw(h, w);
        let cpg = geom.in_c_per_group();
        let ncols = n * oh * ow;
        let mut addrs = vec![PAD_ADDR; geom.dot_product_len() * ncols];
        for (nn, oy, ox) in
            (0..n).flat_map(|nn| (0..oh).flat_map(move |oy| (0..ow).map(move |ox| (nn, oy, ox))))
        {
            let col = (nn * oh + oy) * ow + ox;
            let mut row = 0;
            for c in 0..cpg {
                for fy in 0..geom.kh {
                    for fx in 0..geom.kw {
                        let iy = (oy * geom.stride + fy) as isize - geom.pad as isize;
                        let ix = (ox * geom.stride + fx) as isize - geom.pad as isize;
                        if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                            let ic = g * cpg + c;
                            let addr = ((nn * geom.in_c + ic) * h + iy as usize) * w + ix as usize;
                            addrs[row * ncols + col] = addr as u32;
                        }
                        row += 1;
                    }
                }
            }
        }
        addrs
    }

    #[test]
    fn generated_map_equals_the_materialised_one_up_to_the_group_base() {
        // (in_c, out_c, kh, kw, stride, pad, groups), batch, h, w: plain,
        // strided, padded, grouped, depthwise, batched, 1×1 (identity),
        // kernel == input (identity), strided 1×1, non-square.
        let cases = [
            ((3, 5, 3, 3, 1, 1, 1), 1, 6, 6),
            ((2, 4, 3, 3, 2, 0, 1), 1, 7, 7),
            ((4, 4, 5, 5, 1, 2, 2), 1, 6, 5),
            ((4, 4, 3, 3, 1, 1, 4), 1, 5, 5),
            ((4, 8, 3, 3, 2, 1, 2), 3, 6, 4),
            ((6, 4, 1, 1, 1, 0, 1), 1, 4, 3),
            ((6, 6, 1, 1, 1, 0, 3), 1, 4, 3),
            ((2, 3, 3, 3, 1, 0, 1), 1, 3, 3),
            ((1, 1, 1, 3, 1, 0, 1), 1, 1, 5),
            ((2, 2, 1, 1, 2, 0, 1), 1, 5, 5),
            ((3, 2, 1, 1, 1, 0, 1), 2, 2, 2),
            ((1, 2, 2, 3, 1, 1, 1), 2, 3, 4),
        ];
        for ((in_c, out_c, kh, kw, stride, pad, groups), n, h, w) in cases {
            let geom = Conv2dGeom::new(in_c, out_c, kh, kw, stride, pad, groups);
            let map = AddrMap::conv(&geom, n, h, w);
            let expanded = map.expand();
            for g in 0..groups {
                let reference = reference_addrs(&geom, g, n, h, w);
                let base = reference.iter().copied().filter(|&a| a != PAD_ADDR).min();
                let shifted: Vec<u32> = reference
                    .iter()
                    .map(|&a| if a == PAD_ADDR { a } else { a - base.unwrap() })
                    .collect();
                assert_eq!(expanded, shifted, "{geom:?} x{n} {h}x{w} group {g}");
            }
            // `Unique` exactly when group 0's materialised map is the
            // identity (what the engine's sort short-circuit keys on).
            let identity = reference_addrs(&geom, 0, n, h, w)
                .iter()
                .enumerate()
                .all(|(i, &a)| a == i as u32);
            let unique = matches!(map, AddrMap::Unique { .. });
            assert_eq!(unique, identity, "{geom:?} x{n} {h}x{w}");
        }
    }

    #[test]
    fn conv_operand_addresses_are_unique_per_input_element() {
        let geom = Conv2dGeom::new(2, 3, 3, 3, 1, 1, 1);
        let mut rng = SeededRng::new(1);
        let input = Tensor4::random(1, 2, 5, 5, &mut rng);
        let weights = Tensor4::random(3, 2, 3, 3, &mut rng);
        let op = conv_operand(&input, &weights, &geom, 0);
        let mut addrs = op.addrs.expand();
        addrs.retain(|&a| a != PAD_ADDR);
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
        let addrs = op.addrs.expand();
        let pads = addrs.iter().filter(|&&a| a == PAD_ADDR).count();
        // 16 windows * 9 taps = 144 entries; interior 4 windows have none.
        assert!(pads > 0 && pads < 144);
        // Values at pad addresses must be zero in the im2col matrix.
        for (i, &a) in addrs.iter().enumerate() {
            if a == PAD_ADDR {
                let r = i / op.inputs.cols();
                let c = i % op.inputs.cols();
                assert_eq!(op.inputs.get(r, c), 0.0);
            }
        }
    }
}
