//! Unstructured magnitude pruning.
//!
//! Table I of the paper reports 60–90 % weight sparsity "after applying an
//! unstructured weight pruning approach similar to that described by Zhu
//! et al."; this module reproduces that: the smallest-magnitude weights are
//! zeroed until the target sparsity is reached, globally per tensor.

use crate::{Elem, Matrix, Tensor4};

/// Prunes a flat buffer in place to the target sparsity (fraction of zeros).
///
/// Returns the achieved sparsity (which can exceed the target when the
/// buffer already holds zeros).
///
/// # Panics
///
/// Panics if `target` is not in `[0, 1]`.
pub fn prune_to_sparsity(data: &mut [Elem], target: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&target),
        "target sparsity must be in [0,1]"
    );
    if data.is_empty() {
        return 0.0;
    }
    let want_zeros = (data.len() as f64 * target).round() as usize;
    let mut zeros = data.iter().filter(|v| **v == 0.0).count();
    if zeros < want_zeros {
        let to_drop = want_zeros - zeros;
        let mut mags: Vec<Elem> = data
            .iter()
            .filter(|v| **v != 0.0)
            .map(|v| v.abs())
            .collect();
        // The largest magnitude still dropped is the `to_drop`-th smallest.
        // A linear-time selection finds the same value a full sort would,
        // and `total_cmp` orders a NaN weight last instead of panicking.
        let threshold = *mags.select_nth_unstable_by(to_drop - 1, Elem::total_cmp).1;
        // Ties at the threshold are dropped in scan order.
        let mut dropped = 0;
        for v in data.iter_mut() {
            if dropped == to_drop {
                break;
            }
            if *v != 0.0 && v.abs() <= threshold {
                *v = 0.0;
                dropped += 1;
            }
        }
        zeros += dropped;
    }
    zeros as f64 / data.len() as f64
}

/// Prunes a [`Matrix`] in place to the target sparsity; returns the achieved
/// sparsity.
pub fn prune_matrix_to_sparsity(m: &mut Matrix, target: f64) -> f64 {
    prune_to_sparsity(m.as_mut_slice(), target)
}

/// Prunes a [`Tensor4`] in place to the target sparsity; returns the
/// achieved sparsity.
pub fn prune_tensor_to_sparsity(t: &mut Tensor4, target: f64) -> f64 {
    prune_to_sparsity(t.as_mut_slice(), target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeededRng;

    #[test]
    fn prune_reaches_target() {
        let mut rng = SeededRng::new(10);
        let mut m = Matrix::random(40, 40, &mut rng);
        let achieved = prune_matrix_to_sparsity(&mut m, 0.75);
        assert!((achieved - 0.75).abs() < 0.01, "achieved {achieved}");
        assert!((m.sparsity() - 0.75).abs() < 0.01);
    }

    #[test]
    fn prune_drops_smallest_magnitudes() {
        let mut data = vec![0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7, -0.8, 0.9, -1.0];
        prune_to_sparsity(&mut data, 0.5);
        assert_eq!(&data[..5], &[0.0; 5]);
        assert_eq!(&data[5..], &[-0.6, 0.7, -0.8, 0.9, -1.0]);
    }

    #[test]
    fn prune_zero_target_is_noop() {
        let mut data = vec![1.0, 2.0, 3.0];
        let achieved = prune_to_sparsity(&mut data, 0.0);
        assert_eq!(achieved, 0.0);
        assert_eq!(data, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn prune_full_target_zeros_everything() {
        let mut data = vec![1.0, -2.0, 3.0];
        let achieved = prune_to_sparsity(&mut data, 1.0);
        assert_eq!(achieved, 1.0);
        assert!(data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn prune_respects_existing_zeros() {
        let mut data = vec![0.0, 0.0, 1.0, 2.0];
        let achieved = prune_to_sparsity(&mut data, 0.5);
        assert_eq!(achieved, 0.5);
        // The non-zero values survived.
        assert_eq!(&data[2..], &[1.0, 2.0]);
    }

    #[test]
    fn prune_already_sparser_than_target() {
        let mut data = vec![0.0, 0.0, 0.0, 5.0];
        let achieved = prune_to_sparsity(&mut data, 0.5);
        assert_eq!(achieved, 0.75);
        assert_eq!(data[3], 5.0);
    }

    #[test]
    fn prune_empty_buffer() {
        let mut data: Vec<f32> = vec![];
        assert_eq!(prune_to_sparsity(&mut data, 0.5), 0.0);
    }

    /// The routine this module shipped before selection replaced the
    /// sort: same threshold by definition, same scan-order drop loop.
    fn prune_by_sorting(data: &mut [Elem], target: f64) -> f64 {
        let want_zeros = (data.len() as f64 * target).round() as usize;
        let current_zeros = data.iter().filter(|v| **v == 0.0).count();
        if current_zeros < want_zeros {
            let mut mags: Vec<Elem> = data
                .iter()
                .filter(|v| **v != 0.0)
                .map(|v| v.abs())
                .collect();
            let to_drop = want_zeros - current_zeros;
            mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let threshold = mags[to_drop - 1];
            let mut dropped = 0;
            for v in data.iter_mut() {
                if *v != 0.0 && v.abs() <= threshold && dropped < to_drop {
                    *v = 0.0;
                    dropped += 1;
                }
            }
        }
        data.iter().filter(|v| **v == 0.0).count() as f64 / data.len() as f64
    }

    fn assert_matches_sort_reference(data: &[Elem], target: f64) {
        let (mut selected, mut sorted) = (data.to_vec(), data.to_vec());
        let achieved = prune_to_sparsity(&mut selected, target);
        let expected = prune_by_sorting(&mut sorted, target);
        assert_eq!(achieved.to_bits(), expected.to_bits(), "target {target}");
        let bits = |v: &[Elem]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&selected), bits(&sorted), "target {target}");
    }

    #[test]
    fn selection_equals_the_sort_reference_bitwise() {
        for seed in 0..4 {
            let mut rng = SeededRng::new(100 + seed);
            let random = Matrix::random(37, 53, &mut rng).as_slice().to_vec();
            let n = random.len();
            // Few distinct magnitudes of both signs: ties at every threshold.
            let tied: Vec<Elem> = random
                .iter()
                .map(|v| (v * 4.0).round() / 4.0 + 0.125)
                .collect();
            // A third of the buffer is zero (or negative zero) already.
            let mut holed = random.clone();
            for (i, v) in holed.iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
            let nnz = holed.iter().filter(|v| **v != 0.0).count();
            let all_equal: Vec<Elem> = (0..n)
                .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
                .collect();
            for data in [&random, &tied, &holed, &all_equal] {
                for target in [0.0, 0.1, 0.5, 0.8, 0.999, 1.0] {
                    assert_matches_sort_reference(data, target);
                }
                // to_drop == 1 on a buffer without zeros.
                assert_matches_sort_reference(data, 1.0 / n as f64);
            }
            // to_drop == 1 and to_drop == nnz with zeros already present.
            assert_matches_sort_reference(&holed, (n - nnz + 1) as f64 / n as f64);
            assert_matches_sort_reference(&holed, 1.0);
        }
    }

    #[test]
    fn nan_weight_does_not_panic() {
        let mut data = vec![0.3, Elem::NAN, -0.1, 0.2];
        // NaN orders as the largest magnitude, so it is the last to go.
        assert_eq!(prune_to_sparsity(&mut data, 0.5), 0.5);
        assert_eq!(data[0], 0.3);
        assert!(data[1].is_nan());
        assert_eq!(&data[2..], &[0.0, 0.0]);
    }

    #[test]
    fn prune_tensor_variant() {
        let mut rng = SeededRng::new(12);
        let mut t = Tensor4::random(2, 4, 8, 8, &mut rng);
        let achieved = prune_tensor_to_sparsity(&mut t, 0.9);
        assert!((achieved - 0.9).abs() < 0.01);
    }
}
