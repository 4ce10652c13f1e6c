//! The single source of truth for every divergence threshold the
//! workspace asserts.
//!
//! The paper states each validation claim as a tolerance ("1.03 % average
//! difference at full bandwidth", "perfect match on dense executions").
//! Those numbers used to be hard-coded inside
//! `tests/analytical_divergence.rs`; they now live here so the fuzz
//! oracles ([`crate::oracle`]) and the figure-level regression tests
//! assert the *same* bands — a threshold loosened for one consumer is
//! loosened for both, visibly, in one diff.
//!
//! Constants ending in `_MAX_PCT` are upper bounds on divergence,
//! `_MIN_PCT` are lower bounds (claims that the analytical model *must*
//! underestimate), and `_CPCT` values are integer centi-percent used in
//! the machine-readable `verify_report.json`.

/// Fig. 1a: a rigid systolic array diverges from the SCALE-Sim-style
/// analytical model by at most this much on any single layer.
pub const SYSTOLIC_VS_SCALESIM_MAX_PCT: f64 = 12.0;

/// Per-tile cycle overhead of the systolic engine over the SCALE-Sim
/// closed form: two fill cycles (command + edge injection) and two drain
/// cycles. At full bandwidth the engine is *exactly*
/// `scalesim_os_cycles + SYSTOLIC_TILE_OVERHEAD_CYCLES × tiles`, which is
/// the sharpest oracle in the harness.
pub const SYSTOLIC_TILE_OVERHEAD_CYCLES: u64 = 4;

/// Fig. 1b: average |divergence| of the flexible engine from the MAERI
/// analytical model at full bandwidth, over a set of layers.
pub const MAERI_FULL_BW_AVG_MAX_PCT: f64 = 15.0;

/// Fig. 1b: a single full-bandwidth sample may diverge by at most this
/// much (the per-sample fuzz band; looser than the average band because
/// single awkward shapes fold worse than the Fig. 1 layer mix).
pub const MAERI_FULL_BW_SAMPLE_MAX_PCT: f64 = 40.0;

/// Minimum GEMM K for the per-sample MAERI band to apply. Below this the
/// fold count is so small that fixed fill/drain overheads dominate and
/// the analytical model's steady-state assumption is meaningless (K = 1
/// shapes diverge by ~90 % while K ≥ 4 shapes stay under ~25 %).
pub const MAERI_BAND_MIN_K: usize = 4;

/// Fig. 1b: at a quarter of the full bandwidth the analytical model must
/// underestimate by at least this much more than at full bandwidth.
pub const MAERI_LOW_BW_EXCESS_MIN_PCT: f64 = 30.0;

/// Fig. 1b: the worst low-bandwidth layer must exceed this divergence
/// (the paper reports up to ~400 %).
pub const MAERI_LOW_BW_WORST_MIN_PCT: f64 = 100.0;

/// Fig. 1c: average |divergence| of the sparse engine from the SIGMA
/// analytical model on dense (0 % sparsity) executions.
pub const SIGMA_DENSE_AVG_MAX_PCT: f64 = 2.0;

/// Fig. 1c: a single dense sample may diverge from the SIGMA model by at
/// most this much, *when K divides the multiplier count* so rows pack the
/// array without fragmentation (the model's stated assumption — the
/// generator only emits such shapes for dense SpMM samples, and the
/// oracle re-checks the predicate before asserting the band). On
/// clean-packing shapes the engine matches the model exactly, so this
/// band is nearly as sharp as the systolic one.
pub const SIGMA_DENSE_SAMPLE_MAX_PCT: f64 = 2.0;

/// Fig. 1c: at 90 % sparsity the analytical model must underestimate by
/// at least this much on average.
pub const SIGMA_SPARSE90_MIN_PCT: f64 = 5.0;

/// Sparse engine at 0 % sparsity vs the dense flexible engine on the same
/// multiplier count and bandwidth: the cycle counts may differ by the
/// engines' different scheduling, but stay within this factor of each
/// other in both directions.
pub const SPARSE_VS_DENSE_CYCLE_FACTOR_MAX: f64 = 4.0;

/// Converts a percentage to the integer centi-percent stored in
/// `verify_report.json` (keeps the report byte-deterministic across
/// serializers, which format floats differently).
pub fn to_cpct(pct: f64) -> i64 {
    if pct.is_infinite() {
        return if pct > 0.0 { i64::MAX } else { i64::MIN };
    }
    (pct * 100.0).round() as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpct_rounds_to_centipercent() {
        assert_eq!(to_cpct(12.345), 1235);
        assert_eq!(to_cpct(-0.004), 0);
        assert_eq!(to_cpct(f64::INFINITY), i64::MAX);
    }

    #[test]
    // Asserting relations between the constants is the whole point here.
    #[allow(clippy::assertions_on_constants)]
    fn bands_are_ordered_sanely() {
        assert!(MAERI_FULL_BW_SAMPLE_MAX_PCT >= MAERI_FULL_BW_AVG_MAX_PCT);
        assert!(SIGMA_DENSE_SAMPLE_MAX_PCT >= SIGMA_DENSE_AVG_MAX_PCT);
        assert!(MAERI_LOW_BW_WORST_MIN_PCT > MAERI_LOW_BW_EXCESS_MIN_PCT);
    }
}
