//! Layer-feature extraction and the [`CyclePredictor`] interface behind
//! the *fast-fidelity* execution mode.
//!
//! A `CyclePredictor` stands in for the cycle-level engines: instead of
//! simulating an operation cycle by cycle, the accelerator extracts a
//! [`LayerFeatures`] record (the same per-layer signature the simulation
//! cache keys on — engine kind, geometry, tile shape, sparsity-pattern
//! stats, DRAM configuration) and asks the predictor for a cycle count.
//! Functional outputs come from the engines' own functional kernels
//! (bitwise identical to an exact run), DRAM
//! stalls are re-applied outside the prediction exactly as they are
//! outside the cache, and the synthesized [`SimStats`] keep their
//! invariants (the breakdown sums to `cycles`, `engine_invocations` is
//! 0).
//!
//! The trained gradient-boosted-stumps implementation lives in the
//! `stonne-predict` crate; this module only defines the feature schema
//! and the trait so the core crate stays dependency-free. Predictions
//! are *approximations* distilled from the engine — see
//! `docs/PREDICT.md` for the error-bound contract and for when not to
//! trust fast mode.

use crate::cache::CacheKey;
use crate::config::{AcceleratorConfig, ControllerKind, Dataflow, DnKind};
use crate::engine::flexible::AddrMap;
use crate::engine::sparse::{NaturalOrder, RowSchedule};
use crate::mapping::{LayerDims, Tile};
use crate::networks::ReductionNetwork;
use crate::stats::SimStats;
use stonne_tensor::{CsrMatrix, Matrix, Tensor4};

/// Which engine the configuration would dispatch the operation to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Rigid point-to-point systolic array (TPU-like).
    Systolic,
    /// Flexible dense engine with a configurable tile (MAERI-like).
    FlexibleDense,
    /// Flexible sparse engine over a CSR stationary operand (SIGMA-like).
    Sparse,
    /// The pooling unit.
    Pool,
}

/// Per-layer feature record the predictor scores.
///
/// One record fully describes an engine invocation from the timing
/// model's point of view: it is derived from the same data as the
/// [`SimCache`](crate::cache::SimCache) key for the operation, and
/// `key_digest` *is* the 64-bit digest of that key's canonical
/// signature, so two operations with equal digests are exactly the
/// operations the cache would replay for one another.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerFeatures {
    /// Dispatched engine.
    pub engine: EngineKind,
    /// Configured multiplier count.
    pub ms_size: usize,
    /// Distribution-network bandwidth (elements/cycle).
    pub dn_bandwidth: usize,
    /// Reduction/collection bandwidth (elements/cycle).
    pub rn_bandwidth: usize,
    /// Configured dataflow.
    pub dataflow: Dataflow,
    /// GEMM rows (stationary operand rows; for pool: `n·c` planes).
    pub m: usize,
    /// GEMM columns (streamed operand columns; for pool: outputs per
    /// plane).
    pub n: usize,
    /// GEMM inner dimension (for pool: `window²`).
    pub k: usize,
    /// Exact multiply-accumulate count of the operation (comparison
    /// count for pool).
    pub macs: u64,
    /// Tile cluster size (flexible dense; PE-array edge for systolic).
    pub cluster_size: usize,
    /// Concurrent clusters (flexible dense; PE-array edge for systolic).
    pub num_clusters: usize,
    /// Mapping folds: tile iterations to cover the layer (output tiles
    /// for systolic).
    pub folds: usize,
    /// Simultaneous filters of the tile (`t_k·t_g`; flexible dense only).
    pub t_k: usize,
    /// Simultaneous output positions of the tile (`t_n·t_xp·t_yp`;
    /// flexible dense only).
    pub t_pos: usize,
    /// Output-row length the position walk chunks against (`Y'` of the
    /// layer; flexible dense only).
    pub yp: usize,
    /// Whether the dense operand's address map is the identity (plain
    /// GEMM: every streamed element a unique fetch). Convolution
    /// operands reuse overlapping inputs, which the closed-form prior
    /// cannot replay.
    pub trivial_addrs: bool,
    /// Whether the reduction network holds accumulators at its output
    /// (psums of consecutive folds avoid global-buffer round-trips).
    pub rn_accumulators: bool,
    /// Non-zeros of the stationary CSR operand (sparse only).
    pub nnz: u64,
    /// Smallest per-row non-zero count (sparse only).
    pub row_nnz_min: usize,
    /// Largest per-row non-zero count (sparse only).
    pub row_nnz_max: usize,
    /// Number of all-zero rows (sparse only).
    pub empty_rows: usize,
    /// Closed-form weight-stationary cycle count from the sparse
    /// controller's packing metadata (sparse only; 0 when the mapping
    /// takes a path the metadata mirror does not cover, e.g.
    /// activation-sparsity mode or the input-stationary GEMV path).
    pub sparse_meta_cycles: u64,
    /// Pooling window edge (pool only).
    pub window: usize,
    /// Pooling stride (pool only).
    pub stride: usize,
    /// Whether the run models DRAM (stalls are applied outside the
    /// prediction, mirroring the cache).
    pub model_dram: bool,
    /// Fixed DRAM access latency in cycles.
    pub dram_latency: u64,
    /// Aggregate DRAM bandwidth in elements per accelerator cycle.
    pub dram_elements_per_cycle: f64,
    /// 64-bit digest of the operation's canonical simulation-cache key
    /// signature. Used for deterministic train/holdout splits.
    pub key_digest: u64,
}

impl LayerFeatures {
    fn base(config: &AcceleratorConfig, engine: EngineKind, key: &CacheKey) -> Self {
        Self {
            engine,
            ms_size: config.ms_size,
            dn_bandwidth: config.dn_bandwidth,
            rn_bandwidth: config.rn_bandwidth,
            dataflow: config.dataflow,
            m: 0,
            n: 0,
            k: 0,
            macs: 0,
            cluster_size: 0,
            num_clusters: 0,
            folds: 0,
            t_k: 0,
            t_pos: 0,
            yp: 0,
            trivial_addrs: false,
            rn_accumulators: ReductionNetwork::new(
                config.rn,
                config.ms_size.max(1),
                config.rn_bandwidth.max(1),
            )
            .has_accumulators(),
            nnz: 0,
            row_nnz_min: 0,
            row_nnz_max: 0,
            empty_rows: 0,
            sparse_meta_cycles: 0,
            window: 0,
            stride: 0,
            model_dram: config.model_dram,
            dram_latency: config.dram.latency_cycles,
            dram_elements_per_cycle: config.dram.elements_per_cycle(),
            key_digest: key.digest(),
        }
    }

    /// Features of a systolic GEMM `M×K · K×N`.
    pub fn systolic(config: &AcceleratorConfig, m: usize, n: usize, k: usize) -> Self {
        let key = CacheKey::systolic(&config.to_cfg_string().into(), m, n, k);
        let pe = config.pe_dim();
        Self {
            m,
            n,
            k,
            macs: (m * n * k) as u64,
            cluster_size: pe,
            num_clusters: pe,
            folds: m.div_ceil(pe) * n.div_ceil(pe),
            ..Self::base(config, EngineKind::Systolic, &key)
        }
    }

    /// Features of a flexible-dense tiled GEMM: `layer`'s extents under the
    /// given address-map generator.
    pub fn dense(
        config: &AcceleratorConfig,
        layer: &LayerDims,
        tile: &Tile,
        addrs: &AddrMap,
    ) -> Self {
        let key = CacheKey::dense(&config.to_cfg_string().into(), layer, tile, addrs);
        let (m, k, n) = layer.gemm_extents();
        Self {
            m,
            n,
            k,
            macs: (m * n * k) as u64,
            cluster_size: tile.cluster_size(),
            num_clusters: tile.num_clusters(),
            folds: tile.folds(layer),
            t_k: tile.t_k * tile.t_g,
            t_pos: tile.t_n * tile.t_xp * tile.t_yp,
            yp: layer.yp,
            trivial_addrs: matches!(addrs, AddrMap::Unique { .. }),
            ..Self::base(config, EngineKind::FlexibleDense, &key)
        }
    }

    /// Features of a sparse `CSR (M×K) × dense (K×n)` multiplication; the
    /// streaming operand `b` is read only when the configuration exploits
    /// activation sparsity.
    pub fn spmm(
        config: &AcceleratorConfig,
        a: &CsrMatrix,
        n: usize,
        b: Option<&Matrix>,
        schedule: &dyn RowSchedule,
    ) -> Self {
        let key = CacheKey::spmm(config, &config.to_cfg_string().into(), a, n, b, schedule);
        let (mut min, mut max, mut empty) = (usize::MAX, 0usize, 0usize);
        for r in 0..a.rows() {
            let nnz = a.row_nnz(r);
            min = min.min(nnz);
            max = max.max(nnz);
            if nnz == 0 {
                empty += 1;
            }
        }
        Self {
            m: a.rows(),
            n,
            k: a.cols(),
            macs: a.nnz() as u64 * n as u64,
            nnz: a.nnz() as u64,
            row_nnz_min: if a.rows() == 0 { 0 } else { min },
            row_nnz_max: max,
            empty_rows: empty,
            sparse_meta_cycles: crate::engine::sparse::ws_metadata_cycles(config, a, n, schedule)
                .unwrap_or(0),
            ..Self::base(config, EngineKind::Sparse, &key)
        }
    }

    /// Features of a max-pool layer over an `(n, c, h, w)` input.
    pub fn pool(
        config: &AcceleratorConfig,
        shape: (usize, usize, usize, usize),
        window: usize,
        stride: usize,
    ) -> Self {
        let key = CacheKey::pool(&config.to_cfg_string().into(), shape, window, stride);
        let (n, c, h, w) = shape;
        let oh = (h - window) / stride + 1;
        let ow = (w - window) / stride + 1;
        let planes = n * c;
        Self {
            m: planes,
            n: oh * ow,
            k: window * window,
            macs: (planes * oh * ow * window * window) as u64,
            window,
            stride,
            ..Self::base(config, EngineKind::Pool, &key)
        }
    }
}

/// Features of a dense GEMM as `Stonne::run_gemm` would dispatch it —
/// the trainer-side mirror of the accelerator's fast path, guaranteed to
/// produce the same record (same engine selection, same auto tile, same
/// key digest) for the same configuration and operands.
pub fn gemm_features(config: &AcceleratorConfig, a: &Matrix, b: &Matrix) -> LayerFeatures {
    if config.controller == ControllerKind::Sparse {
        let csr = CsrMatrix::from_dense(a);
        return LayerFeatures::spmm(config, &csr, b.cols(), Some(b), &NaturalOrder);
    }
    if config.dn == DnKind::PointToPoint {
        return LayerFeatures::systolic(config, a.rows(), b.cols(), a.cols());
    }
    let layer = LayerDims::from_gemm(a.rows(), b.cols(), a.cols());
    let tile = Tile::auto_bw(&layer, config.ms_size, config.dn_bandwidth);
    let addrs = AddrMap::Unique { len: b.len() };
    LayerFeatures::dense(config, &layer, &tile, &addrs)
}

/// Features of a sparse multiplication with the default (natural) filter
/// schedule, as `Stonne::run_spmm` would dispatch it on a sparse
/// controller.
pub fn spmm_features(config: &AcceleratorConfig, a: &CsrMatrix, b: &Matrix) -> LayerFeatures {
    LayerFeatures::spmm(config, a, b.cols(), Some(b), &NaturalOrder)
}

/// Features of a max-pool layer, as `Stonne::run_maxpool` would extract
/// them.
pub fn pool_features(
    config: &AcceleratorConfig,
    input: &Tensor4,
    window: usize,
    stride: usize,
) -> LayerFeatures {
    LayerFeatures::pool(config, input.shape(), window, stride)
}

/// A per-layer cycle predictor the accelerator can run instead of the
/// cycle-level engines (fast fidelity).
///
/// Implementations must be deterministic: equal features must yield
/// equal predictions, on every platform.
///
/// ```
/// use std::sync::Arc;
/// use stonne_core::predict::{CyclePredictor, LayerFeatures};
/// use stonne_core::{AcceleratorConfig, Stonne};
/// use stonne_tensor::{Matrix, SeededRng};
///
/// /// Pretends every operation needs one cycle per 4 MACs.
/// #[derive(Debug)]
/// struct Flat;
/// impl CyclePredictor for Flat {
///     fn predict_cycles(&self, f: &LayerFeatures) -> u64 {
///         f.macs / 4 + 10
///     }
/// }
///
/// let mut rng = SeededRng::new(0);
/// let a = Matrix::random(8, 16, &mut rng);
/// let b = Matrix::random(16, 4, &mut rng);
/// let mut sim = Stonne::new(AcceleratorConfig::maeri_like(64, 16))
///     .unwrap()
///     .with_predictor(Arc::new(Flat));
/// let (out, stats) = sim.run_gemm("fast", &a, &b);
/// assert_eq!((out.rows(), out.cols()), (8, 4));
/// assert_eq!(stats.engine_invocations, 0);
/// assert_eq!(stats.cycles, 8 * 16 * 4 / 4 + 10);
/// ```
pub trait CyclePredictor: Send + Sync + std::fmt::Debug {
    /// Predicted pre-DRAM cycle count for the operation described by
    /// `features`.
    fn predict_cycles(&self, features: &LayerFeatures) -> u64;
}

/// Synthesizes the stats record for a predicted operation: the predicted
/// cycles all land in the steady phase (so the breakdown still sums to
/// `cycles`), the multiplication counter carries the exact MAC count,
/// and `engine_invocations` stays 0. DRAM stalls are layered on by the
/// caller's `record`, exactly as for a cache hit.
pub(crate) fn predicted_stats(
    config: &AcceleratorConfig,
    name: &str,
    predicted_cycles: u64,
    macs: u64,
) -> SimStats {
    let cycles = predicted_cycles.max(1);
    let mut stats = SimStats {
        accelerator: config.name.clone(),
        operation: name.to_owned(),
        cycles,
        compute_cycles: cycles,
        ms_busy_cycles: macs.min(cycles.saturating_mul(config.ms_size as u64)),
        ms_size: config.ms_size,
        iterations: 1,
        ..SimStats::default()
    };
    stats.counters.multiplications = macs;
    stats.breakdown.steady_cycles = cycles;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use stonne_tensor::SeededRng;

    #[test]
    fn gemm_features_follow_the_dispatch_rules() {
        let mut rng = SeededRng::new(1);
        let a = Matrix::random(10, 20, &mut rng);
        let b = Matrix::random(20, 6, &mut rng);
        let f = gemm_features(&AcceleratorConfig::tpu_like(8), &a, &b);
        assert_eq!(f.engine, EngineKind::Systolic);
        assert_eq!((f.m, f.n, f.k), (10, 6, 20));
        assert_eq!(f.macs, 10 * 6 * 20);
        assert_eq!(f.folds, 2); // ceil(10/8) * ceil(6/8)
        let f = gemm_features(&AcceleratorConfig::maeri_like(64, 16), &a, &b);
        assert_eq!(f.engine, EngineKind::FlexibleDense);
        assert!(f.cluster_size > 0 && f.folds > 0);
        let f = gemm_features(&AcceleratorConfig::sigma_like(64, 64), &a, &b);
        assert_eq!(f.engine, EngineKind::Sparse);
        assert_eq!(f.nnz, 200, "random operand is fully dense");
        assert_eq!(f.row_nnz_min, 20);
        assert_eq!(f.row_nnz_max, 20);
        assert_eq!(f.empty_rows, 0);
    }

    #[test]
    fn key_digest_separates_shapes_and_configs() {
        let mut rng = SeededRng::new(2);
        let a = Matrix::random(8, 16, &mut rng);
        let b = Matrix::random(16, 4, &mut rng);
        let c = Matrix::random(16, 5, &mut rng);
        let cfg = AcceleratorConfig::maeri_like(64, 16);
        let f1 = gemm_features(&cfg, &a, &b);
        let f2 = gemm_features(&cfg, &a, &c);
        let f3 = gemm_features(&AcceleratorConfig::maeri_like(128, 32), &a, &b);
        assert_ne!(f1.key_digest, f2.key_digest);
        assert_ne!(f1.key_digest, f3.key_digest);
        // Same shape, same config, fresh values: the digest (like the
        // cache key) depends only on the timing-relevant signature.
        let mut rng2 = SeededRng::new(99);
        let a2 = Matrix::random(8, 16, &mut rng2);
        let b2 = Matrix::random(16, 4, &mut rng2);
        assert_eq!(f1.key_digest, gemm_features(&cfg, &a2, &b2).key_digest);
    }

    #[test]
    fn sparse_features_capture_the_pattern() {
        let mut rng = SeededRng::new(3);
        let mut a = Matrix::random(8, 8, &mut rng);
        for c in 0..8 {
            a.set(3, c, 0.0); // one empty row
        }
        let b = Matrix::random(8, 4, &mut rng);
        let csr = CsrMatrix::from_dense(&a);
        let f = spmm_features(&AcceleratorConfig::sigma_like(64, 64), &csr, &b);
        assert_eq!(f.empty_rows, 1);
        assert_eq!(f.row_nnz_min, 0);
        assert_eq!(f.row_nnz_max, 8);
        assert_eq!(f.nnz, 56);
        assert_eq!(f.macs, 56 * 4);
    }

    #[test]
    fn pool_features_describe_the_windows() {
        let mut rng = SeededRng::new(4);
        let input = Tensor4::random(1, 2, 6, 6, &mut rng);
        let f = pool_features(&AcceleratorConfig::maeri_like(64, 16), &input, 2, 2);
        assert_eq!(f.engine, EngineKind::Pool);
        assert_eq!((f.m, f.n, f.k), (2, 9, 4));
        assert_eq!((f.window, f.stride), (2, 2));
    }

    #[test]
    fn predicted_stats_keep_the_invariants() {
        let cfg = AcceleratorConfig::maeri_like(64, 16);
        let s = predicted_stats(&cfg, "op", 120, 4096);
        assert_eq!(s.cycles, 120);
        assert_eq!(s.breakdown.total(), s.cycles);
        assert_eq!(s.engine_invocations, 0);
        assert_eq!(s.counters.multiplications, 4096);
        assert!(s.ms_utilization() <= 1.0);
        // A degenerate zero prediction is clamped to one cycle.
        assert_eq!(predicted_stats(&cfg, "op", 0, 0).cycles, 1);
    }
}
