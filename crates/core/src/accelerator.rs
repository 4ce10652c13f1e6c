//! The top-level simulated accelerator: dispatches operations onto the
//! engine selected by the configuration's building blocks.

use crate::cache::{CacheEntry, CacheKey, SimCache};
use crate::config::{AcceleratorConfig, ConfigError, ControllerKind, DnKind};
use crate::context::SimContext;
use crate::engine::flexible::{self, AddrMap};
use crate::engine::sparse::{self, IterationInfo, NaturalOrder, RowSchedule, SparseRun};
use crate::engine::{pool, systolic};
use crate::mapping::{LayerDims, Tile};
use crate::stats::SimStats;
use crate::trace::{Component, Probe};
use std::sync::Arc;
use stonne_tensor::{
    col2im_output, im2col_matrix, weights_matrix, Conv2dGeom, CsrMatrix, Matrix, Tensor4,
};

/// A layer's accounting record — everything an engine invocation yields
/// besides the output, and what a cache entry memoizes: the statistics
/// and the sparse packing info.
type Accounting = (SimStats, Vec<IterationInfo>);

/// The record of an engine without packing info.
fn plain(stats: SimStats) -> Accounting {
    (stats, Vec::new())
}

/// A simulated DNN inference accelerator instance.
///
/// Created from an [`AcceleratorConfig`], it accepts the coarse-grained
/// operations of the STONNE API (convolution, linear, dense/sparse matrix
/// multiplication, max pooling), runs them cycle-by-cycle on the composed
/// engine, and returns both the functional output and the [`SimStats`].
///
/// ```
/// use stonne_core::{AcceleratorConfig, Stonne};
/// use stonne_tensor::{Matrix, SeededRng};
///
/// # fn main() -> Result<(), stonne_core::ConfigError> {
/// let mut rng = SeededRng::new(0);
/// let a = Matrix::random(8, 16, &mut rng);
/// let b = Matrix::random(16, 4, &mut rng);
/// let mut sim = Stonne::new(AcceleratorConfig::maeri_like(64, 16))?;
/// let (out, stats) = sim.run_gemm("demo", &a, &b);
/// assert_eq!((out.rows(), out.cols()), (8, 4));
/// assert!(stats.cycles > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Stonne {
    config: AcceleratorConfig,
    /// `config.to_cfg_string()`, formatted once and shared into every
    /// cache key this instance builds.
    cfg: Arc<str>,
    history: Vec<SimStats>,
    cache: Option<SimCache>,
    intra_workers: usize,
    context: SimContext,
}

impl Stonne {
    /// Creates an accelerator instance, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the building blocks are incompatible.
    pub fn new(config: AcceleratorConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Self {
            cfg: config.to_cfg_string().into(),
            config,
            history: Vec::new(),
            cache: None,
            intra_workers: 1,
            context: SimContext::new(),
        })
    }

    /// Threads a shared [`SimContext`] through the instance: engine
    /// invocations reuse its pooled scratch buffers, and the flexible
    /// engine follows its class-collapse switch. Clone one context across
    /// the instances of a worker (or a whole sweep) so the grown buffers
    /// survive instance teardown; no timing result travels with it. A
    /// fresh instance gets its own context — results are
    /// bitwise-identical either way.
    #[must_use]
    pub fn with_context(mut self, context: SimContext) -> Self {
        self.context = context;
        self
    }

    /// The simulation context threaded through engine invocations.
    pub fn context(&self) -> &SimContext {
        &self.context
    }

    /// Fans the flexible dense engine's output pass across up to
    /// `workers` OS threads. Filter chunks write disjoint output-row
    /// blocks and the accounting walk stays on the calling thread, so
    /// results are bitwise identical to the serial run — this is a
    /// host-side speed knob, not a simulated-hardware parameter (it does
    /// not enter cache keys). `workers <= 1` keeps the serial path.
    #[must_use]
    pub fn with_intra_tiles(mut self, workers: usize) -> Self {
        self.intra_workers = workers.max(1);
        self
    }

    /// Attaches a [`SimCache`]: engine invocations whose canonical key is
    /// already memoized reuse the memoized statistics instead of walking
    /// the engine again (the output is computed by the same functional
    /// kernel either way, so both are bitwise identical). The cache is
    /// shared — clone one handle across instances to share results
    /// between them.
    #[must_use]
    pub fn with_cache(mut self, cache: SimCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached simulation cache, if any.
    pub fn sim_cache(&self) -> Option<&SimCache> {
        self.cache.as_ref()
    }

    /// The active configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Statistics of every operation run so far, in order.
    pub fn history(&self) -> &[SimStats] {
        &self.history
    }

    /// Aggregated statistics across the whole history.
    pub fn aggregate_stats(&self) -> SimStats {
        let mut total = SimStats {
            operation: "aggregate".to_owned(),
            ms_size: self.config.ms_size,
            ..SimStats::default()
        };
        for s in &self.history {
            total.merge(s);
        }
        total
    }

    fn record(&mut self, mut stats: SimStats, operand_elems: u64, output_elems: u64) -> SimStats {
        if self.config.model_dram {
            self.apply_dram(&mut stats, operand_elems, output_elems);
        }
        // Shift the trace timeline so the next operation's spans start
        // where this one ended (no-op when tracing is off).
        crate::trace::advance(stats.cycles);
        self.history.push(stats.clone());
        stats
    }

    /// Folds DRAM traffic into the stats: double-buffered prefetch hides
    /// fetches that fit under the compute time; the remainder stalls.
    fn apply_dram(&self, stats: &mut SimStats, operand_elems: u64, output_elems: u64) {
        let per_cycle = self.config.dram.elements_per_cycle();
        // Degenerate DRAM configs report 0 elements/cycle; dividing by that
        // would saturate the cast to u64::MAX. Treat the transfer as free
        // (only latency remains), matching `DramModel::transfer_cycles`.
        let transfer = if operand_elems == 0 || per_cycle <= 0.0 {
            0
        } else {
            (operand_elems as f64 / per_cycle).ceil() as u64
        };
        let fetch_cycles = transfer + self.config.dram.latency_cycles;
        let compute = stats.cycles;
        let stall = fetch_cycles.saturating_sub(compute);
        let dram = Probe::new(Component::Dram);
        dram.span("fetch", 0, fetch_cycles.min(compute));
        if stall > 0 {
            dram.span("stall", compute, compute + stall);
        }
        stats.cycles += stall;
        stats.dram_stall_cycles += stall;
        stats.breakdown.dram_stall_cycles += stall;
        stats.counters.dram_reads += operand_elems;
        stats.counters.dram_writes += output_elems;
    }

    /// Resolves a layer's accounting record — the one place that decides
    /// whether the cycle-level walk runs: without a cache it always runs,
    /// a cache hit on `key` reuses the memoized record, and a miss runs
    /// `walk` and memoizes the result. The output is not this function's
    /// business: every caller computes it by the engine's `functional`
    /// half, so all three outcomes yield the same bits.
    fn accounting(
        &self,
        name: &str,
        key: impl FnOnce() -> CacheKey,
        walk: impl FnOnce() -> Accounting,
    ) -> Accounting {
        // The key of the entry to insert after a miss (`None`: no cache).
        let miss = match &self.cache {
            None => None,
            Some(cache) => {
                let key = key();
                if let Some(entry) = cache.get(&key) {
                    let stats = entry.stats_for(name);
                    Probe::new(Component::Controller).span("cache-hit", 0, stats.cycles);
                    return (stats, entry.iterations().to_vec());
                }
                Some((cache, key))
            }
        };
        let (mut stats, iterations) = walk();
        stats.engine_invocations = 1;
        if let Some((cache, key)) = miss {
            stats.sim_cache_misses = 1;
            stats.sim_cache_inserts = 1;
            cache.insert(key, CacheEntry::new(name, &stats, &iterations));
        }
        (stats, iterations)
    }

    /// One systolic-engine layer's record (pre-DRAM stats).
    fn systolic_layer(&self, name: &str, m: usize, n: usize, k: usize) -> SimStats {
        let record = self.accounting(
            name,
            || CacheKey::systolic(&self.cfg, m, n, k),
            || plain(systolic::accounting(&self.config, name, m, n, k)),
        );
        record.0
    }

    /// One flexible-dense-engine layer's record (pre-DRAM stats).
    fn dense_layer(&self, name: &str, layer: &LayerDims, tile: &Tile, addrs: &AddrMap) -> SimStats {
        let (config, sim) = (&self.config, &self.context);
        let record = self.accounting(
            name,
            || CacheKey::dense(&self.cfg, layer, tile, addrs),
            || plain(flexible::accounting(config, name, layer, tile, addrs, sim)),
        );
        record.0
    }

    /// One sparse-engine layer over `n` streaming columns: its record
    /// (pre-DRAM stats), the mapper's dataflow choice and — when the
    /// streaming operand `b` is given — the output.
    fn spmm_layer(
        &self,
        name: &str,
        a: &CsrMatrix,
        n: usize,
        b: Option<&Matrix>,
        schedule: &dyn RowSchedule,
    ) -> (Accounting, bool, Option<Matrix>) {
        let config = &self.config;
        let plan = sparse::Plan::new(config, a, n, schedule);
        let record = self.accounting(
            name,
            || CacheKey::spmm(config, &self.cfg, a, n, b, schedule),
            || sparse::accounting(config, name, &plan, n, b),
        );
        let output = b.map(|b| sparse::functional(&plan, b));
        (record, plan.input_stationary(), output)
    }

    /// One GEMM `C = A (M×K) × B (K×N)` — plain, or a convolution group's
    /// lowering (`layer` and `addrs` say which) — on the engine the
    /// configuration selects: point-to-point dense runs systolic, tree/Benes
    /// dense the flexible engine (`tile`, or an auto-derived one), a sparse
    /// controller compresses `a` on the fly (the one case whose timing reads
    /// `a`). Accounted and recorded either way (`streamed` = DRAM elements
    /// fetched for `B`); `C` is computed only when `b` is given.
    #[allow(clippy::too_many_arguments)]
    fn lowered_gemm(
        &mut self,
        name: &str,
        layer: &LayerDims,
        addrs: &AddrMap,
        tile: Option<Tile>,
        a: Option<&Matrix>,
        b: Option<&Matrix>,
        streamed: usize,
        schedule: &dyn RowSchedule,
    ) -> (Option<Matrix>, SimStats) {
        let (m, k, n) = layer.gemm_extents();
        if let Some((a, b)) = a.zip(b) {
            assert_eq!((a.rows(), a.cols()), (m, k), "GEMM operand shape mismatch");
            assert_eq!(
                (b.rows(), b.cols()),
                (k, n),
                "GEMM inner dimension mismatch"
            );
        }
        let (fetched, stats, out) = match (self.config.controller, self.config.dn) {
            (ControllerKind::Sparse, _) => {
                let a = a.expect("sparse timing reads the stationary operand's zero pattern");
                let csr = CsrMatrix::from_dense(a);
                let ((stats, _), _, out) = self.spmm_layer(name, &csr, n, b, schedule);
                (csr.storage_elements() + streamed, stats, out)
            }
            (ControllerKind::Dense, DnKind::PointToPoint) => {
                let out = a.zip(b).map(|(a, b)| systolic::functional(a, b));
                (m * k + k * n, self.systolic_layer(name, m, n, k), out)
            }
            (ControllerKind::Dense, _) => {
                let (ms, bw) = (self.config.ms_size, self.config.dn_bandwidth);
                let tile = tile.unwrap_or_else(|| Tile::auto_bw(layer, ms, bw));
                let (config, workers) = (&self.config, self.intra_workers);
                let compute = |(a, b)| flexible::functional(config, &tile, a, b, workers);
                let stats = self.dense_layer(name, layer, &tile, addrs);
                (m * k + streamed, stats, a.zip(b).map(compute))
            }
        };
        (out, self.record(stats, fetched as u64, (m * n) as u64))
    }

    /// A plain GEMM from its `(m, k, n)` extents (see [`Stonne::lowered_gemm`]).
    fn gemm(
        &mut self,
        name: &str,
        (m, k, n): (usize, usize, usize),
        a: Option<&Matrix>,
        b: Option<&Matrix>,
        tile: Option<Tile>,
        schedule: &dyn RowSchedule,
    ) -> (Option<Matrix>, SimStats) {
        let layer = LayerDims::from_gemm(m, n, k);
        let addrs = AddrMap::Unique { len: k * n };
        self.lowered_gemm(name, &layer, &addrs, tile, a, b, k * n, schedule)
    }

    /// Times a GEMM `C = A (M×K) × B (K×N)` from its `(m, k, n)` extents:
    /// everything [`Stonne::run_gemm_scheduled`] does — engine selection,
    /// layer cache, DRAM, history — except computing `C`. A sparse
    /// controller needs `a` (the stationary weights' zero pattern); dense
    /// controllers never look at it.
    ///
    /// # Panics
    ///
    /// Panics on a sparse controller without `a`, or one that exploits
    /// activation sparsity (timing then reads `B`'s values: use `run_*`).
    pub fn time_gemm(
        &mut self,
        name: &str,
        extents: (usize, usize, usize),
        a: Option<&Matrix>,
        schedule: &dyn RowSchedule,
    ) -> SimStats {
        self.gemm(name, extents, a, None, None, schedule).1
    }

    /// Runs a dense GEMM `C = A (M×K) × B (K×N)`.
    ///
    /// The engine is selected by the configured controller and DN: a
    /// point-to-point dense composition runs systolic; tree/Benes dense
    /// compositions run the flexible engine with an auto-derived tile; a
    /// sparse controller compresses `A` on the fly (exploiting any zeros).
    pub fn run_gemm(&mut self, name: &str, a: &Matrix, b: &Matrix) -> (Matrix, SimStats) {
        self.run_gemm_scheduled(name, a, b, &NaturalOrder)
    }

    /// Runs a dense GEMM with an explicit filter schedule (only effective
    /// on sparse-controller configurations; dense engines map rows
    /// statically).
    pub fn run_gemm_scheduled(
        &mut self,
        name: &str,
        a: &Matrix,
        b: &Matrix,
        schedule: &dyn RowSchedule,
    ) -> (Matrix, SimStats) {
        let extents = (a.rows(), a.cols(), b.cols());
        let (out, stats) = self.gemm(name, extents, Some(a), Some(b), None, schedule);
        (out.expect("operands given"), stats)
    }

    /// Explores the tile mapping space for a GEMM by *simulating* every
    /// candidate of [`crate::mapping::candidate_tiles`] and returning the
    /// fastest tile with its cycle count — the mRNA-style design-space
    /// exploration the paper positions cycle-level simulation for
    /// (analytical models mis-rank mappings whose delivery conflicts they
    /// cannot see).
    ///
    /// Exploration runs do not enter the instance history and compute no
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if the operands' inner dimensions disagree.
    pub fn search_best_tile(&self, a: &Matrix, b: &Matrix) -> (Tile, u64) {
        assert_eq!(a.cols(), b.rows(), "GEMM inner dimension mismatch");
        let mkn = (a.rows(), a.cols(), b.cols());
        let layer = LayerDims::from_gemm(a.rows(), b.cols(), a.cols());
        // Only activation-sparsity timing reads the streaming operand.
        let b = self.config.exploit_activation_sparsity.then_some(b);
        let mut best: Option<(Tile, u64)> = None;
        // Exploration runs are suspended from the trace timeline: only the
        // mapping the caller ultimately commits to should appear in it.
        crate::trace::suspended(|| {
            for tile in crate::mapping::candidate_tiles(&layer, self.config.ms_size) {
                let mut probe = Stonne {
                    config: self.config.clone(),
                    cfg: Arc::clone(&self.cfg),
                    history: Vec::new(),
                    // Exploration probes bypass the cache: candidate tiles
                    // are evaluated once and must not pollute the store.
                    cache: None,
                    intra_workers: self.intra_workers,
                    // Candidates reuse this instance's scratch buffers.
                    context: self.context.clone(),
                };
                let order = &NaturalOrder;
                let (_, stats) = probe.gemm("tile-search", mkn, Some(a), b, Some(tile), order);
                if best.as_ref().is_none_or(|(_, c)| stats.cycles < *c) {
                    best = Some((tile, stats.cycles));
                }
            }
        });
        best.expect("candidate_tiles is never empty")
    }

    /// Runs a dense GEMM with an explicit tile (flexible compositions).
    ///
    /// # Panics
    ///
    /// Panics if the tile does not fit the layer/array.
    pub fn run_gemm_tiled(
        &mut self,
        name: &str,
        a: &Matrix,
        b: &Matrix,
        tile: &Tile,
    ) -> (Matrix, SimStats) {
        let extents = (a.rows(), a.cols(), b.cols());
        let (out, stats) = self.gemm(name, extents, Some(a), Some(b), Some(*tile), &NaturalOrder);
        (out.expect("operands given"), stats)
    }

    /// Runs a sparse matrix multiplication `C = A_csr × B` with the
    /// default (natural) filter order.
    pub fn run_spmm(&mut self, name: &str, a: &CsrMatrix, b: &Matrix) -> (Matrix, SimStats) {
        let run = self.run_spmm_scheduled(name, a, b, &NaturalOrder);
        (run.output, run.stats)
    }

    /// Runs a sparse matrix multiplication with an explicit filter
    /// schedule, returning the full [`SparseRun`] (packing info included).
    ///
    /// On dense-controller configurations the operand is densified first
    /// (a dense engine cannot skip zeros).
    pub fn run_spmm_scheduled(
        &mut self,
        name: &str,
        a: &CsrMatrix,
        b: &Matrix,
        schedule: &dyn RowSchedule,
    ) -> SparseRun {
        match self.config.controller {
            ControllerKind::Sparse => {
                let ((stats, iterations), input_stationary, output) =
                    self.spmm_layer(name, a, b.cols(), Some(b), schedule);
                let operand_elems = (a.storage_elements() + b.len()) as u64;
                let out_elems = (a.rows() * b.cols()) as u64;
                SparseRun {
                    output: output.expect("operand given"),
                    stats: self.record(stats, operand_elems, out_elems),
                    iterations,
                    input_stationary,
                }
            }
            ControllerKind::Dense => {
                let dense = a.to_dense();
                let (output, stats) = self.run_gemm(name, &dense, b);
                SparseRun {
                    output,
                    stats,
                    iterations: Vec::new(),
                    input_stationary: false,
                }
            }
        }
    }

    /// Times a (possibly grouped) convolution over an `(n, c, h, w)` input:
    /// everything [`Stonne::run_conv_scheduled`] does except computing the
    /// output — no im2col, no activation buffer. Only a sparse controller
    /// reads the weights (their zero pattern drives the mapping).
    ///
    /// # Panics
    ///
    /// Panics if `shape` disagrees with `geom`, or on a sparse controller
    /// that exploits activation sparsity (use `run_*`).
    pub fn time_conv(
        &mut self,
        name: &str,
        shape: (usize, usize, usize, usize),
        weights: &Tensor4,
        geom: &Conv2dGeom,
        tile: Option<Tile>,
        schedule: &dyn RowSchedule,
    ) -> SimStats {
        self.conv(name, shape, None, weights, geom, tile, schedule)
            .1
    }

    /// Runs a (possibly grouped) convolution.
    ///
    /// Each group lowers to a GEMM via im2col; the flexible engine
    /// additionally receives the Global-Buffer address map so overlapping
    /// windows multicast. The optional `tile` pins the mapping; otherwise
    /// the mapper derives one per group.
    ///
    /// # Panics
    ///
    /// Panics if tensor shapes disagree with `geom`.
    pub fn run_conv(
        &mut self,
        name: &str,
        input: &Tensor4,
        weights: &Tensor4,
        geom: &Conv2dGeom,
        tile: Option<Tile>,
    ) -> (Tensor4, SimStats) {
        self.run_conv_scheduled(name, input, weights, geom, tile, &NaturalOrder)
    }

    /// Runs a convolution with an explicit filter schedule (only effective
    /// on sparse-controller configurations).
    ///
    /// # Panics
    ///
    /// Panics if tensor shapes disagree with `geom`.
    pub fn run_conv_scheduled(
        &mut self,
        name: &str,
        input: &Tensor4,
        weights: &Tensor4,
        geom: &Conv2dGeom,
        tile: Option<Tile>,
        schedule: &dyn RowSchedule,
    ) -> (Tensor4, SimStats) {
        let shape = input.shape();
        let (out, stats) = self.conv(name, shape, Some(input), weights, geom, tile, schedule);
        (out.expect("operands given"), stats)
    }

    /// A convolution lowered group by group from the input's shape and the
    /// weights; the output is computed only when `input` is given.
    #[allow(clippy::too_many_arguments)]
    fn conv(
        &mut self,
        name: &str,
        shape: (usize, usize, usize, usize),
        input: Option<&Tensor4>,
        weights: &Tensor4,
        geom: &Conv2dGeom,
        tile: Option<Tile>,
        schedule: &dyn RowSchedule,
    ) -> (Option<Tensor4>, SimStats) {
        let (n, c, h, w) = shape;
        assert_eq!(c, geom.in_c, "input channel mismatch");
        // Grouped convolutions on a sparse controller lower to one
        // block-diagonal SpMM: every filter's non-zeros live only on its
        // group's im2col rows, so the variable-cluster machinery maps all
        // groups simultaneously — how SIGMA natively absorbs factorized
        // convolutions.
        if geom.groups > 1 && self.config.controller == ControllerKind::Sparse {
            return self.grouped_conv_block_diagonal(name, shape, input, weights, geom, schedule);
        }
        // Every group is the same GEMM (one group mapped at a time) over
        // its slice of the input, which DRAM delivers once.
        let layer = LayerDims::from_conv(geom, h, w, n);
        let group_layer = LayerDims {
            c: layer.c / layer.g,
            k: layer.k / layer.g,
            g: 1,
            ..layer
        };
        let addrs = AddrMap::conv(geom, n, h, w);
        let streamed = n * c * h * w / geom.groups;
        let sparse = self.config.controller == ControllerKind::Sparse;
        let mut group_outputs = Vec::with_capacity(geom.groups);
        let mut total: Option<SimStats> = None;
        for g in 0..geom.groups {
            let gname = if geom.groups == 1 {
                name.to_owned()
            } else {
                format!("{name}.g{g}")
            };
            // The patches (and, off the sparse controller, the filter
            // matrix) are built only when the output is wanted.
            let wm = (sparse || input.is_some()).then(|| weights_matrix(weights, geom, g));
            let im = input.map(|input| im2col_matrix(input, geom, g));
            let (wm, im) = (wm.as_ref(), im.as_ref());
            let (out, stats) = self.lowered_gemm(
                &gname,
                &group_layer,
                &addrs,
                tile,
                wm,
                im,
                streamed,
                schedule,
            );
            group_outputs.extend(out);
            match &mut total {
                None => total = Some(stats),
                Some(t) => t.merge(&stats),
            }
        }
        let mut stats = total.expect("at least one group");
        stats.operation = name.to_owned();
        // Flexible dense fabrics map several groups' clusters concurrently
        // (the paper's T_G tile dimension); the groups split the array and
        // the delivery bandwidth, overlapping their execution. Rigid
        // point-to-point arrays cannot, and pay the serialization.
        if geom.groups > 1
            && self.config.controller == ControllerKind::Dense
            && self.config.dn != DnKind::PointToPoint
        {
            let (ms, bw) = (self.config.ms_size, self.config.dn_bandwidth);
            let per_group = Tile::auto_bw(&group_layer, ms, bw);
            let concurrent =
                (self.config.ms_size / per_group.ms_used().max(1)).clamp(1, geom.groups) as u64;
            stats.cycles = stats.cycles.div_ceil(concurrent);
            stats.compute_cycles = stats.compute_cycles.div_ceil(concurrent);
            stats.bandwidth_stall_cycles = stats.bandwidth_stall_cycles.div_ceil(concurrent);
            // Rescale the breakdown to the overlapped cycle count: floor
            // each auxiliary phase and fold the rounding residue into the
            // steady phase so the breakdown still sums to `cycles` exactly.
            let b = &mut stats.breakdown;
            b.fill_cycles /= concurrent;
            b.drain_cycles /= concurrent;
            b.dram_stall_cycles /= concurrent;
            b.fifo_stall_cycles /= concurrent;
            b.reduction_stall_cycles /= concurrent;
            let others = b.fill_cycles
                + b.drain_cycles
                + b.dram_stall_cycles
                + b.fifo_stall_cycles
                + b.reduction_stall_cycles;
            b.steady_cycles = stats.cycles.saturating_sub(others);
        }
        let out = input.map(|_| col2im_output(&group_outputs, geom, n, layer.xp, layer.yp));
        (out, stats)
    }

    /// Lowers a grouped convolution to a single block-diagonal sparse
    /// GEMM and runs it on the sparse engine (all groups mapped at once).
    fn grouped_conv_block_diagonal(
        &mut self,
        name: &str,
        (n, c, h, w): (usize, usize, usize, usize),
        input: Option<&Tensor4>,
        weights: &Tensor4,
        geom: &Conv2dGeom,
        schedule: &dyn RowSchedule,
    ) -> (Option<Tensor4>, SimStats) {
        let (oh, ow) = geom.out_hw(h, w);
        let dot = geom.dot_product_len();
        let kpg = geom.out_c_per_group();
        let n_cols = n * oh * ow;

        // Stationary operand: out_c rows over groups·dot columns, each
        // filter's taps in its group's column block.
        let mut bd = Matrix::zeros(geom.out_c, geom.groups * dot);
        for g in 0..geom.groups {
            let wm = weights_matrix(weights, geom, g);
            for kk in 0..kpg {
                bd.row_mut(g * kpg + kk)[g * dot..][..dot].copy_from_slice(wm.row(kk));
            }
        }
        // Streaming operand: the stacked per-group im2col matrices.
        let inputs = input.map(|input| {
            let mut inputs = Matrix::zeros(geom.groups * dot, n_cols);
            for g in 0..geom.groups {
                let im = im2col_matrix(input, geom, g);
                for r in 0..dot {
                    inputs.row_mut(g * dot + r).copy_from_slice(im.row(r));
                }
            }
            inputs
        });
        let csr = CsrMatrix::from_dense(&bd);
        let ((stats, _), _, out) = self.spmm_layer(name, &csr, n_cols, inputs.as_ref(), schedule);
        let out_elems = (geom.out_c * n_cols) as u64;
        let in_elems = (csr.storage_elements() + n * c * h * w) as u64;
        let stats = self.record(stats, in_elems, out_elems);

        // Rows are group-major (g·kpg + kk); slice them back per group.
        let out = out.map(|out| {
            let group_outputs: Vec<Matrix> = (0..geom.groups)
                .map(|g| {
                    let rows = out.as_slice()[g * kpg * n_cols..][..kpg * n_cols].to_vec();
                    Matrix::from_vec(kpg, n_cols, rows)
                })
                .collect();
            col2im_output(&group_outputs, geom, n, oh, ow)
        });
        (out, stats)
    }

    /// Times a fully-connected layer over `seq` input tokens from the
    /// weights alone (see [`Stonne::time_gemm`]).
    pub fn time_linear(
        &mut self,
        name: &str,
        seq: usize,
        weights: &Matrix,
        schedule: &dyn RowSchedule,
    ) -> SimStats {
        let extents = (weights.rows(), weights.cols(), seq);
        self.time_gemm(name, extents, Some(weights), schedule)
    }

    /// Runs a fully-connected layer: `output (seq×out) = input (seq×in) ×
    /// weightsᵀ (out×in)`, the STONNE API's `ConfigureLinear`.
    ///
    /// # Panics
    ///
    /// Panics if `weights.cols() != input.cols()`.
    pub fn run_linear(
        &mut self,
        name: &str,
        input: &Matrix,
        weights: &Matrix,
    ) -> (Matrix, SimStats) {
        self.run_linear_scheduled(name, input, weights, &NaturalOrder)
    }

    /// Runs a fully-connected layer with an explicit filter schedule (only
    /// effective on sparse-controller configurations).
    ///
    /// # Panics
    ///
    /// Panics if `weights.cols() != input.cols()`.
    pub fn run_linear_scheduled(
        &mut self,
        name: &str,
        input: &Matrix,
        weights: &Matrix,
        schedule: &dyn RowSchedule,
    ) -> (Matrix, SimStats) {
        assert_eq!(
            weights.cols(),
            input.cols(),
            "linear weight/input feature mismatch"
        );
        // Weights are the stationary MK operand; tokens stream as KN.
        let b = input.transposed();
        let (out, stats) = self.run_gemm_scheduled(name, weights, &b, schedule);
        (out.transposed(), stats)
    }

    /// Times a max-pool layer over an `(n, c, h, w)` input: everything
    /// [`Stonne::run_maxpool`] does except pooling.
    pub fn time_maxpool(
        &mut self,
        name: &str,
        shape: (usize, usize, usize, usize),
        window: usize,
        stride: usize,
    ) -> SimStats {
        assert!(
            window > 0 && stride > 0,
            "window and stride must be positive"
        );
        let (n, c, h, w) = shape;
        let outputs = n * c * ((h - window) / stride + 1) * ((w - window) / stride + 1);
        let (stats, _) = self.accounting(
            name,
            || CacheKey::pool(&self.cfg, shape, window, stride),
            || plain(pool::accounting(&self.config, name, outputs, window)),
        );
        self.record(stats, (n * c * h * w) as u64, outputs as u64)
    }

    /// Runs a max-pool layer (the STONNE API's `ConfigureMaxPool`).
    pub fn run_maxpool(
        &mut self,
        name: &str,
        input: &Tensor4,
        window: usize,
        stride: usize,
    ) -> (Tensor4, SimStats) {
        let stats = self.time_maxpool(name, input.shape(), window, stride);
        (pool::functional(input, window, stride), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SimCache;
    use stonne_tensor::{assert_slices_close, conv2d_reference, gemm_reference, SeededRng};

    fn presets() -> Vec<AcceleratorConfig> {
        vec![
            AcceleratorConfig::tpu_like(8),
            AcceleratorConfig::maeri_like(64, 16),
            AcceleratorConfig::sigma_like(64, 64),
        ]
    }

    #[test]
    fn gemm_matches_reference_on_all_presets() {
        let mut rng = SeededRng::new(1);
        let a = Matrix::random(10, 20, &mut rng);
        let b = Matrix::random(20, 6, &mut rng);
        let reference = gemm_reference(&a, &b);
        for cfg in presets() {
            let name = cfg.name.clone();
            let mut sim = Stonne::new(cfg).unwrap();
            let (out, stats) = sim.run_gemm("gemm", &a, &b);
            assert_slices_close(out.as_slice(), reference.as_slice());
            assert!(stats.cycles > 0, "{name}");
        }
    }

    #[test]
    fn conv_matches_reference_on_all_presets() {
        let geom = Conv2dGeom::new(3, 5, 3, 3, 1, 1, 1);
        let mut rng = SeededRng::new(2);
        let input = Tensor4::random(1, 3, 6, 6, &mut rng);
        let weights = Tensor4::random(5, 3, 3, 3, &mut rng);
        let reference = conv2d_reference(&input, &weights, &geom);
        for cfg in presets() {
            let name = cfg.name.clone();
            let mut sim = Stonne::new(cfg).unwrap();
            let (out, _) = sim.run_conv("conv", &input, &weights, &geom, None);
            assert_slices_close(out.as_slice(), reference.as_slice());
            let _ = name;
        }
    }

    #[test]
    fn grouped_conv_matches_reference() {
        let geom = Conv2dGeom::new(4, 4, 3, 3, 1, 1, 4); // depthwise
        let mut rng = SeededRng::new(3);
        let input = Tensor4::random(1, 4, 5, 5, &mut rng);
        let weights = Tensor4::random(4, 1, 3, 3, &mut rng);
        let reference = conv2d_reference(&input, &weights, &geom);
        for cfg in presets() {
            let mut sim = Stonne::new(cfg).unwrap();
            let (out, stats) = sim.run_conv("dw", &input, &weights, &geom, None);
            assert_slices_close(out.as_slice(), reference.as_slice());
            assert!(stats.cycles > 0);
        }
    }

    #[test]
    fn linear_matches_reference() {
        let mut rng = SeededRng::new(4);
        let input = Matrix::random(3, 12, &mut rng); // seq 3, in 12
        let weights = Matrix::random(7, 12, &mut rng); // out 7
        let expected = gemm_reference(&input, &weights.transposed());
        for cfg in presets() {
            let mut sim = Stonne::new(cfg).unwrap();
            let (out, _) = sim.run_linear("fc", &input, &weights);
            assert_slices_close(out.as_slice(), expected.as_slice());
        }
    }

    #[test]
    fn history_accumulates() {
        let mut rng = SeededRng::new(5);
        let a = Matrix::random(4, 8, &mut rng);
        let b = Matrix::random(8, 4, &mut rng);
        let mut sim = Stonne::new(AcceleratorConfig::maeri_like(32, 8)).unwrap();
        sim.run_gemm("g1", &a, &b);
        sim.run_gemm("g2", &a, &b);
        assert_eq!(sim.history().len(), 2);
        let agg = sim.aggregate_stats();
        assert_eq!(
            agg.cycles,
            sim.history()[0].cycles + sim.history()[1].cycles
        );
    }

    #[test]
    fn sparse_controller_exploits_gemm_zeros() {
        let mut rng = SeededRng::new(6);
        let mut a = Matrix::random(32, 32, &mut rng);
        for r in 0..32 {
            for c in 0..32 {
                if (r + c) % 4 != 0 {
                    a.set(r, c, 0.0); // 75% sparse
                }
            }
        }
        let b = Matrix::random(32, 16, &mut rng);
        let mut sigma = Stonne::new(AcceleratorConfig::sigma_like(64, 64)).unwrap();
        let mut maeri = Stonne::new(AcceleratorConfig::maeri_like(64, 64)).unwrap();
        let (so, ss) = sigma.run_gemm("sp", &a, &b);
        let (mo, ms) = maeri.run_gemm("sp", &a, &b);
        assert_slices_close(so.as_slice(), mo.as_slice());
        assert!(
            ss.counters.multiplications < ms.counters.multiplications / 2,
            "sparse engine must skip zero MACs"
        );
    }

    #[test]
    fn dram_modeling_adds_stalls_when_enabled() {
        let mut rng = SeededRng::new(7);
        let a = Matrix::random(16, 16, &mut rng);
        let b = Matrix::random(16, 16, &mut rng);
        let mut slow_dram = AcceleratorConfig::maeri_like(64, 64).with_dram_modeling(true);
        slow_dram.dram.bandwidth_gbps_per_channel = 0.5;
        slow_dram.dram.channels = 1;
        let mut sim = Stonne::new(slow_dram).unwrap();
        let (_, stats) = sim.run_gemm("g", &a, &b);
        assert!(stats.dram_stall_cycles > 0);
        assert!(stats.counters.dram_reads > 0);
    }

    #[test]
    fn tile_search_never_loses_to_the_auto_tile() {
        let mut rng = SeededRng::new(9);
        let a = Matrix::random(24, 96, &mut rng);
        let b = Matrix::random(96, 48, &mut rng);
        let cfg = AcceleratorConfig::maeri_like(128, 32);
        let sim = Stonne::new(cfg.clone()).unwrap();
        let (best_tile, best_cycles) = sim.search_best_tile(&a, &b);
        let mut auto_sim = Stonne::new(cfg).unwrap();
        let (_, auto_stats) = auto_sim.run_gemm("auto", &a, &b);
        assert!(
            best_cycles <= auto_stats.cycles,
            "search {best_cycles} worse than auto {} ({best_tile:?})",
            auto_stats.cycles
        );
    }

    #[test]
    fn breakdown_sums_to_total_cycles_across_presets() {
        let mut rng = SeededRng::new(11);
        let a = Matrix::random(10, 20, &mut rng);
        let b = Matrix::random(20, 6, &mut rng);
        for cfg in presets() {
            let name = cfg.name.clone();
            let mut sim = Stonne::new(cfg).unwrap();
            let (_, stats) = sim.run_gemm("g", &a, &b);
            assert_eq!(stats.breakdown.total(), stats.cycles, "gemm on {name}");
        }
    }

    #[test]
    fn breakdown_holds_for_grouped_conv_and_pool_and_dram() {
        let geom = Conv2dGeom::new(4, 4, 3, 3, 1, 1, 4); // depthwise
        let mut rng = SeededRng::new(12);
        let input = Tensor4::random(1, 4, 5, 5, &mut rng);
        let weights = Tensor4::random(4, 1, 3, 3, &mut rng);
        for cfg in presets() {
            let name = cfg.name.clone();
            let mut sim = Stonne::new(cfg).unwrap();
            // Grouped conv exercises the concurrent-group cycle division
            // on the flexible dense preset.
            let (_, stats) = sim.run_conv("dw", &input, &weights, &geom, None);
            assert_eq!(stats.breakdown.total(), stats.cycles, "conv on {name}");
            let (_, pstats) = sim.run_maxpool("pool", &input, 2, 2);
            assert_eq!(pstats.breakdown.total(), pstats.cycles, "pool on {name}");
        }
        // DRAM stalls are part of the breakdown too.
        let mut slow = AcceleratorConfig::maeri_like(64, 64).with_dram_modeling(true);
        slow.dram.bandwidth_gbps_per_channel = 0.5;
        slow.dram.channels = 1;
        let mut rng = SeededRng::new(13);
        let a = Matrix::random(16, 16, &mut rng);
        let b = Matrix::random(16, 16, &mut rng);
        let mut sim = Stonne::new(slow).unwrap();
        let (_, stats) = sim.run_gemm("g", &a, &b);
        assert!(stats.breakdown.dram_stall_cycles > 0);
        assert_eq!(stats.breakdown.total(), stats.cycles);
    }

    #[test]
    fn tile_search_does_not_pollute_the_trace() {
        use crate::trace;
        let mut rng = SeededRng::new(14);
        let a = Matrix::random(8, 32, &mut rng);
        let b = Matrix::random(32, 8, &mut rng);
        let sim = Stonne::new(AcceleratorConfig::maeri_like(64, 16)).unwrap();
        trace::start(1024);
        let _ = sim.search_best_tile(&a, &b);
        let t = trace::finish().unwrap();
        assert!(t.events().is_empty(), "exploration must stay off-timeline");
    }

    #[test]
    fn maxpool_runs_on_flexible_preset() {
        let mut rng = SeededRng::new(8);
        let input = Tensor4::random(1, 2, 6, 6, &mut rng);
        let mut sim = Stonne::new(AcceleratorConfig::maeri_like(64, 16)).unwrap();
        let (out, stats) = sim.run_maxpool("pool", &input, 2, 2);
        assert_eq!(out.shape(), (1, 2, 3, 3));
        assert!(stats.cycles > 0);
    }

    /// A random matrix, zeroed where `(r + c) % period == 0` (0: dense).
    fn masked(rows: usize, cols: usize, period: usize, rng: &mut SeededRng) -> Matrix {
        let mut m = Matrix::random(rows, cols, rng);
        for (r, c) in (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c))) {
            if period > 0 && (r + c) % period == 0 {
                m.set(r, c, 0.0);
            }
        }
        m
    }

    #[test]
    fn cache_hits_are_bitwise_identical_on_all_presets() {
        use crate::config::Dataflow;
        let with_dataflow = |dataflow| AcceleratorConfig {
            dataflow,
            ..AcceleratorConfig::maeri_like(64, 16)
        };
        let dual = AcceleratorConfig {
            exploit_activation_sparsity: true,
            ..AcceleratorConfig::sigma_like(64, 8)
        };
        // (config, M, K, N, zero period of the stationary operand, of the
        // streaming one): the presets, the flexible engine's other
        // dataflows, folding sparse rows (K = 100 on 32 multipliers), the
        // sparse GEMV (input-stationary) mapping, activation sparsity.
        let mut cases: Vec<_> = presets()
            .into_iter()
            .map(|cfg| (cfg, 10, 20, 6, 0, 0))
            .collect();
        cases.extend([
            (with_dataflow(Dataflow::OutputStationary), 7, 37, 11, 0, 0),
            (with_dataflow(Dataflow::InputStationary), 7, 37, 11, 0, 0),
            (AcceleratorConfig::sigma_like(32, 32), 12, 100, 5, 2, 0),
            (AcceleratorConfig::sigma_like(128, 128), 64, 32, 1, 3, 0),
            (dual, 16, 32, 16, 2, 2),
        ]);
        for (seed, (cfg, m, k, n, a_zeros, b_zeros)) in cases.into_iter().enumerate() {
            let label = format!("{} {m}x{k}x{n} {:?}", cfg.name, cfg.dataflow);
            let mut rng = SeededRng::new(90 + seed as u64);
            // Two operand pairs of one shape and zero structure but
            // different values: the second must hit the first's entry.
            let [a, a2] = [0; 2].map(|_| masked(m, k, a_zeros, &mut rng));
            let [b, b2] = [0; 2].map(|_| masked(k, n, b_zeros, &mut rng));
            let sim = || Stonne::new(cfg.clone()).unwrap();
            let cached = || sim().with_cache(crate::cache::SimCache::new());

            let (ref_out, mut reference) = sim().run_gemm("g2", &a2, &b2);
            assert_eq!(reference.engine_invocations, 1, "{label}");
            assert!(n > 1 || reference.operation.ends_with("[IS]"), "{label}");
            let (miss_out, miss) = cached().run_gemm("g2", &a2, &b2);
            assert_eq!(miss.sim_cache_misses, 1, "{label}");
            assert_eq!(miss.sim_cache_inserts, 1, "{label}");
            assert_eq!(miss.engine_invocations, 1, "{label}");
            let mut warm = cached();
            warm.run_gemm("g1", &a, &b);
            let (hit_out, hit) = warm.run_gemm("g2", &a2, &b2);
            assert_eq!(hit.sim_cache_hits, 1, "{label}");
            assert_eq!(hit.engine_invocations, 0, "{label}");

            // Output bits and — once the host counters are off — stats
            // across uncached / miss / hit.
            reference.clear_host_counters();
            for (out, mut stats, how) in [(miss_out, miss, "miss"), (hit_out, hit, "hit")] {
                assert_eq!(out.as_slice(), ref_out.as_slice(), "{label}: {how} output");
                stats.clear_host_counters();
                assert_eq!(stats, reference, "{label}: {how} stats");
            }
        }
    }

    #[test]
    fn time_entry_points_account_exactly_like_their_run_counterparts() {
        let mut rng = SeededRng::new(31);
        let a = masked(10, 20, 3, &mut rng);
        let b = Matrix::random(20, 6, &mut rng);
        let tokens = Matrix::random(6, 20, &mut rng);
        let input = Tensor4::random(2, 4, 6, 6, &mut rng);
        let convs = [
            (
                Conv2dGeom::new(4, 6, 3, 3, 2, 1, 1),
                Tensor4::random(6, 4, 3, 3, &mut rng),
            ),
            (
                Conv2dGeom::new(4, 4, 3, 3, 1, 1, 4),
                Tensor4::random(4, 1, 3, 3, &mut rng),
            ),
            (
                Conv2dGeom::new(4, 8, 1, 1, 1, 0, 2),
                Tensor4::random(8, 2, 1, 1, &mut rng),
            ),
        ];
        let sched = &NaturalOrder;
        for cfg in presets() {
            let name = cfg.name.clone();
            let cfg = cfg.with_dram_modeling(true);
            // One cache per mode: what either writes, the other must hit.
            let (timed_cache, run_cache) = (SimCache::new(), SimCache::new());
            let sim =
                |cache: &SimCache| Stonne::new(cfg.clone()).unwrap().with_cache(cache.clone());
            let (mut timed, mut run) = (sim(&timed_cache), sim(&run_cache));
            timed.time_gemm("g", (10, 20, 6), Some(&a), sched);
            run.run_gemm("g", &a, &b);
            timed.time_linear("fc", 6, &a, sched);
            run.run_linear("fc", &tokens, &a);
            for (geom, weights) in &convs {
                timed.time_conv("c", input.shape(), weights, geom, None, sched);
                run.run_conv("c", &input, weights, geom, None);
            }
            timed.time_maxpool("p", input.shape(), 2, 2);
            run.run_maxpool("p", &input, 2, 2);
            assert_eq!(timed.history(), run.history(), "{name}");
            assert_eq!(
                timed_cache.key_signatures(),
                run_cache.key_signatures(),
                "{name}"
            );
            // Entries are interchangeable: a Full run over the timing-only
            // run's cache never invokes an engine, and vice versa.
            let mut warm = sim(&timed_cache);
            let (_, hit) = warm.run_conv("c", &input, &convs[0].1, &convs[0].0, None);
            assert_eq!(hit.engine_invocations, 0, "{name}");
            let hit = sim(&run_cache).time_gemm("g", (10, 20, 6), Some(&a), sched);
            assert_eq!(hit.engine_invocations, 0, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "exploit_activation_sparsity")]
    fn timing_that_reads_activations_refuses_shape_level_calls() {
        let dual = AcceleratorConfig {
            exploit_activation_sparsity: true,
            ..AcceleratorConfig::sigma_like(64, 8)
        };
        let a = Matrix::random(8, 8, &mut SeededRng::new(1));
        let mut sim = Stonne::new(dual).unwrap();
        sim.time_gemm("g", (8, 8, 4), Some(&a), &NaturalOrder);
    }

    #[test]
    fn grouped_conv_hits_cache_across_identical_groups() {
        // A depthwise conv on a flexible dense preset runs one engine call
        // per group; base-normalized address hashing lets every group after
        // the first hit the cache.
        let geom = Conv2dGeom::new(4, 4, 3, 3, 1, 1, 4);
        let mut rng = SeededRng::new(10);
        let input = Tensor4::random(1, 4, 5, 5, &mut rng);
        let weights = Tensor4::random(4, 1, 3, 3, &mut rng);
        let reference = conv2d_reference(&input, &weights, &geom);
        let cfg = AcceleratorConfig::maeri_like(64, 16);
        let cache = crate::cache::SimCache::new();
        let mut sim = Stonne::new(cfg).unwrap().with_cache(cache.clone());
        let (out, stats) = sim.run_conv("dw", &input, &weights, &geom, None);
        assert_slices_close(out.as_slice(), reference.as_slice());
        assert_eq!(stats.engine_invocations, 1);
        assert_eq!(stats.sim_cache_hits, 3, "3 of 4 groups replay");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_respects_differing_configs_and_shapes() {
        let mut rng = SeededRng::new(11);
        let a = Matrix::random(8, 16, &mut rng);
        let b = Matrix::random(16, 4, &mut rng);
        let cache = crate::cache::SimCache::new();
        let mut small = Stonne::new(AcceleratorConfig::maeri_like(64, 16))
            .unwrap()
            .with_cache(cache.clone());
        let (_, s1) = small.run_gemm("g", &a, &b);
        assert_eq!(s1.sim_cache_misses, 1);
        // Same shape on a different array size must miss.
        let mut big = Stonne::new(AcceleratorConfig::maeri_like(128, 32))
            .unwrap()
            .with_cache(cache.clone());
        let (_, s2) = big.run_gemm("g", &a, &b);
        assert_eq!(s2.sim_cache_misses, 1);
        // A different shape on the original config must miss too.
        let c = Matrix::random(16, 5, &mut rng);
        let (_, s3) = small.run_gemm("g", &a, &c);
        assert_eq!(s3.sim_cache_misses, 1);
        assert_eq!(cache.len(), 3);
    }
}
