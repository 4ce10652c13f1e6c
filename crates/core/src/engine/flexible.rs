//! Cycle-level engine for tree-based flexible dense accelerators
//! (MAERI-like compositions: Tree/Benes DN + Linear MN + ART/ART+ACC RN +
//! dense memory controller).
//!
//! # Execution model
//!
//! The dense controller maps `Tile` clusters (virtual neurons) onto the
//! multiplier array and walks the layer weight-stationary, fold-outer:
//!
//! ```text
//! for each filter chunk (T_K filters):
//!   for each fold of the dot product (cluster-size slices):
//!     deliver the fold's weights through the DN        (bandwidth-bound)
//!     for each output-position chunk (T_N·T_X'·T_Y'):
//!       deliver the step's unique input elements       (bandwidth-bound)
//!       multiply in all active MS, reduce through the RN (pipelined)
//!       on the last fold, collect outputs              (bandwidth-bound)
//! ```
//!
//! Input uniqueness is computed from the *addresses* of the im2col
//! operand, so overlapping convolution windows multicast instead of
//! re-fetching — the behaviour MAERI gets from its distribution tree and
//! forwarding links. Partial sums accumulate in the RN accumulators
//! (ART+ACC) when the filter chunk's output set fits; otherwise they spill
//! to the Global Buffer, adding read-modify-write traffic and delivery
//! cycles — exactly the kind of execution-time subtlety the paper shows
//! analytical models miss (Fig. 1b).
//!
//! # Two halves
//!
//! Per the [engine contract](super#two-halves): `functional` computes
//! the output with the shared fold-ordered kernel (row ranges of it on
//! worker threads on request), `accounting` walks the loop nest above
//! over the operand's extents and address map, and [`run_dense`] is
//! their composition.

use crate::config::{AcceleratorConfig, Dataflow};
use crate::context::{EngineScratch as Scratch, SimContext};
use crate::mapping::{LayerDims, Tile};
use crate::networks::{DistributionNetwork, MultiplierNetwork, ReductionNetwork};
use crate::stats::SimStats;
use crate::trace::{Component, Probe};
use stonne_tensor::{fold_gemm, Conv2dGeom, Elem, Matrix};

/// Address marker for zero-padding taps (nothing is fetched).
pub const PAD_ADDR: u32 = u32::MAX;

/// Generator of a dense operand's row-major `K × N` Global-Buffer address
/// map: what lowering and cache keys carry. The map itself is expanded
/// only inside the engine's `accounting`. Addresses are relative to the
/// operand's base, so all groups of a convolution share one generator
/// (multicast structure is shift-invariant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrMap {
    /// Every element is a distinct fetch (plain GEMM: no reuse, no padding).
    Unique {
        /// Number of elements, `K·N`.
        len: usize,
    },
    /// The im2col windows of one convolution group (`cpg` channels of a
    /// `batch × in_c × in_h × in_w` input): rows scan `(c, fy, fx)`,
    /// columns `(n, oy, ox)`; overlapping windows repeat an address and
    /// padding taps read [`PAD_ADDR`]. `in_c` only separates images: it
    /// is normalised to `cpg` when `batch == 1`.
    #[allow(missing_docs)]
    Window {
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
        cpg: usize,
        batch: usize,
        in_c: usize,
        in_h: usize,
        in_w: usize,
    },
}

impl AddrMap {
    /// The map of one group of `geom` over `batch` images of `in_h × in_w`.
    /// A window walk that touches every address once, in order (e.g. 1×1
    /// stride-1 unpadded), *is* [`AddrMap::Unique`] and is returned as such.
    pub fn conv(geom: &Conv2dGeom, batch: usize, in_h: usize, in_w: usize) -> Self {
        let (kh, kw, stride, pad) = (geom.kh, geom.kw, geom.stride, geom.pad);
        let (oh, ow) = geom.out_hw(in_h, in_w);
        let (cpg, in_c) = (geom.in_c_per_group(), geom.in_c);
        // Address and index are both linear in (n, c, fy, fx, oy, ox): they
        // agree everywhere iff they agree on every coefficient whose
        // variable has more than one value.
        let coefficients = [
            (batch, in_c * in_h * in_w, oh * ow),
            (cpg, in_h * in_w, kh * kw * batch * oh * ow),
            (kh, in_w, kw * batch * oh * ow),
            (kw, 1, batch * oh * ow),
            (oh, stride * in_w, ow),
            (ow, stride, 1),
        ];
        if pad == 0 && coefficients.iter().all(|&(n, a, i)| n == 1 || a == i) {
            let len = cpg * kh * kw * batch * oh * ow;
            return AddrMap::Unique { len };
        }
        let in_c = if batch == 1 { cpg } else { in_c };
        AddrMap::Window {
            kh,
            kw,
            stride,
            pad,
            cpg,
            batch,
            in_c,
            in_h,
            in_w,
        }
    }

    /// Materialises the map.
    pub fn expand(&self) -> Vec<u32> {
        let (kh, kw, stride, pad, cpg, batch, in_c, in_h, in_w) = match *self {
            AddrMap::Unique { len } => return (0..len as u32).collect(),
            AddrMap::Window {
                kh,
                kw,
                stride,
                pad,
                cpg,
                batch,
                in_c,
                in_h,
                in_w,
            } => (kh, kw, stride, pad, cpg, batch, in_c, in_h, in_w),
        };
        let oh = (in_h + 2 * pad - kh) / stride + 1;
        let ow = (in_w + 2 * pad - kw) / stride + 1;
        let ncols = batch * oh * ow;
        let mut addrs = vec![PAD_ADDR; cpg * kh * kw * ncols];
        for (row, cells) in addrs.chunks_mut(ncols.max(1)).enumerate() {
            let (c, fy, fx) = (row / (kh * kw), row / kw % kh, row % kw);
            for (line, cols) in cells.chunks_mut(ow).enumerate() {
                // Out-of-range taps wrap to huge values: one compare each.
                let (n, iy) = (line / oh, (line % oh * stride + fy).wrapping_sub(pad));
                if iy >= in_h {
                    continue;
                }
                let base = ((n * in_c + c) * in_h + iy) * in_w;
                for (ox, slot) in cols.iter_mut().enumerate() {
                    let ix = (ox * stride + fx).wrapping_sub(pad);
                    if ix < in_w {
                        *slot = (base + ix) as u32;
                    }
                }
            }
        }
        addrs
    }
}

/// One group's GEMM-lowered dense operand with Global-Buffer addresses.
#[derive(Debug, Clone)]
pub struct DenseOperand {
    /// Stationary weights, `M × K` (filters × dot length).
    pub weights: Matrix,
    /// Streaming inputs, `K × N` (dot length × output positions).
    pub inputs: Matrix,
    /// Generator of the GB address of every `inputs` entry.
    pub addrs: AddrMap,
}

impl DenseOperand {
    /// Builds a plain-GEMM operand where every input element has a unique
    /// address (no convolution reuse).
    pub fn from_gemm(weights: Matrix, inputs: Matrix) -> Self {
        let addrs = AddrMap::Unique { len: inputs.len() };
        Self {
            weights,
            inputs,
            addrs,
        }
    }
}

/// Runs one dense operand through the flexible engine.
///
/// Returns the `M × N` output and the cycle-level statistics.
///
/// # Panics
///
/// Panics if operand shapes disagree with `layer`/`tile`, or if the tile
/// does not fit the configured multiplier count.
pub fn run_dense(
    config: &AcceleratorConfig,
    operation: &str,
    layer: &LayerDims,
    tile: &Tile,
    operand: &DenseOperand,
) -> (Matrix, SimStats) {
    run_dense_with(config, operation, layer, tile, operand, 1)
}

/// [`run_dense`] with an intra-layer worker budget: when `workers > 1`,
/// the output pass fans its independent filter chunks (disjoint
/// output-row blocks) across that many scoped threads; the accounting
/// walk is serial. Outputs, cycles, and statistics are bitwise-identical
/// to the serial run (see `docs/PERFORMANCE.md`).
///
/// # Panics
///
/// Panics if operand shapes disagree with `layer`/`tile`, or if the tile
/// does not fit the configured multiplier count.
pub fn run_dense_with(
    config: &AcceleratorConfig,
    operation: &str,
    layer: &LayerDims,
    tile: &Tile,
    operand: &DenseOperand,
    workers: usize,
) -> (Matrix, SimStats) {
    // A fresh context per call; [`crate::Stonne`] threads its own through
    // the two halves so the grown buffers serve every layer of a run.
    // Accounting first: it validates the tile.
    let sim = SimContext::new();
    let stats = accounting(config, operation, layer, tile, &operand.addrs, &sim);
    let (weights, inputs) = (&operand.weights, &operand.inputs);
    let out = functional(config, tile, weights, inputs, workers);
    (out, stats)
}

/// The weight-stationary problem an input-stationary run walks: the roles
/// of the operands swap — the im2col columns (activations) pin to the
/// multipliers and the weight rows stream through the distribution
/// network — so the engine runs on the transposed problem
/// (`Cᵀ = Bᵀ·Aᵀ`): the stationary operand is loaded once per mapping and
/// the streamed weights carry no reuse (each element is unique), which is
/// exactly the IS traffic pattern. The N activation columns become the
/// stationary "filters", the M filters become streamed positions, and the
/// mapper re-derives a tile for the transposed extents.
fn transposed_problem(
    config: &AcceleratorConfig,
    m: usize,
    k_len: usize,
    n: usize,
) -> (LayerDims, Tile) {
    let t_layer = LayerDims::from_gemm(n, m, k_len);
    let t_tile = Tile::auto_bw(&t_layer, config.ms_size, config.dn_bandwidth);
    (t_layer, t_tile)
}

/// The functional half: the `M × N` output in the engine's exact f32
/// accumulation order — per output, the dot product reduced one
/// cluster-sized fold at a time (rows ascending within a fold) and one
/// accumulator add into the output per fold, folds ascending, which is
/// [`fold_gemm`] at `fold = cluster size`. Padding taps multiply the
/// stored zero. WS and OS accumulate identically; IS computes the
/// transposed problem with its re-derived tile. When `workers > 1` the
/// independent filter chunks (disjoint blocks of `t_k·t_g` output rows)
/// are split among that many scoped threads — output rows are
/// independent, so any split gives the same bits.
///
/// # Panics
///
/// Panics if the operand's inner dimensions disagree.
pub(crate) fn functional(
    config: &AcceleratorConfig,
    tile: &Tile,
    weights: &Matrix,
    inputs: &Matrix,
    workers: usize,
) -> Matrix {
    let (m, k_len) = (weights.rows(), weights.cols());
    assert_eq!(inputs.rows(), k_len, "operand inner dims disagree");
    if config.dataflow == Dataflow::InputStationary {
        let (_, t_tile) = transposed_problem(config, m, k_len, inputs.cols());
        let (weights, inputs) = (inputs.transposed(), weights.transposed());
        return functional_ws(&t_tile, &weights, &inputs, workers).transposed();
    }
    functional_ws(tile, weights, inputs, workers)
}

/// `weights × inputs` by the shared kernel: on the calling thread, or —
/// given workers and more than one filter chunk — every worker's
/// contiguous share of whole chunks on its own scoped thread.
fn functional_ws(tile: &Tile, weights: &Matrix, inputs: &Matrix, workers: usize) -> Matrix {
    let (m, n) = (weights.rows(), inputs.cols());
    let t_k = tile.t_k * tile.t_g;
    let mut out = Matrix::zeros(m, n);
    let share = |i: usize, rows: usize, block: &mut [Elem]| {
        let rows = i * rows..((i + 1) * rows).min(m);
        fold_gemm(weights, rows, inputs, tile.cluster_size(), block);
    };
    if workers > 1 && m > t_k {
        let rows = m.div_ceil(t_k).div_ceil(workers) * t_k;
        // The scope joins every worker and re-raises a worker's panic.
        std::thread::scope(|scope| {
            for (i, block) in out.as_mut_slice().chunks_mut(rows * n).enumerate() {
                scope.spawn(move || share(i, rows, block));
            }
        });
    } else {
        share(0, m, out.as_mut_slice());
    }
    out
}

/// Counts `(unique, non_pad)` addresses in the given (rows × cols)
/// window: `unique` distinct fetches meet the DN bandwidth; `non_pad`
/// taps are the multiplications every filter of the chunk performs.
///
/// `addrs` is the operand's row-major `K × n` address map; an empty one
/// stands for [`AddrMap::Unique`] (every element distinct, no padding)
/// and short-circuits the sort.
fn unique_inputs(
    addrs: &[u32],
    n: usize,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    scratch: &mut Vec<u32>,
) -> (usize, usize) {
    if addrs.is_empty() {
        let area = rows.len() * cols.len();
        return (area, area);
    }
    scratch.clear();
    for k in rows {
        let row = &addrs[k * n..(k + 1) * n];
        scratch.extend(row[cols.clone()].iter().filter(|&&a| a != PAD_ADDR));
    }
    let non_pad = scratch.len();
    scratch.sort_unstable();
    scratch.dedup();
    (scratch.len(), non_pad)
}

/// Splits the `n` output positions into delivery chunks of at most
/// `t_pos` columns, aligned to output rows (`Y'` extent) so a chunk maps a
/// contiguous `T_X' × T_Y'` rectangle of the feature map — boundary-
/// crossing chunks would lose the window overlap the tree multicasts.
fn position_chunks(layer: &LayerDims, n_cols: usize, t_pos: usize) -> Vec<(usize, usize)> {
    let row_len = layer.yp.max(1);
    let mut chunks = Vec::new();
    if t_pos >= row_len {
        // Group whole output rows together.
        let size = (t_pos / row_len).max(1) * row_len;
        let mut s = 0;
        while s < n_cols {
            chunks.push((s, (s + size).min(n_cols)));
            s += size;
        }
    } else {
        let mut row_start = 0;
        while row_start < n_cols {
            let row_end = (row_start + row_len).min(n_cols);
            let mut s = row_start;
            while s < row_end {
                chunks.push((s, (s + t_pos).min(row_end)));
                s += t_pos;
            }
            row_start = row_end;
        }
    }
    chunks
}

/// Loop-invariant context of an accounting walk, shared read-only by
/// every filter chunk. Holds the operand's extents and address map, never
/// its values.
struct WsCtx<'a> {
    addrs: &'a [u32],
    dn: DistributionNetwork,
    mn: MultiplierNetwork,
    rn: ReductionNetwork,
    cluster: usize,
    folds: usize,
    k_len: usize,
    n: usize,
    pos_chunks: &'a [(usize, usize)],
    chunks_per_block: usize,
    spill: bool,
}

/// Simulates the timing/activity of one stationary filter chunk
/// (`chunk_filters` filters wide) of a WS run: weight loads, input
/// streaming, compute/reduce steps, and the chunk's pipeline drain.
/// Accumulates activity into `stats`; `cycles` is the absolute start
/// cycle (trace spans are absolute); returns the cycle after the drain.
///
/// The walk depends only on the chunk's *width*, never on which filters
/// it covers — every full-width chunk of a layer shares one accounting
/// record, which is what makes the width-class collapse exact. Chunks
/// touch disjoint output rows and carry no state between each other
/// beyond the additive cycle/stat totals, which is what makes record
/// assembly bitwise-safe.
fn ws_chunk_accounting(
    ctx: &WsCtx<'_>,
    chunk_filters: usize,
    stats: &mut SimStats,
    mut cycles: u64,
    scratch: &mut Scratch,
) -> u64 {
    let ctrl = Probe::new(Component::Controller);
    let dn_probe = Probe::new(Component::DistributionNetwork);
    let mn_probe = Probe::new(Component::MultiplierNetwork);
    let rn_probe = Probe::new(Component::ReductionNetwork);

    for block in ctx.pos_chunks.chunks(ctx.chunks_per_block) {
        for fold in 0..ctx.folds {
            let row_lo = fold * ctx.cluster;
            let row_hi = (row_lo + ctx.cluster).min(ctx.k_len);
            let fold_rows = row_hi - row_lo;

            // Stationary weight (re)load for this fold: one distinct
            // value per (filter, row), multicast across position
            // clusters.
            let w_unique = chunk_filters * fold_rows;
            let w_cycles = ctx.dn.delivery_cycles(w_unique).max(1);
            ctrl.span("load-weights", cycles, cycles + w_cycles);
            dn_probe.span("weights", cycles, cycles + w_cycles);
            cycles += w_cycles;
            stats.breakdown.fill_cycles += w_cycles;
            ctx.dn
                .account(&mut stats.counters, w_unique, chunk_filters * fold_rows);
            stats.counters.gb_reads += w_unique as u64;
            let stream_start = cycles;

            for &(pos, pos_hi) in block {
                let chunk_pos = pos_hi - pos;

                // Unique input elements this step (address reuse):
                let (uniq, non_pad) = unique_inputs(
                    ctx.addrs,
                    ctx.n,
                    row_lo..row_hi,
                    pos..pos_hi,
                    &mut scratch.addrs,
                );
                let mut needed = uniq;
                // Psum read-back when psums round-trip the GB.
                let psum_elems = chunk_filters * chunk_pos;
                if ctx.spill && fold > 0 {
                    needed += psum_elems;
                    stats.counters.gb_reads += psum_elems as u64;
                }
                let deliver = ctx.dn.delivery_cycles(needed);
                let mut step = deliver.max(1);
                ctx.dn
                    .account(&mut stats.counters, uniq, fold_rows * chunk_pos);
                stats.counters.gb_reads += uniq as u64;
                stats.counters.fifo_pushes += uniq as u64;
                stats.counters.fifo_pops += uniq as u64;

                // Compute: every active VN multiplies its slice and the
                // RN reduces all clusters in one pipelined step; only
                // the non-pad taps count as multiplier activity.
                let mults = chunk_filters as u64 * non_pad as u64;
                ctx.mn.account(&mut stats.counters, mults, 0);
                stats.ms_busy_cycles += mults;

                let outcome = ctx.rn.reduce_uniform(fold_rows, psum_elems);
                stats.counters.rn_adder_ops += outcome.adder_ops;
                stats.counters.accumulator_updates += psum_elems as u64;

                let last_fold = fold + 1 == ctx.folds;
                if last_fold {
                    // Collect finished outputs through the write ports.
                    step = step.max(ctx.rn.collection_cycles(psum_elems));
                    stats.counters.rn_collections += psum_elems as u64;
                    stats.counters.gb_writes += psum_elems as u64;
                } else if ctx.spill {
                    // Psum write-back competes for the write ports.
                    step = step.max(ctx.rn.collection_cycles(psum_elems));
                    stats.counters.gb_writes += psum_elems as u64;
                }

                stats.bandwidth_stall_cycles += step.saturating_sub(1);
                let deliver_floor = deliver.max(1);
                stats.breakdown.steady_cycles += 1;
                stats.breakdown.fifo_stall_cycles += deliver_floor.saturating_sub(1);
                stats.breakdown.reduction_stall_cycles += step - deliver_floor;
                cycles += step;
                stats.compute_cycles += 1;
            }
            ctrl.span("stream", stream_start, cycles);
            mn_probe.span("compute", stream_start, cycles);
        }
    }
    // Pipeline drain of the reduction tree for this filter chunk.
    let drain = ctx.rn.reduce_uniform(ctx.cluster, 1).latency + 1;
    ctrl.span("drain", cycles, cycles + drain);
    rn_probe.span("drain", cycles, cycles + drain);
    cycles += drain;
    stats.breakdown.drain_cycles += drain;
    stats.iterations += 1;
    cycles
}

/// The accounting half: cycles, counters and breakdown of the run, from
/// the operand's extents and address map alone — no operand value exists
/// here and no output is written. This is the one place the address map
/// is materialised. IS walks the transposed problem weight-stationary
/// (see [`transposed_problem`]).
///
/// # Panics
///
/// Panics if the address map disagrees with the operand shape, or if the
/// tile does not fit `layer` or the configured multiplier count.
pub(crate) fn accounting(
    config: &AcceleratorConfig,
    operation: &str,
    layer: &LayerDims,
    tile: &Tile,
    addrs: &AddrMap,
    sim: &SimContext,
) -> SimStats {
    let (m, k, n) = layer.gemm_extents();
    tile.validate(layer, config.ms_size)
        .unwrap_or_else(|e| panic!("tile invalid for {operation}: {e}"));
    let os = config.dataflow == Dataflow::OutputStationary;
    if config.dataflow == Dataflow::InputStationary {
        let (layer, tile) = transposed_problem(config, m, k, n);
        // Every streamed weight is a unique fetch: no address map.
        let mut stats =
            filter_chunks_accounting(config, operation, os, &layer, &tile, n, k, m, &[], sim);
        stats.operation = format!("{operation} [IS]");
        return stats;
    }
    // `Unique` is never expanded: the walk short-circuits on an empty map.
    let map = match addrs {
        AddrMap::Unique { .. } => Vec::new(),
        window => window.expand(),
    };
    assert!(
        map.is_empty() || map.len() == k * n,
        "address map size mismatch"
    );
    filter_chunks_accounting(config, operation, os, layer, tile, m, k, n, &map, sim)
}

/// The chunk walk behind every dataflow: sets up the loop-invariant
/// context, then accounts the filter chunks either by width class (one
/// record per distinct chunk width, merged once per chunk,
/// chunk-ascending) or by the plain per-chunk walk. Tracing takes the
/// plain walk — spans carry absolute cycles, so a merged record would
/// drop them — which also keeps traces trivially identical either way.
#[allow(clippy::too_many_arguments)]
fn filter_chunks_accounting(
    config: &AcceleratorConfig,
    operation: &str,
    output_stationary: bool,
    layer: &LayerDims,
    tile: &Tile,
    m: usize,
    k_len: usize,
    n: usize,
    addrs: &[u32],
    sim: &SimContext,
) -> SimStats {
    let dn = DistributionNetwork::new(config.dn, config.ms_size, config.dn_bandwidth);
    let mn = MultiplierNetwork::new(config.mn, config.ms_size);
    let rn = ReductionNetwork::new(config.rn, config.ms_size, config.rn_bandwidth);

    let cluster = tile.cluster_size();
    let t_k = tile.t_k * tile.t_g;
    let t_pos = tile.t_n * tile.t_xp * tile.t_yp;
    let folds = k_len.div_ceil(cluster);
    // Accumulators at the RN output hold one psum per pending output; when
    // a filter chunk's working set exceeds them, psums round-trip the GB.
    let acc_capacity = if rn.has_accumulators() {
        config.ms_size
    } else {
        0
    };

    let pos_chunks = position_chunks(layer, n, t_pos);

    // Position-blocked schedule: the controller walks output positions in
    // blocks small enough that the block's psums live entirely in the RN
    // accumulators across folds; stationary weights then reload once per
    // (block, fold) and nothing spills. Only when even a single position
    // chunk's psums exceed the accumulators does the engine fall back to
    // GB round-trips — the behaviour plain ART (no ACC) always has.
    // Under OS the outputs are pinned and never spill, and its walk has
    // no position blocks.
    let spill = !output_stationary && t_k * t_pos > acc_capacity;
    let chunks_per_block = if spill {
        pos_chunks.len().max(1)
    } else {
        ((acc_capacity / t_k).max(t_pos) / t_pos).max(1)
    };

    let ctx = WsCtx {
        addrs,
        dn,
        mn,
        rn,
        cluster,
        folds,
        k_len,
        n,
        pos_chunks: &pos_chunks,
        chunks_per_block,
        spill,
    };
    let chunk_accounting = if output_stationary {
        os_chunk_accounting
    } else {
        ws_chunk_accounting
    };

    let mut stats = SimStats {
        accelerator: config.name.clone(),
        operation: operation.to_owned(),
        ms_size: config.ms_size,
        ..SimStats::default()
    };
    let widths = (0..m.div_ceil(t_k)).map(|kc| (m - kc * t_k).min(t_k));
    let mut scratch = sim.take_scratch();
    if sim.tile_cache_enabled() && !crate::trace::is_active() {
        // Every chunk is `t_k` wide except a ragged last one, so the
        // width changes at most once along the walk and the record of the
        // current width class is all that has to be kept (at most two
        // accounting walks per invocation), merged once per chunk.
        let mut class = (0, SimStats::default());
        for w in widths {
            if w == class.0 {
                stats.tile_cache_hits += 1;
            } else {
                stats.tile_cache_misses += 1;
                let mut record = SimStats::default();
                record.cycles = chunk_accounting(&ctx, w, &mut record, 0, &mut scratch);
                class = (w, record);
            }
            stats.merge(&class.1);
            stats.tile_cache_assembled += 1;
        }
    } else {
        let mut cycles: u64 = 0;
        for w in widths {
            cycles = chunk_accounting(&ctx, w, &mut stats, cycles, &mut scratch);
        }
        stats.cycles = cycles;
    }
    sim.put_scratch(scratch);
    stats
}

/// Timing/activity of one filter chunk of an output-stationary run:
/// outputs stay pinned in the accumulators while weights AND inputs
/// stream per fold. Same width-only/disjoint-row contract as
/// [`ws_chunk_accounting`].
fn os_chunk_accounting(
    ctx: &WsCtx<'_>,
    chunk_filters: usize,
    stats: &mut SimStats,
    mut cycles: u64,
    scratch: &mut Scratch,
) -> u64 {
    let ctrl = Probe::new(Component::Controller);
    let mn_probe = Probe::new(Component::MultiplierNetwork);
    let rn_probe = Probe::new(Component::ReductionNetwork);

    for &(pos, pos_hi) in ctx.pos_chunks {
        let chunk_pos = pos_hi - pos;
        let stream_start = cycles;
        for fold in 0..ctx.folds {
            let row_lo = fold * ctx.cluster;
            let row_hi = (row_lo + ctx.cluster).min(ctx.k_len);
            let fold_rows = row_hi - row_lo;

            let (uniq, non_pad) = unique_inputs(
                ctx.addrs,
                ctx.n,
                row_lo..row_hi,
                pos..pos_hi,
                &mut scratch.addrs,
            );
            let w_unique = chunk_filters * fold_rows;
            let step = ctx.dn.delivery_cycles(uniq + w_unique).max(1);
            ctx.dn
                .account(&mut stats.counters, uniq + w_unique, fold_rows * chunk_pos);
            stats.counters.gb_reads += (uniq + w_unique) as u64;

            let mults = chunk_filters as u64 * non_pad as u64;
            ctx.mn.account(&mut stats.counters, mults, 0);
            stats.ms_busy_cycles += mults;
            let outcome = ctx.rn.reduce_uniform(fold_rows, chunk_filters * chunk_pos);
            stats.counters.rn_adder_ops += outcome.adder_ops;
            stats.counters.accumulator_updates += (chunk_filters * chunk_pos) as u64;

            stats.bandwidth_stall_cycles += step.saturating_sub(1);
            stats.breakdown.steady_cycles += 1;
            stats.breakdown.fifo_stall_cycles += step.saturating_sub(1);
            cycles += step;
            stats.compute_cycles += 1;
        }
        ctrl.span("stream", stream_start, cycles);
        mn_probe.span("compute", stream_start, cycles);
        // Drain finished outputs.
        let outs = chunk_filters * chunk_pos;
        let collect = ctx.rn.collection_cycles(outs);
        ctrl.span("collect", cycles, cycles + collect);
        rn_probe.span("collect", cycles, cycles + collect);
        cycles += collect;
        stats.breakdown.drain_cycles += collect;
        stats.counters.rn_collections += outs as u64;
        stats.counters.gb_writes += outs as u64;
    }
    let drain = ctx.rn.reduce_uniform(ctx.cluster, 1).latency + 1;
    ctrl.span("drain", cycles, cycles + drain);
    rn_probe.span("drain", cycles, cycles + drain);
    cycles += drain;
    stats.breakdown.drain_cycles += drain;
    stats.iterations += 1;
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use crate::engine::tests::bits;
    use stonne_tensor::{assert_slices_close, gemm_reference, SeededRng};

    fn gemm_setup(m: usize, n: usize, k: usize, seed: u64) -> (Matrix, Matrix, DenseOperand) {
        let mut rng = SeededRng::new(seed);
        let a = Matrix::random(m, k, &mut rng);
        let b = Matrix::random(k, n, &mut rng);
        let op = DenseOperand::from_gemm(a.clone(), b.clone());
        (a, b, op)
    }

    #[test]
    fn weight_stationary_gemm_is_functionally_exact() {
        let (a, b, op) = gemm_setup(6, 10, 20, 1);
        let layer = LayerDims::from_gemm(6, 10, 20);
        let tile = Tile::auto(&layer, 64);
        let cfg = AcceleratorConfig::maeri_like(64, 16);
        let (out, stats) = run_dense(&cfg, "gemm", &layer, &tile, &op);
        assert_slices_close(out.as_slice(), gemm_reference(&a, &b).as_slice());
        assert!(stats.cycles > 0);
        assert_eq!(stats.counters.multiplications, 6 * 10 * 20);
    }

    #[test]
    fn output_stationary_gemm_is_functionally_exact() {
        let (a, b, op) = gemm_setup(5, 7, 33, 2);
        let layer = LayerDims::from_gemm(5, 7, 33);
        let tile = Tile::auto(&layer, 64);
        let mut cfg = AcceleratorConfig::maeri_like(64, 16);
        cfg.dataflow = Dataflow::OutputStationary;
        let (out, _) = run_dense(&cfg, "gemm", &layer, &tile, &op);
        assert_slices_close(out.as_slice(), gemm_reference(&a, &b).as_slice());
    }

    #[test]
    fn input_stationary_gemm_is_functionally_exact() {
        let (a, b, op) = gemm_setup(6, 9, 24, 11);
        let layer = LayerDims::from_gemm(6, 9, 24);
        let tile = Tile::auto(&layer, 64);
        let mut cfg = AcceleratorConfig::maeri_like(64, 16);
        cfg.dataflow = Dataflow::InputStationary;
        let (out, stats) = run_dense(&cfg, "gemm", &layer, &tile, &op);
        assert_slices_close(out.as_slice(), gemm_reference(&a, &b).as_slice());
        assert!(stats.operation.contains("[IS]"));
        assert_eq!(stats.counters.multiplications, 6 * 9 * 24);
    }

    #[test]
    fn input_stationary_reloads_weights_not_inputs() {
        // IS keeps activations resident: GB reads of the (large) input
        // operand happen once per filter chunk of the transposed problem,
        // while weights stream fully — so for a workload with few outputs
        // and many weights, IS and WS trade traffic differently.
        let (_, _, op) = gemm_setup(32, 4, 64, 12);
        let layer = LayerDims::from_gemm(32, 4, 64);
        let tile = Tile::auto(&layer, 64);
        let mut ws_cfg = AcceleratorConfig::maeri_like(64, 16);
        ws_cfg.dataflow = Dataflow::WeightStationary;
        let mut is_cfg = ws_cfg.clone();
        is_cfg.dataflow = Dataflow::InputStationary;
        let (_, ws) = run_dense(&ws_cfg, "g", &layer, &tile, &op);
        let (_, is) = run_dense(&is_cfg, "g", &layer, &tile, &op);
        assert_eq!(ws.counters.multiplications, is.counters.multiplications);
        assert_ne!(ws.counters.gb_reads, is.counters.gb_reads);
    }

    #[test]
    fn accounting_depends_on_shape_and_addresses_only() {
        // A padded convolution operand (overlapping windows, pad taps):
        // same geometry, different values — no statistic may move.
        use stonne_tensor::{Conv2dGeom, Tensor4};
        let geom = Conv2dGeom::new(3, 5, 3, 3, 1, 1, 1);
        let operand = |seed| {
            let mut rng = SeededRng::new(seed);
            let input = Tensor4::random(1, 3, 6, 6, &mut rng);
            let weights = Tensor4::random(5, 3, 3, 3, &mut rng);
            crate::engine::conv_operand(&input, &weights, &geom, 0)
        };
        let (op1, op2) = (operand(61), operand(62));
        assert_eq!(op1.addrs, op2.addrs);
        let layer = LayerDims::from_conv(&geom, 6, 6, 1);
        let tile = Tile::auto_bw(&layer, 32, 8);
        for dataflow in [
            Dataflow::WeightStationary,
            Dataflow::OutputStationary,
            Dataflow::InputStationary,
        ] {
            let mut cfg = AcceleratorConfig::maeri_like(32, 8);
            cfg.dataflow = dataflow;
            let (out1, stats1) = run_dense(&cfg, "c", &layer, &tile, &op1);
            let (out2, stats2) = run_dense(&cfg, "c", &layer, &tile, &op2);
            assert_eq!(stats1, stats2, "{dataflow:?}");
            assert_ne!(out1, out2, "{dataflow:?}: values did change");
        }
    }

    #[test]
    fn lower_bandwidth_costs_more_cycles() {
        let (_, _, op) = gemm_setup(16, 64, 64, 3);
        let layer = LayerDims::from_gemm(16, 64, 64);
        let tile = Tile::auto(&layer, 128);
        let full = AcceleratorConfig::maeri_like(128, 128);
        let quarter = AcceleratorConfig::maeri_like(128, 32);
        let (_, fast) = run_dense(&full, "gemm", &layer, &tile, &op);
        let (_, slow) = run_dense(&quarter, "gemm", &layer, &tile, &op);
        assert!(
            slow.cycles > fast.cycles,
            "bw 32 ({}) must be slower than bw 128 ({})",
            slow.cycles,
            fast.cycles
        );
        assert!(slow.bandwidth_stall_cycles > fast.bandwidth_stall_cycles);
    }

    #[test]
    fn utilization_is_bounded() {
        let (_, _, op) = gemm_setup(8, 16, 32, 4);
        let layer = LayerDims::from_gemm(8, 16, 32);
        let tile = Tile::auto(&layer, 64);
        let cfg = AcceleratorConfig::maeri_like(64, 64);
        let (_, stats) = run_dense(&cfg, "gemm", &layer, &tile, &op);
        let u = stats.ms_utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn folding_covers_long_dot_products() {
        let (a, b, op) = gemm_setup(2, 3, 500, 5);
        let layer = LayerDims::from_gemm(2, 3, 500);
        let tile = Tile::auto(&layer, 32);
        let cfg = AcceleratorConfig::maeri_like(32, 8);
        let (out, stats) = run_dense(&cfg, "gemm", &layer, &tile, &op);
        assert_slices_close(out.as_slice(), gemm_reference(&a, &b).as_slice());
        // 500/32-cluster = at least 16 folds of compute steps.
        assert!(stats.compute_cycles >= 16);
    }

    #[test]
    fn padding_addresses_do_not_count_as_fetches_or_mults() {
        // One 3×3 window over a padded 1×1 input: eight of nine taps pad.
        use stonne_tensor::Tensor4;
        let geom = Conv2dGeom::new(1, 1, 3, 3, 1, 1, 1);
        let input = Tensor4::from_vec(1, 1, 1, 1, vec![3.0]);
        let weights = Tensor4::from_vec(1, 1, 3, 3, vec![1.0; 9]);
        let op = crate::engine::conv_operand(&input, &weights, &geom, 0);
        assert_eq!(
            op.addrs.expand().iter().filter(|&&a| a != PAD_ADDR).count(),
            1
        );
        let layer = LayerDims::from_conv(&geom, 1, 1, 1);
        let tile = Tile::auto(&layer, 16);
        let cfg = AcceleratorConfig::maeri_like(16, 16);
        let (out, stats) = run_dense(&cfg, "conv", &layer, &tile, &op);
        assert_eq!(out.get(0, 0), 3.0);
        assert_eq!(stats.counters.multiplications, 1);
    }

    #[test]
    fn intra_tile_parallel_is_bitwise_identical_to_serial() {
        // The disjoint-tile invariant: fanning k-chunks across workers
        // must reproduce the serial walk exactly — same output bits, same
        // cycles, same counters, same breakdown.
        for (seed, dataflow) in [
            (41, Dataflow::WeightStationary),
            (42, Dataflow::OutputStationary),
            (43, Dataflow::InputStationary),
        ] {
            let (_, _, op) = gemm_setup(24, 13, 40, seed);
            let layer = LayerDims::from_gemm(24, 13, 40);
            let tile = Tile::auto(&layer, 32); // small array -> several k-chunks
            let mut cfg = AcceleratorConfig::maeri_like(32, 8);
            cfg.dataflow = dataflow;
            let (serial_out, serial) = run_dense(&cfg, "g", &layer, &tile, &op);
            for workers in [2, 4, 7] {
                let (par_out, par) = run_dense_with(&cfg, "g", &layer, &tile, &op, workers);
                assert_eq!(
                    serial_out.as_slice(),
                    par_out.as_slice(),
                    "{dataflow:?} x{workers}: outputs must be bitwise identical"
                );
                assert_eq!(serial, par, "{dataflow:?} x{workers}: stats must match");
            }
        }
    }

    /// The loop nest `functional` ran before the shared kernel, kept
    /// verbatim as its oracle: one output row at a time, a fold
    /// accumulator row swept over the `n` columns, one add per fold.
    fn compute_chunk_output(
        weights: &Matrix,
        inputs: &Matrix,
        cluster: usize,
        rows: std::ops::Range<usize>,
        out_rows: &mut [Elem],
        acc: &mut Vec<Elem>,
    ) {
        let k_len = weights.cols();
        let n = inputs.cols();
        let cluster = cluster.max(1);
        let folds = k_len.div_ceil(cluster);
        acc.resize(n, 0.0);
        let acc = &mut acc[..n];
        for (kf, out_row) in rows.zip(out_rows.chunks_mut(n)) {
            let w_row = weights.row(kf);
            for fold in 0..folds {
                let row_lo = fold * cluster;
                let row_hi = (row_lo + cluster).min(k_len);
                acc.fill(0.0);
                for (&wv, row) in w_row[row_lo..row_hi].iter().zip(row_lo..row_hi) {
                    let src = &inputs.row(row)[..n];
                    for (a, &x) in acc.iter_mut().zip(src) {
                        *a += wv * x;
                    }
                }
                for (o, &a) in out_row.iter_mut().zip(acc.iter()) {
                    *o += a;
                }
            }
        }
    }

    #[test]
    fn functional_equals_the_previous_loop_nest_bitwise() {
        // Ragged everywhere: rows and columns off the register block, a
        // ragged last fold, several filter chunks for the workers.
        for (seed, dataflow) in [
            (71, Dataflow::WeightStationary),
            (72, Dataflow::OutputStationary),
            (73, Dataflow::InputStationary),
        ] {
            for (m, n, k) in [(24, 13, 40), (7, 33, 61), (1, 1, 5)] {
                let (a, b, _) = gemm_setup(m, n, k, seed);
                let layer = LayerDims::from_gemm(m, n, k);
                let tile = Tile::auto(&layer, 32);
                let mut cfg = AcceleratorConfig::maeri_like(32, 8);
                cfg.dataflow = dataflow;
                let mut want = Matrix::zeros(m, n);
                if dataflow == Dataflow::InputStationary {
                    let (_, t_tile) = transposed_problem(&cfg, m, k, n);
                    let (cluster, mut t_out) = (t_tile.cluster_size(), Matrix::zeros(n, m));
                    let (w, x, block) = (b.transposed(), a.transposed(), t_out.as_mut_slice());
                    compute_chunk_output(&w, &x, cluster, 0..n, block, &mut Vec::new());
                    want = t_out.transposed();
                } else {
                    let (cluster, block) = (tile.cluster_size(), want.as_mut_slice());
                    compute_chunk_output(&a, &b, cluster, 0..m, block, &mut Vec::new());
                }
                for workers in [1, 3] {
                    let got = functional(&cfg, &tile, &a, &b, workers);
                    let label = format!("{dataflow:?} {m}x{n}x{k} x{workers}");
                    assert_eq!(bits(&got), bits(&want), "{label}");
                }
            }
        }
    }

    #[test]
    fn tile_cache_is_bitwise_invisible_and_collapses_width_classes() {
        // On-vs-off must agree on every stat except the tile counters
        // themselves, which the disabled side leaves at 0 (the output
        // pass never sees the context's switch).
        for (seed, dataflow) in [
            (51, Dataflow::WeightStationary),
            (52, Dataflow::OutputStationary),
            (53, Dataflow::InputStationary),
        ] {
            let (_, _, op) = gemm_setup(24, 13, 40, seed);
            let layer = LayerDims::from_gemm(24, 13, 40);
            let tile = Tile::auto(&layer, 32); // several k-chunks
            let mut cfg = AcceleratorConfig::maeri_like(32, 8);
            cfg.dataflow = dataflow;
            let off = accounting(&cfg, "g", &layer, &tile, &op.addrs, &SimContext::disabled());
            let on = accounting(&cfg, "g", &layer, &tile, &op.addrs, &SimContext::new());
            let mut stripped = on.clone();
            stripped.clear_host_counters();
            assert_eq!(off, stripped, "{dataflow:?}: only tile counters differ");
            // Many chunks collapse onto at most two width-class records.
            assert!(
                (1..=2).contains(&on.tile_cache_misses),
                "{dataflow:?}: misses {}",
                on.tile_cache_misses
            );
            assert!(on.tile_cache_hits > 0, "{dataflow:?}: chunks replay");
            assert_eq!(
                on.tile_cache_assembled,
                on.tile_cache_hits + on.tile_cache_misses,
                "{dataflow:?}"
            );
        }
    }

    #[test]
    fn full_bandwidth_single_cycle_steps_have_no_stalls() {
        // Regression for the `step - 1` vs `saturating_sub(1)` stall
        // idiom: when delivery fits in one cycle the stall terms are all
        // zero (and must not underflow).
        let (_, _, op) = gemm_setup(2, 2, 4, 44);
        let layer = LayerDims::from_gemm(2, 2, 4);
        let tile = Tile::auto(&layer, 64);
        let cfg = AcceleratorConfig::maeri_like(64, 64);
        let (_, stats) = run_dense(&cfg, "gemm", &layer, &tile, &op);
        assert_eq!(stats.bandwidth_stall_cycles, 0);
        assert_eq!(stats.breakdown.fifo_stall_cycles, 0);
        assert!(stats.cycles < 1_000, "underflow would explode the count");
    }

    #[test]
    fn shared_addresses_are_multicast_once() {
        // Two overlapping 1×2 windows over [5, 6, 7]: both read the 6.
        use stonne_tensor::Tensor4;
        let geom = Conv2dGeom::new(1, 1, 1, 2, 1, 0, 1);
        let input = Tensor4::from_vec(1, 1, 1, 3, vec![5.0, 6.0, 7.0]);
        let weights = Tensor4::from_vec(1, 1, 1, 2, vec![2.0, 1.0]);
        let op = crate::engine::conv_operand(&input, &weights, &geom, 0);
        assert_eq!(op.addrs.expand(), [0, 1, 1, 2]);
        let layer = LayerDims::from_conv(&geom, 1, 3, 1);
        let tile = Tile {
            t_r: 1,
            t_s: 2,
            t_c: 1,
            t_g: 1,
            t_k: 1,
            t_n: 1,
            t_xp: 1,
            t_yp: 2,
        };
        let cfg = AcceleratorConfig::maeri_like(16, 16);
        let (out, stats) = run_dense(&cfg, "conv", &layer, &tile, &op);
        assert_eq!(out.as_slice(), &[16.0, 19.0]);
        // 2 weight injections + 3 input injections (the 6 multicasts).
        assert_eq!(stats.counters.dn_injections, 5);
    }
}
