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

use crate::config::{AcceleratorConfig, Dataflow};
use crate::context::{EngineScratch as Scratch, SimContext};
use crate::mapping::{LayerDims, Tile};
use crate::networks::{DistributionNetwork, MultiplierNetwork, ReductionNetwork};
use crate::stats::SimStats;
use crate::trace::{Component, Probe};
use stonne_tensor::{Elem, Matrix};

/// Address marker for zero-padding taps (nothing is fetched).
pub const PAD_ADDR: u32 = u32::MAX;

/// One group's GEMM-lowered dense operand with Global-Buffer addresses.
#[derive(Debug, Clone)]
pub struct DenseOperand {
    /// Stationary weights, `M × K` (filters × dot length).
    pub weights: Matrix,
    /// Streaming inputs, `K × N` (dot length × output positions).
    pub inputs: Matrix,
    /// GB address of every `inputs` entry (row-major `K × N`);
    /// [`PAD_ADDR`] marks padding zeros that are never fetched.
    pub addrs: Vec<u32>,
}

impl DenseOperand {
    /// Builds a plain-GEMM operand where every input element has a unique
    /// address (no convolution reuse).
    pub fn from_gemm(weights: Matrix, inputs: Matrix) -> Self {
        let addrs = (0..inputs.len() as u32).collect();
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
/// the independent filter chunks (disjoint output-row tiles) fan across
/// that many scoped threads. Outputs, cycles, and statistics are
/// bitwise-identical to the serial run (see `docs/PERFORMANCE.md`);
/// tracing forces the serial path so timelines stay complete.
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
    run_dense_ctx(
        config,
        operation,
        layer,
        tile,
        operand,
        workers,
        &SimContext::new(),
    )
}

/// [`run_dense_with`] threaded through a shared [`SimContext`]: scratch
/// buffers come from its pool, and its switch selects between the
/// width-class collapse and the plain per-chunk walk. The public wrappers
/// use a fresh context per call; [`crate::Stonne`] threads its own so the
/// grown buffers serve every layer of a run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_dense_ctx(
    config: &AcceleratorConfig,
    operation: &str,
    layer: &LayerDims,
    tile: &Tile,
    operand: &DenseOperand,
    workers: usize,
    sim: &SimContext,
) -> (Matrix, SimStats) {
    let m = operand.weights.rows();
    let k_len = operand.weights.cols();
    let n = operand.inputs.cols();
    assert_eq!(operand.inputs.rows(), k_len, "operand inner dims disagree");
    assert_eq!(operand.addrs.len(), k_len * n, "address map size mismatch");
    tile.validate(layer, config.ms_size)
        .unwrap_or_else(|e| panic!("tile invalid for {operation}: {e}"));

    match config.dataflow {
        Dataflow::WeightStationary => run_weight_stationary(
            config, operation, layer, tile, operand, m, k_len, n, workers, sim,
        ),
        Dataflow::OutputStationary => run_output_stationary(
            config, operation, layer, tile, operand, m, k_len, n, workers, sim,
        ),
        Dataflow::InputStationary => {
            run_input_stationary(config, operation, layer, tile, operand, m, n, workers, sim)
        }
    }
}

/// Input-stationary execution: the roles of the operands swap — the
/// im2col columns (activations) pin to the multipliers and the weight
/// rows stream through the distribution network. Implemented by running
/// the weight-stationary engine on the transposed problem
/// (`Cᵀ = Bᵀ·Aᵀ`): the stationary operand is loaded once per mapping,
/// the streamed weights carry no reuse (each element is unique), which is
/// exactly the IS traffic pattern.
#[allow(clippy::too_many_arguments)]
fn run_input_stationary(
    config: &AcceleratorConfig,
    operation: &str,
    _layer: &LayerDims,
    _tile: &Tile,
    operand: &DenseOperand,
    m: usize,
    n: usize,
    workers: usize,
    sim: &SimContext,
) -> (Matrix, SimStats) {
    let k_len = operand.inputs.rows();
    let swapped =
        DenseOperand::from_gemm(operand.inputs.transposed(), operand.weights.transposed());
    // The transposed layer: the N activation columns become the stationary
    // "filters" and the M filters become streamed positions; the mapper
    // re-derives a tile for the transposed extents.
    let t_layer = LayerDims::from_gemm(n, m, k_len);
    let t_tile = Tile::auto_bw(&t_layer, config.ms_size, config.dn_bandwidth);
    let mut cfg = config.clone();
    cfg.dataflow = Dataflow::WeightStationary;
    let (out_t, mut stats) = run_weight_stationary(
        &cfg, operation, &t_layer, &t_tile, &swapped, n, k_len, m, workers, sim,
    );
    stats.operation = format!("{operation} [IS]");
    (out_t.transposed(), stats)
}

/// Recomputes the functional output of [`run_dense`] without cycle-level
/// simulation, mirroring the engine's exact f32 accumulation order (per
/// output: partial sums per fold, folds added in ascending order) so a
/// simulation-cache replay is bitwise identical to the engine's output.
pub(crate) fn replay_dense(
    config: &AcceleratorConfig,
    tile: &Tile,
    operand: &DenseOperand,
) -> Matrix {
    match config.dataflow {
        // WS and OS accumulate identically: one fold-slice partial sum at
        // a time, fold-ascending, rows ascending within a fold.
        Dataflow::WeightStationary | Dataflow::OutputStationary => {
            replay_rows(operand, tile.cluster_size())
        }
        // IS runs the weight-stationary engine on the transposed problem
        // with a re-derived tile; mirror that exactly.
        Dataflow::InputStationary => {
            let m = operand.weights.rows();
            let k_len = operand.inputs.rows();
            let n = operand.inputs.cols();
            let swapped =
                DenseOperand::from_gemm(operand.inputs.transposed(), operand.weights.transposed());
            let t_layer = LayerDims::from_gemm(n, m, k_len);
            let t_tile = Tile::auto_bw(&t_layer, config.ms_size, config.dn_bandwidth);
            replay_rows(&swapped, t_tile.cluster_size()).transposed()
        }
    }
}

/// The whole operand as one filter chunk of [`compute_chunk_output`] —
/// output rows are independent, so this equals the engine's per-chunk
/// calls bit for bit.
fn replay_rows(operand: &DenseOperand, cluster: usize) -> Matrix {
    let m = operand.weights.rows();
    let mut out = Matrix::zeros(m, operand.inputs.cols());
    compute_chunk_output(operand, cluster, 0, m, out.as_mut_slice(), &mut Vec::new());
    out
}

/// Computes a filter chunk's functional output (rows `k_lo..k_hi`, all
/// `n` columns) in the engine's exact accumulation order: per output,
/// rows ascending within a fold and one accumulator add into the output
/// per fold, folds ascending. Blocking over the output columns keeps
/// that order per output while making the inner sweep an independent
/// multiply-add over a contiguous row — instruction-parallel and
/// vectorizable, unlike a per-output latency-bound dot chain. Padding
/// taps multiply the stored zero, exactly as the per-element walk did.
fn compute_chunk_output(
    operand: &DenseOperand,
    cluster: usize,
    k_lo: usize,
    k_hi: usize,
    out_rows: &mut [Elem],
    acc: &mut Vec<Elem>,
) {
    let k_len = operand.weights.cols();
    let n = operand.inputs.cols();
    let cluster = cluster.max(1);
    let folds = k_len.div_ceil(cluster);
    acc.resize(n, 0.0);
    let acc = &mut acc[..n];
    for kf in k_lo..k_hi {
        let w_row = operand.weights.row(kf);
        let out_row = &mut out_rows[(kf - k_lo) * n..(kf - k_lo + 1) * n];
        for fold in 0..folds {
            let row_lo = fold * cluster;
            let row_hi = (row_lo + cluster).min(k_len);
            acc.fill(0.0);
            for (&wv, row) in w_row[row_lo..row_hi].iter().zip(row_lo..row_hi) {
                let src = &operand.inputs.row(row)[..n];
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

/// Counts `(unique, non_pad)` addresses in the given (rows × cols)
/// window: `unique` distinct fetches meet the DN bandwidth; `non_pad`
/// taps are the multiplications every filter of the chunk performs.
///
/// `trivial` short-circuits the sort for operands whose address map is
/// the identity (plain GEMM: every element distinct, no padding).
fn unique_inputs(
    operand: &DenseOperand,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    trivial: bool,
    scratch: &mut Vec<u32>,
) -> (usize, usize) {
    if trivial {
        let area = rows.len() * cols.len();
        return (area, area);
    }
    scratch.clear();
    for k in rows {
        let row = &operand.addrs[k * operand.inputs.cols()..(k + 1) * operand.inputs.cols()];
        scratch.extend(row[cols.clone()].iter().filter(|&&a| a != PAD_ADDR));
    }
    let non_pad = scratch.len();
    scratch.sort_unstable();
    scratch.dedup();
    (scratch.len(), non_pad)
}

/// Whether the address map is the identity permutation (the
/// [`DenseOperand::from_gemm`] layout): every input element is a unique
/// non-pad fetch, so window uniqueness needs no sorting.
pub(crate) fn has_trivial_addrs(operand: &DenseOperand) -> bool {
    operand
        .addrs
        .iter()
        .enumerate()
        .all(|(i, &a)| a == i as u32)
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

/// Loop-invariant context of a weight-stationary run, shared read-only
/// by every filter chunk (and, under intra-layer parallelism, by every
/// worker thread).
struct WsCtx<'a> {
    operand: &'a DenseOperand,
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
    trivial_addrs: bool,
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
/// beyond the additive cycle/stat totals — the disjoint-tile invariant
/// that makes intra-layer parallelism (and record assembly) bitwise-safe.
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
                    ctx.operand,
                    row_lo..row_hi,
                    pos..pos_hi,
                    ctx.trivial_addrs,
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
                // RN reduces all clusters in one pipelined step. The
                // functional f32 output was produced up front by
                // [`compute_chunk_output`] (same accumulation order);
                // here only the non-pad taps count as multiplier
                // activity.
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

#[allow(clippy::too_many_arguments)]
fn run_weight_stationary(
    config: &AcceleratorConfig,
    operation: &str,
    layer: &LayerDims,
    tile: &Tile,
    operand: &DenseOperand,
    m: usize,
    k_len: usize,
    n: usize,
    workers: usize,
    sim: &SimContext,
) -> (Matrix, SimStats) {
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
    let min_working_set = t_k * t_pos;
    let spill = min_working_set > acc_capacity;
    let chunks_per_block = if spill {
        pos_chunks.len().max(1)
    } else {
        ((acc_capacity / t_k).max(t_pos) / t_pos).max(1)
    };

    let ctx = WsCtx {
        operand,
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
        trivial_addrs: has_trivial_addrs(operand),
    };
    drive_filter_chunks(
        config,
        operation,
        tile,
        &ctx,
        m,
        workers,
        sim,
        ws_chunk_accounting,
    )
}

/// Shared chunk-walk driver of the WS and OS runs: computes every filter
/// chunk's functional output, then accounts timing either by width class
/// (one record per distinct chunk width, merged once per chunk,
/// chunk-ascending) or by the plain per-chunk walk. Tracing takes the
/// plain walk — spans carry absolute cycles, so a merged record would
/// drop them — which also keeps traces trivially identical either way.
#[allow(clippy::too_many_arguments)]
fn drive_filter_chunks(
    config: &AcceleratorConfig,
    operation: &str,
    tile: &Tile,
    ctx: &WsCtx<'_>,
    m: usize,
    workers: usize,
    sim: &SimContext,
    chunk_accounting: fn(&WsCtx<'_>, usize, &mut SimStats, u64, &mut Scratch) -> u64,
) -> (Matrix, SimStats) {
    let t_k = tile.t_k * tile.t_g;
    let n = ctx.n;
    let mut out = Matrix::zeros(m, n);
    let mut stats = SimStats {
        accelerator: config.name.clone(),
        operation: operation.to_owned(),
        ms_size: config.ms_size,
        ..SimStats::default()
    };
    let k_chunks = m.div_ceil(t_k);
    let chunk_bounds = |kc: usize| (kc * t_k, (kc * t_k + t_k).min(m));
    // Functional output of chunk `kc` into its block of output rows;
    // returns the chunk's width.
    let compute = |kc: usize, block: &mut [Elem], acc: &mut Vec<Elem>| {
        let (k_lo, k_hi) = chunk_bounds(kc);
        compute_chunk_output(ctx.operand, ctx.cluster, k_lo, k_hi, block, acc);
        k_hi - k_lo
    };

    if sim.tile_cache_enabled() && !crate::trace::is_active() {
        let mut scratch = sim.take_scratch();
        // Functional outputs: the exact per-chunk kernel, fanned out when
        // the worker budget allows (partial stats are not needed).
        if parallel_over(workers, k_chunks) {
            let blocks = out.as_mut_slice().chunks_mut(t_k * n);
            run_chunks_parallel(workers, k_chunks, blocks, sim, |kc, block, scratch| {
                compute(kc, block, &mut scratch.acc);
                SimStats::default()
            });
        } else {
            for (kc, block) in out.as_mut_slice().chunks_mut(t_k * n).enumerate() {
                compute(kc, block, &mut scratch.acc);
            }
        }
        // Timing: every chunk is `t_k` wide except a ragged last one, so
        // the width changes at most once along the walk and the record of
        // the current width class is all that has to be kept (at most two
        // accounting walks per invocation). Merging it once per chunk,
        // chunk-ascending, is the same deterministic order the
        // intra-layer parallel path uses, so cycles, counters and
        // breakdowns are bitwise-stable.
        let mut class = (0, SimStats::default());
        for kc in 0..k_chunks {
            let (k_lo, k_hi) = chunk_bounds(kc);
            let w = k_hi - k_lo;
            if w == class.0 {
                stats.tile_cache_hits += 1;
            } else {
                stats.tile_cache_misses += 1;
                let mut record = SimStats::default();
                record.cycles = chunk_accounting(ctx, w, &mut record, 0, &mut scratch);
                class = (w, record);
            }
            stats.merge(&class.1);
            stats.tile_cache_assembled += 1;
        }
        sim.put_scratch(scratch);
    } else if parallel_over(workers, k_chunks) {
        let blocks = out.as_mut_slice().chunks_mut(t_k * n);
        let partials = run_chunks_parallel(workers, k_chunks, blocks, sim, |kc, block, scratch| {
            let w = compute(kc, block, &mut scratch.acc);
            let mut local = SimStats::default();
            let cycles = chunk_accounting(ctx, w, &mut local, 0, scratch);
            SimStats { cycles, ..local }
        });
        for partial in &partials {
            stats.merge(partial);
        }
    } else {
        let mut cycles: u64 = 0;
        let mut scratch = sim.take_scratch();
        for (kc, block) in out.as_mut_slice().chunks_mut(t_k * n).enumerate() {
            let w = compute(kc, block, &mut scratch.acc);
            cycles = chunk_accounting(ctx, w, &mut stats, cycles, &mut scratch);
        }
        sim.put_scratch(scratch);
        stats.cycles = cycles;
    }
    (out, stats)
}

/// Whether a run with `workers` requested threads over `k_chunks`
/// independent filter chunks takes the intra-layer parallel path.
///
/// Tracing pins the run to one thread: the trace collector is
/// thread-local, so worker-thread spans would be silently dropped and
/// the serial path keeps timelines complete.
fn parallel_over(workers: usize, k_chunks: usize) -> bool {
    workers > 1 && k_chunks > 1 && !crate::trace::is_active()
}

/// Fans the `k_chunks` filter chunks (with their disjoint output-row
/// blocks) across `workers` scoped threads and returns the per-chunk
/// partial statistics in chunk order, so callers merge them
/// deterministically (chunk-ascending — the serial order).
fn run_chunks_parallel<'e, F>(
    workers: usize,
    k_chunks: usize,
    blocks: std::slice::ChunksMut<'e, Elem>,
    sim: &SimContext,
    chunk_fn: F,
) -> Vec<SimStats>
where
    F: Fn(usize, &mut [Elem], &mut Scratch) -> SimStats + Sync,
{
    let threads = workers.min(k_chunks);
    // Static round-robin assignment: deterministic and balanced (chunks
    // are uniform except the last).
    let mut per_thread: Vec<Vec<(usize, &mut [Elem])>> = (0..threads).map(|_| Vec::new()).collect();
    for (kc, block) in blocks.enumerate() {
        per_thread[kc % threads].push((kc, block));
    }
    let mut partials: Vec<Option<SimStats>> = (0..k_chunks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = per_thread
            .into_iter()
            .map(|assignment| {
                scope.spawn(|| {
                    let mut scratch = sim.take_scratch();
                    let locals = assignment
                        .into_iter()
                        .map(|(kc, block)| (kc, chunk_fn(kc, block, &mut scratch)))
                        .collect::<Vec<_>>();
                    sim.put_scratch(scratch);
                    locals
                })
            })
            .collect();
        for handle in handles {
            for (kc, local) in handle.join().expect("engine worker panicked") {
                partials[kc] = Some(local);
            }
        }
    });
    partials
        .into_iter()
        .map(|p| p.expect("every chunk simulated"))
        .collect()
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
                ctx.operand,
                row_lo..row_hi,
                pos..pos_hi,
                ctx.trivial_addrs,
                &mut scratch.addrs,
            );
            let w_unique = chunk_filters * fold_rows;
            let step = ctx.dn.delivery_cycles(uniq + w_unique).max(1);
            ctx.dn
                .account(&mut stats.counters, uniq + w_unique, fold_rows * chunk_pos);
            stats.counters.gb_reads += (uniq + w_unique) as u64;

            // Functional output handled up front by
            // [`compute_chunk_output`] (identical accumulation order:
            // rows ascending within a fold, folds ascending into the
            // pinned output).
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

#[allow(clippy::too_many_arguments)]
fn run_output_stationary(
    config: &AcceleratorConfig,
    operation: &str,
    layer: &LayerDims,
    tile: &Tile,
    operand: &DenseOperand,
    m: usize,
    k_len: usize,
    n: usize,
    workers: usize,
    sim: &SimContext,
) -> (Matrix, SimStats) {
    let dn = DistributionNetwork::new(config.dn, config.ms_size, config.dn_bandwidth);
    let mn = MultiplierNetwork::new(config.mn, config.ms_size);
    let rn = ReductionNetwork::new(config.rn, config.ms_size, config.rn_bandwidth);

    let cluster = tile.cluster_size();
    let t_pos = tile.t_n * tile.t_xp * tile.t_yp;
    let folds = k_len.div_ceil(cluster);

    let pos_chunks = position_chunks(layer, n, t_pos);
    let ctx = WsCtx {
        operand,
        dn,
        mn,
        rn,
        cluster,
        folds,
        k_len,
        n,
        pos_chunks: &pos_chunks,
        chunks_per_block: 1, // unused by the OS walk
        spill: false,        // outputs never spill: they are pinned
        trivial_addrs: has_trivial_addrs(operand),
    };
    drive_filter_chunks(
        config,
        operation,
        tile,
        &ctx,
        m,
        workers,
        sim,
        os_chunk_accounting,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
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
    fn replay_matches_engine_output_bitwise() {
        for (seed, dataflow) in [
            (31, Dataflow::WeightStationary),
            (32, Dataflow::OutputStationary),
            (33, Dataflow::InputStationary),
        ] {
            let (_, _, op) = gemm_setup(7, 11, 37, seed);
            let layer = LayerDims::from_gemm(7, 11, 37);
            let tile = Tile::auto(&layer, 64);
            let mut cfg = AcceleratorConfig::maeri_like(64, 16);
            cfg.dataflow = dataflow;
            let (out, _) = run_dense(&cfg, "g", &layer, &tile, &op);
            let replay = replay_dense(&cfg, &tile, &op);
            // Bitwise, not approximate: the replay mirrors the engine's
            // exact accumulation order.
            assert_eq!(out.as_slice(), replay.as_slice(), "{dataflow:?}");
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
        // One 2-tap dot product where the second tap is padding.
        let weights = Matrix::from_rows(&[&[1.0, 1.0]]);
        let inputs = Matrix::from_rows(&[&[3.0], &[0.0]]);
        let op = DenseOperand {
            weights,
            inputs,
            addrs: vec![0, PAD_ADDR],
        };
        let layer = LayerDims::from_gemm(1, 1, 2);
        let tile = Tile::auto(&layer, 16);
        let cfg = AcceleratorConfig::maeri_like(16, 16);
        let (out, stats) = run_dense(&cfg, "gemm", &layer, &tile, &op);
        assert_eq!(out.get(0, 0), 3.0);
        assert_eq!(stats.counters.multiplications, 1);
    }

    #[test]
    fn intra_layer_parallel_is_bitwise_identical_to_serial() {
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

    #[test]
    fn tile_cache_is_bitwise_invisible_and_collapses_width_classes() {
        // On-vs-off must agree on output bits and every stat except the
        // tile counters themselves, which the disabled side leaves at 0.
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
            let (off_out, off) =
                run_dense_ctx(&cfg, "g", &layer, &tile, &op, 1, &SimContext::disabled());
            let (on_out, on) = run_dense_ctx(&cfg, "g", &layer, &tile, &op, 1, &SimContext::new());
            assert_eq!(off_out.as_slice(), on_out.as_slice(), "{dataflow:?}");
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
        // Two positions reading the same GB address: delivery counts 1.
        let weights = Matrix::from_rows(&[&[2.0]]);
        let inputs = Matrix::from_rows(&[&[5.0, 5.0]]);
        let op = DenseOperand {
            weights,
            inputs,
            addrs: vec![7, 7],
        };
        let layer = LayerDims::from_gemm(1, 2, 1);
        let tile = Tile {
            t_r: 1,
            t_s: 1,
            t_c: 1,
            t_g: 1,
            t_k: 1,
            t_n: 1,
            t_xp: 1,
            t_yp: 2,
        };
        let cfg = AcceleratorConfig::maeri_like(16, 16);
        let (out, stats) = run_dense(&cfg, "gemm", &layer, &tile, &op);
        assert_eq!(out.as_slice(), &[10.0, 10.0]);
        // 1 weight injection + 1 multicast input injection.
        assert_eq!(stats.counters.dn_injections, 2);
    }
}
