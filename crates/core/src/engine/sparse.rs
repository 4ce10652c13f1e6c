//! Cycle-level engine for sparse flexible accelerators (SIGMA-like
//! compositions: Benes DN + disabled MN + FAN RN + sparse controller).
//!
//! # Execution model
//!
//! The sparse controller receives the stationary MK operand in bitmap or
//! CSR form and the streaming KN operand dense. Each MK row's non-zeros
//! form one variable-size cluster (the paper's dynamic dot-product
//! partition); rows longer than the array fold into segments whose partial
//! sums accumulate at the collector.
//!
//! Per mapping iteration the controller packs as many row segments as fit
//! (in the order a [`RowSchedule`] dictates — the hook use case 3 exploits),
//! loads their non-zero weights through the Benes network, then streams
//! each KN column: the *union* of stationary column indices decides how
//! many distinct input elements must be delivered (multicast covers
//! duplicates), the FAN tree reduces every cluster in parallel, and the
//! finished outputs leave through the collection ports.
//!
//! For degenerate streaming extents (GEMV-like shapes) the controller
//! switches to an input-stationary mapping — holding the KN column and
//! streaming weight rows one dispatch per cycle — whenever its cycle
//! estimate wins, as SIGMA's flexible substrate allows.

use crate::config::{AcceleratorConfig, SparseFormat};
use crate::networks::{ceil_log2, DistributionNetwork, ReductionNetwork};
use crate::stats::SimStats;
use crate::trace::{Component, Probe};
use stonne_tensor::{CsrMatrix, Elem, Matrix};

/// Order in which the sparse controller issues filters (MK rows).
///
/// The default [`NaturalOrder`] is the paper's *No Scheduling* baseline;
/// use case 3 implements Largest-Filter-First and Random orders on top of
/// this hook.
pub trait RowSchedule {
    /// Returns the issue order as a permutation of `0..row_nnz.len()`,
    /// given each row's non-zero count.
    fn order(&self, row_nnz: &[usize]) -> Vec<usize>;

    /// Human-readable policy name for the stats output.
    fn name(&self) -> &str;

    /// Whether the controller may skip past a filter that does not fit the
    /// remaining multipliers and map a later (smaller) one instead.
    ///
    /// The paper's LFF heuristic "selects a smaller filter when another
    /// one does not fit"; the NS/RDM baselines issue strictly in order.
    fn allow_skip(&self) -> bool {
        false
    }

    /// Stable identity token for simulation-cache keys.
    ///
    /// Two schedules with the same token must produce the same `order`
    /// for the same `row_nnz` input. The default (the policy name) is
    /// right for parameterless policies; parameterized schedules (seeded
    /// shuffles, array-size-aware packers) must fold their parameters in.
    fn cache_token(&self) -> String {
        self.name().to_owned()
    }
}

/// Issue rows in their natural (model) order — the NS baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaturalOrder;

impl RowSchedule for NaturalOrder {
    fn order(&self, row_nnz: &[usize]) -> Vec<usize> {
        (0..row_nnz.len()).collect()
    }

    fn name(&self) -> &str {
        "NS"
    }
}

/// One row segment mapped onto the array.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Source MK row.
    row: usize,
    /// Offset of this segment inside the row's non-zero list.
    start: usize,
    /// Non-zeros in this segment.
    len: usize,
    /// Whether previous segments of the row already produced a psum.
    accumulate: bool,
}

/// Statistics of one packing iteration (exposed for the Fig. 7/9
/// analyses; serializable so the disk store can persist sparse entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct IterationInfo {
    /// Segments (filters or filter folds) mapped.
    pub segments: usize,
    /// Multipliers occupied.
    pub ms_occupied: usize,
    /// Distinct stationary column indices (streaming fetch width).
    pub distinct_k: usize,
}

/// Result of a sparse run: output, stats, and per-iteration packing info.
#[derive(Debug, Clone)]
pub struct SparseRun {
    /// The `M × N` output.
    pub output: Matrix,
    /// Cycle-level statistics.
    pub stats: SimStats,
    /// Packing info per iteration (weight-stationary mode only).
    pub iterations: Vec<IterationInfo>,
    /// Whether the GEMV input-stationary mode was chosen.
    pub input_stationary: bool,
}

/// Packs row segments into iterations in schedule order. Without
/// skip-ahead this is take-while-fits (the strict issue discipline of the
/// NS/RDM baselines); with skip-ahead the controller fills residual
/// multipliers with the next segment that fits, in schedule order (the
/// LFF discipline). Rows longer than `ms_size` fold into segments.
fn pack_segments(
    order: &[usize],
    row_nnz: &[usize],
    ms_size: usize,
    allow_skip: bool,
) -> Vec<Vec<Segment>> {
    // Expand rows into fold segments, in schedule order.
    let mut pending: Vec<Segment> = Vec::new();
    for &row in order {
        let nnz = row_nnz[row];
        if nnz == 0 {
            continue; // zero filters produce zero outputs directly
        }
        let mut start = 0;
        while start < nnz {
            let len = (nnz - start).min(ms_size);
            pending.push(Segment {
                row,
                start,
                len,
                accumulate: start > 0,
            });
            start += len;
        }
    }

    let mut iterations: Vec<Vec<Segment>> = Vec::new();
    let mut taken = vec![false; pending.len()];
    let mut remaining = pending.len();
    let mut cursor = 0;
    while remaining > 0 {
        let mut current: Vec<Segment> = Vec::new();
        let mut used = 0usize;
        // Advance past consumed segments.
        while cursor < pending.len() && taken[cursor] {
            cursor += 1;
        }
        let mut i = cursor;
        while i < pending.len() {
            if !taken[i] {
                let len = pending[i].len;
                if used + len <= ms_size {
                    taken[i] = true;
                    remaining -= 1;
                    used += len;
                    current.push(pending[i]);
                } else if !allow_skip {
                    break;
                }
            }
            i += 1;
            if used == ms_size {
                break;
            }
        }
        debug_assert!(!current.is_empty(), "packing made no progress");
        iterations.push(current);
    }
    iterations
}

/// Closed-form cycle count of the weight-stationary sparse run from the
/// controller's packing metadata alone — the per-iteration walk of
/// [`run_weight_stationary`] (stationary load, `n` uniform streaming
/// steps, FAN drain) replayed without any functional compute. `None`
/// when the mapping would take a path this mirror does not cover
/// (activation-sparsity mode, the input-stationary GEMV path, or a
/// cluster-incapable reduction network).
///
/// Mirrors the mapper's dataflow decision without running either
/// engine: `true` when [`run_spmm`] would take the input-stationary
/// GEMV path. The predictor fast path uses this to replay outputs in
/// the accumulation order the engine would have produced.
pub(crate) fn dispatches_input_stationary(
    config: &AcceleratorConfig,
    a: &CsrMatrix,
    n: usize,
    schedule: &dyn RowSchedule,
) -> bool {
    let row_nnz: Vec<usize> = (0..a.rows()).map(|r| a.row_nnz(r)).collect();
    let order = schedule.order(&row_nnz);
    estimate_input_stationary(config, &row_nnz, a.cols(), n)
        < estimate_weight_stationary(config, &order, &row_nnz, n)
}

/// Feature extraction uses this as an exact analytical prior: it costs
/// `O(nnz log nnz)` versus the engine's `O(nnz·n)`.
pub(crate) fn ws_metadata_cycles(
    config: &AcceleratorConfig,
    a: &CsrMatrix,
    n: usize,
    schedule: &dyn RowSchedule,
) -> Option<u64> {
    if config.exploit_activation_sparsity {
        return None;
    }
    let rn = ReductionNetwork::new(config.rn, config.ms_size, config.rn_bandwidth);
    if !rn.supports_clusters() {
        return None;
    }
    let m = a.rows();
    let row_nnz: Vec<usize> = (0..m).map(|r| a.row_nnz(r)).collect();
    let order = schedule.order(&row_nnz);
    if estimate_input_stationary(config, &row_nnz, a.cols(), n)
        < estimate_weight_stationary(config, &order, &row_nnz, n)
    {
        return None;
    }
    let dn = DistributionNetwork::new(config.dn, config.ms_size, config.dn_bandwidth);
    let iterations = pack_segments(&order, &row_nnz, config.ms_size, schedule.allow_skip());
    let mut cycles = 0u64;
    let mut ks: Vec<usize> = Vec::new();
    for segments in &iterations {
        let occupied: usize = segments.iter().map(|s| s.len).sum();
        cycles += dn.delivery_cycles(occupied).max(1);
        ks.clear();
        for s in segments {
            ks.extend(
                a.row_entries(s.row)
                    .skip(s.start)
                    .take(s.len)
                    .map(|(k, _)| k),
            );
        }
        ks.sort_unstable();
        ks.dedup();
        let collect = rn.collection_cycles(segments.len());
        let step = dn.delivery_cycles(ks.len()).max(1).max(collect);
        let max_cluster = segments.iter().map(|s| s.len).max().unwrap_or(1);
        let drain = rn.reduce_uniform(max_cluster, segments.len()).latency + 1;
        cycles += step * n as u64 + drain;
    }
    Some(cycles)
}

/// Runs `C = A_sparse (M×K) × B (K×N)` on the sparse composition.
///
/// # Panics
///
/// Panics if inner dimensions disagree or the configuration lacks a
/// cluster-capable reduction network.
pub fn run_spmm(
    config: &AcceleratorConfig,
    operation: &str,
    a: &CsrMatrix,
    b: &Matrix,
    schedule: &dyn RowSchedule,
) -> SparseRun {
    assert_eq!(a.cols(), b.rows(), "SpMM inner dimension mismatch");
    let rn = ReductionNetwork::new(config.rn, config.ms_size, config.rn_bandwidth);
    assert!(
        rn.supports_clusters(),
        "sparse controller needs a cluster-capable RN"
    );
    let (m, n) = (a.rows(), b.cols());
    let row_nnz: Vec<usize> = (0..m).map(|r| a.row_nnz(r)).collect();
    let order = schedule.order(&row_nnz);
    assert_eq!(order.len(), m, "schedule must permute all rows");

    // Mapper: estimate both dataflows and keep the cheaper one.
    let ws_estimate = estimate_weight_stationary(config, &order, &row_nnz, n);
    let is_estimate = estimate_input_stationary(config, &row_nnz, a.cols(), n);
    if is_estimate < ws_estimate {
        run_input_stationary(config, operation, a, b, &row_nnz)
    } else {
        run_weight_stationary(config, operation, a, b, &order, &row_nnz, schedule)
    }
}

fn estimate_weight_stationary(
    config: &AcceleratorConfig,
    order: &[usize],
    row_nnz: &[usize],
    n: usize,
) -> u64 {
    let iters = pack_segments(order, row_nnz, config.ms_size, false).len() as u64;
    iters * (1 + n as u64) + iters * (ceil_log2(config.ms_size) as u64 + 1)
}

fn estimate_input_stationary(
    config: &AcceleratorConfig,
    row_nnz: &[usize],
    k: usize,
    n: usize,
) -> u64 {
    if n != 1 || k > config.ms_size {
        return u64::MAX;
    }
    let dispatches: u64 = row_nnz
        .iter()
        .map(|&nnz| (nnz as u64).div_ceil(config.dn_bandwidth as u64).max(1))
        .sum();
    (k as u64).div_ceil(config.dn_bandwidth as u64) + dispatches + ceil_log2(config.ms_size) as u64
}

fn run_weight_stationary(
    config: &AcceleratorConfig,
    operation: &str,
    a: &CsrMatrix,
    b: &Matrix,
    order: &[usize],
    row_nnz: &[usize],
    schedule: &dyn RowSchedule,
) -> SparseRun {
    let dn = DistributionNetwork::new(config.dn, config.ms_size, config.dn_bandwidth);
    let rn = ReductionNetwork::new(config.rn, config.ms_size, config.rn_bandwidth);
    let (m, n) = (a.rows(), b.cols());
    let mut out = Matrix::zeros(m, n);
    let mut stats = SimStats {
        accelerator: config.name.clone(),
        operation: format!("{operation} [{}]", schedule.name()),
        ms_size: config.ms_size,
        ..SimStats::default()
    };
    let mut cycles: u64 = 0;
    let mut iter_infos = Vec::new();
    let iterations = pack_segments(order, row_nnz, config.ms_size, schedule.allow_skip());
    let ctrl = Probe::new(Component::Controller);
    let dn_probe = Probe::new(Component::DistributionNetwork);
    let mn_probe = Probe::new(Component::MultiplierNetwork);
    let rn_probe = Probe::new(Component::ReductionNetwork);

    // Cache row entries once (CSR walk is the controller's metadata read)
    // and transpose the streaming operand once so every column of the
    // steady-state loop is a contiguous slice.
    let rows: Vec<Vec<(usize, Elem)>> = (0..m).map(|r| a.row_entries(r).collect()).collect();
    let bt = b.transposed();

    // The activation-sparsity (dual) mode reads streaming values per
    // column; without it every column of an iteration costs the same and
    // the accounting is charged in bulk.
    let dual = config.exploit_activation_sparsity;

    for segments in &iterations {
        let occupied: usize = segments.iter().map(|s| s.len).sum();

        if !dual {
            uniform_functional(&mut out, &bt, &rows, segments, n);
            let (end, distinct_k) =
                ws_iteration_accounting(&dn, &rn, &rows, segments, occupied, n, &mut stats, cycles);
            cycles = end;
            iter_infos.push(IterationInfo {
                segments: segments.len(),
                ms_occupied: occupied,
                distinct_k,
            });
            continue;
        }

        // Activation-sparsity (dual) mode: per-column delivery depends on
        // the streaming values, so the walk stays fully inline.
        // Stationary load: every non-zero weight is a distinct value.
        let load_cycles = dn.delivery_cycles(occupied).max(1);
        ctrl.span("load-weights", cycles, cycles + load_cycles);
        dn_probe.span("weights", cycles, cycles + load_cycles);
        stats.breakdown.fill_cycles += load_cycles;
        cycles += load_cycles;
        dn.account(&mut stats.counters, occupied, occupied);
        stats.counters.gb_reads += occupied as u64;
        stats.counters.metadata_reads += segments.len() as u64 + occupied as u64;

        // Union of stationary column indices = streaming fetch width.
        let mut ks: Vec<usize> = segments
            .iter()
            .flat_map(|s| {
                rows[s.row][s.start..s.start + s.len]
                    .iter()
                    .map(|(k, _)| *k)
            })
            .collect();
        ks.sort_unstable();
        ks.dedup();
        let distinct_k = ks.len();
        iter_infos.push(IterationInfo {
            segments: segments.len(),
            ms_occupied: occupied,
            distinct_k,
        });

        let cluster_sizes: Vec<usize> = segments.iter().map(|s| s.len).collect();
        let outcome = rn.reduce(&cluster_sizes);
        let collect = rn.collection_cycles(segments.len());

        // Streaming phase: one pipelined step per KN column; only the
        // column's non-zero inputs among the stationary indices are
        // delivered and multiplied.
        let stream_start = cycles;
        {
            for col in 0..n {
                let bcol = bt.row(col);
                let delivered = ks.iter().filter(|&&k| bcol[k] != 0.0).count();
                let mut col_mults: u64 = 0;
                for seg in segments {
                    let mut acc: Elem = 0.0;
                    for &(k, w) in &rows[seg.row][seg.start..seg.start + seg.len] {
                        let x = bcol[k];
                        if x != 0.0 {
                            col_mults += 1;
                        }
                        acc += w * x;
                    }
                    let cur = out.get(seg.row, col);
                    out.set(seg.row, col, cur + acc);
                    if seg.accumulate {
                        stats.counters.accumulator_updates += 1;
                    }
                }
                let step = dn.delivery_cycles(delivered).max(1).max(collect);
                stats.counters.multiplications += col_mults;
                stats.ms_busy_cycles += col_mults;
                stats.counters.rn_adder_ops += outcome.adder_ops;
                stats.counters.rn_collections += segments.len() as u64;
                stats.counters.gb_writes += segments.len() as u64;
                dn.account(&mut stats.counters, delivered, occupied);
                stats.counters.gb_reads += delivered as u64;
                stats.counters.metadata_reads += 1; // column bitmap word
                let deliver_floor = dn.delivery_cycles(delivered).max(1);
                stats.breakdown.steady_cycles += 1;
                stats.breakdown.fifo_stall_cycles += deliver_floor.saturating_sub(1);
                stats.breakdown.reduction_stall_cycles += step - deliver_floor;
                cycles += step;
                stats.compute_cycles += 1;
                stats.bandwidth_stall_cycles += step.saturating_sub(1);
            }
        }
        ctrl.span("stream", stream_start, cycles);
        mn_probe.span("compute", stream_start, cycles);

        // FAN pipeline fill/drain between reconfigurations (same reduce
        // outcome as the streaming steps — memoized above).
        let drain = outcome.latency + 1;
        ctrl.span("drain", cycles, cycles + drain);
        rn_probe.span("drain", cycles, cycles + drain);
        stats.breakdown.drain_cycles += drain;
        cycles += drain;
        stats.iterations += 1;
    }

    stats.cycles = cycles;
    SparseRun {
        output: out,
        stats,
        iterations: iter_infos,
        input_stationary: false,
    }
}

/// Functional outputs of one uniform-branch packing iteration, column by
/// column in the exact engine accumulation order (segment partial sums
/// applied in packing order).
fn uniform_functional(
    out: &mut Matrix,
    bt: &Matrix,
    rows: &[Vec<(usize, Elem)>],
    segments: &[Segment],
    n: usize,
) {
    for col in 0..n {
        let bcol = bt.row(col);
        for seg in segments {
            let mut acc: Elem = 0.0;
            for &(k, w) in &rows[seg.row][seg.start..seg.start + seg.len] {
                acc += w * bcol[k];
            }
            let cur = out.get(seg.row, col);
            out.set(seg.row, col, cur + acc);
        }
    }
}

/// Timing/activity of one uniform-branch packing iteration: stationary
/// load, the distinct-k union, `n` identical streaming steps charged in
/// bulk, and the FAN drain. Starts at absolute cycle `cycles` (trace
/// spans are absolute); returns `(end_cycle, distinct_k)`. Never reads
/// streaming values.
#[allow(clippy::too_many_arguments)]
fn ws_iteration_accounting(
    dn: &DistributionNetwork,
    rn: &ReductionNetwork,
    rows: &[Vec<(usize, Elem)>],
    segments: &[Segment],
    occupied: usize,
    n: usize,
    stats: &mut SimStats,
    mut cycles: u64,
) -> (u64, usize) {
    let ctrl = Probe::new(Component::Controller);
    let dn_probe = Probe::new(Component::DistributionNetwork);
    let mn_probe = Probe::new(Component::MultiplierNetwork);
    let rn_probe = Probe::new(Component::ReductionNetwork);

    // Stationary load: every non-zero weight is a distinct value.
    let load_cycles = dn.delivery_cycles(occupied).max(1);
    ctrl.span("load-weights", cycles, cycles + load_cycles);
    dn_probe.span("weights", cycles, cycles + load_cycles);
    stats.breakdown.fill_cycles += load_cycles;
    cycles += load_cycles;
    dn.account(&mut stats.counters, occupied, occupied);
    stats.counters.gb_reads += occupied as u64;
    stats.counters.metadata_reads += segments.len() as u64 + occupied as u64;

    // Union of stationary column indices = streaming fetch width.
    let mut ks: Vec<usize> = segments
        .iter()
        .flat_map(|s| {
            rows[s.row][s.start..s.start + s.len]
                .iter()
                .map(|(k, _)| *k)
        })
        .collect();
    ks.sort_unstable();
    ks.dedup();
    let distinct_k = ks.len();

    let cluster_sizes: Vec<usize> = segments.iter().map(|s| s.len).collect();
    let outcome = rn.reduce(&cluster_sizes);
    let collect = rn.collection_cycles(segments.len());

    // Every column delivers the same `distinct_k` inputs and multiplies
    // every mapped non-zero, so the per-column accounting is uniform: add
    // the n identical step costs in bulk.
    let stream_start = cycles;
    let n64 = n as u64;
    let step = dn.delivery_cycles(distinct_k).max(1).max(collect);
    let deliver_floor = dn.delivery_cycles(distinct_k).max(1);
    let accumulating = segments.iter().filter(|s| s.accumulate).count() as u64;
    stats.counters.accumulator_updates += accumulating * n64;
    stats.counters.multiplications += occupied as u64 * n64;
    stats.ms_busy_cycles += occupied as u64 * n64;
    stats.counters.rn_adder_ops += outcome.adder_ops * n64;
    stats.counters.rn_collections += segments.len() as u64 * n64;
    stats.counters.gb_writes += segments.len() as u64 * n64;
    // The DN activity formulas are linear in (unique, dests), so one bulk
    // call equals n per-column calls.
    dn.account(&mut stats.counters, distinct_k * n, occupied * n);
    stats.counters.gb_reads += distinct_k as u64 * n64;
    stats.breakdown.steady_cycles += n64;
    stats.breakdown.fifo_stall_cycles += deliver_floor.saturating_sub(1) * n64;
    stats.breakdown.reduction_stall_cycles += (step - deliver_floor) * n64;
    cycles += step * n64;
    stats.compute_cycles += n64;
    stats.bandwidth_stall_cycles += step.saturating_sub(1) * n64;
    ctrl.span("stream", stream_start, cycles);
    mn_probe.span("compute", stream_start, cycles);

    // FAN pipeline fill/drain between reconfigurations (same reduce
    // outcome as the streaming steps — memoized above).
    let drain = outcome.latency + 1;
    ctrl.span("drain", cycles, cycles + drain);
    rn_probe.span("drain", cycles, cycles + drain);
    stats.breakdown.drain_cycles += drain;
    cycles += drain;
    stats.iterations += 1;
    (cycles, distinct_k)
}

fn run_input_stationary(
    config: &AcceleratorConfig,
    operation: &str,
    a: &CsrMatrix,
    b: &Matrix,
    row_nnz: &[usize],
) -> SparseRun {
    let dn = DistributionNetwork::new(config.dn, config.ms_size, config.dn_bandwidth);
    let rn = ReductionNetwork::new(config.rn, config.ms_size, config.rn_bandwidth);
    let (m, k) = (a.rows(), a.cols());
    debug_assert_eq!(b.cols(), 1);
    let mut out = Matrix::zeros(m, 1);
    let mut stats = SimStats {
        accelerator: config.name.clone(),
        operation: format!("{operation} [IS]"),
        ms_size: config.ms_size,
        ..SimStats::default()
    };

    let ctrl = Probe::new(Component::Controller);
    let dn_probe = Probe::new(Component::DistributionNetwork);
    let rn_probe = Probe::new(Component::ReductionNetwork);

    // Load the dense input column stationary across the array.
    let mut cycles = (k as u64).div_ceil(config.dn_bandwidth as u64).max(1);
    ctrl.span("load-inputs", 0, cycles);
    dn_probe.span("inputs", 0, cycles);
    stats.breakdown.fill_cycles += cycles;
    dn.account(&mut stats.counters, k, k);
    stats.counters.gb_reads += k as u64;
    let stream_start = cycles;

    // Stream weight rows: one row dispatch per cycle minimum (metadata
    // decode granularity), more when a row exceeds the bandwidth.
    for (row, &nnz) in row_nnz.iter().enumerate().take(m) {
        if nnz == 0 {
            continue;
        }
        let mut acc: Elem = 0.0;
        for (kk, w) in a.row_entries(row) {
            acc += w * b.get(kk, 0);
        }
        out.set(row, 0, acc);

        let dispatch = (nnz as u64).div_ceil(config.dn_bandwidth as u64).max(1);
        cycles += dispatch;
        stats.compute_cycles += 1;
        stats.bandwidth_stall_cycles += dispatch.saturating_sub(1);
        stats.breakdown.steady_cycles += 1;
        stats.breakdown.fifo_stall_cycles += dispatch.saturating_sub(1);
        stats.counters.multiplications += nnz as u64;
        stats.ms_busy_cycles += nnz as u64;
        dn.account(&mut stats.counters, nnz, nnz);
        stats.counters.gb_reads += nnz as u64;
        stats.counters.metadata_reads += 1 + nnz as u64;
        let outcome = rn.reduce(&[nnz]);
        stats.counters.rn_adder_ops += outcome.adder_ops;
        stats.counters.rn_collections += 1;
        stats.counters.gb_writes += 1;
        stats.iterations += 1;
    }
    ctrl.span("stream", stream_start, cycles);
    let drain = ceil_log2(config.ms_size) as u64 + 1;
    ctrl.span("drain", cycles, cycles + drain);
    rn_probe.span("drain", cycles, cycles + drain);
    stats.breakdown.drain_cycles += drain;
    cycles += drain;

    stats.cycles = cycles;
    SparseRun {
        output: out,
        stats,
        iterations: Vec::new(),
        input_stationary: true,
    }
}

/// Recomputes the functional output of [`run_spmm`] without cycle-level
/// simulation, mirroring the engine's exact f32 accumulation order
/// (segment partial sums applied in packing order) so a simulation-cache
/// replay is bitwise identical to the engine's output.
///
/// `input_stationary` must be the mode the original run chose (it is
/// recorded in the cache entry); the two modes visit elements in
/// different orders.
pub(crate) fn replay_spmm(
    config: &AcceleratorConfig,
    a: &CsrMatrix,
    b: &Matrix,
    schedule: &dyn RowSchedule,
    input_stationary: bool,
) -> Matrix {
    let (m, n) = (a.rows(), b.cols());
    let row_nnz: Vec<usize> = (0..m).map(|r| a.row_nnz(r)).collect();
    if input_stationary {
        let mut out = Matrix::zeros(m, 1);
        for (row, &nnz) in row_nnz.iter().enumerate() {
            if nnz == 0 {
                continue;
            }
            let mut acc: Elem = 0.0;
            for (kk, w) in a.row_entries(row) {
                acc += w * b.get(kk, 0);
            }
            out.set(row, 0, acc);
        }
        return out;
    }
    let order = schedule.order(&row_nnz);
    let iterations = pack_segments(&order, &row_nnz, config.ms_size, schedule.allow_skip());
    let rows: Vec<Vec<(usize, Elem)>> = (0..m).map(|r| a.row_entries(r).collect()).collect();
    let mut out = Matrix::zeros(m, n);
    for segments in &iterations {
        for col in 0..n {
            for seg in segments {
                let mut acc: Elem = 0.0;
                for &(k, w) in &rows[seg.row][seg.start..seg.start + seg.len] {
                    acc += w * b.get(k, col);
                }
                let cur = out.get(seg.row, col);
                out.set(seg.row, col, cur + acc);
            }
        }
    }
    out
}

/// Runs an SpMM whose stationary operand arrives in the configured sparse
/// format: bitmap operands are decoded to CSR first (the controller reads
/// the bitmap words; accounted as metadata traffic).
pub fn run_spmm_auto_format(
    config: &AcceleratorConfig,
    operation: &str,
    a_dense: &Matrix,
    b: &Matrix,
    schedule: &dyn RowSchedule,
) -> SparseRun {
    let csr = CsrMatrix::from_dense(a_dense);
    let mut run = run_spmm(config, operation, &csr, b, schedule);
    if config.sparse_format == SparseFormat::Bitmap {
        // Bitmap decode touches one metadata word per 16 elements.
        run.stats.counters.metadata_reads += (a_dense.len() as u64).div_ceil(16);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use stonne_tensor::{assert_slices_close, gemm_reference, spmm_reference, SeededRng};

    fn sparse_a(m: usize, k: usize, sparsity: f64, seed: u64) -> Matrix {
        let mut rng = SeededRng::new(seed);
        let mut a = Matrix::random(m, k, &mut rng);
        for r in 0..m {
            for c in 0..k {
                if rng.chance(sparsity) {
                    a.set(r, c, 0.0);
                }
            }
        }
        a
    }

    #[test]
    fn functional_matches_reference_dense() {
        let a = sparse_a(8, 16, 0.0, 1);
        let mut rng = SeededRng::new(2);
        let b = Matrix::random(16, 5, &mut rng);
        let cfg = AcceleratorConfig::sigma_like(64, 64);
        let run = run_spmm(&cfg, "spmm", &CsrMatrix::from_dense(&a), &b, &NaturalOrder);
        assert_slices_close(run.output.as_slice(), gemm_reference(&a, &b).as_slice());
    }

    #[test]
    fn functional_matches_reference_sparse() {
        let a = sparse_a(12, 20, 0.7, 3);
        let mut rng = SeededRng::new(4);
        let b = Matrix::random(20, 7, &mut rng);
        let cfg = AcceleratorConfig::sigma_like(32, 32);
        let csr = CsrMatrix::from_dense(&a);
        let run = run_spmm(&cfg, "spmm", &csr, &b, &NaturalOrder);
        assert_slices_close(run.output.as_slice(), spmm_reference(&csr, &b).as_slice());
    }

    #[test]
    fn sparsity_reduces_cycles() {
        let mut rng = SeededRng::new(5);
        let b = Matrix::random(64, 32, &mut rng);
        let cfg = AcceleratorConfig::sigma_like(128, 128);
        let dense = sparse_a(64, 64, 0.0, 6);
        let sparse = sparse_a(64, 64, 0.8, 6);
        let r_dense = run_spmm(&cfg, "d", &CsrMatrix::from_dense(&dense), &b, &NaturalOrder);
        let r_sparse = run_spmm(
            &cfg,
            "s",
            &CsrMatrix::from_dense(&sparse),
            &b,
            &NaturalOrder,
        );
        assert!(
            r_sparse.stats.cycles < r_dense.stats.cycles,
            "sparse {} !< dense {}",
            r_sparse.stats.cycles,
            r_dense.stats.cycles
        );
        assert!(r_sparse.stats.counters.multiplications < r_dense.stats.counters.multiplications);
    }

    #[test]
    fn long_rows_fold_and_accumulate() {
        // K = 100 > 32 MS: every row folds into 4 segments.
        let a = sparse_a(2, 100, 0.0, 7);
        let mut rng = SeededRng::new(8);
        let b = Matrix::random(100, 3, &mut rng);
        let cfg = AcceleratorConfig::sigma_like(32, 32);
        let run = run_spmm(&cfg, "fold", &CsrMatrix::from_dense(&a), &b, &NaturalOrder);
        assert_slices_close(run.output.as_slice(), gemm_reference(&a, &b).as_slice());
        assert!(run.stats.counters.accumulator_updates > 0);
    }

    #[test]
    fn zero_rows_are_skipped() {
        let mut a = sparse_a(4, 8, 0.0, 9);
        for c in 0..8 {
            a.set(2, c, 0.0);
        }
        let mut rng = SeededRng::new(10);
        let b = Matrix::random(8, 2, &mut rng);
        let cfg = AcceleratorConfig::sigma_like(64, 64);
        let run = run_spmm(&cfg, "z", &CsrMatrix::from_dense(&a), &b, &NaturalOrder);
        assert_eq!(run.output.get(2, 0), 0.0);
        assert_eq!(run.output.get(2, 1), 0.0);
        // Only 3 non-zero rows were packed.
        assert_eq!(run.iterations[0].segments, 3);
    }

    #[test]
    fn gemv_uses_input_stationary_mode() {
        // SIGMA-4 shape: 128x1x64 on a 128-MS array.
        let a = sparse_a(128, 64, 0.0, 11);
        let mut rng = SeededRng::new(12);
        let b = Matrix::random(64, 1, &mut rng);
        let cfg = AcceleratorConfig::sigma_like(128, 128);
        let run = run_spmm(&cfg, "gemv", &CsrMatrix::from_dense(&a), &b, &NaturalOrder);
        assert!(run.input_stationary);
        assert_slices_close(run.output.as_slice(), gemm_reference(&a, &b).as_slice());
    }

    #[test]
    fn packing_respects_capacity_and_order() {
        let iterations = pack_segments(&[0, 1, 2, 3], &[10, 10, 10, 10], 32, false);
        // 3 rows of 10 fit; the 4th spills to a second iteration.
        assert_eq!(iterations.len(), 2);
        assert_eq!(iterations[0].len(), 3);
        assert_eq!(iterations[1].len(), 1);
        assert_eq!(iterations[1][0].row, 3);
    }

    #[test]
    fn packing_take_while_does_not_reorder() {
        // Natural order must NOT skip ahead past a non-fitting row.
        let iterations = pack_segments(&[0, 1, 2], &[20, 20, 4], 32, false);
        assert_eq!(iterations.len(), 2);
        assert_eq!(
            iterations[0].len(),
            1,
            "row 1 (20) does not fit after row 0"
        );
        assert_eq!(
            iterations[1].iter().map(|s| s.row).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn packing_with_skip_fills_residual_capacity() {
        // With skip-ahead, row 2 (4 nnz) backfills the 12 free MS left by
        // row 0, instead of waiting for row 1.
        let iterations = pack_segments(&[0, 1, 2], &[20, 20, 4], 32, true);
        assert_eq!(iterations.len(), 2);
        assert_eq!(
            iterations[0].iter().map(|s| s.row).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(iterations[1][0].row, 1);
    }

    #[test]
    fn activation_sparsity_cuts_delivered_inputs_and_mults() {
        let a = sparse_a(16, 32, 0.5, 21);
        let mut rng = SeededRng::new(22);
        let mut b = Matrix::random(32, 16, &mut rng);
        for r in 0..32 {
            for c in 0..16 {
                if (r + c) % 2 == 0 {
                    b.set(r, c, 0.0); // 50% activation sparsity
                }
            }
        }
        let csr = CsrMatrix::from_dense(&a);
        let base_cfg = AcceleratorConfig::sigma_like(64, 8);
        let mut dual_cfg = base_cfg.clone();
        dual_cfg.exploit_activation_sparsity = true;
        let base = run_spmm(&base_cfg, "w", &csr, &b, &NaturalOrder);
        let dual = run_spmm(&dual_cfg, "wa", &csr, &b, &NaturalOrder);
        // Functional equivalence (zero inputs contribute nothing).
        assert_eq!(base.output, dual.output);
        assert!(dual.stats.counters.multiplications < base.stats.counters.multiplications);
        assert!(dual.stats.cycles <= base.stats.cycles);
        assert!(dual.stats.counters.gb_reads < base.stats.counters.gb_reads);
    }

    #[test]
    fn activation_sparsity_is_a_noop_on_dense_activations() {
        let a = sparse_a(8, 16, 0.5, 23);
        let mut rng = SeededRng::new(24);
        let b = Matrix::random(16, 4, &mut rng);
        let csr = CsrMatrix::from_dense(&a);
        let base_cfg = AcceleratorConfig::sigma_like(32, 32);
        let mut dual_cfg = base_cfg.clone();
        dual_cfg.exploit_activation_sparsity = true;
        let base = run_spmm(&base_cfg, "w", &csr, &b, &NaturalOrder);
        let dual = run_spmm(&dual_cfg, "wa", &csr, &b, &NaturalOrder);
        assert_eq!(base.stats.cycles, dual.stats.cycles);
        assert_eq!(
            base.stats.counters.multiplications,
            dual.stats.counters.multiplications
        );
    }

    #[test]
    fn replay_matches_engine_output_bitwise() {
        // Weight-stationary with folding (K=100 on 32 MS).
        let a = sparse_a(12, 100, 0.6, 31);
        let mut rng = SeededRng::new(32);
        let b = Matrix::random(100, 5, &mut rng);
        let cfg = AcceleratorConfig::sigma_like(32, 32);
        let csr = CsrMatrix::from_dense(&a);
        let run = run_spmm(&cfg, "ws", &csr, &b, &NaturalOrder);
        assert!(!run.input_stationary);
        let replay = replay_spmm(&cfg, &csr, &b, &NaturalOrder, false);
        assert_eq!(run.output.as_slice(), replay.as_slice());

        // GEMV input-stationary mode.
        let a = sparse_a(64, 32, 0.4, 33);
        let mut rng = SeededRng::new(34);
        let bv = Matrix::random(32, 1, &mut rng);
        let cfg = AcceleratorConfig::sigma_like(128, 128);
        let csr = CsrMatrix::from_dense(&a);
        let run = run_spmm(&cfg, "is", &csr, &bv, &NaturalOrder);
        assert!(run.input_stationary);
        let replay = replay_spmm(&cfg, &csr, &bv, &NaturalOrder, true);
        assert_eq!(run.output.as_slice(), replay.as_slice());
    }

    #[test]
    fn bitmap_format_adds_metadata_traffic() {
        let a = sparse_a(8, 16, 0.5, 13);
        let mut rng = SeededRng::new(14);
        let b = Matrix::random(16, 4, &mut rng);
        let mut cfg = AcceleratorConfig::sigma_like(64, 64);
        cfg.sparse_format = SparseFormat::Bitmap;
        let bm = run_spmm_auto_format(&cfg, "x", &a, &b, &NaturalOrder);
        cfg.sparse_format = SparseFormat::Csr;
        let cs = run_spmm_auto_format(&cfg, "x", &a, &b, &NaturalOrder);
        assert!(bm.stats.counters.metadata_reads > cs.stats.counters.metadata_reads);
        assert_eq!(bm.output, cs.output);
    }
}
