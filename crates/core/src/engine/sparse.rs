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
//!
//! # Two halves
//!
//! Per the [engine contract](super#two-halves): the mapping (dataflow
//! choice and packing, over the borrowed CSR operand) is built once per
//! invocation as a `Plan` and handed to `functional`, the segment-order kernel, and
//! `accounting`, the per-iteration load/stream/drain walk;
//! [`run_spmm`] is their composition.

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

/// The controller's mapping of one invocation, built once and handed to
/// both halves: the mapper's dataflow choice and the packing of the
/// stationary operand's row segments into iterations.
pub(crate) struct Plan<'a> {
    /// Schedule policy name (labels the stats record).
    policy: String,
    /// The stationary operand (walking its rows is the controller's
    /// metadata read).
    a: &'a CsrMatrix,
    /// Whether the mapper chose the GEMV input-stationary dataflow (its
    /// cycle estimate beat the weight-stationary one).
    input_stationary: bool,
    /// Row segments per mapping iteration, in issue order.
    iterations: Vec<Vec<Segment>>,
}

impl<'a> Plan<'a> {
    /// Maps `a × (K×n)` under `schedule`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not permute all rows.
    pub(crate) fn new(
        config: &AcceleratorConfig,
        a: &'a CsrMatrix,
        n: usize,
        schedule: &dyn RowSchedule,
    ) -> Self {
        let (m, k) = (a.rows(), a.cols());
        let row_nnz: Vec<usize> = (0..m).map(|r| a.row_nnz(r)).collect();
        let order = schedule.order(&row_nnz);
        assert_eq!(order.len(), m, "schedule must permute all rows");
        // Mapper: estimate both dataflows (the weight-stationary one from
        // the strict in-order packing) and keep the cheaper one.
        let mut iterations = pack_segments(&order, &row_nnz, config.ms_size, false);
        let iters = iterations.len() as u64;
        let ws_estimate = iters * (1 + n as u64) + iters * (ceil_log2(config.ms_size) as u64 + 1);
        let input_stationary = estimate_input_stationary(config, &row_nnz, k, n) < ws_estimate;
        if schedule.allow_skip() {
            iterations = pack_segments(&order, &row_nnz, config.ms_size, true);
        }
        Self {
            policy: schedule.name().to_owned(),
            a,
            input_stationary,
            iterations,
        }
    }

    /// Whether the mapper chose the GEMV input-stationary dataflow.
    pub(crate) fn input_stationary(&self) -> bool {
        self.input_stationary
    }

    /// `(column, value)` non-zeros of a mapped row segment, ascending.
    fn entries(&self, seg: &Segment) -> impl Iterator<Item = (usize, Elem)> + 'a {
        self.a.row_entries(seg.row).skip(seg.start).take(seg.len)
    }
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
    let plan = Plan::new(config, a, b.cols(), schedule);
    let output = functional(&plan, b);
    let (stats, iterations) = accounting(config, operation, &plan, b.cols(), Some(b));
    SparseRun {
        output,
        stats,
        iterations,
        input_stationary: plan.input_stationary,
    }
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

/// The functional half: the `M × N` output in the engine's f32
/// accumulation order — per output, every mapped segment's partial sum
/// (non-zeros ascending, from `+0.0`) added in packing order. A segment's
/// sum is accumulated for all streaming columns at once, reading `b`'s
/// rows in place: the columns are independent outputs, so the sweep
/// vectorises without reordering any one of them. Both dataflows
/// accumulate alike: an input-stationary run holds whole rows
/// (`K ≤ ms_size`), i.e. one unfolded segment per row.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub(crate) fn functional(plan: &Plan, b: &Matrix) -> Matrix {
    assert_eq!(plan.a.cols(), b.rows(), "SpMM inner dimension mismatch");
    let mut out = Matrix::zeros(plan.a.rows(), b.cols());
    let mut acc: Vec<Elem> = vec![0.0; b.cols()];
    for seg in plan.iterations.iter().flatten() {
        acc.fill(0.0);
        for (k, w) in plan.entries(seg) {
            for (a, &x) in acc.iter_mut().zip(b.row(k)) {
                *a += w * x;
            }
        }
        for (o, &a) in out.row_mut(seg.row).iter_mut().zip(&acc) {
            *o += a;
        }
    }
    out
}

/// The accounting half: statistics and per-iteration packing info of the
/// mapped run over `n` streaming columns. Reads the streaming operand `b`
/// only in activation-sparsity mode, and then only its zero pattern; it
/// never multiplies a value or writes an output.
///
/// # Panics
///
/// Panics if the configuration lacks a cluster-capable reduction network,
/// or exploits activation sparsity and `b` is absent.
pub(crate) fn accounting(
    config: &AcceleratorConfig,
    operation: &str,
    plan: &Plan,
    n: usize,
    b: Option<&Matrix>,
) -> (SimStats, Vec<IterationInfo>) {
    let rn = ReductionNetwork::new(config.rn, config.ms_size, config.rn_bandwidth);
    assert!(
        rn.supports_clusters(),
        "sparse controller needs a cluster-capable RN"
    );
    if plan.input_stationary {
        debug_assert_eq!(n, 1);
        return (
            input_stationary_accounting(config, operation, plan),
            Vec::new(),
        );
    }
    // The activation-sparsity (dual) mode reads the streaming operand's
    // zero pattern per column; without it every column of an iteration
    // costs the same and is charged in bulk.
    let bt = config
        .exploit_activation_sparsity
        .then(|| b.expect(crate::cache::NEEDS_ACTIVATIONS).transposed());
    weight_stationary_accounting(config, operation, plan, n, bt.as_ref())
}

fn weight_stationary_accounting(
    config: &AcceleratorConfig,
    operation: &str,
    plan: &Plan,
    n: usize,
    bt: Option<&Matrix>,
) -> (SimStats, Vec<IterationInfo>) {
    let dn = DistributionNetwork::new(config.dn, config.ms_size, config.dn_bandwidth);
    let rn = ReductionNetwork::new(config.rn, config.ms_size, config.rn_bandwidth);
    let mut stats = SimStats {
        accelerator: config.name.clone(),
        operation: format!("{operation} [{}]", plan.policy),
        ms_size: config.ms_size,
        ..SimStats::default()
    };
    let mut cycles: u64 = 0;
    let mut iter_infos = Vec::with_capacity(plan.iterations.len());
    for segments in &plan.iterations {
        let (end, info) =
            ws_iteration_accounting(&dn, &rn, plan, segments, n, bt, &mut stats, cycles);
        cycles = end;
        iter_infos.push(info);
    }
    stats.cycles = cycles;
    (stats, iter_infos)
}

/// Timing/activity of one packing iteration: stationary load, the
/// distinct-k union, `n` streaming steps and the FAN drain. Starts at
/// absolute cycle `cycles` (trace spans are absolute); returns the end
/// cycle and the iteration's packing info.
///
/// Without `bt` every column delivers the same `distinct_k` inputs and
/// multiplies every mapped non-zero, so the `n` identical steps are
/// charged in bulk and no streaming value is read. With `bt` (the
/// transposed streaming operand, activation-sparsity mode) only a
/// column's non-zero inputs among the stationary indices are delivered
/// and multiplied, so each column is counted on its own zero pattern.
#[allow(clippy::too_many_arguments)]
fn ws_iteration_accounting(
    dn: &DistributionNetwork,
    rn: &ReductionNetwork,
    plan: &Plan,
    segments: &[Segment],
    n: usize,
    bt: Option<&Matrix>,
    stats: &mut SimStats,
    mut cycles: u64,
) -> (u64, IterationInfo) {
    let ctrl = Probe::new(Component::Controller);
    let dn_probe = Probe::new(Component::DistributionNetwork);
    let mn_probe = Probe::new(Component::MultiplierNetwork);
    let rn_probe = Probe::new(Component::ReductionNetwork);
    let occupied: usize = segments.iter().map(|s| s.len).sum();
    let mapped = |s: &Segment| plan.entries(s).map(|(k, _)| k);

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
    let mut ks: Vec<usize> = segments.iter().flat_map(mapped).collect();
    ks.sort_unstable();
    ks.dedup();
    let distinct_k = ks.len();

    let cluster_sizes: Vec<usize> = segments.iter().map(|s| s.len).collect();
    let outcome = rn.reduce(&cluster_sizes);
    let collect = rn.collection_cycles(segments.len());

    // Streaming phase: one pipelined step per KN column. `charge` books
    // `cols` columns that each deliver `delivered` inputs and perform
    // `mults` multiplications (the DN activity formulas are linear in
    // (unique, dests), so one bulk call equals `cols` per-column calls).
    let stream_start = cycles;
    if bt.is_some() {
        stats.counters.metadata_reads += n as u64; // column bitmap words
    }
    let accumulating = segments.iter().filter(|s| s.accumulate).count() as u64;
    let mut charge = |cols: usize, delivered: usize, mults: u64| {
        let c64 = cols as u64;
        let deliver_floor = dn.delivery_cycles(delivered).max(1);
        let step = deliver_floor.max(collect);
        stats.counters.accumulator_updates += accumulating * c64;
        stats.counters.multiplications += mults * c64;
        stats.ms_busy_cycles += mults * c64;
        stats.counters.rn_adder_ops += outcome.adder_ops * c64;
        stats.counters.rn_collections += segments.len() as u64 * c64;
        stats.counters.gb_writes += segments.len() as u64 * c64;
        dn.account(&mut stats.counters, delivered * cols, occupied * cols);
        stats.counters.gb_reads += delivered as u64 * c64;
        stats.breakdown.steady_cycles += c64;
        stats.breakdown.fifo_stall_cycles += deliver_floor.saturating_sub(1) * c64;
        stats.breakdown.reduction_stall_cycles += (step - deliver_floor) * c64;
        cycles += step * c64;
        stats.compute_cycles += c64;
        stats.bandwidth_stall_cycles += step.saturating_sub(1) * c64;
    };
    match bt {
        None => charge(n, distinct_k, occupied as u64),
        Some(bt) => {
            for col in 0..n {
                let bcol = bt.row(col);
                let delivered = ks.iter().filter(|&&k| bcol[k] != 0.0).count();
                let mults = segments.iter().flat_map(mapped).filter(|&k| bcol[k] != 0.0);
                charge(1, delivered, mults.count() as u64);
            }
        }
    }
    ctrl.span("stream", stream_start, cycles);
    mn_probe.span("compute", stream_start, cycles);

    // FAN pipeline fill/drain between reconfigurations (same reduce
    // outcome as the streaming steps).
    let drain = outcome.latency + 1;
    ctrl.span("drain", cycles, cycles + drain);
    rn_probe.span("drain", cycles, cycles + drain);
    stats.breakdown.drain_cycles += drain;
    cycles += drain;
    stats.iterations += 1;
    let info = IterationInfo {
        segments: segments.len(),
        ms_occupied: occupied,
        distinct_k,
    };
    (cycles, info)
}

/// Dispatch accounting of the GEMV input-stationary mapping: the dense
/// input column loads stationary, then weight rows stream one dispatch
/// per cycle minimum.
fn input_stationary_accounting(
    config: &AcceleratorConfig,
    operation: &str,
    plan: &Plan,
) -> SimStats {
    let dn = DistributionNetwork::new(config.dn, config.ms_size, config.dn_bandwidth);
    let rn = ReductionNetwork::new(config.rn, config.ms_size, config.rn_bandwidth);
    let k = plan.a.cols();
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
    let a = plan.a;
    for nnz in (0..a.rows()).map(|r| a.row_nnz(r)).filter(|&nnz| nnz > 0) {
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
    stats
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
    use crate::engine::tests::bits;
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
        // Bitwise: each held row is one straight dot product, non-zeros
        // ascending.
        for r in 0..128 {
            let dot = (0..64).fold(0.0, |acc: Elem, k| acc + a.get(r, k) * b.get(k, 0));
            assert_eq!(run.output.get(r, 0).to_bits(), dot.to_bits(), "row {r}");
        }
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

    /// Largest-first issue order with skip-ahead packing.
    struct LargestFirst;
    impl RowSchedule for LargestFirst {
        fn order(&self, row_nnz: &[usize]) -> Vec<usize> {
            let mut order: Vec<usize> = (0..row_nnz.len()).collect();
            order.sort_by_key(|&r| std::cmp::Reverse(row_nnz[r]));
            order
        }
        fn name(&self) -> &str {
            "LFF"
        }
        fn allow_skip(&self) -> bool {
            true
        }
    }

    /// The loop nest `functional` ran before the column sweep, kept
    /// verbatim as its oracle: per iteration and streaming column, one
    /// scalar dot chain per segment over the transposed `b`.
    fn scalar_segment_chains(plan: &Plan, b: &Matrix) -> Matrix {
        let n = b.cols();
        let mut out = Matrix::zeros(plan.a.rows(), n);
        let bt = b.transposed();
        for segments in &plan.iterations {
            for col in 0..n {
                let bcol = bt.row(col);
                for seg in segments {
                    let mut acc: Elem = 0.0;
                    for (k, w) in plan.entries(seg) {
                        acc += w * bcol[k];
                    }
                    let cur = out.get(seg.row, col);
                    out.set(seg.row, col, cur + acc);
                }
            }
        }
        out
    }

    #[test]
    fn functional_equals_the_previous_loop_nest_bitwise() {
        // (ms_size, stationary operand, N): rows that fold into several
        // segments, sparse rows packed several per iteration (in order
        // and with skip-ahead), and the GEMV input-stationary mapping.
        let cases = [
            (32, sparse_a(5, 100, 0.0, 81), 9),
            (16, sparse_a(12, 40, 0.6, 82), 17),
            (64, sparse_a(9, 20, 0.3, 83), 4),
            (128, sparse_a(64, 32, 0.4, 84), 1),
        ];
        for (i, (ms, a, n)) in cases.into_iter().enumerate() {
            let mut rng = SeededRng::new(90 + i as u64);
            let b = Matrix::random(a.cols(), n, &mut rng);
            let csr = CsrMatrix::from_dense(&a);
            let cfg = AcceleratorConfig::sigma_like(ms, ms);
            for schedule in [&NaturalOrder as &dyn RowSchedule, &LargestFirst] {
                let plan = Plan::new(&cfg, &csr, n, schedule);
                assert_eq!(plan.input_stationary(), n == 1, "case {i}");
                let (got, want) = (functional(&plan, &b), scalar_segment_chains(&plan, &b));
                assert_eq!(bits(&got), bits(&want), "case {i}, {}", schedule.name());
            }
        }
    }

    /// The accounting half is a function of zero structure alone: same
    /// CSR pattern and streaming zero mask, different values — no
    /// statistic moves.
    #[test]
    fn accounting_is_value_blind() {
        let mut ragged = sparse_a(9, 40, 0.0, 41);
        let mut holes = sparse_a(6, 16, 0.3, 42);
        for c in 0..40 {
            (0..9)
                .filter(|r| c > 4 * r + 3)
                .for_each(|r| ragged.set(r, c, 0.0));
            holes.set(0, c % 16, 0.0);
            holes.set(4, c % 16, 0.0);
        }
        // (ms_size, bandwidth, stationary operand, N): dense, sparse,
        // folding, ragged rows, zero rows, GEMV.
        let patterns = [
            (64, 64, sparse_a(8, 16, 0.0, 1), 5),
            (32, 32, sparse_a(12, 20, 0.7, 3), 7),
            (32, 32, sparse_a(12, 100, 0.6, 31), 5),
            (16, 4, ragged, 3),
            (64, 8, holes, 4),
            (128, 128, sparse_a(64, 32, 0.4, 33), 1),
        ];
        let rescale = |m: &Matrix, f: Elem| {
            let mut out = m.clone();
            let values = out.as_mut_slice().iter_mut().enumerate();
            values.for_each(|(i, v)| *v *= f + (i % 7) as Elem);
            out
        };
        for (i, (ms, bw, a, n)) in patterns.into_iter().enumerate() {
            let mut rng = SeededRng::new(60 + i as u64);
            let mut b = Matrix::random(a.cols(), n, &mut rng);
            for r in (0..b.rows()).step_by(3) {
                b.set(r, r % n, 0.0);
            }
            let (csr, b2) = (CsrMatrix::from_dense(&a), rescale(&b, -2.5));
            let csr2 = CsrMatrix::from_dense(&rescale(&a, 1.5));
            for schedule in [&NaturalOrder as &dyn RowSchedule, &LargestFirst] {
                for dual in [false, true] {
                    let label = format!("pattern {i}, {}, dual {dual}", schedule.name());
                    let mut cfg = AcceleratorConfig::sigma_like(ms, bw);
                    cfg.exploit_activation_sparsity = dual;
                    let one = run_spmm(&cfg, "v", &csr, &b, schedule);
                    let two = run_spmm(&cfg, "v", &csr2, &b2, schedule);
                    assert_eq!(one.stats, two.stats, "{label}");
                    assert_eq!(one.iterations, two.iterations, "{label}");
                    assert_ne!(one.output, two.output, "{label}: values did change");
                }
            }
        }
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
