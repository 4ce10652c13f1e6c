//! Cycle-level engine for the output-stationary systolic array
//! (TPU-like composition: point-to-point DN + linear MN + linear RN).
//!
//! # Execution model
//!
//! A `dim × dim` PE grid computes the GEMM in `⌈M/dim⌉·⌈N/dim⌉` output
//! tiles. Within a tile, the `A` operand streams from the left edge and
//! `B` from the top edge, each skewed one cycle per row/column; PE *(i,j)*
//! fires its MAC for inner index `k` at cycle `fill + i + j + k` and the
//! finished tile drains through the linear reduction lanes. With the fixed
//! two-cycle fill (command + edge injection) and two-cycle drain this
//! yields `K + tm + tn + 2` cycles per full tile — which reproduces the
//! paper's TPU validation rows exactly (Table V: 66/50/200/1056 cycles).
//!
//! When the configured DN bandwidth is below the `tm + tn` elements/cycle
//! the edges consume, injection is time-multiplexed and every streaming
//! cycle stretches by the shortfall ratio (recorded as bandwidth stalls).
//!
//! # Two halves
//!
//! Per the [engine contract](super#two-halves): `functional` is one
//! straight dot product per output, `accounting` the per-tile closed forms
//! over `(m, n, k)`, and [`run_gemm`] their composition.

use crate::config::AcceleratorConfig;
use crate::networks::{DistributionNetwork, MultiplierNetwork, ReductionNetwork};
use crate::stats::SimStats;
use crate::trace::{Component, Probe};
use stonne_tensor::{fold_gemm, Matrix};

/// Fixed pipeline-fill cycles (command issue + edge injection).
const FILL_CYCLES: u64 = 2;
/// Fixed drain cycles (accumulator bus hand-off).
const DRAIN_CYCLES: u64 = 2;

/// Runs `C = A (M×K) × B (K×N)` on the systolic composition.
///
/// Returns the output matrix and cycle-level statistics.
///
/// # Panics
///
/// Panics if the configuration is not a square systolic array or the
/// operand shapes disagree.
pub fn run_gemm(
    config: &AcceleratorConfig,
    operation: &str,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, SimStats) {
    let out = functional(a, b);
    let stats = accounting(config, operation, a.rows(), b.cols(), a.cols());
    (out, stats)
}

/// The functional half: on the wavefront (PE *(i,j)* fires its MAC for
/// inner index `kk` at cycle `fill + i + j + kk`) every PE accumulates its
/// psum in ascending-`kk` order — exactly a straight dot product per
/// output, whichever tile it belongs to: the shared kernel with the whole
/// dot product as one fold. (The fold's sum starts at `+0.0` and so is
/// never `-0.0`; adding it into the zeroed output keeps its bits.)
///
/// # Panics
///
/// Panics if the operand shapes disagree.
pub(crate) fn functional(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "GEMM inner dimension mismatch");
    let mut out = Matrix::zeros(a.rows(), b.cols());
    fold_gemm(a, 0..a.rows(), b, a.cols(), out.as_mut_slice());
    out
}

/// The accounting half: the wavefront's closed forms per output tile
/// (see [`tile_accounting`]), tiles serialized. Depends on the problem
/// extents and the configuration only.
pub(crate) fn accounting(
    config: &AcceleratorConfig,
    operation: &str,
    m: usize,
    n: usize,
    k: usize,
) -> SimStats {
    let dim = config.pe_dim();
    let dn = DistributionNetwork::new(config.dn, config.ms_size, config.dn_bandwidth);
    let mn = MultiplierNetwork::new(config.mn, config.ms_size);
    let rn = ReductionNetwork::new(config.rn, config.ms_size, config.rn_bandwidth);
    let mut stats = SimStats {
        accelerator: config.name.clone(),
        operation: operation.to_owned(),
        ms_size: config.ms_size,
        ..SimStats::default()
    };
    let mut cycles: u64 = 0;
    for tile_i in 0..m.div_ceil(dim) {
        for tile_j in 0..n.div_ceil(dim) {
            let tm = (m - tile_i * dim).min(dim);
            let tn = (n - tile_j * dim).min(dim);
            cycles = tile_accounting(
                config, &dn, &mn, &rn, k, tm, tn, tile_i, tile_j, &mut stats, cycles,
            );
        }
    }
    stats.cycles = cycles;
    stats
}

/// Closed-form timing/activity of one `(tm, tn)` output tile, starting at
/// absolute cycle `cycles` (trace spans are absolute); returns the cycle
/// after the tile's drain. Every PE is busy for exactly K MACs
/// (`busy_total = tm·tn·K`) and the front needs `K + tm + tn - 2`
/// streaming cycles. Depends only on the tile class, K, and the
/// configuration; the grid position only labels the trace span.
#[allow(clippy::too_many_arguments)]
fn tile_accounting(
    config: &AcceleratorConfig,
    dn: &DistributionNetwork,
    mn: &MultiplierNetwork,
    rn: &ReductionNetwork,
    k: usize,
    tm: usize,
    tn: usize,
    tile_i: usize,
    tile_j: usize,
    stats: &mut SimStats,
    mut cycles: u64,
) -> u64 {
    let ctrl = Probe::new(Component::Controller);
    let dn_probe = Probe::new(Component::DistributionNetwork);
    let mn_probe = Probe::new(Component::MultiplierNetwork);
    let rn_probe = Probe::new(Component::ReductionNetwork);

    // Edge injection demand vs configured bandwidth.
    let stretch = ((tm + tn) as u64)
        .div_ceil(config.dn_bandwidth as u64)
        .max(1);

    let wave_cycles = (k + tm + tn - 2) as u64;
    let busy_total = (tm * tn * k) as u64;
    // Operands shift one hop right/down per streaming cycle.
    stats.counters.mn_forwards += 2 * busy_total;
    stats.ms_busy_cycles += busy_total;
    stats.counters.accumulator_updates += busy_total;
    mn.account(&mut stats.counters, busy_total, 0);

    // Timing: fill + (possibly stretched) wavefront + drain.
    let stream_cycles = wave_cycles * stretch;
    let tile_cycles = FILL_CYCLES + stream_cycles + DRAIN_CYCLES;
    stats.compute_cycles += wave_cycles;
    stats.bandwidth_stall_cycles += wave_cycles * (stretch - 1);
    stats.breakdown.fill_cycles += FILL_CYCLES;
    stats.breakdown.steady_cycles += wave_cycles;
    stats.breakdown.fifo_stall_cycles += wave_cycles * (stretch - 1);
    stats.breakdown.drain_cycles += DRAIN_CYCLES;

    let fill_end = cycles + FILL_CYCLES;
    let stream_end = fill_end + stream_cycles;
    ctrl.span("fill", cycles, fill_end);
    ctrl.span("stream", fill_end, stream_end);
    ctrl.span("drain", stream_end, stream_end + DRAIN_CYCLES);
    dn_probe.span_with(
        || format!("deliver t({tile_i},{tile_j})"),
        cycles,
        stream_end,
    );
    mn_probe.span("wavefront", fill_end, stream_end);
    rn_probe.span("collect", stream_end, stream_end + DRAIN_CYCLES);
    cycles += tile_cycles;

    // Operand traffic: each tile streams tm·K + tn·K elements.
    let streamed = (tm * k + tn * k) as u64;
    stats.counters.gb_reads += streamed;
    dn.account(&mut stats.counters, streamed as usize, streamed as usize);
    stats.counters.fifo_pushes += streamed;
    stats.counters.fifo_pops += streamed;

    // Drain: outputs leave through the linear reduction lanes.
    let outs = (tm * tn) as u64;
    let outcome = rn.reduce(&[1]);
    rn.account(&mut stats.counters, outcome, outs);
    stats.counters.gb_writes += outs;
    stats.iterations += 1;
    cycles
}

/// Closed-form cycle count of the engine above for a full-bandwidth array
/// (used by tests and the Table V validation): per tile
/// `K + tm + tn + 2`, tiles serialized.
pub fn expected_cycles(dim: usize, m: usize, n: usize, k: usize) -> u64 {
    let mut total = 0u64;
    for tile_i in 0..m.div_ceil(dim) {
        for tile_j in 0..n.div_ceil(dim) {
            let tm = (m - tile_i * dim).min(dim);
            let tn = (n - tile_j * dim).min(dim);
            total += (k + tm + tn + 2) as u64;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::bits;
    use stonne_tensor::{assert_slices_close, gemm_reference, Elem, SeededRng};

    fn run(dim: usize, m: usize, n: usize, k: usize, seed: u64) -> (Matrix, Matrix, SimStats) {
        let mut rng = SeededRng::new(seed);
        let a = Matrix::random(m, k, &mut rng);
        let b = Matrix::random(k, n, &mut rng);
        let cfg = AcceleratorConfig::tpu_like(dim);
        let (out, stats) = run_gemm(&cfg, "gemm", &a, &b);
        // One ascending dot product per output: bit for bit the previous
        // nest's and the reference's result.
        assert_eq!(bits(&out), bits(&tile_blocked_dot_chains(&cfg, &a, &b)));
        assert_eq!(bits(&out), bits(&gemm_reference(&a, &b)));
        (a, b, stats)
    }

    /// The loop nest `functional` ran before the shared kernel, kept
    /// verbatim as its oracle: output tiles of `dim × dim`, one scalar dot
    /// chain per PE over the transposed `B`.
    fn tile_blocked_dot_chains(config: &AcceleratorConfig, a: &Matrix, b: &Matrix) -> Matrix {
        let dim = config.pe_dim();
        let (m, n) = (a.rows(), b.cols());
        let mut out = Matrix::zeros(m, n);
        let bt = b.transposed();
        for i_lo in (0..m).step_by(dim) {
            for j_lo in (0..n).step_by(dim) {
                let j_hi = (j_lo + dim).min(n);
                for i in i_lo..(i_lo + dim).min(m) {
                    let arow = a.row(i);
                    let otile = &mut out.row_mut(i)[j_lo..j_hi];
                    for (o, j) in otile.iter_mut().zip(j_lo..j_hi) {
                        let mut acc: Elem = 0.0;
                        for (&av, &bv) in arow.iter().zip(bt.row(j)) {
                            acc += av * bv;
                        }
                        *o = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn functional_on_exact_tile() {
        run(4, 4, 4, 8, 1);
    }

    #[test]
    fn functional_on_ragged_tiles() {
        run(4, 7, 9, 5, 2);
        run(8, 3, 17, 21, 3);
        // Dot products of signed zeros: a sum started at +0.0 never ends
        // at -0.0, so adding it into the zeroed output keeps its bits.
        let a = Matrix::from_rows(&[&[-1.0, 2.0, -0.0], &[0.0, -0.0, 3.0]]);
        let b = Matrix::from_rows(&[&[0.0, -0.0], &[-0.0, -0.0], &[-0.0, 0.0]]);
        let out = functional(&a, &b);
        let old = tile_blocked_dot_chains(&AcceleratorConfig::tpu_like(4), &a, &b);
        assert_eq!(bits(&out), bits(&old));
    }

    #[test]
    fn table5_tpu_rows_match_exactly() {
        // TPU-1..4 of Table V: 16x16 array, published RTL cycles.
        let cases = [
            (16, 16, 32, 66u64),
            (16, 16, 16, 50),
            (32, 32, 16, 200),
            (64, 64, 32, 1056),
        ];
        for (m, n, k, rtl) in cases {
            let (_, _, stats) = run(16, m, n, k, 7);
            let err = (stats.cycles as f64 - rtl as f64).abs() / rtl as f64;
            assert!(
                err <= 0.035,
                "({m},{n},{k}): sim {} vs RTL {rtl}",
                stats.cycles
            );
            assert_eq!(stats.cycles, expected_cycles(16, m, n, k));
        }
    }

    #[test]
    fn accounting_depends_on_shape_only() {
        // Ragged tiles, reduced bandwidth: different operand values must
        // not move a single statistic.
        let mut cfg = AcceleratorConfig::tpu_like(8);
        cfg.dn_bandwidth = 4;
        let run = |seed| {
            let mut rng = SeededRng::new(seed);
            let a = Matrix::random(11, 21, &mut rng);
            let b = Matrix::random(21, 19, &mut rng);
            run_gemm(&cfg, "gemm", &a, &b)
        };
        let ((out1, stats1), (out2, stats2)) = (run(10), run(11));
        assert_eq!(stats1, stats2);
        assert_ne!(out1, out2, "values did change");
    }

    #[test]
    fn mac_count_is_exact() {
        let (_, _, stats) = run(4, 6, 6, 10, 4);
        assert_eq!(stats.counters.multiplications, 6 * 6 * 10);
        assert_eq!(stats.counters.accumulator_updates, 6 * 6 * 10);
    }

    #[test]
    fn utilization_peaks_on_full_tiles() {
        let (_, _, full) = run(4, 4, 4, 64, 5);
        let (_, _, ragged) = run(4, 1, 1, 64, 6);
        assert!(full.ms_utilization() > 0.7);
        assert!(ragged.ms_utilization() < 0.2);
    }

    #[test]
    fn reduced_bandwidth_stretches_streaming() {
        let mut rng = SeededRng::new(9);
        let a = Matrix::random(8, 16, &mut rng);
        let b = Matrix::random(16, 8, &mut rng);
        let mut cfg = AcceleratorConfig::tpu_like(8);
        cfg.dn_bandwidth = 4; // needs 16/cycle for full speed
        let (out, stats) = run_gemm(&cfg, "gemm", &a, &b);
        assert_slices_close(out.as_slice(), gemm_reference(&a, &b).as_slice());
        assert!(stats.bandwidth_stall_cycles > 0);
        assert!(stats.cycles > expected_cycles(8, 8, 8, 16));
    }

    #[test]
    fn gb_traffic_counts_both_operands() {
        let (_, _, stats) = run(4, 4, 4, 10, 8);
        assert_eq!(stats.counters.gb_reads, (4 * 10 + 4 * 10) as u64);
        assert_eq!(stats.counters.gb_writes, 16);
    }
}
