//! Streaming max-pool engine.
//!
//! The paper notes that pooling maps onto flexible accelerator fabrics
//! without dedicated SIMD modules: windows stream through the multiplier
//! switches (acting as comparators) and the reduction network picks the
//! maximum. The cycle cost is delivery-bound.
//!
//! # Two halves
//!
//! Per the [engine contract](super#two-halves): `functional` is the
//! reference max-pool, `accounting` a closed form over the window
//! count, and [`run_maxpool`] their composition.

use crate::config::AcceleratorConfig;
use crate::networks::{DistributionNetwork, ReductionNetwork};
use crate::stats::SimStats;
use crate::trace::{Component, Probe};
use stonne_tensor::{maxpool2d_reference, Tensor4};

/// Runs a square-window max-pool on the configured accelerator.
///
/// Returns the pooled tensor and cycle-level statistics.
///
/// # Panics
///
/// Panics if `window` or `stride` is zero, or the window exceeds the
/// input.
pub fn run_maxpool(
    config: &AcceleratorConfig,
    operation: &str,
    input: &Tensor4,
    window: usize,
    stride: usize,
) -> (Tensor4, SimStats) {
    let out = functional(input, window, stride);
    let stats = accounting(config, operation, out.len(), window);
    (out, stats)
}

/// The functional half: the comparator tree picks each window's maximum,
/// which is the reference max-pool.
pub(crate) fn functional(input: &Tensor4, window: usize, stride: usize) -> Tensor4 {
    maxpool2d_reference(input, window, stride)
}

/// The accounting half: a closed form over the number of pooled windows
/// (`outputs`) and the window size.
pub(crate) fn accounting(
    config: &AcceleratorConfig,
    operation: &str,
    outputs: usize,
    window: usize,
) -> SimStats {
    let mut stats = SimStats {
        accelerator: config.name.clone(),
        operation: operation.to_owned(),
        ms_size: config.ms_size,
        ..SimStats::default()
    };

    let dn = DistributionNetwork::new(config.dn, config.ms_size, config.dn_bandwidth);
    let rn = ReductionNetwork::new(config.rn, config.ms_size, config.rn_bandwidth);

    let window_elems = window * window;
    let num_windows = outputs as u64;
    // Each window streams its elements and reduces max in a tree pass;
    // windows are processed `ms_size / window_elems` at a time.
    let windows_per_wave = (config.ms_size / window_elems).max(1) as u64;
    let waves = num_windows.div_ceil(windows_per_wave);
    let per_wave_elems = windows_per_wave as usize * window_elems;
    let ctrl = Probe::new(Component::Controller);
    let rn_probe = Probe::new(Component::ReductionNetwork);
    // Every wave streams the same volume, so the per-wave cost is a
    // constant; charge all waves in one shot instead of looping.
    let deliver = dn.delivery_cycles(per_wave_elems).max(1);
    let collect = rn.collection_cycles(windows_per_wave as usize);
    let step = deliver.max(collect);
    stats.breakdown.steady_cycles += waves;
    stats.breakdown.fifo_stall_cycles += deliver.saturating_sub(1) * waves;
    stats.breakdown.reduction_stall_cycles += (step - deliver) * waves;
    let mut cycles = step * waves;
    ctrl.span("stream", 0, cycles);
    let drain = rn.reduce(&[window_elems]).latency + 1;
    ctrl.span("drain", cycles, cycles + drain);
    rn_probe.span("drain", cycles, cycles + drain);
    stats.breakdown.drain_cycles += drain;
    cycles += drain;

    // Comparator passes count as reduction-adder activity.
    stats.counters.rn_adder_ops += num_windows * (window_elems as u64 - 1);
    stats.counters.gb_reads += num_windows * window_elems as u64;
    stats.counters.gb_writes += num_windows;
    stats.counters.rn_collections += num_windows;
    stats.counters.dn_injections += num_windows * window_elems as u64;
    stats.compute_cycles = waves;
    stats.ms_busy_cycles = num_windows * window_elems as u64;
    stats.iterations = waves;
    stats.cycles = cycles;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use stonne_tensor::SeededRng;

    #[test]
    fn pool_is_functionally_exact() {
        let mut rng = SeededRng::new(1);
        let input = Tensor4::random(1, 4, 8, 8, &mut rng);
        let cfg = AcceleratorConfig::maeri_like(64, 16);
        let (out, stats) = run_maxpool(&cfg, "pool", &input, 2, 2);
        assert_eq!(out, maxpool2d_reference(&input, 2, 2));
        assert!(stats.cycles > 0);
    }

    #[test]
    fn pool_cycles_scale_with_volume() {
        let mut rng = SeededRng::new(2);
        let small = Tensor4::random(1, 2, 8, 8, &mut rng);
        let large = Tensor4::random(1, 8, 16, 16, &mut rng);
        let cfg = AcceleratorConfig::maeri_like(64, 16);
        let (_, s1) = run_maxpool(&cfg, "p", &small, 2, 2);
        let (_, s2) = run_maxpool(&cfg, "p", &large, 2, 2);
        assert!(s2.cycles > s1.cycles);
    }

    #[test]
    fn accounting_depends_on_shape_only() {
        let cfg = AcceleratorConfig::maeri_like(64, 16);
        let run = |seed| {
            let mut rng = SeededRng::new(seed);
            run_maxpool(&cfg, "p", &Tensor4::random(1, 3, 9, 9, &mut rng), 3, 2)
        };
        let ((out1, stats1), (out2, stats2)) = (run(4), run(5));
        assert_eq!(stats1, stats2);
        assert_ne!(out1, out2, "values did change");
    }

    #[test]
    fn pool_counts_comparisons() {
        let mut rng = SeededRng::new(3);
        let input = Tensor4::random(1, 1, 4, 4, &mut rng);
        let cfg = AcceleratorConfig::maeri_like(64, 64);
        let (out, stats) = run_maxpool(&cfg, "p", &input, 2, 2);
        assert_eq!(stats.counters.rn_adder_ops, out.len() as u64 * 3);
    }
}
