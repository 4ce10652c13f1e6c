//! Figure 5: full-model comparison of TPU-like, MAERI-like and
//! SIGMA-like architectures over the seven DNN models of Table I —
//! cycles (5a), per-component energy (5b) and area (5c).
//!
//! Paper setup: 256 multipliers/adders and 128 elements/cycle GB
//! bandwidth for MAERI and SIGMA; 256 PEs at full bandwidth for the TPU;
//! 28 nm, 1 GHz, FP8, 108-KiB GB, dual HBM2.

use crate::{run_parallel, ParallelError};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use stonne::core::{AcceleratorConfig, CycleBreakdown, NaturalOrder, SimCache, Trace};
use stonne::energy::{area_um2, AreaBreakdown, EnergyBreakdown};
use stonne::models::{zoo, ModelId, ModelScale};
use stonne::nn::params::{generate_input, ModelParams};
use stonne::nn::runner::{run_model_simulated_traced, run_model_simulated_with, RunOptions};

/// The three compared architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Arch {
    /// 16×16 output-stationary systolic array.
    Tpu,
    /// 256-MS flexible tree architecture.
    Maeri,
    /// 256-MS flexible sparse architecture.
    Sigma,
}

impl Arch {
    /// All three, in the paper's plotting order.
    pub const ALL: [Arch; 3] = [Arch::Tpu, Arch::Maeri, Arch::Sigma];

    /// The paper's use-case configuration for this architecture.
    pub fn config(&self) -> AcceleratorConfig {
        match self {
            Arch::Tpu => AcceleratorConfig::tpu_like(16),
            Arch::Maeri => AcceleratorConfig::maeri_like(256, 128),
            Arch::Sigma => AcceleratorConfig::sigma_like(256, 128),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Arch::Tpu => "TPU",
            Arch::Maeri => "MAERI",
            Arch::Sigma => "SIGMA",
        }
    }
}

/// One (model, architecture) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Row {
    /// DNN model.
    pub model: ModelId,
    /// Architecture.
    pub arch: Arch,
    /// Total inference cycles (Fig. 5a).
    pub cycles: u64,
    /// Energy breakdown (Fig. 5b).
    pub energy: EnergyBreakdown,
    /// Average multiplier utilization.
    pub utilization: f64,
    /// Per-phase cycle split of the whole inference.
    #[serde(default)]
    pub breakdown: CycleBreakdown,
}

/// Runs one model on one architecture (with a private per-run cache).
pub fn run_one(model_id: ModelId, arch: Arch, scale: ModelScale, seed: u64) -> Fig5Row {
    run_one_cached(model_id, arch, scale, seed, &SimCache::new())
}

/// Like [`run_one`] but reusing a shared simulation cache, so repeated
/// layer shapes across the sweep's models simulate only once per
/// architecture (config keys keep the three architectures apart).
pub fn run_one_cached(
    model_id: ModelId,
    arch: Arch,
    scale: ModelScale,
    seed: u64,
    cache: &SimCache,
) -> Fig5Row {
    let model = zoo::build(model_id, scale);
    let params = ModelParams::generate(&model, seed);
    let input = generate_input(&model, seed ^ 0xf00d);
    let run = run_model_simulated_with(
        &model,
        &params,
        &input,
        arch.config(),
        Arc::new(NaturalOrder),
        // The figure plots cycles and energy: no activations needed.
        RunOptions::new().timing_only().with_cache(cache.clone()),
    )
    .expect("preset configs are valid");
    Fig5Row {
        model: model_id,
        arch,
        cycles: run.total.cycles,
        energy: run.energy,
        utilization: run.total.ms_utilization(),
        breakdown: run.total.breakdown,
    }
}

/// Like [`run_one`] but also records the cycle-level timeline of the
/// whole inference (see [`stonne::core::trace`]).
pub fn run_one_traced(
    model_id: ModelId,
    arch: Arch,
    scale: ModelScale,
    seed: u64,
) -> (Fig5Row, Trace) {
    let model = zoo::build(model_id, scale);
    let params = ModelParams::generate(&model, seed);
    let input = generate_input(&model, seed ^ 0xf00d);
    let (run, trace) = run_model_simulated_traced(
        &model,
        &params,
        &input,
        arch.config(),
        stonne::core::trace::DEFAULT_CAPACITY,
    )
    .expect("preset configs are valid");
    let row = Fig5Row {
        model: model_id,
        arch,
        cycles: run.total.cycles,
        energy: run.energy,
        utilization: run.total.ms_utilization(),
        breakdown: run.total.breakdown,
    };
    (row, trace)
}

/// Runs the full 7-model × 3-architecture sweep. The combinations are
/// independent simulations fanned out on a core-count-capped worker pool
/// (results stay deterministic: every run is seeded).
///
/// # Errors
///
/// Returns [`ParallelError`] when a simulation panics.
pub fn fig5(scale: ModelScale, models: &[ModelId]) -> Result<Vec<Fig5Row>, ParallelError> {
    // One cache across every sweep point: identical layer shapes recur
    // both within a model (e.g. BERT's encoders) and across models.
    fig5_with_cache(scale, models, &SimCache::new())
}

/// Like [`fig5`] but reusing a caller-provided cache — typically one
/// backed by a persistent [`stonne::core::DiskStore`], so regenerating
/// the figure replays earlier runs instead of re-simulating them.
///
/// # Errors
///
/// Returns [`ParallelError`] when a simulation panics.
pub fn fig5_with_cache(
    scale: ModelScale,
    models: &[ModelId],
    cache: &SimCache,
) -> Result<Vec<Fig5Row>, ParallelError> {
    let mut tasks: Vec<Box<dyn FnOnce() -> Fig5Row + Send>> = Vec::new();
    for &model in models {
        for arch in Arch::ALL {
            let cache = cache.clone();
            tasks.push(Box::new(move || {
                run_one_cached(model, arch, scale, 21, &cache)
            }));
        }
    }
    run_parallel(tasks)
}

#[cfg(test)]
mod store_tests {
    use super::*;
    use stonne::core::DiskStore;

    #[test]
    fn fig5_replays_from_a_disk_store() {
        let dir = std::env::temp_dir().join(format!("stonne-fig5-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let models = [ModelId::AlexNet];

        let store = DiskStore::open(&dir).unwrap().scoped();
        let cold_cache = SimCache::new().backed_by(store.clone());
        let cold = fig5_with_cache(ModelScale::Tiny, &models, &cold_cache).unwrap();
        assert!(store.counters().writes > 0, "cold run populated the store");

        // Fresh memory cache, same directory: everything replays.
        let warm_store = DiskStore::open(&dir).unwrap().scoped();
        let warm_cache = SimCache::new().backed_by(warm_store.clone());
        let warm = fig5_with_cache(ModelScale::Tiny, &models, &warm_cache).unwrap();
        assert_eq!(cold, warm, "store replay is bitwise-identical");
        let counters = warm_store.counters();
        assert!(counters.hits > 0, "warm run read the store");
        assert_eq!(counters.misses, 0, "nothing was re-simulated");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Area estimates of the three architectures (Fig. 5c); model-independent.
pub fn fig5c_areas() -> Vec<(Arch, AreaBreakdown)> {
    Arch::ALL
        .iter()
        .map(|&a| (a, area_um2(&a.config())))
        .collect()
}

/// Speedup of `a` over `b` computed from two rows (cycles ratio).
pub fn speedup(a: &Fig5Row, b: &Fig5Row) -> f64 {
    b.cycles as f64 / a.cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_wins_and_tpu_trails_on_a_pruned_model() {
        // Fig. 5a ordering on sparse models: SIGMA < MAERI <~ TPU cycles.
        let tpu = run_one(ModelId::SqueezeNet, Arch::Tpu, ModelScale::Tiny, 3);
        let maeri = run_one(ModelId::SqueezeNet, Arch::Maeri, ModelScale::Tiny, 3);
        let sigma = run_one(ModelId::SqueezeNet, Arch::Sigma, ModelScale::Tiny, 3);
        assert!(
            sigma.cycles < maeri.cycles,
            "sigma {} !< maeri {}",
            sigma.cycles,
            maeri.cycles
        );
        assert!(
            sigma.cycles < tpu.cycles,
            "sigma {} !< tpu {}",
            sigma.cycles,
            tpu.cycles
        );
    }

    #[test]
    fn sigma_is_most_energy_efficient() {
        // Fig. 5b: SIGMA beats MAERI and TPU in total energy.
        let tpu = run_one(ModelId::AlexNet, Arch::Tpu, ModelScale::Tiny, 5);
        let maeri = run_one(ModelId::AlexNet, Arch::Maeri, ModelScale::Tiny, 5);
        let sigma = run_one(ModelId::AlexNet, Arch::Sigma, ModelScale::Tiny, 5);
        assert!(sigma.energy.total_uj() < maeri.energy.total_uj());
        assert!(sigma.energy.total_uj() < tpu.energy.total_uj());
    }

    #[test]
    fn areas_are_gb_dominated_and_ordered() {
        let areas = fig5c_areas();
        assert_eq!(areas.len(), 3);
        for (arch, a) in &areas {
            assert!(
                a.gb_fraction() > 0.6,
                "{}: GB fraction {:.2}",
                arch.name(),
                a.gb_fraction()
            );
        }
        let total = |arch: Arch| {
            areas
                .iter()
                .find(|(a, _)| *a == arch)
                .map(|(_, b)| b.total())
                .unwrap()
        };
        assert!(total(Arch::Tpu) < total(Arch::Sigma));
        assert!(total(Arch::Sigma) < total(Arch::Maeri));
    }
}
