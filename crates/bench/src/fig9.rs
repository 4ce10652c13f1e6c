//! Figure 9: static filter scheduling on a 256-MS SIGMA-like
//! architecture — normalized runtime (9a) and energy (9b) of LFF and RDM
//! against No Scheduling, plus the per-layer ResNet-50 sensitivity
//! analysis (9c).

use crate::{run_parallel, ParallelError};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use stonne::core::{AcceleratorConfig, NaturalOrder, RowSchedule, SimCache};
use stonne::models::{zoo, ModelId, ModelScale};
use stonne::nn::params::{generate_input, ModelParams};
use stonne::nn::runner::{run_model_simulated_with, RunOptions};
use stonne::sched::{layer_sensitivity, LargestFilterFirst, LayerSensitivity, RandomOrder};

/// The evaluated scheduling policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Policy {
    /// No Scheduling (natural order) — the baseline.
    Ns,
    /// Random order.
    Rdm,
    /// Largest Filter First.
    Lff,
}

impl Policy {
    /// All policies, baseline first.
    pub const ALL: [Policy; 3] = [Policy::Ns, Policy::Rdm, Policy::Lff];

    /// Builds the schedule object.
    pub fn schedule(&self) -> Arc<dyn RowSchedule + Send + Sync> {
        match self {
            Policy::Ns => Arc::new(NaturalOrder),
            Policy::Rdm => Arc::new(RandomOrder::new(97)),
            Policy::Lff => Arc::new(LargestFilterFirst),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Ns => "NS",
            Policy::Rdm => "RDM",
            Policy::Lff => "LFF",
        }
    }
}

/// One (model, policy) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9Row {
    /// DNN model.
    pub model: ModelId,
    /// Scheduling policy.
    pub policy: Policy,
    /// Total inference cycles.
    pub cycles: u64,
    /// Total energy (µJ).
    pub energy_uj: f64,
    /// Average multiplier utilization.
    pub utilization: f64,
}

/// The paper's configuration: a 256-MS, 128-elements/cycle SIGMA-like
/// flexible sparse architecture.
pub fn fig9_config() -> AcceleratorConfig {
    AcceleratorConfig::sigma_like(256, 128)
}

/// Runs one model under one policy (with a private per-run cache).
pub fn run_one(model_id: ModelId, policy: Policy, scale: ModelScale, seed: u64) -> Fig9Row {
    run_one_cached(model_id, policy, scale, seed, &SimCache::new())
}

/// Like [`run_one`] but reusing a shared simulation cache. Keys include
/// the schedule token and the weights' sparsity pattern, so the three
/// policies (and differently-pruned layers) never collide.
pub fn run_one_cached(
    model_id: ModelId,
    policy: Policy,
    scale: ModelScale,
    seed: u64,
    cache: &SimCache,
) -> Fig9Row {
    let model = zoo::build(model_id, scale);
    let params = ModelParams::generate(&model, seed);
    let input = generate_input(&model, seed ^ 0xabc);
    let run = run_model_simulated_with(
        &model,
        &params,
        &input,
        fig9_config(),
        policy.schedule(),
        // The figure plots cycles and energy: no activations needed.
        RunOptions::new().timing_only().with_cache(cache.clone()),
    )
    .expect("valid config");
    Fig9Row {
        model: model_id,
        policy,
        cycles: run.total.cycles,
        energy_uj: run.energy.total_uj(),
        utilization: run.total.ms_utilization(),
    }
}

/// Runs the full sweep: every Table I model under NS, RDM and LFF on a
/// core-count-capped worker pool (each run is an independent, seeded
/// simulation).
///
/// # Errors
///
/// Returns [`ParallelError`] when a simulation panics.
pub fn fig9(scale: ModelScale, models: &[ModelId]) -> Result<Vec<Fig9Row>, ParallelError> {
    // One cache shared by every sweep point; schedule tokens in the keys
    // keep NS/RDM/LFF results strictly separated.
    let cache = SimCache::new();
    let mut tasks: Vec<Box<dyn FnOnce() -> Fig9Row + Send>> = Vec::new();
    for &model in models {
        for policy in Policy::ALL {
            let cache = cache.clone();
            tasks.push(Box::new(move || {
                run_one_cached(model, policy, scale, 61, &cache)
            }));
        }
    }
    run_parallel(tasks)
}

/// Fig. 9c: per-layer LFF sensitivity of ResNet-50, reduced to the 14
/// most representative layers (5 least sensitive, 4 median, 5 most
/// sensitive — the paper's low/medium/high grouping).
pub fn fig9c(scale: ModelScale) -> Vec<LayerSensitivity> {
    let model = zoo::resnet50(scale);
    let params = ModelParams::generate(&model, 61);
    let input = generate_input(&model, 62);
    let mut rows = layer_sensitivity(
        &model,
        &params,
        &input,
        fig9_config(),
        Arc::new(LargestFilterFirst),
    );
    rows.sort_by(|a, b| a.runtime_gain().partial_cmp(&b.runtime_gain()).unwrap());
    if rows.len() <= 14 {
        return rows;
    }
    let n = rows.len();
    let mut picked = Vec::with_capacity(14);
    picked.extend_from_slice(&rows[..5]); // low-sensitive
    let mid = n / 2;
    picked.extend_from_slice(&rows[mid - 2..mid + 2]); // medium
    picked.extend_from_slice(&rows[n - 5..]); // high-sensitive
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lff_is_never_slower_than_ns() {
        let ns = run_one(ModelId::SqueezeNet, Policy::Ns, ModelScale::Tiny, 2);
        let lff = run_one(ModelId::SqueezeNet, Policy::Lff, ModelScale::Tiny, 2);
        assert!(
            lff.cycles <= ns.cycles,
            "LFF {} > NS {}",
            lff.cycles,
            ns.cycles
        );
        assert!(lff.utilization >= ns.utilization);
    }

    #[test]
    fn rdm_brings_no_meaningful_gain() {
        // Fig. 9a: "the random scheduling strategy does not yield any
        // performance improvement".
        let ns = run_one(ModelId::MobileNetV1, Policy::Rdm, ModelScale::Tiny, 3);
        let base = run_one(ModelId::MobileNetV1, Policy::Ns, ModelScale::Tiny, 3);
        let ratio = ns.cycles as f64 / base.cycles as f64;
        assert!((0.95..=1.06).contains(&ratio), "RDM ratio {ratio}");
    }

    #[test]
    fn fig9c_rows_are_sorted_by_gain() {
        let rows = fig9c(ModelScale::Tiny);
        assert!(rows.len() >= 10);
        for pair in rows.windows(2) {
            assert!(pair[0].runtime_gain() <= pair[1].runtime_gain() + 1e-9);
        }
    }
}
