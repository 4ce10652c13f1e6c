//! The timing-only gate: a run that computes no activation must report
//! exactly the statistics of the full run, write exactly its layer-cache
//! entries, and fall back to a full run — outputs included — wherever
//! timing depends on activation values.

use std::sync::Arc;
use stonne_core::{AcceleratorConfig, NaturalOrder, SimCache, SimStats};
use stonne_models::{zoo, ModelScale, ModelSpec};
use stonne_nn::params::{generate_input, ModelParams};
use stonne_nn::runner::{run_model_simulated_with, ModelRun, RunOptions};
use stonne_nn::{timing_needs_values, Value};

type Inputs = (ModelSpec, ModelParams, Value);

fn run(
    (model, params, input): &Inputs,
    config: &AcceleratorConfig,
    options: RunOptions,
) -> ModelRun {
    let schedule = Arc::new(NaturalOrder);
    run_model_simulated_with(model, params, input, config.clone(), schedule, options)
        .expect("valid preset")
}

/// Per-layer names and statistics, then the aggregate, host counters off.
fn stripped(run: &ModelRun) -> Vec<(String, SimStats)> {
    let layers = run.layers.iter().map(|l| (l.name.clone(), l.stats.clone()));
    let mut all: Vec<_> = layers
        .chain([("total".to_owned(), run.total.clone())])
        .collect();
    all.iter_mut().for_each(|(_, s)| s.clear_host_counters());
    all
}

#[test]
fn timing_only_and_full_runs_fill_one_anothers_caches_on_every_zoo_model() {
    let presets = [
        AcceleratorConfig::tpu_like(8),
        AcceleratorConfig::maeri_like(64, 16),
        AcceleratorConfig::sigma_like(64, 16),
    ];
    for model in zoo::all_models(ModelScale::Tiny) {
        let params = ModelParams::generate(&model, 21);
        let input = generate_input(&model, 22);
        let inputs = (model, params, input);
        for config in &presets {
            let label = format!("{} on {}", inputs.0.id(), config.name);
            let cached = |cache: &SimCache| RunOptions::new().with_cache(cache.clone());
            let (by_timing, by_full) = (SimCache::new(), SimCache::new());
            let timed = run(&inputs, config, cached(&by_timing).timing_only());
            let full = run(&inputs, config, cached(&by_full));
            assert_eq!(full.outputs.len(), inputs.0.nodes().len(), "{label}");
            if timing_needs_values(&inputs.0, config) {
                // BERT on a sparse controller: attention's stationary
                // operands are activations, so the request falls back.
                assert_eq!(timed.state_hash(), full.state_hash(), "{label}: fallback");
                assert_eq!(timed.outputs, full.outputs, "{label}: fallback");
                continue;
            }
            // Both started cold, so even the host counters agree.
            assert!(timed.outputs.is_empty(), "{label}");
            assert_eq!(timed.layers, full.layers, "{label}");
            assert_eq!(timed.total, full.total, "{label}");
            assert_eq!(timed.energy, full.energy, "{label}");
            assert_eq!(
                by_timing.key_signatures(),
                by_full.key_signatures(),
                "{label}"
            );
            // Either mode's entries serve the other without an engine.
            let full_warm = run(&inputs, config, cached(&by_timing));
            assert_eq!(full_warm.total.engine_invocations, 0, "{label}");
            assert_eq!(full_warm.state_hash(), full.state_hash(), "{label}");
            let timed_warm = run(&inputs, config, cached(&by_full).timing_only());
            assert_eq!(timed_warm.total.engine_invocations, 0, "{label}");
            assert_eq!(stripped(&timed_warm), stripped(&full), "{label}");
        }
    }
}

#[test]
fn activation_sparsity_takes_the_full_run_and_returns_outputs() {
    let model = zoo::alexnet(ModelScale::Tiny);
    let params = ModelParams::generate(&model, 23);
    let input = generate_input(&model, 24);
    let inputs = (model, params, input);
    let dual = AcceleratorConfig {
        exploit_activation_sparsity: true,
        ..AcceleratorConfig::sigma_like(64, 16)
    };
    assert!(timing_needs_values(&inputs.0, &dual));
    assert!(!timing_needs_values(
        &inputs.0,
        &AcceleratorConfig::sigma_like(64, 16)
    ));
    let timed = run(&inputs, &dual, RunOptions::new().timing_only());
    let full = run(&inputs, &dual, RunOptions::new());
    assert_eq!(timed.outputs.len(), inputs.0.nodes().len());
    assert_eq!(timed.state_hash(), full.state_hash());
    // Parallel and timing-only compose: the walk is sequential either way.
    let maeri = AcceleratorConfig::maeri_like(64, 16);
    let timed = run(&inputs, &maeri, RunOptions::new().parallel().timing_only());
    assert!(timed.outputs.is_empty());
    assert_eq!(
        stripped(&timed),
        stripped(&run(&inputs, &maeri, RunOptions::new()))
    );
}
