//! The simulation cache's correctness gate: cached, uncached, and
//! parallel full-model runs must be indistinguishable — bitwise-identical
//! outputs and identical per-layer cycle statistics — while the cached
//! run performs far fewer cycle-level engine invocations.

use std::sync::Arc;
use stonne_core::{summary_json, AcceleratorConfig, NaturalOrder, SimCache, SimContext, SimStats};
use stonne_models::{zoo, ModelId, ModelScale};
use stonne_nn::params::{generate_input, ModelParams};
use stonne_nn::runner::{run_model_simulated_with, ModelRun, RunOptions};

/// Zeroes the host bookkeeping fields so stats compare field-by-field.
fn strip_cache_counters(mut s: SimStats) -> SimStats {
    s.clear_host_counters();
    s
}

/// Tiny BERT with its generated weights and input (generation dominates
/// a Tiny run, so a test that runs it repeatedly builds it once).
type Bert = (stonne_models::ModelSpec, ModelParams, stonne_nn::Value);

fn tiny_bert() -> Bert {
    let model = zoo::build(ModelId::Bert, ModelScale::Tiny);
    let params = ModelParams::generate(&model, 17);
    let input = generate_input(&model, 18);
    (model, params, input)
}

fn run_on(
    (model, params, input): &Bert,
    config: AcceleratorConfig,
    options: RunOptions,
) -> ModelRun {
    let schedule = Arc::new(NaturalOrder);
    run_model_simulated_with(model, params, input, config, schedule, options).expect("valid preset")
}

fn run_bert(config: AcceleratorConfig, options: RunOptions) -> ModelRun {
    run_on(&tiny_bert(), config, options)
}

fn assert_equivalent(reference: &ModelRun, candidate: &ModelRun, label: &str) {
    assert_eq!(
        reference.outputs.len(),
        candidate.outputs.len(),
        "{label}: node count"
    );
    for (i, (a, b)) in reference
        .outputs
        .iter()
        .zip(candidate.outputs.iter())
        .enumerate()
    {
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "{label}: node {i} output must be bitwise identical"
        );
    }
    assert_eq!(
        reference.layers.len(),
        candidate.layers.len(),
        "{label}: layer count"
    );
    for (a, b) in reference.layers.iter().zip(candidate.layers.iter()) {
        assert_eq!(a.name, b.name, "{label}: layer order");
        assert_eq!(
            strip_cache_counters(a.stats.clone()),
            strip_cache_counters(b.stats.clone()),
            "{label}: layer `{}` stats",
            a.name
        );
    }
    assert_eq!(
        strip_cache_counters(reference.total.clone()),
        strip_cache_counters(candidate.total.clone()),
        "{label}: aggregate stats"
    );
}

#[test]
fn cached_bert_run_is_bitwise_identical_and_much_cheaper() {
    let config = AcceleratorConfig::maeri_like(64, 16);
    let uncached = run_bert(config.clone(), RunOptions::new().uncached());
    let cached = run_bert(config, RunOptions::new());

    assert_equivalent(&uncached, &cached, "cached-vs-uncached");

    // Every offloaded op of the uncached run hits the engine; the cached
    // run simulates each distinct shape once. BERT's 12 identical
    // encoders make the gap at least 5× (the ISSUE's acceptance floor).
    assert_eq!(
        uncached.total.engine_invocations,
        uncached.layers.len() as u64
    );
    assert_eq!(uncached.total.sim_cache_hits, 0);
    assert!(
        cached.total.engine_invocations * 5 <= uncached.total.engine_invocations,
        "cached {} engine invocations vs uncached {}",
        cached.total.engine_invocations,
        uncached.total.engine_invocations
    );
    assert_eq!(
        cached.total.sim_cache_hits + cached.total.sim_cache_misses,
        cached.layers.len() as u64
    );
    assert_eq!(
        cached.total.sim_cache_inserts,
        cached.total.engine_invocations
    );

    // The cache counters flow into the Output Module's JSON summary.
    let json = summary_json(&cached.total);
    assert!(json.contains("\"sim_cache_hits\""), "{json}");
    assert!(json.contains("\"engine_invocations\""), "{json}");
}

#[test]
fn parallel_bert_run_matches_the_sequential_run() {
    let config = AcceleratorConfig::maeri_like(64, 16);
    let sequential = run_bert(config.clone(), RunOptions::new());
    let parallel = run_bert(config, RunOptions::new().parallel());
    assert_equivalent(&sequential, &parallel, "parallel-vs-sequential");
}

#[test]
fn parallel_cached_bert_reports_the_sequential_cache_counters() {
    // The fan-out happens inside a layer, after the layer-cache lookup:
    // the raw (uncleared) totals and per-layer stats agree — hits, misses
    // and engine invocations included — on the systolic engine, where
    // `.parallel()` has nothing to fan, and on the flexible one.
    let bert = tiny_bert();
    for config in [
        AcceleratorConfig::tpu_like(8),
        AcceleratorConfig::maeri_like(64, 16),
    ] {
        let sequential = run_on(&bert, config.clone(), RunOptions::new());
        let parallel = run_on(&bert, config.clone(), RunOptions::new().parallel());
        assert_eq!(sequential.total, parallel.total, "{}", config.name);
        assert_eq!(sequential.layers, parallel.layers, "{}", config.name);
    }
}

#[test]
fn parallel_uncached_squeezenet_matches_sequential() {
    // A branching graph on the sparse engine, uncached: every layer walks
    // its engine and none of them has a dense fan-out to use.
    let config = AcceleratorConfig::sigma_like(64, 64);
    let model = zoo::build(ModelId::SqueezeNet, ModelScale::Tiny);
    let params = ModelParams::generate(&model, 5);
    let input = generate_input(&model, 6);
    let run = |options: RunOptions| {
        run_model_simulated_with(
            &model,
            &params,
            &input,
            config.clone(),
            Arc::new(NaturalOrder),
            options,
        )
        .expect("valid preset")
    };
    let sequential = run(RunOptions::new().uncached());
    let parallel = run(RunOptions::new().uncached().parallel());
    assert_equivalent(&sequential, &parallel, "squeezenet-parallel");
}

#[test]
fn shared_cache_carries_across_runs() {
    // The bench harnesses share one cache across sweep points; a second
    // identical run must be (almost) all hits.
    let config = AcceleratorConfig::maeri_like(64, 16);
    let cache = SimCache::new();
    let first = run_bert(config.clone(), RunOptions::new().with_cache(cache.clone()));
    let entries_after_first = cache.len();
    let second = run_bert(config, RunOptions::new().with_cache(cache.clone()));
    assert_equivalent(&first, &second, "shared-cache");
    assert_eq!(second.total.engine_invocations, 0, "all layers replay");
    assert_eq!(second.total.sim_cache_hits, second.layers.len() as u64);
    assert_eq!(cache.len(), entries_after_first, "no new entries");
}

#[test]
fn class_collapse_is_invisible_on_a_depthwise_model() {
    // The model-level on/off check: MobileNet's depthwise groups make
    // many small flexible-engine invocations per layer, with and without
    // a ragged last chunk.
    let config = AcceleratorConfig::maeri_like(64, 16);
    let model = zoo::build(ModelId::MobileNetV1, ModelScale::Tiny);
    let params = ModelParams::generate(&model, 21);
    let input = generate_input(&model, 22);
    let run = |options: RunOptions| {
        run_model_simulated_with(
            &model,
            &params,
            &input,
            config.clone(),
            Arc::new(NaturalOrder),
            options,
        )
        .expect("valid preset")
    };
    let plain = run(RunOptions::new()
        .uncached()
        .with_context(SimContext::disabled()));
    let collapsed = run(RunOptions::new().uncached());
    assert_equivalent(&plain, &collapsed, "collapse-off-vs-on");
    assert_eq!(plain.state_hash(), collapsed.state_hash());
    assert_eq!(
        plain.total.tile_cache_assembled, 0,
        "plain walk counts nothing"
    );
    assert!(
        collapsed.total.tile_cache_hits > 0,
        "chunks replay a class record"
    );
}
