//! The simulation cache's correctness gate: cached, uncached, parallel
//! and store-replayed full-model runs must be indistinguishable —
//! bitwise-identical outputs and identical per-layer cycle statistics —
//! while the cached run performs far fewer cycle-level engine
//! invocations, and a re-run over a partly filled disk store (what an
//! interrupted run leaves behind) simulates only the missing layers.

use std::sync::Arc;
use stonne_core::{
    chrome_trace_json, summary_json, AcceleratorConfig, DiskStore, NaturalOrder, SimCache,
    SimContext, SimStats,
};
use stonne_models::{zoo, ModelId, ModelScale};
use stonne_nn::params::{generate_input, ModelParams};
use stonne_nn::runner::{
    run_model_simulated_traced_with, run_model_simulated_with, ModelRun, RunOptions,
};

/// Zeroes the host bookkeeping fields so stats compare field-by-field.
fn strip_cache_counters(mut s: SimStats) -> SimStats {
    s.clear_host_counters();
    s
}

/// A Tiny model with its generated weights and input (generation
/// dominates a Tiny run, so a test that runs it repeatedly builds it once).
type Instance = (stonne_models::ModelSpec, ModelParams, stonne_nn::Value);

fn tiny(id: ModelId, (weights_seed, input_seed): (u64, u64)) -> Instance {
    let model = zoo::build(id, ModelScale::Tiny);
    let params = ModelParams::generate(&model, weights_seed);
    let input = generate_input(&model, input_seed);
    (model, params, input)
}

fn tiny_bert() -> Instance {
    tiny(ModelId::Bert, (17, 18))
}

fn run_on(
    (model, params, input): &Instance,
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

/// The state hash is stable across serial and `.parallel()` runs — the
/// oracle the fuzz matrix pins.
#[test]
fn state_hash_is_stable_across_runners() {
    let config = AcceleratorConfig::maeri_like(32, 16);
    let alexnet = tiny(ModelId::AlexNet, (1, 2));
    let serial = run_on(&alexnet, config.clone(), RunOptions::new());
    let parallel = run_on(&alexnet, config.clone(), RunOptions::new().parallel());
    assert_eq!(serial.state_hash(), parallel.state_hash());
    // And it is not vacuous: a different input changes it.
    let other = run_on(&tiny(ModelId::AlexNet, (1, 3)), config, RunOptions::new());
    assert_ne!(serial.state_hash(), other.state_hash());
}

/// `.parallel()` does not perturb the recorded trace: it exports the
/// plain run's timeline byte for byte.
#[test]
fn parallel_preserves_the_trace_byte_for_byte() {
    let (model, params, input) = tiny(ModelId::AlexNet, (1, 2));
    let traced = |options: RunOptions| {
        let capacity = stonne_core::trace::DEFAULT_CAPACITY;
        let cfg = AcceleratorConfig::maeri_like(32, 16);
        run_model_simulated_traced_with(&model, &params, &input, cfg, capacity, options).unwrap()
    };
    let (plain_run, plain_trace) = traced(RunOptions::new());
    assert!(!plain_trace.events().is_empty());
    let (run, trace) = traced(RunOptions::new().parallel());
    assert_equivalent(&plain_run, &run, "traced-parallel");
    assert_eq!(plain_run.report_json(), run.report_json());
    assert_eq!(
        chrome_trace_json(&plain_trace),
        chrome_trace_json(&trace),
        "trace bytes"
    );
}

/// How an interrupted run resumes: layer entries land in the disk store
/// one per finished layer, atomically, so whatever the dead run finished
/// is there for the next one. A re-run through a fresh memory cache on a
/// store that lost half its entries simulates exactly the missing half.
#[test]
fn a_rerun_over_a_partial_store_simulates_only_what_is_missing() {
    let root = std::env::temp_dir().join(format!("stonne-nn-partial-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let store = DiskStore::open(&root).unwrap();
    let alexnet = tiny(ModelId::AlexNet, (1, 2));
    let run = || {
        let cache = SimCache::new().backed_by(store.scoped());
        let config = AcceleratorConfig::maeri_like(64, 32);
        run_on(&alexnet, config, RunOptions::new().with_cache(cache))
    };

    let first = run();
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(store.dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    assert_eq!(entries.len() as u64, first.total.engine_invocations);
    let deleted: Vec<_> = entries.iter().step_by(2).collect();
    assert!(deleted.len() >= 2 && deleted.len() < entries.len());
    for path in &deleted {
        std::fs::remove_file(path).unwrap();
    }

    let second = run();
    assert_equivalent(&first, &second, "partial-store");
    assert_eq!(first.state_hash(), second.state_hash());
    assert_eq!(second.total.engine_invocations, deleted.len() as u64);
    let third = run();
    assert_equivalent(&first, &third, "refilled-store");
    assert_eq!(third.total.engine_invocations, 0, "every layer replays");
    std::fs::remove_dir_all(&root).ok();
}
