//! Full-model inference runs: the paper's layer-by-layer offload flow
//! with per-layer statistics, aggregate energy, and functional
//! validation.

use crate::backend::{ReferenceBackend, SimBackend};
use crate::executor::{execute_graph, time_graph};
use crate::params::ModelParams;
use crate::value::Value;
use std::sync::Arc;
use stonne_core::{
    AcceleratorConfig, ConfigError, ControllerKind, NaturalOrder, RowSchedule, SimCache,
    SimContext, SimStats, StateHash, Stonne,
};
use stonne_energy::{EnergyBreakdown, EnergyModel};
use stonne_models::OpSpec;

/// Statistics of one offloaded layer inside a model run.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Operation name (layer name, possibly suffixed by group/head).
    pub name: String,
    /// Cycle-level statistics of this layer.
    pub stats: SimStats,
}

/// Result of a full-model run on the reference (native) backend.
#[derive(Debug, Clone)]
pub struct ReferenceRun {
    /// Every node's output value.
    pub outputs: Vec<Value>,
}

/// Result of a full-model run on the simulated accelerator.
#[derive(Debug, Clone)]
pub struct ModelRun {
    /// Every node's output value (functionally comparable to the
    /// reference run). Empty after a timing-only run
    /// ([`RunOptions::timing_only`]), which computes no activation.
    pub outputs: Vec<Value>,
    /// Per-offloaded-operation statistics, in execution order.
    pub layers: Vec<LayerReport>,
    /// Aggregate statistics over the whole model.
    pub total: SimStats,
    /// Component energy breakdown over the whole model.
    pub energy: EnergyBreakdown,
}

impl ModelRun {
    /// Assembles a run from its node values and the statistics of its
    /// offloaded operations in execution order.
    fn assemble(
        outputs: Vec<Value>,
        stats: Vec<SimStats>,
        ms_size: usize,
        energy_model: &EnergyModel,
    ) -> Self {
        let mut total = SimStats {
            operation: "aggregate".to_owned(),
            ms_size,
            ..SimStats::default()
        };
        stats.iter().for_each(|s| total.merge(s));
        let name = |stats: SimStats| LayerReport {
            name: stats.operation.clone(),
            stats,
        };
        Self {
            outputs,
            layers: stats.into_iter().map(name).collect(),
            energy: energy_model.breakdown(&total),
            total,
        }
    }

    /// The final (classifier) output of the model.
    ///
    /// # Panics
    ///
    /// Panics if the run produced no values: a timing-only run
    /// (impossible for valid graphs otherwise).
    pub fn final_output(&self) -> &Value {
        self.outputs.last().expect("a run that computed outputs")
    }

    /// Serializes the run's statistics (per-layer + aggregate + energy)
    /// as a pretty JSON report — the full-model analogue of the Output
    /// Module's per-operation summary file.
    ///
    /// # Panics
    ///
    /// Never panics in practice (all fields are serializable).
    pub fn report_json(&self) -> String {
        #[derive(serde::Serialize)]
        struct Report<'a> {
            total: &'a SimStats,
            energy: &'a stonne_energy::EnergyBreakdown,
            layers: Vec<&'a SimStats>,
        }
        let report = Report {
            total: &self.total,
            energy: &self.energy,
            layers: self.layers.iter().map(|l| &l.stats).collect(),
        };
        serde_json::to_string_pretty(&report).expect("report serializes")
    }

    /// FNV-1a state hash over the run's canonical state: every output
    /// value's exact `f32` bits plus the per-layer statistics with
    /// volatile counters (cache hits/misses/inserts, engine
    /// invocations) zeroed. Two runs of the same model/config agree on
    /// this hash exactly when they agree bitwise on outputs and
    /// hardware-level stats — serial or [`RunOptions::parallel`], cold,
    /// cached or replayed from a disk store.
    pub fn state_hash(&self) -> u64 {
        state_hash_of(&self.outputs, self.layers.iter().map(|l| &l.stats))
    }
}

/// Absorbs one tensor: a tag, its dimensions and exact element bits.
fn hash_elems(h: &mut StateHash, tag: u64, dims: &[usize], elems: &[f32]) {
    h.update_u64(tag);
    for &d in dims {
        h.update_u64(d as u64);
    }
    for &x in elems {
        h.update_u32(x.to_bits());
    }
}

fn hash_value(h: &mut StateHash, v: &Value) {
    match v {
        Value::Feature(t) => {
            let (n, c, hh, w) = t.shape();
            hash_elems(h, 0, &[n, c, hh, w], t.as_slice());
        }
        Value::Tokens(m) => hash_elems(h, 1, &[m.rows(), m.cols()], m.as_slice()),
    }
}

/// FNV-1a over the canonical run state: node values (exact bits) and
/// per-layer stats with the host counters zeroed
/// ([`SimStats::clear_host_counters`]) — they depend on *how* a result
/// was obtained (cached, replayed), not on what the simulated hardware
/// did.
fn state_hash_of<'a>(values: &[Value], stats: impl ExactSizeIterator<Item = &'a SimStats>) -> u64 {
    let mut h = StateHash::new();
    h.update_u64(values.len() as u64);
    for v in values {
        hash_value(&mut h, v);
    }
    h.update_u64(stats.len() as u64);
    for s in stats {
        let mut s = s.clone();
        s.clear_host_counters();
        h.update_str(&serde_json::to_string(&s).expect("stats serialize"));
    }
    // The hashed layout ends with a length-prefixed string that is always
    // empty; its eight zero bytes stay so that every committed state hash
    // (the cross-architecture manifest, `sysbench`'s pins) keeps its value.
    h.update_str("");
    h.finish()
}

/// Knobs of a simulated full-model run: layer-simulation memoization,
/// host parallelism inside a layer, and whether activations are computed.
///
/// The default enables a fresh [`SimCache`] (repeated layer shapes — e.g.
/// BERT's 12 identical encoders — simulate once and replay bitwise
/// identically) and computes on the calling thread. Every run walks the
/// graph layer by layer; cached and uncached runs produce identical cycle
/// counts and outputs; disabling the cache only trades time for memory.
#[derive(Debug, Clone)]
pub struct RunOptions {
    cache: Option<SimCache>,
    parallel: bool,
    context: Option<SimContext>,
    timing_only: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            cache: Some(SimCache::new()),
            parallel: false,
            context: None,
            timing_only: false,
        }
    }
}

impl RunOptions {
    /// The default options: a fresh per-run cache, one host thread.
    pub fn new() -> Self {
        Self::default()
    }

    /// Disables the simulation cache (every layer re-simulates).
    #[must_use]
    pub fn uncached(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Uses an explicit (possibly shared) cache — e.g. one cache across
    /// every sweep point of a bench harness, or a disk-backed cache
    /// (`SimCache::backed_by`) whose entries outlive the process (the
    /// `stonne-serve` result store builds on exactly this).
    #[must_use]
    pub fn with_cache(mut self, cache: SimCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Asks for statistics only: the walk accounts every layer from
    /// shapes (and the weights' zero patterns), no activation is
    /// computed and [`ModelRun::outputs`] comes back empty; `layers`,
    /// `total`, `energy` and every layer-cache entry written are exactly
    /// the full run's. Where timing depends on activation values
    /// ([`timing_needs_values`]) the run stays a full one.
    #[must_use]
    pub fn timing_only(mut self) -> Self {
        self.timing_only = true;
        self
    }

    /// Uses the host's cores: the flexible engine fans the independent
    /// filter chunks *inside* each dense layer across a worker pool (see
    /// `docs/PERFORMANCE.md` for the disjoint-tile invariant) while layers
    /// still run one after another. Outputs, statistics and traces are
    /// bitwise-identical to a serial run; composes with every other
    /// option.
    #[must_use]
    pub fn parallel(mut self) -> Self {
        self.parallel = true;
        self
    }

    /// Uses an explicit (possibly shared) [`SimContext`] — its pooled
    /// scratch buffers survive across runs that share it (e.g. every
    /// sweep point of a worker), and [`SimContext::disabled`] selects the
    /// flexible engine's plain per-chunk walk. Without this, each run
    /// creates its own. Contexts never change results.
    #[must_use]
    pub fn with_context(mut self, context: SimContext) -> Self {
        self.context = Some(context);
        self
    }

    /// Worker budget handed to [`Stonne::with_intra_tiles`]: the host's
    /// available parallelism under [`RunOptions::parallel`], else 1.
    fn worker_budget(&self) -> usize {
        if self.parallel {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            1
        }
    }
}

/// Whether the timing of `model` on `config` depends on activation
/// values, so that a [`RunOptions::timing_only`] run has to be a full one:
/// a sparse controller that exploits activation sparsity (delivery follows
/// the streaming operand's zero mask) or meets an attention node (its
/// stationary operands are activations). Decided per run, not per layer.
pub fn timing_needs_values(model: &stonne_models::ModelSpec, config: &AcceleratorConfig) -> bool {
    let attention = |n: &stonne_models::NodeSpec| matches!(n.op, OpSpec::Attention { .. });
    config.controller == ControllerKind::Sparse
        && (config.exploit_activation_sparsity || model.nodes().iter().any(attention))
}

/// Runs a model natively on the CPU (the paper's correctness baseline).
pub fn run_model_reference(
    model: &stonne_models::ModelSpec,
    params: &ModelParams,
    input: &Value,
) -> ReferenceRun {
    let mut backend = ReferenceBackend;
    ReferenceRun {
        outputs: execute_graph(model, params, input, &mut backend),
    }
}

/// Runs a model on a simulated accelerator with the default (natural)
/// filter order.
///
/// # Errors
///
/// Returns [`ConfigError`] when the accelerator configuration is invalid.
pub fn run_model_simulated(
    model: &stonne_models::ModelSpec,
    params: &ModelParams,
    input: &Value,
    config: AcceleratorConfig,
) -> Result<ModelRun, ConfigError> {
    run_model_simulated_with(
        model,
        params,
        input,
        config,
        Arc::new(NaturalOrder),
        RunOptions::default(),
    )
}

/// Runs a model on a simulated accelerator with an explicit filter
/// schedule (sparse configurations; use case 3 of the paper).
///
/// # Errors
///
/// Returns [`ConfigError`] when the accelerator configuration is invalid.
pub fn run_model_simulated_scheduled(
    model: &stonne_models::ModelSpec,
    params: &ModelParams,
    input: &Value,
    config: AcceleratorConfig,
    schedule: Arc<dyn RowSchedule + Send + Sync>,
) -> Result<ModelRun, ConfigError> {
    run_model_simulated_with(
        model,
        params,
        input,
        config,
        schedule,
        RunOptions::default(),
    )
}

/// Runs a model on a simulated accelerator with explicit [`RunOptions`]:
/// one simulator instance, one walk over the graph in node order — over
/// shapes when only timing is asked for, else over values, through the
/// same [`execute_graph`] the reference run uses.
///
/// An interrupted run gets its finished layers back from the layer cache:
/// with [`SimCache::backed_by`] a disk store, every layer's entry is on
/// disk the moment the layer finishes, and a re-run over the same store
/// simulates only what is missing.
///
/// # Errors
///
/// Returns [`ConfigError`] when the accelerator configuration is invalid.
pub fn run_model_simulated_with(
    model: &stonne_models::ModelSpec,
    params: &ModelParams,
    input: &Value,
    config: AcceleratorConfig,
    schedule: Arc<dyn RowSchedule + Send + Sync>,
    options: RunOptions,
) -> Result<ModelRun, ConfigError> {
    let energy_model = EnergyModel::for_config(&config);
    let ms_size = config.ms_size;
    let mut sim = Stonne::new(config)?
        .with_intra_tiles(options.worker_budget())
        .with_context(options.context.unwrap_or_default());
    if let Some(cache) = options.cache {
        sim = sim.with_cache(cache);
    }
    let (values, stats) = if options.timing_only && !timing_needs_values(model, sim.config()) {
        time_graph(model, params, input, &mut sim, schedule.as_ref());
        (Vec::new(), sim.history().to_vec())
    } else {
        let mut backend = SimBackend::new(sim).with_schedule(schedule);
        let values = execute_graph(model, params, input, &mut backend);
        (values, backend.layer_stats().to_vec())
    };
    Ok(ModelRun::assemble(values, stats, ms_size, &energy_model))
}

/// Runs a model on a simulated accelerator while recording a cycle-level
/// trace of every offloaded layer (one continuous timeline; see
/// [`stonne_core::trace`]). `capacity` bounds the trace ring buffer in
/// events — pass [`stonne_core::trace::DEFAULT_CAPACITY`] when unsure.
///
/// # Errors
///
/// Returns [`ConfigError`] when the accelerator configuration is invalid.
pub fn run_model_simulated_traced(
    model: &stonne_models::ModelSpec,
    params: &ModelParams,
    input: &Value,
    config: AcceleratorConfig,
    capacity: usize,
) -> Result<(ModelRun, stonne_core::Trace), ConfigError> {
    run_model_simulated_traced_with(
        model,
        params,
        input,
        config,
        capacity,
        RunOptions::default(),
    )
}

/// [`run_model_simulated_traced`] with explicit [`RunOptions`] — used to
/// assert that [`RunOptions::parallel`] does not perturb the recorded
/// timeline (both trace byte-identically: the trace buffer is
/// thread-local and the accounting walk never leaves the calling thread).
///
/// # Errors
///
/// Returns [`ConfigError`] when the accelerator configuration is invalid.
pub fn run_model_simulated_traced_with(
    model: &stonne_models::ModelSpec,
    params: &ModelParams,
    input: &Value,
    config: AcceleratorConfig,
    capacity: usize,
    options: RunOptions,
) -> Result<(ModelRun, stonne_core::Trace), ConfigError> {
    stonne_core::trace::start(capacity);
    let run = run_model_simulated_with(
        model,
        params,
        input,
        config,
        Arc::new(NaturalOrder),
        options,
    );
    let trace = stonne_core::trace::finish().unwrap_or_default();
    Ok((run?, trace))
}

/// Compares a simulated run against the reference run node by node,
/// panicking on the first functional mismatch — the paper's functional
/// validation ("they perfectly match for all cases").
///
/// # Panics
///
/// Panics with the offending node index when outputs differ beyond the
/// floating-point tolerance.
pub fn assert_functionally_equal(reference: &ReferenceRun, run: &ModelRun) {
    assert_eq!(
        reference.outputs.len(),
        run.outputs.len(),
        "node count mismatch"
    );
    for (i, (r, s)) in reference.outputs.iter().zip(run.outputs.iter()).enumerate() {
        assert_eq!(r.shape(), s.shape(), "node {i} shape mismatch");
        let (rs, ss) = (r.as_slice(), s.as_slice());
        for (j, (a, b)) in rs.iter().zip(ss.iter()).enumerate() {
            assert!(
                stonne_tensor::approx_eq(*a, *b),
                "node {i} element {j}: reference {a} vs simulated {b}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::generate_input;
    use stonne_models::{zoo, ModelScale};

    #[test]
    fn tiny_alexnet_runs_and_validates_on_maeri() {
        let model = zoo::alexnet(ModelScale::Tiny);
        let params = ModelParams::generate(&model, 1);
        let input = generate_input(&model, 2);
        let reference = run_model_reference(&model, &params, &input);
        let run = run_model_simulated(
            &model,
            &params,
            &input,
            AcceleratorConfig::maeri_like(64, 32),
        )
        .unwrap();
        assert_functionally_equal(&reference, &run);
        assert!(run.total.cycles > 0);
        assert!(!run.layers.is_empty());
        assert!(run.energy.total_uj() > 0.0);
    }

    #[test]
    fn layer_reports_cover_offloaded_nodes() {
        let model = zoo::alexnet(ModelScale::Tiny);
        let params = ModelParams::generate(&model, 1);
        let input = generate_input(&model, 2);
        let run =
            run_model_simulated(&model, &params, &input, AcceleratorConfig::tpu_like(8)).unwrap();
        // 5 convs + 3 linears + 3 offloaded pools.
        assert!(run.layers.len() >= 8, "got {} layers", run.layers.len());
        let total_cycles: u64 = run.layers.iter().map(|l| l.stats.cycles).sum();
        assert_eq!(total_cycles, run.total.cycles);
    }

    #[test]
    fn sigma_beats_maeri_on_sparse_model() {
        // The headline of Fig. 5a: sparsity support wins on pruned models.
        let model = zoo::alexnet(ModelScale::Tiny);
        let params = ModelParams::generate(&model, 3); // 78% sparse weights
        let input = generate_input(&model, 4);
        let sigma = run_model_simulated(
            &model,
            &params,
            &input,
            AcceleratorConfig::sigma_like(64, 64),
        )
        .unwrap();
        let maeri = run_model_simulated(
            &model,
            &params,
            &input,
            AcceleratorConfig::maeri_like(64, 64),
        )
        .unwrap();
        assert!(
            sigma.total.cycles < maeri.total.cycles,
            "sigma {} !< maeri {}",
            sigma.total.cycles,
            maeri.total.cycles
        );
    }

    #[test]
    fn traced_model_run_covers_every_offloaded_cycle() {
        let model = zoo::alexnet(ModelScale::Tiny);
        let params = ModelParams::generate(&model, 1);
        let input = generate_input(&model, 2);
        let (run, trace) = run_model_simulated_traced(
            &model,
            &params,
            &input,
            AcceleratorConfig::maeri_like(64, 32),
            stonne_core::trace::DEFAULT_CAPACITY,
        )
        .unwrap();
        assert_eq!(trace.dropped(), 0);
        assert_eq!(
            trace.span_cycles(stonne_core::Component::Controller),
            run.total.cycles,
            "controller spans must tile the whole model timeline"
        );
    }

    #[test]
    fn json_report_includes_layers_and_energy() {
        let model = zoo::alexnet(ModelScale::Tiny);
        let params = ModelParams::generate(&model, 7);
        let input = generate_input(&model, 8);
        let run = run_model_simulated(
            &model,
            &params,
            &input,
            AcceleratorConfig::maeri_like(32, 16),
        )
        .unwrap();
        let json = run.report_json();
        assert!(json.contains("\"layers\""));
        assert!(json.contains("\"gb_uj\""));
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["layers"].as_array().unwrap().len(), run.layers.len());
    }

    #[test]
    fn state_hash_tracks_value_bits_and_stats() {
        use stonne_tensor::Matrix;
        let v = vec![Value::Tokens(Matrix::from_rows(&[&[1.0, 2.0]]))];
        let s = vec![SimStats {
            operation: "l0".to_owned(),
            cycles: 10,
            ..SimStats::default()
        }];
        let base = state_hash_of(&v, s.iter());
        assert_eq!(base, state_hash_of(&v, s.iter()), "deterministic");
        let mut v2 = v.clone();
        if let Value::Tokens(m) = &mut v2[0] {
            m.set(0, 0, 1.0000001);
        }
        assert_ne!(base, state_hash_of(&v2, s.iter()), "value bits matter");
        let mut s2 = s.clone();
        s2[0].cycles = 11;
        assert_ne!(base, state_hash_of(&v, s2.iter()), "stats matter");
        // Volatile counters are canonicalized away.
        let mut s3 = s.clone();
        s3[0].sim_cache_hits = 5;
        s3[0].engine_invocations = 2;
        assert_eq!(base, state_hash_of(&v, s3.iter()), "counters excluded");
    }

    #[test]
    fn final_output_is_classifier_logits() {
        let model = zoo::alexnet(ModelScale::Tiny);
        let params = ModelParams::generate(&model, 5);
        let input = generate_input(&model, 6);
        let run = run_model_simulated(
            &model,
            &params,
            &input,
            AcceleratorConfig::maeri_like(32, 16),
        )
        .unwrap();
        match run.final_output() {
            Value::Tokens(m) => assert_eq!(m.cols(), 10), // tiny scale: 10 classes
            Value::Feature(_) => panic!("classifier must emit tokens"),
        }
    }
}
