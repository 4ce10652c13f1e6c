//! Phase 1 of a cluster run: profile every (instance, model) pair once
//! with the cycle-level simulator.
//!
//! The event loop (phase 2) never invokes the engines; it replays these
//! profiles. That split is what makes cluster runs cheap (each unique
//! pair simulates once, then thousands of requests replay it) and
//! bitwise-reproducible: the profiles are a pure function of the request
//! — cache hits, store warmth, and serial-vs-pool execution cannot
//! change a single byte of them (each profile is one timing-only walk
//! over the model's shapes, and the volatile cache counters are
//! stripped).

use crate::spec::{parse_model, parse_scale, ClusterRequest};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use stonne::core::{NaturalOrder, SimCache, SimContext, SimStats};
use stonne::models::{zoo, ModelSpec};
use stonne::nn::params::{generate_input, ModelParams};
use stonne::nn::runner::{run_model_simulated_with, RunOptions};
use stonne::nn::Value;

/// How phase 1 executes its (instance, model) profiling runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One run after another on the calling thread.
    Serial,
    /// All runs fan out across the `stonne-nn` worker pool (each run is
    /// itself one sequential walk). Results are bitwise identical to
    /// [`ExecMode::Serial`].
    Pool,
}

/// One offloaded layer of a profiled inference, reduced to what the
/// event loop needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerProfile {
    /// Cycles the layer occupies its instance.
    pub cycles: u64,
    /// Elements the layer moves over the shared DRAM (reads + writes).
    pub dram_elements: u64,
    /// Fill-phase cycles (weight/operand loading); amortized across a
    /// batch, since a batch loads weights once.
    pub fill_cycles: u64,
}

/// The full profile of one model on one instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestProfile {
    /// Per-layer timeline, in execution order.
    pub layers: Vec<LayerProfile>,
    /// Total inference cycles (sum of layer cycles).
    pub cycles: u64,
    /// Aggregate engine statistics with the host counters zeroed
    /// ([`SimStats::clear_host_counters`]).
    pub total: SimStats,
}

/// What a simulated inference consumes that does not depend on the
/// accelerator. Generating a set costs far more than sharing one, so
/// [`build_profiles`] makes one per model for all instances and the sweep
/// server one per `(model, scale, sparsity, seed)` for all architectures.
#[derive(Debug)]
pub struct ModelInputs {
    /// The model graph.
    pub model: ModelSpec,
    /// Weights generated with `seed` and pruned to the requested sparsity.
    pub params: ModelParams,
    /// The input sample, generated with `seed ^ 1`.
    pub input: Value,
}

#[cfg(test)]
thread_local! {
    /// Sets generated on this thread (each test runs on its own).
    static GENERATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl ModelInputs {
    /// Builds the named model and generates its weights and input;
    /// `sparsity` of `None` means the model's own published ratio.
    ///
    /// # Errors
    ///
    /// Returns a message naming an unknown model or scale.
    pub fn generate(
        name: &str,
        scale: &str,
        seed: u64,
        sparsity: Option<f64>,
    ) -> Result<Self, String> {
        #[cfg(test)]
        GENERATED.with(|n| n.set(n.get() + 1));
        let model = zoo::build(parse_model(name)?, parse_scale(scale)?);
        let sparsity = sparsity.unwrap_or_else(|| model.weight_sparsity());
        Ok(Self {
            params: ModelParams::generate_with_sparsity(&model, seed, sparsity),
            input: generate_input(&model, seed ^ 1),
            model,
        })
    }
}

/// Profiles one model on one instance.
fn profile_one(
    request: &ClusterRequest,
    instance: usize,
    inputs: &ModelInputs,
    cache: &SimCache,
    context: &SimContext,
) -> Result<RequestProfile, String> {
    let spec = &request.instances[instance];
    let mut cfg = spec.config()?;
    // Profile with the cluster's shared-DRAM model enabled: layer cycles
    // then include each transfer's *uncontended* cost (the engine cache
    // is DRAM-agnostic, so this shares entries with plain sweep runs),
    // and the per-layer dram_reads/dram_writes counters populate. The
    // event loop charges only the additional arbitration wait on top.
    cfg.dram = request.dram.unwrap_or_default().config();
    cfg.model_dram = true;
    // A profile is per-layer cycles and DRAM traffic: no activations.
    let options = RunOptions::new()
        .timing_only()
        .with_context(context.clone())
        .with_cache(cache.clone());
    let run = run_model_simulated_with(
        &inputs.model,
        &inputs.params,
        &inputs.input,
        cfg,
        Arc::new(NaturalOrder),
        options,
    )
    .map_err(|e| e.to_string())?;
    let layers: Vec<LayerProfile> = run
        .layers
        .iter()
        .map(|l| LayerProfile {
            cycles: l.stats.cycles,
            dram_elements: l.stats.counters.dram_reads + l.stats.counters.dram_writes,
            fill_cycles: l.stats.breakdown.fill_cycles.min(l.stats.cycles),
        })
        .collect();
    let mut total = run.total;
    // Cache warmth must not show: profiles are a pure function of the
    // request.
    total.clear_host_counters();
    Ok(RequestProfile {
        cycles: layers.iter().map(|l| l.cycles).sum(),
        layers,
        total,
    })
}

/// Profiles every (instance, model) pair of `request`, returning
/// `profiles[instance][model]`.
///
/// # Errors
///
/// Returns the first configuration/parse error (none after
/// [`ClusterRequest::validate`]) or a worker-pool failure.
pub fn build_profiles(
    request: &ClusterRequest,
    cache: &SimCache,
    mode: ExecMode,
) -> Result<Vec<Vec<RequestProfile>>, String> {
    let instances = request.instances.len();
    let models = request.models.len();
    // One input set per model, shared by every instance that profiles it.
    let inputs = request
        .models
        .iter()
        .map(|m| ModelInputs::generate(&m.name, &m.scale, request.seed, request.sparsity))
        .collect::<Result<Vec<_>, String>>()?;
    // One context for the whole profiling phase: every (instance, model)
    // pair reuses its scratch pool instead of re-growing one per pair.
    let context = SimContext::new();
    let flat: Vec<RequestProfile> = match mode {
        ExecMode::Serial => {
            let mut out = Vec::with_capacity(instances * models);
            for i in 0..instances {
                for set in &inputs {
                    out.push(profile_one(request, i, set, cache, &context)?);
                }
            }
            out
        }
        ExecMode::Pool => {
            let inputs = Arc::new(inputs);
            let tasks: Vec<_> = (0..instances * models)
                .map(|k| {
                    let request = request.clone();
                    let inputs = Arc::clone(&inputs);
                    let cache = cache.clone();
                    let context = context.clone();
                    move || {
                        let set = &inputs[k % models];
                        profile_one(&request, k / models, set, &cache, &context)
                    }
                })
                .collect();
            stonne::nn::run_parallel(tasks)
                .map_err(|e| e.to_string())?
                .into_iter()
                .collect::<Result<Vec<_>, String>>()?
        }
    };
    let mut flat = flat.into_iter();
    Ok((0..instances)
        .map(|_| {
            (0..models)
                .map(|_| flat.next().expect("sized above"))
                .collect()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{InstanceSpec, ModelRef};

    fn tiny_request() -> ClusterRequest {
        ClusterRequest {
            name: String::new(),
            instances: vec![
                InstanceSpec {
                    arch: "maeri".into(),
                    ms: 64,
                    bw: 32,
                },
                InstanceSpec {
                    arch: "tpu".into(),
                    ms: 16,
                    bw: 0,
                },
            ],
            models: vec![
                ModelRef {
                    name: "alexnet".into(),
                    scale: "tiny".into(),
                },
                ModelRef {
                    name: "squeezenet".into(),
                    scale: String::new(),
                },
            ],
            classes: Vec::new(),
            requests: 8,
            rates: Vec::new(),
            batch: 1,
            policy: String::new(),
            seed: 7,
            sparsity: None,
            dram: None,
        }
    }

    #[test]
    fn serial_and_pool_profiles_are_bitwise_equal() {
        let request = tiny_request();
        let serial = build_profiles(&request, &SimCache::new(), ExecMode::Serial).unwrap();
        let pool = build_profiles(&request, &SimCache::new(), ExecMode::Pool).unwrap();
        assert_eq!(serial, pool);
        assert_eq!(serial.len(), 2);
        assert_eq!(serial[0].len(), 2);
        for row in &serial {
            for profile in row {
                assert!(profile.cycles > 0);
                assert!(!profile.layers.is_empty());
                assert_eq!(
                    profile.cycles,
                    profile.layers.iter().map(|l| l.cycles).sum::<u64>()
                );
                assert_eq!(profile.total.engine_invocations, 0, "volatile stripped");
                assert!(profile.layers.iter().any(|l| l.dram_elements > 0));
            }
        }
        // Heterogeneity is real: the two instances disagree on cost.
        assert_ne!(serial[0][0].cycles, serial[1][0].cycles);
    }

    #[test]
    fn one_model_on_three_instances_generates_one_input_set() {
        let mut request = tiny_request();
        request.models.truncate(1);
        request.instances.push(InstanceSpec {
            arch: "sigma".into(),
            ms: 64,
            bw: 32,
        });
        for mode in [ExecMode::Serial, ExecMode::Pool] {
            let before = GENERATED.with(std::cell::Cell::get);
            let profiles = build_profiles(&request, &SimCache::new(), mode).unwrap();
            assert_eq!(GENERATED.with(std::cell::Cell::get) - before, 1, "{mode:?}");
            assert_eq!((profiles.len(), profiles[0].len()), (3, 1));
        }
    }

    #[test]
    fn profiles_are_cache_warmth_invariant() {
        let request = tiny_request();
        let shared = SimCache::new();
        let cold = build_profiles(&request, &shared, ExecMode::Serial).unwrap();
        let warm = build_profiles(&request, &shared, ExecMode::Serial).unwrap();
        assert_eq!(cold, warm);
    }
}
