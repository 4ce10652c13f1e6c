//! Wire types of the sweep API: requests, grid expansion, and per-point
//! execution.
//!
//! A sweep request is a grid — architectures × models × sparsities — that
//! [`expand`] turns into an ordered list of [`SweepPoint`]s. Point order
//! (and therefore result order on the `/results` stream) is the
//! row-major walk of the grid: models outermost, then architectures,
//! then sparsities. Each point is an independent, fully-seeded
//! simulation, so a sweep produces identical bytes no matter how its
//! points are sharded across workers.
//!
//! Running a point is two steps: `build_inputs` generates what does not
//! depend on the architecture (model graph, pruned weights, input
//! sample), and `run_point_on` simulates one architecture on such a set.
//! The job executor does the first step once per `(model, scale,
//! sparsity, seed)` and the second once per point.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use stonne::core::{
    AcceleratorConfig, CycleBreakdown, NaturalOrder, SimCache, SimContext, SimStats,
};
use stonne::energy::EnergyBreakdown;
use stonne::models::{zoo, ModelId, ModelScale};
use stonne::nn::runner::{run_model_simulated_with, RunOptions};
use stonne_cluster::ModelInputs;

/// Upper bound on the number of points one request may expand to.
pub const MAX_POINTS: usize = 4096;

/// One accelerator configuration of the sweep grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArchSpec {
    /// Architecture preset: `tpu`, `maeri` or `sigma`.
    pub arch: String,
    /// Multiplier switches (0 → the preset default, 256).
    #[serde(default)]
    pub ms: usize,
    /// Global-Buffer bandwidth in elements/cycle (0 → the preset
    /// default, 128; ignored by `tpu`, which always runs full-bandwidth).
    #[serde(default)]
    pub bw: usize,
}

/// One model of the sweep grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelSel {
    /// Model name: `mobilenet`, `squeezenet`, `alexnet`, `resnet50`,
    /// `vgg16`, `ssd` or `bert`.
    pub name: String,
    /// Input scale: `tiny`, `reduced` or `standard` (empty → `tiny`).
    #[serde(default)]
    pub scale: String,
}

/// A sweep/DSE request: the grid to expand and the common run knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepRequest {
    /// Optional human-readable label echoed in job status.
    #[serde(default)]
    pub name: String,
    /// Architectures to sweep (at least one).
    pub archs: Vec<ArchSpec>,
    /// Models to sweep (at least one).
    pub models: Vec<ModelSel>,
    /// Weight-sparsity levels in `[0, 1)`. Empty → each model runs at
    /// its own published (Table I) sparsity ratio.
    #[serde(default)]
    pub sparsities: Vec<f64>,
    /// RNG seed for weights/inputs (every point derives from it
    /// deterministically).
    #[serde(default)]
    pub seed: u64,
}

/// One fully-resolved simulation point of an expanded sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Position in the expanded grid (result order).
    pub index: usize,
    /// Architecture preset name.
    pub arch: String,
    /// Multiplier switches.
    pub ms: usize,
    /// GB bandwidth (elements/cycle).
    pub bw: usize,
    /// Model name.
    pub model: String,
    /// Input scale name.
    pub scale: String,
    /// Weight sparsity this point runs at.
    pub sparsity: f64,
    /// RNG seed of this point.
    pub seed: u64,
}

/// The result of one sweep point, as streamed on the results endpoints.
///
/// Deliberately excludes the cache/store counters of the run: those
/// depend on what happened to be warm, while everything here is a pure
/// function of the point — which is what makes repeated sweeps
/// byte-identical. Cache/store activity is reported per job instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointResult {
    /// The point this result belongs to.
    pub point: SweepPoint,
    /// Total inference cycles.
    pub cycles: u64,
    /// Cycles in which at least one multiplier was busy.
    pub compute_cycles: u64,
    /// Cycles stalled on DRAM.
    pub dram_stall_cycles: u64,
    /// Average multiplier utilization in `[0, 1]`.
    pub utilization: f64,
    /// Multiplications performed.
    pub multiplications: u64,
    /// Offloaded layers simulated.
    pub layers: usize,
    /// Per-phase cycle split of the whole inference.
    pub breakdown: CycleBreakdown,
    /// Energy breakdown (µJ).
    pub energy: EnergyBreakdown,
}

/// Parses an architecture spec into a validated configuration.
///
/// The `(arch, ms, bw)` grammar is shared with cluster instance specs,
/// so both surfaces delegate to [`stonne_cluster::spec::config_from`].
///
/// # Errors
///
/// Returns a message when the preset is unknown, a TPU `ms` is not a
/// perfect square, or the composed configuration fails validation.
pub fn config_for(spec: &ArchSpec) -> Result<AcceleratorConfig, String> {
    stonne_cluster::spec::config_from(&spec.arch, spec.ms, spec.bw)
}

/// Parses a model name (see [`stonne_cluster::spec::parse_model`]).
///
/// # Errors
///
/// Returns a message naming the unknown model.
pub fn parse_model(name: &str) -> Result<ModelId, String> {
    stonne_cluster::spec::parse_model(name)
}

/// Parses a scale name, empty meaning `tiny` (see
/// [`stonne_cluster::spec::parse_scale`]).
///
/// # Errors
///
/// Returns a message naming the unknown scale.
pub fn parse_scale(name: &str) -> Result<ModelScale, String> {
    stonne_cluster::spec::parse_scale(name)
}

/// An expanded sweep grid: the points to run plus how many raw grid
/// cells were collapsed away by axis deduplication.
#[derive(Debug, Clone, PartialEq)]
pub struct Expansion {
    /// The deduplicated, ordered simulation points.
    pub points: Vec<SweepPoint>,
    /// Raw grid cells removed by deduplication (0 when every axis value
    /// was unique). Surfaced in the `202` submission response.
    pub collapsed: usize,
}

/// Expands a request into its ordered simulation points, validating
/// every grid axis up front so a submitted job can only fail on
/// simulator internals, never on malformed input. Repeated axis values
/// (same resolved architecture, same model+scale, bit-identical
/// sparsity) are deduplicated — previously `--sparsities 0.5,0.5`
/// silently simulated and streamed duplicate points — keeping the first
/// occurrence of each and reporting the collapsed cell count.
///
/// # Errors
///
/// Returns a message describing the first invalid axis value, an empty
/// axis, or a (deduplicated) grid larger than [`MAX_POINTS`].
pub fn expand(request: &SweepRequest) -> Result<Expansion, String> {
    if request.archs.is_empty() {
        return Err("request needs at least one arch".to_owned());
    }
    if request.models.is_empty() {
        return Err("request needs at least one model".to_owned());
    }
    for s in &request.sparsities {
        if !(0.0..1.0).contains(s) {
            return Err(format!("sparsity {s} outside [0, 1)"));
        }
    }
    // Validate then dedup each axis, keeping first occurrences in order.
    // Architectures dedup on the configuration they resolve to (`tpu`
    // ignores `bw`, `ms 0` means 256), not on the spelled-out triple.
    let mut archs: Vec<&ArchSpec> = Vec::new();
    let mut arch_cfgs: Vec<AcceleratorConfig> = Vec::new();
    for spec in &request.archs {
        let cfg = config_for(spec)?;
        if !arch_cfgs.contains(&cfg) {
            arch_cfgs.push(cfg);
            archs.push(spec);
        }
    }
    let mut models: Vec<&ModelSel> = Vec::new();
    let mut model_keys: Vec<(ModelId, ModelScale)> = Vec::new();
    for model in &request.models {
        let key = (parse_model(&model.name)?, parse_scale(&model.scale)?);
        if !model_keys.contains(&key) {
            model_keys.push(key);
            models.push(model);
        }
    }
    let mut sparsities: Vec<f64> = Vec::new();
    for &s in &request.sparsities {
        if !sparsities.iter().any(|kept| kept.to_bits() == s.to_bits()) {
            sparsities.push(s);
        }
    }
    let raw_cells = request.models.len() * request.archs.len() * request.sparsities.len().max(1);

    let mut points = Vec::new();
    for model in &models {
        let id = parse_model(&model.name)?;
        let scale = parse_scale(&model.scale)?;
        // One probe build resolves the model's own sparsity default.
        let default_sparsity = zoo::build(id, scale).weight_sparsity();
        let sparsities = if sparsities.is_empty() {
            vec![default_sparsity]
        } else {
            sparsities.clone()
        };
        for spec in &archs {
            let cfg = config_for(spec)?;
            for &sparsity in &sparsities {
                points.push(SweepPoint {
                    index: points.len(),
                    arch: spec.arch.clone(),
                    ms: cfg.ms_size,
                    bw: if spec.bw == 0 { 128 } else { spec.bw },
                    model: model.name.clone(),
                    scale: if model.scale.is_empty() {
                        "tiny".to_owned()
                    } else {
                        model.scale.clone()
                    },
                    sparsity,
                    seed: request.seed,
                });
                if points.len() > MAX_POINTS {
                    return Err(format!("grid exceeds {MAX_POINTS} points"));
                }
            }
        }
    }
    Ok(Expansion {
        collapsed: raw_cells - points.len(),
        points,
    })
}

/// Generates the architecture-independent inputs of `point`, a pure
/// function of its `(model, scale, sparsity, seed)`: every architecture
/// of a sweep can run on one shared set (see [`crate::job`]).
///
/// # Errors
///
/// Returns a message when the point's model or scale name is invalid.
pub(crate) fn build_inputs(point: &SweepPoint) -> Result<ModelInputs, String> {
    ModelInputs::generate(&point.model, &point.scale, point.seed, Some(point.sparsity))
}

/// Runs `point` on inputs built by [`build_inputs`] for it (or for any
/// point with the same model, scale, sparsity and seed) through the
/// shared `cache`, with `context`'s pooled engine scratch. Returns the
/// point's result plus the run's aggregate stats (whose cache/store
/// counters the job executor accumulates into job status).
///
/// # Errors
///
/// Returns a message when the point's architecture is invalid (only
/// possible for points constructed outside [`expand`]).
pub(crate) fn run_point_on(
    point: &SweepPoint,
    inputs: &ModelInputs,
    cache: &SimCache,
    context: &SimContext,
) -> Result<(PointResult, SimStats), String> {
    let cfg = config_for(&ArchSpec {
        arch: point.arch.clone(),
        ms: point.ms,
        bw: point.bw,
    })?;
    // A point result is cycles, counters and energy — never a tensor —
    // so no activation is computed.
    let options = RunOptions::new()
        .timing_only()
        .with_cache(cache.clone())
        .with_context(context.clone());
    let run = run_model_simulated_with(
        &inputs.model,
        &inputs.params,
        &inputs.input,
        cfg,
        Arc::new(NaturalOrder),
        options,
    )
    .map_err(|e| e.to_string())?;
    let total = run.total;
    let result = PointResult {
        point: point.clone(),
        cycles: total.cycles,
        compute_cycles: total.compute_cycles,
        dram_stall_cycles: total.dram_stall_cycles,
        utilization: total.ms_utilization(),
        multiplications: total.counters.multiplications,
        layers: run.layers.len(),
        breakdown: total.breakdown,
        energy: run.energy,
    };
    Ok((result, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> SweepRequest {
        SweepRequest {
            name: String::new(),
            archs: vec![
                ArchSpec {
                    arch: "maeri".into(),
                    ms: 32,
                    bw: 16,
                },
                ArchSpec {
                    arch: "tpu".into(),
                    ms: 16,
                    bw: 0,
                },
            ],
            models: vec![ModelSel {
                name: "alexnet".into(),
                scale: "tiny".into(),
            }],
            sparsities: vec![0.0, 0.5],
            seed: 3,
        }
    }

    #[test]
    fn expansion_is_row_major_and_indexed() {
        let expansion = expand(&request()).unwrap();
        let points = &expansion.points;
        assert_eq!(points.len(), 4);
        assert_eq!(expansion.collapsed, 0);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        assert_eq!(
            (points[0].arch.as_str(), points[0].sparsity),
            ("maeri", 0.0)
        );
        assert_eq!((points[3].arch.as_str(), points[3].sparsity), ("tpu", 0.5));
    }

    #[test]
    fn repeated_axis_values_collapse_and_are_counted() {
        // Duplicate sparsity, duplicate model, and an arch that resolves
        // to the same configuration as an earlier one (ms 0 → 256).
        let mut r = request();
        r.sparsities = vec![0.5, 0.5, 0.0];
        r.models.push(ModelSel {
            name: "alexnet".into(),
            scale: "tiny".into(),
        });
        r.archs.push(ArchSpec {
            arch: "maeri".into(),
            ms: 32,
            bw: 16,
        });
        let expansion = expand(&r).unwrap();
        // Unique cells: 1 model × 2 archs × 2 sparsities.
        assert_eq!(expansion.points.len(), 4);
        // Raw cells: 2 × 3 × 3 = 18.
        assert_eq!(expansion.collapsed, 14);
        for (i, p) in expansion.points.iter().enumerate() {
            assert_eq!(p.index, i, "indices stay dense after dedup");
        }
        // `tpu` has no bandwidth knob: `tpu:16:0` and `tpu:16:64` resolve
        // to one accelerator and are simulated once.
        let mut r = request();
        r.archs[1].bw = 0;
        r.archs.push(ArchSpec {
            bw: 64,
            ..r.archs[1].clone()
        });
        assert_eq!(r.archs[1].arch, "tpu");
        let expansion = expand(&r).unwrap();
        assert_eq!((expansion.points.len(), expansion.collapsed), (4, 2));
        // A blank scale and an explicit `tiny` are the same model.
        let mut r = request();
        r.models.push(ModelSel {
            name: "alexnet".into(),
            scale: String::new(),
        });
        assert_eq!(expand(&r).unwrap().points.len(), 4);
    }

    #[test]
    fn expansion_rejects_bad_axes() {
        let mut r = request();
        r.archs[0].arch = "hypercube".into();
        assert!(expand(&r).is_err());
        let mut r = request();
        r.sparsities = vec![1.5];
        assert!(expand(&r).is_err());
        let mut r = request();
        r.models.clear();
        assert!(expand(&r).is_err());
        let mut r = request();
        r.archs[1].ms = 200; // non-square TPU
        assert!(expand(&r).is_err());
    }

    #[test]
    fn empty_sparsities_use_the_model_default() {
        let mut r = request();
        r.sparsities.clear();
        r.models[0].name = "squeezenet".into();
        let expansion = expand(&r).unwrap();
        assert_eq!(expansion.points.len(), 2);
        assert_eq!(expansion.collapsed, 0);
        assert!(
            expansion.points[0].sparsity > 0.0,
            "SqueezeNet ships pruned"
        );
    }

    #[test]
    fn run_point_is_deterministic_and_cache_invariant() {
        let point = &expand(&request()).unwrap().points[1];
        let inputs = build_inputs(point).unwrap();
        let run = |cache: &SimCache| run_point_on(point, &inputs, cache, &SimContext::new());
        let (cold, _) = run(&SimCache::new()).unwrap();
        let shared = SimCache::new();
        let (warm_a, _) = run(&shared).unwrap();
        let (warm_b, stats_b) = run(&shared).unwrap();
        assert_eq!(cold, warm_a);
        assert_eq!(cold, warm_b);
        assert_eq!(stats_b.engine_invocations, 0, "second run fully cached");
        assert!(cold.cycles > 0);
        assert!(cold.layers >= 2, "a fig5-style sweep spans several layers");
    }

    #[test]
    fn request_roundtrips_through_json() {
        let r = request();
        let text = serde_json::to_string(&r).unwrap();
        let back: SweepRequest = serde_json::from_str(&text).unwrap();
        assert_eq!(back.archs.len(), 2);
        assert_eq!(back.models[0].name, "alexnet");
        assert_eq!(back.seed, 3);
        // Omitted optional fields default.
        let min: SweepRequest =
            serde_json::from_str(r#"{"archs":[{"arch":"maeri"}],"models":[{"name":"bert"}]}"#)
                .unwrap();
        assert_eq!(min.archs[0].ms, 0);
        assert_eq!(min.models[0].scale, "");
        assert!(min.sparsities.is_empty());
    }
}
