//! The benchmark-facing API: every in-process call the harness makes
//! into the simulator goes through this file, and no other file of the
//! crate names a simulator type.
//!
//! Changes that claim a gain may not edit the benchmark, while ROADMAP
//! items 2–3 will move internal APIs (`SimStats` host counters, the reuse
//! tiers). Keeping the dozen signatures the harness depends on in one
//! place means such a move touches this file only, mechanically, and the
//! measurements stay comparable. The list is repeated in `README.md`:
//!
//! * `zoo::build`, `ModelSpec::{weight_sparsity, nodes}`
//! * `ModelParams::{generate_with_sparsity, get}`, `generate_input`
//! * `run_model_simulated_with`
//! * `RunOptions::{new, uncached, with_cache, with_context, parallel}`
//! * `SimCache::{new, backed_by}`
//! * `DiskStore::{open, save_blob, load_blob, counters}`
//! * `SimContext::disabled`
//! * `ModelRun::{total, state_hash}` and the `SimStats` fields `cycles`,
//!   `counters.multiplications`, `engine_invocations`,
//!   `tile_cache_{hits,misses}`
//! * `Stonne::{new, run_gemm, run_spmm, run_maxpool}`,
//!   `AcceleratorConfig::{maeri_like, sigma_like, tpu_like}`
//! * `stonne-tensor`: `gemm_reference`, `im2col_matrix`,
//!   `CsrMatrix::from_dense`, `prune_matrix_to_sparsity`
//! * `stonne_bench::table5::table5`, `code_fingerprint`

use std::path::Path;
use std::sync::Arc;

use stonne_core::{
    AcceleratorConfig, Dataflow, DiskStore, NaturalOrder, SimCache, SimContext, Stonne,
};
use stonne_models::{zoo, ModelId, ModelScale, ModelSpec};
use stonne_nn::{generate_input, run_model_simulated_with, ModelParams, NodeWeights, RunOptions};
use stonne_tensor::{
    gemm_reference, im2col_matrix, prune_matrix_to_sparsity, Conv2dGeom, CsrMatrix, Matrix,
    SeededRng, Tensor4,
};

/// A zoo model graph.
pub type Model = ModelSpec;
/// Generated (pruned) weights of a model.
pub type Params = ModelParams;
/// A generated model input.
pub type Input = stonne_nn::Value;
/// A validated accelerator configuration.
pub type Config = AcceleratorConfig;

/// Input scale of the zoo models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured scale.
    Reduced,
    /// The smoke-test scale.
    Tiny,
}

impl Scale {
    /// The scale's name on the CLI and the serve wire.
    pub fn wire_name(self) -> &'static str {
        match self {
            Scale::Reduced => "reduced",
            Scale::Tiny => "tiny",
        }
    }
}

/// Builds the zoo model called `name` on the serve wire.
///
/// # Panics
///
/// Panics on a name outside the benchmark's fixed inputs.
pub fn build_model(name: &str, scale: Scale) -> Model {
    let id = match name {
        "mobilenet" => ModelId::MobileNetV1,
        "squeezenet" => ModelId::SqueezeNet,
        "alexnet" => ModelId::AlexNet,
        "resnet50" => ModelId::ResNet50,
        "ssd" => ModelId::SsdMobileNet,
        "bert" => ModelId::Bert,
        other => panic!("model `{other}` is not a benchmark input"),
    };
    let scale = match scale {
        Scale::Reduced => ModelScale::Reduced,
        Scale::Tiny => ModelScale::Tiny,
    };
    zoo::build(id, scale)
}

/// The model's published (Table I) weight sparsity.
pub fn table_sparsity(model: &Model) -> f64 {
    model.weight_sparsity()
}

/// Generates the model's weights pruned to `sparsity`.
pub fn generate_params(model: &Model, seed: u64, sparsity: f64) -> Params {
    ModelParams::generate_with_sparsity(model, seed, sparsity)
}

/// Number of weights (zeros included) in `params`.
pub fn weight_count(model: &Model, params: &Params) -> u64 {
    (0..model.nodes().len())
        .filter_map(|id| params.get(id))
        .map(|w| match w {
            NodeWeights::Conv(t) => t.len() as u64,
            NodeWeights::Linear(m) => m.len() as u64,
        })
        .sum()
}

/// Generates the model's input sample.
pub fn generate_model_input(model: &Model, seed: u64) -> Input {
    generate_input(model, seed)
}

/// Resolves an `arch:ms:bw` triple the way `stonne sweep --archs` and the
/// serve wire do (`tpu` takes `ms` as the PE count of a square array).
///
/// # Panics
///
/// Panics on an architecture outside the benchmark's fixed inputs.
pub fn arch_config(arch: &str, ms: usize, bw: usize) -> Config {
    match arch {
        "maeri" => AcceleratorConfig::maeri_like(ms, bw),
        "sigma" => AcceleratorConfig::sigma_like(ms, bw),
        "tpu" => {
            let dim = (ms as f64).sqrt().round() as usize;
            assert_eq!(dim * dim, ms, "tpu ms must be a perfect square");
            AcceleratorConfig::tpu_like(dim)
        }
        other => panic!("arch `{other}` is not a benchmark input"),
    }
}

/// How a model run may reuse earlier results.
#[derive(Debug, Clone)]
pub enum Reuse {
    /// `RunOptions::new().uncached()`: engines and arithmetic do all the
    /// work (tile records are still shared inside the run).
    Uncached,
    /// Uncached, with the tile tier off too (`SimContext::disabled()`).
    UncachedTilesOff,
    /// Uncached, independent layers dispatched in parallel waves.
    UncachedWaveParallel,
    /// `RunOptions::new().with_cache(..)`: the given layer cache (fresh,
    /// memory-warm or disk-backed).
    Cached(LayerCache),
}

/// A layer-result cache handle (shared by clones).
#[derive(Debug, Clone)]
pub struct LayerCache(SimCache);

impl LayerCache {
    /// A fresh in-memory cache.
    pub fn in_memory() -> Self {
        LayerCache(SimCache::new())
    }

    /// A fresh in-memory cache over the on-disk store.
    pub fn backed_by(store: &Store) -> Self {
        LayerCache(SimCache::new().backed_by(store.0.clone()))
    }
}

/// Activity of one on-disk store handle since it was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreActivity {
    /// Entries loaded from disk.
    pub hits: u64,
    /// Lookups that found nothing usable on disk.
    pub misses: u64,
    /// Entries written to disk.
    pub writes: u64,
}

/// An opened on-disk result store.
#[derive(Debug, Clone)]
pub struct Store(DiskStore);

impl Store {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be created or read.
    pub fn open(root: &Path) -> std::io::Result<Self> {
        DiskStore::open(root).map(Store)
    }

    /// Writes one blob; returns whether it landed.
    pub fn save_blob(&self, kind: &str, key: &str, text: &str) -> bool {
        self.0.save_blob(kind, key, text)
    }

    /// Reads one blob back.
    pub fn load_blob(&self, kind: &str, key: &str) -> Option<String> {
        self.0.load_blob(kind, key)
    }

    /// This handle's counters.
    pub fn activity(&self) -> StoreActivity {
        let c = self.0.counters();
        StoreActivity {
            hits: c.hits,
            misses: c.misses,
            writes: c.writes,
        }
    }
}

/// What the harness reads off a finished model run: the behavioural
/// checksum (`cycles`, `macs`, `state_hash`) and the host-side counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDigest {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Multiplications performed (simulated MACs).
    pub macs: u64,
    /// `ModelRun::state_hash`: every output bit plus per-layer stats.
    pub state_hash: u64,
    /// Cycle-level engine invocations actually executed.
    pub engine_invocations: u64,
    /// Tile records replayed from the tile tier.
    pub tile_hits: u64,
    /// Tile records the engines had to derive.
    pub tile_misses: u64,
}

impl RunDigest {
    /// The part of the digest that may never move: a pure function of
    /// the model, parameters, input and configuration.
    pub fn checksum(&self) -> (u64, u64, u64) {
        (self.cycles, self.macs, self.state_hash)
    }
}

/// Runs `model` on `config`, serially, with the given reuse.
///
/// # Panics
///
/// Panics when the configuration is invalid (the benchmark's inputs are
/// fixed presets).
pub fn run_model(
    model: &Model,
    params: &Params,
    input: &Input,
    config: &Config,
    reuse: Reuse,
) -> RunDigest {
    let options = match reuse {
        Reuse::Uncached => RunOptions::new().uncached(),
        Reuse::UncachedTilesOff => RunOptions::new()
            .uncached()
            .with_context(SimContext::disabled()),
        Reuse::UncachedWaveParallel => RunOptions::new().uncached().parallel(),
        Reuse::Cached(cache) => RunOptions::new().with_cache(cache.0),
    };
    let run = run_model_simulated_with(
        model,
        params,
        input,
        config.clone(),
        Arc::new(NaturalOrder),
        options,
    )
    .expect("benchmark presets are valid configurations");
    RunDigest {
        cycles: run.total.cycles,
        macs: run.total.counters.multiplications,
        state_hash: run.state_hash(),
        engine_invocations: run.total.engine_invocations,
        tile_hits: run.total.tile_cache_hits,
        tile_misses: run.total.tile_cache_misses,
    }
}

/// Mean |cycles − RTL| / RTL over the Table V rows, in percent: the
/// simulator's accuracy against published RTL cycle counts, printed
/// beside every speed figure.
pub fn rtl_error_avg_pct() -> f64 {
    let rows = stonne_bench::table5::table5();
    rows.iter().map(|r| r.error_vs_rtl_pct()).sum::<f64>() / rows.len() as f64
}

/// The build's code fingerprint (the store namespace).
pub fn code_fingerprint() -> &'static str {
    stonne_core::code_fingerprint()
}

/// One engine or tensor-kernel micro: `units` of work (`unit` names
/// them) done by every call of `run`.
pub struct Micro {
    /// Metric name.
    pub name: &'static str,
    /// What one unit of work is (`MAC` or `elem`).
    pub unit: &'static str,
    /// Units of work per call.
    pub units: u64,
    /// The call; returns a value that depends on the work done.
    pub run: Box<dyn FnMut() -> u64>,
}

/// The engine micros, on the `bench perf` shapes so history carries
/// over from `results/BENCH.json`: one per engine class.
pub fn engine_micros() -> Vec<Micro> {
    let gemm = |name: &'static str, config: Config, m: usize, n: usize, k: usize, seed: u64| {
        let mut rng = SeededRng::new(seed);
        let a = Matrix::random(m, k, &mut rng);
        let b = Matrix::random(k, n, &mut rng);
        Micro {
            name,
            unit: "MAC",
            units: (m * n * k) as u64,
            run: Box::new(move || {
                let mut sim = Stonne::new(config.clone()).expect("valid preset");
                sim.run_gemm("micro", &a, &b).1.cycles
            }),
        }
    };
    let mut flexible_os = AcceleratorConfig::maeri_like(256, 128);
    flexible_os.dataflow = Dataflow::OutputStationary;
    let mut flexible_ws = AcceleratorConfig::maeri_like(256, 128);
    flexible_ws.dataflow = Dataflow::WeightStationary;

    let mut rng = SeededRng::new(23);
    let mut sparse_a = Matrix::random_filterwise(256, 256, 0.8, &mut rng);
    prune_matrix_to_sparsity(&mut sparse_a, 0.7);
    let csr = CsrMatrix::from_dense(&sparse_a);
    let sparse_b = Matrix::random(256, 128, &mut rng);
    let sparse_macs = (csr.nnz() * 128) as u64;

    let mut rng = SeededRng::new(29);
    let pool_in = Tensor4::random(1, 64, 96, 96, &mut rng);
    let pool_elems = pool_in.len() as u64;

    vec![
        gemm(
            "engine.systolic_ns_per_mac",
            AcceleratorConfig::tpu_like(64),
            256,
            256,
            256,
            19,
        ),
        gemm(
            "engine.flexible_ws_ns_per_mac",
            flexible_ws,
            128,
            128,
            256,
            21,
        ),
        gemm(
            "engine.flexible_os_ns_per_mac",
            flexible_os,
            128,
            128,
            256,
            21,
        ),
        Micro {
            name: "engine.sparse_ns_per_mac",
            unit: "MAC",
            units: sparse_macs,
            run: Box::new(move || {
                let mut sim =
                    Stonne::new(AcceleratorConfig::sigma_like(256, 256)).expect("valid preset");
                sim.run_spmm("micro", &csr, &sparse_b).1.cycles
            }),
        },
        Micro {
            name: "engine.pool_ns_per_elem",
            unit: "elem",
            units: pool_elems,
            run: Box::new(move || {
                let mut sim =
                    Stonne::new(AcceleratorConfig::maeri_like(64, 32)).expect("valid preset");
                sim.run_maxpool("micro", &pool_in, 2, 2).1.cycles
            }),
        },
    ]
}

/// The `stonne-tensor` kernel micros under every engine and under param
/// generation.
pub fn tensor_micros() -> Vec<Micro> {
    let mut rng = SeededRng::new(31);
    let a = Matrix::random(256, 256, &mut rng);
    let b = Matrix::random(256, 256, &mut rng);

    let geom = Conv2dGeom::new(64, 64, 3, 3, 1, 1, 1);
    let image = Tensor4::random(1, 64, 56, 56, &mut rng);
    let col_elems = (geom.dot_product_len() * 56 * 56) as u64;

    let mut pruned = Matrix::random_filterwise(512, 512, 0.8, &mut rng);
    prune_matrix_to_sparsity(&mut pruned, 0.8);
    let dense = Matrix::random_filterwise(512, 512, 0.8, &mut rng);

    vec![
        Micro {
            name: "tensor.gemm_ref_ns_per_mac",
            unit: "MAC",
            units: 256 * 256 * 256,
            run: Box::new(move || gemm_reference(&a, &b).get(0, 0).to_bits() as u64),
        },
        Micro {
            name: "tensor.im2col_ns_per_elem",
            unit: "elem",
            units: col_elems,
            run: Box::new(move || im2col_matrix(&image, &geom, 0).len() as u64),
        },
        Micro {
            name: "tensor.csr_build_ns_per_elem",
            unit: "elem",
            units: 512 * 512,
            run: Box::new(move || CsrMatrix::from_dense(&pruned).nnz() as u64),
        },
        Micro {
            name: "tensor.prune_ns_per_elem",
            unit: "elem",
            units: 512 * 512,
            run: Box::new(move || {
                let mut m = dense.clone();
                prune_matrix_to_sparsity(&mut m, 0.8);
                m.nnz() as u64
            }),
        },
    ]
}
