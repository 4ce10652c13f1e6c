//! DL-framework front-end for STONNE-rs.
//!
//! The original STONNE plugs into PyTorch as an accelerator device: the
//! framework executes a model layer by layer, offloading compute-intensive
//! operations (convolutions, linear layers, matrix multiplications) to the
//! simulated accelerator and running everything else natively (Fig. 2 of
//! the paper). This crate is that front-end, natively in Rust:
//!
//! * [`params`] — deterministic synthetic weights, magnitude-pruned to
//!   each model's Table I sparsity ratio.
//! * [`backend`] — the compute [`Backend`] trait with a CPU
//!   [`ReferenceBackend`] (the "native PyTorch" path) and a
//!   [`SimBackend`] that drives a [`stonne_core::Stonne`] instance through
//!   the STONNE API, mirroring the `Simulated*` ops of Fig. 2d.
//! * [`executor`] — graph execution over [`stonne_models::ModelSpec`]
//!   DAGs, including native ReLU/GeLU/softmax/layer-norm/pooling and
//!   multi-head attention whose inner matmuls go through the backend.
//! * [`runner`] — full-model inference: per-layer statistics, aggregate
//!   cycles/energy, and functional validation against the reference.
//!   A run is always one sequential walk over the graph around one
//!   simulator instance — the paper's layer-by-layer offload.
//!   [`RunOptions`] controls layer-simulation memoization (on by default;
//!   see [`stonne_core::SimCache`]), host parallelism *inside* a layer
//!   (`parallel`), and whether activations are computed at all
//!   (`timing_only`: statistics from shapes, for callers that never read
//!   an output). An interrupted run resumes through the cache: back it
//!   with a [`stonne_core::DiskStore`] and a re-run simulates only the
//!   layers whose entries are missing. [`ModelRun::state_hash`] digests a
//!   run's exact output bits and statistics.
//! * [`parallel`] — the bounded worker pool that fans whole runs out:
//!   the bench-harness figure sweeps and the cluster profiler.
//!
//! # Example
//!
//! ```
//! use stonne_core::AcceleratorConfig;
//! use stonne_models::{zoo, ModelScale};
//! use stonne_nn::runner::{run_model_reference, run_model_simulated};
//! use stonne_nn::params::ModelParams;
//!
//! let model = zoo::alexnet(ModelScale::Tiny);
//! let params = ModelParams::generate(&model, 1);
//! let input = stonne_nn::params::generate_input(&model, 2);
//! let reference = run_model_reference(&model, &params, &input);
//! let run = run_model_simulated(
//!     &model, &params, &input,
//!     AcceleratorConfig::maeri_like(64, 16),
//! ).unwrap();
//! // Functional validation: the simulated run covers every node.
//! assert_eq!(reference.outputs.len(), run.outputs.len());
//! assert!(run.total.cycles > 0);
//! ```

pub mod backend;
pub mod executor;
pub mod parallel;
pub mod params;
pub mod runner;
pub mod value;

pub use backend::{Backend, ReferenceBackend, SimBackend};
pub use executor::execute_graph;
pub use parallel::{run_parallel, ParallelError};
pub use params::{generate_input, ModelParams, NodeWeights};
pub use runner::{
    run_model_reference, run_model_simulated, run_model_simulated_traced,
    run_model_simulated_traced_with, run_model_simulated_with, timing_needs_values, LayerReport,
    ModelRun, ReferenceRun, RunOptions,
};
pub use value::Value;
