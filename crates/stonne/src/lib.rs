//! STONNE-rs: a Rust reproduction of *STONNE: Enabling Cycle-Level
//! Microarchitectural Simulation for DNN Inference Accelerators*
//! (Muñoz-Martínez, Abellán, Acacio, Krishna — IISWC 2021).
//!
//! This facade re-exports the whole workspace:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`core`] | `stonne-core` | cycle-level simulation engine (DN/MN/RN networks, controllers, STONNE API) |
//! | [`tensor`] | `stonne-tensor` | dense/sparse tensors, im2col, pruning |
//! | [`models`] | `stonne-models` | the seven DNN models of Table I + Fig. 1/Table V workloads |
//! | [`nn`] | `stonne-nn` | DL-framework front-end (reference + simulated backends) |
//! | [`analytical`] | `stonne-analytical` | SCALE-Sim/MAERI/SIGMA analytical baselines |
//! | [`energy`] | `stonne-energy` | table-based energy & area models |
//! | [`dram`] | `stonne-dram` | HBM2 bandwidth/latency + double buffering |
//! | [`snapea`] | `stonne-snapea` | use case B: SNAPEA back-end extension |
//! | [`sched`] | `stonne-sched` | use case C: filter scheduling front-end extension |
//!
//! # Quick start
//!
//! Simulate one GEMM on the three Table IV presets:
//!
//! ```
//! use stonne::core::{AcceleratorConfig, Stonne};
//! use stonne::tensor::{Matrix, SeededRng};
//!
//! # fn main() -> Result<(), stonne::core::ConfigError> {
//! let mut rng = SeededRng::new(1);
//! let a = Matrix::random(32, 64, &mut rng);
//! let b = Matrix::random(64, 16, &mut rng);
//! for cfg in [
//!     AcceleratorConfig::tpu_like(16),
//!     AcceleratorConfig::maeri_like(256, 128),
//!     AcceleratorConfig::sigma_like(256, 128),
//! ] {
//!     let mut sim = Stonne::new(cfg)?;
//!     let (_, stats) = sim.run_gemm("demo", &a, &b);
//!     println!("{}: {} cycles", stats.accelerator, stats.cycles);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! Full-model simulation (the paper's PyTorch-style flow):
//!
//! ```
//! use stonne::core::AcceleratorConfig;
//! use stonne::models::{zoo, ModelScale};
//! use stonne::nn::params::{generate_input, ModelParams};
//! use stonne::nn::runner::run_model_simulated;
//!
//! let model = zoo::squeezenet(ModelScale::Tiny);
//! let params = ModelParams::generate(&model, 42);
//! let input = generate_input(&model, 43);
//! let run = run_model_simulated(
//!     &model, &params, &input,
//!     AcceleratorConfig::sigma_like(64, 64),
//! ).unwrap();
//! println!("{} cycles, {:.2} µJ", run.total.cycles, run.energy.total_uj());
//! ```

pub use stonne_analytical as analytical;
pub use stonne_core as core;
pub use stonne_dram as dram;
pub use stonne_energy as energy;
pub use stonne_models as models;
pub use stonne_nn as nn;
pub use stonne_sched as sched;
pub use stonne_snapea as snapea;
pub use stonne_tensor as tensor;
