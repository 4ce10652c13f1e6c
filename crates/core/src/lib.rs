//! `stonne-core`: a cycle-level microarchitectural simulation engine for
//! DNN inference accelerators — a Rust reproduction of the STONNE
//! simulator (Muñoz-Martínez et al., IISWC 2021).
//!
//! The engine builds on the paper's observation that most DNN accelerators
//! decompose into three configurable on-chip network tiers — a
//! distribution network (DN), a multiplier network (MN), and a reduction
//! network (RN) — plus a Global Buffer and a memory controller. Selecting
//! one module per tier composes rigid architectures (the TPU's systolic
//! array), flexible dense ones (MAERI), and flexible sparse ones (SIGMA);
//! see [`AcceleratorConfig`] and the presets of Table IV.
//!
//! # Quick start
//!
//! ```
//! use stonne_core::{AcceleratorConfig, Stonne};
//! use stonne_tensor::{Matrix, SeededRng};
//!
//! # fn main() -> Result<(), stonne_core::ConfigError> {
//! let mut rng = SeededRng::new(42);
//! let weights = Matrix::random(16, 64, &mut rng); // MK operand
//! let inputs = Matrix::random(64, 8, &mut rng); // KN operand
//!
//! let mut sim = Stonne::new(AcceleratorConfig::maeri_like(128, 32))?;
//! let (output, stats) = sim.run_gemm("demo_gemm", &weights, &inputs);
//!
//! assert_eq!((output.rows(), output.cols()), (16, 8));
//! println!("cycles: {}", stats.cycles);
//! println!("utilization: {:.1}%", stats.ms_utilization() * 100.0);
//! # Ok(())
//! # }
//! ```
//!
//! # Modules
//!
//! * [`config`] — building-block selection and presets (Table IV).
//! * [`mapping`] — `Layer(R,S,C,K,G,N,X',Y')` and `Tile(T_*)` descriptors
//!   plus the mRNA-style mapper.
//! * [`networks`] — DN/MN/RN cost-and-activity models (Fig. 3b).
//! * [`engine`] — the systolic, flexible and sparse cycle-level engines.
//! * [`accelerator`] — the composed simulator instance ([`Stonne`]).
//! * [`cache`] — the layer-simulation memoization cache ([`SimCache`]).
//! * [`context`] — pooled engine scratch threaded through workers, plus
//!   the flexible engine's class-collapse switch ([`SimContext`]).
//! * [`store`] — the disk-persistent, content-addressed result store
//!   backing the cache across processes ([`DiskStore`]) — what an
//!   interrupted run or sweep gets its finished layers back from — and
//!   the FNV-1a [`StateHash`] its content digests share with run state
//!   hashes.
//! * [`api`] — the coarse-grained STONNE API instruction set (Table III).
//! * [`stats`] / [`output`] — activity counters, JSON summary, counter
//!   file, Chrome-trace timeline export.
//! * [`trace`] — zero-overhead-when-disabled cycle-level span recording.

#![warn(missing_docs)]

pub mod accelerator;
pub mod api;
pub mod cache;
pub mod config;
pub mod context;
pub mod engine;
pub mod mapping;
pub mod networks;
pub mod output;
pub mod stats;
pub mod store;
pub mod trace;

pub use accelerator::Stonne;
pub use api::{ApiError, Instruction, OpConfig, OpOutput, OperandData, StonneMachine};
pub use cache::SimCache;
pub use config::{
    AcceleratorConfig, ConfigError, ControllerKind, Dataflow, DnKind, MnKind, RnKind, SparseFormat,
};
pub use context::SimContext;
pub use engine::flexible::{AddrMap, DenseOperand, PAD_ADDR};
pub use engine::sparse::{IterationInfo, NaturalOrder, RowSchedule, SparseRun};
pub use engine::systolic::expected_cycles as systolic_expected_cycles;
pub use mapping::{candidate_tiles, LayerDims, MappingSignals, Tile};
pub use output::{chrome_trace_json, counter_file, parse_counter_file, summary_json};
pub use stats::{ActivityCounters, CycleBreakdown, SimStats};
pub use store::{code_fingerprint, DiskStore, StateHash, StoreCounters};
pub use trace::{Component, Probe, Trace, TraceEvent};
