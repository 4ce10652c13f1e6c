//! `stonne-sysbench`: the repository's benchmark.
//!
//! One command yields, by name, the end-to-end cost of the two things a
//! user does with the simulator — run a model, serve a design-space
//! sweep — cold and warm, and a separate traced run splits that cost
//! across the layers of the system (`stonne-tensor` kernels, `stonne-nn`
//! params and runner, `stonne-core` engines, tile/layer reuse and disk
//! store, `stonne-serve`). Simulated cycles are the behaviour checksum:
//! wall-clock may move, cycles may not.
//!
//! The harness observes from outside. In-process calls go through
//! [`api_surface`] only; the served workloads drive the `stonne-serve`
//! *binary* over its CLI flags and HTTP wire. See `README.md` for the
//! metric and workload definitions and `/BENCHMARK.json` for the
//! contract the driver checks.
//!
//! * [`inputs`] — run list R and grid G.
//! * [`workloads`] — the four closed-loop workloads and their checks.
//! * [`runner`] — the untraced run of one workload, and the traced run.
//! * [`span`] — the in-memory span recorder and self-time arithmetic.
//! * [`stats`] — medians, quartiles, percentiles.
//! * [`report`] — the metric catalogue and `results.json`.
//! * [`compare`] — verdicts between two sets of runs.
//! * [`http`], [`server`], [`storefs`] — the client, the child-process
//!   guard and the store-directory guard.
//! * [`cli`] — the command line.

#![warn(missing_docs)]

pub mod api_surface;
pub mod cli;
pub mod compare;
pub mod http;
pub mod inputs;
pub mod report;
pub mod runner;
pub mod server;
pub mod span;
pub mod stats;
pub mod storefs;
pub mod workloads;
