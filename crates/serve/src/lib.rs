//! `stonne-serve`: simulation-as-a-service over the STONNE-rs engines.
//!
//! This crate turns the workspace's layer-accurate simulator into a
//! long-running HTTP service: clients POST sweep/design-space-exploration
//! grids (architectures × models × sparsities), the server expands them
//! into independent simulation points, shards the points across a worker
//! pool built on the `stonne-nn` runner, and streams results back as
//! JSON lines and Server-Sent Events with per-job progress.
//!
//! The same service also fronts the `stonne-cluster` multi-accelerator
//! serving simulator: `POST /v1/cluster` runs a full multi-tenant
//! scenario (heterogeneous instances, Poisson arrivals, priority
//! classes, shared-DRAM arbitration) synchronously and returns its
//! byte-deterministic report.
//!
//! Results persist in a **content-addressed disk store**
//! ([`stonne::core::DiskStore`]) keyed by the simulator's layer-cache
//! signatures plus a code-version fingerprint, so repeated sweeps — even
//! across server restarts — are served without re-running the engines
//! and are byte-identical to the original run.
//!
//! # Quick start
//!
//! ```no_run
//! use stonne_serve::job::JobManager;
//! use stonne_serve::server::Server;
//!
//! let manager = JobManager::new(4, None); // 4 workers, in-memory only
//! let handle = Server::bind("127.0.0.1:7433", manager)
//!     .and_then(Server::start)
//!     .expect("bind");
//! println!("serving on {}", handle.addr());
//! # handle.shutdown();
//! ```
//!
//! Then, from a shell:
//!
//! ```text
//! curl -s -X POST localhost:7433/v1/sweeps -d '{
//!   "archs":  [{"arch": "maeri", "ms": 64, "bw": 32}],
//!   "models": [{"name": "alexnet", "scale": "tiny"}]
//! }'
//! curl -sN localhost:7433/v1/jobs/job-0001/results
//! ```
//!
//! See `docs/SERVING.md` for the full API reference, the store layout
//! and deployment notes, and [`server`] for the route table.
//!
//! # Modules
//!
//! * [`api`] — wire types, grid expansion, per-point execution.
//! * [`job`] — job lifecycle, worker pool, per-job store scoping.
//! * [`server`] — route dispatch and the accept loop.
//! * [`client`] — the dependency-free client (`stonne-cli sweep --remote`).
//! * [`http`] — minimal `std::net` HTTP/1.1 plumbing.

#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod http;
pub mod job;
pub mod server;

pub use api::{expand, ArchSpec, Expansion, ModelSel, PointResult, SweepPoint, SweepRequest};
pub use client::Client;
pub use job::{Job, JobManager, JobStatus};
pub use server::{Server, ServerHandle};
