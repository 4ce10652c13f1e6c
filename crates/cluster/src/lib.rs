//! `stonne-cluster`: multi-accelerator, multi-tenant serving simulation.
//!
//! The paper's simulator models exactly one accelerator per run. This
//! crate turns that single-instance engine into a datacenter-inference
//! study: N heterogeneous accelerator instances (any mix of the `tpu`,
//! `maeri` and `sigma` presets) serve a seeded Poisson stream of
//! inference requests over the model zoo, sharing the off-chip memory
//! system through the contention-aware arbiter of
//! [`stonne::dram::arbiter`].
//!
//! A run has two phases:
//!
//! 1. **Profile** ([`profile`]): every (instance, model) pair runs once
//!    through the cycle-level simulator — serially or fanned across the
//!    `stonne-nn` worker pool, bitwise-equal either way — yielding a
//!    per-layer cycle/DRAM-traffic profile.
//! 2. **Replay** ([`sim`]): a single-threaded, integer virtual-time
//!    event loop dispatches generated requests ([`workload`]) across the
//!    instances, forms batches, and arbitrates every layer's DRAM
//!    transfer. No wall-clock, no threads, no floats in the hot state —
//!    the same request always produces the same report bytes.
//!
//! Reports ([`report`]) carry latency distributions (p50/p95/p99, per
//! tenant class), SLA attainment, throughput per offered rate, and
//! per-instance utilization plus DRAM bandwidth/contention accounting
//! (surfaced in each instance's [`stonne::core::SimStats`] as
//! `dram_contention_cycles`).
//!
//! # Quick start
//!
//! ```no_run
//! use stonne_cluster::{run_cluster, ExecMode};
//! use stonne::core::SimCache;
//!
//! let request = serde_json::from_str(r#"{
//!     "instances": [{"arch":"maeri","ms":64,"bw":32},{"arch":"tpu","ms":16}],
//!     "models": [{"name":"alexnet"},{"name":"squeezenet"}],
//!     "classes": [{"name":"interactive","priority":1,"sla_cycles":500000},
//!                 {"name":"batch","weight":3.0}],
//!     "requests": 64, "rates": [0.5, 2.0], "batch": 2,
//!     "policy": "priority", "seed": 7
//! }"#).unwrap();
//! let outcome = run_cluster(&request, &SimCache::new(), ExecMode::Pool).unwrap();
//! println!("{}", outcome.report.render());
//! ```
//!
//! See `docs/CLUSTER.md` for the scenario-file schema, the batching and
//! contention models, and the CLI/HTTP front-ends.

#![warn(missing_docs)]

pub mod profile;
pub mod report;
pub mod sim;
pub mod spec;
pub mod workload;

pub use profile::{build_profiles, ExecMode, LayerProfile, ModelInputs, RequestProfile};
pub use report::{ClassReport, ClusterReport, InstanceReport, LatencySummary, ScenarioReport};
pub use sim::{InstanceUsage, RequestRecord};
pub use spec::{
    config_from, parse_model, parse_scale, ClassSpec, ClusterRequest, DramSpec, InstanceSpec,
    ModelRef,
};
pub use workload::{generate_requests, GeneratedRequest};

use stonne::core::{SimCache, SimStats};
use stonne::dram::arbiter::ArbiterPolicy;

/// Everything a cluster run produces: the renderable report plus the raw
/// per-request records of every scenario (what the verify oracle
/// compares across serial/pool executions).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// The aggregated, byte-stable report.
    pub report: ClusterReport,
    /// Per-scenario, per-request records (`per_request[rate][id]`).
    pub per_request: Vec<Vec<RequestRecord>>,
}

/// Derives the workload seed of scenario `index` from the request seed
/// (SplitMix64-style odd-constant mixing keeps the streams disjoint).
fn scenario_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs a full cluster scenario: validate, profile every (instance,
/// model) pair through `cache`, then replay one virtual-time scenario
/// per requested arrival rate.
///
/// Determinism contract: the returned outcome is a pure function of
/// `request` — independent of `mode`, of cache warmth, and of thread
/// scheduling.
///
/// # Errors
///
/// Returns the first validation or profiling error.
pub fn run_cluster(
    request: &ClusterRequest,
    cache: &SimCache,
    mode: ExecMode,
) -> Result<ClusterOutcome, String> {
    request.validate()?;
    let classes = request.effective_classes();
    let rates = request.effective_rates();
    let policy = ArbiterPolicy::parse(&request.policy)?;
    let dram = request.dram.unwrap_or_default().config();
    let profiles = build_profiles(request, cache, mode)?;
    let labels: Vec<String> = request.instances.iter().map(InstanceSpec::label).collect();

    let mut scenarios = Vec::with_capacity(rates.len());
    let mut per_request = Vec::with_capacity(rates.len());
    for (k, &rate) in rates.iter().enumerate() {
        let workload = generate_requests(
            request.effective_requests(),
            rate,
            &classes,
            request.models.len(),
            scenario_seed(request.seed, k),
        );
        let (records, usage) = sim::simulate(
            &profiles,
            &workload,
            &classes,
            dram,
            policy,
            request.effective_batch(),
        );
        // Per-instance aggregate stats: every served request contributes
        // its (stripped) profile total; the arbiter wait lands in the
        // new `dram_contention_cycles` field.
        let stats: Vec<SimStats> = usage
            .iter()
            .enumerate()
            .map(|(i, u)| {
                let mut s = SimStats {
                    accelerator: labels[i].clone(),
                    operation: format!("cluster rate {rate}"),
                    ..SimStats::default()
                };
                for r in records.iter().filter(|r| r.instance == i) {
                    s.merge(&profiles[i][r.model].total);
                }
                s.dram_contention_cycles = u.dram.wait_cycles;
                s
            })
            .collect();
        scenarios.push(report::scenario_report(
            rate, &records, &usage, &classes, &labels, stats,
        ));
        per_request.push(records);
    }
    Ok(ClusterOutcome {
        report: ClusterReport {
            name: request.name.clone(),
            seed: request.seed,
            policy: policy.name().to_owned(),
            batch: request.effective_batch(),
            scenarios,
        },
        per_request,
    })
}
