//! `stonne-verify`: the differential validation harness of this
//! workspace.
//!
//! The paper's central claim is that STONNE's cycle-level numbers can be
//! trusted (Table V validates against the published MAERI/SIGMA/TPU RTL
//! to within a few percent). This crate re-establishes that trust
//! continuously, on every change, with three pillars:
//!
//! 1. **Property-based differential fuzzing** ([`gen`], [`oracle`],
//!    [`campaign`]) — seeded generators draw accelerator configurations
//!    and workloads; each sample runs on the cycle-level engines and is
//!    judged against analytical models, sibling engines and structural
//!    invariants. Failures shrink to minimal reproducers ([`shrink`]).
//! 2. **Golden regression fixtures** ([`golden`]) — small-scale
//!    fig1/fig5/fig7/table5 runs pinned byte-for-byte in
//!    `tests/golden/*.json`, re-blessed explicitly with
//!    `UPDATE_GOLDEN=1`.
//! 3. **The `verify` bin** ([`report`]) — `cargo run -p stonne-verify --
//!    --samples 200 --seed 7` runs a deterministic campaign and writes a
//!    machine-readable `verify_report.json` that CI uploads and gates
//!    on. Campaigns shard across processes (`--shard i/n`, then
//!    `verify merge`) and the merged report is byte-identical to the
//!    single-process one — a guarantee the `shard_merge_bitwise` fuzz
//!    oracle itself enforces continuously.
//!
//! The divergence thresholds every consumer asserts live in
//! [`tolerance`]; `docs/VALIDATION.md` documents the full oracle matrix.

#![warn(missing_docs)]

pub mod campaign;
pub mod gen;
pub mod golden;
pub mod oracle;
pub mod report;
pub mod shrink;
pub mod statehash;
pub mod tolerance;

pub use campaign::{merge_shards, run_campaign, run_shard, CampaignConfig, SampleSpace};
pub use gen::Workload;
pub use oracle::{check_workload, OracleOutcome, SampleCheck, ORACLES};
pub use report::{ShardReport, VerifyReport};
pub use statehash::{state_hash_manifest, StateHashManifest, STATE_HASH_SCHEMA};
pub use tolerance::{
    MAERI_FULL_BW_AVG_MAX_PCT, MAERI_LOW_BW_EXCESS_MIN_PCT, MAERI_LOW_BW_WORST_MIN_PCT,
    SIGMA_DENSE_AVG_MAX_PCT, SIGMA_SPARSE90_MIN_PCT, SYSTOLIC_VS_SCALESIM_MAX_PCT,
};
