//! Cross-platform determinism manifest: run state hashes
//! (`ModelRun::state_hash`) of a fixed roster of full-model runs.
//!
//! `verify state-hash` writes this manifest, and CI's cross-architecture
//! reproducibility leg byte-diffs it between the x86 and aarch64 jobs:
//! the FNV-1a [`stonne::core::StateHash`] of a run digests every output
//! bit and the per-layer statistics (energy is a function of those), so
//! two architectures that agree on every hash agree on every simulated
//! number — a far stronger claim than "the tests pass on both".

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use stonne::core::NaturalOrder;
use stonne::models::{zoo, ModelId, ModelScale};
use stonne::nn::params::{generate_input, ModelParams};
use stonne::nn::runner::{run_model_simulated_with, RunOptions};
use stonne_bench::fig5::Arch;

/// Schema tag of the manifest artifact.
pub const STATE_HASH_SCHEMA: &str = "stonne-state-hash/1";

/// One (model, architecture) run and its state hash.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateHashEntry {
    /// Zoo model name.
    pub model: String,
    /// Architecture preset name.
    pub arch: String,
    /// `StateHash` of the completed run, as a hex literal.
    pub state_hash: String,
}

/// The manifest: every entry of the fixed roster, in roster order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateHashManifest {
    /// Always [`STATE_HASH_SCHEMA`].
    pub schema: String,
    /// Seed the parameters and inputs were generated from.
    pub seed: u64,
    /// One entry per (model, architecture) pair.
    pub entries: Vec<StateHashEntry>,
}

impl StateHashManifest {
    /// Pretty JSON of the manifest. Fully deterministic — there is no
    /// wall-time field to exclude.
    ///
    /// # Panics
    ///
    /// Never panics in practice (all fields serialize).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("manifest serializes");
        s.push('\n');
        s
    }
}

/// The models of the manifest roster — the same cheap tiny-scale zoo
/// slice the fuzz campaign's full-model classes draw from.
const ROSTER: [ModelId; 4] = [
    ModelId::MobileNetV1,
    ModelId::SqueezeNet,
    ModelId::AlexNet,
    ModelId::Bert,
];

/// Runs one tiny-scale model serially and returns its manifest entry.
fn entry(model: ModelId, arch: Arch, seed: u64) -> StateHashEntry {
    let spec = zoo::build(model, ModelScale::Tiny);
    let params = ModelParams::generate(&spec, seed);
    let input = generate_input(&spec, seed ^ 0xf00d);
    let run = run_model_simulated_with(
        &spec,
        &params,
        &input,
        arch.config(),
        Arc::new(NaturalOrder),
        RunOptions::new(),
    )
    .expect("preset configs are valid");
    StateHashEntry {
        model: model.name().to_owned(),
        arch: arch.name().to_owned(),
        state_hash: format!("{:#018x}", run.state_hash()),
    }
}

/// Builds the full manifest: every roster model on every architecture
/// preset, serially, at `ModelScale::Tiny`.
pub fn state_hash_manifest(seed: u64) -> StateHashManifest {
    let mut entries = Vec::with_capacity(ROSTER.len() * Arch::ALL.len());
    for model in ROSTER {
        for arch in Arch::ALL {
            entries.push(entry(model, arch, seed));
        }
    }
    StateHashManifest {
        schema: STATE_HASH_SCHEMA.to_owned(),
        seed,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_entry_is_deterministic_and_well_formed() {
        let a = entry(ModelId::SqueezeNet, Arch::ALL[0], 7);
        let b = entry(ModelId::SqueezeNet, Arch::ALL[0], 7);
        assert_eq!(a, b);
        assert!(a.state_hash.starts_with("0x"), "{:?}", a.state_hash);
        assert_eq!(a.state_hash.len(), 18, "{:?}", a.state_hash);
        // A different seed moves the hash: the manifest actually pins
        // the simulated numbers, not just the code path.
        let c = entry(ModelId::SqueezeNet, Arch::ALL[0], 8);
        assert_ne!(a.state_hash, c.state_hash);
    }

    #[test]
    fn manifest_json_is_stable_and_tagged() {
        let m = StateHashManifest {
            schema: STATE_HASH_SCHEMA.to_owned(),
            seed: 7,
            entries: vec![StateHashEntry {
                model: "squeezenet".into(),
                arch: "tpu".into(),
                state_hash: "0x0123456789abcdef".into(),
            }],
        };
        let json = m.to_json();
        assert!(json.contains(STATE_HASH_SCHEMA));
        let back: StateHashManifest = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, m);
    }
}
