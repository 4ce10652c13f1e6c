//! Deterministic model-run checkpoints.
//!
//! Long full-model simulations (VGG-16/ResNet at Full scale) and
//! campaign runners die with the process today: a crash at layer 40
//! re-simulates layers 0–39. Because every engine in this workspace is
//! bitwise-deterministic, a run's state at a *layer boundary* — the
//! values produced so far plus the per-layer statistics history — fully
//! determines the rest of the run. [`Checkpoint`] serializes exactly
//! that state, fingerprints it with a [`StateHash`], and persists it
//! through the same atomic tmp+rename path the result store uses, so a
//! resumed run restarts at the last boundary and finishes
//! bitwise-identical to an uninterrupted one.
//!
//! # Format
//!
//! One checkpoint is one JSON file `ckpt-<boundary>.json` containing:
//!
//! * `schema` — the literal `"stonne-checkpoint/1"`;
//! * `fingerprint` — the writing build's [`crate::code_fingerprint`],
//!   so a checkpoint never resumes under changed simulation code;
//! * `config` — the accelerator's `key = value` configuration string
//!   ([`crate::AcceleratorConfig::to_cfg_string`]), to which the
//!   `stonne-nn` runner appends a `run = <hash>` line over the model
//!   graph, weights, input and schedule, so a checkpoint only ever
//!   resumes the run that wrote it;
//! * `boundary` / `next_node` — completed layer boundaries and the
//!   graph node execution resumes at;
//! * `stats` — the per-layer [`SimStats`] history so far;
//! * `cache_signatures` — sorted content digests of the simulation
//!   cache's keys at the boundary ([`crate::SimCache::key_signatures`]),
//!   recorded for observability (replay correctness never depends on
//!   cache contents);
//! * `state_hash` — FNV-1a over the canonical state bytes, recomputed
//!   by the loader; any divergence (bit-rot, manual tampering, a
//!   non-deterministic producer) rejects the checkpoint;
//! * `payload` — the runner-specific serialized values (the `stonne-nn`
//!   runner stores every produced node value as exact `f32` bit
//!   patterns).
//!
//! Corrupt, truncated or hash-mismatched files are skipped — a resume
//! heals by falling back to the newest checkpoint that still validates,
//! or to a clean start when none does.

use crate::stats::SimStats;
use crate::store::{atomic_write_text, digest128};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Schema tag written into (and required of) every checkpoint file.
pub const CHECKPOINT_SCHEMA: &str = "stonne-checkpoint/1";

/// Incremental FNV-1a 64-bit hasher over canonical state bytes.
///
/// Uses the same constants as the result store's content digests
/// (offset basis `0xcbf2_9ce4_8422_2325`, prime `0x100_0000_01b3`), so
/// one hashing discipline covers the whole persistence layer. The hash
/// is a pure function of the bytes fed in — feed canonical
/// representations (e.g. `f32::to_bits` little-endian) and two runs
/// that agree bitwise agree on the hash, on every platform.
///
/// ```
/// use stonne_core::StateHash;
///
/// let mut h = StateHash::new();
/// h.update(b"layer0");
/// h.update_u64(12345);
/// let first = h.finish();
/// assert_ne!(first, StateHash::new().finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateHash {
    state: u64,
}

impl Default for StateHash {
    fn default() -> Self {
        Self::new()
    }
}

impl StateHash {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Absorbs raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs a `u64` as little-endian bytes.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Absorbs a `u32` as little-endian bytes (the exact-`f32` channel:
    /// feed `f32::to_bits`).
    pub fn update_u32(&mut self, v: u32) {
        self.update(&v.to_le_bytes());
    }

    /// Absorbs a string with a length prefix, so concatenations of
    /// different field splits cannot collide.
    pub fn update_str(&mut self, s: &str) {
        self.update_u64(s.len() as u64);
        self.update(s.as_bytes());
    }

    /// The current hash value (the hasher stays usable).
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Why a checkpoint file failed to load or validate.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read.
    Io(io::Error),
    /// The file is not valid checkpoint JSON (truncated, corrupt).
    Corrupt(String),
    /// The file parsed but belongs to a different schema, build
    /// fingerprint, accelerator configuration or run.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint unreadable: {e}"),
            CheckpointError::Corrupt(e) => write!(f, "checkpoint corrupt: {e}"),
            CheckpointError::Mismatch(e) => write!(f, "checkpoint mismatch: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A serialized model-run state at a layer boundary. See the module
/// docs for the field-by-field format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Schema tag ([`CHECKPOINT_SCHEMA`]).
    pub schema: String,
    /// The writing build's code fingerprint.
    pub fingerprint: String,
    /// The accelerator's `key = value` configuration string, plus
    /// whatever the writer appends to bind the file to its run.
    pub config: String,
    /// Completed layer boundaries (offloaded operations finished).
    pub boundary: usize,
    /// Graph node index execution resumes at.
    pub next_node: usize,
    /// Per-layer statistics history up to the boundary.
    pub stats: Vec<SimStats>,
    /// Sorted content digests of the simulation cache's keys at the
    /// boundary (observability; not required for replay).
    pub cache_signatures: Vec<String>,
    /// FNV-1a over the canonical state bytes; recomputed on load.
    pub state_hash: u64,
    /// Runner-specific serialized values.
    pub payload: String,
}

impl Checkpoint {
    /// The file name a checkpoint of `boundary` saves under
    /// (zero-padded so lexicographic order is boundary order).
    pub fn file_name(boundary: usize) -> String {
        format!("ckpt-{boundary:06}.json")
    }

    /// Content digest of this checkpoint's payload — handy for logging
    /// and tests; two checkpoints of bitwise-identical runs share it.
    pub fn payload_digest(&self) -> String {
        digest128(&self.payload)
    }

    /// Saves the checkpoint into `dir` (created if missing) through the
    /// store's atomic write-then-rename path, so a killed process never
    /// leaves a half-written checkpoint in place of a good one.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be created or
    /// the file cannot be written.
    pub fn save(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(Self::file_name(self.boundary));
        let text = serde_json::to_string(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        atomic_write_text(dir, &path, &text)?;
        Ok(path)
    }

    /// Loads one checkpoint file, checking schema, build fingerprint
    /// and configuration but *not* the state hash (the runner owns the
    /// payload encoding and recomputes the hash itself).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when unreadable, `Corrupt` when not
    /// valid checkpoint JSON, `Mismatch` when written by a different
    /// schema/build/configuration.
    pub fn load(
        path: impl AsRef<Path>,
        fingerprint: &str,
        config: &str,
    ) -> Result<Self, CheckpointError> {
        let text = fs::read_to_string(path.as_ref()).map_err(CheckpointError::Io)?;
        let ckpt: Checkpoint =
            serde_json::from_str(&text).map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
        if ckpt.schema != CHECKPOINT_SCHEMA {
            return Err(CheckpointError::Mismatch(format!(
                "schema {:?} (expected {CHECKPOINT_SCHEMA:?})",
                ckpt.schema
            )));
        }
        if ckpt.fingerprint != fingerprint {
            return Err(CheckpointError::Mismatch(format!(
                "fingerprint {:?} (this build is {fingerprint:?})",
                ckpt.fingerprint
            )));
        }
        if ckpt.config != config {
            return Err(CheckpointError::Mismatch(
                "accelerator configuration or run differs".to_owned(),
            ));
        }
        Ok(ckpt)
    }

    /// Scans `dir` for the newest checkpoint that loads cleanly *and*
    /// passes the caller's validation (typically a state-hash
    /// recomputation). Invalid files are skipped with a stderr note —
    /// this is the healing path: a truncated or tampered latest
    /// checkpoint falls back to the boundary before it.
    pub fn latest_valid(
        dir: impl AsRef<Path>,
        fingerprint: &str,
        config: &str,
        mut validate: impl FnMut(&Checkpoint) -> bool,
    ) -> Option<Checkpoint> {
        let mut names: Vec<PathBuf> = fs::read_dir(dir.as_ref())
            .ok()?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".json"))
            })
            .collect();
        // Newest boundary first (file names zero-pad the boundary).
        names.sort();
        names.reverse();
        for path in names {
            match Self::load(&path, fingerprint, config) {
                Ok(ckpt) if validate(&ckpt) => return Some(ckpt),
                Ok(_) => {
                    eprintln!(
                        "stonne-checkpoint: state hash mismatch in {}; skipping",
                        path.display()
                    );
                }
                Err(e) => {
                    eprintln!("stonne-checkpoint: skipping {}: {e}", path.display());
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stonne-ckpt-test-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sample(boundary: usize) -> Checkpoint {
        Checkpoint {
            schema: CHECKPOINT_SCHEMA.to_owned(),
            fingerprint: "fp-test".to_owned(),
            config: "cfg".to_owned(),
            boundary,
            next_node: boundary * 2,
            stats: vec![SimStats {
                operation: format!("layer{boundary}"),
                cycles: 100 + boundary as u64,
                ..SimStats::default()
            }],
            cache_signatures: vec!["a".to_owned(), "b".to_owned()],
            state_hash: 42 + boundary as u64,
            payload: format!("payload-{boundary}"),
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        let mut h = StateHash::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = StateHash::new();
        h.update(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn length_prefixed_strings_do_not_collide_on_splits() {
        let mut a = StateHash::new();
        a.update_str("ab");
        a.update_str("c");
        let mut b = StateHash::new();
        b.update_str("a");
        b.update_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn checkpoint_roundtrips_and_validates_metadata() {
        let dir = tmp_dir("roundtrip");
        let ckpt = sample(3);
        let path = ckpt.save(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "ckpt-000003.json");
        let loaded = Checkpoint::load(&path, "fp-test", "cfg").unwrap();
        assert_eq!(loaded, ckpt);
        assert!(matches!(
            Checkpoint::load(&path, "fp-other", "cfg"),
            Err(CheckpointError::Mismatch(_))
        ));
        assert!(matches!(
            Checkpoint::load(&path, "fp-test", "other-cfg"),
            Err(CheckpointError::Mismatch(_))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn latest_valid_prefers_newest_then_heals_backwards() {
        let dir = tmp_dir("latest");
        for b in [1, 2, 5] {
            sample(b).save(&dir).unwrap();
        }
        let got = Checkpoint::latest_valid(&dir, "fp-test", "cfg", |_| true).unwrap();
        assert_eq!(got.boundary, 5);

        // Truncate the newest file mid-JSON: healing falls back to 2.
        let newest = dir.join(Checkpoint::file_name(5));
        let text = fs::read_to_string(&newest).unwrap();
        fs::write(&newest, &text[..text.len() / 2]).unwrap();
        let got = Checkpoint::latest_valid(&dir, "fp-test", "cfg", |_| true).unwrap();
        assert_eq!(got.boundary, 2);

        // A validator that rejects everything (state-hash mismatch)
        // yields a clean start.
        assert!(Checkpoint::latest_valid(&dir, "fp-test", "cfg", |_| false).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_a_clean_start() {
        let dir = tmp_dir("missing");
        assert!(Checkpoint::latest_valid(&dir, "fp", "cfg", |_| true).is_none());
    }
}
