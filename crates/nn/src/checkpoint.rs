//! Checkpoint/resume for full-model simulated runs.
//!
//! Because every engine is bitwise-deterministic, a run's state at a
//! *layer boundary* — the node values produced so far, the per-layer
//! statistics history, and the simulation cache contents — fully
//! determines the rest of the run. This module serializes that state
//! into a [`stonne_core::Checkpoint`] (values as exact `f32` bit
//! patterns, the cache as a [`stonne_core::SimCache::export_json`]
//! snapshot) and restores it, so an interrupted run restarts at the
//! last boundary and produces outputs, per-layer stats, aggregate
//! stats and energy **bitwise-identical** to an uninterrupted run —
//! including the cache hit/miss counters, which only replay
//! identically because the cache snapshot travels with the checkpoint.
//!
//! Every checkpoint carries a [`StateHash`] over the canonical state
//! bytes; the loader recomputes it and rejects any file that drifted
//! (bit-rot, tampering, a non-deterministic producer), falling back to
//! the previous boundary or a clean start. A checkpoint is also bound to
//! its run: the signature compared on load is the accelerator's
//! configuration string plus a hash of the model graph, the weights, the
//! input and the schedule's cache token, so a directory written by
//! another run is skipped like any other invalid file.
//!
//! There is no checkpoint runner: `Checkpoints` is what the one walk of
//! [`crate::runner::run_model_simulated_with`] calls at its layer
//! boundaries. [`RunOptions::parallel`] composes, since the intra-layer
//! fan-out is bitwise-identical to serial execution by construction.

use crate::params::{ModelParams, NodeWeights};
use crate::runner::{ModelRun, RunOptions};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use stonne_core::{
    code_fingerprint, AcceleratorConfig, Checkpoint, RowSchedule, SimStats, StateHash,
    CHECKPOINT_SCHEMA,
};
use stonne_models::ModelSpec;
use stonne_tensor::{Matrix, Tensor4};

/// Serialized form of one node value: shape plus exact `f32` bit
/// patterns, so decoding reproduces the value bitwise on any platform.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ValueRepr {
    /// 0 = NCHW feature map, 1 = token matrix.
    kind: u8,
    /// `[n, c, h, w]` for features, `[rows, cols]` for tokens.
    dims: Vec<usize>,
    /// Element bit patterns (`f32::to_bits`), row-major.
    bits: Vec<u32>,
}

fn encode_value(v: &Value) -> ValueRepr {
    let (kind, dims) = match v {
        Value::Feature(t) => {
            let (n, c, h, w) = t.shape();
            (0, vec![n, c, h, w])
        }
        Value::Tokens(m) => (1, vec![m.rows(), m.cols()]),
    };
    ValueRepr {
        kind,
        dims,
        bits: v.as_slice().iter().map(|x| x.to_bits()).collect(),
    }
}

fn decode_value(r: &ValueRepr) -> Result<Value, String> {
    let elems: Vec<f32> = r.bits.iter().map(|&b| f32::from_bits(b)).collect();
    match (r.kind, r.dims.as_slice()) {
        (0, &[n, c, h, w]) => {
            if n * c * h * w != elems.len() {
                return Err("feature element count mismatch".to_owned());
            }
            Ok(Value::Feature(Tensor4::from_vec(n, c, h, w, elems)))
        }
        (1, &[rows, cols]) => {
            if rows * cols != elems.len() {
                return Err("token element count mismatch".to_owned());
            }
            Ok(Value::Tokens(Matrix::from_vec(rows, cols, elems)))
        }
        _ => Err(format!("unknown value kind {} / dims {:?}", r.kind, r.dims)),
    }
}

/// The runner-specific checkpoint payload.
#[derive(Debug, Serialize, Deserialize)]
struct RunPayload {
    /// Every node value produced before the boundary, in node order.
    values: Vec<ValueRepr>,
    /// Simulation-cache snapshot at the boundary
    /// ([`SimCache::export_json`]); empty for uncached runs.
    cache: String,
}

/// A [`SimStats`] clone with the host counters zeroed
/// ([`SimStats::clear_host_counters`]): they depend on *how* a result
/// was obtained (cached, resumed), not on what the simulated hardware
/// did, so the state hash excludes them.
fn canonical_stats(s: &SimStats) -> SimStats {
    let mut s = s.clone();
    s.clear_host_counters();
    s
}

/// Absorbs one tensor: a tag, its dimensions and exact element bits.
fn hash_elems(h: &mut StateHash, tag: u64, dims: &[usize], elems: &[f32]) {
    h.update_u64(tag);
    for &d in dims {
        h.update_u64(d as u64);
    }
    for &x in elems {
        h.update_u32(x.to_bits());
    }
}

fn hash_value(h: &mut StateHash, v: &Value) {
    match v {
        Value::Feature(t) => {
            let (n, c, hh, w) = t.shape();
            hash_elems(h, 0, &[n, c, hh, w], t.as_slice());
        }
        Value::Tokens(m) => hash_elems(h, 1, &[m.rows(), m.cols()], m.as_slice()),
    }
}

/// FNV-1a over the canonical run state: node values (exact bits),
/// per-layer stats (volatile counters zeroed), and the verbatim cache
/// snapshot text (a tampered entry would replay wrong timing into the
/// resumed suffix, so it must fail validation).
fn state_hash_of(values: &[Value], stats: &[SimStats], cache_snapshot: &str) -> u64 {
    let mut h = StateHash::new();
    h.update_u64(values.len() as u64);
    for v in values {
        hash_value(&mut h, v);
    }
    h.update_u64(stats.len() as u64);
    for s in stats {
        h.update_str(&serde_json::to_string(&canonical_stats(s)).expect("stats serialize"));
    }
    h.update_str(cache_snapshot);
    h.finish()
}

/// The state hash of a completed run: its outputs plus per-layer stats
/// (volatile counters zeroed). Exposed through
/// [`ModelRun::state_hash`].
pub(crate) fn run_state_hash(run: &ModelRun) -> u64 {
    let stats: Vec<SimStats> = run.layers.iter().map(|l| l.stats.clone()).collect();
    state_hash_of(&run.outputs, &stats, "")
}

/// What a checkpoint is compared against on load besides the build: the
/// accelerator's configuration string extended by a hash binding the file
/// to its run — model graph, weights, input and schedule (exact bits).
fn run_signature(
    model: &ModelSpec,
    params: &ModelParams,
    input: &Value,
    config: &AcceleratorConfig,
    schedule: &dyn RowSchedule,
) -> String {
    let mut h = StateHash::new();
    // The whole configuration: its `key = value` string leaves the DRAM
    // model out.
    h.update_str(&serde_json::to_string(config).expect("config serializes"));
    h.update_str(&serde_json::to_string(model).expect("model serializes"));
    for id in 0..model.nodes().len() {
        let weights = match params.get(id) {
            Some(NodeWeights::Conv(t)) => t.as_slice(),
            Some(NodeWeights::Linear(m)) => m.as_slice(),
            None => continue,
        };
        hash_elems(&mut h, id as u64, &[weights.len()], weights);
    }
    hash_value(&mut h, input);
    h.update_str(&schedule.cache_token());
    format!("{}run = {:016x}\n", config.to_cfg_string(), h.finish())
}

/// The checkpoint side of one run, called by the runner's walk at its
/// layer boundaries: restores the newest valid snapshot when resuming and
/// writes one every `every` boundaries when checkpointing.
pub(crate) struct Checkpoints<'a> {
    options: &'a RunOptions,
    signature: String,
    /// Completed layer boundaries (restored ones included).
    boundary: usize,
    /// Statistics history of the restored prefix.
    restored: Vec<SimStats>,
}

impl<'a> Checkpoints<'a> {
    /// Binds to the run and, when `options` resume, restores the newest
    /// checkpoint of that run whose recomputed state hash matches —
    /// skipping (with a stderr note) truncated, mismatched, tampered or
    /// foreign files, which is the healing path. Returns the restored
    /// node values (empty on a clean start); the cache snapshot that
    /// travelled with them is imported into the run's cache.
    pub(crate) fn open(
        model: &ModelSpec,
        params: &ModelParams,
        input: &Value,
        config: &AcceleratorConfig,
        schedule: &dyn RowSchedule,
        options: &'a RunOptions,
    ) -> (Self, Vec<Value>) {
        let signature = run_signature(model, params, input, config, schedule);
        let mut payload = None;
        let ckpt = options.resume_dir().and_then(|dir| {
            Checkpoint::latest_valid(dir, code_fingerprint(), &signature, |c| {
                payload = decode_payload(c);
                payload.is_some()
            })
        });
        let (values, cache_snapshot) = payload.unwrap_or_default();
        if let (Some(cache), false) = (options.cache_handle(), cache_snapshot.is_empty()) {
            cache
                .import_json(&cache_snapshot)
                .expect("snapshot validated by state hash");
        }
        let (boundary, restored) = ckpt.map(|c| (c.boundary, c.stats)).unwrap_or_default();
        let this = Self {
            options,
            signature,
            boundary,
            restored,
        };
        (this, values)
    }

    /// One more offloaded operation finished: `values` are all node values
    /// so far, `fresh` the statistics recorded since the run (re)started.
    /// Writing is best-effort — failures log to stderr and the run
    /// continues, since checkpointing must never abort a healthy run.
    pub(crate) fn layer_done(&mut self, values: &[Value], fresh: &[SimStats]) {
        self.boundary += 1;
        let Some((every, dir)) = self.options.checkpoint_policy() else {
            return;
        };
        if self.boundary % every != 0 {
            return;
        }
        let cache = self.options.cache_handle();
        let payload = RunPayload {
            values: values.iter().map(encode_value).collect(),
            cache: cache.map(|c| c.export_json()).unwrap_or_default(),
        };
        let stats = self.stats_with(fresh);
        let ckpt = Checkpoint {
            schema: CHECKPOINT_SCHEMA.to_owned(),
            fingerprint: code_fingerprint().to_owned(),
            config: self.signature.clone(),
            boundary: self.boundary,
            next_node: values.len(),
            state_hash: state_hash_of(values, &stats, &payload.cache),
            stats,
            cache_signatures: cache.map(|c| c.key_signatures()).unwrap_or_default(),
            payload: serde_json::to_string(&payload).expect("payload serializes"),
        };
        if let Err(e) = ckpt.save(dir) {
            eprintln!(
                "stonne-nn: failed to checkpoint boundary {} into {}: {e}",
                self.boundary,
                dir.display()
            );
        }
    }

    /// The run's whole statistics history: the restored prefix, then `fresh`.
    pub(crate) fn stats_with(&self, fresh: &[SimStats]) -> Vec<SimStats> {
        [self.restored.as_slice(), fresh].concat()
    }
}

/// Decodes a checkpoint's node values and cache snapshot; `None` unless the
/// payload parses and the recomputed state hash matches the recorded one.
fn decode_payload(ckpt: &Checkpoint) -> Option<(Vec<Value>, String)> {
    let payload: RunPayload = serde_json::from_str(&ckpt.payload).ok()?;
    let values = payload
        .values
        .iter()
        .map(decode_value)
        .collect::<Result<Vec<Value>, String>>()
        .ok()?;
    (values.len() == ckpt.next_node
        && state_hash_of(&values, &ckpt.stats, &payload.cache) == ckpt.state_hash)
        .then_some((values, payload.cache))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_roundtrip_bitwise_through_the_repr() {
        let t = Tensor4::from_vec(1, 2, 1, 2, vec![1.5, -0.0, f32::MIN_POSITIVE, 3.25e-7]);
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[0.1, -0.1]]);
        for v in [Value::Feature(t), Value::Tokens(m)] {
            let back = decode_value(&encode_value(&v)).unwrap();
            assert_eq!(back.shape(), v.shape());
            let (a, b) = (v.as_slice(), back.as_slice());
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "bit-exact roundtrip");
            }
        }
    }

    #[test]
    fn decode_rejects_malformed_reprs() {
        let bad = ValueRepr {
            kind: 0,
            dims: vec![1, 1, 1, 3],
            bits: vec![0; 2],
        };
        assert!(decode_value(&bad).is_err());
        let unknown = ValueRepr {
            kind: 9,
            dims: vec![1],
            bits: vec![],
        };
        assert!(decode_value(&unknown).is_err());
    }

    #[test]
    fn state_hash_tracks_value_bits_and_stats() {
        let v = vec![Value::Tokens(Matrix::from_rows(&[&[1.0, 2.0]]))];
        let s = vec![SimStats {
            operation: "l0".to_owned(),
            cycles: 10,
            ..SimStats::default()
        }];
        let base = state_hash_of(&v, &s, "");
        assert_eq!(base, state_hash_of(&v, &s, ""), "deterministic");
        let mut v2 = v.clone();
        if let Value::Tokens(m) = &mut v2[0] {
            m.set(0, 0, 1.0000001);
        }
        assert_ne!(base, state_hash_of(&v2, &s, ""), "value bits matter");
        let mut s2 = s.clone();
        s2[0].cycles = 11;
        assert_ne!(base, state_hash_of(&v, &s2, ""), "stats matter");
        // Volatile counters are canonicalized away.
        let mut s3 = s.clone();
        s3[0].sim_cache_hits = 5;
        s3[0].engine_invocations = 2;
        assert_eq!(base, state_hash_of(&v, &s3, ""), "counters excluded");
    }
}
