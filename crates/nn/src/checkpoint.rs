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
//! the previous boundary or a clean start. Checkpointed runs execute
//! sequentially (wave-parallel dispatch has no layer-boundary order);
//! intra-layer tile parallelism composes fine, since it is
//! bitwise-identical to serial execution by construction.

use crate::backend::SimBackend;
use crate::executor::{execute_node, is_offloaded_op};
use crate::params::ModelParams;
use crate::runner::{ModelRun, RunOptions};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;
use stonne_core::{
    code_fingerprint, AcceleratorConfig, Checkpoint, ConfigError, RowSchedule, SimCache, SimStats,
    StateHash, Stonne, CHECKPOINT_SCHEMA,
};
use stonne_energy::EnergyModel;
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
/// was obtained (cached, parallel, resumed), not on what the simulated
/// hardware did, so the state hash excludes them — which is exactly what
/// makes the hash stable across the serial, wave-parallel and intra-tile
/// runners.
fn canonical_stats(s: &SimStats) -> SimStats {
    let mut s = s.clone();
    s.clear_host_counters();
    s
}

fn hash_value(h: &mut StateHash, v: &Value) {
    match v {
        Value::Feature(t) => {
            let (n, c, hh, w) = t.shape();
            h.update_u64(0);
            for d in [n, c, hh, w] {
                h.update_u64(d as u64);
            }
        }
        Value::Tokens(m) => {
            h.update_u64(1);
            for d in [m.rows(), m.cols()] {
                h.update_u64(d as u64);
            }
        }
    }
    for &x in v.as_slice() {
        h.update_u32(x.to_bits());
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

/// Restores the newest checkpoint in `dir` whose recomputed state hash
/// matches — skipping (with a stderr note) truncated, mismatched or
/// tampered files, which is the healing path. Returns the decoded
/// values, the stats history, the boundary count, the resume node, and
/// the cache snapshot.
#[allow(clippy::type_complexity)]
fn restore_latest(
    dir: &Path,
    fingerprint: &str,
    config_sig: &str,
) -> Option<(Vec<Value>, Vec<SimStats>, usize, usize, String)> {
    let ckpt = Checkpoint::latest_valid(
        dir,
        fingerprint,
        config_sig,
        |c| match serde_json::from_str::<RunPayload>(&c.payload) {
            Ok(payload) => {
                let Ok(values) = payload
                    .values
                    .iter()
                    .map(decode_value)
                    .collect::<Result<Vec<Value>, String>>()
                else {
                    return false;
                };
                state_hash_of(&values, &c.stats, &payload.cache) == c.state_hash
            }
            Err(_) => false,
        },
    )?;
    let payload: RunPayload = serde_json::from_str(&ckpt.payload).expect("validated above");
    let values: Vec<Value> = payload
        .values
        .iter()
        .map(decode_value)
        .collect::<Result<_, _>>()
        .expect("validated above");
    Some((
        values,
        ckpt.stats,
        ckpt.boundary,
        ckpt.next_node,
        payload.cache,
    ))
}

/// Writes one checkpoint (best-effort: failures log to stderr and the
/// run continues — checkpointing must never abort a healthy run).
#[allow(clippy::too_many_arguments)]
fn write_checkpoint(
    dir: &Path,
    fingerprint: &str,
    config_sig: &str,
    boundary: usize,
    next_node: usize,
    values: &[Value],
    stats: Vec<SimStats>,
    cache: Option<&SimCache>,
) {
    let payload = RunPayload {
        values: values.iter().map(encode_value).collect(),
        cache: cache.map(SimCache::export_json).unwrap_or_default(),
    };
    let state_hash = state_hash_of(values, &stats, &payload.cache);
    let ckpt = Checkpoint {
        schema: CHECKPOINT_SCHEMA.to_owned(),
        fingerprint: fingerprint.to_owned(),
        config: config_sig.to_owned(),
        boundary,
        next_node,
        stats,
        cache_signatures: cache.map(SimCache::key_signatures).unwrap_or_default(),
        state_hash,
        payload: serde_json::to_string(&payload).expect("payload serializes"),
    };
    if let Err(e) = ckpt.save(dir) {
        eprintln!(
            "stonne-nn: failed to checkpoint boundary {boundary} into {}: {e}",
            dir.display()
        );
    }
}

/// The checkpoint/resume path of
/// [`crate::runner::run_model_simulated_with`]: a sequential graph walk
/// that snapshots at layer boundaries and/or restarts from the newest
/// valid snapshot. See the module docs for the determinism argument.
pub(crate) fn run_checkpointed(
    model: &ModelSpec,
    params: &ModelParams,
    input: &Value,
    config: AcceleratorConfig,
    schedule: Arc<dyn RowSchedule + Send + Sync>,
    options: &RunOptions,
    energy_model: EnergyModel,
) -> Result<ModelRun, ConfigError> {
    // Validate the configuration before touching any checkpoint state.
    drop(Stonne::new(config.clone())?);
    model
        .infer_shapes()
        .unwrap_or_else(|e| panic!("invalid graph: {e}"));
    let fingerprint = code_fingerprint();
    let config_sig = config.to_cfg_string();
    let ms_size = config.ms_size;
    let cache = options.cache_handle().cloned();

    let mut values: Vec<Value> = Vec::with_capacity(model.nodes().len());
    let mut restored_stats: Vec<SimStats> = Vec::new();
    let mut boundary = 0usize;
    let mut start = 0usize;
    if let Some(dir) = options.resume_dir() {
        if let Some((vals, stats, b, next, cache_snapshot)) =
            restore_latest(dir, fingerprint, &config_sig)
        {
            if let (Some(cache), false) = (&cache, cache_snapshot.is_empty()) {
                cache
                    .import_json(&cache_snapshot)
                    .expect("snapshot validated by state hash");
            }
            values = vals;
            restored_stats = stats;
            boundary = b;
            start = next;
        }
    }

    let mut sim = Stonne::new(config)?
        .with_intra_tiles(options.intra_worker_budget())
        .with_context(options.run_context());
    if let Some(cache) = cache.clone() {
        sim = sim.with_cache(cache);
    }
    let mut backend = SimBackend::new(sim).with_schedule(schedule);
    for id in start..model.nodes().len() {
        let ins: Vec<&Value> = model.nodes()[id]
            .inputs
            .iter()
            .map(|&i| &values[i])
            .collect();
        let out = execute_node(model, id, params, input, &ins, &mut backend);
        values.push(out);
        if !is_offloaded_op(&model.nodes()[id].op) {
            continue;
        }
        boundary += 1;
        if let Some((every, dir)) = options.checkpoint_policy() {
            if boundary % every == 0 {
                let mut stats = restored_stats.clone();
                stats.extend_from_slice(backend.layer_stats());
                write_checkpoint(
                    dir,
                    fingerprint,
                    &config_sig,
                    boundary,
                    id + 1,
                    &values,
                    stats,
                    cache.as_ref(),
                );
            }
        }
    }

    let mut all_stats = restored_stats;
    all_stats.extend_from_slice(backend.into_sim().history());
    Ok(ModelRun::assemble(
        values,
        all_stats,
        ms_size,
        &energy_model,
    ))
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
