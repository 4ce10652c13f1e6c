//! Checkpoint/resume acceptance tests: interrupted full-model runs must
//! restart at the last layer boundary and finish **bitwise-identical**
//! to an uninterrupted run — outputs, per-layer stats (including cache
//! counters), aggregate stats, energy, and the run state hash — and a
//! corrupt or deliberately mutated checkpoint must be rejected by the
//! state hash and healed by falling back to the previous boundary.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use stonne_core::{AcceleratorConfig, NaturalOrder};
use stonne_models::{zoo, ModelScale, ModelSpec};
use stonne_nn::params::{generate_input, ModelParams};
use stonne_nn::runner::{
    run_model_simulated_traced_with, run_model_simulated_with, ModelRun, RunOptions,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stonne-nn-ckpt-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

fn run_alexnet(options: RunOptions) -> ModelRun {
    run_seeded(&zoo::alexnet(ModelScale::Tiny), (1, 2), options)
}

/// `model` with weights and input generated from `seeds`, on the one
/// configuration every test here shares.
fn run_seeded(model: &ModelSpec, seeds: (u64, u64), options: RunOptions) -> ModelRun {
    let params = ModelParams::generate(model, seeds.0);
    let input = generate_input(model, seeds.1);
    run_model_simulated_with(
        model,
        &params,
        &input,
        AcceleratorConfig::maeri_like(32, 16),
        Arc::new(NaturalOrder),
        options,
    )
    .unwrap()
}

/// Bitwise equality: output bits, the full JSON report (per-layer +
/// aggregate stats + energy), and the state hash.
fn assert_bitwise_equal(a: &ModelRun, b: &ModelRun) {
    assert_eq!(a.outputs.len(), b.outputs.len());
    for (i, (x, y)) in a.outputs.iter().zip(&b.outputs).enumerate() {
        let (xs, ys) = (x.as_slice(), y.as_slice());
        assert_eq!(xs.len(), ys.len(), "node {i} element count");
        for (j, (p, q)) in xs.iter().zip(ys).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "node {i} element {j}");
        }
    }
    assert_eq!(a.report_json(), b.report_json(), "stats/energy report");
    assert_eq!(a.state_hash(), b.state_hash());
}

fn checkpoint_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn checkpointing_does_not_perturb_the_run() {
    let dir = tmp_dir("noperturb");
    let straight = run_alexnet(RunOptions::new());
    let checkpointed = run_alexnet(RunOptions::new().checkpoint_every(3, &dir));
    assert_bitwise_equal(&straight, &checkpointed);
    assert!(
        checkpoint_files(&dir).len() >= 3,
        "alexnet has >= 11 boundaries; every 3rd checkpoints"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_after_interruption_is_bitwise_identical() {
    let dir = tmp_dir("resume");
    let straight = run_alexnet(RunOptions::new());
    run_alexnet(RunOptions::new().checkpoint_every(2, &dir));
    // Simulate a crash after the second checkpoint: drop every later one.
    let files = checkpoint_files(&dir);
    assert!(files.len() >= 3, "need >= 3 checkpoints, got {files:?}");
    for f in &files[2..] {
        fs::remove_file(f).unwrap();
    }
    let resumed = run_alexnet(RunOptions::new().resume_from(&dir));
    assert_bitwise_equal(&straight, &resumed);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_from_final_checkpoint_replays_without_work() {
    let dir = tmp_dir("final");
    let straight = run_alexnet(RunOptions::new());
    // every=1: the newest checkpoint sits at the last layer boundary.
    run_alexnet(RunOptions::new().checkpoint_every(1, &dir));
    let resumed = run_alexnet(RunOptions::new().resume_from(&dir));
    assert_bitwise_equal(&straight, &resumed);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_with_no_checkpoints_starts_clean() {
    let dir = tmp_dir("clean");
    let straight = run_alexnet(RunOptions::new());
    let resumed = run_alexnet(RunOptions::new().resume_from(&dir)); // dir absent
    assert_bitwise_equal(&straight, &resumed);
}

/// Satellite: corrupt-checkpoint healing. A truncated newest checkpoint
/// must be skipped in favor of the boundary before it, and the resumed
/// run must still match the uninterrupted one bitwise.
#[test]
fn truncated_checkpoint_heals_to_previous_boundary() {
    let dir = tmp_dir("truncated");
    let straight = run_alexnet(RunOptions::new());
    run_alexnet(RunOptions::new().checkpoint_every(2, &dir));
    let files = checkpoint_files(&dir);
    assert!(files.len() >= 2);
    let newest = files.last().unwrap();
    let text = fs::read_to_string(newest).unwrap();
    fs::write(newest, &text[..text.len() / 2]).unwrap();
    let resumed = run_alexnet(RunOptions::new().resume_from(&dir));
    assert_bitwise_equal(&straight, &resumed);
    fs::remove_dir_all(&dir).ok();
}

/// The deliberate-mutation smoke test of the acceptance criteria: flip
/// one digit of one serialized value inside the newest checkpoint (the
/// JSON stays well-formed) and the recomputed state hash must reject
/// it. Were the mutated snapshot accepted, the resumed outputs would
/// inherit the flipped bits and diverge from the straight run.
#[test]
fn mutated_checkpoint_is_rejected_by_the_state_hash() {
    let dir = tmp_dir("mutated");
    let straight = run_alexnet(RunOptions::new());
    run_alexnet(RunOptions::new().checkpoint_every(2, &dir));
    let files = checkpoint_files(&dir);
    assert!(files.len() >= 2);
    let newest = files.last().unwrap();
    let text = fs::read_to_string(newest).unwrap();
    // Inside the payload the values serialize as `\"bits\":[NNN,...]`;
    // bump the last digit of the first bit pattern (mod 10 keeps the
    // number in u32 range and the JSON valid).
    let bits_at = text.find("bits").expect("payload carries bit patterns");
    let digits_start = text[bits_at..].find('[').unwrap() + bits_at + 1;
    let digits_end = digits_start
        + text[digits_start..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap();
    assert!(digits_end > digits_start, "first bit pattern present");
    let mut mutated = text.clone();
    let last = text.as_bytes()[digits_end - 1];
    mutated.replace_range(
        digits_end - 1..digits_end,
        if last == b'9' { "0" } else { "9" },
    );
    assert_ne!(mutated, text);
    fs::write(newest, mutated).unwrap();

    let resumed = run_alexnet(RunOptions::new().resume_from(&dir));
    assert_bitwise_equal(&straight, &resumed);
    fs::remove_dir_all(&dir).ok();
}

/// A checkpoint is bound to its run: a directory written by the same
/// model and configuration under other weights and another input holds
/// nothing this run may adopt.
#[test]
fn resume_skips_checkpoints_of_a_run_with_other_weights_and_input() {
    let dir = tmp_dir("foreign-seeds");
    let model = zoo::alexnet(ModelScale::Tiny);
    run_alexnet(RunOptions::new().checkpoint_every(1, &dir));
    let straight = run_seeded(&model, (5, 6), RunOptions::new());
    let resumed = run_seeded(&model, (5, 6), RunOptions::new().resume_from(&dir));
    assert_bitwise_equal(&straight, &resumed);
    fs::remove_dir_all(&dir).ok();
}

/// Nor does a directory written by another model on the same
/// configuration: clean start, no panic on its values.
#[test]
fn resume_skips_checkpoints_of_another_model() {
    let dir = tmp_dir("foreign-model");
    let model = zoo::squeezenet(ModelScale::Tiny);
    run_alexnet(RunOptions::new().checkpoint_every(1, &dir));
    let straight = run_seeded(&model, (1, 2), RunOptions::new());
    let resumed = run_seeded(&model, (1, 2), RunOptions::new().resume_from(&dir));
    assert_bitwise_equal(&straight, &resumed);
    fs::remove_dir_all(&dir).ok();
}

/// The state hash is stable across serial and `.parallel()` runs — the
/// oracle the fuzz matrix pins.
#[test]
fn state_hash_is_stable_across_runners() {
    let serial = run_alexnet(RunOptions::new());
    let parallel = run_alexnet(RunOptions::new().parallel());
    assert_eq!(serial.state_hash(), parallel.state_hash());
    // And it is not vacuous: a different input changes it.
    let other = run_seeded(&zoo::alexnet(ModelScale::Tiny), (1, 3), RunOptions::new());
    assert_ne!(serial.state_hash(), other.state_hash());
}

/// Neither checkpoint writing nor `.parallel()` perturbs the recorded
/// trace: both export the plain run's timeline byte for byte.
#[test]
fn checkpointing_preserves_the_trace_byte_for_byte() {
    let dir = tmp_dir("trace");
    let model = zoo::alexnet(ModelScale::Tiny);
    let params = ModelParams::generate(&model, 1);
    let input = generate_input(&model, 2);
    let traced = |options: RunOptions| {
        let capacity = stonne_core::trace::DEFAULT_CAPACITY;
        let cfg = AcceleratorConfig::maeri_like(32, 16);
        run_model_simulated_traced_with(&model, &params, &input, cfg, capacity, options).unwrap()
    };
    let (plain_run, plain_trace) = traced(RunOptions::new());
    assert!(!plain_trace.events().is_empty());
    for options in [
        RunOptions::new().checkpoint_every(2, &dir),
        RunOptions::new().parallel(),
    ] {
        let (run, trace) = traced(options);
        assert_bitwise_equal(&plain_run, &run);
        assert_eq!(
            stonne_core::chrome_trace_json(&plain_trace),
            stonne_core::chrome_trace_json(&trace),
        );
    }
    fs::remove_dir_all(&dir).ok();
}
