//! Runs the `sysbench` binary end to end on the smoke inputs (light
//! models, one op per workload) so tier-1 `cargo test` keeps the harness
//! honest without running the long workloads: every workload reports
//! every metric, nothing fails, and the driver protocol of
//! `/BENCHMARK.json` holds.
//!
//! Needs a `stonne-serve` binary in the target directory — a
//! workspace-wide `cargo build`/`cargo test` puts one there.

use std::path::PathBuf;
use std::process::Command;
use stonne_sysbench::report::{per_layer_defs, ResultsFile, END_TO_END, WORKLOADS};

fn sysbench(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_sysbench"))
        .args(args)
        .output()
        .expect("sysbench starts");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "sysbench {args:?} exited with {}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

fn scratch_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sysbench-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn smoke_run_reports_every_metric_of_every_workload() {
    let out = scratch_file("results.json");
    let stdout = sysbench(&["--smoke", "--out", out.to_str().expect("utf-8 path")]);
    let file = ResultsFile::from_json(&std::fs::read_to_string(&out).expect("results written"))
        .expect("results parse");
    std::fs::remove_file(&out).ok();

    assert_eq!(file.header.scale, "tiny");
    assert_eq!(file.runs.len(), WORKLOADS.len());
    for (run, workload) in file.runs.iter().zip(WORKLOADS) {
        assert_eq!(run.workload, workload.name);
        assert!(run.attempted >= 1 && run.failed == 0, "{run:?}");
        assert!(run.sum_cycles > 0 && run.sum_macs > 0, "{run:?}");
        assert_eq!(run.metrics.len(), END_TO_END.len());
        for (metric, def) in run.metrics.iter().zip(END_TO_END) {
            assert_eq!(
                (metric.name.as_str(), metric.unit.as_str()),
                (def.name, def.unit)
            );
            assert!(metric.value.is_finite());
            // `workload metric value unit`, one line each.
            let line = format!(
                "{} {} {:?} {}",
                run.workload, def.name, metric.value, def.unit
            );
            assert!(stdout.lines().any(|l| l == line), "missing line `{line}`");
        }
        assert_eq!(run.metric("failed_share"), Some(0.0));
        assert!(run.metric("op_s_p50").expect("reported") > 0.0);
        assert!(run.metric("setup_s").expect("reported") > 0.0);
    }
    // The two sweeps deliver the same grid; the two model workloads the
    // same run list.
    assert_eq!(file.runs[0].sum_cycles, file.runs[1].sum_cycles);
    assert_eq!(file.runs[2].sum_cycles, file.runs[3].sum_cycles);
    assert_eq!(file.runs[0].metric("store_mb"), Some(0.0));
    assert!(file.runs[1].metric("store_mb").expect("reported") > 0.0);
}

#[test]
fn untraced_driver_run_ends_in_the_protocol_line() {
    let stdout = sysbench(&[
        "--smoke",
        "--workload",
        "sweep_resume",
        "--seed",
        "41",
        "--seconds",
        "0",
        "--trace",
        "0",
    ]);
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"));
    let carried: Vec<&str> = END_TO_END
        .iter()
        .filter(|d| d.in_driver)
        .map(|d| d.name)
        .collect();
    for name in &carried {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} in {last}"
        );
    }
    assert_eq!(last.matches("\"value\"").count(), carried.len());
    assert!(carried.contains(&"setup_s"));
}

#[test]
fn traced_driver_run_prints_every_per_layer_metric() {
    let stdout = sysbench(&[
        "--smoke",
        "--workload",
        "model_uncached",
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        "1",
    ]);
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, "), "{stdout}");
    let defs = per_layer_defs();
    for def in &defs {
        assert!(
            last.contains(&format!("\"{}\": {{\"value\": ", def.name)),
            "{} missing",
            def.name
        );
    }
    assert_eq!(last.matches("\"value\"").count(), defs.len());
    assert!(stdout.contains("cache.hit_ratio.model_diskwarm 1.0 ratio"));
}

#[test]
fn unknown_workload_exits_nonzero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_sysbench"))
        .args(["--smoke", "--workload", "nonesuch", "--trace", "0"])
        .output()
        .expect("sysbench starts");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
