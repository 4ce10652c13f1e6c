//! Command line of the `sysbench` binary.
//!
//! ```text
//! sysbench [--seed N] [--seconds S] [--runs N] [--smoke] [--bless]
//!          [--out PATH] [--store-root DIR] [--serve-bin PATH]
//!     every workload, untraced, each in a process of its own; prints
//!     `workload metric value unit` and writes results.json
//! sysbench --trace [--seed N] [--smoke] [...]
//!     the traced run: per-layer metrics, span self times, trace.json
//! sysbench --workload NAME --seed N --seconds S --trace 0|1
//!     one run under the driver protocol of /BENCHMARK.json: the last
//!     line of stdout is the result object
//! sysbench compare BASE.json NEW.json [MORE.json…]
//! sysbench benchmark-json
//!     prints /BENCHMARK.json from the metric catalogue
//! ```

use crate::api_surface::{code_fingerprint, Scale};
use crate::compare::compare;
use crate::report::{
    benchmark_json, Expected, ExpectedSums, Header, ResultsFile, WorkloadRun, DEFAULT_SEED,
    END_TO_END, SCHEMA, WORKLOADS,
};
use crate::runner::{run_traced, run_workload};
use crate::span::{min_child_coverage, summarize, Recorder};
use crate::storefs::{fs_type, prepare_root};
use crate::workloads::Env;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Seconds each workload measures for when `--seconds` is not given —
/// the `run_seconds` of `/BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: Option<String>,
    trace: bool,
    seed: u64,
    seconds: Option<f64>,
    runs: usize,
    smoke: bool,
    bless: bool,
    no_pin: bool,
    out: Option<PathBuf>,
    run_out: Option<PathBuf>,
    store_root: Option<PathBuf>,
    serve_bin: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        trace: false,
        seed: DEFAULT_SEED,
        seconds: None,
        runs: 1,
        smoke: false,
        bless: false,
        no_pin: false,
        out: None,
        run_out: None,
        store_root: None,
        serve_bin: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 0..=3600"));
                }
                o.seconds = Some(seconds);
            }
            "--runs" => o.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            // The driver passes `--trace 0|1`; by hand a bare `--trace`
            // asks for the traced run.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    i += 1;
                    o.trace = false;
                }
                Some("1") => {
                    i += 1;
                    o.trace = true;
                }
                _ => o.trace = true,
            },
            "--smoke" => o.smoke = true,
            "--bless" => o.bless = true,
            "--no-pin" => o.no_pin = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--run-out" => o.run_out = Some(PathBuf::from(value()?)),
            "--store-root" => o.store_root = Some(PathBuf::from(value()?)),
            "--serve-bin" => o.serve_bin = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if o.runs == 0 {
        return Err("--runs must be at least 1".to_owned());
    }
    if o.bless && (o.seed != DEFAULT_SEED || o.smoke || o.trace || o.workload.is_some()) {
        return Err(format!(
            "--bless pins seed {DEFAULT_SEED} at reduced scale over all workloads; \
             drop --seed/--smoke/--trace/--workload"
        ));
    }
    Ok(o)
}

/// Where the harness keeps what it writes: `<target>/sysbench`, beside
/// the profile directory the binary was built into (`target/`, or the
/// driver's `CARGO_TARGET_DIR`), so nothing lands outside the checkout.
fn work_dir(exe: &Path) -> PathBuf {
    exe.parent()
        .and_then(Path::parent)
        .unwrap_or(Path::new("."))
        .join("sysbench")
}

/// The directory stores are created under: tmpfs when there is one with
/// room, else the work directory. A cold grid sweep creates ~77 k small
/// files; on a journalled disk that costs 11–22 s run to run against a
/// steady 7.5 s on tmpfs, and the benchmark is to measure the program's
/// syscalls and serde, not the disk. `store_fs` records what was used.
fn default_store_root(work: &Path) -> Result<PathBuf, String> {
    let shm = PathBuf::from("/dev/shm/stonne-sysbench");
    if prepare_root(&shm).is_ok() {
        return Ok(shm);
    }
    let fallback = work.join("stores");
    prepare_root(&fallback).map(|()| fallback)
}

/// The `stonne-serve` binary: beside this one (run.sh builds both), or
/// in a sibling profile directory when `cargo test` built only one.
fn find_serve_bin(exe: &Path) -> Result<PathBuf, String> {
    let name = format!("stonne-serve{}", std::env::consts::EXE_SUFFIX);
    let profile_dir = exe.parent().unwrap_or(Path::new("."));
    let target_dir = profile_dir.parent().unwrap_or(Path::new("."));
    [
        profile_dir.join(&name),
        target_dir.join("release").join(&name),
        target_dir.join("debug").join(&name),
    ]
    .into_iter()
    .find(|candidate| candidate.is_file())
    .ok_or_else(|| {
        format!(
            "no {name} beside {}: build it (`cargo build --release -p stonne-serve`, or \
             crates/sysbench/run.sh) or pass --serve-bin",
            exe.display()
        )
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn header(env: &Env, seconds: f64) -> Header {
    Header {
        schema: SCHEMA.to_owned(),
        deps: std::env::var("SYSBENCH_DEPS").unwrap_or_else(|_| "unknown".to_owned()),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        store_fs: fs_type(&env.store_root),
        rustc: command_line("rustc", &["-V"]),
        commit: command_line("git", &["rev-parse", "HEAD"]),
        fingerprint: code_fingerprint().to_owned(),
        seed: env.seed,
        seconds,
        scale: env.scale.wire_name().to_owned(),
    }
}

fn print_run(run: &WorkloadRun) {
    for m in &run.metrics {
        println!("{} {} {:?} {}", run.workload, m.name, m.value, m.unit);
    }
    if !run.traced {
        let high = if run.op_s_high_pct > 0.0 {
            format!(", op_s p{} {:.6} s", run.op_s_high_pct, run.op_s_high)
        } else {
            String::new()
        };
        println!(
            "{} ops: {} attempted, {} failed{high}; per op {} cycles, {} MACs",
            run.workload, run.attempted, run.failed, run.sum_cycles, run.sum_macs
        );
    }
    for why in &run.failures {
        println!("{} FAILED: {why}", run.workload);
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The traced run, in this process.
fn traced(env: &Env, work: &Path) -> Result<WorkloadRun, String> {
    let mut rec = Recorder::new();
    let run = run_traced(env, &mut rec)?;
    print_run(&run);
    println!("span self times (traced ops only):");
    println!(
        "  {:<56} {:>6} {:>12} {:>12}",
        "span", "count", "total s", "self s"
    );
    for (name, count, total_ns, self_ns) in summarize(rec.spans()) {
        println!(
            "  {name:<56} {count:>6} {:>12.6} {:>12.6}",
            total_ns as f64 / 1e9,
            self_ns as f64 / 1e9
        );
    }
    for op in ["op model_uncached", "op model_diskwarm"] {
        println!(
            "child spans cover at least {:.2} % of every `{op}` span",
            min_child_coverage(rec.spans(), op) * 100.0
        );
    }
    let path = work.join("trace.json");
    write_file(&path, &rec.chrome_trace_json())?;
    println!(
        "trace: {} (open in https://ui.perfetto.dev)",
        path.display()
    );
    Ok(run)
}

/// Every workload, each in a child process of its own so that
/// `peak_rss_mb` is that workload's and nobody else's.
fn all_workloads(
    o: &Options,
    env: &Env,
    seconds: f64,
    exe: &Path,
    work: &Path,
) -> Result<i32, String> {
    let mut file = ResultsFile {
        header: header(env, seconds),
        runs: Vec::new(),
    };
    let run_out = work.join(format!("run-{}.json", std::process::id()));
    for _ in 0..o.runs {
        for workload in WORKLOADS {
            let mut child = Command::new(exe);
            child
                .args(["--workload", workload.name])
                .args(["--seed", &env.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", "0"])
                .arg("--run-out")
                .arg(&run_out)
                .arg("--store-root")
                .arg(&env.store_root)
                .arg("--serve-bin")
                .arg(&env.serve_bin);
            if o.smoke {
                child.arg("--smoke");
            }
            if o.bless || o.no_pin {
                child.arg("--no-pin");
            }
            let output = child
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot re-run {}: {e}", exe.display()))?;
            let text = std::fs::read_to_string(&run_out).map_err(|_| {
                format!(
                    "{} produced no result ({}): {}",
                    workload.name,
                    output.status,
                    String::from_utf8_lossy(&output.stdout).trim()
                )
            })?;
            std::fs::remove_file(&run_out).ok();
            let run: WorkloadRun = serde_json::from_str(&text).map_err(|e| e.to_string())?;
            print_run(&run);
            file.runs.push(run);
        }
    }
    let out = o.out.clone().unwrap_or_else(|| work.join("results.json"));
    write_file(&out, &file.to_json())?;
    println!("results: {}", out.display());
    let clean = file.runs.iter().all(WorkloadRun::correct);
    if o.bless {
        if !clean {
            return Err("refusing to bless a run with failed ops".to_owned());
        }
        let expected = Expected {
            seed: DEFAULT_SEED,
            workloads: WORKLOADS
                .iter()
                .filter_map(|w| file.runs.iter().find(|r| r.workload == w.name))
                .map(|r| ExpectedSums {
                    name: r.workload.clone(),
                    sum_cycles: r.sum_cycles,
                    sum_macs: r.sum_macs,
                })
                .collect(),
        };
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
        let text = serde_json::to_string_pretty(&expected).map_err(|e| e.to_string())?;
        write_file(&path, &format!("{text}\n"))?;
        println!(
            "blessed: {} (rebuild to compile the new pins in)",
            path.display()
        );
    }
    Ok(if clean { 0 } else { 1 })
}

fn compare_files(paths: &[String]) -> Result<i32, String> {
    let (base_path, new_paths) = match paths {
        [base, new @ ..] if !new.is_empty() => (base, new),
        _ => return Err("compare needs BASE.json NEW.json [MORE.json…]".to_owned()),
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| ResultsFile::from_json(&text).map_err(|e| format!("{path}: {e}")))
    };
    let base = load(base_path)?;
    let mut not_ok = 0;
    for path in new_paths {
        let (table, cells) = compare(&base, &load(path)?)?;
        println!("{base_path} -> {path}");
        print!("{table}");
        println!("{cells} cell(s) not ok");
        not_ok += cells;
    }
    Ok(i32::from(not_ok > 0))
}

/// Runs the command line; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        Some("benchmark-json") => {
            print!("{}", benchmark_json(DEFAULT_SECONDS as u64));
            Ok(0)
        }
        _ => parse(args).and_then(|o| run(&o)),
    };
    result.unwrap_or_else(|why| {
        eprintln!("sysbench: {why}");
        2
    })
}

/// Removes the store root when the run ends, however it ends, if this
/// process emptied it (a concurrent harness keeps it alive).
struct StoreRootGuard(PathBuf);

impl Drop for StoreRootGuard {
    fn drop(&mut self) {
        std::fs::remove_dir(&self.0).ok();
    }
}

fn run(o: &Options) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let work = work_dir(&exe);
    let env = Env {
        seed: o.seed,
        scale: if o.smoke { Scale::Tiny } else { Scale::Reduced },
        store_root: match &o.store_root {
            Some(root) => prepare_root(root).map(|()| root.clone())?,
            None => default_store_root(&work)?,
        },
        serve_bin: match &o.serve_bin {
            Some(path) => path.clone(),
            None => find_serve_bin(&exe)?,
        },
    };
    let _root = StoreRootGuard(env.store_root.clone());
    // The smoke run makes one op per workload unless told otherwise.
    let seconds = o
        .seconds
        .unwrap_or(if o.smoke { 0.0 } else { DEFAULT_SECONDS });

    let Some(workload) = &o.workload else {
        if o.trace {
            let run = traced(&env, &work)?;
            let out = o.out.clone().unwrap_or_else(|| work.join("traced.json"));
            let file = ResultsFile {
                header: header(&env, seconds),
                runs: vec![run],
            };
            write_file(&out, &file.to_json())?;
            println!("results: {}", out.display());
            return Ok(i32::from(!file.runs[0].correct()));
        }
        return all_workloads(o, &env, seconds, &exe, &work);
    };

    // One run under the driver protocol.
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let run = if o.trace {
        traced(&env, &work)?
    } else {
        let run = run_workload(workload, &env, seconds, !o.no_pin)?;
        print_run(&run);
        run
    };
    if let Some(path) = &o.run_out {
        let text = serde_json::to_string(&run).map_err(|e| e.to_string())?;
        write_file(path, &text)?;
    }
    println!(
        "{}",
        run.driver_line(|name| o.trace || END_TO_END.iter().any(|d| d.name == name && d.in_driver))
    );
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let o = parse(&args(
            "--workload sweep_cold --seed 41 --seconds 12 --trace 0",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("sweep_cold"));
        assert_eq!((o.seed, o.seconds, o.trace), (41, Some(12.0), false));
        let o = parse(&args(
            "--workload sweep_cold --seed 41 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert!(o.trace);
    }

    #[test]
    fn bare_trace_flag_asks_for_the_traced_run() {
        let o = parse(&args("--trace --seed 9")).unwrap();
        assert!(o.trace && o.seed == 9 && o.workload.is_none());
        assert!(parse(&args("--trace")).unwrap().trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&args("--frobnicate")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--seed x")).is_err());
        assert!(parse(&args("--seconds -1")).is_err());
        assert!(parse(&args("--runs 0")).is_err());
        assert!(parse(&args("--bless --seed 8")).is_err());
        assert!(parse(&args("--bless --smoke")).is_err());
        assert!(parse(&args("--bless")).is_ok());
    }

    #[test]
    fn committed_benchmark_json_is_the_catalogue() {
        assert_eq!(
            include_str!("../../../BENCHMARK.json"),
            benchmark_json(DEFAULT_SECONDS as u64),
            "regenerate with `sysbench benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn work_dir_sits_beside_the_profile_directory() {
        assert_eq!(
            work_dir(Path::new("/c/.bench_build/release/sysbench")),
            Path::new("/c/.bench_build/sysbench")
        );
    }
}
