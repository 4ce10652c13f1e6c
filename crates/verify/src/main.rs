//! The `verify` bin: runs a deterministic fuzz campaign and writes the
//! machine-readable `verify_report.json` that CI gates on.
//!
//! ```text
//! cargo run --release -p stonne-verify -- --samples 200 --seed 7
//! ```
//!
//! Campaigns shard across processes without losing the byte-identity
//! guarantee: `--shard i/n` checks only the samples with
//! `index % n == i` and writes a shard artifact, and `verify merge`
//! recombines the artifacts into a report byte-identical to the
//! single-process run (compare with `jq 'del(.wall_time_ms)'`):
//!
//! ```text
//! verify --samples 2000 --seed 7 --shard 0/4 --out shard0.json
//! ...
//! verify merge --out verify_report.json shard0.json ... shard3.json
//! ```
//!
//! Exit status is non-zero when any oracle or campaign check fails.

use std::process::ExitCode;

use stonne_bench::perf::parse_shard_spec;
use stonne_verify::campaign::{merge_shards, run_shard, SampleSpace};
use stonne_verify::report::ShardReport;
use stonne_verify::{run_campaign, state_hash_manifest, CampaignConfig, VerifyReport};

struct Args {
    samples: u64,
    seed: u64,
    out: String,
    shrink: bool,
    shard: Option<(u64, u64)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: verify [--samples N] [--seed S] [--out PATH] [--no-shrink] [--shard I/N]\n\
         \x20      verify merge [--out PATH] SHARD.json...\n\
         \x20      verify state-hash [--seed S] [--out PATH]\n\
         \n\
         Runs the differential fuzz campaign (default: 200 samples, seed 7)\n\
         and writes the report to PATH (default: verify_report.json).\n\
         With --shard I/N only samples with index % N == I are checked and\n\
         a shard artifact is written instead; `verify merge` recombines\n\
         shard artifacts into the report the single-process run produces.\n\
         `verify state-hash` writes the run state hashes of a fixed\n\
         full-model roster (default: state_hash.json) — byte-diff it across\n\
         architectures to prove cross-platform determinism."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        samples: 200,
        seed: 7,
        out: "verify_report.json".to_owned(),
        shrink: true,
        shard: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--samples" => {
                args.samples = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                args.out = it.next().unwrap_or_else(|| usage());
            }
            "--no-shrink" => args.shrink = false,
            "--shard" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let (index, count) = parse_shard_spec(&spec).unwrap_or_else(|e| {
                    eprintln!("verify: {e}");
                    std::process::exit(2);
                });
                args.shard = Some((index as u64, count as u64));
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

/// Prints the human summary and returns the process exit code.
fn report_verdict(report: &VerifyReport, out: &str) -> ExitCode {
    for o in &report.oracles {
        println!(
            "  {:<32} runs {:>5}  failures {:>3}  worst divergence {:>8.2}%",
            o.name,
            o.runs,
            o.failures,
            o.worst_divergence_cpct as f64 / 100.0
        );
    }
    for c in &report.campaign {
        println!(
            "  {:<32} over {:>4} samples: {:.2}% (limit {:.2}%) -> {}",
            c.name,
            c.samples,
            c.value_cpct as f64 / 100.0,
            c.limit_cpct as f64 / 100.0,
            if c.pass { "pass" } else { "FAIL" }
        );
    }

    if report.passed() {
        println!("verify: PASS (report written to {out})");
        ExitCode::SUCCESS
    } else {
        println!(
            "verify: FAIL — {} failing checks (report written to {out})",
            report.total_failures
        );
        for f in &report.failures {
            println!(
                "\n--- reproducer for sample {} ({}) ---",
                f.sample_index, f.oracle
            );
            println!("{}", f.repro_test);
        }
        ExitCode::FAILURE
    }
}

fn run_merge(mut argv: std::env::Args) -> ExitCode {
    let mut out = "verify_report.json".to_owned();
    let mut paths = Vec::new();
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--out" => out = argv.next().unwrap_or_else(|| usage()),
            "--help" | "-h" => usage(),
            p => paths.push(p.to_owned()),
        }
    }
    if paths.is_empty() {
        usage();
    }
    let mut shards = Vec::new();
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("verify: cannot read shard {path}: {e}");
                return ExitCode::from(2);
            }
        };
        match ShardReport::from_json(&text) {
            Ok(s) => shards.push(s),
            Err(e) => {
                eprintln!("verify: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let report = match merge_shards(&shards) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("verify: merge failed: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("verify: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "verify: merged {} shards, {} samples, seed {}",
        shards.len(),
        report.samples,
        report.seed
    );
    report_verdict(&report, &out)
}

fn run_one_shard(args: &Args, shard_index: u64, shard_count: u64) -> ExitCode {
    let shard = run_shard(
        CampaignConfig {
            samples: args.samples,
            seed: args.seed,
            shrink: args.shrink,
            space: SampleSpace::Full,
        },
        shard_index,
        shard_count,
    );
    if let Err(e) = std::fs::write(&args.out, shard.to_json()) {
        eprintln!("verify: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    let failures = shard.total_failures();
    println!(
        "verify: shard {shard_index}/{shard_count} of {} samples, seed {}, {} failures \
         (artifact written to {})",
        args.samples, args.seed, failures, args.out
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        for f in &shard.failure_records {
            println!(
                "\n--- reproducer for sample {} ({}) ---",
                f.sample_index, f.oracle
            );
            println!("{}", f.repro_test);
        }
        ExitCode::FAILURE
    }
}

/// `verify state-hash`: writes the cross-platform determinism manifest.
fn run_state_hash(mut argv: std::env::Args) -> ExitCode {
    let mut out = "state_hash.json".to_owned();
    let mut seed = 7u64;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--out" => out = argv.next().unwrap_or_else(|| usage()),
            "--seed" => {
                seed = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    eprintln!("verify: state-hash manifest, seed {seed}");
    let manifest = state_hash_manifest(seed);
    if let Err(e) = std::fs::write(&out, manifest.to_json()) {
        eprintln!("verify: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    for e in &manifest.entries {
        println!("  {:<12} {:<8} {}", e.model, e.arch, e.state_hash);
    }
    println!(
        "verify: {} state hashes written to {out}",
        manifest.entries.len()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut argv = std::env::args();
    argv.next(); // program name
    if let Some(first) = std::env::args().nth(1) {
        if first == "merge" {
            argv.next(); // the subcommand itself
            return run_merge(argv);
        }
        if first == "state-hash" {
            argv.next(); // the subcommand itself
            return run_state_hash(argv);
        }
    }

    let args = parse_args();
    if let Some((i, n)) = args.shard {
        eprintln!(
            "verify: shard {i}/{n} of a {} sample campaign, seed {}",
            args.samples, args.seed
        );
        return run_one_shard(&args, i, n);
    }

    eprintln!(
        "verify: campaign of {} samples, seed {}",
        args.samples, args.seed
    );
    let report = run_campaign(CampaignConfig {
        samples: args.samples,
        seed: args.seed,
        shrink: args.shrink,
        space: SampleSpace::Full,
    });

    if let Err(e) = std::fs::write(&args.out, report.to_json()) {
        eprintln!("verify: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }

    println!(
        "verify: {} samples, seed {}, {} ms",
        report.samples, report.seed, report.wall_time_ms
    );
    report_verdict(&report, &args.out)
}
