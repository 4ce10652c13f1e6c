//! Tracked simulator-performance benchmark (`perf` bin → `BENCH.json`).
//!
//! Times a fixed workload basket — one microbench per engine plus
//! uncached BERT and ResNet-50 full-model runs — and reports the
//! median-of-N wall-clock per entry together with the simulated cycle
//! count and engine-invocation count (which must stay invariant across
//! performance-only changes: a `cycles` drift in the trajectory means
//! behaviour changed, not just speed). The JSON schema is documented in
//! `docs/PERFORMANCE.md`; `results/BENCH.json` is the tracked trajectory.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use stonne::core::{AcceleratorConfig, Dataflow, NaturalOrder, Stonne};
use stonne::models::{zoo, ModelId, ModelScale};
use stonne::nn::params::{generate_input, ModelParams};
use stonne::nn::runner::{run_model_simulated_with, RunOptions};
use stonne::tensor::{prune_matrix_to_sparsity, CsrMatrix, Matrix, SeededRng, Tensor4};

/// Schema tag of the emitted JSON; bump on breaking layout changes.
pub const SCHEMA: &str = "stonne-bench-perf/1";

/// One timed basket entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Stable entry name (baselines are compared per name).
    pub name: String,
    /// Number of timed repetitions.
    pub reps: usize,
    /// Median wall-clock over the repetitions, in milliseconds.
    pub median_ms: f64,
    /// Fastest repetition, in milliseconds.
    pub min_ms: f64,
    /// Slowest repetition, in milliseconds.
    pub max_ms: f64,
    /// Simulated cycle count (identical every repetition; drifts only
    /// when simulated behaviour changes).
    pub cycles: u64,
    /// Engine invocations per repetition (cache is off everywhere, so
    /// this equals the offloaded-operation count).
    pub engine_invocations: u64,
    /// Peak resident set size of the process (KiB, `VmHWM`) after this
    /// entry's repetitions finished; 0 where the platform hides it.
    /// Roughly monotone along the basket, modulo the kernel's lazy
    /// split-RSS accounting (readings can lag by a few pages).
    /// Nondeterministic, so canonically zeroed.
    #[serde(default)]
    pub peak_rss_kb: u64,
    /// Median heap allocations per repetition, counted by the
    /// `alloc-count` global allocator the `perf` bin installs; 0 when
    /// the feature is off or the allocator is not installed (library
    /// tests). Canonically zeroed (allocator internals may vary).
    #[serde(default)]
    pub alloc_count: u64,
}

/// The full benchmark report serialized to `BENCH.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Worker threads available to the run
    /// (`std::thread::available_parallelism`).
    pub threads: usize,
    /// Peak resident set size of the process in KiB (`VmHWM`; 0 when
    /// the platform does not expose it).
    pub peak_rss_kb: u64,
    /// Timed entries, in fixed basket order.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Serializes the report as pretty-printed JSON.
    ///
    /// # Panics
    ///
    /// Never panics in practice (all fields are serializable).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Pretty JSON with every nondeterministic field zeroed — wall-clock
    /// timings, thread count and peak RSS. What remains (entry order,
    /// reps, `cycles`, `engine_invocations`) is deterministic for a
    /// fixed basket, so a sharded run merged with [`merge_reports`]
    /// must reproduce the single-process run's canonical bytes exactly.
    pub fn canonical_json(&self) -> String {
        let mut canonical = self.clone();
        canonical.threads = 0;
        canonical.peak_rss_kb = 0;
        for e in &mut canonical.entries {
            e.median_ms = 0.0;
            e.min_ms = 0.0;
            e.max_ms = 0.0;
            e.peak_rss_kb = 0;
            e.alloc_count = 0;
        }
        canonical.to_json()
    }

    /// Parses a report previously written by [`BenchReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the serde error when the text is not a valid report.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Looks up an entry by name.
    pub fn entry(&self, name: &str) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| e.name == name)
    }
}

/// Basket parameters.
#[derive(Debug, Clone, Copy)]
pub struct PerfConfig {
    /// Timed repetitions per entry (median-of-N).
    pub reps: usize,
    /// Shrinks every workload (Tiny models, small microbenches) for CI
    /// smoke runs and tests; the tracked trajectory uses `quick: false`.
    pub quick: bool,
    /// Adds intra-layer tile-parallel model entries to the basket
    /// (meaningful on multi-core hosts; entries still run on one core).
    pub parallel: bool,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            reps: 3,
            quick: false,
            parallel: false,
        }
    }
}

/// Heap-allocation counting for `bench perf`, behind the `alloc-count`
/// feature. The `perf` bin installs [`alloc_counter::CountingAlloc`] as
/// its global allocator; [`allocations_so_far`] then exposes a process
/// allocation counter the basket turns into per-repetition deltas.
#[cfg(feature = "alloc-count")]
pub mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// A pass-through wrapper over [`System`] that counts every
    /// allocation-producing call (`alloc`, `alloc_zeroed`, `realloc`).
    pub struct CountingAlloc;

    // SAFETY: defers every operation verbatim to `System`; the counter
    // is a relaxed atomic side effect.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc_zeroed(layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    /// Allocations made by this process so far (0 until the counting
    /// allocator is installed as the global allocator).
    pub fn allocations_so_far() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// Process allocation count so far; 0 when `alloc-count` is compiled out.
pub fn allocations_so_far() -> u64 {
    #[cfg(feature = "alloc-count")]
    {
        alloc_counter::allocations_so_far()
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        0
    }
}

/// Times `body` `reps` times and folds the wall-clocks into an entry.
///
/// `body` returns `(cycles, engine_invocations)`; both must be identical
/// across repetitions (the simulator is deterministic) and the entry
/// records the last repetition's values, together with the median
/// per-repetition allocation delta and the process peak RSS at the end.
fn timed<F: FnMut() -> (u64, u64)>(name: &str, reps: usize, mut body: F) -> BenchEntry {
    assert!(reps > 0, "reps must be positive");
    let mut ms: Vec<f64> = Vec::with_capacity(reps);
    let mut allocs: Vec<u64> = Vec::with_capacity(reps);
    let mut cycles = 0;
    let mut invocations = 0;
    for _ in 0..reps {
        let allocs_before = allocations_so_far();
        let start = Instant::now();
        let (c, i) = body();
        ms.push(start.elapsed().as_secs_f64() * 1e3);
        allocs.push(allocations_so_far() - allocs_before);
        cycles = c;
        invocations = i;
    }
    ms.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    allocs.sort_unstable();
    let median_ms = if reps % 2 == 1 {
        ms[reps / 2]
    } else {
        (ms[reps / 2 - 1] + ms[reps / 2]) / 2.0
    };
    BenchEntry {
        name: name.to_owned(),
        reps,
        median_ms,
        min_ms: ms[0],
        max_ms: ms[reps - 1],
        cycles,
        engine_invocations: invocations,
        peak_rss_kb: peak_rss_kb(),
        alloc_count: allocs[reps / 2],
    }
}

/// Peak resident set size in KiB from `/proc/self/status` (`VmHWM`), or
/// 0 where unavailable.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches(" kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The flexible-engine microbench GEMM, shared by the WS and OS entries.
fn flexible_operands(quick: bool) -> (Matrix, Matrix) {
    let (m, n, k) = if quick { (16, 16, 32) } else { (128, 128, 256) };
    let mut rng = SeededRng::new(21);
    (
        Matrix::random(m, k, &mut rng),
        Matrix::random(k, n, &mut rng),
    )
}

fn micro_systolic(quick: bool, reps: usize) -> BenchEntry {
    let (dim, m, n, k) = if quick {
        (8, 16, 16, 32)
    } else {
        (64, 256, 256, 256)
    };
    let mut rng = SeededRng::new(19);
    let a = Matrix::random(m, k, &mut rng);
    let b = Matrix::random(k, n, &mut rng);
    timed("micro_systolic_os_gemm", reps, || {
        let mut sim = Stonne::new(AcceleratorConfig::tpu_like(dim)).expect("valid preset");
        let (_, stats) = sim.run_gemm("perf", &a, &b);
        (stats.cycles, stats.engine_invocations)
    })
}

fn micro_flexible(dataflow: Dataflow, name: &str, quick: bool, reps: usize) -> BenchEntry {
    let (ms, bw) = if quick { (32, 16) } else { (256, 128) };
    let (a, b) = flexible_operands(quick);
    let mut config = AcceleratorConfig::maeri_like(ms, bw);
    config.dataflow = dataflow;
    timed(name, reps, || {
        let mut sim = Stonne::new(config.clone()).expect("valid preset");
        let (_, stats) = sim.run_gemm("perf", &a, &b);
        (stats.cycles, stats.engine_invocations)
    })
}

fn micro_sparse(quick: bool, reps: usize) -> BenchEntry {
    let (ms, m, n, k) = if quick {
        (32, 16, 16, 32)
    } else {
        (256, 256, 128, 256)
    };
    let mut rng = SeededRng::new(23);
    let mut a = Matrix::random_filterwise(m, k, 0.8, &mut rng);
    prune_matrix_to_sparsity(&mut a, 0.7);
    let csr = CsrMatrix::from_dense(&a);
    let b = Matrix::random(k, n, &mut rng);
    timed("micro_sparse_spmm", reps, || {
        let mut sim = Stonne::new(AcceleratorConfig::sigma_like(ms, ms)).expect("valid preset");
        let (_, stats) = sim.run_spmm("perf", &csr, &b);
        (stats.cycles, stats.engine_invocations)
    })
}

fn micro_pool(quick: bool, reps: usize) -> BenchEntry {
    let (c, hw) = if quick { (4, 16) } else { (64, 96) };
    let mut rng = SeededRng::new(29);
    let input = Tensor4::random(1, c, hw, hw, &mut rng);
    timed("micro_maxpool", reps, || {
        let mut sim = Stonne::new(AcceleratorConfig::maeri_like(64, 32)).expect("valid preset");
        let (_, stats) = sim.run_maxpool("perf", &input, 2, 2);
        (stats.cycles, stats.engine_invocations)
    })
}

fn model_entry(
    name: &str,
    id: ModelId,
    scale: ModelScale,
    options: &RunOptions,
    reps: usize,
) -> BenchEntry {
    let model = zoo::build(id, scale);
    let params = ModelParams::generate(&model, 1);
    let input = generate_input(&model, 2);
    let config = AcceleratorConfig::maeri_like(256, 128);
    timed(name, reps, || {
        let run = run_model_simulated_with(
            &model,
            &params,
            &input,
            config.clone(),
            std::sync::Arc::new(NaturalOrder),
            options.clone(),
        )
        .expect("valid preset");
        (run.total.cycles, run.total.engine_invocations)
    })
}

/// The canonical basket roster, in report order. The optional
/// intra-layer entries come last; [`basket_names`] selects the active
/// prefix for a configuration. Shards partition *positions* in this
/// list, and [`merge_reports`] restores this order, which is what makes
/// a merged report canonically byte-identical to a monolithic one.
pub const BASKET_ORDER: [&str; 9] = [
    "micro_systolic_os_gemm",
    "micro_flexible_ws_gemm",
    "micro_flexible_os_gemm",
    "micro_sparse_spmm",
    "micro_maxpool",
    "model_bert_uncached",
    "model_resnet50_uncached",
    "model_bert_uncached_intra",
    "model_resnet50_uncached_intra",
];

/// The entry names a configuration's basket runs, in order.
pub fn basket_names(cfg: &PerfConfig) -> Vec<&'static str> {
    let count = if cfg.parallel { 9 } else { 7 };
    BASKET_ORDER[..count].to_vec()
}

/// Runs one named basket entry.
fn run_entry(name: &str, cfg: &PerfConfig) -> BenchEntry {
    let scale = if cfg.quick {
        ModelScale::Tiny
    } else {
        ModelScale::Reduced
    };
    let serial = RunOptions::new().uncached();
    let intra = RunOptions::new().uncached().parallel();
    let e = match name {
        "micro_systolic_os_gemm" => micro_systolic(cfg.quick, cfg.reps),
        "micro_flexible_ws_gemm" => {
            micro_flexible(Dataflow::WeightStationary, name, cfg.quick, cfg.reps)
        }
        "micro_flexible_os_gemm" => {
            micro_flexible(Dataflow::OutputStationary, name, cfg.quick, cfg.reps)
        }
        "micro_sparse_spmm" => micro_sparse(cfg.quick, cfg.reps),
        "micro_maxpool" => micro_pool(cfg.quick, cfg.reps),
        "model_bert_uncached" => model_entry(name, ModelId::Bert, scale, &serial, cfg.reps),
        "model_resnet50_uncached" => model_entry(name, ModelId::ResNet50, scale, &serial, cfg.reps),
        "model_bert_uncached_intra" => model_entry(name, ModelId::Bert, scale, &intra, cfg.reps),
        "model_resnet50_uncached_intra" => {
            model_entry(name, ModelId::ResNet50, scale, &intra, cfg.reps)
        }
        other => unreachable!("unknown basket entry {other}"),
    };
    eprintln!("perf: {} median {:.2} ms", e.name, e.median_ms);
    e
}

fn assemble(entries: Vec<BenchEntry>) -> BenchReport {
    BenchReport {
        schema: SCHEMA.to_owned(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        peak_rss_kb: peak_rss_kb(),
        entries,
    }
}

/// Runs the fixed basket and assembles the report.
///
/// Every workload runs with the simulation cache off: the basket
/// measures the *first* (uncached) simulation cost that PR 2's cache
/// cannot hide. Progress goes to stderr so stdout stays clean.
pub fn run_basket(cfg: &PerfConfig) -> BenchReport {
    assemble(
        basket_names(cfg)
            .into_iter()
            .map(|name| run_entry(name, cfg))
            .collect(),
    )
}

/// Runs shard `shard_index` of the basket split `shard_count` ways:
/// exactly the entries at basket positions with
/// `position % shard_count == shard_index`. A shard report carries only
/// its own entries; [`merge_reports`] recombines the artifacts.
///
/// # Panics
///
/// Panics when `shard_index >= shard_count`.
pub fn run_basket_shard(cfg: &PerfConfig, shard_index: usize, shard_count: usize) -> BenchReport {
    assert!(
        shard_index < shard_count && shard_count > 0,
        "shard {shard_index}/{shard_count} out of range"
    );
    assemble(
        basket_names(cfg)
            .into_iter()
            .enumerate()
            .filter(|(position, _)| position % shard_count == shard_index)
            .map(|(_, name)| run_entry(name, cfg))
            .collect(),
    )
}

/// Parses a `--shard I/N` spec, rejecting degenerate values with a
/// human-readable message: `N` must be at least 1 and `I` must be a
/// valid shard index (`I < N`).
///
/// # Errors
///
/// Returns a description of the problem when the spec is not of the
/// form `I/N`, either side fails to parse, `N` is zero, or `I >= N`.
pub fn parse_shard_spec(spec: &str) -> Result<(usize, usize), String> {
    let (i, n) = spec
        .split_once('/')
        .ok_or_else(|| format!("--shard expects I/N (got {spec:?})"))?;
    let index: usize = i
        .parse()
        .map_err(|_| format!("--shard index {i:?} is not a non-negative integer"))?;
    let count: usize = n
        .parse()
        .map_err(|_| format!("--shard count {n:?} is not a non-negative integer"))?;
    if count == 0 {
        return Err("--shard count must be at least 1 (got 0)".to_owned());
    }
    if index >= count {
        return Err(format!(
            "--shard index {index} is out of range for {count} shard(s) (need I < N)"
        ));
    }
    Ok((index, count))
}

/// Recombines shard reports into one report in canonical basket order.
///
/// The merged report's [`BenchReport::canonical_json`] is byte-identical
/// to a monolithic run of the same basket (cycle and invocation counts
/// are deterministic; timings, threads and RSS are canonically zeroed —
/// the merge keeps each shard's measured timings and takes the max of
/// the per-process `threads`/`peak_rss_kb`).
///
/// # Errors
///
/// Returns a description when the shards disagree on schema, duplicate
/// an entry, contain an unknown entry, or fail to cover the basket
/// implied by the union (the full 7-entry roster, plus the intra
/// entries when any shard carries one).
pub fn merge_reports(shards: &[BenchReport]) -> Result<BenchReport, String> {
    if shards.is_empty() {
        return Err("no shard reports to merge".to_owned());
    }
    let mut by_name: std::collections::BTreeMap<&str, &BenchEntry> = Default::default();
    for s in shards {
        if s.schema != SCHEMA {
            return Err(format!(
                "shard has schema {:?} (expected {SCHEMA:?})",
                s.schema
            ));
        }
        for e in &s.entries {
            if !BASKET_ORDER.contains(&e.name.as_str()) {
                return Err(format!("unknown basket entry {:?}", e.name));
            }
            if by_name.insert(&e.name, e).is_some() {
                return Err(format!("entry {:?} appears in two shards", e.name));
            }
        }
    }
    let parallel = by_name.keys().any(|n| n.ends_with("_intra"));
    let expected = &BASKET_ORDER[..if parallel { 9 } else { 7 }];
    if let Some(missing) = expected.iter().find(|n| !by_name.contains_key(**n)) {
        return Err(format!("entry {missing:?} is missing from the shards"));
    }
    Ok(BenchReport {
        schema: SCHEMA.to_owned(),
        threads: shards.iter().map(|s| s.threads).max().unwrap_or(1),
        peak_rss_kb: shards.iter().map(|s| s.peak_rss_kb).max().unwrap_or(0),
        entries: expected.iter().map(|n| by_name[*n].clone()).collect(),
    })
}

/// Formats a per-entry comparison of `new` against `old` (matched by
/// entry name; entries missing on either side are skipped). Flags cycle
/// drifts — a perf PR must not change simulated behaviour.
pub fn compare(new: &BenchReport, old: &BenchReport) -> String {
    let mut out = String::new();
    for e in &new.entries {
        let Some(base) = old.entry(&e.name) else {
            continue;
        };
        let speedup = if e.median_ms > 0.0 {
            base.median_ms / e.median_ms
        } else {
            f64::INFINITY
        };
        let drift = if e.cycles == base.cycles {
            ""
        } else {
            "  ** CYCLES DRIFTED **"
        };
        let allocs = if e.alloc_count > 0 && base.alloc_count > 0 {
            format!(
                "  allocs {} -> {} ({:.2}x)",
                base.alloc_count,
                e.alloc_count,
                base.alloc_count as f64 / e.alloc_count.max(1) as f64
            )
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{:<32} {:>10.2} ms -> {:>10.2} ms  ({speedup:.2}x){allocs}{drift}\n",
            e.name, base.median_ms, e.median_ms
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spec_parsing_rejects_degenerate_specs() {
        assert_eq!(parse_shard_spec("0/1"), Ok((0, 1)));
        assert_eq!(parse_shard_spec("3/4"), Ok((3, 4)));
        for (spec, needle) in [
            ("4/4", "out of range"),
            ("9/2", "out of range"),
            ("0/0", "at least 1"),
            ("1/0", "at least 1"),
            ("02", "expects I/N"),
            ("", "expects I/N"),
            ("a/4", "not a non-negative integer"),
            ("1/b", "not a non-negative integer"),
            ("-1/4", "not a non-negative integer"),
        ] {
            let err = parse_shard_spec(spec).expect_err(spec);
            assert!(err.contains(needle), "{spec:?} -> {err:?}");
        }
    }

    #[test]
    fn quick_basket_round_trips_and_is_cycle_deterministic() {
        let cfg = PerfConfig {
            reps: 1,
            quick: true,
            parallel: false,
        };
        let a = run_basket(&cfg);
        let b = run_basket(&cfg);
        assert_eq!(a.schema, SCHEMA);
        assert_eq!(a.entries.len(), 7);
        for (ea, eb) in a.entries.iter().zip(&b.entries) {
            assert_eq!(ea.name, eb.name);
            assert_eq!(ea.cycles, eb.cycles, "{}", ea.name);
            assert!(ea.cycles > 0, "{}", ea.name);
            assert!(ea.median_ms >= ea.min_ms && ea.median_ms <= ea.max_ms);
        }
        let parsed = BenchReport::from_json(&a.to_json()).unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn sharded_basket_merges_canonically_byte_identical() {
        let cfg = PerfConfig {
            reps: 1,
            quick: true,
            parallel: false,
        };
        let mono = run_basket(&cfg);
        for shard_count in [2usize, 3] {
            let shards: Vec<BenchReport> = (0..shard_count)
                .map(|i| {
                    let s = run_basket_shard(&cfg, i, shard_count);
                    BenchReport::from_json(&s.to_json()).expect("artifact round-trips")
                })
                .collect();
            let merged = merge_reports(&shards).expect("shards are consistent");
            assert_eq!(
                merged.canonical_json(),
                mono.canonical_json(),
                "{shard_count} shards"
            );
        }
    }

    #[test]
    fn merge_rejects_bad_shard_sets() {
        let cfg = PerfConfig {
            reps: 1,
            quick: true,
            parallel: false,
        };
        let a = run_basket_shard(&cfg, 0, 2);
        let b = run_basket_shard(&cfg, 1, 2);
        assert!(merge_reports(&[]).is_err(), "empty set");
        assert!(
            merge_reports(std::slice::from_ref(&a)).is_err(),
            "incomplete basket"
        );
        assert!(
            merge_reports(&[a.clone(), a.clone()]).is_err(),
            "duplicate entries"
        );
        let mut foreign = b.clone();
        foreign.schema = "stonne-bench-perf/0".into();
        assert!(
            merge_reports(&[a.clone(), foreign]).is_err(),
            "foreign schema"
        );
        let mut unknown = b.clone();
        unknown.entries[0].name = "micro_unknown".into();
        assert!(
            merge_reports(&[a.clone(), unknown]).is_err(),
            "unknown entry"
        );
        assert!(merge_reports(&[a, b]).is_ok());
    }

    #[test]
    fn basket_names_track_the_parallel_flag() {
        let base = PerfConfig {
            reps: 1,
            quick: true,
            parallel: false,
        };
        assert_eq!(basket_names(&base).len(), 7);
        let par = PerfConfig {
            parallel: true,
            ..base
        };
        assert_eq!(basket_names(&par).len(), 9);
        assert!(basket_names(&par).ends_with(&["model_resnet50_uncached_intra"]));
    }

    #[test]
    fn compare_reports_speedups_and_cycle_drift() {
        let mk = |ms: f64, cycles: u64| BenchReport {
            schema: SCHEMA.to_owned(),
            threads: 1,
            peak_rss_kb: 0,
            entries: vec![BenchEntry {
                name: "x".into(),
                reps: 1,
                median_ms: ms,
                min_ms: ms,
                max_ms: ms,
                cycles,
                engine_invocations: 1,
                peak_rss_kb: 0,
                alloc_count: 0,
            }],
        };
        let same = compare(&mk(50.0, 10), &mk(100.0, 10));
        assert!(same.contains("2.00x"), "{same}");
        assert!(!same.contains("DRIFTED"), "{same}");
        let drift = compare(&mk(50.0, 11), &mk(100.0, 10));
        assert!(drift.contains("DRIFTED"), "{drift}");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0);
        }
    }
}
