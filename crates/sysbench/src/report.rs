//! The metric catalogue (names, units, directions, bounds — the same
//! facts `/BENCHMARK.json` states) and the results file.

use crate::inputs::RUN_LIST;
use serde::{Deserialize, Serialize};

/// Schema tag of `results.json`; bump on breaking layout changes.
pub const SCHEMA: &str = "stonne-sysbench/1";

/// The seed `expected.json` pins cycles and MACs for.
pub const DEFAULT_SEED: u64 = 7;

/// Op times a [`WorkloadRun`] keeps verbatim.
pub const KEPT_OP_SAMPLES: usize = 64;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `lower` / `higher`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload: its name and the one-line reason it exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
}

/// The four workloads, in run order.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "model_uncached",
        why: "in-process uncached model runs over R: engines and f32 arithmetic do all the work; layer cache, store and serve do none",
    },
    WorkloadDef {
        name: "model_diskwarm",
        why: "same R from a populated store through a fresh cache: key building, store reads, serde and replay do the work; engines idle",
    },
    WorkloadDef {
        name: "sweep_cold",
        why: "48-point grid POSTed to a fresh stonne-serve on an empty store: params, runner, cache inserts, store writes, queue and JSONL",
    },
    WorkloadDef {
        name: "sweep_resume",
        why: "same grid against a restarted server on the populated store: HTTP parse, job bookkeeping and point-blob reads; engines idle",
    },
];

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before it counts as a regression.
    pub bound: f64,
    /// Whether the driver protocol carries it as an end-to-end metric.
    /// The driver divides by medians, so a metric that is 0 on a healthy
    /// run cannot be one: `failed_share` travels as the protocol's
    /// `failed`/`attempted` and `store_mb` as `store.mb.<workload>`.
    pub in_driver: bool,
}

/// The seven end-to-end metrics every workload reports.
///
/// The two speed bounds are 25 % and the memory bound 15 %, not the 10 %
/// the issue proposed: over four sets of ten runs on the 2-vCPU sandbox
/// the run-to-run spread of `op_s_p50`/`sim_mmacs_per_s` reached 7.1 %
/// and that of `peak_rss_mb` 3.7 % (slow periods of the host lasting
/// minutes; the ops inside one run agree to 1–2 %), and a bound is only
/// usable while the spread stays below a third of it.
pub const END_TO_END: [EndToEndDef; 7] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        in_driver: true,
    },
    EndToEndDef {
        name: "op_s_p50",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        in_driver: true,
    },
    EndToEndDef {
        name: "sim_mmacs_per_s",
        unit: "MMAC/s",
        better: Better::Higher,
        bound: 0.25,
        in_driver: true,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        in_driver: true,
    },
    EndToEndDef {
        name: "store_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.01,
        in_driver: false,
    },
    EndToEndDef {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        in_driver: false,
    },
    EndToEndDef {
        name: "rtl_err_avg_pct",
        unit: "%",
        better: Better::Lower,
        bound: 0.001,
        in_driver: true,
    },
];

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerDef {
    /// Metric name (`layer.what[.where]`).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// Every per-layer metric the traced run prints, in print order.
pub fn per_layer_defs() -> Vec<LayerDef> {
    use Better::{Higher, Lower};
    let mut defs = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        defs.push(LayerDef { name, unit, better });
    };
    add("tensor.gemm_ref_ns_per_mac".into(), "ns/MAC", Lower);
    add("tensor.im2col_ns_per_elem".into(), "ns/elem", Lower);
    add("tensor.csr_build_ns_per_elem".into(), "ns/elem", Lower);
    add("tensor.prune_ns_per_elem".into(), "ns/elem", Lower);
    for what in ["bert", "resnet50", "grid"] {
        add(format!("nn.params_s.{what}"), "s", Lower);
    }
    add("nn.params_ns_per_weight".into(), "ns/weight", Lower);
    for mode in ["uncached", "coldcached", "memwarm", "diskwarm"] {
        for spec in RUN_LIST {
            add(format!("nn.{mode}_s.{}", spec.label), "s", Lower);
        }
    }
    add("nn.wave_parallel_s.bert_maeri".into(), "s", Lower);
    for engine in ["systolic", "flexible_ws", "flexible_os", "sparse"] {
        add(format!("engine.{engine}_ns_per_mac"), "ns/MAC", Lower);
    }
    add("engine.pool_ns_per_elem".into(), "ns/elem", Lower);
    add("engine.invocations.model_uncached".into(), "count", Lower);
    add(
        "engine.tile_hit_ratio.model_uncached".into(),
        "ratio",
        Higher,
    );
    add("context.tile_off_s.resnet50_tpu".into(), "s", Lower);
    add("cache.replay_ns_per_mac.bert_maeri".into(), "ns/MAC", Lower);
    add("cache.hit_ratio.model_diskwarm".into(), "ratio", Higher);
    add("cache.hit_ratio.sweep_cold".into(), "ratio", Higher);
    add("store.put_us_p50".into(), "us", Lower);
    add("store.get_us_p50".into(), "us", Lower);
    add("store.open_s".into(), "s", Lower);
    add("store.files.sweep_cold".into(), "count", Lower);
    add("store.tile_files.sweep_cold".into(), "count", Lower);
    add("store.files_per_point".into(), "count", Lower);
    add("store.writes.sweep_cold".into(), "count", Lower);
    add("store.hits.model_diskwarm".into(), "count", Lower);
    add("store.mb.model_diskwarm".into(), "MB", Lower);
    add("store.mb.sweep_cold".into(), "MB", Lower);
    add("serve.healthz_us_p50".into(), "us", Lower);
    add("serve.healthz_us_p99".into(), "us", Lower);
    add("serve.submit_ms_p50".into(), "ms", Lower);
    add("serve.first_result_s".into(), "s", Lower);
    add("serve.point_gap_ms_p50".into(), "ms", Lower);
    add("serve.point_gap_ms_p99".into(), "ms", Lower);
    add("serve.resume_op_ms_p99".into(), "ms", Lower);
    add("serve.rss_kb_per_job".into(), "kB", Lower);
    add("serve.nostore_sweep_s".into(), "s", Lower);
    for workload in WORKLOADS {
        add(format!("trace.overhead_pct.{}", workload.name), "%", Lower);
    }
    defs
}

/// The text of `/BENCHMARK.json`: the contract the driver checks, built
/// from the catalogue above so the two cannot drift (a test compares it
/// with the committed file).
pub fn benchmark_json(run_seconds: u64) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .filter(|d| d.in_driver)
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {:?}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                d.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = per_layer_defs()
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"crates/sysbench/run.sh\"],\n  \"paths\": [\"crates/sysbench\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// One measured value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured, all digits.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// A metric value.
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Self {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        }
    }
}

/// One run of one workload (or one traced run).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadRun {
    /// Workload name.
    pub workload: String,
    /// Whether this is the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub traced: bool,
    /// Input seed.
    pub seed: u64,
    /// Ops attempted in the timed region.
    pub attempted: u64,
    /// Ops that errored, timed out or failed an output check.
    pub failed: u64,
    /// Σ simulated cycles of one op (the behaviour checksum
    /// `expected.json` pins at the default seed).
    pub sum_cycles: u64,
    /// Σ simulated MACs of one op.
    pub sum_macs: u64,
    /// The highest percentile of the op times that `attempted` samples
    /// support (0 below 20 samples) …
    pub op_s_high_pct: f64,
    /// … and its value in seconds.
    pub op_s_high: f64,
    /// The first [`KEPT_OP_SAMPLES`] op times in seconds, in run order,
    /// for reading drift and outliers off a results file.
    pub op_s: Vec<f64>,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Why ops failed (first few reasons), empty on a clean run.
    pub failures: Vec<String>,
}

impl WorkloadRun {
    /// Whether every op passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The driver protocol's result line: exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, the latter holding the
    /// metrics `keep` selects.
    pub fn driver_line(&self, keep: impl Fn(&str) -> bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| keep(&m.name))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit (`{:?}` keeps a fraction or an
/// exponent, so the text reads back as the same `f64`).
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metrics are finite");
    format!("{v:?}")
}

/// Where and how a results file was measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Header {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// `real` or `stub`: which serde/serde_json the binaries were built
    /// against (run.sh knows; `unknown` when run by hand). Stub and real
    /// serde cost differently, so runs that differ here do not compare.
    pub deps: String,
    /// `std::thread::available_parallelism`.
    pub nproc: u64,
    /// Filesystem type under the store root.
    pub store_fs: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a repository.
    pub commit: String,
    /// The build's `code_fingerprint()`.
    pub fingerprint: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds each workload measured for.
    pub seconds: f64,
    /// Model scale (`reduced`, or `tiny` for the smoke run).
    pub scale: String,
}

/// `results.json`: a header and any number of runs per workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultsFile {
    /// Provenance.
    pub header: Header,
    /// The runs, in the order they were made.
    pub runs: Vec<WorkloadRun>,
}

impl ResultsFile {
    /// Pretty JSON.
    ///
    /// # Panics
    ///
    /// Never panics in practice (all fields are serializable).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("results serialize")
    }

    /// Parses a file written by [`ResultsFile::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not a results file of this
    /// schema.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let file: ResultsFile = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if file.header.schema != SCHEMA {
            return Err(format!(
                "schema {:?} (expected {SCHEMA:?})",
                file.header.schema
            ));
        }
        Ok(file)
    }
}

/// `expected.json`: the simulated work of one op of each workload at
/// [`DEFAULT_SEED`] and Reduced scale. Wall-clock may move; these may
/// not.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Expected {
    /// The seed the sums were taken at.
    pub seed: u64,
    /// One entry per workload.
    pub workloads: Vec<ExpectedSums>,
}

/// The pinned sums of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpectedSums {
    /// Workload name.
    pub name: String,
    /// Σ simulated cycles of one op.
    pub sum_cycles: u64,
    /// Σ simulated MACs of one op.
    pub sum_macs: u64,
}

impl Expected {
    /// The committed pins (compiled in, so the check cannot lose its
    /// file).
    ///
    /// # Panics
    ///
    /// Panics when `expected.json` is not valid (a build-time fact).
    pub fn committed() -> Self {
        serde_json::from_str(include_str!("../expected.json")).expect("expected.json parses")
    }

    /// The pinned sums of `workload`.
    pub fn sums(&self, workload: &str) -> Option<(u64, u64)> {
        self.workloads
            .iter()
            .find(|w| w.name == workload)
            .map(|w| (w.sum_cycles, w.sum_macs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> WorkloadRun {
        WorkloadRun {
            workload: "sweep_cold".into(),
            traced: false,
            seed: 7,
            attempted: 3,
            failed: 0,
            sum_cycles: 18_446_744_073_709_551_000,
            sum_macs: 3_098_947_652,
            op_s_high_pct: 0.0,
            op_s_high: 0.0,
            op_s: vec![9.1, 9.123456789, 9.2],
            metrics: vec![
                Metric::new("setup_s", 0.8127, "s"),
                Metric::new("op_s_p50", 9.123456789, "s"),
                Metric::new("failed_share", 0.0, "ratio"),
            ],
            failures: vec![],
        }
    }

    #[test]
    fn results_file_round_trips_through_json() {
        let file = ResultsFile {
            header: Header {
                schema: SCHEMA.into(),
                deps: "stub".into(),
                nproc: 2,
                store_fs: "ext4".into(),
                rustc: "rustc 1.95.0".into(),
                commit: "unknown".into(),
                fingerprint: "v0.1.0-abc".into(),
                seed: 7,
                seconds: 12.0,
                scale: "reduced".into(),
            },
            runs: vec![run(), run()],
        };
        let back = ResultsFile::from_json(&file.to_json()).unwrap();
        assert_eq!(back, file);
        assert_eq!(back.runs[0].metric("op_s_p50"), Some(9.123456789));
        let mut other = file.clone();
        other.header.schema = "stonne-sysbench/0".into();
        assert!(ResultsFile::from_json(&other.to_json()).is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_protocol_keys() {
        let line = run().driver_line(|name| name != "failed_share");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"op_s_p50\": {\"value\": 9.123456789, \"unit\": \"s\"}}}"
        );
        let mut failed = run();
        failed.failed = 3;
        assert!(failed
            .driver_line(|_| false)
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn catalogue_names_are_unique_and_within_the_contract() {
        let layer = per_layer_defs();
        assert_eq!(layer.len(), 55);
        let mut names: Vec<&str> = layer.iter().map(|d| d.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|d| d.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
    }

    #[test]
    fn committed_pins_cover_every_workload() {
        let expected = Expected::committed();
        assert_eq!(expected.seed, DEFAULT_SEED);
        for w in WORKLOADS {
            assert!(expected.sums(w.name).is_some(), "{}", w.name);
        }
    }
}
