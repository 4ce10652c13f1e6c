//! The four workloads. All are closed loops with one client: the next
//! op starts when the previous one has completed and been checked.
//!
//! | name | one op | what does the work |
//! |---|---|---|
//! | `model_uncached` | one pass over R, in-process, `uncached()` | engines + functional arithmetic |
//! | `model_diskwarm` | one pass over R, fresh cache over a populated store | key building, store reads, serde, replay |
//! | `sweep_cold` | grid G against a fresh server on an empty store | the whole serving pipeline, store writes |
//! | `sweep_resume` | grid G against a restarted server on a populated store | HTTP, job bookkeeping, point-blob reads |
//!
//! Every op is checked (see `README.md`, "Output checks"); a failed check
//! fails the op.

use crate::api_surface as sim;
use crate::http::Client;
use crate::inputs::{grid, Grid, RUN_LIST};
use crate::server::{proc_status_kb, ServerGuard};
use crate::span::{Recorder, SpanId};
use crate::stats::median;
use crate::storefs::{StoreDir, Usage};
use serde::Deserialize;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

/// What a workload needs to know about its surroundings.
#[derive(Debug, Clone)]
pub struct Env {
    /// Seed of every generated weight and input.
    pub seed: u64,
    /// Model scale.
    pub scale: sim::Scale,
    /// Directory the harness creates store directories under.
    pub store_root: PathBuf,
    /// The `stonne-serve` binary.
    pub serve_bin: PathBuf,
}

/// When a workload's op loop stops. At least one op always runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// No new op starts once the loop has run for this many seconds.
    Seconds(f64),
    /// Exactly this many ops.
    Ops(usize),
}

/// How a workload is to be run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// When to stop.
    pub limit: Limit,
    /// Traced run: set-up and every even op record spans; odd ops run
    /// with the recorder off, which is what the tracing overhead is
    /// measured against.
    pub trace: bool,
}

impl Plan {
    /// Whether another op starts, `done` ops and `elapsed` wall seconds
    /// into the loop. Wall-clock, not summed op time, so that a loop of
    /// instantly failing ops ends too.
    fn go_on(&self, done: usize, elapsed: f64) -> bool {
        done == 0
            || match self.limit {
                Limit::Seconds(s) => elapsed < s,
                Limit::Ops(n) => done < n,
            }
    }

    fn traced(&self, op: usize) -> bool {
        self.trace && op % 2 == 0
    }
}

/// Ops a `sweep_resume` run stops at regardless of the time limit: each
/// op is two connections, and the client's ephemeral ports are finite.
const MAX_RESUME_OPS: usize = 10_000;

/// The `sweep_resume` op after which the server's peak RSS is read: the
/// server keeps every job it ever ran, so memory grows with the number
/// of requests, and a time-boxed loop must not turn a faster server into
/// a bigger one.
const RESUME_RSS_OP: usize = 1_000;

/// Named series of timing samples, in first-seen order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples(Vec<(String, Vec<f64>)>);

impl Samples {
    /// Appends one sample to the series `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some((_, series)) => series.push(value),
            None => self.0.push((name.to_owned(), vec![value])),
        }
    }

    /// The series `name` (empty when nothing was recorded).
    pub fn get(&self, name: &str) -> &[f64] {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[], |(_, series)| series)
    }

    /// Median of the series `name`.
    ///
    /// # Panics
    ///
    /// Panics when the series is empty.
    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }
}

/// One timed op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSample {
    /// Wall seconds of the op's timed region.
    pub seconds: f64,
    /// Whether spans were recorded during it.
    pub traced: bool,
    /// Whether it completed and passed every check.
    pub ok: bool,
}

/// Everything a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Untimed preparation, in seconds.
    pub setup_s: f64,
    /// The timed ops, in order.
    pub ops: Vec<OpSample>,
    /// Σ multiplications of every result delivered by a timed op.
    pub macs_delivered: u64,
    /// Σ simulated cycles of one op.
    pub sum_cycles: u64,
    /// Σ simulated MACs of one op.
    pub sum_macs: u64,
    /// Peak RSS (KiB) of the process that simulates.
    pub peak_rss_kb: u64,
    /// What one op's store holds at the end of its life.
    pub store: Usage,
    /// Why ops failed (first few reasons).
    pub failures: Vec<String>,
    /// Sub-timings by name, for the per-layer metrics.
    pub samples: Samples,
    /// Exact counts by name, for the per-layer metrics.
    pub counts: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn note(&mut self, why: String) {
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    /// Records one finished op; `problem` is why it failed, if it did.
    fn op(&mut self, seconds: f64, traced: bool, problem: Option<String>) {
        self.ops.push(OpSample {
            seconds,
            traced,
            ok: problem.is_none(),
        });
        if let Some(why) = problem {
            self.note(format!("op {}: {why}", self.ops.len() - 1));
        }
    }

    /// Fails every op: a check on the whole run did not hold.
    pub fn fail_all(&mut self, why: String) {
        self.ops.iter_mut().for_each(|op| op.ok = false);
        self.note(why);
    }

    /// Wall seconds of the timed region.
    pub fn timed_s(&self) -> f64 {
        self.ops.iter().map(|op| op.seconds).sum()
    }

    /// Op durations, optionally only the traced or the untraced ones.
    pub fn op_seconds(&self, traced: Option<bool>) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|op| traced.is_none_or(|t| op.traced == t))
            .map(|op| op.seconds)
            .collect()
    }

    /// A named exact count.
    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Runs `f` inside a span; returns its result and its wall seconds.
fn timed<T>(
    rec: &mut Recorder,
    name: &str,
    parent: SpanId,
    op: u32,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let span = rec.begin(name, parent, op);
    let start = Instant::now();
    let out = f();
    let seconds = start.elapsed().as_secs_f64();
    rec.end(span);
    (out, seconds)
}

// ---------------------------------------------------------------- models

/// One point of the run list with its generated inputs.
#[derive(Debug, Clone)]
pub struct RunPoint {
    /// Short name used in metric names.
    pub label: &'static str,
    /// The model graph.
    pub model: Rc<sim::Model>,
    /// Weights at the model's Table I sparsity.
    pub params: Rc<sim::Params>,
    /// The input sample.
    pub input: Rc<sim::Input>,
    /// The accelerator.
    pub config: sim::Config,
}

/// The generated inputs of run list R.
#[derive(Debug, Clone)]
pub struct ModelInputs {
    /// The points, in run order.
    pub points: Vec<RunPoint>,
    /// Wall seconds the preparation took (part of `setup_s`).
    pub prepare_s: f64,
    /// `params.<model>`: seconds of each model's weight generation.
    pub samples: Samples,
    /// Weights generated, zeros included.
    pub weights: u64,
}

/// Builds the models of R and generates their weights (seed `S`) and
/// input samples (seed `S ^ 1`, the serve convention).
pub fn prepare_models(env: &Env, rec: &mut Recorder) -> ModelInputs {
    let start = Instant::now();
    let root = rec.begin("prepare R", SpanId::NONE, 0);
    let mut samples = Samples::default();
    let mut weights = 0;
    let mut points: Vec<RunPoint> = Vec::new();
    for spec in RUN_LIST {
        let config = sim::arch_config(spec.arch.arch, spec.arch.ms, spec.arch.bw);
        // ResNet-50 runs on two accelerators off one set of weights.
        let first_use = RUN_LIST.iter().position(|s| s.model == spec.model);
        if let Some(earlier) = first_use.and_then(|index| points.get(index)) {
            let shared = RunPoint {
                label: spec.label,
                config,
                ..earlier.clone()
            };
            points.push(shared);
            continue;
        }
        // Series are keyed by the measured model's name; the smoke run
        // generates a light stand-in under it.
        let name = spec.model_at(env.scale);
        let (model, _) = timed(rec, &format!("zoo::build/{name}"), root, 0, || {
            sim::build_model(name, env.scale)
        });
        let (params, seconds) = timed(
            rec,
            &format!("ModelParams::generate_with_sparsity/{name}"),
            root,
            0,
            || sim::generate_params(&model, env.seed, sim::table_sparsity(&model)),
        );
        samples.push(&format!("params.{}", spec.model), seconds);
        weights += sim::weight_count(&model, &params);
        let (input, _) = timed(rec, &format!("generate_input/{name}"), root, 0, || {
            sim::generate_model_input(&model, env.seed ^ 1)
        });
        points.push(RunPoint {
            label: spec.label,
            model: Rc::new(model),
            params: Rc::new(params),
            input: Rc::new(input),
            config,
        });
    }
    rec.end(root);
    ModelInputs {
        points,
        prepare_s: start.elapsed().as_secs_f64(),
        samples,
        weights,
    }
}

fn run_point(point: &RunPoint, reuse: sim::Reuse) -> sim::RunDigest {
    sim::run_model(
        &point.model,
        &point.params,
        &point.input,
        &point.config,
        reuse,
    )
}

/// One uncached pass over R: the reference every other pass must equal.
fn reference_pass(inputs: &ModelInputs, rec: &mut Recorder, parent: SpanId) -> Vec<sim::RunDigest> {
    inputs
        .points
        .iter()
        .map(|point| {
            let name = format!("run_model_simulated_with/{} (reference)", point.label);
            timed(rec, &name, parent, 0, || {
                run_point(point, sim::Reuse::Uncached)
            })
            .0
        })
        .collect()
}

fn own_peak_rss_kb() -> u64 {
    proc_status_kb("self", "VmHWM:")
}

/// `model_uncached`: serial uncached passes over R.
pub fn model_uncached(inputs: &ModelInputs, plan: Plan, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    rec.set_enabled(plan.trace);
    let setup = rec.begin("setup model_uncached", SpanId::NONE, 0);
    // Pass 0 is untimed: it warms the allocator and page tables and is
    // the reference every timed pass must reproduce.
    let reference = reference_pass(inputs, rec, setup);
    rec.end(setup);
    out.setup_s = inputs.prepare_s + start.elapsed().as_secs_f64();
    out.sum_cycles = reference.iter().map(|d| d.cycles).sum();
    out.sum_macs = reference.iter().map(|d| d.macs).sum();
    let sum = |f: fn(&sim::RunDigest) -> u64| reference.iter().map(f).sum::<u64>() as f64;
    out.counts = vec![
        ("engine_invocations", sum(|d| d.engine_invocations)),
        ("tile_hits", sum(|d| d.tile_hits)),
        ("tile_misses", sum(|d| d.tile_misses)),
    ];

    let loop_start = Instant::now();
    while plan.go_on(out.ops.len(), loop_start.elapsed().as_secs_f64()) {
        let op = out.ops.len();
        rec.set_enabled(plan.traced(op));
        let span = rec.begin("op model_uncached", SpanId::NONE, op as u32 + 1);
        let op_start = Instant::now();
        let mut problem = None;
        for (point, expected) in inputs.points.iter().zip(&reference) {
            let name = format!("run_model_simulated_with/{}", point.label);
            let (digest, seconds) = timed(rec, &name, span, op as u32 + 1, || {
                run_point(point, sim::Reuse::Uncached)
            });
            out.samples.push(&format!("run.{}", point.label), seconds);
            out.macs_delivered += digest.macs;
            if digest.checksum() != expected.checksum() {
                problem = Some(format!("{} differs from pass 0", point.label));
            }
        }
        let seconds = op_start.elapsed().as_secs_f64();
        rec.end(span);
        out.op(seconds, plan.traced(op), problem);
    }
    out.peak_rss_kb = own_peak_rss_kb();
    out
}

/// `model_diskwarm`: passes over R where every run gets a fresh cache
/// over a store that one untimed populate pass filled.
///
/// # Errors
///
/// Returns a message when the store directory cannot be created.
pub fn model_diskwarm(
    env: &Env,
    inputs: &ModelInputs,
    plan: Plan,
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let start = Instant::now();
    rec.set_enabled(plan.trace);
    let setup = rec.begin("setup model_diskwarm", SpanId::NONE, 0);
    let reference = reference_pass(inputs, rec, setup);
    let dir = StoreDir::create(&env.store_root).map_err(|e| format!("store dir: {e}"))?;
    let open = |rec: &mut Recorder, parent: SpanId, op: u32| {
        timed(rec, "DiskStore::open", parent, op, || {
            sim::Store::open(dir.path())
        })
    };
    let mut populate_problem = None;
    for (point, expected) in inputs.points.iter().zip(&reference) {
        let store = open(rec, setup, 0)
            .0
            .map_err(|e| format!("open store: {e}"))?;
        let name = format!("run_model_simulated_with/{} (populate)", point.label);
        let (digest, _) = timed(rec, &name, setup, 0, || {
            run_point(
                point,
                sim::Reuse::Cached(sim::LayerCache::backed_by(&store)),
            )
        });
        if digest.checksum() != expected.checksum() || store.activity().writes == 0 {
            populate_problem = Some(format!("populate of {} went wrong", point.label));
        }
    }
    let populated = dir.usage();
    rec.end(setup);
    out.setup_s = inputs.prepare_s + start.elapsed().as_secs_f64();
    out.sum_cycles = reference.iter().map(|d| d.cycles).sum();
    out.sum_macs = reference.iter().map(|d| d.macs).sum();
    out.store = populated;

    let (mut hits, mut lookups) = (0, 0);
    let loop_start = Instant::now();
    while plan.go_on(out.ops.len(), loop_start.elapsed().as_secs_f64()) {
        let op = out.ops.len();
        rec.set_enabled(plan.traced(op));
        let span = rec.begin("op model_diskwarm", SpanId::NONE, op as u32 + 1);
        let op_start = Instant::now();
        let mut problem = None;
        for (point, expected) in inputs.points.iter().zip(&reference) {
            let (store, seconds) = open(rec, span, op as u32 + 1);
            out.samples.push("open", seconds);
            let store = store.map_err(|e| format!("open store: {e}"))?;
            let name = format!("run_model_simulated_with/{}", point.label);
            let (digest, seconds) = timed(rec, &name, span, op as u32 + 1, || {
                run_point(
                    point,
                    sim::Reuse::Cached(sim::LayerCache::backed_by(&store)),
                )
            });
            out.samples.push(&format!("run.{}", point.label), seconds);
            out.macs_delivered += digest.macs;
            let activity = store.activity();
            hits += activity.hits;
            lookups += activity.hits + activity.misses;
            // Equal to the *uncached* run bit for bit, with the engines
            // idle and nothing written: every layer came off the disk.
            if digest.checksum() != expected.checksum() {
                problem = Some(format!("{} differs from the uncached run", point.label));
            } else if digest.engine_invocations != 0
                || activity.hits == 0
                || activity.misses != 0
                || activity.writes != 0
            {
                problem = Some(format!(
                    "{} was not served from disk ({} engine runs, {activity:?})",
                    point.label, digest.engine_invocations
                ));
            }
        }
        let seconds = op_start.elapsed().as_secs_f64();
        rec.end(span);
        out.op(seconds, plan.traced(op), problem);
    }
    out.counts = vec![
        ("store_hits_per_op", hits as f64 / out.ops.len() as f64),
        ("store_hit_ratio", hits as f64 / lookups.max(1) as f64),
    ];
    if let Some(why) = populate_problem {
        out.fail_all(why);
    }
    let after = dir.usage();
    if after != populated {
        out.fail_all(format!(
            "warm passes changed the store: {populated:?} -> {after:?}"
        ));
    }
    out.peak_rss_kb = own_peak_rss_kb();
    Ok(out)
}

// ---------------------------------------------------------------- sweeps

#[derive(Debug, Deserialize)]
struct Submitted {
    job: String,
    points: usize,
}

#[derive(Debug, Deserialize)]
struct StatusEnvelope {
    status: JobStatus,
}

/// The fields of the job-status wire JSON the harness reads.
#[derive(Debug, Clone, Deserialize)]
struct JobStatus {
    /// `running` or `done`.
    state: String,
    /// Points completed successfully.
    completed: usize,
    /// Points that failed.
    failed: usize,
    /// Engine and layer-cache activity of the job.
    counters: JobCounters,
    /// Store activity of the job.
    store: StoreCounters,
}

/// `counters` of the job-status wire JSON.
#[derive(Debug, Clone, Copy, Deserialize)]
struct JobCounters {
    /// Cycle-level engine runs executed.
    engine_invocations: u64,
    /// In-memory layer-cache hits.
    sim_cache_hits: u64,
    /// In-memory layer-cache misses.
    sim_cache_misses: u64,
    /// Points restored whole from the store.
    resumed: u64,
}

/// `store` of the job-status wire JSON.
#[derive(Debug, Clone, Copy, Deserialize)]
struct StoreCounters {
    /// Entries written.
    writes: u64,
}

#[derive(Debug, Deserialize)]
struct ResultLine {
    point: ResultPoint,
    cycles: u64,
    multiplications: u64,
}

#[derive(Debug, Deserialize)]
struct ResultPoint {
    index: usize,
}

/// One served sweep, as seen from the client.
#[derive(Debug, Clone)]
struct Sweep {
    /// First request byte → last JSONL byte.
    seconds: f64,
    /// POST → 202.
    submit_s: f64,
    /// POST → first result line.
    first_line_s: f64,
    /// Gaps between successive result lines.
    line_gaps_s: Vec<f64>,
    job: String,
    body: Vec<u8>,
    /// `(cycles, multiplications)` of every line, in index order.
    points: Vec<(u64, u64)>,
}

impl Sweep {
    fn sum_cycles(&self) -> u64 {
        self.points.iter().map(|p| p.0).sum()
    }

    fn sum_macs(&self) -> u64 {
        self.points.iter().map(|p| p.1).sum()
    }
}

/// Submits a grid request that expands to `expected_points` points and
/// streams its results to EOF.
fn sweep(
    client: Client,
    request: &str,
    expected_points: usize,
    rec: &mut Recorder,
    parent: SpanId,
    op: u32,
) -> Result<Sweep, String> {
    let start = Instant::now();
    let (response, submit_s) = timed(rec, "POST /v1/sweeps -> 202", parent, op, || {
        client.request("POST", "/v1/sweeps", request)
    });
    let response = response.map_err(|e| format!("POST /v1/sweeps: {e}"))?;
    if response.status != 202 {
        return Err(format!("POST /v1/sweeps: HTTP {}", response.status));
    }
    let submitted: Submitted =
        serde_json::from_str(&response.text()).map_err(|e| format!("202 body: {e}"))?;
    if submitted.points != expected_points {
        return Err(format!("server expanded {} points", submitted.points));
    }
    let stream = rec.begin("GET results -> EOF", parent, op);
    let stream_start = Instant::now();
    let mut arrivals = Vec::with_capacity(expected_points);
    let response = client
        .get_lines(&format!("/v1/jobs/{}/results", submitted.job), |at| {
            arrivals.push(at);
        })
        .map_err(|e| format!("GET results: {e}"));
    let seconds = start.elapsed().as_secs_f64();
    rec.end(stream);
    let response = response?;
    if response.status != 200 {
        return Err(format!("GET results: HTTP {}", response.status));
    }
    let mut previous = stream_start;
    for (i, at) in arrivals.iter().enumerate() {
        let name = if i == 0 {
            "-> first line"
        } else {
            "-> next line"
        };
        rec.push(name, stream, op, previous, *at);
        previous = *at;
    }
    let mut points = Vec::with_capacity(expected_points);
    for (i, line) in response.text().lines().enumerate() {
        let line: ResultLine =
            serde_json::from_str(line).map_err(|e| format!("result line {i}: {e}"))?;
        if line.point.index != i || line.cycles == 0 {
            return Err(format!("result line {i} is out of order or empty"));
        }
        points.push((line.cycles, line.multiplications));
    }
    if points.len() != expected_points || arrivals.len() != expected_points {
        return Err(format!("{} result lines", points.len()));
    }
    Ok(Sweep {
        seconds,
        submit_s,
        first_line_s: arrivals[0].duration_since(start).as_secs_f64(),
        line_gaps_s: arrivals
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64())
            .collect(),
        job: submitted.job,
        body: response.body,
        points,
    })
}

/// Reads one job's status.
fn job_status(client: Client, job: &str) -> Result<JobStatus, String> {
    let response = client
        .request("GET", &format!("/v1/jobs/{job}"), "")
        .map_err(|e| format!("GET job: {e}"))?;
    if response.status != 200 {
        return Err(format!("GET job: HTTP {}", response.status));
    }
    serde_json::from_str::<StatusEnvelope>(&response.text())
        .map(|envelope| envelope.status)
        .map_err(|e| format!("job status: {e}"))
}

/// The job finished with every point delivered and none failed.
fn check_finished(status: &JobStatus, points: usize) -> Result<(), String> {
    if status.state == "done" && status.failed == 0 && status.completed == points {
        Ok(())
    } else {
        Err(format!(
            "job is {} with {} completed, {} failed",
            status.state, status.completed, status.failed
        ))
    }
}

/// Grid points simulated in-process in set-up and compared with the
/// served lines: a sweep's cycles must equal an uncached run of the same
/// generated inputs, not merely repeat themselves.
fn sampled_reference(
    env: &Env,
    grid: &Grid,
    rec: &mut Recorder,
    parent: SpanId,
) -> Vec<(usize, (u64, u64))> {
    // In G: squeezenet on sigma at 0.5 and mobilenet on maeri:128:64 at
    // 0.8 — one sparse-engine and one dense-engine point. Fixed, so that
    // set-up costs the same whatever the seed.
    let picks = [19 % grid.points(), 29 % grid.points()];
    picks
        .iter()
        .map(|&index| {
            let point = grid.point(index);
            let (digest, _) = timed(rec, "in-process reference point", parent, 0, || {
                let model = sim::build_model(point.model, env.scale);
                let params = sim::generate_params(&model, env.seed, point.sparsity);
                let input = sim::generate_model_input(&model, env.seed ^ 1);
                let config = sim::arch_config(point.arch.arch, point.arch.ms, point.arch.bw);
                sim::run_model(&model, &params, &input, &config, sim::Reuse::Uncached)
            });
            (index, (digest.cycles, digest.macs))
        })
        .collect()
}

/// A populated store and the result bytes of the sweep that filled it.
#[derive(Debug)]
pub struct PopulatedStore {
    /// The store directory.
    pub dir: StoreDir,
    /// The populate sweep's JSONL bytes.
    pub body: Vec<u8>,
    /// Σ cycles of the populate sweep.
    pub sum_cycles: u64,
    /// Σ MACs of the populate sweep.
    pub sum_macs: u64,
}

/// `sweep_cold`: every op is a fresh server process on an empty store
/// (or on no store at all, for the `serve.nostore_sweep_s` probe).
/// Returns the last op's store when `keep_store` is set.
///
/// # Errors
///
/// Returns a message when a store directory cannot be created or a
/// server does not come up — the harness cannot measure, as opposed to
/// an op that fails.
pub fn sweep_cold(
    env: &Env,
    plan: Plan,
    with_store: bool,
    keep_store: bool,
    rec: &mut Recorder,
) -> Result<(Outcome, Option<PopulatedStore>), String> {
    let mut out = Outcome::default();
    let grid = grid(env.scale);
    let request = grid.request(env.scale, env.seed);
    let start = Instant::now();
    rec.set_enabled(plan.trace);
    let setup = rec.begin("setup sweep_cold", SpanId::NONE, 0);
    let reference = sampled_reference(env, grid, rec, setup);
    rec.end(setup);
    let once_s = start.elapsed().as_secs_f64();

    let mut first: Option<(Vec<u8>, Usage)> = None;
    let mut kept = None;
    let mut rss = Vec::new();
    let loop_start = Instant::now();
    while plan.go_on(out.ops.len(), loop_start.elapsed().as_secs_f64()) {
        let op = out.ops.len();
        let id = op as u32 + 1;
        rec.set_enabled(plan.traced(op));
        let span = rec.begin("op sweep_cold", SpanId::NONE, id);
        let dir = StoreDir::create(&env.store_root).map_err(|e| format!("store dir: {e}"))?;
        let (server, seconds) = timed(rec, "spawn stonne-serve -> /healthz", span, id, || {
            ServerGuard::spawn(&env.serve_bin, with_store.then_some(dir.path()))
        });
        let server = server?;
        out.samples.push("spawn", seconds);

        let sweep_start = Instant::now();
        let result = sweep(server.client(), &request, grid.points(), rec, span, id);
        rec.end(span);
        let sweep = match result {
            Ok(sweep) => sweep,
            Err(why) => {
                let seconds = sweep_start.elapsed().as_secs_f64();
                out.op(seconds, plan.traced(op), Some(why));
                continue;
            }
        };
        out.macs_delivered += sweep.sum_macs();
        out.samples.push("submit", sweep.submit_s);
        out.samples.push("first_line", sweep.first_line_s);
        for gap in &sweep.line_gaps_s {
            out.samples.push("line_gap", *gap);
        }
        rss.push(server.peak_rss_kb() as f64);
        let usage = dir.usage();

        let status = job_status(server.client(), &sweep.job);
        let mut problem = match &status {
            Err(why) => Some(why.clone()),
            Ok(status) => check_finished(status, grid.points()).err().or_else(|| {
                let idle = status.counters.engine_invocations == 0
                    || with_store && status.store.writes == 0;
                idle.then(|| "a cold sweep ran no engine or wrote nothing".to_owned())
            }),
        };
        for (index, expected) in &reference {
            if sweep.points[*index] != *expected {
                problem = Some(format!("point {index} differs from the in-process run"));
            }
        }
        match &first {
            None => {
                out.sum_cycles = sweep.sum_cycles();
                out.sum_macs = sweep.sum_macs();
                out.store = usage;
                if let Ok(status) = &status {
                    let lookups = status.counters.sim_cache_hits + status.counters.sim_cache_misses;
                    out.counts = vec![
                        ("store_writes", status.store.writes as f64),
                        (
                            "cache_hit_ratio",
                            status.counters.sim_cache_hits as f64 / lookups.max(1) as f64,
                        ),
                    ];
                }
                first = Some((sweep.body.clone(), usage));
            }
            Some((body, first_usage)) => {
                if sweep.body != *body {
                    problem = Some("result bytes differ from pass 0".to_owned());
                } else if usage != *first_usage {
                    problem = Some(format!("store differs from pass 0: {usage:?}"));
                }
            }
        }
        out.op(sweep.seconds, plan.traced(op), problem);
        drop(server);
        if keep_store {
            kept = Some(PopulatedStore {
                dir,
                body: sweep.body,
                sum_cycles: out.sum_cycles,
                sum_macs: out.sum_macs,
            });
        }
    }
    out.setup_s = once_s + median(out.samples.get("spawn"));
    out.peak_rss_kb = if rss.is_empty() {
        0
    } else {
        median(&rss) as u64
    };
    Ok((out, kept))
}

/// `sweep_resume`: identical grid requests against a server restarted on
/// a populated store (`populated`, or one untimed sweep's worth).
///
/// # Errors
///
/// Returns a message when the store cannot be populated or a server does
/// not come up.
pub fn sweep_resume(
    env: &Env,
    plan: Plan,
    populated: Option<PopulatedStore>,
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let grid = grid(env.scale);
    let request = grid.request(env.scale, env.seed);
    let start = Instant::now();
    rec.set_enabled(plan.trace);
    let setup = rec.begin("setup sweep_resume", SpanId::NONE, 0);
    let populated = match populated {
        Some(populated) => populated,
        None => {
            let dir = StoreDir::create(&env.store_root).map_err(|e| format!("store dir: {e}"))?;
            let server = timed(rec, "spawn stonne-serve -> /healthz", setup, 0, || {
                ServerGuard::spawn(&env.serve_bin, Some(dir.path()))
            })
            .0?;
            let span = rec.begin("populate sweep", setup, 0);
            let sweep = sweep(server.client(), &request, grid.points(), rec, span, 0)?;
            rec.end(span);
            check_finished(&job_status(server.client(), &sweep.job)?, grid.points())?;
            PopulatedStore {
                dir,
                sum_cycles: sweep.sum_cycles(),
                sum_macs: sweep.sum_macs(),
                body: sweep.body,
            }
        }
    };
    let before = populated.dir.usage();
    // The restart: a new process that has only the store to go by.
    let (server, seconds) = timed(rec, "restart stonne-serve -> /healthz", setup, 0, || {
        ServerGuard::spawn(&env.serve_bin, Some(populated.dir.path()))
    });
    let server = server?;
    out.samples.push("restart", seconds);
    rec.end(setup);
    out.setup_s = start.elapsed().as_secs_f64();
    out.sum_cycles = populated.sum_cycles;
    out.sum_macs = populated.sum_macs;
    out.store = before;

    let rss_before = server.rss_kb();
    let mut last_job = None;
    let loop_start = Instant::now();
    while plan.go_on(out.ops.len(), loop_start.elapsed().as_secs_f64())
        && out.ops.len() < MAX_RESUME_OPS
    {
        let op = out.ops.len();
        let id = op as u32 + 1;
        rec.set_enabled(plan.traced(op));
        let span = rec.begin("op sweep_resume", SpanId::NONE, id);
        let sweep_start = Instant::now();
        let result = sweep(server.client(), &request, grid.points(), rec, span, id);
        rec.end(span);
        match result {
            Ok(sweep) => {
                out.macs_delivered += sweep.sum_macs();
                out.samples.push("submit", sweep.submit_s);
                let problem = (sweep.body != populated.body)
                    .then(|| "result bytes differ from the populate sweep".to_owned());
                out.op(sweep.seconds, plan.traced(op), problem);
                last_job = Some(sweep.job);
            }
            Err(why) => {
                let seconds = sweep_start.elapsed().as_secs_f64();
                out.op(seconds, plan.traced(op), Some(why));
            }
        }
        if out.ops.len() == RESUME_RSS_OP {
            out.peak_rss_kb = server.peak_rss_kb();
        }
    }
    if out.ops.len() < RESUME_RSS_OP {
        out.peak_rss_kb = server.peak_rss_kb();
    }
    let grown = server.rss_kb().saturating_sub(rss_before);
    out.counts = vec![("rss_kb_per_job", grown as f64 / out.ops.len() as f64)];

    // The last job speaks for all: no point failed, no engine ran, every
    // point came back whole from the store — and nothing was written.
    let verdict = match &last_job {
        Some(job) => job_status(server.client(), job).and_then(|status| {
            check_finished(&status, grid.points())?;
            if status.counters.engine_invocations != 0
                || status.counters.resumed != grid.points() as u64
            {
                return Err(format!("resume re-simulated: {:?}", status.counters));
            }
            Ok(())
        }),
        None => Err("no request completed".to_owned()),
    };
    if let Err(why) = verdict {
        out.fail_all(why);
    }
    let after = populated.dir.usage();
    if after != before {
        out.fail_all(format!("resume changed the store: {before:?} -> {after:?}"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_plan_runs_at_least_one_op() {
        let timed = Plan {
            limit: Limit::Seconds(0.0),
            trace: false,
        };
        assert!(timed.go_on(0, 0.0));
        assert!(!timed.go_on(1, 0.1));
        let counted = Plan {
            limit: Limit::Ops(3),
            trace: true,
        };
        assert!(counted.go_on(2, 1e9));
        assert!(!counted.go_on(3, 0.0));
        assert!(counted.traced(0) && !counted.traced(1) && counted.traced(2));
        assert!(!timed.traced(0));
    }

    #[test]
    fn a_failed_run_check_fails_every_op() {
        let mut out = Outcome::default();
        out.op(1.0, false, None);
        out.op(2.0, true, Some("boom".into()));
        assert_eq!(out.ops.iter().filter(|op| op.ok).count(), 1);
        assert_eq!(out.timed_s(), 3.0);
        assert_eq!(out.op_seconds(Some(true)), vec![2.0]);
        out.fail_all("pinned cycles moved".into());
        assert!(out.ops.iter().all(|op| !op.ok));
        assert_eq!(out.failures.len(), 2);
    }

    #[test]
    fn samples_keep_series_by_name() {
        let mut samples = Samples::default();
        samples.push("a", 1.0);
        samples.push("b", 5.0);
        samples.push("a", 3.0);
        assert_eq!(samples.get("a"), &[1.0, 3.0]);
        assert_eq!(samples.median("a"), 2.0);
        assert!(samples.get("c").is_empty());
    }

    #[test]
    fn wire_status_parses_with_unknown_fields_present() {
        let text = r#"{"status":{"id":"job-0001","name":"","state":"done","total":48,
            "completed":48,"failed":0,"counters":{"engine_invocations":0,"sim_cache_hits":0,
            "sim_cache_misses":0,"resumed":48},"store_enabled":true,
            "store":{"hits":0,"misses":0,"writes":0,"evictions":0,"corrupt":0},
            "fingerprint":"f","frontier":[]},"errors":[]}"#;
        let status = serde_json::from_str::<StatusEnvelope>(text).unwrap().status;
        assert!(check_finished(&status, 48).is_ok());
        assert!(check_finished(&status, 8).is_err());
        assert_eq!(status.counters.resumed, 48);
        let mut failed = status.clone();
        failed.failed = 1;
        assert!(check_finished(&failed, 48).is_err());
    }
}
