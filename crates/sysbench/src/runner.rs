//! Turns workloads into reports: the untraced run of one workload
//! (end-to-end metrics) and the traced run (per-layer metrics).

use crate::api_surface as sim;
use crate::inputs::{grid, RUN_LIST};
use crate::report::{
    per_layer_defs, Expected, Metric, WorkloadRun, DEFAULT_SEED, END_TO_END, KEPT_OP_SAMPLES,
};
use crate::server::ServerGuard;
use crate::span::{Recorder, SpanId};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::storefs::StoreDir;
use crate::workloads::{
    model_diskwarm, model_uncached, prepare_models, sweep_cold, sweep_resume, Env, Limit, Outcome,
    Plan,
};
use std::time::Instant;

/// Whether `expected.json` applies: it pins Reduced scale at the default
/// seed; any other seed keeps every in-run equality check but has no
/// pin to compare with.
fn pinned(env: &Env) -> bool {
    env.seed == DEFAULT_SEED && env.scale == sim::Scale::Reduced
}

/// Folds an outcome into the seven end-to-end metrics.
fn report(
    workload: &str,
    env: &Env,
    mut outcome: Outcome,
    rtl_err_avg_pct: f64,
    check_pin: bool,
) -> WorkloadRun {
    if check_pin && pinned(env) {
        let measured = (outcome.sum_cycles, outcome.sum_macs);
        match Expected::committed().sums(workload) {
            Some(pin) if pin == measured => {}
            pin => outcome.fail_all(format!(
                "simulated (cycles, MACs) {measured:?} differ from the pinned {pin:?}: \
                 wall-clock may move, cycles may not"
            )),
        }
    }
    let seconds = outcome.op_seconds(None);
    let attempted = outcome.ops.len() as u64;
    let failed = outcome.ops.iter().filter(|op| !op.ok).count() as u64;
    let high_pct = highest_supported_percentile(seconds.len()).unwrap_or(0.0);
    let values = [
        outcome.setup_s,
        median(&seconds),
        outcome.macs_delivered as f64 / outcome.timed_s().max(f64::MIN_POSITIVE) / 1e6,
        outcome.peak_rss_kb as f64 * 1024.0 / 1e6,
        outcome.store.megabytes(),
        failed as f64 / attempted as f64,
        rtl_err_avg_pct,
    ];
    WorkloadRun {
        workload: workload.to_owned(),
        traced: false,
        seed: env.seed,
        attempted,
        failed,
        sum_cycles: outcome.sum_cycles,
        sum_macs: outcome.sum_macs,
        op_s_high_pct: high_pct,
        op_s_high: if high_pct > 0.0 {
            percentile(&seconds, high_pct)
        } else {
            0.0
        },
        op_s: seconds.iter().copied().take(KEPT_OP_SAMPLES).collect(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(def, value)| Metric::new(def.name, value, def.unit))
            .collect(),
        failures: outcome.failures,
    }
}

/// The untraced run of one workload for `seconds`.
///
/// # Errors
///
/// Returns a message when the harness itself cannot run (unknown
/// workload, no store directory, server does not start) — as opposed to
/// ops that fail, which are counted.
pub fn run_workload(
    workload: &str,
    env: &Env,
    seconds: f64,
    check_pin: bool,
) -> Result<WorkloadRun, String> {
    let plan = Plan {
        limit: Limit::Seconds(seconds),
        trace: false,
    };
    let rec = &mut Recorder::new();
    let start = Instant::now();
    let rtl_err = sim::rtl_error_avg_pct();
    let rtl_s = start.elapsed().as_secs_f64();
    let mut outcome = match workload {
        "model_uncached" => model_uncached(&prepare_models(env, rec), plan, rec),
        "model_diskwarm" => model_diskwarm(env, &prepare_models(env, rec), plan, rec)?,
        "sweep_cold" => sweep_cold(env, plan, true, false, rec)?.0,
        "sweep_resume" => sweep_resume(env, plan, None, rec)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    outcome.setup_s += rtl_s;
    Ok(report(workload, env, outcome, rtl_err, check_pin))
}

/// What the traced run has measured and checked so far.
#[derive(Debug, Default)]
struct Traced {
    values: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Traced {
    fn set(&mut self, name: &str, value: f64) {
        self.values.push((name.to_owned(), value));
    }

    /// Counts a workload's ops and keeps its failure reasons.
    fn absorb(&mut self, name: &str, outcome: &Outcome) {
        self.attempted += outcome.ops.len() as u64;
        self.failed += outcome.ops.iter().filter(|op| !op.ok).count() as u64;
        self.failures
            .extend(outcome.failures.iter().map(|why| format!("{name}: {why}")));
    }

    /// Counts one probe-level check.
    fn check(&mut self, ok: bool, why: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why.to_owned());
        }
    }

    /// Sets `<prefix>.<label>` for every point of R from the outcome's
    /// `run.<label>` series.
    fn set_run_medians(&mut self, prefix: &str, outcome: &Outcome) {
        for spec in RUN_LIST {
            self.set(
                &format!("{prefix}.{}", spec.label),
                outcome.samples.median(&format!("run.{}", spec.label)),
            );
        }
    }
}

/// Tracing overhead: how much longer the median traced op took than the
/// median untraced op of the same run, in percent.
fn overhead_pct(outcome: &Outcome) -> f64 {
    let traced = outcome.op_seconds(Some(true));
    let untraced = outcome.op_seconds(Some(false));
    if traced.is_empty() || untraced.is_empty() {
        return 0.0;
    }
    (median(&traced) / median(&untraced) - 1.0) * 100.0
}

/// How much of everything the traced run does: ops per workload (every
/// other one traced) and probe repetitions.
struct TracedSize {
    model_uncached: usize,
    model_diskwarm: usize,
    sweep_cold: usize,
    sweep_resume: usize,
    healthz: usize,
    blobs: usize,
    micro_reps: usize,
}

const FULL: TracedSize = TracedSize {
    model_uncached: 4,
    model_diskwarm: 2,
    sweep_cold: 2,
    // A p99 needs ten samples beyond it.
    sweep_resume: 1200,
    healthz: 1000,
    blobs: 5000,
    micro_reps: 5,
};

const SMOKE: TracedSize = TracedSize {
    model_uncached: 2,
    model_diskwarm: 2,
    sweep_cold: 2,
    sweep_resume: 20,
    healthz: 20,
    blobs: 50,
    micro_reps: 1,
};

fn traced_plan(ops: usize) -> Plan {
    Plan {
        limit: Limit::Ops(ops),
        trace: true,
    }
}

/// `stonne-nn` params and runner, `stonne-core` cache and context: the
/// two model workloads on one set of inputs, then single calls with each
/// other kind of reuse.
fn trace_models(
    env: &Env,
    size: &TracedSize,
    rec: &mut Recorder,
    t: &mut Traced,
) -> Result<(), String> {
    rec.start_track("model_uncached");
    rec.set_enabled(true);
    let inputs = prepare_models(env, rec);
    let mut params_s = 0.0;
    for model in ["bert", "resnet50"] {
        let seconds = inputs.samples.median(&format!("params.{model}"));
        t.set(&format!("nn.params_s.{model}"), seconds);
        params_s += seconds;
    }
    t.set(
        "nn.params_ns_per_weight",
        params_s * 1e9 / inputs.weights as f64,
    );

    let uncached = model_uncached(&inputs, traced_plan(size.model_uncached), rec);
    t.absorb("model_uncached", &uncached);
    t.set_run_medians("nn.uncached_s", &uncached);
    t.set(
        "engine.invocations.model_uncached",
        uncached.count("engine_invocations"),
    );
    let tile_lookups = uncached.count("tile_hits") + uncached.count("tile_misses");
    t.set(
        "engine.tile_hit_ratio.model_uncached",
        uncached.count("tile_hits") / tile_lookups.max(1.0),
    );
    t.set("trace.overhead_pct.model_uncached", overhead_pct(&uncached));

    rec.start_track("model_diskwarm");
    let diskwarm = model_diskwarm(env, &inputs, traced_plan(size.model_diskwarm), rec)?;
    t.absorb("model_diskwarm", &diskwarm);
    t.set_run_medians("nn.diskwarm_s", &diskwarm);
    t.set(
        "cache.hit_ratio.model_diskwarm",
        diskwarm.count("store_hit_ratio"),
    );
    t.set(
        "store.hits.model_diskwarm",
        diskwarm.count("store_hits_per_op"),
    );
    t.set("store.mb.model_diskwarm", diskwarm.store.megabytes());
    t.set("trace.overhead_pct.model_diskwarm", overhead_pct(&diskwarm));

    rec.start_track("layer probes");
    rec.set_enabled(true);
    let root = rec.begin("runner probes", SpanId::NONE, 0);
    let mut probe = |what: &str, index: usize, reuse: sim::Reuse| {
        let point = &inputs.points[index];
        let span = rec.begin(&format!("{what}/{}", point.label), root, 0);
        let start = Instant::now();
        let digest = sim::run_model(
            &point.model,
            &point.params,
            &point.input,
            &point.config,
            reuse,
        );
        let seconds = start.elapsed().as_secs_f64();
        rec.end(span);
        (digest, seconds)
    };
    // Reuse and scheduling never change results: each probe must equal
    // the cold-cache run of its point, and a warm cache runs no engine.
    let mut consistent = true;
    let mut cold_checksums = Vec::new();
    for (index, spec) in RUN_LIST.iter().enumerate() {
        // Default options on an empty cache, then the same cache again.
        let cache = sim::LayerCache::in_memory();
        let (cold, cold_s) = probe("coldcached", index, sim::Reuse::Cached(cache.clone()));
        let (warm, warm_s) = probe("memwarm", index, sim::Reuse::Cached(cache));
        t.set(&format!("nn.coldcached_s.{}", spec.label), cold_s);
        t.set(&format!("nn.memwarm_s.{}", spec.label), warm_s);
        if spec.label == "bert_maeri" {
            t.set(
                "cache.replay_ns_per_mac.bert_maeri",
                warm_s * 1e9 / warm.macs as f64,
            );
        }
        consistent &= cold.checksum() == warm.checksum() && warm.engine_invocations == 0;
        cold_checksums.push(cold.checksum());
    }
    let (wave, wave_s) = probe("wave_parallel", 0, sim::Reuse::UncachedWaveParallel);
    t.set("nn.wave_parallel_s.bert_maeri", wave_s);
    let (tiles_off, tiles_off_s) = probe("tile_off", 2, sim::Reuse::UncachedTilesOff);
    t.set("context.tile_off_s.resnet50_tpu", tiles_off_s);
    consistent &= wave.checksum() == cold_checksums[0] && tiles_off.checksum() == cold_checksums[2];
    rec.end(root);
    t.check(
        consistent,
        "runner probes disagree on (cycles, MACs, state hash)",
    );
    Ok(())
}

/// `stonne-nn` grid params, `stonne-core` engines and store blobs,
/// `stonne-tensor` kernels.
fn trace_kernels(
    env: &Env,
    size: &TracedSize,
    rec: &mut Recorder,
    t: &mut Traced,
) -> Result<(), String> {
    let span = rec.begin("ModelParams::generate_with_sparsity/grid", SpanId::NONE, 0);
    let start = Instant::now();
    let grid = grid(env.scale);
    for name in grid.models {
        let model = sim::build_model(name, env.scale);
        for sparsity in grid.sparsities {
            std::hint::black_box(sim::generate_params(&model, env.seed, *sparsity));
        }
    }
    t.set("nn.params_s.grid", start.elapsed().as_secs_f64());
    rec.end(span);

    // One warm-up call, then the median of a few timed ones.
    let span = rec.begin("engine + tensor micros", SpanId::NONE, 0);
    for mut micro in sim::engine_micros().into_iter().chain(sim::tensor_micros()) {
        std::hint::black_box((micro.run)());
        let samples: Vec<f64> = (0..size.micro_reps)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box((micro.run)());
                start.elapsed().as_secs_f64()
            })
            .collect();
        t.set(micro.name, median(&samples) * 1e9 / micro.units as f64);
    }
    rec.end(span);

    // 4 KiB blobs through the store's public blob channel.
    let span = rec.begin("DiskStore::save_blob/load_blob", SpanId::NONE, 0);
    let dir = StoreDir::create(&env.store_root).map_err(|e| format!("store dir: {e}"))?;
    let store = sim::Store::open(dir.path()).map_err(|e| format!("open store: {e}"))?;
    let text = "0123456789abcdef".repeat(256);
    let keys: Vec<String> = (0..size.blobs)
        .map(|i| format!("sysbench/blob/{i}"))
        .collect();
    let mut intact = true;
    let puts: Vec<f64> = keys
        .iter()
        .map(|key| {
            let start = Instant::now();
            intact &= store.save_blob("sysbench", key, &text);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let gets: Vec<f64> = keys
        .iter()
        .map(|key| {
            let start = Instant::now();
            let back = store.load_blob("sysbench", key);
            let micros = start.elapsed().as_secs_f64() * 1e6;
            intact &= back.as_deref() == Some(text.as_str());
            micros
        })
        .collect();
    rec.end(span);
    t.set("store.put_us_p50", median(&puts));
    t.set("store.get_us_p50", median(&gets));
    t.check(intact, "a blob did not read back as written");
    Ok(())
}

/// `stonne-serve` and the store under it: cold sweeps, a restart on the
/// last one's store for the resume ops, `/healthz`, and the grid with
/// persistence off.
fn trace_sweeps(
    env: &Env,
    size: &TracedSize,
    rec: &mut Recorder,
    t: &mut Traced,
) -> Result<(), String> {
    rec.start_track("sweep_cold");
    let (cold, kept) = sweep_cold(env, traced_plan(size.sweep_cold), true, true, rec)?;
    t.absorb("sweep_cold", &cold);
    let gaps_ms: Vec<f64> = cold
        .samples
        .get("line_gap")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    if cold.samples.get("first_line").is_empty() || gaps_ms.is_empty() {
        return Err(format!("no cold sweep completed: {:?}", cold.failures));
    }
    t.set("serve.first_result_s", cold.samples.median("first_line"));
    t.set("serve.point_gap_ms_p50", median(&gaps_ms));
    t.set("serve.point_gap_ms_p99", percentile(&gaps_ms, 99.0));
    t.set("cache.hit_ratio.sweep_cold", cold.count("cache_hit_ratio"));
    t.set("store.files.sweep_cold", cold.store.files as f64);
    t.set("store.tile_files.sweep_cold", cold.store.tile_files as f64);
    t.set(
        "store.files_per_point",
        cold.store.files as f64 / grid(env.scale).points() as f64,
    );
    t.set("store.writes.sweep_cold", cold.count("store_writes"));
    t.set("store.mb.sweep_cold", cold.store.megabytes());
    t.set("trace.overhead_pct.sweep_cold", overhead_pct(&cold));

    rec.start_track("sweep_resume");
    rec.set_enabled(true);
    let populated = kept.ok_or("the last cold sweep left no store")?;
    let span = rec.begin("DiskStore::open (populated G store)", SpanId::NONE, 0);
    let start = Instant::now();
    let opened = sim::Store::open(populated.dir.path());
    t.set("store.open_s", start.elapsed().as_secs_f64());
    rec.end(span);
    opened.map_err(|e| format!("open populated store: {e}"))?;

    let resume = sweep_resume(env, traced_plan(size.sweep_resume), Some(populated), rec)?;
    t.absorb("sweep_resume", &resume);
    let resume_ms: Vec<f64> = resume.op_seconds(None).iter().map(|s| s * 1e3).collect();
    if resume.samples.get("submit").is_empty() {
        return Err(format!("no resume op completed: {:?}", resume.failures));
    }
    t.set("serve.submit_ms_p50", resume.samples.median("submit") * 1e3);
    t.set("serve.resume_op_ms_p99", percentile(&resume_ms, 99.0));
    t.set("serve.rss_kb_per_job", resume.count("rss_kb_per_job"));
    t.set("trace.overhead_pct.sweep_resume", overhead_pct(&resume));

    rec.start_track("serve probes");
    rec.set_enabled(true);
    let span = rec.begin("GET /healthz loop", SpanId::NONE, 0);
    let server = ServerGuard::spawn(&env.serve_bin, None)?;
    let mut healthy = true;
    let healthz_us: Vec<f64> = (0..size.healthz)
        .map(|_| {
            let start = Instant::now();
            let response = server.client().request("GET", "/healthz", "");
            let micros = start.elapsed().as_secs_f64() * 1e6;
            healthy &= matches!(response, Ok(r) if r.status == 200);
            micros
        })
        .collect();
    drop(server);
    rec.end(span);
    t.set("serve.healthz_us_p50", median(&healthz_us));
    t.set("serve.healthz_us_p99", percentile(&healthz_us, 99.0));
    t.check(healthy, "/healthz failed under a closed loop");

    // The same grid with persistence off: what is left of sweep_cold's
    // op time when no store is written.
    let (nostore, _) = sweep_cold(env, traced_plan(1), false, false, rec)?;
    t.absorb("sweep_cold --no-store", &nostore);
    t.set("serve.nostore_sweep_s", median(&nostore.op_seconds(None)));
    Ok(())
}

/// The traced run: every workload for a few ops with the span recorder
/// on for every other op, then the layer probes. Yields every per-layer
/// metric; the spans stay in `rec`.
///
/// # Errors
///
/// Returns a message when the harness itself cannot run.
pub fn run_traced(env: &Env, rec: &mut Recorder) -> Result<WorkloadRun, String> {
    let size = if env.scale == sim::Scale::Tiny {
        SMOKE
    } else {
        FULL
    };
    let mut t = Traced::default();
    trace_models(env, &size, rec, &mut t)?;
    trace_kernels(env, &size, rec, &mut t)?;
    trace_sweeps(env, &size, rec, &mut t)?;
    rec.set_enabled(false);

    let metrics = per_layer_defs()
        .iter()
        .map(|def| {
            t.values
                .iter()
                .find(|(name, _)| *name == def.name)
                .map(|(_, value)| Metric::new(&def.name, *value, def.unit))
                .ok_or_else(|| format!("the traced run did not measure {}", def.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    t.failures.truncate(5);
    Ok(WorkloadRun {
        workload: "traced".to_owned(),
        traced: true,
        seed: env.seed,
        attempted: t.attempted,
        failed: t.failed,
        sum_cycles: 0,
        sum_macs: 0,
        op_s_high_pct: 0.0,
        op_s_high: 0.0,
        op_s: Vec::new(),
        metrics,
        failures: t.failures,
    })
}
