//! The STONNE User Interface.
//!
//! The paper ships a prompt-based tool "in which the user is presented
//! with a prompt and a set of well-defined commands to load any layer and
//! tile parameters onto a selected instance of the simulator, and run it
//! with random weights and input values", enabling rapid prototyping
//! without the DL-framework front-end. This binary is that interface:
//!
//! ```text
//! stonne gemm --m 64 --n 128 --k 32 --arch sigma --ms 128 --bw 128
//! stonne conv --in-c 6 --out-c 6 --hw 7 --kernel 3 --arch maeri --ms 32 --bw 4
//! stonne model --name squeezenet --scale tiny --arch sigma
//! stonne shell            # interactive prompt
//! ```
//!
//! Tensors are filled with seeded random values (`--seed`), weights are
//! optionally pruned (`--sparsity`), and results print as the Output
//! Module's JSON summary (`--json`) or counter file (`--counters`).

use std::collections::HashMap;
use std::io::{BufRead, Write as _};
use std::process::ExitCode;

use stonne::core::{
    chrome_trace_json, counter_file, summary_json, trace, AcceleratorConfig, SimStats, Stonne,
};
use stonne::core::{NaturalOrder, SimCache};
use stonne::energy::{area_um2, EnergyModel};
use stonne::models::zoo;
use stonne::nn::params::{generate_input, ModelParams};
use stonne::nn::runner::{run_model_simulated_with, RunOptions};
use stonne::tensor::{prune_matrix_to_sparsity, Conv2dGeom, Matrix, SeededRng, Tensor4};
use stonne_serve::{ArchSpec, ModelSel, SweepRequest};

fn usage() -> &'static str {
    "STONNE User Interface — cycle-level DNN accelerator simulation\n\
     \n\
     USAGE:\n\
       stonne <command> [--key value]...\n\
     \n\
     COMMANDS:\n\
       gemm    --m M --n N --k K           run a GEMM with random operands\n\
       conv    --in-c C --out-c K --hw H   run a convolution\n\
               [--kernel 3 --stride 1 --pad 0 --groups 1]\n\
       model   --name NAME --scale SCALE   run a full DNN model\n\
               (names: mobilenet|squeezenet|alexnet|resnet50|vgg16|ssd|bert;\n\
                scales: standard|reduced|tiny)\n\
       sweep   --archs A[:ms[:bw]],...     run a config x model x sparsity\n\
               --models NAME[:scale],...   grid; results stream as JSON lines\n\
               [--sparsities F,...]        (same bytes as the serve API)\n\
               [--store DIR]               persist/reuse layer results on disk\n\
               [--workers N]               local worker threads\n\
               [--remote HOST:PORT]        submit to a running stonne-serve\n\
       cluster --instances A[:ms[:bw]],... simulate a multi-accelerator,\n\
               --models NAME[:scale],...   multi-tenant serving cluster:\n\
               [--classes N[:w[:p[:sla]]],...]  Poisson arrivals, batching,\n\
               [--requests N] [--rates F,...]   priority classes, shared-DRAM\n\
               [--batch N] [--policy P]    arbitration (round-robin|priority);\n\
               [--dram CH[:gbps[:lat]]]    prints the full JSON report\n\
               [--remote HOST:PORT]        POST to a running stonne-serve\n\
       shell                               interactive prompt\n\
       help                                this text\n\
     \n\
     COMMON OPTIONS:\n\
       --arch tpu|maeri|sigma   accelerator preset        [default: maeri]\n\
       --ms N                   multiplier switches       [default: 256]\n\
       --bw N                   GB bandwidth (elems/cyc)  [default: 128]\n\
       --sparsity F             prune weights to F zeros  [default: 0]\n\
       --seed N                 RNG seed                  [default: 1]\n\
       --sim-cache on|off       layer-simulation memoization (model runs;\n\
                                bitwise-identical results)  [default: on]\n\
       --json                   print the JSON stats summary\n\
       --counters               print the counter file\n\
       --energy                 print the energy/area estimate\n\
       --cycle-breakdown        print the per-phase cycle split\n\
       --trace PATH             write a Chrome-trace (Perfetto) timeline\n"
}

/// Parsed `--key value` arguments (flags map to "true").
struct Args {
    map: HashMap<String, String>,
}

impl Args {
    fn parse(tokens: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            let Some(key) = t.strip_prefix("--") else {
                return Err(format!("unexpected token `{t}` (expected --key)"));
            };
            let flag = matches!(key, "json" | "counters" | "energy" | "cycle-breakdown");
            if flag {
                map.insert(key.to_owned(), "true".to_owned());
                i += 1;
            } else {
                let value = tokens
                    .get(i + 1)
                    .ok_or_else(|| format!("missing value for --{key}"))?;
                map.insert(key.to_owned(), value.clone());
                i += 2;
            }
        }
        Ok(Self { map })
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number `{v}`")),
        }
    }

    fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number `{v}`")),
        }
    }

    fn get_str(&self, key: &str, default: &str) -> String {
        self.map
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_owned())
    }

    fn flag(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    fn get_opt(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }
}

/// Starts trace recording when `--trace PATH` was given; returns the path.
fn maybe_start_trace(args: &Args) -> Option<String> {
    let path = args.get_opt("trace")?.to_owned();
    trace::start(trace::DEFAULT_CAPACITY);
    Some(path)
}

/// Finishes recording and writes the Chrome-trace JSON to `path`.
fn write_trace(path: Option<String>) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    let captured = trace::finish().ok_or("tracing was not active")?;
    std::fs::write(&path, chrome_trace_json(&captured))
        .map_err(|e| format!("--trace {path}: {e}"))?;
    eprintln!(
        "trace: {} events written to {path} (open in ui.perfetto.dev){}",
        captured.events().len(),
        if captured.dropped() > 0 {
            format!("; {} oldest events dropped", captured.dropped())
        } else {
            String::new()
        }
    );
    Ok(())
}

fn build_config(args: &Args) -> Result<AcceleratorConfig, String> {
    let ms = args.get_usize("ms", 256)?;
    let bw = args.get_usize("bw", 128)?;
    let cfg = match args.get_str("arch", "maeri").as_str() {
        "tpu" => {
            let dim = (ms as f64).sqrt().round() as usize;
            if dim * dim != ms {
                return Err(format!("--ms {ms}: TPU arrays must be square"));
            }
            AcceleratorConfig::tpu_like(dim)
        }
        "maeri" => AcceleratorConfig::maeri_like(ms, bw),
        "sigma" => AcceleratorConfig::sigma_like(ms, bw),
        other => return Err(format!("unknown --arch `{other}` (tpu|maeri|sigma)")),
    };
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

fn report(args: &Args, cfg: &AcceleratorConfig, stats: &SimStats) {
    println!(
        "[{}] {}: {} cycles, utilization {:.1}%, {} mults",
        stats.accelerator,
        stats.operation,
        stats.cycles,
        stats.ms_utilization() * 100.0,
        stats.counters.multiplications
    );
    if args.flag("cycle-breakdown") {
        let b = &stats.breakdown;
        println!(
            "cycle breakdown: fill {} / steady {} / drain {} / stalls: dram {} fifo {} reduction {} (sum {})",
            b.fill_cycles,
            b.steady_cycles,
            b.drain_cycles,
            b.dram_stall_cycles,
            b.fifo_stall_cycles,
            b.reduction_stall_cycles,
            b.total()
        );
    }
    if args.flag("json") {
        println!("{}", summary_json(stats));
    }
    if args.flag("counters") {
        print!("{}", counter_file(stats));
    }
    if args.flag("energy") {
        let e = EnergyModel::for_config(cfg).breakdown(stats);
        let a = area_um2(cfg);
        println!(
            "energy: {:.3} µJ (GB {:.3} / DN {:.3} / MN {:.3} / RN {:.3} / static {:.3})",
            e.total_uj(),
            e.gb_uj,
            e.dn_uj,
            e.mn_uj,
            e.rn_uj,
            e.static_uj
        );
        println!(
            "area: {:.0} µm² (GB {:.0}%, DN {:.0} µm², MN {:.0} µm², RN {:.0} µm²)",
            a.total(),
            a.gb_fraction() * 100.0,
            a.dn_um2,
            a.mn_um2,
            a.rn_um2
        );
    }
}

fn cmd_gemm(args: &Args) -> Result<(), String> {
    let m = args.get_usize("m", 64)?;
    let n = args.get_usize("n", 64)?;
    let k = args.get_usize("k", 64)?;
    let sparsity = args.get_f64("sparsity", 0.0)?;
    let seed = args.get_usize("seed", 1)? as u64;
    let cfg = build_config(args)?;
    let mut rng = SeededRng::new(seed);
    let mut a = Matrix::random(m, k, &mut rng);
    if sparsity > 0.0 {
        prune_matrix_to_sparsity(&mut a, sparsity);
    }
    let b = Matrix::random(k, n, &mut rng);
    let mut sim = Stonne::new(cfg.clone()).map_err(|e| e.to_string())?;
    let trace_path = maybe_start_trace(args);
    let (_, stats) = sim.run_gemm(&format!("gemm {m}x{n}x{k}"), &a, &b);
    write_trace(trace_path)?;
    report(args, &cfg, &stats);
    Ok(())
}

fn cmd_conv(args: &Args) -> Result<(), String> {
    let in_c = args.get_usize("in-c", 3)?;
    let out_c = args.get_usize("out-c", 8)?;
    let hw = args.get_usize("hw", 16)?;
    let kernel = args.get_usize("kernel", 3)?;
    let stride = args.get_usize("stride", 1)?;
    let pad = args.get_usize("pad", 0)?;
    let groups = args.get_usize("groups", 1)?;
    let sparsity = args.get_f64("sparsity", 0.0)?;
    let seed = args.get_usize("seed", 1)? as u64;
    let cfg = build_config(args)?;

    if in_c % groups != 0 || out_c % groups != 0 {
        return Err("--groups must divide --in-c and --out-c".into());
    }
    let geom = Conv2dGeom::new(in_c, out_c, kernel, kernel, stride, pad, groups);
    let mut rng = SeededRng::new(seed);
    let input = Tensor4::random(1, in_c, hw, hw, &mut rng);
    let mut weights = Tensor4::random(out_c, in_c / groups, kernel, kernel, &mut rng);
    if sparsity > 0.0 {
        stonne::tensor::prune_tensor_to_sparsity(&mut weights, sparsity);
    }
    let mut sim = Stonne::new(cfg.clone()).map_err(|e| e.to_string())?;
    let trace_path = maybe_start_trace(args);
    let (_, stats) = sim.run_conv(
        &format!("conv {in_c}->{out_c} {kernel}x{kernel}/{stride} @{hw}"),
        &input,
        &weights,
        &geom,
        None,
    );
    write_trace(trace_path)?;
    report(args, &cfg, &stats);
    Ok(())
}

fn cmd_model(args: &Args) -> Result<(), String> {
    let id = stonne_cluster::spec::parse_model(&args.get_str("name", "squeezenet"))?;
    let scale = stonne_cluster::spec::parse_scale(&args.get_str("scale", "tiny"))?;
    let seed = args.get_usize("seed", 1)? as u64;
    let sim_cache = match args.get_str("sim-cache", "on").as_str() {
        "on" => Some(SimCache::new()),
        "off" => None,
        other => return Err(format!("--sim-cache `{other}` (expected on|off)")),
    };
    let cfg = build_config(args)?;
    let model = zoo::build(id, scale);
    let sparsity = args.get_f64("sparsity", model.weight_sparsity())?;
    let params = ModelParams::generate_with_sparsity(&model, seed, sparsity);
    let input = generate_input(&model, seed ^ 1);

    eprintln!(
        "simulating {} ({:?} scale, {:.0}% weight sparsity) on {} …",
        id,
        scale,
        sparsity * 100.0,
        cfg.name
    );
    let trace_path = maybe_start_trace(args);
    // The report is statistics only: no activation is computed.
    let options = match &sim_cache {
        Some(cache) => RunOptions::new().timing_only().with_cache(cache.clone()),
        None => RunOptions::new().timing_only().uncached(),
    };
    let run = run_model_simulated_with(
        &model,
        &params,
        &input,
        cfg.clone(),
        std::sync::Arc::new(NaturalOrder),
        options,
    )
    .map_err(|e| e.to_string())?;
    write_trace(trace_path)?;
    for layer in &run.layers {
        println!(
            "  {:<28} {:>12} cycles  util {:>5.1}%",
            layer.name,
            layer.stats.cycles,
            layer.stats.ms_utilization() * 100.0
        );
    }
    report(args, &cfg, &run.total);
    if let Some(cache) = &sim_cache {
        println!(
            "sim cache: {} hits / {} misses / {} entries; {} engine invocations for {} layers",
            run.total.sim_cache_hits,
            run.total.sim_cache_misses,
            cache.len(),
            run.total.engine_invocations,
            run.layers.len()
        );
    }
    println!(
        "model energy: {:.3} µJ (GB {:.3} / DN {:.3} / MN {:.3} / RN {:.3})",
        run.energy.total_uj(),
        run.energy.gb_uj,
        run.energy.dn_uj,
        run.energy.mn_uj,
        run.energy.rn_uj
    );
    Ok(())
}

/// Parses the `--archs` / `--models` / `--sparsities` grid axes into a
/// sweep request shared with the serve API.
fn build_sweep_request(args: &Args) -> Result<SweepRequest, String> {
    let mut archs = Vec::new();
    for spec in args.get_str("archs", "maeri").split(',') {
        let mut parts = spec.split(':');
        let arch = parts.next().unwrap_or_default().to_owned();
        let ms = match parts.next() {
            None => 0,
            Some(v) => v.parse().map_err(|_| format!("--archs: bad ms `{v}`"))?,
        };
        let bw = match parts.next() {
            None => 0,
            Some(v) => v.parse().map_err(|_| format!("--archs: bad bw `{v}`"))?,
        };
        archs.push(ArchSpec { arch, ms, bw });
    }
    let mut models = Vec::new();
    for spec in args.get_str("models", "squeezenet").split(',') {
        let mut parts = spec.split(':');
        models.push(ModelSel {
            name: parts.next().unwrap_or_default().to_owned(),
            scale: parts.next().unwrap_or_default().to_owned(),
        });
    }
    let mut sparsities = Vec::new();
    if let Some(list) = args.get_opt("sparsities") {
        for v in list.split(',') {
            sparsities.push(
                v.parse()
                    .map_err(|_| format!("--sparsities: bad number `{v}`"))?,
            );
        }
    }
    Ok(SweepRequest {
        name: args.get_str("name", ""),
        archs,
        models,
        sparsities,
        seed: args.get_usize("seed", 1)? as u64,
    })
}

/// Runs a sweep grid locally (optionally store-backed) or, with
/// `--remote HOST:PORT`, against a running `stonne-serve` instance.
/// Either way the results print as one JSON line per point, in grid
/// order, byte-identical between the two modes.
fn cmd_sweep(args: &Args) -> Result<(), String> {
    let request = build_sweep_request(args)?;
    if let Some(remote) = args.get_opt("remote") {
        let client = stonne_serve::Client::new(remote);
        let (job, points) = client.submit(&request)?;
        eprintln!("submitted {job} ({points} points) to {}", client.addr());
        client.stream_results(&job, |line| println!("{line}"))?;
        let status = client.get(&format!("/v1/jobs/{job}"))?;
        eprintln!("status: {status}");
        return Ok(());
    }
    let store = match args.get_opt("store") {
        Some(dir) => {
            Some(stonne::core::DiskStore::open(dir).map_err(|e| format!("--store {dir}: {e}"))?)
        }
        None => None,
    };
    let workers = args.get_usize(
        "workers",
        std::thread::available_parallelism().map_or(4, usize::from),
    )?;
    let manager = stonne_serve::JobManager::new(workers, store);
    let job = manager.submit(&request)?;
    for index in 0..job.points.len() {
        match job.result_at(index) {
            Some(result) => println!(
                "{}",
                serde_json::to_string(&result).map_err(|e| e.to_string())?
            ),
            None => println!("{{\"index\":{index},\"error\":\"point failed\"}}"),
        }
    }
    let status = job.status();
    eprintln!(
        "sweep: {}/{} points ok; {} engine invocations, sim cache {} hits / {} misses",
        status.completed,
        status.total,
        status.counters.engine_invocations,
        status.counters.sim_cache_hits,
        status.counters.sim_cache_misses,
    );
    if status.store_enabled {
        eprintln!(
            "store: {} hits / {} misses / {} writes / {} evictions / {} corrupt (fingerprint {})",
            status.store.hits,
            status.store.misses,
            status.store.writes,
            status.store.evictions,
            status.store.corrupt,
            status.fingerprint,
        );
    }
    for error in job.errors() {
        eprintln!("error: {error}");
    }
    manager.shutdown();
    if status.failed > 0 {
        return Err(format!("{} points failed", status.failed));
    }
    Ok(())
}

/// Parses the cluster flags into the request shared with the
/// `/v1/cluster` route. Axis grammars mirror `sweep` (colon-separated
/// fields, comma-separated lists): `--instances maeri:64:32,tpu:16`,
/// `--classes interactive:1:2:400000,batch:3`
/// (name[:weight[:priority[:sla_cycles]]]), `--dram 1:8:100`
/// (channels[:GB/s[:latency]]).
fn build_cluster_request(args: &Args) -> Result<stonne_cluster::ClusterRequest, String> {
    let mut instances = Vec::new();
    for spec in args.get_str("instances", "maeri").split(',') {
        let mut parts = spec.split(':');
        let arch = parts.next().unwrap_or_default().to_owned();
        let ms = match parts.next() {
            None => 0,
            Some(v) => v
                .parse()
                .map_err(|_| format!("--instances: bad ms `{v}`"))?,
        };
        let bw = match parts.next() {
            None => 0,
            Some(v) => v
                .parse()
                .map_err(|_| format!("--instances: bad bw `{v}`"))?,
        };
        instances.push(stonne_cluster::InstanceSpec { arch, ms, bw });
    }
    let mut models = Vec::new();
    for spec in args.get_str("models", "squeezenet").split(',') {
        let mut parts = spec.split(':');
        models.push(stonne_cluster::ModelRef {
            name: parts.next().unwrap_or_default().to_owned(),
            scale: parts.next().unwrap_or_default().to_owned(),
        });
    }
    let mut classes = Vec::new();
    if let Some(list) = args.get_opt("classes") {
        for spec in list.split(',') {
            let mut parts = spec.split(':');
            let name = parts.next().unwrap_or_default().to_owned();
            let weight = match parts.next() {
                None => 0.0,
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("--classes: bad weight `{v}`"))?,
            };
            let priority = match parts.next() {
                None => 0,
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("--classes: bad priority `{v}`"))?,
            };
            let sla_cycles = match parts.next() {
                None => 0,
                Some(v) => v.parse().map_err(|_| format!("--classes: bad sla `{v}`"))?,
            };
            classes.push(stonne_cluster::ClassSpec {
                name,
                weight,
                priority,
                sla_cycles,
            });
        }
    }
    let mut rates = Vec::new();
    if let Some(list) = args.get_opt("rates") {
        for v in list.split(',') {
            rates.push(
                v.parse()
                    .map_err(|_| format!("--rates: bad number `{v}`"))?,
            );
        }
    }
    let dram = match args.get_opt("dram") {
        None => None,
        Some(spec) => {
            let mut parts = spec.split(':');
            let channels = match parts.next() {
                None | Some("") => 0,
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("--dram: bad channels `{v}`"))?,
            };
            let bandwidth_gbps = match parts.next() {
                None => 0.0,
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("--dram: bad bandwidth `{v}`"))?,
            };
            let latency_cycles = match parts.next() {
                None => 0,
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("--dram: bad latency `{v}`"))?,
            };
            Some(stonne_cluster::DramSpec {
                channels,
                bandwidth_gbps,
                latency_cycles,
            })
        }
    };
    let sparsity = match args.get_opt("sparsity") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--sparsity: bad number `{v}`"))?,
        ),
    };
    Ok(stonne_cluster::ClusterRequest {
        name: args.get_str("name", ""),
        instances,
        models,
        classes,
        requests: args.get_usize("requests", 0)?,
        rates,
        batch: args.get_usize("batch", 0)?,
        policy: args.get_str("policy", ""),
        seed: args.get_usize("seed", 1)? as u64,
        sparsity,
        dram,
    })
}

/// Runs a multi-accelerator serving scenario locally (profiling on the
/// worker pool, optionally store-backed) or, with `--remote HOST:PORT`,
/// on a running `stonne-serve` instance — the printed report is
/// byte-identical between the two modes.
fn cmd_cluster(args: &Args) -> Result<(), String> {
    let request = build_cluster_request(args)?;
    if let Some(remote) = args.get_opt("remote") {
        let client = stonne_serve::Client::new(remote);
        let body = serde_json::to_string(&request).map_err(|e| e.to_string())?;
        let (status, report) = client
            .request("POST", "/v1/cluster", &body)
            .map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("remote cluster run failed ({status}): {report}"));
        }
        println!("{report}");
        return Ok(());
    }
    let mut cache = SimCache::new();
    if let Some(dir) = args.get_opt("store") {
        let store =
            stonne::core::DiskStore::open(dir).map_err(|e| format!("--store {dir}: {e}"))?;
        cache = cache.backed_by(store);
    }
    let outcome = stonne_cluster::run_cluster(&request, &cache, stonne_cluster::ExecMode::Pool)?;
    println!("{}", outcome.report.render());
    for scenario in &outcome.report.scenarios {
        eprintln!(
            "rate {}: p50 {} / p99 {} cycles over {} requests, {} dram-wait cycles",
            scenario.rate_rpmc,
            scenario.latency.p50,
            scenario.latency.p99,
            scenario.requests,
            scenario
                .instances
                .iter()
                .map(|i| i.dram_wait_cycles)
                .sum::<u64>(),
        );
    }
    Ok(())
}

/// Options shared by the single-run commands (`gemm`, `conv`, `model`):
/// accelerator preset, operand generation, report switches.
const RUN_KEYS: &str = "arch ms bw sparsity seed trace json counters energy cycle-breakdown";

/// Runs `command`, which reads exactly the `--key`s listed beside it
/// here; any other key is an error, not a silently ignored typo.
fn dispatch(command: &str, args: &Args) -> Result<(), String> {
    type Run = fn(&Args) -> Result<(), String>;
    let (run, own, shared): (Run, &str, &str) = match command {
        "gemm" => (cmd_gemm, "m n k", RUN_KEYS),
        "conv" => (cmd_conv, "in-c out-c hw kernel stride pad groups", RUN_KEYS),
        "model" => (cmd_model, "name scale sim-cache", RUN_KEYS),
        "sweep" => (
            cmd_sweep,
            "archs models sparsities name seed store workers remote",
            "",
        ),
        "cluster" => (
            cmd_cluster,
            "instances models classes requests rates batch policy dram sparsity name seed store \
             remote",
            "",
        ),
        "help" => (cmd_help, "", ""),
        other => return Err(format!("unknown command `{other}`; try `help`")),
    };
    let known = own.split_whitespace().chain(shared.split_whitespace());
    let unknown = |key: &&String| !known.clone().any(|k| k == *key);
    if let Some(key) = args.map.keys().filter(unknown).min() {
        return Err(format!("unknown option --{key} for {command}"));
    }
    run(args)
}

fn cmd_help(_: &Args) -> Result<(), String> {
    println!("{}", usage());
    Ok(())
}

fn shell() -> Result<(), String> {
    println!("STONNE User Interface — type commands, `help`, or `exit`.");
    let stdin = std::io::stdin();
    loop {
        print!("stonne> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin
            .lock()
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            == 0
        {
            return Ok(()); // EOF
        }
        let tokens: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        let Some((command, rest)) = tokens.split_first() else {
            continue;
        };
        if command == "exit" || command == "quit" {
            return Ok(());
        }
        match Args::parse(rest).and_then(|args| dispatch(command, &args)) {
            Ok(()) => {}
            Err(e) => eprintln!("error: {e}"),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    };
    let result = if command == "shell" {
        shell()
    } else {
        Args::parse(rest).and_then(|args| dispatch(command, &args))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `stonne help` for usage");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        let tokens: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
        Args::parse(&tokens).unwrap()
    }

    #[test]
    fn parse_key_values_and_flags() {
        let a = args("--m 64 --arch sigma --json");
        assert_eq!(a.get_usize("m", 0).unwrap(), 64);
        assert_eq!(a.get_str("arch", "x"), "sigma");
        assert!(a.flag("json"));
        assert!(!a.flag("counters"));
        assert_eq!(a.get_usize("n", 7).unwrap(), 7); // default
    }

    #[test]
    fn parse_rejects_missing_value() {
        let tokens = vec!["--m".to_owned()];
        assert!(Args::parse(&tokens).is_err());
    }

    #[test]
    fn parse_rejects_bare_token() {
        let tokens = vec!["gemm".to_owned()];
        assert!(Args::parse(&tokens).is_err());
    }

    #[test]
    fn parse_rejects_bad_number() {
        let a = args("--m abc");
        assert!(a.get_usize("m", 0).is_err());
    }

    #[test]
    fn config_presets_resolve() {
        assert_eq!(
            build_config(&args("--arch tpu --ms 256")).unwrap().ms_size,
            256
        );
        assert!(build_config(&args("--arch maeri --ms 64 --bw 8")).is_ok());
        assert!(build_config(&args("--arch sigma")).is_ok());
        assert!(build_config(&args("--arch hypercube")).is_err());
        // Non-square TPU rejected.
        assert!(build_config(&args("--arch tpu --ms 200")).is_err());
    }

    #[test]
    fn gemm_command_runs_end_to_end() {
        let a = args("--m 8 --n 8 --k 8 --arch maeri --ms 32 --bw 8");
        cmd_gemm(&a).unwrap();
    }

    #[test]
    fn conv_command_runs_end_to_end() {
        let a = args("--in-c 2 --out-c 3 --hw 6 --kernel 3 --arch sigma --ms 32 --bw 32");
        cmd_conv(&a).unwrap();
    }

    #[test]
    fn conv_command_validates_groups() {
        let a = args("--in-c 3 --out-c 4 --groups 2");
        assert!(cmd_conv(&a).is_err());
    }

    #[test]
    fn cycle_breakdown_is_a_flag_and_trace_takes_a_value() {
        let a = args("--cycle-breakdown --trace /tmp/t.json --m 4");
        assert!(a.flag("cycle-breakdown"));
        assert_eq!(a.get_opt("trace"), Some("/tmp/t.json"));
        assert_eq!(a.get_usize("m", 0).unwrap(), 4);
    }

    #[test]
    fn gemm_with_trace_writes_chrome_json() {
        let dir = std::env::temp_dir().join("stonne-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gemm.json");
        let a = args(&format!(
            "--m 8 --n 8 --k 8 --arch tpu --ms 16 --cycle-breakdown --trace {}",
            path.display()
        ));
        cmd_gemm(&a).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"ph\": \"X\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sim_cache_takes_a_value_and_rejects_junk() {
        let a = args("--sim-cache off --m 4");
        assert_eq!(a.get_str("sim-cache", "on"), "off");
        assert_eq!(a.get_usize("m", 0).unwrap(), 4);
        let err = cmd_model(&args("--sim-cache maybe")).unwrap_err();
        assert!(err.contains("sim-cache"), "{err}");
    }

    #[test]
    fn unknown_command_is_reported() {
        assert!(dispatch("frobnicate", &args("")).is_err());
        assert!(dispatch("frobnicate", &args("--m 4"))
            .unwrap_err()
            .contains("unknown command"));
        assert!(dispatch("help", &args("")).is_ok());
    }

    #[test]
    fn unknown_options_are_rejected_per_command() {
        // (command, options, the key the error names): a typo, the
        // removed fidelity flag, keys that belong to another command.
        for (command, options, key) in [
            ("model", "--name alexnet --sparisty 0.9", "sparisty"),
            ("model", "--fidelity fast", "fidelity"),
            ("sweep", "--models alexnet --fidelity fast", "fidelity"),
            ("gemm", "--m 8 --name demo", "name"),
            ("sweep", "--arch maeri", "arch"),
            ("cluster", "--workers 2", "workers"),
            ("help", "--json", "json"),
            ("gemm", "-- 8", ""),
        ] {
            let err = dispatch(command, &args(options)).unwrap_err();
            assert_eq!(err, format!("unknown option --{key} for {command}"));
        }
        // Every key a command does read still gets through.
        dispatch(
            "gemm",
            &args("--m 8 --n 8 --k 8 --arch maeri --ms 32 --bw 8 --sparsity 0.5 --seed 2 --json"),
        )
        .unwrap();
    }

    #[test]
    fn sweep_request_parses_grid_axes() {
        let a = args(
            "--archs maeri:32:16,tpu:16 --models alexnet:tiny,bert --sparsities 0,0.5 --seed 9",
        );
        let r = build_sweep_request(&a).unwrap();
        assert_eq!(r.archs.len(), 2);
        assert_eq!(
            (r.archs[0].arch.as_str(), r.archs[0].ms, r.archs[0].bw),
            ("maeri", 32, 16)
        );
        assert_eq!(
            (r.archs[1].arch.as_str(), r.archs[1].ms, r.archs[1].bw),
            ("tpu", 16, 0)
        );
        assert_eq!(r.models[1].name, "bert");
        assert_eq!(r.models[0].scale, "tiny");
        assert_eq!(r.sparsities, vec![0.0, 0.5]);
        assert_eq!(r.seed, 9);
        assert!(build_sweep_request(&args("--archs maeri:huge")).is_err());
        assert!(build_sweep_request(&args("--sparsities many")).is_err());
    }

    #[test]
    fn sweep_command_runs_a_local_grid() {
        let a = args("--archs maeri:32:16 --models alexnet:tiny --sparsities 0 --workers 2");
        cmd_sweep(&a).unwrap();
        // An invalid grid is rejected before any simulation starts.
        let bad = args("--archs hypercube --models alexnet");
        assert!(cmd_sweep(&bad).is_err());
    }

    #[test]
    fn cluster_request_parses_every_axis() {
        let a = args(
            "--instances maeri:64:32,tpu:16 --models alexnet:tiny,squeezenet \
             --classes interactive:1:2:400000,batch:3 --requests 16 --rates 0.5,2 \
             --batch 2 --policy priority --seed 7 --dram 1:8:50",
        );
        let r = build_cluster_request(&a).unwrap();
        r.validate().unwrap();
        assert_eq!(r.instances.len(), 2);
        assert_eq!(
            (
                r.instances[0].arch.as_str(),
                r.instances[0].ms,
                r.instances[0].bw
            ),
            ("maeri", 64, 32)
        );
        assert_eq!(r.models[1].name, "squeezenet");
        assert_eq!(r.classes.len(), 2);
        assert_eq!(
            (r.classes[0].priority, r.classes[0].sla_cycles),
            (2, 400_000)
        );
        assert_eq!(r.classes[1].weight, 3.0);
        assert_eq!(r.effective_requests(), 16);
        assert_eq!(r.rates, vec![0.5, 2.0]);
        assert_eq!(r.effective_batch(), 2);
        let dram = r.dram.unwrap();
        assert_eq!(
            (dram.channels, dram.bandwidth_gbps, dram.latency_cycles),
            (1, 8.0, 50)
        );
        assert!(build_cluster_request(&args("--instances maeri:big")).is_err());
        assert!(build_cluster_request(&args("--classes a:heavy")).is_err());
        assert!(build_cluster_request(&args("--rates fast")).is_err());
    }

    #[test]
    fn cluster_command_runs_a_small_scenario() {
        let a =
            args("--instances maeri:32:16 --models alexnet:tiny --requests 4 --rates 1 --seed 3");
        cmd_cluster(&a).unwrap();
        // Validation failures surface before any profiling runs.
        let bad = args("--instances hypercube --models alexnet");
        assert!(cmd_cluster(&bad).is_err());
        let bad = args("--instances maeri --models alexnet --policy lottery");
        assert!(cmd_cluster(&bad).is_err());
    }
}
