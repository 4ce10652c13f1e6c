//! End-to-end acceptance tests for the sweep server: a fig5-style sweep
//! streamed over HTTP twice must be byte-identical, with the repeat —
//! including one after a full server restart — served entirely from the
//! on-disk store with zero engine invocations.

use stonne::core::DiskStore;
use stonne_serve::job::JobManager;
use stonne_serve::server::{Server, ServerHandle};
use stonne_serve::{ArchSpec, Client, ModelSel, SweepRequest};

fn sweep() -> SweepRequest {
    SweepRequest {
        name: "fig5-mini".into(),
        archs: vec![
            ArchSpec {
                arch: "maeri".into(),
                ms: 32,
                bw: 16,
            },
            ArchSpec {
                arch: "tpu".into(),
                ms: 16,
                bw: 0,
            },
        ],
        models: vec![ModelSel {
            name: "alexnet".into(),
            scale: "tiny".into(),
        }],
        sparsities: vec![0.0],
        seed: 7,
    }
}

fn start_server(store_dir: &std::path::Path) -> (ServerHandle, Client) {
    let store = DiskStore::open(store_dir).expect("open store");
    let manager = JobManager::new(2, Some(store));
    let handle = Server::bind("127.0.0.1:0", manager)
        .and_then(Server::start)
        .expect("bind server");
    let client = Client::new(&handle.addr().to_string());
    (handle, client)
}

/// Runs one sweep to completion; returns `(job_id, result_lines)`.
fn run_sweep(client: &Client) -> (String, Vec<String>) {
    let (job, points) = client.submit(&sweep()).expect("submit");
    assert_eq!(points, 2, "2 archs x 1 model x 1 sparsity");
    let mut streamed = 0usize;
    let lines = client
        .stream_results(&job, |_| streamed += 1)
        .expect("stream results");
    assert_eq!(lines.len(), points, "one JSONL line per point");
    assert_eq!(streamed, points, "lines arrived through the callback");
    (job, lines)
}

fn job_status(client: &Client, job: &str) -> serde_json::Value {
    let body = client.get(&format!("/v1/jobs/{job}")).expect("job status");
    let value: serde_json::Value = serde_json::from_str(&body).expect("status json");
    value.get("status").expect("status field").clone()
}

fn counter(status: &serde_json::Value, group: &str, name: &str) -> u64 {
    status
        .get(group)
        .and_then(|g| g.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("status lacks {group}.{name}"))
}

#[test]
fn repeated_sweeps_are_bitwise_identical_and_store_served() {
    let dir = std::env::temp_dir().join(format!("stonne-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- Cold sweep: engines run, store fills. ---
    let (handle, client) = start_server(&dir);
    let health = client.get("/healthz").expect("healthz");
    assert!(health.contains("\"ok\":true"));

    let (cold_job, cold_lines) = run_sweep(&client);
    let cold_status = job_status(&client, &cold_job);
    assert_eq!(
        cold_status.get("state").and_then(|s| s.as_str()),
        Some("done")
    );
    assert!(counter(&cold_status, "counters", "engine_invocations") > 0);
    assert!(counter(&cold_status, "store", "writes") > 0);

    // --- Store footprint: layer entries (two workers may write the same
    // one) plus one whole-point blob per point, and nothing else. ---
    let namespace = DiskStore::open(&dir).expect("open store").dir().to_owned();
    let (mut entry_files, mut subdirs) = (0u64, Vec::new());
    for entry in std::fs::read_dir(&namespace).expect("store namespace") {
        let path = entry.unwrap().path();
        if path.is_dir() {
            subdirs.push(path.file_name().unwrap().to_string_lossy().into_owned());
        } else {
            entry_files += 1;
        }
    }
    assert_eq!(subdirs, ["points"], "the only blob channel is `points`");
    assert!(entry_files <= counter(&cold_status, "store", "writes"));
    let point_blobs = std::fs::read_dir(namespace.join("points")).unwrap().count();
    assert_eq!(point_blobs, cold_lines.len(), "one blob per point");

    // --- Warm sweep on the same server: a fresh job sees nothing in
    // memory, but every finished point was persisted whole, so the job
    // resumes from per-point checkpoints without touching an engine. ---
    let (warm_job, warm_lines) = run_sweep(&client);
    assert_eq!(cold_lines, warm_lines, "bitwise-identical result stream");
    let warm_status = job_status(&client, &warm_job);
    assert_eq!(
        counter(&warm_status, "counters", "engine_invocations"),
        0,
        "warm job never invoked an engine"
    );
    assert_eq!(
        counter(&warm_status, "counters", "resumed"),
        2,
        "both points restored from persisted results"
    );
    assert_eq!(counter(&warm_status, "store", "misses"), 0);

    // --- SSE: point events then a terminal done event. ---
    let events = client.stream_events(&warm_job).expect("events");
    let names: Vec<&str> = events.iter().map(|(e, _)| e.as_str()).collect();
    assert_eq!(names, vec!["point", "point", "done"]);
    assert!(events.last().unwrap().1.contains("\"state\":\"done\""));

    // --- Store endpoint reflects the shared store. ---
    let store_body = client.get("/v1/store").expect("store info");
    let store: serde_json::Value = serde_json::from_str(&store_body).expect("store json");
    assert_eq!(store.get("enabled").and_then(|v| v.as_bool()), Some(true));
    assert!(store.get("entries").and_then(|v| v.as_u64()).unwrap() > 0);

    handle.shutdown();

    // --- Restart against the same store directory: a killed server
    // resumes the sweep from persisted points, still byte-identical
    // (the acceptance criterion). ---
    let (handle, client) = start_server(&dir);
    let (restart_job, restart_lines) = run_sweep(&client);
    assert_eq!(cold_lines, restart_lines, "identical across restarts");
    let restart_status = job_status(&client, &restart_job);
    assert_eq!(
        counter(&restart_status, "counters", "engine_invocations"),
        0
    );
    assert_eq!(counter(&restart_status, "counters", "resumed"), 2);
    assert_eq!(counter(&restart_status, "store", "misses"), 0);
    handle.shutdown();

    // --- Corruption resilience: truncate every stored file — layer
    // entries and per-point checkpoint blobs alike; the next sweep must
    // treat them all as misses, re-run, and heal the store. ---
    fn truncate_json_files(dir: &std::path::Path) -> usize {
        let mut truncated = 0usize;
        for entry in std::fs::read_dir(dir).expect("store dir") {
            let path = entry.unwrap().path();
            if path.is_dir() {
                truncated += truncate_json_files(&path);
            } else if path.extension().is_some_and(|x| x == "json") {
                let text = std::fs::read_to_string(&path).unwrap();
                std::fs::write(&path, &text[..text.len() / 2]).unwrap();
                truncated += 1;
            }
        }
        truncated
    }
    let truncated = truncate_json_files(&dir);
    assert!(truncated > 0, "store held entries to truncate");

    let (handle, client) = start_server(&dir);
    let (healed_job, healed_lines) = run_sweep(&client);
    assert_eq!(cold_lines, healed_lines, "recomputed results identical");
    let healed_status = job_status(&client, &healed_job);
    assert!(
        counter(&healed_status, "counters", "engine_invocations") > 0,
        "corrupt entries were recomputed, not trusted"
    );
    assert!(counter(&healed_status, "store", "corrupt") > 0);
    assert!(
        counter(&healed_status, "store", "writes") > 0,
        "store healed"
    );

    // And after healing, warm again.
    let (final_job, _) = run_sweep(&client);
    let final_status = job_status(&client, &final_job);
    assert_eq!(counter(&final_status, "counters", "engine_invocations"), 0);
    handle.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_rejects_malformed_requests() {
    let manager = JobManager::new(1, None);
    let handle = Server::bind("127.0.0.1:0", manager)
        .and_then(Server::start)
        .expect("bind server");
    let client = Client::new(&handle.addr().to_string());

    let (status, body) = client.request("POST", "/v1/sweeps", "{not json").unwrap();
    assert_eq!(status, 400, "unparseable body: {body}");

    let bad = "{\"archs\":[{\"arch\":\"torus\"}],\"models\":[{\"name\":\"alexnet\"}]}";
    let (status, body) = client.request("POST", "/v1/sweeps", bad).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("torus"), "error names the bad arch: {body}");

    let (status, _) = client.request("GET", "/v1/jobs/job-9999", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request("GET", "/v1/nope", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request("DELETE", "/v1/jobs", "").unwrap();
    assert_eq!(status, 405);

    // No store configured: the store endpoint says so.
    let store_body = client.get("/v1/store").unwrap();
    assert!(store_body.contains("\"enabled\":false"));
    handle.shutdown();
}

#[test]
fn cluster_route_returns_a_deterministic_report() {
    let manager = JobManager::new(2, None);
    let handle = Server::bind("127.0.0.1:0", manager)
        .and_then(Server::start)
        .expect("bind server");
    let client = Client::new(&handle.addr().to_string());

    let scenario = r#"{
        "instances": [{"arch":"maeri","ms":32,"bw":16},{"arch":"tpu","ms":16}],
        "models": [{"name":"alexnet","scale":"tiny"}],
        "classes": [{"name":"interactive","priority":1,"sla_cycles":2000000},
                    {"name":"batch","weight":3.0}],
        "requests": 8, "rates": [2.0], "batch": 2,
        "policy": "priority", "seed": 7,
        "dram": {"channels": 1, "bandwidth_gbps": 8.0}
    }"#;
    let (status, first) = client.request("POST", "/v1/cluster", scenario).unwrap();
    assert_eq!(status, 200, "cluster run failed: {first}");
    let report: serde_json::Value = serde_json::from_str(&first).expect("report json");
    assert_eq!(report["policy"].as_str(), Some("priority"));
    let scenarios = report["scenarios"].as_array().expect("scenarios");
    assert_eq!(scenarios.len(), 1);
    assert_eq!(scenarios[0]["requests"].as_u64(), Some(8));
    assert_eq!(scenarios[0]["instances"].as_array().unwrap().len(), 2);

    let (status, second) = client.request("POST", "/v1/cluster", scenario).unwrap();
    assert_eq!(status, 200);
    assert_eq!(first, second, "same scenario must render identical bytes");

    // Validation errors surface as 400 with the offending detail.
    let bad = scenario.replace("priority\"", "lottery\"");
    let (status, body) = client.request("POST", "/v1/cluster", &bad).unwrap();
    assert_eq!(status, 400);
    assert!(
        body.contains("lottery"),
        "error names the bad policy: {body}"
    );
    handle.shutdown();
}

#[test]
fn body_limits_and_length_requirements_are_enforced() {
    use std::io::{Read, Write};

    let manager = JobManager::new(1, None);
    let handle = Server::bind("127.0.0.1:0", manager)
        .map(|s| s.with_body_limit(64))
        .and_then(Server::start)
        .expect("bind server");
    let client = Client::new(&handle.addr().to_string());

    // Declared body over the configured cap: 413 before the body is read.
    let oversized = format!("{{\"padding\":\"{}\"}}", "x".repeat(256));
    let (status, body) = client.request("POST", "/v1/sweeps", &oversized).unwrap();
    assert_eq!(status, 413, "oversized body: {body}");

    // Within the cap, routing proceeds (and fails on content, not size).
    let (status, _) = client.request("POST", "/v1/sweeps", "{}").unwrap();
    assert_eq!(status, 400);

    // A POST with no Content-Length at all is 411, answered raw since
    // the client always declares one.
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream
        .write_all(b"POST /v1/sweeps HTTP/1.1\r\nHost: test\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 411"),
        "expected 411, got: {response}"
    );
    handle.shutdown();
}

/// There is one fidelity: a body that still carries the removed
/// `"fidelity"` key is read like any body with an unknown key — accepted,
/// run cycle-level, and answered with the same bytes as without it.
#[test]
fn a_leftover_fidelity_key_changes_nothing() {
    let manager = JobManager::new(2, None);
    let handle = Server::bind("127.0.0.1:0", manager)
        .and_then(Server::start)
        .expect("bind server");
    let client = Client::new(&handle.addr().to_string());

    let plain = serde_json::to_string(&sweep()).unwrap();
    let keyed = format!("{{\"fidelity\":\"fast\",{}", &plain[1..]);
    let run = |body: &str| {
        let (status, response) = client.request("POST", "/v1/sweeps", body).unwrap();
        assert_eq!(status, 202, "{body}: {response}");
        let accepted: serde_json::Value = serde_json::from_str(&response).unwrap();
        let job = accepted.get("job").and_then(|j| j.as_str()).unwrap();
        let lines = client.stream_results(job, |_| {}).expect("stream results");
        (job_status(&client, job), lines)
    };
    let (plain_status, plain_lines) = run(&plain);
    let (keyed_status, keyed_lines) = run(&keyed);
    assert_eq!(plain_lines.len(), 2);
    assert_eq!(keyed_lines, plain_lines);
    assert!(counter(&keyed_status, "counters", "engine_invocations") > 0);

    for line in &keyed_lines {
        let result: serde_json::Value = serde_json::from_str(line).unwrap();
        assert!(result.get("cycles").is_some(), "{line}");
        for gone in ["fidelity", "predicted_cycles"] {
            assert!(result.get(gone).is_none(), "{gone} in {line}");
        }
    }
    for status in [&plain_status, &keyed_status] {
        assert!(status.get("frontier").is_none(), "{status:?}");
    }
    handle.shutdown();
}
