//! Job lifecycle: submission, sharding across the worker pool, progress
//! tracking and the per-job event log consumed by the SSE endpoint.
//!
//! Every submitted sweep becomes a [`Job`] whose points are pushed onto
//! one shared work queue; a fixed pool of worker threads drains the
//! queue, so points from several jobs interleave and a wide sweep
//! saturates the machine without starving later submissions.
//!
//! Each job runs against a **fresh in-memory [`SimCache`]** backed by a
//! [`DiskStore::scoped`] handle onto the server's store. The fresh
//! memory cache means repeated layers within the job still memoize, while
//! everything a *previous* job (or server process) computed is visible
//! only through the store — so the per-job store counters report true
//! cross-job reuse: a fully warm job shows `hits == unique layers` and
//! zero engine invocations.
//!
//! A point's weights and input sample depend on `(model, scale, sparsity,
//! seed)` but not on the architecture, so a job generates each such set
//! once and its points share it: the first worker to need a set builds
//! it while peers needing the same one wait, and the last point of the
//! key drops it. Tasks are enqueued key-major, so at most one set per
//! worker is alive at a time; results still *stream* in `index` order.

use crate::api::{
    build_inputs, expand, run_point_on, Expansion, PointResult, SweepPoint, SweepRequest,
};
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use stonne::core::{code_fingerprint, DiskStore, SimCache, SimContext, StoreCounters};
use stonne_cluster::ModelInputs;

/// Aggregate simulation-cache activity of one job.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct JobCounters {
    /// Cycle-level engine runs actually executed (0 on a fully warm job).
    pub engine_invocations: u64,
    /// In-memory layer-cache hits (intra-job reuse).
    pub sim_cache_hits: u64,
    /// In-memory layer-cache misses.
    pub sim_cache_misses: u64,
    /// Points restored whole from a previously persisted result — a
    /// killed server picks a sweep back up without re-simulating (or
    /// even re-assembling from layer entries) the points it had already
    /// finished.
    pub resumed: u64,
}

/// A snapshot of one job's externally visible state.
#[derive(Debug, Clone, Serialize)]
pub struct JobStatus {
    /// Job identifier (`job-0001`, …).
    pub id: String,
    /// The request's human-readable label (possibly empty).
    pub name: String,
    /// Lifecycle phase: `running` or `done`.
    pub state: String,
    /// Total points in the expanded grid.
    pub total: usize,
    /// Points completed successfully.
    pub completed: usize,
    /// Points that failed (panic or internal error).
    pub failed: usize,
    /// Aggregate engine/cache activity so far.
    pub counters: JobCounters,
    /// Whether the server runs with a persistent store attached.
    pub store_enabled: bool,
    /// This job's store activity (all zero when no store is attached).
    pub store: StoreCounters,
    /// The store namespace this server writes to.
    pub fingerprint: String,
}

/// Mutable progress shared between workers and readers.
#[derive(Debug, Default)]
struct Progress {
    completed: usize,
    failed: usize,
    /// Results slotted by point index (streamed in index order).
    results: Vec<Option<PointResult>>,
    /// Failure messages, prefixed with the point index.
    errors: Vec<String>,
    /// Append-only `(event, json-data)` log driving the SSE endpoint.
    events: Vec<(String, String)>,
    counters: JobCounters,
    done: bool,
    /// One slot per distinct input key, in order of first occurrence.
    inputs: Vec<InputSlot>,
}

/// A shared input set, or the reason it could not be built. Workers block
/// on the cell while one of them fills it; no mutex is held meanwhile.
type InputCell = Arc<OnceLock<Result<ModelInputs, String>>>;

/// The input set shared by every point of one `(model, scale, sparsity,
/// seed)` key of a job.
#[derive(Debug, Default)]
struct InputSlot {
    /// Points of this key not yet recorded (finished, resumed or failed).
    pending: usize,
    /// Present from the first point that needs the set until the last
    /// pending one is recorded.
    cell: Option<InputCell>,
}

/// One submitted sweep: its expanded points plus live progress.
#[derive(Debug)]
pub struct Job {
    /// Job identifier.
    pub id: String,
    /// Request label.
    pub name: String,
    /// The expanded grid, in result order.
    pub points: Vec<SweepPoint>,
    /// Raw grid cells removed by axis deduplication at submission.
    pub collapsed: usize,
    progress: Mutex<Progress>,
    changed: Condvar,
    /// Per-job cache: fresh memory, shared disk (see module docs).
    cache: SimCache,
    /// Per-job simulation context: pooled engine scratch shared by every
    /// worker running this job's points, instead of being torn down per
    /// point.
    context: SimContext,
    /// Scoped store handle whose counters are this job's alone.
    store: Option<DiskStore>,
    /// `points[i]` runs on the inputs of slot `slot_of[i]`.
    slot_of: Vec<usize>,
    /// Input sets generated so far (a fully resumed job generates none).
    pub(crate) inputs_built: AtomicUsize,
}

impl Job {
    fn new(
        id: String,
        request: &SweepRequest,
        expansion: Expansion,
        store: Option<&DiskStore>,
    ) -> Self {
        let Expansion { points, collapsed } = expansion;
        let mut slots = HashMap::new();
        let mut inputs: Vec<InputSlot> = Vec::new();
        let slot_of = points
            .iter()
            .map(|p| {
                let key = (&p.model, &p.scale, p.sparsity.to_bits(), p.seed);
                let slot = *slots.entry(key).or_insert(inputs.len());
                if slot == inputs.len() {
                    inputs.push(InputSlot::default());
                }
                inputs[slot].pending += 1;
                slot
            })
            .collect();
        let scoped = store.map(DiskStore::scoped);
        let mut cache = SimCache::new();
        if let Some(s) = &scoped {
            cache = cache.backed_by(s.clone());
        }
        let progress = Progress {
            results: vec![None; points.len()],
            inputs,
            ..Progress::default()
        };
        Self {
            id,
            name: request.name.clone(),
            points,
            collapsed,
            progress: Mutex::new(progress),
            changed: Condvar::new(),
            cache,
            context: SimContext::new(),
            store: scoped,
            slot_of,
            inputs_built: AtomicUsize::new(0),
        }
    }

    /// The shared input cell of point `index`, created empty by the first
    /// point of its key to ask; [`Job::record`] lets go of it.
    fn input_cell(&self, index: usize) -> InputCell {
        let mut p = self.progress.lock().unwrap();
        let slot = &mut p.inputs[self.slot_of[index]];
        Arc::clone(slot.cell.get_or_insert_with(Arc::default))
    }

    /// A snapshot of this job's status.
    pub fn status(&self) -> JobStatus {
        let p = self.progress.lock().unwrap();
        JobStatus {
            id: self.id.clone(),
            name: self.name.clone(),
            state: if p.done { "done" } else { "running" }.to_owned(),
            total: self.points.len(),
            completed: p.completed,
            failed: p.failed,
            counters: p.counters,
            store_enabled: self.store.is_some(),
            store: self
                .store
                .as_ref()
                .map(DiskStore::counters)
                .unwrap_or_default(),
            fingerprint: code_fingerprint().to_owned(),
        }
    }

    /// Failure messages accumulated so far.
    pub fn errors(&self) -> Vec<String> {
        self.progress.lock().unwrap().errors.clone()
    }

    /// Blocks until the job has processed every point.
    pub fn wait_done(&self) {
        let mut p = self.progress.lock().unwrap();
        while !p.done {
            p = self.changed.wait(p).unwrap();
        }
    }

    /// Blocks until the result for `index` is available and returns it,
    /// or returns `None` once the job is done and the point produced no
    /// result (it failed).
    pub fn result_at(&self, index: usize) -> Option<PointResult> {
        let mut p = self.progress.lock().unwrap();
        loop {
            let result = p.results.get(index)?;
            if result.is_some() || p.done {
                return result.clone();
            }
            p = self.changed.wait(p).unwrap();
        }
    }

    /// Blocks until there are events past `cursor` (or the job is done)
    /// and returns them with the advanced cursor and the done flag.
    pub fn events_after(&self, cursor: usize) -> (Vec<(String, String)>, usize, bool) {
        let mut p = self.progress.lock().unwrap();
        loop {
            if p.events.len() > cursor {
                return (p.events[cursor..].to_vec(), p.events.len(), p.done);
            }
            if p.done {
                return (Vec::new(), cursor, true);
            }
            p = self.changed.wait(p).unwrap();
        }
    }

    /// Content address of a point in the store's `points` blob channel.
    /// Deliberately excludes the grid `index`: the same physical point
    /// at a different grid position is still the same simulation.
    fn point_key(point: &SweepPoint) -> String {
        format!(
            "{}/{}/{}/{}/{}/{:016x}/{}",
            point.arch,
            point.ms,
            point.bw,
            point.model,
            point.scale,
            point.sparsity.to_bits(),
            point.seed
        )
    }

    /// Restores a previously persisted result for `point`, if the store
    /// holds one. Corrupt or foreign blobs read as a miss (the point is
    /// simply re-simulated and the blob overwritten).
    fn load_point(&self, point: &SweepPoint) -> Option<PointResult> {
        let store = self.store.as_ref()?;
        let text = store.load_blob("points", &Self::point_key(point))?;
        let mut result: PointResult = serde_json::from_str(&text).ok()?;
        // The blob may have been written under a different grid index.
        result.point = point.clone();
        Some(result)
    }

    /// Persists a finished point into the `points` blob channel so a
    /// later process can resume a sweep without re-simulating it.
    fn persist_point(&self, result: &PointResult) {
        if let Some(store) = &self.store {
            if let Ok(text) = serde_json::to_string(result) {
                store.save_blob("points", &Self::point_key(&result.point), &text);
            }
        }
    }

    /// Records a point restored from the store rather than simulated.
    fn record_resumed(&self, index: usize, result: PointResult) {
        self.progress.lock().unwrap().counters.resumed += 1;
        self.record(index, Ok((result, stonne::core::SimStats::default())));
    }

    /// Records one finished point, emits its event, drops the point's
    /// input set if it was the last to need it, and — on the last point —
    /// marks the job done and emits the `done` event carrying the final
    /// status.
    fn record(&self, index: usize, outcome: Result<(PointResult, stonne::core::SimStats), String>) {
        // Taken out under the lock, freed after it.
        let mut released = None;
        let finished = {
            let mut p = self.progress.lock().unwrap();
            let slot = &mut p.inputs[self.slot_of[index]];
            slot.pending -= 1;
            if slot.pending == 0 {
                released = slot.cell.take();
            }
            match outcome {
                Ok((result, stats)) => {
                    p.counters.engine_invocations += stats.engine_invocations;
                    p.counters.sim_cache_hits += stats.sim_cache_hits;
                    p.counters.sim_cache_misses += stats.sim_cache_misses;
                    let data = serde_json::to_string(&result)
                        .unwrap_or_else(|e| format!("{{\"error\":\"serialize: {e}\"}}"));
                    p.results[index] = Some(result);
                    p.completed += 1;
                    p.events.push(("point".to_owned(), data));
                }
                Err(message) => {
                    p.failed += 1;
                    p.errors.push(format!("point {index}: {message}"));
                    p.events.push((
                        "error".to_owned(),
                        format!(
                            "{{\"index\":{index},\"error\":{}}}",
                            crate::http::json_string(&message)
                        ),
                    ));
                }
            }
            p.completed + p.failed == self.points.len() && !p.done
        };
        drop(released);
        if finished {
            self.progress.lock().unwrap().done = true;
            // Status is read outside the progress lock; the job is
            // already `done`, so the snapshot is final.
            let status = serde_json::to_string(&self.status())
                .unwrap_or_else(|e| format!("{{\"error\":\"serialize: {e}\"}}"));
            self.progress
                .lock()
                .unwrap()
                .events
                .push(("done".to_owned(), status));
        }
        self.changed.notify_all();
    }
}

/// A unit of work on the shared queue: one point of one job.
struct Task {
    job: Arc<Job>,
    index: usize,
}

struct ManagerInner {
    jobs: Mutex<Vec<Arc<Job>>>,
    queue: Mutex<VecDeque<Task>>,
    available: Condvar,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    store: Option<DiskStore>,
}

/// The job registry plus the worker pool that executes submitted sweeps.
#[derive(Clone)]
pub struct JobManager {
    inner: Arc<ManagerInner>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl JobManager {
    /// Starts a manager with `workers` execution threads, optionally
    /// persisting layer results to `store`.
    pub fn new(workers: usize, store: Option<DiskStore>) -> Self {
        let inner = Arc::new(ManagerInner {
            jobs: Mutex::new(Vec::new()),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            store,
        });
        let mut handles = Vec::new();
        for w in 0..workers.max(1) {
            let inner = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("stonne-worker-{w}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker"),
            );
        }
        Self {
            inner,
            workers: Arc::new(Mutex::new(handles)),
        }
    }

    /// The server's store handle (process-lifetime counters), if any.
    pub fn store(&self) -> Option<&DiskStore> {
        self.inner.store.as_ref()
    }

    /// Validates and enqueues a sweep; returns the job immediately
    /// (execution is asynchronous).
    ///
    /// # Errors
    ///
    /// Returns the grid-validation message for malformed requests;
    /// nothing is enqueued in that case.
    pub fn submit(&self, request: &SweepRequest) -> Result<Arc<Job>, String> {
        Ok(self.enqueue(request, expand(request)?))
    }

    /// Registers `expansion` as a job and queues its points key-major:
    /// all points of one input set before any of the next (sets in order
    /// of first occurrence, points of a set in `index` order).
    fn enqueue(&self, request: &SweepRequest, expansion: Expansion) -> Arc<Job> {
        let id = format!(
            "job-{:04}",
            self.inner.next_id.fetch_add(1, Ordering::Relaxed)
        );
        let job = Arc::new(Job::new(id, request, expansion, self.inner.store.as_ref()));
        self.inner.jobs.lock().unwrap().push(Arc::clone(&job));
        let mut order: Vec<usize> = (0..job.points.len()).collect();
        order.sort_by_key(|&index| job.slot_of[index]);
        {
            let mut queue = self.inner.queue.lock().unwrap();
            for index in order {
                queue.push_back(Task {
                    job: Arc::clone(&job),
                    index,
                });
            }
        }
        self.inner.available.notify_all();
        job
    }

    /// Looks up a job by id.
    pub fn job(&self, id: &str) -> Option<Arc<Job>> {
        self.inner
            .jobs
            .lock()
            .unwrap()
            .iter()
            .find(|j| j.id == id)
            .cloned()
    }

    /// All jobs in submission order.
    pub fn jobs(&self) -> Vec<Arc<Job>> {
        self.inner.jobs.lock().unwrap().clone()
    }

    /// Stops the worker pool. Queued-but-unstarted work is abandoned;
    /// in-flight points finish first.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.available.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().unwrap());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &ManagerInner) {
    loop {
        let task = {
            let mut queue = inner.queue.lock().unwrap();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                queue = inner.available.wait(queue).unwrap();
            }
        };
        let job = &task.job;
        let point = &job.points[task.index];
        // Resume first: a previous process may have persisted this exact
        // point already.
        if let Some(result) = job.load_point(point) {
            job.record_resumed(task.index, result);
            continue;
        }
        let cell = job.input_cell(task.index);
        let inputs = cell.get_or_init(|| {
            job.inputs_built.fetch_add(1, Ordering::Relaxed);
            catching(|| build_inputs(point))
        });
        let outcome = match inputs {
            Ok(inputs) => catching(|| run_point_on(point, inputs, &job.cache, &job.context)),
            Err(message) => Err(format!("inputs: {message}")),
        };
        drop(cell);
        if let Ok((result, _)) = &outcome {
            job.persist_point(result);
        }
        job.record(task.index, outcome);
    }
}

/// Runs `f`, turning a panic into an `Err`: a panicking generator or
/// engine must fail the point, not kill the worker.
fn catching<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "engine panicked".to_owned());
        Err(format!("panic: {msg}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ArchSpec, ModelSel};

    fn small_request() -> SweepRequest {
        SweepRequest {
            name: "unit".into(),
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
            seed: 11,
        }
    }

    #[test]
    fn jobs_run_to_completion_and_stream_in_order() {
        let manager = JobManager::new(2, None);
        let job = manager.submit(&small_request()).unwrap();
        job.wait_done();
        let status = job.status();
        assert_eq!(status.state, "done");
        assert_eq!((status.completed, status.failed), (2, 0));
        assert!(status.counters.engine_invocations > 0);
        assert!(!status.store_enabled);
        for (i, point) in job.points.iter().enumerate() {
            let result = job.result_at(i).expect("every point succeeded");
            assert_eq!(result.point, *point);
        }
        let (events, _, done) = job.events_after(0);
        assert!(done);
        assert_eq!(events.len(), 3, "2 point events + done");
        assert_eq!(events.last().unwrap().0, "done");
        manager.shutdown();
    }

    #[test]
    fn warm_job_is_served_from_the_store() {
        let dir = std::env::temp_dir().join(format!("stonne-serve-job-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let manager = JobManager::new(2, Some(store));
        let cold = manager.submit(&small_request()).unwrap();
        cold.wait_done();
        let cold_status = cold.status();
        assert!(cold_status.counters.engine_invocations > 0);
        assert!(cold_status.store.writes > 0);

        let warm = manager.submit(&small_request()).unwrap();
        warm.wait_done();
        let warm_status = warm.status();
        // Finished points were persisted whole, so the warm job resumes
        // them from the blob channel without simulating (or even
        // re-assembling from layer entries).
        assert_eq!(warm_status.counters.engine_invocations, 0);
        assert_eq!(warm_status.counters.resumed as usize, warm.points.len());
        // Byte-identical results regardless of which side of the store
        // a point was computed on.
        for i in 0..cold.points.len() {
            assert_eq!(
                serde_json::to_string(&cold.result_at(i).unwrap()).unwrap(),
                serde_json::to_string(&warm.result_at(i).unwrap()).unwrap(),
            );
        }
        manager.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The kill-and-resume guarantee: a sweep finished by one process is
    /// resumed by a *fresh* process (new `JobManager`, new `DiskStore`
    /// handle on the same directory) entirely from persisted per-point
    /// checkpoints — zero engine invocations, byte-identical results.
    #[test]
    fn killed_server_resumes_a_job_from_a_fresh_process() {
        let dir = std::env::temp_dir().join(format!("stonne-serve-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let first = JobManager::new(2, Some(DiskStore::open(&dir).unwrap()));
        let before = first.submit(&small_request()).unwrap();
        before.wait_done();
        assert!(before.status().counters.engine_invocations > 0);
        let before_results: Vec<String> = (0..before.points.len())
            .map(|i| serde_json::to_string(&before.result_at(i).unwrap()).unwrap())
            .collect();
        // Simulate a kill: the whole manager (workers, cache, store
        // handle) goes away; only the on-disk directory survives.
        first.shutdown();
        drop(before);

        let second = JobManager::new(2, Some(DiskStore::open(&dir).unwrap()));
        let after = second.submit(&small_request()).unwrap();
        after.wait_done();
        let status = after.status();
        assert_eq!(status.state, "done");
        assert_eq!(status.counters.engine_invocations, 0);
        assert_eq!(status.counters.resumed as usize, after.points.len());
        for (i, expected) in before_results.iter().enumerate() {
            assert_eq!(
                &serde_json::to_string(&after.result_at(i).unwrap()).unwrap(),
                expected,
            );
        }
        second.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// 1 model x 3 archs x 2 sparsities: six points, two input sets.
    fn shared_request() -> SweepRequest {
        let mut r = small_request();
        r.archs.push(ArchSpec {
            arch: "sigma".into(),
            ms: 32,
            bw: 16,
        });
        r.sparsities = vec![0.0, 0.6];
        r
    }

    /// Input sets a job currently holds.
    fn inputs_alive(job: &Job) -> usize {
        let p = job.progress.lock().unwrap();
        p.inputs.iter().filter(|slot| slot.cell.is_some()).count()
    }

    fn result_lines(job: &Job) -> Vec<String> {
        job.wait_done();
        (0..job.points.len())
            .map(|i| serde_json::to_string(&job.result_at(i).unwrap()).unwrap())
            .collect()
    }

    #[test]
    fn points_share_one_input_set_per_key_whatever_the_worker_count() {
        let fresh: Vec<String> = expand(&shared_request())
            .unwrap()
            .points
            .iter()
            .map(|p| {
                let inputs = build_inputs(p).unwrap();
                let (cache, context) = (SimCache::new(), SimContext::new());
                let (result, _) = run_point_on(p, &inputs, &cache, &context).unwrap();
                serde_json::to_string(&result).unwrap()
            })
            .collect();
        for workers in [1, 4] {
            let manager = JobManager::new(workers, None);
            let job = manager.submit(&shared_request()).unwrap();
            assert_eq!(job.slot_of, [0, 1, 0, 1, 0, 1]);
            assert_eq!(result_lines(&job), fresh, "{workers} workers");
            assert_eq!(job.inputs_built.load(Ordering::Relaxed), 2);
            assert_eq!(inputs_alive(&job), 0, "released with the last point");
            assert_eq!(job.status().failed, 0);
            manager.shutdown();
        }
    }

    #[test]
    fn tasks_are_queued_key_major() {
        // No workers drain the queue before it is inspected.
        let manager = JobManager::new(1, None);
        manager.shutdown();
        manager.submit(&shared_request()).unwrap();
        let queue = manager.inner.queue.lock().unwrap();
        let order: Vec<usize> = queue.iter().map(|t| t.index).collect();
        assert_eq!(order, [0, 2, 4, 1, 3, 5]);
    }

    #[test]
    fn fully_resumed_job_builds_no_inputs() {
        let dir =
            std::env::temp_dir().join(format!("stonne-serve-noinputs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manager = JobManager::new(2, Some(DiskStore::open(&dir).unwrap()));
        let cold = manager.submit(&shared_request()).unwrap();
        let cold_lines = result_lines(&cold);
        assert_eq!(cold.inputs_built.load(Ordering::Relaxed), 2);

        let warm = manager.submit(&shared_request()).unwrap();
        assert_eq!(result_lines(&warm), cold_lines);
        assert_eq!(warm.status().counters.resumed, 6);
        assert_eq!(warm.inputs_built.load(Ordering::Relaxed), 0);
        assert_eq!(inputs_alive(&warm), 0);
        manager.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A set that cannot be built fails exactly the points that needed
    /// it, with a message; its neighbours and later jobs are unaffected
    /// and nothing hangs.
    #[test]
    fn unbuildable_inputs_fail_only_their_own_points() {
        let request = shared_request();
        let mut expansion = expand(&request).unwrap();
        // Invalid only after `expand`: one Err key, one panicking key
        // (sparsity outside [0, 1] trips the pruning assert), one valid.
        for p in &mut expansion.points {
            if p.sparsity == 0.0 {
                p.model = "no-such-model".into();
            } else if p.arch == "tpu" {
                p.sparsity = 1.5;
            }
        }
        let manager = JobManager::new(4, None);
        let job = manager.enqueue(&request, expansion);
        job.wait_done();
        let status = job.status();
        assert_eq!((status.completed, status.failed), (2, 4));
        let errors = job.errors();
        assert_eq!(errors.len(), 4);
        for index in [0, 2, 4] {
            assert!(job.result_at(index).is_none());
            let prefix = format!("point {index}: inputs: unknown model");
            assert!(errors.iter().any(|e| e.starts_with(&prefix)), "{errors:?}");
        }
        let prefix = "point 3: inputs: panic: target sparsity";
        assert!(errors.iter().any(|e| e.starts_with(prefix)), "{errors:?}");
        assert!(job.result_at(1).unwrap().cycles > 0);
        assert!(job.result_at(5).unwrap().cycles > 0);
        assert_eq!(job.inputs_built.load(Ordering::Relaxed), 3);
        assert_eq!(inputs_alive(&job), 0);

        let later = manager.submit(&small_request()).unwrap();
        later.wait_done();
        assert_eq!(later.status().failed, 0);
        manager.shutdown();
    }

    #[test]
    fn duplicate_axis_values_collapse_at_submission() {
        let manager = JobManager::new(1, None);
        let mut r = small_request();
        r.sparsities = vec![0.0, 0.0, 0.0];
        let job = manager.submit(&r).unwrap();
        assert_eq!(job.points.len(), 2, "duplicates are not simulated");
        assert_eq!(job.collapsed, 4);
        job.wait_done();
        assert_eq!(job.status().completed, 2);
        manager.shutdown();
    }

    #[test]
    fn submit_rejects_invalid_grids() {
        let manager = JobManager::new(1, None);
        let mut bad = small_request();
        bad.archs[0].arch = "torus".into();
        assert!(manager.submit(&bad).is_err());
        assert!(manager.jobs().is_empty());
        manager.shutdown();
    }
}
