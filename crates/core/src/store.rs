//! Disk-persistent, content-addressed layer-result store.
//!
//! [`crate::SimCache`] memoizes engine outcomes in memory, so repeated
//! layer shapes inside one process simulate once — but the cache dies
//! with the process, and every figure/fuzz/bench/serve run starts cold.
//! [`DiskStore`] extends the same memoization across processes and
//! restarts: entries are serialized to one JSON file each under
//!
//! ```text
//! <root>/<code-fingerprint>/<digest-of-canonical-key>.json
//! ```
//!
//! The filename is a 128-bit content digest of the canonical cache-key
//! text (the `CacheKey` the in-memory cache already
//! uses: config string + per-engine geometry/pattern signatures), and
//! the file also records the full key text so a digest collision is
//! detected on load and treated as a miss rather than replayed.
//!
//! **Invalidation is by namespace, not by deletion.** The fingerprint
//! directory name encodes the package version plus a build-time hash of
//! every simulation source file (see `crates/core/build.rs`), so a code
//! change — even an uncommitted one-line edit to an engine — reads and
//! writes a fresh directory and can never replay stale cycle counts.
//! Old fingerprint directories are inert and can be deleted freely.
//!
//! **Robustness.** A corrupt or truncated entry file (killed process,
//! full disk, manual tampering) is treated as a miss: it is counted,
//! logged to stderr, deleted best-effort, and overwritten by the next
//! insert of that key. A bounded store (`with_max_entries`) evicts the
//! oldest entries (by file modification time) once the cap is exceeded.
//!
//! Attach a store to a cache with [`crate::SimCache::backed_by`]; the
//! sweep server (`crates/serve`) wires one under every job and reports
//! the per-job [`StoreCounters`] in its job status.

use crate::cache::{CacheEntry, CacheKey};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Returns the code-version fingerprint of this build: the package
/// version plus a hash over every simulation source file (this crate,
/// the tensor substrate and the DRAM model), computed at compile time by
/// `crates/core/build.rs`. Two binaries share a fingerprint exactly when
/// their simulation sources are identical, which is the condition under
/// which replaying each other's stored results is sound.
pub fn code_fingerprint() -> &'static str {
    env!("STONNE_CODE_FINGERPRINT")
}

/// Snapshot of a store handle's activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreCounters {
    /// Entries successfully loaded from disk.
    pub hits: u64,
    /// Lookups that found no usable entry on disk.
    pub misses: u64,
    /// Entries written to disk.
    pub writes: u64,
    /// Entries evicted to respect the `max_entries` bound.
    pub evictions: u64,
    /// Corrupt/truncated/colliding entry files encountered (each is also
    /// counted as a miss).
    pub corrupt: u64,
}

/// Interior atomic cells behind a [`StoreCounters`] snapshot.
#[derive(Debug, Default)]
struct CounterCells {
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
    corrupt: AtomicU64,
}

impl CounterCells {
    fn snapshot(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }
}

/// State shared by every clone of one opened store (the clones differ
/// only in which counter cells they charge).
#[derive(Debug)]
struct StoreInner {
    /// `<root>/<fingerprint>` — the directory entries live in.
    dir: PathBuf,
    fingerprint: String,
    /// Approximate number of entry files (maintained, not re-scanned).
    entries: AtomicUsize,
}

/// Process-wide sequence for unique temporary-file names, so concurrent
/// writers into one directory never collide.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `text` to `path` atomically: the bytes land in a uniquely
/// named `tmp-*.part` file inside `dir` (same filesystem, so the rename
/// is atomic) and are renamed into place only when complete. A killed
/// process can leave a stale `.part` file behind but never a
/// half-written entry under the final name.
fn atomic_write_text(dir: &Path, path: &Path, text: &str) -> io::Result<()> {
    let tmp = dir.join(format!(
        "tmp-{}-{}.part",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if let Err(e) = fs::write(&tmp, text) {
        fs::remove_file(&tmp).ok();
        return Err(e);
    }
    if let Err(e) = fs::rename(&tmp, path) {
        fs::remove_file(&tmp).ok();
        return Err(e);
    }
    Ok(())
}

/// The serialized form of one auxiliary blob file (see
/// [`DiskStore::save_blob`]).
#[derive(Serialize, Deserialize)]
struct StoredBlob {
    /// Full key text, checked on load to rule out digest collisions.
    key: String,
    /// The opaque payload.
    text: String,
}

/// The serialized form of one entry file.
#[derive(Serialize, Deserialize)]
struct StoredEntry {
    /// Full canonical key text, checked on load to rule out digest
    /// collisions (and handy when inspecting the store by hand).
    key: String,
    /// The memoized engine outcome.
    entry: CacheEntry,
}

/// A handle to a disk-persistent, content-addressed result store.
///
/// Cloning (and [`DiskStore::scoped`]) shares the underlying directory
/// and entry bookkeeping; `scoped` additionally gives the clone fresh
/// counters that still roll up into the parent's, so a server can report
/// both per-job and whole-process store activity.
///
/// ```
/// use stonne_core::{AcceleratorConfig, DiskStore, SimCache, Stonne};
/// use stonne_tensor::{Matrix, SeededRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let root = std::env::temp_dir().join(format!("stonne-store-doc-{}", std::process::id()));
/// # std::fs::remove_dir_all(&root).ok();
/// let store = DiskStore::open(&root)?;
/// let cache = SimCache::new().backed_by(store.clone());
/// let mut sim = Stonne::new(AcceleratorConfig::tpu_like(4))?.with_cache(cache);
/// let mut rng = SeededRng::new(1);
/// let (a, b) = (Matrix::random(4, 8, &mut rng), Matrix::random(8, 4, &mut rng));
/// sim.run_gemm("g", &a, &b);
/// assert_eq!(store.counters().writes, 1); // persisted for the next process
/// # std::fs::remove_dir_all(&root).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DiskStore {
    inner: Arc<StoreInner>,
    counters: Arc<CounterCells>,
    /// Parent counters this handle also charges (see [`DiskStore::scoped`]).
    parent: Option<Arc<CounterCells>>,
    /// Entry-count bound; `None` means unbounded.
    max_entries: Option<usize>,
}

impl DiskStore {
    /// Opens (creating if needed) the store rooted at `root`, namespaced
    /// under this build's [`code_fingerprint`].
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be created or read.
    pub fn open(root: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_versioned(root, code_fingerprint())
    }

    /// Opens the store under an explicit fingerprint namespace instead of
    /// this build's own — useful in tests and for tooling that inspects
    /// foreign namespaces. Entries written by a different fingerprint are
    /// invisible to this handle by construction.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be created or read.
    pub fn open_versioned(root: impl AsRef<Path>, fingerprint: &str) -> io::Result<Self> {
        let safe: String = fingerprint
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let dir = root.as_ref().join(&safe);
        fs::create_dir_all(&dir)?;
        let entries = fs::read_dir(&dir)?
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
            .count();
        Ok(Self {
            inner: Arc::new(StoreInner {
                dir,
                fingerprint: safe,
                entries: AtomicUsize::new(entries),
            }),
            counters: Arc::new(CounterCells::default()),
            parent: None,
            max_entries: None,
        })
    }

    /// Bounds the store to at most `n` entries; inserts beyond the bound
    /// evict the oldest entries (by file modification time). The bound is
    /// carried by this handle and its [`DiskStore::scoped`] children.
    #[must_use]
    pub fn with_max_entries(mut self, n: usize) -> Self {
        self.max_entries = Some(n.max(1));
        self
    }

    /// A handle onto the same store with fresh counters that also roll up
    /// into this handle's — the sweep server gives each job a scoped
    /// handle so job status can report per-job store activity while the
    /// root handle keeps the process-wide totals.
    #[must_use]
    pub fn scoped(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
            counters: Arc::new(CounterCells::default()),
            parent: Some(Arc::clone(&self.counters)),
            max_entries: self.max_entries,
        }
    }

    /// This handle's counter snapshot (scoped handles count only their
    /// own activity; parents accumulate all their children's).
    pub fn counters(&self) -> StoreCounters {
        self.counters.snapshot()
    }

    /// The fingerprint namespace this handle reads and writes.
    pub fn fingerprint(&self) -> &str {
        &self.inner.fingerprint
    }

    /// The directory entries live in (`<root>/<fingerprint>`).
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Number of entries currently on disk (maintained approximately;
    /// exact when nothing else mutates the directory).
    pub fn len(&self) -> usize {
        self.inner.entries.load(Ordering::Relaxed)
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn bump(&self, f: impl Fn(&CounterCells) -> &AtomicU64) {
        f(&self.counters).fetch_add(1, Ordering::Relaxed);
        if let Some(parent) = &self.parent {
            f(parent).fetch_add(1, Ordering::Relaxed);
        }
    }

    fn entry_path(&self, canonical: &str) -> PathBuf {
        self.inner
            .dir
            .join(format!("{}.json", digest128(canonical)))
    }

    /// Loads the entry stored under `key`, if a valid one exists.
    /// Corrupt, truncated or digest-colliding files count as misses (and
    /// as `corrupt`), are logged, and are removed so the next insert
    /// overwrites them cleanly.
    pub(crate) fn load(&self, key: &CacheKey) -> Option<CacheEntry> {
        let canonical = key.canonical();
        let path = self.entry_path(&canonical);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.bump(|c| &c.misses);
                return None;
            }
            Err(e) => {
                self.bump(|c| &c.misses);
                self.bump(|c| &c.corrupt);
                eprintln!("stonne-store: unreadable entry {}: {e}", path.display());
                return None;
            }
        };
        let stored: StoredEntry = match serde_json::from_str(&text) {
            Ok(stored) => stored,
            Err(e) => {
                self.bump(|c| &c.misses);
                self.bump(|c| &c.corrupt);
                eprintln!(
                    "stonne-store: corrupt entry {} ({e:?}); treating as a miss",
                    path.display()
                );
                if fs::remove_file(&path).is_ok() {
                    self.inner.entries.fetch_sub(1, Ordering::Relaxed);
                }
                return None;
            }
        };
        if stored.key != canonical {
            // A 128-bit digest collision — astronomically unlikely, but
            // replaying the wrong entry would be silently wrong forever.
            self.bump(|c| &c.misses);
            self.bump(|c| &c.corrupt);
            eprintln!(
                "stonne-store: digest collision at {}; treating as a miss",
                path.display()
            );
            return None;
        }
        self.bump(|c| &c.hits);
        Some(stored.entry)
    }

    /// Persists `entry` under `key`, atomically (write-then-rename) so a
    /// killed process can never leave a half-written entry in place.
    pub(crate) fn save(&self, key: &CacheKey, entry: &CacheEntry) {
        let canonical = key.canonical();
        let path = self.entry_path(&canonical);
        let stored = StoredEntry {
            key: canonical,
            entry: entry.clone(),
        };
        let Ok(text) = serde_json::to_string(&stored) else {
            return;
        };
        let existed = path.exists();
        if let Err(e) = atomic_write_text(&self.inner.dir, &path, &text) {
            eprintln!("stonne-store: failed to persist {} ({e})", path.display());
            return;
        }
        self.bump(|c| &c.writes);
        if !existed {
            self.inner.entries.fetch_add(1, Ordering::Relaxed);
        }
        self.enforce_bound();
    }

    /// Persists an auxiliary, content-addressed blob next to (but
    /// outside) the cache-entry namespace: the file lands under
    /// `<dir>/<kind>/<digest-of-key>.json` with the full key stored
    /// inside, so digest collisions degrade to misses exactly like
    /// cache entries. Blobs do not count toward `len()` and are never
    /// evicted — the sweep server uses this channel for per-point job
    /// checkpoints (see `crates/serve`). Returns whether the write
    /// landed (failures are logged, not fatal, matching `save`).
    pub fn save_blob(&self, kind: &str, key: &str, text: &str) -> bool {
        let dir = self.inner.dir.join(kind);
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!("stonne-store: cannot create {} ({e})", dir.display());
            return false;
        }
        let path = dir.join(format!("{}.json", digest128(key)));
        let stored = StoredBlob {
            key: key.to_owned(),
            text: text.to_owned(),
        };
        let Ok(json) = serde_json::to_string(&stored) else {
            return false;
        };
        if let Err(e) = atomic_write_text(&dir, &path, &json) {
            eprintln!("stonne-store: failed to persist {} ({e})", path.display());
            return false;
        }
        true
    }

    /// Loads the blob stored under `(kind, key)`, if a valid one
    /// exists. Corrupt or colliding files are removed best-effort and
    /// treated as absent.
    pub fn load_blob(&self, kind: &str, key: &str) -> Option<String> {
        let path = self
            .inner
            .dir
            .join(kind)
            .join(format!("{}.json", digest128(key)));
        let text = fs::read_to_string(&path).ok()?;
        let stored: StoredBlob = match serde_json::from_str(&text) {
            Ok(stored) => stored,
            Err(e) => {
                eprintln!(
                    "stonne-store: corrupt blob {} ({e:?}); treating as absent",
                    path.display()
                );
                fs::remove_file(&path).ok();
                return None;
            }
        };
        (stored.key == key).then_some(stored.text)
    }

    /// Evicts oldest entries (by modification time) while over the bound.
    fn enforce_bound(&self) {
        let Some(max) = self.max_entries else { return };
        while self.inner.entries.load(Ordering::Relaxed) > max {
            let Some(oldest) = self.oldest_entry() else {
                return;
            };
            if fs::remove_file(&oldest).is_ok() {
                self.inner.entries.fetch_sub(1, Ordering::Relaxed);
                self.bump(|c| &c.evictions);
            } else {
                return; // racing remover; give up rather than spin
            }
        }
    }

    /// The eviction victim: smallest mtime, ties broken by path so that
    /// entries written within one filesystem-timestamp tick still evict
    /// in a deterministic order.
    fn oldest_entry(&self) -> Option<PathBuf> {
        let entries = fs::read_dir(&self.inner.dir).ok()?;
        entries
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
            .filter_map(|e| {
                let modified = e.metadata().ok()?.modified().ok()?;
                Some((modified, e.path()))
            })
            .min_by(|(am, ap), (bm, bp)| am.cmp(bm).then_with(|| ap.cmp(bp)))
            .map(|(_, path)| path)
    }
}

/// The standard FNV-1a 64-bit offset basis.
const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 128-bit content digest of the canonical key text, rendered as 32 hex
/// characters: two independent 64-bit FNV-1a passes over the same bytes
/// with different offset bases. Collisions are additionally guarded by
/// the full key text stored inside every entry file. Also used to
/// derive cache signatures ([`crate::SimCache::key_signatures`]) and the
/// per-point result keys of the sweep server.
pub(crate) fn digest128(s: &str) -> String {
    format!(
        "{:016x}{:016x}",
        fnv1a(FNV_OFFSET_BASIS, s.as_bytes()),
        fnv1a(0x6c62_272e_07bb_0142, s.as_bytes())
    )
}

/// FNV-1a over `bytes` from an explicit offset basis — the one byte loop
/// behind [`digest128`] and [`StateHash`].
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// Incremental FNV-1a 64-bit hasher over canonical state bytes.
///
/// Uses the same loop and constants as the result store's content
/// digests (offset basis `0xcbf2_9ce4_8422_2325`, prime
/// `0x100_0000_01b3`), so one hashing discipline covers the whole
/// persistence layer. The hash is a pure function of the bytes fed in —
/// feed canonical representations (e.g. `f32::to_bits` little-endian) and
/// two runs that agree bitwise agree on the hash, on every platform.
///
/// ```
/// use stonne_core::StateHash;
///
/// let mut h = StateHash::new();
/// h.update(b"layer0");
/// h.update_u64(12345);
/// let first = h.finish();
/// assert_ne!(first, StateHash::new().finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateHash {
    state: u64,
}

impl Default for StateHash {
    fn default() -> Self {
        Self::new()
    }
}

impl StateHash {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self {
            state: FNV_OFFSET_BASIS,
        }
    }

    /// Absorbs raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = fnv1a(self.state, bytes);
    }

    /// Absorbs a `u64` as little-endian bytes.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Absorbs a `u32` as little-endian bytes (the exact-`f32` channel:
    /// feed `f32::to_bits`).
    pub fn update_u32(&mut self, v: u32) {
        self.update(&v.to_le_bytes());
    }

    /// Absorbs a string with a length prefix, so concatenations of
    /// different field splits cannot collide.
    pub fn update_str(&mut self, s: &str) {
        self.update_u64(s.len() as u64);
        self.update(s.as_bytes());
    }

    /// The current hash value (the hasher stays usable).
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheKey;
    use crate::config::AcceleratorConfig;
    use crate::stats::SimStats;

    fn tmp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("stonne-store-test-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&root).ok();
        root
    }

    fn key(m: usize) -> CacheKey {
        let cfg = AcceleratorConfig::tpu_like(4).to_cfg_string().into();
        CacheKey::systolic(&cfg, m, 8, 16)
    }

    fn entry(cycles: u64) -> CacheEntry {
        let stats = SimStats {
            operation: "op".into(),
            cycles,
            ..SimStats::default()
        };
        CacheEntry::new("op", &stats, &[])
    }

    #[test]
    fn roundtrips_an_entry_across_handles() {
        let root = tmp_root("roundtrip");
        let store = DiskStore::open(&root).unwrap();
        store.save(&key(3), &entry(123));
        assert_eq!(store.len(), 1);
        // A separately opened handle (a "restarted process") sees it.
        let reopened = DiskStore::open(&root).unwrap();
        let loaded = reopened.load(&key(3)).expect("persisted entry");
        assert_eq!(loaded.stats_for("op").cycles, 123);
        assert_eq!(reopened.counters().hits, 1);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_entry_counts_a_miss() {
        let root = tmp_root("miss");
        let store = DiskStore::open(&root).unwrap();
        assert!(store.load(&key(1)).is_none());
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.corrupt), (0, 1, 0));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn truncated_entry_is_a_logged_miss_then_overwritten() {
        let root = tmp_root("truncated");
        let store = DiskStore::open(&root).unwrap();
        store.save(&key(5), &entry(777));
        // Truncate the single entry file mid-JSON (a killed writer on a
        // non-atomic filesystem, a full disk, manual tampering …).
        let file = fs::read_dir(store.dir())
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.file_name().to_string_lossy().ends_with(".json"))
            .unwrap()
            .path();
        let full = fs::read_to_string(&file).unwrap();
        fs::write(&file, &full[..full.len() / 2]).unwrap();

        assert!(store.load(&key(5)).is_none(), "corrupt entry must miss");
        let c = store.counters();
        assert_eq!((c.misses, c.corrupt), (1, 1));
        assert!(!file.exists(), "corrupt entry is removed");

        // The next insert overwrites it cleanly and it loads again.
        store.save(&key(5), &entry(777));
        assert_eq!(store.load(&key(5)).unwrap().stats_for("x").cycles, 777);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn different_fingerprints_do_not_share_entries() {
        let root = tmp_root("fingerprint");
        let old = DiskStore::open_versioned(&root, "v0-old").unwrap();
        old.save(&key(2), &entry(9));
        let new = DiskStore::open_versioned(&root, "v0-new").unwrap();
        assert!(new.load(&key(2)).is_none(), "new code must not replay old");
        assert!(old.load(&key(2)).is_some());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn bounded_store_evicts_oldest() {
        let root = tmp_root("evict");
        let store = DiskStore::open(&root).unwrap().with_max_entries(2);
        for m in 0..3 {
            store.save(&key(m), &entry(m as u64));
            // Distinct mtimes even on coarse-granularity filesystems.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.counters().evictions, 1);
        assert!(store.load(&key(0)).is_none(), "oldest entry evicted");
        assert!(store.load(&key(2)).is_some());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn equal_mtime_eviction_is_deterministic_by_path() {
        let root = tmp_root("evict-tie");
        let store = DiskStore::open(&root).unwrap();
        for m in 0..3 {
            store.save(&key(m), &entry(m as u64));
        }
        // Force all entries into one timestamp tick — the situation a
        // coarse-granularity filesystem produces on its own.
        let stamp = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
        let mut paths: Vec<PathBuf> = fs::read_dir(store.dir())
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.to_string_lossy().ends_with(".json"))
            .collect();
        for path in &paths {
            let file = fs::File::options().write(true).open(path).unwrap();
            file.set_modified(stamp).unwrap();
        }
        paths.sort();
        // Bound at 2 and insert a (newer) fourth entry: two of the three
        // tied entries must go, and with the path tie-break it is exactly
        // the two lexicographically smallest.
        let bounded = DiskStore::open(&root).unwrap().with_max_entries(2);
        bounded.save(&key(9), &entry(9));
        let survivors: Vec<PathBuf> = fs::read_dir(bounded.dir())
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.to_string_lossy().ends_with(".json"))
            .collect();
        assert_eq!(survivors.len(), 2);
        assert_eq!(bounded.counters().evictions, 2);
        assert!(
            survivors.contains(&paths[2]),
            "largest tied path survives, kept {survivors:?} of {paths:?}"
        );
        assert!(!survivors.contains(&paths[0]) && !survivors.contains(&paths[1]));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn scoped_counters_roll_up_into_the_parent() {
        let root = tmp_root("scoped");
        let store = DiskStore::open(&root).unwrap();
        let job = store.scoped();
        job.save(&key(7), &entry(1));
        assert!(job.load(&key(7)).is_some());
        assert_eq!((job.counters().hits, job.counters().writes), (1, 1));
        assert_eq!((store.counters().hits, store.counters().writes), (1, 1));
        // A sibling scope starts from zero.
        let other = store.scoped();
        assert_eq!(other.counters(), StoreCounters::default());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn blobs_roundtrip_outside_the_entry_namespace() {
        let root = tmp_root("blob");
        let store = DiskStore::open(&root).unwrap();
        assert!(store.save_blob("points", "point-key", "{\"cycles\":7}"));
        assert_eq!(
            store.load_blob("points", "point-key").as_deref(),
            Some("{\"cycles\":7}")
        );
        assert_eq!(store.load_blob("points", "other-key"), None);
        // Blobs are invisible to entry bookkeeping and eviction.
        assert_eq!(store.len(), 0);
        let reopened = DiskStore::open(&root).unwrap();
        assert_eq!(reopened.len(), 0);
        assert_eq!(
            reopened.load_blob("points", "point-key").as_deref(),
            Some("{\"cycles\":7}")
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_blob_is_absent_and_healed() {
        let root = tmp_root("blob-corrupt");
        let store = DiskStore::open(&root).unwrap();
        store.save_blob("points", "k", "payload");
        let file = fs::read_dir(store.dir().join("points"))
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.file_name().to_string_lossy().ends_with(".json"))
            .unwrap()
            .path();
        let full = fs::read_to_string(&file).unwrap();
        fs::write(&file, &full[..full.len() / 2]).unwrap();
        assert_eq!(store.load_blob("points", "k"), None);
        assert!(!file.exists(), "corrupt blob removed");
        store.save_blob("points", "k", "payload");
        assert_eq!(store.load_blob("points", "k").as_deref(), Some("payload"));
        fs::remove_dir_all(&root).ok();
    }

    /// Concurrent `scoped()` handles hammering a bounded store must
    /// never panic or lose the bound: eviction races (a victim already
    /// removed by a sibling) back off rather than spin, and all
    /// counters still roll up into the parent.
    #[test]
    fn bounded_store_survives_racing_scoped_handles() {
        let root = tmp_root("evict-race");
        let store = DiskStore::open(&root).unwrap().with_max_entries(4);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let scoped = store.scoped();
                scope.spawn(move || {
                    for m in 0..12 {
                        scoped.save(&key(t * 100 + m), &entry(m as u64));
                        // Interleave loads so evicted-underneath reads
                        // exercise the miss path concurrently.
                        scoped.load(&key(t * 100 + m));
                    }
                });
            }
        });
        // The maintained count and the directory agree, and the bound
        // holds once the dust settles.
        let on_disk = fs::read_dir(store.dir())
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
            .count();
        assert_eq!(store.len(), on_disk);
        assert!(on_disk <= 4, "bound violated: {on_disk} entries");
        let c = store.counters();
        assert_eq!(c.writes, 48, "every save rolled up");
        assert!(c.evictions >= 44, "evictions rolled up: {c:?}");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fingerprint_is_nonempty_and_path_safe() {
        let fp = code_fingerprint();
        assert!(fp.starts_with('v'), "fingerprint {fp:?}");
        assert!(fp
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_')));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        let mut h = StateHash::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = StateHash::new();
        h.update(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn length_prefixed_strings_do_not_collide_on_splits() {
        let mut a = StateHash::new();
        a.update_str("ab");
        a.update_str("c");
        let mut b = StateHash::new();
        b.update_str("a");
        b.update_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn digest128_starts_with_the_state_hash_of_the_same_bytes() {
        let mut h = StateHash::new();
        h.update(b"x");
        assert_eq!(digest128("x")[..16], format!("{:016x}", h.finish()));
    }
}
