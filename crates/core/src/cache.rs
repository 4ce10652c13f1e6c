//! Layer-simulation memoization cache.
//!
//! Full-model simulation meets the same layer shape over and over —
//! BERT-base repeats 12 identical encoder layers, ResNet-50 repeats its
//! bottleneck stages. The cycle-level outcome of an engine invocation is
//! fully determined by a *canonical key*: the accelerator configuration,
//! the operation kind and geometry, the tile/mapping, and (for sparse
//! runs) the stationary operand's sparsity pattern plus the schedule
//! identity. [`SimCache`] memoizes [`SimStats`] under that key so a
//! repeated layer costs one accounting walk; the *functional* output is
//! never memoized — hit or miss, it comes from the engine's one
//! `functional` kernel — so cached and uncached runs are bitwise
//! identical in both cycle counts and outputs.
//!
//! What the key deliberately excludes:
//!
//! * **Operand values** (dense paths) — timing of the systolic and
//!   flexible engines is value-independent; two encoder layers with
//!   different weights share one entry.
//! * **DRAM parameters** — entries store *pre-DRAM* stats; the
//!   accelerator re-applies DRAM stalls deterministically on every call.
//!
//! What it includes that is easy to miss:
//!
//! * the **Global-Buffer address map** of dense operands, as its
//!   base-relative generator ([`AddrMap`]: a handful of integers, never
//!   the expanded map), because convolution window overlap changes
//!   multicast delivery cycles;
//! * the **CSR pattern** (per-row column indices) of sparse stationary
//!   operands, because packing and delivery depend on it;
//! * the **streaming operand's zero mask** when
//!   `exploit_activation_sparsity` is on, because delivery then depends
//!   on activation values being zero;
//! * the **schedule token** ([`crate::RowSchedule::cache_token`]), so a
//!   seeded random order and a natural order never share entries.
//!
//! Pattern-shaped key components are folded into 64-bit hashes; with the
//! handful of distinct shapes a model zoo produces, collisions are
//! negligible. Entries are never invalidated — every varying input is
//! part of the key — so sharing one cache across sweep points of a bench
//! harness is safe (the config string disambiguates architectures).

use crate::config::AcceleratorConfig;
use crate::engine::flexible::AddrMap;
use crate::engine::sparse::{IterationInfo, RowSchedule};
use crate::mapping::{LayerDims, Tile};
use crate::stats::SimStats;
use crate::store::DiskStore;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use stonne_tensor::{CsrMatrix, Matrix};

/// The operation-specific part of a cache key. Never serialized: the disk
/// store addresses entries by [`CacheKey::canonical`], the `Debug` text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum KeyKind {
    /// Systolic GEMM: timing depends only on the problem extents.
    Systolic {
        /// Stationary rows.
        m: usize,
        /// Streaming columns.
        n: usize,
        /// Inner dimension.
        k: usize,
    },
    /// Flexible dense engine run.
    Dense {
        /// Layer descriptor (drives position chunking).
        layer: LayerDims,
        /// Committed tile.
        tile: Tile,
        /// Stationary rows.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Streaming columns.
        n: usize,
        /// Generator of the base-relative GB address map (multicast
        /// pattern).
        addrs: AddrMap,
    },
    /// Sparse engine run.
    Spmm {
        /// Stationary rows.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Streaming columns.
        n: usize,
        /// Hash of the CSR structure (row extents + column indices).
        pattern_hash: u64,
        /// Hash of the streaming operand's zero mask; `None` unless the
        /// configuration exploits activation sparsity.
        b_zero_hash: Option<u64>,
        /// Schedule identity token.
        schedule: String,
        /// Whether the schedule allows skip-ahead packing.
        allow_skip: bool,
    },
    /// Max-pool run: timing depends only on shape.
    Pool {
        /// Input tensor shape `(n, c, h, w)`.
        shape: (usize, usize, usize, usize),
        /// Pooling window.
        window: usize,
        /// Pooling stride.
        stride: usize,
    },
}

/// Canonical cache key: accelerator configuration + operation identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// The configuration's `key = value` serialization (covers every
    /// timing-relevant hardware parameter except DRAM, which is re-applied
    /// outside the cached stats) — formatted once per [`crate::Stonne`]
    /// instance and shared into every key it builds.
    cfg: Arc<str>,
    kind: KeyKind,
}

fn hasher() -> DefaultHasher {
    DefaultHasher::new()
}

/// Hashes the structure (not the values) of a CSR operand.
fn csr_pattern_hash(a: &CsrMatrix) -> u64 {
    let mut h = hasher();
    a.rows().hash(&mut h);
    a.cols().hash(&mut h);
    for r in 0..a.rows() {
        a.row_nnz(r).hash(&mut h);
        for (k, _) in a.row_entries(r) {
            k.hash(&mut h);
        }
    }
    h.finish()
}

/// Hashes the zero mask of a streaming operand (activation sparsity).
fn zero_mask_hash(b: &Matrix) -> u64 {
    let mut h = hasher();
    b.rows().hash(&mut h);
    b.cols().hash(&mut h);
    for (i, &v) in b.as_slice().iter().enumerate() {
        if v == 0.0 {
            i.hash(&mut h);
        }
    }
    h.finish()
}

impl CacheKey {
    /// Canonical text form of the key — the content the disk store
    /// addresses by. The derived `Debug` rendering is used verbatim: it
    /// covers every field in declaration order and is stable across runs
    /// (struct/variant shape only changes when the source changes, which
    /// also changes the store's code fingerprint).
    pub(crate) fn canonical(&self) -> String {
        format!("{self:?}")
    }

    pub(crate) fn systolic(cfg: &Arc<str>, m: usize, n: usize, k: usize) -> Self {
        let cfg = Arc::clone(cfg);
        let kind = KeyKind::Systolic { m, n, k };
        Self { cfg, kind }
    }

    pub(crate) fn dense(cfg: &Arc<str>, layer: &LayerDims, tile: &Tile, addrs: &AddrMap) -> Self {
        let ((m, k, n), addrs) = (layer.gemm_extents(), *addrs);
        Self {
            cfg: Arc::clone(cfg),
            kind: KeyKind::Dense {
                layer: *layer,
                tile: *tile,
                m,
                k,
                n,
                addrs,
            },
        }
    }

    /// `b` is the streaming operand, read (for its zero mask) only when
    /// the configuration exploits activation sparsity.
    pub(crate) fn spmm(
        config: &AcceleratorConfig,
        cfg: &Arc<str>,
        a: &CsrMatrix,
        n: usize,
        b: Option<&Matrix>,
        schedule: &dyn RowSchedule,
    ) -> Self {
        let b_zero_hash = config
            .exploit_activation_sparsity
            .then(|| zero_mask_hash(b.expect(NEEDS_ACTIVATIONS)));
        Self {
            cfg: Arc::clone(cfg),
            kind: KeyKind::Spmm {
                m: a.rows(),
                k: a.cols(),
                n,
                pattern_hash: csr_pattern_hash(a),
                b_zero_hash,
                schedule: schedule.cache_token(),
                allow_skip: schedule.allow_skip(),
            },
        }
    }

    pub(crate) fn pool(
        cfg: &Arc<str>,
        shape: (usize, usize, usize, usize),
        window: usize,
        stride: usize,
    ) -> Self {
        Self {
            cfg: Arc::clone(cfg),
            kind: KeyKind::Pool {
                shape,
                window,
                stride,
            },
        }
    }
}

/// Panic message of a shape-level (`time_*`) call on a configuration whose
/// timing reads activation values.
pub(crate) const NEEDS_ACTIVATIONS: &str =
    "exploit_activation_sparsity makes timing depend on activation values: use run_*";

/// One memoized engine outcome. Serializable so the disk store
/// ([`crate::DiskStore`]) can persist entries across processes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CacheEntry {
    /// Pre-DRAM stats with `operation` cleared and cache counters zeroed.
    stats: SimStats,
    /// Suffix the engine appended to the operation name (e.g. `" [IS]"`),
    /// re-attached to the hitting call's own name.
    suffix: String,
    /// Packing info of sparse runs (empty otherwise).
    iterations: Vec<IterationInfo>,
}

impl CacheEntry {
    pub(crate) fn new(name: &str, stats: &SimStats, iterations: &[IterationInfo]) -> Self {
        let suffix = stats
            .operation
            .strip_prefix(name)
            .unwrap_or_default()
            .to_owned();
        let mut stats = stats.clone();
        stats.operation.clear();
        // How the result was obtained is per-run state, not part of the
        // memoized outcome: hits replay with clean counters.
        stats.clear_host_counters();
        Self {
            stats,
            suffix,
            iterations: iterations.to_vec(),
        }
    }

    /// The memoized stats re-badged for a hitting call.
    pub(crate) fn stats_for(&self, name: &str) -> SimStats {
        let mut s = self.stats.clone();
        s.operation = format!("{name}{}", self.suffix);
        s.sim_cache_hits = 1;
        s
    }

    pub(crate) fn iterations(&self) -> &[IterationInfo] {
        &self.iterations
    }
}

/// A shareable layer-simulation memoization cache.
///
/// Cloning is cheap and shares the underlying store, so one cache can be
/// threaded through a full-model run, across the worker threads of a
/// parallel runner, or across every sweep point of a bench harness.
///
/// ```
/// use stonne_core::{AcceleratorConfig, SimCache, Stonne};
/// use stonne_tensor::{Matrix, SeededRng};
///
/// # fn main() -> Result<(), stonne_core::ConfigError> {
/// let cache = SimCache::new();
/// let mut sim = Stonne::new(AcceleratorConfig::maeri_like(64, 16))?.with_cache(cache.clone());
/// let mut rng = SeededRng::new(0);
/// let a = Matrix::random(8, 16, &mut rng);
/// let b = Matrix::random(16, 4, &mut rng);
/// let (_, first) = sim.run_gemm("g1", &a, &b);
/// let (_, again) = sim.run_gemm("g2", &a, &b); // same shape: replayed
/// assert_eq!(first.cycles, again.cycles);
/// assert_eq!(again.sim_cache_hits, 1);
/// assert_eq!(cache.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimCache {
    inner: Arc<Mutex<HashMap<CacheKey, CacheEntry>>>,
    disk: Option<DiskStore>,
}

impl SimCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Backs this cache with a disk-persistent store: lookups that miss
    /// in memory consult the store (loaded entries are promoted into
    /// memory), and every insert is also persisted. Store activity is
    /// visible through the store handle's [`DiskStore::counters`] — a
    /// memory hit never touches the store, so on a handle scoped to one
    /// run, `hits` counts exactly the results that crossed a process
    /// boundary. See [`crate::store`] for the on-disk layout and the
    /// code-fingerprint invalidation rules.
    #[must_use]
    pub fn backed_by(mut self, store: DiskStore) -> Self {
        self.disk = Some(store);
        self
    }

    /// Sorted content digests of every in-memory key — the cache's
    /// signature at a point in time: two runs that simulated the same set
    /// of layers (a timing-only and a full one, say) carry identical
    /// signatures. Sorting makes the result independent of hash-map
    /// iteration order.
    pub fn key_signatures(&self) -> Vec<String> {
        let mut sigs: Vec<String> = self
            .lock()
            .keys()
            .map(|k| crate::store::digest128(&k.canonical()))
            .collect();
        sigs.sort_unstable();
        sigs
    }

    /// Number of memoized entries (in memory).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache holds no in-memory entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<CacheKey, CacheEntry>> {
        // A worker that panicked mid-insert cannot leave a partial entry
        // (HashMap::insert is all-or-nothing), so poisoning is recoverable.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn get(&self, key: &CacheKey) -> Option<CacheEntry> {
        if let Some(entry) = self.lock().get(key).cloned() {
            return Some(entry);
        }
        let entry = self.disk.as_ref()?.load(key)?;
        self.lock().insert(key.clone(), entry.clone());
        Some(entry)
    }

    pub(crate) fn insert(&self, key: CacheKey, entry: CacheEntry) {
        if let Some(disk) = &self.disk {
            disk.save(&key, &entry);
        }
        self.lock().insert(key, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::Stonne;
    use stonne_tensor::SeededRng;

    fn operands(seed: u64) -> (Matrix, Matrix) {
        let mut rng = SeededRng::new(seed);
        (
            Matrix::random(8, 16, &mut rng),
            Matrix::random(16, 4, &mut rng),
        )
    }

    /// A fresh in-memory cache backed by a warm disk store must replay
    /// bitwise-identically with zero engine invocations — the property
    /// the sweep server's restart path relies on.
    #[test]
    fn disk_backed_cache_replays_across_fresh_caches() {
        let root =
            std::env::temp_dir().join(format!("stonne-cache-disk-test-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = DiskStore::open(&root).unwrap();
        let (a, b) = operands(11);
        let cfg = AcceleratorConfig::maeri_like(64, 16);

        let cold = SimCache::new().backed_by(store.scoped());
        let mut sim = Stonne::new(cfg.clone()).unwrap().with_cache(cold);
        let (out_cold, stats_cold) = sim.run_gemm("g", &a, &b);
        assert_eq!(stats_cold.engine_invocations, 1);

        // "Restarted process": same store, brand-new memory cache.
        let scope = store.scoped();
        let warm = SimCache::new().backed_by(scope.clone());
        let mut sim = Stonne::new(cfg).unwrap().with_cache(warm);
        let (out_warm, stats_warm) = sim.run_gemm("g", &a, &b);
        assert_eq!(stats_warm.engine_invocations, 0);
        assert_eq!(stats_warm.cycles, stats_cold.cycles);
        assert_eq!(out_warm.as_slice(), out_cold.as_slice());
        assert_eq!(stats_warm.sim_cache_hits, 1);
        let c = scope.counters();
        assert_eq!((c.hits, c.misses), (1, 0), "served entirely from disk");
        std::fs::remove_dir_all(&root).ok();
    }

    /// Disk-loaded sparse entries must carry their packing info and
    /// input-stationary flag through serialization.
    #[test]
    fn disk_backed_cache_preserves_sparse_run_shape() {
        let root =
            std::env::temp_dir().join(format!("stonne-cache-sparse-test-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = DiskStore::open(&root).unwrap();
        let cfg = AcceleratorConfig::sigma_like(32, 16);
        let mut rng = SeededRng::new(5);
        let mut a = Matrix::random(8, 12, &mut rng);
        stonne_tensor::prune_matrix_to_sparsity(&mut a, 0.6);
        let b = Matrix::random(12, 4, &mut rng);

        let mut sim = Stonne::new(cfg.clone())
            .unwrap()
            .with_cache(SimCache::new().backed_by(store.scoped()));
        let (out_cold, stats_cold) = sim.run_gemm("s", &a, &b);

        let mut sim = Stonne::new(cfg)
            .unwrap()
            .with_cache(SimCache::new().backed_by(store.scoped()));
        let (out_warm, stats_warm) = sim.run_gemm("s", &a, &b);
        assert_eq!(stats_warm.engine_invocations, 0);
        assert_eq!(stats_warm.cycles, stats_cold.cycles);
        assert_eq!(stats_warm.iterations, stats_cold.iterations);
        assert_eq!(out_warm.as_slice(), out_cold.as_slice());
        std::fs::remove_dir_all(&root).ok();
    }
}
