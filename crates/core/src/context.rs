//! Reusable execution context: pooled engine scratch buffers plus the
//! switch for the flexible engine's in-invocation class collapse.
//!
//! The filter chunks of one flexible-engine invocation share their
//! accounting walk per chunk *width*, so the engine derives one record per
//! width class (at most two: full and ragged) and merges it once per
//! chunk, chunk-ascending — the order the intra-layer parallel path
//! already guarantees. Nothing is keyed, stored or shared between
//! invocations: reuse across layers, runs and processes belongs to
//! [`crate::SimCache`] and [`crate::DiskStore`] alone (see the "Reuse
//! hierarchy" section of `docs/PERFORMANCE.md`).
//!
//! The context also pools the engines' scratch buffers (address
//! workspaces) so consecutive layers and sweep points reuse allocations
//! instead of re-growing them per operation.

use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct ContextInner {
    /// Off: the flexible engine walks every chunk (the reference the
    /// `tile_cache_bitwise` oracle compares against) and counts nothing.
    enabled: bool,
    /// Pooled engine scratch buffers (see [`EngineScratch`]).
    scratch: Mutex<Vec<EngineScratch>>,
}

/// Reusable per-worker engine scratch: the hot loops borrow these
/// instead of allocating. Pooled by [`SimContext`] so consecutive
/// operations (and sweep points sharing a context) reuse the grown
/// buffers.
#[derive(Debug, Default)]
pub(crate) struct EngineScratch {
    /// Address workspace of the flexible engine's uniqueness count.
    pub addrs: Vec<u32>,
}

/// A shareable execution context: pooled scratch buffers and the
/// class-collapse switch.
///
/// Cloning is cheap and shares the underlying state, so one context can
/// be threaded through a full-model run, across the worker threads of a
/// sweep server, or across every request of a cluster profile — what the
/// sharers gain is the grown scratch buffers, never timing results.
/// Every [`crate::Stonne`] carries one (fresh by default); attach a
/// shared one with [`crate::Stonne::with_context`].
///
/// The class collapse is on by default and bitwise-invisible: runs with
/// and without it produce identical outputs, cycles, breakdowns and
/// traces (fuzzed by the `tile_cache_bitwise` oracle); construct a
/// [`SimContext::disabled`] one to walk every chunk.
#[derive(Debug, Clone)]
pub struct SimContext {
    inner: Arc<ContextInner>,
}

impl Default for SimContext {
    fn default() -> Self {
        Self::new()
    }
}

impl SimContext {
    /// Creates a fresh context with the class collapse on.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// Creates a context under which the flexible engine runs its plain
    /// per-chunk accounting walk and the `tile_cache_*` counters stay 0
    /// (used by the bitwise oracle and A/B tests).
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        Self {
            inner: Arc::new(ContextInner {
                enabled,
                scratch: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Whether the flexible engine collapses a layer's filter chunks onto
    /// their width-class records.
    pub fn tile_cache_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Borrows a scratch set from the pool (a fresh one when the pool is
    /// empty). Return it with [`SimContext::put_scratch`] so its grown
    /// buffers serve the next operation.
    pub(crate) fn take_scratch(&self) -> EngineScratch {
        self.inner
            .scratch
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default()
    }

    /// Returns a scratch set to the pool.
    pub(crate) fn put_scratch(&self, scratch: EngineScratch) {
        self.inner
            .scratch
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_pool_reuses_buffers() {
        let ctx = SimContext::new();
        let mut s = ctx.take_scratch();
        s.addrs.reserve(1024);
        let cap = s.addrs.capacity();
        ctx.put_scratch(s);
        let s = ctx.take_scratch();
        assert!(s.addrs.capacity() >= cap, "grown buffer is reused");
    }
}
