//! Simulation statistics: per-component activity counters and the
//! summary/counter-file output of the paper's Output Module.

use serde::{Deserialize, Serialize};
use std::ops::AddAssign;

/// Per-component activity counters.
///
/// These are the "activity counts for each component of the architecture
/// (e.g., multiplier, wire, adder, …)" the paper's counter file records;
/// the energy model turns them into consumed energy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityCounters {
    /// Multiplications performed by multiplier switches.
    pub multiplications: u64,
    /// Additions performed by reduction-network adders.
    pub rn_adder_ops: u64,
    /// Accumulator-buffer updates (ART+ACC / output-stationary registers).
    pub accumulator_updates: u64,
    /// Elements injected into the distribution network.
    pub dn_injections: u64,
    /// Switch traversals inside the distribution network.
    pub dn_switch_traversals: u64,
    /// Wire-segment hops inside the distribution network.
    pub dn_wire_hops: u64,
    /// Operand forwards over multiplier-network links.
    pub mn_forwards: u64,
    /// Elements collected from the reduction network into the GB.
    pub rn_collections: u64,
    /// Global-buffer element reads.
    pub gb_reads: u64,
    /// Global-buffer element writes.
    pub gb_writes: u64,
    /// FIFO push operations across all queues.
    pub fifo_pushes: u64,
    /// FIFO pop operations across all queues.
    pub fifo_pops: u64,
    /// Elements read from DRAM.
    pub dram_reads: u64,
    /// Elements written to DRAM.
    pub dram_writes: u64,
    /// Lookups of sparse metadata (bitmap words / CSR indices).
    pub metadata_reads: u64,
}

impl AddAssign for ActivityCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.multiplications += rhs.multiplications;
        self.rn_adder_ops += rhs.rn_adder_ops;
        self.accumulator_updates += rhs.accumulator_updates;
        self.dn_injections += rhs.dn_injections;
        self.dn_switch_traversals += rhs.dn_switch_traversals;
        self.dn_wire_hops += rhs.dn_wire_hops;
        self.mn_forwards += rhs.mn_forwards;
        self.rn_collections += rhs.rn_collections;
        self.gb_reads += rhs.gb_reads;
        self.gb_writes += rhs.gb_writes;
        self.fifo_pushes += rhs.fifo_pushes;
        self.fifo_pops += rhs.fifo_pops;
        self.dram_reads += rhs.dram_reads;
        self.dram_writes += rhs.dram_writes;
        self.metadata_reads += rhs.metadata_reads;
    }
}

impl ActivityCounters {
    /// Total arithmetic operations (multiplies + adds).
    pub fn total_ops(&self) -> u64 {
        self.multiplications + self.rn_adder_ops + self.accumulator_updates
    }

    /// Total memory accesses (GB + DRAM element transfers).
    pub fn total_memory_accesses(&self) -> u64 {
        self.gb_reads + self.gb_writes + self.dram_reads + self.dram_writes
    }
}

/// Per-phase cycle accounting: where the cycles of an operation went.
///
/// The six buckets partition `SimStats::cycles` exactly —
/// [`CycleBreakdown::total`] equals the operation's `cycles` for every
/// engine (tested). Fill/steady/drain follow the classic dataflow
/// pipeline phases; the three stall buckets split wait cycles by cause so
/// a bottleneck (memory vs distribution bandwidth vs reduction) is
/// readable straight off the summary JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleBreakdown {
    /// Cycles spent loading operands/weights before compute can start
    /// (array fill, tile weight loads, sparse operand loads).
    pub fill_cycles: u64,
    /// Cycles in which the multiplier substrate advanced at full rate.
    pub steady_cycles: u64,
    /// Cycles flushing the pipeline / collecting the last partial sums.
    pub drain_cycles: u64,
    /// Stall cycles exposed by DRAM past double buffering.
    pub dram_stall_cycles: u64,
    /// Stall cycles from distribution/FIFO backpressure (delivery slower
    /// than one operand set per cycle).
    pub fifo_stall_cycles: u64,
    /// Stall cycles waiting on reduction/collection bandwidth.
    pub reduction_stall_cycles: u64,
}

impl CycleBreakdown {
    /// Sum of all six buckets; equals the operation's total cycles.
    pub fn total(&self) -> u64 {
        self.fill_cycles
            + self.steady_cycles
            + self.drain_cycles
            + self.dram_stall_cycles
            + self.fifo_stall_cycles
            + self.reduction_stall_cycles
    }

    /// Multiplies every bucket by `k` (layer-dedup scaling).
    pub fn scale(&mut self, k: u64) {
        self.fill_cycles *= k;
        self.steady_cycles *= k;
        self.drain_cycles *= k;
        self.dram_stall_cycles *= k;
        self.fifo_stall_cycles *= k;
        self.reduction_stall_cycles *= k;
    }
}

impl AddAssign for CycleBreakdown {
    fn add_assign(&mut self, rhs: Self) {
        self.fill_cycles += rhs.fill_cycles;
        self.steady_cycles += rhs.steady_cycles;
        self.drain_cycles += rhs.drain_cycles;
        self.dram_stall_cycles += rhs.dram_stall_cycles;
        self.fifo_stall_cycles += rhs.fifo_stall_cycles;
        self.reduction_stall_cycles += rhs.reduction_stall_cycles;
    }
}

/// Result statistics of one simulated operation (one layer / GEMM).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Name of the accelerator configuration that ran the operation.
    pub accelerator: String,
    /// Name of the simulated operation (layer name or op kind).
    pub operation: String,
    /// Total clock cycles.
    pub cycles: u64,
    /// Cycles in which at least one multiplier was busy.
    pub compute_cycles: u64,
    /// Cycles stalled on distribution/collection bandwidth.
    pub bandwidth_stall_cycles: u64,
    /// Cycles stalled on DRAM (exposed past double buffering).
    pub dram_stall_cycles: u64,
    /// Busy multiplier-cycles (Σ over cycles of busy multipliers).
    pub ms_busy_cycles: u64,
    /// Configured multiplier count.
    pub ms_size: usize,
    /// Number of mapping iterations the controller issued.
    pub iterations: u64,
    /// Activity counters for the energy model.
    pub counters: ActivityCounters,
    /// Per-phase cycle accounting (buckets sum to `cycles`). Defaults so
    /// summaries written before this field existed still parse.
    #[serde(default)]
    pub breakdown: CycleBreakdown,
    /// Simulation-cache hits: operations whose cycle-level outcome was
    /// replayed from the layer cache instead of re-simulated.
    #[serde(default)]
    pub sim_cache_hits: u64,
    /// Simulation-cache misses: operations the engine had to simulate
    /// while caching was enabled.
    #[serde(default)]
    pub sim_cache_misses: u64,
    /// Entries this operation inserted into the simulation cache.
    #[serde(default)]
    pub sim_cache_inserts: u64,
    /// Cycle-level engine invocations actually performed (0 for a cache
    /// hit, 1 for a simulated operation; sums under [`SimStats::merge`]).
    #[serde(default)]
    pub engine_invocations: u64,
    /// Cycles spent waiting for a shared-DRAM channel behind other
    /// accelerator instances (charged by the cluster arbiter; 0 for
    /// single-instance runs). Defaults so older summaries still parse.
    #[serde(default)]
    pub dram_contention_cycles: u64,
    /// Filter chunks of a flexible-engine invocation accounted by
    /// replaying a chunk-width-class record derived earlier in the same
    /// invocation (0 on the other engines and under
    /// [`crate::SimContext::disabled`]).
    #[serde(default)]
    pub tile_cache_hits: u64,
    /// Chunk-width-class records a flexible-engine invocation derived
    /// (at most two: full-width and ragged).
    #[serde(default)]
    pub tile_cache_misses: u64,
    /// Filter chunks merged from a class record (`hits + misses`).
    #[serde(default)]
    pub tile_cache_assembled: u64,
}

impl SimStats {
    /// Average multiplier utilization in `[0, 1]`
    /// (busy MS-cycles over `ms_size × cycles`).
    pub fn ms_utilization(&self) -> f64 {
        if self.cycles == 0 || self.ms_size == 0 {
            return 0.0;
        }
        self.ms_busy_cycles as f64 / (self.cycles as f64 * self.ms_size as f64)
    }

    /// Merges another operation's stats into this one (used to aggregate a
    /// full-model run: cycles add, counters add).
    pub fn merge(&mut self, other: &SimStats) {
        self.cycles += other.cycles;
        self.compute_cycles += other.compute_cycles;
        self.bandwidth_stall_cycles += other.bandwidth_stall_cycles;
        self.dram_stall_cycles += other.dram_stall_cycles;
        self.ms_busy_cycles += other.ms_busy_cycles;
        self.iterations += other.iterations;
        self.counters += other.counters;
        self.breakdown += other.breakdown;
        self.sim_cache_hits += other.sim_cache_hits;
        self.sim_cache_misses += other.sim_cache_misses;
        self.sim_cache_inserts += other.sim_cache_inserts;
        self.engine_invocations += other.engine_invocations;
        self.dram_contention_cycles += other.dram_contention_cycles;
        self.tile_cache_hits += other.tile_cache_hits;
        self.tile_cache_misses += other.tile_cache_misses;
        self.tile_cache_assembled += other.tile_cache_assembled;
        if self.ms_size == 0 {
            self.ms_size = other.ms_size;
        }
        if self.accelerator.is_empty() {
            self.accelerator = other.accelerator.clone();
        }
    }

    /// Zeroes the host-bookkeeping counters — how the result was obtained
    /// (layer-cache traffic, engine invocations, class-record replay),
    /// not what the simulated machine did — so two runs can be compared
    /// for behavioural equality whatever their reuse state.
    pub fn clear_host_counters(&mut self) {
        self.sim_cache_hits = 0;
        self.sim_cache_misses = 0;
        self.sim_cache_inserts = 0;
        self.engine_invocations = 0;
        self.tile_cache_hits = 0;
        self.tile_cache_misses = 0;
        self.tile_cache_assembled = 0;
    }

    /// Scales the whole record by an integer factor (used when a model
    /// contains `count` layers of identical shape and only one was
    /// simulated).
    pub fn scaled(&self, count: u64) -> SimStats {
        let mut s = self.clone();
        s.cycles *= count;
        s.compute_cycles *= count;
        s.bandwidth_stall_cycles *= count;
        s.dram_stall_cycles *= count;
        s.ms_busy_cycles *= count;
        s.iterations *= count;
        s.breakdown.scale(count);
        s.sim_cache_hits *= count;
        s.sim_cache_misses *= count;
        s.sim_cache_inserts *= count;
        s.engine_invocations *= count;
        s.dram_contention_cycles *= count;
        s.tile_cache_hits *= count;
        s.tile_cache_misses *= count;
        s.tile_cache_assembled *= count;
        let c = &mut s.counters;
        let k = count;
        c.multiplications *= k;
        c.rn_adder_ops *= k;
        c.accumulator_updates *= k;
        c.dn_injections *= k;
        c.dn_switch_traversals *= k;
        c.dn_wire_hops *= k;
        c.mn_forwards *= k;
        c.rn_collections *= k;
        c.gb_reads *= k;
        c.gb_writes *= k;
        c.fifo_pushes *= k;
        c.fifo_pops *= k;
        c.dram_reads *= k;
        c.dram_writes *= k;
        c.metadata_reads *= k;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimStats {
        SimStats {
            accelerator: "test".into(),
            operation: "gemm".into(),
            cycles: 100,
            compute_cycles: 80,
            bandwidth_stall_cycles: 20,
            dram_stall_cycles: 0,
            ms_busy_cycles: 400,
            ms_size: 8,
            iterations: 2,
            counters: ActivityCounters {
                multiplications: 320,
                rn_adder_ops: 280,
                gb_reads: 100,
                gb_writes: 40,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn utilization_is_busy_fraction() {
        let s = sample();
        assert!((s.ms_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_of_empty_run_is_zero() {
        assert_eq!(SimStats::default().ms_utilization(), 0.0);
    }

    #[test]
    fn merge_adds_cycles_and_counters() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.cycles, 200);
        assert_eq!(a.counters.multiplications, 640);
        assert_eq!(a.iterations, 4);
    }

    #[test]
    fn scaled_multiplies_everything() {
        let s = sample().scaled(3);
        assert_eq!(s.cycles, 300);
        assert_eq!(s.counters.gb_writes, 120);
        assert_eq!(s.ms_busy_cycles, 1200);
        // Utilization is invariant under scaling.
        assert!((s.ms_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counters_totals() {
        let c = sample().counters;
        assert_eq!(c.total_ops(), 600);
        assert_eq!(c.total_memory_accesses(), 140);
    }
}
