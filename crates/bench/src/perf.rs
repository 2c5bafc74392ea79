//! The fig5 timing grid's constants.
//!
//! The wall-clock harness over this grid is `benchmark/` (workload
//! `replay_fig5`; contract in `BENCHMARK.json`, numbers and host in
//! `benchmark/LEDGER.json`); it imports the grid from here so the
//! workload it times stays the one the figure sweeps run.

/// L2 size of every measured point (one mid-curve fig5a setting).
pub const PERF_L2_BYTES: u64 = 256 << 10;

/// Colocation scales on the x-axis: solo, the fig5a pair, and the two
/// fig5b multi-tenant points that fit six recorded kinds.
pub const PERF_TENANTS: [usize; 4] = [1, 2, 4, 6];
