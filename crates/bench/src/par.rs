//! Thread-parallel execution of independent experiment repetitions.
//!
//! This module is a facade over [`pc_par`], the workspace-wide parallel
//! substrate (the fleet's tenants, the fingerprint capture loop in
//! `pc-core` and Figure 16's defenses in `pc-defense` use the same
//! primitives, so `PC_BENCH_THREADS` governs every parallel path from
//! one place).
//!
//! Every experiment in [`crate::experiments`] is a pure function of its
//! seed: repetitions share no state, so they can run on separate OS
//! threads without changing any result. [`parallel_map`] preserves input
//! order (item `i`'s result is at index `i`), so a parallelized
//! experiment prints byte-identical output to the sequential version —
//! determinism is per-run seeds plus ordered collection, not luck.

pub use pc_par::{
    max_threads, mix_seed, parallel_map, parallel_map_scratch_threads, parallel_map_threads,
    stream_seed, SeedDomain,
};
