//! # pc-par — deterministic thread-parallel primitives
//!
//! The whole reproduction rests on one guarantee: **thread count never
//! changes results**. Every parallel construct in the workspace goes
//! through this crate so the guarantee has a single implementation:
//!
//! * [`parallel_map`] — ordered fan-out of independent work items; item
//!   `i`'s result lands at index `i` regardless of which worker ran it.
//! * [`max_threads`] — the one place the `PC_BENCH_THREADS` environment
//!   variable is read. `PC_BENCH_THREADS=1` forces every parallel path
//!   in the workspace (experiment repetitions, fingerprint captures,
//!   fleet tenants, Figure 16's defenses) down its sequential branch
//!   end to end. The
//!   count is resolved **once per process** and cached, so changing the
//!   variable mid-run does nothing: tests that need a specific count
//!   call the `_threads` APIs ([`parallel_map_threads`] and
//!   [`parallel_map_scratch_threads`]) instead.
//! * [`mix_seed`] — the shared seed-derivation mix. Work that runs on
//!   another thread must *never* consume a caller's RNG stream; it gets
//!   its own `SmallRng` seeded with `mix_seed(base, salt)` where `salt`
//!   identifies the item (tenant number, trial index, …). Sequential and
//!   parallel schedules then draw identical streams by construction.
//! * [`stream_seed`] — the *one* per-item seed-derivation helper: every
//!   fan-out in the workspace names its family with a [`SeedDomain`]
//!   and derives item seeds as `stream_seed(base, domain, index)`
//!   instead of hand-rolling its own salting scheme around `mix_seed`.
//! * [`parallel_map_scratch_threads`] — the scratch-carrying fan-out:
//!   each worker builds one scratch value (a reusable `TestBed`, an op
//!   buffer…) and threads it through every item it runs, so a fleet of
//!   thousands of small work items doesn't pay a fresh allocation
//!   curve per item.
//!
//! This crate sits below `pc-cache` (whose fault sites key their
//! firing decisions with [`mix_seed`]); the harness calls it
//! directly. The
//! README next to this crate maps each primitive to its users; the
//! workspace-wide determinism contract is spelled out in the top-level
//! `ARCHITECTURE.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Upper bound on worker threads (`PC_BENCH_THREADS` overrides; `1`
/// forces sequential execution, e.g. for debugging or the CI
/// determinism gate).
///
/// Resolved **once per process**, on the first call: the environment
/// and `available_parallelism()` (which reads cgroup files on Linux)
/// are consulted then and never again, so every later caller pays one
/// load.
/// Setting `PC_BENCH_THREADS` after the first call has no effect; code
/// that needs a specific count (tests) passes it to the
/// `_threads` variants instead.
pub fn max_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("PC_BENCH_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(4)
    })
}

/// Derives an independent seed from a base seed and a work-item salt
/// (splitmix64 finalizer — one multiply-xor cascade per draw).
///
/// Every parallelized loop in the workspace uses this mix so that a
/// work item's RNG stream depends only on `(seed, salt)`, never on the
/// schedule that ran it. Distinct salts give uncorrelated streams even
/// when base seeds are small consecutive integers.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A named fan-out family for [`stream_seed`].
///
/// Two different fan-outs running from the same base seed must never
/// reuse each other's RNG streams just because they happen to use the
/// same item indices; the domain is what separates them. The `Capture`
/// domain predates this enum and keeps its original derivation — plain
/// `mix_seed(base, index)` — because golden outputs across the
/// workspace pin the streams it produces; domains added since
/// (`Tenant`, `Repetition`, `Queue`) fold a domain tag into the base
/// first, so their streams cannot collide with each other or with the
/// legacy domain even at equal indices.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum SeedDomain {
    /// Per-capture page-load streams of the fingerprint grid
    /// (`pc-core`'s site × trial fan-out). Legacy derivation.
    Capture,
    /// Per-tenant seeds of the fleet driver (`pc-bench`'s
    /// `repro fleet`): one stream per tenant index.
    Tenant,
    /// Independent repetitions of one experiment (the `table1`-style
    /// "same setup, `runs` times" fan-outs).
    Repetition,
    /// Per-rx-queue driver streams of the multi-queue NIC model
    /// (`pc-core`'s RSS test bed): one allocator/driver RNG stream per
    /// queue index. Queue 0 does **not** go through this domain — it
    /// keeps the bed's legacy base-seed streams so a single-queue bed
    /// is byte-identical to the pre-RSS model.
    Queue,
}

impl SeedDomain {
    /// Domain tag folded into the base seed, or `None` for the legacy
    /// domain whose streams are pinned to plain `mix_seed`.
    fn tag(self) -> Option<u64> {
        match self {
            SeedDomain::Capture => None,
            SeedDomain::Tenant => Some(0xF1EE_7000),
            SeedDomain::Repetition => Some(0x2E9E_A700),
            SeedDomain::Queue => Some(0xA55E_0E00),
        }
    }
}

/// Derives the RNG seed for item `index` of a fan-out in `domain` —
/// the one documented per-item seed-derivation helper. Call sites that
/// need several sub-streams per item derive the item seed here once
/// and split it locally with [`mix_seed`].
///
/// Like [`mix_seed`] this is a pure function of its inputs: an item's
/// stream depends only on `(base, domain, index)`, never on the
/// schedule that ran it, so sequential and parallel executions draw
/// identical streams by construction. A unit test pins that distinct
/// tenants never collide for base seeds `0..1024`.
pub fn stream_seed(base: u64, domain: SeedDomain, index: u64) -> u64 {
    match domain.tag() {
        None => mix_seed(base, index),
        Some(tag) => mix_seed(mix_seed(base, tag), index),
    }
}

/// Maps `f` over `items` on up to [`max_threads`] worker threads,
/// returning results in input order.
///
/// ```
/// let items: Vec<i64> = (0..64).collect();
/// let squares = pc_par::parallel_map(items, |x| x * x);
/// assert_eq!(squares, (0..64).map(|x| x * x).collect::<Vec<i64>>());
/// ```
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_threads(items, max_threads(), f)
}

/// [`parallel_map`] with an explicit worker bound, for callers (tests,
/// the sharded-cache dispatcher) that must pin the thread count rather
/// than read the environment.
///
/// Work is distributed round-robin (worker `w` takes items `w`,
/// `w + n`, ...), which keeps the longest-running repetitions of a
/// typical homogeneous batch spread across workers. Panics in `f`
/// propagate to the caller.
pub fn parallel_map_threads<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let mut buckets: Vec<Vec<(usize, T)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % threads].push((i, item));
    }
    let f_ref = &f;
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|(i, item)| (i, f_ref(item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("parallel_map worker panicked") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every index filled"))
        .collect()
}

/// [`parallel_map_threads`] with per-worker scratch: each worker calls
/// `init()` once and threads the resulting value through every item it
/// runs (`f(&mut scratch, item)`); results return in input order.
///
/// The scratch is an **allocation cache, not state**: `f` must return
/// the same value for an item whatever scratch history preceded it
/// (reset whatever you reuse), because which items share a scratch
/// depends on the round-robin bucketing and so on `threads`. The fleet
/// driver is the motivating caller — one reusable `TestBed` per worker
/// across thousands of small tenants — and its byte-identical-across-
/// thread-counts golden pins the contract end to end.
///
/// With `threads <= 1` (or a single item) everything runs inline on
/// one scratch. Panics in `f` propagate to the caller.
pub fn parallel_map_scratch_threads<T, R, S, I, F>(
    items: Vec<T>,
    threads: usize,
    init: I,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        let mut scratch = init();
        return items
            .into_iter()
            .map(|item| f(&mut scratch, item))
            .collect();
    }
    let n = items.len();
    let mut buckets: Vec<Vec<(usize, T)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % threads].push((i, item));
    }
    let f_ref = &f;
    let init_ref = &init;
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    let mut scratch = init_ref();
                    bucket
                        .into_iter()
                        .map(|(i, item)| (i, f_ref(&mut scratch, item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("parallel_map_scratch worker panicked") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every index filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect::<Vec<i64>>(), |x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<i64>>());
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(parallel_map(vec![41], |x| x + 1), vec![42]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let work = |x: u64| x.wrapping_mul(x) ^ (x >> 3);
        let items: Vec<u64> = (0..57).collect();
        let sequential: Vec<u64> = items.iter().map(|&x| work(x)).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(
                parallel_map_threads(items.clone(), threads, work),
                sequential,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn matches_sequential_for_seeded_work() {
        // The property the experiments rely on: parallel order ==
        // sequential order for seed-dependent work.
        let work = |seed: u64| {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..1000)
                .map(|_| rng.gen_range(0..1_000_000u64))
                .sum::<u64>()
        };
        let seeds: Vec<u64> = (0..16).collect();
        let sequential: Vec<u64> = seeds.iter().map(|&s| work(s)).collect();
        let parallel = parallel_map(seeds, work);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn mix_seed_separates_salts_and_seeds() {
        let a = mix_seed(2020, 0);
        let b = mix_seed(2020, 1);
        let c = mix_seed(2021, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, mix_seed(2020, 0), "pure function of (seed, salt)");
    }

    #[test]
    fn legacy_domains_preserve_their_pinned_streams() {
        // Capture predates SeedDomain; golden outputs across the
        // workspace pin its streams to plain mix_seed. Changing this
        // mapping silently reseeds every fingerprint capture.
        for base in [0u64, 1, 2020, u64::MAX] {
            for index in [0u64, 1, 7, 1 << 40] {
                assert_eq!(
                    stream_seed(base, SeedDomain::Capture, index),
                    mix_seed(base, index)
                );
            }
        }
    }

    #[test]
    fn tenant_seeds_never_collide_for_small_bases() {
        // The fleet derives per-tenant seeds from small consecutive
        // base seeds (CLI `--seed`); distinct (base, tenant) pairs must
        // give distinct seeds across the whole 0..1024 × 0..1024 grid.
        let mut seen = std::collections::HashSet::with_capacity(1024 * 1024);
        for base in 0..1024u64 {
            for tenant in 0..1024u64 {
                assert!(
                    seen.insert(stream_seed(base, SeedDomain::Tenant, tenant)),
                    "collision at base={base} tenant={tenant}"
                );
            }
        }
    }

    #[test]
    fn domains_separate_equal_indices() {
        // Two fan-outs at the same (base, index) must not share a
        // stream just because their indices coincide.
        let base = 2020;
        let capture = stream_seed(base, SeedDomain::Capture, 3);
        let tenant = stream_seed(base, SeedDomain::Tenant, 3);
        let rep = stream_seed(base, SeedDomain::Repetition, 3);
        let queue = stream_seed(base, SeedDomain::Queue, 3);
        assert_ne!(capture, tenant);
        assert_ne!(capture, rep);
        assert_ne!(tenant, rep);
        assert_ne!(queue, capture);
        assert_ne!(queue, tenant);
        assert_ne!(queue, rep);
    }

    #[test]
    fn scratch_map_matches_sequential_for_any_thread_count() {
        // The scratch is an allocation cache: as long as `f` resets it,
        // results must be identical for every worker count.
        let work = |scratch: &mut Vec<u64>, seed: u64| {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            scratch.clear(); // reset: contract of the scratch map
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..100 {
                scratch.push(rng.gen_range(0..1_000u64));
            }
            scratch.iter().sum::<u64>()
        };
        let items: Vec<u64> = (0..37).collect();
        let sequential: Vec<u64> = items.iter().map(|&s| work(&mut Vec::new(), s)).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            assert_eq!(
                parallel_map_scratch_threads(items.clone(), threads, Vec::new, work),
                sequential,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn scratch_map_builds_one_scratch_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let items: Vec<u64> = (0..40).collect();
        let out = parallel_map_scratch_threads(
            items,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |_, x| x,
        );
        assert_eq!(out.len(), 40);
        assert!(
            inits.load(Ordering::Relaxed) <= 4,
            "scratch must be reused across a worker's items, not rebuilt per item"
        );
    }
}
