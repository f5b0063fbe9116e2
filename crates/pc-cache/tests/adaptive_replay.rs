//! The *adaptive* trace replay against its two oracles.
//!
//! Each slice's defense period runs off a per-slice access-count clock,
//! so the batch trace walk (`Hierarchy::run_trace`) must reproduce the
//! per-access walk's adaptation schedule **exactly** — not just the
//! final aggregate numbers, but the per-slice period boundaries
//! themselves (`CacheStats::defense_evals` via
//! `SlicedCache::slice_stats`), the partition boundaries of every set,
//! and the residency.
//!
//! Two oracles:
//!
//! * the clock-advancing per-access walk (`Hierarchy::cpu_read` and
//!   friends, one call per op);
//! * the pre-refactor [`ReferenceCache`] driven one op at a time.

use pc_cache::reference::ReferenceCache;
use pc_cache::{
    AccessKind, AdaptiveConfig, CacheGeometry, CacheOp, DdioMode, Domain, Hierarchy, PhysAddr,
};

/// A mixed trace long enough to cross many defense periods in every
/// slice, touching many sets of every slice with an I/O-heavy kind mix.
fn long_mixed_trace(n: u64) -> Vec<CacheOp> {
    (0..n)
        .map(|i| {
            let kind = match i % 5 {
                0 | 3 => AccessKind::IoWrite,
                1 => AccessKind::CpuWrite,
                2 => AccessKind::IoRead,
                _ => AccessKind::CpuRead,
            };
            // A multiplicative walk so addresses spread over sets and
            // slices without being uniform noise (sets re-conflict).
            CacheOp::new(
                PhysAddr::new((i.wrapping_mul(0x9e37) % 12_289) * 0x1040),
                kind,
            )
        })
        .collect()
}

fn adaptive_modes() -> Vec<DdioMode> {
    vec![
        DdioMode::adaptive(),
        DdioMode::Adaptive(AdaptiveConfig {
            period: 48,
            t_high: 3,
            t_low: 2,
            min_io_lines: 1,
            max_io_lines: 3,
        }),
    ]
}

/// Replays `ops` one access at a time through the scalar entry points.
fn per_access(geom: CacheGeometry, mode: DdioMode, ops: &[CacheOp]) -> Hierarchy {
    let mut h = Hierarchy::new(geom, mode);
    for &op in ops {
        match op.kind {
            AccessKind::CpuRead => h.cpu_read(op.addr),
            AccessKind::CpuWrite => h.cpu_write(op.addr),
            AccessKind::IoWrite => h.io_write(op.addr),
            AccessKind::IoRead => h.io_read(op.addr),
        };
    }
    h
}

/// The headline regression: the trace walk must reproduce the
/// per-access walk's per-slice defense re-evaluation counts exactly —
/// a bug that merely preserved totals (or final stats) would slip past
/// aggregate comparisons.
#[test]
fn sharded_adaptive_replay_reproduces_per_slice_period_boundaries() {
    let ops = long_mixed_trace(10_000);
    for mode in adaptive_modes() {
        for geom in [CacheGeometry::tiny(), CacheGeometry::xeon_e5_2660()] {
            let scalar = per_access(geom, mode, &ops);
            let evals_per_slice: Vec<u64> = (0..geom.slices())
                .map(|s| scalar.llc().slice_stats(s).defense_evals)
                .collect();
            assert!(
                evals_per_slice.iter().all(|&e| e > 0),
                "every slice must cross period boundaries for the test to bite: {evals_per_slice:?}"
            );
            let mut h = Hierarchy::new(geom, mode);
            let sum = h.run_trace(ops.iter().copied());
            assert_eq!(sum.cycles, scalar.now(), "{mode:?}");
            assert_eq!(h.now(), scalar.now());
            assert_eq!(h.memory_stats(), scalar.memory_stats());
            for (slice, &want_evals) in evals_per_slice.iter().enumerate() {
                assert_eq!(
                    h.llc().slice_stats(slice),
                    scalar.llc().slice_stats(slice),
                    "per-slice stats diverged: {mode:?} slice={slice}"
                );
                assert_eq!(
                    h.llc().slice_stats(slice).defense_evals,
                    want_evals,
                    "period boundary count diverged: slice={slice}"
                );
            }
        }
    }
}

/// The adaptive trace replay against the reference model: identical
/// statistics (defense re-evaluations included), partition boundaries
/// and residency.
#[test]
fn sharded_adaptive_replay_matches_reference_model() {
    let ops = long_mixed_trace(9_000);
    let geom = CacheGeometry::tiny();
    for mode in adaptive_modes() {
        let mut reference = ReferenceCache::new(geom, mode);
        for &op in &ops {
            reference.access(op.addr, op.kind);
        }
        let mut h = Hierarchy::new(geom, mode);
        h.run_trace(ops.iter().copied());
        assert_eq!(h.llc().stats(), reference.stats(), "{mode:?}");
        for &op in &ops {
            let ss = h.llc().locate(op.addr);
            assert_eq!(h.llc().contains(op.addr), reference.contains(op.addr));
            assert_eq!(
                h.llc().io_partition_limit(ss),
                reference.io_partition_limit(ss),
                "partition boundary diverged at {ss}: {mode:?}"
            );
            assert_eq!(
                h.llc().domain_count(ss, Domain::Io),
                reference.domain_count(ss, Domain::Io)
            );
        }
    }
}

/// Chunked replay (how `Workbench`-style drivers feed the hierarchy)
/// agrees with one-shot replay and with the scalar entry points: the
/// defense clock ticks per access, so batch boundaries can't shift
/// period boundaries.
#[test]
fn chunked_adaptive_replay_is_chunk_invariant() {
    let ops = long_mixed_trace(8_192);
    let geom = CacheGeometry::tiny();
    let mode = DdioMode::adaptive();
    let scalar = per_access(geom, mode, &ops);
    for chunk in [ops.len(), 4_096, 1_024, 7] {
        let mut h = Hierarchy::new(geom, mode);
        for part in ops.chunks(chunk) {
            h.run_trace(part.iter().copied());
        }
        assert_eq!(h.now(), scalar.now(), "chunk={chunk}");
        assert_eq!(h.memory_stats(), scalar.memory_stats());
        for slice in 0..geom.slices() {
            assert_eq!(
                h.llc().slice_stats(slice),
                scalar.llc().slice_stats(slice),
                "chunk={chunk} slice={slice}"
            );
        }
    }
}

/// The trace walk keeps adapting inside a single large batch (the old
/// cycle-stamped API re-evaluated at most once per batch because the
/// whole batch shared one clock value).
#[test]
fn adaptation_fires_inside_one_batch() {
    let ops = long_mixed_trace(6_000);
    let mut h = Hierarchy::new(CacheGeometry::tiny(), DdioMode::adaptive());
    h.run_trace(ops.iter().copied());
    let evals = h.llc().stats().defense_evals;
    assert!(
        evals >= ops.len() as u64 / (2 * AdaptiveConfig::paper_defaults().period),
        "one batch must keep crossing period boundaries, saw {evals}"
    );
}
