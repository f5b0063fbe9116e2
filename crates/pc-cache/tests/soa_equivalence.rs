//! SoA-store ↔ reference-model equivalence.
//!
//! The per-slice structure-of-arrays engine must be observationally
//! identical to the per-set reference implementation
//! ([`pc_cache::reference::ReferenceCache`]): same [`AccessOutcome`] for
//! every access of any random trace, same statistics, same residency,
//! same partition boundaries — across all three DDIO modes. The two
//! keep independent LRUs (re-ranked `u8` stamps here, never-wrapping
//! `u64` stamps in the reference), so every eviction is cross-checked.
//!
//! On top of the scalar equivalence, the batch trace walk
//! (`Hierarchy::run_trace`), fed the same trace in chunks, must land in
//! the same state as the reference model driven one op at a time.

use pc_cache::reference::ReferenceCache;
use pc_cache::{
    AccessKind, AdaptiveConfig, CacheGeometry, CacheOp, DdioMode, Domain, Hierarchy, PhysAddr,
    SlicedCache,
};
use proptest::prelude::*;

fn addr_strategy() -> impl Strategy<Value = PhysAddr> {
    // A small line-aligned region so sets conflict constantly.
    (0u64..(1 << 14)).prop_map(|line| PhysAddr::new(line * 64))
}

fn kind_strategy() -> impl Strategy<Value = AccessKind> {
    prop_oneof![
        Just(AccessKind::CpuRead),
        Just(AccessKind::CpuWrite),
        Just(AccessKind::IoWrite),
        Just(AccessKind::IoRead),
    ]
}

fn mode_strategy() -> impl Strategy<Value = DdioMode> {
    prop_oneof![
        Just(DdioMode::Disabled),
        (1u8..4).prop_map(|w| DdioMode::Enabled { io_way_limit: w }),
        Just(DdioMode::Adaptive(AdaptiveConfig {
            period: 64,
            ..AdaptiveConfig::paper_defaults()
        })),
        Just(DdioMode::Adaptive(AdaptiveConfig {
            period: 32,
            t_high: 4,
            t_low: 4,
            min_io_lines: 1,
            max_io_lines: 3,
        })),
    ]
}

/// Drives both implementations through `ops` and asserts identical
/// observable behaviour at every step.
fn assert_equivalent(mode: DdioMode, ops: &[(PhysAddr, AccessKind)]) {
    let geom = CacheGeometry::tiny();
    let mut soa = SlicedCache::new(geom, mode);
    let mut reference = ReferenceCache::new(geom, mode);
    for (i, &(a, k)) in ops.iter().enumerate() {
        let got = soa.access(a, k);
        let want = reference.access(a, k);
        assert_eq!(
            got, want,
            "outcome diverged at op {i}: {a} {k:?} mode {mode:?}"
        );
        let ss = soa.locate(a);
        assert_eq!(
            soa.domain_count(ss, Domain::Io),
            reference.domain_count(ss, Domain::Io),
            "I/O occupancy diverged at op {i}"
        );
        assert_eq!(
            soa.io_partition_limit(ss),
            reference.io_partition_limit(ss),
            "partition boundary diverged at op {i}"
        );
    }
    assert_eq!(soa.stats(), reference.stats(), "statistics diverged");
    for &(a, _) in ops {
        assert_eq!(
            soa.contains(a),
            reference.contains(a),
            "residency diverged for {a}"
        );
    }
}

/// Drives the batch trace walk and the reference model through the
/// same trace — chunked, because batch boundaries must not be
/// observable (each slice's defense clock ticks per access, wherever
/// the chunks fall) — and asserts identical end state everywhere it is
/// observable. Adaptive modes adapt *inside* the batches here, so
/// per-slice period reconstruction is compared against the reference
/// on every run.
fn assert_chunked_equivalent(mode: DdioMode, ops: &[(PhysAddr, AccessKind)]) {
    const CHUNK: usize = 96;
    let geom = CacheGeometry::tiny();
    let mut reference = ReferenceCache::new(geom, mode);
    for &(a, k) in ops {
        reference.access(a, k);
    }
    let mut h = Hierarchy::new(geom, mode);
    for chunk in ops.chunks(CHUNK) {
        // Tuples lift into the op-stream IR (leads zero).
        h.run_trace(chunk.iter().map(|&t| CacheOp::from(t)));
    }
    let llc = h.llc();
    assert_eq!(llc.stats(), reference.stats(), "stats diverged: {mode:?}");
    for &(a, _) in ops {
        let ss = llc.locate(a);
        assert_eq!(
            llc.contains(a),
            reference.contains(a),
            "residency diverged for {a}: {mode:?}"
        );
        assert_eq!(
            llc.domain_count(ss, Domain::Io),
            reference.domain_count(ss, Domain::Io),
            "I/O occupancy diverged at {ss}: {mode:?}"
        );
        assert_eq!(
            llc.io_partition_limit(ss),
            reference.io_partition_limit(ss),
            "partition boundary diverged at {ss}: {mode:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full random traces in every mode.
    #[test]
    fn random_traces_are_equivalent(
        mode in mode_strategy(),
        ops in proptest::collection::vec((addr_strategy(), kind_strategy()), 1..600),
    ) {
        assert_equivalent(mode, &ops);
    }

    /// The chunked batch trace walk against the reference model:
    /// identical stats, partition boundaries and residency in every
    /// mode.
    #[test]
    fn chunked_batches_are_equivalent(
        mode in mode_strategy(),
        ops in proptest::collection::vec((addr_strategy(), kind_strategy()), 1..600),
    ) {
        assert_chunked_equivalent(mode, &ops);
    }

    /// Flush in the middle of a trace: writeback counts and the emptied
    /// state must agree too.
    #[test]
    fn flush_is_equivalent(
        mode in mode_strategy(),
        before in proptest::collection::vec((addr_strategy(), kind_strategy()), 1..200),
        after in proptest::collection::vec((addr_strategy(), kind_strategy()), 1..200),
    ) {
        let geom = CacheGeometry::tiny();
        let mut soa = SlicedCache::new(geom, mode);
        let mut reference = ReferenceCache::new(geom, mode);
        for &(a, k) in &before {
            assert_eq!(soa.access(a, k), reference.access(a, k));
        }
        assert_eq!(soa.flush_all(), reference.flush_all(), "flush writebacks diverged");
        assert_eq!(soa.stats(), reference.stats());
        for &(a, k) in &after {
            assert_eq!(soa.access(a, k), reference.access(a, k));
        }
        assert_eq!(soa.stats(), reference.stats());
    }
}

/// A long deterministic mixed trace on the paper's full Xeon geometry —
/// one heavyweight case outside proptest so the big-geometry indexing
/// (8 slices × 2048 sets) is covered without slowing the property runs.
#[test]
fn xeon_geometry_long_trace_equivalent() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let geom = CacheGeometry::xeon_e5_2660();
    for mode in [
        DdioMode::Disabled,
        DdioMode::enabled(),
        DdioMode::adaptive(),
    ] {
        let mut soa = SlicedCache::new(geom, mode);
        let mut reference = ReferenceCache::new(geom, mode);
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        for i in 0..60_000u64 {
            let a = PhysAddr::new(rng.gen_range(0..500_000u64) * 64);
            let k = match i % 5 {
                0 | 1 => AccessKind::CpuRead,
                2 => AccessKind::CpuWrite,
                3 => AccessKind::IoWrite,
                _ => AccessKind::IoRead,
            };
            assert_eq!(soa.access(a, k), reference.access(a, k), "op {i} {mode:?}");
        }
        assert_eq!(soa.stats(), reference.stats(), "{mode:?}");
    }
}
