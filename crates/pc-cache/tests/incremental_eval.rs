//! Incremental vs full-scan defense re-evaluation, pinned against the
//! [`ReferenceCache`] oracle.
//!
//! The real cache replaced the per-period full revisit scan with
//! a dirty-set worklist plus per-set epoch stamps and a parked-set skip
//! (see `shard.rs::adapt` and the "Adaptive defense" section of
//! ARCHITECTURE.md). The reference model deliberately keeps the old
//! full scan verbatim, so every comparison here is incremental-vs-full:
//! if the worklist ever skips an evaluation that was *not* a provable
//! no-op — wrong park condition, stale dirty entry, missed flush
//! re-engagement — these tests see a partition boundary, a
//! `defense_evals` count, a displaced-line writeback or an LRU victim
//! choice drift.
//!
//! Pinned observables, per the suite's contract:
//!
//! * **partition sizes at every period boundary** — in fact after every
//!   single access: the full `io_partition_limit` + I/O-occupancy map
//!   of all 32 sets of the tiny geometry is swept in lockstep;
//! * **per-slice `defense_evals`** — each slice's count of period
//!   re-evaluations must match the reference model's exactly, not just
//!   the merged total (merged stats are compared too);
//! * **displaced-line writebacks** — `writebacks` and
//!   `partition_invalidations` ride along in every stats comparison;
//! * **all [`DdioMode`]s**;
//! * **adversarial oscillation** — streams that push a target band of
//!   sets' per-period I/O activity right around `t_low`/`t_high`, so
//!   partitions grow, shrink and park/unpark continuously instead of
//!   saturating at `max_io_lines`, plus mid-stream flushes that break
//!   every parked set's stability premise.

use pc_cache::reference::ReferenceCache;
use pc_cache::{
    AccessKind, AdaptiveConfig, CacheGeometry, DdioMode, Domain, PhysAddr, SliceSet, SlicedCache,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn modes() -> Vec<DdioMode> {
    vec![
        DdioMode::Disabled,
        DdioMode::enabled(),
        // Paper defaults: t_high = 1 with the presence floor, so limits
        // ratchet to max and park — the skip machinery's best case.
        DdioMode::Adaptive(AdaptiveConfig {
            period: 16,
            ..AdaptiveConfig::paper_defaults()
        }),
        // Tight equal thresholds: activity 3 shrinks, 4 grows — every
        // period can move the boundary, the skip machinery's worst case.
        DdioMode::Adaptive(AdaptiveConfig {
            period: 16,
            t_high: 4,
            t_low: 4,
            min_io_lines: 1,
            max_io_lines: 3,
        }),
    ]
}

/// Sweeps the whole partition map: boundary and I/O occupancy of every
/// (slice, set) must agree between the incremental engine and the
/// full-scan oracle.
fn assert_partition_map(soa: &SlicedCache, reference: &ReferenceCache, what: &str) {
    let geom = soa.geometry();
    for slice in 0..geom.slices() {
        for set in 0..geom.sets_per_slice() {
            let ss = SliceSet::new(slice, set);
            assert_eq!(
                soa.io_partition_limit(ss),
                reference.io_partition_limit(ss),
                "{what}: partition boundary at {ss}"
            );
            assert_eq!(
                soa.domain_count(ss, Domain::Io),
                reference.domain_count(ss, Domain::Io),
                "{what}: I/O occupancy at {ss}"
            );
        }
    }
}

/// An adversarial stream oscillating around the quota thresholds: each
/// period-sized phase either floods a small band of sets with DMA
/// writes (activity ≥ `t_high` → grow), starves them behind pure CPU
/// traffic (activity < `t_low` → shrink), or trickles exactly
/// threshold-many I/O writes so the boundary decision rides the edge.
/// CPU traffic conflicts in the same band, so boundary moves displace
/// real (often dirty) lines.
fn oscillating_stream(
    seed: u64,
    phases: usize,
    cfg: AdaptiveConfig,
) -> Vec<(PhysAddr, AccessKind)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    // ~4 hot sets per slice: lines 0..8 on the tiny geometry.
    let hot_line = |rng: &mut SmallRng| rng.gen_range(0..8u64);
    for phase in 0..phases {
        let len = cfg.period as usize; // one slice period per phase, roughly
        match phase % 3 {
            0 => {
                // Flood: every access an I/O write into the hot band.
                for _ in 0..len {
                    ops.push((PhysAddr::new(hot_line(&mut rng) * 64), AccessKind::IoWrite));
                }
            }
            1 => {
                // Starve: CPU reads/writes only, same band (conflict).
                for _ in 0..len {
                    let kind = if rng.gen_bool(0.5) {
                        AccessKind::CpuWrite
                    } else {
                        AccessKind::CpuRead
                    };
                    ops.push((PhysAddr::new(hot_line(&mut rng) * 64), kind));
                }
            }
            _ => {
                // Trickle: threshold-straddling I/O count, CPU filler.
                let io = rng.gen_range(cfg.t_low.saturating_sub(1)..=cfg.t_high) as usize;
                for i in 0..len {
                    let kind = if i < io {
                        AccessKind::IoWrite
                    } else if rng.gen_bool(0.3) {
                        AccessKind::IoRead
                    } else {
                        AccessKind::CpuWrite
                    };
                    ops.push((PhysAddr::new(hot_line(&mut rng) * 64), kind));
                }
            }
        }
    }
    ops
}

/// A broad mixed stream (every slice, every kind, wide address range).
fn mixed_stream(seed: u64, len: usize) -> Vec<(PhysAddr, AccessKind)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let line = if rng.gen_bool(0.6) {
                rng.gen_range(0..48u64)
            } else {
                rng.gen_range(0..(1 << 12))
            };
            let kind = match rng.gen_range(0..10u32) {
                0..=2 => AccessKind::IoWrite,
                3 => AccessKind::IoRead,
                4..=6 => AccessKind::CpuWrite,
                _ => AccessKind::CpuRead,
            };
            (PhysAddr::new(line * 64), kind)
        })
        .collect()
}

/// Scalar lockstep: incremental engine vs full-scan oracle, the whole
/// partition map swept after **every** access (which subsumes "at every
/// period boundary"), merged stats (defense evals, displaced-line
/// writebacks, partition invalidations) at the end.
fn assert_lockstep(mode: DdioMode, ops: &[(PhysAddr, AccessKind)], flush_at: Option<usize>) {
    let geom = CacheGeometry::tiny();
    let mut soa = SlicedCache::new(geom, mode);
    let mut reference = ReferenceCache::new(geom, mode);
    for (i, &(a, k)) in ops.iter().enumerate() {
        if flush_at == Some(i) {
            assert_eq!(
                soa.flush_all(),
                reference.flush_all(),
                "flush writebacks diverged at op {i}: {mode:?}"
            );
        }
        let got = soa.access(a, k);
        let want = reference.access(a, k);
        assert_eq!(got, want, "outcome diverged at op {i}: {mode:?}");
        assert_partition_map(&soa, &reference, &format!("op {i} {mode:?}"));
    }
    assert_eq!(
        soa.stats(),
        reference.stats(),
        "merged stats diverged: {mode:?}"
    );
}

/// Per-slice leg: the same trace through [`SlicedCache::access`] and
/// the oracle. Each slice's `defense_evals` must match the oracle's
/// per-slice count; merged stats, the partition map and residency must
/// match at the end.
fn assert_per_slice_evals(mode: DdioMode, ops: &[(PhysAddr, AccessKind)]) {
    let geom = CacheGeometry::tiny();
    let mut soa = SlicedCache::new(geom, mode);
    let mut reference = ReferenceCache::new(geom, mode);
    for &(a, k) in ops {
        soa.access(a, k);
        reference.access(a, k);
    }
    for slice in 0..geom.slices() {
        assert_eq!(
            soa.slice_stats(slice).defense_evals,
            reference.slice_defense_evals(slice),
            "per-slice defense_evals diverged: {mode:?} slice={slice}"
        );
    }
    assert_eq!(
        soa.stats(),
        reference.stats(),
        "merged stats diverged: {mode:?}"
    );
    assert_partition_map(&soa, &reference, &format!("end state {mode:?}"));
    for &(a, _) in ops {
        assert_eq!(
            soa.contains(a),
            reference.contains(a),
            "residency diverged for {a}: {mode:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Mixed random traces, scalar lockstep: every mode, with
    /// a mid-stream flush (which must re-engage every parked set).
    #[test]
    fn lockstep_on_mixed_streams(
        seed in 0u64..u64::MAX,
        len in 64usize..600,
        flush_frac in 0u32..4,
    ) {
        let ops = mixed_stream(seed, len);
        let flush_at = (flush_frac > 0).then(|| len as usize * flush_frac as usize / 4);
        for mode in modes() {
            assert_lockstep(mode, &ops, flush_at);
        }
    }

    /// Quota-threshold oscillation, scalar lockstep: partitions must
    /// grow/shrink/park/unpark in exact sync with the full scan.
    #[test]
    fn lockstep_on_oscillating_streams(
        seed in 0u64..u64::MAX,
        phases in 6usize..30,
    ) {
        for mode in modes() {
            let DdioMode::Adaptive(cfg) = mode else { continue };
            let ops = oscillating_stream(seed, phases, cfg);
            assert_lockstep(mode, &ops, None);
        }
    }

    /// Both stream shapes: per-slice defense_evals, merged stats and
    /// end-state partition map against the oracle.
    #[test]
    fn per_slice_defense_evals_match_the_reference(
        seed in 0u64..u64::MAX,
        len in 64usize..600,
    ) {
        for mode in modes() {
            let ops = match mode {
                DdioMode::Adaptive(cfg) => oscillating_stream(seed, len / 16 + 4, cfg),
                _ => mixed_stream(seed, len),
            };
            assert_per_slice_evals(mode, &ops);
        }
    }
}

/// Deterministic long-haul oscillation with interleaved flushes: parks
/// and re-engagements pile up across hundreds of periods; the
/// incremental engine must track the full scan through all of it.
#[test]
fn long_oscillation_with_flushes_stays_pinned() {
    let cfg = AdaptiveConfig {
        period: 16,
        t_high: 4,
        t_low: 4,
        min_io_lines: 1,
        max_io_lines: 3,
    };
    let mode = DdioMode::Adaptive(cfg);
    let geom = CacheGeometry::tiny();
    let mut soa = SlicedCache::new(geom, mode);
    let mut reference = ReferenceCache::new(geom, mode);
    let ops = oscillating_stream(0xadaf, 400, cfg);
    for (i, &(a, k)) in ops.iter().enumerate() {
        if i % 997 == 500 {
            assert_eq!(soa.flush_all(), reference.flush_all(), "flush at op {i}");
        }
        assert_eq!(soa.access(a, k), reference.access(a, k), "op {i}");
        if i % cfg.period as usize == 0 {
            assert_partition_map(&soa, &reference, &format!("op {i}"));
        }
    }
    assert_eq!(soa.stats(), reference.stats());
}
