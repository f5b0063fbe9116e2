//! Kill tests for the cache-side fault catalog: every injected mutant
//! must be caught by the cheap op-stream differential detector.
//!
//! This is the suite-of-suites check the fault layer exists for
//! (`pc_cache::fault`): a differential test that has never failed can
//! be vacuous, so each catalog site is armed in turn and the detector —
//! the per-access oracle against the fast path's three entry points
//! (streaming applier, buffered `run_ops`, unbuffered `run_trace`),
//! compared on clock, memory traffic, merged *and* per-slice
//! statistics, and residency — must
//! report a divergence (or panic, which also counts: a mutant that
//! trips an internal assertion is dead). The same detector with no
//! fault armed must stay silent — the negative control pinning that
//! the injection hooks themselves perturb nothing.
//!
//! The rx site (`dropped-deferred-read`) lives above this crate; its
//! kill test is `crates/core/tests/fault_kill_rx.rs`. The
//! eviction-memo site (`stale-eviction-memo`) is killed by
//! `crates/pc-probe/tests/fault_kill_probe.rs`.

use pc_cache::fault::{self, FaultSite, FaultSpec};
use pc_cache::{
    AccessKind, AdaptiveConfig, CacheGeometry, CacheOp, CacheStats, DdioMode, Hierarchy, OpBuffer,
    OpSink, PhysAddr,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// The fault state is process-global; tests that arm serialize here.
static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The op_fuzz stream shape: mixed kinds, occasional leads, a hot
/// conflict region so LRU order and slice skew both matter.
fn fuzz_stream(seed: u64, len: usize) -> Vec<CacheOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let line = if rng.gen_range(0..100) < 60 {
                rng.gen_range(0..64u64)
            } else {
                rng.gen_range(0..(1 << 16))
            };
            let kind = match rng.gen_range(0..100u32) {
                p if p < 25 => AccessKind::IoWrite,
                p if p < 35 => AccessKind::IoRead,
                p if p < 55 => AccessKind::CpuWrite,
                _ => AccessKind::CpuRead,
            };
            let lead = if rng.gen_range(0..8u32) == 0 {
                rng.gen_range(1..500u64)
            } else {
                0
            };
            CacheOp::new(PhysAddr::new(line * 64), kind).after(lead)
        })
        .collect()
}

fn modes() -> [DdioMode; 3] {
    [
        DdioMode::Disabled,
        DdioMode::enabled(),
        DdioMode::Adaptive(AdaptiveConfig {
            period: 16,
            ..AdaptiveConfig::paper_defaults()
        }),
    ]
}

fn slice_stats(h: &Hierarchy) -> Vec<CacheStats> {
    (0..h.llc().geometry().slices())
        .map(|s| h.llc().slice_stats(s))
        .collect()
}

/// First observable difference between an engine and the oracle, if
/// any. Merged stats are compared as well as per-slice ones: the
/// aggregation layer is a catalog site of its own.
fn differs(oracle: &Hierarchy, other: &Hierarchy, ops: &[CacheOp]) -> Option<String> {
    if oracle.now() != other.now() {
        return Some(format!("clock {} != {}", other.now(), oracle.now()));
    }
    if oracle.memory_stats() != other.memory_stats() {
        return Some("memory traffic".into());
    }
    if oracle.llc().stats() != other.llc().stats() {
        return Some("merged LLC stats".into());
    }
    if slice_stats(oracle) != slice_stats(other) {
        return Some("per-slice LLC stats".into());
    }
    for op in ops {
        if oracle.llc().contains(op.addr) != other.llc().contains(op.addr) {
            return Some(format!("residency of {:?}", op.addr));
        }
    }
    None
}

/// The detector: replays seeded streams through all four paths over
/// carried state (six rounds per mode — enough consultations for every
/// counter site's trigger range) and reports the first divergence.
fn detect(stream_seed: u64) -> Option<String> {
    let geom = CacheGeometry::tiny();
    for mode in modes() {
        let mut oracle = Hierarchy::new(geom, mode);
        let mut streaming = Hierarchy::new(geom, mode);
        let mut batch = Hierarchy::new(geom, mode);
        let mut traced = Hierarchy::new(geom, mode);
        let mut buf = OpBuffer::new();
        for round in 0..6u64 {
            let ops = fuzz_stream(pc_par::mix_seed(stream_seed, round), 6000);
            for &op in &ops {
                oracle.op(op);
            }
            oracle.advance(17);
            {
                let mut sink = streaming.applier();
                for &op in &ops {
                    sink.op(op);
                }
                sink.advance(17);
            }
            buf.clear();
            for &op in &ops {
                buf.op(op);
            }
            buf.advance(17);
            batch.run_ops(&buf);
            traced.run_trace(ops.iter().copied());
            traced.advance(17);
            for (name, h) in [
                ("streaming", &streaming),
                ("batch", &batch),
                ("traced", &traced),
            ] {
                if let Some(d) = differs(&oracle, h, &ops) {
                    return Some(format!("{mode:?} round {round}: {name} vs oracle: {d}"));
                }
            }
        }
    }
    None
}

/// The seven catalog sites whose mutation lives at or below the
/// op-stream replay.
const CACHE_SITES: [FaultSite; 7] = [
    FaultSite::StatOffByOne,
    FaultSite::DroppedFlush,
    FaultSite::StaleLru,
    FaultSite::CorruptedLead,
    FaultSite::SkippedDefenseEval,
    FaultSite::StaleDirtySet,
    FaultSite::SkippedEpochBump,
];

/// The sites whose hook sits in the shard substrate the fast path
/// shares with the per-access oracle.
const FAST_PATH_SITES: [FaultSite; 4] = [
    FaultSite::StaleLru,
    FaultSite::SkippedDefenseEval,
    FaultSite::StaleDirtySet,
    FaultSite::SkippedEpochBump,
];

#[test]
fn every_cache_fault_site_is_killed_for_every_seed() {
    let _g = serialized();
    let mut survivors = Vec::new();
    for site in CACHE_SITES {
        for seed in 0..3u64 {
            fault::arm(FaultSpec {
                site,
                seed,
                nth: None,
            });
            let outcome = catch_unwind(AssertUnwindSafe(|| detect(0xD1FF)));
            let consultations = fault::consultations();
            fault::disarm();
            let killed = !matches!(outcome, Ok(None));
            if !killed {
                survivors.push(format!(
                    "{}:{seed} survived ({consultations} consultations)",
                    site.name()
                ));
            }
        }
    }
    assert!(
        survivors.is_empty(),
        "surviving mutants:\n{}",
        survivors.join("\n")
    );
}

/// Negative control: with nothing armed the very same detector must be
/// silent — the arming hooks on the hot paths perturb nothing.
#[test]
fn detector_is_silent_with_no_fault_armed() {
    let _g = serialized();
    fault::disarm();
    for stream_seed in [0xD1FF, 0x5EED] {
        assert_eq!(detect(stream_seed), None);
    }
}

/// Arming and disarming leaves no residue: a kill round followed by a
/// clean round reproduces the clean round exactly.
#[test]
fn disarm_restores_clean_behaviour() {
    let _g = serialized();
    fault::arm(FaultSpec {
        site: FaultSite::CorruptedLead,
        seed: 0,
        nth: Some(1), // every key: maximally invasive
    });
    let armed = catch_unwind(AssertUnwindSafe(|| detect(0xD1FF)));
    fault::disarm();
    assert!(
        !matches!(armed, Ok(None)),
        "an every-key lead skew must be detected"
    );
    assert_eq!(detect(0xD1FF), None, "disarm must fully restore");
}

/// The oracle side of the fast-path scope: each shard-substrate site,
/// armed to fire on every key, leaves the per-access oracle exactly as
/// the unarmed run leaves it — the hook is live only inside the fast
/// path, so the oracle stays the clean reference. The same arming
/// must still mutate `run_trace`, or the check would be vacuous.
#[test]
fn fast_path_sites_never_fire_in_the_per_access_oracle() {
    let _g = serialized();
    fault::disarm();
    let geom = CacheGeometry::tiny();
    let ops = fuzz_stream(0x0AC1E, 6000);
    let oracle_run = |mode| {
        let mut h = Hierarchy::new(geom, mode);
        for &op in &ops {
            h.op(op);
        }
        h
    };
    for site in FAST_PATH_SITES {
        assert!(site.fast_path_only(), "{site:?}");
        let mut mutated = false;
        for mode in modes() {
            let clean = oracle_run(mode);
            fault::arm(FaultSpec {
                site,
                seed: 0,
                nth: Some(1), // modulus 1: fires on every key it reaches
            });
            let armed = catch_unwind(AssertUnwindSafe(|| oracle_run(mode)));
            let mut fast = Hierarchy::new(geom, mode);
            let fast_outcome = catch_unwind(AssertUnwindSafe(|| {
                fast.run_trace(ops.iter().copied());
            }));
            fault::disarm();
            let armed = armed.unwrap_or_else(|_| panic!("{site:?} {mode:?}: oracle panicked"));
            assert_eq!(armed.now(), clean.now(), "{site:?} {mode:?}: clock");
            assert_eq!(
                armed.memory_stats(),
                clean.memory_stats(),
                "{site:?} {mode:?}: memory traffic"
            );
            assert_eq!(
                slice_stats(&armed),
                slice_stats(&clean),
                "{site:?} {mode:?}: per-slice stats"
            );
            for op in &ops {
                assert_eq!(
                    armed.llc().contains(op.addr),
                    clean.llc().contains(op.addr),
                    "{site:?} {mode:?}: residency of {:?}",
                    op.addr
                );
            }
            mutated |= fast_outcome.is_err() || differs(&clean, &fast, &ops).is_some();
        }
        assert!(mutated, "{site:?}: the armed site never mutated run_trace");
    }
}
