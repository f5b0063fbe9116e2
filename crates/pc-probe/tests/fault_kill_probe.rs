//! Kill tests for the probe-level fault sites:
//! `cross-epoch-misclassify` inverts one keyed target's classification
//! in the fused multi-target sample (`Monitor::sample_misses`), and
//! `stale-eviction-memo` serves a keyed memo hit with the neighbouring
//! slice's eviction set (`AddressPool::memoized_oracle_sets`). The
//! detector must notice both for every seed.
//!
//! The detector first asks the pool's memo for every slice of 16 set
//! indices twice — a fill, then all hits, so every neighbour a stale
//! hit could serve is memoized — and compares both answers with the
//! memo-free walk (`oracle_eviction_sets`), which never consults the
//! memo hook.
//!
//! The detector monitors 32 distinct sets — every keyed modulus in the
//! fault catalog (5..=13) fires within the first 32 keys — and
//! compares each fused sample row against per-target probing on a
//! cloned machine. The per-target path classifies from its own batch
//! aggregate and never consults the fused hook, so it is the oracle;
//! clock and LLC statistics are compared too, pinning that the fused
//! walk is pure scheduling. The no-fault run of the same detector is
//! the negative control (and one more fusion-equivalence regression).

use pc_cache::fault::{self, FaultSite, FaultSpec};
use pc_cache::{CacheGeometry, DdioMode, PhysAddr, SliceSet};
use pc_probe::{oracle_eviction_sets, AddressPool, Monitor, MonitorTarget};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs the fused ↔ per-target differential and returns the first
/// divergence, if any.
fn detect() -> Option<String> {
    let mut h = pc_cache::Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
    let pool = AddressPool::allocate(6, 16384);
    let memo_targets: Vec<SliceSet> = (0..16)
        .flat_map(|i| (0..8).map(move |slice| SliceSet::new(slice, i * 128 + i)))
        .collect();
    let walked = oracle_eviction_sets(h.llc(), &pool, &memo_targets);
    for call in 0..2 {
        if pool.memoized_oracle_sets(h.llc(), &memo_targets) != walked {
            return Some(format!("memoized eviction sets diverged (call {call})"));
        }
    }
    let mut victims: Vec<PhysAddr> = Vec::new();
    let mut targets = Vec::new();
    for page in 0..4000u64 {
        if targets.len() >= 32 {
            break;
        }
        let v = PhysAddr::new(page * 4096);
        let ss = h.llc().locate(v);
        if victims.iter().any(|&p| h.llc().locate(p) == ss) {
            continue;
        }
        let set = oracle_eviction_sets(h.llc(), &pool, &[ss]).remove(0);
        targets.push(MonitorTarget::new(
            targets.len(),
            set,
            h.latencies().miss_threshold(),
        ));
        victims.push(v);
    }
    let m = Monitor::new(targets);
    m.prime_all(&mut h);
    let _ = m.sample_misses(&mut h); // settle the primed state
    for round in 0..3usize {
        // NIC writes on a rotating third of the victims, so rows mix
        // active and idle columns — an inverted column diverges either
        // way (idle: 0 vs associativity; active: k vs accesses − k).
        for (i, &v) in victims.iter().enumerate() {
            if i % 3 == round {
                h.io_write(v);
            }
        }
        let mut oracle = h.clone();
        let fused = m.sample_misses(&mut h);
        let split: Vec<u32> = m
            .targets()
            .iter()
            .map(|t| t.probe.probe(&mut oracle).misses)
            .collect();
        if fused != split {
            return Some(format!("fused sample row diverged (round {round})"));
        }
        if h.now() != oracle.now() {
            return Some(format!("clock after fused sample (round {round})"));
        }
        if h.llc().stats() != oracle.llc().stats() {
            return Some(format!("LLC stats after fused sample (round {round})"));
        }
    }
    None
}

/// Arms `site` for fault seeds 0..4 in turn and asserts the detector
/// kills every mutant.
fn assert_killed_for_every_seed(site: FaultSite) {
    let _g = serialized();
    let mut survivors = Vec::new();
    for seed in 0..4u64 {
        fault::arm(FaultSpec {
            site,
            seed,
            nth: None,
        });
        let outcome = catch_unwind(AssertUnwindSafe(detect));
        fault::disarm();
        if matches!(outcome, Ok(None)) {
            survivors.push(format!("{}:{seed} survived", site.name()));
        }
    }
    assert!(
        survivors.is_empty(),
        "surviving mutants:\n{}",
        survivors.join("\n")
    );
}

#[test]
fn cross_epoch_misclassify_is_killed_for_every_seed() {
    assert_killed_for_every_seed(FaultSite::CrossEpochMisclassify);
}

#[test]
fn stale_eviction_memo_is_killed_for_every_seed() {
    assert_killed_for_every_seed(FaultSite::StaleEvictionMemo);
}

/// Negative control: no fault armed → the memo serves the walk's sets
/// and the fused sample is byte-identical to per-target probing.
#[test]
fn fused_and_per_target_agree_with_no_fault_armed() {
    let _g = serialized();
    fault::disarm();
    assert_eq!(detect(), None);
}
