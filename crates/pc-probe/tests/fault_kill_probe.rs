//! Kill test for the probe-level fault site: `stale-eviction-memo`
//! serves a keyed memo hit with the neighbouring slice's eviction set
//! (`AddressPool::memoized_oracle_sets`). The detector must notice it
//! for every seed.
//!
//! The detector asks the pool's memo for every slice of 16 set indices
//! twice — a fill, then all hits, so every neighbour a stale hit could
//! serve is memoized — and compares both answers with the memo-free
//! walk (`oracle_eviction_sets`), which never consults the memo hook.
//! The no-fault run of the same detector is the negative control.

use pc_cache::fault::{self, FaultSite, FaultSpec};
use pc_cache::{CacheGeometry, DdioMode, SliceSet};
use pc_probe::{oracle_eviction_sets, AddressPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs the memo ↔ walk differential and returns the first divergence,
/// if any.
fn detect() -> Option<String> {
    let h = pc_cache::Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
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
    None
}

#[test]
fn stale_eviction_memo_is_killed_for_every_seed() {
    let _g = serialized();
    let mut survivors = Vec::new();
    for seed in 0..4u64 {
        fault::arm(FaultSpec {
            site: FaultSite::StaleEvictionMemo,
            seed,
            nth: None,
        });
        let outcome = catch_unwind(AssertUnwindSafe(detect));
        fault::disarm();
        if matches!(outcome, Ok(None)) {
            survivors.push(format!("stale-eviction-memo:{seed} survived"));
        }
    }
    assert!(
        survivors.is_empty(),
        "surviving mutants:\n{}",
        survivors.join("\n")
    );
}

/// Negative control: no fault armed → the memo serves the walk's sets.
#[test]
fn memo_and_walk_agree_with_no_fault_armed() {
    let _g = serialized();
    fault::disarm();
    assert_eq!(detect(), None);
}
