//! Kill tests for the probe-level fault sites.
//!
//! * `stale-eviction-memo` serves a keyed memo hit with the
//!   neighbouring slice's eviction set
//!   (`AddressPool::memoized_oracle_sets`). The detector asks the
//!   pool's memo for every slice of 16 set indices twice — a fill, then
//!   all hits, so every neighbour a stale hit could serve is memoized —
//!   and compares both answers with the memo-free walk
//!   (`oracle_eviction_sets`), which never consults the memo hook.
//! * `stale-lru` leaves keyed lines' recency stale on fast-path hits.
//!   The spy's decoded prime and probe walks (`Hierarchy::run_walk`)
//!   run on the fast path, so the probe-walk detector replays them
//!   against per-access `cpu_read` walks on a cloned machine.
//!
//! Each detector must notice its mutant for every seed; the no-fault
//! run of both is the negative control.

use pc_cache::fault::{self, FaultSite, FaultSpec};
use pc_cache::{CacheGeometry, DdioMode, Hierarchy, PhysAddr, SliceSet, SlicedCache, LINE_SIZE};
use pc_probe::{oracle_eviction_sets, AddressPool, EvictionSet, PrimeProbe};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The machine and the walked sets both detectors share: every slice of
/// 16 set indices on the paper geometry.
fn machine() -> (Hierarchy, AddressPool, Vec<SliceSet>, Vec<EvictionSet>) {
    let h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
    let pool = AddressPool::allocate(6, 16384);
    let targets: Vec<SliceSet> = (0..16)
        .flat_map(|i| (0..8).map(move |slice| SliceSet::new(slice, i * 128 + i)))
        .collect();
    let walked = oracle_eviction_sets(h.llc(), &pool, &targets);
    (h, pool, targets, walked)
}

/// Runs the memo ↔ walk differential and returns the first divergence,
/// if any.
fn detect_memo() -> Option<String> {
    let (h, pool, targets, walked) = machine();
    for call in 0..2 {
        if pool.memoized_oracle_sets(h.llc(), &targets) != walked {
            return Some(format!("memoized eviction sets diverged (call {call})"));
        }
    }
    None
}

/// A line outside `set` that maps to the same slice-set (ground truth:
/// the detector's DMA traffic, not attacker code).
fn conflicting_line(llc: &SlicedCache, set: &EvictionSet) -> PhysAddr {
    let first = set.addresses()[0];
    let stride = (llc.geometry().sets_per_slice() * LINE_SIZE) as u64;
    (1u64..)
        .map(|k| PhysAddr::new(first.raw() + k * stride))
        .find(|&a| llc.locate(a) == llc.locate(first) && !set.addresses().contains(&a))
        .expect("a conflicting line exists")
}

/// Runs the probe-walk differential and returns the first divergence,
/// if any: prime 128 sets, DMA-write one conflicting line into each,
/// then reverse-probe them all, on the decoded walks and, on a cloned
/// machine, one `cpu_read` per line. The DMA line leaves each set one
/// line short, so the probe's refill picks an LRU victim among lines
/// the probe just touched — the order a stale recency update breaks.
fn detect_probe_walks() -> Option<String> {
    let (mut h, _, _, sets) = machine();
    let threshold = h.latencies().miss_threshold();
    let mut oracle = h.clone();
    let probes: Vec<PrimeProbe> = sets
        .iter()
        .map(|s| PrimeProbe::new(s.clone(), threshold))
        .collect();
    let dma: Vec<PhysAddr> = sets.iter().map(|s| conflicting_line(h.llc(), s)).collect();
    for (p, set) in probes.iter().zip(&sets) {
        p.prime(&mut h);
        for &a in set.addresses() {
            oracle.cpu_read(a);
        }
    }
    for &line in &dma {
        h.io_write(line);
        oracle.io_write(line);
    }
    for (i, (p, set)) in probes.iter().zip(&sets).enumerate() {
        let got = p.probe(&mut h);
        let (mut misses, mut latency) = (0, 0);
        for &a in set.addresses().iter().rev() {
            let lat = oracle.cpu_read(a);
            latency += lat;
            misses += u32::from(lat >= threshold);
        }
        if (got.misses, got.total_latency) != (misses, latency) {
            return Some(format!("probe of set {i} diverged"));
        }
    }
    if h.now() != oracle.now() {
        return Some(format!("clock {} != {}", h.now(), oracle.now()));
    }
    if h.memory_stats() != oracle.memory_stats() {
        return Some("memory traffic".into());
    }
    for slice in 0..h.llc().geometry().slices() {
        if h.llc().slice_stats(slice) != oracle.llc().slice_stats(slice) {
            return Some(format!("slice {slice} statistics"));
        }
    }
    let lines = sets.iter().flat_map(|s| s.addresses().iter().copied());
    for a in lines.chain(dma) {
        if h.llc().contains(a) != oracle.llc().contains(a) {
            return Some(format!("residency of {a:?}"));
        }
    }
    None
}

/// Arms `site` for each seed in turn and returns the seeds `detect`
/// failed to notice.
fn survivors(
    site: FaultSite,
    seeds: std::ops::Range<u64>,
    detect: fn() -> Option<String>,
) -> Vec<String> {
    let mut survivors = Vec::new();
    for seed in seeds {
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
    survivors
}

#[test]
fn stale_eviction_memo_is_killed_for_every_seed() {
    let _g = serialized();
    let survivors = survivors(FaultSite::StaleEvictionMemo, 0..4, detect_memo);
    assert!(
        survivors.is_empty(),
        "surviving mutants:\n{}",
        survivors.join("\n")
    );
}

#[test]
fn stale_lru_is_killed_through_probe_walks() {
    let _g = serialized();
    let survivors = survivors(FaultSite::StaleLru, 0..4, detect_probe_walks);
    assert!(
        survivors.is_empty(),
        "surviving mutants:\n{}",
        survivors.join("\n")
    );
}

/// Negative control: no fault armed → the memo serves the walk's sets,
/// and the decoded walks match the per-access reads.
#[test]
fn memo_and_walk_agree_with_no_fault_armed() {
    let _g = serialized();
    fault::disarm();
    assert_eq!(detect_memo(), None);
    assert_eq!(detect_probe_walks(), None);
}
