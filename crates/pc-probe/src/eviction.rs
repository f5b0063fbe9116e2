//! Eviction-set construction.
//!
//! The spy can compute the set-index bits of its own addresses, but the
//! slice hash is opaque (paper §II-D). To monitor one concrete cache set
//! it therefore needs, per set index, one *eviction set per slice*:
//! `ways` of its own addresses that all collide in that slice-set.
//! [`build_eviction_sets_for_index`] discovers them with timing-based
//! group testing, the standard technique from Liu et al. that Mastik
//! implements.

use crate::pool::{AddressPool, LINES_PER_PAGE};
use pc_cache::{CacheOp, Cycles, Hierarchy, PhysAddr, SliceSet, SlicedCache};

/// `ways` attacker addresses that all map to one (slice, set) pair —
/// accessing all of them replaces the set's entire contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvictionSet {
    addrs: Vec<PhysAddr>,
}

impl EvictionSet {
    /// Wraps a list of conflicting addresses.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    pub fn new(addrs: Vec<PhysAddr>) -> Self {
        assert!(!addrs.is_empty(), "eviction set must contain addresses");
        EvictionSet { addrs }
    }

    /// The conflicting addresses.
    pub fn addresses(&self) -> &[PhysAddr] {
        &self.addrs
    }

    /// Number of addresses.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// `true` if empty (constructor forbids it).
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }
}

/// Does accessing `set` evict `victim`? The attacker's basic timing test.
///
/// Only the final victim read needs a latency; the candidate walk in
/// between is a batch replay (byte-identical to per-address reads).
fn evicts(h: &mut Hierarchy, victim: PhysAddr, set: &[PhysAddr], threshold: Cycles) -> bool {
    h.cpu_read(victim);
    h.run_trace(set.iter().map(|&a| CacheOp::read(a)));
    h.cpu_read(victim) >= threshold
}

/// Builds one eviction set per slice for `set_index`, purely by timing.
///
/// Returns up to `max_groups` sets (pass the slice count; fewer are
/// returned when the pool doesn't cover every slice with at least
/// `ways + 1` addresses).
///
/// The algorithm: pick a pivot, confirm the rest of the candidates evict
/// it, then shrink that candidate set by group testing (drop a chunk,
/// keep the reduction if the pivot is still evicted) until `ways`
/// addresses remain — a minimal eviction set, necessarily all in the
/// pivot's slice. Finally peel every remaining candidate that the minimal
/// set evicts (same slice) and repeat for the next slice.
///
/// # Panics
///
/// Panics if `ways` is zero.
pub fn build_eviction_sets_for_index(
    h: &mut Hierarchy,
    pool: &AddressPool,
    set_index: usize,
    ways: usize,
    max_groups: usize,
    threshold: Cycles,
) -> Vec<EvictionSet> {
    assert!(ways > 0, "ways must be non-zero");
    let geom = h.llc().geometry();
    let mut remaining = pool.addresses_with_index(&geom, set_index);
    let mut groups = Vec::new();

    while groups.len() < max_groups && remaining.len() > ways {
        let pivot = remaining[0];
        let mut candidate: Vec<PhysAddr> = remaining[1..].to_vec();
        if !evicts(h, pivot, &candidate, threshold) {
            // Not enough same-slice candidates left for this pivot; try
            // the next pivot, dropping this one.
            remaining.remove(0);
            continue;
        }
        // Shrink to a minimal eviction set: fast chunked reduction first,
        // then one-at-a-time when chunking stalls (a stalled chunk pass
        // only means every chunk mixes essential and removable addresses,
        // not that the set is minimal).
        while candidate.len() > ways {
            let chunks = ways + 1;
            let chunk_size = candidate.len().div_ceil(chunks);
            let mut reduced = false;
            if chunk_size > 1 {
                for c in 0..chunks {
                    let lo = c * chunk_size;
                    if lo >= candidate.len() {
                        break;
                    }
                    let hi = (lo + chunk_size).min(candidate.len());
                    let mut test = Vec::with_capacity(candidate.len() - (hi - lo));
                    test.extend_from_slice(&candidate[..lo]);
                    test.extend_from_slice(&candidate[hi..]);
                    if test.len() >= ways && evicts(h, pivot, &test, threshold) {
                        candidate = test;
                        reduced = true;
                        break;
                    }
                }
            }
            if !reduced {
                // Single-address fallback: any non-essential address (one
                // outside the pivot's slice, or a surplus in-slice line)
                // can be removed without losing the eviction property.
                for i in 0..candidate.len() {
                    let mut test = candidate.clone();
                    test.remove(i);
                    if evicts(h, pivot, &test, threshold) {
                        candidate = test;
                        reduced = true;
                        break;
                    }
                }
            }
            if !reduced {
                break; // genuinely minimal (or measurement noise); keep it
            }
        }
        // Peel everything the minimal set conflicts with (same slice).
        remaining = remaining
            .into_iter()
            .filter(|a| *a != pivot && !candidate.contains(a))
            .filter(|a| !evicts(h, *a, &candidate, threshold))
            .collect();
        groups.push(EvictionSet::new(candidate));
    }
    groups
}

/// Ground-truth eviction-set construction for experiment *setup*.
///
/// Uses the cache's slice hash directly, so it is **instrumentation, not
/// attack code** — the equivalent of the paper's one-time offline phase
/// being precomputed. Returns one set per requested target, in order:
/// the first `ways` pool addresses, in pool order, that land in the
/// target slice-set.
///
/// Targets are served in groups that draw on the same pool pages (equal
/// set index rounded down to a page): one walk over the pool fills the
/// whole group and stops once every member holds `ways` addresses. So
/// pass every target of a set-up in one call — the chasing spy's 2 560
/// probe targets share 32 such groups on the paper's machine.
///
/// This walk is memo-free on purpose. It fills
/// [`AddressPool::memoized_oracle_sets`], which the chasing spy builds
/// from, and it is what monitors (`build_monitor`) call directly:
/// routing monitor set-up through the memo too filled the memo inside
/// set-up, and the extra heap growth raised the `attack` benchmark's
/// set-up time from a 1.57 ms median to 2.05 ms, with 3–4.5 ms outliers
/// (2-vCPU x86-64 VM).
///
/// # Panics
///
/// Panics if a target's set index is out of range, or if the pool
/// cannot supply `ways` addresses for some target (allocate a larger
/// pool).
pub fn oracle_eviction_sets(
    llc: &SlicedCache,
    pool: &AddressPool,
    targets: &[SliceSet],
) -> Vec<EvictionSet> {
    let geom = llc.geometry();
    let ways = geom.ways();
    let page_of = |i: usize| {
        assert!(
            targets[i].set < geom.sets_per_slice(),
            "set index out of range"
        );
        targets[i].set / LINES_PER_PAGE
    };
    // Grown by push, not preallocated to `ways`: with exact-size blocks
    // glibc trimmed and re-grew its heap between the recovery
    // experiments' repeated set-ups, re-faulting their pages and doubling
    // the measured set-up time.
    let mut sets: Vec<Vec<PhysAddr>> = vec![Vec::new(); targets.len()];
    let mut order: Vec<usize> = (0..targets.len()).collect();
    order.sort_by_key(|&i| page_of(i));
    for group in order.chunk_by(|&a, &b| page_of(a) == page_of(b)) {
        let mut unfilled = group.len();
        for page in pool.pages_covering(&geom, targets[group[0]].set) {
            if unfilled == 0 {
                break;
            }
            for &i in group {
                let (t, set) = (&targets[i], &mut sets[i]);
                if set.len() == ways {
                    continue;
                }
                let a = page.add_blocks((t.set % LINES_PER_PAGE) as u64);
                if llc.slice_hash().slice_of(a) == t.slice {
                    set.push(a);
                    unfilled -= usize::from(set.len() == ways);
                }
            }
        }
    }
    sets.into_iter()
        .zip(targets)
        .map(|(addrs, t)| {
            assert!(
                addrs.len() == ways,
                "pool supplies only {}/{} addresses for {t}; allocate a larger pool",
                addrs.len(),
                ways
            );
            EvictionSet::new(addrs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_cache::{CacheGeometry, DdioMode};

    #[test]
    fn oracle_sets_are_exactly_one_slice_set() {
        let h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let pool = AddressPool::allocate(2, 8192);
        let targets = [
            SliceSet::new(0, 0),
            SliceSet::new(5, 64),
            SliceSet::new(7, 1984),
        ];
        let sets = oracle_eviction_sets(h.llc(), &pool, &targets);
        assert_eq!(sets.len(), 3);
        for (set, t) in sets.iter().zip(&targets) {
            assert_eq!(set.len(), 20);
            for &a in set.addresses() {
                assert_eq!(h.llc().locate(a), *t);
            }
        }
    }

    #[test]
    fn timing_based_construction_finds_all_slices() {
        let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let pool = AddressPool::allocate(3, 8192);
        let thr = h.latencies().miss_threshold();
        let ways = h.llc().geometry().ways();
        let groups = build_eviction_sets_for_index(&mut h, &pool, 0, ways, 8, thr);
        assert!(
            groups.len() >= 6,
            "expected most of the 8 slices, found {}",
            groups.len()
        );
        // Verify against ground truth: each group is homogeneous.
        let mut seen_slices = Vec::new();
        for g in &groups {
            let ss = h.llc().locate(g.addresses()[0]);
            assert_eq!(ss.set, 0);
            for &a in g.addresses() {
                assert_eq!(h.llc().locate(a), ss, "mixed-slice eviction set");
            }
            assert!(!seen_slices.contains(&ss.slice), "duplicate slice group");
            seen_slices.push(ss.slice);
            assert!(g.len() >= ways, "group smaller than associativity");
            assert!(g.len() <= ways + 2, "group not minimal: {}", g.len());
        }
    }

    #[test]
    fn built_sets_actually_evict() {
        let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let pool = AddressPool::allocate(4, 8192);
        let thr = h.latencies().miss_threshold();
        let ways = h.llc().geometry().ways();
        let groups = build_eviction_sets_for_index(&mut h, &pool, 64, ways, 3, thr);
        for g in &groups {
            // A fresh victim in the same slice-set must be evicted by the
            // group.
            let ss = h.llc().locate(g.addresses()[0]);
            let victim = pool
                .addresses_with_index(&h.llc().geometry(), 64)
                .into_iter()
                .find(|a| h.llc().locate(*a) == ss && !g.addresses().contains(a))
                .expect("pool has spare addresses in this slice-set");
            assert!(evicts(&mut h, victim, g.addresses(), thr));
        }
    }

    #[test]
    #[should_panic(expected = "larger pool")]
    fn oracle_panics_on_small_pool() {
        let h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let pool = AddressPool::allocate(2, 64); // far too small
        let _ = oracle_eviction_sets(h.llc(), &pool, &[SliceSet::new(0, 0)]);
    }
}
