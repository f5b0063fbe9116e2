//! Property-based tests for the attacker toolkit.

use pc_cache::{CacheGeometry, DdioMode, Hierarchy, PhysAddr, SliceSet, LINE_SIZE, PAGE_SIZE};
use pc_probe::{
    build_eviction_sets_for_index, calibrate_threshold, oracle_eviction_sets, AddressPool,
    PrimeProbe,
};
use proptest::prelude::*;

/// The geometries the set-index lookups are checked on: the paper's
/// machine, Figure 14's 8 MiB variant (fewer ways), and the tiny
/// unit-test shape, whose 16 sets all fall inside one page.
fn geometry(pick: usize) -> CacheGeometry {
    match pick {
        0 => CacheGeometry::xeon_e5_2660(),
        1 => CacheGeometry::xeon_scaled_mib(8),
        _ => CacheGeometry::tiny(),
    }
}

/// Brute-force reference for `addresses_with_index`: every page offset
/// by the set index's line within a page, kept when it lands on the set
/// index, in pool order.
fn scan_with_index(pool: &AddressPool, geom: &CacheGeometry, set_index: usize) -> Vec<PhysAddr> {
    let in_page = (set_index % (PAGE_SIZE / LINE_SIZE)) as u64;
    pool.pages()
        .iter()
        .map(|p| p.add_blocks(in_page))
        .filter(|a| geom.set_index(*a) == set_index)
        .collect()
}

/// Brute-force reference for `oracle_eviction_sets`: the first `ways`
/// scanned addresses that land in `target`, or `None` when the pool
/// holds fewer.
fn scan_eviction_set(h: &Hierarchy, pool: &AddressPool, target: SliceSet) -> Option<Vec<PhysAddr>> {
    let ways = h.llc().geometry().ways();
    let set: Vec<PhysAddr> = scan_with_index(pool, &h.llc().geometry(), target.set)
        .into_iter()
        .filter(|a| h.llc().locate(*a) == target)
        .take(ways)
        .collect();
    (set.len() == ways).then_some(set)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The set-index lookup returns exactly the page scan's addresses, in
    /// the same order, for every set index.
    #[test]
    fn lookup_equals_page_scan(pick in 0usize..3, seed in 0u64..1000, n in 1usize..2048) {
        let geom = geometry(pick);
        let pool = AddressPool::allocate(seed, n);
        for set_index in 0..geom.sets_per_slice() {
            prop_assert_eq!(
                pool.addresses_with_index(&geom, set_index),
                scan_with_index(&pool, &geom, set_index)
            );
        }
    }

    /// One oracle call over a batch of targets gives every target the
    /// first `ways` slice matches of the page scan, in pool order. The
    /// targets crowd onto four pages' set indices, with repeats, so the
    /// batch's groups (targets drawing on the same pages) hold many
    /// members that fill at different times.
    #[test]
    fn batched_oracle_sets_equal_scan_reference(
        pick in 0usize..3,
        seed in 0u64..1000,
        n in 8192usize..16384,
        raw in proptest::collection::vec((0usize..8, 0usize..4, 0usize..64), 1..48),
    ) {
        let geom = geometry(pick);
        let h = Hierarchy::new(geom, DdioMode::enabled());
        let pool = AddressPool::allocate(seed, n);
        // Targets the pool cannot cover make the whole call panic by
        // contract (unit-tested in `eviction.rs`), so they are left out.
        let (targets, want): (Vec<SliceSet>, Vec<Vec<PhysAddr>>) = raw
            .iter()
            .map(|&(slice, page, line)| {
                SliceSet::new(slice % geom.slices(), (page * 64 + line) % geom.sets_per_slice())
            })
            .filter_map(|t| Some((t, scan_eviction_set(&h, &pool, t)?)))
            .unzip();
        let got = oracle_eviction_sets(h.llc(), &pool, &targets);
        prop_assert_eq!(got.len(), want.len());
        for (set, want) in got.iter().zip(&want) {
            prop_assert_eq!(set.addresses(), &want[..]);
        }
    }

    /// Oracle eviction sets are always homogeneous (one slice-set),
    /// exactly `ways` long, and drawn from the pool.
    #[test]
    fn oracle_sets_are_well_formed(slice in 0usize..8, idx in 0usize..32, seed in 0u64..100) {
        let h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let pool = AddressPool::allocate(seed, 12288);
        let target = SliceSet::new(slice, idx * 64);
        let sets = oracle_eviction_sets(h.llc(), &pool, &[target]);
        let set = &sets[0];
        prop_assert_eq!(set.len(), 20);
        for &a in set.addresses() {
            prop_assert_eq!(h.llc().locate(a), target);
            prop_assert!(pool.pages().contains(&a.page_base()));
        }
    }

    /// A primed set detects exactly the I/O writes aimed at it: activity
    /// after a hit on the monitored set, silence for misses elsewhere.
    #[test]
    fn prime_probe_detects_exactly_its_set(page in 0u64..4000, seed in 0u64..50) {
        let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let pool = AddressPool::allocate(seed + 1, 12288);
        let victim = PhysAddr::new(page * 4096);
        let target = h.llc().locate(victim);
        let set = oracle_eviction_sets(h.llc(), &pool, &[target]).remove(0);
        let pp = PrimeProbe::new(set, h.latencies().miss_threshold());
        pp.prime(&mut h);
        prop_assert!(!pp.probe(&mut h).activity(), "clean probe after prime");
        h.io_write(victim);
        prop_assert!(pp.probe(&mut h).activity(), "I/O write must be seen");
        // A write to a different *line offset* (other set) is invisible.
        h.io_write(victim.add_blocks(1));
        prop_assert!(!pp.probe(&mut h).activity());
    }

    /// Calibration lands strictly between the hit and miss latencies for
    /// any sample count.
    #[test]
    fn calibration_separates(samples in 1usize..64) {
        let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let pool = AddressPool::allocate(3, 256);
        let thr = calibrate_threshold(&mut h, &pool, samples);
        prop_assert!(thr > h.latencies().llc_hit);
        prop_assert!(thr <= h.latencies().dram);
    }
}

/// Timing-based construction agrees with ground truth for several seeds
/// (moved out of proptest: each case is expensive).
#[test]
fn timing_construction_matches_oracle_across_seeds() {
    for seed in [11u64, 22, 33] {
        let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let pool = AddressPool::allocate(seed, 8192);
        let thr = h.latencies().miss_threshold();
        let groups = build_eviction_sets_for_index(&mut h, &pool, 64, 20, 8, thr);
        assert!(
            groups.len() >= 6,
            "seed {seed}: only {} groups",
            groups.len()
        );
        for g in &groups {
            let ss = h.llc().locate(g.addresses()[0]);
            assert!(g.addresses().iter().all(|a| h.llc().locate(*a) == ss));
        }
    }
}
