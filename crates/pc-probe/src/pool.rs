//! The attacker's own memory: a pool of page-aligned physical pages.
//!
//! On real hardware the spy mmaps hugepages, which lets it compute the
//! full 11-bit set index of any address it owns while the slice hash
//! remains opaque. We model the same knowledge boundary: the pool exposes
//! addresses *grouped by set index* but nothing about slices.

use crate::eviction::{oracle_eviction_sets, EvictionSet};
use pc_cache::fault::{self, FaultSite};
use pc_cache::{CacheGeometry, PhysAddr, SliceSet, SlicedCache, LINE_SIZE, PAGE_SIZE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashSet};
use std::sync::{Arc, Mutex, PoisonError};

/// Cache lines per page: the number of consecutive set indices one page
/// covers.
pub(crate) const LINES_PER_PAGE: usize = PAGE_SIZE / LINE_SIZE;

/// A set of unique pages owned by the spy, disjoint by construction from
/// the NIC's buffer region (different physical ranges).
///
/// The pool also memoizes the oracle eviction sets built from its pages
/// ([`AddressPool::memoized_oracle_sets`]). The memo is instrumentation,
/// like [`oracle_eviction_sets`] itself: it is the paper's §III-B
/// offline phase done once per pool rather than once per spy, and it
/// moves no knowledge across the attacker's boundary — a set depends
/// only on the pool's pages, the geometry (which fixes the slice hash)
/// and the target. Clones share the memo, since they own the same pages.
///
/// ```
/// use pc_cache::CacheGeometry;
/// use pc_probe::AddressPool;
/// let pool = AddressPool::allocate(1, 512);
/// let g = CacheGeometry::xeon_e5_2660();
/// // Every address the pool claims for set index 0 really has index 0.
/// for a in pool.addresses_with_index(&g, 0) {
///     assert_eq!(g.set_index(a), 0);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct AddressPool {
    pages: Vec<PhysAddr>,
    memo: Arc<Mutex<OracleMemo>>,
}

/// Complete oracle eviction sets per geometry, in a flat table indexed
/// by `slice * sets_per_slice + set` (an [`EvictionSet`] is one `Arc`,
/// so an empty slot is one word and a hit is a pointer bump). A hashed memo cost more than the lookups it served: on a
/// 2-vCPU x86-64 VM a warm 2 560-target spy took 0.7–0.9 ms through a
/// `BTreeMap` against 0.15–0.2 ms here, and a second SipHash user in
/// this crate stopped the compiler inlining the hash in `allocate`'s
/// page loop (0.29 → 0.37 ms per 12 288-page pool).
type OracleMemo = Vec<(CacheGeometry, Vec<Option<EvictionSet>>)>;

/// First page number of the attacker's region (far above the NIC
/// allocator's default region to guarantee disjointness).
const ATTACKER_FIRST_PAGE: u64 = 1 << 23;
/// Size of the attacker's region in pages.
const ATTACKER_REGION_PAGES: u64 = 1 << 21;

impl AddressPool {
    /// Allocates `n_pages` unique pages.
    ///
    /// # Panics
    ///
    /// Panics if `n_pages` is zero or exceeds the attacker region's
    /// 2^21 pages (no pool that large has unique pages to draw).
    pub fn allocate(seed: u64, n_pages: usize) -> Self {
        assert!(n_pages > 0, "pool must contain pages");
        assert!(
            n_pages as u64 <= ATTACKER_REGION_PAGES,
            "pool of {n_pages} pages exceeds the {ATTACKER_REGION_PAGES}-page attacker region"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut seen = HashSet::with_capacity(n_pages);
        let mut pages = Vec::with_capacity(n_pages);
        while pages.len() < n_pages {
            let p = ATTACKER_FIRST_PAGE + rng.gen_range(0..ATTACKER_REGION_PAGES);
            if seen.insert(p) {
                pages.push(PhysAddr::new(p * PAGE_SIZE as u64));
            }
        }
        AddressPool {
            pages,
            memo: Arc::default(),
        }
    }

    /// Number of pages owned.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// `true` if the pool owns no pages (constructor forbids it).
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// All page base addresses.
    pub fn pages(&self) -> &[PhysAddr] {
        &self.pages
    }

    /// Every owned address whose set index equals `set_index`, in pool
    /// order.
    ///
    /// For page-aligned set indices these are page bases; for other
    /// indices they are page bases plus the right line offset — the same
    /// trick the spy uses to monitor blocks 1..3 of the NIC buffers.
    pub fn addresses_with_index(&self, geom: &CacheGeometry, set_index: usize) -> Vec<PhysAddr> {
        let in_page = (set_index % LINES_PER_PAGE) as u64;
        self.pages_covering(geom, set_index)
            .map(|p| p.add_blocks(in_page))
            .collect()
    }

    /// The page bases, in pool order, that hold an address with set
    /// index `set_index`: a page covers the `LINES_PER_PAGE`
    /// consecutive set indices from its base's, so these are the pages
    /// whose base index is `set_index` rounded down to a page.
    pub(crate) fn pages_covering(
        &self,
        geom: &CacheGeometry,
        set_index: usize,
    ) -> impl Iterator<Item = PhysAddr> + '_ {
        assert!(set_index < geom.sets_per_slice(), "set index out of range");
        let base = set_index - set_index % LINES_PER_PAGE;
        let geom = *geom;
        self.pages
            .iter()
            .copied()
            .filter(move |p| geom.set_index(*p) == base)
    }

    /// [`oracle_eviction_sets`] for `targets`, served from the pool's
    /// memo: one set per target, in order, equal to what the memo-free
    /// walk returns.
    ///
    /// The first call for a geometry fills every missing target with one
    /// grouped walk; later calls are lookups and clones. The memo is
    /// thread-safe, and the sets do not depend on which caller filled an
    /// entry first.
    ///
    /// # Panics
    ///
    /// As [`oracle_eviction_sets`]: when a target's set index is out of
    /// range or the pool cannot supply `ways` addresses for a target.
    /// The memo is left as it was, so later calls still work.
    pub fn memoized_oracle_sets(
        &self,
        llc: &SlicedCache,
        targets: &[SliceSet],
    ) -> Vec<EvictionSet> {
        let geom = llc.geometry();
        // Only complete walks are inserted, so a lock poisoned by a
        // panicking walk still guards a valid memo.
        let mut memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        let at = match memo.iter().position(|(g, _)| *g == geom) {
            Some(at) => at,
            None => {
                memo.push((geom, vec![None; geom.slices() * geom.sets_per_slice()]));
                memo.len() - 1
            }
        };
        let sets = &mut memo[at].1;
        // An out-of-range slice indexes past the table's end, so it is
        // never a hit and reaches the walk, which rejects it.
        let slot = |t: &SliceSet| {
            assert!(t.set < geom.sets_per_slice(), "set index out of range");
            t.slice
                .saturating_mul(geom.sets_per_slice())
                .saturating_add(t.set)
        };
        let mut fresh = BTreeSet::new();
        let missing: Vec<SliceSet> = targets
            .iter()
            .copied()
            .filter(|t| !matches!(sets.get(slot(t)), Some(Some(_))) && fresh.insert(*t))
            .collect();
        if !missing.is_empty() {
            let built = oracle_eviction_sets(llc, self, &missing);
            for (t, set) in missing.iter().zip(built) {
                sets[slot(t)] = Some(set);
            }
        }
        targets
            .iter()
            .map(|t| {
                let mut i = slot(t);
                if fault::fires_keyed(
                    FaultSite::StaleEvictionMemo,
                    (t.set as u64) << 32 | t.slice as u64,
                ) && !fresh.contains(t)
                {
                    let neighbour = slot(&SliceSet::new((t.slice + 1) % geom.slices(), t.set));
                    if sets[neighbour].is_some() {
                        i = neighbour;
                    }
                }
                sets[i].clone().expect("every target was filled above")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_cache::DdioMode;

    #[test]
    fn pool_pages_unique_and_aligned() {
        let pool = AddressPool::allocate(7, 1000);
        let mut seen = HashSet::new();
        for p in pool.pages() {
            assert!(p.is_page_aligned());
            assert!(seen.insert(p.raw()));
        }
        assert_eq!(pool.len(), 1000);
        assert!(!pool.is_empty());
    }

    #[test]
    fn index_filtering_is_correct() {
        let pool = AddressPool::allocate(7, 2000);
        let g = CacheGeometry::xeon_e5_2660();
        for idx in [0usize, 64, 65, 1984, 2047] {
            for a in pool.addresses_with_index(&g, idx) {
                assert_eq!(g.set_index(a), idx);
            }
        }
    }

    #[test]
    fn page_aligned_indices_get_about_one_in_32_pages() {
        // 2048 sets/slice, 32 page-aligned indices → a random page matches
        // a given page-aligned index with probability 1/32.
        let pool = AddressPool::allocate(3, 3200);
        let g = CacheGeometry::xeon_e5_2660();
        let n = pool.addresses_with_index(&g, 0).len();
        assert!(
            (50..150).contains(&n),
            "expected ~100 pages for index 0, got {n}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the 2097152-page attacker region")]
    fn oversized_pool_panics_up_front() {
        let _ = AddressPool::allocate(1, ATTACKER_REGION_PAGES as usize + 1);
    }

    #[test]
    #[should_panic(expected = "larger pool")]
    fn memo_keeps_the_small_pool_panic() {
        let llc = pc_cache::SlicedCache::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let pool = AddressPool::allocate(2, 64);
        let _ = pool.memoized_oracle_sets(&llc, &[SliceSet::new(0, 0)]);
    }

    #[test]
    fn memo_rejects_out_of_range_targets_and_survives_the_panic() {
        let llc = pc_cache::SlicedCache::new(CacheGeometry::tiny(), DdioMode::enabled());
        let pool = AddressPool::allocate(4, 64);
        let good = [SliceSet::new(0, 3), SliceSet::new(1, 3)];
        let want = oracle_eviction_sets(&llc, &pool, &good);
        assert_eq!(pool.memoized_oracle_sets(&llc, &good), want);
        // Each would hit a memoized slot if the flat index were unchecked
        // or wrapped: (0, 19) lands on (1, 3), (2^60, 3) wraps onto (0, 3).
        for bad in [SliceSet::new(0, 19), SliceSet::new(1 << 60, 3)] {
            let fill =
                std::panic::catch_unwind(|| pool.memoized_oracle_sets(&llc, &[good[0], bad]));
            assert!(fill.is_err(), "{bad} must panic");
        }
        // The panics poisoned the lock; the memo still serves the walk.
        assert_eq!(pool.memoized_oracle_sets(&llc, &good), want);
    }

    #[test]
    fn disjoint_from_nic_region() {
        let pool = AddressPool::allocate(3, 100);
        // NIC default region ends below page 2^18 + 2^20 < 2^23.
        for p in pool.pages() {
            assert!(p.page_number() >= ATTACKER_FIRST_PAGE);
        }
    }
}
