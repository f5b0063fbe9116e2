//! The attacker's own memory: a pool of page-aligned physical pages.
//!
//! On real hardware the spy mmaps hugepages, which lets it compute the
//! full 11-bit set index of any address it owns while the slice hash
//! remains opaque. We model the same knowledge boundary: the pool exposes
//! addresses *grouped by set index* but nothing about slices.

use pc_cache::{CacheGeometry, PhysAddr, LINE_SIZE, PAGE_SIZE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Cache lines per page: the number of consecutive set indices one page
/// covers.
pub(crate) const LINES_PER_PAGE: usize = PAGE_SIZE / LINE_SIZE;

/// A set of unique pages owned by the spy, disjoint by construction from
/// the NIC's buffer region (different physical ranges).
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
}

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
    /// Panics if `n_pages` is zero.
    pub fn allocate(seed: u64, n_pages: usize) -> Self {
        assert!(n_pages > 0, "pool must contain pages");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut seen = HashSet::with_capacity(n_pages);
        let mut pages = Vec::with_capacity(n_pages);
        while pages.len() < n_pages {
            let p = ATTACKER_FIRST_PAGE + rng.gen_range(0..ATTACKER_REGION_PAGES);
            if seen.insert(p) {
                pages.push(PhysAddr::new(p * PAGE_SIZE as u64));
            }
        }
        AddressPool { pages }
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn disjoint_from_nic_region() {
        let pool = AddressPool::allocate(3, 100);
        // NIC default region ends below page 2^18 + 2^20 < 2^23.
        for p in pool.pages() {
            assert!(p.page_number() >= ATTACKER_FIRST_PAGE);
        }
    }
}
