//! LRU replacement for the simulated LLC, stored flat.
//!
//! The attack's observable — "did an I/O fill evict one of my primed
//! lines?" — depends on victim selection, so the simulator models true
//! LRU, the policy PRIME+PROBE and the paper's defense assume.
//!
//! Unlike the original per-set objects, replacement state lives in one
//! flat allocation covering every set of the sliced cache (see
//! [`crate::llc::SlicedCache`]'s SoA store): one `u8` stamp per line in
//! a single `Vec` and one `u8` clock per set beside it. Only the
//! *relative order* of stamps within one set matters for victim
//! selection, so a set's stamps are re-ranked whenever its clock is
//! about to wrap, and LRU order stays exact across arbitrarily long
//! runs.

use crate::set::Domain;

/// An LRU stamp, and a set's LRU clock.
pub(crate) type Stamp = u8;

/// Flattened LRU state for all sets of the cache.
///
/// Stamps are `u8` (a 20-way set's stamps fill 20 bytes, and the victim
/// scan is memory-bound), driven by a per-set `u8` clock. A set's clock
/// wraps after at most 255 touches; [`Lru::renormalize`] then rewrites
/// that set's stamps to order-preserving ranks, so LRU order is exact
/// across arbitrarily long runs.
#[derive(Clone, Debug)]
pub(crate) struct Lru {
    /// `stamps[set * ways + way]` = the set's clock at the way's last
    /// touch; the smallest stamp among a set's candidate ways is the
    /// LRU.
    stamps: Vec<Stamp>,
    /// `clocks[set]` = the set's LRU clock: its latest stamp.
    clocks: Vec<Stamp>,
}

impl Lru {
    pub(crate) fn new(ways: usize, total_sets: usize) -> Self {
        Lru {
            stamps: vec![0; ways * total_sets],
            clocks: vec![0; total_sets],
        }
    }

    /// Set `set`'s stamps, one per way.
    #[inline]
    pub(crate) fn set_stamps(&self, set: usize, ways: usize) -> &[Stamp] {
        &self.stamps[set * ways..(set + 1) * ways]
    }

    /// Rewrites one set's stamps as ranks `1..=ways`, ties broken by way
    /// index exactly as the victim scan breaks them, and returns the
    /// highest rank: the clock restarts there, so the next touch stamps
    /// above every rank. Order within the set — the only thing victim
    /// selection reads — is unchanged. At most 64 ways
    /// (`LineStore::new`), so every rank fits a `u8`.
    #[cold]
    fn renormalize(set_stamps: &mut [Stamp]) -> Stamp {
        let ways = set_stamps.len();
        let mut order = [0u8; 64];
        for (slot, w) in order[..ways].iter_mut().zip(0u8..) {
            *slot = w;
        }
        // Keys are unique (the way breaks ties), so an unstable sort
        // gives the one order the victim scan sees.
        order[..ways].sort_unstable_by_key(|&w| (set_stamps[usize::from(w)], w));
        for (rank, &w) in (1..).zip(&order[..ways]) {
            set_stamps[usize::from(w)] = rank;
        }
        Stamp::try_from(ways).expect("at most 64 ways")
    }

    /// Records a touch (hit or fill) of `way` in set `set`.
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, ways: usize, way: usize) {
        let clock = &mut self.clocks[set];
        let set_stamps = &mut self.stamps[set * ways..(set + 1) * ways];
        if *clock == Stamp::MAX {
            *clock = Lru::renormalize(set_stamps);
        }
        *clock += 1;
        set_stamps[way] = *clock;
    }

    /// The least-recently-touched way of set `set` among those for which
    /// `eligible(way)` holds, or `None` when no way is eligible. Ties
    /// keep the lowest way.
    #[inline]
    pub(crate) fn victim(
        &self,
        set: usize,
        ways: usize,
        mut eligible: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        let stamps = self.set_stamps(set, ways);
        let mut best: Option<usize> = None;
        for (w, &stamp) in stamps.iter().enumerate() {
            if eligible(w) && best.is_none_or(|b| stamp < stamps[b]) {
                best = Some(w);
            }
        }
        best
    }
}

/// Domain-based victim eligibility (`LineStore` tests it against each
/// way's packed word during the victim scan).
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub(crate) enum Victims {
    /// Any valid line may be displaced.
    Any,
    /// Only valid lines of this domain may be displaced.
    Only(Domain),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_mask(mask: u64) -> impl Fn(usize) -> bool {
        move |w| mask & (1 << w) != 0
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut st = Lru::new(4, 2);
        for w in 0..4 {
            st.touch(1, 4, w);
        }
        st.touch(1, 4, 0); // order in set 1 now: 1 (oldest), 2, 3, 0
        assert_eq!(st.victim(1, 4, in_mask(0b1111)), Some(1));
        st.touch(1, 4, 1);
        assert_eq!(st.victim(1, 4, in_mask(0b1111)), Some(2));
    }

    #[test]
    fn lru_sets_are_independent_despite_shared_clock() {
        let mut st = Lru::new(2, 2);
        // Interleave touches of two sets; each set's relative order must
        // be intact.
        st.touch(0, 2, 0);
        st.touch(1, 2, 1);
        st.touch(0, 2, 1);
        st.touch(1, 2, 0);
        assert_eq!(st.victim(0, 2, in_mask(0b11)), Some(0));
        assert_eq!(st.victim(1, 2, in_mask(0b11)), Some(1));
    }

    #[test]
    fn lru_respects_eligibility() {
        let mut st = Lru::new(4, 1);
        for w in 0..4 {
            st.touch(0, 4, w);
        }
        assert_eq!(st.victim(0, 4, in_mask(0b1100)), Some(2));
        assert_eq!(st.victim(0, 4, in_mask(0)), None);
    }

    /// The `u8` clock wraps every couple of hundred touches of a set;
    /// each wrap re-ranks the set. Against a plain `u64`-stamp model
    /// that never wraps, the victim for a random eligibility mask, and
    /// the set's whole eviction order, must agree after every touch,
    /// across dozens of wraps.
    #[test]
    fn clock_wraps_keep_lru_order_exact() {
        const WAYS: usize = 20;
        const ALL: u64 = (1 << WAYS) - 1;
        let mut st = Lru::new(WAYS, 1);
        let mut model = [0u64; WAYS];
        let mut model_clock = 0u64;
        let model_victim = |model: &[u64; WAYS], mask: u64| {
            (0..WAYS)
                .filter(|&w| mask & (1 << w) != 0)
                .min_by_key(|&w| (model[w], w))
        };
        let mut draws = 0u64;
        let mut draw = |bound: u64| {
            draws += 1;
            pc_par::mix_seed(7, draws) % bound
        };
        let mut wraps = 0;
        for step in 0..20_000 {
            // Skewed draws leave some ways untouched for long runs, so
            // re-ranking sees stale and never-touched stamps too.
            let way = if draw(10) < 7 {
                draw(4)
            } else {
                draw(WAYS as u64)
            } as usize;
            wraps += usize::from(st.clocks[0] == Stamp::MAX);
            st.touch(0, WAYS, way);
            model_clock += 1;
            model[way] = model_clock;
            let mask = draw(ALL + 1);
            assert_eq!(
                st.victim(0, WAYS, in_mask(mask)),
                model_victim(&model, mask),
                "step {step}, mask {mask:#x}"
            );
            // Peeling victims off the full mask walks the eviction
            // order; a stamp tied with another shows up as a swap.
            let mut left = ALL;
            while left != 0 {
                let want = model_victim(&model, left);
                assert_eq!(st.victim(0, WAYS, in_mask(left)), want, "step {step}");
                left &= !(1 << want.unwrap());
            }
        }
        assert!(wraps >= 50, "only {wraps} clock wraps exercised");
    }
}
