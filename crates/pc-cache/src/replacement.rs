//! Replacement policies for the simulated LLC, stored flat.
//!
//! The attack's observable — "did an I/O fill evict one of my primed
//! lines?" — depends on the victim-selection policy, so the simulator
//! supports true LRU (the default, and the policy PRIME+PROBE literature
//! assumes), tree pseudo-LRU (closer to real Intel parts), and random
//! (an ablation).
//!
//! Unlike the original per-set objects, replacement state lives in one
//! flat allocation covering every set of the sliced cache (see
//! [`crate::llc::SlicedCache`]'s SoA store): LRU keeps one `u8` stamp
//! per line in a single `Vec` and one `u8` clock per set beside it,
//! PLRU one fixed-stride bit block per set. Only the *relative order*
//! of stamps within one set matters for victim selection, so a set's
//! stamps are re-ranked whenever its clock is about to wrap, and LRU
//! order stays exact across arbitrarily long runs.

use crate::set::Domain;
use rand::rngs::SmallRng;
use rand::Rng;

/// Which replacement policy a [`crate::SlicedCache`] uses.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub enum ReplacementPolicy {
    /// True least-recently-used.
    #[default]
    Lru,
    /// Binary-tree pseudo-LRU (as in real Intel L1/L2 and, approximately,
    /// pre-Ivy-Bridge LLCs).
    TreePlru,
    /// Uniformly random victim.
    Random,
}

/// An LRU stamp, and a set's LRU clock.
pub(crate) type Stamp = u8;

/// Flattened replacement state for all sets of the cache.
///
/// LRU stamps are `u8` (a 20-way set's stamps fill 20 bytes, and the
/// victim scan is memory-bound), driven by a per-set `u8` clock. A
/// set's clock wraps after at most 255 touches;
/// [`FlatReplacement::renormalize`] then rewrites that set's stamps to
/// order-preserving ranks, so LRU order is exact across arbitrarily
/// long runs.
#[derive(Clone, Debug)]
pub(crate) enum FlatReplacement {
    Lru {
        /// `stamps[set * ways + way]` = the set's clock at the way's
        /// last touch; the smallest stamp among a set's candidate ways
        /// is the LRU.
        stamps: Vec<Stamp>,
        /// `clocks[set]` = the set's LRU clock: its latest stamp.
        clocks: Vec<Stamp>,
    },
    TreePlru {
        /// Direction bits, `stride` per set, 1-indexed heap layout.
        bits: Vec<bool>,
        /// Bits reserved per set: `ways.next_power_of_two().max(2)`.
        stride: usize,
    },
    Random,
}

impl FlatReplacement {
    pub(crate) fn new(policy: ReplacementPolicy, ways: usize, total_sets: usize) -> Self {
        match policy {
            ReplacementPolicy::Lru => FlatReplacement::Lru {
                stamps: vec![0; ways * total_sets],
                clocks: vec![0; total_sets],
            },
            ReplacementPolicy::TreePlru => {
                let stride = ways.next_power_of_two().max(2);
                FlatReplacement::TreePlru {
                    bits: vec![false; stride * total_sets],
                    stride,
                }
            }
            ReplacementPolicy::Random => FlatReplacement::Random,
        }
    }

    /// Rewrites one set's LRU stamps as ranks `1..=ways`, ties broken
    /// by way index exactly as the victim scan breaks them, and returns
    /// the highest rank: the clock restarts there, so the next touch
    /// stamps above every rank. Order within the set — the only thing
    /// victim selection reads — is unchanged. At most 64 ways
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
        match self {
            FlatReplacement::Lru { stamps, clocks } => {
                let clock = &mut clocks[set];
                let set_stamps = &mut stamps[set * ways..(set + 1) * ways];
                if *clock == Stamp::MAX {
                    *clock = FlatReplacement::renormalize(set_stamps);
                }
                *clock += 1;
                set_stamps[way] = *clock;
            }
            FlatReplacement::TreePlru { bits, stride } => {
                // Walk from the root to the leaf for `way`, flipping each
                // internal node away from the path taken.
                let bits = &mut bits[set * *stride..(set + 1) * *stride];
                let leaves = ways.next_power_of_two();
                let mut node = 1usize;
                let mut lo = 0usize;
                let mut hi = leaves;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if way < mid {
                        bits[node] = false; // next victim search goes right
                        hi = mid;
                        node *= 2;
                    } else {
                        bits[node] = true; // next victim search goes left
                        lo = mid;
                        node = node * 2 + 1;
                    }
                }
            }
            FlatReplacement::Random => {}
        }
    }

    /// Chooses a victim in set `set` among the ways whose bit is set in
    /// `eligible` (a mask the caller computes in one pass over the
    /// packed line words — cheaper than re-deriving eligibility per way
    /// inside the scan).
    ///
    /// Returns `None` when the mask is empty (the caller then widens the
    /// eligibility set; see `LineStore::fill`).
    ///
    /// Caches with more than 64 ways are rejected at construction
    /// (`LineStore::new`), so a `u64` mask always covers the set.
    #[inline]
    pub(crate) fn victim(
        &self,
        set: usize,
        ways: usize,
        rng: &mut SmallRng,
        eligible: u64,
    ) -> Option<usize> {
        if eligible == 0 {
            return None;
        }
        match self {
            FlatReplacement::Lru { stamps, .. } => {
                let stamps = &stamps[set * ways..(set + 1) * ways];
                // Walk the set bits only; ties keep the lowest way, same
                // as the original first-minimum scan.
                let mut m = eligible;
                let mut best = m.trailing_zeros() as usize;
                m &= m - 1;
                while m != 0 {
                    let w = m.trailing_zeros() as usize;
                    if stamps[w] < stamps[best] {
                        best = w;
                    }
                    m &= m - 1;
                }
                Some(best)
            }
            FlatReplacement::TreePlru { bits, stride } => {
                // Follow the direction bits; if the indicated leaf is not
                // eligible, fall back to the eligible way with the smallest
                // index (PLRU has no total order to consult).
                let bits = &bits[set * *stride..(set + 1) * *stride];
                let leaves = ways.next_power_of_two();
                let mut node = 1usize;
                let mut lo = 0usize;
                let mut hi = leaves;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if bits[node] {
                        hi = mid;
                        node *= 2;
                    } else {
                        lo = mid;
                        node = node * 2 + 1;
                    }
                }
                let leaf = lo.min(ways - 1);
                if eligible & (1 << leaf) != 0 {
                    Some(leaf)
                } else {
                    Some(eligible.trailing_zeros() as usize)
                }
            }
            FlatReplacement::Random => {
                // Preserve the original RNG semantics: one `gen_range`
                // over the candidate count, then the k-th candidate in
                // way order.
                let n = eligible.count_ones() as usize;
                let k = rng.gen_range(0..n);
                let mut m = eligible;
                for _ in 0..k {
                    m &= m - 1;
                }
                Some(m.trailing_zeros() as usize)
            }
        }
    }
}

/// Domain-based victim eligibility, replacing the old per-fill closures
/// (`LineStore` lowers it to a per-set bitmask in one pass).
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
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut st = FlatReplacement::new(ReplacementPolicy::Lru, 4, 2);
        for w in 0..4 {
            st.touch(1, 4, w);
        }
        st.touch(1, 4, 0); // order in set 1 now: 1 (oldest), 2, 3, 0
        assert_eq!(st.victim(1, 4, &mut rng(), 0b1111), Some(1));
        st.touch(1, 4, 1);
        assert_eq!(st.victim(1, 4, &mut rng(), 0b1111), Some(2));
    }

    #[test]
    fn lru_sets_are_independent_despite_shared_clock() {
        let mut st = FlatReplacement::new(ReplacementPolicy::Lru, 2, 2);
        // Interleave touches of two sets; each set's relative order must
        // be intact.
        st.touch(0, 2, 0);
        st.touch(1, 2, 1);
        st.touch(0, 2, 1);
        st.touch(1, 2, 0);
        assert_eq!(st.victim(0, 2, &mut rng(), 0b11), Some(0));
        assert_eq!(st.victim(1, 2, &mut rng(), 0b11), Some(1));
    }

    #[test]
    fn lru_respects_eligibility() {
        let mut st = FlatReplacement::new(ReplacementPolicy::Lru, 4, 1);
        for w in 0..4 {
            st.touch(0, 4, w);
        }
        assert_eq!(st.victim(0, 4, &mut rng(), 0b1100), Some(2));
        assert_eq!(st.victim(0, 4, &mut rng(), 0), None);
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
        let mut st = FlatReplacement::new(ReplacementPolicy::Lru, WAYS, 1);
        let mut model = [0u64; WAYS];
        let mut model_clock = 0u64;
        let model_victim = |model: &[u64; WAYS], mask: u64| {
            (0..WAYS)
                .filter(|&w| mask & (1 << w) != 0)
                .min_by_key(|&w| (model[w], w))
        };
        let mut r = rng();
        let mut wraps = 0;
        for step in 0..20_000 {
            // Skewed draws leave some ways untouched for long runs, so
            // re-ranking sees stale and never-touched stamps too.
            let way = if r.gen_bool(0.7) {
                r.gen_range(0..4)
            } else {
                r.gen_range(0..WAYS)
            };
            if let FlatReplacement::Lru { clocks, .. } = &st {
                wraps += usize::from(clocks[0] == Stamp::MAX);
            }
            st.touch(0, WAYS, way);
            model_clock += 1;
            model[way] = model_clock;
            let mask = r.gen::<u64>() & ALL;
            assert_eq!(
                st.victim(0, WAYS, &mut r, mask),
                model_victim(&model, mask),
                "step {step}, mask {mask:#x}"
            );
            // Peeling victims off the full mask walks the eviction
            // order; a stamp tied with another shows up as a swap.
            let mut left = ALL;
            while left != 0 {
                let want = model_victim(&model, left);
                assert_eq!(st.victim(0, WAYS, &mut r, left), want, "step {step}");
                left &= !(1 << want.unwrap());
            }
        }
        assert!(wraps >= 50, "only {wraps} clock wraps exercised");
    }

    #[test]
    fn plru_never_picks_most_recent() {
        let mut st = FlatReplacement::new(ReplacementPolicy::TreePlru, 8, 3);
        for w in 0..8 {
            st.touch(2, 8, w);
        }
        for last in 0..8 {
            st.touch(2, 8, last);
            let v = st.victim(2, 8, &mut rng(), 0xff).unwrap();
            assert_ne!(v, last, "PLRU picked the most recently touched way");
        }
    }

    #[test]
    fn plru_handles_non_power_of_two_ways() {
        let mut st = FlatReplacement::new(ReplacementPolicy::TreePlru, 20, 2);
        for w in 0..20 {
            st.touch(1, 20, w);
        }
        let v = st.victim(1, 20, &mut rng(), (1 << 20) - 1).unwrap();
        assert!(v < 20);
    }

    #[test]
    fn random_picks_only_eligible() {
        let st = FlatReplacement::new(ReplacementPolicy::Random, 8, 1);
        let mut r = rng();
        for _ in 0..100 {
            let v = st.victim(0, 8, &mut r, (1 << 3) | (1 << 5)).unwrap();
            assert!(v == 3 || v == 5);
        }
    }

    #[test]
    fn random_with_no_eligible_is_none() {
        let st = FlatReplacement::new(ReplacementPolicy::Random, 8, 1);
        assert_eq!(st.victim(0, 8, &mut rng(), 0), None);
    }
}
