//! The contiguous structure-of-arrays line store behind
//! [`crate::SlicedCache`].
//!
//! The original implementation kept one `Vec<Option<Line>>` plus a
//! replacement-state object *per set* — 16 384 × 2 heap allocations on
//! the paper's Xeon geometry, with every lookup chasing a pointer and
//! every quota check rescanning all ways. This store flattens the whole
//! LLC into parallel arrays indexed by `set * ways + way`:
//!
//! * `lines` — one packed `u32` per line: `tag << 3 | IO | DIRTY |
//!   VALID`, so the whole lookup is a single load + mask + compare per
//!   way over one contiguous array. An invalid line is the all-zero
//!   word. A word holds tags up to [`MAX_TAG`] (2^29 − 1): addresses
//!   below 2^46 on the paper's geometry. Every simulated address is
//!   below 2^36, and [`crate::SlicedCache`] asserts the bound where it
//!   forms a tag.
//! * replacement state — flat per-line `u8` LRU stamps plus one `u8`
//!   LRU clock per set ([`crate::replacement::Lru`]).
//! * per-set bookkeeping — one packed 16-byte [`SetMeta`] record (valid
//!   count, I/O count, partition limit, activity, flags, dirty-epoch
//!   stamp) per set.
//!
//! A paper-geometry model (327 680 lines, 16 384 sets) thus takes
//! 1.25 MiB of line words, 320 KiB of stamps, 16 KiB of clocks and
//! 256 KiB of set records.
//!
//! The incrementally-maintained counters in [`SetMeta`] turn the
//! DDIO way-limit and adaptive-partition quota checks (previously
//! O(ways) rescans per access) into O(1) loads; lookups and victim
//! scans walk a single cache-line-friendly slice.

use crate::replacement::{Lru, Stamp, Victims};
use crate::set::{Domain, EvictedLine};

/// One line's packed word: `tag << TAG_SHIFT | IO | DIRTY | VALID`.
type Word = u32;

/// Packed-word bit: the line holds valid data.
const VALID: Word = 1 << 0;
/// Packed-word bit: the line is dirty (write-back owed on displacement).
const DIRTY: Word = 1 << 1;
/// Packed-word bit: the line belongs to [`Domain::Io`] (clear = CPU).
const IO: Word = 1 << 2;
/// Bits below the tag.
const TAG_SHIFT: u32 = 3;
/// Largest tag a packed line word holds.
pub(crate) const MAX_TAG: u32 = Word::MAX >> TAG_SHIFT;

/// Scratch flag: set holds an elevated partition (`io_limit > min`).
pub(crate) const FLAG_ELEVATED: u8 = 1 << 1;
/// Scratch flag: set is elevated *and stable* — its last evaluation
/// proved the next one would be a pure no-op (no boundary move, no
/// eviction), so the adaptive defense parks it off the active worklist
/// until new I/O activity or a flush re-engages it. See `Shard::adapt`
/// for the exact soundness condition.
pub(crate) const FLAG_PARKED: u8 = 1 << 2;

/// [`SetMeta::touch_epoch`] sentinel: "not touched in any epoch". The
/// adaptive epoch counter skips this value when it wraps, so a stamp of
/// `NEVER_TOUCHED` can never spuriously match the current epoch.
pub(crate) const NEVER_TOUCHED: u32 = u32::MAX;

#[inline]
fn pack(tag: u32, domain: Domain, dirty: bool) -> Word {
    debug_assert!(tag <= MAX_TAG, "tag overflows packed word");
    (tag << TAG_SHIFT)
        | VALID
        | if dirty { DIRTY } else { 0 }
        | if domain == Domain::Io { IO } else { 0 }
}

/// Host cache-line size the prefetch hints step by.
const HOST_LINE: usize = 64;

/// Hints every host cache line `span` covers: one hint per 64 bytes
/// from its first element, plus its last element, whose line the
/// stride misses when the span starts mid-line.
#[inline]
fn hint_span<T>(span: &[T]) {
    let stride = (HOST_LINE / std::mem::size_of::<T>()).max(1);
    for value in span.iter().step_by(stride) {
        hint_line(value);
    }
    if let Some(last) = span.last() {
        hint_line(last);
    }
}

/// Hints the host cache line holding `*value` into L1: the crate's one
/// `unsafe` site (see the crate README's "Inline replay prefetch").
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline(always)]
fn hint_line<T>(value: &T) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: `_mm_prefetch` is unsafe only for its `sse` target
    // feature, which is baseline on every x86_64 target. The pointer
    // comes from a live reference, so it is in bounds and aligned, and
    // a prefetch never faults, never writes and has no observable
    // effect beyond host cache state.
    unsafe { _mm_prefetch::<_MM_HINT_T0>((value as *const T).cast::<i8>()) }
}

/// No prefetch hint on other targets: the replay is the same, only the
/// host cache misses stay.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn hint_line<T>(_value: &T) {}

/// Per-set bookkeeping, packed into one 16-byte record so a quota check
/// or adaptation step touches a single cache line instead of five
/// scattered arrays.
#[derive(Copy, Clone, Debug)]
pub(crate) struct SetMeta {
    /// Valid lines in the set.
    pub(crate) valid: u16,
    /// Valid [`Domain::Io`] lines in the set.
    pub(crate) io: u16,
    /// Maximum number of `Io`-domain lines this set may hold
    /// (2 under plain DDIO; 1..=3 under the adaptive defense).
    pub(crate) io_limit: u8,
    /// Adaptive-defense scratch flags
    /// ([`FLAG_ELEVATED`] / [`FLAG_PARKED`]).
    pub(crate) flags: u8,
    /// I/O accesses observed during the current adaptation period.
    pub(crate) io_activity: u32,
    /// Adaptive epoch in which the set last saw an I/O write
    /// ([`NEVER_TOUCHED`] = never). A stamp equal to the shard's current
    /// epoch means "already on the dirty worklist" — bumping the epoch
    /// after each evaluation replaces the old per-set touched-flag clear
    /// pass with a single counter increment.
    pub(crate) touch_epoch: u32,
}

impl Default for SetMeta {
    fn default() -> Self {
        SetMeta {
            valid: 0,
            io: 0,
            io_limit: 0,
            flags: 0,
            io_activity: 0,
            touch_epoch: NEVER_TOUCHED,
        }
    }
}

// The layout the module docs size: a 4-byte line word with a 29-bit
// tag, a 1-byte LRU stamp and a 16-byte set record.
const _: () = assert!(std::mem::size_of::<Word>() == 4);
const _: () = assert!(MAX_TAG == (1 << 29) - 1);
const _: () = assert!(std::mem::size_of::<Stamp>() == 1);
const _: () = assert!(std::mem::size_of::<SetMeta>() == 16);

/// All lines of all sets, as parallel flat arrays.
#[derive(Clone, Debug)]
pub(crate) struct LineStore {
    ways: usize,
    lines: Vec<Word>,
    repl: Lru,
    /// One packed record per set.
    pub(crate) sets: Vec<SetMeta>,
}

impl LineStore {
    pub(crate) fn new(total_sets: usize, ways: usize, io_limit: u8) -> Self {
        // `Lru::renormalize` ranks a set's ways in a 64-entry buffer and
        // stores each rank in a `u8` stamp; real LLCs top out well below
        // that (the paper's part has 20).
        assert!(
            ways > 0 && ways <= 64,
            "unsupported associativity (1..=64 ways)"
        );
        LineStore {
            ways,
            lines: vec![0; total_sets * ways],
            repl: Lru::new(ways, total_sets),
            sets: vec![
                SetMeta {
                    io_limit,
                    ..SetMeta::default()
                };
                total_sets
            ],
        }
    }

    #[inline]
    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn set_lines(&self, set: usize) -> &[Word] {
        &self.lines[set * self.ways..(set + 1) * self.ways]
    }

    /// Hints set `set`'s row into the host's L1 ahead of an access to
    /// it: every host line of its packed words, its LRU stamps and its
    /// [`SetMeta`]. Reads nothing and changes nothing the simulation
    /// observes.
    #[inline]
    pub(crate) fn prefetch(&self, set: usize) {
        hint_span(self.set_lines(set));
        hint_span(self.repl.set_stamps(set, self.ways));
        hint_line(&self.sets[set]);
    }

    /// Way of set `set` holding `tag`, if present and valid.
    #[inline]
    pub(crate) fn lookup(&self, set: usize, tag: u32) -> Option<usize> {
        let key = (tag << TAG_SHIFT) | VALID;
        // Dirty/domain bits vary per line; mask them off so the compare
        // is tag+valid only.
        self.set_lines(set)
            .iter()
            .position(|&w| w & !(DIRTY | IO) == key)
    }

    /// Records a recency touch of `(set, way)`.
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, way: usize) {
        self.repl.touch(set, self.ways, way);
    }

    /// Sets the dirty bit of a valid line.
    #[inline]
    pub(crate) fn mark_dirty(&mut self, set: usize, way: usize) {
        let w = &mut self.lines[set * self.ways + way];
        if *w & VALID != 0 {
            *w |= DIRTY;
        }
    }

    /// Clears the dirty bit (after a coherence writeback), reporting
    /// whether it was set.
    #[inline]
    pub(crate) fn clean(&mut self, set: usize, way: usize) -> bool {
        let w = &mut self.lines[set * self.ways + way];
        if *w & (VALID | DIRTY) == VALID | DIRTY {
            *w &= !DIRTY;
            true
        } else {
            false
        }
    }

    /// Number of valid lines of `domain` in `set` — O(1) from the
    /// incrementally maintained counters.
    #[inline]
    pub(crate) fn count_domain(&self, set: usize, domain: Domain) -> usize {
        let m = &self.sets[set];
        match domain {
            Domain::Io => m.io as usize,
            Domain::Cpu => (m.valid - m.io) as usize,
        }
    }

    #[cfg_attr(not(test), allow(dead_code))]
    #[inline]
    pub(crate) fn valid_count(&self, set: usize) -> usize {
        self.sets[set].valid as usize
    }

    #[inline]
    fn retire(&mut self, set: usize, way: usize) -> Word {
        let idx = set * self.ways + way;
        let w = self.lines[idx];
        debug_assert!(w & VALID != 0);
        self.lines[idx] = 0;
        self.sets[set].valid -= 1;
        if w & IO != 0 {
            self.sets[set].io -= 1;
        }
        w
    }

    #[inline]
    fn install(&mut self, set: usize, way: usize, tag: u32, domain: Domain, dirty: bool) {
        self.lines[set * self.ways + way] = pack(tag, domain, dirty);
        self.sets[set].valid += 1;
        if domain == Domain::Io {
            self.sets[set].io += 1;
        }
        self.repl.touch(set, self.ways, way);
    }

    /// Invalidates `tag` in `set` if present, reporting whether it was
    /// dirty.
    pub(crate) fn invalidate(&mut self, set: usize, tag: u32) -> Option<bool> {
        let way = self.lookup(set, tag)?;
        let w = self.retire(set, way);
        Some(w & DIRTY != 0)
    }

    /// Invalidates every line of every set, returning the number of dirty
    /// writebacks. Counters and scratch state other than line metadata
    /// are untouched (activity counters keep accumulating across a
    /// flush, exactly as the per-set implementation did).
    pub(crate) fn invalidate_all(&mut self) -> usize {
        let dirty = self
            .lines
            .iter()
            .filter(|&&w| w & (VALID | DIRTY) == (VALID | DIRTY))
            .count();
        self.lines.fill(0);
        for m in &mut self.sets {
            m.valid = 0;
            m.io = 0;
        }
        dirty
    }

    /// Evicts the least-recently-used line of `domain` in `set`, if any,
    /// reporting whether it was dirty.
    ///
    /// Used by the adaptive defense when the I/O/CPU boundary moves and a
    /// line on the losing side must be invalidated (with writeback).
    pub(crate) fn evict_lru_of_domain(&mut self, set: usize, domain: Domain) -> Option<bool> {
        let way = self.victim(set, Victims::Only(domain))?;
        let w = self.retire(set, way);
        Some(w & DIRTY != 0)
    }

    /// The LRU way of `set` among the valid lines `victims` allows, if
    /// any: the one victim scan behind both eviction paths.
    #[inline]
    fn victim(&self, set: usize, victims: Victims) -> Option<usize> {
        let lines = self.set_lines(set);
        self.repl
            .victim(set, self.ways, |w| eligible(lines[w], victims))
    }

    /// Inserts `tag` into `set`. Invalid ways are always preferred;
    /// otherwise the LRU line among valid ways whose current domain
    /// satisfies `victims` is displaced.
    ///
    /// Returns the filled way and the displaced line (if a valid line was
    /// displaced), or `None` when the set is full and no way is eligible
    /// — the caller decides how to widen eligibility.
    #[inline]
    pub(crate) fn fill(
        &mut self,
        set: usize,
        tag: u32,
        domain: Domain,
        dirty: bool,
        victims: Victims,
    ) -> Option<(usize, Option<EvictedLine>)> {
        if (self.sets[set].valid as usize) < self.ways {
            let way = self
                .set_lines(set)
                .iter()
                .position(|&w| w & VALID == 0)
                .expect("valid_count says an invalid way exists");
            self.install(set, way, tag, domain, dirty);
            return Some((way, None));
        }
        self.fill_no_invalid(set, tag, domain, dirty, victims)
    }

    /// Like [`LineStore::fill`] but never takes an invalid way: a victim
    /// is always chosen among the *valid* ways satisfying `victims`.
    ///
    /// Used when a quota forbids expanding into free ways (e.g. a CPU fill
    /// whose partition is already full must recycle a CPU line even if an
    /// invalid way — reserved for I/O — exists).
    #[inline]
    pub(crate) fn fill_no_invalid(
        &mut self,
        set: usize,
        tag: u32,
        domain: Domain,
        dirty: bool,
        victims: Victims,
    ) -> Option<(usize, Option<EvictedLine>)> {
        let way = self.victim(set, victims)?;
        let old = self.retire(set, way);
        self.install(set, way, tag, domain, dirty);
        Some((
            way,
            Some(EvictedLine {
                dirty: old & DIRTY != 0,
                was_cpu: old & IO == 0,
            }),
        ))
    }
}

/// Whether a packed word is a valid line `victims` allows displacing.
#[inline]
fn eligible(word: Word, victims: Victims) -> bool {
    match victims {
        Victims::Any => word & VALID != 0,
        Victims::Only(Domain::Io) => word & (VALID | IO) == (VALID | IO),
        Victims::Only(Domain::Cpu) => word & (VALID | IO) == VALID,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(ways: usize) -> LineStore {
        // Two sets so cross-set independence is exercised; tests use set 1.
        LineStore::new(2, ways, 2)
    }

    const S: usize = 1;

    #[test]
    fn fill_prefers_invalid_ways() {
        let mut st = store(4);
        for t in 0..4 {
            let (_, ev) = st.fill(S, t, Domain::Cpu, false, Victims::Any).unwrap();
            assert!(ev.is_none());
        }
        assert_eq!(st.valid_count(S), 4);
        assert_eq!(st.valid_count(0), 0, "other sets untouched");
    }

    #[test]
    fn full_set_evicts_lru() {
        let mut st = store(2);
        st.fill(S, 10, Domain::Cpu, false, Victims::Any).unwrap();
        st.fill(S, 11, Domain::Cpu, false, Victims::Any).unwrap();
        let (_, ev) = st.fill(S, 12, Domain::Cpu, false, Victims::Any).unwrap();
        assert!(ev.is_some());
        assert!(
            st.lookup(S, 10).is_none(),
            "tag 10 was LRU and must be gone"
        );
        assert!(st.lookup(S, 11).is_some());
        assert!(st.lookup(S, 12).is_some());
    }

    #[test]
    fn eligibility_restricts_victims() {
        let mut st = store(2);
        st.fill(S, 1, Domain::Cpu, false, Victims::Any).unwrap();
        st.fill(S, 2, Domain::Io, false, Victims::Any).unwrap();
        // Only Io lines may be displaced:
        let (_, ev) = st
            .fill(S, 3, Domain::Io, true, Victims::Only(Domain::Io))
            .unwrap();
        let ev = ev.expect("must displace the Io line");
        assert!(!ev.was_cpu);
        assert!(st.lookup(S, 1).is_some(), "CPU line must survive");
    }

    #[test]
    fn fill_with_nothing_eligible_returns_none() {
        let mut st = store(2);
        st.fill(S, 1, Domain::Cpu, false, Victims::Any).unwrap();
        st.fill(S, 2, Domain::Cpu, false, Victims::Any).unwrap();
        assert!(st
            .fill(S, 3, Domain::Io, false, Victims::Only(Domain::Io))
            .is_none());
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut st = store(1);
        st.fill(S, 1, Domain::Cpu, true, Victims::Any).unwrap();
        let (_, ev) = st.fill(S, 2, Domain::Cpu, false, Victims::Any).unwrap();
        let ev = ev.unwrap();
        assert!(ev.dirty);
        assert!(ev.was_cpu);
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut st = store(2);
        st.fill(S, 5, Domain::Io, true, Victims::Any).unwrap();
        assert_eq!(st.invalidate(S, 5), Some(true));
        assert_eq!(st.invalidate(S, 5), None);
        assert_eq!(
            st.count_domain(S, Domain::Io),
            0,
            "counter tracks invalidation"
        );
    }

    #[test]
    fn evict_lru_of_domain_targets_domain() {
        let mut st = store(3);
        st.fill(S, 1, Domain::Cpu, false, Victims::Any).unwrap();
        st.fill(S, 2, Domain::Io, true, Victims::Any).unwrap();
        st.fill(S, 3, Domain::Cpu, false, Victims::Any).unwrap();
        assert_eq!(st.evict_lru_of_domain(S, Domain::Io), Some(true));
        assert_eq!(st.count_domain(S, Domain::Io), 0);
        assert_eq!(st.count_domain(S, Domain::Cpu), 2);
        assert_eq!(st.evict_lru_of_domain(S, Domain::Io), None);
    }

    /// Both eviction paths share one victim scan. On one 20-way set,
    /// random CPU and I/O fills and hits run the set's `u8` clock
    /// through dozens of wraps; at every step, `fill`,
    /// `fill_no_invalid(.., Victims::Only(d))` and
    /// `evict_lru_of_domain(d)` must each take the way a `u64`-stamp
    /// model that never wraps names.
    #[test]
    fn eviction_paths_pick_the_model_lru_across_clock_wraps() {
        const WAYS: usize = 20;
        type Model = [Option<(u32, Domain, u64)>; WAYS];
        // The LRU way of `domain` (of any domain when `None`).
        fn model_lru(model: &Model, domain: Option<Domain>) -> Option<usize> {
            (0..WAYS)
                .filter_map(|w| model[w].map(|(_, d, stamp)| (w, d, stamp)))
                .filter(|&(_, d, _)| domain.is_none_or(|want| want == d))
                .min_by_key(|&(w, _, stamp)| (stamp, w))
                .map(|(w, ..)| w)
        }
        let mut st = LineStore::new(1, WAYS, 2);
        // model[way] = (tag, domain, u64 stamp) of a valid line.
        let mut model: Model = [None; WAYS];
        let mut clock = 0u64;
        let mut next_tag = 0u32;
        let mut draws = 0u64;
        let mut draw = |bound: u64| {
            draws += 1;
            pc_par::mix_seed(29, draws) % bound
        };
        for step in 0..30_000 {
            let domain = if draw(2) == 0 {
                Domain::Io
            } else {
                Domain::Cpu
            };
            match draw(10) {
                0..=3 => {
                    let way = draw(WAYS as u64) as usize;
                    if let Some((tag, _, stamp)) = &mut model[way] {
                        assert_eq!(st.lookup(0, *tag), Some(way), "step {step}");
                        st.touch(0, way);
                        clock += 1;
                        *stamp = clock;
                    }
                }
                4..=7 => {
                    let want = model
                        .iter()
                        .position(Option::is_none)
                        .or_else(|| model_lru(&model, None));
                    let (way, _) = st.fill(0, next_tag, domain, false, Victims::Any).unwrap();
                    assert_eq!(Some(way), want, "step {step}: fill");
                    clock += 1;
                    model[way] = Some((next_tag, domain, clock));
                    next_tag += 1;
                }
                8 => {
                    let want = model_lru(&model, Some(domain));
                    let got = st
                        .fill_no_invalid(0, next_tag, domain, false, Victims::Only(domain))
                        .map(|(way, _)| way);
                    assert_eq!(got, want, "step {step}: fill_no_invalid({domain:?})");
                    if let Some(way) = got {
                        clock += 1;
                        model[way] = Some((next_tag, domain, clock));
                        next_tag += 1;
                    }
                }
                _ => {
                    let want = model_lru(&model, Some(domain));
                    let evicted = st.evict_lru_of_domain(0, domain);
                    assert_eq!(evicted.is_some(), want.is_some(), "step {step}");
                    if let Some(way) = want {
                        assert_eq!(
                            st.lines[way], 0,
                            "step {step}: evict_lru_of_domain({domain:?})"
                        );
                        model[way] = None;
                    }
                }
            }
        }
        // Any 255 consecutive touches of a set wrap its clock at least
        // once.
        let wraps = clock / 255;
        assert!(wraps >= 50, "only {wraps} clock wraps exercised");
    }

    #[test]
    fn domain_counts_are_incremental() {
        let mut st = store(4);
        st.fill(S, 1, Domain::Cpu, false, Victims::Any).unwrap();
        st.fill(S, 2, Domain::Io, false, Victims::Any).unwrap();
        st.fill(S, 3, Domain::Io, false, Victims::Any).unwrap();
        assert_eq!(st.count_domain(S, Domain::Cpu), 1);
        assert_eq!(st.count_domain(S, Domain::Io), 2);
        // Cross-domain displacement updates both counters.
        st.fill(S, 4, Domain::Cpu, false, Victims::Any).unwrap(); // takes way 3
        let (_, ev) = st
            .fill(S, 5, Domain::Cpu, false, Victims::Only(Domain::Io))
            .unwrap();
        assert!(!ev.unwrap().was_cpu);
        assert_eq!(st.count_domain(S, Domain::Cpu), 3);
        assert_eq!(st.count_domain(S, Domain::Io), 1);
    }

    #[test]
    fn invalidate_all_counts_dirty_writebacks() {
        let mut st = store(4);
        st.fill(S, 1, Domain::Cpu, true, Victims::Any).unwrap();
        st.fill(S, 2, Domain::Io, true, Victims::Any).unwrap();
        st.fill(S, 3, Domain::Io, false, Victims::Any).unwrap();
        assert_eq!(st.invalidate_all(), 2);
        assert_eq!(st.valid_count(S), 0);
        assert_eq!(st.count_domain(S, Domain::Io), 0);
    }

    #[test]
    fn clean_clears_dirty_once() {
        let mut st = store(2);
        let (way, _) = st.fill(S, 9, Domain::Cpu, true, Victims::Any).unwrap();
        assert!(st.clean(S, way));
        assert!(!st.clean(S, way));
    }

    #[test]
    fn largest_tag_packs_without_collision() {
        // The largest tag a line word holds and its neighbour pack,
        // look up and invalidate independently.
        let mut st = store(2);
        st.fill(S, MAX_TAG, Domain::Io, true, Victims::Any).unwrap();
        st.fill(S, MAX_TAG - 1, Domain::Cpu, false, Victims::Any)
            .unwrap();
        assert!(st.lookup(S, MAX_TAG).is_some());
        assert!(st.lookup(S, MAX_TAG - 1).is_some());
        assert_eq!(st.invalidate(S, MAX_TAG), Some(true));
        assert!(st.lookup(S, MAX_TAG).is_none());
        assert!(st.lookup(S, MAX_TAG - 1).is_some());
        assert_eq!(st.count_domain(S, Domain::Io), 0);
        assert_eq!(st.count_domain(S, Domain::Cpu), 1);
    }
}
