//! The pre-SoA cache implementation, kept as an executable reference
//! model.
//!
//! [`ReferenceCache`] is the original storage layout behind
//! [`crate::SlicedCache`]: one heap-allocated `Vec<Option<Line>>` plus a
//! replacement-state object *per set*, with O(ways) rescans for every
//! domain-occupancy check. It exists for equivalence testing: the SoA
//! store must be observably indistinguishable from this model — same
//! [`AccessOutcome`] per access, same statistics, same residency — in
//! every mode. The property tests in
//! `tests/soa_equivalence.rs` (and the `adaptive_replay` and
//! `incremental_eval` suites) drive both implementations with identical
//! random traces and assert exactly that.
//!
//! The model is *not* a fossil of old bugs: behavioral fixes applied to
//! the real cache (the adaptation-list deduplication, see
//! `src/partition.rs`) are mirrored here, because the reference defines
//! intended semantics, not historical accidents. Likewise the real
//! cache's per-slice adaptation timing and worklists are part of the
//! intended semantics and are mirrored here. Its LRU is its own: per-set
//! `u64` stamps that never wrap, an independent oracle for the real
//! cache's re-ranked `u8` stamps. Do not use this type outside tests —
//! it is an order of magnitude slower on large geometries.

use crate::addr::PhysAddr;
use crate::geometry::CacheGeometry;
use crate::llc::{AccessKind, AccessOutcome, DdioMode, SliceSet};
use crate::partition::AdaptiveConfig;
use crate::set::Domain;
use crate::slicehash::SliceHash;
use crate::stats::CacheStats;

#[derive(Copy, Clone, Debug)]
struct Line {
    tag: u64,
    dirty: bool,
    domain: Domain,
}

#[derive(Clone, Debug)]
struct CacheSet {
    lines: Vec<Option<Line>>,
    /// `stamps[way]` = the set's clock at the way's last touch.
    stamps: Vec<u64>,
    /// The set's LRU clock: its latest stamp.
    clock: u64,
    io_limit: u8,
    io_activity: u32,
    in_touched: bool,
    in_elevated: bool,
}

struct Evicted {
    dirty: bool,
    was_cpu: bool,
}

impl CacheSet {
    fn new(ways: usize, io_limit: u8) -> Self {
        CacheSet {
            lines: vec![None; ways],
            stamps: vec![0; ways],
            clock: 0,
            io_limit,
            io_activity: 0,
            in_touched: false,
            in_elevated: false,
        }
    }

    fn ways(&self) -> usize {
        self.lines.len()
    }

    fn touch(&mut self, way: usize) {
        self.clock += 1;
        self.stamps[way] = self.clock;
    }

    /// The least-recently-touched valid way whose domain `eligible`
    /// accepts.
    fn victim(&self, eligible: impl Fn(Domain) -> bool) -> Option<usize> {
        (0..self.ways())
            .filter(|&w| matches!(&self.lines[w], Some(line) if eligible(line.domain)))
            .min_by_key(|&w| self.stamps[w])
    }

    fn lookup(&self, tag: u64) -> Option<usize> {
        self.lines
            .iter()
            .position(|l| matches!(l, Some(line) if line.tag == tag))
    }

    fn count_domain(&self, domain: Domain) -> usize {
        self.lines
            .iter()
            .filter(|l| matches!(l, Some(line) if line.domain == domain))
            .count()
    }

    fn invalidate(&mut self, tag: u64) -> Option<bool> {
        let way = self.lookup(tag)?;
        let dirty = self.lines[way].map(|l| l.dirty).unwrap_or(false);
        self.lines[way] = None;
        Some(dirty)
    }

    fn invalidate_all(&mut self) -> usize {
        let dirty = self
            .lines
            .iter()
            .filter(|l| matches!(l, Some(line) if line.dirty))
            .count();
        for l in &mut self.lines {
            *l = None;
        }
        dirty
    }

    fn evict_lru_of_domain(&mut self, domain: Domain) -> Option<bool> {
        let way = self.victim(|d| d == domain)?;
        let dirty = self.lines[way].map(|l| l.dirty).unwrap_or(false);
        self.lines[way] = None;
        Some(dirty)
    }

    fn fill<F>(
        &mut self,
        tag: u64,
        domain: Domain,
        dirty: bool,
        eligible: F,
    ) -> Option<(usize, Option<Evicted>)>
    where
        F: Fn(Domain) -> bool,
    {
        if let Some(way) = self.lines.iter().position(|l| l.is_none()) {
            self.lines[way] = Some(Line { tag, dirty, domain });
            self.touch(way);
            return Some((way, None));
        }
        self.fill_no_invalid(tag, domain, dirty, eligible)
    }

    fn fill_no_invalid<F>(
        &mut self,
        tag: u64,
        domain: Domain,
        dirty: bool,
        eligible: F,
    ) -> Option<(usize, Option<Evicted>)>
    where
        F: Fn(Domain) -> bool,
    {
        let way = self.victim(eligible)?;
        let old = self.lines[way].expect("victim must be valid");
        self.lines[way] = Some(Line { tag, dirty, domain });
        self.touch(way);
        Some((
            way,
            Some(Evicted {
                dirty: old.dirty,
                was_cpu: old.domain == Domain::Cpu,
            }),
        ))
    }
}

/// Per-slice control state: the slice's access-count defense clock and its adaptive defense bookkeeping (mirrors the
/// real cache's per-slice shards; worklists hold flat set
/// indices).
#[derive(Clone, Debug)]
struct SliceCtl {
    clock: u64,
    adapt_last: u64,
    /// Period re-evaluations this slice ran.
    defense_evals: u64,
    touched: Vec<usize>,
    elevated: Vec<usize>,
}

/// The original per-set-object LLC implementation (reference model).
///
/// See the module docs for why this exists; use [`crate::SlicedCache`]
/// for anything other than equivalence tests and baseline benchmarks.
#[derive(Clone, Debug)]
pub struct ReferenceCache {
    geom: CacheGeometry,
    hash: SliceHash,
    mode: DdioMode,
    sets: Vec<CacheSet>,
    ctl: Vec<SliceCtl>,
    stats: CacheStats,
}

impl ReferenceCache {
    /// Creates an empty reference cache.
    ///
    /// # Panics
    ///
    /// Same conditions as [`crate::SlicedCache::new`].
    pub fn new(geom: CacheGeometry, mode: DdioMode) -> Self {
        let hash = SliceHash::for_slices(geom.slices() as u32);
        let initial_io_limit = match mode {
            DdioMode::Disabled => 0,
            DdioMode::Enabled { io_way_limit } => {
                assert!(io_way_limit > 0, "DDIO way limit must be non-zero");
                assert!(
                    (io_way_limit as usize) <= geom.ways(),
                    "DDIO way limit exceeds associativity"
                );
                io_way_limit
            }
            DdioMode::Adaptive(cfg) => {
                cfg.validate(geom.ways());
                cfg.min_io_lines
            }
        };
        let sets = (0..geom.total_sets())
            .map(|_| CacheSet::new(geom.ways(), initial_io_limit))
            .collect();
        let ctl = (0..geom.slices())
            .map(|_| SliceCtl {
                clock: 0,
                adapt_last: 0,
                defense_evals: 0,
                touched: Vec::new(),
                elevated: Vec::new(),
            })
            .collect();
        ReferenceCache {
            geom,
            hash,
            mode,
            sets,
            ctl,
            stats: CacheStats::new(),
        }
    }

    /// The concrete (slice, set) an address maps to.
    pub fn locate(&self, addr: PhysAddr) -> SliceSet {
        SliceSet {
            slice: self.hash.slice_of(addr),
            set: self.geom.set_index(addr),
        }
    }

    fn flat_index(&self, ss: SliceSet) -> usize {
        ss.slice * self.geom.sets_per_slice() + ss.set
    }

    /// Whether `addr` is currently cached.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        let idx = self.flat_index(self.locate(addr));
        self.sets[idx].lookup(self.geom.tag(addr)).is_some()
    }

    /// Number of valid lines of `domain` in a concrete set.
    pub fn domain_count(&self, ss: SliceSet, domain: Domain) -> usize {
        self.sets[self.flat_index(ss)].count_domain(domain)
    }

    /// Current I/O partition size of a set.
    pub fn io_partition_limit(&self, ss: SliceSet) -> usize {
        self.sets[self.flat_index(ss)].io_limit as usize
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Adaptive-defense period re-evaluations run by one slice (the
    /// per-slice share of [`CacheStats::defense_evals`]).
    ///
    /// # Panics
    ///
    /// Panics if `slice >= geometry.slices()`.
    pub fn slice_defense_evals(&self, slice: usize) -> u64 {
        self.ctl[slice].defense_evals
    }

    /// Invalidates the whole cache, returning the dirty writeback count.
    pub fn flush_all(&mut self) -> usize {
        let mut wb = 0usize;
        for set in &mut self.sets {
            wb += set.invalidate_all();
        }
        self.stats.writebacks += wb as u64;
        wb
    }

    /// Performs one access (original algorithm), ticking the owning
    /// slice's defense clock exactly as the real cache's shard does.
    pub fn access(&mut self, addr: PhysAddr, kind: AccessKind) -> AccessOutcome {
        let ss = self.locate(addr);
        let idx = self.flat_index(ss);
        let tag = self.geom.tag(addr);
        self.ctl[ss.slice].clock += 1;

        let outcome = match kind {
            AccessKind::CpuRead | AccessKind::CpuWrite => self.cpu_access(idx, tag, kind),
            AccessKind::IoWrite => self.io_write(idx, tag),
            AccessKind::IoRead => self.io_read(idx, tag),
        };

        if kind == AccessKind::IoWrite {
            self.note_io_activity(idx);
        }
        if let DdioMode::Adaptive(cfg) = self.mode {
            let slice = ss.slice;
            if self.ctl[slice].clock - self.ctl[slice].adapt_last >= cfg.period {
                self.adapt(cfg, slice);
            }
        }
        outcome
    }

    fn cpu_access(&mut self, idx: usize, tag: u64, kind: AccessKind) -> AccessOutcome {
        let write = kind == AccessKind::CpuWrite;
        if let Some(way) = self.sets[idx].lookup(tag) {
            self.sets[idx].touch(way);
            if write {
                if let Some(line) = self.sets[idx].lines[way].as_mut() {
                    line.dirty = true;
                }
            }
            self.stats.cpu_hits += 1;
            return AccessOutcome {
                hit: true,
                ..AccessOutcome::default()
            };
        }
        self.stats.cpu_misses += 1;
        let mut out = AccessOutcome {
            hit: false,
            dram_reads: 1,
            ..AccessOutcome::default()
        };

        let adaptive = matches!(self.mode, DdioMode::Adaptive(_));
        let set = &mut self.sets[idx];
        let filled = if adaptive {
            let cpu_quota = set.ways() - set.io_limit as usize;
            if set.count_domain(Domain::Cpu) < cpu_quota {
                set.fill(tag, Domain::Cpu, write, |d| d == Domain::Cpu)
            } else {
                set.fill_no_invalid(tag, Domain::Cpu, write, |d| d == Domain::Cpu)
            }
        } else {
            set.fill(tag, Domain::Cpu, write, |_| true)
        };
        let filled = filled.or_else(|| {
            debug_assert!(false, "CPU fill found no victim");
            self.sets[idx].fill(tag, Domain::Cpu, write, |_| true)
        });
        if let Some((_, Some(ev))) = filled {
            self.stats.evictions += 1;
            if ev.dirty {
                self.stats.writebacks += 1;
                out.dram_writes += 1;
            }
        }
        out
    }

    fn io_write(&mut self, idx: usize, tag: u64) -> AccessOutcome {
        match self.mode {
            DdioMode::Disabled => {
                let _ = self.sets[idx].invalidate(tag);
                self.stats.io_misses += 1;
                AccessOutcome {
                    hit: false,
                    dram_writes: 1,
                    ..AccessOutcome::default()
                }
            }
            DdioMode::Enabled { io_way_limit } => {
                if let Some(way) = self.sets[idx].lookup(tag) {
                    self.sets[idx].touch(way);
                    if let Some(line) = self.sets[idx].lines[way].as_mut() {
                        line.dirty = true;
                    }
                    self.stats.io_hits += 1;
                    return AccessOutcome {
                        hit: true,
                        ..AccessOutcome::default()
                    };
                }
                self.stats.io_misses += 1;
                let mut out = AccessOutcome::default();
                let set = &mut self.sets[idx];
                let io_count = set.count_domain(Domain::Io);
                let filled = if io_count >= io_way_limit as usize {
                    set.fill_no_invalid(tag, Domain::Io, true, |d| d == Domain::Io)
                } else {
                    set.fill(tag, Domain::Io, true, |_| true)
                };
                if let Some((_, Some(ev))) = filled {
                    self.stats.evictions += 1;
                    if ev.dirty {
                        self.stats.writebacks += 1;
                        out.dram_writes += 1;
                    }
                    if ev.was_cpu {
                        self.stats.io_evicted_cpu += 1;
                        out.evicted_cpu = true;
                    }
                }
                out
            }
            DdioMode::Adaptive(_) => {
                if let Some(way) = self.sets[idx].lookup(tag) {
                    self.sets[idx].touch(way);
                    if let Some(line) = self.sets[idx].lines[way].as_mut() {
                        line.dirty = true;
                    }
                    self.stats.io_hits += 1;
                    return AccessOutcome {
                        hit: true,
                        ..AccessOutcome::default()
                    };
                }
                self.stats.io_misses += 1;
                let mut out = AccessOutcome::default();
                let set = &mut self.sets[idx];
                let io_limit = set.io_limit as usize;
                let io_count = set.count_domain(Domain::Io);
                let filled = if io_count < io_limit {
                    set.fill(tag, Domain::Io, true, |d| d == Domain::Io)
                } else {
                    set.fill_no_invalid(tag, Domain::Io, true, |d| d == Domain::Io)
                };
                let filled = filled
                    .or_else(|| self.sets[idx].fill(tag, Domain::Io, true, |d| d == Domain::Io));
                if let Some((_, Some(ev))) = filled {
                    self.stats.evictions += 1;
                    if ev.dirty {
                        self.stats.writebacks += 1;
                        out.dram_writes += 1;
                    }
                    if ev.was_cpu {
                        self.stats.io_evicted_cpu += 1;
                        out.evicted_cpu = true;
                    }
                }
                out
            }
        }
    }

    fn io_read(&mut self, idx: usize, tag: u64) -> AccessOutcome {
        if self.mode.allocates_in_llc() {
            if let Some(way) = self.sets[idx].lookup(tag) {
                self.sets[idx].touch(way);
                self.stats.io_hits += 1;
                return AccessOutcome {
                    hit: true,
                    ..AccessOutcome::default()
                };
            }
            self.stats.io_misses += 1;
            return AccessOutcome {
                hit: false,
                dram_reads: 1,
                ..AccessOutcome::default()
            };
        }
        self.stats.io_misses += 1;
        let mut out = AccessOutcome {
            hit: false,
            dram_reads: 1,
            ..AccessOutcome::default()
        };
        if let Some(way) = self.sets[idx].lookup(tag) {
            let was_dirty = match self.sets[idx].lines[way].as_mut() {
                Some(line) if line.dirty => {
                    line.dirty = false;
                    true
                }
                _ => false,
            };
            if was_dirty {
                self.stats.writebacks += 1;
                out.dram_writes = 1;
            }
        }
        out
    }

    fn note_io_activity(&mut self, idx: usize) {
        if !matches!(self.mode, DdioMode::Adaptive(_)) {
            return;
        }
        let slice = idx / self.geom.sets_per_slice();
        let set = &mut self.sets[idx];
        set.io_activity = set.io_activity.saturating_add(1);
        if !set.in_touched {
            set.in_touched = true;
            self.ctl[slice].touched.push(idx);
        }
    }

    // This is deliberately still the *full-scan* evaluator: every set
    // on the touched or elevated list is revisited each period, no
    // dirty worklist, no epoch stamps, no parking. The production
    // engine (`shard.rs::adapt`) replaced this walk with an incremental
    // one whose correctness argument is "skipping is only legal when
    // the skipped evaluation is a provable no-op" — an argument that
    // only means something while the naive schedule survives verbatim
    // as the oracle (`tests/incremental_eval.rs` pins the two against
    // each other). Do not optimize this method.
    fn adapt(&mut self, cfg: AdaptiveConfig, slice: usize) {
        self.ctl[slice].adapt_last = self.ctl[slice].clock;
        self.ctl[slice].defense_evals += 1;
        self.stats.defense_evals += 1;
        let touched = std::mem::take(&mut self.ctl[slice].touched);
        let elevated = std::mem::take(&mut self.ctl[slice].elevated);
        let mut revisit: Vec<usize> = Vec::with_capacity(touched.len() + elevated.len());
        revisit.extend_from_slice(&touched);
        // Mirrors the deduplication fix in `SlicedCache::adapt`: the
        // touched flags stay up until the elevated list has been
        // deduplicated against them.
        for idx in elevated {
            self.sets[idx].in_elevated = false;
            if !self.sets[idx].in_touched {
                revisit.push(idx);
            }
        }
        for idx in touched {
            self.sets[idx].in_touched = false;
        }
        for idx in revisit {
            let present = self.sets[idx].count_domain(Domain::Io) as u32;
            let activity = self.sets[idx].io_activity.max(present);
            self.sets[idx].io_activity = 0;
            let old = self.sets[idx].io_limit;
            let new = if activity >= cfg.t_high {
                old.saturating_add(1).min(cfg.max_io_lines)
            } else if activity < cfg.t_low {
                old.saturating_sub(1).max(cfg.min_io_lines)
            } else {
                old
            };
            if new > old {
                let cpu_quota = self.sets[idx].ways() - new as usize;
                while self.sets[idx].count_domain(Domain::Cpu) > cpu_quota {
                    match self.sets[idx].evict_lru_of_domain(Domain::Cpu) {
                        Some(dirty) => {
                            self.stats.partition_invalidations += 1;
                            if dirty {
                                self.stats.writebacks += 1;
                            }
                        }
                        None => break,
                    }
                }
            } else if new < old {
                while self.sets[idx].count_domain(Domain::Io) > new as usize {
                    match self.sets[idx].evict_lru_of_domain(Domain::Io) {
                        Some(dirty) => {
                            self.stats.partition_invalidations += 1;
                            if dirty {
                                self.stats.writebacks += 1;
                            }
                        }
                        None => break,
                    }
                }
            }
            self.sets[idx].io_limit = new;
            if new > cfg.min_io_lines && !self.sets[idx].in_elevated {
                self.sets[idx].in_elevated = true;
                self.ctl[slice].elevated.push(idx);
            }
        }
    }
}
