//! One LLC slice's simulation state.
//!
//! A [`Shard`] owns everything needed to simulate the sets of one cache
//! slice: the slice's cut of the SoA line store, its LRU state, its
//! statistics and its adaptive-defense bookkeeping.
//! Nothing in a shard references another slice, because the Packet
//! Chasing threat model is per-slice: DDIO ways, prime+probe sets and
//! adaptive partitions are all sliced state. Replay itself is one
//! sequential walk ([`crate::Hierarchy::run_trace`]); the per-slice
//! split is the model, not a scheduling device.
//!
//! The per-slice contract, concretely:
//!
//! * **Replacement clock.** The LRU stamp clock is per set, one `u8`
//!   beside the set's stamps that re-ranks them when it wraps.
//!   Only the relative stamp order within one set matters for victim
//!   selection, so per-set clocks are observationally identical to a
//!   store-wide clock.
//! * **Adaptation.** The adaptive defense's period timer and
//!   touched/elevated worklists are per-shard: the shard's *defense
//!   clock* ticks once per access it receives, and a slice re-evaluates
//!   its partitions when its own clock crosses the period boundary
//!   ([`crate::partition`] documents the deviation from the paper's
//!   cycle-based period). The clock is a pure function of the slice's
//!   own access stream — never of other slices' hit/miss outcomes.
//!   (The paper's hardware proposal is per-set counters + per-set
//!   decision logic, so per-slice timing is the faithful granularity; a
//!   global timer would couple slices.)
//!
//! [`crate::SlicedCache`] owns one shard per slice, routes every access
//! to the owning shard and merges statistics in slice order.

use crate::llc::{AccessKind, AccessOutcome, DdioMode};
use crate::partition::AdaptiveConfig;
use crate::replacement::Victims;
use crate::set::Domain;
use crate::stats::CacheStats;
use crate::store::{LineStore, FLAG_ELEVATED, FLAG_PARKED, NEVER_TOUCHED};

/// The simulation engine for one slice: line store, statistics and
/// adaptive-partition state. Set indices are slice-local
/// (`0..sets_per_slice`).
#[derive(Clone, Debug)]
pub(crate) struct Shard {
    store: LineStore,
    stats: CacheStats,
    /// The defense clock: accesses this shard has processed. Drives the
    /// adaptive period; pure function of the slice's own access stream.
    clock: u64,
    // Adaptive-defense bookkeeping (unused in other modes). The
    // worklists are *incremental*: `dirty` holds the sets that saw an
    // I/O write this epoch (deduplicated by `SetMeta::touch_epoch`
    // stamps), `active` holds the elevated sets whose last evaluation
    // was NOT a provable no-op. Elevated sets whose next evaluation is
    // provably a no-op are parked (`FLAG_PARKED`) and skipped entirely
    // until new I/O activity or a flush re-engages them — see
    // `Shard::adapt` for the soundness argument.
    adapt_last: u64,
    /// Current dirty epoch; never equals [`NEVER_TOUCHED`].
    epoch: u32,
    dirty: Vec<usize>,
    active: Vec<usize>,
    /// Reusable evaluation worklist (capacity persists across periods so
    /// steady-state adaptation allocates nothing).
    scratch: Vec<usize>,
}

impl Shard {
    /// Creates the shard for one slice of `sets` sets of `ways` ways,
    /// each starting at I/O partition `io_limit`.
    pub(crate) fn new(sets: usize, ways: usize, io_limit: u8) -> Self {
        Shard {
            store: LineStore::new(sets, ways, io_limit),
            stats: CacheStats::new(),
            clock: 0,
            adapt_last: 0,
            epoch: 0,
            dirty: Vec::new(),
            active: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Statistics accumulated by this shard alone.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    pub(crate) fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }

    /// Hints local set `set`'s row into the host cache ahead of an
    /// access to it (see `LineStore::prefetch`).
    #[inline]
    pub(crate) fn prefetch(&self, set: usize) {
        self.store.prefetch(set);
    }

    /// Way of local set `set` holding `tag`, if valid (oracle).
    pub(crate) fn lookup(&self, set: usize, tag: u32) -> Option<usize> {
        self.store.lookup(set, tag)
    }

    /// Valid lines of `domain` in local set `set`.
    pub(crate) fn count_domain(&self, set: usize, domain: Domain) -> usize {
        self.store.count_domain(set, domain)
    }

    /// Current I/O partition boundary of local set `set`.
    pub(crate) fn io_limit(&self, set: usize) -> usize {
        self.store.sets[set].io_limit as usize
    }

    /// Invalidates every line of the shard, counting writebacks into the
    /// shard's stats and returning them.
    pub(crate) fn flush_all(&mut self) -> usize {
        let wb = self.store.invalidate_all();
        self.stats.writebacks += wb as u64;
        // A flush breaks every parked set's stability premise (its
        // resident I/O lines are gone, so its next evaluation shrinks
        // the boundary instead of no-opping): re-engage them all. Index
        // order is sound here because a parked set's post-flush
        // evaluation is stats-free until it is touched again — and a
        // touched set re-enters through `dirty` at exactly the position
        // the full-scan walk would evaluate it.
        for set in 0..self.store.sets.len() {
            let meta = &mut self.store.sets[set];
            if meta.flags & FLAG_PARKED != 0 {
                meta.flags &= !FLAG_PARKED;
                self.active.push(set);
            }
        }
        wb
    }

    /// Performs one access to local set `set`, ticking the shard's
    /// defense clock.
    ///
    /// `mode` is passed per call (it is shared, `Copy` cache
    /// configuration owned by [`crate::SlicedCache`]); everything
    /// mutable is shard-local.
    #[inline]
    pub(crate) fn access(
        &mut self,
        mode: DdioMode,
        set: usize,
        tag: u32,
        kind: AccessKind,
    ) -> AccessOutcome {
        self.clock += 1;
        let outcome = match kind {
            AccessKind::CpuRead | AccessKind::CpuWrite => self.cpu_access(mode, set, tag, kind),
            AccessKind::IoWrite => self.io_write(mode, set, tag),
            AccessKind::IoRead => self.io_read(mode, set, tag),
        };

        // Only I/O *writes* matter to the partition: DDIO is
        // write-allocate, so only writes ever insert I/O lines that need
        // protected space. Growing partitions under DMA reads (transmit
        // traffic) would take CPU ways for nothing.
        if kind == AccessKind::IoWrite {
            self.note_io_activity(mode, set);
        }
        if let DdioMode::Adaptive(cfg) = mode {
            if self.clock - self.adapt_last >= cfg.period
                // Fault site `skipped-defense-eval`: the fast path
                // lets keyed period boundaries pass without
                // re-evaluating (keyed on the shard's defense clock,
                // which is schedule-independent by construction).
                && !crate::fault::fires_keyed(
                    crate::fault::FaultSite::SkippedDefenseEval,
                    self.clock,
                )
            {
                self.adapt(cfg);
            }
        }
        outcome
    }

    fn cpu_access(
        &mut self,
        mode: DdioMode,
        set: usize,
        tag: u32,
        kind: AccessKind,
    ) -> AccessOutcome {
        let write = kind == AccessKind::CpuWrite;
        if let Some(way) = self.store.lookup(set, tag) {
            // Fault site `stale-lru`: the fast path leaves keyed lines'
            // recency stamps stale on a hit, so eviction order drifts
            // from the per-access oracle's.
            if !crate::fault::fires_keyed(crate::fault::FaultSite::StaleLru, u64::from(tag)) {
                self.store.touch(set, way);
            }
            if write {
                self.store.mark_dirty(set, way);
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

        let adaptive = matches!(mode, DdioMode::Adaptive(_));
        let filled = if adaptive {
            // CPU fills must stay inside the CPU partition: they may take
            // an invalid way only while the CPU quota has room, and may
            // only displace CPU lines.
            let cpu_quota = self.store.ways() - self.store.sets[set].io_limit as usize;
            if self.store.count_domain(set, Domain::Cpu) < cpu_quota {
                self.store
                    .fill(set, tag, Domain::Cpu, write, Victims::Only(Domain::Cpu))
            } else {
                self.store
                    .fill_no_invalid(set, tag, Domain::Cpu, write, Victims::Only(Domain::Cpu))
            }
        } else {
            self.store.fill(set, tag, Domain::Cpu, write, Victims::Any)
        };
        let filled = filled.or_else(|| {
            // Quota accounting should always leave a CPU victim available;
            // fall back to an unrestricted fill rather than dropping the
            // line if an edge case slips through.
            debug_assert!(false, "CPU fill found no victim");
            self.store.fill(set, tag, Domain::Cpu, write, Victims::Any)
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

    fn io_write(&mut self, mode: DdioMode, set: usize, tag: u32) -> AccessOutcome {
        match mode {
            DdioMode::Disabled => {
                // DMA goes to memory; any cached copy is invalidated (the
                // DMA write supersedes it, so no writeback is needed).
                let _ = self.store.invalidate(set, tag);
                self.stats.io_misses += 1;
                AccessOutcome {
                    hit: false,
                    dram_writes: 1,
                    ..AccessOutcome::default()
                }
            }
            DdioMode::Enabled { io_way_limit } => {
                if let Some(way) = self.store.lookup(set, tag) {
                    // DDIO write update: refresh in place.
                    self.store.touch(set, way);
                    self.store.mark_dirty(set, way);
                    self.stats.io_hits += 1;
                    return AccessOutcome {
                        hit: true,
                        ..AccessOutcome::default()
                    };
                }
                self.stats.io_misses += 1;
                let mut out = AccessOutcome::default();
                let io_count = self.store.count_domain(set, Domain::Io);
                let filled = if io_count >= io_way_limit as usize {
                    // Allocation limit reached: recycle an I/O line.
                    self.store.fill_no_invalid(
                        set,
                        tag,
                        Domain::Io,
                        true,
                        Victims::Only(Domain::Io),
                    )
                } else {
                    // Within the limit: free choice — this is the fill
                    // that can displace a primed spy line.
                    self.store.fill(set, tag, Domain::Io, true, Victims::Any)
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
                if let Some(way) = self.store.lookup(set, tag) {
                    self.store.touch(set, way);
                    self.store.mark_dirty(set, way);
                    self.stats.io_hits += 1;
                    return AccessOutcome {
                        hit: true,
                        ..AccessOutcome::default()
                    };
                }
                self.stats.io_misses += 1;
                let mut out = AccessOutcome::default();
                let io_limit = self.store.sets[set].io_limit as usize;
                let io_count = self.store.count_domain(set, Domain::Io);
                let filled = if io_count < io_limit {
                    // Room in the I/O partition: quota accounting
                    // guarantees an invalid way exists or an I/O line can
                    // be recycled; never touch CPU lines.
                    self.store
                        .fill(set, tag, Domain::Io, true, Victims::Only(Domain::Io))
                } else {
                    self.store.fill_no_invalid(
                        set,
                        tag,
                        Domain::Io,
                        true,
                        Victims::Only(Domain::Io),
                    )
                };
                let filled = filled.or_else(|| {
                    // Partition was starved (e.g. right after a boundary
                    // shrink): make room by displacing the LRU I/O line,
                    // or as a last resort take an invalid way.
                    self.store
                        .fill(set, tag, Domain::Io, true, Victims::Only(Domain::Io))
                });
                if let Some((_, Some(ev))) = filled {
                    self.stats.evictions += 1;
                    if ev.dirty {
                        self.stats.writebacks += 1;
                        out.dram_writes += 1;
                    }
                    debug_assert!(!ev.was_cpu, "adaptive partition displaced a CPU line");
                    if ev.was_cpu {
                        self.stats.io_evicted_cpu += 1;
                        out.evicted_cpu = true;
                    }
                }
                out
            }
        }
    }

    fn io_read(&mut self, mode: DdioMode, set: usize, tag: u32) -> AccessOutcome {
        if mode.allocates_in_llc() {
            if let Some(way) = self.store.lookup(set, tag) {
                self.store.touch(set, way);
                self.stats.io_hits += 1;
                return AccessOutcome {
                    hit: true,
                    ..AccessOutcome::default()
                };
            }
            // DDIO performs write allocation but *read* transactions that
            // miss are served from DRAM without allocating.
            self.stats.io_misses += 1;
            return AccessOutcome {
                hit: false,
                dram_reads: 1,
                ..AccessOutcome::default()
            };
        }
        // Pre-DDIO DMA read: coherent with the cache — a dirty cached
        // copy is written back before the device reads DRAM. This is why
        // transmit-side traffic costs extra memory writes without DDIO
        // (Figure 15's write-traffic gap).
        self.stats.io_misses += 1;
        let mut out = AccessOutcome {
            hit: false,
            dram_reads: 1,
            ..AccessOutcome::default()
        };
        if let Some(way) = self.store.lookup(set, tag) {
            if self.store.clean(set, way) {
                self.stats.writebacks += 1;
                out.dram_writes = 1;
            }
        }
        out
    }

    #[inline]
    fn note_io_activity(&mut self, mode: DdioMode, set: usize) {
        if !matches!(mode, DdioMode::Adaptive(_)) {
            return;
        }
        self.store.sets[set].io_activity = self.store.sets[set].io_activity.saturating_add(1);
        if self.store.sets[set].touch_epoch != self.epoch {
            self.store.sets[set].touch_epoch = self.epoch;
            // Fault site `stale-dirty-set`: the fast path stamps the
            // epoch (so later writes in the period think the set is
            // queued) but loses the worklist push — the set silently
            // skips its evaluation. Keyed on the slice-local set index,
            // which is schedule-independent.
            if !crate::fault::fires_keyed(crate::fault::FaultSite::StaleDirtySet, set as u64) {
                self.dirty.push(set);
            }
        }
    }

    /// Re-evaluates the I/O/CPU boundary of every set of this shard
    /// whose next evaluation could be observable — the incremental
    /// worklist.
    ///
    /// The full-scan predecessor (still alive, verbatim, as the
    /// [`crate::ReferenceCache`] oracle) revisited `touched ++ elevated`
    /// every period. Under the paper's defaults (`t_high = 1` with the
    /// presence floor) every set that ever holds an I/O line pins at
    /// `max_io_lines` and stays on the elevated list forever, so the
    /// walk degenerated to an all-no-op scan of the whole I/O working
    /// set every 16 accesses — the dominant cost of adaptive mode. This
    /// version evaluates `dirty ++ active` instead:
    ///
    /// * `dirty` is exactly the old touched list (same push condition,
    ///   deduplicated by epoch stamp instead of a flag), so touched
    ///   sets are evaluated at identical worklist positions.
    /// * `active` is the old elevated list minus *parked* sets. A set
    ///   parks only when its just-finished evaluation proves the next
    ///   one is a pure no-op: its activity counter is zero (just
    ///   reset), and with `p` resident I/O lines the untouched-next-
    ///   period evaluation computes `activity = max(0, p) = p`, which
    ///   is a no-op iff `p >= t_low && (p < t_high || io_limit ==
    ///   max_io_lines)`. Such an evaluation moves no boundary, evicts
    ///   nothing and changes no statistics, so skipping it is
    ///   unobservable — and the condition is self-perpetuating
    ///   (in adaptive mode a set's I/O occupancy and activity can only
    ///   change through an I/O write, which stamps the set into
    ///   `dirty`, or through a flush, which re-engages all parked
    ///   sets).
    ///
    /// An evaluation reads and writes only its own set and adds to the
    /// shard's counters, so skipping the no-ops keeps the incremental
    /// engine byte-identical to the oracle (pinned by
    /// `tests/incremental_eval.rs`).
    ///
    /// Displacement semantics when the boundary moves are **eager**: the
    /// losing side's surplus lines are invalidated (with writeback if
    /// dirty) at the adaptation point, never lazily on a later fill —
    /// see the discussion in [`crate::partition`].
    fn adapt(&mut self, cfg: AdaptiveConfig) {
        self.adapt_last = self.clock;
        self.stats.defense_evals += 1;
        // Worklist = dirty ++ (active minus already-dirty), built in a
        // persistent scratch vec: no per-period allocation (the old
        // `std::mem::take` + `Vec::with_capacity` pattern reallocated
        // all three lists every 16 accesses).
        debug_assert!(self.scratch.is_empty());
        std::mem::swap(&mut self.dirty, &mut self.scratch);
        for i in 0..self.active.len() {
            let set = self.active[i];
            if self.store.sets[set].touch_epoch != self.epoch {
                self.scratch.push(set);
            }
        }
        self.active.clear();
        // Bumping the epoch invalidates every stamp at once — this IS
        // the old per-set touched-flag clear pass, in O(1).
        //
        // Fault site `skipped-epoch-bump`: the fast path keeps
        // the stale epoch, so sets stamped last period falsely appear
        // already-queued and their next I/O write never re-enters them
        // into the dirty worklist. Keyed on the epoch itself
        // (schedule-independent by construction) — and self-latching:
        // a skipped bump leaves the key unchanged, so once the mutant
        // fires the epoch stays frozen and dirty tracking dies for
        // good, the way a real latched-condition bug would behave.
        if !crate::fault::fires_keyed(
            crate::fault::FaultSite::SkippedEpochBump,
            u64::from(self.epoch),
        ) {
            self.epoch = self.epoch.wrapping_add(1);
            if self.epoch == NEVER_TOUCHED {
                // Stamp wrap (once per 2^32 - 1 periods): sweep every
                // stamp back to the sentinel so no stale stamp can
                // collide with a reused epoch value.
                self.epoch = 0;
                for meta in &mut self.store.sets {
                    meta.touch_epoch = NEVER_TOUCHED;
                }
            }
        }
        for i in 0..self.scratch.len() {
            let set = self.scratch[i];
            // The paper's hardware counts cycles with a valid I/O line
            // *present*; a standing I/O line keeps the counter above
            // T_high for the whole period. Our event count is therefore
            // floored by the number of I/O lines currently resident.
            let present = self.store.count_domain(set, Domain::Io) as u32;
            let activity = self.store.sets[set].io_activity.max(present);
            self.store.sets[set].io_activity = 0;
            let old = self.store.sets[set].io_limit;
            let new = if activity >= cfg.t_high {
                old.saturating_add(1).min(cfg.max_io_lines)
            } else if activity < cfg.t_low {
                old.saturating_sub(1).max(cfg.min_io_lines)
            } else {
                old
            };
            if new > old {
                // Growing I/O partition: push CPU lines out so the CPU
                // quota holds.
                let cpu_quota = self.store.ways() - new as usize;
                while self.store.count_domain(set, Domain::Cpu) > cpu_quota {
                    match self.store.evict_lru_of_domain(set, Domain::Cpu) {
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
                // Shrinking: push surplus I/O lines out so occupancy never
                // exceeds the clamped boundary.
                while self.store.count_domain(set, Domain::Io) > new as usize {
                    match self.store.evict_lru_of_domain(set, Domain::Io) {
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
            self.store.sets[set].io_limit = new;
            // Classify for next period. `post_present` is the I/O
            // occupancy the untouched-next-period evaluation will see
            // (shrink evictions just ran, grow never changes it).
            let post_present = self.store.count_domain(set, Domain::Io) as u32;
            let meta = &mut self.store.sets[set];
            if new > cfg.min_io_lines {
                meta.flags |= FLAG_ELEVATED;
                let stable = post_present >= cfg.t_low
                    && (post_present < cfg.t_high || new == cfg.max_io_lines);
                if stable {
                    // Next evaluation is a provable no-op: park the set
                    // off the active worklist (see the method docs).
                    meta.flags |= FLAG_PARKED;
                } else {
                    meta.flags &= !FLAG_PARKED;
                    self.active.push(set);
                }
            } else {
                meta.flags &= !(FLAG_ELEVATED | FLAG_PARKED);
            }
        }
        self.scratch.clear();
    }
}
