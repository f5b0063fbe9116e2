//! The sliced last-level cache with DDIO write allocation and the
//! adaptive I/O partitioning defense.
//!
//! Storage and simulation state are kept per slice
//! ([`crate::shard::Shard`]): each slice owns its cut of the SoA line
//! store, its LRU state, its statistics, its defense clock and its
//! adaptive-partition worklists, as the paper's DDIO quotas, PRIME+PROBE
//! sets and adaptive partitions are per-slice state. Every access routes
//! to the owning shard; statistics merge in slice order.

use crate::addr::{PhysAddr, LINE_SIZE_LOG2};
use crate::geometry::CacheGeometry;
use crate::partition::AdaptiveConfig;
use crate::set::Domain;
use crate::shard::Shard;
use crate::slicehash::SliceHash;
use crate::stats::CacheStats;
use crate::store::MAX_TAG;
use std::fmt;

/// How DMA from I/O devices interacts with the LLC.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DdioMode {
    /// Pre-DDIO behaviour: DMA writes go to main memory (invalidating any
    /// cached copy); the CPU later demand-fetches the data.
    Disabled,
    /// Intel DDIO: I/O writes allocate directly in the LLC, restricted to
    /// `io_way_limit` ways per set (2 on real parts). I/O fills beyond the
    /// limit displace other I/O lines, but fills *within* the limit can
    /// displace CPU lines — the vulnerability the paper exploits.
    Enabled {
        /// Maximum ways per set an I/O fill may occupy.
        io_way_limit: u8,
    },
    /// The paper's §VII defense: per-set I/O partitions sized by an
    /// activity-driven saturating counter; I/O fills can *only* displace
    /// I/O lines, so the spy's primed lines never observe packets.
    Adaptive(AdaptiveConfig),
}

impl DdioMode {
    /// DDIO with Intel's 2-way allocation limit (the vulnerable baseline).
    pub fn enabled() -> Self {
        DdioMode::Enabled { io_way_limit: 2 }
    }

    /// The adaptive partitioning defense with the paper's defaults.
    pub fn adaptive() -> Self {
        DdioMode::Adaptive(AdaptiveConfig::paper_defaults())
    }

    /// `true` for any mode in which I/O writes allocate in the LLC.
    pub fn allocates_in_llc(&self) -> bool {
        !matches!(self, DdioMode::Disabled)
    }
}

impl Default for DdioMode {
    fn default() -> Self {
        DdioMode::enabled()
    }
}

/// A (slice, set-index) pair — one concrete cache set in the sliced LLC.
///
/// The spy's "page-aligned cache sets" (256 of them on the paper's
/// machine) are values of this type.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub struct SliceSet {
    /// Slice number (`0..geometry.slices()`).
    pub slice: usize,
    /// Set index within the slice (`0..geometry.sets_per_slice()`).
    pub set: usize,
}

impl SliceSet {
    /// Creates a slice/set pair.
    pub fn new(slice: usize, set: usize) -> Self {
        SliceSet { slice, set }
    }
}

impl fmt::Display for SliceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}#{}", self.slice, self.set)
    }
}

/// The kind of access presented to the LLC.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum AccessKind {
    /// CPU load.
    CpuRead,
    /// CPU store (write-allocate, write-back).
    CpuWrite,
    /// DMA write from an I/O device (a packet block arriving).
    IoWrite,
    /// DMA read by an I/O device (descriptor fetches, transmit).
    IoRead,
}

impl AccessKind {
    /// `true` for the two I/O kinds.
    pub fn is_io(self) -> bool {
        matches!(self, AccessKind::IoWrite | AccessKind::IoRead)
    }
}

/// What a single access did, in units the memory controller cares about.
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct AccessOutcome {
    /// The line was present in the LLC.
    pub hit: bool,
    /// DRAM lines read because of this access.
    pub dram_reads: u32,
    /// DRAM lines written because of this access (writebacks and
    /// non-DDIO DMA writes).
    pub dram_writes: u32,
    /// This access displaced a CPU-domain line from the LLC — the event
    /// the Packet Chasing spy detects.
    pub evicted_cpu: bool,
}

/// The sliced, set-associative LLC.
///
/// All addresses are physical. The cache stores only metadata (tags,
/// dirty bits, domains); no data bytes are simulated. Storage is one
/// contiguous structure-of-arrays *per slice* (`src/store.rs`), owned
/// by that slice's simulation shard — there is no per-set object on the
/// hot path, and no cross-slice state at all.
///
/// A line's tag is packed into 29 bits, so addresses must stay below
/// `2^(35 + sets_per_slice_log2)`: 2^46 on the paper's geometry, 2^39
/// on [`CacheGeometry::tiny`]. Every address the simulator builds is
/// below 2^36; [`SlicedCache::access`], [`SlicedCache::contains`] and
/// [`SlicedCache::decode_walk`] panic on one past the bound.
///
/// ```
/// use pc_cache::{AccessKind, CacheGeometry, DdioMode, PhysAddr, SlicedCache};
/// let mut llc = SlicedCache::new(CacheGeometry::tiny(), DdioMode::enabled());
/// let a = PhysAddr::new(0x8000);
/// assert!(!llc.access(a, AccessKind::CpuRead).hit);
/// assert!(llc.access(a, AccessKind::CpuRead).hit);
/// ```
#[derive(Clone, Debug)]
pub struct SlicedCache {
    geom: CacheGeometry,
    hash: SliceHash,
    mode: DdioMode,
    shards: Vec<Shard>,
}

impl SlicedCache {
    /// Creates an empty LRU cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's slice count is unsupported by the slice
    /// hash (must be 1/2/4/8) or if an [`AdaptiveConfig`] is invalid for
    /// the geometry.
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
        SlicedCache {
            geom,
            hash,
            mode,
            shards: (0..geom.slices())
                .map(|_| Shard::new(geom.sets_per_slice(), geom.ways(), initial_io_limit))
                .collect(),
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The DDIO mode the cache was built with.
    pub fn mode(&self) -> DdioMode {
        self.mode
    }

    /// The slice hash (ground truth — attacker code must not call this).
    pub fn slice_hash(&self) -> SliceHash {
        self.hash
    }

    /// The concrete (slice, set) an address maps to. Ground truth for
    /// instrumentation and tests; the attacker discovers this by timing.
    pub fn locate(&self, addr: PhysAddr) -> SliceSet {
        SliceSet {
            slice: self.hash.slice_of(addr),
            set: self.geom.set_index(addr),
        }
    }

    /// Hints the host cache with the `(slice, set)` row `addr` maps
    /// to, so a replay loop can fetch it a few ops before it accesses
    /// it. No simulated state changes: no access, no statistic.
    #[inline]
    pub(crate) fn prefetch(&self, addr: PhysAddr) {
        let ss = self.locate(addr);
        self.shards[ss.slice].prefetch(ss.set);
    }

    /// Where `addr`'s line lives: its slice, set and packed tag — the
    /// decode half of [`SlicedCache::access`].
    ///
    /// # Panics
    ///
    /// Panics if `addr` is past the address bound (see the type docs).
    #[inline]
    pub(crate) fn decode(&self, addr: PhysAddr) -> Line {
        let ss = self.locate(addr);
        Line {
            slice: ss.slice,
            set: ss.set,
            tag: self.line_tag(addr),
        }
    }

    /// Decodes a CPU-read walk over `addrs`, in order, for replay by
    /// [`crate::Hierarchy::run_walk`]: each line's slice hash, set index
    /// and tag are computed once here instead of on every replay.
    ///
    /// # Panics
    ///
    /// Panics if an address is past the address bound (see the type
    /// docs).
    pub fn decode_walk(&self, addrs: &[PhysAddr]) -> DecodedWalk {
        DecodedWalk {
            geom: self.geom,
            lines: addrs
                .iter()
                .map(|&a| PackedLine::pack(self.decode(a)))
                .collect(),
        }
    }

    /// `addr`'s tag as the line store packs it.
    ///
    /// # Panics
    ///
    /// Panics if the tag does not fit a packed line word, naming the
    /// address and the bound (see the type docs).
    #[inline]
    fn line_tag(&self, addr: PhysAddr) -> u32 {
        match u32::try_from(self.geom.tag(addr)) {
            Ok(tag) if tag <= MAX_TAG => tag,
            _ => panic!(
                "address {:#x} is past the LLC model's address bound {:#x}",
                addr.raw(),
                (u64::from(MAX_TAG) + 1) << (LINE_SIZE_LOG2 + self.geom.sets_per_slice_log2())
            ),
        }
    }

    /// Whether `addr` is currently cached (oracle for tests).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is past the address bound (see the type docs).
    pub fn contains(&self, addr: PhysAddr) -> bool {
        let line = self.decode(addr);
        self.shards[line.slice].lookup(line.set, line.tag).is_some()
    }

    /// Number of valid lines of `domain` in a concrete set.
    pub fn domain_count(&self, ss: SliceSet, domain: Domain) -> usize {
        self.shards[ss.slice].count_domain(ss.set, domain)
    }

    /// Current I/O partition size of a set (meaningful in `Enabled` /
    /// `Adaptive` modes).
    pub fn io_partition_limit(&self, ss: SliceSet) -> usize {
        self.shards[ss.slice].io_limit(ss.set)
    }

    /// Accumulated statistics, merged over the shards in slice order.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::new();
        for shard in &self.shards {
            total.merge(shard.stats());
        }
        total
    }

    /// Statistics accumulated by one slice's shard alone.
    ///
    /// Summing this over all slices equals [`SlicedCache::stats`]. The
    /// per-slice view exists so tests can pin the replay to the
    /// reference model at slice granularity — in particular
    /// [`CacheStats::defense_evals`], the per-slice count of adaptive
    /// period re-evaluations, must match exactly, not just in total.
    ///
    /// # Panics
    ///
    /// Panics if `slice >= geometry().slices()`.
    pub fn slice_stats(&self, slice: usize) -> CacheStats {
        self.shards[slice].stats()
    }

    /// Resets statistics to zero (the cache contents are untouched).
    pub fn reset_stats(&mut self) {
        for shard in &mut self.shards {
            shard.reset_stats();
        }
    }

    /// Invalidates the whole cache, counting writebacks into the stats.
    ///
    /// Returns the number of dirty lines written back so callers that
    /// track DRAM traffic (e.g. [`crate::Hierarchy::flush_all`]) can
    /// account the flush as memory writes — the original implementation
    /// silently dropped that traffic.
    pub fn flush_all(&mut self) -> usize {
        self.shards.iter_mut().map(Shard::flush_all).sum()
    }

    /// Performs one access and reports what happened.
    ///
    /// In `Adaptive` mode the access ticks the owning slice's defense
    /// clock, which drives that slice's periodic boundary re-evaluation
    /// (see [`crate::AdaptiveConfig`]); other modes keep the clock
    /// ticking but never read it.
    ///
    /// ```
    /// use pc_cache::{AccessKind, CacheGeometry, DdioMode, PhysAddr, SlicedCache};
    /// let mut llc = SlicedCache::new(CacheGeometry::tiny(), DdioMode::adaptive());
    /// // Prime every set with CPU lines, then storm the same sets with
    /// // DMA fills at conflicting tags.
    /// for i in 0..64u64 {
    ///     llc.access(PhysAddr::new(i * 0x1040), AccessKind::CpuRead);
    /// }
    /// let evicted_cpu = (0..64u64)
    ///     .map(|i| llc.access(PhysAddr::new(0x10_0000 + i * 0x1040), AccessKind::IoWrite))
    ///     .filter(|out| out.evicted_cpu)
    ///     .count();
    /// assert_eq!(evicted_cpu, 0, "the adaptive defense shields CPU lines");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `addr` is past the address bound (see the type docs).
    #[inline]
    pub fn access(&mut self, addr: PhysAddr, kind: AccessKind) -> AccessOutcome {
        self.access_at(self.decode(addr), kind)
    }

    /// The access half of [`SlicedCache::access`]: one access to an
    /// already decoded line. Every entry point — the per-access oracle,
    /// the op-stream fast path and decoded walks — reaches the shards
    /// through here.
    #[inline(always)]
    pub(crate) fn access_at(&mut self, line: Line, kind: AccessKind) -> AccessOutcome {
        self.shards[line.slice].access(self.mode, line.set, line.tag, kind)
    }
}

/// One line's coordinates in the sliced cache: its slice, its set within
/// the slice and its packed tag. Crate-private: attacker code holds
/// [`DecodedWalk`]s, never coordinates.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Line {
    slice: usize,
    set: usize,
    tag: u32,
}

/// A [`Line`] as a [`DecodedWalk`] stores it, in 8 bytes: the spy's
/// chasing memo holds 51 200 of them. [`CacheGeometry::new`] caps a
/// slice at 2^24 sets and the slice hash allows 8 slices, so slice and
/// set share one word. Replays unpack each line into registers; the op
/// path never packs.
#[derive(Copy, Clone, Debug)]
struct PackedLine {
    tag: u32,
    /// The set in the low [`PackedLine::SET_BITS`] bits, the slice above.
    slice_set: u32,
}

impl PackedLine {
    const SET_BITS: u32 = 24;

    fn pack(line: Line) -> Self {
        PackedLine {
            tag: line.tag,
            slice_set: (line.slice << PackedLine::SET_BITS | line.set) as u32,
        }
    }

    #[inline(always)]
    fn unpack(self) -> Line {
        Line {
            slice: (self.slice_set >> PackedLine::SET_BITS) as usize,
            set: (self.slice_set & ((1 << PackedLine::SET_BITS) - 1)) as usize,
            tag: self.tag,
        }
    }
}

/// A CPU-read walk over fixed lines, decoded once against one cache
/// geometry by [`SlicedCache::decode_walk`] and replayed, forward or
/// reverse, by [`crate::Hierarchy::run_walk`].
///
/// This is the spy's online phase: the eviction sets are built once
/// and then primed and probed thousands of times, so their lines are
/// located once too. The per-line coordinates stay private; a walk
/// records the geometry it was decoded for (the geometry fixes the
/// slice hash), and replaying it on another geometry panics.
#[derive(Clone, Debug)]
pub struct DecodedWalk {
    geom: CacheGeometry,
    lines: Box<[PackedLine]>,
}

impl DecodedWalk {
    /// The geometry the walk was decoded for.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The walk's lines, first to last.
    #[inline]
    pub(crate) fn lines(&self) -> impl DoubleEndedIterator<Item = Line> + '_ {
        self.lines.iter().map(|p| p.unpack())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_llc(mode: DdioMode) -> SlicedCache {
        SlicedCache::new(CacheGeometry::tiny(), mode)
    }

    /// Addresses that all map to the same (slice, set) as `base`, spaced
    /// one set-stride apart in the tag bits.
    fn conflicting_addrs(llc: &SlicedCache, base: PhysAddr, n: usize) -> Vec<PhysAddr> {
        let target = llc.locate(base);
        let stride = (llc.geometry().sets_per_slice() * crate::LINE_SIZE) as u64;
        let mut out = Vec::new();
        let mut a = base.raw();
        while out.len() < n {
            let cand = PhysAddr::new(a);
            if llc.locate(cand) == target {
                out.push(cand);
            }
            a += stride;
        }
        out
    }

    /// An address in the same slice as `base` but a different set — used
    /// to drive the adaptation clock of `base`'s slice without touching
    /// its set (adaptation is per-slice, so traffic in *another* slice
    /// would not re-evaluate this one).
    fn same_slice_other_set(llc: &SlicedCache, base: PhysAddr) -> PhysAddr {
        let target = llc.locate(base);
        (1u64..)
            .map(|i| PhysAddr::new(base.raw() + i * crate::LINE_SIZE as u64))
            .find(|&a| {
                let ss = llc.locate(a);
                ss.slice == target.slice && ss.set != target.set
            })
            .expect("a same-slice, different-set address exists")
    }

    #[test]
    fn miss_then_hit() {
        let mut llc = tiny_llc(DdioMode::enabled());
        let a = PhysAddr::new(0x4_0000);
        assert!(!llc.access(a, AccessKind::CpuRead).hit);
        assert!(llc.access(a, AccessKind::CpuRead).hit);
        assert_eq!(llc.stats().cpu_hits, 1);
        assert_eq!(llc.stats().cpu_misses, 1);
    }

    #[test]
    fn associativity_is_respected() {
        let mut llc = tiny_llc(DdioMode::enabled());
        let ways = llc.geometry().ways();
        let addrs = conflicting_addrs(&llc, PhysAddr::new(0), ways + 1);
        for &a in &addrs {
            llc.access(a, AccessKind::CpuRead);
        }
        // First (LRU) address must have been displaced by the last fill.
        assert!(!llc.contains(addrs[0]));
        for &a in &addrs[1..] {
            assert!(llc.contains(a));
        }
    }

    #[test]
    fn ddio_fill_evicts_cpu_line_within_limit() {
        let mut llc = tiny_llc(DdioMode::enabled());
        let base = PhysAddr::new(0);
        let ways = llc.geometry().ways();
        let primes = conflicting_addrs(&llc, base, ways + 1);
        // Prime the set with CPU lines using addresses [1..=ways].
        for &a in &primes[1..] {
            llc.access(a, AccessKind::CpuRead);
        }
        // An I/O write to the same set must displace a primed line.
        let out = llc.access(primes[0], AccessKind::IoWrite);
        assert!(out.evicted_cpu, "DDIO fill should displace a CPU line");
        assert_eq!(llc.stats().io_evicted_cpu, 1);
    }

    #[test]
    fn ddio_way_limit_recycles_io_lines() {
        let mut llc = tiny_llc(DdioMode::Enabled { io_way_limit: 2 });
        let addrs = conflicting_addrs(&llc, PhysAddr::new(0), 5);
        for &a in &addrs {
            llc.access(a, AccessKind::IoWrite);
        }
        let ss = llc.locate(addrs[0]);
        assert!(
            llc.domain_count(ss, Domain::Io) <= 2,
            "I/O must never hold more than the way limit"
        );
    }

    #[test]
    fn disabled_ddio_sends_dma_to_memory() {
        let mut llc = tiny_llc(DdioMode::Disabled);
        let a = PhysAddr::new(0x8000);
        let out = llc.access(a, AccessKind::IoWrite);
        assert!(!out.hit);
        assert_eq!(out.dram_writes, 1);
        assert!(!llc.contains(a), "no allocation without DDIO");
        // CPU read later demand-fetches it.
        let out = llc.access(a, AccessKind::CpuRead);
        assert!(!out.hit);
        assert_eq!(out.dram_reads, 1);
        assert!(llc.contains(a));
    }

    #[test]
    fn disabled_ddio_invalidates_stale_cached_copy() {
        let mut llc = tiny_llc(DdioMode::Disabled);
        let a = PhysAddr::new(0x8000);
        llc.access(a, AccessKind::CpuRead);
        assert!(llc.contains(a));
        llc.access(a, AccessKind::IoWrite);
        assert!(
            !llc.contains(a),
            "DMA write must invalidate the cached copy"
        );
    }

    #[test]
    fn adaptive_never_evicts_cpu_lines_on_io_fill() {
        let mut llc = tiny_llc(DdioMode::adaptive());
        let ways = llc.geometry().ways();
        let addrs = conflicting_addrs(&llc, PhysAddr::new(0), 2 * ways);
        // Fill the CPU partition.
        for &a in &addrs[..ways] {
            llc.access(a, AccessKind::CpuRead);
        }
        // Hammer the set with I/O fills.
        for &a in &addrs[ways..] {
            let out = llc.access(a, AccessKind::IoWrite);
            assert!(
                !out.evicted_cpu,
                "adaptive mode must never displace CPU lines"
            );
        }
        assert_eq!(llc.stats().io_evicted_cpu, 0);
    }

    #[test]
    fn adaptive_grows_partition_under_sustained_io() {
        let cfg = AdaptiveConfig {
            period: 10,
            t_high: 2,
            t_low: 1,
            min_io_lines: 1,
            max_io_lines: 3,
        };
        let mut llc = tiny_llc(DdioMode::Adaptive(cfg));
        let addrs = conflicting_addrs(&llc, PhysAddr::new(0), 6);
        let ss = llc.locate(addrs[0]);
        assert_eq!(llc.io_partition_limit(ss), 1);
        // Sustained I/O activity across several periods (one per 10
        // accesses to this slice) grows the limit.
        for _ in 0..20 {
            for &a in &addrs {
                llc.access(a, AccessKind::IoWrite);
            }
        }
        assert!(
            llc.io_partition_limit(ss) > 1,
            "partition should have grown"
        );
        assert!(llc.io_partition_limit(ss) <= 3);
    }

    #[test]
    fn adaptive_shrinks_partition_when_idle() {
        let cfg = AdaptiveConfig {
            period: 10,
            t_high: 2,
            t_low: 1,
            min_io_lines: 1,
            max_io_lines: 3,
        };
        let mut llc = tiny_llc(DdioMode::Adaptive(cfg));
        let addrs = conflicting_addrs(&llc, PhysAddr::new(0), 6);
        let ss = llc.locate(addrs[0]);
        for _ in 0..20 {
            for &a in &addrs {
                llc.access(a, AccessKind::IoWrite);
            }
        }
        assert!(llc.io_partition_limit(ss) > 1);
        // Standing I/O lines keep the partition grown (presence
        // semantics); once they leave the cache and I/O stays idle, the
        // partition shrinks back to the floor. CPU traffic in a
        // different set *of the same slice* keeps that shard's
        // adaptation clock moving.
        llc.flush_all();
        let other = same_slice_other_set(&llc, addrs[0]);
        for _ in 0..50 {
            llc.access(other, AccessKind::CpuRead);
        }
        assert_eq!(
            llc.io_partition_limit(ss),
            1,
            "partition should shrink back"
        );
    }

    #[test]
    fn adaptive_shrink_below_occupancy_evicts_surplus() {
        // The boundary-shrink clamp: grow the partition to 3 under heavy
        // traffic, keep 3 I/O lines resident, then go idle with
        // `t_low = 4` so the presence floor (3) is *below* the shrink
        // threshold. The boundary steps down beneath the standing
        // occupancy, and the surplus lines must be displaced eagerly
        // (with writebacks — DDIO lines are dirty) so occupancy never
        // exceeds the clamped boundary.
        let cfg = AdaptiveConfig {
            period: 10,
            t_high: 4,
            t_low: 4,
            min_io_lines: 1,
            max_io_lines: 3,
        };
        let mut llc = tiny_llc(DdioMode::Adaptive(cfg));
        let addrs = conflicting_addrs(&llc, PhysAddr::new(0), 8);
        let ss = llc.locate(addrs[0]);
        while llc.io_partition_limit(ss) < 3 {
            for &a in &addrs[..6] {
                llc.access(a, AccessKind::IoWrite);
            }
        }
        // Refill the grown partition so occupancy == 3.
        for &a in &addrs[..3] {
            llc.access(a, AccessKind::IoWrite);
        }
        assert_eq!(llc.domain_count(ss, Domain::Io), 3);
        let wb_before = llc.stats().writebacks;
        // Idle periods: ticks in another set of the same slice drive
        // adaptation. The boundary steps down one line per period; each
        // step displaces a surplus resident I/O line.
        let other = same_slice_other_set(&llc, addrs[0]);
        for _ in 0..80 {
            llc.access(other, AccessKind::CpuRead);
        }
        let limit = llc.io_partition_limit(ss);
        assert_eq!(
            limit, 1,
            "partition should have shrunk to the floor, got {limit}"
        );
        assert!(
            llc.domain_count(ss, Domain::Io) <= limit,
            "occupancy must not exceed the shrunk boundary"
        );
        assert!(
            llc.stats().partition_invalidations >= 2,
            "surplus lines are displaced eagerly"
        );
        assert!(
            llc.stats().writebacks > wb_before,
            "dirty DDIO lines write back"
        );
    }

    #[test]
    fn adaptation_is_per_slice() {
        // Traffic in one slice must never re-evaluate another slice's
        // partitions: grow a partition in `base`'s slice, then hammer a
        // *different* slice with CPU reads — the grown partition must
        // stay exactly where it was (its shard's clock never advanced).
        let cfg = AdaptiveConfig {
            period: 10,
            t_high: 2,
            t_low: 1,
            min_io_lines: 1,
            max_io_lines: 3,
        };
        let mut llc = tiny_llc(DdioMode::Adaptive(cfg));
        let base = PhysAddr::new(0);
        let addrs = conflicting_addrs(&llc, base, 6);
        let ss = llc.locate(base);
        for _ in 0..20 {
            for &a in &addrs {
                llc.access(a, AccessKind::IoWrite);
            }
        }
        let grown = llc.io_partition_limit(ss);
        assert!(grown > 1);
        llc.flush_all();
        let other_slice = (1u64..)
            .map(|i| PhysAddr::new(i * crate::LINE_SIZE as u64))
            .find(|&a| llc.locate(a).slice != ss.slice)
            .expect("tiny geometry has two slices");
        for _ in 0..100 {
            llc.access(other_slice, AccessKind::CpuRead);
        }
        assert_eq!(
            llc.io_partition_limit(ss),
            grown,
            "cross-slice traffic must not drive this slice's adaptation"
        );
    }

    #[test]
    fn writebacks_counted_on_dirty_eviction() {
        let mut llc = tiny_llc(DdioMode::enabled());
        let ways = llc.geometry().ways();
        let addrs = conflicting_addrs(&llc, PhysAddr::new(0), ways + 1);
        for &a in &addrs[..ways] {
            llc.access(a, AccessKind::CpuWrite); // dirty lines
        }
        let out = llc.access(addrs[ways], AccessKind::CpuRead);
        assert_eq!(out.dram_writes, 1, "dirty LRU line must write back");
        assert_eq!(llc.stats().writebacks, 1);
    }

    #[test]
    fn io_read_does_not_allocate() {
        let mut llc = tiny_llc(DdioMode::enabled());
        let a = PhysAddr::new(0xc000);
        let out = llc.access(a, AccessKind::IoRead);
        assert!(!out.hit);
        assert_eq!(out.dram_reads, 1);
        assert!(!llc.contains(a));
    }

    #[test]
    fn flush_all_empties_cache_and_reports_writebacks() {
        let mut llc = tiny_llc(DdioMode::enabled());
        let a = PhysAddr::new(0x1000);
        llc.access(a, AccessKind::CpuWrite);
        assert_eq!(llc.flush_all(), 1, "one dirty line flushed");
        assert!(!llc.contains(a));
        assert_eq!(llc.stats().writebacks, 1);
    }

    #[test]
    fn locate_agrees_with_geometry_and_hash() {
        let llc = tiny_llc(DdioMode::enabled());
        let a = PhysAddr::new(0x1_2340);
        let ss = llc.locate(a);
        assert_eq!(ss.set, llc.geometry().set_index(a));
        assert_eq!(ss.slice, llc.slice_hash().slice_of(a));
    }

    #[test]
    fn addresses_up_to_the_bound_are_cached() {
        // The tiny geometry's bound is 2^(29 + 6 + 4) = 2^39.
        let mut llc = tiny_llc(DdioMode::enabled());
        let last = PhysAddr::new((1 << 39) - 1);
        assert!(!llc.access(last, AccessKind::CpuRead).hit);
        assert!(llc.contains(last));
        let mut paper = SlicedCache::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let last = PhysAddr::new((1 << 46) - 1);
        assert!(!paper.access(last, AccessKind::IoWrite).hit);
        assert!(paper.contains(last));
    }

    #[test]
    #[should_panic(
        expected = "address 0x8000000000 is past the LLC model's address bound 0x8000000000"
    )]
    fn an_address_one_tag_past_the_bound_panics() {
        let mut llc = tiny_llc(DdioMode::enabled());
        llc.access(PhysAddr::new(1 << 39), AccessKind::CpuRead);
    }
}
