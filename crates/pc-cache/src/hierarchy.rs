//! The memory hierarchy facade: one cycle clock, one LLC, one memory
//! controller.
//!
//! Every crate in the reproduction talks to the machine through this
//! type: the NIC driver model issues `io_write`s for arriving packet
//! blocks, the spy issues `cpu_read`s to prime and probe, and the defense
//! workloads issue both. Latencies are returned *and* accumulated on the
//! shared clock, so interleaving (who runs when) falls out naturally.
//!
//! Op streams replay through one fast path — [`Hierarchy::run_trace`],
//! [`Hierarchy::run_ops`], the streaming [`OpApplier`] and the decoded
//! walks of [`Hierarchy::run_walk`] share one access + latency + clock
//! step — while the hierarchy itself, as an [`OpSink`], is the per-access oracle every
//! fast-path result is checked against.

use crate::addr::PhysAddr;
use crate::fault;
use crate::geometry::CacheGeometry;
use crate::llc::{AccessKind, DdioMode, DecodedWalk, Line, SlicedCache};
use crate::memory::MemoryStats;
use crate::ops::{CacheOp, OpBuffer, OpSink};
use crate::Cycles;

/// How many ops ahead of the replay the [`Hierarchy::run_ops`] walk
/// decodes each op and hints its LLC row into the host cache, and so
/// the size of the walk's ring of decoded lines. A paper-geometry model
/// is ≈ 1.8 MiB of host memory and a request's working-set reads land
/// on random sets, so a row is often outside the host's L1; 8 ops
/// (≈ 0.2 µs of replay) covers an L2 or L3 fetch. With the hint, a
/// 12 MiB working set replays within about 10 % of a 64 KiB one
/// (measured on a 2-vCPU x86-64 host), so host-memory stalls are no
/// longer where the time goes. Distances 4 and 16 measured no better
/// on Figure 16's load (before the decode-once ring).
const PREFETCH_DISTANCE: usize = 8;

/// Latency (in cycles) of the modelled components.
///
/// Absolute values are calibrated to a ~3.3 GHz server-class part; only
/// the *gap* between `llc_hit` and `dram` matters for the attack (that gap
/// is the PRIME+PROBE signal).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct LatencyModel {
    /// LLC hit latency.
    pub llc_hit: Cycles,
    /// DRAM access latency (LLC miss penalty).
    pub dram: Cycles,
    /// Cost of non-memory attacker work per probed address (pointer
    /// chasing overhead, timer reads).
    pub op: Cycles,
}

impl LatencyModel {
    /// Defaults: 40-cycle LLC hit, 200-cycle DRAM, 2-cycle ALU op.
    pub fn server_defaults() -> Self {
        LatencyModel {
            llc_hit: 40,
            dram: 200,
            op: 2,
        }
    }

    /// The threshold a timing attacker would use to call an access a miss:
    /// halfway between hit and miss latency.
    pub fn miss_threshold(&self) -> Cycles {
        (self.llc_hit + self.dram) / 2
    }

    /// The single latency rule: what one access costs given whether it
    /// hit and whether I/O writes allocate in the LLC
    /// ([`crate::DdioMode::allocates_in_llc`]). Shared by the scalar
    /// entry points and the fast path's replay step, so the paths
    /// cannot diverge.
    #[inline]
    pub fn access_latency(&self, hit: bool, kind: AccessKind, allocates_in_llc: bool) -> Cycles {
        if hit {
            self.llc_hit
        } else {
            match kind {
                // Misses pay DRAM; DDIO-allocating writes complete at
                // cache speed (the whole point of DDIO).
                AccessKind::IoWrite if allocates_in_llc => self.llc_hit,
                _ => self.dram,
            }
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::server_defaults()
    }
}

/// The simulated machine: clock + LLC + memory controller.
///
/// ```
/// use pc_cache::{CacheGeometry, DdioMode, Hierarchy, PhysAddr};
/// let mut h = Hierarchy::new(CacheGeometry::tiny(), DdioMode::enabled());
/// let t0 = h.now();
/// h.io_write(PhysAddr::new(0x2000)); // a packet block lands in the LLC
/// assert!(h.now() > t0);
/// ```
#[derive(Clone, Debug)]
pub struct Hierarchy {
    llc: SlicedCache,
    mem: MemoryStats,
    lat: LatencyModel,
    clock: Cycles,
}

impl Hierarchy {
    /// Creates a hierarchy with default latencies and a default-seeded
    /// LLC.
    pub fn new(geom: CacheGeometry, mode: DdioMode) -> Self {
        Hierarchy::with_llc(SlicedCache::new(geom, mode))
    }

    /// Wraps an explicitly configured cache.
    pub fn with_llc(llc: SlicedCache) -> Self {
        Hierarchy {
            llc,
            mem: MemoryStats::new(),
            lat: LatencyModel::server_defaults(),
            clock: 0,
        }
    }

    /// Overrides the latency model (builder style).
    pub fn with_latencies(mut self, lat: LatencyModel) -> Self {
        self.lat = lat;
        self
    }

    /// Current cycle count.
    pub fn now(&self) -> Cycles {
        self.clock
    }

    /// The latency model in use.
    pub fn latencies(&self) -> LatencyModel {
        self.lat
    }

    /// Advances the clock without touching memory (spinning, sleeping,
    /// waiting for the next probe slot).
    pub fn advance(&mut self, cycles: Cycles) {
        self.clock += cycles;
    }

    /// Read-only view of the LLC (ground truth / instrumentation).
    pub fn llc(&self) -> &SlicedCache {
        &self.llc
    }

    /// Mutable view of the LLC, for experiment setup (flushes etc.).
    pub fn llc_mut(&mut self) -> &mut SlicedCache {
        &mut self.llc
    }

    /// Memory-controller traffic so far.
    pub fn memory_stats(&self) -> MemoryStats {
        self.mem
    }

    /// Resets LLC and memory statistics (contents and clock unchanged).
    pub fn reset_stats(&mut self) {
        self.mem = MemoryStats::new();
        self.llc.reset_stats();
    }

    /// Invalidates the whole LLC, accounting the dirty writebacks as
    /// memory-controller writes.
    ///
    /// Flushing through the hierarchy (rather than `llc_mut().flush_all()`)
    /// keeps [`Hierarchy::memory_stats`] honest: a flush's writebacks are
    /// real DRAM traffic, which the LLC-level entry point can't record.
    pub fn flush_all(&mut self) {
        let wb = self.llc.flush_all();
        self.mem.writes += wb as u64;
    }

    /// [`LatencyModel::access_latency`] applied to this hierarchy's LLC.
    #[inline]
    fn latency_of(&self, hit: bool, kind: AccessKind) -> Cycles {
        self.lat
            .access_latency(hit, kind, self.llc.mode().allocates_in_llc())
    }

    fn run(&mut self, addr: PhysAddr, kind: AccessKind) -> Cycles {
        let out = self.llc.access(addr, kind);
        self.mem.reads += out.dram_reads as u64;
        self.mem.writes += out.dram_writes as u64;
        let latency = self.latency_of(out.hit, kind);
        self.clock += latency;
        latency
    }

    /// CPU load; returns its latency. This is what the spy times.
    pub fn cpu_read(&mut self, addr: PhysAddr) -> Cycles {
        self.run(addr, AccessKind::CpuRead)
    }

    /// CPU store; returns its latency.
    pub fn cpu_write(&mut self, addr: PhysAddr) -> Cycles {
        self.run(addr, AccessKind::CpuWrite)
    }

    /// DMA write of one cache line from an I/O device (a packet block).
    pub fn io_write(&mut self, addr: PhysAddr) -> Cycles {
        self.run(addr, AccessKind::IoWrite)
    }

    /// DMA read of one cache line by an I/O device.
    pub fn io_read(&mut self, addr: PhysAddr) -> Cycles {
        self.run(addr, AccessKind::IoRead)
    }

    /// `true` if `latency` would be classified as an LLC miss by a timing
    /// attacker using this hierarchy's latency model.
    pub fn is_miss_latency(&self, latency: Cycles) -> bool {
        latency >= self.lat.miss_threshold()
    }

    /// Replays a trace of [`CacheOp`]s back-to-back, advancing the clock
    /// per access (plus any [`CacheOp::lead`]s) exactly as the scalar
    /// entry points do, and returns the aggregate.
    ///
    /// This is the batch entry point for producers that don't need
    /// per-access latencies and replay a stream once (the timing-based
    /// eviction-set builder's candidate walks), saving a call and two
    /// stat read-modify-writes per line; walks replayed many times over
    /// fixed lines decode once and go through [`Hierarchy::run_walk`].
    /// Per-access behaviour (replacement, adaptation timing,
    /// statistics) is identical to issuing the ops one at a time.
    ///
    /// ```
    /// use pc_cache::{CacheGeometry, CacheOp, DdioMode, Hierarchy, PhysAddr};
    /// let mut h = Hierarchy::new(CacheGeometry::tiny(), DdioMode::adaptive());
    /// let ops = (0..100u64).map(|i| CacheOp::read(PhysAddr::new(i * 0x1040)));
    /// let sum = h.run_trace(ops);
    /// assert_eq!(sum.accesses, 100);
    /// assert_eq!(sum.cycles, h.now(), "the clock advanced by the replay");
    /// ```
    pub fn run_trace<I>(&mut self, ops: I) -> TraceSummary
    where
        I: IntoIterator<Item = CacheOp>,
    {
        let allocates = self.llc.mode().allocates_in_llc();
        let mut sum = TraceSummary::default();
        for op in ops {
            self.step_op(allocates, op, &mut sum);
        }
        self.absorb(&sum);
        sum
    }

    /// Replays a recorded op batch: the ops through the fast path's
    /// step, as [`Hierarchy::run_trace`] does, then the buffer's
    /// trailing advance.
    ///
    /// This is the entry point behind every emit-then-replay producer
    /// (the NIC driver's per-frame batches, the defense workloads'
    /// chunked inner loops): emit into an [`OpBuffer`], call `run_ops`,
    /// get byte-identical results to issuing the same ops one at a time
    /// against the hierarchy — which is exactly what pointing the emit
    /// code at the hierarchy itself (it implements [`OpSink`]) does.
    ///
    /// The walk decodes each op once, 8 ops ahead: before op *i*
    /// replays it decodes op *i* + 8, hints that line's `(slice, set)`
    /// row — line words, LRU stamps, set record — into the host's L1
    /// and parks the decoded line in a ring until its turn. The hint
    /// touches no simulated state, so accesses, their order and
    /// statistics are exactly the unhinted walk's; only a panic on an
    /// address past the bound comes up to 8 ops early.
    pub fn run_ops(&mut self, buf: &OpBuffer) -> TraceSummary {
        let ops = buf.ops();
        let allocates = self.llc.mode().allocates_in_llc();
        let mut sum = TraceSummary::default();
        let mut ring = [Line::default(); PREFETCH_DISTANCE];
        for (slot, op) in ring.iter_mut().zip(ops) {
            *slot = self.llc.decode(op.addr);
        }
        for (i, op) in ops.iter().enumerate() {
            let slot = &mut ring[i % PREFETCH_DISTANCE];
            let line = *slot;
            if let Some(ahead) = ops.get(i + PREFETCH_DISTANCE) {
                *slot = self.llc.decode(ahead.addr);
                self.llc.prefetch(*slot);
            }
            self.step(allocates, line, op.kind, op.lead, &mut sum);
        }
        sum.cycles += buf.trailing();
        self.absorb(&sum);
        sum
    }

    /// Replays a decoded CPU-read walk, forward or reverse, and returns
    /// the aggregate — byte-identical to issuing [`Hierarchy::cpu_read`]
    /// for each of the walk's addresses in that order.
    ///
    /// This is the spy's prime and probe entry point: its eviction sets
    /// are decoded once, where they are built
    /// ([`SlicedCache::decode_walk`]), and every replay skips the slice
    /// hash, set index and tag of each line.
    ///
    /// ```
    /// use pc_cache::{CacheGeometry, DdioMode, Hierarchy, PhysAddr, WalkOrder};
    /// let mut h = Hierarchy::new(CacheGeometry::tiny(), DdioMode::enabled());
    /// let addrs: Vec<PhysAddr> = (0..4u64).map(|i| PhysAddr::new(i << 10)).collect();
    /// let walk = h.llc().decode_walk(&addrs);
    /// let primed = h.run_walk(&walk, WalkOrder::Forward);
    /// assert_eq!(primed.hits, 0);
    /// let probed = h.run_walk(&walk, WalkOrder::Reverse);
    /// assert_eq!(probed.hits, 4, "nothing evicted the primed lines");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `walk` was decoded for a different geometry.
    pub fn run_walk(&mut self, walk: &DecodedWalk, order: WalkOrder) -> TraceSummary {
        assert_eq!(
            walk.geometry(),
            self.llc.geometry(),
            "walk decoded for another cache geometry"
        );
        let allocates = self.llc.mode().allocates_in_llc();
        let mut sum = TraceSummary::default();
        match order {
            WalkOrder::Forward => {
                for line in walk.lines() {
                    self.step(allocates, line, AccessKind::CpuRead, 0, &mut sum);
                }
            }
            WalkOrder::Reverse => {
                for line in walk.lines().rev() {
                    self.step(allocates, line, AccessKind::CpuRead, 0, &mut sum);
                }
            }
        }
        self.absorb(&sum);
        sum
    }

    /// [`Hierarchy::step`] for an op: decodes its address first.
    #[inline(always)]
    fn step_op(&mut self, allocates: bool, op: CacheOp, sum: &mut TraceSummary) {
        let line = self.llc.decode(op.addr);
        self.step(allocates, line, op.kind, op.lead, sum);
    }

    /// The fast path's one step, shared by every replay and by
    /// [`OpApplier`]: the access to a decoded line, its DRAM traffic and
    /// its lead + latency, accumulated into `sum` rather than the
    /// hierarchy. Every replay hoists the latency rule's loop-invariant
    /// mode input (`allocates`) and keeps the summary a local, so the
    /// per-op accumulators stay in registers and fold into the
    /// hierarchy once. Always inlined: left to the inliner it stayed
    /// out of line, and the loop's accumulators went through memory on
    /// every access.
    #[inline(always)]
    fn step(
        &mut self,
        allocates: bool,
        line: Line,
        kind: AccessKind,
        lead: Cycles,
        sum: &mut TraceSummary,
    ) {
        let out = self.llc.access_at(line, kind);
        sum.accesses += 1;
        sum.hits += u64::from(out.hit);
        sum.dram_reads += u64::from(out.dram_reads);
        sum.dram_writes += u64::from(out.dram_writes);
        sum.cycles += lead + self.lat.access_latency(out.hit, kind, allocates);
    }

    /// Folds a fast-path summary's clock motion and DRAM traffic into
    /// the hierarchy.
    fn absorb(&mut self, sum: &TraceSummary) {
        self.clock += sum.cycles;
        self.mem.reads += sum.dram_reads;
        self.mem.writes += sum.dram_writes;
    }
}

/// A streaming replay sink: applies each emitted op immediately through
/// the fast path's step, accumulating clock and memory traffic in the
/// applier and folding them into the hierarchy on drop.
///
/// This is the fast path for producers that emit a handful of ops at a
/// time (the NIC driver replays ~6 ops per frame): same results as
/// emitting into an [`OpBuffer`] and replaying it, and as issuing the
/// accesses one at a time, with neither the buffer round-trip of the
/// former nor the per-op statistics read-modify-write of the latter.
/// Nothing mid-stream can observe the clock — callers that need that
/// use the hierarchy itself as the sink.
pub struct OpApplier<'a> {
    h: &'a mut Hierarchy,
    allocates: bool,
    sum: TraceSummary,
}

impl Hierarchy {
    /// A streaming [`OpSink`] over this hierarchy (see [`OpApplier`]).
    /// Totals flush when the applier drops.
    pub fn applier(&mut self) -> OpApplier<'_> {
        OpApplier {
            allocates: self.llc.mode().allocates_in_llc(),
            sum: TraceSummary::default(),
            h: self,
        }
    }
}

impl OpSink for OpApplier<'_> {
    #[inline]
    fn op(&mut self, op: CacheOp) {
        self.h.step_op(self.allocates, op, &mut self.sum);
    }

    #[inline]
    fn advance(&mut self, cycles: Cycles) {
        self.sum.cycles += cycles;
    }
}

impl Drop for OpApplier<'_> {
    fn drop(&mut self) {
        // Fault site `dropped-flush`: the applier silently loses its
        // accumulated clock and memory deltas.
        if fault::fires(fault::FaultSite::DroppedFlush) {
            return;
        }
        self.h.absorb(&self.sum);
    }
}

/// The per-access replay path of the op-stream IR: each emitted op is
/// applied immediately (lead, then the access), each advance moves the
/// clock. Producers written against [`OpSink`] can therefore target the
/// hierarchy directly — the equivalence oracle for the fast path,
/// and the path to use when per-access latencies are needed mid-stream.
impl OpSink for Hierarchy {
    #[inline]
    fn op(&mut self, op: CacheOp) {
        self.clock += op.lead;
        self.run(op.addr, op.kind);
    }

    #[inline]
    fn advance(&mut self, cycles: Cycles) {
        Hierarchy::advance(self, cycles);
    }
}

/// The order [`Hierarchy::run_walk`] replays a decoded walk in.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum WalkOrder {
    /// First line to last: a prime.
    Forward,
    /// Last line to first: a probe, which re-primes as it goes (the
    /// classic zig-zag).
    Reverse,
}

/// Aggregate of a fast-path replay ([`Hierarchy::run_trace`],
/// [`Hierarchy::run_ops`], [`Hierarchy::run_walk`]).
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct TraceSummary {
    /// Ops replayed.
    pub accesses: u64,
    /// Ops that hit in the LLC.
    pub hits: u64,
    /// Cycles the clock advanced over the replay.
    pub cycles: Cycles,
    /// DRAM lines read.
    pub dram_reads: u64,
    /// DRAM lines written.
    pub dram_writes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(mode: DdioMode) -> Hierarchy {
        Hierarchy::new(CacheGeometry::tiny(), mode)
    }

    #[test]
    fn clock_advances_with_every_access() {
        let mut h = h(DdioMode::enabled());
        let t0 = h.now();
        h.cpu_read(PhysAddr::new(0x1000));
        let t1 = h.now();
        assert!(t1 > t0);
        h.advance(100);
        assert_eq!(h.now(), t1 + 100);
    }

    #[test]
    fn hit_is_faster_than_miss() {
        let mut h = h(DdioMode::enabled());
        let a = PhysAddr::new(0x3000);
        let miss = h.cpu_read(a);
        let hit = h.cpu_read(a);
        assert!(h.is_miss_latency(miss));
        assert!(!h.is_miss_latency(hit));
    }

    #[test]
    fn ddio_write_is_cache_speed_and_counts_no_dram() {
        let mut h = h(DdioMode::enabled());
        let lat = h.io_write(PhysAddr::new(0x5000));
        assert_eq!(lat, h.latencies().llc_hit);
        assert_eq!(h.memory_stats().total(), 0, "DDIO bypasses DRAM entirely");
    }

    #[test]
    fn non_ddio_write_hits_dram() {
        let mut h = h(DdioMode::Disabled);
        h.io_write(PhysAddr::new(0x5000));
        assert_eq!(h.memory_stats().writes, 1);
        // Subsequent CPU read demand-fetches from DRAM.
        h.cpu_read(PhysAddr::new(0x5000));
        assert_eq!(h.memory_stats().reads, 1);
    }

    #[test]
    fn reset_stats_clears_traffic() {
        let mut h = h(DdioMode::Disabled);
        h.io_write(PhysAddr::new(0x5000));
        h.reset_stats();
        assert_eq!(h.memory_stats().total(), 0);
        assert_eq!(h.llc().stats().total_accesses(), 0);
    }

    #[test]
    fn run_trace_matches_scalar_replay() {
        let ops: Vec<CacheOp> = (0..6000u64)
            .map(|i| {
                let kind = match i % 5 {
                    0 => AccessKind::IoWrite,
                    1 => AccessKind::CpuWrite,
                    2 => AccessKind::IoRead,
                    _ => AccessKind::CpuRead,
                };
                // A small deterministic lead on every 7th op: the replay
                // must move the clock by it exactly as an `advance` does.
                CacheOp::new(PhysAddr::new((i % 97) * 0x3040), kind).after((i % 7 == 0) as u64 * 11)
            })
            .collect();
        // Every mode: the latency rule differs per mode (DDIO-allocating
        // writes complete at cache speed), and both paths must agree.
        for mode in [
            DdioMode::Disabled,
            DdioMode::enabled(),
            DdioMode::adaptive(),
        ] {
            let mut scalar = h(mode);
            for &op in &ops {
                scalar.advance(op.lead);
                match op.kind {
                    AccessKind::CpuRead => scalar.cpu_read(op.addr),
                    AccessKind::CpuWrite => scalar.cpu_write(op.addr),
                    AccessKind::IoWrite => scalar.io_write(op.addr),
                    AccessKind::IoRead => scalar.io_read(op.addr),
                };
            }
            if matches!(mode, DdioMode::Adaptive(_)) {
                assert!(
                    scalar.llc().stats().defense_evals > 0,
                    "the trace must actually exercise adaptation"
                );
            }
            let mut batched = h(mode);
            let sum = batched.run_trace(ops.iter().copied());
            let s = batched.llc().stats();
            assert_eq!(sum.accesses, ops.len() as u64, "{mode:?}");
            assert_eq!(sum.hits, s.cpu_hits + s.io_hits, "{mode:?}");
            assert_eq!(sum.cycles, scalar.now(), "{mode:?}");
            assert_eq!(batched.now(), scalar.now(), "{mode:?}");
            assert_eq!(batched.memory_stats(), scalar.memory_stats(), "{mode:?}");
            // Per slice, so adaptation boundaries are pinned too.
            for slice in 0..batched.llc().geometry().slices() {
                assert_eq!(
                    batched.llc().slice_stats(slice),
                    scalar.llc().slice_stats(slice),
                    "{mode:?} slice={slice}"
                );
            }
            for &op in &ops {
                assert_eq!(
                    batched.llc().contains(op.addr),
                    scalar.llc().contains(op.addr)
                );
            }
        }
    }

    #[test]
    fn trace_replay_is_thread_count_invariant() {
        // The experiment-level fan-out replays independent hierarchies on
        // worker threads. The per-slice state must carry nothing
        // shared between hierarchies, so every replica leaves a
        // byte-identical state (summary, clock, memory traffic, LLC stats
        // per slice, residency) whatever the number of threads running
        // replicas side by side, in every mode including `Adaptive`.
        let ops: Vec<CacheOp> = (0..6000u64)
            .map(|i| {
                let kind = match i % 5 {
                    0 => AccessKind::IoWrite,
                    1 => AccessKind::CpuWrite,
                    2 => AccessKind::IoRead,
                    _ => AccessKind::CpuRead,
                };
                CacheOp::new(PhysAddr::new((i % 97) * 0x3040), kind).after((i % 7 == 0) as u64 * 11)
            })
            .collect();
        for mode in [
            DdioMode::Disabled,
            DdioMode::enabled(),
            DdioMode::adaptive(),
        ] {
            let mut seq = h(mode);
            let want = seq.run_trace(ops.iter().copied());
            if matches!(mode, DdioMode::Adaptive(_)) {
                assert!(
                    seq.llc().stats().defense_evals > 0,
                    "the trace must actually exercise adaptation"
                );
            }
            for threads in [2usize, 4, 16] {
                let replicas: Vec<(TraceSummary, Hierarchy)> = std::thread::scope(|s| {
                    let workers: Vec<_> = (0..threads)
                        .map(|_| {
                            s.spawn(|| {
                                let mut par = h(mode);
                                let sum = par.run_trace(ops.iter().copied());
                                (sum, par)
                            })
                        })
                        .collect();
                    workers.into_iter().map(|w| w.join().unwrap()).collect()
                });
                for (got, par) in &replicas {
                    assert_eq!(*got, want, "{mode:?} threads={threads}");
                    assert_eq!(par.now(), seq.now(), "{mode:?} threads={threads}");
                    assert_eq!(par.memory_stats(), seq.memory_stats(), "{mode:?}");
                    for slice in 0..par.llc().geometry().slices() {
                        assert_eq!(
                            par.llc().slice_stats(slice),
                            seq.llc().slice_stats(slice),
                            "{mode:?} threads={threads} slice={slice}"
                        );
                    }
                    for &op in &ops {
                        assert_eq!(par.llc().contains(op.addr), seq.llc().contains(op.addr));
                    }
                }
            }
        }
    }

    #[test]
    fn flush_all_counts_writebacks_as_memory_writes() {
        let mut h = h(DdioMode::enabled());
        h.cpu_write(PhysAddr::new(0x1000));
        h.cpu_write(PhysAddr::new(0x2000));
        let writes_before = h.memory_stats().writes;
        h.flush_all();
        assert!(!h.llc().contains(PhysAddr::new(0x1000)));
        assert_eq!(
            h.memory_stats().writes,
            writes_before + 2,
            "flushing dirty lines is DRAM write traffic"
        );
        assert_eq!(h.llc().stats().writebacks, 2);
    }

    #[test]
    fn miss_threshold_separates_latencies() {
        let lat = LatencyModel::server_defaults();
        assert!(lat.llc_hit < lat.miss_threshold());
        assert!(lat.dram >= lat.miss_threshold());
    }
}
