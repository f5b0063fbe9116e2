//! The memory hierarchy facade: one cycle clock, one LLC, one memory
//! controller.
//!
//! Every crate in the reproduction talks to the machine through this
//! type: the NIC driver model issues `io_write`s for arriving packet
//! blocks, the spy issues `cpu_read`s to prime and probe, and the defense
//! workloads issue both. Latencies are returned *and* accumulated on the
//! shared clock, so interleaving (who runs when) falls out naturally.

use crate::addr::PhysAddr;
use crate::geometry::CacheGeometry;
use crate::llc::{AccessKind, DdioMode, SlicedCache};
use crate::memory::MemoryStats;
use crate::ops::{CacheOp, OpBuffer, OpSink};
use crate::Cycles;

/// How many ops ahead of the replay the inline [`Hierarchy::run_ops`]
/// walk hints each op's LLC row into the host cache. A paper-geometry
/// model is ≈ 4 MiB of host memory and a request's working-set reads
/// land on random sets, so nearly every access misses the host's L2;
/// 8 ops (≈ 0.5 µs of replay) covers an L3 or DRAM fetch. Distances 4
/// and 16 measured no better on Figure 16's load.
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
    /// entry points, the sequential trace replay and the sharded trace
    /// replay, so the paths cannot diverge.
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
    /// Reusable op scratch for [`Hierarchy::run_trace`]'s collect step,
    /// carried across calls like the cache's `TraceBins` — content never
    /// outlives one replay, so a clone starting empty is equivalent.
    scratch: Vec<CacheOp>,
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
            scratch: Vec::new(),
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
    /// per-access latencies — `PrimeProbe::prime` (and through it every
    /// monitor priming pass in the attack) replays its eviction set here
    /// — saving a call and two stat read-modify-writes per line.
    /// Per-access behaviour (RNG stream, adaptation timing, statistics)
    /// is identical to issuing the ops one at a time.
    ///
    /// A long trace is partitioned by slice inside worker threads and
    /// replayed sharded (one shard group per worker; `PC_BENCH_THREADS`
    /// bounds the pool, `=1` forces the sequential walk) — in **every**
    /// [`DdioMode`], `Adaptive` included, because each slice's
    /// adaptation period runs off that slice's own access-count defense
    /// clock rather than the outcome-dependent cycle clock. The
    /// summary, statistics and final clock are byte-identical for any
    /// worker count.
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
        let ops = ops.into_iter();
        // The dominant caller is `PrimeProbe::prime` with a handful of
        // ops per call: when the trace provably cannot shard (one slice,
        // or a known-short iterator) stream it straight through, without
        // copying it into the scratch first — at that call rate the copy
        // would cost as much as the replay.
        let short = matches!(ops.size_hint(), (_, Some(hi)) if hi < crate::llc::PAR_BATCH_MIN);
        if short || self.llc.geometry().slices() <= 1 {
            return self.run_trace_sequential(ops, |_, _| {});
        }
        // Collect into the reusable scratch (capacity carried across
        // calls; taken out for the duration so the borrow of `self`
        // stays free for the replay).
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend(ops);
        let sum = self.run_trace_threads(&scratch, pc_par::max_threads());
        // Restore the scratch emptied: capacity is what gets reused, and
        // a clone of the hierarchy should not memcpy stale ops.
        scratch.clear();
        self.scratch = scratch;
        sum
    }

    /// [`Hierarchy::run_trace`] with an explicit worker bound, for
    /// callers that must pin the count instead of reading
    /// `PC_BENCH_THREADS` (thread-invariance tests, benches) or that
    /// replay a borrowed trace repeatedly. Results are byte-identical
    /// for every `threads` value; short traces still replay inline.
    pub fn run_trace_threads(&mut self, ops: &[CacheOp], threads: usize) -> TraceSummary {
        if self.llc.batch_worth_sharding(ops.len(), threads) {
            // Leads are input data, independent of the replay outcome:
            // total clock movement is sum(leads) + sum(latencies) in any
            // order, so they are summed here once and the workers never
            // see them.
            let lead: Cycles = ops.iter().map(|op| op.lead).sum();
            let mut sum = self.llc.trace_batch_threads(ops, threads, self.lat);
            sum.cycles += lead;
            self.clock += sum.cycles;
            self.mem.reads += sum.dram_reads;
            self.mem.writes += sum.dram_writes;
            return sum;
        }
        self.run_trace_sequential(ops.iter().copied(), |_, _| {})
    }

    /// Replays a recorded op batch: the ops through the trace engine
    /// (sharded where legal), then the buffer's trailing advance.
    ///
    /// This is the entry point behind every emit-then-replay producer
    /// (the NIC driver's per-frame batches, the defense workloads'
    /// chunked inner loops): emit into an [`OpBuffer`], call `run_ops`,
    /// get byte-identical results to issuing the same ops one at a time
    /// against the hierarchy — which is exactly what pointing the emit
    /// code at the hierarchy itself (it implements [`OpSink`]) does.
    ///
    /// A buffer below the sharding threshold (every Workbench request
    /// behind Figures 14–16) replays inline, and that walk prefetches:
    /// before op *i* it decodes op *i* + 8's line address from the
    /// buffer and hints that op's `(slice, set)` row — line words, LRU
    /// stamps, set record — into the host's L1. The hint touches no
    /// simulated state, so accesses, their order, statistics and RNG
    /// draws are exactly the unhinted walk's.
    pub fn run_ops(&mut self, buf: &OpBuffer) -> TraceSummary {
        let mut sum = if buf.len() < crate::llc::PAR_BATCH_MIN {
            self.run_trace_sequential(buf.iter(), |llc, i| {
                if let Some(addr) = buf.line_addr(i + PREFETCH_DISTANCE) {
                    llc.prefetch(addr);
                }
            })
        } else {
            // Sharding wants a contiguous slice; decode the packed words
            // into the trace scratch once, then fan out.
            let mut scratch = std::mem::take(&mut self.scratch);
            scratch.clear();
            scratch.extend(buf.iter());
            let sum = self.run_trace_threads(&scratch, pc_par::max_threads());
            scratch.clear();
            self.scratch = scratch;
            sum
        };
        // Trailing advance plus any segment-mark carries: a marked
        // buffer replays identically whether or not the caller asks for
        // subtotals.
        let advances = buf.trailing() + buf.carry_total();
        self.clock += advances;
        sum.cycles += advances;
        sum
    }

    /// [`Hierarchy::run_ops`] for callers that discard the summary (the
    /// NIC driver replays a handful of ops per frame at millions of
    /// calls per experiment): identical replay, clock and statistics,
    /// no per-op aggregate bookkeeping.
    pub fn apply_ops(&mut self, buf: &OpBuffer) {
        if buf.len() >= crate::llc::PAR_BATCH_MIN {
            let mut scratch = std::mem::take(&mut self.scratch);
            scratch.clear();
            scratch.extend(buf.iter());
            self.run_trace_threads(&scratch, pc_par::max_threads());
            scratch.clear();
            self.scratch = scratch;
        } else {
            let _engine = crate::fault::engine_scope(crate::fault::Engine::Batch);
            let allocates = self.llc.mode().allocates_in_llc();
            let mut clock = self.clock;
            let mut reads = 0u64;
            let mut writes = 0u64;
            for op in buf.iter() {
                let out = self.llc.access(op.addr, op.kind);
                reads += u64::from(out.dram_reads);
                writes += u64::from(out.dram_writes);
                clock += op.lead + self.lat.access_latency(out.hit, op.kind, allocates);
            }
            self.clock = clock;
            self.mem.reads += reads;
            self.mem.writes += writes;
        }
        self.clock += buf.trailing() + buf.carry_total();
    }

    /// Replays a segment-marked op batch (see
    /// [`OpBuffer::mark_segment`]), additionally reporting one
    /// [`TraceSummary`] per segment, in mark order, into `seg_out`.
    ///
    /// Segment subtotals partition the whole replay: each op's lead and
    /// latency land in its segment, each mark's carry and the buffer's
    /// trailing advance land in the segment they close, so the
    /// subtotals' cycles sum to exactly the unsegmented replay's clock
    /// motion. Cache behaviour, statistics and the final clock are
    /// byte-identical to [`Hierarchy::run_ops`] on the same buffer —
    /// segmentation is pure reporting. This is what lets the windowed
    /// receive engine replay an arbitrarily long fused window first and
    /// reconstruct every frame's clock after the fact: the determinism
    /// contract makes outcomes clock-independent, and the subtotals
    /// recover where the clock *would* have stood at every segment
    /// boundary.
    ///
    /// A buffer with no marks reports one segment spanning everything.
    pub fn run_ops_segmented(
        &mut self,
        buf: &OpBuffer,
        seg_out: &mut Vec<TraceSummary>,
    ) -> TraceSummary {
        seg_out.clear();
        let mut spans = buf.segment_spans();
        if spans.is_empty() {
            spans.push((0, buf.len(), buf.trailing()));
        }
        let threads = pc_par::max_threads();
        let total = if self.llc.batch_worth_sharding(buf.len(), threads) {
            let mut scratch = std::mem::take(&mut self.scratch);
            scratch.clear();
            scratch.extend(buf.iter());
            let total = self.run_trace_threads_segmented(&scratch, &spans, threads, seg_out);
            scratch.clear();
            self.scratch = scratch;
            total
        } else {
            self.run_trace_sequential_segmented(buf.iter(), &spans, seg_out)
        };
        // Fault site `swapped-segment-subtotal`: the segmented replay
        // reports keyed neighbouring segments' cycle subtotals in the
        // wrong order. The total (and so the final clock) is unchanged —
        // only a consumer that *reconstructs* per-segment clocks (the
        // windowed receive engine's gap max, deferred-read dues) can
        // notice, which is exactly the invariant the site guards.
        for k in 0..seg_out.len().saturating_sub(1) {
            if crate::fault::fires_keyed(crate::fault::FaultSite::SwappedSegmentSubtotal, k as u64)
            {
                let (a, b) = (seg_out[k].cycles, seg_out[k + 1].cycles);
                seg_out[k].cycles = b;
                seg_out[k + 1].cycles = a;
            }
        }
        total
    }

    /// Segment-reporting variant of [`Hierarchy::run_trace_threads`] for
    /// borrowed traces: `starts` are ascending segment start indices
    /// (`starts[0] == 0`), and one [`TraceSummary`] per segment lands in
    /// `seg_out`. Replay, statistics and final clock are byte-identical
    /// to the unsegmented call; the monitor uses this to classify many
    /// probe targets from one fused batch.
    pub fn run_trace_segmented(
        &mut self,
        ops: &[CacheOp],
        starts: &[usize],
        seg_out: &mut Vec<TraceSummary>,
    ) -> TraceSummary {
        seg_out.clear();
        let spans: Vec<(usize, usize, Cycles)> = starts
            .iter()
            .enumerate()
            .map(|(k, &start)| {
                let end = starts.get(k + 1).copied().unwrap_or(ops.len());
                (start, end, 0)
            })
            .collect();
        let threads = pc_par::max_threads();
        if self.llc.batch_worth_sharding(ops.len(), threads) {
            self.run_trace_threads_segmented(ops, &spans, threads, seg_out)
        } else {
            self.run_trace_sequential_segmented(ops.iter().copied(), &spans, seg_out)
        }
    }

    /// The sequential arm of the segmented replays: one walk with a
    /// span cursor, closing each segment (and spending its tail advance)
    /// as the ops pass its end.
    fn run_trace_sequential_segmented<I>(
        &mut self,
        ops: I,
        spans: &[(usize, usize, Cycles)],
        seg_out: &mut Vec<TraceSummary>,
    ) -> TraceSummary
    where
        I: Iterator<Item = CacheOp>,
    {
        let _engine = crate::fault::engine_scope(crate::fault::Engine::Batch);
        let allocates = self.llc.mode().allocates_in_llc();
        let mut cur = TraceSummary::default();
        let mut seg = 0usize;
        for (idx, op) in ops.enumerate() {
            while seg < spans.len() && idx >= spans[seg].1 {
                cur.cycles += spans[seg].2;
                seg_out.push(cur);
                cur = TraceSummary::default();
                seg += 1;
            }
            let out = self.llc.access(op.addr, op.kind);
            let latency = self.lat.access_latency(out.hit, op.kind, allocates);
            cur.accesses += 1;
            cur.hits += u64::from(out.hit);
            cur.cycles += op.lead + latency;
            cur.dram_reads += u64::from(out.dram_reads);
            cur.dram_writes += u64::from(out.dram_writes);
        }
        while seg < spans.len() {
            cur.cycles += spans[seg].2;
            seg_out.push(cur);
            cur = TraceSummary::default();
            seg += 1;
        }
        let mut total = TraceSummary::default();
        for sum in seg_out.iter() {
            total.merge(sum);
        }
        self.clock += total.cycles;
        self.mem.reads += total.dram_reads;
        self.mem.writes += total.dram_writes;
        total
    }

    /// The sharded arm of the segmented replays: per-segment latency
    /// summaries from the sliced engine, then leads and tail advances
    /// folded in per segment (outcome-independent input data, exactly as
    /// in [`Hierarchy::run_trace_threads`]).
    fn run_trace_threads_segmented(
        &mut self,
        ops: &[CacheOp],
        spans: &[(usize, usize, Cycles)],
        threads: usize,
        seg_out: &mut Vec<TraceSummary>,
    ) -> TraceSummary {
        let starts: Vec<usize> = spans.iter().map(|&(start, _, _)| start).collect();
        self.llc
            .trace_batch_threads_segmented(ops, &starts, threads, self.lat, seg_out);
        let mut seg = 0usize;
        for (idx, op) in ops.iter().enumerate() {
            while seg + 1 < starts.len() && idx >= starts[seg + 1] {
                seg += 1;
            }
            seg_out[seg].cycles += op.lead;
        }
        for (sum, &(_, _, tail)) in seg_out.iter_mut().zip(spans) {
            sum.cycles += tail;
        }
        let mut total = TraceSummary::default();
        for sum in seg_out.iter() {
            total.merge(sum);
        }
        self.clock += total.cycles;
        self.mem.reads += total.dram_reads;
        self.mem.writes += total.dram_writes;
        total
    }

    /// The clock-advancing sequential walk shared by every `run_trace`
    /// path that doesn't shard. `ahead(llc, i)` runs before op `i`
    /// replays — the inline `run_ops` prefetch; every other caller
    /// passes a no-op, which compiles away.
    fn run_trace_sequential<I, F>(&mut self, ops: I, mut ahead: F) -> TraceSummary
    where
        I: Iterator<Item = CacheOp>,
        F: FnMut(&SlicedCache, usize),
    {
        let _engine = crate::fault::engine_scope(crate::fault::Engine::Batch);
        let mut sum = TraceSummary::default();
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut clock = self.clock;
        // The latency rule's mode input is loop-invariant; hoist it so
        // the per-op work is the access and a few adds.
        let allocates = self.llc.mode().allocates_in_llc();
        for (i, op) in ops.enumerate() {
            ahead(&self.llc, i);
            let out = self.llc.access(op.addr, op.kind);
            reads += u64::from(out.dram_reads);
            writes += u64::from(out.dram_writes);
            let latency = self.lat.access_latency(out.hit, op.kind, allocates);
            clock += op.lead + latency;
            sum.accesses += 1;
            sum.hits += u64::from(out.hit);
            sum.cycles += op.lead + latency;
        }
        self.clock = clock;
        self.mem.reads += reads;
        self.mem.writes += writes;
        sum.dram_reads = reads;
        sum.dram_writes = writes;
        sum
    }
}

/// A streaming replay sink: applies each emitted op immediately with
/// the batch engine's lean loop body — the DDIO-mode input of the
/// latency rule hoisted at construction, clock and memory traffic
/// accumulated in locals and flushed into the hierarchy on drop.
///
/// This is the op-stream IR's third engine, for producers whose batch
/// is too small to shard (the NIC driver replays ~6 ops per frame):
/// same results as emitting into an [`OpBuffer`] and replaying it, and
/// as issuing the accesses one at a time, with neither the buffer
/// round-trip of the former nor the per-op statistics read-modify-write
/// of the latter. Nothing mid-stream can observe the clock — callers
/// that need that use the hierarchy itself as the sink.
pub struct OpApplier<'a> {
    h: &'a mut Hierarchy,
    allocates: bool,
    clock: Cycles,
    reads: u64,
    writes: u64,
    /// Tags the applier's thread as the streaming engine for the whole
    /// applier lifetime (inert unless a fault is armed).
    _engine: crate::fault::EngineScope,
}

impl Hierarchy {
    /// A streaming [`OpSink`] over this hierarchy (see [`OpApplier`]).
    /// Totals flush when the applier drops.
    pub fn applier(&mut self) -> OpApplier<'_> {
        let allocates = self.llc.mode().allocates_in_llc();
        OpApplier {
            allocates,
            clock: 0,
            reads: 0,
            writes: 0,
            _engine: crate::fault::engine_scope(crate::fault::Engine::Streaming),
            h: self,
        }
    }
}

impl OpSink for OpApplier<'_> {
    #[inline]
    fn op(&mut self, op: CacheOp) {
        let out = self.h.llc.access(op.addr, op.kind);
        self.reads += u64::from(out.dram_reads);
        self.writes += u64::from(out.dram_writes);
        self.clock += op.lead + self.h.lat.access_latency(out.hit, op.kind, self.allocates);
    }

    #[inline]
    fn advance(&mut self, cycles: Cycles) {
        self.clock += cycles;
    }
}

impl Drop for OpApplier<'_> {
    fn drop(&mut self) {
        // Fault site `dropped-flush`: the streaming engine silently
        // loses one applier's accumulated clock and memory deltas.
        if crate::fault::fires(crate::fault::FaultSite::DroppedFlush) {
            return;
        }
        self.h.clock += self.clock;
        self.h.mem.reads += self.reads;
        self.h.mem.writes += self.writes;
    }
}

/// The per-access replay path of the op-stream IR: each emitted op is
/// applied immediately (lead, then the access), each advance moves the
/// clock. Producers written against [`OpSink`] can therefore target the
/// hierarchy directly — the equivalence oracle for the batched paths,
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

/// Aggregate of a [`Hierarchy::run_trace`] replay.
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

impl TraceSummary {
    /// Accumulates another summary into this one, field by field.
    #[inline]
    pub fn merge(&mut self, other: &TraceSummary) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.cycles += other.cycles;
        self.dram_reads += other.dram_reads;
        self.dram_writes += other.dram_writes;
    }
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
        let ops: Vec<CacheOp> = (0..300u64)
            .map(|i| {
                let kind = match i % 5 {
                    0 => AccessKind::IoWrite,
                    1 => AccessKind::CpuWrite,
                    2 => AccessKind::IoRead,
                    _ => AccessKind::CpuRead,
                };
                CacheOp::new(PhysAddr::new((i % 41) * 0x2040), kind)
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
            let mut cycles = 0u64;
            for &op in &ops {
                let t0 = scalar.now();
                match op.kind {
                    AccessKind::CpuRead => scalar.cpu_read(op.addr),
                    AccessKind::CpuWrite => scalar.cpu_write(op.addr),
                    AccessKind::IoWrite => scalar.io_write(op.addr),
                    AccessKind::IoRead => scalar.io_read(op.addr),
                };
                cycles += scalar.now() - t0;
            }
            let mut batched = h(mode);
            let sum = batched.run_trace(ops.iter().copied());
            let s = batched.llc().stats();
            assert_eq!(sum.accesses, ops.len() as u64, "{mode:?}");
            assert_eq!(sum.hits, s.cpu_hits + s.io_hits, "{mode:?}");
            assert_eq!(sum.cycles, cycles, "{mode:?}");
            assert_eq!(batched.now(), scalar.now(), "{mode:?}");
            assert_eq!(batched.memory_stats(), scalar.memory_stats(), "{mode:?}");
            assert_eq!(batched.llc().stats(), scalar.llc().stats(), "{mode:?}");
        }
    }

    #[test]
    fn sharded_trace_replay_is_thread_count_invariant() {
        // A trace long enough to take the sharded path must leave the
        // hierarchy in a byte-identical state (summary, clock, memory
        // traffic, LLC stats — per slice, so adaptation boundaries are
        // pinned too — and residency) for every worker count, in every
        // mode including `Adaptive`.
        let ops: Vec<CacheOp> = (0..6000u64)
            .map(|i| {
                let kind = match i % 5 {
                    0 => AccessKind::IoWrite,
                    1 => AccessKind::CpuWrite,
                    2 => AccessKind::IoRead,
                    _ => AccessKind::CpuRead,
                };
                // A small deterministic lead on every 7th op: the
                // sharded replay must account leads identically to the
                // sequential walk.
                CacheOp::new(PhysAddr::new((i % 97) * 0x3040), kind).after((i % 7 == 0) as u64 * 11)
            })
            .collect();
        for mode in [
            DdioMode::Disabled,
            DdioMode::enabled(),
            DdioMode::adaptive(),
        ] {
            let mut seq = h(mode);
            let want = seq.run_trace_threads(&ops, 1);
            if matches!(mode, DdioMode::Adaptive(_)) {
                assert!(
                    seq.llc().stats().defense_evals > 0,
                    "the trace must actually exercise adaptation"
                );
            }
            for threads in [2usize, 4, 16] {
                let mut par = h(mode);
                let got = par.run_trace_threads(&ops, threads);
                assert_eq!(got, want, "{mode:?} threads={threads}");
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

    /// The segmented replay is pure reporting: same outcomes, clock,
    /// stats as `run_ops`, subtotals that partition the total exactly,
    /// and thread-count invariance of the per-segment summaries.
    #[test]
    fn segmented_replay_matches_unsegmented_and_is_thread_invariant() {
        use crate::ops::OpSink;
        let marks = [0usize, 1, 13, 900, 4096, 4097, 5000, 5999];
        let mut buf = OpBuffer::new();
        let mut next_mark = 0;
        for i in 0..6000u64 {
            if next_mark < marks.len() && marks[next_mark] == i as usize {
                buf.mark_segment();
                next_mark += 1;
            }
            let kind = match i % 5 {
                0 => AccessKind::IoWrite,
                1 => AccessKind::CpuWrite,
                2 => AccessKind::IoRead,
                _ => AccessKind::CpuRead,
            };
            buf.op(CacheOp::new(PhysAddr::new((i % 97) * 0x3040), kind)
                .after((i % 7 == 0) as u64 * 11));
            if i % 1000 == 999 {
                // Becomes a carry when a mark follows (i == 4999), a
                // folded lead otherwise — both attributions must agree
                // with the unsegmented walk.
                buf.advance(123);
            }
        }
        buf.advance(77);
        buf.mark_segment(); // empty trailing segment, carry 77
        assert_eq!(buf.segments(), marks.len() + 1);
        for mode in [
            DdioMode::Disabled,
            DdioMode::enabled(),
            DdioMode::adaptive(),
        ] {
            let mut plain = h(mode);
            let want = plain.run_ops(&buf);
            let mut seq = h(mode);
            let mut segs = Vec::new();
            let spans = buf.segment_spans();
            let got = seq.run_trace_sequential_segmented(buf.iter(), &spans, &mut segs);
            assert_eq!(got, want, "{mode:?}");
            assert_eq!(seq.now(), plain.now(), "{mode:?}");
            assert_eq!(seq.memory_stats(), plain.memory_stats(), "{mode:?}");
            assert_eq!(seq.llc().stats(), plain.llc().stats(), "{mode:?}");
            let mut fold = TraceSummary::default();
            for sum in &segs {
                fold.merge(sum);
            }
            assert_eq!(fold, got, "{mode:?}: subtotals partition the replay");
            let ops: Vec<CacheOp> = buf.iter().collect();
            for threads in [2usize, 4, 16] {
                let mut par = h(mode);
                let mut psegs = Vec::new();
                let ptotal = par.run_trace_threads_segmented(&ops, &spans, threads, &mut psegs);
                assert_eq!(ptotal, got, "{mode:?} threads={threads}");
                assert_eq!(psegs, segs, "{mode:?} threads={threads}");
                assert_eq!(par.now(), seq.now(), "{mode:?} threads={threads}");
                assert_eq!(par.memory_stats(), seq.memory_stats(), "{mode:?}");
                assert_eq!(par.llc().stats(), seq.llc().stats(), "{mode:?}");
            }
            // The public entry point (whichever arm it picks) agrees too.
            let mut auto = h(mode);
            let mut asegs = Vec::new();
            assert_eq!(auto.run_ops_segmented(&buf, &mut asegs), got, "{mode:?}");
            assert_eq!(asegs, segs, "{mode:?}");
        }
    }

    /// `run_trace_segmented` (borrowed trace + explicit starts) agrees
    /// with `run_trace` and reports per-segment hit/miss splits — the
    /// aggregates the monitor's fused cross-epoch sample consumes.
    #[test]
    fn trace_segmented_reports_per_segment_aggregates() {
        let ops: Vec<CacheOp> = (0..5000u64)
            .map(|i| CacheOp::read(PhysAddr::new((i % 61) * 0x5040)))
            .collect();
        let starts = [0usize, 1000, 1000, 2500, 4999];
        let mut plain = h(DdioMode::enabled());
        let want = plain.run_trace(ops.iter().copied());
        let mut seg = h(DdioMode::enabled());
        let mut segs = Vec::new();
        let got = seg.run_trace_segmented(&ops, &starts, &mut segs);
        assert_eq!(got, want);
        assert_eq!(seg.now(), plain.now());
        assert_eq!(segs.len(), starts.len());
        assert_eq!(segs[1], TraceSummary::default(), "empty segment");
        let mut fold = TraceSummary::default();
        for sum in &segs {
            fold.merge(sum);
        }
        assert_eq!(fold, got);
        assert_eq!(segs[0].accesses, 1000);
        assert_eq!(segs[4].accesses, 1);
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
