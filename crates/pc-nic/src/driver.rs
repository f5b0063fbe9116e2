//! The IGB driver receive path, replayed as per-frame op streams.

use crate::alloc::PageAllocator;
use crate::ring::{RxRing, HALF_PAGE_BYTES, RX_BUFFER_BLOCKS};
use pc_cache::{CacheOp, Cycles, Hierarchy, OpSink, PhysAddr};
use pc_net::EthernetFrame;
use rand::rngs::SmallRng;
use rand::Rng;

/// Software mitigation knob: when (if ever) the driver re-randomizes its
/// ring buffers (paper §VI-b and Figure 16).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub enum RandomizeMode {
    /// Vulnerable baseline: buffers are allocated once and reused forever.
    #[default]
    Off,
    /// "Fully Randomized Ring Buffer": a fresh page for every packet.
    EveryPacket,
    /// "Partial Randomization": reallocate the whole ring every `n`
    /// packets (the paper evaluates 1 k and 10 k).
    EveryNPackets(u64),
}

/// The IGB hardware's descriptor cap: rings beyond 4096 descriptors
/// do not exist, and `DriverConfig` validation (on construction)
/// enforces it.
pub const MAX_RING_DESCRIPTORS: usize = 4096;

/// Driver tuning and modelling knobs.
#[derive(Copy, Clone, Debug)]
pub struct DriverConfig {
    /// Descriptors in the rx ring: a power of two, at most
    /// [`MAX_RING_DESCRIPTORS`]. IGB default: 256 (max 4096).
    pub ring_size: usize,
    /// Copybreak (`IGB_RX_HDR_LEN`): frames at or below this are memcpy'd
    /// and the buffer reused as-is. Default 256 bytes.
    pub copybreak: u32,
    /// Model the driver's unconditional prefetch of the buffer's second
    /// cache block (the Figure 8 anomaly). Default true.
    pub prefetch_second_block: bool,
    /// Header-to-payload delay in cycles for large frames when DDIO is
    /// off (paper cites < 20 k cycles for ~100 % of packets).
    pub header_to_payload_delay: Cycles,
    /// Fixed per-packet driver overhead in cycles (descriptor handling,
    /// skb bookkeeping).
    pub per_packet_overhead: Cycles,
    /// Cost in cycles of allocating a fresh buffer and rewriting its rx
    /// descriptor through coherent (write-barrier) memory — paid by the
    /// randomization defenses.
    pub realloc_cost: Cycles,
    /// Ring randomization defense mode.
    pub randomize: RandomizeMode,
}

impl DriverConfig {
    /// The paper's setup: 256 descriptors, 256-byte copybreak, prefetch
    /// quirk on, no defenses.
    pub fn paper_defaults() -> Self {
        DriverConfig {
            ring_size: 256,
            copybreak: 256,
            prefetch_second_block: true,
            header_to_payload_delay: 18_000,
            per_packet_overhead: 300,
            realloc_cost: 1_500,
            randomize: RandomizeMode::Off,
        }
    }

    /// Emits the memory traffic of one received frame into `sink` — the
    /// producer half of the driver's op-stream pipeline:
    ///
    /// 1. the NIC's DMA write of each arriving cache block;
    /// 2. the per-packet overhead, then the driver's header read and
    ///    unconditional second-block prefetch;
    /// 3. for frames at or below the copybreak (`small`), the memcpy's
    ///    source reads.
    ///
    /// One emitter, two paths — they cannot diverge: streamed through
    /// [`Hierarchy::applier`] this is [`IgbDriver::receive`]; emitted
    /// into a [`Hierarchy`] directly it *is* the per-access oracle
    /// ([`IgbDriver::receive_scalar`]).
    pub fn emit_frame_ops(
        &self,
        buffer_addr: PhysAddr,
        blocks: u32,
        small: bool,
        sink: &mut impl OpSink,
    ) {
        // 1. NIC DMA: one write per cache block of the frame.
        for b in 0..blocks {
            sink.op(CacheOp::io_write(buffer_addr.add_blocks(u64::from(b))));
        }
        // 2. Driver picks the frame up: reads the header...
        sink.advance(self.per_packet_overhead);
        sink.op(CacheOp::read(buffer_addr));
        // ...and always prefetches the second block ("most Ethernet
        // packets have at least two blocks").
        if self.prefetch_second_block {
            sink.op(CacheOp::read(buffer_addr.add_blocks(1)));
        }
        // 3. Small frame: memcpy the payload out of the buffer now.
        if small {
            for b in 2..blocks {
                sink.op(CacheOp::read(buffer_addr.add_blocks(u64::from(b))));
            }
        }
    }

    /// How a frame lands in a ring buffer under this configuration:
    /// `(blocks, small)` — cache blocks occupied (truncated to the
    /// buffer) and whether the frame is at or below the copybreak.
    /// One definition shared by every receive path, so the
    /// classification cannot diverge from what
    /// [`DriverConfig::emit_frame_ops`] replays.
    pub fn frame_shape(&self, frame: EthernetFrame) -> (u32, bool) {
        (
            frame.cache_blocks().min(RX_BUFFER_BLOCKS),
            frame.bytes() <= self.copybreak,
        )
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `ring_size` is zero, exceeds the IGB descriptor cap
    /// (4096), or is not a power of two (the hardware constraint the
    /// ring's wrap-around indexing assumes), or if `copybreak`
    /// exceeds a buffer.
    fn validate(&self) {
        assert!(self.ring_size > 0, "ring must have descriptors");
        assert!(
            self.ring_size <= MAX_RING_DESCRIPTORS,
            "ring size {} exceeds the IGB descriptor cap of {}",
            self.ring_size,
            MAX_RING_DESCRIPTORS
        );
        assert!(
            self.ring_size.is_power_of_two(),
            "ring size {} must be a power of two",
            self.ring_size
        );
        assert!(
            self.copybreak <= HALF_PAGE_BYTES,
            "copybreak exceeds buffer size"
        );
        if let RandomizeMode::EveryNPackets(n) = self.randomize {
            assert!(n > 0, "randomization interval must be non-zero");
        }
    }
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig::paper_defaults()
    }
}

/// What happened when one frame was received.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RxEvent {
    /// Ring descriptor index that was filled.
    pub buffer_index: usize,
    /// DMA target address of the buffer's first block.
    pub buffer_addr: PhysAddr,
    /// Cache blocks the frame occupied.
    pub blocks: u32,
    /// The buffer's page was reallocated (NUMA-remote, busy, or the
    /// randomization defense fired).
    pub reallocated: bool,
    /// The buffer flipped to the other half-page (large frame reuse).
    pub flipped: bool,
    /// CPU reads the networking stack will issue later (header-to-payload
    /// latency without DDIO); feed these to a
    /// [`crate::DeferredReads`] queue.
    pub deferred_reads: Vec<(Cycles, PhysAddr)>,
}

/// The driver model.
///
/// One `receive` call per frame replays, against the [`Hierarchy`]:
///
/// 1. the NIC's DMA writes of each arriving cache block (DDIO or memory
///    according to the hierarchy's [`pc_cache::DdioMode`]);
/// 2. the driver's header read and unconditional second-block prefetch;
/// 3. for small frames: the memcpy's source reads, then buffer reuse;
/// 4. for large frames: the fragment attach, the `igb_can_reuse_rx_page`
///    reuse-or-reallocate decision, and the half-page flip;
/// 5. the configured randomization defense, if any.
///
/// The memory traffic of steps 1–3 is *emitted* as a per-frame op
/// stream (the op-stream IR; see [`pc_cache::CacheOp`]) and replayed by
/// one of two byte-identical paths: [`IgbDriver::receive`] streams it
/// through [`Hierarchy::applier`] (the default), and
/// [`IgbDriver::receive_scalar`] applies it one access at a time — the
/// equivalence oracle the fast path is pinned against.
#[derive(Clone, Debug)]
pub struct IgbDriver {
    cfg: DriverConfig,
    ring: RxRing,
    alloc: PageAllocator,
    packets: u64,
    reallocations: u64,
    defense_overhead: Cycles,
}

impl IgbDriver {
    /// Initializes the driver: allocates the ring and arms every
    /// descriptor, exactly once — the buffers then live until a defense
    /// or NUMA condition replaces them.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: DriverConfig, mut alloc: PageAllocator, _rng: &mut SmallRng) -> Self {
        cfg.validate();
        let ring = RxRing::allocate(cfg.ring_size, &mut alloc);
        IgbDriver {
            cfg,
            ring,
            alloc,
            packets: 0,
            reallocations: 0,
            defense_overhead: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DriverConfig {
        &self.cfg
    }

    /// The rx ring (ground-truth instrumentation).
    pub fn ring(&self) -> &RxRing {
        &self.ring
    }

    /// Packets received so far.
    pub fn packets_received(&self) -> u64 {
        self.packets
    }

    /// Buffer reallocations performed (NUMA, busy pages, defenses).
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// Extra cycles spent in randomization defenses so far.
    pub fn defense_overhead_cycles(&self) -> Cycles {
        self.defense_overhead
    }

    /// Receives one frame into the next ring buffer, streaming its
    /// memory traffic through [`Hierarchy::applier`] (the driver's fast
    /// path: one pass, nothing buffered).
    ///
    /// Frames longer than a 2048-byte buffer are truncated to the buffer
    /// (jumbo handling is out of scope, as in the paper).
    pub fn receive(
        &mut self,
        h: &mut Hierarchy,
        frame: EthernetFrame,
        rng: &mut SmallRng,
    ) -> RxEvent {
        let idx = self.ring.advance();
        let buffer_addr = self.ring.buffer(idx).dma_addr();
        let (blocks, small) = self.cfg.frame_shape(frame);

        // Stream the frame's ops through the applier: one pass, totals
        // flushed when the sink drops (a frame is ~6 ops, too few
        // to be worth buffering).
        let mut sink = h.applier();
        self.cfg
            .emit_frame_ops(buffer_addr, blocks, small, &mut sink);
        drop(sink);

        self.finish_receive(h, rng, idx, buffer_addr, blocks, small)
    }

    /// [`IgbDriver::receive`] replayed access-by-access: the same emit
    /// code pointed at the hierarchy (which applies each op as it is
    /// emitted) instead of at the applier.
    ///
    /// This is the **equivalence oracle** for the streamed path — the two
    /// are byte-identical in ring state, statistics, clock and RNG
    /// stream (`tests/batch_equivalence.rs` pins it) — and the path for
    /// experiments that need to observe per-access latencies in the
    /// middle of a frame.
    pub fn receive_scalar(
        &mut self,
        h: &mut Hierarchy,
        frame: EthernetFrame,
        rng: &mut SmallRng,
    ) -> RxEvent {
        let idx = self.ring.advance();
        let buffer_addr = self.ring.buffer(idx).dma_addr();
        let (blocks, small) = self.cfg.frame_shape(frame);
        self.cfg.emit_frame_ops(buffer_addr, blocks, small, h);
        self.finish_receive(h, rng, idx, buffer_addr, blocks, small)
    }

    /// The non-emitting tail of a receive: deferred payload reads, the
    /// reuse/flip/reallocate decision and the randomization defense.
    /// Runs after the frame's ops have replayed (whichever path replayed
    /// them), so `h.now()` is the cycle the driver finished its reads.
    fn finish_receive(
        &mut self,
        h: &mut Hierarchy,
        rng: &mut SmallRng,
        idx: usize,
        buffer_addr: PhysAddr,
        blocks: u32,
        small: bool,
    ) -> RxEvent {
        let ddio = h.llc().mode().allocates_in_llc();
        let deferred_reads = if !small && !ddio {
            self.deferred_payload_reads(h.now(), buffer_addr, blocks)
        } else {
            Vec::new()
        };
        let (reallocated, flipped, defense_cost) = self.frame_disposition(rng, idx, small);
        if defense_cost > 0 {
            h.advance(defense_cost);
        }
        RxEvent {
            buffer_index: idx,
            buffer_addr,
            blocks,
            reallocated,
            flipped,
            deferred_reads,
        }
    }

    /// The deferred payload reads of one large frame when DDIO is off:
    /// the networking stack touches blocks 2.. a header-to-payload
    /// delay after `now` — the cycle the driver's header reads
    /// finished. (With DDIO the blocks are already in the LLC, so those
    /// reads are silent hits and nothing defers.) One definition shared
    /// by both receive paths, so the due-time model cannot diverge
    /// between them.
    fn deferred_payload_reads(
        &self,
        now: Cycles,
        buffer_addr: PhysAddr,
        blocks: u32,
    ) -> Vec<(Cycles, PhysAddr)> {
        let due = now + self.cfg.header_to_payload_delay;
        (2..blocks)
            .map(|b| (due, buffer_addr.add_blocks(u64::from(b))))
            .collect()
    }

    /// The buffer-management tail shared by every receive path: the
    /// reuse/flip/reallocate decision and the randomization defense.
    /// Touches only driver state and the RNG — never the hierarchy.
    /// Returns `(reallocated, flipped, defense_cost)`; the caller
    /// advances the clock by the cost.
    fn frame_disposition(
        &mut self,
        rng: &mut SmallRng,
        idx: usize,
        small: bool,
    ) -> (bool, bool, Cycles) {
        let mut reallocated = false;
        let mut flipped = false;
        if small {
            // "we can reuse buffer as-is, just make sure it is local"
            if self.ring.buffer(idx).page().remote {
                self.reallocate(idx);
                reallocated = true;
            }
        } else {
            // igb_can_reuse_rx_page: remote pages and pages still held by
            // the stack are not reused.
            let busy = rng.gen_bool(0.01); // page_count != 1: rare
            if self.ring.buffer(idx).page().remote || busy {
                self.reallocate(idx);
                reallocated = true;
            } else {
                self.ring.buffer_mut(idx).flip();
                flipped = true;
            }
        }
        let mut defense_cost = 0;
        match self.cfg.randomize {
            RandomizeMode::Off => {}
            RandomizeMode::EveryPacket => {
                self.reallocate(idx);
                self.defense_overhead += self.cfg.realloc_cost;
                defense_cost = self.cfg.realloc_cost;
                reallocated = true;
            }
            RandomizeMode::EveryNPackets(n) => {
                if (self.packets + 1).is_multiple_of(n) {
                    let cost = self.randomize_ring();
                    self.defense_overhead += cost;
                    defense_cost = cost;
                }
            }
        }
        self.packets += 1;
        (reallocated, flipped, defense_cost)
    }

    /// Replaces the page behind descriptor `idx` with a fresh one.
    fn reallocate(&mut self, idx: usize) {
        let old = self.ring.buffer(idx).page().base;
        let fresh = self.alloc.alloc_page();
        self.ring.buffer_mut(idx).replace_page(fresh);
        self.alloc.free_page(old);
        self.reallocations += 1;
    }

    /// Reallocates every descriptor (partial randomization tick),
    /// returning the modelled cost.
    fn randomize_ring(&mut self) -> Cycles {
        for idx in 0..self.ring.len() {
            self.reallocate(idx);
        }
        self.cfg.realloc_cost * self.ring.len() as Cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_cache::{CacheGeometry, DdioMode, Domain};
    use rand::SeedableRng;

    fn setup(mode: DdioMode) -> (Hierarchy, IgbDriver, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(3);
        let h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), mode);
        let drv = IgbDriver::new(
            DriverConfig::paper_defaults(),
            PageAllocator::new(17),
            &mut rng,
        );
        (h, drv, rng)
    }

    fn frame(bytes: u32) -> EthernetFrame {
        EthernetFrame::new(bytes).unwrap()
    }

    #[test]
    fn packets_fill_buffers_in_ring_order() {
        let (mut h, mut drv, mut rng) = setup(DdioMode::enabled());
        for i in 0..10 {
            let ev = drv.receive(&mut h, frame(64), &mut rng);
            assert_eq!(ev.buffer_index, i % drv.ring().len());
        }
        assert_eq!(drv.packets_received(), 10);
    }

    #[test]
    fn ddio_puts_frame_blocks_in_llc() {
        let (mut h, mut drv, mut rng) = setup(DdioMode::enabled());
        let ev = drv.receive(&mut h, frame(256), &mut rng);
        assert_eq!(ev.blocks, 4);
        for b in 0..4 {
            assert!(
                h.llc().contains(ev.buffer_addr.add_blocks(b)),
                "block {b} missing from LLC"
            );
        }
        assert!(ev.deferred_reads.is_empty(), "DDIO defers nothing");
    }

    #[test]
    fn one_block_frame_still_touches_block_one() {
        // Figure 8's anomaly: the driver prefetches block 1 regardless.
        let (mut h, mut drv, mut rng) = setup(DdioMode::enabled());
        let ev = drv.receive(&mut h, frame(64), &mut rng);
        assert_eq!(ev.blocks, 1);
        assert!(h.llc().contains(ev.buffer_addr.add_blocks(1)));
        // ...but not block 2.
        assert!(!h.llc().contains(ev.buffer_addr.add_blocks(2)));
    }

    #[test]
    fn small_frames_reuse_buffer_in_place() {
        let (mut h, mut drv, mut rng) = setup(DdioMode::enabled());
        let ev1 = drv.receive(&mut h, frame(128), &mut rng);
        assert!(!ev1.reallocated && !ev1.flipped);
        // Wrap all the way around the ring: the same buffer address
        // serves descriptor 0 again.
        for _ in 0..drv.ring().len() - 1 {
            drv.receive(&mut h, frame(128), &mut rng);
        }
        let ev2 = drv.receive(&mut h, frame(128), &mut rng);
        assert_eq!(ev2.buffer_index, ev1.buffer_index);
        assert_eq!(
            ev2.buffer_addr, ev1.buffer_addr,
            "small-frame buffers are stable"
        );
    }

    #[test]
    fn large_frames_flip_to_second_half_page() {
        let (mut h, mut drv, mut rng) = setup(DdioMode::enabled());
        let ev1 = drv.receive(&mut h, frame(1000), &mut rng);
        if ev1.flipped {
            let buf = drv.ring().buffer(ev1.buffer_index);
            assert_eq!(buf.page_offset(), HALF_PAGE_BYTES);
            assert_eq!(buf.dma_addr().block_in_page(), 32);
        }
    }

    #[test]
    fn no_ddio_defers_payload_reads() {
        let (mut h, mut drv, mut rng) = setup(DdioMode::Disabled);
        let ev = drv.receive(&mut h, frame(1514), &mut rng);
        assert!(!ev.deferred_reads.is_empty());
        for (at, _) in &ev.deferred_reads {
            assert!(*at + drv.config().header_to_payload_delay > h.now());
        }
        // Without DDIO the payload blocks are *not* in the LLC yet.
        assert!(!h.llc().contains(ev.buffer_addr.add_blocks(5)));
    }

    #[test]
    fn no_ddio_header_is_fetched_by_driver() {
        let (mut h, mut drv, mut rng) = setup(DdioMode::Disabled);
        let ev = drv.receive(&mut h, frame(1514), &mut rng);
        // The driver's header read demand-fetched block 0 into the LLC as
        // a CPU line.
        assert!(h.llc().contains(ev.buffer_addr));
        let ss = h.llc().locate(ev.buffer_addr);
        assert!(h.llc().domain_count(ss, Domain::Cpu) >= 1);
    }

    #[test]
    fn remote_pages_are_reallocated() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let alloc = PageAllocator::new(17).with_remote_probability(1.0);
        let mut drv = IgbDriver::new(DriverConfig::paper_defaults(), alloc, &mut rng);
        let ev = drv.receive(&mut h, frame(64), &mut rng);
        assert!(ev.reallocated, "remote page must not be reused");
        assert!(drv.reallocations() >= 1);
    }

    #[test]
    fn every_packet_randomization_changes_buffers() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let cfg = DriverConfig {
            randomize: RandomizeMode::EveryPacket,
            ..Default::default()
        };
        let mut drv = IgbDriver::new(cfg, PageAllocator::new(17), &mut rng);
        let before = drv.ring().buffer(0).page().base;
        drv.receive(&mut h, frame(64), &mut rng);
        let after = drv.ring().buffer(0).page().base;
        assert_ne!(before, after);
        assert!(drv.defense_overhead_cycles() > 0);
    }

    #[test]
    fn periodic_randomization_fires_on_schedule() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let cfg = DriverConfig {
            ring_size: 8,
            randomize: RandomizeMode::EveryNPackets(5),
            ..Default::default()
        };
        let mut drv = IgbDriver::new(cfg, PageAllocator::new(17), &mut rng);
        let before = drv.ring().page_addresses();
        for _ in 0..4 {
            drv.receive(&mut h, frame(64), &mut rng);
        }
        assert_eq!(drv.ring().page_addresses(), before, "not yet");
        drv.receive(&mut h, frame(64), &mut rng);
        assert_ne!(drv.ring().page_addresses(), before, "5th packet triggers");
    }

    #[test]
    fn oversized_frames_truncate_to_buffer() {
        let (mut h, mut drv, mut rng) = setup(DdioMode::enabled());
        let ev = drv.receive(&mut h, frame(1522), &mut rng);
        assert!(ev.blocks <= RX_BUFFER_BLOCKS);
    }

    #[test]
    #[should_panic(expected = "randomization interval")]
    fn zero_interval_rejected() {
        let mut rng = SmallRng::seed_from_u64(3);
        let cfg = DriverConfig {
            randomize: RandomizeMode::EveryNPackets(0),
            ..Default::default()
        };
        IgbDriver::new(cfg, PageAllocator::new(17), &mut rng);
    }

    #[test]
    #[should_panic(expected = "exceeds the IGB descriptor cap")]
    fn oversized_ring_rejected() {
        let mut rng = SmallRng::seed_from_u64(3);
        let cfg = DriverConfig {
            ring_size: 8192,
            ..Default::default()
        };
        IgbDriver::new(cfg, PageAllocator::new(17), &mut rng);
    }

    #[test]
    #[should_panic(expected = "must be a power of two")]
    fn non_power_of_two_ring_rejected() {
        let mut rng = SmallRng::seed_from_u64(3);
        let cfg = DriverConfig {
            ring_size: 192,
            ..Default::default()
        };
        IgbDriver::new(cfg, PageAllocator::new(17), &mut rng);
    }

    #[test]
    fn max_ring_size_is_accepted() {
        let mut rng = SmallRng::seed_from_u64(3);
        let cfg = DriverConfig {
            ring_size: MAX_RING_DESCRIPTORS,
            ..Default::default()
        };
        let drv = IgbDriver::new(cfg, PageAllocator::new(17), &mut rng);
        assert_eq!(drv.ring().len(), MAX_RING_DESCRIPTORS);
    }
}
