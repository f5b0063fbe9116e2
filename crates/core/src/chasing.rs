//! The online phase: chasing packets buffer-to-buffer.
//!
//! With the ring sequence recovered, the spy no longer probes 256 sets —
//! it probes only the *next expected buffer*, advancing on every
//! detection (§III-C, §IV-c). Each watched buffer has probes on the
//! first blocks of **both** half-pages, because `igb_can_reuse_rx_page`
//! flips large-frame buffers to the other half (§V) — but since the flip
//! rule is deterministic (frames above the 256-byte copybreak flip), the
//! spy *tracks* the armed half and probes only one half per sample,
//! halving its probe cost. A mispredicted half (page reallocation) shows
//! up as a timeout and self-corrects by peeking at the other half.

use crate::testbed::TestBed;
use pc_cache::{Cycles, Hierarchy, PhysAddr, SlicedCache};
use pc_nic::IgbDriver;
use pc_probe::{AddressPool, PrimeProbe};

/// Blocks probed per half-page: blocks 0..5. Block 4's set distinguishes
/// "exactly 4 blocks" (≤ copybreak, buffer reused in place) from
/// "5 or more" (> copybreak, the buffer flips halves).
pub const TRACKED_BLOCKS: usize = 5;

/// Size classes reported to the attack: 1, 2, 3 or 4 ("4 or more").
pub const WATCHED_BLOCKS: usize = 4;

/// How many ring slots ahead the spy scans for latched evidence when the
/// current buffer's marks were consumed by shared-set probes.
const FORWARD_SCAN: usize = 8;

/// One observed packet.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct PacketObservation {
    /// Position in the spy's ring sequence.
    pub ring_pos: usize,
    /// Detected size class: 1, 2, 3, or 4 (meaning "4 blocks or more").
    pub size_class: u8,
    /// Cycle of detection.
    pub at: Cycles,
}

/// Probes for one ring buffer: blocks 0..5 of each half-page.
#[derive(Clone, Debug)]
struct BufferProbes {
    halves: [Vec<PrimeProbe>; 2],
}

impl BufferProbes {
    fn prime_half(&self, h: &mut Hierarchy, half: usize) {
        for p in &self.halves[half] {
            p.prime(h);
        }
    }

    /// Cheap detection probe: blocks 0 and 1 only, reported separately so
    /// the caller can accumulate evidence across samples (a packet
    /// landing mid-probe splits its marks over two samples, and a shared
    /// set may have had one mark consumed by an earlier probe of another
    /// buffer).
    fn detect_bits(&self, h: &mut Hierarchy, half: usize) -> (bool, bool) {
        let b0 = self.halves[half][0].probe(h).activity();
        let b1 = self.halves[half][1].probe(h).activity();
        (b0, b1)
    }

    /// Strict single-sample detection: blocks 0 and 1 both fire (DMA plus
    /// the driver's unconditional second-block prefetch).
    fn detect_half(&self, h: &mut Hierarchy, half: usize) -> bool {
        let (b0, b1) = self.detect_bits(h, half);
        b0 && b1
    }

    /// Size probe, run once after a detection: blocks 2..5 were primed
    /// before the packet arrived and their evictions latch, so probing
    /// them now recovers the packet's top block.
    fn size_half(&self, h: &mut Hierarchy, half: usize) -> usize {
        let mut top = 1usize; // blocks 0 and 1 are known active
        for (b, p) in self.halves[half].iter().enumerate().skip(2) {
            if p.probe(h).activity() {
                top = b;
            }
        }
        top
    }

    /// Full probe of one half: detection plus size.
    fn sample_half(&self, h: &mut Hierarchy, half: usize) -> Option<usize> {
        if self.detect_half(h, half) {
            Some(self.size_half(h, half))
        } else {
            None
        }
    }
}

/// The chasing spy: follows the ring one buffer at a time.
#[derive(Clone, Debug)]
pub struct ChasingSpy {
    buffers: Vec<BufferProbes>,
    /// Which half-page each buffer is currently armed at, as predicted
    /// from the observed sizes.
    armed: Vec<u8>,
    pos: usize,
    out_of_syncs: u64,
    observed: u64,
    primed: bool,
    /// Samples the previous observation waited before detecting; used to
    /// judge whether the spy is ahead of the stream (then priming on
    /// arrival clears stale sharer noise) or behind it (then priming
    /// would erase the very evidence it needs).
    last_wait: usize,
}

impl ChasingSpy {
    /// Sets up probes for every ring buffer, in ring order.
    ///
    /// Uses oracle eviction sets for setup (the output of the offline
    /// phase: the attacker has already located every buffer's sets via
    /// §III-B/C; see `pc-probe` docs on the instrumentation boundary).
    /// The sets come from the pool's memo
    /// ([`AddressPool::memoized_oracle_sets`]): the first spy built on a
    /// pool pays for the walk, and later spies are lookups.
    pub fn for_ring(llc: &SlicedCache, pool: &AddressPool, driver: &IgbDriver) -> Self {
        let pages = driver.ring().page_addresses();
        ChasingSpy::for_pages(llc, pool, &pages)
    }

    /// Sets up probes for an explicit page list in ring order, from the
    /// pool's eviction-set memo: only targets no earlier spy on `pool`
    /// asked for are walked.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is empty or the pool is too small (see
    /// [`AddressPool::memoized_oracle_sets`]).
    pub fn for_pages(llc: &SlicedCache, pool: &AddressPool, pages: &[PhysAddr]) -> Self {
        assert!(!pages.is_empty(), "spy needs at least one buffer to chase");
        let threshold = pc_cache::LatencyModel::server_defaults().miss_threshold();
        // Every buffer's targets in one memo call, so the targets it
        // must still walk share one walk over the pool: blocks
        // 0..TRACKED_BLOCKS of each half-page, buffer by buffer, lower
        // half first.
        const HALVES: [u64; 2] = [0, 32];
        let targets: Vec<_> = pages
            .iter()
            .flat_map(|page| {
                HALVES.into_iter().flat_map(move |half_start| {
                    (0..TRACKED_BLOCKS as u64).map(move |b| page.add_blocks(half_start + b))
                })
            })
            .map(|line| llc.locate(line))
            .collect();
        let mut probes = pool
            .memoized_oracle_sets(llc, &targets)
            .into_iter()
            .map(|s| PrimeProbe::new(s, threshold));
        let buffers: Vec<BufferProbes> = pages
            .iter()
            .map(|_| BufferProbes {
                halves: HALVES.map(|_| probes.by_ref().take(TRACKED_BLOCKS).collect()),
            })
            .collect();
        let armed = vec![0u8; buffers.len()];
        ChasingSpy {
            buffers,
            armed,
            pos: 0,
            out_of_syncs: 0,
            observed: 0,
            primed: false,
            last_wait: usize::MAX,
        }
    }

    /// Primes every buffer's probes (both halves). Run this *before* the
    /// traffic of interest starts — it walks a couple of thousand
    /// eviction sets, which takes simulated milliseconds.
    pub fn prime_all(&mut self, tb: &mut TestBed) {
        for b in &self.buffers {
            b.prime_half(tb.hierarchy_mut(), 0);
            b.prime_half(tb.hierarchy_mut(), 1);
        }
        self.primed = true;
    }

    /// Ring length being chased.
    pub fn ring_len(&self) -> usize {
        self.buffers.len()
    }

    /// Current position in the ring sequence.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Times the spy lost the packet stream and had to resynchronize.
    pub fn out_of_syncs(&self) -> u64 {
        self.out_of_syncs
    }

    /// Packets observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Waits for a packet on the *current* buffer, probing every
    /// `interval` cycles, for at most `max_samples` samples.
    ///
    /// On detection, advances to the next buffer and returns the
    /// observation. On timeout, counts an out-of-sync event and returns
    /// `None` — the spy *stays* on this buffer, because the only way to
    /// resynchronize with a stream that has moved on is to "wait until
    /// completion of the whole ring, or the next time a packet fills
    /// that buffer" (§IV-c); the caller decides how long to wait. Before
    /// giving up, the spy peeks at the buffer's other half-page in case
    /// its flip tracking went stale (page reallocation).
    pub fn observe_next(
        &mut self,
        tb: &mut TestBed,
        interval: Cycles,
        max_samples: usize,
    ) -> Option<PacketObservation> {
        if !self.primed {
            self.prime_all(tb);
        }
        let half = usize::from(self.armed[self.pos]);
        // When the spy is comfortably ahead of the stream (the previous
        // packet took 2+ probe intervals to show up), re-priming on
        // arrival clears any stale sharer noise that accumulated over
        // the last ring pass. When it is running *behind*, the packet's
        // eviction evidence is already latched — priming would erase it,
        // so the spy consumes it instead.
        if self.last_wait >= 2 {
            self.buffers[self.pos].prime_half(tb.hierarchy_mut(), half);
        }
        let probes = &self.buffers[self.pos];
        let (mut seen0, mut seen1) = probes.detect_bits(tb.hierarchy_mut(), half);
        if seen0 && seen1 {
            let top = probes.size_half(tb.hierarchy_mut(), half);
            self.last_wait = 0;
            return Some(self.record(top, tb.now()));
        }
        for wait in 1..=max_samples {
            let next = tb.now() + interval;
            tb.advance_to(next);
            let (a0, a1) = probes.detect_bits(tb.hierarchy_mut(), half);
            seen0 |= a0;
            seen1 |= a1;
            if seen0 && seen1 {
                let top = probes.size_half(tb.hierarchy_mut(), half);
                self.last_wait = wait;
                return Some(self.record(top, tb.now()));
            }
        }
        if seen0 || seen1 {
            // One mark without the other: the twin mark was consumed by
            // an earlier probe of a buffer sharing this cache set (or
            // lost to noise). One-sided evidence is still far more likely
            // a packet than not — accept it rather than stall the chase.
            let top = probes.size_half(tb.hierarchy_mut(), half).max(1);
            self.last_wait = max_samples;
            return Some(self.record(top, tb.now()));
        }
        // Timeout: peek at the other half once — a missed large packet
        // or a reallocation leaves the spy watching the wrong half.
        let other = half ^ 1;
        if let Some(top) = probes.sample_half(tb.hierarchy_mut(), other) {
            self.armed[self.pos] = other as u8;
            self.last_wait = max_samples;
            return Some(self.record(top, tb.now()));
        }
        // This buffer's marks may have been wholly consumed by earlier
        // probes of buffers sharing its sets. If the stream really moved
        // on, the *following* buffers hold latched evidence — scan a few
        // slots ahead and resume there rather than waiting out a lap.
        self.out_of_syncs += 1;
        for j in 1..=FORWARD_SCAN {
            let p = (self.pos + j) % self.buffers.len();
            let half = usize::from(self.armed[p]);
            let (a0, a1) = self.buffers[p].detect_bits(tb.hierarchy_mut(), half);
            if a0 || a1 {
                self.pos = p;
                let top = self.buffers[p].size_half(tb.hierarchy_mut(), half).max(1);
                self.last_wait = 0;
                return Some(self.record(top, tb.now()));
            }
        }
        // Keep waiting on the same buffer without erasing evidence: the
        // retry must catch the ring coming back around.
        self.last_wait = 0;
        None
    }

    /// Books one detection: updates flip tracking, advances the ring
    /// position.
    fn record(&mut self, top_block: usize, at: Cycles) -> PacketObservation {
        // Block 4 active ⇒ ≥5 blocks ⇒ over the copybreak ⇒ the driver
        // flips this buffer to its other half.
        if top_block >= TRACKED_BLOCKS - 1 {
            self.armed[self.pos] ^= 1;
        }
        let size_class = ((top_block + 1).min(WATCHED_BLOCKS)) as u8;
        let obs = PacketObservation {
            ring_pos: self.pos,
            size_class,
            at,
        };
        self.pos = (self.pos + 1) % self.buffers.len();
        self.observed += 1;
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::{TestBed, TestBedConfig};
    use pc_net::{ArrivalSchedule, ConstantSize, CyclingSizes, EthernetFrame, LineRate};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_ring_bed(ring: usize, seed: u64) -> TestBed {
        let mut cfg = TestBedConfig::paper_baseline().with_seed(seed);
        cfg.driver.ring_size = ring;
        TestBed::new(cfg)
    }

    #[test]
    fn chases_a_steady_stream() {
        let mut tb = small_ring_bed(8, 21);
        let pool = AddressPool::allocate(91, 16384);
        let mut spy = ChasingSpy::for_ring(tb.hierarchy().llc(), &pool, tb.driver());
        let mut rng = SmallRng::seed_from_u64(2);
        let frames = ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(20_000)
            .generate(
                &mut ConstantSize::blocks(3),
                tb.now() + 50_000,
                40,
                &mut rng,
            );
        tb.enqueue(frames);
        let mut seen = 0;
        for _ in 0..40 {
            if let Some(obs) = spy.observe_next(&mut tb, 20_000, 40) {
                assert_eq!(obs.size_class, 3);
                seen += 1;
            }
        }
        assert!(seen >= 35, "spy observed only {seen}/40 packets");
        assert!(spy.out_of_syncs() <= 5);
    }

    #[test]
    fn size_classes_follow_frame_sizes() {
        let mut tb = small_ring_bed(4, 22);
        let pool = AddressPool::allocate(92, 16384);
        let mut spy = ChasingSpy::for_ring(tb.hierarchy().llc(), &pool, tb.driver());
        let mut rng = SmallRng::seed_from_u64(3);
        let mut gen = CyclingSizes::new(vec![
            EthernetFrame::with_blocks(3),
            EthernetFrame::with_blocks(4),
        ]);
        let frames = ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(10_000)
            .generate(&mut gen, tb.now() + 50_000, 20, &mut rng);
        tb.enqueue(frames);
        let mut classes = Vec::new();
        for _ in 0..20 {
            if let Some(obs) = spy.observe_next(&mut tb, 20_000, 60) {
                classes.push(obs.size_class);
            }
        }
        assert!(classes.len() >= 16, "too few observations: {classes:?}");
        let threes = classes.iter().filter(|&&c| c == 3).count();
        let fours = classes.iter().filter(|&&c| c == 4).count();
        assert!(threes + fours >= classes.len() - 2, "noise in {classes:?}");
        assert!(threes > 0 && fours > 0);
    }

    #[test]
    fn large_frames_flip_tracking_keeps_up() {
        // MTU frames flip the buffer's half-page on every packet; the spy
        // must keep observing across flips.
        let mut tb = small_ring_bed(4, 24);
        let pool = AddressPool::allocate(94, 16384);
        let mut spy = ChasingSpy::for_ring(tb.hierarchy().llc(), &pool, tb.driver());
        let mut rng = SmallRng::seed_from_u64(5);
        let frames = ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(10_000)
            .generate(
                &mut ConstantSize::new(EthernetFrame::mtu_sized()),
                tb.now() + 50_000,
                24,
                &mut rng,
            );
        tb.enqueue(frames);
        let mut seen = 0;
        for _ in 0..24 {
            if let Some(obs) = spy.observe_next(&mut tb, 20_000, 60) {
                assert_eq!(obs.size_class, 4, "MTU frames report class 4+");
                seen += 1;
            }
        }
        assert!(seen >= 18, "spy lost track across flips: {seen}/24");
    }

    #[test]
    fn timeout_counts_out_of_sync_and_stays_put() {
        let mut tb = small_ring_bed(4, 23);
        let pool = AddressPool::allocate(93, 16384);
        let mut spy = ChasingSpy::for_ring(tb.hierarchy().llc(), &pool, tb.driver());
        // No traffic at all: every observation times out.
        for _ in 0..3 {
            assert!(spy.observe_next(&mut tb, 10_000, 5).is_none());
        }
        assert_eq!(spy.out_of_syncs(), 3);
        assert_eq!(spy.observed(), 0);
        assert_eq!(spy.position(), 0, "spy must wait on the same buffer");
    }
}
