//! Kill test for the rx fault site: the bed's receive path is mutated
//! and a comparison against a hand-driven per-access reference must
//! notice.
//!
//! `dropped-deferred-read` (`pc_cache::fault`) loses one due payload
//! read in the deferred-read queue. The detector drives the same
//! arrival schedule through a `TestBed` and through a reference built
//! from the same parts (hierarchy, driver and RNG, seeded as the bed
//! seeds its queue 0). Per frame, the reference advances to the
//! arrival, calls `IgbDriver::receive_scalar` and runs
//! `DeferredReads::run_due`. The detector compares the *trajectory* —
//! clock, memory traffic, LLC statistics, records and residency after
//! every step — not just the end state: a dropped or reordered
//! deferred read shows up mid-flight. The cache is deliberately
//! minuscule (4 sets × 2 ways per slice) so reordering a single read
//! across a frame replay is almost surely visible in LRU state.
//!
//! The counter site fires once per arming, so exactly one of the two
//! machines loses a read. The no-fault run of the same detector is the
//! negative control: bed and reference must stay byte-identical,
//! pinning that the injection hook perturbs nothing — and doubling as
//! an equivalence regression over deferred-read-heavy traffic.

use pc_cache::fault::{self, FaultSite, FaultSpec};
use pc_cache::{CacheGeometry, Cycles, DdioMode, Hierarchy, SlicedCache};
use pc_core::{RxRecord, TestBed, TestBedConfig};
use pc_net::{EthernetFrame, ScheduledFrame};
use pc_nic::{DeferredReads, DriverConfig, IgbDriver, PageAllocator};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn config() -> TestBedConfig {
    TestBedConfig {
        // Tiny and 2-way: maximal conflict pressure, so any reordering
        // of the deferred payload reads perturbs LRU state.
        geometry: CacheGeometry::new(2, 2, 2),
        // Deferred reads only exist without DDIO.
        ddio: DdioMode::Disabled,
        driver: DriverConfig {
            // Small ring: buffers recycle quickly, so deferred reads
            // and later frames' DMA fight over the same lines.
            ring_size: 8,
            ..DriverConfig::paper_defaults()
        },
        ..TestBedConfig::no_ddio()
    }
    .with_seed(0x517e)
}

/// Burst period; each burst is observed in two detect steps (head and
/// tail, see [`schedule`]).
const BURST_PERIOD: u64 = 60_000;

/// Bursts of deferred-read-heavy traffic. Each burst puts `burst % 24`
/// zero-gap copybreak frames *before* its MTU frame — the frame that
/// defers its payload reads — so the payload due time lands at a
/// different offset in every burst. A small train then brackets the
/// due time (the MTU's emit end + 18 k, the driver default delay) at
/// ~900-cycle (one replay) spacing, so the 22 payload reads land
/// between specific train frames and any dropped or shifted read
/// changes what the train's DMA finds — near the *end* of the burst,
/// where the minuscule cache still remembers it at the next trajectory
/// check.
fn schedule() -> Vec<ScheduledFrame> {
    let mtu = EthernetFrame::new(1514).expect("legal size");
    let small = EthernetFrame::new(64).expect("legal size");
    let mut frames = Vec::new();
    let mut t = 1_000u64;
    for burst in 0..40u64 {
        let leading = burst % 24;
        for _ in 0..leading {
            frames.push(ScheduledFrame::new(t, small));
        }
        frames.push(ScheduledFrame::new(t, mtu));
        // The train starts ~5 k cycles before the payload due and runs
        // past it, one frame per replay cost.
        let emit_end = 900 * leading + 5_500;
        for j in 0..8u64 {
            frames.push(ScheduledFrame::new(t + emit_end + 12_800 + j * 900, small));
        }
        t += BURST_PERIOD;
    }
    frames
}

/// The hand-driven per-access reference: queue 0's parts, seeded as
/// the bed seeds them, driven frame by frame.
struct Reference {
    h: Hierarchy,
    driver: IgbDriver,
    rng: SmallRng,
    deferred: DeferredReads,
    pending: VecDeque<ScheduledFrame>,
    records: Vec<RxRecord>,
}

impl Reference {
    fn new(cfg: &TestBedConfig, frames: Vec<ScheduledFrame>) -> Self {
        let h = Hierarchy::with_llc(SlicedCache::new(cfg.geometry, cfg.ddio))
            .with_latencies(cfg.latencies);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let alloc = PageAllocator::new(cfg.seed ^ 0x5eed_1a7e);
        let driver = IgbDriver::new(cfg.driver, alloc, &mut rng);
        Reference {
            h,
            driver,
            rng,
            deferred: DeferredReads::new(),
            pending: frames.into(),
            records: Vec::new(),
        }
    }

    /// Per frame: advance to the arrival, receive per access, run due
    /// reads; then advance to `target` and run due reads once more.
    fn advance_to(&mut self, target: Cycles) {
        while self.pending.front().is_some_and(|f| f.at <= target) {
            let sf = self.pending.pop_front().expect("peeked");
            self.h.advance(sf.at.saturating_sub(self.h.now()));
            let ev = self
                .driver
                .receive_scalar(&mut self.h, sf.frame, &mut self.rng);
            self.deferred.extend(ev.deferred_reads);
            self.records.push(RxRecord {
                at: sf.at,
                buffer_index: ev.buffer_index,
                buffer_addr: ev.buffer_addr,
                blocks: ev.blocks,
            });
            self.deferred.run_due(&mut self.h);
        }
        self.h.advance(target.saturating_sub(self.h.now()));
        self.deferred.run_due(&mut self.h);
    }

    fn drain(&mut self) {
        if let Some(last_at) = self.pending.back().map(|f| f.at) {
            self.advance_to(last_at);
        }
        self.deferred.drain_all(&mut self.h);
    }
}

/// Residency of every block the records name, compared across both
/// machines.
fn residency_differs(records: &[RxRecord], a: &Hierarchy, b: &Hierarchy) -> Option<String> {
    for rec in records {
        for blk in 0..u64::from(rec.blocks) {
            let addr = rec.buffer_addr.add_blocks(blk);
            if a.llc().contains(addr) != b.llc().contains(addr) {
                return Some(format!("residency of {addr}"));
            }
        }
    }
    None
}

/// Drives the bed and the reference through the schedule in lockstep
/// and returns the first trajectory divergence, if any.
fn detect() -> Option<String> {
    let cfg = config();
    let frames = schedule();
    let end = frames.last().expect("nonempty").at + BURST_PERIOD;
    let mut bed = TestBed::new(cfg);
    bed.enqueue(frames.clone());
    let mut reference = Reference::new(&cfg, frames);
    // Two steps per burst: the head step (`+12 k`, before any due can
    // fall) delivers `[smalls…, MTU]`; the tail step delivers the
    // train, with the payload reads running between its frames.
    let mut steps = Vec::new();
    let mut burst_at = 1_000;
    while burst_at < end {
        steps.push(burst_at + 12_000);
        steps.push(burst_at + 52_000);
        burst_at += BURST_PERIOD;
    }
    for t in steps {
        bed.advance_to(t);
        reference.advance_to(t);
        if bed.now() != reference.h.now() {
            return Some(format!(
                "clock at step {t}: bed {} != reference {}",
                bed.now(),
                reference.h.now()
            ));
        }
        let (bh, rh) = (bed.hierarchy(), &reference.h);
        if bh.memory_stats() != rh.memory_stats() {
            return Some(format!("memory traffic at step {t}"));
        }
        if bh.llc().stats() != rh.llc().stats() {
            return Some(format!("LLC stats at step {t}"));
        }
        if bed.records() != reference.records {
            return Some(format!("receive records at step {t}"));
        }
        // Residency must be compared *mid-flight*: a reordered
        // deferred read perturbs LRU state in sets where every later
        // access is a forced miss (DMA invalidates first), so the
        // divergence never reaches the statistics and the recycling
        // ring eventually rewrites the evidence.
        if let Some(d) = residency_differs(bed.records(), bh, rh) {
            return Some(format!("{d} at step {t}"));
        }
    }
    bed.drain();
    reference.drain();
    if bed.records() != reference.records {
        return Some("receive records after drain".into());
    }
    if bed.driver().ring().page_addresses() != reference.driver.ring().page_addresses() {
        return Some("ring placement after drain".into());
    }
    residency_differs(bed.records(), bed.hierarchy(), &reference.h)
        .map(|d| format!("{d} after drain"))
}

/// `dropped-deferred-read` is the one fault site above the op-stream
/// engines.
#[test]
fn every_rx_fault_site_is_killed_for_every_seed() {
    let _g = serialized();
    let mut survivors = Vec::new();
    for seed in 0..3u64 {
        fault::arm(FaultSpec {
            site: FaultSite::DroppedDeferredRead,
            seed,
            nth: None,
        });
        let outcome = catch_unwind(AssertUnwindSafe(detect));
        let consultations = fault::consultations();
        fault::disarm();
        if matches!(outcome, Ok(None)) {
            survivors.push(format!(
                "dropped-deferred-read:{seed} survived ({consultations} consultations)"
            ));
        }
    }
    assert!(
        survivors.is_empty(),
        "surviving mutants:\n{}",
        survivors.join("\n")
    );
}

/// Negative control: no fault armed → the bed and the per-access
/// reference are byte-identical over the deferred-read-heavy schedule.
#[test]
fn bed_and_per_access_reference_agree_with_no_fault_armed() {
    let _g = serialized();
    fault::disarm();
    assert_eq!(detect(), None);
}
