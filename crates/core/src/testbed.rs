//! The simulated machine the attack runs on: hierarchy + driver +
//! scheduled arrivals, all sharing one clock.
//!
//! ## Per-frame delivery
//!
//! The bed receives one packet at a time, as the paper's IGB driver
//! does (§III-A). For every arrival it advances the clock to the
//! frame's arrival time (a backlogged frame is processed as soon as the
//! previous one finishes), calls [`IgbDriver::receive`], and then runs
//! the deferred payload reads that have fallen due. The frame's memory
//! traffic streams through the hierarchy as one op batch;
//! [`IgbDriver::receive_scalar`] replays the same ops one access at a
//! time and is the oracle the bed is tested against. Each
//! [`TestBed::advance_to`] call returns with every delivered frame's
//! traffic applied, so a monitor sampling between calls (the
//! `footprint::watch` loop) always observes a synchronized machine.

use pc_cache::{CacheGeometry, Cycles, DdioMode, Hierarchy, LatencyModel, PhysAddr};
use pc_net::ScheduledFrame;
use pc_nic::{DeferredReads, DriverConfig, IgbDriver, PageAllocator, RssConfig};
use pc_par::{stream_seed, SeedDomain};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Receive telemetry: how many delivery calls ([`TestBed::advance_to`],
/// [`TestBed::deliver_due`] or [`TestBed::drain`]) delivered at least
/// one frame — a *window* — and how many frames they delivered. Read by
/// benchmarks, never printed on stdout.
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct WindowStats {
    /// Delivery calls that delivered at least one frame.
    pub windows: u64,
    /// Frames delivered by those calls.
    pub frames: u64,
}

/// Everything needed to stand up a [`TestBed`].
#[derive(Copy, Clone, Debug)]
pub struct TestBedConfig {
    /// LLC shape (default: the paper's Xeon E5-2660).
    pub geometry: CacheGeometry,
    /// DDIO mode under test.
    pub ddio: DdioMode,
    /// Driver configuration (ring size, copybreak, defenses…).
    pub driver: DriverConfig,
    /// Component latencies.
    pub latencies: LatencyModel,
    /// Master seed for the bed's stochastic pieces (page placement,
    /// driver decisions).
    pub seed: u64,
    /// Rx queue count: RSS spreads flows over this many independent
    /// rings / driver streams (1 — the default — is the pre-RSS
    /// single-ring model; legacy all-zero flows always land on
    /// queue 0, whatever the count).
    pub rss_queues: usize,
}

impl TestBedConfig {
    /// The paper's vulnerable baseline: DDIO on, stock IGB driver, one
    /// rx queue (§III-A). A constant: other queue counts come from
    /// [`TestBedConfig::with_queues`].
    pub fn paper_baseline() -> Self {
        TestBedConfig {
            geometry: CacheGeometry::xeon_e5_2660(),
            ddio: DdioMode::enabled(),
            driver: DriverConfig::paper_defaults(),
            latencies: LatencyModel::server_defaults(),
            seed: 0x9ac4e7,
            rss_queues: 1,
        }
    }

    /// Same machine with DDIO disabled (§IV-d / §V "without DDIO").
    pub fn no_ddio() -> Self {
        TestBedConfig {
            ddio: DdioMode::Disabled,
            ..TestBedConfig::paper_baseline()
        }
    }

    /// Same machine under the adaptive partitioning defense (§VII).
    pub fn adaptive_defense() -> Self {
        TestBedConfig {
            ddio: DdioMode::adaptive(),
            ..TestBedConfig::paper_baseline()
        }
    }

    /// Replaces the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the rx queue count (builder style).
    pub fn with_queues(mut self, rss_queues: usize) -> Self {
        self.rss_queues = rss_queues;
        self
    }
}

impl Default for TestBedConfig {
    fn default() -> Self {
        TestBedConfig::paper_baseline()
    }
}

/// Ground-truth record of one received frame.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct RxRecord {
    /// Cycle the NIC received the frame (its scheduled arrival time —
    /// pure input data; a backlogged frame is *processed* later than
    /// this).
    pub at: Cycles,
    /// Ring descriptor index it landed in.
    pub buffer_index: usize,
    /// DMA address of the buffer's first block.
    pub buffer_addr: PhysAddr,
    /// Cache blocks written.
    pub blocks: u32,
}

/// One rx queue's private slice of the NIC: its ring / driver, the
/// deferred payload reads it owes, and its driver RNG stream. Queue 0
/// runs on the bed's legacy base-seed streams; queues `1..` derive
/// theirs through [`SeedDomain::Queue`], so adding queues never
/// perturbs queue 0 and a queue count of 1 is byte-identical to the
/// pre-RSS single-ring model.
#[derive(Clone, Debug)]
struct RxQueue {
    driver: IgbDriver,
    deferred: DeferredReads,
    rng: SmallRng,
}

/// The victim machine: one hierarchy, one or more rx queues (each its
/// own NIC ring, driver streams and deferred payload reads), a queue
/// of future frame arrivals, and the RSS steer that assigns each
/// arrival's flow to a queue.
///
/// The spy and the experiments drive time forward through
/// [`TestBed::advance_to`] and probe through
/// [`TestBed::hierarchy_mut`]; frames scheduled with
/// [`TestBed::enqueue`] are delivered one at a time whenever the clock
/// passes their arrival time (see the module docs).
///
/// ## Multi-queue delivery order
///
/// Steering picks *which queue's state* a frame advances; it never
/// reorders processing. Frames process in global arrival order, and
/// wherever queues synchronize at one clock — after each frame and at
/// the end of every delivery call — their due deferred reads run in
/// **queue index order**, the documented merge rule that makes
/// multi-queue runs byte-identical across thread counts.
#[derive(Clone, Debug)]
pub struct TestBed {
    h: Hierarchy,
    rss: RssConfig,
    queues: Vec<RxQueue>,
    pending: VecDeque<ScheduledFrame>,
    records: Vec<RxRecord>,
    window_stats: WindowStats,
}

impl TestBed {
    /// The seeded machine parts: hierarchy and per-queue driver
    /// streams — one definition shared by [`TestBed::new`] and
    /// [`TestBed::reset`] so a reused bed can never drift from a
    /// freshly built one.
    fn build(cfg: &TestBedConfig) -> (Hierarchy, Vec<RxQueue>) {
        let llc = pc_cache::SlicedCache::new(cfg.geometry, cfg.ddio);
        let h = Hierarchy::with_llc(llc).with_latencies(cfg.latencies);
        let queues = (0..cfg.rss_queues)
            .map(|q| {
                // Queue 0 keeps the bed's historical streams exactly —
                // not `stream_seed(seed, Queue, 0)` — so every pre-RSS
                // golden replays unchanged at any queue count.
                let qseed = if q == 0 {
                    cfg.seed
                } else {
                    stream_seed(cfg.seed, SeedDomain::Queue, q as u64)
                };
                let mut rng = SmallRng::seed_from_u64(qseed);
                let alloc = PageAllocator::new(qseed ^ 0x5eed_1a7e);
                let driver = IgbDriver::new(cfg.driver, alloc, &mut rng);
                RxQueue {
                    driver,
                    deferred: DeferredReads::new(),
                    rng,
                }
            })
            .collect();
        (h, queues)
    }

    /// Builds the machine.
    pub fn new(cfg: TestBedConfig) -> Self {
        let (h, queues) = TestBed::build(&cfg);
        TestBed {
            h,
            rss: RssConfig::new(cfg.rss_queues, cfg.seed),
            queues,
            pending: VecDeque::new(),
            records: Vec::new(),
            window_stats: WindowStats::default(),
        }
    }

    /// Rebuilds this bed in place for `cfg`, behaviourally identical to
    /// `*self = TestBed::new(cfg)` but keeping the heap capacity of the
    /// bed's queues and record log. The fleet driver runs
    /// thousands of tenants per worker thread; resetting one bed per
    /// worker instead of building one per tenant keeps the per-tenant
    /// setup cost at clears rather than allocations.
    pub fn reset(&mut self, cfg: TestBedConfig) {
        let (h, queues) = TestBed::build(&cfg);
        self.h = h;
        self.rss = RssConfig::new(cfg.rss_queues, cfg.seed);
        self.queues = queues;
        self.pending.clear();
        self.records.clear();
        self.window_stats = WindowStats::default();
    }

    /// Current cycle.
    pub fn now(&self) -> Cycles {
        self.h.now()
    }

    /// The hierarchy, for the spy's probes.
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.h
    }

    /// Read-only hierarchy view.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.h
    }

    /// Queue 0's driver (ground-truth ring inspection; the only queue
    /// on single-queue beds). Other queues: [`TestBed::queue_driver`].
    pub fn driver(&self) -> &IgbDriver {
        &self.queues[0].driver
    }

    /// Queue `q`'s driver.
    ///
    /// # Panics
    ///
    /// Panics if `q >= queue_count()`.
    pub fn queue_driver(&self, q: usize) -> &IgbDriver {
        &self.queues[q].driver
    }

    /// Rx queues this bed models.
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// The RSS steering configuration assigning flows to queues.
    pub fn rss(&self) -> &RssConfig {
        &self.rss
    }

    /// Packets received summed over every queue (equals queue 0's
    /// [`IgbDriver::packets_received`] on single-queue beds).
    pub fn packets_received_total(&self) -> u64 {
        self.queues
            .iter()
            .map(|q| q.driver.packets_received())
            .sum()
    }

    /// This bed's receive telemetry (see [`WindowStats`]).
    pub fn window_stats(&self) -> &WindowStats {
        &self.window_stats
    }

    /// Ground-truth receive log: one record per received frame.
    pub fn records(&self) -> &[RxRecord] {
        &self.records
    }

    /// Frames still waiting to arrive.
    pub fn pending_frames(&self) -> usize {
        self.pending.len()
    }

    /// Queues future arrivals. Frames must be sorted by time; they are
    /// merged with whatever is already pending.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is not sorted by arrival time.
    pub fn enqueue(&mut self, frames: Vec<ScheduledFrame>) {
        assert!(
            frames.windows(2).all(|w| w[0].at <= w[1].at),
            "arrival stream must be sorted"
        );
        if self.pending.is_empty() {
            self.pending = frames.into();
        } else {
            let existing: Vec<ScheduledFrame> = self.pending.drain(..).collect();
            self.pending = pc_net::merge_schedules(existing, frames).into();
        }
    }

    /// Delivers every frame whose arrival time has passed and runs due
    /// deferred reads. Returns the number of frames delivered.
    ///
    /// Delivery advances the clock, which can make further frames due;
    /// the loop re-checks after every frame. Deferred reads run once,
    /// at the end.
    pub fn deliver_due(&mut self) -> usize {
        let mut delivered = 0;
        while let Some(front) = self.pending.front() {
            if front.at > self.h.now() {
                break;
            }
            let sf = self.pending.pop_front().expect("peeked");
            self.receive_now(sf);
            delivered += 1;
        }
        self.run_due_all();
        self.note_delivery(delivered);
        delivered
    }

    /// Runs every queue's due deferred reads, in **queue index
    /// order** — the documented merge rule wherever queues synchronize
    /// at one clock.
    fn run_due_all(&mut self) {
        for q in &mut self.queues {
            q.deferred.run_due(&mut self.h);
        }
    }

    /// Advances the clock to `target`, delivering arrivals on the way.
    /// (If the clock is already past `target` this only delivers due
    /// work.)
    pub fn advance_to(&mut self, target: Cycles) {
        let mut delivered = 0;
        while let Some(at) = self.pending.front().map(|f| f.at) {
            if at > target {
                break;
            }
            if at > self.h.now() {
                let gap = at - self.h.now();
                self.h.advance(gap);
            }
            let sf = self.pending.pop_front().expect("peeked");
            self.receive_now(sf);
            self.run_due_all();
            delivered += 1;
        }
        if target > self.h.now() {
            let gap = target - self.h.now();
            self.h.advance(gap);
        }
        self.run_due_all();
        self.note_delivery(delivered);
    }

    /// Runs until every queued frame has been delivered, then every
    /// deferred read.
    pub fn drain(&mut self) {
        if let Some(last_at) = self.pending.back().map(|f| f.at) {
            self.advance_to(last_at);
        }
        for q in &mut self.queues {
            q.deferred.drain_all(&mut self.h);
        }
    }

    /// Counts one delivery call in [`WindowStats`] when it delivered
    /// any frame.
    fn note_delivery(&mut self, frames: usize) {
        if frames > 0 {
            self.window_stats.windows += 1;
            self.window_stats.frames += frames as u64;
        }
    }

    /// Receives one frame at the current clock on the queue its flow
    /// steers to, filing its deferred reads and its record.
    fn receive_now(&mut self, sf: ScheduledFrame) {
        let qi = self.rss.steer(sf.flow);
        let queue = &mut self.queues[qi];
        let ev = queue.driver.receive(&mut self.h, sf.frame, &mut queue.rng);
        queue.deferred.extend(ev.deferred_reads.iter().copied());
        self.records.push(RxRecord {
            at: sf.at,
            buffer_index: ev.buffer_index,
            buffer_addr: ev.buffer_addr,
            blocks: ev.blocks,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_net::{ArrivalSchedule, ConstantSize, LineRate};

    fn bed() -> TestBed {
        TestBed::new(TestBedConfig::paper_baseline())
    }

    fn schedule(count: usize, start: u64) -> Vec<ScheduledFrame> {
        let mut rng = SmallRng::seed_from_u64(9);
        ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(100_000)
            .generate(&mut ConstantSize::blocks(3), start, count, &mut rng)
    }

    #[test]
    fn frames_deliver_when_clock_passes() {
        let mut tb = bed();
        tb.enqueue(schedule(10, 0));
        assert_eq!(tb.pending_frames(), 10);
        let last = 10 * pc_net::CPU_FREQ_HZ / 100_000 + 100_000;
        tb.advance_to(last);
        assert_eq!(tb.pending_frames(), 0);
        assert_eq!(tb.records().len(), 10);
        assert_eq!(tb.driver().packets_received(), 10);
    }

    #[test]
    fn partial_advance_delivers_partially() {
        let mut tb = bed();
        let frames = schedule(10, 0);
        let t5 = frames[4].at;
        tb.enqueue(frames);
        tb.advance_to(t5);
        assert_eq!(tb.records().len(), 5);
        assert_eq!(tb.pending_frames(), 5);
    }

    #[test]
    fn drain_delivers_everything() {
        let mut tb = bed();
        tb.enqueue(schedule(25, 1_000_000));
        tb.drain();
        assert_eq!(tb.pending_frames(), 0);
        assert_eq!(tb.records().len(), 25);
    }

    #[test]
    fn records_follow_ring_order() {
        let mut tb = bed();
        tb.enqueue(schedule(8, 0));
        tb.drain();
        for (i, r) in tb.records().iter().enumerate() {
            assert_eq!(r.buffer_index, i);
            assert_eq!(r.blocks, 3);
        }
    }

    #[test]
    fn records_carry_arrival_times() {
        let mut tb = bed();
        let frames = schedule(8, 0);
        let ats: Vec<Cycles> = frames.iter().map(|f| f.at).collect();
        tb.enqueue(frames);
        tb.drain();
        let got: Vec<Cycles> = tb.records().iter().map(|r| r.at).collect();
        assert_eq!(got, ats, "RxRecord.at is the scheduled arrival cycle");
    }

    #[test]
    fn enqueue_merges_sorted_streams() {
        let mut tb = bed();
        tb.enqueue(schedule(5, 0));
        tb.enqueue(schedule(5, 7_777));
        let times: Vec<u64> = tb.pending.iter().map(|f| f.at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(tb.pending_frames(), 10);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_enqueue_panics() {
        let mut tb = bed();
        let mut frames = schedule(3, 0);
        frames.reverse();
        tb.enqueue(frames);
    }

    /// A machine's observable state: records, hierarchy and queues.
    type Parts<'a> = (&'a [RxRecord], &'a Hierarchy, &'a [RxQueue]);

    fn parts(tb: &TestBed) -> Parts<'_> {
        (&tb.records, &tb.h, &tb.queues)
    }

    /// Compares two machines field by field: records, clock, statistics,
    /// and every queue's ring pages and RNG stream.
    fn assert_parts_identical(a: Parts<'_>, b: Parts<'_>, what: &str) {
        let ((ra, ha, qa), (rb, hb, qb)) = (a, b);
        assert_eq!(ra, rb, "{what}: records");
        assert_eq!(ha.now(), hb.now(), "{what}: clock");
        assert_eq!(ha.llc().stats(), hb.llc().stats(), "{what}: llc stats");
        assert_eq!(ha.memory_stats(), hb.memory_stats(), "{what}: memory stats");
        assert_eq!(qa.len(), qb.len(), "{what}: queue count");
        for (qi, (qa, qb)) in qa.iter().zip(qb).enumerate() {
            assert_eq!(
                qa.driver.ring().page_addresses(),
                qb.driver.ring().page_addresses(),
                "{what}: queue {qi} ring pages"
            );
            assert_eq!(qa.rng, qb.rng, "{what}: queue {qi} RNG stream");
        }
    }

    /// Compares two beds field by field after identical driving.
    fn assert_beds_identical(a: &TestBed, b: &TestBed, what: &str) {
        assert_parts_identical(parts(a), parts(b), what);
    }

    /// The hand-driven per-access reference: the bed's own machine
    /// parts, driven frame by frame through
    /// [`IgbDriver::receive_scalar`] by none of the bed's delivery code.
    struct Reference {
        h: Hierarchy,
        rss: RssConfig,
        queues: Vec<RxQueue>,
        pending: VecDeque<ScheduledFrame>,
        records: Vec<RxRecord>,
    }

    impl Reference {
        fn new(cfg: TestBedConfig) -> Self {
            let (h, queues) = TestBed::build(&cfg);
            Reference {
                h,
                rss: RssConfig::new(cfg.rss_queues, cfg.seed),
                queues,
                pending: VecDeque::new(),
                records: Vec::new(),
            }
        }

        fn parts(&self) -> Parts<'_> {
            (&self.records, &self.h, &self.queues)
        }

        fn run_due(&mut self) {
            for q in &mut self.queues {
                q.deferred.run_due(&mut self.h);
            }
        }

        /// Receives the front frame at the current clock, per access.
        fn receive_front(&mut self) {
            let sf = self.pending.pop_front().expect("a frame is pending");
            let q = &mut self.queues[self.rss.steer(sf.flow)];
            let ev = q.driver.receive_scalar(&mut self.h, sf.frame, &mut q.rng);
            q.deferred.extend(ev.deferred_reads);
            self.records.push(RxRecord {
                at: sf.at,
                buffer_index: ev.buffer_index,
                buffer_addr: ev.buffer_addr,
                blocks: ev.blocks,
            });
        }

        fn advance_to(&mut self, target: Cycles) {
            while let Some(at) = self.pending.front().map(|f| f.at) {
                if at > target {
                    break;
                }
                self.h.advance(at.saturating_sub(self.h.now()));
                self.receive_front();
                self.run_due();
            }
            self.h.advance(target.saturating_sub(self.h.now()));
            self.run_due();
        }

        fn deliver_due(&mut self) {
            while self.pending.front().is_some_and(|f| f.at <= self.h.now()) {
                self.receive_front();
            }
            self.run_due();
        }

        fn drain(&mut self) {
            if let Some(last_at) = self.pending.back().map(|f| f.at) {
                self.advance_to(last_at);
            }
            for q in &mut self.queues {
                q.deferred.drain_all(&mut self.h);
            }
        }
    }

    #[test]
    fn bed_matches_the_per_access_reference() {
        // Mixed frame sizes over many flows, under every DDIO mode ×
        // randomization defense, at 1 and 4 queues. The schedule opens
        // with zero-gap groups of duplicate arrival times, and the bed
        // is driven through every delivery entry point: an advance
        // landing exactly on an arrival, a probe epoch, a backlog
        // delivered by `deliver_due`, and a drain.
        use pc_nic::RandomizeMode;
        let modes = [
            DdioMode::Disabled,
            DdioMode::enabled(),
            DdioMode::adaptive(),
        ];
        let defenses = [
            RandomizeMode::Off,
            RandomizeMode::EveryPacket,
            RandomizeMode::EveryNPackets(7),
        ];
        for ddio in modes {
            for randomize in defenses {
                for queues in [1, 4] {
                    let mut cfg = TestBedConfig::paper_baseline().with_queues(queues);
                    cfg.ddio = ddio;
                    cfg.driver.randomize = randomize;
                    let what = format!("{ddio:?} {randomize:?} {queues} queues");
                    let mut frames = flow_schedule(9, 240, 21);
                    for (i, f) in frames.iter_mut().take(48).enumerate() {
                        f.at = 1_000 + (i as u64 / 16) * 5;
                    }
                    let on_arrival = frames[100].at;
                    let mut bed = TestBed::new(cfg);
                    let mut reference = Reference::new(cfg);
                    bed.enqueue(frames.clone());
                    reference.pending = frames.into();

                    bed.advance_to(on_arrival);
                    reference.advance_to(on_arrival);
                    assert_parts_identical(parts(&bed), reference.parts(), &what);

                    for line in 0..16u64 {
                        bed.hierarchy_mut().cpu_read(PhysAddr::new(line << 6));
                        reference.h.cpu_read(PhysAddr::new(line << 6));
                    }
                    // A probe epoch's worth of clock with no delivery:
                    // the frames it passes pile up for `deliver_due`.
                    bed.hierarchy_mut().advance(400_000);
                    reference.h.advance(400_000);
                    assert!(bed.deliver_due() > 0, "{what}: a backlog was due");
                    reference.deliver_due();
                    assert_parts_identical(parts(&bed), reference.parts(), &what);

                    bed.drain();
                    reference.drain();
                    assert_parts_identical(parts(&bed), reference.parts(), &what);
                    assert_eq!(bed.packets_received_total(), 240, "{what}");
                }
            }
        }
    }

    #[test]
    fn window_stats_count_delivering_calls() {
        let mut tb = bed();
        let frames = schedule(10, 0);
        let t4 = frames[3].at;
        tb.enqueue(frames);
        tb.advance_to(t4);
        assert_eq!(
            *tb.window_stats(),
            WindowStats {
                windows: 1,
                frames: 4
            }
        );
        tb.advance_to(t4);
        tb.deliver_due();
        assert_eq!(tb.window_stats().windows, 1, "empty calls add nothing");
        tb.drain();
        assert_eq!(
            *tb.window_stats(),
            WindowStats {
                windows: 2,
                frames: 10
            }
        );
        tb.reset(TestBedConfig::paper_baseline());
        assert_eq!(*tb.window_stats(), WindowStats::default());
    }

    #[test]
    fn reset_bed_is_byte_identical_to_a_fresh_one() {
        // A bed reused across tenants (dirtied by a full run, then
        // reset for a different config) must be indistinguishable from
        // a bed built fresh — same records, clock, stats, ring pages
        // and RNG stream after identical driving.
        let dirty_cfg = TestBedConfig::paper_baseline().with_seed(77);
        let mut reused = TestBed::new(dirty_cfg);
        let mut rng = SmallRng::seed_from_u64(13);
        let frames = ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(150_000)
            .generate(&mut pc_net::UniformSizes::full_range(), 0, 120, &mut rng);
        reused.enqueue(frames);
        reused.drain();
        assert!(!reused.records().is_empty(), "the dirtying run did work");

        for cfg in [
            TestBedConfig::no_ddio().with_seed(2020),
            TestBedConfig::adaptive_defense().with_seed(5),
            TestBedConfig::paper_baseline().with_seed(77),
        ] {
            reused.reset(cfg);
            let mut fresh = TestBed::new(cfg);
            assert_beds_identical(&reused, &fresh, "after reset, before driving");
            for tb in [&mut reused, &mut fresh] {
                let mut rng = SmallRng::seed_from_u64(4);
                let frames = ArrivalSchedule::new(LineRate::gigabit())
                    .frames_per_second(200_000)
                    .generate(&mut pc_net::UniformSizes::full_range(), 0, 80, &mut rng);
                tb.enqueue(frames);
                tb.drain();
            }
            assert_beds_identical(&reused, &fresh, "after reset + identical driving");
        }
    }

    /// A flow-cycled schedule: `count` frames across `clients` client
    /// flows, sizes spanning the copybreak both ways.
    fn flow_schedule(clients: u64, count: usize, seed: u64) -> Vec<ScheduledFrame> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut gen = pc_net::FlowCycle::clients(pc_net::UniformSizes::full_range(), clients, 80);
        ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(150_000)
            .generate(&mut gen, 0, count, &mut rng)
    }

    #[test]
    fn legacy_flows_pin_to_queue_zero_at_any_queue_count() {
        // A flow-less (legacy) schedule on a 4-queue bed: queues 1..
        // stay completely idle and the observable run — records,
        // clock, cache statistics, queue 0's ring and RNG — is
        // byte-identical to the single-queue bed. Pre-RSS goldens
        // therefore replay unchanged at any queue count.
        let mut single = TestBed::new(TestBedConfig::paper_baseline().with_queues(1));
        let mut multi = TestBed::new(TestBedConfig::paper_baseline().with_queues(4));
        for tb in [&mut single, &mut multi] {
            tb.enqueue(schedule(60, 0));
            tb.drain();
        }
        assert_eq!(single.records(), multi.records(), "records");
        assert_eq!(single.now(), multi.now(), "clock");
        assert_eq!(
            single.hierarchy().llc().stats(),
            multi.hierarchy().llc().stats(),
            "llc stats"
        );
        assert_eq!(
            single.driver().ring().page_addresses(),
            multi.driver().ring().page_addresses(),
            "queue 0 ring pages"
        );
        assert_eq!(single.queues[0].rng, multi.queues[0].rng, "queue 0 RNG");
        for q in 1..multi.queue_count() {
            assert_eq!(
                multi.queue_driver(q).packets_received(),
                0,
                "queue {q} stays idle under legacy flows"
            );
        }
    }

    #[test]
    fn queue_streams_are_independent_of_queue_count() {
        // Steering is a pure flow property, and each queue's streams
        // derive from the master seed alone — so a reset to a
        // different queue count then back reproduces the original run
        // exactly (the fleet driver reuses beds across tenant
        // configs with different queue counts).
        let cfg = TestBedConfig::paper_baseline().with_queues(4).with_seed(99);
        let mut fresh = TestBed::new(cfg);
        let mut reused = TestBed::new(TestBedConfig::paper_baseline().with_queues(2));
        reused.enqueue(flow_schedule(5, 80, 3));
        reused.drain();
        reused.reset(cfg);
        for tb in [&mut fresh, &mut reused] {
            tb.enqueue(flow_schedule(7, 120, 11));
            tb.drain();
        }
        assert_beds_identical(&fresh, &reused, "reset across queue counts");
    }

    #[test]
    fn no_ddio_bed_runs_deferred_reads() {
        let mut tb = TestBed::new(TestBedConfig::no_ddio());
        let mut rng = SmallRng::seed_from_u64(9);
        let frames = ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(50_000)
            .generate(
                &mut ConstantSize::new(pc_net::EthernetFrame::mtu_sized()),
                0,
                5,
                &mut rng,
            );
        tb.enqueue(frames);
        tb.drain();
        // After draining, payload blocks are in the cache via CPU reads.
        let r = tb.records()[0];
        assert!(tb.hierarchy().llc().contains(r.buffer_addr.add_blocks(5)));
    }
}
