//! The fault-injection kill matrix behind `repro fault-matrix`.
//!
//! Mutation testing for the equivalence suites: every catalog site in
//! [`pc_cache::fault`] is armed in turn (for each fault seed) and each
//! of the cheap detector suites gets a fresh arming and one chance to
//! notice — a reported divergence *or* a panic kills the mutant. The
//! matrix printed at the end shows which suite killed what; a fault ×
//! seed cell no suite kills is a **survivor** and fails the run: it
//! means a single-point mutation in one engine slipped past every
//! differential check the repository relies on.
//!
//! The five suites, cheapest first (the order is part of the printed
//! contract):
//!
//! * `ops` — the op-stream differential from
//!   `crates/pc-cache/tests/fault_kill.rs`: the per-access oracle and
//!   the fast path's three entry points (streaming applier, buffered
//!   `run_ops`, unbuffered `run_trace`) replay seeded fuzz streams
//!   over carried state and are compared on clock, memory traffic,
//!   merged and per-slice statistics, and residency.
//! * `driver` — a compact `pc-nic` batch-equivalence pass: batched
//!   receive against the per-access scalar path over a mixed
//!   frame-size cycle, per DDIO mode × randomization defense, with a
//!   CPU re-read of the older buffers' blocks (fast path against
//!   per-access reads) between two receive rounds — the receive-path
//!   detector for `stale-lru`.
//! * `testbed` — the bed ↔ hand-driven per-access reference trajectory
//!   comparison from `crates/core/tests/fault_kill_rx.rs`, the rx-path
//!   detector for `dropped-deferred-read`.
//! * `monitor` — mirroring `crates/pc-probe/tests/fault_kill_probe.rs`:
//!   the attacker pool's eviction-set memo against the memo-free oracle
//!   walk (the only detector that exercises `stale-eviction-memo`,
//!   whose mutation lives in the memo lookup alone), then a probe-walk
//!   differential: the spy's decoded prime and probe walks
//!   (`Hierarchy::run_walk`) against per-access `cpu_read` walks on a
//!   cloned machine.
//! * `golden` — the scenario registry at the blessed parameters
//!   (`Scale::Quick`, seed 2020) byte-compared against the snapshots
//!   in `tests/golden/` (`fingerprint` is excluded: it costs more than
//!   every other scenario combined and the sites it could kill are
//!   already covered by the cheaper suites).
//!
//! A negative control runs first: with nothing armed, all five suites
//! must stay silent, pinning that the matrix only ever reports
//! injected faults. The run aborts (exit 2 via the caller) if the
//! control trips.

use crate::experiments::Scale;
use crate::scenario;
use pc_cache::fault::{self, FaultSite, FaultSpec};
use pc_cache::{
    AccessKind, AdaptiveConfig, CacheGeometry, CacheOp, CacheStats, Cycles, DdioMode, Hierarchy,
    OpBuffer, OpSink, PhysAddr, SliceSet, SlicedCache,
};
use pc_core::{RxRecord, TestBed, TestBedConfig};
use pc_net::{EthernetFrame, ScheduledFrame};
use pc_nic::{DeferredReads, DriverConfig, IgbDriver, PageAllocator, RandomizeMode, RxEvent};
use pc_probe::{oracle_eviction_sets, AddressPool, EvictionSet, PrimeProbe};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A detector suite: runs a fixed workload and reports the first
/// divergence, if any. A panic inside the suite also counts as a kill
/// (the harness catches it).
type Suite = fn() -> Option<String>;

/// The suites in run order (cheap → expensive). Names are the matrix
/// column headers.
const SUITES: [(&str, Suite); 5] = [
    ("ops", op_stream_differential),
    ("driver", driver_batch_equivalence),
    ("testbed", testbed_trajectory),
    ("monitor", monitor_differential),
    ("golden", scenario_goldens),
];

/// Runs the full matrix — every catalog site × `seeds` fault seeds ×
/// every suite — printing the kill matrix as it goes. Returns `true`
/// when the negative control passed and no mutant survived.
pub fn run(seeds: u64) -> bool {
    println!(
        "Fault-injection kill matrix — {} sites × seeds 0..{seeds} × {} suites",
        FaultSite::ALL.len(),
        SUITES.len()
    );
    fault::disarm();
    for (name, suite) in SUITES {
        match catch_unwind(AssertUnwindSafe(suite)) {
            Ok(None) => {}
            Ok(Some(d)) => {
                println!("# NEGATIVE CONTROL FAILED: suite `{name}` reports a divergence with no fault armed: {d}");
                return false;
            }
            Err(_) => {
                println!("# NEGATIVE CONTROL FAILED: suite `{name}` panicked with no fault armed");
                return false;
            }
        }
    }
    println!("# negative control: all suites silent with no fault armed");
    let header: Vec<&str> = SUITES.iter().map(|(n, _)| *n).collect();
    println!("site,seed,{},killed_by", header.join(","));
    let mut survivors = Vec::new();
    for site in FaultSite::ALL {
        for seed in 0..seeds {
            let mut cells = Vec::new();
            let mut killed_by = Vec::new();
            for (name, suite) in SUITES {
                // Each suite gets a *fresh* arming: counter sites are
                // one-shot, and a suite that consumed the firing
                // without noticing must not shield the suites after it.
                fault::arm(FaultSpec {
                    site,
                    seed,
                    nth: None,
                });
                let outcome = catch_unwind(AssertUnwindSafe(suite));
                fault::disarm();
                let killed = !matches!(outcome, Ok(None));
                cells.push(if killed { "KILL" } else { "miss" });
                if killed {
                    killed_by.push(name);
                }
            }
            if killed_by.is_empty() {
                survivors.push(format!("{}:{seed}", site.name()));
            }
            println!(
                "{},{seed},{},{}",
                site.name(),
                cells.join(","),
                if killed_by.is_empty() {
                    "SURVIVED".to_owned()
                } else {
                    killed_by.join("+")
                }
            );
        }
    }
    let total = FaultSite::ALL.len() as u64 * seeds;
    if survivors.is_empty() {
        println!("# all {total} fault×seed mutants killed by at least one suite; 0 survivors");
        true
    } else {
        println!(
            "# SURVIVORS ({}/{total}): {}",
            survivors.len(),
            survivors.join(" ")
        );
        false
    }
}

// --- suite `ops`: the op-stream differential -----------------------

/// The op_fuzz stream shape: mixed kinds, occasional leads, a hot
/// conflict region so LRU order and slice skew both matter.
fn fuzz_stream(seed: u64, len: usize) -> Vec<CacheOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let line = if rng.gen_range(0..100) < 60 {
                rng.gen_range(0..64u64)
            } else {
                rng.gen_range(0..(1 << 16))
            };
            let kind = match rng.gen_range(0..100u32) {
                p if p < 25 => AccessKind::IoWrite,
                p if p < 35 => AccessKind::IoRead,
                p if p < 55 => AccessKind::CpuWrite,
                _ => AccessKind::CpuRead,
            };
            let lead = if rng.gen_range(0..8u32) == 0 {
                rng.gen_range(1..500u64)
            } else {
                0
            };
            CacheOp::new(PhysAddr::new(line * 64), kind).after(lead)
        })
        .collect()
}

fn slice_stats(h: &Hierarchy) -> Vec<CacheStats> {
    (0..h.llc().geometry().slices())
        .map(|s| h.llc().slice_stats(s))
        .collect()
}

/// First observable difference between an engine and the oracle.
fn hierarchy_differs(oracle: &Hierarchy, other: &Hierarchy, ops: &[CacheOp]) -> Option<String> {
    if oracle.now() != other.now() {
        return Some(format!("clock {} != {}", other.now(), oracle.now()));
    }
    if oracle.memory_stats() != other.memory_stats() {
        return Some("memory traffic".into());
    }
    if oracle.llc().stats() != other.llc().stats() {
        return Some("merged LLC stats".into());
    }
    if slice_stats(oracle) != slice_stats(other) {
        return Some("per-slice LLC stats".into());
    }
    for op in ops {
        if oracle.llc().contains(op.addr) != other.llc().contains(op.addr) {
            return Some(format!("residency of {:?}", op.addr));
        }
    }
    None
}

/// The oracle and three fast-path entry points over carried state,
/// compared after every round (six rounds per DDIO mode — enough
/// consultations for every counter site's trigger range).
fn op_stream_differential() -> Option<String> {
    let geom = CacheGeometry::tiny();
    let modes = [
        DdioMode::Disabled,
        DdioMode::enabled(),
        DdioMode::Adaptive(AdaptiveConfig {
            period: 16,
            ..AdaptiveConfig::paper_defaults()
        }),
    ];
    for mode in modes {
        let mut oracle = Hierarchy::new(geom, mode);
        let mut streaming = Hierarchy::new(geom, mode);
        let mut batch = Hierarchy::new(geom, mode);
        let mut traced = Hierarchy::new(geom, mode);
        let mut buf = OpBuffer::new();
        for round in 0..6u64 {
            let ops = fuzz_stream(pc_par::mix_seed(0xD1FF, round), 6000);
            for &op in &ops {
                oracle.op(op);
            }
            oracle.advance(17);
            {
                let mut sink = streaming.applier();
                for &op in &ops {
                    sink.op(op);
                }
                sink.advance(17);
            }
            buf.clear();
            for &op in &ops {
                buf.op(op);
            }
            buf.advance(17);
            batch.run_ops(&buf);
            traced.run_trace(ops.iter().copied());
            traced.advance(17);
            for (name, h) in [
                ("streaming", &streaming),
                ("batch", &batch),
                ("traced", &traced),
            ] {
                if let Some(d) = hierarchy_differs(&oracle, h, &ops) {
                    return Some(format!("{mode:?} round {round}: {name} vs oracle: {d}"));
                }
            }
        }
    }
    None
}

// --- suite `driver`: batched receive vs the scalar oracle -----------

/// One machine: hierarchy + driver + rng, both sides built from the
/// same seeds so any divergence is the replay path's fault.
fn machine(mode: DdioMode, randomize: RandomizeMode) -> (Hierarchy, IgbDriver, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(0x19b);
    let h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), mode);
    let cfg = DriverConfig {
        ring_size: DRIVER_RING,
        randomize,
        ..DriverConfig::paper_defaults()
    };
    let alloc = PageAllocator::new(0xa110c).with_remote_probability(0.05);
    let drv = IgbDriver::new(cfg, alloc, &mut rng);
    (h, drv, rng)
}

/// A deterministic frame-size mix crossing the copybreak in both
/// directions: minimum, small, copybreak-exact, just-over, MTU.
fn frame_mix(n: u32) -> Vec<EthernetFrame> {
    (0..n)
        .map(|i| {
            let bytes = [64, 128, 256, 257, 1514][(i % 5) as usize];
            EthernetFrame::new(bytes).expect("legal size")
        })
        .collect()
}

fn driver_state_differs(
    h_b: &Hierarchy,
    h_s: &Hierarchy,
    drv_b: &IgbDriver,
    drv_s: &IgbDriver,
) -> Option<String> {
    if h_b.now() != h_s.now() {
        return Some("clock".into());
    }
    if h_b.llc().stats() != h_s.llc().stats() {
        return Some("merged LLC stats".into());
    }
    if slice_stats(h_b) != slice_stats(h_s) {
        return Some("per-slice LLC stats".into());
    }
    if h_b.memory_stats() != h_s.memory_stats() {
        return Some("memory traffic".into());
    }
    if drv_b.ring().page_addresses() != drv_s.ring().page_addresses() {
        return Some("ring placement".into());
    }
    if drv_b.defense_overhead_cycles() != drv_s.defense_overhead_cycles() {
        return Some("defense overhead".into());
    }
    None
}

/// Ring size of the `driver` suite's machines.
const DRIVER_RING: usize = 32;

/// Batched receive against the per-access scalar path: every per-frame
/// event, the clock after every frame, and the end state per DDIO mode
/// × randomization defense.
fn driver_batch_equivalence() -> Option<String> {
    let modes = [
        DdioMode::Disabled,
        DdioMode::enabled(),
        DdioMode::adaptive(),
    ];
    for mode in modes {
        for randomize in [RandomizeMode::Off, RandomizeMode::EveryNPackets(7)] {
            if let Err(d) = driver_pass(mode, randomize) {
                return Some(format!("{d}: {mode:?} {randomize:?}"));
            }
        }
    }
    None
}

/// One `driver` pass: a 300-frame receive, a CPU re-read of the older
/// buffers' blocks, and a second receive round.
///
/// The driver's own CPU reads hit lines its DMA just stamped, so they
/// never test recency order. The re-read does: later frames pushed the
/// older buffers' lines down their sets, the batched machine re-reads
/// them through the fast path (`run_trace`) and the scalar one through
/// per-access `cpu_read`, and the second round's allocations then
/// evict by the recency those hits left behind.
fn driver_pass(mode: DdioMode, randomize: RandomizeMode) -> Result<(), String> {
    let frames = frame_mix(300);
    let (mut h_b, mut drv_b, mut rng_b) = machine(mode, randomize);
    let (mut h_s, mut drv_s, mut rng_s) = machine(mode, randomize);
    // (buffer, blocks) of every received frame, in arrival order.
    let mut received: Vec<(PhysAddr, u64)> = Vec::new();
    let blocks = |frames: &[(PhysAddr, u64)]| -> Vec<PhysAddr> {
        frames
            .iter()
            .flat_map(|&(buf, n)| (0..n).map(move |b| buf.add_blocks(b)))
            .collect()
    };
    for round in ["receive", "second receive"] {
        for (i, &frame) in frames.iter().enumerate() {
            let ev_b: RxEvent = drv_b.receive(&mut h_b, frame, &mut rng_b);
            let ev_s: RxEvent = drv_s.receive_scalar(&mut h_s, frame, &mut rng_s);
            if ev_b != ev_s {
                return Err(format!("{round}: event diverged at frame {i}"));
            }
            if h_b.now() != h_s.now() {
                return Err(format!("{round}: clock diverged at frame {i}"));
            }
            received.push((ev_b.buffer_addr, u64::from(ev_b.blocks)));
        }
        if let Some(d) = driver_state_differs(&h_b, &h_s, &drv_b, &drv_s) {
            return Err(format!("{round}: {d}"));
        }
        for addr in blocks(&received) {
            if h_b.llc().contains(addr) != h_s.llc().contains(addr) {
                return Err(format!("{round}: residency at {addr}"));
            }
        }
        if round == "receive" {
            // Every block received before the newest half ring, in
            // arrival order: lines later frames pushed down their sets.
            let oldest = blocks(&received[..received.len() - DRIVER_RING / 2]);
            h_b.run_trace(
                oldest
                    .iter()
                    .map(|&addr| CacheOp::new(addr, AccessKind::CpuRead)),
            );
            for &addr in &oldest {
                h_s.cpu_read(addr);
            }
        }
    }
    Ok(())
}

// --- suite `testbed`: the bed ↔ a per-access reference -------------

fn testbed_config() -> TestBedConfig {
    TestBedConfig {
        // Tiny and 2-way: maximal conflict pressure, so reordered or
        // dropped deferred reads perturb LRU state.
        geometry: CacheGeometry::new(2, 2, 2),
        // Deferred reads only exist without DDIO.
        ddio: DdioMode::Disabled,
        driver: DriverConfig {
            ring_size: 8,
            ..DriverConfig::paper_defaults()
        },
        ..TestBedConfig::no_ddio()
    }
    .with_seed(0x517e)
}

/// Burst period of [`testbed_schedule`]; each burst is observed in two
/// detect steps (head and tail).
const BURST_PERIOD: u64 = 60_000;

/// The kill schedule from `crates/core/tests/fault_kill_rx.rs`: each
/// burst puts `burst % 24` zero-gap copybreak frames before its MTU
/// frame (so the deferred payload due lands at a different offset in
/// every burst), then an 8-frame small train that brackets the due time
/// at one-replay (~900 cycle) spacing — a dropped or shifted read
/// changes what the train's DMA finds near the burst end, where the
/// minuscule cache still remembers it.
fn testbed_schedule() -> Vec<ScheduledFrame> {
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
        let emit_end = 900 * leading + 5_500;
        for j in 0..8u64 {
            frames.push(ScheduledFrame::new(t + emit_end + 12_800 + j * 900, small));
        }
        t += BURST_PERIOD;
    }
    frames
}

/// The hand-driven per-access reference: queue 0's parts, seeded as the
/// bed seeds them. Per frame it advances to the arrival, receives
/// through [`IgbDriver::receive_scalar`] and runs due deferred reads.
struct RxReference {
    h: Hierarchy,
    driver: IgbDriver,
    rng: SmallRng,
    deferred: DeferredReads,
    pending: VecDeque<ScheduledFrame>,
    records: Vec<RxRecord>,
}

impl RxReference {
    fn new(cfg: &TestBedConfig, frames: Vec<ScheduledFrame>) -> Self {
        let h = Hierarchy::with_llc(SlicedCache::new(cfg.geometry, cfg.ddio))
            .with_latencies(cfg.latencies);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let alloc = PageAllocator::new(cfg.seed ^ 0x5eed_1a7e);
        let driver = IgbDriver::new(cfg.driver, alloc, &mut rng);
        RxReference {
            h,
            driver,
            rng,
            deferred: DeferredReads::new(),
            pending: frames.into(),
            records: Vec::new(),
        }
    }

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

/// Drives the bed and the per-access reference through the schedule in
/// lockstep, comparing the *trajectory* — clock, traffic, statistics,
/// records and mid-flight residency after every step. Two steps per
/// burst: the head step delivers `[smalls…, MTU]`; the tail step
/// delivers the train, with the payload reads running between its
/// frames.
fn testbed_trajectory() -> Option<String> {
    let cfg = testbed_config();
    let frames = testbed_schedule();
    let end = frames.last().expect("nonempty").at + BURST_PERIOD;
    let mut bed = TestBed::new(cfg);
    bed.enqueue(frames.clone());
    let mut reference = RxReference::new(&cfg, frames);
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
            return Some(format!("clock at step {t}"));
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
        // Mid-flight residency: a reordered deferred read perturbs LRU
        // order in sets where every later access is a forced miss, so
        // the divergence never reaches the statistics and the ring
        // eventually rewrites the evidence.
        for rec in bed.records() {
            for b in 0..u64::from(rec.blocks) {
                let addr = rec.buffer_addr.add_blocks(b);
                if bh.llc().contains(addr) != rh.llc().contains(addr) {
                    return Some(format!("residency of {addr} at step {t}"));
                }
            }
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
    None
}

// --- suite `monitor`: eviction-set memo vs walk, probe walks --------

/// The pool's eviction-set memo against the memo-free walk: every slice
/// of 16 set indices, asked twice (a fill, then all hits, so every
/// neighbour a stale hit could serve is memoized). The walk never
/// consults the memo hook, so it is the oracle for
/// `stale-eviction-memo`. The walked sets then drive
/// [`probe_walk_differential`].
fn monitor_differential() -> Option<String> {
    let h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
    let pool = AddressPool::allocate(6, 16384);
    let memo_targets: Vec<SliceSet> = (0..16)
        .flat_map(|i| (0..8).map(move |slice| SliceSet::new(slice, i * 128 + i)))
        .collect();
    let walked = oracle_eviction_sets(h.llc(), &pool, &memo_targets);
    for call in 0..2 {
        if pool.memoized_oracle_sets(h.llc(), &memo_targets) != walked {
            return Some(format!("memoized eviction sets diverged (call {call})"));
        }
    }
    probe_walk_differential(h, &walked)
}

/// The spy's decoded walks against per-access reads: prime every set
/// (`PrimeProbe::prime`), DMA-write one conflicting line into each, then
/// reverse-probe every set (`PrimeProbe::probe`); a clone of the
/// machine does the same with one `cpu_read` per line. The DMA line
/// leaves each set one line short, so the probe's refill picks an LRU
/// victim among lines the probe just touched — the order a stale
/// recency update breaks. Compared: per-set misses and latency, clock,
/// memory traffic, merged and per-slice statistics, and the residency
/// of every line.
fn probe_walk_differential(mut h: Hierarchy, sets: &[EvictionSet]) -> Option<String> {
    let threshold = h.latencies().miss_threshold();
    let mut oracle = h.clone();
    let probes: Vec<PrimeProbe> = sets
        .iter()
        .map(|s| PrimeProbe::new(s.clone(), threshold))
        .collect();
    let dma: Vec<PhysAddr> = sets.iter().map(|s| conflicting_line(h.llc(), s)).collect();
    for (p, set) in probes.iter().zip(sets) {
        p.prime(&mut h);
        for &a in set.addresses() {
            oracle.cpu_read(a);
        }
    }
    for &line in &dma {
        h.io_write(line);
        oracle.io_write(line);
    }
    for (i, (p, set)) in probes.iter().zip(sets).enumerate() {
        let got = p.probe(&mut h);
        let (mut misses, mut latency) = (0, 0);
        for &a in set.addresses().iter().rev() {
            let lat = oracle.cpu_read(a);
            latency += lat;
            misses += u32::from(lat >= threshold);
        }
        if (got.misses, got.total_latency) != (misses, latency) {
            return Some(format!(
                "probe of set {i}: {} misses / {} cycles != {misses} / {latency}",
                got.misses, got.total_latency
            ));
        }
    }
    let lines: Vec<CacheOp> = sets
        .iter()
        .flat_map(|s| s.addresses().iter().copied())
        .chain(dma)
        .map(CacheOp::read)
        .collect();
    hierarchy_differs(&oracle, &h, &lines).map(|d| format!("probe walks vs per-access reads: {d}"))
}

/// A line outside `set` that maps to the same slice-set (ground truth:
/// the detector's DMA traffic, not attacker code).
fn conflicting_line(llc: &SlicedCache, set: &EvictionSet) -> PhysAddr {
    let first = set.addresses()[0];
    let stride = (llc.geometry().sets_per_slice() * pc_cache::LINE_SIZE) as u64;
    (1u64..)
        .map(|k| PhysAddr::new(first.raw() + k * stride))
        .find(|&a| llc.locate(a) == llc.locate(first) && !set.addresses().contains(&a))
        .expect("a conflicting line exists")
}

// --- suite `golden`: scenario snapshots -----------------------------

/// The scenario registry at the blessed parameters against the golden
/// snapshots under `tests/golden/`. `fingerprint` is skipped: it costs
/// more than the rest of the registry combined, and its engines are
/// covered by the cheaper suites.
fn scenario_goldens() -> Option<String> {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    for s in scenario::registry() {
        if s.name() == "fingerprint" {
            continue;
        }
        let path = dir.join(format!("{}.golden.txt", s.name()));
        let want = match std::fs::read_to_string(&path) {
            Ok(w) => w,
            // Reported as a divergence so the *negative control* fails
            // loudly on a missing snapshot instead of crediting kills.
            Err(e) => return Some(format!("missing golden {path:?}: {e}")),
        };
        if s.run(Scale::Quick, 2020) != want {
            return Some(format!(
                "scenario `{}` diverged from its snapshot",
                s.name()
            ));
        }
    }
    None
}
