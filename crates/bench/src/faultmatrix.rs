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
//!   `crates/pc-cache/tests/fault_kill.rs`: four engines (per-access
//!   oracle, streaming applier, buffered batch, pinned two-worker
//!   sharded replay) replay seeded fuzz streams over carried state and
//!   are compared on clock, memory traffic, merged and per-slice
//!   statistics, and residency.
//! * `driver` — a compact `pc-nic` batch-equivalence pass: batched and
//!   burst receive against the per-access scalar path over a mixed
//!   frame-size cycle, per DDIO mode × randomization defense.
//! * `testbed` — the windowed ↔ per-frame trajectory comparison from
//!   `crates/core/tests/fault_kill_rx.rs`, the only detector that
//!   exercises the windowed-rx sites (`dropped-deferred-read`,
//!   `burst-flush-elision`, `swapped-segment-subtotal`,
//!   `stale-deferred-segment-index`).
//! * `monitor` — the attacker pool's eviction-set memo against the
//!   memo-free oracle walk, then the fused multi-target probe sample
//!   (`pc_probe::Monitor`) against per-target probing on a cloned
//!   machine, mirroring `crates/pc-probe/tests/fault_kill_probe.rs` —
//!   the only detector that exercises `stale-eviction-memo` and
//!   `cross-epoch-misclassify`, whose mutations live in the memo lookup
//!   and the fused per-segment classification alone.
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
    AccessKind, AdaptiveConfig, CacheGeometry, CacheOp, CacheStats, DdioMode, Hierarchy, OpBuffer,
    OpSink, PhysAddr, SliceSet,
};
use pc_core::{RxEngine, TestBed, TestBedConfig};
use pc_net::{EthernetFrame, ScheduledFrame};
use pc_nic::{DriverConfig, IgbDriver, PageAllocator, RandomizeMode, RxEvent};
use pc_probe::{oracle_eviction_sets, AddressPool, Monitor, MonitorTarget};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
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

/// Four op-stream engines over carried state, compared after every
/// round (six rounds per DDIO mode — enough consultations for every
/// counter site's trigger range).
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
        let mut sharded = Hierarchy::new(geom, mode);
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
            sharded.run_trace_threads(&ops, 2);
            sharded.advance(17);
            for (name, h) in [
                ("streaming", &streaming),
                ("batch", &batch),
                ("sharded", &sharded),
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
        ring_size: 32,
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

/// Batched and burst receive against the per-access scalar path: every
/// per-frame event, the clock after every frame, and the end state per
/// DDIO mode × randomization defense.
fn driver_batch_equivalence() -> Option<String> {
    let frames = frame_mix(300);
    let modes = [
        DdioMode::Disabled,
        DdioMode::enabled(),
        DdioMode::adaptive(),
    ];
    for mode in modes {
        for randomize in [RandomizeMode::Off, RandomizeMode::EveryNPackets(7)] {
            // Frame-at-a-time batched replay vs scalar.
            let (mut h_b, mut drv_b, mut rng_b) = machine(mode, randomize);
            let (mut h_s, mut drv_s, mut rng_s) = machine(mode, randomize);
            let mut touched = Vec::new();
            for (i, &frame) in frames.iter().enumerate() {
                let ev_b: RxEvent = drv_b.receive(&mut h_b, frame, &mut rng_b);
                let ev_s: RxEvent = drv_s.receive_scalar(&mut h_s, frame, &mut rng_s);
                if ev_b != ev_s {
                    return Some(format!("event diverged: frame {i} {mode:?} {randomize:?}"));
                }
                if h_b.now() != h_s.now() {
                    return Some(format!("clock diverged: frame {i} {mode:?} {randomize:?}"));
                }
                for b in 0..u64::from(ev_b.blocks) {
                    touched.push(ev_b.buffer_addr.add_blocks(b));
                }
            }
            if let Some(d) = driver_state_differs(&h_b, &h_s, &drv_b, &drv_s) {
                return Some(format!("receive: {d}: {mode:?} {randomize:?}"));
            }
            for addr in touched {
                if h_b.llc().contains(addr) != h_s.llc().contains(addr) {
                    return Some(format!("residency at {addr}: {mode:?} {randomize:?}"));
                }
            }
            // The pipelined burst path vs scalar.
            let (mut h_b, mut drv_b, mut rng_b) = machine(mode, randomize);
            let (mut h_s, mut drv_s, mut rng_s) = machine(mode, randomize);
            for (i, burst) in frames.chunks(59).enumerate() {
                let evs_b = drv_b.receive_burst(&mut h_b, burst, &mut rng_b);
                let evs_s: Vec<RxEvent> = burst
                    .iter()
                    .map(|&f| drv_s.receive_scalar(&mut h_s, f, &mut rng_s))
                    .collect();
                if evs_b != evs_s {
                    return Some(format!("burst {i} diverged: {mode:?} {randomize:?}"));
                }
            }
            if let Some(d) = driver_state_differs(&h_b, &h_s, &drv_b, &drv_s) {
                return Some(format!("burst: {d}: {mode:?} {randomize:?}"));
            }
        }
    }
    None
}

// --- suite `testbed`: windowed ↔ per-frame trajectory ---------------

fn testbed_config(rx_engine: RxEngine) -> TestBedConfig {
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
    .with_rx_engine(rx_engine)
}

/// Burst period of [`testbed_schedule`]; each burst is observed in two
/// detect steps (head and tail).
const BURST_PERIOD: u64 = 60_000;

/// The kill schedule from `crates/core/tests/fault_kill_rx.rs`: each
/// burst puts `burst % 24` zero-gap copybreak frames before its MTU
/// frame (sweeping the deferral's fused-window segment index across
/// every keyed site's modulus range), then an 8-frame small train that
/// brackets the deferred payload due time at one-replay (~900 cycle)
/// spacing — a fired mutation shifts the due ~5.5 k cycles (one MTU
/// replay) and reorders the reads across several frames' DMA near the
/// burst end, where the minuscule cache still remembers the order.
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

/// Drives a windowed and a per-frame bed through the schedule in
/// lockstep, comparing the *trajectory* — clock, traffic, statistics,
/// records and mid-flight residency after every step. Two steps per
/// burst: the head step delivers `[smalls…, MTU]` alone and resolves
/// the deferral against reconstructed segment ends; the tail step
/// delivers the train, so every deferred-pending cut it takes comes
/// from an exact heap due — the cut `burst-flush-elision` must not
/// elide.
fn testbed_trajectory() -> Option<String> {
    let mut windowed = TestBed::new(testbed_config(RxEngine::Batched));
    let mut perframe = TestBed::new(testbed_config(RxEngine::PerFrame));
    let frames = testbed_schedule();
    let end = frames.last().expect("nonempty").at + BURST_PERIOD;
    windowed.enqueue(frames.clone());
    perframe.enqueue(frames);
    let mut steps = Vec::new();
    let mut burst_at = 1_000;
    while burst_at < end {
        steps.push(burst_at + 12_000);
        steps.push(burst_at + 52_000);
        burst_at += BURST_PERIOD;
    }
    for t in steps {
        windowed.run_window(t);
        windowed.advance_to(t);
        perframe.advance_to(t);
        if windowed.now() != perframe.now() {
            return Some(format!("clock at step {t}"));
        }
        let (wh, ph) = (windowed.hierarchy(), perframe.hierarchy());
        if wh.memory_stats() != ph.memory_stats() {
            return Some(format!("memory traffic at step {t}"));
        }
        if wh.llc().stats() != ph.llc().stats() {
            return Some(format!("LLC stats at step {t}"));
        }
        if windowed.records() != perframe.records() {
            return Some(format!("receive records at step {t}"));
        }
        // Mid-flight residency: a reordered deferred read perturbs LRU
        // order in sets where every later access is a forced miss, so
        // the divergence never reaches the statistics and the ring
        // eventually rewrites the evidence.
        for rec in windowed.records() {
            for b in 0..u64::from(rec.blocks) {
                let addr = rec.buffer_addr.add_blocks(b);
                if wh.llc().contains(addr) != ph.llc().contains(addr) {
                    return Some(format!("residency of {addr} at step {t}"));
                }
            }
        }
    }
    windowed.drain();
    perframe.drain();
    if windowed.records() != perframe.records() {
        return Some("receive records after drain".into());
    }
    if windowed.driver().ring().page_addresses() != perframe.driver().ring().page_addresses() {
        return Some("ring placement after drain".into());
    }
    None
}

// --- suite `monitor`: memo vs walk, fused sample vs per-target -----

/// First the pool's eviction-set memo against the memo-free walk: every
/// slice of 16 set indices, asked twice (a fill, then all hits, so
/// every neighbour a stale hit could serve is memoized). The walk never
/// consults the memo hook, so it is the oracle for
/// `stale-eviction-memo`. Then the fused multi-target probe sample
/// against per-target probing on a cloned machine: 32 monitored sets
/// (every keyed modulus in the catalog fires within the first 32 keys),
/// with NIC writes landing on a rotating third of the victims between
/// samples. The per-target path never consults the fused
/// classification hook, so it is the oracle for
/// `cross-epoch-misclassify` — and the comparison doubles as a
/// fusion-equivalence regression (clock and statistics included).
fn monitor_differential() -> Option<String> {
    let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
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
    let mut victims: Vec<PhysAddr> = Vec::new();
    let mut targets = Vec::new();
    for page in 0..4000u64 {
        if targets.len() >= 32 {
            break;
        }
        let v = PhysAddr::new(page * 4096);
        let ss = h.llc().locate(v);
        if victims.iter().any(|&p| h.llc().locate(p) == ss) {
            continue;
        }
        let set = oracle_eviction_sets(h.llc(), &pool, &[ss]).remove(0);
        targets.push(MonitorTarget::new(
            targets.len(),
            set,
            h.latencies().miss_threshold(),
        ));
        victims.push(v);
    }
    let m = Monitor::new(targets);
    m.prime_all(&mut h);
    let _ = m.sample_misses(&mut h); // settle the primed state
    for round in 0..3usize {
        for (i, &v) in victims.iter().enumerate() {
            if i % 3 == round {
                h.io_write(v);
            }
        }
        let mut oracle = h.clone();
        let fused = m.sample_misses(&mut h);
        let split: Vec<u32> = m
            .targets()
            .iter()
            .map(|t| t.probe.probe(&mut oracle).misses)
            .collect();
        if fused != split {
            return Some(format!("fused sample row diverged (round {round})"));
        }
        if h.now() != oracle.now() {
            return Some(format!("clock after fused sample (round {round})"));
        }
        if h.llc().stats() != oracle.llc().stats() {
            return Some(format!("LLC stats after fused sample (round {round})"));
        }
    }
    None
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
