//! Shared trace definitions for the LLC hot-path microbenchmark.
//!
//! Used by two consumers that must agree on the workload: the
//! `cache_throughput` Criterion bench (interactive measurement) and the
//! `repro bench-cache` subcommand (emits `BENCH_cache.json` so the perf
//! trajectory is tracked across PRs on one fixed workload).
//!
//! Three engines are timed on every (shape, mode) case:
//!
//! * `soa` — the scalar access loop over the SoA store;
//! * `trace` — the clock-advancing [`pc_cache::Hierarchy::run_trace`]
//!   replay over the same store, the engine trace-replay workloads
//!   actually use (latency accounting and memory statistics live);
//! * `reference` — the pre-refactor per-set-object layout.

use pc_cache::reference::ReferenceCache;
use pc_cache::{AccessKind, CacheGeometry, CacheOp, DdioMode, Hierarchy, PhysAddr, SlicedCache};
use pc_net::EthernetFrame;
use pc_nic::{DriverConfig, IgbDriver, PageAllocator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Accesses per generated trace (full runs; `--smoke` shortens it).
pub const TRACE_LEN: usize = 200_000;

/// Trace shapes covering the reproduction's real access patterns.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Shape {
    /// Uniform random lines over ~8× the LLC: every access misses
    /// (defense-evaluation replay workloads).
    Stream,
    /// A working set that fits in the LLC: steady-state hits (the spy's
    /// PRIME+PROBE inner loops).
    Resident,
    /// Many tags competing for the page-aligned sets: eviction-dominated
    /// (DDIO ring traffic sharing sets with a spy).
    Conflict,
}

impl Shape {
    /// All shapes, in reporting order.
    pub fn all() -> [Shape; 3] {
        [Shape::Stream, Shape::Resident, Shape::Conflict]
    }

    /// Short name used in benchmark ids and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Stream => "stream",
            Shape::Resident => "resident",
            Shape::Conflict => "conflict",
        }
    }

    /// Distinct per-shape seed material (an index, not e.g. the name's
    /// length — "resident" and "conflict" are both 8 chars and would
    /// collide).
    fn seed_tag(self) -> u64 {
        match self {
            Shape::Stream => 1,
            Shape::Resident => 2,
            Shape::Conflict => 3,
        }
    }

    fn address(self, rng: &mut SmallRng) -> PhysAddr {
        let line = match self {
            Shape::Stream => rng.gen_range(0..2_621_440u64),
            Shape::Resident => rng.gen_range(0..16_384u64),
            Shape::Conflict => {
                let set = rng.gen_range(0..256u64) * 64; // page-aligned set stride
                let tag = rng.gen_range(0..40u64);
                tag * 131_072 + set // tag stride = one full slice image
            }
        };
        PhysAddr::new(line * 64)
    }
}

/// A reproducible access trace of `len` ops with `io_pct`% DDIO
/// writes and a 1-in-4 CPU-write share mixed into the CPU reads.
pub fn trace_with_len(shape: Shape, io_pct: u32, seed: u64, len: usize) -> Vec<CacheOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let addr = shape.address(&mut rng);
            let kind = if rng.gen_range(0..100u32) < io_pct {
                AccessKind::IoWrite
            } else if rng.gen_range(0..4u32) == 0 {
                AccessKind::CpuWrite
            } else {
                AccessKind::CpuRead
            };
            CacheOp::new(addr, kind)
        })
        .collect()
}

/// [`trace_with_len`] at the standard [`TRACE_LEN`].
pub fn trace(shape: Shape, io_pct: u32, seed: u64) -> Vec<CacheOp> {
    trace_with_len(shape, io_pct, seed, TRACE_LEN)
}

/// The DDIO modes under measurement, with reporting names.
pub fn modes() -> [(&'static str, DdioMode); 3] {
    [
        ("disabled", DdioMode::Disabled),
        ("enabled", DdioMode::enabled()),
        ("adaptive", DdioMode::adaptive()),
    ]
}

/// One prebuilt benchmark case: name, trace, mode.
pub type Case = (String, Vec<CacheOp>, DdioMode);

/// Every (shape, mode) case with `len`-op traces: name, prebuilt trace,
/// mode.
pub fn cases_with_len(len: usize) -> Vec<Case> {
    let mut out = Vec::new();
    for shape in Shape::all() {
        for (mode_name, mode) in modes() {
            let io_pct = 25;
            out.push((
                format!("{}/{}", shape.name(), mode_name),
                trace_with_len(shape, io_pct, 0xbead ^ shape.seed_tag(), len),
                mode,
            ));
        }
    }
    out
}

/// [`cases_with_len`] at the standard [`TRACE_LEN`].
pub fn cases() -> Vec<Case> {
    cases_with_len(TRACE_LEN)
}

/// One measured case of [`measure_all`].
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// `shape/mode` case name.
    pub case: String,
    /// Median ns/access for the scalar SoA access loop.
    pub soa_ns_per_access: f64,
    /// Median ns/access for the `Hierarchy::run_trace` replay — the
    /// path trace workloads actually take.
    pub trace_ns_per_access: f64,
    /// Median ns/access for the pre-refactor reference layout.
    pub reference_ns_per_access: f64,
}

impl CaseResult {
    /// SoA accesses/second.
    pub fn soa_accesses_per_sec(&self) -> f64 {
        1e9 / self.soa_ns_per_access
    }

    /// reference_ns / soa_ns — the PR 1 layout speedup.
    pub fn speedup(&self) -> f64 {
        self.reference_ns_per_access / self.soa_ns_per_access
    }

    /// `true` when every timing is a usable measurement (finite,
    /// positive). The `--smoke` CI gate fails the run otherwise.
    pub fn is_sane(&self) -> bool {
        [
            self.soa_ns_per_access,
            self.trace_ns_per_access,
            self.reference_ns_per_access,
        ]
        .iter()
        .all(|ns| ns.is_finite() && *ns > 0.0)
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    v[v.len() / 2]
}

/// The one measurement protocol every engine goes through: `samples`
/// timed passes over the trace (one untimed warm-up pass first), engine
/// state carried across passes, median ns/access reported. `pass`
/// replays the whole trace once — it is the only thing that differs
/// between engines, so their comparison can't skew.
fn time_passes(ops: &[CacheOp], samples: usize, mut pass: impl FnMut(&[CacheOp])) -> f64 {
    let mut runs = Vec::with_capacity(samples);
    for i in 0..=samples {
        let t = Instant::now();
        pass(ops);
        let ns = t.elapsed().as_nanos() as f64 / ops.len() as f64;
        if i > 0 {
            runs.push(ns); // first pass is warm-up
        }
    }
    median(runs)
}

fn time_soa(ops: &[CacheOp], mode: DdioMode, samples: usize) -> f64 {
    let mut llc = SlicedCache::new(CacheGeometry::xeon_e5_2660(), mode);
    time_passes(ops, samples, |ops| {
        for &op in ops {
            llc.access(op.addr, op.kind);
        }
    })
}

fn time_reference(ops: &[CacheOp], mode: DdioMode, samples: usize) -> f64 {
    let mut llc = ReferenceCache::new(CacheGeometry::xeon_e5_2660(), mode);
    time_passes(ops, samples, |ops| {
        for &op in ops {
            llc.access(op.addr, op.kind);
        }
    })
}

/// Times the clock-advancing trace replay (`Hierarchy::run_trace`),
/// one call per pass — latency accounting, memory-controller stats and
/// (in adaptive mode) per-slice defense clocks all live, exactly as the
/// fig14–16 defense workloads drive it.
fn time_trace(ops: &[CacheOp], mode: DdioMode, samples: usize) -> f64 {
    let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), mode);
    time_passes(ops, samples, |ops| {
        h.run_trace(ops.iter().copied());
    })
}

/// Measures every case on all three engines (`samples` timed passes
/// each, median reported) with `len`-op traces.
pub fn measure_all(samples: usize, len: usize) -> Vec<CaseResult> {
    cases_with_len(len)
        .into_iter()
        .map(|(case, ops, mode)| CaseResult {
            soa_ns_per_access: time_soa(&ops, mode, samples),
            trace_ns_per_access: time_trace(&ops, mode, samples),
            reference_ns_per_access: time_reference(&ops, mode, samples),
            case,
        })
        .collect()
}

/// Packets per driver measurement pass (full runs; `--smoke` shortens
/// it like it shortens the traces).
pub const DRIVER_PACKETS: usize = 20_000;

/// One measured end-to-end driver case: `IgbDriver` receive over a
/// fixed frame mix, on both replay paths — the default streaming
/// receive (`receive`, per-frame op emission through the applier sink)
/// and the per-access oracle (`receive_scalar`). Both are
/// byte-identical in results; this row tracks what the op-stream
/// pipeline buys on the workloads every `repro scenario` drives.
#[derive(Clone, Debug)]
pub struct DriverResult {
    /// DDIO mode name (`disabled` / `enabled` / `adaptive`).
    pub mode: String,
    /// Median ns/packet for the default streaming receive path.
    pub driver_ns_per_packet: f64,
    /// Median ns/packet for the per-access oracle path.
    pub driver_scalar_ns_per_packet: f64,
    /// Worker threads on the measuring host ([`pc_par::max_threads`]).
    pub host_threads: usize,
}

impl DriverResult {
    /// scalar_ns / streaming_ns — ≥ 1.0 means the op-stream receive
    /// path is at parity or better than the per-access baseline (the
    /// acceptance bar on a 1-core host).
    pub fn driver_speedup(&self) -> f64 {
        self.driver_scalar_ns_per_packet / self.driver_ns_per_packet
    }

    /// `true` when all timings are usable measurements.
    pub fn is_sane(&self) -> bool {
        [self.driver_ns_per_packet, self.driver_scalar_ns_per_packet]
            .iter()
            .all(|ns| ns.is_finite() && *ns > 0.0)
    }
}

/// The driver measurement's frame mix: the copybreak crossed in both
/// directions, MTU fragments included — the same mix the pc-nic
/// equivalence suite pins.
fn driver_frames(packets: usize) -> Vec<EthernetFrame> {
    (0..packets)
        .map(|i| {
            EthernetFrame::clamped(match i % 5 {
                0 => 64,
                1 => 128,
                2 => 256,
                3 => 257,
                _ => 1514,
            })
        })
        .collect()
}

/// Which driver engine a timing pass exercises.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
enum DriverEngine {
    Streaming,
    Scalar,
}

fn time_driver(mode: DdioMode, samples: usize, packets: usize, engine: DriverEngine) -> f64 {
    let mut rng = SmallRng::seed_from_u64(0xd21f);
    let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), mode);
    let mut drv = IgbDriver::new(
        DriverConfig::paper_defaults(),
        PageAllocator::new(7),
        &mut rng,
    );
    let frames = driver_frames(packets);
    let mut runs = Vec::with_capacity(samples);
    for i in 0..=samples {
        let t = Instant::now();
        match engine {
            DriverEngine::Streaming => {
                for &f in &frames {
                    drv.receive(&mut h, f, &mut rng);
                }
            }
            DriverEngine::Scalar => {
                for &f in &frames {
                    drv.receive_scalar(&mut h, f, &mut rng);
                }
            }
        }
        let ns = t.elapsed().as_nanos() as f64 / frames.len() as f64;
        if i > 0 {
            runs.push(ns); // first pass is warm-up
        }
    }
    median(runs)
}

/// Measures the end-to-end driver receive path (streaming and
/// per-access) per DDIO mode: `samples` timed passes of `packets`
/// frames each, median ns/packet.
pub fn measure_driver(samples: usize, packets: usize) -> Vec<DriverResult> {
    modes()
        .iter()
        .map(|&(name, mode)| DriverResult {
            mode: name.to_owned(),
            driver_ns_per_packet: time_driver(mode, samples, packets, DriverEngine::Streaming),
            driver_scalar_ns_per_packet: time_driver(mode, samples, packets, DriverEngine::Scalar),
            host_threads: pc_par::max_threads(),
        })
        .collect()
}

/// Tenants per fleet measurement pass (full runs; `--smoke` shortens
/// it like it shortens the traces).
pub const FLEET_TENANTS: usize = 64;

/// One measured fleet-orchestration case: the standard template mix
/// fanned out over [`pc_par::max_threads`] workers — the `repro fleet`
/// hot path. `tenants_per_sec` is wall-clock orchestration throughput
/// (how fast the harness instantiates, runs and collects tenants);
/// `packets_per_sec` is the fleet's *simulated* aggregate line rate
/// (deterministic — the same figure the fleet report's aggregate row
/// prints), tracked so a regression that silently shrinks the simulated
/// work would show up next to the timing it distorts.
#[derive(Clone, Debug)]
pub struct FleetResult {
    /// Tenants per measurement pass.
    pub tenants: usize,
    /// Median wall-clock tenants/second over the sample passes.
    pub tenants_per_sec: f64,
    /// Simulated aggregate packets+frames/second across the fleet.
    pub packets_per_sec: f64,
}

impl FleetResult {
    /// `true` when the measurement is usable: finite positive wall-clock
    /// throughput and a non-degenerate simulated line rate (the standard
    /// mix always contains packet- and frame-unit tenants).
    pub fn is_sane(&self) -> bool {
        self.tenants > 0
            && self.tenants_per_sec.is_finite()
            && self.tenants_per_sec > 0.0
            && self.packets_per_sec.is_finite()
            && self.packets_per_sec > 0.0
    }
}

/// Measures fleet orchestration: `samples` timed passes (after an
/// untimed warm-up) of a `tenants`-tenant standard fleet at
/// [`crate::experiments::Scale::Quick`], median wall clock reported.
/// The simulated line rate comes from the outcomes themselves and is
/// identical on every pass.
pub fn measure_fleet(samples: usize, tenants: usize) -> FleetResult {
    use crate::experiments::Scale;
    use crate::fleet::{run_fleet_outcomes, FleetConfig};
    let cfg = FleetConfig::standard(tenants, 2020, Scale::Quick);
    let mut runs = Vec::with_capacity(samples);
    let mut packets_per_sec = 0.0;
    for i in 0..=samples {
        let t = Instant::now();
        let outcomes = run_fleet_outcomes(&cfg);
        let sec = t.elapsed().as_secs_f64();
        if i > 0 {
            runs.push(tenants as f64 / sec); // first pass is warm-up
        }
        packets_per_sec = outcomes
            .iter()
            .filter(|o| matches!(o.metrics.unit, "packets" | "frames"))
            .map(|o| o.metrics.units_per_second())
            .sum();
    }
    FleetResult {
        tenants,
        tenants_per_sec: median(runs),
        packets_per_sec,
    }
}

/// One timed end-to-end scenario row: wall clock for a full registry
/// scenario run. The multi-queue scenarios added with the RSS model are
/// tracked here so steering/fusion overhead shows up in the perf
/// trajectory next to the engine rows.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Registry name of the scenario.
    pub scenario: String,
    /// Median wall-clock milliseconds per full scenario run.
    pub wall_ms: f64,
    /// Worker threads on the measuring host.
    pub host_threads: usize,
}

impl ScenarioResult {
    /// `true` when the timing is usable (finite, positive).
    pub fn is_sane(&self) -> bool {
        self.wall_ms.is_finite() && self.wall_ms > 0.0
    }
}

/// The multi-queue scenarios `measure_scenarios` times, in reporting
/// order.
pub const BENCH_SCENARIOS: [&str; 4] = ["kv-store", "dns-flood", "large-transfer", "co-tenancy"];

/// Times each [`BENCH_SCENARIOS`] scenario end to end at
/// [`crate::experiments::Scale::Quick`]: `samples` passes after an
/// untimed warm-up, median wall clock per run. `shrink` divides the
/// scenario's quick work units (`--smoke` passes 4, like the traces).
pub fn measure_scenarios(samples: usize, shrink: u64) -> Vec<ScenarioResult> {
    use crate::experiments::Scale;
    BENCH_SCENARIOS
        .iter()
        .map(|&name| {
            let base = crate::scenario::find(name).expect("bench scenario registered");
            let units = (base.duration().quick / shrink).max(1);
            let spec = base.clone().with_units(units, units);
            let mut runs = Vec::with_capacity(samples);
            for i in 0..=samples {
                let t = Instant::now();
                let out = spec.run(Scale::Quick, 2020);
                assert!(!out.is_empty(), "scenario produced no report");
                if i > 0 {
                    runs.push(t.elapsed().as_secs_f64() * 1e3); // first pass is warm-up
                }
            }
            ScenarioResult {
                scenario: name.to_owned(),
                wall_ms: median(runs),
                host_threads: pc_par::max_threads(),
            }
        })
        .collect()
}

/// The adaptive-mode tax: adaptive ns/packet ÷ enabled ns/packet on the
/// streaming driver path. This is the number the incremental partition
/// re-evaluation is sized by (target ≤ 4× since PR 8; it was ~15×
/// under the full-scan evaluator). `None` unless both modes were
/// measured.
pub fn adaptive_driver_tax(drivers: &[DriverResult]) -> Option<f64> {
    let ns = |m: &str| {
        drivers
            .iter()
            .find(|d| d.mode == m)
            .map(|d| d.driver_ns_per_packet)
    };
    Some(ns("adaptive")? / ns("enabled")?)
}

/// Renders results as the `BENCH_cache.json` document (schema
/// `pc-bench-cache-v10`; the `trace_*` fields, the end-to-end `driver`
/// rows — annotated with the
/// measuring host's `host_threads` — the per-scenario `scenarios`
/// wall-clock rows, the `fleet` entry and the `adaptive_driver_tax`
/// ratio are documented in `crates/bench/README.md`).
pub fn to_json(
    results: &[CaseResult],
    drivers: &[DriverResult],
    scenarios: &[ScenarioResult],
    fleet: &FleetResult,
    trace_len: usize,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"pc-bench-cache-v10\",");
    let _ = writeln!(s, "  \"trace_len\": {trace_len},");
    let _ = writeln!(s, "  \"threads\": {},", pc_par::max_threads());
    s.push_str("  \"driver\": [\n");
    for (i, d) in drivers.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"mode\": \"{}\", \"driver_ns_per_packet\": {:.1}, \"driver_scalar_ns_per_packet\": {:.1}, \"driver_speedup\": {:.2}, \"host_threads\": {}}}",
            d.mode,
            d.driver_ns_per_packet,
            d.driver_scalar_ns_per_packet,
            d.driver_speedup(),
            d.host_threads
        );
        s.push_str(if i + 1 < drivers.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"scenarios\": [\n");
    for (i, sc) in scenarios.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"scenario\": \"{}\", \"wall_ms\": {:.1}, \"host_threads\": {}}}",
            sc.scenario, sc.wall_ms, sc.host_threads
        );
        s.push_str(if i + 1 < scenarios.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"fleet\": {{\"tenants\": {}, \"tenants_per_sec\": {:.1}, \"packets_per_sec\": {:.0}}},",
        fleet.tenants, fleet.tenants_per_sec, fleet.packets_per_sec
    );
    if let Some(tax) = adaptive_driver_tax(drivers) {
        let _ = writeln!(s, "  \"adaptive_driver_tax\": {tax:.2},");
    }
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"case\": \"{}\", \"soa_ns_per_access\": {:.2}, \"soa_accesses_per_sec\": {:.0}, \"trace_ns_per_access\": {:.2}, \"reference_ns_per_access\": {:.2}, \"speedup\": {:.2}}}",
            r.case,
            r.soa_ns_per_access,
            r.soa_accesses_per_sec(),
            r.trace_ns_per_access,
            r.reference_ns_per_access,
            r.speedup()
        );
        s.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic() {
        assert_eq!(trace(Shape::Stream, 25, 7), trace(Shape::Stream, 25, 7));
        assert_eq!(cases().len(), 9);
    }

    fn result(case: &str) -> CaseResult {
        CaseResult {
            case: case.into(),
            soa_ns_per_access: 50.0,
            trace_ns_per_access: 10.0,
            reference_ns_per_access: 150.0,
        }
    }

    fn driver_result(mode: &str) -> DriverResult {
        DriverResult {
            mode: mode.into(),
            driver_ns_per_packet: 200.0,
            driver_scalar_ns_per_packet: 240.0,
            host_threads: 4,
        }
    }

    fn fleet_result() -> FleetResult {
        FleetResult {
            tenants: 64,
            tenants_per_sec: 40.0,
            packets_per_sec: 2_000_000.0,
        }
    }

    fn scenario_result(name: &str) -> ScenarioResult {
        ScenarioResult {
            scenario: name.into(),
            wall_ms: 12.5,
            host_threads: 4,
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = vec![result("stream/enabled")];
        let d = vec![driver_result("enabled")];
        let sc = vec![scenario_result("kv-store")];
        let s = to_json(&r, &d, &sc, &fleet_result(), TRACE_LEN);
        assert!(s.contains("\"speedup\": 3.00"));
        assert!(s.contains("\"trace_ns_per_access\": 10.00"));
        assert!(s.contains("\"mode\": \"enabled\""));
        assert!(
            !s.contains("\"mode\": \"adaptive\""),
            "unmeasured modes must be omitted, not invented"
        );
        assert!(s.contains("\"driver_ns_per_packet\": 200.0"));
        assert!(s.contains("\"driver_speedup\": 1.20"));
        assert!(s.contains("\"host_threads\": 4"));
        assert!(s.contains("pc-bench-cache-v10"));
        assert!(s.contains("\"scenario\": \"kv-store\", \"wall_ms\": 12.5"));
        assert!(s.contains(
            "\"fleet\": {\"tenants\": 64, \"tenants_per_sec\": 40.0, \"packets_per_sec\": 2000000}"
        ));
        assert!(
            !s.contains("adaptive_driver_tax"),
            "tax must be omitted when either mode is unmeasured, not invented"
        );
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn adaptive_tax_is_published_when_both_modes_exist() {
        let mut adaptive = driver_result("adaptive");
        adaptive.driver_ns_per_packet = 500.0;
        let drivers = vec![driver_result("enabled"), adaptive];
        assert!((adaptive_driver_tax(&drivers).unwrap() - 2.5).abs() < 1e-9);
        let s = to_json(
            &[result("stream/enabled")],
            &drivers,
            &[scenario_result("dns-flood")],
            &fleet_result(),
            TRACE_LEN,
        );
        assert!(s.contains("\"adaptive_driver_tax\": 2.50"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert!(adaptive_driver_tax(&[driver_result("enabled")]).is_none());
    }

    #[test]
    fn fleet_sanity_gate_rejects_bogus_measurements() {
        let mut f = fleet_result();
        assert!(f.is_sane());
        f.tenants_per_sec = 0.0;
        assert!(!f.is_sane());
        f.tenants_per_sec = f64::INFINITY;
        assert!(!f.is_sane());
        f.tenants_per_sec = 40.0;
        f.packets_per_sec = f64::NAN;
        assert!(!f.is_sane());
        f.packets_per_sec = 2_000_000.0;
        f.tenants = 0;
        assert!(!f.is_sane());
    }

    #[test]
    fn scenario_sanity_gate_rejects_bogus_timings() {
        let mut sc = scenario_result("kv-store");
        assert!(sc.is_sane());
        sc.wall_ms = 0.0;
        assert!(!sc.is_sane());
        sc.wall_ms = f64::NAN;
        assert!(!sc.is_sane());
    }

    #[test]
    fn driver_sanity_gate_rejects_bogus_timings() {
        let mut d = driver_result("enabled");
        assert!(d.is_sane());
        assert!((d.driver_speedup() - 1.2).abs() < 1e-9);
        d.driver_ns_per_packet = 0.0;
        assert!(!d.is_sane());
        d.driver_ns_per_packet = f64::NAN;
        assert!(!d.is_sane());
    }

    #[test]
    fn sanity_gate_rejects_bogus_timings() {
        let mut r = result("stream/enabled");
        assert!(r.is_sane());
        r.trace_ns_per_access = 0.0;
        assert!(!r.is_sane());
        r.trace_ns_per_access = f64::NAN;
        assert!(!r.is_sane());
        r.trace_ns_per_access = 10.0;
        r.soa_ns_per_access = -1.0;
        assert!(!r.is_sane());
    }

    #[test]
    fn short_traces_for_smoke_mode() {
        assert_eq!(trace_with_len(Shape::Conflict, 25, 9, 1000).len(), 1000);
        assert_eq!(cases_with_len(500)[0].1.len(), 500);
    }
}
