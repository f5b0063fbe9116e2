//! The `flood` workload: the `line-rate-sweep`, `dns-flood`, `kv-store`
//! and `large-transfer` specs, drained with no spy.
//!
//! These cover 64–1514 B frames on 1 and 10 GbE, 1 and 4 rx queues,
//! under NoDDIO, DDIO and Adaptive. Windows fuse thousands of frames, so
//! nearly all the work is driver op emission, op packing, slice-sharded
//! LLC replay, deferred no-DDIO reads and adaptive re-evaluation.
//! Untraced, every step is one `ScenarioSpec::run` ([`library`]).
//! Traced ([`traced`]), each step mirrors `ScenarioSpec::report` for its
//! spec call by call, with machine construction split out as set-up and
//! the line-rate combos run sequentially instead of through
//! `pc_par::parallel_map`.

use crate::harness::{self, count_bed, count_generated, rx, Clock, Size, Step};
use crate::trace::span;
use pc_bench::experiments::Scale;
use pc_bench::scenario::{Metric, ScenarioReport, ScenarioSpec};
use pc_cache::DdioMode;
use pc_core::{TestBed, TestBedConfig};
use pc_net::{
    ArrivalSchedule, ConstantSize, EthernetFrame, FlowCycle, LineRate, ScheduledFrame, TraceReplay,
    UniformSizes,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The flow-steered specs, in step order.
const FLOW_SPECS: [&str; 3] = ["dns-flood", "kv-store", "large-transfer"];

fn spec(name: &str, size: Size) -> ScenarioSpec {
    harness::spec(
        name,
        size,
        if name == "line-rate-sweep" { 400 } else { 300 },
    )
}

/// One traced iteration, re-composed from the layer calls: every step's
/// rendered output.
pub fn traced(seed: u64, size: Size, clock: &mut Clock) -> Vec<Step> {
    let mut steps = vec![Step::new(
        "line-rate-sweep",
        line_rate(&spec("line-rate-sweep", size), seed, clock),
    )];
    for name in FLOW_SPECS {
        steps.push(Step::new(
            name,
            flow_traffic(&spec(name, size), seed, clock),
        ));
    }
    steps
}

/// Every step's set-up alone, its machines dropped untimed.
pub fn setup_only(seed: u64, size: Size, clock: &mut Clock) {
    for name in FLOW_SPECS {
        let spec = spec(name, size);
        let first_mode = spec.modes().entries()[0].1;
        clock.setup(|| {
            span("setup.testbed_s", || {
                TestBed::new(flow_bed(&spec, seed, first_mode))
            })
        });
    }
}

/// Every step's rendered output through `ScenarioSpec::run`: the
/// untraced iteration and the oracle's reference.
pub fn library(seed: u64, size: Size) -> Vec<Step> {
    let mut steps = vec![Step::new(
        "line-rate-sweep",
        spec("line-rate-sweep", size).run(Scale::Quick, seed),
    )];
    for name in FLOW_SPECS {
        steps.push(Step::new(name, spec(name, size).run(Scale::Quick, seed)));
    }
    steps
}

/// One line-rate combo: `(link name, link, frame bytes)`.
type Combo = (&'static str, LineRate, u32);

/// The line-rate sweep: one machine per size × link at wire speed. Each
/// combo builds its bed inside the spec's fan-out, so the construction
/// is work.
fn line_rate(spec: &ScenarioSpec, seed: u64, clock: &mut Clock) -> String {
    let count = spec.duration().quick as usize;
    let mut combos: Vec<Combo> = Vec::new();
    for (link_name, link) in [
        ("1GbE", LineRate::gigabit()),
        ("10GbE", LineRate::ten_gigabit()),
    ] {
        for bytes in [64u32, 256, 512, 1514] {
            combos.push((link_name, link, bytes));
        }
    }
    clock.work(|| {
        let one = |(link_name, link, bytes): Combo| {
            let mut tb = span("bench.construct_s", || {
                TestBed::new(TestBedConfig::paper_baseline().with_seed(seed))
            });
            let fps = link.max_frames_per_second(bytes);
            let mut rng = SmallRng::seed_from_u64(seed ^ u64::from(bytes));
            let frames = span("pc-net.generate.busy_s", || {
                ArrivalSchedule::new(link).frames_per_second(fps).generate(
                    &mut ConstantSize::new(EthernetFrame::clamped(bytes)),
                    tb.now() + 1,
                    count,
                    &mut rng,
                )
            });
            count_generated(frames.len());
            rx(&mut tb, |tb| tb.enqueue(frames));
            let t0 = tb.now();
            rx(&mut tb, TestBed::drain);
            let elapsed = tb.now() - t0;
            count_bed(&tb);
            let miss = tb.hierarchy().llc().stats().miss_rate();
            (link_name, bytes, fps, elapsed / count as u64, miss)
        };
        let rows: Vec<_> = combos.into_iter().map(one).collect();
        span("bench.render.busy_s", || {
            let mut report = ScenarioReport::new(vec![
                "link",
                "frame_bytes",
                "wire_fps",
                "cycles_per_frame",
                "llc_miss_rate",
            ]);
            for (link, bytes, fps, cpf, miss) in rows {
                report.push_row(vec![
                    Metric::Text(link.to_string()),
                    Metric::Count(u64::from(bytes)),
                    Metric::Count(fps),
                    Metric::Count(cpf),
                    Metric::Fixed(miss, 3),
                ]);
            }
            report.comment("paper cites ~500k fps for ~192-byte frames on 1GbE");
            report.render()
        })
    })
}

/// The spec's arrival schedule: its frame-size shape cycled over a
/// synthetic client population, so RSS spreads it across rx queues.
fn flow_schedule(spec: &ScenarioSpec, count: usize, start: u64, seed: u64) -> Vec<ScheduledFrame> {
    let arrival = spec.arrival();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xf7_0b);
    let sched = ArrivalSchedule::new(LineRate::gigabit())
        .frames_per_second(arrival.fps)
        .jitter(arrival.jitter);
    match spec.name() {
        "kv-store" => {
            // 80/20 GET/SET: small request frames vs fatter value writes.
            let mut trng = SmallRng::seed_from_u64(seed ^ 0x6e7);
            let sizes = (0..count)
                .map(|_| {
                    if trng.gen::<f64>() < 0.8 {
                        trng.gen_range(64..=160)
                    } else {
                        trng.gen_range(320..=1024)
                    }
                })
                .collect();
            let mut gen = FlowCycle::clients(TraceReplay::new(sizes), 16, 6379);
            sched.generate(&mut gen, start, count, &mut rng)
        }
        "dns-flood" => {
            let mut gen = FlowCycle::clients(UniformSizes::new(64, 96), 64, 53);
            sched.generate(&mut gen, start, count, &mut rng)
        }
        "large-transfer" => {
            let mut gen = FlowCycle::clients(ConstantSize::new(EthernetFrame::mtu_sized()), 4, 443);
            sched.generate(&mut gen, start, count, &mut rng)
        }
        other => unreachable!("`{other}` is not a flow spec"),
    }
}

/// A flow spec's bed in `mode`.
fn flow_bed(spec: &ScenarioSpec, seed: u64, mode: DdioMode) -> TestBedConfig {
    TestBedConfig {
        ddio: mode,
        ..TestBedConfig::paper_baseline()
            .with_seed(seed)
            .with_queues(spec.queues())
    }
}

/// A flow spec's report: one row per DDIO mode on one multi-queue bed,
/// built once and reset between modes (as the spec's scratch does).
fn flow_traffic(spec: &ScenarioSpec, seed: u64, clock: &mut Clock) -> String {
    let frames_n = spec.duration().quick as usize;
    let queues = spec.queues();
    let modes = spec.modes().entries();
    let mut tb = clock.setup(|| {
        span("setup.testbed_s", || {
            TestBed::new(flow_bed(spec, seed, modes[0].1))
        })
    });
    clock.work(|| {
        let mut report = ScenarioReport::new(vec![
            "config",
            "queues",
            "frames",
            "cycles_per_frame",
            "llc_miss_rate",
            "dram_lines",
        ]);
        for (i, (name, mode)) in modes.iter().enumerate() {
            if i > 0 {
                span("bench.construct_s", || {
                    tb.reset(flow_bed(spec, seed, *mode))
                });
            }
            let schedule = span("pc-net.generate.busy_s", || {
                flow_schedule(spec, frames_n, tb.now() + 1, seed)
            });
            count_generated(schedule.len());
            rx(&mut tb, |tb| tb.enqueue(schedule));
            let t0 = tb.now();
            rx(&mut tb, TestBed::drain);
            let elapsed = tb.now() - t0;
            count_bed(&tb);
            let stats = tb.hierarchy().llc().stats();
            let dram_lines = tb.hierarchy().memory_stats().total();
            span("bench.render.busy_s", || {
                report.push_row(vec![
                    Metric::Text(name.to_string()),
                    Metric::Count(queues as u64),
                    Metric::Count(frames_n as u64),
                    Metric::Count(elapsed / frames_n as u64),
                    Metric::Fixed(stats.miss_rate(), 3),
                    Metric::Count(dram_lines),
                ]);
            });
        }
        span("bench.render.busy_s", || {
            report.comment(format!("{queues} rx queues, Toeplitz flow steering"));
            report.render()
        })
    })
}
