//! The `attack` workload: ring-order recovery on a 1-queue bed
//! (`chasing`) and on a 4-queue RSS bed (`co-tenancy`), then closed-world
//! fingerprinting with and without DDIO.
//!
//! Receive windows here carry one or two frames, so the time goes to
//! per-call delivery, `Monitor` sampling, spy probing and the
//! sequencer/classifier. Untraced, every step is one library call
//! ([`library`]). Traced ([`traced`]), the two recovery steps mirror
//! `ScenarioSpec::report` for their specs call by call (set-up split
//! out, `recover_window` spelled as `build_monitor` → `advance_to` /
//! `Monitor::sample` → `EdgeGraph` → `SequenceQuality`), and
//! fingerprinting re-composes its capture grid sequentially.

use crate::harness::{self, count_bed, count_generated, rx, Clock, Size, Step};
use crate::trace::{count, span};
use pc_bench::experiments::{self, Scale};
use pc_bench::scenario::{Metric, ScenarioReport, ScenarioSpec};
use pc_cache::SliceSet;
use pc_core::chasing::ChasingSpy;
use pc_core::fingerprint::{
    evaluate_closed_world, CaptureConfig, EditDistanceClassifier, FingerprintAccuracy, SizeTrace,
};
use pc_core::footprint::{build_monitor, page_aligned_targets};
use pc_core::sequencer::{ground_truth_sequence, EdgeGraph, SequenceQuality, SequencerConfig};
use pc_core::{TestBed, TestBedConfig};
use pc_net::{
    ArrivalSchedule, ClosedWorld, ConstantSize, EthernetFrame, FlowCycle, LineRate, TraceReplay,
};
use pc_par::SeedDomain;
use pc_probe::{AddressPool, Monitor, SampleMatrix};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Page-aligned sets the recovery steps monitor (the registry specs' value).
const MONITORED: usize = 16;
/// Page-load noise of `experiments::fingerprint`.
const FP_NOISE: f64 = 0.25;

fn spec(name: &str, size: Size) -> ScenarioSpec {
    harness::spec(name, size, if name == "chasing" { 300 } else { 200 })
}

/// `(training, trials)` per site: `experiments::fingerprint`'s quick
/// scale, or one of each for the self-test.
fn fp_shape(size: Size) -> (usize, usize) {
    match size {
        Size::Standard => (Scale::Quick.pick(4, 8), Scale::Quick.pick(8, 40)),
        Size::Tiny => (1, 1),
    }
}

/// One traced iteration, re-composed from the layer calls: every step's
/// rendered output.
pub fn traced(seed: u64, size: Size, clock: &mut Clock) -> Vec<Step> {
    vec![
        Step::new("chasing", chasing(&spec("chasing", size), seed, clock)),
        Step::new(
            "co-tenancy",
            co_tenancy(&spec("co-tenancy", size), seed, clock),
        ),
        Step::new("fingerprint", fingerprint(seed, size, clock)),
    ]
}

/// Every step's set-up alone, its machines dropped untimed.
pub fn setup_only(seed: u64, size: Size, clock: &mut Clock) {
    clock.setup(|| recovery_setup(chasing_bed(seed), seed));
    for (_, bed) in co_tenancy_beds(&spec("co-tenancy", size), seed) {
        clock.setup(|| recovery_setup(bed, seed));
    }
}

/// Every step's rendered output, through the library entry points
/// `repro` calls: the untraced iteration and the oracle's reference.
pub fn library(seed: u64, size: Size) -> Vec<Step> {
    let fp = fingerprint_library(seed, size);
    vec![
        Step::new("chasing", spec("chasing", size).run(Scale::Quick, seed)),
        Step::new(
            "co-tenancy",
            spec("co-tenancy", size).run(Scale::Quick, seed),
        ),
        Step::new("fingerprint", render_fingerprint(&fp.0, &fp.1)),
    ]
}

/// `(DDIO, no-DDIO)` closed-world accuracy through the library: exactly
/// `experiments::fingerprint` at the standard size.
pub fn fingerprint_library(seed: u64, size: Size) -> (FingerprintAccuracy, FingerprintAccuracy) {
    match size {
        Size::Standard => {
            let r = experiments::fingerprint(Scale::Quick, seed);
            (r.with_ddio, r.without_ddio)
        }
        Size::Tiny => {
            let (training, trials) = fp_shape(size);
            let sites = ClosedWorld::paper_five_sites();
            let run = |bed, s| {
                evaluate_closed_world(
                    bed,
                    sites.sites(),
                    training,
                    trials,
                    FP_NOISE,
                    &CaptureConfig::paper_defaults(),
                    s,
                )
            };
            (
                run(TestBedConfig::paper_baseline(), seed),
                run(TestBedConfig::no_ddio(), seed + 999),
            )
        }
    }
}

/// Everything `FingerprintAccuracy` holds, for both configurations.
pub fn render_fingerprint(ddio: &FingerprintAccuracy, no_ddio: &FingerprintAccuracy) -> String {
    let mut out = String::from("config,accuracy,trials,confusion\n");
    for (name, a) in [("DDIO", ddio), ("NoDDIO", no_ddio)] {
        out.push_str(&format!(
            "{name},{},{},{:?}\n",
            a.accuracy, a.trials, a.confusion
        ));
    }
    out
}

/// A bed, its first `MONITORED` page-aligned targets, the attacker's
/// pool and a monitor over the targets: the set-up of both recovery
/// steps.
fn recovery_setup(cfg: TestBedConfig, seed: u64) -> (TestBed, Vec<SliceSet>, AddressPool, Monitor) {
    let tb = span("setup.testbed_s", || TestBed::new(cfg));
    let geom = tb.hierarchy().llc().geometry();
    let targets: Vec<SliceSet> = page_aligned_targets(&geom)
        .into_iter()
        .take(MONITORED)
        .collect();
    let pool = span("setup.address_pool_s", || {
        AddressPool::allocate(seed ^ 0x5ce, 12288)
    });
    // The monitor depends only on the cache geometry and the pool, so
    // building it before traffic is queued changes nothing downstream.
    let monitor = span("setup.monitor_s", || {
        build_monitor(tb.hierarchy().llc(), &pool, &targets)
    });
    (tb, targets, pool, monitor)
}

fn chasing_bed(seed: u64) -> TestBedConfig {
    TestBedConfig::paper_baseline().with_seed(seed)
}

/// `co-tenancy`'s beds: a single-ring baseline, then the spec's
/// multi-queue bed, each with its queue count.
fn co_tenancy_beds(spec: &ScenarioSpec, seed: u64) -> Vec<(usize, TestBedConfig)> {
    let mut queue_counts = vec![1usize];
    if spec.queues() > 1 {
        queue_counts.push(spec.queues());
    }
    queue_counts
        .into_iter()
        .map(|q| (q, chasing_bed(seed).with_queues(q)))
        .collect()
}

fn sequencer_config(samples: usize) -> SequencerConfig {
    SequencerConfig {
        samples,
        interval: 33_000,
        ..SequencerConfig::paper_defaults()
    }
}

/// `footprint::watch`, one span per layer call.
fn watch(tb: &mut TestBed, monitor: &Monitor, samples: usize, interval: u64) -> SampleMatrix {
    let mut matrix = monitor.matrix();
    span("pc-probe.monitor.prime_s", || {
        monitor.prime_all(tb.hierarchy_mut())
    });
    let mut next = tb.now() + interval;
    for _ in 0..samples {
        rx(tb, |tb| tb.advance_to(next));
        let row = span("pc-probe.monitor.sample_s", || {
            monitor.sample(tb.hierarchy_mut())
        });
        matrix.push(row);
        next += interval;
    }
    count("pc-probe.monitor.samples", samples as u64);
    matrix
}

/// `sequencer::recover_window` with the first monitor already built:
/// GET_CLEAN_SAMPLES (swap always-active targets for the page's second
/// block, resample), then the edge graph and its sequence.
fn recover(
    tb: &mut TestBed,
    pool: &AddressPool,
    targets: &[SliceSet],
    first: Monitor,
    cfg: &SequencerConfig,
) -> Vec<usize> {
    span("core.sequencer.busy_s", || {
        let mut working = targets.to_vec();
        let mut monitor = first;
        let mut clean = None;
        for _attempt in 0..2 {
            let matrix = watch(tb, &monitor, cfg.samples, cfg.interval);
            let noisy: Vec<usize> = matrix
                .activity_fractions()
                .iter()
                .enumerate()
                .filter(|(_, f)| **f > cfg.activity_cutoff)
                .map(|(i, _)| i)
                .collect();
            if noisy.is_empty() {
                clean = Some(matrix);
                break;
            }
            for i in noisy {
                working[i] = SliceSet::new(working[i].slice, working[i].set + 1);
            }
            monitor = build_monitor(tb.hierarchy().llc(), pool, &working);
        }
        let matrix = clean.unwrap_or_else(|| watch(tb, &monitor, cfg.samples, cfg.interval));
        EdgeGraph::build(&matrix)
            .make_sequence(cfg.weight_cutoff, targets.len() * cfg.max_length_factor)
    })
}

/// Quality of the recovered sequence against the ring's ground truth.
fn quality(
    tb: &TestBed,
    targets: &[SliceSet],
    recovered: &[usize],
    elapsed: u64,
) -> SequenceQuality {
    let truth = ground_truth_sequence(tb.hierarchy().llc(), tb.driver(), targets);
    span("core.levenshtein.busy_s", || {
        SequenceQuality::evaluate(recovered, &truth, elapsed)
    })
}

/// The `chasing` spec's report.
fn chasing(spec: &ScenarioSpec, seed: u64, clock: &mut Clock) -> String {
    let samples = spec.duration().quick as usize;
    let arrival = spec.arrival();
    let (mut tb, targets, pool, monitor) = clock.setup(|| recovery_setup(chasing_bed(seed), seed));
    clock.work(|| {
        let mut rng = SmallRng::seed_from_u64(seed + 17);
        let frames = span("pc-net.generate.busy_s", || {
            ArrivalSchedule::new(LineRate::gigabit())
                .frames_per_second(arrival.fps)
                .jitter(arrival.jitter)
                .generate(
                    &mut ConstantSize::blocks(2),
                    tb.now() + 1,
                    samples * 4,
                    &mut rng,
                )
        });
        count_generated(frames.len());
        rx(&mut tb, |tb| tb.enqueue(frames));
        let t0 = tb.now();
        let recovered = recover(
            &mut tb,
            &pool,
            &targets,
            monitor,
            &sequencer_config(samples),
        );
        let q = quality(&tb, &targets, &recovered, tb.now() - t0);
        count_bed(&tb);
        span("bench.render.busy_s", || {
            let mut report = ScenarioReport::new(vec![
                "sets",
                "samples",
                "levenshtein",
                "error_rate_pct",
                "recovered_len",
                "truth_len",
            ]);
            report.push_row(vec![
                Metric::Count(MONITORED as u64),
                Metric::Count(samples as u64),
                Metric::Count(q.levenshtein as u64),
                Metric::Fixed(q.error_rate * 100.0, 1),
                Metric::Count(q.recovered_len as u64),
                Metric::Count(q.truth_len as u64),
            ]);
            report.comment("paper: 9.8% error over 32 sets at full scale");
            report.render()
        })
    })
}

/// The `co-tenancy` spec's report: a single-ring baseline, then the
/// spec's multi-queue bed with the victim's flows RSS-spread.
fn co_tenancy(spec: &ScenarioSpec, seed: u64, clock: &mut Clock) -> String {
    let samples = spec.duration().quick as usize;
    let arrival = spec.arrival();
    let mut report = ScenarioReport::new(vec![
        "queues",
        "samples",
        "q0_frames",
        "levenshtein",
        "error_rate_pct",
    ]);
    for (queues, bed) in co_tenancy_beds(spec, seed) {
        let (mut tb, targets, pool, monitor) = clock.setup(|| recovery_setup(bed, seed));
        clock.work(|| {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xf7_0b);
            let frames = span("pc-net.generate.busy_s", || {
                ArrivalSchedule::new(LineRate::gigabit())
                    .frames_per_second(arrival.fps)
                    .jitter(arrival.jitter)
                    .generate(
                        &mut FlowCycle::clients(ConstantSize::blocks(2), 12, 80),
                        tb.now() + 1,
                        samples * 4,
                        &mut rng,
                    )
            });
            count_generated(frames.len());
            rx(&mut tb, |tb| tb.enqueue(frames));
            let t0 = tb.now();
            let recovered = recover(
                &mut tb,
                &pool,
                &targets,
                monitor,
                &sequencer_config(samples),
            );
            let q = quality(&tb, &targets, &recovered, tb.now() - t0);
            count_bed(&tb);
            span("bench.render.busy_s", || {
                report.push_row(vec![
                    Metric::Count(queues as u64),
                    Metric::Count(samples as u64),
                    Metric::Count(tb.queue_driver(0).packets_received()),
                    Metric::Count(q.levenshtein as u64),
                    Metric::Fixed(q.error_rate * 100.0, 1),
                ]);
            });
        });
    }
    clock.work(|| {
        span("bench.render.busy_s", || {
            report.comment("attacker monitors queue 0; RSS spreads the victim's flows");
            report.render()
        })
    })
}

/// Closed-world fingerprinting, DDIO then no-DDIO. Every capture builds
/// its own bed and spy inside the library call, so all of it is work.
fn fingerprint(seed: u64, size: Size, clock: &mut Clock) -> String {
    clock.work(|| {
        let ddio = closed_world_traced(TestBedConfig::paper_baseline(), size, seed);
        let no_ddio = closed_world_traced(TestBedConfig::no_ddio(), size, seed + 999);
        span("bench.render.busy_s", || {
            render_fingerprint(&ddio, &no_ddio)
        })
    })
}

/// `evaluate_closed_world`, sequential, one span per layer call.
fn closed_world_traced(bed: TestBedConfig, size: Size, seed: u64) -> FingerprintAccuracy {
    let (training_per_site, trials_per_site) = fp_shape(size);
    let sites = ClosedWorld::paper_five_sites();
    let sites = sites.sites();
    let capture_cfg = CaptureConfig::paper_defaults();
    let (pool, classifier) = span("core.fingerprint.train_s", || {
        let pool = AddressPool::allocate(seed ^ 0xf00d, 16384);
        let training: Vec<Vec<SizeTrace>> = (0..sites.len())
            .map(|si| {
                (0..training_per_site)
                    .map(|t| {
                        let salt = (si * 1000 + t) as u64;
                        capture(bed, &pool, &sites[si], &capture_cfg, seed, salt)
                    })
                    .collect()
            })
            .collect();
        let names = sites.iter().map(|s| s.name().to_owned()).collect();
        (pool, EditDistanceClassifier::train(names, training))
    });
    let mut confusion = vec![vec![0usize; sites.len()]; sites.len()];
    let mut correct = 0usize;
    let mut trials = 0usize;
    for si in 0..sites.len() {
        for t in 0..trials_per_site {
            let salt = (0x5a5a + si * 7717 + t) as u64;
            let trace = capture(bed, &pool, &sites[si], &capture_cfg, seed, salt);
            let pred = span("core.fingerprint.classify_s", || {
                classifier.classify(&trace).0
            });
            confusion[si][pred] += 1;
            correct += usize::from(pred == si);
            trials += 1;
        }
    }
    FingerprintAccuracy {
        accuracy: correct as f64 / trials.max(1) as f64,
        trials,
        confusion,
    }
}

/// One page load captured through the cache: `evaluate_closed_world`'s
/// per-capture bed and spy, then `fingerprint::capture_trace`.
fn capture(
    bed: TestBedConfig,
    pool: &AddressPool,
    site: &pc_net::WebsiteProfile,
    cfg: &CaptureConfig,
    seed: u64,
    salt: u64,
) -> SizeTrace {
    let mut rng = SmallRng::seed_from_u64(pc_par::stream_seed(seed, SeedDomain::Capture, salt));
    let mut tb = span("bench.construct_s", || {
        TestBed::new(bed.with_seed(seed ^ salt))
    });
    let mut spy = span("core.chasing.spy_build_s", || {
        ChasingSpy::for_ring(tb.hierarchy().llc(), pool, tb.driver())
    });
    let frames: Vec<EthernetFrame> = span("pc-net.generate.busy_s", || {
        site.page_load(FP_NOISE, &mut rng)
    });

    span("core.chasing.observe_s", || spy.prime_all(&mut tb));
    let mut rng = SmallRng::seed_from_u64(tb.now() ^ 0xf1f0);
    let schedule = span("pc-net.generate.busy_s", || {
        let mut gen = TraceReplay::new(frames.iter().map(|f| f.bytes()).collect());
        ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(cfg.packet_rate_fps)
            .generate(&mut gen, tb.now() + 50_000, frames.len(), &mut rng)
    });
    count_generated(schedule.len());
    rx(&mut tb, |tb| tb.enqueue(schedule));

    let mut trace = Vec::with_capacity(cfg.trace_len);
    let mut attempts = 0usize;
    while trace.len() < cfg.trace_len && attempts < cfg.trace_len * 2 {
        attempts += 1;
        let obs = span("core.chasing.observe_s", || {
            spy.observe_next(&mut tb, cfg.probe_interval, cfg.max_wait_samples)
        });
        count("core.chasing.calls", 1);
        if let Some(obs) = obs {
            count("core.chasing.observations", 1);
            trace.push(obs.size_class);
        }
        if tb.pending_frames() == 0 && trace.len() < cfg.trace_len {
            break;
        }
    }
    trace.resize(cfg.trace_len, 1);
    count_bed(&tb);
    trace
}
