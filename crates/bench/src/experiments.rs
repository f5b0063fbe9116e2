//! The paper's experiments: one report function per table or figure,
//! listed in the experiment [`table`] that `repro` runs.
//!
//! Each entry is an [`Experiment`]: its CLI name, its title line and a
//! function from `(Scale, seed)` to a [`ScenarioReport`] of typed rows
//! and `#` commentary — the same data-first shape as the scenario
//! registry, rendered by the one renderer, [`ScenarioReport::render`].
//! Derived numbers (Figure 6's empty-set share, Figure 14's gap to
//! DDIO, Figure 16's p99 against the baseline) are computed once, in
//! the report function, and appear as commentary.
//!
//! Every function takes a [`Scale`] so the default quick scale runs
//! minutes-long experiments in seconds while `repro --full` runs
//! paper-like parameters. All randomness is seeded: same scale, same
//! output.
//!
//! Experiments with independent repetitions (runs, packet sizes,
//! encodings, buffer counts, DDIO configurations) fan those repetitions
//! out over threads via [`pc_par::parallel_map`]; each repetition
//! derives its own seed and results are collected in input order, so
//! output is byte-identical to a sequential run.

use crate::scenario::{Metric, ScenarioReport};
use pc_cache::{CacheGeometry, SliceSet};
use pc_core::covert::{lfsr_symbols, run_channel, run_chased_channel, ChannelConfig, Encoding};
use pc_core::fingerprint::{
    evaluate_closed_world, login_trace_pair, CaptureConfig, FingerprintAccuracy,
};
use pc_core::footprint::{
    block_row_targets, build_monitor, mapping_distribution, page_aligned_targets, ring_histogram,
    watch,
};
use pc_core::sequencer::{ground_truth_sequence, recover_window, SequenceQuality, SequencerConfig};
use pc_core::{TestBed, TestBedConfig};
use pc_defense::eval::{fig14_nginx_throughput, fig15_traffic, fig16_tail_latency, BaselineCore};
use pc_net::{ArrivalSchedule, ConstantSize, LineRate, LoginOutcome};
use pc_probe::AddressPool;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// How big to run each experiment.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Scale {
    /// Seconds per experiment — the default, used by perfbench and CI.
    Quick,
    /// Paper-like parameters — used by `repro --full`.
    Full,
}

impl Scale {
    /// Picks the quick- or full-scale value (shared with the scenario
    /// registry, which scales its workloads the same way).
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// One entry of the experiment [`table`]: what `repro <name>` runs.
#[derive(Copy, Clone, Debug)]
pub struct Experiment {
    /// CLI name (`repro fig5`).
    pub name: &'static str,
    /// Title line printed above the report.
    pub title: &'static str,
    /// Runs the experiment. Deterministic for a fixed `(scale, seed)`
    /// at any thread count.
    pub report: fn(Scale, u64) -> ScenarioReport,
}

/// Every paper experiment, in the paper's order — the order `repro
/// all` runs them in.
pub fn table() -> &'static [Experiment] {
    const fn e(
        name: &'static str,
        title: &'static str,
        report: fn(Scale, u64) -> ScenarioReport,
    ) -> Experiment {
        Experiment {
            name,
            title,
            report,
        }
    }
    // One entry per line, so the table reads as the paper's list.
    #[rustfmt::skip]
    static TABLE: [Experiment; 15] = [
        e("fig5", "Figure 5 — ring buffers per page-aligned cache set (one instance)", fig5),
        e("fig6", "Figure 6 — distribution of buffers-per-set over many driver inits", fig6),
        e("fig7", "Figure 7 — page-aligned set activity: idle / receiving / idle", fig7),
        e("fig8", "Figure 8 — block-row activity vs packet size (events)", fig8),
        e("table1", "Table I — ring-buffer sequence recovery", table1),
        e("fig10", "Figure 10 — decoding the '2 0 1 2 0 1 …' ternary stream", fig10),
        e("fig11", "Figure 11 — single-buffer covert channel", fig11),
        e("fig12ab", "Figure 12a/b — bandwidth/error vs monitored buffers", fig12ab),
        e("fig12cd", "Figure 12c/d — chasing all buffers: out-of-sync and error vs rate", fig12cd),
        e("fig13", "Figure 13 — hotcrp login: original vs recovered packet sizes", fig13),
        e("fingerprint", "§V — closed-world website fingerprinting (5 sites)", fingerprint_report),
        e("table2", "Table II — baseline processor (constants, for reference)", table2),
        e("fig14", "Figure 14 — Nginx throughput: adaptive partitioning vs DDIO", fig14),
        e("fig15", "Figure 15 — memory traffic and LLC miss rate vs DDIO mode", fig15),
        e("fig16", "Figure 16 — HTTP tail latency under each defense (140k req/s)", fig16),
    ];
    &TABLE
}

/// Looks an experiment up by CLI name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    table().iter().find(|e| e.name == name)
}

fn count(n: usize) -> Metric {
    Metric::Count(n as u64)
}

fn text(s: impl Into<String>) -> Metric {
    Metric::Text(s.into())
}

/// Figure 5: one driver instance's buffers-per-page-aligned-set
/// histogram (256 entries summing to the ring size).
fn fig5(_: Scale, seed: u64) -> ScenarioReport {
    let tb = TestBed::new(TestBedConfig::paper_baseline().with_seed(seed));
    let hist = ring_histogram(tb.hierarchy().llc(), tb.driver());
    let mut r = ScenarioReport::new(vec!["set", "buffers"]);
    for (set, &n) in hist.iter().enumerate() {
        r.push_row(vec![count(set), count(n)]);
    }
    let empty = hist.iter().filter(|&&n| n == 0).count();
    let max = hist.iter().max().copied().unwrap_or(0);
    r.comment(format!(
        "summary: {empty}/256 sets empty, max buffers on one set = {max}"
    ));
    r.comment("paper:   ~35% of sets empty; one set holds 5 in the example");
    r
}

/// Figure 6: distribution of buffers-per-set over many driver
/// initializations: (instance, set) pairs holding `k` buffers.
fn fig6(scale: Scale, seed: u64) -> ScenarioReport {
    let instances = scale.pick(100, 1000);
    let dist = mapping_distribution(&CacheGeometry::xeon_e5_2660(), instances, seed);
    let total: usize = dist.iter().sum();
    let share = |n: usize| n as f64 / total as f64;
    let mut r = ScenarioReport::new(vec!["buffers_mapped_to_set", "instances", "fraction"]);
    for (k, &n) in dist.iter().enumerate() {
        r.push_row(vec![count(k), count(n), Metric::Fixed(share(n), 4)]);
    }
    r.comment(format!(
        "summary: {:.1}% of sets empty (paper: ~35%); >4 buffers: {:.3}% (paper: rare)",
        share(dist[0]) * 100.0,
        share(dist.iter().skip(5).sum()) * 100.0
    ));
    r
}

/// Figure 7: monitor all 256 page-aligned sets through an idle phase, a
/// broadcast-receiving phase, and a final idle phase.
fn fig7(scale: Scale, seed: u64) -> ScenarioReport {
    let mut tb = TestBed::new(TestBedConfig::paper_baseline().with_seed(seed));
    let geom = tb.hierarchy().llc().geometry();
    let targets = page_aligned_targets(&geom);
    let pool = AddressPool::allocate(seed ^ 0x7ea, 12288);
    let monitor = build_monitor(tb.hierarchy().llc(), &pool, &targets);

    let per_phase = scale.pick(250, 2_500);
    let interval = 400_000u64; // ~8.25 kHz probe over 256 sets
    let mut r = ScenarioReport::new(vec!["phase", "samples", "active_sets", "total_events"]);
    for (phase, name) in ["idle", "receiving", "idle"].into_iter().enumerate() {
        if phase == 1 {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xf19);
            let sent = scale.pick(30_000, 300_000);
            let frames = ArrivalSchedule::new(LineRate::gigabit())
                .frames_per_second(200_000)
                .generate(&mut ConstantSize::blocks(2), tb.now() + 1, sent, &mut rng);
            tb.enqueue(frames);
        }
        let per_set = watch(&mut tb, &monitor, per_phase, interval).activity_counts();
        if phase == 1 {
            // Drop any leftover queued frames before the trailing idle
            // phase (the sender stopped).
            tb.drain();
        }
        r.push_row(vec![
            text(name),
            count(per_phase),
            count(per_set.iter().filter(|&&c| c > 0).count()),
            count(per_set.iter().sum()),
        ]);
    }
    r.comment("paper: white dots (activity) appear only while packets stream in,");
    r.comment("       on the sets that host at least one ring buffer (~65% of 256)");
    r
}

/// Figure 8: activity events per block row (0..3) for constant streams
/// of 1..4-block packets.
fn fig8(scale: Scale, seed: u64) -> ScenarioReport {
    // One independent capture per packet size, fanned out over threads.
    let per_size = pc_par::parallel_map((1..=4u32).collect(), |size| {
        let mut tb = TestBed::new(TestBedConfig::paper_baseline().with_seed(seed));
        let geom = tb.hierarchy().llc().geometry();
        // Monitor rows 0..3 jointly (labels encode row * 256 + column).
        let mut targets: Vec<SliceSet> = Vec::new();
        for row in 0..4 {
            targets.extend(block_row_targets(&geom, row));
        }
        let pool = AddressPool::allocate(seed ^ 0x8f1, 16384);
        let monitor = build_monitor(tb.hierarchy().llc(), &pool, &targets);

        let samples = scale.pick(60, 400);
        let mut rng = SmallRng::seed_from_u64(seed ^ u64::from(size));
        let frames = ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(200_000)
            .generate(
                &mut ConstantSize::blocks(size),
                tb.now() + 1,
                samples * 90,
                &mut rng,
            );
        tb.enqueue(frames);
        let matrix = watch(&mut tb, &monitor, samples, 1_500_000);
        matrix.activity_counts()
    });
    let mut r = ScenarioReport::new(vec![
        "block_row",
        "1_block_pkts",
        "2_block_pkts",
        "3_block_pkts",
        "4_block_pkts",
    ]);
    for row in 0..4 {
        let mut cells = vec![text(format!("block{row}"))];
        cells.extend(
            per_size
                .iter()
                .map(|counts| count(counts[row * 256..(row + 1) * 256].iter().sum())),
        );
        r.push_row(cells);
    }
    r.comment("paper: activity on the diagonal and above; 1-block packets still");
    r.comment("       light block 1 (the driver's unconditional prefetch)");
    r
}

/// Table I: recover the ring order of 32 monitored page-aligned sets
/// while a remote sender streams 2-block broadcast frames, over several
/// independent runs.
fn table1(scale: Scale, seed: u64) -> ScenarioReport {
    let monitored = 32usize;
    let samples = scale.pick(12_000, 100_000);
    let packet_rate = 200_000u64;
    let runs = scale.pick(2, 5);
    // Each run is an independent machine + seed: perfect thread fan-out.
    // Per-run streams come from the workspace seed-splitting helper
    // (Repetition domain) instead of ad-hoc `seed + run` arithmetic,
    // which could collide with a neighboring experiment's offsets.
    let results = pc_par::parallel_map((0..runs).collect(), |run| {
        let run_seed = pc_par::stream_seed(seed, pc_par::SeedDomain::Repetition, run);
        let mut tb = TestBed::new(TestBedConfig::paper_baseline().with_seed(run_seed));
        let geom = tb.hierarchy().llc().geometry();
        let targets: Vec<SliceSet> = page_aligned_targets(&geom)
            .into_iter()
            .take(monitored)
            .collect();
        let pool = AddressPool::allocate(seed ^ 0x7ab1e, 12288);
        let mut rng = SmallRng::seed_from_u64(pc_par::mix_seed(run_seed, 1));
        let frames = ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(packet_rate)
            .jitter(0.02)
            .generate(
                &mut ConstantSize::blocks(2),
                tb.now() + 1,
                samples * 4,
                &mut rng,
            );
        tb.enqueue(frames);
        let cfg = SequencerConfig {
            samples,
            // ~100 kHz probing: about one monitored-buffer event per
            // sample at 200 k fps with 32/256 sets watched.
            interval: 33_000,
            ..SequencerConfig::paper_defaults()
        };
        let t0 = tb.now();
        let recovered = recover_window(&mut tb, &pool, &targets, &cfg);
        let elapsed = tb.now() - t0;
        let truth = ground_truth_sequence(tb.hierarchy().llc(), tb.driver(), &targets);
        SequenceQuality::evaluate(&recovered, &truth, elapsed)
    });
    let mut r = ScenarioReport::new(vec![
        "run",
        "levenshtein",
        "error_rate_pct",
        "longest_mismatch",
        "recovered_len",
        "truth_len",
        "minutes",
    ]);
    for (i, q) in results.iter().enumerate() {
        r.push_row(vec![
            count(i),
            count(q.levenshtein),
            Metric::Fixed(q.error_rate * 100.0, 1),
            count(q.longest_mismatch),
            count(q.recovered_len),
            count(q.truth_len),
            Metric::Fixed(q.minutes(), 1),
        ]);
    }
    let mean = |f: fn(&SequenceQuality) -> f64| {
        results.iter().map(f).sum::<f64>() / results.len().max(1) as f64
    };
    r.comment(format!(
        "mean: lev {:.1}, error {:.1}% (paper: 25.2, 9.8%), longest mismatch {:.1} (paper 5.2)",
        mean(|q| q.levenshtein as f64),
        mean(|q| q.error_rate * 100.0),
        mean(|q| q.longest_mismatch as f64)
    ));
    r.comment(format!(
        "params: {monitored} sets, {samples} samples, {packet_rate} pkt/s (paper: 32 sets, 100k samples, 0.2M pkt/s)"
    ));
    r
}

/// Figure 10: transmit the paper's "2012012012…" pattern and decode it.
/// A header-less report: one `sent:` and one `decoded:` line.
fn fig10(_: Scale, seed: u64) -> ScenarioReport {
    let mut cfg_bed = TestBedConfig::paper_baseline().with_seed(seed);
    cfg_bed.driver.ring_size = 256;
    let mut tb = TestBed::new(cfg_bed);
    let pool = AddressPool::allocate(seed ^ 0xf1610, 12288);
    let sent: Vec<u8> = (0..60).map(|i| [2u8, 0, 1][i % 3]).collect();
    let cfg = ChannelConfig {
        encoding: Encoding::Ternary,
        monitored_buffers: 1,
        packet_rate_fps: 400_000,
        probe_rate_hz: 16_500, // one sample per 200k cycles, as in the figure
        window: 3,
        background_noise_aps: 10_000,
    };
    let report = run_channel(&mut tb, &pool, &sent, &cfg);
    let symbols = |v: &[u8]| {
        v.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut r = ScenarioReport::new(Vec::new());
    r.push_row(vec![text(format!("sent:    {}", symbols(&sent)))]);
    r.push_row(vec![text(format!(
        "decoded: {}",
        symbols(&report.received)
    ))]);
    r.comment(format!("error rate: {:.1}%", report.error_rate * 100.0));
    r
}

/// Figure 11: single-buffer channel bandwidth and error rate across
/// probe rates, for binary and ternary encodings.
fn fig11(scale: Scale, seed: u64) -> ScenarioReport {
    let symbols_n = scale.pick(60, 600);
    let mut combos = Vec::new();
    for (ename, enc) in [("Binary", Encoding::Binary), ("Ternary", Encoding::Ternary)] {
        for probe_khz in [7u64, 14, 28] {
            combos.push((ename, enc, probe_khz));
        }
    }
    let rows = pc_par::parallel_map(combos, |(ename, enc, probe_khz)| {
        let mut tb = TestBed::new(TestBedConfig::paper_baseline().with_seed(seed));
        let pool = AddressPool::allocate(seed ^ 0xf1611, 12288);
        let symbols = lfsr_symbols(enc, symbols_n, 0x2fd1);
        let cfg = ChannelConfig {
            encoding: enc,
            monitored_buffers: 1,
            packet_rate_fps: 500_000,
            probe_rate_hz: probe_khz * 1_000,
            window: 3,
            background_noise_aps: 100_000,
        };
        let report = run_channel(&mut tb, &pool, &symbols, &cfg);
        vec![
            text(ename),
            Metric::Count(probe_khz),
            Metric::Fixed(report.bandwidth_bps, 0),
            Metric::Fixed(report.error_rate * 100.0, 1),
        ]
    });
    let mut r = ScenarioReport::new(vec![
        "encoding",
        "probe_khz",
        "bandwidth_bps",
        "error_rate_pct",
    ]);
    rows.into_iter().for_each(|row| r.push_row(row));
    r.comment("paper: ~1953 bps binary / ~3095 bps ternary, error falls as probe");
    r.comment("       rate rises 7→28 kHz, binary ≤ ternary error");
    r
}

/// Figure 12a/b: bandwidth scales with the number of monitored buffers;
/// error jumps at 16.
fn fig12ab(scale: Scale, seed: u64) -> ScenarioReport {
    let rows = pc_par::parallel_map(vec![1usize, 2, 4, 8, 16], |buffers| {
        let symbols_n = scale.pick(40, 400) * buffers.min(4);
        let mut tb = TestBed::new(TestBedConfig::paper_baseline().with_seed(seed));
        let pool = AddressPool::allocate(seed ^ 0xf1612, 12288);
        let symbols = lfsr_symbols(Encoding::Ternary, symbols_n, 0x11d7);
        let cfg = ChannelConfig {
            encoding: Encoding::Ternary,
            monitored_buffers: buffers,
            packet_rate_fps: 400_000,
            probe_rate_hz: 28_000,
            window: 2,
            background_noise_aps: 20_000,
        };
        let report = run_channel(&mut tb, &pool, &symbols, &cfg);
        vec![
            count(buffers),
            Metric::Fixed(report.bandwidth_bps / 1_000.0, 1),
            Metric::Fixed(report.error_rate * 100.0, 1),
        ]
    });
    let mut r = ScenarioReport::new(vec![
        "monitored_buffers",
        "bandwidth_kbps",
        "error_rate_pct",
    ]);
    rows.into_iter().for_each(|row| r.push_row(row));
    r.comment("paper: bandwidth ~doubles per doubling (to 24.5 kbps at 16);");
    r.comment("       error roughly flat until a jump at 16 buffers");
    r
}

/// Figure 12c/d: chase every buffer, one ternary symbol per packet, at
/// increasing offered bandwidth.
fn fig12cd(scale: Scale, seed: u64) -> ScenarioReport {
    let symbols_n = scale.pick(1_500, 8_000);
    let rows = pc_par::parallel_map(vec![80u64, 160, 320, 640], |bandwidth_kbps| {
        let packet_rate =
            (bandwidth_kbps as f64 * 1_000.0 / Encoding::Ternary.bits_per_symbol()) as u64;
        let mut cfg_bed = TestBedConfig::paper_baseline().with_seed(seed);
        cfg_bed.driver.ring_size = 256;
        let mut tb = TestBed::new(cfg_bed);
        let pool = AddressPool::allocate(seed ^ 0xf1613, 16384);
        let symbols = lfsr_symbols(Encoding::Ternary, symbols_n, 0x3c3c);
        let report = run_chased_channel(&mut tb, &pool, &symbols, packet_rate);
        vec![
            Metric::Count(bandwidth_kbps),
            Metric::Fixed(report.out_of_sync_rate * 100.0, 1),
            Metric::Fixed(report.error_rate * 100.0, 1),
        ]
    });
    let mut r = ScenarioReport::new(vec!["bandwidth_kbps", "out_of_sync_pct", "error_rate_pct"]);
    rows.into_iter().for_each(|row| r.push_row(row));
    r.comment("paper: out-of-sync ~constant with rate; error jumps at 640 kbps");
    r.comment("       (packets begin arriving out of order)");
    r
}

/// Figure 13: capture both hotcrp login outcomes through the cache,
/// original against recovered packet sizes.
fn fig13(_: Scale, seed: u64) -> ScenarioReport {
    let capture = CaptureConfig::paper_defaults();
    let bed = TestBedConfig::paper_baseline();
    let (ok_original, ok_recovered) =
        login_trace_pair(bed, LoginOutcome::Successful, &capture, seed);
    let (fail_original, fail_recovered) =
        login_trace_pair(bed, LoginOutcome::Unsuccessful, &capture, seed + 1);
    let mut r = ScenarioReport::new(vec![
        "packet",
        "ok_original",
        "ok_recovered",
        "fail_original",
        "fail_recovered",
    ]);
    for i in 0..ok_original.len() {
        let mut cells = vec![count(i)];
        for trace in [&ok_original, &ok_recovered, &fail_original, &fail_recovered] {
            cells.push(Metric::Count(u64::from(trace[i])));
        }
        r.push_row(cells);
    }
    r.comment("paper: recovered traces preserve the size pattern that separates");
    r.comment("       successful from unsuccessful logins");
    r
}

/// §V closed-world fingerprinting accuracy, with and without DDIO.
#[derive(Clone, Debug)]
pub struct FingerprintResult {
    /// Accuracy with DDIO enabled (paper: 89.7 %).
    pub with_ddio: FingerprintAccuracy,
    /// Accuracy with DDIO disabled (paper: 86.5 %).
    pub without_ddio: FingerprintAccuracy,
}

/// The §V experiment: train on clean-ish captures, classify noisy ones.
///
/// The site×trial capture grid inside [`evaluate_closed_world`] is
/// thread-parallel (per-capture seeds, ordered collection), so the two
/// DDIO configurations run back to back and each one saturates the
/// worker pool — much better load balance than the old two-way split of
/// the experiment that dominates `repro all` wall time.
pub fn fingerprint(scale: Scale, seed: u64) -> FingerprintResult {
    let training = scale.pick(4, 8);
    let trials = scale.pick(8, 40); // per site
    let noise = 0.25;
    let sites = pc_net::ClosedWorld::paper_five_sites();
    let capture = CaptureConfig::paper_defaults();
    let run = |bed, run_seed| {
        evaluate_closed_world(
            bed,
            sites.sites(),
            training,
            trials,
            noise,
            &capture,
            run_seed,
        )
    };
    FingerprintResult {
        with_ddio: run(TestBedConfig::paper_baseline(), seed),
        without_ddio: run(TestBedConfig::no_ddio(), seed + 999),
    }
}

/// The `fingerprint` table entry: [`fingerprint`]'s accuracies, then
/// the DDIO confusion matrix as commentary.
fn fingerprint_report(scale: Scale, seed: u64) -> ScenarioReport {
    let res = fingerprint(scale, seed);
    let mut r = ScenarioReport::new(vec!["config", "accuracy_pct", "trials"]);
    for (config, acc) in [("DDIO", &res.with_ddio), ("NoDDIO", &res.without_ddio)] {
        r.push_row(vec![
            text(config),
            Metric::Fixed(acc.accuracy * 100.0, 1),
            count(acc.trials),
        ]);
    }
    r.comment("paper: 89.7% with DDIO, 86.5% without (1000 trials)");
    r.comment("confusion (DDIO): rows=truth, cols=predicted");
    for row in &res.with_ddio.confusion {
        r.comment(format!("  {row:?}"));
    }
    r
}

/// Table II: the baseline core description, a header-less report of
/// one line per parameter.
fn table2(_: Scale, _: u64) -> ScenarioReport {
    let mut r = ScenarioReport::new(Vec::new());
    for line in BaselineCore::paper().to_string().lines() {
        r.push_row(vec![text(line)]);
    }
    r
}

/// Figure 14: Nginx throughput of adaptive partitioning against DDIO
/// at 20/11/8 MiB, with the adaptive gap per LLC size.
fn fig14(scale: Scale, seed: u64) -> ScenarioReport {
    let rows = fig14_nginx_throughput(scale.pick(400, 4_000), seed);
    let mut r = ScenarioReport::new(vec!["llc_mib", "config", "krps"]);
    // (adaptive, DDIO) krps per LLC size, reported smallest size first.
    let mut by_size: std::collections::BTreeMap<u32, (f64, f64)> = Default::default();
    for row in &rows {
        r.push_row(vec![
            Metric::Count(u64::from(row.llc_mib)),
            text(row.config),
            Metric::Fixed(row.krps, 1),
        ]);
        let e = by_size.entry(row.llc_mib).or_default();
        if row.config == "DDIO" {
            e.1 = row.krps;
        } else {
            e.0 = row.krps;
        }
    }
    for (mib, (adaptive, ddio)) in by_size {
        r.comment(format!(
            "{mib} MiB: adaptive within {:.1}% of DDIO (paper: ≤2.7%)",
            (1.0 - adaptive / ddio) * 100.0
        ));
    }
    r
}

/// Figure 15: normalized memory traffic and LLC miss rate per workload
/// and DDIO mode.
fn fig15(scale: Scale, seed: u64) -> ScenarioReport {
    let mut r = ScenarioReport::new(vec![
        "workload",
        "config",
        "norm_mem_read",
        "norm_mem_write",
        "llc_miss_rate",
    ]);
    for row in fig15_traffic(scale.pick(1, 10), seed) {
        r.push_row(vec![
            text(row.workload),
            text(row.config),
            Metric::Fixed(row.norm_read, 3),
            Metric::Fixed(row.norm_write, 3),
            Metric::Fixed(row.miss_rate, 3),
        ]);
    }
    r.comment("paper: DDIO and adaptive partitioning both cut memory traffic vs");
    r.comment("       No-DDIO; adaptive stays within ~2% of DDIO");
    r
}

/// Figure 16: tail latency per defense, one row of percentiles each,
/// with every defense's p99 against the vulnerable baseline.
fn fig16(scale: Scale, seed: u64) -> ScenarioReport {
    let rows = fig16_tail_latency(scale.pick(8_000, 60_000), seed);
    let mut r = ScenarioReport::new(vec![
        "defense", "p25_ms", "p50_ms", "p90_ms", "p99_ms", "p999_ms", "p9999_ms",
    ]);
    for defense in rows.chunk_by(|a, b| a.defense == b.defense) {
        let mut cells = vec![text(defense[0].defense)];
        cells.extend(defense.iter().map(|p| Metric::Fixed(p.latency_ms, 2)));
        r.push_row(cells);
    }
    let p99: Vec<_> = rows
        .iter()
        .filter(|p| (p.percentile - 99.0).abs() < 1e-9)
        .collect();
    if let Some(base) = p99.iter().find(|p| p.defense.starts_with("Vulnerable")) {
        for p in &p99 {
            r.comment(format!(
                "p99 vs baseline: {}: {:+.1}%",
                p.defense,
                (p.latency_ms / base.latency_ms - 1.0) * 100.0
            ));
        }
        r.comment("paper: adaptive +3.1% p99; fully randomized +41.8% p99");
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_sums_to_ring() {
        let r = fig5(Scale::Quick, 3);
        assert_eq!(r.rows.len(), 256, "one row per page-aligned set");
        let buffers: u64 = r
            .rows
            .iter()
            .map(|row| match row[1] {
                Metric::Count(n) => n,
                ref other => panic!("buffers cell {other:?}"),
            })
            .sum();
        assert_eq!(buffers, 256);
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
