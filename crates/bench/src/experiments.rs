//! One harness function per paper table/figure.
//!
//! Every function takes a [`Scale`] so the default quick scale runs
//! minutes-long experiments in seconds while `repro --full` runs
//! paper-like parameters. All randomness is seeded: same scale, same
//! output.
//!
//! Experiments with independent repetitions (runs, packet sizes,
//! encodings, buffer counts, DDIO configurations) fan those repetitions
//! out over threads via [`crate::par::parallel_map`]; each repetition
//! derives its own seed and results are collected in input order, so
//! output is byte-identical to a sequential run.

use pc_cache::{CacheGeometry, SliceSet};
use pc_core::covert::{lfsr_symbols, run_channel, run_chased_channel, ChannelConfig, Encoding};
use pc_core::fingerprint::{
    evaluate_closed_world, login_trace_pair, CaptureConfig, FingerprintAccuracy, SizeTrace,
};
use pc_core::footprint::{
    block_row_targets, build_monitor, mapping_distribution, page_aligned_targets, ring_histogram,
    watch,
};
use pc_core::sequencer::{ground_truth_sequence, recover_window, SequenceQuality, SequencerConfig};
use pc_core::{TestBed, TestBedConfig};
use pc_defense::eval::{
    fig14_nginx_throughput, fig15_traffic, fig16_tail_latency, BaselineCore, Fig14Row, Fig15Row,
    Fig16Row,
};
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

/// Figure 5: one driver instance's buffers-per-page-aligned-set
/// histogram (256 entries summing to the ring size).
pub fn fig5(seed: u64) -> Vec<usize> {
    let tb = TestBed::new(TestBedConfig::paper_baseline().with_seed(seed));
    ring_histogram(tb.hierarchy().llc(), tb.driver())
}

/// Figure 6: distribution of buffers-per-set over many driver
/// initializations. `dist[k]` = (instance, set) pairs holding `k`
/// buffers.
pub fn fig6(scale: Scale, seed: u64) -> Vec<usize> {
    let instances = scale.pick(100, 1000);
    mapping_distribution(&CacheGeometry::xeon_e5_2660(), instances, seed)
}

/// Figure 7 result: the idle → receiving → idle activity sweep.
#[derive(Clone, Debug)]
pub struct Fig7Result {
    /// Samples per phase (idle, receiving, idle).
    pub phase_samples: [usize; 3],
    /// Activity events per page-aligned set in each phase.
    pub per_set: [Vec<usize>; 3],
}

impl Fig7Result {
    /// Sets with any activity in phase `p`.
    pub fn active_sets(&self, p: usize) -> usize {
        self.per_set[p].iter().filter(|&&c| c > 0).count()
    }
}

/// Figure 7: monitor all 256 page-aligned sets through an idle phase, a
/// broadcast-receiving phase, and a final idle phase.
pub fn fig7(scale: Scale, seed: u64) -> Fig7Result {
    let mut tb = TestBed::new(TestBedConfig::paper_baseline().with_seed(seed));
    let geom = tb.hierarchy().llc().geometry();
    let targets = page_aligned_targets(&geom);
    let pool = AddressPool::allocate(seed ^ 0x7ea, 12288);
    let monitor = build_monitor(tb.hierarchy().llc(), &pool, &targets);

    let per_phase = scale.pick(250, 2_500);
    let interval = 400_000u64; // ~8.25 kHz probe over 256 sets
    let mut phases = Vec::new();
    for phase in 0..3 {
        if phase == 1 {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xf19);
            let count = scale.pick(30_000, 300_000);
            let frames = ArrivalSchedule::new(LineRate::gigabit())
                .frames_per_second(200_000)
                .generate(&mut ConstantSize::blocks(2), tb.now() + 1, count, &mut rng);
            tb.enqueue(frames);
        }
        let matrix = watch(&mut tb, &monitor, per_phase, interval);
        if phase == 1 {
            // Drop any leftover queued frames before the trailing idle
            // phase (the sender stopped).
            tb.drain();
        }
        phases.push(matrix.activity_counts());
    }
    let mut it = phases.into_iter();
    Fig7Result {
        phase_samples: [per_phase; 3],
        per_set: [
            it.next().expect("3 phases"),
            it.next().expect("3 phases"),
            it.next().expect("3 phases"),
        ],
    }
}

/// Figure 8: activity events per block row (0..3) for constant streams
/// of 1..4-block packets. `matrix[row][size-1]` = events.
pub fn fig8(scale: Scale, seed: u64) -> [[usize; 4]; 4] {
    // One independent capture per packet size, fanned out over threads.
    let per_size = crate::par::parallel_map((1..=4u32).collect(), |size| {
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
    let mut out = [[0usize; 4]; 4];
    for (i, counts) in per_size.iter().enumerate() {
        for row in 0..4 {
            out[row][i] = counts[row * 256..(row + 1) * 256].iter().sum();
        }
    }
    out
}

/// Table I: sequence-recovery quality over several independent runs.
#[derive(Clone, Debug)]
pub struct Table1Result {
    /// Per-run quality.
    pub runs: Vec<SequenceQuality>,
    /// Monitored sets per window.
    pub monitored_sets: usize,
    /// Samples per window.
    pub samples: usize,
    /// Packet rate during profiling (frames/second).
    pub packet_rate: u64,
}

impl Table1Result {
    /// Mean of a per-run metric.
    pub fn mean<F: Fn(&SequenceQuality) -> f64>(&self, f: F) -> f64 {
        self.runs.iter().map(f).sum::<f64>() / self.runs.len().max(1) as f64
    }
}

/// Table I: recover the ring order of 32 monitored page-aligned sets
/// while a remote sender streams 2-block broadcast frames.
pub fn table1(scale: Scale, seed: u64) -> Table1Result {
    let monitored = 32usize;
    let samples = scale.pick(12_000, 100_000);
    let packet_rate = 200_000u64;
    let runs = scale.pick(2, 5);
    // Each run is an independent machine + seed: perfect thread fan-out.
    // Per-run streams come from the workspace seed-splitting helper
    // (Repetition domain) instead of ad-hoc `seed + run` arithmetic,
    // which could collide with a neighboring experiment's offsets.
    let results = crate::par::parallel_map((0..runs).collect(), |run| {
        let run_seed = crate::par::stream_seed(seed, crate::par::SeedDomain::Repetition, run);
        let mut tb = TestBed::new(TestBedConfig::paper_baseline().with_seed(run_seed));
        let geom = tb.hierarchy().llc().geometry();
        let targets: Vec<SliceSet> = page_aligned_targets(&geom)
            .into_iter()
            .take(monitored)
            .collect();
        let pool = AddressPool::allocate(seed ^ 0x7ab1e, 12288);
        let mut rng = SmallRng::seed_from_u64(crate::par::mix_seed(run_seed, 1));
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
    Table1Result {
        runs: results,
        monitored_sets: monitored,
        samples,
        packet_rate,
    }
}

/// Figure 10: a decoded "…2 0 1 2 0 1…" ternary stream sample.
#[derive(Clone, Debug)]
pub struct Fig10Result {
    /// The repeating pattern the trojan sent.
    pub sent: Vec<u8>,
    /// What the spy decoded.
    pub decoded: Vec<u8>,
    /// Levenshtein error rate.
    pub error_rate: f64,
}

/// Figure 10: transmit the paper's "2012012012…" pattern and decode it.
pub fn fig10(seed: u64) -> Fig10Result {
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
    Fig10Result {
        sent,
        error_rate: report.error_rate,
        decoded: report.received,
    }
}

/// One point of Figure 11.
#[derive(Copy, Clone, Debug)]
pub struct Fig11Row {
    /// "Binary" or "Ternary".
    pub encoding: &'static str,
    /// Probe rate in kHz (7 / 14 / 28).
    pub probe_khz: u64,
    /// Channel bandwidth in bits/second.
    pub bandwidth_bps: f64,
    /// Levenshtein error rate.
    pub error_rate: f64,
}

/// Figure 11: single-buffer channel bandwidth and error rate across
/// probe rates, for binary and ternary encodings.
pub fn fig11(scale: Scale, seed: u64) -> Vec<Fig11Row> {
    let symbols_n = scale.pick(60, 600);
    let mut combos = Vec::new();
    for (ename, enc) in [("Binary", Encoding::Binary), ("Ternary", Encoding::Ternary)] {
        for probe_khz in [7u64, 14, 28] {
            combos.push((ename, enc, probe_khz));
        }
    }
    crate::par::parallel_map(combos, |(ename, enc, probe_khz)| {
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
        Fig11Row {
            encoding: ename,
            probe_khz,
            bandwidth_bps: report.bandwidth_bps,
            error_rate: report.error_rate,
        }
    })
}

/// One point of Figure 12a/b.
#[derive(Copy, Clone, Debug)]
pub struct Fig12abRow {
    /// Monitored buffers (1..16).
    pub buffers: usize,
    /// Channel bandwidth in kbit/s.
    pub bandwidth_kbps: f64,
    /// Levenshtein error rate.
    pub error_rate: f64,
}

/// Figure 12a/b: bandwidth scales with the number of monitored buffers;
/// error jumps at 16.
pub fn fig12ab(scale: Scale, seed: u64) -> Vec<Fig12abRow> {
    crate::par::parallel_map(vec![1usize, 2, 4, 8, 16], |buffers| {
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
        Fig12abRow {
            buffers,
            bandwidth_kbps: report.bandwidth_bps / 1_000.0,
            error_rate: report.error_rate,
        }
    })
}

/// One point of Figure 12c/d.
#[derive(Copy, Clone, Debug)]
pub struct Fig12cdRow {
    /// Offered bandwidth in kbit/s (80..640).
    pub bandwidth_kbps: u64,
    /// Out-of-sync events per sent packet.
    pub out_of_sync_rate: f64,
    /// Levenshtein error rate over the synchronized stream.
    pub error_rate: f64,
}

/// Figure 12c/d: chase every buffer, one ternary symbol per packet, at
/// increasing offered bandwidth.
pub fn fig12cd(scale: Scale, seed: u64) -> Vec<Fig12cdRow> {
    let symbols_n = scale.pick(1_500, 8_000);
    crate::par::parallel_map(vec![80u64, 160, 320, 640], |bandwidth_kbps| {
        let packet_rate =
            (bandwidth_kbps as f64 * 1_000.0 / Encoding::Ternary.bits_per_symbol()) as u64;
        let mut cfg_bed = TestBedConfig::paper_baseline().with_seed(seed);
        cfg_bed.driver.ring_size = 256;
        let mut tb = TestBed::new(cfg_bed);
        let pool = AddressPool::allocate(seed ^ 0xf1613, 16384);
        let symbols = lfsr_symbols(Encoding::Ternary, symbols_n, 0x3c3c);
        let report = run_chased_channel(&mut tb, &pool, &symbols, packet_rate);
        Fig12cdRow {
            bandwidth_kbps,
            out_of_sync_rate: report.out_of_sync_rate,
            error_rate: report.error_rate,
        }
    })
}

/// Figure 13: original vs recovered hotcrp login traces.
#[derive(Clone, Debug)]
pub struct Fig13Result {
    /// Ground-truth successful-login sizes.
    pub ok_original: SizeTrace,
    /// Cache-recovered successful-login sizes.
    pub ok_recovered: SizeTrace,
    /// Ground-truth unsuccessful-login sizes.
    pub fail_original: SizeTrace,
    /// Cache-recovered unsuccessful-login sizes.
    pub fail_recovered: SizeTrace,
}

/// Figure 13: capture both login outcomes through the cache.
pub fn fig13(seed: u64) -> Fig13Result {
    let capture = CaptureConfig::paper_defaults();
    let bed = TestBedConfig::paper_baseline();
    let (ok_original, ok_recovered) =
        login_trace_pair(bed, LoginOutcome::Successful, &capture, seed);
    let (fail_original, fail_recovered) =
        login_trace_pair(bed, LoginOutcome::Unsuccessful, &capture, seed + 1);
    Fig13Result {
        ok_original,
        ok_recovered,
        fail_original,
        fail_recovered,
    }
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

/// Table II: the baseline core description.
pub fn table2() -> BaselineCore {
    BaselineCore::paper()
}

/// Figure 14 rows (Nginx throughput, adaptive vs DDIO, 20/11/8 MiB).
pub fn fig14(scale: Scale, seed: u64) -> Vec<Fig14Row> {
    fig14_nginx_throughput(scale.pick(400, 4_000), seed)
}

/// Figure 15 rows (normalized memory traffic + miss rates).
pub fn fig15(scale: Scale, seed: u64) -> Vec<Fig15Row> {
    fig15_traffic(scale.pick(1, 10), seed)
}

/// Figure 16 rows (tail latency per defense).
pub fn fig16(scale: Scale, seed: u64) -> Vec<Fig16Row> {
    fig16_tail_latency(scale.pick(8_000, 60_000), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_sums_to_ring() {
        let h = fig5(3);
        assert_eq!(h.iter().sum::<usize>(), 256);
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
