//! The scenario registry: every workload class behind one composable
//! spec layer.
//!
//! A [`ScenarioSpec`] is a named, seeded, scale-aware end-to-end
//! workload description — arrival process, duration, DDIO mode
//! sweep — driven through the op-stream pipeline (streaming driver
//! receive, batched monitor primes, the sequential trace replay). The
//! registry unifies what used to be two separate worlds — the `pc-net`
//! traffic generators (web traces, line-rate models, covert symbol
//! streams) and the `pc-defense` measurement workloads (nginx, TCP
//! receive, file copy) — behind `repro scenario <name>`, and the same specs are
//! what the fleet driver (`crate::fleet`) composes into tenant
//! templates: re-seeded, re-scaled, pinned to one DDIO mode.
//!
//! Reports are data first: [`ScenarioSpec::report`] returns a
//! [`ScenarioReport`] of typed metric rows plus `#` commentary, and
//! [`ScenarioReport::render`] is the *single* place that turns it into
//! text. `repro scenario <name>` prints the rendering; the fleet
//! merges the data. The paper experiments
//! ([`crate::experiments::table`]) return the same report type, so
//! every line `repro` prints under a title comes from this renderer.
//!
//! Scenario reports obey the same output discipline as the figure
//! experiments: deterministic for a fixed `(scale, seed)` at any
//! worker count (the CI determinism job byte-diffs a scenario smoke at
//! 1 thread vs 4), plain CSV-style rows, commentary on `#` lines.

use crate::experiments::Scale;
use pc_cache::{CacheStats, Cycles, DdioMode, SliceSet};
use pc_core::covert::{lfsr_symbols, run_channel, ChannelConfig, Encoding};
use pc_core::fingerprint::{evaluate_closed_world, CaptureConfig};
use pc_core::sequencer::{ground_truth_sequence, recover_window, SequenceQuality, SequencerConfig};
use pc_core::{TestBed, TestBedConfig};
use pc_defense::workloads::{file_copy, nginx, tcp_recv, NginxConfig, Workbench, WorkloadMetrics};
use pc_net::{
    ArrivalSchedule, ClosedWorld, ConstantSize, EthernetFrame, FlowCycle, LineRate, ScheduledFrame,
    TraceReplay, UniformSizes,
};
use pc_probe::AddressPool;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// One typed cell of a scenario report row.
///
/// The variants mirror exactly the format specifiers the reports have
/// always used, so rendering a typed row is byte-identical to the
/// `writeln!` lines it replaced: [`Metric::Count`] is `{}` on an
/// integer, [`Metric::Fixed`]`(v, p)` is `{v:.p$}`.
#[derive(Clone, PartialEq, Debug)]
pub enum Metric {
    /// A label cell (config names, link names).
    Text(String),
    /// An integer cell.
    Count(u64),
    /// A float cell printed with a fixed number of decimals.
    Fixed(f64, usize),
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::Text(s) => f.write_str(s),
            Metric::Count(n) => write!(f, "{n}"),
            Metric::Fixed(v, prec) => write!(f, "{:.*}", prec, v),
        }
    }
}

/// A scenario's or experiment's result as data: a CSV header, typed
/// rows, and trailing `#` commentary. Fleet merging aggregates the
/// rows; the CLI prints [`ScenarioReport::render`]. One rendering
/// function for the whole workspace keeps the golden-snapshot contract
/// in a single place.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ScenarioReport {
    /// Column names, rendered as one comma-joined header line. Empty
    /// for a header-less report, whose rows are free-form lines (one
    /// [`Metric::Text`] cell each).
    pub columns: Vec<&'static str>,
    /// Data rows; each must have `columns.len()` cells (any number in a
    /// header-less report).
    pub rows: Vec<Vec<Metric>>,
    /// Commentary lines, rendered after the rows with a `# ` prefix
    /// (without the prefix here).
    pub comments: Vec<String>,
}

impl ScenarioReport {
    /// A report with the given header and no rows yet.
    pub fn new(columns: Vec<&'static str>) -> Self {
        ScenarioReport {
            columns,
            rows: Vec::new(),
            comments: Vec::new(),
        }
    }

    /// Appends one data row.
    pub fn push_row(&mut self, row: Vec<Metric>) {
        debug_assert!(
            self.columns.is_empty() || row.len() == self.columns.len(),
            "row width matches header"
        );
        self.rows.push(row);
    }

    /// Appends one commentary line (the `# ` prefix is added by
    /// [`ScenarioReport::render`]).
    pub fn comment(&mut self, line: impl Into<String>) {
        self.comments.push(line.into());
    }

    /// The one renderer: header, rows, then `#` comments — newline
    /// terminated, byte-compatible with the `tests/golden/` snapshots.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.columns.is_empty() {
            let _ = writeln!(out, "{}", self.columns.join(","));
        }
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Metric::to_string).collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        for c in &self.comments {
            let _ = writeln!(out, "# {c}");
        }
        out
    }
}

/// Which workload family a spec drives (the part that is code, not
/// parameters).
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
enum SpecKind {
    Chasing,
    Fingerprint,
    WebMix,
    LineRateSweep,
    CovertSweep,
    Nginx,
    TcpRecv,
    FileCopy,
    KvStore,
    DnsFlood,
    LargeTransfer,
    CoTenancy,
}

/// Work units per scale, in the scenario's own unit (samples, trials,
/// rounds, frames, symbols, requests, packets, megabytes).
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct Duration {
    /// Units at [`Scale::Quick`] (CI smoke).
    pub quick: u64,
    /// Units at [`Scale::Full`] (paper scale).
    pub full: u64,
}

impl Duration {
    fn pick(self, scale: Scale) -> u64 {
        scale.pick(self.quick, self.full)
    }
}

/// The arrival process a spec offers the NIC, where the scenario
/// admits one (chasing, web-mix). Scenarios that derive their rate
/// from the wire (line-rate-sweep) or sweep it (covert-sweep) carry
/// `fps: 0` meaning "scenario-defined".
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Arrival {
    /// Offered frames per second (0 = scenario-defined).
    pub fps: u64,
    /// Inter-arrival jitter fraction in `[0, 1)`.
    pub jitter: f64,
}

/// Which DDIO modes a spec's report sweeps.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum ModeSweep {
    /// All three reporting modes, in the figure-experiment order
    /// (NoDDIO, DDIO, Adaptive) — the registry default.
    All,
    /// One pinned mode — how fleet tenant templates fix a machine
    /// configuration per tenant.
    One(&'static str, DdioMode),
}

impl ModeSweep {
    /// The `(reporting name, mode)` pairs this sweep covers, in
    /// deterministic order.
    pub fn entries(&self) -> Vec<(&'static str, DdioMode)> {
        match *self {
            ModeSweep::All => ddio_modes().to_vec(),
            ModeSweep::One(name, mode) => vec![(name, mode)],
        }
    }

    /// The single mode a tenant runs under: the pinned pair, or the
    /// paper's DDIO baseline when the sweep was never narrowed.
    fn tenant_mode(&self) -> (&'static str, DdioMode) {
        match *self {
            ModeSweep::All => ("DDIO", DdioMode::enabled()),
            ModeSweep::One(name, mode) => (name, mode),
        }
    }
}

/// A composable scenario description: everything `repro scenario
/// <name>` and the fleet driver need to run one workload — by value,
/// re-seedable, re-scalable.
///
/// Registry specs carry the historical parameters exactly, so their
/// rendered reports are byte-identical to the pre-spec scenario
/// structs (the golden snapshots pin this). The builder methods
/// ([`ScenarioSpec::with_units`], [`ScenarioSpec::with_queues`],
/// [`ScenarioSpec::with_mode`]) derive
/// variants for fleet tenant templates without touching the registry's
/// copies.
#[derive(Clone, PartialEq, Debug)]
pub struct ScenarioSpec {
    name: &'static str,
    summary: &'static str,
    kind: SpecKind,
    duration: Duration,
    arrival: Arrival,
    modes: ModeSweep,
    /// Rx queue count of every TestBed the spec builds
    /// ([`ScenarioSpec::with_queues`] replaces it; `repro --queues`
    /// applies that). The pre-RSS scenarios carry 1 and stay
    /// byte-identical to their single-ring goldens; the multi-queue
    /// scenarios default to 4.
    queues: usize,
}

impl ScenarioSpec {
    /// CLI name (`repro scenario <name>`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description for `repro scenario list`.
    pub fn summary(&self) -> &'static str {
        self.summary
    }

    /// Work units per scale.
    pub fn duration(&self) -> Duration {
        self.duration
    }

    /// The offered arrival process (where the scenario admits one).
    pub fn arrival(&self) -> Arrival {
        self.arrival
    }

    /// The DDIO modes the report sweeps.
    pub fn modes(&self) -> &ModeSweep {
        &self.modes
    }

    /// Rx queue count of the spec's simulated NIC.
    pub fn queues(&self) -> usize {
        self.queues
    }

    /// The paper machine at `seed` with this spec's queue count: the
    /// config every TestBed of the spec starts from.
    fn bed_config(&self, seed: u64) -> TestBedConfig {
        TestBedConfig::paper_baseline()
            .with_seed(seed)
            .with_queues(self.queues)
    }

    /// Replaces the per-scale work units (builder style).
    pub fn with_units(mut self, quick: u64, full: u64) -> Self {
        self.duration = Duration { quick, full };
        self
    }

    /// Replaces the rx queue count of the spec's TestBeds (builder
    /// style).
    pub fn with_queues(mut self, queues: usize) -> Self {
        self.queues = queues;
        self
    }

    /// Pins the spec to a single DDIO mode under the given reporting
    /// name (builder style) — report rows and tenant runs then cover
    /// only that mode.
    pub fn with_mode(mut self, name: &'static str, mode: DdioMode) -> Self {
        self.modes = ModeSweep::One(name, mode);
        self
    }

    /// Runs the scenario and renders its report — the CLI entry point.
    /// Deterministic for a fixed `(scale, seed)` at any thread count.
    pub fn run(&self, scale: Scale, seed: u64) -> String {
        self.report(scale, seed).render()
    }

    /// Runs the scenario and returns its report as data.
    pub fn report(&self, scale: Scale, seed: u64) -> ScenarioReport {
        match self.kind {
            SpecKind::Chasing => self.report_chasing(scale, seed),
            SpecKind::Fingerprint => self.report_fingerprint(scale, seed),
            SpecKind::WebMix => self.report_web_mix(scale, seed),
            SpecKind::LineRateSweep => self.report_line_rate(scale, seed),
            SpecKind::CovertSweep => self.report_covert(scale, seed),
            SpecKind::Nginx | SpecKind::TcpRecv | SpecKind::FileCopy => {
                self.report_workload(scale, seed)
            }
            SpecKind::KvStore | SpecKind::DnsFlood | SpecKind::LargeTransfer => {
                self.report_flow_traffic(scale, seed)
            }
            SpecKind::CoTenancy => self.report_co_tenancy(scale, seed),
        }
    }

    /// Packet Chasing's ring-order recovery (the paper's §IV attack)
    /// at scenario scale: one monitored window, quality vs truth.
    fn report_chasing(&self, scale: Scale, seed: u64) -> ScenarioReport {
        let monitored = 16usize;
        let samples = self.duration.pick(scale) as usize;
        let mut tb = TestBed::new(self.bed_config(seed));
        let geom = tb.hierarchy().llc().geometry();
        let targets: Vec<SliceSet> = pc_core::footprint::page_aligned_targets(&geom)
            .into_iter()
            .take(monitored)
            .collect();
        let pool = AddressPool::allocate(seed ^ 0x5ce, 12288);
        let mut rng = SmallRng::seed_from_u64(seed + 17);
        let frames = ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(self.arrival.fps)
            .jitter(self.arrival.jitter)
            .generate(
                &mut ConstantSize::blocks(2),
                tb.now() + 1,
                samples * 4,
                &mut rng,
            );
        tb.enqueue(frames);
        let cfg = SequencerConfig {
            samples,
            interval: 33_000,
            ..SequencerConfig::paper_defaults()
        };
        let t0 = tb.now();
        let recovered = recover_window(&mut tb, &pool, &targets, &cfg);
        let elapsed = tb.now() - t0;
        let truth = ground_truth_sequence(tb.hierarchy().llc(), tb.driver(), &targets);
        let q = SequenceQuality::evaluate(&recovered, &truth, elapsed);
        let mut report = ScenarioReport::new(vec![
            "sets",
            "samples",
            "levenshtein",
            "error_rate_pct",
            "recovered_len",
            "truth_len",
        ]);
        report.push_row(vec![
            Metric::Count(monitored as u64),
            Metric::Count(samples as u64),
            Metric::Count(q.levenshtein as u64),
            Metric::Fixed(q.error_rate * 100.0, 1),
            Metric::Count(q.recovered_len as u64),
            Metric::Count(q.truth_len as u64),
        ]);
        report.comment("paper: 9.8% error over 32 sets at full scale");
        report
    }

    /// §V closed-world fingerprinting at scenario scale (DDIO config
    /// only — the figure experiment covers the full comparison).
    fn report_fingerprint(&self, scale: Scale, seed: u64) -> ScenarioReport {
        let training = scale.pick(3, 8);
        let trials = self.duration.pick(scale) as usize;
        let sites = ClosedWorld::paper_five_sites();
        let acc = evaluate_closed_world(
            TestBedConfig::paper_baseline().with_queues(self.queues),
            sites.sites(),
            training,
            trials,
            0.25,
            &CaptureConfig::paper_defaults(),
            seed,
        );
        let mut report = ScenarioReport::new(vec!["sites", "training", "trials", "accuracy_pct"]);
        report.push_row(vec![
            Metric::Count(sites.sites().len() as u64),
            Metric::Count(training as u64),
            Metric::Count(acc.trials as u64),
            Metric::Fixed(acc.accuracy * 100.0, 1),
        ]);
        report.comment("paper: 89.7% with DDIO at 1000 trials");
        report
    }

    /// The flattened web-mix size trace for `rounds` rounds over the
    /// closed-world sites, one page load per site per round. One
    /// definition shared by the report sweep and the tenant run.
    fn web_mix_sizes(rounds: u64, seed: u64) -> Vec<u32> {
        let sites = ClosedWorld::paper_five_sites();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x3eb);
        // Round-robin page loads over the sites, flattened to one size
        // trace; noise keeps the loads realistically unequal.
        let mut sizes = Vec::new();
        for _round in 0..rounds {
            for profile in sites.sites() {
                for frame in profile.page_load(0.1, &mut rng) {
                    sizes.push(frame.bytes());
                }
            }
        }
        sizes
    }

    /// Replays the web-mix trace on one machine and snapshots it.
    fn web_mix_drive(
        &self,
        tb: &mut TestBed,
        sizes: Vec<u32>,
        seed: u64,
    ) -> (u64, Cycles, CacheStats, u64) {
        let frames = sizes.len();
        let mut replay = TraceReplay::new(sizes);
        let mut srng = SmallRng::seed_from_u64(seed + 5);
        let schedule = ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(self.arrival.fps)
            .jitter(self.arrival.jitter)
            .generate(&mut replay, tb.now() + 1, frames, &mut srng);
        tb.enqueue(schedule);
        let t0 = tb.now();
        tb.drain();
        let elapsed = tb.now() - t0;
        let stats = tb.hierarchy().llc().stats();
        let mem = tb.hierarchy().memory_stats();
        (frames as u64, elapsed, stats, mem.total())
    }

    /// A mixed web-trace workload: page loads from all five
    /// closed-world sites interleaved into one arrival stream — the
    /// "many tenants, one NIC" shape none of the paper figures
    /// exercises on its own.
    fn report_web_mix(&self, scale: Scale, seed: u64) -> ScenarioReport {
        let rounds = self.duration.pick(scale);
        let sites = ClosedWorld::paper_five_sites();
        let sizes = Self::web_mix_sizes(rounds, seed);
        let mut report = ScenarioReport::new(vec![
            "config",
            "frames",
            "cycles_per_frame",
            "llc_miss_rate",
            "dram_lines",
        ]);
        // One bed reused across the mode sweep — TestBed::reset pins
        // reuse to be byte-identical to a fresh build, and the golden
        // snapshot pins this loop.
        let mut scratch = TenantScratch::new();
        for (name, mode) in self.modes.entries() {
            let tb = scratch.bed(TestBedConfig {
                ddio: mode,
                ..self.bed_config(seed)
            });
            let (frames, elapsed, stats, dram_lines) = self.web_mix_drive(tb, sizes.clone(), seed);
            report.push_row(vec![
                Metric::Text(name.to_string()),
                Metric::Count(frames),
                Metric::Count(elapsed / frames),
                Metric::Fixed(stats.miss_rate(), 3),
                Metric::Count(dram_lines),
            ]);
        }
        report.comment(format!(
            "{} sites x {rounds} rounds, bimodal page-load mix",
            sites.sites().len()
        ));
        report
    }

    /// Line-rate sweep: the NIC at the wire's maximum frame rate for
    /// each size × link speed, measuring the receive path end to end.
    fn report_line_rate(&self, scale: Scale, seed: u64) -> ScenarioReport {
        let count = self.duration.pick(scale) as usize;
        let mut combos = Vec::new();
        for (link_name, link) in [
            ("1GbE", LineRate::gigabit()),
            ("10GbE", LineRate::ten_gigabit()),
        ] {
            for bytes in [64u32, 256, 512, 1514] {
                combos.push((link_name, link, bytes));
            }
        }
        // Independent machines per combo: perfect ordered fan-out.
        let rows = pc_par::parallel_map(combos, |(link_name, link, bytes)| {
            let mut tb = TestBed::new(self.bed_config(seed));
            let fps = link.max_frames_per_second(bytes);
            let mut rng = SmallRng::seed_from_u64(seed ^ u64::from(bytes));
            let frames = ArrivalSchedule::new(link).frames_per_second(fps).generate(
                &mut ConstantSize::new(pc_net::EthernetFrame::clamped(bytes)),
                tb.now() + 1,
                count,
                &mut rng,
            );
            tb.enqueue(frames);
            let t0 = tb.now();
            tb.drain();
            let elapsed = tb.now() - t0;
            let stats = tb.hierarchy().llc().stats();
            (
                link_name,
                bytes,
                fps,
                elapsed / count as u64,
                stats.miss_rate(),
            )
        });
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
        report
    }

    /// Covert-channel bandwidth sweep: offered packet rate vs achieved
    /// bandwidth and error (the single-buffer channel of Figure 11,
    /// swept along the rate axis instead of the probe axis).
    fn report_covert(&self, scale: Scale, seed: u64) -> ScenarioReport {
        let symbols_n = self.duration.pick(scale) as usize;
        let rows = pc_par::parallel_map(vec![100_000u64, 200_000, 400_000, 500_000], |rate| {
            let mut tb = TestBed::new(self.bed_config(seed));
            let pool = AddressPool::allocate(seed ^ 0xc0e7, 12288);
            let symbols = lfsr_symbols(Encoding::Ternary, symbols_n, 0x2fd1);
            let cfg = ChannelConfig {
                encoding: Encoding::Ternary,
                monitored_buffers: 1,
                packet_rate_fps: rate,
                probe_rate_hz: 28_000,
                window: 3,
                background_noise_aps: 100_000,
            };
            let report = run_channel(&mut tb, &pool, &symbols, &cfg);
            (rate, report.bandwidth_bps, report.error_rate)
        });
        let mut report =
            ScenarioReport::new(vec!["packet_rate_fps", "bandwidth_bps", "error_rate_pct"]);
        for (rate, bw, err) in rows {
            report.push_row(vec![
                Metric::Count(rate),
                Metric::Fixed(bw, 0),
                Metric::Fixed(err * 100.0, 1),
            ]);
        }
        report.comment("paper: ~3095 bps ternary at line rate, 28 kHz probe");
        report
    }

    /// The §VII-a defense workloads (nginx, tcp-recv, file-copy): one
    /// row per swept DDIO mode, on one reused Workbench.
    fn report_workload(&self, scale: Scale, seed: u64) -> ScenarioReport {
        let units = self.duration.pick(scale);
        let mut report = ScenarioReport::new(vec![
            "config",
            "units",
            "kunits_per_sec",
            "llc_miss_rate",
            "dram_lines",
        ]);
        let mut scratch = TenantScratch::new();
        for (name, mode) in self.modes.entries() {
            let bench = scratch.bench(mode, seed);
            let m = self.drive_workload(bench, units);
            report.push_row(workload_row(name, &m));
        }
        report
    }

    /// Runs this spec's defense workload on a prepared bench.
    fn drive_workload(&self, bench: &mut Workbench, units: u64) -> WorkloadMetrics {
        match self.kind {
            SpecKind::Nginx => {
                let cfg = NginxConfig::paper_defaults();
                nginx(bench, &cfg, units / 5); // warm-up
                nginx(bench, &cfg, units)
            }
            SpecKind::TcpRecv => tcp_recv(bench, units),
            SpecKind::FileCopy => file_copy(bench, units),
            _ => unreachable!("not a defense workload"),
        }
    }

    /// The arrival schedule for the flow-steered traffic scenarios:
    /// `count` frames whose sizes and flow populations are the
    /// scenario's shape, cycled round-robin over a synthetic client
    /// population so RSS spreads them across rx queues. One definition
    /// shared by the report sweep, the tenant run and the co-tenancy
    /// victim stream.
    fn flow_schedule(&self, count: usize, start: Cycles, seed: u64) -> Vec<ScheduledFrame> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xf7_0b);
        let sched = ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(self.arrival.fps)
            .jitter(self.arrival.jitter);
        match self.kind {
            SpecKind::KvStore => {
                // 80/20 GET/SET: small request/hit frames vs fatter
                // value writes, pre-drawn into a replayable trace.
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
            SpecKind::DnsFlood => {
                let mut gen = FlowCycle::clients(UniformSizes::new(64, 96), 64, 53);
                sched.generate(&mut gen, start, count, &mut rng)
            }
            SpecKind::LargeTransfer => {
                let mut gen =
                    FlowCycle::clients(ConstantSize::new(EthernetFrame::mtu_sized()), 4, 443);
                sched.generate(&mut gen, start, count, &mut rng)
            }
            SpecKind::CoTenancy => {
                // The victim: the chasing scenario's frame shape, but
                // owned by a client population RSS spreads over queues.
                let mut gen = FlowCycle::clients(ConstantSize::blocks(2), 12, 80);
                sched.generate(&mut gen, start, count, &mut rng)
            }
            _ => unreachable!("not a flow-traffic scenario"),
        }
    }

    /// Replays this spec's flow schedule on one machine and snapshots
    /// it — the multi-queue sibling of [`ScenarioSpec::web_mix_drive`].
    fn flow_drive(
        &self,
        tb: &mut TestBed,
        frames: usize,
        seed: u64,
    ) -> (u64, Cycles, CacheStats, u64) {
        let schedule = self.flow_schedule(frames, tb.now() + 1, seed);
        tb.enqueue(schedule);
        let t0 = tb.now();
        tb.drain();
        let elapsed = tb.now() - t0;
        let stats = tb.hierarchy().llc().stats();
        let mem = tb.hierarchy().memory_stats();
        (frames as u64, elapsed, stats, mem.total())
    }

    /// The flow-steered traffic scenarios (kv-store, dns-flood,
    /// large-transfer): one row per swept DDIO mode on a multi-queue
    /// bed, web-mix-shaped columns plus the queue count.
    fn report_flow_traffic(&self, scale: Scale, seed: u64) -> ScenarioReport {
        let frames_n = self.duration.pick(scale) as usize;
        let mut report = ScenarioReport::new(vec![
            "config",
            "queues",
            "frames",
            "cycles_per_frame",
            "llc_miss_rate",
            "dram_lines",
        ]);
        let mut scratch = TenantScratch::new();
        for (name, mode) in self.modes.entries() {
            let tb = scratch.bed(TestBedConfig {
                ddio: mode,
                ..self.bed_config(seed)
            });
            let (frames, elapsed, stats, dram_lines) = self.flow_drive(tb, frames_n, seed);
            report.push_row(vec![
                Metric::Text(name.to_string()),
                Metric::Count(self.queues as u64),
                Metric::Count(frames),
                Metric::Count(elapsed / frames),
                Metric::Fixed(stats.miss_rate(), 3),
                Metric::Count(dram_lines),
            ]);
        }
        report.comment(format!("{} rx queues, Toeplitz flow steering", self.queues));
        report
    }

    /// Attacker–victim co-tenancy: the ring-order recovery of the
    /// chasing scenario, but the victim's flows are RSS-spread across
    /// rx queues while the attacker monitors queue 0's ring. One row
    /// per queue count (single-ring baseline, then the spec's
    /// multi-queue bed) — steering dilutes the attacker's view, which
    /// the error-rate column quantifies.
    fn report_co_tenancy(&self, scale: Scale, seed: u64) -> ScenarioReport {
        let monitored = 16usize;
        let samples = self.duration.pick(scale) as usize;
        let mut counts = vec![1usize];
        if self.queues > 1 {
            counts.push(self.queues);
        }
        let mut report = ScenarioReport::new(vec![
            "queues",
            "samples",
            "q0_frames",
            "levenshtein",
            "error_rate_pct",
        ]);
        for queues in counts {
            let mut tb = TestBed::new(
                TestBedConfig::paper_baseline()
                    .with_seed(seed)
                    .with_queues(queues),
            );
            let geom = tb.hierarchy().llc().geometry();
            let targets: Vec<SliceSet> = pc_core::footprint::page_aligned_targets(&geom)
                .into_iter()
                .take(monitored)
                .collect();
            let pool = AddressPool::allocate(seed ^ 0x5ce, 12288);
            let frames = self.flow_schedule(samples * 4, tb.now() + 1, seed);
            tb.enqueue(frames);
            let cfg = SequencerConfig {
                samples,
                interval: 33_000,
                ..SequencerConfig::paper_defaults()
            };
            let t0 = tb.now();
            let recovered = recover_window(&mut tb, &pool, &targets, &cfg);
            let elapsed = tb.now() - t0;
            let truth = ground_truth_sequence(tb.hierarchy().llc(), tb.driver(), &targets);
            let q = SequenceQuality::evaluate(&recovered, &truth, elapsed);
            report.push_row(vec![
                Metric::Count(queues as u64),
                Metric::Count(samples as u64),
                Metric::Count(tb.queue_driver(0).packets_received()),
                Metric::Count(q.levenshtein as u64),
                Metric::Fixed(q.error_rate * 100.0, 1),
            ]);
        }
        report.comment("attacker monitors queue 0; RSS spreads the victim's flows");
        report
    }

    /// Runs this spec as one fleet tenant: a single machine in the
    /// spec's tenant mode, returning typed metrics for the merge.
    ///
    /// `Some` for the workload-shaped scenarios (nginx, tcp-recv,
    /// file-copy, web-mix); `None` for the attack-evaluation scenarios
    /// (chasing, fingerprint, line-rate-sweep, covert-sweep), whose
    /// reports are quality measurements rather than tenant throughput.
    pub fn run_tenant(
        &self,
        scale: Scale,
        seed: u64,
        scratch: &mut TenantScratch,
    ) -> Option<TenantMetrics> {
        let (mode_name, mode) = self.modes.tenant_mode();
        let units = self.duration.pick(scale);
        match self.kind {
            SpecKind::Nginx | SpecKind::TcpRecv | SpecKind::FileCopy => {
                let unit = match self.kind {
                    SpecKind::Nginx => "requests",
                    SpecKind::TcpRecv => "packets",
                    _ => "lines",
                };
                let bench = scratch.bench(mode, seed);
                let m = self.drive_workload(bench, units);
                Some(TenantMetrics {
                    mode: mode_name,
                    unit,
                    units: m.units,
                    elapsed_cycles: m.elapsed_cycles,
                    llc: m.llc,
                    dram_lines: m.mem.total(),
                })
            }
            SpecKind::WebMix => {
                let sizes = Self::web_mix_sizes(units, seed);
                let tb = scratch.bed(TestBedConfig {
                    ddio: mode,
                    ..self.bed_config(seed)
                });
                let (frames, elapsed, llc, dram_lines) = self.web_mix_drive(tb, sizes, seed);
                Some(TenantMetrics {
                    mode: mode_name,
                    unit: "frames",
                    units: frames,
                    elapsed_cycles: elapsed,
                    llc,
                    dram_lines,
                })
            }
            SpecKind::KvStore | SpecKind::DnsFlood | SpecKind::LargeTransfer => {
                let tb = scratch.bed(TestBedConfig {
                    ddio: mode,
                    ..self.bed_config(seed)
                });
                let (frames, elapsed, llc, dram_lines) = self.flow_drive(tb, units as usize, seed);
                Some(TenantMetrics {
                    mode: mode_name,
                    unit: "frames",
                    units: frames,
                    elapsed_cycles: elapsed,
                    llc,
                    dram_lines,
                })
            }
            _ => None,
        }
    }
}

/// What one fleet tenant measured: the typed equivalent of one
/// workload report row, plus the unit label the merge groups by.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TenantMetrics {
    /// Reporting name of the DDIO mode the tenant ran under.
    pub mode: &'static str,
    /// Unit label (`requests`, `packets`, `lines`, `frames`).
    pub unit: &'static str,
    /// Work units completed.
    pub units: u64,
    /// Simulated cycles the run took.
    pub elapsed_cycles: Cycles,
    /// LLC statistics over the run.
    pub llc: CacheStats,
    /// Memory-controller lines moved (reads + writes).
    pub dram_lines: u64,
}

impl TenantMetrics {
    /// Work units per second of simulated time.
    pub fn units_per_second(&self) -> f64 {
        self.units as f64 / (self.elapsed_cycles as f64 / pc_net::CPU_FREQ_HZ as f64)
    }

    /// Simulated cycles per work unit.
    pub fn cycles_per_unit(&self) -> u64 {
        self.elapsed_cycles / self.units.max(1)
    }
}

/// Per-worker machine cache for tenant runs: one TestBed and one
/// Workbench, reset (not rebuilt) between tenants so thousands of
/// tenant runs pay clears instead of allocations. An allocation cache,
/// not state — `TestBed::reset` / `Workbench::reset_paper_machine`
/// pin a reused machine byte-identical to a fresh one.
#[derive(Default)]
pub struct TenantScratch {
    bed: Option<TestBed>,
    bench: Option<Workbench>,
}

impl TenantScratch {
    /// An empty scratch (machines built lazily on first use).
    pub fn new() -> Self {
        TenantScratch::default()
    }

    /// The scratch TestBed, reset for `cfg`.
    fn bed(&mut self, cfg: TestBedConfig) -> &mut TestBed {
        match &mut self.bed {
            Some(bed) => {
                bed.reset(cfg);
                self.bed.as_mut().expect("just matched")
            }
            None => self.bed.insert(TestBed::new(cfg)),
        }
    }

    /// The scratch Workbench, reset to the paper machine in `mode`.
    fn bench(&mut self, mode: DdioMode, seed: u64) -> &mut Workbench {
        match &mut self.bench {
            Some(bench) => {
                bench.reset_paper_machine(mode, seed);
                self.bench.as_mut().expect("just matched")
            }
            None => self.bench.insert(Workbench::paper_machine(mode, seed)),
        }
    }
}

/// Every registered scenario spec, **sorted by name**. The listing
/// order is part of the output contract: `repro scenario list` (and
/// anything that iterates the registry, like the golden-snapshot suite
/// and the CI determinism byte-diff) must not depend on incidental
/// insertion order, so the registry itself is kept sorted and a test
/// pins it.
pub fn registry() -> &'static [ScenarioSpec] {
    static REGISTRY: OnceLock<Vec<ScenarioSpec>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        vec![
            ScenarioSpec {
                name: "chasing",
                summary: "ring-buffer sequence recovery over the batched receive path",
                kind: SpecKind::Chasing,
                duration: Duration {
                    quick: 6_000,
                    full: 60_000,
                },
                arrival: Arrival {
                    fps: 200_000,
                    jitter: 0.02,
                },
                modes: ModeSweep::All,
                queues: 1,
            },
            ScenarioSpec {
                name: "co-tenancy",
                summary: "ring recovery against a victim RSS-spread over rx queues",
                kind: SpecKind::CoTenancy,
                duration: Duration {
                    quick: 4_000,
                    full: 40_000,
                },
                arrival: Arrival {
                    fps: 200_000,
                    jitter: 0.02,
                },
                modes: ModeSweep::All,
                queues: 4,
            },
            ScenarioSpec {
                name: "covert-sweep",
                summary: "covert-channel bandwidth/error across offered packet rates",
                kind: SpecKind::CovertSweep,
                duration: Duration {
                    quick: 60,
                    full: 600,
                },
                arrival: Arrival {
                    fps: 0,
                    jitter: 0.0,
                },
                modes: ModeSweep::All,
                queues: 1,
            },
            ScenarioSpec {
                name: "dns-flood",
                summary: "small-packet flood from many clients across rx queues",
                kind: SpecKind::DnsFlood,
                duration: Duration {
                    quick: 6_000,
                    full: 60_000,
                },
                arrival: Arrival {
                    fps: 450_000,
                    jitter: 0.01,
                },
                modes: ModeSweep::All,
                queues: 4,
            },
            ScenarioSpec {
                name: "file-copy",
                summary: "dd-style DMA file copy across DDIO modes",
                kind: SpecKind::FileCopy,
                duration: Duration { quick: 2, full: 16 },
                arrival: Arrival {
                    fps: 0,
                    jitter: 0.0,
                },
                modes: ModeSweep::All,
                queues: 1,
            },
            ScenarioSpec {
                name: "fingerprint",
                summary: "closed-world website fingerprinting through the cache",
                kind: SpecKind::Fingerprint,
                duration: Duration { quick: 4, full: 40 },
                arrival: Arrival {
                    fps: 0,
                    jitter: 0.0,
                },
                modes: ModeSweep::All,
                queues: 1,
            },
            ScenarioSpec {
                name: "kv-store",
                summary: "80/20 GET/SET key-value mix steered over rx queues",
                kind: SpecKind::KvStore,
                duration: Duration {
                    quick: 4_000,
                    full: 40_000,
                },
                arrival: Arrival {
                    fps: 300_000,
                    jitter: 0.03,
                },
                modes: ModeSweep::All,
                queues: 4,
            },
            ScenarioSpec {
                name: "large-transfer",
                summary: "paced MTU-sized bulk transfers on few flows",
                kind: SpecKind::LargeTransfer,
                duration: Duration {
                    quick: 2_500,
                    full: 25_000,
                },
                arrival: Arrival {
                    fps: 80_000,
                    jitter: 0.0,
                },
                modes: ModeSweep::All,
                queues: 4,
            },
            ScenarioSpec {
                name: "line-rate-sweep",
                summary: "driver receive cost at wire speed across frame sizes and links",
                kind: SpecKind::LineRateSweep,
                duration: Duration {
                    quick: 20_000,
                    full: 150_000,
                },
                arrival: Arrival {
                    fps: 0,
                    jitter: 0.0,
                },
                modes: ModeSweep::All,
                queues: 1,
            },
            ScenarioSpec {
                name: "nginx",
                summary: "nginx-like request serving across DDIO modes",
                kind: SpecKind::Nginx,
                duration: Duration {
                    quick: 400,
                    full: 4_000,
                },
                arrival: Arrival {
                    fps: 0,
                    jitter: 0.0,
                },
                modes: ModeSweep::All,
                queues: 1,
            },
            ScenarioSpec {
                name: "tcp-recv",
                summary: "small-payload TCP receive across DDIO modes",
                kind: SpecKind::TcpRecv,
                duration: Duration {
                    quick: 5_000,
                    full: 50_000,
                },
                arrival: Arrival {
                    fps: 0,
                    jitter: 0.0,
                },
                modes: ModeSweep::All,
                queues: 1,
            },
            ScenarioSpec {
                name: "web-mix",
                summary: "interleaved page loads from every site on one ring",
                kind: SpecKind::WebMix,
                duration: Duration { quick: 8, full: 60 },
                // 0.05 is ArrivalSchedule's default jitter — the
                // historical web-mix never overrode it.
                arrival: Arrival {
                    fps: 250_000,
                    jitter: 0.05,
                },
                modes: ModeSweep::All,
                queues: 1,
            },
        ]
    })
}

/// Looks a scenario spec up by CLI name.
pub fn find(name: &str) -> Option<&'static ScenarioSpec> {
    registry().iter().find(|s| s.name() == name)
}

/// Renders the body of `repro scenario list`: the name-sorted,
/// two-column registry listing. One renderer shared by the CLI and the
/// golden-snapshot test, so the output contract cannot drift between
/// what CI byte-diffs and what the snapshot pins.
pub fn render_list() -> String {
    let mut out = String::new();
    for s in registry() {
        let _ = writeln!(out, "  {:<16} {}", s.name(), s.summary());
    }
    out
}

/// The three DDIO modes every workload scenario sweeps, with reporting
/// names matching the figure experiments.
fn ddio_modes() -> [(&'static str, DdioMode); 3] {
    [
        ("NoDDIO", DdioMode::Disabled),
        ("DDIO", DdioMode::enabled()),
        ("Adaptive", DdioMode::adaptive()),
    ]
}

/// Formats one defense-workload row.
fn workload_row(name: &str, m: &WorkloadMetrics) -> Vec<Metric> {
    vec![
        Metric::Text(name.to_string()),
        Metric::Count(m.units),
        Metric::Fixed(m.units_per_second() / 1_000.0, 1),
        Metric::Fixed(m.llc.miss_rate(), 3),
        Metric::Count(m.mem.total()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let mut names: Vec<&str> = registry().iter().map(|s| s.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate scenario name");
        for name in names {
            assert!(find(name).is_some());
        }
        assert!(find("no-such-scenario").is_none());
    }

    #[test]
    fn registry_order_is_sorted_and_stable() {
        // `repro scenario list` prints the registry in order; CI
        // byte-diffs rely on that order being name-sorted, not
        // insertion-accidental.
        let names: Vec<&str> = registry().iter().map(|s| s.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "registry must stay sorted by name");
        assert_eq!(
            names,
            [
                "chasing",
                "co-tenancy",
                "covert-sweep",
                "dns-flood",
                "file-copy",
                "fingerprint",
                "kv-store",
                "large-transfer",
                "line-rate-sweep",
                "nginx",
                "tcp-recv",
                "web-mix",
            ],
            "listing order is a documented output contract"
        );
    }

    #[test]
    fn workload_scenarios_are_deterministic() {
        // Same (scale, seed) must render the same report; different
        // seeds must not be trivially constant for the traffic-driven
        // scenarios.
        for name in ["tcp-recv", "file-copy"] {
            let s = find(name).expect("registered");
            let a = s.run(Scale::Quick, 11);
            let b = s.run(Scale::Quick, 11);
            assert_eq!(a, b, "{name} not deterministic");
        }
    }

    #[test]
    fn metric_rendering_matches_the_inline_format_specifiers() {
        // The whole byte-compatibility argument for typed reports rests
        // on Display matching the `writeln!` specifiers the reports
        // used before: `{}` for counts, `{:.p}` for fixed floats.
        assert_eq!(Metric::Count(123_456).to_string(), format!("{}", 123_456));
        assert_eq!(
            Metric::Fixed(0.123_456, 3).to_string(),
            format!("{:.3}", 0.123_456)
        );
        assert_eq!(Metric::Fixed(97.35, 1).to_string(), format!("{:.1}", 97.35));
        assert_eq!(
            Metric::Fixed(3095.4, 0).to_string(),
            format!("{:.0}", 3095.4)
        );
        assert_eq!(Metric::Text("NoDDIO".into()).to_string(), "NoDDIO");
    }

    #[test]
    fn report_renders_header_rows_then_comments() {
        let mut r = ScenarioReport::new(vec!["a", "b"]);
        r.push_row(vec![Metric::Count(1), Metric::Fixed(0.5, 1)]);
        r.push_row(vec![Metric::Text("x".into()), Metric::Count(2)]);
        r.comment("trailing note");
        assert_eq!(r.render(), "a,b\n1,0.5\nx,2\n# trailing note\n");
        // Header-less: no header line, each row one free-form cell.
        let mut r = ScenarioReport::new(Vec::new());
        r.push_row(vec![Metric::Text("sent:    2 0 1".into())]);
        r.comment("error rate: 0.0%");
        assert_eq!(r.render(), "sent:    2 0 1\n# error rate: 0.0%\n");
    }

    #[test]
    fn mode_override_narrows_the_sweep_to_one_row() {
        let spec = find("tcp-recv")
            .expect("registered")
            .clone()
            .with_units(300, 300)
            .with_mode("Adaptive", DdioMode::adaptive());
        let report = spec.report(Scale::Quick, 7);
        assert_eq!(report.rows.len(), 1, "one pinned mode, one row");
        assert_eq!(report.rows[0][0], Metric::Text("Adaptive".to_string()));
    }

    #[test]
    fn tenant_runs_are_deterministic_and_scratch_invariant() {
        // A tenant on a dirty scratch (just ran a different template)
        // must produce the same metrics as one on a fresh scratch.
        let tcp = find("tcp-recv")
            .expect("registered")
            .clone()
            .with_units(400, 400);
        let copy = find("file-copy")
            .expect("registered")
            .clone()
            .with_units(1, 1);
        let mut dirty = TenantScratch::new();
        copy.run_tenant(Scale::Quick, 3, &mut dirty)
            .expect("workload tenant");
        let a = tcp.run_tenant(Scale::Quick, 9, &mut dirty).expect("tenant");
        let mut fresh = TenantScratch::new();
        let b = tcp.run_tenant(Scale::Quick, 9, &mut fresh).expect("tenant");
        assert_eq!(a, b, "scratch reuse must not leak state");
        assert_eq!(a.unit, "packets");
        assert_eq!(a.units, 400);
        assert!(a.units_per_second() > 0.0);
    }

    #[test]
    fn flow_scenarios_are_deterministic_multi_queue_tenants() {
        let mut scratch = TenantScratch::new();
        for name in ["kv-store", "dns-flood", "large-transfer"] {
            let s = find(name).expect("registered").clone().with_units(600, 600);
            assert_eq!(s.queues(), 4, "{name} defaults to a multi-queue bed");
            let a = s.run(Scale::Quick, 11);
            let b = s.run(Scale::Quick, 11);
            assert_eq!(a, b, "{name} not deterministic");
            let m = s
                .run_tenant(Scale::Quick, 5, &mut scratch)
                .expect("flow scenarios are tenant workloads");
            assert_eq!(m.unit, "frames");
            assert_eq!(m.units, 600);
            assert!(m.units_per_second() > 0.0);
        }
    }

    #[test]
    fn queue_override_reaches_the_flow_beds() {
        // kv-store defaults to 4 queues; `with_queues(1)` must change
        // the beds it builds, not only the spec's field.
        let spec = find("kv-store")
            .expect("registered")
            .clone()
            .with_units(300, 300);
        let four = spec.report(Scale::Quick, 7);
        let one = spec.with_queues(1).report(Scale::Quick, 7);
        assert!(one.rows.iter().all(|r| r[1] == Metric::Count(1)));
        // Not just the queues column: the DDIO row's cache behaviour
        // moves with the steering.
        let ddio = |r: &ScenarioReport| r.rows[1][3..].to_vec();
        assert_eq!(one.rows[1][0], Metric::Text("DDIO".into()));
        assert_ne!(
            ddio(&four),
            ddio(&one),
            "the queue count does not reach the beds"
        );
    }

    #[test]
    fn attack_scenarios_are_not_tenants() {
        let mut scratch = TenantScratch::new();
        for name in [
            "chasing",
            "fingerprint",
            "line-rate-sweep",
            "covert-sweep",
            "co-tenancy",
        ] {
            let s = find(name).expect("registered");
            assert!(
                s.run_tenant(Scale::Quick, 1, &mut scratch).is_none(),
                "{name} is a quality evaluation, not a tenant workload"
            );
        }
    }
}
