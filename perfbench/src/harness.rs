//! What every workload shares: the set-up/work clock, step outputs,
//! input sizes, and the receive and machine-count hooks.

use crate::trace::{count, span};
use pc_bench::scenario::{self, ScenarioSpec};
use pc_core::TestBed;
use std::time::Instant;

/// How much input one iteration runs.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Size {
    /// The benchmark's fixed input (stated in `BENCHMARK.json` and the README).
    Standard,
    /// A few hundred frames per step, for the self-test.
    Tiny,
}

impl Size {
    /// Parses `standard` or `tiny`.
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "standard" => Some(Size::Standard),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Size::Standard => "standard",
            Size::Tiny => "tiny",
        }
    }
}

/// The registered spec `name`; at [`Size::Tiny`], cut to `tiny_units`.
pub fn spec(name: &str, size: Size, tiny_units: u64) -> ScenarioSpec {
    let spec = scenario::find(name).expect("registered scenario").clone();
    match size {
        Size::Standard => spec,
        Size::Tiny => spec.with_units(tiny_units, tiny_units),
    }
}

/// One workload step's rendered output, compared byte for byte against
/// the oracle's rendering of the same step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Step {
    /// Step name (stable across runs).
    pub name: String,
    /// The step's rendered result.
    pub output: String,
}

impl Step {
    /// A named step output.
    pub fn new(name: &str, output: String) -> Self {
        Step {
            name: name.to_string(),
            output,
        }
    }
}

/// Host seconds of one iteration, split into set-up (building machines
/// and spy state before traffic) and work (the measured phase).
#[derive(Copy, Clone, Default, Debug)]
pub struct Clock {
    /// Seconds spent in [`Clock::setup`].
    pub setup: f64,
    /// Seconds spent in [`Clock::work`].
    pub work: f64,
}

impl Clock {
    /// Runs set-up code; its time counts towards `setup_s`.
    pub fn setup<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = span("setup.other_s", f);
        self.setup += t.elapsed().as_secs_f64();
        r
    }

    /// Runs measured work; its time counts towards `wall_s`.
    pub fn work<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = span("bench.glue_s", f);
        self.work += t.elapsed().as_secs_f64();
        r
    }
}

/// Runs a receive-path call (`enqueue` / `advance_to` / `drain`) on `tb`
/// inside a `core.testbed.rx` span, counting the frames it delivered and
/// the fused windows it formed.
pub fn rx<R>(tb: &mut TestBed, f: impl FnOnce(&mut TestBed) -> R) -> R {
    let frames = tb.packets_received_total();
    let windows = *tb.window_stats();
    let r = span("core.testbed.rx.busy_s", || f(tb));
    count(
        "core.testbed.rx.frames",
        tb.packets_received_total() - frames,
    );
    count(
        "core.testbed.rx.windows",
        tb.window_stats().windows - windows.windows,
    );
    count(
        "core.testbed.rx.window_frames",
        tb.window_stats().frames - windows.frames,
    );
    r
}

/// Counts what one test bed's run did in the cache and driver layers.
/// Call it once per machine run, before the bed is reset or dropped.
pub fn count_bed(tb: &TestBed) {
    let llc = tb.hierarchy().llc().stats();
    count("pc-cache.llc.accesses", llc.total_accesses());
    count("pc-cache.llc.defense_evals", llc.defense_evals);
    count(
        "pc-cache.memory.dram_lines",
        tb.hierarchy().memory_stats().total(),
    );
    count("pc-nic.driver.packets", tb.packets_received_total());
    let reallocations = (0..tb.queue_count())
        .map(|q| tb.queue_driver(q).reallocations())
        .sum();
    count("pc-nic.driver.reallocations", reallocations);
}

/// Counts generated frames (`pc-net.generate.frames`).
pub fn count_generated(frames: usize) {
    count("pc-net.generate.frames", frames as u64);
}
