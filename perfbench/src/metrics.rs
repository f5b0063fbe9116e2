//! Per-layer metrics from the traced run, and the fidelity probes.

use crate::harness::Size;
use crate::trace::Tracer;
use crate::{attack, fleet};
use pc_defense::eval::fig16_tail_latency;

/// The seed the fidelity probes always use: the one `repro all` and the
/// golden snapshots use. Fidelity is a property of the model, so it is
/// measured on fixed inputs; 40 trials per configuration would
/// otherwise swing it by several points from seed to seed.
const FIDELITY_SEED: u64 = 2020;
/// §V: closed-world fingerprinting accuracy with DDIO, in percent.
const PAPER_FP_DDIO_PCT: f64 = 89.7;
/// §V: closed-world fingerprinting accuracy without DDIO, in percent.
const PAPER_FP_NODDIO_PCT: f64 = 86.5;
/// §VII, Figure 16: fully randomized ring's p99 overhead, in percent.
const PAPER_FIG16_RAND_P99_PCT: f64 = 41.8;

/// Per-layer time metrics: the span names whose summed self time each
/// reports (per traced iteration). The `setup.` ones account for
/// `setup_s`; the rest account for `wall_s`.
const SPAN_METRICS: [&str; 20] = [
    "pc-net.generate.busy_s",
    "core.testbed.rx.busy_s",
    "pc-probe.monitor.prime_s",
    "pc-probe.monitor.sample_s",
    "core.chasing.spy_build_s",
    "core.chasing.observe_s",
    "core.sequencer.busy_s",
    "core.levenshtein.busy_s",
    "core.fingerprint.train_s",
    "core.fingerprint.classify_s",
    "pc-defense.workloads.busy_s",
    "pc-defense.loadgen.busy_s",
    "bench.fleet.merge_s",
    "bench.render.busy_s",
    "bench.construct_s",
    "bench.glue_s",
    "setup.testbed_s",
    "setup.address_pool_s",
    "setup.monitor_s",
    "setup.workbench_s",
];

/// Exact counts, per traced iteration.
const COUNT_METRICS: [&str; 10] = [
    "pc-net.generate.frames",
    "core.testbed.rx.frames",
    "core.testbed.rx.windows",
    "pc-cache.llc.accesses",
    "pc-cache.llc.defense_evals",
    "pc-cache.memory.dram_lines",
    "pc-nic.driver.packets",
    "pc-nic.driver.reallocations",
    "pc-probe.monitor.samples",
    "pc-defense.workloads.units",
];

/// One `(name, unit, value)` metric.
pub type MetricValue = (String, &'static str, f64);

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, averaged per traced iteration.
///
/// `traced_wall` and `untraced_wall` are the mean `wall_s` of the traced
/// and untraced iterations of the same process; their difference is
/// `trace.overhead_s`.
pub fn per_layer(
    t: &Tracer,
    iterations: usize,
    traced_wall: f64,
    untraced_wall: f64,
) -> Vec<MetricValue> {
    let n = iterations.max(1) as f64;
    let per_iter = |v: f64| v / n;
    let mut out: Vec<(&str, &'static str, f64)> = Vec::new();
    for name in SPAN_METRICS {
        out.push((name, "s", per_iter(t.self_s(name))));
    }
    for name in COUNT_METRICS {
        out.push((name, "count", per_iter(t.counter(name) as f64)));
    }
    out.push(("setup.other_s", "s", per_iter(t.self_s("setup.other_s"))));

    let rx_ns = t.self_s("core.testbed.rx.busy_s") * 1e9;
    let rx_calls = t.calls("core.testbed.rx.busy_s") as f64;
    let rx_frames = t.counter("core.testbed.rx.frames") as f64;
    out.push(("core.testbed.rx.calls", "count", per_iter(rx_calls)));
    out.push(("core.testbed.rx.ns_per_call", "ns", ratio(rx_ns, rx_calls)));
    out.push((
        "core.testbed.rx.ns_per_frame",
        "ns",
        ratio(rx_ns, rx_frames),
    ));
    out.push((
        "core.testbed.rx.frames_per_window",
        "frames",
        ratio(
            t.counter("core.testbed.rx.window_frames") as f64,
            t.counter("core.testbed.rx.windows") as f64,
        ),
    ));
    out.push((
        "pc-probe.monitor.ns_per_sample",
        "ns",
        ratio(
            t.self_s("pc-probe.monitor.sample_s") * 1e9,
            t.counter("pc-probe.monitor.samples") as f64,
        ),
    ));
    let observe_calls = t.counter("core.chasing.calls") as f64;
    out.push(("core.chasing.calls", "count", per_iter(observe_calls)));
    out.push((
        "core.chasing.observed_ratio",
        "ratio",
        ratio(t.counter("core.chasing.observations") as f64, observe_calls),
    ));
    let mut out: Vec<MetricValue> = out
        .into_iter()
        .map(|(n, u, v)| (n.to_string(), u, v))
        .collect();
    for template in pc_bench::fleet::standard_templates() {
        let name = fleet::tenant_span(template.label);
        let value = per_iter(t.self_s(&name));
        out.push((name, "s", value));
    }
    out.push(("trace.wall_s".into(), "s", traced_wall));
    out.push(("trace.overhead_s".into(), "s", traced_wall - untraced_wall));
    out
}

/// The per-layer table as Markdown: work self times, largest first, then
/// every other metric. Layers the workload never calls (zero) are left out.
pub fn layer_table(layers: &[MetricValue]) -> String {
    let wall = layers
        .iter()
        .find(|(n, _, _)| n == "trace.wall_s")
        .map_or(0.0, |m| m.2);
    let is_work =
        |n: &str, u: &str| u == "s" && !n.starts_with("setup.") && !n.starts_with("trace.");
    let mut times: Vec<&MetricValue> = layers
        .iter()
        .filter(|(n, u, v)| is_work(n, u) && *v > 0.0)
        .collect();
    times.sort_by(|a, b| b.2.total_cmp(&a.2));
    let mut out = String::from(
        "| layer (self time) | s per iteration | share of traced wall |\n|---|---|---|\n",
    );
    for (name, _, v) in times {
        out.push_str(&format!(
            "| `{name}` | {v:.4} | {:.1} % |\n",
            ratio(*v, wall) * 100.0
        ));
    }
    out.push_str("\n| metric | value | unit |\n|---|---|---|\n");
    for (name, unit, v) in layers {
        if !is_work(name, unit) && *v != 0.0 {
            out.push_str(&format!("| `{name}` | {v:.4} | {unit} |\n"));
        }
    }
    out
}

/// The fidelity probes' gaps to the paper, in points.
pub struct Fidelity {
    /// |fingerprint accuracy with DDIO − 89.7 %|.
    pub fp_ddio_dev_pp: f64,
    /// |fingerprint accuracy without DDIO − 86.5 %|.
    pub fp_noddio_dev_pp: f64,
    /// |fully randomized ring's p99 overhead − 41.8 %|.
    pub fig16_rand_p99_dev_pp: f64,
}

/// Runs the fidelity probes at [`FIDELITY_SEED`]: the closed-world
/// fingerprint experiment and Figure 16, read from their typed results.
pub fn fidelity(size: Size) -> Fidelity {
    let (ddio, no_ddio) = attack::fingerprint_library(FIDELITY_SEED, size);
    let rows = fig16_tail_latency(fleet::fig16_requests(size), FIDELITY_SEED);
    Fidelity {
        fp_ddio_dev_pp: (ddio.accuracy * 100.0 - PAPER_FP_DDIO_PCT).abs(),
        fp_noddio_dev_pp: (no_ddio.accuracy * 100.0 - PAPER_FP_NODDIO_PCT).abs(),
        fig16_rand_p99_dev_pp: (fleet::rand_p99_overhead_pct(&rows) - PAPER_FIG16_RAND_P99_PCT)
            .abs(),
    }
}
