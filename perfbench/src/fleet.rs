//! The `fleet` workload: `fleet::run_fleet` over the standard tenant
//! templates, then Figure 16's tail-latency harness.
//!
//! Thousands of short runs on reset machines, with tenant fan-out
//! stacked on slice sharding, and `pc-defense` Workbench replay under
//! the open-loop load generator with ring randomization. Untraced
//! ([`library`]), the steps are `run_fleet` and `fig16_tail_latency`.
//! Traced ([`traced`]), the fleet re-composes as `run_tenant` per tenant
//! on one scratch, then `merge` (its machines are built per tenant, so
//! they are work), and Figure 16 mirrors `fig16_tail_latency` call by
//! call, with each defense's Workbench built as set-up.

use crate::harness::{Clock, Size, Step};
use crate::trace::{count, span};
use pc_bench::experiments::Scale;
use pc_bench::fleet::{self, FleetConfig, FleetReport, TenantOutcome};
use pc_bench::scenario::TenantScratch;
use pc_cache::{CacheGeometry, DdioMode};
use pc_defense::eval::{fig16_defenses, fig16_tail_latency, Fig16Row};
use pc_defense::histogram::LatencyHistogram;
use pc_defense::loadgen::{cycles_to_ms, run_http_load, LoadGenConfig};
use pc_defense::workloads::{NginxConfig, Workbench};
use pc_nic::{DriverConfig, RandomizeMode};
use pc_par::SeedDomain;

/// Fleet size of the standard input.
const TENANTS: usize = 256;
/// Open-loop requests per Figure 16 defense (the quick scale).
const FIG16_REQUESTS: usize = 8_000;
/// Warm-up requests per defense before the measured load.
const FIG16_WARMUP: usize = 200;

/// The span (and per-layer metric) of one template's tenants:
/// `tcp-recv/DDIO` → `bench.fleet.tenant_s.tcp-recv.DDIO`.
pub fn tenant_span(label: &str) -> String {
    format!("bench.fleet.tenant_s.{}", label.replace('/', "."))
}

fn fleet_config(seed: u64, size: Size) -> FleetConfig {
    match size {
        Size::Standard => FleetConfig::standard(TENANTS, seed, Scale::Quick),
        Size::Tiny => {
            let mut cfg = FleetConfig::standard(16, seed, Scale::Quick);
            for t in &mut cfg.templates {
                t.spec = t.spec.clone().with_units(24, 24);
            }
            cfg
        }
    }
}

pub fn fig16_requests(size: Size) -> usize {
    match size {
        Size::Standard => FIG16_REQUESTS,
        Size::Tiny => 500,
    }
}

/// One traced iteration, re-composed from the layer calls: every step's
/// rendered output.
pub fn traced(seed: u64, size: Size, clock: &mut Clock) -> Vec<Step> {
    vec![
        Step::new("fleet", run_fleet(seed, size, clock)),
        Step::new("fig16", fig16(seed, size, clock)),
    ]
}

/// Every step's set-up alone, its machines dropped untimed.
pub fn setup_only(seed: u64, size: Size, clock: &mut Clock) {
    clock.setup(|| fleet_config(seed, size));
    for (_, ddio, randomize) in fig16_defenses() {
        clock.setup(|| fig16_bench(ddio, randomize, seed));
    }
}

/// Every step's rendered output through `fleet::run_fleet` and
/// `fig16_tail_latency`: the untraced iteration and the oracle's
/// reference.
pub fn library(seed: u64, size: Size) -> Vec<Step> {
    vec![
        Step::new(
            "fleet",
            fleet::run_fleet(&fleet_config(seed, size)).render(),
        ),
        Step::new(
            "fig16",
            render_fig16(&fig16_tail_latency(fig16_requests(size), seed)),
        ),
    ]
}

fn render_fig16(rows: &[Fig16Row]) -> String {
    let mut out = String::from("defense,percentile,latency_ms\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{}\n",
            r.defense, r.percentile, r.latency_ms
        ));
    }
    out
}

fn run_fleet(seed: u64, size: Size, clock: &mut Clock) -> String {
    let cfg = clock.setup(|| fleet_config(seed, size));
    clock.work(|| {
        let report = fleet_sequential(&cfg);
        span("bench.render.busy_s", || report.render())
    })
}

/// `run_fleet`, sequential: every tenant on one reused scratch, in
/// tenant order, then the merge.
fn fleet_sequential(cfg: &FleetConfig) -> FleetReport {
    let cycle: Vec<usize> = cfg
        .templates
        .iter()
        .enumerate()
        .flat_map(|(i, t)| std::iter::repeat_n(i, t.weight as usize))
        .collect();
    let names: Vec<String> = cfg.templates.iter().map(|t| tenant_span(t.label)).collect();
    let mut scratch = TenantScratch::new();
    let outcomes: Vec<TenantOutcome> = (0..cfg.tenants)
        .map(|tenant| {
            let template = cycle[tenant % cycle.len()];
            let seed = pc_par::stream_seed(cfg.seed, SeedDomain::Tenant, tenant as u64);
            let metrics = span(&names[template], || {
                cfg.templates[template]
                    .spec
                    .run_tenant(cfg.scale, seed, &mut scratch)
                    .expect("standard templates are tenant workloads")
            });
            count("pc-cache.llc.accesses", metrics.llc.total_accesses());
            count("pc-cache.llc.defense_evals", metrics.llc.defense_evals);
            count("pc-cache.memory.dram_lines", metrics.dram_lines);
            if matches!(metrics.unit, "requests" | "packets" | "lines") {
                count("pc-defense.workloads.units", metrics.units);
            }
            TenantOutcome {
                tenant,
                template,
                metrics,
            }
        })
        .collect();
    span("bench.fleet.merge_s", || fleet::merge(cfg, &outcomes))
}

/// One Figure 16 defense's machine: the paper's, with the defense's DDIO
/// mode and ring randomization.
fn fig16_bench(ddio: DdioMode, randomize: RandomizeMode, seed: u64) -> Workbench {
    span("setup.workbench_s", || {
        let driver_cfg = DriverConfig {
            randomize,
            realloc_cost: 5_000,
            ..DriverConfig::paper_defaults()
        };
        Workbench::new(CacheGeometry::xeon_e5_2660(), ddio, driver_cfg, seed)
    })
}

/// Figure 16: each defense's bench warmed with nginx requests, then the
/// open-loop load; the paper's percentile ladder per defense.
fn fig16(seed: u64, size: Size, clock: &mut Clock) -> String {
    let nginx_cfg = NginxConfig {
        working_set_bytes: 12 << 20,
        compute_cycles: 145_000,
        ..NginxConfig::paper_defaults()
    };
    let lg = LoadGenConfig {
        requests: fig16_requests(size),
        ..LoadGenConfig::paper_defaults()
    };
    let mut rows = Vec::new();
    for (name, ddio, randomize) in fig16_defenses() {
        let mut bench = clock.setup(|| fig16_bench(ddio, randomize, seed));
        clock.work(|| {
            span("pc-defense.workloads.busy_s", || {
                for _ in 0..FIG16_WARMUP {
                    bench.nginx_request(&nginx_cfg);
                }
            });
            count("pc-defense.workloads.units", FIG16_WARMUP as u64);
            let mut report = span("pc-defense.loadgen.busy_s", || {
                run_http_load(&mut bench, &nginx_cfg, &lg)
            });
            count("pc-defense.workloads.units", lg.requests as u64);
            let ladder = report.histogram.paper_ladder();
            for (i, p) in LatencyHistogram::PAPER_PERCENTILES.iter().enumerate() {
                rows.push(Fig16Row {
                    defense: name,
                    percentile: *p,
                    latency_ms: cycles_to_ms(ladder[i]),
                });
            }
            let llc = bench.hierarchy().llc().stats();
            count("pc-cache.llc.accesses", llc.total_accesses());
            count("pc-cache.llc.defense_evals", llc.defense_evals);
            count(
                "pc-cache.memory.dram_lines",
                bench.hierarchy().memory_stats().total(),
            );
            count("pc-nic.driver.packets", bench.driver().packets_received());
            count(
                "pc-nic.driver.reallocations",
                bench.driver().reallocations(),
            );
        });
    }
    clock.work(|| span("bench.render.busy_s", || render_fig16(&rows)))
}

/// Fully randomized ring's p99 overhead over the vulnerable baseline, in
/// percent, from Figure 16 rows.
pub fn rand_p99_overhead_pct(rows: &[Fig16Row]) -> f64 {
    let p99 = |defense: &str| {
        rows.iter()
            .find(|r| r.defense == defense && (r.percentile - 99.0).abs() < 1e-9)
            .expect("figure 16 has a p99 row per defense")
            .latency_ms
    };
    (p99("Fully Randomized Ring Buffer") / p99("Vulnerable Baseline") - 1.0) * 100.0
}
