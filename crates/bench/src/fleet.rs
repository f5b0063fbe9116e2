//! Fleet orchestration: thousands of independent tenants, one merged,
//! deterministic report — the ROADMAP's "millions of users" story made
//! concrete (`repro fleet`).
//!
//! ## Tenant model
//!
//! A fleet is `N` **tenants** instantiated from a small set of
//! [`TenantTemplate`]s — scenario specs ([`crate::scenario`]) pinned to
//! one DDIO mode and tenant-scale work units, plus an integer weight.
//! Tenant `i` is assigned template `cycle[i % cycle.len()]`, where
//! `cycle` lists each template `weight` times — a deterministic
//! weighted round-robin that depends only on the template list, never
//! on thread count or timing.
//!
//! ## Seed derivation
//!
//! Every tenant owns its whole machine (TestBed/Workbench, hierarchy,
//! RNG) seeded with `pc_par::stream_seed(fleet_seed,
//! SeedDomain::Tenant, i)` — the one workspace helper for per-item
//! stream splitting, with a domain tag so tenant streams can never
//! collide with the slice/capture streams other fan-outs draw from.
//!
//! ## Deterministic merge
//!
//! Workers return per-tenant [`TenantMetrics`] through
//! `pc_par::parallel_map_scratch_threads`, which collects results in
//! tenant-index order regardless of which worker ran which tenant.
//! Every aggregation — float sums, percentile sorts, per-mode stats
//! merges — then iterates that index order, so the rendered report is
//! byte-identical for any thread count (the fleet determinism suite
//! and a CI byte-diff leg pin this).

use crate::experiments::Scale;
use crate::scenario::{self, Metric, ScenarioReport, ScenarioSpec, TenantMetrics, TenantScratch};
use pc_cache::{CacheStats, DdioMode};
use pc_par::SeedDomain;
use std::fmt::Write as _;

/// One tenant archetype: a scenario spec (already pinned to tenant
/// scale and mode) plus its share of the fleet.
#[derive(Clone, PartialEq, Debug)]
pub struct TenantTemplate {
    /// The workload this tenant class runs. Must be tenant-capable
    /// ([`ScenarioSpec::run_tenant`] returns `Some`).
    pub spec: ScenarioSpec,
    /// Reporting label (also the per-template statistics key).
    pub label: &'static str,
    /// Relative share of tenants assigned to this template.
    pub weight: u32,
}

/// The largest fleet `repro fleet --tenants N` accepts (2^20 tenants).
///
/// A fleet builds its job list and collects every tenant's outcome —
/// O(tenants) memory — before the merge, so an unbounded count ends in
/// an allocation abort rather than an error. The cap sits three orders
/// of magnitude above the 1024-tenant acceptance fleet.
pub const MAX_TENANTS: usize = 1 << 20;

/// Everything a fleet run needs. `threads` is explicit (rather than
/// read from the environment at run time) so determinism tests can pin
/// {1,2,4} workers side by side in one process.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of tenants to instantiate.
    pub tenants: usize,
    /// Fleet master seed; tenant `i` derives
    /// `stream_seed(seed, SeedDomain::Tenant, i)`.
    pub seed: u64,
    /// Work units per tenant ([`Scale::Quick`] for CI smoke).
    pub scale: Scale,
    /// Worker threads for the tenant fan-out.
    pub threads: usize,
    /// Tenant archetypes; must be non-empty with at least one positive
    /// weight.
    pub templates: Vec<TenantTemplate>,
}

impl FleetConfig {
    /// The standard fleet: the default template mix, worker count from
    /// `PC_BENCH_THREADS` ([`pc_par::max_threads`]).
    pub fn standard(tenants: usize, seed: u64, scale: Scale) -> Self {
        FleetConfig {
            tenants,
            seed,
            scale,
            threads: pc_par::max_threads(),
            templates: standard_templates(),
        }
    }

    /// The weighted round-robin assignment cycle: each template index
    /// repeated `weight` times, in template order.
    fn assignment_cycle(&self) -> Vec<usize> {
        let cycle: Vec<usize> = self
            .templates
            .iter()
            .enumerate()
            .flat_map(|(i, t)| std::iter::repeat_n(i, t.weight as usize))
            .collect();
        assert!(
            !cycle.is_empty(),
            "fleet needs at least one template with positive weight"
        );
        cycle
    }
}

/// The default tenant mix: every tenant-capable scenario, skewed
/// toward the paper's DDIO baseline with NoDDIO and Adaptive minorities
/// (so per-mode breakdowns always have all three configurations at
/// fleet sizes ≥ the cycle length of 16). The multi-queue flow
/// scenarios ride at the end of the cycle so the pre-RSS assignment of
/// the first twelve slots is unchanged.
pub fn standard_templates() -> Vec<TenantTemplate> {
    let spec = |name: &str| {
        scenario::find(name)
            .unwrap_or_else(|| panic!("scenario `{name}` not registered"))
            .clone()
    };
    vec![
        TenantTemplate {
            spec: spec("tcp-recv")
                .with_units(512, 4_096)
                .with_mode("DDIO", DdioMode::enabled()),
            label: "tcp-recv/DDIO",
            weight: 3,
        },
        TenantTemplate {
            spec: spec("tcp-recv")
                .with_units(512, 4_096)
                .with_mode("NoDDIO", DdioMode::Disabled),
            label: "tcp-recv/NoDDIO",
            weight: 1,
        },
        TenantTemplate {
            spec: spec("tcp-recv")
                .with_units(512, 4_096)
                .with_mode("Adaptive", DdioMode::adaptive()),
            label: "tcp-recv/Adaptive",
            weight: 2,
        },
        TenantTemplate {
            spec: spec("nginx")
                .with_units(60, 480)
                .with_mode("DDIO", DdioMode::enabled()),
            label: "nginx/DDIO",
            weight: 2,
        },
        TenantTemplate {
            spec: spec("nginx")
                .with_units(60, 480)
                .with_mode("Adaptive", DdioMode::adaptive()),
            label: "nginx/Adaptive",
            weight: 1,
        },
        TenantTemplate {
            spec: spec("file-copy")
                .with_units(1, 4)
                .with_mode("DDIO", DdioMode::enabled()),
            label: "file-copy/DDIO",
            weight: 1,
        },
        TenantTemplate {
            spec: spec("web-mix")
                .with_units(1, 4)
                .with_mode("DDIO", DdioMode::enabled()),
            label: "web-mix/DDIO",
            weight: 2,
        },
        TenantTemplate {
            spec: spec("kv-store")
                .with_units(256, 2_048)
                .with_mode("DDIO", DdioMode::enabled()),
            label: "kv-store/DDIO",
            weight: 2,
        },
        TenantTemplate {
            spec: spec("dns-flood")
                .with_units(256, 2_048)
                .with_mode("Adaptive", DdioMode::adaptive()),
            label: "dns-flood/Adaptive",
            weight: 1,
        },
        TenantTemplate {
            spec: spec("large-transfer")
                .with_units(64, 512)
                .with_mode("NoDDIO", DdioMode::Disabled),
            label: "large-transfer/NoDDIO",
            weight: 1,
        },
    ]
}

/// What one tenant produced, tagged for the merge.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TenantOutcome {
    /// Tenant index in `0..tenants` (also the merge order).
    pub tenant: usize,
    /// Index into [`FleetConfig::templates`].
    pub template: usize,
    /// The tenant's measurements.
    pub metrics: TenantMetrics,
}

/// Runs every tenant and returns outcomes **in tenant-index order**
/// (the fan-out collects by input index, not completion time).
pub fn run_fleet_outcomes(cfg: &FleetConfig) -> Vec<TenantOutcome> {
    let cycle = cfg.assignment_cycle();
    let jobs: Vec<(usize, usize)> = (0..cfg.tenants)
        .map(|i| (i, cycle[i % cycle.len()]))
        .collect();
    pc_par::parallel_map_scratch_threads(
        jobs,
        cfg.threads,
        TenantScratch::new,
        |scratch, (tenant, template)| {
            let seed = pc_par::stream_seed(cfg.seed, SeedDomain::Tenant, tenant as u64);
            let metrics = cfg.templates[template]
                .spec
                .run_tenant(cfg.scale, seed, scratch)
                .expect("fleet templates must be tenant-capable scenarios");
            TenantOutcome {
                tenant,
                template,
                metrics,
            }
        },
    )
}

/// One titled section of the fleet report.
#[derive(Clone, PartialEq, Debug)]
pub struct FleetSection {
    /// Section heading (rendered as a `# == title ==` line).
    pub title: &'static str,
    /// The section's data.
    pub report: ScenarioReport,
}

/// The merged fleet-level statistics, as data. [`FleetReport::render`]
/// is the single text rendering `repro fleet` prints and CI byte-diffs.
#[derive(Clone, PartialEq, Debug)]
pub struct FleetReport {
    /// Per-template percentiles, per-mode breakdown, aggregate.
    pub sections: Vec<FleetSection>,
}

impl FleetReport {
    /// Renders every section: heading comment, then the section's
    /// report through the one scenario renderer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.sections {
            let _ = writeln!(out, "# == {} ==", s.title);
            out.push_str(&s.report.render());
        }
        out
    }
}

/// Nearest-rank percentile of a **sorted** slice: the smallest value
/// with at least `p`% of the distribution at or below it.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty set");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Merges tenant outcomes (already in tenant-index order) into the
/// fleet report. Pure data-to-data: every iteration is in tenant or
/// template order, so the result is independent of how the outcomes
/// were computed.
pub fn merge(cfg: &FleetConfig, outcomes: &[TenantOutcome]) -> FleetReport {
    // Section 1 — per-template throughput/latency percentiles.
    let mut percentiles = ScenarioReport::new(vec![
        "template",
        "tenants",
        "unit",
        "p50_kunits_per_sec",
        "p90_kunits_per_sec",
        "p99_kunits_per_sec",
        "p50_cycles_per_unit",
        "p99_cycles_per_unit",
    ]);
    for (t, template) in cfg.templates.iter().enumerate() {
        let mut kups: Vec<f64> = Vec::new();
        let mut cpu: Vec<f64> = Vec::new();
        for o in outcomes.iter().filter(|o| o.template == t) {
            kups.push(o.metrics.units_per_second() / 1_000.0);
            cpu.push(o.metrics.cycles_per_unit() as f64);
        }
        if kups.is_empty() {
            continue; // template unused at this fleet size
        }
        kups.sort_by(f64::total_cmp);
        cpu.sort_by(f64::total_cmp);
        percentiles.push_row(vec![
            Metric::Text(template.label.to_string()),
            Metric::Count(kups.len() as u64),
            Metric::Text(
                outcomes
                    .iter()
                    .find(|o| o.template == t)
                    .expect("non-empty")
                    .metrics
                    .unit
                    .to_string(),
            ),
            Metric::Fixed(nearest_rank(&kups, 50.0), 1),
            Metric::Fixed(nearest_rank(&kups, 90.0), 1),
            Metric::Fixed(nearest_rank(&kups, 99.0), 1),
            Metric::Count(nearest_rank(&cpu, 50.0) as u64),
            Metric::Count(nearest_rank(&cpu, 99.0) as u64),
        ]);
    }
    percentiles.comment("nearest-rank percentiles over per-tenant simulated throughput");

    // Section 2 — per-DDIO-mode breakdown, figure-experiment order.
    let mut modes = ScenarioReport::new(vec![
        "config",
        "tenants",
        "units",
        "llc_miss_rate",
        "dram_lines",
        "defense_evals",
    ]);
    for mode in ["NoDDIO", "DDIO", "Adaptive"] {
        let mut tenants = 0u64;
        let mut units = 0u64;
        let mut llc = CacheStats::new();
        let mut dram_lines = 0u64;
        for o in outcomes.iter().filter(|o| o.metrics.mode == mode) {
            tenants += 1;
            units += o.metrics.units;
            llc.merge(o.metrics.llc);
            dram_lines += o.metrics.dram_lines;
        }
        if tenants == 0 {
            continue;
        }
        modes.push_row(vec![
            Metric::Text(mode.to_string()),
            Metric::Count(tenants),
            Metric::Count(units),
            Metric::Fixed(llc.miss_rate(), 3),
            Metric::Count(dram_lines),
            Metric::Count(llc.defense_evals),
        ]);
    }

    // Section 3 — fleet aggregate: total work and summed line rate.
    let mut total_units = 0u64;
    let mut kups_sum = 0.0f64;
    let mut packets_per_sec = 0.0f64;
    for o in outcomes {
        total_units += o.metrics.units;
        kups_sum += o.metrics.units_per_second() / 1_000.0;
        if matches!(o.metrics.unit, "packets" | "frames") {
            packets_per_sec += o.metrics.units_per_second();
        }
    }
    let mut aggregate = ScenarioReport::new(vec![
        "tenants",
        "total_units",
        "aggregate_kunits_per_sec",
        "aggregate_packets_per_sec",
    ]);
    aggregate.push_row(vec![
        Metric::Count(outcomes.len() as u64),
        Metric::Count(total_units),
        Metric::Fixed(kups_sum, 1),
        Metric::Fixed(packets_per_sec, 0),
    ]);
    aggregate.comment(format!(
        "fleet of {} tenants over {} templates, seed {}",
        cfg.tenants,
        cfg.templates.len(),
        cfg.seed
    ));
    aggregate.comment(
        "aggregate line rate sums per-tenant simulated throughput; \
         packets_per_sec counts packet- and frame-unit tenants only",
    );

    FleetReport {
        sections: vec![
            FleetSection {
                title: "per-template percentiles",
                report: percentiles,
            },
            FleetSection {
                title: "per-mode breakdown",
                report: modes,
            },
            FleetSection {
                title: "aggregate",
                report: aggregate,
            },
        ],
    }
}

/// Runs the fleet and merges: the `repro fleet` entry point.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    merge(cfg, &run_fleet_outcomes(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_fleet(tenants: usize, threads: usize) -> FleetConfig {
        // Shrunk units so the whole suite stays fast in debug builds.
        let mut cfg = FleetConfig::standard(tenants, 2020, Scale::Quick);
        cfg.threads = threads;
        for t in &mut cfg.templates {
            t.spec = t.spec.clone().with_units(24, 24);
        }
        cfg
    }

    #[test]
    fn template_queue_counts_reach_the_tenants() {
        // 16 tenants cover the whole cycle, multi-queue flow templates
        // included; pinning every template to one queue must show.
        let default = tiny_fleet(16, 2);
        let mut single = default.clone();
        for t in &mut single.templates {
            t.spec = t.spec.clone().with_queues(1);
        }
        assert_ne!(
            run_fleet(&default).render(),
            run_fleet(&single).render(),
            "the template queue count does not reach the tenant beds"
        );
    }

    #[test]
    fn outcomes_come_back_in_tenant_index_order() {
        let cfg = tiny_fleet(13, 3);
        let outcomes = run_fleet_outcomes(&cfg);
        assert_eq!(outcomes.len(), 13);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.tenant, i);
        }
    }

    #[test]
    fn assignment_follows_the_weighted_cycle() {
        let cfg = tiny_fleet(14, 1);
        let cycle = cfg.assignment_cycle();
        assert_eq!(cycle.len(), 16, "standard weights sum to 16");
        let outcomes = run_fleet_outcomes(&cfg);
        for o in &outcomes {
            assert_eq!(o.template, cycle[o.tenant % cycle.len()]);
        }
        // Weight 3 template appears 3x as often as weight 1 per cycle.
        assert_eq!(cycle.iter().filter(|&&t| t == 0).count(), 3);
        assert_eq!(cycle.iter().filter(|&&t| t == 1).count(), 1);
    }

    #[test]
    fn tenants_get_distinct_seed_derived_results() {
        // Two tenants of the same template must not be clones: their
        // derived seeds differ, so their machines differ. Standard
        // cycle slots 6 and 7 are both nginx/DDIO, whose random
        // working-set reads make the metrics seed-sensitive (tiny
        // tcp-recv runs are legitimately seed-insensitive in aggregate).
        let cfg = tiny_fleet(8, 1);
        let outcomes = run_fleet_outcomes(&cfg);
        assert_eq!(outcomes[6].template, outcomes[7].template);
        assert_eq!(outcomes[6].metrics.unit, "requests");
        assert_ne!(
            outcomes[6].metrics, outcomes[7].metrics,
            "distinct tenant seeds must yield distinct measurements"
        );
    }

    #[test]
    fn merge_is_a_pure_function_of_outcomes() {
        let cfg = tiny_fleet(12, 2);
        let outcomes = run_fleet_outcomes(&cfg);
        let a = merge(&cfg, &outcomes).render();
        let b = merge(&cfg, &outcomes).render();
        assert_eq!(a, b);
        assert!(a.contains("# == per-template percentiles =="));
        assert!(a.contains("# == per-mode breakdown =="));
        assert!(a.contains("# == aggregate =="));
        assert!(a.contains("tcp-recv/DDIO"));
        assert!(a.contains("NoDDIO"), "standard mix covers all modes");
        assert!(a.contains("Adaptive"));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 90.0), 90.0);
        assert_eq!(nearest_rank(&v, 99.0), 99.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        let one = [7.0];
        assert_eq!(nearest_rank(&one, 50.0), 7.0);
        assert_eq!(nearest_rank(&one, 99.0), 7.0);
    }
}
