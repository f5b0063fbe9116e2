//! The LLC `access` hot path: raw accesses/sec on the paper's Xeon
//! geometry, for the SoA store *and* the original per-set reference
//! layout, on three trace shapes:
//!
//! * `stream` — uniform random lines over a region far larger than the
//!   LLC: every access misses, bounding trace-replay experiments like
//!   the fig14-16 defense workloads.
//! * `resident` — a working set that fits in the LLC: steady-state hits,
//!   the shape of the spy's PRIME+PROBE inner loops (fig7/8, table 1).
//! * `conflict` — many tags competing for few sets: eviction-dominated,
//!   the shape of DDIO ring traffic hammering page-aligned sets.
//!
//! Each shape runs under Disabled/Enabled/Adaptive DDIO with an I/O-write
//! mix. `cache_access/...` is the SoA store, `cache_access_reference/...`
//! the pre-refactor layout, measured in the same process so the speedup
//! is re-established wherever the bench runs. Set `CRITERION_JSON` to
//! capture machine-readable medians (the `repro bench-cache` subcommand
//! does this for `BENCH_cache.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pc_bench::cache_bench::cases;
use pc_cache::reference::ReferenceCache;
use pc_cache::{CacheGeometry, SlicedCache};

fn access_soa(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_access");
    group.sample_size(10);
    for (name, ops, mode) in cases() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &mode, |b, &mode| {
            // Build once and keep the cache warm across samples: the
            // measurement is the steady-state access path, not
            // construction.
            let mut llc = SlicedCache::new(CacheGeometry::xeon_e5_2660(), mode);
            b.iter(|| {
                for &op in &ops {
                    llc.access(op.addr, op.kind);
                }
                llc.stats()
            });
        });
    }
    group.finish();
}

fn access_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_access_reference");
    group.sample_size(10);
    for (name, ops, mode) in cases() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &mode, |b, &mode| {
            let mut llc = ReferenceCache::new(CacheGeometry::xeon_e5_2660(), mode);
            b.iter(|| {
                for &op in &ops {
                    llc.access(op.addr, op.kind);
                }
                llc.stats()
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = access_soa, access_reference
}
criterion_main!(benches);
