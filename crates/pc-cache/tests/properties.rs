//! Property-based tests for the cache substrate's invariants.

use pc_cache::{
    AccessKind, AdaptiveConfig, CacheGeometry, DdioMode, Domain, PhysAddr, SlicedCache,
};
use proptest::prelude::*;

/// A random stream of line-aligned addresses confined to a small region so
/// sets actually conflict.
fn addr_strategy() -> impl Strategy<Value = PhysAddr> {
    (0u64..(1 << 18)).prop_map(|line| PhysAddr::new(line * 64))
}

fn kind_strategy() -> impl Strategy<Value = AccessKind> {
    prop_oneof![
        Just(AccessKind::CpuRead),
        Just(AccessKind::CpuWrite),
        Just(AccessKind::IoWrite),
        Just(AccessKind::IoRead),
    ]
}

fn mode_strategy() -> impl Strategy<Value = DdioMode> {
    prop_oneof![
        Just(DdioMode::Disabled),
        (1u8..4).prop_map(|w| DdioMode::Enabled { io_way_limit: w }),
        Just(DdioMode::Adaptive(AdaptiveConfig {
            period: 64,
            ..AdaptiveConfig::paper_defaults()
        })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The set-index/tag decomposition plus page arithmetic must be
    /// invertible: two addresses with equal (tag, set) within a slice hash
    /// to the same line.
    #[test]
    fn address_decomposition_identifies_lines(a in addr_strategy(), b in addr_strategy()) {
        let g = CacheGeometry::xeon_e5_2660();
        let same_line = a.line_base() == b.line_base();
        let same_decomp = g.tag(a) == g.tag(b) && g.set_index(a) == g.set_index(b);
        prop_assert_eq!(same_line, same_decomp);
    }

    /// After any access sequence, a line just accessed by the CPU is
    /// present (unless DDIO-disabled DMA or a later conflict removed it —
    /// we check immediately after the access).
    #[test]
    fn cpu_access_installs_line(
        mode in mode_strategy(),
        warmup in proptest::collection::vec((addr_strategy(), kind_strategy()), 0..200),
        target in addr_strategy(),
    ) {
        let mut llc = SlicedCache::new(CacheGeometry::tiny(), mode);
        for (a, k) in warmup {
            llc.access(a, k);
        }
        llc.access(target, AccessKind::CpuRead);
        prop_assert!(llc.contains(target));
    }

    /// The DDIO way limit is a hard cap: no set ever holds more I/O lines
    /// than allowed, no matter the access mix.
    #[test]
    fn io_way_limit_is_never_exceeded(
        limit in 1u8..4,
        ops in proptest::collection::vec((addr_strategy(), kind_strategy()), 1..400),
    ) {
        let mode = DdioMode::Enabled { io_way_limit: limit };
        let mut llc = SlicedCache::new(CacheGeometry::tiny(), mode);
        for (a, k) in &ops {
            llc.access(*a, *k);
            let ss = llc.locate(*a);
            prop_assert!(llc.domain_count(ss, Domain::Io) <= limit as usize);
        }
    }

    /// Under the adaptive defense, an I/O fill never displaces a CPU line
    /// — the security property of §VII — for any interleaving.
    #[test]
    fn adaptive_partition_blocks_cross_domain_eviction(
        ops in proptest::collection::vec((addr_strategy(), kind_strategy()), 1..500),
        period in 16u64..256,
    ) {
        let cfg = AdaptiveConfig { period, ..AdaptiveConfig::paper_defaults() };
        let mut llc = SlicedCache::new(CacheGeometry::tiny(), DdioMode::Adaptive(cfg));
        for (a, k) in ops {
            llc.access(a, k);
        }
        prop_assert_eq!(llc.stats().io_evicted_cpu, 0);
    }

    /// Adaptive I/O partition sizes stay within configured bounds.
    #[test]
    fn adaptive_limits_stay_bounded(
        ops in proptest::collection::vec((addr_strategy(), kind_strategy()), 1..500),
    ) {
        let cfg = AdaptiveConfig { period: 32, ..AdaptiveConfig::paper_defaults() };
        let mut llc = SlicedCache::new(CacheGeometry::tiny(), DdioMode::Adaptive(cfg));
        for (a, k) in &ops {
            llc.access(*a, *k);
            let ss = llc.locate(*a);
            let lim = llc.io_partition_limit(ss);
            prop_assert!(lim >= cfg.min_io_lines as usize && lim <= cfg.max_io_lines as usize);
        }
    }

    /// Hits never generate DRAM traffic; misses read at most one line and
    /// write back at most one line per access.
    #[test]
    fn traffic_accounting_is_sane(
        mode in mode_strategy(),
        ops in proptest::collection::vec((addr_strategy(), kind_strategy()), 1..300),
    ) {
        let mut llc = SlicedCache::new(CacheGeometry::tiny(), mode);
        for (a, k) in ops {
            let out = llc.access(a, k);
            if out.hit {
                prop_assert_eq!(out.dram_reads, 0);
                prop_assert_eq!(out.dram_writes, 0);
            }
            prop_assert!(out.dram_reads <= 1);
            prop_assert!(out.dram_writes <= 1);
        }
    }

    /// Statistics identities: accesses = hits + misses per domain, and
    /// overall miss rate is within [0, 1].
    #[test]
    fn stats_identities_hold(
        mode in mode_strategy(),
        ops in proptest::collection::vec((addr_strategy(), kind_strategy()), 1..300),
    ) {
        let mut llc = SlicedCache::new(CacheGeometry::tiny(), mode);
        let (mut cpu, mut io) = (0u64, 0u64);
        for (a, k) in ops {
            llc.access(a, k);
            if k.is_io() { io += 1 } else { cpu += 1 }
        }
        let s = llc.stats();
        prop_assert_eq!(s.cpu_hits + s.cpu_misses, cpu);
        prop_assert_eq!(s.io_hits + s.io_misses, io);
        let mr = s.miss_rate();
        prop_assert!((0.0..=1.0).contains(&mr));
    }
}
