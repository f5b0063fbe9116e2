//! Hit/miss/eviction statistics for the simulated LLC.

/// Counters maintained by [`crate::SlicedCache`].
///
/// `io_evicted_cpu` is the paper's leak in one number: how many times an
/// incoming packet's DDIO fill displaced a CPU-domain line. Under the
/// adaptive partitioning defense it stays at (or very near) zero.
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct CacheStats {
    /// CPU-domain lookups that hit.
    pub cpu_hits: u64,
    /// CPU-domain lookups that missed.
    pub cpu_misses: u64,
    /// I/O lookups (DDIO writes / reads) that hit.
    pub io_hits: u64,
    /// I/O lookups that missed.
    pub io_misses: u64,
    /// Valid lines displaced by any fill.
    pub evictions: u64,
    /// Dirty lines written back to memory on displacement/invalidation.
    pub writebacks: u64,
    /// CPU-domain lines displaced by an I/O fill — the side-channel leak.
    pub io_evicted_cpu: u64,
    /// Lines invalidated by adaptive-partition boundary moves.
    pub partition_invalidations: u64,
    /// Adaptive-defense period re-evaluations: how many times a slice's
    /// defense clock crossed a period boundary and its recently active
    /// sets were re-evaluated (see [`crate::AdaptiveConfig`]). Always 0
    /// outside `Adaptive` mode. Per-slice counts are observable through
    /// [`crate::SlicedCache::slice_stats`] — the trace replay must
    /// reproduce the per-access walk's and the reference model's
    /// per-slice period boundaries exactly, and this counter is how
    /// tests pin that down.
    pub defense_evals: u64,
}

impl CacheStats {
    /// All counters zero.
    pub fn new() -> Self {
        CacheStats::default()
    }

    /// Folds another counter set into this one. Every field is a sum, so
    /// merging the per-slice shards of a [`crate::SlicedCache`] (in any
    /// order; slice order by convention) reproduces the totals a single
    /// shared counter set would have accumulated.
    pub fn merge(&mut self, other: CacheStats) {
        // Fault site `stat-off-by-one`: one merge inflates the CPU hit
        // total, so shard sums no longer reproduce a shared counter.
        if crate::fault::fires(crate::fault::FaultSite::StatOffByOne) {
            self.cpu_hits += 1;
        }
        self.cpu_hits += other.cpu_hits;
        self.cpu_misses += other.cpu_misses;
        self.io_hits += other.io_hits;
        self.io_misses += other.io_misses;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
        self.io_evicted_cpu += other.io_evicted_cpu;
        self.partition_invalidations += other.partition_invalidations;
        self.defense_evals += other.defense_evals;
    }

    /// Total CPU accesses.
    pub fn cpu_accesses(&self) -> u64 {
        self.cpu_hits + self.cpu_misses
    }

    /// CPU miss rate in `[0, 1]`; 0 when there were no accesses.
    pub fn cpu_miss_rate(&self) -> f64 {
        let total = self.cpu_accesses();
        if total == 0 {
            0.0
        } else {
            self.cpu_misses as f64 / total as f64
        }
    }

    /// Total accesses from both domains.
    pub fn total_accesses(&self) -> u64 {
        self.cpu_accesses() + self.io_hits + self.io_misses
    }

    /// Overall miss rate in `[0, 1]`; 0 when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            (self.cpu_misses + self.io_misses) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_accesses() {
        let s = CacheStats::new();
        assert_eq!(s.cpu_miss_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let s = CacheStats {
            cpu_hits: 3,
            cpu_misses: 1,
            io_hits: 4,
            io_misses: 2,
            ..Default::default()
        };
        assert_eq!(s.cpu_accesses(), 4);
        assert!((s.cpu_miss_rate() - 0.25).abs() < 1e-12);
        assert_eq!(s.total_accesses(), 10);
        assert!((s.miss_rate() - 0.3).abs() < 1e-12);
    }
}
