//! The PRIME+PROBE primitive over one eviction set.

use crate::eviction::EvictionSet;
use pc_cache::{Cycles, Hierarchy, WalkOrder};

/// Result of probing one eviction set.
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct ProbeResult {
    /// Accesses classified as misses (≥ threshold).
    pub misses: u32,
    /// Total latency of the probe pass.
    pub total_latency: Cycles,
}

impl ProbeResult {
    /// `true` if any line of the primed set was evicted since the prime —
    /// i.e. the victim (or the NIC) touched this cache set.
    pub fn activity(&self) -> bool {
        self.misses > 0
    }
}

/// A PRIME+PROBE instance bound to one eviction set.
///
/// `prime` fills the target cache set with the spy's lines; `probe`
/// re-walks them, timing each access. Probing in reverse order re-primes
/// the set as a side effect (the classic zig-zag pattern), so steady-state
/// monitoring is just repeated `probe` calls.
#[derive(Clone, Debug)]
pub struct PrimeProbe {
    set: EvictionSet,
    threshold: Cycles,
}

impl PrimeProbe {
    /// Binds the primitive to `set`, classifying accesses at or above
    /// `threshold` cycles as misses (see
    /// [`crate::calibrate_threshold`]).
    pub fn new(set: EvictionSet, threshold: Cycles) -> Self {
        PrimeProbe { set, threshold }
    }

    /// The underlying eviction set.
    pub fn eviction_set(&self) -> &EvictionSet {
        &self.set
    }

    /// Whether the batch fast path can classify this instance's probe
    /// from aggregates alone under `lat`: the latency model separates
    /// hit from miss at the threshold (`llc_hit < threshold ≤ dram` —
    /// true for every calibrated threshold), so per-access timing
    /// recovers exactly as `misses = accesses − hits`.
    fn batch_separable(&self, lat: pc_cache::LatencyModel) -> bool {
        lat.llc_hit < self.threshold && lat.dram >= self.threshold
    }

    /// Fills the target set with the spy's lines: the set's decoded
    /// walk, forward ([`Hierarchy::run_walk`]) — identical cache and
    /// clock behaviour to per-address `cpu_read`s.
    ///
    /// # Panics
    ///
    /// Panics if the set was built against a cache of another geometry.
    pub fn prime(&self, h: &mut Hierarchy) {
        h.run_walk(self.set.walk(), WalkOrder::Forward);
    }

    /// Times a pass over the set (in reverse, re-priming as it goes).
    ///
    /// When the hierarchy's latency model separates hit from miss at
    /// this instance's threshold (`llc_hit < threshold ≤ dram` — true
    /// for every calibrated threshold), the pass replays the decoded
    /// walk in reverse: the per-access classification is recovered
    /// exactly from the aggregate (`misses = accesses − hits`),
    /// byte-identical to timing each access. A threshold that splits
    /// the model ambiguously falls back to the per-access oracle walk.
    ///
    /// # Panics
    ///
    /// Panics if the set was built against a cache of another geometry.
    pub fn probe(&self, h: &mut Hierarchy) -> ProbeResult {
        let lat = h.latencies();
        if self.batch_separable(lat) {
            let sum = h.run_walk(self.set.walk(), WalkOrder::Reverse);
            return ProbeResult {
                misses: (sum.accesses - sum.hits) as u32,
                total_latency: sum.cycles,
            };
        }
        let mut result = ProbeResult::default();
        for &addr in self.set.addresses().iter().rev() {
            let lat = h.cpu_read(addr);
            result.total_latency += lat;
            if lat >= self.threshold {
                result.misses += 1;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::oracle_eviction_sets;
    use crate::pool::AddressPool;
    use pc_cache::{CacheGeometry, DdioMode, PhysAddr, SliceSet};

    fn setup() -> (Hierarchy, PrimeProbe, PhysAddr) {
        let h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let pool = AddressPool::allocate(5, 12288);
        // A victim address the NIC would write: pick any page, then build
        // the eviction set for its (slice, set).
        let victim = PhysAddr::new(4096 * 999);
        let target = h.llc().locate(victim);
        let sets = oracle_eviction_sets(h.llc(), &pool, &[target]);
        let pp = PrimeProbe::new(
            sets.into_iter().next().expect("pool covers the set"),
            h.latencies().miss_threshold(),
        );
        (h, pp, victim)
    }

    #[test]
    fn quiet_set_shows_no_activity() {
        let (mut h, pp, _) = setup();
        pp.prime(&mut h);
        let r = pp.probe(&mut h);
        assert!(!r.activity(), "unexpected misses: {}", r.misses);
    }

    #[test]
    fn io_write_to_set_is_detected() {
        let (mut h, pp, victim) = setup();
        pp.prime(&mut h);
        h.io_write(victim); // a packet block lands in the primed set
        let r = pp.probe(&mut h);
        assert!(r.activity(), "DDIO fill must evict a primed line");
    }

    #[test]
    fn io_write_to_other_set_is_not_detected() {
        let (mut h, pp, victim) = setup();
        // An address in a *different* set: shift the set-index bits.
        let elsewhere = PhysAddr::new(victim.raw() ^ 0x40);
        assert_ne!(h.llc().locate(elsewhere), h.llc().locate(victim));
        pp.prime(&mut h);
        h.io_write(elsewhere);
        let r = pp.probe(&mut h);
        assert!(!r.activity());
    }

    #[test]
    fn batched_probe_matches_per_access_timing() {
        // The batch replay recovers the per-access classification from
        // the aggregate; a hand-timed reverse walk on a cloned machine
        // must agree in misses, total latency and final clock.
        let (mut h, pp, victim) = setup();
        pp.prime(&mut h);
        h.io_write(victim);
        let mut oracle = h.clone();
        let r = pp.probe(&mut h);
        let mut misses = 0u32;
        let mut total = 0;
        for &a in pp.eviction_set().addresses().iter().rev() {
            let lat = oracle.cpu_read(a);
            total += lat;
            if lat >= oracle.latencies().miss_threshold() {
                misses += 1;
            }
        }
        assert!(r.misses > 0, "the I/O write must be visible");
        assert_eq!(r.misses, misses);
        assert_eq!(r.total_latency, total);
        assert_eq!(h.now(), oracle.now());
        assert_eq!(h.llc().stats(), oracle.llc().stats());
    }

    #[test]
    fn probe_reprimes() {
        let (mut h, pp, victim) = setup();
        pp.prime(&mut h);
        h.io_write(victim);
        let _ = pp.probe(&mut h); // detects and re-primes
        let r2 = pp.probe(&mut h);
        assert!(!r2.activity(), "second probe must be clean after re-prime");
    }

    #[test]
    fn adaptive_defense_makes_io_indistinguishable_from_idle() {
        // Under the adaptive partition the spy's full-associativity
        // eviction set self-conflicts with the reserved I/O ways, so its
        // probe sees a *constant* baseline miss count. The security
        // property is differential: incoming packets change nothing.
        let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::adaptive());
        let pool = AddressPool::allocate(5, 12288);
        let victim = PhysAddr::new(4096 * 999);
        let target: SliceSet = h.llc().locate(victim);
        let sets = oracle_eviction_sets(h.llc(), &pool, &[target]);
        let pp = PrimeProbe::new(
            sets.into_iter().next().expect("covered"),
            h.latencies().miss_threshold(),
        );
        pp.prime(&mut h);
        let _ = pp.probe(&mut h); // settle
                                  // Baseline: several idle probes.
        let idle: Vec<u32> = (0..5).map(|_| pp.probe(&mut h).misses).collect();
        // Under I/O fire: several probes with packets in between.
        let mut busy = Vec::new();
        for i in 0..5u64 {
            for b in 0..4u64 {
                h.io_write(victim.add_blocks(b));
                h.advance(100 + i);
            }
            busy.push(pp.probe(&mut h).misses);
        }
        assert_eq!(idle, busy, "I/O traffic must not change the probe signal");
        assert_eq!(h.llc().stats().io_evicted_cpu, 0);
    }
}
