//! Multi-set monitoring: the sampling loops behind Figures 7 and 8.

use crate::eviction::EvictionSet;
use crate::prime_probe::PrimeProbe;
use pc_cache::{Cycles, Hierarchy};

/// One monitored cache set with the spy's label for it.
///
/// Labels are whatever numbering the attacker chooses — for the packet
/// chasing attack, "page-aligned set number 0..255" or "block k of buffer
/// page".
#[derive(Clone, Debug)]
pub struct MonitorTarget {
    /// The spy's name for this set.
    pub label: usize,
    /// The PRIME+PROBE instance bound to it.
    pub probe: PrimeProbe,
}

impl MonitorTarget {
    /// Creates a labelled target.
    pub fn new(label: usize, set: EvictionSet, threshold: Cycles) -> Self {
        MonitorTarget {
            label,
            probe: PrimeProbe::new(set, threshold),
        }
    }
}

/// A boolean activity matrix: sample × target, `true` when the probe of
/// that target observed at least one miss in that interval — exactly the
/// white dots of the paper's Figure 7.
///
/// Rows are stored as packed `u64` bitsets (one bit per monitored
/// target) instead of `Vec<Vec<bool>>`: a 256-target row is 4 words, the
/// whole matrix one contiguous allocation, and per-target totals are
/// popcount loops. Activity is sparse (a handful of sets light up per
/// sample), so consumers iterate set bits via [`RowBits::iter_active`]
/// rather than scanning every column.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SampleMatrix {
    labels: Vec<usize>,
    /// `width` words per row, rows back to back.
    words: Vec<u64>,
    width: usize,
    samples: usize,
}

/// One packed row of a [`SampleMatrix`].
#[derive(Copy, Clone, Debug)]
pub struct RowBits<'a> {
    words: &'a [u64],
    len: usize,
}

impl RowBits<'_> {
    /// Number of columns (targets).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the row has zero columns.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether column `i` saw activity.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "column out of range");
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Indices of the active columns, ascending.
    pub fn iter_active(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            std::iter::successors((w != 0).then_some(w), |&m| {
                let m = m & (m - 1);
                (m != 0).then_some(m)
            })
            .map(move |m| wi * 64 + m.trailing_zeros() as usize)
        })
    }
}

impl SampleMatrix {
    /// An empty matrix over `labels`.
    pub fn new(labels: Vec<usize>) -> Self {
        let width = labels.len().div_ceil(64);
        SampleMatrix {
            labels,
            words: Vec::new(),
            width,
            samples: 0,
        }
    }

    /// The target labels (column order).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The sample rows, as packed bitsets.
    pub fn rows(&self) -> impl Iterator<Item = RowBits<'_>> {
        let len = self.labels.len();
        self.words
            .chunks_exact(self.width.max(1))
            .take(self.samples)
            .map(move |words| RowBits { words, len })
    }

    /// Number of samples taken.
    pub fn len(&self) -> usize {
        self.samples
    }

    /// `true` when no samples have been taken.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Appends a sample row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the label count.
    pub fn push(&mut self, row: Vec<bool>) {
        self.push_bools(&row);
    }

    /// Appends a sample row from a bool slice (no ownership needed).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the label count.
    pub fn push_bools(&mut self, row: &[bool]) {
        assert_eq!(row.len(), self.labels.len(), "row width mismatch");
        let base = self.words.len();
        self.words.resize(base + self.width.max(1), 0);
        for (i, &hit) in row.iter().enumerate() {
            if hit {
                self.words[base + i / 64] |= 1 << (i % 64);
            }
        }
        self.samples += 1;
    }

    /// Total activity events per target, in label order.
    pub fn activity_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.labels.len()];
        for row in self.rows() {
            for col in row.iter_active() {
                counts[col] += 1;
            }
        }
        counts
    }

    /// Fraction of samples with activity, per target.
    pub fn activity_fractions(&self) -> Vec<f64> {
        let n = self.samples.max(1) as f64;
        self.activity_counts()
            .into_iter()
            .map(|c| c as f64 / n)
            .collect()
    }
}

/// Samples a list of targets at a fixed probe rate.
///
/// Each `sample` call probes every target once (which re-primes them) —
/// one row of the activity matrix. The caller interleaves packet
/// deliveries between samples; see the test-bed in `pc-core`.
///
/// A probe epoch observes a synchronized machine: `TestBed::advance_to`
/// returns with every delivered frame's ops applied, so the probe never
/// sees a half-replayed frame. Inside an epoch the monitor probes its
/// targets one after another with [`PrimeProbe::probe`].
#[derive(Clone, Debug)]
pub struct Monitor {
    targets: Vec<MonitorTarget>,
}

impl Monitor {
    /// Creates a monitor over `targets`.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    pub fn new(targets: Vec<MonitorTarget>) -> Self {
        assert!(!targets.is_empty(), "monitor needs targets");
        Monitor { targets }
    }

    /// The monitored targets.
    pub fn targets(&self) -> &[MonitorTarget] {
        &self.targets
    }

    /// Labels in column order.
    pub fn labels(&self) -> Vec<usize> {
        self.targets.iter().map(|t| t.label).collect()
    }

    /// Primes every target (attack setup), in target order, each with
    /// its decoded walk ([`PrimeProbe::prime`]).
    pub fn prime_all(&self, h: &mut Hierarchy) {
        for t in &self.targets {
            t.probe.prime(h);
        }
    }

    /// Probes every target once, in target order, returning per-target
    /// activity.
    pub fn sample(&self, h: &mut Hierarchy) -> Vec<bool> {
        self.targets
            .iter()
            .map(|t| t.probe.probe(h).activity())
            .collect()
    }

    /// Probes every target once, in target order, returning per-target
    /// miss counts.
    pub fn sample_misses(&self, h: &mut Hierarchy) -> Vec<u32> {
        self.targets
            .iter()
            .map(|t| t.probe.probe(h).misses)
            .collect()
    }

    /// An empty matrix shaped for this monitor.
    pub fn matrix(&self) -> SampleMatrix {
        SampleMatrix::new(self.labels())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::oracle_eviction_sets;
    use crate::pool::AddressPool;
    use pc_cache::{CacheGeometry, DdioMode, PhysAddr, SliceSet};

    fn setup(n: usize) -> (Hierarchy, Monitor, Vec<PhysAddr>) {
        let h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let pool = AddressPool::allocate(6, 8192);
        // Monitor n distinct page-aligned sets; victims are NIC-side pages
        // that land in them.
        let mut victims = Vec::new();
        let mut targets = Vec::new();
        let mut label = 0usize;
        for page in 0..2000u64 {
            if targets.len() >= n {
                break;
            }
            let v = PhysAddr::new(page * 4096);
            let ss: SliceSet = h.llc().locate(v);
            if victims.iter().any(|&p| h.llc().locate(p) == ss) {
                continue;
            }
            let set = oracle_eviction_sets(h.llc(), &pool, &[ss]).remove(0);
            targets.push(MonitorTarget::new(
                label,
                set,
                h.latencies().miss_threshold(),
            ));
            victims.push(v);
            label += 1;
        }
        (h, Monitor::new(targets), victims)
    }

    #[test]
    fn idle_monitor_sees_nothing() {
        let (mut h, m, _) = setup(4);
        m.prime_all(&mut h);
        let row = m.sample(&mut h);
        assert_eq!(row, vec![false; 4]);
    }

    #[test]
    fn activity_lands_on_the_right_column() {
        let (mut h, m, victims) = setup(4);
        m.prime_all(&mut h);
        let _ = m.sample(&mut h);
        h.io_write(victims[2]);
        let row = m.sample(&mut h);
        assert_eq!(row, vec![false, false, true, false]);
    }

    #[test]
    fn matrix_counts_activity() {
        let (mut h, m, victims) = setup(3);
        m.prime_all(&mut h);
        let mut mat = m.matrix();
        for i in 0..6 {
            if i % 2 == 0 {
                h.io_write(victims[1]);
            }
            mat.push(m.sample(&mut h));
        }
        assert_eq!(mat.len(), 6);
        let counts = mat.activity_counts();
        assert_eq!(counts[0], 0);
        assert_eq!(counts[1], 3);
        assert_eq!(counts[2], 0);
        let fracs = mat.activity_fractions();
        assert!((fracs[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn matrix_rejects_ragged_rows() {
        let mut m = SampleMatrix::new(vec![0, 1]);
        m.push(vec![true]);
    }

    #[test]
    fn sample_matches_per_access_probing() {
        // The monitor's sample against a hand-timed per-access walk of
        // every target on a cloned machine: same misses, same clock,
        // same cache statistics.
        let (mut h, m, victims) = setup(6);
        m.prime_all(&mut h);
        let _ = m.sample(&mut h);
        h.io_write(victims[1]);
        h.io_write(victims[4]);
        let mut oracle = h.clone();
        let sampled = m.sample_misses(&mut h);
        let threshold = oracle.latencies().miss_threshold();
        let timed: Vec<u32> = m
            .targets()
            .iter()
            .map(|t| {
                let addrs = t.probe.eviction_set().addresses();
                addrs
                    .iter()
                    .rev()
                    .filter(|&&a| oracle.cpu_read(a) >= threshold)
                    .count() as u32
            })
            .collect();
        assert_eq!(sampled, timed);
        assert_eq!(h.now(), oracle.now());
        assert_eq!(h.llc().stats(), oracle.llc().stats());
        assert!(sampled[1] > 0 && sampled[4] > 0, "activity where written");
        assert_eq!(sampled[0], 0);
    }
}
