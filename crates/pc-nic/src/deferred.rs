//! Deferred CPU reads: the header-to-payload latency without DDIO.
//!
//! Without DDIO the NIC writes packets to *memory*; the driver reads the
//! header promptly, but the payload is only demand-fetched when the
//! networking stack or application touches it — up to ~20 k cycles later
//! (paper §IV-d, citing Huggahalli et al.). The driver model emits those
//! future reads as deferred accesses; the test bed executes them when the
//! clock catches up.

use pc_cache::{Cycles, Hierarchy, PhysAddr};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A time-ordered queue of future CPU reads.
///
/// ```
/// use pc_cache::{CacheGeometry, DdioMode, Hierarchy, PhysAddr};
/// use pc_nic::DeferredReads;
///
/// let mut h = Hierarchy::new(CacheGeometry::tiny(), DdioMode::Disabled);
/// let mut q = DeferredReads::new();
/// q.push(1_000, PhysAddr::new(0x3000));
/// assert_eq!(q.run_due(&mut h), 0); // clock at 0: nothing due yet
/// h.advance(2_000);
/// assert_eq!(q.run_due(&mut h), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DeferredReads {
    heap: BinaryHeap<Reverse<(Cycles, u64)>>,
}

impl DeferredReads {
    /// An empty queue.
    pub fn new() -> Self {
        DeferredReads::default()
    }

    /// Schedules a CPU read of `addr` at cycle `at`.
    pub fn push(&mut self, at: Cycles, addr: PhysAddr) {
        self.heap.push(Reverse((at, addr.raw())));
    }

    /// Schedules a batch of reads.
    pub fn extend<I: IntoIterator<Item = (Cycles, PhysAddr)>>(&mut self, items: I) {
        for (at, addr) in items {
            self.push(at, addr);
        }
    }

    /// Pending read count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Cycle of the earliest pending read, if any.
    pub fn next_due(&self) -> Option<Cycles> {
        self.heap.peek().map(|Reverse((at, _))| *at)
    }

    /// Executes every read whose time has come (`at <= h.now()`),
    /// returning how many ran.
    pub fn run_due(&mut self, h: &mut Hierarchy) -> usize {
        let mut ran = 0;
        while let Some(Reverse((at, raw))) = self.heap.peek().copied() {
            if at > h.now() {
                break;
            }
            self.heap.pop();
            // Fault site `dropped-deferred-read`: the rx path loses one
            // due payload read.
            if pc_cache::fault::fires(pc_cache::fault::FaultSite::DroppedDeferredRead) {
                continue;
            }
            h.cpu_read(PhysAddr::new(raw));
            ran += 1;
        }
        ran
    }

    /// Executes *all* pending reads regardless of time (end-of-experiment
    /// drain), returning how many ran.
    pub fn drain_all(&mut self, h: &mut Hierarchy) -> usize {
        let mut ran = 0;
        while let Some(Reverse((_, raw))) = self.heap.pop() {
            h.cpu_read(PhysAddr::new(raw));
            ran += 1;
        }
        ran
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_cache::{CacheGeometry, DdioMode};

    fn h() -> Hierarchy {
        Hierarchy::new(CacheGeometry::tiny(), DdioMode::Disabled)
    }

    #[test]
    fn runs_in_time_order() {
        let mut h = h();
        let mut q = DeferredReads::new();
        q.push(500, PhysAddr::new(0x1000));
        q.push(100, PhysAddr::new(0x2000));
        assert_eq!(q.next_due(), Some(100));
        h.advance(200);
        assert_eq!(q.run_due(&mut h), 1, "only the cycle-100 read is due");
        assert!(h.llc().contains(PhysAddr::new(0x2000)));
        assert!(!h.llc().contains(PhysAddr::new(0x1000)));
    }

    #[test]
    fn drain_runs_everything() {
        let mut h = h();
        let mut q = DeferredReads::new();
        q.extend([
            (10_000, PhysAddr::new(0x1000)),
            (20_000, PhysAddr::new(0x2000)),
        ]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.drain_all(&mut h), 2);
        assert!(q.is_empty());
    }
}
