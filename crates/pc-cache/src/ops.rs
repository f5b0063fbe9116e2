//! The cache-op intermediate representation (the op-stream IR).
//!
//! Every replay path in the reproduction — synthetic traces, the NIC
//! driver's receive path, the spy's prime/probe walks, the defense
//! workloads — ultimately issues the same thing: a stream of cache
//! accesses, sometimes separated by pure clock advances (driver
//! overheads, compute gaps). [`CacheOp`] is that stream's record type;
//! producers *emit* ops through the [`OpSink`] trait and consumers
//! replay them through [`crate::Hierarchy::run_ops`] /
//! [`crate::Hierarchy::run_trace`] (clock-advancing).
//!
//! The IR exists so one fast path serves everybody: a producer that
//! emits into an [`OpBuffer`] and replays the batch, or streams into a
//! [`crate::Hierarchy::applier`], gets the hierarchy's one replay step,
//! while the *same* emit code pointed at a [`crate::Hierarchy`] (which
//! implements [`OpSink`] by applying each op immediately) is the
//! per-access equivalence oracle — byte-identical results, per-access
//! latencies available mid-stream.
//!
//! ## Determinism contract
//!
//! A [`CacheOp::lead`] never changes cache behaviour — hits, evictions
//! and the adaptive defense's per-slice access-count clock
//! all depend only on the `(addr, kind)` stream. Leads only move the
//! cycle clock, and the clock moved over a replay is
//! `sum(leads) + sum(latencies) + trailing advance`, so a replayed
//! batch moves the clock exactly as issuing its ops one at a time.

use crate::addr::PhysAddr;
use crate::fault;
use crate::llc::AccessKind;
use crate::Cycles;

/// One cache operation in the op-stream IR: an address, an access kind,
/// and the clock lead that separates it from the previous op.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct CacheOp {
    /// Physical address of the line accessed.
    pub addr: PhysAddr,
    /// What kind of access this is.
    pub kind: AccessKind,
    /// Cycles the clock advances *before* this access issues — driver
    /// per-packet overheads, compute gaps, defense costs. Zero for
    /// back-to-back streams. Leads never affect cache behaviour (see
    /// the module-level determinism contract).
    pub lead: Cycles,
}

impl CacheOp {
    /// An op with no lead.
    #[inline]
    pub fn new(addr: PhysAddr, kind: AccessKind) -> Self {
        CacheOp {
            addr,
            kind,
            lead: 0,
        }
    }

    /// A CPU load.
    #[inline]
    pub fn read(addr: PhysAddr) -> Self {
        CacheOp::new(addr, AccessKind::CpuRead)
    }

    /// A CPU store.
    #[inline]
    pub fn write(addr: PhysAddr) -> Self {
        CacheOp::new(addr, AccessKind::CpuWrite)
    }

    /// A DMA write from an I/O device (a packet block arriving).
    #[inline]
    pub fn io_write(addr: PhysAddr) -> Self {
        CacheOp::new(addr, AccessKind::IoWrite)
    }

    /// A DMA read by an I/O device (descriptor fetch, transmit).
    #[inline]
    pub fn io_read(addr: PhysAddr) -> Self {
        CacheOp::new(addr, AccessKind::IoRead)
    }

    /// The same op preceded by a `lead`-cycle clock advance (builder
    /// style; adds to any lead already present).
    #[inline]
    #[must_use]
    pub fn after(mut self, lead: Cycles) -> Self {
        self.lead += lead;
        self
    }
}

impl From<(PhysAddr, AccessKind)> for CacheOp {
    fn from((addr, kind): (PhysAddr, AccessKind)) -> Self {
        CacheOp::new(addr, kind)
    }
}

/// Something cache ops can be emitted into.
///
/// Producers (the NIC driver's frame decomposition, the spy's
/// prime/probe walks, workload inner loops) are written once against
/// this trait; pointing them at an [`OpBuffer`] batches for
/// [`crate::Hierarchy::run_ops`], pointing them at a [`crate::Hierarchy`] replays per access —
/// the equivalence oracle, and the path to take when per-access
/// latencies are needed mid-stream.
pub trait OpSink {
    /// Accepts one op (any pending [`OpSink::advance`] becomes its
    /// lead).
    fn op(&mut self, op: CacheOp);

    /// Advances the clock by `cycles` before the next op issues (or as
    /// a trailing advance if no op follows).
    fn advance(&mut self, cycles: Cycles);
}

/// A reusable op batch: records emitted ops (folding [`OpSink::advance`]
/// calls into the next op's [`CacheOp::lead`]) for one
/// [`crate::Hierarchy::run_ops`] replay.
///
/// Producers carry one of these across batches and [`OpBuffer::clear`]
/// between them — capacity is preserved, so steady-state emission
/// allocates nothing. An advance with no
/// following op is kept as the [`OpBuffer::trailing`] advance and
/// applied by `run_ops` after the last access.
///
/// ```
/// use pc_cache::{CacheGeometry, CacheOp, DdioMode, Hierarchy, OpBuffer, OpSink, PhysAddr};
/// let mut h = Hierarchy::new(CacheGeometry::tiny(), DdioMode::enabled());
/// let mut buf = OpBuffer::new();
/// buf.op(CacheOp::io_write(PhysAddr::new(0x2000)));
/// buf.advance(300); // driver overhead before the header read
/// buf.op(CacheOp::read(PhysAddr::new(0x2000)));
/// let sum = h.run_ops(&buf);
/// assert_eq!(sum.accesses, 2);
/// assert_eq!(sum.cycles, h.now(), "leads and latencies both advance the clock");
/// ```
#[derive(Clone, Debug, Default)]
pub struct OpBuffer {
    ops: Vec<CacheOp>,
    pending: Cycles,
}

impl OpBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        OpBuffer::default()
    }

    /// Clears ops and the trailing advance, keeping capacity.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.pending = 0;
    }

    /// The recorded ops, in emission order.
    pub fn ops(&self) -> &[CacheOp] {
        &self.ops
    }

    /// Cycles of advance emitted after the last op (applied by
    /// [`crate::Hierarchy::run_ops`] once the ops have replayed).
    pub fn trailing(&self) -> Cycles {
        self.pending
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when no ops are recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl OpSink for OpBuffer {
    #[inline]
    fn op(&mut self, mut op: CacheOp) {
        // Fault site `corrupted-lead`: buffered producers skew keyed
        // ops' leads, violating the contract that a batch's clock
        // motion equals the per-access walk's. Keyed on the address.
        if fault::fires_keyed(fault::FaultSite::CorruptedLead, op.addr.raw()) {
            op.lead += 13;
        }
        op.lead += std::mem::take(&mut self.pending);
        self.ops.push(op);
    }

    #[inline]
    fn advance(&mut self, cycles: Cycles) {
        self.pending += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_folds_into_next_op_lead() {
        let mut buf = OpBuffer::new();
        buf.advance(100);
        buf.advance(50);
        buf.op(CacheOp::read(PhysAddr::new(0x40)));
        buf.op(CacheOp::io_write(PhysAddr::new(0x80)).after(7));
        buf.advance(9);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.ops()[0].lead, 150);
        assert_eq!(buf.ops()[1].lead, 7);
        assert_eq!(buf.trailing(), 9);
    }

    #[test]
    fn clear_resets_ops_and_trailing_but_keeps_capacity() {
        let mut buf = OpBuffer::new();
        for i in 0..64u64 {
            buf.op(CacheOp::write(PhysAddr::new(i * 64)).after(i * 7));
        }
        buf.advance(5);
        let cap = buf.ops.capacity();
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.trailing(), 0);
        assert_eq!(buf.ops.capacity(), cap);
    }

    #[test]
    fn constructors_set_kind_and_lead() {
        let a = PhysAddr::new(0x1000);
        assert_eq!(CacheOp::read(a).kind, AccessKind::CpuRead);
        assert_eq!(CacheOp::write(a).kind, AccessKind::CpuWrite);
        assert_eq!(CacheOp::io_write(a).kind, AccessKind::IoWrite);
        assert_eq!(CacheOp::io_read(a).kind, AccessKind::IoRead);
        assert_eq!(CacheOp::read(a).lead, 0);
        assert_eq!(CacheOp::read(a).after(3).after(4).lead, 7);
        let from: CacheOp = (a, AccessKind::IoRead).into();
        assert_eq!(from, CacheOp::io_read(a));
    }
}
