//! The batched cache-op intermediate representation (the op-stream IR).
//!
//! Every replay path in the reproduction — synthetic traces, the NIC
//! driver's receive path, the spy's prime/probe walks, the defense
//! workloads — ultimately issues the same thing: a stream of cache
//! accesses, sometimes separated by pure clock advances (driver
//! overheads, compute gaps). [`CacheOp`] is that stream's record type;
//! producers *emit* ops through the [`OpSink`] trait and consumers
//! replay them through [`crate::Hierarchy::run_ops`] /
//! [`crate::Hierarchy::run_trace`] (clock-advancing) or
//! [`crate::SlicedCache::access_batch`] (clockless).
//!
//! The IR exists so one engine serves everybody: a producer that emits
//! into an [`OpBuffer`] and replays the batch gets the slice-sharded
//! fast path for free, while the *same* emit code pointed at a
//! [`crate::Hierarchy`] (which implements [`OpSink`] by applying each
//! op immediately) is the per-access equivalence oracle — byte-identical
//! results, per-access latencies available mid-stream.
//!
//! ## Determinism contract
//!
//! A [`CacheOp::lead`] never changes cache behaviour — hits, evictions,
//! RNG draws and the adaptive defense's per-slice access-count clock
//! all depend only on the `(addr, kind)` stream. Leads only move the
//! cycle clock, and the clock moved over a replay is
//! `sum(leads) + sum(latencies) + trailing advance`, which is
//! order-independent — the reason a batch with leads can still shard
//! by slice and stay byte-identical to the sequential walk.
//!
//! ## The packed 8-byte batch layout
//!
//! [`CacheOp`] is the *decoded* record — 24 bytes of `{addr, kind,
//! lead}`. [`OpBuffer`] does not store it: each recorded op packs into
//! one `u64` word, so a 64 Ki-op burst window costs 512 KiB of scratch
//! bandwidth instead of 1.5 MiB:
//!
//! ```text
//! bit 63                                  6 5   4 3        0
//!     ├── addr line bits (addr & !0x3F) ──┼ kind ┼ lead code┤
//! ```
//!
//! * **Address** — the full 58 line-granule bits, in their natural
//!   position. The 6 block-offset bits are dropped: nothing a replay
//!   consumes survives them (set index and tag shift them off, the
//!   slice-hash masks are zero below bit 6 — pinned by
//!   `packed_ops_quantize_addresses_to_lines`).
//! * **Kind** — 2 bits, the four [`AccessKind`] variants.
//! * **Lead code** — 4 bits: `0..=14` is the lead itself (most ops are
//!   back-to-back, lead 0); `15` escapes to a side channel, an ordered
//!   `(op index, lead)` list carried alongside the words for the rare
//!   large leads (per-frame driver overheads, defense costs). The
//!   decode iterator walks the side channel with a cursor, so decoding
//!   stays a mask and a shift per op.

use crate::addr::PhysAddr;
use crate::fault;
use crate::llc::AccessKind;
use crate::Cycles;

/// Workspace-wide cap on how many ops a replay scratch batch may hold
/// before it must flush: 64 Ki ops.
///
/// Consumers that accumulate op batches of unbounded logical length —
/// the test bed's burst windows, the defense workloads' replay chunks —
/// size against this one constant so their scratch memory stays bounded
/// (a few MiB) and their flush boundaries agree. Flush boundaries are
/// *not* observable (the determinism contract makes a split batch
/// byte-identical to an unsplit one); the cap only bounds memory.
pub const OP_SCRATCH_CAP: u64 = 1 << 16;

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

// ---- the packed 8-byte word (see the module docs) --------------------

/// Bits of the inline lead code.
const LEAD_BITS: u32 = 4;
/// Lead code marking an escaped (side-channel) lead.
const LEAD_ESCAPE: u64 = (1 << LEAD_BITS) - 1;
/// Largest lead stored inline.
const LEAD_INLINE_MAX: Cycles = LEAD_ESCAPE - 1;
/// Shift of the 2-bit kind field.
const KIND_SHIFT: u32 = LEAD_BITS;
/// Mask selecting the address line bits of a packed word.
const ADDR_MASK: u64 = !((1 << (KIND_SHIFT + 2)) - 1);

#[inline]
fn kind_code(kind: AccessKind) -> u64 {
    match kind {
        AccessKind::CpuRead => 0,
        AccessKind::CpuWrite => 1,
        AccessKind::IoWrite => 2,
        AccessKind::IoRead => 3,
    }
}

#[inline]
fn code_kind(code: u64) -> AccessKind {
    match code & 0x3 {
        0 => AccessKind::CpuRead,
        1 => AccessKind::CpuWrite,
        2 => AccessKind::IoWrite,
        _ => AccessKind::IoRead,
    }
}

const _: () = assert!(
    ADDR_MASK == !0x3F,
    "packed layout must drop exactly the 6 block-offset bits"
);

/// Something cache ops can be emitted into.
///
/// Producers (the NIC driver's frame decomposition, the spy's
/// prime/probe walks, workload inner loops) are written once against
/// this trait; pointing them at an [`OpBuffer`] batches for the sharded
/// engine, pointing them at a [`crate::Hierarchy`] replays per access —
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
/// Ops are stored packed — one 8-byte word each, large leads escaped to
/// an ordered side channel (see the module docs) — and decoded back to
/// [`CacheOp`]s by [`OpBuffer::iter`]. Packing quantizes addresses to
/// line granularity, which is invisible to every replay consumer (set
/// index, tag and slice hash all ignore the block offset).
///
/// Producers carry one of these across batches and [`OpBuffer::clear`]
/// between them — capacity is preserved, so steady-state emission
/// allocates nothing (the `TraceBins` pattern). An advance with no
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
    /// Packed words, one per op (module-docs layout).
    words: Vec<u64>,
    /// Escaped leads: `(op index, lead)`, ascending in op index.
    long_leads: Vec<(u32, Cycles)>,
    pending: Cycles,
    /// Segment marks: `(first op index, carry)`, ascending in op index.
    /// The carry is the pending advance captured when the mark was
    /// placed — cycles that belong to the *closing* (previous) segment
    /// (see [`OpBuffer::mark_segment`]).
    seg_marks: Vec<(u32, Cycles)>,
    /// Sum of all mark carries, so the unsegmented replays can spend
    /// them without walking the marks.
    carry_sum: Cycles,
}

impl OpBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        OpBuffer::default()
    }

    /// Clears ops, segment marks and the trailing advance, keeping
    /// capacity.
    pub fn clear(&mut self) {
        self.words.clear();
        self.long_leads.clear();
        self.seg_marks.clear();
        self.carry_sum = 0;
        self.pending = 0;
    }

    /// Opens a new segment at the current op position.
    ///
    /// Any pending advance is captured as the mark's *carry* and
    /// attributed to the segment being closed — it was emitted after
    /// that segment's last op (a trailing defense cost, say), so its
    /// cycles belong to the previous segment's subtotal, not the new
    /// one's. Producers call this immediately before the first op of
    /// each segment; a segmented replay
    /// ([`crate::Hierarchy::run_ops_segmented`]) then reports one cycle
    /// subtotal per mark, in mark order, summing to exactly the
    /// unsegmented replay's clock motion.
    pub fn mark_segment(&mut self) {
        if self.seg_marks.is_empty() {
            debug_assert_eq!(
                self.pending, 0,
                "first segment mark must not swallow a pre-batch advance"
            );
        }
        let carry = std::mem::take(&mut self.pending);
        self.carry_sum += carry;
        self.seg_marks.push((self.words.len() as u32, carry));
    }

    /// Total advance cycles captured as mark carries (zero for an
    /// unmarked buffer). The unsegmented replays spend these alongside
    /// the trailing advance, so marking segments never changes what a
    /// replay does — marks are pure reporting.
    pub(crate) fn carry_total(&self) -> Cycles {
        self.carry_sum
    }

    /// Number of segment marks (zero for an unsegmented buffer).
    pub fn segments(&self) -> usize {
        self.seg_marks.len()
    }

    /// Per-segment spans, in mark order: `(start op, end op, tail)`.
    ///
    /// `tail` is the advance attributed to the segment *after* its ops:
    /// the next mark's carry, or [`OpBuffer::trailing`] for the last
    /// segment. Empty when the buffer has no marks.
    pub(crate) fn segment_spans(&self) -> Vec<(usize, usize, Cycles)> {
        let n = self.seg_marks.len();
        let mut spans = Vec::with_capacity(n);
        for k in 0..n {
            let start = self.seg_marks[k].0 as usize;
            let (end, tail) = match self.seg_marks.get(k + 1) {
                Some(&(next_start, carry)) => (next_start as usize, carry),
                None => (self.words.len(), self.pending),
            };
            spans.push((start, end, tail));
        }
        spans
    }

    /// Decodes the recorded ops, in emission order. Addresses come back
    /// quantized to their line base.
    pub fn iter(&self) -> OpIter<'_> {
        OpIter {
            words: &self.words,
            long_leads: &self.long_leads,
            next: 0,
            cursor: 0,
        }
    }

    /// Line address of op `index`, decoded straight from its packed
    /// word (no lead, no escape cursor), or `None` past the end: the
    /// inline replay's prefetch lookahead.
    #[inline]
    pub(crate) fn line_addr(&self, index: usize) -> Option<PhysAddr> {
        self.words
            .get(index)
            .map(|&word| PhysAddr::new(word & ADDR_MASK))
    }

    /// Cycles of advance emitted after the last op (applied by
    /// [`crate::Hierarchy::run_ops`] once the ops have replayed).
    pub fn trailing(&self) -> Cycles {
        self.pending
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` when no ops are recorded.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

impl<'a> IntoIterator for &'a OpBuffer {
    type Item = CacheOp;
    type IntoIter = OpIter<'a>;

    fn into_iter(self) -> OpIter<'a> {
        self.iter()
    }
}

/// Decoding iterator over an [`OpBuffer`]'s packed ops (see
/// [`OpBuffer::iter`]). `ExactSizeIterator`, so replay dispatch can
/// size scratch without a separate length pass.
#[derive(Clone, Debug)]
pub struct OpIter<'a> {
    words: &'a [u64],
    long_leads: &'a [(u32, Cycles)],
    next: usize,
    cursor: usize,
}

impl Iterator for OpIter<'_> {
    type Item = CacheOp;

    #[inline]
    fn next(&mut self) -> Option<CacheOp> {
        let &word = self.words.get(self.next)?;
        let code = word & LEAD_ESCAPE;
        let lead = if code < LEAD_ESCAPE {
            code
        } else {
            let (index, lead) = self.long_leads[self.cursor];
            debug_assert_eq!(index as usize, self.next, "escape cursor in sync");
            self.cursor += 1;
            // Fault site `truncated-lead`: the packed decode clips a
            // keyed escaped lead to the largest inline value, so the
            // buffered batch's clock falls short of the per-access
            // walk's. Lexically buffered-decode-only — the streaming
            // and oracle engines never decode a packed word.
            if fault::fires_keyed(fault::FaultSite::TruncatedLead, word) {
                LEAD_INLINE_MAX
            } else {
                lead
            }
        };
        self.next += 1;
        Some(CacheOp {
            addr: PhysAddr::new(word & ADDR_MASK),
            kind: code_kind(word >> KIND_SHIFT),
            lead,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.words.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for OpIter<'_> {}

impl OpSink for OpBuffer {
    #[inline]
    fn op(&mut self, mut op: CacheOp) {
        // Fault site `corrupted-lead`: buffered producers skew keyed
        // ops' leads, violating the contract that a batch's clock
        // motion equals the per-access walk's. Keyed on the raw
        // (pre-quantization) address, exactly as before packing.
        if fault::fires_keyed(fault::FaultSite::CorruptedLead, op.addr.raw()) {
            op.lead += 13;
        }
        // Most ops have no pending advance; keep the common path to a
        // predictable branch and a push.
        if self.pending != 0 {
            op.lead += self.pending;
            self.pending = 0;
        }
        let mut word = (op.addr.raw() & ADDR_MASK) | (kind_code(op.kind) << KIND_SHIFT);
        if op.lead <= LEAD_INLINE_MAX {
            word |= op.lead;
        } else {
            word |= LEAD_ESCAPE;
            self.long_leads.push((self.words.len() as u32, op.lead));
        }
        self.words.push(word);
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
        let ops: Vec<CacheOp> = buf.iter().collect();
        assert_eq!(ops[0].lead, 150);
        assert_eq!(ops[1].lead, 7);
        assert_eq!(buf.trailing(), 9);
    }

    #[test]
    fn clear_resets_ops_and_trailing_but_keeps_capacity() {
        let mut buf = OpBuffer::new();
        for i in 0..64u64 {
            buf.op(CacheOp::write(PhysAddr::new(i * 64)).after(i * 7));
        }
        buf.advance(5);
        let cap = buf.words.capacity();
        let lead_cap = buf.long_leads.capacity();
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.trailing(), 0);
        assert_eq!(buf.words.capacity(), cap);
        assert_eq!(buf.long_leads.capacity(), lead_cap);
    }

    /// Packing drops exactly the 6 block-offset bits — nothing else.
    /// Set index, tag and slice hash all shift those bits away, so the
    /// quantization is invisible to replay (the slice-hash masks are
    /// pinned zero below bit 6 by `slicehash::low_six_bits_do_not_matter`).
    #[test]
    fn packed_ops_quantize_addresses_to_lines() {
        let mut buf = OpBuffer::new();
        buf.op(CacheOp::read(PhysAddr::new(0x1234_5678_9abc_def7)));
        let got = buf.iter().next().unwrap();
        assert_eq!(got.addr, PhysAddr::new(0x1234_5678_9abc_def7).line_base());
        assert_eq!(got.kind, AccessKind::CpuRead);
        assert_eq!(got.lead, 0);
    }

    /// Round trip across the whole lead range: 0..=14 encode inline,
    /// 15 and up take the escape side channel. Kind and line address
    /// survive either path.
    #[test]
    fn packed_round_trip_spans_the_escape_threshold() {
        let kinds = [
            AccessKind::CpuRead,
            AccessKind::CpuWrite,
            AccessKind::IoWrite,
            AccessKind::IoRead,
        ];
        let leads: [Cycles; 9] = [0, 1, 13, 14, 15, 16, 255, 65_536, u64::MAX >> 8];
        let mut buf = OpBuffer::new();
        let mut want = Vec::new();
        for (i, &lead) in leads.iter().enumerate() {
            let op = CacheOp::new(
                PhysAddr::new((i as u64 + 1) << 20 | 0x3F),
                kinds[i % kinds.len()],
            )
            .after(lead);
            want.push(CacheOp {
                addr: op.addr.line_base(),
                ..op
            });
            buf.op(op);
        }
        assert_eq!(
            buf.long_leads.len(),
            leads.iter().filter(|&&l| l > LEAD_INLINE_MAX).count(),
            "only leads above the inline max hit the side channel"
        );
        let got: Vec<CacheOp> = buf.iter().collect();
        assert_eq!(got, want);
        assert_eq!(buf.iter().len(), leads.len(), "ExactSizeIterator holds");
    }

    /// Folded `advance` cycles can push an otherwise-inline lead over
    /// the escape threshold; the decode must still see the folded sum.
    #[test]
    fn folded_advance_escapes_when_it_crosses_the_threshold() {
        let mut buf = OpBuffer::new();
        buf.advance(10);
        buf.op(CacheOp::io_read(PhysAddr::new(0x400)).after(10));
        assert_eq!(buf.long_leads.len(), 1);
        assert_eq!(buf.iter().next().unwrap().lead, 20);
    }

    /// Segment marks capture the pending advance as the *closing*
    /// segment's tail: a defense-cost advance emitted after frame k's
    /// ops lands in segment k's subtotal, exactly where the per-frame
    /// engine would have spent it.
    #[test]
    fn segment_marks_attribute_carries_to_the_closing_segment() {
        let mut buf = OpBuffer::new();
        buf.mark_segment();
        buf.op(CacheOp::io_write(PhysAddr::new(0x40)));
        buf.op(CacheOp::read(PhysAddr::new(0x40)));
        buf.advance(1_500); // frame 0's trailing defense cost
        buf.mark_segment();
        buf.op(CacheOp::io_write(PhysAddr::new(0x80)).after(300));
        buf.advance(7);
        assert_eq!(buf.segments(), 2);
        assert_eq!(
            buf.segment_spans(),
            vec![(0, 2, 1_500), (2, 3, 7)],
            "carry of mark k+1 is segment k's tail; trailing is the last tail"
        );
        // The carry was consumed by the mark, not folded into the next
        // op's lead.
        let ops: Vec<CacheOp> = buf.iter().collect();
        assert_eq!(ops[2].lead, 300);
        assert_eq!(buf.trailing(), 7);
        buf.clear();
        assert_eq!(buf.segments(), 0);
        assert!(buf.segment_spans().is_empty());
    }

    /// An empty segment (mark, no ops, mark) still gets a span, so a
    /// zero-op frame keeps its position in the reconstruction.
    #[test]
    fn empty_segments_keep_their_spans() {
        let mut buf = OpBuffer::new();
        buf.mark_segment();
        buf.mark_segment();
        buf.op(CacheOp::read(PhysAddr::new(0x40)));
        assert_eq!(buf.segment_spans(), vec![(0, 0, 0), (0, 1, 0)]);
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
