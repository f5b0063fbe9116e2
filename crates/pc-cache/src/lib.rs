//! # pc-cache — memory-hierarchy substrate for the Packet Chasing reproduction
//!
//! This crate simulates the part of an Intel Xeon server that the
//! *Packet Chasing* attack (Taram, Venkat, Tullsen — ISCA 2020) observes:
//! a large, sliced, set-associative last-level cache (LLC) that is shared
//! between CPU cores and I/O devices via Intel **Data Direct I/O (DDIO)**.
//!
//! The paper's experiments ran on a Xeon E5-2660 with a 20 MiB LLC split
//! into 8 slices of 2048 sets × 20 ways, with an undocumented hash mapping
//! physical addresses to slices. All of that is modelled here:
//!
//! * [`PhysAddr`] / [`CacheGeometry`] — address decomposition (tag / set /
//!   block offset) for an arbitrary geometry; the paper's machine is
//!   [`CacheGeometry::xeon_e5_2660`].
//! * [`SliceHash`] — XOR-of-address-bits slice selection in the style
//!   reverse-engineered by Maurice et al.; unknown to the attacker crates.
//! * [`SlicedCache`] — the LLC proper, with per-line *domains*
//!   ([`Domain::Cpu`] vs [`Domain::Io`]) so that DDIO's write-allocation
//!   restriction (at most 2 ways per set for I/O) and the paper's adaptive
//!   partitioning defense can be expressed.
//! * [`DdioMode`] — `Disabled` (pre-DDIO DMA to memory), `Enabled`
//!   (vulnerable baseline), or `Adaptive` (the paper's §VII defense).
//! * [`Hierarchy`] — the facade every other crate uses: a cycle clock plus
//!   `cpu_read` / `cpu_write` / `io_write` / `io_read` operations that
//!   return latencies and maintain memory-traffic statistics.
//! * [`CacheOp`] / [`OpSink`] / [`OpBuffer`] — the batched op-stream IR:
//!   producers (the NIC driver, the spy's walks, workload loops) emit
//!   op batches once and replay them through the slice-sharded engine
//!   ([`Hierarchy::run_ops`]), or point the same emit code at the
//!   [`Hierarchy`] itself for the per-access equivalence oracle.
//!
//! The simulator is deterministic: all randomized behaviour (the `Random`
//! replacement policy) draws from an RNG seeded at construction.
//!
//! ## Example
//!
//! ```
//! use pc_cache::{CacheGeometry, DdioMode, Hierarchy, PhysAddr};
//!
//! let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
//! let addr = PhysAddr::new(0x1234_0000);
//! let cold = h.cpu_read(addr); // miss: goes to memory
//! let warm = h.cpu_read(addr); // hit: LLC latency
//! assert!(cold > warm);
//! ```

// One item opts back in: the host-cache prefetch hint behind the inline
// op-batch replay (`store::hint_line`). Everything else stays safe code.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

mod addr;
pub mod fault;
mod geometry;
mod hierarchy;
mod llc;
mod memory;
pub mod ops;
mod partition;
pub mod reference;
mod replacement;
mod set;
mod shard;
mod slicehash;
mod stats;
mod store;

pub use addr::{PhysAddr, LINE_SIZE, LINE_SIZE_LOG2, PAGE_SIZE, PAGE_SIZE_LOG2};
pub use geometry::CacheGeometry;
pub use hierarchy::{Hierarchy, LatencyModel, OpApplier, TraceSummary};
pub use llc::{AccessKind, AccessOutcome, BatchOutcome, DdioMode, SliceSet, SlicedCache};
pub use memory::MemoryStats;
pub use ops::{CacheOp, OpBuffer, OpIter, OpSink};
pub use partition::AdaptiveConfig;
pub use replacement::ReplacementPolicy;
pub use set::Domain;
pub use slicehash::SliceHash;
pub use stats::CacheStats;

/// Simulated clock cycles.
///
/// The whole reproduction uses a single monotonically increasing cycle
/// counter owned by [`Hierarchy`]; see [`Hierarchy::now`].
pub type Cycles = u64;
