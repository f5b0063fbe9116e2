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
//! * [`CacheOp`] / [`OpSink`] / [`OpBuffer`] — the op-stream IR:
//!   producers (the NIC driver, workload loops) emit ops once and
//!   replay them through one fast path ([`Hierarchy::run_ops`],
//!   [`Hierarchy::run_trace`], [`Hierarchy::applier`]), or point the
//!   same emit code at the [`Hierarchy`] itself for the per-access
//!   equivalence oracle.
//! * [`DecodedWalk`] / [`WalkOrder`] — the spy's fixed prime and probe
//!   walks, decoded once ([`SlicedCache::decode_walk`]) and replayed
//!   forward or reverse through the same fast path
//!   ([`Hierarchy::run_walk`]).
//!
//! The simulator is deterministic and draws no random numbers: LRU
//! replacement and every DDIO and defense decision are pure functions
//! of the access stream.
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
pub use hierarchy::{Hierarchy, LatencyModel, OpApplier, TraceSummary, WalkOrder};
pub use llc::{AccessKind, AccessOutcome, DdioMode, DecodedWalk, SliceSet, SlicedCache};
pub use memory::MemoryStats;
pub use ops::{CacheOp, OpBuffer, OpSink};
pub use partition::AdaptiveConfig;
pub use set::Domain;
pub use slicehash::SliceHash;
pub use stats::CacheStats;

/// Simulated clock cycles.
///
/// The whole reproduction uses a single monotonically increasing cycle
/// counter owned by [`Hierarchy`]; see [`Hierarchy::now`].
pub type Cycles = u64;
