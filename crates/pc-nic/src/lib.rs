//! # pc-nic — behavioural model of the Intel IGB receive path
//!
//! The Packet Chasing attack works because of very specific, documented
//! behaviours of the Linux IGB gigabit Ethernet driver (paper §III-A):
//!
//! * the driver allocates **256 rx buffers once** and recycles them for
//!   the lifetime of the driver, so their cache locations are stable;
//! * each 2048-byte buffer is **half-page aligned** — one buffer per
//!   4 KiB page initially, with the second half used after large packets
//!   flip `page_offset` (`igb_can_reuse_rx_page`);
//! * frames at or below the 256-byte copybreak are **memcpy'd** and the
//!   buffer reused as-is; larger frames attach the page as a fragment and
//!   flip to the other half-page;
//! * the driver **prefetches the second cache block** of every buffer
//!   regardless of packet size (the Figure 8 anomaly);
//! * buffers on a **remote NUMA node** are not reused but reallocated.
//!
//! [`IgbDriver::receive`] replays all of this against a
//! [`pc_cache::Hierarchy`]: DMA writes for each arriving cache block
//! (through DDIO or memory depending on the hierarchy's mode), then the
//! driver's own reads, then the reuse/flip/reallocate decision.
//!
//! The crate also hosts the software mitigations of §VI that live in the
//! driver: [`RandomizeMode`] (full / periodic partial ring randomization)
//! and configurable ring sizes.
//!
//! ## Example
//!
//! ```
//! use pc_cache::{CacheGeometry, DdioMode, Hierarchy};
//! use pc_net::EthernetFrame;
//! use pc_nic::{DriverConfig, IgbDriver, PageAllocator};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
//! let mut drv = IgbDriver::new(DriverConfig::default(), PageAllocator::new(1), &mut rng);
//! let ev = drv.receive(&mut h, EthernetFrame::new(192)?, &mut rng);
//! assert_eq!(ev.blocks, 3);
//! # Ok::<(), pc_net::FrameSizeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod deferred;
mod driver;
mod ring;
mod rss;

pub use alloc::{PageAllocator, PageRef};
pub use deferred::DeferredReads;
pub use driver::{DriverConfig, IgbDriver, RandomizeMode, RxEvent, MAX_RING_DESCRIPTORS};
pub use ring::{RxBuffer, RxRing, HALF_PAGE_BYTES, RX_BUFFER_BLOCKS};
pub use rss::{RssConfig, MAX_RSS_QUEUES};
