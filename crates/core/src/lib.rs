//! # pc-core — the Packet Chasing attack
//!
//! This crate implements the paper's contribution on top of the
//! substrates:
//!
//! * [`TestBed`] — glues the simulated machine together: hierarchy + IGB
//!   driver + scheduled frame arrivals + the deferred payload reads of
//!   the no-DDIO path, all on one cycle clock.
//! * [`footprint`] — the offline discovery phase (§III-B): monitoring the
//!   256 page-aligned set-slices, recovering the ring's cache footprint
//!   (Figures 5–7) and packet sizes (Figure 8).
//! * [`sequencer`] — Algorithm 1: recovering the *order* in which ring
//!   buffers fill, from cache samples alone (Table I).
//! * [`chasing`] — the online phase: following packets buffer-to-buffer
//!   using the recovered sequence, with out-of-sync detection
//!   (Figure 12c/d).
//! * [`covert`] — the remote covert channel (§IV): a trojan encodes
//!   symbols in broadcast-frame sizes; a spy with no network access
//!   decodes them through the cache (Figures 10–12).
//! * [`fingerprint`] — the web-fingerprinting side channel (§V): packet
//!   size-class traces and the correlation classifier (Figure 13 and the
//!   89.7 % / 86.5 % closed-world result).
//! * [`levenshtein`] — the edit-distance metric used for both sequence
//!   quality (Table I) and channel error rates.
//!
//! ## Example
//!
//! Stand up the paper's machine and watch one packet land:
//!
//! ```
//! use pc_core::{TestBed, TestBedConfig};
//! use pc_net::{EthernetFrame, ScheduledFrame};
//!
//! let mut tb = TestBed::new(TestBedConfig::paper_baseline());
//! let before = tb.hierarchy().llc().stats().io_misses;
//! tb.enqueue(vec![ScheduledFrame::new(
//!     tb.now(),
//!     EthernetFrame::clamped(192), // 3 cache blocks via DDIO
//! )]);
//! tb.drain();
//! assert!(tb.hierarchy().llc().stats().io_misses > before);
//! assert_eq!(tb.records().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chasing;
pub mod covert;
pub mod fingerprint;
pub mod footprint;
pub mod levenshtein;
pub mod sequencer;
mod testbed;

pub use testbed::{RxRecord, TestBed, TestBedConfig, WindowStats};
