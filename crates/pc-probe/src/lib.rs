//! # pc-probe — the attacker's micro-architectural toolkit
//!
//! The paper drives its attack with the Mastik side-channel toolkit; this
//! crate is the equivalent for the simulated hierarchy. Nothing in here
//! uses ground truth: the attacker only ever issues loads through
//! [`pc_cache::Hierarchy::cpu_read`] and looks at latencies, exactly as
//! `rdtscp`-timed pointer chasing does on hardware.
//!
//! * [`AddressPool`] — the spy's own page-aligned memory (it knows the
//!   set-index bits of its addresses, as with hugepages on real systems,
//!   but *not* the slice-hash outcome). It memoizes the oracle eviction
//!   sets built from its pages, so the offline phase runs once per pool.
//! * [`calibrate_threshold`] — measures the hit/miss latency boundary.
//! * [`build_eviction_sets_for_index`] — timing-based group-testing
//!   construction of one eviction set per slice for a given set index.
//! * [`EvictionSet`] / [`PrimeProbe`] — the PRIME+PROBE primitive.
//! * [`Monitor`] / [`SampleMatrix`] — multi-set sampling loops producing
//!   the activity matrices behind Figures 7 and 8.
//! * [`oracle_eviction_sets`] — ground-truth shortcut for experiment
//!   *setup* (clearly marked; used where the paper also relies on a
//!   one-time offline phase, so that paper-scale experiments run in
//!   seconds — the timing-based builder is exercised by its own tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod eviction;
mod monitor;
mod pool;
mod prime_probe;

pub use calibrate::calibrate_threshold;
pub use eviction::{build_eviction_sets_for_index, oracle_eviction_sets, EvictionSet};
pub use monitor::{Monitor, MonitorTarget, RowBits, SampleMatrix};
pub use pool::AddressPool;
pub use prime_probe::{PrimeProbe, ProbeResult};
