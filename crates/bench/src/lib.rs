//! # pc-bench — reproduction harness
//!
//! [`experiments`] holds the paper's experiment table: one entry per
//! table/figure, each a name, a title line and a report function
//! returning a [`scenario::ScenarioReport`] — the type the scenario
//! registry and the fleet report in, rendered by one renderer. The
//! `repro` binary only looks names up and prints; `perfbench` times
//! the same code.
//!
//! * [`faultmatrix`] — the fault-injection kill matrix behind
//!   `repro fault-matrix`: every `pc_cache::fault` catalog site ×
//!   seed armed against four detector suites, failing on survivors.
//! * [`fleet`] — fleet orchestration behind `repro fleet`: N tenants
//!   instantiated from weighted scenario templates, fanned out
//!   shared-nothing over workers, merged in tenant-index order into
//!   fleet-level statistics (byte-identical at any thread count).
//! * [`scenario`] — the scenario registry: named end-to-end workloads
//!   (`repro scenario <name>`) unifying the `pc-net` traffic generators
//!   and `pc-defense` measurement workloads on the op-stream pipeline.
//!
//! The `repro` CLI (subcommands, flags, environment variables, output
//! discipline) is documented in `crates/bench/README.md`; the
//! subcommand → paper-figure map lives in the top-level
//! `ARCHITECTURE.md`.
//!
//! Every experiment is deterministic: for a fixed `--seed`, stdout is
//! byte-identical at any worker count — CI diffs a sequential against
//! a threaded `repro all` run to enforce it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod faultmatrix;
pub mod fleet;
pub mod scenario;
