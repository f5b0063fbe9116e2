//! # pc-bench — reproduction harness
//!
//! [`experiments`] hosts one function per paper table/figure, called by
//! the `repro` binary (full printouts) and `perfbench`. Each function
//! returns plain row structs so callers decide how to render them.
//!
//! * [`faultmatrix`] — the fault-injection kill matrix behind
//!   `repro fault-matrix`: every `pc_cache::fault` catalog site ×
//!   seed armed against four detector suites, failing on survivors.
//! * [`fleet`] — fleet orchestration behind `repro fleet`: N tenants
//!   instantiated from weighted scenario templates, fanned out
//!   shared-nothing over workers, merged in tenant-index order into
//!   fleet-level statistics (byte-identical at any thread count).
//! * [`par`] — facade over [`pc_par`], the workspace-wide deterministic
//!   parallelism substrate (`PC_BENCH_THREADS` governs every parallel
//!   path from one place).
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
pub mod par;
pub mod scenario;
