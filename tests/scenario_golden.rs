//! Golden-output snapshots for `repro scenario <name>` — every registry
//! entry, pinned byte for byte.
//!
//! Each scenario's report at the standard CI parameters
//! (`Scale::Quick`, seed 2020) is compared against a checked-in
//! snapshot under `tests/golden/`. Any change to a scenario's output —
//! intended or not — shows up as a reviewable diff in the golden file
//! rather than as a silent drift only the CI byte-diff job would catch
//! (and that job only compares a run against *itself* on other thread
//! counts, not against history).
//!
//! To refresh snapshots after an intentional output change:
//!
//! ```text
//! PC_BLESS=1 cargo test --release --test scenario_golden
//! ```
//!
//! (documented in `crates/bench/README.md`). The bless run rewrites the
//! golden files; commit the diff with the change that caused it. The
//! compare/bless rule lives in `tests/support/golden.rs`, shared with
//! pc-bench's `repro_all_golden` suite.

#[path = "support/golden.rs"]
mod golden;

use golden::{check_fault_unset, parse_bless};
use pc_bench::experiments::Scale;
use pc_bench::scenario;
use std::ffi::OsStr;
use std::path::PathBuf;
use std::sync::Mutex;

/// Seed the CI determinism job uses throughout.
const SEED: u64 = 2020;

/// The fault state is process-global; every test here takes the lock
/// so the guard test's brief arming can never leak into a scenario
/// run happening on another test thread.
static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn check(name: &str, actual: &str) -> Result<(), String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    golden::check(&dir, "scenario_golden", name, actual)
}

/// One test over the whole registry (rather than a test per scenario)
/// so a scenario added to the registry can never be forgotten here.
#[test]
fn every_scenario_matches_its_golden_snapshot() {
    let _g = serialized();
    let mut failures = Vec::new();
    for s in scenario::registry() {
        let report = s.run(Scale::Quick, SEED);
        assert!(
            report.ends_with('\n') && !report.is_empty(),
            "{}: reports are newline-terminated",
            s.name()
        );
        if let Err(e) = check(s.name(), &report) {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// The `repro scenario list` body is an output contract too (CI
/// byte-diffs it): name-sorted, two-column, stable. The CLI and this
/// test share one renderer (`scenario::render_list`), so the snapshot
/// pins what `repro` actually prints.
#[test]
fn scenario_list_matches_its_golden_snapshot() {
    let _g = serialized();
    check("scenario-list", &scenario::render_list()).unwrap();
}

/// A seeded 64-tenant fleet run is an output contract like any single
/// scenario: the merged report (per-template percentiles, per-mode
/// breakdown, aggregate) is pinned byte for byte. Workers are pinned to
/// 1 here only to keep the snapshot independent of the test
/// environment's `PC_BENCH_THREADS`; the fleet determinism suite and
/// the CI byte-diff leg prove any worker count produces these bytes.
#[test]
fn fleet_64_matches_its_golden_snapshot() {
    let _g = serialized();
    let mut cfg = pc_bench::fleet::FleetConfig::standard(64, SEED, Scale::Quick);
    cfg.threads = 1;
    check("fleet-64", &pc_bench::fleet::run_fleet(&cfg).render()).unwrap();
}

/// `PC_BLESS=1` must refuse to rewrite snapshots while a fault is
/// armed: a golden blessed from a mutated simulator would silently
/// become the reference every later run is compared against. (The env
/// half of the guard — a set `PC_FAULT` variable — is
/// `bless_refuses_any_set_pc_fault`, on the pure check; mutating the
/// process environment here would race the other tests.)
#[test]
fn blessing_refuses_while_a_fault_is_armed() {
    let _g = serialized();
    pc_cache::fault::arm(pc_cache::fault::FaultSpec {
        site: pc_cache::fault::FaultSite::StatOffByOne,
        seed: 0,
        nth: None,
    });
    let guard = pc_cache::fault::bless_guard();
    pc_cache::fault::disarm();
    let err = guard.expect_err("an armed fault must block blessing");
    assert!(err.contains("stat-off-by-one"), "names the culprit: {err}");
}

/// Any set `PC_FAULT`, well-formed or not, blocks blessing, and the
/// message quotes the value; unset lets it through.
#[test]
fn bless_refuses_any_set_pc_fault() {
    assert_eq!(check_fault_unset(None), Ok(()));
    for set in ["stale-lru:1", "bogus", ""] {
        let err = check_fault_unset(Some(OsStr::new(set))).expect_err(set);
        assert!(
            err.contains(&format!("PC_FAULT={set} is set")),
            "names the value: {err}"
        );
    }
}

/// `PC_BLESS` takes unset, `0` or `1`; any other value (`true`, `yes`,
/// empty) is rejected with a message naming the accepted values
/// instead of quietly comparing.
#[test]
fn bless_accepts_only_unset_0_or_1() {
    assert_eq!(parse_bless(None), Ok(false));
    assert_eq!(parse_bless(Some(OsStr::new("0"))), Ok(false));
    assert_eq!(parse_bless(Some(OsStr::new("1"))), Ok(true));
    for bad in ["true", "yes", "", "01", " 1"] {
        let err = parse_bless(Some(OsStr::new(bad))).expect_err(bad);
        assert!(
            err.contains("unset, 0 (compare) or 1 (bless)"),
            "names the accepted values: {err}"
        );
    }
}
