//! The fault matrix in plain `cargo test`: every `pc_cache::fault`
//! catalog site must be killed, through the matrix's own detector
//! suites (`pc_bench::faultmatrix`), so no detector has a second copy
//! here.
//!
//! The `golden` suite replays the scenario registry and belongs to the
//! CI-only `repro fault-matrix` run; here every site but
//! `swapped-queue-steer` must be killed without it, and
//! `swapped-queue-steer` — inert on the single-queue beds the other
//! suites build — by the one multi-queue scenario snapshot it needs.

use pc_bench::faultmatrix::{self, kill_row, trial, Suite, SUITES};
use pc_bench::scenario;
use pc_cache::fault::{FaultSite, FaultSpec};

/// The shard-substrate sites: they mutate every engine built on the
/// shards, so only the independent reference model can out-vote them.
const SUBSTRATE_SITES: [FaultSite; 4] = [
    FaultSite::StaleLru,
    FaultSite::SkippedDefenseEval,
    FaultSite::StaleDirtySet,
    FaultSite::SkippedEpochBump,
];

/// Negative control: with nothing armed every suite, `golden` included,
/// is silent — and `ops` on both of its stream seeds.
#[test]
fn detector_is_silent_with_no_fault_armed() {
    assert_eq!(faultmatrix::negative_control(), Ok(()));
}

/// Arming and disarming leaves no residue: a kill round followed by a
/// clean round reproduces the clean round exactly.
#[test]
fn disarm_restores_clean_behaviour() {
    let ops = suite("ops");
    let armed = trial(
        Some(FaultSpec {
            site: FaultSite::CorruptedLead,
            seed: 0,
            nth: Some(1), // every key: maximally invasive
        }),
        ops.detect,
    );
    assert!(
        armed.kill.is_some(),
        "an every-key lead skew must be detected"
    );
    assert_eq!(
        trial(None, ops.detect).kill,
        None,
        "disarm must fully restore"
    );
}

/// A keyed site whose key modulus no consulted key reaches never fires:
/// the matrix prints its missed row as `inert`, not as a suite gap, and
/// a row that fired without a kill as `SURVIVED`. Both fail the run.
#[test]
fn a_site_that_never_fires_is_inert() {
    let reference = suite("reference");
    let never = trial(
        Some(FaultSpec {
            site: FaultSite::StaleDirtySet,
            seed: 0,
            nth: Some(u64::MAX), // no set's key hash is a multiple
        }),
        reference.detect,
    );
    assert_eq!((never.kill.as_deref(), never.firings), (None, 0));
    assert_eq!(faultmatrix::verdict(&[reference], &[never]), Err("inert"));

    let fired = trial(
        Some(FaultSpec {
            site: FaultSite::StaleDirtySet,
            seed: 0,
            nth: None,
        }),
        reference.detect,
    );
    assert!(
        fired.firings > 0,
        "stale-dirty-set:0 fires under `reference`"
    );
    let unnoticed = faultmatrix::Trial {
        kill: None,
        ..fired.clone()
    };
    assert_eq!(
        faultmatrix::verdict(&[reference], &[unnoticed]),
        Err("SURVIVED")
    );
    assert_eq!(
        faultmatrix::verdict(&[reference], &[fired]),
        Ok("reference".to_owned())
    );
}

/// The seven catalog sites whose mutation lives at or below the
/// op-stream replay.
const CACHE_SITES: [FaultSite; 7] = [
    FaultSite::StatOffByOne,
    FaultSite::DroppedFlush,
    FaultSite::StaleLru,
    FaultSite::CorruptedLead,
    FaultSite::SkippedDefenseEval,
    FaultSite::StaleDirtySet,
    FaultSite::SkippedEpochBump,
];

/// The matrix suite named `name`.
fn suite(name: &str) -> Suite {
    faultmatrix::find(name).unwrap_or_else(|| panic!("no `{name}` suite"))
}

/// For fault seeds 0..3: every cache-side site is killed by the two
/// cache-level suites alone (`reference`, `ops`), with no NIC, bed or
/// attacker above the replay.
#[test]
fn every_cache_fault_site_is_killed_for_every_seed() {
    let suites = [suite("reference"), suite("ops")];
    let mut survivors = Vec::new();
    for site in CACHE_SITES {
        for seed in 0..3u64 {
            let row = kill_row(site, seed, &suites);
            if row.iter().all(|t| t.kill.is_none()) {
                let firings: u64 = row.iter().map(|t| t.firings).sum();
                survivors.push(format!(
                    "{}:{seed} survived ({firings} firings)",
                    site.name()
                ));
            }
        }
    }
    assert!(
        survivors.is_empty(),
        "surviving mutants:\n{}",
        survivors.join("\n")
    );
}

/// For fault seeds 0..3: every site but `swapped-queue-steer` is killed
/// by a suite other than `golden`, and `reference` kills each
/// shard-substrate site.
#[test]
fn every_site_is_killed_without_golden_for_every_seed() {
    let suites: Vec<Suite> = SUITES.into_iter().filter(|s| s.name != "golden").collect();
    let mut failures = Vec::new();
    for site in FaultSite::ALL {
        if site == FaultSite::SwappedQueueSteer {
            continue;
        }
        for seed in 0..3u64 {
            let row = kill_row(site, seed, &suites);
            let killed_by = |name: &str| {
                suites
                    .iter()
                    .zip(&row)
                    .any(|(s, t)| s.name == name && t.kill.is_some())
            };
            if row.iter().all(|t| t.kill.is_none()) {
                let firings: u64 = row.iter().map(|t| t.firings).sum();
                failures.push(format!(
                    "{}:{seed} survived ({firings} firings)",
                    site.name()
                ));
            } else if SUBSTRATE_SITES.contains(&site) && !killed_by("reference") {
                failures.push(format!("{}:{seed} missed by `reference`", site.name()));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "surviving mutants:\n{}",
        failures.join("\n")
    );
}

/// `swapped-queue-steer:0` changes the 4-queue `kv-store` scenario's
/// report away from its snapshot, which it matches with nothing armed.
#[test]
fn swapped_queue_steer_is_killed_by_the_kv_store_golden() {
    let kv = scenario::find("kv-store").expect("kv-store is registered");
    let golden = || faultmatrix::scenario_golden(kv);
    assert_eq!(trial(None, golden).kill, None, "unarmed kv-store matches");
    let armed = trial(
        Some(FaultSpec {
            site: FaultSite::SwappedQueueSteer,
            seed: 0,
            nth: None,
        }),
        golden,
    );
    assert!(
        armed.kill.is_some(),
        "swapped-queue-steer:0 survived ({} firings)",
        armed.firings
    );
}
