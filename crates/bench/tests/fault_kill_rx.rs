//! The rx-path fault site in plain `cargo test`:
//! `dropped-deferred-read`, the one catalog site above the op-stream
//! engines, must be killed by the fault matrix's `testbed` suite (the
//! bed against a hand-driven per-access reference,
//! `pc_bench::faultmatrix`), and that suite must be silent with
//! nothing armed.

use pc_bench::faultmatrix::{self, kill_row, trial, Suite};
use pc_cache::fault::FaultSite;

fn testbed() -> Suite {
    faultmatrix::find("testbed").expect("a testbed suite")
}

/// For fault seeds 0..3: the bed's trajectory or its drained state
/// departs from the per-access reference.
#[test]
fn every_rx_fault_site_is_killed_for_every_seed() {
    let survivors: Vec<String> = (0..3u64)
        .filter_map(|seed| {
            let row = kill_row(FaultSite::DroppedDeferredRead, seed, &[testbed()]);
            row[0].kill.is_none().then(|| {
                format!(
                    "dropped-deferred-read:{seed} survived ({} firings)",
                    row[0].firings
                )
            })
        })
        .collect();
    assert!(
        survivors.is_empty(),
        "surviving mutants:\n{}",
        survivors.join("\n")
    );
}

/// Negative control: no fault armed → the bed and the per-access
/// reference are byte-identical over the deferred-read-heavy schedule.
#[test]
fn bed_and_per_access_reference_agree_with_no_fault_armed() {
    assert_eq!(trial(None, testbed().detect).kill, None);
}
