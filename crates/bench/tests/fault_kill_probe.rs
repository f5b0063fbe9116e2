//! The attacker-side fault site in plain `cargo test`:
//! `stale-eviction-memo`, whose mutation lives in the attacker pool's
//! eviction-set memo lookup alone, must be killed by the fault matrix's
//! `monitor` suite (`pc_bench::faultmatrix`), and that suite must be
//! silent with nothing armed.

use pc_bench::faultmatrix::{self, kill_row, trial, Suite};
use pc_cache::fault::FaultSite;

fn monitor() -> Suite {
    faultmatrix::find("monitor").expect("a monitor suite")
}

/// For fault seeds 0..4: the memo check (memo against the memo-free
/// oracle walk) or the probe walks after it notice the stale memo.
#[test]
fn stale_eviction_memo_is_killed_for_every_seed() {
    let survivors: Vec<String> = (0..4u64)
        .filter_map(|seed| {
            let row = kill_row(FaultSite::StaleEvictionMemo, seed, &[monitor()]);
            row[0].kill.is_none().then(|| {
                format!(
                    "stale-eviction-memo:{seed} survived ({} consultations)",
                    row[0].consultations
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

/// Negative control: no fault armed → the memo serves the oracle
/// walk's sets, and the decoded walks match the per-access reads.
#[test]
fn memo_and_walk_agree_with_no_fault_armed() {
    assert_eq!(trial(None, monitor().detect).kill, None);
}
