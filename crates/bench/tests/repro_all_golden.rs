//! `repro --seed 2020 all` — every figure and table the paper reports —
//! pinned byte for byte against `tests/golden/repro-all.golden.txt`.
//!
//! The scenario and fleet snapshots (`tests/scenario_golden.rs`) cover
//! the registry; without this one, Figures 5–16 were only compared
//! across thread counts, i.e. against themselves. The test runs the
//! built binary, so it pins exactly what a user sees on stdout.
//!
//! To refresh after an intentional output change:
//!
//! ```text
//! PC_BLESS=1 cargo test --release -p pc-bench --test repro_all_golden
//! ```
//!
//! Blessing follows the shared rule in `tests/support/golden.rs`
//! (`PC_BLESS` unset, `0` or `1`; refused while `PC_FAULT` is set).

#[path = "../../../tests/support/golden.rs"]
mod golden;

use std::path::PathBuf;
use std::process::Command;

#[test]
fn repro_all_matches_its_golden_snapshot() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--seed", "2020", "all"])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro --seed 2020 all failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("repro prints UTF-8");
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    golden::check(&dir, "repro_all_golden", "repro-all", &stdout).unwrap();
}
