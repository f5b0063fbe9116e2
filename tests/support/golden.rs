//! The golden-snapshot rule every snapshot suite shares: compare a
//! report byte for byte against `<dir>/<name>.golden.txt`, or rewrite
//! the file when `PC_BLESS=1`.
//!
//! Suites include this file as a module (`#[path]`), so the root
//! package's `scenario_golden` and pc-bench's `repro_all_golden` bless
//! by one rule.

use std::ffi::OsStr;
use std::fs;
use std::path::Path;

/// Reads a `PC_BLESS` value: unset or `0` compares, `1` blesses.
/// Anything else is an error rather than a silent compare, so a
/// `PC_BLESS=true` run cannot pass while blessing nothing.
pub fn parse_bless(value: Option<&OsStr>) -> Result<bool, String> {
    match value {
        None => Ok(false),
        Some(v) if v == "0" => Ok(false),
        Some(v) if v == "1" => Ok(true),
        Some(v) => Err(format!(
            "PC_BLESS must be unset, 0 (compare) or 1 (bless), got {v:?}"
        )),
    }
}

/// Checks a `PC_FAULT` value before a bless: any set value is an
/// error, because `repro` would run that fault armed.
pub fn check_fault_unset(value: Option<&OsStr>) -> Result<(), String> {
    match value {
        None => Ok(()),
        Some(v) => Err(format!(
            "refusing to bless goldens while PC_FAULT={} is set",
            v.to_string_lossy()
        )),
    }
}

/// Whether this run blesses. Panics on a malformed `PC_BLESS`, and on
/// `PC_BLESS=1` while a fault is armed or `PC_FAULT` is set: a snapshot
/// taken from a mutated simulator would enshrine the mutation as truth.
pub fn blessing() -> bool {
    let bless =
        parse_bless(std::env::var_os("PC_BLESS").as_deref()).unwrap_or_else(|e| panic!("{e}"));
    if bless {
        let guard = pc_cache::fault::bless_guard()
            .and_then(|()| check_fault_unset(std::env::var_os("PC_FAULT").as_deref()));
        if let Err(e) = guard {
            panic!("refusing to bless goldens: {e}");
        }
    }
    bless
}

/// Compares `actual` with the snapshot `dir/name.golden.txt`, or writes
/// it there when blessing. `suite` names the test target to re-bless
/// with.
pub fn check(dir: &Path, suite: &str, name: &str, actual: &str) -> Result<(), String> {
    let path = dir.join(format!("{name}.golden.txt"));
    if blessing() {
        fs::create_dir_all(dir).expect("create the golden directory");
        fs::write(&path, actual).expect("write golden");
        return Ok(());
    }
    let want = fs::read_to_string(&path).map_err(|e| {
        format!("missing golden {path:?} ({e}); run PC_BLESS=1 cargo test --release --test {suite}")
    })?;
    if want == actual {
        return Ok(());
    }
    Err(format!(
        "`{name}` diverged from its golden snapshot.\n\
         If intentional, re-bless: PC_BLESS=1 cargo test --release --test {suite}\n\
         --- golden ---\n{want}\n--- actual ---\n{actual}"
    ))
}
