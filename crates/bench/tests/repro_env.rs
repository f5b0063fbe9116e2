//! `repro` validates its configuration once, at startup: a bad
//! `PC_BENCH_THREADS` or `PC_FAULT`, a non-UTF-8 argument, a
//! `--tenants` or `--queues` count out of range, a count flag outside
//! its command, an unknown option or an unknown experiment or scenario
//! name anywhere in the list, or a scenario name next to `scenario
//! list`, exits 2 with one `repro:` line on stderr, before any output
//! and without a panic or an allocation abort.

use std::ffi::{OsStr, OsString};
use std::os::unix::ffi::OsStrExt;
use std::process::{Command, Output};

/// The variables `repro` validates; each run starts with all unset.
const VARS: [&str; 2] = ["PC_BENCH_THREADS", "PC_FAULT"];

fn repro(env: &[(&str, &str)], args: &[&str]) -> Output {
    repro_os(env, args.iter().map(OsString::from))
}

fn repro_os(env: &[(&str, &str)], args: impl IntoIterator<Item = OsString>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    for v in VARS {
        cmd.env_remove(v);
    }
    cmd.envs(env.iter().copied())
        .args(args)
        .output()
        .expect("repro runs")
}

fn repro_with(var: &str, value: &str) -> Output {
    repro(&[(var, value)], &["table2"])
}

/// Exit 2, nothing on stdout, one `repro:` line on stderr naming
/// `needle`, no panic.
fn assert_one_line_exit_2(out: &Output, what: &str, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: stderr {stderr}");
    assert!(out.stdout.is_empty(), "{what}: printed to stdout");
    assert_eq!(stderr.lines().count(), 1, "{what}: stderr {stderr}");
    assert!(stderr.starts_with("repro: "), "{what}: stderr {stderr}");
    assert!(stderr.contains(needle), "{what}: message names {needle}");
    assert!(!stderr.contains("panicked"), "{what}: stderr {stderr}");
}

#[test]
fn bad_configuration_exits_2_with_one_line() {
    let cases = [
        ("PC_BENCH_THREADS", "abc"),
        ("PC_BENCH_THREADS", "0"),
        ("PC_BENCH_THREADS", ""),
        ("PC_FAULT", "bogus"),
        ("PC_FAULT", "stale-lru"),
        ("PC_FAULT", "stale-lru:1:2:3"),
        ("PC_FAULT", "stale-lru:1\nextra"),
    ];
    for (var, value) in cases {
        let out = repro_with(var, value);
        assert_one_line_exit_2(&out, &format!("{var}={value:?}"), var);
    }
}

#[test]
fn tenants_above_the_cap_exit_2_with_one_line() {
    let cap = pc_bench::fleet::MAX_TENANTS;
    for n in [0.to_string(), "5000000000000".into(), (cap + 1).to_string()] {
        let out = repro(&[], &["--tenants", &n, "fleet"]);
        assert_one_line_exit_2(&out, &format!("--tenants {n}"), "--tenants");
    }
}

#[test]
fn queues_out_of_range_exit_2_with_one_line() {
    for n in ["0", "17", "four"] {
        let out = repro(&[], &["--queues", n, "scenario", "kv-store"]);
        assert_one_line_exit_2(&out, &format!("--queues {n}"), "--queues");
    }
}

#[test]
fn non_utf8_arguments_exit_2_with_one_line() {
    let bad = OsStr::from_bytes(b"\xff").to_owned();
    for args in [vec![bad.clone()], vec!["--seed".into(), bad]] {
        let out = repro_os(&[], args.clone());
        assert_one_line_exit_2(&out, &format!("{args:?}"), "UTF-8");
    }
}

#[test]
fn unknown_options_exit_2_with_one_line() {
    // `--rx-engine` is retired: the bed has one receive path. Failing
    // loudly keeps an old command line from running `all` unasked.
    for args in [
        &["--rx-engine", "per-access", "all"][..],
        &["--bogus", "table2"],
    ] {
        let out = repro(&[], args);
        assert_one_line_exit_2(&out, &args.join(" "), args[0]);
    }
}

#[test]
fn unknown_experiments_exit_2_before_any_report() {
    // Names are checked up front: a typo after a valid experiment or
    // scenario must not print its report first, and one next to
    // `scenario list` must not be ignored. `list` stands alone: a valid
    // name next to it is refused, not silently dropped.
    for (args, needle) in [
        (&["fig5", "bogus"][..], "`bogus`"),
        (&["bogus"], "`bogus`"),
        (&["all", "bogus"], "`bogus`"),
        (&["scenario", "tcp-recv", "bogus"], "`bogus`"),
        (&["scenario", "bogus", "list"], "`bogus`"),
        (&["scenario", "list", "chasing"], "`scenario list`"),
    ] {
        let out = repro(&[], args);
        assert_one_line_exit_2(&out, &args.join(" "), needle);
    }
}

#[test]
fn count_flags_outside_their_command_exit_2() {
    // `--tenants` sizes only `fleet`, `--queues` only scenarios and
    // `fleet`, and `--seeds` only `fault-matrix`; anywhere else they
    // would be silently ignored. `fault-matrix` picks its own seeds and
    // scale, so the run flags would be too.
    for args in [
        &["--tenants", "8", "table2"][..],
        &["--queues", "4", "table2"],
        &["--queues", "1", "fault-matrix"],
        &["--seeds", "5", "table2"],
        &["--seeds", "2", "fleet"],
        &["--seed", "7", "fault-matrix"],
        &["--seed", "7", "--full", "--seeds", "1", "fault-matrix"],
        &["--full", "fault-matrix"],
        &["--quick", "--seeds", "1", "fault-matrix"],
    ] {
        let out = repro(&[], args);
        assert_one_line_exit_2(&out, &args.join(" "), args[0]);
    }
}

#[test]
fn valid_configuration_runs() {
    for (env, args) in [
        (&[("PC_BENCH_THREADS", "1")][..], &["table2"][..]),
        (&[("PC_FAULT", "stale-lru:1")], &["table2"]),
        (&[], &["--queues", "16", "scenario", "kv-store"]),
    ] {
        let out = repro(env, args);
        let what = format!("{env:?} {}", args.join(" "));
        assert!(
            out.status.success(),
            "{what}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stdout.is_empty(), "{what}: no report");
    }
}
