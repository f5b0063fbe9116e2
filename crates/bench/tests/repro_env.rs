//! `repro` validates its configuration variables once, at startup: a
//! bad `PC_BENCH_THREADS`, `PC_RSS_QUEUES` or `PC_RX_ENGINE` exits 2
//! with one `repro:` line on stderr, before any output and without a
//! panic.

use std::process::{Command, Output};

/// The variables `repro` validates; each run starts with all unset.
const VARS: [&str; 3] = ["PC_BENCH_THREADS", "PC_RSS_QUEUES", "PC_RX_ENGINE"];

fn repro_with(var: &str, value: &str) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    for v in VARS {
        cmd.env_remove(v);
    }
    cmd.env_remove("PC_FAULT")
        .env(var, value)
        .arg("table2")
        .output()
        .expect("repro runs")
}

#[test]
fn bad_configuration_exits_2_with_one_line() {
    let cases = [
        ("PC_BENCH_THREADS", "abc"),
        ("PC_BENCH_THREADS", "0"),
        ("PC_BENCH_THREADS", ""),
        ("PC_RSS_QUEUES", "0"),
        ("PC_RSS_QUEUES", "17"),
        ("PC_RSS_QUEUES", "four"),
        ("PC_RX_ENGINE", "bogus"),
    ];
    for (var, value) in cases {
        let out = repro_with(var, value);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("{var}={value:?}");
        assert_eq!(out.status.code(), Some(2), "{what}: stderr {stderr}");
        assert!(out.stdout.is_empty(), "{what}: printed to stdout");
        assert_eq!(stderr.lines().count(), 1, "{what}: stderr {stderr}");
        assert!(stderr.starts_with("repro: "), "{what}: stderr {stderr}");
        assert!(stderr.contains(var), "{what}: message names the variable");
        assert!(!stderr.contains("panicked"), "{what}: stderr {stderr}");
    }
}

#[test]
fn valid_configuration_runs() {
    for (var, value) in [
        ("PC_BENCH_THREADS", "1"),
        ("PC_RSS_QUEUES", "16"),
        ("PC_RX_ENGINE", "per-frame"),
    ] {
        let out = repro_with(var, value);
        assert!(
            out.status.success(),
            "{var}={value}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stdout.is_empty(), "{var}={value}: no report");
    }
}
