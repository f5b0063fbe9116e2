//! Self-test: every workload at the tiny size, untraced and traced.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.
//! Each run must pass its oracle check (every step byte-identical to the
//! per-access, 1-thread reference, the traced run included), emit
//! exactly the metrics `BENCHMARK.json` names, all finite, and — traced
//! — have per-layer self times that add up to the traced wall time.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["attack", "flood", "fleet"];

/// `(name, value)` of every metric in a result line.
fn metrics(line: &str) -> Vec<(String, f64)> {
    let body = line
        .split_once("\"metrics\": {")
        .expect("result has metrics")
        .1;
    let mut out = Vec::new();
    for entry in body.split("}, ").map(|e| e.trim_end_matches('}')) {
        let (name, rest) = entry.split_once("\": {\"value\": ").expect("metric entry");
        let value = rest
            .split(',')
            .next()
            .expect("value")
            .parse()
            .expect("number");
        out.push((name.trim_start_matches('"').to_string(), value));
    }
    out
}

/// Metric names of one `BENCHMARK.json` section, in file order.
fn declared(section: &str) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let json = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let body = json
        .split_once(&format!("\"{section}\": ["))
        .expect("section present")
        .1;
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "1"])
        .args(["--trace", trace, "--size", "tiny"])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, trace: &str, section: &str) -> Vec<(String, f64)> {
    let line = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, ") && line.contains("\"failed\": 0,"),
        "{workload} --trace {trace}: {line}"
    );
    let got = metrics(&line);
    let names: Vec<String> = got.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(
        names,
        declared(section),
        "{workload} --trace {trace} metric names"
    );
    for (name, value) in &got {
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    got
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    for w in WORKLOADS {
        let m = check(w, "0", "end_to_end");
        for (name, value) in m {
            assert!(
                value > 0.0,
                "{w}: end-to-end metric {name} must be positive"
            );
        }
    }
}

#[test]
fn traced_runs_emit_every_layer_and_account_for_wall() {
    for w in WORKLOADS {
        let m = check(w, "1", "per_layer");
        let wall = m
            .iter()
            .find(|(n, _)| n == "trace.wall_s")
            .expect("trace.wall_s")
            .1;
        let self_sum: f64 = m
            .iter()
            .filter(|(n, _)| {
                n.ends_with("_s") && !n.starts_with("setup.") && !n.starts_with("trace.")
                    || n.starts_with("bench.fleet.tenant_s.")
            })
            .map(|(_, v)| v)
            .sum();
        assert!(
            (self_sum - wall).abs() <= 0.02 * wall + 1e-3,
            "{w}: layer self times sum to {self_sum}, traced wall is {wall}"
        );
    }
}
