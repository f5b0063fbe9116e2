//! What every result records about the build and the host it ran on.

use std::fs;
use std::process::{Command, Stdio};

/// The run's base: host parallelism, the thread count the program chose,
/// the commit and the build.
pub struct HostRecord {
    /// `available_parallelism` of the host.
    pub nproc: usize,
    /// `pc_par::max_threads()`: what the program picked by default.
    pub threads: usize,
    /// The checked-out commit, when the tree is a git checkout.
    pub commit: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
}

impl HostRecord {
    /// Reads the record from the process and the working directory.
    pub fn collect() -> Self {
        HostRecord {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            threads: pc_par::max_threads(),
            commit: git_head().unwrap_or_else(|| "unknown (not a git checkout)".into()),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }

    /// The record as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"threads\":{},\"commit\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{}\"}}",
            self.nproc, self.threads, self.commit, self.rustc, self.profile
        )
    }
}

/// `git rev-parse HEAD` of the working directory's own `.git`.
fn git_head() -> Option<String> {
    let out = Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
