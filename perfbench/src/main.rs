//! `perfbench`: the end-to-end and per-layer benchmark of the
//! packet-chasing simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload attack|flood|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The program runs with its default
//! configuration: every `PC_*` variable is removed from the environment,
//! so it picks its own thread count and receive engine.
//!
//! One invocation:
//!
//! 1. runs the workload's set-up alone for [`SETUP_SECONDS`], in the
//!    still single-threaded process (`setup_s` is the median round);
//! 2. starts two child processes, runs one untimed warm-up iteration
//!    meanwhile, waits for both children and reads peak memory. The
//!    oracle renders every workload step through the library entry
//!    points with `PC_RX_ENGINE=per-access PC_BENCH_THREADS=1` (the
//!    per-access engine, sequential). The fidelity child (`--trace 0`
//!    only) runs the fidelity probes in the default configuration.
//!    Neither touches this process's memory or competes with its
//!    measured phase;
//! 3. repeats the workload for `--seconds`: untraced iterations only
//!    with `--trace 0`, untraced and traced iterations alternately with
//!    `--trace 1`. An untraced iteration makes the same library calls
//!    as the oracle; `wall_s` is its median time minus `setup_s`. A
//!    traced iteration re-composes the workload from the layer calls.
//!    Every step's output is compared with the oracle's;
//! 4. prints the run record, then one JSON result line.
//!
//! A traced run also writes its spans and per-layer table to
//! `$CARGO_TARGET_DIR/perfbench/` (`target/perfbench/` by default).

mod attack;
mod fleet;
mod flood;
mod harness;
mod host;
mod metrics;
mod trace;

use harness::{Clock, Size, Step};
use std::io::{Read as _, Write as _};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// The three workloads.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
enum Workload {
    Attack,
    Flood,
    Fleet,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "attack" => Some(Workload::Attack),
            "flood" => Some(Workload::Flood),
            "fleet" => Some(Workload::Fleet),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Attack => "attack",
            Workload::Flood => "flood",
            Workload::Fleet => "fleet",
        }
    }

    /// One iteration through the library entry points.
    fn library(self, seed: u64, size: Size) -> Vec<Step> {
        match self {
            Workload::Attack => attack::library(seed, size),
            Workload::Flood => flood::library(seed, size),
            Workload::Fleet => fleet::library(seed, size),
        }
    }

    /// One iteration re-composed from the layer calls, for tracing.
    fn traced(self, seed: u64, size: Size, clock: &mut Clock) -> Vec<Step> {
        match self {
            Workload::Attack => attack::traced(seed, size, clock),
            Workload::Flood => flood::traced(seed, size, clock),
            Workload::Fleet => fleet::traced(seed, size, clock),
        }
    }

    fn setup_only(self, seed: u64, size: Size, clock: &mut Clock) {
        match self {
            Workload::Attack => attack::setup_only(seed, size, clock),
            Workload::Flood => flood::setup_only(seed, size, clock),
            Workload::Fleet => fleet::setup_only(seed, size, clock),
        }
    }
}

/// Host seconds spent repeating the set-up alone; `setup_s` is the median
/// round. One set-up takes a few milliseconds, mostly page faults, whose
/// cost drifts with the host's load: fifteen rounds (tens of
/// milliseconds) gave medians 50 % apart between processes, rounds over
/// a second and a half stay within about 10 %.
const SETUP_SECONDS: f64 = 1.5;
/// Fewest set-up rounds, however long one takes.
const SETUP_MIN_ROUNDS: usize = 15;

/// What this process is: the benchmark, or one of its two children.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
enum Role {
    Bench,
    Oracle,
    Fidelity,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    role: Role,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2020u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut size = Size::Standard;
    let mut role = Role::Bench;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = match flag.as_str() {
            "--oracle" => {
                role = Role::Oracle;
                continue;
            }
            "--fidelity" => {
                role = Role::Fidelity;
                continue;
            }
            _ => it.next().ok_or_else(|| format!("{flag} needs a value"))?,
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| {
                        format!("unknown workload `{value}` (attack|flood|fleet)")
                    })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("--seconds must be 1..=3600, got `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                }
            }
            "--size" => {
                size = Size::parse(&value)
                    .ok_or_else(|| format!("--size must be standard or tiny, got `{value}`"))?
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        size,
        role,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = std::io::stdout().lock();
    let written = match args.role {
        Role::Bench => None,
        Role::Oracle => Some(
            args.workload
                .library(args.seed, args.size)
                .iter()
                .try_for_each(|step| {
                    write!(out, "{}\n{}\n{}", step.name, step.output.len(), step.output)
                }),
        ),
        Role::Fidelity => {
            let f = metrics::fidelity(args.size);
            Some(writeln!(
                out,
                "{} {} {}",
                f.fp_ddio_dev_pp, f.fp_noddio_dev_pp, f.fig16_rand_p99_dev_pp
            ))
        }
    };
    if let Some(written) = written {
        return match written.and_then(|()| out.flush()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::FAILURE,
        };
    }
    drop(out);
    // The default configuration: nothing overrides the program's own
    // choices. Runs before any thread exists.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PC_") {
            std::env::remove_var(&key);
        }
    }
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Output checks of one invocation.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn compare(&mut self, what: &str, got: &[Step], want: &[Step]) {
        for (i, w) in want.iter().enumerate() {
            self.attempted += 1;
            if got.get(i) != Some(w) {
                self.failed += 1;
                eprintln!(
                    "perfbench: {what} step `{}` differs from the reference",
                    w.name
                );
            }
        }
        if got.len() != want.len() {
            self.attempted += 1;
            self.failed += 1;
            eprintln!(
                "perfbench: {what} produced {} steps, reference {}",
                got.len(),
                want.len()
            );
        }
    }
}

/// A running child process of this benchmark, and the thread that
/// collects its standard output.
type Child = std::thread::JoinHandle<Result<Vec<u8>, String>>;

/// Starts this executable again as `role`, with `env` added to its
/// environment. The returned thread waits for the child to exit.
fn spawn_child(args: &Args, role: &str, env: &[(&str, &str)]) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut child = Command::new(exe)
        .args([role, "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string(), "--size", args.size.name()])
        .envs(env.iter().copied())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("{role}: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped");
    let role = role.to_string();
    Ok(std::thread::spawn(move || {
        let mut raw = Vec::new();
        let read = stdout.read_to_end(&mut raw);
        let status = child.wait().map_err(|e| format!("{role}: {e}"))?;
        read.map_err(|e| format!("{role} output: {e}"))?;
        if !status.success() {
            return Err(format!("{role} exited with {status}"));
        }
        Ok(raw)
    }))
}

fn join_child(child: Child) -> Result<Vec<u8>, String> {
    child
        .join()
        .map_err(|_| "child reader panicked".to_string())?
}

/// Parses the fidelity child's three gaps.
fn parse_fidelity(raw: &[u8]) -> Result<metrics::Fidelity, String> {
    let text = String::from_utf8_lossy(raw);
    let v: Vec<f64> = text
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|_| format!("bad fidelity output `{}`", text.trim()))?;
    match v[..] {
        [fp_ddio_dev_pp, fp_noddio_dev_pp, fig16_rand_p99_dev_pp] => Ok(metrics::Fidelity {
            fp_ddio_dev_pp,
            fp_noddio_dev_pp,
            fig16_rand_p99_dev_pp,
        }),
        _ => Err(format!("bad fidelity output `{}`", text.trim())),
    }
}

/// Parses the oracle's `name \n len \n bytes` frames.
fn parse_steps(mut raw: &[u8]) -> Result<Vec<Step>, String> {
    let line = |raw: &mut &[u8]| -> Result<String, String> {
        let end = raw
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("truncated oracle output")?;
        let s = String::from_utf8_lossy(&raw[..end]).into_owned();
        *raw = &raw[end + 1..];
        Ok(s)
    };
    let mut steps = Vec::new();
    while !raw.is_empty() {
        let name = line(&mut raw)?;
        let len: usize = line(&mut raw)?
            .parse()
            .map_err(|_| "bad oracle frame length")?;
        if raw.len() < len {
            return Err("truncated oracle output".into());
        }
        let output = String::from_utf8_lossy(&raw[..len]).into_owned();
        raw = &raw[len..];
        steps.push(Step { name, output });
    }
    Ok(steps)
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn bench(args: &Args) -> Result<(), String> {
    let record = host::HostRecord::collect();
    // Set-up first, alone on the host and in a process no worker thread
    // has touched yet.
    let mut setups = Vec::new();
    let start = Instant::now();
    while setups.len() < SETUP_MIN_ROUNDS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let mut clock = Clock::default();
        args.workload.setup_only(args.seed, args.size, &mut clock);
        setups.push(clock.setup);
    }
    let setup_s = median(&setups);
    eprintln!(
        "perfbench: {} set-up rounds, median {setup_s:.6} s",
        setups.len()
    );

    let oracle = spawn_child(
        args,
        "--oracle",
        &[("PC_RX_ENGINE", "per-access"), ("PC_BENCH_THREADS", "1")],
    )?;
    let fidelity = if args.trace {
        None
    } else {
        Some(spawn_child(args, "--fidelity", &[])?)
    };
    // The untimed warm-up runs while the children do.
    let warm = args.workload.library(args.seed, args.size);
    // Both children are waited for before either result is used.
    let reference = join_child(oracle);
    let fidelity = fidelity.map(join_child).transpose();
    let reference = parse_steps(&reference?)?;
    let fidelity = fidelity?;

    let mut checks = Checks::default();
    checks.compare("warm-up", &warm, &reference);
    // Peak memory of set-up plus one whole iteration. Later iterations
    // only add the allocator's cross-thread reuse noise.
    let peak_rss = host::peak_rss_mib().ok_or("cannot read peak RSS from /proc/self/status")?;

    // Untraced iterations time the library calls whole; the set-up they
    // do inside is taken out again as `setup_s`.
    let mut work: Vec<f64> = Vec::new();
    let mut traced: Vec<f64> = Vec::new();
    let mut tracer: Option<trace::Tracer> = None;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let steps = args.workload.library(args.seed, args.size);
        work.push(t.elapsed().as_secs_f64() - setup_s);
        checks.compare("untraced", &steps, &reference);
        if args.trace {
            let mut clock = Clock::default();
            trace::install(tracer.take().unwrap_or_else(trace::Tracer::new));
            let steps = args.workload.traced(args.seed, args.size, &mut clock);
            tracer = trace::uninstall();
            checks.compare("traced", &steps, &reference);
            traced.push(clock.work);
        }
        if start.elapsed() >= budget {
            break;
        }
    }

    eprintln!(
        "perfbench: {} iterations, work median {:.6} s (min {:.6}, max {:.6})",
        work.len(),
        median(&work),
        work.iter().copied().fold(f64::INFINITY, f64::min),
        work.iter().copied().fold(0.0, f64::max)
    );
    let values: Vec<metrics::MetricValue> = if args.trace {
        let tracer = tracer.expect("traced at least once");
        let untraced_wall = mean(&work);
        let traced_wall = mean(&traced);
        let layers = metrics::per_layer(&tracer, traced.len(), traced_wall, untraced_wall);
        write_trace_file(args, &record, &tracer, &layers)?;
        layers
    } else {
        let fidelity = parse_fidelity(&fidelity.expect("spawned untraced"))?;
        [
            ("wall_s", "s", median(&work)),
            ("setup_s", "s", setup_s),
            ("peak_rss_mib", "MiB", peak_rss),
            ("fp_ddio_dev_pp", "pp", fidelity.fp_ddio_dev_pp),
            ("fp_noddio_dev_pp", "pp", fidelity.fp_noddio_dev_pp),
            (
                "fig16_rand_p99_dev_pp",
                "pp",
                fidelity.fig16_rand_p99_dev_pp,
            ),
        ]
        .into_iter()
        .map(|(n, u, v)| (n.to_string(), u, v))
        .collect()
    };

    let mut metrics_json = Vec::new();
    for (name, unit, value) in &values {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        metrics_json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"size\": \"{}\", \"iterations\": {}, \"traced_iterations\": {}, \"host\": {}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.size.name(),
        work.len(),
        traced.len(),
        record.json()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics_json.join(", ")
    );
    Ok(())
}

/// Writes the traced run's spans (JSON lines) and per-layer table.
fn write_trace_file(
    args: &Args,
    record: &host::HostRecord,
    tracer: &trace::Tracer,
    layers: &[metrics::MetricValue],
) -> Result<(), String> {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
    )
    .join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let base = format!(
        "{}-seed{}-{}",
        args.workload.name(),
        args.seed,
        args.size.name()
    );
    let spans = dir.join(format!("{base}.spans.jsonl"));
    let mut body = format!("{{\"host\":{}}}\n", record.json());
    body.push_str(&tracer.spans_jsonl());
    std::fs::write(&spans, body).map_err(|e| format!("{}: {e}", spans.display()))?;
    let table = dir.join(format!("{base}.layers.md"));
    std::fs::write(&table, metrics::layer_table(layers))
        .map_err(|e| format!("{}: {e}", table.display()))?;
    eprintln!(
        "perfbench: spans in {}, layer table in {}",
        spans.display(),
        table.display()
    );
    Ok(())
}
