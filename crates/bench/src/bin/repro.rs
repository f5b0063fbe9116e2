//! `repro` — regenerate every table and figure of the paper, and run
//! registered end-to-end scenarios.
//!
//! ```text
//! repro [--full|--quick] [--seed N] [--queues N] <experiment...|all>
//! repro [--full|--quick] [--seed N] [--queues N] scenario <name>... | list
//! repro [--full|--quick] [--seed N] [--tenants N] fleet
//! repro [--seeds N] fault-matrix
//! ```
//!
//! The experiments are the rows of `pc_bench::experiments::table` —
//! Figures 5–16, Tables I–II and the §V fingerprint accuracies, in the
//! paper's order, which is the order `all` runs them in (`repro
//! --help` lists them). Each entry's report, like every scenario's and
//! the fleet's, is printed by one routine: a separator line, the
//! title, the report's rendering, and the wall time on stderr. This
//! file only parses arguments, looks names up and prints.
//!
//! `scenario` runs named workloads from the registry in
//! `pc_bench::scenario` (`repro scenario list`, which takes no names,
//! prints them): the
//! paper's heavy end-to-end attacks (ring recovery, fingerprinting)
//! plus mixed web-trace, line-rate-sweep and covert-bandwidth-sweep
//! workloads, all riding the batched op-stream pipeline. Scenario
//! stdout follows the same determinism contract as the figures.
//!
//! `fleet` instantiates `--tenants N` (default 64) independent tenants
//! from the standard weighted scenario templates, derives each
//! tenant's seed from `--seed`, fans the runs out shared-nothing over
//! worker threads, and prints the merged fleet statistics
//! (per-template percentiles, per-DDIO-mode breakdown, aggregate line
//! rate — see `pc_bench::fleet`). The merge order is tenant index, so
//! stdout is byte-identical at any `PC_BENCH_THREADS`.
//!
//! Output is plain text with CSV-style rows, matching the series the
//! paper reports. `--full` uses paper-like parameters (minutes);
//! `--quick`, the default, finishes in seconds per experiment.
//! Experiments with independent repetitions fan them out over threads
//! (set `PC_BENCH_THREADS=1` to force sequential execution); *stdout
//! is byte-identical either way* — the CI determinism job diffs two
//! full runs to enforce it.
//! Timing chatter goes to stderr so it never perturbs the comparison.
//!
//! `--tenants` applies only to `fleet` and `--seeds` only to
//! `fault-matrix`; either one with any other command exits 2 rather
//! than being silently ignored. `fault-matrix` picks its own seeds and
//! scale, so `--seed`, `--full` or `--quick` with it exits 2 too.

use pc_bench::experiments::{self as exp, Scale};
use pc_bench::{fleet, scenario};
use std::time::Instant;

fn main() {
    validate_env();
    // Honor PC_FAULT for any subcommand: an armed run is an explicitly
    // broken simulator, which is exactly what `fault-matrix` quantifies
    // and what PC_BLESS refuses. A malformed value exits 2 here, before
    // any work; the parser quotes the spec, and escaping keeps it one
    // line.
    if let Err(e) = arm_fault_from_env() {
        die(&e.escape_debug().to_string());
    }
    let mut scale = Scale::Quick;
    let mut seed = 2020u64;
    let mut fault_seeds: Option<u64> = None;
    let mut tenants: Option<usize> = None;
    // The first of `--seed`/`--full`/`--quick` given: they shape every
    // run except `fault-matrix`, which picks its own seeds and scale.
    let mut run_flag: Option<&'static str> = None;
    let mut cmds: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => {
                scale = Scale::Full;
                run_flag = run_flag.or(Some("--full"));
            }
            "--quick" => {
                scale = Scale::Quick;
                run_flag = run_flag.or(Some("--quick"));
            }
            "--seeds" => {
                fault_seeds = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| die("--seeds needs a positive number")),
                );
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
                run_flag = run_flag.or(Some("--seed"));
            }
            "--tenants" => {
                tenants = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|n| (1..=pc_bench::fleet::MAX_TENANTS).contains(n))
                        .unwrap_or_else(|| {
                            die(&format!(
                                "--tenants needs 1..={} tenants",
                                pc_bench::fleet::MAX_TENANTS
                            ))
                        }),
                );
            }
            // Queue-count selection for every TestBed the run
            // constructs: validated here, routed through PC_RSS_QUEUES
            // so nested TestBedConfig construction sites (and scenario
            // spec defaults) pick it up.
            "--queues" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| die("--queues needs a queue count"));
                match v.parse::<usize>() {
                    Ok(n) if (1..=pc_nic::MAX_RSS_QUEUES).contains(&n) => {
                        std::env::set_var("PC_RSS_QUEUES", v);
                    }
                    _ => die(&format!(
                        "--queues needs 1..={} rx queues",
                        pc_nic::MAX_RSS_QUEUES
                    )),
                }
            }
            "-h" | "--help" => {
                print!("{}", help());
                return;
            }
            flag if flag.starts_with('-') => die(&format!("unknown option `{flag}` (try --help)")),
            other => cmds.push(other.to_owned()),
        }
    }
    if cmds.is_empty() {
        cmds.push("all".to_owned());
    }
    // A count flag outside its one command would otherwise be ignored,
    // and so would a run flag on the one command that ignores them.
    if tenants.is_some() && cmds[0] != "fleet" {
        die("--tenants only applies to fleet");
    }
    if fault_seeds.is_some() && cmds[0] != "fault-matrix" {
        die("--seeds only applies to fault-matrix");
    }
    if let (Some(flag), "fault-matrix") = (run_flag, cmds[0].as_str()) {
        die(&format!(
            "{flag} does not apply to fault-matrix (it picks its own seeds and scale; use --seeds N)"
        ));
    }
    if cmds[0] == "scenario" {
        run_scenarios(&cmds[1..], scale, seed);
        return;
    }
    if cmds[0] == "fleet" {
        if cmds.len() > 1 {
            die("fleet takes no further arguments (use --tenants N)");
        }
        let tenants = tenants.unwrap_or(64);
        let cfg = fleet::FleetConfig::standard(tenants, seed, scale);
        let title = format!("Fleet — {tenants} tenants from the standard templates");
        emit("fleet", &title, || fleet::run_fleet(&cfg).render());
        return;
    }
    if cmds[0] == "fault-matrix" {
        if cmds.len() > 1 {
            die("fault-matrix takes no further arguments (use --seeds N)");
        }
        if pc_cache::fault::current().is_some() {
            die("fault-matrix arms its own faults; unset PC_FAULT first");
        }
        if !pc_bench::faultmatrix::run(fault_seeds.unwrap_or(3)) {
            std::process::exit(2);
        }
        return;
    }
    let named = resolve(
        cmds.iter().filter(|c| *c != "all"),
        exp::find,
        "unknown experiment",
        "--help",
    );
    let selected = if cmds.iter().any(|c| c == "all") {
        exp::table().iter().collect()
    } else {
        named
    };
    for e in selected {
        emit(e.name, e.title, || (e.report)(scale, seed).render());
    }
}

/// `repro --help`. The experiment list comes from the table, so it
/// cannot miss an entry.
fn help() -> String {
    let names: Vec<&str> = exp::table().iter().map(|e| e.name).collect();
    let lines: Vec<String> = names.chunks(8).map(|line| line.join(" ")).collect();
    format!(
        "usage: repro [--full] [--seed N] [--queues N] <experiment|all>
       repro [--full] [--seed N] [--queues N] scenario <name>... | list
       repro [--full] [--seed N] [--tenants N] fleet
       repro [--seeds N] fault-matrix
--full:      paper-like parameters (minutes); --quick, the default,
             runs each experiment in seconds
--queues:    rx queue count for every TestBed (1..={}; overrides
             scenario defaults; routed via PC_RSS_QUEUES)
experiments: {}
scenario:    registered end-to-end workloads (`scenario list`)
fleet:       --tenants N independent tenants from the standard
             templates, merged fleet statistics (default 64)
fault-matrix: arm every PC_FAULT catalog site x seed (0..N from
             --seeds, default 3) against the detector suites;
             prints the kill matrix, exits 2 on survivors
",
        pc_nic::MAX_RSS_QUEUES,
        lines.join("\n             ")
    )
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// Checks the `PC_*` variables that configure the whole run, before
/// anything reads them: `pc_par::max_threads` keeps its first read for
/// the rest of the process, and the library parsers would otherwise
/// fall back silently (`PC_BENCH_THREADS`) or panic (`PC_RSS_QUEUES`
/// mid-report). A bad value exits 2 with one line on stderr.
/// `PC_FAULT` is checked where `main` arms it.
fn validate_env() {
    // Lossy, so a non-UTF-8 value fails its parse instead of reading as
    // unset; `{v:?}` keeps a value with a newline on one line.
    let var = |name: &str| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    if let Some(v) = var("PC_BENCH_THREADS") {
        if !v.parse::<usize>().is_ok_and(|n| n > 0) {
            die(&format!(
                "PC_BENCH_THREADS must be a positive integer, got {v:?}"
            ));
        }
    }
    if let Some(v) = var("PC_RSS_QUEUES") {
        let queues = 1..=pc_nic::MAX_RSS_QUEUES;
        if !v.parse::<usize>().is_ok_and(|n| queues.contains(&n)) {
            die(&format!(
                "PC_RSS_QUEUES must be {}..={}, got {v:?}",
                queues.start(),
                queues.end()
            ));
        }
    }
}

/// Arms the fault `PC_FAULT` names, if it is set. A malformed value —
/// non-UTF-8 included — is an `Err` with a one-line `PC_FAULT: …`
/// message and arms nothing; the caller must not carry on, since a
/// fault that silently fails to arm would fake a surviving mutant.
fn arm_fault_from_env() -> Result<(), String> {
    let Some(v) = std::env::var_os("PC_FAULT") else {
        return Ok(());
    };
    let spec = pc_cache::fault::FaultSpec::parse(&v.to_string_lossy())
        .map_err(|e| format!("PC_FAULT: {e}"))?;
    pc_cache::fault::arm(spec);
    Ok(())
}

/// Looks every name up before the first report runs, so a typo late in
/// the list cannot follow a full report with exit 2.
fn resolve<'a, T>(
    names: impl Iterator<Item = &'a String>,
    find: impl Fn(&str) -> Option<T>,
    unknown: &str,
    hint: &str,
) -> Vec<T> {
    names
        .map(|n| find(n).unwrap_or_else(|| die(&format!("{unknown} `{n}` (try {hint})"))))
        .collect()
}

/// `scenario <name>...` runs the named scenarios; `scenario list` (or
/// `scenario` alone) prints the registry, and takes no names.
fn run_scenarios(names: &[String], scale: Scale, seed: u64) {
    let selected = resolve(
        names.iter().filter(|n| *n != "list"),
        scenario::find,
        "unknown scenario",
        "`scenario list`",
    );
    if names.is_empty() || names == ["list"] {
        println!("registered scenarios:");
        print!("{}", scenario::render_list());
        return;
    }
    if names.iter().any(|n| n == "list") {
        die("`scenario list` takes no scenario names");
    }
    for s in selected {
        let title = format!("Scenario {} — {}", s.name(), s.summary());
        emit(&format!("scenario {}", s.name()), &title, || {
            s.run(scale, seed)
        });
    }
}

/// Prints one titled report — the separator, the title and the
/// rendering — then its wall time on stderr: stdout must be byte-stable
/// across runs and thread counts (the CI determinism job diffs it).
fn emit(label: &str, title: &str, render: impl FnOnce() -> String) {
    let t = Instant::now();
    println!("==================================================================");
    println!("{title}");
    print!("{}", render());
    eprintln!("[{label} done in {:.1}s]", t.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_table_names_are_unique_free_and_in_the_help() {
        let help = help();
        let mut names: Vec<&str> = exp::table().iter().map(|e| e.name).collect();
        for name in &names {
            assert!(
                !["all", "scenario", "fleet", "fault-matrix"].contains(name),
                "`{name}` would be shadowed by a subcommand"
            );
            assert!(
                help.split_whitespace().any(|w| w == *name),
                "--help omits `{name}`"
            );
            assert_eq!(exp::find(name).map(|e| e.name), Some(*name));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate experiment name");
    }
}
