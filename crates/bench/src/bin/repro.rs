//! `repro` — regenerate every table and figure of the paper, and run
//! registered end-to-end scenarios.
//!
//! ```text
//! repro [--full|--quick] [--seed N] <experiment...|all>
//! repro [--full|--quick] [--seed N] [--queues N] scenario <name>... | list
//! repro [--full|--quick] [--seed N] [--queues N] [--tenants N] fleet
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
//! All configuration — argv and the `PC_BENCH_THREADS` and `PC_FAULT`
//! variables — is read once, by [`RunConfig::parse`], before any work.
//! A bad value exits 2 with one `repro:` line on stderr. `--queues N`
//! sets the rx queue count of every scenario and fleet template it
//! runs (`ScenarioSpec::with_queues`); the paper experiments run the
//! paper's single ring. `--queues` and `--tenants` apply only to the
//! commands above, `--seeds` only to `fault-matrix`; with any other
//! command they exit 2 rather than being silently ignored.
//! `fault-matrix` picks its own seeds and scale, so `--seed`, `--full`
//! or `--quick` with it exits 2 too.

use pc_bench::experiments::{self as exp, Experiment, Scale};
use pc_bench::fleet;
use pc_bench::scenario::{self, ScenarioSpec};
use pc_cache::fault::FaultSpec;
use std::ffi::OsString;
use std::ops::RangeInclusive;
use std::str::FromStr;
use std::time::Instant;

fn main() {
    let cfg = RunConfig::parse(std::env::args_os().skip(1), |name| std::env::var_os(name))
        .unwrap_or_else(|e| die(&e));
    // An armed run is an explicitly broken simulator, which is exactly
    // what `fault-matrix` quantifies and what PC_BLESS refuses.
    if let Some(spec) = cfg.fault {
        pc_cache::fault::arm(spec);
    }
    let (scale, seed) = (cfg.scale, cfg.seed);
    let with_queues = |spec: ScenarioSpec| match cfg.queues {
        Some(n) => spec.with_queues(n),
        None => spec,
    };
    match cfg.command {
        Command::Help => print!("{}", help()),
        Command::Experiments(selected) => {
            for e in selected {
                emit(e.name, e.title, || (e.report)(scale, seed).render());
            }
        }
        Command::List => {
            println!("registered scenarios:");
            print!("{}", scenario::render_list());
        }
        Command::Scenarios(selected) => {
            for s in selected {
                let s = with_queues(s.clone());
                let title = format!("Scenario {} — {}", s.name(), s.summary());
                emit(&format!("scenario {}", s.name()), &title, || {
                    s.run(scale, seed)
                });
            }
        }
        Command::Fleet { tenants } => {
            let mut cfg = fleet::FleetConfig::standard(tenants, seed, scale);
            for t in &mut cfg.templates {
                t.spec = with_queues(t.spec.clone());
            }
            let title = format!("Fleet — {tenants} tenants from the standard templates");
            emit("fleet", &title, || fleet::run_fleet(&cfg).render());
        }
        Command::FaultMatrix { seeds } => {
            if !pc_bench::faultmatrix::run(seeds) {
                std::process::exit(2);
            }
        }
    }
}

/// One `repro` invocation, parsed and checked in full before any work.
struct RunConfig {
    command: Command,
    scale: Scale,
    seed: u64,
    /// `--queues N`: the rx queue count for every scenario and fleet
    /// template the command runs; `None` keeps each spec's own.
    queues: Option<usize>,
    /// The fault `PC_FAULT` names, armed before dispatch.
    fault: Option<FaultSpec>,
}

/// What a [`RunConfig`] runs. Every name is resolved at parse time, so
/// a typo late in the list cannot follow a full report with exit 2.
enum Command {
    Help,
    Experiments(Vec<&'static Experiment>),
    Scenarios(Vec<&'static ScenarioSpec>),
    List,
    Fleet { tenants: usize },
    FaultMatrix { seeds: u64 },
}

impl RunConfig {
    /// Parses `args` (argv without the program name) and the variables
    /// `env` returns. Pure: it reads nothing else and arms nothing. Every
    /// problem — a non-UTF-8 argument or value included — is an `Err`
    /// holding one line, without the `repro:` prefix.
    fn parse(
        args: impl IntoIterator<Item = OsString>,
        env: impl Fn(&str) -> Option<OsString>,
    ) -> Result<RunConfig, String> {
        // `pc_par::max_threads` keeps its first read for the rest of the
        // process and falls back silently on a bad value, so the
        // variable is checked here, before anything reads it. Lossy, so
        // a non-UTF-8 value fails its parse instead of reading as unset;
        // `{v:?}` keeps a value with a newline on one line.
        let var = |name: &str| env(name).map(|v| v.to_string_lossy().into_owned());
        if let Some(v) = var("PC_BENCH_THREADS") {
            if !v.parse::<usize>().is_ok_and(|n| n > 0) {
                return Err(format!(
                    "PC_BENCH_THREADS must be a positive integer, got {v:?}"
                ));
            }
        }
        // A fault that silently fails to arm would fake a surviving
        // mutant. The parser quotes the spec; escaping keeps it one line.
        let fault = var("PC_FAULT")
            .map(|v| FaultSpec::parse(&v))
            .transpose()
            .map_err(|e| format!("PC_FAULT: {e}").escape_debug().to_string())?;

        let mut cfg = RunConfig {
            // Kept only when `--help` ends the parse early.
            command: Command::Help,
            scale: Scale::Quick,
            seed: 2020,
            queues: None,
            fault,
        };
        let mut fault_seeds: Option<u64> = None;
        let mut tenants: Option<usize> = None;
        // The first of `--seed`/`--full`/`--quick` given: they shape every
        // run except `fault-matrix`, which picks its own seeds and scale.
        let mut run_flag: Option<&'static str> = None;
        let mut cmds: Vec<String> = Vec::new();
        let mut args = args.into_iter().map(|a| {
            a.into_string()
                .map_err(|a| format!("argument {a:?} is not valid UTF-8"))
        });
        while let Some(a) = args.next().transpose()? {
            let mut value = || args.next().transpose();
            match a.as_str() {
                "--full" => {
                    cfg.scale = Scale::Full;
                    run_flag = run_flag.or(Some("--full"));
                }
                "--quick" => {
                    cfg.scale = Scale::Quick;
                    run_flag = run_flag.or(Some("--quick"));
                }
                "--seeds" => {
                    let need = "--seeds needs a positive number".into();
                    fault_seeds = Some(number(value()?, 1..=u64::MAX, need)?);
                }
                "--seed" => {
                    cfg.seed = number(value()?, 0..=u64::MAX, "--seed needs a number".into())?;
                    run_flag = run_flag.or(Some("--seed"));
                }
                "--tenants" => {
                    let need = format!("--tenants needs 1..={} tenants", fleet::MAX_TENANTS);
                    tenants = Some(number(value()?, 1..=fleet::MAX_TENANTS, need)?);
                }
                "--queues" => {
                    let need = format!("--queues needs 1..={} rx queues", pc_nic::MAX_RSS_QUEUES);
                    cfg.queues = Some(number(value()?, 1..=pc_nic::MAX_RSS_QUEUES, need)?);
                }
                "-h" | "--help" => return Ok(cfg),
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown option `{flag}` (try --help)"))
                }
                _ => cmds.push(a),
            }
        }
        if cmds.is_empty() {
            cmds.push("all".to_owned());
        }
        let (first, rest) = (cmds[0].as_str(), &cmds[1..]);
        // A flag outside the commands it shapes would otherwise be
        // ignored, and so would a run flag on the one command that
        // ignores them.
        if tenants.is_some() && first != "fleet" {
            return Err("--tenants only applies to fleet".into());
        }
        if cfg.queues.is_some() && !["scenario", "fleet"].contains(&first) {
            return Err("--queues only applies to scenario and fleet".into());
        }
        if fault_seeds.is_some() && first != "fault-matrix" {
            return Err("--seeds only applies to fault-matrix".into());
        }
        if let (Some(flag), "fault-matrix") = (run_flag, first) {
            return Err(format!(
                "{flag} does not apply to fault-matrix (it picks its own seeds and scale; use --seeds N)"
            ));
        }
        cfg.command = match first {
            "scenario" => {
                let selected = resolve(
                    rest.iter().filter(|n| *n != "list"),
                    scenario::find,
                    "unknown scenario",
                    "`scenario list`",
                )?;
                if rest.is_empty() || rest == ["list"] {
                    Command::List
                } else if rest.iter().any(|n| n == "list") {
                    return Err("`scenario list` takes no scenario names".into());
                } else {
                    Command::Scenarios(selected)
                }
            }
            "fleet" if !rest.is_empty() => {
                return Err("fleet takes no further arguments (use --tenants N)".into())
            }
            "fleet" => Command::Fleet {
                tenants: tenants.unwrap_or(64),
            },
            "fault-matrix" if !rest.is_empty() => {
                return Err("fault-matrix takes no further arguments (use --seeds N)".into())
            }
            "fault-matrix" if cfg.fault.is_some() => {
                return Err("fault-matrix arms its own faults; unset PC_FAULT first".into())
            }
            "fault-matrix" => Command::FaultMatrix {
                seeds: fault_seeds.unwrap_or(3),
            },
            _ => {
                let named = resolve(
                    cmds.iter().filter(|c| *c != "all"),
                    exp::find,
                    "unknown experiment",
                    "--help",
                )?;
                if cmds.iter().any(|c| c == "all") {
                    Command::Experiments(exp::table().iter().collect())
                } else {
                    Command::Experiments(named)
                }
            }
        };
        Ok(cfg)
    }
}

/// `repro --help`. The experiment list comes from the table, so it
/// cannot miss an entry.
fn help() -> String {
    let names: Vec<&str> = exp::table().iter().map(|e| e.name).collect();
    let lines: Vec<String> = names.chunks(8).map(|line| line.join(" ")).collect();
    format!(
        "usage: repro [--full] [--seed N] <experiment|all>
       repro [--full] [--seed N] [--queues N] scenario <name>... | list
       repro [--full] [--seed N] [--queues N] [--tenants N] fleet
       repro [--seeds N] fault-matrix
--full:      paper-like parameters (minutes); --quick, the default,
             runs each experiment in seconds
--queues:    rx queue count (1..={}) for every TestBed of the selected
             scenarios or fleet templates, replacing their defaults
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

/// A flag's value parsed as a number in `range`, or `Err(need)` when
/// it is missing, malformed or out of range.
fn number<T: FromStr + PartialOrd>(
    value: Option<String>,
    range: RangeInclusive<T>,
    need: String,
) -> Result<T, String> {
    value
        .and_then(|v| v.parse().ok())
        .filter(|n| range.contains(n))
        .ok_or(need)
}

/// Looks every name up, failing on the first unknown one.
fn resolve<'a, T>(
    names: impl Iterator<Item = &'a String>,
    find: impl Fn(&str) -> Option<T>,
    unknown: &str,
    hint: &str,
) -> Result<Vec<T>, String> {
    names
        .map(|n| find(n).ok_or_else(|| format!("{unknown} `{n}` (try {hint})")))
        .collect()
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
    use proptest::prelude::*;
    use std::os::unix::ffi::OsStringExt;

    fn parse(args: &[&str], env: &[(&str, &str)]) -> Result<RunConfig, String> {
        let env: Vec<(String, OsString)> = env.iter().map(|&(k, v)| (k.into(), v.into())).collect();
        RunConfig::parse(args.iter().map(OsString::from), |name| {
            env.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
        })
    }

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

    #[test]
    fn parse_builds_the_typed_command() {
        let cfg = parse(&["--queues", "4", "--seed", "7", "fleet"], &[]).expect("valid");
        assert!(matches!(cfg.command, Command::Fleet { tenants: 64 }));
        assert_eq!((cfg.seed, cfg.queues), (7, Some(4)));
        let cfg = parse(&[], &[("PC_FAULT", "stale-lru:1")]).expect("valid");
        assert!(matches!(&cfg.command, Command::Experiments(e) if e.len() == exp::table().len()));
        assert!(cfg.fault.is_some());
        let cfg = parse(&["--seeds", "2", "fault-matrix"], &[]).expect("valid");
        assert!(matches!(cfg.command, Command::FaultMatrix { seeds: 2 }));
        let cfg = parse(&["scenario", "kv-store", "chasing"], &[]).expect("valid");
        assert!(matches!(&cfg.command, Command::Scenarios(s) if s.len() == 2));
        assert!(matches!(
            parse(&["scenario"], &[]).expect("valid").command,
            Command::List
        ));
        let err = parse(&["fault-matrix"], &[("PC_FAULT", "stale-lru:1")]).err();
        assert!(err.is_some_and(|e| e.contains("PC_FAULT")));
    }

    /// Argument tokens the property draws from: every flag, command
    /// and kind of value, plus empty and non-UTF-8 strings.
    fn token(i: usize) -> OsString {
        const WORDS: [&str; 24] = [
            "--full",
            "--quick",
            "--seed",
            "--seeds",
            "--tenants",
            "--queues",
            "--help",
            "--bogus",
            "all",
            "fig5",
            "table2",
            "scenario",
            "list",
            "kv-store",
            "fleet",
            "fault-matrix",
            "bogus",
            "0",
            "1",
            "4",
            "17",
            "5000000000000",
            "-1",
            "",
        ];
        WORDS
            .get(i)
            .map_or_else(|| OsString::from_vec(vec![b'f', 0xff]), OsString::from)
    }

    /// A variable value: unset, valid, malformed or non-UTF-8.
    fn value(i: usize) -> Option<OsString> {
        const VALUES: [&str; 7] = ["1", "0", "abc", "", "stale-lru:1", "stale-lru", "a\nb"];
        match i {
            0 => None,
            i if i <= VALUES.len() => Some(VALUES[i - 1].into()),
            _ => Some(OsString::from_vec(vec![0xff])),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any argv and environment parses to `Ok` or to a one-line
        /// `Err`; nothing panics.
        #[test]
        fn parse_never_panics(
            args in proptest::collection::vec(0usize..25, 0..7),
            threads in 0usize..9,
            fault in 0usize..9,
        ) {
            let result = RunConfig::parse(args.into_iter().map(token), |name| match name {
                "PC_BENCH_THREADS" => value(threads),
                "PC_FAULT" => value(fault),
                _ => None,
            });
            if let Err(e) = result {
                prop_assert!(!e.contains('\n') && !e.is_empty(), "message {e:?}");
            }
        }
    }
}
