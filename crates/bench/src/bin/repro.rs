//! `repro` — regenerate every table and figure of the paper, and run
//! registered end-to-end scenarios.
//!
//! ```text
//! repro [--full] [--seed N] [--queues N] <experiment|all>
//! repro [--full] [--seed N] [--queues N] scenario <name>... | list
//! repro [--full] [--seed N] [--tenants N] fleet
//! repro [--seeds N] fault-matrix
//!
//! experiments:
//!   fig5 fig6 fig7 fig8 table1 fig10 fig11 fig12ab fig12cd
//!   fig13 fingerprint table2 fig14 fig15 fig16
//! ```
//!
//! `scenario` runs named workloads from the registry in
//! `pc_bench::scenario` (`repro scenario list` prints them): the
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
//! the default quick scale finishes in seconds per experiment.
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
use std::time::Instant;

fn main() {
    validate_env();
    // Honor PC_FAULT for any subcommand: an armed run is an explicitly
    // broken simulator, which is exactly what `fault-matrix` quantifies
    // and what PC_BLESS refuses. A malformed value exits 2 here, before
    // any work; the parser quotes the spec, and escaping keeps it one
    // line.
    if let Err(e) = pc_cache::fault::arm_from_env() {
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
                println!("usage: repro [--full] [--seed N] [--queues N] <experiment|all>");
                println!("       repro [--full] [--seed N] [--queues N] scenario <name>... | list");
                println!("       repro [--full] [--seed N] [--tenants N] fleet");
                println!("       repro [--seeds N] fault-matrix");
                println!(
                    "--queues:    rx queue count for every TestBed (1..={}; overrides",
                    pc_nic::MAX_RSS_QUEUES
                );
                println!("             scenario defaults; routed via PC_RSS_QUEUES)");
                println!("experiments: fig5 fig6 fig7 fig8 table1 fig10 fig11 fig12ab");
                println!("             fig12cd fig13 fingerprint table2 fig14 fig15 fig16");
                println!("scenario:    registered end-to-end workloads (`scenario list`)");
                println!("fleet:       --tenants N independent tenants from the standard");
                println!("             templates, merged fleet statistics (default 64)");
                println!("fault-matrix: arm every PC_FAULT catalog site x seed (0..N from");
                println!("             --seeds, default 3) against the detector suites;");
                println!("             prints the kill matrix, exits 2 on survivors");
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
        run_fleet_cmd(tenants.unwrap_or(64), scale, seed);
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

    let all = [
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "table1",
        "fig10",
        "fig11",
        "fig12ab",
        "fig12cd",
        "fig13",
        "fingerprint",
        "table2",
        "fig14",
        "fig15",
        "fig16",
    ];
    // Every name is checked before the first experiment runs, so a typo
    // late in the list cannot follow a full report with exit 2.
    if let Some(bad) = cmds
        .iter()
        .find(|c| *c != "all" && !all.contains(&c.as_str()))
    {
        die(&format!("unknown experiment `{bad}` (try --help)"));
    }
    let selected: Vec<&str> = if cmds.iter().any(|c| c == "all") {
        all.to_vec()
    } else {
        cmds.iter().map(String::as_str).collect()
    };

    for cmd in selected {
        let t = Instant::now();
        println!("==================================================================");
        match cmd {
            "fig5" => fig5(seed),
            "fig6" => fig6(scale, seed),
            "fig7" => fig7(scale, seed),
            "fig8" => fig8(scale, seed),
            "table1" => table1(scale, seed),
            "fig10" => fig10(seed),
            "fig11" => fig11(scale, seed),
            "fig12ab" => fig12ab(scale, seed),
            "fig12cd" => fig12cd(scale, seed),
            "fig13" => fig13(seed),
            "fingerprint" => fingerprint(scale, seed),
            "table2" => table2(),
            "fig14" => fig14(scale, seed),
            "fig15" => fig15(scale, seed),
            "fig16" => fig16(scale, seed),
            other => unreachable!("experiment `{other}` was validated above"),
        }
        // Wall-clock chatter goes to stderr: stdout must be byte-stable
        // across runs and thread counts (the CI determinism job diffs it).
        eprintln!("[{cmd} done in {:.1}s]", t.elapsed().as_secs_f64());
    }
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

fn run_fleet_cmd(tenants: usize, scale: Scale, seed: u64) {
    use pc_bench::fleet;
    let t = Instant::now();
    println!("==================================================================");
    println!("Fleet — {tenants} tenants from the standard templates");
    let cfg = fleet::FleetConfig::standard(tenants, seed, scale);
    print!("{}", fleet::run_fleet(&cfg).render());
    // Timing to stderr: stdout must be byte-stable across thread
    // counts (the CI determinism job diffs fleet runs at 1 vs 4).
    eprintln!("[fleet done in {:.1}s]", t.elapsed().as_secs_f64());
}

fn run_scenarios(names: &[String], scale: Scale, seed: u64) {
    use pc_bench::scenario;
    // Every name is checked before the first scenario runs, so a typo
    // late in the list cannot follow a full report with exit 2.
    let selected: Vec<_> = names
        .iter()
        .filter(|n| *n != "list")
        .map(|name| {
            scenario::find(name)
                .unwrap_or_else(|| die(&format!("unknown scenario `{name}` (try `scenario list`)")))
        })
        .collect();
    if names.is_empty() || names.iter().any(|n| n == "list") {
        println!("registered scenarios:");
        print!("{}", scenario::render_list());
        return;
    }
    for s in selected {
        let t = Instant::now();
        println!("==================================================================");
        println!("Scenario {} — {}", s.name(), s.summary());
        print!("{}", s.run(scale, seed));
        // Timing to stderr, like the figure experiments: stdout must be
        // byte-stable (the CI determinism job diffs scenario runs too).
        eprintln!(
            "[scenario {} done in {:.1}s]",
            s.name(),
            t.elapsed().as_secs_f64()
        );
    }
}

fn fig5(seed: u64) {
    println!("Figure 5 — ring buffers per page-aligned cache set (one instance)");
    let hist = exp::fig5(seed);
    println!("set,buffers");
    for (set, n) in hist.iter().enumerate() {
        println!("{set},{n}");
    }
    let empty = hist.iter().filter(|&&n| n == 0).count();
    let max = hist.iter().max().copied().unwrap_or(0);
    println!("# summary: {empty}/256 sets empty, max buffers on one set = {max}");
    println!("# paper:   ~35% of sets empty; one set holds 5 in the example");
}

fn fig6(scale: Scale, seed: u64) {
    println!("Figure 6 — distribution of buffers-per-set over many driver inits");
    let dist = exp::fig6(scale, seed);
    let total: usize = dist.iter().sum();
    println!("buffers_mapped_to_set,instances,fraction");
    for (k, n) in dist.iter().enumerate() {
        println!("{k},{n},{:.4}", *n as f64 / total as f64);
    }
    println!(
        "# summary: {:.1}% of sets empty (paper: ~35%); >4 buffers: {:.3}% (paper: rare)",
        dist[0] as f64 / total as f64 * 100.0,
        dist.iter().skip(5).sum::<usize>() as f64 / total as f64 * 100.0
    );
}

fn fig7(scale: Scale, seed: u64) {
    println!("Figure 7 — page-aligned set activity: idle / receiving / idle");
    let r = exp::fig7(scale, seed);
    println!("phase,samples,active_sets,total_events");
    for (p, name) in ["idle", "receiving", "idle"].iter().enumerate() {
        println!(
            "{name},{},{},{}",
            r.phase_samples[p],
            r.active_sets(p),
            r.per_set[p].iter().sum::<usize>()
        );
    }
    println!("# paper: white dots (activity) appear only while packets stream in,");
    println!("#        on the sets that host at least one ring buffer (~65% of 256)");
}

fn fig8(scale: Scale, seed: u64) {
    println!("Figure 8 — block-row activity vs packet size (events)");
    let m = exp::fig8(scale, seed);
    println!("block_row,1_block_pkts,2_block_pkts,3_block_pkts,4_block_pkts");
    for (row, counts) in m.iter().enumerate() {
        println!(
            "block{row},{},{},{},{}",
            counts[0], counts[1], counts[2], counts[3]
        );
    }
    println!("# paper: activity on the diagonal and above; 1-block packets still");
    println!("#        light block 1 (the driver's unconditional prefetch)");
}

fn table1(scale: Scale, seed: u64) {
    println!("Table I — ring-buffer sequence recovery");
    let r = exp::table1(scale, seed);
    println!("run,levenshtein,error_rate_pct,longest_mismatch,recovered_len,truth_len,minutes");
    for (i, q) in r.runs.iter().enumerate() {
        println!(
            "{i},{},{:.1},{},{},{},{:.1}",
            q.levenshtein,
            q.error_rate * 100.0,
            q.longest_mismatch,
            q.recovered_len,
            q.truth_len,
            q.minutes()
        );
    }
    println!(
        "# mean: lev {:.1}, error {:.1}% (paper: 25.2, 9.8%), longest mismatch {:.1} (paper 5.2)",
        r.mean(|q| q.levenshtein as f64),
        r.mean(|q| q.error_rate * 100.0),
        r.mean(|q| q.longest_mismatch as f64)
    );
    println!(
        "# params: {} sets, {} samples, {} pkt/s (paper: 32 sets, 100k samples, 0.2M pkt/s)",
        r.monitored_sets, r.samples, r.packet_rate
    );
}

fn fig10(seed: u64) {
    println!("Figure 10 — decoding the '2 0 1 2 0 1 …' ternary stream");
    let r = exp::fig10(seed);
    let fmt = |v: &[u8]| {
        v.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("sent:    {}", fmt(&r.sent));
    println!("decoded: {}", fmt(&r.decoded));
    println!("# error rate: {:.1}%", r.error_rate * 100.0);
}

fn fig11(scale: Scale, seed: u64) {
    println!("Figure 11 — single-buffer covert channel");
    let rows = exp::fig11(scale, seed);
    println!("encoding,probe_khz,bandwidth_bps,error_rate_pct");
    for r in rows {
        println!(
            "{},{},{:.0},{:.1}",
            r.encoding,
            r.probe_khz,
            r.bandwidth_bps,
            r.error_rate * 100.0
        );
    }
    println!("# paper: ~1953 bps binary / ~3095 bps ternary, error falls as probe");
    println!("#        rate rises 7→28 kHz, binary ≤ ternary error");
}

fn fig12ab(scale: Scale, seed: u64) {
    println!("Figure 12a/b — bandwidth/error vs monitored buffers");
    let rows = exp::fig12ab(scale, seed);
    println!("monitored_buffers,bandwidth_kbps,error_rate_pct");
    for r in rows {
        println!(
            "{},{:.1},{:.1}",
            r.buffers,
            r.bandwidth_kbps,
            r.error_rate * 100.0
        );
    }
    println!("# paper: bandwidth ~doubles per doubling (to 24.5 kbps at 16);");
    println!("#        error roughly flat until a jump at 16 buffers");
}

fn fig12cd(scale: Scale, seed: u64) {
    println!("Figure 12c/d — chasing all buffers: out-of-sync and error vs rate");
    let rows = exp::fig12cd(scale, seed);
    println!("bandwidth_kbps,out_of_sync_pct,error_rate_pct");
    for r in rows {
        println!(
            "{},{:.1},{:.1}",
            r.bandwidth_kbps,
            r.out_of_sync_rate * 100.0,
            r.error_rate * 100.0
        );
    }
    println!("# paper: out-of-sync ~constant with rate; error jumps at 640 kbps");
    println!("#        (packets begin arriving out of order)");
}

fn fig13(seed: u64) {
    println!("Figure 13 — hotcrp login: original vs recovered packet sizes");
    let r = exp::fig13(seed);
    println!("packet,ok_original,ok_recovered,fail_original,fail_recovered");
    for i in 0..r.ok_original.len() {
        println!(
            "{i},{},{},{},{}",
            r.ok_original[i], r.ok_recovered[i], r.fail_original[i], r.fail_recovered[i]
        );
    }
    println!("# paper: recovered traces preserve the size pattern that separates");
    println!("#        successful from unsuccessful logins");
}

fn fingerprint(scale: Scale, seed: u64) {
    println!("§V — closed-world website fingerprinting (5 sites)");
    let r = exp::fingerprint(scale, seed);
    println!("config,accuracy_pct,trials");
    println!(
        "DDIO,{:.1},{}",
        r.with_ddio.accuracy * 100.0,
        r.with_ddio.trials
    );
    println!(
        "NoDDIO,{:.1},{}",
        r.without_ddio.accuracy * 100.0,
        r.without_ddio.trials
    );
    println!("# paper: 89.7% with DDIO, 86.5% without (1000 trials)");
    println!("# confusion (DDIO): rows=truth, cols=predicted");
    for row in &r.with_ddio.confusion {
        println!("#   {row:?}");
    }
}

fn table2() {
    println!("Table II — baseline processor (constants, for reference)");
    print!("{}", exp::table2());
}

fn fig14(scale: Scale, seed: u64) {
    println!("Figure 14 — Nginx throughput: adaptive partitioning vs DDIO");
    let rows = exp::fig14(scale, seed);
    println!("llc_mib,config,krps");
    let mut by_size: std::collections::BTreeMap<u32, (f64, f64)> = Default::default();
    for r in &rows {
        println!("{},{},{:.1}", r.llc_mib, r.config, r.krps);
        let e = by_size.entry(r.llc_mib).or_default();
        if r.config == "DDIO" {
            e.1 = r.krps;
        } else {
            e.0 = r.krps;
        }
    }
    for (mib, (adaptive, ddio)) in by_size {
        println!(
            "# {} MiB: adaptive within {:.1}% of DDIO (paper: ≤2.7%)",
            mib,
            (1.0 - adaptive / ddio) * 100.0
        );
    }
}

fn fig15(scale: Scale, seed: u64) {
    println!("Figure 15 — memory traffic and LLC miss rate vs DDIO mode");
    let rows = exp::fig15(scale, seed);
    println!("workload,config,norm_mem_read,norm_mem_write,llc_miss_rate");
    for r in rows {
        println!(
            "{},{},{:.3},{:.3},{:.3}",
            r.workload, r.config, r.norm_read, r.norm_write, r.miss_rate
        );
    }
    println!("# paper: DDIO and adaptive partitioning both cut memory traffic vs");
    println!("#        No-DDIO; adaptive stays within ~2% of DDIO");
}

fn fig16(scale: Scale, seed: u64) {
    println!("Figure 16 — HTTP tail latency under each defense (140k req/s)");
    let rows = exp::fig16(scale, seed);
    println!("defense,p25_ms,p50_ms,p90_ms,p99_ms,p999_ms,p9999_ms");
    let mut current: Option<(&str, Vec<f64>)> = None;
    let mut p99: Vec<(String, f64)> = Vec::new();
    for r in &rows {
        match current.as_mut() {
            Some((name, vals)) if *name == r.defense => vals.push(r.latency_ms),
            _ => {
                if let Some((name, vals)) = current.take() {
                    print_fig16_row(name, &vals);
                }
                current = Some((r.defense, vec![r.latency_ms]));
            }
        }
        if (r.percentile - 99.0).abs() < 1e-9 {
            p99.push((r.defense.to_owned(), r.latency_ms));
        }
    }
    if let Some((name, vals)) = current.take() {
        print_fig16_row(name, &vals);
    }
    if let Some(base) = p99.iter().find(|(n, _)| n.starts_with("Vulnerable")) {
        for (name, v) in &p99 {
            println!(
                "# p99 vs baseline: {name}: {:+.1}%",
                (v / base.1 - 1.0) * 100.0
            );
        }
        println!("# paper: adaptive +3.1% p99; fully randomized +41.8% p99");
    }
}

fn print_fig16_row(name: &str, vals: &[f64]) {
    let cols: Vec<String> = vals.iter().map(|v| format!("{v:.2}")).collect();
    println!("{name},{}", cols.join(","));
}
