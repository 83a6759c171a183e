//! `psi-scenario` — run declarative Ψ-Lib workload scenarios from the
//! command line.
//!
//! ```text
//! psi-scenario run <scenario.psi>... [--threads N] [--out report.json]
//!                                    [--check golden.txt] [--quiet]
//! psi-scenario compare <a.json> <b.json> [--tolerance <pct>] [--noise-floor <secs>]
//! psi-scenario golden <scenario.psi> [--threads N]
//! psi-scenario print <scenario.psi>
//! psi-scenario list [dir]
//! ```
//!
//! * `run` executes scenarios and prints a per-family summary table;
//!   `--out` writes the full JSON report (single scenario), `--check`
//!   compares the deterministic golden text against a committed file and
//!   exits non-zero on mismatch (single scenario).
//! * `compare` diffs two `run --out` JSON reports of the same scenario
//!   (possibly from different machines/thread counts): checksum
//!   disagreements and timings in `<b.json>` more than `--tolerance`
//!   percent slower than `<a.json>` (default 20, with a `--noise-floor`
//!   absolute floor, default 1 ms) exit non-zero — the CI
//!   timing-regression gate.
//! * `golden` prints the deterministic golden text to stdout — redirect it
//!   into `tests/golden/<name>.golden` to (re)pin a scenario.
//! * `print` parses a scenario and dumps the resolved configuration.
//! * `list` lists `.psi` files in a directory (default `scenarios/`).

use psi_cli::{compare, exec, report, scenario, serve};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: psi-scenario <command> [args]

commands:
  run <scenario.psi>... [--threads N] [--out report.json] [--check golden.txt] [--quiet]
  compare <a.json> <b.json> [--tolerance <pct>] [--noise-floor <secs>]
  golden <scenario.psi> [--threads N]
  print <scenario.psi>
  list [dir]
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("psi-scenario: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match command.as_str() {
        "run" => cmd_run(rest),
        "compare" => cmd_compare(rest),
        "golden" => cmd_golden(rest),
        "print" => cmd_print(rest),
        "list" => cmd_list(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => fail(&format!("unknown command {other:?}\n{USAGE}")),
    }
}

struct RunFlags {
    files: Vec<PathBuf>,
    threads: Option<usize>,
    out: Option<PathBuf>,
    check: Option<PathBuf>,
    quiet: bool,
}

fn parse_run_flags(args: &[String]) -> Result<RunFlags, String> {
    let mut flags = RunFlags {
        files: Vec::new(),
        threads: None,
        out: None,
        check: None,
        quiet: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" | "--out" | "--check" => {
                let flag = args[i].clone();
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{flag} needs a value"))?;
                match flag.as_str() {
                    "--threads" => {
                        flags.threads =
                            Some(value.parse().map_err(|_| {
                                format!("--threads expects an integer, got {value:?}")
                            })?)
                    }
                    "--out" => flags.out = Some(PathBuf::from(value)),
                    _ => flags.check = Some(PathBuf::from(value)),
                }
                i += 2;
            }
            "--quiet" => {
                flags.quiet = true;
                i += 1;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            file => {
                flags.files.push(PathBuf::from(file));
                i += 1;
            }
        }
    }
    if flags.files.is_empty() {
        return Err("no scenario files given".to_string());
    }
    if flags.files.len() > 1 && (flags.out.is_some() || flags.check.is_some()) {
        return Err("--out/--check work with exactly one scenario".to_string());
    }
    Ok(flags)
}

fn summarise(run: &exec::ScenarioRun) {
    println!(
        "scenario {} [{} {}d {} n={} seed={}] threads={}",
        run.name, run.distribution, run.dims, run.coords, run.n, run.seed, run.threads
    );
    println!(
        "  {:<12} {:>7} {:>12} {:>10}  probes(live -> checksum)",
        "family", "final", "update_secs", "probe_secs"
    );
    for fam in &run.families {
        let probe_secs: f64 = fam.probe_secs.iter().sum();
        let probes: Vec<String> = fam
            .probes
            .iter()
            .map(|p| format!("{}:{:08x}", p.live, p.range_list as u32))
            .collect();
        println!(
            "  {:<12} {:>7} {:>12.4} {:>10.4}  {}",
            fam.family,
            fam.final_len,
            fam.update_secs,
            probe_secs,
            probes.join(" ")
        );
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let flags = match parse_run_flags(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    for file in &flags.files {
        let sc = match scenario::parse_file(file) {
            Ok(sc) => sc,
            Err(e) => return fail(&e),
        };
        let run = match exec::run(&sc, flags.threads) {
            Ok(r) => r,
            Err(e) => return fail(&format!("{}: {e}", file.display())),
        };
        if !flags.quiet {
            summarise(&run);
        }
        // Golden comparison first: a deterministic-checksum regression must
        // be reported as such, never masked by (or queued behind) the
        // concurrent, timing-only serve phase.
        if let Some(golden_path) = &flags.check {
            let want = match std::fs::read_to_string(golden_path) {
                Ok(w) => w,
                Err(e) => return fail(&format!("reading {}: {e}", golden_path.display())),
            };
            let got = report::golden_string(&run);
            if got != want {
                eprintln!(
                    "psi-scenario: {} does not match {} — got:\n{got}",
                    file.display(),
                    golden_path.display()
                );
                return ExitCode::FAILURE;
            }
            if !flags.quiet {
                println!("golden match: {}", golden_path.display());
            }
        }
        // The optional concurrent serving phase ([serve] section):
        // timing-only, reported alongside the schedule results.
        let serve_report = if sc.serve.is_some() {
            match serve::run_serve(&sc, flags.threads) {
                Ok(r) => {
                    if !flags.quiet {
                        println!(
                            "  serve {:<12} shards={} transport={} clients={} ops={} batches={} \
                             {:>9.0} q/s p50={:.3}ms p99={:.3}ms coalesce={:.1}x",
                            r.family,
                            r.shards,
                            r.transport,
                            r.clients,
                            r.ops,
                            r.batches,
                            r.throughput_qps,
                            r.p50_ms,
                            r.p99_ms,
                            r.coalesce_factor
                        );
                    }
                    Some(r)
                }
                Err(e) => return fail(&format!("{}: serve phase: {e}", file.display())),
            }
        } else {
            None
        };
        if let Some(out) = &flags.out {
            let json = report::json_string_with_serve(&run, serve_report.as_ref());
            if let Err(e) = std::fs::write(out, json) {
                return fail(&format!("writing {}: {e}", out.display()));
            }
            if !flags.quiet {
                println!("wrote {}", out.display());
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut tolerance = compare::DEFAULT_TOLERANCE_PCT;
    let mut noise_floor = compare::NOISE_FLOOR_SECS;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance" => {
                let Some(value) = args.get(i + 1) else {
                    return fail("--tolerance needs a value (percent)");
                };
                match value.parse::<f64>() {
                    Ok(t) if t >= 0.0 => tolerance = t,
                    _ => {
                        return fail(&format!(
                            "--tolerance expects a non-negative percentage, got {value:?}"
                        ))
                    }
                }
                i += 2;
            }
            "--noise-floor" => {
                let Some(value) = args.get(i + 1) else {
                    return fail("--noise-floor needs a value (seconds)");
                };
                match value.parse::<f64>() {
                    Ok(f) if f >= 0.0 => noise_floor = f,
                    _ => {
                        return fail(&format!(
                            "--noise-floor expects a non-negative number of seconds, got {value:?}"
                        ))
                    }
                }
                i += 2;
            }
            flag if flag.starts_with("--") => return fail(&format!("unknown flag {flag:?}")),
            path => {
                files.push(PathBuf::from(path));
                i += 1;
            }
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return fail("compare takes exactly two report files (from `run --out`)");
    };
    let load = |path: &Path| -> Result<compare::Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        compare::Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    let cmp = match compare::compare_reports(&a, &b, tolerance, noise_floor) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    println!(
        "comparing {} -> {} (tolerance {tolerance}%)",
        a_path.display(),
        b_path.display()
    );
    for line in &cmp.lines {
        println!("  {line}");
    }
    for m in &cmp.mismatches {
        eprintln!("psi-scenario: CHECKSUM MISMATCH: {m}");
    }
    for r in &cmp.regressions {
        eprintln!("psi-scenario: TIMING REGRESSION: {r}");
    }
    if cmp.passed() {
        println!("ok: no checksum mismatches, no timing regressions beyond {tolerance}%");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_golden(args: &[String]) -> ExitCode {
    // Deliberately stricter than `run`: one file, stdout only, so the
    // regeneration workflow (`golden x.psi > tests/golden/x.golden`) can't
    // silently swallow a mistyped `--out` or concatenate several scenarios.
    let mut file: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                let Some(value) = args.get(i + 1) else {
                    return fail("--threads needs a value");
                };
                match value.parse() {
                    Ok(t) => threads = Some(t),
                    Err(_) => return fail(&format!("--threads expects an integer, got {value:?}")),
                }
                i += 2;
            }
            flag if flag.starts_with("--") => {
                return fail(&format!(
                    "golden takes no {flag:?} (it always prints to stdout)"
                ))
            }
            path => {
                if file.replace(PathBuf::from(path)).is_some() {
                    return fail("golden takes exactly one scenario file");
                }
                i += 1;
            }
        }
    }
    let Some(file) = file else {
        return fail("golden takes exactly one scenario file");
    };
    let sc = match scenario::parse_file(&file) {
        Ok(sc) => sc,
        Err(e) => return fail(&e),
    };
    match exec::run(&sc, threads) {
        Ok(run) => {
            print!("{}", report::golden_string(&run));
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("{}: {e}", file.display())),
    }
}

fn cmd_print(args: &[String]) -> ExitCode {
    let [file] = args else {
        return fail("print takes exactly one scenario file");
    };
    match scenario::parse_file(Path::new(file)) {
        Ok(sc) => {
            println!("{sc:#?}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

fn cmd_list(args: &[String]) -> ExitCode {
    let dir = args.first().map_or("scenarios", String::as_str);
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => return fail(&format!("{dir}: {e}")),
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "psi"))
        .collect();
    files.sort();
    for f in &files {
        match scenario::parse_file(f) {
            Ok(sc) => println!(
                "{:<32} {} {}d {} n={} families={} steps={}",
                f.display(),
                sc.distribution.name(),
                sc.dims,
                sc.coords.name(),
                sc.n,
                sc.families.len(),
                sc.schedule.len()
            ),
            Err(e) => println!("{:<32} INVALID: {e}", f.display()),
        }
    }
    ExitCode::SUCCESS
}
