//! `psibench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints `# <key> <json>` lines about the host and the run, then one JSON
//! result line. Exits 1 when the correctness gate failed, 2 on bad usage or
//! a run that could not be made.

use psibench::{run, Params};
use std::process::ExitCode;

fn parse() -> Result<(String, Params), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, Params::full(seed, seconds, trace)))
}

fn main() -> ExitCode {
    let (workload, params) = match parse() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("psibench: {e}");
            eprintln!("usage: psibench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&workload, &params) {
        Ok(report) => {
            for (key, value) in &report.info {
                println!("# {key} {value}");
            }
            println!("{}", report.result_line());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "psibench: {} of {} operations failed",
                    report.failed, report.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("psibench: {e}");
            ExitCode::from(2)
        }
    }
}
