//! `psi-bench`: every benchmark of the harness as one subcommand.
//!
//! ```text
//! psi-bench parallel | serve | net | leaf | figures --fig N   [--flag value ...]
//! ```
//!
//! A flag the subcommand does not know, a flag with no value and a value that
//! does not parse each stop the run with its usage line and exit status 2.

use psi_bench::{figures, leaf, net, parallel, serve};

type Main = fn(&[String]) -> Result<(), String>;

const COMMANDS: &[(&str, &str, Main)] = &[
    ("parallel", parallel::USAGE, parallel::main),
    ("serve", serve::USAGE, serve::main),
    ("net", net::USAGE, net::main),
    ("leaf", leaf::USAGE, leaf::main),
    ("figures", figures::USAGE, figures::main),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map_or("", String::as_str);
    let Some((_, usage, run)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        eprintln!("error: unknown subcommand {command:?}; usage:");
        for (_, usage, _) in COMMANDS {
            eprintln!("  {usage}");
        }
        std::process::exit(2);
    };
    if let Err(e) = run(&args[1..]) {
        eprintln!("error: {e}\nusage: {usage}");
        std::process::exit(2);
    }
}
