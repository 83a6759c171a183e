//! `psi-netd` — serve the ψ-net wire protocol over a synthetic dataset.
//!
//! Prints one `listening on HOST:PORT ...` line to stdout (so a driver can
//! scrape the ephemeral port), then runs until stdin reaches EOF. Scripts
//! hold the daemon up exactly as long as they hold the pipe open:
//!
//! ```text
//! mkfifo ctl && psi-netd --family spac-h < ctl &
//! ...
//! exec 3>ctl   # keep open while benchmarking, close fd 3 to stop
//! ```

use psi_cli::netd;
use std::io::{Read, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match netd::parse_args(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let running = match netd::boot(&cfg) {
        Ok(running) => running,
        Err(msg) => {
            eprintln!("psi-netd: {msg}");
            std::process::exit(1);
        }
    };
    println!("{}", running.banner());
    let _ = std::io::stdout().flush();
    // Block until the controlling pipe closes, then shut down in order
    // (socket front-end first, server second).
    let mut sink = [0u8; 4096];
    let mut stdin = std::io::stdin().lock();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    running.shutdown();
}
