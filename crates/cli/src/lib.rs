//! **psi-cli** — the scenario-driven CLI harness for Ψ-Lib-rs.
//!
//! The paper's evaluation protocol (incremental batch builds and teardowns
//! with mid-stream query probes, §5.1) lives in `psi::driver`; this crate
//! makes it drivable without writing Rust: a declarative scenario file names
//! a distribution, dimensionality, coordinate type, a set of index families
//! and a batch insert/delete/probe schedule, and the executor replays it
//! against every family through `psi::registry`, producing
//!
//! * deterministic per-probe **result checksums** (the golden-file contract
//!   `tests/cli_scenarios.rs` pins down — identical across index families,
//!   thread counts and machines), and
//! * wall-clock **timings** (JSON report, `psi-scenario run --out`), which
//!   `psi-scenario compare` diffs across runs with a regression tolerance
//!   ([`compare`]).
//!
//! Scenarios may also declare a **concurrent serving phase** (`[serve]`
//! section): a closed-loop client/writer mix replayed through the
//! `psi-server` subsystem after the schedule, reporting throughput and
//! latency percentiles ([`serve`]); timing-only, never part of golden text.
//!
//! The `psi-scenario` binary is the command-line entry point; the library
//! exposes the same pieces ([`scenario::parse`], [`exec::run`],
//! [`exec::run_differential`], [`report::golden_string`]) so integration
//! tests run scenarios in-process.

pub mod compare;
pub mod datafile;
pub mod exec;
pub mod netd;
pub mod report;
pub mod scenario;
pub mod serve;
pub mod statsd;

pub use compare::{compare_reports, Comparison, Json};
pub use exec::{run, run_differential, DiffReport, FamilyRun, ProbeOutcome, ScenarioRun};
pub use report::{golden_string, json_string};
pub use scenario::{
    parse, parse_file, Amount, CoordKind, FamilySpec, ParseError, QuerySpec, Scenario, ServeSpec,
    Step,
};
pub use serve::{run_serve, ServeReport};
