//! Smoke-size self-test of the benchmark itself:
//!
//! * `BENCHMARK.json` declares exactly the metrics the benchmark emits, and
//!   every one is emitted with its unit;
//! * a deliberately corrupted answer trips each phase's correctness gate;
//! * a write the server refuses is a failed operation, and the run ends;
//! * a traced run writes spans whose self times add up to the traced wall
//!   time within `SELF_TIME_ERROR`.
//!
//! Run with `cargo test --release --manifest-path psibench/Cargo.toml`.

use psibench::serve::{run_write, WRITER_QUEUE};
use psibench::{run, Params, END_TO_END, PER_LAYER, PHASES, WORKLOADS};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest relative gap allowed between a thread's summed span self times
/// and the wall time its traced slices cover.
const SELF_TIME_ERROR: f64 = 0.01;

/// Smoke-size parameters with a scratch directory of their own (tests run
/// in parallel).
fn smoke_params(trace: bool, corrupt: Option<&'static str>, write_window: usize) -> Params {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "psibench-selftest-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    Params {
        seed: 7,
        seconds: 3.6,
        trace,
        n: 20_000,
        setup_reps: 1,
        write_window,
        out_dir,
        corrupt,
    }
}

fn smoke(workload: &str, trace: bool, corrupt: Option<&'static str>) -> psibench::report::Report {
    let p = smoke_params(trace, corrupt, 4);
    let report = run(workload, &p).unwrap_or_else(|e| panic!("{workload}: {e}"));
    let _ = std::fs::remove_dir_all(&p.out_dir);
    report
}

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn declares(json: &str, name: &str, unit: &str) -> bool {
    let flat: String = json.split_whitespace().collect::<Vec<_>>().join(" ");
    flat.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
}

/// Metric names of one section (`end_to_end` or `per_layer`) of
/// `BENCHMARK.json`.
fn section_names(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let json = benchmark_json();
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(section_names(&json, "end_to_end"), e2e);
    let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(section_names(&json, "per_layer"), layers);
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let json = benchmark_json();
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{w}\"")),
            "{w} not in BENCHMARK.json"
        );
        for (trace, names) in [(false, END_TO_END), (true, PER_LAYER)] {
            let r = smoke(w, trace, None);
            assert!(
                r.correct,
                "{w} trace={trace}: {} of {} failed",
                r.failed, r.attempted
            );
            let got: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, names.to_vec(), "{w} trace={trace}");
            for m in &r.metrics {
                assert!(m.value.is_finite(), "{w}: {} = {}", m.name, m.value);
                // End-to-end metrics are never 0; the other family's
                // layers read 0.
                assert!(trace || m.value > 0.0, "{w}: {} = {}", m.name, m.value);
                assert!(
                    declares(&json, m.name, m.unit),
                    "{} [{}] not declared",
                    m.name,
                    m.unit
                );
            }
            assert!(r
                .result_line()
                .starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}

#[test]
fn a_corrupted_answer_trips_the_gate() {
    for w in WORKLOADS {
        for phase in PHASES {
            let r = smoke(w, false, Some(phase));
            assert!(!r.correct, "{w}/{phase}: corrupted answer passed the gate");
            assert!(r.failed >= 1, "{w}/{phase}: no failed operation counted");
            assert!(r.result_line().starts_with("{\"correct\": false"));
        }
    }
}

#[test]
fn a_refused_batch_is_a_failed_operation() {
    // More batches in flight than the writer queue holds: the server must
    // refuse some, and the run must end and report them.
    let p = smoke_params(false, None, 16 * WRITER_QUEUE);
    std::fs::create_dir_all(&p.out_dir).expect("scratch directory");
    let r = run_write(&p, WORKLOADS[0]).unwrap_or_else(|e| panic!("serve-write: {e}"));
    let _ = std::fs::remove_dir_all(&p.out_dir);
    let workload = r
        .info
        .iter()
        .find(|(key, _)| key == "workload")
        .map(|(_, value)| value.as_str())
        .expect("a workload line");
    assert!(
        !workload.contains("\"refused\": 0,"),
        "no batch refused: {workload}"
    );
    assert!(r.failed >= 1, "refused batches were not counted as failed");
}

#[test]
fn span_self_times_add_up_to_the_traced_time() {
    for w in WORKLOADS {
        let r = smoke(w, true, None);
        assert!(!r.self_time.is_empty(), "{w}: no traced thread");
        for (thread, self_s, wall_s) in &r.self_time {
            assert!(*wall_s > 0.0, "{w}/{thread}: nothing traced");
            let err = (self_s - wall_s).abs() / wall_s;
            assert!(
                err <= SELF_TIME_ERROR,
                "{w}/{thread}: self times {self_s} s vs traced wall {wall_s} s"
            );
        }
    }
}
