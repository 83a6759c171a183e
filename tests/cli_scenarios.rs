//! End-to-end golden-file suite for the `psi-scenario` harness.
//!
//! Every scenario in `scenarios/*.psi` is executed in-process and its
//! deterministic report (per-probe result checksums, final index state) is
//! compared byte-for-byte against the committed golden file in
//! `tests/golden/`. The same run is then repeated pinned to a single worker
//! thread and must produce bit-identical golden text — and CI re-runs this
//! whole suite under `RAYON_NUM_THREADS=1`, covering the env-var path too.
//!
//! To (re)pin a scenario after an intentional change:
//! `cargo run -p psi-cli --bin psi-scenario -- golden scenarios/<name>.psi > tests/golden/<name>.golden`

use psi_cli::{compare, exec, report, scenario};
use std::path::PathBuf;

fn repo_dir(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(sub)
}

fn scenario_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(repo_dir("scenarios"))
        .expect("scenarios/ directory must exist")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "psi"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 8,
        "the checked-in scenario library must not shrink (found {})",
        files.len()
    );
    files
}

/// Every scenario matches its committed golden file, with identical bytes
/// whether the worker pool has the default width or exactly one thread.
#[test]
fn golden_files_match_across_thread_counts() {
    for file in scenario_files() {
        let stem = file.file_stem().unwrap().to_string_lossy().to_string();
        let sc = scenario::parse_file(&file).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            sc.name,
            stem,
            "{}: scenario name must match the file stem",
            file.display()
        );

        let golden_path = repo_dir("tests/golden").join(format!("{stem}.golden"));
        let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "{}: missing golden file {} ({e}); regenerate with \
                 `psi-scenario golden {}`",
                stem,
                golden_path.display(),
                file.display()
            )
        });

        let run_default = exec::run(&sc, None).unwrap_or_else(|e| panic!("{stem}: {e}"));
        let got = report::golden_string(&run_default);
        assert_eq!(
            got,
            want,
            "{stem}: run disagrees with committed golden file {}",
            golden_path.display()
        );

        let run_single = exec::run(&sc, Some(1)).unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert_eq!(
            report::golden_string(&run_single),
            got,
            "{stem}: single-thread run must be bit-identical to the default pool"
        );
    }
}

/// No orphaned golden files: each one corresponds to a checked-in scenario.
#[test]
fn golden_files_correspond_to_scenarios() {
    let scenario_stems: Vec<String> = scenario_files()
        .iter()
        .map(|p| p.file_stem().unwrap().to_string_lossy().to_string())
        .collect();
    for entry in std::fs::read_dir(repo_dir("tests/golden")).expect("tests/golden must exist") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|x| x == "golden") {
            let stem = path.file_stem().unwrap().to_string_lossy().to_string();
            assert!(
                scenario_stems.contains(&stem),
                "golden file {} has no scenario; delete it or add scenarios/{stem}.psi",
                path.display()
            );
        }
    }
}

/// The scenario library must keep covering the matrix the harness exists
/// for: both coordinate types, both dimensionalities, and deletion churn.
#[test]
fn scenario_library_spans_the_matrix() {
    let scenarios: Vec<scenario::Scenario> = scenario_files()
        .iter()
        .map(|f| scenario::parse_file(f).unwrap())
        .collect();
    assert!(scenarios
        .iter()
        .any(|s| s.coords == scenario::CoordKind::I64));
    assert!(scenarios
        .iter()
        .any(|s| s.coords == scenario::CoordKind::F64));
    assert!(scenarios.iter().any(|s| s.dims == 2));
    assert!(scenarios.iter().any(|s| s.dims == 3));
    assert!(scenarios.iter().any(|s| s
        .schedule
        .iter()
        .any(|st| matches!(st, scenario::Step::Delete(_)))));
    // At least one scenario interleaves inserts and deletes (churn).
    assert!(scenarios.iter().any(|s| {
        s.schedule
            .iter()
            .any(|st| matches!(st, scenario::Step::Insert(_)))
            && s.schedule
                .iter()
                .any(|st| matches!(st, scenario::Step::Delete(_)))
    }));
}

/// Differential replay of a churn scenario: every index family must agree
/// with the brute-force oracle *exactly* — every kNN distance list, every
/// range count, every (sorted) range list, at every probe, plus the final
/// index contents.
#[test]
fn churn_scenario_agrees_with_oracle_for_every_family() {
    let sc = scenario::parse_file(&repo_dir("scenarios/churn-sweepline-2d.psi")).unwrap();
    for family in psi::registry::names() {
        let report = exec::run_differential(&sc, family)
            .unwrap_or_else(|e| panic!("oracle differential failed: {e}"));
        assert_eq!(report.probes, 3, "{family}: all probes must be compared");
        assert!(
            report.answers > 0,
            "{family}: the differential must compare real answers"
        );
    }
}

/// The float families replay the float churn scenario against the oracle.
#[test]
fn float_scenario_agrees_with_oracle() {
    let sc = scenario::parse_file(&repo_dir("scenarios/float-churn-2d.psi")).unwrap();
    for family in psi::registry::float_names() {
        exec::run_differential(&sc, family).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// The checked-in perf-gate baseline stays honest: a fresh run of the gate
/// scenario must agree with `tests/baselines/perf-gate-2d.json` on every
/// checksum. This test pins *answers* only (effectively infinite timing
/// tolerance); CI applies the real timing tolerance on top with
/// `psi-scenario compare --tolerance`.
#[test]
fn perf_gate_baseline_matches_current_answers() {
    let baseline_path = repo_dir("tests/baselines/perf-gate-2d.json");
    let baseline_text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        panic!(
            "missing baseline {} ({e}); regenerate with `psi-scenario run \
             scenarios/perf-gate-2d.psi --out tests/baselines/perf-gate-2d.json`",
            baseline_path.display()
        )
    });
    let baseline = compare::Json::parse(&baseline_text).unwrap_or_else(|e| panic!("{e}"));
    let sc = scenario::parse_file(&repo_dir("scenarios/perf-gate-2d.psi")).unwrap();
    let run = exec::run(&sc, None).unwrap_or_else(|e| panic!("{e}"));
    let fresh = compare::Json::parse(&report::json_string(&run)).unwrap();
    let cmp = compare::compare_reports(&baseline, &fresh, f64::INFINITY, compare::NOISE_FLOOR_SECS)
        .unwrap_or_else(|e| panic!("baseline is not comparable: {e}"));
    assert!(
        cmp.mismatches.is_empty(),
        "perf-gate baseline answers diverged; re-pin the baseline:\n{}",
        cmp.mismatches.join("\n")
    );
}
