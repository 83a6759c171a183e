//! Timing-regression comparison of two `psi-scenario run --out` JSON
//! reports (`psi-scenario compare a.json b.json [--tolerance <pct>]`).
//!
//! The two reports must describe the **same scenario** (name, distribution,
//! coordinate type, dimensionality, `n`, seed); thread counts may differ —
//! comparing a 1-thread report against an 8-thread report of the same
//! scenario is exactly the regression-sweep use case. The comparison then
//! checks two things, in order of severity:
//!
//! 1. **Checksums** (`final_state`, `final_len`, every probe's `live` /
//!    `knn_ind` / `knn_ood` / `range_count` / `range_list`) must match
//!    byte-for-byte: a difference means the two runs computed different
//!    *answers*, which is a correctness bug, not a slowdown.
//! 2. **Timings** (`update_secs` and the summed per-probe `secs`, per
//!    family): the second report regresses a metric when it is more than
//!    `tolerance` percent slower than the first **and** the absolute delta
//!    exceeds the noise floor (`--noise-floor` seconds, default
//!    [`NOISE_FLOOR_SECS`] — trivial scenarios finish in microseconds,
//!    where relative noise is meaningless).
//!
//! Reports are read with [`Json::parse`] (`psi_obs::json`), which accepts
//! the general JSON grammar, not just the shape `report::json_string`
//! emits, and keeps integers such as `seed` exact.

pub use psi_obs::Json;
use std::fmt::Write as _;

/// Default absolute slowdown below which a relative regression is ignored as
/// noise (`--noise-floor` overrides it per invocation).
pub const NOISE_FLOOR_SECS: f64 = 0.001;

/// Default `--tolerance` (percent) when the flag is omitted.
pub const DEFAULT_TOLERANCE_PCT: f64 = 20.0;

/// The outcome of comparing two timing reports: a printable account plus
/// the regression/mismatch tallies that decide the exit code.
pub struct Comparison {
    /// Human-readable per-metric lines (one per timing comparison).
    pub lines: Vec<String>,
    /// Timing regressions beyond tolerance ("family metric: a → b (+x%)").
    pub regressions: Vec<String>,
    /// Checksum/config disagreements (correctness, not speed).
    pub mismatches: Vec<String>,
}

impl Comparison {
    /// `true` when the second report is acceptable: same answers, no timing
    /// regression beyond tolerance.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.mismatches.is_empty()
    }
}

/// Scenario-config fields that must agree for a comparison to be
/// meaningful. `threads` is deliberately absent.
const CONFIG_KEYS: [&str; 6] = ["scenario", "distribution", "coords", "dims", "n", "seed"];

/// Probe fields that are deterministic checksums (any difference is a
/// correctness mismatch).
const PROBE_CHECKSUM_KEYS: [&str; 5] = ["live", "knn_ind", "knn_ood", "range_count", "range_list"];

fn render(v: Option<&Json>) -> String {
    v.map_or("<missing>".to_string(), Json::to_string)
}

/// Compare two parsed reports. `Err` means the inputs are not comparable at
/// all (different scenario config or malformed shape); `Ok` carries the
/// per-metric verdicts.
pub fn compare_reports(
    a: &Json,
    b: &Json,
    tolerance_pct: f64,
    noise_floor_secs: f64,
) -> Result<Comparison, String> {
    for key in CONFIG_KEYS {
        let (va, vb) = (a.get(key), b.get(key));
        if va != vb {
            return Err(format!(
                "reports describe different runs: {key} is {} vs {}",
                render(va),
                render(vb)
            ));
        }
    }
    let fams_a = a
        .get("families")
        .and_then(Json::as_array)
        .ok_or("first report has no families array")?;
    let fams_b = b
        .get("families")
        .and_then(Json::as_array)
        .ok_or("second report has no families array")?;

    let mut cmp = Comparison {
        lines: Vec::new(),
        regressions: Vec::new(),
        mismatches: Vec::new(),
    };

    let family_name = |f: &Json| {
        f.get("family")
            .and_then(Json::as_str)
            .unwrap_or("<unnamed>")
            .to_string()
    };
    for fb in fams_b {
        let name = family_name(fb);
        if !fams_a.iter().any(|fa| family_name(fa) == name) {
            cmp.mismatches
                .push(format!("family {name}: present only in the second report"));
        }
    }
    for fa in fams_a {
        let name = family_name(fa);
        let Some(fb) = fams_b.iter().find(|fb| family_name(fb) == name) else {
            cmp.mismatches
                .push(format!("family {name}: missing from the second report"));
            continue;
        };

        // Correctness: final state and every probe checksum.
        for key in ["final_len", "final_state"] {
            if fa.get(key) != fb.get(key) {
                cmp.mismatches.push(format!(
                    "family {name}: {key} differs ({} vs {})",
                    render(fa.get(key)),
                    render(fb.get(key))
                ));
            }
        }
        let probes_a = fa.get("probes").and_then(Json::as_array).unwrap_or(&[]);
        let probes_b = fb.get("probes").and_then(Json::as_array).unwrap_or(&[]);
        if probes_a.len() != probes_b.len() {
            cmp.mismatches.push(format!(
                "family {name}: probe count differs ({} vs {})",
                probes_a.len(),
                probes_b.len()
            ));
        }
        for (i, (pa, pb)) in probes_a.iter().zip(probes_b).enumerate() {
            for key in PROBE_CHECKSUM_KEYS {
                if pa.get(key) != pb.get(key) {
                    cmp.mismatches.push(format!(
                        "family {name} probe {i}: {key} differs ({} vs {})",
                        render(pa.get(key)),
                        render(pb.get(key))
                    ));
                }
            }
        }

        // Timing: update_secs and the summed probe secs.
        let sum_probe_secs = |probes: &[Json]| {
            probes
                .iter()
                .filter_map(|p| p.get("secs").and_then(Json::as_f64))
                .sum::<f64>()
        };
        let metrics = [
            (
                "update_secs",
                fa.get("update_secs").and_then(Json::as_f64),
                fb.get("update_secs").and_then(Json::as_f64),
            ),
            (
                "probe_secs",
                Some(sum_probe_secs(probes_a)),
                Some(sum_probe_secs(probes_b)),
            ),
        ];
        for (metric, ta, tb) in metrics {
            let (Some(ta), Some(tb)) = (ta, tb) else {
                cmp.mismatches
                    .push(format!("family {name}: {metric} missing from a report"));
                continue;
            };
            // A zero baseline (reports written with six decimals, such as
            // the checked-in baseline, round sub-microsecond phases to
            // 0.000000) makes the relative delta meaningless; treat any
            // above-floor slowdown from zero as an unconditional regression
            // rather than silently passing it.
            let delta_pct = if ta > 0.0 {
                (tb - ta) / ta * 100.0
            } else if tb > ta {
                f64::INFINITY
            } else {
                0.0
            };
            let mut line = format!("{name:<14} {metric:<12} {ta:>10.6}s -> {tb:>10.6}s");
            let _ = write!(line, "  ({delta_pct:+7.1}%)");
            let regressed = delta_pct > tolerance_pct && tb - ta > noise_floor_secs;
            if regressed {
                line.push_str("  REGRESSION");
                cmp.regressions.push(format!(
                    "family {name}: {metric} {ta:.6}s -> {tb:.6}s ({delta_pct:+.1}%, tolerance {tolerance_pct}%)"
                ));
            }
            cmp.lines.push(line);
        }
    }
    Ok(cmp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exec, report, scenario};

    fn tiny_report() -> String {
        let sc = scenario::parse(
            "[scenario]\nname = cmp\n[data]\ndistribution = uniform\nn = 300\n\
             max-coord = 10000\n[indexes]\nfamilies = pkd, zd\n[queries]\nk = 3\n\
             knn-ind = 5\nknn-ood = 5\nranges = 3\nrange-target = 10\n",
        )
        .unwrap();
        let run = exec::run(&sc, None).unwrap();
        report::json_string(&run)
    }

    #[test]
    fn identical_reports_compare_clean() {
        let text = tiny_report();
        let a = Json::parse(&text).unwrap();
        let cmp = compare_reports(&a, &a, 10.0, NOISE_FLOOR_SECS).unwrap();
        assert!(
            cmp.passed(),
            "self-comparison flagged: {:?}",
            cmp.regressions
        );
        // Two metrics (update + probes) per family, two families.
        assert_eq!(cmp.lines.len(), 4);
    }

    #[test]
    fn real_reruns_compare_within_generous_tolerance() {
        let a = Json::parse(&tiny_report()).unwrap();
        let b = Json::parse(&tiny_report()).unwrap();
        // Deterministic checksums must always agree between reruns. Their
        // timings are not asserted: on a loaded host one rerun's wall clock
        // can pass the noise floor and double the other's. The timing rule
        // is tested on constructed reports below.
        let cmp = compare_reports(&a, &b, 1.0, NOISE_FLOOR_SECS).unwrap();
        assert!(cmp.mismatches.is_empty(), "{:?}", cmp.mismatches);
    }

    #[test]
    fn slowdown_beyond_tolerance_regresses() {
        let text = tiny_report();
        let a = Json::parse(&text).unwrap();
        let mut b = a.clone();
        // Inflate every update_secs in the second report well past both the
        // relative tolerance and the absolute noise floor.
        fn inflate(v: &mut Json) {
            match v {
                Json::Obj(fields) => {
                    for (k, v) in fields {
                        if k == "update_secs" {
                            *v = Json::Num(v.as_f64().unwrap_or(0.0) + 1.0);
                        } else {
                            inflate(v);
                        }
                    }
                }
                Json::Arr(items) => items.iter_mut().for_each(inflate),
                _ => {}
            }
        }
        inflate(&mut b);
        let cmp = compare_reports(&a, &b, 20.0, NOISE_FLOOR_SECS).unwrap();
        assert_eq!(cmp.regressions.len(), 2, "{:?}", cmp.regressions);
        assert!(!cmp.passed());
        // The reverse direction is an improvement, not a regression.
        let cmp = compare_reports(&b, &a, 20.0, NOISE_FLOOR_SECS).unwrap();
        assert!(cmp.passed());
    }

    #[test]
    fn noise_floor_gates_absolute_deltas() {
        let text = tiny_report();
        let a = Json::parse(&text).unwrap();
        let mut b = a.clone();
        // +10 ms on every update: a huge relative slowdown on a
        // microsecond-scale scenario, but below a raised floor.
        fn inflate(v: &mut Json) {
            match v {
                Json::Obj(fields) => {
                    for (k, v) in fields {
                        if k == "update_secs" {
                            *v = Json::Num(v.as_f64().unwrap_or(0.0) + 0.010);
                        } else {
                            inflate(v);
                        }
                    }
                }
                Json::Arr(items) => items.iter_mut().for_each(inflate),
                _ => {}
            }
        }
        inflate(&mut b);
        // Default 1 ms floor: the 10 ms delta regresses.
        let cmp = compare_reports(&a, &b, 20.0, NOISE_FLOOR_SECS).unwrap();
        assert_eq!(cmp.regressions.len(), 2, "{:?}", cmp.regressions);
        // A 1 s floor (noisy shared-CI box) swallows it.
        let cmp = compare_reports(&a, &b, 20.0, 1.0).unwrap();
        assert!(cmp.passed(), "{:?}", cmp.regressions);
        // A zero floor makes the relative tolerance the only gate.
        let cmp = compare_reports(&a, &b, 20.0, 0.0).unwrap();
        assert_eq!(cmp.regressions.len(), 2, "{:?}", cmp.regressions);
    }

    #[test]
    fn zero_baseline_still_flags_real_slowdowns() {
        let text = tiny_report();
        let a = Json::parse(&text).unwrap();
        let (mut za, mut zb) = (a.clone(), a.clone());
        // Baseline metric rounds to exactly zero; the rerun is seconds slow.
        fn set_update_secs(v: &mut Json, secs: f64) {
            match v {
                Json::Obj(fields) => {
                    for (k, v) in fields {
                        if k == "update_secs" {
                            *v = Json::Num(secs);
                        } else {
                            set_update_secs(v, secs);
                        }
                    }
                }
                Json::Arr(items) => items.iter_mut().for_each(|i| set_update_secs(i, secs)),
                _ => {}
            }
        }
        set_update_secs(&mut za, 0.0);
        set_update_secs(&mut zb, 5.0);
        let cmp = compare_reports(&za, &zb, 1_000_000.0, NOISE_FLOOR_SECS).unwrap();
        assert_eq!(cmp.regressions.len(), 2, "{:?}", cmp.regressions);
        // Zero to zero is not a regression.
        let cmp = compare_reports(&za, &za, 20.0, NOISE_FLOOR_SECS).unwrap();
        assert!(cmp.passed());
    }

    #[test]
    fn checksum_differences_are_mismatches() {
        let text = tiny_report();
        let a = Json::parse(&text).unwrap();
        let tampered = text.replacen("\"final_len\": 300", "\"final_len\": 299", 1);
        assert_ne!(tampered, text, "tamper target not found in report");
        let b = Json::parse(&tampered).unwrap();
        let cmp = compare_reports(&a, &b, 1_000.0, NOISE_FLOOR_SECS).unwrap();
        assert!(!cmp.mismatches.is_empty());
        assert!(!cmp.passed());
    }

    #[test]
    fn different_scenarios_refuse_to_compare() {
        let text = tiny_report();
        let a = Json::parse(&text).unwrap();
        let other = text.replacen("\"scenario\": \"cmp\"", "\"scenario\": \"other\"", 1);
        let b = Json::parse(&other).unwrap();
        assert!(compare_reports(&a, &b, 10.0, NOISE_FLOOR_SECS).is_err());
    }

    #[test]
    fn seeds_past_two_to_the_53_stay_distinct() {
        // Both seeds round to the same f64; they must still refuse to
        // compare as the same run.
        let text = tiny_report();
        let key = r#""seed": "#;
        let seed = Json::parse(&text).unwrap().get("seed").unwrap().to_string();
        let with_seed = |s: &str| {
            let edited = text.replacen(&format!("{key}{seed}"), &format!("{key}{s}"), 1);
            assert_ne!(edited, text, "seed not found in report");
            Json::parse(&edited).unwrap()
        };
        let (a, b) = (with_seed("9007199254740992"), with_seed("9007199254740993"));
        let err = compare_reports(&a, &b, 10.0, NOISE_FLOOR_SECS)
            .err()
            .unwrap();
        assert!(err.contains("seed"), "{err}");
    }
}
