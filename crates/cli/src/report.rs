//! Report writers for a [`ScenarioRun`].
//!
//! Two formats:
//!
//! * [`golden_string`] — the deterministic subset (checksums, sizes, config)
//!   that the golden-file test suite commits and compares byte-for-byte. No
//!   timings, no thread counts: the text must be bit-identical across
//!   machines and `RAYON_NUM_THREADS` settings.
//! * [`json_string`] — the full report including wall-clock timings, for
//!   benchmarking sweeps and dashboards (`psi-scenario run --out`).
//!
//! The JSON report goes through `psi_obs::json`'s one writer: a container
//! of scalars on one line, any other container one child per line indented
//! two spaces, `": "` after each key; integers exact, other numbers in
//! Rust's shortest round-trip form (`.0` on whole ones), NaN and ±inf as
//! `null`.

use crate::exec::{FamilyRun, ScenarioRun};
use crate::serve::ServeReport;
use psi_obs::Json;

/// The deterministic golden-file text for a run.
pub fn golden_string(run: &ScenarioRun) -> String {
    let mut out = String::new();
    out.push_str(&format!("scenario {}\n", run.name));
    out.push_str(&format!(
        "config dist={} coords={} dims={} n={} seed={}\n",
        run.distribution, run.coords, run.dims, run.n, run.seed
    ));
    for fam in &run.families {
        out.push_str(&format!("family {}\n", fam.family));
        for (i, p) in fam.probes.iter().enumerate() {
            out.push_str(&format!(
                "probe {i} live={} knn_ind={:016x} knn_ood={:016x} range_count={:016x} range_list={:016x}\n",
                p.live, p.knn_ind, p.knn_ood, p.range_count, p.range_list
            ));
        }
        out.push_str(&format!(
            "final len={} state={:016x}\n",
            fam.final_len, fam.final_state
        ));
    }
    out
}

/// A checksum as the report's 16-digit hex string.
fn hex(x: u64) -> Json {
    format!("{x:016x}").into()
}

fn json_family(fam: &FamilyRun) -> Json {
    let probes = fam.probes.iter().zip(&fam.probe_secs).map(|(p, &secs)| {
        Json::obj([
            ("live", p.live.into()),
            ("knn_ind", hex(p.knn_ind)),
            ("knn_ood", hex(p.knn_ood)),
            ("range_count", hex(p.range_count)),
            ("range_list", hex(p.range_list)),
            ("secs", secs.into()),
        ])
    });
    Json::obj([
        ("family", fam.family.as_str().into()),
        ("update_secs", fam.update_secs.into()),
        ("final_len", fam.final_len.into()),
        ("final_state", hex(fam.final_state)),
        ("probes", Json::Arr(probes.collect())),
    ])
}

/// The full JSON report (checksums *and* timings) for a run.
pub fn json_string(run: &ScenarioRun) -> String {
    json_string_with_serve(run, None)
}

/// As [`json_string`], with the serving-phase measurements appended when the
/// scenario declared a `[serve]` section. (`psi-scenario compare` reads only
/// the config and family keys, so the extra block never affects the
/// regression gate.)
pub fn json_string_with_serve(run: &ScenarioRun, serve: Option<&ServeReport>) -> String {
    let mut doc = vec![
        ("scenario", run.name.as_str().into()),
        ("distribution", run.distribution.as_str().into()),
        ("coords", run.coords.as_str().into()),
        ("dims", run.dims.into()),
        ("n", run.n.into()),
        ("seed", run.seed.into()),
        ("threads", run.threads.into()),
        (
            "note",
            "checksums are deterministic; secs are wall clock and vary".into(),
        ),
        (
            "families",
            Json::Arr(run.families.iter().map(json_family).collect()),
        ),
    ];
    if let Some(s) = serve {
        let mut block = vec![
            ("family", s.family.as_str().into()),
            ("shards", s.shards.into()),
            ("transport", s.transport.into()),
            ("clients", s.clients.into()),
            ("ops", s.ops.into()),
            ("batches", s.batches.into()),
            ("elapsed_secs", s.elapsed_secs.into()),
            ("throughput_qps", s.throughput_qps.into()),
            ("p50_ms", s.p50_ms.into()),
            ("p99_ms", s.p99_ms.into()),
            ("coalesce_factor", s.coalesce_factor.into()),
        ];
        if let Some(m) = &s.metrics {
            let series = m.iter().map(|(k, v)| (k.as_str(), Json::from(*v)));
            block.push(("metrics", Json::obj(series)));
        }
        doc.push(("serve", Json::obj(block)));
    }
    format!("{}\n", Json::obj(doc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exec, scenario};

    #[test]
    fn golden_and_json_render() {
        let sc = scenario::parse(
            "[scenario]\nname = render\n[data]\ndistribution = uniform\nn = 200\n\
             max-coord = 10000\n[indexes]\nfamilies = pkd\n[queries]\nk = 3\n\
             knn-ind = 5\nknn-ood = 5\nranges = 3\nrange-target = 10\n",
        )
        .unwrap();
        let run = exec::run(&sc, None).unwrap();
        let golden = golden_string(&run);
        assert!(golden.starts_with("scenario render\n"));
        assert!(golden.contains("family pkd\n"));
        assert!(golden.contains("probe 0 live=200 "));
        assert!(golden.contains("final len=200 "));
        // Golden text never contains timing data.
        assert!(!golden.contains("secs"));
        let json = json_string(&run);
        assert!(json.contains("\"family\": \"pkd\""));
        assert!(json.contains("\"secs\""));
    }
}
