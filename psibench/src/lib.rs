//! psibench — the end-to-end and per-layer benchmark of the psi-lib
//! workspace.
//!
//! The benchmark measures the program from outside: it calls each layer's
//! public functions, times the calls with spans recorded in its own files,
//! and reads the counters and histograms psi-obs already exports. It changes
//! no program code. See `README.md` beside this crate for the workloads, the
//! layer → end-to-end metric map and the thread and connection budget.

pub mod host;
pub mod layers;
pub mod lib_churn;
pub mod obs;
pub mod report;
pub mod rng;
pub mod serve;
pub mod trace;

use obs::TracedWindow;
use report::{Metric, Report};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The workloads, in the order `BENCHMARK.json` lists them: the paper's
/// two contributions. A run takes its workload's family through every
/// phase.
pub const WORKLOADS: &[&str] = &["p-orth", "spac-h"];

/// The phases of every run, in order; each measures a third of the
/// run's seconds.
pub const PHASES: &[&str] = &["lib-churn", "serve-read", "serve-write"];

/// End-to-end metrics, reported by every run with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("build_mpts_s", "Mpts/s"),
    ("update_mpts_s", "Mpts/s"),
    ("knn_kqps", "kq/s"),
    ("range_kqps", "kq/s"),
    ("read_kqps", "kq/s"),
    ("read_p50_ms", "ms"),
    ("write_kpts_s", "kpts/s"),
    ("write_visible_p50_ms", "ms"),
    ("read_beside_write_p50_ms", "ms"),
];

/// Per-layer metrics, reported by every traced run. The family a workload
/// does not run reports 0 for its layers (see [`Measured::idle`]).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parutils.sort_mkeys_s", "Mkeys/s"),
    ("parutils.steals_per_kop", "1/kop"),
    ("parutils.parks_per_kop", "1/kop"),
    ("sfc.hilbert_mkeys_s", "Mkeys/s"),
    ("geometry.leaf_range_count_mpts_s", "Mpts/s"),
    ("geometry.leaf_knn_offer_mpts_s", "Mpts/s"),
    ("porth.delete_s", "s"),
    ("porth.insert_s", "s"),
    ("porth.knn_us_per_q", "us"),
    ("porth.range_us_per_q", "us"),
    ("porth.build_s", "s"),
    ("porth.nodes_visited_per_q", "count"),
    ("spac.delete_s", "s"),
    ("spac.insert_s", "s"),
    ("spac.knn_us_per_q", "us"),
    ("spac.range_us_per_q", "us"),
    ("spac.build_s", "s"),
    ("spac.nodes_visited_per_q", "count"),
    ("spac.nodes_copied_per_pt", "count"),
    ("server.router.pin_ns", "ns"),
    ("server.view.knn_us_per_q", "us"),
    ("server.coalesce.factor", "req/flush"),
    ("server.coalesce.handoff_us", "us"),
    ("server.publish_ms_p50", "ms"),
    ("server.writer_queue_depth", "batches"),
    ("server.wal.append_us_p50", "us"),
    ("server.wal.fsync_us_p50", "us"),
    ("server.wal.bytes_per_user_byte", "B/B"),
    ("server.durability.checkpoint_s", "s"),
    ("server.durability.recover_s", "s"),
    ("net.codec_ns_per_frame", "ns"),
    ("net.server_latency_us_p50", "us"),
    ("net.errors", "count"),
    ("proc.cpu_us_per_op", "us"),
    ("proc.ctx_switches_per_kop", "1/kop"),
    ("trace.overhead_pct", "%"),
];

/// How one run is sized and where it may write.
#[derive(Clone, Debug)]
pub struct Params {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window: of the whole run on the command
    /// line, of one phase inside it.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Points in the data set.
    pub n: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Move batches serve-write keeps in flight (sent, not yet seen by a
    /// read). The full run keeps 4, below the writer queue's capacity
    /// ([`serve::WRITER_QUEUE`]), so the server never has to refuse.
    pub write_window: usize,
    /// Scratch directory for the trace file and the durable server's data.
    pub out_dir: PathBuf,
    /// The phase that flips one answer before it is checked (the
    /// self-test's proof that each phase's correctness gate trips).
    pub corrupt: Option<&'static str>,
}

impl Params {
    /// The full-size run the command line makes.
    pub fn full(seed: u64, seconds: f64, trace: bool) -> Self {
        Params {
            seed,
            seconds,
            trace,
            n: 1_000_000,
            setup_reps: 5,
            write_window: 4,
            out_dir: PathBuf::from(".bench_out"),
            corrupt: None,
        }
    }

    /// Does `phase` flip an answer?
    pub fn corrupts(&self, phase: &str) -> bool {
        self.corrupt == Some(phase)
    }
}

/// What a phase, or a whole run, measured: both metric sets plus the
/// counts of the correctness gate.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics by name (unit taken from [`END_TO_END`]).
    pub e2e: BTreeMap<String, f64>,
    /// Per-layer metrics by name (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Layer-metric prefixes this run does no work in; they report 0.
    pub idle: Vec<&'static str>,
    /// Traced runs: process usage and psi-obs deltas over the traced
    /// slices, for the layer metrics of the whole run.
    pub window: TracedWindow,
    /// Traced runs: the requests and replies the run sent, for
    /// `net.codec_ns_per_frame`.
    pub frames: Vec<layers::Frame>,
    /// Extra facts printed before the result line (key, JSON value).
    pub info: Vec<(String, String)>,
    /// Traced runs: per thread, summed span self time and the traced wall
    /// time measured apart from the spans (seconds).
    pub self_time: Vec<(String, f64, f64)>,
}

/// Run one workload and assemble its report.
pub fn run(workload: &str, p: &Params) -> Result<Report, String> {
    if std::env::var_os("RAYON_NUM_THREADS").is_some() {
        return Err(
            "RAYON_NUM_THREADS is set; the benchmark uses the pool's default \
                    size (one worker per core) and refuses to run"
                .to_string(),
        );
    }
    let family: &'static str = WORKLOADS
        .iter()
        .find(|w| **w == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}; known: {WORKLOADS:?}"))?;
    std::fs::create_dir_all(&p.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", p.out_dir.display()))?;
    let mut info = vec![("host".to_string(), host::host_json(&p.out_dir))];
    let (t0, u0) = (std::time::Instant::now(), host::usage());
    let phase = Params {
        seconds: p.seconds / PHASES.len() as f64,
        ..p.clone()
    };
    let m = merge(vec![
        ("lib-churn", lib_churn::run(&phase, family)?),
        ("serve-read", serve::run_read(&phase, family)?),
        ("serve-write", serve::run_write(&phase, family)?),
    ])?;
    info.extend(m.info.iter().cloned());
    info.push((
        "process".to_string(),
        report::object(&[
            (
                "wall_s".to_string(),
                report::num(t0.elapsed().as_secs_f64()),
            ),
            ("usage".to_string(), host::usage().since(&u0).json()),
            (
                "speed_probe_mips".to_string(),
                report::num(host::speed_probe_mips()),
            ),
        ]),
    ));
    let metrics = if p.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match m.layers.get(name) {
                    Some(v) => *v,
                    None if m.idle.iter().any(|pre| name.starts_with(pre)) => 0.0,
                    None => panic!("{workload} measured no value for layer metric {name}"),
                };
                Metric { name, value, unit }
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: *m
                    .e2e
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} measured no value for {name}")),
                unit,
            })
            .collect()
    };
    Ok(Report {
        correct: m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        info,
        self_time: m.self_time,
    })
}

/// One run's figures from its phases' figures. `setup_s` adds up the
/// phases' set-ups and `peak_rss_mb` is the largest phase's; every other
/// end-to-end metric comes from one phase. Per-layer metrics: `net.errors`
/// adds up, `trace.overhead_pct` is the phases' mean, the pool and process
/// figures come from all traced slices together, the codec figure from
/// all frames the run sent; every other one comes from one phase. Facts
/// and traced threads are prefixed with their phase.
fn merge(phases: Vec<(&'static str, Measured)>) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut overhead = Vec::new();
    for (phase, part) in phases {
        m.attempted += part.attempted;
        m.failed += part.failed;
        for (name, v) in part.e2e {
            let slot = m.e2e.entry(name.clone()).or_insert(0.0);
            match name.as_str() {
                "setup_s" => *slot += v,
                "peak_rss_mb" => *slot = slot.max(v),
                _ if *slot != 0.0 => return Err(format!("{phase} measured {name} again")),
                _ => *slot = v,
            }
        }
        for (name, v) in part.layers {
            match name.as_str() {
                "net.errors" => *m.layers.entry(name).or_insert(0.0) += v,
                "trace.overhead_pct" => overhead.push(v),
                _ if m.layers.contains_key(&name) => {
                    return Err(format!("{phase} measured layer metric {name} again"))
                }
                _ => {
                    m.layers.insert(name, v);
                }
            }
        }
        m.idle.extend(part.idle);
        m.window.absorb(&part.window);
        m.frames.extend(part.frames);
        m.info.extend(
            part.info
                .into_iter()
                .map(|(key, value)| (format!("{phase}.{key}"), value)),
        );
        m.self_time.extend(
            part.self_time
                .into_iter()
                .map(|(thread, s, wall)| (format!("{phase}/{thread}"), s, wall)),
        );
    }
    if !overhead.is_empty() {
        insert_common_layers(&mut m);
        m.layers
            .insert("trace.overhead_pct".into(), mean(&overhead));
        m.layers.insert(
            "net.codec_ns_per_frame".into(),
            layers::codec_ns_per_frame(&m.frames),
        );
    }
    Ok(m)
}

/// `setup_s`: the median of the first set-up's `first_s` and
/// `p.setup_reps - 1` more, each made, timed and torn down by `again`
/// (which returns its time). Call it after the measured phase: memory the
/// extra set-ups leave with the allocator then cannot inflate
/// `peak_rss_mb`, and the run is served by the first set-up, made in a
/// fresh process.
pub fn setup_median(
    p: &Params,
    first_s: f64,
    mut again: impl FnMut() -> Result<f64, String>,
) -> Result<f64, String> {
    let mut times = vec![first_s];
    for _ in 1..p.setup_reps {
        times.push(again()?);
    }
    Ok(median(&times))
}

/// Median of the values measured while the host was quiet: `(value,
/// steal)` pairs, where `steal` is the hypervisor steal during the value's
/// measurement; the values whose steal is at most the median steal count.
/// The choice looks at the host only, never at the value, so it favours
/// neither fast nor slow results; on a host nobody else loads, every value
/// counts.
pub fn quiet_median(samples: &[(f64, f64)]) -> f64 {
    let cut = median(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
    let quiet: Vec<f64> = samples.iter().filter(|s| s.1 <= cut).map(|s| s.0).collect();
    median(&quiet)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of a sample (mean of the middle pair when even); 0 for an empty
/// one, which only a run that failed before its measured phase leaves.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Write the trace file and record the span summary plus the self-time
/// check: per thread, the self times of its spans against `traced_wall_s`,
/// the wall time its traced slices cover, measured apart from the spans.
pub fn finish_trace(
    m: &mut Measured,
    trace: &trace::Trace,
    traced_wall_s: &[f64],
    p: &Params,
    workload: &str,
) -> Result<(), String> {
    use report::{num, object, string};
    let path = p.out_dir.join(format!("trace-{workload}.csv"));
    trace
        .write_csv(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    m.info.push((
        "trace_file".to_string(),
        string(&path.display().to_string()),
    ));
    m.self_time = trace
        .self_per_thread()
        .iter()
        .zip(&trace.threads)
        .zip(traced_wall_s)
        .map(|((self_ns, (name, _)), wall)| (name.to_string(), *self_ns as f64 / 1e9, *wall))
        .collect();
    let threads: Vec<(String, String)> = m
        .self_time
        .iter()
        .map(|(name, self_s, wall)| {
            (
                name.clone(),
                object(&[
                    ("self_s".to_string(), num(*self_s)),
                    ("traced_wall_s".to_string(), num(*wall)),
                ]),
            )
        })
        .collect();
    m.info
        .push(("trace_self_time".to_string(), object(&threads)));
    m.info.push(("spans".to_string(), trace.summary_json()));
    Ok(())
}

/// The layer metrics read from all traced slices of a run together: pool
/// steals and parks, CPU time and context switches per op.
fn insert_common_layers(m: &mut Measured) {
    let w = &m.window;
    let ops = w.ops.max(1.0);
    let figures = [
        (
            "parutils.steals_per_kop",
            w.per_kop("psi_pool_steals_total"),
        ),
        ("parutils.parks_per_kop", w.per_kop("psi_pool_parks_total")),
        ("proc.cpu_us_per_op", w.usage.cpu_us / ops),
        (
            "proc.ctx_switches_per_kop",
            w.usage.ctx_switches / ops * 1e3,
        ),
    ];
    for (name, v) in figures {
        m.layers.insert(name.into(), v);
    }
}
