//! The benchmark harness behind the `psi-bench` binary.
//!
//! One binary, one subcommand per benchmark: `parallel`, `serve`, `net`,
//! `leaf`, and `figures --fig N`, which regenerates the paper's Figure N
//! (3 … 10) at a configurable, laptop-friendly scale. Every subcommand reads
//! its arguments through [`flags::Flags`], which rejects an unknown flag, a
//! flag with no value and a value that does not parse. This library holds the
//! subcommands and the pieces they share: the figure configuration, the
//! Fig. 3 master-table protocol, the `BENCH_*.json` header and plain-text
//! table rendering.
//!
//! The figures print the same *rows and columns* the paper reports; absolute
//! numbers will differ from the paper's 112-core machine, but the relative
//! ordering of the indexes is what the harness is for.

pub mod figures;
pub mod flags;
pub mod leaf;
pub mod net;
pub mod parallel;
pub mod serve;

use flags::Flags;
use psi::driver::{self, QuerySet, QueryTimes};
use psi::{PointI, RectI, SpatialIndex};
use psi_obs::Json;
use psi_workloads as workloads;
use std::time::Duration;

/// Scale and workload parameters shared by the figures and `parallel`, set
/// by `--n <points>`, `--queries <count>`, `--ranges <count>`, `--k <k>`,
/// `--seed <seed>` and `--max-coord <bound>`.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Number of data points (the paper uses 10⁹; the default here is 2·10⁵).
    pub n: usize,
    /// Number of kNN query points per category (paper: 10⁷).
    pub knn_queries: usize,
    /// Number of range queries (paper: 5·10⁴).
    pub range_queries: usize,
    /// Neighbours per kNN query.
    pub k: usize,
    /// Incremental-update batch ratios (fraction of `n` per batch).
    pub batch_ratios: Vec<f64>,
    /// Coordinate domain upper bound.
    pub max_coord: i64,
    /// RNG seed.
    pub seed: u64,
}

impl BenchConfig {
    /// Defaults for 2-D experiments (Fig. 3, 4, 5, 7, 8, 10).
    pub fn default_2d() -> Self {
        BenchConfig {
            n: 200_000,
            knn_queries: 2_000,
            range_queries: 200,
            k: 10,
            batch_ratios: vec![0.10, 0.01, 0.001, 0.0001],
            max_coord: workloads::DEFAULT_MAX_COORD_2D,
            seed: 42,
        }
    }

    /// Defaults for 3-D experiments (Fig. 6 cosmo, Fig. 9).
    pub fn default_3d() -> Self {
        BenchConfig {
            max_coord: workloads::DEFAULT_MAX_COORD_3D,
            n: 100_000,
            ..Self::default_2d()
        }
    }

    /// Apply the flags that override these defaults.
    pub fn with_flags(self, flags: &mut Flags) -> Result<Self, String> {
        Ok(BenchConfig {
            n: flags.get("--n", self.n)?,
            knn_queries: flags.get("--queries", self.knn_queries)?,
            range_queries: flags.get("--ranges", self.range_queries)?,
            k: flags.get("--k", self.k)?,
            seed: flags.get("--seed", self.seed)?,
            max_coord: flags.get("--max-coord", self.max_coord)?,
            ..self
        })
    }

    /// The root region for this configuration.
    pub fn universe<const D: usize>(&self) -> RectI<D> {
        workloads::universe::<D>(self.max_coord)
    }

    /// Build the Fig. 3 query set for a dataset.
    pub fn query_set<const D: usize>(&self, data: &[PointI<D>]) -> QuerySet<i64, D> {
        QuerySet {
            knn_ind: workloads::ind_queries(data, self.knn_queries, self.seed ^ 0x51),
            knn_ood: workloads::ood_queries::<D>(
                self.max_coord,
                self.knn_queries,
                self.seed ^ 0x52,
            ),
            k: self.k,
            ranges: workloads::range_queries(
                data,
                self.max_coord,
                (data.len() / 100).max(10),
                self.range_queries,
                self.seed ^ 0x53,
            ),
        }
    }
}

/// Duration formatted in seconds with millisecond resolution.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

fn proc_line(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()?.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// A `BENCH_*.json` document: `"bench": name`, then the machine fields every
/// checked-in benchmark file records, then `fields`. `machine_threads` is
/// the worker pool the run actually used (it honours `RAYON_NUM_THREADS`);
/// the `host` block is the physical box.
pub fn bench_json(name: &str, fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let cpu_model = proc_line("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    let host = Json::obj([
        ("os", std::env::consts::OS.into()),
        ("arch", std::env::consts::ARCH.into()),
        ("cpus", cpus.into()),
        ("kernel", kernel.into()),
        ("cpu_model", cpu_model.into()),
    ]);
    let head = [
        ("bench", name.into()),
        ("machine_threads", rayon::current_num_threads().into()),
        ("host", host),
    ];
    Json::obj(head.into_iter().chain(fields))
}

/// Run `f` inside a worker pool of `threads` workers.
pub fn with_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build rayon pool")
        .install(f)
}

/// Write a benchmark document to `path` and say so on stdout.
pub fn write_json(path: &str, doc: &Json) {
    std::fs::write(path, format!("{doc}\n")).expect("failed to write benchmark output");
    println!("# wrote {path}");
}

/// One row of the Fig. 3 / Fig. 9 master table.
#[derive(Clone, Debug, Default)]
pub struct MasterRow {
    /// Index name.
    pub name: String,
    /// One-shot build time over the full dataset.
    pub build: Duration,
    /// Queries after building a tree over half of the data (the static case).
    pub q_build: QueryTimes,
    /// Incremental-insert total times, one per batch ratio.
    pub inc_insert: Vec<Duration>,
    /// Queries sampled after 50% of the insertion batches (smallest ratio run).
    pub q_insert: QueryTimes,
    /// Incremental-delete total times, one per batch ratio.
    pub inc_delete: Vec<Duration>,
    /// Queries sampled after 50% of the deletion batches (smallest ratio run).
    pub q_delete: QueryTimes,
}

/// Run the full Fig. 3 protocol for one index type on one dataset.
pub fn master_row<I: SpatialIndex<i64, D>, const D: usize>(
    data: &[PointI<D>],
    cfg: &BenchConfig,
) -> MasterRow {
    let universe = cfg.universe::<D>();
    let queries = cfg.query_set(data);
    let mut row = MasterRow {
        name: I::NAME.to_string(),
        ..Default::default()
    };

    // Static build over the full data.
    let (build_time, _index) = driver::timed_build::<I, i64, D>(data, &universe);
    row.build = build_time;

    // Static query baseline: tree over the first half of the data.
    let half = data.len() / 2;
    let (_t, half_index) = driver::timed_build::<I, i64, D>(&data[..half], &universe);
    row.q_build = queries.run(&half_index);
    drop(half_index);

    // Incremental insertion at each batch ratio; query probe on the last
    // (smallest) ratio, matching the paper's "query after inc. ins." column.
    for (i, ratio) in cfg.batch_ratios.iter().enumerate() {
        let batch = ((data.len() as f64 * ratio).ceil() as usize).max(1);
        let probe = if i + 1 == cfg.batch_ratios.len() {
            Some(&queries)
        } else {
            None
        };
        let (res, _index) = driver::incremental_insert::<I, i64, D>(data, batch, &universe, probe);
        row.inc_insert.push(res.update_time);
        if let Some(q) = res.queries_at_half {
            row.q_insert = q;
        }
    }

    // Incremental deletion at each batch ratio.
    for (i, ratio) in cfg.batch_ratios.iter().enumerate() {
        let batch = ((data.len() as f64 * ratio).ceil() as usize).max(1);
        let probe = if i + 1 == cfg.batch_ratios.len() {
            Some(&queries)
        } else {
            None
        };
        let (res, _index) = driver::incremental_delete::<I, i64, D>(data, batch, &universe, probe);
        row.inc_delete.push(res.update_time);
        if let Some(q) = res.queries_at_half {
            row.q_delete = q;
        }
    }
    row
}

/// Render the header of the master table.
pub fn master_header(ratios: &[f64]) -> String {
    let ratio_cols: Vec<String> = ratios
        .iter()
        .map(|r| format!("{:>8}", format!("{}%", r * 100.0)))
        .collect();
    format!(
        "{:<10} {:>8} | {:>8} {:>8} {:>8} {:>8} | {} | {:>8} {:>8} {:>8} {:>8} | {} | {:>8} {:>8} {:>8} {:>8}",
        "index", "build",
        "10NN-InD", "10NN-OOD", "rangeCnt", "rangeLst",
        ratio_cols.join(" "),
        "10NN-InD", "10NN-OOD", "rangeCnt", "rangeLst",
        ratio_cols.join(" "),
        "10NN-InD", "10NN-OOD", "rangeCnt", "rangeLst",
    )
}

/// Render one master-table row.
pub fn master_row_line(row: &MasterRow) -> String {
    let q = |t: &QueryTimes| {
        format!(
            "{:>8} {:>8} {:>8} {:>8}",
            fmt_secs(t.knn_ind),
            fmt_secs(t.knn_ood),
            fmt_secs(t.range_count),
            fmt_secs(t.range_list)
        )
    };
    let durs = |v: &[Duration]| {
        v.iter()
            .map(|d| format!("{:>8}", fmt_secs(*d)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "{:<10} {:>8} | {} | {} | {} | {} | {}",
        row.name,
        fmt_secs(row.build),
        q(&row.q_build),
        durs(&row.inc_insert),
        q(&row.q_insert),
        durs(&row.inc_delete),
        q(&row.q_delete),
    )
}

/// The geometric mean of a set of durations (used by the Fig. 8 scatter).
pub fn geometric_mean(durations: &[Duration]) -> f64 {
    if durations.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = durations
        .iter()
        .map(|d| d.as_secs_f64().max(1e-9).ln())
        .sum();
    (log_sum / durations.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi::POrthTree2;

    #[test]
    fn config_defaults_and_universe() {
        let cfg = BenchConfig::default_2d();
        assert_eq!(cfg.batch_ratios.len(), 4);
        let u = cfg.universe::<2>();
        assert!(u.contains(&psi::Point::new([0, 0])));
        assert!(u.contains(&psi::Point::new([cfg.max_coord, cfg.max_coord])));
    }

    #[test]
    fn host_meta_is_valid_json_fields() {
        let doc = Json::parse(&bench_json("t", [("n", 3usize.into())]).to_string()).unwrap();
        let Json::Obj(fields) = &doc else {
            panic!("not an object: {doc}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["bench", "machine_threads", "host", "n"]);
        let host = doc.get("host").unwrap();
        assert!(host.get("cpus").and_then(Json::as_f64).unwrap() >= 1.0);
        for key in ["os", "arch", "kernel", "cpu_model"] {
            assert!(!host.get(key).and_then(Json::as_str).unwrap().is_empty());
        }
    }

    #[test]
    fn geometric_mean_of_equal_durations() {
        let d = vec![Duration::from_millis(100); 4];
        let g = geometric_mean(&d);
        assert!((g - 0.1).abs() < 1e-6);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn master_row_small_run_completes() {
        let cfg = BenchConfig {
            n: 3_000,
            knn_queries: 50,
            range_queries: 20,
            k: 5,
            batch_ratios: vec![0.1, 0.01],
            max_coord: 100_000,
            seed: 1,
        };
        let data = workloads::uniform::<2>(cfg.n, cfg.max_coord, cfg.seed);
        let row = master_row::<POrthTree2, 2>(&data, &cfg);
        assert_eq!(row.name, "P-Orth");
        assert_eq!(row.inc_insert.len(), 2);
        assert_eq!(row.inc_delete.len(), 2);
        assert!(row.q_insert.checksum > 0);
        // The rendered line contains the index name and parses as one row.
        let line = master_row_line(&row);
        assert!(line.starts_with("P-Orth"));
        assert!(!master_header(&cfg.batch_ratios).is_empty());
    }
}
