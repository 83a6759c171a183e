//! `psi-bench figures --fig N`: the paper's Figures 3–10.
//!
//! Each figure loops over a list of registry family names and reaches each
//! family's concrete type through [`registry::with_family`], so the timed
//! code is the family's own, statically dispatched, and every row is labelled
//! with the family's registry name.
//!
//! Usage: `cargo run --release -p psi-bench -- figures --fig N [flags]`,
//! flags as in [`USAGE`]; each figure has its own defaults (see [`main`]).

use crate::flags::Flags;
use crate::{
    fmt_secs, geometric_mean, master_header, master_row, master_row_line, with_pool, BenchConfig,
    MasterRow,
};
use psi::driver::{
    incremental_delete, incremental_insert, timed_batch_delete, timed_batch_insert, timed_build,
    QuerySet,
};
use psi::registry::{self, FamilyVisitor};
use psi::{HilbertCurve, MortonCurve, PointI, SfcCurve, SpatialIndex};
use psi_workloads::{self as workloads, Distribution};
use std::time::{Duration, Instant};

/// The flags; `--n`, `--queries`, `--ranges` and `--max-coord` default per
/// figure.
pub const USAGE: &str = "psi-bench figures --fig <3..10> [--n N] [--queries N] [--ranges N] \
    [--k 10] [--seed 42] [--max-coord M]";

/// Every family the paper's tables compare, in its table order; the
/// brute-force oracle is not one of them.
const PAPER: &[&str] = &[
    "p-orth", "zd", "spac-h", "spac-z", "cpam-h", "cpam-z", "r-tree", "pkd",
];

/// The families of the scalability and batch-size sweeps (Figs. 7 and 10).
const SWEEP: &[&str] = &["spac-h", "spac-z", "p-orth", "zd", "pkd"];

/// The families the paper keeps for the 3-D master table (Fig. 9).
const FIG9: &[&str] = &["p-orth", "spac-h", "pkd"];

/// One dataset of a figure, as each family's measurement sees it.
#[derive(Clone, Copy)]
struct Data<'a, const D: usize> {
    points: &'a [PointI<D>],
    dist: Distribution,
    cfg: &'a BenchConfig,
}

/// Run `visitor` over each family in `names`, in order.
fn each_family<const D: usize, V: FamilyVisitor<D> + Copy>(
    names: &[&str],
    visitor: V,
) -> Vec<V::Output>
where
    HilbertCurve: SfcCurve<D>,
    MortonCurve: SfcCurve<D>,
{
    let run = |name: &&str| registry::with_family(name, visitor).expect("figure families exist");
    names.iter().map(run).collect()
}

/// One `== distribution ==` block per synthetic distribution, filled in by
/// `block` (what it returns is dropped).
fn per_distribution<const D: usize, R>(cfg: &BenchConfig, block: impl Fn(Data<'_, D>) -> R) {
    for dist in Distribution::SYNTHETIC {
        println!("\n== {} ==", dist.name());
        let points = dist.generate::<D>(cfg.n, cfg.max_coord, cfg.seed);
        block(Data {
            points: &points,
            dist,
            cfg,
        });
    }
}

/// Run figure `--fig N` with its defaults under the given flags.
pub fn main(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::parse(args, &[])?;
    let fig: u32 = flags.get("--fig", 0)?;
    let defaults = match fig {
        3 | 4 | 5 | 7 | 10 => BenchConfig::default_2d(),
        6 | 9 => BenchConfig::default_3d(),
        8 => BenchConfig {
            n: 100_000,
            batch_ratios: vec![0.01, 0.0001],
            ..BenchConfig::default_2d()
        },
        _ => return Err("--fig expects a figure number from 3 to 10".into()),
    };
    let cfg = defaults.with_flags(&mut flags)?;
    // Fig. 6's 2-D half (osm_like, twice the 3-D point count) runs on the
    // 2-D defaults under the same flags.
    let cfg_2d = BenchConfig {
        n: cfg.n * 2,
        ..BenchConfig::default_2d().with_flags(&mut flags)?
    };
    flags.finish()?;
    match fig {
        3 => {
            println!(
                "# Figure 3: 2-D synthetic master table (n = {}, seed = {})",
                cfg.n, cfg.seed
            );
            println!("# times in seconds; paper reference: Fig. 3 of arXiv:2601.05347");
            master_table::<2>(&cfg, PAPER)
        }
        4 => figure4(&cfg),
        5 => figure5(&cfg),
        6 => figure6(&cfg, &cfg_2d),
        7 => figure7(&cfg),
        8 => figure8(&cfg),
        9 => {
            println!(
                "# Figure 9: 3-D synthetic master table (n = {}, coords in [0, {}])",
                cfg.n, cfg.max_coord
            );
            master_table::<3>(&cfg, FIG9)
        }
        _ => figure10(&cfg),
    }
    Ok(())
}

/// The Fig. 3 protocol for one family (see [`master_row`]).
#[derive(Clone, Copy)]
struct MasterTable<'a, const D: usize>(Data<'a, D>);

impl<const D: usize> FamilyVisitor<D> for MasterTable<'_, D> {
    type Output = MasterRow;
    fn visit<I: SpatialIndex<i64, D>>(self, name: &'static str) -> MasterRow {
        MasterRow {
            name: name.to_string(),
            ..master_row::<I, D>(self.0.points, self.0.cfg)
        }
    }
}

/// Figure 3 (`D = 2`, every paper family) and Figure 9 (`D = 3`, P-Orth,
/// SPaC-H and Pkd-tree) — the synthetic master tables.
///
/// For each distribution (Uniform, Sweepline, Varden) and each index, report:
/// build time; 10-NN (InD/OOD), range-count and range-list after a static
/// build over half the data; incremental-insertion total time at batch ratios
/// 10%, 1%, 0.1%, 0.01%; queries after 50% of the insertion batches;
/// incremental-deletion totals at the same ratios; queries after 50% of the
/// deletion batches.
fn master_table<const D: usize>(cfg: &BenchConfig, names: &[&str])
where
    HilbertCurve: SfcCurve<D>,
    MortonCurve: SfcCurve<D>,
{
    per_distribution::<D, _>(cfg, |data| {
        println!("{}", master_header(&cfg.batch_ratios));
        for row in each_family(names, MasterTable(data)) {
            println!("{}", master_row_line(&row));
        }
    });
}

/// kNN query time for `k` = 1, 10, 100 on one family.
#[derive(Clone, Copy)]
struct KnnByK<'a>(Data<'a, 2>);

impl FamilyVisitor<2> for KnnByK<'_> {
    type Output = ();
    fn visit<I: SpatialIndex<i64, 2>>(self, name: &'static str) {
        let Data { points, cfg, .. } = self.0;
        let universe = cfg.universe::<2>();
        let batch = ((points.len() as f64 * 0.0001).ceil() as usize).max(1);
        let (_res, index) = incremental_insert::<I, i64, 2>(points, batch, &universe, None);
        for k in [1usize, 10, 100] {
            let qs = QuerySet {
                knn_ind: workloads::ind_queries(points, cfg.knn_queries, cfg.seed ^ 0x61),
                knn_ood: workloads::ood_queries::<2>(
                    cfg.max_coord,
                    cfg.knn_queries,
                    cfg.seed ^ 0x62,
                ),
                k,
                ranges: vec![],
            };
            let t = qs.run(&index);
            println!(
                "{:<10} k={:<4} InD={:>9}  OOD={:>9}",
                name,
                k,
                fmt_secs(t.knn_ind),
                fmt_secs(t.knn_ood)
            );
        }
    }
}

/// Figure 4 — kNN query time as a function of `k` (1, 10, 100), for
/// in-distribution and out-of-distribution query points, on a tree built by
/// incremental insertion with 0.01% batches.
fn figure4(cfg: &BenchConfig) {
    println!(
        "# Figure 4: kNN time vs k (n = {}, {} queries per point set)",
        cfg.n, cfg.knn_queries
    );
    per_distribution(cfg, |data| each_family(PAPER, KnnByK(data)));
}

/// Range-list time against output size on one family.
#[derive(Clone, Copy)]
struct RangeByOutput<'a>(Data<'a, 2>);

impl FamilyVisitor<2> for RangeByOutput<'_> {
    type Output = ();
    fn visit<I: SpatialIndex<i64, 2>>(self, name: &'static str) {
        let Data { points, cfg, .. } = self.0;
        let universe = cfg.universe::<2>();
        let batch = ((points.len() as f64 * 0.0001).ceil() as usize).max(1);
        let (_res, index) = incremental_insert::<I, i64, 2>(points, batch, &universe, None);
        // Sweep the target output size over four decades (the paper sweeps
        // the range size from 10^4 to 10^6 coordinates on 10^9 points; at our
        // scale we sweep expected output counts instead, which is the same
        // x-axis).
        for target in [10usize, 100, 1_000, 10_000] {
            let qs = QuerySet {
                knn_ind: vec![],
                knn_ood: vec![],
                k: 1,
                ranges: workloads::range_queries(
                    points,
                    cfg.max_coord,
                    target,
                    cfg.range_queries,
                    cfg.seed ^ 0x71,
                ),
            };
            let t = qs.run(&index);
            println!(
                "{:<10} target_output={:<7} range_list={:>9}  (range_count={:>9})",
                name,
                target,
                fmt_secs(t.range_list),
                fmt_secs(t.range_count)
            );
        }
    }
}

/// Figure 5 — range-report (range-list) query time as a function of the
/// output size, on a tree built by incremental insertion with 0.01% batches.
fn figure5(cfg: &BenchConfig) {
    println!(
        "# Figure 5: range-report time vs output size (n = {}, {} range queries)",
        cfg.n, cfg.range_queries
    );
    per_distribution(cfg, |data| each_family(PAPER, RangeByOutput(data)));
}

/// Build, 0.01%-batch updates and queries on one family.
#[derive(Clone, Copy)]
struct RealWorld<'a, const D: usize>(Data<'a, D>);

impl<const D: usize> FamilyVisitor<D> for RealWorld<'_, D> {
    type Output = ();
    fn visit<I: SpatialIndex<i64, D>>(self, name: &'static str) {
        let Data { points, cfg, .. } = self.0;
        let universe = cfg.universe::<D>();
        let (build, index) = timed_build::<I, i64, D>(points, &universe);
        let qs = QuerySet {
            knn_ind: workloads::ind_queries(points, cfg.knn_queries, cfg.seed ^ 0x81),
            knn_ood: vec![],
            k: cfg.k,
            ranges: workloads::range_queries(
                points,
                cfg.max_coord,
                (points.len() / 100).max(10),
                cfg.range_queries,
                cfg.seed ^ 0x82,
            ),
        };
        let q = qs.run(&index);
        drop(index);
        let batch = ((points.len() as f64 * 0.0001).ceil() as usize).max(1);
        let (ins, _) = incremental_insert::<I, i64, D>(points, batch, &universe, None);
        let (del, _) = incremental_delete::<I, i64, D>(points, batch, &universe, None);
        println!(
            "{:<10} build={:>9} insert={:>9} delete={:>9} 10NN={:>9} rangeList={:>9}",
            name,
            fmt_secs(build),
            fmt_secs(ins.update_time),
            fmt_secs(del.update_time),
            fmt_secs(q.knn_ind),
            fmt_secs(q.range_list)
        );
    }
}

/// Figure 6 — operations on the real-world datasets.
///
/// The paper uses COSMO (317M 3-D points) and OSM North America (776M 2-D
/// points); this repository substitutes the synthetic stand-ins
/// `workloads::cosmo_like` (heavy-tailed halos over a thin uniform
/// background) and `workloads::osm_like` (dense polylines between random
/// waypoints) that reproduce their clustering structure. For each index:
/// build time, incremental insertion/deletion with 0.01% batches, 10-NN
/// (InD) and range-list query time after construction.
fn figure6(cfg3: &BenchConfig, cfg2: &BenchConfig) {
    println!(
        "# Figure 6: real-world stand-ins (cosmo_like 3-D n = {}, osm_like 2-D n = {})",
        cfg3.n, cfg2.n
    );
    println!("\n== cosmo_like (3-D, clustered) ==");
    let points = workloads::cosmo_like(cfg3.n, cfg3.max_coord, cfg3.seed);
    let dist = Distribution::CosmoLike;
    each_family(
        PAPER,
        RealWorld(Data {
            points: &points,
            dist,
            cfg: cfg3,
        }),
    );

    println!("\n== osm_like (2-D, road-network-like) ==");
    let points = workloads::osm_like(cfg2.n, cfg2.max_coord, cfg2.seed);
    let dist = Distribution::OsmLike;
    each_family(
        PAPER,
        RealWorld(Data {
            points: &points,
            dist,
            cfg: cfg2,
        }),
    );
}

/// Build, insert and delete times of `I` on a pool of `threads` workers.
fn measure<I: SpatialIndex<i64, 2>>(data: Data<'_, 2>, threads: usize) -> [f64; 3] {
    let Data { points, cfg, .. } = data;
    let universe = cfg.universe::<2>();
    let batch = workloads::uniform::<2>(cfg.n / 100, cfg.max_coord, cfg.seed ^ 0x91);
    with_pool(threads, || {
        let t0 = Instant::now();
        let mut index = I::build(points, &universe);
        let build = t0.elapsed();
        let t1 = Instant::now();
        index.batch_insert(&batch);
        let insert = t1.elapsed();
        let t2 = Instant::now();
        index.batch_delete(&batch);
        let delete = t2.elapsed();
        [build, insert, delete].map(|d| d.as_secs_f64())
    })
}

/// The thread sweep of build, insert and delete on one family: 1, 2, 4, …
/// up to the pool's worker count.
#[derive(Clone, Copy)]
struct Scalability<'a>(Data<'a, 2>);

impl FamilyVisitor<2> for Scalability<'_> {
    type Output = ();
    fn visit<I: SpatialIndex<i64, 2>>(self, name: &'static str) {
        let max = rayon::current_num_threads().max(1);
        let doubling = (0..).map(|i| 1 << i).take_while(|&t| t < max);
        let base = measure::<I>(self.0, 1);
        for t in doubling.chain([max]) {
            let m = if t == 1 {
                base
            } else {
                measure::<I>(self.0, t)
            };
            let speedup = |i: usize| base[i] / m[i].max(1e-9);
            println!(
                "{:<10} threads={:<3} build={:>8.4}s (x{:>5.2}) insert={:>8.4}s (x{:>5.2}) delete={:>8.4}s (x{:>5.2})",
                name, t, m[0], speedup(0), m[1], speedup(1), m[2], speedup(2),
            );
        }
    }
}

/// Figure 7 — scalability: self-relative speedup of construction, batch
/// insertion and batch deletion as the number of worker threads grows.
///
/// The paper sweeps 1 → 224 hyperthreads on a 112-core machine; this sweeps
/// 1 → the number of cores available (doubling), running each operation
/// inside a dedicated pool of that size, and reports speedup relative to the
/// 1-thread run of the same index (the paper normalises to SPaC-H's 1-thread
/// time).
fn figure7(cfg: &BenchConfig) {
    println!(
        "# Figure 7: scalability sweep (n = {}, batch = 1% of n, threads up to {})",
        cfg.n,
        rayon::current_num_threads()
    );
    per_distribution(cfg, |data| each_family(SWEEP, Scalability(data)));
}

/// Figure 8 — the update-vs-query trade-off scatter plot.
///
/// The paper summarises Fig. 3 by plotting, for every index and every
/// distribution, the geometric mean of its update times against the
/// geometric mean of its query times. This re-runs a reduced version of the
/// Fig. 3 protocol and prints the scatter coordinates (one line per index per
/// distribution); lower is better on both axes.
fn figure8(cfg: &BenchConfig) {
    println!(
        "# Figure 8: update-vs-query scatter (geometric means, seconds); n = {}",
        cfg.n
    );
    println!(
        "{:<12} {:<12} {:>14} {:>14}",
        "distribution", "index", "update_gm", "query_gm"
    );
    for dist in Distribution::SYNTHETIC {
        let points = dist.generate::<2>(cfg.n, cfg.max_coord, cfg.seed);
        let data = Data {
            points: &points,
            dist,
            cfg,
        };
        for row in each_family(PAPER, MasterTable(data)) {
            // Update axis: build + all incremental insert/delete totals.
            let mut updates: Vec<Duration> = vec![row.build];
            updates.extend(&row.inc_insert);
            updates.extend(&row.inc_delete);
            // Query axis: every query column of the three probes.
            let queries: Vec<Duration> = [row.q_build, row.q_insert, row.q_delete]
                .iter()
                .flat_map(|q| [q.knn_ind, q.knn_ood, q.range_count, q.range_list])
                .collect();
            let (u, q) = (geometric_mean(&updates), geometric_mean(&queries));
            println!(
                "{:<12} {:<12} {:>14.5} {:>14.5}",
                dist.name(),
                row.name,
                u,
                q
            );
        }
    }
}

/// Single-batch insert and delete times against batch size on one family.
#[derive(Clone, Copy)]
struct BatchSize<'a>(Data<'a, 2>);

impl FamilyVisitor<2> for BatchSize<'_> {
    type Output = ();
    fn visit<I: SpatialIndex<i64, 2>>(self, name: &'static str) {
        let Data { points, dist, cfg } = self.0;
        let universe = cfg.universe::<2>();
        // Batch sizes: 0.01%, 0.1%, 1%, 10%, 100% of n (mirroring the paper's
        // 1e5..1e9 sweep on 1e9 points).
        for frac in [0.0001, 0.001, 0.01, 0.1, 1.0] {
            let b = ((points.len() as f64 * frac).ceil() as usize).max(1);
            let insert_batch = dist.generate::<2>(b, cfg.max_coord, cfg.seed ^ 0xA1);
            let delete_batch = &points[..b];

            let (_t, mut index) = timed_build::<I, i64, 2>(points, &universe);
            let ti = timed_batch_insert(&mut index, &insert_batch);
            let (_t, mut index) = timed_build::<I, i64, 2>(points, &universe);
            let td = timed_batch_delete(&mut index, delete_batch);
            println!(
                "{:<10} batch={:<9} insert={:>9} delete={:>9}",
                name,
                b,
                fmt_secs(ti),
                fmt_secs(td)
            );
        }
    }
}

/// Figure 10 — single-batch update time as a function of the batch size.
///
/// An initial tree is built over the full dataset; a single batch insertion
/// (fresh points from the same distribution) and a single batch deletion
/// (existing points) are then timed for batch sizes sweeping three decades.
/// The paper sweeps 10^5..10^9 points on a 10^9-point tree; this sweeps
/// proportional fractions of the configured `n`.
fn figure10(cfg: &BenchConfig) {
    println!(
        "# Figure 10: single-batch update time vs batch size (base tree n = {})",
        cfg.n
    );
    per_distribution(cfg, |data| each_family(SWEEP, BatchSize(data)));
}
