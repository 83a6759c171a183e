//! Leaf-scan microbenchmark — AoS vs SoA (PR 7).
//!
//! Times the three leaf kernels every query in the workspace bottoms out in —
//! range-count, range-filter-into-arena, and kNN distance accumulation — over
//! the same point sets in both layouts:
//!
//! * **AoS**: `Vec<Point<T, D>>` + the reference kernels the indexes used
//!   before PR 7 (`aos_range_count` / `aos_range_visit` / `aos_knn_offer`),
//! * **SoA**: [`psi_geometry::LeafSoA`] — one contiguous `total_key` plane
//!   per dimension (the only copy of the coordinates, decoded on demand),
//!   block bitmask range tests, branch-light distance loops.
//!
//! The sweep covers leaf sizes 16/32/64 (the φ range the indexes use) for both
//! coordinate types (`i64`, `f64`). Both layouts must produce bit-identical
//! answers on every cell; the run asserts this before reporting.
//!
//! Usage: `cargo run --release -p psi-bench -- leaf [flags]`, flags as in
//! [`USAGE`].

use crate::flags::Flags;
use crate::{bench_json, write_json};
use psi_geometry::leaf::{aos_knn_offer, aos_range_count, aos_range_visit};
use psi_geometry::{Coord, KnnHeap, LeafSoA, Point, Rect};
use psi_obs::Json;
use psi_workloads as workloads;
use std::time::Instant;

/// Points per cell (leaf count is derived as `POINTS_PER_CELL / leaf_size`).
/// Sized so the per-leaf branch sequence is far past what the branch
/// predictor can memorise across inner repeats — a real tree visits
/// thousands of distinct leaves per query pass, and replaying a few hundred
/// identical tiny leaves lets the predictor "learn" the AoS branches in a
/// way no real workload sees — and so the working set exceeds L1 while both
/// layouts together still fit L2.
const POINTS_PER_CELL: usize = 1 << 15;
/// Independently allocated fixture instances per cell (see [`bench_cells`]).
/// One pool keeps the per-cell working set (both layouts together) inside L2
/// on the measurement box; more pools push every kernel into an L3-streaming
/// regime where layout differences drown in memory latency.
const NUM_POOLS: usize = 1;
/// Target points touched per timed run (sets the inner repeat count).
const TARGET_POINTS_PER_RUN: usize = 4_000_000;
const K: usize = 8;

/// Best-of-`reps` wall-clock for a pair of ops, interleaved (a, b, a, b, …)
/// so frequency scaling, thermal drift and predictor state hit both layouts
/// alike. One untimed warmup each.
fn time_pair<R>(
    reps: usize,
    mut a: impl FnMut() -> R,
    mut b: impl FnMut() -> R,
) -> (f64, f64, R, R) {
    let mut ra = a();
    let mut rb = b();
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t = Instant::now();
        ra = a();
        best_a = best_a.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        rb = b();
        best_b = best_b.min(t.elapsed().as_secs_f64());
    }
    (best_a, best_b, ra, rb)
}

struct Cell {
    coord: &'static str,
    leaf_size: usize,
    kernel: &'static str,
    aos_pps: f64,
    soa_pps: f64,
}

impl Cell {
    fn ratio(&self) -> f64 {
        self.soa_pps / self.aos_pps
    }
}

/// One cell's fixture: `POINTS_PER_CELL / leaf_size` leaves of `leaf_size`
/// points in both layouts, plus a query rect and query point per leaf.
struct Fixture<T: Coord, const D: usize> {
    aos: Vec<Vec<Point<T, D>>>,
    soa: Vec<LeafSoA<T, D>>,
    rects: Vec<Rect<T, D>>,
    queries: Vec<Point<T, D>>,
}

/// Order `pts` the way a kd build does — recursive median splits on rotating
/// dimensions — so consecutive `leaf_size` chunks are spatially tight boxes,
/// like the leaves Pkd/P-Orth actually hand to the kernels. (Random chunks of
/// a uniform pool would all span the whole domain, a leaf geometry no tree
/// produces.)
fn kd_order<T: Coord, const D: usize>(pts: &mut [Point<T, D>], leaf_size: usize, dim: usize) {
    if pts.len() <= leaf_size {
        return;
    }
    let mid = pts.len() / 2;
    pts.select_nth_unstable_by(mid, |a, b| a.coords[dim].total_cmp(&b.coords[dim]));
    let (l, r) = pts.split_at_mut(mid);
    kd_order(l, leaf_size, (dim + 1) % D);
    kd_order(r, leaf_size, (dim + 1) % D);
}

fn fixture<T: Coord, const D: usize>(points: &[Point<T, D>], leaf_size: usize) -> Fixture<T, D> {
    let mut points = points.to_vec();
    kd_order(&mut points, leaf_size, 0);
    let points = &points[..];
    let num_leaves = POINTS_PER_CELL / leaf_size;
    let mut aos = Vec::with_capacity(num_leaves);
    let mut soa = Vec::with_capacity(num_leaves);
    let mut rects = Vec::with_capacity(num_leaves);
    let mut queries = Vec::with_capacity(num_leaves);
    for i in 0..num_leaves {
        let chunk: Vec<Point<T, D>> = points[i * leaf_size..(i + 1) * leaf_size].to_vec();
        // Query rect from two of the leaf's own points (ordered per dim), so
        // selectivity varies per leaf but every rect actually hits the leaf.
        let (a, b) = (chunk[0], chunk[(i * 7 + 3) % leaf_size]);
        let mut lo = a;
        let mut hi = b;
        for d in 0..D {
            if lo.coords[d].total_cmp(&hi.coords[d]) == std::cmp::Ordering::Greater {
                std::mem::swap(&mut lo.coords[d], &mut hi.coords[d]);
            }
        }
        rects.push(Rect::from_corners(lo, hi));
        queries.push(chunk[(i * 13 + 1) % leaf_size]);
        soa.push(LeafSoA::from_points(&chunk));
        aos.push(chunk);
    }
    Fixture {
        aos,
        soa,
        rects,
        queries,
    }
}

/// Run the three kernels over a set of independently allocated fixtures in
/// both layouts; returns the cell rows and panics if any kernel disagrees
/// between layouts. Timing over several fixture instances averages out
/// per-allocation luck (page mapping, cache-set aliasing) that would
/// otherwise skew a single instance's numbers a few percent either way.
fn bench_cells<T: Coord, const D: usize>(
    coord: &'static str,
    leaf_size: usize,
    fxs: &[Fixture<T, D>],
    reps: usize,
) -> Vec<Cell> {
    let pass_points = POINTS_PER_CELL * fxs.len();
    let iters = (TARGET_POINTS_PER_RUN / pass_points).max(1);
    let points_per_run = (pass_points * iters) as f64;
    let mut cells = Vec::new();

    // range_count -----------------------------------------------------------
    let (aos_secs, soa_secs, aos_total, soa_total) = time_pair(
        reps,
        || {
            let mut total = 0usize;
            for _ in 0..iters {
                for fx in fxs {
                    for (leaf, rect) in fx.aos.iter().zip(&fx.rects) {
                        total += aos_range_count(leaf, rect);
                    }
                }
            }
            total
        },
        || {
            let mut total = 0usize;
            for _ in 0..iters {
                for fx in fxs {
                    for (leaf, rect) in fx.soa.iter().zip(&fx.rects) {
                        total += leaf.range_count(rect);
                    }
                }
            }
            total
        },
    );
    assert_eq!(
        aos_total, soa_total,
        "range_count disagrees ({coord}/{leaf_size})"
    );
    cells.push(Cell {
        coord,
        leaf_size,
        kernel: "range_count",
        aos_pps: points_per_run / aos_secs,
        soa_pps: points_per_run / soa_secs,
    });

    // range_visit into a reused arena ---------------------------------------
    let mut arena_a: Vec<Point<T, D>> = Vec::new();
    let mut arena_b: Vec<Point<T, D>> = Vec::new();
    let (aos_secs, soa_secs, aos_hits, soa_hits) = time_pair(
        reps,
        || {
            let mut hits = 0usize;
            for _ in 0..iters {
                for fx in fxs {
                    for (leaf, rect) in fx.aos.iter().zip(&fx.rects) {
                        arena_a.clear();
                        aos_range_visit(leaf, rect, |p: &Point<T, D>| arena_a.push(*p));
                        hits += arena_a.len();
                    }
                }
            }
            hits
        },
        || {
            let mut hits = 0usize;
            for _ in 0..iters {
                for fx in fxs {
                    for (leaf, rect) in fx.soa.iter().zip(&fx.rects) {
                        arena_b.clear();
                        leaf.range_visit(rect, |p: &Point<T, D>| arena_b.push(*p));
                        hits += arena_b.len();
                    }
                }
            }
            hits
        },
    );
    assert_eq!(
        aos_hits, soa_hits,
        "range_visit disagrees ({coord}/{leaf_size})"
    );
    cells.push(Cell {
        coord,
        leaf_size,
        kernel: "range_visit",
        aos_pps: points_per_run / aos_secs,
        soa_pps: points_per_run / soa_secs,
    });

    // kNN distance accumulation ---------------------------------------------
    // One heap per pass, as in a real query: the tree hands the same heap to
    // every leaf it reaches, so the bound from earlier leaves prunes later
    // ones and the steady state is scan-and-reject. (Resetting per leaf would
    // time the layout-independent heap insertion path instead.)
    let mut heap_a = KnnHeap::new(K);
    let mut heap_b = KnnHeap::new(K);
    let (aos_secs, soa_secs, aos_out, soa_out) = time_pair(
        reps,
        || {
            let mut out = 0usize;
            for it in 0..iters {
                for fx in fxs {
                    let q = &fx.queries[it % fx.queries.len()];
                    heap_a.reset(K);
                    for leaf in &fx.aos {
                        aos_knn_offer(leaf, q, &mut heap_a);
                    }
                    out += heap_a.len();
                }
            }
            out
        },
        || {
            let mut out = 0usize;
            for it in 0..iters {
                for fx in fxs {
                    let q = &fx.queries[it % fx.queries.len()];
                    heap_b.reset(K);
                    for leaf in &fx.soa {
                        leaf.knn_offer(q, &mut heap_b);
                    }
                    out += heap_b.len();
                }
            }
            out
        },
    );
    assert_eq!(aos_out, soa_out, "knn disagrees ({coord}/{leaf_size})");
    // Bit-exact check on the full result set, not just the counts.
    assert_eq!(
        heap_a.drain_sorted(),
        heap_b.drain_sorted(),
        "knn results disagree ({coord}/{leaf_size})"
    );
    cells.push(Cell {
        coord,
        leaf_size,
        kernel: "knn_offer",
        aos_pps: points_per_run / aos_secs,
        soa_pps: points_per_run / soa_secs,
    });

    cells
}

/// The flags and their defaults.
pub const USAGE: &str = "psi-bench leaf [--reps 5] [--out BENCH_leaf.json]";

/// Run the sweep and write its file.
pub fn main(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::parse(args, &[])?;
    let reps: usize = flags.get("--reps", 5)?;
    let out_path: String = flags.get("--out", "BENCH_leaf.json".into())?;
    flags.finish()?;
    let leaf_sizes = [16usize, 32, 64];
    let seed = 424242u64;

    // NUM_POOLS independent pools of points per coordinate type, each sliced
    // into leaves; every cell is timed across all pools.
    let pools_i: Vec<Vec<Point<i64, 2>>> = (0..NUM_POOLS)
        .map(|p| workloads::uniform::<2>(POINTS_PER_CELL, 1_000_000_000, seed + p as u64))
        .collect();
    let pools_f: Vec<Vec<Point<f64, 2>>> = pools_i
        .iter()
        .map(|pool| {
            pool.iter()
                .map(|p| Point::new([p.coords[0] as f64 * 1e-3, p.coords[1] as f64 * 1e-3]))
                .collect()
        })
        .collect();

    println!(
        "# psi-bench leaf: {} pools x {} points/cell, leaf sizes {:?}, kernels range_count/range_visit/knn_offer, reps={}",
        NUM_POOLS, POINTS_PER_CELL, leaf_sizes, reps
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &l in &leaf_sizes {
        let fxs: Vec<_> = pools_i.iter().map(|p| fixture::<i64, 2>(p, l)).collect();
        cells.extend(bench_cells("i64", l, &fxs, reps));
        let fxs: Vec<_> = pools_f.iter().map(|p| fixture::<f64, 2>(p, l)).collect();
        cells.extend(bench_cells("f64", l, &fxs, reps));
    }

    let mut all_soa_ge_aos = true;
    for c in &cells {
        let flag = if c.ratio() >= 1.0 {
            ""
        } else {
            "  <-- SoA SLOWER"
        };
        all_soa_ge_aos &= c.ratio() >= 1.0;
        println!(
            "{:<4} leaf={:<3} {:<12} aos={:>12.0} pts/s  soa={:>12.0} pts/s  ratio={:>5.2}{}",
            c.coord,
            c.leaf_size,
            c.kernel,
            c.aos_pps,
            c.soa_pps,
            c.ratio(),
            flag
        );
    }

    let rows = cells.iter().map(|c| {
        Json::obj([
            ("coord", c.coord.into()),
            ("leaf_size", c.leaf_size.into()),
            ("kernel", c.kernel.into()),
            ("aos_points_per_sec", c.aos_pps.into()),
            ("soa_points_per_sec", c.soa_pps.into()),
            ("soa_over_aos", c.ratio().into()),
        ])
    });
    let note = format!(
        "best-of-reps wall clock, AoS/SoA reps interleaved across {NUM_POOLS} independently \
         allocated pools; pts/s = leaf points scanned per second; kNN heap persists across a \
         pass as in a real query; kernels run on one thread"
    );
    let doc = bench_json(
        "leaf_scan_aos_vs_soa",
        [
            ("pools", NUM_POOLS.into()),
            ("points_per_cell", POINTS_PER_CELL.into()),
            ("k", K.into()),
            ("reps", reps.into()),
            ("soa_ge_aos_on_every_cell", all_soa_ge_aos.into()),
            ("note", note.into()),
            ("cells", Json::Arr(rows.collect())),
        ],
    );
    write_json(&out_path, &doc);
    Ok(())
}
