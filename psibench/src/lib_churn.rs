//! The `lib-churn` phase: the paper's own experiment on one of its two
//! contributions (P-Orth or SPaC-H), in-process through `psi::registry` /
//! `DynIndex`.
//!
//! 2-D Varden data. The family is built and then receives rounds: 1 % of
//! the live set moved through `batch_delete` + `batch_insert` (the default
//! `batch_diff` is exactly that), 10 k in-distribution kNN (k = 10), and
//! 10 k range-count plus 10 k range-list boxes. Every third round also
//! rebuilds the family from the live set, and a brute-force oracle checks
//! the final state.

use crate::host::{steal_s, PeakRss};
use crate::obs::TracedWindow;
use crate::report::{num, object};
use crate::rng::Rng;
use crate::trace::{Trace, Tracer};
use crate::{layers, median, quiet_median, Measured, Params};
use psi::registry::{self, BuildOptions, DynIndex};
use psi::{workloads, BruteForce, Point, PointI, Rect, RectI, SpatialIndex};
use std::time::Instant;

const MAX: i64 = workloads::DEFAULT_MAX_COORD_2D;
/// The Varden point sets are fixed; `--seed` draws which points each round
/// moves and every query. Across data seeds, SPaC-H kNN throughput alone
/// varies by about 10 %, which would hide a regression of that size.
const DATA_SEED: u64 = 42;
const K: usize = 10;
/// kNN queries per round; also the number of range-count and of range-list
/// boxes.
const QUERIES: usize = 10_000;
/// Mean points per range box the calibration aims at.
const TARGET_OUTPUT: f64 = 100.0;
/// Every this many rounds, each family is also rebuilt from the live set.
/// Rebuilds spread over the run, like the rounds, so their median sees the
/// same host conditions; a block of rebuilds at the end fell into one
/// host phase and spread 15-25 % across seeds. Odd, so that traced and
/// untraced rounds (which alternate) rebuild equally often.
const REBUILD_EVERY: u64 = 3;
/// Queries of each kind the oracle re-answers.
const ORACLE_SAMPLE: usize = 60;

/// Span names of one family (spans need static names).
struct Names {
    registry: &'static str,
    /// Prefix of the family's layer metrics.
    layer_prefix: &'static str,
    delete: &'static str,
    insert: &'static str,
    knn: &'static str,
    count: &'static str,
    list: &'static str,
    build: &'static str,
}

const FAMILIES: [Names; 2] = [
    Names {
        registry: "p-orth",
        layer_prefix: "porth.",
        delete: "porth.batch_delete",
        insert: "porth.batch_insert",
        knn: "porth.knn_batch",
        count: "porth.range_count_batch",
        list: "porth.range_list_batch",
        build: "porth.build",
    },
    Names {
        registry: "spac-h",
        layer_prefix: "spac.",
        delete: "spac.batch_delete",
        insert: "spac.batch_insert",
        knn: "spac.knn_batch",
        count: "spac.range_count_batch",
        list: "spac.range_list_batch",
        build: "spac.build",
    },
];

/// Per-round (per-build) rates, each with the hypervisor
/// steal during its measurement; each end-to-end metric is the median of
/// the rates measured while the host was quiet ([`quiet_median`]), so a
/// round slowed by a passing burst of another tenant's load does not move
/// it.
#[derive(Default)]
struct Rates {
    update_mpts_s: Vec<(f64, f64)>,
    knn_kqps: Vec<(f64, f64)>,
    range_kqps: Vec<(f64, f64)>,
    build_mpts_s: Vec<(f64, f64)>,
}

/// Work and time the family accrued.
#[derive(Default, Clone, Copy)]
struct Tally {
    update_pts: f64,
    update_s: f64,
    knn_q: f64,
    knn_s: f64,
    range_q: f64,
    range_s: f64,
    /// Nodes visited by queries.
    visited: f64,
    /// Hypervisor steal during the updates, the kNN and the range queries.
    steal: [f64; 3],
}

fn dists(q: &PointI<2>, ans: &[PointI<2>]) -> Vec<i128> {
    ans.iter().map(|p| q.dist_sq(p)).collect()
}

/// Remove `count` random points from `live` (each removal takes one copy).
fn sample_out(live: &mut Vec<PointI<2>>, count: usize, rng: &mut Rng) -> Vec<PointI<2>> {
    (0..count)
        .map(|_| {
            let i = rng.below(live.len());
            live.swap_remove(i)
        })
        .collect()
}

/// Fresh Varden points for insertion, in an order drawn from `rng`: each
/// batch taken from the end is a sample spread over all the set's clusters,
/// so the live set keeps the Varden distribution while it churns.
fn fresh_points(n: usize, data_seed: u64, rng: &mut Rng) -> Vec<PointI<2>> {
    let mut pts = workloads::varden::<2>(n, MAX, data_seed);
    for i in (1..pts.len()).rev() {
        pts.swap(i, rng.below(i + 1));
    }
    pts
}

/// Square boxes centred on the queries, half-side `factor` times the
/// distance to each query's k-th neighbour: local density sets the size, the
/// factor is calibrated by measured output.
fn boxes(queries: &[PointI<2>], knn: &[Vec<PointI<2>>], factor: f64) -> Vec<RectI<2>> {
    queries
        .iter()
        .zip(knn)
        .map(|(q, ans)| {
            let d = ans.last().map_or(0.0, |p| (q.dist_sq(p) as f64).sqrt());
            let h = ((factor * d) as i64).max(1);
            let lo = q.coords.map(|c| (c - h).clamp(0, MAX));
            let hi = q.coords.map(|c| (c + h).clamp(0, MAX));
            Rect::from_corners(Point::new(lo), Point::new(hi))
        })
        .collect()
}

/// The factor that brings the mean output near [`TARGET_OUTPUT`], measured
/// with `range_count` on a sample of in-distribution queries.
fn calibrate(index: &dyn DynIndex<i64, 2>, live: &[PointI<2>], seed: u64) -> f64 {
    let qs = workloads::ind_queries(live, 2_000, seed);
    let knn = index.knn_batch(&qs, K);
    // Uniform local density: 10 points within radius d put 100 points in a
    // square of half-side d·sqrt(10π/4) ≈ 2.8 d.
    let mut factor = 2.8;
    for _ in 0..4 {
        let counts = index.range_count_batch(&boxes(&qs, &knn, factor));
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        factor *= (TARGET_OUTPUT / mean.max(1.0)).sqrt();
    }
    factor
}

pub fn run(p: &Params, family: &str) -> Result<Measured, String> {
    let f = FAMILIES
        .iter()
        .find(|f| f.registry == family)
        .ok_or_else(|| format!("lib-churn runs no family {family:?}"))?;
    let mut m = Measured {
        idle: FAMILIES
            .iter()
            .filter(|o| o.registry != family)
            .map(|o| o.layer_prefix)
            .collect(),
        ..Default::default()
    };
    let epoch = Instant::now();
    let opts = BuildOptions::with_universe(workloads::universe::<2>(MAX));
    let batch = (p.n / 100).max(1);
    let mut peak = PeakRss::default();

    // Set-up: data generation and the build. This one serves the run; the
    // others for the `setup_s` median follow the measured phase.
    let setup = || {
        let data = workloads::varden::<2>(p.n, MAX, DATA_SEED);
        let index = registry::create::<2>(f.registry, &data, &opts).expect("registered family");
        (data, index)
    };
    peak.start()?;
    let t0 = Instant::now();
    let (mut live, mut idx) = setup();
    let first_setup_s = t0.elapsed().as_secs_f64();
    peak.stop()?;

    let mut rng = Rng::new(p.seed);
    let mut reserve = fresh_points(p.n, DATA_SEED + 1, &mut rng);
    let mut factor = calibrate(idx.as_ref(), &live, rng.fork(1));
    let mut tr = Tracer::new("main", false, epoch);
    let mut rates = Rates::default();
    let mut traced = Tally::default();
    let (mut outputs, mut output_rounds) = (0.0f64, 0.0f64);
    // Traced runs alternate untraced and traced rounds, which do the same
    // work; the ratio of their median wall times, span bookkeeping and
    // psi-obs snapshots included, is the tracing overhead.
    let mut round_wall: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut window = TracedWindow::default();
    let mut last_queries = Vec::new();
    let mut last_boxes = Vec::new();

    peak.start()?;
    let t_start = Instant::now();
    let mut round = 0u64;
    // Every run rebuilds at least once; a traced run needs one untraced
    // and one traced round at least.
    while round < REBUILD_EVERY.max(2 * p.trace as u64)
        || t_start.elapsed().as_secs_f64() < p.seconds
    {
        let tracing = p.trace && round % 2 == 1;
        let t_round = Instant::now();
        tr.set_enabled(tracing);
        if tracing {
            window.begin();
        }
        tr.open("lib-churn.round");
        let attempted_before = m.attempted;
        let mut this = Tally::default();

        let ((del, ins), _) = tr.time("bench.make_batch", || {
            let del = sample_out(&mut live, batch, &mut rng);
            if reserve.len() < batch {
                reserve = fresh_points(p.n, DATA_SEED + 2 + round, &mut rng);
            }
            let ins = reserve.split_off(reserve.len() - batch);
            live.extend_from_slice(&ins);
            (del, ins)
        });
        let s0 = steal_s();
        let (removed, dt_del) = tr.time(f.delete, || idx.batch_delete(&del));
        let ((), dt_ins) = tr.time(f.insert, || idx.batch_insert(&ins));
        this.steal[0] = steal_s() - s0;
        m.attempted += 2;
        if removed != del.len() {
            m.failed += 1;
        }
        this.update_pts += (del.len() + ins.len()) as f64;
        this.update_s += (dt_del + dt_ins).as_secs_f64();

        let (qs, _) = tr.time("bench.make_queries", || {
            workloads::ind_queries(&live, QUERIES, rng.fork(round ^ 0xABCD))
        });
        let c0 = psi_parutils::stats::snapshot();
        let s0 = steal_s();
        let (knn_ans, dt) = tr.time(f.knn, || idx.knn_batch(&qs, K));
        this.steal[1] = steal_s() - s0;
        this.visited +=
            psi_parutils::stats::delta(c0, psi_parutils::stats::snapshot()).nodes_visited as f64;
        m.attempted += qs.len() as u64;
        this.knn_q += qs.len() as f64;
        this.knn_s += dt.as_secs_f64();
        let (rects, _) = tr.time("bench.check_knn", || {
            for (q, ans) in qs.iter().zip(&knn_ans) {
                let d = dists(q, ans);
                if d.len() != K || d.windows(2).any(|w| w[0] > w[1]) {
                    m.failed += 1;
                }
            }
            boxes(&qs, &knn_ans, factor)
        });

        let c0 = psi_parutils::stats::snapshot();
        let s0 = steal_s();
        let (counts, dt_c) = tr.time(f.count, || idx.range_count_batch(&rects));
        let (lists, dt_l) = tr.time(f.list, || idx.range_list_batch(&rects));
        this.steal[2] = steal_s() - s0;
        this.visited +=
            psi_parutils::stats::delta(c0, psi_parutils::stats::snapshot()).nodes_visited as f64;
        m.attempted += 2 * rects.len() as u64;
        this.range_q += 2.0 * rects.len() as f64;
        this.range_s += (dt_c + dt_l).as_secs_f64();
        tr.time("bench.check_range", || {
            for ((c, l), r) in counts.iter().zip(&lists).zip(&rects) {
                if *c != l.len() || !l.iter().all(|pt| r.contains(pt)) {
                    m.failed += 1;
                }
            }
        });
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        outputs += mean;
        output_rounds += 1.0;
        // Damped correction: half a step toward the target in log space.
        factor *= (TARGET_OUTPUT / mean.max(1.0)).powf(0.25);

        if round % REBUILD_EVERY == REBUILD_EVERY - 1 {
            let s0 = steal_s();
            let (rebuilt, dt) = tr.time(f.build, || {
                registry::create::<2>(f.registry, &live, &opts).expect("registered family")
            });
            let steal = steal_s() - s0;
            m.attempted += 1;
            if rebuilt.len() != live.len() {
                m.failed += 1;
            }
            rates
                .build_mpts_s
                .push((live.len() as f64 / dt.as_secs_f64() / 1e6, steal));
            tr.time("bench.drop_index", || drop(rebuilt));
        }
        tr.close();
        if tracing {
            window.end((m.attempted - attempted_before) as f64);
        }
        round_wall[tracing as usize].push(t_round.elapsed().as_secs_f64());

        rates
            .update_mpts_s
            .push((this.update_pts / this.update_s / 1e6, this.steal[0]));
        rates
            .knn_kqps
            .push((this.knn_q / this.knn_s / 1e3, this.steal[1]));
        rates
            .range_kqps
            .push((this.range_q / this.range_s / 1e3, this.steal[2]));
        if tracing {
            add(&mut traced, &this);
        }
        last_queries = qs;
        last_boxes = rects;
        round += 1;
    }

    peak.stop()?;

    // Correctness gate: the churned index against the brute-force oracle.
    let oracle = BruteForce::<i64, 2>::build_with(&live, None, ());
    let stride = (last_queries.len() / ORACLE_SAMPLE).max(1);
    m.attempted += 1;
    if idx.len() != live.len() {
        m.failed += 1;
    }
    for j in (0..last_queries.len()).step_by(stride).take(ORACLE_SAMPLE) {
        let q = &last_queries[j];
        let mut got = idx.knn(q, K);
        if p.corrupts("lib-churn") && j == 0 {
            got.pop();
        }
        let r = &last_boxes[j];
        let mut list = idx.range_list(r);
        let mut want = oracle.range_list(r);
        list.sort();
        want.sort();
        m.attempted += 3;
        m.failed += (dists(q, &got) != dists(q, &oracle.knn(q, K))) as u64
            + (idx.range_count(r) != oracle.range_count(r)) as u64
            + (list != want) as u64;
    }

    m.e2e
        .insert("build_mpts_s".into(), quiet_median(&rates.build_mpts_s));
    m.e2e
        .insert("update_mpts_s".into(), quiet_median(&rates.update_mpts_s));
    m.e2e
        .insert("knn_kqps".into(), quiet_median(&rates.knn_kqps));
    m.e2e
        .insert("range_kqps".into(), quiet_median(&rates.range_kqps));
    m.e2e.insert("peak_rss_mb".into(), peak.mib());
    let mean_output = outputs / output_rounds.max(1.0);
    m.info.push((
        "workload".to_string(),
        object(&[
            ("rounds".to_string(), round.to_string()),
            ("live_points".to_string(), live.len().to_string()),
            ("batch_points".to_string(), batch.to_string()),
            ("range_mean_output".to_string(), num(mean_output)),
            ("box_factor".to_string(), num(factor)),
        ]),
    ));

    if p.trace {
        let mut trace = Trace::default();
        trace.add(tr);
        let spans = trace.by_name();
        let t = &traced;
        let per_call = |name: &str| {
            let s = spans.get(name).copied().unwrap_or_default();
            s.total_ns as f64 / 1e9 / (s.calls.max(1)) as f64
        };
        let layer = |what: &str| format!("{}{what}", f.layer_prefix);
        m.layers.insert(layer("delete_s"), per_call(f.delete));
        m.layers.insert(layer("insert_s"), per_call(f.insert));
        m.layers.insert(layer("build_s"), per_call(f.build));
        m.layers
            .insert(layer("knn_us_per_q"), t.knn_s / t.knn_q * 1e6);
        m.layers
            .insert(layer("range_us_per_q"), t.range_s / t.range_q * 1e6);
        m.layers.insert(
            layer("nodes_visited_per_q"),
            t.visited / (t.knn_q + t.range_q),
        );
        m.layers.insert(
            "trace.overhead_pct".into(),
            median(&round_wall[1]) / median(&round_wall[0]) * 100.0 - 100.0,
        );

        let sample: Vec<PointI<2>> = live.iter().step_by(7).take(batch).copied().collect();
        let keys = layers::hilbert_keys(&sample);
        m.layers.insert(
            "sfc.hilbert_mkeys_s".into(),
            layers::hilbert_mkeys_s(&sample),
        );
        m.layers
            .insert("parutils.sort_mkeys_s".into(), layers::sort_mkeys_s(&keys));
        let (range, knn) = layers::leaf_mpts_s(&live, &last_boxes, &last_queries);
        m.layers
            .insert("geometry.leaf_range_count_mpts_s".into(), range);
        m.layers
            .insert("geometry.leaf_knn_offer_mpts_s".into(), knn);
        crate::finish_trace(
            &mut m,
            &trace,
            &[window.wall_s],
            p,
            &format!("{family}-lib-churn"),
        )?;
        m.window = window;
    }
    drop((live, idx, reserve));
    let setup_s = crate::setup_median(p, first_setup_s, || {
        let t0 = Instant::now();
        let built = setup();
        let dt = t0.elapsed().as_secs_f64();
        drop(built);
        Ok(dt)
    })?;
    m.e2e.insert("setup_s".into(), setup_s);
    Ok(m)
}

fn add(into: &mut Tally, t: &Tally) {
    into.update_pts += t.update_pts;
    into.update_s += t.update_s;
    into.knn_q += t.knn_q;
    into.knn_s += t.knn_s;
    into.range_q += t.range_q;
    into.range_s += t.range_s;
    into.visited += t.visited;
}
