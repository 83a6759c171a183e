//! The `serve-read` and `serve-write` phases: psi-netd's defaults run
//! in-process — `NetServer::spawn` (evented) over `PsiServer`, 2 shards,
//! coalescing window 32 — with the run's family (P-Orth or SPaC-H) in the
//! shards, driven over loopback by one load-generator process.
//!
//! Both are closed loops with a fixed number of requests in flight, so no
//! metric echoes an offered rate. Pipelined replies are matched by
//! `req_id`: the coalescer answers each flush grouped by operation, so
//! replies on one connection come back reordered.

use crate::host::{steal_s, PeakRss};
use crate::layers::{self, Frame};
use crate::obs::TracedWindow;
use crate::report::{num, object};
use crate::rng::Rng;
use crate::trace::{Trace, Tracer};
use crate::{median, Measured, Params};
use psi::registry::{self, BuildOptions};
use psi::{workloads, BruteForce, Point, PointI, Rect, RectI, SpatialIndex};
use psi_net::client::WireClient;
use psi_net::loadgen::{checksum_reply, FNV_OFFSET};
use psi_net::wire::{Reply, Request, ERR_BUSY, OP_KNN, OP_RANGE_LIST};
use psi_net::{NetConfig, NetServer};
use psi_server::{DurabilityConfig, IndexFactory, PsiServer, ServeConfig};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAX: i64 = workloads::DEFAULT_MAX_COORD_2D;
const SHARDS: usize = 2;
const COALESCE: usize = 32;
/// The writer queue's capacity; a batch that finds it full is refused.
pub const WRITER_QUEUE: usize = 8;
const K: usize = 10;
/// Requests each serve-read connection keeps in flight.
const READ_WINDOW: usize = 8;
/// Points one serve-write batch moves (deleted and re-inserted elsewhere).
const MOVE_BATCH: usize = 1_000;
/// A batch not visible this long after it was sent is a failed operation.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(5);
/// Pause after a read-back that does not yet see its batch. Polling back to
/// back would spend a core the writer needs; the pause bounds the probe rate
/// while costing under 1 % of a visibility latency near 60 ms.
const PROBE_PAUSE: Duration = Duration::from_micros(250);
/// Pause after each of serve-write's reads. Back to back, the reader took
/// about 20 k reads/s of server and client time from the cores the writer
/// needs, and write throughput spread twice as wide from run to run.
const READ_PAUSE: Duration = Duration::from_millis(1);
/// Distinct read requests; the generators cycle through them.
const READ_POOL: usize = 1 << 16;
/// Requests the in-process replay answers per batched call.
const REPLAY_CHUNK: usize = 2_048;
/// Mean points per range box.
const TARGET_OUTPUT: usize = 100;
/// Reads the brute-force oracle re-answers.
const ORACLE_SAMPLE: usize = 30;

/// One read request of the mix.
#[derive(Clone, Copy)]
enum Op {
    Knn(PointI<2>),
    Count(RectI<2>),
    List(RectI<2>),
}

impl Op {
    fn request(&self) -> Request<i64, 2> {
        match *self {
            Op::Knn(q) => Request::Knn {
                q,
                k: K as u32,
                at: None,
            },
            Op::Count(rect) => Request::RangeCount { rect, at: None },
            Op::List(rect) => Request::RangeList { rect, at: None },
        }
    }
}

/// The read mix: the kNN/kNN/range_count/range_list rotation (2:1:1) of
/// the repository's load generators (`psi_net::loadgen`,
/// `psi_server::loadgen`), boxes sized for about 100 points of uniform data.
fn read_pool(data: &[PointI<2>], seed: u64) -> Vec<Op> {
    let qs = workloads::ind_queries(data, READ_POOL, seed);
    let rects = workloads::range_queries(data, MAX, TARGET_OUTPUT, READ_POOL, seed);
    (0..READ_POOL)
        .map(|i| match i % 4 {
            0 | 1 => Op::Knn(qs[i]),
            2 => Op::Count(rects[i]),
            _ => Op::List(rects[i]),
        })
        .collect()
}

/// Reply checksum, the one the repository's socket load generator uses.
/// Answers come in a fixed order (kNN by distance, range lists shard by
/// shard), so a replay on the same view reproduces it bit for bit.
fn answer_hash(op: &Op, reply: &Reply<i64, 2>) -> Option<u64> {
    match (op, reply) {
        (Op::Knn(_) | Op::List(_), Reply::Points(_)) | (Op::Count(_), Reply::Count(_)) => {
            Some(checksum_reply(FNV_OFFSET, reply))
        }
        _ => None,
    }
}

/// The in-process replay: the pool run through the batched calls of one
/// pinned view, exactly as the coalescer runs a flush, a chunk at a time
/// so the answers are never all resident. `f` sees each op's answer.
fn replay(server: &PsiServer<i64, 2>, pool: &[Op], mut f: impl FnMut(usize, &Reply<i64, 2>)) {
    let view = server.view();
    for (c, chunk) in pool.chunks(REPLAY_CHUNK).enumerate() {
        let base = c * REPLAY_CHUNK;
        let pick = |f: fn(&Op) -> bool| {
            (0..chunk.len())
                .filter(|&i| f(&chunk[i]))
                .collect::<Vec<_>>()
        };
        let rect = |o: &Op| match *o {
            Op::Count(r) | Op::List(r) => r,
            Op::Knn(_) => unreachable!(),
        };
        let knn = pick(|o| matches!(o, Op::Knn(_)));
        let qs: Vec<PointI<2>> = knn
            .iter()
            .map(|&i| match chunk[i] {
                Op::Knn(q) => q,
                _ => unreachable!(),
            })
            .collect();
        for (&i, a) in knn.iter().zip(view.knn_batch(&qs, K)) {
            f(base + i, &Reply::Points(a));
        }
        let counts = pick(|o| matches!(o, Op::Count(_)));
        let rs: Vec<RectI<2>> = counts.iter().map(|&i| rect(&chunk[i])).collect();
        for (&i, c) in counts.iter().zip(view.range_count_batch(&rs)) {
            f(base + i, &Reply::Count(c as u64));
        }
        let lists = pick(|o| matches!(o, Op::List(_)));
        let rs: Vec<RectI<2>> = lists.iter().map(|&i| rect(&chunk[i])).collect();
        for (&i, l) in lists.iter().zip(view.range_list_batch(&rs)) {
            f(base + i, &Reply::Points(l));
        }
    }
}

/// Does `reply` answer `op` like the brute-force oracle over `data` does?
/// kNN compares distances (ties may pick different points).
fn oracle_agrees(oracle: &BruteForce<i64, 2>, op: &Op, reply: &Reply<i64, 2>) -> bool {
    let d = |q: &PointI<2>, ps: &[PointI<2>]| ps.iter().map(|p| q.dist_sq(p)).collect::<Vec<_>>();
    match (op, reply) {
        (Op::Knn(q), Reply::Points(got)) => d(q, got) == d(q, &oracle.knn(q, K)),
        (Op::Count(r), Reply::Count(c)) => *c as usize == oracle.range_count(r),
        (Op::List(r), Reply::Points(got)) => {
            let (mut a, mut b) = (got.clone(), oracle.range_list(r));
            a.sort();
            b.sort();
            a == b
        }
        _ => false,
    }
}

/// A running server plus its socket front-end.
struct Boot {
    server: Arc<PsiServer<i64, 2>>,
    net: NetServer,
}

fn boot(
    data: &[PointI<2>],
    durability: Option<DurabilityConfig>,
    family: &'static str,
) -> Result<Boot, String> {
    let universe = workloads::universe::<2>(MAX);
    let opts = BuildOptions::with_universe(universe);
    let factory: IndexFactory<i64, 2> = Arc::new(move |pts: &[PointI<2>]| {
        registry::create::<2>(family, pts, &opts).expect("registered family")
    });
    let server = Arc::new(PsiServer::new(
        data,
        &universe,
        ServeConfig {
            shards: SHARDS,
            coalesce_max_batch: COALESCE,
            writer_queue: WRITER_QUEUE,
            durability,
            ..Default::default()
        },
        factory,
    ));
    let net = NetServer::spawn(
        Arc::clone(&server),
        psi_net::loopback(),
        NetConfig::default(),
    )
    .map_err(|e| format!("cannot bind the loopback server: {e}"))?;
    Ok(Boot { server, net })
}

impl Boot {
    fn connect(&self) -> Result<WireClient<i64, 2>, String> {
        WireClient::connect(self.net.addr()).map_err(|e| format!("cannot connect: {e}"))
    }

    /// Stop the front-end first, then the server (the order the coalescer
    /// requires).
    fn shutdown(self) {
        self.net.shutdown();
        Arc::try_unwrap(self.server)
            .ok()
            .expect("the front-end released the server")
            .shutdown();
    }

    /// Every stored point, sorted.
    fn points(&self) -> Vec<PointI<2>> {
        let view = self.server.view();
        let mut out = Vec::new();
        for i in 0..view.shard_count() {
            view.snapshot(i).index().extract_points(&mut out);
        }
        out.sort();
        out
    }
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One closed slice of the measured window.
struct Slice {
    secs: f64,
    done: f64,
    /// Host-wide hypervisor steal during the slice, seconds.
    steal: f64,
    /// Latency samples taken in the slice, milliseconds.
    samples: Vec<f64>,
}

/// Splits the measured window into slices; a traced run alternates
/// untraced and traced ones, so their rates give the tracing overhead.
/// Before the window is warm-up: caches fill and lazy set-up finishes.
///
/// The end-to-end figures come from the quiet slices only: those whose
/// hypervisor steal is at most the median slice's (the rule of
/// [`crate::quiet_median`]).
/// On a shared host, another tenant's load comes and goes within a run;
/// the slices it hits are slower for reasons outside the program.
struct Slicer {
    trace: bool,
    root: &'static str,
    /// Slice length: a twentieth of the window, at most half a second.
    slice: Duration,
    t_measure: Instant,
    deadline: Instant,
    /// The open slice inside the window: its index and whether it is
    /// traced.
    cur: Option<(u128, bool)>,
    start: Instant,
    steal0: f64,
    count: f64,
    samples: Vec<f64>,
    /// Seconds and completions per slice kind (untraced, traced).
    secs: [f64; 2],
    done: [f64; 2],
    slices: Vec<Slice>,
}

impl Slicer {
    fn new(p: &Params, root: &'static str, start: Instant) -> Self {
        let t_measure = start + Duration::from_secs_f64((p.seconds / 10.0).min(1.0));
        Slicer {
            trace: p.trace,
            root,
            slice: Duration::from_secs_f64((p.seconds / 20.0).min(0.5)),
            t_measure,
            deadline: t_measure + Duration::from_secs_f64(p.seconds),
            cur: None,
            start,
            steal0: 0.0,
            count: 0.0,
            samples: Vec::new(),
            secs: [0.0; 2],
            done: [0.0; 2],
            slices: Vec::new(),
        }
    }

    fn measuring(&self) -> bool {
        self.cur.is_some()
    }

    fn traced(&self) -> bool {
        matches!(self.cur, Some((_, true)))
    }

    /// Move to the slice `now` falls in, closing and opening spans and the
    /// traced window at each boundary.
    fn tick(&mut self, now: Instant, tr: &mut Tracer, mut window: Option<&mut TracedWindow>) {
        let want = if now < self.t_measure || now >= self.deadline {
            None
        } else {
            let slice = (now - self.t_measure).as_nanos() / self.slice.as_nanos();
            Some((slice, self.trace && slice % 2 == 1))
        };
        if want == self.cur {
            return;
        }
        // A slice's time is taken right inside the traced window's
        // snapshots, so it covers exactly what the slice's spans cover.
        if let Some((_, traced)) = self.cur {
            if traced {
                tr.close();
            }
            let secs = self.start.elapsed().as_secs_f64();
            self.secs[traced as usize] += secs;
            self.done[traced as usize] += self.count;
            self.slices.push(Slice {
                secs,
                done: self.count,
                steal: steal_s() - self.steal0,
                samples: std::mem::take(&mut self.samples),
            });
            if traced {
                if let Some(w) = window.as_deref_mut() {
                    w.end(self.count);
                }
            }
        }
        self.cur = want;
        self.count = 0.0;
        let traced = self.traced();
        tr.set_enabled(traced);
        if traced {
            if let Some(w) = window {
                w.begin();
            }
        }
        self.steal0 = steal_s();
        self.start = Instant::now();
        if traced {
            tr.open(self.root);
        }
    }

    /// Count one completion in the open slice.
    fn complete(&mut self) {
        if self.cur.is_some() {
            self.count += 1.0;
        }
    }

    /// Record a latency sample (milliseconds) in the open slice.
    fn sample(&mut self, ms: f64) {
        if self.cur.is_some() {
            self.samples.push(ms);
        }
    }

    /// Close the last slice.
    fn finish(&mut self, tr: &mut Tracer, window: Option<&mut TracedWindow>) {
        let end = Instant::now().max(self.deadline);
        self.tick(end, tr, window);
    }

    fn quiet(&self) -> impl Iterator<Item = &Slice> {
        let cut = median(&self.slices.iter().map(|s| s.steal).collect::<Vec<_>>());
        self.slices.iter().filter(move |s| s.steal <= cut)
    }

    /// Quiet slices and all slices, for the report.
    fn quiet_json(&self) -> String {
        format!("\"{} of {}\"", self.quiet().count(), self.slices.len())
    }

    /// Completions per second of the median quiet slice.
    fn quiet_median_rate(&self) -> f64 {
        median(&self.quiet().map(|s| s.done / s.secs).collect::<Vec<_>>())
    }

    /// Completions per second over all quiet slices together (for rates
    /// of a few completions per slice, where a per-slice median would
    /// only take a few distinct values).
    fn quiet_rate(&self) -> f64 {
        let (done, secs) = self
            .quiet()
            .fold((0.0, 0.0), |(d, t), s| (d + s.done, t + s.secs));
        done / secs
    }

    /// Median of the latency samples of the quiet slices.
    fn quiet_sample_median(&self) -> f64 {
        median(
            &self
                .quiet()
                .flat_map(|s| s.samples.iter().copied())
                .collect::<Vec<_>>(),
        )
    }

    /// Tracing overhead: untraced over traced completion rate, in percent.
    fn overhead_pct(&self) -> f64 {
        (self.done[0] / self.secs[0]) / (self.done[1] / self.secs[1]) * 100.0 - 100.0
    }
}

/// Layer metrics serve-read takes after its measured phase: the
/// coalescer's batching, the server-side latency and the pinned view's
/// batched kNN.
fn read_layers(m: &mut Measured, boot: &Boot, w: &TracedWindow, pool: &[Op]) {
    let (served, flushes) = (
        w.counter("psi_serve_requests_total"),
        w.counter("psi_serve_flushes_total"),
    );
    m.layers
        .insert("server.coalesce.factor".into(), served / flushes.max(1.0));
    let lat = w.hist("psi_net_request_latency_ns");
    m.layers.insert(
        "net.server_latency_us_p50".into(),
        lat.quantile(0.5) as f64 / 1e3,
    );
    m.layers.insert(
        "server.view.knn_us_per_q".into(),
        layers::view_knn_us_per_q(&boot.server.view(), &knn_queries(pool), COALESCE),
    );
}

fn knn_queries(pool: &[Op]) -> Vec<PointI<2>> {
    pool.iter()
        .filter_map(|o| match o {
            Op::Knn(q) => Some(*q),
            _ => None,
        })
        .collect()
}

/// Replies the traced run encodes and decodes for `net.codec_ns_per_frame`
/// (the count replies among them are skipped).
const CODEC_FRAMES: usize = 3_000;

/// The codec-measurement frame of a kNN or range_list reply.
fn reply_frame(op: &Op, reply: &Reply<i64, 2>) -> Option<Frame> {
    match op {
        Op::Knn(_) => Some(Frame::Reply(OP_KNN, reply.clone())),
        Op::List(_) => Some(Frame::Reply(OP_RANGE_LIST, reply.clone())),
        Op::Count(_) => None,
    }
}

/// Points a range reply returns (`None` for kNN).
fn range_output(reply: &Reply<i64, 2>, op: &Op) -> Option<f64> {
    match (op, reply) {
        (Op::List(_), Reply::Points(p)) => Some(p.len() as f64),
        (Op::Count(_), Reply::Count(c)) => Some(*c as f64),
        _ => None,
    }
}

// ------------------------------------------------------------ serve-read

/// A request on the wire: which pool entry it asks, and when it left.
struct InFlight {
    op: usize,
    sent: Instant,
}

pub fn run_read(p: &Params, family: &'static str) -> Result<Measured, String> {
    let mut m = Measured::default();
    let epoch = Instant::now();
    let mut peak = PeakRss::default();

    // Set-up: data, both shards' builds, server and front-end start, two
    // connections. This one serves the run; the others for the `setup_s`
    // median follow the measured phase.
    let setup = || -> Result<_, String> {
        let data = workloads::uniform::<2>(p.n, MAX, p.seed);
        let b = boot(&data, None, family)?;
        let conns = [b.connect()?, b.connect()?];
        Ok((b, data, conns))
    };
    peak.start()?;
    let t0 = Instant::now();
    let (b, data, mut conns) = setup()?;
    let first_setup_s = t0.elapsed().as_secs_f64();
    peak.stop()?;

    // The expected answers: checksums of the in-process replay, which is
    // itself checked against the brute-force oracle on a sample.
    let pool = read_pool(&data, p.seed ^ 0x5EAD);
    let oracle = BruteForce::<i64, 2>::build_with(&data, None, ());
    drop(data);
    let mut expected = vec![0u64; pool.len()];
    let mut outputs = Vec::new();
    let stride = pool.len() / ORACLE_SAMPLE;
    replay(&b.server, &pool, |i, reply| {
        let op = &pool[i];
        expected[i] = answer_hash(op, reply).expect("replay answers match their ops");
        outputs.extend(range_output(reply, op));
        if p.trace && i < CODEC_FRAMES {
            m.frames.extend(reply_frame(op, reply));
        }
        if i % stride == 0 && i / stride < ORACLE_SAMPLE {
            m.attempted += 1;
            m.failed += !oracle_agrees(&oracle, op, reply) as u64;
        }
    });
    drop(oracle);

    let mut tr = Tracer::new("generator", false, epoch);
    let mut window = TracedWindow::default();
    let net0 = crate::obs::snap();
    let mut inflight: [HashMap<u64, InFlight>; 2] = [HashMap::new(), HashMap::new()];
    let mut next = 0usize;
    let mut checksum = 0u64;
    let mut corrupt = p.corrupts("serve-read");

    peak.start()?;
    let mut sl = Slicer::new(p, "serve-read.slice", Instant::now());
    for (c, conn) in conns.iter_mut().enumerate() {
        for _ in 0..READ_WINDOW {
            let op = next % READ_POOL;
            let id = conn.send(&pool[op].request()).map_err(io("send"))?;
            inflight[c].insert(
                id,
                InFlight {
                    op,
                    sent: Instant::now(),
                },
            );
            next += 1;
        }
    }
    while inflight.iter().any(|f| !f.is_empty()) {
        for (c, conn) in conns.iter_mut().enumerate() {
            if inflight[c].is_empty() {
                continue;
            }
            sl.tick(Instant::now(), &mut tr, Some(&mut window));
            let (got, _) = tr.time("net.recv", || conn.recv());
            let (id, reply) = got.map_err(io("recv"))?;
            let now = Instant::now();
            let Some(f) = inflight[c].remove(&id) else {
                m.failed += 1;
                continue;
            };
            tr.time("bench.check", || {
                m.attempted += 1;
                let mut h = answer_hash(&pool[f.op], &reply);
                if corrupt {
                    h = h.map(|h| h ^ 1);
                    corrupt = false;
                }
                if h != Some(expected[f.op]) {
                    m.failed += 1;
                }
                checksum = checksum.wrapping_add(h.unwrap_or(0));
            });
            if sl.measuring() {
                sl.complete();
                if f.sent >= sl.t_measure {
                    sl.sample((now - f.sent).as_secs_f64() * 1e3);
                }
            }
            if now < sl.deadline {
                let op = next % READ_POOL;
                let (id, _) = tr.time("net.send", || conn.send(&pool[op].request()));
                inflight[c].insert(id.map_err(io("send"))?, InFlight { op, sent: now });
                next += 1;
            }
        }
    }
    sl.finish(&mut tr, Some(&mut window));
    peak.stop()?;
    let completed = sl.done[0] + sl.done[1];
    m.e2e
        .insert("read_kqps".into(), sl.quiet_median_rate() / 1e3);
    m.e2e.insert("read_p50_ms".into(), sl.quiet_sample_median());
    m.e2e.insert("peak_rss_mb".into(), peak.mib());
    let net1 = crate::obs::snap();
    let busy = net1.counter_since(&net0, "psi_net_errors_total");

    m.info.push((
        "workload".to_string(),
        object(&[
            ("reads".to_string(), num(completed)),
            ("quiet_slices".to_string(), sl.quiet_json()),
            (
                "range_mean_output".to_string(),
                num(outputs.iter().sum::<f64>() / outputs.len().max(1) as f64),
            ),
            ("reply_checksum".to_string(), format!("\"{checksum:016x}\"")),
            ("net_errors".to_string(), num(busy)),
        ]),
    ));

    if p.trace {
        m.layers.insert("net.errors".into(), busy);
        read_layers(&mut m, &b, &window, &pool);
        m.layers
            .insert("trace.overhead_pct".into(), sl.overhead_pct());
        let mut trace = Trace::default();
        trace.add(tr);
        crate::finish_trace(
            &mut m,
            &trace,
            &[sl.secs[1]],
            p,
            &format!("{family}-serve-read"),
        )?;
        m.window = window;
    }
    drop(conns);
    b.shutdown();
    let setup_s = crate::setup_median(p, first_setup_s, || {
        let t0 = Instant::now();
        let (b, _, conns) = setup()?;
        let dt = t0.elapsed().as_secs_f64();
        drop(conns);
        b.shutdown();
        Ok(dt)
    })?;
    m.e2e.insert("setup_s".into(), setup_s);
    Ok(m)
}

// ----------------------------------------------------------- serve-write

/// The data set's x coordinates are even and fresh points' are odd, so an
/// inserted point is never already live. Fresh points are the images of
/// distinct counters under a bijection of `[0, FRESH_CELLS)` (every odd x
/// times every y), so they are distinct from one another too.
const FRESH_CELLS: u64 = (MAX as u64 / 2) * (MAX as u64 + 1);

/// A bijection of `[0, 2^59)` that scatters consecutive counters
/// (xor-shifts and odd multipliers, each invertible modulo `2^59`).
fn scramble(mut v: u64) -> u64 {
    const MASK: u64 = (1 << 59) - 1;
    v = (v ^ (v >> 31)).wrapping_mul(0x7FB5_D329_728E_A185) & MASK;
    v = (v ^ (v >> 27)).wrapping_mul(0x81DA_DEF4_BC2D_D44D) & MASK;
    v ^ (v >> 33)
}

/// serve-write's data: uniform points with x rounded down to even.
fn write_data(n: usize, seed: u64) -> Vec<PointI<2>> {
    let mut data = workloads::uniform::<2>(n, MAX, seed);
    for p in &mut data {
        p.coords[0] &= !1;
    }
    data
}

/// The benchmark's offline replica of the served set: every batch it sends
/// is applied here first, so the final server state must equal it.
struct Model {
    /// Points later batches may delete.
    movable: Vec<PointI<2>>,
    /// One point per batch that no batch deletes: a read that finds it
    /// proves the batch visible.
    markers: Vec<PointI<2>>,
    /// The next fresh point's counter (seeded start).
    fresh: u64,
}

impl Model {
    fn new(data: Vec<PointI<2>>, seed: u64) -> Self {
        Model {
            movable: data,
            markers: Vec::new(),
            fresh: seed % (FRESH_CELLS / 2),
        }
    }

    /// A point never handed out before (cycle-walking the bijection into
    /// `[0, FRESH_CELLS)`).
    fn fresh_point(&mut self) -> PointI<2> {
        let mut v = scramble(self.fresh);
        while v >= FRESH_CELLS {
            v = scramble(v);
        }
        self.fresh += 1;
        let side = MAX as u64 + 1;
        Point::new([(2 * (v / side) + 1) as i64, (v % side) as i64])
    }

    /// One move batch: `MOVE_BATCH` live points deleted, as many fresh ones
    /// inserted. The marker is the fresh point farthest along dimension 0,
    /// so it lies in the last stripe, which the writer publishes last.
    fn next_batch(&mut self, rng: &mut Rng) -> (Vec<PointI<2>>, Vec<PointI<2>>, PointI<2>) {
        let delete: Vec<PointI<2>> = (0..MOVE_BATCH)
            .map(|_| self.movable.swap_remove(rng.below(self.movable.len())))
            .collect();
        let insert: Vec<PointI<2>> = (0..MOVE_BATCH).map(|_| self.fresh_point()).collect();
        let at = (0..insert.len())
            .max_by_key(|&i| insert[i].coords[0])
            .expect("non-empty batch");
        let marker = insert[at];
        self.movable.extend(
            insert
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != at)
                .map(|(_, p)| *p),
        );
        self.markers.push(marker);
        (delete, insert, marker)
    }

    fn sorted(&self) -> Vec<PointI<2>> {
        let mut all: Vec<PointI<2>> = self.movable.iter().chain(&self.markers).copied().collect();
        all.sort();
        all
    }
}

/// A batch sent and not yet seen by a read.
struct Pending {
    /// The `ApplyBatch` request's id.
    id: u64,
    marker: PointI<2>,
    sent: Instant,
}

/// What the writer thread measured.
#[derive(Default)]
struct WriterOut {
    batches: u64,
    probes: u64,
    refused: u64,
    attempted: u64,
    failed: u64,
    queue_depth: Vec<f64>,
    /// Points deleted plus inserted by the batches sent in traced slices.
    user_points_traced: f64,
    frames: Vec<Frame>,
}

/// Connection A: move batches with `p.write_window` in flight, each
/// complete when a read-back of its marker on the same connection sees it.
/// Writes go through `send`/`recv`, so an `ERR_BUSY` refusal is counted,
/// not retried; a refused batch, an error reply or a batch not visible
/// within `VISIBLE_TIMEOUT` is a failed operation and ends the sending.
fn writer(
    p: &Params,
    conn: &mut WireClient<i64, 2>,
    model: &mut Model,
    start: Instant,
    tr: &mut Tracer,
    window: &mut TracedWindow,
) -> Result<(WriterOut, Slicer), String> {
    let mut out = WriterOut::default();
    let mut rng = Rng::new(p.seed ^ 0x0032_17E5);
    let mut sl = Slicer::new(p, "serve-write.writer.slice", start);
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut unacked: HashSet<u64> = HashSet::new();
    // The outstanding read-back: its id and the id of the batch it asks
    // about.
    let mut probe: Option<(u64, u64)> = None;
    let mut stopped = false;
    loop {
        let now = Instant::now();
        sl.tick(now, tr, Some(window));
        stopped |= now >= sl.deadline;
        while !stopped && pending.len() < p.write_window {
            let ((delete, insert, marker), _) =
                tr.time("bench.make_batch", || model.next_batch(&mut rng));
            if out.frames.len() < 8 {
                out.frames.push(Frame::Request(Request::ApplyBatch {
                    delete: delete.clone(),
                    insert: insert.clone(),
                }));
            }
            if sl.traced() {
                out.user_points_traced += (delete.len() + insert.len()) as f64;
                if out.batches % 8 == 0 {
                    let depth = crate::obs::snap().gauge("psi_serve_writer_queue_depth");
                    out.queue_depth.push(depth as f64);
                }
            }
            let req = Request::ApplyBatch { delete, insert };
            let (id, _) = tr.time("net.send", || conn.send(&req));
            let id = id.map_err(io("send"))?;
            unacked.insert(id);
            pending.push_back(Pending {
                id,
                marker,
                sent: Instant::now(),
            });
            out.batches += 1;
            out.attempted += 1;
        }
        if pending.is_empty() && unacked.is_empty() {
            break;
        }
        if probe.is_none() {
            if let Some(front) = pending.front() {
                let req = Request::RangeCount {
                    rect: Rect::singleton(front.marker),
                    at: None,
                };
                let (id, _) = tr.time("net.send", || conn.send(&req));
                probe = Some((id.map_err(io("send"))?, front.id));
                out.probes += 1;
            }
        }
        let (got, _) = tr.time("net.recv", || conn.recv());
        let (id, reply) = got.map_err(io("recv"))?;
        let now = Instant::now();
        if let Some((_, batch)) = probe.filter(|&(probe_id, _)| probe_id == id) {
            probe = None;
            // A batch refused meanwhile has left `pending`: nothing to see.
            let Some(front) = pending.front().filter(|b| b.id == batch) else {
                continue;
            };
            match reply {
                Reply::Count(0) if now - front.sent < VISIBLE_TIMEOUT => {
                    std::thread::sleep(PROBE_PAUSE)
                }
                Reply::Count(1) => {
                    if sl.measuring() {
                        sl.complete();
                        if front.sent >= sl.t_measure {
                            sl.sample((now - front.sent).as_secs_f64() * 1e3);
                        }
                    }
                    pending.pop_front();
                }
                _ => {
                    out.failed += 1;
                    stopped = true;
                    pending.pop_front();
                }
            }
        } else if unacked.remove(&id) {
            if !matches!(reply, Reply::BatchOk) {
                // A refused batch never applies: the model is now ahead of
                // the server, which the final-state check reports.
                if matches!(reply, Reply::Error { code, .. } if code == ERR_BUSY) {
                    out.refused += 1;
                }
                out.failed += 1;
                stopped = true;
                pending.retain(|b| b.id != id);
            }
        } else {
            out.failed += 1;
        }
    }
    sl.finish(tr, Some(window));
    Ok((out, sl))
}

/// What the reader thread measured.
#[derive(Default)]
struct ReaderOut {
    attempted: u64,
    failed: u64,
    outputs: Vec<f64>,
    frames: Vec<Frame>,
}

/// Is `reply` a well-formed answer to `op`? Writes run beside these reads,
/// so their values are checked for shape only.
fn well_formed(op: &Op, reply: &Reply<i64, 2>) -> bool {
    match (op, reply) {
        (Op::Knn(q), Reply::Points(ps)) => {
            ps.len() == K && ps.windows(2).all(|w| q.dist_sq(&w[0]) <= q.dist_sq(&w[1]))
        }
        (Op::Count(_), Reply::Count(_)) => true,
        (Op::List(r), Reply::Points(ps)) => ps.iter().all(|pt| r.contains(pt)),
        _ => false,
    }
}

/// Connection B: reads one at a time from the read mix, [`READ_PAUSE`]
/// apart.
fn reader(
    p: &Params,
    conn: &mut WireClient<i64, 2>,
    pool: &[Op],
    start: Instant,
    tr: &mut Tracer,
) -> Result<(ReaderOut, Slicer), String> {
    let mut out = ReaderOut::default();
    let mut sl = Slicer::new(p, "serve-write.reader.slice", start);
    let mut corrupt = p.corrupts("serve-write");
    let mut i = 0;
    loop {
        let now = Instant::now();
        sl.tick(now, tr, None);
        if now >= sl.deadline {
            break;
        }
        let op = &pool[i % pool.len()];
        i += 1;
        let t0 = Instant::now();
        let (got, _) = tr.time("net.call", || conn.call(&op.request()));
        let mut reply = got.map_err(io("read"))?;
        let dt = t0.elapsed();
        if corrupt {
            if let Reply::Points(ps) = &mut reply {
                ps.reverse();
                ps.push(Point::new([-1, -1]));
                corrupt = false;
            }
        }
        out.attempted += 1;
        tr.time("bench.check", || {
            if !well_formed(op, &reply) {
                out.failed += 1;
            }
        });
        match &reply {
            Reply::Count(c) => out.outputs.push(*c as f64),
            Reply::Points(ps) if matches!(op, Op::List(_)) => out.outputs.push(ps.len() as f64),
            _ => {}
        }
        if out.frames.len() < 1_000 && !matches!(op, Op::Count(_)) {
            let code = if matches!(op, Op::Knn(_)) {
                OP_KNN
            } else {
                OP_RANGE_LIST
            };
            out.frames.push(Frame::Reply(code, reply.clone()));
        }
        if sl.measuring() {
            sl.complete();
            sl.sample(dt.as_secs_f64() * 1e3);
        }
        tr.time("bench.pause", || std::thread::sleep(READ_PAUSE));
    }
    sl.finish(tr, None);
    Ok((out, sl))
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot clear {}: {e}", dir.display())),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

pub fn run_write(p: &Params, family: &'static str) -> Result<Measured, String> {
    let mut m = Measured::default();
    let epoch = Instant::now();
    let dir = p.out_dir.join("serve-write-data");
    let durable = || Some(DurabilityConfig::new(&dir));
    let mut peak = PeakRss::default();
    let fingerprint = |b: &Boot| checksum_reply(FNV_OFFSET, &Reply::Points(b.points()));

    // Set-up: data, build and initial checkpoint on an empty data directory,
    // front-end start, one more checkpoint, shutdown, restart over the same
    // directory (recovery), two connections; and a check that the restart
    // recovered the state before it. This one serves the run; the others
    // for the `setup_s` median follow the measured phase. Times: set-up,
    // checkpoint, recovery.
    let setup = |peak: &mut PeakRss, m: &mut Measured| -> Result<_, String> {
        fresh_dir(&dir)?;
        peak.start()?;
        let t0 = Instant::now();
        let data = write_data(p.n, p.seed);
        let b = boot(&data, durable(), family)?;
        if !b.server.is_durable() {
            return Err(format!("no durable server over {}", dir.display()));
        }
        let t_ck = Instant::now();
        b.server.checkpoint().map_err(io("checkpoint"))?;
        let checkpoint = t_ck.elapsed().as_secs_f64();
        let mut setup = t0.elapsed().as_secs_f64();
        peak.stop()?;
        let before = fingerprint(&b);
        peak.start()?;
        let t_stop = Instant::now();
        b.shutdown();
        let t_rec = Instant::now();
        let b = boot(&[], durable(), family)?;
        let recover = t_rec.elapsed().as_secs_f64();
        let conns = [b.connect()?, b.connect()?];
        setup += t_stop.elapsed().as_secs_f64();
        peak.stop()?;
        m.attempted += 1;
        m.failed += (fingerprint(&b) != before) as u64;
        Ok((b, data, conns, [setup, checkpoint, recover]))
    };
    let (b, data, [mut conn_a, mut conn_b], first) = setup(&mut peak, &mut m)?;
    let (mut ckpts, mut recovers) = (vec![first[1]], vec![first[2]]);

    let pool = read_pool(&data, p.seed ^ 0x5EAD);
    let mut model = Model::new(data, p.seed);
    let mut window = TracedWindow::default();
    let (mut tr_a, mut tr_b) = (
        Tracer::new("writer", false, epoch),
        Tracer::new("reader", false, epoch),
    );
    let net0 = crate::obs::snap();
    peak.start()?;
    let start = Instant::now();
    let (w, r) = std::thread::scope(|s| {
        let a = s.spawn(|| writer(p, &mut conn_a, &mut model, start, &mut tr_a, &mut window));
        let r = reader(p, &mut conn_b, &pool, start, &mut tr_b);
        (a.join().expect("writer thread"), r)
    });
    peak.stop()?;
    let ((w, w_sl), (r, r_sl)) = (w?, r?);
    let net1 = crate::obs::snap();
    m.attempted += w.attempted + r.attempted;
    m.failed += w.failed + r.failed;

    m.e2e.insert(
        "write_kpts_s".into(),
        w_sl.quiet_rate() * MOVE_BATCH as f64 / 1e3,
    );
    m.e2e
        .insert("write_visible_p50_ms".into(), w_sl.quiet_sample_median());
    m.e2e.insert(
        "read_beside_write_p50_ms".into(),
        r_sl.quiet_sample_median(),
    );
    m.e2e.insert("peak_rss_mb".into(), peak.mib());

    // Correctness gate: the count is conserved, the final state equals the
    // offline replay, and a restart recovers exactly that state.
    b.server.quiesce();
    m.attempted += 3;
    let universe = workloads::universe::<2>(MAX);
    let total = conn_b.range_count(&universe).map_err(io("count"))?;
    m.failed += (total != p.n) as u64;
    let want = model.sorted();
    m.failed += (b.points() != want) as u64;
    drop((conn_a, conn_b));
    if p.trace {
        m.layers
            .insert("server.router.pin_ns".into(), layers::pin_ns(&b.server));
        m.layers.insert(
            "server.coalesce.handoff_us".into(),
            layers::coalesce_handoff_us(&b.server, &knn_queries(&pool)),
        );
    }
    let t_rec = Instant::now();
    b.shutdown();
    let b = boot(&[], durable(), family)?;
    let recover_tail_s = t_rec.elapsed().as_secs_f64();
    m.failed += (b.points() != want) as u64;
    b.shutdown();
    let setup_s = crate::setup_median(p, first[0], || {
        let (b, _, conns, times) = setup(&mut PeakRss::default(), &mut m)?;
        drop(conns);
        b.shutdown();
        ckpts.push(times[1]);
        recovers.push(times[2]);
        Ok(times[0])
    })?;
    m.e2e.insert("setup_s".into(), setup_s);
    let _ = std::fs::remove_dir_all(&dir);

    let busy = net1.counter_since(&net0, "psi_net_errors_total");
    let mean_output = r.outputs.iter().sum::<f64>() / r.outputs.len().max(1) as f64;
    let stripe_cut = MAX / SHARDS as i64;
    m.info.push((
        "workload".to_string(),
        object(&[
            ("batches".to_string(), w.batches.to_string()),
            ("probes".to_string(), w.probes.to_string()),
            ("refused".to_string(), w.refused.to_string()),
            ("reads".to_string(), r.attempted.to_string()),
            ("quiet_slices".to_string(), w_sl.quiet_json()),
            ("range_mean_output".to_string(), num(mean_output)),
            (
                "markers_below_last_stripe".to_string(),
                model
                    .markers
                    .iter()
                    .filter(|q| q.coords[0] < stripe_cut)
                    .count()
                    .to_string(),
            ),
            ("net_errors".to_string(), num(busy)),
            ("checkpoint_s".to_string(), num(median(&ckpts))),
            ("recover_s".to_string(), num(median(&recovers))),
            ("final_restart_s".to_string(), num(recover_tail_s)),
            (
                "data_dir".to_string(),
                crate::report::string(&dir.display().to_string()),
            ),
        ]),
    ));

    if p.trace {
        m.layers.insert("net.errors".into(), busy);
        m.layers
            .insert("server.durability.checkpoint_s".into(), median(&ckpts));
        m.layers
            .insert("server.durability.recover_s".into(), median(&recovers));
        let publish = window.hist("psi_serve_publish_latency_ns");
        m.layers.insert(
            "server.publish_ms_p50".into(),
            publish.quantile(0.5) as f64 / 1e6,
        );
        m.layers.insert(
            "server.writer_queue_depth".into(),
            w.queue_depth.iter().sum::<f64>() / w.queue_depth.len().max(1) as f64,
        );
        let q50 = |name: &str| window.hist(name).quantile(0.5) as f64 / 1e3;
        m.layers.insert(
            "server.wal.append_us_p50".into(),
            q50("psi_wal_append_latency_ns"),
        );
        m.layers.insert(
            "server.wal.fsync_us_p50".into(),
            q50("psi_wal_fsync_latency_ns"),
        );
        m.layers.insert(
            "server.wal.bytes_per_user_byte".into(),
            window.counter("psi_wal_bytes_written_total")
                / (w.user_points_traced * std::mem::size_of::<PointI<2>>() as f64).max(1.0),
        );
        if family == "spac-h" {
            // Copy-on-write copies nodes only while a snapshot shares them:
            // in the server's persistent publish, not in lib-churn's tree,
            // which nothing else holds.
            m.layers.insert(
                "spac.nodes_copied_per_pt".into(),
                window.counter("psi_index_nodes_copied_total") / w.user_points_traced.max(1.0),
            );
        }
        m.frames.extend(w.frames);
        m.frames.extend(r.frames);
        m.layers
            .insert("trace.overhead_pct".into(), w_sl.overhead_pct());
        let mut trace = Trace::default();
        trace.add(tr_a);
        trace.add(tr_b);
        crate::finish_trace(
            &mut m,
            &trace,
            &[w_sl.secs[1], r_sl.secs[1]],
            p,
            &format!("{family}-serve-write"),
        )?;
        m.window = window;
    }
    Ok(m)
}
