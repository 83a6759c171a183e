//! Single-layer measurements made from outside: each times one public
//! function of one layer on inputs taken from the running workload.

use psi::{KnnHeap, PointI, RectI};
use psi_geometry::LeafSoA;
use psi_net::wire::{self, Reply, Request};
use psi_server::{PsiServer, RouterView};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Least wall time one measurement adds up, so no figure rests on a
/// sub-millisecond reading.
const MIN_TIME: Duration = Duration::from_millis(200);

/// Call `f` until `MIN_TIME` has passed; `f` returns the seconds it wants
/// counted (so per-call set-up can stay outside). Returns (calls, seconds).
fn repeat(mut f: impl FnMut() -> f64) -> (f64, f64) {
    let t0 = Instant::now();
    let (mut calls, mut secs) = (0.0, 0.0);
    while t0.elapsed() < MIN_TIME {
        secs += f();
        calls += 1.0;
    }
    (calls, secs)
}

/// Hilbert keys of `points` as the SFC layer computes them (32 bits per
/// coordinate).
pub fn hilbert_keys(points: &[PointI<2>]) -> Vec<u64> {
    points
        .iter()
        .map(|p| psi_sfc::hilbert::hilbert_key::<2>(p.coords.map(|c| c as u32), 32))
        .collect()
}

/// `sfc.hilbert_mkeys_s`: keys per second of `hilbert_key` over one batch.
pub fn hilbert_mkeys_s(points: &[PointI<2>]) -> f64 {
    let (calls, secs) = repeat(|| {
        let t0 = Instant::now();
        black_box(hilbert_keys(black_box(points)));
        t0.elapsed().as_secs_f64()
    });
    calls * points.len() as f64 / secs / 1e6
}

/// `parutils.sort_mkeys_s`: keys per second of `par_sort_unstable` on one
/// batch's keys (the copy that restores the input is not timed).
pub fn sort_mkeys_s(keys: &[u64]) -> f64 {
    let mut buf = keys.to_vec();
    let (calls, secs) = repeat(|| {
        buf.copy_from_slice(keys);
        let t0 = Instant::now();
        psi_parutils::par_sort_unstable(black_box(&mut buf));
        t0.elapsed().as_secs_f64()
    });
    calls * keys.len() as f64 / secs / 1e6
}

/// Leaf size of the families' default configuration.
const LEAF: usize = 32;

/// `geometry.leaf_range_count_mpts_s` and `geometry.leaf_knn_offer_mpts_s`:
/// points per second the SoA leaf kernels scan, on leaf-sized slices of the
/// workload's points with its query boxes and query points.
pub fn leaf_mpts_s(points: &[PointI<2>], rects: &[RectI<2>], queries: &[PointI<2>]) -> (f64, f64) {
    let leaves: Vec<LeafSoA<i64, 2>> = points
        .chunks_exact(LEAF)
        .take(4096)
        .map(LeafSoA::from_points)
        .collect();
    let per_pass = (leaves.len() * LEAF) as f64;
    let (calls, secs) = repeat(|| {
        let t0 = Instant::now();
        let mut hits = 0;
        for (i, leaf) in leaves.iter().enumerate() {
            hits += leaf.range_count(&rects[i % rects.len()]);
        }
        black_box(hits);
        t0.elapsed().as_secs_f64()
    });
    let range = calls * per_pass / secs / 1e6;
    let mut heap = KnnHeap::new(10);
    let (calls, secs) = repeat(|| {
        let t0 = Instant::now();
        for (i, leaf) in leaves.iter().enumerate() {
            heap.reset(10);
            leaf.knn_offer(&queries[i % queries.len()], &mut heap);
        }
        black_box(heap.len());
        t0.elapsed().as_secs_f64()
    });
    (range, calls * per_pass / secs / 1e6)
}

/// `server.router.pin_ns`: one `Router::pin()` plus its drop on the live
/// router.
pub fn pin_ns(server: &PsiServer<i64, 2>) -> f64 {
    let router = server.router();
    let (calls, secs) = repeat(|| {
        let t0 = Instant::now();
        for _ in 0..1000 {
            drop(black_box(router.pin()));
        }
        t0.elapsed().as_secs_f64()
    });
    secs / (calls * 1000.0) * 1e9
}

/// `server.view.knn_us_per_q`: `RouterView::knn_batch` at flush-sized
/// batches on one pinned view.
pub fn view_knn_us_per_q(view: &RouterView<i64, 2>, queries: &[PointI<2>], flush: usize) -> f64 {
    let mut at = 0;
    let (calls, secs) = repeat(|| {
        let batch: Vec<PointI<2>> = (0..flush)
            .map(|i| queries[(at + i) % queries.len()])
            .collect();
        at += flush;
        let t0 = Instant::now();
        black_box(view.knn_batch(&batch, 10));
        t0.elapsed().as_secs_f64()
    });
    secs / (calls * flush as f64) * 1e6
}

/// `server.coalesce.handoff_us`: in-process `CoalesceHandle::knn` minus
/// `DirectHandle::knn`, one request in flight, alternating the two.
pub fn coalesce_handoff_us(server: &PsiServer<i64, 2>, queries: &[PointI<2>]) -> f64 {
    let coalesced = server.client();
    let direct = server.direct_client();
    let (mut c_secs, mut d_secs, mut n) = (0.0, 0.0, 0.0);
    let t0 = Instant::now();
    let mut i = 0;
    while t0.elapsed() < 2 * MIN_TIME {
        let q = &queries[i % queries.len()];
        let t = Instant::now();
        black_box(coalesced.knn(q, 10));
        c_secs += t.elapsed().as_secs_f64();
        let t = Instant::now();
        black_box(direct.knn(q, 10));
        d_secs += t.elapsed().as_secs_f64();
        n += 1.0;
        i += 1;
    }
    (c_secs - d_secs) / n * 1e6
}

/// A frame the codec measurement round-trips.
pub enum Frame {
    Reply(u8, Reply<i64, 2>),
    Request(Request<i64, 2>),
}

/// `net.codec_ns_per_frame`: `encode_*` plus `decode_*` per frame over the
/// workload's own frames.
pub fn codec_ns_per_frame(frames: &[Frame]) -> f64 {
    assert!(!frames.is_empty(), "codec measured on no frames");
    let mut buf = Vec::new();
    let (calls, secs) = repeat(|| {
        let t0 = Instant::now();
        for (id, f) in frames.iter().enumerate() {
            buf.clear();
            match f {
                Frame::Reply(op, r) => {
                    wire::encode_reply(r, *op, id as u64, &mut buf).expect("reply fits a frame");
                    black_box(
                        wire::decode_reply::<i64, 2>(&buf[wire::LEN_PREFIX..])
                            .expect("own frame decodes"),
                    );
                }
                Frame::Request(r) => {
                    wire::encode_request(r, id as u64, &mut buf).expect("request fits a frame");
                    black_box(
                        wire::decode_request::<i64, 2>(&buf[wire::LEN_PREFIX..])
                            .expect("own frame decodes"),
                    );
                }
            }
        }
        t0.elapsed().as_secs_f64()
    });
    secs / (calls * frames.len() as f64) * 1e9
}
