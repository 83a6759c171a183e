//! Closed-loop load generation against a [`PsiServer`] — the shared driver
//! behind `bench_serve` and the scenario harness's `[serve]` phase.
//!
//! The loop spawns `clients` reader threads, each issuing
//! `ops_per_client` queries through a coalescing client handle (a
//! kNN / kNN / range-count / range-list round-robin) and recording per-query
//! latency into a shared `psi_obs` histogram (the percentiles reported are
//! bucket quantiles, within 1/32 of the sorted-sample value, from the same
//! histogram machinery the live metrics use), while an optional writer
//! thread publishes **move** batches —
//! delete a rotating slice of the dataset, reinsert the same points — at the
//! requested pacing. Moves keep the live count invariant, which turns the
//! run into a correctness check: after quiescing, the server must hold
//! exactly the dataset size, so a torn or lost batch fails the run instead
//! of skewing a number.

use crate::coalesce::CoalesceHandle;
use crate::router::ServeCoord;
use crate::{DirectHandle, PsiServer};
use psi_geometry::{Point, Rect};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a closed-loop client thread needs from its transport: issue one
/// query, block until answered. In-process handles implement it directly;
/// the `psi-net` crate implements it for wire-protocol socket clients, so
/// the same driver (and the same conservation/shape checks) measures both
/// the in-process and the over-the-socket paths.
pub trait QueryClient<T: ServeCoord, const D: usize>: Send + 'static {
    /// The `k` nearest stored neighbours of `q`, closest first.
    fn knn(&mut self, q: &Point<T, D>, k: usize) -> Vec<Point<T, D>>;
    /// Number of stored points in the closed box.
    fn range_count(&mut self, rect: &Rect<T, D>) -> usize;
    /// The stored points in the closed box (shard order).
    fn range_list(&mut self, rect: &Rect<T, D>) -> Vec<Point<T, D>>;
}

impl<T: ServeCoord, const D: usize> QueryClient<T, D> for CoalesceHandle<T, D> {
    fn knn(&mut self, q: &Point<T, D>, k: usize) -> Vec<Point<T, D>> {
        CoalesceHandle::knn(self, q, k)
    }
    fn range_count(&mut self, rect: &Rect<T, D>) -> usize {
        CoalesceHandle::range_count(self, rect)
    }
    fn range_list(&mut self, rect: &Rect<T, D>) -> Vec<Point<T, D>> {
        CoalesceHandle::range_list(self, rect)
    }
}

impl<T: ServeCoord, const D: usize> QueryClient<T, D> for DirectHandle<T, D> {
    fn knn(&mut self, q: &Point<T, D>, k: usize) -> Vec<Point<T, D>> {
        DirectHandle::knn(self, q, k)
    }
    fn range_count(&mut self, rect: &Rect<T, D>) -> usize {
        DirectHandle::range_count(self, rect)
    }
    fn range_list(&mut self, rect: &Rect<T, D>) -> Vec<Point<T, D>> {
        DirectHandle::range_list(self, rect)
    }
}

/// Shape of one closed-loop run.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// Reader client threads.
    pub clients: usize,
    /// Queries each client issues.
    pub ops_per_client: usize,
    /// Neighbours per kNN query.
    pub k: usize,
    /// Points per published move batch; 0 disables the writer.
    pub write_batch: usize,
    /// Milliseconds between publishes (0 = back-to-back).
    pub write_every_ms: u64,
}

/// Measured outcome of a closed-loop run.
#[derive(Clone, Debug)]
pub struct LoadOutcome {
    /// Total queries answered across all clients.
    pub ops: usize,
    /// Update batches the writer published.
    pub batches: u64,
    /// Wall-clock seconds of the client phase.
    pub elapsed_secs: f64,
    /// Queries per second, all clients combined.
    pub throughput_qps: f64,
    /// Median per-query latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-query latency, milliseconds.
    pub p99_ms: f64,
    /// Mean requests folded into one coalesced flush.
    pub coalesce_factor: f64,
}

/// Run the closed loop (see module docs) with in-process coalescing client
/// handles. `data` is both the writer's move-batch source and the
/// count-conservation expectation; it must be the point set the server was
/// built over.
pub fn closed_loop<T: ServeCoord, const D: usize>(
    server: &Arc<PsiServer<T, D>>,
    data: &[Point<T, D>],
    queries: &[Point<T, D>],
    rects: &[Rect<T, D>],
    spec: &LoadSpec,
) -> Result<LoadOutcome, String> {
    closed_loop_with(server, data, queries, rects, spec, |_| {
        Ok(Box::new(server.client()))
    })
}

/// [`closed_loop`] over caller-supplied client transports: `make_client` is
/// invoked once per client index (on the calling thread — connection errors
/// surface before any thread spawns) and each resulting [`QueryClient`]
/// moves into its own closed-loop thread. The writer still publishes
/// in-process through `server`, and the conservation check still reads the
/// server's own view, so a socket transport is measured against exactly the
/// state the wire answers came from.
#[allow(clippy::type_complexity)]
pub fn closed_loop_with<T: ServeCoord, const D: usize>(
    server: &Arc<PsiServer<T, D>>,
    data: &[Point<T, D>],
    queries: &[Point<T, D>],
    rects: &[Rect<T, D>],
    spec: &LoadSpec,
    make_client: impl Fn(usize) -> Result<Box<dyn QueryClient<T, D>>, String>,
) -> Result<LoadOutcome, String> {
    if queries.is_empty() || rects.is_empty() {
        return Err("closed_loop needs non-empty query and rect pools".to_string());
    }
    let mut handles: Vec<Box<dyn QueryClient<T, D>>> = Vec::with_capacity(spec.clients);
    for c in 0..spec.clients {
        handles.push(make_client(c).map_err(|e| format!("client {c}: {e}"))?);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writer = (spec.write_batch > 0 && !data.is_empty()).then(|| {
        let server = Arc::clone(server);
        let stop = Arc::clone(&stop);
        let batch = spec.write_batch.min(data.len());
        let pace = std::time::Duration::from_millis(spec.write_every_ms);
        let data = data.to_vec();
        std::thread::spawn(move || {
            // Submit before testing `stop`: a run whose clients finish
            // before this thread is first scheduled still moves one batch.
            let mut offset = 0usize;
            loop {
                let lo = offset % (data.len() - batch + 1);
                let slice = data[lo..lo + batch].to_vec();
                server.submit(slice.clone(), slice);
                offset = offset.wrapping_add(batch * 7 + 13);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if !pace.is_zero() {
                    std::thread::sleep(pace);
                }
            }
        })
    });

    let k = spec.k;
    let expect_k = k.min(data.len());
    // One histogram per run, shared by every client thread: record() is
    // wait-free, so threads never serialize on it, and the percentiles come
    // out of the same bucketing the live psi-obs metrics use.
    let hist = Arc::new(psi_obs::Histogram::new());
    let started = Instant::now();
    let client_threads: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(c, mut handle)| {
            let queries = queries.to_vec();
            let rects = rects.to_vec();
            let ops = spec.ops_per_client;
            let hist = Arc::clone(&hist);
            std::thread::spawn(move || {
                for i in 0..ops {
                    let pick = c + i * 31;
                    let t = Instant::now();
                    match i % 4 {
                        0 | 1 => {
                            let q = &queries[pick % queries.len()];
                            let ans = handle.knn(q, k);
                            assert_eq!(ans.len(), expect_k, "short kNN answer");
                            debug_assert!(ans
                                .windows(2)
                                .all(|w| T::dist_cmp(q.dist_sq(&w[0]), q.dist_sq(&w[1]))
                                    != std::cmp::Ordering::Greater));
                        }
                        2 => {
                            handle.range_count(&rects[pick % rects.len()]);
                        }
                        _ => {
                            handle.range_list(&rects[pick % rects.len()]);
                        }
                    }
                    hist.record_duration(t.elapsed());
                }
            })
        })
        .collect();
    for t in client_threads {
        t.join().map_err(|_| "a load-generator client panicked")?;
    }
    let elapsed = started.elapsed().as_secs_f64();

    stop.store(true, Ordering::Relaxed);
    if let Some(w) = writer {
        w.join().map_err(|_| "the load-generator writer panicked")?;
    }
    server.quiesce();
    let live = server.view().len();
    if live != data.len() {
        return Err(format!(
            "move batches lost points: {live} live after quiesce, expected {} \
             (a batch tore)",
            data.len()
        ));
    }
    let batches = server.batches_applied();
    let (served, flushes) = server.coalesce_stats();

    let snap = hist.snapshot();
    Ok(LoadOutcome {
        ops: snap.count() as usize,
        batches,
        elapsed_secs: elapsed,
        throughput_qps: snap.count() as f64 / elapsed.max(1e-9),
        p50_ms: snap.quantile_ms(0.5),
        p99_ms: snap.quantile_ms(0.99),
        coalesce_factor: if flushes > 0 {
            served as f64 / flushes as f64
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexFactory, ServeConfig};
    use psi::registry::{self, BuildOptions};
    use psi::PointI;
    use psi_workloads as workloads;

    #[test]
    fn closed_loop_measures_and_conserves() {
        let max = 50_000;
        let data = workloads::uniform::<2>(1_000, max, 3);
        let universe = workloads::universe::<2>(max);
        let factory: IndexFactory<i64, 2> = Arc::new(|pts: &[PointI<2>]| {
            registry::create::<2>("pkd", pts, &BuildOptions::default()).unwrap()
        });
        let server = Arc::new(PsiServer::new(
            &data,
            &universe,
            ServeConfig {
                shards: 2,
                ..Default::default()
            },
            factory,
        ));
        let queries = workloads::ind_queries(&data, 32, 4);
        let rects = workloads::range_queries(&data, max, 30, 8, 5);
        let spec = LoadSpec {
            clients: 2,
            ops_per_client: 40,
            k: 5,
            write_batch: 64,
            write_every_ms: 0,
        };
        let out = closed_loop(&server, &data, &queries, &rects, &spec).unwrap();
        assert_eq!(out.ops, 80);
        assert!(out.throughput_qps > 0.0);
        assert!(out.p99_ms >= out.p50_ms);
        assert!(out.coalesce_factor >= 1.0);
        assert!(out.batches > 0);

        // k larger than the dataset clamps instead of panicking; ops = 0 is
        // measured as an empty run, not an index-out-of-bounds.
        let tiny = LoadSpec {
            clients: 1,
            ops_per_client: 0,
            k: 5_000,
            write_batch: 0,
            write_every_ms: 0,
        };
        let out = closed_loop(&server, &data, &queries, &rects, &tiny).unwrap();
        assert_eq!(out.ops, 0);
        assert_eq!(out.p50_ms, 0.0);
    }
}
