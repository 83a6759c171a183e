//! **psi-server** — the concurrent query-serving subsystem of Ψ-Lib-rs.
//!
//! The paper's indexes are batch-parallel data structures driven, until this
//! crate, by single-threaded harnesses: one logical client, updates and
//! queries strictly interleaved. `psi-server` turns them into a serving
//! system — many reader threads querying *while* batch writers publish —
//! without ever exposing a torn batch:
//!
//! * [`router`] — a **spatial shard router** and the **one publication
//!   point**: the domain is striped along dimension 0 across shards;
//!   updates split per stripe, range queries fan out to intersecting
//!   stripes and merge by sum/concatenation, and kNN does a pruned best-`k`
//!   merge across stripes (batched: home-shard phase + spill phase, one
//!   batch dispatch per shard per phase). Each shard is one live index;
//!   every index family is persistent by path copying, so a batch is
//!   applied in place (copying only the nodes it reaches) and each touched
//!   shard is snapshotted in `O(1)`. Each batch is published as one
//!   immutable view — a snapshot per shard under one global epoch —
//!   swapped in with a single pointer store; readers pin a view and query
//!   it lock-free, observe whole batches only, across every shard a batch
//!   spans, and never make the writer wait.
//! * [`coalesce`] — a **request coalescer**: individual queries from many
//!   client threads are buffered and flushed through the existing
//!   `knn_batch` / `range_count_batch` / `range_list_batch` paths, so the
//!   worker-pool dispatch cost is amortised over the whole flush; the
//!   batching window grows with load and adds no latency when idle.
//!
//! [`PsiServer`] assembles the three: it owns the router, a writer thread
//! consuming update batches from a bounded channel (back-pressure, not
//! unbounded queueing), and the coalescer's flusher thread. Everything is
//! std threads + channels riding the workspace's rayon-shim pool for the
//! batched query execution — no async runtime. [`loadgen`] adds the shared
//! closed-loop driver (clients × move-batch writer with a count-conservation
//! check) behind `psi-bench serve` and the scenario harness's `[serve]` phase.
//!
//! The router also retains a bounded log of recent views
//! ([`ServeConfig::epoch_history`]): [`PsiServer::view_at`] and the `*_at`
//! client calls answer **"as of epoch N"** time-travel queries from it,
//! bit-identical to what a reader pinned at that epoch saw.
//!
//! ```
//! use psi::registry::{self, BuildOptions};
//! use psi::workloads;
//! use psi_server::{PsiServer, ServeConfig};
//! use std::sync::Arc;
//!
//! let max = 100_000;
//! let data = workloads::uniform::<2>(4_000, max, 7);
//! let universe = workloads::universe::<2>(max);
//! let factory = Arc::new(move |pts: &[psi::PointI<2>]| {
//!     registry::create::<2>("spac-h", pts, &BuildOptions::default()).unwrap()
//! });
//! let server = PsiServer::new(&data, &universe, ServeConfig::default(), factory);
//!
//! // Clients are cheap cloneable handles; calls block until answered.
//! let client = server.client();
//! let answer = client.knn(&psi::Point::new([50_000, 50_000]), 8);
//! assert_eq!(answer.len(), 8);
//!
//! // Writers submit batches; readers keep querying while they apply.
//! server.submit(data[..10].to_vec(), Vec::new());
//! server.quiesce();
//! assert_eq!(server.view().len(), 3_990);
//! server.shutdown();
//! ```

pub mod coalesce;
pub mod durability;
pub mod loadgen;
pub mod router;
pub mod wal;

pub use coalesce::{CoalesceHandle, Coalescer, Completion, QueryOp, QueryReply};
pub use durability::DurabilityConfig;
pub use loadgen::{closed_loop, closed_loop_with, LoadOutcome, LoadSpec, QueryClient};
pub use router::{IndexFactory, Router, RouterView, ServeCoord, Snapshot, DEFAULT_EPOCH_HISTORY};
pub use wal::FsyncPolicy;

use durability::{checkpoint_path, wal_path};
use psi_geometry::{Point, Rect, WireCoord};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use wal::WalWriter;

/// Update batches submitted but not yet published, process-wide (the
/// writer-queue depth plus the batch currently being applied).
static OBS_QUEUE_DEPTH: psi_obs::LazyGauge = psi_obs::LazyGauge::new(
    "psi_serve_writer_queue_depth",
    "update batches submitted but not yet published",
);
/// Wall time of one durable checkpoint (WAL sync + snapshot + fresh
/// generation + retirement).
static OBS_CKPT: psi_obs::LazyHistogram = psi_obs::LazyHistogram::new(
    "psi_serve_checkpoint_duration_ns",
    "wall time of one durable checkpoint",
);

/// Tuning knobs of a [`PsiServer`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Spatial shards (dimension-0 stripes). Default 1.
    pub shards: usize,
    /// Maximum requests the coalescer folds into one batched flush.
    /// Default 64.
    pub coalesce_max_batch: usize,
    /// Capacity of the writer's update queue; submitters block when it is
    /// full (closed-loop back-pressure). Default 8.
    pub writer_queue: usize,
    /// Recent global epochs kept pinned for "as of epoch N" time-travel
    /// queries. Retained views share structure with the live index, so the
    /// window costs the nodes each epoch's batch path-copied, not a copy
    /// per epoch. Default [`DEFAULT_EPOCH_HISTORY`]; 0 disables.
    pub epoch_history: usize,
    /// Additional **byte budget** for the epoch history: estimated retained
    /// bytes (batch payload plus a small per-entry overhead) beyond which
    /// the oldest epochs are evicted even when the count bound still has
    /// room. The newest epoch is always kept. 0 (the default) bounds by
    /// count only.
    pub epoch_history_bytes: usize,
    /// Persist applied batches and checkpoints under a data directory (see
    /// [`DurabilityConfig`] and the [`durability`] module). On construction
    /// the server recovers the newest consistent state from that directory
    /// — the caller's initial points are used only when nothing durable
    /// exists yet. `None` (the default) serves memory-only.
    pub durability: Option<DurabilityConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 1,
            coalesce_max_batch: 64,
            writer_queue: 8,
            epoch_history: DEFAULT_EPOCH_HISTORY,
            epoch_history_bytes: 0,
            durability: None,
        }
    }
}

enum Update<T: ServeCoord, const D: usize> {
    /// Deletions then insertions, as one published batch.
    Batch(Vec<Point<T, D>>, Vec<Point<T, D>>),
    /// Barrier: acknowledged once every prior batch has been published.
    Fence(mpsc::SyncSender<()>),
    /// Checkpoint fence: snapshot the state at the current epoch watermark,
    /// start a new WAL generation, and retire old ones. Answered with the
    /// watermark epoch, or the error that prevented it.
    Checkpoint(mpsc::SyncSender<std::io::Result<u64>>),
}

/// The writer thread's durable half: where files live, how they are
/// fsynced, and the open WAL segment of the current generation.
struct DurabilityState<T: WireCoord, const D: usize> {
    dir: std::path::PathBuf,
    fsync: FsyncPolicy,
    gen: u64,
    universe: Rect<T, D>,
    /// `None` after an append failure: the server keeps serving without
    /// durability (logged) until the next successful checkpoint re-arms it.
    wal: Option<WalWriter<T, D>>,
}

/// Every stored point across the current view, in shard order — the build
/// array a checkpoint serializes.
fn extract_all<T: ServeCoord, const D: usize>(router: &Router<T, D>) -> Vec<Point<T, D>> {
    let view = router.pin();
    let mut out = Vec::new();
    for i in 0..view.shard_count() {
        view.snapshot(i).index().extract_points(&mut out);
    }
    out
}

/// Take a checkpoint at the current epoch: durable WAL first (the watermark
/// must never run ahead of the records behind it), snapshot, fresh WAL
/// generation, retire generations older than the previous one. Also re-arms
/// a WAL disabled by an earlier append failure — the snapshot captures the
/// full state, so the fresh segment starts consistent.
fn checkpoint_now<T: ServeCoord + WireCoord, const D: usize>(
    router: &Router<T, D>,
    state: &mut DurabilityState<T, D>,
) -> std::io::Result<u64> {
    let t0 = std::time::Instant::now();
    if let Some(w) = state.wal.as_mut() {
        w.sync()?;
    }
    let epoch = router.epoch();
    let points = extract_all(router);
    let gen = state.gen + 1;
    durability::write_checkpoint(
        &checkpoint_path(&state.dir, gen),
        epoch,
        &state.universe,
        &points,
    )?;
    let wal = WalWriter::create(&wal_path(&state.dir, gen), epoch, state.fsync)?;
    state.gen = gen;
    state.wal = Some(wal);
    for w in durability::retire_generations(&state.dir, gen.saturating_sub(1)) {
        psi_obs::event!(Warn, "psi-server", [("gen", gen)], "{w}");
    }
    OBS_CKPT.record_duration(t0.elapsed());
    Ok(epoch)
}

/// The assembled serving subsystem (see the crate docs).
pub struct PsiServer<T: ServeCoord, const D: usize> {
    router: Arc<Router<T, D>>,
    coalescer: Arc<Coalescer<T, D>>,
    update_tx: Option<mpsc::SyncSender<Update<T, D>>>,
    writer: Option<JoinHandle<()>>,
    flusher: Option<JoinHandle<()>>,
    batches: Arc<AtomicU64>,
    durable: bool,
}

impl<T: ServeCoord + WireCoord, const D: usize> PsiServer<T, D> {
    /// Build the server: shard `points` over `universe`, spawn the writer
    /// and flusher threads. `factory` constructs each shard's index, once
    /// per shard.
    ///
    /// With [`ServeConfig::durability`] set, construction first **recovers**
    /// from the data directory: the newest valid checkpoint is rebuilt, the
    /// WAL tail behind it replayed, and the epoch counter continues where
    /// the previous run stopped — `points` and `universe` then apply only
    /// when the directory holds nothing durable. Damaged state degrades
    /// gracefully (warnings on stderr, earlier consistent epoch), and a
    /// durability setup failure falls back to memory-only serving rather
    /// than refusing to start.
    pub fn new(
        points: &[Point<T, D>],
        universe: &Rect<T, D>,
        cfg: ServeConfig,
        factory: IndexFactory<T, D>,
    ) -> Self {
        psi_parutils::stats::register_metrics();
        // Recover durable state first: it may replace the initial points
        // and seed the epoch counter.
        let mut pending: Option<(DurabilityConfig, u64)> = None; // (config, next generation)
        let mut recovered: Option<durability::Recovered<T, D>> = None;
        if let Some(dcfg) = cfg.durability.clone() {
            match durability::recover::<T, D>(&dcfg.dir) {
                Ok(report) => {
                    for w in &report.warnings {
                        psi_obs::event!(Warn, "psi-server", "recovery: {w}");
                    }
                    pending = Some((dcfg, report.next_gen));
                    recovered = report.state;
                }
                Err(e) => psi_obs::event!(
                    Warn,
                    "psi-server",
                    [("dir", dcfg.dir.display())],
                    "data dir unusable ({e}); serving without durability"
                ),
            }
        }
        let (points, universe, base_epoch, tail) = match &recovered {
            Some(rec) => (
                &rec.points[..],
                &rec.universe,
                rec.base_epoch,
                &rec.tail[..],
            ),
            None => (points, universe, 0, &[][..]),
        };
        let router = Router::new(&factory, points, universe, &cfg, base_epoch);
        // Replay the WAL tail before anything is served: each publish bumps
        // the global epoch, landing exactly on the last durable epoch.
        for rec in tail {
            router.publish(&rec.delete, &rec.insert);
        }
        let router = Arc::new(router);

        // Start a fresh generation at the recovered (or initial) epoch: a
        // full checkpoint plus an empty WAL segment. Self-healing by
        // construction — whatever half-written files recovery skipped are
        // superseded and then retired.
        let dur: Option<DurabilityState<T, D>> = pending.and_then(|(dcfg, gen)| {
            let mut state = DurabilityState {
                dir: dcfg.dir,
                fsync: dcfg.fsync,
                gen: gen - 1,
                universe: *universe,
                wal: None,
            };
            match checkpoint_now(&router, &mut state) {
                Ok(_) => Some(state),
                Err(e) => {
                    psi_obs::event!(
                        Warn,
                        "psi-server",
                        [("dir", state.dir.display())],
                        "cannot initialize durability ({e}); serving without it"
                    );
                    None
                }
            }
        });
        let durable = dur.is_some();

        let coalescer = Arc::new(Coalescer::new());
        let batches = Arc::new(AtomicU64::new(0));

        let (update_tx, update_rx) = mpsc::sync_channel(cfg.writer_queue.max(1));
        let writer = {
            let router = Arc::clone(&router);
            let batches = Arc::clone(&batches);
            let mut dur = dur;
            std::thread::Builder::new()
                .name("psi-serve-writer".into())
                .spawn(move || {
                    // Exits when every sender is dropped (shutdown).
                    while let Ok(update) = update_rx.recv() {
                        match update {
                            Update::Batch(delete, insert) => {
                                // WAL first (redo discipline): the record
                                // carries the epoch the publish will produce.
                                if let Some(state) = dur.as_mut() {
                                    if let Some(w) = state.wal.as_mut() {
                                        let epoch = router.epoch() + 1;
                                        if let Err(e) = w.append(epoch, &delete, &insert) {
                                            psi_obs::event!(
                                                Warn,
                                                "psi-server",
                                                [("epoch", epoch)],
                                                "WAL append failed ({e}); durability \
                                                 suspended until the next checkpoint"
                                            );
                                            state.wal = None;
                                        }
                                    }
                                }
                                router.publish(&delete, &insert);
                                batches.fetch_add(1, Ordering::Release);
                                OBS_QUEUE_DEPTH.dec();
                            }
                            Update::Fence(ack) => {
                                let _ = ack.send(());
                            }
                            Update::Checkpoint(ack) => {
                                let result = match dur.as_mut() {
                                    Some(state) => checkpoint_now(&router, state),
                                    None => Err(std::io::Error::new(
                                        std::io::ErrorKind::Unsupported,
                                        "server has no data directory configured",
                                    )),
                                };
                                let _ = ack.send(result);
                            }
                        }
                    }
                })
                .expect("spawn psi-serve-writer")
        };

        let flusher = {
            let router = Arc::clone(&router);
            let coalescer = Arc::clone(&coalescer);
            let max_batch = cfg.coalesce_max_batch.max(1);
            std::thread::Builder::new()
                .name("psi-serve-flush".into())
                .spawn(move || coalescer.run_flusher(&router, max_batch))
                .expect("spawn psi-serve-flush")
        };

        PsiServer {
            router,
            coalescer,
            update_tx: Some(update_tx),
            writer: Some(writer),
            flusher: Some(flusher),
            batches,
            durable,
        }
    }
}

impl<T: ServeCoord, const D: usize> PsiServer<T, D> {
    /// A cloneable client handle (queries go through the coalescer).
    pub fn client(&self) -> CoalesceHandle<T, D> {
        CoalesceHandle {
            shared: Arc::clone(&self.coalescer),
        }
    }

    /// A non-coalesced client handle: each call pins a fresh router view and
    /// answers inline on the calling thread, skipping the coalescer queue and
    /// the flusher round-trip entirely. Lowest latency when concurrency is
    /// low (nothing to amortise); under load the coalesced [`Self::client`]
    /// path wins because it batches the pool dispatch.
    pub fn direct_client(&self) -> DirectHandle<T, D> {
        DirectHandle {
            router: Arc::clone(&self.router),
        }
    }

    /// Pin a direct read view, bypassing the coalescer (tests, snapshots).
    pub fn view(&self) -> RouterView<T, D> {
        self.router.pin()
    }

    /// The view as of global `epoch`, if it is still inside the retained
    /// history window ([`ServeConfig::epoch_history`]); `None` for evicted
    /// or future epochs.
    pub fn view_at(&self, epoch: u64) -> Option<RouterView<T, D>> {
        self.router.pin_at(epoch)
    }

    /// The current global epoch (batches published so far).
    pub fn epoch(&self) -> u64 {
        self.router.epoch()
    }

    /// The router (shard/epoch inspection).
    pub fn router(&self) -> &Router<T, D> {
        &self.router
    }

    /// Submit an update batch (deletions applied before insertions) to the
    /// writer. Blocks while the writer queue is full.
    pub fn submit(&self, delete: Vec<Point<T, D>>, insert: Vec<Point<T, D>>) {
        OBS_QUEUE_DEPTH.inc();
        self.update_tx
            .as_ref()
            .expect("server not shut down")
            .send(Update::Batch(delete, insert))
            .expect("psi-serve-writer alive");
    }

    /// Nonblocking [`Self::submit`]: returns the batch instead of queueing it
    /// when the writer queue is full, so a reactor thread can surface
    /// back-pressure to its client rather than stalling every connection.
    #[allow(clippy::type_complexity)]
    pub fn try_submit(
        &self,
        delete: Vec<Point<T, D>>,
        insert: Vec<Point<T, D>>,
    ) -> Result<(), (Vec<Point<T, D>>, Vec<Point<T, D>>)> {
        OBS_QUEUE_DEPTH.inc();
        match self
            .update_tx
            .as_ref()
            .expect("server not shut down")
            .try_send(Update::Batch(delete, insert))
        {
            Ok(()) => Ok(()),
            Err(mpsc::TrySendError::Full(Update::Batch(d, i)))
            | Err(mpsc::TrySendError::Disconnected(Update::Batch(d, i))) => {
                OBS_QUEUE_DEPTH.dec();
                Err((d, i))
            }
            Err(_) => unreachable!("try_submit only sends batches"),
        }
    }

    /// Take a durable checkpoint: every batch submitted before this call is
    /// published and snapshotted, a new WAL generation starts, and older
    /// generations (beyond the previous one) are retired. Returns the epoch
    /// watermark the snapshot captured. Fails with `Unsupported` when the
    /// server has no [`ServeConfig::durability`] configured.
    pub fn checkpoint(&self) -> std::io::Result<u64> {
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        self.update_tx
            .as_ref()
            .expect("server not shut down")
            .send(Update::Checkpoint(ack_tx))
            .expect("psi-serve-writer alive");
        ack_rx.recv().expect("psi-serve-writer answers checkpoints")
    }

    /// `true` while applied batches are being persisted to the data
    /// directory (false when none is configured, or after durability was
    /// suspended by a write failure and not yet re-armed by a checkpoint —
    /// this reports the configuration, not the live WAL state).
    pub fn is_durable(&self) -> bool {
        self.durable
    }

    /// Wait until every previously submitted batch has been published.
    pub fn quiesce(&self) {
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        self.update_tx
            .as_ref()
            .expect("server not shut down")
            .send(Update::Fence(ack_tx))
            .expect("psi-serve-writer alive");
        ack_rx.recv().expect("psi-serve-writer acknowledges fences");
    }

    /// Batches published so far.
    pub fn batches_applied(&self) -> u64 {
        self.batches.load(Ordering::Acquire)
    }

    /// Coalescer statistics: `(requests served, batched flushes)`.
    pub fn coalesce_stats(&self) -> (u64, u64) {
        (self.coalescer.served(), self.coalescer.flushes())
    }

    /// Stop both service threads and wait for them: the writer finishes the
    /// queued batches, the flusher answers the queued requests. Clients
    /// must be done first — a request enqueued after shutdown panics
    /// instead of hanging.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Closing the channel lets the writer drain and exit.
        drop(self.update_tx.take());
        if let Some(w) = self.writer.take() {
            w.join().expect("psi-serve-writer exits cleanly");
        }
        self.coalescer.request_stop();
        if let Some(f) = self.flusher.take() {
            f.join().expect("psi-serve-flush exits cleanly");
        }
    }
}

impl<T: ServeCoord, const D: usize> Drop for PsiServer<T, D> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The non-coalesced fast path (see [`PsiServer::direct_client`]): a
/// cloneable handle answering every query inline against a freshly pinned
/// router view. No queue, no flusher hand-off, no batching — one pool
/// dispatch per call. Valid after shutdown (it only reads snapshots), so
/// drain order relative to the service threads does not matter.
pub struct DirectHandle<T: ServeCoord, const D: usize> {
    router: Arc<Router<T, D>>,
}

impl<T: ServeCoord, const D: usize> Clone for DirectHandle<T, D> {
    fn clone(&self) -> Self {
        DirectHandle {
            router: Arc::clone(&self.router),
        }
    }
}

impl<T: ServeCoord, const D: usize> DirectHandle<T, D> {
    /// The `k` nearest stored neighbours of `q`, closest first.
    pub fn knn(&self, q: &Point<T, D>, k: usize) -> Vec<Point<T, D>> {
        self.router.pin().knn(q, k)
    }

    /// Number of stored points in the closed box.
    pub fn range_count(&self, rect: &Rect<T, D>) -> usize {
        self.router.pin().range_count(rect)
    }

    /// The stored points in the closed box (shard order).
    pub fn range_list(&self, rect: &Rect<T, D>) -> Vec<Point<T, D>> {
        self.router.pin().range_list(rect)
    }

    /// Time-travel kNN as of global `epoch`; `None` when the epoch is
    /// outside the retained history window.
    pub fn knn_at(&self, q: &Point<T, D>, k: usize, epoch: u64) -> Option<Vec<Point<T, D>>> {
        Some(self.router.pin_at(epoch)?.knn(q, k))
    }

    /// Time-travel range count as of global `epoch` (`None` if evicted).
    pub fn range_count_at(&self, rect: &Rect<T, D>, epoch: u64) -> Option<usize> {
        Some(self.router.pin_at(epoch)?.range_count(rect))
    }

    /// Time-travel range list as of global `epoch` (`None` if evicted).
    pub fn range_list_at(&self, rect: &Rect<T, D>, epoch: u64) -> Option<Vec<Point<T, D>>> {
        Some(self.router.pin_at(epoch)?.range_list(rect))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi::registry::{self, BuildOptions};
    use psi::PointI;
    use psi_workloads as workloads;

    fn factory(name: &'static str) -> IndexFactory<i64, 2> {
        Arc::new(move |pts: &[PointI<2>]| {
            registry::create::<2>(name, pts, &BuildOptions::default()).unwrap()
        })
    }

    #[test]
    fn end_to_end_serve_loop() {
        let max = 200_000;
        let data = workloads::uniform::<2>(3_000, max, 17);
        let universe = workloads::universe::<2>(max);
        let server = PsiServer::new(
            &data,
            &universe,
            ServeConfig {
                shards: 2,
                coalesce_max_batch: 16,
                writer_queue: 4,
                ..Default::default()
            },
            factory("p-orth"),
        );

        // Concurrent clients issue queries while a writer churns batches.
        let clients: Vec<_> = (0..3)
            .map(|c| {
                let handle = server.client();
                let queries = workloads::ind_queries(&data, 40, 100 + c);
                let rects = workloads::range_queries(&data, max, 50, 10, 200 + c);
                std::thread::spawn(move || {
                    let mut answered = 0usize;
                    for q in &queries {
                        let ans = handle.knn(q, 5);
                        assert_eq!(ans.len(), 5);
                        // Closest-first ordering survives the shard merge.
                        let d: Vec<i128> = ans.iter().map(|p| q.dist_sq(p)).collect();
                        assert!(d.windows(2).all(|w| w[0] <= w[1]));
                        answered += 1;
                    }
                    for r in &rects {
                        assert_eq!(handle.range_count(r), handle.range_list(r).len());
                        answered += 2;
                    }
                    answered
                })
            })
            .collect();

        // Writer: move points around (delete a slice, reinsert it) — the
        // live count is invariant, batch atomicity keeps it exact.
        for round in 0..10 {
            let lo = (round * 97) % 2_000;
            let slice = data[lo..lo + 200].to_vec();
            server.submit(slice.clone(), slice);
        }

        let total: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 3 * (40 + 20));
        server.quiesce();
        assert_eq!(server.batches_applied(), 10);
        assert_eq!(server.view().len(), data.len(), "moves conserve the count");
        let (served, flushes) = server.coalesce_stats();
        assert_eq!(served, 180);
        assert!(flushes <= served);
        server.shutdown();
    }

    #[test]
    fn quiesced_server_matches_oracle() {
        use psi::SpatialIndex as _;
        let max = 50_000;
        let data = workloads::varden::<2>(2_500, max, 5);
        let universe = workloads::universe::<2>(max);
        let server = PsiServer::new(
            &data,
            &universe,
            ServeConfig {
                shards: 3,
                ..Default::default()
            },
            factory("spac-h"),
        );
        let mut oracle = psi::BruteForce::<i64, 2>::build(&data, &universe);

        server.submit(data[..300].to_vec(), data[..50].to_vec());
        oracle.batch_delete(&data[..300]);
        oracle.batch_insert(&data[..50]);
        server.quiesce();

        let client = server.client();
        for q in workloads::ind_queries(&data, 30, 77) {
            let got: Vec<i128> = client.knn(&q, 6).iter().map(|p| q.dist_sq(p)).collect();
            let want: Vec<i128> = oracle.knn(&q, 6).iter().map(|p| q.dist_sq(p)).collect();
            assert_eq!(got, want);
        }
        for r in workloads::range_queries(&data, max, 60, 12, 78) {
            assert_eq!(client.range_count(&r), oracle.range_count(&r));
            let mut got = client.range_list(&r);
            let mut want = oracle.range_list(&r);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
        }
        server.shutdown();
    }

    #[test]
    fn time_travel_matches_epoch_replicas() {
        use psi::SpatialIndex as _;
        let max = 60_000;
        let data = workloads::uniform::<2>(2_000, max, 23);
        let universe = workloads::universe::<2>(max);
        let server = PsiServer::new(
            &data,
            &universe,
            ServeConfig {
                shards: 2,
                epoch_history: 4,
                ..Default::default()
            },
            factory("cpam-h"),
        );
        // Replay the same batches into per-epoch brute-force replicas.
        let mut replica = psi::BruteForce::<i64, 2>::build(&data, &universe);
        let mut replica_lens = vec![replica.len()];
        for round in 0..6usize {
            let del = data[round * 50..round * 50 + 50].to_vec();
            let ins = data[round * 20..round * 20 + 30].to_vec();
            replica.batch_delete(&del);
            replica.batch_insert(&ins);
            replica_lens.push(replica.len());
            server.submit(del, ins);
        }
        server.quiesce();
        assert_eq!(server.epoch(), 6);

        // Epochs 3..=6 are retained; old and future epochs are gone.
        let client = server.client();
        let whole = Rect::from_corners(Point::new([0, 0]), Point::new([max, max]));
        for e in 3..=6u64 {
            let view = server.view_at(e).expect("epoch inside the window");
            assert_eq!(view.len(), replica_lens[e as usize]);
            assert_eq!(
                client.range_count_at(&whole, e),
                Some(replica_lens[e as usize])
            );
            let q = Point::new([max / 2, max / 2]);
            let direct = server.direct_client().knn_at(&q, 5, e).unwrap();
            let coalesced = client.knn_at(&q, 5, e).unwrap();
            let dd: Vec<i128> = direct.iter().map(|p| q.dist_sq(p)).collect();
            let cd: Vec<i128> = coalesced.iter().map(|p| q.dist_sq(p)).collect();
            assert_eq!(dd, cd, "both client paths answer from the same epoch");
        }
        assert!(server.view_at(0).is_none(), "evicted epoch");
        assert!(server.view_at(99).is_none(), "future epoch");
        assert_eq!(client.range_count_at(&whole, 0), None);
        server.shutdown();
    }

    #[test]
    fn server_recovers_across_restarts() {
        use psi::SpatialIndex as _;
        let dir = std::env::temp_dir().join(format!("psi-serve-dur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let max = 40_000;
        let data = workloads::uniform::<2>(1_500, max, 9);
        let universe = workloads::universe::<2>(max);
        let cfg = ServeConfig {
            shards: 2,
            durability: Some(DurabilityConfig::new(&dir)),
            ..Default::default()
        };
        let mut oracle = psi::BruteForce::<i64, 2>::build(&data, &universe);

        let server = PsiServer::new(&data, &universe, cfg.clone(), factory("spac-h"));
        assert!(server.is_durable());
        for round in 0..5usize {
            let del = data[round * 40..round * 40 + 40].to_vec();
            let ins = data[round * 15..round * 15 + 20].to_vec();
            oracle.batch_delete(&del);
            oracle.batch_insert(&ins);
            server.submit(del, ins);
        }
        server.quiesce();
        assert_eq!(server.epoch(), 5);
        let ck_epoch = server.checkpoint().unwrap();
        assert_eq!(ck_epoch, 5);
        // One more batch after the checkpoint, recovered from the WAL tail.
        let del = data[900..940].to_vec();
        oracle.batch_delete(&del);
        server.submit(del, Vec::new());
        drop(server);

        // Restart with *empty* initial points: everything must come back
        // from disk — checkpoint base plus the post-checkpoint WAL record.
        let server = PsiServer::new(&[], &universe, cfg, factory("spac-h"));
        assert_eq!(server.epoch(), 6, "epoch continues across the restart");
        assert_eq!(server.view().len(), oracle.len());
        let client = server.client();
        for q in workloads::ind_queries(&data, 20, 91) {
            let got: Vec<i128> = client.knn(&q, 5).iter().map(|p| q.dist_sq(p)).collect();
            let want: Vec<i128> = oracle.knn(&q, 5).iter().map(|p| q.dist_sq(p)).collect();
            assert_eq!(got, want, "recovered answers match the replayed oracle");
        }
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_without_data_dir_is_unsupported() {
        let data = workloads::uniform::<2>(300, 10_000, 3);
        let universe = workloads::universe::<2>(10_000);
        let server = PsiServer::new(&data, &universe, ServeConfig::default(), factory("spac-h"));
        assert!(!server.is_durable());
        let err = server.checkpoint().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
        server.shutdown();
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let data = workloads::uniform::<2>(500, 10_000, 1);
        let universe = workloads::universe::<2>(10_000);
        let server = PsiServer::new(&data, &universe, ServeConfig::default(), factory("zd"));
        server.submit(Vec::new(), data[..5].to_vec());
        drop(server); // must drain the batch and join both threads
    }
}
