//! Request coalescing: fold many clients' individual point queries into the
//! batched query paths.
//!
//! Each query the paper's batch APIs answer costs one pool-job dispatch
//! (`knn_batch` / `range_count_batch` / `range_list_batch` amortise that
//! over thousands of queries). A serving front-end receives queries one at
//! a time from many client threads — dispatching each individually would
//! pay the batch machinery per query. The [`Coalescer`] sits in between:
//!
//! * clients enqueue a request plus a one-shot reply channel and block on
//!   the reply ([`CoalesceHandle::knn`] and friends),
//! * one **flusher** thread drains the queue (up to `max_batch` requests
//!   per flush), pins a single [`RouterView`](crate::router::RouterView)
//!   for the whole flush, groups
//!   the requests by operation (and by `k` for kNN), answers each group
//!   through one batched call, and distributes the replies.
//!
//! Every request in one flush is answered against the *same* pinned view,
//! so a flush is epoch-consistent. Under load the queue fills
//! while a flush runs and the next flush drains a large batch — the
//! coalescing window grows with load and shrinks to a single request when
//! idle (no artificial latency is added: the flusher sleeps only when the
//! queue is empty).
//!
//! Requests may carry an **"as of epoch N"** tag ([`CoalesceHandle::knn_at`]
//! and friends): the flusher groups each flush by requested epoch and
//! answers every group against that epoch's retained view
//! ([`Router::pin_at`]), falling back to [`QueryReply::EpochGone`] when the
//! epoch has been evicted from the history window (or the serving family
//! keeps no history). Untagged requests keep using the freshly pinned
//! current view.

use crate::router::{RouterView, ServeCoord};
use crate::Router;
use psi_geometry::{Point, Rect};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

/// Requests answered through the coalescer, process-wide.
static OBS_SERVED: psi_obs::LazyCounter = psi_obs::LazyCounter::new(
    "psi_serve_requests_total",
    "queries answered through the coalescer",
);
/// Batched flushes executed, process-wide (`requests/flushes` is the
/// achieved coalescing factor).
static OBS_FLUSHES: psi_obs::LazyCounter = psi_obs::LazyCounter::new(
    "psi_serve_flushes_total",
    "batched coalescer flushes executed",
);
/// Requests folded into each flush.
static OBS_FLUSH_SIZE: psi_obs::LazyHistogram = psi_obs::LazyHistogram::new(
    "psi_serve_coalesce_flush_size",
    "requests folded into one coalescer flush",
);

/// One point query, as the coalescer buffers it. Public so socket front-ends
/// (the `psi-net` crate) can enqueue decoded wire requests directly.
pub enum QueryOp<T: ServeCoord, const D: usize> {
    /// `k` nearest neighbours of a point.
    Knn(Point<T, D>, usize),
    /// Number of stored points in a closed box.
    RangeCount(Rect<T, D>),
    /// The stored points in a closed box.
    RangeList(Rect<T, D>),
}

/// The answer to a [`QueryOp`].
pub enum QueryReply<T: ServeCoord, const D: usize> {
    /// kNN / range-list answers.
    Points(Vec<Point<T, D>>),
    /// Range-count answers.
    Count(usize),
    /// The requested epoch is outside the server's history window — evicted,
    /// never published, or the serving family keeps no history at all.
    EpochGone,
}

/// How a buffered request's answer is delivered: a blocking one-shot channel
/// (the [`CoalesceHandle`] convenience calls) or a callback invoked on the
/// flusher thread (nonblocking submitters — the event-loop transport — which
/// must never park a reactor thread waiting on a reply).
pub enum Completion<T: ServeCoord, const D: usize> {
    /// Deliver through a one-shot channel; the submitter blocks on it.
    Channel(mpsc::SyncSender<QueryReply<T, D>>),
    /// Invoke on the flusher thread once the answer is computed. Keep the
    /// callback cheap (encode + hand off) — it runs inside the flush.
    Callback(Box<dyn FnOnce(QueryReply<T, D>) + Send>),
}

impl<T: ServeCoord, const D: usize> Completion<T, D> {
    fn deliver(self, reply: QueryReply<T, D>) {
        match self {
            // A client that gave up (dropped its receiver) is not an error.
            Completion::Channel(tx) => drop(tx.send(reply)),
            Completion::Callback(f) => f(reply),
        }
    }
}

struct Pending<T: ServeCoord, const D: usize> {
    op: QueryOp<T, D>,
    /// `Some(e)` answers against the retained view of global epoch `e`;
    /// `None` answers against the current view.
    at: Option<u64>,
    done: Option<Completion<T, D>>,
}

struct QueueState<T: ServeCoord, const D: usize> {
    buf: Vec<Pending<T, D>>,
    shutdown: bool,
}

/// Shared client/flusher state.
pub struct Coalescer<T: ServeCoord, const D: usize> {
    queue: Mutex<QueueState<T, D>>,
    ready: Condvar,
    /// Flushes executed (for the batching-factor statistic).
    flushes: AtomicU64,
    /// Requests answered.
    served: AtomicU64,
}

impl<T: ServeCoord, const D: usize> Coalescer<T, D> {
    pub(crate) fn new() -> Self {
        Coalescer {
            queue: Mutex::new(QueueState {
                buf: Vec::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            flushes: AtomicU64::new(0),
            served: AtomicU64::new(0),
        }
    }

    /// Requests answered so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Batched flushes executed so far. `served / flushes` is the achieved
    /// coalescing factor.
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    pub(crate) fn request_stop(&self) {
        self.queue.lock().unwrap().shutdown = true;
        self.ready.notify_all();
    }

    /// The flusher loop: drain, pin one view, batch, reply. Returns when
    /// shutdown is requested and the queue has fully drained.
    pub(crate) fn run_flusher(&self, router: &Router<T, D>, max_batch: usize) {
        loop {
            let batch: Vec<Pending<T, D>> = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if !q.buf.is_empty() {
                        let take = q.buf.len().min(max_batch.max(1));
                        break q.buf.drain(..take).collect();
                    }
                    if q.shutdown {
                        return;
                    }
                    q = self.ready.wait(q).unwrap();
                }
            };
            self.flush(router, batch);
        }
    }

    fn flush(&self, router: &Router<T, D>, mut batch: Vec<Pending<T, D>>) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.served.fetch_add(batch.len() as u64, Ordering::Relaxed);
        OBS_FLUSHES.bump();
        OBS_SERVED.add(batch.len() as u64);
        OBS_FLUSH_SIZE.record(batch.len() as u64);

        // Group the flush by requested epoch — the common all-current flush
        // makes exactly one group and pins exactly one view, as before.
        let mut ats: Vec<Option<u64>> = batch.iter().map(|p| p.at).collect();
        ats.sort_unstable();
        ats.dedup();
        for at in ats {
            let slots: Vec<usize> = (0..batch.len()).filter(|&s| batch[s].at == at).collect();
            let view = match at {
                None => Some(router.pin()),
                Some(epoch) => router.pin_at(epoch),
            };
            match view {
                Some(view) => Self::answer(&view, &mut batch, &slots),
                None => {
                    for &slot in &slots {
                        Self::send(&mut batch, slot, QueryReply::EpochGone);
                    }
                }
            }
        }
    }

    fn send(batch: &mut [Pending<T, D>], slot: usize, reply: QueryReply<T, D>) {
        batch[slot]
            .done
            .take()
            .expect("each flush slot answered once")
            .deliver(reply);
    }

    /// Answer the `slots` of `batch` against one pinned view, grouped by
    /// operation; kNN additionally by k (one batched call per distinct k).
    fn answer(view: &RouterView<T, D>, batch: &mut [Pending<T, D>], slots: &[usize]) {
        let mut knn: HashMap<usize, (Vec<Point<T, D>>, Vec<usize>)> = HashMap::new();
        let mut counts: (Vec<Rect<T, D>>, Vec<usize>) = Default::default();
        let mut lists: (Vec<Rect<T, D>>, Vec<usize>) = Default::default();
        for &slot in slots {
            match &batch[slot].op {
                QueryOp::Knn(q, k) => {
                    let g = knn.entry(*k).or_default();
                    g.0.push(*q);
                    g.1.push(slot);
                }
                QueryOp::RangeCount(r) => {
                    counts.0.push(*r);
                    counts.1.push(slot);
                }
                QueryOp::RangeList(r) => {
                    lists.0.push(*r);
                    lists.1.push(slot);
                }
            }
        }

        let mut ks: Vec<usize> = knn.keys().copied().collect();
        ks.sort_unstable();
        for k in ks {
            let (qs, slots) = &knn[&k];
            for (ans, &slot) in view.knn_batch(qs, k).into_iter().zip(slots) {
                Self::send(batch, slot, QueryReply::Points(ans));
            }
        }
        if !counts.0.is_empty() {
            let answers = view.range_count_batch(&counts.0);
            for (c, &slot) in answers.into_iter().zip(&counts.1) {
                Self::send(batch, slot, QueryReply::Count(c));
            }
        }
        if !lists.0.is_empty() {
            let answers = view.range_list_batch(&lists.0);
            for (ans, &slot) in answers.into_iter().zip(&lists.1) {
                Self::send(batch, slot, QueryReply::Points(ans));
            }
        }
    }
}

/// A cloneable client handle; each call enqueues one request and blocks
/// until the flusher answers it. Handles must not outlive the server (a
/// request submitted after shutdown panics rather than hanging).
pub struct CoalesceHandle<T: ServeCoord, const D: usize> {
    pub(crate) shared: Arc<Coalescer<T, D>>,
}

impl<T: ServeCoord, const D: usize> Clone for CoalesceHandle<T, D> {
    fn clone(&self) -> Self {
        CoalesceHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: ServeCoord, const D: usize> CoalesceHandle<T, D> {
    /// Enqueue one request for the next flush, delivering the answer through
    /// `done`. The nonblocking building block under the blocking convenience
    /// calls; socket front-ends use it with [`Completion::Callback`] so a
    /// reactor thread never parks waiting on the flusher.
    pub fn submit(&self, op: QueryOp<T, D>, done: Completion<T, D>) {
        self.submit_at(op, None, done);
    }

    /// As [`CoalesceHandle::submit`], answering against global epoch `at`
    /// when given (`QueryReply::EpochGone` if the epoch is not retained).
    pub fn submit_at(&self, op: QueryOp<T, D>, at: Option<u64>, done: Completion<T, D>) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            assert!(
                !q.shutdown,
                "psi-server client used after the server shut down"
            );
            q.buf.push(Pending {
                op,
                at,
                done: Some(done),
            });
        }
        self.shared.ready.notify_all();
    }

    fn request(&self, op: QueryOp<T, D>, at: Option<u64>) -> QueryReply<T, D> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.submit_at(op, at, Completion::Channel(tx));
        rx.recv()
            .expect("the psi-server flusher answers every queued request")
    }

    /// The `k` nearest stored neighbours of `q`, closest first.
    pub fn knn(&self, q: &Point<T, D>, k: usize) -> Vec<Point<T, D>> {
        if k == 0 {
            return Vec::new();
        }
        match self.request(QueryOp::Knn(*q, k), None) {
            QueryReply::Points(p) => p,
            _ => unreachable!("knn requests get point replies"),
        }
    }

    /// Number of stored points in the closed box.
    pub fn range_count(&self, rect: &Rect<T, D>) -> usize {
        match self.request(QueryOp::RangeCount(*rect), None) {
            QueryReply::Count(c) => c,
            _ => unreachable!("count requests get count replies"),
        }
    }

    /// The stored points in the closed box (shard order).
    pub fn range_list(&self, rect: &Rect<T, D>) -> Vec<Point<T, D>> {
        match self.request(QueryOp::RangeList(*rect), None) {
            QueryReply::Points(p) => p,
            _ => unreachable!("list requests get point replies"),
        }
    }

    /// Time-travel kNN: the `k` nearest neighbours as of global `epoch`.
    /// `None` when the epoch is outside the retained history window.
    pub fn knn_at(&self, q: &Point<T, D>, k: usize, epoch: u64) -> Option<Vec<Point<T, D>>> {
        if k == 0 {
            return Some(Vec::new());
        }
        match self.request(QueryOp::Knn(*q, k), Some(epoch)) {
            QueryReply::Points(p) => Some(p),
            QueryReply::EpochGone => None,
            QueryReply::Count(_) => unreachable!("knn requests get point replies"),
        }
    }

    /// Time-travel range count as of global `epoch` (`None` if evicted).
    pub fn range_count_at(&self, rect: &Rect<T, D>, epoch: u64) -> Option<usize> {
        match self.request(QueryOp::RangeCount(*rect), Some(epoch)) {
            QueryReply::Count(c) => Some(c),
            QueryReply::EpochGone => None,
            QueryReply::Points(_) => unreachable!("count requests get count replies"),
        }
    }

    /// Time-travel range list as of global `epoch` (`None` if evicted).
    pub fn range_list_at(&self, rect: &Rect<T, D>, epoch: u64) -> Option<Vec<Point<T, D>>> {
        match self.request(QueryOp::RangeList(*rect), Some(epoch)) {
            QueryReply::Points(p) => Some(p),
            QueryReply::EpochGone => None,
            QueryReply::Count(_) => unreachable!("list requests get point replies"),
        }
    }
}
