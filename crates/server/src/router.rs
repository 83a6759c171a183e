//! Spatial shard router: partition the keyspace into stripes, fan queries
//! out to the shards that can contribute, merge the answers, and publish
//! every batch as one atomic view.
//!
//! The domain is cut into `S` equal stripes along dimension 0 (the classic
//! range-sharding layout; stripe boundaries are fixed at construction).
//! Every point lives in exactly one shard — the one whose stripe contains
//! its first coordinate — so:
//!
//! * **range queries** fan out to the shards whose stripe intersects the
//!   box and *sum/concatenate* (disjointness means no deduplication),
//! * **kNN queries** need a best-`k` merge: each contributing shard returns
//!   its `k` nearest and the router keeps the `k` best overall, pruning
//!   shards whose stripe is farther than the current `k`-th distance. The
//!   batched path ([`RouterView::knn_batch`]) does this in two phases —
//!   answer every query in its *home* shard first (one batch per shard),
//!   then spill only the queries whose `k`-th distance reaches past their
//!   stripe into the neighbouring shards (one more batch per shard) — so
//!   the common case costs one batch dispatch per shard, not per query.
//!
//! **Publication.** The router is the only publication point. Each shard is
//! one live index, and every index family is persistent by path copying
//! ([`SpatialIndex::snapshot`](psi::SpatialIndex::snapshot)), so a shard's
//! [`Snapshot`] is an `O(1)` handle sharing structure with the live index.
//! [`Router::publish`] splits a batch by stripe, applies each sub-batch to
//! its shard's live index in place — copy-on-write duplicates only the nodes
//! on the paths the batch reaches — snapshots the touched shards, builds the
//! next view (reusing the snapshots of the shards the batch did not touch)
//! and swaps it in with a single pointer store. A [`RouterView`] is a handle
//! on one such view: [`Router::pin`] is one read lock and one `Arc` clone,
//! and a reader sees either the whole batch or none of it, across every
//! shard it spans.
//!
//! Blocking discipline: readers never block on a publish — the write lock
//! covers only the pointer swap and the history append, never batch
//! application, and views it evicts are freed after the lock is released.
//! The writer never waits on readers either: a stale view only keeps the
//! nodes it shares alive until it drops.
//!
//! **History.** The router also keeps a bounded log of recent views for
//! "as of epoch N" time-travel queries ([`Router::pin_at`]). The log holds
//! the very views readers pin, so a retained epoch costs only the nodes its
//! batch path-copied.

use crate::ServeConfig;
use psi::registry::DynIndex;
use psi_geometry::{Coord, KnnHeap, Point, Rect};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, RwLock};

/// Epoch-history entries dropped by the count or byte bound.
static OBS_EVICTIONS: psi_obs::LazyCounter = psi_obs::LazyCounter::new(
    "psi_serve_epoch_evictions_total",
    "time-travel history entries evicted by the count or byte bound",
);

/// Router views alive in the process: each router's current view, its
/// retained history, and older views readers still pin.
static OBS_PINNED: psi_obs::LazyGauge = psi_obs::LazyGauge::new(
    "psi_serve_pinned_readers",
    "router views alive: current, retained history, and older views still pinned",
);

/// Global epochs a router keeps pinned for time-travel queries when no
/// explicit history depth is configured.
pub const DEFAULT_EPOCH_HISTORY: usize = 8;

/// Fixed per-entry overhead charged against the history byte budget (the
/// view, its snapshot `Arc`s, spine nodes a tiny batch still copies).
const HISTORY_ENTRY_OVERHEAD: usize = 64;

/// Coordinate types the router can cut into stripes (everything [`Coord`]
/// plus exact interpolation of stripe boundaries).
pub trait ServeCoord: Coord {
    /// `lo + (hi - lo) * num / den`, computed without overflow; used to
    /// place stripe boundaries.
    fn lerp(lo: Self, hi: Self, num: usize, den: usize) -> Self;
}

impl ServeCoord for i64 {
    fn lerp(lo: Self, hi: Self, num: usize, den: usize) -> Self {
        let span = (hi as i128) - (lo as i128);
        (lo as i128 + span * num as i128 / den as i128) as i64
    }
}

impl ServeCoord for f64 {
    fn lerp(lo: Self, hi: Self, num: usize, den: usize) -> Self {
        lo + (hi - lo) * (num as f64 / den as f64)
    }
}

/// Builds one shard's index over its share of the points; called exactly
/// once per shard.
pub type IndexFactory<T, const D: usize> =
    Arc<dyn Fn(&[Point<T, D>]) -> Box<dyn DynIndex<T, D>> + Send + Sync>;

/// An immutable state of one shard's index, reached through
/// [`RouterView::snapshot`]; queries run against [`Snapshot::index`] without
/// any locking, and the contents never change while the view is held.
pub struct Snapshot<T: Coord, const D: usize> {
    index: Box<dyn DynIndex<T, D>>,
}

impl<T: Coord, const D: usize> Snapshot<T, D> {
    /// The immutable index of this snapshot.
    pub fn index(&self) -> &dyn DynIndex<T, D> {
        &*self.index
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` if the snapshot holds no points.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

/// An `O(1)` snapshot of a shard's live index.
fn snapshot_of<T: Coord, const D: usize>(live: &dyn DynIndex<T, D>) -> Arc<Snapshot<T, D>> {
    Arc::new(Snapshot {
        index: live.snapshot_dyn(),
    })
}

/// What every view of one router shares, fixed at construction.
struct Frame<T: Coord, const D: usize> {
    /// `cuts[i]` is the lower dimension-0 bound of shard `i`'s stripe
    /// (`cuts[0]` is the domain's low edge; points below it route to
    /// shard 0, points past the last cut to the last shard).
    cuts: Vec<T>,
    /// Each shard's stripe as a pruning box.
    regions: Vec<Rect<T, D>>,
}

/// One published global epoch: a snapshot per shard.
struct View<T: Coord, const D: usize> {
    epoch: u64,
    snaps: Vec<Arc<Snapshot<T, D>>>,
    frame: Arc<Frame<T, D>>,
}

impl<T: Coord, const D: usize> View<T, D> {
    fn new(epoch: u64, snaps: Vec<Arc<Snapshot<T, D>>>, frame: Arc<Frame<T, D>>) -> Self {
        OBS_PINNED.inc();
        View {
            epoch,
            snaps,
            frame,
        }
    }
}

impl<T: Coord, const D: usize> Drop for View<T, D> {
    fn drop(&mut self) {
        OBS_PINNED.dec();
    }
}

/// What readers see: the current view and the time-travel log. Guarded by
/// one `RwLock`, written once per batch.
struct Published<T: Coord, const D: usize> {
    current: Arc<View<T, D>>,
    /// Retained views with their estimated cost in bytes, oldest first.
    /// Their epochs are contiguous and the newest is `current`. Empty when
    /// history is off.
    log: VecDeque<(Arc<View<T, D>>, usize)>,
    /// Sum of the retained entries' costs.
    log_bytes: usize,
}

/// A set of shards covering the domain in dimension-0 stripes.
pub struct Router<T: ServeCoord, const D: usize> {
    published: RwLock<Published<T, D>>,
    /// Each shard's live index; the lock serialises publishes.
    shards: Mutex<Vec<Box<dyn DynIndex<T, D>>>>,
    frame: Arc<Frame<T, D>>,
    /// Views the history keeps; 0 disables it.
    history_cap: usize,
    /// Byte budget across retained views; 0 = count bound only. The newest
    /// view is always kept, even when over budget.
    history_byte_cap: usize,
    /// Per-shard publish-latency histograms (`shard` label), resolved once
    /// at construction so the publish path never touches the registry.
    publish_hist: Vec<Arc<psi_obs::Histogram>>,
}

/// Conservative stripe box for pruning: unbounded in every dimension except
/// the stripe's dimension-0 slice, and closed on both cuts (a boundary point
/// lives in exactly one shard, but for *pruning* an overestimate is safe).
fn stripe_region<T: Coord, const D: usize>(lo: Option<T>, hi: Option<T>) -> Rect<T, D> {
    let mut lo_pt = [T::MIN_VALUE; D];
    let mut hi_pt = [T::MAX_VALUE; D];
    if let Some(l) = lo {
        lo_pt[0] = l;
    }
    if let Some(h) = hi {
        hi_pt[0] = h;
    }
    Rect::from_corners(Point::new(lo_pt), Point::new(hi_pt))
}

impl<T: ServeCoord, const D: usize> Router<T, D> {
    /// Partition `points` into [`ServeConfig::shards`] stripes of `universe`
    /// along dimension 0 (0 is taken as 1) and build one shard per stripe,
    /// published as global epoch `base_epoch` — crash recovery seeds it at
    /// the checkpoint watermark so epoch numbers continue across a restart.
    ///
    /// `factory` is called once per shard. The router retains the last
    /// [`ServeConfig::epoch_history`] views for [`Router::pin_at`], evicting
    /// older ones sooner once their estimated bytes (batch payload plus a
    /// fixed overhead per view) exceed [`ServeConfig::epoch_history_bytes`]
    /// (0 = no byte bound); the newest view is always kept.
    pub fn new(
        factory: &IndexFactory<T, D>,
        points: &[Point<T, D>],
        universe: &Rect<T, D>,
        cfg: &ServeConfig,
        base_epoch: u64,
    ) -> Self {
        let shard_count = cfg.shards.max(1);
        let cuts: Vec<T> = (0..shard_count)
            .map(|i| T::lerp(universe.lo.coords[0], universe.hi.coords[0], i, shard_count))
            .collect();
        let mut parts: Vec<Vec<Point<T, D>>> = vec![Vec::new(); shard_count];
        for p in points {
            parts[shard_of(&cuts, p)].push(*p);
        }
        let shards: Vec<_> = parts.iter().map(|part| factory(part)).collect();
        let snaps = shards.iter().map(|live| snapshot_of(&**live)).collect();
        let regions = (0..shard_count)
            .map(|i| {
                let lo = (i > 0).then(|| cuts[i]);
                let hi = (i + 1 < shard_count).then(|| cuts[i + 1]);
                stripe_region(lo, hi)
            })
            .collect();
        let frame = Arc::new(Frame { cuts, regions });
        let history_cap = cfg.epoch_history;
        let current = Arc::new(View::new(base_epoch, snaps, Arc::clone(&frame)));
        let mut log = VecDeque::new();
        let mut log_bytes = 0;
        if history_cap > 0 {
            log.push_back((Arc::clone(&current), HISTORY_ENTRY_OVERHEAD));
            log_bytes = HISTORY_ENTRY_OVERHEAD;
        }
        let publish_hist = (0..shard_count)
            .map(|i| {
                psi_obs::histogram(
                    "psi_serve_publish_latency_ns",
                    "wall time one shard spends applying and publishing a sub-batch",
                    &[("shard", &i.to_string())],
                )
            })
            .collect();
        Router {
            published: RwLock::new(Published {
                current,
                log,
                log_bytes,
            }),
            shards: Mutex::new(shards),
            frame,
            history_cap,
            history_byte_cap: cfg.epoch_history_bytes,
            publish_hist,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.frame.cuts.len()
    }

    /// The shard a point routes to.
    pub fn shard_of(&self, p: &Point<T, D>) -> usize {
        shard_of(&self.frame.cuts, p)
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Published<T, D>> {
        self.published
            .read()
            .expect("the publication lock is held only for infallible swaps")
    }

    /// Pin the current global epoch: one read lock and one `Arc` clone.
    pub fn pin(&self) -> RouterView<T, D> {
        RouterView {
            view: Arc::clone(&self.read().current),
        }
    }

    /// Split a batch by stripe, apply each non-empty sub-batch to its shard
    /// (deletions before insertions, per the `BatchDiff` contract), and
    /// publish the result as one view under the next global epoch, which is
    /// returned. Shards the batch does not touch carry their snapshots over
    /// unchanged. The new view also enters the time-travel log. Publishes
    /// are serialised internally.
    pub fn publish(&self, delete: &[Point<T, D>], insert: &[Point<T, D>]) -> u64 {
        let split = |pts: &[Point<T, D>]| {
            let mut parts: Vec<Vec<Point<T, D>>> = vec![Vec::new(); self.shard_count()];
            for p in pts {
                parts[self.shard_of(p)].push(*p);
            }
            parts
        };
        let dels = split(delete);
        let inss = split(insert);
        let mut shards = self.shards.lock().expect("an earlier publish panicked");
        let (epoch, mut snaps) = {
            let published = self.read();
            (published.current.epoch + 1, published.current.snaps.clone())
        };
        for (i, live) in shards.iter_mut().enumerate() {
            if dels[i].is_empty() && inss[i].is_empty() {
                continue;
            }
            let t0 = std::time::Instant::now();
            live.batch_diff(&dels[i], &inss[i]);
            snaps[i] = snapshot_of(&**live);
            self.publish_hist[i].record_duration(t0.elapsed());
        }
        let next = Arc::new(View::new(epoch, snaps, Arc::clone(&self.frame)));
        let bytes = (delete.len() + insert.len()) * D * 8 + HISTORY_ENTRY_OVERHEAD;

        // Views leaving the published state are dropped only after the
        // write lock is released: freeing a large copy-on-write spine must
        // not stall readers waiting to pin.
        let mut retired = Vec::new();
        {
            let mut published = self
                .published
                .write()
                .expect("the publication lock is held only for infallible swaps");
            let p = &mut *published;
            retired.push(std::mem::replace(&mut p.current, Arc::clone(&next)));
            if self.history_cap > 0 {
                p.log.push_back((next, bytes));
                p.log_bytes += bytes;
                while p.log.len() > self.history_cap
                    || (self.history_byte_cap > 0
                        && p.log_bytes > self.history_byte_cap
                        && p.log.len() > 1)
                {
                    let (evicted, cost) = p.log.pop_front().expect("log is non-empty");
                    p.log_bytes -= cost;
                    retired.push(evicted);
                    OBS_EVICTIONS.bump();
                }
            }
        }
        drop(retired);
        epoch
    }

    /// The global epoch: `base_epoch` plus the batches published so far.
    pub fn epoch(&self) -> u64 {
        self.read().current.epoch
    }

    /// The view of global `epoch`, if it is still in the history window.
    /// `None` for evicted or future epochs, and always `None` when history
    /// is configured off.
    pub fn pin_at(&self, epoch: u64) -> Option<RouterView<T, D>> {
        let published = self.read();
        let oldest = published.log.front()?.0.epoch;
        let i = usize::try_from(epoch.checked_sub(oldest)?).ok()?;
        let (view, _) = published.log.get(i)?;
        Some(RouterView {
            view: Arc::clone(view),
        })
    }

    /// The `(oldest, newest)` global epochs currently answerable by
    /// [`Router::pin_at`]; `None` when no history is kept.
    pub fn epoch_bounds(&self) -> Option<(u64, u64)> {
        let published = self.read();
        let oldest = published.log.front()?.0.epoch;
        Some((oldest, published.current.epoch))
    }

    /// Total stored points in the current view.
    pub fn len(&self) -> usize {
        self.pin().len()
    }

    /// `true` if the current view stores no point.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn shard_of<T: Coord, const D: usize>(cuts: &[T], p: &Point<T, D>) -> usize {
    // Largest i with cuts[i] <= p[0]; points below the first cut clamp to 0.
    cuts.partition_point(|c| c.total_cmp(&p.coords[0]) != std::cmp::Ordering::Greater)
        .saturating_sub(1)
}

/// A pinned read view: every shard's snapshot of one global epoch (see the
/// module docs). Cloning is one `Arc` clone of the same view.
#[derive(Clone)]
pub struct RouterView<T: Coord, const D: usize> {
    view: Arc<View<T, D>>,
}

impl<T: Coord, const D: usize> RouterView<T, D> {
    /// The global epoch this view was published as.
    pub fn epoch(&self) -> u64 {
        self.view.epoch
    }

    /// One shard's snapshot in this view.
    pub fn snapshot(&self, i: usize) -> &Snapshot<T, D> {
        &self.view.snaps[i]
    }

    /// Number of shards in the view.
    pub fn shard_count(&self) -> usize {
        self.view.snaps.len()
    }

    /// The shard a point routes to (same cut table as the router).
    pub fn shard_of(&self, p: &Point<T, D>) -> usize {
        shard_of(&self.view.frame.cuts, p)
    }

    /// Total stored points in this view.
    pub fn len(&self) -> usize {
        self.view.snaps.iter().map(|s| s.len()).sum()
    }

    /// `true` if the view holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k` nearest neighbours of `q` across all shards, closest first:
    /// query shards in stripe-distance order, keep the best `k`, stop as
    /// soon as the next stripe cannot improve on the `k`-th distance.
    pub fn knn(&self, q: &Point<T, D>, k: usize) -> Vec<Point<T, D>> {
        if k == 0 || self.view.snaps.is_empty() {
            return Vec::new();
        }
        let mut order: Vec<(T::Dist, usize)> = self
            .view
            .frame
            .regions
            .iter()
            .enumerate()
            .map(|(i, r)| (r.dist_sq_to_point(q), i))
            .collect();
        order.sort_by(|a, b| T::dist_cmp(a.0, b.0).then(a.1.cmp(&b.1)));
        let mut heap = KnnHeap::new(k);
        for (dist, i) in order {
            if heap.is_full() && !heap.could_improve(dist) {
                break; // sorted by stripe distance: nothing further helps
            }
            for p in self.view.snaps[i].index().knn(q, k) {
                heap.offer_point(q, p);
            }
        }
        heap.into_sorted()
    }

    /// Batched best-`k` merge (see the module docs): phase 1 answers every
    /// query in its home shard (one `knn_batch` per shard), phase 2 spills
    /// only the queries whose `k`-th distance reaches past their stripe.
    pub fn knn_batch(&self, queries: &[Point<T, D>], k: usize) -> Vec<Vec<Point<T, D>>> {
        if k == 0 || queries.is_empty() {
            return vec![Vec::new(); queries.len()];
        }
        if self.view.snaps.len() == 1 {
            return self.view.snaps[0].index().knn_batch(queries, k);
        }

        // Phase 1: group by home shard, one batch per shard.
        let s = self.view.snaps.len();
        let mut per_shard: Vec<(Vec<Point<T, D>>, Vec<usize>)> = vec![Default::default(); s];
        for (qi, q) in queries.iter().enumerate() {
            let home = self.shard_of(q);
            per_shard[home].0.push(*q);
            per_shard[home].1.push(qi);
        }
        let mut answers: Vec<Vec<Point<T, D>>> = vec![Vec::new(); queries.len()];
        for (si, (qs, idxs)) in per_shard.iter().enumerate() {
            if qs.is_empty() {
                continue;
            }
            for (ans, &qi) in self.view.snaps[si]
                .index()
                .knn_batch(qs, k)
                .into_iter()
                .zip(idxs)
            {
                answers[qi] = ans;
            }
        }

        // Phase 2: spill queries whose k-th distance reaches into another
        // stripe (or that found fewer than k at home).
        let mut spill: Vec<(Vec<Point<T, D>>, Vec<usize>)> = vec![Default::default(); s];
        for (qi, q) in queries.iter().enumerate() {
            let home = self.shard_of(q);
            let bound = if answers[qi].len() == k {
                Some(q.dist_sq(answers[qi].last().expect("k >= 1 answers")))
            } else {
                None // under-full: every shard could contribute
            };
            for (si, sp) in spill.iter_mut().enumerate() {
                if si == home {
                    continue;
                }
                let reaches = match bound {
                    None => true,
                    Some(b) => {
                        T::dist_cmp(self.view.frame.regions[si].dist_sq_to_point(q), b)
                            == std::cmp::Ordering::Less
                    }
                };
                if reaches {
                    sp.0.push(*q);
                    sp.1.push(qi);
                }
            }
        }
        let mut merged: Vec<Option<KnnHeap<T, D>>> = (0..queries.len()).map(|_| None).collect();
        for (si, (qs, idxs)) in spill.iter().enumerate() {
            if qs.is_empty() {
                continue;
            }
            for (ans, &qi) in self.view.snaps[si]
                .index()
                .knn_batch(qs, k)
                .into_iter()
                .zip(idxs)
            {
                let heap = merged[qi].get_or_insert_with(|| {
                    let mut h = KnnHeap::new(k);
                    for p in &answers[qi] {
                        h.offer_point(&queries[qi], *p);
                    }
                    h
                });
                for p in ans {
                    heap.offer_point(&queries[qi], p);
                }
            }
        }
        for (qi, heap) in merged.into_iter().enumerate() {
            if let Some(h) = heap {
                answers[qi] = h.into_sorted();
            }
        }
        answers
    }

    /// Number of stored points in the box, fanned out per intersecting
    /// shard and summed (stripes are disjoint, so no deduplication).
    pub fn range_count(&self, rect: &Rect<T, D>) -> usize {
        self.view
            .snaps
            .iter()
            .zip(&self.view.frame.regions)
            .filter(|(_, region)| region.intersects(rect))
            .map(|(snap, _)| snap.index().range_count(rect))
            .sum()
    }

    /// Batched range counts: one `range_count_batch` per shard over the
    /// rects that intersect its stripe.
    pub fn range_count_batch(&self, rects: &[Rect<T, D>]) -> Vec<usize> {
        let mut out = vec![0usize; rects.len()];
        for (snap, region) in self.view.snaps.iter().zip(&self.view.frame.regions) {
            let (sub, idxs): (Vec<Rect<T, D>>, Vec<usize>) = rects
                .iter()
                .enumerate()
                .filter(|(_, r)| region.intersects(r))
                .map(|(i, r)| (*r, i))
                .unzip();
            if sub.is_empty() {
                continue;
            }
            for (count, &i) in snap.index().range_count_batch(&sub).into_iter().zip(&idxs) {
                out[i] += count;
            }
        }
        out
    }

    /// The stored points in the box, concatenated in shard order.
    pub fn range_list(&self, rect: &Rect<T, D>) -> Vec<Point<T, D>> {
        let mut out = Vec::new();
        for (snap, region) in self.view.snaps.iter().zip(&self.view.frame.regions) {
            if region.intersects(rect) {
                snap.index().range_visit(rect, &mut |p| out.push(*p));
            }
        }
        out
    }

    /// Batched range lists: one `range_list_batch` per intersecting shard,
    /// answers concatenated in shard order per rect.
    pub fn range_list_batch(&self, rects: &[Rect<T, D>]) -> Vec<Vec<Point<T, D>>> {
        let mut out: Vec<Vec<Point<T, D>>> = vec![Vec::new(); rects.len()];
        for (snap, region) in self.view.snaps.iter().zip(&self.view.frame.regions) {
            let (sub, idxs): (Vec<Rect<T, D>>, Vec<usize>) = rects
                .iter()
                .enumerate()
                .filter(|(_, r)| region.intersects(r))
                .map(|(i, r)| (*r, i))
                .unzip();
            if sub.is_empty() {
                continue;
            }
            for (list, &i) in snap.index().range_list_batch(&sub).into_iter().zip(&idxs) {
                out[i].extend(list);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi::registry::{self, BuildOptions};
    use psi::BruteForce;
    use psi::SpatialIndex as _;
    use psi_geometry::PointI;
    use psi_workloads as workloads;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn factory() -> IndexFactory<i64, 2> {
        named_factory("spac-h")
    }

    fn named_factory(name: &'static str) -> IndexFactory<i64, 2> {
        Arc::new(move |pts: &[PointI<2>]| {
            registry::create::<2>(name, pts, &BuildOptions::default()).unwrap()
        })
    }

    fn cfg(shards: usize, epoch_history: usize, epoch_history_bytes: usize) -> ServeConfig {
        ServeConfig {
            shards,
            epoch_history,
            epoch_history_bytes,
            ..Default::default()
        }
    }

    /// A router with the default history settings.
    fn router(
        factory: &IndexFactory<i64, 2>,
        points: &[PointI<2>],
        universe: &Rect<i64, 2>,
        shards: usize,
    ) -> Router<i64, 2> {
        Router::new(
            factory,
            points,
            universe,
            &cfg(shards, DEFAULT_EPOCH_HISTORY, 0),
            0,
        )
    }

    fn pts(range: std::ops::Range<i64>) -> Vec<PointI<2>> {
        range.map(|i| Point::new([i, i * 2])).collect()
    }

    fn world() -> Rect<i64, 2> {
        Rect::from_corners(Point::new([i64::MIN; 2]), Point::new([i64::MAX; 2]))
    }

    #[test]
    fn routing_is_total_and_disjoint() {
        let max = 1_000_000;
        let universe = workloads::universe::<2>(max);
        let data = workloads::uniform::<2>(5_000, max, 11);
        let router = router(&factory(), &data, &universe, 4);
        assert_eq!(router.shard_count(), 4);
        assert_eq!(router.len(), data.len());
        // Every point routes to exactly the shard that stores it.
        let view = router.pin();
        for p in data.iter().take(200) {
            let si = router.shard_of(p);
            assert_eq!(view.shard_of(p), si);
            assert!(view.snapshot(si).index().range_count(&Rect::singleton(*p)) >= 1);
        }
        // Out-of-domain points clamp to the edge shards instead of panicking.
        assert_eq!(router.shard_of(&Point::new([-50, 0])), 0);
        assert_eq!(router.shard_of(&Point::new([max + 50, 0])), 3);
    }

    #[test]
    fn cross_shard_queries_match_brute_force() {
        let max = 100_000;
        let universe = workloads::universe::<2>(max);
        let data = workloads::varden::<2>(4_000, max, 3);
        let router = router(&factory(), &data, &universe, 3);
        let oracle = BruteForce::<i64, 2>::build(&data, &universe);
        let view = router.pin();

        let queries = workloads::ind_queries(&data, 64, 9);
        let k = 12;
        // Batched two-phase answers == per-query merge == brute force.
        let batched = view.knn_batch(&queries, k);
        for (q, got) in queries.iter().zip(&batched) {
            let single = view.knn(q, k);
            let gd: Vec<i128> = got.iter().map(|p| q.dist_sq(p)).collect();
            let sd: Vec<i128> = single.iter().map(|p| q.dist_sq(p)).collect();
            let wd: Vec<i128> = oracle.knn(q, k).iter().map(|p| q.dist_sq(p)).collect();
            assert_eq!(gd, wd, "knn_batch disagrees with oracle");
            assert_eq!(sd, wd, "knn disagrees with oracle");
        }

        let rects = workloads::range_queries(&data, max, 80, 32, 5);
        assert_eq!(
            view.range_count_batch(&rects),
            rects
                .iter()
                .map(|r| oracle.range_count(r))
                .collect::<Vec<_>>()
        );
        for (r, mut got) in rects.iter().zip(view.range_list_batch(&rects)) {
            let mut single = view.range_list(r);
            let mut want = oracle.range_list(r);
            got.sort_unstable();
            single.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
            assert_eq!(single, want);
        }
    }

    #[test]
    fn publish_routes_batches_per_stripe() {
        let max = 90_000;
        let universe = workloads::universe::<2>(max);
        let data = workloads::uniform::<2>(3_000, max, 21);
        let router = router(&factory(), &data, &universe, 3);
        let before = router.pin();
        assert_eq!(before.epoch(), 0);

        // A batch confined to the first stripe replaces only shard 0's
        // snapshot; the others carry over into the new view unchanged.
        let local: Vec<PointI<2>> = (0..40).map(|i| Point::new([i, i])).collect();
        assert_eq!(router.publish(&[], &local), 1);
        let after = router.pin();
        assert_eq!(after.epoch(), 1);
        assert!(!std::ptr::eq(before.snapshot(0), after.snapshot(0)));
        for s in 1..3 {
            assert!(std::ptr::eq(before.snapshot(s), after.snapshot(s)));
        }
        assert_eq!(router.len(), data.len() + 40);
        assert_eq!(before.len(), data.len(), "the old view is unchanged");

        // A spanning batch touches every shard; deletions come first.
        assert_eq!(router.publish(&local, &data[..6]), 2);
        assert_eq!(router.len(), data.len() + 6);
    }

    #[test]
    fn publish_bumps_epochs_and_pins_are_stable() {
        for &family in registry::names() {
            let router = router(&named_factory(family), &pts(0..100), &world(), 1);
            let e0 = router.pin();
            assert_eq!(e0.epoch(), 0);
            assert_eq!(e0.len(), 100);

            assert_eq!(router.publish(&pts(0..10), &pts(100..130)), 1);
            // The old pin still sees epoch 0 in full.
            assert_eq!(e0.len(), 100);
            assert_eq!(e0.snapshot(0).index().range_count(&world()), 100);
            // A fresh pin sees the whole batch.
            let e1 = router.pin();
            assert_eq!(e1.epoch(), 1);
            assert_eq!(e1.len(), 120);
            assert_eq!(e1.snapshot(0).index().range_count(&world()), 120);
        }
    }

    #[test]
    fn concurrent_readers_see_whole_epochs_only() {
        for family in ["p-orth", "pkd", "cpam-h"] {
            let router = Arc::new(router(&named_factory(family), &pts(-100..100), &world(), 2));
            // Epoch e has exactly 200 + 10e points (insert-only batches
            // spanning both stripes), so a torn read would show a size
            // matching no epoch.
            let stop = Arc::new(AtomicBool::new(false));
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    let router = Arc::clone(&router);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut seen_epochs = Vec::new();
                        let mut last = 0u64;
                        // Check `stop` *before* the observation, so even a
                        // reader first scheduled after the writer finished
                        // still makes one (final-epoch) observation.
                        loop {
                            let finishing = stop.load(Ordering::Acquire);
                            let view = router.pin();
                            let e = view.epoch();
                            assert!(e >= last, "epochs must be monotonic per reader");
                            last = e;
                            assert_eq!(
                                view.range_count(&world()) as u64,
                                200 + 10 * e,
                                "reader observed a torn epoch"
                            );
                            seen_epochs.push(e);
                            if finishing {
                                break;
                            }
                        }
                        seen_epochs
                    })
                })
                .collect();
            for round in 0..20i64 {
                // Five points below the cut, five above.
                let lo = pts(1_000 + round * 5..1_000 + round * 5 + 5);
                let hi: Vec<PointI<2>> = lo.iter().map(|p| Point::new([-p.coords[0], 0])).collect();
                router.publish(&[], &[lo, hi].concat());
            }
            stop.store(true, Ordering::Release);
            for r in readers {
                let seen = r.join().unwrap();
                assert!(!seen.is_empty());
                // The observation made after `stop` was set sees the final
                // epoch.
                assert_eq!(*seen.last().unwrap(), 20);
            }
            assert_eq!(router.epoch(), 20);
            assert_eq!(router.len(), 400);
        }
    }

    #[test]
    fn every_family_builds_one_tree_per_shard() {
        for &family in registry::names() {
            let calls = Arc::new(AtomicUsize::new(0));
            let counting = {
                let calls = Arc::clone(&calls);
                Arc::new(move |pts: &[PointI<2>]| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    registry::create::<2>(family, pts, &BuildOptions::default()).unwrap()
                }) as IndexFactory<i64, 2>
            };
            let r = router(&counting, &pts(-32..32), &world(), 2);
            r.publish(&pts(-4..4), &pts(100..108));
            assert_eq!(
                calls.load(Ordering::Relaxed),
                2,
                "{family}: one tree per shard"
            );
            assert_eq!(r.len(), 64, "{family}");
        }
    }

    #[test]
    fn persistent_publish_copies_a_spine_not_the_tree() {
        use psi_parutils::stats::counters;
        // A full copy of n points costs >= n/phi leaf nodes; a CoW publish
        // of a tiny batch copies only the paths it reaches. NODES_COPIED is
        // process-global, so the measurement uses the scoped same-thread
        // capture inside a one-thread pool: every copy, parallel update
        // paths included, happens on this thread and the captured delta is
        // exact — concurrent tests do not interfere.
        let n = 60_000i64;
        // Per family: the copies (a node, or an orth-tree child array) 10
        // eight-point publishes may make, about twice what they make today.
        // One full copy clones >= n / phi = 1_875 leaves (n / 16 = 3_750
        // for the R-tree), so every bound sits far below a single copy.
        let bounds = [
            ("p-orth", 250),
            ("spac-h", 250),
            ("spac-z", 250),
            ("cpam-h", 250),
            ("cpam-z", 250),
            ("pkd", 250),
            ("zd", 550),
            ("r-tree", 100),
        ];
        let one_thread = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        for (family, bound) in bounds {
            let router = router(&named_factory(family), &pts(0..n), &world(), 1);
            let pins: Vec<_> = (0..4).map(|_| router.pin()).collect(); // live views forcing CoW
            let ((), copied) = one_thread.install(|| {
                counters::NODES_COPIED.scoped(|| {
                    for round in 0..10i64 {
                        // Inside the stored points' box: no family rebuilds.
                        let ins: Vec<PointI<2>> = (0..8)
                            .map(|j| {
                                let x = n / 2 + round * 8 + j;
                                Point::new([x, 2 * x + 1])
                            })
                            .collect();
                        router.publish(&[], &ins);
                    }
                })
            });
            assert!(copied > 0, "{family}: a shared tree must be path-copied");
            assert!(
                copied < bound,
                "{family}: publish copied {copied} nodes - that smells like a full copy"
            );
            assert_eq!(pins[0].len(), n as usize, "{family}: pinned view unchanged");
            assert_eq!(router.len(), n as usize + 80, "{family}");
        }
    }

    #[test]
    fn persistent_writer_never_waits_on_readers() {
        // Hold pins of *every* epoch while publishing: the writer never
        // waits for a view to drop, and every pinned epoch stays intact.
        for &family in registry::names() {
            let router = router(&named_factory(family), &pts(0..100), &world(), 1);
            let mut pins = vec![router.pin()];
            for round in 0..8i64 {
                router.publish(&[], &pts(200 + round * 3..200 + round * 3 + 3));
                pins.push(router.pin());
            }
            // Every historical epoch is still fully queryable.
            for (e, pin) in pins.iter().enumerate() {
                assert_eq!(pin.epoch(), e as u64, "{family}");
                assert_eq!(pin.len(), 100 + 3 * e, "{family}");
                assert_eq!(pin.range_count(&world()), 100 + 3 * e, "{family}");
            }
        }
    }

    #[test]
    fn persistent_router_time_travels_within_its_history_window() {
        let max = 80_000;
        let universe = workloads::universe::<2>(max);
        let data = workloads::uniform::<2>(2_000, max, 13);
        let router = Router::new(&named_factory("cpam-h"), &data, &universe, &cfg(2, 4, 0), 0);
        assert_eq!(router.epoch(), 0);
        assert_eq!(router.epoch_bounds(), Some((0, 0)));
        assert_eq!(router.pin_at(0).unwrap().len(), data.len());

        // Six insert-only batches: epoch e holds data.len() + 5e points.
        for round in 0..6i64 {
            let ins: Vec<PointI<2>> = (0..5)
                .map(|i| Point::new([(round * 5 + i) * 11 % max, (round * 5 + i) * 7 % max]))
                .collect();
            router.publish(&[], &ins);
        }
        assert_eq!(router.epoch(), 6);
        // Depth-4 window: epochs 3..=6 answerable, older ones evicted.
        assert_eq!(router.epoch_bounds(), Some((3, 6)));
        for e in 3..=6u64 {
            let view = router.pin_at(e).expect("epoch within the window");
            assert_eq!(view.epoch(), e);
            assert_eq!(view.len(), data.len() + 5 * e as usize);
        }
        for e in 0..3u64 {
            assert!(router.pin_at(e).is_none(), "epoch {e} must be evicted");
        }
        assert!(router.pin_at(7).is_none(), "future epochs are unknown");
        assert!(router.pin_at(u64::MAX).is_none());
    }

    #[test]
    fn history_byte_budget_evicts_oldest_first() {
        let max = 80_000;
        let universe = workloads::universe::<2>(max);
        let data = workloads::uniform::<2>(1_000, max, 31);
        // Count bound generous (32); the byte budget is the binding
        // constraint. Each 50-point insert batch costs 50 * 2 * 8 + 64 =
        // 864 bytes, so a 3_000-byte budget holds at most 3 batch entries.
        let router = Router::new(
            &named_factory("cpam-h"),
            &data,
            &universe,
            &cfg(2, 32, 3_000),
            0,
        );
        for round in 0..10i64 {
            let ins: Vec<PointI<2>> = (0..50)
                .map(|i| Point::new([(round * 50 + i) * 13 % max, i * 17 % max]))
                .collect();
            router.publish(&[], &ins);
        }
        let (lo, hi) = router.epoch_bounds().unwrap();
        assert_eq!(hi, 10);
        assert!(lo >= 7, "byte budget must evict older epochs (lo = {lo})");
        assert!(router.pin_at(hi).is_some(), "newest epoch always kept");
        assert!(router.pin_at(lo.saturating_sub(1)).is_none());

        // A byte budget smaller than any entry still keeps the newest.
        let tiny = Router::new(
            &named_factory("cpam-h"),
            &data,
            &universe,
            &cfg(1, 32, 1),
            0,
        );
        tiny.publish(&[], &data[..50]);
        assert_eq!(tiny.epoch_bounds(), Some((1, 1)));
    }

    #[test]
    fn base_epoch_seeds_views_and_history() {
        let max = 50_000;
        let universe = workloads::universe::<2>(max);
        let data = workloads::uniform::<2>(500, max, 37);
        let router = Router::new(
            &named_factory("spac-h"),
            &data,
            &universe,
            &cfg(2, 4, 0),
            17,
        );
        assert_eq!(router.epoch(), 17);
        assert_eq!(router.pin().epoch(), 17);
        assert_eq!(router.epoch_bounds(), Some((17, 17)));
        assert_eq!(router.publish(&[], &data[..5]), 18);
        assert_eq!(router.epoch(), 18);
        assert_eq!(router.pin_at(18).unwrap().epoch(), 18);
        assert_eq!(router.pin_at(17).unwrap().epoch(), 17);
        assert!(router.pin_at(16).is_none());
    }

    #[test]
    fn f64_router_works_through_quantised_families() {
        let universe = Rect::from_corners(Point::new([0.0, 0.0]), Point::new([1_000.0, 1_000.0]));
        let factory: IndexFactory<f64, 2> = Arc::new(|pts: &[Point<f64, 2>]| {
            registry::create_f64::<2>("zd", pts, &BuildOptions::default()).unwrap()
        });
        let data: Vec<Point<f64, 2>> = (0..2_000)
            .map(|i| Point::new([((i * 37) % 1_000) as f64, ((i * 91) % 1_000) as f64]))
            .collect();
        let router = Router::new(&factory, &data, &universe, &cfg(2, 8, 0), 0);
        let oracle = BruteForce::<f64, 2>::build(&data, &universe);
        let view = router.pin();
        let q = Point::new([500.0, 500.0]);
        let gd: Vec<f64> = view.knn(&q, 9).iter().map(|p| q.dist_sq(p)).collect();
        let wd: Vec<f64> = oracle.knn(&q, 9).iter().map(|p| q.dist_sq(p)).collect();
        assert_eq!(gd, wd);
    }
}
