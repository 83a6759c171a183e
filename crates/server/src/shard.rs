//! Index snapshots and the writer side of one serving shard.
//!
//! A [`Snapshot`] is one immutable state of one shard's index. Readers never
//! see a shard directly: the [router](crate::router) publishes a whole view
//! — one snapshot per shard under one global epoch — and readers pin that
//! view. What lives here is the writer's half: `Shard::publish` applies a
//! `.psi`-style sub-batch (deletions, then insertions) and returns the
//! shard's next snapshot for the router to swap in. *How* that snapshot is
//! produced depends on the index family:
//!
//! * **Persistent mode** — families whose backbone is a functional
//!   (path-copying) tree, i.e. whose [`DynIndex::snapshot_dyn`] returns
//!   `Some` (the CPAM/SPaC PaC-trees), keep **one** live tree. A batch is
//!   applied in place — copy-on-write duplicates only the `O(batch · log n)`
//!   spine nodes it touches — and the snapshot is an `O(1)` handle clone
//!   sharing everything else with the live tree. No standby copy exists,
//!   memory is halved relative to the left-right scheme, and the writer
//!   **never waits on readers**: stale views just keep old spine nodes alive
//!   until dropped.
//! * **Left-right mode** — the fallback for families without structural
//!   sharing. The shard owns two structurally identical copies built by the
//!   same [`IndexFactory`]; batches apply to the standby copy, which then
//!   becomes the published one, and the old published copy becomes the next
//!   standby once the last views holding it drop. The writer waits for those
//!   stale views with a bounded spin that falls back to parking on the
//!   router's `Reclaim` condvar, which every dropped view signals — no
//!   unbounded CPU burn when a view is pinned across a long query.

use psi::registry::DynIndex;
use psi_geometry::{Coord, Point};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Builds one index copy over a point set. Persistent-capable families are
/// built once per shard; left-right families are built twice (published +
/// standby) so both copies share structure and tie-breaking behaviour.
pub type IndexFactory<T, const D: usize> =
    Arc<dyn Fn(&[Point<T, D>]) -> Box<dyn DynIndex<T, D>> + Send + Sync>;

/// An immutable state of one shard's index, reached through
/// [`RouterView::snapshot`](crate::RouterView::snapshot); queries run
/// against [`Snapshot::index`] without any locking, and the contents never
/// change while the view is held.
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

/// The left-right writer's parking spot: dropped views signal `retired` so
/// a writer waiting to reclaim a standby copy wakes at once instead of
/// spinning.
#[derive(Default)]
pub(crate) struct Reclaim {
    gate: Mutex<()>,
    retired: Condvar,
}

impl Reclaim {
    /// Wake a parked writer. Call only after releasing the snapshots that
    /// were pinned — otherwise the writer could wake, re-check the refcount,
    /// and park again (a lost wakeup). Never panics: views call this on
    /// drop, and the gate guards no data a panic could leave inconsistent.
    pub(crate) fn signal(&self) {
        let _gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        self.retired.notify_all();
    }

    /// Wait until `standby` is exclusively owned: views of older epochs may
    /// still hold it. Briefly spins (the common case — queries pin for
    /// microseconds), then parks until a dropped view signals. The timeout
    /// is belt-and-braces against a drop racing ahead of the park, not a
    /// correctness requirement.
    fn wait_exclusive<T: Coord, const D: usize>(&self, standby: &mut Arc<Snapshot<T, D>>) {
        for _ in 0..64 {
            if Arc::get_mut(standby).is_some() {
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..64 {
            if Arc::get_mut(standby).is_some() {
                return;
            }
            std::thread::yield_now();
        }
        let mut gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        while Arc::get_mut(standby).is_none() {
            gate = self
                .retired
                .wait_timeout(gate, Duration::from_millis(1))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// One update batch: deletions, then insertions.
type Batch<T, const D: usize> = (Vec<Point<T, D>>, Vec<Point<T, D>>);

/// Writer-private state of one shard (see the module docs for the modes).
pub(crate) enum Shard<T: Coord, const D: usize> {
    /// Persistent (path-copying) family: one live tree, snapshots share
    /// its structure. No standby, no lag batch, no reader wait.
    Persistent { live: Box<dyn DynIndex<T, D>> },
    /// Left-right fallback: two full copies, the classic scheme.
    LeftRight {
        /// The copy the router's current view holds.
        published: Arc<Snapshot<T, D>>,
        /// The copy the next batch will be applied to. Shared with views of
        /// older epochs until they drop; exclusively owned afterwards.
        standby: Arc<Snapshot<T, D>>,
        /// The batch already applied to `published` but not yet to
        /// `standby` (applied lazily at the start of the next publish).
        lag: Option<Batch<T, D>>,
    },
}

impl<T: Coord, const D: usize> Shard<T, D> {
    /// Build a shard over `points` and return it with its initial snapshot.
    /// If the factory's index supports persistent snapshots
    /// ([`DynIndex::snapshot_dyn`]), the factory is called **once** and the
    /// shard runs in persistent mode; otherwise it is called twice (the
    /// left-right double buffer).
    pub(crate) fn new(
        factory: &IndexFactory<T, D>,
        points: &[Point<T, D>],
    ) -> (Self, Arc<Snapshot<T, D>>) {
        let live = factory(points);
        match live.snapshot_dyn() {
            Some(index) => (Shard::Persistent { live }, Arc::new(Snapshot { index })),
            None => {
                let published = Arc::new(Snapshot { index: live });
                let shard = Shard::LeftRight {
                    published: Arc::clone(&published),
                    standby: Arc::new(Snapshot {
                        index: factory(points),
                    }),
                    lag: None,
                };
                (shard, published)
            }
        }
    }

    /// `true` in persistent mode: one live tree, `O(1)` structural-sharing
    /// snapshots, writer never waits on readers.
    pub(crate) fn is_persistent(&self) -> bool {
        matches!(self, Shard::Persistent { .. })
    }

    /// Apply one sub-batch (deletions first, then insertions — the
    /// `BatchDiff` contract) and return the shard's next snapshot. A
    /// persistent shard never waits on readers; a left-right shard first
    /// waits on `reclaim` until no view still holds its standby copy.
    pub(crate) fn publish(
        &mut self,
        delete: &[Point<T, D>],
        insert: &[Point<T, D>],
        reclaim: Option<&Reclaim>,
    ) -> Arc<Snapshot<T, D>> {
        match self {
            Shard::Persistent { live } => {
                // Copy-on-write: only the touched spine is duplicated; older
                // snapshots keep sharing everything else.
                live.batch_delete(delete);
                live.batch_insert(insert);
                Arc::new(Snapshot {
                    index: live.snapshot_dyn().expect("persistent family"),
                })
            }
            Shard::LeftRight {
                published,
                standby,
                lag,
            } => {
                reclaim
                    .expect("left-right shards have a reclaim channel")
                    .wait_exclusive(standby);
                let snap = Arc::get_mut(standby).expect("standby just became exclusive");
                // Catch up with the batch the standby missed, then apply
                // the new one.
                if let Some((del, ins)) = lag.take() {
                    snap.index.batch_delete(&del);
                    snap.index.batch_insert(&ins);
                }
                snap.index.batch_delete(delete);
                snap.index.batch_insert(insert);
                // The old published copy becomes the next standby.
                std::mem::swap(published, standby);
                *lag = Some((delete.to_vec(), insert.to_vec()));
                Arc::clone(published)
            }
        }
    }
}
