//! Bounded candidate set for k-nearest-neighbour searches.
//!
//! Every index in the workspace answers kNN queries the same way the paper
//! describes: traverse the tree, keep the `k` closest points seen so far, and
//! prune any subtree whose bounding box is farther than the current k-th
//! distance. [`KnnHeap`] is that shared "k closest so far" structure — a
//! bounded max-heap keyed by squared distance.

use crate::coord::Coord;
use crate::point::Point;

/// A bounded max-heap of the `k` nearest candidates found so far.
pub struct KnnHeap<T: Coord, const D: usize> {
    k: usize,
    /// Binary max-heap by distance, stored as a flat array.
    heap: Vec<(T::Dist, Point<T, D>)>,
}

impl<T: Coord, const D: usize> KnnHeap<T, D> {
    /// A collector for the `k` nearest neighbours (`k >= 1`).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "kNN queries require k >= 1");
        KnnHeap {
            k,
            heap: Vec::with_capacity(k + 1),
        }
    }

    /// Clear the heap and retarget it to `k` candidates, keeping the backing
    /// allocation. This is the reuse hook of the allocation-free query layer:
    /// batch drivers hold one heap per worker thread and `reset` it between
    /// queries instead of allocating a fresh heap.
    pub fn reset(&mut self, k: usize) {
        assert!(k >= 1, "kNN queries require k >= 1");
        self.k = k;
        self.heap.clear();
        // len is 0 here, so this guarantees capacity >= k + 1 (no-op when the
        // previous run already grew the buffer enough).
        self.heap.reserve(k + 1);
    }

    /// Number of candidates currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no candidate has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// `true` once `k` candidates are held (pruning becomes possible).
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// The current pruning radius: the distance of the k-th best candidate, or
    /// `Dist::MAX` while fewer than `k` candidates have been seen.
    #[inline]
    pub fn worst_dist(&self) -> T::Dist {
        if self.is_full() {
            self.heap[0].0
        } else {
            T::DIST_MAX
        }
    }

    /// `true` if a subtree at squared distance `dist` could still contribute.
    #[inline]
    pub fn could_improve(&self, dist: T::Dist) -> bool {
        !self.is_full() || T::dist_cmp(dist, self.worst_dist()) == std::cmp::Ordering::Less
    }

    /// Offer a candidate point at squared distance `dist`. Always inlined:
    /// it is the per-point step of every AoS leaf scan, and left to the
    /// inliner's cost model it went out of line in SPaC's `knn_rec` when
    /// unrelated code in the same crate changed, costing psibench spac-h
    /// about 7 % of `knn_kqps` on a 2-vCPU Xeon.
    #[inline(always)]
    pub fn offer(&mut self, dist: T::Dist, p: Point<T, D>) {
        if self.is_full() {
            if T::dist_cmp(dist, self.heap[0].0) != std::cmp::Ordering::Less {
                return;
            }
            self.heap[0] = (dist, p);
            self.sift_down(0);
        } else {
            self.heap.push((dist, p));
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// [`Self::offer`] for a candidate the caller has already gated through
    /// [`Self::could_improve`] — skips re-testing acceptance. Same heap
    /// mutations as `offer` in the accepting case, so results are identical.
    #[inline]
    pub(crate) fn offer_improving(&mut self, dist: T::Dist, p: Point<T, D>) {
        debug_assert!(self.could_improve(dist));
        if self.is_full() {
            self.heap[0] = (dist, p);
            self.sift_down(0);
        } else {
            self.heap.push((dist, p));
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// The k-th best distance of a **full** heap — [`Self::worst_dist`]
    /// minus the fullness branch, for gate loops that have already
    /// established fullness (a full heap never shrinks until `reset`).
    #[inline]
    pub(crate) fn top_dist(&self) -> T::Dist {
        debug_assert!(self.is_full());
        self.heap[0].0
    }

    /// Offer a candidate, computing its distance from the query point.
    /// Always inlined, like [`KnnHeap::offer`]: it is the per-point step of
    /// every leaf scan.
    #[inline(always)]
    pub fn offer_point(&mut self, query: &Point<T, D>, p: Point<T, D>) {
        self.offer(query.dist_sq(&p), p);
    }

    /// Finish the query: candidates sorted by increasing distance.
    pub fn into_sorted(mut self) -> Vec<Point<T, D>> {
        self.heap
            .sort_by(|a, b| T::dist_cmp(a.0, b.0).then_with(|| a.1.lex_cmp(&b.1)));
        self.heap.into_iter().map(|(_, p)| p).collect()
    }

    /// Finish the query keeping the distances, sorted by increasing distance.
    pub fn into_sorted_with_dist(mut self) -> Vec<(T::Dist, Point<T, D>)> {
        self.heap
            .sort_by(|a, b| T::dist_cmp(a.0, b.0).then_with(|| a.1.lex_cmp(&b.1)));
        self.heap
    }

    /// Drain the candidates in increasing-distance order into `out`, leaving
    /// the heap empty (and its allocation intact) for the next query.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<Point<T, D>>) {
        self.heap
            .sort_by(|a, b| T::dist_cmp(a.0, b.0).then_with(|| a.1.lex_cmp(&b.1)));
        out.extend(self.heap.drain(..).map(|(_, p)| p));
    }

    /// Drain the candidates into a fresh sorted `Vec`, leaving the heap empty
    /// and reusable.
    pub fn drain_sorted(&mut self) -> Vec<Point<T, D>> {
        let mut out = Vec::with_capacity(self.heap.len());
        self.drain_sorted_into(&mut out);
        out
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if T::dist_cmp(self.heap[i].0, self.heap[parent].0) == std::cmp::Ordering::Greater {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut largest = i;
            if l < n
                && T::dist_cmp(self.heap[l].0, self.heap[largest].0) == std::cmp::Ordering::Greater
            {
                largest = l;
            }
            if r < n
                && T::dist_cmp(self.heap[r].0, self.heap[largest].0) == std::cmp::Ordering::Greater
            {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }
}

/// Reference kNN by exhaustive scan — the oracle every index is tested against.
pub fn brute_force_knn<T: Coord, const D: usize>(
    points: &[Point<T, D>],
    query: &Point<T, D>,
    k: usize,
) -> Vec<Point<T, D>> {
    let mut heap = KnnHeap::<T, D>::new(k);
    for p in points {
        heap.offer_point(query, *p);
    }
    heap.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PointI;
    use proptest::prelude::*;

    fn p(x: i64, y: i64) -> PointI<2> {
        PointI::new([x, y])
    }

    #[test]
    fn keeps_k_nearest() {
        let mut h = KnnHeap::<i64, 2>::new(2);
        let q = p(0, 0);
        for pt in [p(10, 0), p(1, 0), p(5, 0), p(2, 0), p(100, 100)] {
            h.offer_point(&q, pt);
        }
        assert_eq!(h.into_sorted(), vec![p(1, 0), p(2, 0)]);
    }

    #[test]
    fn fewer_points_than_k() {
        let mut h = KnnHeap::<i64, 2>::new(10);
        let q = p(0, 0);
        h.offer_point(&q, p(3, 4));
        h.offer_point(&q, p(1, 1));
        let out = h.into_sorted();
        assert_eq!(out, vec![p(1, 1), p(3, 4)]);
    }

    #[test]
    fn pruning_radius_tracks_kth_distance() {
        let mut h = KnnHeap::<i64, 2>::new(2);
        let q = p(0, 0);
        assert!(h.could_improve(i128::MAX - 1));
        h.offer_point(&q, p(3, 0)); // dist 9
        assert!(!h.is_full());
        h.offer_point(&q, p(5, 0)); // dist 25
        assert!(h.is_full());
        assert_eq!(h.worst_dist(), 25);
        assert!(h.could_improve(24));
        assert!(!h.could_improve(25));
        h.offer_point(&q, p(1, 0)); // dist 1 replaces 25
        assert_eq!(h.worst_dist(), 9);
    }

    #[test]
    fn reset_reuses_the_heap_across_k_changes() {
        let q = p(0, 0);
        let mut h = KnnHeap::<i64, 2>::new(2);
        h.offer_point(&q, p(1, 0));
        h.offer_point(&q, p(2, 0));
        // Growing k on a reused heap must hold all k candidates.
        h.reset(5);
        assert!(h.is_empty());
        for x in 1..=10 {
            h.offer_point(&q, p(x, 0));
        }
        assert_eq!(
            h.drain_sorted(),
            vec![p(1, 0), p(2, 0), p(3, 0), p(4, 0), p(5, 0)]
        );
        // Shrinking k tightens the pruning radius again.
        h.reset(1);
        h.offer_point(&q, p(9, 9));
        h.offer_point(&q, p(1, 1));
        assert_eq!(h.drain_sorted(), vec![p(1, 1)]);
    }

    #[test]
    fn duplicate_points_allowed() {
        let mut h = KnnHeap::<i64, 2>::new(3);
        let q = p(0, 0);
        for _ in 0..5 {
            h.offer_point(&q, p(2, 2));
        }
        assert_eq!(h.into_sorted().len(), 3);
    }

    #[test]
    fn brute_force_small() {
        let pts = vec![p(0, 0), p(10, 10), p(1, 1), p(-5, 2)];
        assert_eq!(brute_force_knn(&pts, &p(0, 0), 2), vec![p(0, 0), p(1, 1)]);
    }

    proptest! {
        /// The heap returns exactly the k smallest distances, whatever the
        /// insertion order.
        #[test]
        fn matches_sort_based_selection(
            pts in proptest::collection::vec((-1000i64..1000, -1000i64..1000), 1..200),
            k in 1usize..20,
        ) {
            let q = p(7, -3);
            let points: Vec<PointI<2>> = pts.iter().map(|&(x, y)| p(x, y)).collect();
            let got = brute_force_knn(&points, &q, k);

            let mut by_dist: Vec<_> = points.iter().map(|pt| (q.dist_sq(pt), *pt)).collect();
            by_dist.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.lex_cmp(&b.1)));
            let expect_dists: Vec<i128> =
                by_dist.iter().take(k.min(points.len())).map(|e| e.0).collect();
            let got_dists: Vec<i128> = got.iter().map(|pt| q.dist_sq(pt)).collect();
            prop_assert_eq!(got_dists, expect_dists);
        }
    }
}
