//! Cache-conscious SoA (structure-of-arrays) leaf storage.
//!
//! Every batch-parallel index in the workspace bottoms out in a leaf point
//! sweep: range filtering tests each point against a closed box, kNN
//! accumulates a squared distance per point. With the AoS layout
//! (`Vec<Point<T, D>>`) those inner loops interleave the `D` coordinates of
//! each point and branch per dimension, so the compiler cannot vectorize
//! them. [`LeafSoA`] stores one contiguous *key plane* per dimension
//! instead — each coordinate mapped through [`Coord::total_key`], an
//! order-isomorphic and invertible embedding of `total_cmp` into `i64` — and
//! expresses the kernels as branch-light per-plane passes:
//!
//! * containment per dimension is two integer compares on the keys (so NaN
//!   and `-0.0` semantics match [`Rect::contains`] bit for bit); the
//!   per-dimension tests are ANDed branch-free per point, so counting is a
//!   single vectorizable compare-and-accumulate pass,
//! * range filtering computes a byte of hit flags per point (64-point
//!   blocks), then gathers survivors in ascending index order off the
//!   precomputed flags,
//! * kNN accumulates `diff_sq`/`dist_add` across the planes per point — the
//!   same operations in the same order as [`Point::dist_sq`], so distances
//!   (and therefore heap tie-breaks) are bit-identical to the AoS scan —
//!   and materialises a `Point` from the planes only on heap acceptance.
//!
//! Point order is preserved end to end (`from_points` keeps slice order,
//! every kernel visits ascending indices), so any consumer that swaps its
//! leaf representation from `Vec<Point>` to `LeafSoA` returns *exactly* the
//! same answers, including ties and NaN handling.
//!
//! The leaf also carries its bounding box, giving every kernel a small-rect
//! prefilter: a query box that misses the box answers without touching the
//! planes, and one that swallows it whole skips the per-point tests. kNN
//! gets the same treatment once its heap is full — a leaf whose bbox
//! minimum distance cannot beat the current k-th best is skipped whole,
//! guarded by a per-coordinate exactness fence ([`Coord::PRUNABLE_KEY_LO`] /
//! [`Coord::PRUNABLE_KEY_HI`]) outside which distance arithmetic could
//! overflow or go NaN and the prune falls back to the plain scan.
//!
//! The AoS reference kernels ([`aos_range_count`], [`aos_range_visit`],
//! [`aos_knn_offer`]) are kept as free functions: they are the equivalence
//! oracle for the proptests and the baseline for `bench_leaf`.

use crate::coord::Coord;
use crate::knn::KnnHeap;
use crate::point::Point;
use crate::rect::Rect;
use std::sync::Arc;

/// Points per range-filter flag block (sizes the stack flag buffer).
const MASK_BLOCK: usize = 64;

/// A leaf's points in SoA layout: one contiguous key plane per dimension,
/// plus the bounding box of the stored points.
///
/// Stored plane-major: the [`Coord::total_key`] of coordinate `d` of point
/// `i` lives at `keys[d * len + i]` — a single allocation regardless of `D`.
/// The keys are the only copy of the coordinates: range tests compare them
/// as plain `i64`s, and [`Coord::from_total_key`] decodes them bit for bit
/// (the identity for `i64`) for points and distances.
///
/// A leaf is immutable once built (updates replace it with a new one), so
/// its plane is `Arc`-shared: a clone — what a snapshotting tree does when
/// it copies a node array holding this leaf — bumps one reference count and
/// copies no coordinates.
#[derive(Clone, Debug)]
pub struct LeafSoA<T: Coord, const D: usize> {
    keys: Arc<[i64]>,
    bbox: Rect<T, D>,
}

impl<T: Coord, const D: usize> LeafSoA<T, D> {
    /// Transpose a point slice into key planes, preserving order.
    pub fn from_points(points: &[Point<T, D>]) -> Self {
        let n = points.len();
        // Orth-trees hold many empty leaves; the empty slice is one static
        // allocation shared by all of them.
        let keys = if n == 0 {
            Arc::default()
        } else {
            // Written straight into the shared allocation (no intermediate
            // `Vec` to copy from), one unit-stride pass per plane.
            let mut out = Arc::<[i64]>::new_uninit_slice(n * D);
            let slots = Arc::get_mut(&mut out).expect("a fresh Arc has no other handle");
            for (d, plane) in slots.chunks_exact_mut(n).enumerate() {
                for (slot, p) in plane.iter_mut().zip(points) {
                    slot.write(p.coords[d].total_key());
                }
            }
            // SAFETY: the `D` chunks of `n` slots cover all `n * D` slots,
            // and the inner loop wrote every slot of each chunk.
            unsafe { out.assume_init() }
        };
        LeafSoA {
            keys,
            bbox: Rect::bounding(points),
        }
    }

    /// An empty leaf.
    pub fn empty() -> Self {
        Self::from_points(&[])
    }

    /// Number of stored points (`0` for the degenerate `D == 0`).
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.keys.len().checked_div(D).unwrap_or(0)
    }

    /// `true` iff no point is stored.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Bounding box of the stored points ([`Rect::empty`] when empty).
    #[inline(always)]
    pub fn bbox(&self) -> &Rect<T, D> {
        &self.bbox
    }

    /// Coordinate `d` of point `i`, decoded from its key.
    ///
    /// # Safety
    /// `d < D` and `i < self.len()`.
    #[inline(always)]
    unsafe fn coord_unchecked(&self, d: usize, i: usize) -> T {
        // SAFETY: `keys.len() == D * len` by construction. Unchecked because
        // this runs on every kNN distance and every range-filter hit.
        T::from_total_key(*self.keys.get_unchecked(d * self.len() + i))
    }

    /// Reconstruct point `i` (original insertion order).
    #[inline(always)]
    pub fn point(&self, i: usize) -> Point<T, D> {
        assert!(i < self.len());
        // SAFETY: `i < len` (asserted above).
        unsafe { self.point_unchecked(i) }
    }

    /// [`Self::point`] without the bounds check, for the kernels' gather
    /// loops (one materialisation per range hit).
    ///
    /// # Safety
    /// `i < self.len()`.
    #[inline(always)]
    unsafe fn point_unchecked(&self, i: usize) -> Point<T, D> {
        debug_assert!(i < self.len());
        Point::new(std::array::from_fn(|d| self.coord_unchecked(d, i)))
    }

    /// The stored points in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Point<T, D>> + '_ {
        (0..self.len()).map(|i| self.point(i))
    }

    /// Append all stored points (in order) to `out`.
    pub fn collect_into(&self, out: &mut Vec<Point<T, D>>) {
        out.reserve(self.len());
        out.extend(self.iter());
    }

    /// The stored points as a fresh `Vec`, in order. Mutating paths
    /// (leaf-level insert/delete) transpose back with this, run the existing
    /// AoS logic, and rebuild — keeping structure and answers identical to
    /// the pre-SoA representation.
    pub fn to_vec(&self) -> Vec<Point<T, D>> {
        let mut out = Vec::new();
        self.collect_into(&mut out);
        out
    }

    /// Per-point hit flags for the `block_len <= 64` points starting at
    /// `base`: `flags[j] != 0` iff point `base + j` lies in the key interval
    /// `[lo, hi]` on every dimension. One unit-stride pass per plane — a
    /// compare-and-mask loop over two contiguous slices, which the compiler
    /// turns into SIMD compares.
    #[inline]
    fn block_flags(
        &self,
        lo: &[i64; D],
        hi: &[i64; D],
        base: usize,
        block_len: usize,
        flags: &mut [u8; MASK_BLOCK],
    ) {
        // Dimension 0 writes the flags outright (no fill pass), the rest AND
        // into them — one unit-stride pass per plane either way.
        if D == 0 {
            flags[..block_len].fill(1);
            return;
        }
        let plane = &self.keys[base..][..block_len];
        for (f, &k) in flags[..block_len].iter_mut().zip(plane.iter()) {
            *f = ((k >= lo[0]) as u8) & ((k <= hi[0]) as u8);
        }
        for d in 1..D {
            let plane = &self.keys[d * self.len() + base..][..block_len];
            for (f, &k) in flags[..block_len].iter_mut().zip(plane.iter()) {
                *f &= ((k >= lo[d]) as u8) & ((k <= hi[d]) as u8);
            }
        }
    }

    /// Per-dimension `total_key` bounds of `rect`.
    #[inline]
    fn key_bounds(rect: &Rect<T, D>) -> ([i64; D], [i64; D]) {
        (
            std::array::from_fn(|d| rect.lo.coords[d].total_key()),
            std::array::from_fn(|d| rect.hi.coords[d].total_key()),
        )
    }

    /// Number of stored points inside the closed box `rect`. Exactly
    /// `aos_range_count` on the same points.
    #[inline]
    pub fn range_count(&self, rect: &Rect<T, D>) -> usize {
        let (lo, hi) = Self::key_bounds(rect);
        // No bbox prefilter and no full-cover shortcut here: the scan below
        // is a handful of SIMD iterations even at the largest leaf size, so
        // the prefilter compares would cost as much as they could save (and
        // the index node above the leaf already prunes disjoint subtrees and
        // takes fully-covered ones whole). A disjoint or empty query simply
        // counts zero hits.
        // Fused per-point pass: `D` unit-stride plane reads, branch-free
        // compare-and-accumulate. `get_unchecked` removes the bounds checks
        // that otherwise block vectorization of the multi-plane indexing.
        let mut count = 0usize;
        for i in 0..self.len() {
            let mut hit = 1u8;
            for d in 0..D {
                // SAFETY: `keys.len() == D * len` by construction, `d < D`,
                // `i < len`.
                let k = unsafe { *self.keys.get_unchecked(d * self.len() + i) };
                hit &= ((k >= lo[d]) as u8) & ((k <= hi[d]) as u8);
            }
            count += hit as usize;
        }
        count
    }

    /// Visit every stored point inside the closed box `rect`, in insertion
    /// order. Exactly `aos_range_visit` on the same points. Generic over the
    /// visitor (rather than `&mut dyn FnMut`) so the per-hit call can be
    /// devirtualized and inlined; `&mut dyn FnMut` still satisfies the bound.
    #[inline]
    pub fn range_visit<F: FnMut(&Point<T, D>)>(&self, rect: &Rect<T, D>, mut visit: F) {
        // The bbox prefilter: an empty leaf or query box, or one that misses
        // the bbox, visits nothing; one that covers it visits every point.
        if !rect.intersects(&self.bbox) {
            return;
        }
        let len = self.len();
        if rect.contains_rect(&self.bbox) {
            for i in 0..len {
                // SAFETY: `i < len`.
                visit(&unsafe { self.point_unchecked(i) });
            }
            return;
        }
        let (lo, hi) = Self::key_bounds(rect);
        let mut flags = [0u8; MASK_BLOCK];
        let mut base = 0usize;
        while base < len {
            let block_len = (len - base).min(MASK_BLOCK);
            // Pass 1 (vectorized): per-point hit flags for the block.
            self.block_flags(&lo, &hi, base, block_len, &mut flags);
            // Pass 2: gather hits in insertion order; the branch tests a
            // precomputed byte, so sparse blocks predict perfectly.
            for (j, &f) in flags[..block_len].iter().enumerate() {
                if f != 0 {
                    // SAFETY: `base + j < base + block_len <= len`.
                    visit(&unsafe { self.point_unchecked(base + j) });
                }
            }
            base += MASK_BLOCK;
        }
    }

    /// Squared distance from `qc` to point `i`. Performs the same
    /// `diff_sq`/`dist_add` sequence as [`Point::dist_sq`] — same ops, same
    /// order — so the distance is bit-identical to the AoS scan.
    ///
    /// # Safety
    /// `i < self.len()`.
    #[inline(always)]
    unsafe fn dist_unchecked(&self, qc: &[T; D], i: usize) -> T::Dist {
        let mut dist = T::DIST_ZERO;
        for (d, q) in qc.iter().enumerate() {
            // SAFETY: `d < D`, `i < len` per the caller's contract.
            let c = self.coord_unchecked(d, i);
            dist = T::dist_add(dist, q.diff_sq(c));
        }
        dist
    }

    /// Fill phase of [`Self::knn_offer`]: while the heap holds fewer than k
    /// candidates every offer is accepted, no gate needed. At most k points
    /// ever run here across a whole query, so this is kept out of the hot
    /// scan's instruction stream. Returns the index of the first unoffered
    /// point.
    #[cold]
    #[inline(never)]
    fn knn_fill(&self, qc: &[T; D], heap: &mut KnnHeap<T, D>) -> usize {
        let mut i = 0;
        while i < self.len() && !heap.is_full() {
            // SAFETY: `i < len`.
            let d = unsafe { self.dist_unchecked(qc, i) };
            let p = unsafe { self.point_unchecked(i) };
            heap.offer_improving(d, p);
            i += 1;
        }
        i
    }

    /// `true` when every stored coordinate's key sits inside the
    /// [`Coord::PRUNABLE_KEY_LO`] fence, i.e. bounding-box distance pruning
    /// is sound for this leaf. The bbox keys are the per-dim key extrema, so
    /// two compares per dimension cover every point.
    #[inline(always)]
    fn prunable(&self) -> bool {
        let (key_lo, key_hi) = Self::key_bounds(&self.bbox);
        (0..D).all(|d| T::PRUNABLE_KEY_LO <= key_lo[d] && key_hi[d] <= T::PRUNABLE_KEY_HI)
    }

    /// Offer every stored point to `heap` in insertion order. Distances and
    /// acceptance decisions are bit-identical to `aos_knn_offer` (see
    /// [`Self::dist_unchecked`] for distances; the gates below compose to
    /// exactly [`KnnHeap::offer`]'s acceptance test), so heap contents
    /// **including tie-breaks** match the AoS scan.
    #[inline]
    pub fn knn_offer(&self, query: &Point<T, D>, heap: &mut KnnHeap<T, D>) {
        let qc = query.coords;
        let len = self.len();
        let mut i = 0;
        if !heap.is_full() {
            i = self.knn_fill(&qc, heap);
        }
        // Leaf-level prune — the metadata payoff of the SoA header: the tight
        // bbox of the stored points sits right next to the planes, so when
        // even the closest corner of the leaf cannot beat the current k-th
        // distance, one rect-distance test retires the whole scan. Exact
        // because `dist_sq_to_point` lower-bounds every stored point's
        // distance (clamping shrinks each per-dim |diff|, and `diff_sq` /
        // `dist_add` are monotone), which holds only while all keys involved
        // sit inside the `PRUNABLE_KEY_*` fence — NaN/infinite coordinates
        // (`f64`) or magnitudes that could wrap the i128 accumulator (`i64`)
        // fall through to the per-point scan below instead.
        if i < len
            && self.prunable()
            && (0..D).all(|d| {
                let k = qc[d].total_key();
                (T::PRUNABLE_KEY_LO..=T::PRUNABLE_KEY_HI).contains(&k)
            })
            && T::dist_cmp(self.bbox.dist_sq_to_point(query), heap.top_dist())
                != std::cmp::Ordering::Less
        {
            return;
        }
        // Bound phase: a full heap never shrinks, so from here the gate is a
        // single distance compare against the current k-th best
        // ([`KnnHeap::top_dist`]) — exactly [`KnnHeap::offer`]'s acceptance
        // test minus the now-constant fullness check. Candidates run in
        // insertion order against the live bound, and a `Point` is
        // materialised from the planes only on acceptance.
        if i == len {
            return;
        }
        while i < len {
            // SAFETY: `i < len`.
            let d = unsafe { self.dist_unchecked(&qc, i) };
            if T::dist_cmp(d, heap.top_dist()) == std::cmp::Ordering::Less {
                // SAFETY: `i < len`.
                let p = unsafe { self.point_unchecked(i) };
                heap.offer_improving(d, p);
            }
            i += 1;
        }
    }
}

impl<T: Coord, const D: usize> PartialEq for LeafSoA<T, D> {
    /// Bitwise equality of the stored points, in order (`total_key` is a
    /// bijection, so equal keys are equal coordinate bit patterns).
    fn eq(&self, other: &Self) -> bool {
        self.keys == other.keys
    }
}

// ---------------------------------------------------------------------------
// AoS reference kernels: the equivalence oracle and the bench baseline.
// ---------------------------------------------------------------------------

/// AoS range count: the plain filter the indexes used before SoA leaves.
pub fn aos_range_count<T: Coord, const D: usize>(
    points: &[Point<T, D>],
    rect: &Rect<T, D>,
) -> usize {
    points.iter().filter(|p| rect.contains(p)).count()
}

/// AoS range visit, in slice order.
pub fn aos_range_visit<T: Coord, const D: usize, F: FnMut(&Point<T, D>)>(
    points: &[Point<T, D>],
    rect: &Rect<T, D>,
    mut visit: F,
) {
    for p in points {
        if rect.contains(p) {
            visit(p);
        }
    }
}

/// AoS kNN accumulation, in slice order.
pub fn aos_knn_offer<T: Coord, const D: usize>(
    points: &[Point<T, D>],
    query: &Point<T, D>,
    heap: &mut KnnHeap<T, D>,
) {
    for p in points {
        heap.offer_point(query, *p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PointF, PointI, RectI};

    fn leaf_i(pts: &[[i64; 2]]) -> (Vec<PointI<2>>, LeafSoA<i64, 2>) {
        let points: Vec<PointI<2>> = pts.iter().map(|&c| PointI::new(c)).collect();
        let soa = LeafSoA::from_points(&points);
        (points, soa)
    }

    #[test]
    fn round_trips_preserve_order() {
        let (points, soa) = leaf_i(&[[3, 1], [0, 0], [3, 1], [-5, 9]]);
        assert_eq!(soa.len(), 4);
        assert_eq!(soa.to_vec(), points);
        assert_eq!(soa.point(2), points[2]);
        assert_eq!(soa.bbox(), &Rect::bounding(&points));
    }

    #[test]
    fn empty_leaf() {
        let soa = LeafSoA::<i64, 2>::empty();
        assert!(soa.is_empty());
        assert!(soa.bbox().is_empty());
        let everything = RectI::<2>::from_corners(PointI::new([-10, -10]), PointI::new([10, 10]));
        assert_eq!(soa.range_count(&everything), 0);
        let mut heap = KnnHeap::new(3);
        soa.knn_offer(&PointI::new([0, 0]), &mut heap);
        assert!(heap.is_empty());
    }

    #[test]
    fn kernels_match_aos_on_a_mixed_leaf() {
        let (points, soa) = leaf_i(&[
            [0, 0],
            [10, 10],
            [-3, 7],
            [5, 5],
            [10, 0],
            [0, 10],
            [-3, 7],
            [1_000_000_000, -1_000_000_000],
        ]);
        for rect in [
            RectI::from_corners(PointI::new([0, 0]), PointI::new([10, 10])),
            RectI::from_corners(PointI::new([-5, -5]), PointI::new([-1, 8])),
            RectI::from_corners(PointI::new([7, 7]), PointI::new([8, 8])),
            RectI::from_corners(
                PointI::new([i64::MIN, i64::MIN]),
                PointI::new([i64::MAX, i64::MAX]),
            ),
        ] {
            assert_eq!(soa.range_count(&rect), aos_range_count(&points, &rect));
            let mut got = Vec::new();
            soa.range_visit(&rect, |p: &Point<i64, 2>| got.push(*p));
            let mut want = Vec::new();
            aos_range_visit(&points, &rect, |p: &Point<i64, 2>| want.push(*p));
            assert_eq!(got, want, "visit order must match AoS for {rect:?}");
        }
        let q = PointI::new([2, 3]);
        let mut h_soa = KnnHeap::new(3);
        soa.knn_offer(&q, &mut h_soa);
        let mut h_aos = KnnHeap::new(3);
        aos_knn_offer(&points, &q, &mut h_aos);
        assert_eq!(h_soa.into_sorted_with_dist(), h_aos.into_sorted_with_dist());
    }

    #[test]
    fn f64_nan_and_negative_zero_match_aos() {
        let points: Vec<PointF<2>> = [
            [0.0, 0.0],
            [-0.0, 0.0],
            [0.0, -0.0],
            [f64::NAN, 1.0],
            [1.0, f64::NAN],
            [f64::INFINITY, f64::NEG_INFINITY],
            [f64::MIN_POSITIVE / 4.0, -f64::MIN_POSITIVE / 4.0],
        ]
        .iter()
        .map(|&c| PointF::new(c))
        .collect();
        let soa = LeafSoA::from_points(&points);
        // Rects whose corners hit the special values exactly: containment
        // must follow total_cmp (−0.0 < +0.0 < … < NaN) identically.
        let rects = [
            Rect::from_corners(PointF::new([-0.0, -0.0]), PointF::new([0.0, 0.0])),
            Rect::from_corners(PointF::new([0.0, -1.0]), PointF::new([f64::NAN, 2.0])),
            Rect::from_corners(PointF::new([-1.0, -1.0]), PointF::new([1.0, 1.0])),
            Rect::from_corners(
                PointF::new([f64::NEG_INFINITY, f64::NEG_INFINITY]),
                PointF::new([f64::INFINITY, f64::INFINITY]),
            ),
        ];
        for rect in &rects {
            assert_eq!(
                soa.range_count(rect),
                aos_range_count(&points, rect),
                "count mismatch for {rect:?}"
            );
            let mut got = Vec::new();
            soa.range_visit(rect, |p: &Point<f64, 2>| {
                got.push(p.coords.map(f64::to_bits))
            });
            let mut want = Vec::new();
            aos_range_visit(&points, rect, |p: &Point<f64, 2>| {
                want.push(p.coords.map(f64::to_bits))
            });
            assert_eq!(got, want, "bit-exact visit mismatch for {rect:?}");
        }
        let q = PointF::new([0.5, -0.5]);
        let mut h_soa = KnnHeap::new(4);
        soa.knn_offer(&q, &mut h_soa);
        let mut h_aos = KnnHeap::new(4);
        aos_knn_offer(&points, &q, &mut h_aos);
        let bits = |v: Vec<(f64, PointF<2>)>| -> Vec<(u64, [u64; 2])> {
            v.into_iter()
                .map(|(d, p)| (d.to_bits(), p.coords.map(f64::to_bits)))
                .collect()
        };
        assert_eq!(
            bits(h_soa.into_sorted_with_dist()),
            bits(h_aos.into_sorted_with_dist()),
            "kNN distances and ties must be bit-identical"
        );
    }

    #[test]
    fn f64_leaf_gives_back_every_bit_pattern() {
        let values = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001), // +NaN, payload set
            f64::from_bits(0xFFF8_0000_0000_0001), // -NaN, payload set
            f64::from_bits(0x7FF0_0000_0000_0001), // +signalling NaN
            f64::from_bits(0xFFF0_0000_0000_0001), // -signalling NaN
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0, // subnormal
            -f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1), // smallest subnormal
            f64::MAX,
            -f64::MAX,
            1.0,
        ];
        let n = values.len();
        let points: Vec<PointF<2>> = (0..n)
            .map(|i| PointF::new([values[i], values[(i + 5) % n]]))
            .collect();
        let bits = |p: &PointF<2>| p.coords.map(f64::to_bits);
        let want: Vec<[u64; 2]> = points.iter().map(bits).collect();
        let soa = LeafSoA::from_points(&points);
        assert_eq!(soa.iter().map(|p| bits(&p)).collect::<Vec<_>>(), want);
        assert_eq!(
            (0..n).map(|i| bits(&soa.point(i))).collect::<Vec<_>>(),
            want
        );
        assert_eq!(soa.to_vec().iter().map(bits).collect::<Vec<_>>(), want);
        // The extreme keys (NaNs with every payload bit set) bound every
        // point: a full-cover visit. Then a box that drops the NaNs and the
        // infinities: the per-point flag path.
        let all = Rect::from_corners(
            PointF::new([f64::from_bits(u64::MAX); 2]),
            PointF::new([f64::from_bits(i64::MAX as u64); 2]),
        );
        let finite = Rect::from_corners(PointF::new([-f64::MAX; 2]), PointF::new([f64::MAX; 2]));
        for rect in [all, finite] {
            let mut got = Vec::new();
            soa.range_visit(&rect, |p: &Point<f64, 2>| got.push(bits(p)));
            let mut expect = Vec::new();
            aos_range_visit(&points, &rect, |p: &Point<f64, 2>| expect.push(bits(p)));
            assert_eq!(got, expect, "bit-exact visit mismatch for {rect:?}");
        }
        assert_eq!(soa.range_count(&all), n);
    }

    #[test]
    fn multi_block_leaves_cross_mask_boundaries() {
        // > 64 points so the mask kernels straddle block boundaries; the
        // rect catches a sparse diagonal so the tail mask matters.
        let points: Vec<PointI<2>> = (0..157).map(|i| PointI::new([i, i * 3 % 101])).collect();
        let soa = LeafSoA::from_points(&points);
        let rect = RectI::from_corners(PointI::new([10, 10]), PointI::new([120, 60]));
        assert_eq!(soa.range_count(&rect), aos_range_count(&points, &rect));
        let mut got = Vec::new();
        soa.range_visit(&rect, |p: &Point<i64, 2>| got.push(*p));
        let mut want = Vec::new();
        aos_range_visit(&points, &rect, |p: &Point<i64, 2>| want.push(*p));
        assert_eq!(got, want);
        let q = PointI::new([50, 50]);
        let mut h_soa = KnnHeap::new(9);
        soa.knn_offer(&q, &mut h_soa);
        let mut h_aos = KnnHeap::new(9);
        aos_knn_offer(&points, &q, &mut h_aos);
        assert_eq!(h_soa.into_sorted_with_dist(), h_aos.into_sorted_with_dist());
    }
}
