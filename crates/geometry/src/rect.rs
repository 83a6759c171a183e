//! Axis-aligned boxes ("bounding boxes" / "bounding volumes").
//!
//! Every index in the paper augments tree nodes with the smallest enclosing
//! axis-aligned region of the points in the subtree (Fig. 1 marks these in
//! blue). Queries prune subtrees by comparing the query ball or query box
//! against these rectangles; the predicates needed for that live here.

use crate::coord::Coord;
use crate::point::Point;

/// A closed axis-aligned box `[lo, hi]` in `R^D`.
///
/// Both corners are inclusive, matching how the paper's range queries are
/// defined (a point on the box boundary is inside the range). The "empty"
/// rectangle is represented with `lo > hi` in every dimension and is the
/// identity of [`Rect::merged`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Rect<T: Coord, const D: usize> {
    /// Lower-left corner (coordinate-wise minimum).
    pub lo: Point<T, D>,
    /// Upper-right corner (coordinate-wise maximum).
    pub hi: Point<T, D>,
}

impl<T: Coord, const D: usize> Rect<T, D> {
    /// Box from explicit corners. Corners are normalised so that
    /// `lo[d] <= hi[d]` in every dimension.
    pub fn new(a: Point<T, D>, b: Point<T, D>) -> Self {
        let mut lo = a;
        let mut hi = b;
        for d in 0..D {
            if lo.coords[d].total_cmp(&hi.coords[d]) == std::cmp::Ordering::Greater {
                std::mem::swap(&mut lo.coords[d], &mut hi.coords[d]);
            }
        }
        Rect { lo, hi }
    }

    /// Box from corners that are already ordered; no normalisation.
    #[inline(always)]
    pub fn from_corners(lo: Point<T, D>, hi: Point<T, D>) -> Self {
        Rect { lo, hi }
    }

    /// The empty box: the identity element of [`Rect::merged`], containing no point.
    pub fn empty() -> Self {
        Rect {
            lo: Point::new([T::MAX_VALUE; D]),
            hi: Point::new([T::MIN_VALUE; D]),
        }
    }

    /// A degenerate box containing exactly one point.
    #[inline(always)]
    pub fn singleton(p: Point<T, D>) -> Self {
        Rect { lo: p, hi: p }
    }

    /// Smallest box enclosing a set of points; [`Rect::empty`] for an empty slice.
    pub fn bounding(points: &[Point<T, D>]) -> Self {
        let mut r = Self::empty();
        for p in points {
            r.expand(p);
        }
        r
    }

    /// `true` iff this is the empty box (no point is contained).
    pub fn is_empty(&self) -> bool {
        for d in 0..D {
            if self.lo.coords[d].total_cmp(&self.hi.coords[d]) == std::cmp::Ordering::Greater {
                return true;
            }
        }
        false
    }

    /// Grow the box (in place) to include `p`.
    #[inline]
    pub fn expand(&mut self, p: &Point<T, D>) {
        for d in 0..D {
            if p.coords[d].total_cmp(&self.lo.coords[d]) == std::cmp::Ordering::Less {
                self.lo.coords[d] = p.coords[d];
            }
            if p.coords[d].total_cmp(&self.hi.coords[d]) == std::cmp::Ordering::Greater {
                self.hi.coords[d] = p.coords[d];
            }
        }
    }

    /// Smallest box containing both `self` and `other`.
    #[inline]
    pub fn merged(&self, other: &Self) -> Self {
        let mut r = *self;
        for d in 0..D {
            if other.lo.coords[d].total_cmp(&r.lo.coords[d]) == std::cmp::Ordering::Less {
                r.lo.coords[d] = other.lo.coords[d];
            }
            if other.hi.coords[d].total_cmp(&r.hi.coords[d]) == std::cmp::Ordering::Greater {
                r.hi.coords[d] = other.hi.coords[d];
            }
        }
        r
    }

    /// `true` iff the point lies inside the (closed) box.
    #[inline(always)]
    pub fn contains(&self, p: &Point<T, D>) -> bool {
        for d in 0..D {
            let c = p.coords[d];
            if c.total_cmp(&self.lo.coords[d]) == std::cmp::Ordering::Less
                || c.total_cmp(&self.hi.coords[d]) == std::cmp::Ordering::Greater
            {
                return false;
            }
        }
        true
    }

    /// `true` iff `other` is entirely inside `self`.
    #[inline]
    pub fn contains_rect(&self, other: &Self) -> bool {
        if other.is_empty() {
            return true;
        }
        self.contains(&other.lo) && self.contains(&other.hi)
    }

    /// `true` iff the two (closed) boxes share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Self) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        for d in 0..D {
            if self.hi.coords[d].total_cmp(&other.lo.coords[d]) == std::cmp::Ordering::Less
                || other.hi.coords[d].total_cmp(&self.lo.coords[d]) == std::cmp::Ordering::Less
            {
                return false;
            }
        }
        true
    }

    /// Squared distance from a point to the box (0 if the point is inside).
    ///
    /// This is the pruning primitive of every kNN search in the paper: a
    /// subtree whose bounding box is farther than the current k-th neighbour
    /// can be skipped. Always inlined, so each monomorphising crate's kNN
    /// descent gets it in line whatever its inliner would choose.
    #[inline(always)]
    pub fn dist_sq_to_point(&self, p: &Point<T, D>) -> T::Dist {
        let mut acc = T::DIST_ZERO;
        for d in 0..D {
            let c = p.coords[d];
            let lo = self.lo.coords[d];
            let hi = self.hi.coords[d];
            if c.total_cmp(&lo) == std::cmp::Ordering::Less {
                acc = T::dist_add(acc, c.diff_sq(lo));
            } else if c.total_cmp(&hi) == std::cmp::Ordering::Greater {
                acc = T::dist_add(acc, c.diff_sq(hi));
            }
        }
        acc
    }

    /// Centre of the box along dimension `d` (the spatial-median splitter of
    /// an Orth-tree node).
    #[inline(always)]
    pub fn midpoint(&self, d: usize) -> T {
        self.lo.coords[d].mid_floor(self.hi.coords[d])
    }

    /// Side length (extent) along dimension `d`, as `f64`, for reporting.
    pub fn extent(&self, d: usize) -> f64 {
        self.hi.coords[d].to_f64() - self.lo.coords[d].to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PointI, RectI};

    fn r(lo: [i64; 2], hi: [i64; 2]) -> RectI<2> {
        Rect::from_corners(Point::new(lo), Point::new(hi))
    }

    #[test]
    fn empty_box_properties() {
        let e = RectI::<2>::empty();
        assert!(e.is_empty());
        assert!(!e.contains(&Point::new([0, 0])));
        assert!(!e.intersects(&r([0, 0], [10, 10])));
        // merging with empty is identity
        let a = r([1, 2], [3, 4]);
        assert_eq!(e.merged(&a), a);
        assert_eq!(a.merged(&e), a);
    }

    #[test]
    fn bounding_of_points() {
        let pts = vec![
            PointI::<2>::new([3, 7]),
            PointI::<2>::new([-1, 2]),
            PointI::<2>::new([5, 5]),
        ];
        let b = Rect::bounding(&pts);
        assert_eq!(b, r([-1, 2], [5, 7]));
        for p in &pts {
            assert!(b.contains(p));
        }
    }

    #[test]
    fn bounding_of_empty_slice_is_empty() {
        let b: RectI<2> = Rect::bounding(&[]);
        assert!(b.is_empty());
    }

    #[test]
    fn contains_is_closed() {
        let b = r([0, 0], [10, 10]);
        assert!(b.contains(&Point::new([0, 0])));
        assert!(b.contains(&Point::new([10, 10])));
        assert!(b.contains(&Point::new([5, 10])));
        assert!(!b.contains(&Point::new([11, 5])));
        assert!(!b.contains(&Point::new([5, -1])));
    }

    #[test]
    fn intersects_cases() {
        let a = r([0, 0], [10, 10]);
        assert!(a.intersects(&r([5, 5], [15, 15])));
        assert!(a.intersects(&r([10, 10], [20, 20]))); // touching corners count
        assert!(!a.intersects(&r([11, 0], [20, 10])));
        assert!(a.intersects(&r([2, 2], [3, 3]))); // containment
        assert!(r([2, 2], [3, 3]).intersects(&a));
    }

    #[test]
    fn contains_rect_cases() {
        let a = r([0, 0], [10, 10]);
        assert!(a.contains_rect(&r([2, 2], [8, 8])));
        assert!(a.contains_rect(&a));
        assert!(!a.contains_rect(&r([2, 2], [11, 8])));
        assert!(a.contains_rect(&RectI::<2>::empty()));
    }

    #[test]
    fn dist_sq_to_point() {
        let b = r([0, 0], [10, 10]);
        assert_eq!(b.dist_sq_to_point(&Point::new([5, 5])), 0);
        assert_eq!(b.dist_sq_to_point(&Point::new([13, 14])), 9 + 16);
        assert_eq!(b.dist_sq_to_point(&Point::new([-3, 5])), 9);
        assert_eq!(b.dist_sq_to_point(&Point::new([10, 10])), 0);
    }

    #[test]
    fn midpoint_splitter() {
        let b = r([0, 10], [10, 20]);
        assert_eq!(b.midpoint(0), 5);
        assert_eq!(b.midpoint(1), 15);
    }

    #[test]
    fn new_normalises_corners() {
        let b = Rect::new(PointI::<2>::new([10, 0]), PointI::<2>::new([0, 10]));
        assert_eq!(b, r([0, 0], [10, 10]));
    }

    #[test]
    fn expand_grows_monotonically() {
        let mut b = RectI::<2>::empty();
        b.expand(&Point::new([5, 5]));
        assert_eq!(b, r([5, 5], [5, 5]));
        b.expand(&Point::new([3, 9]));
        assert_eq!(b, r([3, 5], [5, 9]));
    }
}
