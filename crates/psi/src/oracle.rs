//! The brute-force oracle: a "spatial index" that simply stores the points in
//! a vector and answers every query by exhaustive scan.
//!
//! Slow but obviously correct — every other index is validated against it in
//! the conformance tests and the property suite, and it doubles as a reference
//! when debugging new index implementations. Generic over the coordinate type
//! like the trait itself, so it also oracles the `f64` configurations.
//!
//! Its snapshot shares the one point vector; the first update after it
//! copies the whole vector (the entire "path" of a one-node structure),
//! which is cheap enough for an oracle.

use crate::SpatialIndex;
use psi_geometry::{Coord, KnnHeap, Point, Rect};
use psi_parutils::cow;
use std::sync::Arc;

/// Exhaustive-scan implementation of [`SpatialIndex`].
pub struct BruteForce<T: Coord, const D: usize> {
    points: Arc<Vec<Point<T, D>>>,
}

impl<T: Coord, const D: usize> BruteForce<T, D> {
    /// All stored points (insertion order).
    pub fn points(&self) -> &[Point<T, D>] {
        &self.points
    }
}

impl<T: Coord, const D: usize> SpatialIndex<T, D> for BruteForce<T, D> {
    const NAME: &'static str = "BruteForce";
    /// Nothing to tune in a linear scan.
    type Config = ();

    fn build_with(points: &[Point<T, D>], _universe: Option<&Rect<T, D>>, _cfg: ()) -> Self {
        BruteForce {
            points: Arc::new(points.to_vec()),
        }
    }

    fn batch_insert(&mut self, points: &[Point<T, D>]) {
        if !points.is_empty() {
            cow::make_mut(&mut self.points).extend_from_slice(points);
        }
    }

    fn batch_delete(&mut self, points: &[Point<T, D>]) -> usize {
        // Multiset removal: each batch element removes at most one stored copy.
        let mut to_remove = points.to_vec();
        to_remove.sort();
        let mut kept = Vec::with_capacity(self.points.len());
        let mut stored = cow::unshare(std::mem::take(&mut self.points));
        stored.sort();
        let mut j = 0;
        let mut removed = 0;
        for p in stored {
            while j < to_remove.len() && to_remove[j] < p {
                j += 1;
            }
            if j < to_remove.len() && to_remove[j] == p {
                j += 1;
                removed += 1;
            } else {
                kept.push(p);
            }
        }
        self.points = Arc::new(kept);
        removed
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn range_visit(&self, rect: &Rect<T, D>, visitor: &mut dyn FnMut(&Point<T, D>)) {
        for p in self.points.iter().filter(|p| rect.contains(p)) {
            visitor(p);
        }
    }

    fn knn_into(&self, q: &Point<T, D>, k: usize, heap: &mut KnnHeap<T, D>) {
        heap.reset(k);
        for p in self.points.iter() {
            heap.offer_point(q, *p);
        }
    }

    fn snapshot(&self) -> Self {
        BruteForce {
            points: Arc::clone(&self.points),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_geometry::{Point, Rect};

    #[test]
    fn oracle_basics() {
        let uni = Rect::from_corners(Point::new([0, 0]), Point::new([100, 100]));
        let pts = vec![
            Point::new([1, 1]),
            Point::new([2, 2]),
            Point::new([2, 2]),
            Point::new([50, 50]),
        ];
        let mut o = BruteForce::<i64, 2>::build(&pts, &uni);
        assert_eq!(o.len(), 4);
        assert_eq!(o.batch_delete(&[Point::new([2, 2])]), 1);
        assert_eq!(o.len(), 3);
        assert_eq!(
            o.range_count(&Rect::from_corners(
                Point::new([0, 0]),
                Point::new([10, 10])
            )),
            2
        );
        assert_eq!(o.knn(&Point::new([0, 0]), 1), vec![Point::new([1, 1])]);
        assert_eq!(o.knn(&Point::new([0, 0]), 0), vec![]);
        o.batch_insert(&[Point::new([3, 3])]);
        assert_eq!(o.len(), 4);
    }

    #[test]
    fn oracle_works_on_floats() {
        let pts = vec![
            Point::new([0.5f64, 0.5]),
            Point::new([0.25, 0.25]),
            Point::new([0.9, 0.9]),
        ];
        let o = BruteForce::<f64, 2>::build_with(&pts, None, ());
        assert_eq!(
            o.knn(&Point::new([0.0, 0.0]), 1),
            vec![Point::new([0.25, 0.25])]
        );
        let r = Rect::from_corners(Point::new([0.0, 0.0]), Point::new([0.6, 0.6]));
        assert_eq!(o.range_count(&r), 2);
        let bb = o.bounding_box();
        assert_eq!(bb.lo, Point::new([0.25, 0.25]));
        assert_eq!(bb.hi, Point::new([0.9, 0.9]));
    }
}
