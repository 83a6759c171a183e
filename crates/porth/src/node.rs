//! Node representation of the P-Orth tree and its structural invariants.

use crate::POrthConfig;
use psi_geometry::{Coord, LeafSoA, Point, Rect};
use std::sync::Arc;

/// A P-Orth tree node.
///
/// Internal nodes have exactly `2^D` children, one per orthant of the spatial-
/// median split of the node's region; empty orthants are represented by empty
/// leaves so child indexing stays positional (child `i` covers orthant `i`,
/// where bit `d` of `i` selects the upper half of dimension `d`).
///
/// The tree is persistent by path copying: an internal node's children live
/// inline in one `Arc`-shared array, and leaf planes are `Arc`-shared too, so
/// cloning a node is O(1) and a snapshot is a clone of the root. An update
/// copies (see [`psi_parutils::cow`]) only the child arrays on the paths its
/// batch reaches and replaces the leaves it rebuilds.
#[derive(Clone)]
pub enum Node<T: Coord, const D: usize> {
    /// A wrapped leaf: at most `φ` points stored in structure-of-arrays layout
    /// (more only for point multisets that cannot be subdivided, e.g. many
    /// duplicates). The SoA planes carry their own tight bounding box.
    Leaf {
        /// The stored points (coordinate planes + bbox), insertion order kept.
        points: LeafSoA<T, D>,
    },
    /// An internal node covering `2^D` orthants.
    Internal {
        /// Positional children (`children.len() == 1 << D`), shared with
        /// snapshots until an update reaches them.
        children: Arc<[Node<T, D>]>,
        /// Tight bounding box of all points below.
        bbox: Rect<T, D>,
        /// Number of points below.
        size: usize,
    },
}

impl<T: Coord, const D: usize> Node<T, D> {
    /// Fan-out of internal nodes.
    pub const FANOUT: usize = 1 << D;

    /// An empty leaf.
    pub fn empty_leaf() -> Self {
        Node::Leaf {
            points: LeafSoA::empty(),
        }
    }

    /// A leaf from a point slice (transposed into SoA planes, order kept).
    pub fn leaf_from(points: &[Point<T, D>]) -> Self {
        Node::Leaf {
            points: LeafSoA::from_points(points),
        }
    }

    /// Number of points in the subtree.
    #[inline]
    pub fn size(&self) -> usize {
        match self {
            Node::Leaf { points, .. } => points.len(),
            Node::Internal { size, .. } => *size,
        }
    }

    /// Tight bounding box of the subtree.
    #[inline]
    pub fn bbox(&self) -> &Rect<T, D> {
        match self {
            Node::Leaf { points } => points.bbox(),
            Node::Internal { bbox, .. } => bbox,
        }
    }

    /// `true` for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    /// Height of the subtree (a leaf has height 1).
    pub fn height(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Internal { children, .. } => {
                1 + children.iter().map(|c| c.height()).max().unwrap_or(0)
            }
        }
    }

    /// Append every point of the subtree to `out` (tree order).
    pub fn collect_into(&self, out: &mut Vec<Point<T, D>>) {
        match self {
            Node::Leaf { points } => points.collect_into(out),
            Node::Internal { children, .. } => {
                for c in children.iter() {
                    c.collect_into(out);
                }
            }
        }
    }

    /// Count of nodes in the subtree (leaves + internals), for stats/tests.
    pub fn node_count(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Internal { children, .. } => {
                1 + children.iter().map(|c| c.node_count()).sum::<usize>()
            }
        }
    }
}

/// Orthant index of `p` within `region`: bit `d` is set iff `p` lies strictly
/// above the spatial median of dimension `d`.
#[inline(always)]
pub fn child_index<T: Coord, const D: usize>(p: &Point<T, D>, region: &Rect<T, D>) -> usize {
    let mut idx = 0usize;
    for d in 0..D {
        let mid = region.midpoint(d);
        if p.coords[d].total_cmp(&mid) == std::cmp::Ordering::Greater {
            idx |= 1 << d;
        }
    }
    idx
}

/// The sub-region of orthant `i` of `region`.
///
/// The lower half of each dimension keeps `[lo, mid]`; the upper half starts at
/// the coordinate immediately above `mid` for integer coordinates (so the
/// recursion always makes progress) and at `mid` itself for floating point.
#[inline]
pub fn child_region<T: Coord, const D: usize>(region: &Rect<T, D>, i: usize) -> Rect<T, D> {
    let mut lo = region.lo;
    let mut hi = region.hi;
    for d in 0..D {
        let mid = region.midpoint(d);
        if (i >> d) & 1 == 0 {
            hi.coords[d] = mid;
        } else {
            // "just above mid": mid + 1 for integers, mid for floats. Using
            // mid_floor(mid, hi) would skew the region, so nudge via the
            // smallest representable step when one exists.
            lo.coords[d] = next_above(mid, region.hi.coords[d]);
        }
    }
    Rect::from_corners(lo, hi)
}

/// The smallest coordinate strictly greater than `mid` but not exceeding `hi`
/// (integers), or `mid` itself for continuous coordinate types / when `mid`
/// already equals `hi`.
#[inline(always)]
fn next_above<T: Coord>(mid: T, hi: T) -> T {
    let stepped = mid.next_up_discrete();
    if stepped.total_cmp(&hi) == std::cmp::Ordering::Greater {
        mid
    } else {
        stepped
    }
}

/// Verify subtree invariants; `is_root` relaxes the "internal nodes are larger
/// than the leaf cap" rule for the root (an empty tree is a single leaf).
pub fn check_invariants<T: Coord, const D: usize>(
    node: &Node<T, D>,
    region: &Rect<T, D>,
    cfg: &POrthConfig,
    is_root: bool,
) {
    match node {
        Node::Leaf { points } => {
            let expect = Rect::bounding(&points.to_vec());
            assert_eq!(
                &expect,
                points.bbox(),
                "leaf bounding box must tightly cover its points"
            );
            for p in points.iter() {
                assert!(
                    region.contains(&p),
                    "leaf point {:?} escapes its region {:?}",
                    p,
                    region
                );
            }
        }
        Node::Internal {
            children,
            bbox,
            size,
        } => {
            assert_eq!(children.len(), Node::<T, D>::FANOUT, "fan-out must be 2^D");
            let child_size: usize = children.iter().map(|c| c.size()).sum();
            assert_eq!(child_size, *size, "internal size must equal children sum");
            assert!(
                is_root || *size > cfg.leaf_cap,
                "non-root internal nodes must exceed the leaf cap (size {} <= {})",
                size,
                cfg.leaf_cap
            );
            let mut expect = Rect::empty();
            for (i, c) in children.iter().enumerate() {
                expect = expect.merged(c.bbox());
                check_invariants(c, &child_region(region, i), cfg, false);
            }
            assert_eq!(
                &expect, bbox,
                "internal bounding box must be the union of child boxes"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_geometry::PointI;

    fn region(lo: [i64; 2], hi: [i64; 2]) -> Rect<i64, 2> {
        Rect::from_corners(Point::new(lo), Point::new(hi))
    }

    #[test]
    fn child_index_covers_all_orthants() {
        let r = region([0, 0], [10, 10]);
        assert_eq!(child_index(&PointI::<2>::new([0, 0]), &r), 0);
        assert_eq!(child_index(&PointI::<2>::new([5, 5]), &r), 0); // on the median -> low
        assert_eq!(child_index(&PointI::<2>::new([6, 0]), &r), 1);
        assert_eq!(child_index(&PointI::<2>::new([0, 6]), &r), 2);
        assert_eq!(child_index(&PointI::<2>::new([10, 10]), &r), 3);
    }

    #[test]
    fn child_regions_partition_parent() {
        let r = region([0, 0], [10, 10]);
        let c0 = child_region(&r, 0);
        let c1 = child_region(&r, 1);
        let c2 = child_region(&r, 2);
        let c3 = child_region(&r, 3);
        assert_eq!(c0, region([0, 0], [5, 5]));
        assert_eq!(c1, region([6, 0], [10, 5]));
        assert_eq!(c2, region([0, 6], [5, 10]));
        assert_eq!(c3, region([6, 6], [10, 10]));
        // Every integer point of the parent belongs to exactly one child region,
        // and that child is the one child_index names.
        for x in 0..=10 {
            for y in 0..=10 {
                let p = PointI::<2>::new([x, y]);
                let owners = [c0, c1, c2, c3].iter().filter(|c| c.contains(&p)).count();
                assert_eq!(owners, 1, "point {:?} owned by {} regions", p, owners);
                let idx = child_index(&p, &r);
                assert!(child_region(&r, idx).contains(&p));
            }
        }
    }

    #[test]
    fn child_region_makes_progress_on_unit_ranges() {
        let r = region([0, 0], [1, 1]);
        // orthant 3 is the single cell (1,1)
        assert_eq!(child_region(&r, 3), region([1, 1], [1, 1]));
        // orthant 0 is the single cell (0,0)
        assert_eq!(child_region(&r, 0), region([0, 0], [0, 0]));
    }

    #[test]
    fn child_region_float() {
        let r: Rect<f64, 2> = Rect::from_corners(Point::new([0.0, 0.0]), Point::new([1.0, 1.0]));
        let c3 = child_region(&r, 3);
        assert_eq!(c3.lo, Point::new([0.5, 0.5]));
        assert_eq!(c3.hi, Point::new([1.0, 1.0]));
    }

    #[test]
    fn leaf_helpers() {
        let pts = vec![PointI::<2>::new([1, 2]), PointI::<2>::new([3, 0])];
        let leaf = Node::leaf_from(&pts);
        assert_eq!(leaf.size(), 2);
        assert!(leaf.is_leaf());
        assert_eq!(leaf.height(), 1);
        assert_eq!(*leaf.bbox(), Rect::bounding(&pts));
        let mut out = vec![];
        leaf.collect_into(&mut out);
        assert_eq!(out, pts);
        assert_eq!(Node::<i64, 2>::empty_leaf().size(), 0);
    }
}
