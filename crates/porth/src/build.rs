//! P-Orth tree construction (Alg. 1).
//!
//! One recursion step builds `λ` levels of the tree at once:
//!
//! 1. compute the implicit `λ`-level skeleton of the node's region (it is fully
//!    determined by the region — no data pass needed),
//! 2. **sieve** the points so every skeleton bucket becomes a contiguous slice
//!    (one read + one write of the data, the step that replaces "sort by
//!    Morton code"),
//! 3. recurse on every non-trivial bucket in parallel,
//! 4. assemble the skeleton's internal nodes bottom-up, computing sizes and
//!    bounding boxes, and flatten any subtree that ended up no larger than the
//!    leaf wrap `φ`.

use crate::node::{child_index, child_region, Node};
use crate::POrthConfig;
use psi_geometry::{Coord, Point, Rect};
use psi_parutils::sieve_by;
use psi_parutils::stats::counters;
use rayon::prelude::*;
use std::sync::Arc;

/// Build a subtree over `points` (which is reordered in place) covering `region`.
pub fn build_orth<T: Coord, const D: usize>(
    points: &mut [Point<T, D>],
    region: &Rect<T, D>,
    cfg: &POrthConfig,
    depth: usize,
) -> Node<T, D> {
    let n = points.len();
    if n <= cfg.leaf_cap {
        return Node::leaf_from(points);
    }
    // Safety valves for inputs an Orth-tree cannot subdivide: all points equal,
    // or the recursion depth cap reached (degenerate float inputs).
    if depth >= cfg.max_depth || all_equal(points) {
        return Node::leaf_from(points);
    }

    let levels = effective_levels::<D>(cfg.skeleton_levels, n, cfg.leaf_cap);
    let num_buckets = 1usize << (D * levels);

    // Pre-compute the region of every skeleton cell (row-major by bucket id).
    let regions = skeleton_regions(region, levels);

    // Sieve: one pass that gathers each bucket's points contiguously.
    let offsets = sieve_by(points, num_buckets, |p| bucket_of(p, region, levels));
    counters::POINTS_MOVED.add(n as u64);

    // Recurse on each bucket in parallel.
    let mut slices: Vec<&mut [Point<T, D>]> = Vec::with_capacity(num_buckets);
    let mut rest = points;
    for w in offsets.windows(2) {
        let (head, tail) = rest.split_at_mut(w[1] - w[0]);
        slices.push(head);
        rest = tail;
    }
    let subtrees: Vec<Node<T, D>> = slices
        .into_par_iter()
        .zip(regions.par_iter())
        .map(|(slice, reg)| build_orth(slice, reg, cfg, depth + levels))
        .collect();

    // Assemble the skeleton bottom-up, flattening small subtrees.
    assemble(subtrees, levels, cfg)
}

/// Number of levels to build in this round: the configured `λ`, reduced when
/// the input is small enough that a full fan-out would only create empty
/// buckets.
fn effective_levels<const D: usize>(lambda: usize, n: usize, leaf_cap: usize) -> usize {
    let mut levels = lambda.max(1);
    while levels > 1 && (1usize << (D * levels)) * leaf_cap / 4 > n {
        levels -= 1;
    }
    levels
}

/// Bucket (skeleton external node) of point `p` after descending `levels`
/// spatial-median splits from `region`.
#[inline]
pub fn bucket_of<T: Coord, const D: usize>(
    p: &Point<T, D>,
    region: &Rect<T, D>,
    levels: usize,
) -> usize {
    let mut r = *region;
    let mut bucket = 0usize;
    for _ in 0..levels {
        let c = child_index(p, &r);
        bucket = (bucket << D) | c;
        r = child_region(&r, c);
    }
    bucket
}

/// The regions of all `2^{λD}` skeleton cells, indexed by bucket id.
pub fn skeleton_regions<T: Coord, const D: usize>(
    region: &Rect<T, D>,
    levels: usize,
) -> Vec<Rect<T, D>> {
    let mut regions = vec![*region];
    for _ in 0..levels {
        let mut next = Vec::with_capacity(regions.len() << D);
        for r in &regions {
            for c in 0..(1usize << D) {
                next.push(child_region(r, c));
            }
        }
        regions = next;
    }
    regions
}

/// Group `2^{λD}` subtrees into the skeleton's internal nodes, level by level,
/// flattening any group whose total size is within the leaf wrap.
fn assemble<T: Coord, const D: usize>(
    mut nodes: Vec<Node<T, D>>,
    levels: usize,
    cfg: &POrthConfig,
) -> Node<T, D> {
    let fanout = 1usize << D;
    for _ in 0..levels {
        let mut parents = Vec::with_capacity(nodes.len() / fanout);
        let mut it = nodes.into_iter();
        loop {
            let group: Arc<[Node<T, D>]> = it.by_ref().take(fanout).collect();
            if group.is_empty() {
                break;
            }
            parents.push(make_internal(group, cfg));
        }
        nodes = parents;
    }
    debug_assert_eq!(nodes.len(), 1);
    nodes.pop().unwrap()
}

/// Create an internal node over `children`, or a flat leaf if the combined
/// size is within the leaf wrap `φ` (Alg. 1 line 10).
pub fn make_internal<T: Coord, const D: usize>(
    children: Arc<[Node<T, D>]>,
    cfg: &POrthConfig,
) -> Node<T, D> {
    let size: usize = children.iter().map(|c| c.size()).sum();
    if size <= cfg.leaf_cap {
        let mut pts = Vec::with_capacity(size);
        for c in children.iter() {
            c.collect_into(&mut pts);
        }
        return Node::leaf_from(&pts);
    }
    let mut bbox = Rect::empty();
    for c in children.iter() {
        bbox = bbox.merged(c.bbox());
    }
    Node::Internal {
        children,
        bbox,
        size,
    }
}

fn all_equal<T: Coord, const D: usize>(points: &[Point<T, D>]) -> bool {
    points
        .windows(2)
        .all(|w| w[0].lex_cmp(&w[1]) == std::cmp::Ordering::Equal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_geometry::PointI;

    fn region(lo: [i64; 2], hi: [i64; 2]) -> Rect<i64, 2> {
        Rect::from_corners(Point::new(lo), Point::new(hi))
    }

    #[test]
    fn bucket_of_matches_repeated_child_index() {
        let r = region([0, 0], [100, 100]);
        let p = PointI::<2>::new([77, 13]);
        // level 1: child 1 (x high, y low); descend and compute level 2 manually
        let c1 = child_index(&p, &r);
        let r1 = child_region(&r, c1);
        let c2 = child_index(&p, &r1);
        assert_eq!(bucket_of(&p, &r, 2), (c1 << 2) | c2);
    }

    #[test]
    fn skeleton_regions_tile_the_space() {
        let r = region([0, 0], [63, 63]);
        let regs = skeleton_regions(&r, 2);
        assert_eq!(regs.len(), 16);
        // every integer point belongs to exactly one cell, and bucket_of agrees
        for x in (0..64).step_by(7) {
            for y in (0..64).step_by(7) {
                let p = PointI::<2>::new([x, y]);
                let owners: Vec<usize> = regs
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.contains(&p))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(owners.len(), 1);
                assert_eq!(owners[0], bucket_of(&p, &r, 2));
            }
        }
    }

    #[test]
    fn effective_levels_shrinks_for_small_inputs() {
        assert_eq!(effective_levels::<2>(3, 1_000_000, 32), 3);
        assert!(effective_levels::<2>(3, 100, 32) < 3);
        assert_eq!(effective_levels::<2>(3, 0, 32), 1);
        assert_eq!(effective_levels::<3>(2, 10_000_000, 32), 2);
    }

    #[test]
    fn build_groups_points_in_their_orthants() {
        // 4 clusters, one per quadrant of [0, 100]^2.
        let mut pts = Vec::new();
        for i in 0..50 {
            pts.push(PointI::<2>::new([i % 5, i % 7])); // quadrant 0
            pts.push(PointI::<2>::new([95 + i % 5, i % 7])); // quadrant 1
            pts.push(PointI::<2>::new([i % 5, 95 + i % 7])); // quadrant 2
            pts.push(PointI::<2>::new([95 + i % 5, 95 + i % 7])); // quadrant 3
        }
        let r = region([0, 100], [0, 100]);
        let _ = r;
        let universe = region([0, 0], [100, 100]);
        let cfg = POrthConfig::for_dim(2);
        let mut buf = pts.clone();
        let node = build_orth(&mut buf, &universe, &cfg, 0);
        assert_eq!(node.size(), 200);
        match &node {
            Node::Internal { children, .. } => {
                assert_eq!(children.len(), 4);
                for c in children.iter() {
                    assert_eq!(c.size(), 50);
                }
            }
            Node::Leaf { .. } => panic!("200 points must not fit in one leaf"),
        }
    }

    #[test]
    fn all_duplicates_become_one_leaf() {
        let cfg = POrthConfig::for_dim(2);
        let mut pts = vec![PointI::<2>::new([3, 3]); 500];
        let node = build_orth(&mut pts, &region([0, 0], [10, 10]), &cfg, 0);
        assert!(node.is_leaf());
        assert_eq!(node.size(), 500);
    }
}
