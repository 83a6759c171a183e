//! Queries on the P-Orth tree: k-nearest-neighbour, range-count and range-list.
//!
//! All three follow the standard bounding-box pruning pattern (§2.2, §C): a
//! kNN search visits children in increasing order of the distance between the
//! query point and the child's bounding box, abandoning any child that cannot
//! improve the current k-th distance; range queries skip disjoint subtrees and
//! take whole subtrees whose box is fully covered.

use crate::node::Node;
use psi_geometry::{Coord, KnnHeap, Point, Rect};
use psi_parutils::stats::counters;

/// The `k` nearest neighbours of `q`, closest first.
pub fn knn<T: Coord, const D: usize>(
    root: &Node<T, D>,
    q: &Point<T, D>,
    k: usize,
) -> Vec<Point<T, D>> {
    if k == 0 || root.size() == 0 {
        return Vec::new();
    }
    let mut heap = KnnHeap::new(k);
    knn_into(root, q, k, &mut heap);
    heap.into_sorted()
}

/// kNN primitive: reset `heap` to capacity `k` (keeping its allocation) and
/// fill it with the `k` nearest neighbours of `q`. Requires `k >= 1`.
pub fn knn_into<T: Coord, const D: usize>(
    root: &Node<T, D>,
    q: &Point<T, D>,
    k: usize,
    heap: &mut KnnHeap<T, D>,
) {
    heap.reset(k);
    if root.size() > 0 {
        knn_rec(root, q, heap);
    }
}

fn knn_rec<T: Coord, const D: usize>(node: &Node<T, D>, q: &Point<T, D>, heap: &mut KnnHeap<T, D>) {
    counters::NODES_VISITED.bump();
    match node {
        Node::Leaf { points } => points.knn_offer(q, heap),
        Node::Internal { children, .. } => {
            // Order children by distance from the query to their bounding box;
            // with at most 8 children an insertion sort over a fixed array is
            // cheaper than a heap.
            let mut order: Vec<(T::Dist, usize)> = children
                .iter()
                .enumerate()
                .filter(|(_, c)| c.size() > 0)
                .map(|(i, c)| (c.bbox().dist_sq_to_point(q), i))
                .collect();
            order.sort_by(|a, b| T::dist_cmp(a.0, b.0));
            for (dist, i) in order {
                if !heap.could_improve(dist) {
                    break;
                }
                knn_rec(&children[i], q, heap);
            }
        }
    }
}

/// Number of stored points inside the closed box `rect`.
pub fn range_count<T: Coord, const D: usize>(node: &Node<T, D>, rect: &Rect<T, D>) -> usize {
    counters::NODES_VISITED.bump();
    if node.size() == 0 || !rect.intersects(node.bbox()) {
        return 0;
    }
    if rect.contains_rect(node.bbox()) {
        return node.size();
    }
    match node {
        Node::Leaf { points } => points.range_count(rect),
        Node::Internal { children, .. } => children.iter().map(|c| range_count(c, rect)).sum(),
    }
}

/// Append every stored point inside the closed box `rect` to `out`.
pub fn range_list<T: Coord, const D: usize>(
    node: &Node<T, D>,
    rect: &Rect<T, D>,
    out: &mut Vec<Point<T, D>>,
) {
    range_visit(node, rect, &mut |p| out.push(*p));
}

/// Range primitive: invoke `visitor` on every stored point inside the closed
/// box `rect`, allocating nothing. Subtrees fully covered by `rect` are walked
/// without further box tests.
pub fn range_visit<T: Coord, const D: usize>(
    node: &Node<T, D>,
    rect: &Rect<T, D>,
    visitor: &mut dyn FnMut(&Point<T, D>),
) {
    counters::NODES_VISITED.bump();
    if node.size() == 0 || !rect.intersects(node.bbox()) {
        return;
    }
    if rect.contains_rect(node.bbox()) {
        visit_all(node, visitor);
        return;
    }
    match node {
        Node::Leaf { points } => points.range_visit(rect, visitor),
        Node::Internal { children, .. } => {
            for c in children.iter() {
                range_visit(c, rect, visitor);
            }
        }
    }
}

/// Visit every point of a subtree (the fully-covered fast path).
fn visit_all<T: Coord, const D: usize>(node: &Node<T, D>, visitor: &mut dyn FnMut(&Point<T, D>)) {
    match node {
        Node::Leaf { points } => {
            for p in points.iter() {
                visitor(&p);
            }
        }
        Node::Internal { children, .. } => {
            for c in children.iter() {
                visit_all(c, visitor);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::POrthTree;
    use psi_geometry::{brute_force_knn, PointI};

    fn grid(n: i64) -> Vec<PointI<2>> {
        let mut v = Vec::new();
        for x in 0..n {
            for y in 0..n {
                v.push(Point::new([x * 10, y * 10]));
            }
        }
        v
    }

    #[test]
    fn knn_on_grid() {
        let pts = grid(40);
        let tree = POrthTree::build(&pts);
        let q = Point::new([203, 207]);
        let got = tree.knn(&q, 4);
        let expect = brute_force_knn(&pts, &q, 4);
        assert_eq!(
            got.iter().map(|p| q.dist_sq(p)).collect::<Vec<_>>(),
            expect.iter().map(|p| q.dist_sq(p)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn knn_k_zero_and_k_larger_than_n() {
        let pts = grid(5);
        let tree = POrthTree::build(&pts);
        assert!(tree.knn(&Point::new([0, 0]), 0).is_empty());
        assert_eq!(tree.knn(&Point::new([0, 0]), 1_000).len(), 25);
    }

    #[test]
    fn range_count_full_and_empty_cover() {
        let pts = grid(20);
        let tree = POrthTree::build(&pts);
        let everything = Rect::from_corners(Point::new([-1, -1]), Point::new([1_000, 1_000]));
        assert_eq!(tree.range_count(&everything), 400);
        let nothing = Rect::from_corners(Point::new([-100, -100]), Point::new([-1, -1]));
        assert_eq!(tree.range_count(&nothing), 0);
        let quarter = Rect::from_corners(Point::new([0, 0]), Point::new([95, 95]));
        assert_eq!(tree.range_count(&quarter), 100);
    }

    #[test]
    fn range_list_matches_count() {
        let pts = grid(15);
        let tree = POrthTree::build(&pts);
        let r = Rect::from_corners(Point::new([13, 27]), Point::new([88, 120]));
        assert_eq!(tree.range_list(&r).len(), tree.range_count(&r));
    }
}
