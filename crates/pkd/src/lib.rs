//! **Pkd-tree** baseline — the parallel kd-tree with batch updates the paper
//! compares against throughout its evaluation (its main competitor).
//!
//! A kd-tree splits at the *object median* of one dimension, giving perfectly
//! balanced partitions and the strongest pruning, at the price of expensive
//! updates. The Pkd-tree parallelises construction by approximating the median
//! with a sample and partitioning the points with a sieve pass, and handles
//! batch updates with *reconstruction-based rebalancing*: points are pushed
//! down to the leaves, and any subtree whose child weights drift beyond an
//! imbalance factor `α` (0.3 in the paper, §C) is rebuilt from scratch. This
//! is precisely the `O(m log² n)` amortised update cost the paper contrasts
//! with the `O(m log n)` / `O(m log Δ)` bounds of SPaC-trees and P-Orth trees.
//!
//! # Example
//!
//! ```
//! use psi_geometry::{Point, PointI};
//! use psi_pkd::PkdTree;
//!
//! let pts: Vec<PointI<2>> = (0..1000).map(|i| Point::new([i, (i * 37) % 1000])).collect();
//! let mut t = PkdTree::build(&pts);
//! t.batch_insert(&[Point::new([5, 5])]);
//! assert_eq!(t.len(), 1001);
//! assert_eq!(t.knn(&Point::new([5, 6]), 1), vec![Point::new([5, 5])]);
//! ```

use psi_geometry::{Coord, KnnHeap, LeafSoA, Point, Rect};
use psi_parutils::stats::counters;
use psi_parutils::{cow, sieve_by};
use std::sync::Arc;

/// Tuning parameters of a [`PkdTree`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PkdConfig {
    /// Leaf wrap threshold `φ` (paper default 32).
    pub leaf_cap: usize,
    /// Imbalance factor `α`: a subtree is rebuilt when one child holds more
    /// than `(1 + α) / 2` of the points (paper: 0.3).
    pub alpha: f64,
    /// Number of sampled points used to approximate the object median.
    pub median_sample: usize,
}

impl Default for PkdConfig {
    fn default() -> Self {
        PkdConfig {
            leaf_cap: 32,
            alpha: 0.3,
            median_sample: 1024,
        }
    }
}

/// A Pkd-tree node. Persistent by path copying: children are `Arc`-shared
/// and leaf planes are too, so cloning a node is O(1). An update rewrites
/// only the nodes on the paths its batch reaches ([`cow::unshare`] copies
/// one while a snapshot still shares it); untouched subtrees stay shared.
#[derive(Clone)]
enum Node<T: Coord, const D: usize> {
    Leaf {
        /// SoA coordinate planes (+ bounding box): the leaf scan kernels
        /// (range filter, kNN distance accumulation) run as per-plane
        /// vectorizable loops over this, bit-identical to the old AoS scan.
        points: LeafSoA<T, D>,
    },
    Internal {
        /// Splitting dimension.
        dim: usize,
        /// Splitting coordinate: points with `coord <= split` go left.
        split: T,
        left: Arc<Node<T, D>>,
        right: Arc<Node<T, D>>,
        size: usize,
        bbox: Rect<T, D>,
    },
}

impl<T: Coord, const D: usize> Node<T, D> {
    fn size(&self) -> usize {
        match self {
            Node::Leaf { points, .. } => points.len(),
            Node::Internal { size, .. } => *size,
        }
    }
    fn bbox(&self) -> &Rect<T, D> {
        match self {
            Node::Leaf { points } => points.bbox(),
            Node::Internal { bbox, .. } => bbox,
        }
    }
    fn height(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Internal { left, right, .. } => 1 + left.height().max(right.height()),
        }
    }
    fn collect_into(&self, out: &mut Vec<Point<T, D>>) {
        match self {
            Node::Leaf { points } => points.collect_into(out),
            Node::Internal { left, right, .. } => {
                left.collect_into(out);
                right.collect_into(out);
            }
        }
    }
}

/// The parallel kd-tree baseline. See the crate docs.
pub struct PkdTree<T: Coord, const D: usize> {
    root: Node<T, D>,
    cfg: PkdConfig,
}

impl<T: Coord, const D: usize> PkdTree<T, D> {
    /// Build a tree with the paper's default parameters.
    pub fn build(points: &[Point<T, D>]) -> Self {
        Self::build_with_config(points, PkdConfig::default())
    }

    /// Build with explicit parameters.
    pub fn build_with_config(points: &[Point<T, D>], cfg: PkdConfig) -> Self {
        let mut buf = points.to_vec();
        let root = build_rec(&mut buf, &cfg, 0);
        PkdTree { root, cfg }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.root.size()
    }

    /// `true` if no points are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Height of the tree (leaf = 1).
    pub fn height(&self) -> usize {
        self.root.height()
    }

    /// Tight bounding box of all stored points.
    pub fn bounding_box(&self) -> Rect<T, D> {
        *self.root.bbox()
    }

    /// Collect all stored points.
    pub fn collect_points(&self) -> Vec<Point<T, D>> {
        let mut out = Vec::with_capacity(self.len());
        self.root.collect_into(&mut out);
        out
    }

    /// An O(1) **persistent snapshot**: a second tree sharing every node with
    /// this one. Later updates through either handle path-copy only the
    /// nodes their batch reaches, so the snapshot never changes.
    pub fn snapshot(&self) -> Self {
        PkdTree {
            root: self.root.clone(),
            cfg: self.cfg,
        }
    }

    /// Batch insertion with reconstruction-based rebalancing.
    pub fn batch_insert(&mut self, points: &[Point<T, D>]) {
        if points.is_empty() {
            return;
        }
        let mut buf = points.to_vec();
        let root = std::mem::replace(
            &mut self.root,
            Node::Leaf {
                points: LeafSoA::empty(),
            },
        );
        self.root = insert_rec(root, &mut buf, &self.cfg, 0);
    }

    /// Batch deletion (each element removes at most one matching point);
    /// returns the number removed.
    pub fn batch_delete(&mut self, points: &[Point<T, D>]) -> usize {
        if points.is_empty() {
            return 0;
        }
        let before = self.len();
        let mut buf = points.to_vec();
        let root = std::mem::replace(
            &mut self.root,
            Node::Leaf {
                points: LeafSoA::empty(),
            },
        );
        self.root = delete_rec(root, &mut buf, &self.cfg, 0);
        before - self.len()
    }

    /// The `k` nearest neighbours of `q`, closest first.
    pub fn knn(&self, q: &Point<T, D>, k: usize) -> Vec<Point<T, D>> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        let mut heap = KnnHeap::new(k);
        self.knn_into(q, k, &mut heap);
        heap.into_sorted()
    }

    /// kNN primitive: reset `heap` to capacity `k` (reusing its allocation)
    /// and fill it with the `k` nearest neighbours of `q`. Requires `k >= 1`.
    pub fn knn_into(&self, q: &Point<T, D>, k: usize, heap: &mut KnnHeap<T, D>) {
        heap.reset(k);
        if !self.is_empty() {
            knn_rec(&self.root, q, heap);
        }
    }

    /// Range primitive: call `visitor` on every stored point inside the closed
    /// box, allocating nothing.
    pub fn range_visit(&self, rect: &Rect<T, D>, visitor: &mut dyn FnMut(&Point<T, D>)) {
        range_visit(&self.root, rect, visitor)
    }

    /// Number of stored points in the closed box.
    pub fn range_count(&self, rect: &Rect<T, D>) -> usize {
        range_count(&self.root, rect)
    }

    /// All stored points in the closed box.
    pub fn range_list(&self, rect: &Rect<T, D>) -> Vec<Point<T, D>> {
        let mut out = Vec::new();
        range_list(&self.root, rect, &mut out);
        out
    }

    /// Validate structural invariants (sizes, boxes, split consistency, leaf wrap).
    pub fn check_invariants(&self) {
        check_rec(&self.root, &self.cfg, true);
    }
}

/// Choose the splitting dimension: the one with the widest coordinate spread
/// (the heuristic used by Pkd-tree / STR-style builders).
fn widest_dim<T: Coord, const D: usize>(bbox: &Rect<T, D>) -> usize {
    let mut best = 0;
    let mut best_extent = f64::MIN;
    for d in 0..D {
        let e = bbox.extent(d);
        if e > best_extent {
            best_extent = e;
            best = d;
        }
    }
    best
}

/// Approximate object median of dimension `dim` from an evenly spaced sample.
fn approx_median<T: Coord, const D: usize>(points: &[Point<T, D>], dim: usize, sample: usize) -> T {
    let n = points.len();
    let s = sample.min(n).max(1);
    let mut vals: Vec<T> = (0..s).map(|i| points[i * n / s].coords[dim]).collect();
    vals.sort_by(|a, b| a.total_cmp(b));
    vals[s / 2]
}

fn build_rec<T: Coord, const D: usize>(
    points: &mut [Point<T, D>],
    cfg: &PkdConfig,
    depth: usize,
) -> Node<T, D> {
    let n = points.len();
    if n <= cfg.leaf_cap || depth > 96 {
        return Node::Leaf {
            points: LeafSoA::from_points(points),
        };
    }
    let bbox = Rect::bounding(points);
    let dim = widest_dim(&bbox);
    let split = approx_median(points, dim, cfg.median_sample);

    // Partition: <= split goes left. If the split is degenerate (everything on
    // one side), fall back to a leaf — this only happens when the coordinate
    // values in `dim` are (nearly) all identical.
    let offsets = sieve_by(points, 2, |p| {
        usize::from(p.coords[dim].total_cmp(&split) == std::cmp::Ordering::Greater)
    });
    counters::POINTS_MOVED.add(n as u64);
    let mid = offsets[1];
    if mid == 0 || mid == n {
        let all_same = bbox.extent(0) == 0.0 && (1..D).all(|d| bbox.extent(d) == 0.0);
        if all_same {
            return Node::Leaf {
                points: LeafSoA::from_points(points),
            };
        }
        // Degenerate split (a very skewed value distribution defeated the
        // sample): sort on the dimension and pick the closest value boundary to
        // the median position so both sides are non-empty and the rule
        // "coord <= split goes left" holds exactly.
        points.sort_by(|a, b| a.coords[dim].total_cmp(&b.coords[dim]));
        let target = n / 2;
        let v_mid = points[target].coords[dim];
        let lo =
            points.partition_point(|p| p.coords[dim].total_cmp(&v_mid) == std::cmp::Ordering::Less);
        let hi = points
            .partition_point(|p| p.coords[dim].total_cmp(&v_mid) != std::cmp::Ordering::Greater);
        let (mid, split) = if lo > 0 {
            (lo, points[lo - 1].coords[dim])
        } else {
            debug_assert!(hi < n, "all-equal case is handled above");
            (hi, v_mid)
        };
        let (l, r) = points.split_at_mut(mid);
        let (left, right) = rayon::join(
            || build_rec(l, cfg, depth + 1),
            || build_rec(r, cfg, depth + 1),
        );
        return Node::Internal {
            dim,
            split,
            size: n,
            bbox,
            left: Arc::new(left),
            right: Arc::new(right),
        };
    }
    let (l, r) = points.split_at_mut(mid);
    let (left, right) = if n > 4096 {
        rayon::join(
            || build_rec(l, cfg, depth + 1),
            || build_rec(r, cfg, depth + 1),
        )
    } else {
        (build_rec(l, cfg, depth + 1), build_rec(r, cfg, depth + 1))
    };
    Node::Internal {
        dim,
        split,
        size: n,
        bbox,
        left: Arc::new(left),
        right: Arc::new(right),
    }
}

/// Does the child-size pair violate the imbalance factor `α`?
fn unbalanced(lsize: usize, rsize: usize, alpha: f64) -> bool {
    let total = (lsize + rsize) as f64;
    if total < 64.0 {
        return false;
    }
    let limit = (1.0 + alpha) / 2.0 * total;
    (lsize as f64) > limit || (rsize as f64) > limit
}

fn insert_rec<T: Coord, const D: usize>(
    node: Node<T, D>,
    batch: &mut [Point<T, D>],
    cfg: &PkdConfig,
    depth: usize,
) -> Node<T, D> {
    if batch.is_empty() {
        return node;
    }
    match node {
        Node::Leaf { points } => {
            let mut buf = points.to_vec();
            buf.extend_from_slice(batch);
            build_rec(&mut buf, cfg, depth)
        }
        Node::Internal {
            dim,
            split,
            left,
            right,
            size,
            bbox,
        } => {
            let offsets = sieve_by(batch, 2, |p| {
                usize::from(p.coords[dim].total_cmp(&split) == std::cmp::Ordering::Greater)
            });
            counters::POINTS_MOVED.add(batch.len() as u64);
            let (lbatch, rbatch) = batch.split_at_mut(offsets[1]);
            let new_size = size + lbatch.len() + rbatch.len();

            // Reconstruction-based rebalancing: if the insertion would tip the
            // subtree past the imbalance factor, rebuild it wholesale.
            if unbalanced(
                left.size() + lbatch.len(),
                right.size() + rbatch.len(),
                cfg.alpha,
            ) {
                counters::REBALANCES.bump();
                let mut all = Vec::with_capacity(new_size);
                left.collect_into(&mut all);
                right.collect_into(&mut all);
                all.extend_from_slice(lbatch);
                all.extend_from_slice(rbatch);
                return build_rec(&mut all, cfg, depth);
            }

            let descend = |child, part: &mut [Point<T, D>]| {
                path_copy(child, part, |c, b| insert_rec(c, b, cfg, depth + 1))
            };
            let (new_left, new_right) = if lbatch.len() + rbatch.len() > 2048 {
                rayon::join(|| descend(left, lbatch), || descend(right, rbatch))
            } else {
                (descend(left, lbatch), descend(right, rbatch))
            };
            let mut new_bbox = bbox;
            new_bbox = new_bbox.merged(new_left.bbox());
            new_bbox = new_bbox.merged(new_right.bbox());
            Node::Internal {
                dim,
                split,
                size: new_size,
                bbox: new_bbox,
                left: new_left,
                right: new_right,
            }
        }
    }
}

fn delete_rec<T: Coord, const D: usize>(
    node: Node<T, D>,
    batch: &mut [Point<T, D>],
    cfg: &PkdConfig,
    depth: usize,
) -> Node<T, D> {
    if batch.is_empty() {
        return node;
    }
    match node {
        Node::Leaf { points } => {
            let mut pts = points.to_vec();
            remove_multiset(&mut pts, batch);
            Node::Leaf {
                points: LeafSoA::from_points(&pts),
            }
        }
        Node::Internal {
            dim,
            split,
            left,
            right,
            ..
        } => {
            let offsets = sieve_by(batch, 2, |p| {
                usize::from(p.coords[dim].total_cmp(&split) == std::cmp::Ordering::Greater)
            });
            counters::POINTS_MOVED.add(batch.len() as u64);
            let (lbatch, rbatch) = batch.split_at_mut(offsets[1]);
            let descend = |child, part: &mut [Point<T, D>]| {
                path_copy(child, part, |c, b| delete_rec(c, b, cfg, depth + 1))
            };
            let (new_left, new_right) = if lbatch.len() + rbatch.len() > 2048 {
                rayon::join(|| descend(left, lbatch), || descend(right, rbatch))
            } else {
                (descend(left, lbatch), descend(right, rbatch))
            };
            let new_size = new_left.size() + new_right.size();
            // Flatten small subtrees; rebuild unbalanced ones.
            if new_size <= cfg.leaf_cap {
                let mut pts = Vec::with_capacity(new_size);
                new_left.collect_into(&mut pts);
                new_right.collect_into(&mut pts);
                return Node::Leaf {
                    points: LeafSoA::from_points(&pts),
                };
            }
            if unbalanced(new_left.size(), new_right.size(), cfg.alpha) {
                counters::REBALANCES.bump();
                let mut all = Vec::with_capacity(new_size);
                new_left.collect_into(&mut all);
                new_right.collect_into(&mut all);
                return build_rec(&mut all, cfg, depth);
            }
            let bbox = new_left.bbox().merged(new_right.bbox());
            Node::Internal {
                dim,
                split,
                size: new_size,
                bbox,
                left: new_left,
                right: new_right,
            }
        }
    }
}

/// Apply `update` to `child` for a non-empty `part` of the batch, copying
/// the child first only while a snapshot shares it; an empty part leaves the
/// child, shared or not, as it is.
fn path_copy<T: Coord, const D: usize>(
    child: Arc<Node<T, D>>,
    part: &mut [Point<T, D>],
    update: impl FnOnce(Node<T, D>, &mut [Point<T, D>]) -> Node<T, D>,
) -> Arc<Node<T, D>> {
    if part.is_empty() {
        child
    } else {
        Arc::new(update(cow::unshare(child), part))
    }
}

fn remove_multiset<T: Coord, const D: usize>(
    stored: &mut Vec<Point<T, D>>,
    to_remove: &mut [Point<T, D>],
) {
    if stored.is_empty() || to_remove.is_empty() {
        return;
    }
    to_remove.sort_by(|a, b| a.lex_cmp(b));
    stored.sort_by(|a, b| a.lex_cmp(b));
    let mut kept = Vec::with_capacity(stored.len());
    let mut j = 0usize;
    for p in stored.iter() {
        while j < to_remove.len() && to_remove[j].lex_cmp(p) == std::cmp::Ordering::Less {
            j += 1;
        }
        if j < to_remove.len() && to_remove[j].lex_cmp(p) == std::cmp::Ordering::Equal {
            j += 1;
        } else {
            kept.push(*p);
        }
    }
    *stored = kept;
}

fn knn_rec<T: Coord, const D: usize>(node: &Node<T, D>, q: &Point<T, D>, heap: &mut KnnHeap<T, D>) {
    counters::NODES_VISITED.bump();
    match node {
        Node::Leaf { points } => points.knn_offer(q, heap),
        Node::Internal { left, right, .. } => {
            let dl = left.bbox().dist_sq_to_point(q);
            let dr = right.bbox().dist_sq_to_point(q);
            let (first, fd, second, sd) = if T::dist_cmp(dl, dr) != std::cmp::Ordering::Greater {
                (left, dl, right, dr)
            } else {
                (right, dr, left, dl)
            };
            if first.size() > 0 && heap.could_improve(fd) {
                knn_rec(first, q, heap);
            }
            if second.size() > 0 && heap.could_improve(sd) {
                knn_rec(second, q, heap);
            }
        }
    }
}

fn range_count<T: Coord, const D: usize>(node: &Node<T, D>, rect: &Rect<T, D>) -> usize {
    counters::NODES_VISITED.bump();
    if node.size() == 0 || !rect.intersects(node.bbox()) {
        return 0;
    }
    if rect.contains_rect(node.bbox()) {
        return node.size();
    }
    match node {
        Node::Leaf { points } => points.range_count(rect),
        Node::Internal { left, right, .. } => range_count(left, rect) + range_count(right, rect),
    }
}

fn range_list<T: Coord, const D: usize>(
    node: &Node<T, D>,
    rect: &Rect<T, D>,
    out: &mut Vec<Point<T, D>>,
) {
    range_visit(node, rect, &mut |p| out.push(*p));
}

fn range_visit<T: Coord, const D: usize>(
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
        Node::Internal { left, right, .. } => {
            range_visit(left, rect, visitor);
            range_visit(right, rect, visitor);
        }
    }
}

fn visit_all<T: Coord, const D: usize>(node: &Node<T, D>, visitor: &mut dyn FnMut(&Point<T, D>)) {
    match node {
        Node::Leaf { points } => {
            for p in points.iter() {
                visitor(&p);
            }
        }
        Node::Internal { left, right, .. } => {
            visit_all(left, visitor);
            visit_all(right, visitor);
        }
    }
}

fn check_rec<T: Coord, const D: usize>(node: &Node<T, D>, cfg: &PkdConfig, is_root: bool) {
    match node {
        Node::Leaf { points } => {
            assert_eq!(
                *points.bbox(),
                Rect::bounding(&points.to_vec()),
                "leaf bbox mismatch"
            );
            assert!(
                is_root || !points.is_empty() || points.len() <= cfg.leaf_cap,
                "leaf size invariant"
            );
        }
        Node::Internal {
            dim,
            split,
            left,
            right,
            size,
            bbox,
        } => {
            assert_eq!(left.size() + right.size(), *size, "size mismatch");
            assert!(*size > cfg.leaf_cap || is_root, "small internal node");
            let mut pts = Vec::new();
            left.collect_into(&mut pts);
            for p in &pts {
                assert!(
                    p.coords[*dim].total_cmp(split) != std::cmp::Ordering::Greater,
                    "left subtree violates split"
                );
            }
            let mut rpts = Vec::new();
            right.collect_into(&mut rpts);
            for p in &rpts {
                assert!(
                    p.coords[*dim].total_cmp(split) == std::cmp::Ordering::Greater,
                    "right subtree violates split"
                );
            }
            let union = left.bbox().merged(right.bbox());
            assert_eq!(&union, bbox, "internal bbox mismatch");
            check_rec(left, cfg, false);
            check_rec(right, cfg, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_geometry::{brute_force_knn, PointI};
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    fn random_points(n: usize, seed: u64, max: i64) -> Vec<PointI<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new([rng.gen_range(0..max), rng.gen_range(0..max)]))
            .collect()
    }

    #[test]
    fn build_empty_single_and_duplicates() {
        let t = PkdTree::<i64, 2>::build(&[]);
        assert!(t.is_empty());
        t.check_invariants();

        let p = PointI::<2>::new([3, 4]);
        let t = PkdTree::build(&[p]);
        assert_eq!(t.len(), 1);
        t.check_invariants();

        let t = PkdTree::build(&vec![p; 300]);
        assert_eq!(t.len(), 300);
        t.check_invariants();
    }

    #[test]
    fn knn_matches_oracle() {
        let pts = random_points(5_000, 1, 1_000_000);
        let t = PkdTree::build(&pts);
        t.check_invariants();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..40 {
            let q = Point::new([rng.gen_range(0..1_000_000), rng.gen_range(0..1_000_000)]);
            assert_eq!(
                t.knn(&q, 10)
                    .iter()
                    .map(|p| q.dist_sq(p))
                    .collect::<Vec<_>>(),
                brute_force_knn(&pts, &q, 10)
                    .iter()
                    .map(|p| q.dist_sq(p))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn range_matches_scan() {
        let pts = random_points(3_000, 3, 50_000);
        let t = PkdTree::build(&pts);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..40 {
            let a = Point::new([rng.gen_range(0..50_000), rng.gen_range(0..50_000)]);
            let b = Point::new([rng.gen_range(0..50_000), rng.gen_range(0..50_000)]);
            let rect = Rect::new(a, b);
            let expect = pts.iter().filter(|p| rect.contains(p)).count();
            assert_eq!(t.range_count(&rect), expect);
            assert_eq!(t.range_list(&rect).len(), expect);
        }
    }

    #[test]
    fn insert_and_delete_roundtrip() {
        let all = random_points(6_000, 5, 1_000_000);
        let (a, b) = all.split_at(3_000);
        let mut t = PkdTree::build(a);
        for chunk in b.chunks(500) {
            t.batch_insert(chunk);
            t.check_invariants();
        }
        assert_eq!(t.len(), all.len());
        let mut got = t.collect_points();
        let mut want = all.clone();
        got.sort();
        want.sort();
        assert_eq!(got, want);

        let removed = t.batch_delete(&all[..4_000]);
        assert_eq!(removed, 4_000);
        t.check_invariants();
        assert_eq!(t.len(), 2_000);
    }

    #[test]
    fn skewed_sweepline_inserts_stay_balanced() {
        // Sorted insertion order is the adversarial case for reconstruction-
        // based balancing; the tree must stay within O(log n) height.
        let mut pts = random_points(8_000, 6, 1_000_000);
        pts.sort_by_key(|p| p.coords[0]);
        let mut t = PkdTree::build(&pts[..1_000]);
        for chunk in pts[1_000..].chunks(500) {
            t.batch_insert(chunk);
        }
        t.check_invariants();
        let n = t.len() as f64;
        assert!(
            (t.height() as f64) < 4.0 * n.log2() + 8.0,
            "height {} too large",
            t.height()
        );
        // Queries still correct after the skewed insertion history.
        let q = Point::new([500_000, 500_000]);
        assert_eq!(
            t.knn(&q, 5)
                .iter()
                .map(|p| q.dist_sq(p))
                .collect::<Vec<_>>(),
            brute_force_knn(&pts, &q, 5)
                .iter()
                .map(|p| q.dist_sq(p))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn three_d_build_and_query() {
        let mut rng = StdRng::seed_from_u64(7);
        let pts: Vec<PointI<3>> = (0..3_000)
            .map(|_| {
                Point::new([
                    rng.gen_range(0..100_000),
                    rng.gen_range(0..100_000),
                    rng.gen_range(0..100_000),
                ])
            })
            .collect();
        let t = PkdTree::build(&pts);
        t.check_invariants();
        let q = Point::new([50_000, 50_000, 50_000]);
        assert_eq!(
            t.knn(&q, 7)
                .iter()
                .map(|p| q.dist_sq(p))
                .collect::<Vec<_>>(),
            brute_force_knn(&pts, &q, 7)
                .iter()
                .map(|p| q.dist_sq(p))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn delete_absent_is_noop() {
        let pts = random_points(1_000, 8, 1_000);
        let mut t = PkdTree::build(&pts);
        let absent = vec![PointI::<2>::new([5_000_000, 5_000_000])];
        assert_eq!(t.batch_delete(&absent), 0);
        assert_eq!(t.len(), 1_000);
    }
}
