//! **Sequential R-tree** baseline — the stand-in for the Boost R-tree the
//! paper uses to sanity-check SPaC-tree query quality.
//!
//! This is a classical Guttman R-tree with the *quadratic* node-split
//! heuristic, the variant the paper selects from Boost because it "gives the
//! best tree quality in the dynamic setting". It is deliberately sequential
//! and supports only single-point insertion and deletion (the paper's Fig. 3
//! marks its build/update columns N/A and obtains its trees by inserting and
//! deleting points one at a time); `batch_insert` / `batch_delete` helpers
//! simply loop, so the index can ride the same driver as the parallel indexes.
//!
//! # Example
//!
//! ```
//! use psi_geometry::{Point, PointI};
//! use psi_rtree::RTree;
//!
//! let mut t = RTree::<2>::new();
//! for i in 0..200i64 {
//!     t.insert(Point::new([i, (i * 17) % 101]));
//! }
//! assert_eq!(t.len(), 200);
//! let nn = t.knn(&Point::new([10, 70]), 3);
//! assert_eq!(nn.len(), 3);
//! ```

use psi_geometry::{Coord, KnnHeap, Point, PointI, Rect, RectI};
use psi_parutils::cow;
use psi_parutils::stats::counters;
use std::sync::Arc;

/// Maximum number of entries per node (`M`). Boost's default is 16.
pub const MAX_ENTRIES: usize = 16;
/// Minimum number of entries per node after a split (`m`), 40% of `M` as in
/// the quadratic-split literature.
pub const MIN_ENTRIES: usize = 6;

/// An R-tree node. Persistent by path copying: children are `Arc`-shared,
/// so cloning a node copies at most `M` child handles, and an update copies
/// ([`cow::make_mut`]) only the nodes on the one path it descends.
#[derive(Clone)]
enum Node<const D: usize> {
    Leaf {
        points: Vec<PointI<D>>,
    },
    Internal {
        children: Vec<(RectI<D>, Arc<Node<D>>)>,
    },
}

impl<const D: usize> Node<D> {
    fn size(&self) -> usize {
        match self {
            Node::Leaf { points } => points.len(),
            Node::Internal { children } => children.iter().map(|(_, c)| c.size()).sum(),
        }
    }

    fn bbox(&self) -> RectI<D> {
        match self {
            Node::Leaf { points } => Rect::bounding(points),
            Node::Internal { children } => {
                let mut b = Rect::empty();
                for (r, _) in children {
                    b = b.merged(r);
                }
                b
            }
        }
    }

    fn collect_into(&self, out: &mut Vec<PointI<D>>) {
        match self {
            Node::Leaf { points } => out.extend_from_slice(points),
            Node::Internal { children } => {
                for (_, c) in children {
                    c.collect_into(out);
                }
            }
        }
    }

    fn height(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Internal { children } => {
                1 + children.iter().map(|(_, c)| c.height()).max().unwrap_or(0)
            }
        }
    }
}

/// Area (volume) of a rectangle as `f64`, used by the enlargement heuristics.
fn area<const D: usize>(r: &RectI<D>) -> f64 {
    if r.is_empty() {
        return 0.0;
    }
    (0..D).map(|d| r.extent(d).max(0.0)).product()
}

/// Area increase needed for `r` to also cover point `p`.
fn enlargement<const D: usize>(r: &RectI<D>, p: &PointI<D>) -> f64 {
    let mut grown = *r;
    grown.expand(p);
    area(&grown) - area(r)
}

/// Area increase needed for `r` to also cover rectangle `other`.
fn enlargement_rect<const D: usize>(r: &RectI<D>, other: &RectI<D>) -> f64 {
    let grown = r.merged(other);
    area(&grown) - area(r)
}

/// The sequential Guttman R-tree with quadratic split.
pub struct RTree<const D: usize> {
    root: Node<D>,
    size: usize,
}

impl<const D: usize> Default for RTree<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> RTree<D> {
    /// An empty tree.
    pub fn new() -> Self {
        RTree {
            root: Node::Leaf { points: Vec::new() },
            size: 0,
        }
    }

    /// An O(1) **persistent snapshot**: a second tree sharing every node
    /// below the root with this one. Later updates through either handle
    /// path-copy only the nodes they descend through, so the snapshot never
    /// changes.
    pub fn snapshot(&self) -> Self {
        RTree {
            root: self.root.clone(),
            size: self.size,
        }
    }

    /// Bulk constructor: repeated single insertion, exactly how the paper
    /// obtains its Boost R-tree instances.
    pub fn build(points: &[PointI<D>]) -> Self {
        let mut t = Self::new();
        for p in points {
            t.insert(*p);
        }
        t
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.size
    }

    /// `true` if no points are stored.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Height of the tree (a single leaf has height 1).
    pub fn height(&self) -> usize {
        self.root.height()
    }

    /// Collect all stored points.
    pub fn collect_points(&self) -> Vec<PointI<D>> {
        let mut out = Vec::with_capacity(self.size);
        self.root.collect_into(&mut out);
        out
    }

    /// Insert one point (Guttman's ChooseLeaf + quadratic SplitNode).
    pub fn insert(&mut self, p: PointI<D>) {
        self.size += 1;
        if let Some((sibling_rect, sibling)) = insert_rec(&mut self.root, p) {
            // Root split: grow the tree by one level.
            let old_root = std::mem::replace(&mut self.root, Node::Leaf { points: Vec::new() });
            let old_rect = old_root.bbox();
            self.root = Node::Internal {
                children: vec![(old_rect, Arc::new(old_root)), (sibling_rect, sibling)],
            };
        }
    }

    /// Delete one occurrence of `p`; returns whether a point was removed.
    /// Underfull nodes are condensed by re-inserting their points.
    pub fn delete(&mut self, p: &PointI<D>) -> bool {
        // Find the point read-only first, so a miss copies nothing and a hit
        // copies only the one path down to it.
        let mut path = Vec::new();
        if !locate(&self.root, p, &mut path) {
            return false;
        }
        let mut orphans = Vec::new();
        delete_at(&mut self.root, &path, p, &mut orphans);
        self.size -= 1;
        // Shrink the root while it has a single internal child.
        loop {
            let replace = match &mut self.root {
                Node::Internal { children } if children.len() == 1 => {
                    let (_, only) = children.pop().expect("len checked");
                    Some(cow::unshare(only))
                }
                Node::Internal { children } if children.is_empty() => {
                    Some(Node::Leaf { points: Vec::new() })
                }
                _ => None,
            };
            match replace {
                Some(n) => self.root = n,
                None => break,
            }
        }
        // Re-insert points orphaned by condensed nodes.
        for q in orphans {
            self.size -= 1; // insert() adds it back
            self.insert(q);
        }
        true
    }

    /// Sequential "batch" insertion: one point at a time.
    pub fn batch_insert(&mut self, points: &[PointI<D>]) {
        for p in points {
            self.insert(*p);
        }
    }

    /// Sequential "batch" deletion: one point at a time. Returns the number removed.
    pub fn batch_delete(&mut self, points: &[PointI<D>]) -> usize {
        let mut removed = 0;
        for p in points {
            if self.delete(p) {
                removed += 1;
            }
        }
        removed
    }

    /// The `k` nearest neighbours of `q`, closest first.
    pub fn knn(&self, q: &PointI<D>, k: usize) -> Vec<PointI<D>> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        let mut heap = KnnHeap::new(k);
        self.knn_into(q, k, &mut heap);
        heap.into_sorted()
    }

    /// kNN primitive: reset `heap` to capacity `k` (reusing its allocation)
    /// and fill it with the `k` nearest neighbours of `q`. Requires `k >= 1`.
    pub fn knn_into(&self, q: &PointI<D>, k: usize, heap: &mut KnnHeap<i64, D>) {
        heap.reset(k);
        if !self.is_empty() {
            knn_rec(&self.root, q, heap);
        }
    }

    /// Range primitive: call `visitor` on every stored point inside the closed
    /// box, allocating nothing.
    pub fn range_visit(&self, rect: &RectI<D>, visitor: &mut dyn FnMut(&PointI<D>)) {
        range_visit(&self.root, rect, visitor)
    }

    /// Tight bounding box of the stored points ([`Rect::empty`] when empty).
    ///
    /// The R-tree keeps child rectangles rather than a root rectangle, so this
    /// merges the top-level entries on each call (O(fan-out)).
    pub fn bounding_box(&self) -> RectI<D> {
        self.root.bbox()
    }

    /// Number of stored points in the closed box.
    pub fn range_count(&self, rect: &RectI<D>) -> usize {
        range_count(&self.root, rect)
    }

    /// All stored points in the closed box.
    pub fn range_list(&self, rect: &RectI<D>) -> Vec<PointI<D>> {
        let mut out = Vec::new();
        range_list(&self.root, rect, &mut out);
        out
    }

    /// Validate structural invariants: stored size, fan-out limits, and that
    /// every child rectangle tightly covers its subtree.
    pub fn check_invariants(&self) {
        fn rec<const D: usize>(node: &Node<D>, is_root: bool) -> usize {
            match node {
                Node::Leaf { points } => {
                    assert!(points.len() <= MAX_ENTRIES, "leaf overflow");
                    points.len()
                }
                Node::Internal { children } => {
                    assert!(children.len() <= MAX_ENTRIES, "internal overflow");
                    assert!(
                        is_root || children.len() >= 2,
                        "non-root internal nodes need at least 2 children"
                    );
                    let mut total = 0;
                    for (r, c) in children {
                        assert_eq!(*r, c.bbox(), "child rectangle must be tight");
                        total += rec(c, false);
                    }
                    total
                }
            }
        }
        assert_eq!(rec(&self.root, true), self.size, "stored size mismatch");
    }
}

/// Recursive insertion. On overflow the node is split in place (it keeps the
/// first group) and the second group is returned so the parent can adopt it.
fn insert_rec<const D: usize>(
    node: &mut Node<D>,
    p: PointI<D>,
) -> Option<(RectI<D>, Arc<Node<D>>)> {
    match node {
        Node::Leaf { points } => {
            points.push(p);
            if points.len() <= MAX_ENTRIES {
                return None;
            }
            let (a, b) = quadratic_split_points(std::mem::take(points));
            let rb = Rect::bounding(&b);
            *points = a;
            Some((rb, Arc::new(Node::Leaf { points: b })))
        }
        Node::Internal { children } => {
            // ChooseLeaf: the child needing the least enlargement (ties by area).
            let mut best = 0usize;
            let mut best_enl = f64::INFINITY;
            let mut best_area = f64::INFINITY;
            for (i, (r, _)) in children.iter().enumerate() {
                let e = enlargement(r, &p);
                let a = area(r);
                if e < best_enl || (e == best_enl && a < best_area) {
                    best = i;
                    best_enl = e;
                    best_area = a;
                }
            }
            let split = insert_rec(cow::make_mut(&mut children[best].1), p);
            children[best].0 = children[best].1.bbox();
            if let Some((rect, sibling)) = split {
                children.push((rect, sibling));
                if children.len() > MAX_ENTRIES {
                    let (a, b) = quadratic_split_children(std::mem::take(children));
                    let rb = group_bbox(&b);
                    *children = a;
                    return Some((rb, Arc::new(Node::Internal { children: b })));
                }
            }
            None
        }
    }
}

fn group_bbox<const D: usize>(children: &[(RectI<D>, Arc<Node<D>>)]) -> RectI<D> {
    let mut b = Rect::empty();
    for (r, _) in children {
        b = b.merged(r);
    }
    b
}

/// Guttman's quadratic split for points: pick the pair wasting the most area
/// as seeds, then assign each remaining point to the group whose rectangle
/// grows the least.
fn quadratic_split_points<const D: usize>(
    points: Vec<PointI<D>>,
) -> (Vec<PointI<D>>, Vec<PointI<D>>) {
    debug_assert!(points.len() > MAX_ENTRIES);
    let (mut s1, mut s2) = (0usize, 1usize);
    let mut worst = f64::MIN;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            let pair = Rect::new(points[i], points[j]);
            let waste = area(&pair);
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    let mut group_a = vec![points[s1]];
    let mut group_b = vec![points[s2]];
    let mut rect_a = Rect::singleton(points[s1]);
    let mut rect_b = Rect::singleton(points[s2]);
    let remaining: Vec<PointI<D>> = points
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i != s1 && *i != s2)
        .map(|(_, p)| p)
        .collect();
    let total = remaining.len() + 2;
    let mut left_to_assign = remaining.len();
    for p in remaining {
        // Force assignment if one group needs all the rest to reach `m`.
        if group_a.len() + left_to_assign <= MIN_ENTRIES {
            group_a.push(p);
            rect_a.expand(&p);
            left_to_assign -= 1;
            continue;
        }
        if group_b.len() + left_to_assign <= MIN_ENTRIES {
            group_b.push(p);
            rect_b.expand(&p);
            left_to_assign -= 1;
            continue;
        }
        let ea = enlargement(&rect_a, &p);
        let eb = enlargement(&rect_b, &p);
        if ea < eb || (ea == eb && group_a.len() <= group_b.len()) {
            group_a.push(p);
            rect_a.expand(&p);
        } else {
            group_b.push(p);
            rect_b.expand(&p);
        }
        left_to_assign -= 1;
    }
    debug_assert_eq!(group_a.len() + group_b.len(), total);
    (group_a, group_b)
}

/// Quadratic split for internal-node children.
#[allow(clippy::type_complexity)]
fn quadratic_split_children<const D: usize>(
    children: Vec<(RectI<D>, Arc<Node<D>>)>,
) -> (Vec<(RectI<D>, Arc<Node<D>>)>, Vec<(RectI<D>, Arc<Node<D>>)>) {
    debug_assert!(children.len() > MAX_ENTRIES);
    let (mut s1, mut s2) = (0usize, 1usize);
    let mut worst = f64::MIN;
    for i in 0..children.len() {
        for j in (i + 1)..children.len() {
            let merged = children[i].0.merged(&children[j].0);
            let waste = area(&merged) - area(&children[i].0) - area(&children[j].0);
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    let mut group_a = Vec::new();
    let mut group_b = Vec::new();
    let mut rect_a = children[s1].0;
    let mut rect_b = children[s2].0;
    let total = children.len();
    let mut left_to_assign = total - 2;
    for (i, entry) in children.into_iter().enumerate() {
        if i == s1 {
            group_a.push(entry);
            continue;
        }
        if i == s2 {
            group_b.push(entry);
            continue;
        }
        if group_a.len() + left_to_assign <= MIN_ENTRIES {
            rect_a = rect_a.merged(&entry.0);
            group_a.push(entry);
            left_to_assign -= 1;
            continue;
        }
        if group_b.len() + left_to_assign <= MIN_ENTRIES {
            rect_b = rect_b.merged(&entry.0);
            group_b.push(entry);
            left_to_assign -= 1;
            continue;
        }
        let ea = enlargement_rect(&rect_a, &entry.0);
        let eb = enlargement_rect(&rect_b, &entry.0);
        if ea < eb || (ea == eb && group_a.len() <= group_b.len()) {
            rect_a = rect_a.merged(&entry.0);
            group_a.push(entry);
        } else {
            rect_b = rect_b.merged(&entry.0);
            group_b.push(entry);
        }
        left_to_assign -= 1;
    }
    (group_a, group_b)
}

/// Depth-first search for a stored copy of `p`, visiting children in order
/// and only those whose rectangle contains it. On success `path` holds the
/// child index taken at each internal level.
fn locate<const D: usize>(node: &Node<D>, p: &PointI<D>, path: &mut Vec<usize>) -> bool {
    match node {
        Node::Leaf { points } => points.contains(p),
        Node::Internal { children } => {
            for (i, (r, c)) in children.iter().enumerate() {
                path.push(i);
                if r.contains(p) && locate(c, p, path) {
                    return true;
                }
                path.pop();
            }
            false
        }
    }
}

/// Delete `p` along the `path` [`locate`] found; underfull internal children
/// are dissolved and their points pushed into `orphans` for re-insertion.
fn delete_at<const D: usize>(
    node: &mut Node<D>,
    path: &[usize],
    p: &PointI<D>,
    orphans: &mut Vec<PointI<D>>,
) {
    match node {
        Node::Leaf { points } => {
            let pos = points.iter().position(|x| x == p).expect("located");
            points.swap_remove(pos);
        }
        Node::Internal { children } => {
            let i = path[0];
            let (r, c) = &mut children[i];
            delete_at(cow::make_mut(c), &path[1..], p, orphans);
            *r = c.bbox();
            let underfull = match c.as_ref() {
                Node::Leaf { points } => points.is_empty(),
                Node::Internal { children } => children.len() < 2,
            };
            if underfull {
                let (_, dead) = children.swap_remove(i);
                dead.collect_into(orphans);
            }
        }
    }
}

fn knn_rec<const D: usize>(node: &Node<D>, q: &PointI<D>, heap: &mut KnnHeap<i64, D>) {
    counters::NODES_VISITED.bump();
    match node {
        Node::Leaf { points } => {
            for p in points {
                heap.offer_point(q, *p);
            }
        }
        Node::Internal { children } => {
            let mut order: Vec<(i128, usize)> = children
                .iter()
                .enumerate()
                .map(|(i, (r, _))| (r.dist_sq_to_point(q), i))
                .collect();
            order.sort_by(|a, b| <i64 as Coord>::dist_cmp(a.0, b.0));
            for (dist, i) in order {
                if !heap.could_improve(dist) {
                    break;
                }
                knn_rec(&children[i].1, q, heap);
            }
        }
    }
}

fn range_count<const D: usize>(node: &Node<D>, rect: &RectI<D>) -> usize {
    counters::NODES_VISITED.bump();
    match node {
        Node::Leaf { points } => points.iter().filter(|p| rect.contains(p)).count(),
        Node::Internal { children } => children
            .iter()
            .filter(|(r, _)| rect.intersects(r))
            .map(|(r, c)| {
                if rect.contains_rect(r) {
                    c.size()
                } else {
                    range_count(c, rect)
                }
            })
            .sum(),
    }
}

fn range_list<const D: usize>(node: &Node<D>, rect: &RectI<D>, out: &mut Vec<PointI<D>>) {
    range_visit(node, rect, &mut |p| out.push(*p));
}

fn range_visit<const D: usize>(
    node: &Node<D>,
    rect: &RectI<D>,
    visitor: &mut dyn FnMut(&PointI<D>),
) {
    counters::NODES_VISITED.bump();
    match node {
        Node::Leaf { points } => {
            for p in points.iter().filter(|p| rect.contains(p)) {
                visitor(p);
            }
        }
        Node::Internal { children } => {
            for (r, c) in children {
                if !rect.intersects(r) {
                    continue;
                }
                if rect.contains_rect(r) {
                    visit_all(c, visitor);
                } else {
                    range_visit(c, rect, visitor);
                }
            }
        }
    }
}

fn visit_all<const D: usize>(node: &Node<D>, visitor: &mut dyn FnMut(&PointI<D>)) {
    match node {
        Node::Leaf { points } => {
            for p in points {
                visitor(p);
            }
        }
        Node::Internal { children } => {
            for (_, c) in children {
                visit_all(c, visitor);
            }
        }
    }
}

/// Re-export used by the workspace-level examples.
pub type Point2 = Point<i64, 2>;

#[cfg(test)]
mod tests {
    use super::*;
    use psi_geometry::brute_force_knn;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    fn random_points(n: usize, seed: u64, max: i64) -> Vec<PointI<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new([rng.gen_range(0..max), rng.gen_range(0..max)]))
            .collect()
    }

    #[test]
    fn empty_and_single() {
        let mut t = RTree::<2>::new();
        assert!(t.is_empty());
        t.check_invariants();
        t.insert(Point::new([1, 2]));
        assert_eq!(t.len(), 1);
        t.check_invariants();
        assert!(t.delete(&Point::new([1, 2])));
        assert!(t.is_empty());
        assert!(!t.delete(&Point::new([1, 2])));
        t.check_invariants();
    }

    #[test]
    fn insert_many_then_query() {
        let pts = random_points(3_000, 1, 100_000);
        let t = RTree::build(&pts);
        assert_eq!(t.len(), pts.len());
        t.check_invariants();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30 {
            let q = Point::new([rng.gen_range(0..100_000), rng.gen_range(0..100_000)]);
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
        let pts = random_points(2_000, 3, 10_000);
        let t = RTree::build(&pts);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..30 {
            let a = Point::new([rng.gen_range(0..10_000), rng.gen_range(0..10_000)]);
            let b = Point::new([rng.gen_range(0..10_000), rng.gen_range(0..10_000)]);
            let rect = Rect::new(a, b);
            let expect = pts.iter().filter(|p| rect.contains(p)).count();
            assert_eq!(t.range_count(&rect), expect);
            assert_eq!(t.range_list(&rect).len(), expect);
        }
    }

    #[test]
    fn delete_half_then_query() {
        let pts = random_points(2_000, 5, 50_000);
        let mut t = RTree::build(&pts);
        assert_eq!(t.batch_delete(&pts[..1_000]), 1_000);
        t.check_invariants();
        assert_eq!(t.len(), 1_000);
        let survivors = &pts[1_000..];
        let q = Point::new([25_000, 25_000]);
        assert_eq!(
            t.knn(&q, 10)
                .iter()
                .map(|p| q.dist_sq(p))
                .collect::<Vec<_>>(),
            brute_force_knn(survivors, &q, 10)
                .iter()
                .map(|p| q.dist_sq(p))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn duplicates_and_full_drain() {
        let p = PointI::<2>::new([5, 5]);
        let mut t = RTree::<2>::new();
        for _ in 0..100 {
            t.insert(p);
        }
        assert_eq!(t.len(), 100);
        t.check_invariants();
        assert_eq!(t.batch_delete(&vec![p; 100]), 100);
        assert!(t.is_empty());
        t.check_invariants();
    }

    #[test]
    fn three_d_tree() {
        let mut rng = StdRng::seed_from_u64(6);
        let pts: Vec<PointI<3>> = (0..1_500)
            .map(|_| {
                Point::new([
                    rng.gen_range(0..10_000),
                    rng.gen_range(0..10_000),
                    rng.gen_range(0..10_000),
                ])
            })
            .collect();
        let t = RTree::build(&pts);
        t.check_invariants();
        let q = Point::new([5_000, 5_000, 5_000]);
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
    fn incremental_mixed_workload_stays_valid() {
        let pts = random_points(1_500, 9, 20_000);
        let mut t = RTree::<2>::new();
        for (i, p) in pts.iter().enumerate() {
            t.insert(*p);
            if i % 3 == 2 {
                // periodically delete an older point
                t.delete(&pts[i / 2]);
            }
        }
        t.check_invariants();
        assert!(t.len() <= 1_500);
    }
}
