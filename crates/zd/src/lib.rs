//! **Zd-tree** baseline — the Morton-presort parallel Orth-tree of Blelloch &
//! Dobson that the paper compares the P-Orth tree against.
//!
//! The Zd-tree takes the classical route the P-Orth tree deliberately avoids:
//! every point's Morton code is computed up front, the `⟨code, point⟩` records
//! are comparison-sorted, and the quadtree/octree is then carved out of the
//! sorted sequence — each node corresponds to a contiguous code range, and its
//! `2^D` children are found by binary searching the next `D` bits of the code.
//! Batch updates merge a sorted batch into the affected code ranges. The extra
//! passes over the data (code computation + full sort) are exactly the
//! overhead the paper's Fig. 3 attributes to "Zd-tree" relative to "P-Orth".
//!
//! Like the original, this index requires integer coordinates within the SFC
//! precision budget (the paper's data is scaled accordingly).
//!
//! # Example
//!
//! ```
//! use psi_geometry::{Point, PointI};
//! use psi_zd::ZdTree;
//!
//! let pts: Vec<PointI<2>> = (0..500).map(|i| Point::new([i * 3 % 509, i * 11 % 509])).collect();
//! let mut t = ZdTree::<2>::build(&pts);
//! t.batch_insert(&[Point::new([100, 100])]);
//! assert_eq!(t.len(), 501);
//! ```

use psi_geometry::{Coord, KnnHeap, PointI, Rect, RectI};
use psi_parutils::stats::counters;
use psi_parutils::{cow, par_sort_by_key};
use psi_sfc::{bits_per_dim, MortonCurve, SfcCurve};
use rayon::prelude::*;
use std::sync::Arc;

/// An entry: Morton code plus the point.
type Entry<const D: usize> = (u64, PointI<D>);

/// Tuning parameters of a [`ZdTree`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZdConfig {
    /// Leaf wrap threshold (paper default 32).
    pub leaf_cap: usize,
}

impl Default for ZdConfig {
    fn default() -> Self {
        ZdConfig { leaf_cap: 32 }
    }
}

/// A Zd-tree node. Persistent by path copying, the same layout as the P-Orth
/// tree's: an internal node's children live inline in one `Arc`-shared array
/// and leaf entries are `Arc`-shared, so cloning a node is O(1). Updates copy
/// only the child arrays on the paths their batch reaches and replace the
/// leaves they rebuild.
#[derive(Clone)]
enum Node<const D: usize> {
    Leaf {
        entries: Arc<[Entry<D>]>,
        bbox: RectI<D>,
    },
    Internal {
        /// Positional children, one per Morton quadrant/octant at this level.
        children: Arc<[Node<D>]>,
        size: usize,
        bbox: RectI<D>,
    },
}

impl<const D: usize> Node<D> {
    fn leaf(entries: &[Entry<D>]) -> Self {
        Node::Leaf {
            entries: entries.into(),
            bbox: bbox_of(entries),
        }
    }
    fn size(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => entries.len(),
            Node::Internal { size, .. } => *size,
        }
    }
    fn bbox(&self) -> &RectI<D> {
        match self {
            Node::Leaf { bbox, .. } => bbox,
            Node::Internal { bbox, .. } => bbox,
        }
    }
    fn height(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Internal { children, .. } => {
                1 + children.iter().map(|c| c.height()).max().unwrap_or(0)
            }
        }
    }
    fn collect_entries(&self, out: &mut Vec<Entry<D>>) {
        match self {
            Node::Leaf { entries, .. } => out.extend_from_slice(entries),
            Node::Internal { children, .. } => {
                for c in children.iter() {
                    c.collect_entries(out);
                }
            }
        }
    }
}

/// The Morton-presort parallel Orth-tree. See the crate docs.
pub struct ZdTree<const D: usize> {
    root: Node<D>,
    cfg: ZdConfig,
}

/// Total number of code bits used for `D` dimensions.
fn total_bits(d: usize) -> u32 {
    bits_per_dim(d) * d as u32
}

/// The child index of `code` at tree `level` (level 0 = root's children).
#[inline]
fn child_of<const D: usize>(code: u64, level: u32) -> usize {
    let tb = total_bits(D);
    let shift = tb.saturating_sub(D as u32 * (level + 1));
    ((code >> shift) as usize) & ((1 << D) - 1)
}

/// Does `level` still have code bits left to discriminate on?
fn level_exhausted<const D: usize>(level: u32) -> bool {
    D as u32 * (level + 1) > total_bits(D)
}

fn bbox_of<const D: usize>(entries: &[Entry<D>]) -> RectI<D> {
    let mut b = Rect::empty();
    for (_, p) in entries {
        b.expand(p);
    }
    b
}

fn build_rec<const D: usize>(entries: &[Entry<D>], level: u32, cfg: &ZdConfig) -> Node<D> {
    let n = entries.len();
    if n <= cfg.leaf_cap || level_exhausted::<D>(level) {
        return Node::leaf(entries);
    }
    // Split the sorted code range into 2^D contiguous child ranges by binary
    // search on the child index of this level.
    let bounds = child_bounds::<D>(entries, level);
    let children: Arc<[Node<D>]> = (0..1usize << D)
        .into_par_iter()
        .map(|c| build_rec(&entries[bounds[c]..bounds[c + 1]], level + 1, cfg))
        .collect::<Vec<_>>()
        .into();
    Node::Internal {
        bbox: merged_bbox(&children),
        children,
        size: n,
    }
}

/// Offsets splitting a code-sorted slice into the `2^D` child ranges of
/// `level`: child `c` gets `entries[bounds[c]..bounds[c + 1]]`.
fn child_bounds<const D: usize>(entries: &[Entry<D>], level: u32) -> Vec<usize> {
    let fanout = 1usize << D;
    let mut bounds = Vec::with_capacity(fanout + 1);
    bounds.push(0usize);
    for c in 1..fanout {
        bounds.push(entries.partition_point(|e| child_of::<D>(e.0, level) < c));
    }
    bounds.push(entries.len());
    bounds
}

/// Recurse into the children of an internal node, in parallel, on the
/// non-empty child ranges of `batch`. The child array is copied first only
/// while a snapshot shares it; children whose range is empty are untouched.
fn update_children<const D: usize>(
    children: &mut Arc<[Node<D>]>,
    batch: &[Entry<D>],
    level: u32,
    update: impl Fn(&mut Node<D>, &[Entry<D>]) + Sync,
) {
    let bounds = child_bounds::<D>(batch, level);
    cow::make_mut_slice(children)
        .par_iter_mut()
        .enumerate()
        .for_each(|(c, child)| update(child, &batch[bounds[c]..bounds[c + 1]]));
}

fn merged_bbox<const D: usize>(children: &[Node<D>]) -> RectI<D> {
    let mut bbox = Rect::empty();
    for c in children {
        bbox = bbox.merged(c.bbox());
    }
    bbox
}

fn insert_rec<const D: usize>(node: &mut Node<D>, batch: &[Entry<D>], level: u32, cfg: &ZdConfig) {
    if batch.is_empty() {
        return;
    }
    match node {
        Node::Leaf { entries, .. } => {
            let mut all = Vec::with_capacity(entries.len() + batch.len());
            all.extend_from_slice(entries);
            all.extend_from_slice(batch);
            all.sort_unstable_by_key(|e| e.0);
            *node = build_rec(&all, level, cfg);
        }
        Node::Internal {
            children,
            size,
            bbox,
        } => {
            update_children(children, batch, level, |child, part| {
                insert_rec(child, part, level + 1, cfg)
            });
            *size += batch.len();
            *bbox = merged_bbox(children);
        }
    }
}

fn delete_rec<const D: usize>(node: &mut Node<D>, batch: &[Entry<D>], level: u32, cfg: &ZdConfig) {
    if batch.is_empty() {
        return;
    }
    match node {
        Node::Leaf { entries, .. } => {
            let mut kept = entries.to_vec();
            remove_multiset(&mut kept, batch);
            *node = Node::leaf(&kept);
        }
        Node::Internal {
            children,
            size,
            bbox,
        } => {
            update_children(children, batch, level, |child, part| {
                delete_rec(child, part, level + 1, cfg)
            });
            *size = children.iter().map(|c| c.size()).sum();
            if *size <= cfg.leaf_cap {
                // Flatten ancestors that shrank below the wrap, as in all
                // Orth-tree deletions.
                let mut entries = Vec::with_capacity(*size);
                for c in children.iter() {
                    c.collect_entries(&mut entries);
                }
                entries.sort_unstable_by_key(|e| e.0);
                *node = Node::leaf(&entries);
                return;
            }
            *bbox = merged_bbox(children);
        }
    }
}

fn remove_multiset<const D: usize>(entries: &mut Vec<Entry<D>>, batch: &[Entry<D>]) {
    let mut remaining: Vec<(Entry<D>, usize)> = Vec::new();
    let mut sorted_batch = batch.to_vec();
    sorted_batch.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.lex_cmp(&b.1)));
    for e in &sorted_batch {
        match remaining.last_mut() {
            Some((prev, count)) if prev.0 == e.0 && prev.1 == e.1 => *count += 1,
            _ => remaining.push((*e, 1)),
        }
    }
    entries.retain(|e| {
        match remaining.binary_search_by(|(b, _)| b.0.cmp(&e.0).then_with(|| b.1.lex_cmp(&e.1))) {
            Ok(i) if remaining[i].1 > 0 => {
                remaining[i].1 -= 1;
                false
            }
            _ => true,
        }
    });
}

impl<const D: usize> ZdTree<D>
where
    MortonCurve: SfcCurve<D>,
{
    /// Build a Zd-tree: compute Morton codes, sort, carve out the Orth-tree.
    pub fn build(points: &[PointI<D>]) -> Self {
        Self::build_with_config(points, ZdConfig::default())
    }

    /// Build with explicit parameters.
    pub fn build_with_config(points: &[PointI<D>], cfg: ZdConfig) -> Self {
        let mut entries: Vec<Entry<D>> = points
            .par_iter()
            .map(|p| {
                counters::CODES_COMPUTED.bump();
                (<MortonCurve as SfcCurve<D>>::encode(p), *p)
            })
            .collect();
        par_sort_by_key(&mut entries, |e| (e.0, e.1));
        counters::POINTS_MOVED.add(entries.len() as u64);
        let root = build_rec(&entries, 0, &cfg);
        ZdTree { root, cfg }
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

    /// Collect all stored points (Morton order).
    pub fn collect_points(&self) -> Vec<PointI<D>> {
        let mut entries = Vec::with_capacity(self.len());
        self.root.collect_entries(&mut entries);
        entries.into_iter().map(|e| e.1).collect()
    }

    /// An O(1) **persistent snapshot**: a second tree sharing every node with
    /// this one. Later updates through either handle path-copy only the child
    /// arrays their batch reaches, so the snapshot never changes.
    pub fn snapshot(&self) -> Self {
        ZdTree {
            root: self.root.clone(),
            cfg: self.cfg,
        }
    }

    /// Batch insertion: encode + sort the batch, then merge it down the tree.
    pub fn batch_insert(&mut self, points: &[PointI<D>]) {
        if points.is_empty() {
            return;
        }
        let mut batch: Vec<Entry<D>> = points
            .par_iter()
            .map(|p| (<MortonCurve as SfcCurve<D>>::encode(p), *p))
            .collect();
        par_sort_by_key(&mut batch, |e| (e.0, e.1));
        insert_rec(&mut self.root, &batch, 0, &self.cfg);
    }

    /// Batch deletion (multiset semantics); returns the number removed.
    pub fn batch_delete(&mut self, points: &[PointI<D>]) -> usize {
        if points.is_empty() {
            return 0;
        }
        let before = self.len();
        let mut batch: Vec<Entry<D>> = points
            .par_iter()
            .map(|p| (<MortonCurve as SfcCurve<D>>::encode(p), *p))
            .collect();
        par_sort_by_key(&mut batch, |e| (e.0, e.1));
        delete_rec(&mut self.root, &batch, 0, &self.cfg);
        before - self.len()
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
    pub fn bounding_box(&self) -> RectI<D> {
        *self.root.bbox()
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

    /// Validate structural invariants (sizes, boxes, code order, leaf wrap).
    pub fn check_invariants(&self) {
        fn rec<const D: usize>(node: &Node<D>, level: u32, cfg: &ZdConfig) -> usize
        where
            MortonCurve: SfcCurve<D>,
        {
            match node {
                Node::Leaf { entries, bbox } => {
                    assert_eq!(*bbox, bbox_of(entries), "leaf bbox mismatch");
                    for (code, p) in entries.iter() {
                        assert_eq!(*code, <MortonCurve as SfcCurve<D>>::encode(p));
                    }
                    entries.len()
                }
                Node::Internal {
                    children,
                    size,
                    bbox,
                } => {
                    assert_eq!(children.len(), 1 << D);
                    let mut total = 0;
                    let mut expect = Rect::empty();
                    for (i, c) in children.iter().enumerate() {
                        // Every entry in child i must map to child index i.
                        let mut entries = Vec::new();
                        c.collect_entries(&mut entries);
                        for (code, _) in &entries {
                            assert_eq!(child_of::<D>(*code, level), i, "entry in wrong quadrant");
                        }
                        total += rec(c, level + 1, cfg);
                        expect = expect.merged(c.bbox());
                    }
                    assert_eq!(total, *size, "size mismatch");
                    assert_eq!(&expect, bbox, "bbox mismatch");
                    assert!(*size > cfg.leaf_cap, "undersized internal node");
                    total
                }
            }
        }
        if let Node::Internal { .. } = self.root {
            rec(&self.root, 0, &self.cfg);
        } else if let Node::Leaf { entries, bbox } = &self.root {
            assert_eq!(*bbox, bbox_of(entries));
        }
    }
}

fn knn_rec<const D: usize>(node: &Node<D>, q: &PointI<D>, heap: &mut KnnHeap<i64, D>) {
    counters::NODES_VISITED.bump();
    match node {
        Node::Leaf { entries, .. } => {
            for (_, p) in entries.iter() {
                heap.offer_point(q, *p);
            }
        }
        Node::Internal { children, .. } => {
            let mut order: Vec<(i128, usize)> = children
                .iter()
                .enumerate()
                .filter(|(_, c)| c.size() > 0)
                .map(|(i, c)| (c.bbox().dist_sq_to_point(q), i))
                .collect();
            order.sort_by(|a, b| <i64 as Coord>::dist_cmp(a.0, b.0));
            for (dist, i) in order {
                if !heap.could_improve(dist) {
                    break;
                }
                knn_rec(&children[i], q, heap);
            }
        }
    }
}

fn range_count<const D: usize>(node: &Node<D>, rect: &RectI<D>) -> usize {
    counters::NODES_VISITED.bump();
    if node.size() == 0 || !rect.intersects(node.bbox()) {
        return 0;
    }
    if rect.contains_rect(node.bbox()) {
        return node.size();
    }
    match node {
        Node::Leaf { entries, .. } => entries.iter().filter(|(_, p)| rect.contains(p)).count(),
        Node::Internal { children, .. } => children.iter().map(|c| range_count(c, rect)).sum(),
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
    if node.size() == 0 || !rect.intersects(node.bbox()) {
        return;
    }
    if rect.contains_rect(node.bbox()) {
        visit_all(node, visitor);
        return;
    }
    match node {
        Node::Leaf { entries, .. } => {
            for (_, p) in entries.iter().filter(|(_, p)| rect.contains(p)) {
                visitor(p);
            }
        }
        Node::Internal { children, .. } => {
            for c in children.iter() {
                range_visit(c, rect, visitor);
            }
        }
    }
}

fn visit_all<const D: usize>(node: &Node<D>, visitor: &mut dyn FnMut(&PointI<D>)) {
    match node {
        Node::Leaf { entries, .. } => {
            for (_, p) in entries.iter() {
                visitor(p);
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
    use psi_geometry::{brute_force_knn, Point};
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    fn random_points(n: usize, seed: u64, max: i64) -> Vec<PointI<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new([rng.gen_range(0..max), rng.gen_range(0..max)]))
            .collect()
    }

    #[test]
    fn build_empty_single_duplicates() {
        let t = ZdTree::<2>::build(&[]);
        assert!(t.is_empty());
        t.check_invariants();
        let p = PointI::<2>::new([7, 8]);
        let t = ZdTree::<2>::build(&[p]);
        assert_eq!(t.len(), 1);
        // Many duplicates exhaust the code bits and must still terminate.
        let t = ZdTree::<2>::build(&vec![p; 500]);
        assert_eq!(t.len(), 500);
        t.check_invariants();
    }

    #[test]
    fn knn_matches_oracle() {
        let pts = random_points(5_000, 1, 1_000_000);
        let t = ZdTree::<2>::build(&pts);
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
        let pts = random_points(3_000, 3, 80_000);
        let t = ZdTree::<2>::build(&pts);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..40 {
            let a = Point::new([rng.gen_range(0..80_000), rng.gen_range(0..80_000)]);
            let b = Point::new([rng.gen_range(0..80_000), rng.gen_range(0..80_000)]);
            let rect = Rect::new(a, b);
            let expect = pts.iter().filter(|p| rect.contains(p)).count();
            assert_eq!(t.range_count(&rect), expect);
            assert_eq!(t.range_list(&rect).len(), expect);
        }
    }

    #[test]
    fn insert_delete_roundtrip() {
        let all = random_points(5_000, 5, 1_000_000);
        let (a, b) = all.split_at(2_500);
        let mut t = ZdTree::<2>::build(a);
        for chunk in b.chunks(400) {
            t.batch_insert(chunk);
            t.check_invariants();
        }
        assert_eq!(t.len(), all.len());
        let mut got = t.collect_points();
        let mut want = all.clone();
        got.sort();
        want.sort();
        assert_eq!(got, want);

        assert_eq!(t.batch_delete(&all[..3_000]), 3_000);
        t.check_invariants();
        assert_eq!(t.len(), 2_000);
        let q = Point::new([500_000, 500_000]);
        let survivors = &all[3_000..];
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
    fn history_independence_of_structure() {
        // Orth-trees are history independent: building from scratch and
        // building incrementally must produce the same shape.
        let all = random_points(3_000, 7, 1 << 20);
        let direct = ZdTree::<2>::build(&all);
        let (a, b) = all.split_at(1_500);
        let mut inc = ZdTree::<2>::build(a);
        inc.batch_insert(b);
        assert_eq!(direct.len(), inc.len());
        assert_eq!(direct.height(), inc.height());
    }

    #[test]
    fn three_d_points() {
        let mut rng = StdRng::seed_from_u64(9);
        let pts: Vec<PointI<3>> = (0..2_000)
            .map(|_| {
                Point::new([
                    rng.gen_range(0..1_000_000),
                    rng.gen_range(0..1_000_000),
                    rng.gen_range(0..1_000_000),
                ])
            })
            .collect();
        let t = ZdTree::<3>::build(&pts);
        t.check_invariants();
        let q = Point::new([400_000, 600_000, 500_000]);
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
}
