//! **SPaC-tree** — the Spatial PaC-tree family of §4, plus the CPAM-style
//! baseline the paper compares against.
//!
//! A SPaC-tree is an R-tree built as a parallel balanced binary search tree
//! over the space-filling-curve codes of the points, with every node augmented
//! by the bounding box of its subtree. The backbone is a re-implementation of
//! the **PaC-tree** (a weight-balanced, join-based BST with compressed/blocked
//! leaves); the paper's key modification is to relax the SFC total order
//! *inside leaves*: batch updates may leave leaf blocks unsorted (marking
//! them), and the order is lazily restored only when a join actually needs to
//! expose a leaf. Spatial queries never look at the order, so query
//! performance is unaffected while update cost drops sharply (the central
//! ablation of Fig. 3: SPaC-H/Z vs CPAM-H/Z).
//!
//! Two curve instantiations are provided, mirroring Ψ-Lib:
//! [`SpacZTree`] (Morton) and [`SpacHTree`] (Hilbert); and the baseline
//! [`CpamZTree`] / [`CpamHTree`] which keep leaves totally ordered and
//! pre-compute codes before sorting — exactly the configuration the paper
//! labels CPAM-Z / CPAM-H.
//!
//! # Example
//!
//! ```
//! use psi_geometry::{Point, PointI};
//! use psi_spac::SpacHTree;
//!
//! let pts: Vec<PointI<2>> = (0..500).map(|i| Point::new([i * 7 % 997, i * 13 % 997])).collect();
//! let mut tree = SpacHTree::<2>::build(&pts);
//! assert_eq!(tree.len(), 500);
//! tree.batch_insert(&[Point::new([123, 456])]);
//! let nn = tree.knn(&Point::new([100, 450]), 2);
//! assert_eq!(nn.len(), 2);
//! ```

mod build;
mod pac;
mod query;
mod update;

pub use pac::{unshare, PNode, SpacConfig};

use psi_geometry::{KnnHeap, Point, PointI, RectI};
use psi_sfc::{HilbertCurve, MortonCurve, SfcCurve};
use std::marker::PhantomData;

/// An entry stored in the tree: the point's SFC code and the point itself.
pub type Entry<const D: usize> = (u64, PointI<D>);

/// The Spatial PaC-tree, generic over the space-filling curve `C`.
///
/// With [`SpacConfig::spac`] (the default) this is the paper's SPaC-tree; with
/// [`SpacConfig::cpam`] it becomes the CPAM baseline (sorted leaves, presorted
/// construction).
pub struct SpacTree<C: SfcCurve<D>, const D: usize> {
    root: PNode<D>,
    cfg: SpacConfig,
    _curve: PhantomData<C>,
}

/// SPaC-tree using the Morton (Z) curve — fastest updates, slower queries.
pub type SpacZTree<const D: usize> = SpacTree<MortonCurve, D>;
/// SPaC-tree using the Hilbert curve — the paper's recommended default.
pub type SpacHTree<const D: usize> = SpacTree<HilbertCurve, D>;

/// The CPAM-Z baseline: same tree, but leaves keep the Morton total order.
pub struct CpamTree<C: SfcCurve<D>, const D: usize>(SpacTree<C, D>);
/// CPAM baseline over the Morton curve.
pub type CpamZTree<const D: usize> = CpamTree<MortonCurve, D>;
/// CPAM baseline over the Hilbert curve.
pub type CpamHTree<const D: usize> = CpamTree<HilbertCurve, D>;

impl<C: SfcCurve<D>, const D: usize> SpacTree<C, D> {
    /// Build a SPaC-tree with the paper's default configuration.
    pub fn build(points: &[PointI<D>]) -> Self {
        Self::build_with_config(points, SpacConfig::spac())
    }

    /// Build with an explicit configuration (used by the CPAM baseline and the
    /// ablation benchmarks).
    pub fn build_with_config(points: &[PointI<D>], cfg: SpacConfig) -> Self {
        let root = build::build_tree::<C, D>(points, &cfg);
        SpacTree {
            root,
            cfg,
            _curve: PhantomData,
        }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.root.size()
    }

    /// `true` if no points are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tight bounding box of the stored points.
    pub fn bounding_box(&self) -> RectI<D> {
        *self.root.bbox()
    }

    /// Height of the tree (leaf = 1).
    pub fn height(&self) -> usize {
        self.root.height()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SpacConfig {
        &self.cfg
    }

    /// Collect all stored points (in SFC order across leaves; within an
    /// unsorted leaf, in insertion order).
    pub fn collect_points(&self) -> Vec<PointI<D>> {
        let mut out = Vec::with_capacity(self.len());
        self.root.collect_points(&mut out);
        out
    }

    /// Batch insertion (Alg. 4).
    pub fn batch_insert(&mut self, points: &[PointI<D>]) {
        if points.is_empty() {
            return;
        }
        let root = std::mem::replace(&mut self.root, PNode::empty());
        self.root = update::batch_insert::<C, D>(root, points, &self.cfg);
    }

    /// Batch deletion; each batch element removes at most one matching stored
    /// point. Returns the number of points removed.
    pub fn batch_delete(&mut self, points: &[PointI<D>]) -> usize {
        if points.is_empty() {
            return 0;
        }
        let before = self.len();
        let root = std::mem::replace(&mut self.root, PNode::empty());
        self.root = update::batch_delete::<C, D>(root, points, &self.cfg);
        before - self.len()
    }

    /// The `k` nearest neighbours of `q`, closest first.
    pub fn knn(&self, q: &PointI<D>, k: usize) -> Vec<PointI<D>> {
        query::knn(&self.root, q, k)
    }

    /// kNN primitive: reset `heap` to capacity `k` (reusing its allocation)
    /// and fill it with the `k` nearest neighbours of `q`. Requires `k >= 1`.
    pub fn knn_into(&self, q: &PointI<D>, k: usize, heap: &mut KnnHeap<i64, D>) {
        query::knn_into(&self.root, q, k, heap)
    }

    /// Range primitive: call `visitor` on every stored point inside the closed
    /// box, allocating nothing.
    pub fn range_visit(&self, rect: &RectI<D>, visitor: &mut dyn FnMut(&PointI<D>)) {
        query::range_visit(&self.root, rect, visitor)
    }

    /// Number of stored points inside the closed box.
    pub fn range_count(&self, rect: &RectI<D>) -> usize {
        query::range_count(&self.root, rect)
    }

    /// All stored points inside the closed box.
    pub fn range_list(&self, rect: &RectI<D>) -> Vec<PointI<D>> {
        let mut out = Vec::new();
        query::range_list(&self.root, rect, &mut out);
        out
    }

    /// Validate structural invariants (sizes, bounding boxes, SFC order across
    /// leaves, sorted-flag honesty, weight balance). Panics on violation.
    pub fn check_invariants(&self) {
        pac::check_invariants::<C, D>(&self.root, &self.cfg);
    }

    /// Read-only access to the root, for white-box tests.
    pub fn root(&self) -> &PNode<D> {
        &self.root
    }

    /// An O(1)-for-interior / O(φ)-for-leaf **persistent snapshot**: the
    /// returned tree shares every node below the root with `self`. Later
    /// batch updates through either tree copy-on-write only the spine they
    /// touch ([`unshare`]), so a snapshot costs one shallow root clone and
    /// never blocks or observes subsequent writes.
    pub fn snapshot(&self) -> Self {
        SpacTree {
            root: self.root.clone(),
            cfg: self.cfg,
            _curve: PhantomData,
        }
    }
}

/// Configuration newtype for the CPAM baselines: identical knobs to
/// [`SpacConfig`], but `Default` resolves to [`SpacConfig::cpam`] so the
/// unified trait's `Config: Default` bound picks the right preset per index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpamConfig(pub SpacConfig);

impl Default for CpamConfig {
    fn default() -> Self {
        CpamConfig(SpacConfig::cpam())
    }
}

impl<C: SfcCurve<D>, const D: usize> CpamTree<C, D> {
    /// Build the CPAM baseline (total order, presorted construction).
    pub fn build(points: &[PointI<D>]) -> Self {
        Self::build_with_config(points, CpamConfig::default())
    }

    /// Build with an explicit configuration.
    pub fn build_with_config(points: &[PointI<D>], cfg: CpamConfig) -> Self {
        CpamTree(SpacTree::build_with_config(points, cfg.0))
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if no points are stored.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Batch insertion, keeping every leaf totally ordered.
    pub fn batch_insert(&mut self, points: &[PointI<D>]) {
        self.0.batch_insert(points)
    }

    /// Batch deletion.
    pub fn batch_delete(&mut self, points: &[PointI<D>]) -> usize {
        self.0.batch_delete(points)
    }

    /// The `k` nearest neighbours of `q`.
    pub fn knn(&self, q: &PointI<D>, k: usize) -> Vec<PointI<D>> {
        self.0.knn(q, k)
    }

    /// kNN primitive; see [`SpacTree::knn_into`].
    pub fn knn_into(&self, q: &PointI<D>, k: usize, heap: &mut KnnHeap<i64, D>) {
        self.0.knn_into(q, k, heap)
    }

    /// Range primitive; see [`SpacTree::range_visit`].
    pub fn range_visit(&self, rect: &RectI<D>, visitor: &mut dyn FnMut(&PointI<D>)) {
        self.0.range_visit(rect, visitor)
    }

    /// Tight bounding box of the stored points.
    pub fn bounding_box(&self) -> RectI<D> {
        self.0.bounding_box()
    }

    /// Height of the underlying PaC-tree (leaf = 1).
    pub fn height(&self) -> usize {
        self.0.height()
    }

    /// Number of stored points inside the closed box.
    pub fn range_count(&self, rect: &RectI<D>) -> usize {
        self.0.range_count(rect)
    }

    /// All stored points inside the closed box.
    pub fn range_list(&self, rect: &RectI<D>) -> Vec<PointI<D>> {
        self.0.range_list(rect)
    }

    /// Validate structural invariants.
    pub fn check_invariants(&self) {
        self.0.check_invariants()
    }

    /// Collect all stored points.
    pub fn collect_points(&self) -> Vec<PointI<D>> {
        self.0.collect_points()
    }

    /// Persistent snapshot; see [`SpacTree::snapshot`].
    pub fn snapshot(&self) -> Self {
        CpamTree(self.0.snapshot())
    }

    /// Read-only access to the root, for white-box tests.
    pub fn root(&self) -> &PNode<D> {
        self.0.root()
    }
}

/// Re-export of the geometric point type for convenience in examples.
pub type Point2 = Point<i64, 2>;

#[cfg(test)]
mod tests {
    use super::*;
    use psi_geometry::{brute_force_knn, Rect};
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    fn random_points(n: usize, seed: u64, max: i64) -> Vec<PointI<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new([rng.gen_range(0..max), rng.gen_range(0..max)]))
            .collect()
    }

    fn check_knn_against_oracle<C: SfcCurve<2>>(
        tree: &SpacTree<C, 2>,
        pts: &[PointI<2>],
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..30 {
            let q = Point::new([rng.gen_range(0..1_000_000), rng.gen_range(0..1_000_000)]);
            let got = tree.knn(&q, 10);
            let expect = brute_force_knn(pts, &q, 10);
            assert_eq!(
                got.iter().map(|p| q.dist_sq(p)).collect::<Vec<_>>(),
                expect.iter().map(|p| q.dist_sq(p)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn build_empty_and_single() {
        let tree = SpacHTree::<2>::build(&[]);
        assert!(tree.is_empty());
        assert!(tree.knn(&Point::new([0, 0]), 5).is_empty());
        tree.check_invariants();

        let p = PointI::<2>::new([42, 43]);
        let tree = SpacHTree::<2>::build(&[p]);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.knn(&Point::new([0, 0]), 1), vec![p]);
        tree.check_invariants();
    }

    #[test]
    fn build_and_knn_hilbert() {
        let pts = random_points(5_000, 1, 1_000_000);
        let tree = SpacHTree::<2>::build(&pts);
        assert_eq!(tree.len(), pts.len());
        tree.check_invariants();
        check_knn_against_oracle(&tree, &pts, 100);
    }

    #[test]
    fn build_and_knn_morton() {
        let pts = random_points(5_000, 2, 1_000_000);
        let tree = SpacZTree::<2>::build(&pts);
        tree.check_invariants();
        check_knn_against_oracle(&tree, &pts, 101);
    }

    #[test]
    fn range_queries_match_scan() {
        let pts = random_points(4_000, 3, 100_000);
        let tree = SpacHTree::<2>::build(&pts);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..40 {
            let a = Point::new([rng.gen_range(0..100_000), rng.gen_range(0..100_000)]);
            let b = Point::new([rng.gen_range(0..100_000), rng.gen_range(0..100_000)]);
            let rect = Rect::new(a, b);
            let expect: Vec<_> = pts.iter().copied().filter(|p| rect.contains(p)).collect();
            assert_eq!(tree.range_count(&rect), expect.len());
            let mut got = tree.range_list(&rect);
            let mut want = expect;
            got.sort();
            want.sort();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn insert_preserves_content_and_queries() {
        let all = random_points(6_000, 4, 1_000_000);
        let (a, b) = all.split_at(3_000);
        let mut tree = SpacHTree::<2>::build(a);
        // Insert the second half in several smaller batches to exercise the
        // unsorted-leaf path repeatedly.
        for chunk in b.chunks(700) {
            tree.batch_insert(chunk);
            tree.check_invariants();
        }
        assert_eq!(tree.len(), all.len());
        let mut got = tree.collect_points();
        let mut want = all.clone();
        got.sort();
        want.sort();
        assert_eq!(got, want);
        check_knn_against_oracle(&tree, &all, 102);
    }

    /// `(entries, sorted)` of every leaf, in tree order.
    fn leaves(node: &PNode<2>, out: &mut Vec<(usize, bool)>) {
        match node {
            PNode::Leaf {
                entries, sorted, ..
            } => out.push((entries.len(), *sorted)),
            PNode::Interior { left, right, .. } => {
                leaves(left, out);
                leaves(right, out);
            }
        }
    }

    #[test]
    fn one_point_update_into_a_leaf_with_room_sorts_nothing() {
        use psi_parutils::stats::counters;
        let pts = random_points(3_000, 11, 1_000_000);
        let p = PointI::<2>::new([500_001, 499_999]);
        assert!(!pts.contains(&p));
        for cfg in [SpacConfig::spac(), SpacConfig::cpam()] {
            let mut tree = SpacHTree::<2>::build_with_config(&pts, cfg);
            let mut before = Vec::new();
            leaves(tree.root(), &mut before);
            assert!(
                before.iter().all(|&(n, _)| n < cfg.leaf_cap),
                "every leaf has room"
            );

            let ((), ins_sorts) = counters::LEAVES_SORTED.scoped(|| tree.batch_insert(&[p]));
            tree.check_invariants();
            let (removed, del_sorts) = counters::LEAVES_SORTED.scoped(|| tree.batch_delete(&[p]));
            tree.check_invariants();
            assert_eq!((tree.len(), removed), (3_000, 1));

            let mut after = Vec::new();
            leaves(tree.root(), &mut after);
            assert_eq!(after.len(), before.len(), "no leaf was split or merged");
            if cfg.sorted_leaves {
                // CPAM merges the point into its leaf: that one sort, no other.
                assert_eq!((ins_sorts, del_sorts), (1, 0));
                assert!(after.iter().all(|&(_, sorted)| sorted));
            } else {
                assert_eq!((ins_sorts, del_sorts), (0, 0));
                assert_eq!(after.iter().filter(|&&(_, sorted)| !sorted).count(), 1);
            }
        }
    }

    #[test]
    fn delete_in_batches_until_empty() {
        let pts = random_points(3_000, 5, 500_000);
        let mut tree = SpacZTree::<2>::build(&pts);
        let mut remaining = pts.clone();
        for chunk in pts.chunks(800) {
            let removed = tree.batch_delete(chunk);
            assert_eq!(removed, chunk.len());
            tree.check_invariants();
            remaining.drain(..chunk.len().min(remaining.len()));
        }
        assert!(tree.is_empty());
    }

    #[test]
    fn delete_subset_queries_still_correct() {
        let pts = random_points(4_000, 6, 1_000_000);
        let mut tree = SpacHTree::<2>::build(&pts);
        tree.batch_delete(&pts[..2_000]);
        tree.check_invariants();
        let survivors: Vec<_> = pts[2_000..].to_vec();
        assert_eq!(tree.len(), survivors.len());
        check_knn_against_oracle(&tree, &survivors, 103);
    }

    #[test]
    fn duplicates_multiset_semantics() {
        let p = PointI::<2>::new([9, 9]);
        let pts = vec![p; 150];
        let mut tree = SpacHTree::<2>::build(&pts);
        assert_eq!(tree.len(), 150);
        tree.check_invariants();
        assert_eq!(tree.batch_delete(&vec![p; 60]), 60);
        assert_eq!(tree.len(), 90);
        tree.check_invariants();
        assert_eq!(tree.batch_delete(&vec![p; 200]), 90);
        assert!(tree.is_empty());
    }

    #[test]
    fn delete_absent_points_is_noop() {
        let pts = random_points(1_000, 7, 1_000);
        let mut tree = SpacHTree::<2>::build(&pts);
        let absent = vec![PointI::<2>::new([5_000_000, 5_000_000])];
        assert_eq!(tree.batch_delete(&absent), 0);
        assert_eq!(tree.len(), 1_000);
        tree.check_invariants();
    }

    #[test]
    fn cpam_baseline_same_results_as_spac() {
        let pts = random_points(3_000, 8, 1_000_000);
        let (a, b) = pts.split_at(1_500);
        let mut spac = SpacHTree::<2>::build(a);
        let mut cpam = CpamHTree::<2>::build(a);
        spac.batch_insert(b);
        cpam.batch_insert(b);
        spac.check_invariants();
        cpam.check_invariants();
        assert_eq!(spac.len(), cpam.len());

        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..20 {
            let q = Point::new([rng.gen_range(0..1_000_000), rng.gen_range(0..1_000_000)]);
            assert_eq!(
                spac.knn(&q, 10)
                    .iter()
                    .map(|p| q.dist_sq(p))
                    .collect::<Vec<_>>(),
                cpam.knn(&q, 10)
                    .iter()
                    .map(|p| q.dist_sq(p))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn three_dimensional_spac() {
        let mut rng = StdRng::seed_from_u64(9);
        let pts: Vec<PointI<3>> = (0..3_000)
            .map(|_| {
                Point::new([
                    rng.gen_range(0..1_000_000),
                    rng.gen_range(0..1_000_000),
                    rng.gen_range(0..1_000_000),
                ])
            })
            .collect();
        let mut tree = SpacHTree::<3>::build(&pts);
        tree.check_invariants();
        let q = Point::new([500_000, 500_000, 500_000]);
        let got = tree.knn(&q, 10);
        let expect = brute_force_knn(&pts, &q, 10);
        assert_eq!(
            got.iter().map(|p| q.dist_sq(p)).collect::<Vec<_>>(),
            expect.iter().map(|p| q.dist_sq(p)).collect::<Vec<_>>()
        );
        tree.batch_delete(&pts[..1_000]);
        assert_eq!(tree.len(), 2_000);
        tree.check_invariants();
    }

    #[test]
    fn skewed_input_stays_balanced() {
        // Sweepline-like: sorted along x. The comparison-based SFC sort keeps
        // the tree balanced regardless of input order.
        let mut pts = random_points(5_000, 10, 1_000_000);
        pts.sort_by_key(|p| p.coords[0]);
        let mut tree = SpacHTree::<2>::build(&pts[..2_500]);
        for chunk in pts[2_500..].chunks(250) {
            tree.batch_insert(chunk);
        }
        tree.check_invariants();
        let n = tree.len() as f64;
        assert!(
            (tree.height() as f64) < 4.0 * n.log2(),
            "height {} too large for n = {}",
            tree.height(),
            n
        );
    }
}
