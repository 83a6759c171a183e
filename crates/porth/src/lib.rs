//! **P-Orth tree** — the parallel Orth-tree (quadtree / octree) of §3.
//!
//! An Orth-tree node splits its region into `2^D` congruent sub-regions at the
//! spatial median of every dimension. The paper's contribution is an
//! SFC-free construction and batch-update algorithm: instead of computing and
//! sorting Morton codes (the approach of Zd-tree and most prior Orth-trees),
//! the P-Orth tree *sieves* the points directly into the buckets induced by a
//! `λ`-level tree skeleton (Alg. 1), one cache-friendly pass per `λ` levels —
//! "conceptually an integer sort on Morton codes, without generating, storing,
//! or using them".
//!
//! Because no SFC is involved, the P-Orth tree works for any coordinate type
//! (including `f64`) and any coordinate range, and updates need no rebalancing
//! at all: the tree shape is a pure function of the point multiset and the
//! root region (history-independence, §5.1.3), which is why its query quality
//! never degrades under heavy updates.
//!
//! # Example
//!
//! ```
//! use psi_geometry::{PointI, RectI, Point};
//! use psi_porth::POrthTree;
//!
//! let pts: Vec<PointI<2>> = (0..1000).map(|i| Point::new([i % 37, i / 37])).collect();
//! let mut tree = POrthTree::build(&pts);
//! assert_eq!(tree.len(), 1000);
//!
//! let nn = tree.knn(&Point::new([5, 5]), 3);
//! assert_eq!(nn.len(), 3);
//!
//! tree.batch_delete(&pts[..500]);
//! assert_eq!(tree.len(), 500);
//! ```

mod build;
mod node;
mod query;
mod update;

pub use node::Node;

use psi_geometry::{Coord, KnnHeap, Point, Rect};

/// Tuning parameters of a [`POrthTree`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct POrthConfig {
    /// Leaf wrap threshold `φ`: a subtree with at most this many points is
    /// stored as a flat leaf (paper default 32).
    pub leaf_cap: usize,
    /// Skeleton height `λ`: how many tree levels a single sieve pass builds.
    /// The paper uses 3 for 2-D and 2 for 3-D (§C), keeping the number of
    /// buckets per pass (`2^{λD}`) cache-resident. `0` means "auto": resolve
    /// to the paper's per-dimension default at build time.
    pub skeleton_levels: usize,
    /// Hard recursion-depth cap. Purely a safety net for adversarial
    /// floating-point inputs whose midpoints stop making progress; the paper's
    /// integer workloads never get near it.
    pub max_depth: usize,
}

impl POrthConfig {
    /// The paper's defaults for dimension `D` (φ = 32; λ = 3 in 2-D, 2 in 3-D+).
    pub fn for_dim(d: usize) -> Self {
        POrthConfig {
            leaf_cap: 32,
            skeleton_levels: if d <= 2 { 3 } else { 2 },
            max_depth: 128,
        }
    }

    /// Replace the `0 = auto` skeleton height with the concrete per-dimension
    /// default; every other field is kept.
    pub fn resolved(mut self, d: usize) -> Self {
        if self.skeleton_levels == 0 {
            self.skeleton_levels = Self::for_dim(d).skeleton_levels;
        }
        self
    }
}

/// Dimension-independent defaults (`skeleton_levels` stays on auto), so the
/// config satisfies the unified trait's `Config: Default` bound.
impl Default for POrthConfig {
    fn default() -> Self {
        POrthConfig {
            leaf_cap: 32,
            skeleton_levels: 0,
            max_depth: 128,
        }
    }
}

/// The parallel Orth-tree.
///
/// `T` is the coordinate type (`i64` or `f64`), `D` the dimension (2 or 3 in
/// the paper; any `D >= 1` works). See the crate docs for the algorithmic
/// background.
pub struct POrthTree<T: Coord, const D: usize> {
    root: Node<T, D>,
    /// The fixed root region `H`. All points must lie inside it; inserting a
    /// point outside triggers a full rebuild with an enlarged region (the only
    /// non-incremental path, and one the paper's bounded-domain workloads
    /// never exercise).
    universe: Rect<T, D>,
    cfg: POrthConfig,
}

impl<T: Coord, const D: usize> POrthTree<T, D> {
    /// Build a tree over `points`, using their bounding box as the root region.
    pub fn build(points: &[Point<T, D>]) -> Self {
        Self::build_with_config(points, Rect::bounding(points), POrthConfig::for_dim(D))
    }

    /// Build a tree with an explicit root region (`H` in Alg. 1). Use this when
    /// the data domain is known up front — it makes the tree shape independent
    /// of which subset of points has been inserted so far.
    pub fn build_with_universe(points: &[Point<T, D>], universe: Rect<T, D>) -> Self {
        Self::build_with_config(points, universe, POrthConfig::for_dim(D))
    }

    /// Fully parameterised build.
    pub fn build_with_config(
        points: &[Point<T, D>],
        universe: Rect<T, D>,
        cfg: POrthConfig,
    ) -> Self {
        let cfg = cfg.resolved(D);
        let mut universe = universe;
        for p in points {
            universe.expand(p);
        }
        let mut buf = points.to_vec();
        let root = build::build_orth(&mut buf, &universe, &cfg, 0);
        POrthTree {
            root,
            universe,
            cfg,
        }
    }

    /// Number of points currently stored.
    pub fn len(&self) -> usize {
        self.root.size()
    }

    /// `true` if the tree stores no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The root region `H`.
    pub fn universe(&self) -> &Rect<T, D> {
        &self.universe
    }

    /// The tight bounding box of the stored points ([`Rect::empty`] if empty).
    pub fn bounding_box(&self) -> Rect<T, D> {
        *self.root.bbox()
    }

    /// Height of the tree (a single leaf has height 1).
    pub fn height(&self) -> usize {
        self.root.height()
    }

    /// Configuration in effect.
    pub fn config(&self) -> &POrthConfig {
        &self.cfg
    }

    /// Collect every stored point (in tree order).
    pub fn collect_points(&self) -> Vec<Point<T, D>> {
        let mut out = Vec::with_capacity(self.len());
        self.root.collect_into(&mut out);
        out
    }

    /// An O(1) **persistent snapshot**: a second tree sharing every node with
    /// this one. Later updates through either handle path-copy only the
    /// child arrays their batch reaches (see [`Node`]), so the snapshot
    /// never changes and costs no full copy.
    pub fn snapshot(&self) -> Self {
        POrthTree {
            root: self.root.clone(),
            universe: self.universe,
            cfg: self.cfg,
        }
    }

    /// Batch insertion (Alg. 2). Points outside the current root region force a
    /// rebuild with an enlarged region; in-region points are sieved down the
    /// existing structure in parallel.
    pub fn batch_insert(&mut self, points: &[Point<T, D>]) {
        if points.is_empty() {
            return;
        }
        let out_of_universe = points.iter().any(|p| !self.universe.contains(p));
        if out_of_universe {
            // Enlarge the universe and rebuild — the documented fallback.
            let mut all = self.collect_points();
            all.extend_from_slice(points);
            let mut uni = self.universe;
            for p in points {
                uni.expand(p);
            }
            *self = Self::build_with_config(&all, uni, self.cfg);
            return;
        }
        let mut buf = points.to_vec();
        update::batch_insert(&mut self.root, &mut buf, &self.universe, &self.cfg, 0);
    }

    /// Batch deletion (the symmetric counterpart of Alg. 2). Each point in
    /// `points` removes at most one matching stored point; points that are not
    /// present are ignored. Returns the number of points actually removed.
    pub fn batch_delete(&mut self, points: &[Point<T, D>]) -> usize {
        if points.is_empty() {
            return 0;
        }
        let mut buf = points.to_vec();
        update::batch_delete(&mut self.root, &mut buf, &self.universe, &self.cfg)
    }

    /// The `k` nearest neighbours of `q`, ordered by increasing distance.
    pub fn knn(&self, q: &Point<T, D>, k: usize) -> Vec<Point<T, D>> {
        query::knn(&self.root, q, k)
    }

    /// kNN primitive: reset `heap` to capacity `k` (reusing its allocation)
    /// and fill it with the `k` nearest neighbours of `q`. Requires `k >= 1`.
    pub fn knn_into(&self, q: &Point<T, D>, k: usize, heap: &mut KnnHeap<T, D>) {
        query::knn_into(&self.root, q, k, heap)
    }

    /// Range primitive: call `visitor` on every stored point inside the closed
    /// box, allocating nothing.
    pub fn range_visit(&self, rect: &Rect<T, D>, visitor: &mut dyn FnMut(&Point<T, D>)) {
        query::range_visit(&self.root, rect, visitor)
    }

    /// Number of stored points inside the (closed) axis-aligned box.
    pub fn range_count(&self, rect: &Rect<T, D>) -> usize {
        query::range_count(&self.root, rect)
    }

    /// All stored points inside the (closed) axis-aligned box.
    pub fn range_list(&self, rect: &Rect<T, D>) -> Vec<Point<T, D>> {
        let mut out = Vec::new();
        query::range_list(&self.root, rect, &mut out);
        out
    }

    /// Validate the structural invariants of the tree (used by tests and the
    /// property suite): sizes, bounding boxes, leaf-wrap, and region
    /// containment. Panics with a description on the first violation.
    pub fn check_invariants(&self) {
        node::check_invariants(&self.root, &self.universe, &self.cfg, true);
    }

    /// Access to the root node (read-only), for white-box tests and the
    /// structure-comparison used by the history-independence property test.
    pub fn root(&self) -> &Node<T, D> {
        &self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_geometry::{brute_force_knn, PointI, RectI};
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    fn random_points(n: usize, seed: u64, max: i64) -> Vec<PointI<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new([rng.gen_range(0..max), rng.gen_range(0..max)]))
            .collect()
    }

    #[test]
    fn build_empty() {
        let tree = POrthTree::<i64, 2>::build(&[]);
        assert_eq!(tree.len(), 0);
        assert!(tree.is_empty());
        assert_eq!(tree.knn(&Point::new([0, 0]), 3), vec![]);
        assert_eq!(tree.range_count(&RectI::<2>::empty()), 0);
        tree.check_invariants();
    }

    #[test]
    fn build_single_point() {
        let p = PointI::<2>::new([5, 5]);
        let tree = POrthTree::build(&[p]);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.knn(&Point::new([0, 0]), 1), vec![p]);
        tree.check_invariants();
    }

    #[test]
    fn build_and_query_moderate() {
        let pts = random_points(5_000, 1, 1_000_000);
        let tree = POrthTree::build(&pts);
        assert_eq!(tree.len(), pts.len());
        tree.check_invariants();

        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let q = Point::new([rng.gen_range(0..1_000_000), rng.gen_range(0..1_000_000)]);
            let got = tree.knn(&q, 10);
            let expect = brute_force_knn(&pts, &q, 10);
            let gd: Vec<i128> = got.iter().map(|p| q.dist_sq(p)).collect();
            let ed: Vec<i128> = expect.iter().map(|p| q.dist_sq(p)).collect();
            assert_eq!(gd, ed);
        }
    }

    #[test]
    fn range_queries_match_scan() {
        let pts = random_points(3_000, 2, 10_000);
        let tree = POrthTree::build(&pts);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let a = Point::new([rng.gen_range(0..10_000), rng.gen_range(0..10_000)]);
            let b = Point::new([rng.gen_range(0..10_000), rng.gen_range(0..10_000)]);
            let rect = Rect::new(a, b);
            let expect: Vec<_> = pts.iter().copied().filter(|p| rect.contains(p)).collect();
            assert_eq!(tree.range_count(&rect), expect.len());
            let mut got = tree.range_list(&rect);
            let mut want = expect.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn insert_then_matches_full_build() {
        let all = random_points(4_000, 3, 100_000);
        let universe = RectI::<2>::from_corners(Point::new([0, 0]), Point::new([100_000, 100_000]));
        let (a, b) = all.split_at(2_000);
        let mut tree = POrthTree::build_with_universe(a, universe);
        tree.batch_insert(b);
        tree.check_invariants();
        assert_eq!(tree.len(), all.len());

        let mut got = tree.collect_points();
        let mut want = all.clone();
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn delete_everything_in_batches() {
        let pts = random_points(2_500, 4, 50_000);
        let mut tree = POrthTree::build(&pts);
        let removed = tree.batch_delete(&pts[..1_000]);
        assert_eq!(removed, 1_000);
        tree.check_invariants();
        assert_eq!(tree.len(), 1_500);
        let removed = tree.batch_delete(&pts[1_000..]);
        assert_eq!(removed, 1_500);
        assert!(tree.is_empty());
        tree.check_invariants();
    }

    #[test]
    fn delete_absent_points_is_noop() {
        let pts = random_points(500, 6, 1_000);
        let mut tree = POrthTree::build(&pts);
        let absent = vec![Point::new([999, 998]), Point::new([998, 999])];
        let before = tree.len();
        let removed = tree.batch_delete(
            &absent
                .into_iter()
                .filter(|p| !pts.contains(p))
                .collect::<Vec<_>>(),
        );
        assert_eq!(removed, 0);
        assert_eq!(tree.len(), before);
        tree.check_invariants();
    }

    #[test]
    fn duplicate_points_are_kept_as_multiset() {
        let p = PointI::<2>::new([7, 7]);
        let pts = vec![p; 200];
        let mut tree = POrthTree::build(&pts);
        assert_eq!(tree.len(), 200);
        tree.check_invariants();
        assert_eq!(tree.batch_delete(&vec![p; 50]), 50);
        assert_eq!(tree.len(), 150);
        tree.check_invariants();
    }

    #[test]
    fn insert_outside_universe_rebuilds() {
        let pts = random_points(1_000, 8, 1_000);
        let mut tree = POrthTree::build(&pts);
        let far = vec![PointI::<2>::new([10_000_000, 10_000_000])];
        tree.batch_insert(&far);
        assert_eq!(tree.len(), 1_001);
        assert!(tree.universe().contains(&far[0]));
        tree.check_invariants();
    }

    #[test]
    fn history_independence_modulo_leaves() {
        // The paper: Orth-trees are history-independent (modulo leaf wrapping).
        // With a fixed universe, building from scratch and building + inserting
        // must contain identical point sets and produce identical query results.
        let all = random_points(3_000, 9, 65_536);
        let universe = RectI::<2>::from_corners(Point::new([0, 0]), Point::new([65_536, 65_536]));
        let direct = POrthTree::build_with_universe(&all, universe);
        let (a, b) = all.split_at(1_500);
        let mut incremental = POrthTree::build_with_universe(a, universe);
        incremental.batch_insert(b);

        assert_eq!(direct.len(), incremental.len());
        let q = Point::new([30_000, 30_000]);
        assert_eq!(
            direct
                .knn(&q, 20)
                .iter()
                .map(|p| q.dist_sq(p))
                .collect::<Vec<_>>(),
            incremental
                .knn(&q, 20)
                .iter()
                .map(|p| q.dist_sq(p))
                .collect::<Vec<_>>()
        );
        // Stronger: the internal structure has the same height.
        assert_eq!(direct.height(), incremental.height());
    }

    #[test]
    fn float_coordinates_supported() {
        let mut rng = StdRng::seed_from_u64(11);
        let pts: Vec<Point<f64, 2>> = (0..2_000)
            .map(|_| Point::new([rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]))
            .collect();
        let tree = POrthTree::build(&pts);
        assert_eq!(tree.len(), 2_000);
        tree.check_invariants();
        let q = Point::new([0.5, 0.5]);
        let got = tree.knn(&q, 5);
        let expect = brute_force_knn(&pts, &q, 5);
        let gd: Vec<f64> = got.iter().map(|p| q.dist_sq(p)).collect();
        let ed: Vec<f64> = expect.iter().map(|p| q.dist_sq(p)).collect();
        assert_eq!(gd, ed);
    }

    #[test]
    fn three_dimensional_tree() {
        let mut rng = StdRng::seed_from_u64(12);
        let pts: Vec<PointI<3>> = (0..3_000)
            .map(|_| {
                Point::new([
                    rng.gen_range(0..10_000),
                    rng.gen_range(0..10_000),
                    rng.gen_range(0..10_000),
                ])
            })
            .collect();
        let mut tree = POrthTree::build(&pts);
        tree.check_invariants();
        let q = Point::new([5_000, 5_000, 5_000]);
        let got = tree.knn(&q, 8);
        let expect = brute_force_knn(&pts, &q, 8);
        assert_eq!(
            got.iter().map(|p| q.dist_sq(p)).collect::<Vec<_>>(),
            expect.iter().map(|p| q.dist_sq(p)).collect::<Vec<_>>()
        );
        tree.batch_delete(&pts[..1_500]);
        assert_eq!(tree.len(), 1_500);
        tree.check_invariants();
    }

    #[test]
    fn large_batch_into_small_tree() {
        let universe = RectI::<2>::from_corners(Point::new([0, 0]), Point::new([1 << 20, 1 << 20]));
        let small = random_points(100, 21, 1 << 20);
        let big = random_points(20_000, 22, 1 << 20);
        let mut tree = POrthTree::build_with_universe(&small, universe);
        tree.batch_insert(&big);
        assert_eq!(tree.len(), 20_100);
        tree.check_invariants();
    }

    #[test]
    fn skewed_clustered_data() {
        // All points crammed in a tiny corner of a huge universe: exercises the
        // deep-path case the paper's Varden workload stresses.
        let mut rng = StdRng::seed_from_u64(33);
        let universe = RectI::<2>::from_corners(
            Point::new([0, 0]),
            Point::new([1_000_000_000, 1_000_000_000]),
        );
        let pts: Vec<PointI<2>> = (0..2_000)
            .map(|_| Point::new([rng.gen_range(0..64), rng.gen_range(0..64)]))
            .collect();
        let tree = POrthTree::build_with_universe(&pts, universe);
        assert_eq!(tree.len(), 2_000);
        tree.check_invariants();
        let q = Point::new([32, 32]);
        let got = tree.knn(&q, 10);
        let expect = brute_force_knn(&pts, &q, 10);
        assert_eq!(
            got.iter().map(|p| q.dist_sq(p)).collect::<Vec<_>>(),
            expect.iter().map(|p| q.dist_sq(p)).collect::<Vec<_>>()
        );
    }
}
