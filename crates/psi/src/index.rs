//! The unified `SpatialIndex` trait (v2): coordinate-generic, config-aware,
//! with allocation-free visitor/heap query primitives.
//!
//! # Design
//!
//! The trait is generic over the coordinate type `T` ([`Coord`]: `i64` for the
//! paper's workloads, `f64` for the P-Orth tree's unrestricted domain) and the
//! dimension `D`. Three layers:
//!
//! 1. **Construction** — [`SpatialIndex::build_with`] is the single required
//!    entry point: points, an optional universe (the fixed root region only
//!    the P-Orth tree consumes), and a per-index [`SpatialIndex::Config`]
//!    carrying the paper's ablation knobs (`φ`, `λ`, `α`, sorted-leaves, …).
//!    [`SpatialIndex::build`] and the fluent [`PsiBuilder`] are sugar on top.
//! 2. **Primitives** — [`SpatialIndex::range_visit`] (a visitor walk over the
//!    matching points) and [`SpatialIndex::knn_into`] (filling a
//!    caller-provided, reusable [`KnnHeap`]) are the hot-path operations and
//!    allocate nothing.
//! 3. **Derived queries** — `knn`, `range_count`, `range_list`, `batch_diff`
//!    and the parallel `knn_batch` / `range_count_batch` / `range_list_batch`
//!    are default methods re-derived from the primitives; indexes override
//!    them only where a structurally better implementation exists (e.g.
//!    subtree-count shortcuts for `range_count`). The batch variants fan out
//!    over the rayon worker pool with per-worker scratch state (`KnnHeap`s,
//!    result arenas) reused across each worker's queries.

use crate::builder::PsiBuilder;
use psi_geometry::{Coord, KnnHeap, Point, Rect};
use rayon::prelude::*;

/// The interface shared by every spatial index in Ψ-Lib-rs: parallel batch
/// construction and updates plus the paper's three query types, over a generic
/// coordinate type.
///
/// Implementors provide the five required operations plus the two query
/// primitives; everything else has a default. `universe` is the data domain;
/// indexes that do not need it (everything except the P-Orth tree) are free to
/// ignore it.
pub trait SpatialIndex<T: Coord, const D: usize>: Sized + Send + Sync {
    /// Short name used in benchmark tables and the runtime registry
    /// ("P-Orth", "SPaC-H", ...).
    const NAME: &'static str;

    /// Per-index tuning parameters (the paper's ablation knobs). `Default`
    /// must produce the paper's preset for this index.
    type Config: Default + Clone + Send + Sync + 'static;

    /// Build the index over `points` with an explicit configuration and an
    /// optional universe (fixed root region). `None` lets the index derive
    /// its own domain (typically the bounding box of `points`).
    fn build_with(points: &[Point<T, D>], universe: Option<&Rect<T, D>>, cfg: Self::Config)
        -> Self;

    /// Insert a batch of points.
    fn batch_insert(&mut self, points: &[Point<T, D>]);

    /// Delete a batch of points (each element removes at most one stored
    /// match); returns the number removed.
    fn batch_delete(&mut self, points: &[Point<T, D>]) -> usize;

    /// Number of stored points.
    fn len(&self) -> usize;

    /// Range primitive: invoke `visitor` on every stored point inside the
    /// closed axis-aligned box, allocating nothing.
    fn range_visit(&self, rect: &Rect<T, D>, visitor: &mut dyn FnMut(&Point<T, D>));

    /// kNN primitive: reset `heap` to capacity `k` (reusing its allocation)
    /// and fill it with the `k` nearest neighbours of `q`. Requires `k >= 1`;
    /// the derived [`SpatialIndex::knn`] handles `k == 0`.
    fn knn_into(&self, q: &Point<T, D>, k: usize, heap: &mut KnnHeap<T, D>);

    // ------------------------------------------------------------------
    // Derived construction.
    // ------------------------------------------------------------------

    /// Build with the paper's default configuration and an explicit universe.
    fn build(points: &[Point<T, D>], universe: &Rect<T, D>) -> Self {
        Self::build_with(points, Some(universe), Self::Config::default())
    }

    /// Start a fluent [`PsiBuilder`] for this index type.
    fn builder() -> PsiBuilder<Self, T, D> {
        PsiBuilder::new()
    }

    // ------------------------------------------------------------------
    // Derived queries.
    // ------------------------------------------------------------------

    /// `true` if no points are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k` nearest neighbours of `q`, closest first.
    fn knn(&self, q: &Point<T, D>, k: usize) -> Vec<Point<T, D>> {
        if k == 0 || self.len() == 0 {
            return Vec::new();
        }
        let mut heap = KnnHeap::new(k);
        self.knn_into(q, k, &mut heap);
        heap.into_sorted()
    }

    /// Number of stored points in the closed axis-aligned box.
    ///
    /// Derived by counting visits; indexes with subtree counts override this
    /// with an `O(log n)`-ish native version.
    fn range_count(&self, rect: &Rect<T, D>) -> usize {
        let mut count = 0usize;
        self.range_visit(rect, &mut |_| count += 1);
        count
    }

    /// The stored points in the closed axis-aligned box.
    fn range_list(&self, rect: &Rect<T, D>) -> Vec<Point<T, D>> {
        let mut out = Vec::new();
        self.range_list_into(rect, &mut out);
        out
    }

    /// As [`SpatialIndex::range_list`], but filling a caller-owned arena:
    /// `out` is cleared and refilled, reusing its allocation. This is the
    /// allocation-free companion of `range_list` — a worker answering many
    /// range queries keeps one arena and amortises the growth cost across
    /// all of them (the same contract [`KnnHeap`] gives `knn_into`).
    fn range_list_into(&self, rect: &Rect<T, D>, out: &mut Vec<Point<T, D>>) {
        out.clear();
        self.range_visit(rect, &mut |p| out.push(*p));
    }

    /// Tight bounding box of the stored points ([`Rect::empty`] when empty).
    ///
    /// The default scans every point through [`SpatialIndex::range_visit`];
    /// tree indexes override it with their `O(1)` root box.
    fn bounding_box(&self) -> Rect<T, D> {
        let everything =
            Rect::from_corners(Point::new([T::MIN_VALUE; D]), Point::new([T::MAX_VALUE; D]));
        let mut bbox = Rect::empty();
        self.range_visit(&everything, &mut |p| bbox.expand(p));
        bbox
    }

    /// Check internal structural invariants (used by tests); default is a
    /// no-op for indexes without a checker.
    fn check_invariants(&self) {}

    /// A **persistent snapshot**: a second handle on the same nodes, made in
    /// O(1). Every family's backbone is path-copying, so later updates
    /// through either handle copy only the nodes on the paths their batch
    /// reaches (each copy counted in `psi_index_nodes_copied_total`): the
    /// snapshot never changes, costs no full copy, and never blocks the
    /// writer.
    fn snapshot(&self) -> Self;

    /// Apply a deletion batch and an insertion batch as one logical update
    /// (the `BatchDiff` operation of the Ψ-Lib API): first the deletions, then
    /// the insertions. Returns the number of points actually deleted.
    fn batch_diff(&mut self, delete: &[Point<T, D>], insert: &[Point<T, D>]) -> usize {
        let removed = self.batch_delete(delete);
        self.batch_insert(insert);
        removed
    }

    // ------------------------------------------------------------------
    // Derived parallel batch queries.
    // ------------------------------------------------------------------

    /// Answer many kNN queries in parallel (the paper's query benchmarks
    /// issue millions of concurrent queries this way), distributing queries
    /// over the rayon worker pool. One [`KnnHeap`] is created per
    /// participating worker — `map_init`'s per-worker state contract — and
    /// reused across all of that worker's queries, so the batch allocates
    /// one heap per thread rather than one per query. Each query fully
    /// resets the heap (`knn_into` does), so results are independent of how
    /// queries are distributed across workers: the output is bit-identical
    /// to a sequential run.
    fn knn_batch(&self, queries: &[Point<T, D>], k: usize) -> Vec<Vec<Point<T, D>>> {
        if k == 0 {
            return vec![Vec::new(); queries.len()];
        }
        queries
            .par_iter()
            .map_init(
                || KnnHeap::new(k),
                |heap, q| {
                    self.knn_into(q, k, heap);
                    heap.drain_sorted()
                },
            )
            .collect()
    }

    /// Answer many range-count queries in parallel.
    fn range_count_batch(&self, rects: &[Rect<T, D>]) -> Vec<usize> {
        rects.par_iter().map(|r| self.range_count(r)).collect()
    }

    /// Answer many range-list queries in parallel. Each worker keeps one
    /// scratch arena ([`SpatialIndex::range_list_into`] reuse via
    /// `map_init`), so per-query results are materialised with a single
    /// exact-size allocation instead of repeated growth reallocations; the
    /// arena's capacity is amortised across the worker's whole share of the
    /// batch. Output order matches `rects`.
    fn range_list_batch(&self, rects: &[Rect<T, D>]) -> Vec<Vec<Point<T, D>>> {
        rects
            .par_iter()
            .map_init(Vec::new, |arena: &mut Vec<Point<T, D>>, r| {
                self.range_list_into(r, arena);
                arena.as_slice().to_vec()
            })
            .collect()
    }
}
