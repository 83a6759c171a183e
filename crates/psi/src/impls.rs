//! [`SpatialIndex`] v2 implementations for every index family.
//!
//! Each impl wires the index's native operations into the unified trait:
//! the query *primitives* (`range_visit`, `knn_into`) plus native overrides
//! of the derived queries where the index has a structurally better answer
//! (subtree-count shortcuts for `range_count`, `O(1)` root boxes for
//! `bounding_box`).
//!
//! Coordinate coverage: the SFC-free trees (P-Orth, Pkd) implement the trait
//! for **every** [`Coord`] type, so `f64` workloads go through the same API;
//! the SFC-based families (SPaC, CPAM, Zd) and the R-tree are `i64`-only,
//! matching the paper's integer-domain restriction for those structures.

use crate::index::SpatialIndex;
use psi_geometry::{Coord, KnnHeap, Point, PointI, Rect, RectI};
use psi_pkd::{PkdConfig, PkdTree};
use psi_porth::{POrthConfig, POrthTree};
use psi_rtree::RTree;
use psi_sfc::{MortonCurve, SfcCurve};
use psi_spac::{CpamConfig, CpamTree, SpacConfig, SpacTree};
use psi_zd::{ZdConfig, ZdTree};

impl<T: Coord, const D: usize> SpatialIndex<T, D> for POrthTree<T, D> {
    const NAME: &'static str = "P-Orth";
    type Config = POrthConfig;

    fn build_with(points: &[Point<T, D>], universe: Option<&Rect<T, D>>, cfg: POrthConfig) -> Self {
        match universe {
            Some(u) => POrthTree::build_with_config(points, *u, cfg),
            None => POrthTree::build_with_config(points, Rect::bounding(points), cfg),
        }
    }
    fn batch_insert(&mut self, points: &[Point<T, D>]) {
        POrthTree::batch_insert(self, points)
    }
    fn batch_delete(&mut self, points: &[Point<T, D>]) -> usize {
        POrthTree::batch_delete(self, points)
    }
    fn len(&self) -> usize {
        POrthTree::len(self)
    }
    fn range_visit(&self, rect: &Rect<T, D>, visitor: &mut dyn FnMut(&Point<T, D>)) {
        POrthTree::range_visit(self, rect, visitor)
    }
    fn knn_into(&self, q: &Point<T, D>, k: usize, heap: &mut KnnHeap<T, D>) {
        POrthTree::knn_into(self, q, k, heap)
    }
    fn range_count(&self, rect: &Rect<T, D>) -> usize {
        POrthTree::range_count(self, rect)
    }
    fn bounding_box(&self) -> Rect<T, D> {
        POrthTree::bounding_box(self)
    }
    fn check_invariants(&self) {
        POrthTree::check_invariants(self)
    }
    fn snapshot(&self) -> Self {
        POrthTree::snapshot(self)
    }
}

impl<T: Coord, const D: usize> SpatialIndex<T, D> for PkdTree<T, D> {
    const NAME: &'static str = "Pkd";
    type Config = PkdConfig;

    fn build_with(points: &[Point<T, D>], _universe: Option<&Rect<T, D>>, cfg: PkdConfig) -> Self {
        PkdTree::build_with_config(points, cfg)
    }
    fn batch_insert(&mut self, points: &[Point<T, D>]) {
        PkdTree::batch_insert(self, points)
    }
    fn batch_delete(&mut self, points: &[Point<T, D>]) -> usize {
        PkdTree::batch_delete(self, points)
    }
    fn len(&self) -> usize {
        PkdTree::len(self)
    }
    fn range_visit(&self, rect: &Rect<T, D>, visitor: &mut dyn FnMut(&Point<T, D>)) {
        PkdTree::range_visit(self, rect, visitor)
    }
    fn knn_into(&self, q: &Point<T, D>, k: usize, heap: &mut KnnHeap<T, D>) {
        PkdTree::knn_into(self, q, k, heap)
    }
    fn range_count(&self, rect: &Rect<T, D>) -> usize {
        PkdTree::range_count(self, rect)
    }
    fn bounding_box(&self) -> Rect<T, D> {
        PkdTree::bounding_box(self)
    }
    fn check_invariants(&self) {
        PkdTree::check_invariants(self)
    }
    fn snapshot(&self) -> Self {
        PkdTree::snapshot(self)
    }
}

impl<C: SfcCurve<D>, const D: usize> SpatialIndex<i64, D> for SpacTree<C, D> {
    const NAME: &'static str = "SPaC";
    type Config = SpacConfig;

    fn build_with(points: &[PointI<D>], _universe: Option<&RectI<D>>, cfg: SpacConfig) -> Self {
        SpacTree::build_with_config(points, cfg)
    }
    fn batch_insert(&mut self, points: &[PointI<D>]) {
        SpacTree::batch_insert(self, points)
    }
    fn batch_delete(&mut self, points: &[PointI<D>]) -> usize {
        SpacTree::batch_delete(self, points)
    }
    fn len(&self) -> usize {
        SpacTree::len(self)
    }
    fn range_visit(&self, rect: &RectI<D>, visitor: &mut dyn FnMut(&PointI<D>)) {
        SpacTree::range_visit(self, rect, visitor)
    }
    fn knn_into(&self, q: &PointI<D>, k: usize, heap: &mut KnnHeap<i64, D>) {
        SpacTree::knn_into(self, q, k, heap)
    }
    fn range_count(&self, rect: &RectI<D>) -> usize {
        SpacTree::range_count(self, rect)
    }
    fn bounding_box(&self) -> RectI<D> {
        SpacTree::bounding_box(self)
    }
    fn check_invariants(&self) {
        SpacTree::check_invariants(self)
    }
    fn snapshot(&self) -> Self {
        SpacTree::snapshot(self)
    }
}

impl<C: SfcCurve<D>, const D: usize> SpatialIndex<i64, D> for CpamTree<C, D> {
    const NAME: &'static str = "CPAM";
    type Config = CpamConfig;

    fn build_with(points: &[PointI<D>], _universe: Option<&RectI<D>>, cfg: CpamConfig) -> Self {
        CpamTree::build_with_config(points, cfg)
    }
    fn batch_insert(&mut self, points: &[PointI<D>]) {
        CpamTree::batch_insert(self, points)
    }
    fn batch_delete(&mut self, points: &[PointI<D>]) -> usize {
        CpamTree::batch_delete(self, points)
    }
    fn len(&self) -> usize {
        CpamTree::len(self)
    }
    fn range_visit(&self, rect: &RectI<D>, visitor: &mut dyn FnMut(&PointI<D>)) {
        CpamTree::range_visit(self, rect, visitor)
    }
    fn knn_into(&self, q: &PointI<D>, k: usize, heap: &mut KnnHeap<i64, D>) {
        CpamTree::knn_into(self, q, k, heap)
    }
    fn range_count(&self, rect: &RectI<D>) -> usize {
        CpamTree::range_count(self, rect)
    }
    fn bounding_box(&self) -> RectI<D> {
        CpamTree::bounding_box(self)
    }
    fn check_invariants(&self) {
        CpamTree::check_invariants(self)
    }
    fn snapshot(&self) -> Self {
        CpamTree::snapshot(self)
    }
}

impl<const D: usize> SpatialIndex<i64, D> for ZdTree<D>
where
    MortonCurve: SfcCurve<D>,
{
    const NAME: &'static str = "Zd-Tree";
    type Config = ZdConfig;

    fn build_with(points: &[PointI<D>], _universe: Option<&RectI<D>>, cfg: ZdConfig) -> Self {
        ZdTree::build_with_config(points, cfg)
    }
    fn batch_insert(&mut self, points: &[PointI<D>]) {
        ZdTree::batch_insert(self, points)
    }
    fn batch_delete(&mut self, points: &[PointI<D>]) -> usize {
        ZdTree::batch_delete(self, points)
    }
    fn len(&self) -> usize {
        ZdTree::len(self)
    }
    fn range_visit(&self, rect: &RectI<D>, visitor: &mut dyn FnMut(&PointI<D>)) {
        ZdTree::range_visit(self, rect, visitor)
    }
    fn knn_into(&self, q: &PointI<D>, k: usize, heap: &mut KnnHeap<i64, D>) {
        ZdTree::knn_into(self, q, k, heap)
    }
    fn range_count(&self, rect: &RectI<D>) -> usize {
        ZdTree::range_count(self, rect)
    }
    fn bounding_box(&self) -> RectI<D> {
        ZdTree::bounding_box(self)
    }
    fn check_invariants(&self) {
        ZdTree::check_invariants(self)
    }
    fn snapshot(&self) -> Self {
        ZdTree::snapshot(self)
    }
}

impl<const D: usize> SpatialIndex<i64, D> for RTree<D> {
    const NAME: &'static str = "Boost-R";
    /// The R-tree has no tunable knobs (fan-out is a compile-time constant).
    type Config = ();

    fn build_with(points: &[PointI<D>], _universe: Option<&RectI<D>>, _cfg: ()) -> Self {
        RTree::build(points)
    }
    fn batch_insert(&mut self, points: &[PointI<D>]) {
        RTree::batch_insert(self, points)
    }
    fn batch_delete(&mut self, points: &[PointI<D>]) -> usize {
        RTree::batch_delete(self, points)
    }
    fn len(&self) -> usize {
        RTree::len(self)
    }
    fn range_visit(&self, rect: &RectI<D>, visitor: &mut dyn FnMut(&PointI<D>)) {
        RTree::range_visit(self, rect, visitor)
    }
    fn knn_into(&self, q: &PointI<D>, k: usize, heap: &mut KnnHeap<i64, D>) {
        RTree::knn_into(self, q, k, heap)
    }
    fn range_count(&self, rect: &RectI<D>) -> usize {
        RTree::range_count(self, rect)
    }
    fn bounding_box(&self) -> RectI<D> {
        RTree::bounding_box(self)
    }
    fn check_invariants(&self) {
        RTree::check_invariants(self)
    }
    fn snapshot(&self) -> Self {
        RTree::snapshot(self)
    }
}
