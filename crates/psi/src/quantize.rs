//! Fixed-point quantising adapter: serve `f64` workloads from an integer
//! index.
//!
//! The SFC-based families (SPaC, CPAM, Zd — everything that orders points by
//! a space-filling-curve code) require the paper's integer coordinate domain.
//! [`Quantized`] wraps any `i64` index behind the `f64` API by snapping every
//! coordinate to a fixed-point grid: a float coordinate `c` is stored as the
//! integer `round(c * scale)` and read back as `q / scale`.
//!
//! # Semantics
//!
//! Queries are answered **exactly with respect to the snapped points**:
//!
//! * `range_*` converts the query box conservatively (`ceil` on the low
//!   corner, `floor` on the high corner after scaling), so a stored point is
//!   reported iff its *dequantised* coordinates lie in the box — exact, with
//!   no false positives or negatives on the grid.
//! * `knn` snaps the query point to the grid and ranks candidates by exact
//!   integer distance in quantised space. For queries on the grid this is
//!   exact; off-grid queries are answered as if asked from the nearest grid
//!   point (an error of at most half a grid cell per axis).
//!
//! Workloads whose coordinates are exactly representable on the grid — e.g.
//! integer-valued `f64` data with `scale = 1.0`, or fixed-precision decimal
//! data with `scale = 10^p` — lose nothing. Genuinely continuous data is
//! snapped; pick `scale` so the grid is finer than the precision you care
//! about, keeping `|c| * scale` within the curve's supported domain (the SFC
//! families assume non-negative coordinates bounded by the paper's `10^9`).
//!
//! [`registry::create_f64`](crate::registry::create_f64) uses this adapter to
//! expose every SFC family under float coordinates (scale from
//! [`BuildOptions::quantize_scale`](crate::registry::BuildOptions), default
//! `1.0`).

use crate::builder::LeafSized;
use crate::index::SpatialIndex;
use psi_geometry::{KnnHeap, Point, Rect};

/// Configuration of a [`Quantized`] index: the inner index's config plus the
/// fixed-point scale.
#[derive(Clone, Debug)]
pub struct QuantizeConfig<C> {
    /// Configuration forwarded to the wrapped integer index.
    pub inner: C,
    /// Grid resolution: float coordinate `c` is stored as `round(c * scale)`.
    /// Must be positive and finite. Default `1.0` (snap to integers).
    pub scale: f64,
}

impl<C: Default> Default for QuantizeConfig<C> {
    fn default() -> Self {
        QuantizeConfig {
            inner: C::default(),
            scale: 1.0,
        }
    }
}

impl<C: LeafSized> LeafSized for QuantizeConfig<C> {
    fn set_leaf_size(&mut self, leaf_size: usize) {
        self.inner.set_leaf_size(leaf_size);
    }
}

/// An `i64` spatial index serving the `f64` API through fixed-point
/// quantisation (see the module docs for the exactness contract).
pub struct Quantized<I> {
    inner: I,
    scale: f64,
}

impl<I> Quantized<I> {
    /// The wrapped integer index.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// The fixed-point scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

#[inline]
fn quantize(c: f64, scale: f64) -> i64 {
    (c * scale).round() as i64
}

#[inline]
fn dequantize(q: i64, scale: f64) -> f64 {
    q as f64 / scale
}

fn quantize_point<const D: usize>(p: &Point<f64, D>, scale: f64) -> Point<i64, D> {
    Point::new(p.coords.map(|c| quantize(c, scale)))
}

fn dequantize_point<const D: usize>(p: &Point<i64, D>, scale: f64) -> Point<f64, D> {
    Point::new(p.coords.map(|c| dequantize(c, scale)))
}

fn quantize_points<const D: usize>(pts: &[Point<f64, D>], scale: f64) -> Vec<Point<i64, D>> {
    pts.iter().map(|p| quantize_point(p, scale)).collect()
}

/// Convert a float query box to the quantised grid without changing which
/// stored points it matches: a stored integer `q` dequantises into `[lo, hi]`
/// iff `q ∈ [ceil(lo·scale), floor(hi·scale)]`.
fn quantize_rect<const D: usize>(rect: &Rect<f64, D>, scale: f64) -> Option<Rect<i64, D>> {
    let mut lo = [0i64; D];
    let mut hi = [0i64; D];
    for d in 0..D {
        lo[d] = (rect.lo.coords[d] * scale).ceil() as i64;
        hi[d] = (rect.hi.coords[d] * scale).floor() as i64;
        if lo[d] > hi[d] {
            return None; // no grid point falls inside on this axis
        }
    }
    Some(Rect::from_corners(Point::new(lo), Point::new(hi)))
}

/// Convert a universe (root region) outward so every quantised point it could
/// receive stays inside: `floor` on the low corner, `ceil` on the high.
fn quantize_universe<const D: usize>(rect: &Rect<f64, D>, scale: f64) -> Rect<i64, D> {
    let lo = Point::new(rect.lo.coords.map(|c| (c * scale).floor() as i64));
    let hi = Point::new(rect.hi.coords.map(|c| (c * scale).ceil() as i64));
    Rect::from_corners(lo, hi)
}

impl<I, const D: usize> SpatialIndex<f64, D> for Quantized<I>
where
    I: SpatialIndex<i64, D>,
{
    const NAME: &'static str = I::NAME;

    type Config = QuantizeConfig<I::Config>;

    fn build_with(
        points: &[Point<f64, D>],
        universe: Option<&Rect<f64, D>>,
        cfg: Self::Config,
    ) -> Self {
        assert!(
            cfg.scale.is_finite() && cfg.scale > 0.0,
            "quantize scale must be positive and finite, got {}",
            cfg.scale
        );
        let scale = cfg.scale;
        let qpoints = quantize_points(points, scale);
        let quniverse = universe.map(|u| quantize_universe(u, scale));
        Quantized {
            inner: I::build_with(&qpoints, quniverse.as_ref(), cfg.inner),
            scale,
        }
    }

    fn batch_insert(&mut self, points: &[Point<f64, D>]) {
        self.inner
            .batch_insert(&quantize_points(points, self.scale));
    }

    fn batch_delete(&mut self, points: &[Point<f64, D>]) -> usize {
        self.inner
            .batch_delete(&quantize_points(points, self.scale))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn range_visit(&self, rect: &Rect<f64, D>, visitor: &mut dyn FnMut(&Point<f64, D>)) {
        let Some(qrect) = quantize_rect(rect, self.scale) else {
            return;
        };
        let scale = self.scale;
        self.inner
            .range_visit(&qrect, &mut |p| visitor(&dequantize_point(p, scale)));
    }

    fn knn_into(&self, q: &Point<f64, D>, k: usize, heap: &mut KnnHeap<f64, D>) {
        heap.reset(k);
        let qq = quantize_point(q, self.scale);
        // Rank in quantised space (exact integer distances); report the
        // dequantised points with their float distance from the original
        // query, so downstream distance folds see the true f64 geometry.
        for p in self.inner.knn(&qq, k) {
            heap.offer_point(q, dequantize_point(&p, self.scale));
        }
    }

    fn range_count(&self, rect: &Rect<f64, D>) -> usize {
        match quantize_rect(rect, self.scale) {
            Some(qrect) => self.inner.range_count(&qrect),
            None => 0,
        }
    }

    fn bounding_box(&self) -> Rect<f64, D> {
        let inner_box = self.inner.bounding_box();
        if inner_box.is_empty() {
            return Rect::empty();
        }
        Rect::from_corners(
            dequantize_point(&inner_box.lo, self.scale),
            dequantize_point(&inner_box.hi, self.scale),
        )
    }

    fn check_invariants(&self) {
        self.inner.check_invariants();
    }

    fn snapshot(&self) -> Self {
        Quantized {
            inner: self.inner.snapshot(),
            scale: self.scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::BruteForce;
    use psi_spac::{SpacConfig, SpacHTree};
    use psi_zd::{ZdConfig, ZdTree};

    fn grid_points(n: usize) -> Vec<Point<f64, 2>> {
        // Integer-valued f64 points: exactly representable on the scale-1 grid.
        (0..n)
            .map(|i| Point::new([((i * 37) % 1000) as f64, ((i * 91) % 1000) as f64]))
            .collect()
    }

    #[test]
    fn integer_valued_floats_are_exact_through_spac() {
        let pts = grid_points(2_000);
        let mut q = Quantized::<SpacHTree<2>>::build_with(
            &pts,
            None,
            QuantizeConfig::<SpacConfig>::default(),
        );
        let mut oracle = BruteForce::<f64, 2>::build_with(&pts, None, ());
        assert_eq!(q.len(), pts.len());
        q.check_invariants();

        let probes = [[0.0, 0.0], [500.0, 500.0], [999.0, 1.0]];
        for c in probes {
            let qp = Point::new(c);
            let got: Vec<f64> = q.knn(&qp, 7).iter().map(|p| qp.dist_sq(p)).collect();
            let want: Vec<f64> = oracle.knn(&qp, 7).iter().map(|p| qp.dist_sq(p)).collect();
            assert_eq!(got, want, "kNN from {c:?}");
        }
        let rect = Rect::from_corners(Point::new([100.0, 100.0]), Point::new([700.0, 800.0]));
        assert_eq!(q.range_count(&rect), oracle.range_count(&rect));
        let mut got = q.range_list(&rect);
        let mut want = oracle.range_list(&rect);
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(q.bounding_box(), oracle.bounding_box());

        // Updates round-trip exactly too.
        let removed = q.batch_delete(&pts[..250]);
        assert_eq!(removed, oracle.batch_delete(&pts[..250]));
        q.batch_insert(&pts[..100]);
        oracle.batch_insert(&pts[..100]);
        assert_eq!(q.len(), oracle.len());
        q.check_invariants();
    }

    #[test]
    fn fractional_boxes_snap_conservatively() {
        let pts = grid_points(500);
        let q =
            Quantized::<ZdTree<2>>::build_with(&pts, None, QuantizeConfig::<ZdConfig>::default());
        let oracle = BruteForce::<f64, 2>::build_with(&pts, None, ());
        // A box with fractional corners must match exactly the stored (grid)
        // points inside it — 0.5 rounds must not leak points in or out.
        let rect = Rect::from_corners(Point::new([99.5, 100.5]), Point::new([700.5, 799.5]));
        assert_eq!(q.range_count(&rect), oracle.range_count(&rect));
        // A sliver between two grid lines contains nothing.
        let sliver = Rect::from_corners(Point::new([10.1, 0.0]), Point::new([10.9, 1000.0]));
        assert_eq!(q.range_count(&sliver), 0);
        assert!(q.range_list(&sliver).is_empty());
    }

    #[test]
    fn finer_scale_resolves_fixed_point_data() {
        // Data on a 1/8 grid: exact under scale = 8 (dyadic, so the products
        // and quotients are exact in f64).
        let pts: Vec<Point<f64, 2>> = (0..800)
            .map(|i| Point::new([(i % 40) as f64 / 8.0, (i % 29) as f64 / 8.0]))
            .collect();
        let cfg = QuantizeConfig::<SpacConfig> {
            scale: 8.0,
            ..Default::default()
        };
        let q = Quantized::<SpacHTree<2>>::build_with(&pts, None, cfg);
        let oracle = BruteForce::<f64, 2>::build_with(&pts, None, ());
        let probe = Point::new([2.5, 1.25]); // on the 1/8 grid
        let got: Vec<f64> = q.knn(&probe, 9).iter().map(|p| probe.dist_sq(p)).collect();
        let want: Vec<f64> = oracle
            .knn(&probe, 9)
            .iter()
            .map(|p| probe.dist_sq(p))
            .collect();
        assert_eq!(got, want);
        let rect = Rect::from_corners(Point::new([0.25, 0.25]), Point::new([3.75, 2.5]));
        assert_eq!(q.range_count(&rect), oracle.range_count(&rect));
        assert_eq!(q.scale(), 8.0);
        assert_eq!(q.inner().len(), pts.len());
    }

    #[test]
    #[should_panic(expected = "quantize scale must be positive")]
    fn rejects_nonpositive_scale() {
        let cfg = QuantizeConfig::<SpacConfig> {
            scale: 0.0,
            ..Default::default()
        };
        let _ = Quantized::<SpacHTree<2>>::build_with(&grid_points(10), None, cfg);
    }
}
