//! Runtime index selection: the object-safe [`DynIndex`] façade plus a
//! string-keyed registry covering every index family in the paper.
//!
//! Compile-time generics ([`SpatialIndex`]) are the fast path; drivers, CLI
//! scenarios and benchmark sweeps instead want to pick an index *by name* at
//! runtime. [`with_family`] is the one table from a name to its `i64` family type: it
//! runs a [`FamilyVisitor`] monomorphised for the named family, so callers
//! that time a family's own code keep static dispatch. [`create`] is built on
//! it and instantiates any family behind a `Box<dyn DynIndex<i64, D>>`, and
//! [`create_f64`] does the same for the float-capable families ([`float_names`]:
//! every family but the R-tree, the SFC ones through the quantising adapter).
//!
//! ```
//! use psi::registry;
//! use psi::workloads;
//!
//! let pts = workloads::uniform::<2>(500, 10_000, 7);
//! let opts = registry::BuildOptions::default();
//! for name in registry::names() {
//!     let index = registry::create::<2>(name, &pts, &opts).unwrap();
//!     assert_eq!(index.len(), 500, "{name}");
//! }
//! ```

use crate::builder::LeafSized;
use crate::index::SpatialIndex;
use crate::oracle::BruteForce;
use crate::quantize::{QuantizeConfig, Quantized};
use psi_geometry::{Coord, KnnHeap, Point, PointI, Rect};
use psi_pkd::{PkdConfig, PkdTree};
use psi_porth::{POrthConfig, POrthTree};
use psi_rtree::RTree;
use psi_sfc::{HilbertCurve, MortonCurve, SfcCurve};
use psi_spac::{CpamConfig, CpamHTree, CpamZTree, SpacConfig, SpacHTree, SpacZTree};
use psi_zd::ZdTree;

/// Object-safe view of a [`SpatialIndex`]: everything the unified API offers
/// except compile-time construction, so heterogeneous indexes can live behind
/// one `Box<dyn DynIndex<T, D>>`.
///
/// Obtain one with [`boxed`] or the registry constructors; the adapter
/// delegates the derived queries to the index's (possibly overridden,
/// structurally smarter) trait methods.
pub trait DynIndex<T: Coord, const D: usize>: Send + Sync {
    /// The index family's display name ([`SpatialIndex::NAME`]).
    fn name(&self) -> &'static str;

    /// Number of stored points.
    fn len(&self) -> usize;

    /// `true` if no points are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a batch of points.
    fn batch_insert(&mut self, points: &[Point<T, D>]);

    /// Delete a batch of points; returns the number removed.
    fn batch_delete(&mut self, points: &[Point<T, D>]) -> usize;

    /// Deletions then insertions as one logical update.
    fn batch_diff(&mut self, delete: &[Point<T, D>], insert: &[Point<T, D>]) -> usize {
        let removed = self.batch_delete(delete);
        self.batch_insert(insert);
        removed
    }

    /// kNN primitive (see [`SpatialIndex::knn_into`]). Requires `k >= 1`.
    fn knn_into(&self, q: &Point<T, D>, k: usize, heap: &mut KnnHeap<T, D>);

    /// Range primitive (see [`SpatialIndex::range_visit`]).
    fn range_visit(&self, rect: &Rect<T, D>, visitor: &mut dyn FnMut(&Point<T, D>));

    /// The `k` nearest neighbours of `q`, closest first.
    fn knn(&self, q: &Point<T, D>, k: usize) -> Vec<Point<T, D>>;

    /// Number of stored points in the closed box.
    fn range_count(&self, rect: &Rect<T, D>) -> usize;

    /// The stored points in the closed box.
    fn range_list(&self, rect: &Rect<T, D>) -> Vec<Point<T, D>>;

    /// As `range_list`, but clearing and refilling a caller-owned arena
    /// (see [`SpatialIndex::range_list_into`]).
    fn range_list_into(&self, rect: &Rect<T, D>, out: &mut Vec<Point<T, D>>);

    /// Answer many kNN queries in parallel with per-worker heap reuse (see
    /// [`SpatialIndex::knn_batch`]).
    fn knn_batch(&self, queries: &[Point<T, D>], k: usize) -> Vec<Vec<Point<T, D>>>;

    /// Answer many range-count queries in parallel (see
    /// [`SpatialIndex::range_count_batch`]).
    fn range_count_batch(&self, rects: &[Rect<T, D>]) -> Vec<usize>;

    /// Answer many range-list queries in parallel with per-worker arena
    /// reuse (see [`SpatialIndex::range_list_batch`]).
    fn range_list_batch(&self, rects: &[Rect<T, D>]) -> Vec<Vec<Point<T, D>>>;

    /// Tight bounding box of the stored points.
    fn bounding_box(&self) -> Rect<T, D>;

    /// Check structural invariants; panics on violation.
    fn check_invariants(&self);

    /// An immutable O(1) snapshot sharing structure with `self` (see
    /// [`SpatialIndex::snapshot`]).
    fn snapshot_dyn(&self) -> Box<dyn DynIndex<T, D>>;

    /// Append every stored point to `out` (checkpoint serialization: the
    /// extracted build array recreates this index bit-identically through
    /// [`create`]). The default walks [`DynIndex::range_visit`] over the
    /// index's own [`DynIndex::bounding_box`], so it works for every family
    /// without per-family code.
    fn extract_points(&self, out: &mut Vec<Point<T, D>>) {
        if self.is_empty() {
            return;
        }
        out.reserve(self.len());
        self.range_visit(&self.bounding_box(), &mut |p| out.push(*p));
    }
}

/// Adapter giving any [`SpatialIndex`] the [`DynIndex`] vtable.
///
/// A deliberate indirection instead of a blanket `impl DynIndex for I`: a
/// blanket impl would put a second copy of every query method on every
/// concrete index, making plain `index.knn(..)` calls ambiguous wherever both
/// traits are in scope. Box through [`boxed`] (or the registry) instead.
struct DynAdapter<I>(I);

impl<T: Coord, const D: usize, I: SpatialIndex<T, D> + 'static> DynIndex<T, D> for DynAdapter<I> {
    fn name(&self) -> &'static str {
        I::NAME
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn batch_insert(&mut self, points: &[Point<T, D>]) {
        self.0.batch_insert(points)
    }
    fn batch_delete(&mut self, points: &[Point<T, D>]) -> usize {
        self.0.batch_delete(points)
    }
    fn knn_into(&self, q: &Point<T, D>, k: usize, heap: &mut KnnHeap<T, D>) {
        self.0.knn_into(q, k, heap)
    }
    fn range_visit(&self, rect: &Rect<T, D>, visitor: &mut dyn FnMut(&Point<T, D>)) {
        self.0.range_visit(rect, visitor)
    }
    fn knn(&self, q: &Point<T, D>, k: usize) -> Vec<Point<T, D>> {
        self.0.knn(q, k)
    }
    fn range_count(&self, rect: &Rect<T, D>) -> usize {
        self.0.range_count(rect)
    }
    fn range_list(&self, rect: &Rect<T, D>) -> Vec<Point<T, D>> {
        self.0.range_list(rect)
    }
    fn range_list_into(&self, rect: &Rect<T, D>, out: &mut Vec<Point<T, D>>) {
        self.0.range_list_into(rect, out)
    }
    fn knn_batch(&self, queries: &[Point<T, D>], k: usize) -> Vec<Vec<Point<T, D>>> {
        self.0.knn_batch(queries, k)
    }
    fn range_count_batch(&self, rects: &[Rect<T, D>]) -> Vec<usize> {
        self.0.range_count_batch(rects)
    }
    fn range_list_batch(&self, rects: &[Rect<T, D>]) -> Vec<Vec<Point<T, D>>> {
        self.0.range_list_batch(rects)
    }
    fn bounding_box(&self) -> Rect<T, D> {
        self.0.bounding_box()
    }
    fn check_invariants(&self) {
        self.0.check_invariants()
    }
    fn snapshot_dyn(&self) -> Box<dyn DynIndex<T, D>> {
        Box::new(DynAdapter(self.0.snapshot()))
    }
}

/// Erase a statically typed index into the runtime façade.
pub fn boxed<T, const D: usize, I>(index: I) -> Box<dyn DynIndex<T, D>>
where
    T: Coord,
    I: SpatialIndex<T, D> + 'static,
{
    Box::new(DynAdapter(index))
}

/// Construction options shared by every registry entry.
#[derive(Clone, Debug)]
pub struct BuildOptions<T: Coord, const D: usize> {
    /// Fixed root region; indexes that don't consume one ignore it.
    pub universe: Option<Rect<T, D>>,
    /// Leaf wrap threshold `φ` override; `None` keeps each index's paper
    /// default. Ignored by configless indexes (R-tree, brute force).
    pub leaf_size: Option<usize>,
    /// Fixed-point grid scale used when an integer-only family is built over
    /// `f64` coordinates through the [`Quantized`] adapter (`create_f64`):
    /// float coordinate `c` is stored as `round(c * scale)`. `None` means
    /// `1.0` (snap to integers). Ignored by natively float-capable families
    /// and by [`create`].
    pub quantize_scale: Option<f64>,
}

impl<T: Coord, const D: usize> Default for BuildOptions<T, D> {
    fn default() -> Self {
        BuildOptions {
            universe: None,
            leaf_size: None,
            quantize_scale: None,
        }
    }
}

impl<T: Coord, const D: usize> BuildOptions<T, D> {
    /// Options with a fixed universe.
    pub fn with_universe(universe: Rect<T, D>) -> Self {
        BuildOptions {
            universe: Some(universe),
            ..Self::default()
        }
    }

    /// Set the leaf wrap threshold.
    pub fn leaf_size(mut self, leaf_size: usize) -> Self {
        self.leaf_size = Some(leaf_size);
        self
    }

    /// Set the fixed-point scale for quantised float entries (see
    /// [`BuildOptions::quantize_scale`]).
    pub fn quantize_scale(mut self, scale: f64) -> Self {
        self.quantize_scale = Some(scale);
        self
    }
}

/// Failure modes of [`with_family`], [`create`] and [`create_f64`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// The name matches no registered index; the payload echoes it back.
    UnknownIndex(String),
    /// The family exists but does not support the requested coordinate type
    /// (the SFC-based indexes are integer-only).
    UnsupportedCoordinates(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownIndex(name) => {
                write!(f, "unknown index {name:?}; known: {}", names().join(", "))
            }
            RegistryError::UnsupportedCoordinates(name) => write!(
                f,
                "index {name:?} does not support float coordinates; \
                 float-capable (natively or via the quantising adapter): {}",
                FLOAT_NAMES.join(", ")
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

const ALL_NAMES: &[&str] = &[
    "p-orth",
    "spac-h",
    "spac-z",
    "cpam-h",
    "cpam-z",
    "pkd",
    "zd",
    "r-tree",
    "brute-force",
];

/// Families serving `f64` coordinates: the natively float-capable trees
/// (P-Orth, Pkd, brute force) plus every SFC family through the fixed-point
/// [`Quantized`] adapter. Only the R-tree stand-in stays integer-only.
const FLOAT_NAMES: &[&str] = &[
    "p-orth",
    "spac-h",
    "spac-z",
    "cpam-h",
    "cpam-z",
    "pkd",
    "zd",
    "brute-force",
];

/// Canonical names of every registered index, in the paper's table order.
pub fn names() -> &'static [&'static str] {
    ALL_NAMES
}

/// Canonical names of the families supporting `f64` coordinates.
pub fn float_names() -> &'static [&'static str] {
    FLOAT_NAMES
}

/// Normalise a user-provided index name: case-insensitive, `_`/space treated
/// as `-`, so "SPaC-H", "spac_h" and "spac h" all resolve.
fn canonical(name: &str) -> String {
    name.trim().to_ascii_lowercase().replace([' ', '_'], "-")
}

/// Resolve any accepted spelling to the canonical registry name without
/// building anything — the validation entry point for scenario files and CLI
/// flags that need to reject unknown families before generating data.
pub fn resolve_name(name: &str) -> Option<&'static str> {
    struct Name;
    impl FamilyVisitor<2> for Name {
        type Output = &'static str;
        fn visit<I: SpatialIndex<i64, 2>>(self, name: &'static str) -> &'static str {
            name
        }
    }
    // A name does not depend on the dimension; every family supports 2-D.
    with_family::<2, _>(name, Name).ok()
}

fn config_with_leaf<C: Default + LeafSized, T: Coord, const D: usize>(
    opts: &BuildOptions<T, D>,
) -> C {
    let mut cfg = C::default();
    if let Some(leaf) = opts.leaf_size {
        cfg.set_leaf_size(leaf);
    }
    cfg
}

/// A computation over one registry family as a concrete type. [`with_family`]
/// calls [`FamilyVisitor::visit`] monomorphised for the family a name
/// resolves to, so the visitor's body runs with static dispatch.
pub trait FamilyVisitor<const D: usize> {
    /// What a visit returns.
    type Output;

    /// Run over family `I`, whose canonical registry name is `name`.
    fn visit<I: SpatialIndex<i64, D, Config: LeafSized> + 'static>(
        self,
        name: &'static str,
    ) -> Self::Output;
}

/// The registry's one table from family name to `i64` family type: resolve `name` (a
/// canonical name or an alias, in any case, with `_` or a space for `-`) and
/// run `visitor` over that family.
pub fn with_family<const D: usize, V: FamilyVisitor<D>>(
    name: &str,
    visitor: V,
) -> Result<V::Output, RegistryError>
where
    HilbertCurve: SfcCurve<D>,
    MortonCurve: SfcCurve<D>,
{
    Ok(match canonical(name).as_str() {
        "p-orth" | "porth" | "orth" => visitor.visit::<POrthTree<i64, D>>("p-orth"),
        "spac-h" | "spach" => visitor.visit::<SpacHTree<D>>("spac-h"),
        "spac-z" | "spacz" => visitor.visit::<SpacZTree<D>>("spac-z"),
        "cpam-h" | "cpamh" => visitor.visit::<CpamHTree<D>>("cpam-h"),
        "cpam-z" | "cpamz" => visitor.visit::<CpamZTree<D>>("cpam-z"),
        "pkd" | "pkd-tree" => visitor.visit::<PkdTree<i64, D>>("pkd"),
        "zd" | "zd-tree" => visitor.visit::<ZdTree<D>>("zd"),
        "r-tree" | "rtree" | "boost-r" => visitor.visit::<RTree<D>>("r-tree"),
        "brute-force" | "bruteforce" | "oracle" => {
            visitor.visit::<BruteForce<i64, D>>("brute-force")
        }
        _ => return Err(RegistryError::UnknownIndex(name.to_string())),
    })
}

/// Instantiate an integer-coordinate index by name.
///
/// Accepted names are [`names`] plus the obvious aliases ("porth", "boost-r",
/// "spach", ...). `D` must be a dimension with SFC support (2 or 3).
pub fn create<const D: usize>(
    name: &str,
    points: &[PointI<D>],
    opts: &BuildOptions<i64, D>,
) -> Result<Box<dyn DynIndex<i64, D>>, RegistryError>
where
    HilbertCurve: SfcCurve<D>,
    MortonCurve: SfcCurve<D>,
{
    struct Create<'a, const D: usize> {
        points: &'a [PointI<D>],
        opts: &'a BuildOptions<i64, D>,
    }
    impl<const D: usize> FamilyVisitor<D> for Create<'_, D> {
        type Output = Box<dyn DynIndex<i64, D>>;
        fn visit<I: SpatialIndex<i64, D, Config: LeafSized> + 'static>(
            self,
            _name: &'static str,
        ) -> Self::Output {
            let cfg = config_with_leaf::<I::Config, i64, D>(self.opts);
            boxed(I::build_with(self.points, self.opts.universe.as_ref(), cfg))
        }
    }
    with_family(name, Create { points, opts })
}

/// Quantised config for an SFC family under `create_f64`: inner config with
/// the leaf override applied, scale from [`BuildOptions::quantize_scale`].
fn quantize_config<C: Default + LeafSized, const D: usize>(
    opts: &BuildOptions<f64, D>,
) -> QuantizeConfig<C> {
    let mut cfg = QuantizeConfig::<C>::default();
    if let Some(leaf) = opts.leaf_size {
        cfg.set_leaf_size(leaf);
    }
    if let Some(scale) = opts.quantize_scale {
        cfg.scale = scale;
    }
    cfg
}

/// Instantiate a float-coordinate index by name ([`float_names`]). The
/// natively float-capable families (P-Orth, Pkd, brute force) build directly;
/// the SFC families build through the fixed-point [`Quantized`] adapter
/// (grid scale [`BuildOptions::quantize_scale`], default `1.0` — see
/// [`crate::quantize`] for the exactness contract). The R-tree stand-in
/// remains integer-only and returns
/// [`RegistryError::UnsupportedCoordinates`].
pub fn create_f64<const D: usize>(
    name: &str,
    points: &[Point<f64, D>],
    opts: &BuildOptions<f64, D>,
) -> Result<Box<dyn DynIndex<f64, D>>, RegistryError>
where
    HilbertCurve: SfcCurve<D>,
    MortonCurve: SfcCurve<D>,
{
    let universe = opts.universe.as_ref();
    let resolved =
        resolve_name(name).ok_or_else(|| RegistryError::UnknownIndex(name.to_string()))?;
    Ok(match resolved {
        "p-orth" => boxed(POrthTree::<f64, D>::build_with(
            points,
            universe,
            config_with_leaf::<POrthConfig, _, D>(opts),
        )),
        "pkd" => boxed(PkdTree::<f64, D>::build_with(
            points,
            universe,
            config_with_leaf::<PkdConfig, _, D>(opts),
        )),
        "spac-h" => boxed(Quantized::<SpacHTree<D>>::build_with(
            points,
            universe,
            quantize_config::<SpacConfig, D>(opts),
        )),
        "spac-z" => boxed(Quantized::<SpacZTree<D>>::build_with(
            points,
            universe,
            quantize_config::<SpacConfig, D>(opts),
        )),
        "cpam-h" => boxed(Quantized::<CpamHTree<D>>::build_with(
            points,
            universe,
            quantize_config::<CpamConfig, D>(opts),
        )),
        "cpam-z" => boxed(Quantized::<CpamZTree<D>>::build_with(
            points,
            universe,
            quantize_config::<CpamConfig, D>(opts),
        )),
        "zd" => boxed(Quantized::<ZdTree<D>>::build_with(
            points,
            universe,
            quantize_config::<psi_zd::ZdConfig, D>(opts),
        )),
        "brute-force" => boxed(BruteForce::<f64, D>::build_with(points, universe, ())),
        _ => return Err(RegistryError::UnsupportedCoordinates(name.to_string())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reports the canonical name and the concrete type a visit reached.
    struct Which;

    impl<const D: usize> FamilyVisitor<D> for Which {
        type Output = (&'static str, &'static str);
        fn visit<I: SpatialIndex<i64, D>>(self, name: &'static str) -> Self::Output {
            (name, std::any::type_name::<I>())
        }
    }

    #[test]
    fn with_family_visits_every_name_and_alias() {
        let mut types = Vec::new();
        for &name in names() {
            let (visited, ty) = with_family::<2, _>(name, Which).unwrap();
            assert_eq!(visited, name);
            assert_eq!(with_family::<3, _>(name, Which).unwrap().0, name);
            types.push(ty);
        }
        types.sort_unstable();
        types.dedup();
        assert_eq!(types.len(), names().len(), "each family is its own type");

        let aliases = [
            ("porth", "p-orth"),
            ("orth", "p-orth"),
            ("P-Orth", "p-orth"),
            ("spac_h", "spac-h"),
            ("SPaC-H", "spac-h"),
            ("spach", "spac-h"),
            ("spac z", "spac-z"),
            ("spacz", "spac-z"),
            ("cpamh", "cpam-h"),
            ("CPAM_Z", "cpam-z"),
            ("cpamz", "cpam-z"),
            ("pkd-tree", "pkd"),
            ("zd-tree", "zd"),
            ("rtree", "r-tree"),
            ("boost-r", "r-tree"),
            ("bruteforce", "brute-force"),
            ("oracle", "brute-force"),
        ];
        for (alias, target) in aliases {
            assert_eq!(
                with_family::<2, _>(alias, Which),
                with_family::<2, _>(target, Which),
                "{alias}"
            );
        }

        for unknown in ["kd-tree", "", "p-orth-2"] {
            assert_eq!(
                with_family::<2, _>(unknown, Which),
                Err(RegistryError::UnknownIndex(unknown.to_string()))
            );
        }
    }
}
