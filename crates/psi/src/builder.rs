//! The fluent builder over [`SpatialIndex::build_with`].
//!
//! ```
//! use psi::{PsiBuilder, SpacHTree, POrthTree};
//! use psi::workloads;
//!
//! let pts = workloads::uniform::<2>(1_000, 10_000, 1);
//! let universe = workloads::universe::<2>(10_000);
//!
//! // The ablation knobs of the paper are reachable through one chain:
//! let spac = PsiBuilder::<SpacHTree<2>>::new()
//!     .universe(universe)
//!     .leaf_size(32)
//!     .build(&pts);
//! assert_eq!(spac.len(), 1_000);
//!
//! // Per-index config structs slot into the same chain:
//! let porth = PsiBuilder::<POrthTree<2>>::new()
//!     .universe(universe)
//!     .configure(|cfg| cfg.skeleton_levels = 2)
//!     .build(&pts);
//! assert_eq!(porth.len(), 1_000);
//! ```

use crate::index::SpatialIndex;
use psi_geometry::{Coord, Point, Rect};

/// Configs exposing the leaf wrap threshold `φ` — the one knob every tree in
/// the paper shares — so [`PsiBuilder::leaf_size`] works uniformly.
pub trait LeafSized {
    fn set_leaf_size(&mut self, leaf_size: usize);
}

/// The config of the configless families (R-tree, brute force): they have no
/// leaf threshold, so the override is ignored, as [`crate::BuildOptions`]
/// documents.
impl LeafSized for () {
    fn set_leaf_size(&mut self, _leaf_size: usize) {}
}

impl LeafSized for psi_porth::POrthConfig {
    fn set_leaf_size(&mut self, leaf_size: usize) {
        self.leaf_cap = leaf_size;
    }
}

impl LeafSized for psi_pkd::PkdConfig {
    fn set_leaf_size(&mut self, leaf_size: usize) {
        self.leaf_cap = leaf_size;
    }
}

impl LeafSized for psi_spac::SpacConfig {
    fn set_leaf_size(&mut self, leaf_size: usize) {
        self.leaf_cap = leaf_size;
    }
}

impl LeafSized for psi_spac::CpamConfig {
    fn set_leaf_size(&mut self, leaf_size: usize) {
        self.0.leaf_cap = leaf_size;
    }
}

impl LeafSized for psi_zd::ZdConfig {
    fn set_leaf_size(&mut self, leaf_size: usize) {
        self.leaf_cap = leaf_size;
    }
}

/// Fluent construction of any [`SpatialIndex`].
///
/// `T` and `D` default to the paper's standard setting (`i64`, 2-D), so the
/// common case is just `PsiBuilder::<SpacHTree<2>>::new()`; float or 3-D
/// indexes spell out all three parameters
/// (`PsiBuilder::<POrthTree3, i64, 3>::new()`). Equivalent shorthand:
/// `SpacHTree::<2>::builder()` via [`SpatialIndex::builder`].
pub struct PsiBuilder<I, T: Coord = i64, const D: usize = 2>
where
    I: SpatialIndex<T, D>,
{
    universe: Option<Rect<T, D>>,
    cfg: I::Config,
}

impl<I, T: Coord, const D: usize> PsiBuilder<I, T, D>
where
    I: SpatialIndex<T, D>,
{
    /// Start from the index's default (paper) configuration and no universe.
    pub fn new() -> Self {
        PsiBuilder {
            universe: None,
            cfg: I::Config::default(),
        }
    }

    /// Fix the root region / data domain. Indexes that don't consume a
    /// universe ignore it.
    pub fn universe(mut self, universe: Rect<T, D>) -> Self {
        self.universe = Some(universe);
        self
    }

    /// Replace the whole configuration.
    pub fn config(mut self, cfg: I::Config) -> Self {
        self.cfg = cfg;
        self
    }

    /// Tweak individual configuration fields in place.
    pub fn configure(mut self, f: impl FnOnce(&mut I::Config)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Set the leaf wrap threshold `φ` (available for every config that has
    /// one; the R-tree's fan-out is fixed by `MAX_ENTRIES`).
    pub fn leaf_size(mut self, leaf_size: usize) -> Self
    where
        I::Config: LeafSized,
    {
        self.cfg.set_leaf_size(leaf_size);
        self
    }

    /// Build the index.
    pub fn build(self, points: &[Point<T, D>]) -> I {
        I::build_with(points, self.universe.as_ref(), self.cfg)
    }
}

impl<I, T: Coord, const D: usize> Default for PsiBuilder<I, T, D>
where
    I: SpatialIndex<T, D>,
{
    fn default() -> Self {
        Self::new()
    }
}
