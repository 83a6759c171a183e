//! SPaC-tree construction (Alg. 3).
//!
//! Two paths are provided, selected by [`SpacConfig::presort`]:
//!
//! * **HybridSort path** (SPaC, the paper's contribution): the first
//!   distribution pass of a parallel MSD integer sort (after DovetailSort)
//!   computes each point's SFC code as it writes the lightweight
//!   `⟨code, id⟩` pair, and only the pairs travel through the sort's later
//!   passes; the points themselves are fetched once at the end, when leaves
//!   are formed.
//! * **Presort path** (CPAM baseline): codes are computed for all points in a
//!   separate preprocessing pass, full `⟨code, point⟩` records are sorted
//!   (by the same integer sort), and the tree is built from the sorted
//!   records — the straightforward adaptation the paper measures as ~3×
//!   slower.

use crate::pac::{build_sorted_entries, PNode, SpacConfig};
use crate::Entry;
use psi_geometry::PointI;
use psi_parutils::stats::counters;
use psi_parutils::{hybrid_sort_keys, par_integer_sort};
use psi_sfc::SfcCurve;
use rayon::prelude::*;

/// Build a tree over `points` according to `cfg`.
pub fn build_tree<C: SfcCurve<D>, const D: usize>(
    points: &[PointI<D>],
    cfg: &SpacConfig,
) -> PNode<D> {
    if points.is_empty() {
        return PNode::empty();
    }
    let entries = if cfg.presort {
        presort_entries::<C, D>(points)
    } else {
        hybrid_entries::<C, D>(points)
    };
    build_sorted_entries(&entries, cfg)
}

/// Produce the sorted entry sequence with the paper's HybridSort: codes are
/// computed once, inside the sort's first distribution pass, into
/// `⟨code, id⟩` pairs, and only the pairs are moved until the final gather.
pub fn hybrid_entries<C: SfcCurve<D>, const D: usize>(points: &[PointI<D>]) -> Vec<Entry<D>> {
    let pairs = hybrid_sort_keys(points, |p| {
        counters::CODES_COMPUTED.bump();
        C::encode(p)
    });
    // Final gather: fetch each point by id (the extra cache misses the paper
    // accepts in exchange for a smaller sorting footprint).
    pairs
        .into_par_iter()
        .map(|(code, id)| (code, points[id as usize]))
        .collect()
}

/// Produce the sorted entry sequence the CPAM way: materialise full
/// `⟨code, point⟩` records first, then sort them.
pub fn presort_entries<C: SfcCurve<D>, const D: usize>(points: &[PointI<D>]) -> Vec<Entry<D>> {
    let mut entries: Vec<Entry<D>> = points
        .par_iter()
        .map(|p| {
            counters::CODES_COMPUTED.bump();
            (C::encode(p), *p)
        })
        .collect();
    par_integer_sort(&mut entries, |e| e.0, |e| (e.0, e.1));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_geometry::Point;
    use psi_sfc::{HilbertCurve, MortonCurve};
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    fn random_points(n: usize, seed: u64) -> Vec<PointI<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new([rng.gen_range(0..1_000_000), rng.gen_range(0..1_000_000)]))
            .collect()
    }

    #[test]
    fn hybrid_and_presort_produce_identical_entry_sequences() {
        let pts = random_points(10_000, 1);
        let a = hybrid_entries::<HilbertCurve, 2>(&pts);
        let b = presort_entries::<HilbertCurve, 2>(&pts);
        assert_eq!(a.len(), b.len());
        // Same multiset in the same code order (point ties may permute, so
        // compare the sorted sequences).
        let mut a2 = a.clone();
        let mut b2 = b.clone();
        a2.sort();
        b2.sort();
        assert_eq!(a2, b2);
        // And both are sorted by code.
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(b.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn hybrid_entries_equal_the_code_id_reference_on_varden() {
        let pts = psi_workloads::varden::<2>(200_000, psi_workloads::DEFAULT_MAX_COORD_2D, 42);
        let mut pairs: Vec<(u64, u32)> = pts
            .iter()
            .zip(0..)
            .map(|(p, i)| (<HilbertCurve as SfcCurve<2>>::encode(p), i))
            .collect();
        pairs.sort_unstable();
        let expect: Vec<Entry<2>> = pairs
            .iter()
            .map(|&(code, id)| (code, pts[id as usize]))
            .collect();
        assert_eq!(hybrid_entries::<HilbertCurve, 2>(&pts), expect);
    }

    #[test]
    fn build_both_modes_same_size_and_valid() {
        let pts = random_points(8_000, 2);
        let spac = build_tree::<MortonCurve, 2>(&pts, &SpacConfig::spac());
        let cpam = build_tree::<MortonCurve, 2>(&pts, &SpacConfig::cpam());
        assert_eq!(spac.size(), pts.len());
        assert_eq!(cpam.size(), pts.len());
        crate::pac::check_invariants::<MortonCurve, 2>(&spac, &SpacConfig::spac());
        crate::pac::check_invariants::<MortonCurve, 2>(&cpam, &SpacConfig::cpam());
    }

    #[test]
    fn build_empty_and_tiny() {
        let t = build_tree::<MortonCurve, 2>(&[], &SpacConfig::spac());
        assert_eq!(t.size(), 0);
        let pts = vec![Point::new([1, 2]), Point::new([3, 4])];
        let t = build_tree::<MortonCurve, 2>(&pts, &SpacConfig::spac());
        assert_eq!(t.size(), 2);
        assert!(t.is_leaf());
    }
}
