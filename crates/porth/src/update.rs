//! Batch insertion and deletion for the P-Orth tree (Alg. 2 and its symmetric
//! deletion variant).
//!
//! Both push the batch down through [`for_each_orthant`], which splits it
//! stably into a node's `2^D` orthants and recurses into the children. As in
//! construction the work is sized to the batch: above [`SEQ_THRESHOLD`]
//! points the split is a parallel sieve and the orthants recurse in
//! parallel; below it the orthants recurse in turn, a fork costing more
//! than their work, and the split is a stable sort on the orthant index,
//! which allocates nothing for the handful of points that reach most nodes.
//! No rebalancing happens, as the shape depends only on the stored points:
//! an overflowing leaf is rebuilt, a subtree shrunk to `φ` is flattened.
//! Both recursions path-copy ([`cow::make_mut_slice`] copies a reached child
//! array only while a snapshot shares it); a reached leaf is rebuilt, never
//! edited, and orthants the batch misses stay shared.

use crate::build::{build_orth, make_internal, split_buckets};
use crate::node::{child_index, child_region, Node};
use crate::POrthConfig;
use psi_geometry::{Coord, LeafSoA, Point, Rect};
use psi_parutils::stats::counters;
use psi_parutils::{cow, sieve_by, SEQ_THRESHOLD};
use rayon::prelude::*;
use std::sync::Arc;

/// Insert `points` (reordered in place) into the subtree `node` covering `region`.
pub fn batch_insert<T: Coord, const D: usize>(
    node: &mut Node<T, D>,
    points: &mut [Point<T, D>],
    region: &Rect<T, D>,
    cfg: &POrthConfig,
    depth: usize,
) {
    if points.is_empty() {
        return;
    }
    match node {
        Node::Leaf {
            points: leaf_points,
        } => {
            // Rebuild the leaf together with the incoming batch (Alg. 2 line 4).
            let mut all = Vec::with_capacity(leaf_points.len() + points.len());
            leaf_points.collect_into(&mut all);
            all.extend_from_slice(points);
            *node = build_orth(&mut all, region, cfg, depth);
        }
        Node::Internal { children, .. } => {
            for_each_orthant(children, points, region, |child, part, reg| {
                batch_insert(child, part, reg, cfg, depth + 1);
                0
            });
            // Recount size and bbox (an internal node only grows here).
            *node = make_internal(std::mem::take(children), cfg);
        }
    }
}

/// Delete `points` (reordered in place) from the subtree; returns how many
/// stored points were removed (each batch element removes at most one match).
pub fn batch_delete<T: Coord, const D: usize>(
    node: &mut Node<T, D>,
    points: &mut [Point<T, D>],
    region: &Rect<T, D>,
    cfg: &POrthConfig,
) -> usize {
    if points.is_empty() {
        return 0;
    }
    match node {
        Node::Leaf {
            points: leaf_points,
        } => {
            // Unpack the SoA planes, run the sort-merge removal on the flat
            // form, and re-transpose; bbox is recomputed by the constructor.
            let mut stored = leaf_points.to_vec();
            let removed = remove_multiset(&mut stored, points);
            *leaf_points = LeafSoA::from_points(&stored);
            removed
        }
        Node::Internal { children, .. } => {
            let removed = for_each_orthant(children, points, region, |child, part, reg| {
                batch_delete(child, part, reg, cfg)
            });
            // Recount size and bbox, flattening a subtree that shrank within
            // the leaf wrap (the extra deletion step described in §3.2).
            *node = make_internal(std::mem::take(children), cfg);
            removed
        }
    }
}

/// Split `points` into the orthants of `region` and call `visit(child, part,
/// child_region)` on every child with its part of the batch (empty parts
/// return at once), returning the sum of the calls. Above [`SEQ_THRESHOLD`]
/// points the batch is sieved and the children recurse in parallel; below it
/// the batch is split by [`sort_into_orthants`] and they recurse in turn.
/// The child array is copied first only while a snapshot shares it.
fn for_each_orthant<T: Coord, const D: usize>(
    children: &mut Arc<[Node<T, D>]>,
    points: &mut [Point<T, D>],
    region: &Rect<T, D>,
    visit: impl Fn(&mut Node<T, D>, &mut [Point<T, D>], &Rect<T, D>) -> usize + Sync,
) -> usize {
    counters::POINTS_MOVED.add(points.len() as u64);
    let children = cow::make_mut_slice(children);
    let recurse = |(i, (child, part)): (usize, (&mut Node<T, D>, &mut [Point<T, D>]))| {
        visit(child, part, &child_region(region, i))
    };
    if points.len() > SEQ_THRESHOLD {
        let offsets = sieve_by(points, children.len(), |p| child_index(p, region));
        children
            .par_iter_mut()
            .zip(split_buckets(points, &offsets).into_par_iter())
            .enumerate()
            .map(recurse)
            .sum()
    } else {
        let parts = sort_into_orthants(points, region);
        children
            .iter_mut()
            .zip(parts)
            .enumerate()
            .map(recurse)
            .sum()
    }
}

/// Reorder `points` so each orthant of `region` is contiguous and yield the
/// `2^D` orthant parts in turn. The sort is stable, so the order is the one
/// [`sieve_by`] leaves; unlike the sieve it allocates nothing for the few
/// points that reach most nodes.
fn sort_into_orthants<'a, T: Coord, const D: usize>(
    points: &'a mut [Point<T, D>],
    region: &'a Rect<T, D>,
) -> impl Iterator<Item = &'a mut [Point<T, D>]> {
    points.sort_by_key(|p| child_index(p, region));
    let mut rest = points;
    (0..1 << D).map(move |i| {
        let len = rest.partition_point(|p| child_index(p, region) == i);
        let (part, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        part
    })
}

/// Remove from `stored` one occurrence of every point in `to_remove` (multiset
/// semantics), leaving `stored` in [`Point::lex_cmp`] order; returns the
/// number removed. Both are sorted in place and merged in one `retain` pass;
/// the sorts may be unstable, as `lex_cmp`-equal points are bit-identical.
fn remove_multiset<T: Coord, const D: usize>(
    stored: &mut Vec<Point<T, D>>,
    to_remove: &mut [Point<T, D>],
) -> usize {
    to_remove.sort_unstable_by(|a, b| a.lex_cmp(b));
    stored.sort_unstable_by(|a, b| a.lex_cmp(b));
    let before = stored.len();
    let mut j = 0usize;
    stored.retain(|p| {
        // skip removal candidates below p; one equal to p removes it
        while to_remove.get(j).is_some_and(|r| r.lex_cmp(p).is_lt()) {
            j += 1;
        }
        let hit = to_remove.get(j).is_some_and(|r| r.lex_cmp(p).is_eq());
        j += usize::from(hit);
        !hit
    });
    before - stored.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_geometry::PointI;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    fn p(x: i64, y: i64) -> PointI<2> {
        Point::new([x, y])
    }

    #[test]
    fn remove_multiset_respects_multiplicity() {
        let mut stored = vec![p(1, 1), p(1, 1), p(2, 2), p(3, 3)];
        let mut batch = vec![p(1, 1), p(4, 4), p(3, 3)];
        let removed = remove_multiset(&mut stored, &mut batch);
        assert_eq!(removed, 2);
        assert_eq!(stored, vec![p(1, 1), p(2, 2)]);
    }

    #[test]
    fn remove_multiset_empty_cases() {
        let mut stored: Vec<PointI<2>> = vec![];
        assert_eq!(remove_multiset(&mut stored, &mut [p(1, 1)]), 0);
        let mut stored = vec![p(1, 1)];
        assert_eq!(remove_multiset::<i64, 2>(&mut stored, &mut []), 0);
        assert_eq!(stored.len(), 1);
    }

    #[test]
    fn remove_more_copies_than_present() {
        let mut stored = vec![p(5, 5), p(5, 5)];
        let mut batch = vec![p(5, 5), p(5, 5), p(5, 5)];
        assert_eq!(remove_multiset(&mut stored, &mut batch), 2);
        assert!(stored.is_empty());
    }

    #[test]
    fn sort_split_matches_sieve_order_and_offsets() {
        let region = Rect::from_corners(p(0, 0), p(99, 99));
        let mut rng = StdRng::seed_from_u64(7);
        for n in (0..=64).chain([500, SEQ_THRESHOLD]) {
            // Few distinct coordinates, so orthants repeat and ties abound.
            let pts: Vec<PointI<2>> = (0..n)
                .map(|_| p(rng.gen_range(0..8i64) * 14, rng.gen_range(0..8i64) * 14))
                .collect();
            let mut sieved = pts.clone();
            let offsets = sieve_by(&mut sieved, 4, |q| child_index(q, &region));
            let mut sorted = pts;
            let lens: Vec<usize> = sort_into_orthants(&mut sorted, &region)
                .map(|part| part.len())
                .collect();
            let sieved_lens: Vec<usize> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
            assert_eq!(lens, sieved_lens, "n = {n}");
            assert_eq!(sorted, sieved, "n = {n}");
        }
    }
}
