//! Batch insertion and deletion for the P-Orth tree (Alg. 2 and its symmetric
//! deletion variant).
//!
//! Updates reuse the construction machinery: the batch is sieved into the
//! orthants of the current node and the orthants are processed recursively in
//! parallel. No rebalancing ever happens — the shape of an Orth-tree depends
//! only on which points it stores — so the only structural maintenance is
//! re-wrapping leaves (rebuilding a leaf that overflows `φ` on insertion, and
//! flattening a subtree that shrinks to at most `φ` points on deletion).
//!
//! Both recursions path-copy: an internal node the batch reaches takes its
//! child array through [`cow::make_mut_slice`], which copies the array only
//! while a snapshot shares it; orthants the batch misses return at once and
//! stay shared, and a reached leaf is replaced by a rebuilt one, never edited.

use crate::build::{build_orth, make_internal};
use crate::node::{child_index, child_region, Node};
use crate::POrthConfig;
use psi_geometry::{Coord, Point, Rect};
use psi_parutils::stats::counters;
use psi_parutils::{cow, sieve_by};
use rayon::prelude::*;

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
        Node::Internal {
            children,
            bbox,
            size,
        } => {
            // Sieve the batch into the 2^D orthants of this node and recurse in
            // parallel (one level per round; the λ-level fused variant is used
            // for construction, where it matters most).
            let fanout = 1usize << D;
            let offsets = sieve_by(points, fanout, |p| child_index(p, region));
            counters::POINTS_MOVED.add(points.len() as u64);

            let mut slices: Vec<&mut [Point<T, D>]> = Vec::with_capacity(fanout);
            let mut rest = points;
            for w in offsets.windows(2) {
                let (head, tail) = rest.split_at_mut(w[1] - w[0]);
                slices.push(head);
                rest = tail;
            }

            cow::make_mut_slice(children)
                .par_iter_mut()
                .zip(slices.into_par_iter())
                .enumerate()
                .for_each(|(i, (child, slice))| {
                    batch_insert(child, slice, &child_region(region, i), cfg, depth + 1);
                });

            *size = children.iter().map(|c| c.size()).sum();
            let mut new_bbox = Rect::empty();
            for c in children.iter() {
                new_bbox = new_bbox.merged(c.bbox());
            }
            *bbox = new_bbox;
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
            *leaf_points = psi_geometry::LeafSoA::from_points(&stored);
            removed
        }
        Node::Internal {
            children,
            bbox,
            size,
        } => {
            let fanout = 1usize << D;
            let offsets = sieve_by(points, fanout, |p| child_index(p, region));
            counters::POINTS_MOVED.add(points.len() as u64);

            let mut slices: Vec<&mut [Point<T, D>]> = Vec::with_capacity(fanout);
            let mut rest = points;
            for w in offsets.windows(2) {
                let (head, tail) = rest.split_at_mut(w[1] - w[0]);
                slices.push(head);
                rest = tail;
            }

            let removed: usize = cow::make_mut_slice(children)
                .par_iter_mut()
                .zip(slices.into_par_iter())
                .enumerate()
                .map(|(i, (child, slice))| {
                    batch_delete(child, slice, &child_region(region, i), cfg)
                })
                .sum();

            *size -= removed;
            let mut new_bbox = Rect::empty();
            for c in children.iter() {
                new_bbox = new_bbox.merged(c.bbox());
            }
            *bbox = new_bbox;

            // Flatten ancestors whose subtree shrank within the leaf wrap
            // (the extra deletion step described in §3.2).
            if *size <= cfg.leaf_cap {
                let children = std::mem::take(children);
                *node = make_internal(children, cfg);
            }
            removed
        }
    }
}

/// Remove from `stored` one occurrence of every point in `to_remove` (multiset
/// semantics); returns the number of removals. Both slices are small compared
/// to the tree (a leaf and its share of the batch), so an O((a+b) log(a+b))
/// sort-merge is plenty.
fn remove_multiset<T: Coord, const D: usize>(
    stored: &mut Vec<Point<T, D>>,
    to_remove: &mut [Point<T, D>],
) -> usize {
    if stored.is_empty() || to_remove.is_empty() {
        return 0;
    }
    to_remove.sort_by(|a, b| a.lex_cmp(b));
    let mut kept = Vec::with_capacity(stored.len());
    let mut removed = 0usize;

    // Sort the stored points as well so a single merge pass suffices.
    stored.sort_by(|a, b| a.lex_cmp(b));
    let mut j = 0usize;
    for p in stored.iter() {
        // advance j past removal candidates smaller than p
        while j < to_remove.len() && to_remove[j].lex_cmp(p) == std::cmp::Ordering::Less {
            j += 1;
        }
        if j < to_remove.len() && to_remove[j].lex_cmp(p) == std::cmp::Ordering::Equal {
            j += 1;
            removed += 1;
        } else {
            kept.push(*p);
        }
    }
    *stored = kept;
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_geometry::PointI;

    fn p(x: i64, y: i64) -> PointI<2> {
        Point::new([x, y])
    }

    #[test]
    fn remove_multiset_respects_multiplicity() {
        let mut stored = vec![p(1, 1), p(1, 1), p(2, 2), p(3, 3)];
        let mut batch = vec![p(1, 1), p(4, 4), p(3, 3)];
        let removed = remove_multiset(&mut stored, &mut batch);
        assert_eq!(removed, 2);
        stored.sort();
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
}
