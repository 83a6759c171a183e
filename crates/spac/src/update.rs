//! Batch insertion and deletion on SPaC-trees (Alg. 4 and its deletion
//! counterpart).
//!
//! The batch is first encoded and sorted by SFC code (via the same HybridSort
//! machinery as construction), then recursively split at each interior pivot
//! and pushed down both subtrees in parallel; the two halves are recombined
//! with `Join`, which performs all rebalancing. Only children whose slice of
//! the batch is non-empty are visited: an untouched subtree is handed back to
//! `Join` as the same `Arc` handle and shared by the new parent, never copied
//! or re-wrapped, so with a snapshot live an update copies just the nodes on
//! the paths it reaches. The SPaC-specific behaviour is at the leaves: an
//! insertion that fits simply appends and marks the leaf unsorted (no
//! comparison work at all), and only when the leaf overflows is it rebuilt:
//! its entries and the batch slice are merged, sorted once and rebuilt into a
//! subtree (§C).

use crate::pac::{
    bbox_of_entries, build_sorted_entries, join, join2, sort_leaf, unshare, PNode, SpacConfig,
};
use crate::Entry;
use psi_geometry::PointI;
use psi_parutils::hybrid_sort_keys;
use psi_sfc::SfcCurve;
use rayon::join as par_join;
use std::sync::Arc;

/// Minimum number of batch entries below which the recursion stops forking.
const PAR_GRAIN: usize = 512;

/// Insert `points` into `tree`, returning the new root.
pub fn batch_insert<C: SfcCurve<D>, const D: usize>(
    tree: PNode<D>,
    points: &[PointI<D>],
    cfg: &SpacConfig,
) -> PNode<D> {
    // Encode + sort the batch: ⟨code, id⟩ pairs first (HybridSort), then gather
    // the points — identical to the construction path.
    let pairs = hybrid_sort_keys(points, |p| C::encode(p));
    let batch: Vec<Entry<D>> = pairs
        .into_iter()
        .map(|(code, id)| (code, points[id as usize]))
        .collect();
    unshare(insert_sorted(Arc::new(tree), &batch, cfg))
}

/// Delete `points` from `tree`, returning the new root. Multiset semantics:
/// each batch element removes at most one stored entry.
pub fn batch_delete<C: SfcCurve<D>, const D: usize>(
    tree: PNode<D>,
    points: &[PointI<D>],
    cfg: &SpacConfig,
) -> PNode<D> {
    let pairs = hybrid_sort_keys(points, |p| C::encode(p));
    let batch: Vec<Entry<D>> = pairs
        .into_iter()
        .map(|(code, id)| (code, points[id as usize]))
        .collect();
    unshare(delete_sorted(Arc::new(tree), &batch, cfg))
}

/// `InsertSorted` (Alg. 4): `batch` must be sorted by code. An empty batch
/// hands `tree` back untouched.
pub fn insert_sorted<const D: usize>(
    tree: Arc<PNode<D>>,
    batch: &[Entry<D>],
    cfg: &SpacConfig,
) -> Arc<PNode<D>> {
    if batch.is_empty() {
        return tree;
    }
    Arc::new(match unshare(tree) {
        PNode::Leaf {
            mut entries,
            mut bbox,
            ..
        } => {
            let total = entries.len() + batch.len();
            if total <= cfg.leaf_cap {
                // The fast path the whole design is built around: append and
                // mark unsorted (Alg. 4 lines 8–11). The CPAM baseline merges
                // instead, paying the ordering cost on every update.
                for e in batch {
                    bbox.expand(&e.1);
                }
                if cfg.sorted_leaves {
                    entries.extend_from_slice(batch);
                    sort_leaf(&mut entries);
                    PNode::Leaf {
                        entries,
                        sorted: true,
                        bbox,
                    }
                } else {
                    entries.extend_from_slice(batch);
                    PNode::Leaf {
                        entries,
                        sorted: false,
                        bbox,
                    }
                }
            } else {
                // Overflow (§C): merge the leaf with its batch slice, sort
                // once and rebuild the subtree.
                entries.extend_from_slice(batch);
                sort_leaf(&mut entries);
                build_sorted_entries(&entries, cfg)
            }
        }
        PNode::Interior {
            left, right, pivot, ..
        } => {
            // Split the batch at the pivot code (Alg. 4 line 14) and recurse in
            // parallel (line 15) into the children it reaches.
            let t = batch.partition_point(|e| e.0 < pivot.0);
            let (lbatch, rbatch) = batch.split_at(t);
            let (new_left, new_right) = if batch.len() >= PAR_GRAIN {
                par_join(
                    || insert_sorted(left, lbatch, cfg),
                    || insert_sorted(right, rbatch, cfg),
                )
            } else {
                (
                    insert_sorted(left, lbatch, cfg),
                    insert_sorted(right, rbatch, cfg),
                )
            };
            join(new_left, pivot, new_right, cfg)
        }
    })
}

/// Deletion counterpart of [`insert_sorted`]; `batch` must be sorted by code.
pub fn delete_sorted<const D: usize>(
    tree: Arc<PNode<D>>,
    batch: &[Entry<D>],
    cfg: &SpacConfig,
) -> Arc<PNode<D>> {
    if batch.is_empty() {
        return tree;
    }
    Arc::new(match unshare(tree) {
        PNode::Leaf {
            mut entries,
            sorted,
            ..
        } => {
            remove_multiset(&mut entries, batch);
            let bbox = bbox_of_entries(&entries);
            // Removal preserves relative order, so the sorted flag carries over.
            PNode::Leaf {
                entries,
                sorted,
                bbox,
            }
        }
        PNode::Interior {
            left, right, pivot, ..
        } => {
            // Three-way split of the batch around the pivot code. Entries with
            // a strictly smaller / larger code can only match in the left /
            // right subtree; entries whose code *equals* the pivot code may
            // match the pivot or stored duplicates on either side, so they are
            // handled separately after the parallel recursion.
            let t1 = batch.partition_point(|e| e.0 < pivot.0);
            let t2 = batch.partition_point(|e| e.0 <= pivot.0);
            let lbatch = &batch[..t1];
            let eqbatch = &batch[t1..t2];
            let rbatch = &batch[t2..];

            let (new_left, new_right) = if batch.len() >= PAR_GRAIN {
                par_join(
                    || delete_sorted(left, lbatch, cfg),
                    || delete_sorted(right, rbatch, cfg),
                )
            } else {
                (
                    delete_sorted(left, lbatch, cfg),
                    delete_sorted(right, rbatch, cfg),
                )
            };
            let mut tree = join(new_left, pivot, new_right, cfg);
            if !eqbatch.is_empty() {
                // Group the equal-code entries by point and delete each group
                // with a targeted search (a single root-to-leaf path unless the
                // data contains duplicate points).
                let mut i = 0;
                while i < eqbatch.len() {
                    let mut j = i + 1;
                    while j < eqbatch.len() && eqbatch[j].1 == eqbatch[i].1 {
                        j += 1;
                    }
                    let (t, _) = delete_matching(tree, &eqbatch[i], j - i, cfg);
                    tree = t;
                    i = j;
                }
            }
            tree
        }
    })
}

/// Remove up to `count` stored entries equal to `target` (code and point) from
/// the subtree, returning the new subtree and how many were removed. Only the
/// parts of the tree whose code range can contain `target.0` are visited;
/// every other subtree is handed back as the same handle.
fn delete_matching<const D: usize>(
    node: PNode<D>,
    target: &Entry<D>,
    count: usize,
    cfg: &SpacConfig,
) -> (PNode<D>, usize) {
    if count == 0 || node.size() == 0 {
        return (node, 0);
    }
    match node {
        PNode::Leaf {
            mut entries,
            sorted,
            ..
        } => {
            let mut removed = 0;
            entries.retain(|e| {
                if removed < count && e.0 == target.0 && e.1 == target.1 {
                    removed += 1;
                    false
                } else {
                    true
                }
            });
            let bbox = bbox_of_entries(&entries);
            (
                PNode::Leaf {
                    entries,
                    sorted,
                    bbox,
                },
                removed,
            )
        }
        PNode::Interior {
            left, right, pivot, ..
        } => {
            // The pivot first: when it is the match, neither side is visited.
            let pivot_matches = pivot.0 == target.0 && pivot.1 == target.1;
            let mut removed = pivot_matches as usize;
            let new_left = if removed < count && target.0 <= pivot.0 {
                let (l, r) = delete_matching(unshare(left), target, count - removed, cfg);
                removed += r;
                Arc::new(l)
            } else {
                left
            };
            let new_right = if removed < count && target.0 >= pivot.0 {
                let (r, c) = delete_matching(unshare(right), target, count - removed, cfg);
                removed += c;
                Arc::new(r)
            } else {
                right
            };
            let tree = if pivot_matches {
                join2(new_left, new_right, cfg)
            } else {
                join(new_left, pivot, new_right, cfg)
            };
            (tree, removed)
        }
    }
}

/// Remove from `entries` one occurrence of every entry in the sorted `batch`
/// (matching both code and point). `entries` may be unsorted.
fn remove_multiset<const D: usize>(entries: &mut Vec<Entry<D>>, batch: &[Entry<D>]) {
    if entries.is_empty() || batch.is_empty() {
        return;
    }
    // Track how many copies of each batch entry remain to be removed. Group the
    // batch by (code, point); a binary search per stored entry keeps this
    // O((|leaf| + |batch|) log |batch|).
    let mut sorted_batch: Vec<Entry<D>> = batch.to_vec();
    sorted_batch.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.lex_cmp(&b.1)));
    let mut remaining: Vec<(Entry<D>, usize)> = Vec::new();
    for e in &sorted_batch {
        match remaining.last_mut() {
            Some((prev, count)) if prev.0 == e.0 && prev.1 == e.1 => *count += 1,
            _ => remaining.push((*e, 1)),
        }
    }
    entries.retain(|e| {
        match remaining.binary_search_by(|(b, _)| b.0.cmp(&e.0).then_with(|| b.1.lex_cmp(&e.1))) {
            Ok(idx) => {
                if remaining[idx].1 > 0 {
                    remaining[idx].1 -= 1;
                    false // remove this stored entry
                } else {
                    true
                }
            }
            Err(_) => true,
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::sort_entries;
    use psi_geometry::Point;
    use psi_sfc::MortonCurve;

    fn entry(x: i64, y: i64) -> Entry<2> {
        let p = Point::new([x, y]);
        (<MortonCurve as SfcCurve<2>>::encode(&p), p)
    }

    #[test]
    fn remove_multiset_counts() {
        let mut stored = vec![entry(1, 1), entry(1, 1), entry(2, 2), entry(9, 9)];
        let mut batch = vec![entry(1, 1), entry(2, 2), entry(3, 3)];
        batch.sort();
        remove_multiset(&mut stored, &batch);
        assert_eq!(stored.len(), 2);
        assert!(stored.contains(&entry(1, 1)));
        assert!(stored.contains(&entry(9, 9)));
    }

    #[test]
    fn remove_multiset_same_code_different_point() {
        // Two different points can share a Morton code only if equal, so craft
        // entries with equal codes artificially to check point-level matching.
        let p1 = Point::new([5, 6]);
        let p2 = Point::new([6, 5]);
        let mut stored = vec![(42u64, p1), (42u64, p2)];
        let batch = vec![(42u64, p1)];
        remove_multiset(&mut stored, &batch);
        assert_eq!(stored, vec![(42u64, p2)]);
    }

    #[test]
    fn insert_sorted_into_empty() {
        let cfg = SpacConfig::spac();
        let mut batch: Vec<Entry<2>> = (0..100).map(|i| entry(i, i * 2)).collect();
        sort_entries(&mut batch);
        let tree = insert_sorted(Arc::new(PNode::empty()), &batch, &cfg);
        assert_eq!(tree.size(), 100);
        crate::pac::check_invariants::<MortonCurve, 2>(&tree, &cfg);
    }

    #[test]
    fn insert_marks_leaf_unsorted_in_spac_mode() {
        let cfg = SpacConfig::spac();
        let base: Vec<Entry<2>> = (0..10).map(|i| entry(i * 100, i * 100)).collect();
        let tree = build_sorted_entries(
            &{
                let mut b = base.clone();
                sort_entries(&mut b);
                b
            },
            &cfg,
        );
        let mut batch = vec![entry(5, 5)];
        sort_entries(&mut batch);
        let tree = insert_sorted(Arc::new(tree), &batch, &cfg);
        match &*tree {
            PNode::Leaf { sorted, .. } => assert!(!sorted),
            _ => panic!("11 entries must still be one leaf"),
        }
    }

    #[test]
    fn insert_keeps_leaf_sorted_in_cpam_mode() {
        let cfg = SpacConfig::cpam();
        let mut base: Vec<Entry<2>> = (0..10).map(|i| entry(i * 100, i * 100)).collect();
        sort_entries(&mut base);
        let tree = build_sorted_entries(&base, &cfg);
        let mut batch = vec![entry(5, 5)];
        sort_entries(&mut batch);
        let tree = insert_sorted(Arc::new(tree), &batch, &cfg);
        match &*tree {
            PNode::Leaf {
                sorted, entries, ..
            } => {
                assert!(*sorted);
                assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0));
            }
            _ => panic!("11 entries must still be one leaf"),
        }
    }

    #[test]
    fn delete_pivot_entry() {
        let cfg = SpacConfig::spac();
        let mut base: Vec<Entry<2>> = (0..500).map(|i| entry(i * 7 % 997, i * 13 % 997)).collect();
        sort_entries(&mut base);
        let tree = build_sorted_entries(&base, &cfg);
        // Find the root pivot and delete exactly that entry.
        let pivot = match &tree {
            PNode::Interior { pivot, .. } => *pivot,
            _ => panic!("500 entries should build an interior root"),
        };
        let tree = delete_sorted(Arc::new(tree), &[pivot], &cfg);
        assert_eq!(tree.size(), 499);
        crate::pac::check_invariants::<MortonCurve, 2>(&tree, &cfg);
    }
}
