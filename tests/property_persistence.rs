//! Property tests for the persistent (path-copying) index backbones.
//!
//! Every registry family, `i64` and `f64`, runs one behavioural battery:
//! after `snapshot_dyn()`, random `batch_diff`s on the live index must leave
//! the snapshot's stored multiset, its kNN and range answers and its
//! invariants exactly as they were.
//!
//! The PaC-tree families also get a structural audit: after `snapshot()`,
//! **no mutation of the live tree may ever write a node the snapshot can
//! reach**. The audit is structural, not behavioural — it
//! walks the snapshot's `Arc`-held node graph, records every heap address
//! with a content fingerprint (child addresses included), and re-walks after
//! each live mutation: an in-place write to a shared node changes a
//! fingerprint; a spine that was copied instead leaves every recorded
//! address bit-identical. Answers are re-checked too, so the audit can't
//! pass vacuously.

use proptest::prelude::*;
use psi::registry::{self, BuildOptions, DynIndex};
use psi::{CpamHTree, SpacHTree};
use psi_geometry::{Coord, Point, PointI, Rect};
use psi_spac::PNode;
use psi_workloads as workloads;
use std::collections::BTreeMap;
use std::sync::Arc;

const MAX: i64 = 1 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// Shallow content fingerprint of one node. Interior fingerprints include
/// both child *addresses*, so re-pointing a shared node at new children is
/// caught as surely as rewriting its payload.
fn shallow_fp<const D: usize>(node: &PNode<D>) -> u64 {
    match node {
        PNode::Leaf {
            entries,
            sorted,
            bbox,
        } => {
            let mut h = fold(FNV_OFFSET, 1);
            h = fold(h, *sorted as u64);
            for (code, p) in entries {
                h = fold(h, *code);
                for c in p.coords {
                    h = fold(h, c as u64);
                }
            }
            for c in bbox.lo.coords.iter().chain(bbox.hi.coords.iter()) {
                h = fold(h, *c as u64);
            }
            h
        }
        PNode::Interior {
            left,
            right,
            pivot,
            size,
            bbox,
        } => {
            let mut h = fold(FNV_OFFSET, 2);
            h = fold(h, Arc::as_ptr(left) as usize as u64);
            h = fold(h, Arc::as_ptr(right) as usize as u64);
            h = fold(h, pivot.0);
            for c in pivot.1.coords {
                h = fold(h, c as u64);
            }
            h = fold(h, *size as u64);
            for c in bbox.lo.coords.iter().chain(bbox.hi.coords.iter()) {
                h = fold(h, *c as u64);
            }
            h
        }
    }
}

/// Record every `Arc`-held node reachable from `node`: heap address →
/// shallow fingerprint. (The root itself lives inline in the tree struct —
/// its address is not stable across moves — so the caller fingerprints it
/// separately.)
fn audit_reachable<const D: usize>(node: &PNode<D>, out: &mut BTreeMap<usize, u64>) {
    if let PNode::Interior { left, right, .. } = node {
        for child in [left, right] {
            let addr = Arc::as_ptr(child) as usize;
            if out.insert(addr, shallow_fp(child)).is_none() {
                audit_reachable(child, out);
            }
        }
    }
}

/// One frozen observation of a snapshot, to be re-verified after every
/// subsequent live mutation.
struct Frozen<S> {
    snap: S,
    root_fp: u64,
    nodes: BTreeMap<usize, u64>,
    points: Vec<PointI<2>>,
}

fn to_points(v: &[(i64, i64)]) -> Vec<PointI<2>> {
    v.iter().map(|&(x, y)| Point::new([x, y])).collect()
}

fn point_strategy() -> impl Strategy<Value = (i64, i64)> {
    (0..MAX, 0..MAX)
}

/// One step of the mutation workload: insert fresh points, or delete a
/// fraction-addressed slice of the current content.
#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<(i64, i64)>),
    DeleteExisting(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec(point_strategy(), 1..60).prop_map(Op::Insert),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::DeleteExisting(a, b)),
    ]
}

macro_rules! persistence_audit {
    ($tree:ty, $initial:expr, $ops:expr) => {{
        let initial = to_points($initial);
        let mut live = <$tree>::build(&initial);
        let mut contents = initial;
        let mut frozen: Vec<Frozen<$tree>> = Vec::new();

        for op in $ops {
            // Freeze a snapshot of the current state...
            let snap = live.snapshot();
            let mut nodes = BTreeMap::new();
            audit_reachable(snap.root(), &mut nodes);
            let mut points = snap.collect_points();
            points.sort_unstable();
            frozen.push(Frozen {
                root_fp: shallow_fp(snap.root()),
                nodes,
                points,
                snap,
            });

            // ...mutate the live tree...
            match op {
                Op::Insert(raw) => {
                    let pts = to_points(raw);
                    live.batch_insert(&pts);
                    contents.extend_from_slice(&pts);
                }
                Op::DeleteExisting(a, b) => {
                    if contents.is_empty() {
                        continue;
                    }
                    let start = (*a as usize * contents.len()) / 256;
                    let len = ((*b as usize * contents.len()) / 256).min(contents.len() - start);
                    let victims: Vec<PointI<2>> = contents[start..start + len].to_vec();
                    live.batch_delete(&victims);
                    contents.drain(start..start + len);
                }
            }
            live.check_invariants();

            // ...and audit EVERY snapshot taken so far: same addresses, same
            // fingerprints, same answers. A single in-place write to a
            // shared node fails here.
            for f in &frozen {
                prop_assert_eq!(
                    shallow_fp(f.snap.root()),
                    f.root_fp,
                    "mutation rewrote a snapshot's root"
                );
                let mut now = BTreeMap::new();
                audit_reachable(f.snap.root(), &mut now);
                prop_assert_eq!(
                    &now,
                    &f.nodes,
                    "mutation wrote a node reachable from an earlier snapshot"
                );
                let mut pts = f.snap.collect_points();
                pts.sort_unstable();
                prop_assert_eq!(&pts, &f.points, "a snapshot's answers drifted");
            }
        }
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cpam_snapshots_are_immune_to_live_mutations(
        initial in proptest::collection::vec(point_strategy(), 0..300),
        ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        persistence_audit!(CpamHTree<2>, &initial, &ops);
    }

    #[test]
    fn spac_snapshots_are_immune_to_live_mutations(
        initial in proptest::collection::vec(point_strategy(), 0..300),
        ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        persistence_audit!(SpacHTree<2>, &initial, &ops);
    }
}

/// What a snapshot stores and answers: its sorted multiset, then per fixed
/// query its kNN (k = 5), range count and sorted range list.
type Answers<T> = (
    Vec<Point<T, 2>>,
    Vec<Vec<Point<T, 2>>>,
    Vec<usize>,
    Vec<Vec<Point<T, 2>>>,
);

fn answers<T: Coord>(index: &dyn DynIndex<T, 2>, at: fn(i64) -> T) -> Answers<T> {
    index.check_invariants();
    let p = |x: i64, y: i64| Point::new([at(x), at(y)]);
    let queries = [
        p(0, 0),
        p(MAX / 2, MAX / 2),
        p(MAX, 0),
        p(MAX / 3, 2 * MAX / 3),
    ];
    let rects = [
        Rect::new(p(0, 0), p(MAX / 2, MAX / 2)),
        Rect::new(p(MAX / 4, MAX / 4), p(3 * MAX / 4, 3 * MAX / 4)),
        Rect::new(p(0, 0), p(MAX, MAX)),
    ];
    let mut all = Vec::new();
    index.extract_points(&mut all);
    all.sort();
    let lists = rects
        .iter()
        .map(|r| {
            let mut l = index.range_list(r);
            l.sort();
            l
        })
        .collect();
    (
        all,
        queries.iter().map(|q| index.knn(q, 5)).collect(),
        rects.iter().map(|r| index.range_count(r)).collect(),
        lists,
    )
}

/// One `batch_diff`: the fraction-addressed slice `a/256 .. (a+b)/256` of
/// the live contents to delete, and fresh points to insert.
type DiffOp = (u8, u8, Vec<(i64, i64)>);

/// Snapshot `family` before every `batch_diff` of `ops` and check, after
/// each, that no snapshot taken so far stores or answers anything new.
fn snapshot_immunity<T: Coord>(
    family: &str,
    live: &mut dyn DynIndex<T, 2>,
    mut contents: Vec<Point<T, 2>>,
    ops: &[DiffOp],
    at: fn(i64) -> T,
) {
    let mut frozen: Vec<(Box<dyn DynIndex<T, 2>>, Answers<T>)> = Vec::new();
    for (a, b, raw) in ops {
        let snap = live.snapshot_dyn();
        let seen = answers(&*snap, at);
        frozen.push((snap, seen));

        let start = (*a as usize * contents.len()) / 256;
        let len = ((*b as usize * contents.len()) / 256).min(contents.len() - start);
        let victims: Vec<Point<T, 2>> = contents.drain(start..start + len).collect();
        let fresh: Vec<Point<T, 2>> = raw
            .iter()
            .map(|&(x, y)| Point::new([at(x), at(y)]))
            .collect();
        assert_eq!(
            live.batch_diff(&victims, &fresh),
            victims.len(),
            "{}",
            family
        );
        contents.extend_from_slice(&fresh);
        assert_eq!(live.len(), contents.len(), "{}", family);

        for (snap, seen) in &frozen {
            assert!(
                answers(&**snap, at) == *seen,
                "{}: a live batch_diff changed a snapshot",
                family
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_family_snapshot_is_immune_to_live_batch_diffs(
        initial in proptest::collection::vec(point_strategy(), 0..300),
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), proptest::collection::vec(point_strategy(), 0..60)),
            1..8,
        ),
    ) {
        let opts = BuildOptions::default();
        let ints = to_points(&initial);
        for &family in registry::names() {
            let mut live = registry::create::<2>(family, &ints, &opts).unwrap();
            snapshot_immunity(family, &mut *live, ints.clone(), &ops, |x| x);
        }
        let floats: Vec<Point<f64, 2>> =
            ints.iter().map(|p| Point::new(p.coords.map(|c| c as f64))).collect();
        for &family in registry::float_names() {
            let mut live = registry::create_f64::<2>(family, &floats, &BuildOptions::default()).unwrap();
            snapshot_immunity(family, &mut *live, floats.clone(), &ops, |x| x as f64);
        }
    }
}

/// Structural sharing is real, not just correct: a small batch against a
/// large snapshotted tree copies a spine and shares essentially everything
/// else with the snapshot.
#[test]
fn small_batches_share_almost_all_nodes_with_the_snapshot() {
    let data = workloads::uniform::<2>(40_000, MAX, 3);
    let mut live = CpamHTree::<2>::build(&data);
    let snap = live.snapshot();
    let mut before = BTreeMap::new();
    audit_reachable(snap.root(), &mut before);

    // 8 scattered points copy at most 8 spines of O(log n) nodes each.
    live.batch_insert(&workloads::uniform::<2>(8, MAX, 4));

    let mut after = BTreeMap::new();
    audit_reachable(live.root(), &mut after);
    let shared = after.keys().filter(|a| before.contains_key(*a)).count();
    assert!(
        shared * 10 >= after.len() * 9,
        "expected >=90% of the live tree shared with the snapshot, got {shared}/{}",
        after.len()
    );

    // And the snapshot's own nodes are untouched, bit for bit.
    let mut now = BTreeMap::new();
    audit_reachable(snap.root(), &mut now);
    assert_eq!(now, before, "live mutation wrote into the snapshot");
    assert_eq!(snap.len(), 40_000);
    assert_eq!(live.len(), 40_008);
}
