//! Hilbert curve encoding.
//!
//! The Hilbert curve is the second SFC used by the paper (SPaC-H, CPAM-H).
//! Unlike the Morton curve, consecutive positions along a Hilbert curve are
//! always geometrically adjacent (unit L1 distance on the integer grid), which
//! is why the paper finds SPaC-H markedly faster than SPaC-Z for queries
//! (§5.1.3) at a small extra encoding cost.
//!
//! The encoder for 2-D and 3-D is a top-down finite-state automaton (Bially's
//! state-diagram method, IEEE Trans. Inf. Theory 1969): the curve's
//! orientation within the current cell is one of 4 (2-D) or 24 (3-D) states,
//! and each level maps a state and the point's child cell to the cell's
//! position along the curve and the next state. A compile-time table folds
//! several levels into one lookup — 4 bits per axis in 2-D, 2 in 3-D — and is
//! indexed straight from the point's Morton code, so a 2-D key is the Morton
//! interleave plus 8 dependent lookups.
//!
//! Skilling's transpose ("Programming the Hilbert curve", AIP 2004) is the
//! reference: it defines the curve for any dimension `D` and bit budget `b`,
//! encodes every other `D`, and is the oracle the tables are tested against.
//! The tests check that the two encoders agree bit for bit, that the one-level
//! tables re-learned from the reference equal the literals below, and the
//! curve's two defining properties: on a full `2^k`-sided grid the codes are a
//! bijection and consecutive codes are grid-adjacent.

use crate::morton::{morton2, morton3};
use crate::{bits_per_dim, morton::clamp_coord, SfcCurve};
use psi_geometry::PointI;

/// Marker type implementing [`SfcCurve`] with Hilbert codes.
#[derive(Default, Clone, Copy, Debug)]
pub struct HilbertCurve;

/// One level of the 2-D automaton: `H2[state][q] = (digit, next state)` for
/// the child cell `q = x_bit | y_bit << 1`, where `digit` is the cell's
/// position (0..4) along the curve. State 0 is the whole domain.
const H2: [[(u8, u8); 4]; 4] = [
    [(0, 1), (3, 2), (1, 0), (2, 0)],
    [(0, 0), (1, 1), (3, 3), (2, 1)],
    [(2, 2), (3, 0), (1, 2), (0, 3)],
    [(2, 3), (1, 3), (3, 1), (0, 2)],
];

/// One level of the 3-D automaton, as [`H2`] with `q = x | y << 1 | z << 2`.
/// States are numbered in breadth-first order of discovery from state 0.
#[rustfmt::skip]
const H3: [[(u8, u8); 8]; 24] = [
    [(0, 1), (7, 2), (3, 3), (4, 4), (1, 5), (6, 6), (2, 0), (5, 0)],
    [(0, 7), (3, 8), (1, 9), (2, 1), (7, 10), (4, 5), (6, 11), (5, 1)],
    [(4, 12), (7, 13), (5, 2), (6, 9), (3, 6), (0, 14), (2, 2), (1, 11)],
    [(6, 13), (7, 9), (5, 3), (4, 15), (1, 14), (0, 11), (2, 3), (3, 0)],
    [(0, 9), (1, 7), (3, 15), (2, 4), (7, 11), (6, 10), (4, 0), (5, 4)],
    [(0, 4), (3, 16), (7, 17), (4, 1), (1, 0), (2, 5), (6, 18), (5, 5)],
    [(4, 19), (7, 3), (3, 2), (0, 20), (5, 6), (6, 0), (2, 6), (1, 18)],
    [(0, 0), (1, 4), (7, 18), (6, 17), (3, 21), (2, 7), (4, 9), (5, 7)],
    [(6, 15), (5, 8), (1, 22), (2, 8), (7, 4), (4, 16), (0, 17), (3, 1)],
    [(0, 5), (7, 6), (1, 1), (6, 2), (3, 13), (4, 7), (2, 9), (5, 9)],
    [(4, 23), (5, 10), (3, 11), (2, 10), (7, 15), (6, 4), (0, 22), (1, 17)],
    [(4, 14), (3, 10), (5, 11), (2, 11), (7, 8), (0, 12), (6, 1), (1, 2)],
    [(2, 12), (1, 15), (5, 12), (6, 22), (3, 19), (0, 3), (4, 2), (7, 20)],
    [(6, 3), (7, 0), (1, 20), (0, 18), (5, 13), (4, 21), (2, 13), (3, 9)],
    [(2, 14), (3, 23), (5, 14), (4, 11), (1, 3), (0, 15), (6, 20), (7, 22)],
    [(6, 8), (1, 12), (5, 15), (2, 15), (7, 1), (0, 2), (4, 3), (3, 4)],
    [(6, 21), (5, 16), (7, 7), (4, 8), (1, 23), (2, 16), (0, 10), (3, 5)],
    [(4, 22), (5, 17), (7, 21), (6, 7), (3, 18), (2, 17), (0, 23), (1, 10)],
    [(4, 20), (3, 17), (7, 16), (0, 19), (5, 18), (2, 18), (6, 5), (1, 6)],
    [(2, 19), (1, 21), (3, 12), (0, 13), (5, 19), (6, 23), (4, 6), (7, 14)],
    [(2, 20), (3, 22), (1, 13), (0, 21), (5, 20), (4, 18), (6, 14), (7, 23)],
    [(6, 16), (1, 19), (7, 5), (0, 6), (5, 21), (2, 21), (4, 13), (3, 7)],
    [(2, 22), (5, 22), (1, 8), (6, 12), (3, 20), (4, 17), (0, 16), (7, 19)],
    [(2, 23), (5, 23), (3, 14), (4, 10), (1, 16), (6, 19), (0, 8), (7, 12)],
];

/// Levels of the 2-D curve one lookup of [`H2_TABLE`] advances.
const H2_STEP: u32 = 4;
/// Levels of the 3-D curve one lookup of [`H3_TABLE`] advances.
const H3_STEP: u32 = 2;

/// [`H2`] one level per lookup, for budgets not a multiple of [`H2_STEP`].
static H2_ONE: [u16; 4 << 2] = expand(&H2, 1);
/// [`H2`] folded to [`H2_STEP`] levels per lookup (2 KiB).
static H2_TABLE: [u16; 4 << (2 * H2_STEP)] = expand(&H2, H2_STEP);
/// [`H3`] one level per lookup.
static H3_ONE: [u16; 24 << 3] = expand(&H3, 1);
/// [`H3`] folded to [`H3_STEP`] levels per lookup (3 KiB).
static H3_TABLE: [u16; 24 << (3 * H3_STEP)] = expand(&H3, H3_STEP);

/// Fold `k` levels of a one-level automaton over `Q = 2^D` cells into one
/// table. With `w = D * k`, entry `state << w | m` is for the `k` levels whose
/// Morton-interleaved bits are `m` (top level highest); it holds the `w` code
/// bits of those levels in its low bits and the state after them above, i.e.
/// already shifted into place as the next index's high part.
const fn expand<const Q: usize, const S: usize, const N: usize>(
    step: &[[(u8, u8); Q]; S],
    k: u32,
) -> [u16; N] {
    let d = Q.trailing_zeros();
    let w = d * k;
    assert!(N == S << w && (S << w) <= 1 << 16);
    let mut table = [0u16; N];
    let mut i = 0;
    while i < N {
        let (mut state, m) = (i >> w, i & ((1 << w) - 1));
        let mut code = 0;
        let mut level = k;
        while level > 0 {
            level -= 1;
            let (digit, next) = step[state][(m >> (level * d)) & (Q - 1)];
            code = code << d | digit as usize;
            state = next as usize;
        }
        table[i] = (state << w | code) as u16;
        i += 1;
    }
    table
}

/// Run the automaton over the low `bits` levels of the Morton code `m` of a
/// `d`-dimensional point, top level first: the top `bits % k` levels one at a
/// time through `one`, the rest `k` at a time through `table` (both built by
/// [`expand`]).
#[inline(always)]
fn walk(m: u64, bits: u32, d: u32, k: u32, one: &[u16], table: &[u16]) -> u64 {
    let (mut key, mut state, mut level) = (0u64, 0usize, bits);
    let cell = (1usize << d) - 1;
    while level % k != 0 {
        level -= 1;
        let e = one[state << d | (m >> (level * d)) as usize & cell] as usize;
        key = key << d | (e & cell) as u64;
        state = e >> d;
    }
    let w = d * k;
    let mask = (1usize << w) - 1;
    let mut hi = state << w;
    while level > 0 {
        level -= k;
        let e = table[hi | (m >> (level * d)) as usize & mask] as usize;
        key = key << w | (e & mask) as u64;
        hi = e & !mask;
    }
    key
}

/// Hilbert key of a `D`-dimensional point from the low `bits` bits (at most
/// 32) of each coordinate, most significant level first. 2-D and 3-D keys
/// that fit a `u64` come from the automaton; the rest from
/// [`skilling_key`], which they equal bit for bit.
#[inline]
pub fn hilbert_key<const D: usize>(coords: [u32; D], bits: u32) -> u64 {
    debug_assert!(bits <= 32);
    match D {
        2 => walk(
            morton2(coords[0], coords[1]),
            bits,
            2,
            H2_STEP,
            &H2_ONE,
            &H2_TABLE,
        ),
        3 if bits <= 21 => walk(
            morton3(coords[0], coords[1], coords[2]),
            bits,
            3,
            H3_STEP,
            &H3_ONE,
            &H3_TABLE,
        ),
        _ => skilling_key(coords, bits),
    }
}

/// Reference Hilbert key: Skilling's transform and interleave. Defines the
/// curve; see [`hilbert_key`] for the fast path.
pub fn skilling_key<const D: usize>(coords: [u32; D], bits: u32) -> u64 {
    let mut x = coords;
    axes_to_transpose::<D>(&mut x, bits);
    transpose_to_key::<D>(&x, bits)
}

/// Skilling's "axes to transpose" in-place transform.
///
/// On input, `x[i]` holds the `bits`-bit coordinate along dimension `i`. On
/// output, the bits of the Hilbert index are distributed ("transposed") across
/// the words: bit `j` of the index (counting from the most significant) is bit
/// `bits - 1 - j / D` of `x[j % D]`.
pub fn axes_to_transpose<const D: usize>(x: &mut [u32; D], bits: u32) {
    if bits == 0 || D < 2 {
        return;
    }
    let m: u32 = 1 << (bits - 1);

    // Inverse undo of the Gray-code/rotation structure, one level at a time.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..D {
            if x[i] & q != 0 {
                x[0] ^= p; // invert low bits of the first axis
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }

    // Gray-encode across dimensions.
    for i in 1..D {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u32;
    let mut q = m;
    while q > 1 {
        if x[D - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }
}

/// Interleave a transposed Hilbert representation into a single `u64` key,
/// most significant bit plane first.
pub fn transpose_to_key<const D: usize>(x: &[u32; D], bits: u32) -> u64 {
    let mut key: u64 = 0;
    for bit in (0..bits).rev() {
        for xi in x.iter() {
            key = (key << 1) | (((xi >> bit) & 1) as u64);
        }
    }
    key
}

impl SfcCurve<2> for HilbertCurve {
    const NAME: &'static str = "hilbert";

    #[inline]
    fn encode(p: &PointI<2>) -> u64 {
        let b = bits_per_dim(2);
        let x = clamp_coord(p.coords[0], b);
        let y = clamp_coord(p.coords[1], b);
        hilbert_key::<2>([x, y], b)
    }
}

impl SfcCurve<3> for HilbertCurve {
    const NAME: &'static str = "hilbert";

    #[inline]
    fn encode(p: &PointI<3>) -> u64 {
        let b = bits_per_dim(3);
        let x = clamp_coord(p.coords[0], b);
        let y = clamp_coord(p.coords[1], b);
        let z = clamp_coord(p.coords[2], b);
        hilbert_key::<3>([x, y, z], b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// Enumerate every point of a `side x side` grid (2-D), sort by Hilbert
    /// key, and check the two defining properties: the keys are all distinct
    /// (bijection) and consecutive points along the curve are grid-adjacent.
    fn check_grid_2d(k: u32, bits: u32) {
        let side = 1i64 << k;
        let mut pts: Vec<(u64, i64, i64)> = Vec::new();
        for x in 0..side {
            for y in 0..side {
                let key = hilbert_key::<2>([x as u32, y as u32], bits);
                pts.push((key, x, y));
            }
        }
        let keys: HashSet<u64> = pts.iter().map(|p| p.0).collect();
        assert_eq!(keys.len(), pts.len(), "Hilbert keys must be distinct");
        pts.sort();
        for w in pts.windows(2) {
            let (_, x0, y0) = w[0];
            let (_, x1, y1) = w[1];
            let l1 = (x1 - x0).abs() + (y1 - y0).abs();
            assert_eq!(
                l1, 1,
                "consecutive Hilbert positions must be grid-adjacent: ({x0},{y0}) -> ({x1},{y1})"
            );
        }
    }

    fn check_grid_3d(k: u32, bits: u32) {
        let side = 1i64 << k;
        let mut pts: Vec<(u64, [i64; 3])> = Vec::new();
        for x in 0..side {
            for y in 0..side {
                for z in 0..side {
                    let key = hilbert_key::<3>([x as u32, y as u32, z as u32], bits);
                    pts.push((key, [x, y, z]));
                }
            }
        }
        let keys: HashSet<u64> = pts.iter().map(|p| p.0).collect();
        assert_eq!(keys.len(), pts.len());
        pts.sort();
        for w in pts.windows(2) {
            let a = w[0].1;
            let b = w[1].1;
            let l1: i64 = (0..3).map(|d| (a[d] - b[d]).abs()).sum();
            assert_eq!(l1, 1, "consecutive 3-D Hilbert positions must be adjacent");
        }
    }

    /// Small deterministic generator (splitmix64) for the equivalence tests.
    fn random_words(seed: u64) -> impl Iterator<Item = u32> {
        let mut s = seed;
        std::iter::repeat_with(move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u32
        })
    }

    /// The `2^D` corners of the `bits`-bit grid, plus those of the full
    /// `u32` range (whose bits above the budget must be ignored).
    fn corners<const D: usize>(bits: u32) -> Vec<[u32; D]> {
        let top = ((1u64 << bits) - 1) as u32;
        let mut out = Vec::new();
        for hi in [top, u32::MAX] {
            for mask in 0..1usize << D {
                out.push(std::array::from_fn(
                    |i| if mask >> i & 1 == 1 { hi } else { 0 },
                ));
            }
        }
        out
    }

    fn assert_matches_reference<const D: usize>(
        points: impl IntoIterator<Item = [u32; D]>,
        bits: u32,
    ) {
        for c in points {
            assert_eq!(
                hilbert_key::<D>(c, bits),
                skilling_key::<D>(c, bits),
                "{D}-D key of {c:?} at {bits} bits"
            );
        }
    }

    #[test]
    fn table_matches_reference_2d_every_budget() {
        let mut words = random_words(1);
        for bits in 1..=32 {
            let random: Vec<[u32; 2]> = (0..2_000)
                .map(|_| [words.next().unwrap(), words.next().unwrap()])
                .collect();
            assert_matches_reference::<2>(random, bits);
            assert_matches_reference::<2>(corners::<2>(bits), bits);
        }
        assert_eq!(hilbert_key::<2>([7, 7], 0), 0);
    }

    #[test]
    fn table_matches_reference_on_exhaustive_2d_grid() {
        let grid = (0..256u32).flat_map(|x| (0..256u32).map(move |y| [x, y]));
        assert_matches_reference::<2>(grid, 8);
    }

    #[test]
    fn table_matches_reference_3d() {
        let mut words = random_words(2);
        let mut random = |n: usize| -> Vec<[u32; 3]> {
            (0..n)
                .map(|_| std::array::from_fn(|_| words.next().unwrap()))
                .collect()
        };
        assert_matches_reference::<3>(random(20_000), 21);
        assert_matches_reference::<3>(corners::<3>(21), 21);
        for bits in 1..=21 {
            assert_matches_reference::<3>(random(500), bits);
            assert_matches_reference::<3>(corners::<3>(bits), bits);
        }
    }

    /// Re-learn the one-level automaton of the reference curve at `bits`
    /// levels: a state is identified by the digit it gives each child cell,
    /// and states are numbered breadth-first from the whole domain.
    fn learn<const D: usize>(bits: u32) -> Vec<Vec<(u8, u8)>> {
        let cells = 1usize << D;
        // Digits of the children of the cell reached through `path`.
        let digits = |path: &[usize]| -> Vec<u8> {
            let level = path.len() as u32;
            (0..cells)
                .map(|q| {
                    let mut c = [0u32; D];
                    for (l, &cell) in path.iter().chain([q].iter()).enumerate() {
                        for (i, ci) in c.iter_mut().enumerate() {
                            *ci |= ((cell >> i & 1) as u32) << (bits - 1 - l as u32);
                        }
                    }
                    let key = skilling_key::<D>(c, bits);
                    (key >> (D as u32 * (bits - 1 - level)) & (cells as u64 - 1)) as u8
                })
                .collect()
        };
        let (mut sigs, mut paths) = (vec![digits(&[])], vec![Vec::new()]);
        let mut table = Vec::new();
        let mut s = 0;
        while s < sigs.len() {
            let mut row = Vec::new();
            for q in 0..cells {
                let mut path = paths[s].clone();
                path.push(q);
                assert!(
                    path.len() < bits as usize,
                    "{bits} levels are too few to learn from"
                );
                let sig = digits(&path);
                let next = match sigs.iter().position(|x| *x == sig) {
                    Some(n) => n,
                    None => {
                        sigs.push(sig);
                        paths.push(path);
                        sigs.len() - 1
                    }
                };
                row.push((sigs[s][q], next as u8));
            }
            table.push(row);
            s += 1;
        }
        table
    }

    #[test]
    fn one_level_tables_rederive_from_reference() {
        for bits in 4..=8 {
            assert_eq!(
                learn::<2>(bits),
                H2.map(|row| row.to_vec()).to_vec(),
                "2-D at {bits} bits"
            );
        }
        for bits in 8..=10 {
            assert_eq!(
                learn::<3>(bits),
                H3.map(|row| row.to_vec()).to_vec(),
                "3-D at {bits} bits"
            );
        }
    }

    #[test]
    fn hilbert_2d_adjacency_small_orders() {
        // Curve order equals the grid order: the canonical definition.
        check_grid_2d(1, 1);
        check_grid_2d(2, 2);
        check_grid_2d(3, 3);
        check_grid_2d(4, 4);
    }

    #[test]
    fn hilbert_2d_adjacency_embedded_in_larger_domain() {
        // The paper encodes with a fixed 32-bit budget regardless of the data
        // extent; the origin-anchored sub-grid must still be one contiguous,
        // adjacent run of the big curve.
        check_grid_2d(3, 8);
        check_grid_2d(4, 16);
    }

    #[test]
    fn hilbert_3d_adjacency() {
        check_grid_3d(1, 1);
        check_grid_3d(2, 2);
        check_grid_3d(3, 3);
    }

    #[test]
    fn hilbert_3d_adjacency_embedded() {
        check_grid_3d(2, 7);
    }

    #[test]
    fn origin_is_curve_start() {
        assert_eq!(hilbert_key::<2>([0, 0], 32), 0);
        assert_eq!(hilbert_key::<3>([0, 0, 0], 21), 0);
    }

    #[test]
    fn full_encoder_matches_raw_key() {
        let p = PointI::<2>::new([123_456_789, 987_654_321]);
        assert_eq!(
            <HilbertCurve as SfcCurve<2>>::encode(&p),
            hilbert_key::<2>([123_456_789, 987_654_321], 32)
        );
    }

    #[test]
    fn out_of_range_coordinates_clamp_deterministically() {
        let p_neg = PointI::<2>::new([-5, 7]);
        let p_zero = PointI::<2>::new([0, 7]);
        assert_eq!(
            <HilbertCurve as SfcCurve<2>>::encode(&p_neg),
            <HilbertCurve as SfcCurve<2>>::encode(&p_zero)
        );
    }

    proptest! {
        /// Distinct points in the supported domain get distinct keys (encode is
        /// injective at full precision).
        #[test]
        fn injective_2d(x1 in 0u32.., y1 in 0u32.., x2 in 0u32.., y2 in 0u32..) {
            prop_assume!((x1, y1) != (x2, y2));
            prop_assert_ne!(hilbert_key::<2>([x1, y1], 32), hilbert_key::<2>([x2, y2], 32));
        }

        #[test]
        fn injective_3d(
            a in 0u32..(1 << 21), b in 0u32..(1 << 21), c in 0u32..(1 << 21),
            d in 0u32..(1 << 21), e in 0u32..(1 << 21), f in 0u32..(1 << 21),
        ) {
            prop_assume!((a, b, c) != (d, e, f));
            prop_assert_ne!(
                hilbert_key::<3>([a, b, c], 21),
                hilbert_key::<3>([d, e, f], 21)
            );
        }

        /// The first quadrant visited (points in the low half of both axes,
        /// which contains the curve start at the origin) always precedes the
        /// diagonal quadrant's points.
        #[test]
        fn first_quadrant_precedes_diagonal(
            x1 in 0u32..(1 << 31), y1 in 0u32..(1 << 31),
            x2 in (1u32 << 31).., y2 in (1u32 << 31)..,
        ) {
            prop_assert!(hilbert_key::<2>([x1, y1], 32) < hilbert_key::<2>([x2, y2], 32));
        }
    }
}
