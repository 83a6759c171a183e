//! The coordinate abstraction.
//!
//! Every spatial index in the workspace is generic over the coordinate type
//! through the [`Coord`] trait. Two implementations are provided:
//!
//! * `i64` — the paper's evaluation uses 64-bit integer coordinates in
//!   `[0, 10^9]`; squared distances are accumulated in `i128` so they are exact,
//! * `f64` — supported by the P-Orth tree, which (unlike the SFC-based indexes)
//!   places no restriction on the coordinate domain (§3, "Applicability").

use std::fmt::Debug;

/// A scalar coordinate.
///
/// The associated [`Coord::Dist`] type holds squared distances; it is wide
/// enough that `(a - b)^2` summed over `D <= 8` dimensions never overflows for
/// the supported coordinate ranges.
pub trait Coord: Copy + Clone + PartialOrd + PartialEq + Debug + Send + Sync + 'static {
    /// Accumulator type for squared distances.
    type Dist: Copy + Clone + PartialOrd + Debug + Send + Sync + 'static;

    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Smallest representable value (used to seed bounding-box computations).
    const MIN_VALUE: Self;
    /// Largest representable value.
    const MAX_VALUE: Self;

    /// Zero of the distance accumulator.
    const DIST_ZERO: Self::Dist;
    /// Largest distance value (the "infinite" initial radius of a kNN search).
    const DIST_MAX: Self::Dist;

    /// `(self - other)^2` as a distance contribution, computed without overflow.
    fn diff_sq(self, other: Self) -> Self::Dist;
    /// Sum of two distance contributions.
    fn dist_add(a: Self::Dist, b: Self::Dist) -> Self::Dist;
    /// Midpoint of two coordinates, rounded towards negative infinity for
    /// integers. This is the spatial-median splitter used by Orth-trees.
    fn mid_floor(self, other: Self) -> Self;
    /// The next representable coordinate strictly above `self` for discrete
    /// types (`x + 1` for integers); identity for continuous types (`f64`).
    /// Used to trim the upper child region of an Orth-tree split so the
    /// recursion always makes progress on integer grids.
    fn next_up_discrete(self) -> Self;
    /// Total order even for floating point (`f64::total_cmp`); integer types
    /// use their natural order.
    fn total_cmp(&self, other: &Self) -> std::cmp::Ordering;
    /// An `i64` key embedding [`Coord::total_cmp`] into the integer order:
    /// `a.total_cmp(&b) == a.total_key().cmp(&b.total_key())` for **every**
    /// bit pattern — including every NaN payload and `-0.0` for `f64`. This
    /// is the branch-free comparison behind the SoA leaf kernels
    /// ([`crate::leaf::LeafSoA`]): closed-interval containment becomes two
    /// integer compares per coordinate plane, which auto-vectorize.
    fn total_key(self) -> i64;
    /// The exact inverse of [`Coord::total_key`]: `from_total_key(x.total_key())`
    /// has the bit pattern of `x` for every `x`. SoA leaves store only keys.
    fn from_total_key(key: i64) -> Self;
    /// [`Coord::total_key`] range inside which distance pruning is sound.
    ///
    /// When every coordinate involved has a key in
    /// `[PRUNABLE_KEY_LO, PRUNABLE_KEY_HI]`, the distance arithmetic is
    /// *monotone*: shrinking a per-dimension |difference| never grows
    /// `diff_sq`, and `dist_add` never decreases under larger inputs — no
    /// NaN can appear (`f64`), and no `Dist` overflow for sums of up to 8
    /// dimensions (`i64`). Inside this fence
    /// [`crate::Rect::dist_sq_to_point`] is an exact lower bound on the
    /// distance to every in-box point, so a kNN scan may skip a whole leaf
    /// on its bounding box alone. Outside it, kernels must fall back to
    /// per-point tests.
    const PRUNABLE_KEY_LO: i64;
    /// Upper end of the prunable key range; see [`Coord::PRUNABLE_KEY_LO`].
    const PRUNABLE_KEY_HI: i64;
    /// Total order on distance values (needed because `f64` distances are only
    /// `PartialOrd`); every kNN search uses this to rank candidates.
    fn dist_cmp(a: Self::Dist, b: Self::Dist) -> std::cmp::Ordering;
    /// Convert to `f64` for reporting/plotting purposes (lossy for large i64).
    fn to_f64(self) -> f64;
    /// Convert a distance value to `f64` for reporting purposes.
    fn dist_to_f64(d: Self::Dist) -> f64;
}

impl Coord for i64 {
    type Dist = i128;

    const ZERO: Self = 0;
    const ONE: Self = 1;
    const MIN_VALUE: Self = i64::MIN;
    const MAX_VALUE: Self = i64::MAX;

    const DIST_ZERO: Self::Dist = 0;
    const DIST_MAX: Self::Dist = i128::MAX;

    #[inline(always)]
    fn diff_sq(self, other: Self) -> i128 {
        let d = (self as i128) - (other as i128);
        d * d
    }

    #[inline(always)]
    fn dist_add(a: i128, b: i128) -> i128 {
        a + b
    }

    #[inline(always)]
    fn mid_floor(self, other: Self) -> Self {
        // Overflow-safe midpoint; rounds toward negative infinity so that the
        // left/lower half of an Orth-tree split is never empty when the two
        // endpoints differ.
        (self >> 1) + (other >> 1) + (self & other & 1)
    }

    #[inline(always)]
    fn total_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cmp(other)
    }

    #[inline(always)]
    fn total_key(self) -> i64 {
        self
    }

    #[inline(always)]
    fn from_total_key(key: i64) -> Self {
        key
    }

    // |coord| <= 2^61 - 1 keeps each diff at most 2^62 - 2, each square
    // strictly below 2^124, and a sum of up to 8 of them strictly below
    // 2^127 — no i128 wrap. (At exactly ±2^61 an 8-dim sum hits 2^127,
    // one past i128::MAX.)
    const PRUNABLE_KEY_LO: i64 = -((1 << 61) - 1);
    const PRUNABLE_KEY_HI: i64 = (1 << 61) - 1;

    #[inline(always)]
    fn dist_cmp(a: i128, b: i128) -> std::cmp::Ordering {
        a.cmp(&b)
    }

    #[inline(always)]
    fn next_up_discrete(self) -> Self {
        self.saturating_add(1)
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline(always)]
    fn dist_to_f64(d: i128) -> f64 {
        d as f64
    }
}

impl Coord for f64 {
    type Dist = f64;

    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const MIN_VALUE: Self = f64::NEG_INFINITY;
    const MAX_VALUE: Self = f64::INFINITY;

    const DIST_ZERO: Self::Dist = 0.0;
    const DIST_MAX: Self::Dist = f64::INFINITY;

    #[inline(always)]
    fn diff_sq(self, other: Self) -> f64 {
        let d = self - other;
        d * d
    }

    #[inline(always)]
    fn dist_add(a: f64, b: f64) -> f64 {
        a + b
    }

    #[inline(always)]
    fn mid_floor(self, other: Self) -> Self {
        self * 0.5 + other * 0.5
    }

    #[inline(always)]
    fn total_cmp(&self, other: &Self) -> std::cmp::Ordering {
        f64::total_cmp(self, other)
    }

    #[inline(always)]
    fn total_key(self) -> i64 {
        fold_sign(self.to_bits() as i64)
    }

    #[inline(always)]
    fn from_total_key(key: i64) -> Self {
        f64::from_bits(fold_sign(key) as u64)
    }

    // The keys of ±f64::MAX: everything strictly outside is an infinity or a
    // NaN, for which squared-distance arithmetic stops being monotone.
    // (Finite differences may still overflow to +inf, but +inf squares and
    // sums stay +inf — monotone — whereas inf - inf or a NaN input poisons
    // the bound.)
    const PRUNABLE_KEY_LO: i64 = fold_sign((-f64::MAX).to_bits() as i64);
    const PRUNABLE_KEY_HI: i64 = f64::MAX.to_bits() as i64;

    #[inline(always)]
    fn dist_cmp(a: f64, b: f64) -> std::cmp::Ordering {
        f64::total_cmp(&a, &b)
    }

    #[inline(always)]
    fn next_up_discrete(self) -> Self {
        self
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline(always)]
    fn dist_to_f64(d: f64) -> f64 {
        d
    }
}

/// The sign-magnitude → two's-complement trick used by `f64::total_cmp`
/// itself: flip the lower 63 bits of negative values, so the integer order
/// of the folded bits is exactly the IEEE 754 totalOrder predicate
/// (-NaN < -inf < … < -0.0 < +0.0 < … < +NaN). The sign bit is kept, so
/// folding twice gives the bits back.
#[inline(always)]
const fn fold_sign(b: i64) -> i64 {
    b ^ (((b >> 63) as u64 >> 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i64_diff_sq_is_exact_at_paper_scale() {
        // Paper coordinates live in [0, 10^9]; the worst-case squared diff is 10^18,
        // which overflows i64 multiplication but not the i128 accumulator.
        let a: i64 = 1_000_000_000;
        let b: i64 = 0;
        assert_eq!(a.diff_sq(b), 1_000_000_000_000_000_000i128);
        assert_eq!(b.diff_sq(a), 1_000_000_000_000_000_000i128);
    }

    #[test]
    fn prunable_key_range_matches_total_key() {
        // The const fold must agree with the runtime key function.
        assert_eq!(f64::PRUNABLE_KEY_LO, (-f64::MAX).total_key());
        assert_eq!(f64::PRUNABLE_KEY_HI, f64::MAX.total_key());
        // Infinities and NaNs (either sign) fall outside the fence.
        for x in [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // NaN payload
        ] {
            let k = x.total_key();
            assert!(
                !(f64::PRUNABLE_KEY_LO..=f64::PRUNABLE_KEY_HI).contains(&k),
                "{x:?} must not be prunable"
            );
        }
        // Every finite value is inside.
        for x in [0.0, -0.0, f64::MAX, -f64::MAX, 1e-300, -1e308] {
            let k = x.total_key();
            assert!((f64::PRUNABLE_KEY_LO..=f64::PRUNABLE_KEY_HI).contains(&k));
        }
        // i64: the fence keeps an 8-dimensional squared sum inside i128.
        let worst = i64::PRUNABLE_KEY_HI.diff_sq(i64::PRUNABLE_KEY_LO);
        assert!(worst.checked_mul(8).is_some());
    }

    #[test]
    fn i64_diff_sq_symmetric_and_zero_on_equal() {
        assert_eq!(5i64.diff_sq(5), 0);
        assert_eq!((-7i64).diff_sq(3), 3i64.diff_sq(-7));
    }

    #[test]
    fn i64_midpoint_matches_arithmetic_mean_floor() {
        assert_eq!(0i64.mid_floor(10), 5);
        assert_eq!(1i64.mid_floor(2), 1);
        assert_eq!((-3i64).mid_floor(3), 0);
        assert_eq!((-5i64).mid_floor(-2), -4); // floor(-3.5) = -4
    }

    #[test]
    fn i64_midpoint_no_overflow_at_extremes() {
        let m = i64::MAX.mid_floor(i64::MAX - 2);
        assert_eq!(m, i64::MAX - 1);
        let m2 = i64::MIN.mid_floor(i64::MAX);
        assert!(m2 == 0 || m2 == -1);
    }

    #[test]
    fn f64_midpoint_and_dist() {
        assert_eq!(1.0f64.mid_floor(3.0), 2.0);
        assert_eq!(2.0f64.diff_sq(5.0), 9.0);
        assert_eq!(f64::dist_add(1.5, 2.5), 4.0);
    }

    #[test]
    fn f64_total_cmp_handles_nan() {
        use std::cmp::Ordering;
        assert_eq!(Coord::total_cmp(&1.0f64, &2.0), Ordering::Less);
        // NaN sorts greater than any finite value under total_cmp.
        assert_eq!(Coord::total_cmp(&f64::NAN, &1.0), Ordering::Greater);
    }

    #[test]
    fn total_key_embeds_total_cmp_exactly() {
        // Every tricky f64 bit pattern: both NaN sign/payload variants, both
        // zeros, infinities, subnormals, ordinary values.
        let specials = [
            f64::from_bits(0xFFF8_0000_0000_0001), // -NaN, payload set
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE / 2.0, // negative subnormal
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001), // +NaN, payload set
        ];
        for &a in &specials {
            for &b in &specials {
                assert_eq!(
                    Coord::total_cmp(&a, &b),
                    a.total_key().cmp(&b.total_key()),
                    "total_key order mismatch for {a:?} ({:#x}) vs {b:?} ({:#x})",
                    a.to_bits(),
                    b.to_bits(),
                );
            }
        }
        for (a, b) in [(i64::MIN, -1i64), (-1, 0), (0, 1), (1, i64::MAX)] {
            assert_eq!(Coord::total_cmp(&a, &b), a.total_key().cmp(&b.total_key()));
        }
    }

    #[test]
    fn from_total_key_inverts_total_key_bit_for_bit() {
        let floats = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001), // +NaN, payload set
            f64::from_bits(0xFFF8_0000_0000_0001), // -NaN, payload set
            f64::from_bits(0x7FF0_0000_0000_0001), // +signalling NaN
            f64::from_bits(0xFFF0_0000_0000_0001), // -signalling NaN
            f64::from_bits(0x7FFF_FFFF_FFFF_FFFF), // +NaN, all payload bits
            f64::from_bits(0xFFFF_FFFF_FFFF_FFFF), // -NaN, all payload bits
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0, // subnormal
            -f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1), // smallest subnormal
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            1.0,
            -1.5,
        ];
        for x in floats {
            assert_eq!(
                f64::from_total_key(x.total_key()).to_bits(),
                x.to_bits(),
                "{x:?} ({:#x}) must round-trip",
                x.to_bits()
            );
        }
        for x in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
            assert_eq!(i64::from_total_key(x.total_key()), x);
        }
        // The key map is a bijection onto i64, so the inverse also holds the
        // other way round — every key decodes to a value that maps back to it.
        for k in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
            assert_eq!(f64::from_total_key(k).total_key(), k);
        }
    }

    #[test]
    fn midpoint_between_bounds() {
        for (a, b) in [(0i64, 1), (0, 2), (7, 9), (100, 1000), (-50, 50)] {
            let m = a.mid_floor(b);
            assert!(m >= a && m < b, "midpoint {m} not in [{a}, {b})");
        }
    }
}
