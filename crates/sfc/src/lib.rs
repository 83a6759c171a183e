//! Space-filling curves (SFCs) for Ψ-Lib-rs.
//!
//! The paper's SFC-based indexes (Zd-tree, SPaC-Z, SPaC-H, CPAM-Z, CPAM-H)
//! order points by their **Morton (Z) code** or **Hilbert code** (Fig. 1). This
//! crate provides both codecs for 2-D and 3-D integer coordinates, matching the
//! precision budget the paper discusses in §3 ("Applicability"):
//!
//! * 2-D: 32 bits per dimension → a 64-bit code,
//! * 3-D: 21 bits per dimension → a 63-bit code.
//!
//! The paper's evaluation uses coordinates in `[0, 10^9]` (2-D, < 2^30) and
//! `[0, 10^6]` (3-D, < 2^20), so both fit comfortably.
//!
//! Morton codes are bit interleaves (spread with shifts and masks). Hilbert
//! codes in 2-D and 3-D come from a table-driven automaton indexed by the
//! Morton code, a few levels per lookup; Skilling's transpose is the reference
//! that defines them, encodes every other dimension and checks the tables.
//!
//! Codes are produced as `u64` and are *compared only* — no arithmetic is ever
//! done on them — so any monotone embedding works. The defining property (and
//! the one the property tests check) is that sorting by code yields the same
//! order as walking the recursive space decomposition.

pub mod hilbert;
pub mod morton;

pub use hilbert::HilbertCurve;
pub use morton::MortonCurve;

use psi_geometry::PointI;

/// Number of bits of precision used per dimension for `D`-dimensional codes.
///
/// 2-D uses 32 bits/dim (full 64-bit code); 3-D and above use `63 / D` bits so
/// the code still fits in a `u64` word, mirroring the paper's discussion of
/// the 64-bit word constraint.
pub const fn bits_per_dim(d: usize) -> u32 {
    if d <= 2 {
        32
    } else {
        (63 / d) as u32
    }
}

/// A space-filling-curve codec: maps a `D`-dimensional integer point to a
/// one-dimensional `u64` key.
///
/// Implementations must be **monotone in the curve order**: sorting points by
/// `encode` must equal the order induced by the recursive traversal of the
/// curve. Coordinates must be non-negative and fit in [`bits_per_dim`]`(D)`
/// bits; the paper's workloads satisfy this by construction, and the encoders
/// clamp out-of-range coordinates rather than wrapping (a clamped code is still
/// a valid, deterministic key — the index remains correct, only the locality of
/// the affected points degrades, which is the same fallback behaviour the paper
/// describes for precision exhaustion).
pub trait SfcCurve<const D: usize>: Send + Sync + Default + Clone + 'static {
    /// Human-readable curve name ("morton" / "hilbert"), used in benchmark output.
    const NAME: &'static str;

    /// Encode a point into its 1-D curve key.
    fn encode(p: &PointI<D>) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_budget() {
        assert_eq!(bits_per_dim(2), 32);
        assert_eq!(bits_per_dim(3), 21);
        assert_eq!(bits_per_dim(4), 15);
        // total bits never exceed the word size
        for d in 2..=8 {
            assert!(bits_per_dim(d) * d as u32 <= 64);
        }
    }
}
