//! Parallel prefix sums (exclusive scan).
//!
//! Used by the sieve passes to turn per-block counts
//! into scatter offsets. The implementation is the classic two-pass blocked
//! scan: per-block sums are reduced in parallel, scanned sequentially (the
//! number of blocks is small), and the per-block offsets are then applied in
//! parallel — `O(n)` work and `O(log n)` span, matching the bound the paper
//! assumes for its counting-sort subroutine.

use crate::SEQ_THRESHOLD;
use rayon::prelude::*;

/// Exclusive prefix sum: returns a vector `out` with `out[i] = sum(v[..i])`
/// plus the total sum of all elements.
pub fn exclusive_scan(v: &[usize]) -> (Vec<usize>, usize) {
    let mut out = v.to_vec();
    let total = exclusive_scan_inplace(&mut out);
    (out, total)
}

/// In-place exclusive prefix sum; returns the total.
pub fn exclusive_scan_inplace(v: &mut [usize]) -> usize {
    let n = v.len();
    if n == 0 {
        return 0;
    }
    if n <= SEQ_THRESHOLD {
        return seq_exclusive_scan(v);
    }

    let nblocks = rayon::current_num_threads().max(1) * 8;
    let block = n.div_ceil(nblocks);

    // Pass 1: per-block sums.
    let mut sums: Vec<usize> = v
        .par_chunks(block)
        .map(|c| c.iter().sum::<usize>())
        .collect();

    // Scan the (small) block-sum array sequentially.
    let total = seq_exclusive_scan(&mut sums);

    // Pass 2: local scan with the block offset added.
    v.par_chunks_mut(block)
        .zip(sums.par_iter())
        .for_each(|(c, &offset)| {
            let mut acc = offset;
            for x in c.iter_mut() {
                let next = acc + *x;
                *x = acc;
                acc = next;
            }
        });

    total
}

fn seq_exclusive_scan(v: &mut [usize]) -> usize {
    let mut acc = 0usize;
    for x in v.iter_mut() {
        let next = acc + *x;
        *x = acc;
        acc = next;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_scan() {
        let (out, total) = exclusive_scan(&[]);
        assert!(out.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn small_scan() {
        let (out, total) = exclusive_scan(&[3, 1, 4, 1, 5]);
        assert_eq!(out, vec![0, 3, 4, 8, 9]);
        assert_eq!(total, 14);
    }

    #[test]
    fn scan_all_zeros() {
        let (out, total) = exclusive_scan(&[0; 10]);
        assert_eq!(out, vec![0; 10]);
        assert_eq!(total, 0);
    }

    #[test]
    fn large_scan_matches_sequential() {
        let v: Vec<usize> = (0..100_000).map(|i| (i * 31 + 7) % 13).collect();
        let (par, total) = exclusive_scan(&v);
        let mut expect = v.clone();
        let et = seq_exclusive_scan(&mut expect);
        assert_eq!(par, expect);
        assert_eq!(total, et);
    }

    proptest! {
        #[test]
        fn scan_invariant(v in proptest::collection::vec(0usize..1000, 0..500)) {
            let (out, total) = exclusive_scan(&v);
            prop_assert_eq!(out.len(), v.len());
            // out[i] + v[i] == out[i+1], and out[last] + v[last] == total
            for i in 0..v.len() {
                let next = if i + 1 < v.len() { out[i + 1] } else { total };
                prop_assert_eq!(out[i] + v[i], next);
            }
        }
    }
}
