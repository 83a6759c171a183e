//! Parallel sorting: sample sort and the paper's **HybridSort**.
//!
//! The SPaC-tree construction (Alg. 3) does not sort points directly; it sorts
//! lightweight `⟨code, id⟩` pairs where `code` is the SFC key and `id` indexes
//! the original point array, so the sort moves 12-byte pairs instead of full
//! `⟨code, point⟩` records (§4.1 credits HybridSort with a large share of the
//! 3.1–3.5× speed-up over the plain CPAM adaptation). The paper computes each
//! code inside the sort's first distribution pass; here one parallel map reads
//! every point once, computes its code and writes the pair array, and the
//! sample sort then runs on the pairs alone.
//!
//! [`par_sort_by_key`] is a general parallel sample sort used wherever an index
//! needs to order things (batch preprocessing, Zd-tree Morton presort, leaf
//! re-sorting). [`hybrid_sort_keys`] is the `⟨code, id⟩` variant.

use crate::sieve::sieve_by;
use crate::{par2, SEQ_THRESHOLD};
use rayon::prelude::*;

/// Oversampling factor of the sample sort: the number of samples taken per
/// output bucket. Larger values give more even buckets at slightly higher
/// sampling cost.
const OVERSAMPLE: usize = 8;
/// Maximum fan-out of one sample-sort round.
const MAX_BUCKETS: usize = 256;

/// Sort `data` in parallel by the key produced by `key`. Not stable.
pub fn par_sort_by_key<T, K, F>(data: &mut [T], key: F)
where
    T: Copy + Send + Sync,
    K: Ord + Copy + Send + Sync,
    F: Fn(&T) -> K + Sync + Copy,
{
    let n = data.len();
    if n <= SEQ_THRESHOLD {
        data.sort_unstable_by_key(key);
        return;
    }

    // Choose the fan-out so each bucket is expected to be ~SEQ_THRESHOLD or we
    // recurse at most a couple of times.
    let nbuckets = (n / SEQ_THRESHOLD).clamp(2, MAX_BUCKETS);

    // Sample and pick pivots.
    let sample_count = nbuckets * OVERSAMPLE;
    let mut samples: Vec<K> = (0..sample_count)
        .map(|i| key(&data[(i * (n / sample_count)).min(n - 1)]))
        .collect();
    samples.sort_unstable();
    let pivots: Vec<K> = (1..nbuckets).map(|i| samples[i * OVERSAMPLE]).collect();

    // Degenerate sample (heavily duplicated keys): fall back to a direct sort
    // rather than recursing with no progress.
    if pivots.windows(2).all(|w| w[0] == w[1]) && !pivots.is_empty() {
        data.par_sort_unstable_by_key(key);
        return;
    }

    // Distribute into buckets with one sieve pass.
    let offsets = sieve_by(data, nbuckets, |x| {
        let k = key(x);
        pivots.partition_point(|p| *p <= k)
    });

    // Recurse on buckets in parallel: a binary fork-join over the bucket
    // list, so every level of the recursion is a task on the worker pool's
    // deques (rather than a flat nested job per level) and uneven bucket
    // sizes rebalance through work stealing.
    let mut slices: Vec<&mut [T]> = Vec::with_capacity(nbuckets);
    let mut rest = data;
    for w in offsets.windows(2) {
        let len = w[1] - w[0];
        let (head, tail) = rest.split_at_mut(len);
        slices.push(head);
        rest = tail;
    }
    sort_buckets(&mut slices, key);
}

/// Sort each bucket, forking the bucket list in halves via [`par2`].
fn sort_buckets<T, K, F>(slices: &mut [&mut [T]], key: F)
where
    T: Copy + Send + Sync,
    K: Ord + Copy + Send + Sync,
    F: Fn(&T) -> K + Sync + Copy,
{
    match slices {
        [] => {}
        [s] => {
            if s.len() > SEQ_THRESHOLD {
                par_sort_by_key(s, key);
            } else {
                s.sort_unstable_by_key(key);
            }
        }
        _ => {
            let mid = slices.len() / 2;
            let (left, right) = slices.split_at_mut(mid);
            par2(|| sort_buckets(left, key), || sort_buckets(right, key));
        }
    }
}

/// Parallel unstable sort of an `Ord` slice (convenience wrapper).
pub fn par_sort_unstable<T: Ord + Copy + Send + Sync>(data: &mut [T]) {
    par_sort_by_key(data, |x| *x);
}

/// The paper's HybridSort (Alg. 3, lines 5–19): produce the sequence of
/// `⟨code, id⟩` pairs for `points`, sorted by code (ties broken by id for
/// determinism). Each point's code is computed exactly once, by a parallel map
/// that writes the pair array before the sample sort starts; the points are
/// not read again.
pub fn hybrid_sort_keys<P, F>(points: &[P], code_of: F) -> Vec<(u64, u32)>
where
    P: Sync,
    F: Fn(&P) -> u64 + Sync,
{
    let n = points.len();
    assert!(n <= u32::MAX as usize, "point ids are 32-bit");

    // First (and only) touch of the point data: compute codes in parallel while
    // materialising the lightweight pair array the rest of the sort works on.
    let mut pairs: Vec<(u64, u32)> = points
        .par_iter()
        .enumerate()
        .map(|(i, p)| (code_of(p), i as u32))
        .collect();

    par_sort_by_key(&mut pairs, |&(c, i)| (c, i));
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    #[test]
    fn sort_empty_and_single() {
        let mut v: Vec<u64> = vec![];
        par_sort_unstable(&mut v);
        assert!(v.is_empty());
        let mut v = vec![42u64];
        par_sort_unstable(&mut v);
        assert_eq!(v, vec![42]);
    }

    #[test]
    fn sort_small() {
        let mut v = vec![5u64, 3, 9, 1, 4, 1, 5, 9, 2, 6];
        par_sort_unstable(&mut v);
        assert_eq!(v, vec![1, 1, 2, 3, 4, 5, 5, 6, 9, 9]);
    }

    #[test]
    fn sort_large_random() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut v: Vec<u64> = (0..300_000).map(|_| rng.gen_range(0..1_000_000)).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        par_sort_unstable(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn sort_large_all_equal() {
        let mut v: Vec<u64> = vec![7; 150_000];
        par_sort_unstable(&mut v);
        assert!(v.iter().all(|&x| x == 7));
    }

    #[test]
    fn sort_already_sorted_and_reversed() {
        let mut v: Vec<u64> = (0..100_000).collect();
        par_sort_unstable(&mut v);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        let mut v: Vec<u64> = (0..100_000).rev().collect();
        par_sort_unstable(&mut v);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sort_by_key_uses_key_only() {
        let mut v: Vec<(u64, u64)> = (0..50_000u64).map(|i| (i, 50_000 - i)).collect();
        par_sort_by_key(&mut v, |&(_, b)| b);
        assert!(v.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn hybrid_sort_small() {
        let points = vec![30u64, 10, 20, 10];
        let sorted = hybrid_sort_keys(&points, |&p| p);
        assert_eq!(sorted, vec![(10, 1), (10, 3), (20, 2), (30, 0)]);
    }

    #[test]
    fn hybrid_sort_matches_reference_large() {
        let mut rng = StdRng::seed_from_u64(13);
        let points: Vec<u64> = (0..200_000).map(|_| rng.gen_range(0..1u64 << 40)).collect();
        let got = hybrid_sort_keys(&points, |&p| p.rotate_left(17));
        let mut expect: Vec<(u64, u32)> = points
            .iter()
            .enumerate()
            .map(|(i, &p)| (p.rotate_left(17), i as u32))
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    proptest! {
        #[test]
        fn par_sort_matches_std(v in proptest::collection::vec(0u64..1000, 0..5000)) {
            let mut a = v.clone();
            let mut b = v;
            par_sort_unstable(&mut a);
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }

        #[test]
        fn hybrid_sort_is_sorted_permutation(v in proptest::collection::vec(0u64.., 0..3000)) {
            let got = hybrid_sort_keys(&v, |&p| p / 3);
            prop_assert_eq!(got.len(), v.len());
            prop_assert!(got.windows(2).all(|w| w[0] <= w[1]));
            // ids form a permutation of 0..n
            let mut ids: Vec<u32> = got.iter().map(|&(_, i)| i).collect();
            ids.sort_unstable();
            prop_assert!(ids.iter().enumerate().all(|(i, &id)| id as usize == i));
            // codes are correct for their ids
            prop_assert!(got.iter().all(|&(c, i)| c == v[i as usize] / 3));
        }
    }
}
