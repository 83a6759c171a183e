//! The **Sieve** primitive (stable parallel bucket distribution).
//!
//! `Sieve(P, T)` is the workhorse of both the Pkd-tree and the P-Orth tree
//! (Alg. 1 line 6, Alg. 2 line 7): given a sequence of points and a small tree
//! skeleton whose external nodes define buckets, it reorders the sequence so
//! that points belonging to the same bucket become contiguous, and returns the
//! bucket boundaries. It is, as the paper puts it, "a parallel counting sort"
//! executed blockwise so each block's working set fits in cache:
//!
//! 1. split the input into blocks, compute a per-block histogram in parallel
//!    (recording each item's bucket id once so it is not recomputed),
//! 2. prefix-sum the histograms in bucket-major order, which yields for every
//!    `(block, bucket)` pair the exact output offset of that block's items for
//!    that bucket (this is the "matrix transpose" step of Alg. 3 line 16),
//! 3. scatter each block's items to their final positions in parallel.
//!
//! The scatter is stable: two items in the same bucket keep their relative
//! input order, which the P-Orth tree relies on for determinism.

use crate::scan::exclusive_scan_inplace;
use crate::SEQ_THRESHOLD;
use rayon::prelude::*;
use std::cell::UnsafeCell;

/// Result of a [`sieve`] call: bucket boundary offsets. Bucket `i` occupies
/// `data[offsets[i]..offsets[i + 1]]`; `offsets.len() == num_buckets + 1`.
pub type SieveResult = Vec<usize>;

/// A shared output buffer that allows disjoint parallel writes.
///
/// Safety contract: every index is written by exactly one task (the scatter
/// offsets computed from the exclusive scan partition the output), so no two
/// threads ever alias the same element and every element is initialised before
/// the buffer is read.
pub(crate) struct ScatterBuf<'a, T> {
    slots: &'a [UnsafeCell<T>],
}

// SAFETY: shared use only writes, each slot from one task (the contract
// above), so sharing the buffer sends each `T` to exactly one thread.
unsafe impl<T: Send> Sync for ScatterBuf<'_, T> {}

impl<'a, T> ScatterBuf<'a, T> {
    pub(crate) fn new(slice: &'a mut [T]) -> Self {
        // SAFETY: `UnsafeCell<T>` has the same layout as `T`; we hold the only
        // mutable borrow of `slice` for the lifetime of the scatter.
        let slots = unsafe {
            std::slice::from_raw_parts(slice.as_ptr() as *const UnsafeCell<T>, slice.len())
        };
        ScatterBuf { slots }
    }

    #[inline(always)]
    pub(crate) unsafe fn write(&self, idx: usize, value: T) {
        // SAFETY: caller guarantees exclusive access to `idx` (see struct docs).
        unsafe { *self.slots[idx].get() = value };
    }
}

/// Stable bucket distribution of `data` according to `bucket_of`, which must
/// return a value in `0..num_buckets` for every element. Returns the bucket
/// boundary offsets (length `num_buckets + 1`).
pub fn sieve_by<T, F>(data: &mut [T], num_buckets: usize, bucket_of: F) -> SieveResult
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> usize + Sync,
{
    let n = data.len();
    if num_buckets == 0 {
        assert_eq!(n, 0, "non-empty input requires at least one bucket");
        return vec![0];
    }
    if n <= SEQ_THRESHOLD || num_buckets == 1 {
        return seq_sieve(data, num_buckets, &bucket_of);
    }

    let nblocks = (rayon::current_num_threads().max(1) * 8).min(n.div_ceil(SEQ_THRESHOLD / 4));
    let block = n.div_ceil(nblocks);
    let nblocks = n.div_ceil(block);

    // Pass 1: bucket id per element + per-block histograms.
    let mut bucket_ids: Vec<u32> = vec![0; n];
    let mut histograms: Vec<usize> = vec![0; nblocks * num_buckets];
    data.par_chunks(block)
        .zip(bucket_ids.par_chunks_mut(block))
        .zip(histograms.par_chunks_mut(num_buckets))
        .for_each(|((chunk, ids), hist)| {
            for (item, id) in chunk.iter().zip(ids.iter_mut()) {
                let b = bucket_of(item);
                debug_assert!(b < num_buckets, "bucket id {b} out of range {num_buckets}");
                *id = b as u32;
                hist[b] += 1;
            }
        });

    // Pass 2: transpose to bucket-major order and scan, producing for every
    // (bucket, block) pair the output offset of that block's run.
    let mut offsets_bm: Vec<usize> = vec![0; nblocks * num_buckets];
    for b in 0..nblocks {
        for k in 0..num_buckets {
            offsets_bm[k * nblocks + b] = histograms[b * num_buckets + k];
        }
    }
    let total = exclusive_scan_inplace(&mut offsets_bm);
    debug_assert_eq!(total, n);

    // Bucket boundaries: the offset of each bucket's first block.
    let mut boundaries = Vec::with_capacity(num_buckets + 1);
    for k in 0..num_buckets {
        boundaries.push(offsets_bm[k * nblocks]);
    }
    boundaries.push(n);

    // Pass 3: scatter into a scratch buffer, then copy back.
    let mut scratch: Vec<T> = data.to_vec();
    {
        let out = ScatterBuf::new(&mut scratch);
        data.par_chunks(block)
            .zip(bucket_ids.par_chunks(block))
            .enumerate()
            .for_each(|(bi, (chunk, ids))| {
                // Local cursor per bucket for this block.
                let mut cursors: Vec<usize> = (0..num_buckets)
                    .map(|k| offsets_bm[k * nblocks + bi])
                    .collect();
                for (item, &id) in chunk.iter().zip(ids.iter()) {
                    let k = id as usize;
                    let dst = cursors[k];
                    cursors[k] += 1;
                    // SAFETY: `dst` ranges over this block's private sub-range of
                    // bucket `k`'s output region; ranges of different (block,
                    // bucket) pairs are disjoint by construction of the scan.
                    unsafe { out.write(dst, *item) };
                }
            });
    }
    data.copy_from_slice(&scratch);
    boundaries
}

/// Convenience wrapper over [`sieve_by`] when bucket ids are already computed.
pub fn sieve<T>(data: &mut [T], num_buckets: usize, bucket_ids: &[usize]) -> SieveResult
where
    T: Copy + Send + Sync,
{
    assert_eq!(data.len(), bucket_ids.len());
    // Pair each item with its position so the precomputed id can be looked up.
    let mut indexed: Vec<(usize, T)> = data.iter().copied().enumerate().collect();
    let offsets = sieve_by(&mut indexed, num_buckets, |(i, _)| bucket_ids[*i]);
    for (dst, (_, item)) in data.iter_mut().zip(indexed) {
        *dst = item;
    }
    offsets
}

fn seq_sieve<T, F>(data: &mut [T], num_buckets: usize, bucket_of: &F) -> SieveResult
where
    T: Copy,
    F: Fn(&T) -> usize,
{
    let n = data.len();
    let mut counts = vec![0usize; num_buckets];
    let ids: Vec<usize> = data
        .iter()
        .map(|x| {
            let b = bucket_of(x);
            debug_assert!(b < num_buckets);
            b
        })
        .collect();
    for &b in &ids {
        counts[b] += 1;
    }
    let mut offsets = Vec::with_capacity(num_buckets + 1);
    let mut acc = 0;
    for &c in &counts {
        offsets.push(acc);
        acc += c;
    }
    offsets.push(acc);
    debug_assert_eq!(acc, n);

    let mut cursors = offsets[..num_buckets].to_vec();
    let scratch: Vec<T> = data.to_vec();
    for (item, &b) in scratch.iter().zip(ids.iter()) {
        data[cursors[b]] = *item;
        cursors[b] += 1;
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn check_sieve(mut v: Vec<u64>, nb: usize) {
        let orig = v.clone();
        let f = |x: &u64| (*x as usize) % nb;
        let offsets = sieve_by(&mut v, nb, f);

        // 1. It is a permutation of the input.
        let mut a = orig.clone();
        let mut b = v.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);

        // 2. Offsets are monotone and bracket the whole array.
        assert_eq!(offsets.len(), nb + 1);
        assert_eq!(offsets[0], 0);
        assert_eq!(offsets[nb], v.len());
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));

        // 3. Every element sits inside its bucket's range.
        for k in 0..nb {
            for &x in &v[offsets[k]..offsets[k + 1]] {
                assert_eq!(f(&x), k);
            }
        }

        // 4. Stability: relative order within a bucket matches the input order.
        for k in 0..nb {
            let expect: Vec<u64> = orig.iter().copied().filter(|x| f(x) == k).collect();
            assert_eq!(&v[offsets[k]..offsets[k + 1]], &expect[..]);
        }
    }

    #[test]
    fn sieve_empty() {
        let mut v: Vec<u64> = vec![];
        let offsets = sieve_by(&mut v, 4, |x| *x as usize % 4);
        assert_eq!(offsets, vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn sieve_small() {
        check_sieve(vec![5, 3, 8, 1, 9, 2, 7, 0, 6, 4], 3);
    }

    #[test]
    fn sieve_single_bucket() {
        check_sieve((0..5000).collect(), 1);
    }

    #[test]
    fn sieve_large_parallel_path() {
        let v: Vec<u64> = (0..200_000)
            .map(|i| (i * 2654435761u64) % 1_000_003)
            .collect();
        check_sieve(v, 16);
        let v: Vec<u64> = (0..200_000).map(|i| (i * 40503u64) % 97).collect();
        check_sieve(v, 97);
    }

    #[test]
    fn sieve_all_same_bucket_large() {
        let v: Vec<u64> = vec![8; 100_000];
        check_sieve(v, 4);
    }

    #[test]
    fn sieve_with_precomputed_ids() {
        let mut v: Vec<u64> = (0..10_000).collect();
        let ids: Vec<usize> = v.iter().map(|x| (x % 7) as usize).collect();
        let offsets = sieve(&mut v, 7, &ids);
        assert_eq!(offsets[7], v.len());
        for k in 0..7 {
            for &x in &v[offsets[k]..offsets[k + 1]] {
                assert_eq!((x % 7) as usize, k);
            }
        }
    }

    proptest! {
        #[test]
        fn sieve_random(v in proptest::collection::vec(0u64..10_000, 0..4000), nb in 1usize..32) {
            check_sieve(v, nb);
        }
    }
}
