//! Parallel sorting: an MSD integer sort and the paper's **HybridSort**.
//!
//! Every sort in the library orders records by a `u64` code first (an SFC
//! key, or the value itself), so one parallel most-significant-digit integer
//! sort, [`par_integer_sort`], serves them all. It follows DovetailSort (Dong,
//! Dhulipala, Gu and Sun, *Parallel Integer Sort: Theory and Practice*,
//! PPoPP '24) in outline:
//!
//! * each level sorts on a digit of up to 12 bits just below the bits that
//!   every code of the range shares, found from the range's smallest and
//!   largest code;
//! * a blocked counting pass builds per-block histograms, a bucket-major
//!   scan turns them into offsets, and one out-of-place scatter moves every
//!   record to its bucket, stably;
//! * buckets above 64 k records recurse on the next digit, so
//!   clustered codes do not end in one large comparison sort; smaller
//!   buckets finish with a comparison sort on the full order key, the pool's
//!   parallel one above [`SEQ_THRESHOLD`] records and `sort_unstable_by_key`
//!   below, and a range whose codes are all equal finishes with the pool's
//!   parallel comparison sort.
//!
//! The levels alternate between the input and one scratch buffer of the
//! same length, so the sort allocates one copy of the input and the
//! histograms.
//!
//! [`hybrid_sort_keys`] is the paper's HybridSort (Alg. 3). The SPaC-tree
//! construction does not sort points directly; it sorts lightweight
//! `⟨code, id⟩` pairs, where `code` is the SFC key and `id` indexes the
//! original point array, so the sort moves 12-byte pairs instead of full
//! `⟨code, point⟩` records (§4.1 credits HybridSort with a large share of the
//! 3.1–3.5× speed-up over the plain CPAM adaptation). As in the paper, each
//! code is computed inside the sort's first distribution pass: the counting
//! pass reads every point once, computes its code, writes its pair and
//! counts its bucket, and the scatter then moves the pairs. No separate
//! encoding pass exists.

use crate::sieve::ScatterBuf;
use crate::{par2, SEQ_THRESHOLD};
use rayon::prelude::*;
use std::mem::MaybeUninit;

/// Most bits one distribution level sorts on (at most 4 096 buckets).
const DIGIT_BITS: u32 = 12;
/// Buckets with more records than this recurse on the next digit; smaller
/// ones finish with a sequential comparison sort. Measured over 1 M records
/// on 2 vCPUs: on Hilbert pairs of Varden and uniform points, cutoffs from
/// 4 k to 256 k records sort within run-to-run noise; on codes where one
/// bucket holds 99 % of the records, recursing (any of those cutoffs) saves
/// about 15 % against finishing that bucket with one comparison sort.
const RECURSE_CUTOFF: usize = 1 << 16;
/// Most codes HybridSort samples to choose the digit of its first pass.
const SAMPLE: usize = 1024;

/// The digit of one level: `(code - lo) >> shift`, clamped to `max`.
#[derive(Clone, Copy)]
struct Digit {
    lo: u64,
    shift: u32,
    max: u64,
}

impl Digit {
    /// The digit for `n` records whose codes lie in `lo..=hi`: about one
    /// bucket per 16 records, and at most `2^DIGIT_BITS` buckets.
    fn new(lo: u64, hi: u64, n: usize) -> Digit {
        let bits = (usize::BITS - (n / 16).leading_zeros()).clamp(1, DIGIT_BITS);
        let shift = (u64::BITS - (hi - lo).leading_zeros()).saturating_sub(bits);
        Digit {
            lo,
            shift,
            max: (hi - lo) >> shift,
        }
    }

    fn buckets(self) -> usize {
        self.max as usize + 1
    }

    /// The bucket of `code`. Monotone in `code`, and codes outside `lo..=hi`
    /// land in the end buckets, so a digit chosen from a sample of the codes
    /// still partitions every code in order.
    #[inline(always)]
    fn of(self, code: u64) -> usize {
        ((code.saturating_sub(self.lo) >> self.shift).min(self.max)) as usize
    }
}

/// Block length of the counting and scatter passes over `n` records: one
/// block per [`SEQ_THRESHOLD`] records or part of it, and at most four
/// blocks per worker.
fn block_len(n: usize) -> usize {
    let blocks = (rayon::current_num_threads() * 4)
        .min(n.div_ceil(SEQ_THRESHOLD))
        .max(1);
    n.div_ceil(blocks)
}

/// Sort `data` in parallel by `full`. `radix` must be the most significant
/// part of that order: `radix(a) < radix(b)` implies `full(a) < full(b)`
/// (for example `|e| e.0` and `|e| (e.0, e.1)`). Not stable; records with
/// equal full keys may change places.
pub fn par_integer_sort<T, K, R, F>(data: &mut [T], radix: R, full: F)
where
    T: Copy + Send + Sync,
    K: Ord,
    R: Fn(&T) -> u64 + Sync + Copy,
    F: Fn(&T) -> K + Sync + Copy,
{
    let n = data.len();
    if n <= SEQ_THRESHOLD {
        data.sort_unstable_by_key(full);
        return;
    }
    let mut scratch: Vec<T> = Vec::with_capacity(n);
    msd(
        data,
        &mut scratch.spare_capacity_mut()[..n],
        true,
        radix,
        full,
    );
}

/// Parallel unstable sort of a `u64` slice: [`par_integer_sort`] with the
/// value as both keys.
pub fn par_sort_unstable(data: &mut [u64]) {
    par_integer_sort(data, |&x| x, |&x| x);
}

/// The paper's HybridSort (Alg. 3, lines 5–19): the `⟨code, id⟩` pairs of
/// `points`, sorted by code with ties broken by id. Each point is read once,
/// by the first distribution pass, which computes its code while it writes
/// its pair and counts its bucket. That pass chooses its digit from the codes
/// of `min(1024, n / 16)` evenly spaced points (the other codes do not exist
/// yet), so above 2 048 points `code_of` runs at most `n + n / 16` times.
pub fn hybrid_sort_keys<P, F>(points: &[P], code_of: F) -> Vec<(u64, u32)>
where
    P: Sync,
    F: Fn(&P) -> u64 + Sync,
{
    let n = points.len();
    assert!(n <= u32::MAX as usize, "point ids are 32-bit");
    if n <= SEQ_THRESHOLD {
        let mut pairs: Vec<(u64, u32)> = points
            .iter()
            .zip(0..)
            .map(|(p, i)| (code_of(p), i))
            .collect();
        pairs.sort_unstable();
        return pairs;
    }

    let samples = SAMPLE.min(n / 16);
    let (lo, hi) = (0..samples)
        .map(|s| code_of(&points[s * n / samples]))
        .fold((u64::MAX, 0), |(lo, hi), c| (lo.min(c), hi.max(c)));
    let digit = Digit::new(lo, hi, n);
    let block = block_len(n);
    let mut hist = vec![0usize; n.div_ceil(block) * digit.buckets()];
    // The result is allocated before the scratch, so that the scratch, freed
    // first, tends to sit on top of the allocator's heap, where the caller's
    // next allocation can reuse it.
    let mut sorted: Vec<(u64, u32)> = Vec::with_capacity(n);
    let mut pairs: Vec<(u64, u32)> = Vec::with_capacity(n);
    points
        .par_chunks(block)
        .zip(pairs.spare_capacity_mut()[..n].par_chunks_mut(block))
        .zip(hist.par_chunks_mut(digit.buckets()))
        .enumerate()
        .for_each(|(b, ((chunk, out), counts))| {
            let first = b * block;
            for (j, (p, slot)) in chunk.iter().zip(out).enumerate() {
                let code = code_of(p);
                slot.write((code, (first + j) as u32));
                counts[digit.of(code)] += 1;
            }
        });
    // SAFETY: the chunks of `out` cover `0..n` and the pass wrote every slot.
    unsafe { pairs.set_len(n) };

    let code = |e: &(u64, u32)| e.0;
    let bounds = scatter(
        &pairs,
        &mut sorted.spare_capacity_mut()[..n],
        block,
        digit,
        hist,
        code,
    );
    // SAFETY: `scatter` wrote every slot of `0..n`.
    unsafe { sorted.set_len(n) };
    finish(&mut pairs, &mut sorted, &bounds, false, code, |e| *e);
    sorted
}

/// Sort `src` by `full` with `dst` as the other buffer. The result lands in
/// `src` when `back` is set and in `dst` otherwise.
fn msd<T, K, R, F>(src: &mut [T], dst: &mut [MaybeUninit<T>], back: bool, radix: R, full: F)
where
    T: Copy + Send + Sync,
    K: Ord,
    R: Fn(&T) -> u64 + Sync + Copy,
    F: Fn(&T) -> K + Sync + Copy,
{
    let n = src.len();
    let block = block_len(n);
    let (lo, hi) = src
        .par_chunks(block)
        .map(|c| {
            c.iter().fold((u64::MAX, 0), |(lo, hi), x| {
                (lo.min(radix(x)), hi.max(radix(x)))
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .fold((u64::MAX, 0), |(lo, hi), (l, h)| (lo.min(l), hi.max(h)));
    if lo == hi {
        // Every code is equal: only the full key orders the range.
        src.par_sort_unstable_by_key(full);
        if !back {
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                d.write(*s);
            }
        }
        return;
    }

    let digit = Digit::new(lo, hi, n);
    let mut hist = vec![0usize; n.div_ceil(block) * digit.buckets()];
    src.par_chunks(block)
        .zip(hist.par_chunks_mut(digit.buckets()))
        .for_each(|(chunk, counts)| {
            for x in chunk {
                counts[digit.of(radix(x))] += 1;
            }
        });
    let bounds = scatter(src, dst, block, digit, hist, radix);
    // SAFETY: `scatter` wrote every slot of `dst`.
    let dst = unsafe { assume_init(dst) };
    finish(src, dst, &bounds, back, radix, full);
}

/// Move every record of `src` to its bucket in `dst`, stably. `hist` holds
/// one row of `digit.buckets()` counts per block of `block` records. Every
/// slot of `dst` is written; the result is the bucket boundaries
/// (`buckets + 1` offsets from 0 to `src.len()`).
fn scatter<T, R>(
    src: &[T],
    dst: &mut [MaybeUninit<T>],
    block: usize,
    digit: Digit,
    mut hist: Vec<usize>,
    radix: R,
) -> Vec<usize>
where
    T: Copy + Send + Sync,
    R: Fn(&T) -> u64 + Sync,
{
    debug_assert_eq!(src.len(), dst.len());
    let nb = digit.buckets();
    let blocks = hist.len() / nb;
    // Bucket-major exclusive scan, in place: each count becomes the offset at
    // which that block's records of that bucket start.
    let mut acc = 0;
    for k in 0..nb {
        for b in 0..blocks {
            let c = hist[b * nb + k];
            hist[b * nb + k] = acc;
            acc += c;
        }
    }
    debug_assert_eq!(acc, src.len());
    let mut bounds = hist[..nb].to_vec();
    bounds.push(src.len());

    let out = ScatterBuf::new(dst);
    src.par_chunks(block)
        .zip(hist.par_chunks_mut(nb))
        .for_each(|(chunk, cursor)| {
            for x in chunk {
                let k = digit.of(radix(x));
                // SAFETY: the scan gave this block's records of bucket `k` the
                // run `cursor[k]..` up to the next block's start, and runs of
                // different (block, bucket) pairs are disjoint and cover `dst`,
                // so no other task writes this slot.
                unsafe { out.write(cursor[k], MaybeUninit::new(*x)) };
                cursor[k] += 1;
            }
        });
    bounds
}

/// Finish one level. Bucket `i` of `dst` holds its records at
/// `bounds[i] - bounds[0]..bounds[i + 1] - bounds[0]`; sort each, and leave
/// the result in `src` when `back` is set, in `dst` otherwise.
fn finish<T, K, R, F>(src: &mut [T], dst: &mut [T], bounds: &[usize], back: bool, radix: R, full: F)
where
    T: Copy + Send + Sync,
    K: Ord,
    R: Fn(&T) -> u64 + Sync + Copy,
    F: Fn(&T) -> K + Sync + Copy,
{
    let base = bounds[0];
    if bounds.len() > 2 && dst.len() > SEQ_THRESHOLD {
        // Split at the bucket boundary nearest half the records, so that a
        // heavy bucket does not leave one side of the fork almost empty.
        let half = base + dst.len() / 2;
        let mid = bounds
            .partition_point(|&b| b < half)
            .clamp(1, bounds.len() - 2);
        let (s0, s1) = src.split_at_mut(bounds[mid] - base);
        let (d0, d1) = dst.split_at_mut(bounds[mid] - base);
        par2(
            || finish(s0, d0, &bounds[..=mid], back, radix, full),
            || finish(s1, d1, &bounds[mid..], back, radix, full),
        );
        return;
    }
    for w in bounds.windows(2) {
        let range = w[0] - base..w[1] - base;
        let (s, d) = (&mut src[range.clone()], &mut dst[range]);
        if d.len() > RECURSE_CUTOFF {
            // SAFETY: `msd` writes only initialised records into its `dst`,
            // so `s` stays initialised.
            msd(d, unsafe { as_uninit(s) }, !back, radix, full);
        } else {
            if d.len() > SEQ_THRESHOLD {
                // A heavy bucket (clustered codes) would hold one worker for
                // the whole level; the pool's sort spreads it.
                d.par_sort_unstable_by_key(full);
            } else {
                d.sort_unstable_by_key(full);
            }
            if back {
                s.copy_from_slice(d);
            }
        }
    }
}

/// View an initialised slice as uninitialised slots.
///
/// # Safety
/// The caller must write only initialised values through the result.
unsafe fn as_uninit<T>(s: &mut [T]) -> &mut [MaybeUninit<T>] {
    // SAFETY: `MaybeUninit<T>` has the layout of `T`; the caller keeps the
    // slots initialised.
    unsafe { &mut *(s as *mut [T] as *mut [MaybeUninit<T>]) }
}

/// View slots as initialised records.
///
/// # Safety
/// Every slot of `s` must be initialised.
unsafe fn assume_init<T>(s: &mut [MaybeUninit<T>]) -> &mut [T] {
    // SAFETY: `MaybeUninit<T>` has the layout of `T`, and the caller
    // guarantees every slot holds a valid `T`.
    unsafe { &mut *(s as *mut [MaybeUninit<T>] as *mut [T]) }
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

    /// `n` codes of one of the shapes the integer sort must handle, in the
    /// given order (0 as drawn, 1 sorted, 2 reversed).
    fn shaped_codes(shape: usize, order: usize, n: usize, rng: &mut impl rand::Rng) -> Vec<u64> {
        let a: u64 = rng.gen();
        let b: u64 = rng.gen();
        let mut v: Vec<u64> = (0..n)
            .map(|_| match shape {
                0 => a,
                1 => {
                    if rng.gen_bool(0.5) {
                        a
                    } else {
                        b
                    }
                }
                2 => (a & !1) | rng.gen_range(0..2u64),
                3 => 1 << 63 | rng.gen_range(0..1u64 << 20),
                4 => {
                    if rng.gen_bool(0.01) {
                        u64::MAX
                    } else {
                        rng.gen_range(0..1u64 << 20)
                    }
                }
                5 => rng.gen_range(0..1u64 << 16),
                _ => rng.gen(),
            })
            .collect();
        match order {
            1 => v.sort_unstable(),
            2 => v.sort_unstable_by(|x, y| y.cmp(x)),
            _ => {}
        }
        v
    }

    /// Lengths at the sort's thresholds.
    const EDGE_LENS: [usize; 8] = [
        0,
        1,
        SEQ_THRESHOLD - 1,
        SEQ_THRESHOLD,
        SEQ_THRESHOLD + 1,
        RECURSE_CUTOFF - 1,
        RECURSE_CUTOFF,
        RECURSE_CUTOFF + 1,
    ];

    /// The integer sort of `(code, payload)` records equals
    /// `sort_unstable_by_key` on the full key.
    fn check_against_std(codes: &[u64], payload_range: u32, rng: &mut impl rand::Rng) {
        let mut v: Vec<(u64, u32)> = codes
            .iter()
            .map(|&c| (c, rng.gen_range(0..payload_range)))
            .collect();
        let mut expect = v.clone();
        expect.sort_unstable_by_key(|e| (e.0, e.1));
        par_integer_sort(&mut v, |e| e.0, |e| (e.0, e.1));
        assert_eq!(v, expect);
    }

    #[test]
    fn a_bucket_at_the_cutoff_recurses_or_finishes() {
        // One `u64::MAX` code puts every other record into bucket 0, so that
        // bucket holds exactly `m` records: at `SEQ_THRESHOLD` it finishes
        // sequentially or with the pool's sort, at `RECURSE_CUTOFF` with the
        // pool's sort or a recursion.
        let mut rng = StdRng::seed_from_u64(5);
        for m in [
            SEQ_THRESHOLD,
            SEQ_THRESHOLD + 1,
            RECURSE_CUTOFF - 1,
            RECURSE_CUTOFF,
            RECURSE_CUTOFF + 1,
        ] {
            let mut codes: Vec<u64> = (0..m).map(|_| rng.gen_range(0..1u64 << 30)).collect();
            codes.push(u64::MAX);
            check_against_std(&codes, u32::MAX, &mut rng);
            // The same with every small code equal: above the cutoff the
            // bucket's next level is the all-equal finish.
            let mut codes = vec![3u64; m];
            codes.push(u64::MAX);
            check_against_std(&codes, 1000, &mut rng);
        }
    }

    #[test]
    fn hybrid_sort_at_the_thresholds() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in EDGE_LENS {
            let points: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 24)).collect();
            let got = hybrid_sort_keys(&points, |&p| p);
            let mut expect: Vec<(u64, u32)> =
                points.iter().zip(0..).map(|(&p, i)| (p, i)).collect();
            expect.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn integer_sort_matches_std(
            shape in 0usize..7,
            order in 0usize..3,
            len in 0usize..EDGE_LENS.len() + 2,
            random_len in 0usize..20_000,
            payload_range in 1u32..100_000,
            seed in 0u64..,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = EDGE_LENS.get(len).copied().unwrap_or(random_len);
            let codes = shaped_codes(shape, order, n, &mut rng);
            check_against_std(&codes, payload_range, &mut rng);
        }

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
