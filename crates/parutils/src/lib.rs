//! Parallel primitives substrate for Ψ-Lib-rs.
//!
//! The C++ Ψ-Lib builds on ParlayLib for fork-join parallelism and a handful of
//! parallel building blocks. This crate is the Rust equivalent, built on the
//! rayon substrate's worker pool: `par_*` iterators with chunked
//! work-distribution and steal-on-idle, plus `rayon::join` for the binary
//! fork-join recursions the paper analyses in §2.1. `join` is pool-native
//! (work-stealing task deques — a fork is an amortised task push, not a
//! thread spawn), so the deep binary recursions in the index builds and the
//! kernels below run at full parallelism however they nest:
//!
//! * [`scan`] — parallel prefix sums (exclusive scan), used to turn per-block
//!   histograms into scatter offsets,
//! * [`sieve`] — the **Sieve** primitive of the Pkd-tree paper (re-used by the
//!   P-Orth tree, Alg. 1 line 6): a stable parallel counting-sort pass that
//!   reorders a point sequence so that all points falling into the same bucket
//!   of a tree skeleton become contiguous, returning the bucket boundaries,
//! * [`sort`] — a parallel MSD integer sort on a `u64` key (after
//!   DovetailSort) plus the paper's **HybridSort** (Alg. 3), which computes
//!   each point's code inside the sort's first distribution pass and sorts
//!   `⟨code, id⟩` pairs,
//! * [`cow`] — copy-on-write access to `Arc`-shared tree nodes (path
//!   copying), counting every node a shared path forces a copy of,
//! * [`stats`] — lightweight atomic instrumentation counters used by the
//!   ablation benchmarks to report work/IO-proxy numbers.
//!
//! All primitives fall back to the sequential path below a grain-size
//! threshold, following the Rayon guidance of keeping per-task work large
//! enough to amortise scheduling.

use rayon::prelude::*;

pub mod cow;
pub mod scan;
pub mod sieve;
pub mod sort;
pub mod stats;

pub use scan::{exclusive_scan, exclusive_scan_inplace};
pub use sieve::{sieve, sieve_by, SieveResult};
pub use sort::{hybrid_sort_keys, par_integer_sort, par_sort_unstable};

/// Grain size below which parallel primitives switch to their sequential
/// implementation. Chosen so per-task work comfortably exceeds the cost of a
/// rayon fork (a deque push/pop pair); the exact value is not
/// performance-critical.
pub const SEQ_THRESHOLD: usize = 2048;

/// Execute two closures, potentially in parallel (thin wrapper over
/// `rayon::join` so that index crates depend only on this substrate). The
/// fork rides the worker pool's task deques: unstolen forks run inline on
/// the caller after a push/pop pair, stolen ones keep the caller stealing
/// other tasks instead of blocking, so `par2` recursions of any depth never
/// spawn OS threads or idle a core.
#[inline]
pub fn par2<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    rayon::join(a, b)
}

/// Parallel for over `0..n` in index chunks of at most `grain`, calling
/// `f(range)` for each chunk. Chunks are distributed over the rayon worker
/// pool (grain-sized claiming with steal-on-idle), so uneven per-chunk costs
/// rebalance across threads; consecutive chunks claimed by one worker run
/// back-to-back, preserving locality.
pub fn par_chunks<F>(n: usize, grain: usize, f: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    let grain = grain.max(1);
    let nchunks = n.div_ceil(grain);
    (0..nchunks).into_par_iter().for_each(|c| {
        let lo = c * grain;
        let hi = (lo + grain).min(n);
        f(lo..hi)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par2_runs_both() {
        let (a, b) = par2(|| 21, || 2);
        assert_eq!(a * b, 42);
    }

    #[test]
    fn par_chunks_covers_every_index_exactly_once() {
        let n = 100_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_chunks(n, 1000, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_chunks_empty_and_tiny() {
        par_chunks(0, 10, |_| panic!("must not be called"));
        let count = AtomicUsize::new(0);
        par_chunks(1, 10, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }
}
