//! Semantics battery for the real parallel executor behind the rayon shim
//! (PR 2): for every prelude combinator the workspace uses, parallel
//! execution must (a) produce results identical to sequential execution,
//! (b) actually place work on more than one thread when more than one is
//! allowed, (c) propagate worker panics to the caller, and (d) degrade to
//! pure sequential execution under `ThreadPool::install(1)`.
//!
//! The fork-join section at the bottom stresses the task-deque executor
//! behind `join`/`scope` (PR 4): recursion depth far beyond the thread
//! count, join-inside-`par_iter`-inside-join nesting, panics in stolen
//! tasks, strict sequentiality under `install(1)`, and — the headline
//! contract — zero OS threads spawned per `join` once the pool is warm.
//!
//! The thread-count override is process-global (as upstream rayon's global
//! pool is), so every test that installs one serialises on [`override_lock`].

use psi::registry::{self, BuildOptions};
use psi::{PointI, SpatialIndex, ZdTree};
use psi_parutils::{exclusive_scan, hybrid_sort_keys, par_chunks, par_integer_sort, sieve_by};
use psi_workloads as workloads;
use rayon::prelude::*;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

fn override_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn with_threads<R>(t: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(t)
        .build()
        .unwrap()
        .install(f)
}

// ---------------------------------------------------------------------------
// (a) Parallel results are identical to sequential results.
// ---------------------------------------------------------------------------

/// Run the same combinator workload under 1 and 4 threads and require equal
/// outputs; returns the sequential output for further checks.
fn assert_thread_invariant<R: PartialEq + std::fmt::Debug + Send>(
    workload: impl Fn() -> R + Send + Sync,
) -> R {
    let _g = override_lock();
    let seq = with_threads(1, &workload);
    let par = with_threads(4, &workload);
    assert_eq!(seq, par, "parallel result differs from sequential");
    seq
}

#[test]
fn map_collect_matches_sequential() {
    let v: Vec<u64> = (0..100_000).map(|i| i * 37 % 1_000).collect();
    let out = assert_thread_invariant(|| v.par_iter().map(|x| x * 3 + 1).collect::<Vec<u64>>());
    assert_eq!(out.len(), v.len());
    assert_eq!(out[17], v[17] * 3 + 1);
}

#[test]
fn sum_matches_sequential() {
    let v: Vec<u64> = (0..123_457).collect();
    let s = assert_thread_invariant(|| v.par_iter().map(|&x| x).sum::<u64>());
    assert_eq!(s, 123_456 * 123_457 / 2);
}

#[test]
fn zip_enumerate_for_each_matches_sequential() {
    let n = 54_321;
    let a: Vec<u32> = (0..n as u32).collect();
    let out = assert_thread_invariant(|| {
        let mut b = vec![0u64; n];
        a.par_chunks(1000)
            .zip(b.par_chunks_mut(1000))
            .enumerate()
            .for_each(|(ci, (src, dst))| {
                for (s, d) in src.iter().zip(dst.iter_mut()) {
                    *d = *s as u64 + ci as u64;
                }
            });
        b
    });
    assert_eq!(out[1000], 1001); // chunk 1, value 1000 + 1
}

#[test]
fn map_init_results_do_not_depend_on_worker_assignment() {
    let out = assert_thread_invariant(|| {
        (0..40_000usize)
            .into_par_iter()
            .map_init(Vec::<usize>::new, |scratch, i| {
                // A correct map_init user resets its scratch per item;
                // the result must not observe other items' history.
                scratch.clear();
                scratch.extend([i, i + 1]);
                scratch.iter().sum::<usize>()
            })
            .collect::<Vec<usize>>()
    });
    assert!(out.iter().enumerate().all(|(i, &x)| x == 2 * i + 1));
}

#[test]
fn flat_map_iter_matches_sequential() {
    let out = assert_thread_invariant(|| {
        (0..5_000usize)
            .into_par_iter()
            .flat_map_iter(|i| (0..i % 4).map(move |j| i * 10 + j))
            .collect::<Vec<usize>>()
    });
    let expect: Vec<usize> = (0..5_000)
        .flat_map(|i| (0..i % 4).map(move |j| i * 10 + j))
        .collect();
    assert_eq!(out, expect);
}

#[test]
fn par_sort_matches_sequential_and_is_stable() {
    let v: Vec<(u32, u32)> = (0..150_000u32).map(|i| (i % 97, i)).collect();
    let sorted = assert_thread_invariant(|| {
        let mut w = v.clone();
        w.par_sort_by_key(|e| e.0);
        w
    });
    let mut expect = v.clone();
    expect.sort_by_key(|e| e.0);
    // Stable: ties keep input order, so the full tuples match.
    assert_eq!(sorted, expect);
}

#[test]
fn parutils_primitives_match_sequential() {
    let v: Vec<u64> = (0..80_000).map(|i| (i * 2654435761u64) % 10_007).collect();
    // par_integer_sort (MSD integer sort over pool + join).
    let sorted = assert_thread_invariant(|| {
        let mut w = v.clone();
        par_integer_sort(&mut w, |&x| x, |&x| x);
        w
    });
    assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    // hybrid_sort_keys.
    let hybrid = assert_thread_invariant(|| hybrid_sort_keys(&v, |&p| p.rotate_left(9)));
    assert_eq!(hybrid.len(), v.len());
    // exclusive_scan.
    let counts: Vec<usize> = (0..30_000).map(|i| i % 7).collect();
    let scanned = assert_thread_invariant(|| exclusive_scan(&counts));
    assert_eq!(scanned.0[1], counts[0]);
    // sieve_by (stable bucket distribution).
    let sieved = assert_thread_invariant(|| {
        let mut w = v.clone();
        let offsets = sieve_by(&mut w, 13, |x| (*x % 13) as usize);
        (w, offsets)
    });
    assert_eq!(sieved.1.len(), 14);
    // par_chunks covers every index exactly once.
    let _g = override_lock();
    with_threads(4, || {
        let n = 100_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_chunks(n, 1024, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    });
}

#[test]
fn batch_queries_identical_across_thread_counts_for_registry_families() {
    let data = workloads::uniform::<2>(20_000, 100_000, 11);
    let queries = workloads::ind_queries(&data, 500, 12);
    let ranges = workloads::range_queries(&data, 100_000, 200, 100, 13);
    let opts = BuildOptions::<i64, 2>::with_universe(workloads::universe::<2>(100_000));
    for name in registry::names() {
        let index = registry::create::<2>(name, &data, &opts).unwrap();
        let workload = || {
            (
                index.knn_batch(&queries, 7),
                index.range_count_batch(&ranges),
                index.range_list_batch(&ranges),
            )
        };
        let (knn, counts, lists) = assert_thread_invariant(workload);
        assert_eq!(knn.len(), queries.len(), "{name}");
        assert_eq!(counts.len(), ranges.len(), "{name}");
        // range_list and range_count must agree with each other.
        for (c, l) in counts.iter().zip(lists.iter()) {
            assert_eq!(*c, l.len(), "{name}");
        }
    }
}

#[test]
fn index_construction_identical_across_thread_counts() {
    // Builds exercise par_sort / sieve / nested par_iter recursions; the
    // resulting structures must answer queries identically.
    let data = workloads::uniform::<2>(30_000, 50_000, 21);
    let queries = workloads::ind_queries(&data, 200, 22);
    let build_and_probe = || {
        let universe = workloads::universe::<2>(50_000);
        let index = ZdTree::<2>::build_with(&data, Some(&universe), Default::default());
        index.check_invariants();
        index.knn_batch(&queries, 5)
    };
    assert_thread_invariant(build_and_probe);
}

#[test]
fn batch_updates_identical_across_thread_counts() {
    // The same delete + insert sequence at 1, 2 and 4 threads must leave
    // every family answering identically — range_list compared in order,
    // since leaf order shows there. The batches sit on either side of the
    // sequential grain (`SEQ_THRESHOLD` = 2048): 500 points recurse
    // sequentially from the root, 5 000 fork at the top levels.
    let data = workloads::uniform::<2>(20_000, 100_000, 31);
    let fresh = workloads::uniform::<2>(5_500, 100_000, 32);
    let queries = workloads::ind_queries(&data, 200, 33);
    let ranges = workloads::range_queries(&data, 100_000, 100, 100, 34);
    let opts = BuildOptions::<i64, 2>::with_universe(workloads::universe::<2>(100_000));
    let _g = override_lock();
    for name in registry::names() {
        let run = || {
            let mut index = registry::create::<2>(name, &data, &opts).unwrap();
            let mut at = 0;
            for size in [500, 5_000] {
                index.batch_delete(&data[at..at + size]);
                index.batch_insert(&fresh[at..at + size]);
                at += size;
            }
            index.check_invariants();
            (
                index.len(),
                index.knn_batch(&queries, 7),
                index.range_list_batch(&ranges),
            )
        };
        let reference = with_threads(1, run);
        assert_eq!(reference.0, data.len(), "{name}");
        for t in [2, 4] {
            assert!(
                with_threads(t, run) == reference,
                "{name}: updates at {t} threads answer differently from 1 thread"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// (b) Work really lands on more than one thread.
// ---------------------------------------------------------------------------

#[test]
fn work_spreads_across_threads_when_allowed() {
    let _g = override_lock();
    with_threads(4, || {
        for _attempt in 0..5 {
            let ids = Mutex::new(HashSet::new());
            (0..128usize).into_par_iter().with_min_len(1).for_each(|_| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                ids.lock().unwrap().insert(std::thread::current().id());
            });
            if ids.into_inner().unwrap().len() > 1 {
                return;
            }
        }
        panic!("no pool worker ever participated across 5 attempts");
    });
}

#[test]
fn map_init_creates_at_most_one_state_per_worker() {
    let _g = override_lock();
    with_threads(4, || {
        let inits = AtomicUsize::new(0);
        let out: Vec<usize> = (0..20_000usize)
            .into_par_iter()
            .map_init(|| inits.fetch_add(1, Ordering::Relaxed), |_, i| i)
            .collect();
        assert_eq!(out.len(), 20_000);
        let done = inits.load(Ordering::Relaxed);
        assert!(
            (1..=4).contains(&done),
            "expected 1..=4 init calls (one per participating worker), got {done}"
        );
    });
}

// ---------------------------------------------------------------------------
// (c) Panics in worker closures propagate to the caller.
// ---------------------------------------------------------------------------

#[test]
fn for_each_panic_propagates() {
    let _g = override_lock();
    for threads in [1, 4] {
        with_threads(threads, || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                (0..10_000usize).into_par_iter().for_each(|i| {
                    if i == 7_431 {
                        panic!("deliberate worker panic");
                    }
                });
            }));
            assert!(result.is_err(), "panic swallowed at {threads} threads");
        });
    }
}

#[test]
fn map_init_and_collect_panics_propagate_and_pool_survives() {
    let _g = override_lock();
    with_threads(4, || {
        let result = catch_unwind(AssertUnwindSafe(|| {
            (0..10_000usize)
                .into_par_iter()
                .map_init(
                    || (),
                    |_, i| {
                        if i == 2_222 {
                            panic!("map_init body panic");
                        }
                        i
                    },
                )
                .collect::<Vec<usize>>()
        }));
        assert!(result.is_err());
        // The executor must remain usable after an unwound job.
        let s: usize = (0..1_000usize).into_par_iter().sum();
        assert_eq!(s, 999 * 1_000 / 2);
    });
}

// ---------------------------------------------------------------------------
// (d) install(1) forces sequential execution on the calling thread.
// ---------------------------------------------------------------------------

#[test]
fn install_one_forces_sequential() {
    let _g = override_lock();
    with_threads(1, || {
        assert_eq!(rayon::current_num_threads(), 1);
        let caller = std::thread::current().id();
        let ids = Mutex::new(HashSet::new());
        (0..10_000usize).into_par_iter().for_each(|_| {
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), 1, "install(1) must not fan out");
        assert!(ids.contains(&caller), "work must stay on the caller");
    });
}

// ---------------------------------------------------------------------------
// Nested join under the pool (parutils recursions run inside pool workers).
// ---------------------------------------------------------------------------

#[test]
fn nested_join_under_pool_completes_correctly() {
    fn join_sum(lo: u64, hi: u64) -> u64 {
        if hi - lo < 1_000 {
            (lo..hi).sum()
        } else {
            let mid = lo + (hi - lo) / 2;
            let (a, b) = rayon::join(|| join_sum(lo, mid), || join_sum(mid, hi));
            a + b
        }
    }
    let _g = override_lock();
    with_threads(4, || {
        let sums: Vec<u64> = (0..16usize)
            .into_par_iter()
            .map(|_| join_sum(0, 50_000))
            .collect();
        assert!(sums.iter().all(|&s| s == 49_999 * 50_000 / 2));
    });
}

// ---------------------------------------------------------------------------
// The task-deque fork-join executor (PR 4): join/scope as pool citizens.
// ---------------------------------------------------------------------------

/// Binary fork-join sum over `lo..hi`, splitting down to `grain`-sized
/// leaves — the shape of every tree-build recursion in the workspace.
fn join_tree_sum(lo: u64, hi: u64, grain: u64) -> u64 {
    if hi - lo <= grain {
        (lo..hi).sum()
    } else {
        let mid = lo + (hi - lo) / 2;
        let (a, b) = rayon::join(
            || join_tree_sum(lo, mid, grain),
            || join_tree_sum(mid, hi, grain),
        );
        a + b
    }
}

#[test]
fn deep_join_recursion_far_exceeds_thread_count() {
    let _g = override_lock();
    with_threads(4, || {
        // A linear chain 1 500 forks deep: every level queues a task while
        // only 4 threads exist. The old scoped-thread join either spawned a
        // thread per level or degraded to sequential once its helper budget
        // saturated; the deques must simply absorb the tasks.
        fn chain(depth: usize) -> u64 {
            if depth == 0 {
                return 0;
            }
            let (a, b) = rayon::join(|| chain(depth - 1), || 1u64);
            a + b
        }
        assert_eq!(chain(1_500), 1_500);
        // A wide tree: ~12k forks over a 4-thread budget.
        assert_eq!(join_tree_sum(0, 100_000, 8), 100_000 * 99_999 / 2);
    });
}

#[test]
fn join_inside_par_iter_inside_join_composes() {
    // Three alternating layers of fork-join and data parallelism; the
    // result must be bit-identical across thread counts.
    let expect: u64 = (0..32u64)
        .map(|i| {
            let f = |n: u64| n * (n - 1) / 2;
            f(1_000 + i) + f(2_000 + i)
        })
        .sum();
    let got = assert_thread_invariant(|| {
        let (a, b) = rayon::join(
            || {
                (0..32usize)
                    .into_par_iter()
                    .map(|i| join_tree_sum(0, 1_000 + i as u64, 64))
                    .sum::<u64>()
            },
            || {
                (0..32usize)
                    .into_par_iter()
                    .map(|i| join_tree_sum(0, 2_000 + i as u64, 64))
                    .sum::<u64>()
            },
        );
        a + b
    });
    assert_eq!(got, expect);
}

#[test]
fn panic_in_stolen_join_task_propagates() {
    let _g = override_lock();
    with_threads(4, || {
        // The forked half panics; the slow inline half gives workers every
        // chance to steal it first. Whichever thread ends up running the
        // fork, the payload must re-raise on the caller and the executor
        // must stay usable.
        for _ in 0..10 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                rayon::join(
                    || panic!("boom in forked task"),
                    || std::thread::sleep(std::time::Duration::from_millis(2)),
                );
            }));
            assert!(result.is_err(), "panic in forked half was swallowed");
        }
        assert_eq!(join_tree_sum(0, 10_000, 64), 10_000 * 9_999 / 2);
    });
}

#[test]
fn install_one_forces_sequential_join() {
    let _g = override_lock();
    with_threads(1, || {
        fn rec(lo: u64, hi: u64, ids: &Mutex<HashSet<std::thread::ThreadId>>) -> u64 {
            ids.lock().unwrap().insert(std::thread::current().id());
            if hi - lo <= 32 {
                (lo..hi).sum()
            } else {
                let mid = lo + (hi - lo) / 2;
                let (a, b) = rayon::join(|| rec(lo, mid, ids), || rec(mid, hi, ids));
                a + b
            }
        }
        let caller = std::thread::current().id();
        let ids = Mutex::new(HashSet::new());
        assert_eq!(rec(0, 10_000, &ids), 10_000 * 9_999 / 2);
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), 1, "install(1) joins must not leave the caller");
        assert!(ids.contains(&caller));
    });
}

/// Count this process's live pool worker threads by name (the pool names
/// them `psi-par-<id>`). Returns `None` where /proc is unavailable.
fn pool_worker_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let mut count = 0;
    for entry in tasks.flatten() {
        if let Ok(comm) = std::fs::read_to_string(entry.path().join("comm")) {
            if comm.trim_start().starts_with("psi-par") {
                count += 1;
            }
        }
    }
    Some(count)
}

#[test]
fn join_spawns_no_os_threads_after_warmup() {
    let _g = override_lock();
    // Warm the pool to the largest thread budget this test binary ever
    // installs (other tests use at most 4; the ambient default covers CI
    // matrix runs), so no concurrent test can grow it between our samples.
    let warm = rayon::current_num_threads().max(4);
    with_threads(warm, || {
        (0..1_024usize).into_par_iter().for_each(|_| {});
        let _ = rayon::join(|| 1, || 2);
    });
    let Some(before) = pool_worker_threads() else {
        return; // no /proc: the zero-spawn contract is covered by shim tests
    };
    assert!(before >= 1, "warm-up must have spawned pool workers");
    with_threads(4, || {
        // ~12k joins; under the old executor each fork that won a helper
        // token was one scoped OS thread spawn + teardown.
        assert_eq!(join_tree_sum(0, 100_000, 8), 100_000 * 99_999 / 2);
    });
    let after = pool_worker_threads().expect("/proc disappeared mid-test");
    assert_eq!(
        before, after,
        "join must not spawn or tear down OS threads after pool warm-up"
    );
}

#[test]
fn scope_spawn_rides_the_pool() {
    let _g = override_lock();
    with_threads(4, || {
        let total = AtomicUsize::new(0);
        let tally = &total;
        rayon::scope(|s| {
            for i in 0..64usize {
                s.spawn(move |s| {
                    // Nested spawn from inside a task.
                    s.spawn(move |_| {
                        tally.fetch_add(i, Ordering::Relaxed);
                    });
                    tally.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 64 + (0..64).sum::<usize>());
    });
}

// ---------------------------------------------------------------------------
// Chase-Lev deque hammer (PR 7): drive the lock-free push/pop/steal paths
// through the public fork-join API hard enough that every racy transition —
// single-element pop-vs-steal, ring growth under live tasks, index
// wraparound, ABA-prone slot reuse — happens many times per run. The
// low-level seeded hammers with direct deque access live in the rayon shim's
// unit tests; these end-to-end storms make the same interleavings happen in
// the real pool at every CI thread count.
// ---------------------------------------------------------------------------

/// Deterministic splitmix-style generator for seeded storm shapes.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

#[test]
fn deque_hammer_scope_storm_forces_ring_growth_and_wraparound() {
    let _g = override_lock();
    with_threads(4, || {
        // Each round pushes 4 096 spawns onto the submitter's deque before
        // any meaningful draining starts: the 64-slot initial ring must grow
        // several times while thieves hold live references to the old
        // buffers. Across rounds the top/bottom indices keep advancing, so
        // later rounds exercise the wrapped (idx & mask) slot mapping of the
        // grown rings.
        for round in 0..8u64 {
            let total = AtomicUsize::new(0);
            let tally = &total;
            rayon::scope(|s| {
                for i in 0..4_096usize {
                    s.spawn(move |_| {
                        tally.fetch_add(i ^ (round as usize), Ordering::Relaxed);
                    });
                }
            });
            let expect: usize = (0..4_096).map(|i| i ^ (round as usize)).sum();
            assert_eq!(total.load(Ordering::Relaxed), expect, "round {round}");
        }
    });
}

#[test]
fn deque_hammer_seeded_random_fork_trees_match_across_thread_counts() {
    // Irregular fork trees whose split points and leaf weights come from a
    // fixed seed: uneven subtree sizes maximise steal/pop contention and the
    // empty-deque races, while the seed keeps the expected sum exact.
    fn storm(rng_state: u64, depth: usize) -> u64 {
        let mut rng = Lcg(rng_state);
        if depth == 0 {
            // A tiny, deterministic leaf workload.
            return (0..(rng.next() % 64)).map(|x| x ^ rng_state).sum();
        }
        let (l, r) = (rng.next(), rng.next());
        let (a, b) = rayon::join(|| storm(l, depth - 1), || storm(r, depth - 1));
        a.wrapping_add(b)
    }
    let out = assert_thread_invariant(|| {
        (0..16u64)
            .collect::<Vec<_>>()
            .par_iter()
            .map(|&seed| storm(0x9E37_79B9_7F4A_7C15 ^ seed, 7))
            .collect::<Vec<u64>>()
    });
    assert_eq!(out.len(), 16);
}

#[test]
fn deque_hammer_rapid_tiny_joins_stress_single_element_races() {
    let _g = override_lock();
    with_threads(4, || {
        // Thousands of joins whose forked half is a single trivial task: the
        // owner's pop and a thief's steal race for the same lone element
        // (the CAS-certified bottom==top case) over and over. Running four
        // such streams concurrently keeps the thieves hungry.
        let total: u64 = (0..4usize)
            .into_par_iter()
            .with_min_len(1)
            .map(|lane| {
                let mut acc = 0u64;
                for i in 0..20_000u64 {
                    let (a, b) = rayon::join(|| i ^ lane as u64, || i.wrapping_mul(3));
                    acc = acc.wrapping_add(a ^ b);
                }
                acc
            })
            .sum();
        let expect: u64 = (0..4u64)
            .map(|lane| {
                let mut acc = 0u64;
                for i in 0..20_000u64 {
                    acc = acc.wrapping_add((i ^ lane) ^ i.wrapping_mul(3));
                }
                acc
            })
            .sum();
        assert_eq!(total, expect);
    });
}

// ---------------------------------------------------------------------------
// The caller-owned range_list arena (PR 2 satellite).
// ---------------------------------------------------------------------------

#[test]
fn range_list_into_reuses_the_arena_and_matches_range_list() {
    let data = workloads::uniform::<2>(10_000, 10_000, 31);
    let universe = workloads::universe::<2>(10_000);
    let index = <psi::POrthTree2 as SpatialIndex<i64, 2>>::build(&data, &universe);
    let ranges = workloads::range_queries(&data, 10_000, 500, 50, 32);

    let mut arena: Vec<PointI<2>> = Vec::new();
    let mut max_cap = 0;
    for r in &ranges {
        index.range_list_into(r, &mut arena);
        assert_eq!(arena, index.range_list(r));
        assert_eq!(arena.len(), index.range_count(r));
        // The arena only ever grows: allocations are amortised across queries.
        assert!(arena.capacity() >= max_cap);
        max_cap = max_cap.max(arena.capacity());
    }
}
