//! Parallel throughput sweep — batch queries, index construction and batch
//! updates.
//!
//! For every index family in the runtime registry, this binary
//!
//! 1. runs `knn_batch` and `range_count_batch` under rayon pools of 1, 2, 4
//!    and `current_num_threads()` workers and writes the per-family
//!    throughput table to `BENCH_parallel.json` (see `--out`), and
//! 2. runs the family's full **construction** (`registry::create`, i.e.
//!    `build_with` under the hood — the deep fork-join recursions the
//!    task-deque executor exists for) under the same thread counts, then
//!    one **update round** on the built index (a [`UPDATE_BATCH`]-point
//!    `batch_delete` followed by as large a `batch_insert`), and writes both to
//!    `BENCH_build.json` (see `--build-out`).
//!
//! Every thread count must produce **bit-identical** query answers to the
//! single-thread run — after the build and again after the update rounds
//! the index is probed (kNN, and `range_list` compared in order) and its
//! answers compared, so a scheduling-dependent build or update fails the
//! binary, not just skews a number. Thread counts above the machine's core
//! count still run (the shim pool oversubscribes, as upstream rayon does)
//! but cannot show real speedup.
//!
//! Usage:
//! `cargo run --release -p psi-bench --bin bench_parallel [-- --n 200000 --queries 20000 --ranges 2000 --reps 3 --out BENCH_parallel.json --build-out BENCH_build.json]`

use psi::registry::{self, BuildOptions, DynIndex};
use psi_bench::BenchConfig;
use psi_workloads as workloads;
use std::time::Instant;

/// One measured operating point.
struct Sample {
    threads: usize,
    secs: f64,
    qps: f64,
}

fn with_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build rayon pool")
        .install(f)
}

fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 4, rayon::current_num_threads().max(1)];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Points one update round deletes and inserts: above the sequential grain
/// ([`psi_parutils::SEQ_THRESHOLD`], 2 048) so the update recursions fork
/// at their top levels, which is the parallel path the sweep is there to time.
const UPDATE_BATCH: usize = 5_000;

/// Best-of-`reps` wall-clock of `op`, with one untimed warmup.
fn time_best<R>(reps: usize, mut op: impl FnMut() -> R) -> (f64, R) {
    let mut result = op();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        result = op();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, result)
}

fn json_samples(samples: &[Sample]) -> String {
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "{{\"threads\": {}, \"secs\": {:.6}, \"qps\": {:.1}}}",
                s.threads, s.secs, s.qps
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

fn speedup(samples: &[Sample]) -> f64 {
    let t1 = samples
        .iter()
        .find(|s| s.threads == 1)
        .map_or(0.0, |s| s.qps);
    let best = samples.iter().map(|s| s.qps).fold(0.0f64, f64::max);
    if t1 > 0.0 {
        best / t1
    } else {
        0.0
    }
}

fn parse_extra_args() -> (usize, String, String) {
    let args: Vec<String> = std::env::args().collect();
    let mut reps = 3usize;
    let mut out = "BENCH_parallel.json".to_string();
    let mut build_out = "BENCH_build.json".to_string();
    let mut i = 1;
    while i + 1 < args.len() {
        match args[i].as_str() {
            "--reps" => reps = args[i + 1].parse().expect("--reps expects an integer"),
            "--out" => out = args[i + 1].clone(),
            "--build-out" => build_out = args[i + 1].clone(),
            _ => {
                i += 1;
                continue;
            }
        }
        i += 2;
    }
    (reps, out, build_out)
}

fn main() {
    let cfg = BenchConfig {
        knn_queries: 20_000,
        range_queries: 2_000,
        ..BenchConfig::default_2d()
    }
    .from_args();
    let (reps, out_path, build_out_path) = parse_extra_args();

    let data = workloads::uniform::<2>(cfg.n, cfg.max_coord, cfg.seed);
    let qs = cfg.query_set(&data);
    let opts = BuildOptions::<i64, 2>::with_universe(cfg.universe::<2>());
    let counts = thread_counts();

    println!(
        "# bench_parallel: n = {}, knn queries = {} (k = {}), range queries = {}, threads = {:?} (machine: {})",
        cfg.n,
        qs.knn_ind.len(),
        cfg.k,
        qs.ranges.len(),
        counts,
        rayon::current_num_threads()
    );

    let mut family_blocks: Vec<String> = Vec::new();
    for &name in registry::names() {
        let index: Box<dyn DynIndex<i64, 2>> =
            registry::create::<2>(name, &data, &opts).expect("registry families all build");

        let mut knn_samples: Vec<Sample> = Vec::new();
        let mut range_samples: Vec<Sample> = Vec::new();
        let mut knn_reference = None;
        let mut range_reference = None;
        let mut identical = true;

        for &t in &counts {
            let (knn_secs, knn_out) = with_pool(t, || {
                time_best(reps, || index.knn_batch(&qs.knn_ind, cfg.k))
            });
            let (range_secs, range_out) = with_pool(t, || {
                time_best(reps, || index.range_count_batch(&qs.ranges))
            });
            match &knn_reference {
                None => knn_reference = Some(knn_out),
                Some(r) => identical &= *r == knn_out,
            }
            match &range_reference {
                None => range_reference = Some(range_out),
                Some(r) => identical &= *r == range_out,
            }
            knn_samples.push(Sample {
                threads: t,
                secs: knn_secs,
                qps: qs.knn_ind.len() as f64 / knn_secs,
            });
            range_samples.push(Sample {
                threads: t,
                secs: range_secs,
                qps: qs.ranges.len() as f64 / range_secs,
            });
            println!(
                "{:<12} threads={:<3} knn_batch={:>9.4}s ({:>10.0} q/s)  range_count_batch={:>9.4}s ({:>10.0} q/s)",
                name,
                t,
                knn_secs,
                qs.knn_ind.len() as f64 / knn_secs,
                range_secs,
                qs.ranges.len() as f64 / range_secs,
            );
        }
        assert!(
            identical,
            "{name}: parallel results must be bit-identical to single-thread"
        );
        family_blocks.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"knn_batch\": {},\n      \"range_count_batch\": {},\n      \"speedup_knn_best_vs_1\": {:.2},\n      \"speedup_range_best_vs_1\": {:.2},\n      \"identical_to_sequential\": true\n    }}",
            name,
            json_samples(&knn_samples),
            json_samples(&range_samples),
            speedup(&knn_samples),
            speedup(&range_samples),
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"parallel_batch_queries\",\n  {},\n  \"n\": {},\n  \"knn_queries\": {},\n  \"k\": {},\n  \"range_queries\": {},\n  \"reps\": {},\n  \"note\": \"best-of-reps wall clock; qps = queries per second; thread counts above machine_threads oversubscribe and cannot speed up\",\n  \"indexes\": [\n{}\n  ]\n}}\n",
        psi_bench::host_meta_json(),
        cfg.n,
        qs.knn_ind.len(),
        cfg.k,
        qs.ranges.len(),
        reps,
        family_blocks.join(",\n")
    );
    std::fs::write(&out_path, json).expect("failed to write benchmark output");
    println!("# wrote {out_path}");

    // ---------------------------------------------------------------------
    // Construction + update sweep: full `build_with` per family per thread
    // count — the deep fork-join recursions the task-deque executor
    // accelerates — then update rounds on the built index. A round deletes
    // `UPDATE_BATCH` points and inserts as many fresh ones; rounds alternate
    // which of the two sets they delete, so every round starts from n
    // points and every thread count applies the same sequence.
    // ---------------------------------------------------------------------
    let probe_queries = &qs.knn_ind[..qs.knn_ind.len().min(1_000)];
    let probe_ranges = &qs.ranges[..qs.ranges.len().min(200)];
    let moved = UPDATE_BATCH.min(cfg.n);
    let sample = &data[..moved];
    let fresh = workloads::uniform::<2>(moved, cfg.max_coord, cfg.seed ^ 0x5eed);
    let mut build_blocks: Vec<String> = Vec::new();
    for &name in registry::names() {
        let mut build_samples: Vec<Sample> = Vec::new();
        let mut update_samples: Vec<Sample> = Vec::new();
        let mut reference = None;
        let mut identical = true;
        for &t in &counts {
            let (build_secs, mut index) = with_pool(t, || {
                time_best(reps, || {
                    registry::create::<2>(name, &data, &opts).expect("registry families all build")
                })
            });
            // A build must be deterministic across thread counts: probe the
            // built structure and require identical answers.
            let built = index.knn_batch(probe_queries, cfg.k);
            let (update_secs, _) = with_pool(t, || {
                let mut flip = false;
                time_best(reps, || {
                    let (delete, insert) = if flip {
                        (&fresh[..], sample)
                    } else {
                        (sample, &fresh[..])
                    };
                    flip = !flip;
                    index.batch_delete(delete);
                    index.batch_insert(insert);
                })
            });
            let probe = (
                built,
                index.len(),
                index.knn_batch(probe_queries, cfg.k),
                index.range_list_batch(probe_ranges),
            );
            match &reference {
                None => reference = Some(probe),
                Some(r) => identical &= *r == probe,
            }
            build_samples.push(Sample {
                threads: t,
                secs: build_secs,
                qps: cfg.n as f64 / build_secs,
            });
            update_samples.push(Sample {
                threads: t,
                secs: update_secs,
                qps: (2 * moved) as f64 / update_secs,
            });
            println!(
                "{:<12} threads={:<3} build={:>9.4}s ({:>12.0} points/s)  update={:>9.4}s ({:>12.0} points/s)",
                name,
                t,
                build_secs,
                cfg.n as f64 / build_secs,
                update_secs,
                (2 * moved) as f64 / update_secs,
            );
        }
        assert!(
            identical,
            "{name}: builds and updates must answer identically across thread counts"
        );
        build_blocks.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"build\": {},\n      \"update\": {},\n      \"speedup_build_best_vs_1\": {:.2},\n      \"speedup_update_best_vs_1\": {:.2},\n      \"identical_across_threads\": true\n    }}",
            name,
            json_samples(&build_samples),
            json_samples(&update_samples),
            speedup(&build_samples),
            speedup(&update_samples),
        ));
    }

    let build_json = format!(
        "{{\n  \"bench\": \"parallel_construction_and_update\",\n  {},\n  \"n\": {},\n  \"update_points_moved\": {},\n  \"reps\": {},\n  \"note\": \"best-of-reps wall clock; build = registry::create (full build_with), qps = points indexed per second; update = one round of batch_delete of update_points_moved points then batch_insert of as many, qps = points deleted + inserted per second; thread counts above machine_threads oversubscribe and cannot speed up\",\n  \"indexes\": [\n{}\n  ]\n}}\n",
        psi_bench::host_meta_json(),
        cfg.n,
        moved,
        reps,
        build_blocks.join(",\n")
    );
    std::fs::write(&build_out_path, build_json).expect("failed to write build benchmark output");
    println!("# wrote {build_out_path}");
}
