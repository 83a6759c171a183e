//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * **unsorted leaves** — SPaC-trees vs the same tree forced to keep leaves
//!   totally ordered (the CPAM behaviour); the paper's central ablation,
//! * **HybridSort** — sorting `⟨code, id⟩` pairs and gathering the points once
//!   vs sorting full `⟨code, point⟩` records (§4.1),
//! * **λ sweep** — how many levels a single P-Orth sieve pass should build (§C),
//! * **leaf wrap φ sweep** — the block size of the SPaC-tree's leaves (§C).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psi::{HilbertCurve, POrthConfig, POrthTreeGeneric, SpacConfig, SpacHTree, SpacTree};
use psi_workloads::{self as workloads, Distribution};
use std::time::Duration;

const N: usize = 50_000;
const BATCH: usize = 2_000;
const BATCHES: usize = 10;

fn small_group<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    g
}

/// SPaC (unsorted leaves) vs CPAM-style (sorted leaves) under a stream of
/// small batch insertions — the operation the relaxation is designed for.
fn ablation_unsorted_leaves(c: &mut Criterion) {
    let mut group = small_group(c, "ablation_unsorted_leaves");
    let data = Distribution::Uniform.generate::<2>(N, workloads::DEFAULT_MAX_COORD_2D, 42);
    let batches: Vec<Vec<_>> = (0..BATCHES)
        .map(|i| workloads::uniform::<2>(BATCH, workloads::DEFAULT_MAX_COORD_2D, 100 + i as u64))
        .collect();

    for (label, sorted) in [("spac_unsorted", false), ("cpam_sorted", true)] {
        let cfg = SpacConfig {
            sorted_leaves: sorted,
            ..SpacConfig::spac()
        };
        group.bench_function(label, |b| {
            b.iter_batched(
                || SpacTree::<HilbertCurve, 2>::build_with_config(&data, cfg),
                |mut tree| {
                    for batch in &batches {
                        tree.batch_insert(batch);
                    }
                    tree.len()
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// HybridSort construction vs precompute-then-sort construction.
fn ablation_hybridsort(c: &mut Criterion) {
    let mut group = small_group(c, "ablation_hybridsort");
    let data = Distribution::Uniform.generate::<2>(N * 2, workloads::DEFAULT_MAX_COORD_2D, 43);

    for (label, presort) in [("hybrid_sort", false), ("presort", true)] {
        let cfg = SpacConfig {
            presort,
            ..SpacConfig::spac()
        };
        group.bench_with_input(BenchmarkId::new(label, data.len()), &data, |b, d| {
            b.iter(|| SpacTree::<HilbertCurve, 2>::build_with_config(d, cfg).len())
        });
    }
    group.finish();
}

/// P-Orth skeleton depth λ: how many tree levels one sieve pass builds.
fn ablation_lambda(c: &mut Criterion) {
    let mut group = small_group(c, "ablation_porth_lambda");
    let data = Distribution::Uniform.generate::<2>(N * 2, workloads::DEFAULT_MAX_COORD_2D, 44);
    let universe = workloads::universe::<2>(workloads::DEFAULT_MAX_COORD_2D);

    for lambda in [1usize, 2, 3, 4] {
        let cfg = POrthConfig {
            skeleton_levels: lambda,
            ..POrthConfig::for_dim(2)
        };
        group.bench_with_input(BenchmarkId::new("build", lambda), &data, |b, d| {
            b.iter(|| POrthTreeGeneric::build_with_config(d, universe, cfg).len())
        });
    }
    group.finish();
}

/// SPaC leaf-wrap φ: larger blocks mean fewer interior nodes but more scanning.
fn ablation_leafwrap(c: &mut Criterion) {
    let mut group = small_group(c, "ablation_spac_leafwrap");
    let data = Distribution::Uniform.generate::<2>(N, workloads::DEFAULT_MAX_COORD_2D, 45);
    let queries = workloads::ind_queries(&data, 200, 46);

    for phi in [8usize, 16, 40, 128] {
        let cfg = SpacConfig {
            leaf_cap: phi,
            ..SpacConfig::spac()
        };
        let tree = SpacTree::<HilbertCurve, 2>::build_with_config(&data, cfg);
        group.bench_with_input(BenchmarkId::new("knn10", phi), &queries, |b, qs| {
            b.iter(|| qs.iter().map(|q| tree.knn(q, 10).len()).sum::<usize>())
        });
    }
    // Keep the default-configured type alias exercised.
    let _ = SpacHTree::<2>::build(&data[..100]);
    group.finish();
}

criterion_group!(
    benches,
    ablation_unsorted_leaves,
    ablation_hybridsort,
    ablation_lambda,
    ablation_leafwrap
);
criterion_main!(benches);
