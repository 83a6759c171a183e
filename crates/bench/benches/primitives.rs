//! Criterion micro-benchmarks of the parallel-primitives substrate: the SFC
//! codecs, the sieve, and the sorting routines every index is built from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psi::{HilbertCurve, MortonCurve, Point, PointI, SfcCurve};
use psi_parutils::{exclusive_scan, hybrid_sort_keys, par_integer_sort, sieve_by};
use psi_sfc::hilbert::skilling_key;
use psi_workloads as workloads;
use std::time::Duration;

fn bench_sfc(c: &mut Criterion) {
    let mut group = c.benchmark_group("sfc_encode");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    let pts: Vec<PointI<2>> = workloads::uniform::<2>(100_000, workloads::DEFAULT_MAX_COORD_2D, 1);
    group.bench_function("morton2", |b| {
        b.iter(|| {
            pts.iter()
                .map(<MortonCurve as SfcCurve<2>>::encode)
                .fold(0u64, u64::wrapping_add)
        })
    });
    group.bench_function("hilbert2", |b| {
        b.iter(|| {
            pts.iter()
                .map(<HilbertCurve as SfcCurve<2>>::encode)
                .fold(0u64, u64::wrapping_add)
        })
    });
    // Skilling's transform, the reference the table-driven Hilbert encoder is
    // checked against, on the same points.
    group.bench_function("hilbert2_skilling", |b| {
        b.iter(|| {
            pts.iter()
                .map(|p| skilling_key::<2>(p.coords.map(|c| c as u32), 32))
                .fold(0u64, u64::wrapping_add)
        })
    });
    let pts3: Vec<PointI<3>> = workloads::uniform::<3>(100_000, workloads::DEFAULT_MAX_COORD_3D, 1);
    group.bench_function("morton3", |b| {
        b.iter(|| {
            pts3.iter()
                .map(<MortonCurve as SfcCurve<3>>::encode)
                .fold(0u64, u64::wrapping_add)
        })
    });
    group.bench_function("hilbert3", |b| {
        b.iter(|| {
            pts3.iter()
                .map(<HilbertCurve as SfcCurve<3>>::encode)
                .fold(0u64, u64::wrapping_add)
        })
    });
    group.bench_function("hilbert3_skilling", |b| {
        b.iter(|| {
            pts3.iter()
                .map(|p| skilling_key::<3>(p.coords.map(|c| c as u32), 21))
                .fold(0u64, u64::wrapping_add)
        })
    });
    group.finish();
}

fn bench_sieve_and_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitives");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));

    let data: Vec<u64> = (0..400_000u64)
        .map(|i| i.wrapping_mul(2654435761))
        .collect();

    for nbuckets in [4usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("sieve", nbuckets), &nbuckets, |b, &nb| {
            b.iter_batched(
                || data.clone(),
                |mut v| sieve_by(&mut v, nb, |x| (*x as usize) % nb),
                criterion::BatchSize::LargeInput,
            )
        });
    }

    group.bench_function("par_integer_sort", |b| {
        b.iter_batched(
            || data.clone(),
            |mut v| par_integer_sort(&mut v, |x| *x, |x| *x),
            criterion::BatchSize::LargeInput,
        )
    });

    // Uniform and clustered points: on Varden the integer sort's buckets go
    // heavy and recurse on further digits.
    for (name, points) in [
        (
            "uniform",
            workloads::uniform::<2>(200_000, workloads::DEFAULT_MAX_COORD_2D, 3),
        ),
        (
            "varden",
            workloads::varden::<2>(200_000, workloads::DEFAULT_MAX_COORD_2D, 3),
        ),
    ] {
        group.bench_with_input(
            BenchmarkId::new("hybrid_sort_keys_hilbert", name),
            &points,
            |b, points: &Vec<PointI<2>>| {
                b.iter(|| hybrid_sort_keys(points, <HilbertCurve as SfcCurve<2>>::encode))
            },
        );
    }

    let counts: Vec<usize> = (0..1_000_000).map(|i| i % 7).collect();
    group.bench_function("exclusive_scan_1M", |b| b.iter(|| exclusive_scan(&counts)));

    // Keep the Point type in use so the import is exercised even if the
    // benchmark set shrinks during tuning.
    let _ = Point::new([0i64, 0]);
    group.finish();
}

criterion_group!(benches, bench_sfc, bench_sieve_and_sort);
criterion_main!(benches);
