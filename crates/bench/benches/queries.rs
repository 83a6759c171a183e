//! Criterion micro-benchmarks: kNN and range queries per index family.

use criterion::measurement::WallTime;
use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use psi::registry::{self, FamilyVisitor};
use psi::{PointI, RectI, SpatialIndex};
use psi_workloads::{self as workloads, Distribution};
use std::time::Duration;

const N: usize = 50_000;
const QUERIES: usize = 200;

/// Time one family's 10-NN queries over one dataset.
struct Knn<'a, 'g> {
    group: &'a mut BenchmarkGroup<'g, WallTime>,
    dist: &'static str,
    data: &'a [PointI<2>],
    queries: &'a [PointI<2>],
    universe: &'a RectI<2>,
}

impl FamilyVisitor<2> for Knn<'_, '_> {
    type Output = ();
    fn visit<I: SpatialIndex<i64, 2>>(self, name: &'static str) {
        let index = I::build(self.data, self.universe);
        self.group
            .bench_with_input(BenchmarkId::new(name, self.dist), self.queries, |b, qs| {
                b.iter(|| qs.iter().map(|q| index.knn(q, 10).len()).sum::<usize>())
            });
    }
}

fn bench_knn(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn10");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let universe = workloads::universe::<2>(workloads::DEFAULT_MAX_COORD_2D);

    for dist in [Distribution::Uniform, Distribution::Varden] {
        let data = dist.generate::<2>(N, workloads::DEFAULT_MAX_COORD_2D, 42);
        let queries = workloads::ind_queries(&data, QUERIES, 7);
        for name in ["p-orth", "spac-h", "spac-z", "zd", "pkd", "r-tree"] {
            let knn = Knn {
                group: &mut group,
                dist: dist.name(),
                data: &data,
                queries: &queries,
                universe: &universe,
            };
            registry::with_family(name, knn).expect("registered family");
        }
    }
    group.finish();
}

/// Time one family's range-list queries.
struct Range<'a, 'g> {
    group: &'a mut BenchmarkGroup<'g, WallTime>,
    data: &'a [PointI<2>],
    ranges: &'a [RectI<2>],
    universe: &'a RectI<2>,
}

impl FamilyVisitor<2> for Range<'_, '_> {
    type Output = ();
    fn visit<I: SpatialIndex<i64, 2>>(self, name: &'static str) {
        let index = I::build(self.data, self.universe);
        let ranges = self.ranges;
        self.group.bench_function(name, |b| {
            b.iter(|| {
                ranges
                    .iter()
                    .map(|r| index.range_list(r).len())
                    .sum::<usize>()
            })
        });
    }
}

fn bench_range(c: &mut Criterion) {
    let mut group = c.benchmark_group("range_list");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let universe = workloads::universe::<2>(workloads::DEFAULT_MAX_COORD_2D);
    let data = Distribution::Uniform.generate::<2>(N, workloads::DEFAULT_MAX_COORD_2D, 42);
    let ranges = workloads::range_queries(&data, workloads::DEFAULT_MAX_COORD_2D, 500, 100, 9);
    for name in ["p-orth", "spac-h", "pkd", "r-tree"] {
        let range = Range {
            group: &mut group,
            data: &data,
            ranges: &ranges,
            universe: &universe,
        };
        registry::with_family(name, range).expect("registered family");
    }
    group.finish();
}

criterion_group!(benches, bench_knn, bench_range);
criterion_main!(benches);
