//! Criterion micro-benchmarks: single batch insertion and deletion into an
//! existing tree (the paper's headline operation).

use criterion::measurement::WallTime;
use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use psi::registry::{self, FamilyVisitor};
use psi::{PointI, RectI, SpatialIndex};
use psi_workloads::{self as workloads, Distribution};
use std::time::Duration;

const N: usize = 50_000;
const BATCH: usize = 5_000;

/// Time one family's batch insertion (`insert`) or deletion of `batch` into
/// a fresh build over `data`.
struct Update<'a, 'g> {
    group: &'a mut BenchmarkGroup<'g, WallTime>,
    dist: &'static str,
    data: &'a [PointI<2>],
    batch: &'a [PointI<2>],
    universe: &'a RectI<2>,
    insert: bool,
}

impl FamilyVisitor<2> for Update<'_, '_> {
    type Output = ();
    fn visit<I: SpatialIndex<i64, 2>>(self, name: &'static str) {
        let (batch, universe, insert) = (self.batch, self.universe, self.insert);
        self.group
            .bench_with_input(BenchmarkId::new(name, self.dist), self.data, |b, d| {
                b.iter_batched(
                    || I::build(d, universe),
                    |mut index| {
                        if insert {
                            index.batch_insert(batch);
                        } else {
                            index.batch_delete(batch);
                        }
                    },
                    criterion::BatchSize::LargeInput,
                )
            });
    }
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_insert");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let universe = workloads::universe::<2>(workloads::DEFAULT_MAX_COORD_2D);

    for dist in [Distribution::Uniform, Distribution::Varden] {
        let data = dist.generate::<2>(N, workloads::DEFAULT_MAX_COORD_2D, 42);
        let batch = dist.generate::<2>(BATCH, workloads::DEFAULT_MAX_COORD_2D, 77);
        for name in ["p-orth", "spac-h", "spac-z", "zd", "pkd"] {
            let update = Update {
                group: &mut group,
                dist: dist.name(),
                data: &data,
                batch: &batch,
                universe: &universe,
                insert: true,
            };
            registry::with_family(name, update).expect("registered family");
        }
    }
    group.finish();
}

fn bench_delete(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_delete");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let universe = workloads::universe::<2>(workloads::DEFAULT_MAX_COORD_2D);

    for dist in [Distribution::Uniform, Distribution::Varden] {
        let data = dist.generate::<2>(N, workloads::DEFAULT_MAX_COORD_2D, 42);
        for name in ["p-orth", "spac-h", "pkd"] {
            let update = Update {
                group: &mut group,
                dist: dist.name(),
                data: &data,
                batch: &data[..BATCH],
                universe: &universe,
                insert: false,
            };
            registry::with_family(name, update).expect("registered family");
        }
    }
    group.finish();
}

criterion_group!(benches, bench_insert, bench_delete);
criterion_main!(benches);
