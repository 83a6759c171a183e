//! Criterion micro-benchmarks: index construction across distributions.
//!
//! Complements `psi-bench figures --fig 3` with statistically robust
//! per-operation timings at a smaller scale (fast enough to run in CI).

use criterion::measurement::WallTime;
use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use psi::registry::{self, FamilyVisitor};
use psi::{PointI, RectI, SpatialIndex};
use psi_workloads::{self as workloads, Distribution};
use std::time::Duration;

const N: usize = 50_000;

/// Time one family's `build` over one dataset.
struct Build<'a, 'g> {
    group: &'a mut BenchmarkGroup<'g, WallTime>,
    dist: &'static str,
    data: &'a [PointI<2>],
    universe: &'a RectI<2>,
}

impl FamilyVisitor<2> for Build<'_, '_> {
    type Output = ();
    fn visit<I: SpatialIndex<i64, 2>>(self, name: &'static str) {
        let universe = self.universe;
        self.group
            .bench_with_input(BenchmarkId::new(name, self.dist), self.data, |b, d| {
                b.iter(|| I::build(d, universe))
            });
    }
}

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let universe = workloads::universe::<2>(workloads::DEFAULT_MAX_COORD_2D);

    for dist in Distribution::SYNTHETIC {
        let data = dist.generate::<2>(N, workloads::DEFAULT_MAX_COORD_2D, 42);
        for name in ["p-orth", "spac-h", "spac-z", "cpam-h", "zd", "pkd"] {
            let build = Build {
                group: &mut group,
                dist: dist.name(),
                data: &data,
                universe: &universe,
            };
            registry::with_family(name, build).expect("registered family");
        }
    }
    group.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
