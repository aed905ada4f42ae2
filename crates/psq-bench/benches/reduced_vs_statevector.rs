//! Criterion bench contrasting the two simulators on the same partial-search
//! workload: the full state-vector simulator (cost grows linearly in `N` per
//! iteration) versus the block-symmetric reduced simulator (three amplitudes,
//! cost independent of `N` per iteration).  This quantifies the substitution
//! argument in ARCHITECTURE.md ("Simulation: structure-of-arrays, fused
//! sweeps", on `ReducedState`): the reduced simulator is what makes the
//! paper's asymptotic claims checkable at `N = 2^40` and beyond.

// The criterion_group!/criterion_main! macros expand to undocumented
// functions; the workspace-level missing_docs lint does not apply to them.
#![allow(missing_docs)]

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use psq_partial::algorithm::PartialSearch;
use psq_sim::oracle::{Database, Partition};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_statevector_partial(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulators/statevector_partial_search");
    group.sample_size(10);
    for exp in [12u32, 16, 20] {
        let n = 1u64 << exp;
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("2^{exp}")),
            &n,
            |b, &n| {
                let db = Database::new(n, n - 1);
                let partition = Partition::new(n, 8);
                let search = PartialSearch::new();
                let mut rng = StdRng::seed_from_u64(9);
                b.iter(|| {
                    db.reset_queries();
                    black_box(
                        search
                            .run_statevector(&db, &partition, &mut rng)
                            .success_probability,
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_reduced_partial(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulators/reduced_partial_search");
    for exp in [20u32, 30, 40, 50, 60] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("2^{exp}")),
            &exp,
            |b, &exp| {
                let n = (1u64 << exp.min(62)) as f64;
                let search = PartialSearch::new();
                b.iter(|| black_box(search.run_reduced(black_box(n), 8.0).success_probability))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_statevector_partial, bench_reduced_partial);
criterion_main!(benches);
