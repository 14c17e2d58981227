//! The optimized multi-interval exact solver vs the brute-force
//! reference, per objective, on the scaled banded bench family.
//!
//! The acceptance claim behind `SolverKind::MultiExact` is a ≥ 2× median
//! win over the `brute_force` path at bit-identical optima; the
//! differential suite proves the equality, this group measures the win
//! solver-by-solver (the engine-level view lives in `bench_engine` /
//! `BENCH_engine.json`). Each iteration asserts the two solvers agree so
//! a miscompiled speedup can never be reported silently.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gaps_core::instance::MultiInstance;
use gaps_core::multi_exact::MultiObjective;
use gaps_core::{brute_force, multi_exact};
use gaps_workloads::multi_interval;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// One instance per banded shape, fixed seeds: identical inputs for both
/// solvers across runs.
fn family() -> Vec<(&'static str, MultiInstance)> {
    let mut rng = StdRng::seed_from_u64(0x4D17B);
    vec![
        ("n12/bands4", multi_interval::banded(&mut rng, 12, 4, 5, 3)),
        ("n14/bands3", multi_interval::banded(&mut rng, 14, 3, 8, 2)),
        ("n14/bands2", multi_interval::banded(&mut rng, 14, 2, 9, 2)),
    ]
}

fn bench_multi_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("multi_exact");
    for (label, inst) in family() {
        let gaps = multi_exact::min_gaps_multi(&inst).map(|(v, _)| v);
        assert_eq!(
            gaps,
            brute_force::min_gaps_multi(&inst).map(|(v, _)| v),
            "optima diverged on {label}"
        );
        group.bench_with_input(BenchmarkId::new("gaps", label), &inst, |b, inst| {
            b.iter(|| multi_exact::min_gaps_multi(inst))
        });
        group.bench_with_input(BenchmarkId::new("power_a2", label), &inst, |b, inst| {
            b.iter(|| multi_exact::min_power_multi(inst, 2))
        });
        group.bench_with_input(
            BenchmarkId::new("brute_force_gaps", label),
            &inst,
            |b, inst| b.iter(|| brute_force::min_gaps_multi(inst)),
        );
    }
    group.finish();
}

/// PR-10 lever (a): dead-zone decomposition. Clustered instances whose
/// uncrossed zones peel into independent searches; the decomposed
/// production path vs a monolithic search over the identical instance.
fn bench_decomposable(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xDEC0B);
    let mut group = c.benchmark_group("multi_exact_decomposable");
    for (label, inst) in [
        ("c3n18", multi_interval::clustered(&mut rng, 3, 6, 8, 2, 5)),
        ("c4n24", multi_interval::clustered(&mut rng, 4, 6, 8, 2, 5)),
    ] {
        let (dec, stats) = multi_exact::solve_multi_stats(&inst, MultiObjective::Gaps);
        assert!(stats.component_jobs.len() >= 3, "{label} failed to peel");
        assert_eq!(
            dec.as_ref().map(|(v, _)| *v),
            multi_exact::solve_multi_undecomposed(&inst, MultiObjective::Gaps).map(|(v, _)| v),
            "optima diverged on {label}"
        );
        group.bench_with_input(BenchmarkId::new("decomposed", label), &inst, |b, inst| {
            b.iter(|| multi_exact::solve_multi_stats(inst, MultiObjective::Gaps))
        });
        group.bench_with_input(BenchmarkId::new("undecomposed", label), &inst, |b, inst| {
            b.iter(|| multi_exact::solve_multi_undecomposed(inst, MultiObjective::Gaps))
        });
    }
    group.finish();
}

/// The branch-and-bound on coupled cores decomposition cannot split.
/// `n18` is the shape of `serve_mixed_open`'s heavy requests. Every
/// iteration asserts the first solve's value *and* schedule, so the CI
/// smoke run re-checks that the solve is deterministic.
fn bench_coupled_core(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xC09EB);
    let mut group = c.benchmark_group("multi_exact_coupled");
    for (label, inst) in [
        ("n18", multi_interval::banded(&mut rng, 18, 3, 8, 2)),
        ("n20", multi_interval::banded(&mut rng, 20, 3, 8, 2)),
    ] {
        let (reference, stats) = multi_exact::solve_multi_stats(&inst, MultiObjective::Gaps);
        assert!(stats.nodes_expanded > 0, "{label} must open the search");
        group.bench_with_input(BenchmarkId::new("sequential", label), &inst, |b, inst| {
            b.iter(|| {
                let (res, _) = multi_exact::solve_multi_stats(inst, MultiObjective::Gaps);
                assert_eq!(res, reference, "sequential solve is not deterministic");
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(300));
    targets = bench_multi_exact, bench_decomposable, bench_coupled_core
}
criterion_main!(benches);
