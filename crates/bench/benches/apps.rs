//! Criterion benches for the benchmark applications themselves: one bench
//! per paper artefact, timing the full regeneration path (table2 / table4 /
//! figure2 data collection) plus the native HPCG solver. The native
//! multigrid solve is timed in `kernels.rs`, whose logs CI digests.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn quick<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(10);
    g.measurement_time(Duration::from_millis(1500));
    g.warm_up_time(Duration::from_millis(300));
    g
}

/// Figure 2 regeneration: the whole models × platforms sweep.
fn bench_figure2(c: &mut Criterion) {
    let mut g = quick(c, "figure2");
    g.bench_function("full_sweep", |b| b.iter(bench::figure2));
    g.finish();
}

/// Table 2 regeneration: HPCG variants on two architectures.
fn bench_table2(c: &mut Criterion) {
    let mut g = quick(c, "table2");
    g.bench_function("hpcg_variants", |b| b.iter(bench::table2));
    g.finish();
}

/// Table 4 regeneration: HPGMG across the four systems.
fn bench_table4(c: &mut Criterion) {
    let mut g = quick(c, "table4");
    g.bench_function("hpgmg_survey", |b| b.iter(bench::table4));
    g.finish();
}

/// Tables 1/3/5 regeneration (catalog + concretizer driven).
fn bench_static_tables(c: &mut Criterion) {
    let mut g = quick(c, "tables_static");
    g.bench_function("table1", |b| b.iter(bench::table1));
    g.bench_function("table3_concretize", |b| b.iter(bench::table3));
    g.bench_function("table5", |b| b.iter(bench::table5));
    g.finish();
}

/// The native HPCG solver: CG iteration cost per variant.
fn bench_hpcg_native(c: &mut Criterion) {
    use benchapps::hpcg::HpcgVariant;
    let mut g = quick(c, "hpcg_native");
    let problem = benchapps::hpcg::Problem::cube(12);
    for variant in HpcgVariant::all() {
        g.bench_with_input(
            BenchmarkId::from_parameter(variant.spec_name()),
            variant,
            |b, variant| {
                b.iter(|| {
                    let op = benchapps::hpcg::build_operator(*variant, &problem);
                    benchapps::hpcg::pcg(op.as_ref(), &problem.rhs, 10, 1e-12)
                });
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_figure2,
    bench_table2,
    bench_table4,
    bench_static_tables,
    bench_hpcg_native
);
criterion_main!(benches);
