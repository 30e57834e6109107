//! Criterion benches for the kernel layer: the real memory-bandwidth
//! kernels on the serial reference and the worker pool (the native,
//! host-hardware counterpart of Figure 2's measurements), the sparse
//! operators, and the 32³ HPGMG solve that simulated surveys run for real.

use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use parkern::backend::{Backend, SerialBackend};
use parkern::kernels;
use parkern::PoolBackend;

const N: usize = 1 << 20;

/// Worker counts the pool is benched at.
const POOL_WORKERS: [usize; 3] = [1, 2, 4];

/// The serial reference, then the pool at each of [`POOL_WORKERS`].
fn backends() -> Vec<(BenchmarkId, Box<dyn Backend>)> {
    let mut all = vec![(
        BenchmarkId::from_parameter("serial"),
        Box::new(SerialBackend) as Box<dyn Backend>,
    )];
    for workers in POOL_WORKERS {
        all.push((
            BenchmarkId::new("pool", workers),
            Box::new(PoolBackend::new(workers)),
        ));
    }
    all
}

fn bench_triad(c: &mut Criterion) {
    let mut group = c.benchmark_group("triad");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.throughput(Throughput::Bytes((3 * N * 8) as u64));
    let b_arr: Vec<f64> = (0..N).map(|i| i as f64).collect();
    let c_arr = vec![1.5f64; N];
    for (id, backend) in backends() {
        let mut a = vec![0.0f64; N];
        group.bench_with_input(id, &backend, |bench, backend| {
            bench.iter(|| kernels::triad(backend.as_ref(), 0.4, &b_arr, &c_arr, &mut a));
        });
    }
    group.finish();
}

fn bench_dot(c: &mut Criterion) {
    let mut group = c.benchmark_group("dot");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.throughput(Throughput::Bytes((2 * N * 8) as u64));
    let a: Vec<f64> = (0..N).map(|i| (i as f64).sin()).collect();
    let b: Vec<f64> = (0..N).map(|i| (i as f64).cos()).collect();
    for (id, backend) in backends() {
        group.bench_with_input(id, &backend, |bench, backend| {
            bench.iter(|| kernels::dot(backend.as_ref(), &a, &b));
        });
    }
    group.finish();
}

fn bench_spmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv_vs_stencil");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.warm_up_time(std::time::Duration::from_millis(300));
    // The Table 2 story at kernel level: assembled CSR vs matrix-free
    // stencil for the same 27-point operator. `bench-digest --min-speedup`
    // asserts the matrix-free stencil (row lanes, no index traffic) beats
    // the assembled SpMV.
    let dim = 24usize;
    let problem = benchapps::hpcg::Problem::cube(dim);
    let csr = benchapps::hpcg::CsrOperator::poisson27(&problem);
    let mf = benchapps::hpcg::MatrixFreeOperator::new(&problem);
    use benchapps::hpcg::Operator;
    let x: Vec<f64> = (0..problem.n()).map(|i| (i % 17) as f64).collect();
    let mut y = vec![0.0; problem.n()];
    group.bench_function("csr_apply", |bench| {
        bench.iter(|| csr.apply(&x, &mut y));
    });
    group.bench_function("matrix_free_apply", |bench| {
        bench.iter(|| mf.apply(&x, &mut y));
    });
    group.finish();
}

/// `lex_serial` (zero-fill `z`, then the general lexicographic sweep)
/// beside `precondition` (CG's `z = M⁻¹r`: the same bits from the
/// zero-start forward sweep), for the matrix-free and CSR operators.
fn bench_lex_and_precondition(
    group: &mut BenchmarkGroup<'_>,
    problem: &benchapps::hpcg::Problem,
    z: &mut [f64],
) {
    use benchapps::hpcg::Operator;
    let r = &problem.rhs;
    let mf = benchapps::hpcg::MatrixFreeOperator::new(problem);
    group.bench_function("matfree/lex_serial", |bench| {
        bench.iter(|| {
            z.fill(0.0);
            mf.symgs_lex(r, z);
        });
    });
    group.bench_function("matfree/precondition", |bench| {
        bench.iter(|| mf.precondition(r, z));
    });
    let csr = benchapps::hpcg::CsrOperator::poisson27(problem);
    group.bench_function("csr/lex_serial", |bench| {
        bench.iter(|| {
            z.fill(0.0);
            csr.symgs_lex(r, z);
        });
    });
    group.bench_function("csr/precondition", |bench| {
        bench.iter(|| csr.precondition(r, z));
    });
}

fn bench_symgs_survey_size(c: &mut Criterion) {
    // The 16³ problem every simulated survey solves, where the CSR matrix
    // stays in cache and the zero-start forward sweep's skipped half shows
    // (at 64³ both sweeps stream the whole matrix from memory).
    // `bench-digest --min-speedup` asserts the CSR shortcut pays here.
    let mut group = c.benchmark_group("symgs_16cubed");
    // 30 batches (the vendored criterion's cap) of ~2 ms each: the fastest
    // batch must survive a load burst for the floor to hold.
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_millis(1000));
    group.warm_up_time(std::time::Duration::from_millis(200));
    let problem = benchapps::hpcg::Problem::cube(16);
    group.throughput(Throughput::Elements(problem.n() as u64));
    let mut z = vec![0.0; problem.n()];
    bench_lex_and_precondition(&mut group, &problem, &mut z);
    group.finish();
}

fn bench_symgs(c: &mut Criterion) {
    // The sweeps on the 64³ local problem of the survey's HPCG cases,
    // where both operators stream from memory instead of cache.
    let mut group = c.benchmark_group("symgs_64cubed");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let problem = benchapps::hpcg::Problem::cube(64);
    let n = problem.n();
    group.throughput(Throughput::Elements(n as u64));
    let mut z = vec![0.0; n];
    bench_lex_and_precondition(&mut group, &problem, &mut z);
    group.finish();
}

fn bench_stream_gbs(c: &mut Criterion) {
    // Roofline floor, digested by ci.sh: all six STREAM-style kernels at a
    // working-set size (32 MB/array) that defeats L2, on one pooled
    // backend. `bench-digest --min-speedup` asserts triad stays within
    // 1.5× of copy bandwidth — a regression here means a kernel fell off
    // the vectorized path.
    const M: usize = 1 << 22;
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(8);
    let backend = PoolBackend::new(threads);
    let mut group = c.benchmark_group("stream_gbs");
    group.sample_size(10);
    let a: Vec<f64> = (0..M).map(|i| (i % 64) as f64).collect();
    let b: Vec<f64> = vec![1.5f64; M];
    let mut out = vec![0.0f64; M];
    // STREAM's counting convention: bytes of useful traffic per kernel.
    group.throughput(Throughput::Bytes((2 * M * 8) as u64));
    group.bench_function("copy", |bench| {
        bench.iter(|| kernels::copy(&backend, &a, &mut out));
    });
    group.bench_function("mul", |bench| {
        bench.iter(|| kernels::mul(&backend, 0.4, &a, &mut out));
    });
    group.throughput(Throughput::Bytes((3 * M * 8) as u64));
    group.bench_function("add", |bench| {
        bench.iter(|| kernels::add(&backend, &a, &b, &mut out));
    });
    group.bench_function("triad", |bench| {
        bench.iter(|| kernels::triad(&backend, 0.4, &a, &b, &mut out));
    });
    group.throughput(Throughput::Bytes((2 * M * 8) as u64));
    group.bench_function("dot", |bench| {
        bench.iter(|| criterion::black_box(kernels::dot(&backend, &a, &b)));
    });
    group.finish();
}

fn bench_spmv_layout(c: &mut Criterion) {
    // CSR vs SELL-C-σ on the same 27-point matrix, single-threaded so the
    // digest measures layout (vectorized slices vs scalar rows), not
    // parallel scaling. `bench-digest --min-speedup` asserts SELL ≥ 1.2×.
    let mut group = c.benchmark_group("spmv_layout");
    group.sample_size(10);
    let problem = benchapps::hpcg::Problem::cube(32);
    let n = problem.n();
    group.throughput(Throughput::Elements(n as u64));
    use benchapps::hpcg::Operator;
    let csr = benchapps::hpcg::CsrOperator::poisson27(&problem);
    let sell = benchapps::hpcg::SellOperator::poisson27(&problem);
    let x: Vec<f64> = (0..n).map(|i| (i % 17) as f64).collect();
    let mut y = vec![0.0; n];
    group.bench_function("csr", |bench| {
        bench.iter(|| csr.apply(&x, &mut y));
    });
    group.bench_function("sell", |bench| {
        bench.iter(|| sell.apply(&x, &mut y));
    });
    group.finish();
}

fn bench_hpgmg(c: &mut Criterion) {
    // The hottest kernel of a simulated survey: every HPGMG cell solves
    // this 32³ multigrid problem for real, with exactly these arguments.
    let mut group = c.benchmark_group("hpgmg_native");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.bench_function("solve_32cubed", |bench| {
        bench.iter(|| {
            let mut mg = benchapps::hpgmg::Multigrid::new(32).expect("valid grid");
            mg.set_rhs_sine();
            mg.solve(30, 1e-7)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_triad,
    bench_dot,
    bench_spmv,
    bench_symgs_survey_size,
    bench_symgs,
    bench_stream_gbs,
    bench_spmv_layout,
    bench_hpgmg
);
criterion_main!(benches);
