//! Property tests for the two backends: the pool computes exactly what the
//! serial reference computes, for arbitrary sizes and worker counts.

use parkern::backend::{chunk_range, Backend, SerialBackend};
use parkern::{kernels, PoolBackend};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Kind 0 is the serial reference; any other kind is the pool.
fn backend_for(kind: u8, workers: usize) -> Box<dyn Backend> {
    match kind % 2 {
        0 => Box::new(SerialBackend),
        _ => Box::new(PoolBackend::new(workers)),
    }
}

/// Every kernel's output bits on `backend`, over inputs of length `n`.
fn kernel_bits(backend: &dyn Backend, n: usize, scalar: f64) -> Vec<u64> {
    let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 1.1).cos()).collect();
    let mut bits = Vec::new();
    let mut out = vec![0.0; n];
    let mut keep = |out: &[f64]| bits.extend(out.iter().map(|v| v.to_bits()));
    kernels::copy(backend, &a, &mut out);
    keep(&out);
    kernels::mul(backend, scalar, &a, &mut out);
    keep(&out);
    kernels::add(backend, &a, &b, &mut out);
    keep(&out);
    kernels::triad(backend, scalar, &a, &b, &mut out);
    keep(&out);
    kernels::waxpby(backend, scalar, &a, -0.5, &b, &mut out);
    keep(&out);
    keep(&[kernels::dot(backend, &a, &b)]);
    // A tridiagonal CSR matrix and its SELL-C-sigma form.
    let mut row_ptr = vec![0usize];
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    for (i, ai) in a.iter().enumerate() {
        for j in i.saturating_sub(1)..(i + 2).min(n) {
            col_idx.push(j as u32);
            values.push(if i == j { 2.0 + ai } else { -1.0 });
        }
        row_ptr.push(col_idx.len());
    }
    kernels::spmv_csr(backend, &row_ptr, &col_idx, &values, &b, &mut out);
    keep(&out);
    let sell = kernels::SellMatrix::from_csr(&row_ptr, &col_idx, &values, 16);
    kernels::spmv_sell(backend, &sell, &b, &mut out);
    keep(&out);
    // A 27-point stencil over an n-point box (nx × 3 × 2 when n allows).
    let (ny, nz) = if n.is_multiple_of(6) { (3, 2) } else { (1, 1) };
    kernels::stencil27(backend, n / (ny * nz), ny, nz, 26.0, -1.0, &a, &mut out);
    keep(&out);
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// chunk_range is a partition of 0..n into contiguous, balanced ranges.
    #[test]
    fn chunks_partition(n in 0usize..100_000, pieces in 1usize..64) {
        let parts: Vec<_> = (0..pieces).map_while(|i| chunk_range(n, pieces, i)).collect();
        let total: usize = parts.iter().map(|r| r.len()).sum();
        prop_assert_eq!(total, n);
        let mut expect = 0;
        for r in &parts {
            prop_assert_eq!(r.start, expect);
            prop_assert!(!r.is_empty());
            expect = r.end;
        }
        if let (Some(min), Some(max)) = (
            parts.iter().map(|r| r.len()).min(),
            parts.iter().map(|r| r.len()).max(),
        ) {
            prop_assert!(max - min <= 1, "unbalanced: {min}..{max}");
        }
        prop_assert!(parts.len() <= pieces.max(1));
    }

    /// par_for touches every index exactly once on every backend.
    #[test]
    fn par_for_exactly_once(kind in 0u8..2, workers in 1usize..6, n in 0usize..5000) {
        let backend = backend_for(kind, workers);
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        backend.par_for(n, &|r| {
            for i in r {
                counters[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, c) in counters.iter().enumerate() {
            prop_assert_eq!(c.load(Ordering::Relaxed), 1, "index {} visited wrong number of times", i);
        }
    }

    /// Reductions agree with the serial sum to floating-point tolerance.
    #[test]
    fn reduce_matches_serial(kind in 0u8..2, workers in 1usize..6, data in prop::collection::vec(-1e6f64..1e6, 0..4000)) {
        let backend = backend_for(kind, workers);
        let expect: f64 = data.iter().sum();
        let got = backend.par_reduce_sum(data.len(), &|r| r.map(|i| data[i]).sum());
        prop_assert!(
            (got - expect).abs() <= 1e-9 * expect.abs().max(1.0) + 1e-6,
            "{} vs {expect}",
            got
        );
    }

    /// Triad on every backend equals the scalar formula elementwise.
    #[test]
    fn triad_elementwise(kind in 0u8..2, workers in 1usize..6, n in 1usize..3000, scalar in -10.0f64..10.0) {
        let backend = backend_for(kind, workers);
        let b: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let c: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut a = vec![0.0; n];
        kernels::triad(backend.as_ref(), scalar, &b, &c, &mut a);
        for i in 0..n {
            prop_assert_eq!(a[i], b[i] + scalar * c[i]);
        }
    }

    /// SpMV over a random diagonal matrix scales the vector exactly.
    #[test]
    fn spmv_diagonal(kind in 0u8..2, diag in prop::collection::vec(-100.0f64..100.0, 1..500)) {
        let backend = backend_for(kind, 4);
        let n = diag.len();
        let row_ptr: Vec<usize> = (0..=n).collect();
        let col_idx: Vec<u32> = (0..n as u32).collect();
        let x: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let mut y = vec![0.0; n];
        kernels::spmv_csr(backend.as_ref(), &row_ptr, &col_idx, &diag, &x, &mut y);
        for i in 0..n {
            prop_assert_eq!(y[i], diag[i] * x[i]);
        }
    }

    /// SELL-C-σ SpMV equals CSR SpMV bit-for-bit on arbitrary sparse
    /// matrices (same per-row summation order), including empty rows and
    /// fully dense rows.
    #[test]
    fn spmv_sell_matches_csr_exactly(
        kind in 0u8..2,
        workers in 1usize..6,
        sigma in 1usize..100,
        ncols in 1usize..40,
        rows in prop::collection::vec(prop::collection::vec((0usize..40, -100.0f64..100.0), 0..40), 1..60),
        dense_row in prop::option::of(0usize..60),
    ) {
        let backend = backend_for(kind, workers);
        // Assemble CSR with sorted, deduplicated columns per row; one row
        // is optionally forced fully dense.
        let mut row_ptr = vec![0usize];
        let mut col_idx: Vec<u32> = Vec::new();
        let mut values = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            if dense_row == Some(i) {
                for c in 0..ncols {
                    col_idx.push(c as u32);
                    values.push(c as f64 * 0.5 - 1.0);
                }
            } else {
                let mut entries: Vec<(usize, f64)> = row
                    .iter()
                    .map(|&(c, v)| (c % ncols, v))
                    .collect();
                entries.sort_by_key(|&(c, _)| c);
                entries.dedup_by_key(|&mut (c, _)| c);
                for (c, v) in entries {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        let nrows = rows.len();
        let x: Vec<f64> = (0..ncols).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let mut y_csr = vec![0.0; nrows];
        kernels::spmv_csr(&SerialBackend, &row_ptr, &col_idx, &values, &x, &mut y_csr);
        let sell = kernels::SellMatrix::from_csr(&row_ptr, &col_idx, &values, sigma);
        let mut y_sell = vec![f64::NAN; nrows];
        kernels::spmv_sell(backend.as_ref(), &sell, &x, &mut y_sell);
        for i in 0..nrows {
            prop_assert_eq!(
                y_sell[i].to_bits(),
                y_csr[i].to_bits(),
                "row {} differs: sell {} vs csr {}",
                i,
                y_sell[i],
                y_csr[i]
            );
        }
    }

    /// The pool at 1, 2, 3 and 8 workers computes every kernel's serial
    /// bits exactly, and at one worker it runs every chunk on the caller.
    #[test]
    fn pool_matches_serial_bit_for_bit(
        pick in 0usize..4,
        n in 0usize..3000,
        scalar in -10.0f64..10.0,
    ) {
        let workers = [1, 2, 3, 8][pick];
        let pool = PoolBackend::new(workers);
        prop_assert_eq!(kernel_bits(&pool, n, scalar), kernel_bits(&SerialBackend, n, scalar));
        let caller = std::thread::current().id();
        let elsewhere = AtomicUsize::new(0);
        pool.par_for(n, &|_| {
            if std::thread::current().id() != caller {
                elsewhere.fetch_add(1, Ordering::Relaxed);
            }
        });
        prop_assert_eq!(elsewhere.load(Ordering::Relaxed) == 0, workers == 1 || n <= 1);
    }

    /// Model availability is consistent: a model that claims GPU device
    /// never runs on CPUs and vice versa.
    #[test]
    fn model_availability_consistent(model_idx in 0usize..9) {
        let model = parkern::Model::all()[model_idx % parkern::Model::all().len()];
        for sys in simhpc::catalog::all_systems() {
            for part in sys.partitions() {
                let proc = part.processor();
                if model.available_on(proc) {
                    match model.device() {
                        parkern::Device::Gpu => prop_assert!(proc.is_gpu()),
                        parkern::Device::Cpu => prop_assert!(!proc.is_gpu()),
                    }
                    let e = model.efficiency_on(proc);
                    prop_assert!(e > 0.0 && e <= 1.0);
                    prop_assert!(model.threads_on(proc) >= 1);
                    prop_assert!(model.threads_on(proc) <= proc.total_cores());
                }
            }
        }
    }
}
