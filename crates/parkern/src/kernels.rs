//! Shared array kernels, written once against the [`Backend`] abstraction.
//!
//! These are the numerical bodies of the benchmark applications: the five
//! BabelStream/STREAM operations, dot products and sparse matrix-vector
//! products. They always run for real, so sanity checks downstream
//! validate genuine arithmetic.
//!
//! # Roofline discipline
//!
//! The harness's credibility rests on these loops running at hardware
//! speed (the paper's P2/P6: a slow harness measures itself, not the
//! system), so every hot loop here is written to vectorize:
//!
//! * element kernels iterate in exact [`W`]-wide chunks with a scalar
//!   remainder peel, so the compiler sees fixed-trip inner loops with no
//!   bounds checks;
//! * [`dot`] uses [`W`] independent accumulators (ILP over the FMA latency
//!   chain) and a **fixed-shape decomposition**: the piece count depends
//!   only on `n`, and partials combine left-to-right on the calling
//!   thread, so the result is bit-identical on every backend at every
//!   worker count;
//! * [`spmv_sell`] stores the matrix in SELL-C-σ slices of [`SELL_C`]
//!   rows, turning the per-row serial FMA chain of CSR into [`SELL_C`]
//!   independent lanes while keeping each row's summation order exactly
//!   CSR's (k-ascending), so CSR and SELL results are bitwise equal.

use crate::backend::{chunk_range, Backend};
use std::ops::Range;

/// Lane width of the blocked kernels: wide enough for two AVX2 (or one
/// AVX-512) f64 vector per iteration, and for `dot` to hide FMA latency.
const W: usize = 8;

/// A raw pointer wrapper allowing disjoint parallel writes to a slice.
///
/// Safety contract: callers only write indices within their own chunk, and
/// chunks from [`crate::backend::chunks`] are disjoint.
#[derive(Clone, Copy)]
struct ParPtr(*mut f64);
unsafe impl Send for ParPtr {}
unsafe impl Sync for ParPtr {}

impl ParPtr {
    /// # Safety
    /// `i` must be within bounds and not concurrently written by another
    /// worker.
    unsafe fn write(self, i: usize, v: f64) {
        unsafe { *self.0.add(i) = v };
    }

    /// Reborrow `r` as a mutable subslice.
    ///
    /// # Safety
    /// `r` must be within bounds and disjoint from every range any other
    /// worker turns into a slice (or writes through [`ParPtr::write`]).
    unsafe fn slice<'a>(self, r: Range<usize>) -> &'a mut [f64] {
        unsafe { std::slice::from_raw_parts_mut(self.0.add(r.start), r.len()) }
    }
}

/// `b[i] = scalar * c[i]` on one chunk, in exact [`W`]-wide blocks.
fn mul_block(scalar: f64, c: &[f64], b: &mut [f64]) {
    let mut bc = b.chunks_exact_mut(W);
    let mut cc = c.chunks_exact(W);
    for (bx, cx) in (&mut bc).zip(&mut cc) {
        for j in 0..W {
            bx[j] = scalar * cx[j];
        }
    }
    for (bx, cx) in bc.into_remainder().iter_mut().zip(cc.remainder()) {
        *bx = scalar * cx;
    }
}

/// `c[i] = a[i] + b[i]` on one chunk, in exact [`W`]-wide blocks.
fn add_block(a: &[f64], b: &[f64], c: &mut [f64]) {
    let mut cc = c.chunks_exact_mut(W);
    let mut ac = a.chunks_exact(W);
    let mut bc = b.chunks_exact(W);
    for ((cx, ax), bx) in (&mut cc).zip(&mut ac).zip(&mut bc) {
        for j in 0..W {
            cx[j] = ax[j] + bx[j];
        }
    }
    for ((cx, ax), bx) in cc
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *cx = ax + bx;
    }
}

/// `a[i] = b[i] + scalar * c[i]` on one chunk, in exact [`W`]-wide blocks.
fn triad_block(scalar: f64, b: &[f64], c: &[f64], a: &mut [f64]) {
    let mut ac = a.chunks_exact_mut(W);
    let mut bc = b.chunks_exact(W);
    let mut cc = c.chunks_exact(W);
    for ((ax, bx), cx) in (&mut ac).zip(&mut bc).zip(&mut cc) {
        for j in 0..W {
            ax[j] = bx[j] + scalar * cx[j];
        }
    }
    for ((ax, bx), cx) in ac
        .into_remainder()
        .iter_mut()
        .zip(bc.remainder())
        .zip(cc.remainder())
    {
        *ax = bx + scalar * cx;
    }
}

/// One chunk of `dot`: [`W`] independent accumulators over exact blocks
/// (ILP across the FMA latency chain), combined pairwise then with the
/// scalar tail — a fixed order, so the result depends only on the chunk.
fn dot_block(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; W];
    let mut ac = a.chunks_exact(W);
    let mut bc = b.chunks_exact(W);
    for (ax, bx) in (&mut ac).zip(&mut bc) {
        for j in 0..W {
            acc[j] += ax[j] * bx[j];
        }
    }
    let mut tail = 0.0;
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        tail += x * y;
    }
    (((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))) + tail
}

/// `c[i] = a[i]` — STREAM Copy.
pub fn copy(backend: &dyn Backend, a: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), c.len());
    let out = ParPtr(c.as_mut_ptr());
    backend.par_for(a.len(), &|r: Range<usize>| {
        // SAFETY: chunks are disjoint (ParPtr contract).
        let dst = unsafe { out.slice(r.clone()) };
        dst.copy_from_slice(&a[r]);
    });
}

/// `b[i] = scalar * c[i]` — STREAM Mul (Scale).
pub fn mul(backend: &dyn Backend, scalar: f64, c: &[f64], b: &mut [f64]) {
    assert_eq!(b.len(), c.len());
    let out = ParPtr(b.as_mut_ptr());
    backend.par_for(c.len(), &|r: Range<usize>| {
        // SAFETY: chunks are disjoint (ParPtr contract).
        let dst = unsafe { out.slice(r.clone()) };
        mul_block(scalar, &c[r], dst);
    });
}

/// `c[i] = a[i] + b[i]` — STREAM Add.
pub fn add(backend: &dyn Backend, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), c.len());
    let out = ParPtr(c.as_mut_ptr());
    backend.par_for(a.len(), &|r: Range<usize>| {
        // SAFETY: chunks are disjoint (ParPtr contract).
        let dst = unsafe { out.slice(r.clone()) };
        add_block(&a[r.clone()], &b[r], dst);
    });
}

/// `a[i] = b[i] + scalar * c[i]` — STREAM Triad: the headline kernel.
pub fn triad(backend: &dyn Backend, scalar: f64, b: &[f64], c: &[f64], a: &mut [f64]) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), c.len());
    let out = ParPtr(a.as_mut_ptr());
    backend.par_for(b.len(), &|r: Range<usize>| {
        // SAFETY: chunks are disjoint (ParPtr contract).
        let dst = unsafe { out.slice(r.clone()) };
        triad_block(scalar, &b[r.clone()], &c[r], dst);
    });
}

/// Piece size of the fixed-shape `dot` decomposition. Pieces are a function
/// of `n` alone — never of the backend or worker count.
const DOT_GRAIN: usize = 8192;

/// Stack-array bound on `dot` pieces (1 KiB of partials).
const MAX_DOT_PIECES: usize = 64;

/// `sum(a[i] * b[i])` — STREAM Dot.
///
/// Bit-reproducible by construction: the input splits into
/// `clamp(ceil(n / DOT_GRAIN), 1, MAX_DOT_PIECES)` pieces — a function of
/// `n` only — each piece is summed by [`dot_block`]'s fixed-order
/// accumulators, and the per-piece partials combine left-to-right on the
/// calling thread. Any backend at any worker count computes the same bits.
pub fn dot(backend: &dyn Backend, a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    let pieces = n.div_ceil(DOT_GRAIN).clamp(1, MAX_DOT_PIECES);
    if pieces == 1 {
        return dot_block(a, b);
    }
    let mut partials = [0.0f64; MAX_DOT_PIECES];
    let slots = ParPtr(partials.as_mut_ptr());
    backend.par_for(pieces, &|pr: Range<usize>| {
        for p in pr.clone() {
            let r = chunk_range(n, pieces, p).expect("in-range piece");
            // SAFETY: piece indices are disjoint across chunks, so each
            // slot has exactly one writer.
            unsafe { slots.write(p, dot_block(&a[r.clone()], &b[r])) };
        }
    });
    let mut sum = 0.0;
    for &p in &partials[..pieces] {
        sum += p;
    }
    sum
}

/// CSR sparse matrix-vector product `y = A x`.
///
/// `row_ptr` has `nrows + 1` entries; column indices and values are packed.
/// The inner loop iterates zipped subslices, so only the `x` gather carries
/// a bounds check (one predictable compare under the gather's cache-miss
/// latency); for the fully unchecked layout see [`spmv_sell`].
pub fn spmv_csr(
    backend: &dyn Backend,
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    let nrows = row_ptr.len() - 1;
    assert_eq!(y.len(), nrows);
    assert_eq!(col_idx.len(), values.len());
    let out = ParPtr(y.as_mut_ptr());
    backend.par_for(nrows, &|r: Range<usize>| {
        for row in r {
            let mut sum = 0.0;
            for (v, &c) in values[row_ptr[row]..row_ptr[row + 1]]
                .iter()
                .zip(&col_idx[row_ptr[row]..row_ptr[row + 1]])
            {
                sum += v * x[c as usize];
            }
            unsafe { out.write(row, sum) };
        }
    });
}

/// SELL-C-σ slice height: rows per slice, i.e. the SIMD/ILP lane count.
pub const SELL_C: usize = 8;

/// A sparse matrix in SELL-C-σ format (Kreutzer et al., SIAM J. Sci.
/// Comput. 2014): rows are packed into slices of [`SELL_C`], each slice
/// stored column-major (`entry(lane, k)` at `slice_ptr[s] + k * C + lane`)
/// and padded to its longest row, with rows pre-sorted by descending length
/// inside windows of `σ` rows to keep slices uniform.
///
/// The fields are private and only [`SellMatrix::from_csr`] constructs one,
/// so the invariants the unchecked [`spmv_sell`] loop relies on — `perm` is
/// a permutation of `0..nrows`, every stored column index is `< ncols`,
/// `slice_ptr` is monotone with `SELL_C`-divisible spans — hold by
/// construction and never need per-call revalidation.
#[derive(Debug, Clone)]
pub struct SellMatrix {
    nrows: usize,
    /// Minimum compatible `x` length: 1 + the largest referenced column.
    ncols: usize,
    /// `n_slices + 1` offsets into `cols`/`vals`.
    slice_ptr: Vec<usize>,
    /// Row lengths in packed order (`row_len[p]` is the length of the row
    /// stored in lane `p % C` of slice `p / C`).
    row_len: Vec<u32>,
    /// Packed position → original row index.
    perm: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl SellMatrix {
    /// Convert a CSR matrix to SELL-C-σ. `sigma` is the sorting-window size
    /// in rows (rounded up to a multiple of [`SELL_C`]); rows are reordered
    /// by descending length (stable) only *within* each window, bounding
    /// how far the gather pattern drifts from the CSR row order.
    pub fn from_csr(
        row_ptr: &[usize],
        col_idx: &[u32],
        values: &[f64],
        sigma: usize,
    ) -> SellMatrix {
        assert!(!row_ptr.is_empty(), "row_ptr needs nrows + 1 entries");
        let nrows = row_ptr.len() - 1;
        assert!(nrows <= u32::MAX as usize);
        assert_eq!(row_ptr[0], 0);
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr must be monotone"
        );
        assert_eq!(col_idx.len(), values.len());
        assert!(row_ptr[nrows] <= col_idx.len());

        let len_of = |row: u32| row_ptr[row as usize + 1] - row_ptr[row as usize];
        let sigma = sigma.max(1).next_multiple_of(SELL_C);
        let mut perm: Vec<u32> = (0..nrows as u32).collect();
        for window in perm.chunks_mut(sigma) {
            window.sort_by_key(|&row| (std::cmp::Reverse(len_of(row)), row));
        }

        let n_slices = nrows.div_ceil(SELL_C);
        let mut slice_ptr = Vec::with_capacity(n_slices + 1);
        slice_ptr.push(0);
        let mut row_len = vec![0u32; nrows];
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        let mut ncols = 0usize;
        for s in 0..n_slices {
            let r0 = s * SELL_C;
            let lanes = SELL_C.min(nrows - r0);
            let width = (0..lanes).map(|l| len_of(perm[r0 + l])).max().unwrap_or(0);
            let base = cols.len();
            cols.resize(base + width * SELL_C, 0u32);
            vals.resize(base + width * SELL_C, 0.0f64);
            for l in 0..lanes {
                let row = perm[r0 + l] as usize;
                row_len[r0 + l] = (row_ptr[row + 1] - row_ptr[row]) as u32;
                for (k, idx) in (row_ptr[row]..row_ptr[row + 1]).enumerate() {
                    cols[base + k * SELL_C + l] = col_idx[idx];
                    vals[base + k * SELL_C + l] = values[idx];
                    ncols = ncols.max(col_idx[idx] as usize + 1);
                }
            }
            slice_ptr.push(cols.len());
        }
        SellMatrix {
            nrows,
            ncols,
            slice_ptr,
            row_len,
            perm,
            cols,
            vals,
        }
    }

    /// Number of matrix rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Minimum compatible input-vector length.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored entries including slice padding (the layout overhead is
    /// `stored_entries` minus the CSR nonzero count).
    pub fn stored_entries(&self) -> usize {
        self.vals.len()
    }
}

/// SELL-C-σ sparse matrix-vector product `y = A x`.
///
/// Each slice runs [`SELL_C`] rows as independent accumulator lanes —
/// breaking CSR's per-row serial FMA dependency chain — in two phases: a
/// branch-free phase up to the slice's shortest row (after σ-sorting most
/// slices are uniform, so this is nearly all of it), then a per-lane
/// length-guarded phase for the ragged tail. Every lane accumulates its
/// row's entries in k-ascending order, exactly CSR's summation order, so
/// the result is bitwise identical to [`spmv_csr`] on the same matrix.
pub fn spmv_sell(backend: &dyn Backend, m: &SellMatrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(y.len(), m.nrows);
    assert!(x.len() >= m.ncols, "x shorter than the widest matrix row");
    let n_slices = m.slice_ptr.len() - 1;
    let out = ParPtr(y.as_mut_ptr());
    backend.par_for(n_slices, &|sr: Range<usize>| {
        for s in sr.clone() {
            let base = m.slice_ptr[s];
            let width = (m.slice_ptr[s + 1] - base) / SELL_C;
            let r0 = s * SELL_C;
            let lanes = SELL_C.min(m.nrows - r0);
            let mut len = [0u32; SELL_C];
            len[..lanes].copy_from_slice(&m.row_len[r0..r0 + lanes]);
            // Shortest active row: below it no lane needs a length guard.
            let full = len[..lanes].iter().copied().min().unwrap_or(0) as usize;
            let mut acc = [0.0f64; SELL_C];
            for k in 0..full {
                let off = base + k * SELL_C;
                for (l, a) in acc.iter_mut().enumerate() {
                    // SAFETY: `off + l < slice_ptr[s + 1] <= vals.len()`,
                    // and stored columns are `< ncols <= x.len()` by
                    // construction (padding in dead lanes stores column 0,
                    // which is in bounds whenever any entry exists).
                    unsafe {
                        let v = *m.vals.get_unchecked(off + l);
                        let c = *m.cols.get_unchecked(off + l) as usize;
                        *a += v * *x.get_unchecked(c);
                    }
                }
            }
            for k in full..width {
                let off = base + k * SELL_C;
                let kk = k as u32;
                for (l, a) in acc.iter_mut().enumerate() {
                    if kk < len[l] {
                        // SAFETY: as above.
                        unsafe {
                            let v = *m.vals.get_unchecked(off + l);
                            let c = *m.cols.get_unchecked(off + l) as usize;
                            *a += v * *x.get_unchecked(c);
                        }
                    }
                }
            }
            for (l, &a) in acc.iter().take(lanes).enumerate() {
                // SAFETY: `perm` is a permutation, so packed positions map
                // to disjoint rows even across concurrent slices.
                unsafe { out.write(*m.perm.get_unchecked(r0 + l) as usize, a) };
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SerialBackend;
    use crate::pool::PoolBackend;

    /// The pool worker counts every kernel is checked at.
    const POOL_WORKERS: [usize; 4] = [1, 2, 3, 8];

    /// The serial reference plus the pool at each of [`POOL_WORKERS`].
    fn backends() -> Vec<Box<dyn Backend>> {
        let mut all: Vec<Box<dyn Backend>> = vec![Box::new(SerialBackend)];
        for workers in POOL_WORKERS {
            all.push(Box::new(PoolBackend::new(workers)));
        }
        all
    }

    #[test]
    fn stream_kernels_compute_correctly() {
        let n = 10_001; // odd size exercises uneven chunking
        let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let run = |b: &dyn Backend| {
            let mut c = vec![0.0; n];
            copy(b, &a, &mut c);
            let mut bb = vec![0.0; n];
            mul(b, 0.4, &c, &mut bb);
            let mut sum = vec![0.0; n];
            add(b, &a, &bb, &mut sum);
            let mut t = vec![0.0; n];
            triad(b, 3.0, &a, &bb, &mut t);
            let d = dot(b, &a, &a);
            (c, bb, sum, t, d.to_bits())
        };
        let serial = run(&SerialBackend);
        let (c, bb, sum, t, d) = &serial;
        assert_eq!(c[5000], 5000.0);
        assert!((bb[10] - 4.0).abs() < 1e-12);
        assert!((sum[10] - 14.0).abs() < 1e-12);
        assert!((t[10] - 22.0).abs() < 1e-12);
        let expect: f64 = a.iter().map(|v| v * v).sum();
        assert!((f64::from_bits(*d) - expect).abs() < 1e-6 * expect);
        // Every backend computes the serial bits exactly.
        for b in backends() {
            assert!(run(b.as_ref()) == serial, "backend {}", b.label());
        }
    }

    #[test]
    fn remainder_peel_covers_every_tail_length() {
        // Exercise every `n mod W` residue so the peel loops are airtight.
        for n in 64..64 + 2 * W {
            let a: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
            let mut out = vec![0.0; n];
            triad(&SerialBackend, 1.5, &a, &b, &mut out);
            for i in 0..n {
                assert_eq!(out[i], a[i] + 1.5 * b[i], "triad n={n} i={i}");
            }
        }
    }

    #[test]
    fn dot_is_bitwise_identical_across_backends_and_worker_counts() {
        // The fixed-shape decomposition makes dot a pure function of the
        // inputs: same bits on every backend at every worker count.
        for n in [0usize, 1, 7, DOT_GRAIN - 1, DOT_GRAIN + 1, 100_003] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos()).collect();
            let reference = dot(&SerialBackend, &a, &b).to_bits();
            for be in backends() {
                assert_eq!(
                    dot(be.as_ref(), &a, &b).to_bits(),
                    reference,
                    "n={n} backend={} workers={}",
                    be.label(),
                    be.workers()
                );
            }
        }
    }

    #[test]
    fn spmv_identity() {
        // 4x4 identity in CSR.
        let row_ptr = vec![0, 1, 2, 3, 4];
        let col_idx = vec![0u32, 1, 2, 3];
        let values = vec![1.0; 4];
        let x = vec![3.0, 1.0, 4.0, 1.5];
        for b in backends() {
            let mut y = vec![0.0; 4];
            spmv_csr(b.as_ref(), &row_ptr, &col_idx, &values, &x, &mut y);
            assert_eq!(y, x);
        }
    }

    #[test]
    fn spmv_tridiagonal() {
        // [2 -1 0; -1 2 -1; 0 -1 2] * [1 1 1] = [1 0 1]
        let row_ptr = vec![0, 2, 5, 7];
        let col_idx = vec![0u32, 1, 0, 1, 2, 1, 2];
        let values = vec![2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0];
        let x = vec![1.0; 3];
        for b in backends() {
            let mut y = vec![0.0; 3];
            spmv_csr(b.as_ref(), &row_ptr, &col_idx, &values, &x, &mut y);
            assert_eq!(y, vec![1.0, 0.0, 1.0]);
        }
    }

    /// Deterministic pseudo-random CSR matrix with ragged rows, including
    /// empty rows and one dense row.
    fn ragged_csr(nrows: usize, ncols: usize) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for row in 0..nrows {
            let len = if row % 11 == 3 {
                0 // empty row
            } else if row == nrows / 2 {
                ncols // dense row
            } else {
                (next() as usize) % 9
            };
            let mut cols: Vec<u32> = if len >= ncols {
                (0..ncols as u32).collect()
            } else {
                let mut c: Vec<u32> = (0..len).map(|_| (next() % ncols as u64) as u32).collect();
                c.sort_unstable();
                c.dedup();
                c
            };
            for &c in &cols {
                col_idx.push(c);
                values.push(((next() % 2000) as f64 - 1000.0) / 128.0);
            }
            row_ptr.push(col_idx.len());
            cols.clear();
        }
        (row_ptr, col_idx, values)
    }

    #[test]
    fn sell_matches_csr_bitwise_on_ragged_matrices() {
        for (nrows, ncols, sigma) in [(1usize, 1usize, 8usize), (37, 50, 16), (200, 64, 64)] {
            let (row_ptr, col_idx, values) = ragged_csr(nrows, ncols);
            let x: Vec<f64> = (0..ncols).map(|i| (i as f64 * 0.37).sin() + 0.5).collect();
            let mut y_csr = vec![0.0; nrows];
            spmv_csr(&SerialBackend, &row_ptr, &col_idx, &values, &x, &mut y_csr);
            let sell = SellMatrix::from_csr(&row_ptr, &col_idx, &values, sigma);
            assert_eq!(sell.nrows(), nrows);
            for b in backends() {
                let mut y_sell = vec![f64::NAN; nrows];
                spmv_sell(b.as_ref(), &sell, &x, &mut y_sell);
                for i in 0..nrows {
                    assert_eq!(
                        y_sell[i].to_bits(),
                        y_csr[i].to_bits(),
                        "row {i} of {nrows} backend {} sigma {sigma}",
                        b.label()
                    );
                }
            }
        }
    }

    #[test]
    fn sell_handles_all_empty_rows() {
        let row_ptr = vec![0usize; 10];
        let sell = SellMatrix::from_csr(&row_ptr, &[], &[], 64);
        assert_eq!(sell.ncols(), 0);
        let mut y = vec![1.0; 9];
        spmv_sell(&SerialBackend, &sell, &[], &mut y);
        assert_eq!(y, vec![0.0; 9]);
    }

    #[test]
    fn sell_padding_is_bounded_by_slice_raggedness() {
        // A sorted window packs equal-length rows together: with sigma
        // covering the whole matrix the padding can only come from the one
        // ragged boundary slice per length class.
        let (row_ptr, col_idx, values) = ragged_csr(128, 40);
        let sorted = SellMatrix::from_csr(&row_ptr, &col_idx, &values, 128);
        let unsorted = SellMatrix::from_csr(&row_ptr, &col_idx, &values, 8);
        assert!(sorted.stored_entries() <= unsorted.stored_entries());
        assert!(sorted.stored_entries() >= col_idx.len());
    }
}
