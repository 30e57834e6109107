//! The linear operators behind the four HPCG variants.
//!
//! Every operator owns an execution [`Backend`]: `apply` always routes
//! through the shared `parkern` kernels, and the Poisson operators carry an
//! 8-colour decomposition of the grid so their symmetric Gauss-Seidel
//! smoother can run same-colour rows in parallel. With the default serial
//! backend the operators behave exactly like the original sequential code
//! (lexicographic sweeps, identical arithmetic order), which keeps the
//! cross-variant parity tests bitwise meaningful.

use parkern::{kernels, Backend, SerialBackend};

use super::problem::Problem;
use super::{HpcgOperator, HpcgVariant};

/// A symmetric positive-definite operator with a symmetric Gauss-Seidel
/// smoother — the two ingredients HPCG's preconditioned CG needs.
pub trait Operator: Send + Sync {
    fn n(&self) -> usize;

    /// `y = A x`.
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// One symmetric Gauss-Seidel sweep applied to `z` for the system
    /// `A z = r`, starting from the current contents of `z`.
    fn symgs(&self, r: &[f64], z: &mut [f64]);
}

/// Build the operator for a variant over the given problem (serial backend).
pub fn build(variant: HpcgVariant, problem: &Problem) -> Box<dyn Operator> {
    build_with_backend(variant, problem, Box::new(SerialBackend))
}

/// Build the operator for a variant ([`HpcgVariant::operator`]) with an
/// explicit execution backend.
///
/// With more than one worker the Poisson operators switch their SymGS sweep
/// from lexicographic to the 8-colour ordering: a *different* (but equally
/// valid) preconditioner whose CG iteration counts match the serial sweep to
/// within a couple of iterations, and whose results are deterministic for
/// any worker count.
pub fn build_with_backend(
    variant: HpcgVariant,
    problem: &Problem,
    backend: Box<dyn Backend>,
) -> Box<dyn Operator> {
    match variant.operator() {
        HpcgOperator::Csr => Box::new(CsrOperator::poisson27_with_backend(problem, backend)),
        HpcgOperator::Sell => Box::new(SellOperator::poisson27_with_backend(problem, backend)),
        HpcgOperator::MatrixFree => Box::new(MatrixFreeOperator::with_backend(problem, backend)),
        HpcgOperator::Lfric => Box::new(LfricOperator::with_backend(problem, backend)),
    }
}

/// Minimum rows per parallel chunk inside one colour sweep; below this the
/// per-region dispatch overhead outweighs the row updates.
const SYMGS_GRAIN: usize = 256;

/// Partition grid rows into 8 parity classes by `(ix mod 2, iy mod 2,
/// iz mod 2)`. In a 27-point (or any ±1-offset) stencil, two cells of the
/// same class differ by an even, non-zero amount in some axis, so they are
/// never neighbours: every class is an independent set, and rows within a
/// class can be smoothed concurrently.
fn parity_color_sets(nx: usize, ny: usize, nz: usize) -> Vec<Vec<u32>> {
    let mut sets: Vec<Vec<u32>> = (0..8).map(|_| Vec::new()).collect();
    for iz in 0..nz {
        for iy in 0..ny {
            for ix in 0..nx {
                let color = (ix & 1) | ((iy & 1) << 1) | ((iz & 1) << 2);
                sets[color].push(((iz * ny + iy) * nx + ix) as u32);
            }
        }
    }
    sets
}

/// Shared-mutable access to the iterate `z` during a coloured sweep.
///
/// Safety contract: within one colour phase, each worker writes only rows of
/// that colour assigned to its chunk; all rows it *reads* belong either to
/// other colours (not written this phase) or are its own row. Phases are
/// separated by the backend's fork-join, which orders the writes.
#[derive(Clone, Copy)]
struct ZPtr(*mut f64);
unsafe impl Send for ZPtr {}
unsafe impl Sync for ZPtr {}

impl ZPtr {
    /// # Safety
    /// `i` in bounds; no concurrent write to `i` (see type-level contract).
    unsafe fn read(self, i: usize) -> f64 {
        unsafe { *self.0.add(i) }
    }

    /// # Safety
    /// `i` in bounds; this worker is the only writer of `i` this phase.
    unsafe fn write(self, i: usize, v: f64) {
        unsafe { *self.0.add(i) = v };
    }
}

/// Assembled 27-point Poisson operator in CSR.
pub struct CsrOperator {
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    diag: Vec<f64>,
    color_sets: Vec<Vec<u32>>,
    backend: Box<dyn Backend>,
}

impl CsrOperator {
    /// Assemble the 27-point operator (diag 26, off-diag −1, Dirichlet
    /// truncation at the boundary) on the serial backend.
    pub fn poisson27(p: &Problem) -> CsrOperator {
        CsrOperator::poisson27_with_backend(p, Box::new(SerialBackend))
    }

    /// Assemble with an explicit execution backend.
    pub fn poisson27_with_backend(p: &Problem, backend: Box<dyn Backend>) -> CsrOperator {
        let n = p.n();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        let mut diag = Vec::with_capacity(n);
        row_ptr.push(0);
        for iz in 0..p.nz {
            for iy in 0..p.ny {
                for ix in 0..p.nx {
                    let row = p.index(ix, iy, iz);
                    for dz in -1i64..=1 {
                        for dy in -1i64..=1 {
                            for dx in -1i64..=1 {
                                let jx = ix as i64 + dx;
                                let jy = iy as i64 + dy;
                                let jz = iz as i64 + dz;
                                if jx < 0
                                    || jy < 0
                                    || jz < 0
                                    || jx >= p.nx as i64
                                    || jy >= p.ny as i64
                                    || jz >= p.nz as i64
                                {
                                    continue;
                                }
                                let col = p.index(jx as usize, jy as usize, jz as usize);
                                let v = if col == row { 26.0 } else { -1.0 };
                                col_idx.push(col as u32);
                                values.push(v);
                            }
                        }
                    }
                    diag.push(26.0);
                    row_ptr.push(col_idx.len());
                }
            }
        }
        let color_sets = parity_color_sets(p.nx, p.ny, p.nz);
        CsrOperator {
            row_ptr,
            col_idx,
            values,
            diag,
            color_sets,
            backend,
        }
    }

    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// One Gauss-Seidel update of `row`, reading and writing through `z`.
    ///
    /// # Safety
    /// Callers must uphold the [`ZPtr`] contract: no other worker writes any
    /// row this call reads, and this worker is the sole writer of `row`.
    unsafe fn gs_row(&self, row: usize, r: &[f64], z: ZPtr) {
        let mut sum = r[row];
        for k in self.row_ptr[row]..self.row_ptr[row + 1] {
            sum -= self.values[k] * unsafe { z.read(self.col_idx[k] as usize) };
        }
        sum += self.diag[row] * unsafe { z.read(row) };
        unsafe { z.write(row, sum / self.diag[row]) };
    }

    /// The original lexicographic sweep (forward then backward). Kept as the
    /// serial reference: cross-variant parity tests compare against it.
    pub fn symgs_lex(&self, r: &[f64], z: &mut [f64]) {
        let n = self.n();
        // Forward sweep.
        for row in 0..n {
            let mut sum = r[row];
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                sum -= self.values[k] * z[self.col_idx[k] as usize];
            }
            sum += self.diag[row] * z[row];
            z[row] = sum / self.diag[row];
        }
        // Backward sweep.
        for row in (0..n).rev() {
            let mut sum = r[row];
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                sum -= self.values[k] * z[self.col_idx[k] as usize];
            }
            sum += self.diag[row] * z[row];
            z[row] = sum / self.diag[row];
        }
    }

    /// The multicoloured sweep: colours in order forward, reversed backward;
    /// rows within a colour update in parallel. Deterministic for any worker
    /// count (each row depends only on rows of other colours, whose values
    /// are fixed for the whole phase).
    pub fn symgs_colored(&self, r: &[f64], z: &mut [f64]) {
        let zp = ZPtr(z.as_mut_ptr());
        for set in &self.color_sets {
            self.color_phase(set, r, zp);
        }
        for set in self.color_sets.iter().rev() {
            self.color_phase(set, r, zp);
        }
    }

    fn color_phase(&self, set: &[u32], r: &[f64], zp: ZPtr) {
        self.backend
            .par_for_grained(set.len(), SYMGS_GRAIN, &|range| {
                let p = zp;
                for &row in &set[range] {
                    // SAFETY: rows in `set` share a colour, so no row in this
                    // phase is a neighbour of (reads) another; chunks make each
                    // row's write exclusive to one worker.
                    unsafe { self.gs_row(row as usize, r, p) };
                }
            });
    }
}

impl Operator for CsrOperator {
    fn n(&self) -> usize {
        self.diag.len()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        kernels::spmv_csr(
            &*self.backend,
            &self.row_ptr,
            &self.col_idx,
            &self.values,
            x,
            y,
        );
    }

    fn symgs(&self, r: &[f64], z: &mut [f64]) {
        if self.backend.workers() > 1 {
            self.symgs_colored(r, z);
        } else {
            self.symgs_lex(r, z);
        }
    }
}

/// The assembled 27-point operator with its SpMV in SELL-C-σ layout
/// (`kernels::SellMatrix`): the layout conversion happens once at
/// construction, and `apply` runs rows as independent SIMD/ILP lanes
/// instead of CSR's serial per-row FMA chain. SymGS sweeps delegate to the
/// embedded CSR operator — same arrays, same arithmetic order — and the
/// SELL lanes accumulate each row in CSR's k-ascending order, so the whole
/// CG trajectory is bitwise identical to [`CsrOperator`]'s.
pub struct SellOperator {
    csr: CsrOperator,
    sell: kernels::SellMatrix,
}

impl SellOperator {
    /// σ sorting window for the SELL conversion: large enough to pack
    /// equal-length boundary rows into uniform slices, small enough that
    /// the gather pattern stays close to the natural row order.
    pub const SIGMA: usize = 64;

    /// Assemble on the serial backend.
    pub fn poisson27(p: &Problem) -> SellOperator {
        SellOperator::poisson27_with_backend(p, Box::new(SerialBackend))
    }

    /// Assemble with an explicit execution backend.
    pub fn poisson27_with_backend(p: &Problem, backend: Box<dyn Backend>) -> SellOperator {
        let csr = CsrOperator::poisson27_with_backend(p, backend);
        let sell =
            kernels::SellMatrix::from_csr(&csr.row_ptr, &csr.col_idx, &csr.values, Self::SIGMA);
        SellOperator { csr, sell }
    }

    /// Stored entries including slice padding (layout overhead measure).
    pub fn stored_entries(&self) -> usize {
        self.sell.stored_entries()
    }
}

impl Operator for SellOperator {
    fn n(&self) -> usize {
        self.csr.n()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        kernels::spmv_sell(&*self.csr.backend, &self.sell, x, y);
    }

    fn symgs(&self, r: &[f64], z: &mut [f64]) {
        self.csr.symgs(r, z);
    }
}

/// The same 27-point operator applied matrix-free: neighbours are
/// enumerated on the fly, coefficients are compile-time constants.
pub struct MatrixFreeOperator {
    nx: usize,
    ny: usize,
    nz: usize,
    color_sets: Vec<Vec<u32>>,
    backend: Box<dyn Backend>,
}

impl MatrixFreeOperator {
    pub fn new(p: &Problem) -> MatrixFreeOperator {
        MatrixFreeOperator::with_backend(p, Box::new(SerialBackend))
    }

    pub fn with_backend(p: &Problem, backend: Box<dyn Backend>) -> MatrixFreeOperator {
        MatrixFreeOperator {
            nx: p.nx,
            ny: p.ny,
            nz: p.nz,
            color_sets: parity_color_sets(p.nx, p.ny, p.nz),
            backend,
        }
    }

    /// Σ over in-bounds neighbours of `x`, excluding the centre.
    fn neighbour_sum(&self, x: &[f64], ix: usize, iy: usize, iz: usize) -> f64 {
        // SAFETY: exclusive slice access; the raw-pointer reads stay in
        // bounds by the same boundary checks the safe path uses.
        unsafe { self.neighbour_sum_raw(x.as_ptr(), ix, iy, iz) }
    }

    /// # Safety
    /// `x` must point at `n()` readable elements, none concurrently written
    /// at the neighbour offsets of `(ix, iy, iz)`.
    unsafe fn neighbour_sum_raw(&self, x: *const f64, ix: usize, iy: usize, iz: usize) -> f64 {
        // Interior points (the bulk) take a branch-free path: the 26
        // neighbour offsets become compile-time constants, so the triple
        // loop fully unrolls. The accumulation order is the same
        // (dz, dy, dx)-ascending order as the boundary path, so both round
        // identically.
        if ix >= 1 && ix + 1 < self.nx && iy >= 1 && iy + 1 < self.ny && iz >= 1 && iz + 1 < self.nz
        {
            let i = ((iz * self.ny + iy) * self.nx + ix) as i64;
            let mut s = 0.0;
            for dz in -1i64..=1 {
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        if dx == 0 && dy == 0 && dz == 0 {
                            continue;
                        }
                        let j = (i + (dz * self.ny as i64 + dy) * self.nx as i64 + dx) as usize;
                        // SAFETY: interior ⇒ all 26 neighbours in bounds.
                        s += unsafe { *x.add(j) };
                    }
                }
            }
            return s;
        }
        let mut s = 0.0;
        for dz in -1i64..=1 {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let jx = ix as i64 + dx;
                    let jy = iy as i64 + dy;
                    let jz = iz as i64 + dz;
                    if jx < 0
                        || jy < 0
                        || jz < 0
                        || jx >= self.nx as i64
                        || jy >= self.ny as i64
                        || jz >= self.nz as i64
                    {
                        continue;
                    }
                    s += unsafe {
                        *x.add((jz as usize * self.ny + jy as usize) * self.nx + jx as usize)
                    };
                }
            }
        }
        s
    }

    fn coords(&self, i: usize) -> (usize, usize, usize) {
        (
            i % self.nx,
            (i / self.nx) % self.ny,
            i / (self.nx * self.ny),
        )
    }

    /// Lexicographic reference sweep (forward then backward).
    pub fn symgs_lex(&self, r: &[f64], z: &mut [f64]) {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        // Forward sweep in lexicographic order (matches CSR ordering, so
        // the two variants produce bitwise-comparable trajectories).
        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = (iz * ny + iy) * nx + ix;
                    z[i] = (r[i] + self.neighbour_sum(z, ix, iy, iz)) / 26.0;
                }
            }
        }
        // Backward sweep.
        for iz in (0..nz).rev() {
            for iy in (0..ny).rev() {
                for ix in (0..nx).rev() {
                    let i = (iz * ny + iy) * nx + ix;
                    z[i] = (r[i] + self.neighbour_sum(z, ix, iy, iz)) / 26.0;
                }
            }
        }
    }

    /// Multicoloured sweep; see [`CsrOperator::symgs_colored`].
    pub fn symgs_colored(&self, r: &[f64], z: &mut [f64]) {
        let zp = ZPtr(z.as_mut_ptr());
        for set in &self.color_sets {
            self.color_phase(set, r, zp);
        }
        for set in self.color_sets.iter().rev() {
            self.color_phase(set, r, zp);
        }
    }

    fn color_phase(&self, set: &[u32], r: &[f64], zp: ZPtr) {
        self.backend
            .par_for_grained(set.len(), SYMGS_GRAIN, &|range| {
                let p = zp;
                for &row in &set[range] {
                    let i = row as usize;
                    let (ix, iy, iz) = self.coords(i);
                    // SAFETY: same-colour rows are never stencil neighbours, so
                    // the reads under this sum are not written this phase; `i`
                    // itself is written only by this worker.
                    unsafe {
                        let v =
                            (r[i] + self.neighbour_sum_raw(p.0 as *const f64, ix, iy, iz)) / 26.0;
                        p.write(i, v);
                    }
                }
            });
    }
}

impl Operator for MatrixFreeOperator {
    fn n(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        // Accumulate the neighbour sum first, then one subtraction: rows are
        // independent, so chunking cannot change the result, and the
        // operation order stays bitwise identical to the serial original
        // (the distributed solver pins itself to exactly this order).
        // Rows run in index order within a chunk, so the coordinates step
        // forward from the chunk's first row instead of being divided out
        // of every index.
        let out = ZPtr(y.as_mut_ptr());
        self.backend
            .par_for_grained(self.n(), SYMGS_GRAIN, &|range| {
                let p = out;
                let (mut ix, mut iy, mut iz) = self.coords(range.start);
                for i in range {
                    let v = 26.0 * x[i] - self.neighbour_sum(x, ix, iy, iz);
                    // SAFETY: chunks are disjoint; `i` is written exactly once.
                    unsafe { p.write(i, v) };
                    ix += 1;
                    if ix == self.nx {
                        ix = 0;
                        iy += 1;
                        if iy == self.ny {
                            iy = 0;
                            iz += 1;
                        }
                    }
                }
            });
    }

    fn symgs(&self, r: &[f64], z: &mut [f64]) {
        if self.backend.workers() > 1 {
            self.symgs_colored(r, z);
        } else {
            self.symgs_lex(r, z);
        }
    }
}

/// A symmetrized Helmholtz operator in the style of the LFRic dynamical
/// core: strong vertical coupling, a mass (λ) term, 7-point structure.
pub struct LfricOperator {
    nx: usize,
    ny: usize,
    nz: usize,
    /// Horizontal coupling.
    ch: f64,
    /// Vertical coupling (atmospheric columns couple more strongly).
    cv: f64,
    /// Helmholtz λ (mass) term — keeps the operator positive definite.
    lambda: f64,
    backend: Box<dyn Backend>,
}

impl LfricOperator {
    pub fn new(p: &Problem) -> LfricOperator {
        LfricOperator::with_backend(p, Box::new(SerialBackend))
    }

    pub fn with_backend(p: &Problem, backend: Box<dyn Backend>) -> LfricOperator {
        LfricOperator {
            nx: p.nx,
            ny: p.ny,
            nz: p.nz,
            ch: 1.0,
            cv: 4.0,
            lambda: 1.0,
            backend,
        }
    }

    fn diag_at(&self, ix: usize, iy: usize, iz: usize) -> f64 {
        // Row diagonal = Σ|off-diagonals| + λ: strictly diagonally dominant.
        let mut d = self.lambda;
        if ix > 0 {
            d += self.ch;
        }
        if ix + 1 < self.nx {
            d += self.ch;
        }
        if iy > 0 {
            d += self.ch;
        }
        if iy + 1 < self.ny {
            d += self.ch;
        }
        if iz > 0 {
            d += self.cv;
        }
        if iz + 1 < self.nz {
            d += self.cv;
        }
        d
    }

    fn off_sum(&self, x: &[f64], ix: usize, iy: usize, iz: usize) -> f64 {
        let (nx, ny) = (self.nx, self.ny);
        let i = (iz * ny + iy) * nx + ix;
        let mut s = 0.0;
        if ix > 0 {
            s += self.ch * x[i - 1];
        }
        if ix + 1 < self.nx {
            s += self.ch * x[i + 1];
        }
        if iy > 0 {
            s += self.ch * x[i - nx];
        }
        if iy + 1 < self.ny {
            s += self.ch * x[i + nx];
        }
        if iz > 0 {
            s += self.cv * x[i - nx * ny];
        }
        if iz + 1 < self.nz {
            s += self.cv * x[i + nx * ny];
        }
        s
    }
}

impl Operator for LfricOperator {
    fn n(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let out = ZPtr(y.as_mut_ptr());
        self.backend
            .par_for_grained(self.n(), SYMGS_GRAIN, &|range| {
                let p = out;
                for i in range {
                    let ix = i % self.nx;
                    let iy = (i / self.nx) % self.ny;
                    let iz = i / (self.nx * self.ny);
                    let v = self.diag_at(ix, iy, iz) * x[i] - self.off_sum(x, ix, iy, iz);
                    // SAFETY: chunks are disjoint; `i` is written exactly once.
                    unsafe { p.write(i, v) };
                }
            });
    }

    fn symgs(&self, r: &[f64], z: &mut [f64]) {
        for iz in 0..self.nz {
            for iy in 0..self.ny {
                for ix in 0..self.nx {
                    let i = (iz * self.ny + iy) * self.nx + ix;
                    z[i] = (r[i] + self.off_sum(z, ix, iy, iz)) / self.diag_at(ix, iy, iz);
                }
            }
        }
        for iz in (0..self.nz).rev() {
            for iy in (0..self.ny).rev() {
                for ix in (0..self.nx).rev() {
                    let i = (iz * self.ny + iy) * self.nx + ix;
                    z[i] = (r[i] + self.off_sum(z, ix, iy, iz)) / self.diag_at(ix, iy, iz);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpcg::cg::pcg;
    use crate::hpcg::HpcgVariant;
    use parkern::PoolBackend;

    #[test]
    fn parallel_apply_matches_serial_bitwise_on_all_backends() {
        // `apply` computes each row independently, so chunking must not
        // change a single bit of the output at any pool size.
        let p = Problem::cube(7);
        let x: Vec<f64> = (0..p.n()).map(|i| (i as f64 * 0.37).sin()).collect();
        for variant in HpcgVariant::all() {
            let serial = build(*variant, &p);
            let mut want = vec![0.0; p.n()];
            serial.apply(&x, &mut want);
            for workers in [1usize, 2, 3, 4] {
                let op = build_with_backend(*variant, &p, Box::new(PoolBackend::new(workers)));
                let mut got = vec![0.0; p.n()];
                op.apply(&x, &mut got);
                assert_eq!(want, got, "{variant:?} apply diverged at {workers} workers");
            }
        }
    }

    #[test]
    fn colored_preconditioner_matches_serial_cg_iterations() {
        // The multicolored sweep is a different (but equally strong)
        // preconditioner than the lexicographic one: CG must converge in
        // the same number of iterations, give or take two.
        let p = Problem::cube(16);
        for variant in [HpcgVariant::Csr, HpcgVariant::MatrixFree] {
            let serial = build(variant, &p);
            let colored = build_with_backend(variant, &p, Box::new(PoolBackend::new(4)));
            let a = pcg(serial.as_ref(), &p.rhs, 50, 1e-10);
            let b = pcg(colored.as_ref(), &p.rhs, 50, 1e-10);
            assert!(
                a.iterations.abs_diff(b.iterations) <= 2,
                "{variant:?}: serial {} vs colored {} iterations",
                a.iterations,
                b.iterations
            );
            assert!(b.converging());
        }
    }

    #[test]
    fn csr_and_matrix_free_agree_exactly() {
        let p = Problem::cube(6);
        let csr = CsrOperator::poisson27(&p);
        let mf = MatrixFreeOperator::new(&p);
        let x: Vec<f64> = (0..p.n()).map(|i| ((i * 31) % 17) as f64 * 0.125).collect();
        let mut y1 = vec![0.0; p.n()];
        let mut y2 = vec![0.0; p.n()];
        csr.apply(&x, &mut y1);
        mf.apply(&x, &mut y2);
        assert_eq!(y1, y2, "assembled and matrix-free operators must agree");
        // SymGS sweeps agree too (same ordering).
        let r = p.rhs.clone();
        let mut z1 = vec![0.0; p.n()];
        let mut z2 = vec![0.0; p.n()];
        csr.symgs(&r, &mut z1);
        mf.symgs(&r, &mut z2);
        for (a, b) in z1.iter().zip(&z2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn matrix_free_apply_steps_coordinates_across_chunks_on_a_box() {
        // Unequal edges catch a swapped axis in the stepped coordinates;
        // 1000 rows split into several chunks per pool size, each one
        // starting mid-row and mid-plane.
        let p = Problem::new(5, 8, 25);
        let x: Vec<f64> = (0..p.n()).map(|i| (i as f64 * 0.23).sin()).collect();
        // Each row on its own, coordinates divided out of the index.
        let reference = MatrixFreeOperator::new(&p);
        let want: Vec<f64> = (0..p.n())
            .map(|i| {
                let (ix, iy, iz) = reference.coords(i);
                26.0 * x[i] - reference.neighbour_sum(&x, ix, iy, iz)
            })
            .collect();
        for workers in [1usize, 2, 3] {
            let mf = MatrixFreeOperator::with_backend(&p, Box::new(PoolBackend::new(workers)));
            let mut got = vec![f64::NAN; p.n()];
            mf.apply(&x, &mut got);
            for i in 0..p.n() {
                assert_eq!(
                    got[i].to_bits(),
                    want[i].to_bits(),
                    "row {i}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn sell_apply_matches_csr_bitwise() {
        let p = Problem::cube(9);
        let csr = CsrOperator::poisson27(&p);
        let sell = SellOperator::poisson27(&p);
        // Padding exists (boundary rows are shorter) but is bounded.
        assert!(sell.stored_entries() >= csr.nnz());
        let x: Vec<f64> = (0..p.n()).map(|i| (i as f64 * 0.11).cos() * 2.0).collect();
        let mut y_csr = vec![0.0; p.n()];
        let mut y_sell = vec![f64::NAN; p.n()];
        csr.apply(&x, &mut y_csr);
        sell.apply(&x, &mut y_sell);
        for i in 0..p.n() {
            assert_eq!(y_sell[i].to_bits(), y_csr[i].to_bits(), "row {i}");
        }
    }

    #[test]
    fn cg_residuals_bitwise_identical_across_backends_and_worker_counts() {
        // Wrappers pinning the SymGS sweep to the coloured ordering, so the
        // whole CG trajectory is worker-count independent (the production
        // `symgs` picks lexicographic at one worker — a different, equally
        // valid preconditioner).
        struct Colored<O>(O);
        impl Operator for Colored<CsrOperator> {
            fn n(&self) -> usize {
                self.0.n()
            }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                self.0.apply(x, y)
            }
            fn symgs(&self, r: &[f64], z: &mut [f64]) {
                self.0.symgs_colored(r, z)
            }
        }
        impl Operator for Colored<SellOperator> {
            fn n(&self) -> usize {
                self.0.n()
            }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                self.0.apply(x, y)
            }
            fn symgs(&self, r: &[f64], z: &mut [f64]) {
                self.0.csr.symgs_colored(r, z)
            }
        }

        let p = Problem::cube(12);
        let reference = pcg(&Colored(CsrOperator::poisson27(&p)), &p.rhs, 25, 1e-10);
        assert!(reference.iterations > 0);
        for workers in [1usize, 2, 3, 8] {
            let stats = pcg(
                &Colored(CsrOperator::poisson27_with_backend(
                    &p,
                    Box::new(PoolBackend::new(workers)),
                )),
                &p.rhs,
                25,
                1e-10,
            );
            assert_eq!(stats.iterations, reference.iterations, "{workers} workers");
            for (i, (a, b)) in stats.residuals.iter().zip(&reference.residuals).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "residual {i} diverged at {workers} workers"
                );
            }
            // SELL follows the same trajectory bit-for-bit: same matrix
            // arrays, same per-row summation order, same sweeps.
            let sell = pcg(
                &Colored(SellOperator::poisson27_with_backend(
                    &p,
                    Box::new(PoolBackend::new(workers)),
                )),
                &p.rhs,
                25,
                1e-10,
            );
            assert_eq!(sell.iterations, reference.iterations);
            for (a, b) in sell.residuals.iter().zip(&reference.residuals) {
                assert_eq!(a.to_bits(), b.to_bits(), "sell at {workers} workers");
            }
        }
    }

    #[test]
    fn csr_nnz_count() {
        let p = Problem::cube(4);
        let csr = CsrOperator::poisson27(&p);
        // 64 rows; interior rows have 27 entries, boundary fewer.
        assert_eq!(csr.n(), 64);
        // Corner rows have 8 entries (2×2×2 box).
        assert!(csr.nnz() < 64 * 27);
        assert!(csr.nnz() > 64 * 8);
    }

    #[test]
    fn parity_colors_partition_and_are_independent() {
        let (nx, ny, nz) = (6, 5, 4);
        let sets = parity_color_sets(nx, ny, nz);
        assert_eq!(sets.len(), 8);
        let total: usize = sets.iter().map(Vec::len).sum();
        assert_eq!(total, nx * ny * nz, "colours must partition the grid");
        // No two cells of a colour are stencil neighbours (all offsets ≤1).
        for set in &sets {
            for &a in set {
                for &b in set {
                    if a == b {
                        continue;
                    }
                    let (a, b) = (a as usize, b as usize);
                    let (ax, ay, az) = (a % nx, (a / nx) % ny, a / (nx * ny));
                    let (bx, by, bz) = (b % nx, (b / nx) % ny, b / (nx * ny));
                    let adjacent =
                        ax.abs_diff(bx) <= 1 && ay.abs_diff(by) <= 1 && az.abs_diff(bz) <= 1;
                    assert!(!adjacent, "same-colour neighbours: {a} and {b}");
                }
            }
        }
    }

    #[test]
    fn colored_symgs_deterministic_across_worker_counts() {
        let p = Problem::cube(8);
        let reference = {
            let op = CsrOperator::poisson27(&p);
            let mut z = vec![0.0; p.n()];
            op.symgs_colored(&p.rhs, &mut z);
            z
        };
        for workers in [1usize, 2, 3, 4, 8] {
            let op = CsrOperator::poisson27_with_backend(&p, Box::new(PoolBackend::new(workers)));
            let mut z = vec![0.0; p.n()];
            op.symgs_colored(&p.rhs, &mut z);
            assert_eq!(z, reference, "workers={workers}");
        }
        // Matrix-free colored agrees with CSR colored to rounding.
        let mf = MatrixFreeOperator::with_backend(&p, Box::new(PoolBackend::new(4)));
        let mut z = vec![0.0; p.n()];
        mf.symgs_colored(&p.rhs, &mut z);
        for (a, b) in z.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn colored_symgs_reduces_residual() {
        let p = Problem::cube(8);
        let op = CsrOperator::poisson27_with_backend(&p, Box::new(PoolBackend::new(4)));
        let b = p.rhs.clone();
        let mut z = vec![0.0; p.n()];
        let res = |z: &[f64]| {
            let mut az = vec![0.0; p.n()];
            op.apply(z, &mut az);
            az.iter()
                .zip(&b)
                .map(|(a, bi)| (bi - a).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let r0 = res(&z);
        op.symgs(&b, &mut z);
        let r1 = res(&z);
        op.symgs(&b, &mut z);
        let r2 = res(&z);
        assert!(r1 < r0, "one coloured sweep should reduce the residual");
        assert!(r2 < r1, "two coloured sweeps should reduce it further");
    }

    #[test]
    fn operators_are_symmetric() {
        // <Ax, y> == <x, Ay> for random x, y.
        let p = Problem::cube(5);
        let ops: Vec<Box<dyn Operator>> = vec![
            Box::new(CsrOperator::poisson27(&p)),
            Box::new(SellOperator::poisson27(&p)),
            Box::new(MatrixFreeOperator::new(&p)),
            Box::new(LfricOperator::new(&p)),
        ];
        let n = p.n();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 13) as f64).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 5 + 1) % 11) as f64).collect();
        for op in &ops {
            let mut ax = vec![0.0; n];
            let mut ay = vec![0.0; n];
            op.apply(&x, &mut ax);
            op.apply(&y, &mut ay);
            let axy: f64 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
            let xay: f64 = x.iter().zip(&ay).map(|(a, b)| a * b).sum();
            assert!((axy - xay).abs() < 1e-8 * axy.abs().max(1.0));
        }
    }

    #[test]
    fn operators_are_positive_definite_on_probe() {
        let p = Problem::cube(5);
        let ops: Vec<Box<dyn Operator>> = vec![
            Box::new(CsrOperator::poisson27(&p)),
            Box::new(SellOperator::poisson27(&p)),
            Box::new(MatrixFreeOperator::new(&p)),
            Box::new(LfricOperator::new(&p)),
        ];
        let n = p.n();
        for probe in 0..5 {
            let x: Vec<f64> = (0..n)
                .map(|i| (((i + probe) * 2654435761) % 1000) as f64 / 500.0 - 1.0)
                .collect();
            for op in &ops {
                let mut ax = vec![0.0; n];
                op.apply(&x, &mut ax);
                let xax: f64 = x.iter().zip(&ax).map(|(a, b)| a * b).sum();
                assert!(xax > 0.0, "operator not PD on probe {probe}");
            }
        }
    }

    #[test]
    fn symgs_reduces_residual() {
        let p = Problem::cube(6);
        for op in [build(HpcgVariant::Csr, &p), build(HpcgVariant::Lfric, &p)] {
            let b = p.rhs.clone();
            let mut z = vec![0.0; p.n()];
            let res = |z: &[f64]| {
                let mut az = vec![0.0; p.n()];
                op.apply(z, &mut az);
                az.iter()
                    .zip(&b)
                    .map(|(a, bi)| (bi - a).powi(2))
                    .sum::<f64>()
                    .sqrt()
            };
            let r0 = res(&z);
            op.symgs(&b, &mut z);
            let r1 = res(&z);
            op.symgs(&b, &mut z);
            let r2 = res(&z);
            assert!(r1 < r0, "one sweep should reduce the residual");
            assert!(r2 < r1, "two sweeps should reduce it further");
        }
    }
}
