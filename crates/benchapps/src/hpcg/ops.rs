//! The linear operators behind the four HPCG variants.
//!
//! Every operator runs serially. The paper runs HPCG MPI-only (Table 2's
//! rank layout), and a survey already fills the cores with cells, so no
//! workload would run a threaded sweep. CSR and SELL `apply` call the
//! shared `parkern` SpMV kernels on the serial backend; the matrix-free
//! and LFRic operators are plain loops. The SymGS smoother is the
//! lexicographic sweep, whose arithmetic order the cross-variant parity
//! tests rely on.
//!
//! Two shortcuts keep that arithmetic while doing less work, and
//! `differential` pins both against verbatim copies of the code they
//! replaced:
//!
//! * [`Operator::precondition`] sweeps from `z = 0`, so its forward sweep
//!   skips every term that reads a not-yet-updated `+0.0` (see the
//!   signed-zero argument at each implementation);
//! * the matrix-free stencil accumulates a whole grid row at a time: each
//!   of the row's neighbour rows is added as one slice, in the per-point
//!   (dz, dy, dx) order, so every lane sums the same terms in the same
//!   order as the per-point loop did.

use parkern::{kernels, SerialBackend};

use super::problem::Problem;
use super::{HpcgOperator, HpcgVariant};

/// A symmetric positive-definite operator with a symmetric Gauss-Seidel
/// preconditioner — the two ingredients HPCG's preconditioned CG needs.
pub trait Operator: Send + Sync {
    fn n(&self) -> usize;

    /// `y = A x`.
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// `z = M⁻¹ r`: one symmetric Gauss-Seidel sweep for `A z = r` starting
    /// from `z = 0`. The previous contents of `z` are ignored; the result is
    /// bit for bit what zero-filling `z` and sweeping gives.
    fn precondition(&self, r: &[f64], z: &mut [f64]);
}

/// Build the operator for a variant ([`HpcgVariant::operator`]) over the
/// given problem.
pub fn build(variant: HpcgVariant, problem: &Problem) -> Box<dyn Operator> {
    match variant.operator() {
        HpcgOperator::Csr => Box::new(CsrOperator::poisson27(problem)),
        HpcgOperator::Sell => Box::new(SellOperator::poisson27(problem)),
        HpcgOperator::MatrixFree => Box::new(MatrixFreeOperator::new(problem)),
        HpcgOperator::Lfric => Box::new(LfricOperator::new(problem)),
    }
}

/// Assembled 27-point Poisson operator in CSR.
pub struct CsrOperator {
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    diag: Vec<f64>,
    /// Index into `col_idx` of each row's diagonal entry. Columns ascend
    /// within a row, so the entries before it are the row's lower triangle.
    diag_pos: Vec<usize>,
}

impl CsrOperator {
    /// Assemble the 27-point operator (diag 26, off-diag −1, Dirichlet
    /// truncation at the boundary).
    pub fn poisson27(p: &Problem) -> CsrOperator {
        let n = p.n();
        let nnz = Self::poisson27_nnz(p);
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        let mut diag = Vec::with_capacity(n);
        let mut diag_pos = Vec::with_capacity(n);
        // The in-range neighbours of cell `i` along an axis of `m` cells,
        // ascending: the truncated offsets −1, 0, +1.
        let near = |i: usize, m: usize| i.saturating_sub(1)..(i + 2).min(m);
        row_ptr.push(0);
        for iz in 0..p.nz {
            for iy in 0..p.ny {
                for ix in 0..p.nx {
                    let row = p.index(ix, iy, iz);
                    for jz in near(iz, p.nz) {
                        for jy in near(iy, p.ny) {
                            for jx in near(ix, p.nx) {
                                let col = p.index(jx, jy, jz);
                                if col == row {
                                    diag_pos.push(col_idx.len());
                                }
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
        CsrOperator {
            row_ptr,
            col_idx,
            values,
            diag,
            diag_pos,
        }
    }

    /// Entries [`CsrOperator::poisson27`] stores for `p`. Along an axis of
    /// `m` cells the in-range offsets number 2 at each end and 3 inside,
    /// `3m − 2` in all (1 when `m` is 1), and a row's entry count is the
    /// product of its three axes' counts, so the total is the product of
    /// the three sums.
    fn poisson27_nnz(p: &Problem) -> usize {
        [p.nx, p.ny, p.nz].iter().map(|&m| 3 * m - 2).product()
    }

    /// One Gauss-Seidel update of `row` from the current contents of `z`.
    fn relax_row(&self, row: usize, r: &[f64], z: &mut [f64]) {
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        let mut sum = r[row];
        for (&v, &col) in self.values[lo..hi].iter().zip(&self.col_idx[lo..hi]) {
            sum -= v * z[col as usize];
        }
        sum += self.diag[row] * z[row];
        z[row] = sum / self.diag[row];
    }

    /// The lexicographic sweep (forward then backward) from the current
    /// contents of `z`.
    pub fn symgs_lex(&self, r: &[f64], z: &mut [f64]) {
        let n = self.n();
        for row in 0..n {
            self.relax_row(row, r, z);
        }
        for row in (0..n).rev() {
            self.relax_row(row, r, z);
        }
    }

    /// [`CsrOperator::symgs_lex`] from `z = 0`, bit for bit, without reading
    /// `z` first.
    ///
    /// In the forward sweep every entry at or right of the diagonal reads a
    /// `+0.0`. `sum - v·(+0.0)` leaves `sum` alone or adds `+0.0`, and the
    /// trailing `+ diag·z[row]` (a positive diagonal) always adds `+0.0`, so
    /// all of them together are exactly one `sum + 0.0`: it turns a `-0.0`
    /// sum (from `r[row] = -0.0`) into `+0.0` and changes nothing else.
    fn symgs_lex_from_zero(&self, r: &[f64], z: &mut [f64]) {
        let n = self.n();
        for row in 0..n {
            let (lo, d) = (self.row_ptr[row], self.diag_pos[row]);
            let mut sum = r[row];
            for (&v, &col) in self.values[lo..d].iter().zip(&self.col_idx[lo..d]) {
                sum -= v * z[col as usize];
            }
            z[row] = (sum + 0.0) / self.diag[row];
        }
        for row in (0..n).rev() {
            self.relax_row(row, r, z);
        }
    }
}

impl Operator for CsrOperator {
    fn n(&self) -> usize {
        self.diag.len()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        kernels::spmv_csr(
            &SerialBackend,
            &self.row_ptr,
            &self.col_idx,
            &self.values,
            x,
            y,
        );
    }

    fn precondition(&self, r: &[f64], z: &mut [f64]) {
        self.symgs_lex_from_zero(r, z);
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
    pub(crate) const SIGMA: usize = 64;

    /// Assemble the operator and convert it to SELL-C-σ.
    pub fn poisson27(p: &Problem) -> SellOperator {
        let csr = CsrOperator::poisson27(p);
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
        kernels::spmv_sell(&SerialBackend, &self.sell, x, y);
    }

    fn precondition(&self, r: &[f64], z: &mut [f64]) {
        self.csr.precondition(r, z);
    }
}

/// The same 27-point operator applied matrix-free: neighbours are
/// enumerated on the fly, coefficients are compile-time constants.
pub struct MatrixFreeOperator {
    nx: usize,
    ny: usize,
    nz: usize,
}

impl MatrixFreeOperator {
    pub fn new(p: &Problem) -> MatrixFreeOperator {
        MatrixFreeOperator {
            nx: p.nx,
            ny: p.ny,
            nz: p.nz,
        }
    }

    /// Σ over in-bounds neighbours of `x`, excluding the centre.
    fn neighbour_sum(&self, x: &[f64], ix: usize, iy: usize, iz: usize) -> f64 {
        // One length check up front keeps the unchecked reads below in
        // bounds: every neighbour index lies inside the grid.
        let x = &x[..self.n()];
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
                        s += unsafe { *x.get_unchecked(j) };
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
                    let j = (jz as usize * self.ny + jy as usize) * self.nx + jx as usize;
                    // SAFETY: the checks above keep the neighbour in the grid.
                    s += unsafe { *x.get_unchecked(j) };
                }
            }
        }
        s
    }

    /// Add to `acc`, one lane per point of grid row `row`, the in-grid
    /// neighbours of `x` that lie in grid rows `jys` of plane `jz`, in the
    /// per-point (dz, dy, dx) order. Out-of-grid neighbours are skipped as
    /// the per-point sum skips them; the centre point is never added.
    fn add_neighbour_rows(
        &self,
        acc: &mut [f64],
        x: &[f64],
        row: usize,
        jz: usize,
        jys: std::ops::RangeInclusive<usize>,
    ) {
        let nx = self.nx;
        for jy in jys {
            let src_row = jz * self.ny + jy;
            let src = &x[src_row * nx..(src_row + 1) * nx];
            // dx = -1, 0, +1: lane `ix` reads `src[ix + dx]` where in grid.
            for (a, s) in acc[1..].iter_mut().zip(&src[..nx - 1]) {
                *a += *s;
            }
            if src_row != row {
                for (a, s) in acc.iter_mut().zip(src) {
                    *a += *s;
                }
            }
            for (a, s) in acc[..nx - 1].iter_mut().zip(&src[1..]) {
                *a += *s;
            }
        }
    }

    /// [`MatrixFreeOperator::symgs_lex`] from `z = 0`, bit for bit, without
    /// reading `z` first.
    ///
    /// A neighbour sum starts at `+0.0`, and an IEEE sum is `-0.0` only when
    /// both operands are, so it never holds `-0.0`: adding the `+0.0` of a
    /// not-yet-updated neighbour changes nothing, and the forward sweep drops
    /// those terms. What stays is the plane below and the row below, added
    /// row-wide in (dz, dy, dx) order, then the left neighbour.
    fn symgs_lex_from_zero(&self, r: &[f64], z: &mut [f64]) {
        let (nx, ny) = (self.nx, self.ny);
        for row in 0..ny * self.nz {
            let (iy, iz) = (row % ny, row / ny);
            let (done, rest) = z.split_at_mut(row * nx);
            let acc = &mut rest[..nx];
            acc.fill(0.0);
            if iz > 0 {
                let jys = iy.saturating_sub(1)..=(iy + 1).min(ny - 1);
                self.add_neighbour_rows(acc, done, row, iz - 1, jys);
            }
            if iy > 0 {
                self.add_neighbour_rows(acc, done, row, iz, iy - 1..=iy - 1);
            }
            let r = &r[row * nx..(row + 1) * nx];
            acc[0] = (r[0] + acc[0]) / 26.0;
            for ix in 1..nx {
                acc[ix] = (r[ix] + (acc[ix] + acc[ix - 1])) / 26.0;
            }
        }
        self.backward_sweep(r, z);
    }

    /// Lexicographic sweep (forward then backward) from the current
    /// contents of `z`.
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
        self.backward_sweep(r, z);
    }

    /// The backward half of the lexicographic sweep.
    fn backward_sweep(&self, r: &[f64], z: &mut [f64]) {
        let (nx, ny) = (self.nx, self.ny);
        for iz in (0..self.nz).rev() {
            for iy in (0..ny).rev() {
                for ix in (0..nx).rev() {
                    let i = (iz * ny + iy) * nx + ix;
                    z[i] = (r[i] + self.neighbour_sum(z, ix, iy, iz)) / 26.0;
                }
            }
        }
    }
}

impl Operator for MatrixFreeOperator {
    fn n(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        // Accumulate the neighbour sum first, then one subtraction, in the
        // per-point (dz, dy, dx) order the distributed solver pins itself
        // to. Each grid row's sums build up in its own slice of `y`, one
        // neighbour row at a time.
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        for (row, acc) in y[..self.n()].chunks_exact_mut(nx).enumerate() {
            let (iy, iz) = (row % ny, row / ny);
            let jys = iy.saturating_sub(1)..=(iy + 1).min(ny - 1);
            acc.fill(0.0);
            for jz in iz.saturating_sub(1)..=(iz + 1).min(nz - 1) {
                self.add_neighbour_rows(acc, x, row, jz, jys.clone());
            }
            for (a, &xi) in acc.iter_mut().zip(&x[row * nx..(row + 1) * nx]) {
                *a = 26.0 * xi - *a;
            }
        }
    }

    fn precondition(&self, r: &[f64], z: &mut [f64]) {
        self.symgs_lex_from_zero(r, z);
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
}

impl LfricOperator {
    pub fn new(p: &Problem) -> LfricOperator {
        LfricOperator {
            nx: p.nx,
            ny: p.ny,
            nz: p.nz,
            ch: 1.0,
            cv: 4.0,
            lambda: 1.0,
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
        let (nx, ny) = (self.nx, self.ny);
        for iz in 0..self.nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = (iz * ny + iy) * nx + ix;
                    y[i] = self.diag_at(ix, iy, iz) * x[i] - self.off_sum(x, ix, iy, iz);
                }
            }
        }
    }

    /// The lexicographic sweep from `z = 0`. As in the matrix-free forward
    /// sweep, `off_sum` starts at `+0.0` and so never holds `-0.0`, so the
    /// not-yet-updated neighbours (each a coefficient times `+0.0`) add
    /// nothing and are dropped; the left, lower and below neighbours keep
    /// `off_sum`'s order.
    fn precondition(&self, r: &[f64], z: &mut [f64]) {
        let (nx, ny) = (self.nx, self.ny);
        for iz in 0..self.nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = (iz * ny + iy) * nx + ix;
                    let mut s = 0.0;
                    if ix > 0 {
                        s += self.ch * z[i - 1];
                    }
                    if iy > 0 {
                        s += self.ch * z[i - nx];
                    }
                    if iz > 0 {
                        s += self.cv * z[i - nx * ny];
                    }
                    z[i] = (r[i] + s) / self.diag_at(ix, iy, iz);
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
#[path = "ops_differential.rs"]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpcg::cg::pcg;
    use crate::hpcg::HpcgVariant;

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
        csr.precondition(&r, &mut z1);
        mf.precondition(&r, &mut z2);
        for (a, b) in z1.iter().zip(&z2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn matrix_free_apply_steps_coordinates_across_chunks_on_a_box() {
        // Unequal edges catch a swapped axis in the row lanes: every point
        // must get exactly the per-point neighbour sum.
        let p = Problem::new(5, 8, 25);
        let x: Vec<f64> = (0..p.n()).map(|i| (i as f64 * 0.23).sin()).collect();
        let mf = MatrixFreeOperator::new(&p);
        let mut got = vec![f64::NAN; p.n()];
        mf.apply(&x, &mut got);
        for i in 0..p.n() {
            // Coordinates divided out of the index, each point on its own.
            let (ix, iy, iz) = (i % p.nx, (i / p.nx) % p.ny, i / (p.nx * p.ny));
            let want = 26.0 * x[i] - mf.neighbour_sum(&x, ix, iy, iz);
            assert_eq!(got[i].to_bits(), want.to_bits(), "row {i}");
        }
    }

    #[test]
    fn poisson27_entry_count_matches_the_assembled_matrix() {
        // A one-wide axis is below `Problem::new`'s minimum, so that box
        // is built by hand; assembly only reads the three edges.
        let thin = Problem {
            nx: 4,
            ny: 1,
            nz: 3,
            rhs: Vec::new(),
        };
        for p in [Problem::new(5, 8, 25), thin, Problem::cube(2)] {
            let csr = CsrOperator::poisson27(&p);
            assert_eq!(CsrOperator::poisson27_nnz(&p), csr.values.len(), "{p:?}");
            assert_eq!(csr.values.capacity(), csr.values.len(), "reserved exactly");
        }
    }

    #[test]
    fn sell_apply_matches_csr_bitwise() {
        let p = Problem::cube(9);
        let csr = CsrOperator::poisson27(&p);
        let sell = SellOperator::poisson27(&p);
        // Padding exists (boundary rows are shorter) but is bounded.
        assert!(sell.stored_entries() >= csr.values.len());
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
    fn sell_cg_residuals_bitwise_identical_to_csr() {
        // SELL follows CSR's CG trajectory bit for bit: same matrix arrays,
        // same per-row summation order, same sweeps.
        let p = Problem::cube(12);
        let csr = pcg(&CsrOperator::poisson27(&p), &p.rhs, 25, 1e-10);
        assert!(csr.iterations > 0);
        let sell = pcg(&SellOperator::poisson27(&p), &p.rhs, 25, 1e-10);
        assert_eq!(sell.iterations, csr.iterations);
        for (i, (a, b)) in sell.residuals.iter().zip(&csr.residuals).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "residual {i}");
        }
    }

    #[test]
    fn csr_nnz_count() {
        let p = Problem::cube(4);
        let csr = CsrOperator::poisson27(&p);
        // 64 rows; interior rows have 27 entries, boundary fewer.
        assert_eq!(csr.n(), 64);
        // Corner rows have 8 entries (2×2×2 box).
        assert!(csr.values.len() < 64 * 27);
        assert!(csr.values.len() > 64 * 8);
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
            op.precondition(&b, &mut z);
            let r1 = res(&z);
            // A second sweep from `z` is `z + M⁻¹(b - A z)`.
            let mut az = vec![0.0; p.n()];
            op.apply(&z, &mut az);
            let defect: Vec<f64> = b.iter().zip(&az).map(|(bi, a)| bi - a).collect();
            let mut correction = vec![0.0; p.n()];
            op.precondition(&defect, &mut correction);
            for (zi, c) in z.iter_mut().zip(&correction) {
                *zi += c;
            }
            let r2 = res(&z);
            assert!(r1 < r0, "one sweep should reduce the residual");
            assert!(r2 < r1, "two sweeps should reduce it further");
        }
    }
}
