//! Differential tests: the production SymGS preconditioners and the
//! matrix-free `apply` against verbatim copies of the code they replaced,
//! compared bit for bit. The fast paths may only drop terms that provably
//! add nothing (see the signed-zero arguments in `ops`) and change loop
//! structure, never a floating-point operation, its operands or their
//! order. Inputs are random non-cubic boxes of 2–17 points per side whose
//! vectors hold both signed zeros.

use super::*;
use crate::hpcg::cg::pcg;

/// The replaced code, copied verbatim: the CSR and matrix-free sweeps as
/// they ran from a zero-filled `z`, the matrix-free per-point `apply`, and
/// the LFRic sweep (with the helpers each one read). The per-point `apply`
/// ran in pool chunks; here it is one chunk, the whole grid.
mod old {
    use super::super::CsrOperator;

    /// `CsrOperator::symgs_lex`.
    pub(crate) fn csr_symgs_lex(op: &CsrOperator, r: &[f64], z: &mut [f64]) {
        let n = op.diag.len();
        // Forward sweep.
        for row in 0..n {
            let mut sum = r[row];
            for k in op.row_ptr[row]..op.row_ptr[row + 1] {
                sum -= op.values[k] * z[op.col_idx[k] as usize];
            }
            sum += op.diag[row] * z[row];
            z[row] = sum / op.diag[row];
        }
        // Backward sweep.
        for row in (0..n).rev() {
            let mut sum = r[row];
            for k in op.row_ptr[row]..op.row_ptr[row + 1] {
                sum -= op.values[k] * z[op.col_idx[k] as usize];
            }
            sum += op.diag[row] * z[row];
            z[row] = sum / op.diag[row];
        }
    }

    pub struct MatrixFree {
        pub nx: usize,
        pub ny: usize,
        pub nz: usize,
    }

    impl MatrixFree {
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
            if ix >= 1
                && ix + 1 < self.nx
                && iy >= 1
                && iy + 1 < self.ny
                && iz >= 1
                && iz + 1 < self.nz
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
                        // SAFETY: the checks above keep the neighbour in the grid.
                        s += unsafe {
                            *x.add((jz as usize * self.ny + jy as usize) * self.nx + jx as usize)
                        };
                    }
                }
            }
            s
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

        pub fn apply(&self, x: &[f64], y: &mut [f64]) {
            // Accumulate the neighbour sum first, then one subtraction: rows are
            // independent, so chunking cannot change the result, and the
            // operation order stays bitwise identical to the serial original
            // (the distributed solver pins itself to exactly this order).
            // Rows run in index order within a chunk, so the coordinates step
            // forward from the chunk's first row instead of being divided out
            // of every index.
            let (mut ix, mut iy, mut iz) = (0, 0, 0);
            for (i, out) in y.iter_mut().enumerate() {
                let v = 26.0 * x[i] - self.neighbour_sum(x, ix, iy, iz);
                *out = v;
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
        }
    }

    pub struct Lfric {
        pub nx: usize,
        pub ny: usize,
        pub nz: usize,
        pub ch: f64,
        pub cv: f64,
        pub lambda: f64,
    }

    impl Lfric {
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

        pub fn symgs(&self, r: &[f64], z: &mut [f64]) {
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
}

/// splitmix64: a seeded stream for boxes and vectors.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A box of 2–17 points per side.
    fn problem(&mut self) -> Problem {
        let mut side = || 2 + (self.next() % 16) as usize;
        Problem::new(side(), side(), side())
    }

    /// Values in [-4, 4) with a quarter of them `+0.0` or `-0.0`.
    fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| match self.next() % 8 {
                0 => 0.0,
                1 => -0.0,
                _ => (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0,
            })
            .collect()
    }
}

const BOXES: usize = 24;

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i}: {g:e} vs {w:e}"
        );
    }
}

fn old_matrix_free(p: &Problem) -> old::MatrixFree {
    old::MatrixFree {
        nx: p.nx,
        ny: p.ny,
        nz: p.nz,
    }
}

fn old_lfric(op: &LfricOperator) -> old::Lfric {
    old::Lfric {
        nx: op.nx,
        ny: op.ny,
        nz: op.nz,
        ch: op.ch,
        cv: op.cv,
        lambda: op.lambda,
    }
}

/// What the old `pcg` ran for one preconditioner application on `op`:
/// zero-fill `z`, then the old trait `symgs` (the lexicographic sweep).
fn old_precondition(op: HpcgOperator, built: &Built, r: &[f64]) -> Vec<f64> {
    let mut z = vec![0.0; r.len()];
    match op {
        HpcgOperator::Csr => old::csr_symgs_lex(&built.csr, r, &mut z),
        HpcgOperator::Sell => old::csr_symgs_lex(&built.sell.csr, r, &mut z),
        HpcgOperator::MatrixFree => built.old_mf.symgs_lex(r, &mut z),
        HpcgOperator::Lfric => old_lfric(&built.lfric).symgs(r, &mut z),
    }
    z
}

/// Every operator over one problem.
struct Built {
    csr: CsrOperator,
    sell: SellOperator,
    mf: MatrixFreeOperator,
    lfric: LfricOperator,
    old_mf: old::MatrixFree,
}

impl Built {
    fn new(p: &Problem) -> Built {
        Built {
            csr: CsrOperator::poisson27(p),
            sell: SellOperator::poisson27(p),
            mf: MatrixFreeOperator::new(p),
            lfric: LfricOperator::new(p),
            old_mf: old_matrix_free(p),
        }
    }

    fn get(&self, op: HpcgOperator) -> &dyn Operator {
        match op {
            HpcgOperator::Csr => &self.csr,
            HpcgOperator::Sell => &self.sell,
            HpcgOperator::MatrixFree => &self.mf,
            HpcgOperator::Lfric => &self.lfric,
        }
    }
}

const OPERATORS: [HpcgOperator; 4] = [
    HpcgOperator::Csr,
    HpcgOperator::Sell,
    HpcgOperator::MatrixFree,
    HpcgOperator::Lfric,
];

#[test]
fn precondition_is_bit_identical_to_the_old_sweep_from_zero() {
    let mut rng = Rng(0x5eed_0001);
    for case in 0..BOXES {
        let p = rng.problem();
        let r = rng.vector(p.n());
        let built = Built::new(&p);
        for op in OPERATORS {
            let want = old_precondition(op, &built, &r);
            // Stale contents of `z` must not leak into the result.
            let mut z = vec![f64::NAN; p.n()];
            built.get(op).precondition(&r, &mut z);
            let what = format!("{op:?} on {}x{}x{} (case {case})", p.nx, p.ny, p.nz);
            assert_bits(&z, &want, &what);
        }
    }
}

#[test]
fn matrix_free_apply_is_bit_identical_to_the_old_per_point_apply() {
    let mut rng = Rng(0x5eed_0002);
    for case in 0..BOXES {
        let p = rng.problem();
        let x = rng.vector(p.n());
        let mut want = vec![f64::NAN; p.n()];
        old_matrix_free(&p).apply(&x, &mut want);
        let mut got = vec![f64::NAN; p.n()];
        MatrixFreeOperator::new(&p).apply(&x, &mut got);
        let what = format!("{}x{}x{} (case {case})", p.nx, p.ny, p.nz);
        assert_bits(&got, &want, &what);
    }
}

#[test]
fn lexicographic_sweeps_from_any_start_are_bit_identical_to_the_old_code() {
    // `symgs_lex` now indexes rows through slices (CSR) and stays the
    // per-point sweep (matrix-free); from a non-zero start neither may move.
    let mut rng = Rng(0x5eed_0003);
    for case in 0..BOXES {
        let p = rng.problem();
        let r = rng.vector(p.n());
        let start = rng.vector(p.n());
        let what = format!("{}x{}x{} (case {case})", p.nx, p.ny, p.nz);
        let csr = CsrOperator::poisson27(&p);
        let (mut got, mut want) = (start.clone(), start.clone());
        csr.symgs_lex(&r, &mut got);
        old::csr_symgs_lex(&csr, &r, &mut want);
        assert_bits(&got, &want, &format!("CSR {what}"));
        let mf = MatrixFreeOperator::new(&p);
        let (mut got, mut want) = (start.clone(), start);
        mf.symgs_lex(&r, &mut got);
        old_matrix_free(&p).symgs_lex(&r, &mut want);
        assert_bits(&got, &want, &format!("matrix-free {what}"));
    }
}

#[test]
fn cg_trajectories_are_bit_identical_to_the_old_preconditioner() {
    // The whole solve, through `pcg`: the old loop zero-filled `z` and
    // called the old sweep before every iteration.
    struct Old<'a> {
        op: HpcgOperator,
        built: &'a Built,
    }
    impl Operator for Old<'_> {
        fn n(&self) -> usize {
            self.built.get(self.op).n()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            match self.op {
                HpcgOperator::MatrixFree => self.built.old_mf.apply(x, y),
                op => self.built.get(op).apply(x, y),
            }
        }
        fn precondition(&self, r: &[f64], z: &mut [f64]) {
            z.copy_from_slice(&old_precondition(self.op, self.built, r));
        }
    }

    let mut rng = Rng(0x5eed_0004);
    let mut boxes: Vec<Problem> = (4..=16).step_by(4).map(Problem::cube).collect();
    boxes.extend((0..6).map(|_| rng.problem()));
    for p in &boxes {
        let built = Built::new(p);
        for op in OPERATORS {
            let old = Old { op, built: &built };
            let want = pcg(&old, &p.rhs, 60, 1e-10);
            let got = pcg(built.get(op), &p.rhs, 60, 1e-10);
            let what = format!("{op:?} on {}x{}x{}", p.nx, p.ny, p.nz);
            assert_eq!(got.iterations, want.iterations, "{what}");
            assert_bits(&got.residuals, &want.residuals, &what);
        }
    }
}
