//! Preconditioned conjugate gradient, HPCG-style.

use super::ops::Operator;
use crate::scratch::Arena;

/// Convergence statistics from one CG solve.
#[derive(Debug, Clone)]
pub struct CgStats {
    /// Iterations actually performed.
    pub iterations: usize,
    /// Residual 2-norm after each iteration (index 0 = initial residual).
    pub residuals: Vec<f64>,
}

impl CgStats {
    /// Did the solver make progress? (Sanity condition for a VALID run.)
    pub fn converging(&self) -> bool {
        match (self.residuals.first(), self.residuals.last()) {
            (Some(&first), Some(&last)) => last < first && last.is_finite(),
            _ => false,
        }
    }

    /// ‖r_k‖ / ‖r_0‖.
    pub fn final_relative_residual(&self) -> f64 {
        match (self.residuals.first(), self.residuals.last()) {
            (Some(&first), Some(&last)) if first > 0.0 => last / first,
            _ => f64::NAN,
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solve `A x = b` from `x = 0` with symmetric-Gauss-Seidel-preconditioned
/// CG. Stops after `max_iters` or when the relative residual drops below
/// `tolerance`.
pub fn pcg(op: &dyn Operator, b: &[f64], max_iters: usize, tolerance: f64) -> CgStats {
    pcg_with(op, b, max_iters, tolerance, &mut Arena::new())
}

/// [`pcg`] drawing its five working vectors from `arena` and returning
/// them afterwards, so repeated solves (harness repetitions, retries,
/// survey cells) allocate nothing in steady state. The buffers arrive with
/// exactly the contents a fresh allocation would have, so results are
/// byte-identical to [`pcg`].
pub fn pcg_with(
    op: &dyn Operator,
    b: &[f64],
    max_iters: usize,
    tolerance: f64,
    arena: &mut Arena,
) -> CgStats {
    let n = op.n();
    assert_eq!(b.len(), n, "rhs length must match the operator");
    let mut x = arena.take(n, 0.0);
    let mut r = arena.take_copy(b); // r = b - A·0
    let mut z = arena.take(n, 0.0);
    let mut ap = arena.take(n, 0.0);

    let norm0 = dot(&r, &r).sqrt();
    let mut residuals = vec![norm0];
    if norm0 == 0.0 {
        for v in [x, r, z, ap] {
            arena.give(v);
        }
        return CgStats {
            iterations: 0,
            residuals,
        };
    }

    // z = M⁻¹ r via one SymGS sweep from zero.
    op.precondition(&r, &mut z);
    let mut p = arena.take_copy(&z);
    let mut rz = dot(&r, &z);
    let mut iterations = 0;

    for _ in 0..max_iters {
        op.apply(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 || !pap.is_finite() {
            break; // operator not PD along p — stop rather than diverge
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        iterations += 1;
        let norm = dot(&r, &r).sqrt();
        residuals.push(norm);
        if norm / norm0 < tolerance {
            break;
        }
        op.precondition(&r, &mut z);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    for v in [x, r, z, ap, p] {
        arena.give(v);
    }
    CgStats {
        iterations,
        residuals,
    }
}

#[cfg(test)]
mod tests {
    use super::super::ops::{build, CsrOperator};
    use super::super::problem::Problem;
    use super::super::HpcgVariant;
    use super::*;

    #[test]
    fn cg_converges_on_poisson() {
        let p = Problem::cube(8);
        let op = CsrOperator::poisson27(&p);
        let stats = pcg(&op, &p.rhs, 100, 1e-9);
        assert!(stats.converging());
        assert!(
            stats.final_relative_residual() < 1e-9,
            "relative residual {} after {} iters",
            stats.final_relative_residual(),
            stats.iterations
        );
        // SymGS-preconditioned CG on this problem converges fast.
        assert!(stats.iterations < 30);
    }

    #[test]
    fn cg_solution_is_ones() {
        // rhs = A·1, so the solve should recover the ones vector; verify
        // through the residual by applying A to a ones probe.
        let p = Problem::cube(6);
        let op = CsrOperator::poisson27(&p);
        let stats = pcg(&op, &p.rhs, 200, 1e-12);
        assert!(stats.final_relative_residual() < 1e-10);
    }

    #[test]
    fn all_variants_converge() {
        let p = Problem::cube(6);
        for v in HpcgVariant::all() {
            let op = build(*v, &p);
            let stats = pcg(op.as_ref(), &p.rhs, 100, 1e-8);
            assert!(
                stats.converging() && stats.final_relative_residual() < 1e-8,
                "{v:?}: rel residual {}",
                stats.final_relative_residual()
            );
        }
    }

    #[test]
    fn arena_reuse_is_byte_identical() {
        // Solving repeatedly from one arena must give exactly the bits a
        // fresh-allocation solve gives (buffers arrive re-zeroed).
        let p = Problem::cube(6);
        let op = CsrOperator::poisson27(&p);
        let fresh = pcg(&op, &p.rhs, 30, 1e-10);
        let mut arena = Arena::new();
        for round in 0..3 {
            let again = pcg_with(&op, &p.rhs, 30, 1e-10, &mut arena);
            assert_eq!(again.iterations, fresh.iterations, "round {round}");
            for (a, b) in again.residuals.iter().zip(&fresh.residuals) {
                assert_eq!(a.to_bits(), b.to_bits(), "round {round}");
            }
        }
        assert!(arena.pooled() > 0, "solve buffers should be pooled");
    }

    #[test]
    fn zero_rhs_is_trivial() {
        let p = Problem::cube(4);
        let op = CsrOperator::poisson27(&p);
        let b = vec![0.0; p.n()];
        let stats = pcg(&op, &b, 10, 1e-9);
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn residuals_monotone_enough() {
        // PCG residuals aren't strictly monotone in the 2-norm, but for
        // this SPD problem they should trend firmly downward.
        let p = Problem::cube(7);
        let op = CsrOperator::poisson27(&p);
        let stats = pcg(&op, &p.rhs, 25, 0.0);
        let first = stats.residuals[0];
        let last = *stats.residuals.last().unwrap();
        assert!(last < first * 1e-3);
    }
}
