//! Pins the exact bits of every host solve a simulated survey runs.
//!
//! A survey's report prints HPCG's rating and HPGMG's DOF/s, which are
//! `simhpc` model outputs; it never prints a CG iteration count or
//! residual. So a kernel change that moved one residual bit would pass
//! `tests/survey_golden.rs` and every determinism check. This test solves
//! the survey's capped problems — each distinct HPCG operator on a 16³ cube
//! with up to 60 CG iterations (the survey's 50 are a prefix of the same
//! trajectory), and HPGMG on a 32³ box — and compares an FNV-1a digest of
//! every iteration count, residual and V-cycle count against a checked-in
//! value.
//!
//! A kernel change that keeps every floating-point operation, operand and
//! order leaves the digest alone; one that changes the trajectory must
//! update it and say why.

use benchapps::hpcg::{self, HpcgVariant, Problem};
use benchapps::hpgmg::Multigrid;

/// FNV-1a 64 of the HPCG solves (the lexicographic SymGS sweep) and HPGMG.
const SERIAL_GOLDEN: u64 = 0xd5b9_cc09_161d_8faa;

/// One variant per distinct operator (`HpcgVariant::operator`).
const VARIANTS: [HpcgVariant; 4] = [
    HpcgVariant::Csr,
    HpcgVariant::Sell,
    HpcgVariant::MatrixFree,
    HpcgVariant::Lfric,
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Iterations and every residual of one capped CG solve.
fn digest_cg(h: &mut Fnv, op: &dyn hpcg::Operator, problem: &Problem) {
    let stats = hpcg::pcg(op, &problem.rhs, 60, 1e-10);
    assert!(stats.converging());
    h.word(stats.iterations as u64);
    for r in &stats.residuals {
        h.word(r.to_bits());
    }
}

fn check(name: &str, digest: u64, golden: u64) {
    assert_eq!(
        digest, golden,
        "{name}: solve digest {digest:#018x}, want {golden:#018x}"
    );
}

#[test]
fn serial_survey_solves_match_the_golden_digest() {
    let problem = Problem::cube(16);
    let mut h = Fnv::new();
    for variant in VARIANTS {
        let op = hpcg::build_operator(variant, &problem);
        digest_cg(&mut h, op.as_ref(), &problem);
    }
    let mut mg = Multigrid::new(32).expect("32³ builds");
    mg.set_rhs_sine();
    let (r0, r, cycles) = mg.solve(30, 1e-7);
    h.word(r0.to_bits());
    h.word(r.to_bits());
    h.word(cycles as u64);
    check("serial", h.0, SERIAL_GOLDEN);
}
