//! HPCG: the high-performance conjugate-gradient benchmark (§3.2, Table 2).
//!
//! A preconditioned CG solver for a 3D Poisson problem discretized with a
//! 27-point finite-difference stencil, in the paper's four
//! algorithm/implementation variants:
//!
//! * **CSR** — the reference implementation: assembled sparse matrix in
//!   Compressed Sparse Row form, indirect addressing throughout;
//! * **Intel-avx2** — the vendor-optimized binary: same algorithm, blocked
//!   matrix layout that roughly halves index traffic (Intel CPUs only);
//! * **SELL-C-σ** — the assembled operator stored in sliced-ELLPACK form:
//!   bitwise the same CG trajectory as CSR, but the SpMV runs rows as
//!   independent SIMD lanes (see DESIGN.md "Roofline kernels");
//! * **Matrix-free** — the 27-point operator applied without assembling the
//!   matrix: coefficients are compile-time constants, no gather;
//! * **LFRic** — a symmetrized Helmholtz operator from the Met Office
//!   LFRic model, also matrix-free but with different structure and cost.
//!
//! All variants run the *same CG algorithm* on the *same problem*, so their
//! answers agree — exactly the property that makes the paper's efficiency
//! ratios (Eq. 1) meaningful.

mod cg;
mod cost;
pub mod distributed;
mod ops;
mod problem;

pub use cg::{pcg, pcg_with, CgStats};
pub use ops::{
    build as build_operator, CsrOperator, LfricOperator, MatrixFreeOperator, Operator, SellOperator,
};
pub use problem::Problem;

use crate::memo::{self, Solution, SolveKey, SolveMemo};
use crate::{BenchError, ExecutionMode, RunOutput};
use simhpc::noise::NoiseModel;
use std::time::Instant;

/// The paper's four variants, plus the SELL-C-σ layout of the assembled
/// operator (same math as CSR — bitwise-identical CG — vector-friendly
/// storage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HpcgVariant {
    Csr,
    IntelAvx2,
    Sell,
    MatrixFree,
    Lfric,
}

impl HpcgVariant {
    pub fn all() -> &'static [HpcgVariant] {
        &[
            HpcgVariant::Csr,
            HpcgVariant::IntelAvx2,
            HpcgVariant::Sell,
            HpcgVariant::MatrixFree,
            HpcgVariant::Lfric,
        ]
    }

    /// Table-2 row label.
    pub fn label(&self) -> &'static str {
        match self {
            HpcgVariant::Csr => "Original (CSR)",
            HpcgVariant::IntelAvx2 => "Intel-avx2 (CSR)",
            HpcgVariant::Sell => "SELL-C-sigma",
            HpcgVariant::MatrixFree => "Matrix-free",
            HpcgVariant::Lfric => "LFRic",
        }
    }

    /// Spack variant value (`hpcg impl=...`).
    pub fn spec_name(&self) -> &'static str {
        match self {
            HpcgVariant::Csr => "csr",
            HpcgVariant::IntelAvx2 => "avx2",
            HpcgVariant::Sell => "sell",
            HpcgVariant::MatrixFree => "matfree",
            HpcgVariant::Lfric => "lfric",
        }
    }

    pub fn from_spec_name(s: &str) -> Option<HpcgVariant> {
        HpcgVariant::all()
            .iter()
            .copied()
            .find(|v| v.spec_name() == s)
    }

    /// The operator this variant's solve constructs. The vendor binary
    /// runs CSR's assembled-matrix algorithm (its difference is cost, not
    /// math), so the two share an operator, and with it one host solve
    /// per study. SELL keeps its own: its solve is what exercises the SELL
    /// SpMV.
    pub fn operator(&self) -> HpcgOperator {
        match self {
            HpcgVariant::Csr | HpcgVariant::IntelAvx2 => HpcgOperator::Csr,
            HpcgVariant::Sell => HpcgOperator::Sell,
            HpcgVariant::MatrixFree => HpcgOperator::MatrixFree,
            HpcgVariant::Lfric => HpcgOperator::Lfric,
        }
    }

    /// Is the variant available on this processor? The vendor binary only
    /// targets Intel microarchitectures (Table 2 lists it N/A on AMD).
    pub fn available_on(&self, proc: &simhpc::Processor) -> bool {
        if proc.is_gpu() {
            return false;
        }
        match self {
            HpcgVariant::IntelAvx2 => proc.vendor().eq_ignore_ascii_case("intel"),
            _ => true,
        }
    }
}

/// The distinct linear operators behind the variants
/// ([`HpcgVariant::operator`]): what [`build_operator`] constructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HpcgOperator {
    Csr,
    Sell,
    MatrixFree,
    Lfric,
}

/// Run configuration.
#[derive(Debug, Clone)]
pub struct HpcgConfig {
    /// Local grid dimension per rank (`nx = ny = nz`); HPCG's default 104,
    /// scaled down for laptop runs.
    pub local_dim: usize,
    /// MPI ranks (Table 2: 40 on Cascade Lake, 128 on Rome).
    pub ranks: u32,
    pub variant: HpcgVariant,
    /// CG iterations per set (HPCG runs sets of 50).
    pub iterations: usize,
}

impl Default for HpcgConfig {
    fn default() -> HpcgConfig {
        HpcgConfig {
            local_dim: 16,
            ranks: 1,
            variant: HpcgVariant::Csr,
            iterations: 50,
        }
    }
}

/// Run HPCG and produce output in the real benchmark's summary format,
/// solving every call.
pub fn run(config: &HpcgConfig, mode: &ExecutionMode) -> Result<RunOutput, BenchError> {
    run_memo(config, mode, &mut crate::scratch::Arena::new(), None)
}

/// [`run`] drawing CG working vectors from a caller-owned arena, so the
/// harness can reuse buffers across repetitions and cells, and taking a
/// simulated run's solve from `memo` when one is given (see
/// [`crate::memo`]); native runs always solve.
pub fn run_memo(
    config: &HpcgConfig,
    mode: &ExecutionMode,
    arena: &mut crate::scratch::Arena,
    memo: Option<&SolveMemo>,
) -> Result<RunOutput, BenchError> {
    // Both modes cap the CG iterations; simulated mode caps the size too.
    let key = solve_key(config);
    let SolveKey::Hpcg {
        dim,
        iterations: max_iterations,
        ..
    } = key
    else {
        unreachable!("an HPCG config keys an HPCG solve")
    };
    let (iterations, residual, gflops, system, wall) = match mode {
        ExecutionMode::Native => {
            validate(config)?;
            let start = Instant::now();
            let (iterations, residual) = solve(config, config.local_dim, max_iterations, arena)?;
            let native_elapsed = start.elapsed().as_secs_f64();
            let flops = cost::flops_for(config.variant, config.local_dim.pow(3), iterations);
            (
                iterations,
                residual,
                flops / native_elapsed / 1e9,
                "native".to_string(),
                native_elapsed,
            )
        }
        ExecutionMode::Simulated {
            partition,
            system,
            seed,
        } => {
            precheck(config, partition)?;
            // Execute the real solver at a capped size: the numerics are
            // genuine, and every cell posing the same capped problem
            // shares one solve.
            let solved = memo::solve_with(memo, key, || {
                let (iterations, residual) = solve(config, dim, max_iterations, arena)?;
                Ok(Solution::Hpcg {
                    iterations,
                    residual,
                })
            })?;
            let Solution::Hpcg {
                iterations,
                residual,
            } = solved
            else {
                unreachable!("an HPCG key holds an HPCG solution")
            };
            let mut noise = NoiseModel::for_run(
                system,
                &format!("hpcg-{}", config.variant.spec_name()),
                *seed,
            );
            let g = cost::simulated_gflops(config, partition);
            let rating = g / noise.perturb(1.0);
            // The wall time is the modeled work over the modeled rating —
            // never the host's measured time, so simulated runs (and the
            // telemetry derived from them) are deterministic per seed.
            let n_global = config.local_dim.pow(3) * config.ranks as usize;
            let flops = cost::flops_for(config.variant, n_global, iterations);
            (
                iterations,
                residual,
                rating,
                system.clone(),
                flops / (rating * 1e9),
            )
        }
    };

    let n_global = config.local_dim.pow(3) as u64 * config.ranks as u64;
    let mut out = String::new();
    out.push_str("HPCG-Benchmark version=3.1\n");
    out.push_str(&format!(
        "Machine Summary::Distributed Processes={}\n",
        config.ranks
    ));
    out.push_str(&format!(
        "Global Problem Dimensions::Global nx={}\n",
        config.local_dim
    ));
    out.push_str(&format!(
        "Global Problem Summary::Number of Equations={n_global}\n"
    ));
    out.push_str(&format!("Variant::{}\n", config.variant.label()));
    out.push_str(&format!("System::{system}\n"));
    out.push_str(&format!(
        "Iteration Count Information::Total number of optimized iterations={iterations}\n"
    ));
    out.push_str(&format!(
        "Reproducibility Information::Scaled residual mean={residual:.4e}\n"
    ));
    out.push_str(&format!(
        "Final Summary::HPCG result is VALID with a GFLOP/s rating of={gflops:.4}\n"
    ));
    Ok(RunOutput {
        stdout: out,
        wall_time_s: wall,
    })
}

fn validate(config: &HpcgConfig) -> Result<(), BenchError> {
    if config.local_dim < 4 {
        return Err(BenchError::BadConfig(
            "local dimension must be at least 4".into(),
        ));
    }
    Ok(())
}

/// What a simulated run on `partition` decides before any host work: a
/// bad configuration, then a variant the platform cannot run (a skip).
/// [`run_memo`] goes through it, and the harness asks it before the build
/// stage, so an unsupported cell never builds.
pub fn precheck(config: &HpcgConfig, partition: &simhpc::Partition) -> Result<(), BenchError> {
    validate(config)?;
    let proc = partition.processor();
    if !config.variant.available_on(proc) {
        return Err(BenchError::Unsupported(format!(
            "{} is not available on {}",
            config.variant.label(),
            proc.model()
        )));
    }
    Ok(())
}

/// Every input of a simulated run's host solve, after the size and
/// iteration caps.
pub fn solve_key(config: &HpcgConfig) -> SolveKey {
    SolveKey::Hpcg {
        operator: config.variant.operator(),
        dim: config.local_dim.min(16),
        iterations: config.iterations.min(60),
    }
}

/// The host solve: CG on a `dim`³ cube with `config`'s variant, for at
/// most `max_iterations`. Returns the iterations run and the final
/// relative residual, or a validation failure when the residual did not
/// decrease.
fn solve(
    config: &HpcgConfig,
    dim: usize,
    max_iterations: usize,
    arena: &mut crate::scratch::Arena,
) -> Result<(usize, f64), BenchError> {
    let problem = Problem::cube(dim);
    let op = ops::build(config.variant, &problem);
    let stats = pcg_with(op.as_ref(), &problem.rhs, max_iterations, 1e-10, arena);
    if !stats.converging() {
        return Err(BenchError::ValidationFailed(format!(
            "CG residual did not decrease: first {:.3e}, last {:.3e}",
            stats.residuals.first().copied().unwrap_or(0.0),
            stats.residuals.last().copied().unwrap_or(0.0),
        )));
    }
    Ok((stats.iterations, stats.final_relative_residual()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract_gflops(stdout: &str) -> f64 {
        stdout
            .lines()
            .find(|l| l.contains("GFLOP/s rating of="))
            .and_then(|l| l.rsplit('=').next())
            .and_then(|v| v.trim().parse().ok())
            .expect("rating present")
    }

    #[test]
    fn native_run_valid() {
        let cfg = HpcgConfig {
            local_dim: 8,
            iterations: 20,
            ..Default::default()
        };
        let out = run(&cfg, &ExecutionMode::Native).unwrap();
        assert!(out.stdout.contains("result is VALID"));
        assert!(extract_gflops(&out.stdout) > 0.0);
    }

    #[test]
    fn table2_shape_on_cascade_lake() {
        // Paper: 24.0 / 39.0 / 51.0 / 18.5 GF/s (40 ranks, dual-socket 6230).
        let mode = ExecutionMode::simulated("isambard-macs:cascadelake", 11).unwrap();
        let gf = |variant| {
            let cfg = HpcgConfig {
                local_dim: 64,
                ranks: 40,
                variant,
                iterations: 50,
            };
            extract_gflops(&run(&cfg, &mode).unwrap().stdout)
        };
        let csr = gf(HpcgVariant::Csr);
        let avx2 = gf(HpcgVariant::IntelAvx2);
        let matfree = gf(HpcgVariant::MatrixFree);
        let lfric = gf(HpcgVariant::Lfric);
        assert!(
            matfree > avx2 && avx2 > csr && csr > lfric,
            "{csr} {avx2} {matfree} {lfric}"
        );
        // Within 25% of the paper's absolute numbers.
        for (got, want) in [(csr, 24.0), (avx2, 39.0), (matfree, 51.0), (lfric, 18.5)] {
            assert!(
                (got - want).abs() / want < 0.25,
                "expected ~{want} GF/s, got {got}"
            );
        }
        // Eq. 1: algorithmic gain beats implementation gain.
        let e_i = avx2 / csr;
        let e_a = matfree / csr;
        assert!((e_i - 1.625).abs() < 0.4, "E_I = {e_i}");
        assert!((e_a - 2.125).abs() < 0.5, "E_A = {e_a}");
        assert!(e_a > e_i);
    }

    #[test]
    fn table2_shape_on_rome() {
        // Paper: 39.2 / N/A / 124.2 / 56.0 GF/s (128 ranks, dual EPYC 7742).
        let mode = ExecutionMode::simulated("archer2", 11).unwrap();
        let gf = |variant| {
            let cfg = HpcgConfig {
                local_dim: 64,
                ranks: 128,
                variant,
                iterations: 50,
            };
            extract_gflops(&run(&cfg, &mode).unwrap().stdout)
        };
        let csr = gf(HpcgVariant::Csr);
        let matfree = gf(HpcgVariant::MatrixFree);
        let lfric = gf(HpcgVariant::Lfric);
        for (got, want) in [(csr, 39.2), (matfree, 124.2), (lfric, 56.0)] {
            assert!(
                (got - want).abs() / want < 0.25,
                "expected ~{want} GF/s, got {got}"
            );
        }
        // The algorithmic gain is even larger on AMD (paper: 3.168).
        let e_a = matfree / csr;
        assert!(e_a > 2.5, "E_A on Rome = {e_a}");
        // Intel binary is N/A on AMD.
        let cfg = HpcgConfig {
            local_dim: 64,
            ranks: 128,
            variant: HpcgVariant::IntelAvx2,
            iterations: 50,
        };
        assert!(matches!(run(&cfg, &mode), Err(BenchError::Unsupported(_))));
    }

    #[test]
    fn rome_beats_cascade_lake_absolute() {
        let gf = |spec: &str, ranks| {
            let mode = ExecutionMode::simulated(spec, 3).unwrap();
            let cfg = HpcgConfig {
                local_dim: 64,
                ranks,
                variant: HpcgVariant::Csr,
                iterations: 50,
            };
            extract_gflops(&run(&cfg, &mode).unwrap().stdout)
        };
        assert!(gf("archer2", 128) > gf("isambard-macs:cascadelake", 40));
    }

    #[test]
    fn csr_and_vendor_variants_share_one_solve_key_and_solution() {
        // The memo key is the operator built, not the variant label: the
        // two CSR variants pose one problem and must solve it bit for bit
        // alike.
        let config = |variant| HpcgConfig {
            variant,
            ..Default::default()
        };
        let (csr, avx2) = (config(HpcgVariant::Csr), config(HpcgVariant::IntelAvx2));
        assert_eq!(solve_key(&csr), solve_key(&avx2));
        let mut arena = crate::scratch::Arena::new();
        let (i1, r1) = solve(&csr, 16, 60, &mut arena).unwrap();
        let (i2, r2) = solve(&avx2, 16, 60, &mut arena).unwrap();
        assert_eq!((i1, r1.to_bits()), (i2, r2.to_bits()));
        // Every other variant builds an operator of its own.
        let keys: std::collections::HashSet<_> = HpcgVariant::all()
            .iter()
            .map(|&variant| {
                solve_key(&HpcgConfig {
                    variant,
                    ..Default::default()
                })
            })
            .collect();
        assert_eq!(keys.len(), HpcgVariant::all().len() - 1);
    }

    #[test]
    fn variants_agree_numerically() {
        // All variants solve the same problem: same iteration count and
        // residual trajectory on the Poisson operator variants.
        let problem = Problem::cube(8);
        let csr = ops::build(HpcgVariant::Csr, &problem);
        let mf = ops::build(HpcgVariant::MatrixFree, &problem);
        let s1 = pcg(csr.as_ref(), &problem.rhs, 25, 1e-12);
        let s2 = pcg(mf.as_ref(), &problem.rhs, 25, 1e-12);
        assert_eq!(s1.iterations, s2.iterations);
        for (a, b) in s1.residuals.iter().zip(&s2.residuals) {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn gpu_partition_rejected_before_the_solve() {
        let mode = ExecutionMode::simulated("isambard-macs:volta", 1).unwrap();
        for variant in HpcgVariant::all() {
            let cfg = HpcgConfig {
                variant: *variant,
                ..Default::default()
            };
            let mut arena = crate::scratch::Arena::new();
            let err = run_memo(&cfg, &mode, &mut arena, None).unwrap_err();
            assert!(matches!(err, BenchError::Unsupported(_)), "{err}");
            // CG returns its vectors to the arena; none were taken.
            assert_eq!(arena.pooled(), 0, "{}", variant.spec_name());
        }
    }

    #[test]
    fn tiny_problem_rejected() {
        let cfg = HpcgConfig {
            local_dim: 2,
            ..Default::default()
        };
        assert!(run(&cfg, &ExecutionMode::Native).is_err());
    }
}
