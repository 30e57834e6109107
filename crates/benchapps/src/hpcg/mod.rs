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
    build as build_operator, build_with_backend as build_operator_with_backend, CsrOperator,
    LfricOperator, MatrixFreeOperator, Operator, SellOperator,
};
pub use problem::Problem;

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
    /// Host worker threads for the kernels. `None` (the default) keeps the
    /// serial backend and the lexicographic SymGS sweep — bit-identical to
    /// the original sequential solver. `Some(t)` with `t > 1` executes on a
    /// persistent worker pool with the multicoloured SymGS smoother.
    pub threads: Option<usize>,
}

impl Default for HpcgConfig {
    fn default() -> HpcgConfig {
        HpcgConfig {
            local_dim: 16,
            ranks: 1,
            variant: HpcgVariant::Csr,
            iterations: 50,
            threads: None,
        }
    }
}

/// Run HPCG and produce output in the real benchmark's summary format.
pub fn run(config: &HpcgConfig, mode: &ExecutionMode) -> Result<RunOutput, BenchError> {
    run_with(config, mode, &mut crate::scratch::Arena::new())
}

/// [`run`] drawing CG working vectors from a caller-owned arena, so the
/// harness can reuse buffers across repetitions and cells.
pub fn run_with(
    config: &HpcgConfig,
    mode: &ExecutionMode,
    arena: &mut crate::scratch::Arena,
) -> Result<RunOutput, BenchError> {
    if config.local_dim < 4 {
        return Err(BenchError::BadConfig(
            "local dimension must be at least 4".into(),
        ));
    }
    // A variant the simulated platform cannot run is a skip: decide it
    // before paying for the solve.
    if let ExecutionMode::Simulated { partition, .. } = mode {
        let proc = partition.processor();
        if !config.variant.available_on(proc) {
            return Err(BenchError::Unsupported(format!(
                "{} is not available on {}",
                config.variant.label(),
                proc.model()
            )));
        }
    }
    // Execute the real solver at a capped size: the numerics are genuine.
    let exec_dim = match mode {
        ExecutionMode::Native => config.local_dim,
        ExecutionMode::Simulated { .. } => config.local_dim.min(16),
    };
    let start = Instant::now();
    let problem = Problem::cube(exec_dim);
    let op = match config.threads {
        Some(t) if t > 1 => ops::build_with_backend(
            config.variant,
            &problem,
            Box::new(parkern::PoolBackend::new(t)),
        ),
        _ => ops::build(config.variant, &problem),
    };
    let stats = pcg_with(
        op.as_ref(),
        &problem.rhs,
        config.iterations.min(60),
        1e-10,
        arena,
    );
    let native_elapsed = start.elapsed().as_secs_f64();
    if !stats.converging() {
        return Err(BenchError::ValidationFailed(format!(
            "CG residual did not decrease: first {:.3e}, last {:.3e}",
            stats.residuals.first().copied().unwrap_or(0.0),
            stats.residuals.last().copied().unwrap_or(0.0),
        )));
    }

    let (gflops, valid_label, system, wall) = match mode {
        ExecutionMode::Native => {
            let flops = cost::flops_for(config.variant, problem.n(), stats.iterations);
            (
                flops / native_elapsed / 1e9,
                "VALID",
                "native".to_string(),
                native_elapsed,
            )
        }
        ExecutionMode::Simulated {
            partition,
            system,
            seed,
        } => {
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
            let flops = cost::flops_for(config.variant, n_global, stats.iterations);
            (rating, "VALID", system.clone(), flops / (rating * 1e9))
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
        "Iteration Count Information::Total number of optimized iterations={}\n",
        stats.iterations
    ));
    out.push_str(&format!(
        "Reproducibility Information::Scaled residual mean={:.4e}\n",
        stats.final_relative_residual()
    ));
    out.push_str(&format!(
        "Final Summary::HPCG result is {valid_label} with a GFLOP/s rating of={gflops:.4}\n"
    ));
    Ok(RunOutput {
        stdout: out,
        wall_time_s: wall,
    })
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
                threads: None,
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
                threads: None,
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
            threads: None,
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
                threads: None,
            };
            extract_gflops(&run(&cfg, &mode).unwrap().stdout)
        };
        assert!(gf("archer2", 128) > gf("isambard-macs:cascadelake", 40));
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
            let err = run_with(&cfg, &mode, &mut arena).unwrap_err();
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
