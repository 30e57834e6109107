//! `benchapps` — the benchmark applications of the paper's case studies.
//!
//! Three benchmarks drive the evaluation (§3):
//!
//! * [`babelstream`] — the memory-bandwidth benchmark behind Figure 2, in
//!   all nine programming models;
//! * [`hpcg`] — the sparse conjugate-gradient benchmark of Table 2, with
//!   the paper's four algorithm/implementation variants (CSR,
//!   vendor-optimized CSR, matrix-free, and the LFRic Helmholtz operator);
//! * [`hpgmg`] — the finite-volume full-multigrid proxy of Tables 3 & 4;
//!
//! plus [`stream`], the classic STREAM kernel set used as a reference.
//!
//! Every benchmark runs in one of two [`ExecutionMode`]s:
//!
//! * **Native** — kernels run at full size on this machine, timed with the
//!   wall clock. This is what a user without the paper's systems gets.
//! * **Simulated** — kernels still run (on capped problem sizes, so the
//!   numerics and sanity checks are genuine) but reported times come from
//!   the `simhpc` platform cost model for a named system/partition, with
//!   deterministic noise. This regenerates the paper's tables and figure.
//!
//! A simulated run takes three steps: a **support check** (each app's
//! `precheck`: is the configuration valid, is the model/variant available
//! on the partition, does it have the nodes? The harness asks it before
//! the build stage too), a
//! **host solve** at the capped size, run serially, whose inputs never
//! depend on the partition or the host's threads, and a
//! partition-dependent **render** of the modeled times.
//! The solve's inputs form a [`memo::SolveKey`], derived in one place per
//! app (its `solve_key`); each app's `run_memo`
//! takes an optional [`memo::SolveMemo`] through which every cell of a
//! study that poses the same problem shares one solve (its outcome, a
//! failed validation included). `run` passes no memo and solves every
//! call. Native runs never go through the memo: their solve
//! *is* the measurement.
//!
//! Each run returns a [`RunOutput`]: the benchmark's textual stdout —
//! formatted like the real tools so the harness's regex-based FOM
//! extraction is honest — plus its wall time.

pub mod babelstream;
pub mod hpcg;
pub mod hpgmg;
pub mod memo;
pub mod scratch;
pub mod stream;

use simhpc::Partition;

/// Where (and how) a benchmark executes.
#[derive(Debug, Clone)]
pub enum ExecutionMode {
    /// Run at full size on the local machine with real timing.
    Native,
    /// Run numerics at reduced size; report timings from the platform
    /// model for this partition, perturbed by seeded noise.
    Simulated {
        partition: Box<Partition>,
        /// System name (seeds the noise stream and labels output).
        system: String,
        /// Run seed: same seed → identical simulated measurements.
        seed: u64,
    },
}

impl ExecutionMode {
    /// Simulated mode for a `system:partition` spec from the catalog.
    pub fn simulated(spec: &str, seed: u64) -> Option<ExecutionMode> {
        let (sys, partition) = simhpc::catalog::partition(spec)?;
        Some(ExecutionMode::Simulated {
            partition: Box::new(partition.clone()),
            system: sys.name().to_string(),
            seed,
        })
    }

    /// The partition this mode targets, if simulated.
    pub fn partition(&self) -> Option<&Partition> {
        match self {
            ExecutionMode::Native => None,
            ExecutionMode::Simulated { partition, .. } => Some(partition),
        }
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Benchmark stdout, formatted like the real tool.
    pub stdout: String,
    /// Wall time of the (possibly simulated) run, seconds.
    pub wall_time_s: f64,
}

/// Errors from benchmark execution.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// The requested configuration cannot run on the target.
    Unsupported(String),
    /// Numerical validation failed — the run must not produce a FOM.
    ValidationFailed(String),
    /// Bad configuration.
    BadConfig(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Unsupported(m) => write!(f, "unsupported configuration: {m}"),
            BenchError::ValidationFailed(m) => write!(f, "validation failed: {m}"),
            BenchError::BadConfig(m) => write!(f, "bad configuration: {m}"),
        }
    }
}

impl std::error::Error for BenchError {}

/// Cap used in simulated mode so the *real* numerical work stays laptop
/// sized while costs are computed for the full requested size.
pub(crate) const SIM_EXECUTION_CAP: usize = 1 << 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_mode_resolves_catalog_specs() {
        assert!(ExecutionMode::simulated("archer2", 1).is_some());
        assert!(ExecutionMode::simulated("isambard-macs:volta", 1).is_some());
        assert!(ExecutionMode::simulated("no-such-system", 1).is_none());
        let m = ExecutionMode::simulated("csd3", 7).unwrap();
        assert_eq!(m.partition().unwrap().name(), "cascadelake");
        assert!(ExecutionMode::Native.partition().is_none());
    }
}
