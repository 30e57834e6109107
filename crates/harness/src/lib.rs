//! `harness` — the ReFrame-like benchmark runner (§2.3, Principles 2–6).
//!
//! The harness separates *what* a benchmark is from *where* it runs:
//!
//! * a [`TestCase`] describes the benchmark — its Spack spec, application
//!   configuration, task layout, sanity pattern, and the regex-based
//!   Figures of Merit to extract (all system-independent);
//! * the target system is selected by name (`--system` in the paper's
//!   appendix), resolved against the `simhpc` catalog;
//! * [`Harness::run_case`] drives the full pipeline:
//!   **setup → build (spackle) → submit (batchsim) → run (benchapps) →
//!   sanity (rexpr) → performance → perflog**, returning a [`CaseReport`]
//!   with complete provenance.
//!
//! Because every stage is a real subsystem (concretizer, scheduler,
//! benchmark, regex engine), the pipeline honestly exercises the paper's
//! claims: the benchmark is rebuilt every run (P3), the build and run steps
//! are captured (P4/P5), and results land in a machine-readable perflog
//! (P6).
//!
//! With `--engine`, the run stage instead executes an external subprocess
//! speaking the KLV protocol (see the `engine` crate): the harness contains
//! every engine failure mode — crash, hang, garbage output — as a
//! structured per-attempt error feeding the same retry/quarantine
//! machinery as injected faults, so a misbehaving engine can never abort a
//! survey.

pub mod checkpoint;
mod pipeline;
mod suite;

pub use engine::{EngineSpec, DEFAULT_TIMEOUT_S};
pub use pipeline::{CaseReport, Harness, HarnessError, PreparedBuild, RunOptions};
pub use spackle::walog;
pub use suite::{StoreStats, SuiteOutcome, SuiteProgress, SuiteReport, SuiteRunner};

use benchapps::babelstream::BabelStreamConfig;
use benchapps::hpcg::HpcgConfig;
use benchapps::hpgmg::HpgmgConfig;
use benchapps::memo::{SolveKey, SolveMemo};
use benchapps::stream::StreamConfig;
use benchapps::{BenchError, ExecutionMode, RunOutput};

/// Which application a test case runs, with its configuration.
#[derive(Debug, Clone)]
pub enum App {
    BabelStream(BabelStreamConfig),
    Hpcg(HpcgConfig),
    Hpgmg(HpgmgConfig),
    Stream(StreamConfig),
}

impl App {
    /// Execute the application, solving every call and drawing working
    /// vectors from a caller-owned arena so repeated runs (repetitions,
    /// retries, survey cells) are allocation-free in steady state.
    pub fn run_with(
        &self,
        mode: &ExecutionMode,
        arena: &mut benchapps::scratch::Arena,
    ) -> Result<RunOutput, BenchError> {
        self.run_memo(mode, arena, None)
    }

    /// [`App::run_with`] sharing simulated host solves through `memo`
    /// (see [`benchapps::memo`]). Output is byte-identical to a memo-free
    /// run with the same inputs.
    pub fn run_memo(
        &self,
        mode: &ExecutionMode,
        arena: &mut benchapps::scratch::Arena,
        memo: Option<&SolveMemo>,
    ) -> Result<RunOutput, BenchError> {
        match self {
            App::BabelStream(cfg) => benchapps::babelstream::run_memo(cfg, mode, arena, memo),
            App::Hpcg(cfg) => benchapps::hpcg::run_memo(cfg, mode, arena, memo),
            App::Hpgmg(cfg) => benchapps::hpgmg::run_memo(cfg, mode, memo),
            App::Stream(cfg) => benchapps::stream::run_memo(cfg, mode, arena, memo),
        }
    }

    /// What a simulated run on `partition` decides before any host work:
    /// a bad configuration, then an unsupported platform (each app's
    /// `precheck`, which its own run goes through). The pipeline asks it
    /// before the build stage.
    pub fn precheck(&self, partition: &simhpc::Partition) -> Result<(), BenchError> {
        match self {
            App::BabelStream(cfg) => benchapps::babelstream::precheck(cfg, partition),
            App::Hpcg(cfg) => benchapps::hpcg::precheck(cfg, partition),
            App::Hpgmg(cfg) => benchapps::hpgmg::precheck(cfg, partition),
            App::Stream(cfg) => benchapps::stream::precheck(cfg, partition),
        }
    }

    /// The key of the host solve a simulated run poses (each app's
    /// `solve_key`, which its `run_memo` uses too).
    pub fn solve_key(&self) -> SolveKey {
        match self {
            App::BabelStream(cfg) => benchapps::babelstream::solve_key(cfg),
            App::Hpcg(cfg) => benchapps::hpcg::solve_key(cfg),
            App::Hpgmg(cfg) => benchapps::hpgmg::solve_key(cfg),
            App::Stream(cfg) => benchapps::stream::solve_key(cfg),
        }
    }

    /// Estimated interconnect traffic for one run, bytes. Used by the
    /// telemetry capture (the paper's §4 network-usage extension); zero
    /// for single-node benchmarks.
    pub fn network_bytes(&self) -> u64 {
        match self {
            App::Hpgmg(cfg) => {
                // Ghost-zone surface traffic summed over the three
                // reported solves (matches the simulator's halo model).
                (0..3u32)
                    .map(|l| (cfg.dof_at_level(l) as f64).powf(2.0 / 3.0) as u64 * 11_696)
                    .sum()
            }
            App::Hpcg(cfg) if cfg.ranks > 1 => {
                // Per-iteration halo faces between ranks.
                (cfg.local_dim as u64).pow(2) * 8 * 6 * cfg.ranks as u64 * cfg.iterations as u64
            }
            _ => 0,
        }
    }

    /// Benchmark family name (used in perflog paths).
    pub fn name(&self) -> &'static str {
        match self {
            App::BabelStream(_) => "babelstream",
            App::Hpcg(_) => "hpcg",
            App::Hpgmg(_) => "hpgmg",
            App::Stream(_) => "stream",
        }
    }
}

/// A performance variable: a named regex with one capture group whose match
/// becomes a Figure of Merit (exactly ReFrame's `perf_patterns`).
#[derive(Debug, Clone)]
pub struct PerfVar {
    pub name: String,
    pub pattern: String,
    pub unit: String,
}

impl PerfVar {
    pub fn new(name: &str, pattern: &str, unit: &str) -> PerfVar {
        PerfVar {
            name: name.to_string(),
            pattern: pattern.to_string(),
            unit: unit.to_string(),
        }
    }
}

/// A reference value with relative tolerances (ReFrame's `reference`):
/// the FOM must land within `[value*(1+lower), value*(1+upper)]`.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub value: f64,
    pub lower_frac: f64,
    pub upper_frac: f64,
}

impl Reference {
    pub fn within(value: f64, frac: f64) -> Reference {
        Reference {
            value,
            lower_frac: -frac,
            upper_frac: frac,
        }
    }

    pub fn check(&self, measured: f64) -> bool {
        let lo = self.value * (1.0 + self.lower_frac);
        let hi = self.value * (1.0 + self.upper_frac);
        measured >= lo && measured <= hi
    }
}

/// A system-independent benchmark definition.
#[derive(Debug, Clone)]
pub struct TestCase {
    /// Unique test name, e.g. `babelstream_omp`.
    pub name: String,
    /// Abstract Spack spec built before every run (P2/P3).
    pub spack_spec: String,
    pub app: App,
    pub num_tasks: u32,
    pub num_tasks_per_node: u32,
    pub num_cpus_per_task: u32,
    /// The run is only valid if this pattern matches the output.
    pub sanity_pattern: String,
    /// Figures of Merit to extract.
    pub perf_vars: Vec<PerfVar>,
    /// Optional per-FOM references: (fom name, reference).
    pub references: Vec<(String, Reference)>,
    /// Extra key/value context recorded in the perflog.
    pub extras: Vec<(String, String)>,
}

impl TestCase {
    /// Minimal constructor; builder methods fill in the rest.
    pub fn new(name: &str, spack_spec: &str, app: App) -> TestCase {
        TestCase {
            name: name.to_string(),
            spack_spec: spack_spec.to_string(),
            app,
            num_tasks: 1,
            num_tasks_per_node: 1,
            num_cpus_per_task: 1,
            sanity_pattern: ".".to_string(),
            perf_vars: Vec::new(),
            references: Vec::new(),
            extras: Vec::new(),
        }
    }

    pub fn with_layout(mut self, tasks: u32, per_node: u32, cpus: u32) -> TestCase {
        self.num_tasks = tasks;
        self.num_tasks_per_node = per_node;
        self.num_cpus_per_task = cpus;
        self
    }

    pub fn with_sanity(mut self, pattern: &str) -> TestCase {
        self.sanity_pattern = pattern.to_string();
        self
    }

    pub fn with_perf_var(mut self, var: PerfVar) -> TestCase {
        self.perf_vars.push(var);
        self
    }

    pub fn with_reference(mut self, fom: &str, reference: Reference) -> TestCase {
        self.references.push((fom.to_string(), reference));
        self
    }

    pub fn with_extra(mut self, key: &str, value: &str) -> TestCase {
        self.extras.push((key.to_string(), value.to_string()));
        self
    }
}

/// Ready-made test cases for the paper's experiments.
pub mod cases {
    use super::*;
    use benchapps::babelstream::BabelStreamConfig;
    use parkern::Model;

    /// The BabelStream case for one programming model (§3.1 / Figure 2).
    pub fn babelstream(model: Model, array_size: usize) -> TestCase {
        let cfg = BabelStreamConfig {
            array_size,
            reps: 100,
            model,
            threads: None,
        };
        TestCase::new(
            &format!("babelstream_{}", model.name()),
            &format!("babelstream%gcc +{}", model.name()),
            App::BabelStream(cfg),
        )
        .with_layout(1, 1, 0) // 0 = all cores of the node (filled at run)
        .with_sanity(r"Function\s+MBytes/sec")
        .with_perf_var(PerfVar::new("Copy", r"Copy\s+([\d.]+)", "MB/s"))
        .with_perf_var(PerfVar::new("Mul", r"Mul\s+([\d.]+)", "MB/s"))
        .with_perf_var(PerfVar::new("Add", r"Add\s+([\d.]+)", "MB/s"))
        .with_perf_var(PerfVar::new("Triad", r"Triad\s+([\d.]+)", "MB/s"))
        .with_perf_var(PerfVar::new("Dot", r"Dot\s+([\d.]+)", "MB/s"))
        .with_extra("array_size", &array_size.to_string())
        .with_extra("model", model.name())
    }

    /// The HPCG case for one variant (§3.2 / Table 2).
    pub fn hpcg(variant: benchapps::hpcg::HpcgVariant, ranks: u32) -> TestCase {
        let cfg = benchapps::hpcg::HpcgConfig {
            local_dim: 64,
            ranks,
            variant,
            iterations: 50,
        };
        TestCase::new(
            &format!("hpcg_{}", variant.spec_name()),
            &format!("hpcg%gcc +mpi impl={}", variant.spec_name()),
            App::Hpcg(cfg),
        )
        .with_layout(ranks, ranks, 1) // single node, MPI only
        .with_sanity(r"result is VALID")
        .with_perf_var(PerfVar::new("gflops", r"rating of=([\d.]+)", "GF/s"))
        .with_extra("variant", variant.spec_name())
    }

    /// Classic STREAM on a full node (the Principle-1 reference point).
    pub fn stream(array_size: usize) -> TestCase {
        let cfg = benchapps::stream::StreamConfig {
            array_size,
            reps: 10,
            threads: None,
        };
        TestCase::new("stream", "stream%gcc", App::Stream(cfg))
            .with_layout(1, 1, 0)
            .with_sanity(r"Solution Validates")
            .with_perf_var(PerfVar::new("Copy", r"Copy\s+([\d.]+)", "MB/s"))
            .with_perf_var(PerfVar::new("Scale", r"Scale\s+([\d.]+)", "MB/s"))
            .with_perf_var(PerfVar::new("Add", r"Add\s+([\d.]+)", "MB/s"))
            .with_perf_var(PerfVar::new("Triad", r"Triad\s+([\d.]+)", "MB/s"))
            .with_extra("array_size", &array_size.to_string())
    }

    /// The HPGMG case (§3.3 / Table 4): 8 tasks, 2 per node, 8 cpus each.
    pub fn hpgmg() -> TestCase {
        let cfg = benchapps::hpgmg::HpgmgConfig::paper();
        TestCase::new("hpgmg_fv", "hpgmg%gcc +fv", App::Hpgmg(cfg))
            .with_layout(8, 2, 8)
            .with_sanity(r"residual reduction=([\d.eE+-]+)")
            .with_perf_var(PerfVar::new(
                "l0",
                r"level 0 FMG solve averaged ([\d.eE+-]+)",
                "DOF/s",
            ))
            .with_perf_var(PerfVar::new(
                "l1",
                r"level 1 FMG solve averaged ([\d.eE+-]+)",
                "DOF/s",
            ))
            .with_perf_var(PerfVar::new(
                "l2",
                r"level 2 FMG solve averaged ([\d.eE+-]+)",
                "DOF/s",
            ))
            .with_extra("args", "7 8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_checking() {
        let r = Reference::within(100.0, 0.1);
        assert!(r.check(95.0));
        assert!(r.check(109.9));
        assert!(!r.check(80.0));
        assert!(!r.check(120.0));
    }

    #[test]
    fn builder_accumulates() {
        let case = cases::babelstream(parkern::Model::Omp, 1 << 20);
        assert_eq!(case.name, "babelstream_omp");
        assert_eq!(case.perf_vars.len(), 5);
        assert!(case.spack_spec.contains("+omp"));
        assert!(case.extras.iter().any(|(k, _)| k == "array_size"));
    }

    #[test]
    fn hpgmg_case_matches_paper_layout() {
        let case = cases::hpgmg();
        assert_eq!(
            (
                case.num_tasks,
                case.num_tasks_per_node,
                case.num_cpus_per_task
            ),
            (8, 2, 8)
        );
    }
}
