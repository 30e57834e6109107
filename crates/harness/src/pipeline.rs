//! The test pipeline: setup → build → submit → run → sanity → performance.

use crate::TestCase;
use batchsim::{JobRequest, Policy, Scheduler};
use benchapps::memo::SolveMemo;
use benchapps::{BenchError, ExecutionMode};
use perflogs::{Fom, Perflog, PerflogRecord};
use simhpc::faults::{self, Fault, FaultInjector, FaultProfile};
use simhpc::platform::SchedulerKind;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Account passed to the scheduler (`-J'--account=...'`).
const ACCOUNT: &str = "ec176";

/// QoS (`--qos=standard` on ARCHER2).
const QOS: &str = "standard";

/// Options for a harness session (the command-line of the paper's appendix).
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// `--system name[:partition]`, resolved in the simhpc catalog
    /// (`native` runs on the local host with real timing).
    pub system: String,
    /// Deterministic run seed.
    pub seed: u64,
    /// Principle 3: rebuild the benchmark every run. On by default; the
    /// ablation bench turns it off to measure what P3 costs/saves.
    pub rebuild_every_run: bool,
    /// Injected fault profile (`--fault-profile`); defaults to `none`,
    /// which leaves every pipeline byte-identical to the fault-free world.
    pub fault_profile: FaultProfile,
    /// How many times a faulted build/run stage is retried before the
    /// case is declared failed (`--max-retries`).
    pub max_retries: u32,
    /// Heal drained nodes after the system's deterministic repair window
    /// (`--heal`); off by default, which keeps every schedule
    /// byte-identical to the never-repair world.
    pub heal: bool,
    /// External benchmark engine (`--engine`). When set, the run stage
    /// executes this subprocess under the KLV protocol instead of the
    /// in-process `benchapps` path; engine failures (crash, hang, garbage
    /// output) are contained and retried exactly like injected faults.
    /// `None` falls back to the in-process path, byte-identical to before
    /// engines existed.
    pub engine: Option<engine::EngineSpec>,
    /// Wall-clock scale of engine-retry sleeps (0 = none); time-lost is nominal.
    pub backoff_scale: f64,
}

impl RunOptions {
    pub fn on_system(system: &str) -> RunOptions {
        RunOptions {
            system: system.to_string(),
            seed: 42,
            rebuild_every_run: true,
            fault_profile: FaultProfile::none(),
            max_retries: 2,
            heal: false,
            engine: None,
            backoff_scale: 1.0,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> RunOptions {
        self.seed = seed;
        self
    }

    pub fn with_fault_profile(mut self, profile: FaultProfile) -> RunOptions {
        self.fault_profile = profile;
        self
    }

    pub fn with_max_retries(mut self, max_retries: u32) -> RunOptions {
        self.max_retries = max_retries;
        self
    }

    pub fn with_heal(mut self, heal: bool) -> RunOptions {
        self.heal = heal;
        self
    }

    pub fn with_engine(mut self, engine: Option<engine::EngineSpec>) -> RunOptions {
        self.engine = engine;
        self
    }

    pub fn with_backoff_scale(mut self, scale: f64) -> RunOptions {
        self.backoff_scale = scale;
        self
    }
}

/// Why a case did not produce a perflog record.
#[derive(Debug, Clone, PartialEq)]
pub enum HarnessError {
    UnknownSystem(String),
    /// The spec or app cannot run on this platform (Figure 2's `*` boxes).
    Unsupported(String),
    BadSpec(String),
    ConcretizeFailed(String),
    SchedulerRejected(String),
    SanityFailed {
        pattern: String,
        stdout_head: String,
    },
    FomNotFound {
        name: String,
        pattern: String,
    },
    ReferenceFailed {
        fom: String,
        measured: f64,
        expected: f64,
    },
    BenchFailed(String),
    /// An injected transient build failure (fault injection).
    BuildFault(String),
    /// The run job lost a node (`NODE_FAIL`).
    NodeFailed(String),
    /// The run job was killed at its wall-time limit.
    JobTimedOut(String),
    /// An external engine subprocess failed: crashed, died on a signal,
    /// overran its deadline, or emitted output the KLV decoder rejected.
    /// Carries the subprocess facts so perflogs can record them losslessly.
    EngineFailed {
        exit_code: Option<i64>,
        signal: Option<i64>,
        timed_out: bool,
        message: String,
    },
    /// The case failed for `cause` after the retry budget was exhausted;
    /// carries the resilience accounting for the whole attempt chain.
    AfterFaults {
        attempts: u32,
        faults_injected: u32,
        time_lost_s: f64,
        cause: Box<HarnessError>,
    },
    /// A failure replayed from a checkpoint journal. Preserves the
    /// original error's rendered message and resilience accounting so
    /// every consumer (CLI stream, markdown report, suite totals) emits
    /// byte-identical output without the journal having to encode the
    /// full error tree.
    Replayed {
        message: String,
        stats: Option<(u32, u32, f64)>,
    },
}

impl HarnessError {
    /// Resilience accounting, when this error wraps a retry chain.
    pub(crate) fn fault_stats(&self) -> Option<(u32, u32, f64)> {
        match self {
            HarnessError::AfterFaults {
                attempts,
                faults_injected,
                time_lost_s,
                ..
            } => Some((*attempts, *faults_injected, *time_lost_s)),
            HarnessError::Replayed { stats, .. } => *stats,
            _ => None,
        }
    }

    /// Subprocess facts when an external engine caused this failure,
    /// descending through the retry-chain wrapper.
    pub(crate) fn engine_status(&self) -> Option<(Option<i64>, Option<i64>, bool)> {
        match self {
            HarnessError::EngineFailed {
                exit_code,
                signal,
                timed_out,
                ..
            } => Some((*exit_code, *signal, *timed_out)),
            HarnessError::AfterFaults { cause, .. } => cause.engine_status(),
            _ => None,
        }
    }
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::UnknownSystem(s) => write!(f, "unknown system `{s}`"),
            HarnessError::Unsupported(m) => write!(f, "unsupported on this platform: {m}"),
            HarnessError::BadSpec(m) => write!(f, "bad spec: {m}"),
            HarnessError::ConcretizeFailed(m) => write!(f, "concretization failed: {m}"),
            HarnessError::SchedulerRejected(m) => write!(f, "scheduler rejected the job: {m}"),
            HarnessError::SanityFailed {
                pattern,
                stdout_head,
            } => {
                write!(
                    f,
                    "sanity pattern `{pattern}` not found in output `{stdout_head}...`"
                )
            }
            HarnessError::FomNotFound { name, pattern } => {
                write!(f, "FOM `{name}` (pattern `{pattern}`) not found in output")
            }
            HarnessError::ReferenceFailed {
                fom,
                measured,
                expected,
            } => {
                write!(
                    f,
                    "FOM `{fom}`: measured {measured} outside reference {expected}"
                )
            }
            HarnessError::BenchFailed(m) => write!(f, "benchmark failed: {m}"),
            HarnessError::BuildFault(m) => write!(f, "transient build failure: {m}"),
            HarnessError::NodeFailed(m) => write!(f, "node failure: {m}"),
            HarnessError::JobTimedOut(m) => write!(f, "job timed out: {m}"),
            HarnessError::EngineFailed { message, .. } => write!(f, "engine failure: {message}"),
            HarnessError::AfterFaults {
                attempts,
                faults_injected,
                time_lost_s,
                cause,
            } => {
                write!(
                    f,
                    "failed after {attempts} attempts ({faults_injected} faults injected, \
                     {time_lost_s:.1}s lost): {cause}"
                )
            }
            HarnessError::Replayed { message, .. } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for HarnessError {}

/// Everything one pipeline run produced (full provenance).
#[derive(Debug, Clone)]
pub struct CaseReport {
    pub record: PerflogRecord,
    /// Concrete build DAG, rendered (the lockfile's view of this run).
    pub concrete_rendered: String,
    pub dag_hash: String,
    /// How many packages were built vs reused this run.
    pub packages_built: usize,
    pub packages_cached: usize,
    pub build_time_s: f64,
    /// The generated batch script (P5 artifact).
    pub job_script: String,
    /// Queue wait the job experienced in the scheduler.
    pub queue_wait_s: f64,
    /// Captured system-state telemetry (energy, power, network traffic).
    pub telemetry: simhpc::Telemetry,
    /// Raw benchmark output.
    pub stdout: String,
    /// Resilience accounting across build + run: retries performed,
    /// faults injected, and simulated time lost to them. All zero in the
    /// default (no-fault) profile.
    pub retries: u32,
    pub faults_injected: u32,
    pub time_lost_s: f64,
    /// Nodes returned to service by `--heal` during this cell's schedule
    /// (always zero without healing).
    pub nodes_repaired: u32,
}

/// The build stage's output: everything `run_prepared` needs to continue
/// the pipeline without touching a package store again. In warm-store
/// sweeps the suite runner computes these in canonical case order so cache
/// attribution never depends on job scheduling.
#[derive(Debug, Clone)]
pub struct PreparedBuild {
    /// The concretized DAG (P2/P4 provenance).
    pub concrete: spackle::ConcreteSpec,
    /// What was built vs reused, with simulated build times.
    pub install: spackle::InstallReport,
    /// Build-stage resilience accounting (zero in the no-fault profile).
    pub retries: u32,
    pub faults_injected: u32,
    pub time_lost_s: f64,
}

/// The harness session: owns the package store, run counter, and perflogs.
pub struct Harness {
    /// The shared built-in repository unless [`Harness::with_repo`] layers
    /// a site's own.
    repo: Cow<'static, spackle::Repo>,
    /// The package store installs go to: a fresh one per session, or one
    /// shared with other sessions (warm-store mode).
    store: spackle::SharedStore,
    options: RunOptions,
    sequence: u64,
    /// Perflogs keyed by (system, benchmark) — ReFrame's directory layout.
    perflogs: BTreeMap<(String, String), Perflog>,
    /// Scratch buffers reused across every case this harness runs, so
    /// steady-state repetitions allocate no working vectors.
    arena: benchapps::scratch::Arena,
    /// Host solves shared with the other sessions of a study (simulated
    /// mode only); `None` solves every run.
    solve_memo: Option<Arc<SolveMemo>>,
    /// The `result=fail` record of the latest failed case, until the suite
    /// runner takes it into its own perflogs.
    failure: Option<PerflogRecord>,
}

impl Harness {
    pub fn new(options: RunOptions) -> Harness {
        Harness {
            repo: Cow::Borrowed(spackle::Repo::builtin_shared()),
            store: spackle::SharedStore::new(),
            options,
            sequence: 0,
            perflogs: BTreeMap::new(),
            arena: benchapps::scratch::Arena::new(),
            solve_memo: None,
            failure: None,
        }
    }

    /// Override the recipe repository (site-local repo layering).
    pub fn with_repo(mut self, repo: spackle::Repo) -> Harness {
        self.repo = Cow::Owned(repo);
        self
    }

    /// Install into a store shared with other sessions (warm-store mode).
    /// Cache accounting then depends on install order across sessions;
    /// callers needing deterministic attribution must serialize their
    /// `prepare_build` calls canonically (see `SuiteRunner`).
    pub(crate) fn with_shared_store(mut self, store: spackle::SharedStore) -> Harness {
        self.store = store;
        self
    }

    /// Share simulated host solves through `memo`, which the study owns:
    /// cells posing the same capped problem solve it once. Reports are
    /// byte-identical to a memo-free session's.
    pub(crate) fn with_solve_memo(mut self, memo: Arc<SolveMemo>) -> Harness {
        self.solve_memo = Some(memo);
        self
    }

    /// Run the next cases' run stage under `engine` (`None`: in process).
    pub(crate) fn set_engine(&mut self, engine: Option<engine::EngineSpec>) {
        self.options.engine = engine;
    }

    pub fn options(&self) -> &RunOptions {
        &self.options
    }

    /// Perflog for (system, benchmark), if any runs landed there.
    pub fn perflog(&self, system: &str, benchmark: &str) -> Option<&Perflog> {
        self.perflogs
            .get(&(system.to_string(), benchmark.to_string()))
    }

    /// All perflogs, keyed by (system, benchmark).
    pub fn perflogs(&self) -> impl Iterator<Item = (&(String, String), &Perflog)> {
        self.perflogs.iter()
    }

    /// Resolve the session's `--system` spec in the simhpc catalog.
    fn resolve_platform(
        &self,
    ) -> Result<(&'static simhpc::System, &'static simhpc::Partition), HarnessError> {
        simhpc::catalog::partition(&self.options.system)
            .ok_or_else(|| HarnessError::UnknownSystem(self.options.system.clone()))
    }

    /// The build stage alone: concretize + install via spackle (P2–P4).
    /// Warm-store sweeps call this serially in case order to fix cache
    /// attribution, then fan the prepared builds out to parallel jobs.
    pub(crate) fn prepare_build(&mut self, case: &TestCase) -> Result<PreparedBuild, HarnessError> {
        let (system, partition) = self.resolve_platform()?;
        let spec = spackle::Spec::parse(&case.spack_spec)
            .map_err(|e| HarnessError::BadSpec(e.to_string()))?;
        let ctx = spackle::context_for(system, partition);
        let concrete = spackle::concretize(&spec, &self.repo, &ctx).map_err(|e| match e {
            spackle::ConcretizeError::Conflict { .. } => HarnessError::Unsupported(e.to_string()),
            other => HarnessError::ConcretizeFailed(other.to_string()),
        })?;
        // A cell the in-process run stage would skip is skipped here, before
        // a build attempt can fault: the app's own predicate, so the same
        // reason. A bad configuration still fails at the run stage, and an
        // external engine decides support itself.
        if self.options.engine.is_none() && system.name() != "native" {
            if let Err(BenchError::Unsupported(reason)) = case.app.precheck(partition) {
                return Err(HarnessError::Unsupported(reason));
            }
        }
        // Injected transient build failures: each faulted attempt costs a
        // backoff wait; only a clean attempt touches the package store, so
        // cache attribution is unchanged by however many retries happened.
        let injector = FaultInjector::new(self.options.fault_profile.clone(), self.options.seed);
        let mut attempt = 1u32;
        let mut faults = 0u32;
        let mut time_lost = 0.0f64;
        while injector
            .build_fault(system.name(), &case.name, attempt)
            .is_some()
        {
            faults += 1;
            if attempt > self.options.max_retries {
                let err = self.fail(
                    case,
                    system.name(),
                    partition.name(),
                    attempt,
                    faults,
                    time_lost,
                    HarnessError::BuildFault(format!(
                        "build of `{}` failed on attempt {attempt}",
                        case.name
                    )),
                );
                return Err(err);
            }
            time_lost += faults::backoff_s(attempt);
            attempt += 1;
        }
        let opts = spackle::InstallOptions {
            rebuild_root: self.options.rebuild_every_run,
            ..spackle::InstallOptions::default()
        };
        let install = spackle::install(&concrete, &mut self.store.lock(), opts);
        Ok(PreparedBuild {
            concrete,
            install,
            retries: attempt - 1,
            faults_injected: faults,
            time_lost_s: time_lost,
        })
    }

    /// Record an ultimately-failed case in the perflog (`result=fail`)
    /// instead of silently dropping the cell, wrapping the cause in the
    /// retry-chain accounting when any faults were injected.
    #[allow(clippy::too_many_arguments)]
    fn fail(
        &mut self,
        case: &TestCase,
        system: &str,
        partition: &str,
        attempts: u32,
        faults_injected: u32,
        time_lost_s: f64,
        cause: HarnessError,
    ) -> HarnessError {
        let err = if faults_injected > 0 {
            HarnessError::AfterFaults {
                attempts,
                faults_injected,
                time_lost_s,
                cause: Box::new(cause),
            }
        } else {
            cause
        };
        self.sequence += 1;
        let mut extras = case.extras.clone();
        extras.push(("result".to_string(), "fail".to_string()));
        extras.push(("attempt".to_string(), attempts.to_string()));
        extras.push(("error".to_string(), err.to_string()));
        // Engine failures carry the subprocess facts losslessly (negative
        // exit codes included — these are i64 strings, never wrapped).
        if let Some((exit_code, signal, timed_out)) = err.engine_status() {
            if let Some(code) = exit_code {
                extras.push(("exit_code".to_string(), code.to_string()));
            }
            if let Some(sig) = signal {
                extras.push(("signal".to_string(), sig.to_string()));
            }
            extras.push(("timed_out".to_string(), timed_out.to_string()));
        }
        let record = PerflogRecord {
            sequence: self.sequence,
            benchmark: case.name.clone(),
            system: system.to_string(),
            partition: partition.to_string(),
            environ: String::new(),
            spec: case.spack_spec.clone(),
            build_hash: String::new(),
            job_id: None,
            num_tasks: case.num_tasks,
            num_tasks_per_node: case.num_tasks_per_node,
            num_cpus_per_task: case.num_cpus_per_task,
            foms: Vec::new(),
            extras,
        };
        self.failure = Some(record.clone());
        self.perflogs
            .entry((system.to_string(), case.app.name().to_string()))
            .or_default()
            .append(record);
        err
    }

    /// Take the `result=fail` record written by the latest failed case.
    pub(crate) fn take_failure(&mut self) -> Option<PerflogRecord> {
        self.failure.take()
    }

    /// Execute the run stage in an external engine subprocess under the
    /// KLV protocol. Every failure mode — nonzero exit, signal death,
    /// deadline overrun (SIGTERM → grace → SIGKILL), garbage or truncated
    /// frames — is contained as a structured per-attempt error that feeds
    /// the same retry/accounting machinery as injected faults: each failed
    /// attempt counts one fault, charges the nominal backoff schedule to
    /// `time_lost` (wall-clock sleeps scale by
    /// [`RunOptions::backoff_scale`]), and once the `--max-retries`
    /// budget is exhausted the case is recorded as `result=fail` with the
    /// subprocess facts in its extras. The engine never aborts the survey.
    ///
    /// Returns the engine's report as a `RunOutput` plus the attempt
    /// number that succeeded.
    #[allow(clippy::too_many_arguments)]
    fn run_engine(
        &mut self,
        case: &TestCase,
        spec: &engine::EngineSpec,
        system: &str,
        partition: &str,
        retries: &mut u32,
        faults: &mut u32,
        time_lost: &mut f64,
    ) -> Result<(benchapps::RunOutput, u32), HarnessError> {
        let mut attempt = 1u32;
        loop {
            let request = engine::EngineRequest {
                case: case.name.clone(),
                system: system.to_string(),
                partition: partition.to_string(),
                spec: case.spack_spec.clone(),
                seed: self.options.seed,
                attempt,
            };
            match engine::run_attempt(spec, &request) {
                Ok(report) => {
                    return Ok((
                        benchapps::RunOutput {
                            stdout: report.stdout,
                            wall_time_s: report.wall_time_s,
                        },
                        attempt,
                    ));
                }
                Err(failure) => {
                    *faults += 1;
                    let cause = HarnessError::EngineFailed {
                        exit_code: failure.exit_code,
                        signal: failure.signal,
                        timed_out: failure.timed_out,
                        message: failure.to_string(),
                    };
                    if attempt > self.options.max_retries {
                        return Err(
                            self.fail(case, system, partition, attempt, *faults, *time_lost, cause)
                        );
                    }
                    // The charged cost is the nominal deterministic backoff
                    // schedule; the real sleep is scaled (zero in tests/CI)
                    // so accounting never depends on wall-clock jitter.
                    let nominal = faults::backoff_s(attempt);
                    *time_lost += faults::sleep_scaled(nominal, self.options.backoff_scale);
                    *retries += 1;
                    attempt += 1;
                }
            }
        }
    }

    /// Run one case through the full pipeline on the session's system.
    pub fn run_case(&mut self, case: &TestCase) -> Result<CaseReport, HarnessError> {
        let prepared = self.prepare_build(case)?;
        self.run_prepared(case, prepared)
    }

    /// Continue the pipeline after the build stage:
    /// **submit → run → sanity → performance → perflog**.
    pub(crate) fn run_prepared(
        &mut self,
        case: &TestCase,
        prepared: PreparedBuild,
    ) -> Result<CaseReport, HarnessError> {
        let (system, partition) = self.resolve_platform()?;
        let proc = partition.processor();
        let PreparedBuild {
            concrete,
            install,
            retries: build_retries,
            faults_injected: build_faults,
            time_lost_s: build_lost,
        } = prepared;
        // Resilience accounting accumulates over the whole case: the build
        // stage's chain (from `prepare_build`) plus the run attempts below.
        let mut retries = build_retries;
        let mut faults = build_faults;
        let mut time_lost = build_lost;
        let environ = concrete
            .root()
            .compiler
            .as_ref()
            .map(|(c, v)| format!("{c}@{v}"))
            .unwrap_or_else(|| "default".to_string());

        // -- run: execute the app under the platform model ---------------
        let mode = if system.name() == "native" {
            ExecutionMode::Native
        } else {
            ExecutionMode::Simulated {
                partition: Box::new(partition.clone()),
                system: system.name().to_string(),
                seed: self.options.seed,
            }
        };
        let engine_mode = self.options.engine.is_some();
        let (output, engine_attempts) = match self.options.engine.clone() {
            Some(spec) => self.run_engine(
                case,
                &spec,
                system.name(),
                partition.name(),
                &mut retries,
                &mut faults,
                &mut time_lost,
            )?,
            None => {
                let memo = self.solve_memo.as_deref();
                let output = match case.app.run_memo(&mode, &mut self.arena, memo) {
                    Ok(o) => o,
                    Err(BenchError::Unsupported(m)) => return Err(HarnessError::Unsupported(m)),
                    Err(other) => {
                        let cause = HarnessError::BenchFailed(other.to_string());
                        return Err(self.fail(
                            case,
                            system.name(),
                            partition.name(),
                            1,
                            faults,
                            time_lost,
                            cause,
                        ));
                    }
                };
                (output, 1)
            }
        };

        // -- submit: the scheduler sees the same layout (P5) --------------
        let cpus_per_task = if case.num_cpus_per_task == 0 {
            // "use the whole node" convention (BabelStream in the paper).
            proc.total_cores() / case.num_tasks_per_node.max(1)
        } else {
            case.num_cpus_per_task
        };
        let time_limit_s = (output.wall_time_s * 10.0).max(60.0);
        let request = JobRequest::new(
            &case.name,
            case.num_tasks,
            case.num_tasks_per_node,
            cpus_per_task,
        )
        .with_account(ACCOUNT)
        .with_qos(QOS)
        .with_time_limit(time_limit_s);
        let policy = match system.scheduler() {
            SchedulerKind::Slurm => Policy::Backfill,
            SchedulerKind::Pbs => Policy::Fifo,
            SchedulerKind::Local => Policy::Backfill,
        };
        let mut sched = Scheduler::new(policy, partition.nodes().max(1), proc.total_cores().max(1));
        // Injected run faults shape the scheduled job (below); with --heal
        // the scheduler also repairs drained nodes after the system-wide
        // repair window, which every cell on this system derives
        // identically from (profile, seed, system).
        let injector = FaultInjector::new(self.options.fault_profile.clone(), self.options.seed);
        if self.options.heal {
            let window = injector.repair_window_s(system.name());
            if window > 0.0 {
                sched = sched.with_heal(window);
            }
        }
        // P3 makes the build part of every run: when packages were built,
        // a build job precedes the benchmark job via an `afterok`
        // dependency, exactly as a site CI pipeline would chain them.
        let build_job = if install.total_time_s > 0.0 {
            let build_request = JobRequest::new(&format!("{}-build", case.name), 1, 1, 1)
                .with_account(ACCOUNT)
                .with_qos(QOS)
                .with_time_limit(install.total_time_s * 2.0 + 60.0);
            Some(
                sched
                    .submit(build_request, install.total_time_s)
                    .map_err(|e| HarnessError::SchedulerRejected(e.to_string()))?,
            )
        } else {
            None
        };
        // Injected run faults shape the scheduled job: a Timeout fault
        // overruns the wall-time limit (the scheduler kills the job); a
        // NodeFail fault kills a node partway through the run.
        let fault_params = |fault: Option<Fault>| -> (f64, Option<f64>) {
            match fault {
                None | Some(Fault::BuildFail) => (output.wall_time_s, None),
                Some(Fault::Timeout) => ((time_limit_s * 1.25).max(output.wall_time_s), None),
                Some(Fault::NodeFail { at_frac }) => {
                    let run = output.wall_time_s.min(time_limit_s);
                    (output.wall_time_s, Some(at_frac * run))
                }
            }
        };
        // On the engine path the attempt counter continues from the engine's
        // own retry chain, and injected *run* faults are not drawn: real
        // subprocess failures (crash/hang/garbage) already play that role.
        // Build-stage faults are injected identically in both modes.
        let mut run_attempt = engine_attempts;
        let mut fault = if engine_mode {
            None
        } else {
            injector.run_fault(system.name(), &case.name, run_attempt)
        };
        if fault.is_some() {
            faults += 1;
        }
        let (run_time_s, fail_after_s) = fault_params(fault);
        let submitted = match build_job {
            Some(b) => sched.submit_after_with_fault(request.clone(), run_time_s, b, fail_after_s),
            None => sched.submit_with_fault(request.clone(), run_time_s, fail_after_s),
        };
        let job_id = match submitted {
            Ok(id) => id,
            Err(e) => {
                let cause = HarnessError::SchedulerRejected(e.to_string());
                return Err(self.fail(
                    case,
                    system.name(),
                    partition.name(),
                    run_attempt,
                    faults,
                    time_lost,
                    cause,
                ));
            }
        };
        // Retry loop: a NodeFail/TimedOut attempt within budget is
        // requeued after a bounded exponential backoff, possibly drawing a
        // fresh fault for the next attempt. Everything happens in
        // simulated time; the accounting is deterministic per seed.
        sched.run_to_completion();
        let job = loop {
            let j = sched.job(job_id).expect("submitted job exists").clone();
            let elapsed = match (j.start_time, j.end_time) {
                (Some(st), Some(en)) => en - st,
                _ => 0.0,
            };
            match j.state {
                batchsim::JobState::Completed => break j,
                batchsim::JobState::NodeFail | batchsim::JobState::TimedOut
                    if run_attempt <= self.options.max_retries =>
                {
                    let backoff = faults::backoff_s(run_attempt);
                    time_lost += elapsed + backoff;
                    retries += 1;
                    run_attempt += 1;
                    fault = injector.run_fault(system.name(), &case.name, run_attempt);
                    if fault.is_some() {
                        faults += 1;
                    }
                    let (run_time_s, fail_after_s) = fault_params(fault);
                    sched
                        .requeue(job_id, run_time_s, fail_after_s, backoff)
                        .expect("NodeFail/TimedOut jobs are requeueable");
                    sched.run_to_completion();
                }
                terminal => {
                    time_lost += elapsed;
                    let cause = match terminal {
                        batchsim::JobState::NodeFail => HarnessError::NodeFailed(format!(
                            "job lost a node on attempt {run_attempt} (retry budget exhausted)"
                        )),
                        batchsim::JobState::TimedOut => HarnessError::JobTimedOut(format!(
                            "job exceeded its {time_limit_s:.0}s limit on attempt {run_attempt} \
                             (retry budget exhausted)"
                        )),
                        other => HarnessError::NodeFailed(format!(
                            "requeued job could not start (state {other:?}): partition drained"
                        )),
                    };
                    return Err(self.fail(
                        case,
                        system.name(),
                        partition.name(),
                        run_attempt,
                        faults,
                        time_lost,
                        cause,
                    ));
                }
            }
        };
        let job_script = batchsim::render_script(
            system.scheduler(),
            &request,
            &format!(
                "{} {}",
                case.name,
                case.extras
                    .iter()
                    .map(|(_, v)| v.clone())
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
        );

        // -- sanity: the run must have produced valid output (rexpr) ------
        let sanity = rexpr::Regex::new(&case.sanity_pattern)
            .map_err(|e| HarnessError::BadSpec(format!("bad sanity pattern: {e}")))?;
        if !sanity.is_match(&output.stdout) {
            let cause = HarnessError::SanityFailed {
                pattern: case.sanity_pattern.clone(),
                stdout_head: output.stdout.chars().take(60).collect(),
            };
            return Err(self.fail(
                case,
                system.name(),
                partition.name(),
                run_attempt,
                faults,
                time_lost,
                cause,
            ));
        }

        // -- performance: extract FOMs (P6) -------------------------------
        let mut foms = Vec::new();
        for var in &case.perf_vars {
            let re = rexpr::Regex::new(&var.pattern)
                .map_err(|e| HarnessError::BadSpec(format!("bad perf pattern: {e}")))?;
            let value = re
                .captures(&output.stdout)
                .and_then(|caps| caps.get(1).map(|m| m.as_str().to_string()))
                .and_then(|text| text.parse::<f64>().ok());
            let Some(value) = value else {
                let cause = HarnessError::FomNotFound {
                    name: var.name.clone(),
                    pattern: var.pattern.clone(),
                };
                return Err(self.fail(
                    case,
                    system.name(),
                    partition.name(),
                    run_attempt,
                    faults,
                    time_lost,
                    cause,
                ));
            };
            foms.push(Fom {
                name: var.name.clone(),
                value,
                unit: var.unit.clone(),
            });
        }
        for (fom_name, reference) in &case.references {
            if let Some(f) = foms.iter().find(|f| &f.name == fom_name) {
                if !reference.check(f.value) {
                    let cause = HarnessError::ReferenceFailed {
                        fom: fom_name.clone(),
                        measured: f.value,
                        expected: reference.value,
                    };
                    return Err(self.fail(
                        case,
                        system.name(),
                        partition.name(),
                        run_attempt,
                        faults,
                        time_lost,
                        cause,
                    ));
                }
            }
        }

        // -- telemetry: the paper's §4 extension (energy / network) -------
        let telemetry = simhpc::telemetry::capture(
            partition,
            output.wall_time_s,
            request.cores_per_node(),
            request.nodes_needed(),
            case.app.network_bytes(),
        );

        // -- perflog ------------------------------------------------------
        self.sequence += 1;
        let mut extras = case.extras.clone();
        extras.push((
            "queue_wait_s".to_string(),
            format!("{:.6}", job.wait_time().unwrap_or(0.0)),
        ));
        if let Some(b) = build_job {
            extras.push(("build_job_id".to_string(), b.to_string()));
        }
        extras.push(("energy_j".to_string(), format!("{:.3}", telemetry.energy_j)));
        extras.push((
            "avg_power_w".to_string(),
            format!("{:.1}", telemetry.avg_power_w),
        ));
        extras.push((
            "network_bytes".to_string(),
            telemetry.network_bytes.to_string(),
        ));
        // Only faulted cases carry retry provenance: the default (no-fault)
        // profile must stay byte-identical to the pre-fault-injection world.
        if faults > 0 {
            extras.push(("attempt".to_string(), run_attempt.to_string()));
        }
        let record = PerflogRecord {
            sequence: self.sequence,
            benchmark: case.name.clone(),
            system: system.name().to_string(),
            partition: partition.name().to_string(),
            environ,
            spec: concrete.root().render(),
            build_hash: concrete.dag_hash().to_string(),
            job_id: Some(job_id.0),
            num_tasks: case.num_tasks,
            num_tasks_per_node: case.num_tasks_per_node,
            num_cpus_per_task: cpus_per_task,
            foms,
            extras,
        };
        self.perflogs
            .entry((system.name().to_string(), case.app.name().to_string()))
            .or_default()
            .append(record.clone());

        let nodes_repaired = sched
            .node_events()
            .iter()
            .filter(|e| matches!(e, batchsim::NodeEvent::NodeRepaired { .. }))
            .count() as u32;

        Ok(CaseReport {
            record,
            concrete_rendered: concrete.to_string(),
            dag_hash: concrete.dag_hash().to_string(),
            packages_built: install.n_built(),
            packages_cached: install.n_cached(),
            build_time_s: install.total_time_s,
            job_script,
            queue_wait_s: job.wait_time().unwrap_or(0.0),
            telemetry,
            stdout: output.stdout,
            retries,
            faults_injected: faults,
            time_lost_s: time_lost,
            nodes_repaired,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases;
    use parkern::Model;

    #[test]
    fn full_pipeline_babelstream_on_simulated_system() {
        let mut h = Harness::new(RunOptions::on_system("isambard-macs:cascadelake"));
        let case = cases::babelstream(Model::Omp, 1 << 25);
        let report = h.run_case(&case).unwrap();
        let triad = report.record.fom("Triad").unwrap();
        assert_eq!(triad.unit, "MB/s");
        // Below theoretical peak (282 GB/s), above half of sustained.
        assert!(triad.value < 282_000.0, "triad {}", triad.value);
        assert!(triad.value > 100_000.0, "triad {}", triad.value);
        // Build provenance captured.
        assert!(report.packages_built >= 1, "P3: root always rebuilt");
        assert!(report.concrete_rendered.contains("babelstream"));
        assert_eq!(report.dag_hash.len(), 7);
        // PBS system → PBS script.
        assert!(report.job_script.contains("#PBS"));
        // Perflog got the record.
        assert_eq!(h.perflog("isambard-macs", "babelstream").unwrap().len(), 1);
    }

    #[test]
    fn rebuild_every_run_rebuilds_root_only() {
        let mut h = Harness::new(RunOptions::on_system("csd3"));
        let case = cases::babelstream(Model::Omp, 1 << 22);
        let first = h.run_case(&case).unwrap();
        let second = h.run_case(&case).unwrap();
        assert!(first.packages_built >= second.packages_built);
        assert_eq!(
            second.packages_built, 1,
            "only the benchmark itself rebuilds"
        );
        assert!(second.packages_cached > 0);
    }

    #[test]
    fn p3_off_reuses_binary() {
        let mut opts = RunOptions::on_system("csd3");
        opts.rebuild_every_run = false;
        let mut h = Harness::new(opts);
        let case = cases::babelstream(Model::Omp, 1 << 22);
        h.run_case(&case).unwrap();
        let second = h.run_case(&case).unwrap();
        assert_eq!(
            second.packages_built, 0,
            "without P3 the stale binary is reused"
        );
    }

    #[test]
    fn unsupported_combination_is_skippable_error() {
        // CUDA on a CPU partition fails at concretization (conflict).
        let mut h = Harness::new(RunOptions::on_system("csd3"));
        let case = cases::babelstream(Model::Cuda, 1 << 22);
        match h.run_case(&case) {
            Err(HarnessError::Unsupported(_)) => {}
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn unknown_system_rejected() {
        let mut h = Harness::new(RunOptions::on_system("summit"));
        let case = cases::babelstream(Model::Omp, 1 << 20);
        assert!(matches!(
            h.run_case(&case),
            Err(HarnessError::UnknownSystem(_))
        ));
    }

    #[test]
    fn sanity_failure_blocks_fom() {
        let mut h = Harness::new(RunOptions::on_system("csd3"));
        let case = cases::babelstream(Model::Omp, 1 << 22).with_sanity("THIS NEVER APPEARS");
        assert!(matches!(
            h.run_case(&case),
            Err(HarnessError::SanityFailed { .. })
        ));
        // The cell is not silently dropped: a failure record (no FOMs,
        // result=fail) lands in the perflog instead.
        let log = h.perflog("csd3", "babelstream").expect("failure recorded");
        assert_eq!(log.len(), 1);
        let rec = &log.records()[0];
        assert!(rec.foms.is_empty(), "no FOM on sanity failure");
        assert!(rec.extras.iter().any(|(k, v)| k == "result" && v == "fail"));
        assert!(rec.extras.iter().any(|(k, v)| k == "attempt" && v == "1"));
        assert!(rec.extras.iter().any(|(k, _)| k == "error"));
    }

    #[test]
    fn no_fault_profile_changes_nothing() {
        // The default profile must leave records byte-identical to the
        // pre-fault-injection pipeline: no attempt extra, zero accounting.
        let mut h = Harness::new(RunOptions::on_system("csd3"));
        let report = h
            .run_case(&cases::babelstream(Model::Omp, 1 << 22))
            .unwrap();
        assert_eq!(report.retries, 0);
        assert_eq!(report.faults_injected, 0);
        assert_eq!(report.time_lost_s, 0.0);
        assert!(report.record.extras.iter().all(|(k, _)| k != "attempt"));
        assert!(report.record.extras.iter().all(|(k, _)| k != "result"));
    }

    #[test]
    fn flaky_runs_retry_and_replay_identically() {
        let run = |seed: u64| {
            let opts = RunOptions::on_system("csd3")
                .with_seed(seed)
                .with_fault_profile(simhpc::faults::FaultProfile::flaky())
                .with_max_retries(4);
            let mut h = Harness::new(opts);
            h.run_case(&cases::babelstream(Model::Omp, 1 << 22))
        };
        // Scan a few seeds: with flaky rates and 4 retries, at least one
        // seed must inject a fault and still complete.
        let mut saw_retry = false;
        for seed in 0..20 {
            if let Ok(report) = run(seed) {
                if report.faults_injected > 0 {
                    saw_retry = true;
                    assert!(report.retries > 0, "injected fault must force a retry");
                    assert!(report.time_lost_s > 0.0, "retries cost simulated time");
                    assert!(report.record.extras.iter().any(|(k, _)| k == "attempt"));
                    // Determinism: the same seed replays the same chain.
                    let again = run(seed).unwrap();
                    assert_eq!(report.record, again.record);
                    assert_eq!(report.retries, again.retries);
                    assert_eq!(report.time_lost_s, again.time_lost_s);
                    break;
                }
            }
        }
        assert!(saw_retry, "no seed in 0..20 injected a recoverable fault");
    }

    #[test]
    fn retry_exhaustion_reports_fault_accounting() {
        // With zero retries under the brutal profile, some seed must
        // exhaust its budget; the error then carries the fault accounting
        // and the perflog holds a failure record.
        let mut saw_exhaustion = false;
        for seed in 0..30 {
            let opts = RunOptions::on_system("csd3")
                .with_seed(seed)
                .with_fault_profile(simhpc::faults::FaultProfile::brutal())
                .with_max_retries(0);
            let mut h = Harness::new(opts);
            match h.run_case(&cases::babelstream(Model::Omp, 1 << 22)) {
                Err(err @ HarnessError::AfterFaults { .. }) => {
                    let (attempts, injected, lost) = err.fault_stats().unwrap();
                    assert_eq!(attempts, 1, "no retries allowed");
                    assert!(injected >= 1);
                    assert!(lost >= 0.0);
                    let log = h.perflog("csd3", "babelstream").expect("failure recorded");
                    let rec = &log.records()[0];
                    assert!(rec.extras.iter().any(|(k, v)| k == "result" && v == "fail"));
                    saw_exhaustion = true;
                    break;
                }
                _ => continue,
            }
        }
        assert!(
            saw_exhaustion,
            "no seed in 0..30 exhausted the retry budget"
        );
    }

    #[test]
    fn reference_violation_detected() {
        let mut h = Harness::new(RunOptions::on_system("csd3"));
        let case = cases::babelstream(Model::Omp, 1 << 25)
            .with_reference("Triad", crate::Reference::within(1.0, 0.05));
        assert!(matches!(
            h.run_case(&case),
            Err(HarnessError::ReferenceFailed { .. })
        ));
    }

    #[test]
    fn hpgmg_runs_with_paper_layout_and_queue_data() {
        let mut h = Harness::new(RunOptions::on_system("archer2"));
        let report = h.run_case(&cases::hpgmg()).unwrap();
        assert!(report.record.fom("l0").unwrap().value > report.record.fom("l2").unwrap().value);
        assert!(report.job_script.contains("--ntasks=8"));
        assert!(report.job_script.contains("--ntasks-per-node=2"));
        assert!(report.job_script.contains("--cpus-per-task=8"));
        assert!(report
            .record
            .extras
            .iter()
            .any(|(k, _)| k == "queue_wait_s"));
    }

    #[test]
    fn p3_build_job_chains_before_run_job() {
        let mut h = Harness::new(RunOptions::on_system("csd3"));
        let case = cases::babelstream(Model::Omp, 1 << 22);
        let report = h.run_case(&case).unwrap();
        // The run job waited for the build job (P3 made the rebuild part
        // of the pipeline's critical path).
        assert!(
            report
                .record
                .extras
                .iter()
                .any(|(k, _)| k == "build_job_id"),
            "build job recorded in the perflog"
        );
        assert!(
            report.queue_wait_s >= report.build_time_s * 0.99,
            "run queue wait {} must cover the build time {}",
            report.queue_wait_s,
            report.build_time_s
        );
        // With P3 off and a warm store, the second run has no build job.
        let mut opts = RunOptions::on_system("csd3");
        opts.rebuild_every_run = false;
        let mut h2 = Harness::new(opts);
        h2.run_case(&case).unwrap();
        let second = h2.run_case(&case).unwrap();
        assert!(second
            .record
            .extras
            .iter()
            .all(|(k, _)| k != "build_job_id"));
        assert_eq!(second.queue_wait_s, 0.0);
    }

    #[test]
    fn prepared_build_runs_identically_to_run_case() {
        // The split API (prepare_build + run_prepared) is the same
        // pipeline as run_case, just with the build stage detachable.
        let case = cases::babelstream(Model::Omp, 1 << 22);
        let mut whole = Harness::new(RunOptions::on_system("csd3"));
        let direct = whole.run_case(&case).unwrap();
        let mut split = Harness::new(RunOptions::on_system("csd3"));
        let prepared = split.prepare_build(&case).unwrap();
        let via_split = split.run_prepared(&case, prepared).unwrap();
        assert_eq!(direct.record, via_split.record);
        assert_eq!(direct.packages_built, via_split.packages_built);
        assert_eq!(direct.build_time_s, via_split.build_time_s);
    }

    #[test]
    fn shared_store_warms_across_sessions() {
        // Two sessions sharing one store: the second reuses the first's
        // dependency builds while still rebuilding its root (P3).
        let shared = spackle::Store::new().into_shared();
        let case = cases::babelstream(Model::Omp, 1 << 22);
        let mut first =
            Harness::new(RunOptions::on_system("csd3")).with_shared_store(shared.clone());
        let cold = first.run_case(&case).unwrap();
        assert_eq!(cold.packages_cached, 0);
        let mut second =
            Harness::new(RunOptions::on_system("csd3")).with_shared_store(shared.clone());
        let warm = second.run_case(&case).unwrap();
        assert_eq!(warm.packages_built, 1, "root only (P3)");
        assert!(warm.packages_cached > 0, "deps came from the shared store");
        // FOMs are store-independent.
        assert_eq!(
            cold.record.fom("Triad").unwrap().value,
            warm.record.fom("Triad").unwrap().value
        );
        assert_eq!(shared.lock().len(), cold.packages_built);
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let run = |seed| {
            let mut h = Harness::new(RunOptions::on_system("noctua2").with_seed(seed));
            let case = cases::babelstream(Model::Omp, 1 << 25);
            h.run_case(&case)
                .unwrap()
                .record
                .fom("Triad")
                .unwrap()
                .value
        };
        assert_eq!(run(7), run(7), "same seed, same FOM");
        assert_ne!(run(7), run(8), "different seed, different noise");
    }

    #[test]
    fn native_mode_runs_real_kernels() {
        let mut h = Harness::new(RunOptions::on_system("native"));
        let mut case = cases::babelstream(Model::Serial, 1 << 16);
        if let crate::App::BabelStream(cfg) = &mut case.app {
            cfg.reps = 3;
        }
        let report = h.run_case(&case).unwrap();
        assert!(report.record.fom("Triad").unwrap().value > 0.0);
        assert!(report.job_script.starts_with("#!/bin/bash"));
    }

    /// A shell engine whose body is `script`. Tests never sleep for real:
    /// their options scale backoff wall-clock to zero.
    fn sh_engine(script: &str) -> engine::EngineSpec {
        engine::EngineSpec {
            cmd: vec!["/bin/sh".to_string(), "-c".to_string(), script.to_string()],
            timeout_s: 10.0,
            grace_s: 0.5,
        }
    }

    /// Shell fragment emitting a valid KLV report whose stdout satisfies
    /// the babelstream sanity and perf patterns.
    const SH_BABELSTREAM_REPORT: &str = r#"
out='Function    MBytes/sec
Copy        150000.0
Mul         151000.0
Add         152000.0
Triad       153000.0
Dot         154000.0'
printf 'wall:8:0.250000\n'
printf 'stdout:%d:%s\n' "$(printf %s "$out" | wc -c)" "$out"
printf 'done:0:\n'
"#;

    #[test]
    fn engine_path_runs_a_case_end_to_end() {
        let script = format!("cat >/dev/null\n{SH_BABELSTREAM_REPORT}");
        let opts = RunOptions::on_system("csd3")
            .with_backoff_scale(0.0)
            .with_engine(Some(sh_engine(&script)));
        let mut h = Harness::new(opts);
        let case = cases::babelstream(Model::Omp, 1 << 22);
        let report = h.run_case(&case).unwrap();
        assert_eq!(report.record.fom("Triad").unwrap().value, 153_000.0);
        assert!(report.stdout.contains("Function    MBytes/sec"));
        assert_eq!(report.faults_injected, 0);
        assert_eq!(report.retries, 0);
        // The engine's declared wall time drives the scheduler, telemetry
        // and perflog exactly like an in-process run.
        assert!(report.record.extras.iter().any(|(k, _)| k == "energy_j"));
    }

    #[test]
    fn engine_request_carries_the_cell_identity() {
        // The engine sees case/system/seed; echo the request back as the
        // report stdout (plus the sanity/perf body) to prove it arrived.
        let script = format!(
            "req=$(cat)\ncase \"$req\" in *babelstream_omp*csd3*) ;; *) exit 9;; esac\n\
             {SH_BABELSTREAM_REPORT}"
        );
        let opts = RunOptions::on_system("csd3")
            .with_backoff_scale(0.0)
            .with_engine(Some(sh_engine(&script)));
        let mut h = Harness::new(opts);
        let case = cases::babelstream(Model::Omp, 1 << 22);
        assert!(h.run_case(&case).is_ok());
    }

    #[test]
    fn crashing_engine_is_contained_with_subprocess_facts() {
        let opts = RunOptions::on_system("csd3")
            .with_backoff_scale(0.0)
            .with_engine(Some(sh_engine("echo boom >&2; exit 7")))
            .with_max_retries(1);
        let mut h = Harness::new(opts);
        let case = cases::babelstream(Model::Omp, 1 << 22);
        let err = h.run_case(&case).unwrap_err();
        // Retry budget 1 → two attempts, both counted as faults, each
        // failed attempt but the last charging the nominal backoff.
        assert_eq!(err.fault_stats(), Some((2, 2, 30.0)));
        assert_eq!(err.engine_status(), Some((Some(7), None, false)));
        let msg = err.to_string();
        assert!(msg.contains("engine failure"), "{msg}");
        assert!(msg.contains("boom"), "stderr head surfaced: {msg}");
        // The failure landed in the perflog with the subprocess facts.
        let log = h.perflog("csd3", "babelstream").unwrap();
        let extras = &log.records()[0].extras;
        let get = |k: &str| {
            extras
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(get("result"), Some("fail"));
        assert_eq!(get("exit_code"), Some("7"));
        assert_eq!(get("timed_out"), Some("false"));
        assert_eq!(get("signal"), None, "clean exit carries no signal");
    }

    #[test]
    fn garbage_engine_output_is_a_contained_protocol_failure() {
        let opts = RunOptions::on_system("csd3")
            .with_backoff_scale(0.0)
            .with_engine(Some(sh_engine("cat >/dev/null; echo 'NOT KLV AT ALL!'")))
            .with_max_retries(0);
        let mut h = Harness::new(opts);
        let case = cases::babelstream(Model::Omp, 1 << 22);
        let err = h.run_case(&case).unwrap_err();
        assert_eq!(err.engine_status(), Some((Some(0), None, false)));
        assert!(err.to_string().contains("invalid frames"), "{err}");
    }

    #[test]
    fn hanging_engine_is_killed_and_contained() {
        let mut spec = sh_engine("cat >/dev/null; exec sleep 30");
        spec.timeout_s = 0.3;
        let opts = RunOptions::on_system("csd3")
            .with_backoff_scale(0.0)
            .with_engine(Some(spec))
            .with_max_retries(0);
        let mut h = Harness::new(opts);
        let case = cases::babelstream(Model::Omp, 1 << 22);
        let started = std::time::Instant::now();
        let err = h.run_case(&case).unwrap_err();
        assert!(started.elapsed() < std::time::Duration::from_secs(10));
        let (_, signal, timed_out) = err.engine_status().unwrap();
        assert!(timed_out);
        assert_eq!(signal, Some(15), "sh dies on the polite SIGTERM");
        let log = h.perflog("csd3", "babelstream").unwrap();
        let extras = &log.records()[0].extras;
        assert!(extras.contains(&("timed_out".to_string(), "true".to_string())));
        assert!(extras.contains(&("signal".to_string(), "15".to_string())));
    }

    #[test]
    fn flaky_engine_recovers_within_the_retry_budget() {
        // Fails on attempt 1, succeeds on attempt 2 (the attempt number
        // travels in the request, so the engine itself can see it).
        let script = format!(
            "req=$(cat)\ncase \"$req\" in *'attempt:1:1'*) echo transient >&2; exit 3;; esac\n\
             {SH_BABELSTREAM_REPORT}"
        );
        let opts = RunOptions::on_system("csd3")
            .with_backoff_scale(0.0)
            .with_engine(Some(sh_engine(&script)))
            .with_max_retries(2);
        let mut h = Harness::new(opts);
        let case = cases::babelstream(Model::Omp, 1 << 22);
        let report = h.run_case(&case).unwrap();
        assert_eq!(report.retries, 1);
        assert_eq!(report.faults_injected, 1);
        assert_eq!(report.time_lost_s, 30.0, "nominal backoff charged");
        assert!(report
            .record
            .extras
            .contains(&("attempt".to_string(), "2".to_string())));
        assert_eq!(report.record.fom("Triad").unwrap().value, 153_000.0);
    }
}
