//! Running a suite of cases across a stable of systems — the paper's
//! performance-portability survey workflow (§3.1): all benchmarks × all
//! systems in one invocation, with unsupported combinations recorded as
//! skips (the `*` boxes of Figure 2) rather than aborting the sweep.

use crate::checkpoint::{self, CheckpointError, CheckpointMode, Journal};
use crate::{CaseReport, Harness, HarnessError, PreparedBuild, RunOptions, TestCase};
use benchapps::hpcg::HpcgOperator;
use benchapps::memo::{SolveKey, SolveMemo};
use perflogs::{Perflog, PerflogRecord};
use simhpc::faults::FaultProfile;
use spackle::{BuildAction, DiskStore, IoShim, Persist, StoreEntry, StoreOptions};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// What happened to one (case, system) combination.
#[derive(Debug)]
pub enum SuiteOutcome {
    Ran(Box<CaseReport>),
    /// The combination cannot run on that platform (recorded, not fatal).
    Skipped(String),
    /// A genuine failure (sanity, reference, scheduler, ...).
    Failed(HarnessError),
}

impl SuiteOutcome {
    pub fn ran(&self) -> bool {
        matches!(self, SuiteOutcome::Ran(_))
    }

    pub fn skipped(&self) -> bool {
        matches!(self, SuiteOutcome::Skipped(_))
    }

    /// Retries this cell performed (build + run attempt chains).
    pub fn retries(&self) -> u32 {
        match self {
            SuiteOutcome::Ran(r) => r.retries,
            SuiteOutcome::Failed(e) => e
                .fault_stats()
                .map(|(a, _, _)| a.saturating_sub(1))
                .unwrap_or(0),
            SuiteOutcome::Skipped(_) => 0,
        }
    }

    /// Faults injected into this cell.
    pub fn faults_injected(&self) -> u32 {
        match self {
            SuiteOutcome::Ran(r) => r.faults_injected,
            SuiteOutcome::Failed(e) => e.fault_stats().map(|(_, f, _)| f).unwrap_or(0),
            SuiteOutcome::Skipped(_) => 0,
        }
    }

    /// Simulated time this cell lost to faults and backoff.
    pub fn time_lost_s(&self) -> f64 {
        match self {
            SuiteOutcome::Ran(r) => r.time_lost_s,
            SuiteOutcome::Failed(e) => e.fault_stats().map(|(_, _, t)| t).unwrap_or(0.0),
            SuiteOutcome::Skipped(_) => 0.0,
        }
    }
}

/// Persistent-store accounting for one sweep (`--store`). Counted against
/// the verified resident set at open, attributed by the canonical warm
/// prepass — so the numbers are identical at any `--jobs` count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Dependency installs satisfied by an entry that was resident on disk.
    pub hits: usize,
    /// Packages built that no verified disk entry could have satisfied.
    /// (Forced P3 root rebuilds of resident entries are neither hit nor
    /// miss: the store could not legally serve them.)
    pub misses: usize,
    /// Entries quarantined to `corrupt/` while opening the store.
    pub quarantined: usize,
    /// New entries persisted after the study completed.
    pub persisted: usize,
    /// New entries *not* persisted because another live writer held the
    /// shard lease. The contended shard degrades; everything else commits.
    pub persist_skipped: usize,
    /// Shards observed under a live foreign lease when the store opened.
    pub shards_contended: usize,
    /// Why the sweep fell back to a plain in-memory warm store (I/O
    /// trouble opening or persisting), if it did. The study itself never
    /// fails because of the store.
    pub degraded: Option<String>,
}

/// The result of a full sweep.
#[derive(Debug)]
pub struct SuiteReport {
    /// (case name, system spec, outcome)
    pub outcomes: Vec<(String, String, SuiteOutcome)>,
    /// Perflogs collected per (system, benchmark family).
    pub perflogs: Vec<((String, String), Perflog)>,
    /// Canary verdicts for systems that started quarantined by memory:
    /// (system spec, readmitted?). Empty unless quarantine memory fired.
    pub canaries: Vec<(String, bool)>,
    /// Persistent-store accounting; `None` unless `--store` was given.
    pub store: Option<StoreStats>,
}

impl SuiteReport {
    pub fn n_ran(&self) -> usize {
        self.outcomes.iter().filter(|(_, _, o)| o.ran()).count()
    }

    pub fn n_skipped(&self) -> usize {
        self.outcomes.iter().filter(|(_, _, o)| o.skipped()).count()
    }

    pub fn n_failed(&self) -> usize {
        self.outcomes.len() - self.n_ran() - self.n_skipped()
    }

    /// Assimilate every perflog into one data frame (Principle 6).
    pub fn combined_frame(&self) -> dframe::DataFrame {
        let frames: Vec<dframe::DataFrame> = self
            .perflogs
            .iter()
            .map(|(_, log)| log.to_frame())
            .collect();
        dframe::DataFrame::concat(&frames)
    }

    /// Outcome for a (case, system) pair.
    pub fn outcome(&self, case: &str, system: &str) -> Option<&SuiteOutcome> {
        self.outcomes
            .iter()
            .find(|(c, s, _)| c == case && s == system)
            .map(|(_, _, o)| o)
    }

    /// Packages built across every ran combination.
    pub fn total_packages_built(&self) -> usize {
        self.ran_reports().map(|r| r.packages_built).sum()
    }

    /// Packages reused from the (shared or private) store across every ran
    /// combination — the warm-store mode's savings are visible here.
    pub fn total_packages_cached(&self) -> usize {
        self.ran_reports().map(|r| r.packages_cached).sum()
    }

    /// Total simulated build time across the sweep.
    pub fn total_build_time_s(&self) -> f64 {
        self.ran_reports().map(|r| r.build_time_s).sum()
    }

    fn ran_reports(&self) -> impl Iterator<Item = &CaseReport> {
        self.outcomes.iter().filter_map(|(_, _, o)| match o {
            SuiteOutcome::Ran(r) => Some(r.as_ref()),
            _ => None,
        })
    }

    /// Retries performed across the sweep (build + run attempt chains).
    pub fn total_retries(&self) -> u32 {
        self.outcomes.iter().map(|(_, _, o)| o.retries()).sum()
    }

    /// Faults injected across the sweep.
    pub fn total_faults_injected(&self) -> u32 {
        self.outcomes
            .iter()
            .map(|(_, _, o)| o.faults_injected())
            .sum()
    }

    /// Simulated time lost to faults and retry backoff across the sweep.
    pub fn total_time_lost_s(&self) -> f64 {
        self.outcomes.iter().map(|(_, _, o)| o.time_lost_s()).sum()
    }

    /// Nodes returned to service by healing across the sweep.
    pub fn total_nodes_repaired(&self) -> u32 {
        self.ran_reports().map(|r| r.nodes_repaired).sum()
    }

    /// Cells skipped by per-system quarantine.
    pub fn n_quarantined(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, _, o)| {
                matches!(o, SuiteOutcome::Skipped(reason) if reason.starts_with("quarantined"))
            })
            .count()
    }
}

/// One streamed grid cell, handed to the progress callback the moment it
/// and every earlier cell are complete (the ordered flush). `index` walks
/// the canonical (system, case) grid order; sequence numbers on ran
/// records are already renumbered when the callback sees them.
#[derive(Debug, Clone, Copy)]
pub struct SuiteProgress<'a> {
    /// 0-based position in (system-major, case-minor) grid order.
    pub index: usize,
    /// Total grid cells in the sweep.
    pub total: usize,
    pub case: &'a str,
    pub system: &'a str,
    pub outcome: &'a SuiteOutcome,
}

/// What one hermetic (system, case) job hands back for reassembly.
struct JobResult {
    outcome: SuiteOutcome,
    /// A failed cell's `result=fail` perflog record (sequence 0: sequence
    /// numbers count successful runs), when the harness wrote one.
    failure: Option<PerflogRecord>,
}

/// The warm prepass's build for one cell: the prepared build, or the
/// build-stage error with the `result=fail` record the harness wrote.
type Prepared = Result<PreparedBuild, (HarnessError, Option<PerflogRecord>)>;

/// The ordered-flush cursor: protects the canonical emission point of the
/// stream and the per-system run counter used to renumber sequences.
struct FlushState {
    /// Next grid index waiting to be flushed.
    next: usize,
    /// Successful runs flushed so far for the system currently streaming.
    sequence: u64,
    /// Consecutive *emitted* failures for the system currently streaming
    /// (quarantine trigger; resets at each system boundary and on a run).
    consecutive: u32,
    /// Whether any cell has been emitted as Failed (fail-fast trigger).
    failed_any: bool,
    /// Whether the current system's canary cell was emitted as Failed
    /// (demotes the system's remaining cells; resets per system).
    canary_failed: bool,
}

/// Shared coordination state for one sweep: result slots, the dispatch
/// order and its claim counter, the ordered-flush cursor, and the
/// short-circuit signals.
struct SweepState {
    slots: Vec<Mutex<Option<JobResult>>>,
    /// Grid indices in the order workers claim them
    /// ([`SuiteRunner::dispatch_order`]).
    order: Vec<usize>,
    /// Claims made so far: the k-th claim runs `order[k]`.
    next: AtomicUsize,
    flush: Mutex<FlushState>,
    /// Lowest grid index known to hold a genuine failure (fail-fast).
    /// Workers may skip any job behind it, whenever they claim it: the
    /// flush pass demotes every cell behind the first failure
    /// canonically anyway, so skipping only saves work, never changes the
    /// report. Claims are not in grid order, so a later failure may be
    /// known first; cells before it still run.
    first_failure: AtomicUsize,
    /// Per-system quarantine flags, set only by the ordered flush, so a
    /// set flag implies every later claim for that system will be
    /// demoted at flush time: a cell flushes only once it has been
    /// claimed, so every cell still unclaimed lies past the flush cursor,
    /// whatever the dispatch order.
    quarantined: Vec<AtomicBool>,
    /// Per-system canary flag from quarantine memory: `Some(streak)` when
    /// the system enters this study on probation with that many prior
    /// consecutive failures.
    canary: Vec<Option<u32>>,
    /// Canary verdicts in system order: (system, readmitted?). Appended
    /// only by the ordered flush, so the order is deterministic.
    canary_verdicts: Mutex<Vec<(String, bool)>>,
    /// Checkpoint journal, when the sweep is checkpointed. Appends happen
    /// at flush time, before the progress callback sees the cell, so a
    /// reported cell is always durable.
    journal: Option<Journal>,
    /// Grid cells below this index were replayed from the journal and are
    /// not re-appended.
    journal_from: usize,
    /// First journal append failure (surfaced after the sweep).
    journal_error: Mutex<Option<CheckpointError>>,
    /// The study's host solves, shared by every cell it runs.
    memo: Arc<SolveMemo>,
}

/// How long a host solve runs, as a static rank: the study starts its
/// longest solves first. Beside each arm, one memo-free run's time on one
/// kernel thread with a fresh arena (median of 41, release build, 2-vCPU
/// x86-64 host). Absolute times moved by up to 2x between sessions on
/// that shared host while their order held; only the order matters, and
/// nothing measured at run time feeds it.
fn solve_rank(key: &SolveKey) -> u8 {
    match key {
        // HPGMG's 32³ multigrid: 15 ms.
        SolveKey::Hpgmg { .. } => 3,
        // LFRic's CG at 16³: 3.3 ms.
        SolveKey::Hpcg {
            operator: HpcgOperator::Lfric,
            ..
        } => 1,
        // CSR, SELL-C-σ and matrix-free CG at 16³: 9.7, 11.7 and 6.9 ms.
        SolveKey::Hpcg { .. } => 2,
        // Bandwidth validations at 2^16 elements: 0.3–0.7 ms.
        SolveKey::BabelStream { .. } | SolveKey::Stream { .. } => 0,
    }
}

/// Sweeps cases across systems with a bounded worker pool.
///
/// Every (system, case) combination is a job on its own harness session,
/// so jobs are order-independent and the report is identical for any
/// `jobs` count. Two store modes:
///
/// * **cold** (default): every job concretizes and installs against a
///   fresh store — fully hermetic, every dependency rebuilt per cell;
/// * **warm** ([`SuiteRunner::with_warm_store`]): each system shares one
///   [`spackle::SharedStore`] across its cases, the way the old serial
///   runner (and Spack's build cache) reused dependency builds. To keep
///   `packages_cached` / `build_time_s` independent of job scheduling,
///   the build stage runs as a serial *prepass* in canonical case order
///   (first-build-wins attribution: the first case in case order pays for
///   each shared dependency), and jobs then execute the prepared builds
///   in parallel. Root packages still rebuild every run (P3).
///
/// Workers claim cells in a **dispatch order** fixed before they start:
/// one cell per distinct host solve, longest solve first, then the rest
/// in grid order ([`SuiteRunner::dispatch_order`]). So the study's
/// longest solves start at once, and the cells that pose them again
/// share their outcomes through the study's [`SolveMemo`].
///
/// Outcomes stream through an **ordered flush**, in grid order whatever
/// the claim order: a grid cell is emitted to the progress callback as
/// soon as it and every earlier cell (system-major, case-minor order) are
/// done, with perflog sequence numbers renumbered per system in case
/// order exactly as a serial sweep would have assigned them.
///
/// The runner is also the survey's one configuration value: the CLI parses
/// it once, `benchkit::Study` carries it unchanged, and the checkpoint
/// header is rendered straight from it ([`checkpoint::header_line`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteRunner {
    pub systems: Vec<String>,
    pub seed: u64,
    /// Concurrent jobs; 0 means auto (`threads`, else the machine's
    /// parallelism).
    pub jobs: usize,
    /// Share one package store per system across its cases.
    pub warm_store: bool,
    /// Injected fault profile for every cell (`--fault-profile`).
    pub fault_profile: FaultProfile,
    /// Per-stage retry budget for every cell (`--max-retries`).
    pub max_retries: u32,
    /// Stop scheduling new cells after the first failure (`--fail-fast`):
    /// every cell behind the first failed one is reported as skipped.
    pub fail_fast: bool,
    /// After this many *consecutive* failures on one system, skip that
    /// system's remaining cells with an explicit reason (`--quarantine`).
    /// 0 disables quarantine.
    pub quarantine: u32,
    /// Per-system fault-profile overrides (`--fault-profile sys=name`):
    /// the named system draws faults from its own profile instead of the
    /// base one.
    pub fault_overrides: Vec<(String, FaultProfile)>,
    /// Return drained nodes to service after the system's deterministic
    /// repair window (`--heal`). Off = drained nodes stay down, exactly
    /// the pre-heal behavior.
    pub heal: bool,
    /// Checkpoint directory and mode (`--checkpoint` / `--resume`).
    pub checkpoint: Option<CheckpointMode>,
    /// Persistent package store directory (`--store`). Implies the warm
    /// prepass; each system's shared store is seeded from verified disk
    /// entries, and new builds are persisted once the study completes.
    pub store: Option<PathBuf>,
    /// External engine subprocess for the run stage of every case
    /// (`--engine`). `None` keeps the in-process path byte-identical to
    /// the pre-engine world.
    pub engine: Option<engine::EngineSpec>,
    /// Per-case engine overrides (`--engine case=SPEC`): the named case
    /// runs under its own engine instead of the base one (or instead of
    /// the in-process path when no base engine is set).
    pub engine_overrides: Vec<(String, engine::EngineSpec)>,
    /// I/O seam of the checkpoint journal and the store (`BENCHKIT_IOFAULTS`).
    pub io: IoShim,
    /// [`RunOptions::backoff_scale`] of every cell.
    pub backoff_scale: f64,
    /// Kernel threads per cell; `None` shares the machine among the jobs.
    pub threads: Option<usize>,
}

impl SuiteRunner {
    pub fn new(systems: &[&str]) -> SuiteRunner {
        SuiteRunner {
            systems: systems.iter().map(|s| s.to_string()).collect(),
            seed: 42,
            jobs: 1,
            warm_store: false,
            fault_profile: FaultProfile::none(),
            max_retries: 2,
            fail_fast: false,
            quarantine: 0,
            fault_overrides: Vec::new(),
            heal: false,
            checkpoint: None,
            store: None,
            engine: None,
            engine_overrides: Vec::new(),
            io: IoShim::Real,
            backoff_scale: 1.0,
            threads: None,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> SuiteRunner {
        self.seed = seed;
        self
    }

    /// Fan (system × case) jobs across `jobs` workers (0 = auto). The
    /// report is identical at any count; only the wall-clock changes.
    pub fn with_jobs(mut self, jobs: usize) -> SuiteRunner {
        self.jobs = jobs;
        self
    }

    /// Reuse dependency builds across cases on the same system (see the
    /// type-level docs for the determinism rule).
    pub fn with_warm_store(mut self, warm: bool) -> SuiteRunner {
        self.warm_store = warm;
        self
    }

    /// Inject faults from `profile` into every cell of the sweep.
    pub fn with_fault_profile(mut self, profile: FaultProfile) -> SuiteRunner {
        self.fault_profile = profile;
        self
    }

    /// Per-stage retry budget before a cell is declared failed.
    pub fn with_max_retries(mut self, max_retries: u32) -> SuiteRunner {
        self.max_retries = max_retries;
        self
    }

    /// Skip every cell after the first failure.
    pub fn with_fail_fast(mut self, fail_fast: bool) -> SuiteRunner {
        self.fail_fast = fail_fast;
        self
    }

    /// Quarantine a system after `k` consecutive failures (0 = off).
    pub fn with_quarantine(mut self, k: u32) -> SuiteRunner {
        self.quarantine = k;
        self
    }

    /// Override the fault profile for one system (later builders do not
    /// replace earlier ones; duplicates are a CLI-level error).
    pub fn with_fault_override(mut self, system: &str, profile: FaultProfile) -> SuiteRunner {
        self.fault_overrides.push((system.to_string(), profile));
        self
    }

    /// Heal drained nodes after each system's deterministic repair window.
    pub fn with_heal(mut self, heal: bool) -> SuiteRunner {
        self.heal = heal;
        self
    }

    /// Journal every completed cell to `dir` (fresh journal) so an
    /// interrupted sweep can be resumed. Also enables quarantine memory.
    pub fn with_checkpoint(mut self, dir: &Path) -> SuiteRunner {
        self.checkpoint = Some(CheckpointMode::Fresh(dir.to_path_buf()));
        self
    }

    /// Resume an interrupted sweep from the journal in `dir`.
    pub fn with_resume(mut self, dir: &Path) -> SuiteRunner {
        self.checkpoint = Some(CheckpointMode::Resume(dir.to_path_buf()));
        self
    }

    /// Warm each system's store from the persistent store at `dir` and
    /// persist new builds there once the study completes. Implies the
    /// warm prepass. Store trouble (lock contention, corruption, I/O)
    /// degrades to an in-memory warm store — it never fails the study.
    pub fn with_store(mut self, dir: &Path) -> SuiteRunner {
        self.store = Some(dir.to_path_buf());
        self
    }

    /// Run every case's run stage in an external engine subprocess
    /// speaking the KLV protocol; its failures are contained per attempt.
    pub fn with_engine(mut self, spec: Option<engine::EngineSpec>) -> SuiteRunner {
        self.engine = spec;
        self
    }

    /// Override the engine for one case (later builders do not replace
    /// earlier ones; duplicates are a CLI-level error).
    pub fn with_engine_override(mut self, case: &str, spec: engine::EngineSpec) -> SuiteRunner {
        self.engine_overrides.push((case.to_string(), spec));
        self
    }

    /// Scale engine-retry sleeps by `scale` (0 retries at once).
    pub fn with_backoff_scale(mut self, scale: f64) -> SuiteRunner {
        self.backoff_scale = scale;
        self
    }

    /// The engine a given case runs under (override, then base), `None`
    /// for the in-process path.
    pub fn engine_for(&self, case: &str) -> Option<&engine::EngineSpec> {
        self.engine_overrides
            .iter()
            .find(|(c, _)| c == case)
            .map(|(_, s)| s)
            .or(self.engine.as_ref())
    }

    /// The fault profile a given system draws from (override or base).
    pub fn profile_for(&self, system: &str) -> &FaultProfile {
        self.fault_overrides
            .iter()
            .find(|(s, _)| s == system)
            .map(|(_, p)| p)
            .unwrap_or(&self.fault_profile)
    }

    fn job_options(&self, system: &str) -> RunOptions {
        RunOptions::on_system(system)
            .with_seed(self.seed)
            .with_fault_profile(self.profile_for(system).clone())
            .with_max_retries(self.max_retries)
            .with_heal(self.heal)
            .with_backoff_scale(self.backoff_scale)
    }

    /// Warm-store prepass: per system, run the build stage serially in
    /// case order against that system's shared store. This fixes cache
    /// attribution canonically — whatever the later job schedule, the
    /// accounting is the one a serial sweep would have produced. With a
    /// persistent store open, each system's store starts seeded with the
    /// verified on-disk entries, so cross-study reuse shows up as cached
    /// dependency installs.
    fn prepare_warm(&self, cases: &[TestCase], disk: Option<&DiskStore>) -> Vec<Prepared> {
        let mut prepared = Vec::with_capacity(self.systems.len() * cases.len());
        for system in &self.systems {
            let store = spackle::SharedStore::new();
            if let Some(disk) = disk {
                disk.seed_into(&mut store.lock());
            }
            let mut harness =
                Harness::new(self.job_options(system)).with_shared_store(store.clone());
            for case in cases {
                // The build stage skips unsupported cells only when they
                // run in process, as `run_job` will run them.
                harness.set_engine(self.engine_for(&case.name).cloned());
                let build = harness.prepare_build(case);
                prepared.push(build.map_err(|e| (e, harness.take_failure())));
            }
        }
        prepared
    }

    /// The cells that lead the dispatch order: one per distinct host solve
    /// among cells `from..` (a resume replays the cells before `from`),
    /// longest solve first by [`solve_rank`], grid order within a rank.
    /// Only cells that reach the study's memo count: run in process, on a
    /// simulated system, and supported there by the app's own
    /// [`App::precheck`](crate::App::precheck).
    fn solve_leads(&self, cases: &[TestCase], from: usize) -> Vec<usize> {
        let mut keys = HashSet::new();
        let mut leads = Vec::new();
        for job in from..self.systems.len() * cases.len() {
            let case = &cases[job % cases.len()];
            if self.engine_for(&case.name).is_some() {
                continue;
            }
            let Some((system, partition)) =
                simhpc::catalog::partition(&self.systems[job / cases.len()])
            else {
                continue;
            };
            if system.name() == "native" || case.app.precheck(partition).is_err() {
                continue;
            }
            let key = case.app.solve_key();
            if keys.insert(key) {
                leads.push((solve_rank(&key), job));
            }
        }
        leads.sort_by_key(|&(rank, _)| Reverse(rank)); // stable
        leads.into_iter().map(|(_, job)| job).collect()
    }

    /// The order workers claim the cells `from..` in: the
    /// [solve leads](SuiteRunner::solve_leads), then every other cell in
    /// grid order. The same at every `--jobs`; the ordered flush, and so
    /// every output byte, does not depend on it.
    fn dispatch_order(&self, cases: &[TestCase], from: usize) -> Vec<usize> {
        let mut order = self.solve_leads(cases, from);
        let mut leads = vec![false; self.systems.len() * cases.len()];
        for &job in &order {
            leads[job] = true;
        }
        order.extend((from..leads.len()).filter(|&job| !leads[job]));
        order
    }

    /// Classify a pipeline result into a suite outcome, keeping a failed
    /// cell's `result=fail` record.
    fn classify(
        result: Result<CaseReport, HarnessError>,
        failure: Option<PerflogRecord>,
    ) -> JobResult {
        match result {
            Ok(report) => JobResult {
                outcome: SuiteOutcome::Ran(Box::new(report)),
                failure: None,
            },
            Err(HarnessError::Unsupported(reason)) => JobResult {
                outcome: SuiteOutcome::Skipped(reason),
                failure: None,
            },
            Err(other) => JobResult {
                outcome: SuiteOutcome::Failed(other),
                failure: failure.map(|record| PerflogRecord {
                    sequence: 0,
                    ..record
                }),
            },
        }
    }

    /// Run one (system, case) combination in a fresh harness session that
    /// shares the study's solve memo.
    fn run_job(
        &self,
        cases: &[TestCase],
        prepared: Option<&[Prepared]>,
        memo: &Arc<SolveMemo>,
        job: usize,
    ) -> JobResult {
        let system = &self.systems[job / cases.len()];
        let case = &cases[job % cases.len()];
        let options = self
            .job_options(system)
            .with_engine(self.engine_for(&case.name).cloned());
        let mut harness = Harness::new(options).with_solve_memo(Arc::clone(memo));
        let result = match prepared.map(|builds| &builds[job]) {
            // Warm mode: the build already ran in the canonical prepass.
            Some(Ok(build)) => harness.run_prepared(case, build.clone()),
            Some(Err((err, failure))) => return Self::classify(Err(err.clone()), failure.clone()),
            None => harness.run_case(case),
        };
        Self::classify(result, harness.take_failure())
    }

    /// Claim jobs in dispatch order until none remain, flushing the
    /// outcome stream after every completion. Jobs provably behind a
    /// failure (fail-fast) or inside a quarantined system are not run at
    /// all; their placeholder result is demoted canonically at flush time.
    fn work(
        &self,
        cases: &[TestCase],
        prepared: Option<&[Prepared]>,
        state: &SweepState,
        on_flush: &(dyn Fn(SuiteProgress<'_>) + Sync),
    ) {
        loop {
            let claim = state.next.fetch_add(1, Ordering::Relaxed);
            let Some(&job) = state.order.get(claim) else {
                return;
            };
            let short_circuit = (self.fail_fast
                && state.first_failure.load(Ordering::Relaxed) < job)
                || (self.quarantine > 0
                    && state.quarantined[job / cases.len()].load(Ordering::Relaxed));
            let result = if short_circuit {
                // Never executed; the flush pass stamps the real reason.
                JobResult {
                    outcome: SuiteOutcome::Skipped("not run".to_string()),
                    failure: None,
                }
            } else {
                let result = self.run_job(cases, prepared, &state.memo, job);
                if matches!(result.outcome, SuiteOutcome::Failed(_)) {
                    state.first_failure.fetch_min(job, Ordering::Relaxed);
                }
                result
            };
            *state.slots[job].lock().expect("job slot poisoned") = Some(result);
            self.flush_ready(cases, state, on_flush);
        }
    }

    /// Advance the ordered flush: emit every contiguous completed cell
    /// starting at the cursor, renumbering ran sequences per system in
    /// case order. Serialized by the flush lock, so the stream is emitted
    /// in canonical grid order no matter which workers finish when.
    ///
    /// Fail-fast and quarantine are applied *here*, at the canonical
    /// emission point: cell i is demoted based only on cells < i, so the
    /// decision is identical at every `jobs` count even when a worker
    /// raced ahead and actually ran the cell.
    fn flush_ready(
        &self,
        cases: &[TestCase],
        state: &SweepState,
        on_flush: &(dyn Fn(SuiteProgress<'_>) + Sync),
    ) {
        let mut cursor = state.flush.lock().expect("flush state poisoned");
        while cursor.next < state.slots.len() {
            let mut slot = state.slots[cursor.next].lock().expect("job slot poisoned");
            let Some(result) = slot.as_mut() else {
                break; // an earlier cell is still running
            };
            let ci = cursor.next % cases.len();
            let si = cursor.next / cases.len();
            if ci == 0 {
                cursor.sequence = 0; // new system starts counting afresh
                cursor.consecutive = 0;
                cursor.canary_failed = false;
            }
            if self.fail_fast && cursor.failed_any {
                result.outcome =
                    SuiteOutcome::Skipped("not run: --fail-fast after earlier failure".to_string());
                result.failure = None;
            } else if cursor.canary_failed {
                // The system entered this study on probation and its canary
                // cell just failed: everything else on it is skipped.
                result.outcome = SuiteOutcome::Skipped(format!(
                    "quarantined: canary failed on {} ({} prior consecutive failures)",
                    self.systems[si],
                    state.canary[si].unwrap_or(0)
                ));
                result.failure = None;
            } else if self.quarantine > 0 && cursor.consecutive >= self.quarantine {
                result.outcome = SuiteOutcome::Skipped(format!(
                    "quarantined: {} consecutive failures on {}",
                    self.quarantine, self.systems[si]
                ));
                result.failure = None;
            }
            match &mut result.outcome {
                SuiteOutcome::Ran(report) => {
                    cursor.sequence += 1;
                    report.record.sequence = cursor.sequence;
                    cursor.consecutive = 0;
                }
                SuiteOutcome::Failed(_) => {
                    cursor.failed_any = true;
                    cursor.consecutive += 1;
                    if self.quarantine > 0 && cursor.consecutive >= self.quarantine {
                        state.quarantined[si].store(true, Ordering::Relaxed);
                    }
                }
                SuiteOutcome::Skipped(_) => {}
            }
            // Canary verdict: the probing cell readmits the system (any
            // non-failure) or condemns the rest of its row.
            if ci == 0 && state.canary[si].is_some() {
                let failed = matches!(result.outcome, SuiteOutcome::Failed(_));
                if failed {
                    cursor.canary_failed = true;
                    state.quarantined[si].store(true, Ordering::Relaxed);
                }
                state
                    .canary_verdicts
                    .lock()
                    .expect("canary verdicts poisoned")
                    .push((self.systems[si].clone(), !failed));
            }
            // Make the cell durable before anyone hears about it: a crash
            // from here on resumes at this cell or later, never before it.
            if let Some(journal) = &state.journal {
                if cursor.next >= state.journal_from {
                    if let Err(e) = journal.append(
                        cursor.next,
                        &cases[ci].name,
                        &self.systems[si],
                        &result.outcome,
                        result.failure.as_ref(),
                    ) {
                        let mut slot = state.journal_error.lock().expect("journal error poisoned");
                        slot.get_or_insert(e);
                    }
                }
            }
            on_flush(SuiteProgress {
                index: cursor.next,
                total: state.slots.len(),
                case: &cases[ci].name,
                system: &self.systems[si],
                outcome: &result.outcome,
            });
            cursor.next += 1;
        }
    }

    /// Run every case on every system.
    pub fn run(&self, cases: &[TestCase]) -> SuiteReport {
        self.run_with_progress(cases, &|_| {})
    }

    /// Run every case on every system, streaming outcomes to `on_flush`.
    /// Panics on checkpoint errors — use [`SuiteRunner::try_run_with_progress`]
    /// when a checkpoint directory is configured.
    pub fn run_with_progress(
        &self,
        cases: &[TestCase],
        on_flush: &(dyn Fn(SuiteProgress<'_>) + Sync),
    ) -> SuiteReport {
        self.try_run_with_progress(cases, on_flush)
            .expect("checkpointing failed")
    }

    /// [`SuiteRunner::run`] with checkpoint errors surfaced.
    pub fn try_run(&self, cases: &[TestCase]) -> Result<SuiteReport, CheckpointError> {
        self.try_run_with_progress(cases, &|_| {})
    }

    /// Run every case on every system, streaming outcomes to `on_flush`
    /// in canonical grid order as soon as each cell (and every earlier
    /// one) completes. With a checkpoint configured, every flushed cell is
    /// journaled durably before it is streamed, completed cells of a
    /// resumed sweep are replayed instead of re-run, and quarantine
    /// memory from earlier studies puts flaky systems on canary probation.
    /// The study owns one [`SolveMemo`]: every cell posing the same capped
    /// simulated problem shares one host solve.
    pub fn try_run_with_progress(
        &self,
        cases: &[TestCase],
        on_flush: &(dyn Fn(SuiteProgress<'_>) + Sync),
    ) -> Result<SuiteReport, CheckpointError> {
        self.sweep(cases, on_flush, Arc::new(SolveMemo::new()))
    }

    /// [`SuiteRunner::try_run_with_progress`] with the study's memo given.
    fn sweep(
        &self,
        cases: &[TestCase],
        on_flush: &(dyn Fn(SuiteProgress<'_>) + Sync),
        memo: Arc<SolveMemo>,
    ) -> Result<SuiteReport, CheckpointError> {
        let n_jobs = self.systems.len() * cases.len();
        let machine = std::thread::available_parallelism().map_or(1, |p| p.get());
        let jobs = match self.jobs {
            0 => self.threads.unwrap_or(machine),
            n => n,
        };
        let workers = jobs.min(n_jobs).max(1);

        // Kernel threads per cell, which each worker thread sets on itself:
        // an explicit count always wins; otherwise `workers` concurrent
        // cells split the machine so jobs × threads ≤ its parallelism.
        let per_cell = match self.threads {
            Some(n) => n,
            None if workers > 1 => {
                let cap = (machine / workers).max(1);
                eprintln!(
                    "note: clamping per-cell kernel threads to {cap} \
                     ({machine} cores / {workers} concurrent jobs); \
                     set BENCHKIT_THREADS to override"
                );
                cap
            }
            None => 0, // one cell at a time: the whole machine
        };

        // Quarantine memory: systems whose trailing streak in an earlier
        // study reached the threshold start on canary probation.
        let streaks = match &self.checkpoint {
            Some(mode) => checkpoint::load_streaks(mode.dir())?,
            None => Vec::new(),
        };
        let canary: Vec<Option<u32>> = self
            .systems
            .iter()
            .map(|sys| {
                if self.quarantine == 0 {
                    return None;
                }
                streaks
                    .iter()
                    .find(|(s, _)| s == sys)
                    .and_then(|(_, n)| (*n >= self.quarantine).then_some(*n))
            })
            .collect();

        let header = || checkpoint::header_line(self, cases, &streaks);
        let (journal, replayed) = match &self.checkpoint {
            Some(CheckpointMode::Fresh(dir)) => (
                Some(Journal::create(dir, &header(), self.io.clone())?),
                Vec::new(),
            ),
            Some(CheckpointMode::Resume(dir)) => {
                let (j, cells) = Journal::resume(dir, &header(), self.io.clone())?;
                (Some(j), cells)
            }
            None => (None, Vec::new()),
        };
        let replay_count = replayed.len().min(n_jobs);

        // Persistent store: open softly — lock contention, corruption, or
        // I/O trouble degrades to the plain in-memory warm store below; the
        // study never fails because of the store.
        let mut store_stats = self.store.as_ref().map(|_| StoreStats::default());
        let mut disk = None;
        if let Some(dir) = &self.store {
            let stats = store_stats.as_mut().expect("stats allocated with --store");
            let opts = StoreOptions {
                io: self.io.clone(),
                ..StoreOptions::default()
            };
            match DiskStore::open_with(dir, opts) {
                Ok(d) => {
                    stats.quarantined = d.quarantined().len();
                    stats.shards_contended = d.contended().len();
                    disk = Some(d);
                }
                Err(e) => {
                    let reason = e.to_string();
                    eprintln!("warning: degrading to in-memory warm store: {reason}");
                    stats.degraded = Some(reason);
                }
            }
        }

        let prepared_builds = if self.warm_store || self.store.is_some() {
            Some(self.prepare_warm(cases, disk.as_ref()))
        } else {
            None
        };
        let prepared = prepared_builds.as_deref();

        let state = SweepState {
            slots: (0..n_jobs).map(|_| Mutex::new(None)).collect(),
            order: self.dispatch_order(cases, replay_count),
            next: AtomicUsize::new(0),
            flush: Mutex::new(FlushState {
                next: 0,
                sequence: 0,
                consecutive: 0,
                failed_any: false,
                canary_failed: false,
            }),
            first_failure: AtomicUsize::new(usize::MAX),
            quarantined: (0..self.systems.len())
                .map(|_| AtomicBool::new(false))
                .collect(),
            canary,
            canary_verdicts: Mutex::new(Vec::new()),
            journal,
            journal_from: replay_count,
            journal_error: Mutex::new(None),
            memo,
        };
        // Prefill replayed cells. The ordered flush re-walks them exactly
        // as the interrupted run did — every demotion and sequence number
        // is recomputed deterministically — so the stream and the report
        // come out byte-identical to an uninterrupted sweep.
        for (i, cell) in replayed.into_iter().enumerate().take(n_jobs) {
            if matches!(cell.outcome, SuiteOutcome::Failed(_)) {
                state.first_failure.fetch_min(i, Ordering::Relaxed);
            }
            *state.slots[i].lock().expect("job slot poisoned") = Some(JobResult {
                outcome: cell.outcome,
                failure: cell.failure,
            });
        }
        if replay_count > 0 {
            self.flush_ready(cases, &state, on_flush);
        }
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    parkern::set_worker_cap(per_cell);
                    self.work(cases, prepared, &state, on_flush);
                });
            }
        });
        if let Some(e) = state
            .journal_error
            .lock()
            .expect("journal error poisoned")
            .take()
        {
            return Err(e);
        }
        // Persistent-store accounting and persist-at-completion. Hits and
        // misses are counted against the resident set loaded at open, as
        // attributed by the canonical prepass; then — only now that the
        // sweep has completed — new entries and this study's reference
        // record go to disk. An interrupted run leaves the store untouched,
        // which keeps `--resume` byte-identical.
        if let (Some(stats), Some(disk)) = (store_stats.as_mut(), disk.as_mut()) {
            let mut to_persist: Vec<StoreEntry> = Vec::new();
            let mut queued: BTreeSet<&str> = BTreeSet::new();
            let mut refs: BTreeSet<String> = BTreeSet::new();
            for build in prepared_builds.iter().flatten().flatten() {
                for record in &build.install.records {
                    match record.action {
                        BuildAction::Cached => {
                            refs.insert(record.hash.clone());
                            if disk.resident(&record.hash) {
                                stats.hits += 1;
                            }
                        }
                        BuildAction::Built => {
                            refs.insert(record.hash.clone());
                            if disk.resident(&record.hash) {
                                // A forced P3 root rebuild of a resident
                                // entry: the store could not legally serve
                                // it, so it is neither hit nor miss.
                                continue;
                            }
                            stats.misses += 1;
                            if !queued.insert(record.hash.as_str()) {
                                continue;
                            }
                            if let Some(node) = build
                                .concrete
                                .nodes()
                                .iter()
                                .find(|n| n.hash == record.hash)
                            {
                                to_persist.push(StoreEntry {
                                    hash: record.hash.clone(),
                                    render: node.render(),
                                    record: record.clone(),
                                });
                            }
                        }
                        BuildAction::External => {}
                    }
                }
            }
            for entry in &to_persist {
                match disk.persist(entry) {
                    Ok(Persist::Written) => stats.persisted += 1,
                    // Another live writer holds this shard's lease: the
                    // entry stays in memory for this run and will be
                    // persisted by whichever study builds it next. Only
                    // the contended shard degrades, not the sweep.
                    Ok(Persist::SkippedContended) => stats.persist_skipped += 1,
                    Err(e) => {
                        if stats.degraded.is_none() {
                            stats.degraded = Some(format!("persist failed: {e}"));
                        }
                    }
                }
            }
            if stats.degraded.is_none() {
                if let Err(e) = disk.append_refs(&refs) {
                    stats.degraded = Some(format!("reference log append failed: {e}"));
                }
            }
        }

        let canaries = state
            .canary_verdicts
            .into_inner()
            .expect("canary verdicts poisoned");
        let mut results: Vec<Option<JobResult>> = state
            .slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("job slot poisoned"))
            .collect();

        // Deterministic reassembly in (system, case) order: ran records
        // (already renumbered by the ordered flush) and failed cells'
        // `result=fail` records, in grid order.
        let mut outcomes = Vec::with_capacity(n_jobs);
        let mut perflogs = Vec::new();
        for (si, system) in self.systems.iter().enumerate() {
            let mut merged: BTreeMap<(String, String), Perflog> = BTreeMap::new();
            for (ci, case) in cases.iter().enumerate() {
                let JobResult { outcome, failure } = results[si * cases.len() + ci]
                    .take()
                    .expect("every job slot filled");
                let record = match &outcome {
                    SuiteOutcome::Ran(report) => Some(report.record.clone()),
                    _ => failure,
                };
                if let Some(record) = record {
                    let key = (record.system.clone(), case.app.name().to_string());
                    merged.entry(key).or_default().append(record);
                }
                outcomes.push((case.name.clone(), system.clone(), outcome));
            }
            perflogs.extend(merged);
        }
        let report = SuiteReport {
            outcomes,
            perflogs,
            canaries,
            store: store_stats,
        };
        // The study completed: persist each system's trailing consecutive-
        // failure streak (continuing any unreset prior streak) so the next
        // study against this directory knows who to canary.
        if let Some(mode) = &self.checkpoint {
            let trailing: Vec<(String, u32)> = self
                .systems
                .iter()
                .enumerate()
                .map(|(si, system)| {
                    let prior = streaks
                        .iter()
                        .find(|(s, _)| s == system)
                        .map(|(_, n)| *n)
                        .unwrap_or(0);
                    let mut streak = prior;
                    for ci in 0..cases.len() {
                        match &report.outcomes[si * cases.len() + ci].2 {
                            SuiteOutcome::Ran(_) => streak = 0,
                            SuiteOutcome::Failed(_) => streak += 1,
                            SuiteOutcome::Skipped(_) => {}
                        }
                    }
                    (system.clone(), streak)
                })
                .collect();
            checkpoint::save_streaks(mode.dir(), &trailing)?;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases;
    use benchapps::memo::SolveKey;
    use parkern::Model;

    #[test]
    fn sweep_over_models_and_systems_matches_figure2_availability() {
        // A small Figure-2-style sweep: 3 models × (CPU + GPU partitions).
        let cases = vec![
            cases::babelstream(Model::Omp, 1 << 22),
            cases::babelstream(Model::Cuda, 1 << 22),
            cases::babelstream(Model::Tbb, 1 << 22),
        ];
        let runner = SuiteRunner::new(&[
            "isambard-macs:cascadelake",
            "isambard-macs:volta",
            "isambard:xci",
        ]);
        let report = runner.run(&cases);
        assert_eq!(report.outcomes.len(), 9);
        // OMP runs on both CPUs, not the GPU.
        assert!(report
            .outcome("babelstream_omp", "isambard-macs:cascadelake")
            .unwrap()
            .ran());
        assert!(report
            .outcome("babelstream_omp", "isambard:xci")
            .unwrap()
            .ran());
        assert!(report
            .outcome("babelstream_omp", "isambard-macs:volta")
            .unwrap()
            .skipped());
        // CUDA only on the GPU.
        assert!(report
            .outcome("babelstream_cuda", "isambard-macs:volta")
            .unwrap()
            .ran());
        assert!(report
            .outcome("babelstream_cuda", "isambard-macs:cascadelake")
            .unwrap()
            .skipped());
        // TBB skipped on ThunderX2 (the paper's starred box).
        assert!(report
            .outcome("babelstream_tbb", "isambard:xci")
            .unwrap()
            .skipped());
        assert!(report
            .outcome("babelstream_tbb", "isambard-macs:cascadelake")
            .unwrap()
            .ran());
        assert_eq!(report.n_failed(), 0);
    }

    #[test]
    fn combined_frame_assimilates_cross_system() {
        let cases = vec![cases::babelstream(Model::Omp, 1 << 22)];
        let runner = SuiteRunner::new(&["archer2", "csd3"]);
        let report = runner.run(&cases);
        let df = report.combined_frame();
        // 2 systems × 5 FOMs.
        assert_eq!(df.n_rows(), 10);
        assert_eq!(df.unique("system").unwrap().len(), 2);
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        // The tentpole determinism guarantee: fanning the (system × case)
        // grid across 4 workers must reproduce the jobs=1 report exactly —
        // same outcomes in the same order, same perflogs, same sequence
        // numbers. Mix of ran/skipped combinations and multiple cases per
        // system so sequence renumbering is actually exercised.
        let cases = vec![
            cases::babelstream(Model::Omp, 1 << 22),
            cases::babelstream(Model::Cuda, 1 << 22),
            cases::babelstream(Model::Tbb, 1 << 22),
            cases::hpgmg(),
        ];
        let systems = [
            "isambard-macs:cascadelake",
            "isambard-macs:volta",
            "archer2",
        ];
        let serial = SuiteRunner::new(&systems).with_seed(7).run(&cases);
        let parallel = SuiteRunner::new(&systems)
            .with_seed(7)
            .with_jobs(4)
            .run(&cases);
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
        assert_eq!(
            serial.combined_frame().to_string(),
            parallel.combined_frame().to_string()
        );
    }

    #[test]
    fn sequence_numbers_count_successful_runs_per_system() {
        // omp runs, cuda skips, tbb runs on cascadelake: the two ran cases
        // must carry sequences 1 and 2 (the skip does not consume one).
        let cases = vec![
            cases::babelstream(Model::Omp, 1 << 22),
            cases::babelstream(Model::Cuda, 1 << 22),
            cases::babelstream(Model::Tbb, 1 << 22),
        ];
        let report = SuiteRunner::new(&["isambard-macs:cascadelake"])
            .with_jobs(3)
            .run(&cases);
        let seq_of = |case: &str| match report.outcome(case, "isambard-macs:cascadelake") {
            Some(SuiteOutcome::Ran(r)) => r.record.sequence,
            other => panic!("expected Ran, got {other:?}"),
        };
        assert_eq!(seq_of("babelstream_omp"), 1);
        assert_eq!(seq_of("babelstream_tbb"), 2);
        // The perflog copy agrees with the report copy.
        let (_, log) = &report.perflogs[0];
        assert_eq!(
            log.records().iter().map(|r| r.sequence).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn jobs_zero_means_auto() {
        let cases = vec![cases::babelstream(Model::Omp, 1 << 20)];
        let report = SuiteRunner::new(&["csd3"]).with_jobs(0).run(&cases);
        assert_eq!(report.n_ran(), 1);
    }

    fn multi_case_suite() -> Vec<TestCase> {
        vec![
            cases::babelstream(Model::Omp, 1 << 22),
            cases::babelstream(Model::Tbb, 1 << 22),
            cases::hpgmg(),
        ]
    }

    #[test]
    fn warm_store_reuses_dependency_builds() {
        let cases = multi_case_suite();
        let cold = SuiteRunner::new(&["csd3"]).run(&cases);
        let warm = SuiteRunner::new(&["csd3"])
            .with_warm_store(true)
            .run(&cases);
        // Warm mode builds strictly less and reuses strictly more.
        assert!(
            warm.total_packages_built() < cold.total_packages_built(),
            "warm {} < cold {}",
            warm.total_packages_built(),
            cold.total_packages_built()
        );
        assert!(warm.total_packages_cached() > 0, "multi-case system reuses");
        assert!(warm.total_build_time_s() < cold.total_build_time_s());
        // First case in case order pays for shared deps (first-build-wins);
        // P3 still rebuilds every root.
        for (case, _, outcome) in &warm.outcomes {
            if let SuiteOutcome::Ran(r) = outcome {
                assert!(r.packages_built >= 1, "{case}: root rebuilt (P3)");
            }
        }
        let first = match warm.outcome("babelstream_omp", "csd3").unwrap() {
            SuiteOutcome::Ran(r) => r,
            other => panic!("{other:?}"),
        };
        let second = match warm.outcome("babelstream_tbb", "csd3").unwrap() {
            SuiteOutcome::Ran(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(first.packages_cached, 0, "case 0 starts cold");
        assert!(second.packages_cached > 0, "case 1 reuses case 0's deps");
    }

    #[test]
    fn warm_and_cold_runs_yield_identical_foms() {
        // The store only affects build accounting; measured FOMs must be
        // bit-for-bit the same whether dependencies were reused or not.
        let cases = multi_case_suite();
        let systems = ["csd3", "archer2"];
        let cold = SuiteRunner::new(&systems).with_seed(3).run(&cases);
        let warm = SuiteRunner::new(&systems)
            .with_seed(3)
            .with_warm_store(true)
            .with_jobs(4)
            .run(&cases);
        for (case, system, outcome) in &cold.outcomes {
            let warm_outcome = warm.outcome(case, system).unwrap();
            match (outcome, warm_outcome) {
                (SuiteOutcome::Ran(c), SuiteOutcome::Ran(w)) => {
                    assert_eq!(c.record.foms, w.record.foms, "{case} on {system}");
                }
                (a, b) => assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "{case} on {system}: {a:?} vs {b:?}"
                ),
            }
        }
    }

    #[test]
    fn warm_store_report_is_identical_for_any_jobs_count() {
        // The tentpole invariant re-pinned with the shared store: cache
        // accounting is canonicalized by the prepass, so the full report
        // (outcomes, built/cached counts, perflogs) is byte-identical for
        // any worker count.
        let cases = vec![
            cases::babelstream(Model::Omp, 1 << 22),
            cases::babelstream(Model::Cuda, 1 << 22),
            cases::babelstream(Model::Tbb, 1 << 22),
            cases::hpgmg(),
        ];
        let systems = ["isambard-macs:cascadelake", "isambard-macs:volta", "csd3"];
        let run = |jobs| {
            SuiteRunner::new(&systems)
                .with_seed(7)
                .with_warm_store(true)
                .with_jobs(jobs)
                .run(&cases)
        };
        let serial = run(1);
        for jobs in [2, 8] {
            let parallel = run(jobs);
            assert_eq!(
                format!("{serial:?}"),
                format!("{parallel:?}"),
                "jobs={jobs}"
            );
            assert_eq!(
                serial.combined_frame().to_string(),
                parallel.combined_frame().to_string()
            );
        }
    }

    /// A case that always fails its reference check (no fault needed).
    fn failing_case(tag: &str) -> TestCase {
        let mut case = cases::babelstream(Model::Omp, 1 << 22)
            .with_reference("Triad", crate::Reference::within(1.0, 0.05));
        case.name = format!("babelstream_bad_{tag}");
        case
    }

    #[test]
    fn faulty_suite_reports_are_byte_identical_across_jobs() {
        // The tentpole pin: with a nonzero fault profile the whole report —
        // outcomes, retry accounting, perflogs — replays byte-identically
        // at any worker count, because faults are keyed per
        // (system, case, attempt), never drawn from shared mutable state.
        let cases = vec![
            cases::babelstream(Model::Omp, 1 << 22),
            cases::babelstream(Model::Tbb, 1 << 22),
            cases::hpgmg(),
        ];
        let systems = ["csd3", "archer2"];
        let run = |seed: u64, jobs: usize| {
            SuiteRunner::new(&systems)
                .with_seed(seed)
                .with_fault_profile(FaultProfile::flaky())
                .with_max_retries(2)
                .with_jobs(jobs)
                .run(&cases)
        };
        // Find a seed whose sweep actually injects faults, so the pin
        // exercises the retry machinery rather than the clean path.
        let seed = (0..20)
            .find(|&s| run(s, 1).total_faults_injected() > 0)
            .expect("some seed in 0..20 must inject faults under flaky");
        let serial = run(seed, 1);
        assert!(serial.total_retries() > 0 || serial.n_failed() > 0);
        for jobs in [2, 8] {
            let parallel = run(seed, jobs);
            assert_eq!(
                format!("{serial:?}"),
                format!("{parallel:?}"),
                "jobs={jobs} diverged under fault injection"
            );
            assert_eq!(
                serial.combined_frame().to_string(),
                parallel.combined_frame().to_string()
            );
            assert_eq!(serial.total_retries(), parallel.total_retries());
            assert_eq!(
                serial.total_faults_injected(),
                parallel.total_faults_injected()
            );
            assert_eq!(serial.total_time_lost_s(), parallel.total_time_lost_s());
        }
    }

    #[test]
    fn fail_fast_skips_everything_after_first_failure() {
        // Grid (system-major): csd3 × [good, bad, good], archer2 × [...].
        // The failure at cell 2 must skip every later cell, canonically at
        // any worker count.
        let cases = vec![
            cases::babelstream(Model::Omp, 1 << 22),
            failing_case("x"),
            cases::babelstream(Model::Tbb, 1 << 22),
        ];
        let systems = ["csd3", "archer2"];
        let run = |jobs| {
            SuiteRunner::new(&systems)
                .with_fail_fast(true)
                .with_jobs(jobs)
                .run(&cases)
        };
        let serial = run(1);
        assert_eq!(serial.n_failed(), 1, "only the first failure is reported");
        assert!(serial.outcomes[0].2.ran());
        assert!(matches!(serial.outcomes[1].2, SuiteOutcome::Failed(_)));
        for (case, system, outcome) in &serial.outcomes[2..] {
            match outcome {
                SuiteOutcome::Skipped(reason) => assert!(
                    reason.contains("--fail-fast"),
                    "{case} on {system}: {reason}"
                ),
                other => panic!("{case} on {system} not skipped: {other:?}"),
            }
        }
        for jobs in [2, 8] {
            assert_eq!(
                format!("{serial:?}"),
                format!("{:?}", run(jobs)),
                "jobs={jobs}"
            );
        }

        // A failure claimed before the cells ahead of it: the failing
        // HPGMG cell on csd3 leads the dispatch order. The two cells before
        // it in grid order still run, and everything behind it is skipped.
        let cases = vec![
            cases::babelstream(Model::Omp, 1 << 22),
            cases::babelstream(Model::Tbb, 1 << 22),
            cases::hpgmg().with_reference("l0", crate::Reference::within(1.0, 0.05)),
        ];
        let run = |jobs| {
            SuiteRunner::new(&systems)
                .with_fail_fast(true)
                .with_jobs(jobs)
                .run(&cases)
        };
        assert_eq!(SuiteRunner::new(&systems).dispatch_order(&cases, 0)[0], 2);
        let serial = run(1);
        assert!(serial.outcomes[0].2.ran() && serial.outcomes[1].2.ran());
        assert!(matches!(serial.outcomes[2].2, SuiteOutcome::Failed(_)));
        assert_eq!((serial.n_failed(), serial.n_skipped()), (1, 3));
        for jobs in [2, 8] {
            assert_eq!(
                format!("{serial:?}"),
                format!("{:?}", run(jobs)),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn quarantine_skips_rest_of_system_after_k_consecutive_failures() {
        // Two failing cases in a row trip the K=2 quarantine; the rest of
        // that system is skipped with an explicit reason, and the next
        // system starts with a clean slate (and trips it again itself).
        let cases = vec![
            failing_case("a"),
            failing_case("b"),
            cases::babelstream(Model::Omp, 1 << 22),
            cases::babelstream(Model::Tbb, 1 << 22),
        ];
        let systems = ["csd3", "archer2"];
        let run = |jobs| {
            SuiteRunner::new(&systems)
                .with_quarantine(2)
                .with_jobs(jobs)
                .run(&cases)
        };
        let serial = run(1);
        assert_eq!(
            serial.n_failed(),
            4,
            "2 failures per system before the trip"
        );
        assert_eq!(serial.n_quarantined(), 4, "2 quarantined cells per system");
        for (si, system) in systems.iter().enumerate() {
            let base = si * cases.len();
            assert!(matches!(serial.outcomes[base].2, SuiteOutcome::Failed(_)));
            assert!(matches!(
                serial.outcomes[base + 1].2,
                SuiteOutcome::Failed(_)
            ));
            for cell in &serial.outcomes[base + 2..base + 4] {
                match &cell.2 {
                    SuiteOutcome::Skipped(reason) => {
                        assert!(
                            reason.starts_with("quarantined: 2 consecutive failures"),
                            "{reason}"
                        );
                        assert!(reason.contains(system), "{reason}");
                    }
                    other => panic!("expected quarantine skip, got {other:?}"),
                }
            }
        }
        for jobs in [2, 8] {
            assert_eq!(
                format!("{serial:?}"),
                format!("{:?}", run(jobs)),
                "jobs={jobs}"
            );
        }

        // A quarantined cell the dispatch order ran first: every run on
        // csd3 fails, and its HPGMG cell leads the order, so it runs (and
        // fails) before the two failures that trip the quarantine. The
        // flush still reports it quarantined, and archer2 runs clean.
        let cases = vec![
            cases::babelstream(Model::Omp, 1 << 22),
            cases::babelstream(Model::Tbb, 1 << 22),
            cases::hpgmg(),
        ];
        let doomed = FaultProfile {
            name: "doomed".to_string(),
            timeout_p: 1.0,
            ..FaultProfile::none()
        };
        let runner = SuiteRunner::new(&systems)
            .with_quarantine(2)
            .with_fault_override("csd3", doomed)
            .with_max_retries(0);
        assert_eq!(runner.dispatch_order(&cases, 0)[0], 2);
        let run = |jobs| runner.clone().with_jobs(jobs).run(&cases);
        let serial = run(1);
        assert!(matches!(serial.outcomes[0].2, SuiteOutcome::Failed(_)));
        assert!(matches!(serial.outcomes[1].2, SuiteOutcome::Failed(_)));
        match &serial.outcomes[2].2 {
            SuiteOutcome::Skipped(reason) => {
                assert_eq!(reason, "quarantined: 2 consecutive failures on csd3")
            }
            other => panic!("expected quarantine skip, got {other:?}"),
        }
        assert!(serial.outcomes[3..].iter().all(|(_, _, o)| o.ran()));
        for jobs in [2, 8] {
            assert_eq!(
                format!("{serial:?}"),
                format!("{:?}", run(jobs)),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn a_run_between_failures_resets_the_quarantine_counter() {
        // fail, run, fail, run: consecutive failures never reach 2, so
        // nothing is quarantined — and the reset is canonical at any
        // worker count (the counter lives in the ordered flush).
        let cases = vec![
            failing_case("a"),
            cases::babelstream(Model::Omp, 1 << 22),
            failing_case("b"),
            cases::babelstream(Model::Tbb, 1 << 22),
        ];
        let run = |jobs| {
            SuiteRunner::new(&["csd3", "archer2"])
                .with_quarantine(2)
                .with_jobs(jobs)
                .run(&cases)
        };
        let serial = run(1);
        assert_eq!(serial.n_failed(), 4);
        assert_eq!(serial.n_ran(), 4);
        assert_eq!(serial.n_quarantined(), 0);
        for jobs in [2, 8] {
            assert_eq!(
                format!("{serial:?}"),
                format!("{:?}", run(jobs)),
                "jobs={jobs}"
            );
        }
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "benchkit-suite-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Render a report down to what every consumer (CLI stream, markdown,
    /// frames) can observe. Resumed failures are `HarnessError::Replayed`
    /// internally, so reports are compared on this rendering, not Debug.
    fn rendered(report: &SuiteReport) -> String {
        let mut out = String::new();
        for (case, system, outcome) in &report.outcomes {
            let label = match outcome {
                SuiteOutcome::Ran(r) => format!(
                    "ran seq={} built={} cached={} retries={} faults={} lost={} repaired={}",
                    r.record.sequence,
                    r.packages_built,
                    r.packages_cached,
                    r.retries,
                    r.faults_injected,
                    r.time_lost_s,
                    r.nodes_repaired
                ),
                SuiteOutcome::Skipped(reason) => format!("skip {reason}"),
                SuiteOutcome::Failed(e) => format!("fail {e} stats={:?}", e.fault_stats()),
            };
            out.push_str(&format!("{case} on {system}: {label}\n"));
        }
        out.push_str(&format!("canaries={:?}\n", report.canaries));
        out.push_str(&report.combined_frame().to_string());
        out
    }

    #[test]
    fn interrupted_checkpoint_resume_is_byte_identical() {
        // The tentpole pin: a checkpointed sweep interrupted after any k
        // cells and resumed at any worker count must reproduce the
        // uninterrupted report and stream exactly. Interruption is
        // simulated by truncating the journal to its first k records.
        let cases = vec![
            cases::babelstream(Model::Omp, 1 << 22),
            failing_case("mid"),
            cases::hpgmg(),
        ];
        let systems = ["csd3", "archer2"];
        let make = |jobs: usize| {
            SuiteRunner::new(&systems)
                .with_seed(11)
                .with_fault_profile(FaultProfile::flaky())
                .with_quarantine(3)
                .with_jobs(jobs)
        };
        let stream_of = |runner: SuiteRunner| {
            let lines = Mutex::new(Vec::new());
            let report = runner
                .try_run_with_progress(&cases, &|p| {
                    let label = match p.outcome {
                        SuiteOutcome::Ran(r) => format!("ran seq={}", r.record.sequence),
                        SuiteOutcome::Skipped(reason) => format!("skip {reason}"),
                        SuiteOutcome::Failed(e) => format!("fail {e}"),
                    };
                    lines.lock().unwrap().push(format!(
                        "[{}/{}] {} on {}: {label}",
                        p.index + 1,
                        p.total,
                        p.case,
                        p.system
                    ));
                })
                .unwrap();
            (report, lines.into_inner().unwrap())
        };
        let base = tmpdir("resume-base");
        let (full, full_stream) = stream_of(make(1).with_checkpoint(&base));
        let total = systems.len() * cases.len();
        assert_eq!(full_stream.len(), total);
        let journal = std::fs::read_to_string(base.join(checkpoint::JOURNAL_FILE)).unwrap();
        let lines: Vec<&str> = journal.lines().collect();
        assert_eq!(lines.len(), total + 1, "header + one record per cell");
        let want = rendered(&full);
        for k in [0, 1, 3, total] {
            for jobs in [1, 2, 8] {
                let dir = tmpdir(&format!("resume-{k}-{jobs}"));
                std::fs::create_dir_all(&dir).unwrap();
                let prefix = lines[..=k].join("\n") + "\n";
                std::fs::write(dir.join(checkpoint::JOURNAL_FILE), prefix).unwrap();
                let (resumed, stream) = stream_of(make(jobs).with_resume(&dir));
                assert_eq!(rendered(&resumed), want, "k={k} jobs={jobs}");
                assert_eq!(stream, full_stream, "k={k} jobs={jobs}");
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn torn_journal_records_are_rerun_and_mismatched_configs_rejected() {
        let cases = vec![
            cases::babelstream(Model::Omp, 1 << 22),
            cases::babelstream(Model::Tbb, 1 << 22),
        ];
        let dir = tmpdir("torn-suite");
        let make = || SuiteRunner::new(&["csd3"]).with_seed(5);
        let full = make().with_checkpoint(&dir).try_run(&cases).unwrap();
        // Chop the last record in half mid-write: the resume discards it,
        // re-runs that cell, and still matches the uninterrupted report.
        let path = dir.join(checkpoint::JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let torn = &text[..text.len() - 40];
        assert!(!torn.ends_with('\n'), "cut lands mid-record");
        std::fs::write(&path, torn).unwrap();
        let resumed = make().with_resume(&dir).try_run(&cases).unwrap();
        assert_eq!(rendered(&resumed), rendered(&full));
        // A different seed is a different experiment: hard error.
        match make().with_seed(6).with_resume(&dir).try_run(&cases) {
            Err(CheckpointError::ConfigMismatch { .. }) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        // So is a different fault profile.
        assert!(matches!(
            make()
                .with_fault_profile(FaultProfile::flaky())
                .with_resume(&dir)
                .try_run(&cases),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flaky_system_is_canaried_in_the_next_study() {
        // Study 1 trips quarantine on csd3; study 2 against the same
        // checkpoint directory probes it with a single canary cell, which
        // fails, so the rest of the system is skipped; study 3 leads with
        // a passing case, so the canary readmits the system.
        let dir = tmpdir("canary");
        let bad_suite = vec![
            failing_case("a"),
            failing_case("b"),
            cases::babelstream(Model::Omp, 1 << 22),
            cases::babelstream(Model::Tbb, 1 << 22),
        ];
        let study = |jobs| {
            SuiteRunner::new(&["csd3"])
                .with_quarantine(2)
                .with_jobs(jobs)
                .with_checkpoint(&dir)
        };
        let first = study(1).try_run(&bad_suite).unwrap();
        assert!(first.canaries.is_empty(), "no memory on the first study");
        assert_eq!(first.n_failed(), 2);
        assert_eq!(first.n_quarantined(), 2);
        // Snapshot the memory study 2 starts from: later studies advance
        // the streak, and the jobs-canonicality reruns below must each see
        // this same state.
        let memory = std::fs::read(dir.join(checkpoint::QUARANTINE_FILE)).unwrap();
        let second = study(1).try_run(&bad_suite).unwrap();
        assert_eq!(second.canaries, vec![("csd3".to_string(), false)]);
        assert_eq!(second.n_failed(), 1, "only the canary cell runs");
        for (case, _, outcome) in &second.outcomes[1..] {
            match outcome {
                SuiteOutcome::Skipped(reason) => assert_eq!(
                    reason, "quarantined: canary failed on csd3 (2 prior consecutive failures)",
                    "{case}"
                ),
                other => panic!("{case}: expected canary skip, got {other:?}"),
            }
        }
        // The canary decision is flush-canonical: same at any jobs count.
        // Each study advances the quarantine memory (streak 2 -> 3), so
        // the snapshot study 2 started from is restored before each rerun.
        let reference = rendered(&second);
        for jobs in [2, 8] {
            std::fs::write(dir.join(checkpoint::QUARANTINE_FILE), &memory).unwrap();
            assert_eq!(
                rendered(&study(jobs).try_run(&bad_suite).unwrap()),
                reference,
                "jobs={jobs}"
            );
        }
        std::fs::write(dir.join(checkpoint::QUARANTINE_FILE), &memory).unwrap();
        // Study 3: a passing canary readmits the system on the spot.
        let good_first = vec![
            cases::babelstream(Model::Omp, 1 << 22),
            failing_case("a"),
            cases::babelstream(Model::Tbb, 1 << 22),
        ];
        let third = study(1).try_run(&good_first).unwrap();
        assert_eq!(third.canaries, vec![("csd3".to_string(), true)]);
        assert!(third.outcomes[0].2.ran());
        assert_eq!(third.n_failed(), 1, "embedded failure runs normally");
        assert_eq!(third.n_ran(), 2);
        // Study 3 ended on a success, so the streak is clean: no canary.
        let fourth = study(1).try_run(&good_first).unwrap();
        assert!(fourth.canaries.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn healing_repairs_nodes_and_off_matches_default_exactly() {
        let cases = vec![cases::babelstream(Model::Omp, 1 << 22), cases::hpgmg()];
        let run = |heal: bool, seed: u64| {
            SuiteRunner::new(&["csd3"])
                .with_seed(seed)
                .with_fault_profile(FaultProfile::brutal())
                .with_max_retries(4)
                .with_heal(heal)
                .run(&cases)
        };
        // Find a seed whose sweep actually loses (and then repairs) a node.
        let seed = (0..40)
            .find(|&s| run(true, s).total_nodes_repaired() > 0)
            .expect("some seed in 0..40 must drain a node under brutal");
        let healed = run(true, seed);
        assert!(healed.total_nodes_repaired() > 0);
        // Without healing the same sweep repairs nothing, and is exactly
        // the report the pre-heal runner produced (heal defaults off).
        let unhealed = run(false, seed);
        assert_eq!(unhealed.total_nodes_repaired(), 0);
        let default_runner = SuiteRunner::new(&["csd3"])
            .with_seed(seed)
            .with_fault_profile(FaultProfile::brutal())
            .with_max_retries(4)
            .run(&cases);
        assert_eq!(format!("{unhealed:?}"), format!("{default_runner:?}"));
        // Healing replays byte-identically across worker counts too.
        let healed_parallel = SuiteRunner::new(&["csd3"])
            .with_seed(seed)
            .with_fault_profile(FaultProfile::brutal())
            .with_max_retries(4)
            .with_heal(true)
            .with_jobs(4)
            .run(&cases);
        assert_eq!(format!("{healed:?}"), format!("{healed_parallel:?}"));
    }

    #[test]
    fn per_system_fault_overrides_pick_the_right_profile() {
        let runner = SuiteRunner::new(&["csd3", "archer2"])
            .with_fault_profile(FaultProfile::flaky())
            .with_fault_override("archer2", FaultProfile::none());
        assert_eq!(runner.profile_for("csd3").name, "flaky");
        assert_eq!(runner.profile_for("archer2").name, "none");
        // An override to `none` really shields the system: its cells can
        // never inject faults, whatever the base profile does.
        let cases = vec![cases::babelstream(Model::Omp, 1 << 22), cases::hpgmg()];
        let report = runner.with_seed(3).run(&cases);
        for (case, system, outcome) in &report.outcomes {
            if system == "archer2" {
                assert_eq!(
                    outcome.faults_injected(),
                    0,
                    "{case} on {system} is shielded by the none override"
                );
            }
        }
    }

    #[test]
    fn streaming_flush_is_ordered_and_complete() {
        // Whatever the jobs count, the progress callback must see every
        // grid cell exactly once, in canonical (system, case) order, with
        // renumbered sequences — and the streamed text must match the
        // jobs=1 stream byte for byte.
        let cases = multi_case_suite();
        let systems = ["csd3", "archer2"];
        let stream_at = |jobs: usize, warm: bool| {
            let lines = Mutex::new(Vec::new());
            SuiteRunner::new(&systems)
                .with_jobs(jobs)
                .with_warm_store(warm)
                .run_with_progress(&cases, &|p| {
                    let label = match p.outcome {
                        SuiteOutcome::Ran(r) => format!(
                            "ran seq={} built={} cached={}",
                            r.record.sequence, r.packages_built, r.packages_cached
                        ),
                        SuiteOutcome::Skipped(_) => "skipped".to_string(),
                        SuiteOutcome::Failed(_) => "failed".to_string(),
                    };
                    lines.lock().unwrap().push(format!(
                        "[{}/{}] {} on {}: {label}",
                        p.index + 1,
                        p.total,
                        p.case,
                        p.system
                    ));
                });
            lines.into_inner().unwrap()
        };
        let serial = stream_at(1, true);
        assert_eq!(serial.len(), systems.len() * cases.len());
        assert!(serial[0].starts_with("[1/6] babelstream_omp on csd3: ran seq=1"));
        assert!(serial[3].contains("on archer2: ran seq=1"), "{serial:?}");
        for jobs in [2, 8] {
            assert_eq!(serial, stream_at(jobs, true), "jobs={jobs}");
        }
        // Cold mode streams in the same canonical order too.
        let cold = stream_at(4, false);
        assert_eq!(cold.len(), serial.len());
        for (a, b) in serial.iter().zip(&cold) {
            let cell = |s: &str| s.split(':').next().unwrap().to_string();
            assert_eq!(cell(a), cell(b), "same cell order");
        }
    }

    /// FOMs of every ran cell, rendered — the invariant currency of the
    /// persistent store: cold, warm, and corrupted-then-rebuilt runs must
    /// agree on this exactly.
    fn foms_of(report: &SuiteReport) -> String {
        let mut out = String::new();
        for (case, system, outcome) in &report.outcomes {
            if let SuiteOutcome::Ran(r) = outcome {
                out.push_str(&format!("{case} on {system}: {:?}\n", r.record.foms));
            }
        }
        out.push_str(&report.combined_frame().to_string());
        out
    }

    #[test]
    fn persistent_store_cold_then_warm_reuses_and_keeps_foms() {
        let dir = tmpdir("store-nightly");
        let cases = multi_case_suite();
        let systems = ["csd3", "archer2"];
        let run = || {
            SuiteRunner::new(&systems)
                .with_seed(5)
                .with_store(&dir)
                .run(&cases)
        };
        let cold = run();
        let stats = cold.store.as_ref().unwrap();
        assert_eq!(stats.hits, 0, "nothing resident on a cold store");
        assert!(stats.misses > 0);
        assert!(stats.persisted > 0, "cold run populates the store");
        assert_eq!(stats.degraded, None);
        assert_eq!(stats.quarantined, 0);

        let warm = run();
        let stats = warm.store.as_ref().unwrap();
        assert!(stats.hits > 0, "second study reuses persisted builds");
        assert_eq!(stats.misses, 0, "everything buildable is resident");
        assert_eq!(stats.persisted, 0, "nothing new to persist");
        assert_eq!(stats.degraded, None);
        assert_eq!(
            foms_of(&cold),
            foms_of(&warm),
            "FOMs identical cold vs warm"
        );
        // Warm builds genuinely skip dependency work: every cell's deps
        // come from the disk-seeded store, only roots rebuild (P3).
        assert!(warm.total_packages_built() < cold.total_packages_built());
        assert!(warm.total_packages_cached() > cold.total_packages_cached());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_store_entry_quarantines_and_rebuilds_identically() {
        let dir = tmpdir("store-corrupt");
        let cases = multi_case_suite();
        let systems = ["csd3"];
        let run = || {
            SuiteRunner::new(&systems)
                .with_seed(9)
                .with_store(&dir)
                .run(&cases)
        };
        let cold = run();
        // Flip one byte in the middle of one stored entry (entries now
        // live under `shard-XX/` directories).
        let victim = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("shard-"))
            .flat_map(|shard| std::fs::read_dir(shard.path()).unwrap())
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| {
                p.extension().is_some_and(|x| x == "json")
                    && !p
                        .file_name()
                        .is_some_and(|n| n.to_string_lossy().starts_with('.'))
            })
            .expect("at least one persisted entry");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();

        let healed = run();
        let stats = healed.store.as_ref().unwrap();
        assert_eq!(stats.quarantined, 1, "the flipped entry is quarantined");
        assert_eq!(stats.degraded, None, "corruption never fails the study");
        assert!(stats.misses > 0, "the quarantined cell rebuilt cold");
        assert!(stats.persisted > 0, "the rebuild re-persisted the entry");
        assert_eq!(healed.n_failed(), 0);
        assert_eq!(
            foms_of(&cold),
            foms_of(&healed),
            "FOMs identical after corruption + rebuild"
        );
        assert!(victim.exists(), "rebuilt entry is back on disk");
        assert!(
            dir.join("corrupt")
                .join(victim.file_name().unwrap())
                .exists(),
            "corrupt original kept for forensics"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_lease_contention_skips_persists_without_degrading() {
        // A live competing writer holding every shard lease no longer
        // fails or degrades the open: the sweep runs, reports normally,
        // and simply skips persisting into the contended shards.
        let dir = tmpdir("store-busy");
        let mut held = spackle::DiskStore::open(&dir).unwrap();
        assert_eq!(held.acquire_all(), spackle::SHARD_COUNT);
        let cases = multi_case_suite();
        let report = SuiteRunner::new(&["csd3"])
            .with_seed(2)
            .with_store(&dir)
            .run(&cases);
        let stats = report.store.as_ref().unwrap();
        assert_eq!(stats.degraded, None, "contention is not degradation");
        assert_eq!(stats.shards_contended, spackle::SHARD_COUNT);
        assert_eq!(stats.persisted, 0, "every shard was leased elsewhere");
        assert!(
            stats.persist_skipped > 0,
            "new builds were skipped with notice, not lost silently: {stats:?}"
        );
        assert_eq!(report.n_failed(), 0, "the study itself still runs");
        // It behaved as an in-memory warm store: later cases reused deps.
        assert!(report.total_packages_cached() > 0);
        // And the held store saw no interference.
        assert!(held.is_empty());
        drop(held);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_runs_are_byte_identical_at_any_jobs() {
        let cases = multi_case_suite();
        let systems = ["csd3", "archer2"];
        let observe = |jobs: usize| {
            let dir = tmpdir(&format!("store-jobs-{jobs}"));
            let run = || {
                SuiteRunner::new(&systems)
                    .with_seed(13)
                    .with_store(&dir)
                    .with_jobs(jobs)
                    .run(&cases)
            };
            let cold = run();
            let warm = run();
            let out = format!(
                "cold {:?}\n{}warm {:?}\n{}",
                cold.store.as_ref().unwrap(),
                rendered(&cold),
                warm.store.as_ref().unwrap(),
                rendered(&warm)
            );
            let _ = std::fs::remove_dir_all(&dir);
            out
        };
        let serial = observe(1);
        for jobs in [2, 8] {
            assert_eq!(serial, observe(jobs), "jobs={jobs}");
        }
    }

    #[test]
    fn resuming_with_different_store_mode_is_refused() {
        let ckpt = tmpdir("store-binding");
        let store = tmpdir("store-binding-store");
        let cases = vec![cases::babelstream(Model::Omp, 1 << 22)];
        SuiteRunner::new(&["csd3"])
            .with_checkpoint(&ckpt)
            .with_store(&store)
            .try_run(&cases)
            .unwrap();
        // Dropping --store on resume would silently change the experiment.
        let err = SuiteRunner::new(&["csd3"])
            .with_resume(&ckpt)
            .try_run(&cases)
            .unwrap_err();
        assert!(matches!(err, CheckpointError::ConfigMismatch { .. }));
        let _ = std::fs::remove_dir_all(&ckpt);
        let _ = std::fs::remove_dir_all(&store);
    }

    /// A shell engine for suite tests; their runners scale backoff
    /// wall-clock to zero.
    fn sh_engine(script: &str) -> crate::EngineSpec {
        crate::EngineSpec {
            cmd: vec!["/bin/sh".to_string(), "-c".to_string(), script.to_string()],
            timeout_s: 10.0,
            grace_s: 0.5,
        }
    }

    /// Shell engine emitting a valid report for any babelstream case.
    fn ok_engine() -> crate::EngineSpec {
        sh_engine(
            r#"cat >/dev/null
out='Function    MBytes/sec
Copy        150000.0
Mul         151000.0
Add         152000.0
Triad       153000.0
Dot         154000.0'
printf 'wall:8:0.250000\n'
printf 'stdout:%d:%s\n' "$(printf %s "$out" | wc -c)" "$out"
printf 'done:0:\n'
"#,
        )
    }

    #[test]
    fn engine_survey_is_byte_identical_for_any_jobs_count() {
        // Tentpole pin on the engine path: a mixed survey — two cases on a
        // healthy engine, one per-case override crashing every attempt —
        // reproduces byte-identically at any worker count, failures and
        // retry accounting included. The crash never aborts the sweep.
        let cases = vec![
            cases::babelstream(Model::Omp, 1 << 22),
            cases::babelstream(Model::Tbb, 1 << 22),
            cases::babelstream(Model::Serial, 1 << 22),
        ];
        let run = |jobs| {
            SuiteRunner::new(&["csd3", "archer2"])
                .with_backoff_scale(0.0)
                .with_engine(Some(ok_engine()))
                .with_engine_override("babelstream_tbb", sh_engine("echo kaput >&2; exit 11"))
                .with_max_retries(1)
                .with_jobs(jobs)
                .run(&cases)
        };
        let serial = run(1);
        assert_eq!(serial.n_ran(), 4);
        assert_eq!(serial.n_failed(), 2, "the crashing override, per system");
        match serial.outcome("babelstream_tbb", "csd3").unwrap() {
            SuiteOutcome::Failed(e) => {
                assert_eq!(e.engine_status(), Some((Some(11), None, false)));
                assert_eq!(e.fault_stats(), Some((2, 2, 30.0)));
            }
            other => panic!("expected engine failure, got {other:?}"),
        }
        for jobs in [2, 8] {
            assert_eq!(rendered(&serial), rendered(&run(jobs)), "jobs={jobs}");
        }
    }

    #[test]
    fn engine_mode_is_bound_into_the_checkpoint() {
        // A survey checkpointed under an engine can only resume under the
        // same engine: resuming in-process (or with a different command)
        // is a ConfigMismatch hard error, never a silent mode switch.
        let dir = tmpdir("engine-binding");
        let cases = vec![
            cases::babelstream(Model::Omp, 1 << 22),
            cases::babelstream(Model::Tbb, 1 << 22),
        ];
        let engined = || {
            SuiteRunner::new(&["csd3"])
                .with_backoff_scale(0.0)
                .with_engine(Some(ok_engine()))
        };
        let full = engined().with_checkpoint(&dir).try_run(&cases).unwrap();
        assert_eq!(full.n_ran(), 2);
        // Same engine resumes cleanly (replaying the completed cells).
        let resumed = engined().with_resume(&dir).try_run(&cases).unwrap();
        assert_eq!(rendered(&resumed), rendered(&full));
        // Dropping --engine switches modes: hard error.
        assert!(matches!(
            SuiteRunner::new(&["csd3"])
                .with_backoff_scale(0.0)
                .with_resume(&dir)
                .try_run(&cases),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        // A different engine command is a different experiment too.
        assert!(matches!(
            SuiteRunner::new(&["csd3"])
                .with_backoff_scale(0.0)
                .with_engine(Some(sh_engine("exit 0")))
                .with_resume(&dir)
                .try_run(&cases),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        // And so is moving the engine to a per-case override.
        assert!(matches!(
            SuiteRunner::new(&["csd3"])
                .with_backoff_scale(0.0)
                .with_engine_override("babelstream_omp", ok_engine())
                .with_resume(&dir)
                .try_run(&cases),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_kill_and_resume_is_byte_identical() {
        // Interrupt an engine survey after k cells (journal truncation),
        // resume with --engine at several worker counts: stream and report
        // must match the uninterrupted run exactly.
        let cases = vec![
            cases::babelstream(Model::Omp, 1 << 22),
            cases::babelstream(Model::Tbb, 1 << 22),
        ];
        let make = || {
            SuiteRunner::new(&["csd3", "archer2"])
                .with_backoff_scale(0.0)
                .with_engine(Some(ok_engine()))
                .with_engine_override("babelstream_tbb", sh_engine("exit 5"))
                .with_max_retries(0)
        };
        let base = tmpdir("engine-resume");
        let full = make().with_checkpoint(&base).try_run(&cases).unwrap();
        let want = rendered(&full);
        let journal = std::fs::read_to_string(base.join(checkpoint::JOURNAL_FILE)).unwrap();
        let lines: Vec<&str> = journal.lines().collect();
        for k in [1, 2] {
            for jobs in [1, 2, 8] {
                let dir = tmpdir(&format!("engine-resume-{k}-{jobs}"));
                std::fs::create_dir_all(&dir).unwrap();
                std::fs::write(
                    dir.join(checkpoint::JOURNAL_FILE),
                    lines[..=k].join("\n") + "\n",
                )
                .unwrap();
                let resumed = make()
                    .with_jobs(jobs)
                    .with_resume(&dir)
                    .try_run(&cases)
                    .unwrap();
                assert_eq!(rendered(&resumed), want, "k={k} jobs={jobs}");
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn quarantine_fires_on_consecutive_engine_failures() {
        // A system whose engine keeps crashing trips quarantine exactly
        // like injected faults would: K consecutive failures, then the
        // rest of the system is skipped with an explicit reason.
        let cases = vec![
            cases::babelstream(Model::Omp, 1 << 22),
            cases::babelstream(Model::Tbb, 1 << 22),
            cases::babelstream(Model::Serial, 1 << 22),
        ];
        let report = SuiteRunner::new(&["csd3"])
            .with_backoff_scale(0.0)
            .with_engine(Some(sh_engine("exit 13")))
            .with_max_retries(0)
            .with_quarantine(2)
            .run(&cases);
        assert_eq!(report.n_failed(), 2);
        assert_eq!(report.n_quarantined(), 1);
        match report.outcome("babelstream_serial", "csd3").unwrap() {
            SuiteOutcome::Skipped(reason) => {
                assert!(reason.starts_with("quarantined"), "{reason}")
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
    }

    #[test]
    fn each_worker_runs_its_cells_on_its_own_thread_count() {
        // The progress callback runs on the worker that flushes the cell,
        // so it sees that worker's kernel thread count.
        let machine = std::thread::available_parallelism().map_or(1, |p| p.get());
        let cases = vec![cases::babelstream(Model::Omp, 1 << 22)];
        let counts = |runner: SuiteRunner| {
            let seen = Mutex::new(BTreeSet::new());
            runner.run_with_progress(&cases, &|_| {
                seen.lock().unwrap().insert(parkern::default_workers());
            });
            seen.into_inner().unwrap()
        };
        let two = SuiteRunner::new(&["csd3", "archer2"]).with_jobs(2);
        // No explicit count (what a zero or junk BENCHKIT_THREADS reads
        // as): two concurrent cells split the machine.
        assert_eq!(counts(two.clone()), BTreeSet::from([(machine / 2).max(1)]));
        // An explicit count wins, exactly, even above the machine.
        let explicit = SuiteRunner {
            threads: Some(machine + 3),
            ..two.clone()
        };
        assert_eq!(counts(explicit), BTreeSet::from([machine + 3]));
        // One cell at a time has the whole machine.
        assert_eq!(counts(two.with_jobs(1)), BTreeSet::from([machine]));
    }

    #[test]
    fn overlapping_suites_leave_no_thread_count_behind() {
        // Force the interleaving A-start, B-start, A-end, B-end. A count
        // that each run saved and restored process-wide would end with B
        // restoring A's clamp, stuck for every later thread.
        let machine = std::thread::available_parallelism().map_or(1, |p| p.get());
        let cases = vec![cases::babelstream(Model::Omp, 1 << 22)];
        let runner = SuiteRunner::new(&["csd3", "archer2"]).with_jobs(2);
        let (a_started, b_started, a_ended) = (
            std::sync::Barrier::new(2),
            std::sync::Barrier::new(2),
            std::sync::Barrier::new(2),
        );
        let (a_first, b_first) = (AtomicBool::new(true), AtomicBool::new(true));
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                runner.run_with_progress(&cases, &|_| {
                    if a_first.swap(false, Ordering::SeqCst) {
                        a_started.wait();
                        b_started.wait();
                    }
                })
            });
            let b = s.spawn(|| {
                a_started.wait();
                runner.run_with_progress(&cases, &|_| {
                    if b_first.swap(false, Ordering::SeqCst) {
                        b_started.wait();
                        a_ended.wait();
                    }
                })
            });
            a.join().unwrap();
            a_ended.wait();
            b.join().unwrap();
        });
        let fresh = std::thread::spawn(parkern::default_workers).join().unwrap();
        assert_eq!(fresh, machine);
    }

    #[test]
    fn faulty_and_clean_suites_run_side_by_side() {
        // One suite's journal tears appends while a clean suite runs in the
        // same process: each run has its own shim, so the clean report is
        // the serial one, and the torn journal resumes to it as well.
        let cases = vec![
            cases::babelstream(Model::Omp, 1 << 22),
            cases::babelstream(Model::Tbb, 1 << 22),
        ];
        let clean = SuiteRunner::new(&["csd3", "archer2"]).with_jobs(2);
        let serial = rendered(&clean.clone().with_jobs(1).run(&cases));
        let mut exercised = false;
        for seed in 0..200u64 {
            let dir = tmpdir(&format!("side-by-side-{seed}"));
            let mut spec = spackle::FaultSpec::quiet(seed);
            spec.torn = 0.35;
            spec.only_matching = Some(checkpoint::JOURNAL_FILE.to_string());
            let faulty = SuiteRunner {
                io: IoShim::faulty(spec.clone()),
                ..clean.clone().with_checkpoint(&dir)
            };
            // Shims compare by spec, and an armed one shows in Debug.
            let armed_alike = SuiteRunner {
                io: IoShim::faulty(spec),
                ..faulty.clone()
            };
            assert_eq!(faulty, armed_alike);
            assert_ne!(
                faulty.clone().with_checkpoint(&dir),
                clean.clone().with_checkpoint(&dir)
            );
            assert!(format!("{faulty:?}").contains("io: Faulty("));
            assert!(format!("{clean:?}").contains("io: Real"));
            let (torn, side) = std::thread::scope(|s| {
                let torn = s.spawn(|| faulty.try_run(&cases));
                let side = clean.run(&cases);
                (torn.join().unwrap(), side)
            });
            assert_eq!(rendered(&side), serial, "seed {seed}");
            let header = checkpoint::header_line(&faulty, &cases, &[]);
            let recovered = Journal::resume(&dir, &header, IoShim::Real).map(|(_, c)| c.len());
            // Wanted: the header commits, some cells commit, then a tear.
            if !(torn.is_err() && recovered.is_ok_and(|n| n >= 1)) {
                let _ = std::fs::remove_dir_all(&dir);
                continue;
            }
            let resumed = clean.clone().with_resume(&dir).try_run(&cases).unwrap();
            assert_eq!(rendered(&resumed), serial, "seed {seed}");
            std::fs::remove_dir_all(&dir).unwrap();
            exercised = true;
            break;
        }
        assert!(exercised, "no seed in 0..200 produced commits-then-tear");
    }

    /// The catalog's seven simulated partitions.
    const PARTITIONS: [&str; 7] = [
        "archer2:rome",
        "cosma8:rome",
        "csd3:cascadelake",
        "isambard:xci",
        "isambard-macs:cascadelake",
        "isambard-macs:volta",
        "noctua2:milan",
    ];

    /// The CLI's 16 benchmarks, built as `benchkit survey` builds them.
    fn full_grid_cases() -> Vec<TestCase> {
        let mut all: Vec<TestCase> = Model::all()
            .iter()
            .map(|&m| cases::babelstream(m, 1 << 25))
            .collect();
        for &variant in benchapps::hpcg::HpcgVariant::all() {
            all.push(cases::hpcg(variant, 40));
        }
        all.push(cases::hpgmg());
        all.push(cases::stream(1 << 25));
        all
    }

    /// `result=fail` records of a report's perflogs, by (system, case).
    fn failure_records(report: &SuiteReport) -> BTreeMap<(String, String), PerflogRecord> {
        report
            .perflogs
            .iter()
            .flat_map(|(_, log)| log.records())
            .filter(|r| r.extras.iter().any(|(k, v)| k == "result" && v == "fail"))
            .map(|r| ((r.system.clone(), r.benchmark.clone()), r.clone()))
            .collect()
    }

    #[test]
    fn memoised_cells_match_memo_free_sessions_at_any_jobs() {
        // Every cell of a study that shares host solves must report exactly
        // what a memo-free session with the same job options reports:
        // stdout, FOMs and the whole perflog record, failures included.
        let cases = full_grid_cases();
        let runner = SuiteRunner::new(&PARTITIONS)
            .with_seed(3)
            .with_fault_profile(FaultProfile::flaky())
            .with_max_retries(1);
        let mut reference = BTreeMap::new();
        let mut reference_failures = BTreeMap::new();
        for system in PARTITIONS {
            for case in &cases {
                let mut harness = Harness::new(runner.job_options(system));
                let outcome = harness.run_case(case);
                if let Some(record) = harness.take_failure() {
                    let key = (record.system.clone(), case.name.clone());
                    reference_failures.insert(
                        key,
                        PerflogRecord {
                            sequence: 0,
                            ..record
                        },
                    );
                }
                reference.insert((case.name.clone(), system.to_string()), outcome);
            }
        }
        assert!(
            !reference_failures.is_empty(),
            "seed 3 under flaky with one retry must fail some cell"
        );
        for jobs in [1, 2, 8] {
            let report = runner.clone().with_jobs(jobs).run(&cases);
            for (case, system, outcome) in &report.outcomes {
                let want = &reference[&(case.clone(), system.clone())];
                match (outcome, want) {
                    (SuiteOutcome::Ran(got), Ok(want)) => {
                        // The suite renumbers sequences per system.
                        let mut got = got.as_ref().clone();
                        got.record.sequence = want.record.sequence;
                        assert_eq!(got.stdout, want.stdout, "{case} on {system}");
                        assert_eq!(got.record, want.record, "{case} on {system}");
                        assert_eq!(
                            format!("{got:?}"),
                            format!("{want:?}"),
                            "{case} on {system} at jobs={jobs}"
                        );
                    }
                    (SuiteOutcome::Skipped(got), Err(HarnessError::Unsupported(want))) => {
                        assert_eq!(got, want, "{case} on {system}");
                    }
                    (SuiteOutcome::Failed(got), Err(want)) => {
                        assert_eq!(got.to_string(), want.to_string(), "{case} on {system}");
                        assert_eq!(got.fault_stats(), want.fault_stats());
                    }
                    (got, want) => panic!("{case} on {system}: {got:?} vs {want:?}"),
                }
            }
            assert_eq!(failure_records(&report), reference_failures, "jobs={jobs}");
        }
    }

    #[test]
    fn unsupported_cells_skip_before_build_faults_can_fail_them() {
        // Support is decided before the build stage's fault loop: at seed 3
        // with no retries, `flaky` faults the builds of `stream` and
        // `hpcg_lfric` on the GPU partition, and those cells must still be
        // the skips a clean run reports, with the same reasons.
        let cases = full_grid_cases();
        let skips = |report: &SuiteReport| -> BTreeMap<(String, String), String> {
            report
                .outcomes
                .iter()
                .filter_map(|(case, system, outcome)| match outcome {
                    SuiteOutcome::Skipped(reason) => {
                        Some(((case.clone(), system.clone()), reason.clone()))
                    }
                    _ => None,
                })
                .collect()
        };
        let clean = SuiteRunner::new(&PARTITIONS)
            .with_seed(3)
            .with_jobs(2)
            .run(&cases);
        assert_eq!((clean.n_skipped(), clean.n_failed()), (31, 0));
        let faulty = SuiteRunner::new(&PARTITIONS)
            .with_seed(3)
            .with_jobs(2)
            .with_fault_profile(FaultProfile::flaky())
            .with_max_retries(0)
            .run(&cases);
        assert_eq!(skips(&faulty), skips(&clean));
        for cell in [
            ("stream", "isambard-macs:volta"),
            ("hpcg_lfric", "isambard-macs:volta"),
        ] {
            assert!(
                faulty.outcome(cell.0, cell.1).unwrap().skipped(),
                "{cell:?}"
            );
        }
        // Every failure is a supported cell's.
        for (case, system, outcome) in &faulty.outcomes {
            if matches!(outcome, SuiteOutcome::Failed(_)) {
                assert!(
                    clean.outcome(case, system).unwrap().ran(),
                    "{case} on {system}"
                );
            }
        }
    }

    #[test]
    fn a_full_grid_study_solves_each_distinct_problem_once() {
        // One memo entry per distinct solve key among the cells that reach
        // the solve: 81 ran cells share seven host solves.
        let cases = full_grid_cases();
        let memo = Arc::new(SolveMemo::new());
        let runner = SuiteRunner::new(&PARTITIONS).with_seed(3).with_jobs(2);
        let report = runner
            .sweep(&cases, &|_| {}, Arc::clone(&memo))
            .expect("no checkpoint configured");
        let mut expected = std::collections::HashSet::new();
        for (case, _, outcome) in &report.outcomes {
            assert!(!matches!(outcome, SuiteOutcome::Failed(_)), "{outcome:?}");
            if !outcome.ran() {
                continue;
            }
            let app = &cases.iter().find(|c| &c.name == case).unwrap().app;
            expected.insert(match app {
                crate::App::BabelStream(cfg) => SolveKey::BabelStream {
                    n: cfg.array_size.min(1 << 16),
                    reps: cfg.reps.min(3),
                },
                crate::App::Hpcg(cfg) => SolveKey::Hpcg {
                    operator: cfg.variant.operator(),
                    dim: cfg.local_dim.min(16),
                    iterations: cfg.iterations.min(60),
                },
                crate::App::Hpgmg(cfg) => SolveKey::Hpgmg {
                    n: 1 << cfg.log2_box_dim.min(5),
                },
                crate::App::Stream(cfg) => SolveKey::Stream {
                    n: cfg.array_size.min(1 << 16),
                    reps: cfg.reps.min(2),
                },
            });
        }
        let solved: std::collections::HashSet<SolveKey> = memo.keys().into_iter().collect();
        assert_eq!(memo.keys().len(), solved.len());
        assert_eq!(solved, expected);
        assert_eq!(report.n_ran(), 81);
        // CSR and Intel-avx2 build one operator, so they share a solve,
        // and all nine BabelStream models share one validation: 4 HPCG
        // operators, HPGMG, BabelStream and STREAM.
        assert_eq!(solved.len(), 7, "{solved:?}");
    }

    /// Checks that `runner`'s dispatch order claims exactly the cells
    /// `from..`, its solve leads first and the rest in grid order, and
    /// returns the leads.
    fn checked_leads(runner: &SuiteRunner, cases: &[TestCase], from: usize) -> Vec<usize> {
        let leads = runner.solve_leads(cases, from);
        let order = runner.dispatch_order(cases, from);
        assert_eq!(order[..leads.len()], leads[..]);
        let rest = &order[leads.len()..];
        assert!(rest.windows(2).all(|w| w[0] < w[1]), "{rest:?}");
        let mut claimed = order.clone();
        claimed.sort_unstable();
        let n_jobs = runner.systems.len() * cases.len();
        assert_eq!(claimed, (from..n_jobs).collect::<Vec<_>>());
        leads
    }

    #[test]
    fn the_full_grid_dispatch_order_leads_with_each_solve_once_longest_first() {
        let cases = full_grid_cases();
        let runner = SuiteRunner::new(&PARTITIONS);
        let leads = checked_leads(&runner, &cases, 0);
        let keys: Vec<SolveKey> = leads
            .iter()
            .map(|&job| cases[job % cases.len()].app.solve_key())
            .collect();
        assert_eq!(keys.iter().collect::<HashSet<_>>().len(), 7, "{keys:?}");
        // All on archer2:rome, the first system: HPGMG, the three long
        // HPCG operators and LFRic's in grid order (the AVX2 variant does
        // not run on AMD), then BabelStream's first model, which validates
        // for all nine, and STREAM.
        assert_eq!(leads, [14, 9, 11, 12, 13, 0, 15]);
        let ranks: Vec<u8> = keys.iter().map(solve_rank).collect();
        assert_eq!(ranks, [3, 2, 2, 2, 1, 0, 0]);
        assert!(matches!(keys[0], SolveKey::Hpgmg { .. }));
        // The same order at any `--jobs`.
        assert_eq!(
            runner.dispatch_order(&cases, 0),
            runner.with_jobs(2).dispatch_order(&cases, 0)
        );
    }

    #[test]
    fn a_resumed_sweep_claims_no_replayed_cell() {
        // Replayed past archer2's HPGMG cell (grid index 14): the next
        // system's takes the lead, and no claim falls below the replay
        // (`checked_leads` checks the claims are exactly 15..).
        let cases = full_grid_cases();
        let leads = checked_leads(&SuiteRunner::new(&PARTITIONS), &cases, 15);
        assert_eq!(leads.len(), 7);
        assert_eq!(leads[0], cases.len() + 14);
    }

    #[test]
    fn cells_that_skip_the_memo_never_lead() {
        let cases = full_grid_cases();
        let hpgmg = cases
            .iter()
            .position(|c| matches!(c.app, crate::App::Hpgmg(_)))
            .unwrap();
        // An engine runs the case out of process: no HPGMG cell leads.
        let engined = SuiteRunner::new(&PARTITIONS)
            .with_engine_override(&cases[hpgmg].name, sh_engine("exit 0"));
        let leads = checked_leads(&engined, &cases, 0);
        assert_eq!(leads.len(), 6, "{leads:?}");
        assert!(leads.iter().all(|&job| job % cases.len() != hpgmg));
        // A native system measures its own solves: none of its cells lead.
        let native = SuiteRunner::new(&["native", "archer2:rome"]);
        let leads = checked_leads(&native, &cases, 0);
        assert_eq!(leads.len(), 7);
        assert!(leads.iter().all(|&job| job >= cases.len()), "{leads:?}");
        // On a GPU partition only the supported cells can lead.
        let (_, volta) = simhpc::catalog::partition("isambard-macs:volta").unwrap();
        let unsupported: Vec<usize> = (0..cases.len())
            .filter(|&job| cases[job].app.precheck(volta).is_err())
            .collect();
        assert!(unsupported.contains(&hpgmg), "{unsupported:?}");
        let leads = checked_leads(&SuiteRunner::new(&["isambard-macs:volta"]), &cases, 0);
        assert!(!leads.is_empty());
        assert!(
            leads.iter().all(|job| !unsupported.contains(job)),
            "{leads:?}"
        );
    }
}
