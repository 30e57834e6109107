//! Crash-safe suite checkpoints and cross-study quarantine memory.
//!
//! The paper's nightly-pipeline use case (§6) runs multi-hour surveys; a
//! crash halfway through must not cost the night. The suite runner
//! therefore journals every *flushed* grid cell to an append-only
//! JSON-lines file in the checkpoint directory, fsync'd per record. The
//! ordered flush emits cells strictly in canonical (system-major,
//! case-minor) order, so the journal is always a contiguous prefix of the
//! grid — resuming is "replay the prefix, run the remainder", and the
//! resumed report is byte-identical to an uninterrupted run at any
//! `--jobs` count.
//!
//! The journal's first line is a header binding the study configuration,
//! rendered straight from the `SuiteRunner` (systems, cases, seed, store
//! mode, fault profile and overrides, retry/fail-fast/quarantine/heal
//! settings, engines, and the quarantine-memory snapshot the run started
//! from). Resuming under a different configuration is a hard
//! [`CheckpointError::ConfigMismatch`] — never silent reuse. A torn or
//! truncated trailing record (the crash arrived mid-write) is detected,
//! discarded, and re-run; everything before it is trusted because each
//! append was flushed to disk before the cell was reported upstream.
//!
//! The directory also holds `quarantine.json`: the per-system trailing
//! consecutive-failure streaks of the last *completed* study. A later
//! study against the same directory starts any system whose streak
//! reached its `--quarantine` threshold in canary mode (see
//! `SuiteRunner`).

use crate::{CaseReport, HarnessError, SuiteOutcome, SuiteRunner, TestCase};
use perflogs::PerflogRecord;
use spackle::walog::{valid_prefix, AppendLog};
use spackle::IoShim;
use std::fmt;
use std::path::{Path, PathBuf};
use tinycfg::{Map, Value};

/// Journal file name inside the checkpoint directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";
/// Quarantine-memory file name inside the checkpoint directory.
pub(crate) const QUARANTINE_FILE: &str = "quarantine.json";
const FORMAT_VERSION: i64 = 2;

/// How the suite runner uses a checkpoint directory.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointMode {
    /// `--checkpoint DIR`: start a fresh journal (any previous journal is
    /// truncated), but honour the directory's quarantine memory.
    Fresh(PathBuf),
    /// `--resume DIR`: validate the journal header against the current
    /// study configuration, replay its completed cells, run the rest.
    Resume(PathBuf),
}

impl CheckpointMode {
    pub fn dir(&self) -> &Path {
        match self {
            CheckpointMode::Fresh(d) | CheckpointMode::Resume(d) => d,
        }
    }
}

/// Why a checkpoint could not be created, resumed, or appended to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    Io(String),
    /// The journal was written by a different study configuration.
    /// Resuming it would silently mix two experiments, so it is refused.
    ConfigMismatch {
        expected: String,
        found: String,
    },
    /// The journal is structurally damaged beyond the tolerated torn
    /// trailing record (e.g. no header line at all).
    Corrupt(String),
    /// `checkpoint gc` refused to collect a journal whose study never
    /// reached its terminal record (use `--force` to collect anyway).
    Incomplete {
        have: usize,
        want: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(m) => write!(f, "checkpoint I/O error: {m}"),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint does not match this study configuration \
                 (expected header {expected}, found {found}); \
                 refusing to resume a different experiment"
            ),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint journal: {m}"),
            CheckpointError::Incomplete { have, want } => write!(
                f,
                "journal holds {have} of {want} cells — the study never \
                 completed; resume it or pass --force to collect anyway"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e.to_string())
    }
}

/// The journal's header line (compact JSON): everything `runner` binds
/// over `cases`, plus the quarantine-memory snapshot the run started
/// from. Equality of header lines is the definition of "same experiment".
///
/// `jobs` and the checkpoint directory are deliberately absent: the
/// worker count never changes the report, so a survey may resume at a
/// different parallelism. The store is bound as on/off so a resume cannot
/// silently switch store modes mid-study. The engine is always present —
/// `null` in-process, else the base spec then every per-case override —
/// so a resume can never cross engine modes.
pub(crate) fn header_line(
    runner: &SuiteRunner,
    cases: &[TestCase],
    streaks: &[(String, u32)],
) -> String {
    let mut m = Map::new();
    m.insert("format", Value::from("benchkit-checkpoint"));
    m.insert("version", Value::Int(FORMAT_VERSION));
    m.insert("systems", str_list(runner.systems.iter()));
    m.insert("cases", str_list(cases.iter().map(|c| &c.name)));
    m.insert("seed", Value::Int(runner.seed as i64));
    m.insert("warm_store", Value::Bool(runner.warm_store));
    m.insert("store", Value::Bool(runner.store.is_some()));
    m.insert("profile", Value::from(runner.fault_profile.name.as_str()));
    let mut overrides = Map::new();
    for (system, profile) in &runner.fault_overrides {
        overrides.insert(system.clone(), Value::from(profile.name.as_str()));
    }
    m.insert("overrides", Value::Map(overrides));
    m.insert("max_retries", Value::Int(i64::from(runner.max_retries)));
    m.insert("fail_fast", Value::Bool(runner.fail_fast));
    m.insert("quarantine", Value::Int(i64::from(runner.quarantine)));
    m.insert("heal", Value::Bool(runner.heal));
    let mut memory = Map::new();
    for (system, n) in streaks {
        memory.insert(system.clone(), Value::Int(i64::from(*n)));
    }
    m.insert("streaks", Value::Map(memory));
    let engines: Vec<String> = runner
        .engine
        .iter()
        .map(|base| base.render())
        .chain(
            runner
                .engine_overrides
                .iter()
                .map(|(case, spec)| format!("{case}={}", spec.render())),
        )
        .collect();
    if engines.is_empty() {
        m.insert("engine", Value::Null);
    } else {
        m.insert("engine", Value::from(engines.join(" ")));
    }
    Value::Map(m).to_json()
}

fn str_list<'a>(items: impl Iterator<Item = &'a String>) -> Value {
    Value::List(items.map(|s| Value::from(s.as_str())).collect())
}

/// One journal record replayed during resume.
#[derive(Debug)]
pub(crate) struct ReplayedCell {
    pub outcome: SuiteOutcome,
    /// The `result=fail` perflog record of a failed cell, when the
    /// harness wrote one.
    pub failure: Option<PerflogRecord>,
}

/// The append side of a checkpoint journal. Records are written one JSON
/// line at a time and fsync'd before the cell is reported upstream, so a
/// crash at any instant leaves at worst one torn trailing record. The
/// durability mechanics live in [`spackle::walog::AppendLog`]; all writes
/// and fsyncs go through the [`spackle::IoShim`] the caller passes in, so
/// the torture suite (and `BENCHKIT_IOFAULTS`, which `benchkit` arms into
/// the survey's shim) can inject torn appends and fsync failures here and
/// prove the resume path recovers the valid prefix.
#[derive(Debug)]
pub(crate) struct Journal {
    log: AppendLog,
}

impl Journal {
    /// Start a fresh journal in `dir` (creating the directory), write the
    /// [`header_line`], and fsync it, every write through `io`.
    pub fn create(dir: &Path, header: &str, io: IoShim) -> Result<Journal, CheckpointError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let log = AppendLog::create(&path, io)?;
        log.append(header)?;
        Ok(Journal { log })
    }

    /// Open an existing journal for continuation: validate its header
    /// against `expected` (a [`header_line`]), parse the contiguous prefix of completed cells,
    /// discard a torn/truncated trailing record (and truncate the file
    /// back to the valid prefix so appends continue cleanly), and return
    /// the replayable cells in grid order. Later appends go through `io`.
    pub fn resume(
        dir: &Path,
        expected: &str,
        io: IoShim,
    ) -> Result<(Journal, Vec<ReplayedCell>), CheckpointError> {
        let path = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CheckpointError::Io(format!("cannot read {}: {e}", path.display())))?;
        let Some(header_end) = text.find('\n') else {
            return Err(CheckpointError::Corrupt(
                "journal has no complete header line".to_string(),
            ));
        };
        let header = &text[..header_end];
        if header != expected {
            return Err(CheckpointError::ConfigMismatch {
                expected: expected.to_string(),
                found: header.to_string(),
            });
        }
        // A record is trusted only if its line is complete (newline-
        // terminated) *and* parses as the next grid cell. The first record
        // that fails either test is where the crash landed: discard it and
        // anything after — those cells simply re-run. The header check
        // above must fail as ConfigMismatch, never as a truncate-to-empty
        // recovery, so the log is opened at the validated prefix length.
        let (cells, len) =
            valid_prefix(&text[header_end + 1..], |line, i| parse_cell(line, i).ok());
        let log = AppendLog::open_at(&path, io, (header_end + 1 + len) as u64)?;
        Ok((Journal { log }, cells))
    }

    /// Append one flushed cell and fsync it. Called by the ordered flush
    /// (already serialized), so records land strictly in grid order. A
    /// failed cell's `result=fail` perflog record, if any, is journaled
    /// with it so a resumed study writes the same perflogs.
    pub fn append(
        &self,
        index: usize,
        case: &str,
        system: &str,
        outcome: &SuiteOutcome,
        failure: Option<&PerflogRecord>,
    ) -> Result<(), CheckpointError> {
        let mut m = Map::new();
        m.insert("cell", Value::Int(index as i64));
        m.insert("case", Value::from(case));
        m.insert("system", Value::from(system));
        m.insert("outcome", outcome_to_value(outcome, failure));
        self.log.append(&Value::Map(m).to_json())?;
        Ok(())
    }
}

fn parse_cell(line: &str, expected_index: usize) -> Result<ReplayedCell, CheckpointError> {
    let doc =
        tinycfg::parse(line).map_err(|e| CheckpointError::Corrupt(format!("bad record: {e}")))?;
    let index = doc
        .get_path("cell")
        .and_then(Value::as_int)
        .ok_or_else(|| CheckpointError::Corrupt("record missing `cell`".to_string()))?;
    if index != expected_index as i64 {
        return Err(CheckpointError::Corrupt(format!(
            "record out of order: expected cell {expected_index}, found {index}"
        )));
    }
    let str_at = |key: &str| -> Result<String, CheckpointError> {
        doc.get_path(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| CheckpointError::Corrupt(format!("record missing `{key}`")))
    };
    let outcome = doc
        .get_path("outcome")
        .ok_or_else(|| CheckpointError::Corrupt("record missing `outcome`".to_string()))?;
    let failure = match outcome.get("failed").and_then(|f| f.get("record")) {
        Some(record) => Some(
            PerflogRecord::from_value(record)
                .map_err(|e| CheckpointError::Corrupt(format!("failed cell record: {e}")))?,
        ),
        None => None,
    };
    // `case` and `system` are not read back, but a record without them
    // is torn and ends the valid prefix.
    str_at("case")?;
    str_at("system")?;
    Ok(ReplayedCell {
        outcome: outcome_from_value(outcome)?,
        failure,
    })
}

fn outcome_to_value(outcome: &SuiteOutcome, failure: Option<&PerflogRecord>) -> Value {
    let mut m = Map::new();
    match outcome {
        SuiteOutcome::Ran(report) => m.insert("ran", report_to_value(report)),
        SuiteOutcome::Skipped(reason) => m.insert("skipped", Value::from(reason.as_str())),
        SuiteOutcome::Failed(err) => {
            // The journal preserves the rendered message and the
            // resilience stats — everything the report surfaces — rather
            // than the full error tree; replayed failures come back as
            // `HarnessError::Replayed` and render byte-identically.
            let mut fm = Map::new();
            fm.insert("message", Value::from(err.to_string()));
            fm.insert(
                "stats",
                match err.fault_stats() {
                    Some((attempts, faults, lost)) => Value::List(vec![
                        Value::Int(i64::from(attempts)),
                        Value::Int(i64::from(faults)),
                        Value::Float(lost),
                    ]),
                    None => Value::Null,
                },
            );
            if let Some(record) = failure {
                fm.insert("record", record.to_value());
            }
            m.insert("failed", Value::Map(fm))
        }
    }
    Value::Map(m)
}

fn outcome_from_value(v: &Value) -> Result<SuiteOutcome, CheckpointError> {
    if let Some(report) = v.get("ran") {
        return Ok(SuiteOutcome::Ran(Box::new(report_from_value(report)?)));
    }
    if let Some(reason) = v.get("skipped").and_then(Value::as_str) {
        return Ok(SuiteOutcome::Skipped(reason.to_string()));
    }
    if let Some(failed) = v.get("failed") {
        let message = failed
            .get("message")
            .and_then(Value::as_str)
            .ok_or_else(|| CheckpointError::Corrupt("failed cell missing message".to_string()))?
            .to_string();
        let stats = match failed.get("stats") {
            None | Some(Value::Null) => None,
            Some(Value::List(items)) if items.len() == 3 => {
                let attempts = int_as_u32(&items[0], "stats.attempts")?;
                let faults = int_as_u32(&items[1], "stats.faults")?;
                let lost = items[2].as_float().ok_or_else(|| {
                    CheckpointError::Corrupt("stats.time_lost not a float".to_string())
                })?;
                Some((attempts, faults, lost))
            }
            Some(other) => {
                return Err(CheckpointError::Corrupt(format!(
                    "failed cell has malformed stats: {other:?}"
                )))
            }
        };
        return Ok(SuiteOutcome::Failed(HarnessError::Replayed {
            message,
            stats,
        }));
    }
    Err(CheckpointError::Corrupt(
        "outcome is none of ran/skipped/failed".to_string(),
    ))
}

fn report_to_value(report: &CaseReport) -> Value {
    let mut m = Map::new();
    m.insert("record", report.record.to_value());
    m.insert(
        "concrete_rendered",
        Value::from(report.concrete_rendered.as_str()),
    );
    m.insert("dag_hash", Value::from(report.dag_hash.as_str()));
    m.insert("packages_built", Value::Int(report.packages_built as i64));
    m.insert("packages_cached", Value::Int(report.packages_cached as i64));
    m.insert("build_time_s", Value::Float(report.build_time_s));
    m.insert("job_script", Value::from(report.job_script.as_str()));
    m.insert("queue_wait_s", Value::Float(report.queue_wait_s));
    let mut t = Map::new();
    t.insert("avg_power_w", Value::Float(report.telemetry.avg_power_w));
    t.insert("energy_j", Value::Float(report.telemetry.energy_j));
    t.insert(
        "network_bytes",
        Value::Int(report.telemetry.network_bytes as i64),
    );
    t.insert(
        "total_power_w",
        Value::Float(report.telemetry.total_power_w),
    );
    m.insert("telemetry", Value::Map(t));
    m.insert("stdout", Value::from(report.stdout.as_str()));
    m.insert("retries", Value::Int(i64::from(report.retries)));
    m.insert(
        "faults_injected",
        Value::Int(i64::from(report.faults_injected)),
    );
    m.insert("time_lost_s", Value::Float(report.time_lost_s));
    m.insert(
        "nodes_repaired",
        Value::Int(i64::from(report.nodes_repaired)),
    );
    Value::Map(m)
}

fn report_from_value(v: &Value) -> Result<CaseReport, CheckpointError> {
    let str_at = |key: &str| -> Result<String, CheckpointError> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| CheckpointError::Corrupt(format!("report missing string `{key}`")))
    };
    let float_at = |key: &str| -> Result<f64, CheckpointError> {
        v.get(key)
            .and_then(Value::as_float)
            .ok_or_else(|| CheckpointError::Corrupt(format!("report missing float `{key}`")))
    };
    let usize_at = |key: &str| -> Result<usize, CheckpointError> {
        let i = v
            .get(key)
            .and_then(Value::as_int)
            .ok_or_else(|| CheckpointError::Corrupt(format!("report missing int `{key}`")))?;
        usize::try_from(i)
            .map_err(|_| CheckpointError::Corrupt(format!("`{key}` must be non-negative: {i}")))
    };
    let u32_at = |key: &str| -> Result<u32, CheckpointError> {
        let value = v
            .get(key)
            .ok_or_else(|| CheckpointError::Corrupt(format!("report missing int `{key}`")))?;
        int_as_u32(value, key)
    };
    let record = PerflogRecord::from_value(
        v.get("record")
            .ok_or_else(|| CheckpointError::Corrupt("report missing `record`".to_string()))?,
    )
    .map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
    let telemetry_at = |key: &str| -> Result<f64, CheckpointError> {
        v.get("telemetry")
            .and_then(|t| t.get(key))
            .and_then(Value::as_float)
            .ok_or_else(|| CheckpointError::Corrupt(format!("telemetry missing `{key}`")))
    };
    let network_bytes = v
        .get("telemetry")
        .and_then(|t| t.get("network_bytes"))
        .and_then(Value::as_int)
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| CheckpointError::Corrupt("telemetry missing `network_bytes`".to_string()))?;
    Ok(CaseReport {
        record,
        concrete_rendered: str_at("concrete_rendered")?,
        dag_hash: str_at("dag_hash")?,
        packages_built: usize_at("packages_built")?,
        packages_cached: usize_at("packages_cached")?,
        build_time_s: float_at("build_time_s")?,
        job_script: str_at("job_script")?,
        queue_wait_s: float_at("queue_wait_s")?,
        telemetry: simhpc::Telemetry {
            avg_power_w: telemetry_at("avg_power_w")?,
            energy_j: telemetry_at("energy_j")?,
            network_bytes,
            total_power_w: telemetry_at("total_power_w")?,
        },
        stdout: str_at("stdout")?,
        retries: u32_at("retries")?,
        faults_injected: u32_at("faults_injected")?,
        time_lost_s: float_at("time_lost_s")?,
        nodes_repaired: u32_at("nodes_repaired")?,
    })
}

fn int_as_u32(v: &Value, what: &str) -> Result<u32, CheckpointError> {
    v.as_int()
        .and_then(|i| u32::try_from(i).ok())
        .ok_or_else(|| CheckpointError::Corrupt(format!("`{what}` must be a non-negative count")))
}

/// Load the per-system consecutive-failure streaks persisted by the last
/// completed study in `dir`. Missing file = no memory (empty). A torn or
/// unreadable file means the memory is lost, not that the study must die:
/// warn and start fresh — quarantine memory is an optimization, and the
/// atomic rewrite in [`save_streaks`] makes this path unreachable except
/// after external damage.
pub(crate) fn load_streaks(dir: &Path) -> Result<Vec<(String, u32)>, CheckpointError> {
    let path = dir.join(QUARANTINE_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            eprintln!(
                "warning: quarantine memory unreadable ({}: {e}); starting fresh",
                path.display()
            );
            return Ok(Vec::new());
        }
    };
    let doc = match tinycfg::parse(text.trim()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!(
                "warning: quarantine memory corrupt ({}: {e}); starting fresh",
                path.display()
            );
            return Ok(Vec::new());
        }
    };
    let mut streaks = Vec::new();
    if let Some(m) = doc.get_path("streaks").and_then(Value::as_map) {
        for (system, v) in m.iter() {
            match v.as_int().and_then(|i| u32::try_from(i).ok()) {
                Some(n) => streaks.push((system.to_string(), n)),
                None => {
                    eprintln!(
                        "warning: quarantine memory corrupt (bad streak for `{system}`); \
                         starting fresh"
                    );
                    return Ok(Vec::new());
                }
            }
        }
    }
    Ok(streaks)
}

/// Persist the per-system streaks at the end of a completed study
/// (systems with streak 0 are omitted — absence means healthy). Written
/// atomically (temp + fsync + rename) so a crash mid-write can never
/// corrupt cross-study quarantine memory.
pub(crate) fn save_streaks(dir: &Path, streaks: &[(String, u32)]) -> Result<(), CheckpointError> {
    std::fs::create_dir_all(dir)?;
    let mut m = Map::new();
    m.insert("format", Value::from("benchkit-quarantine"));
    m.insert("version", Value::Int(FORMAT_VERSION));
    let mut sm = Map::new();
    for (system, n) in streaks {
        if *n > 0 {
            sm.insert(system.clone(), Value::Int(i64::from(*n)));
        }
    }
    m.insert("streaks", Value::Map(sm));
    let text = format!("{}\n", Value::Map(m).to_json());
    spackle::write_atomic(&dir.join(QUARANTINE_FILE), &text)?;
    Ok(())
}

/// Outcome of [`gc`] on one checkpoint directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GcOutcome {
    /// The journal was removed; `cells` records were collected.
    /// `quarantine.json` is always left in place.
    Collected { cells: usize, forced: bool },
    /// No journal in the directory — nothing to collect.
    NoJournal,
}

/// `benchkit checkpoint gc`: drop the study journal from `dir` once its
/// study has completed, keeping `quarantine.json` (cross-study memory
/// outlives any one journal). A journal whose study never reached its
/// terminal record is refused with [`CheckpointError::Incomplete`] unless
/// `force` — an interrupted study is exactly what checkpoints exist to
/// save.
pub fn gc(dir: &Path, force: bool) -> Result<GcOutcome, CheckpointError> {
    let path = dir.join(JOURNAL_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(GcOutcome::NoJournal),
        Err(e) => return Err(CheckpointError::Io(format!("{}: {e}", path.display()))),
    };
    // How many cells does the bound study have, and how many landed?
    let verdict: Result<(usize, usize), CheckpointError> = (|| {
        let header_end = text
            .find('\n')
            .ok_or_else(|| CheckpointError::Corrupt("journal has no header line".to_string()))?;
        let doc = tinycfg::parse(&text[..header_end])
            .map_err(|e| CheckpointError::Corrupt(format!("bad journal header: {e}")))?;
        let len_of = |key: &str| -> Result<usize, CheckpointError> {
            doc.get_path(key)
                .and_then(Value::as_list)
                .map(<[Value]>::len)
                .ok_or_else(|| CheckpointError::Corrupt(format!("header missing `{key}`")))
        };
        let want = len_of("systems")? * len_of("cases")?;
        let (cells, _) = valid_prefix(&text[header_end + 1..], |line, i| parse_cell(line, i).ok());
        Ok((cells.len(), want))
    })();
    let (cells, forced) = match verdict {
        Ok((have, want)) if have >= want => (have, false),
        Ok((have, want)) => {
            if !force {
                return Err(CheckpointError::Incomplete { have, want });
            }
            (have, true)
        }
        Err(e) => {
            // Structurally damaged journal: refuse by default (the user
            // should look at it), collect under force.
            if !force {
                return Err(e);
            }
            (0, true)
        }
    };
    std::fs::remove_file(&path)?;
    Ok(GcOutcome::Collected { cells, forced })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "benchkit-ckpt-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The study every journal test binds: a 2×2 grid with faults,
    /// quarantine, healing and one remembered streak.
    fn header_with(seed: u64, streaks: &[(String, u32)]) -> String {
        use simhpc::faults::FaultProfile;
        let runner = SuiteRunner::new(&["csd3", "archer2"])
            .with_seed(seed)
            .with_fault_profile(FaultProfile::flaky())
            .with_fault_override("archer2", FaultProfile::brutal())
            .with_quarantine(2)
            .with_heal(true);
        let cases = [
            crate::cases::babelstream(parkern::Model::Omp, 1 << 22),
            crate::cases::hpgmg(),
        ];
        header_line(&runner, &cases, streaks)
    }

    fn header() -> String {
        header_with(7, &[("csd3".to_string(), 3)])
    }

    /// The v2 header bytes for a runner with every bound knob set. A
    /// resume under a mismatching header reports the header it expected,
    /// so this pins exactly what `--checkpoint` writes — and therefore
    /// that journals written by earlier builds still resume.
    #[test]
    fn header_bytes_are_pinned_for_every_bound_knob() {
        let dir = tmpdir("golden");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(JOURNAL_FILE), "{}\n").unwrap();
        save_streaks(&dir, &[("archer2".to_string(), 3)]).unwrap();
        let spec = |raw| engine::EngineSpec::parse(raw, 30.0).unwrap();
        let mut runner = crate::SuiteRunner::new(&["csd3", "archer2"])
            .with_seed(7)
            .with_jobs(4)
            .with_warm_store(true)
            .with_store(&dir.join("store"))
            .with_fault_profile(simhpc::faults::FaultProfile::flaky())
            .with_fault_override("archer2", simhpc::faults::FaultProfile::brutal())
            .with_max_retries(3)
            .with_quarantine(2)
            .with_heal(true)
            .with_engine(Some(spec("./engine --fast")))
            .with_engine_override("hpgmg_fv", spec("./other"))
            .with_resume(&dir);
        runner.fail_fast = true;
        let cases = [
            crate::cases::babelstream(parkern::Model::Omp, 1 << 22),
            crate::cases::hpgmg(),
        ];
        let expected = match runner.try_run(&cases) {
            Err(CheckpointError::ConfigMismatch { expected, .. }) => expected,
            other => panic!("expected ConfigMismatch, got {other:?}"),
        };
        assert_eq!(
            expected,
            concat!(
                r#"{"format":"benchkit-checkpoint","version":2,"#,
                r#""systems":["csd3","archer2"],"cases":["babelstream_omp","hpgmg_fv"],"#,
                r#""seed":7,"warm_store":true,"store":true,"profile":"flaky","#,
                r#""overrides":{"archer2":"brutal"},"max_retries":3,"fail_fast":true,"#,
                r#""quarantine":2,"heal":true,"streaks":{"archer2":3},"#,
                r#""engine":"{\"cmd\":[\"./engine\",\"--fast\"],\"timeout\":30.0,\"grace\":1.0} "#,
                r#"hpgmg_fv={\"cmd\":[\"./other\"],\"timeout\":30.0,\"grace\":1.0}"}"#,
            )
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn outcome_serialization_round_trips() {
        let skipped = SuiteOutcome::Skipped("unsupported on this platform: no gpu".to_string());
        let failed = SuiteOutcome::Failed(HarnessError::AfterFaults {
            attempts: 3,
            faults_injected: 2,
            time_lost_s: 145.5,
            cause: Box::new(HarnessError::NodeFailed("lost a node".to_string())),
        });
        for outcome in [&skipped, &failed] {
            let v = outcome_to_value(outcome, None);
            let line = v.to_json();
            let back =
                outcome_from_value(&tinycfg::parse(&line).expect("journal lines parse")).unwrap();
            // Replay preserves what reports consume: the rendered message
            // and the resilience stats.
            let rendered = |o: &SuiteOutcome| match o {
                SuiteOutcome::Ran(_) => "ran".to_string(),
                SuiteOutcome::Skipped(r) => format!("skip {r}"),
                SuiteOutcome::Failed(e) => format!("fail {e}"),
            };
            assert_eq!(rendered(&back), rendered(outcome));
            assert_eq!(back.retries(), outcome.retries());
            assert_eq!(back.faults_injected(), outcome.faults_injected());
            assert_eq!(back.time_lost_s(), outcome.time_lost_s());
        }
    }

    #[test]
    fn journal_round_trips_and_discards_torn_tail() {
        let dir = tmpdir("torn");
        let b = header();
        let journal = Journal::create(&dir, &b, IoShim::Real).unwrap();
        journal
            .append(
                0,
                "babelstream_omp",
                "csd3",
                &SuiteOutcome::Skipped("no".into()),
                None,
            )
            .unwrap();
        let fail_record = PerflogRecord {
            sequence: 0,
            benchmark: "hpgmg_fv".to_string(),
            system: "csd3".to_string(),
            partition: "cascadelake".to_string(),
            environ: String::new(),
            spec: "hpgmg%gcc +fv".to_string(),
            build_hash: String::new(),
            job_id: None,
            num_tasks: 8,
            num_tasks_per_node: 2,
            num_cpus_per_task: 8,
            foms: Vec::new(),
            extras: vec![
                ("result".to_string(), "fail".to_string()),
                ("error".to_string(), "boom".to_string()),
            ],
        };
        journal
            .append(
                1,
                "hpgmg_fv",
                "csd3",
                &SuiteOutcome::Failed(HarnessError::Replayed {
                    message: "boom".to_string(),
                    stats: Some((3, 2, 99.5)),
                }),
                Some(&fail_record),
            )
            .unwrap();
        drop(journal);
        // Simulate a crash mid-append: a torn, newline-less trailing record.
        let path = dir.join(JOURNAL_FILE);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"cell\":2,\"case\":\"trunc").unwrap();
        drop(f);
        let (journal, cells) = Journal::resume(&dir, &b, IoShim::Real).unwrap();
        assert_eq!(cells.len(), 2, "torn record discarded");
        assert!(cells[0].outcome.skipped());
        match &cells[1].outcome {
            SuiteOutcome::Failed(e) => {
                assert_eq!(e.to_string(), "boom");
                assert_eq!(e.fault_stats(), Some((3, 2, 99.5)));
            }
            other => panic!("expected replayed failure, got {other:?}"),
        }
        assert_eq!(cells[0].failure, None);
        assert_eq!(cells[1].failure.as_ref(), Some(&fail_record));
        // The torn bytes are gone: the next append lands on a clean line.
        journal
            .append(
                2,
                "x",
                "archer2",
                &SuiteOutcome::Skipped("later".into()),
                None,
            )
            .unwrap();
        drop(journal);
        let (_, cells) = Journal::resume(&dir, &b, IoShim::Real).unwrap();
        assert_eq!(cells.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_missing_its_system_ends_the_valid_prefix() {
        let dir = tmpdir("keyless");
        let b = header();
        let cases = ["babelstream_omp", "babelstream_tbb", "hpgmg_fv"];
        let append_from = |journal: &Journal, first: usize| {
            for (i, case) in cases.iter().enumerate().skip(first) {
                let outcome = SuiteOutcome::Skipped(format!("cell {i}"));
                journal.append(i, case, "csd3", &outcome, None).unwrap();
            }
        };
        append_from(&Journal::create(&dir, &b, IoShim::Real).unwrap(), 0);
        let path = dir.join(JOURNAL_FILE);
        let full = std::fs::read_to_string(&path).unwrap();
        let keyless = full.replacen(
            r#""case":"babelstream_tbb","system":"csd3","#,
            r#""case":"babelstream_tbb","#,
            1,
        );
        assert_ne!(keyless, full, "the second record loses its system");
        std::fs::write(&path, &keyless).unwrap();

        let (journal, cells) = Journal::resume(&dir, &b, IoShim::Real).unwrap();
        assert_eq!(cells.len(), 1, "the keyless record ends the prefix");
        let prefix: String = full.split_inclusive('\n').take(2).collect();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            prefix,
            "truncated there"
        );
        // The cells from the keyless one on re-run and re-append.
        append_from(&journal, 1);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), full);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_torn_append_surfaces_error_and_resume_recovers_prefix() {
        // Drive the journal through the fault shim: a torn append must
        // surface as an error to the runner (never a silent half-record),
        // and a later resume must recover exactly the cells whose appends
        // succeeded before the tear. Fault schedules are keyed by seed, so
        // scan seeds until one produces "some commits, then a tear" — the
        // chosen schedule then replays identically forever.
        let b = header();
        let mut exercised = false;
        for seed in 0..200u64 {
            let dir = tmpdir(&format!("iofault-{seed}"));
            let mut spec = spackle::FaultSpec::quiet(seed);
            spec.torn = 0.35;
            spec.only_matching = Some(JOURNAL_FILE.to_string());
            let journal = match Journal::create(&dir, &b, IoShim::faulty(spec)) {
                Ok(j) => j,
                Err(_) => continue, // header write faulted; try the next seed
            };
            let mut committed = 0usize;
            let mut tore = false;
            for i in 0..10 {
                match journal.append(i, "case", "sys", &SuiteOutcome::Skipped("s".into()), None) {
                    Ok(()) => committed += 1,
                    Err(_) => {
                        tore = true;
                        break;
                    }
                }
            }
            drop(journal);
            if !(tore && committed >= 2) {
                let _ = std::fs::remove_dir_all(&dir);
                continue;
            }
            let (_, cells) = Journal::resume(&dir, &b, IoShim::Real).unwrap();
            assert_eq!(
                cells.len(),
                committed,
                "resume must replay exactly the appends that were \
                 acknowledged before the torn write (seed {seed})"
            );
            std::fs::remove_dir_all(&dir).unwrap();
            exercised = true;
            break;
        }
        assert!(exercised, "no seed in 0..200 produced commits-then-tear");
    }

    #[test]
    fn mismatched_binding_is_a_hard_error() {
        let dir = tmpdir("mismatch");
        drop(Journal::create(&dir, &header(), IoShim::Real).unwrap());
        match Journal::resume(
            &dir,
            &header_with(8, &[("csd3".to_string(), 3)]),
            IoShim::Real,
        ) {
            Err(CheckpointError::ConfigMismatch { .. }) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        // Every bound knob participates, including the memory snapshot.
        assert!(matches!(
            Journal::resume(&dir, &header_with(7, &[]), IoShim::Real),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_order_records_are_discarded_from_first_deviation() {
        let dir = tmpdir("order");
        let b = header();
        let journal = Journal::create(&dir, &b, IoShim::Real).unwrap();
        journal
            .append(0, "a", "csd3", &SuiteOutcome::Skipped("s".into()), None)
            .unwrap();
        // A record claiming the wrong cell index (disk corruption): the
        // prefix before it survives, it and later records do not.
        journal
            .append(5, "b", "csd3", &SuiteOutcome::Skipped("s".into()), None)
            .unwrap();
        journal
            .append(2, "c", "csd3", &SuiteOutcome::Skipped("s".into()), None)
            .unwrap();
        drop(journal);
        let (_, cells) = Journal::resume(&dir, &b, IoShim::Real).unwrap();
        assert_eq!(cells.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_memory_round_trips_and_defaults_empty() {
        let dir = tmpdir("streaks");
        assert_eq!(load_streaks(&dir).unwrap(), vec![]);
        save_streaks(
            &dir,
            &[
                ("csd3".to_string(), 0),
                ("archer2".to_string(), 4),
                ("cosma8".to_string(), 1),
            ],
        )
        .unwrap();
        // Zero streaks are dropped; nonzero ones survive.
        assert_eq!(
            load_streaks(&dir).unwrap(),
            vec![("archer2".to_string(), 4), ("cosma8".to_string(), 1)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_quarantine_memory_warns_and_starts_fresh() {
        let dir = tmpdir("torn-streaks");
        std::fs::create_dir_all(&dir).unwrap();
        // A crash mid-write under the old in-place rewrite could leave any
        // of these on disk; none may panic or error — memory starts fresh.
        for torn in [
            "",
            "{\"format\":\"benchkit-quar",
            "not json",
            "{\"streaks\":{\"csd3\":\"x\"}}",
        ] {
            std::fs::write(dir.join(QUARANTINE_FILE), torn).unwrap();
            assert_eq!(load_streaks(&dir).unwrap(), vec![], "torn content {torn:?}");
        }
        // And a fresh save repairs the file for the next study.
        save_streaks(&dir, &[("csd3".to_string(), 2)]).unwrap();
        assert_eq!(load_streaks(&dir).unwrap(), vec![("csd3".to_string(), 2)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_streaks_leaves_no_temp_files() {
        let dir = tmpdir("atomic-streaks");
        save_streaks(&dir, &[("archer2".to_string(), 1)]).unwrap();
        save_streaks(&dir, &[("archer2".to_string(), 2)]).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![QUARANTINE_FILE.to_string()], "{names:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A journal for `header()`'s 2×2 grid with `n` completed cells.
    fn journal_with_cells(dir: &Path, n: usize) {
        let journal = Journal::create(dir, &header(), IoShim::Real).unwrap();
        for i in 0..n {
            journal
                .append(i, "case", "sys", &SuiteOutcome::Skipped("s".into()), None)
                .unwrap();
        }
    }

    #[test]
    fn gc_collects_completed_journal_and_keeps_quarantine() {
        let dir = tmpdir("gc-done");
        journal_with_cells(&dir, 4); // 2 systems × 2 cases = terminal
        save_streaks(&dir, &[("csd3".to_string(), 3)]).unwrap();
        assert_eq!(
            gc(&dir, false).unwrap(),
            GcOutcome::Collected {
                cells: 4,
                forced: false
            }
        );
        assert!(!dir.join(JOURNAL_FILE).exists());
        assert_eq!(
            load_streaks(&dir).unwrap(),
            vec![("csd3".to_string(), 3)],
            "gc must never delete quarantine memory"
        );
        // Idempotent: a second pass finds nothing.
        assert_eq!(gc(&dir, false).unwrap(), GcOutcome::NoJournal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_refuses_incomplete_journal_without_force() {
        let dir = tmpdir("gc-incomplete");
        journal_with_cells(&dir, 2); // interrupted: 2 of 4 cells
        match gc(&dir, false) {
            Err(CheckpointError::Incomplete { have: 2, want: 4 }) => {}
            other => panic!("expected Incomplete, got {other:?}"),
        }
        assert!(dir.join(JOURNAL_FILE).exists(), "refusal must not delete");
        assert_eq!(
            gc(&dir, true).unwrap(),
            GcOutcome::Collected {
                cells: 2,
                forced: true
            }
        );
        assert!(!dir.join(JOURNAL_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_refuses_headerless_journal_without_force() {
        let dir = tmpdir("gc-headerless");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(JOURNAL_FILE), "garbage with no newline").unwrap();
        assert!(matches!(gc(&dir, false), Err(CheckpointError::Corrupt(_))));
        assert!(matches!(
            gc(&dir, true),
            Ok(GcOutcome::Collected { forced: true, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_on_empty_dir_is_a_noop() {
        let dir = tmpdir("gc-empty");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(gc(&dir, false).unwrap(), GcOutcome::NoJournal);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
