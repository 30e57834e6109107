//! The command-line interface — the analogue of the paper's appendix
//! invocations like:
//!
//! ```text
//! reframe -c benchmarks/apps/babelstream -r --system=isambard-macs:cascadelake \
//!         -S spack_spec='babelstream%gcc@9.2.0 +omp'
//! ```
//!
//! Argument parsing and command execution live here (testable); the
//! `benchkit` binary is a thin wrapper. No external CLI dependency: the
//! grammar is small and fixed.
//!
//! Each subcommand declares one flag table: rows of spellings (the first
//! names the flag in messages), an arity (switch, value, or value also
//! accepted inline as `--system=X`) and a setter. `scan` is the only
//! argument loop. It feeds each value to its row's setter in argv order,
//! so a bad value fails at its flag; a missing value is `{flag} needs a
//! value`; any other word is a positional up to the subcommand's limit,
//! else `{sub}: unexpected argument`. `run` and `survey` share one table
//! whose rows may be scoped to one of them; a scoped row used by the
//! other is rejected after the scan, in table order. The argv golden in
//! `tests/cli_golden.txt` pins every accepted command and error message.
//!
//! The process environment is read once, by the binary's `main`, into an
//! [`Env`]; `parse` and `execute` take their environment inputs from that
//! value only, so tests build one directly.

use crate::study::Study;
use harness::checkpoint::CheckpointMode;
use harness::{cases, Harness, RunOptions, SuiteRunner, TestCase};
use servd::{NetFaultSpec, NetShim, NETFAULTS_ENV};
use simhpc::faults::{FaultProfile, BACKOFF_SCALE_ENV};
use spackle::{FaultSpec, IoShim, IOFAULTS_ENV};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// A parsed CLI invocation.
// One `Command` exists per process; `Survey` carrying its full survey
// configuration inline beats boxing for a value never stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `list-systems`
    ListSystems,
    /// `list-benchmarks`
    ListBenchmarks,
    /// `run -c <benchmark> --system <spec> [--seed N] [--repeats N]`
    Run {
        benchmark: String,
        system: String,
        seed: u64,
        repeats: u32,
    },
    /// `spec <spack-spec> --system <spec>` — concretize and print.
    Spec { spec: String, system: String },
    /// `survey --system a --system b -c x -c y [--seed N] [--jobs N]
    /// [--warm-store] [--fault-profile [SYS=]NAME]... [--max-retries N]
    /// [--fail-fast] [--quarantine K] [--heal] [--checkpoint DIR |
    /// --resume DIR] [--interrupt-after N] [--store DIR] [--perflog DIR]
    /// [--engine [CASE=]SPEC]... [--engine-timeout S]`
    Survey {
        benchmarks: Vec<String>,
        /// Every survey knob, parsed and resolved once: the systems, seed,
        /// parallelism, fault profiles, retry policy, checkpoint mode,
        /// store and engines the study runs with.
        suite: SuiteRunner,
        /// Abort the process (exit 3) after this many cells have been
        /// journaled — a deterministic crash for resume testing.
        interrupt_after: Option<usize>,
        /// Write one `<system>-<benchmark>.jsonl` perflog per surveyed
        /// (system, benchmark family) into this directory (`--perflog`),
        /// the input format of `rank` and `cmp`.
        perflog: Option<String>,
    },
    /// `rank <perflog-or-dir>... [--lower-is-better] [--markdown]
    /// [--jobs N]` — geometric-mean-speedup ranking of systems across
    /// every (benchmark, FOM) cell of a study.
    Rank {
        inputs: Vec<String>,
        lower_is_better: bool,
        markdown: bool,
        jobs: usize,
    },
    /// `cmp <study-a> <study-b> [--threshold PCT] [--lower-is-better]
    /// [--markdown] [--jobs N]` — cell-by-cell deltas between two studies.
    Cmp {
        study_a: String,
        study_b: String,
        threshold_pct: f64,
        lower_is_better: bool,
        markdown: bool,
        jobs: usize,
    },
    /// `store gc <dir> [--keep K]` — evict entries not referenced by the
    /// last K studies.
    StoreGc { dir: String, keep: usize },
    /// `store fsck <dir> [--json]` — read-only integrity scan; exits
    /// nonzero when any committed entry fails verification. `--json`
    /// prints the machine-readable report instead of the text rendering.
    StoreFsck { dir: String, json: bool },
    /// `serve <dir> --addr HOST:PORT [--workers N] [--queue N]
    /// [--read-timeout-ms N] [--max-body BYTES]` — the crash-tolerant
    /// results daemon over a store directory.
    Serve {
        dir: String,
        addr: String,
        workers: usize,
        queue: usize,
        read_timeout_ms: u64,
        max_body: usize,
    },
    /// `push <dir-or-file> --to HOST:PORT [--max-retries N]` — upload
    /// perflog JSONL to a daemon, honoring its backpressure.
    Push {
        dir: String,
        to: String,
        max_retries: u32,
    },
    /// `query HOST:PORT </v1/...>` — GET a daemon endpoint and print the
    /// body (curl-free CI plumbing).
    Query { addr: String, path: String },
    /// `checkpoint gc <dir> [--force]` — drop a completed study's journal,
    /// keeping quarantine memory.
    CheckpointGc { dir: String, force: bool },
    /// `bench-digest <log>...` — median-regression digest over criterion
    /// JSON logs, oldest first, plus cross-benchmark speedup floors
    /// (`--min-speedup BASE_GROUP/BASE_ID:TARGET_GROUP/TARGET_ID:RATIO`)
    /// judged on the newest log.
    BenchDigest {
        logs: Vec<String>,
        min_speedups: Vec<String>,
        /// `--rank GROUP` (repeatable): fail the digest when the
        /// speed-ranking of GROUP's benchmark ids flipped between the
        /// second-newest and the newest log.
        rank_groups: Vec<String>,
    },
    /// `help`
    Help,
}

/// CLI error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// The run inputs `benchkit` takes from its environment, one field per
/// variable (DESIGN.md, "Environment inputs"): `io` from
/// `BENCHKIT_IOFAULTS` (the survey's journal and store, the daemon), `net`
/// from `BENCHKIT_NETFAULTS` (every daemon connection), `backoff_scale`
/// from `BENCHKIT_ENGINE_BACKOFF_SCALE` (engine-retry and push sleeps) and
/// `threads` from `BENCHKIT_THREADS` (kernel threads of `run` and of every
/// survey cell). [`Default`] is the empty environment: real I/O and
/// network, unscaled sleeps, machine-sized thread counts.
///
/// [`Env::from_vars`] ignores every other variable. A blank fault spec
/// arms nothing; a malformed one warns on stderr and falls back to real
/// I/O, so a bad spec cannot brick a run. A scale must be a finite number
/// ≥ 0 (else 1) and a thread count a positive integer, surrounding spaces
/// allowed (else unset).
#[derive(Debug, Clone)]
pub struct Env {
    pub io: IoShim,
    pub net: NetShim,
    pub backoff_scale: f64,
    pub threads: Option<usize>,
}

impl Default for Env {
    fn default() -> Env {
        Env::from_vars([])
    }
}

impl Env {
    /// Read the run inputs from `vars` (see [`Env`] for their formats).
    pub fn from_vars(vars: impl IntoIterator<Item = (String, String)>) -> Env {
        let vars: BTreeMap<String, String> = vars.into_iter().collect();
        let var = |name: &str| vars.get(name).map_or("", String::as_str);
        let scale: Option<f64> = var(BACKOFF_SCALE_ENV).parse().ok();
        let threads: Option<usize> = var("BENCHKIT_THREADS").trim().parse().ok();
        Env {
            io: fault_spec(IOFAULTS_ENV, var(IOFAULTS_ENV), FaultSpec::parse)
                .map_or(IoShim::Real, IoShim::faulty),
            net: fault_spec(NETFAULTS_ENV, var(NETFAULTS_ENV), NetFaultSpec::parse)
                .map_or(NetShim::Real, NetShim::faulty),
            backoff_scale: scale.filter(|s| s.is_finite() && *s >= 0.0).unwrap_or(1.0),
            threads: threads.filter(|&n| n > 0),
        }
    }
}

/// The fault spec `text` of variable `var`, or `None` when blank or
/// malformed (warned about, never silently ignored).
fn fault_spec<S>(var: &str, text: &str, parse: fn(&str) -> Result<S, String>) -> Option<S> {
    let spec = parse(text).map_err(|e| eprintln!("warning: ignoring bad {var}: {e}"));
    spec.ok().filter(|_| !text.trim().is_empty())
}

pub const USAGE: &str = "benchkit — automated and reproducible benchmarking

USAGE:
    benchkit list-systems
    benchkit list-benchmarks
    benchkit run -c <benchmark> --system <system[:partition]> [--seed N] [--repeats N]
    benchkit survey -c <benchmark>... --system <system>... [--seed N] [--jobs N] [--warm-store]
                    [--fault-profile [SYS=]NAME]... [--max-retries N] [--fail-fast]
                    [--quarantine K] [--heal] [--checkpoint DIR | --resume DIR]
                    [--interrupt-after N] [--store DIR] [--perflog DIR]
                    [--engine [CASE=]SPEC]... [--engine-timeout S]
        --jobs N runs N (benchmark, system) combinations concurrently
        (0 = one per available core); the report is identical to --jobs 1.
        --warm-store shares one package store per system so its cases
        reuse dependency builds (accounting stays deterministic: the
        first case in case order is attributed each shared build).
        Outcomes stream as they complete, in grid order.
        --fault-profile NAME injects seeded deterministic faults (build
        failures, node failures, timeouts); NAME is one of none, flaky,
        brutal. The same --seed and profile replay the same faults at
        any --jobs count. --fault-profile SYS=NAME overrides the profile
        for one system (repeatable). --max-retries N bounds per-stage
        retries (default 2). --fail-fast skips every cell after the first
        failure; --quarantine K skips a system's remaining cells after
        K consecutive failures. --heal returns nodes drained by failures
        to service after a per-system deterministic repair window.
        --checkpoint DIR journals each completed cell durably so an
        interrupted survey can be continued with --resume DIR; the
        resumed report is byte-identical to an uninterrupted run, and a
        journal from a different configuration is refused. Checkpoint
        directories also remember per-system failure streaks: a system
        quarantined in an earlier study is probed with a single canary
        cell before being readmitted. --interrupt-after N aborts the
        process (exit 3) after N cells, for crash drills.
        --store DIR warms builds from a crash-safe persistent package
        store that survives across studies (entries are checksummed;
        corrupt ones are quarantined to DIR/corrupt/ and rebuilt cold).
        The store is sharded with per-shard lease locks, so several
        writers — even on different machines sharing DIR — can run
        concurrently: a shard leased by a live competing writer only
        skips that shard's persists, never the study, and the report
        stays byte-identical. FOMs are identical cold vs. warm.
        --perflog DIR writes one <system>-<benchmark>.jsonl perflog per
        surveyed (system, benchmark) into DIR — the input of `rank`
        and `cmp`.
        --engine SPEC runs every case's run stage in an external engine
        subprocess speaking the KLV protocol on stdin/stdout (bring
        your own benchmark). SPEC is either a command line
        ('./my-engine --fast') or a tinycfg map
        ('{cmd=[\"./my-engine\"] timeout=30 grace=2'). A crashing,
        hanging, or garbage-emitting engine is contained per attempt:
        the failure feeds --max-retries/--fail-fast/--quarantine
        exactly like an injected fault, with exit_code/signal/
        timed_out recorded in the perflog; hung engines are killed
        with SIGTERM, then SIGKILL after the grace window. --engine
        CASE=SPEC overrides the engine for one case (repeatable).
        --engine-timeout S sets the default deadline for specs that
        carry none (rejected at parse time unless finite and > 0).
        Checkpoints bind the engine configuration: a journal written
        in one engine mode refuses to resume in another.
        Exits nonzero if any cell fails.
    benchkit rank <perflog-or-dir>... [--lower-is-better] [--markdown] [--jobs N]
        Rank systems by the geometric mean of their per-cell speedup
        against the best system, one cell per (benchmark, FOM) pair.
        Inputs are perflog JSONL files or directories of them (e.g. a
        `survey --perflog` directory). Missing, non-finite, and
        non-positive cells are excluded from the mean and reported —
        never silently dropped. Output is byte-identical at any --jobs.
    benchkit cmp <study-a> <study-b> [--threshold PCT] [--lower-is-better]
                 [--markdown] [--jobs N]
        Cell-by-cell comparison of two studies (perflog files or
        directories): each (benchmark, FOM, system) cell is classified
        improved / regressed / unchanged (within --threshold percent,
        default 2), missing on either side, or incomparable
        (non-finite or non-positive baseline). Informational: always
        exits 0 when both studies parse.
    benchkit store gc <dir> [--keep K]
        Evict store entries not referenced by the last K studies
        (default 5), merging every writer's reference log. Shards
        leased by a live writer are skipped with a notice; entries
        referenced by any live-leased writer are never evicted. Never
        touches quarantined entries in DIR/corrupt/.
    benchkit store fsck <dir> [--json]
        Read-only integrity scan: verifies every committed entry
        (checksum, canonical form, shard placement) and reports
        orphaned temp files, live and expired leases, and reference
        segments. Exits nonzero when any committed entry is invalid;
        crash residue (temps, stale leases) is reported but clean.
        --json prints one machine-readable JSON object instead of the
        text rendering (same exit semantics).
    benchkit serve <dir> --addr HOST:PORT [--workers N] [--queue N]
                   [--read-timeout-ms N] [--max-body BYTES]
        Results daemon over a store directory: POST /v1/ingest accepts
        perflog JSONL; GET /v1/fom, /v1/verdict, /v1/history and
        /v1/health answer queries (verdicts are byte-identical to the
        offline `rank` over the same records). A record is fsync'd
        into an append-only WAL before its 200 is written, so every
        acknowledged record survives SIGKILL; restart replays the WAL,
        truncating torn tails. A bounded worker pool (--workers) behind
        a bounded queue (--queue) answers saturation with 503 +
        Retry-After — never an unbounded backlog. Per-connection
        deadlines (--read-timeout-ms) and body bounds (--max-body)
        degrade only the offending connection. SIGTERM drains
        gracefully: stop accepting, finish in-flight, release leases,
        exit 0. `--addr host:0` picks a free port (printed on the
        readiness line). BENCHKIT_NETFAULTS injects deterministic
        network faults (torn reads, short writes, resets, stalls) for
        torture drills, keyed like BENCHKIT_IOFAULTS.
    benchkit push <dir-or-file> --to HOST:PORT [--max-retries N]
        Upload perflogs (*.jsonl, one batch per file in name order) to
        a daemon. 503s and transport failures retry with the standard
        30·2ⁿ ≤ 480 s backoff, honoring the daemon's Retry-After when
        present (default 5 retries). Re-pushing after a lost ack is
        safe: the daemon deduplicates on record content.
    benchkit query HOST:PORT </v1/...>
        GET a daemon endpoint and print the body; exits nonzero on a
        non-2xx answer.
    benchkit checkpoint gc <dir> [--force]
        Drop the study journal once its study completed, keeping
        quarantine memory. An incomplete journal is refused unless
        --force.
    benchkit bench-digest <log>... [--min-speedup BG/BI:TG/TI:R]... [--rank GROUP]...
        Median-regression digest over criterion JSON logs (oldest
        first): one sparkline + verdict per benchmark id.
        --min-speedup asserts, on the newest log, that benchmark
        TG/TI runs at least R times the speed of BG/BI (speed =
        declared bytes/elements per iteration over the fastest
        time). Exits nonzero when a floor is missed.
        --rank GROUP asserts the speed-ranking of GROUP's benchmark
        ids is the same in the newest log as in the one before it;
        a rank flip exits nonzero.
    benchkit spec <spack-spec> --system <system>
    benchkit help

EXAMPLES:
    benchkit run -c babelstream_omp --system isambard-macs:cascadelake
    benchkit survey -c babelstream_omp -c hpgmg --system archer2 --system csd3
    benchkit survey -c hpgmg --system archer2 --system csd3 --perflog study-a/
    benchkit rank study-a/
    benchkit cmp study-a/ study-b/ --threshold 5
    benchkit spec 'hpgmg%gcc' --system archer2
";

/// Parse an argument vector (without the program name); a survey takes
/// its I/O shim, backoff scale and thread count from `env`.
pub fn parse(args: &[String], env: &Env) -> Result<Command, CliError> {
    parse_with(args, env, &mut scan)
}

/// What each subcommand runs its flag table through: [`scan`], or a
/// test's recorder that reads the table instead.
type Scanner<'s> =
    dyn FnMut(&str, &[String], usize, &mut [Flag<'_>]) -> Result<Vec<String>, CliError> + 's;

fn parse_with(args: &[String], env: &Env, scan: &mut Scanner<'_>) -> Result<Command, CliError> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list-systems" => Ok(Command::ListSystems),
        "list-benchmarks" => Ok(Command::ListBenchmarks),
        "run" | "survey" => parse_study(args, env, scan),
        "rank" => {
            let (mut lower_is_better, mut markdown, mut jobs) = (false, false, 1usize);
            let inputs = scan(
                "rank",
                rest,
                usize::MAX,
                &mut [
                    switch("--lower-is-better", &mut lower_is_better),
                    switch("--markdown", &mut markdown),
                    number("--jobs|-j", &mut jobs),
                ],
            )?;
            if inputs.is_empty() {
                return Err(CliError(
                    "rank: at least one perflog file or directory".into(),
                ));
            }
            Ok(Command::Rank {
                inputs,
                lower_is_better,
                markdown,
                jobs,
            })
        }
        "cmp" => {
            let (mut threshold_pct, mut jobs) = (2.0f64, 1usize);
            let (mut lower_is_better, mut markdown) = (false, false);
            let studies = scan(
                "cmp",
                rest,
                usize::MAX,
                &mut [
                    bounded(
                        "--threshold",
                        &mut threshold_pct,
                        |t| t.is_finite() && *t >= 0.0,
                        "want a finite percentage ≥ 0",
                    ),
                    switch("--lower-is-better", &mut lower_is_better),
                    switch("--markdown", &mut markdown),
                    number("--jobs|-j", &mut jobs),
                ],
            )?;
            let [study_a, study_b]: [String; 2] = studies.try_into().map_err(|_| {
                CliError("cmp: exactly two studies (perflog files or directories)".into())
            })?;
            Ok(Command::Cmp {
                study_a,
                study_b,
                threshold_pct,
                lower_is_better,
                markdown,
                jobs,
            })
        }
        "store" => match rest.first().map(String::as_str) {
            Some("gc") => {
                let mut keep = 5usize;
                let dir = scan(
                    "store gc",
                    &rest[1..],
                    1,
                    &mut [number("--keep", &mut keep)],
                )?
                .pop();
                Ok(Command::StoreGc {
                    dir: need(dir, "store gc: missing <dir>")?,
                    keep,
                })
            }
            Some("fsck") => {
                let mut json = false;
                let dir = scan(
                    "store fsck",
                    &rest[1..],
                    1,
                    &mut [switch("--json", &mut json)],
                )?
                .pop();
                Ok(Command::StoreFsck {
                    dir: need(dir, "store fsck: missing <dir>")?,
                    json,
                })
            }
            _ => Err(CliError(
                "store: expected a subcommand: `store gc <dir> [--keep K]` \
                 or `store fsck <dir> [--json]`"
                    .into(),
            )),
        },
        "serve" => {
            let (mut addr, mut workers, mut queue) = (None, 4usize, 16usize);
            let (mut read_timeout_ms, mut max_body) = (5_000u64, 4 * 1024 * 1024usize);
            let dir = scan(
                "serve",
                rest,
                1,
                &mut [
                    text("--addr", &mut addr),
                    bounded(
                        "--workers",
                        &mut workers,
                        |w| *w >= 1,
                        "want an integer ≥ 1",
                    ),
                    number("--queue", &mut queue),
                    bounded(
                        "--read-timeout-ms",
                        &mut read_timeout_ms,
                        |t| *t >= 1,
                        "want ≥ 1",
                    ),
                    bounded("--max-body", &mut max_body, |b| *b >= 1, "want bytes ≥ 1"),
                ],
            )?
            .pop();
            Ok(Command::Serve {
                dir: need(dir, "serve: missing <dir>")?,
                addr: need(addr, "serve: missing `--addr HOST:PORT`")?,
                workers,
                queue,
                read_timeout_ms,
                max_body,
            })
        }
        "push" => {
            let (mut to, mut max_retries) = (None, 5u32);
            let dir = scan(
                "push",
                rest,
                1,
                &mut [
                    text("--to", &mut to),
                    number("--max-retries", &mut max_retries),
                ],
            )?
            .pop();
            Ok(Command::Push {
                dir: need(dir, "push: missing <dir-or-file>")?,
                to: need(to, "push: missing `--to HOST:PORT`")?,
                max_retries,
            })
        }
        "query" => {
            // `query` declares no flags, so it does not scan: only a `--`
            // word is rejected, and any other word is an operand.
            if let Some(arg) = rest.iter().find(|arg| arg.starts_with("--")) {
                return Err(CliError(format!("query: unexpected argument `{arg}`")));
            }
            let [addr, path]: [String; 2] = rest
                .to_vec()
                .try_into()
                .map_err(|_| CliError("query: expected HOST:PORT and an endpoint path".into()))?;
            if !path.starts_with('/') {
                return Err(CliError(format!(
                    "query: endpoint path `{path}` must start with `/` (e.g. /v1/health)"
                )));
            }
            Ok(Command::Query { addr, path })
        }
        "checkpoint" => match rest.first().map(String::as_str) {
            Some("gc") => {
                let mut force = false;
                let dir = scan(
                    "checkpoint gc",
                    &rest[1..],
                    1,
                    &mut [switch("--force", &mut force)],
                )?
                .pop();
                Ok(Command::CheckpointGc {
                    dir: need(dir, "checkpoint gc: missing <dir>")?,
                    force,
                })
            }
            _ => Err(CliError(
                "checkpoint: expected a subcommand: `checkpoint gc <dir> [--force]`".into(),
            )),
        },
        "bench-digest" => {
            let (mut min_speedups, mut rank_groups) = (Vec::new(), Vec::new());
            let logs = scan(
                "bench-digest",
                rest,
                usize::MAX,
                &mut [
                    list("--min-speedup", &mut min_speedups),
                    list("--rank", &mut rank_groups),
                ],
            )?;
            if logs.is_empty() {
                return Err(CliError("bench-digest: at least one <log> file".into()));
            }
            if !rank_groups.is_empty() && logs.len() < 2 {
                return Err(CliError(
                    "bench-digest: `--rank` needs at least two logs to compare".into(),
                ));
            }
            Ok(Command::BenchDigest {
                logs,
                min_speedups,
                rank_groups,
            })
        }
        "spec" => {
            let mut system = None;
            let spec = scan("spec", rest, 1, &mut [text("--system", &mut system)])?.pop();
            Ok(Command::Spec {
                spec: need(spec, "spec: missing <spack-spec>")?,
                system: need(system, "spec: missing `--system`")?,
            })
        }
        other => Err(CliError(format!(
            "unknown command `{other}` (try `benchkit help`)"
        ))),
    }
}

/// `run` and `survey`: one shared table whose survey-only and run-only
/// rows are rejected for the other subcommand after the scan, in table
/// order.
fn parse_study(args: &[String], env: &Env, scan: &mut Scanner<'_>) -> Result<Command, CliError> {
    let (sub, rest) = (args[0].as_str(), &args[1..]);
    let (mut cases, mut systems) = (Vec::new(), Vec::new());
    let (mut seed, mut repeats, mut jobs) = (42u64, 1u32, 1usize);
    let (mut warm_store, mut fail_fast, mut heal) = (false, false, false);
    let (mut fault_profiles, mut max_retries, mut quarantine) = (Vec::new(), 2u32, 0u32);
    let (mut checkpoint, mut resume, mut interrupt_after) = (None, None, None);
    let (mut store, mut perflog) = (None, None);
    let (mut engines, mut engine_timeout) = (Vec::new(), None);
    let mut table = [
        list("-c|--case", &mut cases),
        list("--system", &mut systems).inline(),
        number("--seed", &mut seed),
        number("--repeats", &mut repeats).only("run"),
        number("--jobs|-j", &mut jobs).only("survey"),
        switch("--warm-store", &mut warm_store).only("survey"),
        value("--fault-profile", |v| {
            // Unknown names fail at the flag, before any survey-level
            // check; `SYS=NAME` overrides one system.
            fault_profile_named(v.split_once('=').map_or(v, |(_, n)| n))?;
            fault_profiles.push(v.to_string());
            Ok(())
        })
        .only("survey"),
        number("--max-retries", &mut max_retries).only("survey"),
        switch("--fail-fast", &mut fail_fast).only("survey"),
        number("--quarantine", &mut quarantine).only("survey"),
        switch("--heal", &mut heal).only("survey"),
        text("--checkpoint", &mut checkpoint).only("survey"),
        text("--resume", &mut resume).only("survey"),
        value("--interrupt-after", |v| {
            let budget = v.parse().map_err(|_| bad("--interrupt-after", v, ""))?;
            interrupt_after = Some(budget);
            Ok(())
        })
        .only("survey"),
        text("--store", &mut store).only("survey"),
        text("--perflog", &mut perflog).only("survey"),
        list("--engine", &mut engines).only("survey"),
        value("--engine-timeout", |v| {
            let timeout: f64 = v.parse().map_err(|_| bad("--engine-timeout", v, ""))?;
            // Zero, negative and non-finite deadlines are rejected here,
            // not at the first engine launch hours into a sweep.
            engine::validate_timeout(timeout)
                .map_err(|e| CliError(format!("bad engine-timeout `{v}`: {e}")))?;
            engine_timeout = Some(timeout);
            Ok(())
        })
        .only("survey"),
    ];
    scan("", rest, 0, &mut table)?;
    let misplaced = table.iter().find_map(|f| {
        f.only
            .filter(|only| f.seen && *only != sub)
            .map(|only| (f.name(), only))
    });
    if let Some((flag, only)) = misplaced {
        return Err(CliError(format!(
            "{sub}: `{flag}` only applies to `{only}`"
        )));
    }
    drop(table);
    if sub == "run" {
        return Ok(Command::Run {
            benchmark: need(cases.first().cloned(), "run: missing `-c <benchmark>`")?,
            system: need(systems.first().cloned(), "run: missing `--system`")?,
            seed,
            repeats,
        });
    }
    if cases.is_empty() {
        return Err(CliError("survey: at least one `-c <benchmark>`".into()));
    }
    if systems.is_empty() {
        return Err(CliError("survey: at least one `--system`".into()));
    }
    if checkpoint.is_some() && resume.is_some() {
        return Err(CliError(
            "survey: `--checkpoint` and `--resume` are mutually exclusive \
             (--resume continues an existing checkpoint directory)"
                .into(),
        ));
    }
    let (fault_profile, fault_overrides) =
        FAULT_PROFILE.split(&fault_profiles, &systems, fault_profile_named)?;
    let default_timeout = engine_timeout.unwrap_or(engine::DEFAULT_TIMEOUT_S);
    let (engine, engine_overrides) = ENGINE.split(&engines, &cases, |raw| {
        engine::EngineSpec::parse(raw, default_timeout)
            .map_err(|e| CliError(format!("survey: bad `--engine` spec `{raw}`: {e}")))
    })?;
    if engine_timeout.is_some() && engines.is_empty() {
        return Err(CliError(
            "survey: `--engine-timeout` requires `--engine`".into(),
        ));
    }
    let checkpoint = match (checkpoint, resume) {
        (Some(dir), _) => Some(CheckpointMode::Fresh(dir.into())),
        (_, Some(dir)) => Some(CheckpointMode::Resume(dir.into())),
        (None, None) => None,
    };
    Ok(Command::Survey {
        benchmarks: cases,
        suite: SuiteRunner {
            systems,
            seed,
            jobs,
            warm_store,
            fault_profile: fault_profile.unwrap_or_default(),
            max_retries,
            fail_fast,
            quarantine,
            fault_overrides,
            heal,
            checkpoint,
            store: store.map(PathBuf::from),
            engine,
            engine_overrides,
            io: env.io.clone(),
            backoff_scale: env.backoff_scale,
            threads: env.threads,
        },
        interrupt_after,
        perflog,
    })
}

/// Resolve a `--fault-profile` name (`off` is an alias of `none`).
fn fault_profile_named(name: &str) -> Result<FaultProfile, CliError> {
    FaultProfile::from_name(name).ok_or_else(|| {
        CliError(format!(
            "unknown fault profile `{name}` (known: {})",
            FaultProfile::known_names().join(", ")
        ))
    })
}

/// A repeatable survey flag taking one bare base value plus at most one
/// `KEY=VALUE` override per surveyed key (`--fault-profile`, `--engine`).
struct OverrideFlag {
    flag: &'static str,
    /// What a key names (`system`/`case`), the flag listing the surveyed
    /// keys, and the override form shown when the base is repeated.
    noun: &'static str,
    list_flag: &'static str,
    form: &'static str,
    /// Whether the text before a value's first `=` is shaped like a key;
    /// otherwise the whole value is a base value.
    key_shaped: fn(&str) -> bool,
}

/// `--fault-profile [SYS=]NAME`: any `=` makes an override.
const FAULT_PROFILE: OverrideFlag = OverrideFlag {
    flag: "--fault-profile",
    noun: "system",
    list_flag: "--system",
    form: "SYS=NAME for per-system overrides",
    key_shaped: |_| true,
};

/// `--engine [CASE=]SPEC`: an override only when the text before the
/// first `=` is shaped like a benchmark name, so engine commands holding
/// `=` (e.g. `./engine --mode=fast`) still parse as base specs.
const ENGINE: OverrideFlag = OverrideFlag {
    flag: "--engine",
    noun: "case",
    list_flag: "-c",
    form: "CASE=SPEC for per-case overrides",
    key_shaped: |key| {
        !key.is_empty()
            && key
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    },
};

/// A split [`OverrideFlag`]: the base value, then `(key, value)` overrides.
type Split<T> = (Option<T>, Vec<(String, T)>);

impl OverrideFlag {
    /// Split `values` into the base value (bare, at most once) and
    /// per-key overrides (at most once per key, each key in `keys`),
    /// parsing every value with `parse` in argument order.
    fn split<T>(
        &self,
        values: &[String],
        keys: &[String],
        parse: impl Fn(&str) -> Result<T, CliError>,
    ) -> Result<Split<T>, CliError> {
        let OverrideFlag {
            flag,
            noun,
            list_flag,
            form,
            key_shaped,
        } = self;
        let mut base = None;
        let mut overrides: Vec<(String, T)> = Vec::new();
        for value in values {
            match value.split_once('=').filter(|(key, _)| key_shaped(key)) {
                None => {
                    if base.is_some() {
                        return Err(CliError(format!(
                            "survey: duplicate base `{flag} {value}` (use {form})"
                        )));
                    }
                    base = Some(parse(value)?);
                }
                Some((key, raw)) => {
                    if !keys.iter().any(|k| k == key) {
                        return Err(CliError(format!(
                            "survey: `{flag} {value}` names {noun} `{key}` \
                             which is not in the surveyed `{list_flag}` list"
                        )));
                    }
                    if overrides.iter().any(|(k, _)| k == key) {
                        return Err(CliError(format!(
                            "survey: duplicate `{flag}` override for `{key}`"
                        )));
                    }
                    overrides.push((key.to_string(), parse(raw)?));
                }
            }
        }
        Ok((base, overrides))
    }
}

/// How a flag row takes its value.
#[derive(Clone, Copy, PartialEq)]
enum Arity {
    /// No value; the setter is fed `""`.
    Switch,
    /// The next argument, whatever it looks like.
    Value,
    /// The next argument, or inline as `FLAG=VALUE` (`--system=X`).
    Inline,
}

type Setter<'a> = Box<dyn FnMut(&str) -> Result<(), CliError> + 'a>;

/// One row of a subcommand's flag table.
struct Flag<'a> {
    /// `|`-separated spellings; the first names the flag in messages.
    names: &'static str,
    arity: Arity,
    /// `Some(sub)`: only `sub` of the `run`/`survey` pair takes the flag.
    only: Option<&'static str>,
    /// Fed each of the flag's values in argv order, so a bad value fails
    /// at its flag.
    set: Setter<'a>,
    seen: bool,
}

impl Flag<'_> {
    fn name(&self) -> &'static str {
        canonical(self.names)
    }

    fn only(self, sub: &'static str) -> Self {
        Flag {
            only: Some(sub),
            ..self
        }
    }

    fn inline(self) -> Self {
        Flag {
            arity: Arity::Inline,
            ..self
        }
    }
}

/// A flag taking a value, handed to `set`.
fn value<'a>(names: &'static str, set: impl FnMut(&str) -> Result<(), CliError> + 'a) -> Flag<'a> {
    Flag {
        names,
        arity: Arity::Value,
        only: None,
        set: Box::new(set),
        seen: false,
    }
}

fn switch<'a>(names: &'static str, on: &'a mut bool) -> Flag<'a> {
    Flag {
        arity: Arity::Switch,
        ..value(names, move |_| {
            *on = true;
            Ok(())
        })
    }
}

/// A text value; the last one wins.
fn text<'a>(names: &'static str, slot: &'a mut Option<String>) -> Flag<'a> {
    value(names, move |v| {
        *slot = Some(v.to_string());
        Ok(())
    })
}

/// A repeatable text value, collected in argv order.
fn list<'a>(names: &'static str, slot: &'a mut Vec<String>) -> Flag<'a> {
    value(names, move |v| {
        slot.push(v.to_string());
        Ok(())
    })
}

/// A parsed value; the last one wins.
fn number<'a, T: FromStr + 'a>(names: &'static str, slot: &'a mut T) -> Flag<'a> {
    bounded(names, slot, |_| true, "")
}

/// A parsed value that must also pass `ok`; `want` says what passes.
fn bounded<'a, T: FromStr + 'a>(
    names: &'static str,
    slot: &'a mut T,
    ok: fn(&T) -> bool,
    want: &'static str,
) -> Flag<'a> {
    value(names, move |v| {
        *slot = v
            .parse()
            .ok()
            .filter(ok)
            .ok_or_else(|| bad(names, v, want))?;
        Ok(())
    })
}

/// The spelling that names a flag in messages: the first of `names`.
fn canonical(names: &'static str) -> &'static str {
    names.split_once('|').map_or(names, |(name, _)| name)
}

/// `bad <flag without dashes> `<value>``, then ` (<want>)` if given.
fn bad(names: &'static str, value: &str, want: &str) -> CliError {
    let flag = canonical(names).trim_start_matches('-');
    CliError(if want.is_empty() {
        format!("bad {flag} `{value}`")
    } else {
        format!("bad {flag} `{value}` ({want})")
    })
}

/// A required argument, or the error naming what is missing.
fn need(arg: Option<String>, missing: &str) -> Result<String, CliError> {
    arg.ok_or_else(|| CliError(missing.to_string()))
}

/// The one argument loop. Each word of `args` is a flag of `table` (by
/// any spelling, or inline for an [`Arity::Inline`] row), else a
/// positional if it does not start with `-` and fewer than
/// `max_positionals` came before it, else `{ctx}: unexpected argument`
/// (no prefix when `ctx` is empty). Values are fed to their row's setter
/// in argv order; returns the positionals.
fn scan(
    ctx: &str,
    args: &[String],
    max_positionals: usize,
    table: &mut [Flag<'_>],
) -> Result<Vec<String>, CliError> {
    let mut positionals = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let spelled = table
            .iter()
            .position(|f| f.names.split('|').any(|name| name == arg));
        let (row, value) = if let Some(row) = spelled {
            let value = match table[row].arity {
                Arity::Switch => "",
                Arity::Value | Arity::Inline => args
                    .next()
                    .ok_or_else(|| CliError(format!("{} needs a value", table[row].name())))?,
            };
            (row, value)
        } else if let Some(inline) = table.iter().enumerate().find_map(|(row, f)| {
            let value = arg.strip_prefix(f.name())?.strip_prefix('=')?;
            (f.arity == Arity::Inline).then_some((row, value))
        }) {
            inline
        } else if !arg.starts_with('-') && positionals.len() < max_positionals {
            positionals.push(arg.clone());
            continue;
        } else {
            let sep = if ctx.is_empty() { "" } else { ": " };
            return Err(CliError(format!("{ctx}{sep}unexpected argument `{arg}`")));
        };
        table[row].seen = true;
        (table[row].set)(value)?;
    }
    Ok(positionals)
}

/// All named benchmarks the CLI can run.
pub fn benchmark_names() -> Vec<String> {
    let mut names: Vec<String> = parkern::Model::all()
        .iter()
        .map(|m| format!("babelstream_{}", m.name()))
        .collect();
    names.extend(
        benchapps::hpcg::HpcgVariant::all()
            .iter()
            .map(|v| format!("hpcg_{}", v.spec_name())),
    );
    names.push("hpgmg".to_string());
    names.push("stream".to_string());
    names
}

/// Build the TestCase for a CLI benchmark name.
pub fn case_by_name(name: &str) -> Result<TestCase, CliError> {
    if let Some(model_name) = name.strip_prefix("babelstream_") {
        let model = parkern::Model::from_name(model_name)
            .ok_or_else(|| CliError(format!("unknown programming model `{model_name}`")))?;
        return Ok(cases::babelstream(model, 1 << 25));
    }
    if let Some(variant_name) = name.strip_prefix("hpcg_") {
        let variant = benchapps::hpcg::HpcgVariant::from_spec_name(variant_name)
            .ok_or_else(|| CliError(format!("unknown HPCG variant `{variant_name}`")))?;
        return Ok(cases::hpcg(variant, 40));
    }
    if name == "hpgmg" {
        return Ok(cases::hpgmg());
    }
    if name == "stream" {
        return Ok(cases::stream(1 << 25));
    }
    Err(CliError(format!(
        "unknown benchmark `{name}` — try `benchkit list-benchmarks`"
    )))
}

/// Read perflog JSONL inputs — files, or directories whose `*.jsonl`
/// entries are read in name order — into one assimilated FOM frame.
fn load_fom_frame(inputs: &[String]) -> Result<dframe::DataFrame, CliError> {
    let mut texts = Vec::new();
    for input in inputs {
        let files = perflogs::input_files(std::path::Path::new(input))
            .map_err(|e| CliError(format!("cannot read directory `{input}`: {e}")))?;
        if files.is_empty() {
            return Err(CliError(format!(
                "`{input}`: no .jsonl perflogs in directory"
            )));
        }
        for f in files {
            texts.push(
                std::fs::read_to_string(&f)
                    .map_err(|e| CliError(format!("cannot read `{}`: {e}", f.display())))?,
            );
        }
    }
    postproc::assimilate(&texts).map_err(|e| CliError(format!("bad perflog: {e}")))
}

fn rank_direction(lower_is_better: bool) -> postproc::Direction {
    if lower_is_better {
        postproc::Direction::LowerIsBetter
    } else {
        postproc::Direction::HigherIsBetter
    }
}

/// Execute a parsed command, writing human-readable output; `run`, `serve`
/// and `push` take their environment inputs from `env`. The writer is
/// `Send` because `survey` streams outcome lines from worker threads as
/// grid cells complete (the ordered flush).
pub fn execute(
    cmd: Command,
    env: &Env,
    out: &mut (dyn std::io::Write + Send),
) -> Result<(), Box<dyn std::error::Error>> {
    match cmd {
        Command::Help => writeln!(out, "{USAGE}")?,
        Command::ListSystems => {
            writeln!(out, "Available systems (from the simhpc catalog):")?;
            for sys in simhpc::catalog::all_systems() {
                for part in sys.partitions() {
                    let p = part.processor();
                    writeln!(
                        out,
                        "  {:<28} {} ({} cores, {:.0} GB/s peak)",
                        format!("{}:{}", sys.name(), part.name()),
                        p.model(),
                        p.total_cores(),
                        p.peak_mem_bw_gbs(),
                    )?;
                }
            }
        }
        Command::ListBenchmarks => {
            writeln!(out, "Available benchmarks:")?;
            for name in benchmark_names() {
                writeln!(out, "  {name}")?;
            }
        }
        Command::Run {
            benchmark,
            system,
            seed,
            repeats,
        } => {
            let case = case_by_name(&benchmark)?;
            parkern::set_worker_cap(env.threads.unwrap_or(0));
            let mut harness = Harness::new(RunOptions::on_system(&system).with_seed(seed));
            for rep in 0..repeats.max(1) {
                let report = harness.run_case(&case)?;
                writeln!(
                    out,
                    "[{}/{repeats}] {} on {} (hash {}, built {}, cached {})",
                    rep + 1,
                    benchmark,
                    system,
                    report.dag_hash,
                    report.packages_built,
                    report.packages_cached,
                )?;
                for fom in &report.record.foms {
                    writeln!(out, "    {:<8} {:>16.3} {}", fom.name, fom.value, fom.unit)?;
                }
                writeln!(
                    out,
                    "    energy {:.0} J, avg power {:.0} W, queue wait {:.3} s",
                    report.telemetry.energy_j, report.telemetry.avg_power_w, report.queue_wait_s,
                )?;
            }
            // Emit the perflog like the real framework.
            let (sys_name, _) = system.split_once(':').unwrap_or((system.as_str(), ""));
            if let Some(log) = harness.perflog(sys_name, case.app.name()) {
                writeln!(out, "\nperflog ({} records):", log.len())?;
                write!(out, "{}", log.to_jsonl())?;
            }
        }
        Command::Survey {
            benchmarks,
            suite,
            interrupt_after,
            perflog,
        } => {
            let cases = benchmarks
                .iter()
                .map(|b| case_by_name(b))
                .collect::<Result<Vec<_>, _>>()?;
            let study = Study::new("cli-survey", suite).with_cases(cases);
            // Stream one line per grid cell as soon as it (and every
            // earlier cell) finishes; the flush order is canonical, so
            // this output is byte-identical for any --jobs count.
            let flushed = std::sync::atomic::AtomicUsize::new(0);
            let results = {
                let shared = std::sync::Mutex::new(&mut *out);
                study.try_run_with_progress(&|p| {
                    let status = match p.outcome {
                        harness::SuiteOutcome::Ran(r) => {
                            let mut s = format!(
                                "ok ({} built, {} cached, build {:.1}s",
                                r.packages_built, r.packages_cached, r.build_time_s
                            );
                            if r.retries > 0 {
                                s.push_str(&format!(", {} retries", r.retries));
                            }
                            s.push(')');
                            s
                        }
                        harness::SuiteOutcome::Skipped(reason) => format!("skip: {reason}"),
                        harness::SuiteOutcome::Failed(err) => format!("FAIL: {err}"),
                    };
                    let mut o = shared.lock().expect("survey writer poisoned");
                    writeln!(
                        o,
                        "[{}/{}] {} on {}: {status}",
                        p.index + 1,
                        p.total,
                        p.case,
                        p.system
                    )
                    .ok();
                    // The crash drill: die hard after the cell budget. The
                    // journal entry for this cell was already fsync'd, so a
                    // --resume picks up exactly here.
                    let n = flushed.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                    if interrupt_after.is_some_and(|budget| n >= budget) {
                        o.flush().ok();
                        std::process::exit(3);
                    }
                })?
            };
            writeln!(
                out,
                "ran {}  skipped {}  failed {}",
                results.report.n_ran(),
                results.report.n_skipped(),
                results.report.n_failed()
            )?;
            let suite = &study.suite;
            if let Some(spec) = &suite.engine {
                writeln!(out, "engine: {}", spec.render())?;
            }
            for (case, spec) in &suite.engine_overrides {
                writeln!(out, "engine override: {case}={}", spec.render())?;
            }
            let any_faults = !suite.fault_profile.is_none()
                || suite.fault_overrides.iter().any(|(_, p)| !p.is_none());
            if any_faults {
                let mut line = format!(
                    "fault profile `{}`: {} faults injected, {} retries, {:.1}s simulated time lost, {} quarantined",
                    suite.fault_profile.name,
                    results.report.total_faults_injected(),
                    results.report.total_retries(),
                    results.report.total_time_lost_s(),
                    results.report.n_quarantined()
                );
                if suite.heal {
                    line.push_str(&format!(
                        ", {} nodes repaired",
                        results.report.total_nodes_repaired()
                    ));
                }
                writeln!(out, "{line}")?;
            }
            if !suite.fault_overrides.is_empty() {
                let rendered: Vec<String> = suite
                    .fault_overrides
                    .iter()
                    .map(|(s, p)| format!("{s}={}", p.name))
                    .collect();
                writeln!(out, "fault overrides: {}", rendered.join(", "))?;
            }
            for (system, readmitted) in &results.report.canaries {
                writeln!(
                    out,
                    "canary: {system} {}",
                    if *readmitted {
                        "readmitted after probe"
                    } else {
                        "still quarantined (canary failed)"
                    }
                )?;
            }
            if suite.warm_store {
                writeln!(
                    out,
                    "warm store: {} built, {} reused, {:.1}s total build time",
                    results.report.total_packages_built(),
                    results.report.total_packages_cached(),
                    results.report.total_build_time_s()
                )?;
            }
            if let Some(stats) = &results.report.store {
                let mut line = format!(
                    "store: {} hits, {} misses, {} quarantined, {} persisted",
                    stats.hits, stats.misses, stats.quarantined, stats.persisted
                );
                // Contention annotations only when they happened, so a
                // clean run's report stays byte-identical to older ones.
                if stats.persist_skipped > 0 {
                    line.push_str(&format!(
                        ", {} skipped (shard leased elsewhere)",
                        stats.persist_skipped
                    ));
                }
                if stats.shards_contended > 0 {
                    line.push_str(&format!(
                        " [{} shards held by a live writer]",
                        stats.shards_contended
                    ));
                }
                if let Some(reason) = &stats.degraded {
                    line.push_str(&format!(" (degraded to in-memory warm store: {reason})"));
                }
                writeln!(out, "{line}")?;
            }
            write!(out, "{}", results.frame())?;
            // Perflogs are written even when cells failed: a partial study
            // is still comparable, and the gaps surface as explicit
            // missing cells in `rank`/`cmp` rather than vanishing.
            if let Some(dir) = &perflog {
                let dir = std::path::Path::new(dir);
                std::fs::create_dir_all(dir).map_err(|e| {
                    CliError(format!("survey: cannot create `{}`: {e}", dir.display()))
                })?;
                let mut written = 0usize;
                for ((system, benchmark), log) in &results.report.perflogs {
                    let sanitize = |s: &str| s.replace([':', '/'], "_");
                    let path = dir.join(format!(
                        "{}-{}.jsonl",
                        sanitize(system),
                        sanitize(benchmark)
                    ));
                    std::fs::write(&path, log.to_jsonl()).map_err(|e| {
                        CliError(format!("survey: cannot write `{}`: {e}", path.display()))
                    })?;
                    written += 1;
                }
                writeln!(
                    out,
                    "perflogs: {written} files written to {}",
                    dir.display()
                )?;
            }
            let failed = results.report.n_failed();
            if failed > 0 {
                return Err(CliError(format!(
                    "survey: {failed} of {} cells failed",
                    results.report.outcomes.len()
                ))
                .into());
            }
        }
        Command::Rank {
            inputs,
            lower_is_better,
            markdown,
            jobs,
        } => {
            let frame = load_fom_frame(&inputs).map_err(|e| CliError(format!("rank: {e}")))?;
            let policy = postproc::RankPolicy {
                direction: rank_direction(lower_is_better),
                jobs,
            };
            let ranking = postproc::rank_frame(&frame, &policy)
                .map_err(|e| CliError(format!("rank: {e}")))?;
            write!(
                out,
                "{}",
                if markdown {
                    ranking.render_markdown()
                } else {
                    ranking.render_text()
                }
            )?;
        }
        Command::Cmp {
            study_a,
            study_b,
            threshold_pct,
            lower_is_better,
            markdown,
            jobs,
        } => {
            let a = load_fom_frame(std::slice::from_ref(&study_a))
                .map_err(|e| CliError(format!("cmp: {e}")))?;
            let b = load_fom_frame(std::slice::from_ref(&study_b))
                .map_err(|e| CliError(format!("cmp: {e}")))?;
            let policy = postproc::CmpPolicy {
                threshold_pct,
                direction: rank_direction(lower_is_better),
                jobs,
            };
            let comparison =
                postproc::cmp_frames(&a, &b, &policy).map_err(|e| CliError(format!("cmp: {e}")))?;
            writeln!(out, "comparing A={study_a} to B={study_b}")?;
            write!(
                out,
                "{}",
                if markdown {
                    comparison.render_markdown()
                } else {
                    comparison.render_text()
                }
            )?;
        }
        Command::StoreGc { dir, keep } => {
            let path = std::path::Path::new(&dir);
            spackle::require_store(path).map_err(|e| CliError(format!("store gc: {e}")))?;
            let mut disk = spackle::DiskStore::open(path).map_err(|e| {
                CliError(match e {
                    spackle::DiskStoreError::Busy { pid, .. } => format!(
                        "store gc: `{dir}` holds a legacy v1 lock owned by a live process \
                     (pid {pid}); retry once its study finishes"
                    ),
                    other => format!("store gc: {other}"),
                })
            })?;
            let report = disk
                .gc(keep)
                .map_err(|e| CliError(format!("store gc: {e}")))?;
            let mut line = format!(
                "store gc: kept {}, evicted {} (referenced by the last {} studies)",
                report.kept, report.evicted, report.studies_considered
            );
            if !report.skipped_shards.is_empty() {
                line.push_str(&format!(
                    "; skipped {} leased by live writers: {}",
                    report.skipped_shards.len(),
                    report.skipped_shards.join(", ")
                ));
            }
            writeln!(out, "{line}")?;
        }
        Command::StoreFsck { dir, json } => {
            let path = std::path::Path::new(&dir);
            let report = spackle::fsck(path).map_err(|e| CliError(format!("store fsck: {e}")))?;
            if json {
                writeln!(out, "{}", report.to_json())?;
                if !report.clean() {
                    return Err(CliError(format!(
                        "store fsck: {} invalid committed entries in `{dir}`",
                        report.invalid.len()
                    ))
                    .into());
                }
                return Ok(());
            }
            writeln!(
                out,
                "store fsck: {} valid, {} invalid, {} quarantined, \
                 {} orphaned temps, {} live leases, {} expired leases, \
                 {} ref segments ({} records)",
                report.valid,
                report.invalid.len(),
                report.quarantined,
                report.orphan_temps.len(),
                report.live_leases.len(),
                report.expired_leases.len(),
                report.ref_segments,
                report.ref_records,
            )?;
            for (file, why) in &report.invalid {
                writeln!(out, "  invalid {file}: {why}")?;
            }
            for temp in &report.orphan_temps {
                writeln!(out, "  orphaned temp {temp}")?;
            }
            for lease in &report.live_leases {
                writeln!(out, "  live lease {lease}")?;
            }
            for lease in &report.expired_leases {
                writeln!(out, "  expired lease {lease}")?;
            }
            if report.legacy_layout {
                writeln!(
                    out,
                    "  note: unmigrated v1 layout (entries/) — \
                     the next writer will migrate it in place"
                )?;
            }
            if !report.clean() {
                return Err(CliError(format!(
                    "store fsck: {} invalid committed entries in `{dir}`",
                    report.invalid.len()
                ))
                .into());
            }
        }
        Command::Serve {
            dir,
            addr,
            workers,
            queue,
            read_timeout_ms,
            max_body,
        } => {
            let mut cfg = servd::ServeConfig::new(&dir, &addr);
            cfg.workers = workers;
            cfg.queue = queue;
            cfg.read_timeout_ms = read_timeout_ms;
            cfg.max_body = max_body;
            cfg.io = env.io.clone();
            cfg.net = env.net.clone();
            let server = servd::Server::bind(cfg).map_err(|e| CliError(format!("serve: {e}")))?;
            let bound = server
                .local_addr()
                .map_err(|e| CliError(format!("serve: {e}")))?;
            servd::install_sigterm_drain();
            let recovered = server.recovered_records();
            if recovered > 0 {
                writeln!(
                    out,
                    "serve: recovered {recovered} acknowledged records from the WAL"
                )?;
            }
            // The readiness line: scripts wait for it (and parse the
            // bound address out of it when --addr ended in :0).
            writeln!(
                out,
                "serving {dir} on {bound} ({workers} workers, queue {queue})"
            )?;
            out.flush()?;
            let summary = server.run().map_err(|e| CliError(format!("serve: {e}")))?;
            writeln!(
                out,
                "serve: drained — {} connections served, {} rejected, {} records durable, \
                 {} WAL commits",
                summary.served, summary.rejected, summary.wal_records, summary.wal_commits
            )?;
        }
        Command::Push {
            dir,
            to,
            max_retries,
        } => {
            let report = servd::push_dir(dir.as_ref(), &to, max_retries, env.backoff_scale, out)
                .map_err(|e| CliError(format!("push: {e}")))?;
            writeln!(
                out,
                "push: {} files, {} acked, {} duplicate, {} retries",
                report.files, report.acked, report.duplicates, report.retries
            )?;
        }
        Command::Query { addr, path } => {
            let resp = servd::http_get(&addr, &path)
                .map_err(|e| CliError(format!("query: {addr}{path}: {e}")))?;
            write!(out, "{}", resp.body_text())?;
            out.flush()?;
            if !(200..300).contains(&resp.status) {
                return Err(
                    CliError(format!("query: {addr}{path} answered {}", resp.status)).into(),
                );
            }
        }
        Command::CheckpointGc { dir, force } => {
            match harness::checkpoint::gc(std::path::Path::new(&dir), force)? {
                harness::checkpoint::GcOutcome::Collected { cells, forced } => writeln!(
                    out,
                    "checkpoint gc: collected journal ({cells} cells{}); quarantine memory kept",
                    if forced { ", forced" } else { "" }
                )?,
                harness::checkpoint::GcOutcome::NoJournal => {
                    writeln!(out, "checkpoint gc: no journal in `{dir}`")?;
                }
            }
        }
        Command::BenchDigest {
            logs,
            min_speedups,
            rank_groups,
        } => {
            // Oldest first: each file is one bench run; the last file's
            // medians are judged against all earlier ones.
            let mut runs = Vec::new();
            for path in &logs {
                runs.push(
                    std::fs::read_to_string(path).map_err(|e| {
                        CliError(format!("bench-digest: cannot read `{path}`: {e}"))
                    })?,
                );
            }
            // Every (group, id) pair seen in any run, sorted for a stable
            // digest regardless of log ordering quirks.
            let mut ids = std::collections::BTreeSet::new();
            for run in &runs {
                for p in postproc::parse_criterion_log(run) {
                    ids.insert((p.group, p.id));
                }
            }
            if ids.is_empty() {
                return Err(CliError(
                    "bench-digest: no criterion records in the given logs".into(),
                )
                .into());
            }
            // Bench medians are wall times: lower is better.
            let policy = postproc::RegressionPolicy::default().lower_is_better();
            let mut regressions = 0usize;
            for (group, id) in &ids {
                let history = postproc::criterion_history(&runs, group, id);
                let verdict = history.check_latest(&policy);
                let verdict_text = match &verdict {
                    postproc::Verdict::Ok { z_score } => format!("ok (z={z_score:.2})"),
                    postproc::Verdict::Regression { z_score, .. } => {
                        regressions += 1;
                        format!("REGRESSION (z={z_score:.2})")
                    }
                    postproc::Verdict::Improvement { z_score, .. } => {
                        format!("improvement (z={z_score:.2})")
                    }
                    postproc::Verdict::InsufficientHistory { have, need } => {
                        format!("insufficient history ({have}/{need})")
                    }
                };
                writeln!(out, "{group}/{id}: {} {verdict_text}", history.sparkline())?;
            }
            // Cross-benchmark speedup floors, judged on the newest run:
            // `--min-speedup BG/BI:TG/TI:R` requires speed(TG/TI) ≥
            // R × speed(BG/BI), where speed is the declared per-iteration
            // work (bytes or elements) over the fastest time. This is how
            // CI pins roofline relations (triad within 1.5× of copy
            // bandwidth, SELL ≥ 1.2× CSR) rather than absolute times.
            let newest = postproc::parse_criterion_log(runs.last().expect("nonempty logs"));
            let mut floors_missed = 0usize;
            for spec in &min_speedups {
                let parsed = (|| {
                    let mut parts = spec.splitn(3, ':');
                    let base = parts.next()?.split_once('/')?;
                    let target = parts.next()?.split_once('/')?;
                    let ratio: f64 = parts.next()?.parse().ok()?;
                    Some((base, target, ratio))
                })();
                let Some(((bg, bi), (tg, ti), ratio)) = parsed else {
                    return Err(CliError(format!(
                        "bench-digest: bad --min-speedup `{spec}` \
                         (want BASEGROUP/BASEID:TARGETGROUP/TARGETID:RATIO)"
                    ))
                    .into());
                };
                let find = |g: &str, id: &str| newest.iter().find(|p| p.group == g && p.id == id);
                let (Some(base), Some(target)) = (find(bg, bi), find(tg, ti)) else {
                    return Err(CliError(format!(
                        "bench-digest: --min-speedup `{spec}`: \
                         benchmark missing from the newest log"
                    ))
                    .into());
                };
                let actual = target.speed() / base.speed();
                let verdict = if actual >= ratio {
                    "ok"
                } else {
                    floors_missed += 1;
                    "FLOOR MISSED"
                };
                writeln!(
                    out,
                    "{tg}/{ti} vs {bg}/{bi}: {actual:.2}x (floor {ratio}x) {verdict}"
                )?;
            }
            // Rank-flip gate: the speed-ordering of a group's benchmark
            // ids must agree between the two newest logs. This is the
            // `postproc::rank` geomean machinery fed with criterion
            // speeds, so a CI digest can gate on "SELL is still faster
            // than CSR" instead of absolute times.
            let mut rank_flips = 0usize;
            for group in &rank_groups {
                let ranking = |run: &String| -> Result<postproc::Ranking, CliError> {
                    let mut agg = postproc::RankAggregate::default();
                    let mut any = false;
                    for p in postproc::parse_criterion_log(run) {
                        if p.group == *group {
                            any = true;
                            agg.push(group, "speed", &p.id, "", Some(p.speed()));
                        }
                    }
                    if !any {
                        return Err(CliError(format!(
                            "bench-digest: --rank `{group}`: no criterion records \
                             for that group in one of the two newest logs"
                        )));
                    }
                    Ok(agg.rank(&postproc::RankPolicy::default()))
                };
                let previous = ranking(&runs[runs.len() - 2])?;
                let newest = ranking(runs.last().expect("nonempty"))?;
                let render = |r: &postproc::Ranking| r.order().join(" > ");
                if previous.order() == newest.order() {
                    writeln!(out, "rank {group}: stable ({})", render(&newest))?;
                } else {
                    rank_flips += 1;
                    writeln!(
                        out,
                        "rank {group}: RANK FLIP ({} -> {})",
                        render(&previous),
                        render(&newest)
                    )?;
                }
            }
            if regressions > 0 {
                return Err(CliError(format!(
                    "bench-digest: {regressions} benchmark(s) regressed"
                ))
                .into());
            }
            if floors_missed > 0 {
                return Err(CliError(format!(
                    "bench-digest: {floors_missed} speedup floor(s) missed"
                ))
                .into());
            }
            if rank_flips > 0 {
                return Err(CliError(format!(
                    "bench-digest: {rank_flips} benchmark ranking(s) flipped"
                ))
                .into());
            }
        }
        Command::Spec { spec, system } => {
            let (sys, partition) = simhpc::catalog::partition(&system)
                .ok_or_else(|| CliError(format!("unknown system `{system}`")))?;
            let ctx = spackle::context_for(sys, partition);
            let parsed = spackle::Spec::parse(&spec)?;
            let concrete = spackle::concretize(&parsed, spackle::Repo::builtin_shared(), &ctx)?;
            writeln!(
                out,
                "concretized on {system} (dag hash {}):",
                concrete.dag_hash()
            )?;
            write!(out, "{concrete}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`super::parse`] with the default environment.
    fn parse(args: &[String]) -> Result<Command, CliError> {
        super::parse(args, &Env::default())
    }

    /// [`super::execute`] with the default environment.
    fn execute(
        cmd: Command,
        out: &mut (dyn std::io::Write + Send),
    ) -> Result<(), Box<dyn std::error::Error>> {
        super::execute(cmd, &Env::default(), out)
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_run() {
        let cmd = parse(&argv("run -c babelstream_omp --system csd3 --seed 7")).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                benchmark: "babelstream_omp".into(),
                system: "csd3".into(),
                seed: 7,
                repeats: 1
            }
        );
        assert!(parse(&argv("run --system csd3")).is_err(), "missing -c");
        assert!(parse(&argv("run -c x")).is_err(), "missing --system");
        assert!(parse(&argv("run -c x --seed nope --system csd3")).is_err());
    }

    #[test]
    fn parse_survey_and_equals_form() {
        let cmd = parse(&argv(
            "survey -c hpgmg -c babelstream_omp --system=archer2 --system csd3",
        ))
        .unwrap();
        match cmd {
            Command::Survey {
                benchmarks,
                suite,
                interrupt_after,
                perflog,
            } => {
                assert_eq!(benchmarks, vec!["hpgmg", "babelstream_omp"]);
                assert_eq!(suite.systems, vec!["archer2", "csd3"]);
                assert_eq!(suite.seed, 42);
                assert_eq!(suite.jobs, 1, "serial by default");
                assert!(!suite.warm_store, "cold by default");
                assert_eq!(suite.fault_profile.name, "none", "no faults by default");
                assert!(suite.fault_overrides.is_empty(), "no overrides by default");
                assert_eq!(suite.max_retries, 2);
                assert!(!suite.fail_fast);
                assert_eq!(suite.quarantine, 0, "quarantine off by default");
                assert!(!suite.heal, "healing off by default");
                assert_eq!(suite.checkpoint, None, "no checkpointing by default");
                assert_eq!(interrupt_after, None);
                assert_eq!(suite.store, None, "no persistent store by default");
                assert_eq!(perflog, None, "no perflog export by default");
                assert_eq!(suite.engine, None, "in-process run stage by default");
                assert!(suite.engine_overrides.is_empty());
                // The CLI's defaults are the runner's defaults.
                assert_eq!(suite, SuiteRunner::new(&["archer2", "csd3"]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_survey_warm_store() {
        let cmd = parse(&argv(
            "survey -c hpgmg --system archer2 --warm-store --jobs 2",
        ))
        .unwrap();
        match cmd {
            Command::Survey { suite, .. } => {
                assert!(suite.warm_store);
                assert_eq!(suite.jobs, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_survey_jobs() {
        let cmd = parse(&argv("survey -c hpgmg --system archer2 --jobs 4")).unwrap();
        match cmd {
            Command::Survey { suite, .. } => assert_eq!(suite.jobs, 4),
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv("survey -c hpgmg --system archer2 -j 0")).unwrap();
        match cmd {
            Command::Survey { suite, .. } => assert_eq!(suite.jobs, 0, "0 = auto"),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("survey -c hpgmg --system archer2 --jobs nope")).is_err());
    }

    #[test]
    fn parse_survey_engine_flags() {
        // argv() splits on whitespace, so engine specs with embedded
        // spaces are built as explicit vectors here.
        let args = |tail: &[&str]| -> Vec<String> {
            ["survey", "-c", "hpgmg", "--system", "archer2"]
                .iter()
                .copied()
                .chain(tail.iter().copied())
                .map(str::to_string)
                .collect()
        };
        let cmd = parse(&args(&["--engine", "./stub --ok"])).unwrap();
        match cmd {
            Command::Survey { suite, .. } => {
                let spec = suite.engine.expect("base engine parsed");
                assert_eq!(spec.cmd, vec!["./stub", "--ok"]);
                assert_eq!(spec.timeout_s, engine::DEFAULT_TIMEOUT_S);
                assert!(suite.engine_overrides.is_empty());
            }
            other => panic!("{other:?}"),
        }
        // --engine-timeout applies to specs that don't pin their own.
        let cmd = parse(&args(&["--engine", "./stub", "--engine-timeout", "30"])).unwrap();
        match cmd {
            Command::Survey { suite, .. } => {
                assert_eq!(suite.engine.unwrap().timeout_s, 30.0);
            }
            other => panic!("{other:?}"),
        }
        // A `=` inside the command is not a per-case override: the text
        // left of it is not shaped like a benchmark name.
        let cmd = parse(&args(&["--engine", "./eng --mode=fast"])).unwrap();
        match cmd {
            Command::Survey { suite, .. } => {
                assert_eq!(suite.engine.unwrap().cmd, vec!["./eng", "--mode=fast"]);
                assert!(suite.engine_overrides.is_empty());
            }
            other => panic!("{other:?}"),
        }
        // CASE=SPEC is an override when CASE is a surveyed benchmark.
        let cmd = parse(&args(&["--engine", "hpgmg=./special --hpgmg"])).unwrap();
        match cmd {
            Command::Survey { suite, .. } => {
                assert_eq!(suite.engine, None, "override only, no base engine");
                assert_eq!(suite.engine_overrides.len(), 1);
                assert_eq!(suite.engine_overrides[0].0, "hpgmg");
                assert_eq!(
                    suite.engine_overrides[0].1.cmd,
                    vec!["./special", "--hpgmg"]
                );
            }
            other => panic!("{other:?}"),
        }
        // Overrides must name a surveyed case; duplicates are rejected.
        assert!(parse(&args(&["--engine", "babelstream_omp=./x"])).is_err());
        assert!(parse(&args(&["--engine", "./a", "--engine", "./b"])).is_err());
        assert!(parse(&args(&["--engine", "hpgmg=./a", "--engine", "hpgmg=./b"])).is_err());
        // The deadline is validated at parse time, not at first launch.
        for bad in ["0", "-1", "nan", "inf", "nope", ""] {
            assert!(
                parse(&args(&["--engine", "./stub", "--engine-timeout", bad])).is_err(),
                "engine-timeout `{bad}` must be a parse error"
            );
        }
        // --engine-timeout is meaningless without an engine.
        assert!(parse(&args(&["--engine-timeout", "30"])).is_err());
        // An empty spec has no command to run.
        assert!(parse(&args(&["--engine", ""])).is_err());
    }

    #[test]
    fn parse_survey_fault_flags() {
        let cmd = parse(&argv(
            "survey -c hpgmg --system archer2 --fault-profile flaky --max-retries 5 \
             --fail-fast --quarantine 3",
        ))
        .unwrap();
        match cmd {
            Command::Survey { suite, .. } => {
                assert_eq!(suite.fault_profile.name, "flaky");
                assert_eq!(suite.max_retries, 5);
                assert!(suite.fail_fast);
                assert_eq!(suite.quarantine, 3);
            }
            other => panic!("{other:?}"),
        }
        // Unknown profiles are rejected at parse time, with the catalog.
        let err = parse(&argv(
            "survey -c hpgmg --system archer2 --fault-profile wat",
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("unknown fault profile"), "{err}");
        assert!(err.contains("flaky"), "{err}");
        assert!(parse(&argv("survey -c x --system y --max-retries nope")).is_err());
        assert!(parse(&argv("survey -c x --system y --quarantine nope")).is_err());
    }

    #[test]
    fn parse_fault_profile_overrides() {
        let cmd = parse(&argv(
            "survey -c hpgmg --system archer2 --system csd3 \
             --fault-profile flaky --fault-profile csd3=brutal",
        ))
        .unwrap();
        match cmd {
            Command::Survey { suite, .. } => {
                assert_eq!(suite.fault_profile.name, "flaky");
                assert_eq!(
                    suite.fault_overrides,
                    vec![("csd3".to_string(), FaultProfile::brutal())]
                );
            }
            other => panic!("{other:?}"),
        }
        // Unknown profile inside an override is caught at parse time.
        let err = parse(&argv(
            "survey -c hpgmg --system csd3 --fault-profile csd3=wat",
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("unknown fault profile `wat`"), "{err}");
        // Overriding a system that is not surveyed is an error.
        let err = parse(&argv(
            "survey -c hpgmg --system csd3 --fault-profile archer2=flaky",
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("not in the surveyed"), "{err}");
        // Duplicate override for the same system is an error.
        let err = parse(&argv(
            "survey -c hpgmg --system csd3 \
             --fault-profile csd3=flaky --fault-profile csd3=brutal",
        ))
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("duplicate `--fault-profile` override"),
            "{err}"
        );
        // So is a duplicate base profile.
        let err = parse(&argv(
            "survey -c hpgmg --system csd3 --fault-profile flaky --fault-profile brutal",
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("duplicate base"), "{err}");
    }

    #[test]
    fn parse_checkpoint_heal_and_interrupt_flags() {
        let cmd = parse(&argv(
            "survey -c hpgmg --system csd3 --heal --checkpoint /tmp/ck --interrupt-after 3",
        ))
        .unwrap();
        match cmd {
            Command::Survey {
                suite,
                interrupt_after,
                ..
            } => {
                assert!(suite.heal);
                assert_eq!(
                    suite.checkpoint,
                    Some(CheckpointMode::Fresh("/tmp/ck".into()))
                );
                assert_eq!(interrupt_after, Some(3));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("survey -c hpgmg --system csd3 --resume /tmp/ck")).unwrap() {
            Command::Survey { suite, .. } => {
                assert_eq!(
                    suite.checkpoint,
                    Some(CheckpointMode::Resume("/tmp/ck".into()))
                );
            }
            other => panic!("{other:?}"),
        }
        // Checkpoint and resume are mutually exclusive.
        let err = parse(&argv(
            "survey -c hpgmg --system csd3 --checkpoint /a --resume /b",
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("mutually exclusive"), "{err}");
        assert!(parse(&argv("survey -c x --system y --interrupt-after nope")).is_err());
    }

    #[test]
    fn run_rejects_every_survey_only_flag() {
        for (flag, value) in [
            ("--jobs", Some("4")),
            ("--warm-store", None),
            ("--fault-profile", Some("flaky")),
            ("--max-retries", Some("1")),
            ("--fail-fast", None),
            ("--quarantine", Some("2")),
            ("--heal", None),
            ("--checkpoint", Some("/a")),
            ("--resume", Some("/a")),
            ("--interrupt-after", Some("1")),
            ("--store", Some("/a")),
            ("--perflog", Some("/a")),
            ("--engine", Some("./stub")),
            ("--engine-timeout", Some("5")),
        ] {
            let args = format!("run -c hpgmg --system csd3 {flag} {}", value.unwrap_or(""));
            let err = parse(&argv(&args)).unwrap_err().to_string();
            assert_eq!(err, format!("run: `{flag}` only applies to `survey`"));
        }
    }

    #[test]
    fn survey_rejects_the_run_only_repeats_flag() {
        let err = parse(&argv("survey -c hpgmg --system csd3 --repeats 3")).unwrap_err();
        assert_eq!(err.0, "survey: `--repeats` only applies to `run`");
    }

    /// The canonical flags of the table `words` scans, as `words[0]` sees
    /// them: a recorder stands in for the scanner and aborts the parse.
    fn table_flags(words: &[&str]) -> std::collections::BTreeSet<&'static str> {
        let mut flags = std::collections::BTreeSet::new();
        let args: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        let _ = parse_with(&args, &Env::default(), &mut |_, _, _, table| {
            let scoped = |f: &&Flag<'_>| f.only.is_none_or(|only| only == words[0]);
            flags.extend(table.iter().filter(scoped).map(Flag::name));
            Err(CliError(String::new()))
        });
        flags
    }

    #[test]
    fn usage_synopses_list_exactly_each_tables_flags() {
        // (subcommand words, flags named on its synopsis lines); prose and
        // the EXAMPLES section are not synopses.
        let mut synopses: Vec<(Vec<&str>, std::collections::BTreeSet<&str>)> = Vec::new();
        for line in USAGE.lines().take_while(|l| *l != "EXAMPLES:") {
            let words = if let Some(tail) = line.strip_prefix("    benchkit ") {
                let sub = tail
                    .split(' ')
                    .take_while(|w| {
                        !w.is_empty()
                            && !w.starts_with('-')
                            && w.bytes().all(|b| b.is_ascii_lowercase() || b == b'-')
                    })
                    .collect();
                synopses.push((sub, Default::default()));
                tail
            } else if line.trim_start().starts_with('[') && !synopses.is_empty() {
                line
            } else {
                continue;
            };
            let (_, flags) = synopses.last_mut().expect("a synopsis line came first");
            flags.extend(
                words
                    .split([' ', '[', ']'])
                    .filter(|w| w.len() > 1 && w.starts_with('-')),
            );
        }
        assert_eq!(synopses.len(), 15, "{synopses:?}");
        for (sub, flags) in &synopses {
            assert_eq!(&table_flags(sub), flags, "`benchkit {}`", sub.join(" "));
        }
    }

    #[test]
    fn env_reads_each_input_and_falls_back_on_junk() {
        let env = |pairs: &[(&str, &str)]| {
            Env::from_vars(pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())))
        };
        let unset = env(&[("PATH", "/bin"), ("BENCHKIT_OTHER", "1")]);
        assert_eq!(unset.io, IoShim::Real);
        assert!(matches!(unset.net, NetShim::Real));
        assert_eq!((unset.backoff_scale, unset.threads), (1.0, None));
        // A thread count is a positive integer, surrounding spaces allowed;
        // zero, blank and junk read as unset.
        let threads = |v| env(&[("BENCHKIT_THREADS", v)]).threads;
        assert_eq!(threads("3"), Some(3));
        assert_eq!(threads(" 12 "), Some(12));
        for junk in ["0", "", "lots", "-1", "2.5"] {
            assert_eq!(threads(junk), None, "{junk:?}");
        }
        // A scale is a finite number >= 0; anything else is 1.
        let scale = |v| env(&[(BACKOFF_SCALE_ENV, v)]).backoff_scale;
        assert_eq!((scale("0"), scale("0.25")), (0.0, 0.25));
        for junk in ["-1", "inf", "NaN", "x", ""] {
            assert_eq!(scale(junk), 1.0, "{junk:?}");
        }
        // Fault specs arm their shim; blank or malformed specs stay real.
        let io = |v| env(&[(IOFAULTS_ENV, v)]).io;
        let mut spec = FaultSpec::quiet(7);
        spec.torn = 0.5;
        assert_eq!(io("seed=7,torn=0.5"), IoShim::faulty(spec));
        assert_eq!(io(" "), IoShim::Real);
        assert_eq!(io("bogus=1"), IoShim::Real);
        let net = |v| matches!(env(&[(NETFAULTS_ENV, v)]).net, NetShim::Faulty(_));
        assert!(net("seed=3,reset=0.1"));
        assert!(!net("bogus=1"));
    }

    #[test]
    fn a_survey_takes_its_environment_inputs_from_env() {
        let env = Env {
            io: IoShim::faulty(FaultSpec::quiet(1)),
            net: NetShim::Real,
            backoff_scale: 0.0,
            threads: Some(3),
        };
        let Command::Survey { suite, .. } =
            super::parse(&argv("survey -c hpgmg --system csd3"), &env).unwrap()
        else {
            panic!("survey parses to a survey");
        };
        assert_eq!(suite.io, env.io);
        assert_eq!((suite.backoff_scale, suite.threads), (0.0, Some(3)));
    }

    #[test]
    fn off_alias_reports_exactly_like_none() {
        // `off` and `none` are one profile: the same header binding and the
        // same report bytes, with no fault line for a fault-free survey.
        let run = |name: &str| {
            let args =
                format!("survey -c babelstream_omp -c hpgmg --system csd3 --fault-profile {name}");
            run_cmd(parse(&argv(&args)).unwrap())
        };
        let (none_text, none_err) = run("csd3=none");
        assert_eq!(run("csd3=off"), (none_text.clone(), none_err));
        assert!(
            none_text.contains("fault overrides: csd3=none"),
            "{none_text}"
        );
        assert!(!none_text.contains("fault profile"), "{none_text}");
        assert_eq!(run("off"), run("none"));
    }

    #[test]
    fn parse_misc() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("list-systems")).unwrap(), Command::ListSystems);
        assert!(parse(&argv("frobnicate")).is_err());
        let cmd = parse(&argv("spec hpgmg%gcc --system archer2")).unwrap();
        assert_eq!(
            cmd,
            Command::Spec {
                spec: "hpgmg%gcc".into(),
                system: "archer2".into()
            }
        );
    }

    #[test]
    fn benchmark_name_registry() {
        let names = benchmark_names();
        assert!(names.contains(&"babelstream_omp".to_string()));
        assert!(names.contains(&"hpcg_matfree".to_string()));
        assert!(names.contains(&"hpgmg".to_string()));
        for name in &names {
            // hpcg_avx2 etc. must all be constructible.
            case_by_name(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert!(case_by_name("nope").is_err());
    }

    #[test]
    fn execute_list_and_run() {
        let mut buf = Vec::new();
        execute(Command::ListSystems, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("archer2:rome"));
        assert!(text.contains("isambard-macs:volta"));

        let mut buf = Vec::new();
        execute(
            Command::Run {
                benchmark: "babelstream_omp".into(),
                system: "csd3".into(),
                seed: 42,
                repeats: 2,
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("Triad"));
        assert!(text.contains("perflog (2 records):"));
        assert!(text.contains("energy"));
    }

    #[test]
    fn execute_spec_prints_table3_row() {
        let mut buf = Vec::new();
        execute(
            Command::Spec {
                spec: "hpgmg%gcc".into(),
                system: "archer2".into(),
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("cray-mpich@8.1.23"));
        assert!(text.contains("[external]"));
    }

    #[test]
    fn execute_survey_counts_and_streams() {
        let mut buf = Vec::new();
        execute(
            survey(
                &["babelstream_cuda"],
                SuiteRunner::new(&["csd3", "isambard-macs:volta"]).with_jobs(2),
            ),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("ran 1  skipped 1  failed 0"), "{text}");
        // One streamed line per grid cell, in canonical order.
        assert!(
            text.contains("[1/2] babelstream_cuda on csd3: skip"),
            "{text}"
        );
        assert!(
            text.contains("[2/2] babelstream_cuda on isambard-macs:volta: ok"),
            "{text}"
        );
    }

    #[test]
    fn warm_survey_is_byte_identical_for_any_jobs_count() {
        // The acceptance criterion: `benchkit survey --warm-store --jobs N`
        // produces a byte-identical report for N ∈ {1, 2, 8}, with
        // packages reused on multi-case systems.
        let run_at = |jobs: usize| {
            let mut buf = Vec::new();
            execute(
                survey(
                    &["babelstream_omp", "babelstream_tbb", "hpgmg"],
                    SuiteRunner::new(&["csd3", "archer2"])
                        .with_seed(7)
                        .with_jobs(jobs)
                        .with_warm_store(true),
                ),
                &mut buf,
            )
            .unwrap();
            String::from_utf8(buf).unwrap()
        };
        let serial = run_at(1);
        assert!(
            serial.contains("[1/6] babelstream_omp on csd3: ok"),
            "{serial}"
        );
        assert!(
            !serial.contains("fault profile"),
            "no resilience line without faults: {serial}"
        );
        assert!(serial.contains("cached"), "{serial}");
        // Multi-case systems reuse dependency builds.
        let warm_line = serial
            .lines()
            .find(|l| l.starts_with("warm store:"))
            .expect("warm summary present");
        let reused: usize = warm_line
            .split(" built, ")
            .nth(1)
            .and_then(|s| s.split(" reused").next())
            .and_then(|s| s.parse().ok())
            .expect("reused count parses");
        assert!(reused > 0, "{warm_line}");
        for jobs in [2, 8] {
            assert_eq!(serial, run_at(jobs), "jobs={jobs}");
        }
    }

    #[test]
    fn faulty_survey_streams_retries_and_replays_byte_identically() {
        // A flaky survey replays byte-identically at any jobs count, and
        // the streamed `ok` lines surface retry counts when faults bit.
        let run_at = |seed: u64, jobs: usize| {
            let mut buf = Vec::new();
            let result = execute(
                survey(
                    &["babelstream_omp", "hpgmg"],
                    SuiteRunner::new(&["csd3", "archer2"])
                        .with_seed(seed)
                        .with_jobs(jobs)
                        .with_fault_profile(FaultProfile::flaky())
                        .with_max_retries(4),
                ),
                &mut buf,
            );
            (
                String::from_utf8(buf).unwrap(),
                result.err().map(|e| e.to_string()),
            )
        };
        // Find a seed where faults were injected yet every cell recovered.
        let seed = (0..30)
            .find(|&s| {
                let (text, err) = run_at(s, 1);
                err.is_none() && text.contains(" retries")
            })
            .expect("some seed in 0..30 recovers from injected faults");
        let (serial, serial_err) = run_at(seed, 1);
        assert!(serial_err.is_none(), "all cells recovered");
        assert!(serial.contains("fault profile `flaky`:"), "{serial}");
        assert!(!serial.contains("0 faults injected"), "{serial}");
        for jobs in [2, 8] {
            let (text, err) = run_at(seed, jobs);
            assert_eq!(serial, text, "jobs={jobs}");
            assert_eq!(serial_err, err, "jobs={jobs}");
        }
    }

    #[test]
    fn survey_exits_nonzero_when_a_cell_fails() {
        // Under the brutal profile with no retries some seed fails a cell;
        // execute must return Err (→ exit 1) while still writing the
        // streamed lines, summary, and frame.
        let run_at = |seed: u64, jobs: usize| {
            let mut buf = Vec::new();
            let result = execute(
                survey(
                    &["babelstream_omp"],
                    SuiteRunner::new(&["csd3", "archer2"])
                        .with_seed(seed)
                        .with_jobs(jobs)
                        .with_fault_profile(FaultProfile::brutal())
                        .with_max_retries(0),
                ),
                &mut buf,
            );
            (
                String::from_utf8(buf).unwrap(),
                result.err().map(|e| e.to_string()),
            )
        };
        let seed = (0..30)
            .find(|&s| run_at(s, 1).1.is_some())
            .expect("some seed in 0..30 fails a cell under brutal/no-retries");
        let (text, err) = run_at(seed, 1);
        let err = err.unwrap();
        assert!(err.contains("cells failed"), "{err}");
        assert!(text.contains("FAIL:"), "{text}");
        assert!(text.contains("fault profile `brutal`:"), "{text}");
        // The failure exit is just as deterministic as the report.
        for jobs in [2, 8] {
            let (t, e) = run_at(seed, jobs);
            assert_eq!(text, t, "jobs={jobs}");
            assert_eq!(Some(err.clone()), e, "jobs={jobs}");
        }
    }

    #[test]
    fn execute_survey_with_engine_prints_config_and_replays() {
        let sh = |script: &str| engine::EngineSpec {
            cmd: vec!["/bin/sh".into(), "-c".into(), script.into()],
            timeout_s: 10.0,
            grace_s: 0.5,
        };
        let ok = sh(r#"cat >/dev/null
out='Function    MBytes/sec
Copy        150000.0
Mul         151000.0
Add         152000.0
Triad       153000.0
Dot         154000.0'
printf 'wall:8:0.250000\n'
printf 'stdout:%d:%s\n' "$(printf %s "$out" | wc -c)" "$out"
printf 'done:0:\n'
"#);
        let crashing = sh("cat >/dev/null; echo kaput >&2; exit 11");
        let run_at = |jobs: usize| {
            let mut buf = Vec::new();
            let result = execute(
                survey(
                    &["babelstream_omp", "babelstream_tbb"],
                    // Zero backoff scale: the crashing override retries at
                    // once; the nominal schedule is still charged.
                    SuiteRunner::new(&["csd3"])
                        .with_jobs(jobs)
                        .with_backoff_scale(0.0)
                        .with_max_retries(1)
                        .with_engine(Some(ok.clone()))
                        .with_engine_override("babelstream_tbb", crashing.clone()),
                ),
                &mut buf,
            );
            (
                String::from_utf8(buf).unwrap(),
                result.err().map(|e| e.to_string()),
            )
        };
        let (text, err) = run_at(1);
        assert!(
            err.as_deref().unwrap_or("").contains("cells failed"),
            "{err:?}"
        );
        assert!(text.contains("[1/2] babelstream_omp on csd3: ok"), "{text}");
        assert!(text.contains("babelstream_tbb on csd3: FAIL:"), "{text}");
        assert!(text.contains("engine failure"), "{text}");
        // The engine configuration is echoed into the report so a reader
        // can tell a BYOB survey from an in-process one.
        assert!(text.contains(&format!("engine: {}", ok.render())), "{text}");
        assert!(
            text.contains(&format!(
                "engine override: babelstream_tbb={}",
                crashing.render()
            )),
            "{text}"
        );
        for jobs in [2, 8] {
            let (t, e) = run_at(jobs);
            assert_eq!(text, t, "jobs={jobs}");
            assert_eq!(err, e, "jobs={jobs}");
        }
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "benchkit-cli-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A Survey command over `benchmarks` configured by `suite`.
    fn survey(benchmarks: &[&str], suite: SuiteRunner) -> Command {
        Command::Survey {
            benchmarks: benchmarks.iter().map(|s| s.to_string()).collect(),
            suite,
            interrupt_after: None,
            perflog: None,
        }
    }

    fn run_cmd(cmd: Command) -> (String, Option<String>) {
        let mut buf = Vec::new();
        let result = execute(cmd, &mut buf);
        (
            String::from_utf8(buf).unwrap(),
            result.err().map(|e| e.to_string()),
        )
    }

    #[test]
    fn checkpointed_survey_resumes_byte_identically() {
        // The acceptance pin at the CLI layer: a survey interrupted after
        // k cells and resumed with --resume reproduces the uninterrupted
        // stdout byte for byte, at --jobs 1, 2 and 8. Interruption is
        // simulated by truncating the journal to k records.
        let base = tmpdir("resume-full");
        let make = |jobs: usize, dir: &std::path::Path, resume: bool| {
            let suite = SuiteRunner::new(&["csd3", "archer2"])
                .with_seed(3)
                .with_jobs(jobs)
                .with_fault_profile(FaultProfile::flaky())
                .with_max_retries(4);
            let suite = if resume {
                suite.with_resume(dir)
            } else {
                suite.with_checkpoint(dir)
            };
            survey(&["babelstream_omp", "hpgmg"], suite)
        };
        let (full_text, full_err) = run_cmd(make(1, &base, false));
        let journal =
            std::fs::read_to_string(base.join(harness::checkpoint::JOURNAL_FILE)).unwrap();
        let lines: Vec<&str> = journal.lines().collect();
        assert_eq!(lines.len(), 5, "header + 4 cells");
        for k in [1, 3] {
            for jobs in [1, 2, 8] {
                let dir = tmpdir(&format!("resume-{k}-{jobs}"));
                std::fs::create_dir_all(&dir).unwrap();
                std::fs::write(
                    dir.join(harness::checkpoint::JOURNAL_FILE),
                    lines[..=k].join("\n") + "\n",
                )
                .unwrap();
                let (text, err) = run_cmd(make(jobs, &dir, true));
                assert_eq!(text, full_text, "k={k} jobs={jobs}");
                assert_eq!(err, full_err, "k={k} jobs={jobs}");
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
        // Resuming under a different seed is refused loudly.
        let dir = tmpdir("resume-mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(harness::checkpoint::JOURNAL_FILE), &journal).unwrap();
        let mut wrong = make(1, &dir, true);
        if let Command::Survey { suite, .. } = &mut wrong {
            suite.seed = 4;
        }
        let (_, err) = run_cmd(wrong);
        let err = err.expect("mismatched resume must fail");
        assert!(err.contains("does not match"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn canary_verdicts_and_override_lines_are_reported() {
        // Study 1 under brutal/no-retries fails a system and trips the
        // K=1 quarantine; study 2 against the same checkpoint directory
        // reports the canary decision on stdout.
        let scan = |seed: u64| {
            let dir = tmpdir(&format!("canary-{seed}"));
            let make = |s| {
                let suite = SuiteRunner::new(&["csd3", "archer2"])
                    .with_seed(s)
                    .with_fault_profile(FaultProfile::brutal())
                    .with_max_retries(0)
                    .with_quarantine(1)
                    .with_heal(true)
                    .with_checkpoint(&dir);
                survey(&["babelstream_omp"], suite)
            };
            let (_, first_err) = run_cmd(make(seed));
            let second = run_cmd(make(seed));
            let _ = std::fs::remove_dir_all(&dir);
            (first_err, second.0)
        };
        let (_, second_text) = (0..30)
            .map(scan)
            .find(|(first_err, _)| first_err.is_some())
            .expect("some seed in 0..30 fails a cell under brutal/no-retries");
        assert!(second_text.contains("canary: "), "{second_text}");
        assert!(
            second_text.contains("still quarantined (canary failed)")
                || second_text.contains("readmitted after probe"),
            "{second_text}"
        );
        // Healing surveys extend the resilience line with repair counts.
        assert!(second_text.contains("nodes repaired"), "{second_text}");
        // Per-system overrides are echoed so reports are self-describing.
        let cmd = survey(
            &["babelstream_omp"],
            SuiteRunner::new(&["csd3", "archer2"])
                .with_fault_profile(FaultProfile::flaky())
                .with_fault_override("archer2", FaultProfile::none())
                .with_max_retries(6),
        );
        let (text, _) = run_cmd(cmd);
        assert!(text.contains("fault overrides: archer2=none"), "{text}");
        assert!(text.contains("fault profile `flaky`:"), "{text}");
    }

    #[test]
    fn parse_store_flag_and_subcommands() {
        match parse(&argv("survey -c hpgmg --system csd3 --store /tmp/st")).unwrap() {
            Command::Survey { suite, .. } => {
                assert_eq!(suite.store, Some("/tmp/st".into()))
            }
            other => panic!("{other:?}"),
        }

        assert_eq!(
            parse(&argv("store gc /tmp/st")).unwrap(),
            Command::StoreGc {
                dir: "/tmp/st".into(),
                keep: 5
            }
        );
        assert_eq!(
            parse(&argv("store gc /tmp/st --keep 2")).unwrap(),
            Command::StoreGc {
                dir: "/tmp/st".into(),
                keep: 2
            }
        );
        assert!(parse(&argv("store gc")).is_err(), "missing dir");
        assert!(parse(&argv("store")).is_err(), "missing subcommand");
        assert!(parse(&argv("store gc /tmp/st --keep nope")).is_err());

        assert_eq!(
            parse(&argv("store fsck /tmp/st")).unwrap(),
            Command::StoreFsck {
                dir: "/tmp/st".into(),
                json: false
            }
        );
        assert_eq!(
            parse(&argv("store fsck /tmp/st --json")).unwrap(),
            Command::StoreFsck {
                dir: "/tmp/st".into(),
                json: true
            }
        );
        assert!(parse(&argv("store fsck")).is_err(), "missing dir");
        assert!(parse(&argv("store fsck /tmp/st --wat")).is_err());

        assert_eq!(
            parse(&argv("checkpoint gc /tmp/ck")).unwrap(),
            Command::CheckpointGc {
                dir: "/tmp/ck".into(),
                force: false
            }
        );
        assert_eq!(
            parse(&argv("checkpoint gc /tmp/ck --force")).unwrap(),
            Command::CheckpointGc {
                dir: "/tmp/ck".into(),
                force: true
            }
        );
        assert!(parse(&argv("checkpoint gc")).is_err(), "missing dir");
        assert!(parse(&argv("checkpoint")).is_err(), "missing subcommand");

        assert_eq!(
            parse(&argv("bench-digest a.json b.json")).unwrap(),
            Command::BenchDigest {
                logs: vec!["a.json".into(), "b.json".into()],
                min_speedups: vec![],
                rank_groups: vec![]
            }
        );
        assert_eq!(
            parse(&argv(
                "bench-digest a.json --min-speedup g/base:g/fast:1.2 --min-speedup x/a:y/b:0.5"
            ))
            .unwrap(),
            Command::BenchDigest {
                logs: vec!["a.json".into()],
                min_speedups: vec!["g/base:g/fast:1.2".into(), "x/a:y/b:0.5".into()],
                rank_groups: vec![]
            }
        );
        assert!(parse(&argv("bench-digest")).is_err(), "missing logs");
        assert!(
            parse(&argv("bench-digest --min-speedup")).is_err(),
            "flag needs a value"
        );
        assert!(parse(&argv("bench-digest --wat")).is_err());
    }

    #[test]
    fn survey_with_store_reports_accounting_and_gc_runs() {
        // Cold study populates the store; a warm rerun hits it; the FOM
        // frame is byte-identical. Then both gc subcommands run against
        // the artifacts the surveys left behind.
        let store_dir = tmpdir("cli-store");
        let ck_dir = tmpdir("cli-store-ck");
        let make = |checkpoint: bool| {
            let suite = SuiteRunner::new(&["csd3"]).with_store(&store_dir);
            let suite = if checkpoint {
                suite.with_checkpoint(&ck_dir)
            } else {
                suite
            };
            survey(&["babelstream_omp", "babelstream_tbb"], suite)
        };
        let (cold, cold_err) = run_cmd(make(false));
        assert!(cold_err.is_none(), "{cold_err:?}");
        assert!(
            cold.contains("store: 0 hits,"),
            "cold run misses everything: {cold}"
        );
        let (warm, warm_err) = run_cmd(make(true));
        assert!(warm_err.is_none(), "{warm_err:?}");
        let store_line = warm
            .lines()
            .find(|l| l.starts_with("store: "))
            .expect("accounting line present");
        let hits: usize = store_line
            .strip_prefix("store: ")
            .and_then(|s| s.split(" hits").next())
            .and_then(|s| s.parse().ok())
            .expect("hits count parses");
        assert!(hits > 0, "{store_line}");
        // Build accounting (the streamed per-cell `built/cached` lines and
        // the store line) legitimately differs between cold and warm runs;
        // the outcome counts and the FOM frame must not.
        let strip = |text: &str| {
            text.lines()
                .filter(|l| !l.starts_with("store: ") && !l.starts_with('['))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&cold), strip(&warm));

        // store gc keeps everything the last studies referenced.
        let (text, err) = run_cmd(Command::StoreGc {
            dir: store_dir.to_string_lossy().into_owned(),
            keep: 5,
        });
        assert!(err.is_none(), "{err:?}");
        assert!(text.contains("store gc: kept "), "{text}");
        assert!(text.contains("evicted 0"), "{text}");

        // checkpoint gc collects the completed journal, keeping memory.
        let (text, err) = run_cmd(Command::CheckpointGc {
            dir: ck_dir.to_string_lossy().into_owned(),
            force: false,
        });
        assert!(err.is_none(), "{err:?}");
        assert!(text.contains("collected journal"), "{text}");
        assert!(!ck_dir.join(harness::checkpoint::JOURNAL_FILE).exists());

        // The store the surveys left behind passes fsck.
        let (text, err) = run_cmd(Command::StoreFsck {
            dir: store_dir.to_string_lossy().into_owned(),
            json: false,
        });
        assert!(err.is_none(), "{err:?}");
        assert!(text.contains("store fsck: "), "{text}");
        assert!(text.contains(" 0 invalid"), "{text}");

        let _ = std::fs::remove_dir_all(&store_dir);
        let _ = std::fs::remove_dir_all(&ck_dir);
    }

    #[test]
    fn contended_store_survey_reports_identically_and_fsck_flags_corruption() {
        // A second *live* writer holding every shard lease must not change
        // a single byte of the survey report outside the store accounting
        // line — the contended run only skips its persists.
        let clean_dir = tmpdir("cli-store-clean");
        let busy_dir = tmpdir("cli-store-held");
        let make = |dir: &std::path::Path| {
            survey(
                &["babelstream_omp"],
                SuiteRunner::new(&["csd3"]).with_store(dir),
            )
        };
        let (clean_text, err) = run_cmd(make(&clean_dir));
        assert!(err.is_none(), "{err:?}");

        let mut holder = spackle::DiskStore::open(&busy_dir).unwrap();
        assert_eq!(holder.acquire_all(), spackle::SHARD_COUNT);
        let (busy_text, err) = run_cmd(make(&busy_dir));
        assert!(
            err.is_none(),
            "contention must not fail the survey: {err:?}"
        );
        assert!(
            busy_text.contains("skipped (shard leased elsewhere)"),
            "{busy_text}"
        );
        assert!(
            busy_text.contains("shards held by a live writer"),
            "{busy_text}"
        );
        let strip = |text: &str| {
            text.lines()
                .filter(|l| !l.starts_with("store: "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip(&clean_text),
            strip(&busy_text),
            "contended report byte-identical outside the store line"
        );
        drop(holder);

        // fsck: the populated store is clean; planting one unreadable
        // committed entry flips the exit to nonzero and names the file.
        let (text, err) = run_cmd(Command::StoreFsck {
            dir: clean_dir.to_string_lossy().into_owned(),
            json: false,
        });
        assert!(err.is_none(), "{err:?}");
        assert!(text.contains(" 0 invalid"), "{text}");
        // --json: one machine-readable object, same exit semantics.
        let (json_text, err) = run_cmd(Command::StoreFsck {
            dir: clean_dir.to_string_lossy().into_owned(),
            json: true,
        });
        assert!(err.is_none(), "{err:?}");
        let parsed = tinycfg::parse(json_text.trim()).expect("fsck --json parses");
        assert_eq!(
            parsed.get_path("clean").and_then(|v| v.as_bool()),
            Some(true),
            "{json_text}"
        );
        let shard = clean_dir.join(spackle::shard_name("deadbeef"));
        std::fs::create_dir_all(&shard).unwrap();
        std::fs::write(shard.join("deadbeef.json"), "{not an entry}\n").unwrap();
        let (text, err) = run_cmd(Command::StoreFsck {
            dir: clean_dir.to_string_lossy().into_owned(),
            json: false,
        });
        assert!(err.is_some(), "invalid committed entry must exit nonzero");
        assert!(text.contains("deadbeef.json:"), "{text}");
        let (json_text, err) = run_cmd(Command::StoreFsck {
            dir: clean_dir.to_string_lossy().into_owned(),
            json: true,
        });
        assert!(err.is_some(), "--json must keep the nonzero exit");
        let parsed = tinycfg::parse(json_text.trim()).expect("fsck --json parses");
        assert_eq!(
            parsed.get_path("clean").and_then(|v| v.as_bool()),
            Some(false),
            "{json_text}"
        );

        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&busy_dir);
    }

    #[test]
    fn bench_digest_renders_and_flags_regressions() {
        let dir = tmpdir("cli-digest");
        std::fs::create_dir_all(&dir).unwrap();
        let line = |median: f64| {
            format!(
                "{{\"criterion\": true, \"group\": \"suite\", \"id\": \"symgs\", \
                 \"min_ns\": {median}, \"median_ns\": {median}}}\n"
            )
        };
        let mut logs = Vec::new();
        for (i, median) in [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 100.3]
            .iter()
            .enumerate()
        {
            let path = dir.join(format!("run-{i}.json"));
            std::fs::write(&path, line(*median)).unwrap();
            logs.push(path.to_string_lossy().into_owned());
        }
        // A healthy history digests cleanly.
        let (text, err) = run_cmd(Command::BenchDigest {
            logs: logs.clone(),
            min_speedups: vec![],
            rank_groups: vec![],
        });
        assert!(err.is_none(), "{err:?}");
        assert!(text.contains("suite/symgs: "), "{text}");
        assert!(text.contains("ok (z="), "{text}");
        // A 3x slowdown in the newest run is a regression (lower is
        // better for wall times) and a nonzero exit.
        let bad = dir.join("run-bad.json");
        std::fs::write(&bad, line(300.0)).unwrap();
        logs.push(bad.to_string_lossy().into_owned());
        let (text, err) = run_cmd(Command::BenchDigest {
            logs,
            min_speedups: vec![],
            rank_groups: vec![],
        });
        let err = err.expect("regression must fail the digest");
        assert!(err.contains("regressed"), "{err}");
        assert!(text.contains("REGRESSION"), "{text}");
        // Unreadable and empty inputs fail loudly, not silently.
        let (_, err) = run_cmd(Command::BenchDigest {
            logs: vec![dir.join("nope.json").to_string_lossy().into_owned()],
            min_speedups: vec![],
            rank_groups: vec![],
        });
        assert!(err.unwrap().contains("cannot read"), "unreadable log");
        let empty = dir.join("empty.json");
        std::fs::write(&empty, "no criterion lines here\n").unwrap();
        let (_, err) = run_cmd(Command::BenchDigest {
            logs: vec![empty.to_string_lossy().into_owned()],
            min_speedups: vec![],
            rank_groups: vec![],
        });
        assert!(err.unwrap().contains("no criterion records"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_serve_push_query() {
        assert_eq!(
            parse(&argv("serve /tmp/st --addr 127.0.0.1:0")).unwrap(),
            Command::Serve {
                dir: "/tmp/st".into(),
                addr: "127.0.0.1:0".into(),
                workers: 4,
                queue: 16,
                read_timeout_ms: 5_000,
                max_body: 4 * 1024 * 1024,
            }
        );
        assert_eq!(
            parse(&argv(
                "serve /tmp/st --addr 0.0.0.0:8080 --workers 2 --queue 0 \
                 --read-timeout-ms 250 --max-body 1024"
            ))
            .unwrap(),
            Command::Serve {
                dir: "/tmp/st".into(),
                addr: "0.0.0.0:8080".into(),
                workers: 2,
                queue: 0,
                read_timeout_ms: 250,
                max_body: 1024,
            }
        );
        assert!(parse(&argv("serve /tmp/st")).is_err(), "missing --addr");
        assert!(
            parse(&argv("serve --addr 127.0.0.1:0")).is_err(),
            "missing dir"
        );
        assert!(parse(&argv("serve /tmp/st --addr a:0 --workers 0")).is_err());
        assert!(parse(&argv("serve /tmp/st --addr a:0 --wat")).is_err());

        assert_eq!(
            parse(&argv("push study-a/ --to 127.0.0.1:8080")).unwrap(),
            Command::Push {
                dir: "study-a/".into(),
                to: "127.0.0.1:8080".into(),
                max_retries: 5,
            }
        );
        assert_eq!(
            parse(&argv("push a.jsonl --to h:1 --max-retries 0")).unwrap(),
            Command::Push {
                dir: "a.jsonl".into(),
                to: "h:1".into(),
                max_retries: 0,
            }
        );
        assert!(parse(&argv("push study-a/")).is_err(), "missing --to");
        assert!(parse(&argv("push --to h:1")).is_err(), "missing dir");

        assert_eq!(
            parse(&argv("query 127.0.0.1:8080 /v1/health")).unwrap(),
            Command::Query {
                addr: "127.0.0.1:8080".into(),
                path: "/v1/health".into(),
            }
        );
        assert!(
            parse(&argv("query 127.0.0.1:8080")).is_err(),
            "missing path"
        );
        assert!(
            parse(&argv("query 127.0.0.1:8080 v1/health")).is_err(),
            "path must start with /"
        );
    }

    #[test]
    fn parse_rank_and_cmp() {
        assert_eq!(
            parse(&argv("rank study-a/")).unwrap(),
            Command::Rank {
                inputs: vec!["study-a/".into()],
                lower_is_better: false,
                markdown: false,
                jobs: 1,
            }
        );
        assert_eq!(
            parse(&argv(
                "rank a.jsonl b.jsonl --lower-is-better --markdown -j 4"
            ))
            .unwrap(),
            Command::Rank {
                inputs: vec!["a.jsonl".into(), "b.jsonl".into()],
                lower_is_better: true,
                markdown: true,
                jobs: 4,
            }
        );
        assert!(parse(&argv("rank")).is_err(), "missing inputs");
        assert!(parse(&argv("rank a --wat")).is_err());
        assert!(parse(&argv("rank a --jobs nope")).is_err());

        assert_eq!(
            parse(&argv("cmp study-a study-b")).unwrap(),
            Command::Cmp {
                study_a: "study-a".into(),
                study_b: "study-b".into(),
                threshold_pct: 2.0,
                lower_is_better: false,
                markdown: false,
                jobs: 1,
            }
        );
        assert_eq!(
            parse(&argv(
                "cmp a b --threshold 7.5 --lower-is-better --markdown --jobs 2"
            ))
            .unwrap(),
            Command::Cmp {
                study_a: "a".into(),
                study_b: "b".into(),
                threshold_pct: 7.5,
                lower_is_better: true,
                markdown: true,
                jobs: 2,
            }
        );
        assert!(parse(&argv("cmp a")).is_err(), "needs two studies");
        assert!(parse(&argv("cmp a b c")).is_err(), "exactly two studies");
        // The threshold must be a usable percentage — a NaN threshold
        // would make every comparison silently "unchanged".
        for bad in ["nope", "-3", "NaN", "inf"] {
            assert!(
                parse(&argv(&format!("cmp a b --threshold {bad}"))).is_err(),
                "threshold `{bad}` must be rejected"
            );
        }

        // Survey grows --perflog.
        match parse(&argv("survey -c hpgmg --system csd3 --perflog out/")).unwrap() {
            Command::Survey { perflog, .. } => assert_eq!(perflog.as_deref(), Some("out/")),
            other => panic!("{other:?}"),
        }

        // bench-digest grows --rank, which needs history to compare.
        match parse(&argv("bench-digest a.json b.json --rank stream")).unwrap() {
            Command::BenchDigest { rank_groups, .. } => {
                assert_eq!(rank_groups, vec!["stream"]);
            }
            other => panic!("{other:?}"),
        }
        let err = parse(&argv("bench-digest a.json --rank stream"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("at least two logs"), "{err}");
    }

    #[test]
    fn survey_perflog_records_failed_cells_and_resumes_them() {
        // A cell that fails for good writes its `result=fail` record, and a
        // study resumed past that cell writes the same perflog files.
        let make = |seed: u64, dir: &std::path::Path, resume: bool, out: &std::path::Path| {
            let suite = SuiteRunner::new(&["csd3", "archer2"])
                .with_seed(seed)
                .with_jobs(2)
                .with_fault_profile(FaultProfile::flaky())
                .with_max_retries(0);
            let suite = if resume {
                suite.with_resume(dir)
            } else {
                suite.with_checkpoint(dir)
            };
            let mut cmd = survey(&["babelstream_omp", "hpgmg", "stream"], suite);
            if let Command::Survey { perflog, .. } = &mut cmd {
                *perflog = Some(out.to_string_lossy().into_owned());
            }
            cmd
        };
        let files = |dir: &std::path::Path| -> Vec<(String, String)> {
            let mut all: Vec<(String, String)> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| {
                    let path = e.unwrap().path();
                    let name = path.file_name().unwrap().to_string_lossy().into_owned();
                    (name, std::fs::read_to_string(&path).unwrap())
                })
                .collect();
            all.sort();
            all
        };
        let seed = (0..20)
            .find(|&seed| {
                let (ck, out) = (tmpdir("failrec-probe"), tmpdir("failrec-probe-out"));
                let (_, err) = run_cmd(make(seed, &ck, false, &out));
                let _ = std::fs::remove_dir_all(&ck);
                let _ = std::fs::remove_dir_all(&out);
                err.is_some()
            })
            .expect("some seed in 0..20 fails a cell under flaky without retries");
        let (ck, full) = (tmpdir("failrec-ck"), tmpdir("failrec-full"));
        let (full_text, full_err) = run_cmd(make(seed, &ck, false, &full));
        assert!(full_err.is_some(), "{full_text}");
        let full_files = files(&full);
        let fail_lines: Vec<&str> = full_files
            .iter()
            .flat_map(|(_, text)| text.lines())
            .filter(|l| l.contains(r#""result":"fail""#))
            .collect();
        assert!(
            !fail_lines.is_empty(),
            "no result=fail record: {full_files:?}"
        );
        // Resume from a journal cut just after the first failed cell, so
        // the failure is replayed rather than re-run.
        let journal = std::fs::read_to_string(ck.join(harness::checkpoint::JOURNAL_FILE)).unwrap();
        let lines: Vec<&str> = journal.lines().collect();
        let first_failed = lines
            .iter()
            .position(|l| l.contains(r#""failed":"#))
            .expect("the journal holds the failed cell");
        let (ck2, resumed) = (tmpdir("failrec-ck2"), tmpdir("failrec-resumed"));
        std::fs::create_dir_all(&ck2).unwrap();
        std::fs::write(
            ck2.join(harness::checkpoint::JOURNAL_FILE),
            lines[..=first_failed].join("\n") + "\n",
        )
        .unwrap();
        let (text, err) = run_cmd(make(seed, &ck2, true, &resumed));
        assert_eq!(err, full_err);
        assert_eq!(
            text.replace(resumed.to_str().unwrap(), "OUT"),
            full_text.replace(full.to_str().unwrap(), "OUT")
        );
        assert_eq!(files(&resumed), full_files);
        for dir in [ck, full, ck2, resumed] {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn survey_perflog_export_then_rank_end_to_end() {
        // The tentpole, end to end: survey two systems into a perflog
        // directory, then rank them — byte-identically at any --jobs.
        let dir = tmpdir("rank-e2e");
        let mut cmd = survey(&["babelstream_omp"], SuiteRunner::new(&["csd3", "archer2"]));
        if let Command::Survey { perflog, .. } = &mut cmd {
            *perflog = Some(dir.to_string_lossy().into_owned());
        }
        let (text, err) = run_cmd(cmd);
        assert!(err.is_none(), "{err:?}");
        assert!(text.contains("perflogs: 2 files written"), "{text}");
        assert!(dir.join("csd3-babelstream.jsonl").exists());
        assert!(dir.join("archer2-babelstream.jsonl").exists());

        let rank_at = |jobs: usize, markdown: bool| {
            run_cmd(Command::Rank {
                inputs: vec![dir.to_string_lossy().into_owned()],
                lower_is_better: false,
                markdown,
                jobs,
            })
        };
        let (serial, err) = rank_at(1, false);
        assert!(err.is_none(), "{err:?}");
        assert!(serial.contains("ranking 2 systems"), "{serial}");
        assert!(
            serial.contains("csd3") && serial.contains("archer2"),
            "{serial}"
        );
        assert!(serial.contains("1.0000"), "best system scores 1: {serial}");
        for jobs in [2, 8, 0] {
            assert_eq!(serial, rank_at(jobs, false).0, "jobs={jobs}");
        }
        let (md, err) = rank_at(1, true);
        assert!(err.is_none(), "{err:?}");
        assert!(md.contains("| rank | system |"), "{md}");

        // Self-comparison: every shared cell is unchanged at any jobs.
        let cmp_at = |jobs: usize| {
            run_cmd(Command::Cmp {
                study_a: dir.to_string_lossy().into_owned(),
                study_b: dir.to_string_lossy().into_owned(),
                threshold_pct: 2.0,
                lower_is_better: false,
                markdown: false,
                jobs,
            })
        };
        let (self_cmp, err) = cmp_at(1);
        assert!(err.is_none(), "{err:?}");
        assert!(self_cmp.contains(" 0 improved, 0 regressed,"), "{self_cmp}");
        assert!(!self_cmp.contains("missing in"), "{self_cmp}");
        for jobs in [2, 8] {
            assert_eq!(self_cmp, cmp_at(jobs).0, "jobs={jobs}");
        }

        // Unreadable input fails loudly.
        let (_, err) = run_cmd(Command::Rank {
            inputs: vec![dir.join("nope.jsonl").to_string_lossy().into_owned()],
            lower_is_better: false,
            markdown: false,
            jobs: 1,
        });
        assert!(err.unwrap().contains("cannot read"), "unreadable perflog");
        let empty = tmpdir("rank-empty");
        std::fs::create_dir_all(&empty).unwrap();
        let (_, err) = run_cmd(Command::Rank {
            inputs: vec![empty.to_string_lossy().into_owned()],
            lower_is_better: false,
            markdown: false,
            jobs: 1,
        });
        assert!(err.unwrap().contains("no .jsonl perflogs"), "empty dir");
        std::fs::remove_dir_all(&empty).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One single-record perflog file per (system, value).
    fn write_study(dir: &std::path::Path, cells: &[(&str, &str, f64)]) {
        use perflogs::{Fom, Perflog, PerflogRecord};
        std::fs::create_dir_all(dir).unwrap();
        for (system, fom, value) in cells {
            let mut log = Perflog::new();
            log.append(PerflogRecord {
                sequence: 1,
                benchmark: "babelstream_omp".into(),
                system: (*system).into(),
                partition: "".into(),
                environ: "gcc".into(),
                spec: "babelstream +omp".into(),
                build_hash: "cafef00d".into(),
                job_id: Some(1),
                num_tasks: 1,
                num_tasks_per_node: 1,
                num_cpus_per_task: 1,
                foms: vec![Fom {
                    name: (*fom).into(),
                    value: *value,
                    unit: "MB/s".into(),
                }],
                extras: vec![],
            });
            std::fs::write(dir.join(format!("{system}-{fom}.jsonl")), log.to_jsonl()).unwrap();
        }
    }

    #[test]
    fn cmp_classifies_synthetic_studies_and_respects_threshold() {
        let a = tmpdir("cmp-a");
        let b = tmpdir("cmp-b");
        write_study(
            &a,
            &[
                ("up", "Triad", 100.0),
                ("down", "Triad", 100.0),
                ("flat", "Triad", 100.0),
                ("gone", "Triad", 100.0),
            ],
        );
        write_study(
            &b,
            &[
                ("up", "Triad", 110.0),
                ("down", "Triad", 90.0),
                ("flat", "Triad", 101.0),
                ("new", "Triad", 42.0),
            ],
        );
        let cmp_with = |threshold_pct: f64| {
            run_cmd(Command::Cmp {
                study_a: a.to_string_lossy().into_owned(),
                study_b: b.to_string_lossy().into_owned(),
                threshold_pct,
                lower_is_better: false,
                markdown: false,
                jobs: 1,
            })
        };
        let (text, err) = cmp_with(2.0);
        assert!(err.is_none(), "cmp is informational: {err:?}");
        assert!(text.contains("+10.00%"), "{text}");
        assert!(text.contains("-10.00%"), "{text}");
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("missing in A"), "{text}");
        assert!(text.contains("missing in B"), "{text}");
        assert!(
            text.contains("1 improved, 1 regressed, 1 unchanged, 2 missing"),
            "{text}"
        );
        // A wide threshold absorbs both the +10% and the -10%.
        let (text, _) = cmp_with(15.0);
        assert!(
            text.contains("0 improved, 0 regressed, 3 unchanged, 2 missing"),
            "{text}"
        );
        // Lower-is-better flips improved and regressed.
        let (text, _) = run_cmd(Command::Cmp {
            study_a: a.to_string_lossy().into_owned(),
            study_b: b.to_string_lossy().into_owned(),
            threshold_pct: 2.0,
            lower_is_better: true,
            markdown: false,
            jobs: 1,
        });
        assert!(
            text.contains("1 improved, 1 regressed, 1 unchanged, 2 missing"),
            "{text}"
        );
        let down_line = text.lines().find(|l| l.contains(" down ")).unwrap();
        assert!(down_line.contains("improved"), "{down_line}");
        std::fs::remove_dir_all(&a).unwrap();
        std::fs::remove_dir_all(&b).unwrap();
    }

    #[test]
    fn rank_surfaces_nan_and_missing_cells_from_perflogs() {
        // A NaN FOM in a study must appear as a reported skip in the CLI
        // output, not win the ranking (total_cmp would sort it first) nor
        // vanish (f64::min would drop it).
        let dir = tmpdir("rank-nan");
        write_study(
            &dir,
            &[
                ("good", "Triad", 100.0),
                ("better", "Triad", 200.0),
                ("broken", "Triad", f64::NAN),
            ],
        );
        let (text, err) = run_cmd(Command::Rank {
            inputs: vec![dir.to_string_lossy().into_owned()],
            lower_is_better: false,
            markdown: false,
            jobs: 1,
        });
        assert!(err.is_none(), "{err:?}");
        let lines: Vec<&str> = text.lines().collect();
        let pos = |s: &str| lines.iter().position(|l| l.contains(s)).unwrap();
        assert!(pos("better") < pos("good"), "{text}");
        assert!(pos("good") < pos("broken"), "NaN system ranks last: {text}");
        assert!(
            text.contains("skipped: broken lacks babelstream_omp/Triad (non-finite value NaN)"),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bench_digest_rank_flip_gate() {
        let dir = tmpdir("cli-digest-rank");
        std::fs::create_dir_all(&dir).unwrap();
        let log = |fast_ns: u32| {
            format!(
                "{{\"criterion\": 1, \"group\": \"spmv\", \"id\": \"sell\", \
                  \"min_ns\": {fast_ns}, \"median_ns\": {fast_ns}, \"elements\": 100}}\n\
                 {{\"criterion\": 1, \"group\": \"spmv\", \"id\": \"csr\", \
                  \"min_ns\": 10, \"median_ns\": 10, \"elements\": 100}}\n"
            )
        };
        let write = |name: &str, text: String| {
            let p = dir.join(name);
            std::fs::write(&p, text).unwrap();
            p.to_string_lossy().into_owned()
        };
        let old = write("old.json", log(5));
        let stable = write("stable.json", log(6));
        let flipped = write("flipped.json", log(50));
        let digest = |logs: Vec<String>, groups: &[&str]| {
            run_cmd(Command::BenchDigest {
                logs,
                min_speedups: vec![],
                rank_groups: groups.iter().map(|s| s.to_string()).collect(),
            })
        };
        // sell faster than csr in both logs: stable, exit 0.
        let (text, err) = digest(vec![old.clone(), stable], &["spmv"]);
        assert!(err.is_none(), "{err:?}");
        assert!(text.contains("rank spmv: stable (sell > csr)"), "{text}");
        // The newest log inverts the order: loud flip, exit nonzero.
        let (text, err) = digest(vec![old.clone(), flipped], &["spmv"]);
        assert!(
            text.contains("RANK FLIP (sell > csr -> csr > sell)"),
            "{text}"
        );
        assert!(err.unwrap().contains("ranking(s) flipped"));
        // A group absent from the logs fails loudly.
        let (_, err) = digest(vec![old.clone(), old], &["nope"]);
        assert!(err.unwrap().contains("no criterion records"), "bad group");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bench_digest_min_speedup_floors() {
        let dir = tmpdir("cli-digest-floor");
        std::fs::create_dir_all(&dir).unwrap();
        // One run: copy moves 16 bytes in 2 ns (8 bytes/ns), triad moves
        // 24 bytes in 4 ns (6 bytes/ns) → triad speed is 0.75x of copy.
        // The elements-only point exercises the other work unit, and the
        // bare point (no throughput) falls back to inverse time.
        let log = dir.join("run.json");
        std::fs::write(
            &log,
            "{\"criterion\": 1, \"group\": \"g\", \"id\": \"copy\", \
              \"min_ns\": 2, \"median_ns\": 2, \"bytes\": 16}\n\
             {\"criterion\": 1, \"group\": \"g\", \"id\": \"triad\", \
              \"min_ns\": 4, \"median_ns\": 4, \"bytes\": 24}\n\
             {\"criterion\": 1, \"group\": \"s\", \"id\": \"csr\", \
              \"min_ns\": 10, \"median_ns\": 10, \"elements\": 100}\n\
             {\"criterion\": 1, \"group\": \"s\", \"id\": \"sell\", \
              \"min_ns\": 5, \"median_ns\": 5, \"elements\": 100}\n",
        )
        .unwrap();
        let logs = vec![log.to_string_lossy().into_owned()];
        let digest = |specs: &[&str]| {
            run_cmd(Command::BenchDigest {
                logs: logs.clone(),
                min_speedups: specs.iter().map(|s| s.to_string()).collect(),
                rank_groups: vec![],
            })
        };
        // Both floors hold: triad ≥ 0.66× copy, sell ≥ 1.2× csr (it's 2x).
        let (text, err) = digest(&["g/copy:g/triad:0.66", "s/csr:s/sell:1.2"]);
        assert!(err.is_none(), "{err:?}");
        assert!(
            text.contains("g/triad vs g/copy: 0.75x (floor 0.66x) ok"),
            "{text}"
        );
        assert!(
            text.contains("s/sell vs s/csr: 2.00x (floor 1.2x) ok"),
            "{text}"
        );
        // A floor above the measured ratio fails the digest.
        let (text, err) = digest(&["g/copy:g/triad:0.9"]);
        assert!(text.contains("FLOOR MISSED"), "{text}");
        assert!(err.unwrap().contains("floor(s) missed"));
        // Malformed specs and absent benchmarks fail loudly.
        assert!(digest(&["nonsense"])
            .1
            .unwrap()
            .contains("bad --min-speedup"));
        assert!(digest(&["g/copy:g/triad:fast"])
            .1
            .unwrap()
            .contains("bad --min-speedup"));
        assert!(digest(&["g/copy:g/nope:1.0"])
            .1
            .unwrap()
            .contains("missing from the newest log"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
