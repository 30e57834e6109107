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

use crate::study::Study;
use harness::{cases, Harness, RunOptions, TestCase};
use std::fmt;

/// A parsed CLI invocation.
// One `Command` exists per process; `Survey` carrying its full engine
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
    /// --resume DIR] [--interrupt-after N]`
    Survey {
        benchmarks: Vec<String>,
        systems: Vec<String>,
        seed: u64,
        jobs: usize,
        warm_store: bool,
        fault_profile: String,
        /// Per-system overrides: (system spec, profile name).
        fault_overrides: Vec<(String, String)>,
        max_retries: u32,
        fail_fast: bool,
        quarantine: u32,
        /// Return drained nodes after each system's repair window.
        heal: bool,
        /// Journal completed cells into this directory (fresh journal).
        checkpoint: Option<String>,
        /// Continue an interrupted survey from this directory's journal.
        resume: Option<String>,
        /// Abort the process (exit 3) after this many cells have been
        /// journaled — a deterministic crash for resume testing.
        interrupt_after: Option<usize>,
        /// Persistent package store directory (`--store DIR`): warm
        /// builds from it, persist new builds back into it.
        store: Option<String>,
        /// Write one `<system>-<benchmark>.jsonl` perflog per surveyed
        /// (system, benchmark family) into this directory (`--perflog`),
        /// the input format of `rank` and `cmp`.
        perflog: Option<String>,
        /// External engine subprocess for every case's run stage
        /// (`--engine SPEC`), speaking the KLV protocol.
        engine: Option<engine::EngineSpec>,
        /// Per-case engine overrides (`--engine CASE=SPEC`).
        engine_overrides: Vec<(String, engine::EngineSpec)>,
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

pub const USAGE: &str = "benchkit — automated and reproducible benchmarking

USAGE:
    benchkit list-systems
    benchkit list-benchmarks
    benchkit run -c <benchmark> --system <system[:partition]> [--seed N] [--repeats N]
    benchkit survey -c <benchmark>... --system <system>... [--seed N] [--jobs N] [--warm-store]
                    [--fault-profile [SYS=]NAME]... [--max-retries N] [--fail-fast]
                    [--quarantine K] [--heal] [--checkpoint DIR | --resume DIR]
                    [--interrupt-after N] [--store DIR]
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

/// Parse an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    let rest: Vec<String> = it.cloned().collect();
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list-systems" => Ok(Command::ListSystems),
        "list-benchmarks" => Ok(Command::ListBenchmarks),
        "run" => {
            let opts = parse_options(&rest)?;
            if opts.warm_store {
                return Err(CliError(
                    "run: `--warm-store` only applies to `survey`".into(),
                ));
            }
            for (set, flag) in [
                (!opts.fault_profiles.is_empty(), "--fault-profile"),
                (opts.max_retries.is_some(), "--max-retries"),
                (opts.fail_fast, "--fail-fast"),
                (opts.quarantine.is_some(), "--quarantine"),
                (opts.heal, "--heal"),
                (opts.checkpoint.is_some(), "--checkpoint"),
                (opts.resume.is_some(), "--resume"),
                (opts.interrupt_after.is_some(), "--interrupt-after"),
                (opts.store.is_some(), "--store"),
                (opts.perflog.is_some(), "--perflog"),
                (!opts.engines.is_empty(), "--engine"),
                (opts.engine_timeout.is_some(), "--engine-timeout"),
            ] {
                if set {
                    return Err(CliError(format!("run: `{flag}` only applies to `survey`")));
                }
            }
            let benchmark = opts
                .cases
                .first()
                .cloned()
                .ok_or_else(|| CliError("run: missing `-c <benchmark>`".into()))?;
            let system = opts
                .systems
                .first()
                .cloned()
                .ok_or_else(|| CliError("run: missing `--system`".into()))?;
            Ok(Command::Run {
                benchmark,
                system,
                seed: opts.seed,
                repeats: opts.repeats,
            })
        }
        "survey" => {
            let opts = parse_options(&rest)?;
            if opts.cases.is_empty() {
                return Err(CliError("survey: at least one `-c <benchmark>`".into()));
            }
            if opts.systems.is_empty() {
                return Err(CliError("survey: at least one `--system`".into()));
            }
            if opts.checkpoint.is_some() && opts.resume.is_some() {
                return Err(CliError(
                    "survey: `--checkpoint` and `--resume` are mutually exclusive \
                     (--resume continues an existing checkpoint directory)"
                        .into(),
                ));
            }
            // Split repeated --fault-profile values into the base profile
            // (bare NAME, at most once) and per-system overrides
            // (SYS=NAME, at most once per system, SYS must be surveyed).
            let mut fault_profile: Option<String> = None;
            let mut fault_overrides: Vec<(String, String)> = Vec::new();
            for value in &opts.fault_profiles {
                match value.split_once('=') {
                    None => {
                        if fault_profile.is_some() {
                            return Err(CliError(format!(
                                "survey: duplicate base `--fault-profile {value}` \
                                 (use SYS=NAME for per-system overrides)"
                            )));
                        }
                        fault_profile = Some(value.clone());
                    }
                    Some((system, name)) => {
                        if !opts.systems.iter().any(|s| s == system) {
                            return Err(CliError(format!(
                                "survey: `--fault-profile {value}` names system `{system}` \
                                 which is not in the surveyed `--system` list"
                            )));
                        }
                        if fault_overrides.iter().any(|(s, _)| s == system) {
                            return Err(CliError(format!(
                                "survey: duplicate `--fault-profile` override for `{system}`"
                            )));
                        }
                        fault_overrides.push((system.to_string(), name.to_string()));
                    }
                }
            }
            // Split repeated --engine values into the base engine (bare
            // SPEC, at most once) and per-case overrides (CASE=SPEC, at
            // most once per case, CASE must be surveyed). A value counts
            // as an override only when everything before its first `=` is
            // shaped like a benchmark name, so engine commands containing
            // `=` (e.g. `./engine --mode=fast`) still parse as base specs.
            let default_timeout = opts.engine_timeout.unwrap_or(engine::DEFAULT_TIMEOUT_S);
            let parse_spec = |raw: &str| {
                engine::EngineSpec::parse(raw, default_timeout)
                    .map_err(|e| CliError(format!("survey: bad `--engine` spec `{raw}`: {e}")))
            };
            let case_shaped = |name: &str| {
                !name.is_empty()
                    && name
                        .bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
            };
            let mut engine_spec: Option<engine::EngineSpec> = None;
            let mut engine_overrides: Vec<(String, engine::EngineSpec)> = Vec::new();
            for value in &opts.engines {
                match value.split_once('=').filter(|(case, _)| case_shaped(case)) {
                    None => {
                        if engine_spec.is_some() {
                            return Err(CliError(format!(
                                "survey: duplicate base `--engine {value}` \
                                 (use CASE=SPEC for per-case overrides)"
                            )));
                        }
                        engine_spec = Some(parse_spec(value)?);
                    }
                    Some((case, spec)) => {
                        if !opts.cases.iter().any(|c| c == case) {
                            return Err(CliError(format!(
                                "survey: `--engine {value}` names case `{case}` \
                                 which is not in the surveyed `-c` list"
                            )));
                        }
                        if engine_overrides.iter().any(|(c, _)| c == case) {
                            return Err(CliError(format!(
                                "survey: duplicate `--engine` override for `{case}`"
                            )));
                        }
                        engine_overrides.push((case.to_string(), parse_spec(spec)?));
                    }
                }
            }
            if opts.engine_timeout.is_some() && opts.engines.is_empty() {
                return Err(CliError(
                    "survey: `--engine-timeout` requires `--engine`".into(),
                ));
            }
            Ok(Command::Survey {
                benchmarks: opts.cases,
                systems: opts.systems,
                seed: opts.seed,
                jobs: opts.jobs,
                warm_store: opts.warm_store,
                fault_profile: fault_profile.unwrap_or_else(|| "none".to_string()),
                fault_overrides,
                max_retries: opts.max_retries.unwrap_or(2),
                fail_fast: opts.fail_fast,
                quarantine: opts.quarantine.unwrap_or(0),
                heal: opts.heal,
                checkpoint: opts.checkpoint,
                resume: opts.resume,
                interrupt_after: opts.interrupt_after,
                store: opts.store,
                perflog: opts.perflog,
                engine: engine_spec,
                engine_overrides,
            })
        }
        "rank" => {
            let mut inputs = Vec::new();
            let mut lower_is_better = false;
            let mut markdown = false;
            let mut jobs = 1usize;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--lower-is-better" => {
                        lower_is_better = true;
                        i += 1;
                    }
                    "--markdown" => {
                        markdown = true;
                        i += 1;
                    }
                    "--jobs" | "-j" => {
                        let v = take_value(&rest, &mut i, "--jobs")?;
                        jobs = v.parse().map_err(|_| CliError(format!("bad jobs `{v}`")))?;
                    }
                    other if !other.starts_with('-') => {
                        inputs.push(other.to_string());
                        i += 1;
                    }
                    other => return Err(CliError(format!("rank: unexpected argument `{other}`"))),
                }
            }
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
            let mut studies = Vec::new();
            let mut threshold_pct = 2.0f64;
            let mut lower_is_better = false;
            let mut markdown = false;
            let mut jobs = 1usize;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--threshold" => {
                        let v = take_value(&rest, &mut i, "--threshold")?;
                        threshold_pct = v
                            .parse()
                            .ok()
                            .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                            .ok_or_else(|| {
                                CliError(format!(
                                    "bad threshold `{v}` (want a finite percentage ≥ 0)"
                                ))
                            })?;
                    }
                    "--lower-is-better" => {
                        lower_is_better = true;
                        i += 1;
                    }
                    "--markdown" => {
                        markdown = true;
                        i += 1;
                    }
                    "--jobs" | "-j" => {
                        let v = take_value(&rest, &mut i, "--jobs")?;
                        jobs = v.parse().map_err(|_| CliError(format!("bad jobs `{v}`")))?;
                    }
                    other if !other.starts_with('-') => {
                        studies.push(other.to_string());
                        i += 1;
                    }
                    other => return Err(CliError(format!("cmp: unexpected argument `{other}`"))),
                }
            }
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
                let mut dir = None;
                let mut keep = 5usize;
                let mut i = 1;
                while i < rest.len() {
                    match rest[i].as_str() {
                        "--keep" => {
                            let v = take_value(&rest, &mut i, "--keep")?;
                            keep = v.parse().map_err(|_| CliError(format!("bad keep `{v}`")))?;
                        }
                        other if !other.starts_with('-') && dir.is_none() => {
                            dir = Some(other.to_string());
                            i += 1;
                        }
                        other => {
                            return Err(CliError(format!(
                                "store gc: unexpected argument `{other}`"
                            )))
                        }
                    }
                }
                Ok(Command::StoreGc {
                    dir: dir.ok_or_else(|| CliError("store gc: missing <dir>".into()))?,
                    keep,
                })
            }
            Some("fsck") => {
                let mut dir = None;
                let mut json = false;
                for arg in &rest[1..] {
                    match arg.as_str() {
                        "--json" => json = true,
                        other if !other.starts_with('-') && dir.is_none() => {
                            dir = Some(other.to_string());
                        }
                        other => {
                            return Err(CliError(format!(
                                "store fsck: unexpected argument `{other}`"
                            )))
                        }
                    }
                }
                Ok(Command::StoreFsck {
                    dir: dir.ok_or_else(|| CliError("store fsck: missing <dir>".into()))?,
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
            let mut dir = None;
            let mut addr = None;
            let mut workers = 4usize;
            let mut queue = 16usize;
            let mut read_timeout_ms = 5_000u64;
            let mut max_body = 4 * 1024 * 1024usize;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--addr" => {
                        addr = Some(take_value(&rest, &mut i, "--addr")?);
                    }
                    "--workers" => {
                        let v = take_value(&rest, &mut i, "--workers")?;
                        workers = v.parse().ok().filter(|w: &usize| *w >= 1).ok_or_else(|| {
                            CliError(format!("bad workers `{v}` (want an integer ≥ 1)"))
                        })?;
                    }
                    "--queue" => {
                        let v = take_value(&rest, &mut i, "--queue")?;
                        queue = v
                            .parse()
                            .map_err(|_| CliError(format!("bad queue `{v}`")))?;
                    }
                    "--read-timeout-ms" => {
                        let v = take_value(&rest, &mut i, "--read-timeout-ms")?;
                        read_timeout_ms =
                            v.parse().ok().filter(|t: &u64| *t >= 1).ok_or_else(|| {
                                CliError(format!("bad read-timeout-ms `{v}` (want ≥ 1)"))
                            })?;
                    }
                    "--max-body" => {
                        let v = take_value(&rest, &mut i, "--max-body")?;
                        max_body = v.parse().ok().filter(|b: &usize| *b >= 1).ok_or_else(|| {
                            CliError(format!("bad max-body `{v}` (want bytes ≥ 1)"))
                        })?;
                    }
                    other if !other.starts_with('-') && dir.is_none() => {
                        dir = Some(other.to_string());
                        i += 1;
                    }
                    other => return Err(CliError(format!("serve: unexpected argument `{other}`"))),
                }
            }
            Ok(Command::Serve {
                dir: dir.ok_or_else(|| CliError("serve: missing <dir>".into()))?,
                addr: addr.ok_or_else(|| CliError("serve: missing `--addr HOST:PORT`".into()))?,
                workers,
                queue,
                read_timeout_ms,
                max_body,
            })
        }
        "push" => {
            let mut dir = None;
            let mut to = None;
            let mut max_retries = 5u32;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--to" => {
                        to = Some(take_value(&rest, &mut i, "--to")?);
                    }
                    "--max-retries" => {
                        let v = take_value(&rest, &mut i, "--max-retries")?;
                        max_retries = v
                            .parse()
                            .map_err(|_| CliError(format!("bad max-retries `{v}`")))?;
                    }
                    other if !other.starts_with('-') && dir.is_none() => {
                        dir = Some(other.to_string());
                        i += 1;
                    }
                    other => return Err(CliError(format!("push: unexpected argument `{other}`"))),
                }
            }
            Ok(Command::Push {
                dir: dir.ok_or_else(|| CliError("push: missing <dir-or-file>".into()))?,
                to: to.ok_or_else(|| CliError("push: missing `--to HOST:PORT`".into()))?,
                max_retries,
            })
        }
        "query" => {
            let mut positionals = Vec::new();
            for arg in &rest {
                if arg.starts_with("--") {
                    return Err(CliError(format!("query: unexpected argument `{arg}`")));
                }
                positionals.push(arg.clone());
            }
            let [addr, path]: [String; 2] = positionals
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
                let mut dir = None;
                let mut force = false;
                for arg in &rest[1..] {
                    match arg.as_str() {
                        "--force" => force = true,
                        other if !other.starts_with('-') && dir.is_none() => {
                            dir = Some(other.to_string());
                        }
                        other => {
                            return Err(CliError(format!(
                                "checkpoint gc: unexpected argument `{other}`"
                            )))
                        }
                    }
                }
                Ok(Command::CheckpointGc {
                    dir: dir.ok_or_else(|| CliError("checkpoint gc: missing <dir>".into()))?,
                    force,
                })
            }
            _ => Err(CliError(
                "checkpoint: expected a subcommand: `checkpoint gc <dir> [--force]`".into(),
            )),
        },
        "bench-digest" => {
            let mut logs = Vec::new();
            let mut min_speedups = Vec::new();
            let mut rank_groups = Vec::new();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--min-speedup" => {
                        min_speedups.push(take_value(&rest, &mut i, "--min-speedup")?);
                    }
                    "--rank" => {
                        rank_groups.push(take_value(&rest, &mut i, "--rank")?);
                    }
                    other if !other.starts_with('-') => {
                        logs.push(other.to_string());
                        i += 1;
                    }
                    other => {
                        return Err(CliError(format!(
                            "bench-digest: unexpected argument `{other}`"
                        )))
                    }
                }
            }
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
            let mut positional = None;
            let mut i = 0;
            let mut system = None;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--system" => {
                        system = Some(take_value(&rest, &mut i, "--system")?);
                    }
                    other if !other.starts_with('-') && positional.is_none() => {
                        positional = Some(other.to_string());
                        i += 1;
                    }
                    other => return Err(CliError(format!("spec: unexpected argument `{other}`"))),
                }
            }
            Ok(Command::Spec {
                spec: positional.ok_or_else(|| CliError("spec: missing <spack-spec>".into()))?,
                system: system.ok_or_else(|| CliError("spec: missing `--system`".into()))?,
            })
        }
        other => Err(CliError(format!(
            "unknown command `{other}` (try `benchkit help`)"
        ))),
    }
}

struct Options {
    cases: Vec<String>,
    systems: Vec<String>,
    seed: u64,
    repeats: u32,
    jobs: usize,
    warm_store: bool,
    /// Raw repeated `--fault-profile` values (`NAME` or `SYS=NAME`);
    /// split into base + overrides by the survey arm.
    fault_profiles: Vec<String>,
    max_retries: Option<u32>,
    fail_fast: bool,
    quarantine: Option<u32>,
    heal: bool,
    checkpoint: Option<String>,
    resume: Option<String>,
    interrupt_after: Option<usize>,
    store: Option<String>,
    perflog: Option<String>,
    /// Raw repeated `--engine` values (`SPEC` or `CASE=SPEC`); split into
    /// base + overrides by the survey arm.
    engines: Vec<String>,
    /// `--engine-timeout S`: default deadline for engine specs that do
    /// not set their own. Validated (finite, positive) at parse time.
    engine_timeout: Option<f64>,
}

fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, CliError> {
    let value = args
        .get(*i + 1)
        .cloned()
        .ok_or_else(|| CliError(format!("{flag} needs a value")))?;
    *i += 2;
    Ok(value)
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        cases: Vec::new(),
        systems: Vec::new(),
        seed: 42,
        repeats: 1,
        jobs: 1,
        warm_store: false,
        fault_profiles: Vec::new(),
        max_retries: None,
        fail_fast: false,
        quarantine: None,
        heal: false,
        checkpoint: None,
        resume: None,
        interrupt_after: None,
        store: None,
        perflog: None,
        engines: Vec::new(),
        engine_timeout: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-c" | "--case" => opts.cases.push(take_value(args, &mut i, "-c")?),
            "--system" => {
                let v = take_value(args, &mut i, "--system")?;
                // `--system=a` form also accepted.
                opts.systems.push(v);
            }
            "--seed" => {
                let v = take_value(args, &mut i, "--seed")?;
                opts.seed = v.parse().map_err(|_| CliError(format!("bad seed `{v}`")))?;
            }
            "--repeats" => {
                let v = take_value(args, &mut i, "--repeats")?;
                opts.repeats = v
                    .parse()
                    .map_err(|_| CliError(format!("bad repeats `{v}`")))?;
            }
            "--jobs" | "-j" => {
                let v = take_value(args, &mut i, "--jobs")?;
                opts.jobs = v.parse().map_err(|_| CliError(format!("bad jobs `{v}`")))?;
            }
            "--warm-store" => {
                opts.warm_store = true;
                i += 1;
            }
            "--fault-profile" => {
                let v = take_value(args, &mut i, "--fault-profile")?;
                // `SYS=NAME` overrides one system; bare `NAME` is the base.
                let name = v.split_once('=').map(|(_, n)| n).unwrap_or(&v);
                if simhpc::faults::FaultProfile::from_name(name).is_none() {
                    return Err(CliError(format!(
                        "unknown fault profile `{name}` (known: {})",
                        simhpc::faults::FaultProfile::known_names().join(", ")
                    )));
                }
                opts.fault_profiles.push(v);
            }
            "--max-retries" => {
                let v = take_value(args, &mut i, "--max-retries")?;
                opts.max_retries = Some(
                    v.parse()
                        .map_err(|_| CliError(format!("bad max-retries `{v}`")))?,
                );
            }
            "--fail-fast" => {
                opts.fail_fast = true;
                i += 1;
            }
            "--quarantine" => {
                let v = take_value(args, &mut i, "--quarantine")?;
                opts.quarantine = Some(
                    v.parse()
                        .map_err(|_| CliError(format!("bad quarantine `{v}`")))?,
                );
            }
            "--heal" => {
                opts.heal = true;
                i += 1;
            }
            "--checkpoint" => {
                opts.checkpoint = Some(take_value(args, &mut i, "--checkpoint")?);
            }
            "--resume" => {
                opts.resume = Some(take_value(args, &mut i, "--resume")?);
            }
            "--interrupt-after" => {
                let v = take_value(args, &mut i, "--interrupt-after")?;
                opts.interrupt_after = Some(
                    v.parse()
                        .map_err(|_| CliError(format!("bad interrupt-after `{v}`")))?,
                );
            }
            "--store" => {
                opts.store = Some(take_value(args, &mut i, "--store")?);
            }
            "--perflog" => {
                opts.perflog = Some(take_value(args, &mut i, "--perflog")?);
            }
            "--engine" => {
                opts.engines.push(take_value(args, &mut i, "--engine")?);
            }
            "--engine-timeout" => {
                let v = take_value(args, &mut i, "--engine-timeout")?;
                let timeout: f64 = v
                    .parse()
                    .map_err(|_| CliError(format!("bad engine-timeout `{v}`")))?;
                // Zero, negative and non-finite deadlines are rejected
                // here, not at the first engine launch hours into a sweep.
                engine::validate_timeout(timeout)
                    .map_err(|e| CliError(format!("bad engine-timeout `{v}`: {e}")))?;
                opts.engine_timeout = Some(timeout);
            }
            other if other.starts_with("--system=") => {
                opts.systems.push(other["--system=".len()..].to_string());
                i += 1;
            }
            other => return Err(CliError(format!("unexpected argument `{other}`"))),
        }
    }
    Ok(opts)
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
        let path = std::path::Path::new(input);
        let mut files = Vec::new();
        if path.is_dir() {
            let entries = std::fs::read_dir(path)
                .map_err(|e| CliError(format!("cannot read directory `{input}`: {e}")))?;
            let mut logs: Vec<std::path::PathBuf> = entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
                .collect();
            logs.sort();
            if logs.is_empty() {
                return Err(CliError(format!(
                    "`{input}`: no .jsonl perflogs in directory"
                )));
            }
            files.extend(logs);
        } else {
            files.push(path.to_path_buf());
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

/// Execute a parsed command, writing human-readable output. The writer is
/// `Send` because `survey` streams outcome lines from worker threads as
/// grid cells complete (the ordered flush).
pub fn execute(
    cmd: Command,
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
            systems,
            seed,
            jobs,
            warm_store,
            fault_profile,
            fault_overrides,
            max_retries,
            fail_fast,
            quarantine,
            heal,
            checkpoint,
            resume,
            interrupt_after,
            store,
            perflog,
            engine,
            engine_overrides,
        } => {
            let profile = simhpc::faults::FaultProfile::from_name(&fault_profile)
                .ok_or_else(|| CliError(format!("unknown fault profile `{fault_profile}`")))?;
            let mut study = Study::new("cli-survey")
                .with_seed(seed)
                .with_jobs(jobs)
                .with_warm_store(warm_store)
                .with_fault_profile(profile.clone())
                .with_max_retries(max_retries)
                .with_fail_fast(fail_fast)
                .with_quarantine(quarantine)
                .with_heal(heal);
            for (system, name) in &fault_overrides {
                let p = simhpc::faults::FaultProfile::from_name(name)
                    .ok_or_else(|| CliError(format!("unknown fault profile `{name}`")))?;
                study = study.with_fault_override(system, p);
            }
            if let Some(dir) = &checkpoint {
                study = study.with_checkpoint(std::path::Path::new(dir));
            }
            if let Some(dir) = &resume {
                study = study.with_resume(std::path::Path::new(dir));
            }
            if let Some(dir) = &store {
                study = study.with_store(std::path::Path::new(dir));
            }
            study = study.with_engine(engine.clone());
            for (case, spec) in &engine_overrides {
                study = study.with_engine_override(case, spec.clone());
            }
            for b in &benchmarks {
                study = study.with_case(case_by_name(b)?);
            }
            study = study.on_systems(&systems.iter().map(String::as_str).collect::<Vec<_>>());
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
            if let Some(spec) = &engine {
                writeln!(out, "engine: {}", spec.render())?;
            }
            for (case, spec) in &engine_overrides {
                writeln!(out, "engine override: {case}={}", spec.render())?;
            }
            let any_faults =
                !profile.is_none() || fault_overrides.iter().any(|(_, name)| name != "none");
            if any_faults {
                let mut line = format!(
                    "fault profile `{}`: {} faults injected, {} retries, {:.1}s simulated time lost, {} quarantined",
                    profile.name,
                    results.report.total_faults_injected(),
                    results.report.total_retries(),
                    results.report.total_time_lost_s(),
                    results.report.n_quarantined()
                );
                if heal {
                    line.push_str(&format!(
                        ", {} nodes repaired",
                        results.report.total_nodes_repaired()
                    ));
                }
                writeln!(out, "{line}")?;
            }
            if !fault_overrides.is_empty() {
                let rendered: Vec<String> = fault_overrides
                    .iter()
                    .map(|(s, n)| format!("{s}={n}"))
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
            if warm_store {
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
            let report = servd::push_dir(std::path::Path::new(&dir), &to, max_retries, &mut *out)
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
                let frame_for = |run: &String| -> Result<dframe::DataFrame, CliError> {
                    let mut df = dframe::DataFrame::new(vec![
                        "benchmark",
                        "fom",
                        "system",
                        "partition",
                        "value",
                    ]);
                    let mut any = false;
                    for p in postproc::parse_criterion_log(run) {
                        if p.group == *group {
                            any = true;
                            df.push_row(vec![
                                dframe::Cell::from(group.as_str()),
                                dframe::Cell::from("speed"),
                                dframe::Cell::from(p.id.as_str()),
                                dframe::Cell::Null,
                                dframe::Cell::from(p.speed()),
                            ])
                            .expect("fixed schema");
                        }
                    }
                    if !any {
                        return Err(CliError(format!(
                            "bench-digest: --rank `{group}`: no criterion records \
                             for that group in one of the two newest logs"
                        )));
                    }
                    Ok(df)
                };
                let policy = postproc::RankPolicy::default();
                let previous = postproc::rank_frame(&frame_for(&runs[runs.len() - 2])?, &policy)
                    .map_err(|e| CliError(format!("bench-digest: --rank `{group}`: {e}")))?;
                let newest =
                    postproc::rank_frame(&frame_for(runs.last().expect("nonempty"))?, &policy)
                        .map_err(|e| CliError(format!("bench-digest: --rank `{group}`: {e}")))?;
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
            let (sys, part_name) = simhpc::catalog::resolve(&system)
                .ok_or_else(|| CliError(format!("unknown system `{system}`")))?;
            let partition = sys.partition(&part_name).expect("resolved partition");
            let ctx = spackle::context_for(&sys, partition);
            let parsed = spackle::Spec::parse(&spec)?;
            let concrete = spackle::concretize(&parsed, &spackle::Repo::builtin(), &ctx)?;
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
                systems,
                seed,
                jobs,
                warm_store,
                fault_profile,
                fault_overrides,
                max_retries,
                fail_fast,
                quarantine,
                heal,
                checkpoint,
                resume,
                interrupt_after,
                store,
                perflog,
                engine,
                engine_overrides,
            } => {
                assert_eq!(benchmarks, vec!["hpgmg", "babelstream_omp"]);
                assert_eq!(systems, vec!["archer2", "csd3"]);
                assert_eq!(seed, 42);
                assert_eq!(jobs, 1, "serial by default");
                assert!(!warm_store, "cold by default");
                assert_eq!(fault_profile, "none", "no faults by default");
                assert!(fault_overrides.is_empty(), "no overrides by default");
                assert_eq!(max_retries, 2);
                assert!(!fail_fast);
                assert_eq!(quarantine, 0, "quarantine off by default");
                assert!(!heal, "healing off by default");
                assert_eq!(checkpoint, None, "no checkpointing by default");
                assert_eq!(resume, None);
                assert_eq!(interrupt_after, None);
                assert_eq!(store, None, "no persistent store by default");
                assert_eq!(perflog, None, "no perflog export by default");
                assert_eq!(engine, None, "in-process run stage by default");
                assert!(engine_overrides.is_empty());
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
            Command::Survey {
                warm_store, jobs, ..
            } => {
                assert!(warm_store);
                assert_eq!(jobs, 2);
            }
            other => panic!("{other:?}"),
        }
        // Only survey takes it.
        assert!(parse(&argv("run -c hpgmg --system archer2 --warm-store")).is_err());
    }

    #[test]
    fn parse_survey_jobs() {
        let cmd = parse(&argv("survey -c hpgmg --system archer2 --jobs 4")).unwrap();
        match cmd {
            Command::Survey { jobs, .. } => assert_eq!(jobs, 4),
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv("survey -c hpgmg --system archer2 -j 0")).unwrap();
        match cmd {
            Command::Survey { jobs, .. } => assert_eq!(jobs, 0, "0 = auto"),
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
            Command::Survey {
                engine,
                engine_overrides,
                ..
            } => {
                let spec = engine.expect("base engine parsed");
                assert_eq!(spec.cmd, vec!["./stub", "--ok"]);
                assert_eq!(spec.timeout_s, engine::DEFAULT_TIMEOUT_S);
                assert!(engine_overrides.is_empty());
            }
            other => panic!("{other:?}"),
        }
        // --engine-timeout applies to specs that don't pin their own.
        let cmd = parse(&args(&["--engine", "./stub", "--engine-timeout", "30"])).unwrap();
        match cmd {
            Command::Survey { engine, .. } => {
                assert_eq!(engine.unwrap().timeout_s, 30.0);
            }
            other => panic!("{other:?}"),
        }
        // A `=` inside the command is not a per-case override: the text
        // left of it is not shaped like a benchmark name.
        let cmd = parse(&args(&["--engine", "./eng --mode=fast"])).unwrap();
        match cmd {
            Command::Survey {
                engine,
                engine_overrides,
                ..
            } => {
                assert_eq!(engine.unwrap().cmd, vec!["./eng", "--mode=fast"]);
                assert!(engine_overrides.is_empty());
            }
            other => panic!("{other:?}"),
        }
        // CASE=SPEC is an override when CASE is a surveyed benchmark.
        let cmd = parse(&args(&["--engine", "hpgmg=./special --hpgmg"])).unwrap();
        match cmd {
            Command::Survey {
                engine,
                engine_overrides,
                ..
            } => {
                assert_eq!(engine, None, "override only, no base engine");
                assert_eq!(engine_overrides.len(), 1);
                assert_eq!(engine_overrides[0].0, "hpgmg");
                assert_eq!(engine_overrides[0].1.cmd, vec!["./special", "--hpgmg"]);
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
        // Only survey takes engine flags.
        assert!(parse(&argv("run -c hpgmg --system archer2 --engine ./stub")).is_err());
        assert!(parse(&argv("run -c hpgmg --system archer2 --engine-timeout 5")).is_err());
    }

    #[test]
    fn parse_survey_fault_flags() {
        let cmd = parse(&argv(
            "survey -c hpgmg --system archer2 --fault-profile flaky --max-retries 5 \
             --fail-fast --quarantine 3",
        ))
        .unwrap();
        match cmd {
            Command::Survey {
                fault_profile,
                max_retries,
                fail_fast,
                quarantine,
                ..
            } => {
                assert_eq!(fault_profile, "flaky");
                assert_eq!(max_retries, 5);
                assert!(fail_fast);
                assert_eq!(quarantine, 3);
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
        // Fault flags apply to survey only.
        for flags in [
            "--fault-profile flaky",
            "--max-retries 1",
            "--fail-fast",
            "--quarantine 2",
        ] {
            assert!(
                parse(&argv(&format!("run -c hpgmg --system archer2 {flags}"))).is_err(),
                "run should reject {flags}"
            );
        }
    }

    #[test]
    fn parse_fault_profile_overrides() {
        let cmd = parse(&argv(
            "survey -c hpgmg --system archer2 --system csd3 \
             --fault-profile flaky --fault-profile csd3=brutal",
        ))
        .unwrap();
        match cmd {
            Command::Survey {
                fault_profile,
                fault_overrides,
                ..
            } => {
                assert_eq!(fault_profile, "flaky");
                assert_eq!(
                    fault_overrides,
                    vec![("csd3".to_string(), "brutal".to_string())]
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
                heal,
                checkpoint,
                resume,
                interrupt_after,
                ..
            } => {
                assert!(heal);
                assert_eq!(checkpoint.as_deref(), Some("/tmp/ck"));
                assert_eq!(resume, None);
                assert_eq!(interrupt_after, Some(3));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("survey -c hpgmg --system csd3 --resume /tmp/ck")).unwrap() {
            Command::Survey {
                checkpoint, resume, ..
            } => {
                assert_eq!(checkpoint, None);
                assert_eq!(resume.as_deref(), Some("/tmp/ck"));
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
        // All of them are survey-only.
        for flags in [
            "--heal",
            "--checkpoint /a",
            "--resume /a",
            "--interrupt-after 1",
        ] {
            assert!(
                parse(&argv(&format!("run -c hpgmg --system csd3 {flags}"))).is_err(),
                "run should reject {flags}"
            );
        }
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
            Command::Survey {
                benchmarks: vec!["babelstream_cuda".into()],
                systems: vec!["csd3".into(), "isambard-macs:volta".into()],
                seed: 42,
                jobs: 2,
                warm_store: false,
                fault_profile: "none".into(),
                fault_overrides: vec![],
                max_retries: 2,
                fail_fast: false,
                quarantine: 0,
                heal: false,
                checkpoint: None,
                resume: None,
                interrupt_after: None,
                store: None,
                perflog: None,
                engine: None,
                engine_overrides: Vec::new(),
            },
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
                Command::Survey {
                    benchmarks: vec![
                        "babelstream_omp".into(),
                        "babelstream_tbb".into(),
                        "hpgmg".into(),
                    ],
                    systems: vec!["csd3".into(), "archer2".into()],
                    seed: 7,
                    jobs,
                    warm_store: true,
                    fault_profile: "none".into(),
                    fault_overrides: vec![],
                    max_retries: 2,
                    fail_fast: false,
                    quarantine: 0,
                    heal: false,
                    checkpoint: None,
                    resume: None,
                    interrupt_after: None,
                    store: None,
                    perflog: None,
                    engine: None,
                    engine_overrides: Vec::new(),
                },
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
                Command::Survey {
                    benchmarks: vec!["babelstream_omp".into(), "hpgmg".into()],
                    systems: vec!["csd3".into(), "archer2".into()],
                    seed,
                    jobs,
                    warm_store: false,
                    fault_profile: "flaky".into(),
                    fault_overrides: vec![],
                    max_retries: 4,
                    fail_fast: false,
                    quarantine: 0,
                    heal: false,
                    checkpoint: None,
                    resume: None,
                    interrupt_after: None,
                    store: None,
                    perflog: None,
                    engine: None,
                    engine_overrides: Vec::new(),
                },
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
                Command::Survey {
                    benchmarks: vec!["babelstream_omp".into()],
                    systems: vec!["csd3".into(), "archer2".into()],
                    seed,
                    jobs,
                    warm_store: false,
                    fault_profile: "brutal".into(),
                    fault_overrides: vec![],
                    max_retries: 0,
                    fail_fast: false,
                    quarantine: 0,
                    heal: false,
                    checkpoint: None,
                    resume: None,
                    interrupt_after: None,
                    store: None,
                    perflog: None,
                    engine: None,
                    engine_overrides: Vec::new(),
                },
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
        // Scale retry backoff to zero so the crashing override retries
        // instantly; the nominal schedule is still charged to time-lost.
        std::env::set_var(simhpc::faults::BACKOFF_SCALE_ENV, "0");
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
                Command::Survey {
                    benchmarks: vec!["babelstream_omp".into(), "babelstream_tbb".into()],
                    systems: vec!["csd3".into()],
                    seed: 42,
                    jobs,
                    warm_store: false,
                    fault_profile: "none".into(),
                    fault_overrides: vec![],
                    max_retries: 1,
                    fail_fast: false,
                    quarantine: 0,
                    heal: false,
                    checkpoint: None,
                    resume: None,
                    interrupt_after: None,
                    store: None,
                    perflog: None,
                    engine: Some(ok.clone()),
                    engine_overrides: vec![("babelstream_tbb".into(), crashing.clone())],
                },
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

    /// A Survey command with every knob at its default.
    fn survey(benchmarks: &[&str], systems: &[&str]) -> Command {
        Command::Survey {
            benchmarks: benchmarks.iter().map(|s| s.to_string()).collect(),
            systems: systems.iter().map(|s| s.to_string()).collect(),
            seed: 42,
            jobs: 1,
            warm_store: false,
            fault_profile: "none".into(),
            fault_overrides: vec![],
            max_retries: 2,
            fail_fast: false,
            quarantine: 0,
            heal: false,
            checkpoint: None,
            resume: None,
            interrupt_after: None,
            store: None,
            perflog: None,
            engine: None,
            engine_overrides: Vec::new(),
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
            let mut cmd = survey(&["babelstream_omp", "hpgmg"], &["csd3", "archer2"]);
            if let Command::Survey {
                seed,
                jobs: j,
                fault_profile,
                max_retries,
                checkpoint,
                resume: r,
                ..
            } = &mut cmd
            {
                *seed = 3;
                *j = jobs;
                *fault_profile = "flaky".into();
                *max_retries = 4;
                let d = Some(dir.to_string_lossy().into_owned());
                if resume {
                    *r = d;
                } else {
                    *checkpoint = d;
                }
            }
            cmd
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
        if let Command::Survey { seed, .. } = &mut wrong {
            *seed = 4;
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
                let mut cmd = survey(&["babelstream_omp"], &["csd3", "archer2"]);
                if let Command::Survey {
                    seed,
                    fault_profile,
                    max_retries,
                    quarantine,
                    heal,
                    checkpoint,
                    ..
                } = &mut cmd
                {
                    *seed = s;
                    *fault_profile = "brutal".into();
                    *max_retries = 0;
                    *quarantine = 1;
                    *heal = true;
                    *checkpoint = Some(dir.to_string_lossy().into_owned());
                }
                cmd
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
        let mut cmd = survey(&["babelstream_omp"], &["csd3", "archer2"]);
        if let Command::Survey {
            fault_profile,
            fault_overrides,
            max_retries,
            ..
        } = &mut cmd
        {
            *fault_profile = "flaky".into();
            *fault_overrides = vec![("archer2".to_string(), "none".to_string())];
            *max_retries = 6;
        }
        let (text, _) = run_cmd(cmd);
        assert!(text.contains("fault overrides: archer2=none"), "{text}");
        assert!(text.contains("fault profile `flaky`:"), "{text}");
    }

    #[test]
    fn parse_store_flag_and_subcommands() {
        match parse(&argv("survey -c hpgmg --system csd3 --store /tmp/st")).unwrap() {
            Command::Survey { store, .. } => assert_eq!(store.as_deref(), Some("/tmp/st")),
            other => panic!("{other:?}"),
        }
        // `run` does not take a persistent store.
        assert!(parse(&argv("run -c hpgmg --system csd3 --store /tmp/st")).is_err());

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
            let mut cmd = survey(&["babelstream_omp", "babelstream_tbb"], &["csd3"]);
            if let Command::Survey {
                store,
                checkpoint: ck,
                ..
            } = &mut cmd
            {
                *store = Some(store_dir.to_string_lossy().into_owned());
                if checkpoint {
                    *ck = Some(ck_dir.to_string_lossy().into_owned());
                }
            }
            cmd
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
            let mut cmd = survey(&["babelstream_omp"], &["csd3"]);
            if let Command::Survey { store, .. } = &mut cmd {
                *store = Some(dir.to_string_lossy().into_owned());
            }
            cmd
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

        // Survey grows --perflog; run rejects it.
        match parse(&argv("survey -c hpgmg --system csd3 --perflog out/")).unwrap() {
            Command::Survey { perflog, .. } => assert_eq!(perflog.as_deref(), Some("out/")),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("run -c hpgmg --system csd3 --perflog out/")).is_err());

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
    fn survey_perflog_export_then_rank_end_to_end() {
        // The tentpole, end to end: survey two systems into a perflog
        // directory, then rank them — byte-identically at any --jobs.
        let dir = tmpdir("rank-e2e");
        let mut cmd = survey(&["babelstream_omp"], &["csd3", "archer2"]);
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
