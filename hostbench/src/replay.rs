//! The traced run: every workload's operations replayed in-process through
//! the layers' public functions, one span per call.
//!
//! Each traced run replays all three operation mixes (the per-layer table
//! is the same for every workload), alternating rounds with tracing on and
//! off to measure the tracing overhead. Spans are written at exit as
//! Chrome trace-event JSON under `.bench_traces/`.

use crate::gen::{RecordGen, Rng, PARTITIONS};
use crate::nightly::{self, perflog_dir, window, KEEP, RANK_NIGHTS};
use crate::serve::{self, Daemon, BASE_RECORDS, BATCH, INGEST_HZ};
use crate::stats::{median, percentile};
use crate::sweep::{grid_args, summary};
use crate::trace::{self, Span, Tracer};
use crate::{sys, Ctx, Outcome};
use benchapps::{BenchError, ExecutionMode};
use harness::TestCase;
use perflogs::{Fom, PerflogRecord};
use spackle::{BuildAction, ConcreteSpec, InstallReport, Persist, StoreEntry};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

/// Elements the simulated execution mode runs kernels at (in-cache).
const SIM_N: usize = 1 << 16;
/// Share of `--seconds` each section replays for.
const SURVEY_SHARE: f64 = 0.4;
const NIGHTLY_SHARE: f64 = 0.25;
const WAL_SHARE: f64 = 0.1;
const DAEMON_SHARE: f64 = 0.25;

/// A resolved catalog partition.
struct Platform {
    system: simhpc::System,
    name: String,
    partition: simhpc::Partition,
}

/// What stays fixed across rounds.
struct Env {
    repo: spackle::Repo,
    grid: Vec<TestCase>,
    nightly: Vec<TestCase>,
    platforms: BTreeMap<&'static str, Platform>,
    arena: benchapps::scratch::Arena,
}

impl Env {
    fn new() -> Result<Env, String> {
        let case = |n: &str| benchkit::cli::case_by_name(n).map_err(|e| e.to_string());
        let grid = benchkit::cli::benchmark_names()
            .iter()
            .map(|n| case(n))
            .collect::<Result<_, _>>()?;
        let nightly = nightly::CASES
            .iter()
            .map(|n| case(n))
            .collect::<Result<_, _>>()?;
        let mut platforms = BTreeMap::new();
        for p in PARTITIONS {
            let (system, name) =
                simhpc::catalog::resolve(p).ok_or_else(|| format!("unknown partition {p}"))?;
            let partition = system
                .partition(&name)
                .ok_or_else(|| format!("no partition {name}"))?
                .clone();
            platforms.insert(
                p,
                Platform {
                    system,
                    name,
                    partition,
                },
            );
        }
        Ok(Env {
            repo: spackle::Repo::builtin(),
            grid,
            nightly,
            platforms,
            arena: benchapps::scratch::Arena::new(),
        })
    }
}

/// One grid cell's result.
struct Cell {
    /// The perflog line, when the cell ran.
    line: Option<String>,
    family: &'static str,
    install: Option<(ConcreteSpec, InstallReport)>,
}

fn family_span(family: &str) -> &'static str {
    match family {
        "hpgmg" => "benchapps.hpgmg",
        "hpcg" => "benchapps.hpcg",
        "babelstream" => "benchapps.babelstream",
        _ => "benchapps.stream",
    }
}

/// One cell through the pipeline the harness runs: concretize, install,
/// run, schedule, sanity + FOM extraction, perflog encoding.
fn cell(
    tr: &mut Tracer,
    repo: &spackle::Repo,
    arena: &mut benchapps::scratch::Arena,
    case: &TestCase,
    plat: &Platform,
    seed: u64,
    store: &mut spackle::Store,
) -> Result<Cell, String> {
    let family = case.app.name();
    let skipped = Cell {
        line: None,
        family,
        install: None,
    };
    let spec = spackle::Spec::parse(&case.spack_spec).map_err(|e| e.to_string())?;
    let sctx = spackle::context_for(&plat.system, &plat.partition);
    let concrete = match tr.span("spackle.concretize", |_| {
        spackle::concretize(&spec, repo, &sctx)
    }) {
        Ok(c) => c,
        Err(spackle::ConcretizeError::Conflict { .. }) => return Ok(skipped),
        Err(e) => return Err(e.to_string()),
    };
    let opts = spackle::InstallOptions {
        rebuild_root: true,
        ..spackle::InstallOptions::default()
    };
    let install = tr.span("spackle.install", |_| {
        spackle::install(&concrete, store, opts)
    });
    let mode = ExecutionMode::Simulated {
        partition: Box::new(plat.partition.clone()),
        system: plat.system.name().to_string(),
        seed,
    };
    let output = match tr.span(family_span(family), |_| case.app.run_with(&mode, arena)) {
        Ok(o) => o,
        Err(BenchError::Unsupported(_)) => return Ok(skipped),
        Err(e) => return Err(format!("{} on {}: {e}", case.name, plat.name)),
    };
    let proc = plat.partition.processor();
    let cpus = if case.num_cpus_per_task == 0 {
        proc.total_cores() / case.num_tasks_per_node.max(1)
    } else {
        case.num_cpus_per_task
    };
    let job_id = tr.span("batchsim.schedule", |_| {
        let request =
            batchsim::JobRequest::new(&case.name, case.num_tasks, case.num_tasks_per_node, cpus)
                .with_account("ec176")
                .with_qos("standard")
                .with_time_limit((output.wall_time_s * 10.0).max(60.0));
        let policy = match plat.system.scheduler() {
            simhpc::platform::SchedulerKind::Pbs => batchsim::Policy::Fifo,
            _ => batchsim::Policy::Backfill,
        };
        let mut sched = batchsim::Scheduler::new(
            policy,
            plat.partition.nodes().max(1),
            proc.total_cores().max(1),
        );
        let id = if install.total_time_s > 0.0 {
            let build = batchsim::JobRequest::new(&format!("{}-build", case.name), 1, 1, 1)
                .with_time_limit(install.total_time_s * 2.0 + 60.0);
            let b = sched.submit(build, install.total_time_s)?;
            sched.submit_after(request, output.wall_time_s, b)?
        } else {
            sched.submit(request, output.wall_time_s)?
        };
        sched.run_to_completion();
        Ok::<_, batchsim::LayoutError>(id)
    });
    let job_id = job_id.map_err(|e| format!("{} rejected: {e}", case.name))?;
    let foms = tr.span("rexpr.extract", |_| -> Result<Vec<Fom>, String> {
        let sanity = rexpr::Regex::new(&case.sanity_pattern).map_err(|e| e.to_string())?;
        if !sanity.is_match(&output.stdout) {
            return Err(format!("{} failed its sanity pattern", case.name));
        }
        case.perf_vars
            .iter()
            .map(|v| {
                let re = rexpr::Regex::new(&v.pattern).map_err(|e| e.to_string())?;
                let value = re
                    .captures(&output.stdout)
                    .and_then(|c| c.get(1).map(|m| m.as_str().to_string()))
                    .and_then(|t| t.parse::<f64>().ok())
                    .ok_or_else(|| format!("{}: FOM {} not found", case.name, v.name))?;
                Ok(Fom {
                    name: v.name.clone(),
                    value,
                    unit: v.unit.clone(),
                })
            })
            .collect()
    })?;
    let line = tr.span("perflogs.encode", |_| {
        PerflogRecord {
            sequence: job_id.0,
            benchmark: case.name.clone(),
            system: plat.system.name().to_string(),
            partition: plat.name.clone(),
            environ: String::new(),
            spec: concrete.root().render(),
            build_hash: concrete.dag_hash().to_string(),
            job_id: Some(job_id.0),
            num_tasks: case.num_tasks,
            num_tasks_per_node: case.num_tasks_per_node,
            num_cpus_per_task: cpus,
            foms,
            extras: case.extras.clone(),
        }
        .to_json_line()
    });
    Ok(Cell {
        line: Some(line),
        family,
        install: Some((concrete, install)),
    })
}

/// Alternating traced and untraced rounds of one section.
#[derive(Default)]
struct Rounds {
    on: Vec<f64>,
    off: Vec<f64>,
    /// Time inside top-level spans during traced rounds. Every span is a
    /// call into a layer (there are no wrapper spans), so this is the time
    /// the layers account for; the rest is the replay's own glue.
    covered_ns: u64,
}

impl Rounds {
    /// Run `round` with tracing `on`, recording its wall time.
    fn run<T>(
        &mut self,
        tr: &mut Tracer,
        on: bool,
        round: impl FnOnce(&mut Tracer) -> Result<T, String>,
    ) -> Result<T, String> {
        tr.set_enabled(on);
        let first = tr.spans().len();
        let t = Instant::now();
        let out = round(tr);
        let wall = t.elapsed().as_secs_f64();
        tr.set_enabled(true);
        if on {
            self.on.push(wall);
            self.covered_ns += trace::top_level_ns(&tr.spans()[first..], 1);
        } else {
            self.off.push(wall);
        }
        out
    }

    fn overhead(&self) -> f64 {
        median(&self.on).unwrap_or(0.0) / median(&self.off).unwrap_or(f64::INFINITY)
    }

    fn coverage(&self) -> f64 {
        self.covered_ns as f64 / 1e9 / self.on.iter().sum::<f64>().max(1e-9)
    }
}

/// One full-grid study; returns (ran, skipped, seconds inside cells).
fn study(tr: &mut Tracer, env: &mut Env, seed: u64) -> Result<(u64, u64, f64), String> {
    let (mut ran, mut skipped, mut cell_s) = (0, 0, 0.0);
    let Env {
        repo,
        grid,
        platforms,
        arena,
        ..
    } = env;
    for p in PARTITIONS {
        let plat = &platforms[p];
        for case in grid.iter() {
            tr.set_op(ran + skipped);
            let t = Instant::now();
            let c = cell(
                tr,
                repo,
                arena,
                case,
                plat,
                seed,
                &mut spackle::Store::new(),
            )?;
            cell_s += t.elapsed().as_secs_f64();
            if c.line.is_some() {
                ran += 1;
            } else {
                skipped += 1;
            }
        }
    }
    Ok((ran, skipped, cell_s))
}

fn survey_section(
    ctx: &Ctx,
    tr: &mut Tracer,
    env: &mut Env,
    rng: &mut Rng,
    out: &mut Outcome,
) -> Result<Rounds, String> {
    let budget = ctx.seconds * SURVEY_SHARE;
    let t0 = Instant::now();
    let mut rounds = Rounds::default();
    let mut traced: Vec<(u64, u64, u64, f64)> = Vec::new();
    let mut pair = 0;
    while pair < 2 || t0.elapsed().as_secs_f64() < budget {
        let seed = rng.below(1 << 31);
        // Alternate which side of the pair runs first.
        for on in [pair % 2 == 0, pair % 2 == 1] {
            let (ran, skipped, cell_s) = rounds.run(tr, on, |tr| study(tr, env, seed))?;
            out.check(ran + skipped == crate::sweep::GRID_CELLS, || {
                format!("replayed study covered {} cells", ran + skipped)
            });
            if on {
                traced.push((seed, ran, skipped, cell_s));
            }
        }
        pair += 1;
    }
    // Parallel efficiency against the untraced binary at --jobs 2, which
    // must also agree with the replay on which cells ran.
    let mut eff = Vec::new();
    for &(seed, ran, skipped, cell_s) in traced.iter().take(3) {
        let f = sys::run(
            ctx.benchkit().arg("survey").args(grid_args()).args([
                "--seed",
                &seed.to_string(),
                "--jobs",
                "2",
            ]),
            &ctx.log(),
        )
        .map_err(|e| format!("cannot run benchkit survey: {e}"))?;
        out.check(
            f.ok() && summary(&f.stdout) == Some((ran, skipped, 0)),
            || format!("replay of seed {seed} disagrees with benchkit survey"),
        );
        eff.push(cell_s / (2.0 * f.wall.as_secs_f64()));
    }
    out.metrics
        .insert("harness.parallel_efficiency", median(&eff).unwrap_or(0.0));
    Ok(rounds)
}

/// Kernels at the simulated execution size, one span per call.
fn kernel_section(tr: &mut Tracer) {
    let backend = parkern::SerialBackend;
    let (b, c) = (vec![1.5; SIM_N], vec![2.5; SIM_N]);
    let mut a = vec![0.0; SIM_N];
    for _ in 0..300 {
        tr.span("parkern.triad", |_| {
            parkern::kernels::triad(&backend, 0.4, &b, &c, &mut a)
        });
        std::hint::black_box(&mut a);
    }
    // A 27-diagonal band, the HPCG stencil's nonzero count per row.
    let mut row_ptr = vec![0usize];
    let (mut col_idx, mut values) = (Vec::new(), Vec::new());
    for r in 0..SIM_N {
        for k in 0..27 {
            col_idx.push(((r + SIM_N + k * 37).wrapping_sub(13 * 37) % SIM_N) as u32);
            values.push(if k == 13 { 26.0 } else { -1.0 });
        }
        row_ptr.push(col_idx.len());
    }
    let mut y = vec![0.0; SIM_N];
    for _ in 0..100 {
        tr.span("parkern.spmv", |_| {
            parkern::kernels::spmv_csr(&backend, &row_ptr, &col_idx, &values, &c, &mut y)
        });
        std::hint::black_box(&mut y);
    }
}

/// Computed bytes per call over the median call time, in GB/s.
fn gbs(by: &BTreeMap<&'static str, Vec<f64>>, span: &str, bytes: f64) -> f64 {
    bytes
        / by.get(span)
            .and_then(|v| median(v))
            .unwrap_or(f64::INFINITY)
}

/// Per-night tallies of the store replay.
#[derive(Default)]
struct StoreTally {
    hits: u64,
    misses: u64,
    persists: u64,
}

/// One night in-process: open the store, run the window's cells against
/// per-partition stores seeded from it, journal each cell, persist new
/// builds and the reference record, write perflogs, collect, rank.
fn night(
    tr: &mut Tracer,
    env: &mut Env,
    dir: &Path,
    n: usize,
    seed: u64,
    tally: &mut StoreTally,
) -> Result<String, String> {
    let io = |e: std::io::Error| e.to_string();
    let store_dir = dir.join("store");
    tr.set_op(n as u64);
    let mut disk = tr
        .span("spackle.store_open", |_| {
            spackle::DiskStore::open(&store_dir)
        })
        .map_err(|e| e.to_string())?;
    let ck = dir.join(format!("ck-{n:06}"));
    std::fs::create_dir_all(&ck).map_err(io)?;
    let journal =
        harness::walog::AppendLog::create(&ck.join("journal.jsonl"), spackle::IoShim::Real)
            .map_err(io)?;
    let mut logs: BTreeMap<String, String> = BTreeMap::new();
    let mut to_persist: Vec<StoreEntry> = Vec::new();
    let mut refs: BTreeSet<String> = BTreeSet::new();
    let Env {
        repo,
        nightly,
        platforms,
        arena,
        ..
    } = env;
    for p in window(n) {
        let plat = &platforms[p];
        let mut store = spackle::Store::new();
        disk.seed_into(&mut store);
        for case in nightly.iter() {
            let c = cell(tr, repo, arena, case, plat, seed, &mut store)?;
            if let Some(line) = &c.line {
                tr.span("harness.journal_append", |_| journal.append(line))
                    .map_err(io)?;
                let log = logs
                    .entry(format!("{}-{}.jsonl", plat.system.name(), c.family))
                    .or_default();
                log.push_str(line);
                log.push('\n');
            }
            let Some((concrete, install)) = c.install else {
                continue;
            };
            for record in &install.records {
                match record.action {
                    BuildAction::Cached => {
                        refs.insert(record.hash.clone());
                        tally.hits += u64::from(disk.resident(&record.hash));
                    }
                    BuildAction::Built => {
                        refs.insert(record.hash.clone());
                        if disk.resident(&record.hash) {
                            continue;
                        }
                        tally.misses += 1;
                        if to_persist.iter().any(|e| e.hash == record.hash) {
                            continue;
                        }
                        if let Some(node) = concrete.nodes().iter().find(|n| n.hash == record.hash)
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
    }
    for entry in &to_persist {
        let written = tr
            .span("spackle.persist", |_| disk.persist(entry))
            .map_err(|e| e.to_string())?;
        tally.persists += u64::from(written == Persist::Written);
    }
    tr.span("spackle.append_refs", |_| disk.append_refs(&refs))
        .map_err(|e| e.to_string())?;
    drop(disk);
    let pl = perflog_dir(dir, n);
    std::fs::create_dir_all(&pl).map_err(io)?;
    for (name, text) in &logs {
        std::fs::write(pl.join(name), text).map_err(io)?;
    }
    tr.span("spackle.gc", |_| {
        spackle::DiskStore::open(&store_dir).and_then(|mut d| d.gc(KEEP))
    })
    .map_err(|e| e.to_string())?;
    let mut texts = Vec::new();
    for k in n.saturating_sub(RANK_NIGHTS - 1)..=n {
        let mut files: Vec<_> = std::fs::read_dir(perflog_dir(dir, k))
            .map_err(io)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        files.sort();
        for f in files {
            texts.push(std::fs::read_to_string(f).map_err(io)?);
        }
    }
    let ranking = tr.span("postproc.rank", |_| -> Result<String, String> {
        let frame = postproc::assimilate(&texts).map_err(|e| e.to_string())?;
        let ranking = postproc::rank_frame(&frame, &postproc::RankPolicy::default())
            .map_err(|e| e.to_string())?;
        Ok(ranking.render_text())
    })?;
    let _ = std::fs::remove_dir_all(&ck);
    if n >= RANK_NIGHTS {
        let _ = std::fs::remove_dir_all(perflog_dir(dir, n - RANK_NIGHTS));
    }
    Ok(ranking)
}

fn nightly_section(
    ctx: &Ctx,
    tr: &mut Tracer,
    env: &mut Env,
    rng: &mut Rng,
    out: &mut Outcome,
) -> Result<Rounds, String> {
    let dir = ctx.work.join("replay-nightly");
    let mut tally = StoreTally::default();
    // The cold first night is set-up, as in the end-to-end workload.
    tr.set_enabled(false);
    night(tr, env, &dir, 0, rng.below(1 << 31), &mut tally)?;
    tr.set_enabled(true);
    tally = StoreTally::default();
    let budget = ctx.seconds * NIGHTLY_SHARE;
    let t0 = Instant::now();
    let mut rounds = Rounds::default();
    let mut n = 1;
    while n < 5 || t0.elapsed().as_secs_f64() < budget {
        let seed = rng.below(1 << 31);
        let ranking = rounds.run(tr, n % 2 == 1, |tr| {
            night(tr, env, &dir, n, seed, &mut tally)
        })?;
        out.check(ranking.starts_with("ranking "), || {
            format!("replayed night {n}")
        });
        n += 1;
    }
    let nights = (n - 1) as f64;
    let fsck = spackle::fsck(&dir.join("store")).map_err(|e| e.to_string())?;
    out.check(fsck.clean(), || "replayed store fails fsck".into());
    let m = &mut out.metrics;
    m.insert("spackle.persists", tally.persists as f64 / nights);
    m.insert(
        "spackle.hit_ratio",
        tally.hits as f64 / (tally.hits + tally.misses).max(1) as f64,
    );
    let segments = std::fs::read_dir(dir.join("store/refs")).map_or(0, |d| d.count());
    m.insert("spackle.ref_segments", segments as f64);
    Ok(rounds)
}

/// The daemon's in-process costs: parsing and WAL appends per record,
/// and verdicts at the base and end-of-run record counts.
fn serve_section(
    ctx: &Ctx,
    tr: &mut Tracer,
    rng: &mut Rng,
    out: &mut Outcome,
) -> Result<Rounds, String> {
    let mut gen = RecordGen::new(rng.next_u64());
    let base = gen.jsonl(BASE_RECORDS);
    // Records a full end-to-end run ends with (9 in 10 batches new).
    let grown = (ctx.seconds * INGEST_HZ * 0.9) as usize * BATCH;
    let last = base.clone() + &gen.jsonl(grown);
    let budget = ctx.seconds * WAL_SHARE;
    let t0 = Instant::now();
    let mut rounds = Rounds::default();
    let mut r = 0;
    while r < 4 || t0.elapsed().as_secs_f64() < budget {
        let chunk = gen.jsonl(10 * BATCH);
        let dir = ctx.work.join(format!("replay-wal-{r}"));
        let (mut wal, _) =
            servd::IngestWal::open(&dir, spackle::IoShim::Real).map_err(|e| e.to_string())?;
        rounds.run(tr, r % 2 == 0, |tr| {
            for (i, line) in chunk.lines().enumerate() {
                tr.set_op((r * 10 * BATCH + i) as u64);
                let rec = tr
                    .span("perflogs.parse", |_| PerflogRecord::from_json_line(line))
                    .map_err(|e| e.to_string())?;
                tr.span("servd.wal_append", |_| wal.append(&rec))
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        let _ = std::fs::remove_dir_all(&dir);
        r += 1;
    }
    // Verdicts as the daemon computes them: canonical lines re-encoded,
    // assimilated, ranked, rendered (op 0: base history, op 1: end of run).
    for (op, text) in [(0u64, &base), (1, &last)] {
        let records: Vec<PerflogRecord> = text
            .lines()
            .map(PerflogRecord::from_json_line)
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        tr.set_op(op);
        for _ in 0..3 {
            let text = tr.span("postproc.verdict", |_| -> Result<String, String> {
                let jsonl: String = records.iter().map(|r| r.to_json_line() + "\n").collect();
                let frame = postproc::assimilate(&[jsonl]).map_err(|e| e.to_string())?;
                let ranking = postproc::rank_frame(&frame, &postproc::RankPolicy::default())
                    .map_err(|e| e.to_string())?;
                Ok(ranking.render_text())
            })?;
            out.check(text.starts_with("ranking "), || "in-process verdict".into());
        }
    }
    Ok(rounds)
}

/// A short mixed open loop against the real daemon, seen from outside:
/// ingest latency split by verdict overlap, duplicates, errors, lateness.
fn daemon_section(
    ctx: &Ctx,
    tr: &mut Tracer,
    rng: &mut Rng,
    out: &mut Outcome,
) -> Result<(), String> {
    let seconds = ctx.seconds * DAEMON_SHARE;
    let d = Daemon::spawn(ctx, &ctx.work.join("replay-serve"))?;
    let mut gen = RecordGen::new(rng.next_u64());
    serve::preload(d.addr, &mut gen)?;
    let plan = serve::plan(&mut gen, rng, (seconds * INGEST_HZ).ceil() as usize + 1);
    let epoch = tr.now_ns();
    let mixed = serve::drive(d.addr, &plan, seconds);
    drop(d);
    for (tid, name, samples) in [
        (2, "servd.ingest_http", &mixed.ingest),
        (3, "servd.verdict_http", &mixed.verdict),
    ] {
        for (i, s) in samples.iter().enumerate() {
            out.check(s.ok, || format!("{name} request {i}"));
            tr.push(Span {
                name,
                start_ns: epoch + (s.start * 1e9) as u64,
                end_ns: epoch + (s.end * 1e9) as u64,
                parent: None,
                op: i as u64,
                tid,
            });
        }
    }
    let (solo, overlap) = mixed.split_ms();
    let verdict: Vec<f64> = mixed.verdict.iter().map(|s| s.latency() * 1e3).collect();
    let m = &mut out.metrics;
    m.insert("servd.ingest_solo_p50_ms", median(&solo).unwrap_or(0.0));
    m.insert(
        "servd.ingest_overlap_p50_ms",
        median(&overlap).unwrap_or(0.0),
    );
    m.insert("servd.verdict_p50_ms", median(&verdict).unwrap_or(0.0));
    m.insert("servd.duplicates", mixed.duplicates as f64);
    m.insert("servd.rejected", mixed.errors.len() as f64);
    m.insert(
        "loadgen.late_p99_ms",
        percentile(&mixed.late_ms(), 99.0).unwrap_or(0.0),
    );
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = Rng::new(ctx.seed);
    let mut env = Env::new()?;
    // Mirror `survey --jobs 2` on two cores: one kernel thread per cell.
    parkern::set_worker_cap(1);
    let mut tr = Tracer::new(Instant::now());
    let survey = survey_section(ctx, &mut tr, &mut env, &mut rng, &mut out)?;
    kernel_section(&mut tr);
    let nightly = nightly_section(ctx, &mut tr, &mut env, &mut rng, &mut out)?;
    let serve = serve_section(ctx, &mut tr, &mut rng, &mut out)?;
    daemon_section(ctx, &mut tr, &mut rng, &mut out)?;

    let spans = tr.spans();
    let by = trace::self_times_by_name(spans);
    let p50 = |name: &str, scale: f64| by.get(name).and_then(|v| median(v)).unwrap_or(0.0) / scale;
    let count = |name: &str| by.get(name).map_or(0, Vec::len) as f64;
    let m = &mut out.metrics;
    let concretized = count("spackle.concretize");
    m.insert("spackle.concretize_us", p50("spackle.concretize", 1e3));
    m.insert("spackle.install_us", p50("spackle.install", 1e3));
    m.insert(
        "spackle.skip_ratio",
        (concretized - count("spackle.install")) / concretized.max(1.0),
    );
    m.insert("spackle.store_open_ms", p50("spackle.store_open", 1e6));
    m.insert("spackle.persist_ms", p50("spackle.persist", 1e6));
    m.insert("spackle.gc_ms", p50("spackle.gc", 1e6));
    let families = [
        "benchapps.hpgmg",
        "benchapps.hpcg",
        "benchapps.babelstream",
        "benchapps.stream",
    ];
    let all_runs: Vec<f64> = families
        .iter()
        .flat_map(|f| by.get(f).into_iter().flatten().copied())
        .collect();
    m.insert("benchapps.run_ms", median(&all_runs).unwrap_or(0.0) / 1e6);
    m.insert("benchapps.hpgmg_ms", p50("benchapps.hpgmg", 1e6));
    m.insert("benchapps.hpcg_ms", p50("benchapps.hpcg", 1e6));
    m.insert(
        "benchapps.babelstream_ms",
        p50("benchapps.babelstream", 1e6),
    );
    m.insert("benchapps.stream_ms", p50("benchapps.stream", 1e6));
    let n = SIM_N as f64;
    m.insert(
        "parkern.triad_gbs",
        gbs(&by, "parkern.triad", 3.0 * 8.0 * n),
    );
    // CSR: values + u32 column indices per nonzero, row pointers, x, y.
    let spmv_bytes = 27.0 * n * 12.0 + (n + 1.0) * 8.0 + 2.0 * 8.0 * n;
    m.insert("parkern.spmv_gbs", gbs(&by, "parkern.spmv", spmv_bytes));
    m.insert("batchsim.schedule_us", p50("batchsim.schedule", 1e3));
    m.insert("rexpr.extract_us", p50("rexpr.extract", 1e3));
    m.insert("perflogs.encode_us", p50("perflogs.encode", 1e3));
    m.insert("perflogs.parse_us", p50("perflogs.parse", 1e3));
    m.insert(
        "harness.journal_append_ms",
        p50("harness.journal_append", 1e6),
    );
    m.insert("postproc.rank_ms", p50("postproc.rank", 1e6));
    let verdict = |op: u64| -> f64 {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "postproc.verdict" && s.op == op)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        median(&v).unwrap_or(0.0)
    };
    m.insert("postproc.verdict_base_ms", verdict(0));
    m.insert("postproc.verdict_ms", verdict(1));
    m.insert("servd.wal_append_ms", p50("servd.wal_append", 1e6));
    for (r, overhead, coverage) in [
        (
            &survey,
            "trace.overhead_ratio.survey_sweep",
            "trace.coverage_ratio.survey_sweep",
        ),
        (
            &nightly,
            "trace.overhead_ratio.nightly_store",
            "trace.coverage_ratio.nightly_store",
        ),
        (
            &serve,
            "trace.overhead_ratio.serve_mixed",
            "trace.coverage_ratio.serve_mixed",
        ),
    ] {
        m.insert(overhead, r.overhead());
        m.insert(coverage, r.coverage());
    }

    if let Err(e) = std::fs::create_dir_all(&ctx.traces).and_then(|_| {
        std::fs::write(
            ctx.traces
                .join(format!("{}-seed{}.json", ctx.workload, ctx.seed)),
            trace::chrome_json(spans),
        )
    }) {
        eprintln!("hostbench: cannot write the trace: {e}");
    }
    eprintln!(
        "hostbench: traced replay: {} spans; {} survey, {} nightly and {} WAL rounds",
        spans.len(),
        survey.on.len() + survey.off.len(),
        nightly.on.len() + nightly.off.len(),
        serve.on.len() + serve.off.len()
    );
    Ok(out)
}
