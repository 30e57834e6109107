//! `serve_mixed`: `benchkit serve --workers 2` under an open loop of
//! ingest batches (every tenth a re-push) beside a slower open loop of
//! verdict reads.

use crate::gen::{RecordGen, Rng};
use crate::loadgen::{http, open_loop, overlapped, Reply, Sample, Wall};
use crate::stats::{median, percentile, tail_summary};
use crate::{sys, Ctx, Outcome};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Stdio};
use std::time::{Duration, Instant};

/// Records preloaded before the timed loop.
pub const BASE_RECORDS: usize = 500;
const PRELOAD_BATCH: usize = 100;
/// Records per ingest batch.
pub const BATCH: usize = 8;
/// Ingest batches per second.
pub const INGEST_HZ: f64 = 10.0;
/// Verdict reads per second. A verdict holds the ingest lock for roughly
/// 20-40 us per record on two cores, so at the ~3700 records a 45 s run
/// ends with it holds the lock under a tenth of the time. Busier mixes
/// (up to 2 verdicts/s, up to 2000 base records) made the ingest latency
/// track the shared host's load: at 25 ingests/s and 1.5 verdicts/s over
/// 2000 records the p50 swung between 6 and 61 ms from run to run.
pub const VERDICT_HZ: f64 = 0.5;
/// Every this many-th batch re-pushes an earlier one; a fixed share, so
/// the new records acknowledged per second do not depend on the seed.
const REPUSH_EVERY: usize = 10;
/// Set-up repetitions (median reported); one takes under 0.1 s.
const SETUP_REPS: usize = 15;
/// Tail percentile: a 45 s run sends 450 ingest batches (p99 would need
/// 1000).
const TAIL_PCT: f64 = 90.0;

/// A running daemon; stopped (TERM, then KILL) and reaped on drop.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    pub fn spawn(ctx: &Ctx, dir: &Path) -> Result<Daemon, String> {
        let err = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(ctx.log())
            .map_err(|e| format!("cannot open child log: {e}"))?;
        let mut child = ctx
            .benchkit()
            .arg("serve")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(err))
            .spawn()
            .map_err(|e| format!("cannot spawn benchkit serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        // "serving DIR on HOST:PORT (N workers, queue Q)"
        let addr = line
            .rsplit_once(" on ")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let mut daemon = Daemon {
            child,
            stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            _ => Err(format!("daemon did not report its address: {line:?}")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        sys::stop(&mut self.child, Duration::from_secs(10));
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
    }
}

/// `(acked, duplicates)` from an ingest answer.
pub fn ingest_counts(body: &str) -> Option<(u64, u64)> {
    let num = |key: &str| -> Option<u64> {
        let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
        body[at..]
            .split(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    };
    Some((num("acked")?, num("duplicates")?))
}

/// POST `body` and check the daemon acknowledged `acked` new records and
/// `dups` duplicates.
fn push(addr: SocketAddr, body: &str, acked: u64, dups: u64) -> Result<(), String> {
    match http(addr, "POST", "/v1/ingest", body.as_bytes()) {
        Ok(Reply {
            status: 200,
            body: b,
        }) if ingest_counts(&b) == Some((acked, dups)) => Ok(()),
        Ok(r) => Err(format!("ingest answered {}: {}", r.status, r.body.trim())),
        Err(e) => Err(format!("ingest transport error: {e}")),
    }
}

/// Preload the base history; returns its lines.
pub fn preload(addr: SocketAddr, gen: &mut RecordGen) -> Result<String, String> {
    let mut all = String::new();
    for _ in 0..BASE_RECORDS / PRELOAD_BATCH {
        let body = gen.jsonl(PRELOAD_BATCH);
        push(addr, &body, PRELOAD_BATCH as u64, 0)?;
        all.push_str(&body);
    }
    Ok(all)
}

/// The ingest schedule: each entry is a batch body and whether it is a
/// re-push of an earlier batch (which one is drawn from the seed).
pub fn plan(gen: &mut RecordGen, rng: &mut Rng, batches: usize) -> Vec<(String, bool)> {
    let mut plan: Vec<(String, bool)> = Vec::with_capacity(batches);
    let mut fresh: Vec<usize> = Vec::new();
    for i in 0..batches {
        if i % REPUSH_EVERY == REPUSH_EVERY - 1 {
            let j = fresh[rng.below(fresh.len() as u64) as usize];
            plan.push((plan[j].0.clone(), true));
        } else {
            fresh.push(i);
            plan.push((gen.jsonl(BATCH), false));
        }
    }
    plan
}

/// What one mixed open loop observed.
pub struct Mixed {
    pub ingest: Vec<Sample>,
    pub verdict: Vec<Sample>,
    /// New records acknowledged.
    pub acked: u64,
    /// Records the daemon reported as duplicates.
    pub duplicates: u64,
    /// Requests answered with an error status or lost in transport.
    pub errors: Vec<String>,
    pub wall: f64,
}

impl Mixed {
    /// Ingest latencies (ms) split by whether a verdict was in flight.
    pub fn split_ms(&self) -> (Vec<f64>, Vec<f64>) {
        let (mut solo, mut overlap) = (Vec::new(), Vec::new());
        for (s, o) in self
            .ingest
            .iter()
            .zip(overlapped(&self.ingest, &self.verdict))
        {
            if o { &mut overlap } else { &mut solo }.push(s.latency() * 1e3);
        }
        (solo, overlap)
    }

    /// Lateness (ms) of every request the generator sent.
    pub fn late_ms(&self) -> Vec<f64> {
        self.ingest
            .iter()
            .chain(&self.verdict)
            .map(|s| s.late() * 1e3)
            .collect()
    }
}

/// Run the two open loops for `seconds`: ingest on this thread, verdicts
/// on one more.
pub fn drive(addr: SocketAddr, plan: &[(String, bool)], seconds: f64) -> Mixed {
    let t0 = Instant::now();
    let clock = Wall(t0);
    let mut errors = Vec::new();
    let (mut acked, mut duplicates) = (0u64, 0u64);
    let (ingest, verdict) = std::thread::scope(|s| {
        let reads = s.spawn(|| {
            let mut errs = Vec::new();
            let samples = open_loop(
                &Wall(t0),
                1.0 / VERDICT_HZ,
                0.5 / VERDICT_HZ,
                seconds,
                |_| match http(addr, "GET", "/v1/verdict", b"") {
                    Ok(r) if r.status == 200 && r.body.starts_with("ranking ") => true,
                    Ok(r) => {
                        errs.push(format!("verdict answered {}", r.status));
                        false
                    }
                    Err(e) => {
                        errs.push(format!("verdict transport error: {e}"));
                        false
                    }
                },
            );
            (samples, errs)
        });
        let ingest = open_loop(&clock, 1.0 / INGEST_HZ, 0.0, seconds, |i| {
            let (body, repush) = &plan[i.min(plan.len() - 1)];
            let n = BATCH as u64;
            let (want_acked, want_dups) = if *repush { (0, n) } else { (n, 0) };
            match push(addr, body, want_acked, want_dups) {
                Ok(()) => {
                    acked += want_acked;
                    duplicates += want_dups;
                    true
                }
                Err(e) => {
                    errors.push(e);
                    false
                }
            }
        });
        let (verdict, errs) = reads.join().expect("verdict thread does not panic");
        errors.extend(errs);
        (ingest, verdict)
    });
    Mixed {
        ingest,
        verdict,
        acked,
        duplicates,
        errors,
        wall: t0.elapsed().as_secs_f64(),
    }
}

/// Every acknowledged record is served exactly once, and the served
/// verdict is byte-identical to the offline `rank` over the same records.
fn final_checks(ctx: &Ctx, d: &Daemon, expected: &str, out: &mut Outcome) -> Result<(), String> {
    let fom = http(d.addr, "GET", "/v1/fom", b"").map_err(|e| format!("GET /v1/fom: {e}"))?;
    let mut want: Vec<&str> = expected.lines().collect();
    let mut got: Vec<&str> = fom.body.lines().collect();
    want.sort_unstable();
    got.sort_unstable();
    out.check(fom.status == 200 && want == got, || {
        format!(
            "/v1/fom holds {} records, expected {}",
            got.len(),
            want.len()
        )
    });
    let verdict =
        http(d.addr, "GET", "/v1/verdict", b"").map_err(|e| format!("GET /v1/verdict: {e}"))?;
    let file = ctx.work.join("served.jsonl");
    std::fs::write(&file, &fom.body)
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    let rank = sys::run(ctx.benchkit().arg("rank").arg(&file), &ctx.log())
        .map_err(|e| format!("cannot run benchkit rank: {e}"))?;
    out.check(
        verdict.status == 200 && rank.ok() && rank.stdout == verdict.body,
        || "served verdict differs from offline rank".into(),
    );
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = Rng::new(ctx.seed);
    let gen_seed = rng.next_u64();
    // Set-up: spawn the daemon and preload the base history, repeated;
    // the last repetition's daemon serves the timed loop.
    let mut setups = Vec::new();
    let mut daemon = None;
    let mut gen = RecordGen::new(gen_seed);
    let mut expected = String::new();
    for rep in 0..SETUP_REPS {
        drop(daemon.take());
        gen = RecordGen::new(gen_seed);
        let t = Instant::now();
        let d = Daemon::spawn(ctx, &ctx.work.join(format!("serve-{rep}")))?;
        expected = preload(d.addr, &mut gen)?;
        setups.push(t.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let d = daemon.expect("set-up ran");
    let batches = (ctx.seconds * INGEST_HZ).ceil() as usize + 1;
    let plan = plan(&mut gen, &mut rng, batches);
    let cpu0 = sys::proc_cpu_ms(d.pid()).unwrap_or(0.0);
    let mixed = drive(d.addr, &plan, ctx.seconds);
    let cpu_ms = sys::proc_cpu_ms(d.pid()).unwrap_or(0.0) - cpu0;
    let rss_kb = sys::proc_status_kb(d.pid(), "VmHWM").unwrap_or(0);
    for s in mixed.ingest.iter().chain(&mixed.verdict) {
        out.check(s.ok, || "request failed".into());
    }
    for e in &mixed.errors {
        eprintln!("hostbench: {e}");
    }
    for (i, (body, repush)) in plan.iter().enumerate().take(mixed.ingest.len()) {
        if !repush && mixed.ingest[i].ok {
            expected.push_str(body);
        }
    }
    final_checks(ctx, &d, &expected, &mut out)?;
    drop(d);

    let lat: Vec<f64> = mixed.ingest.iter().map(|s| s.latency() * 1e3).collect();
    let verdict: Vec<f64> = mixed.verdict.iter().map(|s| s.latency() * 1e3).collect();
    let (solo, overlap) = mixed.split_ms();
    let m = &mut out.metrics;
    m.insert("setup_s", median(&setups).unwrap_or(0.0));
    m.insert("op_p50_ms", median(&lat).unwrap_or(0.0));
    m.insert("items_per_s", mixed.acked as f64 / mixed.wall);
    m.insert("cpu_ms_per_item", cpu_ms / mixed.acked.max(1) as f64);
    m.insert("rss_mb", rss_kb as f64 / 1024.0);
    eprintln!(
        "hostbench: serve_mixed: {} ingests ({}), {} acked, {} duplicates; \
         verdict p50 {:.2} ms over {} reads; ingest p50 solo {:.3} ms ({}) / overlap {:.3} ms ({}); \
         generator late p99 {:.3} ms",
        lat.len(),
        tail_summary(&lat, TAIL_PCT),
        mixed.acked,
        mixed.duplicates,
        median(&verdict).unwrap_or(0.0),
        verdict.len(),
        median(&solo).unwrap_or(0.0),
        solo.len(),
        median(&overlap).unwrap_or(0.0),
        overlap.len(),
        percentile(&mixed.late_ms(), 99.0).unwrap_or(0.0)
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_repushes_every_tenth() {
        let mut gen = RecordGen::new(1);
        let p = plan(&mut gen, &mut Rng::new(2), 500);
        let repushes: Vec<&(String, bool)> = p.iter().filter(|(_, r)| *r).collect();
        assert_eq!(repushes.len(), 50);
        assert!(p.iter().enumerate().all(|(i, (_, r))| *r == (i % 10 == 9)));
        for (body, _) in &repushes {
            assert!(
                p.iter().any(|(b, r)| !r && b == body),
                "re-push of a sent batch"
            );
        }
        let again = plan(&mut RecordGen::new(1), &mut Rng::new(2), 500);
        assert!(p == again, "the plan is seeded");
        assert!(p.iter().all(|(b, _)| b.lines().count() == BATCH));
    }

    #[test]
    fn ingest_answer_parses() {
        assert_eq!(
            ingest_counts("{\"acked\":8,\"duplicates\":0,\"total\":2008}\n"),
            Some((8, 0))
        );
        assert_eq!(ingest_counts("nope"), None);
    }
}
