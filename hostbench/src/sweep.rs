//! `survey_sweep`: back-to-back `benchkit survey` runs over the full
//! catalog grid at `--jobs 2`, with no store, checkpoint or perflog.

use crate::gen::{Rng, PARTITIONS};
use crate::stats::{median, tail_summary};
use crate::{sys, Ctx, Outcome};
use std::time::Instant;

/// Seeds whose `--jobs 1` FOM digests are computed in set-up; studies
/// cycle through them so every study is checked against its reference.
const POOL: usize = 2;
/// Set-up repetitions (median reported). The first runs before the timed
/// loop; the others are spread evenly through it, so their median samples
/// the host over the same window as the studies: the shared host's speed
/// drifts, and a few seconds at the start of a run sample it at a random
/// phase (see `NOTES.md`).
const SETUP_REPS: usize = 7;
/// Tail percentile, fixed from the fewest studies a 45 s run gives on two
/// cores (116 on a slow host; p90 would need 100, too close to it).
const TAIL_PCT: f64 = 75.0;
/// 16 cases x 7 partitions.
pub const GRID_CELLS: u64 = 112;

/// `-c <case>...` then `--system <partition>...` for the full grid.
pub fn grid_args() -> Vec<String> {
    let mut args = Vec::new();
    for case in benchkit::cli::benchmark_names() {
        args.push("-c".to_string());
        args.push(case);
    }
    for p in PARTITIONS {
        args.push("--system".to_string());
        args.push(p.to_string());
    }
    args
}

/// `(ran, skipped, failed)` from a survey's summary line.
pub fn summary(stdout: &str) -> Option<(u64, u64, u64)> {
    let line = stdout.lines().find(|l| l.starts_with("ran "))?;
    let n: Vec<u64> = line
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    match n[..] {
        [ran, skipped, failed] => Some((ran, skipped, failed)),
        _ => None,
    }
}

/// FNV-1a digest of the FOM table: the `sequence` header line and every
/// line after it.
pub fn fom_digest(stdout: &str) -> Option<u64> {
    let at = stdout.find("\nsequence ")? + 1;
    Some(spackle::fnv1a64(&stdout.as_bytes()[at..]))
}

fn survey(ctx: &Ctx, seed: u64, jobs: u32) -> Result<sys::Finished, String> {
    sys::run(
        ctx.benchkit().arg("survey").args(grid_args()).args([
            "--seed",
            &seed.to_string(),
            "--jobs",
            &jobs.to_string(),
        ]),
        &ctx.log(),
    )
    .map_err(|e| format!("cannot run benchkit survey: {e}"))
}

/// One set-up repetition: the `--jobs 1` FOM-table digest of each pool
/// seed, timed.
fn set_up(ctx: &Ctx, seeds: &[u64], out: &mut Outcome) -> Result<(f64, Vec<Option<u64>>), String> {
    let t = Instant::now();
    let mut digests = Vec::new();
    for &s in seeds {
        let f = survey(ctx, s, 1)?;
        let d = if f.ok() { fom_digest(&f.stdout) } else { None };
        out.check(d.is_some(), || {
            format!("reference survey seed {s} exit {}", f.code)
        });
        digests.push(d);
    }
    Ok((t.elapsed().as_secs_f64(), digests))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = Rng::new(ctx.seed);
    let seeds: Vec<u64> = (0..POOL).map(|_| rng.below(1 << 31)).collect();

    // Set-up: the byte-identity reference of each pool seed at --jobs 1.
    let (first, reference) = set_up(ctx, &seeds, &mut out)?;
    let mut setups = vec![first];

    // Timed closed loop; set-up repetitions in it are not timed as
    // studies, and each must reproduce the first one's digests.
    let (mut lat, mut cells, mut cpu_ms, mut rss_kb) = (Vec::new(), 0u64, 0f64, 0i64);
    let t0 = Instant::now();
    let mut paused = 0.0;
    let timed = |paused: f64| t0.elapsed().as_secs_f64() - paused;
    let mut i = 0usize;
    while timed(paused) < ctx.seconds {
        if timed(paused) >= ctx.seconds * setups.len() as f64 / SETUP_REPS as f64 {
            let (secs, digests) = set_up(ctx, &seeds, &mut out)?;
            out.check(digests == reference, || {
                "reference digests differ between set-ups".into()
            });
            setups.push(secs);
            paused += secs;
            continue;
        }
        let k = i % POOL;
        let f = survey(ctx, seeds[k], 2)?;
        lat.push(f.wall.as_secs_f64() * 1e3);
        cpu_ms += f.cpu_ms;
        rss_kb = rss_kb.max(f.maxrss_kb);
        let counts = summary(&f.stdout);
        if let Some((ran, skipped, _)) = counts {
            cells += ran + skipped;
        }
        let ok = f.ok()
            && matches!(counts, Some((r, s, 0)) if r + s == GRID_CELLS)
            && reference[k].is_some()
            && fom_digest(&f.stdout) == reference[k];
        out.check(ok, || {
            format!("study {i} (seed {}) exit {}", seeds[k], f.code)
        });
        i += 1;
    }
    let wall = timed(paused);
    let m = &mut out.metrics;
    m.insert("setup_s", median(&setups).unwrap_or(0.0));
    m.insert("op_p50_ms", median(&lat).unwrap_or(0.0));
    m.insert("items_per_s", cells as f64 / wall);
    m.insert("cpu_ms_per_item", cpu_ms / cells.max(1) as f64);
    m.insert("rss_mb", rss_kb as f64 / 1024.0);
    eprintln!(
        "hostbench: survey_sweep: {} studies, {cells} cells in {wall:.2} s; {} set-ups; {}",
        lat.len(),
        setups.len(),
        tail_summary(&lat, TAIL_PCT)
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_summary_and_digests_the_fom_table() {
        let out = "[1/2] a on x: ok\nran 81  skipped 31  failed 0\nsequence  benchmark\n1 a\n";
        assert_eq!(summary(out), Some((81, 31, 0)));
        let d = fom_digest(out).unwrap();
        assert_eq!(fom_digest("other\nsequence  benchmark\n1 a\n"), Some(d));
        assert_ne!(fom_digest("x\nsequence  benchmark\n1 b\n"), Some(d));
        assert_eq!(fom_digest("no table"), None);
        assert_eq!(grid_args().len(), 2 * (16 + 7));
    }
}
