//! `hostbench` — benchkit's host cost, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <survey_sweep|serve_mixed> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. The benchmark builds the shipped
//! `benchkit` binary from source, drives it with seeded inputs only, checks
//! its outputs, and prints one JSON result object as the last line of
//! stdout. `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced in-process layer replay instead.
//! `--runs N` runs the workload N times with consecutive seeds and prints
//! the spread report. See `NOTES.md` for the workloads and the metric map.

mod gen;
mod loadgen;
mod metrics;
mod nightly;
mod replay;
mod serve;
mod spread;
mod stats;
mod sweep;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Everything a workload needs from the command line and the build.
pub struct Ctx {
    /// The `benchkit` binary under test.
    pub bin: PathBuf,
    /// Scratch directory of this run (removed at exit).
    pub work: PathBuf,
    /// Where traces are kept.
    pub traces: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
}

impl Ctx {
    /// A `benchkit` command with the fault and thread knobs cleared, so
    /// the environment cannot change what is measured.
    pub fn benchkit(&self) -> Command {
        let mut c = Command::new(&self.bin);
        for var in [
            "BENCHKIT_THREADS",
            "BENCHKIT_IOFAULTS",
            "BENCHKIT_NETFAULTS",
        ] {
            c.env_remove(var);
        }
        c
    }

    /// Children's stderr goes here.
    pub fn log(&self) -> PathBuf {
        self.work.join("children.stderr")
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("hostbench: check failed: {}", what());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10f64, false);
    let mut runs = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                let n: usize = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if !(2..=50).contains(&n) {
                    return Err("--runs must be in [2, 50]".into());
                }
                runs = Some(n);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            metrics::WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        runs,
    })
}

/// Build `benchkit` from the checkout's sources and return its path.
fn build_benchkit(root: &Path) -> Result<PathBuf, String> {
    if !root.join("Cargo.toml").is_file() || !root.join("crates/core").is_dir() {
        return Err(format!(
            "{} is not a benchkit checkout (run from the repository root)",
            root.display()
        ));
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "benchkit",
            "--bin",
            "benchkit",
        ])
        .current_dir(root)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building benchkit failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = root.join(target).join("release/benchkit");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("built binary missing at {}", bin.display()))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.runs {
        return match spread::report(&args.workload, args.seed, args.seconds, args.trace, runs) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("hostbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let root = std::env::current_dir().expect("current directory is readable");
    let bin = match build_benchkit(&root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(1);
        }
    };
    let machine = sys::Machine::capture();
    let work = root
        .join(".bench_work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("hostbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        bin,
        work: work.clone(),
        traces: root.join(".bench_traces"),
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
    };
    let outcome = if args.trace {
        replay::run(&ctx)
    } else {
        match args.workload.as_str() {
            "survey_sweep" => sweep::run(&ctx),
            _ => serve::run(&ctx),
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hostbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let table = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    match metrics::render(table, &outcome) {
        Ok(json) => {
            println!("{}", machine.finish());
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::from(1)
        }
    }
}
