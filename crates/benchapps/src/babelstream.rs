//! BabelStream: sustained memory bandwidth in nine programming models.
//!
//! Reproduces the benchmark of §3.1 / Figure 2. Five kernels (Copy, Mul,
//! Add, Triad, Dot) sweep three arrays; the headline Figure of Merit is the
//! Triad bandwidth in MBytes/sec, extracted by the harness from the output
//! table exactly as ReFrame does from the real BabelStream.

use crate::memo::{self, Solution, SolveKey, SolveMemo};
use crate::scratch::Arena;
use crate::{BenchError, ExecutionMode, RunOutput, SIM_EXECUTION_CAP};
use parkern::{kernels, Backend, Model, SerialBackend};
use simhpc::noise::NoiseModel;
use simhpc::perf::KernelCost;
use std::time::Instant;

/// Configuration mirroring the real tool's command line.
#[derive(Debug, Clone)]
pub struct BabelStreamConfig {
    /// Elements per array (`--arraysize`); the paper uses 2^25, and 2^29 on
    /// Milan so the working set exceeds its 512 MB of L3.
    pub array_size: usize,
    /// Repetitions (`--numtimes`), default 100.
    pub reps: usize,
    pub model: Model,
    /// Threads to use; `None` = all cores of the target.
    pub threads: Option<u32>,
}

impl Default for BabelStreamConfig {
    fn default() -> BabelStreamConfig {
        BabelStreamConfig {
            array_size: 1 << 25,
            reps: 100,
            model: Model::Omp,
            threads: None,
        }
    }
}

const SCALAR: f64 = 0.4;
const INIT_A: f64 = 0.1;
const INIT_B: f64 = 0.2;
const INIT_C: f64 = 0.0;

/// Per-kernel measured rates.
#[derive(Debug, Clone)]
pub struct KernelRates {
    /// (name, mbytes_per_sec, min_s, max_s, avg_s)
    pub rows: Vec<(String, f64, f64, f64, f64)>,
}

/// Bytes moved by one invocation of each kernel at size `n`.
fn kernel_bytes(n: usize) -> [(&'static str, u64); 5] {
    let b = 8 * n as u64;
    [
        ("Copy", 2 * b),
        ("Mul", 2 * b),
        ("Add", 3 * b),
        ("Triad", 3 * b),
        ("Dot", 2 * b),
    ]
}

/// Run BabelStream, validating every call.
pub fn run(config: &BabelStreamConfig, mode: &ExecutionMode) -> Result<RunOutput, BenchError> {
    run_memo(config, mode, &mut Arena::new(), None)
}

/// Run BabelStream, drawing the kernel arrays from `arena` and taking a
/// simulated run's validation from `memo` when one is given (see
/// [`crate::memo`]); native runs always execute.
pub fn run_memo(
    config: &BabelStreamConfig,
    mode: &ExecutionMode,
    arena: &mut Arena,
    memo: Option<&SolveMemo>,
) -> Result<RunOutput, BenchError> {
    match mode {
        ExecutionMode::Native => {
            validate(config)?;
            run_native(config, arena)
        }
        ExecutionMode::Simulated {
            partition,
            system,
            seed,
        } => {
            precheck(config, partition)?;
            run_simulated(config, partition, system, *seed, arena, memo)
        }
    }
}

fn validate(config: &BabelStreamConfig) -> Result<(), BenchError> {
    if config.array_size == 0 || config.reps == 0 {
        return Err(BenchError::BadConfig(
            "array size and reps must be positive".into(),
        ));
    }
    Ok(())
}

/// What a simulated run on `partition` decides before any host work: a
/// bad configuration, then a model the platform does not offer (a skip).
/// [`run_memo`] goes through it, and the harness asks it before the build
/// stage, so an unsupported cell never builds.
pub fn precheck(
    config: &BabelStreamConfig,
    partition: &simhpc::Partition,
) -> Result<(), BenchError> {
    validate(config)?;
    let proc = partition.processor();
    if !config.model.available_on(proc) {
        return Err(BenchError::Unsupported(format!(
            "model {} is not available on {}",
            config.model.name(),
            proc.model()
        )));
    }
    Ok(())
}

/// Execute the kernels for real on `backend` and validate the
/// arithmetic. Returns the per-rep wall times (seconds) for each kernel,
/// at problem size `n`.
fn execute_and_validate(
    backend: &dyn Backend,
    n: usize,
    reps: usize,
    arena: &mut Arena,
) -> Result<[Vec<f64>; 5], BenchError> {
    let mut a = arena.take(n, INIT_A);
    let mut b = arena.take(n, INIT_B);
    let mut c = arena.take(n, INIT_C);
    let mut times: [Vec<f64>; 5] = Default::default();
    let mut dot_sum = 0.0;
    for _ in 0..reps {
        let t = Instant::now();
        kernels::copy(backend, &a, &mut c);
        times[0].push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        kernels::mul(backend, SCALAR, &c, &mut b);
        times[1].push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        kernels::add(backend, &a, &b, &mut c);
        times[2].push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        kernels::triad(backend, SCALAR, &b, &c, &mut a);
        times[3].push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        dot_sum = kernels::dot(backend, &a, &b);
        times[4].push(t.elapsed().as_secs_f64());
    }
    // Validation, as the real BabelStream does: evolve scalars the same way.
    let (mut va, mut vb) = (INIT_A, INIT_B);
    let mut vc;
    for _ in 0..reps {
        vc = va;
        vb = SCALAR * vc;
        vc = va + vb;
        va = vb + SCALAR * vc;
    }
    let err_a = (a[0] - va).abs() / va.abs();
    let err_dot = (dot_sum - va * vb * n as f64).abs() / (va * vb * n as f64).abs();
    for v in [a, b, c] {
        arena.give(v);
    }
    if err_a > 1e-8 {
        return Err(BenchError::ValidationFailed(format!(
            "array a error {err_a:.3e}"
        )));
    }
    if err_dot > 1e-8 {
        return Err(BenchError::ValidationFailed(format!(
            "dot error {err_dot:.3e}"
        )));
    }
    Ok(times)
}

fn run_native(config: &BabelStreamConfig, arena: &mut Arena) -> Result<RunOutput, BenchError> {
    let host = simhpc::catalog::system("native").expect("native system always present");
    let cores = host.default_partition().processor().total_cores();
    // An implicit count is also held to this thread's kernel count (a
    // survey cell's share of the machine under `--jobs N`).
    let threads = match config.threads {
        Some(t) => t as usize,
        None => {
            let model = config
                .model
                .threads_on(host.default_partition().processor());
            (model.min(cores) as usize).min(parkern::default_workers())
        }
    };
    let start = Instant::now();
    let backend = config.model.host_backend(threads);
    let times = execute_and_validate(backend.as_ref(), config.array_size, config.reps, arena)?;
    let rates = rates_from_times(config.array_size, &times);
    let wall = start.elapsed().as_secs_f64();
    Ok(RunOutput {
        stdout: render(config, "native", &rates),
        wall_time_s: wall,
    })
}

/// Every input of a simulated run's host validation, after the size and
/// repetition caps. The validation runs on the serial reference, so the
/// model never reaches it.
pub fn solve_key(config: &BabelStreamConfig) -> SolveKey {
    SolveKey::BabelStream {
        n: config.array_size.min(SIM_EXECUTION_CAP),
        reps: 3.min(config.reps),
    }
}

fn run_simulated(
    config: &BabelStreamConfig,
    partition: &simhpc::Partition,
    system: &str,
    seed: u64,
    arena: &mut Arena,
    memo: Option<&SolveMemo>,
) -> Result<RunOutput, BenchError> {
    let proc = partition.processor();
    // Run the real numerics at a capped size for validation, once per
    // distinct capped problem when a memo is given. Every model runs the
    // same serial host code, so all of them share one validation.
    let key = solve_key(config);
    let SolveKey::BabelStream { n, reps } = key else {
        unreachable!("a BabelStream config keys a BabelStream solve")
    };
    memo::solve_with(memo, key, || {
        execute_and_validate(&SerialBackend, n, reps, arena).map(|_| Solution::Validated)
    })?;

    // Model the timing at the full requested size.
    let threads = config.threads.unwrap_or(config.model.threads_on(proc));
    let model_eff = config.model.efficiency_on(proc);
    let working_set = 3 * config.array_size as u64 * 8;
    let mut noise = NoiseModel::for_run(
        system,
        &format!("babelstream-{}", config.model.name()),
        seed,
    );
    let mut times: [Vec<f64>; 5] = Default::default();
    for (slot, (_, bytes)) in times.iter_mut().zip(kernel_bytes(config.array_size)) {
        let cost = KernelCost::new(bytes, bytes / 8).with_working_set(working_set);
        let base = partition.platform().kernel_time(&cost, threads, model_eff);
        for _ in 0..config.reps {
            slot.push(noise.perturb(base));
        }
    }
    let rates = rates_from_times(config.array_size, &times);
    let wall: f64 = times.iter().flat_map(|v| v.iter()).sum();
    Ok(RunOutput {
        stdout: render(config, system, &rates),
        wall_time_s: wall,
    })
}

fn rates_from_times(n: usize, times: &[Vec<f64>; 5]) -> KernelRates {
    let rows = kernel_bytes(n)
        .iter()
        .zip(times)
        .map(|(&(name, bytes), ts)| {
            // Like the real tool: rate from the fastest repetition.
            let min = ts.iter().copied().fold(f64::INFINITY, f64::min);
            let max = ts.iter().copied().fold(0.0f64, f64::max);
            let avg = ts.iter().sum::<f64>() / ts.len() as f64;
            let mbytes_per_sec = bytes as f64 / 1.0e6 / min;
            (name.to_string(), mbytes_per_sec, min, max, avg)
        })
        .collect();
    KernelRates { rows }
}

fn render(config: &BabelStreamConfig, system: &str, rates: &KernelRates) -> String {
    let n = config.array_size;
    let mb = (n * 8) as f64 / 1.0e6;
    let mut out = String::new();
    out.push_str("BabelStream\n");
    out.push_str("Version: 5.0\n");
    out.push_str(&format!("Implementation: {}\n", config.model.name()));
    out.push_str(&format!("Running kernels {} times\n", config.reps));
    out.push_str("Precision: double\n");
    out.push_str(&format!("System: {system}\n"));
    out.push_str(&format!(
        "Array size: {:.1} MB (={:.1} GB)\n",
        mb,
        mb / 1000.0
    ));
    out.push_str(&format!(
        "Total size: {:.1} MB (={:.1} GB)\n",
        3.0 * mb,
        3.0 * mb / 1000.0
    ));
    out.push_str(&format!(
        "{:<12}{:<14}{:<12}{:<12}{:<12}\n",
        "Function", "MBytes/sec", "Min (sec)", "Max", "Average"
    ));
    for (name, rate, min, max, avg) in &rates.rows {
        out.push_str(&format!(
            "{:<12}{:<14.3}{:<12.5}{:<12.5}{:<12.5}\n",
            name, rate, min, max, avg
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(model: Model) -> BabelStreamConfig {
        BabelStreamConfig {
            array_size: 1 << 14,
            reps: 3,
            model,
            threads: Some(2),
        }
    }

    #[test]
    fn all_nine_models_share_one_validation() {
        // Every model validates on the serial reference, so the memo key
        // names no model: the whole model axis poses one problem.
        let shared = SolveMemo::new();
        for model in Model::all() {
            let cfg = small(*model);
            ["isambard-macs:cascadelake", "isambard-macs:volta"]
                .iter()
                .map(|p| ExecutionMode::simulated(p, 1).unwrap())
                .find_map(|mode| run_memo(&cfg, &mode, &mut Arena::new(), Some(&shared)).ok())
                .expect("the model runs on one of the two partitions");
        }
        assert_eq!(
            shared.keys(),
            [SolveKey::BabelStream {
                n: 1 << 14,
                reps: 3
            }]
        );
    }

    #[test]
    fn native_run_produces_all_kernels() {
        let out = run(&small(Model::Omp), &ExecutionMode::Native).unwrap();
        for k in ["Copy", "Mul", "Add", "Triad", "Dot"] {
            assert!(out.stdout.contains(k), "missing kernel {k} in output");
        }
        assert!(out.wall_time_s > 0.0);
    }

    #[test]
    fn all_models_validate_natively() {
        for &m in Model::all() {
            let out = run(&small(m), &ExecutionMode::Native);
            assert!(out.is_ok(), "model {} failed: {:?}", m.name(), out.err());
        }
    }

    #[test]
    fn simulated_triad_near_v100_peak() {
        // Figure 2: CUDA on the V100 sits close to theoretical peak.
        let mode = ExecutionMode::simulated("isambard-macs:volta", 42).unwrap();
        let cfg = BabelStreamConfig {
            array_size: 1 << 25,
            reps: 10,
            model: Model::Cuda,
            threads: None,
        };
        let out = run(&cfg, &mode).unwrap();
        let triad = extract_triad(&out.stdout);
        let frac = triad / 900_000.0; // MBytes/s over 900 GB/s peak
        assert!(frac > 0.85 && frac < 1.0, "V100 CUDA triad fraction {frac}");
    }

    #[test]
    fn simulated_std_ranges_much_slower() {
        let mode = ExecutionMode::simulated("noctua2:milan", 42).unwrap();
        let big = |model| BabelStreamConfig {
            array_size: 1 << 29,
            reps: 5,
            model,
            threads: None,
        };
        let omp = extract_triad(&run(&big(Model::Omp), &mode).unwrap().stdout);
        let ranges = extract_triad(&run(&big(Model::StdRanges), &mode).unwrap().stdout);
        assert!(
            omp / ranges > 5.0,
            "std-ranges should be far slower (single thread): omp={omp} ranges={ranges}"
        );
    }

    #[test]
    fn unavailable_combination_rejected() {
        // CUDA on a CPU partition — the white boxes of Figure 2.
        let mode = ExecutionMode::simulated("csd3", 1).unwrap();
        let cfg = BabelStreamConfig {
            model: Model::Cuda,
            ..small(Model::Cuda)
        };
        assert!(matches!(run(&cfg, &mode), Err(BenchError::Unsupported(_))));
        // TBB on ThunderX2.
        let mode = ExecutionMode::simulated("isambard:xci", 1).unwrap();
        let cfg = BabelStreamConfig {
            model: Model::Tbb,
            ..small(Model::Tbb)
        };
        assert!(matches!(run(&cfg, &mode), Err(BenchError::Unsupported(_))));
    }

    #[test]
    fn simulated_runs_are_reproducible() {
        let mode = ExecutionMode::simulated("archer2", 7).unwrap();
        let cfg = BabelStreamConfig {
            array_size: 1 << 22,
            reps: 5,
            ..Default::default()
        };
        let a = run(&cfg, &mode).unwrap();
        let b = run(&cfg, &mode).unwrap();
        assert_eq!(a.stdout, b.stdout, "same seed must reproduce identically");
        let mode2 = ExecutionMode::simulated("archer2", 8).unwrap();
        let c = run(&cfg, &mode2).unwrap();
        assert_ne!(a.stdout, c.stdout, "different seed must differ");
    }

    #[test]
    fn milan_cache_inflation_shows_why_paper_used_2pow29() {
        // §3.1: with 2^25 elements on Milan the arrays fit in L3 and the
        // "bandwidth" exceeds DRAM's theoretical peak — the paper bumped the
        // size to 2^29 to avoid exactly this.
        let mode = ExecutionMode::simulated("noctua2:milan", 3).unwrap();
        let small_ws = BabelStreamConfig {
            array_size: 1 << 22, // 100 MB total: fits in 512 MB L3
            reps: 5,
            model: Model::Omp,
            threads: None,
        };
        let big_ws = BabelStreamConfig {
            array_size: 1 << 29,
            ..small_ws.clone()
        };
        let t_small = extract_triad(&run(&small_ws, &mode).unwrap().stdout);
        let t_big = extract_triad(&run(&big_ws, &mode).unwrap().stdout);
        assert!(
            t_small > 1.5 * t_big,
            "cache-resident run should inflate bandwidth: {t_small} vs {t_big}"
        );
        // And the honest (2^29) number stays below theoretical peak.
        assert!(t_big < 409_600.0);
    }

    #[test]
    fn zero_config_rejected() {
        let cfg = BabelStreamConfig {
            array_size: 0,
            ..Default::default()
        };
        assert!(run(&cfg, &ExecutionMode::Native).is_err());
    }

    fn extract_triad(stdout: &str) -> f64 {
        stdout
            .lines()
            .find(|l| l.starts_with("Triad"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .expect("Triad row present")
    }
}
