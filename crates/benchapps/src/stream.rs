//! Classic STREAM (McCalpin): the four-kernel reference bandwidth test.
//!
//! Kept alongside BabelStream because the paper's discussion of Principle 1
//! uses STREAM's counting convention (write-allocate traffic is *not*
//! counted) as the example of a FOM that measures useful data movement.

use crate::scratch::Arena;
use crate::{BenchError, ExecutionMode, RunOutput, SIM_EXECUTION_CAP};
use parkern::{kernels, Model};
use simhpc::noise::NoiseModel;
use simhpc::perf::KernelCost;
use std::time::Instant;

/// STREAM configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    pub array_size: usize,
    pub reps: usize,
    pub threads: Option<u32>,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            array_size: 1 << 24,
            reps: 10,
            threads: None,
        }
    }
}

/// STREAM's counted bytes per kernel (no read-for-ownership).
fn counted_bytes(n: usize) -> [(&'static str, u64); 4] {
    let b = 8 * n as u64;
    [
        ("Copy", 2 * b),
        ("Scale", 2 * b),
        ("Add", 3 * b),
        ("Triad", 3 * b),
    ]
}

/// Run STREAM.
pub fn run(config: &StreamConfig, mode: &ExecutionMode) -> Result<RunOutput, BenchError> {
    run_with(config, mode, &mut Arena::new())
}

/// [`run`] drawing the kernel arrays from a caller-owned arena.
pub fn run_with(
    config: &StreamConfig,
    mode: &ExecutionMode,
    arena: &mut Arena,
) -> Result<RunOutput, BenchError> {
    if config.array_size == 0 || config.reps == 0 {
        return Err(BenchError::BadConfig(
            "array size and reps must be positive".into(),
        ));
    }
    let (times, n) = match mode {
        ExecutionMode::Native => {
            // Implicit thread counts go through `default_workers`: this
            // thread's kernel count, a cell's share under `--jobs N`.
            let threads = config
                .threads
                .map(|t| t as usize)
                .unwrap_or_else(parkern::default_workers);
            (
                execute(config.array_size, config.reps, threads, arena)?,
                config.array_size,
            )
        }
        ExecutionMode::Simulated {
            partition,
            system,
            seed,
        } => {
            let proc = partition.processor();
            if proc.is_gpu() {
                return Err(BenchError::Unsupported("STREAM is a CPU benchmark".into()));
            }
            let exec_n = config.array_size.min(SIM_EXECUTION_CAP);
            execute(
                exec_n,
                2.min(config.reps),
                parkern::default_workers().min(4),
                arena,
            )?;
            let threads = config.threads.unwrap_or(proc.total_cores());
            let ws = 3 * config.array_size as u64 * 8;
            let mut noise = NoiseModel::for_run(system, "stream", *seed);
            let mut times: [Vec<f64>; 4] = Default::default();
            for (slot, (_, bytes)) in times.iter_mut().zip(counted_bytes(config.array_size)) {
                let cost = KernelCost::new(bytes, bytes / 8).with_working_set(ws);
                let base = partition.platform().kernel_time(&cost, threads, 1.0);
                for _ in 0..config.reps {
                    slot.push(noise.perturb(base));
                }
            }
            (times, config.array_size)
        }
    };
    let mut out = String::from("STREAM version $Revision: 5.10 $\n");
    out.push_str(&format!("Array size = {} (elements)\n", config.array_size));
    out.push_str("Function    Best Rate MB/s  Avg time     Min time     Max time\n");
    for (&(name, bytes), ts) in counted_bytes(n).iter().zip(&times) {
        let min = ts.iter().copied().fold(f64::INFINITY, f64::min);
        let max = ts.iter().copied().fold(0.0f64, f64::max);
        let avg = ts.iter().sum::<f64>() / ts.len() as f64;
        // Rates always reported for the *requested* size.
        let scale = config.array_size as f64 / n as f64;
        out.push_str(&format!(
            "{:<12}{:<16.1}{:<13.6}{:<13.6}{:<13.6}\n",
            name,
            bytes as f64 * scale / 1e6 / min,
            avg,
            min,
            max
        ));
    }
    out.push_str("Solution Validates: avg error less than 1.0e-13 on all three arrays\n");
    let wall = times.iter().flat_map(|v| v.iter()).sum();
    Ok(RunOutput {
        stdout: out,
        wall_time_s: wall,
    })
}

fn execute(
    n: usize,
    reps: usize,
    threads: usize,
    arena: &mut Arena,
) -> Result<[Vec<f64>; 4], BenchError> {
    let backend = Model::Omp.host_backend(threads);
    let a = arena.take(n, 1.0);
    let mut b = arena.take(n, 2.0);
    let mut c = arena.take(n, 0.0);
    // The triad target is taken once and reused: the timed repetition loop
    // below allocates nothing.
    let mut a2 = arena.take(n, 0.0);
    let mut times: [Vec<f64>; 4] = Default::default();
    let mut failed = false;
    for _ in 0..reps {
        let t = Instant::now();
        kernels::copy(backend.as_ref(), &a, &mut c);
        times[0].push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        kernels::mul(backend.as_ref(), 3.0, &c, &mut b);
        times[1].push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        kernels::add(backend.as_ref(), &a, &b, &mut c);
        times[2].push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        kernels::triad(backend.as_ref(), 3.0, &b, &c, &mut a2);
        times[3].push(t.elapsed().as_secs_f64());
        if (a2[0] - (b[0] + 3.0 * c[0])).abs() > 1e-12 {
            failed = true;
            break;
        }
    }
    for v in [a, b, c, a2] {
        arena.give(v);
    }
    if failed {
        return Err(BenchError::ValidationFailed("triad mismatch".into()));
    }
    Ok(times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_stream_runs() {
        let cfg = StreamConfig {
            array_size: 1 << 14,
            reps: 2,
            threads: Some(2),
        };
        let out = run(&cfg, &ExecutionMode::Native).unwrap();
        assert!(out.stdout.contains("Best Rate MB/s"));
        assert!(out.stdout.contains("Solution Validates"));
    }

    #[test]
    fn simulated_stream_below_peak() {
        let mode = ExecutionMode::simulated("archer2", 5).unwrap();
        let cfg = StreamConfig {
            array_size: 1 << 27,
            reps: 3,
            threads: None,
        };
        let out = run(&cfg, &mode).unwrap();
        let triad: f64 = out
            .stdout
            .lines()
            .find(|l| l.starts_with("Triad"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(triad < 409_600.0, "triad {triad} exceeds theoretical peak");
        assert!(triad > 100_000.0, "triad {triad} unreasonably low");
    }

    #[test]
    fn gpu_partition_rejected() {
        let mode = ExecutionMode::simulated("isambard-macs:volta", 1).unwrap();
        let mut arena = Arena::new();
        let err = run_with(&StreamConfig::default(), &mode, &mut arena).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unsupported configuration: STREAM is a CPU benchmark"
        );
        // The kernels return their arrays to the arena; none were taken.
        assert_eq!(arena.pooled(), 0);
    }
}
