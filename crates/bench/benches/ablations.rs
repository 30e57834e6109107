//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **P3 (rebuild every run)** — pipeline cost with rebuilds on vs off;
//! * **scheduler policy** — backfill vs FIFO on a mixed workload;
//! * **concretizer reuse** — fresh store vs warm store installs;
//! * **perflog assimilation** — concatenation scaling across systems.

use batchsim::{JobRequest, Policy, Scheduler};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harness::{cases, Harness, RunOptions};
use parkern::Model;
use std::time::Duration;

fn quick<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(10);
    g.measurement_time(Duration::from_millis(1500));
    g.warm_up_time(Duration::from_millis(300));
    g
}

/// P3 on/off: the wall cost of the pipeline when the root package is
/// rebuilt for every run versus reusing the stale binary.
fn ablation_rebuild_every_run(c: &mut Criterion) {
    let mut g = quick(c, "ablation_p3");
    for (label, rebuild) in [("rebuild_on", true), ("rebuild_off", false)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(label),
            &rebuild,
            |b, &rebuild| {
                let mut opts = RunOptions::on_system("csd3");
                opts.rebuild_every_run = rebuild;
                let mut h = Harness::new(opts);
                let case = cases::babelstream(Model::Omp, 1 << 20);
                h.run_case(&case).expect("prime the store");
                b.iter(|| h.run_case(&case).expect("pipeline runs"));
            },
        );
    }
    g.finish();
}

/// Backfill vs FIFO: simulate the same 60-job mixed workload and measure
/// the scheduling cost; the resulting mean waits are printed once so the
/// quality difference is visible alongside the timing.
fn ablation_scheduler_policy(c: &mut Criterion) {
    let mut g = quick(c, "ablation_scheduler");
    let workload: Vec<(u32, f64, f64)> = (0..60)
        .map(|i| {
            let nodes = 1 + (i * 7 % 10);
            let run = 20.0 + (i * 13 % 90) as f64;
            (nodes, run, run * 2.0)
        })
        .collect();
    let simulate = |policy: Policy| -> f64 {
        let mut s = Scheduler::new(policy, 16, 128);
        for (i, &(nodes, run, limit)) in workload.iter().enumerate() {
            let req = JobRequest::new(&format!("j{i}"), nodes, 1, 8).with_time_limit(limit);
            s.submit(req, run).expect("fits");
        }
        s.run_to_completion();
        s.mean_wait_time()
    };
    let fifo_wait = simulate(Policy::Fifo);
    let bf_wait = simulate(Policy::Backfill);
    println!("ablation_scheduler: mean wait FIFO={fifo_wait:.1}s backfill={bf_wait:.1}s");
    for (label, policy) in [("fifo", Policy::Fifo), ("backfill", Policy::Backfill)] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &policy, |b, &policy| {
            b.iter(|| simulate(policy));
        });
    }
    g.finish();
}

/// Concretizer + installer with cold vs warm package stores.
fn ablation_store_reuse(c: &mut Criterion) {
    let mut g = quick(c, "ablation_store");
    let repo = spackle::Repo::builtin();
    let sys = simhpc::catalog::system("csd3").expect("catalog");
    let ctx = spackle::context_for(sys, sys.default_partition());
    let spec = spackle::Spec::parse("babelstream%gcc +kokkos").expect("valid");
    let concrete = spackle::concretize(&spec, &repo, &ctx).expect("concretizes");
    g.bench_function("cold_store", |b| {
        b.iter(|| {
            let mut store = spackle::Store::new();
            spackle::install(&concrete, &mut store, spackle::InstallOptions::default())
        });
    });
    g.bench_function("warm_store", |b| {
        let mut store = spackle::Store::new();
        spackle::install(&concrete, &mut store, spackle::InstallOptions::default());
        b.iter(|| spackle::install(&concrete, &mut store, spackle::InstallOptions::default()));
    });
    g.finish();
}

/// Assimilating perflogs from 2 vs 8 systems (P6 scaling).
fn ablation_assimilation(c: &mut Criterion) {
    let mut g = quick(c, "ablation_assimilation");
    let log_for = |system: &str, n: usize| -> String {
        let mut log = perflogs::Perflog::new();
        for i in 0..n {
            log.append(perflogs::PerflogRecord {
                sequence: i as u64,
                benchmark: "babelstream_omp".into(),
                system: system.into(),
                partition: "p".into(),
                environ: "gcc".into(),
                spec: "babelstream@5.0".into(),
                build_hash: "abcdefg".into(),
                job_id: None,
                num_tasks: 1,
                num_tasks_per_node: 1,
                num_cpus_per_task: 64,
                foms: vec![perflogs::Fom {
                    name: "Triad".into(),
                    value: i as f64,
                    unit: "MB/s".into(),
                }],
                extras: vec![],
            });
        }
        log.to_jsonl()
    };
    for n_systems in [2usize, 8] {
        let logs: Vec<String> = (0..n_systems)
            .map(|i| log_for(&format!("sys{i}"), 50))
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(n_systems), &logs, |b, logs| {
            b.iter(|| postproc::assimilate(logs).expect("assimilates"));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    ablation_rebuild_every_run,
    ablation_scheduler_policy,
    ablation_store_reuse,
    ablation_assimilation
);
criterion_main!(benches);
