//! Criterion benches for the framework substrates: the regex engine's FOM
//! extraction, the concretizer, perflog parsing, and data-frame analytics —
//! the per-run overheads the paper's productivity claim (§3.1) rests on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dframe::{Cell, DataFrame};
use std::time::Duration;

fn quick<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(10);
    g.measurement_time(Duration::from_millis(1000));
    g.warm_up_time(Duration::from_millis(200));
    g
}

fn bench_regex_fom_extraction(c: &mut Criterion) {
    let mut g = quick(c, "rexpr");
    // A realistic BabelStream output block.
    let mut output = String::from("BabelStream\nVersion 5.0\n");
    for (k, v) in [
        ("Copy", 201_000.0),
        ("Mul", 198_000.0),
        ("Add", 212_000.0),
        ("Triad", 214_500.5),
        ("Dot", 188_000.0),
    ] {
        output.push_str(&format!(
            "{k:<12}{v:<14.3}0.00132     0.00140     0.00135\n"
        ));
    }
    let re = rexpr::Regex::new(r"Triad\s+([\d.]+)").expect("valid pattern");
    g.bench_function("fom_extraction", |b| {
        b.iter(|| {
            let caps = re.captures(&output).expect("matches");
            caps.get(1)
                .expect("capture")
                .as_str()
                .parse::<f64>()
                .expect("numeric")
        });
    });
    g.bench_function("compile_pattern", |b| {
        b.iter(|| rexpr::Regex::new(r"level (\d) FMG solve averaged ([\d.eE+-]+) DOF/s"));
    });
    g.finish();
}

fn bench_concretizer(c: &mut Criterion) {
    let mut g = quick(c, "spackle");
    let repo = spackle::Repo::builtin();
    let sys = simhpc::catalog::system("archer2").expect("catalog");
    let ctx = spackle::context_for(sys, sys.default_partition());
    let spec = spackle::Spec::parse("hpgmg%gcc").expect("valid");
    g.bench_function("concretize_hpgmg", |b| {
        b.iter(|| spackle::concretize(&spec, &repo, &ctx).expect("concretizes"));
    });
    let deep = spackle::Spec::parse("babelstream%gcc +kokkos").expect("valid");
    g.bench_function("concretize_babelstream_kokkos", |b| {
        b.iter(|| spackle::concretize(&deep, &repo, &ctx).expect("concretizes"));
    });
    g.bench_function("spec_parse", |b| {
        b.iter(|| spackle::Spec::parse("hpcg@3.1%gcc@11.2.0 +mpi impl=matfree ^openmpi@4.0.4"));
    });
    g.finish();
}

fn sample_perflog(n: usize) -> String {
    let mut log = perflogs::Perflog::new();
    for i in 0..n {
        log.append(perflogs::PerflogRecord {
            sequence: i as u64,
            benchmark: "babelstream_omp".into(),
            system: if i % 2 == 0 {
                "archer2".into()
            } else {
                "csd3".into()
            },
            partition: "p".into(),
            environ: "gcc@11.2.0".into(),
            spec: "babelstream@5.0%gcc@11.2.0 +omp".into(),
            build_hash: "abcdefg".into(),
            job_id: Some(i as u64),
            num_tasks: 1,
            num_tasks_per_node: 1,
            num_cpus_per_task: 128,
            foms: vec![perflogs::Fom {
                name: "Triad".into(),
                value: 300_000.0 + i as f64,
                unit: "MB/s".into(),
            }],
            extras: vec![],
        });
    }
    log.to_jsonl()
}

fn bench_perflog(c: &mut Criterion) {
    let mut g = quick(c, "perflog");
    for n in [10usize, 100] {
        let text = sample_perflog(n);
        g.bench_with_input(BenchmarkId::new("parse_jsonl", n), &text, |b, text| {
            b.iter(|| perflogs::Perflog::from_jsonl(text).expect("parses"));
        });
    }
    let log = perflogs::Perflog::from_jsonl(&sample_perflog(100)).expect("parses");
    g.bench_function("to_frame_100", |b| b.iter(|| log.to_frame()));
    g.finish();
}

fn bench_dataframe(c: &mut Criterion) {
    let mut g = quick(c, "dframe");
    let mut df = DataFrame::new(vec!["system", "fom", "value"]);
    for i in 0..5000 {
        df.push_row(vec![
            Cell::from(format!("sys{}", i % 7)),
            Cell::from(if i % 2 == 0 { "Triad" } else { "Copy" }),
            Cell::from(i as f64),
        ])
        .expect("schema");
    }
    g.bench_function("groupby_mean_5k", |b| {
        b.iter(|| {
            df.group_by(&["system", "fom"])
                .mean("value")
                .expect("aggregates")
        });
    });
    g.bench_function("filter_sort_5k", |b| {
        b.iter(|| {
            df.filter_eq("fom", &Cell::from("Triad"))
                .expect("filters")
                .sort_by("value", false)
                .expect("sorts")
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_regex_fom_extraction,
    bench_concretizer,
    bench_perflog,
    bench_dataframe
);
criterion_main!(benches);
