//! End-to-end integration: the complete Figure 1 workflow across every
//! crate — define benchmarks, run on simulated systems, assimilate
//! perflogs, compute efficiencies, render plots.

use benchkit::prelude::*;
use dframe::Cell;

#[test]
fn full_workflow_produces_consistent_artifacts() {
    // 1. A small survey: two benchmarks on two systems.
    let study = Study::new("e2e", SuiteRunner::new(&["archer2", "csd3"]))
        .with_case(cases::babelstream(parkern::Model::Omp, 1 << 27))
        .with_case(cases::hpgmg());
    let results = study.run();
    assert_eq!(results.report.n_ran(), 4);
    assert_eq!(results.report.n_failed(), 0);

    // 2. The assimilated frame has 5 BabelStream FOMs + 3 HPGMG FOMs per
    //    system.
    let frame = results.frame();
    assert_eq!(frame.n_rows(), 2 * (5 + 3));

    // 3. Every FOM row carries full provenance: spec, hash, environ.
    for row in frame.rows() {
        let spec = row.get("spec").and_then(Cell::as_str).expect("spec column");
        assert!(spec.contains('@'), "spec pins versions: {spec}");
        let hash = row
            .get("build_hash")
            .and_then(Cell::as_str)
            .expect("hash column");
        assert_eq!(hash.len(), 7);
        let environ = row
            .get("environ")
            .and_then(Cell::as_str)
            .expect("environ column");
        assert!(
            environ.starts_with("gcc@"),
            "environ records the compiler: {environ}"
        );
    }

    // 4. Plot from a YAML config without touching the data by hand (P6).
    let cfg = postproc::PlotConfig::from_yaml(
        "title: Triad\nunit: MB/s\nx_axis: system\nfilters: {fom: Triad}\n",
    )
    .expect("valid config");
    let chart = cfg.bar_chart(&frame).expect("chart builds");
    assert_eq!(chart.categories().len(), 2);
    let svg = chart.render_svg();
    assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));

    // 5. Efficiency analysis: both systems below theoretical peak.
    for (system, peak) in [("archer2", 409_600.0), ("csd3", 282_000.0)] {
        let triad = results
            .mean_fom("babelstream_omp", system, "Triad")
            .expect("ran");
        let eff = ppmetrics::architectural_efficiency(triad, peak);
        assert!(eff > 0.4 && eff < 1.0, "{system} efficiency {eff}");
    }
}

#[test]
fn perflog_files_roundtrip_through_assimilation() {
    // Simulate the paper's workflow: perflogs generated on isolated
    // systems, serialized, shipped home, assimilated.
    let mut serialized: Vec<String> = Vec::new();
    for system in ["archer2", "cosma8", "csd3"] {
        let mut h = Harness::new(RunOptions::on_system(system));
        h.run_case(&cases::hpgmg()).expect("runs");
        for (_, log) in h.perflogs() {
            serialized.push(log.to_jsonl());
        }
    }
    let frame = postproc::assimilate(&serialized).expect("parses");
    assert_eq!(frame.n_rows(), 9, "3 systems x 3 level FOMs");
    assert_eq!(frame.unique("system").expect("col").len(), 3);

    // Group-by works across the assimilated set.
    let means = frame
        .group_by(&["system"])
        .mean("value")
        .expect("aggregates");
    assert_eq!(means.n_rows(), 3);
}

#[test]
fn same_seed_reproduces_the_whole_study() {
    let run = |seed| {
        Study::new("repro", SuiteRunner::new(&["noctua2"]).with_seed(seed))
            .with_case(cases::babelstream(parkern::Model::Omp, 1 << 25))
            .run()
            .mean_fom("babelstream_omp", "noctua2", "Triad")
            .expect("ran")
    };
    assert_eq!(run(1), run(1));
    assert_ne!(run(1), run(2));
}

#[test]
fn native_and_simulated_modes_share_one_pipeline() {
    // The identical TestCase runs natively (real timing) and simulated.
    let mut case = cases::babelstream(parkern::Model::Serial, 1 << 16);
    if let App::BabelStream(cfg) = &mut case.app {
        cfg.reps = 3;
    }
    let mut native = Harness::new(RunOptions::on_system("native"));
    let native_report = native.run_case(&case).expect("native run");
    assert!(native_report.record.fom("Triad").expect("triad").value > 0.0);

    let mut sim = Harness::new(RunOptions::on_system("csd3"));
    let sim_report = sim.run_case(&case).expect("simulated run");
    assert!(sim_report.record.fom("Triad").expect("triad").value > 0.0);

    // Same schema either way — that's what makes the perflogs comparable.
    let a = native_report.record.to_json_line();
    let b = sim_report.record.to_json_line();
    let pa = perflogs::PerflogRecord::from_json_line(&a).expect("parses");
    let pb = perflogs::PerflogRecord::from_json_line(&b).expect("parses");
    assert_eq!(pa.benchmark, pb.benchmark);
}

#[test]
fn scheduler_provenance_reaches_the_perflog() {
    let mut h = Harness::new(RunOptions::on_system("archer2"));
    let report = h.run_case(&cases::hpgmg()).expect("runs");
    // Queue wait recorded as an extra.
    assert!(report
        .record
        .extras
        .iter()
        .any(|(k, _)| k == "queue_wait_s"));
    // Job id assigned by the scheduler.
    assert!(report.record.job_id.is_some());
    // SLURM dialect script (ARCHER2), with the paper's exact layout.
    assert!(report.job_script.contains("#SBATCH --ntasks=8"));
    assert!(report.job_script.contains("--qos=standard"));
}
