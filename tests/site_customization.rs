//! Site-customization workflows: local recipe repositories, spack.yaml
//! environments, custom harness repos, and report generation — the paths a
//! site operator (rather than a benchmark author) exercises.

use benchkit::prelude::*;

const SITE_REPO: &str = r#"
packages:
  - name: weather-mini
    versions: [0.9, 1.0]
    build_cost: 3.5
    variants:
      - {name: mpi, default: true, description: parallel build}
    dependencies:
      - {name: mpi, when: +mpi}
      - {name: cmake, req: "3.16:", kind: build}
"#;

#[test]
fn site_local_recipe_flows_through_the_harness() {
    // A site adds its own application recipe, then runs an existing
    // benchmark with the layered repo — the paper's §2.2 local-repo story.
    let mut repo = spackle::Repo::builtin();
    assert_eq!(repo.load_yaml(SITE_REPO).expect("valid site repo"), 1);

    // The custom package concretizes against a catalog system.
    let sys = simhpc::catalog::system("csd3").expect("catalog");
    let ctx = spackle::context_for(sys, sys.default_partition());
    let spec = spackle::Spec::parse("weather-mini%gcc").expect("valid");
    let concrete = spackle::concretize(&spec, &repo, &ctx).expect("concretizes");
    assert_eq!(concrete.root().version.as_str(), "1.0");
    assert_eq!(concrete.provider_of("mpi").expect("mpi").name, "openmpi");

    // And the harness accepts the layered repo for its pipeline.
    let mut h = Harness::new(RunOptions::on_system("csd3")).with_repo(repo);
    let report = h
        .run_case(&cases::babelstream(parkern::Model::Omp, 1 << 22))
        .expect("pipeline runs with the layered repo");
    assert!(report.packages_built >= 1);
}

#[test]
fn spack_yaml_environment_locks_per_system() {
    let env_yaml = "spack:\n  specs:\n    - hpgmg%gcc\n    - babelstream%gcc +omp\n";
    let repo = spackle::Repo::builtin();
    for system in ["archer2", "cosma8"] {
        let sys = simhpc::catalog::system(system).expect("catalog");
        let ctx = spackle::context_for(sys, sys.default_partition());
        let mut env = spackle::Environment::from_yaml("excalibur-tests", env_yaml).expect("parses");
        env.concretize_all(&repo, &ctx).expect("concretizes");
        assert!(env.is_locked());
        let lock = env.lockfile_yaml(&ctx);
        // Each system's lockfile pins its own MPI (Table 3 again).
        if system == "archer2" {
            assert!(lock.contains("cray-mpich"), "{lock}");
        } else {
            assert!(lock.contains("mvapich"), "{lock}");
        }
    }
}

#[test]
fn markdown_report_for_a_sweep() {
    let study = Study::new("weekly-sweep", SuiteRunner::new(&["archer2", "csd3"]))
        .with_case(cases::babelstream(parkern::Model::Omp, 1 << 25))
        .with_case(cases::hpgmg());
    let results = study.run();
    let md = benchkit::markdown_report(&results);
    // Every combination appears in the outcome matrix.
    for case in ["babelstream_omp", "hpgmg_fv"] {
        for system in ["archer2", "csd3"] {
            assert!(
                md.contains(&format!("| {case} | {system} |")),
                "missing {case}/{system} in report"
            );
        }
    }
    assert!(md.contains("## Figures of Merit"));
    assert!(md.contains("## Energy"));
    assert!(md.contains("4 ran, 0 skipped"));
}

#[test]
fn cli_survey_matches_library_study() {
    // The CLI and the library API drive the same pipeline: identical FOMs.
    let mut buf = Vec::new();
    let env = benchkit::cli::Env::default();
    benchkit::cli::execute(
        benchkit::cli::parse(
            &[
                "run".into(),
                "-c".into(),
                "babelstream_omp".into(),
                "--system".into(),
                "noctua2".into(),
                "--seed".into(),
                "42".into(),
            ],
            &env,
        )
        .expect("parses"),
        &env,
        &mut buf,
    )
    .expect("executes");
    let cli_text = String::from_utf8(buf).expect("utf8");
    let cli_triad: f64 = cli_text
        .lines()
        .find(|l| l.trim_start().starts_with("Triad"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("triad in CLI output");

    let mut h = Harness::new(RunOptions::on_system("noctua2").with_seed(42));
    let report = h
        .run_case(&cases::babelstream(parkern::Model::Omp, 1 << 25))
        .expect("runs");
    let lib_triad = report.record.fom("Triad").expect("triad").value;
    assert_eq!(cli_triad, lib_triad, "CLI and library must agree exactly");
}

#[test]
fn stream_reference_runs_alongside_babelstream() {
    let mut h = Harness::new(RunOptions::on_system("csd3"));
    let stream = h.run_case(&cases::stream(1 << 26)).expect("stream runs");
    let babel = h
        .run_case(&cases::babelstream(parkern::Model::Omp, 1 << 26))
        .expect("babelstream runs");
    let s = stream.record.fom("Triad").expect("stream triad").value;
    let b = babel.record.fom("Triad").expect("babel triad").value;
    // Same machine model, same counting convention: within noise.
    assert!((s - b).abs() / b < 0.1, "STREAM {s} vs BabelStream {b}");
}
