//! "Archaeological reproducibility" (§2.2): everything needed to replay a
//! benchmarking campaign must be recoverable from its artifacts — the
//! lockfile, the job script, and the perflog — long after the run.

use benchkit::prelude::*;

#[test]
fn lockfile_records_enough_to_replay_the_build() {
    let repo = spackle::Repo::builtin();
    let sys = simhpc::catalog::system("archer2").expect("catalog");
    let ctx = spackle::context_for(sys, sys.default_partition());

    let mut env = spackle::Environment::new("excalibur-tests");
    env.add(spackle::Spec::parse("hpgmg%gcc").expect("valid"));
    env.add(spackle::Spec::parse("babelstream%gcc +omp").expect("valid"));
    env.concretize_all(&repo, &ctx).expect("concretizes");
    let yaml = env.lockfile_yaml(&ctx);

    // The lockfile is self-describing YAML that reparses...
    let doc = tinycfg::parse(&yaml).expect("lockfile parses");
    assert_eq!(
        doc.get_path("system").and_then(tinycfg::Value::as_str),
        Some("archer2")
    );
    let locked = doc
        .get_path("locked")
        .and_then(tinycfg::Value::as_list)
        .expect("entries");
    assert_eq!(locked.len(), 2);

    // ...and pins every node to an exact version + hash, flagging what the
    // site provided vs what was built.
    for entry in locked {
        for node in entry
            .get("nodes")
            .and_then(tinycfg::Value::as_list)
            .expect("nodes")
        {
            let version = node
                .get("version")
                .and_then(tinycfg::Value::as_str)
                .expect("version");
            assert!(!version.is_empty());
            let hash = node
                .get("hash")
                .and_then(tinycfg::Value::as_str)
                .expect("hash");
            assert_eq!(hash.len(), 7);
            assert!(node
                .get("external")
                .and_then(tinycfg::Value::as_bool)
                .is_some());
        }
    }
    // The HPGMG entry reuses ARCHER2's cray-mpich external.
    let hpgmg = &locked[0];
    let nodes = hpgmg
        .get("nodes")
        .and_then(tinycfg::Value::as_list)
        .expect("nodes");
    let mpich = nodes
        .iter()
        .find(|n| n.get("name").and_then(tinycfg::Value::as_str) == Some("cray-mpich"))
        .expect("cray-mpich node");
    assert_eq!(
        mpich.get("external").and_then(tinycfg::Value::as_bool),
        Some(true)
    );
    assert_eq!(
        mpich.get("version").and_then(tinycfg::Value::as_str),
        Some("8.1.23")
    );
}

#[test]
fn rerunning_from_the_same_definitions_reproduces_hashes_and_foms() {
    // Two completely independent sessions — fresh harness, fresh store —
    // produce identical build hashes and identical measurements. This is
    // the paper's core claim: "it becomes impossible for someone else to
    // reproduce our work if we ourselves do not reproduce it."
    let run = || {
        let mut h = Harness::new(RunOptions::on_system("cosma8"));
        let report = h.run_case(&cases::hpgmg()).expect("runs");
        (
            report.dag_hash.clone(),
            report.record.fom("l0").expect("l0").value,
        )
    };
    let (hash_a, fom_a) = run();
    let (hash_b, fom_b) = run();
    assert_eq!(hash_a, hash_b, "concretization must be deterministic");
    assert_eq!(fom_a, fom_b, "same seed, same simulated measurement");
}

#[test]
fn perflog_alone_suffices_to_rebuild_the_analysis() {
    // Collect, serialize to JSONL, drop everything else, re-analyse.
    let jsonl = {
        let mut h = Harness::new(RunOptions::on_system("csd3"));
        for model in [
            parkern::Model::Omp,
            parkern::Model::Kokkos,
            parkern::Model::StdRanges,
        ] {
            h.run_case(&cases::babelstream(model, 1 << 27))
                .expect("runs");
        }
        h.perflog("csd3", "babelstream")
            .expect("perflog exists")
            .to_jsonl()
    };

    let frame = postproc::assimilate(&[jsonl]).expect("parses");
    // Three runs × five kernels.
    assert_eq!(frame.n_rows(), 15);

    // The analysis: Triad of omp vs std-ranges, straight from the log.
    let triad = |bench_name: &str| -> f64 {
        frame
            .filter_eq("benchmark", &dframe::Cell::from(bench_name))
            .expect("filter")
            .filter_eq("fom", &dframe::Cell::from("Triad"))
            .expect("filter")
            .column("value")
            .expect("value")
            .get(0)
            .as_float()
            .expect("numeric")
    };
    assert!(triad("babelstream_omp") > 5.0 * triad("babelstream_std-ranges"));

    // And the build provenance survived the round trip.
    let specs = frame.unique("spec").expect("spec column");
    assert!(specs.iter().all(|s| s.to_string().contains("babelstream@")));
}

#[test]
fn job_scripts_replayable_across_scheduler_dialects() {
    // The same case renders a valid script for each site dialect.
    let case = cases::hpgmg();
    for (system, marker) in [
        ("archer2", "#SBATCH"),
        ("isambard-macs:cascadelake", "#PBS"),
    ] {
        let mut h = Harness::new(RunOptions::on_system(system));
        let report = h.run_case(&case).expect("runs");
        assert!(
            report.job_script.contains(marker),
            "{system} script should use {marker}:\n{}",
            report.job_script
        );
        assert!(report.job_script.contains("hpgmg_fv"));
    }
}
