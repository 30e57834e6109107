//! Study reports: one Markdown document summarizing a full sweep — the
//! artifact a CI pipeline would attach to each nightly run (the paper's §4
//! direction, "make changes in performance as important as changes in
//! answers").

use crate::study::StudyResults;
use harness::SuiteOutcome;

/// Render a complete Markdown report for a finished study.
pub fn markdown_report(results: &StudyResults) -> String {
    let mut out = String::new();
    out.push_str(&format!("# Benchmark report: {}\n\n", results.name));
    out.push_str(&format!(
        "{} ran, {} skipped (unsupported combinations), {} failed.\n\n",
        results.report.n_ran(),
        results.report.n_skipped(),
        results.report.n_failed()
    ));
    out.push_str(&format!(
        "Builds: {} packages built, {} reused from the store, {:.1}s simulated build time.\n\n",
        results.report.total_packages_built(),
        results.report.total_packages_cached(),
        results.report.total_build_time_s()
    ));
    // Persistent-store accounting only exists under `--store`; store-less
    // studies keep the report byte-identical to the pre-store format.
    if let Some(stats) = &results.report.store {
        let mut line = format!(
            "Store: {} hits, {} misses, {} quarantined, {} persisted",
            stats.hits, stats.misses, stats.quarantined, stats.persisted
        );
        if let Some(reason) = &stats.degraded {
            line.push_str(&format!(" (degraded to in-memory warm store: {reason})"));
        }
        line.push_str(".\n\n");
        out.push_str(&line);
    }
    // Only fault-injected studies carry a resilience story; the default
    // profile keeps this report byte-identical to the pre-fault format.
    if results.report.total_faults_injected() > 0 {
        let mut line = format!(
            "Resilience: {} faults injected, {} retries, {:.1}s simulated time lost, {} cells quarantined",
            results.report.total_faults_injected(),
            results.report.total_retries(),
            results.report.total_time_lost_s(),
            results.report.n_quarantined()
        );
        let repaired = results.report.total_nodes_repaired();
        if repaired > 0 {
            line.push_str(&format!(", {repaired} nodes repaired"));
        }
        line.push_str(".\n\n");
        out.push_str(&line);
    }
    // Canary probes only exist when a prior study left quarantine memory
    // behind; fresh studies keep the pre-checkpoint format untouched.
    for (system, readmitted) in &results.report.canaries {
        out.push_str(&format!(
            "Canary: `{system}` {}.\n\n",
            if *readmitted {
                "readmitted after a clean probe"
            } else {
                "still quarantined (probe failed)"
            }
        ));
    }

    // Outcome matrix.
    out.push_str("## Outcomes\n\n");
    out.push_str("| benchmark | system | outcome |\n|---|---|---|\n");
    for (case, system, outcome) in &results.report.outcomes {
        let label = match outcome {
            SuiteOutcome::Ran(report) => format!(
                "ran (hash `{}`, {} built, {} cached, queue wait {:.1}s)",
                report.dag_hash, report.packages_built, report.packages_cached, report.queue_wait_s
            ),
            SuiteOutcome::Skipped(reason) => format!("skipped: {reason}"),
            SuiteOutcome::Failed(err) => format!("**FAILED**: {err}"),
        };
        out.push_str(&format!("| {case} | {system} | {label} |\n"));
    }
    out.push('\n');

    // Mean FOMs per (benchmark, system, fom).
    let frame = results.frame();
    if frame.n_rows() > 0 {
        out.push_str("## Figures of Merit (means over repetitions)\n\n");
        let means = frame
            .group_by(&["benchmark", "system", "fom", "unit"])
            .mean("value")
            .expect("fom frame has a value column");
        out.push_str(&means.to_markdown());
        out.push('\n');
    }

    // Energy telemetry, when recorded.
    let mut energy_rows = Vec::new();
    for (case, system, outcome) in &results.report.outcomes {
        if let SuiteOutcome::Ran(report) = outcome {
            energy_rows.push((case, system, report.telemetry));
        }
    }
    if !energy_rows.is_empty() {
        out.push_str("## Energy (simulated telemetry)\n\n");
        out.push_str("| benchmark | system | energy (J) | avg power (W) |\n|---|---|---|---|\n");
        for (case, system, t) in energy_rows {
            out.push_str(&format!(
                "| {case} | {system} | {:.0} | {:.0} |\n",
                t.energy_j, t.avg_power_w
            ));
        }
        out.push('\n');
    }

    out.push_str("---\n_Generated by benchkit; every row is reproducible from the recorded spec, hash, and seed._\n");
    out
}

/// A compact regression digest: check the latest run of every
/// (benchmark, system, fom) series in `frame` against its history.
pub fn regression_digest(frame: &dframe::DataFrame, policy: &postproc::RegressionPolicy) -> String {
    let mut out =
        String::from("| benchmark | system | fom | trend | verdict |\n|---|---|---|---|---|\n");
    let benchmarks = frame.unique("benchmark").unwrap_or_default();
    let systems = frame.unique("system").unwrap_or_default();
    let foms = frame.unique("fom").unwrap_or_default();
    for b in &benchmarks {
        for s in &systems {
            for f in &foms {
                let (b, s, f) = (b.to_string(), s.to_string(), f.to_string());
                let Ok(history) = postproc::History::from_frame(frame, &b, &s, &f) else {
                    continue;
                };
                if history.points.is_empty() {
                    continue;
                }
                let verdict = history.check_latest(policy);
                let verdict_text = match &verdict {
                    postproc::Verdict::Ok { z_score } => format!("ok (z={z_score:.2})"),
                    postproc::Verdict::Regression { z_score, .. } => {
                        format!("**REGRESSION** (z={z_score:.2})")
                    }
                    postproc::Verdict::Improvement { z_score, .. } => {
                        format!("improvement (z={z_score:.2})")
                    }
                    postproc::Verdict::InsufficientHistory { have, need } => {
                        format!("insufficient history ({have}/{need})")
                    }
                };
                out.push_str(&format!(
                    "| {b} | {s} | {f} | {} | {verdict_text} |\n",
                    history.sparkline()
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::Study;
    use harness::{cases, SuiteRunner};
    use parkern::Model;

    #[test]
    fn report_covers_outcomes_foms_energy() {
        let study = Study::new("nightly", SuiteRunner::new(&["csd3"]))
            .with_case(cases::babelstream(Model::Omp, 1 << 25))
            .with_case(cases::babelstream(Model::Cuda, 1 << 25));
        let results = study.run();
        let md = markdown_report(&results);
        assert!(md.contains("# Benchmark report: nightly"));
        assert!(md.contains("1 ran, 1 skipped"));
        assert!(md.contains("Builds: "));
        assert!(md.contains("| babelstream_omp | csd3 | ran"));
        assert!(md.contains("cached"));
        assert!(md.contains("skipped:"));
        assert!(md.contains("## Figures of Merit"));
        assert!(md.contains("Triad"));
        assert!(md.contains("## Energy"));
        // Markdown tables are well-formed: header separator present.
        assert!(md.contains("|---|"));
        // Fault-free studies carry no resilience section.
        assert!(!md.contains("Resilience:"));
    }

    #[test]
    fn faulty_report_carries_resilience_line() {
        use simhpc::faults::FaultProfile;
        let run_at = |seed| {
            Study::new(
                "faulty-nightly",
                SuiteRunner::new(&["csd3", "archer2"])
                    .with_seed(seed)
                    .with_fault_profile(FaultProfile::flaky())
                    .with_max_retries(4),
            )
            .with_case(cases::babelstream(Model::Omp, 1 << 22))
            .run()
        };
        let results = (0..30)
            .map(run_at)
            .find(|r| r.report.total_faults_injected() > 0)
            .expect("some seed in 0..30 injects faults");
        let md = markdown_report(&results);
        assert!(md.contains("Resilience: "), "{md}");
        assert!(md.contains("faults injected"), "{md}");
        assert!(md.contains("simulated time lost"), "{md}");
    }

    #[test]
    fn healing_and_canary_probes_extend_the_report() {
        use simhpc::faults::FaultProfile;
        // Healing: find a seed where repairs actually land, then check the
        // resilience line picks them up.
        let heal_at = |seed| {
            Study::new(
                "healing-nightly",
                SuiteRunner::new(&["csd3", "archer2"])
                    .with_seed(seed)
                    .with_fault_profile(FaultProfile::flaky())
                    .with_max_retries(4)
                    .with_heal(true),
            )
            .with_case(cases::babelstream(Model::Omp, 1 << 22))
            .run()
        };
        let results = (0..40)
            .map(heal_at)
            .find(|r| r.report.total_nodes_repaired() > 0)
            .expect("some seed in 0..40 repairs a node under flaky/heal");
        let md = markdown_report(&results);
        assert!(md.contains("nodes repaired."), "{md}");
        assert!(!md.contains("Canary:"), "{md}");

        // Canary: a brutal no-retry study trips the K=1 quarantine; the next
        // study against the same checkpoint directory reports its probe.
        let canary_at = |seed: u64| {
            let dir = std::env::temp_dir().join(format!(
                "benchkit-report-canary-{}-{seed}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let run = || {
                Study::new(
                    "canary-nightly",
                    SuiteRunner::new(&["csd3", "archer2"])
                        .with_seed(seed)
                        .with_fault_profile(FaultProfile::brutal())
                        .with_max_retries(0)
                        .with_quarantine(1)
                        .with_checkpoint(&dir),
                )
                .with_case(cases::babelstream(Model::Omp, 1 << 22))
                .run()
            };
            let first = run();
            let second = run();
            let _ = std::fs::remove_dir_all(&dir);
            (first, second)
        };
        let (_, second) = (0..30)
            .map(canary_at)
            .find(|(first, _)| first.report.n_failed() > 0)
            .expect("some seed in 0..30 fails a cell under brutal/no-retries");
        let md = markdown_report(&second);
        assert!(md.contains("Canary: `"), "{md}");
        assert!(
            md.contains("readmitted after a clean probe")
                || md.contains("still quarantined (probe failed)"),
            "{md}"
        );
    }

    #[test]
    fn store_line_appears_only_under_a_persistent_store() {
        let dir =
            std::env::temp_dir().join(format!("benchkit-report-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let make = |suite| {
            Study::new("store-nightly", suite)
                .with_case(cases::babelstream(Model::Omp, 1 << 22))
                .with_case(cases::babelstream(Model::Tbb, 1 << 22))
        };
        let csd3 = || SuiteRunner::new(&["csd3"]);
        let plain = markdown_report(&make(csd3()).run());
        assert!(!plain.contains("Store: "), "{plain}");
        let cold = markdown_report(&make(csd3().with_store(&dir)).run());
        assert!(cold.contains("Store: 0 hits, "), "{cold}");
        let warm = markdown_report(&make(csd3().with_store(&dir)).run());
        assert!(warm.contains("Store: "), "{warm}");
        assert!(!warm.contains("Store: 0 hits, "), "warm rerun hits: {warm}");
        // The FOM tables are byte-identical across all three reports.
        let foms = |md: &str| md[md.find("## Figures of Merit").unwrap()..].to_string();
        assert_eq!(foms(&plain), foms(&cold));
        assert_eq!(foms(&plain), foms(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }

    use dframe::Cell;

    #[test]
    fn regression_digest_renders() {
        // Build an eight-run history with a final collapse.
        let mut frame = dframe::DataFrame::new(vec![
            "sequence",
            "benchmark",
            "system",
            "fom",
            "unit",
            "value",
        ]);
        for i in 0..8i64 {
            let v = if i == 7 { 50.0 } else { 100.0 + i as f64 * 0.1 };
            frame
                .push_row(vec![
                    Cell::from(i),
                    Cell::from("babelstream_omp"),
                    Cell::from("csd3"),
                    Cell::from("Triad"),
                    Cell::from("MB/s"),
                    Cell::from(v),
                ])
                .unwrap();
        }
        let digest = regression_digest(&frame, &postproc::RegressionPolicy::default());
        assert!(digest.contains("**REGRESSION**"), "{digest}");
        assert!(digest.contains("babelstream_omp"));
    }
}
