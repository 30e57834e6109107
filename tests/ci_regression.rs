//! CI-pipeline simulation: the paper's §4 vision of cross-system
//! performance regression testing, driven end to end — nightly runs build
//! a history per (benchmark, system, FOM); the regression checker flags a
//! degraded run and stays quiet on healthy noise.

use benchkit::prelude::*;
use postproc::{History, RegressionPolicy, Verdict};

/// Run the same case nightly (different seeds), return the perflog JSONL.
fn nightly_runs(system: &str, nights: u64) -> String {
    let mut combined = String::new();
    for night in 0..nights {
        let mut h = Harness::new(RunOptions::on_system(system).with_seed(1000 + night));
        h.run_case(&cases::babelstream(parkern::Model::Omp, 1 << 27))
            .expect("runs");
        let log = h.perflog(
            system.split(':').next().expect("system name"),
            "babelstream",
        );
        combined.push_str(&log.expect("perflog").to_jsonl());
    }
    combined
}

#[test]
fn healthy_nightly_series_raises_no_flags() {
    let jsonl = nightly_runs("csd3", 8);
    let frame = postproc::assimilate(&[jsonl]).expect("parses");
    let mut history =
        History::from_frame(&frame, "babelstream_omp", "csd3", "Triad").expect("history");
    // Re-sequence: each night has sequence 1 within its own harness, so
    // order by position (CI would use its own build number).
    for (i, p) in history.points.iter_mut().enumerate() {
        p.0 = i as u64;
    }
    assert_eq!(history.points.len(), 8);
    let verdict = history.check_latest(&RegressionPolicy::default());
    assert!(
        matches!(verdict, Verdict::Ok { .. }),
        "noise-only series must not flag: {verdict:?}"
    );
    // The sparkline renders one glyph per night.
    assert_eq!(history.sparkline().chars().count(), 8);
}

#[test]
fn injected_regression_is_flagged() {
    let jsonl = nightly_runs("csd3", 7);
    let frame = postproc::assimilate(&[jsonl]).expect("parses");
    let mut history =
        History::from_frame(&frame, "babelstream_omp", "csd3", "Triad").expect("history");
    for (i, p) in history.points.iter_mut().enumerate() {
        p.0 = i as u64;
    }
    // Night 8: a bad commit halves the Triad bandwidth.
    let degraded = history.points.last().expect("points").1 * 0.5;
    history.points.push((history.points.len() as u64, degraded));
    let verdict = history.check_latest(&RegressionPolicy::default());
    assert!(
        verdict.is_regression(),
        "halved bandwidth must flag: {verdict:?}"
    );
}

#[test]
fn runtime_fom_uses_lower_is_better() {
    // Queue waits / runtimes regress in the other direction.
    let policy = RegressionPolicy::default().lower_is_better();
    let history = vec![12.0, 11.8, 12.1, 12.0, 11.9, 12.2];
    assert!(policy.check(&history, 20.0).is_regression());
    assert!(matches!(policy.check(&history, 12.0), Verdict::Ok { .. }));
}

#[test]
fn cross_system_portability_tracked_over_time() {
    // The paper's stated goal: track performance portability over time.
    // Two "weeks" of sweeps; PP stays stable because the platforms do.
    let pp_for_week = |week: u64| {
        let study = Study::new(
            "weekly",
            SuiteRunner::new(&["archer2", "csd3", "noctua2"]).with_seed(500 + week),
        )
        .with_case(cases::babelstream(parkern::Model::Omp, 1 << 27));
        let results = study.run();
        results
            .efficiency_set(
                "babelstream_omp",
                "Triad",
                &[
                    ("archer2", 409_600.0),
                    ("csd3", 282_000.0),
                    ("noctua2", 409_600.0),
                ],
            )
            .pp()
    };
    let week1 = pp_for_week(1);
    let week2 = pp_for_week(2);
    assert!(week1 > 0.5 && week1 < 1.0);
    assert!(
        (week1 - week2).abs() / week1 < 0.1,
        "PP should be stable week to week: {week1} vs {week2}"
    );
}
