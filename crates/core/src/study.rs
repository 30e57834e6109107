//! The Figure-1 workflow as an API: a *study* takes benchmark definitions
//! and a stable of systems, runs the full pipeline everywhere, and hands
//! back an assimilated frame plus analysis helpers.

use dframe::{Cell, DataFrame};
use harness::checkpoint::CheckpointError;
use harness::{SuiteProgress, SuiteReport, SuiteRunner, TestCase};
use postproc::Heatmap;
use ppmetrics::EfficiencySet;

/// A benchmarking study: cases × the systems and survey configuration
/// of one [`SuiteRunner`], which the study carries unchanged.
#[derive(Debug)]
pub struct Study {
    pub name: String,
    cases: Vec<TestCase>,
    pub suite: SuiteRunner,
}

impl Study {
    pub fn new(name: &str, suite: SuiteRunner) -> Study {
        Study {
            name: name.to_string(),
            cases: Vec::new(),
            suite,
        }
    }

    pub fn with_case(mut self, case: TestCase) -> Study {
        self.cases.push(case);
        self
    }

    pub fn with_cases(mut self, cases: Vec<TestCase>) -> Study {
        self.cases.extend(cases);
        self
    }

    /// Execute the full workflow: build, run, extract on every system.
    pub fn run(&self) -> StudyResults {
        self.run_with_progress(&|_| {})
    }

    /// Execute the full workflow, streaming each (case, system) outcome
    /// to `on_flush` in canonical grid order as soon as it completes.
    /// Panics on checkpoint errors — use [`Study::try_run_with_progress`]
    /// when checkpointing is configured.
    pub fn run_with_progress(&self, on_flush: &(dyn Fn(SuiteProgress<'_>) + Sync)) -> StudyResults {
        self.try_run_with_progress(on_flush)
            .expect("checkpointing failed")
    }

    /// [`Study::run_with_progress`] with checkpoint errors surfaced.
    pub fn try_run_with_progress(
        &self,
        on_flush: &(dyn Fn(SuiteProgress<'_>) + Sync),
    ) -> Result<StudyResults, CheckpointError> {
        let report = self.suite.try_run_with_progress(&self.cases, on_flush)?;
        Ok(StudyResults {
            name: self.name.clone(),
            report,
        })
    }
}

/// The analysed output of a study.
#[derive(Debug)]
pub struct StudyResults {
    pub name: String,
    pub report: SuiteReport,
}

impl StudyResults {
    /// The assimilated frame (one row per FOM per run).
    pub fn frame(&self) -> DataFrame {
        self.report.combined_frame()
    }

    /// Mean value of `fom` for `benchmark` on `system`, if it ran.
    /// `system` may be a bare system name or a `system:partition` spec.
    pub fn mean_fom(&self, benchmark: &str, system: &str, fom: &str) -> Option<f64> {
        let (sys_name, partition) = match system.split_once(':') {
            Some((s, p)) => (s, Some(p)),
            None => (system, None),
        };
        let mut df = self
            .frame()
            .filter_eq("benchmark", &Cell::from(benchmark))
            .ok()?
            .filter_eq("system", &Cell::from(sys_name))
            .ok()?
            .filter_eq("fom", &Cell::from(fom))
            .ok()?;
        if let Some(p) = partition {
            df = df.filter_eq("partition", &Cell::from(p)).ok()?;
        }
        let vals = df.column("value")?.floats();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Architectural-efficiency set for one benchmark's `fom` across the
    /// study's systems, using peak values supplied per system label.
    pub fn efficiency_set(
        &self,
        benchmark: &str,
        fom: &str,
        peaks: &[(&str, f64)],
    ) -> EfficiencySet {
        let mut set = EfficiencySet::new();
        for (system, peak) in peaks {
            match self.mean_fom(benchmark, system, fom) {
                Some(v) => set.add(system, v, *peak),
                None => set.add_unsupported(system),
            }
        }
        set
    }

    /// Figure-2-style heat map: benchmarks (rows) × systems (columns) of
    /// architectural efficiency; cells stay starred where a combination
    /// was skipped.
    pub fn efficiency_heatmap(
        &self,
        title: &str,
        benchmarks: &[&str],
        fom: &str,
        peaks: &[(&str, f64)],
    ) -> Heatmap {
        let systems: Vec<&str> = peaks.iter().map(|(s, _)| *s).collect();
        let mut map = Heatmap::new(title, benchmarks.to_vec(), systems.clone());
        for bench in benchmarks {
            for (system, peak) in peaks {
                if let Some(v) = self.mean_fom(bench, system, fom) {
                    map.set(bench, system, v / peak);
                }
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::cases;
    use parkern::Model;

    #[test]
    fn study_runs_and_summarizes() {
        let study = Study::new(
            "smoke",
            SuiteRunner::new(&["isambard-macs:cascadelake", "isambard-macs:volta"]),
        )
        .with_case(cases::babelstream(Model::Omp, 1 << 22))
        .with_case(cases::babelstream(Model::Cuda, 1 << 22));
        let results = study.run();
        assert_eq!(results.report.n_ran(), 2, "omp on CPU + cuda on GPU");
        assert_eq!(results.report.n_skipped(), 2, "the two cross combinations");

        let omp = results
            .mean_fom("babelstream_omp", "isambard-macs:cascadelake", "Triad")
            .unwrap();
        assert!(omp > 0.0);
        assert!(results
            .mean_fom("babelstream_omp", "isambard-macs:volta", "Triad")
            .is_none());
    }

    #[test]
    fn heatmap_has_stars_for_skips() {
        let study = Study::new(
            "fig2-mini",
            SuiteRunner::new(&["isambard-macs:cascadelake", "isambard-macs:volta"]),
        )
        .with_case(cases::babelstream(Model::Omp, 1 << 22))
        .with_case(cases::babelstream(Model::Cuda, 1 << 22));
        let results = study.run();
        let peaks = [
            ("isambard-macs:cascadelake", 282_000.0),
            ("isambard-macs:volta", 900_000.0),
        ];
        let map = results.efficiency_heatmap(
            "Figure 2 (mini)",
            &["babelstream_omp", "babelstream_cuda"],
            "Triad",
            &peaks,
        );
        assert!(
            map.get("babelstream_omp", "isambard-macs:cascadelake")
                .unwrap()
                > 0.5
        );
        assert!(map.get("babelstream_omp", "isambard-macs:volta").is_none());
        assert!(map.get("babelstream_cuda", "isambard-macs:volta").unwrap() > 0.85);
        assert!(map.render_text().contains('*'));
    }

    #[test]
    fn parallel_study_reproduces_serial_frame() {
        let build = |jobs| {
            Study::new(
                "jobs-parity",
                SuiteRunner::new(&["archer2", "csd3"])
                    .with_seed(9)
                    .with_jobs(jobs),
            )
            .with_case(cases::babelstream(Model::Omp, 1 << 22))
            .with_case(cases::babelstream(Model::Tbb, 1 << 22))
            .run()
        };
        let serial = build(1);
        let parallel = build(4);
        assert_eq!(serial.frame().to_string(), parallel.frame().to_string());
        assert_eq!(
            serial.mean_fom("babelstream_omp", "archer2", "Triad"),
            parallel.mean_fom("babelstream_omp", "archer2", "Triad"),
        );
    }

    #[test]
    fn warm_study_streams_and_matches_cold_foms() {
        use std::sync::Mutex;
        let build = |warm, jobs| {
            Study::new(
                "warmth",
                SuiteRunner::new(&["csd3"])
                    .with_seed(5)
                    .with_warm_store(warm)
                    .with_jobs(jobs),
            )
            .with_case(cases::babelstream(Model::Omp, 1 << 22))
            .with_case(cases::babelstream(Model::Tbb, 1 << 22))
        };
        let cold = build(false, 1).run();
        let streamed = Mutex::new(Vec::new());
        let warm = build(true, 2).run_with_progress(&|p| {
            streamed
                .lock()
                .unwrap()
                .push(format!("{}/{}", p.case, p.system));
        });
        // Same FOMs, warmer store.
        assert_eq!(
            cold.mean_fom("babelstream_omp", "csd3", "Triad"),
            warm.mean_fom("babelstream_omp", "csd3", "Triad"),
        );
        assert_eq!(cold.frame().to_string(), warm.frame().to_string());
        assert!(warm.report.total_packages_cached() > 0);
        // Streamed every cell in canonical order.
        assert_eq!(
            streamed.into_inner().unwrap(),
            vec!["babelstream_omp/csd3", "babelstream_tbb/csd3"]
        );
    }

    #[test]
    fn efficiency_set_feeds_pp_metric() {
        let study = Study::new("pp", SuiteRunner::new(&["archer2", "csd3"]))
            .with_case(cases::babelstream(Model::Omp, 1 << 27));
        let results = study.run();
        let set = results.efficiency_set(
            "babelstream_omp",
            "Triad",
            &[("archer2", 409_600.0), ("csd3", 282_000.0)],
        );
        let pp = set.pp();
        assert!(pp > 0.5 && pp < 1.0, "PP = {pp}");
    }
}
