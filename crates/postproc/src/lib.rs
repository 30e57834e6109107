//! `postproc` — perflog assimilation, filtering, and plotting (§2.4, P6).
//!
//! The paper's post-processing scripts parse ReFrame perflogs into a pandas
//! DataFrame, concatenate frames from isolated systems, filter them via a
//! YAML configuration, and render bar charts (Bokeh). This crate is that
//! pipeline: [`assimilate`] merges JSONL perflogs into one `dframe`
//! DataFrame, [`PlotConfig`] is the YAML-driven filter/series selection,
//! and [`BarChart`]/[`Heatmap`] render to aligned text and standalone SVG.
//!
//! # Example
//!
//! ```
//! use perflogs::{Fom, Perflog, PerflogRecord};
//!
//! let mut log = Perflog::new();
//! log.append(PerflogRecord {
//!     sequence: 1,
//!     benchmark: "babelstream_omp".into(),
//!     system: "csd3".into(),
//!     partition: "cascadelake".into(),
//!     environ: "gcc@11.2.0".into(),
//!     spec: "babelstream +omp".into(),
//!     build_hash: "abcdefg".into(),
//!     job_id: Some(1),
//!     num_tasks: 1,
//!     num_tasks_per_node: 1,
//!     num_cpus_per_task: 56,
//!     foms: vec![Fom { name: "Triad".into(), value: 212000.0, unit: "MB/s".into() }],
//!     extras: vec![],
//! });
//! let df = postproc::assimilate(&[log.to_jsonl()]).unwrap();
//! let cfg = postproc::PlotConfig::from_yaml(r#"
//! title: Triad bandwidth
//! x_axis: system
//! value: value
//! filters: {fom: Triad}
//! "#).unwrap();
//! let chart = cfg.bar_chart(&df).unwrap();
//! assert!(chart.render_text().contains("csd3"));
//! assert!(chart.render_svg().starts_with("<svg"));
//! ```

mod chart;
mod config;
pub mod rank;
pub mod regression;
pub mod scaling;

pub use chart::{BarChart, Heatmap};
pub use config::{ConfigError, PlotConfig};
pub use rank::{
    cmp_frames, rank_frame, CmpPolicy, Comparison, Delta, RankAggregate, RankEntry, RankPolicy,
    Ranking, Skip,
};
pub use regression::{
    criterion_history, parse_criterion_log, CriterionPoint, Direction, History, HistoryError,
    RegressionPolicy, Verdict,
};
pub use scaling::SeriesPlot;

use dframe::DataFrame;
use perflogs::{Perflog, PerflogError};

/// Parse several JSONL perflogs (typically one per system) and concatenate
/// them into a single analysis frame.
pub fn assimilate(jsonl_logs: &[String]) -> Result<DataFrame, PerflogError> {
    let mut frames = Vec::with_capacity(jsonl_logs.len());
    for text in jsonl_logs {
        frames.push(Perflog::from_jsonl(text)?.to_frame());
    }
    Ok(DataFrame::concat(&frames))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dframe::Cell;
    use perflogs::{Fom, PerflogRecord};

    fn log_for(system: &str, triad: f64) -> String {
        let mut log = Perflog::new();
        log.append(PerflogRecord {
            sequence: 1,
            benchmark: "babelstream_omp".into(),
            system: system.into(),
            partition: "p".into(),
            environ: "gcc@11.2.0".into(),
            spec: "babelstream +omp".into(),
            build_hash: "abcdefg".into(),
            job_id: Some(1),
            num_tasks: 1,
            num_tasks_per_node: 1,
            num_cpus_per_task: 16,
            foms: vec![
                Fom {
                    name: "Triad".into(),
                    value: triad,
                    unit: "MB/s".into(),
                },
                Fom {
                    name: "Copy".into(),
                    value: triad * 0.8,
                    unit: "MB/s".into(),
                },
            ],
            extras: vec![],
        });
        log.to_jsonl()
    }

    #[test]
    fn assimilation_merges_systems() {
        let df = assimilate(&[log_for("archer2", 300_000.0), log_for("csd3", 210_000.0)]).unwrap();
        assert_eq!(df.n_rows(), 4);
        assert_eq!(df.unique("system").unwrap().len(), 2);
    }

    #[test]
    fn bad_log_is_an_error() {
        assert!(assimilate(&["not json at all {".to_string()]).is_err());
    }

    #[test]
    fn end_to_end_yaml_to_chart() {
        let df = assimilate(&[log_for("archer2", 300_000.0), log_for("csd3", 210_000.0)]).unwrap();
        let cfg = PlotConfig::from_yaml(
            "title: Triad\nx_axis: system\nvalue: value\nfilters: {fom: Triad}\n",
        )
        .unwrap();
        let chart = cfg.bar_chart(&df).unwrap();
        let text = chart.render_text();
        assert!(text.contains("archer2"));
        assert!(text.contains("csd3"));
        // Filtering dropped the Copy rows.
        assert_eq!(chart.categories().len(), 2);
        // Scaled value appears.
        let svg = chart.render_svg();
        assert!(svg.contains("</svg>"));
        assert!(svg.contains("archer2"));
    }

    #[test]
    fn filters_can_empty_the_frame() {
        let df = assimilate(&[log_for("archer2", 1.0)]).unwrap();
        let filtered = df.filter_eq("system", &Cell::from("nowhere")).unwrap();
        assert_eq!(filtered.n_rows(), 0);
    }
}
