//! `benchkit` — principles for automated and reproducible benchmarking.
//!
//! This is the umbrella crate of the reproduction of Koskela et al.,
//! *Principles for Automated and Reproducible Benchmarking* (SC-W 2023).
//! It re-exports every subsystem and adds the paper's primary
//! contribution: the six **Principles** as a checked, executable workflow
//! (the benchmarking loop of the paper's Figure 1: code → build → run →
//! extract FOM → analyse).
//!
//! Subsystems (each its own crate):
//!
//! | crate | role |
//! |---|---|
//! | [`spackle`] | Spack-like package manager & concretizer (P2–P4) |
//! | [`harness`] | ReFrame-like test pipeline (P5) |
//! | [`batchsim`] | SLURM/PBS batch scheduler |
//! | [`benchapps`] | BabelStream, HPCG (4 variants), HPGMG-FV, STREAM |
//! | [`parkern`] | programming-model backends & kernels |
//! | [`simhpc`] | platform models of the paper's systems (Table 5) |
//! | [`perflogs`] | perflog records (P6) |
//! | [`postproc`] | assimilation, filtering, plotting (P6) |
//! | [`ppmetrics`] | efficiency & performance-portability metrics (P1) |
//! | [`mpisim`] | in-process message-passing runtime (the MPI substrate) |
//! | [`rexpr`] | regex engine for sanity/FOM extraction |
//! | [`tinycfg`] | YAML-subset configuration |
//! | [`dframe`] | data frames for analysis |
//!
//! # Quickstart
//!
//! ```
//! use benchkit::prelude::*;
//!
//! // Define a study: which benchmarks, which systems (Figure 1's loop).
//! // The `SuiteRunner` is the whole survey configuration.
//! let study = Study::new("triad-survey", SuiteRunner::new(&["archer2", "csd3"]))
//!     .with_case(harness::cases::babelstream(parkern::Model::Omp, 1 << 22));
//! let results = study.run();
//! assert_eq!(results.report.n_ran(), 2);
//! let frame = results.frame();
//! assert_eq!(frame.unique("system").unwrap().len(), 2);
//! ```

pub use batchsim;
pub use benchapps;
pub use dframe;
pub use harness;
pub use mpisim;
pub use parkern;
pub use perflogs;
pub use postproc;
pub use ppmetrics;
pub use rexpr;
pub use simhpc;
pub use spackle;
pub use tinycfg;

pub mod cli;
pub mod principles;
pub mod report;
pub mod study;

pub use principles::{Principle, PRINCIPLES};
pub use report::{markdown_report, regression_digest};
pub use study::{Study, StudyResults};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::principles::{Principle, PRINCIPLES};
    pub use crate::study::{Study, StudyResults};
    pub use crate::{
        batchsim, benchapps, dframe, harness, mpisim, parkern, perflogs, postproc, ppmetrics,
        rexpr, simhpc, spackle, tinycfg,
    };
    pub use harness::{cases, App, Harness, RunOptions, SuiteRunner, TestCase};
}
