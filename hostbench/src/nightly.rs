//! The nightly operation mix the traced run replays: each night surveys
//! seven cheap cases on a three-partition window that rotates by one,
//! against a persistent store, with a fresh checkpoint and perflog
//! directory; then collects the store and ranks the last seven nights.
//! It is not an end-to-end workload (see `NOTES.md`).

use crate::gen::PARTITIONS;
use std::path::{Path, PathBuf};

pub const CASES: [&str; 7] = [
    "babelstream_omp",
    "babelstream_kokkos",
    "babelstream_std-data",
    "babelstream_tbb",
    "babelstream_serial",
    "stream",
    "hpcg_lfric",
];
pub const WINDOW: usize = 3;
pub const KEEP: usize = 2;
pub const RANK_NIGHTS: usize = 7;

/// The partitions surveyed on night `n`.
pub fn window(n: usize) -> Vec<&'static str> {
    (0..WINDOW)
        .map(|j| PARTITIONS[(n + j) % PARTITIONS.len()])
        .collect()
}

pub fn perflog_dir(dir: &Path, n: usize) -> PathBuf {
    dir.join(format!("pl-{n:06}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_rotates() {
        assert_eq!(
            window(0),
            vec!["archer2:rome", "cosma8:rome", "csd3:cascadelake"]
        );
        assert_eq!(
            window(6),
            vec!["noctua2:milan", "archer2:rome", "cosma8:rome"]
        );
    }
}
