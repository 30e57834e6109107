//! Configuration, not environment: the process environment is read in one
//! place, `benchkit`'s `main`, which hands the libraries values. The only
//! other read is `spackle::local_hostname`'s `HOSTNAME` fallback, a
//! machine-identity probe rather than a run input. No source mutates the
//! environment: a test that did would race every test beside it.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively, in name order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files
}

/// `(file, line number, line)` for every line of `files` containing any
/// of `needles`.
fn hits(files: &[PathBuf], needles: &[String]) -> Vec<(PathBuf, usize, String)> {
    let mut found = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).expect("source is utf-8");
        for (i, line) in text.lines().enumerate() {
            if needles.iter().any(|n| line.contains(n.as_str())) {
                found.push((file.clone(), i + 1, line.trim().to_string()));
            }
        }
    }
    found
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The sources of every crate under `crates/`.
fn crate_sources() -> Vec<PathBuf> {
    let mut crates: Vec<_> = std::fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|entry| entry.expect("directory entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    crates.sort();
    crates.iter().flat_map(|src| rust_files(src)).collect()
}

// Needles are assembled at run time so this file does not match itself.
fn needle(parts: &[&str]) -> String {
    parts.concat()
}

#[test]
fn only_the_binary_reads_the_process_environment() {
    let reads = [
        needle(&["env::", "var"]),
        needle(&["var", "_os"]),
        needle(&["env::", "vars"]),
    ];
    let allowed = |file: &Path, line: &str| {
        let rel = file.strip_prefix(root()).expect("under the repo");
        rel == Path::new("crates/core/src/bin/benchkit.rs")
            || (rel == Path::new("crates/spackle/src/diskstore.rs")
                && line.contains("\"HOSTNAME\""))
    };
    let stray: Vec<_> = hits(&crate_sources(), &reads)
        .into_iter()
        .filter(|(file, _, line)| !allowed(file, line))
        .collect();
    assert!(
        stray.is_empty(),
        "environment read outside main: {stray:#?}"
    );
}

#[test]
fn no_source_mutates_the_process_environment() {
    let writes = [needle(&["set", "_var"]), needle(&["remove", "_var"])];
    let mut files = rust_files(&root().join("crates"));
    files.extend(rust_files(&root().join("tests")));
    let found = hits(&files, &writes);
    assert!(found.is_empty(), "environment mutated: {found:#?}");
}

#[test]
fn the_guard_sees_the_sources_it_guards() {
    // A walk that found nothing would pass vacuously.
    let sources = crate_sources();
    assert!(sources.len() > 50, "{} crate sources", sources.len());
    let main = needle(&["env::", "vars"]);
    let hostname = needle(&["env::", "var(\"HOSTNAME\")"]);
    assert_eq!(hits(&sources, &[main]).len(), 1);
    assert_eq!(hits(&sources, &[hostname]).len(), 1);
}
