//! Pins the bytes of a full-grid survey across commits.
//!
//! Every determinism check elsewhere compares `--jobs 1` against
//! `--jobs N` within one build, so a kernel change that flipped one
//! printed digit would pass them all. This test runs the whole grid —
//! every benchmark the CLI lists on each of the catalog's seven simulated
//! partitions, 112 cells — in-process at one fixed seed and compares an
//! FNV-1a digest of the complete stdout (streamed cell lines, skips, the
//! summary and the FOM table) against a checked-in value.
//!
//! A change that is meant to alter the report must update `GOLDEN` and
//! say why; a performance change must leave it alone.

/// The catalog's simulated partitions (the host `native` system measures
/// the machine, so its output is not reproducible).
const PARTITIONS: [&str; 7] = [
    "archer2:rome",
    "cosma8:rome",
    "csd3:cascadelake",
    "isambard:xci",
    "isambard-macs:cascadelake",
    "isambard-macs:volta",
    "noctua2:milan",
];

const SEED: u64 = 3;

/// FNV-1a 64 of the full survey stdout at `SEED`.
const GOLDEN: u64 = 0xea71_3ce8_20e0_c011;

/// The full-grid survey report at `SEED`, run at `--jobs 2` (the report
/// is byte-identical at any `--jobs`).
fn survey_stdout() -> String {
    let mut args = vec!["survey".to_string()];
    for case in benchkit::cli::benchmark_names() {
        args.push("-c".to_string());
        args.push(case);
    }
    for p in PARTITIONS {
        args.push("--system".to_string());
        args.push(p.to_string());
    }
    args.extend(["--seed".to_string(), SEED.to_string()]);
    args.extend(["--jobs".to_string(), "2".to_string()]);
    let env = benchkit::cli::Env::default();
    let cmd = benchkit::cli::parse(&args, &env).expect("survey argv parses");
    let mut out = Vec::new();
    benchkit::cli::execute(cmd, &env, &mut out).expect("survey runs");
    String::from_utf8(out).expect("utf-8 report")
}

#[test]
fn full_grid_survey_bytes_match_the_golden_digest() {
    let stdout = survey_stdout();
    assert_eq!(
        benchkit::cli::benchmark_names().len() * PARTITIONS.len(),
        112,
        "the grid changed shape; regenerate GOLDEN"
    );
    let digest = spackle::fnv1a64(stdout.as_bytes());
    if digest != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("survey_golden.txt");
        std::fs::write(&path, &stdout).expect("write the report");
        panic!(
            "survey report changed: {} bytes, digest {digest:#018x}, want {GOLDEN:#018x}; \
             report written to {}",
            stdout.len(),
            path.display()
        );
    }
}
