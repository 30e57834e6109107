//! The `benchkit` binary reads its environment inputs once, at start-up:
//! a malformed fault spec warns exactly once however many durable writers
//! the command opens, and a thread count that is not a positive integer
//! reads as unset, so the `--jobs` oversubscription clamp still applies.
//! A fault schedule replays the same faults, reported in the same words,
//! in every process.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every environment input, cleared so the test process cannot leak one.
const INPUTS: [&str; 4] = [
    "BENCHKIT_IOFAULTS",
    "BENCHKIT_NETFAULTS",
    "BENCHKIT_ENGINE_BACKOFF_SCALE",
    "BENCHKIT_THREADS",
];

/// Run `benchkit args` in `dir` with `vars` as its only environment
/// inputs; returns (stdout, stderr) and asserts success.
fn benchkit(dir: &Path, args: &[&str], vars: &[(&str, &str)]) -> (String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_benchkit"));
    cmd.current_dir(dir).args(args);
    for var in INPUTS {
        cmd.env_remove(var);
    }
    cmd.envs(vars.iter().copied());
    let out = cmd.output().expect("run the benchkit binary");
    let text = |bytes| String::from_utf8(bytes).expect("utf-8 output");
    let (stdout, stderr) = (text(out.stdout), text(out.stderr));
    assert!(out.status.success(), "{args:?} failed: {stderr}");
    (stdout, stderr)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("env-inputs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_bad_fault_spec_warns_once_and_changes_no_output() {
    let survey = |resume| {
        let mode = if resume { "--resume" } else { "--checkpoint" };
        [
            "survey", "-c", "stream", "--system", "csd3", "--store", "st", mode, "ck",
        ]
    };
    let bad = [("BENCHKIT_IOFAULTS", "bogus=1")];
    let warning = "warning: ignoring bad BENCHKIT_IOFAULTS: unknown fault key \"bogus\"\n";
    let (plain, faulted) = (scratch("plain"), scratch("bad-spec"));
    let (want, _) = benchkit(&plain, &survey(false), &[]);
    // The store and the journal each open through the one shim.
    let (stdout, stderr) = benchkit(&faulted, &survey(false), &bad);
    assert_eq!(stdout, want);
    assert_eq!(stderr, warning);
    // Resuming opens the journal and the store again: still one warning.
    let (want, _) = benchkit(&plain, &survey(true), &[]);
    let (stdout, stderr) = benchkit(&faulted, &survey(true), &bad);
    assert_eq!(stdout, want);
    assert_eq!(stderr, warning);
    std::fs::remove_dir_all(&plain).unwrap();
    std::fs::remove_dir_all(&faulted).unwrap();
}

#[test]
fn a_zero_or_junk_thread_count_keeps_the_oversubscription_clamp() {
    let dir = scratch("threads");
    let args = [
        "survey", "-c", "stream", "--system", "csd3", "--system", "archer2", "--jobs", "2",
    ];
    let notes = |vars: &[(&str, &str)]| {
        let (_, stderr) = benchkit(&dir, &args, vars);
        stderr
            .matches("note: clamping per-cell kernel threads")
            .count()
    };
    assert_eq!(notes(&[]), 1);
    for junk in ["0", "lots", ""] {
        assert_eq!(notes(&[("BENCHKIT_THREADS", junk)]), 1, "{junk:?}");
    }
    // An explicit count is the user's choice: no clamp, no note.
    assert_eq!(notes(&[("BENCHKIT_THREADS", "3")]), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_fault_schedule_on_reference_segments_replays_in_every_process() {
    // Reference segment files are named after the process id; the faults
    // drawn on them and the text reporting those faults must not be.
    let faults = [("BENCHKIT_IOFAULTS", "seed=3,fsync=1,match=refs/")];
    let args = [
        "survey", "-c", "stream", "--system", "csd3", "--store", "st",
    ];
    let first = benchkit(&scratch("refs-a"), &args, &faults);
    let second = benchkit(&scratch("refs-b"), &args, &faults);
    assert!(
        first.0.contains("reference log append failed"),
        "{}",
        first.0
    );
    assert_eq!(first, second);
}
