//! The `benchkit` binary's exit-code contract, which CI scripts branch
//! on: 2 for an argument error (the message, then the usage, on stderr),
//! 1 for a command that fails, 0 for success.

use benchkit::cli::USAGE;
use std::process::{Command, Output};

fn benchkit(args: &[&str]) -> (Option<i32>, String, String) {
    let Output {
        status,
        stdout,
        stderr,
    } = Command::new(env!("CARGO_BIN_EXE_benchkit"))
        .args(args)
        .output()
        .expect("run the benchkit binary");
    let text = |bytes| String::from_utf8(bytes).expect("utf-8 output");
    (status.code(), text(stdout), text(stderr))
}

#[test]
fn parse_error_exits_2_with_message_then_usage_on_stderr() {
    let (code, stdout, stderr) = benchkit(&["rank", "a", "--bogus"]);
    assert_eq!(code, Some(2));
    assert_eq!(
        stderr,
        format!("error: rank: unexpected argument `--bogus`\n{USAGE}\n")
    );
    assert_eq!(stdout, "");
}

#[test]
fn execute_error_exits_1() {
    let (code, _, stderr) = benchkit(&["rank", "/nonexistent.jsonl"]);
    assert_eq!(code, Some(1));
    assert!(
        stderr.starts_with("error: rank: cannot read `/nonexistent.jsonl`"),
        "{stderr}"
    );
}

#[test]
fn store_gc_and_fsck_refuse_a_missing_store_and_create_nothing() {
    let dir = std::env::temp_dir().join(format!("benchkit-no-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let arg = dir.to_str().expect("utf-8 temp path");
    for (args, sub) in [
        (vec!["store", "gc", arg, "--keep", "0"], "gc"),
        (vec!["store", "fsck", arg], "fsck"),
    ] {
        let (code, stdout, stderr) = benchkit(&args);
        assert_eq!(code, Some(1), "{sub}: {stderr}");
        assert_eq!(
            stderr,
            format!("error: store {sub}: store I/O: no store at {arg}\n")
        );
        assert_eq!(stdout, "");
        assert!(!dir.exists(), "store {sub} created {arg}");
    }
}

#[test]
fn help_exits_0_with_usage_on_stdout() {
    let (code, stdout, stderr) = benchkit(&["help"]);
    assert_eq!(code, Some(0));
    assert_eq!(stdout, format!("{USAGE}\n"));
    assert_eq!(stderr, "");
}
