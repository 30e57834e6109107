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
fn rank_and_cmp_take_no_jobs_flag() {
    for (args, sub) in [
        (&["rank", "a", "--jobs", "2"][..], "rank"),
        (&["cmp", "a", "b", "--jobs", "2"][..], "cmp"),
    ] {
        let (code, stdout, stderr) = benchkit(args);
        assert_eq!(code, Some(2), "{sub}: {stderr}");
        assert_eq!(
            stderr,
            format!("error: {sub}: unexpected argument `--jobs`\n{USAGE}\n")
        );
        assert_eq!(stdout, "");
    }
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
fn store_gc_and_fsck_refuse_a_directory_that_is_not_a_store() {
    let dir = std::env::temp_dir().join(format!("benchkit-not-a-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the empty directory");
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
        let left: Vec<_> = std::fs::read_dir(&dir)
            .expect("the directory survives")
            .collect();
        assert!(left.is_empty(), "store {sub} wrote into {arg}: {left:?}");
    }
    std::fs::remove_dir_all(&dir).expect("remove the empty directory");
}

#[test]
fn help_exits_0_with_usage_on_stdout() {
    let (code, stdout, stderr) = benchkit(&["help"]);
    assert_eq!(code, Some(0));
    assert_eq!(stdout, format!("{USAGE}\n"));
    assert_eq!(stderr, "");
}

#[test]
fn a_closed_stdout_ends_the_output_and_exits_0() {
    // The reader is gone before the binary writes its first line, so
    // every write to stdout fails with a broken pipe.
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let Output { status, stderr, .. } = Command::new(env!("CARGO_BIN_EXE_benchkit"))
        .arg("list-benchmarks")
        .stdout(writer)
        .output()
        .expect("run the benchkit binary");
    let stderr = String::from_utf8(stderr).expect("utf-8 output");
    assert_eq!(status.code(), Some(0), "{stderr}");
    assert_eq!(stderr, "");
}

/// Every file and directory under `dir`, with its bytes, sorted.
fn tree(dir: &std::path::Path) -> Vec<(std::path::PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).expect("list the directory") {
            let path = e.expect("directory entry").path();
            if path.is_dir() {
                stack.push(path.clone());
                out.push((path, Vec::new()));
            } else {
                let bytes = std::fs::read(&path).expect("read a file");
                out.push((path, bytes));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn store_gc_and_fsck_refuse_a_v1_layout_and_write_nothing() {
    let dir = std::env::temp_dir().join(format!("benchkit-v1-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("entries")).expect("create entries/");
    std::fs::write(dir.join("entries/aaa.json"), "{}\n").expect("write an entry");
    std::fs::write(dir.join("refs.jsonl"), "{\"refs\":[\"aaa\"],\"study\":1}\n")
        .expect("write refs.jsonl");
    std::fs::write(dir.join(".lock"), "{\"pid\":999999999,\"acquired_unix\":1}")
        .expect("write a stale lock");
    let before = tree(&dir);
    let arg = dir.to_str().expect("utf-8 temp path");
    for (args, sub) in [
        (vec!["store", "gc", arg, "--keep", "1"], "gc"),
        (vec!["store", "fsck", arg], "fsck"),
    ] {
        let (code, stdout, stderr) = benchkit(&args);
        assert_eq!(code, Some(1), "{sub}: {stderr}");
        assert_eq!(
            stderr,
            format!(
                "error: store {sub}: store I/O: {arg} holds a v1 store layout \
                 (entries/ or refs.jsonl, no store.meta), which this build does not read\n"
            )
        );
        assert_eq!(stdout, "");
        assert_eq!(tree(&dir), before, "store {sub} changed {arg}");
    }
    std::fs::remove_dir_all(&dir).expect("remove the v1 directory");
}
