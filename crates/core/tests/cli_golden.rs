//! The CLI grammar oracle: every argv in `cli_golden.txt` must parse to
//! exactly the `Command` (as `Debug`) or the `CliError` message recorded
//! beside it, so a change to the argument parser cannot move a single
//! byte of any accepted command or error without touching this file.

use benchkit::cli::{parse, Env};

/// Split a golden argv on spaces; `'...'` quotes one word (which may be
/// empty or hold spaces).
fn words(line: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut word: Option<String> = None;
    let mut quoted = false;
    for c in line.chars() {
        match c {
            '\'' => {
                quoted = !quoted;
                word.get_or_insert_with(String::new);
            }
            ' ' if !quoted => words.extend(word.take()),
            c => word.get_or_insert_with(String::new).push(c),
        }
    }
    assert!(!quoted, "unbalanced quote in `{line}`");
    words.extend(word);
    words
}

/// The golden file with every result line recomputed from its argv line.
fn regenerate(golden: &str) -> String {
    let mut out = String::new();
    for line in golden.lines() {
        if line.starts_with("= ") || line.starts_with("! ") {
            continue;
        }
        out.push_str(line);
        out.push('\n');
        if let Some(argv) = line.strip_prefix('$') {
            match parse(&words(argv), &Env::default()) {
                Ok(cmd) => out.push_str(&format!("= {cmd:?}\n")),
                Err(e) => out.push_str(&format!("! {e}\n")),
            }
        }
    }
    out
}

#[test]
fn every_golden_argv_parses_to_its_recorded_result() {
    let golden = include_str!("cli_golden.txt");
    let actual = regenerate(golden);
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_golden.txt");
        std::fs::write(&path, &actual).expect("write regenerated golden");
        let (want, got) = golden
            .lines()
            .zip(actual.lines())
            .find(|(want, got)| want != got)
            .unwrap_or(("<end of file>", "<end of file>"));
        panic!(
            "CLI golden mismatch; regenerated file at {}\n want: {want}\n  got: {got}",
            path.display()
        );
    }
}

#[test]
fn golden_words_split_on_spaces_and_quotes() {
    assert_eq!(words(""), Vec::<String>::new());
    assert_eq!(words(" a  b"), ["a", "b"]);
    assert_eq!(words("--engine './e --x' ''"), ["--engine", "./e --x", ""]);
}
