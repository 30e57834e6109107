//! Differential tests: the search in [`Regex::captures_at`] against the
//! exhaustive search it replaced, kept here verbatim as the oracle. Both
//! must report the same captures (or none) for every pattern, haystack
//! and start offset.

use super::*;
use proptest::prelude::*;

/// The search as it was before slot reuse and the leading-literal skip:
/// a fresh slot vector at every position, every position tried.
fn oracle<'h>(re: &Regex, haystack: &'h str, start: usize) -> Option<Captures<'h>> {
    let chars: Vec<(usize, char)> = if re.case_insensitive {
        haystack
            .char_indices()
            .map(|(i, c)| (i, c.to_ascii_lowercase()))
            .collect()
    } else {
        haystack.char_indices().collect()
    };
    // Index in `chars` of the first char at or past byte offset `start`.
    let mut begin = chars.len();
    for (i, &(off, _)) in chars.iter().enumerate() {
        if off >= start {
            begin = i;
            break;
        }
    }
    if start == 0 {
        begin = 0;
    }
    let anchored_start =
        matches!(re.ast, Ast::Concat(ref v) if v.first() == Some(&Ast::StartAnchor));
    for at in begin..=chars.len() {
        let mut slots = vec![None; re.n_groups * 2];
        slots[0] = Some(at);
        if matcher::match_at(&re.ast, &chars, at, &mut slots) {
            return Some(Captures::from_slots(
                haystack,
                &chars,
                &slots,
                re.names.clone(),
            ));
        }
        if anchored_start && at == begin {
            // `^...` can only match at the start position.
            break;
        }
    }
    None
}

/// Every group's byte span, so two results compare exactly.
fn spans(caps: Option<Captures<'_>>) -> Option<Vec<Option<(usize, usize)>>> {
    caps.map(|c| {
        (0..c.len())
            .map(|i| c.get(i).map(|m| (m.start(), m.end())))
            .collect()
    })
}

fn agree(re: &Regex, haystack: &str, start: usize) -> Result<(), String> {
    let got = spans(re.captures_at(haystack, start));
    let want = spans(oracle(re, haystack, start));
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{:?} at {start} in {haystack:?}: got {got:?}, oracle {want:?}",
            re.as_str()
        ))
    }
}

/// The byte offset of every char boundary of `s`, its end included.
fn boundaries(s: &str) -> Vec<usize> {
    s.char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(s.len()))
        .collect()
}

#[test]
fn catalog_patterns_agree_on_every_simulated_stdout() {
    let cases: Vec<_> = benchkit::cli::benchmark_names()
        .iter()
        .map(|name| benchkit::cli::case_by_name(name).expect("catalog case"))
        .collect();
    let mut patterns: Vec<&str> = Vec::new();
    for case in &cases {
        patterns.push(&case.sanity_pattern);
        patterns.extend(case.perf_vars.iter().map(|v| v.pattern.as_str()));
    }
    patterns.sort_unstable();
    patterns.dedup();
    let memo = benchapps::memo::SolveMemo::new();
    let mut arena = benchapps::scratch::Arena::new();
    let mut stdouts = Vec::new();
    for system in simhpc::catalog::all_systems() {
        for partition in system.partitions() {
            let spec = format!("{}:{}", system.name(), partition.name());
            let mode = benchapps::ExecutionMode::simulated(&spec, 3).expect("catalog spec");
            for case in &cases {
                if let Ok(out) = case.app.run_memo(&mode, &mut arena, Some(&memo)) {
                    stdouts.push(out.stdout);
                }
            }
        }
    }
    assert!(stdouts.len() > 80, "{} stdouts", stdouts.len());
    let mut matched = 0;
    for pattern in &patterns {
        let re = Regex::new(pattern).expect("catalog pattern");
        for stdout in &stdouts {
            // From the top, and from the middle of the text.
            let middle = boundaries(stdout)[stdout.chars().count() / 2];
            for start in [0, middle] {
                agree(&re, stdout, start).unwrap();
            }
            matched += usize::from(re.is_match(stdout));
        }
    }
    // Every stdout satisfies its own case's patterns, at least.
    assert!(matched >= stdouts.len(), "{matched} matches");
}

/// One pattern element: literals (ASCII and not), classes, groups,
/// alternations, quantifiers and zero-width assertions.
fn atom() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("a"),
        Just("b"),
        Just("A"),
        Just("é"),
        Just("ö"),
        Just("."),
        Just(r"\d"),
        Just(r"\w+"),
        Just(r"\s"),
        Just("[a-c]"),
        Just("[^a]"),
        Just("(a|b)"),
        Just("(a|é)"),
        Just("(?:ab)"),
        Just("(b)"),
        Just("a*"),
        Just("b?"),
        Just("a+?"),
        Just("x{1,2}"),
        Just("(a)?"),
        Just("()"),
        Just(r"\b"),
        Just(r"\B"),
        Just("$"),
    ]
}

/// A pattern: an optional `(?i)` and `^`, then one or two alternated
/// runs of atoms. Empty runs give the empty pattern and empty branches.
fn pattern() -> impl Strategy<Value = String> {
    (
        prop_oneof![Just(""), Just("(?i)")],
        prop_oneof![Just(""), Just(""), Just("^")],
        prop::collection::vec(atom(), 0..5),
        prop::option::of(prop::collection::vec(atom(), 0..4)),
    )
        .prop_map(|(flag, anchor, first, second)| {
            let mut p = format!("{flag}{anchor}{}", first.concat());
            if let Some(second) = second {
                p.push('|');
                p.push_str(&second.concat());
            }
            p
        })
}

/// A haystack over the atoms' alphabet, with upper case, digits,
/// whitespace and multi-byte chars.
fn haystack() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            Just("a"),
            Just("b"),
            Just("A"),
            Just("B"),
            Just("x"),
            Just("é"),
            Just("É"),
            Just("ö"),
            Just("日"),
            Just("7"),
            Just(" "),
            Just("\n"),
            Just("_"),
        ],
        0..24,
    )
    .prop_map(|pieces| pieces.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn search_agrees_with_the_exhaustive_oracle(
        p in pattern(),
        hay in haystack(),
        pick in 0usize..64,
    ) {
        let Ok(re) = Regex::new(&p) else {
            return Ok(());
        };
        let bounds = boundaries(&hay);
        // The top, one start chosen among the char boundaries, and the end.
        for start in [0, bounds[pick % bounds.len()], hay.len()] {
            if let Err(e) = agree(&re, &hay, start) {
                prop_assert!(false, "{}", e);
            }
        }
    }
}

#[test]
fn leading_literals_are_found_through_groups_and_assertions() {
    let leading = |p: &str| Regex::new(p).unwrap().leading;
    assert_eq!(leading(r"Triad\s+([\d.]+)"), Some(vec!['T']));
    assert_eq!(leading("(?i)Triad"), Some(vec!['t']));
    assert_eq!(leading(r"\b(?:ab)+"), Some(vec!['a']));
    assert_eq!(leading("cat|dog|cow"), Some(vec!['c', 'd']));
    assert_eq!(leading("(a|é)b"), Some(vec!['a', 'é']));
    // Nullable or class-led patterns decide nothing.
    assert_eq!(leading(""), None);
    assert_eq!(leading("a?b"), None);
    assert_eq!(leading("a|"), None);
    assert_eq!(leading("()a"), None);
    assert_eq!(leading(r"\d+"), None);
    assert_eq!(leading("^"), None);
}
