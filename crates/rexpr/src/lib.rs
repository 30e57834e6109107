//! `rexpr` — a small, dependency-free regular-expression engine.
//!
//! The benchmarking harness extracts Figures of Merit and runs sanity checks
//! by matching user-supplied patterns against benchmark output (Principle 6
//! of the paper). This crate provides the pattern engine: a classic
//! recursive-descent parser producing an AST, executed by a backtracking
//! matcher with capture slots.
//!
//! Supported syntax (a practical subset of Python's `re`, which ReFrame uses):
//!
//! * literals, `.` (any char except newline)
//! * character classes `[a-z0-9_]`, negated classes `[^...]`
//! * predefined classes `\d \D \w \W \s \S`
//! * anchors `^ $` and word boundaries `\b \B`
//! * quantifiers `* + ?` and bounded `{n}`, `{n,}`, `{n,m}`, each with a
//!   lazy variant (`*?`, `+?`, ...)
//! * alternation `|`, grouping `(...)`, non-capturing `(?:...)`,
//!   named captures `(?P<name>...)` / `(?<name>...)`
//! * escapes for metacharacters and `\n \t \r \0 \xHH`
//!
//! Backreferences and look-around are intentionally not supported; the
//! harness does not need them and their absence keeps worst-case behaviour
//! understandable.
//!
//! # Example
//!
//! ```
//! let re = rexpr::Regex::new(r"Triad\s+(?P<rate>\d+\.\d+)\s+GB/s").unwrap();
//! let caps = re.captures("Triad  812.55 GB/s").unwrap();
//! assert_eq!(caps.name("rate").unwrap().as_str(), "812.55");
//! ```

mod ast;
mod captures;
#[cfg(test)]
mod differential;
mod matcher;
mod parser;

pub use captures::{Captures, Match};
pub use parser::ParseError;

use ast::Ast;

/// A compiled regular expression.
///
/// Construction parses and validates the pattern once; matching never fails.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    ast: Ast,
    /// Number of capture groups, including the implicit group 0.
    n_groups: usize,
    /// Names of named groups, as (name, group index).
    names: Vec<(String, usize)>,
    /// ASCII case-insensitive matching (`(?i)` prefix).
    case_insensitive: bool,
    /// The pattern starts with `^`: only the search start can match.
    anchored_start: bool,
    /// Chars (case-folded under `(?i)`) one of which every match starts
    /// with, when the pattern's leading element is a literal; the search
    /// skips positions holding any other char.
    leading: Option<Vec<char>>,
}

impl Regex {
    /// Compile `pattern` into a [`Regex`]. A leading `(?i)` makes matching
    /// ASCII-case-insensitive (like Python's `re.IGNORECASE` for ASCII).
    pub fn new(pattern: &str) -> Result<Regex, ParseError> {
        let (body, case_insensitive) = match pattern.strip_prefix("(?i)") {
            Some(rest) => (rest.to_string(), true),
            None => (pattern.to_string(), false),
        };
        // Case folding: lowercase the pattern's chars; haystacks fold at
        // match time. ASCII folding never changes byte lengths, so the
        // reported offsets stay valid for the original haystack.
        let effective: String = if case_insensitive {
            body.to_ascii_lowercase()
        } else {
            body.clone()
        };
        let parsed = parser::parse(&effective)?;
        let anchored_start =
            matches!(parsed.ast, Ast::Concat(ref v) if v.first() == Some(&Ast::StartAnchor));
        let leading = leading_chars(&parsed.ast);
        Ok(Regex {
            pattern: pattern.to_string(),
            ast: parsed.ast,
            n_groups: parsed.n_groups,
            names: parsed.names,
            case_insensitive,
            anchored_start,
            leading,
        })
    }

    /// The source pattern this regex was compiled from.
    pub fn as_str(&self) -> &str {
        &self.pattern
    }

    /// Does `haystack` contain a match anywhere?
    pub fn is_match(&self, haystack: &str) -> bool {
        self.find(haystack).is_some()
    }

    /// Leftmost match, if any.
    pub fn find<'h>(&self, haystack: &'h str) -> Option<Match<'h>> {
        self.captures(haystack)
            .map(|c| c.get(0).expect("group 0 always set on a match"))
    }

    /// Leftmost match with all capture groups.
    pub fn captures<'h>(&self, haystack: &'h str) -> Option<Captures<'h>> {
        self.captures_at(haystack, 0)
    }

    /// Leftmost match with captures, starting the search at byte offset
    /// `start` (which must lie on a char boundary).
    pub(crate) fn captures_at<'h>(&self, haystack: &'h str, start: usize) -> Option<Captures<'h>> {
        let chars: Vec<(usize, char)> = if self.case_insensitive {
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
        // `^...` can only match at the start position.
        let last = if self.anchored_start {
            begin
        } else {
            chars.len()
        };
        let mut slots = vec![None; self.n_groups * 2];
        for at in begin..=last {
            if let Some(leading) = &self.leading {
                match chars.get(at) {
                    Some((_, c)) if leading.contains(c) => {}
                    _ => continue,
                }
            }
            // A failed attempt restores every slot it set, but clearing
            // costs nothing next to the match and needs no such proof.
            slots.fill(None);
            slots[0] = Some(at);
            if matcher::match_at(&self.ast, &chars, at, &mut slots) {
                return Some(Captures::from_slots(
                    haystack,
                    &chars,
                    &slots,
                    self.names.clone(),
                ));
            }
        }
        None
    }

    /// Iterator over all non-overlapping matches in `haystack`.
    pub fn find_iter<'r, 'h>(&'r self, haystack: &'h str) -> FindIter<'r, 'h> {
        FindIter {
            re: self,
            haystack,
            at: 0,
            done: false,
        }
    }

    /// Iterator over captures of all non-overlapping matches.
    pub fn captures_iter<'r, 'h>(&'r self, haystack: &'h str) -> CapturesIter<'r, 'h> {
        CapturesIter {
            re: self,
            haystack,
            at: 0,
            done: false,
        }
    }

    /// Replace the first match with `replacement` (no `$n` expansion).
    pub fn replace(&self, haystack: &str, replacement: &str) -> String {
        match self.find(haystack) {
            None => haystack.to_string(),
            Some(m) => {
                let mut out = String::with_capacity(haystack.len());
                out.push_str(&haystack[..m.start()]);
                out.push_str(replacement);
                out.push_str(&haystack[m.end()..]);
                out
            }
        }
    }

    /// Split `haystack` on every match, returning the separated pieces.
    pub fn split<'h>(&self, haystack: &'h str) -> Vec<&'h str> {
        let mut out = Vec::new();
        let mut last = 0;
        for m in self.find_iter(haystack) {
            out.push(&haystack[last..m.start()]);
            last = m.end();
        }
        out.push(&haystack[last..]);
        out
    }
}

/// The chars one of which must start every match of `ast`, when that is
/// decided by literals alone; `None` when any char might start one (or
/// the node can match the empty string).
fn leading_chars(ast: &Ast) -> Option<Vec<char>> {
    match ast {
        Ast::Literal(c) => Some(vec![*c]),
        // Zero-width assertions consume nothing: the first element that
        // consumes decides. A nullable one yields `None` below.
        Ast::Concat(nodes) => nodes
            .iter()
            .find(|n| {
                !matches!(
                    n,
                    Ast::Empty
                        | Ast::StartAnchor
                        | Ast::EndAnchor
                        | Ast::WordBoundary
                        | Ast::NotWordBoundary
                )
            })
            .and_then(leading_chars),
        Ast::Alternate(branches) => {
            let mut all = Vec::new();
            for branch in branches {
                for c in leading_chars(branch)? {
                    if !all.contains(&c) {
                        all.push(c);
                    }
                }
            }
            Some(all)
        }
        Ast::Repeat { node, min, .. } if *min > 0 => leading_chars(node),
        Ast::Group { node, .. } | Ast::NonCapturing(node) => leading_chars(node),
        _ => None,
    }
}

/// Iterator returned by [`Regex::find_iter`].
pub struct FindIter<'r, 'h> {
    re: &'r Regex,
    haystack: &'h str,
    at: usize,
    done: bool,
}

impl<'h> Iterator for FindIter<'_, 'h> {
    type Item = Match<'h>;

    fn next(&mut self) -> Option<Match<'h>> {
        if self.done || self.at > self.haystack.len() {
            return None;
        }
        let caps = self.re.captures_at(self.haystack, self.at)?;
        let m = caps.get(0).expect("group 0 always set on a match");
        if m.end() == m.start() {
            // Empty match: advance one char to avoid an infinite loop.
            match self.haystack[m.end()..].chars().next() {
                Some(c) => self.at = m.end() + c.len_utf8(),
                None => self.done = true,
            }
        } else {
            self.at = m.end();
        }
        Some(m)
    }
}

/// Iterator returned by [`Regex::captures_iter`].
pub struct CapturesIter<'r, 'h> {
    re: &'r Regex,
    haystack: &'h str,
    at: usize,
    done: bool,
}

impl<'h> Iterator for CapturesIter<'_, 'h> {
    type Item = Captures<'h>;

    fn next(&mut self) -> Option<Captures<'h>> {
        if self.done || self.at > self.haystack.len() {
            return None;
        }
        let caps = self.re.captures_at(self.haystack, self.at)?;
        let m = caps.get(0).expect("group 0 always set on a match");
        if m.end() == m.start() {
            match self.haystack[m.end()..].chars().next() {
                Some(c) => self.at = m.end() + c.len_utf8(),
                None => self.done = true,
            }
        } else {
            self.at = m.end();
        }
        Some(caps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_match() {
        let re = Regex::new("abc").unwrap();
        assert!(re.is_match("xxabcxx"));
        assert!(!re.is_match("ab c"));
        let m = re.find("xxabcxx").unwrap();
        assert_eq!((m.start(), m.end()), (2, 5));
        assert_eq!(m.as_str(), "abc");
    }

    #[test]
    fn dot_does_not_match_newline() {
        let re = Regex::new("a.c").unwrap();
        assert!(re.is_match("abc"));
        assert!(re.is_match("a-c"));
        assert!(!re.is_match("a\nc"));
    }

    #[test]
    fn star_greedy_and_lazy() {
        let re = Regex::new("a.*c").unwrap();
        assert_eq!(re.find("abcbc").unwrap().as_str(), "abcbc");
        let re = Regex::new("a.*?c").unwrap();
        assert_eq!(re.find("abcbc").unwrap().as_str(), "abc");
    }

    #[test]
    fn plus_and_question() {
        let re = Regex::new("ab+c").unwrap();
        assert!(re.is_match("abbbc"));
        assert!(!re.is_match("ac"));
        let re = Regex::new("ab?c").unwrap();
        assert!(re.is_match("ac"));
        assert!(re.is_match("abc"));
        assert!(!re.is_match("abbc"));
    }

    #[test]
    fn bounded_repeats() {
        let re = Regex::new("a{2,3}").unwrap();
        assert!(!re.is_match("a"));
        assert!(re.is_match("aa"));
        assert_eq!(re.find("aaaa").unwrap().as_str(), "aaa");
        let re = Regex::new("a{3}").unwrap();
        assert!(re.is_match("aaa"));
        assert!(!re.is_match("aa"));
        let re = Regex::new("a{2,}").unwrap();
        assert_eq!(re.find("aaaa").unwrap().as_str(), "aaaa");
    }

    #[test]
    fn classes() {
        let re = Regex::new("[a-c]+").unwrap();
        assert_eq!(re.find("zzabcaz").unwrap().as_str(), "abca");
        let re = Regex::new("[^0-9]+").unwrap();
        assert_eq!(re.find("12ab34").unwrap().as_str(), "ab");
        let re = Regex::new(r"[\d.]+").unwrap();
        assert_eq!(re.find("t=12.5s").unwrap().as_str(), "12.5");
    }

    #[test]
    fn predefined_classes() {
        let re = Regex::new(r"\d+\.\d+").unwrap();
        assert_eq!(re.find("rate 123.456 GB/s").unwrap().as_str(), "123.456");
        let re = Regex::new(r"\w+").unwrap();
        assert_eq!(re.find("  hpcg_bench ").unwrap().as_str(), "hpcg_bench");
        let re = Regex::new(r"\s+").unwrap();
        assert_eq!(re.find("a \t b").unwrap().as_str(), " \t ");
        let re = Regex::new(r"\S+").unwrap();
        assert_eq!(re.find("  x=1 ").unwrap().as_str(), "x=1");
    }

    #[test]
    fn anchors() {
        let re = Regex::new("^abc").unwrap();
        assert!(re.is_match("abcdef"));
        assert!(!re.is_match("xabc"));
        let re = Regex::new("abc$").unwrap();
        assert!(re.is_match("xxabc"));
        assert!(!re.is_match("abcx"));
        let re = Regex::new("^abc$").unwrap();
        assert!(re.is_match("abc"));
        assert!(!re.is_match("aabc"));
    }

    #[test]
    fn word_boundary() {
        let re = Regex::new(r"\bGB/s").unwrap();
        assert!(re.is_match("12 GB/s"));
        let re = Regex::new(r"\bcat\b").unwrap();
        assert!(re.is_match("the cat sat"));
        assert!(!re.is_match("concatenate"));
    }

    #[test]
    fn alternation() {
        let re = Regex::new("cat|dog|bird").unwrap();
        assert_eq!(re.find("hotdog").unwrap().as_str(), "dog");
        assert!(!re.is_match("cow"));
    }

    #[test]
    fn groups_and_captures() {
        let re = Regex::new(r"(\d+)-(\d+)").unwrap();
        let caps = re.captures("range 10-25 ok").unwrap();
        assert_eq!(caps.get(0).unwrap().as_str(), "10-25");
        assert_eq!(caps.get(1).unwrap().as_str(), "10");
        assert_eq!(caps.get(2).unwrap().as_str(), "25");
    }

    #[test]
    fn named_captures() {
        let re = Regex::new(r"(?P<key>\w+)=(?P<val>\S+)").unwrap();
        let caps = re.captures("num_tasks=8").unwrap();
        assert_eq!(caps.name("key").unwrap().as_str(), "num_tasks");
        assert_eq!(caps.name("val").unwrap().as_str(), "8");
        assert!(caps.name("missing").is_none());
    }

    #[test]
    fn non_capturing_group() {
        let re = Regex::new(r"(?:ab)+(c)").unwrap();
        let caps = re.captures("ababc").unwrap();
        assert_eq!(caps.get(0).unwrap().as_str(), "ababc");
        assert_eq!(caps.get(1).unwrap().as_str(), "c");
        assert_eq!(re.n_groups, 2);
    }

    #[test]
    fn nested_groups() {
        let re = Regex::new(r"((a)(b))c").unwrap();
        let caps = re.captures("abc").unwrap();
        assert_eq!(caps.get(1).unwrap().as_str(), "ab");
        assert_eq!(caps.get(2).unwrap().as_str(), "a");
        assert_eq!(caps.get(3).unwrap().as_str(), "b");
    }

    #[test]
    fn group_under_quantifier_reports_last_iteration() {
        let re = Regex::new(r"(a|b)+").unwrap();
        let caps = re.captures("abab").unwrap();
        assert_eq!(caps.get(0).unwrap().as_str(), "abab");
        assert_eq!(caps.get(1).unwrap().as_str(), "b");
    }

    #[test]
    fn find_iter_non_overlapping() {
        let re = Regex::new(r"\d+").unwrap();
        let all: Vec<&str> = re.find_iter("a1 b22 c333").map(|m| m.as_str()).collect();
        assert_eq!(all, vec!["1", "22", "333"]);
    }

    #[test]
    fn find_iter_empty_match_advances() {
        let re = Regex::new(r"x*").unwrap();
        let n = re.find_iter("abc").count();
        assert_eq!(n, 4); // empty match at each of the 4 positions
    }

    #[test]
    fn escapes() {
        let re = Regex::new(r"\(\d+\)").unwrap();
        assert_eq!(re.find("f(42)").unwrap().as_str(), "(42)");
        let re = Regex::new(r"a\tb").unwrap();
        assert!(re.is_match("a\tb"));
        let re = Regex::new(r"\x41").unwrap();
        assert!(re.is_match("A"));
    }

    #[test]
    fn unicode_haystack() {
        let re = Regex::new(r"\w+").unwrap();
        // Word chars are ASCII-word by our definition; ensure no panic on
        // multi-byte chars and that byte offsets stay on boundaries.
        let m = re.find("héllo wörld abc").unwrap();
        assert!(!m.as_str().is_empty());
        let re = Regex::new("ö").unwrap();
        assert_eq!(re.find("wörld").unwrap().as_str(), "ö");
    }

    #[test]
    fn split() {
        let re = Regex::new(r",\s*").unwrap();
        assert_eq!(re.split("a, b,c ,d"), vec!["a", "b", "c ", "d"]);
    }

    #[test]
    fn replace() {
        let re = Regex::new(r"\d+").unwrap();
        assert_eq!(re.replace("n=42 m=3", "N"), "n=N m=3");
        assert_eq!(re.replace("none", "N"), "none");
    }

    #[test]
    fn parse_errors() {
        assert!(Regex::new("a(b").is_err());
        assert!(Regex::new("a)b").is_err());
        assert!(Regex::new("[a-").is_err());
        assert!(Regex::new("a{2,1}").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new(r"a\").is_err());
        assert!(Regex::new("(?P<dup>a)(?P<dup>b)").is_err());
    }

    #[test]
    fn realistic_fom_patterns() {
        // The patterns the harness actually uses.
        let re = Regex::new(r"Triad\s+([\d.]+)\s+").unwrap();
        let caps = re.captures("Triad        812.554     0.00132").unwrap();
        assert_eq!(caps.get(1).unwrap().as_str(), "812.554");

        let re = Regex::new(r"GFLOP/s rating of:\s*(?P<gf>[\d.]+)").unwrap();
        let caps = re
            .captures("Final summary: GFLOP/s rating of: 24.01")
            .unwrap();
        assert_eq!(caps.name("gf").unwrap().as_str(), "24.01");

        let re = Regex::new(r"average\s+(\d+\.\d+e?[-+]?\d*)").unwrap();
        assert!(re.is_match("average 1.25e-03 seconds"));
    }

    #[test]
    fn case_insensitive_flag() {
        let re = Regex::new("(?i)triad").unwrap();
        assert!(re.is_match("TRIAD"));
        assert!(re.is_match("Triad"));
        assert!(re.is_match("triad"));
        let m = re.find("xx TRIAD yy").unwrap();
        assert_eq!(m.as_str(), "TRIAD", "offsets index the original text");
        // Classes fold too.
        let re = Regex::new(r"(?i)[a-f]+").unwrap();
        assert_eq!(re.find("zzCAFEzz").unwrap().as_str(), "CAFE");
        // Without the flag, matching stays exact.
        assert!(!Regex::new("triad").unwrap().is_match("TRIAD"));
    }

    #[test]
    fn alternation_is_first_match_like_python() {
        let re = Regex::new("ab|abc").unwrap();
        assert_eq!(re.find("abc").unwrap().as_str(), "ab");
    }

    #[test]
    fn anchored_search_does_not_scan() {
        let re = Regex::new("^x").unwrap();
        assert!(!re.is_match("ax"));
        assert!(re.is_match("x"));
    }
}
