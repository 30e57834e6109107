//! Abstract syntax tree for parsed patterns.

/// A single range of characters in a class, inclusive on both ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ClassRange {
    pub lo: char,
    pub hi: char,
}

impl ClassRange {
    pub fn single(c: char) -> ClassRange {
        ClassRange { lo: c, hi: c }
    }

    pub fn contains(&self, c: char) -> bool {
        self.lo <= c && c <= self.hi
    }
}

/// A character class: a set of ranges, possibly negated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CharClass {
    pub ranges: Vec<ClassRange>,
    pub negated: bool,
}

impl CharClass {
    pub fn matches(&self, c: char) -> bool {
        let inside = self.ranges.iter().any(|r| r.contains(c));
        inside != self.negated
    }

    /// `\d`
    pub fn digit() -> CharClass {
        CharClass {
            ranges: vec![ClassRange { lo: '0', hi: '9' }],
            negated: false,
        }
    }

    /// `\w` (ASCII word characters)
    pub fn word() -> CharClass {
        CharClass {
            ranges: vec![
                ClassRange { lo: 'a', hi: 'z' },
                ClassRange { lo: 'A', hi: 'Z' },
                ClassRange { lo: '0', hi: '9' },
                ClassRange::single('_'),
            ],
            negated: false,
        }
    }

    /// `\s`
    pub fn space() -> CharClass {
        CharClass {
            ranges: vec![
                ClassRange::single(' '),
                ClassRange::single('\t'),
                ClassRange::single('\n'),
                ClassRange::single('\r'),
                ClassRange::single('\x0b'),
                ClassRange::single('\x0c'),
            ],
            negated: false,
        }
    }

    pub(crate) fn negate(mut self) -> CharClass {
        self.negated = !self.negated;
        self
    }
}

/// Greediness of a quantifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Greed {
    Greedy,
    Lazy,
}

/// Pattern AST. Matching is defined over a haystack of `char`s.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Ast {
    /// Matches the empty string.
    Empty,
    /// A single literal character.
    Literal(char),
    /// `.` — any character except `\n`.
    AnyChar,
    /// A character class.
    Class(CharClass),
    /// `^`
    StartAnchor,
    /// `$`
    EndAnchor,
    /// `\b`
    WordBoundary,
    /// `\B`
    NotWordBoundary,
    /// Concatenation of sub-patterns.
    Concat(Vec<Ast>),
    /// Alternation between sub-patterns, tried left to right.
    Alternate(Vec<Ast>),
    /// Repetition: `min..=max` copies (`max == usize::MAX` for unbounded).
    Repeat {
        node: Box<Ast>,
        min: usize,
        max: usize,
        greed: Greed,
    },
    /// Capturing group with 1-based index.
    Group { index: usize, node: Box<Ast> },
    /// Non-capturing group.
    NonCapturing(Box<Ast>),
}

/// Is `c` a word character for `\b` purposes?
pub(crate) fn is_word_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}
