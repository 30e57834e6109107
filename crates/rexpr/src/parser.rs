//! Recursive-descent parser from pattern text to [`Ast`].

use crate::ast::{Ast, CharClass, ClassRange, Greed};
use std::fmt;

/// Error produced when a pattern fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte position in the pattern where the error was detected.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regex parse error at {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Result of a successful parse.
#[derive(Debug)]
pub(crate) struct Parsed {
    pub ast: Ast,
    pub n_groups: usize,
    pub names: Vec<(String, usize)>,
}

/// Parse `pattern` into an AST, counting capture groups.
pub fn parse(pattern: &str) -> Result<Parsed, ParseError> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut p = Parser {
        chars,
        pos: 0,
        next_group: 1,
        names: Vec::new(),
    };
    let ast = p.parse_alternation()?;
    if p.pos < p.chars.len() {
        return Err(p.err(format!("unexpected character `{}`", p.chars[p.pos])));
    }
    // Normalize to a Concat at the top so the engine can cheaply detect a
    // leading `^` for anchored-search short-circuiting.
    let ast = match ast {
        Ast::Concat(v) => Ast::Concat(v),
        other => Ast::Concat(vec![other]),
    };
    Ok(Parsed {
        ast,
        n_groups: p.next_group,
        names: p.names,
    })
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    next_group: usize,
    names: Vec<(String, usize)>,
}

impl Parser {
    fn err(&self, message: String) -> ParseError {
        ParseError {
            position: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn eat(&mut self, want: char) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_alternation(&mut self) -> Result<Ast, ParseError> {
        let mut branches = vec![self.parse_concat()?];
        while self.eat('|') {
            branches.push(self.parse_concat()?);
        }
        if branches.len() == 1 {
            Ok(branches.pop().expect("one branch"))
        } else {
            Ok(Ast::Alternate(branches))
        }
    }

    fn parse_concat(&mut self) -> Result<Ast, ParseError> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            items.push(self.parse_repeat()?);
        }
        match items.len() {
            0 => Ok(Ast::Empty),
            1 => Ok(items.pop().expect("one item")),
            _ => Ok(Ast::Concat(items)),
        }
    }

    fn parse_repeat(&mut self) -> Result<Ast, ParseError> {
        let atom = self.parse_atom()?;
        let (min, max) = match self.peek() {
            Some('*') => {
                self.bump();
                (0, usize::MAX)
            }
            Some('+') => {
                self.bump();
                (1, usize::MAX)
            }
            Some('?') => {
                self.bump();
                (0, 1)
            }
            Some('{') => {
                // `{` only acts as a quantifier when it parses as one;
                // otherwise (Python behaviour) it's a literal.
                if let Some((lo, hi, consumed)) = self.try_parse_bounds()? {
                    self.pos += consumed;
                    (lo, hi)
                } else {
                    return Ok(atom);
                }
            }
            _ => return Ok(atom),
        };
        if matches!(
            atom,
            Ast::StartAnchor | Ast::EndAnchor | Ast::WordBoundary | Ast::NotWordBoundary
        ) {
            return Err(self.err("quantifier applied to an anchor".to_string()));
        }
        let greed = if self.eat('?') {
            Greed::Lazy
        } else {
            Greed::Greedy
        };
        Ok(Ast::Repeat {
            node: Box::new(atom),
            min,
            max,
            greed,
        })
    }

    /// Attempt to read `{n}`, `{n,}`, `{n,m}` starting at the current `{`.
    /// Returns (min, max, chars consumed including both braces) or None if
    /// the braces don't form a valid quantifier.
    fn try_parse_bounds(&self) -> Result<Option<(usize, usize, usize)>, ParseError> {
        debug_assert_eq!(self.peek(), Some('{'));
        let mut i = self.pos + 1;
        let mut lo_digits = String::new();
        while let Some(&c) = self.chars.get(i) {
            if c.is_ascii_digit() {
                lo_digits.push(c);
                i += 1;
            } else {
                break;
            }
        }
        if lo_digits.is_empty() {
            return Ok(None);
        }
        let lo: usize = lo_digits
            .parse()
            .map_err(|_| self.err("repeat count too large".into()))?;
        match self.chars.get(i) {
            Some('}') => Ok(Some((lo, lo, i + 1 - self.pos))),
            Some(',') => {
                i += 1;
                let mut hi_digits = String::new();
                while let Some(&c) = self.chars.get(i) {
                    if c.is_ascii_digit() {
                        hi_digits.push(c);
                        i += 1;
                    } else {
                        break;
                    }
                }
                if self.chars.get(i) != Some(&'}') {
                    return Ok(None);
                }
                let hi = if hi_digits.is_empty() {
                    usize::MAX
                } else {
                    let hi: usize = hi_digits
                        .parse()
                        .map_err(|_| self.err("repeat count too large".into()))?;
                    if hi < lo {
                        return Err(ParseError {
                            position: self.pos,
                            message: format!("invalid repeat bounds {{{lo},{hi}}}"),
                        });
                    }
                    hi
                };
                Ok(Some((lo, hi, i + 1 - self.pos)))
            }
            _ => Ok(None),
        }
    }

    fn parse_atom(&mut self) -> Result<Ast, ParseError> {
        match self.peek() {
            None => Ok(Ast::Empty),
            Some('(') => {
                self.bump();
                self.parse_group()
            }
            Some(')') => Err(self.err("unmatched `)`".into())),
            Some('[') => {
                self.bump();
                self.parse_class()
            }
            Some('.') => {
                self.bump();
                Ok(Ast::AnyChar)
            }
            Some('^') => {
                self.bump();
                Ok(Ast::StartAnchor)
            }
            Some('$') => {
                self.bump();
                Ok(Ast::EndAnchor)
            }
            Some('\\') => {
                self.bump();
                self.parse_escape()
            }
            Some(c @ ('*' | '+' | '?')) => {
                Err(self.err(format!("quantifier `{c}` with nothing to repeat")))
            }
            Some(c) => {
                self.bump();
                Ok(Ast::Literal(c))
            }
        }
    }

    fn parse_group(&mut self) -> Result<Ast, ParseError> {
        // Already past `(`. Check for `(?...` extensions.
        let mut capture_name: Option<String> = None;
        let mut capturing = true;
        if self.eat('?') {
            match self.peek() {
                Some(':') => {
                    self.bump();
                    capturing = false;
                }
                Some('P') => {
                    self.bump();
                    if !self.eat('<') {
                        return Err(self.err("expected `<` after `(?P`".into()));
                    }
                    capture_name = Some(self.parse_group_name()?);
                }
                Some('<') => {
                    self.bump();
                    capture_name = Some(self.parse_group_name()?);
                }
                other => {
                    return Err(self.err(format!("unsupported group extension `(?{:?}`", other)));
                }
            }
        }
        let node = if capturing {
            let index = self.next_group;
            self.next_group += 1;
            if let Some(name) = capture_name {
                if self.names.iter().any(|(n, _)| *n == name) {
                    return Err(self.err(format!("duplicate group name `{name}`")));
                }
                self.names.push((name, index));
            }
            let inner = self.parse_alternation()?;
            Ast::Group {
                index,
                node: Box::new(inner),
            }
        } else {
            let inner = self.parse_alternation()?;
            Ast::NonCapturing(Box::new(inner))
        };
        if !self.eat(')') {
            return Err(self.err("missing closing `)`".into()));
        }
        Ok(node)
    }

    fn parse_group_name(&mut self) -> Result<String, ParseError> {
        let mut name = String::new();
        loop {
            match self.bump() {
                Some('>') => break,
                Some(c) if c.is_ascii_alphanumeric() || c == '_' => name.push(c),
                Some(c) => return Err(self.err(format!("invalid character `{c}` in group name"))),
                None => return Err(self.err("unterminated group name".into())),
            }
        }
        if name.is_empty() {
            return Err(self.err("empty group name".into()));
        }
        Ok(name)
    }

    fn parse_class(&mut self) -> Result<Ast, ParseError> {
        // Already past `[`.
        let negated = self.eat('^');
        let mut ranges: Vec<ClassRange> = Vec::new();
        let mut first = true;
        loop {
            let c = match self.peek() {
                None => return Err(self.err("unterminated character class".into())),
                Some(']') if !first => {
                    self.bump();
                    break;
                }
                Some(c) => c,
            };
            first = false;
            self.bump();
            let lo = if c == '\\' {
                match self.parse_class_escape()? {
                    ClassItem::Char(c) => c,
                    ClassItem::Class(cls) => {
                        // Embedded predefined class: splice its ranges.
                        if cls.negated {
                            return Err(self.err("negated class escape inside a class".to_string()));
                        }
                        ranges.extend(cls.ranges);
                        continue;
                    }
                }
            } else {
                c
            };
            // Range `lo-hi`? A trailing `-` before `]` is a literal dash.
            if self.peek() == Some('-') && self.chars.get(self.pos + 1) != Some(&']') {
                self.bump(); // consume `-`
                let hi_c = match self.bump() {
                    None => return Err(self.err("unterminated character class range".into())),
                    Some('\\') => match self.parse_class_escape()? {
                        ClassItem::Char(c) => c,
                        ClassItem::Class(_) => {
                            return Err(self.err("class escape as range endpoint".into()))
                        }
                    },
                    Some(c) => c,
                };
                if hi_c < lo {
                    return Err(self.err(format!("invalid class range `{lo}-{hi_c}`")));
                }
                ranges.push(ClassRange { lo, hi: hi_c });
            } else {
                ranges.push(ClassRange::single(lo));
            }
        }
        Ok(Ast::Class(CharClass { ranges, negated }))
    }

    fn parse_class_escape(&mut self) -> Result<ClassItem, ParseError> {
        // The `\` is already consumed.
        let c = self
            .bump()
            .ok_or_else(|| self.err("trailing backslash in class".into()))?;
        Ok(match c {
            'd' => ClassItem::Class(CharClass::digit()),
            'w' => ClassItem::Class(CharClass::word()),
            's' => ClassItem::Class(CharClass::space()),
            'n' => ClassItem::Char('\n'),
            't' => ClassItem::Char('\t'),
            'r' => ClassItem::Char('\r'),
            '0' => ClassItem::Char('\0'),
            'x' => ClassItem::Char(self.parse_hex_escape()?),
            c => ClassItem::Char(c),
        })
    }

    fn parse_hex_escape(&mut self) -> Result<char, ParseError> {
        let h1 = self
            .bump()
            .ok_or_else(|| self.err("truncated \\x escape".into()))?;
        let h2 = self
            .bump()
            .ok_or_else(|| self.err("truncated \\x escape".into()))?;
        let hex: String = [h1, h2].iter().collect();
        let v = u8::from_str_radix(&hex, 16)
            .map_err(|_| self.err(format!("invalid hex escape \\x{hex}")))?;
        Ok(v as char)
    }

    fn parse_escape(&mut self) -> Result<Ast, ParseError> {
        // The `\` is already consumed.
        let c = self
            .bump()
            .ok_or_else(|| self.err("trailing backslash".into()))?;
        Ok(match c {
            'd' => Ast::Class(CharClass::digit()),
            'D' => Ast::Class(CharClass::digit().negate()),
            'w' => Ast::Class(CharClass::word()),
            'W' => Ast::Class(CharClass::word().negate()),
            's' => Ast::Class(CharClass::space()),
            'S' => Ast::Class(CharClass::space().negate()),
            'b' => Ast::WordBoundary,
            'B' => Ast::NotWordBoundary,
            'n' => Ast::Literal('\n'),
            't' => Ast::Literal('\t'),
            'r' => Ast::Literal('\r'),
            '0' => Ast::Literal('\0'),
            'x' => Ast::Literal(self.parse_hex_escape()?),
            c if c.is_ascii_alphanumeric() => {
                return Err(self.err(format!("unsupported escape `\\{c}`")));
            }
            c => Ast::Literal(c),
        })
    }
}

enum ClassItem {
    Char(char),
    Class(CharClass),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_groups() {
        let p = parse(r"(a)(?:b)(?P<x>c)").unwrap();
        assert_eq!(p.n_groups, 3); // group 0 + 2 capturing
        assert_eq!(p.names, vec![("x".to_string(), 2)]);
    }

    #[test]
    fn literal_brace_is_allowed() {
        // `{` not followed by a valid bound spec is a literal, like Python.
        let p = parse("a{b}").unwrap();
        assert_eq!(p.n_groups, 1);
        let re = crate::Regex::new("a{b}").unwrap();
        assert!(re.is_match("xa{b}x"));
    }

    #[test]
    fn bad_bounds_rejected() {
        assert!(parse("a{3,2}").is_err());
    }

    #[test]
    fn quantified_anchor_rejected() {
        assert!(parse("^*").is_err());
        assert!(parse(r"\b+").is_err());
    }

    #[test]
    fn class_with_trailing_dash() {
        let re = crate::Regex::new("[a-]").unwrap();
        assert!(re.is_match("-"));
        assert!(re.is_match("a"));
        assert!(!re.is_match("b"));
    }

    #[test]
    fn class_leading_close_bracket() {
        let re = crate::Regex::new("[]a]").unwrap();
        assert!(re.is_match("]"));
        assert!(re.is_match("a"));
    }

    #[test]
    fn error_position_is_reported() {
        let e = parse("ab(cd").unwrap_err();
        assert!(e.position >= 2);
        assert!(e.to_string().contains("regex parse error"));
    }
}
