//! Backtracking matcher.
//!
//! Matching walks the AST with an explicit continuation linked list, so
//! sequencing, repetition and group-end bookkeeping all share one recursion.
//! Capture slots are char-index pairs `[start0, end0, start1, end1, ...]`
//! recorded on the successful path only (failed branches restore what they
//! clobbered).

use crate::ast::{is_word_char, Ast, Greed};

/// Try to match `ast` at char index `at`. On success returns `true` with
/// `slots` populated (slot 1 = end of the whole match).
pub(crate) fn match_at(
    ast: &Ast,
    chars: &[(usize, char)],
    at: usize,
    slots: &mut [Option<usize>],
) -> bool {
    m(ast, chars, at, slots, &Cont::Done)
}

/// Continuation: what still has to match after the current node.
enum Cont<'a> {
    /// Nothing left; the overall match succeeds here.
    Done,
    /// The given node sequence, then the next continuation.
    Seq(&'a [Ast], &'a Cont<'a>),
    /// Record the end of capture group `usize`, then continue.
    EndGroup(usize, &'a Cont<'a>),
    /// One iteration of a repeat just finished (it started at `start`);
    /// `min`/`max` are the *remaining* bounds.
    Rep {
        node: &'a Ast,
        min: usize,
        max: usize,
        greed: Greed,
        start: usize,
        cont: &'a Cont<'a>,
    },
}

fn run_cont(
    cont: &Cont<'_>,
    chars: &[(usize, char)],
    at: usize,
    slots: &mut [Option<usize>],
) -> bool {
    match cont {
        Cont::Done => {
            slots[1] = Some(at);
            true
        }
        Cont::Seq(nodes, next) => {
            if nodes.is_empty() {
                run_cont(next, chars, at, slots)
            } else {
                m(&nodes[0], chars, at, slots, &Cont::Seq(&nodes[1..], next))
            }
        }
        Cont::EndGroup(i, next) => {
            let old = slots[2 * i + 1];
            slots[2 * i + 1] = Some(at);
            if run_cont(next, chars, at, slots) {
                true
            } else {
                slots[2 * i + 1] = old;
                false
            }
        }
        Cont::Rep {
            node,
            min,
            max,
            greed,
            start,
            cont,
        } => {
            if *min == 0 && at == *start {
                // The iteration that just completed consumed nothing; more
                // iterations would loop forever, so stop repeating here.
                run_cont(cont, chars, at, slots)
            } else {
                rep(node, *min, *max, *greed, chars, at, slots, cont)
            }
        }
    }
}

/// Match `min..=max` further copies of `node` starting at `at`, then `cont`.
#[allow(clippy::too_many_arguments)]
fn rep(
    node: &Ast,
    min: usize,
    max: usize,
    greed: Greed,
    chars: &[(usize, char)],
    at: usize,
    slots: &mut [Option<usize>],
    cont: &Cont<'_>,
) -> bool {
    if min > 0 {
        let next = Cont::Rep {
            node,
            min: min - 1,
            max: max.saturating_sub(1),
            greed,
            start: at,
            cont,
        };
        return m(node, chars, at, slots, &next);
    }
    if max == 0 {
        return run_cont(cont, chars, at, slots);
    }
    let next = Cont::Rep {
        node,
        min: 0,
        max: max.saturating_sub(1),
        greed,
        start: at,
        cont,
    };
    match greed {
        Greed::Greedy => m(node, chars, at, slots, &next) || run_cont(cont, chars, at, slots),
        Greed::Lazy => run_cont(cont, chars, at, slots) || m(node, chars, at, slots, &next),
    }
}

fn m(
    node: &Ast,
    chars: &[(usize, char)],
    at: usize,
    slots: &mut [Option<usize>],
    cont: &Cont<'_>,
) -> bool {
    match node {
        Ast::Empty => run_cont(cont, chars, at, slots),
        Ast::Literal(c) => {
            at < chars.len() && chars[at].1 == *c && run_cont(cont, chars, at + 1, slots)
        }
        Ast::AnyChar => {
            at < chars.len() && chars[at].1 != '\n' && run_cont(cont, chars, at + 1, slots)
        }
        Ast::Class(cc) => {
            at < chars.len() && cc.matches(chars[at].1) && run_cont(cont, chars, at + 1, slots)
        }
        Ast::StartAnchor => at == 0 && run_cont(cont, chars, at, slots),
        Ast::EndAnchor => at == chars.len() && run_cont(cont, chars, at, slots),
        Ast::WordBoundary => at_word_boundary(chars, at) && run_cont(cont, chars, at, slots),
        Ast::NotWordBoundary => !at_word_boundary(chars, at) && run_cont(cont, chars, at, slots),
        Ast::Concat(nodes) => run_cont(&Cont::Seq(nodes, cont), chars, at, slots),
        Ast::Alternate(branches) => branches.iter().any(|b| m(b, chars, at, slots, cont)),
        Ast::Repeat {
            node,
            min,
            max,
            greed,
        } => rep(node, *min, *max, *greed, chars, at, slots, cont),
        Ast::Group { index, node } => {
            let i = *index;
            let (old_s, old_e) = (slots[2 * i], slots[2 * i + 1]);
            slots[2 * i] = Some(at);
            if m(node, chars, at, slots, &Cont::EndGroup(i, cont)) {
                true
            } else {
                slots[2 * i] = old_s;
                slots[2 * i + 1] = old_e;
                false
            }
        }
        Ast::NonCapturing(node) => m(node, chars, at, slots, cont),
    }
}

fn at_word_boundary(chars: &[(usize, char)], at: usize) -> bool {
    let before = at
        .checked_sub(1)
        .and_then(|i| chars.get(i))
        .map(|&(_, c)| is_word_char(c));
    let after = chars.get(at).map(|&(_, c)| is_word_char(c));
    matches!(
        (before, after),
        (None, Some(true))
            | (Some(true), None)
            | (Some(false), Some(true))
            | (Some(true), Some(false))
    )
}
