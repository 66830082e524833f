//! A brace-aware `match` parser over the token stream from
//! [`crate::lexer`].
//!
//! Still no `syn` (the workspace builds offline): this module recovers
//! just enough structure for S3 — `match` expressions with their arms.
//! Everything is positional: an arm records the token-index range of its
//! pattern, so the rule stays a cheap token walk over a pre-carved
//! stream rather than a real AST interpretation.
//!
//! The parser is deliberately forgiving: anything it cannot shape (macro
//! bodies, exotic generics) is skipped rather than mis-parsed, because a
//! rule that fires on a phantom item is worse than one that misses an
//! obscure corner — the fixture tests pin the corners that matter.

use std::ops::Range;

use crate::lexer::{LexedFile, Tok, Token};

/// One arm of a `match` expression.
#[derive(Clone, Debug)]
pub struct MatchArm {
    pub line: u32,
    /// Token-index range of the pattern (up to, excluding, `=>`).
    pub pat: Range<usize>,
    /// True for a bare `_` (optionally guarded `_ if ..`) catch-all.
    pub wildcard: bool,
}

/// A `match` expression and its arms.
#[derive(Clone, Debug)]
pub struct MatchDef {
    pub line: u32,
    pub arms: Vec<MatchArm>,
    pub in_test: bool,
}

/// True when `toks[i]` is the identifier `kw`.
fn ident_at(toks: &[Token], i: usize, kw: &str) -> bool {
    matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Ident(s)) if s == kw)
}

fn punct(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Index of the `}` matching the `{` at `open`, or the stream end.
fn matching_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// Tracks `()`/`[]`/`{}` nesting while scanning a token range. Angle
/// brackets are deliberately *not* tracked — `<` is ambiguous with
/// comparison operators, and the split this parser performs (arm
/// arrows) never meets a generic argument list at ground level.
#[derive(Default)]
struct Balance {
    paren: i32,
    bracket: i32,
    brace: i32,
}

impl Balance {
    fn feed(&mut self, toks: &[Token], i: usize) {
        match toks[i].tok {
            Tok::Punct('(') => self.paren += 1,
            Tok::Punct(')') => self.paren -= 1,
            Tok::Punct('[') => self.bracket += 1,
            Tok::Punct(']') => self.bracket -= 1,
            Tok::Punct('{') => self.brace += 1,
            Tok::Punct('}') => self.brace -= 1,
            _ => {}
        }
    }

    fn grounded(&self) -> bool {
        self.paren == 0 && self.bracket == 0 && self.brace == 0
    }
}

/// Every `match` expression of one lexed file, nested ones included.
pub fn parse(lexed: &LexedFile) -> Vec<MatchDef> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        i = if ident_at(toks, i, "match") {
            parse_match(toks, i, &mut out)
        } else {
            i + 1
        };
    }
    out
}

/// Skips attribute tokens (`#[...]`) starting at `i`.
fn skip_attrs(toks: &[Token], mut i: usize, end: usize) -> usize {
    while i < end && punct(toks, i, '#') && punct(toks, i + 1, '[') {
        let mut depth = 0i32;
        i += 1;
        while i < end {
            match toks[i].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    i
}

/// `match scrutinee { pat => body, .. }`
fn parse_match(toks: &[Token], kw: usize, out: &mut Vec<MatchDef>) -> usize {
    // The arms open at the first grounded `{` after the scrutinee.
    let mut bal = Balance::default();
    let mut j = kw + 1;
    while j < toks.len() && !(bal.grounded() && punct(toks, j, '{')) {
        if bal.grounded() && punct(toks, j, ';') {
            return j + 1;
        }
        bal.feed(toks, j);
        j += 1;
    }
    if j >= toks.len() {
        return kw + 1;
    }
    let close = matching_brace(toks, j);
    let mut def = MatchDef {
        line: toks[kw].line,
        arms: Vec::new(),
        in_test: toks[kw].in_test,
    };
    let mut k = j + 1;
    while k < close {
        k = skip_attrs(toks, k, close);
        let pat_start = k;
        // Pattern runs to `=>` at ground level.
        let mut bal = Balance::default();
        while k < close && !(bal.grounded() && punct(toks, k, '=') && punct(toks, k + 1, '>')) {
            bal.feed(toks, k);
            k += 1;
        }
        if k >= close {
            break;
        }
        let pat = pat_start..k;
        let wildcard = ident_at(toks, pat_start, "_")
            && (pat.len() == 1 || ident_at(toks, pat_start + 1, "if"));
        def.arms.push(MatchArm {
            line: toks[pat_start].line,
            pat,
            wildcard,
        });
        k += 2; // past `=>`
                // Body: a block, or an expression up to a grounded `,`.
        if punct(toks, k, '{') {
            k = matching_brace(toks, k) + 1;
            if punct(toks, k, ',') {
                k += 1;
            }
        } else {
            let mut bal = Balance::default();
            while k < close && !(bal.grounded() && punct(toks, k, ',')) {
                bal.feed(toks, k);
                k += 1;
            }
            k += 1; // past `,` (or the arms' close)
        }
    }
    out.push(def);
    // Descend into the arms so nested matches are recorded too.
    j + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn match_arms_and_wildcards_are_recovered() {
        let matches = parse(&lex(
            "fn f(o: Outcome) -> u32 { match o { Outcome::Ok => 0, Outcome::Failed => { 1 } _ => 2, } }",
        ));
        let m = &matches[0];
        assert_eq!(m.arms.len(), 3);
        assert!(!m.arms[0].wildcard);
        assert!(!m.arms[1].wildcard);
        assert!(m.arms[2].wildcard);
    }

    #[test]
    fn nested_matches_are_both_found() {
        let matches = parse(&lex(
            "fn f() { match a { X::A => match b { Y::B => 1, _ => 2, }, X::B => 3, } }",
        ));
        assert_eq!(matches.len(), 2);
        // The outer match is pushed first (it finishes parsing before the
        // scanner descends); the inner one carries the wildcard arm.
        assert!(!matches[0].arms.iter().any(|a| a.wildcard));
        assert!(matches[1].arms[1].wildcard);
    }

    #[test]
    fn binding_subpatterns_are_not_wildcards() {
        let matches = parse(&lex(
            "fn f(o: Option<u32>) -> u32 { match o { Some(_) => 1, None => 0 } }",
        ));
        assert!(matches[0].arms.iter().all(|a| !a.wildcard));
    }

    #[test]
    fn guarded_wildcard_is_still_a_wildcard() {
        let matches = parse(&lex(
            "fn f(x: u32) -> u32 { match k { K::A => 1, _ if x > 2 => 2, _ => 3 } }",
        ));
        let m = &matches[0];
        assert!(m.arms[1].wildcard && m.arms[2].wildcard);
    }
}
