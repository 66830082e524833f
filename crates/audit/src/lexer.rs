//! A hand-rolled, dependency-free token-level lexer for Rust sources.
//!
//! The auditor must not pull in `syn`/`proc-macro2` (the workspace builds
//! offline — see DESIGN.md §5), so this module implements exactly the
//! subset of lexing the lint rules need:
//!
//! * comments (line, nested block) and string/char literals are stripped
//!   from the token stream — a `HashMap` inside a doc comment or an error
//!   message never trips a rule — but **string literal contents are kept**
//!   as [`Tok::Str`] tokens, because rule D3 needs to see `expect("")`;
//! * every token carries its line number and whether it sits inside test
//!   code (`#[cfg(test)]` / `#[test]` item bodies);
//! * the enclosing function name is tracked so rules can bless helpers by
//!   name (D4 exempts `*kahan*` / `*pairwise*` summation helpers);
//! * `// audit:allow(<rule>)` comments are collected per line; an
//!   annotation silences a rule on its own line and on the following
//!   line, so both trailing and preceding placement work.

/// Kinds of tokens the rules care about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// A string literal's contents (quotes and escapes resolved enough
    /// for id matching; escape sequences are kept verbatim).
    Str(String),
    /// Any single punctuation byte (`.`, `(`, `::` arrives as two `:`).
    Punct(char),
    /// Integer/float literal (contents unparsed).
    Num(String),
    /// Lifetime or char literal — carried so token positions stay dense.
    Other,
}

/// One lexed token with its audit context.
#[derive(Clone, Debug)]
pub struct Token {
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
    /// True inside `#[cfg(test)]` or `#[test]` item bodies.
    pub in_test: bool,
    /// Name of the innermost enclosing `fn`, if any.
    pub in_fn: Option<String>,
}

/// The lexed view of one source file.
#[derive(Debug, Default)]
pub struct LexedFile {
    pub tokens: Vec<Token>,
    /// `(line, rule)` pairs from `// audit:allow(<rule>)` comments.
    pub allows: Vec<(u32, String)>,
}

impl LexedFile {
    /// True when `rule` is allow-listed for `line` (annotation on the
    /// same line or the line directly above).
    pub fn allowed(&self, line: u32, rule: &str) -> bool {
        self.allows
            .iter()
            .any(|(l, r)| (*l == line || *l + 1 == line) && r == rule)
    }
}

/// Frame for the function-context stack: a brace depth and the function
/// name that owns everything deeper than it.
#[derive(Debug)]
struct FnFrame {
    depth: u32,
    name: String,
}

/// Region marker for test code: once a `#[cfg(test)]` / `#[test]`
/// attribute is seen, the next braced item body is test code.
#[derive(Debug, PartialEq)]
enum TestState {
    Outside,
    /// Attribute seen; waiting for the item's opening brace.
    Armed,
    /// Inside the item body; leaves when depth drops below `open_depth`.
    Inside {
        open_depth: u32,
    },
}

/// Lexes one Rust source file.
pub fn lex(source: &str) -> LexedFile {
    let bytes = source.as_bytes();
    let mut out = LexedFile::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut depth: u32 = 0;
    let mut fn_stack: Vec<FnFrame> = Vec::new();
    // `Some(name)` after `fn <name>` until its body's `{` opens.
    let mut pending_fn: Option<String> = None;
    let mut prev_ident: Option<String> = None;
    let mut test = TestState::Outside;
    // The identifiers of the `#[...]` attribute being scanned, run
    // together so the `]` handler can spot `#[test]` / `#[cfg(test)]`.
    let mut attr_buf: Option<String> = None;

    macro_rules! push_tok {
        ($tok:expr) => {{
            let in_test = matches!(test, TestState::Armed | TestState::Inside { .. });
            out.tokens.push(Token {
                tok: $tok,
                line,
                in_test,
                in_fn: fn_stack.last().map(|f| f.name.clone()),
            });
        }};
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                // Line comment: scan for audit:allow(<rule>).
                let end = source[i..].find('\n').map_or(bytes.len(), |n| i + n);
                let text = &source[i..end];
                let mut rest = text;
                while let Some(pos) = rest.find("audit:allow(") {
                    let inner = &rest[pos + "audit:allow(".len()..];
                    if let Some(close) = inner.find(')') {
                        for rule in inner[..close].split(',') {
                            out.allows.push((line, rule.trim().to_string()));
                        }
                        rest = &inner[close..];
                    } else {
                        break;
                    }
                }
                i = end;
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested block comment.
                let mut nest = 1u32;
                i += 2;
                while i < bytes.len() && nest > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        nest += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        nest -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let (s, consumed, newlines) = lex_string(&source[i..]);
                line += newlines;
                push_tok!(Tok::Str(s));
                i += consumed;
            }
            'r' if matches!(bytes.get(i + 1), Some(b'"') | Some(b'#'))
                && is_raw_string_start(&source[i..]) =>
            {
                let (s, consumed, newlines) = lex_raw_string(&source[i..]);
                line += newlines;
                push_tok!(Tok::Str(s));
                i += consumed;
            }
            '\'' => {
                // Lifetime or char literal. A lifetime is ' followed by
                // an identifier not closed by '.
                let rest = &bytes[i + 1..];
                let ident_len = rest
                    .iter()
                    .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
                    .count();
                if ident_len > 0 && rest.get(ident_len) != Some(&b'\'') {
                    // Lifetime: skip the tick, the identifier lexes next.
                    i += 1;
                } else {
                    // Char literal (possibly escaped).
                    i += 1;
                    if bytes.get(i) == Some(&b'\\') {
                        i += 2;
                    } else {
                        // Skip one UTF-8 scalar.
                        i += source[i..].chars().next().map_or(1, char::len_utf8);
                    }
                    if bytes.get(i) == Some(&b'\'') {
                        i += 1;
                    }
                    push_tok!(Tok::Other);
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let ident = &source[start..i];
                // `fn name` introduces a function context.
                if prev_ident.as_deref() == Some("fn") {
                    pending_fn = Some(ident.to_string());
                }
                prev_ident = Some(ident.to_string());
                if let Some(buf) = attr_buf.as_mut() {
                    buf.push_str(ident);
                }
                push_tok!(Tok::Ident(ident.to_string()));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'.')
                {
                    // Stop a `1..10` range from swallowing the dots.
                    if bytes[i] == b'.' && bytes.get(i + 1) == Some(&b'.') {
                        break;
                    }
                    i += 1;
                }
                push_tok!(Tok::Num(source[start..i].to_string()));
                prev_ident = None;
            }
            '#' if bytes.get(i + 1) == Some(&b'[') => {
                // Attribute: buffer its identifiers to spot test markers.
                attr_buf = Some(String::new());
                push_tok!(Tok::Punct('#'));
                i += 1;
            }
            '{' => {
                depth += 1;
                if let Some(name) = pending_fn.take() {
                    fn_stack.push(FnFrame { depth, name });
                }
                if test == TestState::Armed {
                    test = TestState::Inside { open_depth: depth };
                }
                push_tok!(Tok::Punct('{'));
                i += 1;
                prev_ident = None;
            }
            '}' => {
                if let TestState::Inside { open_depth } = test {
                    if depth == open_depth {
                        test = TestState::Outside;
                    }
                }
                if fn_stack.last().is_some_and(|f| f.depth == depth) {
                    fn_stack.pop();
                }
                push_tok!(Tok::Punct('}'));
                depth = depth.saturating_sub(1);
                i += 1;
                prev_ident = None;
            }
            ']' => {
                if let Some(buf) = attr_buf.take() {
                    let is_test_attr = buf == "test" || buf.starts_with("cfgtest");
                    if is_test_attr && test == TestState::Outside {
                        test = TestState::Armed;
                    }
                }
                push_tok!(Tok::Punct(']'));
                i += 1;
                prev_ident = None;
            }
            ';' => {
                // An attribute can arm on a `use`-like item; a `;` means
                // the marked item had no body.
                if test == TestState::Armed {
                    test = TestState::Outside;
                }
                push_tok!(Tok::Punct(';'));
                i += 1;
                prev_ident = None;
            }
            _ => {
                push_tok!(Tok::Punct(c));
                i += 1;
                if c != '(' && c != ')' {
                    prev_ident = None;
                }
            }
        }
    }
    out
}

/// Lexes a regular string literal starting at `"`; returns the contents,
/// bytes consumed, and newlines crossed.
fn lex_string(s: &str) -> (String, usize, u32) {
    let bytes = s.as_bytes();
    let mut i = 1usize;
    let mut newlines = 0u32;
    let mut content = String::new();
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                if let Some(&next) = bytes.get(i + 1) {
                    content.push('\\');
                    content.push(next as char);
                    if next == b'\n' {
                        newlines += 1;
                    }
                    i += 2;
                } else {
                    i += 1;
                }
            }
            b'"' => {
                i += 1;
                break;
            }
            b'\n' => {
                newlines += 1;
                content.push('\n');
                i += 1;
            }
            _ => {
                let c = s[i..].chars().next().unwrap_or('\u{FFFD}');
                content.push(c);
                i += c.len_utf8();
            }
        }
    }
    (content, i, newlines)
}

/// True when the slice starts a raw string literal (`r"`, `r#"`, ...).
fn is_raw_string_start(s: &str) -> bool {
    let rest = &s[1..];
    let hashes = rest.bytes().take_while(|b| *b == b'#').count();
    rest.as_bytes().get(hashes) == Some(&b'"')
}

/// Lexes a raw string literal starting at `r`; returns contents, bytes
/// consumed, and newlines crossed.
fn lex_raw_string(s: &str) -> (String, usize, u32) {
    let rest = &s[1..];
    let hashes = rest.bytes().take_while(|b| *b == b'#').count();
    let open = 1 + hashes + 1; // r, hashes, quote
    let closer = format!("\"{}", "#".repeat(hashes));
    let body = &s[open..];
    let (content, end) = match body.find(&closer) {
        Some(pos) => (&body[..pos], open + pos + closer.len()),
        None => (body, s.len()),
    };
    let newlines = content.bytes().filter(|b| *b == b'\n').count() as u32;
    (content.to_string(), end, newlines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(f: &LexedFile) -> Vec<&str> {
        f.tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_do_not_produce_idents() {
        let f = lex("// HashMap in a comment\nlet x = \"HashMap\"; /* SystemTime */");
        assert_eq!(idents(&f), vec!["let", "x"]);
        // But the string's content is retained as a Str token.
        assert!(f.tokens.iter().any(|t| t.tok == Tok::Str("HashMap".into())));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let f = lex("/* outer /* inner */ still comment */ fn alive() {}");
        assert_eq!(idents(&f), vec!["fn", "alive"]);
    }

    #[test]
    fn raw_strings_are_single_tokens() {
        let f = lex(r####"let s = r#"quote " inside"#; let t = 1;"####);
        assert_eq!(idents(&f), vec!["let", "s", "let", "t"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(idents(&f).contains(&"str"));
    }

    #[test]
    fn char_literals_are_skipped() {
        let f = lex("let c = 'x'; let esc = '\\n'; let q = '\"'; fn g() {}");
        assert!(idents(&f).contains(&"g"));
        assert!(!f.tokens.iter().any(|t| matches!(&t.tok, Tok::Str(_))));
    }

    #[test]
    fn cfg_test_bodies_are_marked() {
        let src = "fn lib_code() { work(); }\n#[cfg(test)]\nmod tests {\n    fn t() { probe(); }\n}\nfn after() { tail(); }";
        let f = lex(src);
        let probe = f
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("probe".into()))
            .expect("probe token");
        assert!(probe.in_test);
        let work = f
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("work".into()))
            .expect("work token");
        assert!(!work.in_test);
        let tail = f
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("tail".into()))
            .expect("tail token");
        assert!(!tail.in_test, "test region must end at the closing brace");
    }

    #[test]
    fn test_attribute_marks_single_fn() {
        let src = "#[test]\nfn unit() { inside(); }\nfn lib() { outside(); }";
        let f = lex(src);
        let inside = f
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("inside".into()))
            .expect("inside token");
        assert!(inside.in_test);
        let outside = f
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("outside".into()))
            .expect("outside token");
        assert!(!outside.in_test);
    }

    #[test]
    fn enclosing_fn_names_are_tracked() {
        let src = "fn kahan_sum(v: &[f64]) -> f64 { v.iter().fold(0.0, |a, b| a + b) }\nfn other() { nope(); }";
        let f = lex(src);
        let fold = f
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("fold".into()))
            .expect("fold token");
        assert_eq!(fold.in_fn.as_deref(), Some("kahan_sum"));
        let nope = f
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("nope".into()))
            .expect("nope token");
        assert_eq!(nope.in_fn.as_deref(), Some("other"));
    }

    #[test]
    fn allow_annotations_apply_to_own_and_next_line() {
        let src = "// audit:allow(unwrap)\nlet x = v.unwrap();\nlet y = v.unwrap(); // audit:allow(unwrap, clock)\n";
        let f = lex(src);
        assert!(f.allowed(2, "unwrap"));
        assert!(f.allowed(3, "unwrap"));
        assert!(f.allowed(3, "clock"));
        assert!(!f.allowed(2, "clock"));
        assert!(!f.allowed(5, "unwrap"));
    }

    #[test]
    fn line_numbers_survive_multiline_strings_and_comments() {
        let src = "let a = \"line\nbreak\";\n/* multi\nline */\nlet probe = 1;";
        let f = lex(src);
        let probe = f
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("probe".into()))
            .expect("probe token");
        assert_eq!(probe.line, 5);
    }
}
