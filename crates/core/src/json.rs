//! The repository's one JSON reader/writer: `results.json`, the chaos
//! campaign reports, the Chrome trace export, the benchmark's result
//! files and apm-audit's report all go through it.
//!
//! The workspace builds offline with no external crates, so the small
//! subset of JSON those need (objects, arrays, strings, finite numbers,
//! booleans, null) is implemented here. The writer emits
//! 2-space-indented output compatible with what earlier serde-based
//! builds wrote, and the parser accepts any standard JSON document
//! nested at most 128 deep — input comes from files named on a command
//! line, so depth is bounded rather than left to the stack.

use std::fmt;

/// A parsed JSON value. Object keys keep insertion order so output is
/// deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Parse or shape error with a byte offset where available.
#[derive(Clone, Debug)]
pub struct JsonError {
    pub msg: String,
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises with 2-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, depth + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, v: f64) {
    if !v.is_finite() {
        // JSON has no NaN/Inf; the harness never produces them, but a
        // defensive null beats emitting an unparseable token.
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        // Rust's f64 Display is the shortest round-trippable form.
        out.push_str(&format!("{v}"));
    }
}

/// `s` as a JSON string literal, quotes included — for writers that lay
/// their document out by hand (apm-audit's one-finding-per-line report).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_string(&mut out, s);
    out
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest nesting of arrays and objects [`parse`] accepts. Every
/// document the repository writes nests fewer than ten levels.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document; trailing whitespace is allowed,
/// trailing garbage is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object a level further in; the recursion
    /// `value` → `array` / `object` → `value` goes through here, so its
    /// depth is bounded whatever the input.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pairs cover strings escaped by
                            // other writers; lone surrogates are errors.
                            if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                out.push(
                                    char::from_u32(c).ok_or_else(|| self.err("bad codepoint"))?,
                                );
                            } else {
                                out.push(
                                    char::from_u32(cp).ok_or_else(|| self.err("bad codepoint"))?,
                                );
                            }
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // slicing at char boundaries is safe).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("bad utf-8"))?;
                    let c = s
                        .chars()
                        .next()
                        .expect("Some(_) peek above guarantees a non-empty slice");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        // Called with pos on 'u'.
        self.pos += 1;
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // Digit by digit: `from_str_radix` would take a sign.
        let mut cp = 0;
        for &b in &self.bytes[self.pos..self.pos + 4] {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            cp = cp * 16 + digit;
        }
        self.pos += 4;
        // Leave pos on the last hex digit's successor; the caller's
        // `continue` skips the usual single-byte advance.
        Ok(cp)
    }

    /// Skips a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, and the
    /// literal must be a finite `f64`: the writer has no token for
    /// anything else, so accepting `1e400` would break parse → write.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        if int_digits == 0 || (leading_zero && int_digits > 1) {
            return Err(self.err("bad number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("bad number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("bad number"));
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .filter(|v| v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("42", Json::Num(42.0)),
            ("-0.5", Json::Num(-0.5)),
            ("1e3", Json::Num(1000.0)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(parse(text).expect(text), value, "{text}");
        }
    }

    #[test]
    fn nested_document_roundtrips() {
        let doc = Json::Obj(vec![
            ("profile".into(), Json::Str("scale 0.005 \"quick\"".into())),
            (
                "figures".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("id".into(), Json::Str("fig3".into())),
                    (
                        "cells".into(),
                        Json::Arr(vec![Json::Arr(vec![Json::Num(25000.0), Json::Null])]),
                    ),
                    ("pass".into(), Json::Bool(true)),
                ])]),
            ),
        ]);
        let text = doc.to_pretty();
        assert_eq!(parse(&text).expect("reparse"), doc);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Json::Str("line1\nline2\t\"quoted\" \\ \u{1}".into());
        let text = original.to_pretty();
        assert_eq!(parse(&text).expect("reparse"), original);
        // Foreign escapes (\/ and surrogate pairs) parse too.
        assert_eq!(
            parse("\"a\\/b \\ud83d\\ude00\"").expect("parse"),
            Json::Str("a/b \u{1F600}".into())
        );
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\":}",
            "nul",
            "1 2",
            "[1] x",
            // Not finite: the writer could only answer `null`.
            "1e400",
            "-1e400",
            // Four hex digits, not whatever `from_str_radix` takes.
            "\"\\u+041\"",
            "\"\\u 041\"",
            // A digit on each side of `.` and after `e`, no leading zero.
            "-.5",
            ".5",
            "1.",
            "1.e3",
            "1e",
            "1e+",
            "01",
            "-01",
            "-",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_not_left_to_the_stack() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"a\":".repeat(n) + "0" + &"}".repeat(n);
        for doc in [arrays(MAX_DEPTH), objects(MAX_DEPTH)] {
            parse(&doc).expect("MAX_DEPTH levels parse");
        }
        for doc in [
            arrays(MAX_DEPTH + 1),
            objects(MAX_DEPTH + 1),
            // 100 KB of openers: a typed error, not a stack overflow.
            "[".repeat(100_000),
            "{\"a\":".repeat(100_000),
        ] {
            let err = parse(&doc).expect_err("too deep");
            assert_eq!(err.msg, "nesting deeper than 128");
        }
        // The bound is on depth, not on how many containers a document has.
        parse(&format!("[{}]", vec!["[[]]"; 1_000].join(","))).expect("wide, not deep");
    }

    #[test]
    fn number_formatting_matches_expectations() {
        let mut out = String::new();
        write_number(&mut out, 25000.0);
        assert_eq!(out, "25000");
        out.clear();
        write_number(&mut out, 0.125);
        assert_eq!(out, "0.125");
        // And back: what the writer emits for a finite number parses to it.
        for x in [25000.0, 0.125, -0.0, 1e15, 1e-7] {
            let text = Json::Num(x).to_pretty();
            assert_eq!(parse(&text).expect(&text), Json::Num(x), "{text}");
        }
    }
}
