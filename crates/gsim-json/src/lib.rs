//! A minimal, dependency-free JSON module shared across the workspace.
//!
//! The workspace deliberately has no external crates, so the pieces that
//! speak JSON — the `gsim-runner` JSONL metrics sink and the `gsim-serve`
//! HTTP service — each used to hand-roll string escaping and object
//! assembly. This crate is the one shared implementation:
//!
//! * [`Json`] — an insertion-ordered JSON value. Object member order is
//!   preserved verbatim, so rendering is deterministic and two renders of
//!   the same value are byte-identical (what the `gsim-serve` result
//!   cache relies on).
//! * [`Json::render`] — compact serialisation.
//! * [`parse`] / [`parse_with_limits`] — a recursive-descent parser with
//!   explicit input-size and nesting-depth limits, so a hostile HTTP body
//!   cannot blow the stack or the heap.
//! * [`json_string`] / [`escape_into`] — string-literal escaping, reused
//!   by the ad-hoc emitters that format lines directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// Default maximum nesting depth accepted by [`parse`].
pub const DEFAULT_MAX_DEPTH: usize = 64;

/// Default maximum input size in bytes accepted by [`parse`].
pub const DEFAULT_MAX_BYTES: usize = 4 << 20;

/// A JSON value.
///
/// Objects are a `Vec` of `(key, value)` pairs in insertion order —
/// deterministic rendering matters more to this workspace than O(1)
/// member lookup on huge documents (ours are small).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Rendering prints integral values in `±2^53`
    /// without a fractional part; non-finite values render as `null`
    /// (JSON has no NaN/Infinity).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, member order preserved.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Num(f64::from(v))
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

/// Builds a [`Json::Obj`] from `(key, value)` pairs.
pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
    Json::Obj(
        pairs
            .into_iter()
            .map(|(k, v)| (k.into(), v.into()))
            .collect(),
    )
}

impl Json {
    /// Member lookup on an object (first match); `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer, if this is a
    /// number with no fractional part in `0..=2^53`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(n) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Compact, deterministic serialisation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => render_number(*n, out),
            Json::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Renders an `f64` the way the workspace's emitters always have:
/// integral values in `±2^53` print without a fractional part, everything
/// else uses Rust's shortest round-trip formatting, and non-finite values
/// become `null`.
fn render_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Appends the JSON string-literal escape of `s` (without surrounding
/// quotes) to `out`.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders `s` as a JSON string literal, quotes included.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(s, &mut out);
    out.push('"');
    out
}

/// A parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document with the default limits
/// ([`DEFAULT_MAX_DEPTH`], [`DEFAULT_MAX_BYTES`]).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error, limit
/// violation, or trailing garbage.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    parse_with_limits(input, DEFAULT_MAX_DEPTH, DEFAULT_MAX_BYTES)
}

/// Parses a complete JSON document, rejecting inputs larger than
/// `max_bytes` or nested deeper than `max_depth`.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error, limit
/// violation, or trailing garbage.
pub fn parse_with_limits(
    input: &str,
    max_depth: usize,
    max_bytes: usize,
) -> Result<Json, ParseError> {
    if input.len() > max_bytes {
        return Err(ParseError {
            message: format!(
                "input of {} bytes exceeds the {max_bytes}-byte limit",
                input.len()
            ),
            offset: 0,
        });
    }
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        max_depth,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    max_depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{text}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > self.max_depth {
            return Err(self.err(format!("nesting deeper than {} levels", self.max_depth)));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 and the run stops on an ASCII
                // delimiter, so the slice is on char boundaries.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), r#""plain""#);
        assert_eq!(json_string("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(json_string("x\ny\tz"), r#""x\ny\tz""#);
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn render_is_compact_and_ordered() {
        let v = obj([
            ("b", Json::from(2u64)),
            ("a", Json::from("x")),
            ("list", Json::from(vec![1u64, 2, 3])),
            ("none", Json::Null),
        ]);
        assert_eq!(v.render(), r#"{"b":2,"a":"x","list":[1,2,3],"none":null}"#);
    }

    #[test]
    fn numbers_render_like_the_legacy_emitters() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::Num(0.25).render(), "0.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parse_round_trips() {
        let text = r#"{"a":1,"b":[true,false,null,"s\n"],"c":{"d":0.5},"e":-2}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.render(), text);
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(0.5));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn parse_accepts_whitespace_and_exponents() {
        let v = parse(" { \"x\" : 1e3 , \"y\" : [ ] } ").unwrap();
        assert_eq!(v.get("x").unwrap().as_f64(), Some(1000.0));
        assert_eq!(v.get("y").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn parse_unicode_escapes() {
        let v = parse(r#""a\u00e9\ud83d\ude00b""#).unwrap();
        assert_eq!(v.as_str(), Some("aé😀b"));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"\u{1}\"").is_err(), "raw control character");
    }

    #[test]
    fn parse_enforces_limits() {
        let deep = format!("{}1{}", "[".repeat(40), "]".repeat(40));
        let err = parse(&deep);
        assert!(err.is_ok(), "40 levels fits the default limit");
        let err = parse_with_limits(&deep, 10, DEFAULT_MAX_BYTES).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let err = parse_with_limits("[1]", DEFAULT_MAX_DEPTH, 2).unwrap_err();
        assert!(err.message.contains("limit"), "{err}");
    }

    #[test]
    fn as_u64_bounds() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
        assert_eq!(Json::Str("1".into()).as_u64(), None);
    }
}
