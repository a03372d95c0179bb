//! Hand-rolled, std-only JSON value model, streaming writer and parser.
//!
//! The workspace builds offline with no external crates, so the
//! machine-readable experiment output (`BENCH_experiments.json`,
//! `BENCH_campaign.json`, the campaign shard files) is produced by this
//! serializer instead of serde. Only what the harness needs is supported:
//! objects, arrays, strings, booleans, unsigned/floating numbers and null.
//!
//! Rendering is deterministic — the caller controls key order and the
//! float formatter is `{}` (shortest round-trip), so identical inputs
//! always yield identical bytes. Emission is **writer-backed**
//! ([`Json::write_compact`] / [`Json::write_pretty`] stream into any
//! [`std::io::Write`]), so multi-thousand-row campaign reports never
//! materialize as one giant `String`; the `String`-returning
//! [`Json::render`] / [`Json::pretty`] are thin wrappers for tests and
//! small documents.
//!
//! [`parse`] is the inverse: a strict recursive-descent reader used by the
//! campaign merge step (shard rows are compact JSON lines) and the
//! `--summary` reporter. Because the float formatter is shortest
//! round-trip, `parse(doc.render()) == doc` for every value this module
//! can emit.

use std::fmt::Write as _;
use std::io::{self, Write};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (exact — counters exceed f64's 2^53 mantissa
    /// only in theory, but exactness is free here).
    U64(u64),
    /// A float; NaN and infinities render as `null` per RFC 8259.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with caller-defined key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object members.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member lookup on an object (`None` for other variants).
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

    /// The unsigned payload, if this is an unsigned number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload widened to f64 (`U64` and `F64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The bool payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// Renders compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.write_compact(&mut out).expect("Vec<u8> writes are infallible");
        String::from_utf8(out).expect("writer emits UTF-8")
    }

    /// Renders with `indent`-space pretty-printing.
    pub fn pretty(&self, indent: usize) -> String {
        let mut out = Vec::new();
        self.write_pretty(&mut out, indent).expect("Vec<u8> writes are infallible");
        String::from_utf8(out).expect("writer emits UTF-8")
    }

    /// Streams the compact rendering into `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn write_compact<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.write_io(w, None, 0)
    }

    /// Streams the `indent`-space pretty rendering into `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn write_pretty<W: Write>(&self, w: &mut W, indent: usize) -> io::Result<()> {
        self.write_io(w, Some(indent), 0)
    }

    fn write_io<W: Write>(&self, w: &mut W, indent: Option<usize>, depth: usize) -> io::Result<()> {
        let nl = if indent.is_some() { "\n" } else { "" };
        let pad = |w: &mut W, levels: usize| -> io::Result<()> {
            if let Some(width) = indent {
                for _ in 0..width * levels {
                    w.write_all(b" ")?;
                }
            }
            Ok(())
        };
        match self {
            Json::Null => w.write_all(b"null"),
            Json::Bool(b) => w.write_all(if *b { b"true" } else { b"false" }),
            Json::U64(n) => write!(w, "{n}"),
            Json::F64(x) => {
                if x.is_finite() {
                    // Ensure a distinguishing decimal point or exponent so
                    // the value reads back as a float.
                    let mut s = String::new();
                    let _ = write!(s, "{x}");
                    if !s.contains(['.', 'e', 'E']) {
                        s.push_str(".0");
                    }
                    w.write_all(s.as_bytes())
                } else {
                    w.write_all(b"null")
                }
            }
            Json::Str(s) => write_escaped(w, s),
            Json::Arr(xs) => {
                if xs.is_empty() {
                    return w.write_all(b"[]");
                }
                w.write_all(b"[")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        w.write_all(b",")?;
                    }
                    w.write_all(nl.as_bytes())?;
                    pad(w, depth + 1)?;
                    x.write_io(w, indent, depth + 1)?;
                }
                w.write_all(nl.as_bytes())?;
                pad(w, depth)?;
                w.write_all(b"]")
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    return w.write_all(b"{}");
                }
                w.write_all(b"{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        w.write_all(b",")?;
                    }
                    w.write_all(nl.as_bytes())?;
                    pad(w, depth + 1)?;
                    write_escaped(w, k)?;
                    w.write_all(b":")?;
                    if indent.is_some() {
                        w.write_all(b" ")?;
                    }
                    v.write_io(w, indent, depth + 1)?;
                }
                w.write_all(nl.as_bytes())?;
                pad(w, depth)?;
                w.write_all(b"}")
            }
        }
    }
}

fn write_escaped<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    w.write_all(b"\"")?;
    for c in s.chars() {
        match c {
            '"' => w.write_all(b"\\\"")?,
            '\\' => w.write_all(b"\\\\")?,
            '\n' => w.write_all(b"\\n")?,
            '\r' => w.write_all(b"\\r")?,
            '\t' => w.write_all(b"\\t")?,
            c if (c as u32) < 0x20 => write!(w, "\\u{:04x}", c as u32)?,
            c => {
                let mut buf = [0u8; 4];
                w.write_all(c.encode_utf8(&mut buf).as_bytes())?;
            }
        }
    }
    w.write_all(b"\"")
}

/// Parses a JSON document. Strict: the whole input must be one value plus
/// optional trailing whitespace.
///
/// # Errors
///
/// Returns a byte offset + message for malformed input.
pub fn parse(s: &str) -> Result<Json, ParseError> {
    let mut p = Parser { src: s, bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: message.into() }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(xs));
        }
        loop {
            self.skip_ws();
            xs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(xs));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect a low surrogate.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance one whole UTF-8 scalar, decoded in O(1) from
                    // the already-validated input (`pos` only ever stops on
                    // a scalar boundary).
                    let c = self.src[self.pos..].chars().next().expect("non-empty");
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        let v = u32::from_str_radix(digits, 16)
            .map_err(|_| self.err("invalid unicode escape digits"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if float || text.starts_with('-') {
            // The writer never emits a dot-less negative integer, and
            // shortest-round-trip formatting guarantees parse∘render is
            // the identity on floats.
            text.parse::<f64>().map(Json::F64).map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<u64>().map(Json::U64).map_err(|_| self.err("invalid number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(42).render(), "42");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(2.0).render(), "2.0");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::str("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn renders_structures() {
        let v = Json::obj(vec![
            ("name", Json::str("crc")),
            ("ok", Json::Bool(true)),
            ("xs", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(v.render(), r#"{"name":"crc","ok":true,"xs":[1,2],"empty":[]}"#);
    }

    #[test]
    fn pretty_is_stable() {
        let v = Json::obj(vec![("a", Json::U64(1)), ("b", Json::Arr(vec![Json::Null]))]);
        assert_eq!(v.pretty(2), "{\n  \"a\": 1,\n  \"b\": [\n    null\n  ]\n}");
    }

    #[test]
    fn writer_backed_emission_matches_string_rendering() {
        let v = Json::obj(vec![
            ("rows", Json::Arr((0..100).map(Json::U64).collect())),
            ("pi", Json::F64(3.25)),
        ]);
        let mut compact = Vec::new();
        v.write_compact(&mut compact).unwrap();
        assert_eq!(String::from_utf8(compact).unwrap(), v.render());
        let mut pretty = Vec::new();
        v.write_pretty(&mut pretty, 2).unwrap();
        assert_eq!(String::from_utf8(pretty).unwrap(), v.pretty(2));
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let v = Json::obj(vec![
            ("name", Json::str("campaign-cell π✓")),
            ("esc", Json::str("a\"b\\c\nd\t\u{1}")),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("count", Json::U64(u64::MAX)),
            ("overhead", Json::F64(-65.25)),
            ("ratio", Json::F64(3.0000000000000004)),
            ("xs", Json::Arr(vec![Json::U64(1), Json::F64(2.0), Json::str("x")])),
            ("empty_a", Json::Arr(vec![])),
            ("empty_o", Json::Obj(vec![])),
        ]);
        assert_eq!(parse(&v.render()).unwrap(), v);
        assert_eq!(parse(&v.pretty(2)).unwrap(), v);
    }

    /// String decoding must be O(1) per character, so a 1 MiB string plus
    /// 100k short strings parse in linear time; re-validating the rest of
    /// the input per character would make this test run for hours.
    #[test]
    fn parse_is_linear_in_string_length() {
        let big: String = "π✓ab".chars().cycle().take(1 << 20).collect();
        assert!(big.len() >= 1 << 20);
        let v = Json::obj(vec![
            ("big", Json::Str(big)),
            ("xs", Json::Arr((0..100_000).map(|i| Json::str(format!("s{i}"))).collect())),
        ]);
        assert_eq!(parse(&v.render()).unwrap(), v);
        assert_eq!(parse(&v.pretty(2)).unwrap(), v);
    }

    #[test]
    fn parse_accepts_standard_json() {
        let v = parse("  {\"a\": [1, 2.5, \"\\u0041\\ud83d\\ude00\"], \"b\": false} ").unwrap();
        assert_eq!(v.get("b"), Some(&Json::Bool(false)));
        let xs = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(xs[0], Json::U64(1));
        assert_eq!(xs[1], Json::F64(2.5));
        assert_eq!(xs[2], Json::str("A😀"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "nul", "1 2", "\"\\q\"", "\"\\ud800x\""] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"s":"x","n":3,"f":1.5,"b":true,"a":[null]}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("s"), None);
    }
}
