//! The one JSON writer and reader of the TIARA crates. Every document the
//! workspace emits is a [`Value`] printed by [`Value::render`]: the daemon's
//! wire protocol, the PDB label files, the `--json` dumps of `tiara` and the
//! `tiara-eval` artifacts. The same crate parses them back.
//!
//! It provides exactly three properties:
//!
//! 1. **Determinism** — the same [`Value`] always renders to the same bytes
//!    (objects keep insertion order; numbers render via Rust's shortest
//!    round-trip `Display`), which is what makes the protocol's
//!    byte-identical-response contract testable.
//! 2. **Robustness** — malformed input is an `Err` with a position, never a
//!    panic; the parser has an explicit recursion-depth limit so hostile
//!    nesting cannot blow the stack.
//! 3. **Zero registry dependencies** — every crate that reads or writes
//!    JSON builds and tests offline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts. Protocol messages are at most
/// ~4 levels deep; 64 leaves headroom without risking stack exhaustion.
const MAX_DEPTH: usize = 64;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A float (serialized via shortest-round-trip `Display`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Pairs keep insertion order; duplicate keys keep the last
    /// value on lookup (like serde_json's map behavior).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (last duplicate wins).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload (also accepts floats with zero fraction).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => Some(f as i64),
            _ => None,
        }
    }

    /// The numeric payload as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The array payload.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Serializes to a compact JSON string (no whitespace), byte-for-byte
    /// deterministic for a given value.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => {
                if f.is_finite() {
                    // Shortest round-trip representation; force a marker so
                    // the value re-parses as a float.
                    let s = format!("{f}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no NaN/Inf; the protocol never produces them,
                    // but render defensively instead of emitting garbage.
                    out.push_str("null");
                }
            }
            Value::Str(s) => render_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` to `out` as a quoted JSON string literal, escaping `"`, `\\`
/// and every control character. The one string escaper of the workspace.
fn render_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

/// `s` as a quoted JSON string literal, escaping `"`, `\\` and every
/// control character: the rendering of `Value::Str(s)`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    render_string(s, &mut out);
    out
}

/// Parses one JSON document, rejecting trailing non-whitespace.
///
/// # Errors
///
/// Returns `(byte_offset, message)` for malformed input.
pub fn parse(input: &str) -> Result<Value, (usize, String)> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err((p.pos, "trailing characters after document".into()));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T, (usize, String)> {
        Err((self.pos, msg.to_owned()))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), (usize, String)> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", b as char))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, (usize, String)> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(&format!("expected `{lit}`"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, (usize, String)> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return self.err("expected `,` or `]`"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    pairs.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(pairs));
                        }
                        _ => return self.err("expected `,` or `}`"),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => self.err(&format!("unexpected character `{}`", c as char)),
        }
    }

    fn string(&mut self) -> Result<String, (usize, String)> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or((self.pos, "truncated \\u escape".to_owned()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| (self.pos, "bad \\u escape".to_owned()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| (self.pos, "bad \\u escape".to_owned()))?;
                            // Surrogates render as the replacement char; the
                            // protocol never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return self.err("unescaped control character in string"),
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // One multi-byte UTF-8 scalar. The input is a &str and
                    // this position starts a scalar, so a 4-byte window holds
                    // it completely; `valid_up_to` trims a trailing scalar
                    // the window may have cut.
                    let end = (self.pos + 4).min(self.bytes.len());
                    let window = &self.bytes[self.pos..end];
                    let valid = match std::str::from_utf8(window) {
                        Ok(s) => s,
                        Err(e) => {
                            std::str::from_utf8(&window[..e.valid_up_to()]).expect("valid prefix")
                        }
                    };
                    let c = valid.chars().next().expect("window holds one scalar");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, (usize, String)> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| (start, format!("bad number `{text}`")))
        } else {
            text.parse::<i64>().map(Value::Int).map_err(|_| (start, format!("bad number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_handles_quotes_and_controls() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("\u{1}\t"), "\"\\u0001\\t\"");
        assert_eq!(parse(&quote("a\"b\\c\nd\u{1}")).unwrap(), Value::Str("a\"b\\c\nd\u{1}".into()));
    }

    #[test]
    fn round_trips_basic_documents() {
        for src in [
            "null",
            "true",
            "false",
            "42",
            "-7",
            "\"hi\"",
            "[1,2,3]",
            "{\"a\":1,\"b\":[true,null]}",
            "{}",
            "[]",
        ] {
            let v = parse(src).unwrap();
            assert_eq!(v.render(), src, "canonical form round-trips");
        }
    }

    #[test]
    fn floats_round_trip_with_marker() {
        let v = parse("1.5").unwrap();
        assert_eq!(v, Value::Float(1.5));
        assert_eq!(v.render(), "1.5");
        assert_eq!(Value::Float(2.0).render(), "2.0");
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Value::Str("a\"b\\c\nd\u{1}".into());
        let s = v.render();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse(&s).unwrap(), v);
        assert_eq!(parse("\"\\u0041\"").unwrap(), Value::Str("A".into()));
        // RFC 8259: control characters inside strings must be escaped.
        for raw in ["\"a\nb\"", "\"\t\"", "[\"\u{1}\"]"] {
            assert!(parse(raw).is_err(), "{raw:?}");
        }
    }

    #[test]
    fn object_lookup_and_duplicates() {
        let v = parse("{\"a\":1,\"a\":2,\"b\":\"x\"}").unwrap();
        assert_eq!(v.get("a").and_then(Value::as_i64), Some(2), "last duplicate wins");
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x"));
        assert!(v.get("c").is_none());
    }

    #[test]
    fn malformed_inputs_error_with_position() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\"}", "tru", "1.2.3", "[1] extra", "{'a':1}"] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
        let (pos, _) = parse("[1, @]").unwrap_err();
        assert_eq!(pos, 4);
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn rendering_is_deterministic_and_ordered() {
        let v = Value::obj([
            ("z", Value::Int(1)),
            ("a", Value::Float(0.25)),
            ("m", Value::Array(vec![Value::Bool(false), Value::Null])),
        ]);
        let expect = "{\"z\":1,\"a\":0.25,\"m\":[false,null]}";
        assert_eq!(v.render(), expect);
        assert_eq!(v.render(), parse(expect).unwrap().render());
    }
}
