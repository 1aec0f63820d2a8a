//! A minimal, dependency-free JSON parser and serializer.
//!
//! The workspace builds offline against no-op shims, so anything that
//! must *read* JSON back — Chrome-trace round-trip validation, flight
//! recorder post-mortems, the bench-regression sentinel diffing
//! `BENCH_*.json` — parses with this module, and the bench bins build
//! their reports as a [`JsonValue`] and write them with
//! [`JsonValue::to_json`]. The parser is a straightforward
//! recursive-descent one over the JSON grammar: no streaming, no
//! zero-copy tricks, sized for config/report files rather than bulk
//! data.

use std::collections::BTreeMap;
use std::fmt;

use crate::export::{json_escape, json_f64};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. `BTreeMap` keeps iteration deterministic.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member `key` of an object, or `None` for other kinds.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Walks a `.`-separated path of object members.
    #[must_use]
    pub fn path(&self, path: &str) -> Option<&JsonValue> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = cur.get(seg)?;
        }
        Some(cur)
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// An object from `(key, value)` pairs.
    #[must_use]
    pub fn object<const N: usize>(members: [(&str, JsonValue); N]) -> Self {
        JsonValue::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Serialises the value as an indented JSON document ending in a
    /// newline. A container holding only scalars stays on one line, so
    /// a table of rows reads as one row per line. Object members come
    /// out in key order; a non-finite number is written as `null`, for
    /// every other value `parse(&v.to_json()) == Ok(v)`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(0, &mut out);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, JsonValue::Array(_) | JsonValue::Object(_))
    }

    fn write(&self, depth: usize, out: &mut String) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &JsonValue)>) = match self {
            JsonValue::Null => return out.push_str("null"),
            JsonValue::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => return out.push_str(&json_f64(*n)),
            JsonValue::String(s) => return write_string(s, out),
            JsonValue::Array(v) => ('[', ']', v.iter().map(|v| (None, v)).collect()),
            JsonValue::Object(m) => (
                '{',
                '}',
                m.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let inline = items.iter().all(|(_, v)| v.is_scalar());
        out.push(open);
        for (i, (key, v)) in items.iter().enumerate() {
            if i > 0 {
                out.push_str(if inline { ", " } else { "," });
            }
            if !inline {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            }
            if let Some(key) = key {
                write_string(key, out);
                out.push_str(": ");
            }
            v.write(depth + 1, out);
        }
        if !inline {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    out.push_str(&json_escape(s));
    out.push('"');
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

/// Counts and nanosecond figures are exact up to 2^53.
macro_rules! number_from {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(v: $t) -> Self {
                JsonValue::Number(v as f64)
            }
        }
    )*};
}
number_from!(f64, u64, u32, usize);

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::String(v.to_string())
    }
}

impl FromIterator<JsonValue> for JsonValue {
    fn from_iter<I: IntoIterator<Item = JsonValue>>(iter: I) -> Self {
        JsonValue::Array(iter.into_iter().collect())
    }
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Parses `input` as a single JSON document.
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed input or trailing garbage.
///
/// # Examples
///
/// ```
/// use xfm_telemetry::json::parse;
///
/// let v = parse(r#"{"a": [1, 2.5], "b": "x\ny"}"#).unwrap();
/// assert_eq!(v.path("a").unwrap().as_array().unwrap().len(), 2);
/// assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
/// assert!(parse("{oops}").is_err());
/// ```
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.to_string(),
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: decode the low half too.
                            if (0xd800..0xdc00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    let c = 0x10000
                                        + ((cp - 0xd800) << 10)
                                        + (low.wrapping_sub(0xdc00) & 0x3ff);
                                    out.push(char::from_u32(c).unwrap_or('\u{fffd}'));
                                } else {
                                    out.push('\u{fffd}');
                                }
                            } else {
                                out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte sequence is valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.peek().is_some_and(|b| b & 0xc0 == 0x80) {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        s.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("-3.25e2").unwrap(), JsonValue::Number(-325.0));
        assert_eq!(
            parse(r#""hi""#).unwrap(),
            JsonValue::String("hi".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": {"b": [1, {"c": null}]}, "d": []}"#).unwrap();
        assert!(v.path("a.b").unwrap().as_array().is_some());
        assert_eq!(
            v.path("a.b").unwrap().as_array().unwrap()[1].get("c"),
            Some(&JsonValue::Null)
        );
        assert_eq!(v.get("d").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn decodes_escapes_and_unicode() {
        let v = parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
        // Surrogate pair: U+1F600.
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{} extra",
            "{'single': 1}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn writer_keeps_scalar_rows_on_one_line() {
        let doc = JsonValue::object([
            ("pages", 768u64.into()),
            (
                "rows",
                [1u64, 2]
                    .map(|id| JsonValue::object([("id", id.into())]))
                    .into_iter()
                    .collect(),
            ),
            (
                "wall",
                JsonValue::object([("ratio", 0.5.into()), ("inf", f64::INFINITY.into())]),
            ),
        ]);
        assert_eq!(
            doc.to_json(),
            "{\n  \"pages\": 768,\n  \"rows\": [\n    {\"id\": 1},\n    {\"id\": 2}\n  ],\n  \
             \"wall\": {\"inf\": null, \"ratio\": 0.5}\n}\n"
        );
        assert_eq!(JsonValue::Array(Vec::new()).to_json(), "[]\n");
    }

    #[test]
    fn round_trips_registry_export() {
        // The sentinel parses Snapshot::to_json output; prove the pair
        // is compatible.
        let r = crate::Registry::new();
        r.counter("xfm_swap_outs_total").add(3);
        r.gauge("xfm_util{rank=\"0\"}").set(0.5);
        r.histogram("xfm_lat_ns").record(100);
        let v = parse(&r.snapshot().to_json()).unwrap();
        assert_eq!(
            v.path("counters.xfm_swap_outs_total").unwrap().as_f64(),
            Some(3.0)
        );
        assert!(v.get("histograms").unwrap().get("xfm_lat_ns").is_some());
    }
}
