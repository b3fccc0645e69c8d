//! The workspace's one JSON codec: a streaming [`JsonWriter`], the one
//! string-escape routine ([`escape_into`]), and a small recursive-descent
//! reader ([`parse`] → [`JsonValue`]). Dependency-free, and in the leaf
//! crate so every layer above can use it.
//!
//! Every report the workspace emits — chaos reports, fault plans, model-
//! checker certificates, flight-recorder exports, bench artifacts — is
//! written through [`JsonWriter`]: a type exposes
//! `fn write_json(&self, w: &mut JsonWriter)` that writes itself *in
//! place* (nested values are never rendered to a string and spliced in),
//! and its `to_json(&self) -> String` is [`to_string`] over that. Output
//! is compact (no whitespace) and byte-deterministic; committed fixtures
//! and `cmp`-based CI gates depend on the exact bytes.
//!
//! Float policy: [`JsonWriter::f64`] is Rust's shortest-round-trip `{:?}`
//! (what plans use, so a plan re-parses to the identical value),
//! [`JsonWriter::fixed`] is `{:.n}` (what human-facing reports use), and a
//! non-finite value is written as `null` by both.
//!
//! On the reading side numbers are kept **lossless** as their raw source
//! text ([`JsonValue::Num`] holds a `String`), converted on demand by
//! [`JsonValue::as_u64`] / [`JsonValue::as_f64`], so a plan serialized and
//! re-parsed is structurally identical — the property the
//! counterexample-replay tests depend on.

use std::fmt::{self, Write as _};

fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Appends `s` to `out` escaped for the inside of a JSON string literal:
/// `"` and `\` are backslash-escaped, newline / carriage return / tab
/// use their short forms, and every other control character becomes
/// `\u00XX`.
// Forced inline: keys and most values are program literals, and only an
// inlined scan lets the compiler see a literal is clean and reduce the
// call to one `push_str` (measured: Chrome-trace export 147 → 100
// ns/event). The rare dirty string takes the out-of-line path.
#[inline(always)]
pub fn escape_into(out: &mut String, s: &str) {
    match s.bytes().position(needs_escape) {
        None => out.push_str(s),
        Some(first) => escape_from(out, s, first),
    }
}

/// [`escape_into`] for a string whose first byte to escape is at `first`.
#[cold]
fn escape_from(out: &mut String, s: &str, first: usize) {
    // Everything escaped is ASCII, so scanning bytes and copying the
    // clean runs between escapes whole keeps multi-byte scalars intact.
    let mut clean_from = 0;
    for (i, b) in s.bytes().enumerate().skip(first) {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[clean_from..i]);
        clean_from = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[clean_from..]);
}

/// Renders one JSON document into a fresh `String`.
#[must_use]
pub fn to_string(f: impl FnOnce(&mut JsonWriter<'_>)) -> String {
    let mut out = String::new();
    f(&mut JsonWriter::new(&mut out));
    out
}

/// A streaming JSON writer appending to a caller-owned `String`.
///
/// The writer places the commas: each value written into an array, and
/// each [`key`](Self::key) written into an object, is preceded by `,`
/// when it is not the first of its container. Containers are written by
/// [`object`](Self::object) / [`array`](Self::array), which take a closure
/// for the contents, so brackets always balance. A fresh writer writes
/// exactly one top-level value.
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// The next key or value needs a `,` before it: the current container
    /// already holds an element (and no key is waiting for its value).
    comma: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending one value to `out`.
    pub fn new(out: &'a mut String) -> Self {
        JsonWriter { out, comma: false }
    }

    #[inline]
    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    fn raw(&mut self, v: impl fmt::Display) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{v}");
        self
    }

    #[inline]
    fn container(&mut self, open: char, close: char, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.sep();
        self.out.push(open);
        self.comma = false;
        f(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// Writes `{…}`; `f` writes the members as `key(..)` + value pairs.
    pub fn object(&mut self, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('{', '}', f)
    }

    /// Writes `[…]`; `f` writes the elements.
    pub fn array(&mut self, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('[', ']', f)
    }

    /// Writes an object key (escaped); the next value written is its
    /// member value.
    #[inline(always)] // see `escape_into`: the key is almost always a literal
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.sep();
        self.out.push('"');
        escape_into(self.out, key);
        self.out.push_str("\":");
        self.comma = false;
        self
    }

    /// Writes an unsigned integer.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        // Hand-rolled digits: most of every document is integers, and
        // `write!` costs several times this on the export paths.
        self.sep();
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = v;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
        self
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.raw(v)
    }

    /// Writes an unsigned integer, or `null` for `None`.
    pub fn opt_u64(&mut self, v: Option<u64>) -> &mut Self {
        match v {
            Some(v) => self.u64(v),
            None => self.null(),
        }
    }

    /// Writes `true` / `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.raw(v)
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// Writes a string literal (escaped by [`escape_into`]).
    #[inline(always)] // see `escape_into`
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.sep();
        self.out.push('"');
        escape_into(self.out, v);
        self.out.push('"');
        self
    }

    /// Writes a float in shortest-round-trip form (`{:?}`: `40.0`,
    /// `0.3333333333333333`); `null` when not finite.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            self.raw(format_args!("{v:?}"))
        } else {
            self.null()
        }
    }

    /// Writes a float with exactly `decimals` fraction digits (`{:.n}`);
    /// `null` when not finite.
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Self {
        if v.is_finite() {
            self.raw(format_args!("{v:.decimals$}"))
        } else {
            self.null()
        }
    }
}

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw (already validated) source text.
    Num(String),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order (duplicate keys are kept as-is; lookups
    /// return the first match).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This number as an `f64`, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// This number as a `u64`, if it is a non-negative integer literal
    /// (no fraction, no exponent) in range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// This number as an `i64`, if it is an integer literal in range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The field slice, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// Human-readable description of the failure.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (one value plus optional surrounding
/// whitespace; trailing garbage is an error).
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError { at: self.pos, msg: msg.into() }
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
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined =
                                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            // hex4 leaves pos past the digits; skip the
                            // generic advance below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy a full UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input was a &str");
                    let c = s.chars().next().expect("peek saw a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number chars are ASCII")
            .to_string();
        Ok(JsonValue::Num(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(parse("1.5e3").unwrap().as_f64(), Some(1500.0));
        assert_eq!(parse("\"hi\\n\\\"there\\\"\"").unwrap().as_str(), Some("hi\n\"there\""));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a": [1, {"b": null}, "x"], "c": {"d": false}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(doc.get("c").unwrap().get("d").unwrap().as_bool(), Some(false));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn numbers_round_trip_losslessly() {
        // The raw text survives parsing even when f64 would lose digits.
        let doc = parse("18446744073709551615").unwrap();
        assert_eq!(doc, JsonValue::Num("18446744073709551615".to_string()));
        assert_eq!(doc.as_u64(), Some(u64::MAX));
        // Shortest-round-trip floats re-parse to the identical value.
        let v = 0.1f64 + 0.2f64;
        let doc = parse(&format!("{v:?}")).unwrap();
        assert_eq!(doc.as_f64(), Some(v));
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(parse(r#""é""#).unwrap().as_str(), Some("é"));
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "{\"a\" 1}", "\"x", "01abc"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn escaping_round_trips_through_parse() {
        let nasty = "q\"uote b\\ack \n\r\t \u{1}\u{1f} é😀 end";
        let doc = to_string(|w| {
            w.object(|w| {
                w.key(nasty).str(nasty);
            });
        });
        assert!(doc.contains("\\\"") && doc.contains("\\\\") && doc.contains("\\n"));
        assert!(doc.contains("\\r") && doc.contains("\\t") && doc.contains("\\u0001\\u001f"));
        assert!(doc.bytes().all(|b| b >= 0x20), "no raw control byte may survive");
        let back = parse(&doc).unwrap();
        assert_eq!(back.get(nasty).and_then(JsonValue::as_str), Some(nasty));
    }

    #[test]
    fn non_finite_floats_emit_null() {
        let doc = to_string(|w| {
            w.array(|w| {
                w.f64(f64::NAN).f64(f64::INFINITY).fixed(f64::NEG_INFINITY, 3).fixed(f64::NAN, 0);
            });
        });
        assert_eq!(doc, "[null,null,null,null]");
    }

    #[test]
    fn commas_in_empty_and_nested_containers() {
        let doc = to_string(|w| {
            w.object(|w| {
                w.key("e").object(|_| {});
                w.key("a").array(|_| {});
                w.key("n").array(|w| {
                    w.array(|w| {
                        w.u64(1).u64(2);
                    });
                    w.object(|w| {
                        w.key("k").null();
                        w.key("b").bool(true);
                    });
                    w.array(|_| {}).i64(-3).str("s").opt_u64(None).opt_u64(Some(4));
                });
                w.key("z").u64(0);
            });
        });
        assert_eq!(doc, r#"{"e":{},"a":[],"n":[[1,2],{"k":null,"b":true},[],-3,"s",null,4],"z":0}"#);
        assert!(parse(&doc).is_ok());
    }

    #[test]
    fn integers_match_display() {
        for v in [0, 9, 10, 99, 100, 12_345, u64::from(u32::MAX) + 2, u64::MAX] {
            assert_eq!(to_string(|w| { w.u64(v); }), v.to_string());
        }
        for v in [0, -1, 7, i64::MIN, i64::MAX] {
            assert_eq!(to_string(|w| { w.i64(v); }), v.to_string());
        }
    }

    #[test]
    fn floats_match_the_format_macros() {
        let table = [
            0.0, -0.0, 1.0, -1.5, 40.0, 0.1 + 0.2, 1.0 / 3.0, 12.25, 0.125, 1e-7, 2.5e-5, 1e15,
            1e16, 1.7976931348623157e308, 5e-324, 1952073.930142, 3501.87109375,
        ];
        for x in table {
            assert_eq!(to_string(|w| { w.f64(x); }), format!("{x:?}"));
            // What `f64` writes is what `parse` reads back, bit for bit.
            assert_eq!(parse(&format!("{x:?}")).unwrap().as_f64().map(f64::to_bits), Some(x.to_bits()));
            assert_eq!(to_string(|w| { w.fixed(x, 0); }), format!("{x:.0}"));
            assert_eq!(to_string(|w| { w.fixed(x, 1); }), format!("{x:.1}"));
            assert_eq!(to_string(|w| { w.fixed(x, 3); }), format!("{x:.3}"));
            assert_eq!(to_string(|w| { w.fixed(x, 6); }), format!("{x:.6}"));
        }
    }
}
