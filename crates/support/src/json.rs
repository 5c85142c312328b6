//! A small, dependency-free JSON reader and writer.
//!
//! The build environment vendors no serde, so configuration files are read
//! through this hand-rolled recursive-descent parser instead, and the
//! `BENCH_*.json` reports are produced by the serializer below. Three
//! properties matter to callers and are guaranteed here:
//!
//! - **object member order is preserved** (an object is a `Vec` of pairs,
//!   not a hash map) — the `"data"` object of a Fig. 5 configuration
//!   defines operand order by member position, and report files diff
//!   cleanly;
//! - errors carry `line:col` locations through [`Diagnostic`];
//! - serialization round-trips: `parse(v.to_json_pretty())` yields `v`
//!   again for every value this module can produce.

use crate::diag::{Diagnostic, SourceLoc};

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fractional part or exponent. Stored as `i128`
    /// so the full `u64` range (DMA addresses, buffer sizes) and the full
    /// `i64` range both survive parsing.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source member order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] with a `line:col` location on syntax
    /// errors or trailing garbage.
    pub fn parse(text: &str) -> Result<JsonValue, Diagnostic> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integral number in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number in
    /// range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`: floats directly, integral numbers
    /// converted (may round for magnitudes beyond 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Float(v) => Some(*v),
            JsonValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members in source order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Looks up an object member by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A short name for the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "boolean",
            JsonValue::Int(_) | JsonValue::Float(_) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }

    /// An object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(members.into_iter().map(|(key, value)| (key.into(), value)).collect())
    }

    /// Compact (single-line) serialization.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization: two-space indent, one member per line.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(v) => out.push_str(&v.to_string()),
            JsonValue::Float(v) => out.push_str(&fmt_float(*v)),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                write_seq(out, indent, depth, b'[', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            JsonValue::Object(members) => {
                write_seq(out, indent, depth, b'{', members.len(), |out, i| {
                    let (key, value) = &members[i];
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                });
            }
        }
    }
}

/// Serializes a finite float so it re-parses as [`JsonValue::Float`]
/// (integral values keep a `.0`); non-finite values have no JSON spelling
/// and become `null`.
fn fmt_float(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_owned();
    }
    if v.fract() == 0.0 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Shared layout for arrays (`open` = `[`) and objects (`open` = `{`):
/// compact when `indent` is `None`, one element per line otherwise.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: u8,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    let close = if open == b'[' { ']' } else { '}' };
    out.push(open as char);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

/// A value one JSON member decodes into, for [`Members::req`] and
/// [`Members::opt`].
pub trait FromJson<'a>: Sized {
    /// How a well-formed member reads, for error messages (`a string`).
    fn expected() -> String;

    /// Decodes `value`, or `None` when it has another shape.
    fn decode(value: &'a JsonValue) -> Option<Self>;
}

macro_rules! from_json {
    ($($ty:ty: $expected:literal, $decode:expr;)*) => {$(
        impl<'a> FromJson<'a> for $ty {
            fn expected() -> String {
                $expected.to_owned()
            }

            fn decode(value: &'a JsonValue) -> Option<Self> {
                $decode(value)
            }
        }
    )*};
}

from_json! {
    bool: "a boolean", JsonValue::as_bool;
    u64: "a non-negative integer", JsonValue::as_u64;
    usize: "a non-negative integer", |v: &JsonValue| v.as_u64().and_then(|n| n.try_into().ok());
    i64: "an integer", JsonValue::as_i64;
    f64: "a number", JsonValue::as_f64;
    &'a str: "a string", JsonValue::as_str;
    String: "a string", |v: &JsonValue| v.as_str().map(str::to_owned);
    &'a JsonValue: "a JSON value", Some;
}

impl<'a, T: FromJson<'a>> FromJson<'a> for Vec<T> {
    fn expected() -> String {
        format!("an array of {}", T::expected())
    }

    fn decode(value: &'a JsonValue) -> Option<Self> {
        value.as_array()?.iter().map(T::decode).collect()
    }
}

impl<'a, A: FromJson<'a>, B: FromJson<'a>> FromJson<'a> for (A, B) {
    fn expected() -> String {
        format!("a [{}, {}] pair", A::expected(), B::expected())
    }

    fn decode(value: &'a JsonValue) -> Option<Self> {
        match value.as_array()? {
            [a, b] => Some((A::decode(a)?, B::decode(b)?)),
            _ => None,
        }
    }
}

impl<'a, A: FromJson<'a>, B: FromJson<'a>, C: FromJson<'a>> FromJson<'a> for (A, B, C) {
    fn expected() -> String {
        format!("a [{}, {}, {}] triple", A::expected(), B::expected(), C::expected())
    }

    fn decode(value: &'a JsonValue) -> Option<Self> {
        match value.as_array()? {
            [a, b, c] => Some((A::decode(a)?, B::decode(b)?, C::decode(c)?)),
            _ => None,
        }
    }
}

/// The member reader every decoder in the workspace goes through: typed
/// access to one JSON object's members, with errors that name the
/// member. `context` names the object in every error:
///
/// - a missing required member: ``{context} requires a `{name}` ``;
/// - a member of another shape: `{context}: {name} must be {expected}`;
/// - a member the caller rejects: `{context}: {name} {detail}`
///   ([`Members::invalid`]).
///
/// The reader borrows the object: it builds no map and copies no member
/// name; a lookup scans the members in order. A `null` member reads as
/// absent.
#[derive(Clone, Copy, Debug)]
pub struct Members<'a, 'c> {
    members: &'a [(String, JsonValue)],
    context: &'c str,
}

impl<'a, 'c> Members<'a, 'c> {
    /// Reads `value`'s members.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] naming `context` when `value` is not an
    /// object. Every other method's error names the member it reads.
    pub fn of(value: &'a JsonValue, context: &'c str) -> Result<Self, Diagnostic> {
        match value {
            JsonValue::Object(members) => Ok(Members { members, context }),
            other => Err(Diagnostic::error(format!(
                "{context}: expected a JSON object, found {}",
                other.type_name()
            ))),
        }
    }

    /// The object's members in source order.
    pub fn entries(&self) -> &'a [(String, JsonValue)] {
        self.members
    }

    /// The raw member `name`; `None` when absent or `null`.
    pub fn get(&self, name: &str) -> Option<&'a JsonValue> {
        let (_, value) = self.members.iter().find(|(key, _)| key == name)?;
        Some(value).filter(|value| !matches!(value, JsonValue::Null))
    }

    /// The raw member `name`, which must be present.
    pub fn value(&self, name: &str) -> Result<&'a JsonValue, Diagnostic> {
        self.get(name)
            .ok_or_else(|| Diagnostic::error(format!("{} requires a `{name}`", self.context)))
    }

    /// Decodes the required member `name`.
    pub fn req<T: FromJson<'a>>(&self, name: &str) -> Result<T, Diagnostic> {
        self.decode(name, self.value(name)?)
    }

    /// Decodes the optional member `name`: `None` when absent.
    pub fn opt<T: FromJson<'a>>(&self, name: &str) -> Result<Option<T>, Diagnostic> {
        self.get(name).map(|value| self.decode(name, value)).transpose()
    }

    /// The object member `name`, read in the same context.
    pub fn object(&self, name: &str) -> Result<Members<'a, 'c>, Diagnostic> {
        match self.value(name)? {
            JsonValue::Object(members) => Ok(Members { members, context: self.context }),
            _ => Err(self.invalid(name, "must be a JSON object")),
        }
    }

    /// An error rejecting member `name` (see [`member_error`]).
    pub fn invalid(&self, name: &str, detail: impl std::fmt::Display) -> Diagnostic {
        member_error(self.context, name, detail)
    }

    fn decode<T: FromJson<'a>>(&self, name: &str, value: &'a JsonValue) -> Result<T, Diagnostic> {
        T::decode(value).ok_or_else(|| self.invalid(name, format!("must be {}", T::expected())))
    }
}

/// The error that rejects member `name` of the object `context` names:
/// `{context}: {name} {detail}`. [`Members`] reports shape errors this
/// way; validation of an already decoded value uses it to blame a member
/// in the same words.
pub fn member_error(context: &str, name: &str, detail: impl std::fmt::Display) -> Diagnostic {
    Diagnostic::error(format!("{context}: {name} {detail}"))
}

macro_rules! into_json {
    ($($ty:ty => $encode:expr;)*) => {$(
        impl From<$ty> for JsonValue {
            fn from(v: $ty) -> Self {
                $encode(v)
            }
        }
    )*};
}

into_json! {
    bool => JsonValue::Bool;
    i64 => |v| JsonValue::Int(i128::from(v));
    u64 => |v| JsonValue::Int(i128::from(v));
    usize => |v| JsonValue::Int(v as i128);
    f64 => JsonValue::Float;
    &str => |v: &str| JsonValue::Str(v.to_owned());
    String => JsonValue::Str;
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Array(v.into_iter().map(Into::into).collect())
    }
}

/// A pair encodes as a two-element array, the spelling [`FromJson`]
/// decodes pairs from.
impl<A: Into<JsonValue>, B: Into<JsonValue>> From<(A, B)> for JsonValue {
    fn from((a, b): (A, B)) -> Self {
        JsonValue::Array(vec![a.into(), b.into()])
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn loc(&self) -> SourceLoc {
        let mut line = 1u32;
        let mut col = 1u32;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        SourceLoc::new(line, col)
    }

    fn error(&self, message: impl Into<String>) -> Diagnostic {
        let loc = self.loc();
        Diagnostic::error(format!("{} at {loc}", message.into()))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Diagnostic> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, Diagnostic> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.keyword("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected character `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, Diagnostic> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, Diagnostic> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string().map_err(|_| self.error("expected a string object key"))?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, Diagnostic> {
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
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Diagnostic> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one step.
            // Both are ASCII, so the run ends on a character boundary and
            // only its own bytes need UTF-8 validation: decoding stays
            // linear in the document size.
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            out.push_str(
                std::str::from_utf8(&rest[..run])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            self.pos += run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    // The run stopped at a backslash.
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(self.error(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
            }
        }
    }

    /// Decodes the character of a `\uXXXX` escape whose `\u` was just
    /// consumed. A high surrogate directly followed by a `\uXXXX` low
    /// surrogate decodes as the pair's one character; a lone surrogate
    /// becomes U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, Diagnostic> {
        let unit = self.hex4()?;
        if (0xD800..0xDC00).contains(&unit) && self.bytes[self.pos..].starts_with(b"\\u") {
            let resume = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(code).expect("a surrogate pair is a scalar value"));
            }
            // Not a pair: the next escape decodes on its own.
            self.pos = resume;
        }
        Ok(char::from_u32(unit).unwrap_or('\u{FFFD}'))
    }

    /// Reads the four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, Diagnostic> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .ok()
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(hex)
    }

    fn number(&mut self) -> Result<JsonValue, Diagnostic> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(v) = text.parse::<i128>() {
                return Ok(JsonValue::Int(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.error(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::Int(42));
        assert_eq!(JsonValue::parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(JsonValue::parse("2.5").unwrap(), JsonValue::Float(2.5));
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(r#""a\nb""#).unwrap(), JsonValue::Str("a\nb".to_owned()));
    }

    #[test]
    fn object_member_order_is_preserved() {
        let v = JsonValue::parse(r#"{ "C": 1, "A": 2, "B": 3 }"#).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["C", "A", "B"]);
        assert_eq!(v.get("A"), Some(&JsonValue::Int(2)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn nested_documents_roundtrip_structure() {
        let v = JsonValue::parse(r#"{"xs": [1, [2, 3], {"y": "z"}], "n": -4}"#).unwrap();
        let xs = v.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2].get("y").unwrap().as_str(), Some("z"));
        assert_eq!(v.get("n").unwrap().as_i64(), Some(-4));
    }

    #[test]
    fn errors_carry_locations() {
        let err = JsonValue::parse("{not json").unwrap_err();
        assert!(err.message.contains("1:2"), "{}", err.message);
        let err = JsonValue::parse("{\"a\": 1,\n  oops}").unwrap_err();
        assert!(err.message.contains("2:3"), "{}", err.message);
        assert!(JsonValue::parse("[1, 2").is_err());
        assert!(JsonValue::parse("1 2").is_err());
    }

    #[test]
    fn accessor_type_mismatches_are_none() {
        let v = JsonValue::parse(r#"{"s": "x", "n": 1}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_i64(), None);
        assert_eq!(v.get("n").unwrap().as_str(), None);
        assert_eq!(JsonValue::Int(-1).as_u64(), None);
        assert_eq!(JsonValue::Int(5).as_u64(), Some(5));
        assert_eq!(v.type_name(), "object");
    }

    #[test]
    fn serialization_round_trips() {
        let text = r#"{"xs": [1, [2, 3], {"y": "z"}], "n": -4, "f": 2.5, "t": true, "e": null}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(JsonValue::parse(&v.to_json_string()).unwrap(), v);
        assert_eq!(JsonValue::parse(&v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn integral_floats_stay_floats() {
        // 2.0 must not serialize as `2` (which would re-parse as Int).
        let v = JsonValue::Float(2.0);
        assert_eq!(v.to_json_string(), "2.0");
        assert_eq!(JsonValue::parse("2.0").unwrap(), v);
        assert_eq!(JsonValue::Float(f64::NAN).to_json_string(), "null");
        // Large integral floats keep the decimal point too.
        let big = JsonValue::Float(1e15);
        assert_eq!(JsonValue::parse(&big.to_json_string()).unwrap(), big);
    }

    #[test]
    fn strings_escape_cleanly() {
        let v = JsonValue::Str("a\"b\\c\nd\u{0001}".to_owned());
        let text = v.to_json_string();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        let v = JsonValue::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, JsonValue::Str("😀".to_owned()));
        // Upper-case hex and surrounding text decode the same way.
        let v = JsonValue::parse(r#""a\uD83D\uDE00b""#).unwrap();
        assert_eq!(v, JsonValue::Str("a😀b".to_owned()));
    }

    #[test]
    fn lone_surrogates_decode_to_the_replacement_character() {
        let cases = [
            (r#""\ud83d""#, "\u{FFFD}"),
            (r#""\ude00""#, "\u{FFFD}"),
            (r#""\ud83dx""#, "\u{FFFD}x"),
            // A high surrogate followed by a non-surrogate escape: both
            // escapes decode on their own.
            (r#""\ud83d\u0041""#, "\u{FFFD}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{FFFD}😀"),
        ];
        for (text, want) in cases {
            assert_eq!(JsonValue::parse(text).unwrap(), JsonValue::Str(want.to_owned()), "{text}");
        }
        assert!(JsonValue::parse(r#""\ud83d\u00""#).is_err(), "a truncated low half is an error");
    }

    #[test]
    fn a_one_mebibyte_string_decodes_in_linear_time() {
        let unit = "ascii é 日本 🚀 \\n \\\" \\u00e9 ";
        let body = unit.repeat((1 << 20) / unit.len() + 1);
        let text = format!("{{\"blob\": \"{body}\", \"n\": 1}}");
        let started = std::time::Instant::now();
        let v = JsonValue::parse(&text).unwrap();
        let took = started.elapsed();
        let blob = v.get("blob").and_then(JsonValue::as_str).unwrap();
        assert!(
            blob.starts_with("ascii é 日本 🚀 \n \" é ascii"),
            "{}",
            blob.chars().take(20).collect::<String>()
        );
        assert_eq!(v.get("n"), Some(&JsonValue::Int(1)));
        assert!(took < std::time::Duration::from_secs(2), "1 MiB string took {took:?}");
    }

    #[test]
    fn pretty_output_indents_members() {
        let v = JsonValue::object([
            ("a", JsonValue::Int(1)),
            ("b", JsonValue::Array(vec![JsonValue::Bool(true)])),
            ("empty", JsonValue::Object(Vec::new())),
        ]);
        let text = v.to_json_pretty();
        assert_eq!(text, "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ],\n  \"empty\": {}\n}");
    }

    #[test]
    fn from_conversions_build_values() {
        assert_eq!(JsonValue::from(3i64), JsonValue::Int(3));
        assert_eq!(JsonValue::from(3u64), JsonValue::Int(3));
        assert_eq!(JsonValue::from(3usize), JsonValue::Int(3));
        assert_eq!(JsonValue::from(true), JsonValue::Bool(true));
        assert_eq!(JsonValue::from("x"), JsonValue::Str("x".to_owned()));
        assert_eq!(JsonValue::from(1.5), JsonValue::Float(1.5));
    }

    #[test]
    fn full_u64_range_survives() {
        // u64::MAX does not fit in i64; it must still parse as an integer.
        let v = JsonValue::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.as_i64(), None, "out of i64 range");
        let v = JsonValue::parse("9223372036854775808").unwrap();
        assert_eq!(v.as_u64(), Some(9_223_372_036_854_775_808));
    }
}
