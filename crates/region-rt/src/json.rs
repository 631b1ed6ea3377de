//! A minimal JSON document model, serializer, and parser.
//!
//! The build environment is offline and the workspace carries no external
//! crates, so the telemetry JSONL export and the bench-harness artifact
//! dumps share this hand-rolled implementation instead of `serde_json`.
//! The parser reads artifacts back (heap snapshots for `rc-inspect` and
//! restore, reports in round-trip tests); it is a plain recursive-descent
//! RFC 8259 reader with byte offsets in its errors.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the common case for counters).
    U(u64),
    /// A signed integer.
    I(i64),
    /// A float; non-finite values serialize as `null` per RFC 8259.
    F(f64),
    /// A string.
    S(String),
    /// An array.
    A(Vec<Json>),
    /// An object with insertion-ordered keys.
    O(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::O(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience constructor for a string value.
    pub fn s(v: impl Into<String>) -> Json {
        Json::S(v.into())
    }

    /// Serializes to a compact single-line string (JSONL-friendly).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Parses a JSON document (one value with only whitespace around it).
    ///
    /// Numbers parse as [`Json::U`] when they are non-negative integers
    /// that fit `u64`, as [`Json::I`] for other in-range integers, and as
    /// [`Json::F`] otherwise — mirroring how the serializer writes them.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] with the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::O(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U(n) => Some(*n),
            Json::I(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U(n) => Some(*n as f64),
            Json::I(n) => Some(*n as f64),
            Json::F(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::S(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::A(items) => Some(items),
            _ => None,
        }
    }

    /// The value as ordered key/value pairs, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::O(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U(n) => push_u64(out, *n),
            Json::I(n) => {
                if *n < 0 {
                    out.push('-');
                }
                push_u64(out, n.unsigned_abs());
            }
            Json::F(f) => write_f64(out, *f),
            Json::S(s) => write_str(out, s),
            Json::A(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::O(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::A(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::O(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        // Integral floats keep a trailing `.0` so the value round-trips as
        // a float in typed consumers.
        if f == f.trunc() && f.abs() < 1e15 {
            let _ = write!(out, "{f:.1}");
        } else {
            let _ = write!(out, "{f}");
        }
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a JSON string, quoted and escaped. Each run of bytes
/// that needs no escape is copied at once; every byte that does is ASCII,
/// so the runs split `s` at character boundaries.
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `n` in decimal, as [`Json::U`] renders it.
pub(crate) fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).unwrap_or_default());
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonParseError {
        JsonParseError { offset: self.pos, msg: msg.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::S),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::A(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::A(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::O(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::O(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonParseError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // A surrogate pair: expect the low half immediately.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF)
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))?
            }
            _ => return Err(self.err("unknown escape character")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char).to_digit(16).ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::U(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::I(i));
            }
        }
        text.parse::<f64>()
            .map(Json::F)
            .map_err(|_| JsonParseError { offset: start, msg: format!("bad number {text:?}") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U(42).render(), "42");
        assert_eq!(Json::I(-7).render(), "-7");
        assert_eq!(Json::U(0).render(), "0");
        assert_eq!(Json::U(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::I(0).render(), "0");
        assert_eq!(Json::I(i64::MIN).render(), "-9223372036854775808");
        assert_eq!(Json::I(i64::MAX).render(), "9223372036854775807");
        assert_eq!(Json::F(1.5).render(), "1.5");
        assert_eq!(Json::F(3.0).render(), "3.0");
        assert_eq!(Json::F(f64::NAN).render(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(Json::s("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::s("\u{1}").render(), "\"\\u0001\"");
        // Escapes between multi-byte characters, at both ends, and none.
        assert_eq!(Json::s("é\t→\r\u{1f}x\u{7f}").render(), "\"é\\t→\\r\\u001fx\u{7f}\"");
        assert_eq!(Json::s("\"ü\"").render(), r#""\"ü\"""#);
        assert_eq!(Json::s("").render(), r#""""#);
        assert_eq!(Json::s("plain run").render(), r#""plain run""#);
    }

    #[test]
    fn containers_render() {
        let v =
            Json::obj(vec![("xs", Json::A(vec![Json::U(1), Json::U(2)])), ("name", Json::s("t"))]);
        assert_eq!(v.render(), r#"{"xs":[1,2],"name":"t"}"#);
    }

    #[test]
    fn pretty_is_valid_and_indented() {
        let v = Json::obj(vec![("a", Json::A(vec![Json::U(1)]))]);
        let p = v.render_pretty();
        assert!(p.contains("\n  \"a\": [\n"));
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("42").unwrap(), Json::U(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::I(-7));
        assert_eq!(Json::parse("1.5").unwrap(), Json::F(1.5));
        assert_eq!(Json::parse("2e3").unwrap(), Json::F(2000.0));
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::U(u64::MAX));
    }

    #[test]
    fn parse_strings_with_escapes() {
        assert_eq!(Json::parse(r#""a\"b\\c\nd""#).unwrap(), Json::s("a\"b\\c\nd"));
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::s("Aé"));
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::s("😀"));
    }

    #[test]
    fn parse_containers_and_accessors() {
        let v = Json::parse(r#"{"xs":[1,2],"name":"t","f":2.5,"ok":true}"#).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("t"));
        assert_eq!(v.get("xs").and_then(Json::as_array).map(<[Json]>::len), Some(2));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(2.5));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let e = Json::parse("[1,]").unwrap_err();
        assert_eq!(e.offset, 3);
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn round_trips_survive_parse() {
        let original = Json::obj(vec![
            ("schema", Json::s("rc-bench-trajectory/v1")),
            ("neg", Json::I(-3)),
            ("pi", Json::F(3.5)),
            ("none", Json::Null),
            ("runs", Json::A(vec![Json::obj(vec![("cycles", Json::U(12345))])])),
        ]);
        for text in [original.render(), original.render_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), original);
        }
    }
}
