//! A dependency-free JSON tree, writer and parser.
//!
//! The bench harness emits machine-read reports (`BENCH_perf.json`) and
//! CI parses them back. Hand-rolled `format!` JSON proved fragile — a
//! positional-argument slip shipped a report with an unquoted string and
//! a boolean in a numeric field — so emission now goes through this
//! module: a [`Json`] tree is assembled field by field (no positional
//! coupling), rendered by a writer that owns quoting and escaping, and
//! checked in tests by the matching parser.
//!
//! The dialect is deliberately small but standard: objects preserve
//! insertion order, numbers are `f64` (exact for integers up to 2^53 —
//! far beyond any counter a bench run emits), and non-finite numbers
//! render as `null` (JSON has no `NaN`/`Infinity`).

use std::fmt::Write as _;

/// A JSON value: the unit of assembly, rendering and parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (integers are exact up to 2^53).
    Num(f64),
    /// A string (unescaped; the writer escapes on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, ready for [`Json::set`] calls.
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Sets `key` in an object (replacing an existing entry in place).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object — field assembly is build-time
    /// code; a wrong shape is a bug, not an input condition.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Self {
        let Json::Obj(fields) = self else {
            panic!("Json::set on a non-object");
        };
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => fields.push((key.to_string(), value)),
        }
        self
    }

    /// Looks up `key` in an object (`None` for other shapes).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an integer, if this is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders the tree as pretty-printed JSON (2-space indent, trailing
    /// newline) — the shape CI diffs and humans review.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // `{}` on f64 always yields a valid JSON number
                    // (no exponent for the magnitudes emitted here, and
                    // integral values print without a fraction).
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
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
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Self {
        Json::Num(f64::from(n))
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why a parse failed: a one-line description plus the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: &'static str,
    /// Byte offset into the input where the problem was detected.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (one value plus trailing whitespace).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after the document"));
    }
    Ok(v)
}

/// Recursion ceiling: reports beat this by orders of magnitude; a
/// pathological input fails cleanly instead of overflowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    /// The document; `bytes` is the same text as bytes.
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { msg, at: self.pos }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &'static [u8], v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after an object key")?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in an object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
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
                _ => return Err(self.err("expected ',' or ']' in an array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte
            // as one slice. Those bytes are ASCII, which never occurs
            // inside a multi-byte UTF-8 sequence, so both ends of the run
            // are char boundaries of the `&str` input.
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            s.push_str(&self.src[start..self.pos]);
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by the
                            // writer; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits are UTF-8");
        let n: f64 = text.parse().map_err(|_| JsonError {
            msg: "invalid number",
            at: start,
        })?;
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_then_parse_round_trips() {
        let mut doc = Json::obj();
        doc.set("preset", Json::from("hetero-phy-full"))
            .set("nodes", Json::from(256u64))
            .set("rate", Json::from(0.1))
            .set("ok", Json::from(true))
            .set("nothing", Json::Null)
            .set("scaling", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)]));
        let text = doc.render();
        let back = parse(&text).expect("own output parses");
        assert_eq!(back, doc);
        assert_eq!(
            back.get("preset").and_then(Json::as_str),
            Some("hetero-phy-full")
        );
        assert_eq!(back.get("nodes").and_then(Json::as_u64), Some(256));
        assert_eq!(back.get("rate").and_then(Json::as_f64), Some(0.1));
        assert_eq!(back.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            back.get("scaling")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn strings_are_escaped_and_unescaped() {
        let mut doc = Json::obj();
        doc.set("s", Json::from("a \"quoted\"\\\npath\ttab\u{1}"));
        let text = doc.render();
        assert!(text.contains(r#"\"quoted\""#));
        assert!(text.contains(r"\n"));
        assert!(text.contains(r"\u0001"));
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 1 MiB of mixed one-, two-, three- and four-byte characters with
        // an escape every so often; quadratic scanning took minutes here.
        let unit = "ab\u{e9}\u{4e2d}\u{1f600}xyz";
        let mut value = String::new();
        while value.len() < 1 << 20 {
            value.push_str(unit);
            if value.len() % 1000 < unit.len() {
                value.push('"');
            }
        }
        let mut doc = Json::obj();
        doc.set("preset", Json::from(value.as_str()));
        let text = doc.render();
        let t = std::time::Instant::now();
        let back = parse(&text).unwrap();
        assert_eq!(
            back.get("preset").and_then(Json::as_str),
            Some(value.as_str())
        );
        assert!(
            t.elapsed() < std::time::Duration::from_secs(5),
            "parsing 1 MiB took {:?}",
            t.elapsed()
        );
    }

    #[test]
    fn set_replaces_in_place() {
        let mut doc = Json::obj();
        doc.set("a", Json::from(1u64))
            .set("b", Json::from(2u64))
            .set("a", Json::from(3u64));
        let Json::Obj(fields) = &doc else {
            unreachable!()
        };
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].0, "a");
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        let mut doc = Json::obj();
        doc.set("inf", Json::Num(f64::INFINITY))
            .set("nan", Json::Num(f64::NAN));
        let back = parse(&doc.render()).unwrap();
        assert_eq!(back.get("inf"), Some(&Json::Null));
        assert_eq!(back.get("nan"), Some(&Json::Null));
    }

    #[test]
    fn malformed_documents_are_rejected_with_position() {
        for bad in [
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\": nodes}",
            "tru",
            "\"unterminated",
            "{\"a\":1} extra",
            "",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        // The exact bug this module replaces: an unquoted string value.
        let rotated = "{\n  \"nodes\": hetero-phy-full\n}";
        let e = parse(rotated).unwrap_err();
        assert!(e.at > 0);
    }

    #[test]
    fn integers_render_without_fraction() {
        let mut doc = Json::obj();
        doc.set("flits", Json::from(123_456u64))
            .set("secs", Json::from(0.25));
        let text = doc.render();
        assert!(text.contains("\"flits\": 123456"));
        assert!(text.contains("\"secs\": 0.25"));
    }
}
