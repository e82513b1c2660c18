//! A dependency-free JSON subset for the line protocol.
//!
//! The front end speaks newline-delimited JSON. The workspace is built
//! offline against vendored shims, so rather than lean on a serde stack
//! this module implements exactly the JSON the protocol needs: objects,
//! arrays, strings (with `\uXXXX` escapes), numbers, booleans and null.
//! Requests are parsed into a [`JsonValue`] tree; responses are emitted
//! with [`escape`] + `format!` in [`crate::frontend`]. The parser is
//! shared with tests and example clients, so both sides of the wire
//! agree on the dialect.

use std::fmt;

/// Deepest container nesting a document may have. Requests nest two
/// deep (an object holding the `prompt` array); the cap bounds the
/// recursive parser's stack, so a hostile line is a parse error rather
/// than a stack overflow that aborts the whole server.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document from `text` (trailing whitespace ok).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u32` token array, if every element is one.
    pub fn as_tokens(&self) -> Option<Vec<u32>> {
        match self {
            JsonValue::Arr(items) => items
                .iter()
                .map(|v| {
                    v.as_u64()
                        .filter(|&n| n <= u64::from(u32::MAX))
                        .map(|n| n as u32)
                })
                .collect(),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which sits inside `depth` containers.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&byte) => {
                // Consume one UTF-8 scalar (the input is a &str, so
                // boundaries are valid by construction).
                let width = match byte {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let slice =
                    std::str::from_utf8(&bytes[*pos..*pos + width]).map_err(|e| e.to_string())?;
                out.push_str(slice);
                *pos += width;
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // [
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            other => return Err(format!("expected `,` or `]`, got {other:?}")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // {
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            other => return Err(format!("expected `,` or `}}`, got {other:?}")),
        }
    }
}

/// A string escaped for embedding in a JSON document (no surrounding
/// quotes).
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f32` so it round-trips bit-exactly through the wire
/// (Rust's shortest-roundtrip float formatting).
pub struct WireF32(pub f32);

impl fmt::Display for WireF32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            // JSON has no Inf/NaN; the protocol maps them to null.
            write!(f, "null")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_generate_request() {
        let v = JsonValue::parse(
            r#"{"op":"generate","session":9,"prompt":[1, 2, 44],"max_new_tokens":8,"tenant":3,"logits":true}"#,
        )
        .unwrap();
        assert_eq!(v.get("op").and_then(JsonValue::as_str), Some("generate"));
        assert_eq!(v.get("session").and_then(JsonValue::as_u64), Some(9));
        assert_eq!(
            v.get("prompt").and_then(JsonValue::as_tokens),
            Some(vec![1, 2, 44])
        );
        assert_eq!(v.get("max_new_tokens").and_then(JsonValue::as_u64), Some(8));
        assert_eq!(v.get("logits").and_then(JsonValue::as_bool), Some(true));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_nested_and_escaped() {
        let v = JsonValue::parse(r#"{"a":[{"b":"x\nyA"},null,false,-1.5e2]}"#).unwrap();
        let arr = match v.get("a").unwrap() {
            JsonValue::Arr(items) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr[0].get("b").and_then(JsonValue::as_str), Some("x\nyA"));
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(arr[2], JsonValue::Bool(false));
        assert_eq!(arr[3].as_f64(), Some(-150.0));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse(r#"{"a":}"#).is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("[1] trailing").is_err());
        assert!(JsonValue::parse("").is_err());
    }

    #[test]
    fn rejects_nesting_past_the_cap_without_recursing() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(JsonValue::parse(&nested(MAX_DEPTH + 1)).is_err());
        // Deep enough to overflow a default thread stack if the parser
        // recursed once per bracket; run on such a thread, as the front
        // end's per-connection handlers are.
        let hostile = "[".repeat(200_000);
        let parsed = std::thread::spawn(move || JsonValue::parse(&hostile).is_err())
            .join()
            .expect("parser thread survives");
        assert!(parsed, "depth 200,000 is a parse error");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "line\nquote\" slash\\ tab\t ctrl\u{0001} unicode\u{00e9}";
        let doc = format!("{{\"s\":\"{}\"}}", escape(nasty));
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some(nasty));
    }

    #[test]
    fn wire_f32_round_trips_bits() {
        for bits in [0x3f80_0001u32, 0x0000_0001, 0x7f7f_ffff, 0xbf00_0000] {
            let x = f32::from_bits(bits);
            let text = format!("{}", WireF32(x));
            let back: f32 = text.parse().unwrap();
            assert_eq!(back.to_bits(), bits, "{text} must round-trip");
        }
    }
}
