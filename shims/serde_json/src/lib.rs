//! Registry-free shim for the subset of `serde_json` this workspace uses:
//! `to_string`, `from_str`, `to_writer`, `from_reader`, `Error`, `Value`,
//! and the `json!` macro.
//!
//! Numbers render through Rust's shortest-round-trip float formatting, so
//! every finite `f64` survives `to_string` → `from_str` exactly (the
//! behaviour the real crate's `float_roundtrip` feature guarantees).
//! Non-finite floats serialise as `null` and parse back as `NaN` via the
//! serde shim's `f64` impl.

#![forbid(unsafe_code)]

pub use serde::Value;
use serde::{DeError, Deserialize, Serialize};

/// JSON (de)serialisation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Self::new(e.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Self::new(e.to_string())
    }
}

// ----------------------------------------------------------------- output

/// Serialises a value to a compact JSON string.
///
/// # Errors
/// Never fails for the shim data model; the `Result` mirrors the real
/// crate's signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.to_value().write_json(&mut out);
    Ok(out)
}

/// Serialises a value as JSON into a writer.
///
/// # Errors
/// Propagates I/O failures from the writer.
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<(), Error> {
    let text = to_string(value)?;
    writer.write_all(text.as_bytes())?;
    Ok(())
}

// ------------------------------------------------------------------ input

/// Parses a value from a JSON string.
///
/// # Errors
/// Malformed JSON or a shape mismatching `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value_complete(text)?;
    Ok(T::from_value(&value)?)
}

/// Parses a value from a reader (buffers the full input first).
///
/// # Errors
/// I/O failures, malformed JSON, or a shape mismatching `T`.
pub fn from_reader<R: std::io::Read, T: Deserialize>(mut reader: R) -> Result<T, Error> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    from_str(&text)
}

fn parse_value_complete(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::new(format!("trailing data at byte {pos}")));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(Error::new("unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error::new(format!("expected , or ] at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error::new(format!("expected : at byte {pos}")));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(entries));
                    }
                    _ => return Err(Error::new(format!("expected , or }} at byte {pos}"))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    keyword: &str,
    value: Value,
) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(Error::new(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::new(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error::new("unterminated string")),
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
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::new("truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| Error::new("bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::new("bad \\u escape"))?;
                        // Surrogate pairs are not needed by this workspace's
                        // data (ASCII identifiers and numbers only).
                        out.push(
                            char::from_u32(code).ok_or_else(|| Error::new("bad \\u code point"))?,
                        );
                        *pos += 4;
                    }
                    other => return Err(Error::new(format!("bad escape {other:?}"))),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash.
                // Both are ASCII, so the run ends on a code-point boundary
                // and is validated once.
                let rest = &bytes[*pos..];
                let run = rest
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(rest.len());
                let text =
                    std::str::from_utf8(&rest[..run]).map_err(|_| Error::new("invalid UTF-8"))?;
                out.push_str(text);
                *pos += run;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| Error::new("invalid number"))?;
    if text.is_empty() || text == "-" {
        return Err(Error::new(format!("expected number at byte {start}")));
    }
    if !is_float {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Value::I64(i));
        }
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::U64(u));
        }
    }
    text.parse::<f64>()
        .map(Value::F64)
        .map_err(|_| Error::new(format!("malformed number {text:?}")))
}

// ------------------------------------------------------------------ extras

#[doc(hidden)]
pub use ::serde as __serde;

/// Builds a [`Value`] from JSON-like syntax. Supports `null`, one level
/// of object/array literal, and arbitrary serialisable expressions as
/// values — the forms this workspace uses (no recursive literal nesting).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![
            $( $crate::__serde::Serialize::to_value(&$item) ),*
        ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( ($key.to_string(), $crate::__serde::Serialize::to_value(&$val)) ),*
        ])
    };
    ($other:expr) => {
        $crate::__serde::Serialize::to_value(&$other)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_basic_document() {
        let text = r#"{"a":1,"b":[true,null,2.5],"c":"hi\n","d":{"e":-3}}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(to_string(&v).unwrap(), text);
    }

    #[test]
    fn float_round_trip_exact() {
        for &f in &[0.1, 1.0 / 3.0, 1e-300, 123456.789, f64::MAX, -0.0] {
            let text = to_string(&f).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} via {text}");
        }
    }

    #[test]
    fn nan_becomes_null_and_back() {
        let text = to_string(&f64::NAN).unwrap();
        assert_eq!(text, "null");
        let back: f64 = from_str("null").unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn large_u64_precise() {
        let big: u64 = u64::MAX - 3;
        let text = to_string(&big).unwrap();
        let back: u64 = from_str(&text).unwrap();
        assert_eq!(back, big);
    }

    #[test]
    fn whole_floats_keep_float_syntax() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
    }

    #[test]
    fn json_macro_object() {
        let v = json!({ "unit": 3usize, "db": 1usize, "ok": true });
        assert_eq!(v.to_string(), r#"{"unit":3,"db":1,"ok":true}"#);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<Value>("{\"a\":}").is_err());
        assert!(from_str::<Value>("[1,2").is_err());
        assert!(from_str::<Value>("12x").is_err());
        assert!(from_str::<Value>("").is_err());
    }

    #[test]
    fn multibyte_runs_round_trip() {
        for text in [
            "héllo wörld",
            "日本語のテキスト",
            "mixed ascii ∑ and 🚀 emoji",
            "ü",
        ] {
            let json = to_string(&text.to_string()).unwrap();
            let back: String = from_str(&json).unwrap();
            assert_eq!(back, text);
        }
        let v: Value = from_str("{\"ключ\":\"значение\",\"k\":[\"α\",\"β\"]}").unwrap();
        assert_eq!(v.get("ключ"), Some(&Value::Str("значение".into())));
        assert_eq!(v.get("k").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn escapes_next_to_multibyte_characters() {
        let parsed: String = from_str(r#""é\"ü\\日\n🚀\u00e9\té""#).unwrap();
        assert_eq!(parsed, "é\"ü\\日\n🚀é\té");
        let text = "\"日\"\\ü\\\n🚀\t";
        let back: String = from_str(&to_string(&text.to_string()).unwrap()).unwrap();
        assert_eq!(back, text);
    }

    #[test]
    fn long_multibyte_string_round_trips() {
        let text = "ab\u{e9}".repeat(20_000);
        let json = to_string(&text).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, text);
        assert!(
            from_str::<String>(&json[..json.len() - 1]).is_err(),
            "unterminated"
        );
    }

    #[test]
    fn writer_reader_round_trip() {
        let data = vec![(1u64, 2.5f64), (3, 4.5)];
        let mut buf = Vec::new();
        to_writer(&mut buf, &data).unwrap();
        let back: Vec<(u64, f64)> = from_reader(buf.as_slice()).unwrap();
        assert_eq!(back, data);
    }
}
