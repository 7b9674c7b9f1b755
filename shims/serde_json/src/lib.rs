//! Offline shim for the subset of `serde_json` used by this workspace:
//! `to_string_pretty`, `from_str`, and the `Error` type, implemented over
//! the `serde` shim's owned value model.

#![forbid(unsafe_code)]

use serde::value::{from_value, to_value, Value};
use serde::{DeserializeOwned, Serialize};
use std::fmt;

/// Error produced by JSON parsing or value conversion.
#[derive(Debug)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error { message: message.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` to a JSON string indented by two spaces per level.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &to_value(value), 0);
    Ok(out)
}

/// Deserializes a value from a JSON string.
pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T> {
    let mut parser = Parser { bytes: s.as_bytes(), pos: 0 };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!("trailing characters at offset {}", parser.pos)));
    }
    from_value(value).map_err(|e| Error::new(e.to_string()))
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Spaces of indentation per nesting level.
const INDENT: usize = 2;

fn write_value(out: &mut String, value: &Value, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(v) => {
            if v.is_finite() {
                // `{}` on f64 prints the shortest representation that
                // round-trips; integral values get a ".0" suffix so the
                // number re-parses as a float.
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    out.push_str(&format!("{v:.1}"));
                } else {
                    out.push_str(&v.to_string());
                }
            } else {
                // Matches serde_json: non-finite floats serialize as null.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_newline_indent(out, depth + 1);
                write_value(out, item, depth + 1);
            }
            write_newline_indent(out, depth);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_newline_indent(out, depth + 1);
                write_string(out, key);
                out.push_str(": ");
                write_value(out, item, depth + 1);
            }
            write_newline_indent(out, depth);
            out.push('}');
        }
    }
}

fn write_newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..INDENT * depth {
        out.push(' ');
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at offset {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn consume_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') => {
                if self.consume_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::new(format!("invalid token at offset {}", self.pos)))
                }
            }
            Some(b't') => {
                if self.consume_keyword("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::new(format!("invalid token at offset {}", self.pos)))
                }
            }
            Some(b'f') => {
                if self.consume_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::new(format!("invalid token at offset {}", self.pos)))
                }
            }
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => {
                Err(Error::new(format!("unexpected `{}` at offset {}", other as char, self.pos)))
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at offset {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at offset {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error::new(format!("invalid UTF-8 in string: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unexpected end of input in escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by this shim's
                            // writer; reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| Error::new("invalid \\u code point"))?;
                            s.push(c);
                        }
                        other => {
                            return Err(Error::new(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if is_float {
            text.parse::<f64>().map(Value::F64).map_err(|e| Error::new(format!("bad number: {e}")))
        } else if let Some(stripped) = text.strip_prefix('-') {
            stripped.parse::<u64>().map_err(|e| Error::new(format!("bad number: {e}"))).and_then(
                |n| {
                    i64::try_from(n)
                        .map(|n| Value::I64(-n))
                        .map_err(|_| Error::new("integer out of range"))
                },
            )
        } else {
            text.parse::<u64>().map(Value::U64).map_err(|e| Error::new(format!("bad number: {e}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{from_str, to_string_pretty};
    use std::collections::BTreeMap;

    #[test]
    fn roundtrip_scalars_and_collections() {
        let v = vec![1.5f64, 2.0, -3.0];
        let json = to_string_pretty(&v).unwrap();
        assert_eq!(json, "[\n  1.5,\n  2.0,\n  -3.0\n]");
        let back: Vec<f64> = from_str(&json).unwrap();
        assert_eq!(back, v);

        let mut m = BTreeMap::new();
        m.insert("pi".to_string(), 3.25f64);
        m.insert("whole".to_string(), 2.0f64);
        let json = to_string_pretty(&m).unwrap();
        assert_eq!(json, "{\n  \"pi\": 3.25,\n  \"whole\": 2.0\n}");
        let back: BTreeMap<String, f64> = from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line1\nline2\t\"quoted\" \\ slash \u{0001}".to_string();
        let json = to_string_pretty(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn pretty_output_is_indented_and_parses() {
        let v: Vec<Vec<String>> = vec![vec!["a".into()], vec!["b".into(), "c".into()]];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Vec<Vec<String>> = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn negative_and_float_numbers() {
        let back: f64 = from_str("-17").unwrap();
        assert_eq!(back, -17.0);
        let back: f64 = from_str("2.5e3").unwrap();
        assert_eq!(back, 2500.0);
        assert!(from_str::<u64>("-17").is_err());
        let back: u64 = from_str("18446744073709551615").unwrap();
        assert_eq!(back, u64::MAX);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(from_str::<u64>("not json").is_err());
        assert!(from_str::<u64>("12 trailing").is_err());
        assert!(from_str::<Vec<u64>>("[1,").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
    }
}
