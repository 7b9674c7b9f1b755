//! Trace-schema validation: a tiny parser for the flat one-level JSON
//! objects the JSONL exporter emits, plus the line-by-line schema checker
//! used by the `smoke telemetry` and `smoke spill` scenarios in CI.

use std::collections::BTreeMap;

/// A parsed JSON scalar (the trace format never nests).
#[derive(Clone, Debug, PartialEq)]
enum Scalar {
    String(String),
    Number(u64),
}

/// A span line from a validated trace.
#[derive(Clone, Debug)]
pub struct SpanLine {
    /// Span name.
    pub name: String,
    /// Rendered `key=value` fields.
    pub fields: String,
    /// Thread id (0 = absorbed from a remote worker).
    pub thread: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// An event line from a validated trace.
#[derive(Clone, Debug)]
pub struct EventLine {
    /// Event name.
    pub name: String,
    /// Rendered `key=value` fields.
    pub fields: String,
}

/// What a validated trace contained, for smoke-test assertions.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Every span line.
    pub spans: Vec<SpanLine>,
    /// Every event line.
    pub events: Vec<EventLine>,
    /// Every counter line as `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Number of meta lines (exactly one for a single-process trace).
    pub meta_lines: usize,
}

/// Parses one flat JSON object (string and non-negative integer values
/// only — the trace schema by construction).
fn parse_flat_object(line: &str) -> Result<BTreeMap<String, Scalar>, String> {
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    let err = |pos: usize, what: &str| format!("byte {pos}: {what}");
    let skip_ws = |pos: &mut usize| {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    };
    let parse_string = |pos: &mut usize| -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected '\"'"));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err(err(*pos, "unterminated string")),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = line
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| err(*pos, "bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| err(*pos, "invalid codepoint"))?,
                            );
                            *pos += 4;
                        }
                        _ => return Err(err(*pos, "unknown escape")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole char.
                    let ch = line[*pos..].chars().next().unwrap();
                    out.push(ch);
                    *pos += ch.len_utf8();
                }
            }
        }
    };
    let parse_number = |pos: &mut usize| -> Result<u64, String> {
        let start = *pos;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == start {
            return Err(err(start, "expected a number"));
        }
        line[start..*pos].parse().map_err(|_| err(start, "number out of range"))
    };

    skip_ws(&mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return Err(err(pos, "expected '{'"));
    }
    pos += 1;
    let mut map = BTreeMap::new();
    skip_ws(&mut pos);
    if bytes.get(pos) == Some(&b'}') {
        pos += 1;
    } else {
        loop {
            skip_ws(&mut pos);
            let key = parse_string(&mut pos)?;
            skip_ws(&mut pos);
            if bytes.get(pos) != Some(&b':') {
                return Err(err(pos, "expected ':'"));
            }
            pos += 1;
            skip_ws(&mut pos);
            let value = match bytes.get(pos) {
                Some(b'"') => Scalar::String(parse_string(&mut pos)?),
                Some(c) if c.is_ascii_digit() => Scalar::Number(parse_number(&mut pos)?),
                _ => return Err(err(pos, "expected a string or non-negative integer")),
            };
            if map.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key {key:?}"));
            }
            skip_ws(&mut pos);
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {
                    pos += 1;
                    break;
                }
                _ => return Err(err(pos, "expected ',' or '}'")),
            }
        }
    }
    skip_ws(&mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing data after object"));
    }
    Ok(map)
}

fn get_str(map: &BTreeMap<String, Scalar>, key: &str) -> Result<String, String> {
    match map.get(key) {
        Some(Scalar::String(s)) => Ok(s.clone()),
        Some(_) => Err(format!("field {key:?} must be a string")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn get_num(map: &BTreeMap<String, Scalar>, key: &str) -> Result<u64, String> {
    match map.get(key) {
        Some(Scalar::Number(n)) => Ok(*n),
        Some(_) => Err(format!("field {key:?} must be a number")),
        None => Err(format!("missing field {key:?}")),
    }
}

/// Validates a JSONL trace against the schema the exporter emits. Every
/// non-empty line must be a flat JSON object whose `type` is one of `meta`,
/// `span`, `event`, or `counter`, with the required typed fields present.
/// Returns a [`TraceSummary`] on success, or `Err("line N: ...")`.
pub fn validate_jsonl(text: &str) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parse = |e: String| format!("line {}: {e}", lineno + 1);
        let map = parse_flat_object(line).map_err(parse)?;
        let kind = get_str(&map, "type").map_err(parse)?;
        match kind.as_str() {
            "meta" => {
                get_num(&map, "version").map_err(parse)?;
                get_num(&map, "pid").map_err(parse)?;
                summary.meta_lines += 1;
            }
            "span" => {
                get_num(&map, "id").map_err(parse)?;
                get_num(&map, "parent").map_err(parse)?;
                get_num(&map, "start_us").map_err(parse)?;
                summary.spans.push(SpanLine {
                    name: get_str(&map, "name").map_err(parse)?,
                    fields: get_str(&map, "fields").map_err(parse)?,
                    thread: get_num(&map, "thread").map_err(parse)?,
                    dur_us: get_num(&map, "dur_us").map_err(parse)?,
                });
            }
            "event" => {
                get_num(&map, "at_us").map_err(parse)?;
                get_num(&map, "thread").map_err(parse)?;
                summary.events.push(EventLine {
                    name: get_str(&map, "name").map_err(parse)?,
                    fields: get_str(&map, "fields").map_err(parse)?,
                });
            }
            "counter" => {
                summary.counters.push((
                    get_str(&map, "name").map_err(parse)?,
                    get_num(&map, "value").map_err(parse)?,
                ));
            }
            other => return Err(parse(format!("unknown record type {other:?}"))),
        }
    }
    if summary.meta_lines == 0 && !text.trim().is_empty() {
        return Err("trace has no meta line".to_string());
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_scalars() {
        let map = parse_flat_object(r#"{"a":"x","b":12,"c":""}"#).unwrap();
        assert_eq!(map.get("a"), Some(&Scalar::String("x".into())));
        assert_eq!(map.get("b"), Some(&Scalar::Number(12)));
        assert_eq!(map.get("c"), Some(&Scalar::String(String::new())));
    }

    #[test]
    fn rejects_nesting_and_junk() {
        assert!(parse_flat_object(r#"{"a":{"b":1}}"#).is_err());
        assert!(parse_flat_object(r#"{"a":[1]}"#).is_err());
        assert!(parse_flat_object(r#"{"a":1} extra"#).is_err());
        assert!(parse_flat_object(r#"{"a":1,"a":2}"#).is_err());
        assert!(parse_flat_object(r#"{"a":-1}"#).is_err());
    }

    #[test]
    fn unescapes_strings() {
        let map = parse_flat_object(r#"{"s":"a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(map.get("s"), Some(&Scalar::String("a\"b\\c\ndA".into())));
    }

    #[test]
    fn validate_requires_a_meta_line() {
        let err = validate_jsonl(r#"{"type":"counter","name":"x","value":1}"#);
        assert!(err.is_err());
        let ok = validate_jsonl(concat!(
            r#"{"type":"meta","version":1,"pid":7,"created_unix":0}"#,
            "\n",
            r#"{"type":"counter","name":"x","value":1}"#,
        ));
        let summary = ok.unwrap();
        assert_eq!(summary.meta_lines, 1);
        assert_eq!(summary.counters, vec![("x".to_string(), 1)]);
    }
}
