//! The exporter: a JSON-lines trace file of spans, events and counter totals.

use crate::metrics::Counter;
use crate::spans;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

static TRACE_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Sets the path [`write_trace_if_configured`] will write to.
pub fn set_trace_path(path: PathBuf) {
    *TRACE_PATH.lock().unwrap_or_else(|e| e.into_inner()) = Some(path);
}

/// The configured trace path, if any (`SNR_TRACE` or [`set_trace_path`]).
fn trace_path() -> Option<PathBuf> {
    TRACE_PATH.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
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
}

fn push_str_field(line: &mut String, key: &str, value: &str) {
    let _ = write!(line, ",\"{key}\":\"");
    escape_json(value, line);
    line.push('"');
}

/// Renders the full trace — meta line, every finished span, every event, and
/// the final counter totals — as JSON lines (one flat object per line).
fn render_jsonl() -> String {
    let mut out = String::new();
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"version\":1,\"pid\":{},\"created_unix\":{unix}}}",
        std::process::id()
    );
    for span in spans::finished() {
        let mut line = format!(
            "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"thread\":{},\"start_us\":{},\"dur_us\":{}",
            span.id, span.parent, span.thread, span.start_us, span.dur_us
        );
        push_str_field(&mut line, "name", &span.name);
        push_str_field(&mut line, "fields", &span.fields);
        line.push('}');
        let _ = writeln!(out, "{line}");
    }
    for event in spans::all_events() {
        let mut line =
            format!("{{\"type\":\"event\",\"thread\":{},\"at_us\":{}", event.thread, event.at_us);
        push_str_field(&mut line, "name", &event.name);
        push_str_field(&mut line, "fields", &event.fields);
        line.push('}');
        let _ = writeln!(out, "{line}");
    }
    for &counter in Counter::ALL {
        let value = counter.get();
        if value > 0 {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
                counter.name()
            );
        }
    }
    out
}

/// Writes the JSONL trace to `path`.
pub fn write_trace(path: &Path) -> io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(render_jsonl().as_bytes())?;
    file.flush()
}

/// Writes the JSONL trace to the configured path, if one was set. Returns
/// the path written, or `None` when no trace was requested.
pub fn write_trace_if_configured() -> io::Result<Option<PathBuf>> {
    match trace_path() {
        Some(path) => write_trace(&path).map(|()| Some(path)),
        None => Ok(None),
    }
}
