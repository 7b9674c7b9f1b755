//! Runtime observability for the reconciliation workspace.
//!
//! The crate provides three things, all behind a single global on/off switch
//! so that instrumented hot loops cost (almost) nothing when telemetry is
//! disabled, plus a [`warn!`] line that prints whatever the switch says:
//!
//! 1. **Spans** — hierarchical RAII timing guards ([`span!`]) with
//!    thread-safe parent/child nesting and monotonic timestamps. A span's
//!    duration is the one record of how long a step took.
//! 2. **Counters** — typed, saturating [`Counter`] totals that are
//!    registered once and cheap to bump.
//! 3. **The trace** — a JSON-lines file ([`write_trace`]) holding every
//!    span, every point [`event!`] and the non-zero counter totals, which
//!    [`validate_jsonl`] parses back.
//!
//! Remote processes (the shard-driver workers) collect telemetry locally and
//! ship deltas home with [`drain_delta`]; the coordinator folds them into its
//! own registry with [`absorb_delta`] without affecting scheduling.
//!
//! Environment variables, honored by [`init_from_env`]:
//!
//! | variable        | effect                                             |
//! |-----------------|----------------------------------------------------|
//! | `SNR_TRACE`     | enable telemetry and write a JSONL trace here      |
//! | `SNR_TELEMETRY` | `1` enables collection without a trace file        |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod metrics;
mod schema;
mod spans;

pub use export::{set_trace_path, write_trace, write_trace_if_configured};
pub use metrics::Counter;
pub use schema::{validate_jsonl, TraceSummary};
pub use spans::{record_event, SpanGuard};
use spans::{record_remote_event, record_remote_span};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns telemetry collection on. Spans, counters, and events recorded while
/// enabled are kept until [`reset`].
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns telemetry collection off. Already-recorded data is kept.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether telemetry collection is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears every recorded span, event, and counter.
/// Intended for tests and for long-lived processes that export periodically.
pub fn reset() {
    spans::reset();
    metrics::reset();
}

/// Reads `SNR_TRACE` and `SNR_TELEMETRY` and configures the global state
/// accordingly. Safe to call more than once.
pub fn init_from_env() {
    if let Ok(path) = std::env::var("SNR_TRACE") {
        if !path.is_empty() {
            set_trace_path(std::path::PathBuf::from(path));
            enable();
        }
    }
    if std::env::var("SNR_TELEMETRY").is_ok_and(|v| v == "1") {
        enable();
    }
}

/// Writes `snr[warn] <message>` to stderr, telemetry on or off: the line
/// for degraded-but-continuing conditions (worker deaths, checkpoint
/// failures, ignored configuration). `snr_telemetry::warn!("worker {w} died")`.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => { ::std::eprintln!("snr[warn] {}", ::std::format_args!($($arg)*)) };
}

/// A telemetry delta: everything recorded since the previous drain, in a
/// plain-data form a worker can ship over the wire.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsDelta {
    /// Finished spans as `(name, fields, start_us, dur_us)`.
    pub spans: Vec<(String, String, u64, u64)>,
    /// Counter increments since the last drain as `(name, delta)`.
    pub counters: Vec<(String, u64)>,
    /// Point events as `(name, fields, at_us)`.
    pub events: Vec<(String, String, u64)>,
}

impl StatsDelta {
    /// Whether the delta carries no data at all.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.events.is_empty()
    }
}

/// Drains everything recorded since the previous drain. Drained data stays in
/// the local registry (exports still see it); only the drain cursor advances.
pub fn drain_delta() -> StatsDelta {
    StatsDelta {
        spans: spans::drain_spans(),
        counters: metrics::drain_counters(),
        events: spans::drain_events(),
    }
}

/// Folds a delta shipped from a remote process into the local registry,
/// tagging each span and event with `extra` (e.g. `"worker=1 gen=0"`).
/// Observe-only: nothing about scheduling or matching reads this data back.
pub fn absorb_delta(delta: &StatsDelta, extra: &str) {
    if !enabled() {
        return;
    }
    for (name, fields, start_us, dur_us) in &delta.spans {
        record_remote_span(name, fields, extra, *start_us, *dur_us);
    }
    for (name, value) in &delta.counters {
        if let Some(c) = Counter::from_name(name) {
            c.add(*value);
        }
    }
    for (name, fields, at_us) in &delta.events {
        record_remote_event(name, fields, extra, *at_us);
    }
}

/// Starts a timed span; the returned guard records the span when dropped.
///
/// `span!("name")` or `span!("name", key = value, ...)`. Field expressions
/// are only evaluated while telemetry is enabled, so they must be free of
/// side effects.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::SpanGuard::enter_with($name, || {
            let mut s = String::new();
            $(
                if !s.is_empty() {
                    s.push(' ');
                }
                s.push_str(concat!(stringify!($k), "="));
                s.push_str(&format!("{}", $v));
            )+
            s
        })
    };
}

/// Records a point-in-time event. Same shape as [`span!`]; field expressions
/// are only evaluated while telemetry is enabled.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::record_event($name, || String::new())
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::record_event($name, || {
            let mut s = String::new();
            $(
                if !s.is_empty() {
                    s.push(' ');
                }
                s.push_str(concat!(stringify!($k), "="));
                s.push_str(&format!("{}", $v));
            )+
            s
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    // Telemetry state is process-global; tests that flip it run serialized.
    static LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        disable();
        guard
    }

    #[test]
    fn spans_nest_within_a_thread() {
        let _l = serial();
        enable();
        {
            let _outer = span!("outer");
            {
                let _inner = span!("inner", depth = 2);
            }
        }
        let d = drain_delta();
        assert_eq!(d.spans.len(), 2);
        // Inner finishes first.
        assert_eq!(d.spans[0].0, "inner");
        assert_eq!(d.spans[0].1, "depth=2");
        assert_eq!(d.spans[1].0, "outer");
        let records = spans::finished();
        let outer = records.iter().find(|r| r.name == "outer").unwrap();
        let inner = records.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id, "inner must nest under outer");
        assert_eq!(outer.parent, 0, "outer is a root span");
    }

    #[test]
    fn spans_on_different_threads_do_not_share_parents() {
        let _l = serial();
        enable();
        let _root = span!("root");
        let handle = std::thread::spawn(|| {
            let _other = span!("other-thread");
        });
        handle.join().unwrap();
        let records = spans::finished();
        let other = records.iter().find(|r| r.name == "other-thread").unwrap();
        assert_eq!(other.parent, 0, "a fresh thread starts at the root");
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _l = serial();
        {
            let _g = span!("ghost", x = 1);
            event!("ghost-event");
            Counter::ScoredPairs.add(10);
        }
        assert!(drain_delta().is_empty());
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let _l = serial();
        enable();
        Counter::ScoredPairs.add(u64::MAX);
        Counter::ScoredPairs.add(u64::MAX);
        Counter::ScoredPairs.add(1);
        assert_eq!(Counter::ScoredPairs.get(), u64::MAX);
    }

    #[test]
    fn drain_reports_deltas_not_totals() {
        let _l = serial();
        enable();
        Counter::LinksInserted.add(5);
        let first = drain_delta();
        assert_eq!(first.counters, vec![("links_inserted".to_string(), 5)]);
        Counter::LinksInserted.add(2);
        let second = drain_delta();
        assert_eq!(second.counters, vec![("links_inserted".to_string(), 2)]);
        assert!(drain_delta().counters.is_empty());
        assert_eq!(Counter::LinksInserted.get(), 7, "totals survive draining");
    }

    #[test]
    fn absorb_delta_tags_spans_with_worker_fields() {
        let _l = serial();
        enable();
        let delta = StatsDelta {
            spans: vec![("task".into(), "phase=3".into(), 10, 20)],
            counters: vec![("scored_pairs".into(), 7)],
            events: vec![("fault_fired".into(), "action=kill".into(), 11)],
        };
        absorb_delta(&delta, "worker=1 gen=0");
        let d = drain_delta();
        assert_eq!(d.spans.len(), 1);
        assert_eq!(d.spans[0].0, "task");
        assert_eq!(d.spans[0].1, "phase=3 worker=1 gen=0");
        assert_eq!(d.events[0].1, "action=kill worker=1 gen=0");
        assert_eq!(Counter::ScoredPairs.get(), 7);
    }

    #[test]
    fn unknown_remote_counters_are_ignored() {
        let _l = serial();
        enable();
        let delta =
            StatsDelta { counters: vec![("from_the_future".into(), 9)], ..StatsDelta::default() };
        absorb_delta(&delta, "worker=0 gen=0");
        assert!(drain_delta().counters.is_empty());
    }

    #[test]
    fn events_carry_fields_and_timestamps() {
        let _l = serial();
        enable();
        event!("checkpoint", phase = 2, bytes = 4096);
        let d = drain_delta();
        assert_eq!(d.events.len(), 1);
        assert_eq!(d.events[0].0, "checkpoint");
        assert_eq!(d.events[0].1, "phase=2 bytes=4096");
    }

    #[test]
    fn jsonl_trace_round_trips_through_the_validator() {
        let _l = serial();
        enable();
        {
            let _g = span!("phase", iter = 1, bucket = 3);
            event!("lsh_gate", verdict = "sketch");
        }
        Counter::ScoredPairs.add(42);
        let dir = std::env::temp_dir().join("snr-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.jsonl", std::process::id()));
        write_trace(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = validate_jsonl(&text).unwrap();
        assert!(summary.spans.iter().any(|s| s.name == "phase" && s.fields == "iter=1 bucket=3"));
        assert!(summary.events.iter().any(|e| e.name == "lsh_gate"));
        assert!(summary
            .counters
            .iter()
            .any(|(name, value)| name == "scored_pairs" && *value == 42));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        let _l = serial();
        assert!(validate_jsonl("not json").is_err());
        assert!(validate_jsonl(r#"{"type":"span"}"#).is_err(), "span without fields");
        assert!(validate_jsonl(r#"{"type":"mystery","name":"x"}"#).is_err());
        assert!(
            validate_jsonl(r#"{"type":"counter","name":"x","value":3}"#).is_err(),
            "a trace without a meta line is rejected"
        );
        let with_meta = concat!(
            r#"{"type":"meta","version":1,"pid":1,"created_unix":0}"#,
            "\n",
            r#"{"type":"counter","name":"x","value":3}"#,
        );
        assert!(validate_jsonl(with_meta).is_ok());
    }

    #[test]
    fn strings_are_escaped_in_the_trace() {
        let _l = serial();
        enable();
        event!("weird", path = "a\"b\\c\n");
        let dir = std::env::temp_dir().join("snr-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("escape-{}.jsonl", std::process::id()));
        write_trace(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = validate_jsonl(&text).unwrap();
        let ev = summary.events.iter().find(|e| e.name == "weird").unwrap();
        assert_eq!(ev.fields, "path=a\"b\\c\n");
        std::fs::remove_file(&path).ok();
    }
}
