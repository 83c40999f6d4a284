//! The one event line every stream in the workspace writes.
//!
//! Causal-trace events, progress lines, watchdog alarms and ad-hoc
//! sink events are all an [`Event`]: a dotted `kind`, a [`Severity`],
//! an optional sampled-network index, typed arguments ([`TraceValue`])
//! and an optional [`Stamp`]. One renderer writes them, one reader
//! ([`read_events`]) parses them, one validator ([`check_events`])
//! checks them, and one bounded ring type buffers them on trace tracks.
//!
//! ```text
//! {"type":"event","track":"worker-0","seq":41,"ts_ns":10250,"sev":"debug",
//!  "kind":"request","args":{"target":12,"accepted":true}}
//! {"type":"event","sev":"info","kind":"run.network","network":0,"args":{"status":"ok"}}
//! ```
//!
//! The stamp names the trace `track` that wrote the event, a `seq` that
//! strictly increases per track and `ts_ns` since the tracer started.
//! Deterministic sinks (the progress stream) leave it out. Kinds ending
//! in `.begin` / `.end` delimit spans. Any line that is not an event
//! line — torn, foreign, or in a shape older versions wrote — is
//! skipped and counted, never an error.

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::snapshot::{json_escape, json_number};
use crate::trace::{parse_json, Json};

/// Event severity, ordered from chattiest to most alarming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Developer-level detail (trace events).
    Debug,
    /// Normal lifecycle transitions.
    Info,
    /// Something unusual that the system absorbed.
    Warn,
    /// A failure (a failed run, an alarm).
    Error,
}

impl Severity {
    /// Wire encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parses the wire encoding.
    pub fn parse(s: &str) -> Option<Severity> {
        [Self::Debug, Self::Info, Self::Warn, Self::Error]
            .into_iter()
            .find(|sev| sev.as_str() == s)
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed event argument.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float, serialized with shortest round-trip formatting so the
    /// causal log replays bit-exactly (`null` if non-finite).
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// A string (escaped on export).
    Str(Cow<'static, str>),
}

impl TraceValue {
    /// The value as an unsigned integer, if it is a non-negative one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            TraceValue::U64(v) => Some(v),
            TraceValue::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as a signed integer, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            TraceValue::I64(v) => Some(v),
            TraceValue::U64(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as a float, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            TraceValue::F64(v) => Some(v),
            TraceValue::U64(v) => Some(v as f64),
            TraceValue::I64(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            TraceValue::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TraceValue::Str(v) => Some(v),
            _ => None,
        }
    }

    pub(crate) fn render_into(&self, out: &mut String) {
        let _ = match self {
            TraceValue::U64(v) => write!(out, "{v}"),
            TraceValue::I64(v) => write!(out, "{v}"),
            TraceValue::F64(v) => write!(out, "{}", json_number(*v)),
            TraceValue::Bool(v) => write!(out, "{v}"),
            TraceValue::Str(v) => write!(out, "\"{}\"", json_escape(v)),
        };
    }

    /// Reads a scalar back; whole numbers up to 2^53 come back as
    /// integers (the wire does not tell `2` from `2.0`), `null` as NaN
    /// (what a non-finite float renders to).
    fn parse(value: &Json) -> Option<TraceValue> {
        Some(match value {
            Json::Str(s) => TraceValue::Str(Cow::Owned(s.clone())),
            Json::Bool(b) => TraceValue::Bool(*b),
            Json::Null => TraceValue::F64(f64::NAN),
            // `-0.0` stays a float: its sign bit is part of the value.
            Json::Num(x)
                if x.fract() == 0.0
                    && x.abs() <= 9_007_199_254_740_992.0
                    && x.to_bits() != (-0.0f64).to_bits() =>
            {
                if *x >= 0.0 {
                    TraceValue::U64(*x as u64)
                } else {
                    TraceValue::I64(*x as i64)
                }
            }
            Json::Num(x) => TraceValue::F64(*x),
            Json::Arr(_) | Json::Obj(_) => return None,
        })
    }
}

impl From<u64> for TraceValue {
    fn from(v: u64) -> Self {
        TraceValue::U64(v)
    }
}

impl From<usize> for TraceValue {
    fn from(v: usize) -> Self {
        TraceValue::U64(v as u64)
    }
}

impl From<i64> for TraceValue {
    fn from(v: i64) -> Self {
        TraceValue::I64(v)
    }
}

impl From<f64> for TraceValue {
    fn from(v: f64) -> Self {
        TraceValue::F64(v)
    }
}

impl From<bool> for TraceValue {
    fn from(v: bool) -> Self {
        TraceValue::Bool(v)
    }
}

impl From<&'static str> for TraceValue {
    fn from(v: &'static str) -> Self {
        TraceValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for TraceValue {
    fn from(v: String) -> Self {
        TraceValue::Str(Cow::Owned(v))
    }
}

/// Where and when a trace track wrote an event: the track, a sequence
/// number that strictly increases per track, and nanoseconds since the
/// tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    /// The track's name.
    pub track: Arc<str>,
    /// Per-track sequence number.
    pub seq: u64,
    /// Nanoseconds since the tracer started.
    pub ts_ns: u64,
}

/// One event: see the [module docs](self) for the line format.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Dotted event kind (`run.network`, `obs.alarm`, `request`,
    /// `load.begin`, ...).
    pub kind: Cow<'static, str>,
    /// Severity.
    pub sev: Severity,
    /// The sampled-network index inside the run, rendered as a
    /// top-level `"network"` key so `grep '"network":3'` finds a
    /// network's lines without a parser.
    pub network: Option<u64>,
    /// Typed arguments, in emission order.
    pub args: Vec<(Cow<'static, str>, TraceValue)>,
    /// Track stamp; deterministic sinks leave it out.
    pub stamp: Option<Stamp>,
}

impl Event {
    /// An unstamped event with no network index or arguments.
    pub fn new(sev: Severity, kind: impl Into<Cow<'static, str>>) -> Event {
        Event {
            kind: kind.into(),
            sev,
            network: None,
            args: Vec::new(),
            stamp: None,
        }
    }

    /// [`Event::new`] at [`Severity::Debug`].
    pub fn debug(kind: impl Into<Cow<'static, str>>) -> Event {
        Event::new(Severity::Debug, kind)
    }

    /// [`Event::new`] at [`Severity::Info`].
    pub fn info(kind: impl Into<Cow<'static, str>>) -> Event {
        Event::new(Severity::Info, kind)
    }

    /// [`Event::new`] at [`Severity::Warn`].
    pub fn warn(kind: impl Into<Cow<'static, str>>) -> Event {
        Event::new(Severity::Warn, kind)
    }

    /// [`Event::new`] at [`Severity::Error`].
    pub fn error(kind: impl Into<Cow<'static, str>>) -> Event {
        Event::new(Severity::Error, kind)
    }

    /// Sets the sampled-network index.
    #[must_use]
    pub fn network(mut self, network: u64) -> Event {
        self.network = Some(network);
        self
    }

    /// Appends one argument.
    #[must_use]
    pub fn arg(mut self, key: &'static str, value: impl Into<TraceValue>) -> Event {
        self.args.push((Cow::Borrowed(key), value.into()));
        self
    }

    /// Appends the human-readable `msg` argument.
    #[must_use]
    pub fn msg(self, message: impl Into<String>) -> Event {
        self.arg("msg", message.into())
    }

    /// The argument named `key`, if present.
    pub fn get(&self, key: &str) -> Option<&TraceValue> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The `msg` argument, or `""`.
    pub fn message(&self) -> &str {
        self.get("msg").and_then(TraceValue::as_str).unwrap_or("")
    }

    /// Renders the single-line JSON form (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        self.render_into(&mut out);
        out
    }

    /// Appends the single-line JSON form to `out` (no newline).
    pub fn render_into(&self, out: &mut String) {
        out.push_str("{\"type\":\"event\"");
        if let Some(stamp) = &self.stamp {
            let _ = write!(
                out,
                ",\"track\":\"{}\",\"seq\":{},\"ts_ns\":{}",
                json_escape(&stamp.track),
                stamp.seq,
                stamp.ts_ns
            );
        }
        let _ = write!(
            out,
            ",\"sev\":\"{}\",\"kind\":\"{}\"",
            self.sev,
            json_escape(&self.kind)
        );
        if let Some(network) = self.network {
            let _ = write!(out, ",\"network\":{network}");
        }
        if !self.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (key, value)) in self.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":", json_escape(key));
                value.render_into(out);
            }
            out.push('}');
        }
        out.push('}');
    }

    /// Parses one line: `Ok(Some)` for an event line, `Ok(None)` for a
    /// torn (non-JSON) or foreign line, `Err` for an event line that
    /// breaks the shape.
    pub fn parse(line: &str) -> Result<Option<Event>, String> {
        let Ok(doc) = parse_json(line.trim()) else {
            return Ok(None);
        };
        if doc.get("type").and_then(Json::as_str) != Some("event") {
            return Ok(None);
        }
        let text = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer field {key:?}"))
        };
        let sev = Severity::parse(text("sev")?).ok_or_else(|| "unknown severity".to_string())?;
        let mut event = Event::new(sev, text("kind")?.to_string());
        match doc.get("args") {
            None => {}
            Some(Json::Obj(fields)) => {
                for (key, value) in fields {
                    let value = TraceValue::parse(value)
                        .ok_or_else(|| format!("argument {key:?} is not a scalar"))?;
                    event.args.push((Cow::Owned(key.clone()), value));
                }
            }
            Some(_) => return Err("args is not an object".to_string()),
        }
        event.network = doc.get("network").and_then(Json::as_u64);
        if doc.get("track").is_some() {
            event.stamp = Some(Stamp {
                track: Arc::from(text("track")?),
                seq: num("seq")?,
                ts_ns: num("ts_ns")?,
            });
        }
        Ok(Some(event))
    }
}

/// What [`read_events`] or [`check_events`] found in a file.
#[derive(Debug, Default)]
pub struct EventRead {
    /// Every parseable event, in file order.
    pub events: Vec<Event>,
    /// Lines dropped because they were torn or foreign — a crash
    /// mid-append legitimately leaves at most one per dead writer.
    pub skipped_lines: usize,
}

/// Reads event lines leniently: lines that do not parse as an event are
/// dropped and counted, never fatal.
pub fn read_events(text: &str) -> EventRead {
    scan(text, false).unwrap_or_default()
}

/// Reads event lines strictly: an event line that breaks the shape, or
/// a track whose `seq` fails to strictly increase in file order, is an
/// error. Torn and foreign lines are still only counted.
///
/// # Errors
///
/// Names the offending line, or the track and sequence pair.
pub fn check_events(text: &str) -> Result<EventRead, String> {
    scan(text, true)
}

fn scan(text: &str, strict: bool) -> Result<EventRead, String> {
    let mut read = EventRead::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Event::parse(line) {
            Ok(Some(event)) => read.events.push(event),
            Err(why) if strict => return Err(format!("line {}: {why}", i + 1)),
            Ok(None) | Err(_) => read.skipped_lines += 1,
        }
    }
    if strict {
        let mut last: BTreeMap<&str, u64> = BTreeMap::new();
        for stamp in read.events.iter().filter_map(|e| e.stamp.as_ref()) {
            if let Some(prev) = last.insert(&stamp.track, stamp.seq) {
                if stamp.seq <= prev {
                    return Err(format!(
                        "track {} seq went {prev} -> {} (must strictly increase)",
                        stamp.track, stamp.seq
                    ));
                }
            }
        }
    }
    Ok(read)
}

/// A bounded ring of the most recent events: the oldest is evicted
/// (and counted) when a push finds it full. Every trace track keeps its
/// events in one.
#[derive(Debug)]
pub(crate) struct Ring {
    capacity: usize,
    state: Mutex<(VecDeque<Event>, u64)>,
}

impl Ring {
    /// A ring holding at most `capacity` events (clamped ≥ 1).
    pub(crate) fn new(capacity: usize) -> Ring {
        Ring {
            capacity: capacity.max(1),
            state: Mutex::new((VecDeque::new(), 0)),
        }
    }

    pub(crate) fn push(&self, event: Event) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.0.len() >= self.capacity {
            state.0.pop_front();
            state.1 += 1;
        }
        state.0.push_back(event);
    }

    /// Runs `f` over the count of events evicted so far and the
    /// retained ones, oldest first, under the ring's lock: exporting a
    /// ring never copies it.
    pub(crate) fn with<R>(&self, f: impl FnOnce(u64, &[Event]) -> R) -> R {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let (events, dropped) = &mut *state;
        f(*dropped, events.make_contiguous())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamped(track: &str, seq: u64) -> Event {
        let mut event = Event::info("tick");
        event.stamp = Some(Stamp {
            track: Arc::from(track),
            seq,
            ts_ns: 1,
        });
        event
    }

    #[test]
    fn events_round_trip_through_json() {
        let mut event = Event::warn("run.network")
            .network(5)
            .msg("quarantined \"stale\" network")
            .arg("gain", 0.1 + 0.2)
            .arg("theta", -1i64)
            .arg("ok", true);
        event.stamp = Some(Stamp {
            track: Arc::from("worker-0"),
            seq: 7,
            ts_ns: 123_456,
        });
        let line = event.to_json();
        assert_eq!(Event::parse(&line).unwrap().unwrap(), event);
        // The network index is a top-level key: grep-level access.
        assert!(
            line.contains("\"kind\":\"run.network\",\"network\":5,"),
            "{line}"
        );
        // Floats travel bit-exactly.
        let back = Event::parse(&line).unwrap().unwrap();
        let gain = back.get("gain").and_then(TraceValue::as_f64).unwrap();
        assert_eq!(gain.to_bits(), (0.1f64 + 0.2).to_bits());
        let zero = Event::info("z").arg("x", -0.0f64).to_json();
        let back = Event::parse(&zero).unwrap().unwrap();
        assert_eq!(back.get("x"), Some(&TraceValue::F64(-0.0)));
        assert!(back
            .get("x")
            .and_then(TraceValue::as_f64)
            .unwrap()
            .is_sign_negative());
    }

    #[test]
    fn unstamped_events_omit_absent_fields() {
        let line = Event::info("run.end").to_json();
        assert_eq!(line, r#"{"type":"event","sev":"info","kind":"run.end"}"#);
        let back = Event::parse(&line).unwrap().unwrap();
        assert!(back.network.is_none() && back.stamp.is_none() && back.args.is_empty());
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn an_event_stays_104_bytes() {
        // A trace ring holds tens of thousands of events.
        assert_eq!(std::mem::size_of::<Event>(), 104);
    }

    #[test]
    fn torn_and_foreign_lines_are_counted_not_fatal() {
        let text = concat!(
            "{\"type\":\"event\",\"sev\":\"info\",\"kind\":\"a\"}\n",
            "{\"type\":\"snapshot\",\"label\":\"x\"}\n",
            "\n",
            // The shapes older versions wrote before the event line.
            r#"{"type":"journal","writer":9,"seq":4,"ts_ms":17,"sev":"error","kind":"chaos.kill","msg":"abort","job_id":"j"}"#,
            "\n",
            r#"{"type":"trace","track":"w","seq":1,"ts_ns":2,"kind":"begin","name":"load","args":{"net":0}}"#,
            "\n",
            r#"{"type":"trace_drops","track":"w","dropped":3}"#,
            "\n",
            r#"{"accu_flight":1,"dropped":2,"events":5}"#,
            "\n",
            "{\"type\":\"event\",\"track\":\"w\",\"se",
        );
        for read in [read_events(text), check_events(text).unwrap()] {
            assert_eq!(read.events.len(), 1);
            assert_eq!(read.events[0].kind, "a");
            assert_eq!(read.skipped_lines, 6);
        }
    }

    #[test]
    fn check_rejects_broken_shapes_that_read_skips() {
        for bad in [
            r#"{"type":"event","kind":"a"}"#,
            r#"{"type":"event","sev":"loud","kind":"a"}"#,
            r#"{"type":"event","sev":"info","kind":"a","args":{"x":[1]}}"#,
            r#"{"type":"event","sev":"info","kind":"a","args":[1]}"#,
            r#"{"type":"event","track":"w","sev":"info","kind":"a"}"#,
            r#"{"type":"event","track":1,"seq":0,"ts_ns":0,"sev":"info","kind":"a"}"#,
        ] {
            let text = format!("{{\"type\":\"event\",\"sev\":\"info\",\"kind\":\"ok\"}}\n{bad}\n");
            let err = check_events(&text).unwrap_err();
            assert!(err.starts_with("line 2:"), "{bad}: {err}");
            assert_eq!(read_events(&text).skipped_lines, 1, "{bad}");
        }
    }

    #[test]
    fn check_requires_seq_to_increase_per_track() {
        let render = |events: &[Event]| {
            events
                .iter()
                .map(|e| e.to_json() + "\n")
                .collect::<String>()
        };
        let ok = render(&[
            stamped("worker-0", 0),
            stamped("worker-1", 0),
            stamped("worker-0", 1),
            Event::info("run.end"),
            stamped("worker-1", 4),
        ]);
        assert_eq!(check_events(&ok).unwrap().events.len(), 5);
        let restarted = render(&[stamped("worker-0", 1), stamped("worker-0", 0)]);
        let err = check_events(&restarted).unwrap_err();
        assert!(err.contains("track worker-0 seq went 1 -> 0"), "{err}");
        let duplicate = render(&[stamped("worker-1", 2), stamped("worker-1", 2)]);
        assert!(check_events(&duplicate)
            .unwrap_err()
            .contains("track worker-1"));
        // The lenient reader does not judge ordering.
        assert_eq!(read_events(&restarted).events.len(), 2);
    }

    #[test]
    fn ring_keeps_exactly_the_latest_k_events() {
        let ring = Ring::new(4);
        for i in 0..11u64 {
            ring.push(Event::info("tick").arg("i", i));
        }
        let (dropped, kept) = ring.with(|dropped, events| {
            let kept: Vec<u64> = events
                .iter()
                .map(|e| e.get("i").and_then(TraceValue::as_u64).unwrap())
                .collect();
            (dropped, kept)
        });
        assert_eq!(dropped, 7);
        assert_eq!(kept, vec![7, 8, 9, 10]);
    }
}
