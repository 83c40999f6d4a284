//! The one event line every stream in the workspace writes.
//!
//! Causal-trace events, progress lines, watchdog alarms and ad-hoc
//! sink events are all an [`Event`]: a dotted `kind`, a [`Severity`],
//! correlation IDs ([`Corr`]), typed arguments ([`TraceValue`]) and an
//! optional [`Stamp`]. One renderer writes them, one reader
//! ([`read_events`]) parses them, one validator ([`check_events`])
//! checks them, and one bounded ring type buffers them on trace tracks.
//!
//! ```text
//! {"type":"event","track":"worker-0","seq":41,"ts_ns":10250,"sev":"debug",
//!  "kind":"request","args":{"target":12,"accepted":true}}
//! {"type":"event","sev":"info","kind":"run.network","network":0,"args":{"status":"ok"}}
//! ```
//!
//! The stamp names its source — a trace `track`, with `ts_ns` since
//! the tracer started — and a `seq` that strictly increases per source.
//! Deterministic sinks (the progress stream) leave it out. Kinds ending
//! in `.begin` / `.end` delimit spans.
//!
//! The reader also accepts lines that no writer in the workspace
//! produces any more. Older versions ran a service daemon whose journal
//! and crash dumps stamped events with a journal `writer` (wall-clock
//! `ts_ms`) and correlated them by job:
//!
//! ```text
//! {"type":"event","writer":81253,"seq":4,"ts_ms":1754650000123,"sev":"warn",
//!  "kind":"lease.takeover","job_id":"fig2-night","epoch":3,"args":{"msg":"adopted"}}
//! ```
//!
//! It also reads the lines written before this schema
//! (`"type":"journal"`, `"type":"trace"`, `"type":"trace_drops"` and
//! the `{"accu_flight":1,…}` dump header).

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

/// Correlation IDs. All fields are optional — an event carries exactly
/// the coordinates that exist at its layer — and every present field is
/// a top-level JSON key, so `grep '"network":3'` finds a network's
/// lines without a parser. The runner sets `network`; the other fields
/// are read from the service journals older versions wrote.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Corr {
    /// The service job this event belongs to.
    pub job_id: Option<String>,
    /// The lease fencing epoch under which the writer held the job.
    pub epoch: Option<u64>,
    /// The execution attempt (1-based) within one daemon.
    pub attempt: Option<u64>,
    /// The sampled-network index inside the run.
    pub network: Option<u64>,
    /// The episode-chunk index inside the network.
    pub chunk: Option<u64>,
}

/// The IDs of an event that carries none.
static NO_CORR: Corr = Corr {
    job_id: None,
    epoch: None,
    attempt: None,
    network: None,
    chunk: None,
};

impl Corr {
    /// An empty correlation set.
    pub fn none() -> Self {
        Corr::default()
    }

    /// Whether no field is set.
    fn is_empty(&self) -> bool {
        *self == NO_CORR
    }

    /// Sets the network index.
    #[must_use]
    pub fn network(mut self, network: u64) -> Self {
        self.network = Some(network);
        self
    }

    fn render_into(&self, out: &mut String) {
        if let Some(job) = &self.job_id {
            let _ = write!(out, ",\"job_id\":\"{}\"", json_escape(job));
        }
        for (key, value) in [
            ("epoch", self.epoch),
            ("attempt", self.attempt),
            ("network", self.network),
            ("chunk", self.chunk),
        ] {
            if let Some(value) = value {
                let _ = write!(out, ",\"{key}\":{value}");
            }
        }
    }

    fn parse(doc: &Json) -> Corr {
        let num = |key: &str| doc.get(key).and_then(Json::as_u64);
        Corr {
            job_id: doc.get("job_id").and_then(Json::as_str).map(str::to_string),
            epoch: num("epoch"),
            attempt: num("attempt"),
            network: num("network"),
            chunk: num("chunk"),
        }
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

/// Who stamped an event.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Source {
    /// A service-journal handle (one per open, unique across
    /// processes), as older versions stamped their journals.
    Writer(u64),
    /// A trace track, by name.
    Track(Arc<str>),
}

impl std::fmt::Display for Source {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Source::Writer(w) => write!(f, "writer {w}"),
            Source::Track(t) => write!(f, "track {t}"),
        }
    }
}

/// Where and when an event was written: its source, a sequence number
/// that strictly increases per source, and a timestamp — wall-clock
/// milliseconds for a writer, nanoseconds since the tracer started for
/// a track.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    /// The stamping source.
    pub source: Source,
    /// Per-source sequence number.
    pub seq: u64,
    /// `ts_ms` (writer) or `ts_ns` (track).
    pub ts: u64,
}

/// One event: see the [module docs](self) for the line format.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Dotted event kind (`run.network`, `obs.alarm`, `request`,
    /// `chunk.begin`, ...).
    pub kind: Cow<'static, str>,
    /// Severity.
    pub sev: Severity,
    /// Correlation IDs, boxed and only when some are set: trace events
    /// carry none, and a trace ring holds tens of thousands of events.
    corr: Option<Box<Corr>>,
    /// Typed arguments, in emission order.
    pub args: Vec<(Cow<'static, str>, TraceValue)>,
    /// Source stamp; deterministic sinks leave it out.
    pub stamp: Option<Stamp>,
}

impl Event {
    /// An unstamped event with no correlation IDs or arguments.
    pub fn new(sev: Severity, kind: impl Into<Cow<'static, str>>) -> Event {
        Event {
            kind: kind.into(),
            sev,
            corr: None,
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

    /// Sets the correlation IDs.
    #[must_use]
    pub fn corr(mut self, corr: Corr) -> Event {
        self.corr = (!corr.is_empty()).then(|| Box::new(corr));
        self
    }

    /// The correlation IDs present on the event.
    pub fn ids(&self) -> &Corr {
        self.corr.as_deref().unwrap_or(&NO_CORR)
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
            let _ = match &stamp.source {
                Source::Writer(w) => write!(
                    out,
                    ",\"writer\":{w},\"seq\":{},\"ts_ms\":{}",
                    stamp.seq, stamp.ts
                ),
                Source::Track(t) => write!(
                    out,
                    ",\"track\":\"{}\",\"seq\":{},\"ts_ns\":{}",
                    json_escape(t),
                    stamp.seq,
                    stamp.ts
                ),
            };
        }
        let _ = write!(
            out,
            ",\"sev\":\"{}\",\"kind\":\"{}\"",
            self.sev,
            json_escape(&self.kind)
        );
        self.ids().render_into(out);
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

    /// Parses one line: `Ok(Some)` for an event (current or legacy
    /// shape), `Ok(None)` for a torn (non-JSON) or foreign line, `Err`
    /// for a line that claims an event shape but breaks it.
    pub fn parse(line: &str) -> Result<Option<Event>, String> {
        let Ok(doc) = parse_json(line.trim()) else {
            return Ok(None);
        };
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
        let ty = match doc.get("type").and_then(Json::as_str) {
            Some(ty) => ty,
            // The header of a flight dump written before this schema.
            None if doc.get("accu_flight").is_some() => {
                return Ok(Some(
                    Event::info("flight.dump")
                        .arg("accu_flight", num("accu_flight")?)
                        .arg("dropped", num("dropped")?)
                        .arg("events", num("events")?),
                ));
            }
            None => return Ok(None),
        };
        let sev = || Severity::parse(text("sev")?).ok_or_else(|| "unknown severity".to_string());
        let mut event = match ty {
            "event" => Event::new(sev()?, text("kind")?.to_string()),
            "journal" => Event::new(sev()?, text("kind")?.to_string()).msg(text("msg")?),
            "trace" => {
                let name = text("name")?;
                Event::debug(match text("kind")? {
                    "instant" => name.to_string(),
                    "begin" => format!("{name}.begin"),
                    "end" => format!("{name}.end"),
                    other => return Err(format!("unknown trace phase {other:?}")),
                })
            }
            "trace_drops" => {
                return Ok(Some(
                    Event::warn("trace.dropped")
                        .arg("track", text("track")?.to_string())
                        .arg("dropped", num("dropped")?),
                ))
            }
            _ => return Ok(None),
        };
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
        event = event.corr(Corr::parse(&doc));
        event.stamp = if let Some(writer) = doc.get("writer") {
            let writer = writer.as_u64().ok_or("writer is not an integer")?;
            Some(Stamp {
                source: Source::Writer(writer),
                seq: num("seq")?,
                ts: num("ts_ms")?,
            })
        } else if doc.get("track").is_some() {
            Some(Stamp {
                source: Source::Track(Arc::from(text("track")?)),
                seq: num("seq")?,
                ts: num("ts_ns")?,
            })
        } else if ty == "event" {
            None
        } else {
            return Err(format!("{ty} line without a writer or track"));
        };
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

/// Reads event lines strictly: a line that claims an event shape but
/// breaks it, or a source whose `seq` fails to strictly increase in
/// file order, is an error. Torn and foreign lines are still only
/// counted.
///
/// # Errors
///
/// Names the offending line, or the source and sequence pair.
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
        let mut last: BTreeMap<&Source, u64> = BTreeMap::new();
        for stamp in read.events.iter().filter_map(|e| e.stamp.as_ref()) {
            if let Some(prev) = last.insert(&stamp.source, stamp.seq) {
                if stamp.seq <= prev {
                    return Err(format!(
                        "{} seq went {prev} -> {} (must strictly increase)",
                        stamp.source, stamp.seq
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

    fn stamped(source: Source, seq: u64) -> Event {
        let mut event = Event::info("tick");
        event.stamp = Some(Stamp { source, seq, ts: 1 });
        event
    }

    #[test]
    fn events_round_trip_through_json() {
        let mut event = Event::warn("lease.takeover")
            .corr(Corr {
                job_id: Some("fig2-night".to_string()),
                epoch: Some(3),
                attempt: Some(2),
                network: Some(5),
                chunk: Some(1),
            })
            .msg("adopted \"stale\" lease")
            .arg("gain", 0.1 + 0.2)
            .arg("theta", -1i64)
            .arg("ok", true);
        event.stamp = Some(Stamp {
            source: Source::Writer(42),
            seq: 7,
            ts: 123_456,
        });
        let line = event.to_json();
        assert_eq!(Event::parse(&line).unwrap().unwrap(), event);
        // Correlation fields are top-level keys: grep-level access.
        assert!(line.contains("\"job_id\":\"fig2-night\""), "{line}");
        assert!(line.contains("\"epoch\":3"), "{line}");
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

        let mut traced = Event::debug("chunk.begin").arg("net", 0u64);
        traced.stamp = Some(Stamp {
            source: Source::Track(Arc::from("worker-0")),
            seq: 3,
            ts: 99,
        });
        assert_eq!(Event::parse(&traced.to_json()).unwrap().unwrap(), traced);
    }

    #[test]
    fn unstamped_events_omit_absent_fields() {
        let line = Event::info("run.end").to_json();
        assert_eq!(line, r#"{"type":"event","sev":"info","kind":"run.end"}"#);
        let back = Event::parse(&line).unwrap().unwrap();
        assert!(back.ids().is_empty() && back.corr.is_none());
        assert!(back.stamp.is_none() && back.args.is_empty());
    }

    #[test]
    fn legacy_lines_read_as_events() {
        let journal = r#"{"type":"journal","writer":9,"seq":4,"ts_ms":17,"sev":"error","kind":"chaos.kill","msg":"abort","job_id":"j"}"#;
        let event = Event::parse(journal).unwrap().unwrap();
        assert_eq!(
            (event.kind.as_ref(), event.sev, event.message()),
            ("chaos.kill", Severity::Error, "abort")
        );
        assert_eq!(event.ids().job_id.as_deref(), Some("j"));
        assert_eq!(event.stamp.unwrap().source, Source::Writer(9));

        let trace = r#"{"type":"trace","track":"w","seq":1,"ts_ns":2,"kind":"begin","name":"load","args":{"net":0}}"#;
        let event = Event::parse(trace).unwrap().unwrap();
        assert_eq!(event.kind, "load.begin");
        assert_eq!(event.get("net"), Some(&TraceValue::U64(0)));

        let drops = r#"{"type":"trace_drops","track":"w","dropped":3}"#;
        let event = Event::parse(drops).unwrap().unwrap();
        assert_eq!(event.kind, "trace.dropped");
        assert_eq!(event.get("dropped"), Some(&TraceValue::U64(3)));

        let header = r#"{"accu_flight":1,"dropped":2,"events":5}"#;
        assert_eq!(Event::parse(header).unwrap().unwrap().kind, "flight.dump");
    }

    #[test]
    fn torn_and_foreign_lines_are_counted_not_fatal() {
        let text = concat!(
            "{\"type\":\"event\",\"sev\":\"info\",\"kind\":\"a\"}\n",
            "{\"type\":\"snapshot\",\"label\":\"x\"}\n",
            "\n",
            "{\"type\":\"event\",\"writer\":9,\"se",
        );
        for read in [read_events(text), check_events(text).unwrap()] {
            assert_eq!(read.events.len(), 1);
            assert_eq!(read.skipped_lines, 2);
        }
    }

    #[test]
    fn check_rejects_broken_shapes_that_read_skips() {
        for bad in [
            r#"{"type":"event","kind":"a"}"#,
            r#"{"type":"event","sev":"loud","kind":"a"}"#,
            r#"{"type":"event","sev":"info","kind":"a","args":{"x":[1]}}"#,
            r#"{"type":"event","writer":1,"sev":"info","kind":"a"}"#,
            r#"{"type":"trace"}"#,
            r#"{"type":"journal","sev":"info","kind":"a","msg":""}"#,
        ] {
            let text = format!("{{\"type\":\"event\",\"sev\":\"info\",\"kind\":\"ok\"}}\n{bad}\n");
            let err = check_events(&text).unwrap_err();
            assert!(err.starts_with("line 2:"), "{bad}: {err}");
            assert_eq!(read_events(&text).skipped_lines, 1, "{bad}");
        }
    }

    #[test]
    fn check_requires_seq_to_increase_per_source() {
        let render = |events: &[Event]| {
            events
                .iter()
                .map(|e| e.to_json() + "\n")
                .collect::<String>()
        };
        let track = || Source::Track(Arc::from("worker-0"));
        let ok = render(&[
            stamped(Source::Writer(5), 0),
            stamped(track(), 0),
            stamped(Source::Writer(5), 1),
            stamped(Source::Writer(6), 0),
            stamped(track(), 4),
        ]);
        assert_eq!(check_events(&ok).unwrap().events.len(), 5);
        let restarted = render(&[stamped(Source::Writer(5), 1), stamped(Source::Writer(5), 0)]);
        let err = check_events(&restarted).unwrap_err();
        assert!(err.contains("writer 5 seq went 1 -> 0"), "{err}");
        let duplicate = render(&[stamped(track(), 2), stamped(track(), 2)]);
        assert!(check_events(&duplicate)
            .unwrap_err()
            .contains("track worker-0"));
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
