//! Chrome trace-event JSON export.
//!
//! Emits the `{"traceEvents":[...]}` object format understood by
//! Perfetto and `chrome://tracing`: one `pid` for the process, one
//! `tid` per track, a `thread_name` metadata record per track, `B`/`E`
//! phase pairs for spans and `i` (thread-scoped) for instants, with
//! timestamps in fractional microseconds.

use std::fmt::Write as _;

use super::Tracer;
use crate::event::Event;
use crate::snapshot::{json_escape, json_number};

/// The single process id used for all tracks.
const PID: u64 = 1;

/// A Chrome phase: span begin, span end, or instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Begin,
    End,
    Instant,
}

/// The Chrome phase and display name of an event: kinds ending in
/// `.begin` / `.end` delimit the span named by the rest.
fn phase(event: &Event) -> (Phase, &str) {
    let kind = event.kind.as_ref();
    if let Some(name) = kind.strip_suffix(".begin") {
        (Phase::Begin, name)
    } else if let Some(name) = kind.strip_suffix(".end") {
        (Phase::End, name)
    } else {
        (Phase::Instant, kind)
    }
}

fn ts_ns(event: &Event) -> u64 {
    event.stamp.as_ref().map_or(0, |s| s.ts_ns)
}

pub(super) fn export(tracer: &Tracer) -> String {
    let mut out = String::with_capacity(128 + tracer.event_count() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    tracer.each_track(|track, _, events| {
        let mut emit = |line: &str| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(line);
        };
        emit(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0.0,\"pid\":{PID},\
             \"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            track.id,
            json_escape(&track.name)
        ));
        for (ph, name, ts, event) in balanced(events) {
            emit(&render_event(ph, name, ts, event, track.id));
        }
    });
    out.push_str("]}");
    out
}

/// Rebalances one track's begin/end sequence into `(phase, name, ts,
/// payload)` rows.
///
/// The ring overwrites oldest-first, so the only unbalanced shapes are
/// end events whose begin was overwritten (dropped here) and spans
/// still open at export (closed here at the last timestamp).
/// Defensively, an end whose name does not match the innermost open
/// begin is also dropped, so the output nests properly no matter what
/// was collected.
fn balanced(events: &[Event]) -> Vec<(Phase, &str, u64, Option<&Event>)> {
    let mut out = Vec::with_capacity(events.len());
    let mut open: Vec<&str> = Vec::new();
    for event in events {
        let (ph, name) = phase(event);
        match ph {
            Phase::Begin => open.push(name),
            Phase::End if open.last() == Some(&name) => {
                open.pop();
            }
            Phase::End => continue,
            Phase::Instant => {}
        }
        out.push((ph, name, ts_ns(event), Some(event)));
    }
    let last_ts = events.last().map_or(0, ts_ns);
    while let Some(name) = open.pop() {
        out.push((Phase::End, name, last_ts, None));
    }
    out
}

fn render_event(ph: Phase, name: &str, ts_ns: u64, event: Option<&Event>, tid: u64) -> String {
    let ph_code = match ph {
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Instant => "i",
    };
    let ts_us = ts_ns as f64 / 1000.0;
    let mut line = String::with_capacity(96);
    let _ = write!(
        line,
        "{{\"name\":\"{}\",\"ph\":\"{ph_code}\",\"ts\":{},\"pid\":{PID},\"tid\":{tid}",
        json_escape(name),
        json_number(ts_us),
    );
    if ph == Phase::Instant {
        line.push_str(",\"s\":\"t\"");
    }
    let args = event.map_or(&[][..], |e| &e.args[..]);
    if !args.is_empty() {
        line.push_str(",\"args\":{");
        for (i, (key, value)) in args.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "\"{}\":", json_escape(key));
            value.render_into(&mut line);
        }
        line.push('}');
    }
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::super::{validate_chrome_trace, Tracer};

    #[test]
    fn export_is_valid_and_balanced() {
        let tracer = Tracer::enabled();
        let track = tracer.track("worker-0");
        {
            let _outer = track.span_with("chunk", &[("net", 0u64.into())]);
            let _inner = track.span("episodes");
            track.instant(
                "request",
                &[
                    ("target", 12u64.into()),
                    ("accepted", true.into()),
                    ("gain", 4.5f64.into()),
                    ("policy", "ABM".into()),
                ],
            );
        }
        let chrome = tracer.export_chrome().unwrap();
        let stats = validate_chrome_trace(&chrome).unwrap();
        assert_eq!(stats.tracks, 1);
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.instants, 1);
    }

    #[test]
    fn open_spans_are_closed_at_export() {
        let tracer = Tracer::enabled();
        let track = tracer.track("w");
        let _open = track.span("still-open");
        track.instant("x", &[]);
        let chrome = tracer.export_chrome().unwrap();
        let stats = validate_chrome_trace(&chrome).unwrap();
        assert_eq!(stats.spans, 1);
    }

    #[test]
    fn orphaned_ends_from_ring_overwrite_are_dropped() {
        // Capacity 3 with 2 leading begins: pushing enough events
        // overwrites the begins, leaving orphaned ends in the ring.
        let tracer = Tracer::with_config(1, 3);
        let track = tracer.track("w");
        let a = track.span("a");
        let b = track.span("b");
        track.instant("x", &[]);
        b.finish();
        a.finish();
        assert!(tracer.total_dropped() > 0);
        let chrome = tracer.export_chrome().unwrap();
        validate_chrome_trace(&chrome).unwrap();
    }
}
