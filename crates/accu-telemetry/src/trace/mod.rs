//! accu-trace: low-overhead structured event tracing.
//!
//! A [`Tracer`] owns a set of ring-buffered per-thread tracks. Each
//! worker thread opens a [`TraceTrack`] and emits begin/end spans and
//! instant events with typed payloads ([`TraceValue`]). Every emission
//! is an [`crate::Event`] stamped with its track, a
//! process-global atomic sequence number and a nanosecond timestamp
//! relative to the tracer's epoch, so interleavings reconstruct exactly
//! even across threads. A span is a `<name>.begin` / `<name>.end` pair.
//!
//! Like the [`Recorder`](crate::Recorder), a tracer is threaded
//! *explicitly* (no global state) and is either enabled or disabled. A
//! disabled tracer hands out no-op tracks whose hot-path methods branch
//! on `None` — no atomics, no clock reads, no allocation. An enabled
//! track additionally carries a per-track *active* gate (one relaxed
//! atomic load per emission) that the experiment runner toggles per
//! episode to implement `--trace :sample=N` episode sampling.
//!
//! Two exporters are provided:
//!
//! * [`Tracer::export_chrome`] — Chrome trace-event JSON, loadable in
//!   Perfetto or `chrome://tracing`, one track per worker. Begin/end
//!   pairs are re-balanced per track at export time, so ring-buffer
//!   overwrites and spans still open at export never produce an
//!   unbalanced file.
//! * [`Tracer::export_causal`] — the JSONL causal log: the events as
//!   event lines in per-track sequence order, replayable by the
//!   `trace_explain` binary.
//!
//! ```
//! use accu_telemetry::{TraceValue, Tracer};
//!
//! let tracer = Tracer::enabled();
//! let track = tracer.track("worker-0");
//! {
//!     let _span = track.span("chunk");
//!     track.instant("request", &[("target", TraceValue::U64(12))]);
//! }
//! let chrome = tracer.export_chrome().expect("enabled tracer exports");
//! assert!(chrome.contains("\"traceEvents\""));
//!
//! // Disabled tracers export nothing and their tracks are no-ops.
//! let off = Tracer::disabled();
//! off.track("worker-0").instant("request", &[]);
//! assert!(off.export_chrome().is_none());
//! ```

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{Event, Ring, Stamp, TraceValue};

mod chrome;
mod json;

pub use json::{parse_json, validate_chrome_trace, ChromeTraceStats, Json};

/// Default per-track ring capacity, in events. At roughly 100 bytes per
/// event this bounds a track at a few megabytes; the oldest events are
/// overwritten first and counted in [`Tracer::total_dropped`].
pub const DEFAULT_TRACK_CAPACITY: usize = 1 << 16;

/// One track's ring plus its sampling gate.
#[derive(Debug)]
struct TrackBuffer {
    /// Stable track id, used as the Chrome `tid`.
    id: u64,
    name: Arc<str>,
    /// Per-track sampling gate; one relaxed load per emission.
    active: AtomicBool,
    ring: Ring,
}

/// State shared by a tracer and all its track handles.
#[derive(Debug)]
struct TraceShared {
    epoch: Instant,
    sample_every: u64,
    capacity: usize,
    seq: AtomicU64,
    tracks: Mutex<Vec<Arc<TrackBuffer>>>,
}

/// A cheaply cloneable handle to a trace collection, or a no-op.
///
/// See the [module docs](self) for the full model and an example.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TraceShared>>,
}

impl Tracer {
    /// A disabled tracer: every track it yields is a no-op and every
    /// export returns `None`.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer sampling every episode, with the default
    /// per-track ring capacity.
    pub fn enabled() -> Self {
        Tracer::with_config(1, DEFAULT_TRACK_CAPACITY)
    }

    /// An enabled tracer tracing every `sample_every`-th episode (see
    /// [`Tracer::sample_hit`]) with the given per-track ring capacity.
    /// Both parameters are clamped to at least 1.
    pub fn with_config(sample_every: u64, capacity: usize) -> Self {
        Tracer {
            inner: Some(Arc::new(TraceShared {
                epoch: Instant::now(),
                sample_every: sample_every.max(1),
                capacity: capacity.max(1),
                seq: AtomicU64::new(0),
                tracks: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this tracer collects anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The configured episode sampling period (1 when disabled).
    pub fn sample_every(&self) -> u64 {
        self.inner.as_ref().map_or(1, |s| s.sample_every)
    }

    /// Whether the episode with the given global index should be traced:
    /// enabled and `index % sample_every == 0`. Always false when
    /// disabled.
    pub fn sample_hit(&self, index: u64) -> bool {
        match &self.inner {
            Some(s) => index.is_multiple_of(s.sample_every),
            None => false,
        }
    }

    /// Opens a new track (one per worker thread by convention). Tracks
    /// start active; on a disabled tracer the returned track is a no-op.
    pub fn track(&self, name: &str) -> TraceTrack {
        let Some(shared) = &self.inner else {
            return TraceTrack::default();
        };
        let mut tracks = shared.tracks.lock().unwrap_or_else(|e| e.into_inner());
        let buffer = Arc::new(TrackBuffer {
            id: tracks.len() as u64 + 1,
            name: Arc::from(name),
            active: AtomicBool::new(true),
            ring: Ring::new(shared.capacity),
        });
        tracks.push(Arc::clone(&buffer));
        drop(tracks);
        TraceTrack {
            inner: Some(TrackHandle {
                shared: Arc::clone(shared),
                buffer,
            }),
        }
    }

    /// Total events overwritten by ring-buffer wraparound, across all
    /// tracks (0 when disabled).
    pub fn total_dropped(&self) -> u64 {
        let mut total = 0;
        self.each_track(|_, dropped, _| total += dropped);
        total
    }

    /// Total events currently retained across all tracks (0 when
    /// disabled).
    pub fn event_count(&self) -> usize {
        let mut total = 0;
        self.each_track(|_, _, events| total += events.len());
        total
    }

    /// Exports all retained events as Chrome trace-event JSON
    /// (`{"traceEvents":[...]}`), or `None` when disabled. Begin/end
    /// pairs are balanced per track: ends orphaned by ring overwrite are
    /// dropped and spans still open at export are closed at the last
    /// timestamp, so the output always satisfies the span-balance
    /// invariant checked by [`validate_chrome_trace`].
    pub fn export_chrome(&self) -> Option<String> {
        self.inner.is_some().then(|| chrome::export(self))
    }

    /// Exports all retained events as a JSONL causal log, or `None`
    /// when disabled: per track, a `trace.dropped` event when the ring
    /// overwrote anything, then its events in sequence order.
    pub fn export_causal(&self) -> Option<String> {
        self.inner.is_some().then(|| {
            let mut out = String::with_capacity(self.event_count() * 112);
            self.each_track(|track, dropped, events| {
                if dropped > 0 {
                    Event::warn("trace.dropped")
                        .arg("track", track.name.to_string())
                        .arg("dropped", dropped)
                        .render_into(&mut out);
                    out.push('\n');
                }
                for event in events {
                    event.render_into(&mut out);
                    out.push('\n');
                }
            });
            out
        })
    }

    /// Runs `f` over every track in creation order with its evicted
    /// count and retained events, oldest first — in place, so an export
    /// never holds a second copy of the rings.
    fn each_track(&self, mut f: impl FnMut(&TrackBuffer, u64, &[Event])) {
        let Some(shared) = &self.inner else {
            return;
        };
        let tracks = shared.tracks.lock().unwrap_or_else(|e| e.into_inner());
        for buf in tracks.iter() {
            buf.ring.with(|dropped, events| f(buf, dropped, events));
        }
    }
}

/// A live handle into one track's buffer.
#[derive(Debug, Clone)]
struct TrackHandle {
    shared: Arc<TraceShared>,
    buffer: Arc<TrackBuffer>,
}

impl TrackHandle {
    fn push(&self, kind: Cow<'static, str>, args: &[(&'static str, TraceValue)]) {
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        let ts_ns = u64::try_from(self.shared.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut event = Event::debug(kind);
        event.args = args
            .iter()
            .map(|(k, v)| (Cow::Borrowed(*k), v.clone()))
            .collect();
        event.stamp = Some(Stamp {
            track: Arc::clone(&self.buffer.name),
            seq,
            ts_ns,
        });
        self.buffer.ring.push(event);
    }
}

/// A per-thread emission handle: a clone of the track shares the same
/// buffer and sampling gate, so the runner, simulator and policy emit
/// into one interleaved sequence per worker.
///
/// Default-constructed (or obtained from a disabled [`Tracer`]) tracks
/// are no-ops: every method is a branch on `None` with no atomics, no
/// clock reads and no allocation.
#[derive(Debug, Clone, Default)]
pub struct TraceTrack {
    inner: Option<TrackHandle>,
}

impl TraceTrack {
    /// A no-op track (same as `TraceTrack::default()`).
    pub const fn disabled() -> Self {
        TraceTrack { inner: None }
    }

    /// Whether this track is connected to an enabled tracer.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the sampling gate: while inactive, `instant` and `span`
    /// emit nothing (ends of already-open spans still emit, keeping
    /// begin/end balanced). No-op on a disabled track.
    pub fn set_active(&self, on: bool) {
        if let Some(handle) = &self.inner {
            handle.buffer.active.store(on, Ordering::Relaxed);
        }
    }

    /// Whether the track is enabled *and* its sampling gate is open.
    /// This is the hot-path guard: a branch on `None` when disabled,
    /// one relaxed atomic load when enabled.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.live().is_some()
    }

    #[inline]
    fn live(&self) -> Option<&TrackHandle> {
        match &self.inner {
            Some(handle) if handle.buffer.active.load(Ordering::Relaxed) => Some(handle),
            _ => None,
        }
    }

    /// Emits an instant event of kind `name` with the given payload.
    /// No-op when the track is disabled or its gate is closed.
    pub fn instant(&self, name: &'static str, args: &[(&'static str, TraceValue)]) {
        if let Some(handle) = self.live() {
            handle.push(Cow::Borrowed(name), args);
        }
    }

    /// Opens a span: emits `<name>.begin` now, and the returned guard
    /// emits `<name>.end` when dropped (including during panic unwind)
    /// or on [`TraceSpan::finish`]. If the gate is closed no begin is
    /// emitted and the guard is inert.
    pub fn span(&self, name: &'static str) -> TraceSpan {
        self.span_with(name, &[])
    }

    /// [`TraceTrack::span`] with a payload on the begin event.
    pub fn span_with(&self, name: &'static str, args: &[(&'static str, TraceValue)]) -> TraceSpan {
        let armed = match self.live() {
            Some(handle) => {
                handle.push(Cow::Owned(format!("{name}.begin")), args);
                true
            }
            None => false,
        };
        TraceSpan {
            track: self.clone(),
            name,
            armed,
        }
    }
}

/// RAII guard for an open span; see [`TraceTrack::span`].
///
/// The end event bypasses the sampling gate: once a begin was emitted,
/// the matching end is emitted unconditionally so per-track begin/end
/// sequences stay balanced even if the gate flips mid-span.
#[derive(Debug)]
pub struct TraceSpan {
    track: TraceTrack,
    name: &'static str,
    armed: bool,
}

impl TraceSpan {
    /// Ends the span now instead of at scope exit.
    pub fn finish(mut self) {
        self.end();
    }

    fn end(&mut self) {
        if self.armed {
            self.armed = false;
            if let Some(handle) = &self.track.inner {
                handle.push(Cow::Owned(format!("{}.end", self.name)), &[]);
            }
        }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        self.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(tracer: &Tracer) -> Vec<Event> {
        let mut all = Vec::new();
        tracer.each_track(|_, _, events| all.extend_from_slice(events));
        all
    }

    fn kinds(tracer: &Tracer) -> Vec<String> {
        events(tracer)
            .into_iter()
            .map(|e| e.kind.into_owned())
            .collect()
    }

    #[test]
    fn disabled_tracks_are_noops() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let track = tracer.track("w");
        assert!(!track.is_enabled());
        assert!(!track.is_active());
        track.instant("x", &[("a", 1u64.into())]);
        let span = track.span("s");
        span.finish();
        assert!(tracer.export_chrome().is_none());
        assert!(tracer.export_causal().is_none());
        assert_eq!(tracer.event_count(), 0);
    }

    #[test]
    fn spans_and_instants_collect_in_order() {
        let tracer = Tracer::enabled();
        let track = tracer.track("w");
        {
            let _chunk = track.span("chunk");
            track.instant("request", &[("target", 3u64.into())]);
        }
        let got = kinds(&tracer);
        assert_eq!(got, vec!["chunk.begin", "request", "chunk.end",]);
        assert_eq!(tracer.event_count(), 3);
        assert_eq!(tracer.total_dropped(), 0);
    }

    #[test]
    fn sequence_numbers_are_globally_unique_and_ordered() {
        let tracer = Tracer::enabled();
        let a = tracer.track("a");
        let b = tracer.track("b");
        a.instant("x", &[]);
        b.instant("y", &[]);
        a.instant("z", &[]);
        let mut seqs: Vec<u64> = events(&tracer)
            .iter()
            .map(|e| e.stamp.as_ref().unwrap().seq)
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn sampling_gate_suppresses_events_but_not_span_ends() {
        let tracer = Tracer::enabled();
        let track = tracer.track("w");
        let span = track.span("chunk");
        track.set_active(false);
        assert!(!track.is_active());
        track.instant("dropped", &[]);
        let inert = track.span("never");
        inert.finish();
        span.finish(); // begin was emitted; end must follow despite the gate
        track.set_active(true);
        track.instant("kept", &[]);
        let got = kinds(&tracer);
        assert_eq!(got, vec!["chunk.begin", "chunk.end", "kept",]);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let tracer = Tracer::with_config(1, 4);
        let track = tracer.track("w");
        for i in 0..10u64 {
            track.instant("e", &[("i", i.into())]);
        }
        assert_eq!(tracer.event_count(), 4);
        assert_eq!(tracer.total_dropped(), 6);
        let kept: Vec<u64> = events(&tracer)
            .iter()
            .map(|e| e.stamp.as_ref().unwrap().seq)
            .collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn sample_hit_follows_the_period() {
        let tracer = Tracer::with_config(3, 64);
        assert!(tracer.sample_hit(0));
        assert!(!tracer.sample_hit(1));
        assert!(!tracer.sample_hit(2));
        assert!(tracer.sample_hit(3));
        assert_eq!(tracer.sample_every(), 3);
        let off = Tracer::disabled();
        assert!(!off.sample_hit(0));
        assert_eq!(off.sample_every(), 1);
    }

    #[test]
    fn clones_share_the_same_buffer_and_gate() {
        let tracer = Tracer::enabled();
        let track = tracer.track("w");
        let clone = track.clone();
        clone.set_active(false);
        track.instant("suppressed", &[]);
        clone.set_active(true);
        track.instant("a", &[]);
        clone.instant("b", &[]);
        assert_eq!(tracer.event_count(), 2);
    }

    #[test]
    fn causal_lines_are_events_and_floats_round_trip() {
        let tracer = Tracer::enabled();
        let track = tracer.track("w");
        let exact = 0.1f64 + 0.2f64; // not representable as a short decimal
        track.instant("request", &[("gain", exact.into()), ("ok", true.into())]);
        let log = tracer.export_causal().unwrap();
        let read = crate::check_events(&log).unwrap();
        assert_eq!(read.events.len(), 1);
        let event = &read.events[0];
        assert_eq!(event.kind, "request");
        let gain = event.get("gain").and_then(TraceValue::as_f64).unwrap();
        assert_eq!(gain.to_bits(), exact.to_bits());
        assert_eq!(event.get("ok"), Some(&TraceValue::Bool(true)));
    }

    #[test]
    fn drop_marker_reports_ring_overwrites() {
        let tracer = Tracer::with_config(1, 2);
        let track = tracer.track("w");
        for _ in 0..5 {
            track.instant("e", &[]);
        }
        let log = tracer.export_causal().unwrap();
        let first = crate::read_events(&log).events.remove(0);
        assert_eq!(first.kind, "trace.dropped");
        assert_eq!(first.get("dropped"), Some(&TraceValue::U64(3)));
    }

    #[test]
    fn span_end_emitted_on_panic_unwind() {
        let tracer = Tracer::enabled();
        let track = tracer.track("w");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = track.span("doomed");
            panic!("boom");
        }));
        assert!(result.is_err());
        let got = kinds(&tracer);
        assert_eq!(got, vec!["doomed.begin", "doomed.end",]);
    }
}
