//! # accu-telemetry
//!
//! Structured runtime telemetry for the ACCU workspace: lock-free
//! counters, log-bucketed latency histograms, RAII span timers, and
//! machine-readable JSONL snapshots.
//!
//! The central type is the [`Recorder`] — a cheaply cloneable handle
//! that is threaded *explicitly* through the instrumented layers (no
//! global state). A recorder is either **enabled**, backed by a shared
//! metric registry, or **disabled**, in which case every handle it
//! yields is a no-op whose hot-path methods compile down to a branch on
//! `None`:
//!
//! ```
//! use accu_telemetry::Recorder;
//!
//! let rec = Recorder::enabled();
//! let accepted = rec.counter("sim.accepted");
//! let latency = rec.histogram("sim.select_ns");
//!
//! accepted.incr();
//! {
//!     let _span = latency.span(); // records elapsed nanos on drop
//! }
//! let snap = rec.snapshot("episode").expect("enabled recorder snapshots");
//! assert_eq!(snap.counter("sim.accepted"), Some(1));
//! assert!(snap.to_json().contains("\"sim.accepted\":1"));
//!
//! // Disabled recorders hand out no-op handles: zero allocation,
//! // zero atomics, no clock reads.
//! let off = Recorder::disabled();
//! off.counter("sim.accepted").incr();
//! assert!(off.snapshot("episode").is_none());
//! ```
//!
//! ## Layers instrumented in this workspace
//!
//! * the simulator (`accu_core::run_attack_with` with a recorder in its
//!   `AttackOptions`): per-request
//!   select/resolve/notify timing, acceptance and cautious-hit counters;
//! * the ABM policy (`accu_core::policy::Abm`): winner-tree key sets
//!   and retirements (`abm.heap_push` / `abm.heap_pop`), selects and
//!   re-key counts;
//! * the experiment runner (`accu_experiments::run_lineup_with` with a
//!   recorder in its `RunOptions`):
//!   per-worker episode throughput, per-network wall clock, load
//!   imbalance.
//!
//! Snapshots serialize to a single JSON object per line (JSONL) via
//! [`Snapshot::to_json`] and [`JsonlSink`], so bench and experiment
//! runs can be diffed at counter granularity across commits.
//!
//! Aggregate metrics answer "how much"; events answer "why". Every
//! event stream — the [`trace`] module's ring-buffered per-thread
//! tracks ([`Tracer`] / [`TraceTrack`], also exported as Chrome
//! trace-event JSON), the runner's progress stream and the watchdog's
//! alarms — writes one line shape, the [`Event`], read back by
//! [`read_events`] and validated by [`check_events`].

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod counter;
pub mod event;
mod gauge;
mod histogram;
pub mod obs;
mod recorder;
mod snapshot;
pub mod trace;

pub use counter::{Counter, CounterHandle};
pub use event::{check_events, read_events, Event, EventRead, Severity, Stamp, TraceValue};
pub use gauge::{Gauge, GaugeHandle};
pub use histogram::{Histogram, HistogramHandle, SpanGuard};
pub use recorder::Recorder;
pub use snapshot::{
    json_escape, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, JsonlSink, Snapshot,
};
pub use trace::{
    parse_json, validate_chrome_trace, ChromeTraceStats, Json, TraceSpan, TraceTrack, Tracer,
    DEFAULT_TRACK_CAPACITY,
};
