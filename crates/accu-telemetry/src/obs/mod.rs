//! # accu-obs: live observability over the telemetry registry
//!
//! Everything in [`crate`] outside this module is *post-hoc*: metrics
//! accumulate silently and are snapshotted once at exit. This module
//! makes a run observable **while it runs**, with four dependency-free
//! pieces:
//!
//! * [`prometheus`] — a Prometheus-text-format (0.0.4) encoder over
//!   [`Snapshot`](crate::Snapshot), plus a validator for tests and CI;
//! * [`server`] — a background-thread TCP/HTTP listener serving live
//!   scrapes of a [`Recorder`](crate::Recorder) (the `--metrics-addr`
//!   flag of the experiment binaries);
//! * [`progress`] — the [`Observer`] the runner emits its lifecycle
//!   events into: console status line plus a deterministic event stream
//!   that is byte-identical across worker counts (the `--progress`
//!   flag);
//! * [`watchdog`] — rule-based monitors over the live observer state:
//!   stall detection, an explicit throughput floor, and fault-rate
//!   spike alarms, emitting `obs.alarm` events (the `--watchdog` flag).
//!
//! Cross-run analytics (`telemetry_diff`, `bench_report`) live in the
//! experiments crate, which owns the JSONL artifacts they compare.

pub mod progress;
pub mod prometheus;
pub mod server;
pub mod watchdog;

pub use progress::Observer;
pub use prometheus::{encode_prometheus, validate_prometheus, PromStats};
pub use server::{BindError, MetricsServer};
pub use watchdog::{Watchdog, WatchdogConfig};
