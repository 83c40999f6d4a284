//! Streaming run progress: the [`Observer`] the experiment runner
//! emits its lifecycle events through. Each transition is built only
//! when the observer is enabled ([`Observer::emit`]). The observer
//! keeps live counters for the console status line, the watchdog and
//! the metrics endpoint, and streams the scheduling-independent kinds
//! unstamped:
//!
//! * `run.begin` — `args`: `cells` (the run's cell labels, one per
//!   line), `networks` (its `run.network` lines to come) and `episodes`;
//! * `run.network` — one per (network, cell) pair, the `network` index
//!   plus `args.cell` (the cell's index), `args.status` (`ok`,
//!   `resumed`, `quarantined` or `shed`) and the status's statistics;
//! * `run.end` / `run.fail` — the section's last line;
//! * `obs.alarm` — watchdog alarms (wall-clock events by nature; a run
//!   that raises none keeps the determinism guarantee below).
//!
//! The runner emits network lines in (network, cell) order whichever
//! worker finished first, and the observer writes every line as it
//! arrives, so the stream is **byte-identical across worker counts**
//! for a fixed seed.

use std::io::{self, IsTerminal as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::event::{Event, TraceValue};
use crate::snapshot::{GaugeSnapshot, JsonlSink};

/// Writes one line to the JSONL sink, if any; a failed write detaches
/// the sink.
fn write_line(sink: &mut Option<JsonlSink>, line: &str) {
    if let Some(stream) = sink {
        if let Err(err) = stream.write_line(line) {
            eprintln!("accu-obs: progress sink write failed: {err}");
            *sink = None;
        }
    }
}

/// Console rendering state (wall-clock side; throttled, stderr-only).
struct ConsoleState {
    last_render: Instant,
    needs_newline: bool,
}

struct ObserverInner {
    // Monotonic run counters (cumulative across cells in one process).
    episodes_done: AtomicU64,
    episodes_total: AtomicU64,
    networks_done: AtomicU64,
    networks_total: AtomicU64,
    faults_seen: AtomicU64,
    quarantined: AtomicU64,
    repaired: AtomicU64,
    resumed: AtomicU64,
    alarms: AtomicU64,
    /// Whether a run is between `run.begin` and `run.end` / `run.fail`.
    active: AtomicBool,
    /// Nanoseconds since `started` of the most recent episode (or run
    /// begin), for the stall watchdog.
    last_progress_ns: AtomicU64,
    started: Instant,
    console: bool,
    stderr_is_tty: bool,
    stream: Mutex<Option<JsonlSink>>,
    render: Mutex<ConsoleState>,
}

/// Point-in-time observer readings consumed by the watchdog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsStats {
    /// A run is currently active (`run.begin` seen, its end not).
    pub active: bool,
    /// Wall-clock time since the observer was created.
    pub elapsed: Duration,
    /// Wall-clock time since the last completed episode (or run begin).
    pub since_last_progress: Duration,
    /// Episodes completed so far (fresh + resumed).
    pub episodes_done: u64,
    /// Episodes announced by `run.begin` events so far.
    pub episodes_total: u64,
    /// Faults observed across all completed episodes.
    pub faults_seen: u64,
}

impl ObsStats {
    /// Mean episodes per wall-clock second since the observer started.
    pub fn eps_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.episodes_done as f64 / secs
        }
    }

    /// Mean faults per completed episode (0 before the first episode).
    pub fn fault_rate(&self) -> f64 {
        if self.episodes_done == 0 {
            0.0
        } else {
            self.faults_seen as f64 / self.episodes_done as f64
        }
    }
}

/// The progress sink: live run counters plus the deterministic event
/// stream described in the [module docs](self). The runner emits into
/// it; the watchdog and the metrics endpoint read its counters.
///
/// Like [`Recorder`](crate::Recorder), the observer is an `Option<Arc>`
/// handle: [`Observer::disabled`] (the [`Default`]) makes every method
/// a branch on `None`. Clones share state.
#[derive(Clone, Default)]
pub struct Observer(Option<Arc<ObserverInner>>);

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("enabled", &self.0.is_some())
            .finish()
    }
}

/// Minimum wall-clock gap between console status renders.
const RENDER_INTERVAL_TTY: Duration = Duration::from_millis(200);
/// Non-tty stderr (CI logs) gets milestone lines, much less often.
const RENDER_INTERVAL_PLAIN: Duration = Duration::from_secs(5);

impl Observer {
    /// An observer that ignores every hook.
    pub fn disabled() -> Self {
        Observer(None)
    }

    /// An observer streaming to `sink` (none: counters only — what
    /// the watchdog and the metrics endpoint run against without
    /// `--progress`), with or without the console status line on
    /// stderr.
    pub fn new(sink: Option<JsonlSink>, console: bool) -> Self {
        Observer(Some(Arc::new(ObserverInner {
            episodes_done: AtomicU64::new(0),
            episodes_total: AtomicU64::new(0),
            networks_done: AtomicU64::new(0),
            networks_total: AtomicU64::new(0),
            faults_seen: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            repaired: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            alarms: AtomicU64::new(0),
            active: AtomicBool::new(false),
            last_progress_ns: AtomicU64::new(0),
            started: Instant::now(),
            console,
            stderr_is_tty: io::stderr().is_terminal(),
            stream: Mutex::new(sink),
            render: Mutex::new(ConsoleState {
                last_render: Instant::now(),
                needs_newline: false,
            }),
        })))
    }

    /// Whether the hooks do anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Path of the JSONL stream, when one is attached.
    pub fn stream_path(&self) -> Option<PathBuf> {
        let inner = self.0.as_ref()?;
        let stream = inner.stream.lock().expect("obs stream poisoned");
        stream.as_ref().map(|s| s.path().to_path_buf())
    }

    fn touch(inner: &ObserverInner) {
        let ns = u64::try_from(inner.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        inner.last_progress_ns.store(ns, Ordering::Relaxed);
    }

    /// Signals liveness without counting progress: the runner calls
    /// this when a worker claims work, so the stall watchdog measures
    /// from the last *sign of life* rather than the last completed
    /// episode (which can legitimately be long on large networks).
    pub fn heartbeat(&self) {
        if let Some(inner) = &self.0 {
            Self::touch(inner);
        }
    }

    /// Records one completed episode with the faults it observed.
    /// Called from worker threads; cheap (atomics plus an occasional
    /// throttled console render).
    pub fn episode_done(&self, faults: u64) {
        let Some(inner) = &self.0 else { return };
        inner.episodes_done.fetch_add(1, Ordering::Relaxed);
        inner.faults_seen.fetch_add(faults, Ordering::Relaxed);
        Self::touch(inner);
        if inner.console {
            self.maybe_render(inner);
        }
    }

    /// Records the event `build` returns; `build` runs only when the
    /// observer is enabled, so a disabled run builds no event.
    pub fn emit(&self, build: impl FnOnce() -> Event) {
        if self.is_enabled() {
            self.record(&build());
        }
    }

    /// Records one event: counts it and streams it when its kind is a
    /// progress kind (see the [module docs](self)); other kinds are
    /// ignored.
    pub fn record(&self, event: &Event) {
        let Some(inner) = &self.0 else { return };
        let num = |key: &str| event.get(key).and_then(TraceValue::as_u64).unwrap_or(0);
        let mut stream = inner.stream.lock().expect("obs stream poisoned");
        match event.kind.as_ref() {
            "run.begin" => {
                inner
                    .networks_total
                    .fetch_add(num("networks"), Ordering::Relaxed);
                inner
                    .episodes_total
                    .fetch_add(num("episodes"), Ordering::Relaxed);
                inner.active.store(true, Ordering::Relaxed);
                Self::touch(inner);
                write_line(&mut stream, &event.to_json());
            }
            "run.network" => {
                inner.networks_done.fetch_add(1, Ordering::Relaxed);
                let counter = match event.get("status").and_then(TraceValue::as_str) {
                    Some("ok") if event.get("repaired") == Some(&TraceValue::Bool(true)) => {
                        Some(&inner.repaired)
                    }
                    Some("resumed") => {
                        inner
                            .episodes_done
                            .fetch_add(num("episodes"), Ordering::Relaxed);
                        Some(&inner.resumed)
                    }
                    Some("quarantined") => Some(&inner.quarantined),
                    _ => None,
                };
                if let Some(counter) = counter {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                Self::touch(inner);
                write_line(&mut stream, &event.to_json());
            }
            "run.end" | "run.fail" => {
                inner.active.store(false, Ordering::Relaxed);
                write_line(&mut stream, &event.to_json());
                if let Some(sink) = &mut *stream {
                    if let Err(err) = sink.flush() {
                        eprintln!("accu-obs: progress sink flush failed: {err}");
                    }
                }
                drop(stream);
                if inner.console {
                    self.finish_console_line(inner);
                }
            }
            "obs.alarm" => {
                inner.alarms.fetch_add(1, Ordering::Relaxed);
                write_line(&mut stream, &event.to_json());
            }
            _ => {}
        }
    }

    /// Number of watchdog alarms recorded (drives `--watchdog=strict`).
    pub fn alarm_count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.alarms.load(Ordering::Relaxed))
    }

    /// Current readings for the watchdog.
    pub fn stats(&self) -> ObsStats {
        match &self.0 {
            None => ObsStats {
                active: false,
                elapsed: Duration::ZERO,
                since_last_progress: Duration::ZERO,
                episodes_done: 0,
                episodes_total: 0,
                faults_seen: 0,
            },
            Some(inner) => {
                let elapsed = inner.started.elapsed();
                let last = Duration::from_nanos(inner.last_progress_ns.load(Ordering::Relaxed));
                ObsStats {
                    active: inner.active.load(Ordering::Relaxed),
                    elapsed,
                    since_last_progress: elapsed.saturating_sub(last),
                    episodes_done: inner.episodes_done.load(Ordering::Relaxed),
                    episodes_total: inner.episodes_total.load(Ordering::Relaxed),
                    faults_seen: inner.faults_seen.load(Ordering::Relaxed),
                }
            }
        }
    }

    /// Live observer state as gauge samples, merged into the metrics
    /// server's scrape under `obs.*` names.
    pub fn gauge_snapshots(&self) -> Vec<GaugeSnapshot> {
        let Some(inner) = &self.0 else {
            return Vec::new();
        };
        let g = |name: &str, value: u64| GaugeSnapshot {
            name: name.to_string(),
            value: i64::try_from(value).unwrap_or(i64::MAX),
        };
        vec![
            g(
                "obs.episodes_done",
                inner.episodes_done.load(Ordering::Relaxed),
            ),
            g(
                "obs.episodes_total",
                inner.episodes_total.load(Ordering::Relaxed),
            ),
            g(
                "obs.networks_done",
                inner.networks_done.load(Ordering::Relaxed),
            ),
            g(
                "obs.networks_total",
                inner.networks_total.load(Ordering::Relaxed),
            ),
            g("obs.faults_seen", inner.faults_seen.load(Ordering::Relaxed)),
            g("obs.quarantined", inner.quarantined.load(Ordering::Relaxed)),
            g("obs.repaired", inner.repaired.load(Ordering::Relaxed)),
            g("obs.resumed", inner.resumed.load(Ordering::Relaxed)),
            g("obs.alarms", inner.alarms.load(Ordering::Relaxed)),
        ]
    }

    /// Renders the status line if the throttle window has passed.
    /// `try_lock` keeps workers from ever blocking on rendering.
    fn maybe_render(&self, inner: &ObserverInner) {
        let Ok(mut render) = inner.render.try_lock() else {
            return;
        };
        let interval = if inner.stderr_is_tty {
            RENDER_INTERVAL_TTY
        } else {
            RENDER_INTERVAL_PLAIN
        };
        if render.last_render.elapsed() < interval {
            return;
        }
        render.last_render = Instant::now();
        let stats = self.stats();
        let eps = stats.eps_per_sec();
        let eta = if eps > 0.0 && stats.episodes_total > stats.episodes_done {
            let secs = (stats.episodes_total - stats.episodes_done) as f64 / eps;
            format!("{}s", secs.round() as u64)
        } else {
            "-".to_string()
        };
        let pct = if stats.episodes_total > 0 {
            100.0 * stats.episodes_done as f64 / stats.episodes_total as f64
        } else {
            0.0
        };
        let line = format!(
            "{}/{} episodes ({pct:.1}%) | {eps:.1} eps/s | ETA {eta} | nets {}/{} | faults {}",
            stats.episodes_done,
            stats.episodes_total,
            inner.networks_done.load(Ordering::Relaxed),
            inner.networks_total.load(Ordering::Relaxed),
            stats.faults_seen,
        );
        if inner.stderr_is_tty {
            eprint!("\r\x1b[2K{line}");
            render.needs_newline = true;
        } else {
            eprintln!("{line}");
        }
    }

    /// Terminates a `\r`-style status line so later output starts on a
    /// fresh line.
    fn finish_console_line(&self, inner: &ObserverInner) {
        let mut render = inner.render.lock().expect("obs render poisoned");
        if render.needs_newline {
            eprintln!();
            render.needs_newline = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("accu-obs-progress-{}-{name}", std::process::id()))
    }

    fn to_path(path: &std::path::Path) -> Observer {
        Observer::new(Some(JsonlSink::create(path).unwrap()), false)
    }

    fn begin(cells: &'static str, networks: u64, episodes: u64) -> Event {
        Event::info("run.begin")
            .arg("cells", cells)
            .arg("networks", networks)
            .arg("episodes", episodes)
    }

    fn network(net: u64, status: &'static str) -> Event {
        Event::info("run.network")
            .network(net)
            .arg("status", status)
    }

    fn ok(net: u64, episodes: u64, repaired: bool) -> Event {
        network(net, "ok")
            .arg("episodes", episodes)
            .arg("mean_benefit", 1.0)
            .arg("faults_mean", 0.0)
            .arg("repaired", repaired)
    }

    #[test]
    fn disabled_observer_is_inert() {
        let obs = Observer::disabled();
        obs.record(&begin("cell", 3, 6));
        obs.episode_done(1);
        obs.record(&ok(0, 2, false));
        obs.record(&Event::info("run.end"));
        assert!(!obs.is_enabled());
        assert_eq!(obs.stats().episodes_done, 0);
        assert_eq!(obs.alarm_count(), 0);
        assert!(obs.gauge_snapshots().is_empty());
        assert!(obs.stream_path().is_none());
        obs.emit(|| unreachable!("a disabled observer builds no event"));
    }

    #[test]
    fn network_lines_stream_as_they_arrive_and_count_by_status() {
        let path = tmp("status.jsonl");
        let obs = to_path(&path);
        obs.record(&begin("cell-a\ncell-b", 3, 6));
        obs.record(&ok(0, 2, true));
        obs.record(&network(1, "resumed").arg("episodes", 2u64));
        obs.record(&Event::debug("run.chunk").network(1));
        obs.record(
            &network(2, "quarantined")
                .arg("stage", "protocol")
                .arg("message", "boom \"quoted\""),
        );
        obs.record(&Event::info("run.end").arg("completed", 2u64));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "run.chunk is not a progress kind");
        assert!(lines[0].contains("\"cells\":\"cell-a\\ncell-b\""));
        assert!(lines[1].contains("\"network\":0,") && lines[1].contains("\"repaired\":true"));
        assert!(lines[2].contains("\"status\":\"resumed\""));
        assert!(lines[3].contains("\"message\":\"boom \\\"quoted\\\"\""));
        assert!(lines[4].contains("\"kind\":\"run.end\""));
        let gauges = obs.gauge_snapshots();
        for (name, value) in [
            ("obs.quarantined", 1),
            ("obs.resumed", 1),
            ("obs.repaired", 1),
            ("obs.episodes_done", 2),
            ("obs.networks_done", 3),
        ] {
            assert!(
                gauges.iter().any(|g| g.name == name && g.value == value),
                "{name} != {value}: {gauges:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counters_track_episodes_and_alarms() {
        let path = tmp("counters.jsonl");
        let obs = to_path(&path);
        obs.record(&begin("c", 1, 4));
        obs.episode_done(0);
        obs.episode_done(3);
        let stats = obs.stats();
        assert!(stats.active);
        assert_eq!(stats.episodes_done, 2);
        assert_eq!(stats.episodes_total, 4);
        assert_eq!(stats.faults_seen, 3);
        assert!(stats.fault_rate() > 1.4 && stats.fault_rate() < 1.6);
        obs.record(&Event::error("obs.alarm").arg("alarm", "stall"));
        assert_eq!(obs.alarm_count(), 1);
        let gauges = obs.gauge_snapshots();
        assert!(gauges
            .iter()
            .any(|g| g.name == "obs.episodes_done" && g.value == 2));
        assert!(gauges
            .iter()
            .any(|g| g.name == "obs.alarms" && g.value == 1));
        obs.record(&ok(0, 4, false));
        obs.record(&Event::info("run.end"));
        assert!(!obs.stats().active);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"kind\":\"obs.alarm\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shed_networks_stream_without_statistics() {
        let path = tmp("shed.jsonl");
        let obs = to_path(&path);
        obs.record(&begin("c", 2, 4));
        obs.record(&ok(0, 2, false));
        obs.record(&network(1, "shed"));
        obs.record(&Event::info("run.end"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(
            r#"{"type":"event","sev":"info","kind":"run.network","network":1,"args":{"status":"shed"}}"#
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heartbeat_updates_liveness_without_progress() {
        let obs = Observer::new(None, false);
        obs.record(&begin("c", 1, 100));
        std::thread::sleep(Duration::from_millis(20));
        assert!(obs.stats().since_last_progress >= Duration::from_millis(10));
        obs.heartbeat();
        assert!(obs.stats().since_last_progress < Duration::from_millis(10));
        assert_eq!(obs.stats().episodes_done, 0, "heartbeat is not progress");
        // Inert on a disabled observer.
        Observer::disabled().heartbeat();
    }

    #[test]
    fn clones_share_state() {
        let obs = Observer::new(None, true);
        let clone = obs.clone();
        obs.record(&begin("c", 1, 2));
        clone.episode_done(0);
        assert_eq!(obs.stats().episodes_done, 1);
    }
}
