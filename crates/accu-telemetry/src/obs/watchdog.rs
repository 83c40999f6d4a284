//! Rule-based watchdogs over the live [`Observer`] state.
//!
//! Three monitors, each firing at most once per run (latched):
//!
//! * **stall** — no episode completed within the stall window;
//! * **throughput_floor** — sustained eps/s below an explicit floor
//!   (`floor=EPS`; off unless given);
//! * **fault_rate** — mean faults per episode above a ceiling.
//!
//! Each alarm is an `obs.alarm` [`Event`] printed on stderr and recorded
//! on the observer (into the progress stream, and counted so
//! `--watchdog=strict` can turn it into a nonzero exit after the run).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::event::Event;
use crate::obs::progress::{ObsStats, Observer};

/// One fired rule as an `obs.alarm` event: the rule (`stall`,
/// `throughput_floor`, `fault_rate`) as the `alarm` argument, a
/// human-readable `msg`, the observed `value` and the `threshold` it
/// crossed.
fn alarm(rule: &'static str, message: String, value: f64, threshold: f64) -> Event {
    Event::error("obs.alarm")
        .arg("alarm", rule)
        .msg(message)
        .arg("value", value)
        .arg("threshold", threshold)
}

/// Watchdog rule thresholds. Parsed from the `--watchdog` flag value by
/// [`WatchdogConfig::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogConfig {
    /// Fire the `stall` alarm when no episode completes for this long.
    pub stall_window: Duration,
    /// Fire the `throughput_floor` alarm when eps/s drops below this
    /// (disabled when `None`).
    pub min_eps: Option<f64>,
    /// Fire the `fault_rate` alarm when faults per episode exceed this
    /// (disabled when `None`).
    pub fault_rate_max: Option<f64>,
    /// Grace period after start before the stall and throughput rules
    /// arm (network generation produces no episodes).
    pub warmup: Duration,
    /// Exit nonzero after the run if any alarm fired.
    pub strict: bool,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_window: Duration::from_secs(30),
            min_eps: None,
            fault_rate_max: None,
            warmup: Duration::from_secs(5),
            strict: false,
        }
    }
}

impl WatchdogConfig {
    /// Parses the `--watchdog` flag value: a comma-separated list of
    /// `strict`, `stall=SECS`, `floor=EPS`, `faults=RATE`,
    /// `warmup=SECS`. The empty string yields the defaults.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unrecognized or unparseable token.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut config = WatchdogConfig::default();
        for token in spec.split(',').filter(|t| !t.is_empty()) {
            match token.split_once('=') {
                None if token == "strict" => config.strict = true,
                Some(("stall", v)) => {
                    config.stall_window = parse_secs(v, "stall")?;
                }
                Some(("warmup", v)) => {
                    config.warmup = parse_secs(v, "warmup")?;
                }
                Some(("floor", v)) => {
                    config.min_eps = Some(parse_rate(v, "floor")?);
                }
                Some(("faults", v)) => {
                    config.fault_rate_max = Some(parse_rate(v, "faults")?);
                }
                _ => return Err(format!("unknown watchdog option {token:?}")),
            }
        }
        Ok(config)
    }
}

fn parse_secs(v: &str, opt: &str) -> Result<Duration, String> {
    v.parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s >= 0.0)
        .map(Duration::from_secs_f64)
        .ok_or_else(|| format!("watchdog {opt} wants seconds, got {v:?}"))
}

fn parse_rate(v: &str, opt: &str) -> Result<f64, String> {
    v.parse::<f64>()
        .ok()
        .filter(|r| r.is_finite() && *r >= 0.0)
        .ok_or_else(|| format!("watchdog {opt} wants a non-negative number, got {v:?}"))
}

/// Per-kind latches so each rule fires at most once.
#[derive(Debug, Default)]
struct Latches {
    stall: bool,
    floor: bool,
    faults: bool,
}

/// Evaluates the rules against one reading; pure so tests can drive it
/// with synthetic stats.
fn evaluate(config: &WatchdogConfig, stats: &ObsStats, latches: &mut Latches) -> Vec<Event> {
    let mut fired = Vec::new();
    let armed = stats.active && stats.elapsed >= config.warmup;
    if armed && !latches.stall && stats.since_last_progress >= config.stall_window {
        latches.stall = true;
        let stalled = stats.since_last_progress.as_secs_f64();
        let window = config.stall_window.as_secs_f64();
        fired.push(alarm(
            "stall",
            format!("no episode completed for {stalled:.1}s (window {window:.1}s)"),
            stalled,
            window,
        ));
    }
    if let Some(floor) = config.min_eps {
        let eps = stats.eps_per_sec();
        if armed && !latches.floor && eps < floor {
            latches.floor = true;
            fired.push(alarm(
                "throughput_floor",
                format!("throughput {eps:.2} eps/s below floor {floor:.2}"),
                eps,
                floor,
            ));
        }
    }
    if let Some(ceiling) = config.fault_rate_max {
        let rate = stats.fault_rate();
        if !latches.faults && stats.episodes_done > 0 && rate > ceiling {
            latches.faults = true;
            fired.push(alarm(
                "fault_rate",
                format!("fault rate {rate:.3} per episode above {ceiling:.3}"),
                rate,
                ceiling,
            ));
        }
    }
    fired
}

/// A background monitor thread evaluating [`WatchdogConfig`] rules
/// against an [`Observer`] every few hundred milliseconds until
/// dropped.
#[derive(Debug)]
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// Rule evaluation cadence.
const TICK: Duration = Duration::from_millis(250);

impl Watchdog {
    /// Starts the monitor thread. A disabled observer still works — the
    /// stall rule simply never sees progress, so pair the watchdog with
    /// an enabled observer in practice.
    pub fn spawn(config: WatchdogConfig, observer: Observer) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("accu-obs-watchdog".to_string())
            .spawn(move || {
                let mut latches = Latches::default();
                while !thread_stop.load(Ordering::Relaxed) {
                    let stats = observer.stats();
                    // Each alarm goes to stderr and to the observer (alarm
                    // count + progress stream).
                    for alarm in evaluate(&config, &stats, &mut latches) {
                        eprintln!("{}", alarm.to_json());
                        observer.record(&alarm);
                    }
                    std::thread::park_timeout(TICK);
                }
            })
            .expect("failed to spawn watchdog thread");
        Watchdog {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceValue;

    fn stats(active: bool, elapsed: f64, since_last: f64, done: u64, faults: u64) -> ObsStats {
        ObsStats {
            active,
            elapsed: Duration::from_secs_f64(elapsed),
            since_last_progress: Duration::from_secs_f64(since_last),
            episodes_done: done,
            episodes_total: 100,
            faults_seen: faults,
        }
    }

    #[test]
    fn parse_accepts_all_options_and_rejects_junk() {
        let d = WatchdogConfig::parse("").unwrap();
        assert_eq!(d, WatchdogConfig::default());
        let c = WatchdogConfig::parse("strict,stall=10,floor=5.5,faults=0.25,warmup=1").unwrap();
        assert!(c.strict);
        assert_eq!(c.stall_window, Duration::from_secs(10));
        assert_eq!(c.min_eps, Some(5.5));
        assert_eq!(c.fault_rate_max, Some(0.25));
        assert_eq!(c.warmup, Duration::from_secs(1));
        assert!(WatchdogConfig::parse("bogus").is_err());
        assert!(WatchdogConfig::parse("stall=abc").is_err());
        assert!(WatchdogConfig::parse("floor=-1").is_err());
    }

    #[test]
    fn stall_rule_fires_once_after_warmup() {
        let config = WatchdogConfig {
            stall_window: Duration::from_secs(30),
            warmup: Duration::from_secs(5),
            ..WatchdogConfig::default()
        };
        let mut latches = Latches::default();
        // Inside warmup: silent even though nothing has happened.
        assert!(evaluate(&config, &stats(true, 3.0, 3.0, 0, 0), &mut latches).is_empty());
        // Armed and stalled: fires.
        let fired = evaluate(&config, &stats(true, 40.0, 35.0, 2, 0), &mut latches);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, "obs.alarm");
        assert!(fired[0].to_json().contains("\"alarm\":\"stall\""));
        // Latched: never again.
        assert!(evaluate(&config, &stats(true, 80.0, 75.0, 2, 0), &mut latches).is_empty());
        // Inactive runs never stall.
        let mut fresh = Latches::default();
        assert!(evaluate(&config, &stats(false, 40.0, 35.0, 2, 0), &mut fresh).is_empty());
    }

    #[test]
    fn throughput_floor_and_fault_rules() {
        let config = WatchdogConfig {
            min_eps: Some(10.0),
            fault_rate_max: Some(0.5),
            warmup: Duration::from_secs(5),
            ..WatchdogConfig::default()
        };
        let mut latches = Latches::default();
        // 20 episodes in 10 s = 2 eps/s < 10; 15 faults / 20 eps = 0.75
        // > 0.5 → both rules fire in one tick.
        let fired = evaluate(&config, &stats(true, 10.0, 0.1, 20, 15), &mut latches);
        let rules: Vec<&str> = fired
            .iter()
            .map(|a| a.get("alarm").and_then(TraceValue::as_str).unwrap())
            .collect();
        assert_eq!(rules, vec!["throughput_floor", "fault_rate"]);
        let num = |key: &str| fired[0].get(key).and_then(TraceValue::as_f64).unwrap();
        assert!((num("value") - 2.0).abs() < 1e-9);
        assert_eq!(num("threshold"), 10.0);
        // Healthy stats fire nothing.
        let mut fresh = Latches::default();
        assert!(evaluate(&config, &stats(true, 10.0, 0.1, 200, 10), &mut fresh).is_empty());
    }

    #[test]
    fn spawned_watchdog_reports_through_the_observer() {
        let path =
            std::env::temp_dir().join(format!("accu-obs-watchdog-{}.jsonl", std::process::id()));
        let obs = Observer::new(Some(crate::JsonlSink::create(&path).unwrap()), false);
        obs.record(
            &Event::info("run.begin")
                .arg("networks", 1u64)
                .arg("episodes", 10u64),
        );
        obs.episode_done(5); // fault rate 5.0
        let config = WatchdogConfig {
            fault_rate_max: Some(1.0),
            ..WatchdogConfig::default()
        };
        let dog = Watchdog::spawn(config, obs.clone());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while obs.alarm_count() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        drop(dog);
        assert_eq!(obs.alarm_count(), 1);
        obs.record(&Event::info("run.end"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"alarm\":\"fault_rate\""));
        std::fs::remove_file(&path).ok();
    }
}
