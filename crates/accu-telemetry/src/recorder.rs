//! The [`Recorder`] handle and its metric registry.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::counter::{Counter, CounterHandle};
use crate::gauge::{Gauge, GaugeHandle};
use crate::histogram::{Histogram, HistogramHandle};
use crate::snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, Snapshot};

/// The shared registry behind an enabled recorder.
#[derive(Debug, Default)]
struct Registry {
    counters: Mutex<BTreeMap<Cow<'static, str>, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<Cow<'static, str>, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<Cow<'static, str>, Arc<Histogram>>>,
}

/// An explicit telemetry handle, threaded through the instrumented
/// layers (never a global).
///
/// Cloning is cheap (an `Arc` bump) and clones share one registry, so a
/// recorder can be handed to every worker thread of the experiment
/// runner and snapshotted once at the end.
///
/// A **disabled** recorder ([`Recorder::disabled`], also the
/// [`Default`]) hands out no-op [`CounterHandle`]s and
/// [`HistogramHandle`]s: registering costs nothing, incrementing is a
/// branch on `None`, and spans never read the clock. Instrumented code
/// therefore takes `&Recorder` unconditionally and pays near-zero cost
/// unless telemetry was requested.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Registry>>,
}

impl Recorder {
    /// A recorder that collects metrics into a fresh registry.
    pub fn enabled() -> Self {
        Recorder {
            inner: Some(Arc::new(Registry::default())),
        }
    }

    /// A recorder whose handles are all no-ops.
    pub const fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A recorder that is enabled iff `on` (CLI-flag convenience).
    pub fn new(on: bool) -> Self {
        if on {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    }

    /// Whether metrics are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or retrieves) the counter `name` and returns a handle
    /// to it. Fetch handles once, outside hot loops: the lookup takes a
    /// registry lock, the returned handle's `add` does not.
    pub fn counter(&self, name: impl Into<Cow<'static, str>>) -> CounterHandle {
        match &self.inner {
            None => CounterHandle::noop(),
            Some(reg) => {
                let mut map = reg.counters.lock().expect("telemetry registry poisoned");
                CounterHandle(Some(Arc::clone(map.entry(name.into()).or_default())))
            }
        }
    }

    /// Registers (or retrieves) the gauge `name` and returns a handle
    /// to it.
    pub fn gauge(&self, name: impl Into<Cow<'static, str>>) -> GaugeHandle {
        match &self.inner {
            None => GaugeHandle::noop(),
            Some(reg) => {
                let mut map = reg.gauges.lock().expect("telemetry registry poisoned");
                GaugeHandle(Some(Arc::clone(map.entry(name.into()).or_default())))
            }
        }
    }

    /// Registers (or retrieves) the histogram `name` and returns a
    /// handle to it.
    pub fn histogram(&self, name: impl Into<Cow<'static, str>>) -> HistogramHandle {
        match &self.inner {
            None => HistogramHandle::noop(),
            Some(reg) => {
                let mut map = reg.histograms.lock().expect("telemetry registry poisoned");
                HistogramHandle(Some(Arc::clone(map.entry(name.into()).or_default())))
            }
        }
    }

    /// Captures the current state of every registered metric, sorted by
    /// name. Returns `None` for a disabled recorder.
    pub fn snapshot(&self, label: &str) -> Option<Snapshot> {
        let reg = self.inner.as_ref()?;
        let counters = reg
            .counters
            .lock()
            .expect("telemetry registry poisoned")
            .iter()
            .map(|(name, c)| CounterSnapshot {
                name: name.to_string(),
                value: c.value(),
            })
            .collect();
        let gauges = reg
            .gauges
            .lock()
            .expect("telemetry registry poisoned")
            .iter()
            .map(|(name, g)| GaugeSnapshot {
                name: name.to_string(),
                value: g.value(),
            })
            .collect();
        let histograms = reg
            .histograms
            .lock()
            .expect("telemetry registry poisoned")
            .iter()
            .map(|(name, h)| HistogramSnapshot {
                name: name.to_string(),
                count: h.count(),
                sum: h.sum(),
                mean: h.mean(),
                min: h.min(),
                p50: h.quantile(0.5),
                p90: h.quantile(0.9),
                p99: h.quantile(0.99),
                max: h.max(),
                buckets: h
                    .bucket_counts()
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n > 0)
                    .map(|(i, &n)| (i as u8, n))
                    .collect(),
            })
            .collect();
        Some(Snapshot {
            label: label.to_string(),
            counters,
            gauges,
            histograms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.counter("x").add(5);
        rec.gauge("g").set(5);
        rec.histogram("y").record(5);
        assert!(rec.snapshot("s").is_none());
        assert!(!Recorder::default().is_enabled());
        assert!(!Recorder::new(false).is_enabled());
        assert!(Recorder::new(true).is_enabled());
    }

    #[test]
    fn same_name_shares_the_metric() {
        let rec = Recorder::enabled();
        rec.counter("hits").incr();
        rec.counter("hits").add(2);
        rec.histogram("lat").record(7);
        rec.histogram("lat").record(9);
        let snap = rec.snapshot("end").unwrap();
        assert_eq!(snap.counter("hits"), Some(3));
        let h = snap.histogram("lat").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 16);
    }

    #[test]
    fn gauges_snapshot_and_lookup() {
        let rec = Recorder::enabled();
        rec.gauge("inflight").set(4);
        rec.gauge("inflight").sub(1);
        let snap = rec.snapshot("s").unwrap();
        assert_eq!(snap.gauge("inflight"), Some(3));
        assert_eq!(snap.gauge("missing"), None);
        assert!(snap.to_json().contains("\"gauges\":{\"inflight\":3}"));
    }

    #[test]
    fn clones_share_one_registry() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        std::thread::scope(|s| {
            let c = clone.clone();
            s.spawn(move || {
                let h = c.counter("episodes");
                for _ in 0..100 {
                    h.incr();
                }
            });
        });
        rec.counter("episodes").incr();
        assert_eq!(rec.snapshot("x").unwrap().counter("episodes"), Some(101));
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let rec = Recorder::enabled();
        rec.counter("b").incr();
        rec.counter("a").incr();
        rec.counter("c").incr();
        let names: Vec<String> = rec
            .snapshot("s")
            .unwrap()
            .counters
            .into_iter()
            .map(|c| c.name)
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn owned_and_static_names_collide_correctly() {
        let rec = Recorder::enabled();
        rec.counter("worker.0.episodes").incr();
        rec.counter(String::from("worker.0.episodes")).incr();
        assert_eq!(
            rec.snapshot("s").unwrap().counter("worker.0.episodes"),
            Some(2)
        );
    }
}
