//! Point-in-time metric snapshots and the JSONL sink.
//!
//! The workspace has no serde; snapshots serialize through a small
//! hand-rolled JSON writer, one object per line, beside
//! [`Event`](crate::Event) lines, and [`Snapshot::from_json`] reads a
//! line back:
//!
//! ```json
//! {"type":"snapshot","label":"fig2/ABM","counters":{"sim.requests":900},
//!  "gauges":{"runner.inflight":4},
//!  "histograms":{"sim.select_ns":{"count":900,"sum":12345,"mean":13.7,
//!  "min":4,"p50":15,"p90":31,"p99":63,"max":214,"buckets":[[2,450],[4,449],[7,1]]}}}
//! {"type":"event","sev":"info","kind":"derived","args":{"acceptance_rate":0.4}}
//! ```

use std::fmt::{self, Write as _};
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::event::Event;
use crate::trace::{parse_json, Json};

/// One counter's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// One gauge's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Gauge value.
    pub value: i64,
}

/// One histogram's summary at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Exact sum of samples.
    pub sum: u64,
    /// Exact mean sample.
    pub mean: f64,
    /// Exact minimum sample.
    pub min: u64,
    /// Estimated median (bucket upper bound).
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Non-empty power-of-two buckets as `(bucket index, count)` pairs,
    /// sorted by index: bucket `i` holds samples whose highest set bit
    /// is `i` (upper edge `2^(i+1) − 1`). This is the raw shape the
    /// Prometheus exposition and `telemetry_diff`'s histogram-shift
    /// analysis are computed from.
    pub buckets: Vec<(u8, u64)>,
}

/// A labelled point-in-time capture of a recorder's registry.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Free-form label (experiment id, bench name, …).
    pub label: String,
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Serializes to a single JSON object (one JSONL line, no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"type\":\"snapshot\",\"label\":\"");
        out.push_str(&json_escape(&self.label));
        out.push_str("\",\"counters\":{");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(&c.name), c.value);
        }
        out.push('}');
        // Gauges joined the schema after the first release; omit the key
        // entirely when empty so gauge-free snapshots keep the old shape.
        if !self.gauges.is_empty() {
            out.push_str(",\"gauges\":{");
            for (i, g) in self.gauges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", json_escape(&g.name), g.value);
            }
            out.push('}');
        }
        out.push_str(",\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"mean\":{},\"min\":{},\"p50\":{},\
                 \"p90\":{},\"p99\":{},\"max\":{}",
                json_escape(&h.name),
                h.count,
                h.sum,
                json_number(h.mean),
                h.min,
                h.p50,
                h.p90,
                h.p99,
                h.max
            );
            if !h.buckets.is_empty() {
                out.push_str(",\"buckets\":[");
                for (i, (idx, n)) in h.buckets.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "[{idx},{n}]");
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Parses one line written by [`Snapshot::to_json`]. Older lines
    /// without a `gauges` object, or with histograms lacking `buckets`
    /// or `min`, read those as empty or 0.
    ///
    /// # Errors
    ///
    /// Returns a description when the line is not JSON or not a
    /// snapshot.
    pub fn from_json(line: &str) -> Result<Snapshot, String> {
        let doc = parse_json(line)?;
        if doc.get("type").and_then(Json::as_str) != Some("snapshot") {
            return Err("not a snapshot line".to_string());
        }
        let entries = |key: &str| match doc.get(key) {
            Some(Json::Obj(entries)) => entries.as_slice(),
            _ => &[],
        };
        let mut counters: Vec<CounterSnapshot> = entries("counters")
            .iter()
            .filter_map(|(name, value)| {
                Some(CounterSnapshot {
                    name: name.clone(),
                    value: value.as_u64()?,
                })
            })
            .collect();
        let mut gauges: Vec<GaugeSnapshot> = entries("gauges")
            .iter()
            .filter_map(|(name, value)| {
                Some(GaugeSnapshot {
                    name: name.clone(),
                    value: value.as_i64()?,
                })
            })
            .collect();
        let mut histograms: Vec<HistogramSnapshot> = entries("histograms")
            .iter()
            .map(|(name, h)| {
                let field = |key: &str| h.get(key).and_then(Json::as_u64).unwrap_or(0);
                let buckets = h
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|pair| match pair.as_arr()? {
                        [idx, n, ..] => Some((idx.as_u64()?.min(63) as u8, n.as_u64()?)),
                        _ => None,
                    })
                    .collect();
                HistogramSnapshot {
                    name: name.clone(),
                    count: field("count"),
                    sum: field("sum"),
                    mean: h.get("mean").and_then(Json::as_f64).unwrap_or(0.0),
                    min: field("min"),
                    p50: field("p50"),
                    p90: field("p90"),
                    p99: field("p99"),
                    max: field("max"),
                    buckets,
                }
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(Snapshot {
            label: doc
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            counters,
            gauges,
            histograms,
        })
    }
}

/// Escapes a string for inclusion inside JSON quotes.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as a JSON number (`null` for NaN/∞, which JSON
/// cannot represent).
pub(crate) fn json_number(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` round-trips f64 exactly and always includes a decimal
        // point or exponent, keeping the token unambiguous.
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// An append-only JSONL file sink for snapshots and events.
///
/// The sink flushes on drop — including during panic unwind — so lines
/// buffered by a worker that dies mid-run (e.g. a quarantined network)
/// still reach disk. A flush failure at drop time cannot be returned,
/// so it is reported on stderr instead of being silently swallowed;
/// callers that need the error should call [`JsonlSink::flush`]
/// explicitly first.
pub struct JsonlSink {
    writer: BufWriter<Box<dyn Write + Send>>,
    path: PathBuf,
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Err(err) = self.writer.flush() {
            eprintln!(
                "accu-telemetry: failed to flush {} at drop: {err}",
                self.path.display()
            );
        }
    }
}

impl JsonlSink {
    /// Creates (truncating) the sink file, creating parent directories
    /// as needed.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error — callers must surface it, not
    /// swallow it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::create_with(path, |file| Box::new(file))
    }

    /// [`JsonlSink::create`], writing through `wrap(file)` (e.g. a
    /// chaos-injecting wrapper around the file).
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn create_with(
        path: impl AsRef<Path>,
        wrap: impl FnOnce(fs::File) -> Box<dyn Write + Send>,
    ) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let file = fs::File::create(&path)?;
        Ok(JsonlSink {
            writer: BufWriter::new(wrap(file)),
            path,
        })
    }

    /// The sink's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one snapshot line.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_snapshot(&mut self, snapshot: &Snapshot) -> io::Result<()> {
        self.writer.write_all(snapshot.to_json().as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Appends one pre-serialized JSON line (the newline is added
    /// here). Used by emitters that render their lines themselves, e.g.
    /// the progress observer.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Appends one event line.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_event(&mut self, event: &Event) -> io::Result<()> {
        self.write_line(&event.to_json())
    }

    /// Flushes buffered lines to disk.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn snapshot_json_shape() {
        let rec = Recorder::enabled();
        rec.counter("a.hits").add(3);
        rec.histogram("a.lat").record(10);
        let json = rec.snapshot("t/1").unwrap().to_json();
        assert!(json.starts_with("{\"type\":\"snapshot\",\"label\":\"t/1\""));
        assert!(json.contains("\"a.hits\":3"));
        assert!(json.contains("\"a.lat\":{\"count\":1,\"sum\":10,\"mean\":10.0"));
        // 10 has highest set bit 3, so it lands in bucket 3.
        assert!(json.contains("\"buckets\":[[3,1]]"));
        // No gauges were registered, so the key is omitted entirely.
        assert!(!json.contains("\"gauges\""));
        assert!(json.ends_with("}}"));
        // Exactly one line.
        assert!(!json.contains('\n'));
    }

    #[test]
    fn from_json_round_trips_to_json_and_reads_older_lines() {
        let rec = Recorder::enabled();
        rec.counter("runner.episodes").add(320);
        rec.gauge("runner.networks_inflight").set(2);
        rec.histogram("runner.network_ns").record(1_000_000);
        rec.histogram("runner.network_ns").record(2_000_000);
        let snap = rec.snapshot("cell").unwrap();
        assert_eq!(Snapshot::from_json(&snap.to_json()), Ok(snap));
        // A line from before gauges, buckets and min were written.
        let old = Snapshot::from_json(
            "{\"type\":\"snapshot\",\"label\":\"old\",\"counters\":{\"n\":1},\
             \"histograms\":{\"h\":{\"count\":2,\"sum\":6,\"mean\":3.0,\"p50\":3,\
             \"p90\":3,\"p99\":3,\"max\":4}}}",
        )
        .unwrap();
        assert_eq!(old.counter("n"), Some(1));
        assert!(old.gauges.is_empty());
        let h = old.histogram("h").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 6, 0, 4));
        assert!(h.buckets.is_empty());
    }

    #[test]
    fn from_json_rejects_lines_that_are_not_snapshots() {
        assert!(Snapshot::from_json("").is_err());
        assert!(Snapshot::from_json("not json").is_err());
        assert!(Snapshot::from_json("{\"type\":\"event\",\"name\":\"x\",\"fields\":{}}").is_err());
    }

    #[test]
    fn escaping_and_float_edge_cases() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn sink_writes_snapshots_and_events() {
        let dir = std::env::temp_dir().join("accu-telemetry-test");
        let path = dir.join("out.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap();
        let rec = Recorder::enabled();
        rec.counter("n").incr();
        sink.write_snapshot(&rec.snapshot("s").unwrap()).unwrap();
        sink.write_event(
            &Event::info("done")
                .arg("worker", 3usize)
                .arg("benefit", 54.5)
                .arg("policy", "ABM"),
        )
        .unwrap();
        sink.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"n\":1"));
        assert!(lines[1].contains("\"worker\":3"));
        assert!(lines[1].contains("\"benefit\":54.5"));
        assert!(lines[1].contains("\"policy\":\"ABM\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sink_survives_panic_unwind_without_explicit_flush() {
        // A quarantined worker panics with buffered lines still in the
        // sink; the drop-flush during unwind must land them on disk.
        let dir = std::env::temp_dir().join("accu-telemetry-panic-test");
        let path = dir.join("unwound.jsonl");
        let path_clone = path.clone();
        let joined = std::thread::spawn(move || {
            let mut sink = JsonlSink::create(&path_clone).unwrap();
            sink.write_event(&Event::info("before_panic").arg("worker", 0usize))
                .unwrap();
            panic!("simulated quarantined worker");
        })
        .join();
        assert!(joined.is_err());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"before_panic\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_lookup_helpers() {
        let rec = Recorder::enabled();
        rec.counter("x").add(7);
        rec.histogram("y").record(1);
        let snap = rec.snapshot("s").unwrap();
        assert_eq!(snap.counter("x"), Some(7));
        assert_eq!(snap.counter("missing"), None);
        assert!(snap.histogram("y").is_some());
        assert!(snap.histogram("missing").is_none());
    }
}
