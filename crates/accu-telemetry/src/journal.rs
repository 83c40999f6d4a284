//! The durable, correlation-stamped event journal and its crash dump.
//!
//! The journal is the service-grade forensic log: each [`Event`] is
//! stamped with the handle's writer id, a per-writer sequence number
//! and the wall-clock time, then appended as one line with the same
//! durability discipline as the runner's checkpoints (`write_all` +
//! `sync_all`; torn tails are dropped and counted by
//! [`read_events`](crate::read_events)). Several writers (daemon
//! incarnations, workers) may append to one file concurrently; each
//! holds its own `(writer, seq)` stream, so a reader checks per-writer
//! monotonicity without any cross-process coordination.
//!
//! Every journal keeps its most recent events in a bounded ring, the
//! crash flight recorder: [`Journal::emit_and_dump`] journals a
//! failure and writes the ring — ending with that failure — atomically
//! beside it, so every crash path leaves a readable tail of what the
//! process was doing.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::event::{Event, Ring, Source, Stamp};

/// Events the crash ring keeps: enough tail to reconstruct several job
/// lifecycles, small enough to be free.
const FLIGHT_CAPACITY: usize = 256;

/// Version of the dump format (`flight.dump` header, then events).
const FLIGHT_VERSION: u64 = 2;

/// Distinguishes journal handles opened within one process.
static WRITER_INSTANCE: AtomicU64 = AtomicU64::new(0);

/// One SplitMix64 step.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A writer id from the pid, the per-process open instance and the
/// wall-clock nanoseconds at open: two daemon incarnations that reuse a
/// pid (PID 1 in a container) still get distinct streams. Kept below
/// 2^53 so the id survives a round-trip through JSON numbers.
fn writer_id(pid: u32, instance: u64, open_ns: u64) -> u64 {
    splitmix64((u64::from(pid) << 16 | (instance & 0xFFFF)) ^ open_ns) >> 11
}

/// Time since the Unix epoch (zero if the clock is before 1970).
fn since_epoch() -> std::time::Duration {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default()
}

#[derive(Debug)]
struct JournalInner {
    writer: u64,
    /// The file and the next sequence number, under one lock so file
    /// order always matches seq order across cloned handles.
    file: Mutex<(File, u64)>,
    /// Shared with the panic hook, which must not keep the file open.
    ring: Arc<Ring>,
}

/// A cheaply cloneable journal handle: either **enabled**, appending
/// durably to one JSONL file, or **disabled**, in which case every call
/// is a no-op (the service's default when observability is off).
#[derive(Debug, Clone, Default)]
pub struct Journal {
    inner: Option<Arc<JournalInner>>,
}

impl Journal {
    /// A no-op journal.
    pub fn disabled() -> Self {
        Journal { inner: None }
    }

    /// Opens (creating if needed) a journal appending to `path`, with a
    /// fresh writer id: restarts — and re-opens within one process —
    /// always start a new `(writer, seq)` stream.
    ///
    /// # Errors
    ///
    /// Any error opening the file for append.
    pub fn append_to(path: impl Into<PathBuf>) -> io::Result<Journal> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let instance = WRITER_INSTANCE.fetch_add(1, Ordering::Relaxed);
        let open_ns = since_epoch().as_nanos() as u64;
        Ok(Journal {
            inner: Some(Arc::new(JournalInner {
                writer: writer_id(std::process::id(), instance, open_ns),
                file: Mutex::new((file, 0)),
                ring: Arc::new(Ring::new(FLIGHT_CAPACITY)),
            })),
        })
    }

    /// Whether events actually land anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Stamps `event`, appends it durably (`write_all` + `sync_all`)
    /// and keeps it in the crash ring.
    ///
    /// I/O failures are swallowed: the journal is an observer, and an
    /// un-journaled transition must never fail the transition itself.
    pub fn emit(&self, event: Event) {
        if let Some(inner) = self.inner.as_deref() {
            drop(inner.append(event));
        }
    }

    /// Journals `event` and dumps the crash ring — whose last event is
    /// that one — atomically to `dump`. The one call every crash path
    /// (kill-channel aborts, fatal job failures, watchdog alarms) makes.
    pub fn emit_and_dump(&self, event: Event, dump: &Path) {
        if let Some(inner) = self.inner.as_deref() {
            // Render before releasing the file lock, so no other
            // handle's event lands after this one in the dump.
            let guard = inner.append(event);
            let body = inner.ring.with(render_dump);
            drop(guard);
            let _ = atomic_replace(dump, body.as_bytes());
        }
    }
}

impl JournalInner {
    /// Stamps, appends and rings `event`, returning the file lock so a
    /// caller can act before any other handle emits.
    fn append(&self, mut event: Event) -> MutexGuard<'_, (File, u64)> {
        let mut guard = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let (file, seq) = &mut *guard;
        event.stamp = Some(Stamp {
            source: Source::Writer(self.writer),
            seq: *seq,
            ts: since_epoch().as_millis() as u64,
        });
        *seq += 1;
        let mut line = event.to_json();
        line.push('\n');
        let _ = file
            .write_all(line.as_bytes())
            .and_then(|()| file.sync_all());
        self.ring.push(event);
        guard
    }
}

/// A crash ring's dump: a `flight.dump` header counting evicted and
/// retained events, then the retained events oldest first (the last
/// line is what the process did last).
fn render_dump(dropped: u64, events: &[Event]) -> String {
    let mut body = Event::info("flight.dump")
        .arg("accu_flight", FLIGHT_VERSION)
        .arg("dropped", dropped)
        .arg("events", events.len())
        .to_json();
    for event in events {
        body.push('\n');
        event.render_into(&mut body);
    }
    body.push('\n');
    body
}

/// Durably replaces `path` with `bytes` (temp sibling + rename +
/// parent-dir sync) without depending on any other crate's helpers —
/// the journal must stay usable from panic hooks.
fn atomic_replace(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        let parent = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Crash rings registered for dump-on-panic, with their destinations.
static PANIC_DUMPS: Mutex<Vec<(Arc<Ring>, PathBuf)>> = Mutex::new(Vec::new());
/// Ensures the chaining panic hook is installed at most once.
static PANIC_HOOK: OnceLock<()> = OnceLock::new();

/// Registers `journal`'s crash ring to be dumped to `path` if the
/// process panics. The hook chains to whatever hook was installed
/// before it (so test harness reporting survives), and dumping is
/// best-effort — a failing dump never masks the original panic.
pub fn install_panic_dump(journal: &Journal, path: impl Into<PathBuf>) {
    let Some(inner) = journal.inner.as_deref() else {
        return;
    };
    PANIC_DUMPS
        .lock()
        .expect("panic-dump registry lock")
        .push((Arc::clone(&inner.ring), path.into()));
    PANIC_HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Ok(dumps) = PANIC_DUMPS.lock() {
                for (ring, path) in dumps.iter() {
                    let _ = atomic_replace(path, ring.with(render_dump).as_bytes());
                }
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{check_events, read_events, Corr, Severity};

    fn log(journal: &Journal, sev: Severity, kind: &'static str, msg: &str, corr: Corr) {
        journal.emit(Event::new(sev, kind).corr(corr).msg(msg));
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "accu_journal_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn read(path: &Path) -> String {
        std::fs::read_to_string(path).unwrap()
    }

    #[test]
    fn writer_ids_differ_across_open_times_for_one_pid() {
        // Two container incarnations both running as PID 1, each the
        // first journal handle of its process.
        let first = writer_id(1, 0, 1_792_218_436_580_000_000);
        let second = writer_id(1, 0, 1_792_218_437_591_000_000);
        assert_ne!(first, second);
        assert_eq!(first, writer_id(1, 0, 1_792_218_436_580_000_000));
        for id in [first, second] {
            assert!(id < 1 << 53, "{id} does not survive a JSON number");
        }
        assert_ne!(writer_id(1, 0, 7), writer_id(1, 1, 7));
        assert_ne!(writer_id(1, 0, 7), writer_id(2, 0, 7));
    }

    #[test]
    fn journal_appends_and_rereads_with_torn_tail_tolerance() {
        let path = temp_path("append");
        let _ = std::fs::remove_file(&path);
        {
            let journal = Journal::append_to(&path).unwrap();
            log(
                &journal,
                Severity::Info,
                "job.submit",
                "created",
                Corr::job("j1"),
            );
            let corr = Corr::job("j1").epoch(1);
            log(&journal, Severity::Warn, "job.retry", "transient", corr);
        }
        // A second writer (restart) appends more, then a torn tail.
        {
            let journal = Journal::append_to(&path).unwrap();
            let corr = Corr::job("j1").epoch(2);
            log(&journal, Severity::Info, "job.publish", "done", corr);
        }
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"type\":\"event\",\"writer\":9,\"seq")
            .unwrap();
        drop(file);
        let read = check_events(&read(&path)).unwrap();
        assert_eq!(read.events.len(), 3);
        assert_eq!(read.skipped_lines, 1, "torn tail dropped, not fatal");
        assert_eq!(read.for_job("j1").count(), 3);
        assert_eq!(read.events[1].message(), "transient");
        // The two incarnations hold distinct writer streams.
        let writers: std::collections::BTreeSet<_> = read
            .events
            .iter()
            .map(|e| e.stamp.as_ref().unwrap().source.clone())
            .collect();
        assert_eq!(writers.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disabled_journal_is_a_no_op() {
        let journal = Journal::disabled();
        assert!(!journal.is_enabled());
        journal.emit(Event::info("k"));
        journal.emit_and_dump(Event::error("k"), &temp_path("never"));
        assert!(!temp_path("never").exists());
    }

    #[test]
    fn emit_and_dump_holds_the_latest_events_ending_with_the_failure() {
        let path = temp_path("dump");
        let journal_path = temp_path("dump-journal");
        let _ = std::fs::remove_file(&journal_path);
        let journal = Journal::append_to(&journal_path).unwrap();
        let ticks = FLIGHT_CAPACITY as u64 + 3;
        for i in 0..ticks {
            let corr = Corr::job("j").attempt(i);
            log(&journal, Severity::Info, "tick", &format!("tick {i}"), corr);
        }
        let kill = Event::error("chaos.kill").corr(Corr::job("j")).msg("abort");
        journal.emit_and_dump(kill, &path);
        let text = read(&path);
        let dump = check_events(&text).unwrap();
        let (header, events) = dump.events.split_first().unwrap();
        assert_eq!(header.kind, "flight.dump");
        assert_eq!(header.get("accu_flight"), Some(&FLIGHT_VERSION.into()));
        // ticks + 1 events went in; the ring kept the latest 256.
        assert_eq!(header.get("dropped"), Some(&4u64.into()));
        assert_eq!(header.get("events"), Some(&FLIGHT_CAPACITY.into()));
        assert_eq!(events.len(), FLIGHT_CAPACITY);
        let (last, retained) = events.split_last().unwrap();
        assert_eq!(
            (last.kind.as_ref(), last.sev, last.message()),
            ("chaos.kill", Severity::Error, "abort")
        );
        let attempts: Vec<u64> = retained.iter().filter_map(|e| e.ids().attempt).collect();
        assert_eq!(attempts, (4..ticks).collect::<Vec<_>>());
        // The journal file holds every event, the error included.
        let journaled = read_events(&read(&journal_path)).events;
        assert_eq!(journaled.len() as u64, ticks + 1);
        assert_eq!(journaled.last().unwrap().kind, "chaos.kill");
        // A re-dump atomically replaces rather than appending.
        journal.emit_and_dump(Event::error("job.fail"), &path);
        let dump = read_events(&read(&path));
        assert_eq!(dump.events.len(), FLIGHT_CAPACITY + 1);
        assert_eq!(dump.events[0].get("dropped"), Some(&5u64.into()));
        assert_eq!(dump.events.last().unwrap().kind, "job.fail");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&journal_path);
    }

    #[test]
    fn a_panic_dumps_the_registered_ring() {
        let path = temp_path("panic-dump");
        let journal_path = temp_path("panic-journal");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::append_to(&journal_path).unwrap();
        install_panic_dump(&journal, &path);
        journal.emit(Event::info("job.run").corr(Corr::job("p")));
        let _ = std::panic::catch_unwind(|| panic!("simulated crash"));
        let dump = check_events(&read(&path)).unwrap();
        assert_eq!(dump.events[0].kind, "flight.dump");
        assert_eq!(dump.for_job("p").count(), 1);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&journal_path);
    }

    #[test]
    fn concurrent_writers_to_one_file_stay_parseable_and_monotonic() {
        let path = temp_path("concurrent");
        let _ = std::fs::remove_file(&path);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let path = path.clone();
                scope.spawn(move || {
                    let journal = Journal::append_to(&path).unwrap();
                    for i in 0..8 {
                        journal.emit(Event::info("tick").msg(format!("w{t} i{i}")));
                    }
                });
            }
        });
        let read = check_events(&read(&path)).unwrap();
        assert_eq!(read.events.len(), 32);
        assert_eq!(read.skipped_lines, 0);
        let _ = std::fs::remove_file(&path);
    }
}
