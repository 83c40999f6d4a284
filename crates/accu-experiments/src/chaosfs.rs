//! Chaos-aware I/O: the shim between the harness's sinks and the
//! filesystem, plus the durable-write primitives the checkpoint layer
//! builds on.
//!
//! [`ChaosSite`] names one sink (`"checkpoint"`, `"progress"`,
//! `"trace"`) and hands out per-operation faults from the run's
//! [`ChaosPlan`]; [`ChaosFile`] wraps any writer and realizes those
//! faults as real `io::Error`s — `ErrorKind::Interrupted` (which
//! `write_all` transparently retries, exercising the retry path without
//! losing data), an `ENOSPC`-style hard failure, or a *torn write* that
//! lands half the buffer before erroring. [`atomic_write`] is the
//! temp-file + rename + `sync_all` (file and directory) primitive used
//! for crash-durable file replacement.

use accu_core::{ChaosPlan, IoFault};
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters for the faults a [`ChaosSite`] actually injected, shared
/// between the site and whoever reports telemetry.
#[derive(Debug, Default)]
pub struct ChaosCounters {
    /// Injected disk-full errors.
    pub disk_full: AtomicU64,
    /// Injected `EINTR` interruptions.
    pub eintr: AtomicU64,
    /// Injected torn writes.
    pub torn_writes: AtomicU64,
}

impl ChaosCounters {
    /// Total injected I/O faults across all kinds.
    pub fn total(&self) -> u64 {
        self.disk_full.load(Ordering::Relaxed)
            + self.eintr.load(Ordering::Relaxed)
            + self.torn_writes.load(Ordering::Relaxed)
    }
}

/// One named failpoint site: a monotone operation counter plus the
/// run's chaos plan. Cloning shares the counter, so a site can be
/// consulted from several layers of a sink stack without double
/// counting operations.
#[derive(Debug, Clone)]
pub struct ChaosSite {
    plan: ChaosPlan,
    name: &'static str,
    ops: Arc<AtomicU64>,
    counters: Arc<ChaosCounters>,
}

impl ChaosSite {
    /// Creates a site drawing from `plan`'s stream for `name`.
    pub fn new(plan: ChaosPlan, name: &'static str) -> Self {
        ChaosSite {
            plan,
            name,
            ops: Arc::new(AtomicU64::new(0)),
            counters: Arc::new(ChaosCounters::default()),
        }
    }

    /// The site name (also the fault-stream key).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The injected-fault counters for this site.
    pub fn counters(&self) -> &Arc<ChaosCounters> {
        &self.counters
    }

    /// Draws the fault (if any) for the next operation at this site and
    /// counts it. Returns `None` on the fault-free fast path.
    pub fn next_fault(&self) -> Option<IoFault> {
        if self.plan.is_trivial() {
            return None;
        }
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let fault = self.plan.io_fault(self.name, op);
        match fault {
            Some(IoFault::DiskFull) => {
                self.counters.disk_full.fetch_add(1, Ordering::Relaxed);
            }
            Some(IoFault::Interrupted) => {
                self.counters.eintr.fetch_add(1, Ordering::Relaxed);
            }
            Some(IoFault::TornWrite) => {
                self.counters.torn_writes.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
        fault
    }
}

/// A writer that consults a [`ChaosSite`] before every `write`,
/// realizing drawn faults as real `io::Error`s.
#[derive(Debug)]
pub struct ChaosFile<W> {
    inner: W,
    site: ChaosSite,
}

impl<W: Write> ChaosFile<W> {
    /// Wraps `inner` with fault injection from `site`.
    pub fn new(inner: W, site: ChaosSite) -> Self {
        ChaosFile { inner, site }
    }

    /// The wrapped writer.
    pub fn get_ref(&self) -> &W {
        &self.inner
    }
}

impl<W: Write> Write for ChaosFile<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.site.next_fault() {
            None => self.inner.write(buf),
            Some(IoFault::Interrupted) => Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "chaos: injected EINTR",
            )),
            Some(IoFault::DiskFull) => Err(io::Error::other("chaos: injected disk-full (ENOSPC)")),
            Some(IoFault::TornWrite) => {
                // Land half the buffer, make it visible, then fail: the
                // shape a power cut mid-append leaves on disk.
                let half = buf.len() / 2;
                if half > 0 {
                    self.inner.write_all(&buf[..half])?;
                    self.inner.flush()?;
                }
                Err(io::Error::other("chaos: injected torn write"))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Durably replaces `path` with `bytes`: writes a temp sibling, syncs
/// it, renames it over `path`, then syncs the parent directory so the
/// rename itself survives power failure.
///
/// # Errors
///
/// Any underlying filesystem error; on error the destination is either
/// untouched or already fully replaced (the temp sibling may linger).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// [`atomic_write`] with fault injection on the data write: the drawn
/// fault (if any) surfaces as an error *before* the rename, so the
/// destination is never left torn.
///
/// # Errors
///
/// Injected chaos faults or any underlying filesystem error.
pub fn atomic_write_chaos(path: &Path, bytes: &[u8], site: &ChaosSite) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    let result = (|| {
        let file = fs::File::create(&tmp)?;
        let mut writer = ChaosFile::new(&file, site.clone());
        write_all_retrying(&mut writer, bytes)?;
        file.sync_all()?;
        drop(writer);
        fs::rename(&tmp, path)?;
        sync_parent_dir(path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// `write_all` that retries `ErrorKind::Interrupted` (as the libc
/// convention demands) but propagates everything else.
fn write_all_retrying<W: Write>(writer: &mut W, bytes: &[u8]) -> io::Result<()> {
    // std's `write_all` already loops on Interrupted; this wrapper only
    // exists to make the contract explicit at the chaos boundary.
    writer.write_all(bytes)
}

/// Temp-file sibling used by the atomic-replace primitives.
fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fsyncs the directory containing `path` so a completed rename is
/// durable. On platforms where directories cannot be opened for sync
/// the error is ignored (best effort, matching common practice).
pub fn sync_parent_dir(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        let parent = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(dir) = fs::File::open(parent) {
            dir.sync_all()?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use accu_core::ChaosConfig;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "accu_chaosfs_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn trivial_site_never_faults_and_counts_nothing() {
        let site = ChaosSite::new(ChaosPlan::none(), "checkpoint");
        for _ in 0..100 {
            assert_eq!(site.next_fault(), None);
        }
        assert_eq!(site.counters().total(), 0);
    }

    #[test]
    fn chaos_file_realizes_each_fault_kind() {
        // Force each kind with a single-channel probability-1 config.
        let disk = ChaosSite::new(
            ChaosPlan::sample(&ChaosConfig {
                disk_full: 1.0,
                ..ChaosConfig::none()
            }),
            "t",
        );
        let mut w = ChaosFile::new(Vec::new(), disk.clone());
        let err = w.write(b"hello").unwrap_err();
        assert!(err.to_string().contains("disk-full"), "{err}");
        assert_eq!(disk.counters().disk_full.load(Ordering::Relaxed), 1);

        let eintr = ChaosSite::new(
            ChaosPlan::sample(&ChaosConfig {
                eintr: 1.0,
                ..ChaosConfig::none()
            }),
            "t",
        );
        let mut w = ChaosFile::new(Vec::new(), eintr);
        assert_eq!(
            w.write(b"hello").unwrap_err().kind(),
            io::ErrorKind::Interrupted
        );

        let torn = ChaosSite::new(
            ChaosPlan::sample(&ChaosConfig {
                torn_write: 1.0,
                ..ChaosConfig::none()
            }),
            "t",
        );
        let mut w = ChaosFile::new(Vec::new(), torn.clone());
        let err = w.write(b"abcdef").unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        assert_eq!(w.get_ref().as_slice(), b"abc");
        assert_eq!(torn.counters().torn_writes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn eintr_is_survivable_via_write_all() {
        // An EINTR-only chaos stream loses no data: write_all retries.
        let site = ChaosSite::new(
            ChaosPlan::sample(&ChaosConfig {
                eintr: 0.5,
                seed: 4,
                ..ChaosConfig::none()
            }),
            "progress",
        );
        let mut w = ChaosFile::new(Vec::new(), site.clone());
        for i in 0..50 {
            let line = format!("line {i}\n");
            w.write_all(line.as_bytes()).expect("EINTR is retried");
        }
        let text = String::from_utf8(w.get_ref().clone()).unwrap();
        assert_eq!(text.lines().count(), 50);
        assert!(site.counters().eintr.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn atomic_write_replaces_durably() {
        let dir = temp_dir("atomic");
        let path = dir.join("out.csv");
        atomic_write(&path, b"v1\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"v1\n");
        atomic_write(&path, b"v2\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"v2\n");
        // No temp sibling left behind.
        assert!(!tmp_sibling(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_chaos_never_tears_destination() {
        let dir = temp_dir("atomic_chaos");
        let path = dir.join("out.csv");
        atomic_write(&path, b"baseline\n").unwrap();
        let site = ChaosSite::new(
            ChaosPlan::sample(&ChaosConfig {
                torn_write: 1.0,
                ..ChaosConfig::none()
            }),
            "trace",
        );
        let err = atomic_write_chaos(&path, b"replacement\n", &site).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        // Destination untouched, temp cleaned up.
        assert_eq!(fs::read(&path).unwrap(), b"baseline\n");
        assert!(!tmp_sibling(&path).exists());
        // Fault-free site goes through.
        let clean = ChaosSite::new(ChaosPlan::none(), "trace");
        atomic_write_chaos(&path, b"replacement\n", &clean).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"replacement\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cloned_sites_share_the_operation_stream() {
        let site = ChaosSite::new(
            ChaosPlan::sample(&ChaosConfig {
                disk_full: 1.0,
                ..ChaosConfig::none()
            }),
            "s",
        );
        let clone = site.clone();
        site.next_fault();
        clone.next_fault();
        assert_eq!(site.counters().disk_full.load(Ordering::Relaxed), 2);
        assert_eq!(clone.counters().disk_full.load(Ordering::Relaxed), 2);
    }
}
