//! Chaos-aware I/O: the one write path between the harness's sinks and
//! the filesystem, plus the durable-replace primitive the checkpoint
//! and figure CSVs build on.
//!
//! [`ChaosSite`] names one sink (`"checkpoint"`, `"progress"`,
//! `"trace"`), hands out per-operation faults from the run's
//! [`ChaosConfig`] and counts each fault it injects under `chaos.*` on a
//! [`Recorder`]; [`ChaosFile`] wraps any writer and realizes those
//! faults as real `io::Error`s — `ErrorKind::Interrupted` (which
//! `write_all` transparently retries, exercising the retry path without
//! losing data), an `ENOSPC`-style hard failure, or a *torn write* that
//! lands half the buffer before erroring. [`atomic_write`] is the
//! temp-file + rename + `sync_all` (file and directory) primitive used
//! for crash-durable file replacement. Every sink writes through a
//! site; a site on [`ChaosConfig::none`] ([`ChaosSite::none`], or any
//! site of a run without `--chaos`) injects nothing.

use accu_core::{chaos_metrics, ChaosConfig, IoFault};
use accu_telemetry::Recorder;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One named failpoint site: a monotone operation counter plus the
/// run's chaos config and the recorder its injected faults are counted
/// on. Cloning shares the counter, so a site can be consulted from
/// several layers of a sink stack without double counting operations.
#[derive(Debug, Clone)]
pub struct ChaosSite {
    chaos: ChaosConfig,
    name: &'static str,
    ops: Arc<AtomicU64>,
    recorder: Recorder,
}

impl ChaosSite {
    /// Creates a site drawing from `chaos`'s stream for `name` that
    /// counts each fault it injects on `recorder`.
    pub fn new(chaos: ChaosConfig, name: &'static str, recorder: &Recorder) -> Self {
        ChaosSite {
            chaos,
            name,
            ops: Arc::new(AtomicU64::new(0)),
            recorder: recorder.clone(),
        }
    }

    /// A site that never injects a fault.
    pub fn none() -> Self {
        ChaosSite::new(ChaosConfig::none(), "none", &Recorder::disabled())
    }

    /// Draws the fault (if any) for the next operation at this site and
    /// counts it under `chaos.io_faults` and its kind's counter. Returns
    /// `None` on the fault-free fast path.
    pub fn next_fault(&self) -> Option<IoFault> {
        if self.chaos.is_none() {
            return None;
        }
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let fault = self.chaos.io_fault(self.name, op)?;
        let kind = match fault {
            IoFault::DiskFull => chaos_metrics::DISK_FULL,
            IoFault::Interrupted => chaos_metrics::EINTR,
            IoFault::TornWrite => chaos_metrics::TORN_WRITES,
        };
        self.recorder.counter(chaos_metrics::IO_FAULTS).incr();
        self.recorder.counter(kind).incr();
        Some(fault)
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

/// Durably replaces `path` with `bytes`: writes a temp sibling through
/// `site`, syncs it, renames it over `path`, then syncs the parent
/// directory so the rename itself survives power failure. A fault the
/// site injects surfaces before the rename, so the destination is never
/// left torn.
///
/// # Errors
///
/// Injected faults or any underlying filesystem error; on error the
/// destination is either untouched or already fully replaced, and the
/// temp sibling is removed.
pub fn atomic_write(path: &Path, bytes: &[u8], site: &ChaosSite) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    let result = (|| {
        let file = fs::File::create(&tmp)?;
        ChaosFile::new(&file, site.clone()).write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, path)?;
        sync_parent_dir(path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// The temp sibling [`atomic_write`] writes before its rename.
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

    /// A site on `config` whose faults `recorder` counts.
    fn site(config: ChaosConfig, recorder: &Recorder) -> ChaosSite {
        ChaosSite::new(config, "t", recorder)
    }

    /// The `chaos.*` counters `recorder` holds, by name.
    fn counted(recorder: &Recorder) -> Vec<(String, u64)> {
        let snapshot = recorder.snapshot("chaos").expect("enabled recorder");
        snapshot
            .counters
            .iter()
            .map(|c| (c.name.clone(), c.value))
            .collect()
    }

    #[test]
    fn trivial_site_never_faults_and_counts_nothing() {
        let rec = Recorder::enabled();
        let site = ChaosSite::new(ChaosConfig::none(), "checkpoint", &rec);
        for _ in 0..100 {
            assert_eq!(site.next_fault(), None);
        }
        assert!(counted(&rec).is_empty());
    }

    #[test]
    fn chaos_file_realizes_and_counts_each_fault_kind() {
        // Force each kind with a single-channel probability-1 config.
        let rec = Recorder::enabled();
        let disk = ChaosConfig {
            disk_full: 1.0,
            ..ChaosConfig::none()
        };
        let err = ChaosFile::new(Vec::new(), site(disk, &rec))
            .write(b"hello")
            .unwrap_err();
        assert!(err.to_string().contains("disk-full"), "{err}");

        let eintr = ChaosConfig {
            eintr: 1.0,
            ..ChaosConfig::none()
        };
        let err = ChaosFile::new(Vec::new(), site(eintr, &rec))
            .write(b"hello")
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);

        let torn = ChaosConfig {
            torn_write: 1.0,
            ..ChaosConfig::none()
        };
        let mut w = ChaosFile::new(Vec::new(), site(torn, &rec));
        let err = w.write(b"abcdef").unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        assert_eq!(w.get_ref().as_slice(), b"abc");

        let expected = [
            (chaos_metrics::DISK_FULL, 1),
            (chaos_metrics::EINTR, 1),
            (chaos_metrics::IO_FAULTS, 3),
            (chaos_metrics::TORN_WRITES, 1),
        ];
        let expected: Vec<(String, u64)> = expected
            .iter()
            .map(|(name, n)| (name.to_string(), *n))
            .collect();
        assert_eq!(counted(&rec), expected);
    }

    #[test]
    fn eintr_is_survivable_via_write_all() {
        // An EINTR-only chaos stream loses no data: write_all retries.
        let rec = Recorder::enabled();
        let config = ChaosConfig {
            eintr: 0.5,
            seed: 4,
            ..ChaosConfig::none()
        };
        let mut w = ChaosFile::new(Vec::new(), site(config, &rec));
        for i in 0..50 {
            let line = format!("line {i}\n");
            w.write_all(line.as_bytes()).expect("EINTR is retried");
        }
        let text = String::from_utf8(w.get_ref().clone()).unwrap();
        assert_eq!(text.lines().count(), 50);
        let snapshot = rec.snapshot("eintr").unwrap();
        let eintr = snapshot.counter(chaos_metrics::EINTR).unwrap_or(0);
        assert!(eintr > 0);
        assert_eq!(snapshot.counter(chaos_metrics::IO_FAULTS), Some(eintr));
    }

    #[test]
    fn atomic_write_replaces_durably() {
        let dir = temp_dir("atomic");
        let path = dir.join("out.csv");
        atomic_write(&path, b"v1\n", &ChaosSite::none()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"v1\n");
        atomic_write(&path, b"v2\n", &ChaosSite::none()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"v2\n");
        // No temp sibling left behind.
        assert!(!tmp_sibling(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_never_tears_destination() {
        let dir = temp_dir("atomic_chaos");
        let path = dir.join("out.csv");
        atomic_write(&path, b"baseline\n", &ChaosSite::none()).unwrap();
        let rec = Recorder::enabled();
        let torn = ChaosConfig {
            torn_write: 1.0,
            ..ChaosConfig::none()
        };
        let err = atomic_write(&path, b"replacement\n", &site(torn, &rec)).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        assert_eq!(
            rec.snapshot("torn")
                .unwrap()
                .counter(chaos_metrics::TORN_WRITES),
            Some(1)
        );
        // Destination untouched, temp cleaned up.
        assert_eq!(fs::read(&path).unwrap(), b"baseline\n");
        assert!(!tmp_sibling(&path).exists());
        // A fault-free site goes through.
        atomic_write(&path, b"replacement\n", &ChaosSite::none()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"replacement\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cloned_sites_share_the_operation_stream() {
        let config = ChaosConfig {
            disk_full: 0.5,
            seed: 9,
            ..ChaosConfig::none()
        };
        let rec = Recorder::enabled();
        let site = site(config, &rec);
        let clone = site.clone();
        // Alternating between a site and its clone draws the same
        // faults as one site alone: the clone continues the stream.
        let interleaved: Vec<Option<IoFault>> = (0..32)
            .map(|op| {
                if op % 2 == 0 {
                    site.next_fault()
                } else {
                    clone.next_fault()
                }
            })
            .collect();
        let alone = ChaosSite::new(config, "t", &Recorder::disabled());
        let expected: Vec<Option<IoFault>> = (0..32).map(|_| alone.next_fault()).collect();
        assert_eq!(interleaved, expected);
        let faults = expected.iter().flatten().count() as u64;
        assert!(faults > 0);
        let snapshot = rec.snapshot("shared").unwrap();
        assert_eq!(snapshot.counter(chaos_metrics::IO_FAULTS), Some(faults));
        assert_eq!(snapshot.counter(chaos_metrics::DISK_FULL), Some(faults));
    }
}
