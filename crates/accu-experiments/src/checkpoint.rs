//! Crash-safe JSONL checkpoints for long figure runs.
//!
//! A checkpoint file holds one line per *completed sampled network*:
//! the cell it belongs to (dataset × policy × full run configuration),
//! the network index, and the network's [`TraceAccumulator`] serialized
//! exactly (see [`TraceAccumulator::to_json`]). Lines are appended and
//! made durable as networks finish, so a SIGKILLed run loses at most
//! the network it was working on. On `--resume` the runner loads the
//! file, skips every network already covered, and merges the
//! checkpointed accumulators back in — producing an aggregate identical
//! to an uninterrupted run.
//!
//! ## Durability contract
//!
//! * [`Checkpoint::create`] builds the file via temp sibling + atomic
//!   rename, with `sync_all` on both the file and its directory, so a
//!   fresh checkpoint either exists with its header or not at all.
//! * [`Checkpoint::record`] appends with `write_all` + `sync_all`
//!   before returning: once `record` returns `Ok`, the entry survives
//!   power failure, not just process death. (A bare `flush()` only
//!   drains userspace buffers — acknowledged lines could still be lost
//!   in the page cache.)
//! * A truncated final line (the signature a crash mid-append leaves
//!   behind) does not parse as JSON and is simply dropped: that network
//!   is recomputed on resume.
//!
//! Appends go through a failpoint site that injects nothing until
//! [`Checkpoint::attach_chaos`] gives it the run's seeded schedule
//! (site `"checkpoint"`) and arms the deterministic `kill-after` abort
//! used by CI's kill-and-resume job.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use accu_core::{ChaosConfig, TraceAccumulator};
use accu_telemetry::{json_escape, parse_json, Recorder};

use crate::chaosfs::{atomic_write, ChaosFile, ChaosSite};
use crate::runner::RunnerError;

/// Format-version marker written as the first line of every checkpoint.
const HEADER: &str = "{\"accu_checkpoint\":1}";

/// An open checkpoint file: previously completed work loaded into
/// memory plus an append handle for new completions.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    file: File,
    /// (cell, network) → accumulator, as loaded at open time.
    entries: BTreeMap<(String, usize), TraceAccumulator>,
    /// Lines dropped at load because they did not parse (a crashed
    /// append leaves at most one).
    skipped_lines: usize,
    /// Failpoint site every append writes through.
    site: ChaosSite,
    /// Durable appends completed so far (drives `kill_after`).
    appends: u64,
    /// Abort the process after this many durable appends (chaos).
    kill_after: Option<u64>,
}

impl Checkpoint {
    /// Opens a checkpoint for a fresh run: durably replaces any
    /// existing file with a fresh header (temp sibling + atomic rename,
    /// `sync_all` on file and directory).
    ///
    /// # Errors
    ///
    /// Returns [`RunnerError::Checkpoint`] on I/O failure.
    pub fn create(path: impl AsRef<Path>) -> Result<Checkpoint, RunnerError> {
        let path = path.as_ref().to_path_buf();
        atomic_write(&path, format!("{HEADER}\n").as_bytes(), &ChaosSite::none())
            .map_err(RunnerError::Checkpoint)?;
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(RunnerError::Checkpoint)?;
        Ok(Checkpoint {
            path,
            file,
            entries: BTreeMap::new(),
            skipped_lines: 0,
            site: ChaosSite::none(),
            appends: 0,
            kill_after: None,
        })
    }

    /// Opens a checkpoint for `--resume`: loads every parseable entry
    /// from an existing file (creating a fresh one if the path does not
    /// exist) and appends from there.
    ///
    /// # Errors
    ///
    /// Returns [`RunnerError::Checkpoint`] on I/O failure. Unparseable
    /// *lines* are not errors — they are dropped and counted in
    /// [`skipped_lines`](Checkpoint::skipped_lines), because a crash
    /// mid-append legitimately truncates the final line.
    pub fn resume(path: impl AsRef<Path>) -> Result<Checkpoint, RunnerError> {
        let path = path.as_ref().to_path_buf();
        if !path.exists() {
            return Self::create(path);
        }
        let mut entries = BTreeMap::new();
        let mut skipped = 0usize;
        let contents = std::fs::read_to_string(&path).map_err(RunnerError::Checkpoint)?;
        let ends_with_newline = contents.is_empty() || contents.ends_with('\n');
        for line in contents.lines() {
            if line.trim().is_empty() || line == HEADER {
                continue;
            }
            match read_entry(line) {
                Some((key, acc)) => {
                    entries.insert(key, acc);
                }
                None => skipped += 1,
            }
        }
        let mut file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(RunnerError::Checkpoint)?;
        // A crash mid-append can leave the file without a trailing
        // newline; terminate the torn line so new entries stay on lines
        // of their own, and make the termination durable.
        if !ends_with_newline {
            writeln!(file).map_err(RunnerError::Checkpoint)?;
            file.sync_all().map_err(RunnerError::Checkpoint)?;
        }
        Ok(Checkpoint {
            path,
            file,
            entries,
            skipped_lines: skipped,
            site: ChaosSite::none(),
            appends: 0,
            kill_after: None,
        })
    }

    /// Opens per the CLI contract: `resume == false` starts fresh
    /// (truncating), `resume == true` reloads prior progress.
    ///
    /// # Errors
    ///
    /// Returns [`RunnerError::Checkpoint`] on I/O failure.
    pub fn open(path: impl AsRef<Path>, resume: bool) -> Result<Checkpoint, RunnerError> {
        if resume {
            Self::resume(path)
        } else {
            Self::create(path)
        }
    }

    /// The file this checkpoint appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Routes subsequent appends through the run's seeded chaos
    /// schedule (failpoint site `"checkpoint"`, its injected faults
    /// counted on `recorder`) and arms the deterministic `kill-after`
    /// abort, if configured. [`ChaosConfig::none`] injects nothing.
    pub fn attach_chaos(&mut self, chaos: &ChaosConfig, recorder: &Recorder) {
        self.site = ChaosSite::new(*chaos, "checkpoint", recorder);
        self.kill_after = chaos.kill_after_appends;
    }

    /// Number of unparseable lines dropped at load time.
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// Number of completed-network entries loaded at open time.
    pub fn loaded_entries(&self) -> usize {
        self.entries.len()
    }

    /// The completed networks recorded for `cell`.
    pub fn completed(&self, cell: &str) -> BTreeMap<usize, TraceAccumulator> {
        self.entries
            .range((cell.to_string(), 0)..=(cell.to_string(), usize::MAX))
            .map(|((_, net), acc)| (*net, acc.clone()))
            .collect()
    }

    /// Appends one completed network durably: `write_all` +
    /// `sync_all`, so once this returns `Ok` the entry survives power
    /// failure, not just SIGKILL.
    ///
    /// With chaos attached, the write draws from the seeded failpoint
    /// schedule (injected `EINTR` is retried transparently; disk-full
    /// and torn writes surface as errors), and the process aborts after
    /// the configured number of durable appends when `kill-after` is
    /// armed.
    ///
    /// # Errors
    ///
    /// Returns the underlying (or injected) I/O error.
    pub fn record(
        &mut self,
        cell: &str,
        net: usize,
        acc: &TraceAccumulator,
    ) -> std::io::Result<()> {
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"cell\":\"{}\",\"net\":{net},\"acc\":{}}}",
            json_escape(cell),
            acc.to_json()
        );
        line.push('\n');
        ChaosFile::new(&self.file, self.site.clone()).write_all(line.as_bytes())?;
        self.file.sync_all()?;
        self.appends += 1;
        if let Some(kill_after) = self.kill_after {
            if self.appends >= kill_after {
                eprintln!(
                    "chaos: aborting after {kill_after} durable checkpoint append(s) (kill-after)"
                );
                std::process::abort();
            }
        }
        Ok(())
    }
}

/// Reads one entry line as `((cell, net), accumulator)`. Returns
/// `None` for a line that is not a whole entry (a torn append): the
/// caller drops it.
fn read_entry(line: &str) -> Option<((String, usize), TraceAccumulator)> {
    let doc = parse_json(line).ok()?;
    let cell = doc.get("cell")?.as_str()?.to_string();
    let net = usize::try_from(doc.get("net")?.as_u64()?).ok()?;
    let acc = TraceAccumulator::from_json_value(doc.get("acc")?).ok()?;
    Some(((cell, net), acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use accu_core::policy::MaxDegree;
    use accu_core::{run_attack, AccuInstanceBuilder, Realization};
    use osn_graph::GraphBuilder;

    fn sample_acc() -> TraceAccumulator {
        let g = GraphBuilder::from_edges(3, [(0u32, 1u32), (1, 2)]).unwrap();
        let inst = AccuInstanceBuilder::new(g).build().unwrap();
        let real = Realization::from_parts(&inst, vec![true, true], vec![true; 3]).unwrap();
        let mut acc = TraceAccumulator::new(3);
        acc.add(&run_attack(&inst, &real, &mut MaxDegree::new(), 3));
        acc
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "accu-checkpoint-test-{name}-{}",
            std::process::id()
        ))
    }

    #[test]
    fn record_and_resume_round_trip() {
        let path = temp_path("round-trip");
        let acc = sample_acc();
        {
            let mut ckpt = Checkpoint::create(&path).unwrap();
            ckpt.record("cellA", 0, &acc).unwrap();
            ckpt.record("cellA", 2, &acc).unwrap();
            ckpt.record("cellB", 1, &acc).unwrap();
        }
        let ckpt = Checkpoint::resume(&path).unwrap();
        assert_eq!(ckpt.loaded_entries(), 3);
        assert_eq!(ckpt.skipped_lines(), 0);
        let a = ckpt.completed("cellA");
        assert_eq!(a.keys().copied().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(a[&0], acc);
        assert_eq!(ckpt.completed("cellB").len(), 1);
        assert!(ckpt.completed("cellC").is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn labels_with_escaped_characters_round_trip() {
        // `record` writes the label through `json_escape`; a label with
        // a quote, a newline or a backslash must resume like any other
        // instead of reading as a torn line.
        let path = temp_path("escaped-label");
        let acc = sample_acc();
        let label = "fig \"quick\"\nsecond line \\ end";
        {
            let mut ckpt = Checkpoint::create(&path).unwrap();
            ckpt.record(label, 4, &acc).unwrap();
        }
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents.lines().count(), 2, "header plus one entry line");
        let ckpt = Checkpoint::resume(&path).unwrap();
        assert_eq!(ckpt.skipped_lines(), 0);
        let done = ckpt.completed(label);
        assert_eq!(done.keys().copied().collect::<Vec<_>>(), vec![4]);
        assert_eq!(done[&4], acc);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_final_line_is_dropped() {
        let path = temp_path("truncated");
        let acc = sample_acc();
        {
            let mut ckpt = Checkpoint::create(&path).unwrap();
            ckpt.record("cell", 0, &acc).unwrap();
            ckpt.record("cell", 1, &acc).unwrap();
        }
        // Simulate a crash mid-append: chop the last line in half.
        let contents = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &contents[..contents.len() - 40]).unwrap();
        let ckpt = Checkpoint::resume(&path).unwrap();
        assert_eq!(ckpt.loaded_entries(), 1);
        assert_eq!(ckpt.skipped_lines(), 1);
        assert!(ckpt.completed("cell").contains_key(&0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_truncates_prior_progress() {
        let path = temp_path("truncates");
        {
            let mut ckpt = Checkpoint::create(&path).unwrap();
            ckpt.record("cell", 0, &sample_acc()).unwrap();
        }
        let ckpt = Checkpoint::open(&path, false).unwrap();
        assert_eq!(ckpt.loaded_entries(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_on_missing_file_starts_fresh() {
        let path = temp_path("missing");
        std::fs::remove_file(&path).ok();
        let ckpt = Checkpoint::open(&path, true).unwrap();
        assert_eq!(ckpt.loaded_entries(), 0);
        assert!(path.exists(), "resume on a missing path creates the file");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appending_after_a_torn_line_stays_on_fresh_lines() {
        let path = temp_path("torn-append");
        let acc = sample_acc();
        {
            let mut ckpt = Checkpoint::create(&path).unwrap();
            ckpt.record("cell", 0, &acc).unwrap();
            ckpt.record("cell", 1, &acc).unwrap();
        }
        // Crash signature: the final line is torn and unterminated.
        let contents = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &contents[..contents.len() - 40]).unwrap();
        {
            let mut ckpt = Checkpoint::resume(&path).unwrap();
            assert_eq!(ckpt.skipped_lines(), 1);
            ckpt.record("cell", 1, &acc).unwrap();
            ckpt.record("cell", 2, &acc).unwrap();
        }
        // The re-appended entries must not have merged into the torn
        // line: a fresh load sees all three networks.
        let ckpt = Checkpoint::resume(&path).unwrap();
        assert_eq!(ckpt.skipped_lines(), 1);
        let done = ckpt.completed("cell");
        assert_eq!(done.keys().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_leaves_no_temp_sibling() {
        let path = temp_path("durable-create");
        let _ckpt = Checkpoint::create(&path).unwrap();
        assert!(path.exists());
        let mut tmp = path.file_name().unwrap().to_os_string();
        tmp.push(".tmp");
        assert!(!path.with_file_name(tmp).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_torn_append_is_recoverable_on_resume() {
        let path = temp_path("chaos-torn");
        let acc = sample_acc();
        {
            let mut ckpt = Checkpoint::create(&path).unwrap();
            ckpt.record("cell", 0, &acc).unwrap();
            ckpt.attach_chaos(
                &ChaosConfig {
                    torn_write: 1.0,
                    ..ChaosConfig::none()
                },
                &Recorder::disabled(),
            );
            let err = ckpt.record("cell", 1, &acc).unwrap_err();
            assert!(err.to_string().contains("torn"), "{err}");
        }
        // The torn half-line is dropped at resume; network 1 is simply
        // recomputed and re-recorded on fresh lines.
        let mut ckpt = Checkpoint::resume(&path).unwrap();
        assert_eq!(ckpt.loaded_entries(), 1);
        ckpt.record("cell", 1, &acc).unwrap();
        let reloaded = Checkpoint::resume(&path).unwrap();
        let done = reloaded.completed("cell");
        assert_eq!(done.keys().copied().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(done[&1], acc);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_eintr_does_not_lose_appends() {
        use accu_core::chaos_metrics;
        let path = temp_path("chaos-eintr");
        let acc = sample_acc();
        let recorder = Recorder::enabled();
        {
            let mut ckpt = Checkpoint::create(&path).unwrap();
            ckpt.attach_chaos(
                &ChaosConfig {
                    eintr: 0.5,
                    seed: 21,
                    ..ChaosConfig::none()
                },
                &recorder,
            );
            for net in 0..8 {
                ckpt.record("cell", net, &acc).unwrap();
            }
        }
        let ckpt = Checkpoint::resume(&path).unwrap();
        assert_eq!(ckpt.completed("cell").len(), 8);
        assert_eq!(ckpt.skipped_lines(), 0);
        let snapshot = recorder.snapshot("checkpoint").unwrap();
        let eintr = snapshot.counter(chaos_metrics::EINTR).unwrap_or(0);
        assert!(eintr > 0, "a 50% EINTR stream over 8 appends injects some");
        assert_eq!(snapshot.counter(chaos_metrics::IO_FAULTS), Some(eintr));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appending_after_resume_preserves_old_entries() {
        let path = temp_path("append");
        let acc = sample_acc();
        {
            let mut ckpt = Checkpoint::create(&path).unwrap();
            ckpt.record("cell", 0, &acc).unwrap();
        }
        {
            let mut ckpt = Checkpoint::resume(&path).unwrap();
            ckpt.record("cell", 1, &acc).unwrap();
        }
        let ckpt = Checkpoint::resume(&path).unwrap();
        assert_eq!(ckpt.completed("cell").len(), 2);
        std::fs::remove_file(&path).ok();
    }
}
