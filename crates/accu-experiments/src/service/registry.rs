//! The on-disk job registry: one directory per job, every mutation an
//! atomic file replacement, shared safely between any number of daemon
//! processes via the [`lease`](super::lease) protocol.
//!
//! ```text
//! <root>/jobs/<id>/
//!   spec.json        the submitted JobSpec (canonical encoding)
//!   status.json      JobStatus: state machine + diagnostics
//!   lease            advisory ownership (see service::lease)
//!   checkpoint.jsonl PR-2 runner checkpoint (resume granularity)
//!   progress.jsonl   PR-6 observer stream (watch granularity)
//!   result.csv       final CSV, written once, atomically
//! ```
//!
//! Every registry write goes through `atomic_write` (temp sibling +
//! rename + parent fsync): a reader — including a daemon that starts
//! mid-crash — never observes a torn `spec.json`, `status.json`, or
//! `result.csv`. Under chaos, writes are routed through the seeded
//! failpoint site `"registry"` and retried a bounded number of times
//! (the op counter advances per attempt, so the retry schedule is as
//! deterministic as the faults); the registry also hosts the daemon's
//! second kill channel, aborting the process after a configured number
//! of durable registry writes.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use accu_core::ChaosPlan;
use accu_telemetry::{json_escape, parse_json, Corr, Event, Journal};

use crate::chaosfs::{atomic_write, atomic_write_chaos, ChaosSite};
use crate::service::lease::{now_ms, LeaseFile};
use crate::service::spec::{validate_job_id, JobSpec};

/// Injected-fault retry budget per registry write. Deep enough that a
/// soak-level fault probability exhausts it only with negligible
/// (seeded, reproducible) probability.
const WRITE_ATTEMPTS: u32 = 8;

/// Where a job stands in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker (or for adoption).
    Queued,
    /// A lease holder is executing it.
    Running,
    /// Finished; `result.csv` is on disk.
    Done,
    /// Execution failed; `detail` carries the error.
    Failed,
    /// Cancelled while queued.
    Cancelled,
}

impl JobState {
    /// Wire / file encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses the wire / file encoding.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown state.
    pub fn parse(s: &str) -> Result<JobState, String> {
        match s {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "done" => Ok(JobState::Done),
            "failed" => Ok(JobState::Failed),
            "cancelled" => Ok(JobState::Cancelled),
            other => Err(format!("unknown job state {other:?}")),
        }
    }

    /// Whether the job will never transition again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The durable per-job status record (`status.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Lifecycle state.
    pub state: JobState,
    /// Human-readable diagnostics: the failure message, or recovery
    /// notes like `recovered from torn checkpoint (1 line dropped)`.
    pub detail: String,
    /// Torn checkpoint lines dropped when the (re)run opened its
    /// checkpoint (from `RunReport::checkpoint_skipped_lines`).
    pub recovered_lines: usize,
    /// Networks resumed from the checkpoint rather than recomputed.
    pub resumed_networks: usize,
    /// Lease epoch of the writer (0 before first execution) — shows up
    /// in `accu-cli status` as the number of ownership changes.
    pub epoch: u64,
}

impl std::fmt::Display for JobStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (epoch {})", self.state, self.epoch)?;
        if !self.detail.is_empty() {
            write!(f, " — {}", self.detail)?;
        }
        Ok(())
    }
}

impl JobStatus {
    /// A freshly queued status.
    pub fn queued() -> Self {
        JobStatus {
            state: JobState::Queued,
            detail: String::new(),
            recovered_lines: 0,
            resumed_networks: 0,
            epoch: 0,
        }
    }

    /// Serializes as single-line JSON.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"state\":\"{}\",\"detail\":\"{}\",\"recovered_lines\":{},\
             \"resumed_networks\":{},\"epoch\":{}}}",
            self.state.as_str(),
            json_escape(&self.detail),
            self.recovered_lines,
            self.resumed_networks,
            self.epoch
        )
    }

    /// Parses the JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or fields.
    pub fn from_json(text: &str) -> Result<JobStatus, String> {
        let doc = parse_json(text)?;
        let state = doc
            .get("state")
            .and_then(|v| v.as_str())
            .ok_or("status missing state")?;
        Ok(JobStatus {
            state: JobState::parse(state)?,
            detail: doc
                .get("detail")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string(),
            recovered_lines: doc
                .get("recovered_lines")
                .and_then(|v| v.as_u64())
                .unwrap_or(0) as usize,
            resumed_networks: doc
                .get("resumed_networks")
                .and_then(|v| v.as_u64())
                .unwrap_or(0) as usize,
            epoch: doc.get("epoch").and_then(|v| v.as_u64()).unwrap_or(0),
        })
    }
}

/// What a submission did to the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// New job directory created and queued.
    Created,
    /// The job already finished with the same spec — serve the cached
    /// result, execute nothing.
    Cached,
    /// The job is queued or running under the same spec — attach to it.
    Attached,
    /// The job previously failed or was cancelled; it has been
    /// re-queued for another attempt.
    Requeued,
}

/// A registry error: I/O, or a semantic rejection with a message.
#[derive(Debug)]
pub enum RegistryError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The submission or lookup was rejected (bad id, spec mismatch,
    /// unknown job, corrupt record).
    Rejected(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry I/O failed: {e}"),
            RegistryError::Rejected(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Io(e) => Some(e),
            RegistryError::Rejected(_) => None,
        }
    }
}

impl From<io::Error> for RegistryError {
    fn from(e: io::Error) -> Self {
        RegistryError::Io(e)
    }
}

/// The file-locked job registry rooted at one directory. Cheap to
/// share behind an `Arc`; all interior state is atomic.
#[derive(Debug)]
pub struct Registry {
    root: PathBuf,
    lease_ttl_ms: u64,
    /// Seeded failpoint site for registry writes, when chaos is
    /// attached.
    site: Option<ChaosSite>,
    /// Durable registry writes completed so far (drives
    /// `kill_after_writes` — the daemon's registry-side kill channel).
    writes: AtomicU64,
    /// Abort the process after this many durable registry writes.
    kill_after_writes: Option<u64>,
    /// Journal for crash forensics: the kill-channel abort journals the
    /// killed write and dumps the journal's crash ring into the job dir
    /// the write was targeting.
    obs: Option<Journal>,
}

impl Registry {
    /// Opens (creating if needed) a registry rooted at `root`, with
    /// leases considered stale after `lease_ttl_ms` of heartbeat
    /// silence.
    ///
    /// # Errors
    ///
    /// Any error creating the directory tree.
    pub fn open(root: impl Into<PathBuf>, lease_ttl_ms: u64) -> io::Result<Registry> {
        let root = root.into();
        fs::create_dir_all(root.join("jobs"))?;
        Ok(Registry {
            root,
            lease_ttl_ms,
            site: None,
            writes: AtomicU64::new(0),
            kill_after_writes: None,
            obs: None,
        })
    }

    /// Routes subsequent writes through the run's seeded chaos schedule
    /// (failpoint site `"registry"`). A trivial plan attaches nothing.
    pub fn attach_chaos(&mut self, plan: &ChaosPlan) {
        if !plan.is_trivial() {
            self.site = Some(ChaosSite::new(*plan, "registry"));
        }
    }

    /// Arms the registry-side kill channel: the process aborts after
    /// `n` durable registry writes (chaos testing only).
    pub fn set_kill_after_writes(&mut self, n: Option<u64>) {
        self.kill_after_writes = n;
    }

    /// Attaches crash forensics: when the kill channel aborts the
    /// process, the killed write is journaled (kind `chaos.kill`, with
    /// the job id recovered from the target path) and the journal's
    /// crash ring is dumped to `flight.jsonl` inside the job dir being
    /// written.
    pub fn attach_obs(&mut self, journal: Journal) {
        self.obs = Some(journal);
    }

    /// The daemon-wide event journal, shared by every daemon
    /// incarnation that serves this registry — one greppable file per
    /// service, so adoption chains across restarts stay in one place.
    pub fn journal_path(&self) -> PathBuf {
        self.root.join("journal.jsonl")
    }

    /// The job's flight-recorder dump (present only after a crash path
    /// fired in that job's context).
    pub fn flight_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("flight.jsonl")
    }

    /// The registry root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The configured lease TTL in milliseconds.
    pub fn lease_ttl_ms(&self) -> u64 {
        self.lease_ttl_ms
    }

    /// The directory for job `id` (not necessarily existing).
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.root.join("jobs").join(id)
    }

    /// The job's checkpoint file.
    pub fn checkpoint_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("checkpoint.jsonl")
    }

    /// The job's progress stream.
    pub fn progress_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("progress.jsonl")
    }

    /// The job's result CSV.
    pub fn result_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("result.csv")
    }

    /// The job's lease handle.
    pub fn lease(&self, id: &str) -> LeaseFile {
        LeaseFile::new(&self.job_dir(id))
    }

    /// One durable registry write: atomic replacement, chaos-routed and
    /// retried when a site is attached, counted against the registry
    /// kill channel once it lands.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match &self.site {
            None => atomic_write(path, bytes)?,
            Some(site) => {
                let mut attempt = 0;
                loop {
                    match atomic_write_chaos(path, bytes, site) {
                        Ok(()) => break,
                        Err(e) if attempt + 1 < WRITE_ATTEMPTS => {
                            attempt += 1;
                            let _ = e; // deterministic injected fault; retry
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        let done = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(kill_after) = self.kill_after_writes {
            if done >= kill_after {
                eprintln!(
                    "chaos: aborting after {kill_after} durable registry write(s) (kill-after-registry)"
                );
                if let Some(journal) = &self.obs {
                    // `path` is `<root>/jobs/<id>/<file>`: recover the
                    // job id so the kill event joins the job's chain,
                    // and leave the dump inside that job's directory.
                    let job_dir = path.parent().unwrap_or_else(|| Path::new("."));
                    let corr = job_dir
                        .file_name()
                        .and_then(|n| n.to_str())
                        .map(Corr::job)
                        .unwrap_or_default();
                    let file = path
                        .file_name()
                        .and_then(|n| n.to_str())
                        .unwrap_or("<registry file>");
                    journal.emit_and_dump(
                        Event::error("chaos.kill").corr(corr).msg(format!(
                            "kill-after-registry abort on durable write {done} ({file})"
                        )),
                        &job_dir.join("flight.jsonl"),
                    );
                }
                std::process::abort();
            }
        }
        Ok(())
    }

    /// Submits `spec` under `id`, idempotently. See [`SubmitOutcome`]
    /// for the four legal results; a resubmission whose spec hash
    /// differs from the recorded one is rejected.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Rejected`] for an invalid id, an invalid spec,
    /// or a spec mismatch; [`RegistryError::Io`] otherwise.
    pub fn submit(&self, id: &str, spec: &JobSpec) -> Result<SubmitOutcome, RegistryError> {
        validate_job_id(id).map_err(RegistryError::Rejected)?;
        spec.validate().map_err(RegistryError::Rejected)?;
        let dir = self.job_dir(id);
        let spec_path = dir.join("spec.json");
        if spec_path.exists() {
            let recorded = self.read_spec(id)?;
            if recorded.hash() != spec.hash() {
                return Err(RegistryError::Rejected(format!(
                    "job {id:?} already exists with a different spec \
                     (recorded hash {}, submitted {})",
                    recorded.hash(),
                    spec.hash()
                )));
            }
            let status = self.read_status(id)?;
            return Ok(match status.state {
                JobState::Done => SubmitOutcome::Cached,
                JobState::Queued | JobState::Running => SubmitOutcome::Attached,
                JobState::Failed | JobState::Cancelled => {
                    self.write_status(
                        id,
                        &JobStatus {
                            state: JobState::Queued,
                            detail: format!("requeued after {}", status.state),
                            ..status
                        },
                    )?;
                    SubmitOutcome::Requeued
                }
            });
        }
        fs::create_dir_all(&dir).map_err(RegistryError::Io)?;
        self.write_file(&spec_path, spec.to_json().as_bytes())?;
        self.write_status(id, &JobStatus::queued())?;
        Ok(SubmitOutcome::Created)
    }

    /// Reads the recorded spec for `id`.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Rejected`] for an unknown job or a corrupt
    /// record; [`RegistryError::Io`] otherwise.
    pub fn read_spec(&self, id: &str) -> Result<JobSpec, RegistryError> {
        let path = self.job_dir(id).join("spec.json");
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(RegistryError::Rejected(format!("unknown job {id:?}")))
            }
            Err(e) => return Err(RegistryError::Io(e)),
        };
        JobSpec::from_json(&text)
            .map_err(|e| RegistryError::Rejected(format!("job {id:?} spec is corrupt: {e}")))
    }

    /// Reads the current status for `id`.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Rejected`] for an unknown job or a corrupt
    /// record; [`RegistryError::Io`] otherwise.
    pub fn read_status(&self, id: &str) -> Result<JobStatus, RegistryError> {
        let path = self.job_dir(id).join("status.json");
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(RegistryError::Rejected(format!("unknown job {id:?}")))
            }
            Err(e) => return Err(RegistryError::Io(e)),
        };
        JobStatus::from_json(&text)
            .map_err(|e| RegistryError::Rejected(format!("job {id:?} status is corrupt: {e}")))
    }

    /// Durably replaces the status record for `id`.
    ///
    /// # Errors
    ///
    /// Any (possibly injected) I/O error that survives the retry
    /// budget.
    pub fn write_status(&self, id: &str, status: &JobStatus) -> io::Result<()> {
        self.write_file(
            &self.job_dir(id).join("status.json"),
            status.to_json().as_bytes(),
        )
    }

    /// Durably writes the final result CSV for `id`.
    ///
    /// # Errors
    ///
    /// Any (possibly injected) I/O error that survives the retry
    /// budget.
    pub fn write_result(&self, id: &str, csv: &str) -> io::Result<()> {
        self.write_file(&self.result_path(id), csv.as_bytes())
    }

    /// Reads the result CSV for a finished job.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Rejected`] when no result exists yet.
    pub fn read_result(&self, id: &str) -> Result<String, RegistryError> {
        match fs::read_to_string(self.result_path(id)) {
            Ok(csv) => Ok(csv),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Err(RegistryError::Rejected(format!(
                "job {id:?} has no result yet"
            ))),
            Err(e) => Err(RegistryError::Io(e)),
        }
    }

    /// All job ids present in the registry, sorted.
    ///
    /// # Errors
    ///
    /// Any error listing the jobs directory.
    pub fn jobs(&self) -> io::Result<Vec<String>> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(self.root.join("jobs"))? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                if let Some(name) = entry.file_name().to_str() {
                    ids.push(name.to_string());
                }
            }
        }
        ids.sort();
        Ok(ids)
    }

    /// Jobs that need an executor: non-terminal, and either leaseless
    /// or held by a lease that has gone stale. This is the adoption
    /// sweep a (re)started daemon runs to pick up work orphaned by a
    /// crash — its own earlier incarnation's or another daemon's.
    ///
    /// # Errors
    ///
    /// Any error listing the jobs directory; per-job read errors skip
    /// the job (a half-created directory is not adoptable yet).
    pub fn orphans(&self) -> io::Result<Vec<String>> {
        let now = now_ms();
        let mut out = Vec::new();
        for id in self.jobs()? {
            let Ok(status) = self.read_status(&id) else {
                continue;
            };
            if status.state.is_terminal() {
                continue;
            }
            match self.lease(&id).read() {
                Ok(None) => out.push(id),
                Ok(Some(lease)) if lease.is_stale(self.lease_ttl_ms, now) => out.push(id),
                _ => {}
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accu_core::ChaosConfig;

    fn temp_registry(tag: &str) -> Registry {
        let root = std::env::temp_dir().join(format!(
            "accu_registry_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&root);
        Registry::open(root, 5_000).unwrap()
    }

    #[test]
    fn submit_is_idempotent_across_the_lifecycle() {
        let reg = temp_registry("idem");
        let spec = JobSpec::default();
        assert_eq!(reg.submit("job-1", &spec).unwrap(), SubmitOutcome::Created);
        assert_eq!(reg.submit("job-1", &spec).unwrap(), SubmitOutcome::Attached);
        let done = JobStatus {
            state: JobState::Done,
            ..JobStatus::queued()
        };
        reg.write_status("job-1", &done).unwrap();
        assert_eq!(reg.submit("job-1", &spec).unwrap(), SubmitOutcome::Cached);
        let failed = JobStatus {
            state: JobState::Failed,
            detail: "boom".to_string(),
            ..JobStatus::queued()
        };
        reg.write_status("job-1", &failed).unwrap();
        assert_eq!(reg.submit("job-1", &spec).unwrap(), SubmitOutcome::Requeued);
        assert_eq!(reg.read_status("job-1").unwrap().state, JobState::Queued);
        let _ = fs::remove_dir_all(reg.root());
    }

    #[test]
    fn mismatched_spec_is_rejected_not_unified() {
        let reg = temp_registry("mismatch");
        reg.submit("job-1", &JobSpec::default()).unwrap();
        let other = JobSpec {
            seed: 43,
            ..JobSpec::default()
        };
        let err = reg.submit("job-1", &other).unwrap_err();
        assert!(err.to_string().contains("different spec"), "{err}");
        let _ = fs::remove_dir_all(reg.root());
    }

    #[test]
    fn bad_ids_and_unknown_jobs_are_rejected() {
        let reg = temp_registry("reject");
        assert!(reg.submit("../oops", &JobSpec::default()).is_err());
        assert!(reg.read_status("nope").is_err());
        assert!(reg.read_result("nope").is_err());
        let _ = fs::remove_dir_all(reg.root());
    }

    #[test]
    fn status_round_trips_through_json() {
        let status = JobStatus {
            state: JobState::Running,
            detail: "recovered from torn checkpoint (1 line dropped)".to_string(),
            recovered_lines: 1,
            resumed_networks: 2,
            epoch: 3,
        };
        assert_eq!(JobStatus::from_json(&status.to_json()).unwrap(), status);
    }

    #[test]
    fn orphan_sweep_finds_leaseless_and_stale_jobs() {
        let reg = temp_registry("orphans");
        let spec = JobSpec::default();
        reg.submit("free", &spec).unwrap(); // queued, no lease
        reg.submit("held", &spec).unwrap();
        reg.submit("stale", &spec).unwrap();
        reg.submit("done", &spec).unwrap();
        reg.write_status(
            "done",
            &JobStatus {
                state: JobState::Done,
                ..JobStatus::queued()
            },
        )
        .unwrap();
        // "held": live lease from this process.
        let held = reg.lease("held").acquire(1).unwrap().unwrap();
        assert!(reg.lease("held").renew(&held).unwrap());
        // "stale": lease whose heartbeat is ancient (write it raw).
        fs::write(
            reg.lease("stale").path(),
            format!(
                "{{\"pid\":{},\"epoch\":1,\"beat_ms\":1}}",
                std::process::id()
            ),
        )
        .unwrap();
        assert_eq!(reg.orphans().unwrap(), vec!["free", "stale"]);
        let _ = fs::remove_dir_all(reg.root());
    }

    #[test]
    fn chaos_writes_retry_to_completion() {
        let mut reg = temp_registry("chaos");
        // torn 0.3 / eintr 0.3: roughly half of all write attempts fail
        // (EINTR is retried transparently inside write_all, so only the
        // torn draws consume attempts) — heavy enough to exercise the
        // retry loop on nearly every file, light enough that the
        // 8-attempt budget always wins for this seed.
        reg.attach_chaos(&ChaosPlan::sample(&ChaosConfig {
            torn_write: 0.3,
            eintr: 0.3,
            seed: 11,
            ..ChaosConfig::none()
        }));
        let spec = JobSpec::default();
        for i in 0..6 {
            let id = format!("job-{i}");
            reg.submit(&id, &spec).unwrap();
            assert_eq!(reg.read_status(&id).unwrap().state, JobState::Queued);
            assert_eq!(reg.read_spec(&id).unwrap(), spec);
        }
        let _ = fs::remove_dir_all(reg.root());
    }
}
