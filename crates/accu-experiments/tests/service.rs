//! Integration tests for the crash-only service daemon: at-most-once
//! execution across racing daemons, stale-lease adoption with torn
//! checkpoints, idempotent resubmission, admission control, and typed
//! bind errors.
//!
//! Everything here runs real daemons (threads, loopback TCP, on-disk
//! registries) against tiny figure specs, and every recovery assertion
//! is a *byte* comparison against an uninterrupted batch run of the
//! same spec — the service's headline guarantee.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use accu_experiments::service::{
    result_csv, ClientError, Daemon, DaemonConfig, JobSpec, JobState, Registry, ServiceClient,
};
use accu_experiments::{run_policy_with, Checkpoint, FigureRun, PolicyKind, RunOptions, RunReport};
use proptest::prelude::*;

/// A batch run of `figure` appending every network to `ckpt`.
fn checkpointed(figure: &FigureRun, policy: PolicyKind, ckpt: &mut Checkpoint) -> RunReport {
    let opts = RunOptions {
        checkpoint: Some(ckpt),
        ..RunOptions::default()
    };
    run_policy_with(figure, policy, opts).expect("batch run")
}

/// Reads an event file and validates it: known line shapes and
/// strictly increasing seq per writer.
fn check_file(path: &Path) -> accu_telemetry::EventRead {
    let text = fs::read_to_string(path).expect("read event file");
    accu_telemetry::check_events(&text).expect("valid event file")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "accu_service_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A spec small enough that a job finishes in well under a second.
fn tiny_spec(seed: u64) -> JobSpec {
    JobSpec {
        budget: 6,
        samples: 2,
        runs: 1,
        seed,
        ..JobSpec::default()
    }
}

/// The uninterrupted batch answer for `spec`: its result CSV and the
/// number of checkpoint entries a clean run records.
fn reference(spec: &JobSpec, dir: &Path) -> (String, usize) {
    let figure = spec.figure().expect("valid spec");
    let policy = spec.policy_kind().expect("valid policy");
    let path = dir.join("reference_checkpoint.jsonl");
    let mut ckpt = Checkpoint::create(&path).expect("create checkpoint");
    let report = checkpointed(&figure, policy, &mut ckpt);
    let entries = Checkpoint::resume(&path).expect("reread").loaded_entries();
    (result_csv(&figure, policy, &report.accumulator), entries)
}

fn client_for(daemon: &Daemon) -> ServiceClient {
    ServiceClient::connect(daemon.addr().to_string()).with_seed(7)
}

/// Two daemons share one registry pre-populated with queued jobs; both
/// startup sweeps adopt everything, four workers race on three jobs,
/// and the leases must keep execution at-most-once: every job ends at
/// epoch 1 (exactly one acquisition, zero takeovers), its checkpoint is
/// clean and complete, and its result is byte-identical to batch.
#[test]
fn racing_daemons_never_double_run_a_job() {
    let dir = temp_dir("race");
    let specs: Vec<JobSpec> = (0..3).map(|i| tiny_spec(100 + i)).collect();
    {
        let reg = Registry::open(&dir, 3_000).expect("open registry");
        for (i, spec) in specs.iter().enumerate() {
            reg.submit(&format!("race-{i}"), spec).expect("seed job");
        }
    }
    let config = |_: usize| DaemonConfig {
        lease_ttl: Duration::from_secs(3),
        max_jobs: 2,
        ..DaemonConfig::new(&dir)
    };
    let a = Daemon::start(config(0)).expect("daemon a");
    let b = Daemon::start(config(1)).expect("daemon b");
    let client = client_for(&b);
    for (i, spec) in specs.iter().enumerate() {
        let id = format!("race-{i}");
        let status = client
            .wait_done(&id, Duration::from_secs(120))
            .expect("job finishes");
        assert_eq!(status.state, JobState::Done, "{id}: {status}");
        assert_eq!(
            status.epoch, 1,
            "{id} must be executed by exactly one acquirer, no takeovers"
        );
        let reg = Registry::open(&dir, 3_000).expect("reopen registry");
        let ckpt = Checkpoint::resume(reg.checkpoint_path(&id)).expect("parse checkpoint");
        assert_eq!(ckpt.skipped_lines(), 0, "{id}: checkpoint must be clean");
        let (ref_csv, ref_entries) = reference(spec, &dir);
        assert_eq!(
            ckpt.loaded_entries(),
            ref_entries,
            "{id}: one execution's worth of entries, no duplicates"
        );
        assert_eq!(
            client.result_csv(&id).expect("result"),
            ref_csv,
            "{id}: recovered result must be byte-identical to batch"
        );
    }
    drop(a);
    drop(b);
    let _ = fs::remove_dir_all(&dir);
}

/// A job left behind by a "crashed" owner — stale lease, checkpoint
/// with a torn tail — is adopted by a fresh daemon's startup sweep,
/// resumed (recomputing only the torn entry), and finishes with a
/// byte-identical result and a status record that names the recovery.
#[test]
fn stale_lease_with_torn_checkpoint_is_adopted_byte_identically() {
    let dir = temp_dir("adopt");
    let spec = tiny_spec(7);
    let (ref_csv, ref_entries) = reference(&spec, &dir);
    let id = "adopt-1";
    {
        let reg = Registry::open(&dir, 150).expect("open registry");
        reg.submit(id, &spec).expect("seed job");
        // Simulate the dead owner's progress: a full checkpoint whose
        // final append was torn mid-write by the crash.
        let figure = spec.figure().unwrap();
        let policy = spec.policy_kind().unwrap();
        let mut ckpt = Checkpoint::create(reg.checkpoint_path(id)).unwrap();
        checkpointed(&figure, policy, &mut ckpt);
        let bytes = fs::read(reg.checkpoint_path(id)).unwrap();
        fs::write(reg.checkpoint_path(id), &bytes[..bytes.len() - 30]).unwrap();
        // The dead owner's lease, never renewed again.
        assert!(reg.lease(id).acquire(1).expect("lease io").is_some());
    }
    std::thread::sleep(Duration::from_millis(300)); // let the lease expire
    let daemon = Daemon::start(DaemonConfig {
        lease_ttl: Duration::from_millis(150),
        ..DaemonConfig::new(&dir)
    })
    .expect("daemon");
    let client = client_for(&daemon);
    let status = client
        .wait_done(id, Duration::from_secs(120))
        .expect("adopted job finishes");
    assert_eq!(status.state, JobState::Done, "{status}");
    assert_eq!(status.epoch, 2, "takeover must advance the epoch");
    assert!(
        status.detail.contains("recovered from torn checkpoint"),
        "recovery must be named in the status: {status}"
    );
    assert!(status.recovered_lines >= 1, "{status}");
    assert!(status.resumed_networks >= 1, "{status}");
    assert_eq!(
        client.result_csv(id).expect("result"),
        ref_csv,
        "adopted result must be byte-identical to batch"
    );
    // The checkpoint is append-only: resume newline-terminates the torn
    // garbage and appends past it, so a re-read still skips exactly that
    // one line while holding a full set of entries.
    let reg = Registry::open(&dir, 150).expect("reopen");
    let ckpt = Checkpoint::resume(reg.checkpoint_path(id)).expect("parse checkpoint");
    assert_eq!(ckpt.skipped_lines(), 1, "the terminated torn line remains");
    assert_eq!(ckpt.loaded_entries(), ref_entries);
    drop(daemon);
    let _ = fs::remove_dir_all(&dir);
}

/// Resubmitting a finished job returns the cached result without
/// re-execution: the checkpoint file's bytes do not change.
#[test]
fn finished_jobs_resubmit_from_cache_without_reexecution() {
    let dir = temp_dir("idem");
    let spec = tiny_spec(21);
    let daemon = Daemon::start(DaemonConfig::new(&dir)).expect("daemon");
    let client = client_for(&daemon);
    let (state, cached, _) = client.submit("idem-1", &spec).expect("submit");
    assert_eq!(state, JobState::Queued);
    assert!(!cached);
    client
        .wait_done("idem-1", Duration::from_secs(120))
        .expect("finishes");
    let reg = Registry::open(&dir, 1_000).expect("reopen");
    let first_result = client.result_csv("idem-1").expect("result");
    let checkpoint_before = fs::read(reg.checkpoint_path("idem-1")).expect("checkpoint bytes");

    let (state, cached, attached) = client.submit("idem-1", &spec).expect("resubmit");
    assert_eq!(state, JobState::Done);
    assert!(cached, "finished job must answer from cache");
    assert!(!attached);
    assert_eq!(client.result_csv("idem-1").expect("result"), first_result);
    assert_eq!(
        fs::read(reg.checkpoint_path("idem-1")).expect("checkpoint bytes"),
        checkpoint_before,
        "cached resubmission must not re-execute"
    );

    // Same id, different spec: rejected, not silently replaced.
    let err = client
        .submit("idem-1", &tiny_spec(22))
        .expect_err("spec mismatch");
    assert!(
        matches!(&err, ClientError::Server(m) if m.contains("different spec")),
        "{err}"
    );
    drop(daemon);
    let _ = fs::remove_dir_all(&dir);
}

/// Admission control: with no workers and a one-slot queue, the second
/// distinct submission is answered `Overloaded` (and provably not
/// admitted), idempotent resubmission of the queued job still attaches,
/// and cancelling frees the slot.
#[test]
fn overloaded_daemon_rejects_new_submissions_with_a_typed_answer() {
    let dir = temp_dir("overload");
    let daemon = Daemon::start(DaemonConfig {
        max_jobs: 0, // accept-only: nothing ever leaves the queue
        queue_cap: 1,
        ..DaemonConfig::new(&dir)
    })
    .expect("daemon");
    let client = client_for(&daemon);
    let (state, _, _) = client.submit("full-1", &tiny_spec(1)).expect("first");
    assert_eq!(state, JobState::Queued);

    let err = client
        .submit("full-2", &tiny_spec(2))
        .expect_err("queue is full");
    match &err {
        ClientError::Overloaded { queued, cap, .. } => {
            assert_eq!((*queued, *cap), (1, 1));
        }
        other => panic!("expected Overloaded, got {other}"),
    }
    assert!(
        matches!(client.status("full-2"), Err(ClientError::Server(_))),
        "an overloaded submission must leave no trace in the registry"
    );

    // Idempotent resubmission needs no queue slot.
    let (state, cached, attached) = client.submit("full-1", &tiny_spec(1)).expect("resubmit");
    assert_eq!((state, cached, attached), (JobState::Queued, false, true));

    // Cancelling the queued job frees the slot for new work.
    let status = client.cancel("full-1").expect("cancel");
    assert_eq!(status.state, JobState::Cancelled);
    let (state, _, _) = client.submit("full-3", &tiny_spec(3)).expect("slot freed");
    assert_eq!(state, JobState::Queued);
    drop(daemon);
    let _ = fs::remove_dir_all(&dir);
}

/// A daemon refusing to bind reports a typed error naming the address.
#[test]
fn daemon_bind_collision_yields_a_typed_error_naming_the_address() {
    let dir = temp_dir("bind");
    let first = Daemon::start(DaemonConfig::new(dir.join("a"))).expect("first daemon");
    let taken = first.addr().to_string();
    let err = Daemon::start(DaemonConfig {
        listen: taken.clone(),
        ..DaemonConfig::new(dir.join("b"))
    })
    .expect_err("address already taken");
    assert!(err.is_addr_in_use(), "{err}");
    assert_eq!(err.addr(), taken);
    assert!(err.to_string().contains(&taken), "{err}");
    drop(first);
    let _ = fs::remove_dir_all(&dir);
}

/// The watch stream delivers the job's progress lines and terminates
/// with the job's terminal state — including when the subscription
/// arrives after the job already finished (pure replay).
#[test]
fn watch_streams_progress_lines_until_terminal() {
    let dir = temp_dir("watch");
    let daemon = Daemon::start(DaemonConfig::new(&dir)).expect("daemon");
    let client = client_for(&daemon);
    client.submit("watch-1", &tiny_spec(5)).expect("submit");
    let mut lines = Vec::new();
    let state = client
        .watch("watch-1", Duration::from_secs(120), |seq, line| {
            lines.push((seq, line.to_string()));
        })
        .expect("watch completes");
    assert_eq!(state, JobState::Done);
    assert!(!lines.is_empty(), "a run must emit progress events");
    // Replay after the fact sees the same stream from the top.
    let mut replayed = 0usize;
    let state = client
        .watch("watch-1", Duration::from_secs(30), |_, _| replayed += 1)
        .expect("replay completes");
    assert_eq!(state, JobState::Done);
    assert!(replayed >= lines.len(), "replay must not lose lines");
    drop(daemon);
    let _ = fs::remove_dir_all(&dir);
}

/// The `health` and `service_status` verbs summarize the daemon over
/// the wire: job counts, per-job rows, and a journal tail — and the
/// on-disk journal reconstructs the job's life by id alone.
#[test]
fn health_and_status_verbs_summarize_the_daemon() {
    let dir = temp_dir("obs_verbs");
    let daemon = Daemon::start(DaemonConfig::new(&dir)).expect("daemon");
    let client = client_for(&daemon);
    client.submit("obs-1", &tiny_spec(9)).expect("submit");
    let status = client
        .wait_done("obs-1", Duration::from_secs(120))
        .expect("finishes");
    assert_eq!(status.state, JobState::Done);

    let health = client.health().expect("health verb");
    assert_eq!(health.pid, std::process::id());
    assert_eq!(health.jobs, 1, "{health:?}");
    assert_eq!(health.done, 1, "{health:?}");
    assert_eq!(health.failed, 0, "{health:?}");

    let summary = client.service_status(50).expect("service_status verb");
    assert_eq!(summary.health.pid, health.pid);
    assert_eq!(summary.jobs.len(), 1);
    assert_eq!(summary.jobs[0].job, "obs-1");
    assert_eq!(summary.jobs[0].state, JobState::Done);
    assert!(
        !summary.journal_tail.is_empty(),
        "a finished job must leave journal lines"
    );

    // The journal on disk reconstructs the job's life by id alone.
    let read = check_file(&dir.join("journal.jsonl"));
    let kinds: Vec<&str> = read.for_job("obs-1").map(|e| e.kind.as_ref()).collect();
    for expected in ["job.submit", "lease.acquire", "job.run", "job.publish"] {
        assert!(
            kinds.contains(&expected),
            "journal must record {expected}, got {kinds:?}"
        );
    }
    let submit = kinds.iter().position(|k| *k == "job.submit").unwrap();
    let publish = kinds.iter().rposition(|k| *k == "job.publish").unwrap();
    assert!(submit < publish, "submit must precede publish: {kinds:?}");
    drop(daemon);
    let _ = fs::remove_dir_all(&dir);
}

/// A real `accu-serve` child armed with `--kill-after-registry` aborts
/// mid-job and must leave a readable flight-recorder dump in the job
/// dir whose final event is the journaled abort itself — the crash's
/// last words, correlated to the job that died.
#[test]
fn kill_after_registry_abort_leaves_a_readable_flight_dump() {
    use std::io::BufRead;

    let dir = temp_dir("obs_dump");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_accu-serve"))
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--registry")
        .arg(&dir)
        // Writes 1–2 are the submitted spec + queued status; write 3 is
        // the `running` status, so the abort lands with the job dir
        // fully formed.
        .arg("--kill-after-registry")
        .arg("3")
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn accu-serve");
    // The daemon's first stdout line names its ephemeral address.
    let stdout = child.stdout.take().expect("child stdout");
    let mut first_line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut first_line)
        .expect("read listen line");
    let addr = first_line
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("listen line names the address")
        .to_string();

    let client = ServiceClient::connect(addr).with_seed(11);
    // The abort can race the response frame; the submission only needs
    // to land durably before the kill fires.
    let _ = client.submit("dump-1", &tiny_spec(13));
    let status = child.wait().expect("child exits");
    assert!(
        !status.success(),
        "the armed kill must abort the daemon, got {status:?}"
    );

    let dump_path = dir.join("jobs").join("dump-1").join("flight.jsonl");
    let dump = check_file(&dump_path);
    assert_eq!(
        dump.events[0].kind, "flight.dump",
        "the dump opens with its header"
    );
    let last = dump.events.last().expect("dump holds the final events");
    assert_eq!(
        last.kind, "chaos.kill",
        "the dump's last event must be the abort itself: {last:?}"
    );
    assert_eq!(last.ids().job_id.as_deref(), Some("dump-1"), "{last:?}");
    assert!(
        last.message().contains("kill-after-registry"),
        "the abort names its channel: {last:?}"
    );
    // The shared journal also recorded the abort durably.
    let read = check_file(&dir.join("journal.jsonl"));
    assert!(
        read.for_job("dump-1").any(|e| e.kind == "chaos.kill"),
        "journal must record the abort"
    );
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any number of same-process racers hammering one lease file grant
    /// exactly one winner, for both fresh acquisition and stale-lease
    /// takeover — the primitive the cross-daemon at-most-once guarantee
    /// reduces to.
    #[test]
    fn lease_races_grant_exactly_one_winner(seed in any::<u64>(), racers in 2usize..6) {
        let dir = temp_dir(&format!("prop_lease_{}", seed % 1024));
        let reg = Registry::open(&dir, 1_000).expect("open registry");
        reg.submit("prop-1", &tiny_spec(seed % 97)).expect("seed job");
        let lease_file = reg.lease("prop-1");
        let winners: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..racers)
                .map(|i| {
                    let lf = lease_file.clone();
                    scope.spawn(move || {
                        // Seeded stagger so different cases explore
                        // different interleavings.
                        std::thread::sleep(Duration::from_micros(
                            (seed ^ i as u64) % 200,
                        ));
                        usize::from(lf.acquire(1).expect("lease io").is_some())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        prop_assert_eq!(winners, 1, "fresh acquire");
        // Now every racer tries to take the (not actually stale) lease
        // over: again exactly one may win, and the epoch advances once.
        let current = lease_file.read().expect("read").expect("held");
        let winners: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..racers)
                .map(|i| {
                    let lf = lease_file.clone();
                    scope.spawn(move || {
                        std::thread::sleep(Duration::from_micros(
                            (seed.rotate_left(i as u32)) % 200,
                        ));
                        usize::from(lf.takeover(&current).expect("lease io").is_some())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        prop_assert_eq!(winners, 1, "takeover");
        prop_assert_eq!(lease_file.read().expect("read").expect("held").epoch, 2);
        let _ = fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// An expired lease plus a valid (cleanly truncated) checkpoint:
    /// whatever prefix of the work the dead owner completed, adoption
    /// resumes it and lands on the byte-identical batch result.
    #[test]
    fn expired_lease_with_valid_checkpoint_resumes_byte_identically(
        stale_epoch in 1u64..4,
        drop_entries in 1usize..3,
    ) {
        let dir = temp_dir(&format!("prop_resume_{stale_epoch}_{drop_entries}"));
        // Three networks → three checkpoint entries, so dropping up to
        // two still leaves at least one to resume from.
        let spec = JobSpec { samples: 3, ..tiny_spec(33) };
        let (ref_csv, _) = reference(&spec, &dir);
        let id = "prop-resume";
        {
            let reg = Registry::open(&dir, 120).expect("open registry");
            reg.submit(id, &spec).expect("seed job");
            let figure = spec.figure().unwrap();
            let policy = spec.policy_kind().unwrap();
            let mut ckpt = Checkpoint::create(reg.checkpoint_path(id)).unwrap();
            checkpointed(&figure, policy, &mut ckpt);
            // Cleanly drop whole trailing entries: a valid checkpoint
            // that simply ends early.
            let text = fs::read_to_string(reg.checkpoint_path(id)).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            prop_assert!(lines.len() > drop_entries + 1); // keep header + 1 entry
            let kept = lines[..lines.len() - drop_entries].join("\n") + "\n";
            fs::write(reg.checkpoint_path(id), kept).unwrap();
            prop_assert!(reg.lease(id).acquire(stale_epoch).expect("lease io").is_some());
        }
        std::thread::sleep(Duration::from_millis(250)); // expire the lease
        let daemon = Daemon::start(DaemonConfig {
            lease_ttl: Duration::from_millis(120),
            ..DaemonConfig::new(&dir)
        })
        .expect("daemon");
        let client = client_for(&daemon);
        let status = client
            .wait_done(id, Duration::from_secs(120))
            .expect("adopted job finishes");
        prop_assert_eq!(status.state, JobState::Done);
        prop_assert_eq!(status.epoch, stale_epoch + 1);
        prop_assert!(status.resumed_networks >= 1, "{}", status);
        prop_assert_eq!(client.result_csv(id).expect("result"), ref_csv);
        drop(daemon);
        let _ = fs::remove_dir_all(&dir);
    }
}
