//! Event files written in the line formats that preceded the one event
//! schema (`"type":"journal"`, `"type":"trace"` and the
//! `{"accu_flight":1,…}` dump header) still read, validate and replay.
//! No writer in the workspace produces these lines any more: the
//! service daemon that wrote journals and flight dumps is gone, and
//! causal traces are written in the one event schema.
//!
//! The fixtures in `tests/fixtures/legacy/` were written by commit
//! 0f26f8b:
//!
//! * `journal.jsonl` and `flight.jsonl` — the service daemon's journal
//!   and crash dump after a daemon armed with `--kill-after-registry 3`
//!   aborted mid-job (`legacy-job`, `--budget 8 --samples 4 --runs 2
//!   --spec-seed 7`), and a second daemon on the same registry adopted
//!   and published it;
//! * `fig2.causal.jsonl` — `fig2 --samples 1 --runs 2 --budget 2
//!   --scale 0.01 --seed 3 --trace fig2.json:sample=2`.

use std::path::PathBuf;
use std::process::Command;

use accu_experiments::replay::{verify_episode, CausalLog};
use accu_telemetry::{check_events, read_events, Event, EventRead, Severity, Source};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/legacy")
        .join(name)
}

/// Reads a fixture both ways: the validator must accept it and agree
/// with the lenient reader.
fn read_fixture(name: &str) -> EventRead {
    let text = std::fs::read_to_string(fixture(name)).unwrap();
    let checked = check_events(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    let read = read_events(&text);
    assert_eq!(read.events, checked.events, "{name}");
    assert_eq!(checked.skipped_lines, 0, "{name}");
    checked
}

/// The events correlated to `job`, in file order.
fn for_job<'a>(read: &'a EventRead, job: &'a str) -> impl Iterator<Item = &'a Event> {
    read.events
        .iter()
        .filter(move |e| e.ids().job_id.as_deref() == Some(job))
}

#[test]
fn legacy_journal_tells_the_submit_kill_adopt_publish_chain() {
    let read = read_fixture("journal.jsonl");
    let writers: std::collections::BTreeSet<&Source> = read
        .events
        .iter()
        .map(|e| &e.stamp.as_ref().expect("journal lines are stamped").source)
        .collect();
    assert_eq!(writers.len(), 2, "two daemon incarnations");
    let kinds: Vec<&str> = for_job(&read, "legacy-job")
        .map(|e| e.kind.as_ref())
        .collect();
    let at = |kind: &str| {
        kinds
            .iter()
            .position(|k| *k == kind)
            .unwrap_or_else(|| panic!("no {kind} in {kinds:?}"))
    };
    assert!(at("job.submit") < at("chaos.kill"));
    assert!(at("chaos.kill") < at("job.adopt"));
    assert!(at("job.adopt") < at("job.publish"));
    let kill = for_job(&read, "legacy-job").nth(at("chaos.kill")).unwrap();
    assert_eq!(kill.sev, Severity::Error);
    assert!(kill.message().contains("kill-after-registry"), "{kill:?}");
}

#[test]
fn legacy_flight_dump_opens_with_its_header_and_ends_with_the_kill() {
    let read = read_fixture("flight.jsonl");
    let header = &read.events[0];
    assert_eq!(header.kind, "flight.dump");
    assert_eq!(header.get("accu_flight"), Some(&1u64.into()));
    assert_eq!(header.get("events"), Some(&(read.events.len() - 1).into()));
    let last = read.events.last().unwrap();
    assert_eq!(last.kind, "chaos.kill");
    assert_eq!(last.ids().job_id.as_deref(), Some("legacy-job"));
}

#[test]
fn legacy_causal_log_replays_every_sampled_episode_exactly() {
    let read = read_fixture("fig2.causal.jsonl");
    let log = CausalLog::from_events(&read.events).unwrap();
    assert_eq!(log.episodes.len(), 16, "one sampled episode per cell");
    assert_eq!((log.incomplete_episodes, log.dropped_events), (0, 0));
    for episode in &log.episodes {
        verify_episode(episode).unwrap();
    }
}

#[test]
fn the_analyzers_accept_every_legacy_file() {
    let explain = Command::new(env!("CARGO_BIN_EXE_trace_explain"))
        .arg("--quiet")
        .arg(fixture("fig2.causal.jsonl"))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&explain.stdout);
    assert!(explain.status.success(), "{stdout}");
    assert!(
        stdout.contains("16 episodes replayed, 0 mismatches"),
        "{stdout}"
    );
    for name in ["journal.jsonl", "flight.jsonl", "fig2.causal.jsonl"] {
        let check = Command::new(env!("CARGO_BIN_EXE_telemetry_diff"))
            .arg("--check-events")
            .arg(fixture(name))
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&check.stdout);
        assert!(check.status.success(), "{name}: {stdout}");
        assert!(stdout.contains("valid journal"), "{name}: {stdout}");
    }
}
