//! Property tests for the event journal: **any** interleaving of
//! concurrent journal writers — different thread schedules, event
//! counts, severities, and correlation shapes, with or without a torn
//! final line — must read back as parseable JSONL whose per-writer
//! sequence numbers are strictly increasing, with exactly the torn
//! tail (and nothing else) skipped.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;

use accu_telemetry::{check_events, Corr, Event, Journal, Severity, Source};
use proptest::prelude::*;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "accu_journal_prop_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{tag}.jsonl"))
}

const SEVERITIES: [Severity; 4] = [
    Severity::Debug,
    Severity::Info,
    Severity::Warn,
    Severity::Error,
];
const KINDS: [&str; 4] = ["job.run", "lease.acquire", "run.chunk", "obs.alarm"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn interleaved_writers_yield_parseable_seq_monotonic_journal(
        writers in 1usize..5,
        counts in proptest::collection::vec(1usize..24, 4),
        sev_seed in any::<u64>(),
        torn_tail in any::<bool>(),
    ) {
        let path = scratch(&format!("interleave_{writers}_{sev_seed}"));
        let _ = std::fs::remove_file(&path);

        let expected: usize = counts.iter().take(writers).sum();
        std::thread::scope(|scope| {
            for (w, &count) in counts.iter().take(writers).enumerate() {
                let path = path.clone();
                scope.spawn(move || {
                    // Each thread gets its own journal handle, hence
                    // its own writer id and sequence stream — exactly
                    // like racing daemon incarnations on one registry.
                    let journal = Journal::append_to(&path).expect("open journal");
                    for i in 0..count {
                        let pick = (sev_seed as usize)
                            .wrapping_add(w * 31)
                            .wrapping_add(i * 7);
                        let corr = if pick.is_multiple_of(3) {
                            Corr::none()
                        } else {
                            Corr::job(format!("job-{w}")).epoch(i as u64 + 1)
                        };
                        journal.emit(
                            Event::new(SEVERITIES[pick % SEVERITIES.len()], KINDS[pick % KINDS.len()])
                                .corr(corr)
                                .msg(format!("writer {w} event {i}")),
                        );
                    }
                });
            }
        });
        if torn_tail {
            // A crash mid-append leaves a prefix of a line with no
            // terminating newline; readers must drop exactly it.
            let mut file = OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("reopen for tear");
            file.write_all(b"{\"type\":\"event\",\"writer\":9,\"se")
                .expect("torn tail");
        }

        // The validator checks every line shape and per-writer seq order.
        let read = check_events(&std::fs::read_to_string(&path).expect("read back"))
            .expect("valid journal");
        prop_assert_eq!(
            read.events.len(),
            expected,
            "every completed append must read back"
        );
        prop_assert_eq!(read.skipped_lines, usize::from(torn_tail));
        // Per-writer event counts survive the interleaving intact.
        for (w, &count) in counts.iter().take(writers).enumerate() {
            let seen = read
                .events
                .iter()
                .filter(|e| e.message().starts_with(&format!("writer {w} ")))
                .count();
            prop_assert_eq!(seen, count, "writer {} lost events", w);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// The daemon's sharing pattern: one journal handle cloned across
    /// threads must still emit a single `(writer, seq)` stream whose
    /// file order matches its sequence order — racing clones may not
    /// reorder or lose events.
    #[test]
    fn cloned_handle_across_threads_stays_one_monotonic_stream(
        threads in 2usize..6,
        per_thread in 1usize..16,
        sev_seed in any::<u64>(),
    ) {
        let path = scratch(&format!("clone_{threads}_{per_thread}_{sev_seed}"));
        let _ = std::fs::remove_file(&path);
        let journal = Journal::append_to(&path).expect("open journal");
        std::thread::scope(|scope| {
            for t in 0..threads {
                let journal = journal.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let pick = (sev_seed as usize).wrapping_add(t * 13 + i);
                        journal.emit(
                            Event::new(SEVERITIES[pick % SEVERITIES.len()], KINDS[pick % KINDS.len()])
                                .corr(Corr::job("shared").attempt(t as u64))
                                .msg(format!("thread {t} event {i}")),
                        );
                    }
                });
            }
        });
        let read = check_events(&std::fs::read_to_string(&path).expect("read back"))
            .expect("valid journal");
        prop_assert_eq!(read.events.len(), threads * per_thread);
        prop_assert_eq!(read.skipped_lines, 0);
        let writers: std::collections::BTreeSet<&Source> = read
            .events
            .iter()
            .map(|e| &e.stamp.as_ref().expect("journal lines are stamped").source)
            .collect();
        prop_assert_eq!(writers.len(), 1, "clones share one writer id");
        let _ = std::fs::remove_file(&path);
    }
}
