//! Replays a `--trace` causal log into a human-readable per-episode
//! narrative — and, in the same pass, proves the trace is faithful:
//! every sampled episode's request stream must reconstruct its recorded
//! `total_benefit` bit-exactly, or the binary exits non-zero.
//!
//! ```text
//! trace_explain [--quiet] [--check-chrome FILE.json]... [LOG.causal.jsonl]...
//! ```
//!
//! * positional arguments are JSONL causal logs: each is validated
//!   with [`check_events`] (the validator `telemetry_diff
//!   --check-events` runs), every complete episode is verified (see
//!   [`accu_experiments::replay::verify_episode`]), and — unless
//!   `--quiet` — narrated step by step;
//! * `--check-chrome FILE` structurally validates a Chrome trace-event
//!   export (well-formed JSON, balanced begin/end per track) without
//!   needing Perfetto, which is what the CI smoke job runs;
//! * `--quiet` suppresses the narratives, keeping only the per-file
//!   verification summaries.

use std::process::ExitCode;

use accu_experiments::replay::{narrate_episode, verify_episode, CausalLog};
use accu_telemetry::{check_events, validate_chrome_trace};

fn usage() -> ! {
    eprintln!("usage: trace_explain [--quiet] [--check-chrome FILE.json]... [LOG.causal.jsonl]...");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut quiet = false;
    let mut chrome_files: Vec<String> = Vec::new();
    let mut causal_files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quiet" => quiet = true,
            "--check-chrome" => match args.next() {
                Some(path) => chrome_files.push(path),
                None => usage(),
            },
            flag if flag.starts_with("--") => usage(),
            path => causal_files.push(path.to_string()),
        }
    }
    if chrome_files.is_empty() && causal_files.is_empty() {
        usage();
    }

    let mut failed = false;
    for path in &chrome_files {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        match validate_chrome_trace(&text) {
            Ok(stats) => println!(
                "{path}: valid Chrome trace — {} tracks, {} spans, {} instants",
                stats.tracks, stats.spans, stats.instants
            ),
            Err(e) => {
                eprintln!("{path}: INVALID Chrome trace: {e}");
                failed = true;
            }
        }
    }

    for path in &causal_files {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        let log = match check_events(&text).and_then(|read| CausalLog::from_events(&read.events)) {
            Ok(log) => log,
            Err(e) => {
                eprintln!("{path}: invalid causal log: {e}");
                failed = true;
                continue;
            }
        };
        let mut mismatches = 0usize;
        for episode in &log.episodes {
            if !quiet {
                print!("{}", narrate_episode(episode));
            }
            if let Err(e) = verify_episode(episode) {
                eprintln!("{path}: REPLAY MISMATCH: {e}");
                mismatches += 1;
            } else if !quiet {
                println!("  ✓ replay reconstructs total_benefit bit-exactly\n");
            }
        }
        println!(
            "{path}: {} episodes replayed, {} mismatches, {} incomplete, {} events dropped by ring",
            log.episodes.len(),
            mismatches,
            log.incomplete_episodes,
            log.dropped_events
        );
        if mismatches > 0 {
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
