//! Cross-run telemetry diff: compares `--telemetry` JSONL snapshots
//! across runs and issues a noise-aware throughput-regression verdict.
//!
//! ```text
//! telemetry_diff [--threshold F] <baseline.jsonl>... <candidate.jsonl>
//! telemetry_diff --check-prometheus <scrape.txt>
//! telemetry_diff --check-events <events.jsonl>
//! ```
//!
//! All files but the last are baseline runs (repeated runs of the same
//! configuration sharpen the noise band); the last is the candidate
//! under test. `--threshold` sets the minimum relative slowdown
//! treated as a regression (default 0.25); the effective band grows to
//! `2σ/μ` when the baselines are noisier than that.
//!
//! `--check-prometheus` validates a saved metrics scrape against the
//! text-format rules instead of diffing — the CI smoke job's helper.
//! `--check-events` validates an event file — a `--trace` causal log or
//! a `--progress` stream — with [`check_events`]: every event line must
//! be well formed (torn and foreign lines are counted, not fatal) and
//! each track's sequence numbers must strictly increase; it prints the
//! event and skipped-line counts on success.
//!
//! Exit codes: 0 = ok, 1 = regression (or invalid scrape/event file),
//! 2 = usage or I/O error.

use std::path::Path;
use std::process::ExitCode;

use accu_experiments::analysis::diff_runs;
use accu_telemetry::obs::validate_prometheus;
use accu_telemetry::{check_events, Snapshot};

fn usage() -> ExitCode {
    eprintln!(
        "usage: telemetry_diff [--threshold F] <baseline.jsonl>... <candidate.jsonl>\n\
         \x20      telemetry_diff --check-prometheus <scrape.txt>\n\
         \x20      telemetry_diff --check-events <events.jsonl>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threshold = 0.25f64;
    let mut files: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threshold" => {
                let Some(raw) = iter.next() else {
                    eprintln!("error: --threshold needs a value");
                    return usage();
                };
                match raw.parse::<f64>() {
                    Ok(f) if f > 0.0 && f.is_finite() => threshold = f,
                    _ => {
                        eprintln!("error: --threshold expects a positive fraction");
                        return usage();
                    }
                }
            }
            "--check-prometheus" => {
                let Some(path) = iter.next() else {
                    eprintln!("error: --check-prometheus needs a file");
                    return usage();
                };
                return check_prometheus(Path::new(&path));
            }
            "--check-events" => {
                let Some(path) = iter.next() else {
                    eprintln!("error: --check-events needs a file");
                    return usage();
                };
                return check_event_file(Path::new(&path));
            }
            other if other.starts_with("--") => {
                eprintln!("error: unknown flag {other:?}");
                return usage();
            }
            file => files.push(file.to_string()),
        }
    }
    if files.len() < 2 {
        eprintln!("error: need at least one baseline and one candidate snapshot");
        return usage();
    }
    let candidate_path = files.pop().expect("len checked above");
    let mut baselines: Vec<Snapshot> = Vec::with_capacity(files.len());
    for path in &files {
        match load_snapshot(Path::new(path)) {
            Ok(run) => baselines.push(run),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let candidate = match load_snapshot(Path::new(&candidate_path)) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "telemetry diff: {} baseline run(s) vs {candidate_path} ({})",
        baselines.len(),
        candidate.label
    );
    let report = diff_runs(&baselines, &candidate, threshold);
    report.print();
    if report.is_regression() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Reads the first snapshot line of a `--telemetry` JSONL file.
fn load_snapshot(path: &Path) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .find_map(|line| Snapshot::from_json(line).ok())
        .ok_or_else(|| format!("{}: no snapshot line found", path.display()))
}

/// Validates an event file with [`check_events`] and prints its event
/// and skipped-line counts.
fn check_event_file(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    match check_events(&text) {
        Ok(read) => {
            println!(
                "{}: valid event file ({} events, {} torn/foreign line(s) skipped)",
                path.display(),
                read.events.len(),
                read.skipped_lines
            );
            ExitCode::SUCCESS
        }
        Err(violation) => {
            eprintln!("{}: invalid event file: {violation}", path.display());
            ExitCode::from(1)
        }
    }
}

/// Validates a saved Prometheus exposition; prints family/sample
/// counts on success.
fn check_prometheus(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    match validate_prometheus(&text) {
        Ok(stats) => {
            println!(
                "{}: valid exposition ({} families, {} samples)",
                path.display(),
                stats.families,
                stats.samples
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: invalid exposition: {e}", path.display());
            ExitCode::from(1)
        }
    }
}
