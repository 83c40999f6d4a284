//! Renders `BENCH_trajectory.jsonl` as a markdown report: one row per
//! comparable entry plus a trend summary (last healthy and best healthy
//! throughput per bench, regression count).
//!
//! ```text
//! bench_report [trajectory.jsonl] [-o report.md]
//! ```
//!
//! Defaults to `BENCH_trajectory.jsonl` in the working directory and
//! stdout. Entries with a schema newer than this reader understands
//! are skipped (and counted), never misread.
//!
//! Exit codes: 0 = ok, 2 = usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use accu_experiments::analysis::{load_trajectory, trajectory_markdown};

fn main() -> ExitCode {
    let mut trajectory: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-o" | "--output" => match iter.next() {
                Some(path) => out = Some(PathBuf::from(path)),
                None => {
                    eprintln!("error: {arg} needs a path");
                    return usage();
                }
            },
            other if other.starts_with('-') => {
                eprintln!("error: unknown flag {other:?}");
                return usage();
            }
            path if trajectory.is_none() => trajectory = Some(path.to_string()),
            _ => {
                eprintln!("error: more than one trajectory file given");
                return usage();
            }
        }
    }
    let path = trajectory.unwrap_or_else(|| "BENCH_trajectory.jsonl".to_string());
    let (entries, skipped) = match load_trajectory(Path::new(&path)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let markdown = trajectory_markdown(&entries, skipped);
    match out {
        None => print!("{markdown}"),
        Some(out_path) => {
            if let Err(e) = std::fs::write(&out_path, &markdown) {
                eprintln!("error: {}: {e}", out_path.display());
                return ExitCode::from(2);
            }
            println!("wrote {}", out_path.display());
        }
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!("usage: bench_report [trajectory.jsonl] [-o report.md]");
    ExitCode::from(2)
}
