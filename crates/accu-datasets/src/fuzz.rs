//! Deterministic, dependency-free structure-aware fuzzing of the
//! ingestion pipeline.
//!
//! Every iteration mutates a valid corpus document (an edge list or an
//! instance file) with a seeded [splitmix64] generator and feeds the
//! result through the full ingestion stack: `read_edge_list`, the
//! capped [`read_edge_list_with`], the [`load_snap_reader`] pipeline,
//! and `read_instance` / `read_instance_with`. The invariants checked
//! are:
//!
//! 1. **No panic, ever.** Malformed input must surface as a typed error.
//! 2. **Accepted instances validate.** Anything `read_instance` accepts
//!    must pass [`validate_instance`] or be repairable by the Lenient
//!    pass to a state that re-validates clean (the fixpoint property).
//!
//! The generator is self-contained (no `rand` dependency) so that a
//! given `(seed, iterations)` pair replays byte-identically anywhere —
//! a CI failure is reproducible locally with `fuzz_ingest --seed N`.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

use std::fmt;

use accu_core::io::{read_instance, read_instance_with, InstanceReadOptions};
use accu_core::{repair_instance, validate_instance, RepairMode};
use osn_graph::io::{read_edge_list, read_edge_list_with, EdgeListOptions};

use crate::snap::load_snap_reader;

/// Tokens spliced into mutated documents: directive keywords, numeric
/// edge cases, and separators the parsers special-case.
const DICTIONARY: &[&str] = &[
    "nodes",
    "edge",
    "user",
    "reckless",
    "cautious",
    "hesitant",
    "linear",
    "#",
    "nan",
    "inf",
    "-inf",
    "-1",
    "0",
    "1e308",
    "-1e308",
    "4294967295",
    "4294967296",
    "18446744073709551616",
    "0.5",
    "1.5",
    "\r\n",
    "\n\n",
    " ",
    "\t",
];

/// A small, fully valid edge list exercising comments, CRLF endings,
/// blank lines, and multi-digit labels.
const EDGE_LIST_CORPUS: &str = "# snap-style header\r\n\
0 1\n\
1 2\r\n\
2 3\n\
3 0\n\
\n\
2 4\n\
4 5\n\
10 11\n\
11 12\n";

/// A valid instance file covering all four user classes. The cautious
/// and hesitant users sit at non-adjacent cycle positions with
/// non-cautious neighbors on both sides, satisfying the paper's
/// preconditions so the unmutated corpus validates clean.
const INSTANCE_CORPUS: &str = "# accu instance\n\
nodes 6\n\
edge 0 1 0.5\n\
edge 1 2 0.7\n\
edge 2 3 0.4\n\
edge 3 4 0.9\n\
edge 4 5 0.6\n\
edge 5 0 0.8\n\
user 0 reckless 0.7 2 1\n\
user 1 cautious 2 50 1\n\
user 2 reckless 0.4 2 1\n\
user 3 linear 0.1 0.05 2 1\n\
user 4 hesitant 0.1 0.9 2 50 1\n\
user 5 reckless 0.9 2 1\n";

/// Configuration for a fuzzing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Seed for the deterministic mutation generator.
    pub seed: u64,
    /// Number of mutated documents to generate and ingest.
    pub iterations: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xACC0,
            iterations: 10_000,
        }
    }
}

/// Outcome counters from a fuzzing run.
///
/// The run itself asserts the hard invariants (no panic, accepted
/// instances validate or repair clean); the counters exist so a smoke
/// job can additionally check the fuzzer is exercising both accept and
/// reject paths rather than trivially rejecting everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuzzReport {
    /// Mutated documents fed through the pipeline.
    pub iterations: u64,
    /// Edge lists accepted by the default-option parser.
    pub accepted_graphs: u64,
    /// Edge lists rejected with a typed error.
    pub rejected_graphs: u64,
    /// Instance files accepted by the default-option parser.
    pub accepted_instances: u64,
    /// Instance files rejected with a typed error.
    pub rejected_instances: u64,
    /// Accepted instances that validated clean as-is.
    pub valid_instances: u64,
    /// Accepted instances brought to a clean state by Lenient repair.
    pub repaired_instances: u64,
    /// Accepted instances rejected by validation (fatal violations the
    /// repair pass cannot fix).
    pub unrepairable_instances: u64,
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "iterations            {}", self.iterations)?;
        writeln!(f, "graphs    accepted    {}", self.accepted_graphs)?;
        writeln!(f, "graphs    rejected    {}", self.rejected_graphs)?;
        writeln!(f, "instances accepted    {}", self.accepted_instances)?;
        writeln!(f, "instances rejected    {}", self.rejected_instances)?;
        writeln!(f, "instances valid       {}", self.valid_instances)?;
        writeln!(f, "instances repaired    {}", self.repaired_instances)?;
        write!(f, "instances unrepairable {}", self.unrepairable_instances)
    }
}

/// Deterministic splitmix64 generator; the whole fuzzer's only source
/// of randomness.
#[derive(Debug, Clone)]
struct FuzzRng {
    state: u64,
}

impl FuzzRng {
    fn new(seed: u64) -> Self {
        FuzzRng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` must be non-zero).
    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Applies one random mutation to `doc` in place.
fn mutate_once(doc: &mut Vec<u8>, rng: &mut FuzzRng) {
    match rng.below(9) {
        // Flip a random byte.
        0 => {
            if !doc.is_empty() {
                let i = rng.below(doc.len());
                doc[i] ^= 1 << rng.below(8);
            }
        }
        // Splice in a dictionary token.
        1 => {
            let tok = rng.pick(DICTIONARY).as_bytes();
            let i = rng.below(doc.len() + 1);
            doc.splice(i..i, tok.iter().copied());
        }
        // Duplicate a line.
        2 => {
            let lines = line_spans(doc);
            if !lines.is_empty() {
                let (s, e) = *rng.pick(&lines);
                let copy: Vec<u8> = doc[s..e].to_vec();
                doc.splice(e..e, copy);
            }
        }
        // Delete a line.
        3 => {
            let lines = line_spans(doc);
            if !lines.is_empty() {
                let (s, e) = *rng.pick(&lines);
                doc.drain(s..e);
            }
        }
        // Swap two lines.
        4 => {
            let lines = line_spans(doc);
            if lines.len() >= 2 {
                let a = *rng.pick(&lines);
                let b = *rng.pick(&lines);
                let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
                if a.1 <= b.0 {
                    let mut swapped = Vec::with_capacity(doc.len());
                    swapped.extend_from_slice(&doc[..a.0]);
                    swapped.extend_from_slice(&doc[b.0..b.1]);
                    swapped.extend_from_slice(&doc[a.1..b.0]);
                    swapped.extend_from_slice(&doc[a.0..a.1]);
                    swapped.extend_from_slice(&doc[b.1..]);
                    *doc = swapped;
                }
            }
        }
        // Truncate mid-document (often mid-line).
        5 => {
            if !doc.is_empty() {
                let i = rng.below(doc.len());
                doc.truncate(i);
            }
        }
        // Replace a numeric-looking token with an extreme value.
        6 => {
            let extremes: [&str; 7] = [
                "-1",
                "4294967296",
                "1e308",
                "nan",
                "inf",
                "99999999999999999999",
                "0.0000000001",
            ];
            if let Some((s, e)) = find_numeric_token(doc, rng) {
                let repl = rng.pick(&extremes).as_bytes();
                doc.splice(s..e, repl.iter().copied());
            }
        }
        // Insert an overlong line.
        7 => {
            let len = 1 + rng.below(16_384);
            let mut line = vec![b'7'; len];
            line.push(b'\n');
            let i = rng.below(doc.len() + 1);
            doc.splice(i..i, line);
        }
        // Insert invalid UTF-8.
        _ => {
            let bad: [u8; 3] = [0xFF, 0xC0, 0x80];
            let i = rng.below(doc.len() + 1);
            doc.splice(i..i, bad.iter().copied());
        }
    }
}

/// Byte spans of each line including its terminator.
fn line_spans(doc: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    for (i, &b) in doc.iter().enumerate() {
        if b == b'\n' {
            spans.push((start, i + 1));
            start = i + 1;
        }
    }
    if start < doc.len() {
        spans.push((start, doc.len()));
    }
    spans
}

/// Picks a random maximal ASCII-digit run, if any.
fn find_numeric_token(doc: &[u8], rng: &mut FuzzRng) -> Option<(usize, usize)> {
    let mut runs = Vec::new();
    let mut start = None;
    for (i, &b) in doc.iter().enumerate() {
        if b.is_ascii_digit() {
            if start.is_none() {
                start = Some(i);
            }
        } else if let Some(s) = start.take() {
            runs.push((s, i));
        }
    }
    if let Some(s) = start {
        runs.push((s, doc.len()));
    }
    if runs.is_empty() {
        None
    } else {
        Some(*rng.pick(&runs))
    }
}

/// Tight ingestion bounds so cap-enforcement paths are exercised on
/// every run, not only on pathological documents.
fn tight_edge_options() -> EdgeListOptions {
    EdgeListOptions {
        max_nodes: 64,
        max_edges: 256,
        max_line_len: 128,
        ..EdgeListOptions::strict()
    }
}

fn tight_instance_options() -> InstanceReadOptions {
    InstanceReadOptions {
        max_nodes: 64,
        max_edges: 256,
        max_line_len: 128,
    }
}

/// Feeds one mutated edge-list document through every graph entry point.
fn drive_edge_list(doc: &[u8], report: &mut FuzzReport) {
    match read_edge_list(doc) {
        Ok(_) => report.accepted_graphs += 1,
        Err(_) => report.rejected_graphs += 1,
    }
    let _ = read_edge_list_with(doc, &tight_edge_options());
    let _ = load_snap_reader(doc, &EdgeListOptions::default());
    let _ = load_snap_reader(doc, &tight_edge_options());
}

/// Feeds one mutated instance document through the instance reader and,
/// when accepted, through validation and Lenient repair — asserting the
/// repair fixpoint.
fn drive_instance(doc: &[u8], report: &mut FuzzReport) {
    let _ = read_instance_with(doc, &tight_instance_options());
    match read_instance(doc) {
        Err(_) => report.rejected_instances += 1,
        Ok(instance) => {
            report.accepted_instances += 1;
            if validate_instance(&instance).is_ok() {
                report.valid_instances += 1;
                return;
            }
            match repair_instance(instance, RepairMode::Lenient) {
                Ok((repaired, _)) => {
                    report.repaired_instances += 1;
                    assert!(
                        validate_instance(&repaired).is_ok(),
                        "lenient repair did not reach a clean fixpoint"
                    );
                }
                Err(_) => report.unrepairable_instances += 1,
            }
        }
    }
}

/// Runs the fuzzer for `config.iterations` mutated documents.
///
/// Panics if any ingestion entry point panics (the point of the
/// exercise) or if an accepted-then-repaired instance fails to
/// re-validate clean. Deterministic: identical configs produce
/// identical reports.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    let mut rng = FuzzRng::new(config.seed);
    let mut report = FuzzReport {
        iterations: config.iterations,
        ..FuzzReport::default()
    };
    for _ in 0..config.iterations {
        let (corpus, drive): (&str, fn(&[u8], &mut FuzzReport)) = if rng.below(2) == 0 {
            (EDGE_LIST_CORPUS, drive_edge_list)
        } else {
            (INSTANCE_CORPUS, drive_instance)
        };
        let mut doc = corpus.as_bytes().to_vec();
        let mutations = 1 + rng.below(4);
        for _ in 0..mutations {
            mutate_once(&mut doc, &mut rng);
        }
        drive(&doc, &mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_documents_are_valid_before_mutation() {
        let mut report = FuzzReport::default();
        drive_edge_list(EDGE_LIST_CORPUS.as_bytes(), &mut report);
        drive_instance(INSTANCE_CORPUS.as_bytes(), &mut report);
        assert_eq!(report.accepted_graphs, 1);
        assert_eq!(report.accepted_instances, 1);
        assert_eq!(report.valid_instances, 1);
    }

    #[test]
    fn fuzz_is_deterministic_per_seed() {
        let config = FuzzConfig {
            seed: 99,
            iterations: 300,
        };
        assert_eq!(run_fuzz(&config), run_fuzz(&config));
    }

    #[test]
    fn fuzz_smoke_exercises_accept_and_reject_paths() {
        let report = run_fuzz(&FuzzConfig {
            seed: 7,
            iterations: 1_500,
        });
        assert_eq!(report.iterations, 1_500);
        assert!(report.accepted_graphs > 0, "{report}");
        assert!(report.rejected_graphs > 0, "{report}");
        assert!(report.accepted_instances > 0, "{report}");
        assert!(report.rejected_instances > 0, "{report}");
    }
}
