//! Cross-run regression analytics: diffing telemetry snapshots and
//! summarizing the bench trajectory.
//!
//! This is the offline half of `accu-obs`. The live half (Prometheus
//! exposition, streaming progress, watchdogs) lives in
//! [`accu_telemetry::obs`]; this module reads the artifacts those runs
//! leave behind — the `--telemetry` JSONL snapshots and
//! `BENCH_trajectory.jsonl` — and answers "did this run get slower?"
//! with noise-aware verdicts instead of raw numbers. Two binaries
//! drive it: `telemetry_diff` (snapshot deltas + throughput verdict)
//! and `bench_report` (markdown trajectory table).

use std::io;
use std::path::Path;

use accu_telemetry::trace::{parse_json, Json};
use accu_telemetry::{HistogramSnapshot, Snapshot};

use crate::output::Table;
use crate::runner::runner_metrics;

/// Aggregate episode throughput (episodes per wall-clock second of
/// network processing, summed across workers) — the regression metric.
/// `None` when the run recorded no episodes or no network timing.
fn throughput(run: &Snapshot) -> Option<f64> {
    let episodes = run.counter(runner_metrics::EPISODES)?;
    let sum = run.histogram(runner_metrics::NETWORK_NS)?.sum;
    if episodes == 0 || sum == 0 {
        return None;
    }
    Some(episodes as f64 * 1e9 / sum as f64)
}

/// Mass-weighted mean log-bucket index of a histogram — a scalar
/// location summary on the log2 scale, so a `+1.0` shift between runs
/// reads as "samples got ≈2× larger".
pub fn mean_bucket_index(hist: &HistogramSnapshot) -> Option<f64> {
    let total: u64 = hist.buckets.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return None;
    }
    let weighted: f64 = hist
        .buckets
        .iter()
        .map(|&(idx, n)| idx as f64 * n as f64)
        .sum();
    Some(weighted / total as f64)
}

/// One counter compared across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterDelta {
    /// Counter name.
    pub name: String,
    /// Mean value over the baseline runs (`None`: absent there).
    pub baseline: Option<f64>,
    /// Candidate-run value (`None`: absent there).
    pub candidate: Option<u64>,
}

/// One histogram's log-bucket location compared across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct HistShift {
    /// Histogram name.
    pub name: String,
    /// Mean bucket index over the baselines.
    pub baseline: f64,
    /// Candidate mean bucket index.
    pub candidate: f64,
    /// `candidate - baseline`, in log2 bucket units (positive =
    /// slower/larger).
    pub shift: f64,
}

/// The throughput verdict of a diff.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// One side recorded no runner throughput; no call can be made.
    NoData,
    /// Change within the noise band.
    Ok {
        /// Mean baseline throughput (eps/s).
        baseline: f64,
        /// Candidate throughput (eps/s).
        candidate: f64,
        /// Relative band the change was judged against.
        band: f64,
        /// Relative slowdown (positive) or speedup (negative).
        slowdown: f64,
    },
    /// Slowdown beyond the noise band.
    Regression {
        /// Mean baseline throughput (eps/s).
        baseline: f64,
        /// Candidate throughput (eps/s).
        candidate: f64,
        /// Relative band the change was judged against.
        band: f64,
        /// Relative slowdown.
        slowdown: f64,
    },
}

/// Everything `telemetry_diff` reports for one comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Per-counter deltas (per-worker queue counters are skipped —
    /// their split varies with `--workers`, not with performance).
    pub counters: Vec<CounterDelta>,
    /// Histogram location shifts on the log2 scale.
    pub shifts: Vec<HistShift>,
    /// The throughput call.
    pub verdict: Verdict,
}

impl DiffReport {
    /// Whether the verdict is a regression (the nonzero-exit signal).
    pub fn is_regression(&self) -> bool {
        matches!(self.verdict, Verdict::Regression { .. })
    }

    /// Prints the counter, shift, and verdict tables to stdout.
    pub fn print(&self) {
        let changed: Vec<&CounterDelta> = self
            .counters
            .iter()
            .filter(|d| match (d.baseline, d.candidate) {
                (Some(b), Some(c)) => (b - c as f64).abs() > 1e-9,
                _ => true,
            })
            .collect();
        if changed.is_empty() {
            println!("counters: no differences");
        } else {
            let mut t = Table::new(["counter", "baseline", "candidate", "delta"]);
            for d in changed {
                let base = d.baseline.map_or("-".to_string(), |b| format!("{b:.1}"));
                let cand = d.candidate.map_or("-".to_string(), |c| c.to_string());
                let delta = match (d.baseline, d.candidate) {
                    (Some(b), Some(c)) => format!("{:+.1}", c as f64 - b),
                    _ => "-".to_string(),
                };
                t.row([d.name.clone(), base, cand, delta]);
            }
            t.print();
        }
        if !self.shifts.is_empty() {
            println!();
            let mut t = Table::new(["histogram", "baseline", "candidate", "shift (log2)"]);
            for s in &self.shifts {
                t.row([
                    s.name.clone(),
                    format!("{:.2}", s.baseline),
                    format!("{:.2}", s.candidate),
                    format!("{:+.2}", s.shift),
                ]);
            }
            t.print();
        }
        println!();
        match &self.verdict {
            Verdict::NoData => println!("verdict: no-data (runner throughput missing)"),
            Verdict::Ok {
                baseline,
                candidate,
                band,
                slowdown,
            } => println!(
                "verdict: ok — throughput {candidate:.1} eps/s vs baseline {baseline:.1} \
                 ({:+.1}% within ±{:.1}% band)",
                -slowdown * 100.0,
                band * 100.0
            ),
            Verdict::Regression {
                baseline,
                candidate,
                band,
                slowdown,
            } => println!(
                "verdict: REGRESSION — throughput {candidate:.1} eps/s vs baseline \
                 {baseline:.1} ({:.1}% slower, band ±{:.1}%)",
                slowdown * 100.0,
                band * 100.0
            ),
        }
    }
}

/// Diffs a candidate run against one or more baseline runs.
///
/// The throughput verdict uses a noise band derived from the
/// baselines' repeated-run variance: the band is
/// `max(min_band, 2σ/μ)` over the baseline throughputs, so a noisy
/// fixture needs a proportionally larger slowdown before the verdict
/// flips to regression. With a single baseline the band is `min_band`
/// alone.
pub fn diff_runs(baselines: &[Snapshot], candidate: &Snapshot, min_band: f64) -> DiffReport {
    let skip = |name: &str| name.starts_with("runner.worker.");
    let mut names: Vec<&String> = baselines
        .iter()
        .flat_map(|b| &b.counters)
        .chain(&candidate.counters)
        .map(|c| &c.name)
        .filter(|n| !skip(n))
        .collect();
    names.sort();
    names.dedup();
    let counters = names
        .into_iter()
        .map(|name| {
            let present: Vec<u64> = baselines.iter().filter_map(|b| b.counter(name)).collect();
            CounterDelta {
                name: name.clone(),
                baseline: (!present.is_empty())
                    .then(|| present.iter().sum::<u64>() as f64 / present.len() as f64),
                candidate: candidate.counter(name),
            }
        })
        .collect();
    let mut shifts = Vec::new();
    for cand_hist in &candidate.histograms {
        let name = &cand_hist.name;
        let base_indices: Vec<f64> = baselines
            .iter()
            .filter_map(|b| b.histogram(name))
            .filter_map(mean_bucket_index)
            .collect();
        let (Some(cand_idx), false) = (mean_bucket_index(cand_hist), base_indices.is_empty())
        else {
            continue;
        };
        let base_idx = base_indices.iter().sum::<f64>() / base_indices.len() as f64;
        shifts.push(HistShift {
            name: name.clone(),
            baseline: base_idx,
            candidate: cand_idx,
            shift: cand_idx - base_idx,
        });
    }
    let base_tp: Vec<f64> = baselines.iter().filter_map(throughput).collect();
    let verdict = match (base_tp.is_empty(), throughput(candidate)) {
        (true, _) | (_, None) => Verdict::NoData,
        (false, Some(cand)) => {
            let mean = base_tp.iter().sum::<f64>() / base_tp.len() as f64;
            let var =
                base_tp.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / base_tp.len() as f64;
            let band = min_band.max(2.0 * var.sqrt() / mean);
            let slowdown = (mean - cand) / mean;
            if slowdown > band {
                Verdict::Regression {
                    baseline: mean,
                    candidate: cand,
                    band,
                    slowdown,
                }
            } else {
                Verdict::Ok {
                    baseline: mean,
                    candidate: cand,
                    band,
                    slowdown,
                }
            }
        }
    };
    DiffReport {
        counters,
        shifts,
        verdict,
    }
}

/// One line of `BENCH_trajectory.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryEntry {
    /// ISO date the entry was appended.
    pub date: String,
    /// Bench id (e.g. `engine`).
    pub bench: String,
    /// Fixture label.
    pub fixture: String,
    /// Request budget of the fixture.
    pub budget: u64,
    /// Measured episodes per second.
    pub eps_per_sec: f64,
    /// `ok` or `regression`.
    pub status: String,
    /// Git revision that produced the entry (`-` for legacy v1 lines).
    pub git: String,
    /// Entry schema version (1 when the field is absent).
    pub schema: u64,
}

/// Schema version stamped onto `BENCH_trajectory.jsonl` entries.
///
/// Version history: entries without a `schema` field are version 1 (the
/// original `date`/`bench`/`fixture`/`budget`/`eps_per_sec`/`status`
/// shape); version 2 added the `schema` and `git` fields themselves.
/// `bench_engine` and `scale_sweep` write entries; [`load_trajectory`]
/// skips entries from schemas *newer* than it understands, so an old
/// binary never misreads a future format.
pub const TRAJECTORY_SCHEMA: u64 = 2;

/// Loads the bench trajectory, returning the parsed entries plus the
/// count of lines skipped (unparseable, or a schema newer than
/// [`TRAJECTORY_SCHEMA`]).
///
/// # Errors
///
/// Returns the underlying read error.
pub fn load_trajectory(path: &Path) -> io::Result<(Vec<TrajectoryEntry>, usize)> {
    let text = std::fs::read_to_string(path)?;
    let mut entries = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(doc) = parse_json(line) else {
            skipped += 1;
            continue;
        };
        let schema = doc.get("schema").and_then(Json::as_u64).unwrap_or(1);
        if schema > TRAJECTORY_SCHEMA {
            skipped += 1;
            continue;
        }
        let text_field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .unwrap_or("-")
                .to_string()
        };
        let Some(eps) = doc.get("eps_per_sec").and_then(Json::as_f64) else {
            skipped += 1;
            continue;
        };
        entries.push(TrajectoryEntry {
            date: text_field("date"),
            bench: text_field("bench"),
            fixture: text_field("fixture"),
            budget: doc.get("budget").and_then(Json::as_u64).unwrap_or(0),
            eps_per_sec: eps,
            status: text_field("status"),
            git: text_field("git"),
            schema,
        });
    }
    Ok((entries, skipped))
}

/// Renders the trajectory as a markdown table with a trend summary per
/// bench — the `bench_report` output. Benches time different workloads
/// (`engine` a figure-sized fixture, `scale` 10⁵+-node tiers), so each
/// gets its own last-healthy and best-healthy throughput.
pub fn trajectory_markdown(entries: &[TrajectoryEntry], skipped: usize) -> String {
    let mut out = String::new();
    out.push_str("# Bench trajectory\n\n");
    if entries.is_empty() {
        out.push_str("No comparable entries.\n");
        return out;
    }
    out.push_str("| date | bench | fixture | budget | eps/s | status | git | schema |\n");
    out.push_str("|------|-------|---------|-------:|------:|--------|-----|-------:|\n");
    for e in entries {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.2} | {} | {} | {} |\n",
            e.date, e.bench, e.fixture, e.budget, e.eps_per_sec, e.status, e.git, e.schema
        ));
    }
    out.push('\n');
    let mut benches: Vec<&str> = Vec::new();
    for e in entries {
        if !benches.contains(&e.bench.as_str()) {
            benches.push(&e.bench);
        }
    }
    for bench in benches {
        let healthy: Vec<&TrajectoryEntry> = entries
            .iter()
            .filter(|e| e.bench == bench && e.status == "ok")
            .collect();
        match healthy.last() {
            Some(last) => {
                let best = healthy
                    .iter()
                    .map(|e| e.eps_per_sec)
                    .fold(f64::NEG_INFINITY, f64::max);
                out.push_str(&format!(
                    "- `{bench}` — Last healthy: **{:.2} eps/s** ({}); \
                     best healthy: {best:.2} eps/s\n",
                    last.eps_per_sec, last.date
                ));
            }
            None => out.push_str(&format!("- `{bench}` — no healthy entries\n")),
        }
    }
    let regressions = entries.iter().filter(|e| e.status != "ok").count();
    out.push_str(&format!(
        "\n{regressions} regression entr{} of {} total",
        if regressions == 1 { "y" } else { "ies" },
        entries.len()
    ));
    if skipped > 0 {
        out.push_str(&format!("; {skipped} line(s) skipped"));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use accu_telemetry::CounterSnapshot;

    fn synthetic_run(episodes: u64, network_ns_sum: u64) -> Snapshot {
        Snapshot {
            label: "synthetic".to_string(),
            counters: vec![CounterSnapshot {
                name: runner_metrics::EPISODES.to_string(),
                value: episodes,
            }],
            gauges: Vec::new(),
            histograms: vec![HistogramSnapshot {
                name: runner_metrics::NETWORK_NS.to_string(),
                count: 1,
                sum: network_ns_sum,
                mean: network_ns_sum as f64,
                min: network_ns_sum,
                p50: network_ns_sum,
                p90: network_ns_sum,
                p99: network_ns_sum,
                max: network_ns_sum,
                buckets: vec![(40, 1)],
            }],
        }
    }

    #[test]
    fn identical_runs_pass_the_verdict() {
        let a = synthetic_run(1000, 10_000_000_000);
        let b = synthetic_run(1000, 10_000_000_000);
        let report = diff_runs(&[a], &b, 0.25);
        assert!(!report.is_regression());
        match report.verdict {
            Verdict::Ok { slowdown, band, .. } => {
                assert!(slowdown.abs() < 1e-12);
                assert!((band - 0.25).abs() < 1e-12);
            }
            other => panic!("expected Ok verdict, got {other:?}"),
        }
        assert!(report
            .counters
            .iter()
            .all(|d| d.baseline == Some(d.candidate.unwrap() as f64)));
    }

    #[test]
    fn large_slowdowns_flag_a_regression() {
        // Baseline: 100 eps/s. Candidate: 60 eps/s — 40% slower, well
        // past the 25% floor band.
        let base = synthetic_run(1000, 10_000_000_000);
        let cand = synthetic_run(600, 10_000_000_000);
        let report = diff_runs(&[base], &cand, 0.25);
        assert!(report.is_regression());
        match report.verdict {
            Verdict::Regression { slowdown, .. } => assert!((slowdown - 0.4).abs() < 1e-9),
            other => panic!("expected regression, got {other:?}"),
        }
    }

    #[test]
    fn noisy_baselines_widen_the_band() {
        // Throughputs 50 and 150: μ=100, σ=50, band = 2σ/μ = 1.0 — a
        // 40% slowdown that would trip the floor band stays ok.
        let fast = synthetic_run(1500, 10_000_000_000);
        let slow = synthetic_run(500, 10_000_000_000);
        let cand = synthetic_run(600, 10_000_000_000);
        let report = diff_runs(&[fast, slow], &cand, 0.25);
        assert!(!report.is_regression());
        match report.verdict {
            Verdict::Ok { band, .. } => assert!((band - 1.0).abs() < 1e-9),
            other => panic!("expected Ok verdict, got {other:?}"),
        }
    }

    #[test]
    fn missing_throughput_yields_no_data() {
        let empty = Snapshot {
            label: "empty".to_string(),
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        };
        let full = synthetic_run(100, 1_000_000_000);
        assert_eq!(
            diff_runs(std::slice::from_ref(&empty), &full, 0.25).verdict,
            Verdict::NoData
        );
        assert_eq!(diff_runs(&[full], &empty, 0.25).verdict, Verdict::NoData);
    }

    #[test]
    fn bucket_shift_reads_in_log2_units() {
        let mut base = synthetic_run(1000, 10_000_000_000);
        let mut cand = synthetic_run(1000, 10_000_000_000);
        base.histograms[0].buckets = vec![(30, 4)];
        cand.histograms[0].buckets = vec![(31, 2), (33, 2)];
        let report = diff_runs(&[base], &cand, 0.25);
        let shift = report
            .shifts
            .iter()
            .find(|s| s.name == "runner.network_ns")
            .unwrap();
        assert!((shift.shift - 2.0).abs() < 1e-9, "30 → mean(31,33) = +2");
    }

    #[test]
    fn trajectory_parses_and_filters_schemas() {
        let dir = std::env::temp_dir().join("accu-analysis-trajectory-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trajectory.jsonl");
        std::fs::write(
            &path,
            concat!(
                "{\"date\":\"2026-08-06\",\"bench\":\"engine\",\"fixture\":\"f\",\"budget\":120,\"eps_per_sec\":61.0,\"status\":\"ok\"}\n",
                "{\"schema\":2,\"git\":\"abc123\",\"date\":\"2026-08-07\",\"bench\":\"engine\",\"fixture\":\"f\",\"budget\":120,\"eps_per_sec\":40.0,\"status\":\"regression\"}\n",
                "{\"schema\":2,\"git\":\"abc124\",\"date\":\"2026-08-08\",\"bench\":\"engine\",\"fixture\":\"f\",\"budget\":120,\"eps_per_sec\":66.0,\"status\":\"ok\"}\n",
                // A healthy scale tier after the engine entries: summarized
                // on its own, never as the engine's last or best.
                "{\"schema\":2,\"git\":\"abc124\",\"date\":\"2026-08-09\",\"bench\":\"scale\",\"fixture\":\"g\",\"budget\":50,\"eps_per_sec\":6.0,\"status\":\"ok\"}\n",
                "{\"schema\":99,\"eps_per_sec\":1.0}\n",
                "not json\n",
            ),
        )
        .unwrap();
        let (entries, skipped) = load_trajectory(&path).unwrap();
        assert_eq!(entries.len(), 4);
        assert_eq!(skipped, 2);
        assert_eq!(entries[0].schema, 1, "absent schema field reads as v1");
        assert_eq!(entries[0].git, "-");
        assert_eq!(entries[1].git, "abc123");
        let md = trajectory_markdown(&entries, skipped);
        assert!(md.contains("| 2026-08-08 | engine | f | 120 | 66.00 | ok | abc124 | 2 |"));
        assert!(md.contains(
            "- `engine` — Last healthy: **66.00 eps/s** (2026-08-08); best healthy: 66.00 eps/s"
        ));
        assert!(md.contains(
            "- `scale` — Last healthy: **6.00 eps/s** (2026-08-09); best healthy: 6.00 eps/s"
        ));
        assert!(md.contains("1 regression entry of 4 total"));
        assert!(md.contains("2 line(s) skipped"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
