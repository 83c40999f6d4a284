//! The cell runner and the `--telemetry` / observability plumbing
//! shared by the experiment binaries.
//!
//! Each binary builds a [`Telemetry`] handle from its parsed [`Cli`];
//! the handle carries an [`accu_telemetry::Recorder`] (enabled by
//! `--telemetry` or `--metrics-addr`) that is threaded into the runner
//! and policies, plus the live-observability pieces of `accu-obs`: a
//! streaming-progress [`Observer`] (`--progress`), a Prometheus
//! [`MetricsServer`] (`--metrics-addr`), and a [`Watchdog`]
//! (`--watchdog`). Every runner-driven binary runs its cells through
//! [`Telemetry::run`], which passes every runner flag, and writes its
//! CSVs through [`Telemetry::write_csv`], which tags a deadline-degraded
//! figure. At the end of the run, [`Telemetry::report`] prints a
//! per-stage summary table and writes a machine-readable JSONL snapshot
//! under `target/experiments/telemetry/<label>.jsonl`.

use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use accu_core::chaos::chaos_metrics;
use accu_core::policy::abm_metrics;
use accu_core::{fault_metrics, sim_metrics, validate_metrics, ChaosPlan, TraceAccumulator};
use accu_telemetry::obs::{MetricsServer, Observer, Watchdog, WatchdogConfig};
use accu_telemetry::{Event, JsonlSink, Recorder, Snapshot, Tracer, DEFAULT_TRACK_CAPACITY};

use crate::chaosfs::{atomic_write, atomic_write_chaos, ChaosFile, ChaosSite};
use crate::checkpoint::Checkpoint;
use crate::cli::Cli;
use crate::output::{experiments_dir, fnum, Table};
use crate::runner::{run_policy_with, runner_metrics, FigureRun, PolicyKind, RunOptions};

/// Exit code used by `--watchdog=strict` when any alarm fired.
pub const WATCHDOG_EXIT_CODE: i32 = 3;

/// Directory telemetry JSONL snapshots are written to
/// (`target/experiments/telemetry`), created on demand.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory cannot be created.
pub fn telemetry_dir() -> io::Result<PathBuf> {
    let dir = experiments_dir()?.join("telemetry");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Directory trace exports default to (`target/experiments/trace`),
/// created on demand.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory cannot be created.
pub fn trace_dir() -> io::Result<PathBuf> {
    let dir = experiments_dir()?.join("trace");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A per-binary telemetry handle: a recorder plus the label snapshots
/// are filed under.
///
/// # Examples
///
/// ```
/// use accu_experiments::{Cli, Telemetry};
///
/// let cli = Cli::parse_from(["--telemetry"]).unwrap();
/// let tel = Telemetry::from_cli(&cli, "doc-example");
/// assert!(tel.is_enabled());
/// tel.recorder().counter("sim.requests").add(3);
/// assert_eq!(tel.snapshot().unwrap().counter("sim.requests"), Some(3));
///
/// let off = Telemetry::from_cli(&Cli::default(), "doc-example");
/// assert!(off.snapshot().is_none());
/// ```
#[derive(Debug)]
pub struct Telemetry {
    recorder: Recorder,
    tracer: Tracer,
    trace_path: Option<String>,
    label: String,
    observer: Observer,
    /// Whether the end-of-run summary tables and JSONL snapshot are
    /// wanted (`--telemetry`; `--metrics-addr` enables the recorder
    /// without them).
    summary: bool,
    /// `--workers` cap, forwarded into every [`Telemetry::run`].
    workers: Option<usize>,
    /// `--watchdog=strict`: [`Telemetry::report`] exits nonzero when
    /// any alarm fired.
    strict_watchdog: bool,
    /// The run's chaos plan (trivial without `--chaos`), forwarded
    /// into every [`Telemetry::run`], the checkpoint and every file
    /// sink the handle owns so one seeded schedule covers the whole
    /// process.
    chaos: ChaosPlan,
    /// Absolute soft deadline, derived once from `--deadline` so every
    /// cell of a multi-cell binary shares the same wall-clock budget.
    deadline_at: Option<Instant>,
    /// `--checkpoint` path and `--resume`; the file is opened by the
    /// first [`Telemetry::run`], so a binary that runs no cell creates
    /// none.
    checkpoint: Option<(String, bool)>,
    /// The `--checkpoint` file, once the first cell has opened it.
    checkpoint_file: Option<Checkpoint>,
    /// One stats row per cell that shed networks, for the CSVs written
    /// after those cells ran.
    shed: Vec<[String; 6]>,
    /// Set by [`Telemetry::write_csv`]: the next cell starts a new set
    /// of stats rows.
    wrote_csv: bool,
    /// Chaos failpoint on the streaming-progress sink, kept for its
    /// injected-fault counters.
    progress_site: Option<ChaosSite>,
    /// Chaos failpoint on trace export.
    trace_site: Option<ChaosSite>,
    /// Held for their lifetime: the metrics listener thread and the
    /// watchdog tick thread stop when the handle drops.
    server: Option<MetricsServer>,
    watchdog: Option<Watchdog>,
}

impl Telemetry {
    /// Builds a handle from the parsed CLI: the recorder is enabled by
    /// `--telemetry` or `--metrics-addr`, the tracer by `--trace`, the
    /// progress observer by `--progress` (and, counters-only, by
    /// `--watchdog` / `--metrics-addr`), the metrics listener by
    /// `--metrics-addr`, and the watchdog by `--watchdog`. Each piece
    /// is independent; with none of the flags every part is a no-op.
    ///
    /// Exits with code 2 (the CLI-error convention) when a requested
    /// progress path or metrics address cannot be opened — the user
    /// explicitly asked for them, so silently dropping the stream would
    /// be worse than stopping.
    pub fn from_cli(cli: &Cli, label: &str) -> Self {
        let (tracer, trace_path) = match &cli.trace {
            Some(spec) => (
                Tracer::with_config(spec.sample, DEFAULT_TRACK_CAPACITY),
                spec.path.clone(),
            ),
            None => (Tracer::disabled(), None),
        };
        let fail = |what: &str, err: &dyn std::fmt::Display| -> ! {
            eprintln!("error: {what}: {err}");
            std::process::exit(2);
        };
        let chaos = match &cli.chaos {
            Some(config) => ChaosPlan::sample(config),
            None => ChaosPlan::none(),
        };
        let mut progress_site = None;
        let observer = match &cli.progress {
            // Under chaos the JSONL stream goes through a failpoint so
            // injected EINTRs exercise the sink's retry path.
            Some(Some(path)) if !chaos.is_trivial() => {
                let site = ChaosSite::new(chaos, "progress");
                progress_site = Some(site.clone());
                let file = std::fs::File::create(path)
                    .unwrap_or_else(|e| fail(&format!("--progress={path}"), &e));
                let writer: Box<dyn Write + Send> = Box::new(ChaosFile::new(file, site));
                Observer::new(Some(JsonlSink::from_writer(writer, path)), true)
            }
            Some(Some(path)) => {
                let sink = JsonlSink::create(path)
                    .unwrap_or_else(|e| fail(&format!("--progress={path}"), &e));
                Observer::new(Some(sink), true)
            }
            Some(None) => Observer::new(None, true),
            // Watchdogs and the metrics endpoint read run state through
            // the observer, so give them a counters-only one.
            None if cli.watchdog.is_some() || cli.metrics_addr.is_some() => {
                Observer::new(None, false)
            }
            None => Observer::disabled(),
        };
        let recorder = Recorder::new(cli.telemetry || cli.metrics_addr.is_some());
        let server = cli.metrics_addr.as_ref().map(|addr| {
            // BindError already names the requested address, so the
            // failure message only adds the flag that asked for it.
            let server = MetricsServer::bind(addr, recorder.clone(), label, observer.clone())
                .unwrap_or_else(|e| fail("--metrics-addr", &e));
            eprintln!("serving metrics on http://{}/metrics", server.addr());
            server
        });
        let mut strict_watchdog = false;
        let watchdog = cli.watchdog.as_ref().map(|spec| {
            let config = WatchdogConfig::parse(spec)
                .unwrap_or_else(|e| fail(&format!("--watchdog={spec}"), &e));
            strict_watchdog = config.strict;
            Watchdog::spawn(config, observer.clone())
        });
        let trace_site =
            (tracer.is_enabled() && !chaos.is_trivial()).then(|| ChaosSite::new(chaos, "trace"));
        Telemetry {
            recorder,
            tracer,
            trace_path,
            label: label.to_string(),
            observer,
            summary: cli.telemetry,
            workers: cli.workers,
            chaos,
            deadline_at: cli
                .deadline
                .map(|secs| Instant::now() + Duration::from_secs_f64(secs)),
            checkpoint: cli.checkpoint.clone().map(|path| (path, cli.resume)),
            checkpoint_file: None,
            shed: Vec::new(),
            wrote_csv: false,
            progress_site,
            trace_site,
            strict_watchdog,
            server,
            watchdog,
        }
    }

    /// The recorder to thread into [`RunOptions::recorder`] and the
    /// simulator's [`AttackOptions::recorder`](accu_core::AttackOptions::recorder).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The tracer to thread into [`RunOptions::tracer`] (disabled unless
    /// `--trace` was passed).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Whether telemetry collection is on.
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// The streaming-progress observer (disabled unless `--progress`,
    /// `--watchdog`, or `--metrics-addr` was passed).
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// The bound address of the live metrics endpoint, when
    /// `--metrics-addr` was passed (resolves port 0).
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(|s| s.addr())
    }

    /// Whether a `--watchdog` is armed on this handle.
    pub fn watchdog_armed(&self) -> bool {
        self.watchdog.is_some()
    }

    /// The run's chaos plan (trivial unless `--chaos` was passed).
    pub fn chaos(&self) -> &ChaosPlan {
        &self.chaos
    }

    /// Runs one cell — `policy` over `figure` — with every runner flag:
    /// recorder, tracer, progress events, `--workers`, `--chaos`,
    /// `--deadline`, and the `--checkpoint` file (opened, or with
    /// `--resume` reopened, by the first cell). Prints the cell's
    /// notices: quarantined, repaired, rejected, resumed and shed
    /// networks. A cell that shed networks past the deadline tags the
    /// CSVs written after it, up to the next cell, as degraded.
    ///
    /// Exits the process with code 1 on any
    /// [`RunnerError`](crate::RunnerError): only a deadline yields a
    /// sanctioned partial figure.
    pub fn run(&mut self, figure: &FigureRun, policy: PolicyKind) -> TraceAccumulator {
        let fail = |e: &dyn std::fmt::Display| -> ! {
            eprintln!("error: {e}");
            std::process::exit(1);
        };
        if let (None, Some((path, resume))) = (&self.checkpoint_file, &self.checkpoint) {
            let mut ckpt = Checkpoint::open(path, *resume).unwrap_or_else(|e| fail(&e));
            ckpt.attach_chaos(&self.chaos);
            if *resume && ckpt.loaded_entries() > 0 {
                println!(
                    "resuming from {}: {} completed networks on file",
                    ckpt.path().display(),
                    ckpt.loaded_entries()
                );
            }
            if ckpt.skipped_lines() > 0 {
                println!(
                    "recovered from torn checkpoint ({} unparseable line(s) dropped; \
                     their networks recomputed)",
                    ckpt.skipped_lines()
                );
            }
            self.checkpoint_file = Some(ckpt);
        }
        if std::mem::take(&mut self.wrote_csv) {
            self.shed.clear();
        }
        let opts = RunOptions {
            recorder: self.recorder.clone(),
            tracer: self.tracer.clone(),
            events: self.observer.clone(),
            checkpoint: self.checkpoint_file.as_mut(),
            max_workers: self.workers,
            chaos: self.chaos,
            deadline: self.deadline_at,
        };
        let report = run_policy_with(figure, policy, opts).unwrap_or_else(|e| fail(&e));
        let (name, networks) = (policy.name(), figure.network_samples);
        for failure in &report.quarantined {
            eprintln!("runner: {failure}");
        }
        if report.repaired_networks > 0 {
            println!(
                "{name}: {} of {networks} networks violated a paper precondition and were \
                 repaired (1 - e^-lambda guarantee void for their contribution)",
                report.repaired_networks
            );
        }
        let rejected = report
            .quarantined
            .iter()
            .filter(|f| f.stage == "validate")
            .count();
        if rejected > 0 {
            println!(
                "{name}: {rejected} of {networks} networks rejected by --validate {}",
                figure.validation
            );
        }
        if report.resumed_networks > 0 {
            println!(
                "{name}: resumed {} of {networks} networks from checkpoint",
                report.resumed_networks
            );
        }
        if report.degraded() {
            println!(
                "{name}: deadline expired — shed {} of {networks} networks; partial aggregate \
                 over {} episodes (95% CI half-width {:.3})",
                report.shed_networks,
                report.accumulator.runs(),
                report.ci_half_width()
            );
            self.shed.push([
                figure.cell_label(policy),
                report.accumulator.runs().to_string(),
                report.completed_networks.to_string(),
                report.shed_networks.to_string(),
                fnum(report.accumulator.mean_total_benefit()),
                fnum(report.ci_half_width()),
            ]);
        }
        report.accumulator
    }

    /// Writes `table` as the figure CSV `name`. When a cell it was
    /// computed from shed networks past the deadline, the figure is a
    /// partial aggregate: it lands as `name_degraded.csv` beside a
    /// `name_degraded_stats.csv` sidecar with one row per such cell, so
    /// it can never be mistaken for the full figure. Every CSV written
    /// between one group of cells and the next carries that group's
    /// rows, so two figures drawn from one sweep are both tagged.
    /// Reports the written paths (or the failure) on the console.
    pub fn write_csv(&mut self, table: &Table, name: &str) {
        self.wrote_csv = true;
        let write = |table: &Table, name: &str| match table.write_csv(name) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("csv write failed: {e}"),
        };
        if self.shed.is_empty() {
            return write(table, name);
        }
        write(table, &format!("{name}_degraded"));
        let mut stats = Table::new([
            "cell",
            "episodes",
            "networks",
            "shed_networks",
            "mean_benefit",
            "ci_half_width",
        ]);
        for row in &self.shed {
            stats.row(row);
        }
        write(&stats, &format!("{name}_degraded_stats"));
    }

    /// Prints the summary tables and writes the JSONL snapshot, returning
    /// the JSONL path. A disabled handle does nothing and returns
    /// `Ok(None)`. Trace files (when `--trace` was given) are written
    /// regardless of `--telemetry`, and a `--metrics-addr`-only handle
    /// skips the summary (its recorder exists for the scrape endpoint).
    ///
    /// Under `--watchdog=strict`, exits the process with
    /// [`WATCHDOG_EXIT_CODE`] after reporting when any alarm fired
    /// during the run.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the output files.
    pub fn report(&self) -> io::Result<Option<PathBuf>> {
        self.export_traces()?;
        self.absorb_chaos_counters();
        let path = match self.snapshot().filter(|_| self.summary) {
            None => None,
            Some(snapshot) => {
                print_summary(&snapshot);
                let path = telemetry_dir()?.join(format!("{}.jsonl", sanitize(&self.label)));
                let mut sink = JsonlSink::create(&path)?;
                sink.write_snapshot(&snapshot)?;
                let derived = derived_metrics(&snapshot);
                if !derived.is_empty() {
                    let event = derived
                        .into_iter()
                        .fold(Event::info("derived"), |event, (name, value)| {
                            event.arg(name, value)
                        });
                    sink.write_event(&event)?;
                }
                sink.flush()?;
                println!("telemetry snapshot written to {}", path.display());
                Some(path)
            }
        };
        let alarms = self.observer.alarm_count();
        if self.strict_watchdog && alarms > 0 {
            eprintln!("watchdog: {alarms} alarm(s) fired; exiting with code {WATCHDOG_EXIT_CODE} (--watchdog=strict)");
            std::process::exit(WATCHDOG_EXIT_CODE);
        }
        Ok(path)
    }

    /// Captures the current snapshot (None when disabled).
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.recorder.snapshot(&self.label)
    }

    /// Folds injected-fault counts from this handle's chaos failpoints
    /// into the recorder, so the end-of-run snapshot carries them.
    fn absorb_chaos_counters(&self) {
        for site in [&self.progress_site, &self.trace_site]
            .into_iter()
            .flatten()
        {
            let counters = site.counters();
            for (name, value) in [
                (
                    chaos_metrics::DISK_FULL,
                    counters.disk_full.load(Ordering::Relaxed),
                ),
                (chaos_metrics::EINTR, counters.eintr.load(Ordering::Relaxed)),
                (
                    chaos_metrics::TORN_WRITES,
                    counters.torn_writes.load(Ordering::Relaxed),
                ),
            ] {
                if value > 0 {
                    self.recorder.counter(name).add(value);
                }
            }
        }
    }

    /// Writes the Chrome trace and the JSONL causal log (no-op when
    /// tracing is off), returning the Chrome trace path. The causal log
    /// lands next to the Chrome file with a `.causal.jsonl` suffix.
    /// Both files are replaced atomically (temp sibling + rename), and
    /// a failed write — injected chaos included — degrades to a stderr
    /// warning rather than failing the run: traces are diagnostics, not
    /// results.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the output directory.
    pub fn export_traces(&self) -> io::Result<Option<PathBuf>> {
        let (Some(chrome), Some(causal)) =
            (self.tracer.export_chrome(), self.tracer.export_causal())
        else {
            return Ok(None);
        };
        let chrome_path = match &self.trace_path {
            Some(path) => PathBuf::from(path),
            None => trace_dir()?.join(format!("{}.json", sanitize(&self.label))),
        };
        if let Some(parent) = chrome_path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let causal_path = causal_sibling(&chrome_path);
        let written = (|| match &self.trace_site {
            Some(site) => {
                atomic_write_chaos(&chrome_path, chrome.as_bytes(), site)?;
                atomic_write_chaos(&causal_path, causal.as_bytes(), site)
            }
            None => {
                atomic_write(&chrome_path, chrome.as_bytes())?;
                atomic_write(&causal_path, causal.as_bytes())
            }
        })();
        if let Err(e) = written {
            eprintln!("warning: trace export failed ({e}); continuing without trace files");
            return Ok(None);
        }
        println!(
            "trace written to {} ({} events, {} dropped; causal log {})",
            chrome_path.display(),
            self.tracer.event_count(),
            self.tracer.total_dropped(),
            causal_path.display()
        );
        Ok(Some(chrome_path))
    }
}

/// The causal log's path for a given Chrome trace path: the `.json`
/// extension (when present) replaced by `.causal.jsonl`, otherwise the
/// suffix appended.
fn causal_sibling(chrome_path: &std::path::Path) -> PathBuf {
    let name = chrome_path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let stem = name.strip_suffix(".json").unwrap_or(&name);
    chrome_path.with_file_name(format!("{stem}.causal.jsonl"))
}

/// Turns a snapshot label into a safe file stem.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Prints the counters, per-stage timing, and derived-rate tables.
pub fn print_summary(snapshot: &Snapshot) {
    println!("\n--- telemetry: {} ---", snapshot.label);
    if !snapshot.counters.is_empty() {
        let mut t = Table::new(["counter", "value"]);
        for c in &snapshot.counters {
            t.row([c.name.clone(), c.value.to_string()]);
        }
        t.print();
    }
    if !snapshot.histograms.is_empty() {
        println!();
        let mut t = Table::new(["stage", "count", "mean", "p50", "p90", "p99", "max"]);
        for h in &snapshot.histograms {
            t.row([
                h.name.clone(),
                h.count.to_string(),
                fmt_ns(h.mean),
                fmt_ns(h.p50 as f64),
                fmt_ns(h.p90 as f64),
                fmt_ns(h.p99 as f64),
                fmt_ns(h.max as f64),
            ]);
        }
        t.print();
    }
    let derived = derived_metrics(snapshot);
    if !derived.is_empty() {
        println!();
        let mut t = Table::new(["derived", "value"]);
        for (name, value) in derived {
            t.row([name.to_string(), fnum(value)]);
        }
        t.print();
    }
}

/// Rates computed from raw counters at report time: acceptance rates,
/// the ABM lazy-reevaluation hit rate, and worker queue imbalance.
pub fn derived_metrics(snapshot: &Snapshot) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let ratio = |num: &str, den: &str| -> Option<f64> {
        let d = snapshot.counter(den)?;
        if d == 0 {
            return None;
        }
        Some(snapshot.counter(num)? as f64 / d as f64)
    };
    if let Some(r) = ratio(sim_metrics::ACCEPTED, sim_metrics::REQUESTS) {
        out.push(("acceptance_rate", r));
    }
    if let Some(r) = ratio(
        sim_metrics::CAUTIOUS_ACCEPTED,
        sim_metrics::CAUTIOUS_REQUESTS,
    ) {
        out.push(("cautious_acceptance_rate", r));
    }
    // The share of ABM's root reads that were already exact: each
    // stale root a select settled cost it one more read.
    if let Some(selects) = snapshot.counter(abm_metrics::SELECTS).filter(|&s| s > 0) {
        let stale = snapshot.counter(abm_metrics::STALE_SKIP).unwrap_or(0);
        out.push((
            "abm_lazy_hit_rate",
            selects as f64 / (selects + stale) as f64,
        ));
    }
    // Degraded-mode rates. These only appear when the fault layer or
    // the quarantine actually fired — a clean run adds no noise here.
    if let Some(r) = ratio(fault_metrics::INJECTED, sim_metrics::REQUESTS) {
        out.push(("fault_rate", r));
    }
    if let Some(r) = ratio(fault_metrics::RETRY_BUDGET, sim_metrics::EPISODES) {
        out.push(("retry_budget_per_episode", r));
    }
    if let Some(r) = ratio(fault_metrics::TRUNCATED, sim_metrics::EPISODES) {
        out.push(("truncated_episode_fraction", r));
    }
    if let Some(q) = snapshot.counter(runner_metrics::QUARANTINED) {
        let completed = snapshot.counter(runner_metrics::NETWORKS).unwrap_or(0);
        let attempted = q + completed;
        if attempted > 0 {
            out.push(("quarantined_network_fraction", q as f64 / attempted as f64));
        }
    }
    // Validation rates: how much of the aggregate ran in degraded mode
    // (repaired instances, λ-guarantee void) or was rejected outright.
    // Clean runs register none of these counters.
    if let Some(repaired) = snapshot.counter(validate_metrics::REPAIRED_NETWORKS) {
        let completed = snapshot.counter(runner_metrics::NETWORKS).unwrap_or(0);
        if completed > 0 {
            out.push((
                "repaired_network_fraction",
                repaired as f64 / completed as f64,
            ));
        }
        if let Some(v) = snapshot.counter(validate_metrics::VIOLATIONS) {
            if repaired > 0 {
                out.push((
                    "violations_per_repaired_network",
                    v as f64 / repaired as f64,
                ));
            }
        }
    }
    if let Some(rejected) = snapshot.counter(validate_metrics::REJECTED_NETWORKS) {
        let completed = snapshot.counter(runner_metrics::NETWORKS).unwrap_or(0);
        let attempted = rejected + completed;
        if attempted > 0 {
            out.push((
                "validation_rejected_fraction",
                rejected as f64 / attempted as f64,
            ));
        }
    }
    // Queue imbalance: max over min per-worker episode counts. 1.0 is a
    // perfectly balanced work queue.
    let worker_counts: Vec<u64> = snapshot
        .counters
        .iter()
        .filter(|c| c.name.starts_with("runner.worker.") && c.name.ends_with(".episodes"))
        .map(|c| c.value)
        .collect();
    if worker_counts.len() > 1 {
        let max = *worker_counts.iter().max().unwrap();
        let min = *worker_counts.iter().min().unwrap();
        if min > 0 {
            out.push(("worker_queue_imbalance", max as f64 / min as f64));
        }
    }
    if let Some(eps) = snapshot.counter(runner_metrics::EPISODES) {
        if let Some(h) = snapshot.histogram(runner_metrics::NETWORK_NS) {
            if h.sum > 0 {
                // Episodes per wall-clock second of network processing,
                // summed across workers (i.e. aggregate throughput).
                out.push((
                    "episodes_per_network_second",
                    eps as f64 * 1e9 / h.sum as f64,
                ));
            }
        }
    }
    out
}

/// Formats nanoseconds into a human unit (ns/µs/ms/s).
fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        return "-".to_string();
    }
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentScale;
    use accu_datasets::{DatasetSpec, ProtocolConfig};

    #[test]
    fn disabled_handle_reports_nothing() {
        let tel = Telemetry::from_cli(&Cli::default(), "off");
        assert!(!tel.is_enabled());
        assert!(!tel.tracer().is_enabled());
        assert!(tel.snapshot().is_none());
        assert_eq!(tel.report().unwrap(), None);
        assert_eq!(tel.export_traces().unwrap(), None);
    }

    #[test]
    fn trace_flag_enables_the_tracer_independently_of_telemetry() {
        let cli = Cli::parse_from(["--trace", "t.json:sample=5"]).unwrap();
        let tel = Telemetry::from_cli(&cli, "t");
        assert!(!tel.is_enabled(), "--trace alone must not enable metrics");
        assert!(tel.tracer().is_enabled());
        assert_eq!(tel.tracer().sample_every(), 5);
    }

    #[test]
    fn metrics_addr_enables_recorder_without_summary() {
        let cli = Cli::parse_from(["--metrics-addr", "127.0.0.1:0"]).unwrap();
        let tel = Telemetry::from_cli(&cli, "obs-test");
        assert!(tel.is_enabled(), "--metrics-addr needs a live recorder");
        let addr = tel.metrics_addr().expect("listener bound");
        assert_ne!(addr.port(), 0, "port 0 resolves to an ephemeral port");
        assert!(tel.observer().is_enabled(), "scrapes carry obs gauges");
        // No --telemetry: report prints no summary and writes no file.
        assert_eq!(tel.report().unwrap(), None);
    }

    #[test]
    fn run_options_carry_the_workers_cap() {
        let cli = Cli::parse_from(["--workers", "3", "--telemetry"]).unwrap();
        let mut tel = Telemetry::from_cli(&cli, "opts-test");
        assert!(tel.is_enabled());
        assert!(
            !tel.observer().is_enabled(),
            "--telemetry alone builds no progress events"
        );
        let figure = ExperimentScale::from_cli(&Cli {
            samples: Some(4),
            runs: Some(1),
            budget: Some(5),
            scale: Some(0.002),
            ..Cli::default()
        })
        .figure_run(DatasetSpec::facebook(), ProtocolConfig::default());
        let acc = tel.run(&figure, PolicyKind::MaxDegree);
        assert_eq!(acc.runs(), 4);
        let snap = tel.snapshot().expect("--telemetry records");
        assert_eq!(snap.counter(runner_metrics::WORKERS), Some(3));
        assert!(tel.checkpoint_file.is_none());
    }

    #[test]
    fn watchdog_flag_arms_a_quiet_observer() {
        let cli = Cli::parse_from(["--watchdog=stall=60"]).unwrap();
        let tel = Telemetry::from_cli(&cli, "wd-test");
        assert!(tel.watchdog_armed());
        assert!(tel.observer().is_enabled());
        assert!(tel.observer().stream_path().is_none(), "quiet: no JSONL");
        assert!(!tel.is_enabled(), "--watchdog alone enables no recorder");
    }

    #[test]
    fn causal_sibling_paths() {
        use std::path::Path;
        assert_eq!(
            causal_sibling(Path::new("out/run.json")),
            Path::new("out/run.causal.jsonl")
        );
        assert_eq!(
            causal_sibling(Path::new("plain")),
            Path::new("plain.causal.jsonl")
        );
    }

    #[test]
    fn export_traces_writes_both_files() {
        let dir = std::env::temp_dir().join("accu-trace-export-test");
        std::fs::create_dir_all(&dir).unwrap();
        let chrome = dir.join("run.json");
        let cli = Cli::parse_from(["--trace", &format!("{}", chrome.display())]).unwrap();
        let tel = Telemetry::from_cli(&cli, "export-test");
        let track = tel.tracer().track("worker-0");
        track.span("chunk").finish();
        let written = tel.export_traces().unwrap().expect("trace enabled");
        assert_eq!(written, chrome);
        let text = std::fs::read_to_string(&chrome).unwrap();
        accu_telemetry::validate_chrome_trace(&text).expect("valid Chrome trace");
        let causal = std::fs::read_to_string(dir.join("run.causal.jsonl")).unwrap();
        assert!(causal.lines().count() >= 2, "begin + end lines expected");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn derived_rates_from_counters() {
        let rec = Recorder::enabled();
        rec.counter(sim_metrics::REQUESTS).add(10);
        rec.counter(sim_metrics::ACCEPTED).add(4);
        rec.counter(abm_metrics::SELECTS).add(6);
        rec.counter(abm_metrics::STALE_SKIP).add(2);
        rec.counter(runner_metrics::worker_episodes(0)).add(10);
        rec.counter(runner_metrics::worker_episodes(1)).add(5);
        let snap = rec.snapshot("t").unwrap();
        let derived = derived_metrics(&snap);
        let get = |name: &str| {
            derived
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing derived metric {name}"))
        };
        assert!((get("acceptance_rate") - 0.4).abs() < 1e-12);
        assert!((get("abm_lazy_hit_rate") - 0.75).abs() < 1e-12);
        assert!((get("worker_queue_imbalance") - 2.0).abs() < 1e-12);
        // Zero-denominator rates are omitted, not NaN.
        assert!(!derived
            .iter()
            .any(|(n, _)| *n == "cautious_acceptance_rate"));
        // A fault-free run derives no degraded-mode rates at all.
        for absent in [
            "fault_rate",
            "retry_budget_per_episode",
            "truncated_episode_fraction",
            "quarantined_network_fraction",
            "repaired_network_fraction",
            "validation_rejected_fraction",
        ] {
            assert!(
                !derived.iter().any(|(n, _)| *n == absent),
                "{absent} must not appear without fault counters"
            );
        }
    }

    #[test]
    fn derived_fault_rates_from_counters() {
        let rec = Recorder::enabled();
        rec.counter(sim_metrics::REQUESTS).add(100);
        rec.counter(sim_metrics::EPISODES).add(10);
        rec.counter(fault_metrics::INJECTED).add(25);
        rec.counter(fault_metrics::RETRY_BUDGET).add(30);
        rec.counter(fault_metrics::TRUNCATED).add(2);
        rec.counter(runner_metrics::QUARANTINED).add(1);
        rec.counter(runner_metrics::NETWORKS).add(3);
        let snap = rec.snapshot("faults").unwrap();
        let derived = derived_metrics(&snap);
        let get = |name: &str| {
            derived
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing derived metric {name}"))
        };
        assert!((get("fault_rate") - 0.25).abs() < 1e-12);
        assert!((get("retry_budget_per_episode") - 3.0).abs() < 1e-12);
        assert!((get("truncated_episode_fraction") - 0.2).abs() < 1e-12);
        assert!((get("quarantined_network_fraction") - 0.25).abs() < 1e-12);
    }

    #[test]
    fn derived_validation_rates_from_counters() {
        let rec = Recorder::enabled();
        rec.counter(runner_metrics::NETWORKS).add(8);
        rec.counter(validate_metrics::REPAIRED_NETWORKS).add(2);
        rec.counter(validate_metrics::VIOLATIONS).add(6);
        rec.counter(validate_metrics::REJECTED_NETWORKS).add(2);
        let snap = rec.snapshot("validation").unwrap();
        let derived = derived_metrics(&snap);
        let get = |name: &str| {
            derived
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing derived metric {name}"))
        };
        assert!((get("repaired_network_fraction") - 0.25).abs() < 1e-12);
        assert!((get("violations_per_repaired_network") - 3.0).abs() < 1e-12);
        assert!((get("validation_rejected_fraction") - 0.2).abs() < 1e-12);
    }

    #[test]
    fn sanitize_keeps_names_filesystem_safe() {
        assert_eq!(sanitize("fig2/ABM weights"), "fig2_ABM_weights");
        assert_eq!(sanitize("bench-abm_1"), "bench-abm_1");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12.0), "12ns");
        assert_eq!(fmt_ns(1_500.0), "1.5µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.5ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.00s");
        assert_eq!(fmt_ns(f64::NAN), "-");
    }
}
