//! **Chaos soak** (robustness harness): runs a bank of seeded
//! kill/fault/resume schedules over a tiny Fig. 2 cell and asserts that
//! every recovery path reproduces the uninterrupted baseline
//! byte-for-byte.
//!
//! Each schedule draws one of nine profiles:
//!
//! | profile        | what it exercises |
//! |----------------|-------------------|
//! | `panic`        | in-place worker healing: every chunk's first attempt panics and is retried |
//! | `stall`        | stalled chunks: a delayed chunk still folds correctly out of order |
//! | `torn`         | checkpoint torn-write durability + resume over a corrupt tail |
//! | `disk-full`    | checkpoint ENOSPC + resume over the surviving prefix |
//! | `kill`         | a real child process aborted by `kill-after`, then resumed |
//! | `deadline`     | deadline shedding: identical survivors at 1 and 4 workers |
//! | `daemon-kill`  | a real `accu-serve` child aborted mid-job (checkpoint or registry kill channel), adopted by a restarted daemon |
//! | `daemon-torn`  | torn registry writes and torn response frames under a retrying client |
//! | `daemon-panic` | worker panics inside a service job, healed in place by its workers |
//!
//! The pass criterion is always the same: the final aggregate — and the
//! Fig. 2 CSV rendered from it — must equal a clean fault-free run
//! exactly (for daemon profiles, the recovered job's result CSV must be
//! byte-identical to the batch run of the same spec). Exits nonzero on
//! the first summary if any schedule mismatched.
//!
//! Usage: `chaos_soak [--schedules N] [--seed S]` (defaults: 27
//! schedules, seed 1).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use accu_core::{
    ChaosConfig, ChaosPlan, FaultConfig, RetryPolicy, TraceAccumulator, ValidationMode,
};
use accu_datasets::{DatasetSpec, ProtocolConfig};
use accu_experiments::output::series_table;
use accu_experiments::service::{Daemon, DaemonConfig, JobSpec, JobState, ServiceClient};
use accu_experiments::{
    run_policy_with, Checkpoint, FigureRun, PolicyKind, RunOptions, SupervisorConfig,
    DEADLINE_MIN_NETWORKS,
};

/// The profile rotation; a schedule bank of `N` covers each profile at
/// `N / 9` distinct seeds.
const PROFILES: [&str; 9] = [
    "panic",
    "stall",
    "torn",
    "disk-full",
    "kill",
    "deadline",
    "daemon-kill",
    "daemon-torn",
    "daemon-panic",
];

/// The tiny Fig. 2 cell every schedule runs: small enough for dozens of
/// repetitions, big enough to need several chunks and checkpoints.
fn soak_figure(seed: u64) -> FigureRun {
    FigureRun {
        dataset: DatasetSpec::facebook().scaled(0.02), // 80 nodes
        protocol: ProtocolConfig {
            cautious_count: 2,
            degree_band: (5, 80),
            ..ProtocolConfig::default()
        },
        budget: 10,
        network_samples: 3,
        runs_per_network: 2,
        seed,
        faults: FaultConfig::none(),
        retry: RetryPolicy::standard(),
        validation: ValidationMode::default(),
    }
}

/// Healing tuned for soaking: no restart pauses.
fn soak_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        backoff_unit: Duration::ZERO,
        ..SupervisorConfig::default()
    }
}

/// Renders the Fig. 2 CSV for one policy exactly as `fig2` would write
/// it, so schedule verdicts are byte-level, not float-tolerance-level.
fn fig2_csv(figure: &FigureRun, acc: &TraceAccumulator) -> String {
    let xs: Vec<f64> = (0..figure.budget).map(|i| (i + 1) as f64).collect();
    series_table("k", &xs, &[("ABM", acc.mean_cumulative_benefit())]).to_csv_string()
}

/// Pass criterion shared by every profile: aggregate equality plus CSV
/// byte identity against the clean baseline.
fn matches_baseline(figure: &FigureRun, got: &TraceAccumulator, want: &TraceAccumulator) -> bool {
    if got != want {
        eprintln!(
            "  aggregate mismatch: {} vs {} runs",
            got.runs(),
            want.runs()
        );
        return false;
    }
    if fig2_csv(figure, got) != fig2_csv(figure, want) {
        eprintln!("  CSV bytes differ despite equal aggregates");
        return false;
    }
    true
}

/// The chaos-free aggregate of `figure` every schedule must reproduce.
fn baseline(figure: &FigureRun) -> TraceAccumulator {
    run_policy_with(figure, PolicyKind::abm_balanced(), RunOptions::default())
        .expect("the chaos-free baseline run succeeds")
        .accumulator
}

/// In-process worker-fault profiles (`panic`, `stall`): the workers must
/// absorb every injected fault without touching the results.
fn heal_profile(fig_seed: u64, config: ChaosConfig) -> bool {
    let figure = soak_figure(fig_seed);
    let baseline = baseline(&figure);
    let report = run_policy_with(
        &figure,
        PolicyKind::abm_balanced(),
        RunOptions {
            chaos: ChaosPlan::sample(&config),
            max_workers: Some(2),
            supervisor: soak_supervisor(),
            ..RunOptions::default()
        },
    );
    match report {
        Ok(report) => {
            if !report.quarantined.is_empty() {
                eprintln!(
                    "  {} network(s) quarantined under healing",
                    report.quarantined.len()
                );
                return false;
            }
            matches_baseline(&figure, &report.accumulator, &baseline)
        }
        Err(e) => {
            eprintln!("  unexpected runner error: {e}");
            false
        }
    }
}

/// Resumes `path` without chaos and checks the completed run against
/// the baseline.
fn resume_matches(figure: &FigureRun, path: &Path, baseline: &TraceAccumulator) -> bool {
    let mut ckpt = match Checkpoint::open(path, true) {
        Ok(ckpt) => ckpt,
        Err(e) => {
            eprintln!("  resume failed: {e}");
            return false;
        }
    };
    match run_policy_with(
        figure,
        PolicyKind::abm_balanced(),
        RunOptions {
            checkpoint: Some(&mut ckpt),
            max_workers: Some(2),
            ..RunOptions::default()
        },
    ) {
        Ok(report) => matches_baseline(figure, &report.accumulator, baseline),
        Err(e) => {
            eprintln!("  resumed run failed: {e}");
            false
        }
    }
}

/// Checkpoint-fault profiles (`torn`, `disk-full`): the faulted run may
/// legitimately end in a checkpoint error; whatever prefix survived on
/// disk, a chaos-free resume must reconstruct the baseline.
fn checkpoint_chaos_profile(fig_seed: u64, config: ChaosConfig, path: &Path) -> bool {
    let figure = soak_figure(fig_seed);
    let baseline = baseline(&figure);
    {
        let mut ckpt = match Checkpoint::open(path, false) {
            Ok(ckpt) => ckpt,
            Err(e) => {
                eprintln!("  checkpoint create failed: {e}");
                return false;
            }
        };
        ckpt.attach_chaos(&ChaosPlan::sample(&config));
        // The faulted pass: an append error aborts checkpointing but
        // not the run, so Ok and Err(Checkpoint) are both legitimate.
        let _ = run_policy_with(
            &figure,
            PolicyKind::abm_balanced(),
            RunOptions {
                checkpoint: Some(&mut ckpt),
                max_workers: Some(2),
                ..RunOptions::default()
            },
        );
    }
    resume_matches(&figure, path, &baseline)
}

/// Kill profile: a real child process (this binary in `--child-kill`
/// mode) aborts itself after `kill_after` durable appends; the parent
/// then resumes the orphaned checkpoint.
fn kill_profile(fig_seed: u64, kill_after: u64, path: &Path) -> bool {
    let figure = soak_figure(fig_seed);
    let baseline = baseline(&figure);
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("  current_exe failed: {e}");
            return false;
        }
    };
    let status = Command::new(exe)
        .arg("--child-kill")
        .arg(path)
        .arg(kill_after.to_string())
        .arg(fig_seed.to_string())
        .status();
    match status {
        Ok(status) if status.success() => {
            eprintln!("  child was expected to abort but exited cleanly");
            return false;
        }
        Ok(_) => {}
        Err(e) => {
            eprintln!("  spawning child failed: {e}");
            return false;
        }
    }
    resume_matches(&figure, path, &baseline)
}

/// Child-mode body for the kill profile: run the cell with a
/// `kill-after` chaos schedule attached to the checkpoint, which calls
/// `abort()` mid-run.
fn run_kill_child(path: &str, kill_after: u64, fig_seed: u64) {
    let figure = soak_figure(fig_seed);
    let mut ckpt = Checkpoint::open(path, false).unwrap_or_else(|e| {
        eprintln!("child: checkpoint create failed: {e}");
        std::process::exit(3);
    });
    ckpt.attach_chaos(&ChaosPlan::sample(&ChaosConfig {
        kill_after_appends: Some(kill_after),
        ..ChaosConfig::none()
    }));
    let _ = run_policy_with(
        &figure,
        PolicyKind::abm_balanced(),
        RunOptions {
            checkpoint: Some(&mut ckpt),
            max_workers: Some(2),
            ..RunOptions::default()
        },
    );
    // Reaching here means kill-after never fired — the parent treats a
    // clean exit as a schedule failure.
}

/// Deadline profile: an expired deadline must shed the same suffix at
/// every worker count, and the survivors must equal a fresh run over
/// exactly the surviving prefix.
fn deadline_profile(fig_seed: u64) -> bool {
    let figure = soak_figure(fig_seed);
    let prefix = FigureRun {
        network_samples: DEADLINE_MIN_NETWORKS,
        ..figure.clone()
    };
    let expected = baseline(&prefix);
    for workers in [1usize, 4] {
        let report = match run_policy_with(
            &figure,
            PolicyKind::abm_balanced(),
            RunOptions {
                max_workers: Some(workers),
                deadline: Some(Instant::now()),
                ..RunOptions::default()
            },
        ) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("  deadline run failed: {e}");
                return false;
            }
        };
        if !report.degraded()
            || report.shed_networks != figure.network_samples - DEADLINE_MIN_NETWORKS
        {
            eprintln!(
                "  expected {} shed network(s), got {} (workers={workers})",
                figure.network_samples - DEADLINE_MIN_NETWORKS,
                report.shed_networks
            );
            return false;
        }
        if !matches_baseline(&prefix, &report.accumulator, &expected) {
            eprintln!("  degraded aggregate differs from the prefix run (workers={workers})");
            return false;
        }
    }
    true
}

/// The service job every daemon profile runs: the soak figure expressed
/// as a [`JobSpec`] (same dataset, protocol, and sizes — so the batch
/// reference is `spec.run_batch()`).
fn soak_spec(fig_seed: u64) -> JobSpec {
    JobSpec {
        seed: fig_seed,
        ..JobSpec::default()
    }
}

/// A soak client: patient retries (the daemon may be mid-crash or its
/// response frames mid-tear) with seeded jitter.
fn soak_client(addr: &str, chaos_seed: u64) -> ServiceClient {
    ServiceClient::connect(addr)
        .with_retry(accu_core::RetryPolicy {
            max_retries: 10,
            ..RetryPolicy::standard().with_jitter(50)
        })
        .with_seed(chaos_seed)
}

/// Journal reconstruction check shared by the daemon profiles: the
/// registry journal, read back by job id alone, must tell the
/// schedule's story — submit, then (for kill schedules) the abort, the
/// adoption, and finally the publish — with per-writer sequence
/// monotonicity intact and strictly increasing lease epochs across
/// incarnations.
fn journal_chain_ok(registry: &Path, expect_kill: bool) -> bool {
    let path = registry.join("journal.jsonl");
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("  journal read failed ({}): {e}", path.display());
            return false;
        }
    };
    let read = match accu_telemetry::check_events(&text) {
        Ok(read) => read,
        Err(violation) => {
            eprintln!("  invalid journal: {violation}");
            return false;
        }
    };
    let events: Vec<&accu_telemetry::Event> = read.for_job("soak").collect();
    let pos = |kind: &str| events.iter().position(|e| e.kind == kind);
    let Some(submit) = pos("job.submit") else {
        eprintln!("  journal records no job.submit for the soak job");
        return false;
    };
    let Some(publish) = events.iter().rposition(|e| e.kind == "job.publish") else {
        eprintln!("  journal records no job.publish for the soak job");
        return false;
    };
    if expect_kill {
        let Some(kill) = pos("chaos.kill") else {
            eprintln!("  journal records no chaos.kill despite the armed kill channel");
            return false;
        };
        let Some(adopt) = pos("job.adopt").or_else(|| pos("lease.takeover")) else {
            eprintln!("  journal records no adoption (job.adopt/lease.takeover) after the kill");
            return false;
        };
        if !(submit < kill && kill < adopt && adopt < publish) {
            eprintln!(
                "  journal order broken: submit@{submit} kill@{kill} adopt@{adopt} \
                 publish@{publish}"
            );
            return false;
        }
    } else if publish < submit {
        eprintln!("  journal order broken: publish@{publish} before submit@{submit}");
        return false;
    }
    let mut last_epoch = 0u64;
    for event in &events {
        if event.kind == "lease.acquire" || event.kind == "lease.takeover" {
            let Some(epoch) = event.ids().epoch else {
                continue;
            };
            if epoch <= last_epoch {
                eprintln!("  lease epochs not strictly increasing: {epoch} after {last_epoch}");
                return false;
            }
            last_epoch = epoch;
        }
    }
    if expect_kill && last_epoch < 2 {
        eprintln!("  expected a post-adoption epoch >= 2, saw {last_epoch}");
        return false;
    }
    true
}

/// Submits the soak job, waits for it, and byte-compares the daemon's
/// result CSV against the batch reference — the shared back half of
/// every daemon profile.
fn daemon_job_matches(daemon: &Daemon, spec: &JobSpec, want: &str, chaos_seed: u64) -> bool {
    let client = soak_client(&daemon.addr().to_string(), chaos_seed);
    if let Err(e) = client.submit("soak", spec) {
        eprintln!("  submit failed: {e}");
        return false;
    }
    let status = match client.wait_done("soak", Duration::from_secs(180)) {
        Ok(status) => status,
        Err(e) => {
            eprintln!("  wait failed: {e}");
            return false;
        }
    };
    if status.state != JobState::Done {
        eprintln!("  job ended {status}");
        return false;
    }
    match client.result_csv("soak") {
        Ok(got) if got == want => true,
        Ok(_) => {
            eprintln!("  daemon result CSV differs from the batch reference");
            false
        }
        Err(e) => {
            eprintln!("  result fetch failed: {e}");
            false
        }
    }
}

/// Daemon kill profile: a real child daemon (this binary in
/// `--child-daemon` mode) aborts itself mid-job — after N durable
/// checkpoint appends or N durable registry writes, alternating by seed
/// — and a fresh in-process daemon over the same registry must adopt
/// the orphan and finish it byte-identically. The submitting client
/// lives through the crash, exercising its reconnect-retry path.
fn daemon_kill_profile(fig_seed: u64, chaos_seed: u64, dir: &Path, tag: usize) -> bool {
    let spec = soak_spec(fig_seed);
    let want = match spec.run_batch() {
        Ok(csv) => csv,
        Err(e) => {
            eprintln!("  reference run failed: {e}");
            return false;
        }
    };
    let registry = dir.join(format!("daemon_kill_{tag}"));
    let portfile = dir.join(format!("daemon_kill_{tag}.port"));
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("  current_exe failed: {e}");
            return false;
        }
    };
    // Alternate the crash channel: inside the run (checkpoint appends)
    // or between job state transitions (registry writes; write 3 is the
    // `running` status, write 4 the result).
    let (kill_kind, kill_n) = if chaos_seed.is_multiple_of(2) {
        ("checkpoint", 1 + (chaos_seed / 2) % 2)
    } else {
        ("registry", 3 + (chaos_seed / 2) % 2)
    };
    let mut child = match Command::new(exe)
        .arg("--child-daemon")
        .arg(&registry)
        .arg(&portfile)
        .arg(kill_kind)
        .arg(kill_n.to_string())
        .spawn()
    {
        Ok(child) => child,
        Err(e) => {
            eprintln!("  spawning child daemon failed: {e}");
            return false;
        }
    };
    // The child writes its ephemeral address once it is listening.
    let mut addr = String::new();
    for _ in 0..300 {
        if let Ok(text) = std::fs::read_to_string(&portfile) {
            if !text.trim().is_empty() {
                addr = text.trim().to_string();
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    if addr.is_empty() {
        eprintln!("  child daemon never published its address");
        let _ = child.kill();
        let _ = child.wait();
        return false;
    }
    // Submit into the doomed daemon. The crash can race the response
    // frame, so a transport failure is fine as long as the submission
    // itself landed durably.
    if let Err(e) = soak_client(&addr, chaos_seed).submit("soak", &spec) {
        if !registry
            .join("jobs")
            .join("soak")
            .join("spec.json")
            .exists()
        {
            eprintln!("  submit failed before reaching the registry: {e}");
            let _ = child.kill();
            let _ = child.wait();
            return false;
        }
    }
    match child.wait() {
        Ok(status) if status.success() => {
            eprintln!("  child daemon was expected to abort but exited cleanly");
            return false;
        }
        Ok(_) => {}
        Err(e) => {
            eprintln!("  waiting for child daemon failed: {e}");
            return false;
        }
    }
    // Crash-only recovery: just start another daemon on the registry.
    // The dead pid makes the orphan's lease stale immediately on Linux;
    // the short TTL covers everywhere else.
    let daemon = match Daemon::start(DaemonConfig {
        lease_ttl: Duration::from_millis(300),
        supervisor: soak_supervisor(),
        ..DaemonConfig::new(&registry)
    }) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("  restart daemon failed: {e}");
            return false;
        }
    };
    daemon_job_matches(&daemon, &spec, &want, chaos_seed) && journal_chain_ok(&registry, true)
}

/// Daemon torn profile: one in-process daemon whose chaos plan tears
/// registry writes, checkpoint appends, *and* response frames. The
/// retrying client must shrug off the torn responses, the registry's
/// bounded write retries must absorb the torn files, and the result
/// must still match batch byte-for-byte.
fn daemon_torn_profile(fig_seed: u64, chaos_seed: u64, dir: &Path, tag: usize) -> bool {
    let spec = soak_spec(fig_seed);
    let want = match spec.run_batch() {
        Ok(csv) => csv,
        Err(e) => {
            eprintln!("  reference run failed: {e}");
            return false;
        }
    };
    let registry = dir.join(format!("daemon_torn_{tag}"));
    let daemon = match Daemon::start(DaemonConfig {
        chaos: ChaosPlan::sample(&ChaosConfig {
            torn_write: 0.25,
            eintr: 0.2,
            seed: chaos_seed,
            ..ChaosConfig::none()
        }),
        lease_ttl: Duration::from_millis(500),
        supervisor: soak_supervisor(),
        ..DaemonConfig::new(&registry)
    }) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("  daemon start failed: {e}");
            return false;
        }
    };
    daemon_job_matches(&daemon, &spec, &want, chaos_seed) && journal_chain_ok(&registry, false)
}

/// Daemon panic profile: every chunk's first attempt inside the service
/// job panics; the job's workers retry each chunk in place until the job
/// heals, and the published result must still be byte-identical to
/// batch.
fn daemon_panic_profile(fig_seed: u64, chaos_seed: u64, dir: &Path, tag: usize) -> bool {
    let spec = soak_spec(fig_seed);
    let want = match spec.run_batch() {
        Ok(csv) => csv,
        Err(e) => {
            eprintln!("  reference run failed: {e}");
            return false;
        }
    };
    let registry = dir.join(format!("daemon_panic_{tag}"));
    let daemon = match Daemon::start(DaemonConfig {
        chaos: ChaosPlan::sample(&ChaosConfig {
            worker_panic: 1.0,
            seed: chaos_seed,
            ..ChaosConfig::none()
        }),
        supervisor: soak_supervisor(),
        ..DaemonConfig::new(&registry)
    }) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("  daemon start failed: {e}");
            return false;
        }
    };
    daemon_job_matches(&daemon, &spec, &want, chaos_seed) && journal_chain_ok(&registry, false)
}

/// Child-mode body for the daemon-kill profile: serve the registry with
/// an armed kill channel, publish the listen address, and wait for the
/// abort to land. A clean exit means the kill never fired, which the
/// parent treats as a schedule failure.
fn run_daemon_child(registry: &str, portfile: &str, kill_kind: &str, kill_n: u64) {
    let chaos = if kill_kind == "checkpoint" {
        ChaosPlan::sample(&ChaosConfig {
            kill_after_appends: Some(kill_n),
            ..ChaosConfig::none()
        })
    } else {
        ChaosPlan::none()
    };
    let daemon = Daemon::start(DaemonConfig {
        lease_ttl: Duration::from_millis(500),
        chaos,
        kill_after_registry: (kill_kind == "registry").then_some(kill_n),
        supervisor: soak_supervisor(),
        ..DaemonConfig::new(registry)
    })
    .unwrap_or_else(|e| {
        eprintln!("child: daemon start failed: {e}");
        std::process::exit(3);
    });
    if let Err(e) = std::fs::write(portfile, daemon.addr().to_string()) {
        eprintln!("child: cannot publish address: {e}");
        std::process::exit(3);
    }
    // The armed kill aborts the process long before this runs out.
    std::thread::sleep(Duration::from_secs(60));
}

fn soak_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("accu_chaos_soak_{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child-kill") {
        if args.len() != 4 {
            eprintln!("usage (internal): --child-kill CKPT_PATH KILL_AFTER FIG_SEED");
            std::process::exit(2);
        }
        let kill_after: u64 = args[2].parse().expect("KILL_AFTER is a u64");
        let fig_seed: u64 = args[3].parse().expect("FIG_SEED is a u64");
        run_kill_child(&args[1], kill_after, fig_seed);
        return;
    }
    if args.first().map(String::as_str) == Some("--child-daemon") {
        if args.len() != 5 {
            eprintln!("usage (internal): --child-daemon REGISTRY PORTFILE KILL_KIND KILL_N");
            std::process::exit(2);
        }
        let kill_n: u64 = args[4].parse().expect("KILL_N is a u64");
        run_daemon_child(&args[1], &args[2], &args[3], kill_n);
        return;
    }

    let mut schedules = 27usize;
    let mut seed = 1u64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--schedules" => {
                schedules = value("--schedules").parse().unwrap_or_else(|_| {
                    eprintln!("error: --schedules expects a count");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                seed = value("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("error: --seed expects a u64");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("error: unknown flag {other:?}");
                eprintln!("usage: chaos_soak [--schedules N] [--seed S]");
                std::process::exit(2);
            }
        }
    }

    println!("chaos soak: {schedules} schedule(s), seed {seed}");
    let dir = soak_dir();
    let mut failures = 0usize;
    for s in 0..schedules {
        let profile = PROFILES[s % PROFILES.len()];
        // Every schedule gets its own figure seed (varying the cell)
        // and chaos seed (varying the fault pattern within a profile).
        let fig_seed = 99 + seed.wrapping_mul(1009) + s as u64;
        let chaos_seed = seed.wrapping_add(s as u64);
        let ok = match profile {
            "panic" => heal_profile(
                fig_seed,
                ChaosConfig {
                    worker_panic: 1.0,
                    seed: chaos_seed,
                    ..ChaosConfig::none()
                },
            ),
            "stall" => heal_profile(
                fig_seed,
                ChaosConfig {
                    worker_stall: 0.7,
                    stall_ms: 40,
                    seed: chaos_seed,
                    ..ChaosConfig::none()
                },
            ),
            "torn" => checkpoint_chaos_profile(
                fig_seed,
                ChaosConfig {
                    torn_write: 0.6,
                    seed: chaos_seed,
                    ..ChaosConfig::none()
                },
                &dir.join(format!("torn_{s}.jsonl")),
            ),
            "disk-full" => checkpoint_chaos_profile(
                fig_seed,
                ChaosConfig {
                    disk_full: 0.6,
                    eintr: 0.3,
                    seed: chaos_seed,
                    ..ChaosConfig::none()
                },
                &dir.join(format!("disk_{s}.jsonl")),
            ),
            "kill" => kill_profile(
                fig_seed,
                1 + (chaos_seed % 2),
                &dir.join(format!("kill_{s}.jsonl")),
            ),
            "deadline" => deadline_profile(fig_seed),
            "daemon-kill" => daemon_kill_profile(fig_seed, chaos_seed, &dir, s),
            "daemon-torn" => daemon_torn_profile(fig_seed, chaos_seed, &dir, s),
            "daemon-panic" => daemon_panic_profile(fig_seed, chaos_seed, &dir, s),
            _ => unreachable!("profile table covers the rotation"),
        };
        println!(
            "[{:>2}/{schedules}] {profile:<9} fig_seed={fig_seed} {}",
            s + 1,
            if ok { "ok" } else { "MISMATCH" }
        );
        if !ok {
            failures += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    if failures > 0 {
        eprintln!("chaos soak: {failures} of {schedules} schedule(s) FAILED");
        std::process::exit(1);
    }
    println!("chaos soak: all {schedules} schedule(s) reproduced the baseline byte-for-byte");
}
