//! **Chaos soak** (robustness harness): runs a bank of seeded
//! kill/fault/resume schedules over a tiny Fig. 2 cell and asserts that
//! every recovery path reproduces the uninterrupted baseline
//! byte-for-byte.
//!
//! Each schedule draws one of six profiles, in rotation:
//!
//! | profile     | what it exercises |
//! |-------------|-------------------|
//! | `panic`     | in-place worker healing: every network's first attempt panics and is retried |
//! | `stall`     | stalled networks: a delayed network still folds correctly out of order |
//! | `torn`      | checkpoint torn-write durability + resume over a corrupt tail |
//! | `disk-full` | checkpoint ENOSPC + resume over the surviving prefix |
//! | `kill`      | a real child process aborted by `kill-after`, then resumed |
//! | `deadline`  | deadline shedding: identical survivors at 1 and 4 workers |
//!
//! The pass criterion is always the same: the final aggregate — and the
//! Fig. 2 CSV rendered from it — must equal a clean fault-free run
//! exactly. Exits nonzero on the first summary if any schedule
//! mismatched.
//!
//! Usage: `chaos_soak [--schedules N] [--seed S]` (defaults: 27
//! schedules, seed 1, so each profile runs 4 or 5 times).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use accu_core::{ChaosConfig, FaultConfig, RetryPolicy, TraceAccumulator, ValidationMode};
use accu_datasets::{DatasetSpec, ProtocolConfig};
use accu_experiments::output::series_table;
use accu_experiments::{
    run_policy_with, Checkpoint, FigureRun, PolicyKind, RunOptions, DEADLINE_MIN_NETWORKS,
};
use accu_telemetry::Recorder;

/// The profile rotation; a schedule bank of `N` covers each profile at
/// `N / 6` (rounded up or down) distinct seeds.
const PROFILES: [&str; 6] = ["panic", "stall", "torn", "disk-full", "kill", "deadline"];

/// The tiny Fig. 2 cell every schedule runs: small enough for dozens of
/// repetitions, big enough to need several networks and checkpoints.
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
            chaos: config,
            max_workers: Some(2),
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
        ckpt.attach_chaos(&config, &Recorder::disabled());
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
    let kill = ChaosConfig {
        kill_after_appends: Some(kill_after),
        ..ChaosConfig::none()
    };
    ckpt.attach_chaos(&kill, &Recorder::disabled());
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
