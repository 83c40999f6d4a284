//! The runner flags reach every cell of the runner-driven figure
//! binaries. Each check runs a built binary at micro size in its own
//! scratch directory, since the binaries write their CSVs under
//! `target/experiments/` relative to the working directory.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Everything but `--samples`: one run per network, k = 10, on the
/// 1%-scale stand-ins.
const MICRO: [&str; 8] = [
    "--runs", "1", "--budget", "10", "--scale", "0.01", "--seed", "3",
];

/// A fresh, empty working directory for one check.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("accu-figure-flags-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `bin` in `dir` at micro size with `samples` networks per cell.
fn run(bin: &str, dir: &Path, samples: usize, extra: &[&str]) -> Output {
    Command::new(bin)
        .current_dir(dir)
        .args(["--samples", &samples.to_string()])
        .args(MICRO)
        .args(extra)
        .output()
        .expect("the binary starts")
}

/// The CSV files the run left behind, by name.
fn csvs(dir: &Path) -> BTreeSet<String> {
    match std::fs::read_dir(dir.join("target/experiments")) {
        Ok(entries) => entries
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".csv"))
            .collect(),
        Err(_) => BTreeSet::new(),
    }
}

fn assert_success(out: &Output) {
    assert!(
        out.status.success(),
        "exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn fig4_checkpoints_every_cell() {
    let dir = scratch("checkpoint");
    let out = run(
        env!("CARGO_BIN_EXE_fig4"),
        &dir,
        2,
        &["--checkpoint", "f4.ckpt"],
    );
    assert_success(&out);
    let text = std::fs::read_to_string(dir.join("f4.ckpt")).unwrap();
    let cells: BTreeSet<&str> = text
        .lines()
        .filter_map(|line| line.strip_prefix("{\"cell\":\""))
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert_eq!(cells.len(), 7, "one checkpoint cell per w_I: {cells:?}");
    assert_eq!(
        text.lines().count(),
        1 + 7 * 2,
        "header + 7 cells × 2 networks"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig4_deadline_tags_the_figure_degraded() {
    let dir = scratch("deadline");
    let out = run(env!("CARGO_BIN_EXE_fig4"), &dir, 3, &["--deadline", "0"]);
    assert_success(&out);
    let files = csvs(&dir);
    assert!(files.contains("fig4_twitter_degraded.csv"), "{files:?}");
    assert!(!files.contains("fig4_twitter.csv"), "{files:?}");
    let stats =
        std::fs::read_to_string(dir.join("target/experiments/fig4_twitter_degraded_stats.csv"))
            .unwrap();
    let rows: Vec<&str> = stats.lines().skip(1).collect();
    assert_eq!(rows.len(), 7, "one row per cell that shed:\n{stats}");
    // Cell labels contain commas, so each row starts with a quoted label.
    let labels: BTreeSet<&str> = rows
        .iter()
        .map(|row| row.split("\",").next().unwrap())
        .collect();
    assert_eq!(labels.len(), 7, "row labels must tell the cells apart");
    for row in rows {
        // 3 networks with a survivor floor of 2: each cell sheds one,
        // keeping 2 episodes over 2 networks.
        assert!(row.contains("\",2,2,1,"), "{row}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig6_streams_progress_for_every_cell() {
    let dir = scratch("progress");
    let out = run(
        env!("CARGO_BIN_EXE_fig6"),
        &dir,
        1,
        &["--workers", "1", "--progress=p6.jsonl"],
    );
    assert_success(&out);
    let text = std::fs::read_to_string(dir.join("p6.jsonl")).unwrap();
    let begins = text
        .lines()
        .filter(|line| line.contains("\"kind\":\"run.begin\""))
        .count();
    assert_eq!(begins, 25, "one run.begin per heat-map cell");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exhausted_restart_budget_exits_nonzero_without_a_figure() {
    let dir = scratch("restarts");
    // 9 in 10 first chunk claims panic: more panics than the 32
    // restarts the workers may spend.
    let out = run(
        env!("CARGO_BIN_EXE_fig4"),
        &dir,
        50,
        &["--workers", "2", "--chaos", "panic=0.9,seed=1"],
    );
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(csvs(&dir).is_empty(), "{:?}", csvs(&dir));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watchdog_without_a_floor_arms_no_throughput_floor() {
    let dir = scratch("watchdog");
    // A trajectory line no figure run can reach: a floor implied from
    // it would trip the strict watchdog on the first tick of a cell.
    std::fs::write(
        dir.join("BENCH_trajectory.jsonl"),
        "{\"schema\":2,\"git\":\"0\",\"bench\":\"engine\",\"eps_per_sec\":1e12,\"status\":\"ok\"}\n",
    )
    .unwrap();
    // 16 cells of 8 networks: the run outlasts the watchdog's 250 ms
    // tick, so the rules are evaluated mid-cell.
    let out = run(
        env!("CARGO_BIN_EXE_fig2"),
        &dir,
        8,
        &["--watchdog=strict,warmup=0"],
    );
    assert_success(&out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("obs.alarm"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig2_killed_mid_run_resumes_to_the_clean_csvs() {
    let fig2 = env!("CARGO_BIN_EXE_fig2");
    let clean = scratch("resume-clean");
    assert_success(&run(fig2, &clean, 3, &[]));
    let dir = scratch("resume-killed");
    // The process aborts itself right after its second durable append.
    let killed = run(
        fig2,
        &dir,
        3,
        &["--checkpoint", "C", "--chaos", "kill-after=2"],
    );
    assert!(
        !killed.status.success(),
        "kill-after must abort: {killed:?}"
    );
    let text = std::fs::read_to_string(dir.join("C")).unwrap();
    let networks = text.lines().filter(|l| l.contains("\"net\":")).count();
    assert_eq!(networks, 2, "two networks on file when the kill lands");
    assert!(csvs(&dir).is_empty(), "{:?}", csvs(&dir));
    let resumed = run(fig2, &dir, 3, &["--checkpoint", "C", "--resume"]);
    assert_success(&resumed);
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(stdout.contains("resumed 2 of 3 networks"), "{stdout}");
    let names = csvs(&clean);
    assert_eq!(csvs(&dir), names);
    assert!(!names.is_empty());
    for name in &names {
        let read = |root: &Path| std::fs::read(root.join("target/experiments").join(name)).unwrap();
        assert!(read(&dir) == read(&clean), "{name} differs after resume");
    }
    std::fs::remove_dir_all(&clean).ok();
    std::fs::remove_dir_all(&dir).ok();
}
