//! Integration tests for the `accu-obs` observability layer: progress
//! streams must be byte-stable across scheduling, the analyzer
//! binaries (`telemetry_diff`, `bench_report`, `trace_explain`) must
//! verdict and exit correctly, and a live run must expose a valid
//! Prometheus scrape.

use std::path::{Path, PathBuf};
use std::process::Command;

use accu_core::{ChaosConfig, ChaosPlan, FaultConfig, RetryPolicy, ValidationMode};
use accu_datasets::{DatasetSpec, ProtocolConfig};
use accu_experiments::{
    run_policy_with, FigureRun, PolicyKind, RunOptions, RunnerError, Telemetry,
};
use accu_telemetry::obs::{validate_prometheus, MetricsServer, Observer};
use accu_telemetry::{
    read_events, Corr, Event, JsonlSink, Recorder, Source, Stamp, Tracer, DEFAULT_TRACK_CAPACITY,
};

/// A small but non-trivial figure configuration shared by the tests.
fn small_figure(seed: u64) -> FigureRun {
    FigureRun {
        dataset: DatasetSpec::facebook().scaled(0.02), // 80 nodes
        protocol: ProtocolConfig {
            cautious_count: 2,
            degree_band: (5, 80),
            ..ProtocolConfig::default()
        },
        budget: 12,
        network_samples: 4,
        runs_per_network: 3,
        seed,
        faults: FaultConfig::none(),
        retry: RetryPolicy::standard(),
        validation: ValidationMode::default(),
    }
}

/// A fresh scratch directory under the target tmpdir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("accu-obs-it-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `policy` over `figure` streaming quiet progress JSONL to
/// `path` on at most `workers` threads (and as many episode chunks per
/// network, clamped to its episode count).
fn run_streaming(figure: &FigureRun, path: &Path, workers: usize) {
    let report = run_policy_with(
        figure,
        PolicyKind::abm_balanced(),
        RunOptions {
            events: Observer::new(Some(JsonlSink::create(path).unwrap()), false),
            max_workers: Some(workers),
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(report.completed_networks, figure.network_samples);
}

#[test]
fn progress_stream_is_byte_identical_across_worker_counts() {
    let dir = scratch_dir("stream");
    let figure = small_figure(2024);
    let serial = dir.join("serial.jsonl");
    let parallel = dir.join("parallel.jsonl");
    run_streaming(&figure, &serial, 1);
    // 4 workers over 3 chunks per network (3 episodes each).
    run_streaming(&figure, &parallel, 4);
    let serial_bytes = std::fs::read(&serial).unwrap();
    let parallel_bytes = std::fs::read(&parallel).unwrap();
    assert!(!serial_bytes.is_empty());
    assert_eq!(
        serial_bytes, parallel_bytes,
        "progress JSONL must not depend on scheduling"
    );
    let text = String::from_utf8(serial_bytes).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].contains("\"kind\":\"run.begin\""));
    assert!(lines.last().unwrap().contains("\"kind\":\"run.end\""));
    assert_eq!(
        lines.len(),
        2 + figure.network_samples,
        "begin + one line per network + end"
    );
    // Network lines stream in index order regardless of which worker
    // finished first.
    for (i, line) in lines[1..lines.len() - 1].iter().enumerate() {
        assert!(
            line.contains(&format!("\"network\":{i},")),
            "line {i} out of order: {line}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The kinds of a progress stream's events, with their network index.
fn stream_kinds(path: &Path) -> Vec<String> {
    read_events(&std::fs::read_to_string(path).unwrap())
        .events
        .iter()
        .map(|e| match e.ids().network {
            Some(net) => format!("{}#{net}", e.kind),
            None => e.kind.to_string(),
        })
        .collect()
}

/// A run that aborts still streams the networks it completed, in index
/// order, then `run.fail`; the next run on the same observer starts
/// with an empty buffer.
///
/// One worker, one chunk per network, and a first-attempt panic on
/// every chunk: networks 0–31 each heal by spending one of the run's 32
/// restarts, and the panic on network 32 finds the budget spent and
/// aborts the run.
#[test]
fn aborted_run_flushes_salvaged_networks_and_the_next_run_starts_clean() {
    let dir = scratch_dir("abort");
    let figure = FigureRun {
        network_samples: 34,
        runs_per_network: 1, // one chunk per network
        ..small_figure(31)
    };
    let chaos = ChaosPlan::sample(&ChaosConfig {
        worker_panic: 1.0,
        ..ChaosConfig::none()
    });
    let path = dir.join("progress.jsonl");
    let progress = Observer::new(Some(JsonlSink::create(&path).unwrap()), false);
    let recorder = Recorder::enabled();
    let aborted = run_policy_with(
        &figure,
        PolicyKind::abm_balanced(),
        RunOptions {
            recorder: recorder.clone(),
            events: progress.clone(),
            max_workers: Some(1),
            chaos,
            ..RunOptions::default()
        },
    );
    let Err(RunnerError::WorkerPanicked {
        completed_networks, ..
    }) = aborted
    else {
        panic!("the 33rd panic must abort the run: {aborted:?}");
    };
    assert_eq!(completed_networks, 32);
    let snap = recorder.snapshot("abort").unwrap();
    assert_eq!(snap.counter("runner.supervisor.restarts"), Some(32));
    assert_eq!(snap.counter("runner.supervisor.worker_panics"), Some(33));
    run_policy_with(
        &figure,
        PolicyKind::abm_balanced(),
        RunOptions {
            events: progress,
            ..RunOptions::default()
        },
    )
    .unwrap();
    let network = |net: usize| format!("run.network#{net}");
    let mut want = vec!["run.begin".to_string()];
    want.extend((0..32).map(network));
    want.extend(["run.fail", "run.begin"].map(String::from));
    want.extend((0..34).map(network));
    want.push("run.end".to_string());
    assert_eq!(stream_kinds(&path), want);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn live_scrape_of_a_real_run_is_valid_prometheus() {
    use std::io::{Read as _, Write as _};

    let figure = small_figure(7);
    let recorder = Recorder::enabled();
    let observer = Observer::new(None, false);
    let server =
        MetricsServer::bind("127.0.0.1:0", recorder.clone(), "obs-it", observer.clone()).unwrap();
    run_policy_with(
        &figure,
        PolicyKind::abm_balanced(),
        RunOptions {
            recorder,
            events: observer,
            ..RunOptions::default()
        },
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (_, body) = response.split_once("\r\n\r\n").unwrap();
    let stats = validate_prometheus(body).unwrap();
    assert!(stats.families > 0 && stats.samples > 0);
    assert!(body.contains("accu_runner_episodes{run=\"obs-it\"}"));
    assert!(body.contains("accu_obs_episodes_done{run=\"obs-it\"}"));
    // The in-flight gauge exists and has settled back to zero.
    assert!(body.contains("accu_runner_networks_inflight{run=\"obs-it\"} 0"));
}

/// Writes a synthetic telemetry snapshot with the given runner
/// throughput ingredients.
fn write_snapshot(path: &Path, label: &str, episodes: u64, per_network_ns: u64, nets: u64) {
    let rec = Recorder::enabled();
    rec.counter("runner.episodes").add(episodes);
    rec.counter("runner.networks").add(nets);
    for _ in 0..nets {
        rec.histogram("runner.network_ns").record(per_network_ns);
    }
    let snap = rec.snapshot(label).unwrap();
    std::fs::write(path, format!("{}\n", snap.to_json())).unwrap();
}

#[test]
fn telemetry_diff_passes_identical_runs_and_flags_regressions() {
    let dir = scratch_dir("diff");
    let base_a = dir.join("base_a.jsonl");
    let base_b = dir.join("base_b.jsonl");
    let same = dir.join("same.jsonl");
    let slow = dir.join("slow.jsonl");
    // Baselines: 100 episodes over 1s of network time = 100 eps/s.
    write_snapshot(&base_a, "base", 100, 250_000_000, 4);
    write_snapshot(&base_b, "base", 100, 250_000_000, 4);
    write_snapshot(&same, "candidate", 100, 250_000_000, 4);
    // Candidate: 40% slower — past the default 25% band.
    write_snapshot(&slow, "candidate", 60, 250_000_000, 4);

    let diff = env!("CARGO_BIN_EXE_telemetry_diff");
    let ok = Command::new(diff)
        .args([&base_a, &base_b, &same].map(|p| p.as_os_str().to_owned()))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(
        ok.status.success(),
        "identical runs must pass: {stdout} {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(stdout.contains("verdict: ok"), "stdout: {stdout}");

    let bad = Command::new(diff)
        .args([&base_a, &base_b, &slow].map(|p| p.as_os_str().to_owned()))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert_eq!(
        bad.status.code(),
        Some(1),
        "a 40% slowdown must exit 1: {stdout}"
    );
    assert!(stdout.contains("verdict: REGRESSION"), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_diff_validates_prometheus_expositions() {
    let dir = scratch_dir("promcheck");
    let good = dir.join("good.prom");
    let bad = dir.join("bad.prom");
    let rec = Recorder::enabled();
    rec.counter("runner.episodes").add(5);
    std::fs::write(
        &good,
        accu_telemetry::obs::encode_prometheus(&rec.snapshot("ci").unwrap()),
    )
    .unwrap();
    std::fs::write(&bad, "accu_broken{run=\"x\" 5\n").unwrap();

    let diff = env!("CARGO_BIN_EXE_telemetry_diff");
    let ok = Command::new(diff)
        .arg("--check-prometheus")
        .arg(&good)
        .output()
        .unwrap();
    assert!(ok.status.success());
    assert!(String::from_utf8_lossy(&ok.stdout).contains("valid exposition"));
    let fail = Command::new(diff)
        .arg("--check-prometheus")
        .arg(&bad)
        .output()
        .unwrap();
    assert_eq!(fail.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

/// `--check-events` accepts a well-formed service journal (the shape
/// older versions wrote) and exits 1 when one writer's sequence
/// restarts — the signature of two daemon incarnations sharing a
/// writer id.
#[test]
fn telemetry_diff_check_events_rejects_a_restarted_writer_seq() {
    let dir = scratch_dir("eventcheck");
    let line = |writer: u64, seq: u64| {
        let mut event = Event::info("job.submit")
            .corr(Corr {
                job_id: Some("j".to_string()),
                ..Corr::none()
            })
            .msg("created");
        event.stamp = Some(Stamp {
            source: Source::Writer(writer),
            seq,
            ts: 1,
        });
        event.to_json() + "\n"
    };
    let good = dir.join("good.jsonl");
    let bad = dir.join("bad.jsonl");
    std::fs::write(&good, line(65536, 0) + &line(65537, 0) + &line(65536, 1)).unwrap();
    std::fs::write(&bad, line(65536, 0) + &line(65536, 1) + &line(65536, 0)).unwrap();

    let diff = env!("CARGO_BIN_EXE_telemetry_diff");
    let ok = Command::new(diff)
        .arg("--check-events")
        .arg(&good)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(ok.status.success(), "{stdout}");
    assert!(stdout.contains("valid journal (3 events"), "{stdout}");
    assert!(stdout.contains("j: 3 event(s)"), "{stdout}");
    let fail = Command::new(diff)
        .arg("--check-events")
        .arg(&bad)
        .output()
        .unwrap();
    assert_eq!(fail.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&fail.stderr);
    assert!(stderr.contains("writer 65536 seq went 1 -> 0"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_report_renders_the_trajectory_table() {
    let dir = scratch_dir("benchreport");
    let trajectory = dir.join("trajectory.jsonl");
    std::fs::write(
        &trajectory,
        concat!(
            "{\"date\":\"2026-08-06\",\"bench\":\"engine\",\"fixture\":\"t\",\"budget\":120,\"eps_per_sec\":61.09,\"status\":\"ok\"}\n",
            "{\"schema\":2,\"git\":\"deadbeef1234\",\"date\":\"2026-08-07\",\"bench\":\"engine\",\"fixture\":\"t\",\"budget\":120,\"eps_per_sec\":64.5,\"status\":\"ok\"}\n",
        ),
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_report"))
        .arg(&trajectory)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("| 2026-08-07 | engine | t | 120 | 64.50 | ok | deadbeef1234 | 2 |"));
    assert!(stdout.contains("Last healthy: **64.50 eps/s**"));
    // Missing file is a usage-style failure, not a panic.
    let missing = Command::new(env!("CARGO_BIN_EXE_bench_report"))
        .arg(dir.join("nope.jsonl"))
        .output()
        .unwrap();
    assert_eq!(missing.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_explain_exits_nonzero_on_replay_verification_failure() {
    let dir = scratch_dir("explain");
    let figure = small_figure(11);
    let tracer = Tracer::with_config(1, DEFAULT_TRACK_CAPACITY);
    run_policy_with(
        &figure,
        PolicyKind::abm_balanced(),
        RunOptions {
            tracer: tracer.clone(),
            ..RunOptions::default()
        },
    )
    .unwrap();
    let causal = tracer.export_causal().expect("tracer enabled");
    let clean = dir.join("run.causal.jsonl");
    std::fs::write(&clean, &causal).unwrap();

    let explain = env!("CARGO_BIN_EXE_trace_explain");
    let ok = Command::new(explain)
        .arg("--quiet")
        .arg(&clean)
        .output()
        .unwrap();
    assert!(
        ok.status.success(),
        "faithful log must verify: {}",
        String::from_utf8_lossy(&ok.stderr)
    );

    // Tamper with one recorded total_benefit: the replay must notice
    // and the binary must exit non-zero.
    let needle = "\"total_benefit\":";
    let at = causal
        .find("episode_end")
        .and_then(|end_at| {
            causal[end_at..]
                .find(needle)
                .map(|o| end_at + o + needle.len())
        })
        .expect("an episode_end event with total_benefit");
    let value_len = causal[at..]
        .find([',', '}'])
        .expect("number ends before the object does");
    let mut tampered = causal.clone();
    tampered.replace_range(at..at + value_len, "987654.25");
    let bad = dir.join("tampered.causal.jsonl");
    std::fs::write(&bad, &tampered).unwrap();
    let fail = Command::new(explain)
        .arg("--quiet")
        .arg(&bad)
        .output()
        .unwrap();
    assert_eq!(
        fail.status.code(),
        Some(1),
        "tampered log must fail verification: {}",
        String::from_utf8_lossy(&fail.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watchdog_strict_flag_is_carried_by_telemetry() {
    // End-to-end strict-exit is exercised by the CI smoke job (it must
    // observe the process exit code); here we pin the wiring.
    let cli = accu_experiments::Cli::parse_from(["--watchdog=strict,stall=1"]).unwrap();
    let tel = Telemetry::from_cli(&cli, "strict-wiring");
    assert!(tel.watchdog_armed());
    assert_eq!(tel.observer().alarm_count(), 0);
}
