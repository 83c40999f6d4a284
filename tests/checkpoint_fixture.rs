//! A checkpoint written by an earlier build still resumes.
//!
//! `fixtures/lineup_checkpoint.jsonl` was written by the runner at
//! commit 2a64802, whose checkpoint reader was a hand-written prefix
//! parser: the lineup below, run once with `--checkpoint`. Resuming a
//! copy of it must skip every network of every cell, and each cell's
//! report must equal a clean run's.

use accu::core::{FaultConfig, RetryPolicy, ValidationMode};
use accu::datasets::{DatasetSpec, ProtocolConfig};
use accu_experiments::{run_lineup_with, Checkpoint, FigureRun, PolicyKind, RunOptions};

/// The fixture's lineup: the paper's four policies on three 80-node
/// Facebook stand-ins, two runs each at `k = 10`.
fn lineup() -> Vec<(FigureRun, PolicyKind)> {
    let figure = FigureRun {
        dataset: DatasetSpec::facebook().scaled(0.02),
        protocol: ProtocolConfig {
            cautious_count: 2,
            degree_band: (5, 80),
            ..ProtocolConfig::default()
        },
        budget: 10,
        network_samples: 3,
        runs_per_network: 2,
        seed: 7,
        faults: FaultConfig::none(),
        retry: RetryPolicy::standard(),
        validation: ValidationMode::default(),
    };
    PolicyKind::paper_lineup()
        .into_iter()
        .map(|policy| (figure.clone(), policy))
        .collect()
}

#[test]
fn an_earlier_builds_checkpoint_resumes_every_network() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/lineup_checkpoint.jsonl"
    );
    let path = std::env::temp_dir().join(format!(
        "accu-fixture-checkpoint-{}.jsonl",
        std::process::id()
    ));
    std::fs::copy(fixture, &path).expect("copy the fixture");
    let cells = lineup();
    let mut ckpt = Checkpoint::resume(&path).expect("open the copy");
    assert_eq!(ckpt.skipped_lines(), 0);
    assert_eq!(ckpt.loaded_entries(), 3 * cells.len());
    let options = |checkpoint| RunOptions {
        checkpoint,
        max_workers: Some(1),
        ..RunOptions::default()
    };
    let resumed = run_lineup_with(&cells, options(Some(&mut ckpt))).expect("resumed run");
    let clean = run_lineup_with(&cells, options(None)).expect("clean run");
    std::fs::remove_file(&path).ok();
    for ((mut resumed, clean), (_, policy)) in resumed.into_iter().zip(clean).zip(&cells) {
        assert_eq!(
            resumed.resumed_networks, 3,
            "{policy:?} resumed every network"
        );
        resumed.resumed_networks = 0;
        assert_eq!(resumed, clean, "{policy:?} matches a clean run");
    }
}
