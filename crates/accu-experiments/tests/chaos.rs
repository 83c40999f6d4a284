//! Property tests for the chaos layer: deadline shedding must be
//! deterministic and worker-count-invariant, worker healing must be
//! invisible in the results, and checkpoint-level fault injection plus
//! a clean resume must reconstruct the fault-free aggregate exactly.

use std::time::Instant;

use accu_core::{ChaosConfig, ChaosPlan, FaultConfig, RetryPolicy, ValidationMode};
use accu_datasets::{DatasetSpec, ProtocolConfig};
use accu_experiments::{
    run_policy_with, Checkpoint, FigureRun, PolicyKind, RunOptions, DEADLINE_MIN_NETWORKS,
};
use proptest::prelude::*;

/// The aggregate of a run with default options.
fn clean_run(figure: &FigureRun, policy: PolicyKind) -> accu_core::TraceAccumulator {
    run_policy_with(figure, policy, RunOptions::default())
        .expect("clean run")
        .accumulator
}

/// A small but non-trivial figure configuration shared by the tests.
fn small_figure(seed: u64, network_samples: usize) -> FigureRun {
    FigureRun {
        dataset: DatasetSpec::facebook().scaled(0.02), // 80 nodes
        protocol: ProtocolConfig {
            cautious_count: 2,
            degree_band: (5, 80),
            ..ProtocolConfig::default()
        },
        budget: 10,
        network_samples,
        runs_per_network: 2,
        seed,
        faults: FaultConfig::none(),
        retry: RetryPolicy::standard(),
        validation: ValidationMode::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// An expired deadline sheds the same deterministic suffix whatever
    /// the worker count, and the surviving aggregate is exactly a fresh
    /// run over the surviving prefix — including across "restarts"
    /// (re-running the degraded configuration reproduces itself).
    #[test]
    fn deadline_shedding_is_worker_count_invariant(
        seed in any::<u64>(),
        samples in 3usize..6,
    ) {
        let figure = small_figure(seed, samples);
        let prefix = FigureRun {
            network_samples: DEADLINE_MIN_NETWORKS,
            ..figure.clone()
        };
        let expected = clean_run(&prefix, PolicyKind::abm_balanced());
        for workers in [1usize, 2, 4] {
            // Two passes per worker count: shedding must also survive a
            // process restart (same inputs, fresh scheduler races).
            for pass in 0..2 {
                let report = run_policy_with(
                    &figure,
                    PolicyKind::abm_balanced(),
                    RunOptions {
                        max_workers: Some(workers),
                        deadline: Some(Instant::now()),
                        ..RunOptions::default()
                    },
                ).unwrap();
                prop_assert!(report.degraded());
                prop_assert_eq!(
                    report.shed_networks,
                    samples - DEADLINE_MIN_NETWORKS,
                    "workers={} pass={}", workers, pass
                );
                prop_assert_eq!(report.completed_networks, DEADLINE_MIN_NETWORKS);
                prop_assert_eq!(
                    &report.accumulator, &expected,
                    "degraded aggregate diverged from the prefix run (workers={}, pass={})",
                    workers, pass
                );
                prop_assert!(report.ci_half_width() > 0.0);
            }
        }
    }

    /// Worker-level chaos is invisible in the results: injected panics
    /// are healed by in-place retries, and injected stalls only delay
    /// their chunk, which then folds out of order. Either way the
    /// aggregate is bit-identical to a fault-free run and nothing is
    /// quarantined.
    #[test]
    fn supervisor_healing_is_invisible_in_results(
        seed in any::<u64>(),
        chaos_seed in any::<u64>(),
        stall in any::<bool>(),
    ) {
        let figure = small_figure(seed, 3);
        let reference = clean_run(&figure, PolicyKind::abm_balanced());
        let config = if stall {
            ChaosConfig {
                worker_stall: 0.8,
                stall_ms: 40,
                seed: chaos_seed,
                ..ChaosConfig::none()
            }
        } else {
            ChaosConfig {
                worker_panic: 1.0,
                seed: chaos_seed,
                ..ChaosConfig::none()
            }
        };
        let report = run_policy_with(
            &figure,
            PolicyKind::abm_balanced(),
            RunOptions {
                chaos: ChaosPlan::sample(&config),
                max_workers: Some(2),
                ..RunOptions::default()
            },
        ).unwrap();
        prop_assert!(report.quarantined.is_empty());
        prop_assert_eq!(&report.accumulator, &reference);
        if !stall {
            // Every chunk's first attempt panics, so at least one retry
            // must have been spent.
            prop_assert!(report.supervisor_restarts > 0);
        }
    }

    /// Checkpoint-level chaos (torn writes, ENOSPC, EINTR) may abort
    /// checkpointing mid-run, but whatever prefix survived on disk, a
    /// chaos-free resume reconstructs the fault-free aggregate exactly.
    #[test]
    fn checkpoint_chaos_then_resume_equals_clean(
        seed in any::<u64>(),
        chaos_seed in any::<u64>(),
        torn in any::<bool>(),
    ) {
        let figure = small_figure(seed, 3);
        let reference = clean_run(&figure, PolicyKind::abm_balanced());
        let path = std::env::temp_dir().join(format!(
            "accu-chaos-prop-{}-{}-{}.jsonl",
            std::process::id(),
            seed,
            chaos_seed
        ));
        {
            let mut ckpt = Checkpoint::open(&path, false).unwrap();
            let config = if torn {
                ChaosConfig { torn_write: 0.6, seed: chaos_seed, ..ChaosConfig::none() }
            } else {
                ChaosConfig {
                    disk_full: 0.6,
                    eintr: 0.3,
                    seed: chaos_seed,
                    ..ChaosConfig::none()
                }
            };
            ckpt.attach_chaos(&ChaosPlan::sample(&config));
            // The faulted pass may legitimately end with a checkpoint
            // error; the run itself still completes in memory.
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
        let mut ckpt = Checkpoint::open(&path, true).unwrap();
        let report = run_policy_with(
            &figure,
            PolicyKind::abm_balanced(),
            RunOptions {
                checkpoint: Some(&mut ckpt),
                max_workers: Some(2),
                ..RunOptions::default()
            },
        ).unwrap();
        prop_assert_eq!(report.completed_networks, figure.network_samples);
        prop_assert_eq!(&report.accumulator, &reference);
        std::fs::remove_file(&path).ok();
    }
}
