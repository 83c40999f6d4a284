//! Property tests for the robustness layer: fault-plan determinism,
//! zero-fault transparency, and checkpoint/resume exactness.

use accu_core::{
    run_attack, run_attack_with, AttackOptions, EpisodeScratch, FaultConfig, FaultPlan,
    RetryPolicy, ValidationMode,
};
use accu_datasets::{apply_protocol, DatasetSpec, ProtocolConfig};
use accu_experiments::{run_policy_with, Checkpoint, FigureRun, PolicyKind, RunOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
        network_samples: 3,
        runs_per_network: 2,
        seed,
        faults: FaultConfig::none(),
        retry: RetryPolicy::standard(),
        validation: ValidationMode::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same (config, seed, budget) triple yields bit-identical fault
    /// plans no matter which thread samples it — the invariant that
    /// makes cross-policy comparisons paired and reruns reproducible.
    #[test]
    fn fault_plans_are_deterministic_across_threads(
        seed in any::<u64>(),
        intensity in 0.0f64..=1.0,
        budget in 1usize..64,
    ) {
        let config = FaultConfig::scaled(intensity);
        let reference = FaultPlan::sample(&config, seed, budget);
        let sampled: Vec<FaultPlan> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let config = &config;
                    scope.spawn(move || FaultPlan::sample(config, seed, budget))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for plan in sampled {
            prop_assert_eq!(&plan, &reference);
        }
        // And resampling in-thread is stable too.
        prop_assert_eq!(FaultPlan::sample(&config, seed, budget), reference);
    }

    /// A trivial fault plan is invisible: for every policy in the
    /// extended lineup, the faulted simulator entry point reproduces the
    /// plain one's outcome bit-for-bit, whatever the retry policy.
    #[test]
    fn zero_faults_reproduce_plain_outcomes_for_every_policy(
        seed in any::<u64>(),
        budget in 1usize..24,
        max_retries in 0u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = DatasetSpec::facebook()
            .scaled(0.02)
            .generate(&mut rng)
            .unwrap();
        let protocol = ProtocolConfig {
            cautious_count: 2,
            degree_band: (5, 80),
            ..ProtocolConfig::default()
        };
        let instance = apply_protocol(graph, &protocol, &mut rng).unwrap();
        let realization = accu_core::Realization::sample(&instance, &mut rng);
        let mut scratch = EpisodeScratch::new();
        scratch.realization = realization.clone();
        let none = FaultPlan::none();
        let opts = AttackOptions {
            faults: &none,
            retry: RetryPolicy {
                max_retries,
                backoff_base: 1,
                backoff_cap: 8,
            },
            ..AttackOptions::default()
        };
        for kind in PolicyKind::extended_lineup() {
            let policy_seed = rng.gen();
            let plain = run_attack(
                &instance,
                &realization,
                kind.instantiate(policy_seed).as_mut(),
                budget,
            );
            let faulted = run_attack_with(
                &instance,
                kind.instantiate(policy_seed).as_mut(),
                budget,
                &opts,
                &mut scratch,
            )
            .unwrap();
            prop_assert_eq!(faulted, &plain, "{} diverged under a trivial plan", kind.name());
            prop_assert!(faulted.faults.is_clean());
        }
    }

    /// Resuming from a checkpoint that covers any number of completed
    /// networks produces exactly the uninterrupted aggregate.
    ///
    /// The interrupted file is built the way a real crash builds it: a
    /// full checkpointed run is truncated to its first `completed`
    /// entries (plus half of the next line, the signature a SIGKILL
    /// mid-append leaves behind).
    #[test]
    fn checkpoint_resume_equals_uninterrupted(
        seed in any::<u64>(),
        completed in 0usize..3,
    ) {
        let fig = small_figure(seed);
        let policy = PolicyKind::abm_balanced();
        let reference = run_policy_with(&fig, policy, RunOptions::default())
            .unwrap()
            .accumulator;

        let path = std::env::temp_dir().join(format!(
            "accu-robustness-{}-{}-{}.jsonl",
            std::process::id(),
            seed,
            completed
        ));
        {
            let mut ckpt = Checkpoint::create(&path).unwrap();
            let report = run_policy_with(
                &fig,
                policy,
                RunOptions {
                    checkpoint: Some(&mut ckpt),
                    ..RunOptions::default()
                },
            )
            .unwrap();
            assert_eq!(&report.accumulator, &reference);
        }
        // Keep the header, `completed` full entries, and a torn partial
        // of the next entry.
        let contents = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = contents.lines().collect();
        assert_eq!(lines.len(), 1 + fig.network_samples);
        let mut interrupted: Vec<String> =
            lines[..1 + completed].iter().map(|l| l.to_string()).collect();
        let torn = lines[1 + completed];
        interrupted.push(torn[..torn.len() / 2].to_string());
        std::fs::write(&path, interrupted.join("\n")).unwrap();

        let mut ckpt = Checkpoint::resume(&path).unwrap();
        prop_assert_eq!(ckpt.loaded_entries(), completed);
        prop_assert_eq!(ckpt.skipped_lines(), 1);
        let report = run_policy_with(
            &fig,
            policy,
            RunOptions {
                checkpoint: Some(&mut ckpt),
                ..RunOptions::default()
            },
        )
        .unwrap();
        prop_assert_eq!(report.resumed_networks, completed);
        prop_assert_eq!(report.completed_networks, fig.network_samples);
        prop_assert_eq!(&report.accumulator, &reference);
        std::fs::remove_file(&path).ok();
    }
}
