//! Tests pinning the scratch-reuse episode engine to the allocating
//! reference path: same seeds, same instances, same faults —
//! bit-identical outcomes, at the single-episode and whole-figure level.

use std::time::Instant;

use accu_core::{
    repair_instance, run_attack_episode, run_attack_with, AttackOptions, ChaosConfig,
    EpisodeScratch, FaultConfig, FaultPlan, Realization, RetryPolicy, TraceAccumulator,
    ValidationMode,
};
use accu_datasets::{apply_protocol, DatasetSpec, ProtocolConfig};
use accu_experiments::{run_lineup_with, run_policy_with, FigureRun, PolicyKind, RunOptions};
use accu_telemetry::Recorder;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_figure(seed: u64, intensity: f64, validation: ValidationMode) -> FigureRun {
    FigureRun {
        dataset: DatasetSpec::facebook().scaled(0.02), // 80 nodes
        protocol: ProtocolConfig {
            cautious_count: 2,
            degree_band: (5, 80),
            ..ProtocolConfig::default()
        },
        budget: 12,
        network_samples: 3,
        runs_per_network: 4,
        seed,
        faults: FaultConfig::scaled(intensity),
        retry: RetryPolicy::standard(),
        validation,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One `EpisodeScratch` + one policy instance reused across many
    /// episodes must reproduce the allocating path (fresh realization,
    /// fresh policy, fresh buffers) request-for-request, including the
    /// fault trace.
    #[test]
    fn scratch_engine_episodes_match_allocating_path(
        seed in 0u64..1_000,
        intensity in 0.0f64..0.6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = DatasetSpec::facebook()
            .scaled(0.02)
            .generate(&mut rng)
            .expect("generation");
        let instance = apply_protocol(
            graph,
            &ProtocolConfig {
                cautious_count: 2,
                degree_band: (5, 80),
                ..ProtocolConfig::default()
            },
            &mut rng,
        )
        .expect("protocol");
        let k = 12;
        let faults = FaultConfig::scaled(intensity);
        let retry = RetryPolicy::standard();
        let recorder = Recorder::disabled();

        for policy_kind in PolicyKind::extended_lineup() {
            let mut scratch = EpisodeScratch::new();
            // Two identical policy instances fed the same episode
            // sequence: stateful policies (Random, Snowball) advance
            // their RNG across episodes, so the reference must reuse
            // its instance exactly like the engine does.
            let mut reused = policy_kind.instantiate(seed ^ 0xA5A5);
            let mut reference_policy = policy_kind.instantiate(seed ^ 0xA5A5);
            let mut fresh_seed_rng = StdRng::seed_from_u64(seed.wrapping_add(1));
            for episode in 0..4 {
                let run_seed: u64 = fresh_seed_rng.gen();
                let plan = FaultPlan::sample(&faults, run_seed, k);

                // Allocating reference: fresh realization and buffers.
                let mut fresh = EpisodeScratch::new();
                fresh.realization =
                    Realization::sample(&instance, &mut StdRng::seed_from_u64(run_seed));
                let opts = AttackOptions {
                    faults: &plan,
                    retry,
                    ..AttackOptions::default()
                };
                let reference = run_attack_with(
                    &instance,
                    reference_policy.as_mut(),
                    k,
                    &opts,
                    &mut fresh,
                )
                .unwrap()
                .clone();

                // Scratch engine: shared buffers, shared policy.
                scratch.prepare(&instance);
                scratch
                    .realization
                    .sample_into(&instance, &mut StdRng::seed_from_u64(run_seed));
                let outcome = run_attack_episode(
                    &instance,
                    reused.as_mut(),
                    k,
                    &plan,
                    &retry,
                    &recorder,
                    &mut scratch,
                );

                prop_assert_eq!(
                    outcome,
                    &reference,
                    "policy {} episode {} diverged",
                    policy_kind.name(),
                    episode
                );
            }
        }
    }

    /// Four workers must aggregate to exactly the one-worker result for
    /// every policy in the extended lineup, under faults and under both
    /// validation modes the figures ship with.
    #[test]
    fn four_workers_match_one_worker(
        seed in 0u64..1_000,
        intensity in 0.0f64..0.5,
        validate_off in any::<bool>(),
    ) {
        let validation = if validate_off {
            ValidationMode::Off
        } else {
            ValidationMode::default()
        };
        let fig = small_figure(seed, intensity, validation);
        for policy_kind in PolicyKind::extended_lineup() {
            let one = run_policy_with(
                &fig,
                policy_kind,
                RunOptions {
                    max_workers: Some(1),
                    ..RunOptions::default()
                },
            )
            .expect("one-worker run");
            let four = run_policy_with(
                &fig,
                policy_kind,
                RunOptions {
                    max_workers: Some(4),
                    ..RunOptions::default()
                },
            )
            .expect("four-worker run");
            prop_assert_eq!(
                &one.accumulator,
                &four.accumulator,
                "policy {} diverged on four workers",
                policy_kind.name()
            );
        }
    }
}

/// The runner's per-network stream constants: network `i` draws its
/// graph, parameters and episode seeds from `seed + i·NET_STREAM` and
/// seeds its policy with `seed + i·POLICY_STREAM`.
const NET_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;
const POLICY_STREAM: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// `figure` computed one episode at a time, without the runner: each
/// network's instance and episode seeds from its seed stream, then per
/// episode a realization sampled into one scratch and an attack, folded
/// in episode order and merged in network order.
fn per_episode_reference(figure: &FigureRun, policy: PolicyKind) -> TraceAccumulator {
    let mut total = TraceAccumulator::new(figure.budget);
    let mut scratch = EpisodeScratch::new();
    for net in 0..figure.network_samples as u64 {
        let mut rng = StdRng::seed_from_u64(figure.seed.wrapping_add(net.wrapping_mul(NET_STREAM)));
        let graph = figure.dataset.generate(&mut rng).expect("generation");
        let instance = apply_protocol(graph, &figure.protocol, &mut rng).expect("protocol");
        let instance = match figure.validation.repair_mode() {
            None => instance,
            Some(mode) => repair_instance(instance, mode).expect("repairable").0,
        };
        let run_seeds: Vec<u64> = (0..figure.runs_per_network).map(|_| rng.gen()).collect();
        let mut policy_impl =
            policy.instantiate(figure.seed.wrapping_add(net.wrapping_mul(POLICY_STREAM)));
        let mut acc = TraceAccumulator::new(figure.budget);
        for seed in run_seeds {
            scratch
                .realization
                .sample_into(&instance, &mut StdRng::seed_from_u64(seed));
            let plan = FaultPlan::sample(&figure.faults, seed, figure.budget);
            acc.add(run_attack_episode(
                &instance,
                policy_impl.as_mut(),
                figure.budget,
                &plan,
                &figure.retry,
                &Recorder::disabled(),
                &mut scratch,
            ));
        }
        total.merge(&acc);
    }
    total
}

/// The runner's aggregate must equal the hand-written
/// one-episode-at-a-time reference exactly, on one worker and on
/// three, for a stateless and an RNG-driven policy under faults, on a
/// quick-mode-sized
/// (4235-node) Slashdot stand-in.
#[test]
fn runner_matches_per_episode_reference() {
    let figure = FigureRun {
        dataset: DatasetSpec::slashdot().scaled(0.055),
        protocol: ProtocolConfig::default(),
        budget: 20,
        network_samples: 2,
        runs_per_network: 10,
        seed: 7,
        faults: FaultConfig::scaled(0.3),
        retry: RetryPolicy::standard(),
        validation: ValidationMode::default(),
    };
    for policy in [PolicyKind::abm_balanced(), PolicyKind::Random] {
        let reference = per_episode_reference(&figure, policy);
        for workers in [1, 3] {
            let report = run_policy_with(
                &figure,
                policy,
                RunOptions {
                    max_workers: Some(workers),
                    ..RunOptions::default()
                },
            )
            .expect("runner");
            assert_eq!(
                report.accumulator,
                reference,
                "{} on {workers} worker(s) diverged from the reference",
                policy.name()
            );
        }
    }
}

/// Each cell of a lineup must report exactly what it reports when run
/// alone, on every [`RunReport`](accu_experiments::RunReport) field:
/// Fig. 2's four policies, `fault_ablation`'s 6 × 4 fault lineup, and
/// 2×2 protocols around an unreachable-threshold cell under Strict
/// (quarantined at `validate`, so the next protocol regenerates the
/// graph) and under Lenient (repaired) — on one and three workers, with
/// a deadline already passed, and under first-attempt panic chaos.
#[test]
fn lineup_cells_match_their_solo_runs() {
    let base = small_figure(5, 0.0, ValidationMode::default());
    let paper = |figure: FigureRun| {
        let lineup = PolicyKind::paper_lineup().into_iter();
        lineup.map(move |policy| (figure.clone(), policy))
    };
    let faults = [0.0, 0.1, 0.2, 0.4, 0.7, 1.0]
        .into_iter()
        .flat_map(|intensity| {
            paper(FigureRun {
                faults: FaultConfig::scaled(intensity),
                ..base.clone()
            })
        });
    let protocols = |validation| {
        let cell = |bf, tf| {
            let protocol = ProtocolConfig {
                cautious_friend_benefit: bf,
                threshold_fraction: tf,
                ..base.protocol.clone()
            };
            let figure = FigureRun {
                protocol,
                validation,
                ..base.clone()
            };
            (figure, PolicyKind::abm_balanced())
        };
        let grid = [
            (20.0, 0.1),
            (20.0, 0.5),
            (20.0, 5.0),
            (60.0, 0.1),
            (60.0, 0.5),
        ];
        grid.map(|(bf, tf)| cell(bf, tf)).to_vec()
    };
    let lineups: [Vec<(FigureRun, PolicyKind)>; 4] = [
        paper(base.clone()).collect(),
        faults.collect(),
        protocols(ValidationMode::Strict),
        protocols(ValidationMode::Lenient),
    ];
    let panics = ChaosConfig {
        worker_panic: 1.0,
        ..ChaosConfig::none()
    };
    let passed = Some(Instant::now());
    let none = ChaosConfig::none();
    for cells in &lineups {
        for (workers, deadline, chaos) in [
            (1, None, none),
            (3, None, none),
            (3, passed, none),
            (3, None, panics),
        ] {
            let opts = || RunOptions {
                max_workers: Some(workers),
                deadline,
                chaos,
                ..RunOptions::default()
            };
            let reports = run_lineup_with(cells, opts()).expect("lineup");
            for ((figure, policy), report) in cells.iter().zip(&reports) {
                let alone = run_policy_with(figure, *policy, opts()).expect("one cell");
                assert_eq!(
                    report,
                    &alone,
                    "{} on {workers} worker(s), deadline {deadline:?}, chaos {chaos:?}",
                    figure.cell_label(*policy)
                );
            }
        }
    }
    // The unreachable-threshold cell is what the comment above says.
    let strict = run_lineup_with(&lineups[2], RunOptions::default()).unwrap();
    assert_eq!(strict[2].quarantined.len(), base.network_samples);
    assert!(strict[2].quarantined.iter().all(|f| f.stage == "validate"));
    let lenient = run_lineup_with(&lineups[3], RunOptions::default()).unwrap();
    assert_eq!(lenient[2].repaired_networks, base.network_samples);
}
