//! End-to-end trace round-trip properties:
//!
//! 1. **Non-perturbation** — running a figure with tracing on (any
//!    sampling period) yields a `TraceAccumulator` bit-identical to the
//!    untraced run; the tracer observes, never steers.
//! 2. **Structural validity** — the Chrome export of a real run passes
//!    [`validate_chrome_trace`] (what Perfetto requires to load it).
//! 3. **Bit-exact replay** — every sampled episode parsed back from the
//!    causal log reconstructs its `total_benefit` to the exact `f64`
//!    bits, including under fault injection.

use accu_core::{FaultConfig, RetryPolicy, ValidationMode};
use accu_datasets::{DatasetSpec, ProtocolConfig};
use accu_experiments::replay::{verify_episode, CausalLog, EpisodeEvent};
use accu_experiments::{run_policy_with, FigureRun, PolicyKind, RunOptions};
use accu_telemetry::{check_events, validate_chrome_trace, Tracer, DEFAULT_TRACK_CAPACITY};
use proptest::prelude::*;

/// Validates a causal log and walks it into episodes.
fn parse_causal_log(text: &str) -> Result<CausalLog, String> {
    CausalLog::from_events(&check_events(text)?.events)
}

fn small_figure(seed: u64, intensity: f64) -> FigureRun {
    FigureRun {
        dataset: DatasetSpec::facebook().scaled(0.02), // 80 nodes
        protocol: ProtocolConfig {
            cautious_count: 2,
            degree_band: (5, 80),
            ..ProtocolConfig::default()
        },
        budget: 10,
        network_samples: 2,
        runs_per_network: 3,
        seed,
        faults: FaultConfig::scaled(intensity),
        retry: RetryPolicy::standard(),
        validation: ValidationMode::Lenient,
    }
}

/// Runs `figure` untraced and traced-with-`sample`, returning both
/// accumulators plus the tracer for export checks.
fn paired_run(
    figure: &FigureRun,
    policy: PolicyKind,
    sample: u64,
) -> (
    accu_core::TraceAccumulator,
    accu_core::TraceAccumulator,
    Tracer,
) {
    let untraced = run_policy_with(figure, policy, RunOptions::default())
        .expect("untraced run")
        .accumulator;
    let tracer = Tracer::with_config(sample, DEFAULT_TRACK_CAPACITY);
    let opts = RunOptions {
        tracer: tracer.clone(),
        ..RunOptions::default()
    };
    let traced = run_policy_with(figure, policy, opts)
        .expect("traced run")
        .accumulator;
    (untraced, traced, tracer)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tracing on/off/sampled never changes a single bit of the
    /// aggregate — the figure-level guarantee behind the CI check that
    /// fig2 CSVs are byte-identical with and without `--trace`.
    #[test]
    fn traced_runs_are_bit_identical_to_untraced(
        seed in 0u64..500,
        sample in 1u64..5,
        intensity in 0.0f64..0.5,
    ) {
        let figure = small_figure(seed, intensity);
        let (untraced, traced, _tracer) =
            paired_run(&figure, PolicyKind::abm_balanced(), sample);
        prop_assert_eq!(&untraced, &traced);
        // Series equality must hold bitwise, not just to an epsilon.
        let a = untraced.mean_cumulative_benefit();
        let b = traced.mean_cumulative_benefit();
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// A real run's Chrome export is structurally valid and its causal
    /// log replays every sampled episode bit-exactly — with faults
    /// injected, retries and truncated episodes included.
    #[test]
    fn real_runs_export_valid_traces_that_replay_exactly(
        seed in 0u64..500,
        sample in 1u64..4,
        intensity in 0.0f64..0.6,
    ) {
        let figure = small_figure(seed, intensity);
        let (_, _, tracer) = paired_run(&figure, PolicyKind::abm_balanced(), sample);
        let chrome = tracer.export_chrome().expect("tracer enabled");
        validate_chrome_trace(&chrome)
            .unwrap_or_else(|e| panic!("invalid chrome export: {e}"));
        let causal = tracer.export_causal().expect("tracer enabled");
        let log = parse_causal_log(&causal).expect("parsable causal log");
        prop_assert_eq!(log.dropped_events, 0, "ring must not wrap in this test");
        prop_assert_eq!(log.incomplete_episodes, 0);
        // Every global episode index hit by the sampling period shows
        // up exactly once, regardless of worker scheduling.
        let total = (figure.network_samples * figure.runs_per_network) as u64;
        let expected = (0..total).filter(|i| i % sample == 0).count();
        prop_assert_eq!(log.episodes.len(), expected);
        let mut seen: Vec<u64> = log.episodes.iter().map(|e| e.global_ep).collect();
        seen.sort_unstable();
        prop_assert_eq!(
            seen,
            (0..total).filter(|i| i % sample == 0).collect::<Vec<_>>()
        );
        for episode in &log.episodes {
            verify_episode(episode).unwrap_or_else(|e| panic!("replay mismatch: {e}"));
            prop_assert_eq!(episode.policy.as_str(), "ABM");
            prop_assert_eq!(episode.budget as usize, figure.budget);
            // ABM episodes carry the decision introspection layer: one
            // decide event per request.
            let decides = episode
                .events
                .iter()
                .filter(|e| matches!(e, EpisodeEvent::Decide(_)))
                .count();
            let requests = episode
                .events
                .iter()
                .filter(|e| matches!(e, EpisodeEvent::Request(_)))
                .count();
            prop_assert_eq!(decides, requests);
        }
    }
}

/// Non-ABM policies trace the simulator layer only; the replay check
/// still holds (no decide events, but requests and totals round-trip).
#[test]
fn baseline_policy_episodes_replay_without_decide_events() {
    let figure = small_figure(11, 0.3);
    let (untraced, traced, tracer) = paired_run(&figure, PolicyKind::Random, 1);
    assert_eq!(untraced, traced);
    let causal = tracer.export_causal().expect("tracer enabled");
    let log = parse_causal_log(&causal).expect("parsable");
    assert_eq!(
        log.episodes.len(),
        figure.network_samples * figure.runs_per_network
    );
    for episode in &log.episodes {
        verify_episode(episode).unwrap_or_else(|e| panic!("replay mismatch: {e}"));
        assert!(episode
            .events
            .iter()
            .all(|e| !matches!(e, EpisodeEvent::Decide(_))));
    }
}

/// The runner's stage spans show up as named tracks in the Chrome
/// export: one thread-name metadata row per worker, with the load,
/// validate and episodes spans of each network it ran (outcomes fold
/// inside the episodes span, as each episode finishes).
#[test]
fn chrome_export_carries_worker_tracks_and_stage_spans() {
    let figure = small_figure(3, 0.0);
    let (_, _, tracer) = paired_run(&figure, PolicyKind::abm_balanced(), 1);
    let chrome = tracer.export_chrome().expect("tracer enabled");
    let stats = validate_chrome_trace(&chrome).expect("valid");
    assert!(stats.tracks >= 1);
    assert_eq!(stats.metadata as usize, stats.tracks);
    assert!(stats.spans > 0, "load/validate/episodes spans expected");
    assert!(stats.instants > 0, "episode markers expected");
    for name in ["\"load\"", "\"validate\"", "\"episodes\""] {
        assert!(chrome.contains(name), "missing {name} span in export");
    }
    assert!(!chrome.contains("\"chunk\""), "networks run whole");
    assert!(!chrome.contains("\"fold\""), "no separate fold stage");
}
