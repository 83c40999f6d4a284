//! End-to-end integration tests spanning all crates: dataset generation
//! → protocol application → policy execution → metric aggregation.

use accu::datasets::{apply_protocol, DatasetSpec, ProtocolConfig};
use accu::policy::{pure_greedy, Abm, AbmWeights, MaxDegree, PageRankPolicy, Random};
use accu::{expected_benefit, run_attack, AccuInstance, Policy, Realization, TraceAccumulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_instance(seed: u64) -> AccuInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = DatasetSpec::facebook()
        .scaled(0.1)
        .generate(&mut rng)
        .unwrap();
    apply_protocol(
        graph,
        &ProtocolConfig {
            cautious_count: 10,
            ..ProtocolConfig::default()
        },
        &mut rng,
    )
    .unwrap()
}

#[test]
fn full_pipeline_produces_valid_traces() {
    let instance = small_instance(1);
    let mut rng = StdRng::seed_from_u64(2);
    let realization = Realization::sample(&instance, &mut rng);
    let mut abm = Abm::new(AbmWeights::balanced());
    let k = 50;
    let outcome = run_attack(&instance, &realization, &mut abm, k);
    assert_eq!(outcome.requests_sent(), k);
    // No target repeats.
    let mut targets: Vec<_> = outcome.trace.iter().map(|r| r.target).collect();
    targets.sort_unstable();
    targets.dedup();
    assert_eq!(targets.len(), k, "a target was requested twice");
    // Cumulative benefit is non-decreasing and ends at the total.
    for w in outcome.trace.windows(2) {
        assert!(w[1].cumulative_benefit >= w[0].cumulative_benefit - 1e-9);
    }
    assert!(
        (outcome.trace.last().unwrap().cumulative_benefit - outcome.total_benefit).abs() < 1e-9
    );
    // Friends are exactly the accepted targets.
    let accepted = outcome.trace.iter().filter(|r| r.accepted).count();
    assert_eq!(accepted, outcome.friends.len());
}

#[test]
fn policies_rank_as_in_the_paper() {
    let instance = small_instance(3);
    let k = 80;
    let samples = 6;
    let mut means = Vec::new();
    let mut policies: Vec<Box<dyn Policy>> = vec![
        Box::new(Abm::new(AbmWeights::balanced())),
        Box::new(PageRankPolicy::new()),
        Box::new(MaxDegree::new()),
        Box::new(Random::new(1)),
    ];
    for p in policies.iter_mut() {
        let mut rng = StdRng::seed_from_u64(10); // identical worlds for all
        let stats = expected_benefit(&instance, p.as_mut(), k, samples, &mut rng);
        means.push((p.name().to_string(), stats.mean));
    }
    let abm = means[0].1;
    let random = means[3].1;
    assert!(abm > random, "ABM {abm} must beat Random {random}");
    // ABM must be at the top of the lineup.
    assert!(
        means.iter().all(|(_, m)| *m <= abm + 1e-9),
        "ABM must lead: {means:?}"
    );
}

#[test]
fn balanced_abm_beats_pure_greedy_on_cautious_heavy_network() {
    // High-value cautious users make the indirect term matter.
    let mut rng = StdRng::seed_from_u64(8);
    let graph = DatasetSpec::facebook()
        .scaled(0.1)
        .generate(&mut rng)
        .unwrap();
    let instance = apply_protocol(
        graph,
        &ProtocolConfig {
            cautious_count: 30,
            cautious_friend_benefit: 200.0,
            threshold_fraction: 0.2,
            ..ProtocolConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let k = 120;
    let samples = 6;
    let mut abm = Abm::new(AbmWeights::balanced());
    let mut greedy = pure_greedy();
    let mut rng_a = StdRng::seed_from_u64(77);
    let mut rng_g = StdRng::seed_from_u64(77);
    let abm_mean = expected_benefit(&instance, &mut abm, k, samples, &mut rng_a).mean;
    let greedy_mean = expected_benefit(&instance, &mut greedy, k, samples, &mut rng_g).mean;
    assert!(
        abm_mean > greedy_mean,
        "balanced ABM ({abm_mean}) should beat pure greedy ({greedy_mean}) here"
    );
}

#[test]
fn accumulator_statistics_are_coherent() {
    let instance = small_instance(4);
    let mut rng = StdRng::seed_from_u64(5);
    let k = 40;
    let mut acc = TraceAccumulator::new(k);
    let mut abm = Abm::new(AbmWeights::balanced());
    for _ in 0..5 {
        let realization = Realization::sample(&instance, &mut rng);
        acc.add(&run_attack(&instance, &realization, &mut abm, k));
    }
    assert_eq!(acc.runs(), 5);
    let curve = acc.mean_cumulative_benefit();
    assert_eq!(curve.len(), k);
    // The curve's final point equals the mean total benefit.
    assert!((curve[k - 1] - acc.mean_total_benefit()).abs() < 1e-9);
    // Marginal series sum (cautious + reckless) telescopes to the total.
    let marginal_sum: f64 = acc
        .mean_marginal_from_cautious()
        .iter()
        .zip(acc.mean_marginal_from_reckless())
        .map(|(c, r)| c + r)
        .sum();
    assert!((marginal_sum - acc.mean_total_benefit()).abs() < 1e-6);
    // Fractions are probabilities.
    assert!(acc
        .cautious_request_fraction()
        .iter()
        .all(|f| (0.0..=1.0).contains(f)));
}

#[test]
fn cautious_users_never_accept_below_threshold() {
    let instance = small_instance(6);
    let mut rng = StdRng::seed_from_u64(7);
    let realization = Realization::sample(&instance, &mut rng);
    let mut md = MaxDegree::new();
    let outcome = run_attack(&instance, &realization, &mut md, 200);
    // Replay the trace: every accepted cautious user must have had at
    // least θ mutual friends among the *previously accepted* users.
    let mut friends: Vec<accu::NodeId> = Vec::new();
    for r in &outcome.trace {
        if r.cautious {
            let theta = instance.threshold(r.target).unwrap();
            let mutual = friends
                .iter()
                .filter(|&&f| {
                    instance
                        .graph()
                        .edge_id(f, r.target)
                        .is_some_and(|e| realization.edge_exists(&instance, e))
                })
                .count() as u32;
            assert_eq!(
                r.accepted,
                mutual >= theta,
                "cautious acceptance must match the threshold rule"
            );
        }
        if r.accepted {
            friends.push(r.target);
        }
    }
}

#[test]
fn deterministic_replays_are_identical() {
    let instance = small_instance(9);
    let mut rng1 = StdRng::seed_from_u64(11);
    let mut rng2 = StdRng::seed_from_u64(11);
    let r1 = Realization::sample(&instance, &mut rng1);
    let r2 = Realization::sample(&instance, &mut rng2);
    let mut abm1 = Abm::new(AbmWeights::balanced());
    let mut abm2 = Abm::new(AbmWeights::balanced());
    let o1 = run_attack(&instance, &r1, &mut abm1, 60);
    let o2 = run_attack(&instance, &r2, &mut abm2, 60);
    assert_eq!(o1, o2);
}
