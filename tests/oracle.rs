//! The Monte-Carlo episode engine checked against the paper's exact
//! expectation (Eq. 2): on random tiny instances, the mean total benefit
//! of sampled episodes (`Realization::sample_into` + `run_attack_with`)
//! must lie within 4 standard errors of `Σ_φ P(φ)·f(π, φ)`, summed over
//! every realization `φ` from `enumerate_realizations`.
//!
//! The instances mix every user class (reckless, cautious, hesitant,
//! mutual-linear) and draw edge probabilities from {0, 0.3, 0.5, 1}; the
//! policies are deterministic (ABM balanced, pure greedy, MaxDegree), so
//! `f(π, φ)` is one episode per realization. A second check runs the
//! policies under an `AttackOptions::believed` instance whose edge
//! probabilities differ from the truth's: the exact side still weighs
//! the truth's realizations, so the sampled episodes match only if
//! realized edges follow the truth's `p`.

use accu::policy::{pure_greedy, Abm, AbmWeights, MaxDegree, Policy};
use accu::theory::enumerate_realizations;
use accu::{
    run_attack_with, AccuInstance, AccuInstanceBuilder, AttackOptions, EpisodeScratch,
    GraphBuilder, NodeId, UserClass,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sampled episodes per (instance, policy) estimate.
const EPISODES: usize = 20_000;
/// Random tiny instances checked.
const INSTANCES: u64 = 6;
/// Edge probabilities the instances draw from.
const EDGE_PROBS: [f64; 4] = [0.0, 0.3, 0.5, 1.0];

/// A random instance on at most 7 nodes with every user class, edge
/// probabilities from [`EDGE_PROBS`], and at most 12 uncertain binary
/// variables (so enumeration stays small).
fn random_instance(rng: &mut StdRng) -> AccuInstance {
    loop {
        let n = rng.gen_range(4..=7usize);
        let mut b = GraphBuilder::new(n);
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                if rng.gen_bool(0.45) {
                    b.add_edge(NodeId::new(i), NodeId::new(j)).unwrap();
                }
            }
        }
        let g = b.build();
        let m = g.edge_count();
        let probs = (0..m)
            .map(|_| EDGE_PROBS[rng.gen_range(0..EDGE_PROBS.len())])
            .collect();
        let mut builder = AccuInstanceBuilder::new(g).edge_probabilities(probs);
        for i in 0..n {
            let class = match rng.gen_range(0..4u32) {
                0 => UserClass::reckless([0.3, 0.6, 1.0][rng.gen_range(0..3usize)]),
                1 => UserClass::cautious(rng.gen_range(1..=2)),
                2 => UserClass::hesitant(0.2, 0.7, 1),
                _ => UserClass::mutual_linear(0.2, 0.3),
            };
            let bf = rng.gen_range(1.5..6.0);
            builder = builder.user_class(NodeId::from(i), class).benefits(
                NodeId::from(i),
                bf,
                rng.gen_range(0.2..1.5),
            );
        }
        let inst = builder.build().unwrap();
        if inst.random_bits() <= 12 && m > 0 {
            return inst;
        }
    }
}

/// The same graph, classes and benefits believed with the
/// complementary edge probabilities `1 − p`.
fn believed_flip(truth: &AccuInstance) -> AccuInstance {
    let g = truth.graph();
    let mut b = AccuInstanceBuilder::new(g.clone()).edge_probabilities(
        (0..g.edge_count())
            .map(|i| 1.0 - truth.edge_probability(i.into()))
            .collect(),
    );
    for u in g.nodes() {
        b = b.user_class(u, truth.user_class(u)).benefits(
            u,
            truth.benefits().friend(u),
            truth.benefits().friend_of_friend(u),
        );
    }
    b.build().unwrap()
}

/// The policies under test, fresh.
fn policies() -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(Abm::new(AbmWeights::balanced())),
        Box::new(pure_greedy()),
        Box::new(MaxDegree::new()),
    ]
}

/// `Σ_φ P(φ)·f(π, φ)` over the truth's realizations.
fn exact_value(
    truth: &AccuInstance,
    policy: &mut dyn Policy,
    k: usize,
    opts: &AttackOptions<'_>,
) -> f64 {
    let mut scratch = EpisodeScratch::new();
    enumerate_realizations(truth)
        .unwrap()
        .into_iter()
        .map(|(real, prob)| {
            scratch.realization = real;
            prob * run_attack_with(truth, policy, k, opts, &mut scratch)
                .unwrap()
                .total_benefit
        })
        .sum()
}

/// Mean total benefit and its standard error over [`EPISODES`] sampled
/// episodes.
fn sampled_value(
    truth: &AccuInstance,
    policy: &mut dyn Policy,
    k: usize,
    opts: &AttackOptions<'_>,
    seed: u64,
) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = EpisodeScratch::new();
    let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
    for _ in 0..EPISODES {
        scratch.prepare(truth);
        scratch.realization.sample_into(truth, &mut rng);
        let f = run_attack_with(truth, policy, k, opts, &mut scratch)
            .unwrap()
            .total_benefit;
        sum += f;
        sum_sq += f * f;
    }
    let n = EPISODES as f64;
    let mean = sum / n;
    let var = (sum_sq / n - mean * mean).max(0.0) * n / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// Asserts the sampled mean lies within 4 SE of the exact value (or
/// equals it, up to rounding, when every realization gives the same
/// benefit).
fn assert_agrees(what: &str, exact: f64, (mean, se): (f64, f64)) {
    let tolerance = (4.0 * se).max(1e-9 * exact.abs().max(1.0));
    assert!(
        (mean - exact).abs() <= tolerance,
        "{what}: sampled {mean:.4} (SE {se:.4}) vs exact {exact:.4}"
    );
}

#[test]
fn sampled_episodes_match_the_exact_expectation() {
    let mut rng = StdRng::seed_from_u64(2019);
    for case in 0..INSTANCES {
        let inst = random_instance(&mut rng);
        let k = rng.gen_range(2..=inst.node_count());
        let opts = AttackOptions::default();
        for mut policy in policies() {
            let exact = exact_value(&inst, policy.as_mut(), k, &opts);
            let sampled = sampled_value(&inst, policy.as_mut(), k, &opts, 100 + case);
            assert_agrees(
                &format!(
                    "case {case} ({} nodes, k = {k}), {}",
                    inst.node_count(),
                    policy.name()
                ),
                exact,
                sampled,
            );
        }
    }
}

#[test]
fn realized_edges_follow_the_truth_under_wrong_beliefs() {
    let mut rng = StdRng::seed_from_u64(1969);
    for case in 0..INSTANCES {
        let truth = random_instance(&mut rng);
        let believed = believed_flip(&truth);
        let k = rng.gen_range(2..=truth.node_count());
        let opts = AttackOptions {
            believed: Some(&believed),
            ..AttackOptions::default()
        };
        for mut policy in policies() {
            let exact = exact_value(&truth, policy.as_mut(), k, &opts);
            let sampled = sampled_value(&truth, policy.as_mut(), k, &opts, 200 + case);
            assert_agrees(
                &format!("believed case {case} (k = {k}), {}", policy.name()),
                exact,
                sampled,
            );
        }
    }
}
