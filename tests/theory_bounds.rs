//! Randomized validation of the paper's theory on small instances:
//! Theorem 1, Observation 1, Corollary 1 and the Lemma 5 bound, checked
//! against exhaustive ground truth across many random instances.

use accu::policy::pure_greedy;
use accu::theory::{
    adaptive_submodular_ratio, enumerate_realizations, greedy_ratio, lemma5_bound,
    optimal_adaptive_benefit,
};
use accu::{run_attack, AccuInstance, AccuInstanceBuilder, GraphBuilder, NodeId, UserClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exact expected value of the (deterministic) greedy policy.
fn exact_greedy_value(inst: &AccuInstance, k: usize) -> f64 {
    enumerate_realizations(inst)
        .unwrap()
        .iter()
        .map(|(real, prob)| {
            let mut g = pure_greedy();
            prob * run_attack(inst, real, &mut g, k).total_benefit
        })
        .sum()
}

/// Random small instance: 5 nodes, a few probabilistic edges, one
/// cautious user with θ = 1 and a strict benefit gap everywhere.
fn random_instance(rng: &mut StdRng) -> AccuInstance {
    loop {
        let n = 5;
        let mut b = GraphBuilder::new(n);
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                if rng.gen_bool(0.4) {
                    b.add_edge(NodeId::new(i), NodeId::new(j)).unwrap();
                }
            }
        }
        let g = b.build();
        // Pick a cautious user with at least one neighbor.
        let Some(cautious) = g.nodes().find(|&v| g.degree(v) >= 1) else {
            continue;
        };
        let m = g.edge_count();
        let mut builder = AccuInstanceBuilder::new(g);
        // A couple of uncertain variables, the rest certain, to keep
        // enumeration tiny but non-trivial.
        let probs: Vec<f64> = (0..m)
            .map(|_| if rng.gen_bool(0.5) { 1.0 } else { 0.5 })
            .collect();
        builder = builder.edge_probabilities(probs);
        for i in 0..n {
            let v = NodeId::from(i);
            if v == cautious {
                builder = builder.user_class(v, UserClass::cautious(1)).benefits(
                    v,
                    rng.gen_range(5.0..20.0),
                    1.0,
                );
            } else {
                let q = if rng.gen_bool(0.5) { 1.0 } else { 0.6 };
                builder = builder
                    .user_class(v, UserClass::reckless(q))
                    .benefits(v, 2.0, 1.0);
            }
        }
        return builder.build().unwrap();
    }
}

#[test]
fn theorem1_holds_on_random_instances() {
    let mut rng = StdRng::seed_from_u64(2019);
    for trial in 0..15 {
        let inst = random_instance(&mut rng);
        assert!(inst.benefits().has_strict_gap());
        let lambda = adaptive_submodular_ratio(&inst).unwrap();
        assert!(
            lambda > 0.0,
            "Corollary 1: λ must be positive (trial {trial})"
        );
        for k in 1..=3usize {
            let opt = optimal_adaptive_benefit(&inst, k).unwrap();
            let greedy = exact_greedy_value(&inst, k);
            let bound = greedy_ratio(lambda) * opt;
            assert!(
                greedy + 1e-9 >= bound,
                "trial {trial}, k={k}: greedy {greedy} < bound {bound} (λ={lambda}, opt={opt})"
            );
            assert!(
                opt + 1e-9 >= greedy,
                "trial {trial}, k={k}: optimal {opt} < greedy {greedy}"
            );
        }
    }
}

#[test]
fn observation1_lambda_is_one_without_cautious_users() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..10 {
        let n = 5;
        let mut b = GraphBuilder::new(n);
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                if rng.gen_bool(0.4) {
                    b.add_edge(NodeId::new(i), NodeId::new(j)).unwrap();
                }
            }
        }
        let g = b.build();
        let m = g.edge_count();
        let inst = AccuInstanceBuilder::new(g)
            .edge_probabilities(
                (0..m)
                    .map(|_| if rng.gen_bool(0.5) { 1.0 } else { 0.5 })
                    .collect(),
            )
            .build()
            .unwrap();
        let lambda = adaptive_submodular_ratio(&inst).unwrap();
        assert!(
            (lambda - 1.0).abs() < 1e-9,
            "Observation 1: λ = 1 without cautious users, got {lambda}"
        );
    }
}

#[test]
fn lemma5_upper_bounds_lambda_with_zero_fof() {
    // Shared-friend configurations with B_fof ≡ 0 (where the bound is
    // exact per the paper's derivation).
    let mut rng = StdRng::seed_from_u64(13);
    for _ in 0..10 {
        let r = rng.gen_range(1..=3usize); // number of cautious users
        let n = r + 1;
        let mut b = GraphBuilder::new(n);
        for i in 1..=r {
            b.add_edge(NodeId::new(0), NodeId::from(i)).unwrap();
        }
        let mut builder = AccuInstanceBuilder::new(b.build());
        builder = builder.benefits(NodeId::new(0), rng.gen_range(1.0..4.0), 0.0);
        let mut cautious = Vec::new();
        for i in 1..=r {
            let v = NodeId::from(i);
            cautious.push(v);
            builder = builder.user_class(v, UserClass::cautious(1)).benefits(
                v,
                rng.gen_range(5.0..20.0),
                0.0,
            );
        }
        let inst = builder.build().unwrap();
        let bound = lemma5_bound(inst.graph(), inst.benefits(), NodeId::new(0), &cautious);
        let lambda = adaptive_submodular_ratio(&inst).unwrap();
        assert!(
            lambda <= bound + 1e-9,
            "Lemma 5 violated: λ={lambda} > bound={bound} (r={r})"
        );
    }
}

#[test]
fn pure_greedy_potential_equals_exact_marginal_gain() {
    // With w_D = 1, w_I = 0 the ABM potential is not an approximation:
    // since every friend's incident edges are revealed on acceptance,
    // friend-of-friend status is deterministic given ω, and the potential
    // q(u)·P_D(u) equals Δ(u|ω) exactly. This ties Algorithm 1 to the
    // theory it is analyzed with.
    use accu::policy::Policy;
    use accu::theory::exact_marginal_gain;
    use accu::{resolve_acceptance, AttackerView, Observation};

    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..10 {
        let inst = random_instance(&mut rng);
        let real = {
            let mut r = StdRng::seed_from_u64(rng.gen());
            accu::Realization::sample(&inst, &mut r)
        };
        let mut obs = Observation::for_instance(&inst);
        let greedy = pure_greedy();
        // Walk a short random-ish episode, checking the identity at
        // every reachable observation.
        let mut order = accu::policy::MaxDegree::new();
        order.reset(&AttackerView::new(&inst, &obs));
        for _ in 0..3 {
            {
                let view = AttackerView::new(&inst, &obs);
                for u in view.candidates() {
                    let potential = greedy.potential_of(&view, u);
                    let exact = exact_marginal_gain(&inst, &obs, u).unwrap();
                    assert!(
                        (potential - exact).abs() < 1e-9,
                        "potential {potential} != Δ {exact} for {u}"
                    );
                }
            }
            let Some(t) = order.select(&AttackerView::new(&inst, &obs)) else {
                break;
            };
            if resolve_acceptance(&inst, &obs, &real, t) {
                obs.record_acceptance(t, &inst, &real);
            } else {
                obs.record_rejection(t);
            }
        }
    }
}

#[test]
fn greedy_ratio_is_monotone_in_lambda() {
    let mut prev = 0.0;
    for i in 0..=10 {
        let r = greedy_ratio(i as f64 / 10.0);
        assert!(r >= prev);
        assert!((0.0..1.0).contains(&r));
        prev = r;
    }
}
