//! Property-based tests for the ACCU core invariants.

use accu::policy::{Abm, AbmWeights, MaxDegree, Random};
use accu::theory::exact_marginal_gain;
use accu::{
    benefit_of_friend_set, benefit_of_request_set, run_attack, AccuInstance, AccuInstanceBuilder,
    AttackerView, GraphBuilder, NodeId, Observation, Policy, Realization, UserClass,
};
use proptest::prelude::*;

/// Strategy: a random small ACCU instance plus a sampled realization.
fn arb_instance_and_realization() -> impl Strategy<Value = (AccuInstance, Realization)> {
    (3usize..10)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..20);
            let classes = proptest::collection::vec(
                prop_oneof![
                    (0.0f64..=1.0).prop_map(UserClass::reckless),
                    (1u32..3).prop_map(UserClass::cautious),
                    ((0.0f64..=0.5), (0.5f64..=1.0), 1u32..3)
                        .prop_map(|(q1, q2, t)| UserClass::hesitant(q1, q2, t)),
                    ((0.0f64..=0.5), (0.0f64..=0.4))
                        .prop_map(|(b, s)| UserClass::mutual_linear(b, s)),
                ],
                n,
            );
            let seeds = any::<u64>();
            (Just(n), edges, classes, seeds)
        })
        .prop_map(|(n, pairs, classes, seed)| {
            let mut b = GraphBuilder::new(n);
            for (x, y) in pairs {
                if x != y {
                    b.add_edge(NodeId::new(x), NodeId::new(y)).unwrap();
                }
            }
            let g = b.build();
            let m = g.edge_count();
            let mut builder = AccuInstanceBuilder::new(g)
                .user_classes(classes)
                .edge_probabilities(vec![0.7; m]);
            for i in 0..n {
                // Distinct benefits with a strict gap.
                builder = builder.benefits(NodeId::from(i), 2.0 + i as f64, 1.0);
            }
            let inst = builder.build().unwrap();
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let real = Realization::sample(&inst, &mut rng);
            (inst, real)
        })
}

proptest! {
    #[test]
    fn cumulative_benefit_matches_recomputation((inst, real) in arb_instance_and_realization()) {
        let mut abm = Abm::new(AbmWeights::balanced());
        let out = run_attack(&inst, &real, &mut abm, inst.node_count());
        let recomputed = benefit_of_friend_set(&inst, &real, &out.friends);
        prop_assert!((recomputed - out.total_benefit).abs() < 1e-9);
        // Marginals telescope.
        let sum: f64 = out.trace.iter().map(|r| r.gain.total()).sum();
        prop_assert!((sum - out.total_benefit).abs() < 1e-9);
    }

    #[test]
    fn set_semantics_dominate_sequential_execution((inst, real) in arb_instance_and_realization()) {
        // For the same request multiset, the order-free set semantics
        // (cautious users resolved last / fixpoint) can only do better
        // than any sequential order a policy produced.
        let mut policy = MaxDegree::new();
        let out = run_attack(&inst, &real, &mut policy, inst.node_count());
        let targets: Vec<NodeId> = out.trace.iter().map(|r| r.target).collect();
        let set_outcome = benefit_of_request_set(&inst, &real, &targets);
        prop_assert!(set_outcome.benefit + 1e-9 >= out.total_benefit,
            "set {} < sequential {}", set_outcome.benefit, out.total_benefit);
        // And all sequentially-accepted users are accepted under set
        // semantics too (monotonicity of the closure).
        for f in &out.friends {
            prop_assert!(set_outcome.accepted.contains(f));
        }
    }

    #[test]
    fn observed_mutual_counts_match_ground_truth((inst, real) in arb_instance_and_realization()) {
        let mut policy = Random::new(3);
        let mut obs = Observation::for_instance(&inst);
        policy.reset(&AttackerView::new(&inst, &obs));
        for _ in 0..inst.node_count() {
            let Some(t) = policy.select(&AttackerView::new(&inst, &obs)) else { break };
            let accepted = real.accepts_at(&inst, t, obs.mutual_friends(t));
            if accepted {
                obs.record_acceptance(t, &inst, &real);
            } else {
                obs.record_rejection(t);
            }
        }
        // Ground truth: for every node, count friends adjacent via
        // realized edges.
        for v in inst.graph().nodes() {
            let truth = obs
                .friends()
                .iter()
                .filter(|&&f| {
                    f != v && inst.graph().edge_id(f, v).is_some_and(|e| real.edge_exists(&inst, e))
                })
                .count() as u32;
            prop_assert_eq!(obs.mutual_friends(v), truth);
        }
    }

    #[test]
    fn abm_potentials_are_nonnegative_and_cached_consistently(
        (inst, real) in arb_instance_and_realization()
    ) {
        let mut abm = Abm::new(AbmWeights::new(0.7, 0.3));
        let mut obs = Observation::for_instance(&inst);
        abm.reset(&AttackerView::new(&inst, &obs));
        for _ in 0..inst.node_count().min(5) {
            let view = AttackerView::new(&inst, &obs);
            let Some(t) = abm.select(&view) else { break };
            let p = abm.potential_of(&view, t);
            prop_assert!(p >= 0.0, "negative potential {}", p);
            // The selected node maximizes the potential among candidates.
            for c in view.candidates() {
                prop_assert!(abm.potential_of(&view, c) <= p + 1e-9,
                    "candidate {} beats selection {}", c, t);
            }
            let accepted = real.accepts_at(&inst, t, obs.mutual_friends(t));
            let revealed = if accepted {
                obs.record_acceptance(t, &inst, &real)
            } else {
                obs.record_rejection(t);
                Vec::new()
            };
            abm.observe(&AttackerView::new(&inst, &obs), t, accepted, &revealed);
        }
    }

    /// The winner tree, its inline keys and the delta-kept records only
    /// make the argmax cheap: replayed through an observation, every
    /// pick of a whole episode is the argmax of the from-scratch
    /// potential over the candidates, ties to the lower id.
    #[test]
    fn abm_picks_the_exact_argmax_at_every_step((inst, real) in arb_instance_and_realization()) {
        for weights in [AbmWeights::new(1.0, 0.0), AbmWeights::balanced()] {
            let out = run_attack(&inst, &real, &mut Abm::new(weights), inst.node_count());
            prop_assert_eq!(out.trace.len(), inst.node_count());
            let scorer = Abm::new(weights);
            let mut obs = Observation::for_instance(&inst);
            for r in &out.trace {
                let view = AttackerView::new(&inst, &obs);
                let argmax = view
                    .candidates()
                    .map(|u| (scorer.potential_of(&view, u), u))
                    .reduce(|best, next| if next.0.total_cmp(&best.0).is_gt() { next } else { best })
                    .map(|(_, u)| u);
                prop_assert_eq!(Some(r.target), argmax, "step {} at weights {:?}", r.step, weights);
                if r.accepted {
                    obs.record_acceptance(r.target, &inst, &real);
                } else {
                    obs.record_rejection(r.target);
                }
            }
        }
    }

    #[test]
    fn instance_serialization_round_trips((inst, _) in arb_instance_and_realization()) {
        use accu::core::io::{read_instance, write_instance};
        let mut buf = Vec::new();
        write_instance(&inst, &mut buf).unwrap();
        let back = read_instance(&buf[..]).unwrap();
        prop_assert_eq!(back.node_count(), inst.node_count());
        prop_assert_eq!(back.graph().edges(), inst.graph().edges());
        for i in 0..inst.graph().edge_count() {
            let e = accu::EdgeId::from(i);
            prop_assert_eq!(back.edge_probability(e), inst.edge_probability(e));
        }
        for v in inst.graph().nodes() {
            prop_assert_eq!(back.user_class(v), inst.user_class(v));
            prop_assert_eq!(back.benefits().friend(v), inst.benefits().friend(v));
            prop_assert_eq!(
                back.benefits().friend_of_friend(v),
                inst.benefits().friend_of_friend(v)
            );
        }
    }

    #[test]
    fn strong_adaptive_monotonicity_of_marginals(seed in 0u64..40) {
        // Δ(u|ω) ≥ 0 for every u and reachable ω: befriending more never
        // hurts (f is monotone).
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3), (3, 0)]).unwrap();
        let inst = AccuInstanceBuilder::new(g)
            .uniform_edge_probability(0.5)
            .user_classes(vec![
                UserClass::reckless(0.5),
                UserClass::reckless(1.0),
                UserClass::cautious(1),
                UserClass::reckless(0.3),
            ])
            .benefits(NodeId::new(2), 9.0, 1.0)
            .build()
            .unwrap();
        let real = Realization::sample(&inst, &mut rng);
        let mut obs = Observation::for_instance(&inst);
        // Request nodes 0 and 1 in some realized order.
        for t in [NodeId::new(0), NodeId::new(1)] {
            let accepted = real.accepts_at(&inst, t, obs.mutual_friends(t));
            if accepted {
                obs.record_acceptance(t, &inst, &real);
            } else {
                obs.record_rejection(t);
            }
        }
        for u in [NodeId::new(2), NodeId::new(3)] {
            let d = exact_marginal_gain(&inst, &obs, u).unwrap();
            prop_assert!(d >= -1e-12, "Δ({}|ω) = {} negative", u, d);
        }
    }
}
