//! Property-based tests for the dataset layer: every generated instance
//! must satisfy the paper's §IV-A protocol invariants regardless of
//! scale, seed or parameter choices.

use accu::datasets::{apply_protocol, select_cautious_users, DatasetSpec, ProtocolConfig};
use accu::graph::generators::barabasi_albert;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn protocol_invariants_hold(
        seed in 0u64..1_000,
        cautious_count in 1usize..15,
        threshold_fraction in 0.05f64..0.95,
        cautious_benefit in 5.0f64..100.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = barabasi_albert(300, 6, &mut rng).unwrap();
        let cfg = ProtocolConfig {
            cautious_count,
            degree_band: (6, 60),
            threshold_fraction,
            cautious_friend_benefit: cautious_benefit,
            ..ProtocolConfig::default()
        };
        let inst = apply_protocol(graph, &cfg, &mut rng).unwrap();

        // Cautious users: within the requested count, in-band degrees,
        // pairwise non-adjacent, thresholds within [1, degree].
        prop_assert!(inst.cautious_users().len() <= cautious_count);
        for &v in inst.cautious_users() {
            let d = inst.graph().degree(v);
            prop_assert!((6..=60).contains(&d));
            let theta = inst.threshold(v).unwrap() as usize;
            prop_assert!(theta >= 1 && theta <= d, "θ={theta} degree={d}");
            prop_assert_eq!(inst.benefits().friend(v), cautious_benefit);
        }
        for (i, &a) in inst.cautious_users().iter().enumerate() {
            for &b in &inst.cautious_users()[i + 1..] {
                prop_assert!(!inst.graph().has_edge(a, b));
            }
        }
        // All probabilities are in [0, 1); benefits follow the protocol.
        for v in inst.graph().nodes() {
            if let Some(q) = inst.acceptance_probability(v) {
                prop_assert!((0.0..1.0).contains(&q));
                prop_assert_eq!(inst.benefits().friend(v), 2.0);
            }
            prop_assert_eq!(inst.benefits().friend_of_friend(v), 1.0);
        }
        for i in 0..inst.graph().edge_count() {
            let p = inst.edge_probability(osn_graph::EdgeId::from(i));
            prop_assert!((0.0..1.0).contains(&p));
        }
        // The paper's working assumptions hold by construction.
        prop_assert!(accu::core::validate_instance(&inst).is_ok());
    }

    #[test]
    fn cautious_selection_determinism_and_independence(seed in 0u64..500) {
        let mut rng1 = StdRng::seed_from_u64(seed);
        let mut rng2 = StdRng::seed_from_u64(seed);
        let graph = barabasi_albert(200, 5, &mut rng1).unwrap();
        let graph2 = barabasi_albert(200, 5, &mut rng2).unwrap();
        let a = select_cautious_users(&graph, (5, 50), 12, &mut rng1);
        let b = select_cautious_users(&graph2, (5, 50), 12, &mut rng2);
        prop_assert_eq!(a.clone(), b, "same seed must select identically");
        // Sorted output, no duplicates.
        prop_assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn scaled_specs_generate_requested_sizes(factor in 0.005f64..0.2) {
        let spec = DatasetSpec::slashdot().scaled(factor);
        let mut rng = StdRng::seed_from_u64(3);
        let g = spec.generate(&mut rng).unwrap();
        prop_assert_eq!(g.node_count(), spec.node_count());
        // Density stays within a factor-2 band of the full dataset's
        // (23.5 average degree).
        let avg = g.average_degree();
        prop_assert!((10.0..=40.0).contains(&avg), "avg degree {}", avg);
    }
}
