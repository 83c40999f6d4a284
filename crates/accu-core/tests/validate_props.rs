//! The two checks of the paper's model rules, one place each.
//!
//! Value ranges (probabilities in `[0, 1]`, `θ ≥ 1`, `B_f ≥ B_fof ≥ 0`,
//! attribute vectors the size of the graph) are rejected by
//! `AccuInstanceBuilder::build` with a typed `AccuError`. Structural
//! preconditions a built instance can still break are reported by
//! `validate_instance`, and one Lenient `repair_instance` pass reaches a
//! state that re-validates clean — or, for the fatal `IsolatedSource`,
//! rejects.

use accu_core::{
    repair_instance, validate_instance, AccuError, AccuInstance, AccuInstanceBuilder, RepairMode,
    UserClass, Violation,
};
use osn_graph::{EdgeId, Graph, GraphBuilder, NodeId};
use proptest::prelude::*;

/// A cycle graph on `n` nodes (degree 2 everywhere).
fn cycle(n: usize) -> Graph {
    let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
    GraphBuilder::from_edges(n, edges).expect("cycle construction cannot fail")
}

/// A clean baseline builder: all-reckless cycle with valid
/// probabilities and a strict benefit gap.
fn clean_builder(n: usize, q: f64, p: f64) -> AccuInstanceBuilder {
    AccuInstanceBuilder::new(cycle(n))
        .uniform_edge_probability(p)
        .uniform_benefits(2.0, 1.0)
        .user_classes(vec![UserClass::reckless(q); n])
}

fn built(builder: AccuInstanceBuilder) -> AccuInstance {
    builder
        .build()
        .expect("structural violations pass the value checks")
}

fn codes(violations: &[Violation]) -> Vec<&'static str> {
    violations.iter().map(Violation::code).collect()
}

/// Asserts that `instance` reports a violation with `code` and that one
/// Lenient repair pass brings it to a clean instance.
fn assert_detected_and_repaired(instance: AccuInstance, code: &str) {
    let found = validate_instance(&instance).expect_err("planted violation must be found");
    assert!(
        codes(&found).contains(&code),
        "planted {code}, validator reported {:?}",
        codes(&found)
    );
    let (repaired, report) = repair_instance(instance, RepairMode::Lenient)
        .unwrap_or_else(|v| panic!("planted {code} must be repairable, got rejection {v:?}"));
    assert_eq!(report.violations, found, "{code}: report lists the scan");
    assert!(
        report.lambda_guarantee_void(),
        "{code}: λ-guarantee not voided"
    );
    assert!(report.repairs() > 0, "{code}: no repairs recorded");
    assert!(
        validate_instance(&repaired).is_ok(),
        "{code}: repaired instance failed to re-validate clean"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn planted_benefit_gap_collapse_is_detected(n in 6usize..16, q in 0.1f64..0.9) {
        let instance = built(clean_builder(n, q, 0.5).benefits(NodeId::new(2), 2.0, 2.0));
        assert_detected_and_repaired(instance, "benefit_gap_collapsed");
    }

    #[test]
    fn planted_cautious_adjacency_is_detected(n in 6usize..16, q in 0.1f64..0.9) {
        // Nodes 0 and 1 are adjacent on the cycle.
        let instance = built(
            clean_builder(n, q, 0.5)
                .user_class(NodeId::new(0), UserClass::cautious(1))
                .user_class(NodeId::new(1), UserClass::hesitant(0.1, 0.9, 1)),
        );
        assert_detected_and_repaired(instance, "cautious_adjacency");
    }

    #[test]
    fn planted_unreachable_threshold_is_detected(n in 6usize..16, q in 0.1f64..0.9) {
        // Cycle degree is 2, so θ = 5 can never be met.
        let instance =
            built(clean_builder(n, q, 0.5).user_class(NodeId::new(3), UserClass::cautious(5)));
        assert_detected_and_repaired(instance, "threshold_unreachable");
    }

    #[test]
    fn planted_isolated_source_is_fatal(n in 6usize..16) {
        // Every user rejects at zero mutual friends: q = 0 everywhere.
        let instance = built(clean_builder(n, 0.0, 0.5));
        prop_assert_eq!(
            validate_instance(&instance).unwrap_err(),
            vec![Violation::IsolatedSource]
        );
        for mode in [RepairMode::Lenient, RepairMode::Strict] {
            let rejected = repair_instance(instance.clone(), mode).unwrap_err();
            prop_assert_eq!(rejected, vec![Violation::IsolatedSource]);
        }
    }

    /// All three repairable violations at once still repair clean in
    /// one pass; with the source isolated too, all four are reported
    /// and the instance is rejected.
    #[test]
    fn every_structural_violation_at_once(n in 8usize..16, q in 0.1f64..0.9) {
        let planted = |q: f64| {
            built(
                clean_builder(n, q, 0.5)
                    .benefits(NodeId::new(6), 3.0, 3.0)
                    .user_class(NodeId::new(0), UserClass::cautious(1))
                    .user_class(NodeId::new(1), UserClass::cautious(1))
                    .user_class(NodeId::new(4), UserClass::cautious(5)),
            )
        };
        let found = validate_instance(&planted(q)).unwrap_err();
        prop_assert_eq!(
            codes(&found),
            vec!["benefit_gap_collapsed", "cautious_adjacency", "threshold_unreachable"]
        );
        let (repaired, report) = repair_instance(planted(q), RepairMode::Lenient).unwrap();
        prop_assert_eq!((report.benefit_fixes, report.demoted_users), (1, 2));
        prop_assert!(validate_instance(&repaired).is_ok());

        let found = validate_instance(&planted(0.0)).unwrap_err();
        prop_assert_eq!(
            codes(&found),
            vec![
                "benefit_gap_collapsed",
                "cautious_adjacency",
                "threshold_unreachable",
                "isolated_source",
            ]
        );
        let rejected = repair_instance(planted(0.0), RepairMode::Lenient).unwrap_err();
        prop_assert_eq!(rejected, found);
    }
}

/// A gap bump at `B_f = B_fof = f64::MAX` overflows to `∞`; the pair
/// falls back to the paper defaults `(2, 1)`.
#[test]
fn collapsed_gap_at_f64_max_repairs_to_the_defaults() {
    let u = NodeId::new(3);
    let instance = built(clean_builder(6, 0.5, 0.5).benefits(u, f64::MAX, f64::MAX));
    let (repaired, report) = repair_instance(instance, RepairMode::Lenient).unwrap();
    assert_eq!(
        report.violations,
        vec![Violation::BenefitGapCollapsed { node: u }]
    );
    assert_eq!(report.benefit_fixes, 1);
    let benefits = repaired.benefits();
    assert_eq!(
        (benefits.friend(u), benefits.friend_of_friend(u)),
        (2.0, 1.0)
    );
    assert!(validate_instance(&repaired).is_ok());
}

/// Asserts that `builder` fails `build()` with an error `expected`
/// accepts.
fn assert_rejected(builder: AccuInstanceBuilder, fault: &str, expected: fn(&AccuError) -> bool) {
    match builder.build() {
        Ok(_) => panic!("{fault}: build accepted it"),
        Err(e) => assert!(expected(&e), "{fault}: wrong error {e:?}"),
    }
}

fn invalid_probability(e: &AccuError) -> bool {
    matches!(e, AccuError::InvalidProbability { .. })
}

fn invalid_benefit(e: &AccuError) -> bool {
    matches!(e, AccuError::InvalidBenefit { .. })
}

fn length_mismatch(e: &AccuError) -> bool {
    matches!(e, AccuError::LengthMismatch { .. })
}

#[test]
fn build_rejects_every_out_of_range_probability() {
    let u = NodeId::new(2);
    let class = |c: UserClass| clean_builder(6, 0.5, 0.5).user_class(u, c);
    for bad in [-0.5, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let faults = [
            (
                "edge existence",
                clean_builder(6, 0.5, 0.5).edge_probability(EdgeId::new(0), bad),
            ),
            ("reckless acceptance", class(UserClass::reckless(bad))),
            ("hesitant q1", class(UserClass::hesitant(bad, 1.0, 1))),
            ("hesitant q2", class(UserClass::hesitant(0.0, bad, 1))),
            ("linear base", class(UserClass::mutual_linear(bad, 0.1))),
        ];
        for (what, builder) in faults {
            assert_rejected(builder, &format!("{what} = {bad}"), invalid_probability);
        }
    }
    for bad in [-0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let builder = class(UserClass::mutual_linear(0.1, bad));
        assert_rejected(
            builder,
            &format!("linear slope = {bad}"),
            invalid_probability,
        );
    }
    let builder = class(UserClass::hesitant(0.9, 0.1, 1));
    assert_rejected(builder, "hesitant q1 > q2", invalid_probability);
}

#[test]
fn build_rejects_every_invalid_benefit_pair() {
    let u = NodeId::new(4);
    for (bf, bfof) in [
        (1.0, -1.0),
        (-1.0, -2.0),
        (1.0, 2.0),
        (f64::NAN, 1.0),
        (2.0, f64::NAN),
        (f64::INFINITY, 1.0),
        (f64::INFINITY, f64::INFINITY),
        (2.0, f64::NEG_INFINITY),
    ] {
        let builder = clean_builder(6, 0.5, 0.5).benefits(u, bf, bfof);
        assert_rejected(
            builder,
            &format!("benefits ({bf}, {bfof})"),
            invalid_benefit,
        );
        let builder = clean_builder(6, 0.5, 0.5).uniform_benefits(bf, bfof);
        assert_rejected(builder, &format!("uniform ({bf}, {bfof})"), invalid_benefit);
    }
}

#[test]
fn build_rejects_a_zero_threshold() {
    let u = NodeId::new(1);
    for class in [UserClass::cautious(0), UserClass::hesitant(0.1, 0.9, 0)] {
        let err = clean_builder(6, 0.5, 0.5)
            .user_class(u, class)
            .build()
            .unwrap_err();
        assert_eq!(err, AccuError::ZeroThreshold { node: u }, "{class}");
    }
}

#[test]
fn build_rejects_wrong_attribute_lengths() {
    for len in [0, 2, 7] {
        let builder = clean_builder(6, 0.5, 0.5).edge_probabilities(vec![0.5; len]);
        assert_rejected(
            builder,
            &format!("{len} edge probabilities"),
            length_mismatch,
        );
        let builder = clean_builder(6, 0.5, 0.5).user_classes(vec![UserClass::reckless(0.5); len]);
        assert_rejected(builder, &format!("{len} user classes"), length_mismatch);
    }
}
