//! Exact (exhaustive) probability computations for small instances.

use osn_graph::{EdgeId, NodeId};

use crate::{
    benefit_of_friend_set, AccuError, AccuInstance, EdgeState, NodeState, Observation, Realization,
};

/// Hard cap on the number of binary random variables that exhaustive
/// enumeration will accept (`2^24` realizations).
pub const MAX_RANDOM_BITS: usize = 24;

/// All realizations of an instance together with their probabilities.
///
/// # Examples
///
/// ```
/// use accu_core::theory::enumerate_realizations;
/// use accu_core::AccuInstanceBuilder;
/// use osn_graph::GraphBuilder;
///
/// let g = GraphBuilder::from_edges(2, [(0u32, 1u32)])?;
/// let inst = AccuInstanceBuilder::new(g).uniform_edge_probability(0.5).build()?;
/// let ens = enumerate_realizations(&inst)?;
/// assert_eq!(ens.len(), 2); // one uncertain edge
/// let total: f64 = ens.iter().map(|(_, p)| p).sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type RealizationEnsemble = Vec<(Realization, f64)>;

/// Enumerates every realization of `instance` with its probability.
///
/// Only *uncertain* variables (edge probabilities and reckless
/// acceptance probabilities strictly between 0 and 1) branch; certain
/// ones are fixed, so the ensemble has `2^random_bits` entries.
///
/// # Errors
///
/// Returns [`AccuError::TooLargeForExhaustive`] if the instance has more
/// than [`MAX_RANDOM_BITS`] uncertain variables.
pub fn enumerate_realizations(instance: &AccuInstance) -> Result<RealizationEnsemble, AccuError> {
    let bits = instance.random_bits();
    if bits > MAX_RANDOM_BITS {
        return Err(AccuError::TooLargeForExhaustive {
            random_bits: bits,
            limit: MAX_RANDOM_BITS,
        });
    }
    let g = instance.graph();
    // One variable per uncertain edge (two outcomes) and one per user
    // with more than one behavioral band; mixed-radix odometer over all
    // combinations.
    let uncertain_edges: Vec<usize> = (0..g.edge_count())
        .filter(|&i| {
            let p = instance.edge_probability(EdgeId::from(i));
            p > 0.0 && p < 1.0
        })
        .collect();
    // Per user: the behavioral bands of the acceptance draw as
    // (representative draw, mass) pairs.
    let user_bands: Vec<Vec<(f64, f64)>> = (0..g.node_count())
        .map(|i| {
            let cuts = instance.acceptance_cuts(NodeId::from(i));
            let mut bounds = vec![0.0f64];
            bounds.extend(cuts);
            bounds.push(1.0);
            bounds
                .windows(2)
                .filter(|w| w[1] - w[0] > 0.0)
                .map(|w| ((w[0] + w[1]) / 2.0, w[1] - w[0]))
                .collect()
        })
        .collect();
    let uncertain_users: Vec<usize> = (0..g.node_count())
        .filter(|&i| user_bands[i].len() > 1)
        .collect();
    let base_edges: Vec<bool> = (0..g.edge_count())
        .map(|i| instance.edge_probability(EdgeId::from(i)) >= 1.0)
        .collect();
    let base_draw: Vec<f64> = (0..g.node_count()).map(|i| user_bands[i][0].0).collect();

    // Odometer state: edge variables (radix 2) then user variables
    // (radix = band count).
    let radices: Vec<usize> = uncertain_edges
        .iter()
        .map(|_| 2usize)
        .chain(uncertain_users.iter().map(|&u| user_bands[u].len()))
        .collect();
    let total: usize = radices.iter().product::<usize>().max(1);
    let mut digits = vec![0usize; radices.len()];
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        let mut edges = base_edges.clone();
        let mut draw = base_draw.clone();
        let mut prob = 1.0f64;
        for (d, &ei) in uncertain_edges.iter().enumerate() {
            let on = digits[d] == 1;
            edges[ei] = on;
            let p = instance.edge_probability(EdgeId::from(ei));
            prob *= if on { p } else { 1.0 - p };
        }
        for (d, &ui) in uncertain_users.iter().enumerate() {
            let (rep, mass) = user_bands[ui][digits[uncertain_edges.len() + d]];
            draw[ui] = rep;
            prob *= mass;
        }
        out.push((Realization::from_raw(edges, draw), prob));
        // Advance the odometer.
        for (d, digit) in digits.iter_mut().enumerate() {
            *digit += 1;
            if *digit < radices[d] {
                break;
            }
            *digit = 0;
        }
    }
    Ok(out)
}

/// Returns `true` if `realization` is consistent with the observation
/// (`φ ~ ω`): every revealed edge state matches, and every recorded
/// response matches the realization's acceptance outcome for the
/// threshold condition that held *at request time*.
pub fn is_consistent(
    instance: &AccuInstance,
    realization: &Realization,
    observation: &Observation,
) -> bool {
    for i in 0..instance.graph().edge_count() {
        let e = EdgeId::from(i);
        match observation.edge_state(e) {
            EdgeState::Unknown => {}
            EdgeState::Present => {
                if !realization.edge_exists(instance, e) {
                    return false;
                }
            }
            EdgeState::Absent => {
                if realization.edge_exists(instance, e) {
                    return false;
                }
            }
        }
    }
    for i in 0..instance.node_count() {
        let u = NodeId::from(i);
        let state = observation.node_state(u);
        if state == NodeState::Unknown {
            continue;
        }
        let mutual = observation
            .mutual_friends_at_request(u)
            .expect("requested node has a recorded mutual count");
        if realization.accepts_at(instance, u, mutual) != (state == NodeState::Accepted) {
            return false;
        }
    }
    true
}

/// Computes the exact conditional expected marginal gain
/// `Δ(u|ω) = E[f(dom(ω) ∪ {u}, Φ) − f(dom(ω), Φ) | Φ ~ ω]`
/// by enumerating all realizations consistent with `observation`.
///
/// Uses execution-faithful semantics: the outcomes recorded in `ω` are
/// fixed (a cautious user that already rejected stays rejected), and
/// only the new request to `u` is resolved — against the attacker's
/// current friend set, per realization. This matches the paper's use of
/// `f(dom(ω), φ)` as "the benefit of the partially executed strategy".
///
/// # Errors
///
/// Returns [`AccuError::TooLargeForExhaustive`] for instances above the
/// enumeration cap, and [`AccuError::NodeOutOfRange`] if `u` is invalid.
///
/// # Panics
///
/// Panics if `u` was already requested in `observation`.
pub fn exact_marginal_gain(
    instance: &AccuInstance,
    observation: &Observation,
    u: NodeId,
) -> Result<f64, AccuError> {
    if u.index() >= instance.node_count() {
        return Err(AccuError::NodeOutOfRange {
            node: u,
            node_count: instance.node_count(),
        });
    }
    assert!(
        !observation.was_requested(u),
        "node {u} is already in dom(ω)"
    );
    let ensemble = enumerate_realizations(instance)?;
    let friends: Vec<NodeId> = observation.friends().to_vec();
    let mut friends_plus = friends.clone();
    friends_plus.push(u);
    let mut total_prob = 0.0f64;
    let mut total_gain = 0.0f64;
    for (real, prob) in &ensemble {
        if !is_consistent(instance, real, observation) {
            continue;
        }
        total_prob += prob;
        let mutual = friends
            .iter()
            .filter(|&&f| {
                instance
                    .graph()
                    .edge_id(f, u)
                    .is_some_and(|e| real.edge_exists(instance, e))
            })
            .count() as u32;
        let accepts = real.accepts_at(instance, u, mutual);
        if accepts {
            let before = benefit_of_friend_set(instance, real, &friends);
            let after = benefit_of_friend_set(instance, real, &friends_plus);
            total_gain += prob * (after - before);
        }
    }
    assert!(
        total_prob > 0.0,
        "observation is inconsistent with every realization"
    );
    Ok(total_gain / total_prob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccuInstanceBuilder, UserClass};
    use osn_graph::GraphBuilder;

    /// The paper's Fig. 1 instance: cautious v0 (θ=1, B_f > B_fof),
    /// reckless v1 (q=1), certain edge (v0, v1).
    fn fig1_instance() -> AccuInstance {
        let g = GraphBuilder::from_edges(2, [(0u32, 1u32)]).unwrap();
        AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(0), UserClass::cautious(1))
            .user_class(NodeId::new(1), UserClass::reckless(1.0))
            .benefits(NodeId::new(0), 2.0, 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn enumeration_probabilities_sum_to_one() {
        let g = GraphBuilder::from_edges(3, [(0u32, 1u32), (1, 2)]).unwrap();
        let inst = AccuInstanceBuilder::new(g)
            .edge_probabilities(vec![0.3, 1.0])
            .user_classes(vec![
                UserClass::reckless(0.5),
                UserClass::reckless(1.0),
                UserClass::cautious(1),
            ])
            .build()
            .unwrap();
        let ens = enumerate_realizations(&inst).unwrap();
        assert_eq!(ens.len(), 4); // one uncertain edge × one uncertain user
        let total: f64 = ens.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Every realization respects the certain variables.
        for (r, _) in &ens {
            assert!(r.edge_exists(&inst, EdgeId::new(1)));
            assert!(r.accepts_at(&inst, NodeId::new(1), 0));
        }
    }

    #[test]
    fn enumeration_rejects_large_instances() {
        use rand::SeedableRng;
        let g = osn_graph::generators::erdos_renyi_gnm(
            30,
            30,
            &mut rand::rngs::SmallRng::seed_from_u64(0),
        )
        .unwrap();
        let inst = AccuInstanceBuilder::new(g)
            .uniform_edge_probability(0.5)
            .build()
            .unwrap();
        assert!(matches!(
            enumerate_realizations(&inst),
            Err(AccuError::TooLargeForExhaustive { .. })
        ));
    }

    #[test]
    fn fig1_counterexample_breaks_adaptive_submodularity() {
        // Δ(v0 | ∅) = 0 but Δ(v0 | {v1 accepted}) = B_f − B_fof > 0,
        // violating Definition 3 — the paper's Fig. 1 argument, verified
        // numerically.
        let inst = fig1_instance();
        let empty = Observation::for_instance(&inst);
        let d_empty = exact_marginal_gain(&inst, &empty, NodeId::new(0)).unwrap();
        assert_eq!(d_empty, 0.0);

        let real = Realization::from_parts(&inst, vec![true], vec![false, true]).unwrap();
        let mut after = Observation::for_instance(&inst);
        after.record_acceptance(NodeId::new(1), &inst, &real);
        let d_after = exact_marginal_gain(&inst, &after, NodeId::new(0)).unwrap();
        assert_eq!(d_after, 1.0); // B_f(v0) − B_fof(v0) = 2 − 1
        assert!(d_after > d_empty, "gain increased as the observation grew");
    }

    #[test]
    fn consistency_filters_revealed_outcomes() {
        let inst = fig1_instance();
        let real_yes = Realization::from_parts(&inst, vec![true], vec![false, true]).unwrap();
        let real_no = Realization::from_parts(&inst, vec![false], vec![false, true]).unwrap();
        let mut obs = Observation::for_instance(&inst);
        obs.record_acceptance(NodeId::new(1), &inst, &real_yes);
        assert!(is_consistent(&inst, &real_yes, &obs));
        assert!(!is_consistent(&inst, &real_no, &obs));
    }

    #[test]
    fn reckless_rejection_constrains_consistency() {
        let g = GraphBuilder::new(1).build();
        let inst = AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(0), UserClass::reckless(0.5))
            .build()
            .unwrap();
        let mut obs = Observation::for_instance(&inst);
        obs.record_rejection(NodeId::new(0));
        let accepts = Realization::from_parts(&inst, vec![], vec![true]).unwrap();
        let rejects = Realization::from_parts(&inst, vec![], vec![false]).unwrap();
        assert!(!is_consistent(&inst, &accepts, &obs));
        assert!(is_consistent(&inst, &rejects, &obs));
    }

    #[test]
    fn marginal_gain_weights_by_probability() {
        // Isolated reckless user with q = 0.25: Δ(u|∅) = 0.25 · B_f.
        let g = GraphBuilder::new(1).build();
        let inst = AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(0), UserClass::reckless(0.25))
            .build()
            .unwrap();
        let obs = Observation::for_instance(&inst);
        let d = exact_marginal_gain(&inst, &obs, NodeId::new(0)).unwrap();
        assert!((d - 0.5).abs() < 1e-12); // 0.25 × B_f(=2)
    }

    #[test]
    fn marginal_gain_includes_expected_fof() {
        // u (q=1) with one probabilistic neighbor (p=0.5):
        // Δ = B_f(u) + 0.5·B_fof(v) = 2.5.
        let g = GraphBuilder::from_edges(2, [(0u32, 1u32)]).unwrap();
        let inst = AccuInstanceBuilder::new(g)
            .uniform_edge_probability(0.5)
            .build()
            .unwrap();
        let obs = Observation::for_instance(&inst);
        let d = exact_marginal_gain(&inst, &obs, NodeId::new(0)).unwrap();
        assert!((d - 2.5).abs() < 1e-12);
    }
}
