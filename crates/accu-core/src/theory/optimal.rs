//! The exhaustively optimal adaptive policy (for validating Theorem 1).

use osn_graph::{EdgeId, NodeId};

use crate::{AccuError, AccuInstance};

use super::exact::enumerate_realizations;

/// Caps for the exhaustive optimal search: the state space is roughly
/// `(3 states)^(nodes+edges) × branching`, so only toy instances are
/// tractable.
pub const MAX_OPTIMAL_NODES: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq)]
enum NState {
    Unknown,
    Accepted,
    Rejected,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum EState {
    Unknown,
    Present,
    Absent,
}

struct EnsembleEntry {
    edge_exists: Vec<bool>,
    /// Uniform acceptance draw per user (compared to the class curve).
    draw: Vec<f64>,
    prob: f64,
}

struct Search<'a> {
    instance: &'a AccuInstance,
    ensemble: Vec<EnsembleEntry>,
}

impl Search<'_> {
    /// Benefit of the friend set implied by the node/edge states.
    fn benefit(&self, nodes: &[NState], edges: &[EState]) -> f64 {
        let g = self.instance.graph();
        let b = self.instance.benefits();
        let mut total = 0.0;
        for i in 0..g.node_count() {
            let v = NodeId::from(i);
            match nodes[i] {
                NState::Accepted => total += b.friend(v),
                _ => {
                    // Friend-of-friend iff some Present edge leads to a friend.
                    let is_fof = g.neighbor_entries(v).any(|(w, e)| {
                        nodes[w.index()] == NState::Accepted && edges[e.index()] == EState::Present
                    });
                    if is_fof {
                        total += b.friend_of_friend(v);
                    }
                }
            }
        }
        total
    }

    fn mutual(&self, nodes: &[NState], edges: &[EState], u: NodeId) -> u32 {
        self.instance
            .graph()
            .neighbor_entries(u)
            .filter(|&(w, e)| {
                nodes[w.index()] == NState::Accepted && edges[e.index()] == EState::Present
            })
            .count() as u32
    }

    /// Expected additional benefit achievable with `budget` requests from
    /// the given observation state, over the consistent realizations.
    fn best(
        &self,
        nodes: &mut Vec<NState>,
        edges: &mut Vec<EState>,
        budget: usize,
        consistent: &[usize],
    ) -> f64 {
        if budget == 0 || consistent.is_empty() {
            return 0.0;
        }
        let n = self.instance.node_count();
        let total_prob: f64 = consistent.iter().map(|&i| self.ensemble[i].prob).sum();
        if total_prob <= 0.0 {
            return 0.0;
        }
        let base = self.benefit(nodes, edges);
        let mut best_value = 0.0f64;
        for ui in 0..n {
            if nodes[ui] != NState::Unknown {
                continue;
            }
            let u = NodeId::from(ui);
            // The acceptance level against the current (fully revealed)
            // friend set.
            let level = self
                .instance
                .user_class(u)
                .acceptance_probability_at(self.mutual(nodes, edges, u));
            let (accepting, rejecting): (Vec<usize>, Vec<usize>) = consistent
                .iter()
                .partition(|&&i| self.ensemble[i].draw[ui] < level);
            let mut v = 0.0;
            if !accepting.is_empty() {
                v += self.accept_branch(nodes, edges, budget, &accepting, u, base);
            }
            if !rejecting.is_empty() {
                nodes[ui] = NState::Rejected;
                let w: f64 = rejecting
                    .iter()
                    .map(|&i| self.ensemble[i].prob)
                    .sum::<f64>()
                    * self.best(nodes, edges, budget - 1, &rejecting);
                nodes[ui] = NState::Unknown;
                v += w;
            }
            best_value = best_value.max(v / total_prob);
        }
        best_value
    }

    /// Probability-weighted (unnormalized) value of requesting `u` and
    /// being accepted: branches over the revealed incident-edge patterns.
    fn accept_branch(
        &self,
        nodes: &mut Vec<NState>,
        edges: &mut Vec<EState>,
        budget: usize,
        consistent: &[usize],
        u: NodeId,
        base: f64,
    ) -> f64 {
        let g = self.instance.graph();
        let unknown_incident: Vec<EdgeId> = g
            .neighbor_entries(u)
            .map(|(_, e)| e)
            .filter(|e| edges[e.index()] == EState::Unknown)
            .collect();
        // Group the consistent realizations by their pattern on the
        // unknown incident edges.
        let mut groups: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for &i in consistent {
            let mut key = 0u64;
            for (b, e) in unknown_incident.iter().enumerate() {
                if self.ensemble[i].edge_exists[e.index()] {
                    key |= 1 << b;
                }
            }
            groups.entry(key).or_default().push(i);
        }
        nodes[u.index()] = NState::Accepted;
        let mut value = 0.0f64;
        for (key, members) in groups {
            for (b, e) in unknown_incident.iter().enumerate() {
                edges[e.index()] = if key >> b & 1 == 1 {
                    EState::Present
                } else {
                    EState::Absent
                };
            }
            let gprob: f64 = members.iter().map(|&i| self.ensemble[i].prob).sum();
            let gain = self.benefit(nodes, edges) - base;
            value += gprob * (gain + self.best(nodes, edges, budget - 1, &members));
        }
        for e in &unknown_incident {
            edges[e.index()] = EState::Unknown;
        }
        nodes[u.index()] = NState::Unknown;
        value
    }
}

/// Computes the exact expected benefit `E[f(π*, Φ)]` of the *optimal*
/// adaptive policy with budget `k`, by exhaustive search over all
/// decision trees.
///
/// Use only on toy instances (≤ [`MAX_OPTIMAL_NODES`] nodes and within
/// the realization-enumeration cap); the search is doubly exponential.
///
/// # Errors
///
/// Returns [`AccuError::TooLargeForExhaustive`] above the caps.
pub fn optimal_adaptive_benefit(instance: &AccuInstance, k: usize) -> Result<f64, AccuError> {
    let n = instance.node_count();
    if n > MAX_OPTIMAL_NODES {
        return Err(AccuError::TooLargeForExhaustive {
            random_bits: n,
            limit: MAX_OPTIMAL_NODES,
        });
    }
    let ensemble = enumerate_realizations(instance)?;
    let g = instance.graph();
    let ensemble: Vec<EnsembleEntry> = ensemble
        .into_iter()
        .map(|(r, p)| {
            let edge_exists: Vec<bool> = (0..g.edge_count())
                .map(|i| r.edge_exists(instance, EdgeId::from(i)))
                .collect();
            let draw: Vec<f64> = (0..n).map(|i| r.acceptance_draw(NodeId::from(i))).collect();
            EnsembleEntry {
                edge_exists,
                draw,
                prob: p,
            }
        })
        .collect();
    let search = Search { instance, ensemble };
    let indices: Vec<usize> = (0..search.ensemble.len()).collect();
    let mut nodes = vec![NState::Unknown; n];
    let mut edges = vec![EState::Unknown; g.edge_count()];
    Ok(search.best(&mut nodes, &mut edges, k, &indices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::pure_greedy;
    use crate::theory::{adaptive_submodular_ratio, greedy_ratio};
    use crate::{run_attack, AccuInstanceBuilder, UserClass};
    use osn_graph::GraphBuilder;

    /// Exact expected benefit of a deterministic policy by enumeration.
    fn exact_policy_value(inst: &AccuInstance, k: usize) -> f64 {
        let ens = enumerate_realizations(inst).unwrap();
        ens.iter()
            .map(|(real, prob)| {
                let mut greedy = pure_greedy();
                prob * run_attack(inst, real, &mut greedy, k).total_benefit
            })
            .sum()
    }

    #[test]
    fn optimal_unlocks_cautious_user() {
        // Star: hub 0 + cautious 2 (θ=1, B_f=50); everything certain.
        let g = GraphBuilder::from_edges(3, [(0u32, 1u32), (0, 2)]).unwrap();
        let inst = AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(2), UserClass::cautious(1))
            .benefits(NodeId::new(2), 50.0, 1.0)
            .build()
            .unwrap();
        // k=2: hub (2 + fof 1 + fof 1) then cautious upgrade (+49) = 53.
        let opt = optimal_adaptive_benefit(&inst, 2).unwrap();
        assert!((opt - 53.0).abs() < 1e-9, "opt = {opt}");
        // k=1: the hub alone.
        let opt1 = optimal_adaptive_benefit(&inst, 1).unwrap();
        assert!((opt1 - 4.0).abs() < 1e-9, "opt1 = {opt1}");
    }

    #[test]
    fn optimal_adapts_to_rejections() {
        // Two isolated reckless users, q = 0.5 each, B_f = 2. With k=1:
        // E = 0.5·2 = 1. Optimal k=2 requests both: E = 2·(0.5·2) = 2.
        let g = GraphBuilder::new(2).build();
        let inst = AccuInstanceBuilder::new(g)
            .user_classes(vec![UserClass::reckless(0.5), UserClass::reckless(0.5)])
            .build()
            .unwrap();
        let opt = optimal_adaptive_benefit(&inst, 2).unwrap();
        assert!((opt - 2.0).abs() < 1e-9);
        let opt1 = optimal_adaptive_benefit(&inst, 1).unwrap();
        assert!((opt1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn optimal_dominates_greedy() {
        // Probabilistic instance where greedy is plausibly suboptimal.
        let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3)]).unwrap();
        let inst = AccuInstanceBuilder::new(g)
            .uniform_edge_probability(0.5)
            .user_classes(vec![
                UserClass::reckless(0.6),
                UserClass::reckless(0.9),
                UserClass::reckless(0.4),
                UserClass::cautious(1),
            ])
            .benefits(NodeId::new(3), 8.0, 1.0)
            .build()
            .unwrap();
        for k in 1..=3 {
            let opt = optimal_adaptive_benefit(&inst, k).unwrap();
            let greedy = exact_policy_value(&inst, k);
            assert!(
                opt >= greedy - 1e-9,
                "k={k}: optimal {opt} must dominate greedy {greedy}"
            );
        }
    }

    #[test]
    fn greedy_meets_theorem1_bound() {
        // Theorem 1: greedy (w_I = 0) ≥ (1 − e^{−λ})·OPT when the strict
        // benefit gap holds.
        let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (0, 2), (0, 3)]).unwrap();
        let inst = AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(3), UserClass::cautious(1))
            .benefits(NodeId::new(3), 10.0, 1.0)
            .user_class(NodeId::new(1), UserClass::reckless(0.5))
            .build()
            .unwrap();
        assert!(inst.benefits().has_strict_gap());
        let lambda = adaptive_submodular_ratio(&inst).unwrap();
        assert!(lambda > 0.0);
        for k in 1..=3 {
            let opt = optimal_adaptive_benefit(&inst, k).unwrap();
            let greedy = exact_policy_value(&inst, k);
            let bound = greedy_ratio(lambda) * opt;
            assert!(
                greedy >= bound - 1e-9,
                "k={k}: greedy {greedy} below bound {bound} (λ={lambda}, opt={opt})"
            );
        }
    }

    #[test]
    fn optimal_rejects_large_instances() {
        let g = GraphBuilder::new(20).build();
        let inst = AccuInstanceBuilder::new(g).build().unwrap();
        assert!(matches!(
            optimal_adaptive_benefit(&inst, 2),
            Err(AccuError::TooLargeForExhaustive { .. })
        ));
    }

    #[test]
    fn zero_budget_is_zero() {
        let g = GraphBuilder::new(2).build();
        let inst = AccuInstanceBuilder::new(g).build().unwrap();
        assert_eq!(optimal_adaptive_benefit(&inst, 0).unwrap(), 0.0);
    }
}
