//! Multiple collaborating socialbots — the multi-bot extension
//! (cf. the INFOCOM'18 line of work the paper cites as [5]).
//!
//! Platforms rate-limit accounts, so real attacks split the request
//! budget across several bots. Bots share *knowledge* (observations are
//! pooled), and a user is worth `B_f` once it is a friend of **any**
//! bot; but the cautious threshold `|N(v) ∩ N(b)| ≥ θ_v` is evaluated
//! **per bot** — mutual friends accumulated by bot A do not help bot B.
//! Splitting the budget therefore trades rate-limit compliance against
//! cautious-user reachability, an effect [`run_multi_bot_abm`] measures.

use osn_graph::NodeId;

use crate::{
    policy::{Abm, AbmWeights},
    AccuInstance, AttackerView, BenefitState, MarginalGain, Observation, Realization,
};

/// Configuration of a multi-bot campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiBotConfig {
    /// Number of collaborating bots.
    pub bots: usize,
    /// Per-bot request cap (the platform rate limit).
    pub per_bot_budget: usize,
    /// ABM weights used for scoring.
    pub weights: AbmWeights,
}

impl MultiBotConfig {
    /// Total request budget across all bots.
    pub fn total_budget(&self) -> usize {
        self.bots * self.per_bot_budget
    }
}

/// One request in a multi-bot trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BotRequest {
    /// Which bot sent the request.
    pub bot: usize,
    /// The targeted user.
    pub target: NodeId,
    /// Whether the request was accepted.
    pub accepted: bool,
    /// Marginal *union* benefit of this request.
    pub gain: MarginalGain,
}

/// Outcome of a multi-bot campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiBotOutcome {
    /// Union benefit over all bots.
    pub total_benefit: f64,
    /// Friends of each bot, in acceptance order.
    pub per_bot_friends: Vec<Vec<NodeId>>,
    /// Distinct cautious users befriended by at least one bot.
    pub cautious_compromised: usize,
    /// The full request trace.
    pub trace: Vec<BotRequest>,
}

/// Runs a collaborative multi-bot ABM campaign against one realization.
///
/// Each step greedily picks the best `(bot, target)` pair: the bot must
/// have budget left and must not have requested the target before
/// (different bots *may* request the same user — a second friendship
/// adds no direct benefit but raises that bot's mutual counts toward
/// cautious users). Scoring is the ABM potential evaluated against the
/// acting bot's own observation; direct gains of users already
/// befriended by another bot are suppressed since union benefit counts
/// each user once.
///
/// Reckless acceptance is realization-determined per user (a user who
/// accepts strangers accepts any bot); cautious acceptance is the
/// per-bot threshold rule.
///
/// # Panics
///
/// Panics if `config.bots == 0`.
pub fn run_multi_bot_abm(
    instance: &AccuInstance,
    realization: &Realization,
    config: MultiBotConfig,
) -> MultiBotOutcome {
    assert!(config.bots > 0, "need at least one bot");
    let scorer = Abm::new(config.weights);
    // Scores a user another bot already befriended: union benefit
    // counts `B_f(u)` once, so only the indirect (mutual-count) value
    // remains and `w_D = 0`.
    let indirect_only = Abm::new(AbmWeights::new(0.0, config.weights.indirect()));
    let mut observations: Vec<Observation> = (0..config.bots)
        .map(|_| Observation::for_instance(instance))
        .collect();
    let mut budgets = vec![config.per_bot_budget; config.bots];
    // Union-level benefit state: who is a friend/fof of *some* bot.
    let mut union_benefit = BenefitState::new(instance);
    let mut trace = Vec::with_capacity(config.total_budget());
    loop {
        // Greedy argmax over (bot, candidate).
        let mut best: Option<(f64, usize, NodeId)> = None;
        for (b, obs) in observations.iter().enumerate() {
            if budgets[b] == 0 {
                continue;
            }
            let view = AttackerView::new(instance, obs);
            for u in view.candidates() {
                let p = if union_benefit.is_friend(u) {
                    indirect_only.potential_of(&view, u)
                } else {
                    scorer.potential_of(&view, u)
                };
                let better = match best {
                    None => true,
                    Some((bp, bb, bu)) => {
                        p > bp + 1e-12 || (p >= bp - 1e-12 && (b, u.index()) < (bb, bu.index()))
                    }
                };
                if better {
                    best = Some((p, b, u));
                }
            }
        }
        let Some((_, bot, target)) = best else { break };
        budgets[bot] -= 1;
        let accepted = crate::resolve_acceptance(instance, &observations[bot], realization, target);
        let gain = if accepted {
            observations[bot].record_acceptance(target, instance, realization);
            if union_benefit.is_friend(target) {
                MarginalGain::default() // second bot: no new union benefit
            } else {
                union_benefit.add_friend(instance, realization, target)
            }
        } else {
            observations[bot].record_rejection(target);
            MarginalGain::default()
        };
        trace.push(BotRequest {
            bot,
            target,
            accepted,
            gain,
        });
    }
    MultiBotOutcome {
        total_benefit: union_benefit.total(),
        per_bot_friends: observations.iter().map(|o| o.friends().to_vec()).collect(),
        cautious_compromised: union_benefit.cautious_friend_count(),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::{run_attack, AccuInstanceBuilder, UserClass};
    use osn_graph::GraphBuilder;

    /// Star with a cautious leaf needing two mutual friends.
    fn instance() -> AccuInstance {
        let g =
            GraphBuilder::from_edges(5, [(0u32, 1u32), (0, 2), (0, 3), (4, 1), (4, 2)]).unwrap();
        AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(4), UserClass::cautious(2))
            .benefits(NodeId::new(4), 50.0, 1.0)
            .build()
            .unwrap()
    }

    fn full(inst: &AccuInstance) -> Realization {
        Realization::from_parts(
            inst,
            vec![true; inst.graph().edge_count()],
            vec![true; inst.node_count()],
        )
        .unwrap()
    }

    #[test]
    fn single_bot_matches_sequential_abm() {
        let inst = instance();
        let real = full(&inst);
        let cfg = MultiBotConfig {
            bots: 1,
            per_bot_budget: 5,
            weights: AbmWeights::balanced(),
        };
        let multi = run_multi_bot_abm(&inst, &real, cfg);
        let mut abm = Abm::new(AbmWeights::balanced());
        let single = run_attack(&inst, &real, &mut abm, 5);
        assert_eq!(multi.total_benefit, single.total_benefit);
        assert_eq!(multi.cautious_compromised, single.cautious_friends);
        let multi_targets: Vec<NodeId> = multi.trace.iter().map(|r| r.target).collect();
        let single_targets: Vec<NodeId> = single.trace.iter().map(|r| r.target).collect();
        assert_eq!(multi_targets, single_targets);
    }

    #[test]
    fn budgets_are_respected_per_bot() {
        let inst = instance();
        let real = full(&inst);
        let cfg = MultiBotConfig {
            bots: 2,
            per_bot_budget: 2,
            weights: AbmWeights::balanced(),
        };
        assert_eq!(cfg.total_budget(), 4);
        let out = run_multi_bot_abm(&inst, &real, cfg);
        assert_eq!(out.trace.len(), 4);
        for b in 0..2 {
            let sent = out.trace.iter().filter(|r| r.bot == b).count();
            assert!(sent <= 2, "bot {b} sent {sent} requests");
        }
    }

    #[test]
    fn splitting_budget_blocks_cautious_users() {
        // Cautious user 4 needs 2 mutual friends *with the same bot*.
        // One bot with budget 3 can unlock it; three bots with budget 1
        // cannot.
        let inst = instance();
        let real = full(&inst);
        let one = run_multi_bot_abm(
            &inst,
            &real,
            MultiBotConfig {
                bots: 1,
                per_bot_budget: 3,
                weights: AbmWeights::balanced(),
            },
        );
        let split = run_multi_bot_abm(
            &inst,
            &real,
            MultiBotConfig {
                bots: 3,
                per_bot_budget: 1,
                weights: AbmWeights::balanced(),
            },
        );
        assert_eq!(one.cautious_compromised, 1, "{:?}", one.trace);
        assert_eq!(split.cautious_compromised, 0);
        assert!(one.total_benefit > split.total_benefit);
    }

    #[test]
    fn union_benefit_counts_each_user_once() {
        let inst = instance();
        let real = full(&inst);
        let cfg = MultiBotConfig {
            bots: 2,
            per_bot_budget: 5,
            weights: AbmWeights::balanced(),
        };
        let out = run_multi_bot_abm(&inst, &real, cfg);
        // Benefit equals a from-scratch evaluation of the distinct
        // friend union.
        let mut union: Vec<NodeId> = out.per_bot_friends.iter().flatten().copied().collect();
        union.sort_unstable();
        union.dedup();
        let recomputed = crate::benefit_of_friend_set(&inst, &real, &union);
        assert!((recomputed - out.total_benefit).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one bot")]
    fn zero_bots_panics() {
        let inst = instance();
        let real = full(&inst);
        run_multi_bot_abm(
            &inst,
            &real,
            MultiBotConfig {
                bots: 0,
                per_bot_budget: 1,
                weights: AbmWeights::balanced(),
            },
        );
    }

    #[test]
    fn scorer_name_is_stable() {
        // Guard: the multi-bot runner reuses ABM scoring.
        assert_eq!(Abm::new(AbmWeights::balanced()).name(), "ABM");
    }
}
