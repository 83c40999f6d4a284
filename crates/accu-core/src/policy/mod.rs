//! Adaptive attack policies.
//!
//! A [`Policy`] decides, given the attacker's current view, which user to
//! send the next friend request to. The paper's algorithm is
//! [`Abm`]; [`MaxDegree`], [`PageRankPolicy`] and [`Random`] are the
//! comparison baselines of §IV, and [`pure_greedy`] is the classical
//! adaptive greedy recovered by `w_D = 1, w_I = 0`.

mod abm;
mod baselines;
mod batch;
mod centrality;
mod multi_bot;
mod ranking;
mod snowball;

pub use abm::{abm_metrics, Abm, AbmWeights};
pub use baselines::{MaxDegree, PageRankPolicy, Random};
pub use batch::{run_batched_abm, BatchOutcome};
pub use centrality::{CentralityKind, CentralityPolicy};
pub use multi_bot::{run_multi_bot_abm, BotRequest, MultiBotConfig, MultiBotOutcome};
pub use snowball::Snowball;

use osn_graph::NodeId;

use crate::AttackerView;

/// An adaptive strategy `π`: selects request targets one at a time, and
/// is told the outcome of each request.
///
/// Policies only ever see an [`AttackerView`] — model parameters plus the
/// observation — never the underlying realization.
pub trait Policy {
    /// Human-readable policy name (used in experiment output).
    fn name(&self) -> &str;

    /// Called once before an attack episode. Policies with episode state
    /// (caches, orderings, RNG positions) reset it here.
    fn reset(&mut self, view: &AttackerView<'_>);

    /// Picks the next request target among `view.candidates()`, or
    /// `None` to stop early (e.g. no candidates remain).
    fn select(&mut self, view: &AttackerView<'_>) -> Option<NodeId>;

    /// Notifies the policy of a request outcome. `newly_revealed` holds
    /// the realized neighbors of `target` revealed by an acceptance
    /// (empty on rejection). The observation inside `view` has already
    /// been updated.
    fn observe(
        &mut self,
        view: &AttackerView<'_>,
        target: NodeId,
        accepted: bool,
        newly_revealed: &[NodeId],
    ) {
        let _ = (view, target, accepted, newly_revealed);
    }
}

/// The classical adaptive greedy of earlier crawling papers: ABM with
/// `w_D = 1, w_I = 0` (the configuration covered by Theorem 1).
///
/// # Examples
///
/// ```
/// use accu_core::policy::{pure_greedy, Policy};
/// assert_eq!(pure_greedy().name(), "Greedy");
/// ```
pub fn pure_greedy() -> Abm {
    Abm::with_name(AbmWeights::new(1.0, 0.0), "Greedy")
}
