//! The benefit objective `f(π, φ)` (paper Eq. 1) and its incremental
//! evaluation.

use osn_graph::NodeId;

use crate::{AccuInstance, Realization};

/// A marginal benefit, decomposed by the class of the user the benefit
/// came from (the split shown in the paper's Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MarginalGain {
    /// Benefit components contributed by cautious users.
    pub from_cautious: f64,
    /// Benefit components contributed by reckless users.
    pub from_reckless: f64,
}

impl MarginalGain {
    /// Total marginal benefit.
    pub fn total(&self) -> f64 {
        self.from_cautious + self.from_reckless
    }
}

impl std::ops::Add for MarginalGain {
    type Output = MarginalGain;
    fn add(self, rhs: MarginalGain) -> MarginalGain {
        MarginalGain {
            from_cautious: self.from_cautious + rhs.from_cautious,
            from_reckless: self.from_reckless + rhs.from_reckless,
        }
    }
}

impl std::ops::AddAssign for MarginalGain {
    fn add_assign(&mut self, rhs: MarginalGain) {
        self.from_cautious += rhs.from_cautious;
        self.from_reckless += rhs.from_reckless;
    }
}

/// Incremental evaluation of the benefit of a growing friend set under a
/// fixed realization.
///
/// Maintains the friend set `F` and friend-of-friend set `FOF` (over
/// realized edges) and the running total
/// `Σ_{u∈F} B_f(u) + Σ_{v∈FOF} B_fof(v)`. A new friend's realized
/// neighbors come either from the realization
/// ([`add_friend`](Self::add_friend)) or from the list the observation
/// just revealed ([`add_revealed_friend`](Self::add_revealed_friend),
/// the simulator's path, which decides no edge a second time).
///
/// # Examples
///
/// ```
/// use accu_core::{AccuInstanceBuilder, BenefitState, Realization};
/// use osn_graph::{GraphBuilder, NodeId};
///
/// let g = GraphBuilder::from_edges(2, [(0u32, 1u32)])?;
/// let inst = AccuInstanceBuilder::new(g).build()?; // B_f=2, B_fof=1
/// let real = Realization::from_parts(&inst, vec![true], vec![true, true])?;
/// let mut state = BenefitState::new(&inst);
/// let gain = state.add_friend(&inst, &real, NodeId::new(0));
/// assert_eq!(gain.total(), 3.0); // B_f(0) + B_fof(1)
/// let gain = state.add_friend(&inst, &real, NodeId::new(1));
/// assert_eq!(gain.total(), 1.0); // B_f(1) − B_fof(1): upgrade fof → friend
/// assert_eq!(state.total(), 4.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BenefitState {
    friend: Vec<bool>,
    fof: Vec<bool>,
    total: f64,
    friend_count: usize,
    cautious_friend_count: usize,
}

impl BenefitState {
    /// Creates the empty state (no friends, benefit 0).
    pub fn new(instance: &AccuInstance) -> Self {
        let mut state = BenefitState::empty();
        state.reset_for(instance);
        state
    }

    /// A state with no storage — to be sized by
    /// [`reset_for`](Self::reset_for) before use.
    pub fn empty() -> Self {
        BenefitState {
            friend: Vec::new(),
            fof: Vec::new(),
            total: 0.0,
            friend_count: 0,
            cautious_friend_count: 0,
        }
    }

    /// Rewinds this state to the empty friend set for `instance`,
    /// reusing the existing buffers: equivalent to [`new`](Self::new)
    /// but allocation-free once the buffers have grown to the
    /// instance's size.
    pub fn reset_for(&mut self, instance: &AccuInstance) {
        let n = instance.node_count();
        self.friend.clear();
        self.friend.resize(n, false);
        self.fof.clear();
        self.fof.resize(n, false);
        self.total = 0.0;
        self.friend_count = 0;
        self.cautious_friend_count = 0;
    }

    /// Current total benefit.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of friends.
    #[inline]
    pub fn friend_count(&self) -> usize {
        self.friend_count
    }

    /// Number of cautious friends.
    #[inline]
    pub fn cautious_friend_count(&self) -> usize {
        self.cautious_friend_count
    }

    /// Returns `true` if `u` is in the friend set.
    #[inline]
    pub fn is_friend(&self, u: NodeId) -> bool {
        self.friend[u.index()]
    }

    /// Returns `true` if `u` is in the friend-of-friend set.
    #[inline]
    pub fn is_friend_of_friend(&self, u: NodeId) -> bool {
        self.fof[u.index()]
    }

    /// Adds `u` to the friend set and returns the decomposed marginal
    /// gain: `B_f(u)` (minus `B_fof(u)` if `u` was already a
    /// friend-of-friend) plus `B_fof(v)` for every realized neighbor `v`
    /// of `u` that newly becomes a friend-of-friend.
    ///
    /// # Panics
    ///
    /// Panics if `u` is already a friend or out of range.
    pub fn add_friend(
        &mut self,
        instance: &AccuInstance,
        realization: &Realization,
        u: NodeId,
    ) -> MarginalGain {
        self.add_friend_with(instance, u, realization.realized_neighbors(instance, u))
    }

    /// [`add_friend`](Self::add_friend) given `u`'s realized neighbors
    /// instead of the realization: `revealed` must list them in
    /// adjacency order, as
    /// [`Observation::record_acceptance_into`](crate::Observation::record_acceptance_into)
    /// writes them. The simulator passes that list, so each incident
    /// edge of a new friend is decided once per episode; the gain is
    /// bit-identical to [`add_friend`](Self::add_friend)'s, term for
    /// term in the same order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is already a friend, or `u` or a listed neighbor
    /// is out of range.
    pub fn add_revealed_friend(
        &mut self,
        instance: &AccuInstance,
        u: NodeId,
        revealed: &[NodeId],
    ) -> MarginalGain {
        self.add_friend_with(instance, u, revealed.iter().copied())
    }

    fn add_friend_with(
        &mut self,
        instance: &AccuInstance,
        u: NodeId,
        realized_neighbors: impl Iterator<Item = NodeId>,
    ) -> MarginalGain {
        assert!(!self.friend[u.index()], "node {u} is already a friend");
        let mut gain = MarginalGain::default();
        let benefits = instance.benefits();
        let own = benefits.friend(u)
            - if self.fof[u.index()] {
                benefits.friend_of_friend(u)
            } else {
                0.0
            };
        if instance.is_cautious(u) {
            gain.from_cautious += own;
        } else {
            gain.from_reckless += own;
        }
        self.friend[u.index()] = true;
        self.fof[u.index()] = false;
        self.friend_count += 1;
        if instance.is_cautious(u) {
            self.cautious_friend_count += 1;
        }
        for v in realized_neighbors {
            if !self.friend[v.index()] && !self.fof[v.index()] {
                self.fof[v.index()] = true;
                let b = benefits.friend_of_friend(v);
                if instance.is_cautious(v) {
                    gain.from_cautious += b;
                } else {
                    gain.from_reckless += b;
                }
            }
        }
        self.total += gain.total();
        gain
    }
}

/// Benefit of a fixed friend set `F` under a realization: evaluates
/// Eq. (1) from scratch.
///
/// # Panics
///
/// Panics if any node is out of range or listed twice.
pub fn benefit_of_friend_set(
    instance: &AccuInstance,
    realization: &Realization,
    friends: &[NodeId],
) -> f64 {
    let mut state = BenefitState::new(instance);
    for &u in friends {
        state.add_friend(instance, realization, u);
    }
    state.total()
}

/// Outcome of sending requests to a *set* of users under one
/// realization, using order-free set semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSetOutcome {
    /// Users that accept, sorted by id.
    pub accepted: Vec<NodeId>,
    /// Total benefit of the resulting friend set.
    pub benefit: f64,
}

/// Evaluates `f(S, φ)`: the benefit when requests are sent to the set
/// `S` in the most favorable order.
///
/// Reckless targets accept according to the realization. Cautious targets
/// accept iff their realized mutual-friend count against the *final*
/// accepted set reaches the threshold, computed as a monotone fixpoint
/// (equivalent to requesting cautious users last; with the paper's
/// assumption that cautious users are pairwise non-adjacent a single pass
/// suffices, but the fixpoint also covers general instances).
///
/// This is the set-function semantics used in the paper's theoretical
/// analysis (the submodularity-ratio inequality (5) and Lemmas 2–5);
/// sequential execution by [`run_attack`](crate::run_attack) can only do
/// worse on cautious users it requests too early.
///
/// # Panics
///
/// Panics if any target is out of range or listed twice.
pub fn benefit_of_request_set(
    instance: &AccuInstance,
    realization: &Realization,
    targets: &[NodeId],
) -> RequestSetOutcome {
    let mut in_set = vec![false; instance.node_count()];
    for &u in targets {
        assert!(!in_set[u.index()], "duplicate target {u}");
        in_set[u.index()] = true;
    }
    // Monotone fixpoint: every class's acceptance curve is non-decreasing
    // in the mutual-friend count and the coupled draw is fixed, so
    // accepted users only ever accumulate. The first pass resolves users
    // whose curve admits acceptance at zero mutual friends.
    let mut accepted = vec![false; instance.node_count()];
    loop {
        let mut changed = false;
        for &u in targets {
            if accepted[u.index()] {
                continue;
            }
            let mutual = realization
                .realized_neighbors(instance, u)
                .filter(|w| accepted[w.index()])
                .count() as u32;
            if realization.accepts_at(instance, u, mutual) {
                accepted[u.index()] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let accepted: Vec<NodeId> = (0..instance.node_count())
        .filter(|&i| accepted[i])
        .map(NodeId::from)
        .collect();
    let benefit = benefit_of_friend_set(instance, realization, &accepted);
    RequestSetOutcome { accepted, benefit }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccuInstanceBuilder, UserClass};
    use osn_graph::GraphBuilder;

    /// Star: hub 0 with leaves 1, 2, 3; leaf 3 cautious with θ = 1.
    fn star_instance() -> AccuInstance {
        let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (0, 2), (0, 3)]).unwrap();
        AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(3), UserClass::cautious(1))
            .benefits(NodeId::new(3), 50.0, 1.0)
            .build()
            .unwrap()
    }

    fn full_realization(inst: &AccuInstance) -> Realization {
        Realization::from_parts(
            inst,
            vec![true; inst.graph().edge_count()],
            vec![true; inst.node_count()],
        )
        .unwrap()
    }

    #[test]
    fn gains_decompose_by_class() {
        let inst = star_instance();
        let real = full_realization(&inst);
        let mut state = BenefitState::new(&inst);
        let gain = state.add_friend(&inst, &real, NodeId::new(0));
        // B_f(0)=2 + B_fof(1)=1 + B_fof(2)=1 reckless; B_fof(3)=1 cautious.
        assert_eq!(gain.from_reckless, 4.0);
        assert_eq!(gain.from_cautious, 1.0);
        assert_eq!(state.total(), 5.0);
        let gain = state.add_friend(&inst, &real, NodeId::new(3));
        // Upgrade: B_f(3) − B_fof(3) = 49, all cautious.
        assert_eq!(gain.from_cautious, 49.0);
        assert_eq!(gain.from_reckless, 0.0);
        assert_eq!(state.cautious_friend_count(), 1);
        assert_eq!(state.friend_count(), 2);
    }

    #[test]
    fn fof_not_double_counted() {
        let inst = star_instance();
        let real = full_realization(&inst);
        let mut state = BenefitState::new(&inst);
        state.add_friend(&inst, &real, NodeId::new(1));
        // 0 became fof via 1.
        assert!(state.is_friend_of_friend(NodeId::new(0)));
        let gain = state.add_friend(&inst, &real, NodeId::new(2));
        // 0 is already fof: only B_f(2) = 2 gained.
        assert_eq!(gain.total(), 2.0);
    }

    #[test]
    fn missing_edges_block_fof() {
        let inst = star_instance();
        let real = Realization::from_parts(&inst, vec![false; 3], vec![true; 4]).unwrap();
        let b = benefit_of_friend_set(&inst, &real, &[NodeId::new(0)]);
        assert_eq!(b, 2.0); // no realized neighbors, no fof benefit
    }

    #[test]
    fn request_set_semantics_let_cautious_accept() {
        let inst = star_instance();
        let real = full_realization(&inst);
        // Requesting {3} alone: cautious, 0 mutual friends → rejected.
        let out = benefit_of_request_set(&inst, &real, &[NodeId::new(3)]);
        assert!(out.accepted.is_empty());
        assert_eq!(out.benefit, 0.0);
        // Requesting {0, 3}: 0 accepts, making 3's threshold reachable.
        let out = benefit_of_request_set(&inst, &real, &[NodeId::new(0), NodeId::new(3)]);
        assert_eq!(out.accepted, vec![NodeId::new(0), NodeId::new(3)]);
        // B_f(0)=2 + B_f(3)=50 + B_fof(1)+B_fof(2)=2
        assert_eq!(out.benefit, 54.0);
    }

    #[test]
    fn request_set_respects_reckless_rejections() {
        let inst = star_instance();
        let mut accepts = vec![true; 4];
        accepts[0] = false; // hub rejects
        let real = Realization::from_parts(&inst, vec![true; 3], accepts).unwrap();
        let out = benefit_of_request_set(&inst, &real, &[NodeId::new(0), NodeId::new(3)]);
        assert!(out.accepted.is_empty());
        assert_eq!(out.benefit, 0.0);
    }

    #[test]
    fn fixpoint_handles_chained_cautious_users() {
        // 0 (reckless) - 1 (cautious θ=1) - 2 (cautious θ=1): violates the
        // paper's non-adjacency assumption, but set semantics still give
        // the monotone closure.
        let g = GraphBuilder::from_edges(3, [(0u32, 1u32), (1, 2)]).unwrap();
        let inst = AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(1), UserClass::cautious(1))
            .user_class(NodeId::new(2), UserClass::cautious(1))
            .build()
            .unwrap();
        let real = Realization::from_parts(&inst, vec![true; 2], vec![true; 3]).unwrap();
        let out = benefit_of_request_set(
            &inst,
            &real,
            &[NodeId::new(0), NodeId::new(1), NodeId::new(2)],
        );
        assert_eq!(out.accepted.len(), 3); // 0 unlocks 1 which unlocks 2
    }

    #[test]
    #[should_panic(expected = "already a friend")]
    fn double_add_panics() {
        let inst = star_instance();
        let real = full_realization(&inst);
        let mut state = BenefitState::new(&inst);
        state.add_friend(&inst, &real, NodeId::new(0));
        state.add_friend(&inst, &real, NodeId::new(0));
    }

    #[test]
    fn marginal_gain_arithmetic() {
        let a = MarginalGain {
            from_cautious: 1.0,
            from_reckless: 2.0,
        };
        let b = MarginalGain {
            from_cautious: 0.5,
            from_reckless: 0.25,
        };
        let c = a + b;
        assert_eq!(c.total(), 3.75);
        let mut d = MarginalGain::default();
        d += c;
        assert_eq!(d.from_cautious, 1.5);
    }
}
