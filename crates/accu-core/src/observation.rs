//! Partial realizations — the attacker's accumulated observations `ω`.
//!
//! Sending a request reveals the target's decision; an acceptance also
//! reveals the target's entire true neighborhood (all incident edge
//! states). The observation tracks, per node, the exact mutual-friend
//! count `|N(v) ∩ N(s)|`: since every friend's incident edges are fully
//! revealed, this count is always complete from the attacker's viewpoint.

use osn_graph::{EdgeId, NodeId};

use crate::{AccuInstance, Realization};

/// Response state of a node from the attacker's viewpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// No request sent yet (`X_u = ?`).
    Unknown,
    /// Request sent and accepted (`X_u = 1`).
    Accepted,
    /// Request sent and rejected (`X_u = 0`).
    Rejected,
}

/// Existence state of an edge from the attacker's viewpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeState {
    /// Not yet revealed (`X_uv = ?`).
    Unknown,
    /// Revealed to exist.
    Present,
    /// Revealed to not exist.
    Absent,
}

/// The partial realization `ω`: everything the attacker has observed.
///
/// # Examples
///
/// ```
/// use accu_core::{AccuInstanceBuilder, NodeState, Observation, Realization};
/// use osn_graph::{GraphBuilder, NodeId};
///
/// let g = GraphBuilder::from_edges(2, [(0u32, 1u32)])?;
/// let inst = AccuInstanceBuilder::new(g).build()?;
/// let real = Realization::from_parts(&inst, vec![true], vec![true, true])?;
/// let mut obs = Observation::for_instance(&inst);
///
/// obs.record_acceptance(NodeId::new(0), &inst, &real);
/// assert_eq!(obs.node_state(NodeId::new(0)), NodeState::Accepted);
/// assert_eq!(obs.mutual_friends(NodeId::new(1)), 1); // via new friend 0
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    node_state: Vec<NodeState>,
    edge_state: Vec<EdgeState>,
    requests: Vec<NodeId>,
    friends: Vec<NodeId>,
    mutual: Vec<u32>,
    /// Mutual-friend count at the moment each node was requested
    /// (`u32::MAX` = not requested yet). Needed to resolve which of the
    /// two acceptance outcomes applied for threshold-gated users.
    mutual_at_request: Vec<u32>,
}

impl Observation {
    /// Creates the empty observation (`ω = ∅`) for an instance.
    pub fn for_instance(instance: &AccuInstance) -> Self {
        let mut obs = Observation::empty();
        obs.reset_for(instance);
        obs
    }

    /// An observation with no storage at all — the scratch-arena
    /// starting state, to be sized by [`reset_for`](Self::reset_for).
    pub fn empty() -> Self {
        Observation {
            node_state: Vec::new(),
            edge_state: Vec::new(),
            requests: Vec::new(),
            friends: Vec::new(),
            mutual: Vec::new(),
            mutual_at_request: Vec::new(),
        }
    }

    /// Rewinds this observation to `ω = ∅` for `instance`, reusing the
    /// existing buffers: equivalent to
    /// [`for_instance`](Self::for_instance) but allocation-free once
    /// the buffers have grown to the instance's size (the request and
    /// friend lists are sized for all `n` users up front).
    pub fn reset_for(&mut self, instance: &AccuInstance) {
        let n = instance.node_count();
        let m = instance.graph().edge_count();
        self.node_state.clear();
        self.node_state.resize(n, NodeState::Unknown);
        self.edge_state.clear();
        self.edge_state.resize(m, EdgeState::Unknown);
        self.requests.clear();
        self.requests.reserve(n);
        self.friends.clear();
        self.friends.reserve(n);
        self.mutual.clear();
        self.mutual.resize(n, 0);
        self.mutual_at_request.clear();
        self.mutual_at_request.resize(n, u32::MAX);
    }

    /// Response state of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn node_state(&self, u: NodeId) -> NodeState {
        self.node_state[u.index()]
    }

    /// Existence state of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge_state(&self, e: EdgeId) -> EdgeState {
        self.edge_state[e.index()]
    }

    /// The requests sent so far, in order (`dom(ω)` as a sequence).
    #[inline]
    pub fn requests(&self) -> &[NodeId] {
        &self.requests
    }

    /// The attacker's friends (accepted requests), in acceptance order.
    #[inline]
    pub fn friends(&self) -> &[NodeId] {
        &self.friends
    }

    /// Returns `true` if `u` has accepted the attacker's request.
    #[inline]
    pub fn is_friend(&self, u: NodeId) -> bool {
        self.node_state[u.index()] == NodeState::Accepted
    }

    /// Returns `true` if a request was already sent to `u`.
    #[inline]
    pub fn was_requested(&self, u: NodeId) -> bool {
        self.node_state[u.index()] != NodeState::Unknown
    }

    /// The exact mutual-friend count `|N(u) ∩ N(s)|`.
    ///
    /// Complete by construction: every friend's incident edges are
    /// revealed on acceptance.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn mutual_friends(&self, u: NodeId) -> u32 {
        self.mutual[u.index()]
    }

    /// Returns `true` if `u` is currently a friend-of-friend of the
    /// attacker (not a friend, at least one mutual friend).
    #[inline]
    pub fn is_friend_of_friend(&self, u: NodeId) -> bool {
        !self.is_friend(u) && self.mutual[u.index()] > 0
    }

    /// Records a rejected request to `u`. Nothing else is revealed.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range or was already requested.
    pub fn record_rejection(&mut self, u: NodeId) {
        assert_eq!(
            self.node_state[u.index()],
            NodeState::Unknown,
            "node {u} already requested"
        );
        self.node_state[u.index()] = NodeState::Rejected;
        self.mutual_at_request[u.index()] = self.mutual[u.index()];
        self.requests.push(u);
    }

    /// The mutual-friend count `u` had at the moment it was requested,
    /// or `None` if it has not been requested.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn mutual_friends_at_request(&self, u: NodeId) -> Option<u32> {
        let m = self.mutual_at_request[u.index()];
        (m != u32::MAX).then_some(m)
    }

    /// Records an accepted request to `u`: `u` becomes a friend and all
    /// its incident edge states are revealed from `realization`.
    ///
    /// Returns the newly revealed *realized* neighbors of `u` (useful
    /// for incremental policy updates).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range or was already requested.
    pub fn record_acceptance(
        &mut self,
        u: NodeId,
        instance: &AccuInstance,
        realization: &Realization,
    ) -> Vec<NodeId> {
        let mut realized = Vec::new();
        self.record_acceptance_into(u, instance, realization, &mut realized);
        realized
    }

    /// Allocation-free variant of
    /// [`record_acceptance`](Self::record_acceptance): the realized
    /// neighbors of `u`, in adjacency order, are appended to the
    /// caller's `realized` buffer instead of a freshly allocated `Vec`.
    ///
    /// Each incident edge is decided once, by one
    /// [`Realization::edge_exists`] query on `instance` (the true
    /// instance, whose `p` a keyed realization reads), and the reveal
    /// does not branch on the outcome: the edge state is stored
    /// unconditionally (an edge already revealed from its other end gets
    /// the same state again, since a realization's outcomes are fixed),
    /// the neighbor's mutual count grows by `u32::from(exists)`, and
    /// every neighbor is written at the buffer's write position, which
    /// then advances by `exists`. The buffer is the simulator's single
    /// record of the reveal: [`BenefitState::add_revealed_friend`]
    /// consumes it instead of re-walking the realization.
    ///
    /// [`BenefitState::add_revealed_friend`]: crate::BenefitState::add_revealed_friend
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range or was already requested.
    pub fn record_acceptance_into(
        &mut self,
        u: NodeId,
        instance: &AccuInstance,
        realization: &Realization,
        realized: &mut Vec<NodeId>,
    ) {
        assert_eq!(
            self.node_state[u.index()],
            NodeState::Unknown,
            "node {u} already requested"
        );
        self.node_state[u.index()] = NodeState::Accepted;
        self.mutual_at_request[u.index()] = self.mutual[u.index()];
        self.requests.push(u);
        self.friends.push(u);
        let graph = instance.graph();
        let mut end = realized.len();
        realized.resize(end + graph.degree(u), u);
        for (w, e) in graph.neighbor_entries(u) {
            let exists = realization.edge_exists(instance, e);
            self.edge_state[e.index()] = if exists {
                EdgeState::Present
            } else {
                EdgeState::Absent
            };
            // w gained a friend-neighbor (the new friend u) iff e exists.
            self.mutual[w.index()] += u32::from(exists);
            realized[end] = w;
            end += usize::from(exists);
        }
        realized.truncate(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccuInstanceBuilder, UserClass};
    use osn_graph::GraphBuilder;

    /// Triangle 0-1-2 plus pendant 3 attached to 2.
    fn instance() -> AccuInstance {
        let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (1, 2), (2, 0), (2, 3)]).unwrap();
        AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(3), UserClass::cautious(2))
            .build()
            .unwrap()
    }

    fn all_exists(inst: &AccuInstance) -> Realization {
        Realization::from_parts(
            inst,
            vec![true; inst.graph().edge_count()],
            vec![true; inst.node_count()],
        )
        .unwrap()
    }

    #[test]
    fn empty_observation() {
        let inst = instance();
        let obs = Observation::for_instance(&inst);
        assert_eq!(obs.node_state(NodeId::new(0)), NodeState::Unknown);
        assert_eq!(obs.edge_state(EdgeId::new(0)), EdgeState::Unknown);
        assert!(obs.requests().is_empty());
        assert!(obs.friends().is_empty());
        assert_eq!(obs.mutual_friends(NodeId::new(1)), 0);
        assert!(!obs.is_friend_of_friend(NodeId::new(1)));
    }

    #[test]
    fn acceptance_reveals_neighborhood_and_updates_mutual() {
        let inst = instance();
        let real = all_exists(&inst);
        let mut obs = Observation::for_instance(&inst);
        let revealed = obs.record_acceptance(NodeId::new(2), &inst, &real);
        assert_eq!(
            revealed,
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)]
        );
        assert!(obs.is_friend(NodeId::new(2)));
        assert_eq!(obs.mutual_friends(NodeId::new(0)), 1);
        assert_eq!(obs.mutual_friends(NodeId::new(3)), 1);
        assert!(obs.is_friend_of_friend(NodeId::new(3)));
        // All edges incident to 2 revealed; edge (0,1) still unknown.
        let e01 = inst
            .graph()
            .edge_id(NodeId::new(0), NodeId::new(1))
            .unwrap();
        assert_eq!(obs.edge_state(e01), EdgeState::Unknown);
    }

    #[test]
    fn rejection_reveals_nothing() {
        let inst = instance();
        let mut obs = Observation::for_instance(&inst);
        obs.record_rejection(NodeId::new(1));
        assert_eq!(obs.node_state(NodeId::new(1)), NodeState::Rejected);
        assert!(obs.was_requested(NodeId::new(1)));
        assert!(!obs.is_friend(NodeId::new(1)));
        assert!(obs.friends().is_empty());
        for e in 0..inst.graph().edge_count() {
            assert_eq!(obs.edge_state(EdgeId::from(e)), EdgeState::Unknown);
        }
    }

    #[test]
    fn missing_edges_recorded_absent() {
        let inst = instance();
        // Only edge (1,2) exists.
        let e12 = inst
            .graph()
            .edge_id(NodeId::new(1), NodeId::new(2))
            .unwrap();
        let mut exists = vec![false; inst.graph().edge_count()];
        exists[e12.index()] = true;
        let real = Realization::from_parts(&inst, exists, vec![true; 4]).unwrap();
        let mut obs = Observation::for_instance(&inst);
        let revealed = obs.record_acceptance(NodeId::new(2), &inst, &real);
        assert_eq!(revealed, vec![NodeId::new(1)]);
        assert_eq!(obs.mutual_friends(NodeId::new(0)), 0);
        assert_eq!(obs.mutual_friends(NodeId::new(3)), 0);
        let e02 = inst
            .graph()
            .edge_id(NodeId::new(0), NodeId::new(2))
            .unwrap();
        assert_eq!(obs.edge_state(e02), EdgeState::Absent);
    }

    #[test]
    fn mutual_counts_accumulate_over_friends() {
        let inst = instance();
        let real = all_exists(&inst);
        let mut obs = Observation::for_instance(&inst);
        obs.record_acceptance(NodeId::new(0), &inst, &real);
        obs.record_acceptance(NodeId::new(1), &inst, &real);
        // Node 2 is adjacent to both friends.
        assert_eq!(obs.mutual_friends(NodeId::new(2)), 2);
        // A friend's own mutual count also reflects adjacent friends.
        assert_eq!(obs.mutual_friends(NodeId::new(1)), 1);
        assert_eq!(obs.friends(), &[NodeId::new(0), NodeId::new(1)]);
        assert_eq!(obs.requests(), &[NodeId::new(0), NodeId::new(1)]);
    }

    #[test]
    fn mutual_at_request_is_frozen_at_request_time() {
        let inst = instance();
        let real = all_exists(&inst);
        let mut obs = Observation::for_instance(&inst);
        assert_eq!(obs.mutual_friends_at_request(NodeId::new(3)), None);
        // Reject 3 while it has 0 mutual friends.
        obs.record_rejection(NodeId::new(3));
        assert_eq!(obs.mutual_friends_at_request(NodeId::new(3)), Some(0));
        // Befriending 2 raises 3's *current* count but not the frozen one.
        obs.record_acceptance(NodeId::new(2), &inst, &real);
        assert_eq!(obs.mutual_friends(NodeId::new(3)), 1);
        assert_eq!(obs.mutual_friends_at_request(NodeId::new(3)), Some(0));
        // An acceptance also freezes the count at its request moment.
        obs.record_acceptance(NodeId::new(1), &inst, &real);
        assert_eq!(obs.mutual_friends_at_request(NodeId::new(1)), Some(1));
    }

    #[test]
    #[should_panic(expected = "already requested")]
    fn double_request_panics() {
        let inst = instance();
        let real = all_exists(&inst);
        let mut obs = Observation::for_instance(&inst);
        obs.record_acceptance(NodeId::new(0), &inst, &real);
        obs.record_rejection(NodeId::new(0));
    }
}
