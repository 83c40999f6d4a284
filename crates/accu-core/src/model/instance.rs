//! The ACCU problem instance (paper §II).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use osn_graph::{EdgeId, Graph, NodeId};

use crate::{AccuError, BenefitSchedule, UserClass};

/// Source of process-unique instance identities (see
/// [`AccuInstance::instance_id`]). Starts at 1 so 0 can serve as a
/// "no instance" sentinel in caches.
static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(1);

/// One threshold-gated neighbor in the [`CautiousIndex`]: the neighbor,
/// the connecting edge, and its cached threshold `θ` and benefit gap
/// `B_f − B_fof` — everything ABM's indirect-potential term needs,
/// laid out flat so the indirect-term scan touches no graph or class
/// storage.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CautiousNeighbor {
    /// The threshold-gated (cautious or hesitant) neighbor.
    pub(crate) node: NodeId,
    /// The edge connecting it to the row's owner.
    pub(crate) edge: EdgeId,
    /// The neighbor's mutual-friend threshold `θ`.
    pub(crate) theta: u32,
    /// The neighbor's benefit gap `B_f(v) − B_fof(v)`.
    pub(crate) gap: f64,
}

/// The fixed-point scale of one node's ABM sums: a power of two and its
/// exact reciprocal (see [`AccuInstance::row_scale`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowScale {
    /// `2^k`: a term `x` is stored as `(x · scale) as i64`.
    pub(crate) scale: f64,
    /// `2^−k`: a fixed-point sum `s` reads back as `s as f64 · inv`.
    pub(crate) inv: f64,
}

impl RowScale {
    /// The largest power of two `2^k` with `bound · 2^k < 2^61`, its
    /// exponent clamped to `±1022` so both it and its reciprocal are
    /// finite normal numbers. An infinite bound (benefits summing past
    /// `f64::MAX`) takes the smallest scale.
    fn for_bound(bound: f64) -> Self {
        // bound = m·2^e with m ∈ [0.5, 1), so bound·2^(61−e) < 2^61.
        let e = ((bound.to_bits() >> 52) & 0x7ff) as i32 - 1022;
        let k = if bound.is_finite() { 61 - e } else { -1022 };
        let k = k.clamp(-1022, 1022);
        let pow2 = |k: i32| f64::from_bits(((k + 1023) as u64) << 52);
        RowScale {
            scale: pow2(k),
            inv: pow2(-k),
        }
    }
}

/// CSR rows of threshold-gated neighbors, one row per node, entries in
/// sorted adjacency order, plus each node's [`RowScale`]. Precomputed
/// once per instance so the ABM potential's indirect term is a flat
/// slice scan instead of a full neighbor walk that re-derives class and
/// benefit data per entry.
#[derive(Debug, Clone)]
pub(crate) struct CautiousIndex {
    row_start: Vec<usize>,
    entries: Vec<CautiousNeighbor>,
    scales: Vec<RowScale>,
}

impl CautiousIndex {
    fn build(graph: &Graph, classes: &[UserClass], benefits: &BenefitSchedule) -> Self {
        let n = graph.node_count();
        let mut row_start = Vec::with_capacity(n + 1);
        row_start.push(0);
        let mut entries = Vec::new();
        let mut scales = Vec::with_capacity(n);
        for i in 0..n {
            let mut bound = 0.0;
            for (v, e) in graph.neighbor_entries(NodeId::from(i)) {
                bound += benefits.friend(v);
                if let Some(theta) = classes[v.index()].threshold() {
                    entries.push(CautiousNeighbor {
                        node: v,
                        edge: e,
                        theta,
                        gap: benefits.gap(v),
                    });
                }
            }
            row_start.push(entries.len());
            scales.push(RowScale::for_bound(bound));
        }
        CautiousIndex {
            row_start,
            entries,
            scales,
        }
    }

    #[inline]
    fn row(&self, u: NodeId) -> &[CautiousNeighbor] {
        &self.entries[self.row_start[u.index()]..self.row_start[u.index() + 1]]
    }
}

/// A complete instance of the Adaptive Crawling with Cautious Users
/// problem: the social graph, per-edge link-existence probabilities
/// `p: E → [0,1]`, per-user behavioral classes (reckless `q_u` / cautious
/// `θ_v`), and the benefit schedule.
///
/// The attacker `s` is modeled as an external actor with no initial
/// connections (equivalent to the paper's isolated node `s ∈ V`); its
/// growing friend set lives in the simulation state, not in the graph.
///
/// Construct instances with [`AccuInstanceBuilder`]. All model parameters
/// are considered public knowledge to the attacker, as in the paper's
/// experiments; only edge existence and reckless acceptance outcomes are
/// stochastic.
///
/// # Examples
///
/// ```
/// use accu_core::{AccuInstanceBuilder, UserClass};
/// use osn_graph::{GraphBuilder, NodeId};
///
/// // Fig. 1 of the paper: cautious v0 (θ=1), reckless v1 (q=1).
/// let g = GraphBuilder::from_edges(2, [(0u32, 1u32)])?;
/// let inst = AccuInstanceBuilder::new(g)
///     .uniform_edge_probability(1.0)
///     .user_class(NodeId::new(0), UserClass::cautious(1))
///     .user_class(NodeId::new(1), UserClass::reckless(1.0))
///     .uniform_benefits(2.0, 1.0)
///     .build()?;
/// assert!(inst.is_cautious(NodeId::new(0)));
/// assert_eq!(inst.cautious_users().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct AccuInstance {
    pub(crate) graph: Graph,
    pub(crate) edge_prob: Vec<f64>,
    pub(crate) classes: Vec<UserClass>,
    pub(crate) benefits: BenefitSchedule,
    pub(crate) cautious: Vec<NodeId>,
    cautious_index: CautiousIndex,
    instance_id: u64,
}

impl AccuInstance {
    /// Assembles an instance from already-validated parts, computing
    /// the cautious-user list and the cautious-neighbor CSR shared by
    /// every episode run on the instance.
    pub(crate) fn from_parts(
        graph: Graph,
        edge_prob: Vec<f64>,
        classes: Vec<UserClass>,
        benefits: BenefitSchedule,
    ) -> Self {
        let cautious = (0..classes.len())
            .map(NodeId::from)
            .filter(|v| classes[v.index()].is_cautious())
            .collect();
        let cautious_index = CautiousIndex::build(&graph, &classes, &benefits);
        AccuInstance {
            graph,
            edge_prob,
            classes,
            benefits,
            cautious,
            cautious_index,
            instance_id: NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A process-unique identity for this instance's parameter set,
    /// assigned at construction and shared by clones. Caches of
    /// instance-derived state key on it: equal ids guarantee equal
    /// parameters (clones of one build), while every fresh build gets
    /// an id never used before, so stale entries can never collide.
    #[inline]
    pub(crate) fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// The precomputed threshold-gated-neighbor row of `u`: every
    /// neighbor with a mutual-friend threshold, in sorted adjacency
    /// order, with its connecting edge, cached `θ`, and benefit gap.
    #[inline]
    pub(crate) fn cautious_row(&self, u: NodeId) -> &[CautiousNeighbor] {
        self.cautious_index.row(u)
    }

    /// The fixed-point scale of `u`'s ABM sums: the largest power of two
    /// that keeps `Σ_{v ∈ N(u)} B_f(v)` below `2^61`. That sum bounds
    /// both of `u`'s potential sums (`p ≤ 1`, `θ − m ≥ 1` and
    /// `B_fof, B_f − B_fof ≤ B_f`), so neither can overflow an `i64`,
    /// and a row of tiny benefits keeps its precision however large
    /// the benefits elsewhere in the instance.
    #[inline]
    pub(crate) fn row_scale(&self, u: NodeId) -> RowScale {
        self.cautious_index.scales[u.index()]
    }

    /// The distinct interior cut points of `u`'s acceptance curve over
    /// mutual-friend counts `0..=degree(u)` (see
    /// [`UserClass::acceptance_cuts`]). Only exhaustive enumeration
    /// reads them, so they are derived on each call.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn acceptance_cuts(&self, u: NodeId) -> Vec<f64> {
        self.classes[u.index()].acceptance_cuts(self.graph.degree(u) as u32)
    }

    /// A builder holding this instance's parameters, so a variant that
    /// differs in a few attributes sets only those before
    /// [`build`](AccuInstanceBuilder::build).
    pub fn to_builder(&self) -> AccuInstanceBuilder {
        AccuInstanceBuilder {
            graph: self.graph.clone(),
            edge_prob: self.edge_prob.clone(),
            classes: self.classes.clone(),
            friend_benefit: self.benefits.friend.clone(),
            fof_benefit: self.benefits.fof.clone(),
        }
    }

    /// The social graph topology.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Takes the instance apart and hands back its graph unchanged, so
    /// another parameter set can be applied to the same topology
    /// without copying it.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Number of users.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Link-existence probability of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge_probability(&self, e: EdgeId) -> f64 {
        self.edge_prob[e.index()]
    }

    /// Behavioral class of user `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn user_class(&self, u: NodeId) -> UserClass {
        self.classes[u.index()]
    }

    /// Returns `true` if `u` is cautious.
    #[inline]
    pub fn is_cautious(&self, u: NodeId) -> bool {
        self.classes[u.index()].is_cautious()
    }

    /// Mutual-friend threshold of `u` (cautious users only).
    #[inline]
    pub fn threshold(&self, u: NodeId) -> Option<u32> {
        self.classes[u.index()].threshold()
    }

    /// Acceptance probability of `u` (reckless users only).
    #[inline]
    pub fn acceptance_probability(&self, u: NodeId) -> Option<f64> {
        self.classes[u.index()].acceptance_probability()
    }

    /// The benefit schedule.
    #[inline]
    pub fn benefits(&self) -> &BenefitSchedule {
        &self.benefits
    }

    /// All cautious users, sorted by id.
    #[inline]
    pub fn cautious_users(&self) -> &[NodeId] {
        &self.cautious
    }

    /// Number of binary random variables of the instance: one per
    /// uncertain edge (existence) plus `ceil(log2(bands))` per user,
    /// where a user's bands are the behavioral equivalence classes of
    /// its acceptance draw (1 for cautious, up to 2 for reckless, up to
    /// 3 for hesitant, up to `degree + 2` for linear users). Governs the
    /// cost of exhaustive enumeration.
    pub fn random_bits(&self) -> usize {
        let uncertain_edges = self
            .edge_prob
            .iter()
            .filter(|&&p| p > 0.0 && p < 1.0)
            .count();
        let user_bits: usize = (0..self.node_count())
            .map(|i| {
                let bands = self.acceptance_cuts(NodeId::from(i)).len() + 1;
                bands.next_power_of_two().trailing_zeros() as usize
            })
            .sum();
        uncertain_edges + user_bits
    }
}

impl fmt::Debug for AccuInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AccuInstance")
            .field("nodes", &self.node_count())
            .field("edges", &self.graph.edge_count())
            .field("cautious", &self.cautious.len())
            .finish()
    }
}

/// Builder for [`AccuInstance`].
///
/// Defaults: every edge probability `1.0`, every user
/// `Reckless {{ acceptance: 1.0 }}`, benefits `B_f = 2`, `B_fof = 1`
/// (the paper's reckless-user defaults).
#[derive(Debug, Clone)]
pub struct AccuInstanceBuilder {
    graph: Graph,
    edge_prob: Vec<f64>,
    classes: Vec<UserClass>,
    friend_benefit: Vec<f64>,
    fof_benefit: Vec<f64>,
}

impl AccuInstanceBuilder {
    /// Starts building an instance over `graph`.
    pub fn new(graph: Graph) -> Self {
        let n = graph.node_count();
        let m = graph.edge_count();
        AccuInstanceBuilder {
            graph,
            edge_prob: vec![1.0; m],
            classes: vec![UserClass::reckless(1.0); n],
            friend_benefit: vec![2.0; n],
            fof_benefit: vec![1.0; n],
        }
    }

    /// Sets every edge's existence probability to `p`.
    pub fn uniform_edge_probability(mut self, p: f64) -> Self {
        self.edge_prob.fill(p);
        self
    }

    /// Sets the existence probability of one edge.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range. Value validity is checked at
    /// [`build`](Self::build).
    pub fn edge_probability(mut self, e: EdgeId, p: f64) -> Self {
        self.edge_prob[e.index()] = p;
        self
    }

    /// Replaces the full edge-probability vector (indexed by [`EdgeId`]).
    pub fn edge_probabilities(mut self, probs: Vec<f64>) -> Self {
        self.edge_prob = probs;
        self
    }

    /// Sets the class of one user.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn user_class(mut self, u: NodeId, class: UserClass) -> Self {
        self.classes[u.index()] = class;
        self
    }

    /// Replaces the full user-class vector (indexed by node).
    pub fn user_classes(mut self, classes: Vec<UserClass>) -> Self {
        self.classes = classes;
        self
    }

    /// Sets uniform benefits for all users.
    pub fn uniform_benefits(mut self, bf: f64, bfof: f64) -> Self {
        self.friend_benefit.fill(bf);
        self.fof_benefit.fill(bfof);
        self
    }

    /// Sets the benefits of one user.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn benefits(mut self, u: NodeId, bf: f64, bfof: f64) -> Self {
        self.friend_benefit[u.index()] = bf;
        self.fof_benefit[u.index()] = bfof;
        self
    }

    /// Validates and builds the instance.
    ///
    /// This is the one check of the model's value ranges, so every
    /// [`AccuInstance`] satisfies them. The structural preconditions a
    /// valid instance can still break are
    /// [`validate_instance`](crate::validate_instance)'s.
    ///
    /// # Errors
    ///
    /// * [`AccuError::LengthMismatch`] if a replaced attribute vector has
    ///   the wrong length;
    /// * [`AccuError::InvalidProbability`] if any edge or acceptance
    ///   probability is outside `[0, 1]`;
    /// * [`AccuError::ZeroThreshold`] if a cautious or hesitant user has
    ///   `θ = 0`;
    /// * [`AccuError::InvalidBenefit`] if any user violates
    ///   `B_f ≥ B_fof ≥ 0`.
    pub fn build(self) -> Result<AccuInstance, AccuError> {
        let n = self.graph.node_count();
        let m = self.graph.edge_count();
        if self.edge_prob.len() != m {
            return Err(AccuError::LengthMismatch {
                what: "edge probabilities",
                expected: m,
                actual: self.edge_prob.len(),
            });
        }
        if self.classes.len() != n {
            return Err(AccuError::LengthMismatch {
                what: "user classes",
                expected: n,
                actual: self.classes.len(),
            });
        }
        for &p in &self.edge_prob {
            if !(0.0..=1.0).contains(&p) {
                return Err(AccuError::InvalidProbability {
                    what: "edge existence",
                    value: p,
                });
            }
        }
        for (i, c) in self.classes.iter().enumerate() {
            match c {
                UserClass::Reckless { acceptance } => {
                    if !(0.0..=1.0).contains(acceptance) {
                        return Err(AccuError::InvalidProbability {
                            what: "friend request acceptance",
                            value: *acceptance,
                        });
                    }
                }
                UserClass::Cautious { threshold } => {
                    if *threshold == 0 {
                        return Err(AccuError::ZeroThreshold {
                            node: NodeId::from(i),
                        });
                    }
                }
                UserClass::Hesitant {
                    below,
                    at_or_above,
                    threshold,
                } => {
                    if *threshold == 0 {
                        return Err(AccuError::ZeroThreshold {
                            node: NodeId::from(i),
                        });
                    }
                    for &q in [below, at_or_above] {
                        if !(0.0..=1.0).contains(&q) {
                            return Err(AccuError::InvalidProbability {
                                what: "friend request acceptance",
                                value: q,
                            });
                        }
                    }
                    if below > at_or_above {
                        return Err(AccuError::InvalidProbability {
                            what: "hesitant acceptance (q1 must not exceed q2)",
                            value: *below,
                        });
                    }
                }
                UserClass::MutualLinear { base, slope } => {
                    if !(0.0..=1.0).contains(base) {
                        return Err(AccuError::InvalidProbability {
                            what: "linear acceptance base",
                            value: *base,
                        });
                    }
                    if !slope.is_finite() || *slope < 0.0 {
                        return Err(AccuError::InvalidProbability {
                            what: "linear acceptance slope (must be non-negative)",
                            value: *slope,
                        });
                    }
                }
            }
        }
        let benefits = BenefitSchedule::new(self.friend_benefit, self.fof_benefit)?;
        Ok(AccuInstance::from_parts(
            self.graph,
            self.edge_prob,
            self.classes,
            benefits,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    fn triangle() -> Graph {
        GraphBuilder::from_edges(3, [(0u32, 1u32), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn builder_defaults_are_reckless_certain() {
        let inst = AccuInstanceBuilder::new(triangle()).build().unwrap();
        assert_eq!(inst.node_count(), 3);
        assert!(inst.cautious_users().is_empty());
        assert_eq!(inst.acceptance_probability(NodeId::new(0)), Some(1.0));
        assert_eq!(inst.edge_probability(EdgeId::new(0)), 1.0);
        assert_eq!(inst.benefits().friend(NodeId::new(1)), 2.0);
    }

    #[test]
    fn builder_rejects_bad_probabilities() {
        let err = AccuInstanceBuilder::new(triangle())
            .uniform_edge_probability(1.5)
            .build()
            .unwrap_err();
        assert!(matches!(err, AccuError::InvalidProbability { .. }));
        let err = AccuInstanceBuilder::new(triangle())
            .user_class(NodeId::new(0), UserClass::reckless(-0.1))
            .build()
            .unwrap_err();
        assert!(matches!(err, AccuError::InvalidProbability { .. }));
    }

    #[test]
    fn builder_rejects_zero_threshold_and_bad_lengths() {
        let err = AccuInstanceBuilder::new(triangle())
            .user_class(NodeId::new(2), UserClass::cautious(0))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            AccuError::ZeroThreshold {
                node: NodeId::new(2)
            }
        );
        let err = AccuInstanceBuilder::new(triangle())
            .edge_probabilities(vec![0.5; 2])
            .build()
            .unwrap_err();
        assert!(matches!(err, AccuError::LengthMismatch { .. }));
        let err = AccuInstanceBuilder::new(triangle())
            .user_classes(vec![UserClass::reckless(1.0); 5])
            .build()
            .unwrap_err();
        assert!(matches!(err, AccuError::LengthMismatch { .. }));
    }

    #[test]
    fn cautious_users_are_sorted_and_classified() {
        let inst = AccuInstanceBuilder::new(triangle())
            .user_class(NodeId::new(2), UserClass::cautious(1))
            .user_class(NodeId::new(0), UserClass::cautious(2))
            .build()
            .unwrap();
        assert_eq!(inst.cautious_users(), &[NodeId::new(0), NodeId::new(2)]);
        assert!(inst.is_cautious(NodeId::new(0)));
        assert!(!inst.is_cautious(NodeId::new(1)));
        assert_eq!(inst.threshold(NodeId::new(0)), Some(2));
        assert_eq!(inst.threshold(NodeId::new(1)), None);
    }

    #[test]
    fn random_bits_counts_only_uncertain_variables() {
        let inst = AccuInstanceBuilder::new(triangle())
            .edge_probabilities(vec![0.0, 0.5, 1.0])
            .user_classes(vec![
                UserClass::reckless(0.3),
                UserClass::reckless(1.0),
                UserClass::cautious(1),
            ])
            .build()
            .unwrap();
        // One uncertain edge (0.5) + one uncertain user (0.3).
        assert_eq!(inst.random_bits(), 2);
    }

    #[test]
    fn debug_summarizes() {
        let inst = AccuInstanceBuilder::new(triangle()).build().unwrap();
        let s = format!("{inst:?}");
        assert!(s.contains("nodes: 3"));
    }
}
