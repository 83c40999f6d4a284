//! Realizations of the stochastic network state (paper §II-B).
//!
//! A realization `φ` fixes every random variable of the instance: the
//! existence of every probabilistic edge (`X_uv`) and each user's
//! acceptance behavior (`X_u`). Acceptance is represented by one
//! **uniform draw per user** compared against the user's acceptance
//! curve `q_u(mutual)` ([`UserClass::acceptance_probability_at`]): the
//! user accepts iff `draw < q_u(mutual at request time)`. Since every
//! class's curve is non-decreasing in the mutual-friend count, this is
//! the *monotone coupling* — gaining mutual friends can only flip a
//! rejection into an acceptance:
//!
//! * reckless users (`q` constant): a plain Bernoulli outcome;
//! * cautious users (`0/1` at the threshold): deterministic;
//! * hesitant users (`q₁/q₂`): the three joint outcomes with
//!   probabilities `q₁, q₂−q₁, 1−q₂`;
//! * linear users (`min(1, base + slope·m)`): one outcome per mutual
//!   count band.
//!
//! A sampled realization is *keyed*: it stores one 64-bit episode key
//! and derives every outcome on demand, so an episode pays only for the
//! outcomes the attacker touches. [`Realization`] documents the mixer,
//! why the distribution and the coupling are unchanged, and why edges
//! follow the true instance's probabilities under a belief mismatch.

use osn_graph::{EdgeId, NodeId};
use rand::Rng;

use crate::fault::{splitmix64, GOLDEN_GAMMA};
use crate::{AccuError, AccuInstance, UserClass};

/// Sentinel draw forcing acceptance at every level (a zero-probability
/// outcome unless the curve's minimum is positive).
const ALWAYS: f64 = -1.0;
/// Sentinel draw forcing rejection at every level.
const NEVER: f64 = 2.0;

/// Salt that moves the acceptance draws to their own stream: user `u`
/// and edge `u` must not share a uniform.
const NODE_SALT: u64 = 0x6A09_E667_F3BC_C909;

/// The `id`-th output of the SplitMix64 stream seeded at `key`.
#[inline]
fn mix(key: u64, id: usize) -> u64 {
    splitmix64(key.wrapping_add((id as u64).wrapping_mul(GOLDEN_GAMMA)))
}

/// The top 53 bits of `x` as a uniform in `[0, 1)`.
#[inline]
pub(crate) fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A fully resolved random state of an ACCU instance: either *keyed*
/// (sampled) or *explicit* (built from given outcome vectors). Both
/// forms answer every query.
///
/// # Keyed outcomes
///
/// A sampled realization stores no outcomes. [`Realization::sample_into`]
/// draws one 64-bit *episode key*, and every outcome is derived on
/// demand from it by a counter-based SplitMix64 mixer: `mix(key, id)` is
/// the `id`-th output of the SplitMix64 stream seeded at `key`, i.e. the
/// SplitMix64 finalizer applied to `key + (id + 1)·γ`. With `unit(x)`
/// the top 53 bits of `x` as a uniform in `[0, 1)` (the conversion of
/// `Rng::gen::<f64>`):
///
/// * edge `e` exists iff `unit(mix(key, e)) < p(e)`;
/// * user `u`'s acceptance draw is `unit(mix(key ^ NODE_SALT, u))`.
///
/// Sampling therefore costs one RNG draw, and an episode pays only for
/// the outcomes the attacker actually touches (the neighborhoods it
/// reveals and the users it requests) instead of `O(m + n)` draws up
/// front.
///
/// The distribution is the one the paper defines. The finalizer is a
/// bijection on `u64`, so for a uniform key every single output is
/// exactly uniform: each edge exists with probability exactly `p(e)`
/// (the same comparison `Rng::gen_bool` makes) and each acceptance draw
/// is exactly uniform on the 53-bit grid. Distinct ids (and the salted
/// node stream) are as independent as the outputs of one SplitMix64
/// stream. The monotone coupling holds because a user's draw is a pure
/// function of `(key, u)`: it is the same uniform however often, in
/// whatever order, and at whatever mutual-friend count it is queried.
///
/// A keyed realization is evaluated against the instance passed to each
/// query, so the edge probability `p` is that instance's. The simulator
/// always passes the *true* instance, also when the policy plans with an
/// [`AttackOptions::believed`](crate::AttackOptions::believed) instance
/// of different probabilities: the realization is the world, the belief
/// only the attacker's model of it, so realized edges follow the truth's
/// `p`.
///
/// Explicit outcome vectors remain for realizations built from given
/// outcomes: [`Realization::from_parts`] and
/// [`Realization::from_parts_full`] (tests and worked examples) and the
/// exhaustive enumeration of [`theory`](crate::theory).
///
/// # Examples
///
/// ```
/// use accu_core::{AccuInstanceBuilder, Realization, UserClass};
/// use osn_graph::{GraphBuilder, NodeId};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let g = GraphBuilder::from_edges(2, [(0u32, 1u32)])?;
/// let inst = AccuInstanceBuilder::new(g)
///     .uniform_edge_probability(0.5)
///     .user_class(NodeId::new(0), UserClass::reckless(0.5))
///     .build()?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let real = Realization::sample(&inst, &mut rng);
/// let _exists = real.edge_exists(&inst, osn_graph::EdgeId::new(0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Realization {
    outcomes: Outcomes,
}

/// The two representations of a realization's outcomes.
#[derive(Debug, Clone, PartialEq)]
enum Outcomes {
    /// The episode key every outcome is derived from.
    Keyed(u64),
    /// Given outcomes: existence per edge, and the uniform acceptance
    /// draw per user (compared against the class's acceptance curve at
    /// the request-time mutual count).
    Explicit {
        edge_exists: Vec<bool>,
        draw: Vec<f64>,
    },
}

impl Realization {
    /// Samples a realization: each edge exists with its probability,
    /// each user receives an independent uniform acceptance draw. Draws
    /// one `u64` from `rng` (the episode key); `instance` is not read,
    /// since outcomes are evaluated against the instance each query is
    /// given.
    pub fn sample<R: Rng + ?Sized>(_instance: &AccuInstance, rng: &mut R) -> Self {
        Realization {
            outcomes: Outcomes::Keyed(rng.gen()),
        }
    }

    /// Resamples this realization in place: the same single draw as
    /// [`sample`](Self::sample), so the two give identical realizations
    /// for the same RNG state. Never allocates.
    pub fn sample_into<R: Rng + ?Sized>(&mut self, instance: &AccuInstance, rng: &mut R) {
        *self = Realization::sample(instance, rng);
    }

    /// The scratch-arena starting state, to be resampled by
    /// [`sample_into`](Self::sample_into): the keyed realization of key
    /// 0.
    pub fn empty() -> Self {
        Realization {
            outcomes: Outcomes::Keyed(0),
        }
    }

    /// Builds a realization from explicit outcome vectors.
    ///
    /// `edge_exists` is indexed by [`EdgeId`]; `accepts` is indexed by
    /// node and interpreted per class: for reckless users it fixes the
    /// Bernoulli outcome; for cautious users it is ignored (their
    /// behavior is deterministic); for hesitant and linear users it
    /// forces accept-at-any-level / reject-at-any-level — use
    /// [`from_parts_full`](Self::from_parts_full) for the intermediate
    /// patterns. Forcing an outcome of probability zero (e.g. rejection
    /// at `q = 1`) is allowed and yields [`probability`](Self::probability) 0.
    ///
    /// # Errors
    ///
    /// Returns [`AccuError::LengthMismatch`] if a vector length does not
    /// match the instance.
    pub fn from_parts(
        instance: &AccuInstance,
        edge_exists: Vec<bool>,
        accepts: Vec<bool>,
    ) -> Result<Self, AccuError> {
        if accepts.len() != instance.node_count() {
            return Err(AccuError::LengthMismatch {
                what: "acceptance outcomes",
                expected: instance.node_count(),
                actual: accepts.len(),
            });
        }
        let low: Vec<bool> = accepts
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                !matches!(
                    instance.user_class(NodeId::from(i)),
                    UserClass::Cautious { .. }
                ) && a
            })
            .collect();
        let high: Vec<bool> = accepts
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                matches!(
                    instance.user_class(NodeId::from(i)),
                    UserClass::Cautious { .. }
                ) || a
            })
            .collect();
        Self::from_parts_full(instance, edge_exists, low, high)
    }

    /// Builds a realization from explicit edge outcomes and the
    /// (minimum-level, maximum-level) acceptance pattern per user:
    /// `accept_low[u]` forces acceptance even at the curve's minimum,
    /// `accept_high[u]` controls acceptance at the curve's maximum.
    ///
    /// `(true, true)` = accepts at every level; `(false, true)` =
    /// accepts only once the curve has risen above its minimum (for
    /// threshold users: at the threshold); `(false, false)` = never
    /// accepts.
    ///
    /// # Errors
    ///
    /// Returns [`AccuError::LengthMismatch`] on wrong vector lengths and
    /// [`AccuError::InvalidProbability`] if some user has
    /// `accept_low = true` with `accept_high = false` (forbidden by the
    /// monotone coupling), or pattern `(false, true)` on a user whose
    /// curve is constant (there is no intermediate level to accept at).
    pub fn from_parts_full(
        instance: &AccuInstance,
        edge_exists: Vec<bool>,
        accept_low: Vec<bool>,
        accept_high: Vec<bool>,
    ) -> Result<Self, AccuError> {
        if edge_exists.len() != instance.graph().edge_count() {
            return Err(AccuError::LengthMismatch {
                what: "edge existence outcomes",
                expected: instance.graph().edge_count(),
                actual: edge_exists.len(),
            });
        }
        for (what, v) in [
            ("below-threshold outcomes", &accept_low),
            ("at-threshold outcomes", &accept_high),
        ] {
            if v.len() != instance.node_count() {
                return Err(AccuError::LengthMismatch {
                    what,
                    expected: instance.node_count(),
                    actual: v.len(),
                });
            }
        }
        let mut draw = Vec::with_capacity(accept_low.len());
        for i in 0..accept_low.len() {
            let (min_level, max_level) = instance
                .user_class(NodeId::from(i))
                .acceptance_probabilities();
            draw.push(match (accept_low[i], accept_high[i]) {
                (true, false) => {
                    return Err(AccuError::InvalidProbability {
                        what: "acceptance coupling (accept below but not at threshold)",
                        value: f64::NAN,
                    })
                }
                (true, true) => {
                    if min_level > 0.0 {
                        min_level / 2.0
                    } else {
                        ALWAYS // zero-probability forced acceptance
                    }
                }
                (false, true) => {
                    if min_level < max_level {
                        (min_level + max_level) / 2.0
                    } else {
                        return Err(AccuError::InvalidProbability {
                            what: "acceptance pattern (rise to acceptance on a flat curve)",
                            value: min_level,
                        });
                    }
                }
                (false, false) => {
                    if max_level < 1.0 {
                        (max_level + 1.0) / 2.0
                    } else {
                        NEVER // zero-probability forced rejection
                    }
                }
            });
        }
        Ok(Realization::from_raw(edge_exists, draw))
    }

    /// Whether edge `e` exists under this realization on `instance`
    /// (whose probability `p(e)` a keyed realization compares against).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge_exists(&self, instance: &AccuInstance, e: EdgeId) -> bool {
        match &self.outcomes {
            Outcomes::Keyed(key) => unit(mix(*key, e.index())) < instance.edge_probability(e),
            Outcomes::Explicit { edge_exists, .. } => edge_exists[e.index()],
        }
    }

    /// The acceptance outcome of `u` when it currently shares `mutual`
    /// friends with the attacker: `draw < q_u(mutual)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn accepts_at(&self, instance: &AccuInstance, u: NodeId, mutual: u32) -> bool {
        self.acceptance_draw(u) < instance.user_class(u).acceptance_probability_at(mutual)
    }

    /// The raw uniform acceptance draw of `u` (sentinels outside `[0,1)`
    /// encode forced outcomes from [`from_parts`](Self::from_parts)).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range of an explicit realization.
    #[inline]
    pub fn acceptance_draw(&self, u: NodeId) -> f64 {
        match &self.outcomes {
            Outcomes::Keyed(key) => unit(mix(key ^ NODE_SALT, u.index())),
            Outcomes::Explicit { draw, .. } => draw[u.index()],
        }
    }

    /// Builds a realization directly from raw outcome vectors (crate
    /// internal; used by exhaustive enumeration).
    pub(crate) fn from_raw(edge_exists: Vec<bool>, draw: Vec<f64>) -> Self {
        Realization {
            outcomes: Outcomes::Explicit { edge_exists, draw },
        }
    }

    /// Iterates over the realized (existing) neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn realized_neighbors<'a>(
        &'a self,
        instance: &'a AccuInstance,
        v: NodeId,
    ) -> impl Iterator<Item = NodeId> + 'a {
        instance
            .graph()
            .neighbor_entries(v)
            .filter(move |&(_, e)| self.edge_exists(instance, e))
            .map(|(w, _)| w)
    }

    /// Number of realized neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn realized_degree(&self, instance: &AccuInstance, v: NodeId) -> usize {
        self.realized_neighbors(instance, v).count()
    }

    /// Probability mass of this realization's *outcome class* on
    /// `instance`: the product of edge-outcome probabilities and, per
    /// user, the length of the draw's behavioral band. Sentinel (forced,
    /// zero-mass) outcomes contribute 0.
    pub fn probability(&self, instance: &AccuInstance) -> f64 {
        let mut p = 1.0f64;
        for i in 0..instance.graph().edge_count() {
            let e = EdgeId::from(i);
            let pe = instance.edge_probability(e);
            p *= if self.edge_exists(instance, e) {
                pe
            } else {
                1.0 - pe
            };
        }
        for i in 0..instance.node_count() {
            let u = NodeId::from(i);
            let d = self.acceptance_draw(u);
            if !(0.0..1.0).contains(&d) {
                return 0.0; // forced outcome with no probability mass
            }
            let cuts = instance.acceptance_cuts(u);
            let lo = cuts.iter().rev().find(|&&c| c <= d).copied().unwrap_or(0.0);
            let hi = cuts.iter().find(|&&c| c > d).copied().unwrap_or(1.0);
            p *= hi - lo;
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccuInstanceBuilder;
    use osn_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_path_instance(p: f64, q: f64) -> AccuInstance {
        let g = GraphBuilder::from_edges(3, [(0u32, 1u32), (1, 2)]).unwrap();
        AccuInstanceBuilder::new(g)
            .uniform_edge_probability(p)
            .user_classes(vec![
                UserClass::reckless(q),
                UserClass::reckless(q),
                UserClass::cautious(1),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn deterministic_instance_samples_deterministically() {
        let inst = two_path_instance(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let real = Realization::sample(&inst, &mut rng);
        assert!(real.edge_exists(&inst, EdgeId::new(0)));
        assert!(real.edge_exists(&inst, EdgeId::new(1)));
        assert!(real.accepts_at(&inst, NodeId::new(0), 0));
        // Cautious users: reject below threshold, accept at it.
        assert!(!real.accepts_at(&inst, NodeId::new(2), 0));
        assert!(real.accepts_at(&inst, NodeId::new(2), 1));
        assert!((real.probability(&inst) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_parts_validates_lengths() {
        let inst = two_path_instance(0.5, 0.5);
        assert!(Realization::from_parts(&inst, vec![true], vec![false; 3]).is_err());
        assert!(Realization::from_parts(&inst, vec![true; 2], vec![false]).is_err());
        let r =
            Realization::from_parts(&inst, vec![true, false], vec![true, false, false]).unwrap();
        assert!(r.edge_exists(&inst, EdgeId::new(0)));
        assert!(!r.edge_exists(&inst, EdgeId::new(1)));
        assert!(r.accepts_at(&inst, NodeId::new(0), 0));
        assert!(!r.accepts_at(&inst, NodeId::new(1), 0));
    }

    #[test]
    fn from_parts_full_rejects_anticoupled_outcomes() {
        let inst = two_path_instance(0.5, 0.5);
        let err = Realization::from_parts_full(
            &inst,
            vec![true; 2],
            vec![true, false, false],
            vec![false, true, true],
        )
        .unwrap_err();
        assert!(matches!(err, AccuError::InvalidProbability { .. }));
    }

    #[test]
    fn forced_zero_probability_outcomes_are_representable() {
        // Reckless q = 1 forced to reject: allowed, with probability 0.
        let inst = two_path_instance(1.0, 1.0);
        let r = Realization::from_parts(&inst, vec![true; 2], vec![false, true, true]).unwrap();
        assert!(!r.accepts_at(&inst, NodeId::new(0), 5));
        assert_eq!(r.probability(&inst), 0.0);
    }

    #[test]
    fn realized_neighbors_filter_missing_edges() {
        let inst = two_path_instance(0.5, 0.5);
        let r = Realization::from_parts(&inst, vec![true, false], vec![false; 3]).unwrap();
        let n1: Vec<NodeId> = r.realized_neighbors(&inst, NodeId::new(1)).collect();
        assert_eq!(n1, vec![NodeId::new(0)]);
        assert_eq!(r.realized_degree(&inst, NodeId::new(2)), 0);
        assert_eq!(r.realized_degree(&inst, NodeId::new(0)), 1);
    }

    #[test]
    fn probability_is_product_of_marginals() {
        let inst = two_path_instance(0.25, 0.5);
        // Both edges exist, both reckless accept:
        let r = Realization::from_parts(&inst, vec![true, true], vec![true, true, false]).unwrap();
        // 0.25 * 0.25 * 0.5 * 0.5 (cautious user contributes factor 1)
        assert!((r.probability(&inst) - 0.015625).abs() < 1e-12);
        // Opposite outcomes:
        let r =
            Realization::from_parts(&inst, vec![false, false], vec![false, false, false]).unwrap();
        assert!((r.probability(&inst) - 0.75 * 0.75 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn hesitant_outcomes_follow_the_coupled_distribution() {
        let g = GraphBuilder::from_edges(2, [(0u32, 1u32)]).unwrap();
        let inst = AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(0), UserClass::hesitant(0.2, 0.7, 1))
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let trials = 30_000;
        let (mut both, mut high_only, mut neither) = (0usize, 0usize, 0usize);
        for _ in 0..trials {
            let r = Realization::sample(&inst, &mut rng);
            match (
                r.accepts_at(&inst, NodeId::new(0), 0),
                r.accepts_at(&inst, NodeId::new(0), 1),
            ) {
                (true, true) => both += 1,
                (false, true) => high_only += 1,
                (false, false) => neither += 1,
                (true, false) => panic!("anticoupled sample"),
            }
        }
        let f = |c: usize| c as f64 / trials as f64;
        assert!((f(both) - 0.2).abs() < 0.02, "P(1,1) = {}", f(both));
        assert!(
            (f(high_only) - 0.5).abs() < 0.02,
            "P(0,1) = {}",
            f(high_only)
        );
        assert!((f(neither) - 0.3).abs() < 0.02, "P(0,0) = {}", f(neither));
    }

    #[test]
    fn hesitant_probability_patterns() {
        let g = GraphBuilder::from_edges(2, [(0u32, 1u32)]).unwrap();
        let inst = AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(0), UserClass::hesitant(0.2, 0.7, 1))
            .build()
            .unwrap();
        let p = |low, high| {
            Realization::from_parts_full(&inst, vec![true], vec![low, true], vec![high, true])
                .unwrap()
                .probability(&inst)
        };
        assert!((p(true, true) - 0.2).abs() < 1e-12);
        assert!((p(false, true) - 0.5).abs() < 1e-12);
        assert!((p(false, false) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn linear_acceptance_rises_with_mutual_friends() {
        // q(m) = min(1, 0.2 + 0.3·m) on a degree-3 user.
        let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (0, 2), (0, 3)]).unwrap();
        let inst = AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(0), UserClass::mutual_linear(0.2, 0.3))
            .build()
            .unwrap();
        // Pick a draw in [0.5, 0.8): rejects at m ≤ 1, accepts at m ≥ 2.
        let mut real = Realization::from_parts(&inst, vec![true; 3], vec![true; 4]).unwrap();
        if let Outcomes::Explicit { draw, .. } = &mut real.outcomes {
            draw[0] = 0.6;
        }
        assert!(!real.accepts_at(&inst, NodeId::new(0), 0)); // q = 0.2
        assert!(!real.accepts_at(&inst, NodeId::new(0), 1)); // q = 0.5
        assert!(real.accepts_at(&inst, NodeId::new(0), 2)); // q = 0.8
        assert!(real.accepts_at(&inst, NodeId::new(0), 3)); // q = 1 (capped)
                                                            // Its band is [0.5, 0.8) → mass 0.3.
        assert!((real.probability(&inst) - 0.3).abs() < 1e-12);
        // Cut points over mutual 0..=3: {0.2, 0.5, 0.8}.
        assert_eq!(inst.acceptance_cuts(NodeId::new(0)), vec![0.2, 0.5, 0.8]);
    }

    #[test]
    fn sampling_frequency_tracks_probability() {
        let inst = two_path_instance(0.3, 0.7);
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 20_000;
        let mut edge0 = 0usize;
        let mut accept0 = 0usize;
        for _ in 0..trials {
            let r = Realization::sample(&inst, &mut rng);
            edge0 += r.edge_exists(&inst, EdgeId::new(0)) as usize;
            accept0 += r.accepts_at(&inst, NodeId::new(0), 0) as usize;
        }
        let fe = edge0 as f64 / trials as f64;
        let fa = accept0 as f64 / trials as f64;
        assert!((fe - 0.3).abs() < 0.02, "edge frequency {fe}");
        assert!((fa - 0.7).abs() < 0.02, "acceptance frequency {fa}");
    }

    /// The explicit realization with the same outcomes as `real` on
    /// `inst`.
    fn materialize(real: &Realization, inst: &AccuInstance) -> Realization {
        let g = inst.graph();
        Realization::from_raw(
            (0..g.edge_count())
                .map(|i| real.edge_exists(inst, EdgeId::from(i)))
                .collect(),
            (0..g.node_count())
                .map(|i| real.acceptance_draw(NodeId::from(i)))
                .collect(),
        )
    }

    /// Hesitant, linear, cautious and reckless users on a 6-node graph
    /// whose edges have probabilities 0, 0.3, 0.5 and 1.
    fn mixed_instance() -> AccuInstance {
        let g = GraphBuilder::from_edges(
            6,
            [(0u32, 1u32), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)],
        )
        .unwrap();
        AccuInstanceBuilder::new(g)
            .edge_probabilities(vec![0.3, 0.5, 1.0, 0.0, 0.3, 0.5, 0.5])
            .user_classes(vec![
                UserClass::reckless(0.4),
                UserClass::hesitant(0.2, 0.7, 1),
                UserClass::mutual_linear(0.1, 0.3),
                UserClass::cautious(1),
                UserClass::reckless(1.0),
                UserClass::reckless(0.6),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn keyed_outcomes_are_a_pure_function_of_key_and_id() {
        let inst = mixed_instance();
        let (m, n) = (inst.graph().edge_count(), inst.node_count());
        for key in [0u64, 1, 42, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            let real = Realization {
                outcomes: Outcomes::Keyed(key),
            };
            let edges: Vec<bool> = (0..m)
                .map(|i| real.edge_exists(&inst, EdgeId::from(i)))
                .collect();
            let draws: Vec<f64> = (0..n)
                .map(|i| real.acceptance_draw(NodeId::from(i)))
                .collect();
            // A clone queried in reverse, nodes before edges, answers
            // the same.
            let clone = real.clone();
            for i in (0..n).rev() {
                let d = clone.acceptance_draw(NodeId::from(i));
                assert_eq!(d.to_bits(), draws[i].to_bits());
                assert!((0.0..1.0).contains(&d));
            }
            for i in (0..m).rev() {
                assert_eq!(clone.edge_exists(&inst, EdgeId::from(i)), edges[i]);
            }
            // Certain edges keep their certain outcomes.
            assert!(edges[2] && !edges[3]);
        }
        // The key is the whole state: one RNG draw, reproduced by
        // `sample` and `sample_into` from equal RNG states.
        let a = Realization::sample(&inst, &mut StdRng::seed_from_u64(5));
        let mut b = Realization::from_parts(&inst, vec![true; 7], vec![true; 6]).unwrap();
        b.sample_into(&inst, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
        assert_ne!(a, Realization::sample(&inst, &mut StdRng::seed_from_u64(6)));
    }

    #[test]
    fn keyed_probability_equals_that_of_its_materialization() {
        let inst = mixed_instance();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let real = Realization::sample(&inst, &mut rng);
            let explicit = materialize(&real, &inst);
            let p = real.probability(&inst);
            assert_eq!(p.to_bits(), explicit.probability(&inst).to_bits());
            // A sampled outcome class always has positive mass.
            assert!(p > 0.0 && p <= 1.0);
            for u in inst.graph().nodes() {
                for mutual in 0..4 {
                    assert_eq!(
                        real.accepts_at(&inst, u, mutual),
                        explicit.accepts_at(&inst, u, mutual)
                    );
                }
                assert!(real
                    .realized_neighbors(&inst, u)
                    .eq(explicit.realized_neighbors(&inst, u)));
            }
        }
    }

    #[test]
    fn keyed_edges_follow_the_queried_instance() {
        // One key, two instances on the same graph: p = 0 and p = 1
        // decide every edge, whatever the key.
        let never = two_path_instance(0.0, 0.5);
        let always = two_path_instance(1.0, 0.5);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let real = Realization::sample(&never, &mut rng);
            for e in [EdgeId::new(0), EdgeId::new(1)] {
                assert!(!real.edge_exists(&never, e));
                assert!(real.edge_exists(&always, e));
            }
        }
    }

    #[test]
    fn outcomes_are_pairwise_independent() {
        // Adjacent edge ids, and edge e against user e, must not share
        // a uniform: each joint frequency matches the product of the
        // marginals.
        let inst = two_path_instance(0.5, 0.3);
        let mut rng = StdRng::seed_from_u64(17);
        let trials = 40_000;
        let (mut both_edges, mut edge_and_accept, mut accept_pair) = (0usize, 0usize, 0usize);
        for _ in 0..trials {
            let r = Realization::sample(&inst, &mut rng);
            let e0 = r.edge_exists(&inst, EdgeId::new(0));
            let e1 = r.edge_exists(&inst, EdgeId::new(1));
            let a0 = r.accepts_at(&inst, NodeId::new(0), 0);
            let a1 = r.accepts_at(&inst, NodeId::new(1), 0);
            both_edges += usize::from(e0 && e1);
            edge_and_accept += usize::from(e0 && a0);
            accept_pair += usize::from(a0 && a1);
        }
        let f = |c: usize| c as f64 / trials as f64;
        assert!(
            (f(both_edges) - 0.25).abs() < 0.012,
            "P(e0, e1) = {}",
            f(both_edges)
        );
        assert!(
            (f(edge_and_accept) - 0.15).abs() < 0.012,
            "P(e0, a0) = {}",
            f(edge_and_accept)
        );
        assert!(
            (f(accept_pair) - 0.09).abs() < 0.012,
            "P(a0, a1) = {}",
            f(accept_pair)
        );
    }
}
