//! The paper's experiment parameter protocol (§IV-A).
//!
//! * Edge existence probabilities and reckless acceptance probabilities
//!   are drawn uniformly from `[0, 1)`.
//! * Benefits: `B_f = 2` for reckless users, `B_fof = 1` for everyone;
//!   the cautious friend benefit is a parameter (50 in the main
//!   comparison, swept in the sensitivity heat maps).
//! * Cautious users: drawn from the degree band `[10, 100]`, pairwise
//!   non-adjacent, 100 per network; each threshold is a fixed fraction of
//!   the user's degree (30% in the main comparison).

use std::error::Error as StdError;
use std::fmt;

use accu_core::{AccuError, AccuInstance, AccuInstanceBuilder, UserClass};
use osn_graph::algo::nodes_with_degree_in;
use osn_graph::{Graph, NodeId};
use rand::Rng;

/// Errors produced while applying the experiment protocol.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// A [`ProtocolConfig`] field holds a degenerate value.
    InvalidParameter {
        /// The offending field, e.g. `"threshold_fraction"`.
        what: &'static str,
        /// The violated constraint, human-readable.
        requirement: &'static str,
        /// The value supplied.
        value: f64,
    },
    /// The assembled instance failed the builder's checks, e.g. a
    /// benefit violating `B_f ≥ B_fof ≥ 0`
    /// ([`AccuError::InvalidBenefit`]).
    Instance(AccuError),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::InvalidParameter {
                what,
                requirement,
                value,
            } => {
                write!(
                    f,
                    "invalid protocol parameter {what} = {value}: {requirement}"
                )
            }
            ProtocolError::Instance(e) => write!(f, "protocol produced an invalid instance: {e}"),
        }
    }
}

impl StdError for ProtocolError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            ProtocolError::Instance(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AccuError> for ProtocolError {
    fn from(e: AccuError) -> Self {
        ProtocolError::Instance(e)
    }
}

/// Parameters of the §IV-A experiment setup.
///
/// The [`Default`] matches the paper's main comparison: 100 cautious
/// users from the `[10, 100]` degree band, thresholds at 30% of degree,
/// cautious friend benefit 50.
///
/// # Examples
///
/// ```
/// use accu_datasets::ProtocolConfig;
///
/// let cfg = ProtocolConfig::default();
/// assert_eq!(cfg.cautious_count, 100);
/// assert_eq!(cfg.threshold_fraction, 0.3);
/// let small = ProtocolConfig { cautious_count: 10, ..ProtocolConfig::default() };
/// assert_eq!(small.cautious_friend_benefit, 50.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Number of cautious users to select (paper: 100).
    pub cautious_count: usize,
    /// Inclusive degree band cautious users are drawn from (paper:
    /// `[10, 100]`).
    pub degree_band: (usize, usize),
    /// Threshold as a fraction of the cautious user's degree (paper:
    /// 0.3); rounded up, clamped to at least 1.
    pub threshold_fraction: f64,
    /// `B_f` of cautious users (paper: 50 in the main comparison).
    pub cautious_friend_benefit: f64,
    /// `B_f` of reckless users (paper: 2).
    pub reckless_friend_benefit: f64,
    /// `B_fof` of every user (paper: 1).
    pub fof_benefit: f64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            cautious_count: 100,
            degree_band: (10, 100),
            threshold_fraction: 0.3,
            cautious_friend_benefit: 50.0,
            reckless_friend_benefit: 2.0,
            fof_benefit: 1.0,
        }
    }
}

impl ProtocolConfig {
    /// Checks the config for degenerate parameters: a NaN, infinite or
    /// negative `threshold_fraction`, a zero `cautious_count`, or an
    /// inverted degree band.
    ///
    /// [`apply_protocol`] calls this before touching the graph, so a bad
    /// sweep value fails with a typed error naming the parameter instead
    /// of silently producing a degenerate experiment cell. Benefits are
    /// not checked here: `B_f ≥ B_fof ≥ 0` is the instance builder's
    /// rule, and [`apply_protocol`] reports a violation as
    /// [`ProtocolError::Instance`]. A cautious `B_f` reaches the builder
    /// only through a selected cautious user, so a bad one passes when
    /// the degree band yields none.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidParameter`] naming the first
    /// offending field.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        if self.cautious_count == 0 {
            return Err(ProtocolError::InvalidParameter {
                what: "cautious_count",
                requirement: "must be at least 1",
                value: 0.0,
            });
        }
        if self.degree_band.0 > self.degree_band.1 {
            return Err(ProtocolError::InvalidParameter {
                what: "degree_band",
                requirement: "lower bound must not exceed upper bound",
                value: self.degree_band.0 as f64,
            });
        }
        if !self.threshold_fraction.is_finite() || self.threshold_fraction < 0.0 {
            return Err(ProtocolError::InvalidParameter {
                what: "threshold_fraction",
                requirement: "must be finite and non-negative",
                value: self.threshold_fraction,
            });
        }
        Ok(())
    }

    /// Scales the cautious-user count for a down-scaled network (e.g.
    /// `0.1` for a 1/10th-size graph), keeping at least one.
    pub fn scaled_cautious(mut self, factor: f64) -> Self {
        self.cautious_count = ((self.cautious_count as f64 * factor) as usize).max(1);
        self
    }

    /// Computes the threshold for a cautious user of the given degree:
    /// `max(1, ceil(threshold_fraction · degree))`.
    pub fn threshold_for_degree(&self, degree: usize) -> u32 {
        ((self.threshold_fraction * degree as f64).ceil() as u32).max(1)
    }
}

/// Selects cautious users per the paper's procedure: shuffle the degree
/// band, then keep a [`greedy_independent_set`] in that order.
///
/// Returns the selected nodes, sorted by id.
pub fn select_cautious_users<R: Rng + ?Sized>(
    graph: &Graph,
    band: (usize, usize),
    count: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    let mut candidates = nodes_with_degree_in(graph, band.0, band.1);
    // Fisher–Yates shuffle for an unbiased selection order.
    for i in (1..candidates.len()).rev() {
        let j = rng.gen_range(0..=i);
        candidates.swap(i, j);
    }
    let mut chosen = greedy_independent_set(graph, &candidates, count);
    chosen.sort_unstable();
    chosen
}

/// Walks `ordered` and greedily keeps each node not adjacent to one
/// already kept, until `count` nodes are kept or the order runs out.
/// Returns them in the order kept.
pub fn greedy_independent_set(graph: &Graph, ordered: &[NodeId], count: usize) -> Vec<NodeId> {
    let mut chosen: Vec<NodeId> = Vec::with_capacity(count);
    let mut blocked = vec![false; graph.node_count()];
    for &v in ordered {
        if chosen.len() == count {
            break;
        }
        if blocked[v.index()] {
            continue;
        }
        chosen.push(v);
        blocked[v.index()] = true;
        for &w in graph.neighbors(v) {
            blocked[w.index()] = true;
        }
    }
    chosen
}

/// Builds a full ACCU instance from a graph using the paper's protocol:
/// random parameters, cautious-user selection, thresholds, and benefits.
///
/// # Errors
///
/// Returns [`ProtocolError::InvalidParameter`] for a degenerate config
/// (checked up front by [`ProtocolConfig::validate`]) and
/// [`ProtocolError::Instance`] when the builder rejects the assembled
/// instance: a benefit violating `B_f ≥ B_fof ≥ 0` on some user
/// ([`AccuError::InvalidBenefit`]). A bad cautious `B_f` is set on no
/// user, and so builds, when the degree band yields no cautious user.
///
/// # Examples
///
/// ```
/// use accu_datasets::{apply_protocol, DatasetSpec, ProtocolConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let g = DatasetSpec::facebook().scaled(0.1).generate(&mut rng)?;
/// let cfg = ProtocolConfig { cautious_count: 10, ..ProtocolConfig::default() };
/// let inst = apply_protocol(g, &cfg, &mut rng)?;
/// assert_eq!(inst.cautious_users().len(), 10);
/// assert!(accu_core::validate_instance(&inst).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn apply_protocol<R: Rng + ?Sized>(
    graph: Graph,
    config: &ProtocolConfig,
    rng: &mut R,
) -> Result<AccuInstance, ProtocolError> {
    config.validate()?;
    let n = graph.node_count();
    let m = graph.edge_count();
    let cautious = select_cautious_users(&graph, config.degree_band, config.cautious_count, rng);
    let edge_probs: Vec<f64> = (0..m).map(|_| rng.gen_range(0.0..1.0)).collect();
    let mut classes: Vec<UserClass> = (0..n)
        .map(|_| UserClass::reckless(rng.gen_range(0.0..1.0)))
        .collect();
    let mut friend_benefits = vec![config.reckless_friend_benefit; n];
    for &v in &cautious {
        classes[v.index()] = UserClass::cautious(config.threshold_for_degree(graph.degree(v)));
        friend_benefits[v.index()] = config.cautious_friend_benefit;
    }
    let mut builder = AccuInstanceBuilder::new(graph)
        .edge_probabilities(edge_probs)
        .user_classes(classes);
    for (i, &bf) in friend_benefits.iter().enumerate() {
        builder = builder.benefits(NodeId::from(i), bf, config.fof_benefit);
    }
    builder.build().map_err(ProtocolError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetSpec;
    use osn_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn threshold_rounding() {
        let cfg = ProtocolConfig::default();
        assert_eq!(cfg.threshold_for_degree(10), 3);
        assert_eq!(cfg.threshold_for_degree(11), 4); // ceil(3.3)
        assert_eq!(cfg.threshold_for_degree(1), 1);
        assert_eq!(cfg.threshold_for_degree(0), 1); // clamped
        let tight = ProtocolConfig {
            threshold_fraction: 0.9,
            ..ProtocolConfig::default()
        };
        assert_eq!(tight.threshold_for_degree(10), 9);
    }

    #[test]
    fn scaled_cautious_keeps_at_least_one() {
        let cfg = ProtocolConfig::default().scaled_cautious(0.001);
        assert_eq!(cfg.cautious_count, 1);
        let cfg = ProtocolConfig::default().scaled_cautious(0.25);
        assert_eq!(cfg.cautious_count, 25);
    }

    #[test]
    fn cautious_selection_is_an_independent_set_in_band() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = DatasetSpec::facebook()
            .scaled(0.2)
            .generate(&mut rng)
            .unwrap();
        let chosen = select_cautious_users(&g, (10, 100), 30, &mut rng);
        assert!(!chosen.is_empty());
        for &v in &chosen {
            assert!(
                (10..=100).contains(&g.degree(v)),
                "degree {} out of band",
                g.degree(v)
            );
        }
        for (i, &a) in chosen.iter().enumerate() {
            for &b in &chosen[i + 1..] {
                assert!(!g.has_edge(a, b), "cautious users {a}, {b} adjacent");
            }
        }
    }

    #[test]
    fn selection_exhausts_gracefully() {
        // A triangle: once one node is picked, the rest are adjacent.
        let g = GraphBuilder::from_edges(3, [(0u32, 1u32), (1, 2), (2, 0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let chosen = select_cautious_users(&g, (1, 10), 3, &mut rng);
        assert_eq!(chosen.len(), 1);
        // Empty band:
        let chosen = select_cautious_users(&g, (5, 10), 3, &mut rng);
        assert!(chosen.is_empty());
    }

    #[test]
    fn protocol_instance_matches_paper_setup() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = DatasetSpec::facebook()
            .scaled(0.2)
            .generate(&mut rng)
            .unwrap();
        let cfg = ProtocolConfig {
            cautious_count: 20,
            ..ProtocolConfig::default()
        };
        let inst = apply_protocol(g, &cfg, &mut rng).unwrap();
        assert_eq!(inst.cautious_users().len(), 20);
        assert!(accu_core::validate_instance(&inst).is_ok());
        for v in inst.graph().nodes() {
            let b = inst.benefits();
            if inst.is_cautious(v) {
                assert_eq!(b.friend(v), 50.0);
                let theta = inst.threshold(v).unwrap();
                assert_eq!(theta, cfg.threshold_for_degree(inst.graph().degree(v)));
            } else {
                assert_eq!(b.friend(v), 2.0);
                let q = inst.acceptance_probability(v).unwrap();
                assert!((0.0..1.0).contains(&q));
            }
            assert_eq!(b.friend_of_friend(v), 1.0);
        }
    }

    #[test]
    fn protocol_is_deterministic_per_seed() {
        let make = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = DatasetSpec::facebook()
                .scaled(0.1)
                .generate(&mut rng)
                .unwrap();
            apply_protocol(
                g,
                &ProtocolConfig {
                    cautious_count: 5,
                    ..Default::default()
                },
                &mut rng,
            )
            .unwrap()
        };
        let a = make(5);
        let b = make(5);
        assert_eq!(a.cautious_users(), b.cautious_users());
        assert_eq!(
            a.edge_probability(osn_graph::EdgeId::new(0)),
            b.edge_probability(osn_graph::EdgeId::new(0))
        );
    }

    #[test]
    fn validate_accepts_default_and_paper_sweep_configs() {
        ProtocolConfig::default().validate().unwrap();
        // The fig6/fig7 heatmap axes: B_f in 20..=60, fraction in 0.1..=0.5.
        for bf in [20.0, 30.0, 40.0, 50.0, 60.0] {
            for tf in [0.1, 0.2, 0.3, 0.4, 0.5] {
                ProtocolConfig {
                    cautious_friend_benefit: bf,
                    threshold_fraction: tf,
                    ..Default::default()
                }
                .validate()
                .unwrap();
            }
        }
    }

    #[test]
    fn validate_rejects_degenerate_parameters_with_typed_errors() {
        let cases: [(ProtocolConfig, &str); 4] = [
            (
                ProtocolConfig {
                    cautious_count: 0,
                    ..Default::default()
                },
                "cautious_count",
            ),
            (
                ProtocolConfig {
                    degree_band: (100, 10),
                    ..Default::default()
                },
                "degree_band",
            ),
            (
                ProtocolConfig {
                    threshold_fraction: f64::NAN,
                    ..Default::default()
                },
                "threshold_fraction",
            ),
            (
                ProtocolConfig {
                    threshold_fraction: -0.3,
                    ..Default::default()
                },
                "threshold_fraction",
            ),
        ];
        for (cfg, field) in cases {
            match cfg.validate().unwrap_err() {
                ProtocolError::InvalidParameter { what, .. } => assert_eq!(what, field),
                other => panic!("expected InvalidParameter, got {other:?}"),
            }
        }
    }

    /// `apply_protocol` on a Facebook stand-in whose degree band yields
    /// cautious users.
    fn protocol_on_cautious_graph(cfg: &ProtocolConfig) -> Result<AccuInstance, ProtocolError> {
        let mut rng = StdRng::seed_from_u64(3);
        let g = DatasetSpec::facebook()
            .scaled(0.1)
            .generate(&mut rng)
            .unwrap();
        assert!(!select_cautious_users(&g, cfg.degree_band, 1, &mut rng.clone()).is_empty());
        apply_protocol(g, cfg, &mut rng)
    }

    #[test]
    fn the_builder_rejects_benefits_out_of_order() {
        for cfg in [
            ProtocolConfig {
                fof_benefit: -1.0,
                ..Default::default()
            },
            ProtocolConfig {
                reckless_friend_benefit: 0.5, // below fof_benefit = 1.0
                ..Default::default()
            },
            ProtocolConfig {
                cautious_friend_benefit: 0.5,
                ..Default::default()
            },
            ProtocolConfig {
                cautious_friend_benefit: f64::INFINITY,
                ..Default::default()
            },
        ] {
            assert!(cfg.validate().is_ok(), "validate leaves benefits alone");
            match protocol_on_cautious_graph(&cfg).unwrap_err() {
                ProtocolError::Instance(AccuError::InvalidBenefit { .. }) => {}
                other => panic!("expected InvalidBenefit, got {other:?}"),
            }
        }
    }

    #[test]
    fn benefit_parameter_errors_name_the_paper_symbol() {
        // Downstream quarantine reporting keys off the B_f symbol, so the
        // message must carry it.
        let err = protocol_on_cautious_graph(&ProtocolConfig {
            cautious_friend_benefit: 0.5,
            ..Default::default()
        })
        .unwrap_err();
        assert!(err.to_string().contains("B_f"), "message: {err}");
    }

    #[test]
    fn a_bad_cautious_benefit_builds_when_no_user_is_cautious() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = DatasetSpec::facebook()
            .scaled(0.1)
            .generate(&mut rng)
            .unwrap();
        let cfg = ProtocolConfig {
            degree_band: (g.node_count(), g.node_count()),
            cautious_friend_benefit: 0.5,
            ..Default::default()
        };
        let inst = apply_protocol(g, &cfg, &mut rng).unwrap();
        assert!(inst.cautious_users().is_empty());
    }

    #[test]
    fn into_graph_hands_back_the_graph_apply_protocol_was_given() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = DatasetSpec::facebook()
            .scaled(0.05)
            .generate(&mut rng)
            .unwrap();
        let generated = rng.clone();
        let first = apply_protocol(g.clone(), &ProtocolConfig::default(), &mut rng).unwrap();
        let back = first.into_graph();
        assert!(back == g, "the topology must come back unchanged");
        // A second protocol on the handed-back graph, drawn from the
        // stream as generation left it, builds what a fresh graph would.
        let tight = ProtocolConfig {
            threshold_fraction: 0.5,
            ..ProtocolConfig::default()
        };
        let reused = apply_protocol(back, &tight, &mut generated.clone()).unwrap();
        let fresh = apply_protocol(g, &tight, &mut generated.clone()).unwrap();
        assert_eq!(reused.cautious_users(), fresh.cautious_users());
        for u in 0..fresh.node_count() {
            let u = NodeId::from(u);
            assert_eq!(reused.user_class(u), fresh.user_class(u));
        }
    }

    #[test]
    fn apply_protocol_rejects_bad_config_before_touching_the_graph() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = DatasetSpec::facebook()
            .scaled(0.05)
            .generate(&mut rng)
            .unwrap();
        let err = apply_protocol(
            g,
            &ProtocolConfig {
                threshold_fraction: f64::INFINITY,
                ..Default::default()
            },
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::InvalidParameter {
                what: "threshold_fraction",
                ..
            }
        ));
    }
}
