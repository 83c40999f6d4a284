//! Paper-precondition sentinel: the structural preconditions a built
//! instance can break, instance validation, and deterministic repair for
//! degraded-mode execution.
//!
//! The paper's model (§II-A) has two kinds of rule. Value ranges —
//! probabilities in `[0, 1]`, `θ_v ≥ 1`, `B_f ≥ B_fof ≥ 0` — are
//! enforced where values enter the program, by
//! [`AccuInstanceBuilder::build`](crate::AccuInstanceBuilder::build), so
//! every [`AccuInstance`] already satisfies them. The ACCU analysis (§IV
//! `1 − e^{−λ}` guarantee) also rests on structural preconditions that
//! such an instance can still break: cautious users pairwise
//! non-adjacent, every cautious `v` reachable through at least `θ_v`
//! reckless neighbors, the strict benefit gap `B_f > B_fof` of
//! Theorem 1, and a first request some user can accept. This module
//! checks those *as data*: [`validate_instance`] returns either an
//! [`InstanceReport`] or the full list of typed [`Violation`]s, each
//! tagged fatal vs repairable, and [`repair_instance`] deterministically
//! fixes the repairable ones so a campaign can proceed in degraded mode —
//! with the λ-guarantee explicitly flagged void — instead of aborting or
//! silently producing unsound numbers.
//!
//! Repair is pure and seedless: every fix is a function of the violating
//! value (and, for demotions, the node id), so repairing the same input
//! twice yields bit-identical instances and never perturbs the experiment
//! RNG streams. Clean inputs are returned untouched.

use std::fmt;
use std::str::FromStr;

use osn_graph::{Graph, NodeId};

use crate::fault::splitmix64;
use crate::{AccuInstance, BenefitSchedule, UserClass};

/// Well-known validation metric names recorded by the experiment runner.
pub mod validate_metrics {
    /// Violations found across all ingested networks (pre-repair).
    pub const VIOLATIONS: &str = "validate.violations";
    /// Networks that needed at least one repair (degraded mode).
    pub const REPAIRED_NETWORKS: &str = "validate.repaired_networks";
    /// Networks rejected outright (strict mode or fatal violation).
    pub const REJECTED_NETWORKS: &str = "validate.rejected_networks";
    /// Users whose collapsed benefit gap was restored.
    pub const BENEFIT_FIXES: &str = "validate.benefit_fixes";
    /// Cautious users demoted to reckless to restore preconditions.
    pub const DEMOTED_USERS: &str = "validate.demoted_users";
    /// Networks executed with the `1 − e^{−λ}` guarantee void.
    pub const LAMBDA_GUARANTEE_VOID: &str = "validate.lambda_guarantee_void";
}

/// When the repaired `B_f` would otherwise equal `B_fof`, the gap is
/// bumped by at least this much (scaled up until representable).
const MIN_BENEFIT_GAP: f64 = 1e-9;

/// How ingestion treats instances that violate the paper preconditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationMode {
    /// No validation: trust the input (pre-PR behavior, bit-identical).
    Off,
    /// Any violation rejects the instance with the full violation list.
    Strict,
    /// Repairable violations are deterministically fixed and the run
    /// continues in degraded mode; only fatal violations reject.
    #[default]
    Lenient,
}

impl ValidationMode {
    /// The repair mode this validation mode maps to, or `None` for
    /// [`ValidationMode::Off`].
    pub fn repair_mode(self) -> Option<RepairMode> {
        match self {
            ValidationMode::Off => None,
            ValidationMode::Strict => Some(RepairMode::Strict),
            ValidationMode::Lenient => Some(RepairMode::Lenient),
        }
    }
}

impl fmt::Display for ValidationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationMode::Off => write!(f, "off"),
            ValidationMode::Strict => write!(f, "strict"),
            ValidationMode::Lenient => write!(f, "lenient"),
        }
    }
}

impl FromStr for ValidationMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(ValidationMode::Off),
            "strict" => Ok(ValidationMode::Strict),
            "lenient" => Ok(ValidationMode::Lenient),
            other => Err(format!(
                "unknown validation mode {other:?} (expected strict, lenient or off)"
            )),
        }
    }
}

/// Whether the repair pass may fix repairable violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairMode {
    /// Do not repair: any violation is an error.
    Strict,
    /// Fix repairable violations deterministically; only fatal ones error.
    Lenient,
}

/// A violated structural precondition found by [`validate_instance`].
///
/// Each variant maps to a precondition of the paper (see DESIGN.md §8):
/// repairable violations void only the theoretical guarantees, fatal ones
/// make the instance meaningless to simulate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Violation {
    /// A user has `B_f = B_fof`, voiding Theorem 1's strict-gap
    /// requirement.
    BenefitGapCollapsed {
        /// The user.
        node: NodeId,
    },
    /// Two cautious users are adjacent; the paper requires
    /// `N(v) ∩ V_C = ∅` for every cautious `v`.
    CautiousAdjacency {
        /// Lower-id endpoint.
        a: NodeId,
        /// Higher-id endpoint.
        b: NodeId,
    },
    /// A cautious user has fewer reckless neighbors than its threshold,
    /// so it can never be befriended.
    ThresholdUnreachable {
        /// The unreachable cautious user.
        node: NodeId,
        /// How many reckless neighbors it has.
        reckless_neighbors: usize,
        /// Its threshold `θ`.
        threshold: usize,
    },
    /// **Fatal**: no user can accept the attacker's very first request
    /// (every acceptance probability at zero mutual friends is zero), so
    /// the campaign can never bootstrap.
    IsolatedSource,
}

impl Violation {
    /// `true` if the violation cannot be repaired and must reject the
    /// instance even under [`RepairMode::Lenient`].
    pub fn is_fatal(&self) -> bool {
        matches!(self, Violation::IsolatedSource)
    }

    /// Stable snake_case code for telemetry and reports.
    pub fn code(&self) -> &'static str {
        match self {
            Violation::BenefitGapCollapsed { .. } => "benefit_gap_collapsed",
            Violation::CautiousAdjacency { .. } => "cautious_adjacency",
            Violation::ThresholdUnreachable { .. } => "threshold_unreachable",
            Violation::IsolatedSource => "isolated_source",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::BenefitGapCollapsed { node } => {
                write!(
                    f,
                    "user {node}: B_f = B_fof voids Theorem 1's strict benefit gap"
                )
            }
            Violation::CautiousAdjacency { a, b } => {
                write!(
                    f,
                    "cautious users {a} and {b} are adjacent (paper requires N(v) ∩ V_C = ∅)"
                )
            }
            Violation::ThresholdUnreachable {
                node,
                reckless_neighbors,
                threshold,
            } => {
                write!(
                    f,
                    "cautious user {node} has {reckless_neighbors} reckless neighbors, below θ = {threshold}"
                )
            }
            Violation::IsolatedSource => {
                write!(
                    f,
                    "no user can accept the attacker's first request (zero acceptance at 0 mutual friends)"
                )
            }
        }
    }
}

/// Summary of a successfully validated instance.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct InstanceReport {
    /// Number of users.
    pub nodes: usize,
    /// Number of friendship edges.
    pub edges: usize,
    /// Number of threshold-gated (cautious/hesitant) users.
    pub cautious_users: usize,
    /// Edges with `0 < p < 1` (the stochastic part of the topology).
    pub uncertain_edges: usize,
    /// The smallest `B_f(u) − B_fof(u)` over all users
    /// (`+∞` for an empty instance).
    pub min_benefit_gap: f64,
}

/// What a [`repair_instance`] pass found and fixed.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct RepairReport {
    /// All violations found before repairing (empty for clean inputs).
    pub violations: Vec<Violation>,
    /// Users whose collapsed benefit gap was restored.
    pub benefit_fixes: usize,
    /// Cautious/hesitant users demoted to reckless.
    pub demoted_users: usize,
}

impl RepairReport {
    /// `true` if the input was already clean and nothing was touched.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// `true` if the `1 − e^{−λ}` guarantee (paper §IV) no longer
    /// applies to results computed on the repaired instance: the input
    /// sat outside the model's preconditions, so downstream numbers are
    /// degraded-mode estimates.
    pub fn lambda_guarantee_void(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Total individual fixes applied.
    pub fn repairs(&self) -> usize {
        self.benefit_fixes + self.demoted_users
    }
}

/// Checks `instance` against the paper's structural preconditions.
///
/// # Errors
///
/// Returns every [`Violation`] found, in deterministic order (benefit
/// gaps, adjacency, reachability, source).
///
/// # Examples
///
/// ```
/// use accu_core::{validate_instance, AccuInstanceBuilder, UserClass, Violation};
/// use osn_graph::{GraphBuilder, NodeId};
///
/// // Two adjacent cautious users: detected, not silently simulated.
/// let g = GraphBuilder::from_edges(3, [(0u32, 1u32), (1, 2)])?;
/// let inst = AccuInstanceBuilder::new(g)
///     .user_class(NodeId::new(0), UserClass::cautious(1))
///     .user_class(NodeId::new(1), UserClass::cautious(1))
///     .build()?;
/// let violations = validate_instance(&inst).unwrap_err();
/// assert!(violations
///     .iter()
///     .any(|v| matches!(v, Violation::CautiousAdjacency { .. })));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn validate_instance(instance: &AccuInstance) -> Result<InstanceReport, Vec<Violation>> {
    let violations = scan(instance);
    if !violations.is_empty() {
        return Err(violations);
    }
    Ok(report_for(instance))
}

/// Validates and, under [`RepairMode::Lenient`], deterministically
/// repairs `instance`.
///
/// Clean instances are handed back untouched — the same instance, not
/// a rebuilt copy — so wiring the repair pass into an ingestion path
/// cannot perturb results on valid inputs. The accompanying
/// [`RepairReport`] records every violation found and every fix
/// applied; [`RepairReport::lambda_guarantee_void`] tells the caller to
/// flag downstream numbers as degraded.
///
/// One pass fixes every repairable violation: a collapsed gap is bumped,
/// and cautious users are demoted to reckless. Demotions only add
/// reckless neighbors and give a positive acceptance at zero mutual
/// friends, so they cannot break another precondition; a re-scan checks
/// that the repaired instance is clean.
///
/// # Errors
///
/// Returns the violation list if `mode` is [`RepairMode::Strict`] and
/// anything is wrong, or if a fatal violation is present.
pub fn repair_instance(
    instance: AccuInstance,
    mode: RepairMode,
) -> Result<(AccuInstance, RepairReport), Vec<Violation>> {
    let violations = scan(&instance);
    if violations.is_empty() {
        return Ok((instance, RepairReport::default()));
    }
    if mode == RepairMode::Strict || violations.iter().any(Violation::is_fatal) {
        return Err(violations);
    }
    let AccuInstance {
        graph,
        edge_prob,
        mut classes,
        benefits: BenefitSchedule {
            mut friend,
            mut fof,
        },
        ..
    } = instance;
    let (mut benefit_fixes, mut demoted_users) = (0, 0);
    for violation in &violations {
        match *violation {
            Violation::BenefitGapCollapsed { node } => {
                (friend[node.index()], fof[node.index()]) = with_gap(fof[node.index()]);
                benefit_fixes += 1;
            }
            // Adjacent pairs come in canonical edge order: demote the
            // higher-id endpoint, skipping pairs an earlier demotion
            // already resolved.
            Violation::CautiousAdjacency { a, b } => {
                if classes[a.index()].is_cautious() && classes[b.index()].is_cautious() {
                    classes[b.index()] = demoted(b);
                    demoted_users += 1;
                }
            }
            // Ascending ids: recount, since the demotions above may
            // have added reckless neighbors.
            Violation::ThresholdUnreachable {
                node, threshold, ..
            } => {
                if classes[node.index()].is_cautious()
                    && reckless_neighbors(&graph, &classes, node) < threshold
                {
                    classes[node.index()] = demoted(node);
                    demoted_users += 1;
                }
            }
            Violation::IsolatedSource => unreachable!("fatal violations are rejected above"),
        }
    }
    let repaired =
        AccuInstance::from_parts(graph, edge_prob, classes, BenefitSchedule { friend, fof });
    let remaining = scan(&repaired);
    if !remaining.is_empty() {
        return Err(remaining);
    }
    Ok((
        repaired,
        RepairReport {
            violations,
            benefit_fixes,
            demoted_users,
        },
    ))
}

fn report_for(instance: &AccuInstance) -> InstanceReport {
    let uncertain_edges = instance
        .edge_prob
        .iter()
        .filter(|&&p| p > 0.0 && p < 1.0)
        .count();
    let min_benefit_gap = instance
        .benefits
        .friend
        .iter()
        .zip(&instance.benefits.fof)
        .map(|(bf, bfof)| bf - bfof)
        .fold(f64::INFINITY, f64::min);
    InstanceReport {
        nodes: instance.graph.node_count(),
        edges: instance.graph.edge_count(),
        cautious_users: instance.cautious.len(),
        uncertain_edges,
        min_benefit_gap,
    }
}

/// Scans `instance` for the structural preconditions its values can
/// break, in a fixed order: collapsed gaps by node, adjacent cautious
/// pairs in canonical edge order, unreachable cautious users by id, then
/// the source.
fn scan(instance: &AccuInstance) -> Vec<Violation> {
    let AccuInstance {
        graph,
        classes,
        benefits,
        cautious,
        ..
    } = instance;
    let mut out = Vec::new();
    for (i, (bf, bfof)) in benefits.friend.iter().zip(&benefits.fof).enumerate() {
        if bf == bfof {
            out.push(Violation::BenefitGapCollapsed {
                node: NodeId::from(i),
            });
        }
    }
    for e in graph.edges() {
        if classes[e.lo().index()].is_cautious() && classes[e.hi().index()].is_cautious() {
            out.push(Violation::CautiousAdjacency {
                a: e.lo(),
                b: e.hi(),
            });
        }
    }
    for &node in cautious {
        let threshold = classes[node.index()].threshold().unwrap_or(0) as usize;
        let reckless_neighbors = reckless_neighbors(graph, classes, node);
        if reckless_neighbors < threshold {
            out.push(Violation::ThresholdUnreachable {
                node,
                reckless_neighbors,
                threshold,
            });
        }
    }
    if !classes.is_empty()
        && classes
            .iter()
            .all(|c| c.acceptance_probability_at(0) <= 0.0)
    {
        out.push(Violation::IsolatedSource);
    }
    out
}

/// How many of `v`'s neighbors are not threshold-gated.
fn reckless_neighbors(graph: &Graph, classes: &[UserClass], v: NodeId) -> usize {
    graph
        .neighbors(v)
        .iter()
        .filter(|w| !classes[w.index()].is_cautious())
        .count()
}

/// The `(B_f, B_fof)` pair that restores a collapsed gap at `B_fof`:
/// `B_f` bumped above it by the smallest representable amount ≥
/// [`MIN_BENEFIT_GAP`]. Within about `10⁻¹²·f64::MAX` of the top of the
/// range the bump overflows to `∞`, and the pair falls back to the paper
/// defaults `(2, 1)`.
fn with_gap(bfof: f64) -> (f64, f64) {
    let mut gap = MIN_BENEFIT_GAP.max(bfof * 1e-12);
    while bfof + gap - bfof <= 0.0 {
        gap *= 2.0;
    }
    let bf = bfof + gap;
    if bf.is_finite() {
        (bf, bfof)
    } else {
        (2.0, 1.0)
    }
}

/// The reckless class assigned to a demoted user: an acceptance
/// probability hashed from the node id into `[0.05, 0.95]`, mimicking
/// the experiment protocol's heterogeneous reckless population without
/// consuming any experiment RNG (repair must not perturb seeded runs).
fn demoted(v: NodeId) -> UserClass {
    let h = splitmix64(v.index() as u64 ^ 0xACC0_5EED);
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    UserClass::Reckless {
        acceptance: 0.05 + 0.9 * unit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccuInstanceBuilder;
    use osn_graph::GraphBuilder;

    /// A 6-cycle: every node has degree 2, so `cautious(1)` or
    /// `cautious(2)` on an isolated (non-adjacent) node is clean.
    fn cycle6() -> Graph {
        GraphBuilder::from_edges(6, [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap()
    }

    fn clean_builder() -> AccuInstanceBuilder {
        AccuInstanceBuilder::new(cycle6())
            .uniform_edge_probability(0.5)
            .user_class(NodeId::new(2), UserClass::cautious(2))
    }

    #[test]
    fn clean_instance_validates_with_report() {
        let inst = clean_builder().build().unwrap();
        let report = validate_instance(&inst).unwrap();
        assert_eq!(report.nodes, 6);
        assert_eq!(report.edges, 6);
        assert_eq!(report.cautious_users, 1);
        assert_eq!(report.uncertain_edges, 6);
        assert_eq!(report.min_benefit_gap, 1.0);
    }

    #[test]
    fn clean_instance_survives_repair_unchanged() {
        let inst = clean_builder().build().unwrap();
        let before_probs = inst.edge_prob.clone();
        let (out, rep) = repair_instance(inst, RepairMode::Lenient).unwrap();
        assert!(rep.is_clean());
        assert!(!rep.lambda_guarantee_void());
        assert_eq!(rep.repairs(), 0);
        assert_eq!(out.edge_prob, before_probs);
    }

    #[test]
    fn clean_instance_comes_back_without_a_rebuild() {
        let inst = clean_builder().build().unwrap();
        let id = inst.instance_id();
        let (out, rep) = repair_instance(inst, RepairMode::Strict).unwrap();
        assert!(rep.is_clean());
        // The same instance, not a copy assembled from its parts.
        assert_eq!(out.instance_id(), id);
    }

    #[test]
    fn strict_repair_rejects_any_violation() {
        let inst = clean_builder().uniform_benefits(3.0, 3.0).build().unwrap();
        let err = repair_instance(inst, RepairMode::Strict).unwrap_err();
        assert_eq!(err.len(), 6);
        assert!(err.iter().all(|v| v.code() == "benefit_gap_collapsed"));
    }

    #[test]
    fn isolated_source_is_fatal_even_leniently() {
        let inst = AccuInstanceBuilder::new(cycle6())
            .user_classes(vec![UserClass::reckless(0.0); 6])
            .build()
            .unwrap();
        let err = repair_instance(inst, RepairMode::Lenient).unwrap_err();
        assert!(err.iter().any(|v| v == &Violation::IsolatedSource));
        assert!(Violation::IsolatedSource.is_fatal());
    }

    #[test]
    fn adjacency_repair_demotes_higher_endpoint() {
        let adjacent = || {
            AccuInstanceBuilder::new(cycle6())
                .user_class(NodeId::new(0), UserClass::cautious(1))
                .user_class(NodeId::new(1), UserClass::cautious(1))
                .build()
                .unwrap()
        };
        let (inst, rep) = repair_instance(adjacent(), RepairMode::Lenient).unwrap();
        assert_eq!(rep.demoted_users, 1);
        assert!(inst.is_cautious(NodeId::new(0)));
        assert!(!inst.is_cautious(NodeId::new(1)));
        // Demotion acceptance is a pure function of the node id.
        let q = inst.acceptance_probability(NodeId::new(1)).unwrap();
        assert!((0.05..=0.95).contains(&q));
        let (inst2, _) = repair_instance(adjacent(), RepairMode::Lenient).unwrap();
        assert_eq!(inst2.acceptance_probability(NodeId::new(1)), Some(q));
    }

    #[test]
    fn repaired_instance_passes_its_own_builder_invariants() {
        // The repaired values must satisfy every `build()` check too.
        let inst = AccuInstanceBuilder::new(cycle6())
            .user_class(NodeId::new(0), UserClass::cautious(1))
            .user_class(NodeId::new(1), UserClass::hesitant(0.2, 0.9, 1))
            .user_class(NodeId::new(3), UserClass::cautious(3))
            .benefits(NodeId::new(4), 0.0, 0.0)
            .build()
            .unwrap();
        let (inst, rep) = repair_instance(inst, RepairMode::Lenient).unwrap();
        assert_eq!((rep.benefit_fixes, rep.demoted_users), (1, 2));
        assert!(inst.to_builder().build().is_ok());
        assert_eq!(inst.benefits.fof[4], 0.0);
        assert_eq!(inst.benefits.friend[4], MIN_BENEFIT_GAP);
    }

    #[test]
    fn gap_bump_survives_large_magnitudes() {
        let (bf, bfof) = with_gap(1e15);
        assert!(bf > bfof, "bump must be representable at 1e15");
        assert_eq!(bfof, 1e15);
        // A bump past f64::MAX falls back to the paper defaults.
        assert_eq!(with_gap(f64::MAX), (2.0, 1.0));
    }

    #[test]
    fn validation_mode_round_trips_and_maps() {
        for (s, m) in [
            ("off", ValidationMode::Off),
            ("strict", ValidationMode::Strict),
            ("lenient", ValidationMode::Lenient),
        ] {
            assert_eq!(s.parse::<ValidationMode>().unwrap(), m);
            assert_eq!(m.to_string(), s);
        }
        assert!("bogus".parse::<ValidationMode>().is_err());
        assert_eq!(ValidationMode::Off.repair_mode(), None);
        assert_eq!(
            ValidationMode::Strict.repair_mode(),
            Some(RepairMode::Strict)
        );
        assert_eq!(ValidationMode::default(), ValidationMode::Lenient);
    }

    #[test]
    fn violation_displays_name_the_precondition() {
        let v = Violation::CautiousAdjacency {
            a: NodeId::new(1),
            b: NodeId::new(2),
        };
        assert!(v.to_string().contains("adjacent"));
        let v = Violation::ThresholdUnreachable {
            node: NodeId::new(3),
            reckless_neighbors: 1,
            threshold: 4,
        };
        assert!(v.to_string().contains("below θ = 4"));
        assert!(Violation::IsolatedSource
            .to_string()
            .contains("first request"));
    }

    #[test]
    fn soft_violations_fire_and_an_adjacent_pair_is_reported_once() {
        // 0 - 1 - 2 path with 0 and 1 cautious (adjacent), node 0's
        // threshold above its reckless neighborhood, and no benefit gap.
        let g = GraphBuilder::from_edges(3, [(0u32, 1u32), (1, 2)]).unwrap();
        let inst = AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(0), UserClass::cautious(2))
            .user_class(NodeId::new(1), UserClass::cautious(1))
            .uniform_benefits(1.0, 1.0)
            .build()
            .unwrap();
        let violations = validate_instance(&inst).unwrap_err();
        let count = |code| violations.iter().filter(|v| v.code() == code).count();
        assert_eq!(count("cautious_adjacency"), 1, "{violations:?}");
        assert_eq!(count("threshold_unreachable"), 1, "{violations:?}");
        assert_eq!(count("benefit_gap_collapsed"), 3, "{violations:?}");
    }
}
