//! Paper-precondition sentinel: typed violation taxonomy, instance
//! validation, and deterministic repair for degraded-mode execution.
//!
//! The ACCU analysis (paper §II model, §IV `1 − e^{−λ}` guarantee) rests
//! on structural preconditions that untrusted inputs routinely violate:
//! cautious users pairwise non-adjacent, every cautious `v` reachable
//! through at least `θ_v` reckless neighbors, probabilities in `[0, 1]`,
//! and the strict benefit gap `B_f > B_fof` of Theorem 1. This module
//! checks them *as data*: [`validate_instance`] returns either an
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
use crate::{AccuInstance, AccuInstanceBuilder, BenefitSchedule, UserClass};

/// Well-known validation metric names recorded by the experiment runner.
pub mod validate_metrics {
    /// Violations found across all ingested networks (pre-repair).
    pub const VIOLATIONS: &str = "validate.violations";
    /// Networks that needed at least one repair (degraded mode).
    pub const REPAIRED_NETWORKS: &str = "validate.repaired_networks";
    /// Networks rejected outright (strict mode or fatal violation).
    pub const REJECTED_NETWORKS: &str = "validate.rejected_networks";
    /// Probabilities clamped back into `[0, 1]` (edges and users).
    pub const CLAMPED_PROBABILITIES: &str = "validate.clamped_probabilities";
    /// Users whose benefit pair was fixed (swap, clamp, or gap bump).
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

/// A violated model precondition found by [`validate_instance`].
///
/// Each variant maps to a precondition of the paper (see DESIGN.md §8):
/// repairable violations void only the theoretical guarantees, fatal ones
/// make the instance meaningless to simulate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Violation {
    /// A probability-like scalar is outside `[0, 1]` (or not finite).
    ProbabilityOutOfRange {
        /// Which scalar, e.g. `"edge existence"` or `"reckless acceptance"`.
        what: &'static str,
        /// Edge index or node index, depending on `what`.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A user's benefits are non-finite or negative.
    BenefitOutOfRange {
        /// The user.
        node: NodeId,
        /// Its `B_f`.
        friend: f64,
        /// Its `B_fof`.
        fof: f64,
    },
    /// A user has `B_f < B_fof` — a friend would see *less* than a
    /// friend-of-friend, inverting the model's monotonicity.
    BenefitInversion {
        /// The user.
        node: NodeId,
        /// Its `B_f`.
        friend: f64,
        /// Its `B_fof`.
        fof: f64,
    },
    /// A user has `B_f = B_fof`, voiding Theorem 1's strict-gap
    /// requirement.
    BenefitGapCollapsed {
        /// The user.
        node: NodeId,
    },
    /// A threshold-gated user has `θ = 0` (the model requires `θ ≥ 1`).
    ZeroThreshold {
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
    /// **Fatal**: an attribute vector does not match the graph size, so
    /// per-node/per-edge indices are meaningless.
    AttributeLengthMismatch {
        /// Which vector, e.g. `"edge probabilities"`.
        what: &'static str,
        /// Entries required by the graph.
        expected: usize,
        /// Entries supplied.
        actual: usize,
    },
}

impl Violation {
    /// `true` if the violation cannot be repaired and must reject the
    /// instance even under [`RepairMode::Lenient`].
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            Violation::IsolatedSource | Violation::AttributeLengthMismatch { .. }
        )
    }

    /// Stable snake_case code for telemetry and reports.
    pub fn code(&self) -> &'static str {
        match self {
            Violation::ProbabilityOutOfRange { .. } => "probability_out_of_range",
            Violation::BenefitOutOfRange { .. } => "benefit_out_of_range",
            Violation::BenefitInversion { .. } => "benefit_inversion",
            Violation::BenefitGapCollapsed { .. } => "benefit_gap_collapsed",
            Violation::ZeroThreshold { .. } => "zero_threshold",
            Violation::CautiousAdjacency { .. } => "cautious_adjacency",
            Violation::ThresholdUnreachable { .. } => "threshold_unreachable",
            Violation::IsolatedSource => "isolated_source",
            Violation::AttributeLengthMismatch { .. } => "attribute_length_mismatch",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ProbabilityOutOfRange { what, index, value } => {
                write!(f, "{what} probability [{index}] = {value} outside [0, 1]")
            }
            Violation::BenefitOutOfRange { node, friend, fof } => {
                write!(
                    f,
                    "user {node}: non-finite or negative benefits (B_f={friend}, B_fof={fof})"
                )
            }
            Violation::BenefitInversion { node, friend, fof } => {
                write!(
                    f,
                    "user {node}: inverted benefits B_f={friend} < B_fof={fof}"
                )
            }
            Violation::BenefitGapCollapsed { node } => {
                write!(
                    f,
                    "user {node}: B_f = B_fof voids Theorem 1's strict benefit gap"
                )
            }
            Violation::ZeroThreshold { node } => {
                write!(
                    f,
                    "threshold-gated user {node} has θ = 0 (model requires θ ≥ 1)"
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
            Violation::AttributeLengthMismatch {
                what,
                expected,
                actual,
            } => {
                write!(f, "{what}: expected {expected} entries, got {actual}")
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
    /// Probabilities clamped into `[0, 1]` (edges and user classes).
    pub clamped_probabilities: usize,
    /// Users whose benefit pair was clamped, swapped, or gap-bumped.
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
        self.clamped_probabilities + self.benefit_fixes + self.demoted_users
    }
}

/// Checks `instance` against the paper's structural preconditions.
///
/// # Errors
///
/// Returns every [`Violation`] found, in deterministic order (attribute
/// lengths, probabilities, benefits, adjacency, reachability, source).
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
    let violations = scan(
        &instance.graph,
        &instance.edge_prob,
        &instance.classes,
        &instance.benefits.friend,
        &instance.benefits.fof,
    );
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
/// # Errors
///
/// Returns the violation list if `mode` is [`RepairMode::Strict`] and
/// anything is wrong, or if a fatal violation is present (or emerges
/// during repair — e.g. clamping every negative acceptance to zero can
/// leave no bootstrappable user).
pub fn repair_instance(
    instance: AccuInstance,
    mode: RepairMode,
) -> Result<(AccuInstance, RepairReport), Vec<Violation>> {
    let found = scan(
        &instance.graph,
        &instance.edge_prob,
        &instance.classes,
        &instance.benefits.friend,
        &instance.benefits.fof,
    );
    if found.is_empty() {
        return Ok((instance, RepairReport::default()));
    }
    let AccuInstance {
        graph,
        edge_prob,
        classes,
        benefits: BenefitSchedule { friend, fof },
        ..
    } = instance;
    repair_parts(graph, edge_prob, classes, friend, fof, found, mode)
}

impl AccuInstanceBuilder {
    /// Scans the builder's current state for precondition
    /// [`Violation`]s without consuming it.
    ///
    /// Unlike [`build`](Self::build), which enforces only hard
    /// invariants and stops at the first error, this reports *every*
    /// violated paper precondition (including the soft ones like
    /// cautious adjacency) in one pass.
    pub fn validate(&self) -> Vec<Violation> {
        scan(
            &self.graph,
            &self.edge_prob,
            &self.classes,
            &self.friend_benefit,
            &self.fof_benefit,
        )
    }

    /// Builds the instance after a validation/repair pass.
    ///
    /// # Errors
    ///
    /// Returns the violation list under [`RepairMode::Strict`] if any
    /// violation exists, or under [`RepairMode::Lenient`] if a fatal
    /// one does.
    pub fn build_repaired(
        self,
        mode: RepairMode,
    ) -> Result<(AccuInstance, RepairReport), Vec<Violation>> {
        let found = self.validate();
        repair_parts(
            self.graph,
            self.edge_prob,
            self.classes,
            self.friend_benefit,
            self.fof_benefit,
            found,
            mode,
        )
    }
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

/// The shared scan over instance parts. Emits violations in a
/// deterministic order; on an attribute-length mismatch only the
/// mismatches are reported (per-element indices would be meaningless).
fn scan(
    graph: &Graph,
    edge_prob: &[f64],
    classes: &[UserClass],
    friend: &[f64],
    fof: &[f64],
) -> Vec<Violation> {
    let n = graph.node_count();
    let m = graph.edge_count();
    let mut out = Vec::new();
    for (what, expected, actual) in [
        ("edge probabilities", m, edge_prob.len()),
        ("user classes", n, classes.len()),
        ("friend benefits", n, friend.len()),
        ("friend-of-friend benefits", n, fof.len()),
    ] {
        if expected != actual {
            out.push(Violation::AttributeLengthMismatch {
                what,
                expected,
                actual,
            });
        }
    }
    if !out.is_empty() {
        return out;
    }
    for (i, &p) in edge_prob.iter().enumerate() {
        if !unit(p) {
            out.push(Violation::ProbabilityOutOfRange {
                what: "edge existence",
                index: i,
                value: p,
            });
        }
    }
    for (i, c) in classes.iter().enumerate() {
        match *c {
            UserClass::Reckless { acceptance } => {
                if !unit(acceptance) {
                    out.push(Violation::ProbabilityOutOfRange {
                        what: "reckless acceptance",
                        index: i,
                        value: acceptance,
                    });
                }
            }
            UserClass::Cautious { threshold } => {
                if threshold == 0 {
                    out.push(Violation::ZeroThreshold {
                        node: NodeId::from(i),
                    });
                }
            }
            UserClass::Hesitant {
                below,
                at_or_above,
                threshold,
            } => {
                if threshold == 0 {
                    out.push(Violation::ZeroThreshold {
                        node: NodeId::from(i),
                    });
                }
                for q in [below, at_or_above] {
                    if !unit(q) {
                        out.push(Violation::ProbabilityOutOfRange {
                            what: "hesitant acceptance",
                            index: i,
                            value: q,
                        });
                    }
                }
                if unit(below) && unit(at_or_above) && below > at_or_above {
                    out.push(Violation::ProbabilityOutOfRange {
                        what: "hesitant acceptance order (q1 > q2)",
                        index: i,
                        value: below,
                    });
                }
            }
            UserClass::MutualLinear { base, slope } => {
                if !unit(base) {
                    out.push(Violation::ProbabilityOutOfRange {
                        what: "linear acceptance base",
                        index: i,
                        value: base,
                    });
                }
                if !slope.is_finite() || slope < 0.0 {
                    out.push(Violation::ProbabilityOutOfRange {
                        what: "linear acceptance slope",
                        index: i,
                        value: slope,
                    });
                }
            }
        }
    }
    for (i, (&bf, &bfof)) in friend.iter().zip(fof).enumerate() {
        let node = NodeId::from(i);
        if !(bf.is_finite() && bfof.is_finite()) || bfof < 0.0 {
            out.push(Violation::BenefitOutOfRange {
                node,
                friend: bf,
                fof: bfof,
            });
        } else if bf < bfof {
            out.push(Violation::BenefitInversion {
                node,
                friend: bf,
                fof: bfof,
            });
        } else if bf == bfof {
            out.push(Violation::BenefitGapCollapsed { node });
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
    for (i, c) in classes.iter().enumerate() {
        if !c.is_cautious() {
            continue;
        }
        let theta = c.threshold().unwrap_or(0) as usize;
        if theta == 0 {
            continue; // already reported as ZeroThreshold
        }
        let reckless_neighbors = graph
            .neighbors(NodeId::from(i))
            .iter()
            .filter(|w| !classes[w.index()].is_cautious())
            .count();
        if reckless_neighbors < theta {
            out.push(Violation::ThresholdUnreachable {
                node: NodeId::from(i),
                reckless_neighbors,
                threshold: theta,
            });
        }
    }
    if n > 0
        && classes
            .iter()
            .all(|c| c.acceptance_probability_at(0) <= 0.0)
    {
        out.push(Violation::IsolatedSource);
    }
    out
}

fn unit(p: f64) -> bool {
    p.is_finite() && (0.0..=1.0).contains(&p)
}

/// Repairs raw instance parts, given the violations `found` by scanning
/// them, then assembles the instance. Shared by [`repair_instance`] and
/// [`AccuInstanceBuilder::build_repaired`].
fn repair_parts(
    graph: Graph,
    mut edge_prob: Vec<f64>,
    mut classes: Vec<UserClass>,
    mut friend: Vec<f64>,
    mut fof: Vec<f64>,
    found: Vec<Violation>,
    mode: RepairMode,
) -> Result<(AccuInstance, RepairReport), Vec<Violation>> {
    let mut report = RepairReport {
        violations: found,
        ..RepairReport::default()
    };
    if !report.violations.is_empty() {
        if mode == RepairMode::Strict || report.violations.iter().any(Violation::is_fatal) {
            return Err(report.violations);
        }
        // A single normalization pass fixes everything the scan flags;
        // the re-scan loop guards against repair-induced violations
        // (e.g. clamping every acceptance to zero isolates the source,
        // which is fatal and must reject).
        let mut converged = false;
        for _ in 0..4 {
            apply_repairs(
                &graph,
                &mut edge_prob,
                &mut classes,
                &mut friend,
                &mut fof,
                &mut report,
            );
            let remaining = scan(&graph, &edge_prob, &classes, &friend, &fof);
            if remaining.is_empty() {
                converged = true;
                break;
            }
            if remaining.iter().any(Violation::is_fatal) {
                return Err(remaining);
            }
        }
        if !converged {
            return Err(scan(&graph, &edge_prob, &classes, &friend, &fof));
        }
    }
    let cautious: Vec<NodeId> = classes
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_cautious())
        .map(|(i, _)| NodeId::from(i))
        .collect();
    Ok((
        AccuInstance::from_parts(
            graph,
            edge_prob,
            classes,
            BenefitSchedule { friend, fof },
            cautious,
        ),
        report,
    ))
}

/// One deterministic normalization pass. Idempotent on valid values, so
/// repeated application converges (demotions strictly shrink the
/// cautious set; clamps and benefit fixes are value-local).
fn apply_repairs(
    graph: &Graph,
    edge_prob: &mut [f64],
    classes: &mut [UserClass],
    friend: &mut [f64],
    fof: &mut [f64],
    report: &mut RepairReport,
) {
    for p in edge_prob.iter_mut() {
        *p = clamp_unit(*p, &mut report.clamped_probabilities);
    }
    for (i, c) in classes.iter_mut().enumerate() {
        match *c {
            UserClass::Reckless { acceptance } => {
                let q = clamp_unit(acceptance, &mut report.clamped_probabilities);
                *c = UserClass::Reckless { acceptance: q };
            }
            UserClass::Cautious { threshold } => {
                if threshold == 0 {
                    *c = demoted(i, &mut report.demoted_users);
                }
            }
            UserClass::Hesitant {
                below,
                at_or_above,
                threshold,
            } => {
                if threshold == 0 {
                    *c = demoted(i, &mut report.demoted_users);
                } else {
                    let mut q1 = clamp_unit(below, &mut report.clamped_probabilities);
                    let mut q2 = clamp_unit(at_or_above, &mut report.clamped_probabilities);
                    if q1 > q2 {
                        std::mem::swap(&mut q1, &mut q2);
                        report.clamped_probabilities += 1;
                    }
                    *c = UserClass::Hesitant {
                        below: q1,
                        at_or_above: q2,
                        threshold,
                    };
                }
            }
            UserClass::MutualLinear { base, slope } => {
                let base = clamp_unit(base, &mut report.clamped_probabilities);
                let slope = if !slope.is_finite() || slope < 0.0 {
                    report.clamped_probabilities += 1;
                    0.0
                } else {
                    slope
                };
                *c = UserClass::MutualLinear { base, slope };
            }
        }
    }
    for i in 0..friend.len() {
        let (bf, bfof) = repaired_benefits(friend[i], fof[i]);
        // `!=` also catches a NaN being replaced.
        if bf != friend[i] || bfof != fof[i] || friend[i].is_nan() || fof[i].is_nan() {
            friend[i] = bf;
            fof[i] = bfof;
            report.benefit_fixes += 1;
        }
    }
    // Adjacent cautious pairs: demote the higher-id endpoint of each
    // offending edge, in canonical edge order, skipping pairs already
    // resolved by an earlier demotion.
    for e in graph.edges() {
        if classes[e.lo().index()].is_cautious() && classes[e.hi().index()].is_cautious() {
            classes[e.hi().index()] = demoted(e.hi().index(), &mut report.demoted_users);
        }
    }
    // Unreachable cautious users: demote, ascending ids. Later
    // demotions only add reckless neighbors, so survivors stay valid.
    for i in 0..classes.len() {
        if !classes[i].is_cautious() {
            continue;
        }
        let theta = classes[i].threshold().unwrap_or(0) as usize;
        let reckless_neighbors = graph
            .neighbors(NodeId::from(i))
            .iter()
            .filter(|w| !classes[w.index()].is_cautious())
            .count();
        if reckless_neighbors < theta {
            classes[i] = demoted(i, &mut report.demoted_users);
        }
    }
}

fn clamp_unit(p: f64, fixes: &mut usize) -> f64 {
    if !p.is_finite() {
        *fixes += 1;
        0.5
    } else if p < 0.0 {
        *fixes += 1;
        0.0
    } else if p > 1.0 {
        *fixes += 1;
        1.0
    } else {
        p
    }
}

/// Produces a fully valid `(B_f, B_fof)` pair from an arbitrary one:
/// non-finite pairs fall back to the paper defaults `(2, 1)`, negatives
/// clamp to zero, inversions swap, and a collapsed gap is bumped by the
/// smallest representable amount ≥ [`MIN_BENEFIT_GAP`]. Idempotent on
/// valid pairs.
fn repaired_benefits(bf: f64, bfof: f64) -> (f64, f64) {
    if !(bf.is_finite() && bfof.is_finite()) {
        return (2.0, 1.0);
    }
    let mut bf = bf.max(0.0);
    let mut bfof = bfof.max(0.0);
    if bf < bfof {
        std::mem::swap(&mut bf, &mut bfof);
    }
    if bf - bfof <= 0.0 {
        let mut gap = MIN_BENEFIT_GAP.max(bfof.abs() * 1e-12);
        while bfof + gap - bfof <= 0.0 {
            gap *= 2.0;
        }
        bf = bfof + gap;
    }
    (bf, bfof)
}

/// The reckless acceptance probability assigned to a demoted user:
/// a pure hash of the node id into `[0.05, 0.95]`, mimicking the
/// experiment protocol's heterogeneous reckless population without
/// consuming any experiment RNG (repair must not perturb seeded runs).
fn demoted(index: usize, demotions: &mut usize) -> UserClass {
    *demotions += 1;
    let h = splitmix64(index as u64 ^ 0xACC0_5EED);
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    UserClass::Reckless {
        acceptance: 0.05 + 0.9 * unit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccuError;
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
    fn builder_validate_reports_every_planted_class() {
        // Plant one violation of each repairable kind into the cycle.
        let b = AccuInstanceBuilder::new(cycle6())
            .uniform_edge_probability(0.5)
            .edge_probability(osn_graph::EdgeId::new(0), 1.5) // probability
            .user_class(NodeId::new(0), UserClass::cautious(1))
            .user_class(NodeId::new(1), UserClass::cautious(1)) // adjacency (0-1)
            .user_class(NodeId::new(3), UserClass::cautious(9)) // unreachable
            .user_class(NodeId::new(5), UserClass::hesitant(0.2, 0.8, 0)) // θ = 0
            .benefits(NodeId::new(2), 1.0, 2.0) // inversion
            .benefits(NodeId::new(4), 3.0, 3.0); // collapsed gap
        let violations = b.validate();
        for code in [
            "probability_out_of_range",
            "benefit_inversion",
            "benefit_gap_collapsed",
            "zero_threshold",
            "cautious_adjacency",
            "threshold_unreachable",
        ] {
            assert!(
                violations.iter().any(|v| v.code() == code),
                "missing {code} in {violations:?}"
            );
        }
        // And the lenient repair reaches a clean fixpoint.
        let (inst, rep) = b.build_repaired(RepairMode::Lenient).unwrap();
        assert!(validate_instance(&inst).is_ok());
        assert!(rep.lambda_guarantee_void());
        assert!(rep.demoted_users >= 3);
        assert!(rep.benefit_fixes >= 2);
        assert!(rep.clamped_probabilities >= 1);
    }

    #[test]
    fn strict_repair_rejects_any_violation() {
        let b = clean_builder().uniform_edge_probability(1.5);
        let err = b.build_repaired(RepairMode::Strict).unwrap_err();
        assert!(err.iter().all(|v| v.code() == "probability_out_of_range"));
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
    fn repair_can_surface_fatality_it_creates() {
        // All-negative acceptances clamp to zero — and a network nobody
        // can bootstrap is fatal, not silently "repaired".
        let b = AccuInstanceBuilder::new(cycle6()).user_classes(vec![UserClass::reckless(-0.5); 6]);
        let err = b.build_repaired(RepairMode::Lenient).unwrap_err();
        assert!(err.iter().any(|v| v == &Violation::IsolatedSource));
    }

    #[test]
    fn length_mismatch_is_fatal() {
        let b = clean_builder().edge_probabilities(vec![0.5; 2]);
        let violations = b.validate();
        assert!(violations
            .iter()
            .all(|v| matches!(v, Violation::AttributeLengthMismatch { .. }) && v.is_fatal()));
        assert!(b.build_repaired(RepairMode::Lenient).is_err());
    }

    #[test]
    fn adjacency_repair_demotes_higher_endpoint() {
        let b = AccuInstanceBuilder::new(cycle6())
            .user_class(NodeId::new(0), UserClass::cautious(1))
            .user_class(NodeId::new(1), UserClass::cautious(1));
        let (inst, rep) = b.build_repaired(RepairMode::Lenient).unwrap();
        assert_eq!(rep.demoted_users, 1);
        assert!(inst.is_cautious(NodeId::new(0)));
        assert!(!inst.is_cautious(NodeId::new(1)));
        // Demotion acceptance is a pure function of the node id.
        let q = inst.acceptance_probability(NodeId::new(1)).unwrap();
        assert!((0.05..=0.95).contains(&q));
        let (inst2, _) = AccuInstanceBuilder::new(cycle6())
            .user_class(NodeId::new(0), UserClass::cautious(1))
            .user_class(NodeId::new(1), UserClass::cautious(1))
            .build_repaired(RepairMode::Lenient)
            .unwrap();
        assert_eq!(inst2.acceptance_probability(NodeId::new(1)), Some(q));
    }

    #[test]
    fn repaired_instance_passes_its_own_builder_invariants() {
        // The repaired parts must satisfy the hard `build()` checks too.
        let b = AccuInstanceBuilder::new(cycle6())
            .uniform_edge_probability(f64::NAN)
            .user_class(NodeId::new(1), UserClass::hesitant(0.9, 0.1, 2))
            .user_class(NodeId::new(4), UserClass::mutual_linear(1.4, -2.0))
            .benefits(NodeId::new(0), f64::INFINITY, f64::NAN);
        let (inst, rep) = b.build_repaired(RepairMode::Lenient).unwrap();
        assert!(rep.repairs() > 0);
        let rebuilt: Result<AccuInstance, AccuError> = AccuInstanceBuilder::new(cycle6())
            .edge_probabilities(inst.edge_prob.clone())
            .user_classes(inst.classes.clone())
            .build();
        assert!(rebuilt.is_ok());
        assert_eq!(inst.benefits.friend[0], 2.0);
        assert_eq!(inst.benefits.fof[0], 1.0);
    }

    #[test]
    fn gap_bump_survives_large_magnitudes() {
        let (bf, bfof) = repaired_benefits(1e15, 1e15);
        assert!(bf > bfof, "bump must be representable at 1e15");
        let (bf2, bfof2) = repaired_benefits(bf, bfof);
        assert_eq!((bf, bfof), (bf2, bfof2), "repair must be idempotent");
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
