//! # accu-core
//!
//! A faithful implementation of **Adaptive Crawling with Cautious Users**
//! (Li, Pan, Tong & Pan, IEEE ICDCS 2019): the problem model, the ABM
//! adaptive greedy algorithm and comparison baselines, an adaptive attack
//! simulator, and the paper's approximation theory (adaptive submodular
//! ratio, curvature, exact small-instance analysis).
//!
//! ## The problem
//!
//! An attacker infiltrates an online social network by sending up to `k`
//! friend requests, adaptively observing each response. *Reckless* users
//! accept with probability `q_u`; *cautious* users accept iff they share
//! at least `θ_v` mutual friends with the attacker — a deterministic
//! linear-threshold rule that makes the objective non-adaptive-submodular
//! and the classical `1 − 1/e` guarantee inapplicable.
//!
//! ## Crate layout
//!
//! * [`AccuInstance`] / [`AccuInstanceBuilder`] — the problem instance;
//! * [`Realization`] / [`Observation`] / [`AttackerView`] — the adaptive
//!   stochastic-optimization machinery of paper §II-B;
//! * [`policy`] — [`policy::Abm`] (Algorithm 1) and the §IV baselines;
//! * [`run_attack`] / [`expected_benefit`] — simulation and Monte-Carlo
//!   evaluation of Eq. (2); [`run_attack_with`] runs an episode inside a
//!   reusable [`EpisodeScratch`] under [`AttackOptions`] (model
//!   mismatch, platform faults, telemetry, causal tracing);
//! * [`theory`] — adaptive submodular ratio (Definitions 4–5, Lemmas
//!   4–5), adaptive total primal curvature, exact marginal gains and the
//!   exhaustively-optimal policy for small instances;
//! * [`TraceAccumulator`] — aggregation into the paper's figure series.
//!
//! ## Quick start
//!
//! ```
//! use accu_core::{run_attack, AccuInstanceBuilder, Realization, UserClass};
//! use accu_core::policy::{Abm, AbmWeights};
//! use osn_graph::{GraphBuilder, NodeId};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A star network whose high-value leaf is cautious (θ = 1).
//! let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (0, 2), (0, 3)])?;
//! let instance = AccuInstanceBuilder::new(g)
//!     .user_class(NodeId::new(3), UserClass::cautious(1))
//!     .benefits(NodeId::new(3), 50.0, 1.0)
//!     .build()?;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let realization = Realization::sample(&instance, &mut rng);
//! let mut abm = Abm::new(AbmWeights::balanced());
//! let outcome = run_attack(&instance, &realization, &mut abm, 2);
//! assert_eq!(outcome.requests_sent(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod chaos;
mod defense;
mod error;
mod expectation;
pub mod fault;
pub mod io;
mod metrics;
mod model;
mod objective;
mod observation;
mod oracle;
pub mod policy;
mod realization;
mod scratch;
mod simulator;
pub mod theory;
mod validate;
mod view;

pub use chaos::{chaos_metrics, ChaosConfig, IoFault, WorkerFault};
pub use defense::{
    cautious_risk_scores, gatekeeper_scores, simulate_exposure, top_scored, ExposureReport,
};
pub use error::AccuError;
pub use expectation::{expected_benefit, sample_outcomes, MonteCarloStats};
pub use fault::{fault_metrics, FaultConfig, FaultPlan, FaultSummary, RateLimit, RetryPolicy};
pub use metrics::TraceAccumulator;
pub use model::{AccuInstance, AccuInstanceBuilder, BenefitSchedule, UserClass};
pub use objective::{
    benefit_of_friend_set, benefit_of_request_set, BenefitState, MarginalGain, RequestSetOutcome,
};
pub use observation::{EdgeState, NodeState, Observation};
pub use oracle::run_omniscient_greedy;
pub use policy::Policy;
pub use realization::Realization;
pub use scratch::{engine_metrics, EpisodeScratch};
pub use validate::{
    repair_instance, validate_instance, validate_metrics, InstanceReport, RepairMode, RepairReport,
    ValidationMode, Violation,
};

pub use simulator::{
    resolve_acceptance, run_attack, run_attack_episode, run_attack_with, sim_metrics,
    AttackOptions, AttackOutcome, RequestRecord,
};
pub use view::AttackerView;
