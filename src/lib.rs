//! # accu
//!
//! Umbrella crate for the reproduction of **Adaptive Crawling with
//! Cautious Users** (Li, Pan, Tong & Pan, IEEE ICDCS 2019).
//!
//! This crate re-exports the whole stack:
//!
//! * [`graph`] ([`osn_graph`]) — the graph substrate: CSR storage,
//!   generators, algorithms, SNAP-format I/O;
//! * [`core`] ([`accu_core`]) — the ACCU model, the ABM policy and
//!   baselines, the adaptive simulator, and the approximation theory;
//! * [`datasets`] ([`accu_datasets`]) — Table I dataset stand-ins and
//!   the paper's experiment protocol.
//!
//! The most common items are also re-exported at the crate root.
//!
//! ## Example
//!
//! ```
//! use accu::datasets::{apply_protocol, DatasetSpec, ProtocolConfig};
//! use accu::policy::{Abm, AbmWeights};
//! use accu::{run_attack, Realization};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let graph = DatasetSpec::facebook().scaled(0.05).generate(&mut rng)?;
//! let instance = apply_protocol(
//!     graph,
//!     &ProtocolConfig { cautious_count: 5, ..ProtocolConfig::default() },
//!     &mut rng,
//! )?;
//! let realization = Realization::sample(&instance, &mut rng);
//! let mut abm = Abm::new(AbmWeights::balanced());
//! let outcome = run_attack(&instance, &realization, &mut abm, 30);
//! assert_eq!(outcome.requests_sent(), 30);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use accu_core as core;
pub use accu_datasets as datasets;
pub use osn_graph as graph;

pub use accu_core::{
    benefit_of_friend_set, benefit_of_request_set, cautious_risk_scores, expected_benefit,
    gatekeeper_scores, policy, resolve_acceptance, run_attack, run_attack_with,
    run_omniscient_greedy, sample_outcomes, simulate_exposure, theory, AccuError, AccuInstance,
    AccuInstanceBuilder, AttackOptions, AttackOutcome, AttackerView, BenefitSchedule, BenefitState,
    EpisodeScratch, ExposureReport, MarginalGain, MonteCarloStats, Observation, Policy,
    Realization, RequestRecord, TraceAccumulator, UserClass,
};
pub use osn_graph::{Edge, EdgeId, Graph, GraphBuilder, GraphError, NodeId};
