//! Reusable per-episode arenas for the Monte-Carlo episode engine.
//!
//! A Monte-Carlo experiment runs thousands of episodes against the
//! same instance; allocating a fresh [`Observation`], [`BenefitState`]
//! and outcome buffers for each one dominates small episodes. An
//! [`EpisodeScratch`] owns all of those buffers, plus the episode's
//! [`Realization`] slot (one episode key: sampling is a single RNG
//! draw), and hands them back to the simulator
//! ([`run_attack_with`](crate::run_attack_with)), which sizes them for
//! the instance on its first episode, so further episodes allocate
//! nothing at all. Every episode runs in one: [`run_attack`](crate::run_attack)
//! fills a fresh arena with a copy of its realization.

use crate::fault::FaultSummary;
use crate::{AccuInstance, AttackOutcome, BenefitState, Observation, Realization};

/// Well-known episode-engine metric names (recorded by the experiment
/// runner's workers).
pub mod engine_metrics {
    /// Episodes that ran entirely inside an already-sized scratch
    /// (zero allocations expected).
    pub const SCRATCH_REUSES: &str = "engine.scratch_reuses";
    /// Episodes that had to grow the scratch buffers (first episode on
    /// a worker, or a larger instance than any seen before).
    pub const SCRATCH_ALLOCS: &str = "engine.scratch_allocs";
    /// Wall-clock nanoseconds per cell's episode loop on one network:
    /// policy set-up plus every episode (one sample per (cell, network)
    /// pair), so a network's set-up is `runner.network_ns` minus its
    /// summed samples.
    pub const CHUNK_NS: &str = "engine.chunk_ns";
}

/// All per-episode state for the zero-allocation episode engine: the
/// realization slot, the observation, the benefit state, the
/// revealed-neighbor staging buffer and the outcome slot (whose trace
/// and friend vectors are reused across episodes).
///
/// # Examples
///
/// ```
/// use accu_core::{
///     run_attack_episode, AccuInstanceBuilder, EpisodeScratch, FaultPlan, RetryPolicy,
/// };
/// use accu_telemetry::Recorder;
/// use osn_graph::GraphBuilder;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let g = GraphBuilder::from_edges(3, [(0u32, 1u32), (1, 2)])?;
/// let inst = AccuInstanceBuilder::new(g).build()?;
/// let mut policy = accu_core::policy::MaxDegree::new();
/// let mut scratch = EpisodeScratch::new();
/// let mut rng = StdRng::seed_from_u64(7);
/// for _ in 0..10 {
///     scratch.prepare(&inst);
///     scratch.realization.sample_into(&inst, &mut rng);
///     let outcome = run_attack_episode(
///         &inst,
///         &mut policy,
///         2,
///         &FaultPlan::none(),
///         &RetryPolicy::give_up(),
///         &Recorder::disabled(),
///         &mut scratch,
///     );
///     assert_eq!(outcome.requests_sent(), 2);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct EpisodeScratch {
    /// The realization slot; sample it with
    /// [`Realization::sample_into`] before each episode.
    pub realization: Realization,
    pub(crate) observation: Observation,
    pub(crate) benefit: BenefitState,
    pub(crate) revealed: Vec<osn_graph::NodeId>,
    pub(crate) outcome: AttackOutcome,
    seen_nodes: usize,
    seen_edges: usize,
}

impl EpisodeScratch {
    /// An empty arena; the first [`prepare`](Self::prepare) sizes it.
    pub fn new() -> Self {
        EpisodeScratch {
            realization: Realization::empty(),
            observation: Observation::empty(),
            benefit: BenefitState::empty(),
            revealed: Vec::new(),
            outcome: AttackOutcome {
                trace: Vec::new(),
                total_benefit: 0.0,
                friends: Vec::new(),
                cautious_friends: 0,
                faults: FaultSummary::default(),
            },
            seen_nodes: 0,
            seen_edges: 0,
        }
    }

    /// Notes the upcoming episode's instance and reports whether the
    /// arena was already large enough for it: `true` means the episode
    /// is a pure buffer reuse, `false` that buffers will grow (the
    /// first episode, or a larger instance than any seen before).
    pub fn prepare(&mut self, instance: &AccuInstance) -> bool {
        let nodes = instance.node_count();
        let edges = instance.graph().edge_count();
        let reuse = nodes <= self.seen_nodes && edges <= self.seen_edges;
        self.seen_nodes = self.seen_nodes.max(nodes);
        self.seen_edges = self.seen_edges.max(edges);
        reuse
    }
}

impl Default for EpisodeScratch {
    fn default() -> Self {
        EpisodeScratch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Abm, AbmWeights};
    use crate::{run_attack, run_attack_episode, AccuInstanceBuilder, UserClass};
    use crate::{FaultPlan, RetryPolicy};
    use accu_telemetry::Recorder;
    use osn_graph::NodeId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn instance() -> AccuInstance {
        let mut rng = StdRng::seed_from_u64(13);
        let g = osn_graph::generators::barabasi_albert(40, 3, &mut rng).unwrap();
        let mut b = AccuInstanceBuilder::new(g);
        for i in 0..40u32 {
            if i % 7 == 2 {
                b = b.user_class(NodeId::new(i), UserClass::cautious(2));
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn prepare_reports_reuse_after_first_sizing() {
        let inst = instance();
        let mut scratch = EpisodeScratch::new();
        assert!(!scratch.prepare(&inst), "first episode must size buffers");
        assert!(scratch.prepare(&inst), "second episode is a pure reuse");
        assert!(scratch.prepare(&inst));
    }

    #[test]
    fn scratch_episodes_match_allocating_path_bit_for_bit() {
        let inst = instance();
        let mut scratch = EpisodeScratch::new();
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        for ep in 0..8 {
            // Allocating reference path.
            let mut real = Realization::empty();
            real.sample_into(&inst, &mut rng_a);
            let mut pol_ref = Abm::new(AbmWeights::balanced());
            let reference = run_attack(&inst, &real, &mut pol_ref, 12);
            // Scratch-reuse path.
            scratch.prepare(&inst);
            scratch.realization.sample_into(&inst, &mut rng_b);
            let mut pol = Abm::new(AbmWeights::balanced());
            let outcome = run_attack_episode(
                &inst,
                &mut pol,
                12,
                &FaultPlan::none(),
                &RetryPolicy::give_up(),
                &Recorder::disabled(),
                &mut scratch,
            );
            assert_eq!(*outcome, reference, "episode {ep} diverged");
        }
    }

    #[test]
    fn reused_policy_in_scratch_matches_fresh_policies() {
        // The engine reuses ONE policy across a network's episodes via
        // reset(); that must equal constructing it fresh per episode.
        let inst = instance();
        let mut scratch = EpisodeScratch::new();
        let mut policy = Abm::new(AbmWeights::balanced());
        let mut seed_rng = StdRng::seed_from_u64(5);
        for _ in 0..6 {
            let s: u64 = seed_rng.gen();
            let mut rng = StdRng::seed_from_u64(s);
            scratch.prepare(&inst);
            scratch.realization.sample_into(&inst, &mut rng);
            let outcome = run_attack_episode(
                &inst,
                &mut policy,
                12,
                &FaultPlan::none(),
                &RetryPolicy::give_up(),
                &Recorder::disabled(),
                &mut scratch,
            )
            .clone();
            let mut rng = StdRng::seed_from_u64(s);
            let real = Realization::sample(&inst, &mut rng);
            let mut fresh = Abm::new(AbmWeights::balanced());
            let reference = run_attack(&inst, &real, &mut fresh, 12);
            assert_eq!(outcome, reference);
        }
    }
}
