//! The adaptive attack simulator.
//!
//! Drives a [`Policy`] against a fixed [`Realization`]: each step the
//! policy picks a target, the simulator resolves the request (sampled
//! acceptance for reckless users, deterministic threshold check for
//! cautious users), updates the observation and benefit state, and
//! notifies the policy.
//!
//! Two entry points share one attack loop: [`run_attack`] for a single
//! episode on a given realization, and [`run_attack_with`] for
//! Monte-Carlo loops that reuse an [`EpisodeScratch`]. The latter's
//! [`AttackOptions`] can also run the episode under a pre-sampled
//! [`FaultPlan`] — transient failures the attacker may retry under a
//! [`RetryPolicy`], silent response drops, rate-limit windows and
//! account suspension — with the zero-fault path bit-for-bit identical
//! to the plain simulator.

use accu_telemetry::{CounterHandle, HistogramHandle, Recorder, TraceTrack, TraceValue};
use osn_graph::NodeId;

use crate::fault::{fault_metrics, FaultPlan, FaultSummary, RetryPolicy};
use crate::scratch::EpisodeScratch;
use crate::{
    AccuError, AccuInstance, AttackerView, MarginalGain, Observation, Policy, Realization,
};

/// Well-known simulator metric names (see [`AttackOptions::recorder`]).
pub mod sim_metrics {
    /// Episodes simulated.
    pub const EPISODES: &str = "sim.episodes";
    /// Requests sent (= trace length summed over episodes).
    pub const REQUESTS: &str = "sim.requests";
    /// Requests accepted.
    pub const ACCEPTED: &str = "sim.accepted";
    /// Requests rejected.
    pub const REJECTED: &str = "sim.rejected";
    /// Requests sent to cautious users.
    pub const CAUTIOUS_REQUESTS: &str = "sim.cautious_requests";
    /// Cautious users that accepted (the "cautious hit" counter).
    pub const CAUTIOUS_ACCEPTED: &str = "sim.cautious_accepted";
    /// Wall-clock nanoseconds spent in `Policy::select` per request.
    pub const SELECT_NS: &str = "sim.select_ns";
    /// Wall-clock nanoseconds resolving a request (acceptance draw,
    /// observation and benefit update) per request.
    pub const RESOLVE_NS: &str = "sim.resolve_ns";
    /// Wall-clock nanoseconds spent in `Policy::observe` per request.
    pub const NOTIFY_NS: &str = "sim.notify_ns";
    /// Wall-clock nanoseconds per full episode.
    pub const EPISODE_NS: &str = "sim.episode_ns";
}

/// Pre-fetched handles for the simulator's metrics; all no-ops when the
/// recorder is disabled.
struct SimTelemetry {
    episodes: CounterHandle,
    requests: CounterHandle,
    accepted: CounterHandle,
    rejected: CounterHandle,
    cautious_requests: CounterHandle,
    cautious_accepted: CounterHandle,
    select_ns: HistogramHandle,
    resolve_ns: HistogramHandle,
    notify_ns: HistogramHandle,
    episode_ns: HistogramHandle,
}

impl SimTelemetry {
    fn new(recorder: &Recorder) -> Self {
        SimTelemetry {
            episodes: recorder.counter(sim_metrics::EPISODES),
            requests: recorder.counter(sim_metrics::REQUESTS),
            accepted: recorder.counter(sim_metrics::ACCEPTED),
            rejected: recorder.counter(sim_metrics::REJECTED),
            cautious_requests: recorder.counter(sim_metrics::CAUTIOUS_REQUESTS),
            cautious_accepted: recorder.counter(sim_metrics::CAUTIOUS_ACCEPTED),
            select_ns: recorder.histogram(sim_metrics::SELECT_NS),
            resolve_ns: recorder.histogram(sim_metrics::RESOLVE_NS),
            notify_ns: recorder.histogram(sim_metrics::NOTIFY_NS),
            episode_ns: recorder.histogram(sim_metrics::EPISODE_NS),
        }
    }
}

/// Handles for the fault counters, fetched only when the episode's
/// plan can actually inject faults — a fault-free run never registers
/// (or pays for) them.
struct FaultTelemetry {
    injected: CounterHandle,
    transient: CounterHandle,
    dropped: CounterHandle,
    rate_limited: CounterHandle,
    retry_budget: CounterHandle,
    truncated: CounterHandle,
}

impl FaultTelemetry {
    fn new(recorder: &Recorder) -> Self {
        FaultTelemetry {
            injected: recorder.counter(fault_metrics::INJECTED),
            transient: recorder.counter(fault_metrics::TRANSIENT),
            dropped: recorder.counter(fault_metrics::DROPPED),
            rate_limited: recorder.counter(fault_metrics::RATE_LIMITED),
            retry_budget: recorder.counter(fault_metrics::RETRY_BUDGET),
            truncated: recorder.counter(fault_metrics::TRUNCATED),
        }
    }

    fn record(&self, summary: &FaultSummary) {
        self.injected.add(summary.faults_seen() as u64);
        self.transient.add(summary.transient_failures as u64);
        self.dropped.add(summary.dropped_responses as u64);
        self.rate_limited.add(summary.rate_limited_slots as u64);
        self.retry_budget.add(summary.retries_spent as u64);
        if summary.truncated_at.is_some() {
            self.truncated.incr();
        }
    }
}

/// One request in an attack trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// 0-based request index.
    pub step: usize,
    /// The targeted user.
    pub target: NodeId,
    /// Whether the target is cautious.
    pub cautious: bool,
    /// Whether the request was accepted.
    pub accepted: bool,
    /// Whether this request went unanswered because of an injected
    /// fault (transient failures exhausted retries, or the response was
    /// dropped). A faulted request is never `accepted`.
    pub faulted: bool,
    /// Marginal benefit of this request, split by source class.
    pub gain: MarginalGain,
    /// Benefit accumulated up to and including this request.
    pub cumulative_benefit: f64,
}

/// Full result of one attack episode.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// Per-request records, in order.
    pub trace: Vec<RequestRecord>,
    /// Final total benefit `f(π, φ)`.
    pub total_benefit: f64,
    /// Users that accepted, in acceptance order.
    pub friends: Vec<NodeId>,
    /// Number of cautious users among the friends.
    pub cautious_friends: usize,
    /// Fault accounting for the episode (all-zero on the fault-free
    /// path).
    pub faults: FaultSummary,
}

impl AttackOutcome {
    /// Number of requests actually sent.
    pub fn requests_sent(&self) -> usize {
        self.trace.len()
    }

    /// Cumulative benefit after each request (length = requests sent).
    pub fn benefit_curve(&self) -> Vec<f64> {
        self.trace.iter().map(|r| r.cumulative_benefit).collect()
    }
}

/// Resolves a friend request to `target`: evaluates the realization's
/// acceptance draw against the target's acceptance curve at the observed
/// mutual-friend count (which by construction equals the true realized
/// count `|N(v) ∩ N(s)|`).
///
/// Covers every user class uniformly: a constant curve for reckless
/// users, the 0/1 threshold step for cautious users, the two-level step
/// for hesitant users, and the rising line for linear-acceptance users.
///
/// # Panics
///
/// Panics if `target` is out of range.
pub fn resolve_acceptance(
    instance: &AccuInstance,
    observation: &Observation,
    realization: &Realization,
    target: NodeId,
) -> bool {
    realization.accepts_at(instance, target, observation.mutual_friends(target))
}

/// Everything an attack episode can carry besides the instance, the
/// policy and the budget: the policy's beliefs, the fault environment,
/// and the instrumentation sinks. The [`Default`] is the paper's
/// setting — exact knowledge, no faults, telemetry and tracing off — and
/// struct-update syntax sets only what differs:
///
/// ```
/// use accu_core::{AttackOptions, FaultPlan, RetryPolicy};
/// use accu_telemetry::Recorder;
///
/// let plan = FaultPlan::none();
/// let recorder = Recorder::enabled();
/// let opts = AttackOptions {
///     faults: &plan,
///     retry: RetryPolicy::standard(),
///     recorder: &recorder,
///     ..AttackOptions::default()
/// };
/// assert!(opts.believed.is_none());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AttackOptions<'a> {
    /// What the policy believes the instance to be (*model mismatch*):
    /// the policy sees this instance — possibly wrong probabilities,
    /// thresholds or benefits — while requests resolve, realized edges
    /// follow the true edge probabilities, and benefit accrues on the
    /// true instance. `None` means exact knowledge, the paper's
    /// assumption. Must share the true instance's graph.
    pub believed: Option<&'a AccuInstance>,
    /// The fault realization: transient failures retried per `retry`,
    /// dropped responses, rate-limit waits and suspension truncation,
    /// all paid out of the same budget `k`. Because the plan is indexed
    /// by budget slot, every policy evaluated against the same plan
    /// faces the identical fault sequence — the paired-comparison
    /// property the experiments rely on. The trivial plan
    /// ([`FaultPlan::none`]) is bit-for-bit the fault-free simulator.
    pub faults: &'a FaultPlan,
    /// Attacker retry policy under transient failures (irrelevant when
    /// `faults` is trivial).
    pub retry: RetryPolicy,
    /// Metrics sink: per-request select/resolve/notify span timing and
    /// request/acceptance/cautious-hit counters under the
    /// [`sim_metrics`] names, plus the
    /// [`fault_metrics`](crate::fault::fault_metrics) when the plan can
    /// inject faults. A disabled recorder never reads the clock.
    pub recorder: &'a Recorder,
    /// Causal-trace track. While its sampling gate is open, every
    /// request emits
    /// `request{step, target, cautious, theta, mutual, accepted, faulted,
    /// gain, cum_benefit}`, and every threshold-gated user whose observed
    /// mutual-friend count an acceptance just bumped emits
    /// `cautious_progress{node, mutual, theta}`. A disabled (or
    /// gated-off) track costs a branch on `None` plus one relaxed atomic
    /// load, with no allocation.
    pub track: &'a TraceTrack,
}

static NO_FAULTS: FaultPlan = FaultPlan::none();
static NO_RECORDER: Recorder = Recorder::disabled();
static NO_TRACK: TraceTrack = TraceTrack::disabled();

impl Default for AttackOptions<'_> {
    fn default() -> Self {
        AttackOptions {
            believed: None,
            faults: &NO_FAULTS,
            retry: RetryPolicy::give_up(),
            recorder: &NO_RECORDER,
            track: &NO_TRACK,
        }
    }
}

/// Runs `policy` against `realization` with a budget of `k` requests.
///
/// Stops early if the policy returns `None` (e.g. every user has been
/// requested). Cautious acceptances are resolved against the attacker's
/// observed mutual-friend count, which by construction equals the true
/// realized count `|N(v) ∩ N(s)|`.
///
/// Runs in a fresh [`EpisodeScratch`] holding a copy of `realization`;
/// Monte-Carlo loops reuse one arena through [`run_attack_with`]
/// instead.
///
/// # Panics
///
/// Panics if the policy selects an already-requested node.
pub fn run_attack(
    instance: &AccuInstance,
    realization: &Realization,
    policy: &mut dyn Policy,
    k: usize,
) -> AttackOutcome {
    let mut scratch = EpisodeScratch::new();
    scratch.realization = realization.clone();
    attack_core(instance, policy, k, &AttackOptions::default(), &mut scratch);
    scratch.outcome
}

/// Runs one attack episode on `instance` under `opts`, entirely inside
/// `scratch`: the caller samples `scratch.realization` first (see
/// [`Realization::sample_into`]), then this reuses every per-episode
/// buffer — observation, benefit state, revealed list, trace and
/// friend list — so steady-state episodes allocate nothing. The
/// returned reference points at `scratch`'s outcome slot, valid until
/// the next episode run in the same scratch.
///
/// With [`AttackOptions::default`] the outcome is bit-for-bit
/// [`run_attack`] on the same realization; no option changes the
/// outcome except `believed`, `faults` and `retry`.
///
/// # Errors
///
/// Returns [`AccuError::TopologyMismatch`] if `opts.believed` does not
/// share `instance`'s graph.
///
/// # Panics
///
/// Panics if the policy selects an already-requested node.
pub fn run_attack_with<'s>(
    instance: &AccuInstance,
    policy: &mut dyn Policy,
    k: usize,
    opts: &AttackOptions<'_>,
    scratch: &'s mut EpisodeScratch,
) -> Result<&'s AttackOutcome, AccuError> {
    if let Some(believed) = opts.believed {
        check_topology(instance, believed)?;
    }
    attack_core(instance, policy, k, opts, scratch);
    Ok(&scratch.outcome)
}

/// [`run_attack_with`] with the fault plan, retry policy and recorder
/// as positional arguments and exact knowledge — the shape the
/// Monte-Carlo benchmarks drive.
///
/// # Panics
///
/// Panics if the policy selects an already-requested node.
pub fn run_attack_episode<'s>(
    instance: &AccuInstance,
    policy: &mut dyn Policy,
    k: usize,
    plan: &FaultPlan,
    retry: &RetryPolicy,
    recorder: &Recorder,
    scratch: &'s mut EpisodeScratch,
) -> &'s AttackOutcome {
    let opts = AttackOptions {
        faults: plan,
        retry: *retry,
        recorder,
        ..AttackOptions::default()
    };
    run_attack_with(instance, policy, k, &opts, scratch).expect("exact knowledge cannot mismatch")
}

/// [`run_attack_with`] on an explicit realization, returning an owned
/// outcome: the test seam for recorded, faulted and belief-mismatched
/// runs.
#[cfg(test)]
pub(crate) fn attack_with(
    instance: &AccuInstance,
    realization: &Realization,
    policy: &mut dyn Policy,
    k: usize,
    opts: &AttackOptions<'_>,
) -> Result<AttackOutcome, AccuError> {
    let mut scratch = EpisodeScratch::new();
    scratch.realization = realization.clone();
    run_attack_with(instance, policy, k, opts, &mut scratch).cloned()
}

/// How a request attempt at one budget slot resolved.
enum AttemptFate {
    /// The request went through; resolve acceptance normally.
    Resolved,
    /// The request went unanswered (retries exhausted or response
    /// dropped); the attacker writes the target off.
    Unanswered,
    /// Suspension struck while handling the target; episode over.
    Suspended(usize),
}

/// The attack loop behind every entry point: the policy sees
/// `opts.believed` (or `truth`), requests resolve against
/// `scratch.realization`, edges are revealed
/// (at the truth's probabilities, for a keyed realization) and benefit
/// accrues on `truth`. Budget is consumed per *slot*: fault-free, one
/// slot per request; under faults, failed attempts, backoff waits and
/// rate-limit pauses burn slots too. Writes every episode artifact into
/// `scratch` in place.
fn attack_core(
    truth: &AccuInstance,
    policy: &mut dyn Policy,
    k: usize,
    opts: &AttackOptions<'_>,
    scratch: &mut EpisodeScratch,
) {
    let AttackOptions {
        believed,
        faults,
        retry,
        recorder,
        track,
    } = *opts;
    let believed = believed.unwrap_or(truth);
    let tel = SimTelemetry::new(recorder);
    // Only register fault counters when faults can actually occur, so
    // fault-free telemetry output is unchanged.
    let ftel = if faults.is_trivial() {
        None
    } else {
        Some(FaultTelemetry::new(recorder))
    };
    let episode_span = tel.episode_ns.span();
    let EpisodeScratch {
        realization,
        observation,
        benefit,
        revealed,
        outcome,
        ..
    } = scratch;
    let realization = &*realization;
    observation.reset_for(truth);
    benefit.reset_for(truth);
    policy.reset(&AttackerView::new(believed, observation));
    // Size the per-request buffers for any episode on this instance (a
    // reveal lists at most n − 1 neighbors, an episode befriends at most
    // n users), so only the first episode on an instance allocates.
    let n = truth.node_count();
    revealed.clear();
    revealed.reserve(n);
    outcome.friends.clear();
    outcome.friends.reserve(n);
    let trace = &mut outcome.trace;
    trace.clear();
    trace.reserve(k);
    let mut summary = FaultSummary::default();
    let mut slot = 0usize;
    'episode: while slot < k {
        if faults.suspended(slot) {
            summary.truncated_at = Some(slot);
            break;
        }
        if faults.rate_limited(slot) {
            summary.rate_limited_slots += 1;
            slot += 1;
            continue;
        }
        let selected = {
            let _span = tel.select_ns.span();
            policy.select(&AttackerView::new(believed, observation))
        };
        let target = match selected {
            Some(t) => t,
            None => break,
        };
        assert!(
            !observation.was_requested(target),
            "policy {} re-selected node {target}",
            policy.name()
        );
        // Attempt loop: burn slots until the request resolves, goes
        // unanswered, or the account dies. Fault-free this runs exactly
        // once and consumes exactly one slot.
        let mut attempt: u32 = 0;
        let fate = loop {
            if faults.suspended(slot) {
                break AttemptFate::Suspended(slot);
            }
            if faults.transient(slot) {
                summary.transient_failures += 1;
                slot += 1; // the failed attempt consumed its slot
                if attempt < retry.max_retries && slot < k {
                    attempt += 1;
                    let backoff = retry.backoff(attempt).min(k - slot);
                    // The backoff wait plus the upcoming re-send are
                    // budget spent purely on retrying.
                    summary.retries_spent += backoff + 1;
                    slot += backoff;
                    continue;
                }
                break AttemptFate::Unanswered;
            }
            if faults.dropped(slot) {
                summary.dropped_responses += 1;
                slot += 1;
                break AttemptFate::Unanswered;
            }
            slot += 1;
            break AttemptFate::Resolved;
        };
        revealed.clear();
        let (accepted, faulted, gain) = match fate {
            AttemptFate::Suspended(s) => {
                summary.truncated_at = Some(s);
                break 'episode;
            }
            AttemptFate::Resolved => {
                let resolve_span = tel.resolve_ns.span();
                let accepted = resolve_acceptance(truth, observation, realization, target);
                let gain = if accepted {
                    observation.record_acceptance_into(target, truth, realization, revealed);
                    benefit.add_revealed_friend(truth, target, revealed)
                } else {
                    observation.record_rejection(target);
                    MarginalGain::default()
                };
                resolve_span.finish();
                (accepted, false, gain)
            }
            // Unanswered: the target never (observably) decided. The
            // attacker cannot distinguish silence from rejection and
            // writes the target off; no benefit accrues and no resolve
            // span is timed (nothing was resolved).
            AttemptFate::Unanswered => {
                observation.record_rejection(target);
                (false, true, MarginalGain::default())
            }
        };
        let cautious = truth.is_cautious(target);
        tel.requests.incr();
        if cautious {
            tel.cautious_requests.incr();
        }
        if accepted {
            tel.accepted.incr();
            if cautious {
                tel.cautious_accepted.incr();
            }
        } else {
            tel.rejected.incr();
        }
        trace.push(RequestRecord {
            step: trace.len(),
            target,
            cautious,
            accepted,
            faulted,
            gain,
            cumulative_benefit: benefit.total(),
        });
        // Causal trace: one `request` instant per record (the payload
        // carries the exact cumulative benefit, so a replayer can
        // reconstruct the episode's total bit-for-bit), plus a
        // `cautious_progress` instant for every threshold-gated user an
        // acceptance just moved closer to its threshold. Guarded so the
        // untraced path does no extra work at all.
        if track.is_active() {
            track.instant(
                "request",
                &[
                    ("step", TraceValue::U64((trace.len() - 1) as u64)),
                    ("target", TraceValue::U64(target.index() as u64)),
                    ("cautious", TraceValue::Bool(cautious)),
                    (
                        "theta",
                        match truth.threshold(target) {
                            Some(theta) => TraceValue::I64(i64::from(theta)),
                            None => TraceValue::I64(-1),
                        },
                    ),
                    (
                        "mutual",
                        TraceValue::U64(u64::from(observation.mutual_friends(target))),
                    ),
                    ("accepted", TraceValue::Bool(accepted)),
                    ("faulted", TraceValue::Bool(faulted)),
                    ("gain", TraceValue::F64(gain.total())),
                    ("cum_benefit", TraceValue::F64(benefit.total())),
                ],
            );
            for &v in revealed.iter() {
                if let Some(theta) = truth.threshold(v) {
                    track.instant(
                        "cautious_progress",
                        &[
                            ("node", TraceValue::U64(v.index() as u64)),
                            (
                                "mutual",
                                TraceValue::U64(u64::from(observation.mutual_friends(v))),
                            ),
                            ("theta", TraceValue::U64(u64::from(theta))),
                        ],
                    );
                }
            }
        }
        {
            let _span = tel.notify_ns.span();
            policy.observe(
                &AttackerView::new(believed, observation),
                target,
                accepted,
                revealed,
            );
        }
    }
    tel.episodes.incr();
    if let Some(ftel) = &ftel {
        ftel.record(&summary);
    }
    episode_span.finish();
    outcome.total_benefit = benefit.total();
    outcome.friends.clear();
    outcome.friends.extend_from_slice(observation.friends());
    outcome.cautious_friends = benefit.cautious_friend_count();
    outcome.faults = summary;
}

fn check_topology(truth: &AccuInstance, believed: &AccuInstance) -> Result<(), AccuError> {
    if truth.graph() != believed.graph() {
        return Err(AccuError::TopologyMismatch {
            truth: (truth.node_count(), truth.graph().edge_count()),
            believed: (believed.node_count(), believed.graph().edge_count()),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RateLimit;
    use crate::policy::{Abm, AbmWeights, MaxDegree};
    use crate::{AccuInstanceBuilder, FaultConfig, UserClass};
    use osn_graph::GraphBuilder;

    /// Path 0 - 1 - 2; node 2 cautious with θ = 1, B_f = 10.
    fn path_instance() -> AccuInstance {
        let g = GraphBuilder::from_edges(3, [(0u32, 1u32), (1, 2)]).unwrap();
        AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(2), UserClass::cautious(1))
            .benefits(NodeId::new(2), 10.0, 1.0)
            .build()
            .unwrap()
    }

    fn full(inst: &AccuInstance) -> Realization {
        Realization::from_parts(
            inst,
            vec![true; inst.graph().edge_count()],
            vec![true; inst.node_count()],
        )
        .unwrap()
    }

    /// [`attack_with`] under the fault plan `plan` and retry policy
    /// `retry`.
    fn faulted(
        inst: &AccuInstance,
        real: &Realization,
        policy: &mut dyn Policy,
        k: usize,
        plan: &FaultPlan,
        retry: RetryPolicy,
    ) -> AttackOutcome {
        let opts = AttackOptions {
            faults: plan,
            retry,
            ..AttackOptions::default()
        };
        attack_with(inst, real, policy, k, &opts).unwrap()
    }

    #[test]
    fn trace_is_consistent() {
        let inst = path_instance();
        let real = full(&inst);
        let mut abm = Abm::new(AbmWeights::balanced());
        let out = run_attack(&inst, &real, &mut abm, 3);
        assert_eq!(out.trace.len(), 3);
        // Steps are sequential; cumulative benefit is non-decreasing and
        // matches the sum of gains.
        let mut acc = 0.0;
        for (i, r) in out.trace.iter().enumerate() {
            assert_eq!(r.step, i);
            assert!(!r.faulted);
            acc += r.gain.total();
            assert!((r.cumulative_benefit - acc).abs() < 1e-12);
        }
        assert_eq!(out.total_benefit, acc);
        assert_eq!(out.friends.len(), 3);
        assert!(out.faults.is_clean());
    }

    #[test]
    fn cautious_rejected_below_threshold() {
        let inst = path_instance();
        let real = full(&inst);
        // MaxDegree requests 1 first (degree 2)... then 0 and 2 (degree 1,
        // tie toward lower id). Node 2's request comes when 1 is already a
        // friend → accepted. Force rejection instead by giving node 2 no
        // unlocked path: use budget 1 on a policy that targets 2 first.
        struct Fixed(Vec<NodeId>);
        impl Policy for Fixed {
            fn name(&self) -> &str {
                "Fixed"
            }
            fn reset(&mut self, _: &AttackerView<'_>) {}
            fn select(&mut self, _: &AttackerView<'_>) -> Option<NodeId> {
                self.0.pop()
            }
        }
        let mut fixed = Fixed(vec![NodeId::new(2)]);
        let out = run_attack(&inst, &real, &mut fixed, 1);
        assert!(!out.trace[0].accepted);
        assert_eq!(out.total_benefit, 0.0);
        assert_eq!(out.cautious_friends, 0);
    }

    #[test]
    fn reckless_rejections_follow_realization() {
        let inst = path_instance();
        let real =
            Realization::from_parts(&inst, vec![true, true], vec![false, true, false]).unwrap();
        let mut md = MaxDegree::new();
        let out = run_attack(&inst, &real, &mut md, 3);
        // Order: 1 (deg 2, accepts), 0 (deg 1, rejects), 2 (cautious,
        // mutual = 1 ≥ θ, accepts).
        assert!(out.trace[0].accepted);
        assert!(!out.trace[1].accepted);
        assert!(out.trace[2].accepted);
        assert_eq!(out.cautious_friends, 1);
        // Benefit: B_f(1)=2 + B_fof(0)+B_fof(2)=2, then upgrade 2: +9.
        assert_eq!(out.total_benefit, 13.0);
        assert_eq!(out.benefit_curve(), vec![4.0, 4.0, 13.0]);
    }

    #[test]
    fn correct_beliefs_reproduce_the_plain_attack() {
        let inst = path_instance();
        let real = full(&inst);
        let mut abm1 = Abm::new(AbmWeights::balanced());
        let mut abm2 = Abm::new(AbmWeights::balanced());
        let plain = run_attack(&inst, &real, &mut abm1, 3);
        let believed = attack_with(
            &inst,
            &real,
            &mut abm2,
            3,
            &AttackOptions {
                believed: Some(&inst),
                ..AttackOptions::default()
            },
        )
        .unwrap();
        assert_eq!(plain, believed);
    }

    #[test]
    fn wrong_beliefs_change_decisions_but_not_ground_truth() {
        // Believed: node 2's friend benefit is tiny, so ABM deprioritizes
        // it; truth still pays the real B_f on acceptance.
        let inst = path_instance();
        let real = full(&inst);
        let believed = AccuInstanceBuilder::new(inst.graph().clone())
            .user_class(NodeId::new(2), UserClass::cautious(1))
            .benefits(NodeId::new(2), 1.2, 1.0)
            .build()
            .unwrap();
        let mut abm = Abm::new(AbmWeights::balanced());
        let out = attack_with(
            &inst,
            &real,
            &mut abm,
            3,
            &AttackOptions {
                believed: Some(&believed),
                ..AttackOptions::default()
            },
        )
        .unwrap();
        // All three users still end up friends (budget covers everyone)
        // and the collected benefit uses the TRUE value of node 2.
        assert_eq!(out.friends.len(), 3);
        assert_eq!(out.total_benefit, 2.0 + 2.0 + 10.0 + 0.0); // B_f sums; fofs upgraded
    }

    #[test]
    fn mismatched_topologies_yield_typed_error() {
        let inst = path_instance();
        let other = AccuInstanceBuilder::new(GraphBuilder::from_edges(3, [(0u32, 1u32)]).unwrap())
            .build()
            .unwrap();
        let real = full(&inst);
        let mut abm = Abm::new(AbmWeights::balanced());
        let err = attack_with(
            &inst,
            &real,
            &mut abm,
            1,
            &AttackOptions {
                believed: Some(&other),
                ..AttackOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            AccuError::TopologyMismatch {
                truth: (3, 2),
                believed: (3, 1),
            }
        );
        assert!(err.to_string().contains("share a topology"));
    }

    #[test]
    fn recorded_attack_matches_plain_and_counts_every_request() {
        let inst = path_instance();
        let real = full(&inst);
        let rec = Recorder::enabled();
        let plain = run_attack(&inst, &real, &mut Abm::new(AbmWeights::balanced()), 3);
        let opts = AttackOptions {
            recorder: &rec,
            ..AttackOptions::default()
        };
        let recorded = attack_with(
            &inst,
            &real,
            &mut Abm::new(AbmWeights::balanced()),
            3,
            &opts,
        )
        .unwrap();
        assert_eq!(plain, recorded, "telemetry must not change behavior");
        let snap = rec.snapshot("test").unwrap();
        assert_eq!(snap.counter(sim_metrics::EPISODES), Some(1));
        assert_eq!(snap.counter(sim_metrics::REQUESTS), Some(3));
        assert_eq!(
            snap.counter(sim_metrics::ACCEPTED),
            Some(recorded.friends.len() as u64)
        );
        assert_eq!(
            snap.counter(sim_metrics::REJECTED).unwrap()
                + snap.counter(sim_metrics::ACCEPTED).unwrap(),
            snap.counter(sim_metrics::REQUESTS).unwrap()
        );
        assert_eq!(
            snap.counter(sim_metrics::CAUTIOUS_ACCEPTED),
            Some(recorded.cautious_friends as u64)
        );
        // Every request was timed through all three stages.
        for h in [
            sim_metrics::SELECT_NS,
            sim_metrics::RESOLVE_NS,
            sim_metrics::NOTIFY_NS,
        ] {
            assert_eq!(snap.histogram(h).unwrap().count, 3, "{h} span count");
        }
        assert_eq!(snap.histogram(sim_metrics::EPISODE_NS).unwrap().count, 1);
        // The fault-free path never registers fault counters.
        assert_eq!(snap.counter(fault_metrics::INJECTED), None);
    }

    #[test]
    fn disabled_recorder_records_nothing_and_changes_nothing() {
        let inst = path_instance();
        let real = full(&inst);
        let rec = Recorder::disabled();
        let opts = AttackOptions {
            recorder: &rec,
            ..AttackOptions::default()
        };
        let out = attack_with(&inst, &real, &mut MaxDegree::new(), 3, &opts).unwrap();
        assert_eq!(out.trace.len(), 3);
        assert!(rec.snapshot("x").is_none());
    }

    #[test]
    fn recorded_beliefs_variant_counts_too() {
        let inst = path_instance();
        let real = full(&inst);
        let rec = Recorder::enabled();
        let opts = AttackOptions {
            believed: Some(&inst),
            recorder: &rec,
            ..AttackOptions::default()
        };
        let out = attack_with(
            &inst,
            &real,
            &mut Abm::new(AbmWeights::balanced()),
            2,
            &opts,
        )
        .unwrap();
        let snap = rec.snapshot("beliefs").unwrap();
        assert_eq!(
            snap.counter(sim_metrics::REQUESTS),
            Some(out.requests_sent() as u64)
        );
    }

    #[test]
    fn budget_zero_sends_nothing() {
        let inst = path_instance();
        let real = full(&inst);
        let mut md = MaxDegree::new();
        let out = run_attack(&inst, &real, &mut md, 0);
        assert!(out.trace.is_empty());
        assert_eq!(out.total_benefit, 0.0);
        assert_eq!(out.requests_sent(), 0);
    }

    #[test]
    fn trivial_plan_reproduces_plain_attack_exactly() {
        let inst = path_instance();
        let real = full(&inst);
        let plain = run_attack(&inst, &real, &mut Abm::new(AbmWeights::balanced()), 3);
        let none = FaultPlan::none();
        let faulted1 = faulted(
            &inst,
            &real,
            &mut Abm::new(AbmWeights::balanced()),
            3,
            &none,
            RetryPolicy::standard(),
        );
        assert_eq!(plain, faulted1);
        let sampled_trivial = FaultPlan::sample(&FaultConfig::none(), 7, 3);
        let faulted2 = faulted(
            &inst,
            &real,
            &mut Abm::new(AbmWeights::balanced()),
            3,
            &sampled_trivial,
            RetryPolicy::standard(),
        );
        assert_eq!(plain, faulted2);
    }

    #[test]
    fn transient_failure_retries_and_succeeds() {
        let inst = path_instance();
        let real = full(&inst);
        // Slot 0 fails; retry with backoff 1 re-sends at slot 2, which
        // succeeds. Budget 4 leaves one slot for a second request.
        let plan = FaultPlan::from_parts(vec![true, false, false, false], Vec::new(), None, None);
        let retry = RetryPolicy {
            max_retries: 2,
            backoff_base: 1,
            backoff_cap: 4,
        };
        let out = faulted(&inst, &real, &mut MaxDegree::new(), 4, &plan, retry);
        // MaxDegree targets node 1 first; the retry succeeds, then one
        // more slot remains for node 0.
        assert_eq!(out.trace.len(), 2);
        assert!(out.trace[0].accepted);
        assert!(!out.trace[0].faulted);
        assert_eq!(out.faults.transient_failures, 1);
        assert_eq!(out.faults.retries_spent, 2); // 1 backoff + 1 re-send
        assert_eq!(out.faults.truncated_at, None);
    }

    #[test]
    fn transient_failure_without_retry_writes_target_off() {
        let inst = path_instance();
        let real = full(&inst);
        let plan = FaultPlan::from_parts(vec![true, false, false], Vec::new(), None, None);
        let out = faulted(
            &inst,
            &real,
            &mut MaxDegree::new(),
            3,
            &plan,
            RetryPolicy::give_up(),
        );
        // Node 1's request is lost; nodes 0 and 2 still get requested.
        assert_eq!(out.trace.len(), 3);
        assert!(out.trace[0].faulted);
        assert!(!out.trace[0].accepted);
        assert_eq!(out.trace[0].target, NodeId::new(1));
        assert_eq!(out.faults.transient_failures, 1);
        assert_eq!(out.faults.retries_spent, 0);
        // Without the hub friend, the cautious node 2 has no mutual
        // friends and rejects.
        assert_eq!(out.cautious_friends, 0);
    }

    #[test]
    fn dropped_response_consumes_budget_without_benefit() {
        let inst = path_instance();
        let real = full(&inst);
        let plan = FaultPlan::from_parts(Vec::new(), vec![true, false, false], None, None);
        let out = faulted(
            &inst,
            &real,
            &mut MaxDegree::new(),
            3,
            &plan,
            RetryPolicy::standard(),
        );
        assert_eq!(out.trace.len(), 3);
        assert!(out.trace[0].faulted);
        assert!(!out.trace[0].accepted);
        assert_eq!(out.faults.dropped_responses, 1);
        // Drops are not retried: the attacker saw silence, not an error.
        assert_eq!(out.faults.retries_spent, 0);
        assert_eq!(out.trace[0].gain, MarginalGain::default());
    }

    #[test]
    fn suspension_truncates_the_episode() {
        let inst = path_instance();
        let real = full(&inst);
        let plan = FaultPlan::from_parts(Vec::new(), Vec::new(), Some(2), None);
        let out = faulted(
            &inst,
            &real,
            &mut MaxDegree::new(),
            3,
            &plan,
            RetryPolicy::standard(),
        );
        assert_eq!(out.trace.len(), 2);
        assert_eq!(out.faults.truncated_at, Some(2));
        assert_eq!(out.requests_sent(), 2);
    }

    #[test]
    fn rate_limit_burns_slots() {
        let inst = path_instance();
        let real = full(&inst);
        let plan = FaultPlan::from_parts(
            Vec::new(),
            Vec::new(),
            None,
            Some(RateLimit {
                window: 1,
                pause: 1,
            }),
        );
        // Budget 4, pattern: request, wait, request, wait.
        let out = faulted(
            &inst,
            &real,
            &mut MaxDegree::new(),
            4,
            &plan,
            RetryPolicy::standard(),
        );
        assert_eq!(out.trace.len(), 2);
        assert_eq!(out.faults.rate_limited_slots, 2);
        assert_eq!(out.faults.faults_seen(), 2);
    }

    #[test]
    fn faulted_recorded_counts_fault_events() {
        let inst = path_instance();
        let real = full(&inst);
        let rec = Recorder::enabled();
        let plan =
            FaultPlan::from_parts(vec![true, false, false, false], Vec::new(), Some(3), None);
        let opts = AttackOptions {
            faults: &plan,
            recorder: &rec,
            ..AttackOptions::default()
        };
        let out = attack_with(&inst, &real, &mut MaxDegree::new(), 4, &opts).unwrap();
        let snap = rec.snapshot("faults").unwrap();
        assert_eq!(
            snap.counter(fault_metrics::TRANSIENT),
            Some(out.faults.transient_failures as u64)
        );
        assert_eq!(snap.counter(fault_metrics::TRUNCATED), Some(1));
        assert_eq!(
            snap.counter(fault_metrics::INJECTED),
            Some(out.faults.faults_seen() as u64)
        );
    }

    #[test]
    fn same_plan_for_every_policy_is_paired() {
        let inst = path_instance();
        let real = full(&inst);
        let cfg = FaultConfig::scaled(1.0);
        let plan = FaultPlan::sample(&cfg, 11, 6);
        let a = faulted(
            &inst,
            &real,
            &mut MaxDegree::new(),
            6,
            &plan,
            RetryPolicy::standard(),
        );
        let b = faulted(
            &inst,
            &real,
            &mut Abm::new(AbmWeights::balanced()),
            6,
            &plan,
            RetryPolicy::standard(),
        );
        // Same fault realization: rate-limit and suspension slots agree
        // regardless of the policy's choices.
        assert_eq!(a.faults.rate_limited_slots, b.faults.rate_limited_slots);
        assert_eq!(
            a.faults.truncated_at.is_some(),
            b.faults.truncated_at.is_some()
        );
    }
}
