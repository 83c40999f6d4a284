//! Deterministic, seeded fault injection for the attack simulator.
//!
//! The paper's attacker model assumes every friend request resolves
//! instantly and the platform never pushes back. Real OSNs throttle
//! request bursts, drop responses, and suspend suspicious accounts.
//! This module models those operating conditions as a *pre-sampled*
//! [`FaultPlan`]: a per-budget-slot realization of transient failures,
//! response drops, rate-limit windows and an account-suspension time,
//! drawn from a [`FaultConfig`] by a seed that is independent of the
//! attack policy. Because faults are indexed by budget slot — not by
//! the target the policy happens to pick — every policy evaluated on
//! the same episode seed faces the *identical* fault realization,
//! preserving the paired-comparison setup of the experiments.
//!
//! Fault semantics (per budget slot, each slot = one unit of the
//! request budget `k`):
//!
//! * **Transient failure** — the request never leaves the attacker
//!   (network error). The attacker *knows* it failed and may retry the
//!   same target under its [`RetryPolicy`], paying capped exponential
//!   backoff in wasted budget. If retries are exhausted the attacker
//!   gives up on the target (recorded as an unanswered request).
//! * **Response drop** — the request is sent and consumes budget but
//!   the platform loses it; the target never decides. The attacker
//!   cannot distinguish silence from rejection, so the target is
//!   written off exactly like a rejection. No benefit accrues.
//! * **Rate limit** — a periodic window pattern: after every
//!   `window` usable slots the next `pause` slots are forcibly idle
//!   (the platform throttles the account; budget burns while waiting).
//! * **Suspension** — a per-slot hazard; once it strikes, the episode
//!   is truncated (the attacker account is gone).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::AccuError;

/// Well-known fault metric names recorded by the fault-aware simulator
/// (see [`crate::AttackOptions::faults`]) and the experiment
/// runner's quarantine path.
pub mod fault_metrics {
    /// Total fault events injected (transient + dropped + rate-limited
    /// slots + truncations).
    pub const INJECTED: &str = "fault.injected";
    /// Transient request failures observed by the attacker.
    pub const TRANSIENT: &str = "fault.transient";
    /// Responses dropped by the platform (silent losses).
    pub const DROPPED: &str = "fault.dropped";
    /// Budget slots burned inside rate-limit windows.
    pub const RATE_LIMITED: &str = "fault.rate_limited";
    /// Budget units consumed by retries (backoff waits plus re-sent
    /// requests).
    pub const RETRY_BUDGET: &str = "fault.retry_budget";
    /// Episodes truncated by account suspension.
    pub const TRUNCATED: &str = "fault.truncated";
}

/// A periodic throttling pattern: `window` usable budget slots followed
/// by `pause` forcibly idle ones, repeating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Usable slots per cycle.
    pub window: usize,
    /// Idle slots appended to each cycle.
    pub pause: usize,
}

impl RateLimit {
    /// Whether budget slot `slot` falls inside a throttled stretch.
    pub fn limited(&self, slot: usize) -> bool {
        if self.window == 0 {
            return self.pause > 0;
        }
        if self.pause == 0 {
            return false;
        }
        slot % (self.window + self.pause) >= self.window
    }
}

/// Description of the fault environment an episode runs under.
///
/// # Examples
///
/// ```
/// use accu_core::FaultConfig;
///
/// assert!(FaultConfig::none().is_none());
/// let faulty = FaultConfig::scaled(0.5);
/// assert!(!faulty.is_none());
/// faulty.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Per-slot probability a request transiently fails (retryable).
    pub transient_failure: f64,
    /// Per-slot probability a sent request's response is lost.
    pub response_drop: f64,
    /// Optional periodic throttling pattern.
    pub rate_limit: Option<RateLimit>,
    /// Per-slot hazard of account suspension (episode truncation).
    pub suspension_hazard: f64,
    /// Salt mixed into every sampled [`FaultPlan`] seed, so two
    /// experiments with the same episode seeds can still draw
    /// independent fault realizations.
    pub seed: u64,
}

impl FaultConfig {
    /// The fault-free environment (the paper's assumption).
    pub fn none() -> Self {
        FaultConfig {
            transient_failure: 0.0,
            response_drop: 0.0,
            rate_limit: None,
            suspension_hazard: 0.0,
            seed: 0,
        }
    }

    /// Whether this config can never inject a fault. Plans sampled from
    /// such a config are trivial and add zero overhead.
    pub fn is_none(&self) -> bool {
        self.transient_failure <= 0.0
            && self.response_drop <= 0.0
            && self.suspension_hazard <= 0.0
            && !matches!(self.rate_limit, Some(rl) if rl.pause > 0)
    }

    /// A one-knob preset: `intensity` in `[0, 1]` scales every fault
    /// channel from "none" to "hostile platform". Used by the
    /// experiment binaries' `--faults` flag.
    pub fn scaled(intensity: f64) -> Self {
        let f = intensity.clamp(0.0, 1.0);
        if f == 0.0 {
            return FaultConfig::none();
        }
        FaultConfig {
            transient_failure: 0.30 * f,
            response_drop: 0.15 * f,
            rate_limit: Some(RateLimit {
                window: 25,
                pause: (10.0 * f).ceil() as usize,
            }),
            suspension_hazard: 0.001 * f,
            seed: 0,
        }
    }

    /// Checks every probability is in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`AccuError::InvalidProbability`] naming the offending
    /// channel.
    pub fn validate(&self) -> Result<(), AccuError> {
        for (what, value) in [
            ("transient failure", self.transient_failure),
            ("response drop", self.response_drop),
            ("suspension hazard", self.suspension_hazard),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(AccuError::InvalidProbability { what, value });
            }
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// A concrete fault realization for one episode of up to `k` budget
/// slots, pre-sampled so it is identical for every policy evaluated on
/// the same episode seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Per-slot transient-failure flags (empty ⇒ never).
    transient: Vec<bool>,
    /// Per-slot response-drop flags (empty ⇒ never).
    dropped: Vec<bool>,
    /// First slot at which the suspension hazard strikes.
    suspend_at: Option<usize>,
    /// Throttling pattern, if any.
    rate_limit: Option<RateLimit>,
}

impl FaultPlan {
    /// The trivial plan: no faults, zero overhead. Exactly the
    /// pre-fault simulator behavior.
    pub const fn none() -> Self {
        FaultPlan {
            transient: Vec::new(),
            dropped: Vec::new(),
            suspend_at: None,
            rate_limit: None,
        }
    }

    /// Samples a plan for an episode of `k` budget slots.
    ///
    /// Deterministic in `(config, seed, k)`: the same inputs yield the
    /// identical plan on any thread or machine. The fault stream is
    /// drawn from its own RNG, so sampling a plan never perturbs the
    /// realization or policy streams.
    pub fn sample(config: &FaultConfig, seed: u64, k: usize) -> Self {
        if config.is_none() {
            return FaultPlan::none();
        }
        // SplitMix64-style mix of the episode seed and the config salt
        // keeps the fault stream decorrelated from the realization
        // stream (which is seeded by `seed` directly).
        let mixed = (seed ^ config.seed.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(mixed ^ 0xFAB1_7FAB);
        // Fixed sampling order (transient, dropped, suspension) so the
        // plan is a pure function of the inputs.
        let transient: Vec<bool> = if config.transient_failure > 0.0 {
            (0..k)
                .map(|_| rng.gen_bool(config.transient_failure))
                .collect()
        } else {
            Vec::new()
        };
        let dropped: Vec<bool> = if config.response_drop > 0.0 {
            (0..k).map(|_| rng.gen_bool(config.response_drop)).collect()
        } else {
            Vec::new()
        };
        let suspend_at = if config.suspension_hazard > 0.0 {
            (0..k).find(|_| rng.gen_bool(config.suspension_hazard))
        } else {
            None
        };
        FaultPlan {
            transient,
            dropped,
            suspend_at,
            rate_limit: config.rate_limit,
        }
    }

    /// Builds a plan from explicit per-slot flags — the test seam for
    /// forcing exact fault sequences.
    pub fn from_parts(
        transient: Vec<bool>,
        dropped: Vec<bool>,
        suspend_at: Option<usize>,
        rate_limit: Option<RateLimit>,
    ) -> Self {
        FaultPlan {
            transient,
            dropped,
            suspend_at,
            rate_limit,
        }
    }

    /// Whether this plan can never inject a fault (the zero-overhead
    /// fast path of the simulator).
    pub fn is_trivial(&self) -> bool {
        self.suspend_at.is_none()
            && !matches!(self.rate_limit, Some(rl) if rl.pause > 0)
            && !self.transient.iter().any(|&b| b)
            && !self.dropped.iter().any(|&b| b)
    }

    /// Whether the request at budget slot `slot` transiently fails.
    pub fn transient(&self, slot: usize) -> bool {
        self.transient.get(slot).copied().unwrap_or(false)
    }

    /// Whether the response to a request at slot `slot` is dropped.
    pub fn dropped(&self, slot: usize) -> bool {
        self.dropped.get(slot).copied().unwrap_or(false)
    }

    /// Whether the account is suspended at (or before) slot `slot`.
    pub fn suspended(&self, slot: usize) -> bool {
        matches!(self.suspend_at, Some(s) if slot >= s)
    }

    /// Whether slot `slot` falls in a rate-limit pause.
    pub fn rate_limited(&self, slot: usize) -> bool {
        matches!(self.rate_limit, Some(rl) if rl.limited(slot))
    }
}

/// Attacker-side retry semantics for transient failures: up to
/// `max_retries` re-sends per target, each preceded by capped
/// exponential backoff *paid in budget* (waiting burns request slots).
///
/// The same policy doubles as the service client's reconnect schedule,
/// where [`jitter_pct`](RetryPolicy::jitter_pct) decorrelates
/// concurrent clients: with jitter enabled,
/// [`backoff_jittered`](RetryPolicy::backoff_jittered) shaves a seeded,
/// deterministic fraction off each wait so a fleet retrying against one
/// recovering daemon does not arrive in lockstep. The attacker
/// simulation always runs with `jitter_pct == 0`, for which the
/// jittered path is bit-identical to [`backoff`](RetryPolicy::backoff).
///
/// # Examples
///
/// ```
/// use accu_core::RetryPolicy;
///
/// let r = RetryPolicy::standard();
/// assert_eq!(r.backoff(1), 1);
/// assert_eq!(r.backoff(2), 2);
/// assert_eq!(r.backoff(5), r.backoff_cap); // capped
/// assert_eq!(RetryPolicy::give_up().max_retries, 0);
/// // No jitter (the default): identical to `backoff` for every seed.
/// assert_eq!(r.backoff_jittered(2, 7), r.backoff(2));
/// // With jitter: never longer than the deterministic wait.
/// let j = r.with_jitter(50);
/// assert!(j.backoff_jittered(2, 7) <= r.backoff(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum re-sends per target (0 = give up immediately).
    pub max_retries: u32,
    /// Budget units waited before the first retry.
    pub backoff_base: usize,
    /// Cap on the per-retry backoff.
    pub backoff_cap: usize,
    /// Maximum fraction of each backoff removed by seeded jitter, in
    /// percent (`0` = no jitter; every constructor defaults to `0`, the
    /// attacker semantics).
    pub jitter_pct: u8,
}

impl RetryPolicy {
    /// Never retry: a transient failure immediately writes the target
    /// off.
    pub fn give_up() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff_base: 0,
            backoff_cap: 0,
            jitter_pct: 0,
        }
    }

    /// The default attacker: 3 retries, backoff 1, 2, 4 budget units.
    pub const fn standard() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base: 1,
            backoff_cap: 8,
            jitter_pct: 0,
        }
    }

    /// A persistent attacker: 6 retries, backoff capped at 4.
    pub fn aggressive() -> Self {
        RetryPolicy {
            max_retries: 6,
            backoff_base: 1,
            backoff_cap: 4,
            jitter_pct: 0,
        }
    }

    /// Returns a copy with up to `pct`% of each backoff removed by
    /// seeded jitter (clamped to 100). `with_jitter(0)` is the identity.
    pub fn with_jitter(mut self, pct: u8) -> Self {
        self.jitter_pct = pct.min(100);
        self
    }

    /// Backoff (in budget units) before retry number `attempt`
    /// (1-based): `min(base · 2^(attempt−1), cap)`.
    pub fn backoff(&self, attempt: u32) -> usize {
        if attempt == 0 || self.backoff_base == 0 {
            return 0;
        }
        let shifted = self
            .backoff_base
            .saturating_mul(1usize.checked_shl(attempt - 1).unwrap_or(usize::MAX));
        shifted.min(self.backoff_cap)
    }

    /// [`backoff`](RetryPolicy::backoff) with seeded jitter applied: a
    /// deterministic draw from `(seed, attempt)` removes up to
    /// [`jitter_pct`](RetryPolicy::jitter_pct)% of the wait, so two
    /// clients with different seeds spread out while any single client
    /// remains exactly reproducible. With `jitter_pct == 0` this is
    /// bit-identical to the unjittered backoff.
    pub fn backoff_jittered(&self, attempt: u32, seed: u64) -> usize {
        let base = self.backoff(attempt);
        if self.jitter_pct == 0 || base == 0 {
            return base;
        }
        let key = seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let draw = splitmix64(key) % (u64::from(self.jitter_pct.min(100)) + 1);
        base - (base * draw as usize) / 100
    }
}

/// SplitMix64's stream increment: `2^64 / φ`, rounded to odd.
pub(crate) const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step: advance `x` by [`GOLDEN_GAMMA`], then apply the
/// finalizer — a cheap, well-mixed bijection on `u64`. The one copy
/// behind the retry jitter draw, the chaos stream, the validator's
/// demoted-user probabilities and the keyed realizations.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN_GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::standard()
    }
}

/// Per-episode fault accounting carried on
/// [`crate::AttackOutcome::faults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSummary {
    /// Transient request failures the attacker observed.
    pub transient_failures: usize,
    /// Requests whose response the platform dropped.
    pub dropped_responses: usize,
    /// Budget slots burned waiting out rate limits.
    pub rate_limited_slots: usize,
    /// Budget units consumed by retrying (backoff waits plus the
    /// re-sent requests themselves).
    pub retries_spent: usize,
    /// Budget slot at which suspension truncated the episode.
    pub truncated_at: Option<usize>,
}

impl FaultSummary {
    /// Total fault events this episode (transient + dropped +
    /// rate-limited slots, plus one if the episode was truncated).
    pub fn faults_seen(&self) -> usize {
        self.transient_failures
            + self.dropped_responses
            + self.rate_limited_slots
            + usize::from(self.truncated_at.is_some())
    }

    /// Whether the episode ran fault-free.
    pub fn is_clean(&self) -> bool {
        self.faults_seen() == 0 && self.retries_spent == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_config_is_trivial_plan() {
        let plan = FaultPlan::sample(&FaultConfig::none(), 42, 100);
        assert_eq!(plan, FaultPlan::none());
        assert!(plan.is_trivial());
        for slot in 0..100 {
            assert!(!plan.transient(slot));
            assert!(!plan.dropped(slot));
            assert!(!plan.suspended(slot));
            assert!(!plan.rate_limited(slot));
        }
    }

    #[test]
    fn sampling_is_deterministic_in_seed() {
        let cfg = FaultConfig::scaled(0.7);
        let a = FaultPlan::sample(&cfg, 1234, 200);
        let b = FaultPlan::sample(&cfg, 1234, 200);
        assert_eq!(a, b);
        let c = FaultPlan::sample(&cfg, 1235, 200);
        assert_ne!(a, c, "different seeds should differ (w.h.p.)");
    }

    #[test]
    fn config_salt_changes_the_plan() {
        let base = FaultConfig::scaled(0.7);
        let salted = FaultConfig {
            seed: 99,
            ..base.clone()
        };
        assert_ne!(
            FaultPlan::sample(&base, 7, 200),
            FaultPlan::sample(&salted, 7, 200)
        );
    }

    #[test]
    fn rate_limit_pattern_is_periodic() {
        let rl = RateLimit {
            window: 3,
            pause: 2,
        };
        let pattern: Vec<bool> = (0..10).map(|s| rl.limited(s)).collect();
        assert_eq!(
            pattern,
            vec![false, false, false, true, true, false, false, false, true, true]
        );
        // Degenerate shapes.
        assert!(!RateLimit {
            window: 3,
            pause: 0
        }
        .limited(7));
        assert!(RateLimit {
            window: 0,
            pause: 1
        }
        .limited(0));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let r = RetryPolicy {
            max_retries: 10,
            backoff_base: 2,
            backoff_cap: 9,
            jitter_pct: 0,
        };
        assert_eq!(r.backoff(1), 2);
        assert_eq!(r.backoff(2), 4);
        assert_eq!(r.backoff(3), 8);
        assert_eq!(r.backoff(4), 9);
        assert_eq!(r.backoff(60), 9, "huge attempt counts must not overflow");
        assert_eq!(RetryPolicy::give_up().backoff(1), 0);
    }

    #[test]
    fn no_jitter_path_is_bit_identical() {
        // jitter_pct == 0 (every constructor's default) must reproduce
        // the plain backoff exactly, whatever the seed — the existing
        // attacker semantics are untouched.
        for policy in [
            RetryPolicy::standard(),
            RetryPolicy::aggressive(),
            RetryPolicy::give_up(),
            RetryPolicy::standard().with_jitter(0),
        ] {
            assert_eq!(policy.jitter_pct, 0);
            for attempt in 0..12 {
                for seed in [0u64, 1, 42, u64::MAX] {
                    assert_eq!(
                        policy.backoff_jittered(attempt, seed),
                        policy.backoff(attempt),
                        "attempt {attempt} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn jitter_is_seeded_bounded_and_spreads_clients() {
        let policy = RetryPolicy::standard().with_jitter(50);
        for attempt in 1..=6 {
            let full = policy.backoff(attempt);
            for seed in 0..64u64 {
                let jittered = policy.backoff_jittered(attempt, seed);
                // Deterministic per (seed, attempt)...
                assert_eq!(jittered, policy.backoff_jittered(attempt, seed));
                // ...and bounded to [half, full] at 50% jitter.
                assert!(jittered <= full, "jitter must never extend the wait");
                assert!(
                    jittered >= full - full / 2,
                    "50% jitter removes at most half the wait"
                );
            }
        }
        // Different seeds actually decorrelate: across a fleet of
        // clients the capped attempt-4 backoff (8 units) takes more
        // than one distinct value.
        let spread: std::collections::BTreeSet<usize> = (0..64u64)
            .map(|seed| policy.backoff_jittered(4, seed))
            .collect();
        assert!(spread.len() > 1, "seeded jitter must spread clients");
    }

    #[test]
    fn with_jitter_clamps_to_100_percent() {
        let policy = RetryPolicy::standard().with_jitter(200);
        assert_eq!(policy.jitter_pct, 100);
        for seed in 0..32u64 {
            assert!(policy.backoff_jittered(4, seed) <= policy.backoff(4));
        }
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut cfg = FaultConfig::none();
        cfg.transient_failure = 1.5;
        assert!(matches!(
            cfg.validate(),
            Err(AccuError::InvalidProbability {
                what: "transient failure",
                ..
            })
        ));
        assert!(FaultConfig::scaled(1.0).validate().is_ok());
        assert!(FaultConfig::scaled(7.0).validate().is_ok(), "clamped");
    }

    #[test]
    fn scaled_zero_is_none() {
        assert!(FaultConfig::scaled(0.0).is_none());
        assert!(!FaultConfig::scaled(0.1).is_none());
    }

    #[test]
    fn suspension_flag_is_monotone() {
        let plan = FaultPlan::from_parts(Vec::new(), Vec::new(), Some(5), None);
        assert!(!plan.suspended(4));
        assert!(plan.suspended(5));
        assert!(plan.suspended(50));
        assert!(!plan.is_trivial());
    }

    #[test]
    fn summary_counts_faults() {
        let mut s = FaultSummary::default();
        assert!(s.is_clean());
        s.transient_failures = 2;
        s.dropped_responses = 1;
        s.rate_limited_slots = 3;
        s.truncated_at = Some(9);
        assert_eq!(s.faults_seen(), 7);
        assert!(!s.is_clean());
    }
}
