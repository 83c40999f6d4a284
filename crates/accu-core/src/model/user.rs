//! User behavioral classes.

use std::fmt;

/// How a user decides on a friend request from the attacker (paper §II-A).
///
/// * Reckless users (`V_R`) accept independently with a probability.
/// * Cautious users (`V_C`) accept **deterministically** iff the number of
///   mutual friends with the attacker has reached their threshold — the
///   linear-threshold acceptance model that breaks adaptive
///   submodularity.
///
/// # Examples
///
/// ```
/// use accu_core::UserClass;
///
/// let r = UserClass::reckless(0.7);
/// assert!(!r.is_cautious());
/// assert_eq!(r.acceptance_probability(), Some(0.7));
///
/// let c = UserClass::cautious(3);
/// assert!(c.is_cautious());
/// assert_eq!(c.threshold(), Some(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UserClass {
    /// A reckless user accepting with the given probability `q ∈ [0, 1]`.
    Reckless {
        /// Acceptance probability `q_u`.
        acceptance: f64,
    },
    /// A cautious user accepting iff `|N(v) ∩ N(s)| ≥ threshold`.
    Cautious {
        /// Mutual-friend threshold `θ_v ≥ 1`.
        threshold: u32,
    },
    /// The paper's generalized ("two-probability") cautious model
    /// (§III-B): accept with probability `below` when the mutual-friend
    /// count is under the threshold and with `at_or_above ≥ below` once
    /// it is reached. Recovers [`Cautious`](UserClass::Cautious) at
    /// `(0, 1)` and makes the curvature bound
    /// `δ = max q₂/q₁` finite whenever `below > 0`.
    Hesitant {
        /// Acceptance probability `q₁` below the threshold.
        below: f64,
        /// Acceptance probability `q₂` at/above the threshold.
        at_or_above: f64,
        /// Mutual-friend threshold `θ_v ≥ 1`.
        threshold: u32,
    },
    /// The empirical *linear* acceptance function of the earlier
    /// probabilistic-model line the paper contrasts with (refs. \[2\], \[6\], \[7\]):
    /// accept with probability `min(1, base + slope · mutual_friends)`.
    /// No threshold — acceptance rises smoothly with every shared friend.
    MutualLinear {
        /// Acceptance probability with zero mutual friends.
        base: f64,
        /// Probability gained per mutual friend (`≥ 0`).
        slope: f64,
    },
}

impl UserClass {
    /// Creates a reckless user with acceptance probability `q`.
    ///
    /// The probability is validated by
    /// [`AccuInstanceBuilder`](crate::AccuInstanceBuilder), not here, so
    /// the value is stored as given.
    pub const fn reckless(q: f64) -> Self {
        UserClass::Reckless { acceptance: q }
    }

    /// Creates a cautious user with mutual-friend threshold `theta`.
    pub const fn cautious(theta: u32) -> Self {
        UserClass::Cautious { threshold: theta }
    }

    /// Creates a two-probability (hesitant) user: accepts with `q1`
    /// below the threshold and `q2` at/above it.
    pub const fn hesitant(q1: f64, q2: f64, theta: u32) -> Self {
        UserClass::Hesitant {
            below: q1,
            at_or_above: q2,
            threshold: theta,
        }
    }

    /// Creates a user with the empirical linear acceptance function
    /// `min(1, base + slope · mutual_friends)`.
    pub const fn mutual_linear(base: f64, slope: f64) -> Self {
        UserClass::MutualLinear { base, slope }
    }

    /// Returns `true` for threshold-gated users (cautious or hesitant) —
    /// the "high-profile" population of the model. Linear-acceptance
    /// users belong to the probabilistic population like reckless ones.
    pub const fn is_cautious(&self) -> bool {
        matches!(
            self,
            UserClass::Cautious { .. } | UserClass::Hesitant { .. }
        )
    }

    /// Acceptance probability for reckless users, `None` for every class
    /// whose probability depends on the state (see
    /// [`acceptance_probability_at`](Self::acceptance_probability_at)).
    pub const fn acceptance_probability(&self) -> Option<f64> {
        match self {
            UserClass::Reckless { acceptance } => Some(*acceptance),
            _ => None,
        }
    }

    /// The acceptance probability when the user currently shares
    /// `mutual` friends with the attacker. Non-decreasing in `mutual`
    /// for every class (the monotone coupling invariant).
    ///
    /// # Examples
    ///
    /// ```
    /// use accu_core::UserClass;
    /// assert_eq!(UserClass::cautious(2).acceptance_probability_at(1), 0.0);
    /// assert_eq!(UserClass::cautious(2).acceptance_probability_at(2), 1.0);
    /// assert_eq!(UserClass::mutual_linear(0.2, 0.3).acceptance_probability_at(1), 0.5);
    /// assert_eq!(UserClass::mutual_linear(0.2, 0.3).acceptance_probability_at(9), 1.0);
    /// ```
    pub fn acceptance_probability_at(&self, mutual: u32) -> f64 {
        match self {
            UserClass::Reckless { acceptance } => *acceptance,
            UserClass::Cautious { threshold } => {
                if mutual >= *threshold {
                    1.0
                } else {
                    0.0
                }
            }
            UserClass::Hesitant {
                below,
                at_or_above,
                threshold,
            } => {
                if mutual >= *threshold {
                    *at_or_above
                } else {
                    *below
                }
            }
            UserClass::MutualLinear { base, slope } => (base + slope * mutual as f64).min(1.0),
        }
    }

    /// The `(minimum, maximum)` of the acceptance curve over all mutual
    /// counts: `(q, q)` for reckless, `(0, 1)` for cautious, `(q₁, q₂)`
    /// for hesitant, `(base, saturation)` for linear users. Used for the
    /// curvature bound `δ = max/min`.
    pub const fn acceptance_probabilities(&self) -> (f64, f64) {
        match self {
            UserClass::Reckless { acceptance } => (*acceptance, *acceptance),
            UserClass::Cautious { .. } => (0.0, 1.0),
            UserClass::Hesitant {
                below, at_or_above, ..
            } => (*below, *at_or_above),
            UserClass::MutualLinear { base, slope } => {
                if *slope > 0.0 {
                    (*base, 1.0)
                } else {
                    (*base, *base)
                }
            }
        }
    }

    /// The distinct interior cut points of the acceptance curve over
    /// mutual counts `0..=degree`: every acceptance probability strictly
    /// inside `(0, 1)`, sorted ascending. Draws between two adjacent
    /// cuts behave identically, which is what exhaustive enumeration
    /// needs. A cautious user has no cuts (its curve is a 0/1 step) and
    /// a reckless user at most one.
    ///
    /// # Examples
    ///
    /// ```
    /// use accu_core::UserClass;
    /// assert_eq!(UserClass::mutual_linear(0.2, 0.3).acceptance_cuts(3), vec![0.2, 0.5, 0.8]);
    /// assert!(UserClass::cautious(2).acceptance_cuts(5).is_empty());
    /// ```
    pub fn acceptance_cuts(&self, degree: u32) -> Vec<f64> {
        let mut cuts: Vec<f64> = (0..=degree)
            .map(|m| self.acceptance_probability_at(m))
            .filter(|&q| q > 0.0 && q < 1.0)
            .collect();
        cuts.sort_by(f64::total_cmp);
        cuts.dedup();
        cuts
    }

    /// Mutual-friend threshold for threshold-gated users, `None` for
    /// reckless and linear-acceptance users.
    pub const fn threshold(&self) -> Option<u32> {
        match self {
            UserClass::Cautious { threshold } => Some(*threshold),
            UserClass::Hesitant { threshold, .. } => Some(*threshold),
            _ => None,
        }
    }
}

impl fmt::Display for UserClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UserClass::Reckless { acceptance } => write!(f, "reckless(q={acceptance})"),
            UserClass::Cautious { threshold } => write!(f, "cautious(θ={threshold})"),
            UserClass::Hesitant {
                below,
                at_or_above,
                threshold,
            } => {
                write!(f, "hesitant(q1={below}, q2={at_or_above}, θ={threshold})")
            }
            UserClass::MutualLinear { base, slope } => {
                write!(f, "linear(q=min(1, {base}+{slope}·mutual))")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        let r = UserClass::reckless(0.25);
        assert_eq!(r.acceptance_probability(), Some(0.25));
        assert_eq!(r.threshold(), None);
        assert!(!r.is_cautious());

        let c = UserClass::cautious(5);
        assert_eq!(c.acceptance_probability(), None);
        assert_eq!(c.threshold(), Some(5));
        assert!(c.is_cautious());
    }

    #[test]
    fn display_is_descriptive() {
        assert_eq!(UserClass::reckless(0.5).to_string(), "reckless(q=0.5)");
        assert_eq!(UserClass::cautious(2).to_string(), "cautious(θ=2)");
        assert_eq!(
            UserClass::hesitant(0.1, 0.9, 3).to_string(),
            "hesitant(q1=0.1, q2=0.9, θ=3)"
        );
    }

    #[test]
    fn hesitant_accessors() {
        let h = UserClass::hesitant(0.2, 0.8, 4);
        assert!(h.is_cautious());
        assert_eq!(h.threshold(), Some(4));
        assert_eq!(h.acceptance_probability(), None);
        assert_eq!(h.acceptance_probabilities(), (0.2, 0.8));
    }

    #[test]
    fn probability_pairs_unify_the_classes() {
        assert_eq!(
            UserClass::reckless(0.4).acceptance_probabilities(),
            (0.4, 0.4)
        );
        assert_eq!(
            UserClass::cautious(2).acceptance_probabilities(),
            (0.0, 1.0)
        );
    }
}
