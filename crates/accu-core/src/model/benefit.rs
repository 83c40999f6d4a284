//! Benefit schedules (paper §II-A, "Benefit Model").

use osn_graph::NodeId;

use crate::AccuError;

/// Per-user benefits: `B_f(u)` collected when `u` becomes a friend,
/// `B_fof(u)` when `u` is only a friend-of-friend.
///
/// The model requires `B_f(u) ≥ B_fof(u) ≥ 0` — everything a
/// friend-of-friend can see, a friend can see too. The theoretical
/// guarantee (Theorem 1) additionally needs the *strict* gap
/// `B_f(u) − B_fof(u) > 0` for every user, checked by
/// [`has_strict_gap`](BenefitSchedule::has_strict_gap).
///
/// # Examples
///
/// ```
/// use accu_core::BenefitSchedule;
/// use osn_graph::NodeId;
///
/// // The paper's default: B_f = 2, B_fof = 1 for everyone.
/// let b = BenefitSchedule::uniform(10, 2.0, 1.0)?;
/// assert_eq!(b.friend(NodeId::new(3)), 2.0);
/// assert_eq!(b.friend_of_friend(NodeId::new(3)), 1.0);
/// assert!(b.has_strict_gap());
/// # Ok::<(), accu_core::AccuError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BenefitSchedule {
    pub(crate) friend: Vec<f64>,
    pub(crate) fof: Vec<f64>,
}

impl BenefitSchedule {
    /// Creates a schedule from per-user benefit vectors.
    ///
    /// # Errors
    ///
    /// Returns [`AccuError::LengthMismatch`] if the vectors differ in
    /// length, and [`AccuError::InvalidBenefit`] if any user violates
    /// `B_f(u) ≥ B_fof(u) ≥ 0` (or a value is not finite).
    pub fn new(friend: Vec<f64>, fof: Vec<f64>) -> Result<Self, AccuError> {
        if friend.len() != fof.len() {
            return Err(AccuError::LengthMismatch {
                what: "friend-of-friend benefits",
                expected: friend.len(),
                actual: fof.len(),
            });
        }
        for (i, (&bf, &bfof)) in friend.iter().zip(&fof).enumerate() {
            if !(bf.is_finite() && bfof.is_finite()) || bfof < 0.0 || bf < bfof {
                return Err(AccuError::InvalidBenefit {
                    node: NodeId::from(i),
                    friend: bf,
                    fof: bfof,
                });
            }
        }
        Ok(BenefitSchedule { friend, fof })
    }

    /// Creates the uniform schedule `B_f(u) = bf`, `B_fof(u) = bfof`.
    ///
    /// # Errors
    ///
    /// Returns [`AccuError::InvalidBenefit`] unless `bf ≥ bfof ≥ 0`.
    pub fn uniform(node_count: usize, bf: f64, bfof: f64) -> Result<Self, AccuError> {
        Self::new(vec![bf; node_count], vec![bfof; node_count])
    }

    /// Number of users covered by the schedule.
    pub fn node_count(&self) -> usize {
        self.friend.len()
    }

    /// Friend benefit `B_f(u)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn friend(&self, u: NodeId) -> f64 {
        self.friend[u.index()]
    }

    /// Friend-of-friend benefit `B_fof(u)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn friend_of_friend(&self, u: NodeId) -> f64 {
        self.fof[u.index()]
    }

    /// The gap `B_f(u) − B_fof(u)` — the extra value of a direct
    /// friendship over a friend-of-friend relation.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn gap(&self, u: NodeId) -> f64 {
        self.friend[u.index()] - self.fof[u.index()]
    }

    /// Returns `true` if `B_f(u) − B_fof(u) > 0` for **every** user —
    /// the precondition of the paper's Lemma 1 / Theorem 1.
    pub fn has_strict_gap(&self) -> bool {
        self.friend
            .iter()
            .zip(&self.fof)
            .all(|(bf, bfof)| bf - bfof > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_schedule() {
        let b = BenefitSchedule::uniform(3, 2.0, 1.0).unwrap();
        assert_eq!(b.node_count(), 3);
        assert_eq!(b.friend(NodeId::new(0)), 2.0);
        assert_eq!(b.friend_of_friend(NodeId::new(2)), 1.0);
        assert_eq!(b.gap(NodeId::new(1)), 1.0);
        assert!(b.has_strict_gap());
    }

    #[test]
    fn rejects_inverted_benefits() {
        let err = BenefitSchedule::uniform(2, 1.0, 2.0).unwrap_err();
        assert!(matches!(err, AccuError::InvalidBenefit { .. }));
        let err = BenefitSchedule::uniform(2, 1.0, -0.5).unwrap_err();
        assert!(matches!(err, AccuError::InvalidBenefit { .. }));
        let err = BenefitSchedule::uniform(1, f64::NAN, 0.0).unwrap_err();
        assert!(matches!(err, AccuError::InvalidBenefit { .. }));
    }

    #[test]
    fn rejects_length_mismatch() {
        let err = BenefitSchedule::new(vec![2.0, 2.0], vec![1.0]).unwrap_err();
        assert!(matches!(err, AccuError::LengthMismatch { .. }));
    }

    #[test]
    fn strict_gap_detects_equality() {
        let b = BenefitSchedule::new(vec![2.0, 1.0], vec![1.0, 1.0]).unwrap();
        assert!(!b.has_strict_gap());
    }

    #[test]
    fn empty_schedule_is_fine() {
        let b = BenefitSchedule::uniform(0, 2.0, 1.0).unwrap();
        assert_eq!(b.node_count(), 0);
        assert!(b.has_strict_gap()); // vacuously
    }
}
