//! Trace aggregation for the paper's figures.
//!
//! The experiment harness runs a policy over many sampled networks and
//! realizations; [`TraceAccumulator`] folds the traces into exactly the
//! per-request series the paper plots:
//!
//! * Fig. 2 — average cumulative benefit after request `i`;
//! * Fig. 3 — average marginal benefit of request `i`, split into the
//!   cautious-user and reckless-user components;
//! * Fig. 5 — the fraction of runs in which request `i` targeted a
//!   cautious user;
//! * Fig. 4 / Fig. 7 — average number of cautious friends.

use accu_telemetry::{parse_json, Json};

use crate::{AccuError, AttackOutcome};

/// Streaming aggregator over attack traces.
///
/// # Examples
///
/// ```
/// use accu_core::{run_attack, AccuInstanceBuilder, Realization, TraceAccumulator};
/// use accu_core::policy::MaxDegree;
/// use osn_graph::GraphBuilder;
///
/// let g = GraphBuilder::from_edges(2, [(0u32, 1u32)])?;
/// let inst = AccuInstanceBuilder::new(g).build()?;
/// let real = Realization::from_parts(&inst, vec![true], vec![true, true])?;
///
/// let mut acc = TraceAccumulator::new(2);
/// acc.add(&run_attack(&inst, &real, &mut MaxDegree::new(), 2));
/// assert_eq!(acc.runs(), 1);
/// assert_eq!(acc.mean_cumulative_benefit()[1], 4.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAccumulator {
    k: usize,
    runs: usize,
    /// Σ cumulative benefit after request i (carrying forward short runs).
    cum_benefit: Vec<f64>,
    /// Σ marginal gain of request i from cautious users.
    marginal_cautious: Vec<f64>,
    /// Σ marginal gain of request i from reckless users.
    marginal_reckless: Vec<f64>,
    /// # runs in which request i targeted a cautious user.
    cautious_requests: Vec<usize>,
    /// # runs in which request i was actually sent.
    sent: Vec<usize>,
    /// Σ final total benefit.
    total_benefit: f64,
    /// Σ squared final total benefit (for the standard error).
    total_benefit_sq: f64,
    /// Σ final cautious-friend count.
    cautious_friends: usize,
    /// Σ final friend count.
    friends: usize,
    /// Σ fault events over all runs (transient + dropped + rate-limited
    /// + truncations), for degraded-mode reporting.
    faults_seen: usize,
    /// Σ budget units burned on retries over all runs.
    retries_spent: usize,
    /// # runs truncated by account suspension.
    truncated_runs: usize,
}

impl TraceAccumulator {
    /// Creates an accumulator for traces of up to `k` requests.
    pub fn new(k: usize) -> Self {
        TraceAccumulator {
            k,
            runs: 0,
            cum_benefit: vec![0.0; k],
            marginal_cautious: vec![0.0; k],
            marginal_reckless: vec![0.0; k],
            cautious_requests: vec![0; k],
            sent: vec![0; k],
            total_benefit: 0.0,
            total_benefit_sq: 0.0,
            cautious_friends: 0,
            friends: 0,
            faults_seen: 0,
            retries_spent: 0,
            truncated_runs: 0,
        }
    }

    /// Budget `k` the accumulator was sized for.
    pub fn budget(&self) -> usize {
        self.k
    }

    /// Number of traces folded in.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Folds one attack outcome into the aggregate.
    ///
    /// Traces shorter than `k` (early exhaustion) carry their final
    /// benefit forward for the cumulative series and contribute zero
    /// marginals afterwards.
    pub fn add(&mut self, outcome: &AttackOutcome) {
        self.runs += 1;
        self.total_benefit += outcome.total_benefit;
        self.total_benefit_sq += outcome.total_benefit * outcome.total_benefit;
        self.cautious_friends += outcome.cautious_friends;
        self.friends += outcome.friends.len();
        self.faults_seen += outcome.faults.faults_seen();
        self.retries_spent += outcome.faults.retries_spent;
        self.truncated_runs += usize::from(outcome.faults.truncated_at.is_some());
        let mut last = 0.0;
        for i in 0..self.k {
            if let Some(r) = outcome.trace.get(i) {
                last = r.cumulative_benefit;
                self.marginal_cautious[i] += r.gain.from_cautious;
                self.marginal_reckless[i] += r.gain.from_reckless;
                if r.cautious {
                    self.cautious_requests[i] += 1;
                }
                self.sent[i] += 1;
            }
            self.cum_benefit[i] += last;
        }
    }

    /// Fig. 2 series: mean cumulative benefit after request `i`.
    pub fn mean_cumulative_benefit(&self) -> Vec<f64> {
        self.cum_benefit
            .iter()
            .map(|&s| s / self.runs.max(1) as f64)
            .collect()
    }

    /// Fig. 3 series: mean marginal benefit of request `i` from cautious
    /// users (averaged over all runs).
    pub fn mean_marginal_from_cautious(&self) -> Vec<f64> {
        self.marginal_cautious
            .iter()
            .map(|&s| s / self.runs.max(1) as f64)
            .collect()
    }

    /// Fig. 3 series: mean marginal benefit of request `i` from reckless
    /// users.
    pub fn mean_marginal_from_reckless(&self) -> Vec<f64> {
        self.marginal_reckless
            .iter()
            .map(|&s| s / self.runs.max(1) as f64)
            .collect()
    }

    /// Fig. 5 series: fraction of runs in which request `i` went to a
    /// cautious user.
    pub fn cautious_request_fraction(&self) -> Vec<f64> {
        self.cautious_requests
            .iter()
            .map(|&c| c as f64 / self.runs.max(1) as f64)
            .collect()
    }

    /// Mean final benefit (Fig. 4 / Fig. 6 scalar).
    pub fn mean_total_benefit(&self) -> f64 {
        self.total_benefit / self.runs.max(1) as f64
    }

    /// Standard error of the mean final benefit (0 with fewer than two
    /// runs) — the error bars for Fig. 2/4-style plots.
    pub fn total_benefit_std_error(&self) -> f64 {
        if self.runs < 2 {
            return 0.0;
        }
        let n = self.runs as f64;
        let mean = self.total_benefit / n;
        let var = (self.total_benefit_sq / n - mean * mean).max(0.0) * n / (n - 1.0);
        (var / n).sqrt()
    }

    /// Mean number of cautious friends (Fig. 4 / Fig. 7 scalar).
    pub fn mean_cautious_friends(&self) -> f64 {
        self.cautious_friends as f64 / self.runs.max(1) as f64
    }

    /// Mean number of friends of any class.
    pub fn mean_friends(&self) -> f64 {
        self.friends as f64 / self.runs.max(1) as f64
    }

    /// Mean fault events per run (0 for fault-free sweeps).
    pub fn mean_faults_seen(&self) -> f64 {
        self.faults_seen as f64 / self.runs.max(1) as f64
    }

    /// Mean budget units burned on retries per run.
    pub fn mean_retries_spent(&self) -> f64 {
        self.retries_spent as f64 / self.runs.max(1) as f64
    }

    /// Fraction of runs truncated by account suspension.
    pub fn truncated_run_fraction(&self) -> f64 {
        self.truncated_runs as f64 / self.runs.max(1) as f64
    }

    /// Merges another accumulator (e.g. from a worker thread).
    ///
    /// # Panics
    ///
    /// Panics if the budgets differ.
    pub fn merge(&mut self, other: &TraceAccumulator) {
        assert_eq!(
            self.k, other.k,
            "cannot merge accumulators with different budgets"
        );
        self.runs += other.runs;
        self.total_benefit += other.total_benefit;
        self.total_benefit_sq += other.total_benefit_sq;
        self.cautious_friends += other.cautious_friends;
        self.friends += other.friends;
        self.faults_seen += other.faults_seen;
        self.retries_spent += other.retries_spent;
        self.truncated_runs += other.truncated_runs;
        for i in 0..self.k {
            self.cum_benefit[i] += other.cum_benefit[i];
            self.marginal_cautious[i] += other.marginal_cautious[i];
            self.marginal_reckless[i] += other.marginal_reckless[i];
            self.cautious_requests[i] += other.cautious_requests[i];
            self.sent[i] += other.sent[i];
        }
    }

    /// Serializes the full accumulator state as a single JSON line.
    ///
    /// Floats are written in Rust's shortest round-trip form, so
    /// [`from_json`](TraceAccumulator::from_json) restores the state
    /// **bit-for-bit** — the property the checkpoint/resume path relies
    /// on to make a resumed run indistinguishable from an uninterrupted
    /// one.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64 + 16 * self.k);
        s.push('{');
        push_usize(&mut s, "k", self.k);
        s.push(',');
        push_usize(&mut s, "runs", self.runs);
        s.push(',');
        push_f64_array(&mut s, "cum_benefit", &self.cum_benefit);
        s.push(',');
        push_f64_array(&mut s, "marginal_cautious", &self.marginal_cautious);
        s.push(',');
        push_f64_array(&mut s, "marginal_reckless", &self.marginal_reckless);
        s.push(',');
        push_usize_array(&mut s, "cautious_requests", &self.cautious_requests);
        s.push(',');
        push_usize_array(&mut s, "sent", &self.sent);
        s.push(',');
        push_f64(&mut s, "total_benefit", self.total_benefit);
        s.push(',');
        push_f64(&mut s, "total_benefit_sq", self.total_benefit_sq);
        s.push(',');
        push_usize(&mut s, "cautious_friends", self.cautious_friends);
        s.push(',');
        push_usize(&mut s, "friends", self.friends);
        s.push(',');
        push_usize(&mut s, "faults_seen", self.faults_seen);
        s.push(',');
        push_usize(&mut s, "retries_spent", self.retries_spent);
        s.push(',');
        push_usize(&mut s, "truncated_runs", self.truncated_runs);
        s.push('}');
        s
    }

    /// Restores an accumulator from [`to_json`](TraceAccumulator::to_json)
    /// output, exactly.
    ///
    /// # Errors
    ///
    /// Returns [`AccuError::MalformedSnapshot`] on any syntax error
    /// (non-finite floats included), missing or duplicate key, count
    /// that is not an exact non-negative integer, or length mismatch
    /// between the series and `k`.
    pub fn from_json(s: &str) -> Result<Self, AccuError> {
        let doc = parse_json(s).map_err(|e| malformed(format!("invalid JSON: {e}")))?;
        Self::from_json_value(&doc)
    }

    /// [`from_json`](TraceAccumulator::from_json) on an already parsed
    /// document, such as the accumulator field of a checkpoint line.
    ///
    /// # Errors
    ///
    /// As [`from_json`](TraceAccumulator::from_json), except for syntax.
    pub fn from_json_value(doc: &Json) -> Result<Self, AccuError> {
        let Json::Obj(fields) = doc else {
            return Err(malformed("expected a JSON object".to_string()));
        };
        for (i, (key, _)) in fields.iter().enumerate() {
            if fields[..i].iter().any(|(k, _)| k == key) {
                return Err(malformed(format!("duplicate key \"{key}\"")));
            }
        }
        let get = |key: &str| -> Result<&Json, AccuError> {
            doc.get(key)
                .ok_or_else(|| malformed(format!("missing key \"{key}\"")))
        };
        let number = |key: &str| get(key).and_then(|v| as_number(v, key));
        let count = |key: &str| get(key).and_then(|v| as_count(v, key));
        let numbers = |key: &str| get(key).and_then(|v| as_series(v, key, as_number));
        let counts = |key: &str| get(key).and_then(|v| as_series(v, key, as_count));
        let acc = TraceAccumulator {
            k: count("k")?,
            runs: count("runs")?,
            cum_benefit: numbers("cum_benefit")?,
            marginal_cautious: numbers("marginal_cautious")?,
            marginal_reckless: numbers("marginal_reckless")?,
            cautious_requests: counts("cautious_requests")?,
            sent: counts("sent")?,
            total_benefit: number("total_benefit")?,
            total_benefit_sq: number("total_benefit_sq")?,
            cautious_friends: count("cautious_friends")?,
            friends: count("friends")?,
            faults_seen: count("faults_seen")?,
            retries_spent: count("retries_spent")?,
            truncated_runs: count("truncated_runs")?,
        };
        for (name, len) in [
            ("cum_benefit", acc.cum_benefit.len()),
            ("marginal_cautious", acc.marginal_cautious.len()),
            ("marginal_reckless", acc.marginal_reckless.len()),
            ("cautious_requests", acc.cautious_requests.len()),
            ("sent", acc.sent.len()),
        ] {
            if len != acc.k {
                return Err(malformed(format!(
                    "series \"{name}\" has length {len}, expected k = {}",
                    acc.k
                )));
            }
        }
        Ok(acc)
    }
}

fn push_f64(s: &mut String, key: &str, value: f64) {
    use std::fmt::Write;
    // `{:?}` is Rust's shortest round-trip float form: parsing it back
    // with `str::parse::<f64>` recovers the identical bits.
    let _ = write!(s, "\"{key}\":{value:?}");
}

fn push_usize(s: &mut String, key: &str, value: usize) {
    use std::fmt::Write;
    let _ = write!(s, "\"{key}\":{value}");
}

fn push_f64_array(s: &mut String, key: &str, values: &[f64]) {
    use std::fmt::Write;
    let _ = write!(s, "\"{key}\":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{v:?}");
    }
    s.push(']');
}

fn push_usize_array(s: &mut String, key: &str, values: &[usize]) {
    use std::fmt::Write;
    let _ = write!(s, "\"{key}\":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{v}");
    }
    s.push(']');
}

fn malformed(reason: String) -> AccuError {
    AccuError::MalformedSnapshot { reason }
}

/// Integers up to this bound convert through `f64` exactly; above it a
/// JSON number may already have been rounded to a neighbour.
const MAX_EXACT_COUNT: f64 = ((1u64 << 53) - 1) as f64;

fn as_number(value: &Json, key: &str) -> Result<f64, AccuError> {
    value
        .as_f64()
        .ok_or_else(|| malformed(format!("key \"{key}\": expected number")))
}

fn as_count(value: &Json, key: &str) -> Result<usize, AccuError> {
    let x = as_number(value, key)?;
    if x >= 0.0 && x.fract() == 0.0 && x <= MAX_EXACT_COUNT {
        Ok(x as usize)
    } else {
        Err(malformed(format!(
            "key \"{key}\": {x:?} is not an exact non-negative integer"
        )))
    }
}

fn as_series<T>(
    value: &Json,
    key: &str,
    item: fn(&Json, &str) -> Result<T, AccuError>,
) -> Result<Vec<T>, AccuError> {
    value
        .as_arr()
        .ok_or_else(|| malformed(format!("key \"{key}\": expected array")))?
        .iter()
        .map(|v| item(v, key))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Abm, AbmWeights, MaxDegree};
    use crate::{run_attack, AccuInstance, AccuInstanceBuilder, Realization, UserClass};
    use osn_graph::{GraphBuilder, NodeId};

    /// Star with cautious leaf 3 (θ=1, B_f=50).
    fn star() -> AccuInstance {
        let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (0, 2), (0, 3)]).unwrap();
        AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(3), UserClass::cautious(1))
            .benefits(NodeId::new(3), 50.0, 1.0)
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

    #[test]
    fn aggregates_single_run() {
        let inst = star();
        let real = full(&inst);
        let mut abm = Abm::new(AbmWeights::balanced());
        let out = run_attack(&inst, &real, &mut abm, 2);
        let mut acc = TraceAccumulator::new(2);
        acc.add(&out);
        assert_eq!(acc.runs(), 1);
        assert_eq!(acc.budget(), 2);
        assert_eq!(acc.mean_cumulative_benefit(), vec![5.0, 54.0]);
        // Second request (cautious user, upgrade +49) is all-cautious.
        assert_eq!(acc.mean_marginal_from_cautious()[1], 49.0);
        assert_eq!(acc.mean_marginal_from_reckless()[1], 0.0);
        assert_eq!(acc.cautious_request_fraction(), vec![0.0, 1.0]);
        assert_eq!(acc.mean_cautious_friends(), 1.0);
        assert_eq!(acc.mean_friends(), 2.0);
    }

    #[test]
    fn short_traces_carry_benefit_forward() {
        let g = GraphBuilder::from_edges(1, std::iter::empty::<(u32, u32)>()).unwrap();
        let inst = AccuInstanceBuilder::new(g).build().unwrap();
        let real = full(&inst);
        let out = run_attack(&inst, &real, &mut MaxDegree::new(), 3);
        assert_eq!(out.trace.len(), 1);
        let mut acc = TraceAccumulator::new(3);
        acc.add(&out);
        // Benefit 2 after the single request, carried to steps 2 and 3.
        assert_eq!(acc.mean_cumulative_benefit(), vec![2.0, 2.0, 2.0]);
        assert_eq!(acc.mean_marginal_from_reckless(), vec![2.0, 0.0, 0.0]);
    }

    #[test]
    fn merge_equals_sequential_adds() {
        let inst = star();
        let real = full(&inst);
        let out1 = run_attack(&inst, &real, &mut MaxDegree::new(), 2);
        let out2 = run_attack(&inst, &real, &mut Abm::new(AbmWeights::balanced()), 2);
        let mut a = TraceAccumulator::new(2);
        a.add(&out1);
        a.add(&out2);
        let mut b1 = TraceAccumulator::new(2);
        b1.add(&out1);
        let mut b2 = TraceAccumulator::new(2);
        b2.add(&out2);
        b1.merge(&b2);
        assert_eq!(a.runs(), b1.runs());
        assert_eq!(a.mean_cumulative_benefit(), b1.mean_cumulative_benefit());
        assert_eq!(
            a.cautious_request_fraction(),
            b1.cautious_request_fraction()
        );
    }

    #[test]
    #[should_panic(expected = "different budgets")]
    fn merge_rejects_budget_mismatch() {
        let mut a = TraceAccumulator::new(2);
        let b = TraceAccumulator::new(3);
        a.merge(&b);
    }

    #[test]
    fn std_error_matches_direct_computation() {
        let inst = star();
        let real = full(&inst);
        let mut acc = TraceAccumulator::new(2);
        // Two runs with different policies → different totals.
        acc.add(&run_attack(&inst, &real, &mut MaxDegree::new(), 2));
        acc.add(&run_attack(
            &inst,
            &real,
            &mut Abm::new(AbmWeights::balanced()),
            2,
        ));
        let totals = [
            run_attack(&inst, &real, &mut MaxDegree::new(), 2).total_benefit,
            run_attack(&inst, &real, &mut Abm::new(AbmWeights::balanced()), 2).total_benefit,
        ];
        let mean = (totals[0] + totals[1]) / 2.0;
        let var = totals.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / 1.0;
        let expected = (var / 2.0).sqrt();
        assert!((acc.total_benefit_std_error() - expected).abs() < 1e-9);
        // A single run has no spread estimate.
        let mut single = TraceAccumulator::new(2);
        single.add(&run_attack(&inst, &real, &mut MaxDegree::new(), 2));
        assert_eq!(single.total_benefit_std_error(), 0.0);
    }

    #[test]
    fn empty_accumulator_is_zeroed() {
        let acc = TraceAccumulator::new(2);
        assert_eq!(acc.runs(), 0);
        assert_eq!(acc.mean_total_benefit(), 0.0);
        assert_eq!(acc.mean_cumulative_benefit(), vec![0.0, 0.0]);
        assert_eq!(acc.mean_marginal_from_cautious(), vec![0.0, 0.0]);
        assert_eq!(acc.mean_marginal_from_reckless(), vec![0.0, 0.0]);
        assert_eq!(acc.cautious_request_fraction(), vec![0.0, 0.0]);
        assert_eq!(acc.mean_cautious_friends(), 0.0);
        assert_eq!(acc.mean_friends(), 0.0);
        assert_eq!(acc.total_benefit_std_error(), 0.0);
    }

    #[test]
    fn zero_budget_accumulator_produces_empty_series() {
        let inst = star();
        let real = full(&inst);
        let out = run_attack(&inst, &real, &mut MaxDegree::new(), 0);
        assert!(out.trace.is_empty());
        let mut acc = TraceAccumulator::new(0);
        acc.add(&out);
        assert_eq!(acc.runs(), 1);
        assert!(acc.mean_cumulative_benefit().is_empty());
        assert!(acc.cautious_request_fraction().is_empty());
    }

    #[test]
    fn aggregates_fault_summaries() {
        use crate::fault::FaultPlan;
        use crate::simulator::attack_with;
        use crate::AttackOptions;

        let inst = star();
        let real = full(&inst);
        let plan = FaultPlan::from_parts(vec![true, false, false], Vec::new(), Some(2), None);
        let opts = AttackOptions {
            faults: &plan,
            ..AttackOptions::default()
        };
        let out = attack_with(&inst, &real, &mut MaxDegree::new(), 3, &opts).unwrap();
        let mut acc = TraceAccumulator::new(3);
        acc.add(&out);
        acc.add(&run_attack(&inst, &real, &mut MaxDegree::new(), 3));
        assert_eq!(
            acc.mean_faults_seen(),
            out.faults.faults_seen() as f64 / 2.0
        );
        assert_eq!(acc.truncated_run_fraction(), 0.5);
        assert_eq!(acc.mean_retries_spent(), 0.0);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let inst = star();
        let real = full(&inst);
        let mut acc = TraceAccumulator::new(2);
        acc.add(&run_attack(&inst, &real, &mut MaxDegree::new(), 2));
        acc.add(&run_attack(
            &inst,
            &real,
            &mut Abm::new(AbmWeights::balanced()),
            2,
        ));
        let restored = TraceAccumulator::from_json(&acc.to_json()).unwrap();
        assert_eq!(acc, restored);
        // Bit-exactness survives awkward floats too.
        let mut odd = TraceAccumulator::new(1);
        odd.total_benefit = 0.1 + 0.2; // 0.30000000000000004
        odd.total_benefit_sq = 1.0 / 3.0;
        odd.cum_benefit[0] = f64::MIN_POSITIVE;
        let restored = TraceAccumulator::from_json(&odd.to_json()).unwrap();
        assert_eq!(
            odd.total_benefit.to_bits(),
            restored.total_benefit.to_bits()
        );
        assert_eq!(
            odd.total_benefit_sq.to_bits(),
            restored.total_benefit_sq.to_bits()
        );
        assert_eq!(
            odd.cum_benefit[0].to_bits(),
            restored.cum_benefit[0].to_bits()
        );
        // An empty accumulator round-trips as well.
        let empty = TraceAccumulator::new(0);
        assert_eq!(
            TraceAccumulator::from_json(&empty.to_json()).unwrap(),
            empty
        );
    }

    #[test]
    fn from_json_rejects_malformed_snapshots() {
        use crate::AccuError;
        let reason = |s: &str| match TraceAccumulator::from_json(s).unwrap_err() {
            AccuError::MalformedSnapshot { reason } => reason,
            other => panic!("unexpected error {other:?}"),
        };
        assert!(reason("").contains("unexpected end of input"));
        assert!(reason("[1]").contains("expected a JSON object"));
        assert!(reason("{\"k\":1").contains("expected"));
        assert!(reason("{\"k\":1}").contains("missing key \"runs\""));
        assert!(reason("{\"k\":1,\"k\":2}").contains("duplicate key"));
        assert!(reason("{\"k\":[1]}").contains("expected number"));
        // Truncated line, as a crash mid-append would leave behind.
        let full_line = {
            let mut acc = TraceAccumulator::new(2);
            acc.add(&run_attack(
                &star(),
                &full(&star()),
                &mut MaxDegree::new(),
                2,
            ));
            acc.to_json()
        };
        assert!(TraceAccumulator::from_json(&full_line[..full_line.len() - 3]).is_err());
        // Series length must match k.
        let bad = full_line.replace("\"k\":2", "\"k\":3");
        assert!(reason(&bad).contains("expected k = 3"));
        // Integer fields must be exact, non-negative integers.
        for k in ["2.5", "-2", "9007199254740993"] {
            let bad = full_line.replace("\"k\":2", &format!("\"k\":{k}"));
            assert!(
                reason(&bad).contains("exact non-negative integer"),
                "k = {k}"
            );
        }
        // Non-finite floats are not JSON.
        for token in ["NaN", "inf", "-inf"] {
            let bad = full_line.replacen(
                "\"total_benefit\":",
                &format!("\"total_benefit\":{token},\"x\":"),
                1,
            );
            assert!(reason(&bad).contains("invalid JSON"), "token {token}");
        }
    }

    #[test]
    fn telemetry_counters_match_accumulator_totals() {
        use crate::simulator::{attack_with, sim_metrics};
        use crate::AttackOptions;
        use accu_telemetry::Recorder;

        let inst = star();
        let real = full(&inst);
        let recorder = Recorder::enabled();
        let mut acc = TraceAccumulator::new(2);
        let mut requests_sent = 0u64;
        for _ in 0..3 {
            let mut abm = Abm::with_recorder(AbmWeights::balanced(), &recorder);
            let opts = AttackOptions {
                recorder: &recorder,
                ..AttackOptions::default()
            };
            let out = attack_with(&inst, &real, &mut abm, 2, &opts).unwrap();
            requests_sent += out.trace.len() as u64;
            acc.add(&out);
        }
        let snap = recorder.snapshot("metrics-test").unwrap();
        // The recorder and the accumulator observed the very same runs.
        assert_eq!(snap.counter(sim_metrics::EPISODES), Some(acc.runs() as u64));
        assert_eq!(snap.counter(sim_metrics::REQUESTS), Some(requests_sent));
        // On this instance every run exhausts the budget, so the request
        // counter is exactly runs × k.
        assert_eq!(requests_sent, acc.runs() as u64 * acc.budget() as u64);
        assert_eq!(
            snap.counter(sim_metrics::CAUTIOUS_ACCEPTED),
            Some(acc.cautious_friends as u64)
        );
    }
}
