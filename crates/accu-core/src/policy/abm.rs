//! Adaptive Benefit Maximization (paper Algorithm 1).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use accu_telemetry::{CounterHandle, Recorder, TraceTrack, TraceValue};
use osn_graph::NodeId;

use crate::{AttackerView, Policy};

/// Well-known ABM metric names (see [`Abm::attach_recorder`]).
pub mod abm_metrics {
    /// Entries pushed onto the lazy max-heap (resets + rescores).
    pub const HEAP_PUSH: &str = "abm.heap_push";
    /// Entries popped off the heap during `select`.
    pub const HEAP_POP: &str = "abm.heap_pop";
    /// Popped entries skipped because a fresher potential was cached
    /// (the lazy-reevaluation miss path).
    pub const STALE_SKIP: &str = "abm.stale_skip";
    /// Popped entries skipped because the node was already requested.
    pub const REQUESTED_SKIP: &str = "abm.requested_skip";
    /// `select` calls that returned a target (= fresh pops; the
    /// lazy-reevaluation hit rate is `selects / heap_pop`).
    pub const SELECTS: &str = "abm.selects";
    /// Candidate potential re-evaluations triggered by observations.
    pub const RESCORES: &str = "abm.rescores";
    /// Rescores whose potential actually changed (and were re-pushed).
    pub const RESCORES_CHANGED: &str = "abm.rescores_changed";
}

/// Pre-fetched counter handles for the ABM hot paths; all no-ops until
/// a recorder is attached.
#[derive(Debug, Clone, Default)]
struct AbmTelemetry {
    heap_push: CounterHandle,
    heap_pop: CounterHandle,
    stale_skip: CounterHandle,
    requested_skip: CounterHandle,
    selects: CounterHandle,
    rescores: CounterHandle,
    rescores_changed: CounterHandle,
}

impl AbmTelemetry {
    fn new(recorder: &Recorder) -> Self {
        AbmTelemetry {
            heap_push: recorder.counter(abm_metrics::HEAP_PUSH),
            heap_pop: recorder.counter(abm_metrics::HEAP_POP),
            stale_skip: recorder.counter(abm_metrics::STALE_SKIP),
            requested_skip: recorder.counter(abm_metrics::REQUESTED_SKIP),
            selects: recorder.counter(abm_metrics::SELECTS),
            rescores: recorder.counter(abm_metrics::RESCORES),
            rescores_changed: recorder.counter(abm_metrics::RESCORES_CHANGED),
        }
    }
}

/// The tunable weights of the ABM potential function
/// `P(u|ω) = q(u)·(w_D·P_D + w_I·P_I)`.
///
/// The paper's experiments use `w_D = 1 − w_I`; `w_D = 1, w_I = 0` is the
/// classical pure greedy covered by Theorem 1.
///
/// # Examples
///
/// ```
/// use accu_core::policy::AbmWeights;
///
/// let w = AbmWeights::balanced();           // w_D = w_I = 0.5 (paper §IV-B)
/// assert_eq!(w.direct(), 0.5);
/// let w = AbmWeights::with_indirect(0.2);   // w_D = 0.8, w_I = 0.2
/// assert_eq!(w.direct(), 0.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbmWeights {
    direct: f64,
    indirect: f64,
}

impl AbmWeights {
    /// Creates weights `(w_D, w_I)`. Negative values are clamped to 0.
    pub fn new(direct: f64, indirect: f64) -> Self {
        AbmWeights {
            direct: direct.max(0.0),
            indirect: indirect.max(0.0),
        }
    }

    /// The paper's default for the main comparison: `w_D = w_I = 0.5`.
    pub fn balanced() -> Self {
        AbmWeights::new(0.5, 0.5)
    }

    /// The paper's sweep parameterization: `w_I = wi`, `w_D = 1 − wi`.
    pub fn with_indirect(wi: f64) -> Self {
        AbmWeights::new(1.0 - wi, wi)
    }

    /// Direct-gain weight `w_D`.
    pub fn direct(&self) -> f64 {
        self.direct
    }

    /// Indirect-gain weight `w_I`.
    pub fn indirect(&self) -> f64 {
        self.indirect
    }
}

impl Default for AbmWeights {
    fn default() -> Self {
        AbmWeights::balanced()
    }
}

/// Max-heap entry ordered by potential, ties broken toward the lowest
/// node id for determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    potential: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.potential
            .total_cmp(&other.potential)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The Adaptive Benefit Maximization policy (paper Algorithm 1).
///
/// Each step sends a request to the candidate maximizing the potential
/// `P(u|ω) = q(u)·(w_D·P_D + w_I·P_I)` where:
///
/// * `q(u)` is the acceptance belief — `q_u` for reckless users, `1`/`0`
///   for cautious users at/below their threshold;
/// * `P_D` is the expected direct benefit: `B_f(u)` (minus `B_fof(u)` if
///   `u` is already a friend-of-friend) plus the expected
///   friend-of-friend benefit of `u`'s potential neighbors that are not
///   friends and not already friends-of-friends;
/// * `P_I` rewards `u` for moving its not-yet-befriendable cautious
///   neighbors `v` closer to their thresholds:
///   `Σ p_uv·(B_f(v) − B_fof(v)) / (θ_v − |N(s) ∩ N(v)|)`.
///
/// # Implementation notes
///
/// Potentials are cached and maintained *incrementally*: accepting `u`
/// only changes the potentials of nodes within two hops of `u` (through
/// realized edges), so only those are rescored. A lazy max-heap with
/// stale-entry skipping yields the argmax; stale entries are recognized
/// by comparing against the cache, which also handles potentials that
/// *increase* (a cautious user's `q` flipping 0 → 1) — the reason
/// classical lazy-greedy would be incorrect here.
///
/// # Examples
///
/// ```
/// use accu_core::policy::{Abm, AbmWeights, Policy};
///
/// let abm = Abm::new(AbmWeights::balanced());
/// assert_eq!(abm.name(), "ABM");
/// ```
#[derive(Debug, Clone)]
pub struct Abm {
    weights: AbmWeights,
    name: String,
    potential: Vec<f64>,
    heap: BinaryHeap<HeapEntry>,
    tel: AbmTelemetry,
    /// Decision-trace emission handle; a no-op until [`Abm::attach_tracer`].
    trace: TraceTrack,
    /// Scratch buffer for the dirty set rebuilt on every observation;
    /// reused so steady-state episodes never allocate here.
    dirty: Vec<NodeId>,
    /// Initial (empty-observation) potentials of the last instance this
    /// policy was reset on. Within one instance every episode starts
    /// from the same observation, so the first reset's scores are
    /// replayed instead of recomputed — keyed by the instance's
    /// process-unique id, which clones share and rebuilds never reuse.
    init_cache: Option<InitCache>,
    /// Flat per-edge mirror of [`AttackerView::edge_belief`]: the prior
    /// while the edge is unresolved, `1.0`/`0.0` once revealed. Indexed
    /// by [`osn_graph::EdgeId`]; refilled on reset, patched in
    /// `observe` when an acceptance reveals the target's incident
    /// edges.
    belief: Vec<f64>,
    /// Flat per-node direct-term gain: `B_fof(v)` while `v` is neither
    /// a friend nor a friend-of-friend, `0.0` afterwards. Folding the
    /// friend/fof exclusions into the value makes the direct-term
    /// accumulation branch-free — every excluded neighbor contributes
    /// an exact `+0.0`, which leaves the running sum bit-identical
    /// (benefits are validated finite and non-negative, so no term and
    /// no partial sum can be `-0.0`).
    fof_gain: Vec<f64>,
}

/// See [`Abm::init_cache`].
#[derive(Debug, Clone)]
struct InitCache {
    instance_id: u64,
    potentials: Vec<f64>,
}

impl Abm {
    /// Creates an ABM policy with the given weights.
    pub fn new(weights: AbmWeights) -> Self {
        Abm::with_name(weights, "ABM")
    }

    /// Creates an ABM policy with a custom display name.
    pub fn with_name(weights: AbmWeights, name: impl Into<String>) -> Self {
        Abm {
            weights,
            name: name.into(),
            potential: Vec::new(),
            heap: BinaryHeap::new(),
            tel: AbmTelemetry::default(),
            trace: TraceTrack::disabled(),
            dirty: Vec::new(),
            init_cache: None,
            belief: Vec::new(),
            fof_gain: Vec::new(),
        }
    }

    /// Creates an ABM policy reporting heap and rescore telemetry into
    /// `recorder` under the [`abm_metrics`] names.
    pub fn with_recorder(weights: AbmWeights, recorder: &Recorder) -> Self {
        let mut abm = Abm::new(weights);
        abm.attach_recorder(recorder);
        abm
    }

    /// Attaches a recorder: subsequent heap pushes/pops, lazy stale
    /// skips and rescores are counted under the [`abm_metrics`] names.
    /// Attaching a disabled recorder restores the zero-cost no-op
    /// handles.
    pub fn attach_recorder(&mut self, recorder: &Recorder) {
        self.tel = AbmTelemetry::new(recorder);
    }

    /// Attaches a trace track: while the track's sampling gate is open,
    /// every `select` emits a `decide` instant with the full potential
    /// breakdown (`q`, `P_D`, `P_I`, the weights, the runner-up and the
    /// margin, plus the lazy-heap pop/skip counts for the step) and
    /// every `observe` emits an `abm_observe` instant with the dirty-set
    /// size. Attaching a disabled track restores the zero-cost no-op.
    pub fn attach_tracer(&mut self, track: &TraceTrack) {
        self.trace = track.clone();
    }

    /// The configured weights.
    pub fn weights(&self) -> AbmWeights {
        self.weights
    }

    /// Computes the potential `P(u|ω)` from scratch.
    ///
    /// Public so experiments and tests can inspect the scoring directly.
    pub fn potential_of(&self, view: &AttackerView<'_>, u: NodeId) -> f64 {
        potential(view, u, self.weights)
    }

    /// Rebuilds the [`belief`](Self::belief)/[`fof_gain`](Self::fof_gain)
    /// structure-of-arrays caches from the view. Fresh (empty)
    /// observations take the bulk-copy path: every edge is unresolved
    /// and no node is a friend or friend-of-friend, so the caches are
    /// verbatim copies of the instance's prior and benefit arrays.
    fn refill_soa(&mut self, view: &AttackerView<'_>) {
        let inst = view.instance();
        let obs = view.observation();
        self.belief.clear();
        self.fof_gain.clear();
        if obs.requests().is_empty() {
            self.belief.extend_from_slice(&inst.edge_prob);
            self.fof_gain.extend_from_slice(&inst.benefits.fof);
            return;
        }
        let benefits = inst.benefits();
        self.belief.extend(
            (0..inst.graph().edge_count()).map(|i| view.edge_belief(osn_graph::EdgeId::from(i))),
        );
        self.fof_gain.extend((0..inst.node_count()).map(|i| {
            let v = NodeId::from(i);
            if obs.is_friend(v) || obs.is_friend_of_friend(v) {
                0.0
            } else {
                benefits.friend_of_friend(v)
            }
        }));
    }

    /// Evaluates the ABM potential of `u` through the SoA caches: the
    /// direct-term walk over `u`'s adjacency row becomes a branch-free
    /// two-array dot product. Bit-identical to [`potential`] — every
    /// neighbor the scratch evaluation *skips* (friends,
    /// friends-of-friends, `p = 0` edges) reads a `0.0` factor here, so
    /// its contribution is an exact `+0.0` add, and `x + 0.0 == x`
    /// bitwise for the non-negative partial sums this loop produces.
    fn potential_cached(&self, view: &AttackerView<'_>, u: NodeId) -> f64 {
        let obs = view.observation();
        let inst = view.instance();
        let benefits = inst.benefits();
        let w = self.weights;
        let q = view.acceptance_belief(u);
        if q == 0.0 {
            return 0.0;
        }
        let mut direct = benefits.friend(u)
            - if obs.is_friend_of_friend(u) {
                benefits.friend_of_friend(u)
            } else {
                0.0
            };
        for (v, e) in inst.graph().neighbor_entries(u) {
            direct += self.belief[e.index()] * self.fof_gain[v.index()];
        }
        let mut indirect = 0.0;
        if w.indirect() > 0.0 {
            for entry in inst.cautious_row(u) {
                if obs.is_friend(entry.node) {
                    continue;
                }
                let p = self.belief[entry.edge.index()];
                if p == 0.0 {
                    continue;
                }
                if obs.was_requested(entry.node) {
                    continue;
                }
                let mutual = obs.mutual_friends(entry.node);
                if entry.theta > mutual {
                    indirect += p * entry.gap / (entry.theta - mutual) as f64;
                }
            }
        }
        q * (w.direct() * direct + w.indirect() * indirect)
    }

    fn rescore(&mut self, view: &AttackerView<'_>, u: NodeId) {
        if view.observation().was_requested(u) {
            return;
        }
        self.tel.rescores.incr();
        let p = self.potential_cached(view, u);
        if p != self.potential[u.index()] {
            self.potential[u.index()] = p;
            self.heap.push(HeapEntry {
                potential: p,
                node: u,
            });
            self.tel.rescores_changed.incr();
            self.tel.heap_push.incr();
        }
    }

    /// Emits the `decide` trace instant for a fresh pop: the potential
    /// breakdown of the picked node, the exact runner-up (a scan of the
    /// potential cache — the heap top may be stale, so peeking it would
    /// over-report), the margin between them, and the step's lazy-heap
    /// skip counts. Only called while the track's gate is open, so the
    /// untraced select path pays one relaxed load and nothing else.
    fn emit_decide(
        &self,
        view: &AttackerView<'_>,
        entry: HeapEntry,
        stale_skips: u64,
        requested_skips: u64,
    ) {
        let (q, p_d, p_i) = potential_parts(view, entry.node, self.weights);
        let mut runner_up: Option<HeapEntry> = None;
        for u in view.candidates() {
            if u == entry.node {
                continue;
            }
            let candidate = HeapEntry {
                potential: self.potential[u.index()],
                node: u,
            };
            if runner_up.as_ref().is_none_or(|best| candidate > *best) {
                runner_up = Some(candidate);
            }
        }
        self.trace.instant(
            "decide",
            &[
                ("picked", TraceValue::U64(entry.node.index() as u64)),
                ("potential", TraceValue::F64(entry.potential)),
                ("q", TraceValue::F64(q)),
                ("p_d", TraceValue::F64(p_d)),
                ("p_i", TraceValue::F64(p_i)),
                ("w_d", TraceValue::F64(self.weights.direct())),
                ("w_i", TraceValue::F64(self.weights.indirect())),
                (
                    "runner_up",
                    match &runner_up {
                        Some(r) => TraceValue::I64(r.node.index() as i64),
                        None => TraceValue::I64(-1),
                    },
                ),
                (
                    "margin",
                    match &runner_up {
                        Some(r) => TraceValue::F64(entry.potential - r.potential),
                        None => TraceValue::F64(entry.potential),
                    },
                ),
                ("stale_skips", TraceValue::U64(stale_skips)),
                ("requested_skips", TraceValue::U64(requested_skips)),
            ],
        );
    }

    /// Emits the `abm_observe` trace instant: how large the incremental
    /// dirty set was for this observation (the nodes actually rescored).
    fn emit_observe(&self, target: NodeId, accepted: bool, dirty: usize) {
        self.trace.instant(
            "abm_observe",
            &[
                ("target", TraceValue::U64(target.index() as u64)),
                ("accepted", TraceValue::Bool(accepted)),
                ("dirty", TraceValue::U64(dirty as u64)),
            ],
        );
    }
}

/// Evaluates the ABM potential of candidate `u`.
///
/// The direct term walks the adjacency row once; the indirect term
/// scans the instance's precomputed cautious index
/// ([`AccuInstance::cautious_row`](crate::AccuInstance)), a flat CSR
/// slice of threshold-gated neighbors with cached `θ` and benefit gap
/// in the same adjacency order — so the two passes accumulate exactly
/// the same floating-point sums, in the same order, as the historical
/// single fused loop.
fn potential(view: &AttackerView<'_>, u: NodeId, w: AbmWeights) -> f64 {
    let (q, direct, indirect) = potential_parts(view, u, w);
    if q == 0.0 {
        return 0.0;
    }
    q * (w.direct() * direct + w.indirect() * indirect)
}

/// The factors of the ABM potential, `(q, P_D, P_I)`, before the
/// weighted combination — what the `decide` trace event reports.
/// `(0, 0, 0)` when the acceptance belief is zero (the terms are never
/// evaluated, mirroring [`potential`]'s early exit, so the combined
/// value is bit-identical to the historical fused computation).
fn potential_parts(view: &AttackerView<'_>, u: NodeId, w: AbmWeights) -> (f64, f64, f64) {
    let obs = view.observation();
    let inst = view.instance();
    let benefits = inst.benefits();
    let q = view.acceptance_belief(u);
    if q == 0.0 {
        return (0.0, 0.0, 0.0);
    }
    let mut direct = benefits.friend(u)
        - if obs.is_friend_of_friend(u) {
            benefits.friend_of_friend(u)
        } else {
            0.0
        };
    for (v, e) in inst.graph().neighbor_entries(u) {
        if obs.is_friend(v) {
            continue; // v ∈ N(s): already delivers its benefit
        }
        let p = view.edge_belief(e);
        if p == 0.0 {
            continue;
        }
        if !obs.is_friend_of_friend(v) {
            direct += p * benefits.friend_of_friend(v);
        }
    }
    let mut indirect = 0.0;
    if w.indirect() > 0.0 {
        for entry in inst.cautious_row(u) {
            if obs.is_friend(entry.node) {
                continue;
            }
            let p = view.edge_belief(entry.edge);
            if p == 0.0 {
                continue;
            }
            // Skip cautious users that already rejected a request —
            // without re-requests their friend benefit is forfeited,
            // so pushing them toward the threshold has no value.
            if obs.was_requested(entry.node) {
                continue;
            }
            let mutual = obs.mutual_friends(entry.node);
            if entry.theta > mutual {
                indirect += p * entry.gap / (entry.theta - mutual) as f64;
            }
        }
    }
    (q, direct, indirect)
}

impl Policy for Abm {
    fn name(&self) -> &str {
        &self.name
    }

    fn reset(&mut self, view: &AttackerView<'_>) {
        let n = view.graph().node_count();
        // Reclaim the heap's backing storage so steady-state resets
        // reuse it instead of reallocating.
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.clear();
        self.refill_soa(view);
        // Fresh-episode fast path: with no requests recorded yet every
        // node is a candidate and the potentials depend only on the
        // instance, so the first reset's scores are replayed verbatim.
        let fresh = view.observation().requests().is_empty();
        let id = view.instance().instance_id();
        let cached = fresh
            && self
                .init_cache
                .as_ref()
                .is_some_and(|c| c.instance_id == id && c.potentials.len() == n);
        if cached {
            let cache = self.init_cache.as_ref().expect("cache checked above");
            self.potential.clear();
            self.potential.extend_from_slice(&cache.potentials);
            entries.extend(self.potential.iter().enumerate().map(|(i, &p)| HeapEntry {
                potential: p,
                node: NodeId::from(i),
            }));
        } else {
            self.potential.clear();
            self.potential.resize(n, f64::NEG_INFINITY);
            for u in view.candidates() {
                let p = self.potential_cached(view, u);
                self.potential[u.index()] = p;
                entries.push(HeapEntry {
                    potential: p,
                    node: u,
                });
            }
            if fresh {
                self.init_cache = Some(InitCache {
                    instance_id: id,
                    potentials: self.potential.clone(),
                });
            }
        }
        // Heapify in bulk: the entry order is a strict total order
        // (potential, then node id), so pop sequences depend only on
        // the entry multiset, never on heap-internal layout.
        self.heap = BinaryHeap::from(entries);
        self.tel.heap_push.add(self.heap.len() as u64);
    }

    fn select(&mut self, view: &AttackerView<'_>) -> Option<NodeId> {
        let obs = view.observation();
        let mut stale_skips = 0u64;
        let mut requested_skips = 0u64;
        while let Some(entry) = self.heap.pop() {
            self.tel.heap_pop.incr();
            if obs.was_requested(entry.node) {
                self.tel.requested_skip.incr();
                requested_skips += 1;
                continue; // no longer a candidate
            }
            if entry.potential != self.potential[entry.node.index()] {
                self.tel.stale_skip.incr();
                stale_skips += 1;
                continue; // stale entry; a fresher one is in the heap
            }
            self.tel.selects.incr();
            if self.trace.is_active() {
                self.emit_decide(view, entry, stale_skips, requested_skips);
            }
            return Some(entry.node);
        }
        None
    }

    fn observe(
        &mut self,
        view: &AttackerView<'_>,
        target: NodeId,
        accepted: bool,
        newly_revealed: &[NodeId],
    ) {
        // The dirty buffer lives on the policy so steady-state episodes
        // never allocate here; it is detached during the rescore loop
        // to satisfy the borrow checker and reattached after.
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.clear();
        if !accepted {
            // A rejected cautious user stops contributing indirect value;
            // its graph neighbors must be rescored. Rejected reckless
            // users change nothing beyond leaving the candidate set.
            if view.instance().is_cautious(target) && self.weights.indirect() > 0.0 {
                dirty.extend_from_slice(view.graph().neighbors(target));
                for &node in &dirty {
                    self.rescore(view, node);
                }
            }
            if self.trace.is_active() {
                self.emit_observe(target, accepted, dirty.len());
            }
            self.dirty = dirty;
            return;
        }
        // Dirty set: nodes whose potential terms reference the target
        // (its graph neighbors — covers newly revealed absent edges too)
        // plus the realized neighbors (fof/mutual changes). A revealed
        // node's *own* neighbors only need rescoring when its
        // mutual-friend bump actually moved a term they read: either it
        // just became a friend-of-friend (first mutual friend) or it is
        // an unrequested threshold-gated user still at or below its
        // threshold (the indirect denominator changed). Every skipped
        // rescore is provably a no-op, so the selection sequence — and
        // the `rescores_changed`/heap telemetry — is unchanged.
        let obs = view.observation();
        let inst = view.instance();
        // Patch the SoA caches before any rescore reads them: the
        // target is now a friend (its direct-term gain drops to zero),
        // its incident edges were just resolved to present/absent, and
        // every newly revealed node is now a friend-of-friend.
        self.fof_gain[target.index()] = 0.0;
        for (_, e) in view.graph().neighbor_entries(target) {
            self.belief[e.index()] = view.edge_belief(e);
        }
        for &v in newly_revealed {
            self.fof_gain[v.index()] = 0.0;
        }
        dirty.extend_from_slice(view.graph().neighbors(target));
        let indirect_on = self.weights.indirect() > 0.0;
        for &v in newly_revealed {
            dirty.push(v);
            let mutual = obs.mutual_friends(v); // post-increment value
            let fof_flip = mutual == 1 && !obs.is_friend(v);
            let indirect_live = indirect_on
                && inst
                    .threshold(v)
                    .is_some_and(|theta| !obs.was_requested(v) && theta >= mutual);
            if fof_flip || indirect_live {
                dirty.extend_from_slice(view.graph().neighbors(v));
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        for &node in &dirty {
            self.rescore(view, node);
        }
        if self.trace.is_active() {
            self.emit_observe(target, accepted, dirty.len());
        }
        self.dirty = dirty;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        run_attack, AccuInstance, AccuInstanceBuilder, Observation, Realization, UserClass,
    };
    use osn_graph::{GraphBuilder, NodeId};

    /// Star: hub 0, leaves 1..=3; leaf 3 cautious (θ=1, B_f=50).
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
    fn weights_constructors() {
        let w = AbmWeights::with_indirect(0.3);
        assert!((w.direct() - 0.7).abs() < 1e-12);
        assert!((w.indirect() - 0.3).abs() < 1e-12);
        let w = AbmWeights::new(-1.0, 2.0);
        assert_eq!(w.direct(), 0.0);
        assert_eq!(w.indirect(), 2.0);
        assert_eq!(AbmWeights::default(), AbmWeights::balanced());
    }

    #[test]
    fn potential_matches_hand_computation() {
        let inst = star();
        let obs = Observation::for_instance(&inst);
        let view = AttackerView::new(&inst, &obs);
        let abm = Abm::new(AbmWeights::new(1.0, 1.0));
        // Hub 0: q=1. P_D = B_f(0) + Σ_leaves B_fof = 2 + 3·1 = 5.
        // P_I = gap(3)/θ = 49.
        assert_eq!(abm.potential_of(&view, NodeId::new(0)), 54.0);
        // Leaf 1: P_D = 2 + B_fof(0) = 3; P_I = 0 (no cautious neighbor).
        assert_eq!(abm.potential_of(&view, NodeId::new(1)), 3.0);
        // Cautious 3 below threshold: q = 0 → potential 0.
        assert_eq!(abm.potential_of(&view, NodeId::new(3)), 0.0);
    }

    #[test]
    fn potential_uses_edge_beliefs() {
        let g = GraphBuilder::from_edges(2, [(0u32, 1u32)]).unwrap();
        let inst = AccuInstanceBuilder::new(g)
            .uniform_edge_probability(0.5)
            .user_class(NodeId::new(0), UserClass::reckless(0.4))
            .build()
            .unwrap();
        let obs = Observation::for_instance(&inst);
        let view = AttackerView::new(&inst, &obs);
        let abm = Abm::new(AbmWeights::new(1.0, 0.0));
        // q(0)=0.4, P_D = 2 + 0.5·1 = 2.5 → 1.0
        assert!((abm.potential_of(&view, NodeId::new(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn abm_befriends_cautious_after_unlocking() {
        let inst = star();
        let real = full(&inst);
        let mut abm = Abm::new(AbmWeights::balanced());
        let outcome = run_attack(&inst, &real, &mut abm, 2);
        // First pick: hub (highest potential). Second: cautious 3 with
        // threshold met and B_f = 50.
        let targets: Vec<NodeId> = outcome.trace.iter().map(|r| r.target).collect();
        assert_eq!(targets, vec![NodeId::new(0), NodeId::new(3)]);
        assert!(outcome.trace[1].accepted);
        assert_eq!(outcome.cautious_friends, 1);
        // 2 (hub) + 1+1+1 (fofs) + 49 (upgrade 3) = 54
        assert_eq!(outcome.total_benefit, 54.0);
    }

    #[test]
    fn pure_greedy_ignores_indirect_gain() {
        // Two components: hub A (0) with cautious high-value neighbor,
        // vs a slightly richer isolated reckless user.
        let g = GraphBuilder::from_edges(3, [(0u32, 1u32)]).unwrap();
        let inst = AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(1), UserClass::cautious(1))
            .benefits(NodeId::new(1), 100.0, 1.0)
            .benefits(NodeId::new(2), 4.0, 1.0)
            .build()
            .unwrap();
        let obs = Observation::for_instance(&inst);
        let view = AttackerView::new(&inst, &obs);
        // Pure greedy scores 0 higher than 2? P_D(0) = 2 + 1 = 3 < 4.
        let greedy = crate::policy::pure_greedy();
        assert!(
            greedy.potential_of(&view, NodeId::new(2)) > greedy.potential_of(&view, NodeId::new(0))
        );
        // Balanced ABM prefers 0 thanks to indirect gain 99/2... θ=1 → 99.
        let abm = Abm::new(AbmWeights::balanced());
        assert!(abm.potential_of(&view, NodeId::new(0)) > abm.potential_of(&view, NodeId::new(2)));
    }

    #[test]
    fn incremental_rescoring_matches_fresh_policy() {
        // After an acceptance, every cached potential must equal a
        // from-scratch evaluation.
        let inst = star();
        let real = full(&inst);
        let mut abm = Abm::new(AbmWeights::balanced());
        let mut obs = Observation::for_instance(&inst);
        {
            let view = AttackerView::new(&inst, &obs);
            abm.reset(&view);
        }
        let revealed = obs.record_acceptance(NodeId::new(0), &inst, &real);
        let view = AttackerView::new(&inst, &obs);
        abm.observe(&view, NodeId::new(0), true, &revealed);
        for u in view.candidates() {
            assert_eq!(
                abm.potential[u.index()],
                abm.potential_of(&view, u),
                "cached potential of {u} diverged"
            );
        }
    }

    #[test]
    fn incremental_matches_naive_full_rescan() {
        // The lazy-heap + dirty-set machinery is an optimization only:
        // on a random-ish instance the selected sequence must equal a
        // from-scratch argmax at every step.
        struct NaiveAbm(Abm);
        impl Policy for NaiveAbm {
            fn name(&self) -> &str {
                "NaiveABM"
            }
            fn reset(&mut self, _: &AttackerView<'_>) {}
            fn select(&mut self, view: &AttackerView<'_>) -> Option<NodeId> {
                view.candidates()
                    .map(|u| (self.0.potential_of(view, u), u))
                    .max_by(|a, b| a.0.total_cmp(&b.0).then_with(|| b.1.cmp(&a.1)))
                    .map(|(_, u)| u)
            }
        }
        use crate::AttackerView;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = osn_graph::generators::barabasi_albert(60, 3, &mut rng).unwrap();
            let m = g.edge_count();
            let mut builder = crate::AccuInstanceBuilder::new(g)
                .edge_probabilities((0..m).map(|_| rng.gen_range(0.1..1.0)).collect());
            for i in 0..60usize {
                let v = NodeId::from(i);
                if i % 11 == 3 {
                    builder = builder
                        .user_class(v, UserClass::cautious(rng.gen_range(1..3)))
                        .benefits(v, 50.0, 1.0);
                } else {
                    builder = builder.user_class(v, UserClass::reckless(rng.gen_range(0.1..1.0)));
                }
            }
            let inst = builder.build().unwrap();
            let real = Realization::sample(&inst, &mut StdRng::seed_from_u64(seed + 100));
            let weights = AbmWeights::balanced();
            let fast = run_attack(&inst, &real, &mut Abm::new(weights), 25);
            let slow = run_attack(&inst, &real, &mut NaiveAbm(Abm::new(weights)), 25);
            let fast_targets: Vec<NodeId> = fast.trace.iter().map(|r| r.target).collect();
            let slow_targets: Vec<NodeId> = slow.trace.iter().map(|r| r.target).collect();
            assert_eq!(fast_targets, slow_targets, "seed {seed}: traces diverged");
            assert_eq!(fast.total_benefit, slow.total_benefit);
        }
    }

    #[test]
    fn select_returns_none_when_exhausted() {
        let g = GraphBuilder::from_edges(1, std::iter::empty::<(u32, u32)>()).unwrap();
        let inst = AccuInstanceBuilder::new(g).build().unwrap();
        let real = full(&inst);
        let mut abm = Abm::new(AbmWeights::balanced());
        let outcome = run_attack(&inst, &real, &mut abm, 5);
        assert_eq!(outcome.trace.len(), 1); // only one candidate existed
    }

    #[test]
    fn telemetry_counters_are_consistent_with_heap_discipline() {
        use crate::simulator::sim_metrics;
        use accu_telemetry::Recorder;

        let inst = star();
        let real = full(&inst);
        let recorder = Recorder::enabled();
        let mut abm = Abm::with_recorder(AbmWeights::balanced(), &recorder);
        let opts = crate::AttackOptions {
            recorder: &recorder,
            ..Default::default()
        };
        let outcome = crate::simulator::attack_with(&inst, &real, &mut abm, 2, &opts).unwrap();
        assert_eq!(outcome.requests_sent(), 2);

        let snap = recorder.snapshot("abm-test").unwrap();
        let count = |name: &str| {
            snap.counter(name)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };

        // Every pop is either a select or one of the two skip kinds.
        assert_eq!(
            count(abm_metrics::HEAP_POP),
            count(abm_metrics::SELECTS)
                + count(abm_metrics::STALE_SKIP)
                + count(abm_metrics::REQUESTED_SKIP)
        );
        // One select per request actually sent by the simulator.
        assert_eq!(count(abm_metrics::SELECTS), count(sim_metrics::REQUESTS));
        assert_eq!(count(abm_metrics::SELECTS), 2);
        // reset() pushed all four candidates; rescoring only re-pushes
        // entries whose potential actually changed.
        assert!(count(abm_metrics::HEAP_PUSH) >= 4);
        assert_eq!(
            count(abm_metrics::HEAP_PUSH),
            4 + count(abm_metrics::RESCORES_CHANGED)
        );
        assert!(count(abm_metrics::RESCORES) >= count(abm_metrics::RESCORES_CHANGED));
    }

    #[test]
    fn detached_abm_runs_without_recorder() {
        use accu_telemetry::Recorder;
        // Default construction must behave identically with the no-op
        // telemetry handles (covers the disabled fast path).
        let inst = star();
        let real = full(&inst);
        let plain = run_attack(&inst, &real, &mut Abm::new(AbmWeights::balanced()), 2);
        let recorder = Recorder::disabled();
        let mut attached = Abm::with_recorder(AbmWeights::balanced(), &recorder);
        let opts = crate::AttackOptions {
            recorder: &recorder,
            ..Default::default()
        };
        let recorded =
            crate::simulator::attack_with(&inst, &real, &mut attached, 2, &opts).unwrap();
        assert_eq!(plain.total_benefit, recorded.total_benefit);
        assert!(recorder.snapshot("none").is_none());
    }

    #[test]
    fn heap_entry_ordering_breaks_ties_by_id() {
        let a = HeapEntry {
            potential: 1.0,
            node: NodeId::new(2),
        };
        let b = HeapEntry {
            potential: 1.0,
            node: NodeId::new(1),
        };
        assert!(b > a);
        let c = HeapEntry {
            potential: 2.0,
            node: NodeId::new(9),
        };
        assert!(c > b);
    }
}
