//! Adaptive Benefit Maximization (paper Algorithm 1).

use std::cmp::Ordering;

use accu_telemetry::{CounterHandle, Recorder, TraceTrack, TraceValue};
use osn_graph::{EdgeId, NodeId};

use crate::{AccuInstance, AttackerView, Policy};

/// Well-known ABM metric names (see [`Abm::attach_recorder`]). The
/// names date from the lazy max-heap the winner tree replaced.
pub mod abm_metrics {
    /// Winner-tree keys set: one per candidate at reset plus one per
    /// rescore whose potential changed.
    pub const HEAP_PUSH: &str = "abm.heap_push";
    /// Winner-tree retirements: exactly one per `select` that returned
    /// a target.
    pub const HEAP_POP: &str = "abm.heap_pop";
    /// Stale entries skipped by `select`. The winner tree holds none,
    /// so this counter is never registered and reads 0.
    pub const STALE_SKIP: &str = "abm.stale_skip";
    /// `select` calls that returned a target (so the derived
    /// `selects / heap_pop` hit rate is 1 by construction).
    pub const SELECTS: &str = "abm.selects";
    /// Candidate potential re-evaluations triggered by observations.
    pub const RESCORES: &str = "abm.rescores";
    /// Rescores whose potential actually changed (and were re-keyed).
    pub const RESCORES_CHANGED: &str = "abm.rescores_changed";
}

/// Pre-fetched counter handles for the ABM hot paths; all no-ops until
/// a recorder is attached.
#[derive(Debug, Clone, Default)]
struct AbmTelemetry {
    heap_push: CounterHandle,
    heap_pop: CounterHandle,
    selects: CounterHandle,
    rescores: CounterHandle,
    rescores_changed: CounterHandle,
}

impl AbmTelemetry {
    fn new(recorder: &Recorder) -> Self {
        AbmTelemetry {
            heap_push: recorder.counter(abm_metrics::HEAP_PUSH),
            heap_pop: recorder.counter(abm_metrics::HEAP_POP),
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

/// A winner (tournament) tree over node ids keyed by potential: the
/// argmax under `total_cmp`, ties broken toward the lower id, is read
/// at the root in O(1) and a key change costs one leaf-to-root walk
/// that stops as soon as a level's winner is unaffected.
///
/// Layout: `slot[n + i]` is the leaf of node `i` and every internal
/// `slot[j]` (`1 ≤ j < n`) holds the winner of `slot[2j]` and
/// `slot[2j + 1]`, so `slot[1]` is the overall winner. A retired node
/// (already requested) is keyed `-inf`; potentials are finite, so it
/// wins only once every node is retired.
#[derive(Debug, Clone, Default)]
struct WinnerTree {
    key: Vec<f64>,
    slot: Vec<NodeId>,
}

impl WinnerTree {
    /// Recomputes every slot from the keys, bottom up (after the keys
    /// were filled in bulk).
    fn rebuild(&mut self) {
        let n = self.key.len();
        self.slot.clear();
        self.slot.resize(n, NodeId::default()); // slot 0 is unused
        self.slot.extend((0..n).map(NodeId::from));
        for j in (1..n).rev() {
            self.slot[j] = self.winner(self.slot[2 * j], self.slot[2 * j + 1]);
        }
    }

    /// Overwrites this tree with `other` without reallocating.
    fn copy_from(&mut self, other: &WinnerTree) {
        self.key.clone_from(&other.key);
        self.slot.clone_from(&other.slot);
    }

    fn key(&self, u: NodeId) -> f64 {
        self.key[u.index()]
    }

    fn winner(&self, a: NodeId, b: NodeId) -> NodeId {
        match self.key[a.index()].total_cmp(&self.key[b.index()]) {
            Ordering::Greater => a,
            Ordering::Less => b,
            Ordering::Equal => a.min(b),
        }
    }

    /// Re-keys `u` and repairs its path to the root. The walk stops at
    /// the first level whose winner is neither changed nor `u`: above
    /// it nothing depends on `u`'s key.
    fn set(&mut self, u: NodeId, key: f64) {
        self.key[u.index()] = key;
        let mut j = (self.key.len() + u.index()) / 2;
        while j >= 1 {
            let w = self.winner(self.slot[2 * j], self.slot[2 * j + 1]);
            if w == self.slot[j] && w != u {
                return;
            }
            self.slot[j] = w;
            j /= 2;
        }
    }

    /// Keys `u` `-inf` so it never wins again (a no-op if it already
    /// is).
    fn retire(&mut self, u: NodeId) {
        if self.key(u) != f64::NEG_INFINITY {
            self.set(u, f64::NEG_INFINITY);
        }
    }

    /// The highest-keyed node, or `None` when every node is retired.
    fn best(&self) -> Option<NodeId> {
        self.slot
            .get(1)
            .copied()
            .filter(|&u| self.key(u) != f64::NEG_INFINITY)
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
/// Potentials are cached and maintained *incrementally*, and every
/// cached value is bit-identical to a from-scratch
/// [`potential_of`](Abm::potential_of):
///
/// * **Winner tree.** The potentials key an in-place tournament tree
///   over node ids (strict order: `total_cmp`, then the lower id).
///   `select` reads the root and retires it to `-inf`; a rescore that
///   changes a potential repairs one leaf-to-root path with early exit.
///   Potentials may *rise* as well as fall (a cautious user's `q`
///   flips 0 → 1), which the tree handles like any other key change —
///   the reason classical lazy greedy would be incorrect here. A fresh
///   episode copies the tree built by the first reset on the instance.
/// * **Stamped dirty set.** Accepting `u` only changes the potentials
///   of nodes within two hops of `u` (through realized edges). Each
///   such node is rescored once per observation: a per-node epoch stamp
///   marks it visited, so no dirty list is sorted or deduplicated.
/// * **Priors stand in for beliefs.** A candidate's terms depend on an
///   edge's belief only when neither endpoint is a friend: a friend
///   neighbor `v` contributes `fof_gain(v) = 0` to `P_D` and is skipped
///   by `P_I`. Such an edge is unresolved, so its belief is the prior
///   `p(e)`, and the cached evaluation reads the instance's
///   probabilities instead of mirroring per-edge beliefs.
/// * **Compacted rows.** The direct term `Σ p(e)·fof_gain(v)` walks a
///   per-episode copy of the candidate's adjacency row that keeps, in
///   adjacency order, only the neighbors whose term was nonzero at the
///   last walk. Dropping a term is exact: it is `+0.0`, and adding
///   `+0.0` to the non-negative running sum changes no bit. A dropped
///   term never becomes nonzero again within the episode: `p(e)` is
///   fixed and `fof_gain(v)` only ever falls to 0.
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
    /// Cached potentials keying the selection tree; `-inf` once a node
    /// has been requested.
    tree: WinnerTree,
    tel: AbmTelemetry,
    /// Decision-trace emission handle; a no-op until [`Abm::attach_tracer`].
    trace: TraceTrack,
    /// Per-node stamp: equal to `epoch` once the current observation
    /// has rescored the node.
    stamp: Vec<u32>,
    /// Observations absorbed this episode.
    epoch: u32,
    /// Winner tree of the empty observation on the last instance this
    /// policy was reset on. Within one instance every episode starts
    /// from the same observation, so the first reset's tree is copied
    /// instead of recomputed — keyed by the instance's process-unique
    /// id, which clones share and rebuilds never reuse.
    init_cache: Option<InitCache>,
    /// Flat per-node direct-term gain: `B_fof(v)` while `v` is neither
    /// a friend nor a friend-of-friend, `0.0` afterwards. Folding the
    /// friend/fof exclusions into the value makes the direct-term
    /// accumulation branch-free — every excluded neighbor contributes
    /// an exact `+0.0`, which leaves the running sum bit-identical
    /// (benefits are validated finite and non-negative, so no term and
    /// no partial sum can be `-0.0`).
    fof_gain: Vec<f64>,
    /// Compacted adjacency rows of this episode, each copied from the
    /// graph the first time its node is scored.
    rows: Vec<(NodeId, EdgeId)>,
    /// Per node, `(start, len)` of its row in `rows`; `start` is
    /// [`UNCOPIED`] until the row is copied.
    row_span: Vec<(usize, usize)>,
}

/// `row_span` start of a row not yet copied this episode.
const UNCOPIED: usize = usize::MAX;

/// See [`Abm::init_cache`].
#[derive(Debug, Clone)]
struct InitCache {
    instance_id: u64,
    tree: WinnerTree,
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
            tree: WinnerTree::default(),
            tel: AbmTelemetry::default(),
            trace: TraceTrack::disabled(),
            stamp: Vec::new(),
            epoch: 0,
            init_cache: None,
            fof_gain: Vec::new(),
            rows: Vec::new(),
            row_span: Vec::new(),
        }
    }

    /// Creates an ABM policy reporting selection and rescore telemetry
    /// into `recorder` under the [`abm_metrics`] names.
    pub fn with_recorder(weights: AbmWeights, recorder: &Recorder) -> Self {
        let mut abm = Abm::new(weights);
        abm.attach_recorder(recorder);
        abm
    }

    /// Attaches a recorder: subsequent tree updates, selections and
    /// rescores are counted under the [`abm_metrics`] names. Attaching
    /// a disabled recorder restores the zero-cost no-op handles.
    pub fn attach_recorder(&mut self, recorder: &Recorder) {
        self.tel = AbmTelemetry::new(recorder);
    }

    /// Attaches a trace track: while the track's sampling gate is open,
    /// every `select` emits a `decide` instant with the full potential
    /// breakdown (`q`, `P_D`, `P_I`, the weights, the runner-up and the
    /// margin) and every `observe` emits an `abm_observe` instant with
    /// the dirty-set size. Attaching a disabled track restores the
    /// zero-cost no-op.
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

    /// Rebuilds [`fof_gain`](Self::fof_gain) from the view. A fresh
    /// (empty) observation has no friend or friend-of-friend, so the
    /// cache is a verbatim copy of the instance's `B_fof` array.
    fn refill_fof_gain(&mut self, view: &AttackerView<'_>) {
        let inst = view.instance();
        let obs = view.observation();
        self.fof_gain.clear();
        if obs.requests().is_empty() {
            self.fof_gain.extend_from_slice(&inst.benefits.fof);
            return;
        }
        let benefits = inst.benefits();
        self.fof_gain.extend((0..inst.node_count()).map(|i| {
            let v = NodeId::from(i);
            if obs.is_friend(v) || obs.is_friend_of_friend(v) {
                0.0
            } else {
                benefits.friend_of_friend(v)
            }
        }));
    }

    /// Evaluates the ABM potential of `u` through the caches: the
    /// direct-term walk over `u`'s compacted row is a branch-free
    /// two-array dot product. Bit-identical to [`potential`] — every
    /// neighbor the scratch evaluation *skips* (friends,
    /// friends-of-friends, `p = 0` edges) either is no longer in the row
    /// or reads a `0.0` factor here, so its contribution is absent or
    /// an exact `+0.0` add, and `x + 0.0 == x` bitwise for the
    /// non-negative partial sums this loop produces; every edge whose
    /// term can be nonzero is unresolved, so its prior is its belief.
    fn potential_cached(&mut self, view: &AttackerView<'_>, u: NodeId) -> f64 {
        let obs = view.observation();
        let inst = view.instance();
        let benefits = inst.benefits();
        let w = self.weights;
        let q = view.acceptance_belief(u);
        if q == 0.0 {
            return 0.0;
        }
        let direct = benefits.friend(u)
            - if obs.is_friend_of_friend(u) {
                benefits.friend_of_friend(u)
            } else {
                0.0
            };
        let direct = self.add_direct_terms(inst, u, direct);
        let mut indirect = 0.0;
        if w.indirect() > 0.0 {
            for entry in inst.cautious_row(u) {
                if obs.is_friend(entry.node) {
                    continue;
                }
                let p = inst.edge_prob[entry.edge.index()];
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

    /// Adds `u`'s direct terms `p(e)·fof_gain(v)` to `acc` in adjacency
    /// order, copying the row from the graph on first use this episode
    /// and dropping the entries whose term is now `+0.0` (see the
    /// type-level notes for why they stay `+0.0`).
    fn add_direct_terms(&mut self, inst: &AccuInstance, u: NodeId, mut acc: f64) -> f64 {
        let span = &mut self.row_span[u.index()];
        if span.0 == UNCOPIED {
            *span = (self.rows.len(), inst.graph().degree(u));
            self.rows.extend(inst.graph().neighbor_entries(u));
        }
        let row = &mut self.rows[span.0..span.0 + span.1];
        let mut kept = 0;
        for i in 0..row.len() {
            let (v, e) = row[i];
            let term = inst.edge_prob[e.index()] * self.fof_gain[v.index()];
            acc += term;
            row[kept] = (v, e);
            kept += usize::from(term != 0.0);
        }
        span.1 = kept;
        acc
    }

    fn rescore(&mut self, view: &AttackerView<'_>, u: NodeId) {
        if view.observation().was_requested(u) {
            return;
        }
        self.tel.rescores.incr();
        let p = self.potential_cached(view, u);
        if p != self.tree.key(u) {
            self.tree.set(u, p);
            self.tel.rescores_changed.incr();
            self.tel.heap_push.incr();
        }
    }

    /// Rescores `u` unless the current observation already has;
    /// returns whether this was the first visit.
    fn rescore_once(&mut self, view: &AttackerView<'_>, u: NodeId) -> bool {
        if self.stamp[u.index()] == self.epoch {
            return false;
        }
        self.stamp[u.index()] = self.epoch;
        self.rescore(view, u);
        true
    }

    /// Emits the `decide` trace instant for a pick already retired
    /// from the tree: the potential breakdown of the picked node, the
    /// runner-up (now the tree's root), and the margin between them.
    /// Only called while the track's gate is open, so the untraced
    /// select path pays one relaxed load and nothing else.
    fn emit_decide(&self, view: &AttackerView<'_>, picked: NodeId, potential: f64) {
        let (q, p_d, p_i) = potential_parts(view, picked, self.weights);
        let runner_up = self.tree.best();
        self.trace.instant(
            "decide",
            &[
                ("picked", TraceValue::U64(picked.index() as u64)),
                ("potential", TraceValue::F64(potential)),
                ("q", TraceValue::F64(q)),
                ("p_d", TraceValue::F64(p_d)),
                ("p_i", TraceValue::F64(p_i)),
                ("w_d", TraceValue::F64(self.weights.direct())),
                ("w_i", TraceValue::F64(self.weights.indirect())),
                (
                    "runner_up",
                    match runner_up {
                        Some(r) => TraceValue::I64(r.index() as i64),
                        None => TraceValue::I64(-1),
                    },
                ),
                (
                    "margin",
                    match runner_up {
                        Some(r) => TraceValue::F64(potential - self.tree.key(r)),
                        None => TraceValue::F64(potential),
                    },
                ),
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
        let graph = view.graph();
        let n = graph.node_count();
        self.refill_fof_gain(view);
        self.rows.clear();
        self.rows.reserve(2 * graph.edge_count());
        self.row_span.clear();
        self.row_span.resize(n, (UNCOPIED, 0));
        self.stamp.clear();
        self.stamp.resize(n, 0);
        self.epoch = 0;
        // Fresh-episode fast path: with no requests recorded yet every
        // node is a candidate and the potentials depend only on the
        // instance, so the first reset's tree is copied verbatim.
        let obs = view.observation();
        let fresh = obs.requests().is_empty();
        let id = view.instance().instance_id();
        match &self.init_cache {
            Some(cache) if fresh && cache.instance_id == id && cache.tree.key.len() == n => {
                self.tree.copy_from(&cache.tree);
            }
            _ => {
                self.tree.key.clear();
                self.tree.key.resize(n, f64::NEG_INFINITY);
                for u in view.candidates() {
                    self.tree.key[u.index()] = self.potential_cached(view, u);
                }
                self.tree.rebuild();
                if fresh {
                    self.init_cache = Some(InitCache {
                        instance_id: id,
                        tree: self.tree.clone(),
                    });
                }
            }
        }
        self.tel.heap_push.add((n - obs.requests().len()) as u64);
    }

    fn select(&mut self, view: &AttackerView<'_>) -> Option<NodeId> {
        let picked = self.tree.best()?;
        let potential = self.tree.key(picked);
        self.tree.retire(picked);
        self.tel.heap_pop.incr();
        self.tel.selects.incr();
        if self.trace.is_active() {
            self.emit_decide(view, picked, potential);
        }
        Some(picked)
    }

    fn observe(
        &mut self,
        view: &AttackerView<'_>,
        target: NodeId,
        accepted: bool,
        newly_revealed: &[NodeId],
    ) {
        // `select` retired the target already, unless the caller
        // requested a node this policy did not pick.
        self.tree.retire(target);
        self.epoch += 1;
        let graph = view.graph();
        let mut dirty = 0usize;
        if !accepted {
            // A rejected cautious user stops contributing indirect value;
            // its graph neighbors must be rescored. Rejected reckless
            // users change nothing beyond leaving the candidate set.
            if view.instance().is_cautious(target) && self.weights.indirect() > 0.0 {
                for &node in graph.neighbors(target) {
                    self.rescore(view, node);
                }
                dirty = graph.degree(target);
            }
            if self.trace.is_active() {
                self.emit_observe(target, accepted, dirty);
            }
            return;
        }
        // Dirty set: the nodes whose potential terms reference the
        // target, i.e. its graph neighbors. They include the newly
        // revealed (realized) neighbors, whose fof/mutual state changed,
        // and the ends of newly revealed absent edges. A revealed
        // node's *own* neighbors only need rescoring when its
        // mutual-friend bump actually moved a term they read: either it
        // just became a friend-of-friend (first mutual friend) or it is
        // an unrequested threshold-gated user still at or below its
        // threshold (the indirect denominator changed). Every skipped
        // rescore is provably a no-op, so the selection sequence — and
        // the `rescores_changed` telemetry — is unchanged. Each node is
        // rescored once, on its first visit; the order is irrelevant
        // because a rescore reads no other node's potential.
        let obs = view.observation();
        let inst = view.instance();
        // Patch the gains before any rescore reads them: the target is
        // now a friend and every newly revealed node a
        // friend-of-friend, so their direct-term gains drop to zero.
        self.fof_gain[target.index()] = 0.0;
        for &v in newly_revealed {
            self.fof_gain[v.index()] = 0.0;
        }
        for &node in graph.neighbors(target) {
            dirty += usize::from(self.rescore_once(view, node));
        }
        let indirect_on = self.weights.indirect() > 0.0;
        for &v in newly_revealed {
            let mutual = obs.mutual_friends(v); // post-increment value
            let fof_flip = mutual == 1 && !obs.is_friend(v);
            let indirect_live = indirect_on
                && inst
                    .threshold(v)
                    .is_some_and(|theta| !obs.was_requested(v) && theta >= mutual);
            if fof_flip || indirect_live {
                for &node in graph.neighbors(v) {
                    dirty += usize::from(self.rescore_once(view, node));
                }
            }
        }
        if self.trace.is_active() {
            self.emit_observe(target, accepted, dirty);
        }
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
                abm.tree.key(u),
                abm.potential_of(&view, u),
                "cached potential of {u} diverged"
            );
        }
        // The hub was requested without `select` picking it: observing
        // it retires it all the same.
        let best = view
            .candidates()
            .max_by(|&a, &b| abm.tree.key(a).total_cmp(&abm.tree.key(b)).then(b.cmp(&a)));
        assert_eq!(best, Some(NodeId::new(3)));
        assert_eq!(abm.select(&view), best);
    }

    /// A 60-node Barabási–Albert instance mixing every user class:
    /// reckless, cautious and hesitant users, mutual-linear users,
    /// users with `B_fof = 0`, and every seventh edge impossible
    /// (`p = 0`). Probabilities and reckless users' `B_fof` span two
    /// decades, so some direct terms are tiny but nonzero.
    fn mixed_instance(seed: u64) -> AccuInstance {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let g = osn_graph::generators::barabasi_albert(60, 3, &mut rng).unwrap();
        let m = g.edge_count();
        let probs = (0..m)
            .map(|e| {
                if e % 7 == 0 {
                    0.0
                } else {
                    rng.gen_range(0.01..1.0)
                }
            })
            .collect();
        let mut builder = AccuInstanceBuilder::new(g).edge_probabilities(probs);
        for i in 0..60usize {
            let v = NodeId::from(i);
            builder = match i % 11 {
                3 => builder
                    .user_class(v, UserClass::cautious(rng.gen_range(1..3)))
                    .benefits(v, 50.0, 1.0),
                5 => builder
                    .user_class(
                        v,
                        UserClass::hesitant(rng.gen_range(0.05..0.3), 0.9, rng.gen_range(1..4)),
                    )
                    .benefits(v, 30.0, 1.0),
                7 => builder.user_class(v, UserClass::mutual_linear(0.1, 0.2)),
                _ => builder
                    .user_class(v, UserClass::reckless(rng.gen_range(0.1..1.0)))
                    .benefits(v, 2.0, rng.gen_range(0.01..1.0)),
            };
            if i % 13 == 0 {
                builder = builder.benefits(v, 2.0, 0.0);
            }
        }
        builder.build().unwrap()
    }

    #[test]
    fn incremental_matches_naive_full_rescan() {
        // The winner tree, the stamped dirty set and the compacted rows
        // are optimizations only. On instances mixing every user class,
        // with impossible edges (one forced present), `B_fof = 0` users,
        // both indirect weights and a belief whose probabilities differ
        // from the truth, whole episodes must pick what a from-scratch
        // argmax picks at every step, and after every reset and
        // observation each candidate's cached potential must equal
        // `potential_of` bit for bit — as must a new policy's, reset on
        // the episode's partial observation.
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
        struct CheckedAbm(Abm);
        impl CheckedAbm {
            fn check(&self, view: &AttackerView<'_>) {
                let mut rebuilt = Abm::new(self.0.weights);
                rebuilt.reset(view);
                for u in view.candidates() {
                    let fresh = self.0.potential_of(view, u).to_bits();
                    let requests = view.observation().requests().len();
                    assert_eq!(
                        self.0.tree.key(u).to_bits(),
                        fresh,
                        "cached potential of {u} diverged after {requests} requests"
                    );
                    assert_eq!(
                        rebuilt.tree.key(u).to_bits(),
                        fresh,
                        "reset after {requests} requests misscored {u}"
                    );
                }
            }
        }
        impl Policy for CheckedAbm {
            fn name(&self) -> &str {
                "CheckedABM"
            }
            fn reset(&mut self, view: &AttackerView<'_>) {
                self.0.reset(view);
                self.check(view);
            }
            fn select(&mut self, view: &AttackerView<'_>) -> Option<NodeId> {
                self.0.select(view)
            }
            fn observe(
                &mut self,
                view: &AttackerView<'_>,
                target: NodeId,
                accepted: bool,
                newly_revealed: &[NodeId],
            ) {
                self.0.observe(view, target, accepted, newly_revealed);
                self.check(view);
            }
        }
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut revealed_impossible = 0;
        for seed in 0..6u64 {
            let truth = mixed_instance(seed);
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let m = truth.graph().edge_count();
            let n = truth.node_count();
            let mut edges: Vec<bool> = (0..m)
                .map(|e| rng.gen_bool(truth.edge_probability(osn_graph::EdgeId::from(e))))
                .collect();
            edges[0] = true; // edge 0 has p = 0
            let accepts = (0..n).map(|_| rng.gen_bool(0.7)).collect();
            let real = Realization::from_parts(&truth, edges, accepts).unwrap();
            let believed = {
                let probs = (0..m)
                    .map(|e| {
                        if e % 5 == 1 {
                            0.0
                        } else {
                            rng.gen_range(0.05..1.0)
                        }
                    })
                    .collect();
                let classes = (0..n).map(|i| truth.user_class(NodeId::from(i))).collect();
                AccuInstanceBuilder::new(truth.graph().clone())
                    .edge_probabilities(probs)
                    .user_classes(classes)
                    .build()
                    .unwrap()
            };
            for weights in [AbmWeights::new(1.0, 0.0), AbmWeights::balanced()] {
                for belief in [None, Some(&believed)] {
                    let opts = crate::AttackOptions {
                        believed: belief,
                        ..Default::default()
                    };
                    let run = |policy: &mut dyn Policy| {
                        crate::simulator::attack_with(&truth, &real, policy, n + 5, &opts).unwrap()
                    };
                    let fast = run(&mut CheckedAbm(Abm::new(weights)));
                    let slow = run(&mut NaiveAbm(Abm::new(weights)));
                    let fast_targets: Vec<NodeId> = fast.trace.iter().map(|r| r.target).collect();
                    let slow_targets: Vec<NodeId> = slow.trace.iter().map(|r| r.target).collect();
                    assert_eq!(fast_targets, slow_targets, "seed {seed}: traces diverged");
                    assert_eq!(fast.total_benefit, slow.total_benefit);
                    // Whole episodes: every node requested, then `select`
                    // reported exhaustion.
                    assert_eq!(fast.trace.len(), n);
                    // Was the impossible edge revealed present while
                    // its other endpoint was still a candidate?
                    let (lo, hi) = truth.graph().edge(osn_graph::EdgeId::new(0)).endpoints();
                    let step = |u| fast_targets.iter().position(|&t| t == u).unwrap();
                    let first = step(lo).min(step(hi));
                    revealed_impossible += usize::from(fast.trace[first].accepted);
                }
            }
        }
        assert!(revealed_impossible > 0);
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

        // The winner tree holds no stale entries: every select retires
        // exactly the node it returns, and nothing is ever skipped.
        assert_eq!(count(abm_metrics::HEAP_POP), count(abm_metrics::SELECTS));
        assert_eq!(snap.counter(abm_metrics::STALE_SKIP).unwrap_or(0), 0);
        // One select per request actually sent by the simulator.
        assert_eq!(count(abm_metrics::SELECTS), count(sim_metrics::REQUESTS));
        assert_eq!(count(abm_metrics::SELECTS), 2);
        // reset() keyed all four candidates; rescoring only re-keys
        // nodes whose potential actually changed.
        assert!(count(abm_metrics::HEAP_PUSH) >= 4);
        assert_eq!(
            count(abm_metrics::HEAP_PUSH),
            4 + count(abm_metrics::RESCORES_CHANGED)
        );
        assert!(count(abm_metrics::RESCORES) >= count(abm_metrics::RESCORES_CHANGED));
    }

    #[test]
    fn decide_runner_up_matches_a_scan_of_the_candidates() {
        // `decide` reads its runner-up from the tree root once the pick
        // is retired; it must equal a scan of every other candidate's
        // cached potential under the same order, margin included.
        use accu_telemetry::{read_events, Tracer};
        use rand::{rngs::StdRng, SeedableRng};

        /// Records the scan's (pick, runner-up, margin) before each
        /// select, with the pick's potential still in the tree.
        struct Scanned {
            abm: Abm,
            expected: Vec<(u64, i64, f64)>,
        }
        impl Policy for Scanned {
            fn name(&self) -> &str {
                "ScannedABM"
            }
            fn reset(&mut self, view: &AttackerView<'_>) {
                self.abm.reset(view);
            }
            fn select(&mut self, view: &AttackerView<'_>) -> Option<NodeId> {
                let key = |u: NodeId| self.abm.tree.key(u);
                let better = |a: NodeId, b: NodeId| {
                    key(a).total_cmp(&key(b)).then_with(|| b.cmp(&a)) == Ordering::Greater
                };
                let best = view
                    .candidates()
                    .reduce(|a, b| if better(b, a) { b } else { a });
                let runner_up = view
                    .candidates()
                    .filter(|&u| Some(u) != best)
                    .reduce(|a, b| if better(b, a) { b } else { a });
                let expected = best.map(|b| match runner_up {
                    Some(r) => (b.index() as u64, r.index() as i64, key(b) - key(r)),
                    None => (b.index() as u64, -1, key(b)),
                });
                let picked = self.abm.select(view);
                assert_eq!(picked, best);
                self.expected.extend(expected);
                picked
            }
            fn observe(
                &mut self,
                view: &AttackerView<'_>,
                target: NodeId,
                accepted: bool,
                newly_revealed: &[NodeId],
            ) {
                self.abm.observe(view, target, accepted, newly_revealed);
            }
        }
        let inst = mixed_instance(3);
        let real = Realization::sample(&inst, &mut StdRng::seed_from_u64(7));
        let tracer = Tracer::enabled();
        let track = tracer.track("abm");
        let mut policy = Scanned {
            abm: Abm::new(AbmWeights::balanced()),
            expected: Vec::new(),
        };
        policy.abm.attach_tracer(&track);
        let outcome = run_attack(&inst, &real, &mut policy, 70);
        assert_eq!(outcome.trace.len(), 60);
        let log = tracer.export_causal().unwrap();
        let emitted: Vec<(u64, i64, f64)> = read_events(&log)
            .events
            .iter()
            .filter(|ev| ev.kind == "decide")
            .map(|ev| {
                let field = |k: &str| ev.get(k).unwrap();
                (
                    field("picked").as_u64().unwrap(),
                    field("runner_up").as_i64().unwrap(),
                    field("margin").as_f64().unwrap(),
                )
            })
            .collect();
        // The decide event rounds nothing: margins match bit for bit.
        assert_eq!(emitted.len(), policy.expected.len());
        for (got, want) in emitted.iter().zip(&policy.expected) {
            assert_eq!((got.0, got.1), (want.0, want.1));
            assert_eq!(got.2.to_bits(), want.2.to_bits());
        }
        assert!(emitted.iter().any(|e| e.1 >= 0) && emitted.last().unwrap().1 == -1);
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
    fn winner_tree_matches_brute_force_argmax() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // The largest key, the lower id on ties; `None` once every key
        // is `-inf` (retired).
        fn brute_force(key: &[f64]) -> Option<NodeId> {
            let mut best: Option<usize> = None;
            for (i, k) in key.iter().enumerate() {
                if *k != f64::NEG_INFINITY
                    && best.is_none_or(|b| k.total_cmp(&key[b]) == Ordering::Greater)
                {
                    best = Some(i);
                }
            }
            best.map(NodeId::from)
        }
        for n in [1usize, 2, 3, 1031] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            // Four key levels only, so ties are everywhere.
            let level = |rng: &mut StdRng| f64::from(rng.gen_range(0..4u32));
            let mut tree = WinnerTree {
                key: (0..n).map(|_| level(&mut rng)).collect(),
                slot: Vec::new(),
            };
            tree.rebuild();
            assert_eq!(tree.best(), brute_force(&tree.key), "n {n}: after rebuild");
            for step in 0..4 * n + 64 {
                let u = NodeId::from(rng.gen_range(0..n));
                let k = tree.key(u);
                match rng.gen_range(0..4u32) {
                    _ if k == f64::NEG_INFINITY => continue, // retired for good
                    0 => tree.set(u, k + 1.0),
                    1 => tree.set(u, k - 1.0),
                    2 => tree.set(u, level(&mut rng)),
                    _ => tree.retire(u),
                }
                assert_eq!(tree.best(), brute_force(&tree.key), "n {n}, step {step}");
            }
            for i in (0..n).rev() {
                tree.retire(NodeId::from(i));
                assert_eq!(tree.best(), brute_force(&tree.key), "n {n}, retiring {i}");
            }
            assert_eq!(tree.best(), None);
        }
    }
}
