//! Adaptive Benefit Maximization (paper Algorithm 1).

use accu_telemetry::{CounterHandle, Recorder, TraceTrack, TraceValue};
use osn_graph::NodeId;

use crate::{AccuInstance, AttackerView, Policy};

/// Well-known ABM metric names (see [`Abm::attach_recorder`]). The
/// names date from the lazy max-heap the winner tree replaced.
pub mod abm_metrics {
    /// Winner-tree keys set: one per candidate at reset, one per re-key
    /// that raised a touched candidate's key, and one per stale root
    /// settled.
    pub const HEAP_PUSH: &str = "abm.heap_push";
    /// Winner-tree retirements: exactly one per `select` that returned
    /// a target.
    pub const HEAP_POP: &str = "abm.heap_pop";
    /// Stale roots settled by `select`: roots whose tree key, an upper
    /// bound, was above their exact potential, so `select` re-keyed
    /// them and read the root again.
    pub const STALE_SKIP: &str = "abm.stale_skip";
    /// `select` calls that returned a target (so the derived
    /// `selects / (selects + stale_skip)` hit rate is the share of root
    /// reads that were already exact).
    pub const SELECTS: &str = "abm.selects";
    /// Touched live candidates: once per observation, every candidate
    /// whose potential may have risen (a newly revealed node, or a
    /// neighbor of a node whose indirect term grew).
    pub const RESCORES: &str = "abm.rescores";
    /// Touched candidates whose potential rose above their tree key,
    /// and so were re-keyed.
    pub const RESCORES_CHANGED: &str = "abm.rescores_changed";
}

/// Pre-fetched counter handles for the ABM hot paths; all no-ops until
/// a recorder is attached.
#[derive(Debug, Clone, Default)]
struct AbmTelemetry {
    heap_push: CounterHandle,
    heap_pop: CounterHandle,
    stale_skip: CounterHandle,
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

/// Flips the magnitude bits of a negative `f64`'s bit pattern: the map
/// `f64::total_cmp` applies before it compares two `i64`s. It keeps the
/// sign bit, so it is its own inverse.
#[inline]
const fn flip_negative(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// `x` as an `i64` whose order is `f64::total_cmp`'s.
#[inline]
const fn order_key(x: f64) -> i64 {
    flip_negative(x.to_bits() as i64)
}

/// The inverse of [`order_key`].
#[inline]
fn from_order_key(key: i64) -> f64 {
    f64::from_bits(flip_negative(key) as u64)
}

/// The key of a retired node, `-inf` under [`order_key`].
const RETIRED: i64 = order_key(f64::NEG_INFINITY);

/// One winner-tree slot: a node and its key under [`order_key`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry {
    key: i64,
    id: u32,
}

impl Entry {
    /// The winner of `self` and `other`: the larger key, the lower id
    /// on a tie. The compare is branch-free and the choice a select,
    /// since which side wins is a coin flip to the branch predictor.
    #[inline]
    fn winner(self, other: Entry) -> Entry {
        let wins = (self.key > other.key) | ((self.key == other.key) & (self.id < other.id));
        std::hint::select_unpredictable(wins, self, other)
    }
}

/// A winner (tournament) tree over node ids keyed by potential: the
/// argmax under `total_cmp`, ties broken toward the lower id, is read
/// at the root in O(1) and a key change costs one leaf-to-root walk
/// that stops as soon as a level's winner is unchanged.
///
/// Layout: `slot[n + i]` is the leaf of node `i` and every internal
/// `slot[j]` (`1 ≤ j < n`) holds the winner of `slot[2j]` and
/// `slot[2j + 1]`, so `slot[1]` is the overall winner. Each slot holds
/// its winner's key inline, so a level compares two adjacent slots and
/// follows no id to a key array. A retired node (already requested) is
/// keyed `-inf`; potentials are finite, so it wins only once every node
/// is retired.
#[derive(Debug, Clone, Default)]
struct WinnerTree {
    slot: Vec<Entry>,
}

impl WinnerTree {
    /// Rebuilds the tree over `keys`, node `i` keyed `keys[i]`.
    fn fill(&mut self, keys: impl ExactSizeIterator<Item = f64>) {
        let n = keys.len();
        self.slot.clear();
        self.slot.resize(n, Entry::default()); // slot 0 is unused
        self.slot.extend(keys.enumerate().map(|(i, key)| Entry {
            key: order_key(key),
            id: NodeId::from(i).as_u32(),
        }));
        for j in (1..n).rev() {
            self.slot[j] = self.slot[2 * j].winner(self.slot[2 * j + 1]);
        }
    }

    /// Overwrites this tree with `other` without reallocating.
    fn copy_from(&mut self, other: &WinnerTree) {
        self.slot.clone_from(&other.slot);
    }

    /// The index of `u`'s leaf slot.
    fn leaf(&self, u: NodeId) -> usize {
        self.slot.len() / 2 + u.index()
    }

    fn key(&self, u: NodeId) -> f64 {
        from_order_key(self.slot[self.leaf(u)].key)
    }

    /// Re-keys `u` and repairs its path to the root. Each level takes
    /// the winner of the entry coming up and its sibling; the walk
    /// stops at the first parent that already stores that winner, since
    /// nothing above it reads anything else.
    fn set(&mut self, u: NodeId, key: f64) {
        let mut j = self.leaf(u);
        let mut up = Entry {
            key: order_key(key),
            id: u.as_u32(),
        };
        self.slot[j] = up;
        while j > 1 {
            up = up.winner(self.slot[j ^ 1]);
            j /= 2;
            if self.slot[j] == up {
                return;
            }
            self.slot[j] = up;
        }
    }

    /// Keys `u` `-inf` so it never wins again (a no-op if it already
    /// is).
    fn retire(&mut self, u: NodeId) {
        if self.slot[self.leaf(u)].key != RETIRED {
            self.set(u, f64::NEG_INFINITY);
        }
    }

    /// The highest-keyed node and its key, or `None` when every node is
    /// retired.
    fn best(&self) -> Option<(NodeId, f64)> {
        self.slot
            .get(1)
            .filter(|top| top.key != RETIRED)
            .map(|top| (NodeId::new(top.id), from_order_key(top.key)))
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
/// An observation costs what it changed, and every record combines to a
/// potential bit-identical to a from-scratch
/// [`potential_of`](Abm::potential_of) by construction:
///
/// * **Sums kept by deltas.** Each node keeps a record
///   `(S_D, S_I, q, base, scale)`: the two neighbor sums of `P_D` and
///   `P_I`, its acceptance belief, `B_f(u) − [fof]·B_fof(u)` and its
///   row scale (below), so a delta finds the scale in the record it
///   writes instead of loading it from the instance. An acceptance
///   walks only the rows whose term changed — the target's (its direct
///   term if it was not a friend-of-friend, its indirect term if it was
///   still live) and that of each revealed node that just became a
///   friend-of-friend or, if threshold-gated and live, whose
///   denominator moved — and subtracts or replaces that one term in
///   each neighbor's sum. A rejection walks the target's row only if
///   its indirect term was live.
/// * **Fixed point, so order does not matter.** Each term is truncated
///   to an `i64` at its row's scale
///   ([`AccuInstance::row_scale`](crate::AccuInstance)) before it is
///   added, so a sum is the same integer whatever order its terms were
///   added and removed in. The from-scratch evaluation sums the same
///   integers and combines them with the same function, so the records
///   need no argument to match it. The scale keeps every sum below
///   `2^61`; plain `+=`/`-=` make debug builds trap any overflow.
/// * **Winner tree of upper bounds: rises eager, falls deferred.** The
///   candidates key an in-place tournament tree (strict order:
///   `total_cmp`, then the lower id). Every slot holds its winner as
///   `(key, id)`, the key mapped to an `i64` that orders as `total_cmp`
///   does, so a level of a re-key's leaf-to-root walk compares the
///   entry coming up with its sibling slot, branch-free, and takes the
///   winner with a select; the walk stops at the first parent already
///   holding that entry. A tree key is an upper bound on the
///   candidate's exact potential, its record combined.
///   Every term is non-negative — `p ∈ [0, 1]` and `q ∈ [0, 1]`
///   (checked by [`AccuInstanceBuilder::build`](crate::AccuInstanceBuilder::build)),
///   `0 ≤ B_fof ≤ B_f` (checked by
///   [`BenefitSchedule::new`](crate::BenefitSchedule::new)) and the
///   weights are clamped to `≥ 0` ([`AbmWeights::new`]) — so dropping a
///   term can only lower a potential, and a fall leaves the tree key
///   as it is. Potentials also *rise*: a revealed node's `q` may grow
///   (a cautious user's flips 0 → 1) and an indirect term grows when
///   its `θ − m` shrinks. Those candidates are touched, and one whose
///   exact potential is above its tree key is re-keyed at once.
///   `select` reads the root and compares its tree key with its exact
///   potential, O(1) from its record; a stale root is re-keyed to the
///   exact value and the root read again. The pick is then exact, ties
///   included: every other candidate's exact potential is at most its
///   tree key, which is at most the root's, so an exact tie is also a
///   tree tie, which the tree breaks toward the lower id. This is lazy
///   greedy (CELF) applied to the falls only. A traced `select`
///   settles its runner-up the same way before reporting it.
/// * **Stamped touched set.** Every node whose potential an
///   observation may have raised is listed once (a per-node epoch
///   stamp marks it listed) and, if still a candidate, compared with
///   its tree key after all deltas are in, so nothing is sorted or
///   deduplicated.
/// * **Priors stand in for beliefs.** A candidate's terms depend on an
///   edge's belief only when neither endpoint is a friend. Such an edge
///   is unresolved, so its belief is the prior `p(e)`, and both
///   evaluations read the instance's probabilities instead of per-edge
///   beliefs.
/// * **Reset copies.** Within one instance every episode starts from
///   the same empty observation, so a fresh episode copies the records
///   and the tree built by the first reset on the instance.
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
    /// Upper bounds on the candidates' potentials keying the selection
    /// tree (exact at the root once `select` settled it); `-inf` once a
    /// node has been requested.
    tree: WinnerTree,
    tel: AbmTelemetry,
    /// Decision-trace emission handle; a no-op until [`Abm::attach_tracer`].
    trace: TraceTrack,
    /// Per-node potential inputs, kept by deltas (requested nodes'
    /// records included, though nothing reads them).
    records: Vec<Record>,
    /// The nodes whose records the current observation changed.
    touched: TouchedSet,
    /// Records and tree of the empty observation on the last instance
    /// this policy was reset on, keyed by the instance's process-unique
    /// id, which clones share and rebuilds never reuse.
    init_cache: Option<InitCache>,
}

/// See [`Abm::init_cache`].
#[derive(Debug, Clone)]
struct InitCache {
    instance_id: u64,
    tree: WinnerTree,
    records: Vec<Record>,
}

/// The inputs of one node's potential (see the [`Abm`] notes).
#[derive(Debug, Clone, Copy)]
struct Record {
    /// `S_D`: `Σ p(u,v)·B_fof(v)` over neighbors `v` that are neither a
    /// friend nor a friend-of-friend, in fixed point.
    direct: i64,
    /// `S_I`: `Σ p(u,c)·gap_c/(θ_c − m_c)` over unrequested
    /// threshold-gated neighbors `c` still below threshold, in fixed
    /// point; 0 while `w_I = 0`.
    indirect: i64,
    /// The acceptance belief `q(u)`.
    q: f64,
    /// `B_f(u)`, less `B_fof(u)` once `u` is a friend-of-friend.
    base: f64,
    /// `u`'s row scale, so a delta finds it in the record it writes.
    scale: f64,
}

impl Record {
    /// Evaluates `u`'s record from scratch, `q = q(u)` already looked
    /// up.
    fn scratch(view: &AttackerView<'_>, u: NodeId, q: f64, w: AbmWeights) -> Self {
        let obs = view.observation();
        let inst = view.instance();
        let benefits = inst.benefits();
        let scale = inst.row_scale(u).scale;
        let mut direct = 0;
        for (v, e) in inst.graph().neighbor_entries(u) {
            if !obs.is_friend(v) && obs.mutual_friends(v) == 0 {
                direct += fixed(
                    inst.edge_prob[e.index()] * benefits.friend_of_friend(v),
                    scale,
                );
            }
        }
        let mut indirect = 0;
        if w.indirect() > 0.0 {
            for c in inst.cautious_row(u) {
                // A cautious user that already rejected a request is
                // skipped: without re-requests its friend benefit is
                // forfeited, so pushing it toward the threshold has no
                // value.
                let mutual = obs.mutual_friends(c.node);
                if !obs.was_requested(c.node) && c.theta > mutual {
                    let p = inst.edge_prob[c.edge.index()];
                    indirect += fixed(indirect_term(p, c.gap, c.theta - mutual), scale);
                }
            }
        }
        let base = benefits.friend(u)
            - if obs.is_friend_of_friend(u) {
                benefits.friend_of_friend(u)
            } else {
                0.0
            };
        Record {
            direct,
            indirect,
            q,
            base,
            scale,
        }
    }

    /// The factors `(q, P_D, P_I)` at the row's reciprocal scale;
    /// `(0, 0, 0)` when `q = 0`.
    fn parts(&self, inv_scale: f64) -> (f64, f64, f64) {
        if self.q == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.q,
            self.base + self.direct as f64 * inv_scale,
            self.indirect as f64 * inv_scale,
        )
    }
}

/// `x` in fixed point at `scale`, truncated toward zero.
#[inline]
fn fixed(x: f64, scale: f64) -> i64 {
    (x * scale) as i64
}

/// The indirect term `p·gap/(θ − m)` of a live threshold-gated neighbor,
/// `remaining = θ − m ≥ 1`.
#[inline]
fn indirect_term(p: f64, gap: f64, remaining: u32) -> f64 {
    p * gap / f64::from(remaining)
}

/// Combines the factors: `q·(w_D·P_D + w_I·P_I)`.
#[inline]
fn weigh((q, direct, indirect): (f64, f64, f64), w: AbmWeights) -> f64 {
    q * (w.direct() * direct + w.indirect() * indirect)
}

/// The nodes one observation touched, each listed once: a per-node
/// epoch stamp marks a node listed.
#[derive(Debug, Clone, Default)]
struct TouchedSet {
    stamp: Vec<u32>,
    /// Observations absorbed this episode.
    epoch: u32,
    nodes: Vec<NodeId>,
}

impl TouchedSet {
    /// Sizes the set for `n` nodes, so no later insert allocates.
    fn reset(&mut self, n: usize) {
        self.stamp.clear();
        self.stamp.resize(n, 0);
        self.epoch = 0;
        self.nodes.clear();
        self.nodes.reserve(n);
    }

    /// Empties the set for the next observation.
    fn begin(&mut self) {
        self.epoch += 1;
        self.nodes.clear();
    }

    fn insert(&mut self, u: NodeId) {
        let stamp = &mut self.stamp[u.index()];
        if *stamp != self.epoch {
            *stamp = self.epoch;
            self.nodes.push(u);
        }
    }
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
            records: Vec::new(),
            touched: TouchedSet::default(),
            init_cache: None,
        }
    }

    /// Creates an ABM policy reporting selection and re-key telemetry
    /// into `recorder` under the [`abm_metrics`] names.
    pub fn with_recorder(weights: AbmWeights, recorder: &Recorder) -> Self {
        let mut abm = Abm::new(weights);
        abm.attach_recorder(recorder);
        abm
    }

    /// Attaches a recorder: subsequent tree updates, selections and
    /// re-keys are counted under the [`abm_metrics`] names. Attaching
    /// a disabled recorder restores the zero-cost no-op handles.
    pub fn attach_recorder(&mut self, recorder: &Recorder) {
        self.tel = AbmTelemetry::new(recorder);
    }

    /// Attaches a trace track: while the track's sampling gate is open,
    /// every `select` emits a `decide` instant with the full potential
    /// breakdown (`q`, `P_D`, `P_I`, the weights, the runner-up and the
    /// margin) and every `observe` emits an `abm_observe` instant with
    /// the number of candidates touched. Attaching a disabled track
    /// restores the zero-cost no-op.
    pub fn attach_tracer(&mut self, track: &TraceTrack) {
        self.trace = track.clone();
    }

    /// The configured weights.
    pub fn weights(&self) -> AbmWeights {
        self.weights
    }

    /// Computes the potential `P(u|ω)` of a candidate `u` from scratch.
    ///
    /// Public so experiments and tests can inspect the scoring directly.
    pub fn potential_of(&self, view: &AttackerView<'_>, u: NodeId) -> f64 {
        weigh(potential_parts(view, u, self.weights), self.weights)
    }

    /// `u`'s exact potential: its record, combined by [`weigh`]. For a
    /// candidate it is bit-identical to
    /// [`potential_of`](Abm::potential_of) and at most its tree key.
    fn exact_key(&self, inst: &AccuInstance, u: NodeId) -> f64 {
        weigh(
            self.records[u.index()].parts(inst.row_scale(u).inv),
            self.weights,
        )
    }

    /// The tree's root and its key, made exact, or `None` once every
    /// node is retired: while the root's tree key is above its exact
    /// potential, the root is re-keyed to it and read again.
    fn settled_best(&mut self, inst: &AccuInstance) -> Option<(NodeId, f64)> {
        loop {
            let (u, key) = self.tree.best()?;
            let exact = self.exact_key(inst, u);
            if exact.total_cmp(&key).is_eq() {
                return Some((u, key));
            }
            self.tree.set(u, exact);
            self.tel.stale_skip.incr();
            self.tel.heap_push.incr();
        }
    }

    /// Emits the `decide` trace instant for a pick already retired
    /// from the tree: the potential breakdown of the picked node, the
    /// runner-up (the settled root, with its key), and the margin
    /// between them. Only called while the track's gate is open, so the
    /// untraced select path pays one relaxed load and nothing else.
    fn emit_decide(
        &self,
        view: &AttackerView<'_>,
        picked: NodeId,
        potential: f64,
        runner_up: Option<(NodeId, f64)>,
    ) {
        let (q, p_d, p_i) = potential_parts(view, picked, self.weights);
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
                        Some((r, _)) => TraceValue::I64(r.index() as i64),
                        None => TraceValue::I64(-1),
                    },
                ),
                (
                    "margin",
                    match runner_up {
                        Some((_, key)) => TraceValue::F64(potential - key),
                        None => TraceValue::F64(potential),
                    },
                ),
            ],
        );
    }

    /// Emits the `abm_observe` trace instant: how many candidates this
    /// observation touched.
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

    /// Moves `x`'s terms in the sums of each of its neighbors: drops
    /// `x`'s direct term if `drop_direct`, and if
    /// `indirect = Some((from, to))` replaces its indirect term at
    /// `θ − m = from` by the one at `to` (by none if `to` is `None`).
    /// Neighbors are touched only when the indirect term grows
    /// (`to < from`); every other move lowers their potentials, which
    /// leaves their tree keys upper bounds.
    fn shift_terms(
        &mut self,
        inst: &AccuInstance,
        x: NodeId,
        drop_direct: bool,
        indirect: Option<(u32, Option<u32>)>,
    ) {
        let benefits = inst.benefits();
        let (fof, gap) = (benefits.friend_of_friend(x), benefits.gap(x));
        let rises = matches!(indirect, Some((_, Some(_))));
        for (u, e) in inst.graph().neighbor_entries(x) {
            let p = inst.edge_prob[e.index()];
            let rec = &mut self.records[u.index()];
            let scale = rec.scale;
            if drop_direct {
                rec.direct -= fixed(p * fof, scale);
            }
            if let Some((from, to)) = indirect {
                rec.indirect -= fixed(indirect_term(p, gap, from), scale);
                if let Some(to) = to {
                    rec.indirect += fixed(indirect_term(p, gap, to), scale);
                }
            }
            if rises {
                self.touched.insert(u);
            }
        }
    }
}

/// The factors of the ABM potential, `(q, P_D, P_I)`, evaluated from
/// scratch before the weighted combination — what the `decide` trace
/// event reports. `(0, 0, 0)` when the acceptance belief is zero (the
/// sums are then never evaluated).
fn potential_parts(view: &AttackerView<'_>, u: NodeId, w: AbmWeights) -> (f64, f64, f64) {
    let q = view.acceptance_belief(u);
    if q == 0.0 {
        return (0.0, 0.0, 0.0);
    }
    Record::scratch(view, u, q, w).parts(view.instance().row_scale(u).inv)
}

impl Policy for Abm {
    fn name(&self) -> &str {
        &self.name
    }

    fn reset(&mut self, view: &AttackerView<'_>) {
        let inst = view.instance();
        let obs = view.observation();
        let n = inst.node_count();
        self.touched.reset(n);
        // Fresh-episode fast path: with no requests recorded yet every
        // node is a candidate and the records depend only on the
        // instance, so the first reset's records and tree are copied.
        let fresh = obs.requests().is_empty();
        let id = inst.instance_id();
        match &self.init_cache {
            Some(cache) if fresh && cache.instance_id == id && cache.records.len() == n => {
                self.records.clone_from(&cache.records);
                self.tree.copy_from(&cache.tree);
            }
            _ => {
                let w = self.weights;
                self.records.clear();
                self.records.extend((0..n).map(|i| {
                    let u = NodeId::from(i);
                    Record::scratch(view, u, view.acceptance_belief(u), w)
                }));
                self.tree
                    .fill(self.records.iter().enumerate().map(|(i, rec)| {
                        let u = NodeId::from(i);
                        if obs.was_requested(u) {
                            f64::NEG_INFINITY
                        } else {
                            weigh(rec.parts(inst.row_scale(u).inv), w)
                        }
                    }));
                if fresh {
                    self.init_cache = Some(InitCache {
                        instance_id: id,
                        tree: self.tree.clone(),
                        records: self.records.clone(),
                    });
                }
            }
        }
        self.tel.heap_push.add((n - obs.requests().len()) as u64);
    }

    fn select(&mut self, view: &AttackerView<'_>) -> Option<NodeId> {
        let inst = view.instance();
        let (picked, potential) = self.settled_best(inst)?;
        self.tree.retire(picked);
        self.tel.heap_pop.incr();
        self.tel.selects.incr();
        if self.trace.is_active() {
            let runner_up = self.settled_best(inst);
            self.emit_decide(view, picked, potential, runner_up);
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
        self.touched.begin();
        let obs = view.observation();
        let inst = view.instance();
        let benefits = inst.benefits();
        let indirect_on = self.weights.indirect() > 0.0;
        // The target's terms in its neighbors' rows. Its direct term
        // goes once it is a friend, unless it was a friend-of-friend
        // (and so had none); its indirect term goes once it is
        // requested, if it was live. Its own mutual count is unchanged.
        let mutual = obs.mutual_friends(target);
        let gone_direct = accepted && mutual == 0;
        let gone_indirect = inst
            .threshold(target)
            .filter(|&theta| indirect_on && theta > mutual)
            .map(|theta| (theta - mutual, None));
        if gone_direct || gone_indirect.is_some() {
            self.shift_terms(inst, target, gone_direct, gone_indirect);
        }
        // Each revealed node gained a mutual friend (empty on a
        // rejection). Its own `q` may move, so it is touched; its direct
        // term leaves its neighbors' rows if it just became a
        // friend-of-friend; and if it is threshold-gated, unrequested
        // and was below threshold, its indirect term's denominator
        // shrinks (to nothing once the threshold is met).
        for &v in newly_revealed {
            let mutual = obs.mutual_friends(v); // after the increment
            let fof_flip = mutual == 1 && !obs.is_friend(v);
            let moved = inst
                .threshold(v)
                .filter(|&theta| indirect_on && !obs.was_requested(v) && theta >= mutual)
                .map(|theta| (theta - mutual + 1, (theta > mutual).then(|| theta - mutual)));
            if fof_flip || moved.is_some() {
                self.shift_terms(inst, v, fof_flip, moved);
            }
            let rec = &mut self.records[v.index()];
            rec.q = view.acceptance_belief(v);
            if fof_flip {
                rec.base = benefits.friend(v) - benefits.friend_of_friend(v);
            }
            self.touched.insert(v);
        }
        // Re-key every touched candidate whose potential rose above its
        // tree key; a fall stays in the tree as an upper bound.
        let mut dirty = 0usize;
        for &u in &self.touched.nodes {
            if obs.was_requested(u) {
                continue;
            }
            dirty += 1;
            let key = self.exact_key(inst, u);
            if key.total_cmp(&self.tree.key(u)).is_gt() {
                self.tree.set(u, key);
                self.tel.rescores_changed.incr();
                self.tel.heap_push.incr();
            }
        }
        self.tel.rescores.add(dirty as u64);
        if self.trace.is_active() {
            self.emit_observe(target, accepted, dirty);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

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
        // After an acceptance, every exact key must equal a from-scratch
        // evaluation.
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
        let key = |u| abm.exact_key(&inst, u);
        for u in view.candidates() {
            assert_eq!(
                key(u),
                abm.potential_of(&view, u),
                "cached potential of {u} diverged"
            );
        }
        // The hub was requested without `select` picking it: observing
        // it retires it all the same.
        let best = view
            .candidates()
            .max_by(|&a, &b| key(a).total_cmp(&key(b)).then(b.cmp(&a)));
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

    /// ABM that runs `check` on its own state after every reset and
    /// every observation.
    struct Checked<F: Fn(&Abm, &AttackerView<'_>)>(Abm, F);

    impl<F: Fn(&Abm, &AttackerView<'_>)> Policy for Checked<F> {
        fn name(&self) -> &str {
            "CheckedABM"
        }
        fn reset(&mut self, view: &AttackerView<'_>) {
            self.0.reset(view);
            (self.1)(&self.0, view);
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
            (self.1)(&self.0, view);
        }
    }

    /// Runs `policy` for a whole episode (every node requested, then
    /// `select` reports exhaustion), believing `belief` if given.
    fn whole_episode(
        truth: &AccuInstance,
        real: &Realization,
        belief: Option<&AccuInstance>,
        policy: &mut dyn Policy,
    ) -> crate::AttackOutcome {
        let n = truth.node_count();
        let opts = crate::AttackOptions {
            believed: belief,
            ..Default::default()
        };
        let outcome = crate::simulator::attack_with(truth, real, policy, n + 5, &opts).unwrap();
        assert_eq!(outcome.trace.len(), n);
        outcome
    }

    /// Calls `episode(truth, realization, belief, weights)` for each
    /// [`mixed_instance`] seed, both indirect weights (0 and balanced),
    /// and both the truth and a believed instance whose probabilities
    /// differ from it. Edge 0 (`p = 0`) is forced present.
    fn mixed_episodes(
        mut episode: impl FnMut(&AccuInstance, &Realization, Option<&AccuInstance>, AbmWeights),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
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
                    episode(&truth, &real, belief, weights);
                }
            }
        }
    }

    #[test]
    fn incremental_matches_naive_full_rescan() {
        // The winner tree, the delta-kept sums and the touched set are
        // optimizations only. On instances mixing every user class,
        // with impossible edges (one forced present), `B_fof = 0` users,
        // both indirect weights and a belief whose probabilities differ
        // from the truth, whole episodes must pick what a from-scratch
        // argmax picks at every step, and after every reset and
        // observation each candidate's exact key must equal
        // `potential_of` bit for bit — as must a new policy's, reset on
        // the episode's partial observation — and its tree key must be
        // at least its exact key.
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
        fn bit_identical(abm: &Abm, view: &AttackerView<'_>) {
            let mut rebuilt = Abm::new(abm.weights);
            rebuilt.reset(view);
            let requests = view.observation().requests().len();
            for u in view.candidates() {
                let fresh = abm.potential_of(view, u);
                assert_eq!(
                    abm.exact_key(view.instance(), u).to_bits(),
                    fresh.to_bits(),
                    "cached potential of {u} diverged after {requests} requests"
                );
                assert_eq!(
                    rebuilt.exact_key(view.instance(), u).to_bits(),
                    fresh.to_bits(),
                    "reset after {requests} requests misscored {u}"
                );
                for (what, policy) in [("cached", abm), ("reset", &rebuilt)] {
                    assert!(
                        policy.tree.key(u).total_cmp(&fresh).is_ge(),
                        "{what} tree key of {u} is below its potential after {requests} requests"
                    );
                }
            }
        }
        let mut revealed_impossible = 0;
        mixed_episodes(|truth, real, belief, weights| {
            let fast = whole_episode(
                truth,
                real,
                belief,
                &mut Checked(Abm::new(weights), bit_identical),
            );
            let slow = whole_episode(truth, real, belief, &mut NaiveAbm(Abm::new(weights)));
            let fast_targets: Vec<NodeId> = fast.trace.iter().map(|r| r.target).collect();
            let slow_targets: Vec<NodeId> = slow.trace.iter().map(|r| r.target).collect();
            assert_eq!(fast_targets, slow_targets, "traces diverged");
            assert_eq!(fast.total_benefit, slow.total_benefit);
            // Was the impossible edge revealed present while its other
            // endpoint was still a candidate?
            let (lo, hi) = truth.graph().edge(osn_graph::EdgeId::new(0)).endpoints();
            let step = |u| fast_targets.iter().position(|&t| t == u).unwrap();
            let first = step(lo).min(step(hi));
            revealed_impossible += usize::from(fast.trace[first].accepted);
        });
        assert!(revealed_impossible > 0);
    }

    /// The §III-A potential `q(u)·(w_D·P_D + w_I·P_I)` in plain `f64`,
    /// read off the paper: the view's edge beliefs, the class's
    /// acceptance curve and thresholds, no fixed point and no cautious
    /// index.
    fn oracle(view: &AttackerView<'_>, u: NodeId, w: AbmWeights) -> f64 {
        let inst = view.instance();
        let obs = view.observation();
        let b = inst.benefits();
        let fof = |v: NodeId| !obs.is_friend(v) && obs.mutual_friends(v) > 0;
        let mut p_d = b.friend(u) - if fof(u) { b.friend_of_friend(u) } else { 0.0 };
        let mut p_i = 0.0;
        for (v, e) in inst.graph().neighbor_entries(u) {
            let p = view.edge_belief(e);
            if !obs.is_friend(v) && !fof(v) {
                p_d += p * b.friend_of_friend(v);
            }
            let m = obs.mutual_friends(v);
            if let Some(theta) = inst.user_class(v).threshold() {
                if !obs.was_requested(v) && theta > m {
                    p_i += p * (b.friend(v) - b.friend_of_friend(v)) / f64::from(theta - m);
                }
            }
        }
        let q = inst
            .user_class(u)
            .acceptance_probability_at(obs.mutual_friends(u));
        q * (w.direct() * p_d + w.indirect() * p_i)
    }

    /// `B_f(u) + Σ_{v ∈ N(u)} B_f(v)`, which bounds `P_D(u)` and `P_I(u)`.
    fn row_bound(inst: &AccuInstance, u: NodeId) -> f64 {
        let b = inst.benefits();
        b.friend(u)
            + inst
                .graph()
                .neighbors(u)
                .iter()
                .map(|&v| b.friend(v))
                .sum::<f64>()
    }

    /// Every candidate's exact key and from-scratch potential lie within
    /// `1e-12·max(1, row bound)` of the [`oracle`].
    fn matches_oracle(abm: &Abm, view: &AttackerView<'_>) {
        let requests = view.observation().requests().len();
        for u in view.candidates() {
            let want = oracle(view, u, abm.weights);
            let tolerance = 1e-12 * row_bound(view.instance(), u).max(1.0);
            for (what, got) in [
                ("cached", abm.exact_key(view.instance(), u)),
                ("from-scratch", abm.potential_of(view, u)),
            ] {
                assert!(
                    (got - want).abs() <= tolerance,
                    "{what} potential of {u} is {got}, the oracle's {want}, after {requests} requests"
                );
            }
        }
    }

    #[test]
    fn potentials_match_an_f64_oracle() {
        // The exact keys and from-scratch potentials share one arithmetic,
        // so their bit-identity does not check the formula; an f64
        // evaluation of the paper's does.
        mixed_episodes(|truth, real, belief, weights| {
            whole_episode(
                truth,
                real,
                belief,
                &mut Checked(Abm::new(weights), matches_oracle),
            );
        });
    }

    #[test]
    fn potentials_keep_their_precision_at_extreme_magnitudes() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let pure = AbmWeights::new(1.0, 0.0);

        // Node 3's row holds B_fof = 1 while the other component holds
        // B_fof = 1e300: a per-row scale keeps node 3's term.
        let g = GraphBuilder::from_edges(5, [(0u32, 1u32), (1, 2), (3, 4)]).unwrap();
        let inst = AccuInstanceBuilder::new(g)
            .benefits(NodeId::new(1), 1e300, 1e300)
            .build()
            .unwrap();
        let obs = Observation::for_instance(&inst);
        let view = AttackerView::new(&inst, &obs);
        let mut abm = Abm::new(pure);
        abm.reset(&view);
        assert_eq!(abm.potential_of(&view, NodeId::new(3)), 3.0);
        assert_eq!(abm.exact_key(&inst, NodeId::new(3)), 3.0);
        matches_oracle(&abm, &view);

        // A cautious hub (θ = 5) of degree 1,200 over a path of leaves,
        // every tenth leaf cautious: its sums absorb deltas while its
        // `q` is 0, and its key is read from them once `q` flips.
        let n = 1201u32;
        let mut rng = StdRng::seed_from_u64(5);
        let edges = (1..n).map(|i| (0, i)).chain((1..n - 1).map(|i| (i, i + 1)));
        let g = GraphBuilder::from_edges(n as usize, edges).unwrap();
        assert_eq!(g.degree(NodeId::new(0)), 1200);
        let probs = (0..g.edge_count())
            .map(|_| rng.gen_range(0.01..1.0))
            .collect();
        let mut builder = AccuInstanceBuilder::new(g)
            .edge_probabilities(probs)
            .user_class(NodeId::new(0), UserClass::cautious(5))
            .benefits(NodeId::new(0), 100.0, 1.0);
        for i in 1..n as usize {
            let v = NodeId::from(i);
            builder = if i % 10 == 0 {
                builder
                    .user_class(v, UserClass::cautious(rng.gen_range(1..3)))
                    .benefits(v, 50.0, 1.0)
            } else {
                builder
                    .user_class(v, UserClass::reckless(rng.gen_range(0.2..1.0)))
                    .benefits(v, 2.0, rng.gen_range(0.001..1.0))
            };
        }
        let hub = builder.build().unwrap();
        let real = Realization::sample(&hub, &mut rng);
        let outcome = whole_episode(
            &hub,
            &real,
            None,
            &mut Checked(Abm::new(AbmWeights::balanced()), matches_oracle),
        );
        assert!(outcome.friends.contains(&NodeId::new(0)));

        // A star whose benefits sit near 1e-300 beside a component at
        // the usual scale: the scale clamps, and the scale, its
        // reciprocal and every potential stay finite and close.
        let g = GraphBuilder::from_edges(6, [(0u32, 1u32), (0, 2), (0, 3), (4, 5)]).unwrap();
        let tiny = AccuInstanceBuilder::new(g)
            .uniform_edge_probability(0.7)
            .benefits(NodeId::new(0), 2e-300, 1e-300)
            .benefits(NodeId::new(1), 2e-300, 1e-300)
            .benefits(NodeId::new(2), 3e-300, 1.5e-300)
            .user_class(NodeId::new(3), UserClass::cautious(1))
            .benefits(NodeId::new(3), 5e-300, 1e-300)
            .build()
            .unwrap();
        let scale = tiny.row_scale(NodeId::new(0));
        assert!(scale.scale.is_finite() && scale.inv > 0.0);
        assert_eq!(scale.scale * scale.inv, 1.0);
        let obs = Observation::for_instance(&tiny);
        let view = AttackerView::new(&tiny, &obs);
        let balanced = Abm::new(AbmWeights::balanced());
        for u in view.candidates() {
            let (got, want) = (
                balanced.potential_of(&view, u),
                oracle(&view, u, balanced.weights),
            );
            assert!(
                got.is_finite() && (got - want).abs() <= 1e-6 * want,
                "{u}: {got} vs {want}"
            );
        }
        let real = full(&tiny);
        for weights in [pure, AbmWeights::balanced()] {
            whole_episode(
                &tiny,
                &real,
                None,
                &mut Checked(Abm::new(weights), matches_oracle),
            );
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
        use abm_metrics::*;
        use accu_telemetry::Recorder;
        use rand::{rngs::StdRng, SeedableRng};

        let star = star();
        let mixed = mixed_instance(3);
        let mixed_real = Realization::sample(&mixed, &mut StdRng::seed_from_u64(7));
        let mut stale_skips = Vec::new();
        for (inst, real, budget) in [(&star, &full(&star), 2), (&mixed, &mixed_real, 40)] {
            let recorder = Recorder::enabled();
            let mut abm = Abm::with_recorder(AbmWeights::balanced(), &recorder);
            let opts = crate::AttackOptions {
                recorder: &recorder,
                ..Default::default()
            };
            let outcome =
                crate::simulator::attack_with(inst, real, &mut abm, budget, &opts).unwrap();
            assert_eq!(outcome.requests_sent(), budget);

            let snap = recorder.snapshot("abm-test").unwrap();
            let count = |name: &str| {
                snap.counter(name)
                    .unwrap_or_else(|| panic!("missing counter {name}"))
            };
            // Every select retires exactly the node it returns, one per
            // request actually sent by the simulator.
            assert_eq!(count(HEAP_POP), count(SELECTS));
            assert_eq!(count(SELECTS), count(sim_metrics::REQUESTS));
            assert_eq!(count(SELECTS), budget as u64);
            // Keys set: every candidate at reset, each touched candidate
            // whose potential rose, and each stale root `select` settled.
            assert_eq!(
                count(HEAP_PUSH),
                inst.node_count() as u64 + count(RESCORES_CHANGED) + count(STALE_SKIP)
            );
            assert!(count(RESCORES) >= count(RESCORES_CHANGED));
            stale_skips.push(count(STALE_SKIP));
        }
        // The star's second pick is the cautious leaf, whose key rose,
        // so no root is stale; on the mixed instance `select` settles
        // stale roots.
        assert_eq!(stale_skips[0], 0);
        assert!(stale_skips[1] > 0, "no stale root settled");
    }

    #[test]
    fn decide_runner_up_matches_a_scan_of_the_candidates() {
        // `decide` reads its runner-up from the settled tree root once
        // the pick is retired; it must equal a scan of every other
        // candidate's exact key under the same order, margin included.
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
                let key = |u: NodeId| self.abm.exact_key(view.instance(), u);
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
    fn order_key_is_a_bijection_ordered_as_total_cmp() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut values = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),                     // the smallest subnormal
            -f64::from_bits(1),                    // and its negative
            f64::from_bits(0x000f_ffff_ffff_ffff), // the largest subnormal
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN payloads
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::from_bits(0x7fff_ffff_ffff_ffff), // the largest payloads
            f64::from_bits(0xffff_ffff_ffff_ffff),
        ];
        values.extend((0..200).map(|_| f64::from_bits(rng.gen::<u64>())));
        for &a in &values {
            assert_eq!(from_order_key(order_key(a)).to_bits(), a.to_bits());
            for &b in &values {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.total_cmp(&b),
                    "{a:e} ({:#x}) vs {b:e} ({:#x})",
                    a.to_bits(),
                    b.to_bits()
                );
            }
        }
        // Onto as well as one-to-one: every `i64` is some key.
        for _ in 0..1000 {
            let key = rng.gen::<u64>() as i64;
            assert_eq!(order_key(from_order_key(key)), key);
        }
        for key in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert_eq!(order_key(from_order_key(key)), key);
        }
        assert_eq!(RETIRED, order_key(f64::NEG_INFINITY));
    }

    #[test]
    fn winner_tree_matches_brute_force_argmax() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // The largest key, the lower id on ties, with its key; `None`
        // once every key is `-inf` (retired).
        fn brute_force(key: &[f64]) -> Option<(NodeId, f64)> {
            let mut best: Option<usize> = None;
            for (i, k) in key.iter().enumerate() {
                if *k != f64::NEG_INFINITY
                    && best.is_none_or(|b| k.total_cmp(&key[b]) == Ordering::Greater)
                {
                    best = Some(i);
                }
            }
            best.map(|b| (NodeId::from(b), key[b]))
        }
        /// Every node's key reads back bit for bit.
        fn keys_round_trip(tree: &WinnerTree, key: &[f64]) {
            for (i, k) in key.iter().enumerate() {
                assert_eq!(
                    tree.key(NodeId::from(i)).to_bits(),
                    k.to_bits(),
                    "key of {i}"
                );
            }
        }
        for n in [1usize, 2, 3, 1031] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            // Four key levels only, so ties are everywhere; a few keys
            // sit on -0.0, which `total_cmp` orders below +0.0.
            let level = |rng: &mut StdRng| match rng.gen_range(0..5u32) {
                4 => -0.0,
                l => f64::from(l),
            };
            let mut key: Vec<f64> = (0..n).map(|_| level(&mut rng)).collect();
            let mut tree = WinnerTree::default();
            tree.fill(key.iter().copied());
            assert_eq!(tree.best(), brute_force(&key), "n {n}: after fill");
            keys_round_trip(&tree, &key);
            for step in 0..4 * n + 64 {
                let i = rng.gen_range(0..n);
                let (u, k) = (NodeId::from(i), key[i]);
                key[i] = match rng.gen_range(0..4u32) {
                    _ if k == f64::NEG_INFINITY => continue, // retired for good
                    0 => k + 1.0,
                    1 => k - 1.0,
                    2 => level(&mut rng),
                    _ => f64::NEG_INFINITY,
                };
                if key[i] == f64::NEG_INFINITY {
                    tree.retire(u);
                } else {
                    tree.set(u, key[i]);
                }
                assert_eq!(tree.best(), brute_force(&key), "n {n}, step {step}");
                assert_eq!(
                    tree.key(u).to_bits(),
                    key[i].to_bits(),
                    "n {n}, step {step}"
                );
            }
            keys_round_trip(&tree, &key);
            for i in (0..n).rev() {
                tree.retire(NodeId::from(i));
                key[i] = f64::NEG_INFINITY;
                assert_eq!(tree.best(), brute_force(&key), "n {n}, retiring {i}");
            }
            assert_eq!(tree.best(), None);
        }

        // Node 7 wins at 9 and node 1 holds 5; every other key is 0.
        let mut key = [0.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 9.0];
        let mut tree = WinnerTree::default();
        tree.fill(key.iter().copied());
        assert_eq!(tree.best(), Some((NodeId::new(7), 9.0)));
        // A rise that does not beat its sibling stops below the root:
        // a marker planted in the root slot is neither read as changed
        // nor overwritten.
        let marker = Entry { key: 1, id: 99 };
        let root = std::mem::replace(&mut tree.slot[1], marker);
        tree.set(NodeId::new(0), 1.0);
        assert_eq!(tree.slot[1], marker, "the rise walked up to the root");
        tree.slot[1] = root;
        key[0] = 1.0;
        assert_eq!(tree.best(), brute_force(&key));
        // The root can fall: node 7 drops below node 1 and then retires.
        tree.set(NodeId::new(7), 2.0);
        key[7] = 2.0;
        assert_eq!(tree.best(), Some((NodeId::new(1), 5.0)));
        assert_eq!(tree.best(), brute_force(&key));
        tree.retire(NodeId::new(1));
        key[1] = f64::NEG_INFINITY;
        assert_eq!(tree.best(), Some((NodeId::new(7), 2.0)));
        keys_round_trip(&tree, &key);
    }
}
